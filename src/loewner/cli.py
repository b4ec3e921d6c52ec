"""Command-line front end.

One subcommand per capability; outputs are CSV or plain text with floats
printed to 17 significant digits, so identical inputs give byte-identical
files.  Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .convolve import parse_expression
from .errors import NumericError, ValidationError
from .evolution import (
    anti_monotone_family,
    burgers_residual,
    free_family,
    monotone_family,
    sle_driving,
)
from .flows import (
    AtomPath,
    SemicircleFamily,
    driving_from_dict,
    flow_forward,
    trace,
    welding,
)
from .measures import from_dict as measure_from_dict, from_spec as measure_from_spec
from .transforms import as_cauchy, cauchy, invert_stieltjes


_FLOAT = "%.17g"  # 17 significant digits: each float reads back to its own bits


def _fmt(x: float) -> str:
    return _FLOAT % x


def _write_csv(path: str, header, rows):
    """Rows are tuples of numbers, each printed as ``_fmt`` prints it (a bool as 1 or 0)."""
    row = ",".join([_FLOAT] * len(header))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *(row % r for r in rows)]) + "\n")


def _parse_complex(text: str) -> complex:
    try:  # "i" is the unit where no letter follows it, not the "i" of "inf"
        return complex(re.sub(r"i(?![a-zA-Z])", "j", text))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"grid must look like a:b:n, got {spec!r}") from exc
    if not math.isfinite(b - a):  # so are a and b; linspace would warn and write NaN
        raise ValidationError(f"grid ends and their span must be finite, got {spec!r}")
    if n < 1:
        raise ValidationError(f"grid needs n >= 1 points, got {spec!r}")
    return np.linspace(a, b, n)


def _steps(args) -> int:
    if args.steps < 0:
        raise ValidationError(f"--steps must be nonnegative, got {args.steps}")
    return args.steps


def _time(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{flag} must be finite and nonnegative, got {value}")
    return value


def _json_spec(spec: str):
    """The JSON value of an ``@file`` or inline-JSON spec; ``None`` for any other spec."""
    if not spec.startswith(("@", "{")):
        return None
    try:
        return json.loads(Path(spec[1:]).read_text() if spec[0] == "@" else spec)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read spec {spec!r}: {exc}") from None


def _parse_measure(spec: str):
    if (obj := _json_spec(spec)) is not None:
        return measure_from_dict(obj)
    name, _, param = spec.partition(":")
    return measure_from_spec(name, param)


def _driver(args, horizon: float):
    if not (spec := args.driver):
        raise ValidationError("no driver given (use --driver)")
    if (obj := _json_spec(spec)) is not None:
        return driving_from_dict(obj)
    if spec in ("semicircle-family", "sc-family"):
        return SemicircleFamily()
    name, _, rest = spec.partition(":")
    try:
        params = [float(p) for p in rest.split(":")]
    except ValueError:
        raise ValidationError(f"cannot parse driver spec {spec!r}") from None
    end = horizon + 1.0
    if name == "const" and len(params) == 1:
        return AtomPath(np.array([0.0, end]), np.array([params[0], params[0]]))
    if name == "line" and len(params) == 2:
        return AtomPath(np.array([0.0, end]), np.array([params[0], params[0] + params[1] * end]))
    if name == "sle" and len(params) <= 2:
        dt = params[1] if len(params) > 1 else 1.0 / 64.0
        return sle_driving(params[0], dt, max(horizon, dt), args.seed)
    raise ValidationError(f"cannot parse driver spec {spec!r}")


def _materialize(g, args) -> int:
    """Invert the Cauchy transform ``g`` on ``--grid``; write the density and atoms CSVs."""
    if not args.grid:
        raise ValidationError("no grid given (use --grid a:b:n)")
    measure = invert_stieltjes(g, _parse_grid(args.grid), args.eps)
    rows = () if measure.values is None else zip(measure.grid().tolist(), measure.values.tolist())
    _write_csv(args.out, ("x", "density"), rows)
    if measure.atoms:
        _write_csv(args.atoms_out or f"{args.out}.atoms.csv", ("location", "mass"),
                   measure.atoms)
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_flow(args) -> int:
    big_t = _time(args.T, "--T")
    d = _driver(args, big_t)
    z = _parse_complex(args.z)
    rows = []
    for t in np.linspace(0.0, big_t, _steps(args) + 1):
        fp = flow_forward(d, z, float(t))
        rows.append((t, fp.value.real, fp.value.imag, fp.alive, fp.lifetime))
        if not fp.alive:
            break
    _write_csv(args.out, ("t", "re", "im", "alive", "lifetime"), rows)
    return 0


def _cmd_trace(args) -> int:
    big_t = _time(args.T, "--T")
    d = _driver(args, big_t)
    times = np.linspace(0.0, big_t, _steps(args) + 1)
    result = trace(d, [float(t) for t in times])
    rows = [(t, p.real, p.imag) for t, p in zip(result.times, result.points)]
    _write_csv(args.out, ("t", "re", "im"), rows)
    return 0


def _cmd_welding(args) -> int:
    big_t = _time(args.T, "--T")
    d = _driver(args, big_t)
    w = welding(d, big_t, npairs=args.pairs)
    _write_csv(args.out, ("x", "h_x"), w.pairs)
    print(f"a={_fmt(w.a)} b={_fmt(w.b)} u={_fmt(w.u)}")
    return 0


def _cmd_convolve(args) -> int:
    amap = parse_expression(args.expr)
    if args.probe:
        z = _parse_complex(args.probe)
        if not np.isfinite(z):
            raise ValidationError(f"--probe must be finite, got {args.probe!r}")
        if math.hypot(z.real, z.imag) > 2.0 ** 1022:  # past it, 1/z is subnormal
            raise ValidationError(f"--probe must have |z| <= 2**1022, got {args.probe!r}")
        val = amap(z)
        print(f"{amap.kind} {_fmt(val.real)} {_fmt(val.imag)}")
        return 0
    if not args.out:
        raise ValidationError("materializing needs --out (or use --probe)")
    return _materialize(as_cauchy(amap), args)


def _cmd_density(args) -> int:
    return _materialize(cauchy(_parse_measure(args.measure)), args)


def _cmd_family(args) -> int:
    s, t = _time(args.s, "--s"), _time(args.t, "--t")
    if s > t:
        raise ValidationError(f"--s must not exceed --t, got --s {s} and --t {t}")
    d = _driver(args, t)
    maker = {"monotone": monotone_family, "anti-monotone": anti_monotone_family,
             "free": free_family}[args.semantics]
    fam = maker(d)
    rows = []
    for ztext in args.z:
        z = _parse_complex(ztext)
        val = fam(s, t, z)
        rows.append((s, t, z.real, z.imag, val.real, val.imag))
    _write_csv(args.out, ("s", "t", "z_re", "z_im", "val_re", "val_im"), rows)
    return 0


def _cmd_sle(args) -> int:
    path = sle_driving(args.kappa, args.dt, args.T, args.seed)
    _write_csv(args.out, ("t", "u"), zip(path.times.tolist(), path.values.tolist()))
    return 0


def _cmd_burgers(args) -> int:
    ts = [_time(float(t), "--t") for t in _parse_grid(args.t)]
    if not (math.isfinite(args.im) and args.im > 0):
        raise ValidationError(f"--im must be finite and positive, got {args.im}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise ValidationError(f"--step must be finite and positive, got {args.step}")
    # the residual differentiates in t, so it reads the driver up to the latest t plus a step
    d = _driver(args, max(ts) + args.step)
    res = _parse_grid(args.re)
    zs = [complex(r, args.im) for r in res]
    rows = []
    worst = 0.0
    for t in ts:
        for z in zs:
            r = burgers_residual(d, [t], [z], step=args.step)
            worst = max(worst, r)
            rows.append((t, z.real, z.imag, r))
    _write_csv(args.out, ("t", "re", "im", "residual"), rows)
    print(f"max residual {_fmt(worst)}")
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance  # here, so that no other command loads the criteria
    return acceptance.run_and_print(args.criteria or None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Chordal Loewner flows, half-plane transforms, and convolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for sampled drivers (default %(default)s)")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("flow", help="forward flow of one point, sampled in time")
    p.add_argument("--driver", help="const:u | line:a:slope | sle:kappa[:dt] | @file | inline JSON")
    p.add_argument("--z", required=True, help="initial point, e.g. 1+2i")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    common(p)
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("trace", help="slit trace of a point-mass driver")
    p.add_argument("--driver", help="driver spec (atom path)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    common(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("welding", help="conformal welding of the hull at time T")
    p.add_argument("--driver", help="driver spec (atom path)")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--pairs", type=int, default=50)
    common(p)
    p.set_defaults(handler=_cmd_welding)

    p = sub.add_parser("convolve", help="evaluate or materialize a convolution expression")
    p.add_argument("--expr", required=True,
                   help='e.g. "mono(arcsine:1, arcsine:1)" or "free(sc:1, sc:1)"')
    p.add_argument("--probe", help="complex probe point; prints the transform value")
    p.add_argument("--grid", help="a:b:n inversion grid (writes density CSV)")
    p.add_argument("--eps", type=float, default=1e-4, help="inversion offset (default %(default)g)")
    p.add_argument("--atoms-out", help="atoms CSV path (default <out>.atoms.csv)")
    p.add_argument("--out", help="density CSV path (required with --grid)")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("density", help="Stieltjes inversion of a measure's Cauchy transform")
    p.add_argument("--measure", required=True,
                   help="dirac:a | semicircle:v (sc:v) | arcsine:v (arc:v) | @file | inline JSON")
    p.add_argument("--grid", help="a:b:n inversion grid")
    p.add_argument("--eps", type=float, default=1e-4, help="inversion offset (default %(default)g)")
    p.add_argument("--atoms-out")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("family", help="evaluate an evolution family at probe points")
    p.add_argument("--driver", help="driver spec")
    p.add_argument("--semantics", choices=("monotone", "anti-monotone", "free"),
                   default="monotone")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z", action="append", required=True, help="probe point (repeatable)")
    common(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("sle", help="sample a Brownian driving path")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1.0 / 64.0)
    p.add_argument("--T", type=float, default=1.0)
    common(p)
    p.set_defaults(handler=_cmd_sle)

    p = sub.add_parser("burgers", help="inviscid-Burgers residual of 1/f_t on a grid")
    p.add_argument("--driver", default="sc-family", help="driver spec (default %(default)s)")
    p.add_argument("--t", default="0.2:1:5", help="time grid a:b:n")
    p.add_argument("--re", default="-1:1:5", help="real-part grid a:b:n")
    p.add_argument("--im", type=float, default=1.0, help="imaginary height of the z grid")
    p.add_argument("--step", type=float, default=1e-3, help="finite-difference step")
    common(p)
    p.set_defaults(handler=_cmd_burgers)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", nargs="*", help="subset of criterion names")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv) -> int:
    """Parse ``argv`` and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

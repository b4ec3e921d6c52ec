"""Command-line front end.

One subcommand per capability; outputs are CSV or plain text with floats
printed to 17 significant digits, so identical inputs give byte-identical
files.  Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance
from .convolve import parse_expression
from .errors import NumericError, ValidationError, ConfigError
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
    driving_to_dict,
    flow_forward,
    trace,
    welding,
)
from .measures import from_dict as measure_from_dict, from_spec as measure_from_spec
from .transforms import cauchy, invert_stieltjes, to_cauchy


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"grid must look like a:b:n, got {spec!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"grid ends must be finite, got {spec!r}")
    return np.linspace(a, b, n)


def _steps(args) -> int:
    if args.steps < 0:
        raise ValidationError(f"--steps must be nonnegative, got {args.steps}")
    return args.steps


def _time(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{flag} must be finite and nonnegative, got {value}")
    return value


def _tolerance(value, name: str) -> float:
    """``value`` as an integration tolerance: a number in (0, 1e-4], else ``ConfigError``."""
    if not isinstance(value, (int, float)) or not 0 < value <= 1e-4:
        raise ConfigError(f"{name}: expected a number in (0, 1e-4], got {value!r}")
    return float(value)


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


def _parse_driver(spec: str, horizon: float, seed: int):
    if (obj := _json_spec(spec)) is not None:
        return _validated_driver(obj)
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
        return sle_driving(params[0], dt, horizon, seed)
    raise ValidationError(f"cannot parse driver spec {spec!r}")


# ---------------------------------------------------------------------------
# configuration files

@dataclass
class RunConfig:
    """Validated run description shared by the subcommands."""

    driver: object | None = None
    tolerance: float = 1e-10
    seed: int = 0
    eps: float = 1e-4
    grid: tuple | None = None


def _require(obj: dict, key: str, prefix: str):
    if key not in obj:
        raise ConfigError(f"{prefix}.{key}: missing")
    return obj[key]


def _validated_driver(obj):
    try:
        return driving_from_dict(obj)
    except ValidationError as exc:  # the library's messages name the field path
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration.

    Schema violations raise ``ConfigError`` naming the offending field path,
    e.g. ``driver.times``.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    cfg = RunConfig()
    for key in obj:
        if key not in ("driver", "tolerance", "seed", "eps", "grid"):
            raise ConfigError(f"{key}: unknown field")
    if "driver" in obj:
        cfg.driver = _validated_driver(obj["driver"])
    if "tolerance" in obj:
        cfg.tolerance = _tolerance(obj["tolerance"], "tolerance")
    if "seed" in obj:
        if not isinstance(obj["seed"], int):
            raise ConfigError("seed: expected an integer")
        cfg.seed = obj["seed"]
    if "eps" in obj:
        if not isinstance(obj["eps"], (int, float)) or not (1e-8 <= obj["eps"] <= 1e-2):
            raise ConfigError("eps: expected a number in [1e-8, 1e-2]")
        cfg.eps = float(obj["eps"])
    if "grid" in obj:
        g = obj["grid"]
        if not isinstance(g, dict):
            raise ConfigError("grid: expected an object")
        a = _require(g, "a", "grid")
        b = _require(g, "b", "grid")
        n = _require(g, "n", "grid")
        for key, end in (("a", a), ("b", b)):
            if not isinstance(end, (int, float)) or not math.isfinite(end):
                raise ConfigError(f"grid.{key}: expected a finite number")
        if not isinstance(n, int) or n < 2 or not a < b:
            raise ConfigError("grid: need numbers a < b and integer n >= 2")
        cfg.grid = (float(a), float(b), n)
    return cfg


def save_config(cfg: RunConfig, path):
    """Write a configuration in the canonical byte-stable form."""
    obj = {"tolerance": cfg.tolerance, "seed": cfg.seed, "eps": cfg.eps}
    if cfg.driver is not None:
        obj["driver"] = driving_to_dict(cfg.driver)
    if cfg.grid is not None:
        obj["grid"] = {"a": cfg.grid[0], "b": cfg.grid[1], "n": cfg.grid[2]}
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _merge_config(args):
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    tol = cfg.tolerance if getattr(args, "tol", None) is None else _tolerance(args.tol, "--tol")
    seed = args.seed if getattr(args, "seed", None) is not None else cfg.seed
    eps = args.eps if getattr(args, "eps", None) is not None else cfg.eps
    return cfg, tol, seed, eps


def _resolve_driver(args, cfg, horizon, seed):
    if getattr(args, "driver", None):
        return _parse_driver(args.driver, horizon, seed)
    if cfg.driver is not None:
        return cfg.driver
    raise ValidationError("no driver given (use --driver or a config file)")


def _resolve_grid(args, cfg):
    if getattr(args, "grid", None):
        return _parse_grid(args.grid)
    if cfg.grid is not None:
        a, b, n = cfg.grid
        return np.linspace(a, b, n)
    raise ValidationError("no grid given (use --grid a:b:n or a config file)")


def _write_measure_csv(measure, out, atoms_out):
    rows = []
    if measure.values is not None:
        xs = measure.grid()
        rows = [(_fmt(x), _fmt(v)) for x, v in zip(xs, measure.values)]
    _write_csv(out, ("x", "density"), rows)
    if measure.atoms:
        path = atoms_out or (str(out) + ".atoms.csv")
        _write_csv(path, ("location", "mass"),
                   [(_fmt(x), _fmt(m)) for x, m in measure.atoms])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_flow(args) -> int:
    cfg, tol, seed, _ = _merge_config(args)
    big_t = _time(args.T, "--T")
    d = _resolve_driver(args, cfg, big_t, seed)
    z = _parse_complex(args.z)
    rows = []
    for t in np.linspace(0.0, big_t, _steps(args) + 1):
        fp = flow_forward(d, z, float(t), tol)
        rows.append((_fmt(t), _fmt(fp.value.real), _fmt(fp.value.imag),
                     str(int(fp.alive)), _fmt(fp.lifetime), _fmt(fp.err_est)))
        if not fp.alive:
            break
    _write_csv(args.out, ("t", "re", "im", "alive", "lifetime", "err_est"), rows)
    return 0


def _cmd_trace(args) -> int:
    cfg, tol, seed, _ = _merge_config(args)
    big_t = _time(args.T, "--T")
    d = _resolve_driver(args, cfg, big_t, seed)
    times = np.linspace(0.0, big_t, _steps(args) + 1)
    result = trace(d, [float(t) for t in times], tol)
    rows = [(_fmt(t), _fmt(p.real), _fmt(p.imag), _fmt(e))
            for t, p, e in zip(result.times, result.points, result.err_est)]
    _write_csv(args.out, ("t", "re", "im", "err_est"), rows)
    return 0


def _cmd_welding(args) -> int:
    cfg, tol, seed, _ = _merge_config(args)
    big_t = _time(args.T, "--T")
    d = _resolve_driver(args, cfg, big_t, seed)
    w = welding(d, big_t, npairs=args.pairs, tol=tol)
    rows = [(_fmt(x), _fmt(hx)) for x, hx in w.pairs]
    _write_csv(args.out, ("x", "h_x"), rows)
    print(f"a={_fmt(w.a)} b={_fmt(w.b)} u={_fmt(w.u)}")
    return 0


def _cmd_convolve(args) -> int:
    cfg, _, _, eps = _merge_config(args)
    amap = parse_expression(args.expr)
    if args.probe:
        z = _parse_complex(args.probe)
        if not np.isfinite(z):
            raise ValidationError(f"--probe must be finite, got {args.probe!r}")
        val = amap(z)
        print(f"{amap.kind} {_fmt(val.real)} {_fmt(val.imag)}")
        return 0
    if not args.out:
        raise ValidationError("materializing needs --out (or use --probe)")
    grid = _resolve_grid(args, cfg)
    measure = invert_stieltjes(to_cauchy(amap), grid, eps)
    _write_measure_csv(measure, args.out, args.atoms_out)
    return 0


def _cmd_density(args) -> int:
    cfg, _, _, eps = _merge_config(args)
    m = _parse_measure(args.measure)
    grid = _resolve_grid(args, cfg)
    measure = invert_stieltjes(cauchy(m), grid, eps)
    _write_measure_csv(measure, args.out, args.atoms_out)
    return 0


def _cmd_family(args) -> int:
    cfg, tol, seed, _ = _merge_config(args)
    d = _resolve_driver(args, cfg, _time(args.t, "--t"), seed)
    maker = {"monotone": monotone_family, "anti-monotone": anti_monotone_family,
             "free": free_family}[args.semantics]
    fam = maker(d, tol)
    rows = []
    for ztext in args.z:
        z = _parse_complex(ztext)
        val = fam(args.s, args.t, z)
        rows.append((_fmt(args.s), _fmt(args.t), _fmt(z.real), _fmt(z.imag),
                     _fmt(val.real), _fmt(val.imag)))
    _write_csv(args.out, ("s", "t", "z_re", "z_im", "val_re", "val_im"), rows)
    return 0


def _cmd_sle(args) -> int:
    cfg, _, seed, _ = _merge_config(args)
    path = sle_driving(args.kappa, args.dt, args.T, seed)
    rows = [(_fmt(t), _fmt(u)) for t, u in zip(path.times, path.values)]
    _write_csv(args.out, ("t", "u"), rows)
    return 0


def _cmd_burgers(args) -> int:
    cfg, tol, seed, _ = _merge_config(args)
    ts = _parse_grid(args.t)
    if args.driver:
        # the residual differentiates in t, so pad the horizon past the grid
        d = _parse_driver(args.driver, float(ts[-1]) + 0.01, seed)
    else:
        d = SemicircleFamily()
    res = _parse_grid(args.re)
    zs = [complex(r, args.im) for r in res]
    rows = []
    worst = 0.0
    for t in ts:
        for z in zs:
            r = burgers_residual(d, [float(t)], [z], step=args.step, tol=tol)
            worst = max(worst, r)
            rows.append((_fmt(t), _fmt(z.real), _fmt(z.imag), _fmt(r)))
    _write_csv(args.out, ("t", "re", "im", "residual"), rows)
    print(f"max residual {_fmt(worst)}")
    return 0


def _cmd_selftest(args) -> int:
    return acceptance.run_and_print(args.criteria or None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Chordal Loewner flows, half-plane transforms, and convolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--tol", type=float, help="integrator error target (default 1e-10)")
        p.add_argument("--seed", type=int, help="seed for sampled drivers (default 0)")
        if out:
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
    p.add_argument("--eps", type=float, help="inversion offset (default 1e-4)")
    p.add_argument("--atoms-out", help="atoms CSV path (default <out>.atoms.csv)")
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--out", help="density CSV path (required with --grid)")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("density", help="Stieltjes inversion of a measure's Cauchy transform")
    p.add_argument("--measure", required=True,
                   help="dirac:a | semicircle:v (sc:v) | arcsine:v (arc:v) | @file | inline JSON")
    p.add_argument("--grid", help="a:b:n inversion grid")
    p.add_argument("--eps", type=float, help="inversion offset (default 1e-4)")
    p.add_argument("--atoms-out")
    common(p)
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
    p.add_argument("--driver", help="driver spec (default: semicircle family)")
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

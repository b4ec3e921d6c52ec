"""The benchmark's workloads: fixed op lists, seeded inputs and oracles.

Each op is one user-facing call (a README command line run in-process through
``loewner.cli.run``, or a library call) plus an oracle that checks its output
after the timed region.  ``role`` groups ops into the end-to-end metrics:

* ``readme``  -- README command lines, through ``loewner.cli.run``;
* ``seeded``  -- library calls on inputs drawn from the workload seed;
* ``fixed``   -- library calls on fixed inputs with closed-form answers;
* ``known``   -- inputs the library is known to fail on; each records the
  exception class it raises, carries no time metric, and only counts in
  ``ok_frac``.

Nothing here imports ``loewner`` at module level: :func:`build` receives the
freshly imported package, so set-up can be repeated and timed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# sizes behind each op (see README.md for why they differ from the README lines)
WELDING_PAIRS = 5            # README: --pairs 50
SLE_WELDING = dict(kappa=2.0, dt=1.0 / 64.0, T=0.5, pairs=5)
TRACE_STEPS = 100
LIFETIME_SWALLOWED = 50      # points i*y, y in [0.2, 1.4]
LIFETIME_ALIVE = 10          # control points 1 + i*y that stay alive
DENSITY_ARGS = ["--measure", "semicircle:1", "--grid=-2.2:2.2:2201", "--eps", "1e-4"]
EMPIRICAL_NODES = 2001
CONVOLVE_GRID = (-4.0, 4.0, 2001)
CONVOLVE_EPS = 1e-3
FAMILY_GRID = (-3.0, 3.0, 401)
FAMILY_EPS = 5e-3
SLE_FAMILY = dict(kappa=2.0, dt=1.0 / 64.0, T=1.0, grid=(-3.0, 3.0, 301), eps=1e-2)
SEGMENTS = 64
SEGMENT_PROBES = (0.5j, 2j, -1.5 + 0.5j, 0.5 + 0.7j)

WORKLOADS = ("hull", "spectra", "families")
#: every timed op, across the workloads
TIMED_OPS = ("welding", "sle_welding", "trace", "lifetime", "density", "empirical", "convolve",
             "family_measure", "sle_family", "segments", "burgers", "cli")


class OracleMiss(AssertionError):
    """An op's output disagrees with its oracle."""


def _expect(cond: bool, what: str):
    if not cond:
        raise OracleMiss(what)


@dataclass
class Op:
    name: str
    role: str
    layer: str  # the layer the call enters first
    call: Callable[[], object]
    check: Callable[[object], None]
    # for role "known": the exception class name the input is known to raise
    expect: str | None = None


def _root_upper(w: complex) -> complex:
    r = cmath.sqrt(w)
    return r if r.imag >= 0 else -r


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _grid(spec) -> np.ndarray:
    return np.linspace(spec[0], spec[1], spec[2])


class _Cli:
    """Runs README command lines in-process, with stdout captured."""

    def __init__(self, lib, out_dir: Path):
        self.lib = lib
        self.out_dir = out_dir

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def run(self, *argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.run([str(a) for a in argv])
        return code, buf.getvalue()

    def handler(self, *argv):
        # the subcommand without cli.run's exception-to-exit-code mapping, so
        # a known failure surfaces its exception class (NumericError -> exit 3)
        args = self.lib.cli.build_parser().parse_args([str(a) for a in argv])
        with contextlib.redirect_stdout(io.StringIO()):
            return args.handler(args)


def _check_code(out, name: str):
    _expect(out[0] == 0, f"{name}: exit code {out[0]}")


# ---------------------------------------------------------------------------
# hull: few long, event-driven, bisection-heavy flow solves

def _hull(lib, seed: int, cli: _Cli) -> list:
    ops = []

    weld_csv = cli.path("weld.csv")

    def check_welding(out):
        code, stdout = out
        _check_code(out, "welding")
        fields = dict(kv.split("=") for kv in stdout.split())
        a, b = float(fields["a"]), float(fields["b"])
        _expect(abs(a + math.sqrt(2.0)) < 1e-4 and abs(b - math.sqrt(2.0)) < 1e-4,
                f"welding interval ({a}, {b}) is not (-sqrt2, sqrt2)")
        rows = _csv(weld_csv)
        _expect(len(rows) == WELDING_PAIRS, "welding pair count")
        _expect(np.max(np.abs(rows[:, 1] + rows[:, 0])) < 1e-4, "welding h(x) != -x")

    ops.append(Op("welding", "readme", "cli",
                  lambda: cli.run("welding", "--driver", "const:0", "--T", 1,
                                  "--pairs", WELDING_PAIRS, "--out", weld_csv),
                  check_welding))

    p = SLE_WELDING
    path = lib.sle_driving(p["kappa"], p["dt"], p["T"], seed)

    def check_sle_welding(w):
        _expect(w.a < w.u < w.b, "sle welding: u outside (a, b)")
        _expect(w.u == path.u(p["T"]), "sle welding: u != U(T)")
        xs = np.array([x for x, _ in w.pairs])
        hs = np.array([h for _, h in w.pairs])
        _expect(len(xs) == p["pairs"], "sle welding: pair count")
        _expect(bool(np.all((w.a < xs) & (xs < w.u) & (w.u < hs) & (hs <= w.b))),
                "sle welding: pairs leave (a, u) x (u, b]")
        # h is decreasing; pairs on a plateau of the lifetime profile share h
        # to the bisection width
        _expect(bool(np.all(np.diff(xs) > 0) and np.all(np.diff(hs) <= 0)),
                "sle welding: h is not decreasing")

        # x and h(x) are welded to one slit point: the inverse map's values
        # above them approach each other as the offset shrinks (a wrong pair
        # would keep a fixed gap).  The rate depends on the slit's local
        # regularity (gap ~ offset^0.3 at worst over seeds 1..60), so the
        # gap must shrink at each decade and halve over two, on pairs whose
        # h stays off the endpoint b.
        def gap(k, delta):
            fx = lib.inverse_map(path, p["T"], complex(xs[k], delta), check=False)
            fh = lib.inverse_map(path, p["T"], complex(hs[k], delta), check=False)
            return abs(fx - fh)

        inner = [k for k in range(len(xs)) if hs[k] < w.b - 1e-3]
        _expect(bool(inner), "sle welding: every pair sits at the endpoint b")
        for k in sorted({inner[len(inner) // 4], inner[len(inner) // 2],
                         inner[3 * len(inner) // 4]}):
            g3, g4, g5 = gap(k, 1e-3), gap(k, 1e-4), gap(k, 1e-5)
            _expect(g5 < g4 < g3 and g5 < 0.5 * g3,
                    f"sle welding: pair {k} gaps {g3:.2e}, {g4:.2e}, {g5:.2e} do not close")

    ops.append(Op("sle_welding", "seeded", "flows",
                  lambda: lib.welding(path, p["T"], npairs=p["pairs"]), check_sle_welding))

    trace_csv = cli.path("trace.csv")

    def check_trace(out):
        _check_code(out, "trace")
        rows = _csv(trace_csv)
        _expect(len(rows) == TRACE_STEPS + 1, "trace row count")
        tip = rows[:, 1] + 1j * rows[:, 2]
        want = 1j * np.sqrt(2.0 * rows[:, 0])
        _expect(np.max(np.abs(tip - want)) < 1e-6, "trace tip is not i*sqrt(2t)")

    ops.append(Op("trace", "readme", "cli",
                  lambda: cli.run("trace", "--driver", "const:0", "--T", 1,
                                  "--steps", TRACE_STEPS, "--out", trace_csv),
                  check_trace))

    d = lib.constant_driver(0.0)
    ys = np.linspace(0.2, 1.4, LIFETIME_SWALLOWED)
    alive = [complex(1.0, y) for y in np.linspace(0.2, 1.4, LIFETIME_ALIVE)]
    starts = [complex(0.0, y) for y in ys] + alive

    def check_lifetime(points):
        for y, fp in zip(ys, points):
            _expect(not fp.alive and abs(fp.lifetime - 0.5 * y * y) < 1e-6,
                    f"lifetime of {y}i: {fp.lifetime} != {0.5 * y * y}")
        for z, fp in zip(alive, points[len(ys):]):
            _expect(fp.alive and abs(fp.value - _root_upper(z * z + 2.0)) < 1e-6,
                    f"alive point {z}: g_1 = {fp.value}")

    ops.append(Op("lifetime", "fixed", "flows",
                  lambda: [lib.flow_forward(d, z, 1.0) for z in starts], check_lifetime))
    return ops


# ---------------------------------------------------------------------------
# spectra: transforms over grids, no ODE

def _semicircle_density(xs, var):
    return np.sqrt(np.clip(4.0 * var - xs**2, 0.0, None)) / (2.0 * math.pi * var)


def _check_density(rec_x, rec_rho, closed, inner, tol, what):
    err = float(np.max(np.abs(rec_rho[inner] - closed(rec_x[inner]))))
    _expect(err < tol, f"{what}: density error {err:.2e} (tol {tol:g})")


def _empirical_measure(lib, seed: int):
    """Gaussian density plus two atoms of mass >= 0.15, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    center, width = rng.uniform(-0.5, 0.5), rng.uniform(0.6, 0.9)
    atoms = ((rng.uniform(-3.0, -1.8), rng.uniform(0.15, 0.25)),
             (rng.uniform(1.8, 3.0), rng.uniform(0.15, 0.25)))
    xs = np.linspace(-5.0, 5.0, EMPIRICAL_NODES)
    rho = np.exp(-0.5 * ((xs - center) / width) ** 2)
    rho *= (1.0 - atoms[0][1] - atoms[1][1]) / np.trapezoid(rho, xs)
    return lib.Empirical(atoms=atoms, a=-5.0, b=5.0, values=rho)


def _spectra(lib, seed: int, cli: _Cli) -> list:
    ops = []

    dens_csv = cli.path("sc.csv")

    def check_density(out):
        _check_code(out, "density")
        rows = _csv(dens_csv)
        _check_density(rows[:, 0], rows[:, 1], lambda x: _semicircle_density(x, 1.0),
                       np.abs(rows[:, 0]) <= 1.8, 1e-2, "density semicircle:1")
        _expect(not Path(str(dens_csv) + ".atoms.csv").exists(), "density: spurious atoms")

    ops.append(Op("density", "readme", "cli",
                  lambda: cli.run("density", *DENSITY_ARGS, "--out", dens_csv), check_density))

    emp = _empirical_measure(lib, seed)
    g_emp = lib.cauchy(emp)
    xs = emp.grid()
    eps = float(xs[1] - xs[0])  # offset at the grid spacing
    far = np.all([np.abs(xs - x0) > 0.25 for x0, _ in emp.atoms], axis=0)

    def check_empirical(rec):
        _expect(len(rec.atoms) == 2, f"empirical: {len(rec.atoms)} atoms found, want 2")
        for (x0, m0), (x1, m1) in zip(emp.atoms, sorted(rec.atoms)):
            _expect(abs(x1 - x0) < 1e-3, f"empirical: atom at {x1}, want {x0}")
            _expect(abs(m1 - m0) < 1e-2, f"empirical: atom mass {m1}, want {m0}")
        err = float(np.max(np.abs(np.asarray(rec.values) - emp.values)[far]))
        _expect(err < 1e-2, f"empirical: density error {err:.2e}")

    ops.append(Op("empirical", "seeded", "transforms",
                  lambda: lib.invert_stieltjes(g_emp, xs, eps), check_empirical))

    conv_grid = _grid(CONVOLVE_GRID)

    def convolve():
        mono = lib.as_cauchy(lib.parse_expression("mono(arcsine:1, arcsine:1)"))
        free = lib.parse_expression("free(sc:1, arc:1)")
        return (lib.materialize(mono, conv_grid, CONVOLVE_EPS),
                lib.materialize(free, conv_grid, CONVOLVE_EPS), free)

    def check_convolve(out):
        mono, free, free_map = out
        xs = mono.grid()
        _check_density(xs, np.asarray(mono.values),
                       lambda x: 1.0 / (math.pi * np.sqrt(4.0 - x**2)),
                       np.abs(xs) <= 1.8, 1e-2, "mono(arcsine:1, arcsine:1)")
        sc, arc = lib.cauchy(lib.Semicircle(1.0)), lib.cauchy(lib.Arcsine(1.0))
        r_route = lib.cauchy_from_r(lib.free_r(lib.r_transform(sc), lib.r_transform(arc)))
        for z in (2j, 1 + 1j, -2 + 1j, 1.5 + 1.5j, 0.3 + 3j):
            gap = abs(free_map(z) - r_route(z))
            _expect(gap < 1e-6, f"free(sc:1, arc:1) vs R-route at {z}: {gap:.2e}")
        _, var = lib.mean_variance(free)
        _expect(abs(var - 2.0) < 1e-2, f"free(sc:1, arc:1) variance {var}")

    ops.append(Op("convolve", "fixed", "convolve", convolve, check_convolve))

    # README line whose grid misses the support [-2.83, 2.83]: mass deficit
    free_readme = cli.path("free_readme.csv")
    ops.append(Op("free_readme_grid", "known", "cli",
                  lambda: cli.handler("convolve", "--expr", "free(sc:1, sc:1)",
                                      "--grid=-2.5:2.5:2001", "--eps", "1e-4",
                                      "--out", free_readme),
                  lambda out: _check_free_sc(free_readme, 2.4),
                  expect="MassDeficitError"))
    # the covering grid: Picard iteration hits its cap near x = -2.826
    free_cover = cli.path("free_cover.csv")
    ops.append(Op("free_covering_grid", "known", "cli",
                  lambda: cli.handler("convolve", "--expr", "free(sc:1, sc:1)",
                                      "--grid=-3:3:2001", "--eps", "1e-4",
                                      "--out", free_cover),
                  lambda out: _check_free_sc(free_cover, 2.5),
                  expect="NoConvergenceError"))
    return ops


def _check_free_sc(csv: Path, inner: float):
    # only reached if a known failure starts to succeed: sc:1 [+] sc:1 = sc:2
    rows = _csv(csv)
    _check_density(rows[:, 0], rows[:, 1], lambda x: _semicircle_density(x, 2.0),
                   np.abs(rows[:, 0]) <= inner, 1e-2, "free(sc:1, sc:1)")


# ---------------------------------------------------------------------------
# families: thousands of short, event-free solves feeding a grid consumer

def _segment_path(lib, seed: int):
    rng = np.random.default_rng([seed, 2])
    values = 0.8 * rng.uniform(-1.0, 1.0, SEGMENTS)
    return lib.MeasurePath(tuple(np.arange(SEGMENTS) / SEGMENTS),
                           tuple(lib.Dirac(float(v)) for v in values))


def _families(lib, seed: int, cli: _Cli) -> list:
    ops = []

    d0 = lib.constant_driver(0.0)
    fam_grid = _grid(FAMILY_GRID)

    def check_family(rec):
        xs = rec.grid()
        _check_density(xs, np.asarray(rec.values),
                       lambda x: 1.0 / (math.pi * np.sqrt(2.0 - x**2)),
                       np.abs(xs) <= 0.9 * math.sqrt(2.0), 1e-2, "monotone family, const:0")

    ops.append(Op("family_measure", "fixed", "evolution",
                  lambda: lib.monotone_family(d0).measure(0.0, 1.0, fam_grid, FAMILY_EPS),
                  check_family))

    p = SLE_FAMILY
    path = lib.sle_driving(p["kappa"], p["dt"], p["T"], seed)
    sle_grid = _grid(p["grid"])

    def sle_family():
        # the smoothed density's Cauchy transform over the grid; materializing
        # it fails on many seeds (see the known failure below)
        g = lib.anti_monotone_family(path).cauchy_map(0.0, p["T"])
        return np.array([g(complex(x, p["eps"])) for x in sle_grid])

    def check_sle_family(values):
        _expect(bool(np.all(values.imag < 0)), "sle family: G leaves the lower half-plane")
        # Poisson-smoothed mass on [-3, 3]; the tails beyond hold about eps/3
        mass = float(np.trapezoid(-values.imag / math.pi, sle_grid))
        _expect(abs(mass - 1.0) < 2e-2, f"sle family: mass {mass}")
        _, var = lib.asymptotic_moments(lib.anti_monotone_family(path).transform(0.0, p["T"]))
        _expect(abs(var - p["T"]) < 0.01 * p["T"], f"sle family: variance {var}")

    ops.append(Op("sle_family", "seeded", "evolution", sle_family, check_sle_family))

    seg = _segment_path(lib, seed)

    def check_segments(values):
        chain = lib.chain_approximation(seg, 1.0 / SEGMENTS, SEGMENTS, shift="left")
        gap = max(abs(chain(z) - v) for z, v in zip(SEGMENT_PROBES, values))
        _expect(gap < 1e-7, f"segments: |chain - ode| = {gap:.2e}")

    ops.append(Op("segments", "seeded", "flows",
                  lambda: [lib.flow_reverse(seg, 0.0, 1.0, z) for z in SEGMENT_PROBES],
                  check_segments))

    burgers_csv = cli.path("burgers.csv")

    def check_burgers(out):
        _check_code(out, "burgers")
        worst = float(out[1].split()[-1])
        _expect(worst < 1e-3, f"burgers residual {worst}")
        _expect(float(np.max(_csv(burgers_csv)[:, 3])) == worst, "burgers CSV != summary")

    ops.append(Op("burgers", "readme", "cli",
                  lambda: cli.run("burgers", "--t", "0.2:1:5", "--re=-1:1:5", "--im", 1,
                                  "--out", burgers_csv),
                  check_burgers))

    fam_csv, sle_csv, flow_csv = cli.path("fam.csv"), cli.path("path.csv"), cli.path("flow.csv")

    def cli_lines():
        return [cli.run("convolve", "--expr", "mono(arcsine:1, arcsine:1)", "--probe", "2i"),
                cli.run("family", "--driver", "const:0", "--semantics", "free", "--s", 0,
                        "--t", 1, "--z", "0.5i", "--out", fam_csv),
                cli.run("sle", "--kappa", 2, "--dt", 0.015625, "--T", 1, "--seed", 7,
                        "--out", sle_csv),
                cli.run("flow", "--driver", "const:0", "--z", "2i", "--T", 1, "--steps", 50,
                        "--out", flow_csv)]

    def check_cli(outs):
        for out in outs:
            _check_code(out, "cli")
        kind, re_, im_ = outs[0][1].split()
        _expect(kind == "f" and abs(complex(float(re_), float(im_)) - 1j * math.sqrt(8.0)) < 1e-9,
                "convolve --probe 2i is not sqrt(z^2 - 4)")
        fam = _csv(fam_csv)[0]
        _expect(abs(complex(fam[4], fam[5]) - 0.5j) < 1e-12, "free family R_{0,1}(z) != z")
        steps = np.random.Generator(np.random.Philox(key=7)).standard_normal(64)
        want = np.concatenate([[0.0], np.cumsum(steps * math.sqrt(0.5 * 2.0 * 0.015625))])
        _expect(np.allclose(_csv(sle_csv)[:, 1], want, rtol=0.0, atol=1e-12),
                "sle path is not the seeded Brownian path")
        rows = _csv(flow_csv)
        want = 1j * np.sqrt(4.0 - 2.0 * rows[:, 0])
        _expect(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - want)) < 1e-6,
                "flow of 2i is not sqrt(z^2 + 2t)")

    ops.append(Op("cli", "readme", "cli", cli_lines, check_cli))

    # the inverse_map round trip's forward flow sees a round-off remainder at
    # the end of a segment and reports a stall at t = 0.699
    burgers9 = cli.path("burgers9.csv")

    def check_burgers9(out):
        _expect(float(np.max(_csv(burgers9)[:, 3])) < 1e-3, "burgers 9x9 residual")

    ops.append(Op("burgers_9x9", "known", "cli",
                  lambda: cli.handler("burgers", "--t", "0.2:1:9", "--re=-1:1:9", "--im", 1,
                                      "--out", burgers9),
                  check_burgers9, expect="NumericError"))

    # materializing an SLE family: the recovered mass falls short of 1 - 1e-3
    # (0.9906 at seed 6) on 5 of seeds 1..12
    sle6 = lib.sle_driving(p["kappa"], p["dt"], p["T"], 6)

    def check_sle6(rec):
        _, var = lib.mean_variance(rec)
        _expect(abs(var - p["T"]) < 0.02, f"sle family seed 6: variance {var}")

    ops.append(Op("sle_family_measure", "known", "evolution",
                  lambda: lib.anti_monotone_family(sle6).measure(0.0, p["T"], sle_grid, p["eps"]),
                  check_sle6, expect="MassDeficitError"))
    return ops


def build(lib, workload: str, seed: int, out_dir: Path) -> list:
    """The op list of ``workload`` with inputs drawn from ``seed``."""
    maker = {"hull": _hull, "spectra": _spectra, "families": _families}[workload]
    return maker(lib, seed, _Cli(lib, out_dir))

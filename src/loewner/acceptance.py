"""Self-contained acceptance checks.

Each criterion compares a numerical route against an independent oracle
(closed form, direct quadrature, or a cross-module route) at a fixed
tolerance.  ``run()`` evaluates a subset or all of them; the CLI ``selftest``
subcommand prints one line per criterion and the test suite asserts each one.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .convolve import free_r, free_subordination, monotone
from .errors import ValidationError
from .evolution import (
    burgers_residual,
    chain_approximation,
    free_family,
    monotone_family,
    sle_driving,
)
from .flows import (
    AtomPath,
    MeasurePath,
    SemicircleFamily,
    constant_driver,
    flow_forward,
    flow_reverse,
    inverse_map,
    welding,
)
from .measures import Arcsine, Dirac, Semicircle
from .transforms import asymptotic_moments, cauchy, f_transform, invert_stieltjes, r_transform


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _root_upper(w: complex) -> complex:
    """Square root with nonnegative imaginary part."""
    r = cmath.sqrt(w)
    return r if r.imag >= 0 else -r


# Re values stay off the imaginary axis: over a centered point-mass driver
# the axis is swallowed in finite time, where the closed forms continue
# through the boundary but the flow (correctly) terminates
_GRID_Z = [complex(x, y) for x in np.linspace(-2.8, 3.2, 7) for y in np.linspace(0.5, 2.5, 5)]
_PROBES = (2j, 1 + 2j, -1 + 1.5j, 0.5 + 3j, 3j)


def _forward_flow_closed_form() -> CriterionResult:
    d = constant_driver(0.0)
    start = time.perf_counter()
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        for z in _GRID_Z:
            got = flow_forward(d, z, t).value
            want = _root_upper(z * z + 2.0 * t)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 2.0
    return CriterionResult("forward_flow_closed_form", ok,
                           f"max error {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 2s)")


def _lifetime_of_i() -> CriterionResult:
    fp = flow_forward(constant_driver(0.0), 1j, 1.0)
    err = abs(fp.lifetime - 0.5)
    ok = (not fp.alive) and err < 1e-6
    return CriterionResult("lifetime_bisection", ok,
                           f"T(i) = {fp.lifetime:.9f}, |T - 0.5| = {err:.3e} (tol 1e-6)")


def _reverse_flow_closed_form() -> CriterionResult:
    worst = 0.0
    for u in (0.0, 1.0):
        d = constant_driver(u)
        for t in (0.25, 0.5, 1.0):
            for z in _GRID_Z:
                got = flow_reverse(d, 0.0, t, z)
                want = u + _root_upper((z - u) ** 2 - 2.0 * t)
                worst = max(worst, abs(got - want))
    return CriterionResult("reverse_flow_closed_form", worst < 1e-6,
                           f"max error {worst:.3e} (tol 1e-6)")


def _chain_ode_exactness() -> CriterionResult:
    rng = np.random.Generator(np.random.Philox(key=20240))
    values = 0.8 * rng.uniform(-1.0, 1.0, 16)
    d = MeasurePath(tuple(np.arange(16) / 16.0), tuple(Dirac(float(v)) for v in values))
    chain = chain_approximation(d, 1.0 / 16.0, 16, shift="left")
    worst = 0.0
    for z in _PROBES:
        worst = max(worst, abs(chain(z) - flow_reverse(d, 0.0, 1.0, z)))
    return CriterionResult("chain_ode_exactness", worst < 1e-7,
                           f"max |chain - ode| {worst:.3e} (tol 1e-7)")


def _loewner_fixed_point() -> CriterionResult:
    # f_t over 16 constant semicircle pieces: no formula shared with the family's closed forms
    steps = MeasurePath(tuple(np.arange(16) / 16.0),
                        tuple(Semicircle((k + 0.5) / 16.0) for k in range(16)))
    worst_g = 0.0
    for z in (2j, 1 + 2j, 3j):
        got = 1.0 / inverse_map(steps, 1.0, z)
        want = 2.0 / (z + _root_upper(z * z - 4.0))
        worst_g = max(worst_g, abs(got - want))
    ts = np.linspace(0.2, 1.0, 5)
    zs = np.linspace(-1.0, 1.0, 5) + 1.0j
    residual = burgers_residual(SemicircleFamily(), ts, zs)
    ok = worst_g < 1e-4 and residual < 1e-3
    return CriterionResult("loewner_fixed_point", ok,
                           f"max |1/f_t - G| {worst_g:.3e} (tol 1e-4), "
                           f"Burgers residual {residual:.3e} (tol 1e-3)")


def _convolution_stability() -> CriterionResult:
    r_one = r_transform(cauchy(Semicircle(1.0)))
    r_sum = free_r(r_one, r_one)
    worst_r = max(abs(r_sum(-1j * s) - 2.0 * (-1j * s)) for s in (0.1, 0.2, 0.3, 0.4, 0.5))

    g_one = cauchy(Semicircle(1.0))
    g_sub = free_subordination(g_one, g_one)
    worst_s = max(abs(g_sub(z) - 2.0 / (z + _root_upper(z * z - 8.0))) for z in _PROBES)

    f_one = f_transform(Arcsine(1.0))
    f_two = monotone(f_one, f_one)
    worst_m = max(abs(f_two(z) - _root_upper(z * z - 4.0)) for z in _PROBES)

    ok = worst_r < 1e-6 and worst_s < 1e-6 and worst_m < 1e-6
    return CriterionResult("convolution_stability", ok,
                           f"R-route {worst_r:.3e}, subordination {worst_s:.3e}, "
                           f"monotone {worst_m:.3e} (tol 1e-6 each)")


def _stieltjes_inversion() -> CriterionResult:
    # the grid covers the support and the offset stays above the grid spacing;
    # a smaller offset leaves the smoothed edge peak unresolved by the
    # trapezoid mass and a coarser grid overweights the edge singularity
    rec_a = invert_stieltjes(cauchy(Arcsine(1.0)), np.linspace(-2.0, 2.0, 8001), 1e-3)
    xs = rec_a.grid()
    inner = np.abs(xs) <= 0.9 * math.sqrt(2.0)
    closed = 1.0 / (math.pi * np.sqrt(2.0 - xs[inner] ** 2))
    err_a = float(np.max(np.abs(np.asarray(rec_a.values)[inner] - closed)))

    rec_w = invert_stieltjes(cauchy(Semicircle(1.0)), np.linspace(-2.2, 2.2, 2201), 1e-4)
    xs = rec_w.grid()
    inner = np.abs(xs) <= 1.8
    closed = np.sqrt(4.0 - xs[inner] ** 2) / (2.0 * math.pi)
    err_w = float(np.max(np.abs(np.asarray(rec_w.values)[inner] - closed)))

    rec_d = invert_stieltjes(cauchy(Dirac(0.0)), np.linspace(-0.5, 0.5, 201), 1e-4)
    n_atoms = len(rec_d.atoms)
    mass_err = abs(rec_d.atoms[0][1] - 1.0) if n_atoms == 1 else math.inf

    ok = err_a < 1e-2 and err_w < 1e-2 and n_atoms == 1 and mass_err < 1e-3
    return CriterionResult("stieltjes_inversion", ok,
                           f"arcsine sup {err_a:.3e}, semicircle sup {err_w:.3e} (tol 1e-2), "
                           f"{n_atoms} atom(s), |mass - 1| = {mass_err:.3e} (tol 1e-3)")


def _family_normality() -> CriterionResult:
    drivers = {
        "constant": constant_driver(0.5),
        "two-segment": MeasurePath((0.0, 0.5), (Dirac(-1.0), Dirac(1.0))),
        "sle": sle_driving(2.0, 1.0 / 64.0, 1.0, seed=11),
    }
    details = []
    ok = True
    for name, d in drivers.items():
        _, var = asymptotic_moments(monotone_family(d).transform(0.0, 1.0))
        details.append(f"{name} var {var:.5f}")
        ok = ok and abs(var - 1.0) < 0.01
    return CriterionResult("family_normality", ok,
                           ", ".join(details) + " (each within 1% of 1)")


def _evolution_and_lipschitz() -> CriterionResult:
    rng = np.random.Generator(np.random.Philox(key=42))
    d = AtomPath(np.linspace(0.0, 1.0, 9), 0.5 * rng.standard_normal(9))
    worst_comp = 0.0
    worst_lip = 0.0
    for _ in range(100):
        s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
        direct = flow_reverse(d, s, t, z)
        hop = flow_reverse(d, u, t, flow_reverse(d, s, u, z))
        worst_comp = max(worst_comp, abs(direct - hop))
        mid = flow_reverse(d, s, u, z)
        bound = 1.05 * abs(t - u) / z.imag
        worst_lip = max(worst_lip, abs(mid - direct) - bound)
    ok = worst_comp < 1e-7 and worst_lip <= 0.0
    return CriterionResult("evolution_and_lipschitz", ok,
                           f"composition residual {worst_comp:.3e} (tol 1e-7), "
                           f"Lipschitz slack {worst_lip:.3e} (must be <= 0)")


def _free_additivity() -> CriterionResult:
    rng = np.random.Generator(np.random.Philox(key=7))
    probes = (0.2j, 0.4j, 1 + 1j, -0.5 + 0.8j)
    worst_add = 0.0
    for d in (constant_driver(0.7), sle_driving(2.0, 1.0 / 32.0, 1.0, seed=5)):
        fam = free_family(d)
        for _ in range(20):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            for z in probes:
                gap = fam(s, u, z) + fam(u, t, z) - fam(s, t, z)
                worst_add = max(worst_add, abs(gap))

    sle = sle_driving(2.0, 1.0 / 32.0, 1.0, seed=5)
    fam = free_family(sle)
    # 10-node Gauss-Legendre per driver piece: every probe has |Im w| >= 0.5, far
    # from pieces 1/32 long, so 1/(w - U) is smooth enough for the rule to reach rounding
    nodes, wts = np.polynomial.legendre.leggauss(10)
    worst_quad = 0.0
    for s, t in ((0.0, 1.0), (0.13, 0.77), (0.5, 0.9)):
        knots = [s] + [k for k in sle.knots if s < k < t] + [t]
        for z in probes:
            w = 1.0 / z
            oracle = sum(
                0.5 * (hi - lo) * sum(wt / (w - sle.u(0.5 * (lo + hi + (hi - lo) * x)))
                                      for x, wt in zip(nodes, wts))
                for lo, hi in zip(knots, knots[1:])
            )
            worst_quad = max(worst_quad, abs(fam(s, t, z) - oracle))
    ok = worst_add < 1e-10 and worst_quad < 1e-10
    return CriterionResult("free_additivity", ok,
                           f"additivity {worst_add:.3e}, quadrature gap {worst_quad:.3e} "
                           f"(tol 1e-10 each)")


def _welding_symmetric_slit() -> CriterionResult:
    d = AtomPath(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    w = welding(d, 1.0, npairs=50)
    err_a = abs(w.a + math.sqrt(2.0))
    err_b = abs(w.b - math.sqrt(2.0))
    err_u = abs(w.u)
    err_h = max(abs(hx + x) for x, hx in w.pairs)

    worst_f = 0.0
    for x, hx in w.pairs:
        def boundary(p):
            lo = flow_reverse(d, 0.0, 1.0, complex(p, 1e-3))
            hi = flow_reverse(d, 0.0, 1.0, complex(p, 5e-4))
            return 2.0 * hi - lo
        worst_f = max(worst_f, abs(boundary(x) - boundary(hx)))

    ok = err_a < 1e-4 and err_b < 1e-4 and err_u < 1e-6 and err_h < 1e-4 and worst_f < 1e-5
    return CriterionResult("welding_symmetric_slit", ok,
                           f"|a + sqrt2| {err_a:.2e}, |b - sqrt2| {err_b:.2e} (tol 1e-4), "
                           f"|u| {err_u:.2e} (tol 1e-6), max |h(x) + x| {err_h:.2e} (tol 1e-4), "
                           f"F-residual {worst_f:.2e} (tol 1e-5)")


def _cli_determinism() -> CriterionResult:
    import tempfile
    from pathlib import Path

    from .cli import run as cli_run

    with tempfile.TemporaryDirectory() as tmp:
        out1 = Path(tmp) / "a.csv"
        out2 = Path(tmp) / "b.csv"
        code1 = cli_run(["sle", "--seed", "7", "--out", str(out1)])
        code2 = cli_run(["sle", "--seed", "7", "--out", str(out2)])
        same = out1.read_bytes() == out2.read_bytes()
        ok = code1 == 0 and code2 == 0 and same
    return CriterionResult("cli_determinism", ok,
                           f"exit codes ({code1}, {code2}), byte-identical: {same}")


CRITERIA = (
    ("forward_flow_closed_form", _forward_flow_closed_form),
    ("lifetime_bisection", _lifetime_of_i),
    ("reverse_flow_closed_form", _reverse_flow_closed_form),
    ("chain_ode_exactness", _chain_ode_exactness),
    ("loewner_fixed_point", _loewner_fixed_point),
    ("convolution_stability", _convolution_stability),
    ("stieltjes_inversion", _stieltjes_inversion),
    ("family_normality", _family_normality),
    ("evolution_and_lipschitz", _evolution_and_lipschitz),
    ("free_additivity", _free_additivity),
    ("welding_symmetric_slit", _welding_symmetric_slit),
    ("cli_determinism", _cli_determinism),
)


def run(names=None) -> list:
    """Run the named criteria (all by default) and return their results."""
    wanted = set(names) if names else None
    known = {name for name, _ in CRITERIA}
    if wanted and not wanted <= known:
        raise ValidationError(f"unknown criteria: {sorted(wanted - known)}")
    results = []
    for name, fn in CRITERIA:
        if wanted is None or name in wanted:
            results.append(fn())
    return results


def run_and_print(names=None) -> int:
    """Run criteria, print one PASS/FAIL line each, return a process exit code."""
    results = run(names)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 3

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from loewner import (
    AnalyticMap,
    Arcsine,
    Dirac,
    Empirical,
    Semicircle,
    asymptotic_moments,
    cauchy,
    cauchy_from_r,
    density_at,
    f_transform,
    anti_monotone,
    as_cauchy,
    as_f,
    chain_approximation,
    constant_driver,
    free_r,
    free_subordination,
    halfplane_sqrt,
    invert_stieltjes,
    monotone,
    r_transform,
    sle_driving,
)
from loewner import flows, transforms
from loewner.errors import (
    MassDeficitError,
    NoConvergenceError,
    UnstableFitError,
    ValidationError,
)

from conftest import gaussian_empirical

ZOO = [
    Dirac(0.0),
    Dirac(1.5),
    Semicircle(1.0),
    Semicircle(1.0, 1.0),
    Arcsine(2.0),
    gaussian_empirical(),
    gaussian_empirical(mass=0.6, atoms=((2.0, 0.4),)),
]

SAMPLE_Z = [complex(x, y) for x in np.linspace(-3, 3, 5) for y in (0.2, 0.7, 2.0, 5.0)]


def quad_cauchy(m, z, lo, hi):
    """Brute-force Cauchy transform by quadrature of the density."""
    re = quad(lambda x: (density_at(m, x) * (1.0 / (z - x))).real, lo, hi, limit=400)[0]
    im = quad(lambda x: (density_at(m, x) * (1.0 / (z - x))).imag, lo, hi, limit=400)[0]
    return complex(re, im)


class TestCauchy:
    def test_dirac_at_i(self):
        assert cauchy(Dirac(0.0))(1j) == pytest.approx(-1j, abs=1e-15)

    def test_semicircle_matches_quadrature(self):
        g = cauchy(Semicircle(1.0))
        for z in (2j, 1 + 2j, -0.5 + 0.8j):
            assert g(z) == pytest.approx(quad_cauchy(Semicircle(1.0), z, -2, 2), abs=1e-8)
        assert g(2j) == pytest.approx(-0.414214j, abs=1e-6)

    def test_arcsine_closed_form(self):
        g = cauchy(Arcsine(1.0))
        assert g(2j) == pytest.approx(1.0 / (1j * math.sqrt(6)), abs=1e-12)
        assert g(2j) == pytest.approx(-0.408248j, abs=1e-6)

    def test_empirical_matches_quadrature(self):
        emp = gaussian_empirical(mass=0.7, atoms=((2.5, 0.3),))
        g = cauchy(emp)
        for z in (1j, -1 + 0.5j, 2 + 3j):
            want = quad_cauchy(emp, z, -4, 4) + 0.3 / (z - 2.5)
            assert g(z) == pytest.approx(want, abs=1e-7)

    def test_halfplane_invariants(self):
        # Im G < 0 and |G| <= 1/Im z on the sampled grid
        for m in ZOO:
            g = cauchy(m)
            for z in SAMPLE_Z:
                val = g(z)
                assert val.imag < 0
                assert abs(val) <= 1.0 / z.imag + 1e-12


class TestFTransform:
    def test_dirac_is_translation(self):
        f = f_transform(Dirac(1.5))
        for z in (1j, 2 + 0.3j):
            assert f(z) == pytest.approx(z - 1.5, abs=1e-12)

    def test_arcsine_closed_form(self):
        assert f_transform(Arcsine(1.0))(2j) == pytest.approx(1j * math.sqrt(6), abs=1e-12)

    def test_semicircle_reciprocal(self):
        assert f_transform(Semicircle(1.0))(2j) == pytest.approx(2.414214j, abs=1e-6)

    def test_nevanlinna_property(self):
        for m in ZOO:
            f = f_transform(m)
            for z in SAMPLE_Z:
                assert f(z).imag >= z.imag - 1e-12


class TestKindConversion:
    def test_each_kind_converts_by_one_route(self):
        # a map of the target kind comes back as is; an R-map reaches the Cauchy
        # kind by Newton inversion and has no route to the F kind
        g, f = cauchy(Semicircle(1.0, 0.5)), f_transform(Semicircle(1.0, 0.5))
        r = r_transform(g)
        assert as_f(f) is f and as_cauchy(g) is g
        back, want = as_cauchy(r), cauchy_from_r(r)
        assert back.kind == "cauchy"
        for z in (2j, 1 + 2j, 3j):
            assert back(z) == want(z)
        with pytest.raises(ValidationError):
            as_f(r)


class TestRTransform:
    def test_dirac_is_constant(self):
        r = r_transform(cauchy(Dirac(1.5)))
        for s in (0.1, 0.3, 0.5):
            assert r(-1j * s) == pytest.approx(1.5, abs=1e-10)

    def test_semicircle_is_linear(self):
        r = r_transform(cauchy(Semicircle(2.0)))
        for s in np.linspace(0.05, 0.5, 10):
            w = -1j * s
            assert abs(r(w) / w - 2.0) < 1e-8

    def test_shifted_semicircle(self):
        r = r_transform(cauchy(Semicircle(1.0, 1.0)))
        for s in (0.1, 0.25, 0.5):
            w = -1j * s
            assert r(w) == pytest.approx(1.0 + w, abs=1e-9)

    def test_shifted_semicircle_gridded_cross_check(self):
        # same R-transform through a gridded version of the measure, so the
        # Newton inversion runs on the quadrature-backed Cauchy transform
        m = Semicircle(1.0, 1.0)
        xs = np.linspace(-1.05, 3.05, 4001)
        dens = np.array([density_at(m, x) for x in xs])
        dens /= np.trapezoid(dens, xs)
        emp = Empirical(a=xs[0], b=xs[-1], values=dens)
        r = r_transform(cauchy(emp))
        for s in (0.1, 0.3):
            w = -1j * s
            assert r(w) == pytest.approx(1.0 + w, abs=1e-3)

    def test_out_of_domain_fails_loudly(self):
        # |G| <= 1 for the unit semicircle, so G(V) = -5i has no solution
        r = r_transform(cauchy(Semicircle(1.0)))
        with pytest.raises(NoConvergenceError):
            r(-5j)

    def test_array_failure_names_its_point(self):
        r = r_transform(cauchy(Semicircle(1.0)))
        with pytest.raises(NoConvergenceError, match=r"-5j"):
            r(np.array([-0.3j, -5j]))

    def test_cauchy_from_r_failure_names_its_point(self, monkeypatch):
        # with no iterations allowed only a lane whose seed 1/z already
        # solves R(w) + 1/w = z passes: 1e8i does, 2i does not.  The unit
        # semicircle's R-transform is w in closed form, so no inner Newton runs.
        monkeypatch.setattr(transforms, "NEWTON_MAX_ITER", 0)
        back = cauchy_from_r(AnalyticMap("r", lambda w: w))
        assert back(1e8j) == pytest.approx(-1e-8j, rel=1e-12)
        with pytest.raises(NoConvergenceError, match=r"2j"):
            back(np.array([1e8j, 2j]))

    def test_round_trip_through_cauchy(self):
        g = cauchy(Semicircle(1.0))
        back = cauchy_from_r(r_transform(g))
        for z in (2j, 1 + 2j, 3j):
            assert back(z) == pytest.approx(g(z), abs=1e-9)

    def test_kind_check(self):
        with pytest.raises(ValidationError):
            r_transform(f_transform(Dirac(0.0)))


class TestStieltjesInversion:
    def test_arcsine_density(self):
        rec = invert_stieltjes(cauchy(Arcsine(1.0)), np.linspace(-2.0, 2.0, 8001), 1e-3)
        xs = rec.grid()
        vals = np.asarray(rec.values)
        inner = np.abs(xs) <= 1.3
        closed = 1.0 / (math.pi * np.sqrt(2.0 - xs[inner] ** 2))
        assert float(np.max(np.abs(vals[inner] - closed))) < 1e-2
        assert rec.atoms == ()

    def test_semicircle_density(self):
        rec = invert_stieltjes(cauchy(Semicircle(1.0)), np.linspace(-2.2, 2.2, 2201), 1e-4)
        xs = rec.grid()
        vals = np.asarray(rec.values)
        inner = np.abs(xs) <= 1.9
        closed = np.sqrt(4.0 - xs[inner] ** 2) / (2.0 * math.pi)
        assert float(np.max(np.abs(vals[inner] - closed))) < 1e-2

    def test_graded_grid_is_resampled_uniformly(self):
        # nodes bunch towards 0; the density comes back on a uniform grid of the same size
        u = np.linspace(-1.0, 1.0, 2201)
        rec = invert_stieltjes(cauchy(Semicircle(1.0)), 2.2 * np.sign(u) * np.abs(u) ** 1.2, 1e-3)
        xs = rec.grid()
        assert (rec.a, rec.b, xs.size) == (-2.2, 2.2, 2201)
        assert np.allclose(np.diff(xs), 4.4 / 2200, rtol=1e-9, atol=0.0)
        inner = np.abs(xs) <= 1.8
        closed = np.sqrt(4.0 - xs[inner] ** 2) / (2.0 * math.pi)
        assert float(np.max(np.abs(np.asarray(rec.values)[inner] - closed))) < 1e-2

    @pytest.mark.parametrize("rel, resampled", [(5e-10, False), (2e-9, True)])
    def test_uniform_grid_rule_at_its_edge(self, rel, resampled):
        # spacings within 1e-9 relative of the first keep their nodes; one further off sends
        # the density, by linear interpolation, onto linspace(x[0], x[-1], n)
        g, eps = cauchy(Semicircle(1.0)), 1e-3
        steps = 0.015 * (1.0 + rel * np.sin(np.arange(400)))  # the first is 0.015
        xs = np.concatenate([[-3.0], -3.0 + np.cumsum(steps)])
        both = g.fn(np.concatenate([xs + 1j * eps, xs + 1j * (eps / 2.0)]))
        dens = np.clip(-(2.0 * both[401:].imag - both[:401].imag) / math.pi, 0.0, None)
        even = np.linspace(xs[0], xs[-1], 401)
        own, moved = dens / np.trapezoid(dens, xs), np.interp(even, xs, dens)
        moved /= np.trapezoid(moved, even)
        assert not np.array_equal(own, moved)
        rec = invert_stieltjes(g, xs, eps)
        assert (rec.a, rec.b, rec.atoms) == (xs[0], xs[-1], ())
        assert np.array_equal(rec.values, moved if resampled else own)

    @pytest.mark.parametrize("grid", [[-1e308, 0.0, 1e308], [-1.5e308, 1.5e308],
                                      [0.0, math.inf, math.inf, 1.0]])
    def test_grid_is_refused_without_a_warning(self, grid):
        # spans that overflow, and infinite nodes whose spacing would be inf - inf
        with pytest.raises(ValidationError, match="finite span"):
            invert_stieltjes(cauchy(Semicircle(1.0)), grid, 1e-3)

    def test_dirac_atom(self):
        rec = invert_stieltjes(cauchy(Dirac(0.0)), np.linspace(-0.5, 0.5, 201), 1e-4)
        assert len(rec.atoms) == 1
        loc, mass = rec.atoms[0]
        assert abs(loc) < 1e-6
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_atom_plus_density(self):
        emp = gaussian_empirical(mass=0.6, atoms=((2.8, 0.4),), span=2.0, n=1001)
        rec = invert_stieltjes(cauchy(emp), np.linspace(-2.4, 3.4, 4001), 1e-4)
        assert len(rec.atoms) == 1
        loc, mass = rec.atoms[0]
        assert loc == pytest.approx(2.8, abs=1e-5)
        assert mass == pytest.approx(0.4, abs=1e-3)

    def test_mass_deficit_error(self):
        with pytest.raises(MassDeficitError):
            invert_stieltjes(cauchy(Semicircle(1.0)), np.linspace(-1.0, 1.0, 501), 1e-4)

    def test_nan_mass_is_a_deficit(self):
        # NaN compares false both ways, so the gate must not let it through
        nan_map = AnalyticMap("cauchy", lambda z: np.full(np.shape(z), complex(math.nan, math.nan)))
        with pytest.raises(MassDeficitError, match="nan"):
            invert_stieltjes(nan_map, np.linspace(-1.0, 1.0, 11), 1e-3)

    def test_grid_and_eps_validation(self):
        g = cauchy(Semicircle(1.0))
        with pytest.raises(ValidationError):
            invert_stieltjes(g, [0.0, 0.0, 1.0], 1e-4)
        for grid in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]):
            with pytest.raises(ValidationError, match="finite"):
                invert_stieltjes(g, grid, 1e-4)
        with pytest.raises(ValidationError):
            invert_stieltjes(g, np.linspace(-2.2, 2.2, 101), 0.5)

    def test_round_trip_moments(self):
        cases = [
            (Semicircle(1.0), np.linspace(-2.2, 2.2, 2201), 1e-4),
            (Arcsine(1.0), np.linspace(-2.0, 2.0, 8001), 1e-3),
        ]
        for m, grid, eps in cases:
            rec = invert_stieltjes(cauchy(m), grid, eps)
            lo, hi = m.center - m.radius, m.center + m.radius
            xs = rec.grid()
            for k in range(5):
                want = quad(lambda x: x**k * density_at(m, x), lo, hi, limit=400)[0]
                got = (sum(w * x**k for x, w in rec.atoms)
                       + np.trapezoid(rec.values * xs**k, xs))
                assert got == pytest.approx(want, abs=1e-2)


def seed_refine_atom_location(g, lo, hi, eps):
    """The 80-step bisection as written before it stopped at adjacent floats."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(complex(mid, eps)).real < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAtomRefinement:
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["left", "right"])
    def test_atom_just_off_the_grid_is_a_mass_deficit(self, monkeypatch, side):
        # the run of flagged nodes ends at the grid's end with no sign change, so the
        # argmax |g| fallback puts the atom on the end node, where its Richardson mass is
        # negative: a pole just off the grid is out of reach, not a negative atom
        xs = np.linspace(-1.0, 1.0, 201)
        monkeypatch.setattr(transforms, "illinois", lambda *args: pytest.fail("secant ran"))
        for x in (1.0005, 1.002):
            g = cauchy(Empirical(atoms=((side * x, 0.4),), a=-0.5, b=0.5, values=np.full(3, 0.6)))
            with pytest.raises(MassDeficitError, match="just off the grid's end"):
                invert_stieltjes(g, xs, 1e-3)

    def test_bisection_stops_when_the_midpoint_stops_moving(self):
        emp = Empirical(atoms=((-1.2341, 0.3), (0.7113, 0.7)))
        g = cauchy(emp)
        scalar_calls = []

        def counted(z):
            if not isinstance(z, np.ndarray):
                scalar_calls.append(z)
            return g.fn(z)

        xs, eps = np.linspace(-2.0, 2.0, 4001), 1e-4
        rec = invert_stieltjes(AnalyticMap("cauchy", counted), xs, eps)
        assert len(rec.atoms) == 2
        assert len(scalar_calls) <= 2 * 20
        flagged = np.nonzero(eps * np.abs(g.fn(xs + 1j * eps)) > 0.1)[0]
        runs = np.split(flagged, np.nonzero(np.diff(flagged) > 1)[0] + 1)
        for (x0, _), run, (want, _) in zip(rec.atoms, runs, emp.atoms):
            lo, hi = xs[run[0] - 1], xs[run[-1] + 1]
            bisected = seed_refine_atom_location(g.fn, lo, hi, eps)
            assert abs(x0 - bisected) <= 4 * math.ulp(bisected)
            step = 4 * math.ulp(x0)
            assert g.fn(complex(x0 - step, eps)).real < 0 < g.fn(complex(x0 + step, eps)).real
            assert abs(x0 - want) < 1e-6

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_two_atoms_take_few_scalar_calls(self, seed):
        # the shape of the benchmark's empirical op: a Gaussian and two atoms on 2001 nodes
        # over [-5, 5], eps at the spacing; the 80-step bisection made 98-100 calls
        gen = np.random.default_rng([seed, 1])
        center, width = gen.uniform(-0.5, 0.5), gen.uniform(0.6, 0.9)
        atoms = ((gen.uniform(-3.0, -1.8), gen.uniform(0.15, 0.25)),
                 (gen.uniform(1.8, 3.0), gen.uniform(0.15, 0.25)))
        xs = np.linspace(-5.0, 5.0, 2001)
        rho = np.exp(-0.5 * ((xs - center) / width) ** 2)
        rho *= (1.0 - atoms[0][1] - atoms[1][1]) / np.trapezoid(rho, xs)
        g = cauchy(Empirical(atoms=atoms, a=-5.0, b=5.0, values=rho))
        calls = []
        counted = lambda z: g.fn(z) if isinstance(z, np.ndarray) else calls.append(z) or g.fn(z)
        rec = invert_stieltjes(AnalyticMap("cauchy", counted), xs, xs[1] - xs[0])
        assert len(rec.atoms) == 2 and len(calls) <= 30
        for (x0, _), (want, _) in zip(sorted(rec.atoms), atoms):
            assert abs(x0 - want) < 1e-4


class TestIllinois:
    def test_linear_function_takes_one_evaluation(self):
        calls = []
        f = lambda x: calls.append(x) or 2.0 * (x - 0.375)
        assert transforms.illinois(f, 0.0, 1.0, f(0.0), f(1.0), 1e-15) == 0.375
        assert len(calls) == 3  # the two ends, then the root

    def test_stops_at_the_bracket_width(self):
        calls = []
        f = lambda x: calls.append(x) or math.exp(x) - 2.0
        width = 1e-3
        root = transforms.illinois(f, 0.0, 1.0, f(0.0), f(1.0), width)
        assert abs(root - math.log(2.0)) < width
        # f is convex, so regula falsi alone would keep 1 as its right end: never this narrow
        assert len(calls) - 2 <= 6
        lo, hi, widths = 0.0, 1.0, []  # the bracket after each evaluation
        for x in calls[2:]:
            lo, hi = (x, hi) if f(x) < 0 else (lo, x)
            widths.append(hi - lo)
        assert all(w > width for w in widths[:-1]) and widths[-1] <= width

    def test_returns_the_smallest_residual_seen(self):
        seen = []
        g = lambda x: math.tanh(8.0 * (x - 0.2))
        f = lambda x: seen.append(x) or g(x)
        root = transforms.illinois(f, -1.0, 1.0, f(-1.0), f(1.0), 0.1)
        # the last iterate (0.1496, g = -0.383) is not the best one (0.2328, g = 0.256)
        assert root != seen[-1] and abs(g(root)) == min(abs(g(x)) for x in seen)

    @pytest.mark.parametrize("f_lo, f_hi, want", [(0.0, 1.0, -1.0), (-1.0, 0.0, 2.0)])
    def test_a_zero_end_returns_without_a_call(self, f_lo, f_hi, want):
        def f(x):
            raise AssertionError("f called")

        assert transforms.illinois(f, -1.0, 2.0, f_lo, f_hi, 1e-15) == want


class TestAsymptoticMoments:
    def test_arcsine_variance(self):
        for t in (0.5, 1.0, 2.0):
            mean, var = asymptotic_moments(f_transform(Arcsine(t)))
            assert abs(mean) < 0.01
            assert abs(var - t) < 0.01 * t

    def test_dirac(self):
        mean, var = asymptotic_moments(f_transform(Dirac(1.5)))
        assert mean == pytest.approx(1.5, abs=1e-9)
        assert var == pytest.approx(0.0, abs=1e-9)

    def test_semicircle(self):
        mean, var = asymptotic_moments(f_transform(Semicircle(1.0)))
        assert abs(mean) < 0.01 and abs(var - 1.0) < 0.01

    def test_unstable_fit_raises(self):
        # variance estimates 0.5 at y=50 but 2.0 at higher probes
        bad = AnalyticMap("f", lambda z: z - (0.5 if z.imag < 75 else 2.0) / z)
        with pytest.raises(UnstableFitError):
            asymptotic_moments(bad)

    def test_kind_check(self):
        with pytest.raises(ValidationError):
            asymptotic_moments(cauchy(Dirac(0.0)))


def seed_cauchy(m, z):
    """The scalar closed forms as written before maps took arrays."""
    z = complex(z)

    def hp_sqrt(r, c):
        w = z - c
        return complex(np.sqrt(w - r) * np.sqrt(w + r))

    if isinstance(m, Dirac):
        return 1.0 / (z - m.location)
    if isinstance(m, Semicircle):
        return 2.0 / ((z - m.center) + hp_sqrt(m.radius, m.center))
    if isinstance(m, Arcsine):
        return 1.0 / hp_sqrt(m.radius, m.center)
    return 0j + sum(w / (z - x) for x, w in m.atoms)


ARRAY_Z = np.array(SAMPLE_Z + [-0.4 + 1e-3j, 2.9 + 1e-4j])
ATOMS_ONLY = Empirical(atoms=((-1.0, 0.25), (0.5, 0.75)))


def assert_pointwise(fn, zs=ARRAY_Z, rtol=1e-14):
    got = fn(zs)
    assert isinstance(got, np.ndarray) and got.shape == zs.shape
    want = np.array([fn(complex(z)) for z in zs])
    assert float(np.max(np.abs(got - want) / np.abs(want))) <= rtol


class TestArrayContract:
    @pytest.mark.parametrize("m", ZOO + [ATOMS_ONLY], ids=lambda m: type(m).__name__)
    def test_cauchy_arrays_and_seed_scalars(self, m):
        g = cauchy(m)
        assert_pointwise(g.fn)
        assert all(type(g(z)) is complex for z in SAMPLE_Z)
        if not isinstance(m, Empirical) or m.values is None:
            assert all(g(z) == seed_cauchy(m, z) for z in SAMPLE_Z)  # bit for bit
            return
        # a density's logs come from log|z| and arctan2, not np.log: held to the 40-digit sum
        want = np.array([mp_log_sum(m, z) for z in ARRAY_Z])
        for got, ref in ((np.array([g(complex(z)) for z in ARRAY_Z]), want),
                         (g.fn(ARRAY_Z), want),
                         (g.fn(np.array(SAMPLE_Z)), want[:len(SAMPLE_Z)])):
            assert float(np.max(np.abs(got - ref) / np.abs(ref))) <= 1e-15

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.parametrize("m", ZOO + [ATOMS_ONLY], ids=lambda m: type(m).__name__)
    def test_empty_array_gives_an_empty_array(self, m, shape):
        got = cauchy(m).fn(np.empty(shape, dtype=complex))
        assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == complex

    def test_halfplane_sqrt(self):
        for r, c in ((1.0, 0.0), (2.0, -0.5)):
            assert_pointwise(lambda z: halfplane_sqrt(z, r, c))
            for z in SAMPLE_Z:
                val = halfplane_sqrt(z, r, c)
                w = complex(z) - c
                assert type(val) is complex
                assert val == complex(np.sqrt(w - r) * np.sqrt(w + r))

    def test_composition_maps(self):
        fa, fb = f_transform(Arcsine(0.5)), f_transform(Semicircle(1.0, 0.3))
        for amap in (fa, as_f(cauchy(Dirac(0.7))), as_cauchy(fa), monotone(fa, fb),
                     anti_monotone(fa, fb),
                     chain_approximation(constant_driver(0.2), 1.0 / 16.0, 16)):
            assert_pointwise(amap.fn)
            assert type(amap(1 + 2j)) is complex

    def test_newton_and_subordination_maps(self):
        ga, gb = cauchy(Semicircle(1.0)), cauchy(Arcsine(1.0))
        ws = -1j * np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        zs = np.array([2j, 1 + 1j, -2 + 1j, 1.5 + 1.5j, 0.3 + 3j])
        r_sum = free_r(r_transform(ga), r_transform(gb))
        for amap, pts in ((r_transform(ga), ws), (r_sum, ws), (cauchy_from_r(r_sum), zs),
                          (free_subordination(ga, gb), zs)):
            assert_pointwise(amap.fn, pts, rtol=0.0)  # per point: bit for bit


def bumpy_empirical(seed, n_atoms, a=-2.0, b=3.0, n=401):
    """Random mixture of three bumps on a floor (so the density does not vanish at
    ``a`` or ``b``), plus ``n_atoms`` random atoms of mass 0.1."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(a, b, n)
    rho = 0.2 + sum(rng.uniform(0.2, 1.0)
                    * np.exp(-0.5 * ((xs - rng.uniform(a, b)) / rng.uniform(0.2, 0.8)) ** 2)
                    for _ in range(3))
    atoms = tuple((rng.uniform(a, b), 0.1) for _ in range(n_atoms))
    rho *= (1.0 - 0.1 * n_atoms) / np.trapezoid(rho, xs)
    return Empirical(atoms=atoms, a=a, b=b, values=rho)


def grid_row(m, offset, y, count):
    """``count`` points ``c + j*step + iy`` spaced like ``m``'s density grid,
    starting ``offset`` grid steps from ``a``."""
    step = (m.b - m.a) / (len(m.values) - 1)
    return (m.a + offset * step) + step * np.arange(count) + 1j * y


def mp_log_sum(m, z):
    """The Cauchy transform of ``m`` at 40 digits: the exact integral of the linear
    interpolant through the grid nodes, plus the atoms."""
    with mp.workdps(40):
        z = mp.mpc(complex(z))
        xs = [mp.mpf(float(x)) for x in m.grid()]
        rho = [mp.mpf(float(r)) for r in m.values]
        out = sum(mp.mpf(w) / (z - mp.mpf(x)) for x, w in m.atoms)
        for k in range(len(xs) - 1):
            slope = (rho[k + 1] - rho[k]) / (xs[k + 1] - xs[k])
            out += (rho[k] + slope * (z - xs[k])) * (mp.log(z - xs[k]) - mp.log(z - xs[k + 1]))
            out -= rho[k + 1] - rho[k]
        return complex(out)


@pytest.fixture
def log_calls(monkeypatch):
    """Counts calls of ``np.log`` while the test runs."""
    calls = [0]
    real = np.log

    def counting(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(np, "log", counting)
    return calls


class TestEmpiricalRows:
    """Points in a row of constant height spaced like the density grid are
    evaluated by convolution; every other point by the per-point log-sum."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_atoms", [0, 2])
    def test_rows_match_per_point(self, seed, n_atoms):
        m = bumpy_empirical(seed, n_atoms)
        g = cauchy(m)
        for y in (1e-2, 1e-4, 1e-6, 1e-8, -1e-3):
            # on the nodes, a hair off them, between them, left of a
            for offset in (0.0, 3e-13, 0.37, -40.0):
                zs = grid_row(m, offset, y, len(m.values) + 80)  # and right of b
                want = np.array([g(complex(z)) for z in zs])
                err = np.abs(g(zs) - want) / np.maximum(1.0, np.abs(want))
                assert float(np.max(err)) <= 1e-13, (y, offset)

    def test_rows_match_mpmath(self):
        m = bumpy_empirical(3, 2)
        g = cauchy(m)
        for y, offset in ((1e-8, 0.0), (1e-8, 3e-13), (1e-2, 0.37), (1e-6, -40.0)):
            zs = grid_row(m, offset, y, len(m.values) + 80)
            got = g(zs)
            for j in (0, 40, 173, 400, 440, 470):  # the ends a and b: 0 and 400, or 40 and 440
                assert abs(got[j] - mp_log_sum(m, zs[j])) <= 1e-14, (y, offset, j)

    def test_points_off_rows_keep_scalar_bits(self, rng):
        m = bumpy_empirical(4, 2)
        g = cauchy(m)
        xs = m.grid()
        perm = rng.permutation(xs.size)
        while np.any(np.diff(perm) == 1):  # two grid neighbours in order would form a row
            perm = rng.permutation(xs.size)
        for zs in (xs[::-1] + 1e-3j,  # steps by -h
                   xs[::2] + 1e-3j,  # steps by 2h
                   xs[perm] + 1e-3j,
                   xs + np.where(np.arange(xs.size) % 2, 1e-3j, 2e-3j),
                   rng.uniform(-3.0, 4.0, 50) - 1j * rng.uniform(1e-6, 1.0, 50),
                   ARRAY_Z):
            assert np.array_equal(g(zs), np.array([g(complex(z)) for z in zs]))

    def test_drifting_run_keeps_scalar_bits(self):
        # each step is off the grid spacing by 1e-16, inside the neighbour test, but the run
        # drifts 5e-14 off the row through its first point: it takes the per-point sum
        m = bumpy_empirical(6, 2)
        g = cauchy(m)
        step = (m.b - m.a) / (len(m.values) - 1)
        for y in (1e-2, 1e-8):
            zs = m.a + step * (1.0 + 1e-14) * np.arange(len(m.values)) + 1j * y
            assert np.array_equal(g(zs), np.array([g(complex(z)) for z in zs]))

    @pytest.mark.parametrize("m", [gaussian_empirical(),
                                   gaussian_empirical(mass=0.6, atoms=((2.0, 0.4),))],
                             ids=["density", "with-atom"])
    def test_inversion_takes_logs_per_row(self, m, log_calls):
        g = cauchy(m)
        scalar = [0]

        def counted(z):
            scalar[0] += not isinstance(z, np.ndarray)
            return g.fn(z)

        xs = m.grid()
        invert_stieltjes(AnalyticMap("cauchy", counted), xs, float(xs[1] - xs[0]))
        # a row of the 2 x 2001 grid takes 3 log calls; atom refinement is scalar
        assert scalar[0] < 200
        assert log_calls[0] <= 2 * 3 + scalar[0]

    @pytest.mark.parametrize("n, count", [
        (2, 2), (2, 3), (3, 2), (3, 3),  # the smallest grids and rows
        (401, 2), (401, 3),
        (2, 4), (2, 5), (3, 7), (3, 8), (401, 113), (401, 114),  # n + count - 2 logs: 2^k, 2^k + 1
    ])
    def test_edge_shapes_match_per_point(self, n, count, log_calls):
        m = bumpy_empirical(5, 1, n=n)
        g = cauchy(m)
        for y in (1e-2, 1e-8):
            for offset in (0.0, 0.37, -1.5):
                zs = grid_row(m, offset, y, count)
                before = log_calls[0]
                got = g(zs)
                assert log_calls[0] - before == 3, (y, offset)  # one row
                assert np.array_equal(got, g(zs.copy())), (y, offset)  # byte for byte
                want = np.array([g(complex(z)) for z in zs])
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert float(np.max(err)) <= 1e-13, (y, offset)

    def test_far_tail_keeps_relative_accuracy(self):
        # 40001 points at the grid spacing run to 156, far right of b = 4, where
        # |G| ~ 6e-3 and the row's round-off counts against a small value.
        m = gaussian_empirical()
        h = (m.b - m.a) / (len(m.values) - 1)
        zs = grid_row(m, 0.0, h, 40001)
        g = cauchy(m)
        got = g(zs)
        for j in range(20000, zs.size, 2000):
            want = mp_log_sum(m, zs[j])
            # measured with direct convolutions: row 1.4e-13, per point 2.1e-13 of |G|
            assert abs(got[j] - want) <= 5e-13 * abs(want), j
            assert abs(g(complex(zs[j])) - want) <= 5e-13 * abs(want), j

    def test_long_row(self, log_calls):
        m = gaussian_empirical(n=20001)
        g = cauchy(m)
        xs = m.grid()
        zs = xs + 1j * (xs[1] - xs[0])
        got = g(zs)
        assert log_calls[0] <= 3  # one row
        for j in range(0, xs.size, 1999):
            want = g(complex(zs[j]))
            assert abs(got[j] - want) <= 1e-13 * max(1.0, abs(want))


class TestLaneLog:
    """``lane_log`` takes the log from ``log|z|`` and ``arctan2``: the imaginary part to
    2 ulps, the real part to 4e-16 absolute or 2 ulps of itself, and numpy's branch."""

    def test_matches_mpmath(self, rng):
        n = 1000
        sign = lambda: rng.choice([-1.0, 1.0], n)
        turn = lambda: np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        zs = np.concatenate([
            10.0 ** rng.uniform(-300.0, 300.0, n) * turn(),
            sign() * 10.0 ** rng.uniform(-3.0, 3.0, n)  # next to the axis, either side
            + 1j * sign() * 10.0 ** rng.uniform(-300.0, -1.0, n),
            (1.0 + rng.uniform(-1e-12, 1e-12, n)) * turn(),  # |z| next to 1
        ])
        got = transforms.lane_log(zs)
        with mp.workdps(40):
            want = np.array([complex(mp.log(mp.mpc(complex(z)))) for z in zs])
        assert np.all(np.abs(got.imag - want.imag) <= 2.0 * np.spacing(np.abs(want.imag)))
        bound = np.maximum(4e-16, 2.0 * np.spacing(np.abs(want.real)))
        assert np.all(np.abs(got.real - want.real) <= bound)

    def test_branch_zero_and_infinities_match_np_log(self):
        inf = math.inf
        zs = np.array([complex(x, y) for x in (-inf, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, inf)
                       for y in (-inf, -0.0, 0.0, inf)])
        with np.errstate(divide="ignore"):  # log 0 = -inf
            got, want = transforms.lane_log(zs), np.log(zs)
        assert np.all(got.real[zs == 0] == -inf)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_lane_routes_take_no_complex_np_log(self, monkeypatch):
        complex_args = []
        real = np.log

        def recording(x):
            complex_args.append(np.iscomplexobj(x))
            return real(x)

        monkeypatch.setattr(np, "log", recording)
        m = gaussian_empirical(mass=0.6, atoms=((2.0, 0.4),))
        xs = m.grid()
        invert_stieltjes(cauchy(m), xs, float(xs[1] - xs[0]))
        assert complex_args and not any(complex_args)
        complex_args.clear()
        # a sloped piece halfway along an SLE path, on the grid -3:3:301 at two heights
        grid = np.linspace(-3.0, 3.0, 301)
        piece = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)._pieces[32][0]
        flows._sloped_lanes(np.concatenate([grid + 1e-2j, grid + 5e-3j]), piece)
        assert complex_args and not any(complex_args)

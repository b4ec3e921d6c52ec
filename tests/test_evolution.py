import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from loewner import (
    Arcsine,
    AtomPath,
    Dirac,
    MeasurePath,
    SemicircleFamily,
    anti_monotone_family,
    asymptotic_moments,
    burgers_residual,
    burgers_residual_of,
    chain_approximation,
    constant_driver,
    f_transform,
    flow_reverse,
    free_family,
    monotone_family,
    pointwise,
    sle_driving,
)
from loewner.errors import QuadratureFailureError, ValidationError
from loewner.acceptance import _adaptive_simpson
from loewner.measures import mean_variance
from loewner.transforms import AnalyticMap, invert_stieltjes

from conftest import root_upper

D0 = constant_driver(0.0)
TWO_STEP = MeasurePath((0.0, 0.5), (Dirac(-1.0), Dirac(1.0)))


def const_map(u, dt):
    return lambda z: u + root_upper((z - u) ** 2 - 2.0 * dt)


class TestMonotoneFamily:
    def test_constant_driver_gives_arcsine(self):
        fam = monotone_family(D0)
        rec = fam.measure(0.0, 1.0, np.linspace(-2.0, 2.0, 8001), 1e-3)
        xs = rec.grid()
        vals = np.asarray(rec.values)
        inner = np.abs(xs) <= 1.3
        closed = 1.0 / (math.pi * np.sqrt(2.0 - xs[inner] ** 2))
        assert float(np.max(np.abs(vals[inner] - closed))) < 1e-2

    def test_diagonal_is_point_mass_at_zero(self):
        fam = monotone_family(TWO_STEP)
        for z in (1j, 1 + 2j):
            assert fam(0.3, 0.3, z) == z

    def test_two_segment_composition_oracle(self):
        fam = monotone_family(TWO_STEP)
        oracle = lambda z: const_map(1.0, 0.5)(const_map(-1.0, 0.5)(z))
        for z in (1j, 1 + 1j, -2 + 0.5j):
            assert abs(fam(0.0, 1.0, z) - oracle(z)) < 1e-8

    def test_composition_law(self, rng):
        fam = monotone_family(AtomPath(np.linspace(0, 1, 9), 0.5 * rng.standard_normal(9)))
        for _ in range(10):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            assert abs(fam(s, t, z) - fam(u, t, fam(s, u, z))) < 1e-7

    def test_weak_continuity_surrogate(self):
        fam = monotone_family(D0)
        z = 1 + 1j
        t = 0.5
        for du in (1e-2, 1e-3, 1e-4):
            gap = abs(fam(0.0, t + du, z) - fam(0.0, t, z))
            assert gap <= du / z.imag + 1e-12


class TestMeasureThroughLanes:
    """``measure`` solves the whole grid in one lane-kernel call; the old route
    ran one scalar solve per node and height."""

    @pytest.mark.parametrize("fam, s, t, grid, eps", [
        (monotone_family(MeasurePath((0.0, 0.25, 0.6), (Dirac(-0.5), Arcsine(0.5),
                                                         Dirac(0.8)))),
         0.1, 0.9, np.linspace(-2.5, 2.5, 401), 5e-3),
        (monotone_family(sle_driving(2.0, 1.0 / 64.0, 1.0, 2)),
         0.0, 1.0, np.linspace(-3.0, 3.0, 201), 1e-2),
        (anti_monotone_family(sle_driving(2.0, 1.0 / 64.0, 1.0, 7)),
         0.0, 1.0, np.linspace(-3.0, 3.0, 201), 1e-2),
        (monotone_family(TWO_STEP), 0.3, 0.3, np.linspace(-0.5, 0.5, 101), 1e-3),
    ], ids=["measure-path", "sle-monotone", "sle-anti-monotone", "diagonal-atom"])
    def test_matches_scalar_route(self, fam, s, t, grid, eps):
        g = fam.cauchy_map(s, t)
        scalar_only = AnalyticMap("cauchy", pointwise(lambda z: g(complex(z))),
                                  mean=g.mean, variance=g.variance)
        old = invert_stieltjes(scalar_only, grid, eps)
        new = fam.measure(s, t, grid, eps)
        assert len(new.atoms) == len(old.atoms)
        for (x_new, m_new), (x_old, m_old) in zip(new.atoms, old.atoms):
            assert abs(x_new - x_old) <= 1e-10 and abs(m_new - m_old) <= 1e-10
        assert float(np.max(np.abs(new.values - old.values))) <= 1e-10


class TestAntiMonotoneFamily:
    def test_constant_matches_monotone(self):
        fam_a = anti_monotone_family(D0)
        fam_m = monotone_family(D0)
        for z in (1j, 2 + 1j):
            assert abs(fam_a(0.0, 1.0, z) - fam_m(0.0, 1.0, z)) < 1e-9

    def test_two_segment_order_reversed(self):
        # the 1e-8 target needs a tighter per-step budget than the default
        fam = anti_monotone_family(TWO_STEP, tol=1e-12)
        oracle = lambda z: const_map(-1.0, 0.5)(const_map(1.0, 0.5)(z))
        for z in (1j, 1 + 1j):
            assert abs(fam(0.0, 1.0, z) - oracle(z)) < 1e-8
        assert abs(fam(0.0, 1.0, 2j) - monotone_family(TWO_STEP)(0.0, 1.0, 2j)) > 1e-6

    def test_reversed_composition_law(self, rng):
        fam = anti_monotone_family(AtomPath(np.linspace(0, 1, 9),
                                            0.5 * rng.standard_normal(9)))
        for _ in range(10):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            assert abs(fam(s, t, z) - fam(s, u, fam(u, t, z))) < 1e-7


class TestFreeFamily:
    def test_constant_driver_is_linear(self):
        fam = free_family(D0)
        for z in (0.3j, 0.1j, 1 + 1j):
            assert fam(0.25, 1.0, z) == pytest.approx(0.75 * z, abs=1e-12)

    def test_diagonal_vanishes(self):
        fam = free_family(sle_driving(2.0, 0.25, 1.0, seed=1))
        assert fam(0.5, 0.5, 0.3j) == 0.0

    def test_atomic_driver_matches_scipy_quadrature(self):
        d = sle_driving(2.0, 1.0 / 16.0, 1.0, seed=9)
        fam = free_family(d)
        for s, t in ((0.0, 1.0), (0.2, 0.9)):
            for z in (0.3j, 1 + 1j):
                w = 1.0 / z
                f_re = lambda tau: (1.0 / (w - d.u(tau))).real
                f_im = lambda tau: (1.0 / (w - d.u(tau))).imag
                pts = d.breakpoints(s, t)
                want = complex(quad(f_re, s, t, points=pts, limit=200)[0],
                               quad(f_im, s, t, points=pts, limit=200)[0])
                assert fam(s, t, z) == pytest.approx(want, abs=1e-10)

    def test_additivity(self, rng):
        fam = free_family(sle_driving(2.0, 1.0 / 32.0, 1.0, seed=5))
        for _ in range(10):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            for z in (0.2j, 1 + 1j):
                assert abs(fam(s, u, z) + fam(u, t, z) - fam(s, t, z)) < 1e-10

    def test_measure_path_exact_segments(self):
        fam = free_family(TWO_STEP)
        z = 0.25j
        w = 1.0 / z
        want = 0.5 / (w + 1.0) + 0.3 / (w - 1.0)
        assert fam(0.0, 0.8, z) == pytest.approx(want, abs=1e-14)

    def test_semicircle_family_quadrature(self):
        # R_{0,t}(z) = integral of G_{W,tau}(1/z); cross-check against scipy
        fam = free_family(SemicircleFamily())
        d = SemicircleFamily()
        z = 0.4j
        w = 1.0 / z
        want = complex(quad(lambda tau: d.cauchy(tau, w).real, 0.0, 1.0, limit=200)[0],
                       quad(lambda tau: d.cauchy(tau, w).imag, 0.0, 1.0, limit=200)[0])
        assert fam(0.0, 1.0, z) == pytest.approx(want, abs=1e-9)

    def test_materializes_to_semicircle(self):
        fam = free_family(D0)
        rec = fam.measure(0.0, 1.0, np.linspace(-2.2, 2.2, 2201), 1e-4)
        xs = rec.grid()
        vals = np.asarray(rec.values)
        inner = np.abs(xs) <= 1.8
        closed = np.sqrt(4.0 - xs[inner] ** 2) / (2.0 * math.pi)
        assert float(np.max(np.abs(vals[inner] - closed))) < 1e-2

    def test_normality_small_argument(self):
        fam = free_family(sle_driving(2.0, 1.0 / 32.0, 1.0, seed=5))
        for s, t in ((0.0, 1.0), (0.25, 0.75)):
            w = -0.001j
            assert abs(fam(s, t, w) / w - (t - s)) < 0.01 * (t - s)

    @pytest.mark.parametrize("z", [0j, np.array([1j, 0.0, 2 + 1j])], ids=["scalar", "array"])
    def test_zero_is_rejected(self, z):
        # the free family runs in w = 1/z: no value at z = 0, not inf
        with pytest.raises(ValidationError, match="z != 0"):
            free_family(D0)(0.0, 1.0, z)


def semicircle_integral_oracle(lo, hi, w):
    """``Phi(hi) - Phi(lo)`` at 50 digits, ``Phi(tau) = w log(w + S_tau) - S_tau``."""
    with mp.workdps(50):
        w = mp.mpc(w)

        def phi(tau):
            r = 2 * mp.sqrt(mp.mpf(tau))
            s = mp.sqrt(w - r) * mp.sqrt(w + r)  # the half-plane branch, as in the library
            return w * mp.log(w + s) - s

        return complex(phi(hi) - phi(lo))


# the first three made the adaptive quadrature of R_{0,1} and R_{0,3} exceed its depth
SC_PROBES = (0.5 + 1e-9j, 1 + 1e-12j, -2.7985 + 2.57e-6j, 0.4j, 3 + 1j, -1 + 1e-6j, 2.5 + 0.3j)
SC_SPANS = ((0.0, 1.0), (0.0, 3.0), (0.2, 0.21), (0.5, 0.5 + 1e-12), (1e-12, 2e-12), (2.9, 3.0))


class TestSemicircleFamilyIntegral:
    @pytest.mark.parametrize("lo, hi", SC_SPANS)
    def test_matches_mpmath(self, lo, hi):
        d = SemicircleFamily()
        for z in SC_PROBES:
            for w in (1.0 / z, 1.0 / z.conjugate()):  # both half-planes
                got = d.integral(lo, hi, w)
                assert type(got) is complex
                want = semicircle_integral_oracle(lo, hi, w)
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_family_values_near_the_axis(self):
        fam = free_family(SemicircleFamily())
        for z in SC_PROBES:
            for t in (1.0, 3.0):
                want = semicircle_integral_oracle(0.0, t, 1.0 / z)
                assert abs(fam(0.0, t, z) - want) <= 1e-13 * abs(want)

    def test_array_input(self):
        d = SemicircleFamily()
        w = 1.0 / np.array(SC_PROBES * 2).reshape(2, -1)
        for lo, hi in SC_SPANS:
            got = d.integral(lo, hi, w)
            assert got.shape == w.shape
            for g, v in zip(got.flat, w.flat):
                want = semicircle_integral_oracle(lo, hi, v)
                assert abs(g - want) <= 1e-13 * abs(want)
                assert abs(g - d.integral(lo, hi, complex(v))) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n, eps", [(301, 1e-2), (601, 1e-3)])
    def test_measure_on_grids_the_quadrature_failed(self, n, eps):
        rec = free_family(SemicircleFamily()).measure(0.0, 1.0, np.linspace(-3.0, 3.0, n), eps)
        assert abs(mean_variance(rec)[1] - 1.0) < 1e-3


class TestNormality:
    @pytest.mark.parametrize("driver", [D0, TWO_STEP,
                                        sle_driving(2.0, 1.0 / 64.0, 1.0, seed=11)],
                             ids=["constant", "two-segment", "sle"])
    def test_monotone_variance(self, driver):
        fam = monotone_family(driver)
        mean, var = asymptotic_moments(fam.transform(0.0, 1.0))
        assert abs(mean) < 0.02
        assert abs(var - 1.0) < 0.01

    def test_anti_monotone_variance(self):
        fam = anti_monotone_family(TWO_STEP)
        _, var = asymptotic_moments(fam.transform(0.0, 1.0))
        assert abs(var - 1.0) < 0.01

    def test_partial_interval(self):
        fam = monotone_family(TWO_STEP)
        _, var = asymptotic_moments(fam.transform(0.25, 0.75))
        assert abs(var - 0.5) < 0.005


class TestSleDriving:
    def test_zero_kappa_is_zero_path(self):
        d = sle_driving(0.0, 0.25, 1.0, seed=3)
        assert np.all(d.values == 0.0)

    def test_deterministic(self):
        a = sle_driving(2.0, 1.0 / 64.0, 1.0, seed=7)
        b = sle_driving(2.0, 1.0 / 64.0, 1.0, seed=7)
        assert np.array_equal(a.values, b.values)
        c = sle_driving(2.0, 1.0 / 64.0, 1.0, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_monte_carlo_variance(self):
        kappa = 2.0
        samples = [sle_driving(kappa, 1.0 / 64.0, 1.0, seed=s).values[-1]
                   for s in range(10000)]
        var = float(np.var(samples)) / (kappa / 2.0)
        assert abs(var - 1.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            sle_driving(-1.0, 0.1, 1.0, seed=0)
        for kappa in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="kappa"):
                sle_driving(kappa, 0.1, 1.0, seed=0)
        with pytest.raises(ValidationError):
            sle_driving(2.0, 2.0, 1.0, seed=0)


class TestChainApproximation:
    def test_zero_driver_is_arcsine(self):
        d = AtomPath([0.0, 1.0], [0.0, 0.0])
        ch = chain_approximation(d, 1.0 / 8.0, 8)
        want = f_transform(Arcsine(1.0))
        for z in (2j, 1 + 1j, -1 + 2j):
            assert abs(ch(z) - want(z)) < 1e-12

    def test_exact_for_piecewise_constant(self, rng):
        values = 0.7 * rng.uniform(-1, 1, 8)
        d = MeasurePath(tuple(np.arange(8) / 8.0), tuple(Dirac(float(v)) for v in values))
        ch = chain_approximation(d, 1.0 / 8.0, 8, shift="left")
        for z in (2j, 1 + 1j):
            assert abs(ch(z) - flow_reverse(d, 0.0, 1.0, z)) < 1e-8

    def test_chain_variance(self):
        d = sle_driving(2.0, 1.0 / 32.0, 1.0, seed=3)
        for mode in ("left", "right", "increment"):
            ch = chain_approximation(d, 1.0 / 32.0, 32, shift=mode)
            mean, var = asymptotic_moments(ch)
            assert abs(var - 1.0) < 0.01

    def test_increment_mode_is_a_transform(self):
        # the sampled-increment form is only claimed in distribution, so the
        # contract here is: a genuine F-kind map, distinct from the value mode
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, seed=2)
        ch = chain_approximation(d, 1.0 / 64.0, 64, shift="increment")
        for z in (2j, 1 + 1j, -0.5 + 0.8j):
            assert ch(z).imag >= z.imag - 1e-12
        other = chain_approximation(d, 1.0 / 64.0, 64, shift="left")
        assert abs(ch(2j) - other(2j)) > 1e-6

    def test_validation(self):
        d = AtomPath([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValidationError):
            chain_approximation(d, 1.0 / 8.0, 8, shift="sideways")
        with pytest.raises(ValidationError):
            chain_approximation(MeasurePath((0.0,), (Arcsine(1.0),)), 0.5, 1)


class TestAdaptiveSimpson:
    def test_singular_integrand_exceeds_depth(self):
        # |t - 0.3|^(-1/2) is integrable, but no refinement depth resolves its pole
        with pytest.raises(QuadratureFailureError):
            _adaptive_simpson(lambda t: abs(t - 0.3) ** -0.5 if t != 0.3 else 0.0, 0.0, 1.0)


class TestBurgers:
    def test_fixed_point_residual(self):
        res = burgers_residual(SemicircleFamily(), np.linspace(0.2, 1.0, 3),
                               np.linspace(-1.0, 1.0, 3) + 1.0j)
        assert res < 1e-3

    def test_closed_form_oracle(self):
        def big_g(t, z):
            return 2.0 / (z + root_upper(z * z - 4.0 * t)) if t > 0 else 1.0 / z

        res = burgers_residual_of(big_g, np.linspace(0.2, 1.0, 5),
                                  np.linspace(-1.0, 1.0, 5) + 1.5j)
        assert res < 1e-6

    def test_initial_slice_one_sided(self):
        def big_g(t, z):
            return 2.0 / (z + root_upper(z * z - 4.0 * t)) if t > 0 else 1.0 / z

        res = burgers_residual_of(big_g, [0.0], [2j, 1 + 2j, 3j])
        assert res < 1e-3

    def test_non_fixed_point_has_residual(self):
        # a constant point-mass driver does not satisfy the Burgers equation
        res = burgers_residual(D0, [0.5], [1.2j])
        assert res > 1e-2

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValidationError, match="step"):
            burgers_residual_of(lambda t, z: 1.0 / z, [0.5], [1j], step)

import cmath
import math

import numpy as np
import pytest

from loewner import (
    AnalyticMap,
    Arcsine,
    Dirac,
    Empirical,
    Semicircle,
    anti_monotone,
    asymptotic_moments,
    cauchy,
    cauchy_from_r,
    f_transform,
    free_r,
    free_subordination,
    materialize,
    monotone,
    parse_expression,
    r_transform,
)
from loewner import transforms
from loewner.cli import run
from loewner.errors import DomainMismatchError, NoConvergenceError, ValidationError

from conftest import root_upper

PROBES = (2j, 1 + 2j, -1 + 1.5j, 0.5 + 3j, 3j)


class TestMonotone:
    def test_arcsine_stability(self):
        # mu_{A,1} convolved with mu_{A,1} is mu_{A,2}: F is sqrt(z^2 - 4)
        f = monotone(f_transform(Arcsine(1.0)), f_transform(Arcsine(1.0)))
        want = f_transform(Arcsine(2.0))
        for z in PROBES:
            assert abs(f(z) - want(z)) < 1e-10

    def test_identity_element(self):
        fb = f_transform(Arcsine(1.0))
        ident = f_transform(Dirac(0.0))
        for z in PROBES:
            assert abs(monotone(ident, fb)(z) - fb(z)) < 1e-12
            assert abs(monotone(fb, ident)(z) - fb(z)) < 1e-12

    def test_point_masses_add(self):
        f = monotone(f_transform(Dirac(1.0)), f_transform(Dirac(0.5)))
        for z in PROBES:
            assert f(z) == pytest.approx(z - 1.5, abs=1e-12)

    def test_associativity(self):
        fa, fb, fc = (f_transform(m) for m in (Arcsine(1.0), Semicircle(1.0), Dirac(0.5)))
        left = monotone(fa, monotone(fb, fc))
        right = monotone(monotone(fa, fb), fc)
        for z in PROBES:
            assert abs(left(z) - right(z)) < 1e-12

    def test_meta_for_mean_zero_inputs(self):
        f = monotone(f_transform(Arcsine(1.0)), f_transform(Semicircle(0.5)))
        assert f.mean == 0.0 and f.variance == pytest.approx(1.5)
        g = monotone(f_transform(Dirac(1.0)), f_transform(Arcsine(1.0)))
        assert g.mean is None and g.variance is None

    def test_variance_additivity_via_asymptotics(self):
        f = monotone(f_transform(Arcsine(0.7)), f_transform(Semicircle(0.3)))
        mean, var = asymptotic_moments(f)
        assert abs(mean) < 0.01
        assert abs(var - 1.0) < 0.01

    def test_non_commutativity_witness(self):
        fa = f_transform(Arcsine(1.0))
        fb = f_transform(Arcsine(1.0, 1.0))
        gap = abs(monotone(fa, fb)(2j) - monotone(fb, fa)(2j))
        assert gap > 1e-6

    def test_kind_check(self):
        with pytest.raises(ValidationError):
            monotone(cauchy(Dirac(0.0)), f_transform(Dirac(0.0)))


class TestAntiMonotone:
    def test_is_reversed_composition(self):
        fa = f_transform(Arcsine(1.0))
        fb = f_transform(Arcsine(1.0, 1.0))
        for z in PROBES:
            assert anti_monotone(fa, fb)(z) == monotone(fb, fa)(z)

    def test_arcsine_stability(self):
        f = anti_monotone(f_transform(Arcsine(1.0)), f_transform(Arcsine(2.0)))
        want = f_transform(Arcsine(3.0))
        for z in PROBES:
            assert abs(f(z) - want(z)) < 1e-10

    def test_point_masses_add(self):
        f = anti_monotone(f_transform(Dirac(2.0)), f_transform(Dirac(-0.5)))
        for z in PROBES:
            assert f(z) == pytest.approx(z - 1.5, abs=1e-12)


class TestFreeR:
    def test_semicircle_stability(self):
        r = free_r(r_transform(cauchy(Semicircle(1.0))), r_transform(cauchy(Semicircle(2.0))))
        for s in (0.1, 0.2, 0.3, 0.4, 0.5):
            w = -1j * s
            assert r(w) == pytest.approx(3.0 * w, abs=1e-8)

    def test_commutativity(self):
        ra = r_transform(cauchy(Semicircle(1.0)))
        rb = r_transform(cauchy(Dirac(0.7)))
        for s in (0.1, 0.3):
            w = -1j * s
            assert free_r(ra, rb)(w) == free_r(rb, ra)(w)

    def test_identity(self):
        rb = r_transform(cauchy(Semicircle(1.0)))
        r = free_r(r_transform(cauchy(Dirac(0.0))), rb)
        for s in (0.1, 0.3, 0.5):
            w = -1j * s
            assert r(w) == pytest.approx(rb(w), abs=1e-10)

    def test_dirac_shifts(self):
        # adding the R-transform of a point mass translates the measure
        r = free_r(r_transform(cauchy(Dirac(0.5))), r_transform(cauchy(Semicircle(1.0))))
        g = cauchy_from_r(r)
        want = cauchy(Semicircle(1.0, 0.5))
        for z in (2j, 1 + 2j, 3j):
            assert g(z) == pytest.approx(want(z), abs=1e-8)

    def test_domain_mismatch(self):
        ra = AnalyticMap("r", lambda w: w, domain=(0.0, 0.1))
        rb = AnalyticMap("r", lambda w: w, domain=(0.2, 0.5))
        with pytest.raises(DomainMismatchError):
            free_r(ra, rb)


class TestSubordination:
    def test_semicircle_stability(self):
        g = free_subordination(cauchy(Semicircle(1.0)), cauchy(Semicircle(1.0)))
        want = cauchy(Semicircle(2.0))
        for z in PROBES:
            assert abs(g(z) - want(z)) < 1e-6

    def test_point_mass_shifts(self):
        g = free_subordination(cauchy(Dirac(0.5)), cauchy(Semicircle(1.0)))
        want = cauchy(Semicircle(1.0, 0.5))
        for z in PROBES:
            assert abs(g(z) - want(z)) < 1e-9

    def test_identity(self):
        gb = cauchy(Arcsine(1.0))
        g = free_subordination(cauchy(Dirac(0.0)), gb)
        for z in PROBES:
            assert abs(g(z) - gb(z)) < 1e-10

    def test_bernoulli_square_is_arcsine(self):
        # two-point law at +-1 freely convolved with itself: G = 1/sqrt(z^2-4)
        bern = Empirical(atoms=((-1.0, 0.5), (1.0, 0.5)))
        g = free_subordination(cauchy(bern), cauchy(bern))
        for z in PROBES:
            assert abs(g(z) - 1.0 / root_upper(z * z - 4.0)) < 1e-6

    def test_bernoulli_against_r_route(self):
        # independent oracle: R-addition with Newton inversion
        bern = Empirical(atoms=((-1.0, 0.5), (1.0, 0.5)))
        g_sub = free_subordination(cauchy(bern), cauchy(bern))
        g_r = cauchy_from_r(free_r(r_transform(cauchy(bern)), r_transform(cauchy(bern))))
        for z in (2j, 1 + 2j, 3j):
            assert abs(g_sub(z) - g_r(z)) < 1e-6

    def test_agreement_with_r_route_on_mixed_inputs(self):
        ga, gb = cauchy(Semicircle(1.0)), cauchy(Arcsine(1.0))
        g_sub = free_subordination(ga, gb)
        g_r = cauchy_from_r(free_r(r_transform(ga), r_transform(gb)))
        for z in (2j, 1 + 3j, 4j):
            assert abs(g_sub(z) - g_r(z)) < 1e-6


class TestSubordinationNearAxis:
    # 0, 1 and 3.5 settle during the Picard steps at this height; -2.826,
    # -2.5 and 2.83 are still moving after them and finish by Newton
    NEAR = np.array([0.0, 1.0, -2.826, -2.5, 2.83, 3.5]) + 1e-4j

    def test_newton_lanes_match_single_lanes(self):
        g = free_subordination(cauchy(Semicircle(1.0)), cauchy(Semicircle(1.0)))
        got = g.fn(self.NEAR)
        want = np.array([g.fn(complex(z)) for z in self.NEAR])
        assert np.array_equal(got, want)  # bit for bit
        closed = cauchy(Semicircle(2.0)).fn(self.NEAR)
        assert float(np.max(np.abs(got - closed) / np.abs(closed))) < 1e-11

    def test_newton_failure_names_its_point(self, monkeypatch):
        # no Newton iterations allowed: the first lane still moving after
        # Picard fails, and the error names it, not the first lane
        monkeypatch.setattr(transforms, "NEWTON_MAX_ITER", 0)
        g = free_subordination(cauchy(Semicircle(1.0)), cauchy(Semicircle(1.0)))
        with pytest.raises(NoConvergenceError, match=r"-2\.826"):
            g.fn(self.NEAR)

    def test_bernoulli_and_semicircle_just_above_the_axis(self):
        # Picard leaves this lane to Newton, and damping the Picard steps made
        # that Newton stall.  The R-transform route stalls here too, so the
        # oracle is the subordination pair: F_a(w1) = F_b(w2) = F with
        # w1 + w2 = z + F, both in the upper half-plane.  For the Bernoulli law
        # F_a(w) = w - 1/w, so w1 solves w^2 - F w - 1 = 0.
        ga = cauchy(Empirical(atoms=((-1.0, 0.5), (1.0, 0.5))))
        gb = cauchy(Semicircle(1.0))
        z = 0.025 + 1e-6j
        g = free_subordination(ga, gb)(z)
        f = 1.0 / g
        root = cmath.sqrt(f * f + 4.0)
        pairs = [(w1, z + f - w1) for w1 in ((f + root) / 2.0, (f - root) / 2.0)]
        held = [w1 for w1, w2 in pairs if w1.imag > 0 and w2.imag > 0
                and abs(gb(w2) - ga(w1)) < 1e-10 * abs(ga(w1))]
        assert len(held) == 1

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_covering_grid_is_semicircle_of_variance_two(self, eps):
        # the grid covers the support [-2 sqrt 2, 2 sqrt 2]; a capped Picard
        # loop used to stop near its edge, at x = -2.826
        rec = materialize(parse_expression("free(sc:1, sc:1)"), np.linspace(-3.0, 3.0, 2001), eps)
        assert rec.atoms == ()
        xs = rec.grid()
        inner = np.abs(xs) <= 2.5
        closed = np.sqrt(8.0 - xs[inner] ** 2) / (4.0 * math.pi)
        assert float(np.max(np.abs(np.asarray(rec.values)[inner] - closed))) < 1e-2


class TestMaterialize:
    def test_monotone_arcsine_chain(self):
        f = monotone(f_transform(Arcsine(0.5)), f_transform(Arcsine(0.5)))
        g = AnalyticMap("cauchy", lambda z: 1.0 / f(z))
        rec = materialize(g, np.linspace(-2.0, 2.0, 8001), 1e-3)
        xs = rec.grid()
        vals = np.asarray(rec.values)
        inner = np.abs(xs) <= 1.3
        closed = 1.0 / (math.pi * np.sqrt(2.0 - xs[inner] ** 2))
        assert float(np.max(np.abs(vals[inner] - closed))) < 1e-2


class TestExpressions:
    def test_monotone_expression(self):
        amap = parse_expression("mono(arcsine:1, arcsine:1)")
        assert amap.kind == "f"
        assert amap(2j) == pytest.approx(1j * math.sqrt(8.0), abs=1e-10)

    def test_free_expression(self):
        amap = parse_expression("free(sc:1, sc:1)")
        assert amap.kind == "cauchy"
        want = cauchy(Semicircle(2.0))
        assert abs(amap(2j) - want(2j)) < 1e-6

    def test_nested_expression(self):
        amap = parse_expression("mono(free(sc:1, sc:1), dirac:0.5)")
        assert amap.kind == "f"

    def test_leaf_is_cauchy(self):
        amap = parse_expression("dirac:2")
        assert amap.kind == "cauchy"
        assert amap(1j) == pytest.approx(1.0 / (1j - 2.0), abs=1e-12)

    @pytest.mark.parametrize("text, trimmed", [
        ("free(sc:1, sc:1) ", "free(sc:1, sc:1)"),  # trailing whitespace is free
        ("mono(sc:1,sc:1)\n", "mono(sc:1,sc:1)"),
        ("sc:5.", "sc:5"),  # a leaf's number reads as ``float`` reads it, like --measure
    ])
    def test_spellings_parse_alike(self, text, trimmed):
        got, want = parse_expression(text), parse_expression(trimmed)
        zs = np.array([2j, 0.3 + 0.5j, -1.0 + 1e-3j])
        assert got.kind == want.kind
        assert got(2j) == want(2j)
        assert np.array_equal(got(zs), want(zs))

    def test_cli_takes_trailing_space(self, capsys):
        assert run(["convolve", "--expr", "free(sc:1, sc:1) ", "--probe", "2i"]) == 0
        padded = capsys.readouterr().out
        assert run(["convolve", "--expr", "free(sc:1, sc:1)", "--probe", "2i"]) == 0
        assert capsys.readouterr().out == padded

    def test_bad_expressions(self):
        for text in ("mono(arcsine:1)", "blend(sc:1, sc:1)", "mono(sc:1, sc:1", "sc:1 extra",
                     "$", "", "sc:1e", "mono(sc:1 sc:1)"):
            with pytest.raises(ValidationError):
                parse_expression(text)

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


def held_pairs(atoms, other, z, g):
    """The subordinators of a two-atom law that make ``g = G(z)`` a subordination pair.

    The pair is ``F_1(w1) = F_2(w2) = F`` with ``w1 + w2 = z + F``, both in the
    upper half-plane, whichever side of the convolution the two-atom law is
    on.  With masses ``p1, p2`` at ``x1, x2`` its
    ``F(w) = (w - x1)(w - x2) / (w - p1 x2 - p2 x1)``, so its subordinator
    solves ``w^2 - (x1 + x2 + F) w + x1 x2 + F (p1 x2 + p2 x1) = 0``; ``other``
    is the Cauchy transform of the other law.
    """
    (x1, p1), (x2, p2) = atoms
    g_atoms = cauchy(Empirical(atoms=atoms))
    f = 1.0 / g
    b = x1 + x2 + f
    root = cmath.sqrt(b * b - 4.0 * (x1 * x2 + f * (p1 * x2 + p2 * x1)))
    pairs = [(w1, z + f - w1) for w1 in ((b + root) / 2.0, (b - root) / 2.0)]
    return [w1 for w1, w2 in pairs if w1.imag > 0 and w2.imag > 0
            and abs(other(w2) - g_atoms(w1)) < 1e-10 * abs(g_atoms(w1))]


class TestSubordinationNearAxis:
    # 0, 1, -2.5 and 3.5 settle within the Steffensen rounds at this height;
    # -2.826 and 2.83 are still moving after them and finish by Newton
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
        # the rounds leave this lane to Newton, and damping the Picard steps
        # made that Newton stall.  The R-transform route stalls here too, so
        # the oracle is the subordination pair (held_pairs).  For the
        # Bernoulli law F_a(w) = w - 1/w, so w1 solves w^2 - F w - 1 = 0.
        atoms = ((-1.0, 0.5), (1.0, 0.5))
        gb = cauchy(Semicircle(1.0))
        z = 0.025 + 1e-6j
        g = free_subordination(cauchy(Empirical(atoms=atoms)), gb)(z)
        assert len(held_pairs(atoms, gb, z, g)) == 1

    def test_extrapolation_keeps_off_a_repelling_point(self):
        # found by fuzzing: from this start an unguarded Aitken step lands by a
        # repelling fixed point on the real axis, and Newton then raises
        # "residual stalled".  A round takes the extrapolate only where its
        # steps contract by half, at the ratio of the lane's last round.
        atoms = ((-1.9684671575773847, 0.809830330131742),
                 (1.4527975923019307, 0.190169669868258))
        gb = cauchy(Semicircle(4.923298546804195, -0.19085549507618338))
        z = 0.8008331930510675 + 1.0108218291045213e-07j
        g = free_subordination(cauchy(Empirical(atoms=atoms)), gb)(z)
        assert len(held_pairs(atoms, gb, z, g)) == 1

    def test_extrapolation_stops_at_the_rounding_floor(self):
        # found by fuzzing: this lane reaches its rounding floor at
        # |omega_1| ~ 97, where the step ratio jumps from round to round.
        # Extrapolating on that noise kept the lane moving, and Newton raised
        # "residual stalled" from there; with the ratio held to the last
        # round's, plain steps settle it, as plain Picard did.
        ga = cauchy(Arcsine(0.1786639794926482, 0.9629921649517619))
        atoms = ((-2.8319581910543565, 0.8893933592808159),
                 (2.4975299649072555, 0.11060664071918413))
        z = 2.896486168345385 + 0.0002609056112015326j
        g = free_subordination(ga, cauchy(Empirical(atoms=atoms)))(z)
        assert len(held_pairs(atoms, ga, z, g)) == 1

    def test_rounds_halve_the_map_evaluations(self):
        # 20 plain Picard steps made 68,772 lane evaluations of H_b on this
        # grid and left 1,108 lanes to Newton; the Steffensen rounds make
        # 32,784 and leave 152
        inner = cauchy(Arcsine(1.0))
        lanes = []

        def counted(z):
            lanes.append(np.size(z))
            return inner.fn(z)

        gb = AnalyticMap("cauchy", counted, mean=inner.mean, variance=inner.variance)
        materialize(free_subordination(cauchy(Semicircle(1.0)), gb), np.linspace(-4.0, 4.0, 2001), 1e-3)
        assert sum(lanes) <= 40_000

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

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deep_nesting_is_refused(self, depth, capsys):
        text = "mono(sc:1, " * depth + "sc:1" + ")" * depth
        with pytest.raises(ValidationError, match="nested too deeply"):
            parse_expression(text)
        assert run(["convolve", "--expr", text, "--probe", "2i"]) == 2

    def test_deep_nesting_within_reach_evaluates(self, capsys):
        text = "mono(sc:1, " * 400 + "sc:1" + ")" * 400
        assert run(["convolve", "--expr", text, "--probe", "2i"]) == 0
        kind, re_part, im_part = capsys.readouterr().out.split()
        assert kind == "f" and float(im_part) > 0

    def test_bad_expressions(self):
        for text in ("mono(arcsine:1)", "blend(sc:1, sc:1)", "mono(sc:1, sc:1", "sc:1 extra",
                     "$", "", "sc:1e", "mono(sc:1 sc:1)"):
            with pytest.raises(ValidationError):
                parse_expression(text)

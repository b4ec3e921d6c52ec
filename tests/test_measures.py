import math

import numpy as np
import pytest
from scipy.integrate import quad

from loewner import (
    Arcsine,
    Dirac,
    Empirical,
    MomentSequence,
    Semicircle,
    density_at,
    dilate,
    mean_variance,
    moments,
    shift,
    support,
)
from loewner.errors import AtomicPointError, ValidationError
from loewner.measures import from_dict, from_spec, to_dict

from conftest import gaussian_empirical


class TestDensity:
    def test_semicircle_at_zero(self):
        # oracle: sqrt(4 - 0) / (2 pi)
        assert density_at(Semicircle(1.0), 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_arcsine_at_zero(self):
        assert density_at(Arcsine(1.0), 0.0) == pytest.approx(1.0 / (math.pi * math.sqrt(2)),
                                                              abs=1e-12)

    def test_outside_support_is_zero(self):
        assert density_at(Semicircle(1.0), 3.0) == 0.0
        assert density_at(Arcsine(1.0), -5.0) == 0.0

    def test_atom_location_rejected(self):
        with pytest.raises(AtomicPointError):
            density_at(Dirac(2.0), 2.0)
        emp = gaussian_empirical(mass=0.7, atoms=((1.0, 0.3),))
        with pytest.raises(AtomicPointError):
            density_at(emp, 1.0)

    def test_densities_match_quadrature_oracle(self):
        # closed densities must integrate to one over their supports
        for m, hi in ((Semicircle(1.0), 2.0), (Arcsine(1.0), math.sqrt(2.0))):
            total, _ = quad(lambda x: density_at(m, x), -hi, hi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestMoments:
    def test_dirac(self):
        assert list(moments(Dirac(2.0), 3)) == [1.0, 2.0, 4.0, 8.0]

    def test_semicircle_against_quadrature(self):
        want = [quad(lambda x: x**k * density_at(Semicircle(1.0), x), -2, 2, limit=200)[0]
                for k in range(5)]
        got = list(moments(Semicircle(1.0), 4))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx([1.0, 0.0, 1.0, 0.0, 2.0], abs=1e-12)

    def test_arcsine_against_quadrature(self):
        c = math.sqrt(2.0)
        want = [quad(lambda x: x**k * density_at(Arcsine(1.0), x), -c, c, limit=400)[0]
                for k in range(5)]
        got = list(moments(Arcsine(1.0), 4))
        assert got == pytest.approx(want, abs=1e-7)
        assert got == pytest.approx([1.0, 0.0, 1.0, 0.0, 1.5], abs=1e-12)

    def test_empirical_atoms_plus_density(self):
        emp = gaussian_empirical(mass=0.75, atoms=((3.0, 0.25),))
        got = list(moments(emp, 4))
        xs = emp.grid()
        dens = np.asarray(emp.values)
        for k in range(5):
            want = 0.25 * 3.0**k + np.trapezoid(dens * xs**k, xs)
            # trapezoid vs exact piecewise-linear integration differ at O(h^2)
            assert got[k] == pytest.approx(want, abs=1e-4)

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            moments(Semicircle(1.0), 17)

    def test_mass_conservation(self):
        zoo = [Dirac(-1.0), Semicircle(2.0), Arcsine(0.5), shift(Arcsine(1.0), 2.0),
               gaussian_empirical(), gaussian_empirical(mass=0.4, atoms=((0.5, 0.6),))]
        for m in zoo:
            assert moments(m, 0)[0] == pytest.approx(1.0, abs=1e-9)


class TestShiftDilate:
    def test_shift_dirac(self):
        assert shift(Dirac(0.0), 1.5) == Dirac(1.5)

    def test_dilate_semicircle(self):
        assert dilate(Semicircle(1.0), 2.0) == Semicircle(4.0)

    def test_shift_arcsine_moments(self):
        assert list(moments(shift(Arcsine(1.0), 1.0), 2)) == pytest.approx([1.0, 1.0, 2.0],
                                                                           abs=1e-12)

    def test_shift_moment_consistency(self, rng):
        # moments of the translate equal the binomial recombination
        zoo = [Semicircle(1.3), Arcsine(0.7), gaussian_empirical(),
               gaussian_empirical(mass=0.8, atoms=((1.2, 0.2),))]
        for m in zoo:
            a = float(rng.uniform(-2.0, 2.0))
            base = list(moments(m, 6))
            shifted = list(moments(shift(m, a), 6))
            for k in range(7):
                want = sum(math.comb(k, j) * a ** (k - j) * base[j] for j in range(k + 1))
                assert shifted[k] == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))

    def test_dilate_scales_moments(self):
        base = list(moments(Arcsine(1.0), 4))
        scaled = list(moments(dilate(Arcsine(1.0), 3.0), 4))
        for k in range(5):
            assert scaled[k] == pytest.approx(3.0**k * base[k], rel=1e-12)

    def test_dilate_requires_positive_factor(self):
        with pytest.raises(ValidationError):
            dilate(Semicircle(1.0), 0.0)

    def test_dilate_keeps_a_signed_zero(self):
        # the dilation is the affine pushforward with offset -0.0, the additive identity
        assert math.copysign(1.0, dilate(Dirac(-0.0), 2.0).location) == -1.0
        assert math.copysign(1.0, dilate(Arcsine(1.0, -0.0), 0.5).center) == -1.0
        emp = dilate(Empirical(atoms=((-0.0, 0.5),), a=-0.0, b=1.0, values=[0.5, 0.5]), 3.0)
        assert math.copysign(1.0, emp.atoms[0][0]) == math.copysign(1.0, emp.a) == -1.0


class TestSupport:
    def test_named_families(self):
        assert support(Semicircle(1.0)) == ((-2.0, 2.0), [])
        assert support(Arcsine(2.0)) == ((-2.0, 2.0), [])
        assert support(Dirac(-1.0)) == (None, [-1.0])

    def test_empirical(self):
        emp = gaussian_empirical(mass=0.5, atoms=((6.0, 0.5),))
        interval, atoms = support(emp)
        assert atoms == [6.0]
        assert interval[0] >= -4.0 and interval[1] <= 4.0


class TestInvariants:
    def test_trapezoid_mass_empirical(self):
        # the gridded density is its own quadrature, so this is exact
        emp = gaussian_empirical(mass=0.7, atoms=((5.0, 0.3),))
        xs = emp.grid()
        vals = np.array([density_at(emp, x) for x in xs])
        assert np.trapezoid(vals, xs) == pytest.approx(0.7, abs=1e-9)

    def test_trapezoid_mass_semicircle(self):
        # regular sqrt edges: trapezoid converges; the arcsine law is excluded
        # here because its edge singularity defeats any feasible resolution
        xs = np.linspace(-2.0, 2.0, 100001)
        vals = np.array([density_at(Semicircle(1.0), x) for x in xs])
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)

    def test_mean_variance(self):
        assert mean_variance(Dirac(3.0)) == (3.0, 0.0)
        assert mean_variance(shift(Semicircle(2.0), 1.0)) == (1.0, 2.0)
        mean, var = mean_variance(gaussian_empirical())
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(1.0, abs=2e-3)  # truncation at +-4 sigma


class TestValidation:
    def test_variance_must_be_positive(self):
        with pytest.raises(ValidationError):
            Semicircle(0.0)
        with pytest.raises(ValidationError):
            Arcsine(-1.0)

    def test_radius_must_be_finite(self):
        with pytest.raises(ValidationError, match="infinite radius"):
            Arcsine(1e308)
        assert math.isfinite(Semicircle(1e308).radius)

    def test_empirical_mass_must_be_one(self):
        xs = np.linspace(-1, 1, 101)
        with pytest.raises(ValidationError):
            Empirical(a=-1.0, b=1.0, values=np.full(101, 0.4))

    def test_empirical_negative_density_rejected(self):
        vals = np.full(101, 0.5)
        vals[3] = -0.1
        with pytest.raises(ValidationError):
            Empirical(a=-1.0, b=1.0, values=vals)

    def test_empirical_grid_order(self):
        with pytest.raises(ValidationError):
            Empirical(a=1.0, b=-1.0, values=np.full(11, 0.5))

    def test_atom_mass_range(self):
        with pytest.raises(ValidationError):
            Empirical(atoms=((0.0, 1.5),))


class TestMomentSequence:
    def test_valid_sequence(self):
        seq = MomentSequence((1.0, 0.0, 1.0, 0.0, 2.0))
        assert len(seq) == 5 and seq[4] == 2.0

    def test_must_start_at_one(self):
        with pytest.raises(ValidationError):
            MomentSequence((0.9, 0.0))

    def test_hankel_rejects_non_moment_sequence(self):
        # variance would be negative: not a moment sequence of any measure
        with pytest.raises(ValidationError):
            MomentSequence((1.0, 0.0, -0.5))

    def test_high_order_named_families(self):
        # PSD Hankel check stays stable at the order cap
        moments(Semicircle(1.0), 16)
        moments(Arcsine(1.0), 16)
        moments(gaussian_empirical(), 16)


class TestSerialization:
    def test_round_trip(self):
        zoo = [Dirac(0.5), Semicircle(1.0), shift(Arcsine(2.0), -1.0),
               gaussian_empirical(mass=0.7, atoms=((1.0, 0.3),)),
               Empirical(atoms=((-1.0, 0.25), (0.5, 0.75)))]  # atoms only
        for m in zoo:
            back = from_dict(to_dict(m))
            assert list(moments(back, 4)) == pytest.approx(list(moments(m, 4)), abs=1e-12)

    def test_plain_dict_shape(self):
        assert to_dict(Semicircle(1.0)) == {"kind": "semicircle", "var": 1.0}

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            from_dict({"kind": "cauchy-horse"})

    @pytest.mark.parametrize("obj, field", [
        ({"kind": "dirac"}, "location"),
        ({"kind": "semicircle", "var": "wide"}, "var"),
        ({"kind": "arcsine", "var": 1.0, "center": None}, "center"),
        ({"kind": "empirical", "atoms": [[0.0]]}, "atoms"),
        ({"atoms": [], "a": -1.0, "values": [0.5, 0.5]}, "b"),
    ])
    def test_bad_field_is_named(self, obj, field):
        with pytest.raises(ValidationError, match=f"'{field}'"):
            from_dict(obj)

    def test_spec_aliases_are_not_kinds(self):
        assert from_spec("sc", "1") == Semicircle(1.0)
        with pytest.raises(ValidationError):
            from_dict({"kind": "sc", "var": 1.0})

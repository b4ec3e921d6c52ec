import math

import numpy as np
import pytest
from scipy.integrate import quad

from loewner import Arcsine, Dirac, Empirical, Semicircle, density_at, mean_variance
from loewner.errors import AtomicPointError, ValidationError
from loewner.measures import MASS_TOL, from_dict, from_spec

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
        assert mean_variance(Semicircle(2.0, 1.0)) == (1.0, 2.0)
        mean, var = mean_variance(gaussian_empirical())
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(1.0, abs=2e-3)  # truncation at +-4 sigma

    def test_mean_variance_of_atoms_plus_density(self):
        emp = gaussian_empirical(mass=0.75, atoms=((3.0, 0.25),))
        xs = emp.grid()
        dens = np.asarray(emp.values)
        m1, m2 = (0.25 * 3.0**k + np.trapezoid(dens * xs**k, xs) for k in (1, 2))
        # trapezoid vs exact piecewise-linear integration differ at O(h^2)
        assert mean_variance(emp) == pytest.approx((m1, m2 - m1**2), abs=1e-4)


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

    def test_empirical_grid_span_must_be_finite(self):
        # b - a overflows: grid() would read [nan, inf, 1e308] and every moment NaN
        with pytest.raises(ValidationError, match="b - a finite"):
            Empirical(a=-1e308, b=1e308, values=[1.0, 1.0, 1.0])

    @pytest.mark.parametrize("atoms", [(), ((0.5, 0.25), (2.0, 0.125))], ids=["density", "atoms"])
    @pytest.mark.parametrize("off, ok", [(0.5, True), (-0.5, True), (2.0, False), (-2.0, False)])
    def test_empirical_mass_gate_at_its_edge(self, atoms, off, ok):
        # atom masses plus the trapezoid mass of [0, 1, 2, 1, 0] c on [-1, 1] (2c) total 1 + off
        density_mass = 1.0 - sum(m for _, m in atoms) + off * MASS_TOL
        vals = np.array([0.0, 1.0, 2.0, 1.0, 0.0]) * (density_mass / 2.0)
        if ok:
            assert np.array_equal(Empirical(atoms, -1.0, 1.0, vals).values, vals)
        else:
            with pytest.raises(ValidationError, match="total mass"):
                Empirical(atoms, -1.0, 1.0, vals)

    def test_atom_mass_range(self):
        with pytest.raises(ValidationError):
            Empirical(atoms=((0.0, 1.5),))

    @pytest.mark.parametrize("make", [
        lambda: Semicircle(1.0, math.inf), lambda: Semicircle(1.0, math.nan),
        lambda: Arcsine(1.0, -math.inf), lambda: Arcsine(1.0, math.nan),
        lambda: Empirical(atoms=((math.inf, 1.0),)),
        lambda: Empirical(atoms=((0.0, 0.5), (math.nan, 0.5))),
        lambda: Empirical(a=-1.0, b=1.0, values=np.r_[0.5, math.nan, 0.5]),
        lambda: Empirical(a=-math.inf, b=1.0, values=np.full(3, 0.5)),
        lambda: Empirical(a=-1.0, b=math.inf, values=np.full(3, 0.5)),
    ], ids=["sc-center-inf", "sc-center-nan", "arc-center-inf", "arc-center-nan",
            "atom-inf", "atom-nan", "density-nan", "grid-a-inf", "grid-b-inf"])
    def test_non_finite_fields_rejected(self, make):
        # each would reach the transforms as NaN: a NaN total mass passes the mass gate
        with pytest.raises(ValidationError, match="finite"):
            make()


class TestSerialization:
    @pytest.mark.parametrize("obj, want", [
        ({"kind": "dirac", "location": 0.5}, Dirac(0.5)),
        ({"kind": "semicircle", "var": 1.0}, Semicircle(1.0)),
        ({"kind": "arcsine", "var": 2.0, "center": -1.0}, Arcsine(2.0, -1.0)),
    ], ids=["dirac", "semicircle", "arcsine-centered"])
    def test_reads_every_named_kind(self, obj, want):
        assert from_dict(obj) == want

    @pytest.mark.parametrize("obj", [
        {"kind": "empirical", "atoms": [[-1.0, 0.25], [0.5, 0.75]]},
        {"atoms": [[1.0, 0.5]], "a": -1.0, "b": 1.0, "values": [0.25, 0.25, 0.25]},
    ], ids=["atoms-only", "kind-implied-by-fields"])
    def test_reads_an_empirical(self, obj):
        m = from_dict(obj)
        assert isinstance(m, Empirical)
        assert m.atoms == tuple(tuple(a) for a in obj["atoms"])
        assert (m.a, m.b) == (obj.get("a"), obj.get("b"))
        if "values" in obj:
            assert m.values.tolist() == obj["values"]
        else:
            assert m.values is None

    def test_not_a_mapping(self):
        with pytest.raises(ValidationError, match="mapping"):
            from_dict([["dirac", 0.0]])

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

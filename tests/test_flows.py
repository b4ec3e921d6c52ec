import math

import numpy as np
import pytest

from loewner import (
    Arcsine,
    AtomPath,
    Dirac,
    MeasurePath,
    Semicircle,
    SemicircleFamily,
    asymptotic_moments,
    cauchy,
    constant_driver,
    driving_from_dict,
    driving_to_dict,
    flow_forward,
    flow_reverse,
    flow_reverse_anti,
    inverse_map,
    trace,
    welding,
)
from loewner.transforms import AnalyticMap
from loewner.errors import HorizonExceededError, ValidationError

from conftest import root_upper

D0 = constant_driver(0.0)


def two_step_driver(u0, u1, split=0.5):
    return MeasurePath((0.0, split), (Dirac(u0), Dirac(u1)))


def const_map(u, dt):
    """Reverse-flow map of a constant point-mass driver over duration dt."""
    return lambda z: u + root_upper((z - u) ** 2 - 2.0 * dt)


class TestForward:
    def test_closed_form_point(self):
        fp = flow_forward(D0, 2j, 1.0)
        assert fp.alive
        assert fp.value == pytest.approx(1j * math.sqrt(2.0), abs=1e-7)

    def test_initial_condition(self):
        fp = flow_forward(D0, 1 + 1j, 0.0)
        assert fp.value == 1 + 1j and fp.alive and fp.lifetime == math.inf

    def test_lifetime_of_i(self):
        fp = flow_forward(D0, 1j, 1.0)
        assert not fp.alive
        assert fp.lifetime == pytest.approx(0.5, abs=1e-6)

    def test_closed_form_grid(self):
        for t in (0.25, 1.0):
            for x in (-2.0, -0.5, 0.7, 2.5):
                for y in (0.5, 1.5):
                    z = complex(x, y)
                    got = flow_forward(D0, z, t).value
                    assert got == pytest.approx(root_upper(z * z + 2 * t), abs=1e-6)

    def test_lifetime_monotone_in_height(self):
        # points higher on the imaginary axis survive longer: T(iy) = y^2/2
        lifetimes = [flow_forward(D0, 1j * y, 3.0).lifetime for y in (0.6, 1.0, 1.4, 2.0)]
        assert all(b > a for a, b in zip(lifetimes, lifetimes[1:]))
        assert lifetimes[1] == pytest.approx(0.5, abs=1e-6)
        assert lifetimes[3] == pytest.approx(2.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            flow_forward(D0, 1.0 - 1j, 1.0)
        with pytest.raises(HorizonExceededError):
            flow_forward(AtomPath([0.0, 1.0], [0.0, 0.0]), 1j, 2.0)


class TestReverse:
    def test_constant_driver_closed_form(self):
        for u in (0.0, 1.0):
            d = constant_driver(u)
            oracle = const_map(u, 1.0)
            for z in (1j, 1 + 1j, -2 + 0.5j):
                assert flow_reverse(d, 0.0, 1.0, z) == pytest.approx(oracle(z), abs=1e-8)

    def test_example_point(self):
        assert flow_reverse(D0, 0.0, 1.0, 1j) == pytest.approx(1j * math.sqrt(3.0), abs=1e-8)

    def test_identity_at_equal_times(self):
        assert flow_reverse(D0, 0.7, 0.7, 2j) == 2j

    def test_time_homogeneous_for_constant_driver(self):
        got = flow_reverse(D0, 0.25, 0.75, 1 + 1j)
        assert got == pytest.approx(const_map(0.0, 0.5)(1 + 1j), abs=1e-8)

    def test_imaginary_part_grows(self, rng):
        d = AtomPath(np.linspace(0, 1, 7), rng.standard_normal(7))
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
            s, t = np.sort(rng.uniform(0.0, 1.0, 2))
            assert flow_reverse(d, s, t, z).imag >= z.imag - 1e-12

    def test_evolution_property(self, rng):
        d = AtomPath(np.linspace(0, 1, 9), 0.5 * rng.standard_normal(9))
        for _ in range(25):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            direct = flow_reverse(d, s, t, z)
            hop = flow_reverse(d, u, t, flow_reverse(d, s, u, z))
            assert abs(direct - hop) < 1e-7

    def test_lipschitz_in_time(self, rng):
        d = AtomPath(np.linspace(0, 1, 9), 0.5 * rng.standard_normal(9))
        for _ in range(25):
            s, u, t = np.sort(rng.uniform(0.0, 1.0, 3))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            gap = abs(flow_reverse(d, s, u, z) - flow_reverse(d, s, t, z))
            assert gap <= 1.05 * (t - u) / z.imag + 1e-12

    def test_normalization_variance(self):
        # the reverse flow is the F-transform of a variance-t measure
        for t in (0.25, 1.0):
            f = AnalyticMap("f", lambda z, tt=t: flow_reverse(D0, 0.0, tt, z))
            mean, var = asymptotic_moments(f)
            assert abs(mean) < 0.01
            assert abs(var - t) <= 0.01 * t

    def test_segment_end_reads_left_piece(self):
        # the piece ending at the breakpoint holds through its end: the far
        # Dirac on the next piece must not leak into the last stage
        far = MeasurePath((0.0, 0.5), (Dirac(0.0), Dirac(100.0)))
        for z in (1j, 0.3 + 0.2j, -1 + 2j):
            assert flow_reverse(far, 0.0, 0.5, z) == flow_reverse(D0, 0.0, 0.5, z)


class TestReverseAnti:
    def test_constant_driver_time_symmetry(self):
        d = constant_driver(0.0)
        for z in (1j, 1 + 1j):
            assert flow_reverse_anti(d, 0.0, 1.0, z) == pytest.approx(
                flow_reverse(d, 0.0, 1.0, z), abs=1e-9)

    def test_identity_at_equal_times(self):
        assert flow_reverse_anti(D0, 0.4, 0.4, 1j) == 1j

    def test_two_step_composition_order(self):
        # anti-monotone runs the early segment outermost; monotone the reverse
        # (1e-8 needs a tighter per-step budget than the default)
        d = two_step_driver(-1.0, 1.0)
        early = const_map(-1.0, 0.5)
        late = const_map(1.0, 0.5)
        for z in (1j, 1 + 2j, -0.5 + 1j):
            anti = flow_reverse_anti(d, 0.0, 1.0, z, tol=1e-12)
            mono = flow_reverse(d, 0.0, 1.0, z, tol=1e-12)
            assert abs(anti - early(late(z))) < 1e-8
            assert abs(mono - late(early(z))) < 1e-8
        assert abs(flow_reverse_anti(d, 0.0, 1.0, 2j) - flow_reverse(d, 0.0, 1.0, 2j)) > 1e-6


class TestInverse:
    def test_constant_driver(self):
        got = inverse_map(D0, 1.0, 1j * math.sqrt(2.0))
        assert got == pytest.approx(2j, abs=1e-7)

    def test_identity_at_zero(self):
        assert inverse_map(D0, 0.0, 1 + 1j) == 1 + 1j

    def test_round_trip(self, rng):
        d = AtomPath(np.linspace(0, 1, 5), 0.4 * rng.standard_normal(5))
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(0.8, 2.0))
            w = inverse_map(d, 1.0, z)
            assert flow_forward(d, w, 1.0).value == pytest.approx(z, abs=1e-6)

    def test_fixed_point_family(self):
        d = SemicircleFamily()
        for z in (2j, 1 + 2j, 3j):
            got = 1.0 / inverse_map(d, 1.0, z)
            assert got == pytest.approx(2.0 / (z + root_upper(z * z - 4.0)), abs=1e-4)


class TestTrace:
    def test_vertical_segment(self):
        d = AtomPath([0.0, 1.0], [0.0, 0.0])
        tr = trace(d, [0.0, 0.5, 1.0])
        assert tr.points[0] == 0.0
        assert tr.points[1] == pytest.approx(1j, abs=1e-6)
        assert tr.points[2] == pytest.approx(1j * math.sqrt(2.0), abs=1e-6)
        assert all(e < 1e-6 for e in tr.err_est)

    def test_shifted_segment(self):
        d = AtomPath([0.0, 1.0], [1.0, 1.0])
        tr = trace(d, [0.25])
        assert tr.points[0] == pytest.approx(1.0 + 1j * math.sqrt(0.5), abs=1e-6)

    def test_needs_atom_path(self):
        with pytest.raises(ValidationError):
            trace(D0, [0.5])


class TestWelding:
    def test_symmetric_slit_half_time(self):
        d = AtomPath([0.0, 1.0], [0.0, 0.0])
        w = welding(d, 0.5, npairs=8)
        assert w.a == pytest.approx(-1.0, abs=1e-4)
        assert w.b == pytest.approx(1.0, abs=1e-4)
        assert w.u == 0.0
        assert max(abs(hx + x) for x, hx in w.pairs) < 1e-4

    def test_shifted_slit(self):
        d = AtomPath([0.0, 1.0], [1.0, 1.0])
        w = welding(d, 1.0, npairs=8)
        assert w.a == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-4)
        assert w.b == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-4)
        assert w.u == pytest.approx(1.0, abs=1e-9)
        assert max(abs(hx - (2.0 - x)) for x, hx in w.pairs) < 1e-4

    def test_pairs_have_equal_boundary_values(self):
        d = AtomPath([0.0, 1.0], [0.0, 0.0])
        w = welding(d, 1.0, npairs=6)

        def boundary(p):
            lo = flow_reverse(d, 0.0, 1.0, complex(p, 1e-3))
            hi = flow_reverse(d, 0.0, 1.0, complex(p, 5e-4))
            return 2.0 * hi - lo

        for x, hx in w.pairs:
            assert abs(boundary(x) - boundary(hx)) < 1e-5


class TestDrivers:
    def test_atom_path_validation(self):
        with pytest.raises(ValidationError):
            AtomPath([0.5, 1.0], [0.0, 0.0])  # must start at 0
        with pytest.raises(ValidationError):
            AtomPath([0.0, 0.0], [0.0, 0.0])  # strictly increasing
        with pytest.raises(ValidationError):
            AtomPath([0.0, 1.0], [0.0, math.nan])

    def test_measure_path_validation(self):
        with pytest.raises(ValidationError):
            MeasurePath((0.0, 1.0), (Dirac(0.0),))
        with pytest.raises(ValidationError):
            MeasurePath((0.5,), (Dirac(0.0),))

    def test_measure_path_lookup(self):
        d = two_step_driver(-1.0, 1.0)
        assert d.measure_at(0.2) == Dirac(-1.0)
        assert d.measure_at(0.5) == Dirac(1.0)
        assert d.measure_at(9.0) == Dirac(1.0)

    def test_semicircle_family_matches_measure(self):
        d = SemicircleFamily()
        g = cauchy(Semicircle(0.7))
        assert d.cauchy(0.7, 2j) == pytest.approx(g(2j), abs=1e-12)
        assert d.cauchy(0.0, 2j) == pytest.approx(1.0 / 2j, abs=1e-15)

    def test_serialization_round_trip(self):
        zoo = [
            AtomPath([0.0, 0.5, 1.0], [0.0, 1.0, -1.0]),
            two_step_driver(0.0, 1.0),
            MeasurePath((0.0,), (Arcsine(1.0),)),
            SemicircleFamily(),
        ]
        for d in zoo:
            back = driving_from_dict(driving_to_dict(d))
            assert back.cauchy(0.3, 2j) == pytest.approx(d.cauchy(0.3, 2j), abs=1e-12)

    @pytest.mark.parametrize("d", [
        AtomPath([0.0, 0.3, 0.7, 1.0], [0.0, 1.0, -0.5, 0.25]),
        MeasurePath((0.0, 0.4, 0.9), (Dirac(-1.0), Semicircle(0.5), Arcsine(1.0))),
        SemicircleFamily(),
    ], ids=["atom-path", "measure-path", "semicircle-family"])
    def test_piece_matches_cauchy_inside(self, d):
        knots = list(d.knots) or [0.0]
        if d.horizon == math.inf:
            knots.append(knots[-1] + 1.0)
        for lo, hi in zip(knots, knots[1:]):
            g = d.piece(lo, hi)
            for frac in (0.1, 0.5, 0.9):
                t = lo + frac * (hi - lo)
                for z in (2j, 0.3 + 0.1j):
                    assert g(t, z) == d.cauchy(t, z)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            driving_from_dict({"kind": "brownian-sheet"})

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewner import (
    Arcsine,
    AtomPath,
    Dirac,
    MeasurePath,
    Semicircle,
    SemicircleFamily,
    asymptotic_moments,
    cauchy,
    chain_approximation,
    constant_driver,
    driving_from_dict,
    driving_to_dict,
    flow_forward,
    flow_reverse,
    flow_reverse_anti,
    free_family,
    inverse_map,
    sle_driving,
    trace,
    welding,
)
from loewner import flows
from loewner.cli import run
from loewner.flows import _integrate, _integrate_lanes, _segments
from loewner.transforms import AnalyticMap
from loewner.errors import (
    HorizonExceededError,
    NotASlitError,
    NotInImageError,
    NumericError,
    TraceUnresolvedError,
    ValidationError,
)

from conftest import root_upper

D0 = constant_driver(0.0)


#: a resting and a sloped point-mass driver, each with a NaN and two infinite starts, as a
#: scalar and inside an array
NON_FINITE_STARTS = [(d, z) for d in (D0, AtomPath([0.0, 1.0], [0.0, 1.0]))
                     for bad in (complex(math.nan, 1.0), complex(math.inf, 1.0),
                                 complex(0.5, math.inf))
                     for z in (bad, np.array([1j, bad]))]


def two_step_driver(u0, u1, split=0.5):
    return MeasurePath((0.0, split), (Dirac(u0), Dirac(u1)))


def const_map(u, dt):
    """Reverse-flow map of a constant point-mass driver over duration dt."""
    return lambda z: u + root_upper((z - u) ** 2 - 2.0 * dt)


def sqrt_driver(c):
    """``U(t) = c sqrt(1 - t)`` on [0, 1], sampled geometrically towards t = 1.

    For c < 4 its trace winds into its endpoint as t -> 1; for c >= 4 it
    reaches the real line at t = 1, so the hull is not a slit (Kager, Nienhuis
    & Kadanoff 2004; Lind 2005).
    """
    rest = np.concatenate([[1.0], np.geomspace(0.5, 1e-12, 90), [0.0]])
    return AtomPath(1.0 - rest, c * np.sqrt(rest))


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
        # on a resting piece a NaN start would map to a NaN "swallowed" point
        for z in (complex(math.nan, 1.0), complex(1.0, math.inf)):
            for call in (lambda: flow_forward(D0, z, 1.0), lambda: inverse_map(D0, 1.0, z)):
                with pytest.raises(ValidationError, match="finite"):
                    call()
        with pytest.raises(HorizonExceededError):
            flow_forward(AtomPath([0.0, 1.0], [0.0, 0.0]), 1j, 2.0)


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda t: flow_forward(SemicircleFamily(), 1j, t),
    lambda t: inverse_map(SemicircleFamily(), t, 1j),
    lambda t: trace(AtomPath([0.0, 1.0], [0.0, 0.0]), [t]),
    lambda t: flow_reverse(SemicircleFamily(), 0.0, t, 1j),
    lambda t: flow_reverse_anti(SemicircleFamily(), 0.0, t, 1j),
    lambda t: free_family(SemicircleFamily()).eval(0.0, t, 1j),
    lambda t: AtomPath([0.0, t], [0.0, 0.0]),
    lambda t: MeasurePath((0.0, t), (Dirac(0.0), Dirac(1.0))),
    lambda t: driving_from_dict(json.loads(json.dumps(  # NaN and Infinity in the JSON text
        {"kind": "atom-path", "times": [0.0, t], "values": [0.0, 0.0]}))),
], ids=["flow_forward", "inverse_map", "trace", "flow_reverse", "flow_reverse_anti", "free-eval",
        "atom-path", "measure-path", "atom-path-json"])
def test_non_finite_time_is_a_validation_error(call, t):
    with pytest.raises(ValidationError, match="finite"):
        call(t)


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

    def test_non_finite_start_is_a_validation_error(self):
        for d, z in NON_FINITE_STARTS:
            with pytest.raises(ValidationError, match="finite"):
                flow_reverse(d, 0.0, 1.0, z)

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

    def test_non_finite_start_is_a_validation_error(self):
        for d, z in NON_FINITE_STARTS:
            with pytest.raises(ValidationError, match="finite"):
                flow_reverse_anti(d, 0.0, 1.0, z)

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
        # no round trip at t = 0: the forward check would swallow a start this low
        assert inverse_map(D0, 0.0, 1e-7j) == 1e-7j

    def test_point_off_the_image_raises(self):
        # the preimage lies 4e-9 from the slit, so the forward check swallows it
        with pytest.raises(NotInImageError):
            inverse_map(D0, 1.0, 0.5 + 1e-8j)

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

    def test_winding_tip_is_unresolved(self):
        # the offsets' differences grow (ratio 1.14) instead of contracting
        with pytest.raises(TraceUnresolvedError):
            trace(sqrt_driver(2.7), [1.0])


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

    def test_hull_meeting_the_line_is_not_a_slit(self):
        with pytest.raises(NotASlitError, match="gap"):
            welding(sqrt_driver(6.0), 1.0, npairs=3)

    def test_flat_shot_table_is_unresolved_not_a_slit(self):
        # at T < 1 the hull is still a slit, but the driver's slope (about -95) pins the
        # left shots to the driver: they land within 4e-16 of each other
        with pytest.raises(NumericError, match="unresolved") as info:
            welding(sqrt_driver(6.0), 0.999, npairs=3)
        assert not isinstance(info.value, NotASlitError)

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

    @pytest.mark.parametrize("obj, field", [
        ([], "driver"),
        ({"kind": "atom-path"}, "times"),
        ({"kind": "atom-path", "times": "ab", "values": [0.0, 1.0]}, "times"),
        ({"kind": "atom-path", "times": [0.0, 1.0], "values": ["x", 2]}, "values"),
        ({"kind": "measure-path", "breakpoints": [0.0]}, "measures"),
        ({"kind": "measure-path", "breakpoints": 0,
          "measures": [{"kind": "dirac", "location": 0.0}]}, "breakpoints"),
    ], ids=["not-a-mapping", "no-times", "times-string", "values-not-numeric",
            "no-measures", "breakpoints-number"])
    def test_malformed_description_names_the_field(self, obj, field):
        with pytest.raises(ValidationError, match=field):
            driving_from_dict(obj)


LANE_DRIVERS = [
    MeasurePath((0.0, 0.3, 0.6), (Dirac(0.5), Semicircle(0.7, 0.2), Arcsine(1.1, -0.3))),
    sle_driving(2.0, 1.0 / 64.0, 1.0, 3),
    SemicircleFamily(),
]
LANE_IDS = ["measure-path", "sle-atom-path", "semicircle-family"]
# starts far from and close to the axis, and on both sides of the support
LANE_STARTS = np.concatenate([np.linspace(-2.5, 2.5, 26) + 1e-3j,
                              np.linspace(-2.0, 2.0, 9) + 0.5j,
                              [3j, 1 + 2j, -0.2 + 0.05j]])


def counted(g):
    """Right-hand side ``-g`` that counts its calls in ``calls[0]``."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return -g(t, y)

    return rhs, calls


class TestLanes:
    @pytest.mark.parametrize("d", LANE_DRIVERS, ids=LANE_IDS)
    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_lanes_match_scalar_solves(self, d, flow):
        got = flow(d, 0.1, 0.9, LANE_STARTS)
        assert isinstance(got, np.ndarray) and got.shape == LANE_STARTS.shape
        want = np.array([flow(d, 0.1, 0.9, complex(z)) for z in LANE_STARTS])
        assert float(np.max(np.abs(got - want) / np.abs(want))) < 1e-12

    def test_one_lane_takes_the_scalar_steps(self, rng):
        # same accept/reject sequence: the same number of RHS calls, start by start
        # on each piece of the Dirac / semicircle / arcsine path
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-3, 0.5))
            for lo, hi, g in _segments(LANE_DRIVERS[0], 0.1, 0.9):
                rhs_s, calls_s = counted(g)
                status, _, y_s, _ = _integrate(rhs_s, lo, hi, z, 1e-10)
                rhs_l, calls_l = counted(g)
                done, y_l = _integrate_lanes(rhs_l, lo, hi, np.array([z]), 1e-10)
                assert status == "done" and done.all()
                assert calls_l[0] == calls_s[0]
                assert abs(y_l[0] - y_s) <= 1e-12 * abs(y_s)
                z = y_s

    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_array_start_below_axis_rejected(self, flow):
        for bad in (np.array([1j, 2.0 + 0j]), np.array([1j, 0.5 - 1e-9j])):
            with pytest.raises(ValidationError):
                flow(D0, 0.0, 1.0, bad)

    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_stall_names_the_first_failing_start(self, flow):
        # tol = 1e-300 rejects every step until the step size underflows; a resting
        # point mass integrates nothing, so the driver is a semicircle
        d = MeasurePath((0.0,), (Semicircle(1.0),))
        starts = np.array([0.5 + 1j, 2j])
        with pytest.raises(NumericError, match=r"z = \(0\.5\+1j\)"):
            flow(d, 0.0, 1.0, starts, tol=1e-300)
        with pytest.raises(NumericError, match=r"z = 2j"):
            flow(d, 0.0, 1.0, 2j, tol=1e-300)


# ---------------------------------------------------------------------------
# oracles independent of both the g and the q route

TAYLOR_ORDER = 30


def taylor_solve(v, x, x_end, c0=0, c1=0, d0=0, d1=0):
    """Solve ``v v' = c0 + c1 x + (d0 + d1 x) v`` from ``v(x) = v`` to ``x_end`` in mpmath,
    by Taylor series of order TAYLOR_ORDER, each step a quarter of the radius the last
    coefficients show.  This is the g equation of a point-mass piece in the frame of
    the driver, ``v = g - U``.  A start at ``v = 0`` (a tip) needs ``c0 = d0 = 0`` and
    takes the root ``v' = sqrt(c1)`` with Im >= 0."""
    v, x, x_end = mp.mpc(v), mp.mpf(x), mp.mpf(x_end)
    while x < x_end:
        k0, e0 = c0 + c1 * x, d0 + d1 * x  # coefficients about x
        if v == 0:  # (n + 1) a_1 a_n = d1 a_{n-1} - sum_{j=2}^{n-1} a_j (n - j + 1) a_{n-j+1}
            a = [mp.mpc(0), mp.sqrt(mp.mpc(c1))]
            a[1] = a[1] if a[1].imag >= 0 else -a[1]
            for n in range(2, TAYLOR_ORDER + 1):
                conv = mp.fsum(a[j] * (n - j + 1) * a[n - j + 1] for j in range(2, n))
                a.append((d1 * a[n - 1] - conv) / ((n + 1) * a[1]))
        else:
            a = [v]
            for n in range(TAYLOR_ORDER):
                rhs = ((k0 if n == 0 else c1 if n == 1 else 0) + e0 * a[n]
                       + (d1 * a[n - 1] if n else 0))
                conv = mp.fsum(a[j] * (n - j + 1) * a[n - j + 1] for j in range(1, n + 1))
                a.append((rhs - conv) / ((n + 1) * a[0]))
        radius = min([abs(a[k]) ** (-mp.mpf(1) / k)
                      for k in range(TAYLOR_ORDER - 2, TAYLOR_ORDER + 1) if a[k] != 0] or [mp.inf])
        h = min(radius / 4, x_end - x)
        v, x = mp.polyval(a[::-1], h), x + h
    return v


def line_of(d, lo, hi):
    return (d.u(hi) - d.u(lo)) / (hi - lo)


def tip_oracle(d, t):
    """``gamma(t) = f_t(U(t))``: the inverse g equation from the driver, in ``tau = sqrt(sigma)``
    on the piece ending at ``t`` (where ``v`` is analytic in ``tau``), then in ``sigma``."""
    with mp.workdps(30):
        edges = [t] + [k for k in reversed(d.knots) if k < t]
        v = taylor_solve(0, 0, mp.sqrt(t - edges[1]), c1=-2, d1=2 * line_of(d, edges[1], t))
        for hi, lo in zip(edges[1:], edges[2:]):
            v = taylor_solve(v, t - hi, t - lo, c0=-1, d0=line_of(d, lo, hi))
        return complex(d.u(0.0) + v)


def forward_oracle(d, z, t):
    with mp.workdps(30):
        v = mp.mpc(z) - d.u(0.0)
        for lo, hi in zip(d.knots, d.knots[1:]):
            if lo < t:
                v = taylor_solve(v, lo, min(hi, t), c0=1, d0=-line_of(d, lo, hi))
        return complex(v + d.u(t))


def shot_oracle(d, tau, big_t, side):
    """``U(T) + side s(T)`` of a welding shot, ``ds/dt = 1/s - side U'`` from ``s(tau) = 0``,
    by ``mpmath.odefun`` at 30 digits.  On the birth piece ``t(s)`` solves
    ``dt/ds = s/(1 - a s)``, regular at ``s = 0``, and is inverted at the piece's end
    between the resting map and its shift by ``-a span``; later pieces solve in ``t``."""
    with mp.workdps(30):
        edges = [tau] + [k for k in d.knots if tau < k < big_t] + [big_t]
        a, span = side * line_of(d, edges[0], edges[1]), edges[1] - tau
        t_of = mp.odefun(lambda s, t: s / (1 - a * s), 0, mp.mpf(tau))
        rest = mp.sqrt(2 * mp.mpf(span))
        s = mp.findroot(lambda s: t_of(s) - edges[1], sorted([rest, rest - a * span]),
                        solver="anderson")
        for lo, hi in zip(edges[1:], edges[2:]):
            a = side * line_of(d, lo, hi)
            s = mp.odefun(lambda t, s: 1 / s - a, lo, s)(hi)
        return float(d.u(big_t) + side * s)


def shot_piece_oracle(s0, a, span):
    """``s_1`` of ``ds/dt = 1/s - a`` over ``span`` from ``s0``: bisection on the time
    ``(p_1 - p_0 - log(p_1/p_0))/a**2`` (``p = 1 - a s``) that carrying ``s0`` to ``s_1``
    takes; ``s`` runs between ``s0`` and the fixed point ``1/a``.  The numerator is about
    ``a**2`` of its terms, so the working precision grows with ``log(1/|a|)``."""
    with mp.workdps(40 + 2 * max(0, -math.floor(math.log10(abs(a)))) if a else 40):
        s0, a, span = mp.mpf(s0), mp.mpf(a), mp.mpf(span)
        p0 = 1 - a * s0
        if a == 0 or p0 == 0:
            return mp.sqrt(s0 ** 2 + 2 * span) if a == 0 else s0
        rest = mp.sqrt(s0 ** 2 + 2 * span)
        if a < 0:
            lo, hi = s0, rest - a * span
        else:
            lo, hi = (s0, min(rest, 1 / a)) if p0 > 0 else (1 / a, s0)
        falling = a > 0 and p0 < 0
        for _ in range(120):  # 2**-120 of the bracket is far below an ulp of s_1
            mid = (lo + hi) / 2
            p1 = 1 - a * mid
            took = (p1 - p0 - mp.log(p1 / p0)) / a ** 2 if p1 / p0 > 0 else mp.inf
            if (took < span) != falling:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


#: three sloped pieces; on each, a s of the shots below stays under 1, where dt/ds is regular
THREE_PIECES = AtomPath([0.0, 0.3, 0.6, 1.0], [0.0, 0.25, -0.2, 0.1])


#: a resting piece, then a sloped one
REST_THEN_SLOPE = AtomPath([0.0, 0.5, 1.0], [0.0, 0.0, 0.75])


class TestOracles:
    @pytest.mark.parametrize("d, t", [
        (AtomPath([0.0, 0.4, 1.0], [0.0, 0.5, -0.2]), 0.7),
        (AtomPath([0.0, 0.4, 1.0], [0.0, 0.5, -0.2]), 1.0),
        (AtomPath([0.0, 2.0], [0.0, 2.0]), 1.0),  # the CLI's line:0:1 at T = 1
    ], ids=["two-piece-inside", "two-piece-end", "line-0-1"])
    def test_trace_tip(self, d, t):
        # the tip solve's error is about 18 tol here
        assert abs(trace(d, [t]).points[0] - tip_oracle(d, t)) < 1e-8

    def test_swallowed_on_each_piece(self):
        # on the resting piece in q (closed form y**2 / 2), and on the sloped piece in g:
        # a point of the slit is swallowed when the tip passes it
        assert flow_forward(REST_THEN_SLOPE, 0.9j, 1.0).lifetime == pytest.approx(0.405, abs=1e-8)
        tip = tip_oracle(REST_THEN_SLOPE, 0.75)
        fp = flow_forward(REST_THEN_SLOPE, tip, 1.0)
        assert not fp.alive and fp.lifetime == pytest.approx(0.75, abs=1e-8)

    def test_alive_value_across_both_pieces(self):
        z = 0.3 + 1.2j
        fp = flow_forward(REST_THEN_SLOPE, z, 1.0)
        assert fp.alive and abs(fp.value - forward_oracle(REST_THEN_SLOPE, z, 1.0)) < 1e-9

    @pytest.mark.parametrize("tau", [0.0, 0.45])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_shot_over_three_pieces(self, tau, side):
        got = flows._shot(THREE_PIECES, tau, 1.0, side)
        assert abs(got - shot_oracle(THREE_PIECES, tau, 1.0, side)) < 1e-13

    @pytest.mark.parametrize("u", [0.0, 0.7])
    def test_resting_shots_are_closed_form(self, u):
        d = AtomPath([0.0, 2.0], [u, u])
        for tau in (0.0, 0.3, 0.999):
            for side in (-1.0, 1.0):
                assert flows._shot(d, tau, 1.0, side) == u + side * math.sqrt(2.0 * (1.0 - tau))

    @pytest.mark.parametrize("u, big_t", [(0.0, 1.0), (0.7, 0.5)])
    def test_welding_of_a_resting_driver(self, u, big_t):
        w = welding(AtomPath([0.0, 2.0], [u, u]), big_t, npairs=9)
        assert abs(w.a - (u - math.sqrt(2.0 * big_t))) < 1e-11
        assert abs(w.b - (u + math.sqrt(2.0 * big_t))) < 1e-11
        assert max(abs(hx - (2.0 * u - x)) for x, hx in w.pairs) < 1e-11

    def test_semicircle_forward_is_joukowski(self, monkeypatch):
        # over the semicircle family g_t(z) = z + t/z, so Im g_t = y (1 - t/|z|**2) and
        # a point dies at |z|**2 (1 - EPS_SWALLOW/y); no piece rests, so the crossing
        # is one solve in sigma = -Im g after the solve in t
        d, big_t = SemicircleFamily(), 1.0
        for z in (2j, 1 + 1j, -1.5 + 0.5j, 0.3 + 1.2j):
            fp = flow_forward(d, z, big_t)
            assert fp.alive and abs(fp.value - (z + big_t / z)) < 1e-12 * abs(fp.value)
        calls = [0]
        integrate = flows._integrate

        def counting(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(flows, "_integrate", counting)
        swallowed = (0.5j, 0.3 + 0.4j, -0.6 + 0.6j, 0.2 + 0.9j, 0.9 + 0.05j)
        for z in swallowed:
            fp = flow_forward(d, z, big_t)
            want = abs(z) ** 2 * (1.0 - flows.EPS_SWALLOW / z.imag)
            assert not fp.alive and fp.value.imag == flows.EPS_SWALLOW
            assert abs(fp.lifetime - want) < 1e-12
        assert calls[0] == 2 * len(swallowed)

    def test_sle_swallowed_values_lie_on_the_line(self):
        # kappa = 6: every piece slopes, so every crossing is solved in sigma = -Im g
        d = sle_driving(6.0, 1.0 / 64.0, 1.0, 1)
        starts = [complex(x, y) for x in np.linspace(-1.5, 1.5, 13) for y in (0.05, 0.2, 0.5)]
        swallowed = [(fp, flow_forward(d, z, 1.0, tol=1e-13)) for z, fp in
                     ((z, flow_forward(d, z, 1.0)) for z in starts) if not fp.alive]
        assert len(swallowed) >= 10
        for fp, fine in swallowed:
            assert fp.value.imag == fine.value.imag == flows.EPS_SWALLOW
            assert 0.0 < fp.lifetime <= 1.0 and abs(fp.lifetime - fine.lifetime) < 1e-6

    def test_dirac_path_is_its_chain(self, rng):
        # every piece rests, so the reverse flow composes the chain's exact maps
        n = 64
        d = MeasurePath(tuple(np.arange(n) / n), tuple(Dirac(float(v)) for v in
                                                      0.8 * rng.uniform(-1.0, 1.0, n)))
        chain = chain_approximation(d, 1.0 / n, n, shift="left")
        starts = np.array([0.5j, 2j, -1.5 + 0.5j, 0.5 + 0.7j, 0.1 + 1e-3j])
        want = chain(starts)
        assert float(np.max(np.abs(flow_reverse(d, 0.0, 1.0, starts) - want))) < 1e-13
        assert max(abs(flow_reverse(d, 0.0, 1.0, complex(z)) - w)
                   for z, w in zip(starts, want)) < 1e-13


def swallow_oracle(z, pieces):
    """Lifetime of ``z`` over resting pieces ``(u, span)``, in 40-digit mpmath: a survived
    piece maps ``y -> u + sqrt((y - u)**2 + 2 span)``, and on the last one bisection finds
    the ``s`` where ``Im sqrt((y - u)**2 + 2 s)`` falls to EPS_SWALLOW."""
    with mp.workdps(40):
        y, start = mp.mpc(z), mp.mpf(0)
        for u, span in pieces[:-1]:
            r = mp.sqrt((y - u) ** 2 + 2 * mp.mpf(span))
            y, start = u + (r if r.imag >= 0 else -r), start + span
        u, span = pieces[-1]
        q0, lo, hi = (y - u) ** 2, mp.mpf(0), mp.mpf(span)
        for _ in range(200):
            mid = (lo + hi) / 2
            if abs(mp.sqrt(q0 + 2 * mid).imag) > flows.EPS_SWALLOW:
                lo = mid
            else:
                hi = mid
        return float(start + lo)


def dirac_path(rng, n=64):
    """A point mass at a fresh place on each of ``n`` equal pieces of [0, 1]."""
    return MeasurePath(tuple(np.arange(n) / n),
                       tuple(Dirac(float(v)) for v in 0.8 * rng.uniform(-1.0, 1.0, n)))


class TestRestingPieces:
    """A resting point mass is the arcsine semigroup: every solver applies its exact map."""

    @pytest.mark.parametrize("u", [0.0, 0.7])
    @pytest.mark.parametrize("path", [constant_driver, lambda u: AtomPath([0.0, 2.0], [u, u])],
                             ids=["dirac", "flat-atom-path"])
    def test_swallowing_matches_the_oracle(self, path, u):
        # on the axis over u, just off it, and just above the line far from u
        starts = [complex(u, 0.3), complex(u, 1.2), complex(u + 1e-7, 0.5),
                  complex(u - 3e-7, 1.1), complex(u + 0.5, 1.5e-6), complex(u - 1.0, 1.1e-6)]
        for z in starts:
            fp = flow_forward(path(u), z, 1.0)
            assert not fp.alive and fp.value.imag == flows.EPS_SWALLOW
            assert abs(fp.lifetime - swallow_oracle(z, [(u, 1.0)])) < 1e-14

    def test_swallowed_on_the_second_piece(self):
        # the first piece is survived through its exact map, so no tolerance enters;
        # each start lands above the second point mass
        d = two_step_driver(-0.3, 0.4)
        for h in (0.6, 1.0):
            z = const_map(-0.3, 0.5)(complex(0.4, h))
            fp = flow_forward(d, z, 3.0)
            assert not fp.alive and fp.value.imag == flows.EPS_SWALLOW
            assert abs(fp.lifetime - swallow_oracle(z, [(-0.3, 0.5), (0.4, 2.5)])) < 1e-14

    @pytest.mark.parametrize("path", [lambda rng: constant_driver(0.7),
                                      lambda rng: AtomPath([0.0, 2.0], [0.7, 0.7]), dirac_path],
                             ids=["dirac", "flat-atom-path", "dirac-path"])
    def test_survivors_take_the_exact_map(self, monkeypatch, rng, path):
        d = path(rng)
        ends = tuple(t for t in d.knots if t < 1.0) + (1.0,)
        pieces = [(d.measure_at(lo).location if isinstance(d, MeasurePath) else d.u(lo), hi - lo)
                  for lo, hi in zip(ends, ends[1:])]
        starts = [2j, 1.5 + 2j, -1 + 1.5j, 3 + 0.5j, -3 + 1e-3j, 0.3 + 3j]
        steps, points = count_steps(monkeypatch,
                                    lambda: [flow_forward(d, z, 1.0) for z in starts])
        assert steps == 0
        for z, fp in zip(starts, points):
            want = z
            for u, span in pieces:
                want = u + root_upper((want - u) ** 2 + 2.0 * span)
            assert fp.alive and fp.err_est == 0.0 and fp.value == want

    def test_swallowed_lifetimes_integrate_nothing(self, monkeypatch):
        starts = [complex(0.0, y) for y in np.linspace(0.2, 1.4, 50)]
        steps, points = count_steps(monkeypatch,
                                    lambda: [flow_forward(D0, z, 1.0) for z in starts])
        assert steps == 0 and not any(fp.alive for fp in points)

    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_dirac_path_integrates_nothing(self, monkeypatch, rng, flow):
        d = dirac_path(rng)
        steps, got = count_steps(monkeypatch, lambda: flow(d, 0.0, 1.0, LANE_STARTS))
        assert steps == 0
        steps, want = count_steps(monkeypatch, lambda: np.array(
            [flow(d, 0.0, 1.0, complex(z)) for z in LANE_STARTS]))
        assert steps == 0
        # numpy's complex product differs from Python's by an ulp in a quarter of cases;
        # 64 maps amplify that to 6e-14 at the starts 1e-3 above the line
        assert float(np.max(np.abs(got - want) / np.abs(want))) < 1e-13

    def test_inverse_map_integrates_nothing(self, monkeypatch):
        steps, w = count_steps(monkeypatch, lambda: inverse_map(D0, 1.0, 0.3 + 1e-3j, check=False))
        assert steps == 0
        assert w == pytest.approx(const_map(0.0, 1.0)(0.3 + 1e-3j), rel=1e-15)
        # the round-trip check flows forward over the same resting piece
        steps, w = count_steps(monkeypatch, lambda: inverse_map(D0, 1.0, 0.3 + 0.5j))
        assert steps == 0
        assert w == pytest.approx(const_map(0.0, 1.0)(0.3 + 0.5j), rel=1e-15)

    def test_trace_tip_integrates_nothing(self, monkeypatch):
        times = [0.0, 0.25, 0.5, 1.0]
        d = AtomPath([0.0, 2.0], [0.3, 0.3])
        steps, tr = count_steps(monkeypatch, lambda: trace(d, times))
        assert steps == 0
        assert tr.points == tuple(0.3 + 1j * math.sqrt(2.0 * t) for t in times)


SLOPES = st.floats(-1e7, 1e7)
SPANS = st.floats(1e-14, 1.0)
PIECE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def piece_starts(draw):
    """``(s0, a, span)``; half the draws put ``s0`` below ``3/|a|``, so for ``a > 0`` on
    either side of the fixed point ``1/a``."""
    a = draw(SLOPES)
    if a != 0.0 and draw(st.booleans()):
        s0 = min(draw(st.floats(0.0, 3.0)) / abs(a), 10.0)
    else:
        s0 = draw(st.floats(0.0, 10.0))
    return s0, a, draw(SPANS)


class TestShotPiece:
    """The exact map of a welding shot over one driver piece, ``ds/dt = 1/s - a``."""

    @PIECE_SETTINGS
    @given(piece_starts())
    def test_solves_the_implicit_equation(self, start):
        s0, a, span = start
        s1 = flows._shot_piece(s0, a, span)
        # s0's rounding carries to s1 with gain (p_1 s0)/(p_0 s1), about 1 near 1/a
        assert abs(mp.mpf(s1) - shot_piece_oracle(s0, a, span)) <= 4 * math.ulp(max(s0, s1))
        with mp.workdps(40):  # s1 stays on s0's side of 1/a, or rounds onto it
            p0, p1 = 1 - mp.mpf(a) * s0, 1 - mp.mpf(a) * s1
            assert p0 * p1 >= 0 or abs(p1) <= 2.0 ** -52

    @PIECE_SETTINGS
    @given(st.floats(0.0, 10.0), SPANS)
    def test_resting_piece_is_the_closed_form(self, s0, span):
        assert flows._shot_piece(s0, 0.0, span) == math.sqrt(s0 * s0 + 2.0 * span)

    @PIECE_SETTINGS
    @given(st.floats(0.0, 10.0), SPANS)
    def test_continuous_as_the_slope_vanishes(self, s0, span):
        # d(s - s_rest)/dt = -(s - s_rest)/(s s_rest) - a: a moves s by at most |a| span,
        # and a > 0 holds it below the resting map, a < 0 above
        rest = math.sqrt(s0 * s0 + 2.0 * span)
        for a in (1e-2, 1e-6, 1e-10, 1e-14, 1e-20, 1e-100, 5e-324):
            for sign in (-1.0, 1.0):
                shift = flows._shot_piece(s0, sign * a, span) - rest
                assert abs(shift) <= a * span + 4 * math.ulp(rest)
                assert sign * shift <= 4 * math.ulp(rest)


# ---------------------------------------------------------------------------
# step counts: deterministic, unlike wall time

def count_steps(monkeypatch, call):
    """``(Dormand-Prince steps, result)`` of ``call()``; a lane step counts once."""
    calls = [0]
    step = flows._dp_step

    def counting(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(flows, "_dp_step", counting)
    result = call()
    monkeypatch.setattr(flows, "_dp_step", step)
    return calls[0], result


class TestStepCounts:
    """Bounds about 3x above the counts of the q route; the g route took 31,144 (trace),
    49,506 (welding), 12,537 (lifetimes) and 5,180 (SLE trace) steps.  Resting trace
    tips, forward flows over resting pieces and every welding shot are closed-form, and
    take none."""

    def test_readme_trace(self, monkeypatch, tmp_path, capsys):
        argv = ["trace", "--driver", "const:0", "--T", "1", "--steps", "100",
                "--out", str(tmp_path / "trace.csv")]
        steps, code = count_steps(monkeypatch, lambda: run(argv))
        assert code == 0 and steps == 0

    def test_readme_flow(self, monkeypatch, tmp_path, capsys):
        argv = ["flow", "--driver", "const:0", "--z", "2i", "--T", "1", "--steps", "50",
                "--out", str(tmp_path / "flow.csv")]
        steps, code = count_steps(monkeypatch, lambda: run(argv))
        assert code == 0 and steps == 0

    def test_welding_five_pairs(self, monkeypatch, tmp_path, capsys):
        argv = ["welding", "--driver", "const:0", "--T", "1", "--pairs", "5",
                "--out", str(tmp_path / "weld.csv")]
        steps, code = count_steps(monkeypatch, lambda: run(argv))
        assert code == 0 and steps == 0

    def test_sle_welding(self, monkeypatch):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)
        steps, w = count_steps(monkeypatch, lambda: welding(d, 1.0, npairs=5))
        assert steps == 0 and len(w.pairs) == 5

    def test_lifetimes(self, monkeypatch):
        # 50 points swallowed on the imaginary axis and 10 that stay alive
        starts = ([complex(0.0, y) for y in np.linspace(0.2, 1.4, 50)]
                  + [complex(1.0, y) for y in np.linspace(0.2, 1.4, 10)])
        steps, points = count_steps(monkeypatch,
                                    lambda: [flow_forward(D0, z, 1.0) for z in starts])
        assert sum(not fp.alive for fp in points) == 50
        assert steps == 0

    def test_sle_trace(self, monkeypatch):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)
        steps, _ = count_steps(monkeypatch, lambda: trace(d, list(np.linspace(0.0, 1.0, 11))))
        assert steps <= 4000  # 2,136; 3x would not catch the g route here

    def test_sloped_anti_monotone_solve_is_untouched(self, monkeypatch):
        # the g route on sloped pieces keeps its steps and its bits
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 3)
        steps, z = count_steps(monkeypatch, lambda: flow_reverse_anti(d, 0.0, 1.0, 0.3 + 0.1j))
        assert steps == 210
        assert (z.real.hex(), z.imag.hex()) == ("-0x1.50f0a6a0a8ed6p-3", "0x1.47507344c885cp+0")

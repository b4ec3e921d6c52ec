import cmath
import collections
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import (
    Arcsine,
    AtomPath,
    Dirac,
    MeasurePath,
    Semicircle,
    SemicircleFamily,
    anti_monotone_family,
    asymptotic_moments,
    burgers_residual,
    cauchy,
    chain_approximation,
    constant_driver,
    driving_from_dict,
    flow_forward,
    flow_reverse,
    flow_reverse_anti,
    free_family,
    inverse_map,
    monotone_family,
    sle_driving,
    trace,
    welding,
)
from loewner import flows
from loewner.cli import run
from loewner.transforms import AnalyticMap, halfplane_sqrt
from loewner.errors import (
    HorizonExceededError,
    NotASlitError,
    NotInImageError,
    NumericError,
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

    def test_start_on_or_below_the_swallowing_line(self, tmp_path):
        # such a start is swallowed at time 0, where it stands, before any piece is read
        for z in (0.3 + 1e-7j, complex(0.3, flows.EPS_SWALLOW)):
            for d in (D0, AtomPath([0.0, 1.0], [0.0, 1.0]), SemicircleFamily()):
                assert flow_forward(d, z, 1.0) == flows.FlowPoint(z, False, 0.0)
        out = tmp_path / "f.csv"
        assert run(["flow", "--driver", "const:0", "--z", "0.3+1e-7i", "--T", "1",
                    "--out", str(out)]) == 0
        assert out.read_text() == ("t,re,im,alive,lifetime\n"
                                   "0,0.29999999999999999,9.9999999999999995e-08,0,0\n")

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
        d = two_step_driver(-1.0, 1.0)
        early = const_map(-1.0, 0.5)
        late = const_map(1.0, 0.5)
        for z in (1j, 1 + 2j, -0.5 + 1j):
            anti = flow_reverse_anti(d, 0.0, 1.0, z)
            mono = flow_reverse(d, 0.0, 1.0, z)
            assert abs(anti - early(late(z))) < 1e-8
            assert abs(mono - late(early(z))) < 1e-8
        assert abs(flow_reverse_anti(d, 0.0, 1.0, 2j) - flow_reverse(d, 0.0, 1.0, 2j)) > 1e-6


#: each solve that took a tolerance, on a start and on lanes, and the public calls that
#: passed one on
TOL_CALLS = {
    "forward": lambda d, tol: flow_forward(d, 1 + 1j, 1.0, tol=tol),
    "reverse": lambda d, tol: flow_reverse(d, 0.0, 1.0, 2j, tol=tol),
    "anti": lambda d, tol: flow_reverse_anti(d, 0.0, 1.0, 2j, tol=tol),
    "lanes": lambda d, tol: flow_reverse(d, 0.0, 1.0, np.array([2j, 1 + 1j]), tol=tol),
    "anti-lanes": lambda d, tol: flow_reverse_anti(d, 0.0, 1.0, np.array([2j, 1 + 1j]), tol=tol),
    "inverse": lambda d, tol: inverse_map(d, 1.0, 2j, tol=tol),
    "family": lambda d, tol: monotone_family(d, tol=tol)(0.0, 1.0, 2j),
    "anti-family": lambda d, tol: anti_monotone_family(d, tol=tol)(0.0, 1.0, 2j),
    "free-family": lambda d, tol: free_family(d, tol=tol)(0.0, 1.0, 2j),
    "burgers": lambda d, tol: burgers_residual(d, [0.5], [1j], tol=tol),
}
BAD_TOLS = (math.nan, -1.0, 0.0, math.inf)


def bad_tolerance_errors(d):
    """The error each call in ``TOL_CALLS`` raises at each bad ``tol`` (``None`` if none)."""
    errors = []
    for call in TOL_CALLS.values():
        for tol in BAD_TOLS:
            try:
                call(d, tol)
                errors.append(None)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
    return errors


class TestTolerance:
    """Every solve is an exact map, so ``tol`` is gone: each call that took one, on exact and
    formerly integrated drivers alike, rejects it as an unexpected argument.  The tests keep
    their names from when ``tol`` was validated."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
    def test_bad_tolerance_is_a_validation_error(self, call, tol):
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            call(AtomPath([0.0, 2.0], [0.0, 1.0]), tol)

    def test_bad_tolerance_on_an_integrated_driver_does_not_hang(self):
        # a NaN tolerance once left an integrated solve stepping forever: run the calls on
        # the semicircle family in a subprocess whose timeout fails the test
        tests, src = Path(__file__).resolve().parent, Path(flows.__file__).resolve().parents[1]
        script = ("import sys; sys.path[:0] = sys.argv[1:]; from test_flows import *; "
                  "print(*bad_tolerance_errors(SemicircleFamily()), sep='\\n')")
        done = subprocess.run([sys.executable, "-c", script, str(tests), str(src)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == len(TOL_CALLS) * len(BAD_TOLS)
        assert all(line.startswith("TypeError: ") and "'tol'" in line for line in lines)


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

    @pytest.mark.parametrize("z", [-3e11 + 1j, 2e12 + 10j, -1e14 + 0.5j])
    def test_far_start_round_trips(self, z):
        # the round trip is checked relative to max(1, |z|): an absolute 1e-6 sits below
        # the rounding of |z| = 1e14
        d = sle_driving(2.0, 1 / 64, 1.0, 1)
        w = inverse_map(d, 1.0, z)
        assert w.imag >= z.imag
        assert abs(flow_forward(d, w, 1.0).value - z) <= 1e-14 * abs(z)

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

    def test_shifted_segment(self):
        d = AtomPath([0.0, 1.0], [1.0, 1.0])
        tr = trace(d, [0.25])
        assert tr.points[0] == pytest.approx(1.0 + 1j * math.sqrt(0.5), abs=1e-6)

    def test_needs_atom_path(self):
        with pytest.raises(ValidationError):
            trace(D0, [0.5])

    @pytest.mark.parametrize("t", [1.0, 1.0 - 1e-9], ids=["end", "before-end"])
    def test_winding_tip_is_exact(self, t):
        # the trace winds into its endpoint, and the tip after the driver's shortest pieces
        # is still one exact reverse solve
        d = sqrt_driver(2.7)
        want = tip_oracle(d, t)
        assert abs(trace(d, [t]).points[0] - want) <= 1e-13 * abs(want)


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

    @pytest.mark.parametrize("times, values", [([0.0, 2.0], [0.0, 2e160]),
                                               ([0.0, 1.0, 1.0 + 2.0 ** -52], [0.0, 1.0, 1e150])],
                             ids=["steep-line", "short-jump"])
    def test_atom_path_refuses_a_piece_whose_map_overflows(self, times, values):
        # slope**2 * span overflowed in the piece's map, which wrote NaN with alive = 1
        with pytest.raises(ValidationError, match=f"piece {len(times) - 2} .* overflows"):
            AtomPath(times, values)
        assert AtomPath([0.0, 2.0], [0.0, 2e153]).horizon == 2.0  # slope**2 * span stays finite

    @pytest.mark.parametrize("argv", [["flow", "--z", "1+1i", "--T", "1", "--steps", "1"],
                                      ["family", "--semantics", "free", "--t", "1", "--z", "1i"],
                                      ["trace", "--T", "1", "--steps", "2"],
                                      ["welding", "--T", "1", "--pairs", "2"]],
                             ids=["flow", "family", "trace", "welding"])
    def test_a_steep_line_driver_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run(argv + ["--driver", "line:0:1e160", "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err and not out.exists()

    def test_u_reads_the_line_table(self):
        # exact at the knots and at the horizon; past either end the end piece extends
        d = AtomPath([0.0, 1.0, 3.0], [0.5, 1.5, -0.5])
        assert [d.u(t) for t in (0.0, 0.25, 1.0, 2.0, 3.0)] == [0.5, 0.75, 1.5, 0.5, -0.5]
        assert (d.u(-1.0), d.u(4.0)) == (-0.5, -1.5)

    def test_measure_path_validation(self):
        with pytest.raises(ValidationError):
            MeasurePath((0.0, 1.0), (Dirac(0.0),))
        with pytest.raises(ValidationError):
            MeasurePath((0.5,), (Dirac(0.0),))

    def test_measure_path_lookup(self):
        # a time reads the piece that holds it, the last one on past its breakpoint; a walk
        # there maps as the constant driver of that piece's point mass
        d = two_step_driver(-1.0, 1.0)
        assert not hasattr(d, "cauchy")
        assert d.knots == (0.0, 0.5) and d._lines == ((0.0, -1.0, 0.0), (0.0, 1.0, 0.0))
        for t, m in ((0.2, Dirac(-1.0)), (0.5, Dirac(1.0)), (9.0, Dirac(1.0))):
            assert d.measures[flows._piece_at(d, t)] == m
            want = flow_reverse(constant_driver(m.location), 0.0, (t + 0.25) - t, 2j)
            assert flow_reverse(d, t, t + 0.25, 2j) == want

    @pytest.mark.parametrize("obj, want", [
        ({"kind": "atom-path", "times": [0.0, 0.5, 1.0], "values": [0.0, 1.0, -1.0]},
         AtomPath([0.0, 0.5, 1.0], [0.0, 1.0, -1.0])),
        ({"kind": "measure-path", "breakpoints": [0.0, 0.5],
          "measures": [{"kind": "dirac", "location": 0.0}, {"kind": "dirac", "location": 1.0}]},
         two_step_driver(0.0, 1.0)),
        ({"kind": "measure-path", "breakpoints": [0.0],
          "measures": [{"kind": "arcsine", "var": 1.0}]}, MeasurePath((0.0,), (Arcsine(1.0),))),
        ({"kind": "semicircle-family"}, SemicircleFamily()),
    ], ids=["atom-path", "dirac-path", "arcsine-path", "semicircle-family"])
    def test_description_reads_every_kind(self, obj, want):
        d = driving_from_dict(obj)
        assert type(d) is type(want) and not hasattr(d, "cauchy")
        assert d.knots == want.knots and d._lines == want._lines
        if isinstance(d, AtomPath):
            assert np.array_equal(d.times, want.times) and np.array_equal(d.values, want.values)
        if isinstance(d, MeasurePath):
            assert d.measures == want.measures
        assert flow_reverse(d, 0.3, 0.9, 2j) == flow_reverse(want, 0.3, 0.9, 2j)

    @pytest.mark.parametrize("d", [
        MeasurePath((0.0, 0.4, 0.9), (Dirac(-1.0), Semicircle(0.5), Arcsine(1.0))),
        SemicircleFamily(),
    ], ids=["measure-path", "semicircle-family"])
    def test_piece_matches_cauchy_inside(self, d):
        # inside each piece a walk maps by the law the driver holds there: a measure path's
        # piece as the driver of that one law, and the family's f_t as F of Semicircle(t)
        assert not hasattr(d, "piece") and not hasattr(d, "cauchy")
        knots = list(d.knots) + [d.knots[-1] + 1.0]
        for j, (lo, hi) in enumerate(zip(knots, knots[1:])):
            for frac in (0.1, 0.5, 0.9):
                t, end = lo + frac * (hi - lo), lo + 0.95 * (hi - lo)
                for z in (2j, 0.3 + 0.1j):
                    if isinstance(d, MeasurePath):
                        alone = MeasurePath((0.0,), (d.measures[j],))
                        assert flow_reverse(d, t, end, z) == flow_reverse(alone, 0.0, end - t, z)
                    else:
                        want = 1.0 / cauchy(Semicircle(t))(z)
                        assert inverse_map(d, t, z, check=False) == pytest.approx(want, rel=1e-15)

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
        ({"kind": "atom-path", "times": [0.0, 1.0]}, "values"),
        ({"kind": "measure-path", "breakpoints": "ab",
          "measures": [{"kind": "dirac", "location": 0.0}]}, "breakpoints"),
        ({"kind": "measure-path", "breakpoints": [0.0], "measures": 5}, "measures"),
    ], ids=["not-a-mapping", "no-times", "times-string", "values-not-numeric",
            "no-measures", "breakpoints-number", "no-values", "breakpoints-string",
            "measures-number"])
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
        # a scalar start over a semicircle or arcsine piece, or the family's quartic, runs as
        # one lane, and a lane's steps read no other lane: the same bits alone and among 40
        # others (the family's anti-monotone closed form has a cmath route for scalars)
        laws = MeasurePath((0.0, 0.3, 0.6), (Semicircle(0.7, 0.2), Arcsine(1.1, -0.3),
                                             Semicircle(0.05, 1.0)))
        starts = np.array([complex(rng.uniform(-2, 2), 10 ** rng.uniform(-3, 0.5))
                           for _ in range(40)])
        for d, flow in ((laws, flow_reverse), (laws, flow_reverse_anti),
                        (SemicircleFamily(), flow_reverse)):
            lanes = flow(d, 0.1, 0.9, starts)
            assert all(flow(d, 0.1, 0.9, complex(z)) == lane for z, lane in zip(starts, lanes))

    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_array_start_below_axis_rejected(self, flow):
        for bad in (np.array([1j, 2.0 + 0j]), np.array([1j, 0.5 - 1e-9j])):
            with pytest.raises(ValidationError):
                flow(D0, 0.0, 1.0, bad)


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


def reverse_oracle(d, s, t, z, anti=False):
    """``phi_{s,t}(z)`` of the reverse flow (or the anti-monotone one, which runs the pieces
    from ``t`` down to ``s``), piece by piece in the frame of the driver:
    ``w w' = -1 - a w`` with ``a`` the driver's rate in the direction of integration."""
    with mp.workdps(30):
        edges = [s] + [k for k in d.knots if s < k < t] + [t]
        pieces = list(zip(edges, edges[1:]))
        y = mp.mpc(z)
        for lo, hi in pieces[::-1] if anti else pieces:
            a = -line_of(d, lo, hi) if anti else line_of(d, lo, hi)
            w = taylor_solve(y - d.u(hi if anti else lo), 0, hi - lo, c0=-1, d0=-a)
            y = w + d.u(lo if anti else hi)
        return complex(y)


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

#: three sloped pieces as steep as those of a kappa = 2, dt = 1/64 SLE path (|slope| 9.6-11.5)
STEEP_PIECES = AtomPath([0.0, 1 / 64, 2 / 64, 3 / 64], [0.0, 0.15, -0.03, 0.13])


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

    @pytest.mark.parametrize("d, t", [
        (AtomPath([0.0, 0.4, 1.0], [0.0, 0.5, -0.2]), 0.7),
        (AtomPath([0.0, 2.0], [0.0, 2.0]), 1.0),
        (THREE_PIECES, 0.45), (THREE_PIECES, 1.0), (STEEP_PIECES, 3 / 64),
        (REST_THEN_SLOPE, 0.75),
    ], ids=["two-piece-inside", "line-0-1", "three-pieces-inside", "three-pieces-end", "steep",
            "rest-then-slope"])
    def test_exact_trace_tip(self, d, t):
        # one exact map per piece from the boundary point U(t): only rounding is left
        tr = trace(d, [t])
        want = tip_oracle(d, t)
        assert abs(tr.points[0] - want) <= 1e-13 * abs(want)

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

    def test_semicircle_forward_is_joukowski(self):
        # over the semicircle family g_t(z) = z + t/z, so Im g_t = y (1 - t/|z|**2) and
        # a point dies at |z|**2 (1 - EPS_SWALLOW/y)
        d, big_t = SemicircleFamily(), 1.0
        for z in (2j, 1 + 1j, -1.5 + 0.5j, 0.3 + 1.2j):
            fp = flow_forward(d, z, big_t)
            assert fp.alive and abs(fp.value - (z + big_t / z)) < 1e-12 * abs(fp.value)
        for z in (0.5j, 0.3 + 0.4j, -0.6 + 0.6j, 0.2 + 0.9j, 0.9 + 0.05j):
            fp = flow_forward(d, z, big_t)
            want = abs(z) ** 2 * (1.0 - flows.EPS_SWALLOW / z.imag)
            assert not fp.alive and fp.value.imag == flows.EPS_SWALLOW
            assert abs(fp.lifetime - want) < 1e-12

    def test_sle_swallowed_values_lie_on_the_line(self):
        # kappa = 6: every piece slopes, so every crossing is the closed form of _crossing
        d = sle_driving(6.0, 1.0 / 64.0, 1.0, 1)
        starts = [complex(x, y) for x in np.linspace(-1.5, 1.5, 13) for y in (0.05, 0.2, 0.5)]
        swallowed = [fp for fp in (flow_forward(d, z, 1.0) for z in starts) if not fp.alive]
        assert len(swallowed) >= 10
        for fp in swallowed:
            assert fp.value.imag == flows.EPS_SWALLOW and 0.0 < fp.lifetime <= 1.0

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

    def test_lifetime_just_above_the_line(self):
        # 0.5 (x**2 - eps**2 - Re w**2) with x = Re w Im w / eps cancelled to 1.5e-9 here
        z = 1 + 1.0000001e-6j
        fp = flow_forward(D0, z, 10.0)
        want = swallow_oracle(z, [(0.0, 10.0)])
        assert not fp.alive and abs(fp.lifetime - want) <= 1e-15 * want

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
    def test_survivors_take_the_exact_map(self, rng, path):
        d = path(rng)
        ends = tuple(t for t in d.knots if t < 1.0) + (1.0,)
        pieces = [(d.measures[j].location if isinstance(d, MeasurePath) else d.u(lo), hi - lo)
                  for j, (lo, hi) in enumerate(zip(ends, ends[1:]))]
        starts = [2j, 1.5 + 2j, -1 + 1.5j, 3 + 0.5j, -3 + 1e-3j, 0.3 + 3j]
        points = [flow_forward(d, z, 1.0) for z in starts]
        for z, fp in zip(starts, points):
            want = z
            for u, span in pieces:
                want = u + root_upper((want - u) ** 2 + 2.0 * span)
            assert fp.alive and fp.value == want

    def test_swallowed_lifetimes_integrate_nothing(self):
        starts = [complex(0.0, y) for y in np.linspace(0.2, 1.4, 50)]
        points = [flow_forward(D0, z, 1.0) for z in starts]
        assert not any(fp.alive for fp in points)

    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["monotone", "anti-monotone"])
    def test_dirac_path_integrates_nothing(self, rng, flow):
        d = dirac_path(rng)
        got = flow(d, 0.0, 1.0, LANE_STARTS)
        want = np.array([flow(d, 0.0, 1.0, complex(z)) for z in LANE_STARTS])
        # numpy's complex product differs from Python's by an ulp in a quarter of cases;
        # 64 maps amplify that to 6e-14 at the starts 1e-3 above the line
        assert float(np.max(np.abs(got - want) / np.abs(want))) < 1e-13

    def test_inverse_map_integrates_nothing(self):
        w = inverse_map(D0, 1.0, 0.3 + 1e-3j, check=False)
        assert w == pytest.approx(const_map(0.0, 1.0)(0.3 + 1e-3j), rel=1e-15)
        # the round-trip check flows forward over the same resting piece
        w = inverse_map(D0, 1.0, 0.3 + 0.5j)
        assert w == pytest.approx(const_map(0.0, 1.0)(0.3 + 0.5j), rel=1e-15)

    def test_trace_tip_integrates_nothing(self):
        times = [0.0, 0.25, 0.5, 1.0]
        d = AtomPath([0.0, 2.0], [0.3, 0.3])
        tr = trace(d, times)
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
    # |a s| an ulp below the direct form's 1/4 and on it, for both signs of a
    @example((0.24999999999999997, 1.0, 0.5))
    @example((0.25, 1.0, 0.5))
    @example((0.24999999999999997, -1.0, 0.5))
    @example((0.25, -1.0, 0.5))
    @example((1.0, 2.0, 0.1))  # past 1/a: p < 0, s falls towards 1/a
    @example((0.3, -4.0, 0.7))  # ends with L = 1.94 > 1, by the direct form
    def test_solves_the_implicit_equation(self, start):
        s0, a, span = start
        s1 = flows._shot_piece(s0, a, span)
        # s0's rounding carries to s1 with gain (p_1 s0)/(p_0 s1), about 1 near 1/a
        assert abs(mp.mpf(s1) - shot_piece_oracle(s0, a, span)) <= 4 * math.ulp(max(s0, s1))
        with mp.workdps(40):  # s1 stays on s0's side of 1/a, or rounds onto it
            p0, p1 = 1 - mp.mpf(a) * s0, 1 - mp.mpf(a) * s1
            assert p0 * p1 >= 0 or abs(p1) <= 2.0 ** -52

    def test_series_only_where_the_direct_form_cancels(self, monkeypatch):
        # the expm1 series serves pieces with |a s| < 1/4 only: 544 calls here, where
        # summing it at every Newton step of every piece made 4,596
        calls = 0
        tail = flows._expm1_tail

        def counted(x):
            nonlocal calls
            calls += 1
            return tail(x)

        monkeypatch.setattr(flows, "_expm1_tail", counted)
        welding(sle_driving(2.0, 1.0 / 64.0, 0.5, 1), 0.5, npairs=5)
        assert 0 < calls <= 1000

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


#: a start next to the driver whose true image the resting map's Newton start misses: from
#: there Newton converged to 0.0956 - 0.0075i, below the axis
FOLD = (-0.1064945412133041 + 0.0004220645311343067j, 8.331882408798553)


def piece_oracle(w0, a, span):
    """``w`` after ``span`` of ``w w' = -1 - a w`` from ``w0``: one reverse-flow piece in the
    frame of a point mass moving at rate ``a``."""
    with mp.workdps(30):
        return complex(taylor_solve(w0, 0, span, c0=-1, d0=-a))


class TestSlopedPieces:
    """A sloped point mass maps exactly under the reverse flows, through the Wright omega
    function: no integration step, and the 30-digit oracle's value within 1e-12."""

    @pytest.mark.parametrize("d, t, xs", [(THREE_PIECES, 1.0, (-0.1, 0.4)),
                                          (STEEP_PIECES, 3 / 64, (-0.6, -0.1, 0.05))],
                             ids=["three-pieces", "steep"])
    @pytest.mark.parametrize("anti", [False, True], ids=["monotone", "anti-monotone"])
    def test_matches_the_oracle(self, d, t, xs, anti):
        # each path has slopes of both signs, and runs the other way anti-monotone
        flow = flow_reverse_anti if anti else flow_reverse
        zs = np.array([complex(x, h) for h in (1e-2, 1e-6) for x in xs])
        (lanes, points) = ((
            flow(d, 0.0, t, zs), [flow(d, 0.0, t, complex(z)) for z in zs]))
        for z, lane, point in zip(zs, lanes, points):
            want = reverse_oracle(d, 0.0, t, z, anti)
            assert abs(point - want) <= 1e-12 * abs(want)
            assert abs(lane - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("anti", [False, True], ids=["monotone", "anti-monotone"])
    def test_points_near_the_axis_keep_their_imaginary_digits(self, anti):
        # the flow is real on the axis off the hull, so Im phi(x + i eps)/eps is phi'(x)
        # to within eps**2: the same for every tiny eps, on either side of the driver
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 3)
        flow = flow_reverse_anti if anti else flow_reverse
        for x in (-3.0, 3.0):
            zs = x + 1j * np.array([1e-20, 1e-100, 1e-300])
            for got in (flow(d, 0.0, 1.0, zs), [flow(d, 0.0, 1.0, complex(z)) for z in zs]):
                got = np.asarray(got)
                assert np.allclose(got.real, got.real[0], rtol=1e-15, atol=0.0)
                assert np.allclose(got.imag / zs.imag, got.imag[0] / zs.imag[0],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("w0, a", [
        FOLD,
        # next to the stagnation point w = -1/a, where the offset does not move
        (-1 / FOLD[1] + 1e-9 + 1e-6j, FOLD[1]),
        (-1 / FOLD[1] - 1e-3 + 1e-3j, FOLD[1]),
        # slopes down to where the map is the resting one: the branch-point series starts
        (0.3 + 0.01j, 1e-2), (0.3 + 0.01j, 1e-3), (0.3 + 0.01j, 1e-6), (0.3 + 0.01j, 1e-9),
        (0.3 + 0.01j, 1e-12),
        (1e-6j, 12.0), (2.5 + 1e-6j, 12.0), (-2.5 + 1e-6j, 12.0),
    ])
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["rising", "falling"])
    def test_single_piece(self, w0, a, side):
        # a falling driver maps the mirror image w -> -conj(w)
        w0 = w0 if side > 0 else -w0.conjugate()
        want = piece_oracle(w0, side * a, 1 / 64)
        line = (0.0, 0.0, side * a)  # U(tau) = slope tau, so y = w at tau = 0
        got = flows._atom_piece(w0, line, 0.0, 1 / 64, 1.0) - side * a / 64
        lane = flows._atom_piece(np.array([w0]), line, 0.0, 1 / 64, 1.0)[0] - side * a / 64
        assert abs(got - want) <= 1e-12 * abs(want) and abs(lane - want) <= 1e-12 * abs(want)

    def test_fold_lands_above_the_axis(self):
        w0, a = FOLD
        got = flows._atom_piece(w0, (0.0, 0.0, a), 0.0, 1 / 64, 1.0) - a / 64
        assert abs(got - (-0.0621894 + 0.0030947j)) < 1e-7

    @pytest.mark.parametrize("w0", [0.3 + 0.01j, 1e-6j, -2.0 + 1e-3j])
    def test_negligible_slope_keeps_the_resting_bits(self, w0):
        rest = flows._atom_piece(w0, (0.0, 0.0, 0.0), 0.0, 1 / 64, 1.0)
        for a in (1e-300, -1e-300):
            assert flows._atom_piece(w0, (0.0, 0.0, a), 0.0, 1 / 64, 1.0) == rest
            lanes = flows._atom_piece(np.array([w0, w0]), (0.0, 0.0, a), 0.0, 1 / 64, 1.0)
            assert np.all(lanes == flows._atom_piece(np.array([w0, w0]), (0.0, 0.0, 0.0),
                                                     0.0, 1 / 64, 1.0))

    def test_log1p_tail(self, rng):
        # by its series below |x| = 1/4, by the log above it, and i pi less left of
        # 1 + x = 0, where that keeps the digits of a small imaginary part
        xs = 10 ** rng.uniform(-15, 0.5, 400) * np.exp(1j * rng.uniform(0, math.pi, 400))
        xs[::4] = rng.uniform(-4, 4, 100) + 1j * 10 ** rng.uniform(-250, -1, 100)
        left = xs.real < -1.0
        with mp.workdps(40):
            want = np.array([complex((mp.log(-1 - mp.mpc(x)) if lf else mp.log1p(mp.mpc(x)))
                                     - mp.mpc(x)) for x, lf in zip(xs, left)])
        got = np.array([flows._log1p_tail(complex(x), bool(lf)) for x, lf in zip(xs, left)])
        for value in (got, flows._log1p_tail(xs, left)):
            assert float(np.max(np.abs(value - want) / np.abs(want))) < 1e-14
            assert float(np.max(np.abs(value.imag - want.imag) / np.abs(want.imag))) < 1e-14


def crossing_oracle(z, s, guess):
    """``(lifetime, value)`` of ``z`` under the forward flow of ``U(t) = s t``: Newton steps
    from ``guess`` on ``Im w = EPS_SWALLOW`` along ``w w' = 1 - s w``, which ``taylor_solve``
    runs forward or backward at 30 digits; ``d Im w/dt = -Im w/|w|**2``.

    It is itself off near the driver: from ``z = 1.0828908724048943e-4 + 8.971282641393825e-6j``
    at slope -12.979384554764835 its lifetime is 7.8e-13 relative off a 50-digit closed form,
    at 30 and at 40 digits alike.  So tests of starts near the driver compare against the
    closed form (``TestFarCrossings``) instead."""
    with mp.workdps(30):
        tau = mp.mpf(guess)
        w = taylor_solve(z, 0, tau, c0=1, d0=-s)
        for _ in range(3):
            step = (w.imag - flows.EPS_SWALLOW) * abs(w) ** 2 / w.imag
            w = taylor_solve(w, 0, abs(step), c0=1 if step > 0 else -1, d0=-s if step > 0 else s)
            tau += step
        return float(tau), complex(w + s * tau)


class TestForwardPieces:
    """A point-mass piece maps a forward flow exactly too: survivors through the reverse map
    run backwards, and a crossing of ``Im g = EPS_SWALLOW`` in closed form."""

    @pytest.mark.parametrize("d, t, starts", [
        (THREE_PIECES, 1.0, (-0.5 + 0.4j, 0.3 + 1.2j, 1.5 + 0.1j)),
        (STEEP_PIECES, 3 / 64, (-0.6 + 0.05j, 0.05 + 0.2j, 2j)),
        (REST_THEN_SLOPE, 1.0, (-1.0 + 0.3j, 0.3 + 1.2j)),
    ], ids=["three-pieces", "steep", "rest-then-slope"])
    def test_survivors_match_the_oracle(self, d, t, starts):
        points = [flow_forward(d, z, t) for z in starts]
        for z, fp in zip(starts, points):
            want = forward_oracle(d, z, t)
            assert fp.alive and abs(fp.value - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("slope", [4.0, -4.0], ids=["rising", "falling"])
    @pytest.mark.parametrize("x, angle, life_tol, value_tol", [
        (50.0, 0.0, 1e-13, 1e-12), (-50.0, math.pi, 1e-13, 1e-12),
        # next to the slit a change of Im k moves the crossing point by 1/(|slope| eps)
        # times as much: one ulp of Im x = 0.55 at the start moves it by 8e-12 here, and a
        # one-ulp change of the start by up to 1.5e-12
        (0.1, 0.0, 1e-12, 2e-11),
        # 1 + x = 1e-5 + 4e-6 i: a log of 1 + x formed from x would lose 11 digits of its
        # modulus, where m (cot p + i) keeps them all
        (-0.99999, 0.38, 1e-13, 1e-12),
    ], ids=["far-right", "far-left", "next-to-the-slit", "next-to-the-stagnation-point"])
    def test_crossing_matches_the_oracle(self, slope, x, angle, life_tol, value_tol):
        # the start lies 0.01 before a crossing at x/|slope| from the driver, on the side
        # where the reflected frame x = |slope| w has Re x = x, at arg(1 + x) = angle
        a, eps = abs(slope), flows.EPS_SWALLOW
        w = complex(x / a if slope < 0 else -x / a, eps)
        assert abs(cmath.phase(1 + x + 1j * a * eps) - angle) < 1e-2
        with mp.workdps(30):
            z = complex(taylor_solve(w, 0, 0.01, c0=-1, d0=slope))
        life, value = crossing_oracle(z, slope, 0.01)
        fp = flow_forward(AtomPath([0.0, 1.0], [0.0, slope]), z, 1.0)
        assert not fp.alive and fp.value.imag == eps
        assert abs(fp.lifetime - life) < life_tol
        assert abs(fp.value - value) < value_tol

    @pytest.mark.parametrize("z, slope", [
        (1 + 1.0000001e-6j, 1.0),  # 1 + x* lies next to the stagnation point
        # reflected, |x| = 200 on either side: arg(1 + x*) next to 0 and next to pi
        (50 + 1.0000001e-6j, 4.0), (-50 + 1.0000001e-6j, 4.0),
        (50 + 1.0000001e-6j, -4.0), (-50 + 1.0000001e-6j, -4.0),
    ])
    def test_short_crossing_keeps_its_digits(self, z, slope):
        # the start lies 1e-13 above the line: the two k agree to 5-8 digits, which their
        # difference would lose; the resting lifetime seeds the oracle
        eps = flows.EPS_SWALLOW
        guess = 0.5 * (z.imag - eps) * (z.imag + eps) * (1.0 + (z.real / eps) ** 2)
        life, value = crossing_oracle(z, slope, guess)
        fp = flow_forward(AtomPath([0.0, 1.0], [0.0, slope]), z, 1.0)
        assert not fp.alive and fp.value.imag == eps
        assert abs(fp.lifetime - life) <= 1e-13 * life
        assert abs(fp.value - value) <= 1e-13 * abs(value)

    @pytest.mark.parametrize("z, slope, t", [
        (0.1127 + 2.84e-6j, -2.29e-17, 0.00666), (0.0019 + 0.0342j, 8.25e-20, 0.00114),
        (2.768 + 1.0007e-6j, -7.04e-15, 0.0129), (0.7238 + 1.235e-6j, -1.64e-16, 0.39),
    ])
    def test_tiny_slope_crosses_where_the_resting_piece_does(self, z, slope, t):
        # the slope moves the point by less than 1e-12 of itself, so the resting map decides;
        # a difference of the two k formed at |x| < 1e-13 would keep no digit of the lifetime
        fp = flow_forward(AtomPath([0.0, t], [0.0, slope * t]), z, t)
        rest = flow_forward(AtomPath([0.0, t], [0.0, 0.0]), z, t)
        assert fp.alive == rest.alive
        assert abs(fp.lifetime - rest.lifetime) <= 1e-12 * rest.lifetime or fp.alive
        assert abs(fp.value - rest.value) <= 1e-12 * abs(rest.value)

    @pytest.mark.parametrize("slope", [1e-300, -1e-300])
    def test_negligible_slope_keeps_the_resting_crossing(self, slope):
        # x = |slope| w would underflow: the crossing is the resting one
        for z in (1e-7 + 1.2j, -3e-7 + 0.9j):
            fp = flow_forward(AtomPath([0.0, 1.0], [0.0, slope]), z, 1.0)
            assert not fp.alive and fp == flow_forward(AtomPath([0.0, 1.0], [0.0, 0.0]), z, 1.0)


class TestWrightOmega:
    """The port of Algorithm 917, ``omega(zeta)`` for ``Im zeta < 0``, given ``zeta`` and
    ``zeta + i pi``: its start and one Fritsch-Shafer-Crowley step, which :func:`_sloped`
    follows by a Newton step in ``x``.  A second step, applied here, reaches the last bits,
    so the starts and the step are checked to 1e-13."""

    def test_matches_scipy(self):
        from scipy.special import wrightomega

        rng = np.random.Generator(np.random.Philox(key=917))
        n = 4000
        zeta = np.concatenate([
            rng.uniform(-40, 40, n) - 1j * rng.uniform(0, 3 * math.pi, n),
            # just above the cut Im zeta = -pi, Re zeta <= -1
            -rng.uniform(1, 30, n) + 1j * (-math.pi + 10 ** rng.uniform(-15, -1, n)),
            # about the branch point -1 - i pi
            rng.uniform(-3, 1, n) + 1j * (-math.pi + rng.uniform(-0.5, 0.5, n)),
            10 ** rng.uniform(0, 15, n) * np.exp(-1j * rng.uniform(0, math.pi, n))])
        want = wrightomega(zeta)
        c = zeta + 1j * math.pi  # exact where Im zeta is within a factor 2 of -pi
        w = flows._wright_omega_lanes(zeta, c)
        assert float(np.max(np.abs(w - want) / np.abs(want))) < 1e-6
        left = w.real < 0.0
        w = flows._fsc_step(w, np.where(left, c, zeta) - w - np.log(np.where(left, -w, w)))
        assert float(np.max(np.abs(w - want) / np.abs(want))) < 1e-13


class TestFarCrossings:
    """A crossing that lands far from the driver keeps its digits: ``p = Im k + m`` would
    cancel there, so it is formed from ``arg(1 + x)`` and ``|slope| (Im w - EPS_SWALLOW)``."""

    @pytest.mark.parametrize("x, slope", [(5.693105218290642, -73.59274911771631),
                                          (-5.693105218290642, 73.59274911771631),
                                          (-5.693105218290642, -73.59274911771631),
                                          (5.693105218290642, 73.59274911771631)],
                             ids=["right-falling", "right-rising", "left-falling", "left-rising"])
    def test_matches_the_closed_form(self, x, slope):
        # Im k = -7.3469e-5 against m = 7.3593e-5 left 1.2e-7 and 4.2e-13 of the lifetime
        # (1.0e-13 on the left); the closed form itself, at 50 digits, is the oracle
        z = complex(x, 1.0006956978071457e-06)
        with mp.workdps(50):
            a, w = abs(mp.mpf(slope)), mp.mpc(z)
            xa = a * (-mp.conj(w) if slope > 0 else w)
            k = mp.log(1 + xa) - xa
            m = a * flows.EPS_SWALLOW
            x_star = m * (mp.cot(k.imag + m) + 1j) - 1
            life = (k.real - (mp.log(1 + x_star) - x_star).real) / a ** 2
            value = slope * life + (-x_star.real if slope > 0 else x_star.real) / a
        fp = flow_forward(AtomPath([0.0, 1.0], [0.0, slope]), z, 1.0)
        assert not fp.alive and fp.value.imag == flows.EPS_SWALLOW
        assert abs(fp.lifetime - float(life)) <= 1e-15 * float(life)
        assert abs(fp.value.real - float(value)) <= 1e-15 * abs(float(value))


def closed_form_piece(w, rate, span):
    """``w`` after ``span`` (of either sign) of ``dw/dtau = -(1 + rate w)/w`` at the working
    precision: resting, the arcsine root; else in ``x = |rate| w`` (``w -> -conj(w)`` if
    ``rate < 0``) ``log1p(x) - x`` grows by ``rate**2 span``, and
    ``x_1 = -1 - omega(k - 1 - i pi)``, ``omega(z) = W_K(e**z)`` on mpmath's Lambert W branch
    ``K = ceil((Im z - pi)/(2 pi))`` -- a route apart from Algorithm 917's."""
    if rate == 0:
        root = mp.sqrt(w * w - 2 * span)
        return root if root.imag >= 0 else -root
    a = abs(rate)
    x = a * (-mp.conj(w) if rate < 0 else w)
    z = mp.log(1 + x) - x + a * a * span - 1 - 1j * mp.pi
    x1 = -1 - mp.lambertw(mp.exp(z), int(mp.ceil((z.imag - mp.pi) / (2 * mp.pi))))
    return -mp.conj(x1 / a) if rate < 0 else x1 / a


def omega_route(w, rate, span):
    """``(route, left)`` the library's piece map takes from offset ``w``: the start region of
    Algorithm 917 (far, wing, branch, mushroom, between), or the branch-point series, and
    whether ``w`` lies left of the stagnation point in the piece's reflected frame."""
    a = abs(rate)
    x = a * (-w.conjugate() if rate < 0 else w)
    left = x.real < -1.0
    k = (cmath.log(-1 - x) if left else cmath.log(1 + x)) - x + a * a * span
    if not left and abs(k) < 2.0 ** -20:
        return "series", left
    zeta = k - 1 if left else k - 1 - 1j * math.pi
    zr, zi, ci = zeta.real, zeta.imag, zeta.imag + math.pi
    if -2 < zr <= 1 and -2 * math.pi < zi < -1:
        return "branch", left
    if zr <= -2 and 0 < ci:
        return "between", left
    if -2 < zr and (-1 <= zi if zr <= 1 else (zr - 1) ** 2 + zi ** 2 <= math.pi ** 2):
        return "mushroom", left
    return ("wing" if zr <= -1.05 and 0.75 * (zr + 1) < ci else "far"), left


def walk_oracle(d, z, sense, routes):
    """The monotone (``sense = 0``), anti-monotone (1) or forward (2) flow of ``z`` over all of
    ``d`` at 40 digits, each piece in closed form; appends each piece's route to ``routes``."""
    with mp.workdps(40):
        ts, us = [mp.mpf(t) for t in d.knots], [mp.mpf(u) for u in d.values.tolist()]
        pieces = list(zip(ts, ts[1:], us, us[1:]))
        y = mp.mpc(z)
        for t0, t1, u0, u1 in pieces[::-1] if sense == 1 else pieces:
            rate, h = (u1 - u0) / (t1 - t0), t1 - t0
            w, rate, span = [(y - u0, rate, h), (y - u1, -rate, h), (y - u0, -rate, -h)][sense]
            routes.append(omega_route(complex(w), float(rate), float(span)) + (rate > 0, sense))
            y = (u0 if sense == 1 else u1) + closed_form_piece(w, rate, span)
        return complex(y)


class TestSlopedPieceFuzz:
    """Seeded sloped pieces through the monotone, anti-monotone and forward walks, scalar and
    lanes, against the 40-digit closed form: every ``omega`` start region, the branch-point
    series, both sides of the stagnation point and both slope signs, within 1e-13."""

    def test_walks_match_the_closed_form(self):
        rng = np.random.Generator(np.random.Philox(key=24))
        routes, worst, compared = [], 0.0, [0, 0, 0]
        for kind in np.arange(520) % 5:
            # the start x of the piece's reflected frame and its growth rate**2 span
            angle = rng.uniform(0.01, math.pi - 0.01)
            x, grow = [
                (10 ** rng.uniform(-2, 3) * cmath.exp(1j * angle), 10 ** rng.uniform(-3, 2.5)),
                (rng.uniform(-30, 30) + 1j * 10 ** rng.uniform(-8, -2), 10 ** rng.uniform(-3, 1)),
                (-1 + 10 ** rng.uniform(-6, -1) * cmath.exp(1j * angle), 10 ** rng.uniform(-4, 1)),
                (10 ** rng.uniform(-5, -3.5) * cmath.exp(1j * angle), 10 ** rng.uniform(-9, -7)),
                (complex(rng.uniform(-1, 0), rng.uniform(0, 0.5)), rng.uniform(1, 5)),
            ][kind]
            slope = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 2)
            h = grow / slope ** 2 / 3
            for sense, flow in enumerate([flow_reverse, flow_reverse_anti, None]):
                # one line in three pieces, the walks take the middle one from the table; it
                # passes 0 where the walk starts, so that the start's offset w is exact
                us = np.array([0.0, 1.0, 2.0, 3.0]) - (3.0 if sense == 1 else 0.0)
                d = AtomPath([0.0, h, 2 * h, 3 * h], slope * h * us)
                rate = -slope if sense else slope
                z = x / abs(slope) if rate > 0 else -(x / abs(slope)).conjugate()
                want = walk_oracle(d, z, sense, routes)
                if flow is None:
                    fp = flow_forward(d, z, d.horizon)
                    got = [fp.value] if fp.alive else []
                else:
                    lanes = flow(d, 0.0, d.horizon, np.array([z, 1j]))
                    got = [flow(d, 0.0, d.horizon, z), lanes[0]]
                for value in got:
                    worst = max(worst, abs(value - want) / abs(want))
                compared[sense] += len(got)
        assert worst <= 1e-13 and min(compared) >= 300
        seen = collections.Counter(routes)
        count = lambda i, v: sum(n for key, n in seen.items() if key[i] == v)
        for route in ("far", "wing", "branch", "mushroom", "between", "series"):
            assert count(0, route) >= 20, route
        assert count(1, True) >= 200 and count(1, False) >= 200  # either side of Re x = -1
        assert count(2, True) >= 200 and count(2, False) >= 200  # either slope sign


class TestPieceTable:
    """A walk maps each whole sloped piece inside its window from the driver's table
    (``AtomPath._pieces``); only its two end segments form their constants from ``lo``/``hi``."""

    @pytest.mark.parametrize("t", [1.0, 0.9])
    @pytest.mark.parametrize("walk", ["monotone", "anti-monotone", "forward"])
    def test_only_the_end_segments_form_their_constants(self, monkeypatch, walk, t):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 3)
        ends, atom_piece = [], flows._atom_piece
        monkeypatch.setattr(flows, "_atom_piece", lambda *a: ends.append(a[2:4]) or atom_piece(*a))
        if walk == "forward":
            assert flow_forward(d, 3j, t).alive  # forward runs each piece backwards
            assert len(ends) == 2 and ends[0][0] == 0.0 and ends[1][1] == t
            return
        anti = walk == "anti-monotone"
        flow, first, last = (flow_reverse_anti, t, 0.1) if anti else (flow_reverse, 0.1, t)
        for z in (0.3 + 0.5j, np.array([0.3 + 0.5j, -1.0 + 1e-3j])):
            ends.clear()
            flow(d, 0.1, t, z)  # the anti-monotone walk runs down the driver's times
            assert len(ends) == 2 and ends[0][0] == first and ends[1][1] == last


# ---------------------------------------------------------------------------
# end-to-end runs over point masses

class TestStepCounts:
    """README lines and SLE solves over point-mass drivers run end to end with the values
    their closed forms give (the class is named for the integration steps it once counted)."""

    def test_readme_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["trace", "--driver", "const:0", "--T", "1", "--steps", "100",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] + 1j * rows[:, 2] == 1j * np.sqrt(2.0 * rows[:, 0]))

    def test_readme_flow(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        assert run(["flow", "--driver", "const:0", "--z", "2i", "--T", "1", "--steps", "50",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        want = 1j * np.sqrt(4.0 - 2.0 * rows[:, 0])  # sqrt(z**2 + 2 t) at z = 2i
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - want)) <= 1e-15

    def test_welding_five_pairs(self, tmp_path, capsys):
        out = tmp_path / "weld.csv"
        assert run(["welding", "--driver", "const:0", "--T", "1", "--pairs", "5",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (5, 2) and np.max(np.abs(rows[:, 1] + rows[:, 0])) < 1e-14

    def test_sle_welding(self):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)
        w = welding(d, 1.0, npairs=5)
        assert len(w.pairs) == 5 and all(w.a < x < w.u < h < w.b for x, h in w.pairs)

    def test_lifetimes(self):
        # 50 points swallowed on the imaginary axis and 10 that stay alive
        ys = np.linspace(0.2, 1.4, 50)
        starts = [complex(0.0, y) for y in ys] + [complex(1.0, y) for y in np.linspace(0.2, 1.4, 10)]
        points = [flow_forward(D0, z, 1.0) for z in starts]
        assert sum(not fp.alive for fp in points) == 50
        eps = flows.EPS_SWALLOW
        assert all(abs(fp.lifetime - 0.5 * (y - eps) * (y + eps)) <= 1e-15
                   for y, fp in zip(ys, points))

    def test_sle_trace(self):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)
        tr = trace(d, list(np.linspace(0.0, 1.0, 11)))
        assert tr.points[0] == d.u(0.0) and all(p.imag > 0 for p in tr.points[1:])

    def test_sloped_anti_monotone_solve_is_exact(self):
        # 64 pieces of an SLE path, each mapped exactly: only rounding parts it from the oracle
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 3)
        z = flow_reverse_anti(d, 0.0, 1.0, 0.3 + 0.1j)
        want = reverse_oracle(d, 0.0, 1.0, 0.3 + 0.1j, anti=True)
        assert abs(z - want) <= 1e-12 * abs(want)

    def test_sle_family_integrates_nothing(self):
        # per point, as the whole grid, and as the measure that inverts it
        fam = anti_monotone_family(sle_driving(2.0, 1.0 / 64.0, 1.0, 3))
        g = fam.cauchy_map(0.0, 1.0)
        zs = np.linspace(-3.0, 3.0, 20) + 1e-2j
        points = np.array([g(complex(z)) for z in zs])
        assert float(np.max(np.abs(g(zs) - points) / np.abs(points))) < 1e-12
        rec = fam.measure(0.0, 1.0, np.linspace(-3, 3, 301), 1e-2)
        assert rec.values.size == 301

    def test_inverse_map_on_an_atom_path_integrates_nothing(self):
        d = sle_driving(2.0, 1.0 / 64.0, 1.0, 1)
        w = inverse_map(d, 1.0, complex(d.u(1.0), 1e-3), check=False)
        assert w.imag > 0


class TestPointMassesIntegrateNothing:
    """Every solve over an SLE path (slopes of both signs) and a 64-piece Dirac path (resting
    pieces) runs: forward flows alive and swallowed, traces, round-tripped inverse maps and
    weldings."""

    @pytest.mark.parametrize("d", [sle_driving(2.0, 1.0 / 64.0, 1.0, 3),
                                   dirac_path(np.random.Generator(np.random.Philox(key=17)))],
                             ids=["atom-path", "dirac-path"])
    def test_no_step_is_taken(self, d):
        atoms = isinstance(d, AtomPath)
        # points of an SLE slit are swallowed when its tip passes them
        starts = ([complex(p) for p in trace(d, list(np.linspace(0.1, 0.9, 9))).points]
                  if atoms else [complex(x, 0.02) for x in np.linspace(-0.8, 0.8, 17)])
        starts += [complex(x, y) for x in np.linspace(-1.5, 1.5, 7) for y in (0.2, 1.0)]
        points = [flow_forward(d, z, 1.0) for z in starts]
        swallowed = [fp for fp in points if not fp.alive]
        assert len(swallowed) >= 5 and len(swallowed) < len(points)
        assert all(fp.value.imag == flows.EPS_SWALLOW for fp in swallowed)
        slopes = {d._lines[flows._piece_at(d, fp.lifetime)][2] for fp in swallowed}
        assert min(slopes) < 0.0 < max(slopes) if atoms else slopes == {0.0}
        for z in (0.3 + 0.5j, 2j):
            assert inverse_map(d, 1.0, z, check=True).imag > z.imag
        if atoms:
            assert len(trace(d, list(np.linspace(0.0, 1.0, 11))).points) == 11
            assert len(welding(d, 1.0, npairs=5).pairs) == 5


#: windows of THREE_PIECES that meet the knots: both ends on knots, s = t on a knot and
#: inside a piece, both ends inside one piece, t at the horizon, and two where ``(s + t) -
#: s`` rounds onto a knot (0.6, and 0.3 one ulp below t = 0.30000000000000004), which a walk
#: in the reflected time ``s + t - r`` would have to guard
WALK_WINDOWS = [(0.3, 0.6), (0.0, 0.3), (0.3, 0.3), (0.45, 0.45), (0.35, 0.55), (0.45, 1.0),
                (0.1, 0.6), (0.2, 0.30000000000000004)]


class TestTableWalk:
    """Solves over point masses walk the driver's tables and build no piece function."""

    @pytest.mark.parametrize("d", [sle_driving(2.0, 1.0 / 64.0, 1.0, 3),
                                   dirac_path(np.random.Generator(np.random.Philox(key=16)))],
                             ids=["atom-path", "dirac-path"])
    def test_point_mass_solves_build_no_piece(self, d):
        zs = np.array([0.3 + 1e-2j, -1.0 + 0.5j, 2j])
        calls = [
            lambda z: flow_reverse(d, 0.1, 0.9, z),
            lambda z: flow_reverse_anti(d, 0.1, 0.9, z),
            lambda z: anti_monotone_family(d).cauchy_map(0.0, 1.0)(z),
            lambda z: chain_approximation(d, 1.0 / 64.0, 64)(z),
        ]
        want = [[call(z) for z in (complex(zs[0]), zs)] for call in calls]
        inverse = inverse_map(d, 1.0, 0.3 + 1e-2j, check=False)

        assert not hasattr(AtomPath, "piece") and not hasattr(MeasurePath, "piece")
        for call, (scalar, lanes) in zip(calls, want):
            assert call(complex(zs[0])) == scalar and np.all(call(zs) == lanes)
        assert inverse_map(d, 1.0, 0.3 + 1e-2j, check=False) == inverse

    @pytest.mark.parametrize("s, t", WALK_WINDOWS)
    @pytest.mark.parametrize("anti", [False, True], ids=["monotone", "anti-monotone"])
    def test_window_edges_match_the_oracle(self, s, t, anti):
        flow = flow_reverse_anti if anti else flow_reverse
        zs = np.array([0.3 + 1e-2j, -0.4 + 0.5j])
        lanes = flow(THREE_PIECES, s, t, zs)
        for z, lane in zip(zs, lanes):
            point = flow(THREE_PIECES, s, t, complex(z))
            want = z if s == t else reverse_oracle(THREE_PIECES, s, t, z, anti)
            assert abs(point - want) <= 1e-12 * abs(want)
            assert abs(lane - want) <= 1e-12 * abs(want)


class TestFarStarts:
    """Past ``|w| = 1e154`` a resting piece maps ``w sqrt(1 -+ 2 dt/w**2)``, where
    ``(w - u)**2`` would overflow (it raised ``OverflowError``); a semicircle or arcsine piece
    maps as a resting point mass there."""

    def test_resting_pieces_map_a_far_start(self, tmp_path):
        fp = flow_forward(D0, 1e200 + 1j, 1.0)
        assert fp.alive and fp.value == 1e200 + 1j
        assert flow_reverse(D0, 0.0, 1.0, 1e200 + 1j) == 1e200 + 1j
        lanes = flow_reverse(D0, 0.0, 1.0, np.array([1e200 + 1j, 2j]))
        assert lanes[0] == 1e200 + 1j and lanes[1] == flow_reverse(D0, 0.0, 1.0, 2j)
        out = tmp_path / "f.csv"
        assert run(["flow", "--driver", "const:0", "--z", "1e200+1i", "--T", "1",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert len(rows) == 51
        assert all(float(row[1]) == 1e200 and row[2:4] == ["1", "1"] for row in rows)

    def test_far_start_over_a_tiny_slope_survives(self, tmp_path):
        # the resting lifetime overflows to inf, so a slope judged over it was not negligible
        # and the sloped crossing divided by |slope|**2 = 0; over the span it is negligible
        z = -1e190 + 2e-6j
        fp = flow_forward(AtomPath([0.0, 0.5], [0.0, 1e-214]), z, 0.5)
        assert fp.alive and fp.value == z
        assert fp == flow_forward(AtomPath([0.0, 0.5], [0.0, 0.0]), z, 0.5)
        out = tmp_path / "f.csv"
        assert run(["flow", "--driver", '{"kind":"atom-path","times":[0,0.5],"values":[0,1e-214]}',
                    "--z=-1e190+2e-6i", "--T", "0.5", "--steps", "1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().split()[1:]]
        assert [(float(r[1]), float(r[2]), r[3]) for r in rows] == [(-1e190, 2e-6, "1")] * 2

    def test_negligible_slope_keeps_the_resting_map_far_out(self):
        # the resting value overflowed, so the slope map ran and landed on -1e200
        for values in ([0.0, 1e-300], [0.0, 1.0]):
            assert flow_reverse(AtomPath([0.0, 1.0], values), 0.0, 1.0, 1e200 + 1j) == 1e200 + 1j

    @pytest.mark.parametrize("r", [0.5e154, 0.99e154, 1.01e154, 2e154, 1e200, 1e300])
    def test_either_side_of_the_bound_matches_mpmath(self, r):
        with mp.workdps(30):
            for angle in (1e-3, 0.4, 1.5, 2.9):
                z = r * complex(math.cos(angle), math.sin(angle))
                for t in (1.0, 1e300, 1e307):
                    w = mp.mpc(z)
                    want = complex(mp.sqrt(w * w - 2 * mp.mpf(t)))
                    want = want if want.imag >= 0 else -want
                    assert abs(flow_reverse(D0, 0.0, t, z) - want) <= 1e-15 * abs(want)
                    fp = flow_forward(D0, z, t)
                    if fp.alive:
                        want = complex(mp.sqrt(w * w + 2 * mp.mpf(t)))
                        want = want if want.imag >= 0 else -want
                        assert abs(fp.value - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("r", [1e76, 1e155, 1e300])
    @pytest.mark.parametrize("d", [
        sle_driving(2.0, 1.0 / 64.0, 1.0, 1), MeasurePath((0.0, 0.5), (Dirac(0.0), Dirac(1.0))),
        MeasurePath((0.0,), (Semicircle(1.0),)), MeasurePath((0.0,), (Arcsine(1.0),)),
        SemicircleFamily()], ids=["atom-path", "dirac-path", "semicircle", "arcsine", "family"])
    def test_every_flow_keeps_a_far_start(self, d, r):
        # a law piece returned NaN past 1.34e154 (and flow_forward raised), and the family's
        # monotone quartic left the half-plane from about 1e76
        for angle in (0.5, 1.5, 3.0):
            z = r * cmath.exp(1j * angle)
            lanes = np.array([z, 1j])
            for got in (flow_reverse(d, 0.0, 1.0, z), flow_reverse_anti(d, 0.0, 1.0, z),
                        flow_forward(d, z, 1.0).value, flow_reverse(d, 0.0, 1.0, lanes)[0],
                        flow_reverse_anti(d, 0.0, 1.0, lanes)[0]):
                assert cmath.isfinite(got) and got.imag > 0 and abs(got - z) <= 1e-13 * r

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    @pytest.mark.parametrize("var", [1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1.0])
    def test_a_narrow_law_maps_a_far_start_by_its_radius(self, law, var):
        # a law of radius r < 1 overflowed from |w| ~ 1e154 r (1e5 at var = 1e-300): NaN in
        # the reverse flows, AttributeError from flow_forward
        d, t = MeasurePath((0.0,), (law(var),)), 1.0
        for r in (1.0, 1e5, 1e50, 1e105, 1e150, 1e300):
            z = r * complex(0.6, 0.8)
            tol = 1e-13 * r + t / z.imag
            fp = flow_forward(d, z, t)
            assert fp.alive and cmath.isfinite(fp.value)
            assert fp.value.imag <= z.imag + 1e-13 * r and abs(fp.value - z) <= tol
            for got in (flow_reverse(d, 0.0, t, z), flow_reverse_anti(d, 0.0, t, np.array([z]))[0]):
                assert cmath.isfinite(got) and got.imag >= z.imag - 1e-13 * r
                assert abs(got - z) <= tol

    def test_a_narrow_law_driver_runs_from_the_cli(self, tmp_path):
        # family wrote nan,nan and exited 0, flow exited 1 with a traceback
        driver = ('{"kind":"measure-path","breakpoints":[0],'
                  '"measures":[{"kind":"semicircle","var":1e-300}]}')
        out = tmp_path / "f.csv"
        assert run(["family", "--driver", driver, "--t", "1", "--z", "6e4+8e4i",
                    "--out", str(out)]) == 0
        assert "nan" not in out.read_text()
        assert run(["flow", "--driver", driver, "--z", "6e4+8e4i", "--T", "1",
                    "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("x, y", [(1e153, 2e-6), (1e156, 1.0000001e-6)])
    def test_swallow_lifetime_either_side_matches_mpmath(self, x, y):
        # Im q = 2 x y stays, so sqrt(q) crosses Im = eps after (y**2 - eps**2)(x**2/eps**2 + 1)/2
        eps = flows.EPS_SWALLOW
        fp = flow_forward(D0, complex(x, y), 1e307)
        with mp.workdps(30):
            life = (mp.mpf(y) ** 2 - mp.mpf(eps) ** 2) * (mp.mpf(x) ** 2 / mp.mpf(eps) ** 2 + 1) / 2
        assert not fp.alive and abs(fp.lifetime - float(life)) <= 1e-12 * float(life)
        assert fp.value == complex(x * y / eps, eps)


class TestScalarRoots:
    """A scalar ``halfplane_sqrt`` takes ``cmath`` roots.  Their bits are those of the numpy
    expression they replaced: checked here, not assumed.  A tenth of the points lie on the
    line ``Re w = +-r`` and a tenth far out (``|Re z|`` up to 1e300, ``Im z`` from 1e-300 to
    1e300), where it takes numpy's route in part; the rest have ``|Re z| <= 7`` and ``Im z``
    in 1e-7..3."""

    N = 10_000

    @staticmethod
    def numpy_root(w: complex, r: float) -> complex:
        return complex(np.sqrt(w - r) * np.sqrt(w + r))

    @staticmethod
    def bits(values) -> np.ndarray:
        return np.array(values, dtype=complex).view(np.uint64)

    def sample(self):
        rng = np.random.default_rng(20251019)
        t = rng.uniform(1e-6, 4.0, self.N)
        r = 2.0 * np.sqrt(t)
        c = rng.uniform(-2.0, 2.0, self.N)
        x = c + rng.uniform(-5.0, 5.0, self.N)
        y = 10.0 ** rng.uniform(-7.0, math.log10(3.0), self.N)
        n = self.N // 10
        edge, far = slice(0, n), slice(n, 2 * n)
        x[edge] = c[edge] + rng.choice([-1.0, 1.0], n) * r[edge]  # Re(z) - c is +-r
        x[far] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 300.0, n)
        y[far] = 10.0 ** rng.uniform(-300.0, 300.0, n)
        return t.tolist(), r.tolist(), c.tolist(), [complex(a, b) for a, b in zip(x, y)]

    def test_halfplane_sqrt_keeps_the_numpy_bits(self):
        _, rs, cs, zs = self.sample()
        got = [halfplane_sqrt(z, r, c) for r, c, z in zip(rs, cs, zs)]
        want = [self.numpy_root(z - c, r) for r, c, z in zip(rs, cs, zs)]
        assert all(type(g) is complex for g in got)
        assert np.array_equal(self.bits(got), self.bits(want))

    def test_the_sample_reaches_both_numpy_routes(self):
        _, rs, cs, zs = self.sample()
        assert sum(abs((z - c).real) == r for r, c, z in zip(rs, cs, zs)) >= self.N // 20
        assert sum(z.imag < 1e-150 for z in zs) >= self.N // 50

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    def test_law_cauchy_keeps_the_numpy_bits(self, law):
        # the scalar branches of transforms.cauchy take halfplane_sqrt's scalar route too
        ts, _, cs, zs = self.sample()
        for t, c, z in zip(ts, cs, zs):
            m = law(t, c)
            root = self.numpy_root(complex(z) - c, m.radius)
            want = 2.0 / (complex(z) - c + root) if law is Semicircle else 1.0 / root
            got = cauchy(m)(z)
            assert type(got) is complex and np.array_equal(self.bits([got]), self.bits([want]))

    def test_an_array_radius_takes_the_array_route(self):
        # a scalar start with an array of radii is one root per radius
        radii = np.array([1.0, 2.0])
        got = halfplane_sqrt(1j, radii)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, halfplane_sqrt(np.full(2, 1j), radii))

"""Caratheodory ODE solvers for the chordal Loewner equations.

Three flows share one adaptive Dormand-Prince 4(5) kernel:

* forward   ``dg/dt = +G_{nu_t}(g)``   (hull-growing; points can be swallowed)
* reverse   ``dphi/dt = -G_{nu_t}(phi)``  started at ``phi_{s,s} = z``
* anti      ``dphi/ds = +G_{nu_s}(phi)``  integrated down from ``phi_{t,t} = z``

plus the inverse of the forward map, slit traces by boundary extrapolation and
the conformal welding of a slit.  Driving families are piecewise structured
(piecewise-linear point trajectories or piecewise-constant measures) and the
integrator never steps across a structural breakpoint.

Piece contract: every driver has ``knots`` (its breakpoints) and
``piece(lo, hi)``, its Cauchy transform ``(t, z) -> G_{nu_t}(z)`` on the one
piece holding ``[lo, hi]``, continuously extended to both ends.  So the left
piece holds up to and including a segment's end, the next piece is never
sampled, and solvers do no driver lookup while stepping.  A piece takes
scalar ``t`` and ``z``, or ndarrays of the same shape.

Two kernels.  :func:`_integrate` steps one complex scalar; every single-point
or event-driven caller uses it (:func:`flow_forward`, :func:`inverse_map`,
:func:`trace`, :func:`welding`, and through them the Burgers residual and the
CLI ``flow`` and ``family`` lines).  :func:`_integrate_lanes` is its lane-wise
transcription: an ndarray of starts advances together, each lane with its own
``t``, ``h`` and status.  :func:`flow_reverse` and :func:`flow_reverse_anti`
pick the kernel by the shape of ``z``, so a whole grid of starts (Stieltjes
inversion of an evolution family) is one solve.  The scalar kernel stays
because numpy's per-call overhead swamps a lane kernel run on one lane: on a
2-core x86 host (Python 3.11, numpy 2.4) a one-lane reverse solve took
10.6 ms against 0.66 ms scalar over a 64-piece SLE path at ``z = 2i``, and
30.5 ms against 0.89 ms near the axis.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    HorizonExceededError,
    NotASlitError,
    NotInImageError,
    NumericError,
    TraceUnresolvedError,
    ValidationError,
)
from .measures import Dirac, Measure, from_dict as measure_from_dict, to_dict as measure_to_dict
from .transforms import _bisect, as_points, cauchy as measure_cauchy, halfplane_sqrt

#: a forward-flow point with Im below this is considered swallowed
EPS_SWALLOW = 1e-6

#: lifetimes and collision times are bisection-refined to this width
LIFETIME_TOL = 1e-8

#: default per-step integration error target
DEFAULT_TOL = 1e-10

#: boundary offsets used for trace extrapolation
TRACE_DELTAS = (1e-3, 5e-4, 2.5e-4)


# ---------------------------------------------------------------------------
# driving families

@dataclass(frozen=True, eq=False)
class AtomPath:
    """Point-mass driving ``nu_t = delta_{U(t)}`` with U linear between ``knots = times``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2 or times.size != values.size:
            raise ValidationError("AtomPath needs matching times/values arrays")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValidationError("AtomPath times must increase strictly from 0")
        if not np.all(np.isfinite(values)):
            raise ValidationError("AtomPath values must be finite")
        for name, arr in (("times", times), ("values", values)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "knots", tuple(times.tolist()))
        object.__setattr__(self, "_values", tuple(values.tolist()))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def u(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def cauchy(self, t: float, z: complex) -> complex:
        return 1.0 / (z - self.u(t))

    def breakpoints(self, a: float, b: float):
        return [t for t in self.knots if a < t < b]

    def _line(self, lo: float, hi: float):
        """``(t_j, u_j, slope)``, ``U(t) = u_j + slope * (t - t_j)`` on the piece of [lo, hi]."""
        j = min(max(bisect_right(self.knots, 0.5 * (lo + hi)) - 1, 0), len(self.knots) - 2)
        t0, t1 = self.knots[j], self.knots[j + 1]
        u0, u1 = self._values[j], self._values[j + 1]
        return t0, u0, (u1 - u0) / (t1 - t0)

    def piece(self, lo: float, hi: float):
        """Transform ``(t, z) -> 1/(z - U(t))`` of the piece holding ``[lo, hi]``, ends included."""
        tj, uj, slope = self._line(lo, hi)
        return lambda t, z: 1.0 / (z - (uj + slope * (t - tj)))


@dataclass(frozen=True, eq=False)
class MeasurePath:
    """Piecewise-constant driving: ``measures[k]`` on ``[breakpoints[k], breakpoints[k+1])``.

    The last measure extends to infinity, so the horizon is unbounded.
    """

    breakpoints: tuple
    measures: tuple

    def __post_init__(self):
        bps = tuple(float(t) for t in self.breakpoints)
        ms = tuple(self.measures)
        if not bps or bps[0] != 0.0 or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValidationError("breakpoints must increase strictly from 0")
        if len(bps) != len(ms):
            raise ValidationError("need exactly one measure per breakpoint")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "measures", ms)
        object.__setattr__(self, "knots", bps)
        object.__setattr__(self, "_maps", tuple(measure_cauchy(m) for m in ms))

    @property
    def horizon(self) -> float:
        return math.inf

    def measure_at(self, t: float) -> Measure:
        return self.measures[self._index(t)]

    def _index(self, t: float) -> int:
        return min(max(bisect_right(self.breakpoints, t) - 1, 0), len(self.measures) - 1)

    def cauchy(self, t: float, z: complex) -> complex:
        return self._maps[self._index(t)](z)

    def piece(self, lo: float, hi: float):
        """Fixed transform ``(t, z) -> G_k(z)`` of the piece holding ``[lo, hi]``, ends included."""
        fn = self._maps[self._index(0.5 * (lo + hi))].fn
        return lambda t, z: fn(z)


@dataclass(frozen=True)
class SemicircleFamily:
    """Driving ``nu_t`` = semicircle law of variance ``t`` (the fixed point); one piece."""

    knots = ()

    @property
    def horizon(self) -> float:
        return math.inf

    def cauchy(self, t, z):
        if not isinstance(t, np.ndarray):
            if t <= 0.0:
                return 1.0 / z
            # halfplane_sqrt(z, r) inlined: this is the scalar kernel's right-hand
            # side, and the call plus its array check cost about 15% of it
            r = 2.0 * math.sqrt(t)
            w = complex(z)
            return 2.0 / (z + complex(np.sqrt(w - r) * np.sqrt(w + r)))
        radius = 2.0 * np.sqrt(np.maximum(t, 0.0))
        return np.where(t <= 0.0, 1.0 / z, 2.0 / (z + halfplane_sqrt(z, radius)))

    def piece(self, lo: float, hi: float):
        return self.cauchy


Driving = AtomPath | MeasurePath | SemicircleFamily


def constant_driver(u: float = 0.0) -> MeasurePath:
    """Driving that is a fixed point mass at ``u`` for all times."""
    return MeasurePath((0.0,), (Dirac(u),))


def _segments(d: Driving, a: float, b: float, reflect_about: float | None = None):
    """Integration segments ``(lo, hi, g)`` of [a, b] that avoid structural breakpoints.

    ``g(t, z)`` is the driver's Cauchy transform on the segment's piece, in
    driver time.  With ``reflect_about = c`` the driver is sampled at
    ``c - tau`` (reverse time), so breakpoints are reflected accordingly.
    """
    c = reflect_about
    if c is None:
        pts = [t for t in d.knots if a < t < b]
    else:
        pts = sorted(c - t for t in d.knots if c - b < t < c - a and a < c - t < b)
    knots = [a] + pts + [b]
    return [(lo, hi, d.piece(lo, hi) if c is None else d.piece(c - hi, c - lo))
            for lo, hi in zip(knots, knots[1:]) if hi > lo]


def driving_to_dict(d: Driving) -> dict:
    if isinstance(d, AtomPath):
        return {"kind": "atom-path", "times": [float(t) for t in d.times],
                "values": [float(v) for v in d.values]}
    if isinstance(d, MeasurePath):
        return {"kind": "measure-path", "breakpoints": list(d.breakpoints),
                "measures": [measure_to_dict(m) for m in d.measures]}
    if isinstance(d, SemicircleFamily):
        return {"kind": "semicircle-family"}
    raise ValidationError(f"not a driving family: {d!r}")


def driving_from_dict(obj: dict) -> Driving:
    kind = obj.get("kind")
    if kind == "atom-path":
        return AtomPath(np.asarray(obj["times"], float), np.asarray(obj["values"], float))
    if kind == "measure-path":
        return MeasurePath(tuple(obj["breakpoints"]),
                           tuple(measure_from_dict(m) for m in obj["measures"]))
    if kind == "semicircle-family":
        return SemicircleFamily()
    raise ValidationError(f"unknown driving kind {kind!r}")


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 4(5) for a scalar complex ODE

_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_E = (  # b5 - b4, applied to the seven stages for the embedded error
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _dp_step(rhs, t, y, h, k1):
    """One Dormand-Prince step of width ``h`` from ``(t, y)`` with first stage ``k1``, for a
    scalar or for lane arrays: the fifth-order state ``y5``, its stage ``k7 = rhs(t + h, y5)``
    (the next step's ``k1``) and the embedded error norm."""
    k2 = rhs(t + _C[0] * h, y + h * (_A[0][0] * k1))
    k3 = rhs(t + _C[1] * h, y + h * (_A[1][0] * k1 + _A[1][1] * k2))
    k4 = rhs(t + _C[2] * h, y + h * (_A[2][0] * k1 + _A[2][1] * k2 + _A[2][2] * k3))
    k5 = rhs(t + _C[3] * h, y + h * (_A[3][0] * k1 + _A[3][1] * k2 + _A[3][2] * k3
                                     + _A[3][3] * k4))
    k6 = rhs(t + _C[4] * h, y + h * (_A[4][0] * k1 + _A[4][1] * k2 + _A[4][2] * k3
                                     + _A[4][3] * k4 + _A[4][4] * k5))
    y5 = y + h * (_A[5][0] * k1 + _A[5][2] * k3 + _A[5][3] * k4 + _A[5][4] * k5
                  + _A[5][5] * k6)
    k7 = rhs(t + h, y5)
    err = abs(h * (_E[0] * k1 + _E[2] * k3 + _E[3] * k4 + _E[4] * k5 + _E[5] * k6
                   + _E[6] * k7))
    return y5, k7, err


def _integrate(rhs, t0: float, t1: float, y0: complex, tol: float, event=None):
    """Integrate ``dy/dt = rhs(t, y)`` over ``[t0, t1]``.

    ``event(t, y)`` must stay nonnegative along the solution; an accepted step
    that would land with ``event < 0`` stops integration at the step start.

    Returns ``(status, t, y, err_acc, h)`` with status ``"done"``, ``"event"``
    or ``"stall"``; ``h`` is the width of the offending step for ``"event"``.
    """
    span = t1 - t0
    if span <= 0:
        return "done", t0, y0, 0.0, 0.0
    t, y = t0, complex(y0)
    k1 = rhs(t, y)
    h = min(span, 1e-2 * max(1.0, abs(y)) / max(abs(k1), 1e-12), 1.0)
    err_acc = 0.0
    while t < t1:
        floor = 1e-14 * max(1.0, abs(t)) + 1e-300
        if t1 - t < floor:  # round-off remainder of the span, not a stall
            break
        h = min(h, t1 - t)
        if h < floor:
            return "stall", t, y, err_acc, h
        y5, k7, err = _dp_step(rhs, t, y, h, k1)
        scale = tol * max(1.0, abs(y), abs(y5))
        if not math.isfinite(err) or not math.isfinite(abs(y5)):
            h *= 0.25
            continue
        if err <= scale:
            if event is not None and event(t + h, y5) < 0.0:
                return "event", t, y, err_acc, h
            t += h
            y = y5
            k1 = k7
            err_acc += err
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        h *= factor
    return "done", t, y, err_acc, 0.0


def _integrate_lanes(rhs, t0: float, t1: float, y0, tol: float):
    """Lane-wise :func:`_integrate` over ``[t0, t1]`` for an ndarray of starts ``y0``.

    Each lane keeps its own ``t``, ``h`` and status, and runs the same
    tableau, error norm, step-size rule and round-off/stall logic as the
    scalar kernel, so a lane takes the same accepted and rejected steps as a
    scalar solve from its start.  ``rhs(t, y)`` receives the running lanes'
    times and states as arrays.  There are no events.

    Returns ``(done, y)``, arrays shaped like ``y0``; ``done`` is False on
    lanes that stalled, which keep the state they stalled at.
    """
    y = np.array(y0, dtype=complex)
    shape = y.shape
    y = y.ravel()
    done = np.ones(y.size, dtype=bool)
    span = t1 - t0
    if span <= 0 or y.size == 0:
        return done.reshape(shape), y.reshape(shape)
    # the running lanes, compacted: index, time, state, step, first stage
    lane, tl, yl = np.arange(y.size), np.full(y.size, float(t0)), y.copy()
    k1 = rhs(tl, yl)
    h = np.minimum(np.minimum(span, 1e-2 * np.maximum(1.0, np.abs(yl))
                              / np.maximum(np.abs(k1), 1e-12)), 1.0)
    with np.errstate(all="ignore"):
        while lane.size:
            floor = 1e-14 * np.maximum(1.0, np.abs(tl)) + 1e-300
            rest = t1 - tl
            finished = rest < floor  # round-off remainder of the span, not a stall
            h = np.minimum(h, rest)
            stalled = ~finished & (h < floor)
            stop = finished | stalled
            if stop.any():
                y[lane[stop]] = yl[stop]
                done[lane[stalled]] = False
                run = ~stop
                lane, tl, yl, h, k1 = lane[run], tl[run], yl[run], h[run], k1[run]
                if not lane.size:
                    break
            y5, k7, err = _dp_step(rhs, tl, yl, h, k1)
            scale = tol * np.maximum(np.maximum(1.0, np.abs(yl)), np.abs(y5))
            bad = ~(np.isfinite(err) & np.isfinite(np.abs(y5)))
            accept = ~bad & (err <= scale)
            tl = np.where(accept, tl + h, tl)
            yl = np.where(accept, y5, yl)
            k1 = np.where(accept, k7, k1)
            factor = np.where(err == 0.0, 5.0,
                              np.minimum(5.0, np.maximum(0.2, 0.9 * (scale / err) ** 0.2)))
            h = h * np.where(bad, 0.25, factor)
    return done.reshape(shape), y.reshape(shape)


def _locate_event(rhs, t0: float, y0: complex, window: float, event, tol: float,
                  t_tol: float = LIFETIME_TOL):
    """Bisect the event crossing inside ``[t0, t0 + window]``.

    ``event(t0, y0) >= 0`` must hold.  Probe integrations that stall (the
    vector field blows up past the crossing) count as crossed.  Returns the
    crossing time and the last state on the safe side.
    """
    safe = [0.0, y0]  # offset from t0 and state of the last probe on the safe side

    def inside(mid):
        status, _, y_mid, _, _ = _integrate(rhs, t0 + safe[0], t0 + mid, safe[1], tol)
        if status == "done" and event(t0 + mid, y_mid) >= 0.0:
            safe[:] = mid, y_mid
            return True
        return False

    return t0 + _bisect(inside, 0.0, window, t_tol)[0], safe[1]


# ---------------------------------------------------------------------------
# flows

@dataclass(frozen=True)
class FlowPoint:
    """Forward-flow result at one initial point."""

    value: complex
    alive: bool
    lifetime: float
    err_est: float


@dataclass(frozen=True)
class HullTrace:
    """Slit trace: ``points[i]`` is the hull tip at ``times[i]``."""

    times: tuple
    points: tuple
    err_est: tuple


def _check_horizon(d: Driving, t: float):
    if t > d.horizon + 1e-12:
        raise HorizonExceededError(f"horizon exceeded: {t} > {d.horizon}")


def flow_forward(d: Driving, z: complex, t: float, tol: float = DEFAULT_TOL) -> FlowPoint:
    """Solve the forward equation ``dg/dt = G_{nu_t}(g)`` from ``g_0 = z``.

    Integration stops when the imaginary part falls below
    :data:`EPS_SWALLOW`; the swallowing time is then bisection-refined to
    :data:`LIFETIME_TOL` and reported as the lifetime.  ``err_est`` accumulates
    the embedded per-step error estimates.
    """
    z = complex(z)
    if not (z.imag > 0):
        raise ValidationError("flow_forward needs a start in the open upper half-plane")
    if t < 0:
        raise ValidationError("time must be nonnegative")
    _check_horizon(d, t)
    if z.imag <= EPS_SWALLOW:
        return FlowPoint(z, False, 0.0, 0.0)
    if t == 0:
        return FlowPoint(z, True, math.inf, 0.0)

    event = lambda tt, yy: yy.imag - EPS_SWALLOW
    y = z
    err_acc = 0.0
    for a, b, g in _segments(d, 0.0, t):
        status, tc, yc, err, h = _integrate(g, a, b, y, tol, event)
        err_acc += err
        if status == "event":
            t_cross, y_safe = _locate_event(g, tc, yc, min(h, b - tc), event, tol)
            return FlowPoint(y_safe, False, t_cross, err_acc)
        if status == "stall":
            if yc.imag <= 10 * EPS_SWALLOW:
                return FlowPoint(yc, False, tc, err_acc)
            raise NumericError(f"forward flow stalled at t = {tc}")
        y = yc
    return FlowPoint(y, True, math.inf, err_acc)


def _check_starts(z, what: str):
    # np.all on a Python bool costs about 5 us, a scalar solve as little as 12 us
    above = z.imag > 0
    if not (above.all() if isinstance(above, np.ndarray) else above):
        raise ValidationError(f"{what} needs starts in the open upper half-plane")


def _solve_reverse(d: Driving, a: float, b: float, z, tol: float, what: str,
                   reflect_about: float | None = None):
    """Integrate ``dy/dtau = -G_{nu_r}(y)`` over ``[a, b]`` from ``y(a) = z``, in driver
    time ``r = tau``, or ``r = c - tau`` with ``reflect_about = c``.

    A complex ``z`` runs the scalar kernel; an ndarray runs all its starts
    through the lane kernel.
    """
    c = reflect_about
    lanes = isinstance(z, np.ndarray)
    y = z
    for lo, hi, g in _segments(d, a, b, c):
        rhs = (lambda tau, yy: -g(tau, yy)) if c is None else (lambda tau, yy: -g(c - tau, yy))
        if lanes:
            done, y = _integrate_lanes(rhs, lo, hi, y, tol)
            start = None if done.all() else z.flat[int(np.argmin(done))]
        else:
            status, _, y, _, _ = _integrate(rhs, lo, hi, y, tol)
            start = None if status == "done" else z
        if start is not None:
            raise NumericError(f"{what} failed to integrate from z = {start}")
    return y


def flow_reverse(d: Driving, s: float, t: float, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Reverse flow ``phi_{s,t}(z)``: ``dphi/dt = -G_{nu_t}(phi)``, ``phi_{s,s} = z``.

    The value stays in the open upper half-plane with nondecreasing imaginary
    part; it is the F-transform of a probability measure in ``z``.  ``z`` may
    be an ndarray of starts, solved together by the lane kernel.
    """
    z = as_points(z)
    if not (0 <= s <= t):
        raise ValidationError("need 0 <= s <= t")
    _check_horizon(d, t)
    _check_starts(z, "flow_reverse")
    return _solve_reverse(d, s, t, z, tol, "reverse flow")


def flow_reverse_anti(d: Driving, s: float, t: float, z: complex,
                      tol: float = DEFAULT_TOL) -> complex:
    """Anti-monotone reverse flow: ``dphi/ds = G_{nu_s}(phi)`` down from ``phi_{t,t} = z``.

    For time-constant drivers this coincides with :func:`flow_reverse` by the
    time symmetry of the equation.  ``z`` may be an ndarray of starts.
    """
    z = as_points(z)
    if not (0 <= s <= t):
        raise ValidationError("need 0 <= s <= t")
    _check_horizon(d, t)
    _check_starts(z, "flow_reverse_anti")
    # substitute tau = s + t - sigma so integration runs forward in tau
    return _solve_reverse(d, s, t, z, tol, "anti-monotone flow", reflect_about=s + t)


def inverse_map(d: Driving, t: float, z: complex, tol: float = DEFAULT_TOL,
                check: bool = True) -> complex:
    """Inverse ``f_t = g_t^{-1}`` of the forward map, by time-reversed integration.

    Solves ``dw/dsigma = -G_{nu_{t - sigma}}(w)`` from ``w(0) = z`` and, when
    ``check`` is set, verifies the round trip ``g_t(f_t(z)) = z`` within 1e-6
    (raising ``NotInImageError`` otherwise).
    """
    z = complex(z)
    if t < 0:
        raise ValidationError("time must be nonnegative")
    _check_horizon(d, t)
    if not (z.imag > 0):
        raise ValidationError("inverse_map needs a point in the open upper half-plane")
    if t == 0:
        return z
    y = _solve_reverse(d, 0.0, t, z, tol, "inverse map", reflect_about=t)
    if check:
        back = flow_forward(d, y, t, tol)
        if not back.alive or abs(back.value - z) > 1e-6:
            raise NotInImageError(f"not in image: round trip error at z = {z}")
    return y


def trace(d: AtomPath, times: Sequence[float], tol: float = DEFAULT_TOL) -> HullTrace:
    """Hull trace ``gamma(t) = lim f_t(U(t) + i delta)`` for a point-mass driver.

    The boundary limit is taken along the offsets :data:`TRACE_DELTAS` with two
    Richardson stages (the tip expansion is quadratic in the offset); the
    leftover difference is reported per point.  A non-contracting offset
    sequence raises ``TraceUnresolvedError``.
    """
    if not isinstance(d, AtomPath):
        raise ValidationError("trace needs an AtomPath driver")
    pts, errs = [], []
    for t in times:
        if t < 0:
            raise ValidationError("trace times must be nonnegative")
        _check_horizon(d, t)
        if t == 0:
            pts.append(complex(d.u(0.0)))
            errs.append(0.0)
            continue
        base = d.u(t)
        # no round-trip verification here: g_t o f_t conditions like 1/delta
        # near the boundary, so the absolute gate would reject valid points;
        # the contraction check below plays that role for the trace
        vals = [inverse_map(d, t, complex(base, delta), tol, check=False)
                for delta in TRACE_DELTAS]
        d01 = abs(vals[1] - vals[0])
        d12 = abs(vals[2] - vals[1])
        if d01 > 1e-12 and d12 > 0.9 * d01:
            raise TraceUnresolvedError(f"trace unresolved at t = {t}")
        r1a = (4.0 * vals[1] - vals[0]) / 3.0
        r1b = (4.0 * vals[2] - vals[1]) / 3.0
        tip = (8.0 * r1b - r1a) / 7.0
        pts.append(tip)
        errs.append(abs(tip - r1b))
    return HullTrace(tuple(times), tuple(pts), tuple(errs))


# ---------------------------------------------------------------------------
# conformal welding

EPS_COLLIDE = 1e-6

#: welding endpoints and partners are bisection-refined to this width
WELDING_TOL = 1e-7


@dataclass(frozen=True)
class Welding:
    """Welding data of a slit hull at time ``T``.

    ``(a, b)`` is the base interval on the real line, ``u`` the preimage of
    the tip, and ``pairs`` a list of ``(x, h(x))`` with ``x < u < h(x)`` welded
    to the same slit point.
    """

    a: float
    b: float
    u: float
    pairs: tuple


def _seed_lifetime(d: AtomPath, big_t: float, tip: float, x: float, tol: float):
    """Absolute swallowing time of the slit point that lands at ``x``.

    Runs the forward vector field backwards in time from ``(T, x)`` until the
    trajectory collides with the driver, which starts at ``tip = U(T)``;
    returns ``None`` when it survives all the way down to time 0 (seed outside
    the welding interval).
    """
    x = float(x)
    if abs(x - tip) <= EPS_COLLIDE:
        return big_t
    side = 1.0 if x > tip else -1.0
    y = complex(x)
    for a, b, g in _segments(d, 0.0, big_t, reflect_about=big_t):
        tj, uj, slope = d._line(big_t - b, big_t - a)
        rhs = lambda s, yy: -g(big_t - s, yy)
        event = lambda s, yy: side * (yy.real - (uj + slope * (big_t - s - tj))) - EPS_COLLIDE
        status, tc, yc, _, h = _integrate(rhs, a, b, y, tol, event)
        if status == "event":
            s_cross, _ = _locate_event(rhs, tc, yc, min(h, b - tc), event, tol)
            return big_t - s_cross
        if status == "stall":
            return big_t - tc
        y = yc
    return None


def welding(d: AtomPath, big_t: float, npairs: int = 50, tol: float = DEFAULT_TOL) -> Welding:
    """Conformal welding of the hull at time ``T`` for a point-mass driver.

    Seeds on the real line are classified by the swallowing time of the slit
    point they correspond to; the tip preimage ``u = U(T)`` has the maximal
    lifetime ``T`` and the welding pairs points of equal lifetime on either
    side of ``u``.  A lifetime profile that is not unimodal on ``[a, b]``
    raises ``NotASlitError``.
    """
    if not isinstance(d, AtomPath):
        raise ValidationError("welding needs an AtomPath driver")
    if not (0 < big_t <= d.horizon + 1e-12):
        raise ValidationError("T must be positive and within the driver horizon")

    u = d.u(big_t)
    lifetime = lambda x: _seed_lifetime(d, big_t, u, x, tol)

    spread = float(np.max(d.values) - np.min(d.values))
    widths = math.sqrt(2.0 * big_t) + spread + 1.0
    edges = []
    for side, name in ((-1.0, "left"), (1.0, "right")):
        out = u + side * widths
        for _ in range(60):
            if lifetime(out) is None:
                break
            out = u + 2.0 * (out - u)
        else:
            raise NumericError(f"could not bracket the {name} welding endpoint")
        # the edge between colliding and escaping seeds
        edges.append(_bisect(lambda x: lifetime(x) is not None, u + side * 10 * EPS_COLLIDE,
                             out, WELDING_TOL))
    (a, a_inner), (b, b_inner) = edges

    # slit check: the lifetime must rise to T at u and fall on both sides
    probes = np.linspace(a_inner, b_inner, 41)
    ells = []
    for x in probes:
        val = lifetime(float(x))
        if val is None:
            raise NotASlitError("not a slit: lifetime gap inside the welding interval")
        ells.append(val)
    peak = int(np.argmax(ells))
    rising = all(ells[i + 1] >= ells[i] - 1e-7 for i in range(peak))
    falling = all(ells[i + 1] <= ells[i] + 1e-7 for i in range(peak, len(ells) - 1))
    if not (rising and falling):
        raise NotASlitError("not a slit: lifetime is not unimodal")

    margin = 0.02
    left = np.linspace(a + margin * (u - a), u - margin * (u - a), npairs)
    pairs = []
    for x in left:
        target = lifetime(float(x))
        longer = lambda y: (val := lifetime(y)) is not None and val > target
        pairs.append((float(x), _bisect(longer, u + 1e-9 * max(1.0, abs(u)), b_inner,
                                        WELDING_TOL)[0]))
    return Welding(a=a, b=b, u=u, pairs=tuple(pairs))

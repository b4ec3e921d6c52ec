"""Caratheodory ODE solvers for the chordal Loewner equations.

Three flows share one adaptive Dormand-Prince 4(5) kernel:

* forward   ``dg/dt = +G_{nu_t}(g)``   (hull-growing; points can be swallowed)
* reverse   ``dphi/dt = -G_{nu_t}(phi)``  started at ``phi_{s,s} = z``
* anti      ``dphi/ds = +G_{nu_s}(phi)``  integrated down from ``phi_{t,t} = z``

plus the inverse of the forward map, slit traces and the conformal welding of
a slit.  Driving families are piecewise structured (piecewise-linear point
trajectories or piecewise-constant measures) and the integrator never steps
across a structural breakpoint.

Piece contract: every driver has ``knots`` (its breakpoints) and
``piece(lo, hi)``, its Cauchy transform ``(t, z) -> G_{nu_t}(z)`` on the one
piece holding ``[lo, hi]``, continuously extended to both ends.  So the left
piece holds up to and including a segment's end, the next piece is never
sampled, and solvers do no driver lookup while stepping.  A piece takes
scalar ``t`` and ``z``, or ndarrays of the same shape.  A point-mass piece,
``U(t) = u_j + slope (t - t_j)``, carries ``line = (t_j, u_j, slope)``.  Every
driver also has ``integral(lo, hi, w)``, the exact ``int_lo^hi G_{nu_tau}(w) dtau``
on the piece holding ``[lo, hi]`` (the free R-transform).

Point-mass pieces.  A resting piece (``nu = delta_u``) is autonomous: its flow is
the arcsine semigroup, ``z -> u + sqrt((z - u)**2 -+ 2 dt)`` reverse and forward
(Kager, Nienhuis & Kadanoff 2004).  Every solver applies these exact maps there and
takes no integration step; the crossing of a point the piece swallows is closed-form
too.  The pole of ``G = 1/(z - U)`` sits on the driver, where the hull grows; in
``q = (g - U)**2``, ``dq/dt = 2 - 2 U' sqrt(q)`` (root with Im >= 0) is regular
(Kennedy 2007), so ``q`` is used only from the driver: the trace tip and welding
shots.  A welding shot is real, ``s = sqrt(q)`` with ``ds/dt = 1/s - U'`` on each
side, and every piece maps it exactly (one scalar implicit equation); the trace tip
integrates ``q`` on sloped pieces only.  Everything else runs in ``g``.  Swallowing
means ``Im g <= EPS_SWALLOW``; a forward flow finishes its crossing with ``Im g`` as
the independent variable (Henon 1982), so a swallowed value lies on that line.

Two kernels.  :func:`_integrate` steps one complex scalar; every single-point
or event-driven caller uses it (:func:`flow_forward`, :func:`inverse_map`,
:func:`trace`, and through them the Burgers residual and the CLI ``flow`` and
``family`` lines).  :func:`_integrate_lanes` is its lane-wise
transcription: an ndarray of starts advances together, each lane with its own
``t``, ``h`` and status.  :func:`flow_reverse` and :func:`flow_reverse_anti`
pick the kernel by the shape of ``z``, so a whole grid of starts (Stieltjes
inversion of an evolution family) is one solve.  On one lane numpy's overhead
swamps the lane kernel: over a 64-piece SLE path at ``z = 2i`` a one-lane solve
took 10.6 ms against 0.66 ms scalar (2-core x86, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import cmath
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
from .transforms import as_points, cauchy as measure_cauchy, halfplane_sqrt

#: a forward-flow point with Im below this is considered swallowed
EPS_SWALLOW = 1e-6

#: default per-step integration error target
DEFAULT_TOL = 1e-10

#: boundary offsets whose contraction checks a trace tip after a short driver piece
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
        if not np.all(np.isfinite(times)) or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValidationError("AtomPath times must be finite and increase strictly from 0")
        if not np.all(np.isfinite(values)):
            raise ValidationError("AtomPath values must be finite")
        for name, arr in (("times", times), ("values", values)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "knots", tuple(times.tolist()))
        object.__setattr__(self, "_values", tuple(values.tolist()))
        object.__setattr__(self, "_slopes", tuple(
            (u1 - u0) / (t1 - t0) for t0, t1, u0, u1 in
            zip(self.knots, self.knots[1:], self._values, self._values[1:])))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def u(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def cauchy(self, t: float, z: complex) -> complex:
        return 1.0 / (z - self.u(t))

    def breakpoints(self, a: float, b: float):
        return [t for t in self.knots if a < t < b]

    def piece(self, lo: float, hi: float):
        """Transform ``(t, z) -> 1/(z - U(t))`` of the piece holding ``[lo, hi]``, ends
        included; its ``line`` is ``(t_j, u_j, slope)``, ``U(t) = u_j + slope * (t - t_j)``."""
        j = min(max(bisect_right(self.knots, 0.5 * (lo + hi)) - 1, 0), len(self.knots) - 2)
        tj, uj, slope = self.knots[j], self._values[j], self._slopes[j]
        g = lambda t, z: 1.0 / (z - (uj + slope * (t - tj)))
        g.line = tj, uj, slope
        return g

    def integral(self, lo: float, hi: float, w):
        g = self.piece(lo, hi)
        tj, uj, slope = g.line
        if slope == 0.0:
            return (hi - lo) * g(lo, w)
        # integral of 1/(w - U(tau)); Im w != 0 keeps U off the log's branch cut
        return (np.log(w - (uj + slope * (lo - tj))) - np.log(w - (uj + slope * (hi - tj)))) / slope


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
        if (not bps or not all(map(math.isfinite, bps)) or bps[0] != 0.0
                or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:]))):
            raise ValidationError("breakpoints must be finite and increase strictly from 0")
        if len(bps) != len(ms):
            raise ValidationError("need exactly one measure per breakpoint")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "measures", ms)
        object.__setattr__(self, "knots", bps)
        object.__setattr__(self, "_maps", tuple(measure_cauchy(m) for m in ms))
        object.__setattr__(self, "_lines", tuple((0.0, m.location, 0.0) if isinstance(m, Dirac)
                                                 else None for m in ms))

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
        """Fixed transform ``(t, z) -> G_k(z)`` of the piece holding ``[lo, hi]``, ends
        included; a Dirac piece's ``line`` is ``(0, location, 0)``, any other's ``None``."""
        k = self._index(0.5 * (lo + hi))
        fn = self._maps[k].fn
        g = lambda t, z: fn(z)
        g.line = self._lines[k]
        return g

    def integral(self, lo: float, hi: float, w):
        return (hi - lo) * self._maps[self._index(0.5 * (lo + hi))].fn(w)


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

    def integral(self, lo: float, hi: float, w):
        """Closed form: ``w log(w + S) - S`` is an antiderivative, ``S_tau = sqrt(w**2 - 4 tau)``.
        Its difference is ``w log1p(x) - d`` with ``d = S_hi - S_lo = -4 (hi - lo)/(S_hi + S_lo)``
        and ``x = d/(w + S_lo)``, free of cancellation for short spans and near the axis."""
        s_lo, s_hi = (halfplane_sqrt(w, 2.0 * math.sqrt(t)) for t in (lo, hi))
        d = -4.0 * (hi - lo) / (s_hi + s_lo)
        x = d / (w + s_lo)
        u = 1.0 + x
        with np.errstate(invalid="ignore"):  # Kahan's log1p; numpy's loses digits at small x
            out = w * np.where(u == 1.0, x, np.log(u) * x / (u - 1.0)) - d
        return out if isinstance(out, np.ndarray) and out.ndim else complex(out)


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


def _resting(g):
    """Location ``u`` of a resting point-mass piece (slope 0), else ``None``."""
    line = getattr(g, "line", None)
    return line[1] if line is not None and line[2] == 0.0 else None


def _root(q):
    """``y - U`` back from ``q = (y - U)**2``: the square root with Im >= 0."""
    return 1j * (np.sqrt(-q) if isinstance(q, np.ndarray) else cmath.sqrt(-q))


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


def _field(obj: dict, key: str, convert, what: str = "a list of numbers"):
    """Field ``key`` of a driver description through ``convert``, or ``ValidationError``."""
    try:
        return convert(obj[key])
    except (KeyError, TypeError, ValueError):
        problem = f"expected {what}" if key in obj else "missing"
        raise ValidationError(f"driver.{key}: {problem}") from None


def driving_from_dict(obj: dict) -> Driving:
    """Inverse of :func:`driving_to_dict`; an unknown kind and a missing or
    malformed field raise ``ValidationError`` naming the field."""
    if not isinstance(obj, dict):
        raise ValidationError("driver: expected a mapping")
    kind, array = obj.get("kind"), lambda v: np.asarray(v, dtype=float)
    if kind == "atom-path":
        return AtomPath(_field(obj, "times", array), _field(obj, "values", array))
    if kind == "measure-path":
        return MeasurePath(_field(obj, "breakpoints", lambda v: tuple(map(float, array(v)))),
                           tuple(map(measure_from_dict,
                                     _field(obj, "measures", list, "a list of measures"))))
    if kind == "semicircle-family":
        return SemicircleFamily()
    raise ValidationError(f"driver.kind: unknown driving kind {kind!r}")


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

    Returns ``(status, t, y, err_acc)`` with status ``"done"``, ``"event"`` or
    ``"stall"``.
    """
    span = t1 - t0
    if span <= 0:
        return "done", t0, y0, 0.0
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
            return "stall", t, y, err_acc
        y5, k7, err = _dp_step(rhs, t, y, h, k1)
        scale = tol * max(1.0, abs(y), abs(y5))
        if not math.isfinite(err) or not math.isfinite(abs(y5)):
            h *= 0.25
            continue
        if err <= scale:
            if event is not None and event(t + h, y5) < 0.0:
                return "event", t, y, err_acc
            t += h
            y = y5
            k1 = k7
            err_acc += err
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        h *= factor
    return "done", t, y, err_acc


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


def _check(d: Driving, s: float, t: float, z=None, *, what: str):
    """The domain of every solve ``phi_{s,t}``: finite times ``0 <= s <= t`` within the horizon
    of ``d``, and starts ``z`` (complex or ndarray) finite in the open upper half-plane."""
    if not 0.0 <= s <= t < math.inf:
        raise ValidationError(f"{what} needs finite times 0 <= s <= t, got s = {s}, t = {t}")
    if t > d.horizon + 1e-12:
        raise HorizonExceededError(f"horizon exceeded: {t} > {d.horizon}")
    if z is None:
        return
    # np.all on a Python bool costs about 5 us, a scalar solve as little as 12 us
    if not (np.all(np.isfinite(z) & (z.imag > 0)) if isinstance(z, np.ndarray)
            else z.imag > 0 and cmath.isfinite(z)):
        raise ValidationError(f"{what} needs finite starts in the open upper half-plane")


def flow_forward(d: Driving, z: complex, t: float, tol: float = DEFAULT_TOL) -> FlowPoint:
    """Solve the forward equation ``dg/dt = G_{nu_t}(g)`` from ``g_0 = z``.

    The point is swallowed when its imaginary part falls to :data:`EPS_SWALLOW`;
    the swallowing time is the lifetime, with the state on the line
    ``Im g = EPS_SWALLOW`` as ``value``.  A resting point-mass piece maps every
    point exactly, and both are closed-form there.  Elsewhere the step that would
    cross the line is redone with ``sigma = -Im g`` as the independent variable
    (Henon 1982): ``Im g`` falls monotonically, so ``v = Re g + i t`` obeys
    ``dv/dsigma = -(Re G + i)/Im G`` and one solve up to ``sigma = -EPS_SWALLOW``
    ends on the line.  ``err_est`` sums the embedded error estimates of the
    integration steps taken; exact pieces add 0.
    """
    z = complex(z)
    _check(d, 0.0, t, z, what="flow_forward")
    if z.imag <= EPS_SWALLOW:
        return FlowPoint(z, False, 0.0, 0.0)

    y, err_acc = z, 0.0
    event = lambda tt, yy: yy.imag - EPS_SWALLOW
    for a, b, g in _segments(d, 0.0, t):
        u = _resting(g)
        if u is not None:  # q = (g - u)**2 moves right at rate 2
            q0 = (y - u) ** 2
            y = u + _root(q0 + 2.0 * (b - a))
            if y.imag > EPS_SWALLOW:
                continue
            # Im q stays and Im sqrt(q) falls as Re q grows: sqrt(q) passes x + i EPS_SWALLOW once
            x = q0.imag / (2.0 * EPS_SWALLOW)
            life = min(max(a + 0.5 * (x * x - EPS_SWALLOW ** 2 - q0.real), a), b)
            return FlowPoint(complex(u + x, EPS_SWALLOW), False, life, err_acc)
        status, tc, y, err = _integrate(g, a, b, y, tol, event)
        err_acc += err
        if status == "event":  # finish the crossing in sigma = -Im g, state v = Re g + i t
            def along_im(sigma, v):
                big_g = g(v.imag, complex(v.real, -sigma))
                return -(big_g.real + 1j) / big_g.imag

            status, sigma, v, err = _integrate(along_im, -y.imag, -EPS_SWALLOW,
                                               complex(y.real, tc), tol)
            err_acc += err
            if status == "done":
                return FlowPoint(complex(v.real, EPS_SWALLOW), False, v.imag, err_acc)
            tc, y = v.imag, complex(v.real, -sigma)
        if status == "stall":
            if y.imag <= 10 * EPS_SWALLOW:
                return FlowPoint(y, False, tc, err_acc)
            raise NumericError(f"forward flow stalled at t = {tc}")
    return FlowPoint(y, True, math.inf, err_acc)


def _solve_reverse(d: Driving, a: float, b: float, z, tol: float, what: str,
                   reflect_about: float | None = None):
    """Integrate ``dy/dtau = -G_{nu_r}(y)`` over ``[a, b]`` from ``y(a) = z``, in driver
    time ``r = tau``, or ``r = c - tau`` with ``reflect_about = c``.

    A complex ``z`` runs the scalar kernel; an ndarray runs all its starts
    through the lane kernel.  A resting point-mass piece applies its exact map.
    """
    c = reflect_about
    lanes = isinstance(z, np.ndarray)
    y = z
    for lo, hi, g in _segments(d, a, b, c):
        u = _resting(g)
        if u is not None:
            y = u + _root((y - u) ** 2 - 2.0 * (hi - lo))
            continue
        if c is None:
            rhs = lambda tau, yy: -g(tau, yy)
        else:
            rhs = lambda tau, yy: -g(c - tau, yy)
        if lanes:
            done, y = _integrate_lanes(rhs, lo, hi, y, tol)
            start = None if done.all() else z.flat[int(np.argmin(done))]
        else:
            status, _, y, _ = _integrate(rhs, lo, hi, y, tol)
            start = None if status == "done" else z
        if start is not None:
            raise NumericError(f"{what} failed to integrate from z = {start}")
    return y


def flow_reverse(d: Driving, s: float, t: float, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Reverse flow ``phi_{s,t}(z)``: ``dphi/dt = -G_{nu_t}(phi)``, ``phi_{s,s} = z``.

    The value stays in the open upper half-plane with nondecreasing imaginary part; it is
    the F-transform of a probability measure in ``z``.  ``z`` may be an ndarray of starts,
    solved together by the lane kernel; every start must be finite, with ``Im z > 0``.
    """
    z = as_points(z)
    _check(d, s, t, z, what="flow_reverse")
    return _solve_reverse(d, s, t, z, tol, "reverse flow")


def flow_reverse_anti(d: Driving, s: float, t: float, z: complex,
                      tol: float = DEFAULT_TOL) -> complex:
    """Anti-monotone reverse flow: ``dphi/ds = G_{nu_s}(phi)`` down from ``phi_{t,t} = z``.

    For time-constant drivers this coincides with :func:`flow_reverse` by the time symmetry
    of the equation.  ``z`` may be an ndarray of starts, each finite, with ``Im z > 0``.
    """
    z = as_points(z)
    _check(d, s, t, z, what="flow_reverse_anti")
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
    _check(d, 0.0, t, z, what="inverse_map")
    if t == 0:  # the identity; the round trip would swallow a start below EPS_SWALLOW
        return z
    y = _solve_reverse(d, 0.0, t, z, tol, "inverse map", reflect_about=t)
    if check:
        back = flow_forward(d, y, t, tol)
        if not back.alive or abs(back.value - z) > 1e-6:
            raise NotInImageError(f"not in image: round trip error at z = {z}")
    return y


def trace(d: AtomPath, times: Sequence[float], tol: float = DEFAULT_TOL) -> HullTrace:
    """Hull trace ``gamma(t) = f_t(U(t)) = U(0) + sqrt(q)`` for a point-mass driver.

    The tip solve runs the inverse equation in ``q = (w - U)**2`` from ``q = 0``
    at ``t`` down to time 0; a resting piece lowers ``q`` by twice its length
    exactly, a sloped one is integrated, and ``err_est`` is the accumulated error
    estimate of those integrations.
    After a linear piece shorter than ``(10 delta_1)**2`` the inverse map at
    ``U(t) + i delta`` over :data:`TRACE_DELTAS` must also contract (a longer
    piece gives ratio 1/4), or ``TraceUnresolvedError`` is raised.
    """
    if not isinstance(d, AtomPath):
        raise ValidationError("trace needs an AtomPath driver")
    pts, errs = [], []
    for t in times:
        _check(d, 0.0, t, what="trace")
        segs = _segments(d, 0.0, t, reflect_about=t)  # none at t = 0, where q stays 0
        if segs and segs[0][1] - segs[0][0] < (10.0 * TRACE_DELTAS[0]) ** 2:
            # no round-trip check: g_t o f_t conditions like 1/delta near the boundary
            v0, v1, v2 = (inverse_map(d, t, complex(d.u(t), delta), tol, check=False)
                          for delta in TRACE_DELTAS)
            if abs(v1 - v0) > 1e-12 and abs(v2 - v1) > 0.9 * abs(v1 - v0):
                raise TraceUnresolvedError(f"trace unresolved at t = {t}")
        q, err_acc = 0j, 0.0
        for lo, hi, g in segs:  # driver time t - sigma, so dU/dsigma = -slope
            if g.line[2] == 0.0:  # resting: dq/dsigma = -2
                q -= 2.0 * (hi - lo)
                continue
            rhs = lambda x, q, slope=g.line[2]: 2.0 * (slope * _root(q) - 1.0)
            status, _, q, err = _integrate(rhs, lo, hi, q, tol)
            if status != "done":
                raise TraceUnresolvedError(f"trace tip solve stalled at t = {t}")
            err_acc += err
        pts.append(d.u(0.0) + _root(q))
        errs.append(err_acc)
    return HullTrace(tuple(times), tuple(pts), tuple(errs))


# ---------------------------------------------------------------------------
# conformal welding

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


#: 1/k! for k = 18 down to 2: ``expm1(x) - x = x**2 (1/2! + x/3! + ...)``, to within
#: 2**-55 of itself for |x| < 1
_EXPM1_TAIL = tuple(1.0 / math.factorial(k) for k in range(18, 1, -1))


def _expm1_tail(x: float) -> float:
    """``expm1(x) - x``, by its series where the difference would cancel (|x| < 1)."""
    if abs(x) >= 1.0:
        return math.expm1(x) - x
    acc = 0.0
    for c in _EXPM1_TAIL:
        acc = acc * x + c
    return acc * x * x


def _shot_piece(s: float, a: float, span: float) -> float:
    """Exact map of ``ds/dt = 1/s - a`` over ``span`` from ``s >= 0``: a welding shot's
    ``s = sqrt(q)`` on one driver piece, with ``a = side * slope``.

    With ``p = 1 - a s`` and ``L = log(p_1 / p)`` the piece solves
    ``G(L) = p expm1(L) - L - a**2 span = 0`` (Kager, Nienhuis & Kadanoff 2004), and
    ``s_1 = s - p expm1(L) / a``; ``s`` never crosses ``1/a``.  ``G' = -a s_1`` and
    ``G'' = p e**L``, so Newton started where ``G`` and ``G''`` share a sign moves
    monotonically to the one root on the solution's side, and stops when a step no
    longer moves it that way: no iteration cap.  Where ``a`` would move ``s`` by less
    than 2**-60 of itself over the span, the resting map ``sqrt(s**2 + 2 span)`` is
    returned.
    """
    rest = math.sqrt(s * s + 2.0 * span)
    if abs(a) * span <= 2.0 ** -60 * rest:
        return rest
    p, c = 1.0 - a * s, a * a * span
    # start where G and G'' share a sign; Newton then moves L in the direction `way`
    if a < 0.0:  # s outruns the resting map by at most -a span: G > 0 there
        big_l, way = math.log1p(-a * (rest - a * span - s) / p), -1.0
    elif p > 0.0:  # s rises towards 1/a and lags the resting map; G(-p - c) = p e**L > 0
        big_l, way = -p - c, 1.0
        if a * rest < 1.0:
            big_l = max(big_l, math.log1p(-a * (rest - s) / p))
    else:  # s falls towards 1/a; G(0) = -c < 0 and G(-p - c) = p e**L < 0
        big_l, way = min(0.0, -p - c), -1.0
    while True:
        em = math.expm1(big_l)
        nxt = big_l - (_expm1_tail(big_l) - a * s * em - c) / (p * em - a * s)
        if not way * (nxt - big_l) > 0.0:
            break
        big_l = nxt
    if p < 0.0:  # s - p expm1(L)/a would cancel as s falls to 1/a
        return (1.0 - p * math.exp(big_l)) / a
    s1 = s - p * math.expm1(big_l) / a
    if big_l > 1.0:  # e**L carries L's rounding, |L| eps: one Newton step in s instead
        x = -a * (s1 - s)
        s1 -= (x - math.log1p(x / p) - c) / (-a * (1.0 - 1.0 / (p + x)))
    return s1


def _shot(d: AtomPath, tau: float, big_t: float, side: float) -> float:
    """``g_T`` of the left (``side = -1``) or right (+1) edge of the slit point born at
    ``tau``: ``s = sqrt(q) = |g - U|`` with ``dq/dt = 2 - 2 side U' sqrt(q)`` from
    ``q(tau) = 0``, mapped exactly piece by piece (:func:`_shot_piece`).  A shot that
    comes back within :data:`EPS_SWALLOW` of the driver means the hull is not a slit."""
    knots, last = d.knots, len(d.knots) - 2
    j, lo, s = min(bisect_right(knots, tau) - 1, last), tau, 0.0
    while lo < big_t:  # piece j holds [lo, hi]; the last one extends past the horizon
        hi = big_t if j == last else min(knots[j + 1], big_t)
        s = _shot_piece(s, side * d._slopes[j], hi - lo)
        # q grows like 2 (t - tau) from its birth; below EPS_SWALLOW**2 afterwards it is
        # back.  s is monotone on a piece, so the piece's end decides.
        if s * s < min(EPS_SWALLOW ** 2, hi - tau):
            raise NotASlitError("not a slit: lifetime gap inside the welding interval "
                                f"(the shot from t = {tau} returns to the driver)")
        lo, j = hi, j + 1
    return d.u(big_t) + side * s


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float, width: float) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where ``f_lo`` and ``f_hi`` differ in sign:
    regula falsi that halves the value kept at an end the iterates stay away from
    (Illinois), until ``f`` vanishes or the bracket is ``width`` wide.  Returns the
    point of smallest ``|f|`` seen."""
    best, stale = min((abs(f_lo), lo), (abs(f_hi), hi)), 0
    while abs(hi - lo) > width and best[0] > 0.0:
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not min(lo, hi) < mid < max(lo, hi):
            break
        f_mid = f(mid)
        best = min(best, (abs(f_mid), mid))
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi, f_lo = mid, f_mid, 0.5 * f_lo if stale == -1 else f_lo
            stale = -1
        else:
            lo, f_lo, f_hi = mid, f_mid, 0.5 * f_hi if stale == 1 else f_hi
            stale = 1
    return best[1]


def welding(d: AtomPath, big_t: float, npairs: int = 50, tol: float = DEFAULT_TOL) -> Welding:
    """Conformal welding of the hull at time ``T`` for a point-mass driver.

    The slit point born at ``tau`` has the welded preimages ``x_-(tau) < u <
    x_+(tau) = h(x_-(tau))`` (:func:`_shot`); ``a`` and ``b`` are those of ``tau = 0``,
    ``u = U(T)``.  A table of shots brackets the ``tau`` of each ``x``, the Illinois
    secant refines it, and ``h(x)`` is shot from there.  Shots are exact per driver
    piece and take no integration step.  A shot that returns to the driver, or ``x_-``
    not increasing or ``x_+`` not decreasing, is ``NotASlitError``; if every reversal
    is within ``tol max(1, |x|)``, the welding is unresolved instead (``tol`` sets
    only this threshold).
    """
    if not isinstance(d, AtomPath):
        raise ValidationError("welding needs an AtomPath driver")
    _check(d, 0.0, big_t, what="welding")
    if big_t == 0:
        raise ValidationError("welding needs T > 0")
    if npairs < 0:
        raise ValidationError(f"npairs must be nonnegative, got {npairs}")

    # birth tau = T - s**2: near the tip x_-+ - u ~ -+sqrt(2 (T - tau)), about linear in s
    birth = lambda s: max(big_t - s * s, 0.0)
    ss = np.linspace(0.0, math.sqrt(big_t), 9).tolist()
    taus = [birth(s) for s in ss[:-1]] + [0.0]
    lefts, rights = ([_shot(d, tau, big_t, side) for tau in taus] for side in (-1.0, 1.0))
    # table neighbours moving the wrong way (x_- must fall, x_+ rise as tau falls)
    wrong = [(abs(x1 - x0), x0, t0) for side, xs in ((-1.0, lefts), (1.0, rights))
             for x0, x1, t0 in zip(xs, xs[1:], taus) if side * (x1 - x0) <= 0.0]
    if wrong and all(shift <= tol * max(1.0, abs(x)) for shift, x, _ in wrong):
        raise NumericError(f"welding unresolved in double precision: shots from tau <= "
                           f"{max(t for *_, t in wrong):.6g} land within {max(wrong)[0]:.1e} "
                           "of each other")
    if wrong:
        raise NotASlitError("not a slit: lifetime is not unimodal")
    u, a, b = d.u(big_t), lefts[-1], rights[-1]
    pairs = []  # at x spaced evenly over (a, u), 2% of it away from each end
    for x in np.linspace(a + 0.02 * (u - a), u - 0.02 * (u - a), npairs).tolist():
        k = next(i for i in range(len(ss) - 1) if lefts[i + 1] <= x)
        s = _illinois(lambda s: _shot(d, birth(s), big_t, -1.0) - x, ss[k], ss[k + 1],
                      lefts[k] - x, lefts[k + 1] - x, 1e-15 * ss[-1])
        pairs.append((x, _shot(d, birth(s), big_t, 1.0)))
    return Welding(a=a, b=b, u=u, pairs=tuple(pairs))

"""Exact maps for the chordal Loewner equations.

Three flows, each solved piece by piece through an exact map of every driver piece:

* forward   ``dg/dt = +G_{nu_t}(g)``   (hull-growing; points can be swallowed)
* reverse   ``dphi/dt = -G_{nu_t}(phi)``  started at ``phi_{s,s} = z``
* anti      ``dphi/ds = +G_{nu_s}(phi)``  solved down from ``phi_{t,t} = z``

plus the inverse of the forward map, slit traces and the conformal welding of
a slit.  Driving families are piecewise structured (piecewise-linear point
trajectories or piecewise-constant measures), and no map crosses a structural
breakpoint.

Piece contract: every driver has ``knots``, its breakpoints from 0, and one entry of
``_lines`` per knot.  Piece ``j`` runs from ``knots[j]`` to the next knot (the last one on
past the horizon), and its line is ``(t_j, u_j, slope)`` for a point mass at
``U(t) = u_j + slope (t - t_j)``, else ``None``; an ``AtomPath``'s entry past its last knot
is anchored at that knot, so ``u(t)``, which reads the lines too, gives ``U(T)`` exactly, and
its ``_pieces`` tables each whole piece's map constants.  :func:`_segments` walks the pieces
of a window up the knots; the anti-monotone solve takes the same segments top-down, the same
evolution with its pieces composed in reverse order.  ``integral(lo, hi, w)`` is the exact
``int_lo^hi G_{nu_tau}(w) dtau`` on the piece holding ``[lo, hi]`` (the free R-transform).

Every named law has a conserved quantity along the flow (Bauer's reading of the equation
as a monotone evolution, MR2053711), so every piece is an exact map in both time directions.
A resting point mass (``nu = delta_u``) is the arcsine semigroup, ``z -> u + sqrt((z - u)**2
-+ 2 dt)`` reverse and forward (Kager, Nienhuis & Kadanoff 2004).  On a sloped one, in
``x = (y - U) U'``, ``log1p(x) - x`` moves linearly in time, and the Wright omega function
inverts it (one Fritsch-Shafer-Crowley step, then one Newton step in ``x``); so a forward
crossing of ``Im g = EPS_SWALLOW`` (swallowing) is closed-form too, and the trace tip is the
anti-monotone map of the boundary point ``U(t)``.  In ``q = (g - U)**2``, ``dq/dt = 2 - 2 U'
sqrt(q)`` is regular on the driver (Kennedy 2007): welding shots ``s = sqrt(q)``, which start
there, are real and map exactly on every piece.  A semicircle piece is a sloped point mass in
``F_mu(phi)**2``, an arcsine piece the hyperbolic Kepler equation (:func:`_law_piece`), and
the semicircle family Joukowski's map and a quartic root (:func:`_family_piece`).  A
``MeasurePath`` piece of any other law (``Empirical``) has no exact map and is refused.

The point-mass maps and the family's closed forms have a scalar (cmath) route beside the
lane route, since callers often map one point at a time; the semicircle, arcsine and
quartic maps run a scalar as one lane.
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
    ValidationError,
)
from .measures import Arcsine, Dirac, Semicircle, _field, from_dict as measure_from_dict
from .transforms import as_points, cauchy as measure_cauchy, halfplane_sqrt, illinois, lane_log

#: a forward-flow point with Im below this is considered swallowed
EPS_SWALLOW = 1e-6

#: welding shots that reverse by at most this times max(1, |x|) are unresolved, not a non-slit
WELDING_TOL = 1e-10


# ---------------------------------------------------------------------------
# driving families

@dataclass(frozen=True, eq=False)
class AtomPath:
    """Point-mass driving ``nu_t = delta_{U(t)}`` with U linear between ``knots = times``; it
    tables each piece's line, and each whole piece's map constants for the three walks."""

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
        vs = values.tolist()
        lines = tuple((t0, u0, (u1 - u0) / (t1 - t0)) for t0, t1, u0, u1 in
                      zip(self.knots, self.knots[1:], vs, vs[1:]))
        # the last line runs on past the horizon, anchored at it so that U(T) is exact
        object.__setattr__(self, "_lines", lines + ((self.knots[-1], vs[-1], lines[-1][2]),))
        object.__setattr__(self, "_pieces", tuple(
            (_piece(u0, u1, s, h), _piece(u1, u0, -s, h), _piece(u0, u1, -s, -h))
            for (_, u0, s), h, u1 in zip(lines, np.diff(times).tolist(), vs[1:])))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def u(self, t: float) -> float:
        return float(_driver_at(self, t))

    def integral(self, lo: float, hi: float, w):
        tj, uj, slope = self._lines[_piece_at(self, 0.5 * (lo + hi))]
        if slope == 0.0:
            return (hi - lo) * (1.0 / (w - (uj + slope * (lo - tj))))
        # integral of 1/(w - U(tau)), off the cut as Im w != 0; np.log: the two logs cancel
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
        for k, m in enumerate(ms):
            if not isinstance(m, (Dirac, Semicircle, Arcsine)):
                raise ValidationError(f"measures[{k}]: a driver piece must be a Dirac, "
                                      f"semicircle or arcsine law, not {type(m).__name__}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "measures", ms)
        object.__setattr__(self, "knots", bps)
        object.__setattr__(self, "_maps", tuple(measure_cauchy(m) for m in ms))
        object.__setattr__(self, "_lines", tuple((0.0, m.location, 0.0) if isinstance(m, Dirac)
                                                 else None for m in ms))

    @property
    def horizon(self) -> float:
        return math.inf

    def integral(self, lo: float, hi: float, w):
        return (hi - lo) * self._maps[_piece_at(self, 0.5 * (lo + hi))].fn(w)


@dataclass(frozen=True)
class SemicircleFamily:
    """Driving ``nu_t`` = semicircle law of variance ``t`` (the fixed point); one piece."""

    knots = (0.0,)
    _lines = (None,)

    @property
    def horizon(self) -> float:
        return math.inf

    def integral(self, lo: float, hi: float, w):
        """Closed form: ``w log(w + S) - S`` is an antiderivative, ``S_tau = sqrt(w**2 - 4 tau)``.
        Its difference is ``w log1p(x) - d`` with ``d = S_hi - S_lo = -4 (hi - lo)/(S_hi + S_lo)``
        and ``x = d/(w + S_lo)``, free of cancellation for short spans and near the axis."""
        s_lo, s_hi = (halfplane_sqrt(w, 2.0 * math.sqrt(t)) for t in (lo, hi))
        d = -4.0 * (hi - lo) / (s_hi + s_lo)
        x = d / (w + s_lo)
        with np.errstate(invalid="ignore"):
            out = w * _log1p(x) - d
        return out if isinstance(out, np.ndarray) and out.ndim else complex(out)


Driving = AtomPath | MeasurePath | SemicircleFamily


def constant_driver(u: float = 0.0) -> MeasurePath:
    """Driving that is a fixed point mass at ``u`` for all times."""
    return MeasurePath((0.0,), (Dirac(u),))


def _piece_at(d: Driving, t: float) -> int:
    """Index ``j`` of the piece of ``d`` that holds time ``t``."""
    return max(bisect_right(d.knots, t) - 1, 0)


def _driver_at(d: Driving, t: float) -> float | None:
    """``U(t)`` on the line of the piece holding ``t`` (end pieces extend); ``None`` if no line."""
    line = d._lines[_piece_at(d, t)]
    return None if line is None else line[1] + line[2] * (t - line[0])


def _segments(d: Driving, a: float, b: float):
    """The segments ``(lo, hi, j)`` of ``[a, b]`` between the driver's knots, each within
    piece ``j``, up the knots.  One ``bisect``, then ``j`` steps by one."""
    knots = d.knots
    j = bisect_right(knots, a) - 1
    while a < b:
        hi = knots[j + 1] if j + 1 < len(knots) and knots[j + 1] < b else b
        yield a, hi, j
        a, j = hi, j + 1


def driving_from_dict(obj: dict) -> Driving:
    """The driver a JSON description names: ``{"kind": "atom-path", "times": [...],
    "values": [...]}``, ``{"kind": "measure-path", "breakpoints": [...], "measures":
    [...]}`` (each measure as :func:`~loewner.measures.from_dict` reads it) or
    ``{"kind": "semicircle-family"}``.  An unknown kind and a missing or malformed
    field raise ``ValidationError`` naming the field."""
    if not isinstance(obj, dict):
        raise ValidationError("driver: expected a mapping")
    kind, array = obj.get("kind"), lambda v: np.asarray(v, dtype=float)
    field = lambda key, convert=array: _field(obj, key, convert, what="driver")
    if kind == "atom-path":
        return AtomPath(field("times"), field("values"))
    if kind == "measure-path":
        return MeasurePath(field("breakpoints", lambda v: tuple(map(float, array(v)))),
                           tuple(map(measure_from_dict, field("measures", list))))
    if kind == "semicircle-family":
        return SemicircleFamily()
    raise ValidationError(f"driver.kind: unknown driving kind {kind!r}")


# ---------------------------------------------------------------------------
# exact reverse maps of point-mass pieces

#: series of Algorithm 917 (Lawrence, Corless & Jeffrey 2012) for a start of the Wright
#: omega function ``W = omega(zeta)``, ``W + log W = zeta``, highest power first: about the
#: lower branch point ``(W + 1)/v`` in ``v = sqrt(2 (zeta + 1 + i pi))``, between the cuts
#: ``W/v`` in ``v = e**zeta``, and in the "mushroom" about ``zeta = 1`` ``W`` in ``zeta - 1``
_OMEGA_BRANCH = (-1j / 4320, 1 / 270, 1j / 36, 1 / 3, -1j)
_OMEGA_BETWEEN = (125 / 24, -8 / 3, 3 / 2, -1.0, 1.0)
_OMEGA_MUSHROOM = (13 / 61440, -1 / 3072, -1 / 192, 1 / 16, 1 / 2, 1.0)

#: 2/(2n + 3) for n = 9 down to 0: ``log1p(x) - x = -x s + 2 s**3 sum_n s**(2n)/(2n + 3)``
#: with ``s = x/(2 + x)``, to within 2**-60 of itself for |x| < 1/4
_LOG1P_TAIL = tuple(2.0 / (2 * n + 3) for n in range(9, -1, -1))

#: ``(phi - sin phi)/phi**3`` in ``phi**2``, highest power first, within 2**-60 for phi < 1/4
_PHI_SIN = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(5, -1, -1))

#: below this ``|k|`` a piece's map starts from the branch-point series itself
_BRANCH_SERIES_K = 2.0 ** -20


def _horner(coeffs, v):
    """The polynomial with ``coeffs`` (highest power first) at a complex scalar or lanes."""
    acc = 0.0
    for c in coeffs:
        acc = acc * v + c
    return acc


def _log1p_series(x):
    """``log1p(x) - x`` by its series in ``s = x/(2 + x)``, for |x| < 1/4 (scalar or lanes)."""
    s = x / (2.0 + x)
    return s * (s * s * _horner(_LOG1P_TAIL, s * s) - x)


def _log1p_tail(x, left):
    """``log1p(x) - x`` for lanes, by its series where the difference would cancel
    (|x| < 1/4); where ``left`` (``Re(1 + x) < 0``) ``log(-(1 + x)) - x`` instead, ``i pi``
    less.  Each form keeps the digits of a small imaginary part: the first for ``1 + x``
    near the positive half-axis, the second near the negative one.  :func:`_sloped`
    takes the same steps on a complex scalar."""
    p = 1.0 + x
    return np.where(np.abs(x) < 0.25, _log1p_series(x), lane_log(np.where(left, -p, p)) - x)


def _branch_series(k):
    """``omega(k - 1 - i pi) + 1``, the Wright omega function near its lower branch point, by
    the series of Algorithm 917 in ``v = sqrt(2 k)``, whose cut runs along ``k < 0``."""
    v = 2.0 * k
    v = (np.sqrt(v.conjugate()) if isinstance(v, np.ndarray)
         else cmath.sqrt(v.conjugate())).conjugate()
    return v * _horner(_OMEGA_BRANCH, v)


def _omega_far(t, lg):
    """Algorithm 917's asymptotic start ``t - lg + lg/t + ...``, ``lg = log t`` (or the log
    of ``-t`` near a cut), in powers of ``1/t`` so that no power of ``t`` overflows."""
    u = 1.0 / t
    return t - lg + u * (lg + u * ((0.5 * lg - 1.0) * lg
                                   + u * ((lg / 3.0 - 1.5) * lg + 1.0) * lg))


def _fsc_step(w, r):
    """One Fritsch-Shafer-Crowley step for ``W + log W = zeta`` from ``w`` (scalar or lanes),
    whose residual is ``r = zeta - w - log w``: the new iterate."""
    wp1 = w + 1.0
    q = r / wp1
    g = 2.0 + 4.0 / 3.0 * q
    return w * (1.0 + q * (g - q / wp1) / (g - 2.0 * q / wp1))


def _wright_omega_lanes(zeta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Wright omega function ``W = omega(zeta)``, ``W + log W = zeta``, for lanes with
    ``Im zeta < 0``, given ``zeta`` and ``c = zeta + i pi``: near ``Im zeta = 0`` the caller's
    ``zeta`` carries the digits of its imaginary part, near the cut ``Im zeta = -pi`` its ``c``.
    ``-W`` is the root ``p``, ``Im p > 0``, of ``log p - p = c``.

    Algorithm 917 of Lawrence, Corless & Jeffrey (2012): a series start by region of
    ``zeta``, then one Fritsch-Shafer-Crowley step (:func:`_fsc_step`).  The step from a
    start left of the imaginary axis reads ``c`` and takes ``log W = log(-W) - i pi``
    (Algorithm 917 regularizes so near the cut), any other ``zeta``; the starts near either
    line read the argument that lies close to it.  So a small ``Im W`` keeps its digits.
    :func:`_sloped` takes the same start and step for one scalar.
    """
    zr, zi = zeta.real, zeta.imag
    wing = (zr <= -1.05) & (0.75 * (zr + 1.0) < c.imag)
    with np.errstate(all="ignore"):  # every start is formed on every lane, then picked
        v = np.where(zi > -0.5 * math.pi, np.exp(zeta), -np.exp(c))
        w = np.select(
            [(-2.0 < zr) & (zr <= 1.0) & (-2.0 * math.pi < zi) & (zi < -1.0),
             (zr <= -2.0) & (0.0 < c.imag),
             (-2.0 < zr) & np.where(zr <= 1.0, -1.0 <= zi,
                                    (zr - 1.0) ** 2 + zi * zi <= math.pi ** 2)],
            [_branch_series(c + 1.0) - 1.0, v * _horner(_OMEGA_BETWEEN, v),
             _horner(_OMEGA_MUSHROOM, zeta - 1.0)],
            _omega_far(np.where(wing, c, zeta), lane_log(np.where(wing, -c, zeta))))
        left = w.real < 0.0
        return _fsc_step(w, np.where(left, c, zeta) - w - lane_log(np.where(left, -w, w)))


#: past this ``|w|`` the resting map factors ``w**2`` out of its root: ``w**2`` would overflow
_FAR = 1e154


def _rest(w, d: float):
    """``sqrt(w**2 + d)``, the root with Im >= 0, scalar or lanes: a point's offset from a
    resting point mass after its arcsine map; past ``_FAR``, ``w sqrt(1 + d/w**2)``."""
    lanes = isinstance(w, np.ndarray)
    sqrt = np.sqrt if lanes else cmath.sqrt
    if not ((np.abs(w) >= _FAR).any() if lanes else abs(w) >= _FAR):
        return 1j * sqrt(-(w * w) - d)  # on the axis, w's sign picks the root
    with np.errstate(all="ignore"):  # lanes form both roots, then pick
        far = w * sqrt(1.0 + d / w / w)
        return np.where(np.abs(w) < _FAR, 1j * sqrt(-(w * w) - d), far) if lanes else far


def _atom_piece(y, line: tuple, r0: float, r1: float, sense: float):
    """Exact reverse map of a point-mass piece, ``line = (t_j, u_j, slope)``, from driver time
    ``r0`` to ``r1`` for a complex scalar or lanes ``y``: over ``span = sense (r1 - r0)`` at
    rate ``sense slope``, ``sense = -1`` where the driver runs down (the anti-monotone walk)
    or the piece runs backwards (forward flow).  A resting piece is the arcsine semigroup; a
    sloped one maps by :func:`_sloped` (or lanes)."""
    tj, uj, slope = line
    span = sense * (r1 - r0)
    if slope == 0.0:
        return uj + _rest(y - uj, -2.0 * span)
    piece = _piece(uj + slope * (r0 - tj), uj + slope * (r1 - tj), sense * slope, span)
    return (_sloped_lanes if isinstance(y, np.ndarray) else _sloped)(y, piece)


def _piece(u0: float, u1: float, a: float, span: float) -> tuple:
    """What :func:`_sloped` maps a piece by, given the driver at its start and end and its rate
    ``a`` over ``span``; ``|a span|`` and ``sqrt(2 |span|)`` gate a negligible slope."""
    return u0, u1, abs(a), a * a * span, a < 0.0, abs(a * span), math.sqrt(abs(2.0 * span)), span


def _sloped(y: complex, piece: tuple) -> complex:
    """Exact reverse map of a sloped point-mass piece (constants :func:`_piece`) for a complex
    scalar: the resting map where the slope moves it by under 2**-60, else in ``x = a w``
    (``w -> -conj(w)`` where the driver falls) ``log1p(x) - x`` grows by ``a**2 span`` to ``k``
    (Kager, Nienhuis & Kadanoff 2004; ``i pi`` less left of ``Re x = -1``, :func:`_log1p_tail`)
    and ``x_1 = -1 - omega(k - 1 - i pi)``: the start and the one Fritsch-Shafer-Crowley step
    of :func:`_wright_omega_lanes`, or where ``|k| < 2**-20`` the branch-point series, then one
    Newton step in ``x``, for the digits a second step would bring.  Its logs are ``cmath``'s,
    so a scalar keeps its bits; :func:`_sloped_lanes` takes :func:`lane_log`."""
    u0, u1, a, k0, flip, motion, root, span = piece
    w = y - u0
    if motion <= 2.0 ** -59 * (abs(w) + root):
        rest = _rest(w, -2.0 * span)
        if motion <= 2.0 ** -60 * abs(rest):
            return u0 + rest
    x = a * (-w.conjugate() if flip else w)
    left = x.real < -1.0
    p = 1.0 + x
    k = (cmath.log(-p if left else p) - x if left or abs(x) >= 0.25 else _log1p_series(x)) + k0
    if not left and abs(k) < _BRANCH_SERIES_K:
        x = -_branch_series(k)
    else:  # omega(zeta) from its region's start, zeta = k - 1 - i pi (left: i pi higher)
        zeta, c = (k - 1.0, k - 1.0 + 1j * math.pi) if left else (k - 1.0 - 1j * math.pi, k - 1.0)
        zr, zi = zeta.real, zeta.imag
        if -2.0 < zr <= 1.0 and -2.0 * math.pi < zi < -1.0:
            w = _branch_series(c + 1.0) - 1.0
        elif zr <= -2.0 and 0.0 < c.imag:
            v = cmath.exp(zeta) if zi > -0.5 * math.pi else -cmath.exp(c)
            w = v * _horner(_OMEGA_BETWEEN, v)
        elif -2.0 < zr and (-1.0 <= zi if zr <= 1.0
                            else (zr - 1.0) * (zr - 1.0) + zi * zi <= math.pi ** 2):
            w = _horner(_OMEGA_MUSHROOM, zeta - 1.0)
        elif zr <= -1.05 and 0.75 * (zr + 1.0) < c.imag:  # the wing below the cut
            w = _omega_far(c, cmath.log(-c))
        else:
            w = _omega_far(zeta, cmath.log(zeta))
        x = -1.0 - _fsc_step(w, c - w - cmath.log(-w) if w.real < 0.0
                             else zeta - w - cmath.log(w))
    p = 1.0 + x
    tail = cmath.log(-p if left else p) - x if left or abs(x) >= 0.25 else _log1p_series(x)
    moved = (x + (tail - k) * p / x) / a
    return u1 - moved.conjugate() if flip else u1 + moved


def _sloped_lanes(y: np.ndarray, piece: tuple) -> np.ndarray:
    """Lane-wise :func:`_sloped`: the same gate, start, one step and polish."""
    u0, u1, a, k0, flip, motion, root, span = piece
    w = y - u0
    resting = motion <= 2.0 ** -59 * (np.abs(w) + root)
    if resting.any():
        rest = _rest(w, -2.0 * span)
        resting &= motion <= 2.0 ** -60 * np.abs(rest)
        if resting.all():
            return u0 + rest
    x = a * (-w.conjugate() if flip else w)
    left = x.real < -1.0
    k = _log1p_tail(x, left) + k0
    with np.errstate(all="ignore"):  # both starts are formed on every lane, then picked
        omega = _wright_omega_lanes(np.where(left, k - 1.0, k - 1.0 - 1j * math.pi),
                                    np.where(left, k - 1.0 + 1j * math.pi, k - 1.0))
        x = np.where(~left & (np.abs(k) < _BRANCH_SERIES_K), -_branch_series(k), -1.0 - omega)
        moved = (x + (_log1p_tail(x, left) - k) * (1.0 + x) / x) / a
    moved = u1 + (-moved.conjugate() if flip else moved)
    return np.where(resting, u0 + rest, moved) if resting.any() else moved


def _crossing(w: complex, slope: float, span: float):
    """``(tau, x)``: a forward flow over a point-mass piece of rate ``slope`` from the offset
    ``w`` reaches ``Im = eps = EPS_SWALLOW`` after ``tau <= span`` at real offset ``x``, else
    ``None``; ``Im w**2`` falls, by at most ``2 tau``.  Resting (or moved < 2**-60 by the
    slope over ``min(tau, span)``: a far start's ``tau`` may overflow), ``Im w**2`` stays: a
    closed form, factored against cancellation and overflow.
    Else ``x = a w`` (``a = |slope|``, ``w -> -conj(w)`` if ``slope > 0``) keeps ``Im k``,
    ``k = log1p(x) - x``: ``1 + x* = m (cot p + i)``, ``m = a eps``, ``p = Im k + m``, and
    ``a**2 tau = Re(k - k*)``; a short crossing (``|u| < 1/4``, ``u = (1 + x)/(1 + x*) - 1``)
    takes ``Re(log1p(u) - u - u x*)``: ``arg(1 + x*) = arg(1 + x) - phi``, ``phi = Im x - m``."""
    re, im, eps = w.real, w.imag, EPS_SWALLOW
    h = 0.5 * (im - eps) * (im + eps)
    if h > span:
        return None
    r = re / eps
    tau, x = h * r * r + h, re * im / eps
    if slope != 0.0 and abs(slope) * min(tau, span) > 2.0 ** -60 * math.hypot(x, eps):
        a = abs(slope)
        x = a * (-w.conjugate() if slope > 0.0 else w)
        left = x.real < -1.0
        k, m, phi, u = complex(_log1p_tail(x, left)), a * eps, a * (im - eps), 1.0
        # p = Im k + m, with phi = arg(1 + x) - arg(1 + x*) in (0, pi) exact near the line
        p = cmath.phase(-1.0 - x if left else 1.0 + x) - phi  # k is i pi less left
        if not (-math.pi < p < 0.0 if left else 0.0 < p < math.pi):
            return None
        if phi < 0.25:
            e = complex(-2.0 * math.sin(0.5 * phi) ** 2, math.sin(phi))  # expm1(i phi)
            r = (phi ** 3 * _horner(_PHI_SIN, phi * phi) + (x * e.conjugate()).imag) / m
            u = e * (1.0 + r) + r  # r = |1 + x|/|1 + x*| - 1
        if abs(u) < 0.25:
            x = (x - u) / (1.0 + u)
            tau = complex(_log1p_tail(u, False)).real - (u * x).real
        else:
            x = complex(m * math.cos(p) / math.sin(p) - 1.0, m)
            tau = k.real - (complex(_log1p_tail(x, False)).real if abs(x) < 0.25
                            else math.log(m / abs(math.sin(p))) - x.real)
        tau, x = tau / (a * a), (-x.real if slope > 0.0 else x.real) / a
    return (tau, x) if tau <= span else None


# ---------------------------------------------------------------------------
# exact maps of semicircle and arcsine pieces, and of the semicircle family

#: 1/(2n + 3)! for n = 8 down to 0: ``sinh u - u = u**3 sum_n u**(2n)/(2n + 3)!``, to within
#: 2**-56 of itself for |u| < 1
_SINH_TAIL = tuple(1.0 / math.factorial(2 * n + 3) for n in range(8, -1, -1))

#: Newton steps an arcsine piece's map may take; the fuzz tests' cases take at most 5
_KEPLER_MAX_ITER = 50


def _log1p(x):
    """``log(1 + x)`` for complex lanes, Kahan's way: numpy's ``log1p`` loses digits at small x.
    np.log, not :func:`lane_log`: the trick needs the relative digits of ``log p`` at p ~ 1."""
    p = 1.0 + x
    return np.where(p == 1.0, x, np.log(p) * x / (p - 1.0))


def _sinh_tail(u):
    """``sinh u - u`` for lanes, by its series where the difference would cancel (|u| < 1)."""
    return np.where(np.abs(u) < 1.0, u * u * u * _horner(_SINH_TAIL, u * u), np.sinh(u) - u)


def _kepler(w, s, r: float, span: float):
    """Exact reverse map over ``span`` of a centred arcsine piece of radius ``r``, for flat
    lanes ``w`` with ``Re w >= 0`` and ``s = sqrt(w**2 - r**2)``.  ``int s dw`` (``s = 1/G``)
    falls by the span; in ``u = 2 acosh(w/r)`` it is ``r**2 (sinh u - u)/4``, the hyperbolic
    Kepler equation.  Newton in ``u`` starts from the lane's own ``u``, the edge series
    ``v - v**3/60``, ``v = (6 k)**(1/3)``, or three far-field steps of ``u = log(2 (k + u))``,
    whichever has the smallest residual, and stops once a step moves ``u`` by at most
    ``2**-40 min(1, |u|)``.  Past a crossing (a negative span) the map runs on below the axis."""
    u = 2.0 * _log1p((w - r + s) / r)  # acosh(w/r) = log((w + s)/r), exact near the edge w = r
    k = _sinh_tail(u) - 4.0 * span / (r * r)
    ang = np.angle(k)
    v = np.cbrt(6.0 * np.abs(k)) * np.exp(1j / 3.0 * np.where(ang < -0.25 * math.pi,
                                                              ang + 2.0 * math.pi, ang))
    far = 0.0
    for _ in range(4):  # np.log keeps the maps' bits; Im in [-pi/2, 3 pi/2)
        far = np.log(q := 2.0 * (k + far)) + 2j * math.pi * ((q.real < 0.0) & (q.imag < 0.0))
    starts = np.stack([u, v * (1.0 - v * v / 60.0), far])
    res = np.abs(_sinh_tail(starts) - k)
    u = starts[np.argmin(np.where(np.isnan(res), np.inf, res), axis=0), np.arange(u.size)]
    live = np.arange(u.size)
    for _ in range(_KEPLER_MAX_ITER):
        ul = u[live]
        step = (_sinh_tail(ul) - k[live]) / (2.0 * np.sinh(0.5 * ul) ** 2)
        u[live] = ul - step
        live = live[np.abs(step) > 2.0 ** -40 * np.minimum(1.0, np.abs(ul))]
        if not live.size:
            return r + 2.0 * r * np.sinh(0.25 * u) ** 2  # r cosh(u/2), exact near the edge
    raise NumericError(f"arcsine piece: Newton did not settle from w = {complex(w[live[0]])}")


def _law_piece(y, m, span: float):
    """Exact reverse map over ``span`` (forward over ``-span``) of a ``Semicircle`` or ``Arcsine``
    piece ``m``, for lanes; a complex scalar runs as one lane.  The law is symmetric, so
    ``w = y - c`` is reflected to ``Re w >= 0`` and back.  Semicircle of variance ``v``:
    ``x = F(y)**2/v - 1 = F s/v`` moves as a point mass of slope ``a = sqrt(2/v)``
    (:func:`_sloped_lanes` on ``x/a``), and ``w_1 = zeta + v/zeta``, ``zeta = sqrt(v (1 + x_1))``
    with ``Im zeta >= 0``; ``x`` is kept in the closed upper half-plane (on the axis ``Re w = 0``
    it is real, and rounded below it would take the other root).  Arcsine: :func:`_kepler`.
    Past ``_FAR`` a lane maps as a point mass resting at the center."""
    if not isinstance(y, np.ndarray):
        return complex(_law_piece(np.array([y]), m, span)[0])
    w = y.ravel() - m.center
    far = np.abs(w) >= _FAR  # where the law's correction to the resting map is below 1e-600
    if far.any():
        out = m.center + _rest(w, -2.0 * span)
        out[~far] = _law_piece(y.ravel()[~far], m, span)
        return out.reshape(y.shape)
    flip = w.real < 0.0
    w = np.where(flip, -w.conjugate(), w)
    s = halfplane_sqrt(w, m.radius)
    with np.errstate(all="ignore"):  # a forward map past its crossing may leave the numbers
        if isinstance(m, Semicircle):
            v, a = m.var, math.sqrt(2.0 / m.var)
            x = 0.5 * (w + s) * s / (v * a)
            x.imag = np.where(x.imag > 0.0, x.imag, 0.0)  # F**2 lies in the closed upper half
            zeta = np.sqrt(v * (1.0 + a * _sloped_lanes(x, _piece(0.0, 0.0, a, span))))
            w = zeta + v / zeta
        else:
            w = _kepler(w, s, m.radius, span)
    return (m.center + np.where(flip, -w.conjugate(), w)).reshape(y.shape)


def _law_forward(y: complex, m, span: float) -> complex | None:
    """The forward map of a law piece over ``span``; ``None`` where, past a crossing, it fails."""
    try:
        g = _law_piece(y, m, -span)
    except NumericError:
        return None
    return g if cmath.isfinite(g) else None


def _family_piece(y, r0: float, r1: float):
    """Exact reverse map of the semicircle family from driver time ``r0`` to ``r1``, scalar or
    lanes.  ``g_t(z) = z + t/z`` maps forward from 0 and ``f_t = F_{sigma_t}`` inverts it, so
    the anti-monotone map (``r1 < r0``) is ``g_{r1} o f_{r0}``.  The monotone flow keeps
    ``(zeta**2 + 3 tau)/sqrt(zeta)``, ``zeta = F_{sigma_tau}(phi)``, so ``sigma = sqrt(zeta_r1)``
    is a root of ``sigma**4 - M sigma + 3 r1``; ``(E**2 + 3)/sqrt(E)`` is univalent on ``{Im E >
    0, |E| > 1}`` (its boundary runs once round the rays to 4 and ``-4i`` and the astroid
    between), so one root has ``0 < arg sigma < pi/2`` and ``|sigma|**4 > r1``.  It is solved
    in ``x = sigma/sqrt(zeta_r0)``, ``x**4 - (1 + 3 r0/zeta**2) x + 3 r1/zeta**2 = 0``, with
    ``zeta = zeta_r0`` divided out twice, so no ``zeta**2`` overflows; of the batched companion
    eigenvalues the one deepest in that region is taken and polished by one Newton step."""
    zeta = 0.5 * (y + halfplane_sqrt(y, 2.0 * math.sqrt(r0)))
    if r1 < r0:
        return zeta + r1 / zeta
    if not isinstance(y, np.ndarray):
        return complex(_family_piece(np.array([y]), r0, r1)[0])
    m, c = 1.0 + 3.0 * r0 / zeta / zeta, 3.0 * r1 / zeta / zeta
    comp = np.zeros(y.shape + (4, 4), dtype=complex)
    comp[..., 0, 2], comp[..., 0, 3] = m, -c
    comp[..., 1, 0] = comp[..., 2, 1] = comp[..., 3, 2] = 1.0
    x = np.linalg.eigvals(comp)
    sig = x * np.sqrt(zeta)[..., None]
    arg = np.angle(sig)
    with np.errstate(divide="ignore"):  # far out, x = 0 is a root
        depth = np.minimum(np.log(np.abs(sig) / r1 ** 0.25), np.minimum(arg, 0.5 * math.pi - arg))
    x = np.take_along_axis(x, np.argmax(depth, axis=-1)[..., None], -1)[..., 0]
    x = x - (x ** 4 - m * x + c) / (4.0 * x ** 3 - m)
    zeta = zeta * (x * x)
    return zeta + r1 / zeta


# ---------------------------------------------------------------------------
# flows

@dataclass(frozen=True)
class FlowPoint:
    """Forward-flow result at one initial point."""

    value: complex
    alive: bool
    lifetime: float


@dataclass(frozen=True)
class HullTrace:
    """Slit trace: ``points[i]`` is the hull tip at ``times[i]``."""

    times: tuple
    points: tuple


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


def flow_forward(d: Driving, z: complex, t: float) -> FlowPoint:
    """Solve the forward equation ``dg/dt = G_{nu_t}(g)`` from ``g_0 = z``.

    The point is swallowed when its imaginary part falls to :data:`EPS_SWALLOW`; the
    swallowing time is the lifetime, with the state on the line ``Im g = EPS_SWALLOW`` as
    ``value``.  Every piece maps a survivor exactly, as the reverse map over the negated span
    (:func:`_atom_piece` with ``sense = -1``; :func:`_law_piece`), and the
    semicircle family by ``g_t(z) = z + t/z``.  A crossing is closed-form on a point mass
    (:func:`_crossing`) and on the family (``Im g_t = Im z (1 - t/|z|**2)``); on a semicircle
    or arcsine piece ``Im g`` falls monotonically, so the crossing time is the root of
    ``tau -> Im g_tau - EPS_SWALLOW`` (:func:`~loewner.transforms.illinois`, to 4 ulps of the
    span), where a map that fails past the crossing counts as below the line.
    """
    z = complex(z)
    _check(d, 0.0, t, z, what="flow_forward")
    if z.imag <= EPS_SWALLOW:
        return FlowPoint(z, False, 0.0)

    y = z
    for a, b, j in _segments(d, 0.0, t):
        line = d._lines[j]
        if line is not None:
            tj, u, slope = line
            crossing = _crossing(y - (u + slope * (a - tj)), slope, b - a)
            if crossing is None:  # forward in t is the reverse map run backwards
                y = (_sloped(y, d._pieces[j][2]) if slope and 0.0 < a and b < t
                     else _atom_piece(y, line, a, b, -1.0))
                continue
            tau, x = crossing
            life = min(max(a + tau, a), b)
            return FlowPoint(complex(u + slope * (life - tj) + x, EPS_SWALLOW), False, life)
        if isinstance(d, SemicircleFamily):  # its one piece starts at a = 0
            r2 = abs(y) * abs(y)  # ** would raise OverflowError past 1.34e154
            life = r2 * (1.0 - EPS_SWALLOW / y.imag)
            if life <= b:
                return FlowPoint(complex(y.real * (1.0 + life / r2), EPS_SWALLOW), False, life)
            y = y + b / y
            continue
        m, span = d.measures[j], b - a
        g = _law_forward(y, m, span)
        if g is not None and g.imag > EPS_SWALLOW:
            y = g
            continue
        height = lambda g: -1.0 if g is None else g.imag - EPS_SWALLOW
        tau = illinois(lambda tau: height(_law_forward(y, m, tau)), 0.0, span,
                       y.imag - EPS_SWALLOW, height(g), 4.0 * math.ulp(span))
        return FlowPoint(complex(_law_forward(y, m, tau).real, EPS_SWALLOW), False, a + tau)
    return FlowPoint(y, True, math.inf)


def _solve_reverse(d: Driving, s: float, t: float, z, anti: bool = False):
    """Solve ``dy/dr = -G_{nu_r}(y)`` up from ``y(s) = z`` to driver time ``t``, or with
    ``anti`` ``dy/dr = +G_{nu_r}(y)`` down from ``y(t) = z`` to ``s``: the same segments
    (:func:`_segments`), taken top-down.

    The walk reads the driver's tables, and every piece maps exactly, a complex ``z`` as a
    scalar and an ndarray's starts all at once: a point mass by :func:`_atom_piece` (a whole
    sloped one from its table entry), a semicircle or arcsine piece by :func:`_law_piece` and
    the semicircle family by :func:`_family_piece`.
    """
    sloped, y = (_sloped_lanes if isinstance(z, np.ndarray) else _sloped), z
    segments = _segments(d, s, t)
    for lo, hi, j in reversed(list(segments)) if anti else segments:
        r0, r1 = (hi, lo) if anti else (lo, hi)
        line = d._lines[j]
        if line is not None:  # a whole sloped piece reads its table entry
            y = (sloped(y, d._pieces[j][anti]) if line[2] and s < lo and hi < t
                 else _atom_piece(y, line, r0, r1, -1.0 if anti else 1.0))
        elif isinstance(d, SemicircleFamily):
            y = _family_piece(y, r0, r1)
        else:
            y = _law_piece(y, d.measures[j], hi - lo)
    return y


def flow_reverse(d: Driving, s: float, t: float, z: complex) -> complex:
    """Reverse flow ``phi_{s,t}(z)``: ``dphi/dt = -G_{nu_t}(phi)``, ``phi_{s,s} = z``.

    The value stays in the open upper half-plane with nondecreasing imaginary part; it is
    the F-transform of a probability measure in ``z``.  ``z`` may be an ndarray of starts,
    mapped together as lanes; every start must be finite, with ``Im z > 0``.
    """
    z = as_points(z)
    _check(d, s, t, z, what="flow_reverse")
    return _solve_reverse(d, s, t, z)


def flow_reverse_anti(d: Driving, s: float, t: float, z: complex) -> complex:
    """Anti-monotone reverse flow: ``dphi/ds = G_{nu_s}(phi)`` down from ``phi_{t,t} = z``.

    For time-constant drivers this coincides with :func:`flow_reverse` by the time symmetry
    of the equation.  ``z`` may be an ndarray of starts, each finite, with ``Im z > 0``.
    """
    z = as_points(z)
    _check(d, s, t, z, what="flow_reverse_anti")
    return _solve_reverse(d, s, t, z, anti=True)


def inverse_map(d: Driving, t: float, z: complex, *, check: bool = True) -> complex:
    """Inverse ``f_t = g_t^{-1}`` of the forward map: ``phi_{0,t}`` of the anti-monotone family.

    Solves ``dw/dsigma = -G_{nu_{t - sigma}}(w)`` from ``w(0) = z`` (:func:`flow_reverse_anti`);
    when ``check`` is set and ``t > 0``, verifies ``g_t(f_t(z)) = z`` within
    ``1e-6 max(1, |z|)``, else raises ``NotInImageError``.
    """
    z = complex(z)
    y = flow_reverse_anti(d, 0.0, t, z)
    if check and t > 0:  # at t = 0 the round trip would swallow a start below EPS_SWALLOW
        back = flow_forward(d, y, t)
        if not back.alive or abs(back.value - z) > 1e-6 * max(1.0, abs(z)):
            raise NotInImageError(f"not in image: round trip error at z = {z}")
    return y


def trace(d: AtomPath, times: Sequence[float]) -> HullTrace:
    """Hull trace ``gamma(t) = f_t(U(t))`` for a point-mass driver.

    The tip is the anti-monotone reverse solve of the boundary point ``U(t)`` down to time
    0 (:func:`_solve_reverse`), one exact map per driver piece.
    """
    if not isinstance(d, AtomPath):
        raise ValidationError("trace needs an AtomPath driver")
    pts = []
    for t in times:
        _check(d, 0.0, t, what="trace")
        pts.append(complex(_solve_reverse(d, 0.0, t, d.u(t), anti=True)))
    return HullTrace(tuple(times), tuple(pts))


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
    """``expm1(x) - x``, by its series where the difference would cancel (|x| < 1).  Only
    the shot pieces with ``|a s| < 1/4`` still call it (:func:`_shot_piece`)."""
    if abs(x) >= 1.0:
        return math.expm1(x) - x
    return _horner(_EXPM1_TAIL, x) * x * x


def _shot_piece(s: float, a: float, span: float) -> float:
    """Exact map of ``ds/dt = 1/s - a`` over ``span`` from ``s >= 0``: a welding shot's
    ``s = sqrt(q)`` on one driver piece, with ``a = side * slope``.

    With ``p = 1 - a s`` and ``L = log(p_1 / p)`` the piece solves
    ``G(L) = p expm1(L) - L - a**2 span = 0`` (Kager, Nienhuis & Kadanoff 2004), and
    ``s_1 = s - p expm1(L) / a``; ``s`` never crosses ``1/a``.  Where ``|a s| >= 1/4``,
    ``G`` is formed as written, since ``p expm1(L) - L`` then cancels by at most
    ``(1 + |a s|)/|a s| <= 5`` (2 bits); below, ``expm1(L) - L`` comes from its series.
    ``G' = -a s_1`` and ``G'' = p e**L``, so Newton started where ``G`` and ``G''`` share
    a sign moves monotonically to the one root on the solution's side, and stops when a
    step no longer moves it that way: no iteration cap, in either form.  Where ``a``
    would move ``s`` by less than 2**-60 of itself over the span, the resting map
    ``sqrt(s**2 + 2 span)`` is returned.
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
    direct = abs(a * s) >= 0.25  # p expm1(L) - L then cancels by at most 5: 2 bits
    while True:
        em = math.expm1(big_l)
        g = p * em - big_l - c if direct else _expm1_tail(big_l) - a * s * em - c
        nxt = big_l - g / (p * em - a * s)
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
    s = 0.0
    for lo, hi, j in _segments(d, tau, big_t):
        s = _shot_piece(s, side * d._lines[j][2], hi - lo)
        # q grows like 2 (t - tau) from its birth; below EPS_SWALLOW**2 afterwards it is
        # back.  s is monotone on a piece, so the piece's end decides.
        if s * s < min(EPS_SWALLOW ** 2, hi - tau):
            raise NotASlitError("not a slit: lifetime gap inside the welding interval "
                                f"(the shot from t = {tau} returns to the driver)")
    return d.u(big_t) + side * s


def welding(d: AtomPath, big_t: float, npairs: int = 50) -> Welding:
    """Conformal welding of the hull at time ``T`` for a point-mass driver.

    The slit point born at ``tau`` has the welded preimages ``x_-(tau) < u <
    x_+(tau) = h(x_-(tau))`` (:func:`_shot`); ``a`` and ``b`` are those of ``tau = 0``,
    ``u = U(T)``.  A table of shots brackets the ``tau`` of each ``x``, the Illinois
    secant refines it, and ``h(x)`` is shot from there.  Shots are exact per driver
    piece and take no integration step.  A shot that returns to the driver, or ``x_-``
    not increasing or ``x_+`` not decreasing, is ``NotASlitError``; if every reversal
    is within ``WELDING_TOL max(1, |x|)``, the welding is unresolved instead.
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
    if wrong and all(shift <= WELDING_TOL * max(1.0, abs(x)) for shift, x, _ in wrong):
        raise NumericError(f"welding unresolved in double precision: shots from tau <= "
                           f"{max(t for *_, t in wrong):.6g} land within {max(wrong)[0]:.1e} "
                           "of each other")
    if wrong:
        raise NotASlitError("not a slit: lifetime is not unimodal")
    u, a, b = d.u(big_t), lefts[-1], rights[-1]
    pairs = []  # at x spaced evenly over (a, u), 2% of it away from each end
    for x in np.linspace(a + 0.02 * (u - a), u - 0.02 * (u - a), npairs).tolist():
        k = next(i for i in range(len(ss) - 1) if lefts[i + 1] <= x)
        s = illinois(lambda s: _shot(d, birth(s), big_t, -1.0) - x, ss[k], ss[k + 1],
                     lefts[k] - x, lefts[k + 1] - x, 1e-15 * ss[-1])
        pairs.append((x, _shot(d, birth(s), big_t, 1.0)))
    return Welding(a=a, b=b, u=u, pairs=tuple(pairs))

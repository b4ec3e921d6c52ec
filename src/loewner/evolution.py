"""Evolution families over the Loewner flows.

A two-parameter family ``sigma_{s,t}`` is represented through its transform:
F-transforms for the monotone and anti-monotone semantics (delegating to the
reverse flows) and R-transforms for the free semantics, where

    R_{s,t}(z) = integral over tau in [s, t] of G_{nu_tau}(1/z)

is computed exactly for piecewise-structured drivers and by adaptive
quadrature otherwise.  Also here: seeded Brownian driving paths, the symbolic
convolution-chain approximation of the reverse flow, and the inviscid-Burgers
residual diagnostic for the fixed point of the Loewner correspondence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailureError, ValidationError
from .flows import (
    DEFAULT_TOL,
    AtomPath,
    Driving,
    MeasurePath,
    flow_reverse,
    flow_reverse_anti,
    inverse_map,
    _check_horizon,
    _segments,
)
from .transforms import AnalyticMap, F, R, as_cauchy, cauchy_from_r, halfplane_sqrt, invert_stieltjes

MONOTONE = "monotone"
ANTI_MONOTONE = "anti-monotone"
FREE = "free"
_SEMANTICS = (MONOTONE, ANTI_MONOTONE, FREE)


def _adaptive_simpson(fun, a: float, b: float, tol: float = 1e-12, max_depth: int = 30):
    """Adaptive Simpson quadrature for a complex-valued integrand."""

    def recurse(lo, hi, flo, fmid, fhi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fun(lm), fun(rm)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        if abs(left + right - whole) <= 15.0 * budget:
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            raise QuadratureFailureError("quadrature failure: refinement depth exceeded")
        return (recurse(lo, mid, flo, flm, fmid, left, 0.5 * budget, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, 0.5 * budget, depth + 1))

    if b <= a:
        return 0.0 + 0.0j
    fa_, fm_, fb_ = fun(a), fun(0.5 * (a + b)), fun(b)
    whole = (b - a) / 6.0 * (fa_ + 4.0 * fm_ + fb_)
    return recurse(a, b, fa_, fm_, fb_, whole, tol, 0)


def _free_r_atom_segment(w: complex, u1: float, u2: float, tau1: float, tau2: float) -> complex:
    # integral of 1/(w - U(tau)) over [tau1, tau2] with U linear between u1, u2
    beta = (u2 - u1) / (tau2 - tau1)
    if beta == 0.0:
        return (tau2 - tau1) / (w - u1)
    # Im w != 0 keeps the whole segment on one side of the log branch cut
    return (np.log(w - u1) - np.log(w - u2)) / beta


def _free_r_value(d: Driving, s: float, t: float, z: complex, tol: float) -> complex:
    w = 1.0 / complex(z)
    if not isinstance(d, (MeasurePath, AtomPath)):
        return _adaptive_simpson(lambda tau: d.cauchy(tau, w), s, t, tol=1e-12)
    total = 0.0 + 0.0j
    for lo, hi, g in _segments(d, s, t):
        if isinstance(d, MeasurePath):
            total += (hi - lo) * g(lo, w)
        else:
            total += _free_r_atom_segment(w, d.u(lo), d.u(hi), lo, hi)
    return total


class EvolutionFamily:
    """Two-parameter family of transforms with a convolution semantics.

    ``eval(s, t, z)`` returns the F-transform value ``phi_{s,t}(z)`` for the
    monotone and anti-monotone semantics and the R-transform value
    ``R_{s,t}(z)`` for the free semantics.  Every family here is normal: the
    represented measure ``sigma_{s,t}`` has mean 0 and variance ``t - s``.
    """

    def __init__(self, semantics: str, driving: Driving, tol: float = DEFAULT_TOL):
        if semantics not in _SEMANTICS:
            raise ValidationError(f"unknown semantics {semantics!r}")
        self.semantics = semantics
        self.driving = driving
        self.tol = tol

    def eval(self, s: float, t: float, z: complex) -> complex:
        if not (0 <= s <= t):
            raise ValidationError("need 0 <= s <= t")
        _check_horizon(self.driving, t)
        if self.semantics == MONOTONE:
            return flow_reverse(self.driving, s, t, z, self.tol)
        if self.semantics == ANTI_MONOTONE:
            return flow_reverse_anti(self.driving, s, t, z, self.tol)
        if s == t:
            return 0.0 + 0.0j
        return _free_r_value(self.driving, s, t, z, self.tol)

    __call__ = eval

    def transform(self, s: float, t: float) -> AnalyticMap:
        """The slice ``z -> eval(s, t, z)`` as a tagged analytic map."""
        kind = R if self.semantics == FREE else F
        return AnalyticMap(kind, lambda z: self.eval(s, t, z), mean=0.0, variance=t - s,
                           domain=(0.0, 0.5) if kind == R else None)

    def cauchy_map(self, s: float, t: float) -> AnalyticMap:
        """Cauchy transform of ``sigma_{s,t}`` (Newton inversion for free)."""
        tr = self.transform(s, t)
        if self.semantics == FREE:
            return cauchy_from_r(tr)
        return as_cauchy(tr)

    def measure(self, s: float, t: float, grid, eps: float):
        """Materialize ``sigma_{s,t}`` on a grid via Stieltjes inversion."""
        return invert_stieltjes(self.cauchy_map(s, t), grid, eps)


def monotone_family(d: Driving, tol: float = DEFAULT_TOL) -> EvolutionFamily:
    """Normal monotone evolution family of the reverse Loewner flow."""
    return EvolutionFamily(MONOTONE, d, tol)


def anti_monotone_family(d: Driving, tol: float = DEFAULT_TOL) -> EvolutionFamily:
    """Normal anti-monotone evolution family (reversed composition order)."""
    return EvolutionFamily(ANTI_MONOTONE, d, tol)


def free_family(d: Driving, tol: float = DEFAULT_TOL) -> EvolutionFamily:
    """Normal free evolution family with additive R-transforms."""
    return EvolutionFamily(FREE, d, tol)


def sle_driving(kappa: float, dt: float, horizon: float, seed: int) -> AtomPath:
    """Sampled Brownian driving path ``U(t) = sqrt(kappa/2) B_t``.

    Increments come from a counter-based generator keyed by ``seed``, so the
    path is bit-identical across runs; samples are linearly interpolated.
    """
    if kappa < 0:
        raise ValidationError("kappa must be nonnegative")
    if not (0 < dt <= horizon):
        raise ValidationError("need 0 < dt <= horizon")
    n = int(math.ceil(horizon / dt - 1e-12))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    steps = rng.standard_normal(n) * math.sqrt(0.5 * kappa * dt)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    times = dt * np.arange(n + 1)
    return AtomPath(times, values)


def _driver_value(d: Driving, q: float) -> float:
    if isinstance(d, AtomPath):
        return d.u(q)
    if isinstance(d, MeasurePath):
        m = d.measure_at(q)
        if not hasattr(m, "location"):
            raise ValidationError("chain approximation needs point-mass driving")
        return m.location
    raise ValidationError("chain approximation needs a point-mass driving family")


def chain_approximation(d: Driving, dt: float, K: int, shift: str = "left") -> AnalyticMap:
    """Symbolic convolution-chain approximation of the reverse flow at ``K dt``.

    Composes the maps ``z -> delta_k + sqrt((z - delta_k)^2 - 2 dt)`` (the
    F-transform of a recentered arcsine step) with ``k = 0`` applied first.
    ``shift`` picks the recentering of step ``k``:

    * ``"left"``:       driver value at ``k dt`` (exact when the driver is
      constant on each step, e.g. a piecewise-constant point-mass path)
    * ``"right"``:      driver value at ``(k+1) dt``
    * ``"increment"``:  ``U((k+1) dt) - U(k dt)``, the sampled-increment form
      used when approximating a Brownian driver

    No ODE is involved, so chains of any length carry only round-off.
    """
    if shift not in ("left", "right", "increment"):
        raise ValidationError(f"unknown shift mode {shift!r}")
    if not (dt > 0 and K >= 0):
        raise ValidationError("need dt > 0 and K >= 0")
    _check_horizon(d, K * dt)
    shifts = []
    for k in range(K):
        if shift == "left":
            shifts.append(_driver_value(d, k * dt))
        elif shift == "right":
            shifts.append(_driver_value(d, (k + 1) * dt))
        else:
            shifts.append(_driver_value(d, (k + 1) * dt) - _driver_value(d, k * dt))
    radius = math.sqrt(2.0 * dt)

    def fn(z: complex) -> complex:
        w = complex(z)
        for delta in shifts:
            w = delta + halfplane_sqrt(w, radius, delta)
        return w

    return AnalyticMap(F, fn, mean=0.0, variance=K * dt)


def burgers_residual_of(big_g, ts, zs, step: float = 1e-3) -> float:
    """Max residual of ``dG/dt + G dG/dz = 0`` for a callable ``G(t, z)``.

    Central differences of width ``step`` in both variables; the time
    derivative falls back to a one-sided difference below ``t = step``.
    """
    worst = 0.0
    for t in ts:
        for z in zs:
            here = big_g(t, z)
            if t >= step:
                d_t = (big_g(t + step, z) - big_g(t - step, z)) / (2.0 * step)
            else:
                d_t = (big_g(t + step, z) - here) / step
            d_z = (big_g(t, z + step) - big_g(t, z - step)) / (2.0 * step)
            worst = max(worst, abs(d_t + here * d_z))
    return worst


def burgers_residual(d: Driving, ts, zs, step: float = 1e-3,
                     tol: float = DEFAULT_TOL) -> float:
    """Burgers residual of ``G_t = 1/f_t`` computed through the inverse map.

    Vanishes (to discretization error) exactly when the driving is the
    semicircle family, the unique fixed point of the Loewner correspondence.
    """

    def big_g(t: float, z: complex) -> complex:
        if t <= 0.0:
            return 1.0 / complex(z)
        return 1.0 / inverse_map(d, t, z, tol)

    return burgers_residual_of(big_g, ts, zs, step)

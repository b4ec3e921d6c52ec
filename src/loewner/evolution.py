"""Evolution families over the Loewner flows.

A two-parameter family ``sigma_{s,t}`` is represented through its transform:
F-transforms for the monotone and anti-monotone semantics (delegating to the
reverse flows) and R-transforms for the free semantics, where

    R_{s,t}(z) = integral over tau in [s, t] of G_{nu_tau}(1/z)

is computed exactly: each driver integrates its own Cauchy transform piece by
piece (``integral``).  Also here: seeded Brownian driving paths, the symbolic
convolution-chain approximation of the reverse flow, and the inviscid-Burgers
residual diagnostic for the fixed point of the Loewner correspondence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .flows import (
    DEFAULT_TOL,
    AtomPath,
    Driving,
    flow_reverse,
    flow_reverse_anti,
    inverse_map,
    _check,
    _segments,
)
from .transforms import (
    AnalyticMap,
    F,
    R,
    as_points,
    halfplane_sqrt,
    invert_stieltjes,
    to_cauchy,
)

MONOTONE = "monotone"
ANTI_MONOTONE = "anti-monotone"
FREE = "free"
_SEMANTICS = (MONOTONE, ANTI_MONOTONE, FREE)


class EvolutionFamily:
    """Two-parameter family of transforms with a convolution semantics.

    ``eval(s, t, z)`` returns the F-transform value ``phi_{s,t}(z)`` for the
    monotone and anti-monotone semantics and the R-transform value
    ``R_{s,t}(z)`` for the free semantics.  Every family here is normal: the
    represented measure ``sigma_{s,t}`` has mean 0 and variance ``t - s``.
    ``tol`` governs the reverse flows only; the free values are exact.
    """

    def __init__(self, semantics: str, driving: Driving, tol: float = DEFAULT_TOL):
        if semantics not in _SEMANTICS:
            raise ValidationError(f"unknown semantics {semantics!r}")
        self.semantics = semantics
        self.driving = driving
        self.tol = tol

    def eval(self, s: float, t: float, z):
        """Value at ``z``, a complex scalar or ndarray (the reverse flows run
        all points of an array together through the lane kernel)."""
        if self.semantics == MONOTONE:
            return flow_reverse(self.driving, s, t, z, self.tol)
        if self.semantics == ANTI_MONOTONE:
            return flow_reverse_anti(self.driving, s, t, z, self.tol)
        _check(self.driving, s, t, what="free evolution")
        z = as_points(z)
        if np.any(z == 0):
            raise ValidationError("free evolution needs z != 0 (it runs in w = 1/z)")
        d, w = self.driving, 1.0 / z
        return sum((d.integral(lo, hi, w) for lo, hi, _ in _segments(d, s, t)), 0.0 * w)

    __call__ = eval

    def transform(self, s: float, t: float) -> AnalyticMap:
        """The slice ``z -> eval(s, t, z)`` as a tagged analytic map."""
        kind = R if self.semantics == FREE else F
        return AnalyticMap(kind, lambda z: self.eval(s, t, z), mean=0.0, variance=t - s,
                           domain=(0.0, 0.5) if kind == R else None)

    def cauchy_map(self, s: float, t: float) -> AnalyticMap:
        """Cauchy transform of ``sigma_{s,t}`` (Newton inversion for free)."""
        return to_cauchy(self.transform(s, t))

    def measure(self, s: float, t: float, grid, eps: float):
        """Materialize ``sigma_{s,t}`` on a grid via Stieltjes inversion.

        Every grid node, at both inversion heights, is one lane of a single
        solve: a reverse flow for the monotone and anti-monotone semantics, a
        Newton inversion of the R-transform for the free one.
        """
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
    if not 0 <= kappa < math.inf:
        raise ValidationError(f"kappa must be finite and nonnegative, got {kappa}")
    if not (0 < dt <= horizon < math.inf):
        raise ValidationError("need 0 < dt <= horizon < inf")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    n = int(math.ceil(horizon / dt - 1e-12))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    steps = rng.standard_normal(n) * math.sqrt(0.5 * kappa * dt)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    times = dt * np.arange(n + 1)
    return AtomPath(times, values)


def _driver_value(d: Driving, q: float) -> float:
    line = getattr(d.piece(q, q), "line", None)
    if line is None:
        raise ValidationError("chain approximation needs a point-mass driving family")
    return line[1] + line[2] * (q - line[0])  # U(q) = u_j + slope (q - t_j)


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
    _check(d, 0.0, K * dt, what="chain_approximation")
    shifts = []
    for k in range(K):
        if shift == "left":
            shifts.append(_driver_value(d, k * dt))
        elif shift == "right":
            shifts.append(_driver_value(d, (k + 1) * dt))
        else:
            shifts.append(_driver_value(d, (k + 1) * dt) - _driver_value(d, k * dt))
    radius = math.sqrt(2.0 * dt)

    def fn(z):
        w = as_points(z)
        for delta in shifts:
            w = delta + halfplane_sqrt(w, radius, delta)
        return w

    return AnalyticMap(F, fn, mean=0.0, variance=K * dt)


def burgers_residual_of(big_g, ts, zs, step: float = 1e-3) -> float:
    """Max residual of ``dG/dt + G dG/dz = 0`` for a callable ``G(t, z)``.

    Central differences of width ``step`` in both variables; the time
    derivative falls back to a one-sided difference below ``t = step``.
    """
    if not (0.0 < step < math.inf):
        raise ValidationError(f"step must be finite and positive, got {step}")
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

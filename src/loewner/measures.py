"""Probability measures on the real line.

Three closed-form families (point mass, semicircle, arcsine) plus an
``Empirical`` variant that stores atoms together with a density sampled on a
uniform grid (linear interpolation between nodes).  All measures are immutable
values; every operation here is pure.

The semicircle law with variance ``v`` has density ``sqrt(4v - x^2)/(2 pi v)``
on ``[-2 sqrt(v), 2 sqrt(v)]``; the arcsine law with variance ``v`` has density
``1/(pi sqrt(2v - x^2))`` on ``[-sqrt(2v), sqrt(2v)]``.  Both optionally carry
a ``center`` so that shifts of the named families stay closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import AtomicPointError, ValidationError

#: total-mass slack allowed when constructing a measure
MASS_TOL = 1e-9

#: raw moments above this order are not trusted for gridded densities
MAX_MOMENT_ORDER = 16


@dataclass(frozen=True)
class Dirac:
    """Unit point mass at ``location``."""

    location: float
    kind = "dirac"

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValidationError("Dirac location must be finite")


@dataclass(frozen=True)
class _CenteredLaw:
    """A named law fixed by its variance ``var`` and its ``center``."""

    var: float
    center: float = 0.0

    def __post_init__(self):
        if not (0 < self.var < math.inf):
            raise ValidationError(f"{type(self).__name__} variance must be positive and finite")
        if not math.isfinite(self.radius):  # 2 var overflows near the float limit
            raise ValidationError(f"{type(self).__name__} of variance {self.var!r} "
                                  "has an infinite radius")


@dataclass(frozen=True)
class Semicircle(_CenteredLaw):
    """Semicircle law with variance ``var`` centered at ``center``."""

    kind = "semicircle"

    @property
    def radius(self) -> float:
        return 2.0 * math.sqrt(self.var)


@dataclass(frozen=True)
class Arcsine(_CenteredLaw):
    """Arcsine law with variance ``var`` centered at ``center``."""

    kind = "arcsine"

    @property
    def radius(self) -> float:
        return math.sqrt(2.0 * self.var)


@dataclass(frozen=True, eq=False)
class Empirical:
    """Atoms plus an optional gridded density.

    Parameters
    ----------
    atoms : sequence of (location, mass) pairs
    a, b : float, optional
        Endpoints of the uniform density grid, ``a < b``.
    values : array of float, optional
        Density samples on ``linspace(a, b, len(values))``; interpreted by
        linear interpolation between nodes.

    Atom masses plus the trapezoid integral of the density must total one
    (within ``MASS_TOL``).
    """

    atoms: tuple = ()
    a: float | None = None
    b: float | None = None
    values: np.ndarray | None = None
    kind = "empirical"

    def __post_init__(self):
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for x, m in atoms:
            if not (0.0 <= m <= 1.0):
                raise ValidationError(f"atom mass {m} outside [0, 1]")
        has_density = self.values is not None
        if has_density:
            if self.a is None or self.b is None:
                raise ValidationError("density grid needs both endpoints")
            if not (self.a < self.b):
                raise ValidationError("density grid endpoints must satisfy a < b")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1 or vals.size < 2:
                raise ValidationError("density grid needs at least two nodes")
            if np.any(vals < 0):
                raise ValidationError("density values must be non-negative")
            vals = vals.copy()
            vals.flags.writeable = False
            object.__setattr__(self, "values", vals)
        elif self.a is not None or self.b is not None:
            raise ValidationError("grid endpoints given without density values")
        total = sum(m for _, m in atoms)
        if has_density:
            total += float(np.trapezoid(self.values, self.grid()))
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"total mass {total!r} is not 1 within {MASS_TOL}")

    def grid(self) -> np.ndarray:
        if self.values is None:
            raise ValidationError("measure has no density grid")
        return np.linspace(self.a, self.b, len(self.values))


Measure = Union[Dirac, Semicircle, Arcsine, Empirical]

#: names of the one-parameter specs ``name:param``, aliases included
SPECS = {"dirac": Dirac, "semicircle": Semicircle, "sc": Semicircle,
         "arcsine": Arcsine, "arc": Arcsine}


def from_spec(name: str, param: str) -> Measure:
    """The measure of the spec ``name:param``, e.g. ``sc:1``; an unknown name or a
    non-numeric parameter raises ``ValidationError``."""
    if name not in SPECS:
        raise ValidationError(f"unknown measure {name!r}; expected one of {', '.join(SPECS)}")
    try:
        value = float(param)
    except ValueError:
        raise ValidationError(f"measure {name} needs a number, got {param!r}") from None
    return SPECS[name](value)


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments ``values[k] = m_k`` starting at ``m_0 = 1``.

    Construction checks moment-problem consistency: the Hankel matrix of the
    truncated sequence must be positive semidefinite within 1e-8.
    """

    values: tuple = field(default=(1.0,))

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or abs(vals[0] - 1.0) > MASS_TOL:
            raise ValidationError("moment sequence must start at m_0 = 1")
        k = (len(vals) - 1) // 2
        hank = np.array([[vals[i + j] for j in range(k + 1)] for i in range(k + 1)])
        lo = float(np.linalg.eigvalsh(hank)[0])
        if lo < -1e-8 * max(1.0, float(np.abs(hank).max())):
            raise ValidationError(f"Hankel matrix has eigenvalue {lo}; not a moment sequence")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __iter__(self):
        return iter(self.values)


def density_at(m: Measure, x: float) -> float:
    """Density of the continuous part at ``x``; zero outside the support.

    Raises
    ------
    AtomicPointError
        If ``x`` is exactly an atom location (point masses have no density).
    """
    if isinstance(m, Dirac):
        if x == m.location:
            raise AtomicPointError(f"atomic point at {x}")
        return 0.0
    if isinstance(m, Semicircle):
        u = x - m.center
        r2 = m.radius * m.radius
        if u * u >= r2:
            return 0.0
        return math.sqrt(r2 - u * u) / (2.0 * math.pi * m.var)
    if isinstance(m, Arcsine):
        u = x - m.center
        c2 = 2.0 * m.var
        if u * u > c2:
            return 0.0
        if u * u == c2:
            return math.inf
        return 1.0 / (math.pi * math.sqrt(c2 - u * u))
    if isinstance(m, Empirical):
        if any(x == loc for loc, _ in m.atoms):
            raise AtomicPointError(f"atomic point at {x}")
        if m.values is None or not (m.a <= x <= m.b):
            return 0.0
        return float(np.interp(x, m.grid(), m.values))
    raise ValidationError(f"not a measure: {m!r}")


_CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


def _centered_even_moments(m: Measure, n: int) -> list:
    """Central moments 0..n of a mean-zero named family (odd ones vanish)."""
    out = [0.0] * (n + 1)
    out[0] = 1.0
    if isinstance(m, Semicircle):
        for j in range(1, n // 2 + 1):
            out[2 * j] = _CATALAN[j] * m.var**j
    else:  # Arcsine
        for j in range(1, n // 2 + 1):
            out[2 * j] = math.comb(2 * j, j) * m.var**j / 2.0**j
    return out


def _shift_moments(central: list, c: float) -> list:
    """Raw moments of the translate by ``c`` from central moments."""
    n = len(central) - 1
    out = []
    for k in range(n + 1):
        out.append(sum(math.comb(k, j) * c ** (k - j) * central[j] for j in range(k + 1)))
    return out


def _grid_moment(xs: np.ndarray, vals: np.ndarray, k: int) -> float:
    # x^k times a piecewise-linear density is a degree k+1 polynomial per
    # segment, so fixed-order Gauss-Legendre integrates it exactly.
    order = k // 2 + 2
    nodes, wts = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (xs[:-1] + xs[1:])
    half = 0.5 * np.diff(xs)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    slope = (vals[1:] - vals[:-1]) / np.diff(xs)
    dens = vals[:-1][:, None] + slope[:, None] * (pts - xs[:-1][:, None])
    return float(np.sum(half[:, None] * wts[None, :] * dens * pts**k))


def moments(m: Measure, n: int) -> MomentSequence:
    """Raw moments of order 0..n (closed form for the named families).

    ``n`` is capped at :data:`MAX_MOMENT_ORDER`; higher raw moments of gridded
    densities lose too many digits to be trusted.
    """
    if not (0 <= n <= MAX_MOMENT_ORDER):
        raise ValidationError(f"moment order must lie in [0, {MAX_MOMENT_ORDER}]")
    if isinstance(m, Dirac):
        vals = [m.location**k for k in range(n + 1)]
    elif isinstance(m, _CenteredLaw):
        vals = _shift_moments(_centered_even_moments(m, n), m.center)
    elif isinstance(m, Empirical):
        vals = []
        for k in range(n + 1):
            acc = sum(w * x**k for x, w in m.atoms)
            if m.values is not None:
                acc += _grid_moment(m.grid(), m.values, k)
            vals.append(acc)
    else:
        raise ValidationError(f"not a measure: {m!r}")
    return MomentSequence(tuple(vals))


def _affine(m: Measure, lam: float, a: float) -> Measure:
    """Pushforward under ``x -> lam * x + a`` for ``lam > 0``; named families scale their
    variance by ``lam**2``."""
    if isinstance(m, Dirac):
        return Dirac(lam * m.location + a)
    if isinstance(m, _CenteredLaw):
        return type(m)(lam * lam * m.var, lam * m.center + a)
    if isinstance(m, Empirical):
        return Empirical(
            atoms=tuple((lam * x + a, w) for x, w in m.atoms),
            a=None if m.a is None else lam * m.a + a,
            b=None if m.b is None else lam * m.b + a,
            values=None if m.values is None else np.asarray(m.values) / lam,
        )
    raise ValidationError(f"not a measure: {m!r}")


def shift(m: Measure, a: float) -> Measure:
    """Pushforward under ``x -> x + a`` (exact on every variant: ``1 * x`` is ``x``)."""
    return _affine(m, 1.0, a)


def dilate(m: Measure, lam: float) -> Measure:
    """Pushforward under ``x -> lam * x`` for ``lam > 0``.

    Named families scale their variance by ``lam**2``.  The offset is ``-0.0``, the
    additive identity, so a signed zero keeps its sign.
    """
    if not (lam > 0):
        raise ValidationError("dilation factor must be positive")
    return _affine(m, lam, -0.0)


def support(m: Measure):
    """Closed support: ``(interval, atom_locations)`` with ``interval`` a
    ``(lo, hi)`` pair or ``None`` when there is no continuous part."""
    if isinstance(m, Dirac):
        return None, [m.location]
    if isinstance(m, _CenteredLaw):
        return (m.center - m.radius, m.center + m.radius), []
    if isinstance(m, Empirical):
        locs = [x for x, w in m.atoms if w > 0]
        if m.values is None:
            return None, locs
        nz = np.nonzero(np.asarray(m.values) > 0)[0]
        if nz.size == 0:
            return None, locs
        xs = m.grid()
        return (float(xs[nz[0]]), float(xs[nz[-1]])), locs
    raise ValidationError(f"not a measure: {m!r}")


def mean_variance(m: Measure):
    """Mean and variance (closed form where available)."""
    if isinstance(m, Dirac):
        return m.location, 0.0
    if isinstance(m, _CenteredLaw):
        return m.center, m.var
    seq = moments(m, 2)
    return seq[1], seq[2] - seq[1] ** 2


def to_dict(m: Measure) -> dict:
    """Serializable description, e.g. ``{"kind": "semicircle", "var": 1.0}``."""
    if isinstance(m, Dirac):
        return {"kind": m.kind, "location": m.location}
    if isinstance(m, _CenteredLaw):
        out = {"kind": m.kind, "var": m.var}
        if m.center != 0.0:
            out["center"] = m.center
        return out
    if isinstance(m, Empirical):
        out = {"kind": m.kind, "atoms": [[x, w] for x, w in m.atoms]}
        if m.values is not None:
            out.update({"a": m.a, "b": m.b, "values": [float(v) for v in m.values]})
        return out
    raise ValidationError(f"not a measure: {m!r}")


def _field(obj: dict, key: str, convert=float, default=None):
    """Field ``key`` of a measure description through ``convert``, or ``default``
    if it is absent; a missing or non-numeric field raises ``ValidationError``."""
    try:
        return convert(obj[key]) if key in obj or default is None else default
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"measure field {key!r} is "
                              f"{'not numeric' if key in obj else 'missing'}") from None


def from_dict(obj: dict) -> Measure:
    """Inverse of :func:`to_dict`; unknown kinds (aliases included) and missing or
    non-numeric fields raise ``ValidationError``."""
    if not isinstance(obj, dict):
        raise ValidationError("measure description must be a mapping")
    kind = obj.get("kind")
    if kind is None and ("values" in obj or "atoms" in obj):
        kind = Empirical.kind
    if kind == Dirac.kind:
        return Dirac(_field(obj, "location"))
    if kind in (Semicircle.kind, Arcsine.kind):
        return SPECS[kind](_field(obj, "var"), _field(obj, "center", default=0.0))
    if kind == Empirical.kind:
        atoms = _field(obj, "atoms", lambda v: tuple((float(x), float(w)) for x, w in v), ())
        if obj.get("values") is None:
            return Empirical(atoms=atoms)
        return Empirical(atoms=atoms, a=_field(obj, "a"), b=_field(obj, "b"),
                         values=_field(obj, "values", lambda v: np.asarray(v, dtype=float)))
    raise ValidationError(f"unknown measure kind {kind!r}")

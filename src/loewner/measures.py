"""Probability measures on the real line.

Three closed-form families (point mass, semicircle, arcsine) plus an
``Empirical`` variant that stores atoms together with a density sampled on a
uniform grid (linear interpolation between nodes).  All measures are immutable
values; the operations here (density, mean and variance, and reading a measure
from a spec or a JSON description) are pure.

The semicircle law with variance ``v`` has density ``sqrt(4v - x^2)/(2 pi v)``
on ``[-2 sqrt(v), 2 sqrt(v)]``; the arcsine law with variance ``v`` has density
``1/(pi sqrt(2v - x^2))`` on ``[-sqrt(2v), sqrt(2v)]``.  Both optionally carry
a ``center``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AtomicPointError, ValidationError

#: total-mass slack allowed when constructing a measure
MASS_TOL = 1e-9


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
        if not math.isfinite(self.center):
            raise ValidationError(f"{type(self).__name__} center must be finite")
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
            if not math.isfinite(x):
                raise ValidationError(f"atom location {x} is not finite")
            if not (0.0 <= m <= 1.0):
                raise ValidationError(f"atom mass {m} outside [0, 1]")
        has_density = self.values is not None
        if has_density:
            if self.a is None or self.b is None:
                raise ValidationError("density grid needs both endpoints")
            if not (-math.inf < self.a < self.b < math.inf):
                raise ValidationError("density grid endpoints must be finite with a < b")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1 or vals.size < 2:
                raise ValidationError("density grid needs at least two nodes")
            if not np.all(np.isfinite(vals) & (vals >= 0)):
                raise ValidationError("density values must be finite and non-negative")
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


def mean_variance(m: Measure):
    """Mean and variance (closed form where available)."""
    if isinstance(m, Dirac):
        return m.location, 0.0
    if isinstance(m, _CenteredLaw):
        return m.center, m.var
    if not isinstance(m, Empirical):
        raise ValidationError(f"not a measure: {m!r}")
    m1, m2 = (sum(w * x**k for x, w in m.atoms)
              + (0.0 if m.values is None else _grid_moment(m.grid(), m.values, k))
              for k in (1, 2))
    return m1, m2 - m1**2


def _field(obj: dict, key: str, convert=float, default=None, what: str = "measure"):
    """Field ``key`` of a ``what`` description (a measure or a driver) through ``convert``,
    or ``default`` if it is absent; a missing or malformed field raises ``ValidationError``
    naming the description and the field."""
    try:
        return convert(obj[key]) if key in obj or default is None else default
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"{what} field {key!r} is "
                              f"{'malformed' if key in obj else 'missing'}") from None


def from_dict(obj: dict) -> Measure:
    """The measure a description such as ``{"kind": "semicircle", "var": 1.0}`` names
    (``kind`` may be left out when ``atoms`` or ``values`` is given); unknown kinds
    (aliases included) and missing or non-numeric fields raise ``ValidationError``."""
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

"""Half-plane transforms of measures.

Cauchy transform ``G(z) = int 1/(z - x) dmu(x)``, its reciprocal F-transform,
the R-transform obtained by numerically inverting G, density recovery by
Stieltjes-Perron inversion, and mean/variance extraction from the F-transform
asymptotics at large imaginary heights.

Branch rule: every square root ``sqrt((z - c)^2 - r^2)`` is taken with the
branch cut on ``[c - r, c + r]`` and asymptotics ``~ z - c``, realized as the
product of principal square roots of the two linear factors.  That branch maps
the upper half-plane into itself, which is what every closed form here needs.

Array contract: every map the library builds takes a complex scalar or a
complex ndarray.  Closed forms and compositions evaluate arrays as numpy
expressions (:func:`as_points`) and scalars by the scalar formula, so a
scalar gives a Python ``complex`` with the scalar formula's bits and speed.
Newton inversion (:func:`invert_cauchy`, :func:`r_transform`,
:func:`cauchy_from_r`) and the subordination fixed point
(:func:`~loewner.convolve.free_subordination`) are lane-wise: all points
iterate together as lanes of masked array arithmetic, through one Newton
kernel (:func:`_damped_newton`), nested inversions included.  A scalar runs
as one lane, so its value is bit for bit that of the same point in an array.
A one-lane call costs about 0.2-0.3 ms (R-transform or subordination),
against 0.02-0.03 ms for the scalar loops these replaced, on a 2-core x86
host with numpy 2.4; a 4002-point subordination grid costs about 10 ms.
The ``Empirical`` log-sum splits an array into rows: maximal runs of
consecutive points of one height whose real parts step by the density grid's
spacing.  On a row ``z_j - x_k`` depends only on ``j - k``, so its sums over
the nodes are two convolutions of ``N + M - 1`` logs, taken in one FFT pass
(pocketfft: the same bits every run).  A run of one point, and every scalar,
takes the per-point log-sum.  So a row point's value depends on its
neighbours: it agrees with the per-point value within ``1e-13 * max(1, |G|)``
(measured: 5e-15), and both lie within 1e-14 of a 40-digit log-sum.  A density
that jumps by its own size from node to node carries about 5e-13 of round-off
on either path.  Points that form no row keep their scalar bits.  A row pays
for FFTs of its whole grid: 2 points on 2001 nodes take 0.3 ms, or 0.2 ms
apart.  :func:`invert_stieltjes` evaluates its whole grid, at both heights, in
one ``g.fn`` call: two rows, 1.5 ms on a 2001-node grid against 0.44 s point
by point; a 20001-node row takes 17 ms, against 23 s (2 cores, numpy 2.4).
Its two atoms then take about 20 scalar calls, against about 100 by bisection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainMismatchError,
    MassDeficitError,
    NoConvergenceError,
    UnstableFitError,
    ValidationError,
)
from .measures import Arcsine, Dirac, Empirical, Measure, Semicircle, mean_variance

CAUCHY = "cauchy"
F = "f"
R = "r"
_KINDS = (CAUCHY, F, R)

#: Stieltjes inversion flags an atom where eps * |G| exceeds ATOM_THRESHOLD, and fails
#: where the recovered mass falls below 1 - DEFICIT_TOL
ATOM_THRESHOLD = 0.1
DEFICIT_TOL = 1e-3

#: heights used for the large-z moment fit
ASYMPTOTIC_LEVELS = (50.0, 100.0, 200.0)

#: Newton iterations per lane before :func:`_damped_newton` gives up
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class AnalyticMap:
    """An evaluable holomorphic map on the upper half-plane.

    ``fn`` takes a complex scalar or ndarray (the array contract above).
    ``kind`` is one of ``"cauchy"``, ``"f"``, ``"r"``; ``mean``/``variance``
    are optional asymptotic metadata.  For ``kind="r"`` the optional ``domain``
    records the radius interval on the imaginary test segment where the map is
    known to evaluate.
    """

    kind: str
    fn: Callable[[complex], complex]
    mean: float | None = None
    variance: float | None = None
    domain: tuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown transform kind {self.kind!r}")

    def __call__(self, z: complex) -> complex:
        return self.fn(z)


def as_points(z):
    """An ndarray of points as a complex ndarray, anything else as ``complex(z)``.

    Type checks, not ``np.ndim`` (1.4 us on a Python scalar): every scalar solve
    and closed-form evaluation passes through here.
    """
    if type(z) is complex:
        return z
    if isinstance(z, np.ndarray) and z.ndim:
        return np.asarray(z, dtype=complex)
    return complex(z)


def halfplane_sqrt(z, radius: float, center: float = 0.0):
    """``sqrt((z - center)**2 - radius**2)`` with the half-plane branch.

    Cut on ``[center - radius, center + radius]``; asymptotic to ``z - center``
    far away; maps the open upper half-plane into itself.  ``z`` and
    ``radius`` may be arrays; if either is, so is the root.  A scalar takes
    ``cmath`` roots, numpy's bits at half its cost; the two round apart where a
    root has a zero part (``Re w = +-radius``) or may have a subnormal one
    (``|Im w| < 1e-150``), so there it takes numpy's route.
    """
    if isinstance(z, np.ndarray) or isinstance(radius, np.ndarray):
        w = np.asarray(z, dtype=complex) - center
        return np.sqrt(w - radius) * np.sqrt(w + radius)
    w = complex(z) - center
    if abs(w.real) == radius or abs(w.imag) < 1e-150:
        return complex(np.sqrt(w - radius) * np.sqrt(w + radius))
    return cmath.sqrt(w - radius) * cmath.sqrt(w + radius)


def _empirical_cauchy_fn(m: Empirical):
    atoms = m.atoms
    if m.values is None:
        def fn(z):
            z = as_points(z)
            return sum(w / (z - x) for x, w in atoms)

        return fn

    xs = m.grid()
    rho = np.asarray(m.values, dtype=float)
    n = rho.size
    h = xs[1] - xs[0]
    slopes = np.diff(rho) / h
    edge = rho[-1] - rho[0]
    # Rows step by the exact spacing: xs[1] - xs[0] is off by ulp(a)/h relative,
    # which a long row would accumulate.
    step = (m.b - m.a) / (n - 1)
    scale = max(abs(m.a), abs(m.b))

    def point(z: complex) -> complex:
        # exact integral of the piecewise-linear density against 1/(z - x)
        logs = np.log(z - xs)
        seg = logs[:-1] - logs[1:]
        out = complex(np.sum((rho[:-1] + slopes * (z - xs[:-1])) * seg)) - edge
        out += sum(w / (z - x) for x, w in atoms)
        return out

    def row(z):
        # The same sum on z_j = c + j*step + iy.  There z_j - x_k = d[j - k + n - 1], so both
        # sums over k are cyclic convolutions by one FFT pass; the wrap lands only on out[:n - 2].
        count = z.size
        d = (z[0].real - m.a) + step * np.arange(1 - n, count) + 1j * z[0].imag
        logs = np.log(d)
        seg = logs[1:] - logs[:-1]
        fft = lambda a: np.fft.fft(a, 1 << (seg.size - 1).bit_length())
        out = np.fft.ifft(fft(seg) * fft(rho[:-1]) + fft(d[1:] * seg) * fft(slopes))
        out = out[n - 2:n - 2 + count]
        # The density jumps to 0 at the end nodes, so G ~ rho log(z - x) there, and
        # d's rounding would cost rho |delta d| / |z - x|: take those logs from z.
        out += (rho[0] + slopes[0] * d[n - 1:]) * (np.log(z - xs[0]) - logs[n - 1:])
        out -= (rho[-2] + slopes[-1] * d[1:count + 1]) * (np.log(z - xs[-1]) - logs[:count])
        return out - edge + sum(w / (z - x) for x, w in atoms)

    def fn(z):
        z = as_points(z)
        if not isinstance(z, np.ndarray):
            return point(z)
        zs = z.ravel()
        out = np.empty(zs.size, dtype=complex)
        for lo, hi in _rows(zs, step, scale):
            out[lo:hi] = point(complex(zs[lo])) if hi - lo == 1 else row(zs[lo:hi])
        return out.reshape(z.shape)

    return fn


def _rows(zs, step: float, scale: float):
    """Maximal runs ``[lo, hi)`` of ``zs`` on one row ``c + j*step + iy``.

    A run shares its ``Im z`` exactly, and each real part lies within
    ``4 eps max(scale, |Re z|)`` of the affine row through the run's first
    point, so rounding cannot accumulate along it.  Linspace nodes carry
    rounding of about ``ulp(max(|a|, |b|))`` even near 0: ``scale``.
    """
    tol = 4.0 * np.finfo(float).eps * np.maximum(scale, np.abs(zs.real))
    near = (zs.imag[1:] == zs.imag[:-1]) & (np.abs(np.diff(zs.real) - step) <= tol[1:] + tol[:-1])
    starts = np.flatnonzero(np.concatenate([[True], ~near]))
    for lo, end in zip(starts.tolist(), starts[1:].tolist() + [zs.size]):
        while end - lo > 1:
            off = np.abs(zs.real[lo:end] - (zs.real[lo] + step * np.arange(end - lo)))
            bad = np.flatnonzero(off > tol[lo:end])
            hi = lo + int(bad[0]) if bad.size else end
            yield lo, hi
            lo = hi
        if lo < end:
            yield lo, end


def cauchy(m: Measure) -> AnalyticMap:
    """Cauchy transform of ``m`` as an ``AnalyticMap(kind="cauchy")``.

    Closed forms: ``1/(z - a)`` for a point mass, ``2/(z + sqrt(z^2 - 4v))``
    for the semicircle law, ``1/sqrt(z^2 - 2v)`` for the arcsine law (each
    recentered when the family carries a center).  Empirical measures use the
    exact per-segment antiderivative of the gridded density: per point, or as
    two convolutions by FFT on each row of an array (see the module docstring).
    """
    mean, var = mean_variance(m)
    if isinstance(m, Dirac):
        a = m.location
        fn = lambda z: 1.0 / (as_points(z) - a)
    elif isinstance(m, Semicircle):
        c, r = m.center, m.radius
        fn = lambda z: 2.0 / ((w := as_points(z) - c) + halfplane_sqrt(w, r))
    elif isinstance(m, Arcsine):
        c, r = m.center, m.radius
        fn = lambda z: 1.0 / halfplane_sqrt(as_points(z), r, c)
    elif isinstance(m, Empirical):
        fn = _empirical_cauchy_fn(m)
    else:
        raise ValidationError(f"not a measure: {m!r}")
    return AnalyticMap(CAUCHY, fn, mean=mean, variance=var)


def f_transform(m: Measure) -> AnalyticMap:
    """F-transform ``1/G`` of ``m`` with mean/variance metadata."""
    return as_f(cauchy(m))


def as_f(m: AnalyticMap) -> AnalyticMap:
    """``m`` as an F-transform: itself, or the reciprocal of a Cauchy transform."""
    if m.kind == F:
        return m
    if m.kind == R:
        raise ValidationError("as_f expects a cauchy- or f-kind map")
    return AnalyticMap(F, lambda z: 1.0 / m.fn(z), mean=m.mean, variance=m.variance)


def as_cauchy(m: AnalyticMap) -> AnalyticMap:
    """``m`` as a Cauchy transform: itself, the reciprocal of an F-transform, or
    the Newton inversion (:func:`cauchy_from_r`) of an R-transform."""
    if m.kind == CAUCHY:
        return m
    if m.kind == R:
        return cauchy_from_r(m)
    return AnalyticMap(CAUCHY, lambda z: 1.0 / m.fn(z), mean=m.mean, variance=m.variance)


def _lanes(z):
    """``z`` as a flat complex array, and the map turning a flat result back.

    An ndarray gets its shape back; anything else is one lane and comes back
    as a Python ``complex``.  Per-point algorithms run every input, scalars
    included, through the same array arithmetic, so a point's value does not
    depend on what it was batched with.
    """
    z = as_points(z)
    if isinstance(z, np.ndarray):
        return z.ravel(), lambda out: out.reshape(z.shape)
    return np.array([z]), lambda out: complex(out[0])


def _no_convergence(why: str, point) -> NoConvergenceError:
    return NoConvergenceError(f"no convergence at {complex(point)}: {why}")


def _damped_newton(fun, x0, at):
    """Solve ``fun(x) = 0`` lane by lane, by Newton with residual-based step halving.

    ``at`` is a flat complex array of input points, one lane each; ``x0``
    holds the lanes' seeds, and ``fun(x, k)`` the residuals of lanes ``k``
    (an index array, which may name a lane twice) at iterates ``x``.  Every
    lane keeps its own iterate, residual, side of the real axis and
    step-halving factor, and stops once its residual is at most
    ``1e-13 * max(1, |at|)``.  The derivative is a central difference
    (legitimate for holomorphic functions) whose two ends are evaluated in
    one call, so a nested solve inside ``fun`` runs once for both.  Steps that
    increase the residual or push the iterate across the real axis are
    halved; a lane out of halvings or of ``NEWTON_MAX_ITER`` iterations raises
    ``NoConvergenceError`` naming its input point (the first such lane).
    """
    x = np.array(x0, dtype=complex)
    stop = 1e-13 * np.maximum(1.0, np.abs(at))
    fx = fun(x, np.arange(x.size))
    side = np.where(x.imag > 0, 1.0, -1.0)
    live = np.flatnonzero(~(np.abs(fx) <= stop))
    for _ in range(NEWTON_MAX_ITER):
        if not live.size:
            return x
        xl = x[live]
        h = 1e-6 * (1.0 + np.abs(xl))
        ends = fun(np.concatenate([xl + h, xl - h]), np.concatenate([live, live]))
        deriv = (ends[:live.size] - ends[live.size:]) / (2.0 * h)
        flat = deriv == 0
        if flat.any():
            raise _no_convergence("flat derivative", at[live[flat][0]])
        step = fx[live] / deriv
        lam = np.ones(live.size)
        todo = np.arange(live.size)  # positions in ``live`` still halving
        for _ in range(60):
            cand = xl[todo] - lam[todo] * step[todo]
            kept = np.ones(todo.size, dtype=bool)
            up = np.flatnonzero(cand.imag * side[live[todo]] > 0)
            if up.size:
                lanes = live[todo[up]]
                fc = fun(cand[up], lanes)
                better = np.abs(fc) < np.abs(fx[lanes])
                x[lanes[better]] = cand[up[better]]
                fx[lanes[better]] = fc[better]
                kept[up[better]] = False
            todo = todo[kept]
            if not todo.size:
                break
            lam[todo] *= 0.5
        else:
            raise _no_convergence("residual stalled", at[live[todo[0]]])
        live = live[~(np.abs(fx[live]) <= stop[live])]
    if live.size:
        raise _no_convergence("iteration limit reached", at[live[0]])
    return x


def invert_cauchy(g: AnalyticMap, w):
    """Right inverse ``V`` of a Cauchy transform: solves ``G(V) = w``.

    Seeded at ``mean + 1/w`` (the exact inverse for a point mass); valid for
    ``w`` in the image of ``{Im z sufficiently large}``.  Out-of-domain points
    fail loudly with ``NoConvergenceError``.  ``w`` may be an ndarray; its
    points are solved together, one Newton lane each.
    """
    if g.kind != CAUCHY:
        raise ValidationError("invert_cauchy expects a cauchy-kind map")
    ws, back = _lanes(w)
    if np.any(ws == 0):
        raise ValidationError("cannot invert the Cauchy transform at w = 0")
    return back(_damped_newton(lambda v, k: g.fn(v) - ws[k], (g.mean or 0.0) + 1.0 / ws, ws))


def r_transform(g: AnalyticMap) -> AnalyticMap:
    """R-transform ``V(w) - 1/w`` where ``V`` right-inverts ``g``.

    The returned map is reliable on the image of ``{i y : y >= 0.05}`` under
    ``g`` and on the imaginary test segment of radius 0.5 recorded in
    ``domain``; elsewhere the Newton inversion may raise.
    """
    if g.kind != CAUCHY:
        raise ValidationError("r_transform expects a cauchy-kind map")

    def fn(w):
        ws, back = _lanes(w)
        return back(invert_cauchy(g, ws) - 1.0 / ws)

    return AnalyticMap(R, fn, mean=g.mean, variance=g.variance, domain=(0.0, 0.5))


def cauchy_from_r(r: AnalyticMap) -> AnalyticMap:
    """Cauchy transform recovered from an R-transform.

    Solves ``R(w) + 1/w = z`` for ``w = G(z)`` by the same damped Newton used
    for :func:`r_transform`, seeded at ``1/z``; ``r.fn`` must accept arrays.
    """
    if r.kind != R:
        raise ValidationError("cauchy_from_r expects an r-kind map")

    def fn(z):
        zs, back = _lanes(z)
        return back(_damped_newton(lambda w, k: r.fn(w) + 1.0 / w - zs[k], 1.0 / zs, zs))

    return AnalyticMap(CAUCHY, fn, mean=r.mean, variance=r.variance)


def illinois(f, lo: float, hi: float, f_lo: float, f_hi: float, width: float) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where ``f_lo`` and ``f_hi`` differ in sign:
    regula falsi that halves the value kept at an end the iterates stay away from
    (Illinois; Dowell & Jarratt 1971), until ``f`` vanishes or the bracket is ``width``
    wide.  Returns the point of smallest ``|f|`` seen."""
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


def _refine_atom_location(g, lo: float, hi: float, f_lo: float, f_hi: float, eps: float) -> float:
    if not (f_lo < 0 < f_hi):  # Re G(x + i eps) goes from - to + across a pole on the line
        xs = np.linspace(lo, hi, 65)
        return float(xs[int(np.argmax(np.abs(g(xs + 1j * eps))))])
    return illinois(lambda x: g(complex(x, eps)).real, lo, hi, f_lo, f_hi,
                    4.0 * math.ulp(max(abs(lo), abs(hi))))


def invert_stieltjes(g: AnalyticMap, grid, eps: float) -> Empirical:
    """Recover a measure from its Cauchy transform on a grid.

    Density estimate ``-(1/pi) Im g(x + i eps)`` Richardson-extrapolated over
    ``eps`` and ``eps/2`` (the smoothing error is linear in ``eps``).  Grid
    points where ``eps * |g|`` exceeds ``ATOM_THRESHOLD`` flag an atom; each
    atom's location is refined by the Illinois secant (:func:`illinois`), its mass
    by shrinking ``eps``, and its Cauchy kernel is subtracted before the density
    pass so pole tails do not leak into the density.

    The recovered mass must reach ``1 - DEFICIT_TOL`` (otherwise
    ``MassDeficitError``, also raised for an atom with no positive mass: a pole
    just off the grid's end); the result is renormalized to total mass one.
    Non-uniform grids are resampled onto a uniform grid of the same size.

    ``g.fn`` must accept a complex ndarray: the whole grid, at both heights,
    is evaluated in one call.
    """
    if g.kind != CAUCHY:
        raise ValidationError("invert_stieltjes expects a cauchy-kind map")
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not np.all(np.isfinite(xs)) or np.any(np.diff(xs) <= 0):
        raise ValidationError("grid must be finite and strictly increasing")
    if not (1e-8 <= eps <= 1e-2):
        raise ValidationError("eps must lie in [1e-8, 1e-2]")

    both = np.asarray(g.fn(np.concatenate([xs + 1j * eps, xs + 1j * (eps / 2.0)])),
                      dtype=complex)
    g1, g2 = both[:xs.size], both[xs.size:]

    atoms = []
    idx = np.nonzero(eps * np.abs(g1) > ATOM_THRESHOLD)[0]
    if idx.size:
        for run in np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1):
            lo, hi = max(run[0] - 1, 0), min(run[-1] + 1, xs.size - 1)  # signs from the row
            x0 = _refine_atom_location(g.fn, float(xs[lo]), float(xs[hi]),
                                       float(g1[lo].real), float(g1[hi].real), eps)
            est = lambda e: -e * g.fn(complex(x0, e)).imag  # mass, Richardson over eps
            mass = 2.0 * est(eps / 4.0) - est(eps / 2.0)
            if not mass > 0.0:  # the fallback put a pole just off the grid on its end node
                raise MassDeficitError(f"atom at {x0:.6g} has mass {mass:.3g}: a pole lies "
                                       "just off the grid's end")
            atoms.append((x0, mass))
        for x0, mass in atoms:
            g1 -= mass / (xs + 1j * eps - x0)
            g2 -= mass / (xs + 1j * eps / 2.0 - x0)

    dens = -(2.0 * g2.imag - g1.imag) / math.pi
    np.clip(dens, 0.0, None, out=dens)

    spacings = np.diff(xs)
    uniform = np.allclose(spacings, spacings[0], rtol=1e-9, atol=0.0)
    if not uniform:
        even = np.linspace(xs[0], xs[-1], xs.size)
        dens = np.interp(even, xs, dens)
        xs = even

    total = sum(m for _, m in atoms) + float(np.trapezoid(dens, xs))
    if not (total >= 1.0 - DEFICIT_TOL):  # a NaN total fails too
        raise MassDeficitError(f"mass deficit: recovered {total:.6f} of 1")

    return Empirical(
        atoms=tuple((x0, m / total) for x0, m in atoms),
        a=float(xs[0]),
        b=float(xs[-1]),
        values=dens / total,
    )


def asymptotic_moments(f: AnalyticMap):
    """Mean and variance from ``f(iy) ~ iy - mean - variance/(iy)``.

    Least-squares fit over the heights ``ASYMPTOTIC_LEVELS``; raises ``UnstableFitError`` when
    the per-height estimates disagree by more than 1% of the fitted scale.
    """
    if f.kind != F:
        raise ValidationError("asymptotic_moments expects an f-kind map")
    ys = np.asarray(ASYMPTOTIC_LEVELS, dtype=float)
    deltas = np.array([complex(f.fn(1j * y)) - 1j * y for y in ys])
    means = -deltas.real
    variances = ys * deltas.imag
    mean_hat = float(np.mean(means))
    var_hat = float(np.sum(variances / ys**2) / np.sum(1.0 / ys**2))
    scale = max(1.0, abs(mean_hat), abs(var_hat))
    if np.ptp(means) > 0.01 * scale or np.ptp(variances) > 0.01 * scale:
        raise UnstableFitError(
            f"unstable fit: means {means.tolist()}, variances {variances.tolist()}"
        )
    return mean_hat, var_hat


def merge_domains(a: tuple | None, b: tuple | None) -> tuple | None:
    """Intersection of two evaluation-domain intervals (``None`` = unknown)."""
    if a is None:
        return b
    if b is None:
        return a
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo >= hi:
        raise DomainMismatchError(f"domain mismatch: {a} and {b} are disjoint")
    return (lo, hi)

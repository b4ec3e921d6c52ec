"""The three convolutions of probability measures on the line.

Monotone convolution composes F-transforms (``F_{a > b} = F_a o F_b``), the
anti-monotone convolution composes them in the reversed order, and the free
convolution adds R-transforms.  A second, independent route to the free
convolution goes through the subordination fixed point; keeping both lets each
serve as the other's oracle.

Results stay symbolic (:class:`~loewner.transforms.AnalyticMap`) until
:func:`materialize` inverts them back to a gridded measure, so long
composition chains accumulate no gridding error.
"""

from __future__ import annotations

import re
from functools import reduce

import numpy as np

from .errors import ValidationError
from .measures import SPECS, from_spec
from .transforms import (
    CAUCHY,
    F,
    R,
    AnalyticMap,
    _damped_newton,
    _lanes,
    as_cauchy,
    as_f,
    cauchy,
    invert_stieltjes,
    merge_domains,
)

SUBORDINATION_TOL = 1e-12
#: map evaluations per lane (two per Steffensen round) before Newton
SUBORDINATION_PICARD_STEPS = 20


def _sum_meta(a: AnalyticMap, b: AnalyticMap):
    mean = None if a.mean is None or b.mean is None else a.mean + b.mean
    var = None if a.variance is None or b.variance is None else a.variance + b.variance
    return mean, var


def monotone(fa: AnalyticMap, fb: AnalyticMap) -> AnalyticMap:
    """Monotone convolution on the transform side: ``fa o fb``.

    Mean/variance metadata is propagated only for mean-zero factors, where the
    additivity of both is valid.
    """
    if fa.kind != F or fb.kind != F:
        raise ValidationError("monotone convolution needs two f-kind maps")
    mean = var = None
    if fa.mean == 0.0 and fb.mean == 0.0:
        mean, var = _sum_meta(fa, fb)
    return AnalyticMap(F, lambda z: fa.fn(fb.fn(z)), mean=mean, variance=var)


def anti_monotone(fa: AnalyticMap, fb: AnalyticMap) -> AnalyticMap:
    """Anti-monotone convolution: composition in the reversed order."""
    return monotone(fb, fa)


def free_r(ra: AnalyticMap, rb: AnalyticMap) -> AnalyticMap:
    """Free convolution on the R-transform side: pointwise sum."""
    if ra.kind != R or rb.kind != R:
        raise ValidationError("free_r needs two r-kind maps")
    dom = merge_domains(ra.domain, rb.domain)
    mean, var = _sum_meta(ra, rb)
    return AnalyticMap(R, lambda w: ra.fn(w) + rb.fn(w), mean=mean, variance=var, domain=dom)


def free_subordination(ga: AnalyticMap, gb: AnalyticMap) -> AnalyticMap:
    """Free convolution via the subordination fixed point.

    For each ``z`` the first subordinator ``omega_1(z)`` is the attracting
    (Denjoy-Wolff) fixed point of ``P(w) = z + H_b(z + H_a(w))`` with
    ``H = F - id``; the result is the Cauchy transform ``z -> G_a(omega_1(z))``.
    ``P`` maps the upper half-plane into itself, and its iterates reach that
    point from any start there (Belinschi and Bercovici, J. Anal. Math. 101,
    2007).  All points run together, one lane each, through Steffensen rounds,
    ``SUBORDINATION_PICARD_STEPS`` evaluations of ``P`` in all.  A round takes
    ``w1 = P(w)``, ``w2 = P(w1)`` and moves to Aitken's extrapolate
    ``w - (w1 - w)^2 / (w2 - 2 w1 + w)`` where that is finite and in the upper
    half-plane and the step ratio ``(w2 - w1) / (w1 - w)`` is below 1/2 and
    within half of itself of the lane's last ratio, else to ``w2``: this keeps
    near-axis lanes off repelling fixed points on the axis, and lanes at their
    rounding floor, where the ratio jumps, on plain steps.  A lane settles on
    ``w1`` when ``|w1 - w|``, or on its next point when ``|w2 - w1|`` and that
    point's move from ``w2``, are below ``SUBORDINATION_TOL``.  The rest, near
    the real axis where the steps contract at a rate close to 1, finish by the
    lane-wise damped Newton of :mod:`loewner.transforms` on ``w - P(w) = 0``
    from the last point; a lane out of halvings or ``NEWTON_MAX_ITER``
    iterations raises ``NoConvergenceError``, naming its ``z``.
    """
    if ga.kind != CAUCHY or gb.kind != CAUCHY:
        raise ValidationError("free_subordination needs two cauchy-kind maps")

    def h_a(w):
        return 1.0 / ga.fn(w) - w

    def h_b(w):
        return 1.0 / gb.fn(w) - w

    def fn(z):
        zs, back = _lanes(z)
        omega = np.empty_like(zs)
        live, w = np.arange(zs.size), zs
        lam = np.full(zs.size, np.nan + 0j)  # step ratio of the round before; nan passes
        for _ in range(SUBORDINATION_PICARD_STEPS // 2):
            zl = zs[live]
            w1 = zl + h_b(zl + h_a(w))
            done = np.abs(w1 - w) < SUBORDINATION_TOL
            omega[live[done]] = w1[done]
            live, zl, w, w1, lam = live[~done], zl[~done], w[~done], w1[~done], lam[~done]
            if not live.size:
                break
            w2 = zl + h_b(zl + h_a(w1))
            d1, d2 = w1 - w, w2 - w1
            with np.errstate(all="ignore"):
                acc, rate = w - d1 * d1 / (d2 - d1), d2 / d1
            take = (np.isfinite(acc) & (acc.imag > 0) & (np.abs(rate) < 0.5)
                    & ~(np.abs(rate - lam) > 0.5 * np.abs(rate)))
            nxt = np.where(take, acc, w2)
            done = (np.abs(d2) < SUBORDINATION_TOL) & (np.abs(nxt - w2) < SUBORDINATION_TOL)
            omega[live[done]] = nxt[done]
            live, w, lam = live[~done], nxt[~done], rate[~done]
            if not live.size:
                break
        if live.size:
            zl = zs[live]
            omega[live] = _damped_newton(lambda v, k: v - zl[k] - h_b(zl[k] + h_a(v)), w, zl)
        return back(ga.fn(omega))

    mean, var = _sum_meta(ga, gb)
    return AnalyticMap(CAUCHY, fn, mean=mean, variance=var)


def materialize(g: AnalyticMap, grid, eps: float):
    """Invert a Cauchy transform back to a gridded measure."""
    return invert_stieltjes(g, grid, eps)


# ---------------------------------------------------------------------------
# Tiny prefix expression language, e.g. "mono(arcsine:1, dirac:0.5)" or
# "free(sc:1, sc:1)".  Operators return f-kind maps for mono/anti and a
# cauchy-kind map for free; a bare leaf parses to its Cauchy transform.

#: each operator's convolution and the transform kind it takes its arguments in
_OPERATORS = {"mono": (monotone, as_f), "anti": (anti_monotone, as_f),
              "free": (free_subordination, as_cauchy)}


def parse_expression(text: str) -> AnalyticMap:
    """Parse a convolution expression into an :class:`AnalyticMap`.

    Leaves are the specs of :func:`~loewner.measures.from_spec`: ``dirac:a``,
    ``semicircle:v`` (alias ``sc``), ``arcsine:v`` (alias ``arc``); operators
    are ``mono(...)``, ``anti(...)``, ``free(...)`` with two or more
    arguments.  ``:`` separates a leaf name from its parameter.  Whitespace is
    free between tokens, and a leaf's number is read as ``density --measure``
    reads it: whatever ``float`` accepts.
    """
    tokens = re.findall(r"[(),:]|[^\s(),:]+", text)[::-1]

    def take(expect=None):
        tok = tokens.pop() if tokens else None
        if tok is None or expect not in (None, tok):
            raise ValidationError(f"expected {expect!r}, found {tok!r}")
        return tok

    def expr() -> AnalyticMap:
        head = take()
        if head in SPECS:
            take(":")
            return cauchy(from_spec(head, take()))
        if head not in _OPERATORS:
            raise ValidationError(f"unknown name {head!r} in expression")
        take("(")
        args = [expr()]
        while tokens[-1:] == [","]:
            take()
            args.append(expr())
        take(")")
        if len(args) < 2:
            raise ValidationError(f"{head} needs at least two arguments")
        op, convert = _OPERATORS[head]
        return reduce(op, map(convert, args))

    try:
        out = expr()
    except RecursionError:
        raise ValidationError("expression nested too deeply") from None
    if tokens:
        raise ValidationError(f"trailing input {tokens[-1]!r} in expression")
    return out

"""Exact maps of semicircle and arcsine pieces and of the semicircle family.

Two oracles, both at 40 digits.  The conserved quantity of each law: ``Phi = int F dw``
(``F = 1/G``) falls by exactly the span along the reverse flow and rises along the forward
one, and is univalent on the quadrant ``Re(w - c) >= 0`` the flow keeps, so
``mpmath.findroot`` of ``Phi(w_1) = Phi(w_0) -+ tau`` there is the map; a crossing of
``Im g = EPS_SWALLOW`` is where ``Im Phi`` on that line equals the start's (``Im Phi`` rises
along the line).  For the semicircle family, Joukowski's map and the quartic of the
conserved ``(zeta**2 + 3 tau)**2/zeta``.  And ``mpmath.odefun`` on the ODE itself, which
shares no formula with the maps.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from loewner import (
    Arcsine,
    Empirical,
    MeasurePath,
    Semicircle,
    SemicircleFamily,
    driving_from_dict,
    flow_forward,
    flow_reverse,
    flow_reverse_anti,
)
from loewner import flows
from loewner.errors import ValidationError

EPS = flows.EPS_SWALLOW
DPS = 40

#: Newton steps an arcsine map may take here; no fuzz case needs more than 5
NEWTON_CAP = 8


def mp_root(w, r):
    """``sqrt(w**2 - r**2)`` with the half-plane branch, in mpmath."""
    return mp.sqrt(w - r) * mp.sqrt(w + r)


def phi(m, w):
    """``int F dw`` of the centred law of ``m`` at ``w``, ``Re w >= 0``: the arcsine law's
    ``(w S - r**2 log((w + S)/r))/2`` (``S = 1/G``), the semicircle's ``w**2/4`` plus half of
    that at ``r = 2 sqrt(v)`` (``F = (w + S)/2``)."""
    if isinstance(m, Arcsine):
        r = mp.sqrt(2 * mp.mpf(m.var))
        s = mp_root(w, r)
        return (w * s - r * r * mp.log((w + s) / r)) / 2
    r = 2 * mp.sqrt(mp.mpf(m.var))
    s = mp_root(w, r)
    return w * w / 4 + (w * s - r * r * mp.log((w + s) / r)) / 4


def mp_cauchy(m, w):
    if isinstance(m, Arcsine):
        return 1 / mp_root(w - mp.mpf(m.center), mp.sqrt(2 * mp.mpf(m.var)))
    w = w - mp.mpf(m.center)
    return 2 / (w + mp_root(w, 2 * mp.sqrt(mp.mpf(m.var))))


def frame(m, z):
    """``w = z - c`` reflected into ``Re w >= 0``, and whether it was reflected."""
    w = mp.mpc(z) - mp.mpf(m.center)
    return (-mp.conj(w), True) if w.real < 0 else (w, False)


def back(m, w, flip):
    return complex((-mp.conj(w) if flip else w) + mp.mpf(m.center))


def law_oracle(m, z, span, guess):
    """The map over ``span`` (forward over ``-span``): the root of the invariant from ``guess``,
    which must lie in the flow's quadrant."""
    with mp.workdps(DPS):
        w0, flip = frame(m, z)
        g = mp.mpc(guess) - mp.mpf(m.center)
        g = -mp.conj(g) if flip else g
        target = phi(m, w0) - span
        w = mp.findroot(lambda w: phi(m, w) - target, g)
        assert w.real >= -1e-30 and w.imag > 0, (z, span, w)
        return back(m, w, flip)


def lifetime_oracle(m, z, guess_x):
    """``(lifetime, crossing)`` of ``z``: the ``x`` where ``Im Phi(x + i EPS)`` is the start's."""
    with mp.workdps(DPS):
        w0, flip = frame(m, z)
        x0 = (mp.mpf(guess_x) - mp.mpf(m.center)) * (-1 if flip else 1)
        k0, eps = phi(m, w0), mp.mpf(EPS)
        x = mp.findroot(lambda x: phi(m, mp.mpc(x, eps)).imag - k0.imag, x0)
        assert x >= 0
        return float(phi(m, mp.mpc(x, eps)).real - k0.real), back(m, mp.mpc(x, 0), flip).real


def law_cases(seed, n):
    """``n`` seeded ``(law, z, span)``: variances 1e-2 to 10, centers in [-1, 1], a third of
    the starts over the support (``Im z`` 1e-3 to 1e-2, either side of the center), the rest
    with ``|Re z - c| < 4`` and ``Im z`` 1e-3 to 3; spans 1e-3 to 3."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases = []
    for k in range(n):
        law = (Semicircle, Arcsine)[k % 2](10 ** rng.uniform(-2, 1), rng.uniform(-1, 1))
        if k % 3 == 0:
            z = complex(law.center + rng.uniform(-1, 1) * law.radius, 10 ** rng.uniform(-3, -2))
        else:
            z = complex(law.center + rng.uniform(-4, 4), 10 ** rng.uniform(-3, math.log10(3)))
        cases.append((law, z, 10 ** rng.uniform(-3, math.log10(3))))
    return cases


def one_piece(m):
    return MeasurePath((0.0,), (m,))


def rel(got, want):
    return abs(got - want) / abs(want)


class TestLawPieces:
    """1,000+ seeded pieces of each law per walk against the invariant oracle."""

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    @pytest.mark.parametrize("flow", [flow_reverse, flow_reverse_anti],
                             ids=["reverse", "anti-monotone"])
    def test_reverse_walks_match_the_invariant(self, monkeypatch, law, flow):
        monkeypatch.setattr(flows, "_KEPLER_MAX_ITER", NEWTON_CAP)
        cases = [c for c in law_cases(31, 2400) if isinstance(c[0], law)]
        assert len(cases) >= 1000
        over = 0
        for m, z, span in cases:
            got = flow(one_piece(m), 0.0, span, z)
            assert rel(got, law_oracle(m, z, span, got)) <= 1e-13, (m, z, span)
            over += abs(z.real - m.center) < m.radius and z.imag <= 1e-2
        assert over >= 300

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    def test_forward_survivors_and_lifetimes_match_the_invariant(self, monkeypatch, law):
        monkeypatch.setattr(flows, "_KEPLER_MAX_ITER", NEWTON_CAP)
        cases = [c for c in law_cases(32, 2400) if isinstance(c[0], law)]
        alive = dead = 0
        for m, z, span in cases:
            fp = flow_forward(one_piece(m), z, span)
            if fp.alive:
                alive += 1
                assert rel(fp.value, law_oracle(m, z, -span, fp.value)) <= 1e-13, (m, z, span)
                continue
            dead += 1
            life, x = lifetime_oracle(m, z, fp.value.real)
            assert 0.0 < life <= span and fp.value.imag == EPS
            # forming g near the line costs an absolute 1e-14 or so, about 2e-12 of the
            # shortest lifetimes (3e-3) over the widest laws (v = 10)
            assert abs(fp.lifetime - life) <= 3e-12 * life, (m, z, span)
            assert abs(fp.value.real - x) <= 1e-12 * max(1.0, abs(x)), (m, z, span)
        assert alive >= 400 and dead >= 300

    def test_arcsine_forward_near_its_lifetime(self, monkeypatch):
        # a target just above the support: the edge series start lands by the support's
        # Kepler root, and Newton settles within the cap
        monkeypatch.setattr(flows, "_KEPLER_MAX_ITER", NEWTON_CAP)
        rng = np.random.Generator(np.random.Philox(key=34))
        dead = 0
        for _ in range(200):
            m = Arcsine(10 ** rng.uniform(-2, 1), rng.uniform(-1, 1))
            z = complex(m.center + rng.uniform(-1, 1) * m.radius, 10 ** rng.uniform(-3, 0))
            life = flow_forward(one_piece(m), z, 1e3).lifetime
            if life == math.inf:  # not swallowed within the horizon
                continue
            dead += 1
            for frac in (0.9, 0.999, 0.999999):
                fp = flow_forward(one_piece(m), z, frac * life)
                assert fp.alive, (m, z, frac)
                want = law_oracle(m, z, -frac * life, fp.value)
                # the value is c + w, rounded to the larger of the two
                scale = abs(m.center) + abs(want - m.center)
                assert abs(fp.value - want) <= 1e-13 * scale, (m, z, frac)
        assert dead >= 150

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    def test_starts_on_the_axis_of_symmetry_stay_on_it(self, law):
        # on Re z = c the semicircle's x = F s/v is real, and where it rounded below the axis
        # the map took the other root: from Im z ~ 5.6e9 up 1e10i -> 1e10, and forward
        # swallowed it; at v = 0.01 a start 1e-3 above the center was swallowed at once, off
        # the axis
        for m in (law(1.0, 0.3), law(0.01, -0.2)):
            for h in np.logspace(-3, 20, 47):
                z = complex(m.center, h)
                fp = flow_forward(one_piece(m), z, 0.5)
                assert fp.alive or fp.lifetime > 0.05 * h * math.sqrt(m.var)
                for got in (flow_reverse(one_piece(m), 0.0, 0.5, z), fp.value,
                            flow_reverse_anti(one_piece(m), 0.0, 0.5, np.array([z]))[0]):
                    assert got.imag > 0 and abs(got.real - m.center) <= 1e-13 * max(1.0, h)

    @pytest.mark.parametrize("law", [Semicircle, Arcsine], ids=["semicircle", "arcsine"])
    def test_lanes_match_the_scalar_map(self, law):
        # one driver, every start as a lane: the lane's bits are the scalar solve's
        m = law(0.7, 0.3)
        rng = np.random.Generator(np.random.Philox(key=33))
        zs = (m.center + rng.uniform(-3, 3, 300)) + 1j * 10 ** rng.uniform(-3, 0.5, 300)
        for span in (1e-3, 0.4, 3.0):
            for flow in (flow_reverse, flow_reverse_anti):
                lanes = flow(one_piece(m), 0.0, span, zs)
                assert np.array_equal(lanes, [flow(one_piece(m), 0.0, span, z) for z in zs])


def family_cases(seed, n):
    """``n`` seeded ``(s, t, z)``: ``s`` 0 to 2 (a fifth at 0), ``t - s`` 1e-3 to 3, starts as
    in :func:`law_cases` about the family's support at time t, ``[-2 sqrt(t), 2 sqrt(t)]``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases = []
    for k in range(n):
        s = rng.uniform(0, 2) if k % 5 else 0.0
        t = s + 10 ** rng.uniform(-3, math.log10(3))
        if k % 3 == 0:
            z = complex(rng.uniform(-2, 2) * math.sqrt(t), 10 ** rng.uniform(-3, -2))
        else:
            z = complex(rng.uniform(-4, 4), 10 ** rng.uniform(-3, math.log10(3)))
        cases.append((s, t, z))
    return cases


def quartic_oracle(s, t, z):
    """``zeta_t``: the root of ``zeta**4 + 6 t zeta**2 - K zeta + 9 t**2`` (``K = (zeta_s**2 +
    3 s)**2/zeta_s``, ``zeta_s = F_{sigma_s}(z)``) in ``{Im > 0, |zeta|**2 > t}`` on which
    ``(zeta**2 + 3 t)/sqrt(zeta)`` keeps the start's sign; exactly one root passes."""
    with mp.workdps(DPS):
        s, t, z = mp.mpf(s), mp.mpf(t), mp.mpc(z)
        zeta = (z + mp_root(z, 2 * mp.sqrt(s))) / 2
        m = (zeta ** 2 + 3 * s) / mp.sqrt(zeta)
        roots = mp.polyroots([1, 0, 6 * t, -m * m, 9 * t * t], maxsteps=200, extraprec=200)
        good = [r for r in roots if r.imag > 0 and abs(r) ** 2 > t
                and abs((r ** 2 + 3 * t) / mp.sqrt(r) - m) < 1e-20 * abs(m)]
        assert len(good) == 1, (s, t, z, roots)
        return complex(good[0] + t / good[0])


class TestSemicircleFamily:
    """The family's forward, anti-monotone and monotone maps, against 40-digit closed forms."""

    def test_monotone_reverse_is_the_quartic_root(self):
        cases = family_cases(41, 1200)
        got = [flow_reverse(SemicircleFamily(), s, t, z) for s, t, z in cases]
        for (s, t, z), g in zip(cases, got):
            assert rel(g, quartic_oracle(s, t, z)) <= 1e-13, (s, t, z)

    def test_anti_monotone_is_joukowski_after_f_t(self):
        for s, t, z in family_cases(42, 1200):
            got = flow_reverse_anti(SemicircleFamily(), s, t, z)
            with mp.workdps(DPS):
                w = mp.mpc(z)
                zeta = (w + mp_root(w, 2 * mp.sqrt(mp.mpf(t)))) / 2
                want = complex(zeta + mp.mpf(s) / zeta)
            assert rel(got, want) <= 1e-13, (s, t, z)

    def test_forward_from_zero_is_joukowski(self):
        dead = 0
        for _, t, z in family_cases(43, 1200):
            fp = flow_forward(SemicircleFamily(), z, t)
            with mp.workdps(DPS):
                w = mp.mpc(z)
                life = abs(w) ** 2 * (1 - mp.mpf(EPS) / w.imag)
                if life > t:
                    assert fp.alive and rel(fp.value, complex(w + t / w)) <= 1e-13
                    continue
                dead += 1
                assert not fp.alive and abs(fp.lifetime - float(life)) <= 1e-12 * float(life)
                want = w.real * (1 + life / abs(w) ** 2)
                assert abs(fp.value - complex(want, EPS)) <= 1e-13 * max(1.0, abs(want))
        assert dead >= 100

    def test_quartic_root_near_the_cut(self):
        # starts within 1e-9 of the support [-2 sqrt(s), 2 sqrt(s)] and of its ends, where
        # the admissible root meets the circle |zeta|**2 = t; phi = zeta + t/zeta cancels
        # there, so the error is measured against the support's scale too (another root
        # would be off by that scale)
        d = SemicircleFamily()
        for s in (0.25, 1.0):
            edge = 2.0 * math.sqrt(s)
            for x in (-edge, -0.999 * edge, -0.3 * edge, 0.0, 0.5 * edge, edge, 1.001 * edge):
                for h in (1e-9, 1e-6, 1e-3):
                    for t in (s + 1e-6, s + 0.1, s + 2.0):
                        z = complex(x, h)
                        want = quartic_oracle(s, t, z)
                        scale = max(abs(want), math.sqrt(t))
                        assert abs(flow_reverse(d, s, t, z) - want) <= 1e-13 * scale, (s, t, z)

    def test_identity_when_no_time_passes(self):
        assert flow_reverse(SemicircleFamily(), 0.7, 0.7, 0.3 + 1e-3j) == 0.3 + 1e-3j


def ode_oracle(g, t0, t1, z, sign):
    """``dw/dtau = sign G_tau(w)`` from ``w(t0) = z`` to ``t1`` by ``mpmath.odefun``."""
    with mp.workdps(20):
        return complex(mp.odefun(lambda tau, w: sign * g(tau, w), t0, mp.mpc(z))(t1))


class TestOde:
    """The maps against the ODE itself, solved by mpmath's Taylor integrator."""

    @pytest.mark.parametrize("m, z, span", [
        (Semicircle(0.7, 0.2), 0.4 + 0.01j, 0.5), (Semicircle(0.7, 0.2), -1.5 + 0.3j, 1.0),
        (Semicircle(0.05, -0.4), -0.35 + 1e-3j, 0.01), (Semicircle(4.0), 3j, 2.0),
        (Arcsine(1.1, -0.3), 0.5 + 0.01j, 0.5), (Arcsine(1.1, -0.3), -2.0 + 0.4j, 1.0),
        (Arcsine(0.02, 0.5), 0.42 + 1e-3j, 0.01), (Arcsine(3.0), 1 + 2j, 3.0),
        (Semicircle(1.0), 2.0 + 1e-3j, 0.3), (Semicircle(9.0, -1.0), -1.2 + 5e-3j, 1e-3),
        (Semicircle(0.3, 0.8), 5.0 + 0.1j, 3.0), (Semicircle(1.0), 0.5j, 0.7),
        (Arcsine(1.0), -1.414 + 2e-3j, 0.2), (Arcsine(8.0, 0.3), 0.2 + 4e-3j, 1e-3),
        (Arcsine(0.5, -0.9), -4.0 + 0.05j, 2.0), (Arcsine(1.0), 0.8j, 0.7),
    ])
    def test_reverse_and_forward_pieces(self, m, z, span):
        g = lambda tau, w: mp_cauchy(m, w)
        want = ode_oracle(g, 0, span, z, -1)
        assert rel(flow_reverse(one_piece(m), 0.0, span, z), want) <= 1e-13
        assert rel(flow_reverse_anti(one_piece(m), 0.0, span, z), want) <= 1e-13
        fp = flow_forward(one_piece(m), want, span)  # back along the same path
        assert fp.alive and rel(fp.value, z) <= 1e-12

    @pytest.mark.parametrize("s, t, z", [(0.0, 1.0, 0.3 + 0.5j), (0.5, 1.5, -1.2 + 1e-2j),
                                         (1.0, 1.001, 1.9 + 1e-3j), (0.2, 3.0, 2j)])
    def test_semicircle_family(self, s, t, z):
        def g(tau, w):
            return 2 / (w + mp_root(w, 2 * mp.sqrt(tau))) if tau > 0 else 1 / w

        d = SemicircleFamily()
        assert rel(flow_reverse(d, s, t, z), ode_oracle(g, s, t, z, -1)) <= 1e-13
        anti = ode_oracle(lambda tau, w: g(s + t - tau, w), s, t, z, -1)
        assert rel(flow_reverse_anti(d, s, t, z), anti) <= 1e-13
        fp = flow_forward(d, z, t)
        if fp.alive:
            assert rel(fp.value, ode_oracle(g, 0, t, z, 1)) <= 1e-13


class TestLog1p:
    """``_log1p`` (the arcsine map's ``acosh``) and ``_log1p_ratio`` (the free families) against
    ``mpmath.log1p`` for ``|x|`` from 1e-320 to 1, all round the circle and on both axes:
    ``log(p) x`` underflowed below ``|x| ~ 1e-154`` (1.1e-5 off at 1e-160i, 0 at
    1e-170 + 1e-170i)."""

    @staticmethod
    def sample():
        mags = 10.0 ** np.linspace(-320.0, 0.0, 161)
        turns = np.exp(1j * (np.linspace(-math.pi, math.pi, 24, endpoint=False) + 0.0123))
        return np.concatenate([(mags[:, None] * turns).ravel(), mags, -mags[:-1], 1j * mags,
                               -1j * mags])

    def test_matches_mpmath(self):
        x = self.sample()
        got, ratio = flows._log1p(x), flows._log1p_ratio(x)
        with mp.workdps(DPS):
            for v, g, q in zip(x.tolist(), got.tolist(), ratio.tolist()):
                want = mp.log1p(mp.mpc(v))
                assert abs(g - want) <= 1e-15 * abs(want)
                assert abs(q - want / v) <= 1e-15 * abs(want / v)


class TestEmpiricalPieces:
    """An ``Empirical`` law has no exact map: a driver piece holding one is refused."""

    def test_library_names_the_piece(self):
        with pytest.raises(ValidationError, match=r"measures\[1\]"):
            MeasurePath((0.0, 0.5), (Semicircle(1.0), Empirical(atoms=((0.0, 1.0),))))

    def test_description_names_the_piece(self):
        obj = {"kind": "measure-path", "breakpoints": [0, 0.5, 1],
               "measures": [{"kind": "dirac", "location": 0}, {"kind": "arcsine", "var": 1},
                            {"kind": "empirical", "atoms": [[0.0, 1.0]]}]}
        with pytest.raises(ValidationError, match=r"measures\[2\]"):
            driving_from_dict(obj)

"""Slit traces and the conformal welding of a hull.

For a point-mass driver the hull is a curve; its tip at each time is the
boundary limit of the inverse map at the driving value.  The welding pairs
the two real preimage intervals of the slit: x and h(x) are identified when
their boundary values agree.
"""

import numpy as np

from loewner import AtomPath, sle_driving, trace, welding

print("Trace of the vertical slit (zero driver): gamma(t) = i sqrt(2t)")
d = AtomPath([0.0, 1.0], [0.0, 0.0])
tr = trace(d, [0.0, 0.25, 0.5, 1.0])
for t, p in zip(tr.times, tr.points):
    print(f"  t={t:5.2f}: tip {p:.8f}  (closed {1j * np.sqrt(2 * t):.8f})")

print()
print("Trace of a seeded Brownian driver (kappa = 2):")
sle = sle_driving(2.0, 1.0 / 64.0, 0.5, seed=4)
tr = trace(sle, list(np.linspace(0.0, 0.5, 6)))
for t, p in zip(tr.times, tr.points):
    print(f"  t={t:5.2f}: tip {p:.6f}")

print()
print("Welding of the vertical slit at T = 1: h(x) = -x on [-sqrt(2), sqrt(2)]")
w = welding(d, 1.0, npairs=6)
print(f"  base interval [{w.a:.8f}, {w.b:.8f}], tip preimage u = {w.u}")
for x, hx in w.pairs:
    print(f"  x = {x:+.6f}  welds to  h(x) = {hx:+.6f}")

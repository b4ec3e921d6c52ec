"""Forward chordal Loewner flow: growing hulls and swallowed points.

The forward equation dg/dt = G_nu(g) pushes points of the upper half-plane
toward the real line.  For the centered point-mass driver the solution is
known in closed form, g_t(z) = sqrt(z^2 + 2t), and the hull is a vertical
segment growing from the origin.  The driver rests, so the equation is
autonomous and its flow is the arcsine semigroup: flow_forward applies that
exact map and takes no integration step.
"""

import numpy as np

from loewner import constant_driver, flow_forward

d = constant_driver(0.0)

print("Closed-form check: g_t(z) = sqrt(z^2 + 2t) for the zero driver (equal to the bit)")
print(f"{'z':>12} {'t':>6} {'numerical':>28} {'closed form':>28}")
for z in (2j, 1 + 1j, -2 + 0.5j):
    for t in (0.5, 1.0):
        got = flow_forward(d, z, t).value
        want = np.sqrt(complex(z * z + 2 * t))
        want = want if want.imag > 0 else -want
        print(f"{z!s:>12} {t:>6} {got!s:>28} {want!s:>28}")

print()
print("Swallowing: points on the imaginary axis meet the tip at T(iy) = y^2/2")
for y in (0.5, 1.0, 1.5, 2.0):
    fp = flow_forward(d, 1j * y, 3.0)
    print(f"  z = {y:.1f}i  ->  alive={fp.alive}  lifetime={fp.lifetime:.8f}"
          f"  (closed form {y * y / 2:.8f})")

print()
print("Off-axis points are never swallowed by this slit hull:")
fp = flow_forward(d, 0.3 + 0.4j, 5.0)
print(f"  z = 0.3+0.4i  ->  alive={fp.alive}, value {fp.value:.6f} (exact map)")

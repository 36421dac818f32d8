"""Gradient field from a pair of parallel micro-wires.

Two wires carrying equal currents in the same direction produce a field
that vanishes midway between them and grows (antisymmetrically) toward
either wire.  Placing the two qubits off-center gives them opposite field
offsets, splitting their resonance frequencies so each can be addressed
individually.
"""

import numpy as np

from buckygate import WirePair, gradient_field, resonance_frequencies

wires = WirePair(current=0.6, separation=1e-6, radius=1e-6)
half_span = wires.half_span

x = np.linspace(-0.9 * half_span, 0.9 * half_span, 13)
field = gradient_field(wires, x)

print("x (um)    Bg (T)")
for xi, bi in zip(x, field):
    print(f"{xi * 1e6:+7.3f}  {bi:+.6e}")

# The qubits themselves sit only ~1 nm apart, symmetrically about the
# midpoint, so each sees a tiny field offset of opposite sign.
x1, x2 = -0.57e-9, 0.57e-9
bg1, bg2 = gradient_field(wires, x1), gradient_field(wires, x2)
res = resonance_frequencies(0.1, bg1, 0.1, bg2)
print(f"\nqubits at x = {x1 * 1e9:+.2f}, {x2 * 1e9:+.2f} nm:")
print(f"  Bg1 = {bg1:+.4e} T, Bg2 = {bg2:+.4e} T")
print(f"  omega1 = {res.omega1:.6e} rad/s")
print(f"  omega2 = {res.omega2:.6e} rad/s")
print(f"  splitting = {res.omega1 - res.omega2:.4e} rad/s")

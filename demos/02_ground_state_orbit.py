"""Integrating the relativistic ground-state flow and checking it against
the exact circular orbit.

The flow lines are horizontal circles, so RK4 can be validated sharply: the
numerical orbit must return to its start after one period, keep r and theta
fixed, and converge at fourth order as the step shrinks.
"""

import math

from bohmatom import (
    DiracGroundState,
    SphericalPoint,
    SpinOrientation,
    integrate_trajectory,
    make_atom,
)
from bohmatom.trajectory_engine import circular_orbit

atom = make_atom()
start = SphericalPoint(atom.bohr_radius, math.pi / 2.0, 0.0)
model = DiracGroundState(SpinOrientation.UP, atom)
omega = model.angular_rate(start)
period = 2.0 * math.pi / abs(omega)
print(f"equatorial orbit at r = a0: period T = {period:.6e} natural time units")

field = model.velocity_field()
vx, vy, vz = field(*start.xyz())   # the flow maps a float triple to a float triple
print(f"speed at the start: {math.hypot(vx, vy, vz):.12f} (Z*alpha = {atom.za:.12f})")
steps = 10_000
t, x, y, z, vx, vy, vz = integrate_trajectory(field, start, period / steps, steps)   # memoryviews of floats
radii = list(map(math.hypot, x, y, z))
closure = math.hypot(x[-1] - x[0], y[-1] - y[0], z[-1] - z[0]) / start.r
speeds = list(map(math.hypot, vx, vy, vz))
print(f"one full period at dt = T/{steps}:")
print(f"  relative closure error : {closure:.3e}")
print(f"  max relative r drift   : {max(abs(r - start.r) for r in radii) / start.r:.3e}")
print(f"  max speed variation    : {max(abs(s - speeds[0]) for s in speeds):.3e}")

print()
print("fourth-order convergence against the exact circle:")
print(f"{'steps':>8}  {'end-point error':>16}  {'order':>6}")
previous = None
for n in (250, 500, 1000, 2000):
    t, x, y, z = integrate_trajectory(field, start, period / n, n)[:4]
    (cx,), (cy,), (cz,) = circular_orbit(start, omega, [t[-1]])
    error = math.hypot(x[-1] - cx, y[-1] - cy, z[-1] - cz)
    order = f"{math.log2(previous / error):6.3f}" if previous else "     -"
    print(f"{n:8d}  {error:16.6e}  {order}")
    previous = error

print()
print("spin down traverses the same circle the other way:")
_, x, y = integrate_trajectory(
    DiracGroundState(SpinOrientation.DOWN, atom).velocity_field(), start, period / 2000, 500
)[:3]
area = 0.5 * math.fsum(x[k] * y[k + 1] - x[k + 1] * y[k] for k in range(len(x) - 1))
print(f"  signed x-y area over a quarter period: {area:+.4e} (negative = clockwise)")

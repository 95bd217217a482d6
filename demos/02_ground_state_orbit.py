"""Integrating the relativistic ground-state flow and checking it against
the exact circular orbit.

The flow lines are horizontal circles, so RK4 can be validated sharply: the
numerical orbit must return to its start after one period, keep r and theta
fixed, and converge at fourth order as the step shrinks.
"""

import math

import numpy as np

from bohmatom import (
    DiracGroundState,
    SphericalPoint,
    SpinOrientation,
    circular_orbit_xyz,
    integrate_trajectory,
    make_atom,
)

atom = make_atom()
start = SphericalPoint(atom.bohr_radius, math.pi / 2.0, 0.0)
model = DiracGroundState(SpinOrientation.UP, atom)
omega = model.angular_rate(start)
period = 2.0 * math.pi / abs(omega)
print(f"equatorial orbit at r = a0: period T = {period:.6e} natural time units")

field = model.velocity_field()
steps = 10_000
trajectory = integrate_trajectory(field, start, period / steps, steps)

positions = trajectory.xyz
radii = np.linalg.norm(positions, axis=1)
closure = np.linalg.norm(positions[-1] - positions[0]) / start.r
speeds = np.linalg.norm(trajectory.velocity, axis=1)
print(f"one full period at dt = T/{steps}:")
print(f"  relative closure error : {closure:.3e}")
print(f"  max relative r drift   : {np.max(np.abs(radii - start.r)) / start.r:.3e}")
print(f"  max speed variation    : {np.max(np.abs(speeds - speeds[0])):.3e}")

print()
print("fourth-order convergence against the exact circle:")
print(f"{'steps':>8}  {'end-point error':>16}  {'order':>6}")
previous = None
for n in (250, 500, 1000, 2000):
    run = integrate_trajectory(field, start, period / n, n)
    reference = circular_orbit_xyz(start, omega, run.t[-1:])[0]
    error = float(np.linalg.norm(run.xyz[-1] - reference))
    order = f"{math.log2(previous / error):6.3f}" if previous else "     -"
    print(f"{n:8d}  {error:16.6e}  {order}")
    previous = error

print()
print("spin down traverses the same circle the other way:")
down = integrate_trajectory(
    DiracGroundState(SpinOrientation.DOWN, atom).velocity_field(), start, period / 2000, 500
)
xy = down.xyz[:, :2]
area = 0.5 * float(np.sum(xy[:-1, 0] * xy[1:, 1] - xy[1:, 0] * xy[:-1, 1]))
print(f"  signed x-y area over a quarter period: {area:+.4e} (negative = clockwise)")

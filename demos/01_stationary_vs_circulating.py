"""Side-by-side kinematics of the two hydrogen ground-state pictures.

The non-relativistic eigenstate psi_100 is real, so its phase gradient and
probability current vanish: the guided particle sits still. The relativistic
ground state carries an azimuthal current, and the guided particle circles
the z axis at speed Z*alpha*sin(theta).
"""

import math

from bohmatom import (
    QuantumNumbers,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    dirac_ground_state,
    four_current_at,
    hydrogen_wavefunction,
    make_atom,
    polar_decompose,
    probability_current,
)

atom = make_atom()  # hydrogen: Z = 1, physical coupling, unit mass
a0 = atom.bohr_radius
ground = QuantumNumbers(1, 0, 0)
point = SphericalPoint(a0, 1.1, 2.3)

print("== non-relativistic ground state ==")
psi = hydrogen_wavefunction(ground, atom, point)
amplitude, phase = polar_decompose(psi)
print(f"psi_100 at (a0, 1.1, 2.3) = {psi:.6e}")
print(f"(amplitude, phase) = ({amplitude:.6e}, {phase})")
print(f"guidance momentum  : {bohm_momentum(ground, atom, point)}")
print(f"probability current: {probability_current(ground, atom, point)}")

print()
print("== relativistic ground state (spin up) ==")
spinor = dirac_ground_state(SpinOrientation.UP, atom, point)
current = four_current_at(SpinOrientation.UP, atom, point)  # [j0, j1, j2, j3], spatial parts Cartesian
velocity = bohm_velocity(SpinOrientation.UP, atom, point)
print("spinor components:")
for i, c in enumerate(spinor, start=1):
    print(f"  c{i} = {c:.6e}")
print(f"four-current (j0, j1, j2, j3) = {current}")
print(f"velocity = {velocity}")
print(f"|v| = {math.hypot(*velocity):.10e}  vs  Z*alpha*sin(theta) = "
      f"{atom.za * math.sin(point.theta):.10e}")

print()
print("== speed profile over colatitude (spin up, any radius) ==")
print(f"{'theta':>8}  {'|v| / c':>14}  {'Z*alpha*sin':>14}")
for k in range(7):
    theta = 0.1 + k * (math.pi - 0.2) / 6
    v = bohm_velocity(SpinOrientation.UP, atom, SphericalPoint(a0, theta, 0.0))
    print(f"{theta:8.4f}  {math.hypot(*v):14.10f}  {atom.za * math.sin(theta):14.10f}")

print()
print("The spin-down state carries the opposite current: same speeds, reversed sense.")
down = four_current_at(SpinOrientation.DOWN, atom, point)
print(f"spin-up  (j1, j2) = {current[1:3]}")
print(f"spin-down(j1, j2) = {down[1:3]}")

"""Lifetime dilation of a bound unstable particle.

Every trajectory of the relativistic ground-state flow has constant speed
Z*alpha*sin(theta), so the time-dilation factor is exact per trajectory and
the ensemble prediction is the density-weighted mean Lorentz factor. For a
muon bound in a hydrogen-like ground state this lengthens the observed
lifetime by roughly alpha^2/3 relative to rest.

The rest lifetime is an input: pass your own value for other systems.
"""

import math

from bohmatom import (
    FINE_STRUCTURE,
    SpinOrientation,
    excess_over_za_sq,
    lorentz_factor,
    make_atom,
    make_report,
    mean_lorentz_factor,
)

MUON_REST_LIFETIME_S = 2.196981e-6  # free-muon value, used as a plain input

atom = make_atom()
report = make_report(SpinOrientation.UP, atom, MUON_REST_LIFETIME_S)

print("== dilation report, hydrogen-like ground state at physical coupling ==")
print(f"mean Lorentz factor      : {report.mean_gamma:.12f}")
print(f"pointwise max (equator)  : {report.pointwise_max_gamma:.12f}")
print(f"rest lifetime            : {report.rest_lifetime:.6e} s")
print(f"dilated lifetime         : {report.dilated_lifetime:.6e} s")
print(f"fractional lengthening   : {report.mean_gamma - 1.0:.6e}"
      f"  (alpha^2 / 3 = {atom.za**2 / 3.0:.6e})")

print()
print("the mean is the closed form artanh(k) / k with k = Z*alpha; its excess over 1")
print("in units of k^2 is (artanh(k) - k) / k^3 = 1/3 + k^2/5 + ..., summed as a series")
print("at small k, where the difference form loses digits")
k = atom.za
print(f"artanh(k) / k            : {math.atanh(k) / k:.15f}")
print(f"report.mean_gamma        : {report.mean_gamma:.15f}")
print(f"(artanh(k) / k - 1) / k^2: {(math.atanh(k) / k - 1.0) / k**2:.12f}")
print(f"excess_over_za_sq        : {excess_over_za_sq(atom):.12f}")

print()
print("== non-relativistic limit: scale the coupling down ==")
print(f"{'scale':>8}  {'mean_gamma - 1':>16}  {'(mean-1)/alpha^2':>18}")
for scale in (1.0, 0.5, 0.1, 0.01):
    scaled = make_atom(1, FINE_STRUCTURE * scale)
    mean = mean_lorentz_factor(SpinOrientation.UP, scaled)
    print(f"{scale:8.2f}  {mean - 1.0:16.6e}  {excess_over_za_sq(scaled):18.9f}")
print("the ratio settles on 1/3, and the dilation disappears with the coupling")

print()
print("per-trajectory spread: a circle at colatitude theta dilates by "
      "1/sqrt(1 - (Z alpha sin(theta))^2)")
for theta_deg in (90, 60, 30, 5):
    theta = math.radians(theta_deg)
    gamma = lorentz_factor([atom.za * math.sin(theta), 0.0, 0.0])
    print(f"  theta = {theta_deg:3d} deg: gamma_L = {gamma:.12f}")

"""Relativistic ground state of a hydrogen-like atom and its probability current.

Gamma matrices are taken in the Dirac-Pauli representation, the one in which
the 1S_1/2 bound spinors below have their familiar component structure:

    gamma^0 = diag(1, 1, -1, -1),   gamma^i = [[0, sigma_i], [-sigma_i, 0]].

With A(r) the radial amplitude, zeta = Z*alpha / (1 + gamma_exp) the
small-component scale, B = zeta*cos(theta) and D = zeta*sin(theta), the two
ground-state spinors are

    spin up:   A(r) * (1, 0, i B,            i D e^{+i phi})
    spin down: A(r) * (0, 1, i D e^{-i phi}, -i B)

and the contraction j^mu = Re[psibar gamma^mu psi] collapses to

    j^0 = A^2 (1 + B^2 + D^2),  j^1 = -/+ 2 A^2 D sin(phi),
    j^2 = +/- 2 A^2 D cos(phi), j^3 = 0        (upper sign: spin up).

The flow v^i = j^i / j^0 is purely azimuthal with speed Z*alpha*sin(theta),
anticlockwise around +z for spin up and clockwise for spin down. Spatial
current and velocity components here are Cartesian.

Everything runs on floats: dirac_ground_state, four_current_at and
bohm_velocity give the spinor, the contraction and the flow at a
SphericalPoint as Python numbers. The contraction is ground_current, the sums
of the full 64-term matrix contraction with their zero terms left out; the
field table evaluates it over an r slab of a grid, so a point's values equal
its row of a grid bit for bit.
"""

from __future__ import annotations

import math

from . import libm
from .coords import SphericalPoint, azimuthal_to_cartesian, pole_safe_sin
from .errors import DomainError, OriginSingularityError
from .physics_core import AtomConfig, SpinOrientation


def small_component_ratio(atom: AtomConfig) -> float:
    """zeta = Z*alpha / (1 + gamma_exp), algebraically equal to (1 - gamma_exp) / (Z*alpha).

    The quotient form avoids the cancellation the difference form suffers at
    small coupling.
    """
    return atom.za / (1.0 + atom.gamma_exp)


def _amplitude_prefactor(atom: AtomConfig) -> tuple[float, bool]:
    """A(r)'s constant factor, or its logarithm (flagged True) where the factor exceeds the float range."""
    c = 2.0 * atom.mass * atom.za
    g = atom.gamma_exp
    try:
        return c**1.5 / math.sqrt(4.0 * math.pi) * math.sqrt((1.0 + g) / (2.0 * math.gamma(1.0 + 2.0 * g))), False
    except OverflowError:
        return 1.5 * math.log(c) - 0.5 * math.log(8.0 * math.pi) + 0.5 * (math.log1p(g) - math.lgamma(1.0 + 2.0 * g)), True


def radial_amplitude(atom: AtomConfig, r: float) -> float:
    """Ground-state radial amplitude A(r).

    A(r) = (2 m Z alpha)^{3/2} / sqrt(4 pi)
           * sqrt((1 + gamma) / (2 Gamma(1 + 2 gamma)))
           * (2 m Z alpha r)^{gamma - 1} * exp(-m Z alpha r),

    with gamma = gamma_exp and Z*alpha used uniformly in the prefactor, the
    power law and the exponential. Diverges mildly as r -> 0 because
    gamma - 1 < 0, so r = 0 is rejected, as is an A(r) beyond the float range.
    """
    x = float(r)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"r must be nonnegative and finite, got {x}")
    if x == 0.0:
        raise OriginSingularityError("origin singularity: A(r) diverges at r = 0")
    c = 2.0 * atom.mass * atom.za
    g1 = atom.gamma_exp - 1.0
    factor, is_log = _amplitude_prefactor(atom)
    if is_log:  # sum the logarithms, so that a huge factor meets a tiny exponential first
        amp = libm.exp(factor + g1 * libm.log(c * x) - 0.5 * c * x)
    else:
        amp = factor * libm.power(c * x, g1) * libm.exp(-0.5 * c * x)
    if not math.isfinite(amp):
        raise DomainError(f"the amplitude A(r) exceeds the float range at r = {x!r}")
    return amp


def _spinor_parts(spin: SpinOrientation, amp: float, b: float, d: float, cos_phi: float, sin_phi: float):
    """The real and the imaginary parts of the four components, from real products alone.
    (A complex product may be taken with fused multiply-adds, which give an underflowing or
    zero part another sign than two roundings do.)"""
    if spin is SpinOrientation.UP:  # A (1, 0, i B, i D e^{i phi})
        return (amp, 0.0, 0.0, 0.0 - amp * (d * sin_phi)), (0.0, 0.0, amp * b, amp * (d * cos_phi))
    # A (0, 1, i D e^{-i phi}, -i B)
    return (0.0, amp, amp * (d * sin_phi), 0.0), (0.0, 0.0, amp * (d * cos_phi), 0.0 - amp * b)


def _point_factors(atom: AtomConfig, p: SphericalPoint) -> tuple[float, float, float, float, float]:
    """A(r), B = zeta cos(theta), D = zeta sin(theta), cos(phi) and sin(phi) at one point."""
    zeta = small_component_ratio(atom)
    return (radial_amplitude(atom, p.r), zeta * math.cos(p.theta), zeta * pole_safe_sin(p.theta),
            math.cos(p.phi), math.sin(p.phi))


def dirac_ground_state(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint) -> tuple[complex, ...]:
    """Bound 1S_1/2 bispinor at one point, as four complex numbers."""
    real, imag = _spinor_parts(spin, *_point_factors(atom, p))
    return tuple(map(complex, real, imag))


def ground_current(spin: SpinOrientation, amp: float, b, d_sin, d_cos) -> tuple[list[float], list[float], list[float]]:
    """j0, j1 and j2 of the ground-state spinor with A(r) = amp at each angle k, where
    B = b[k], D sin(phi) = d_sin[k] and D cos(phi) = d_cos[k]; j3 is 0.0 at every angle.

    These are the sums of the contraction Re[psibar gamma^mu psi], bit for bit, with only
    their nonzero terms: the 64 terms taken k outer and l inner, each added to a sum that
    starts at +0.0. Under round-to-nearest a sum that starts at +0.0 never becomes -0.0, so
    the terms of a zero gamma entry or a zero spinor component change no bit. With
    X = A (D sin phi), Y = A (D cos phi) and AB = A B, the terms left, in the contraction's
    order, are real products:

        spin up:   j0 = (X^2 + Y^2) + (AB^2 + A^2),  j1 = -2 A X,  j2 = 2 A Y;
        spin down: j0 = AB^2 + ((X^2 + Y^2) + A^2),  j1 = 2 A X,   j2 = -2 A Y.

    Their imaginary parts cancel exactly. A vanishing component is +0.0, as the sums
    give it (0.0 - a and a + 0.0 map a signed zero to +0.0).
    """
    aa = amp * amp
    ab = [amp * v for v in b]
    x = [amp * v for v in d_sin]
    y = [amp * v for v in d_cos]
    if spin is SpinOrientation.UP:
        j0 = [(u * u + w * w) + (c * c + aa) for c, u, w in zip(ab, x, y)]
        return j0, [0.0 - 2.0 * (amp * u) for u in x], [2.0 * (amp * w) + 0.0 for w in y]
    j0 = [c * c + ((u * u + w * w) + aa) for c, u, w in zip(ab, x, y)]
    return j0, [2.0 * (amp * u) + 0.0 for u in x], [0.0 - 2.0 * (amp * w) for w in y]


def four_current_at(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint) -> list[float]:
    """j^mu = Re[psibar gamma^mu psi] of the spinor at one point, [j0, j1, j2, j3], spatial
    parts Cartesian (ground_current at the point)."""
    amp, b, d, cos_phi, sin_phi = _point_factors(atom, p)
    j0, j1, j2 = ground_current(spin, amp, [b], [d * sin_phi], [d * cos_phi])
    return [j0[0], j1[0], j2[0], 0.0]


def azimuthal_speed(spin: SpinOrientation, atom: AtomConfig, theta: float) -> float:
    """The flow's phi component +/-Z*alpha*sin(theta) at colatitude theta (upper sign: spin up)."""
    speed = atom.za * pole_safe_sin(theta)
    return speed if spin is SpinOrientation.UP else -speed


def bohm_velocity(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint) -> tuple[float, float, float]:
    """Flow velocity v^i = j^i / j^0 at one point (Cartesian, units of c), as a float triple.

    Purely azimuthal; |v| = Z*alpha*sin(theta) independent of r and phi.
    The amplitude A(r)^2 is a common factor of j and j^0 and cancels from the
    ratio, which leaves 2 zeta sin(theta) / (1 + zeta^2) = Z*alpha*sin(theta)
    along +/- phi_hat. The velocity is therefore evaluated without A and stays
    defined at every r > 0, including radii where A(r)^2 underflows to zero.
    four_current_at remains the reference it is tested against.
    """
    if p.r == 0.0:
        raise OriginSingularityError("origin singularity: the flow is undefined at r = 0")
    return azimuthal_to_cartesian(p.phi, azimuthal_speed(spin, atom, p.theta))

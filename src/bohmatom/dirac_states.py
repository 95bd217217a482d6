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
current and velocity components here are Cartesian. The point functions take
a SphericalPoint or SphericalPoints (see coords).

A SphericalPoint runs on floats: spinor_at, four_current_at and velocity_at
give the spinor, the contraction and the flow as Python numbers, and the
public functions wrap them in arrays. The contraction on floats is
ground_current, the sums of dirac_current's einsum with their zero terms left
out; the field table evaluates it over an r slab of a grid. SphericalPoints
run on numpy columns. Both paths take exp, log, pow, cos and sin from libm, so
a point's values equal its row of a grid bit for bit, whatever numpy's CPU
dispatch. Importing the module loads no numpy.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING

from . import libm
from .coords import SphericalPoint, SphericalPoints, azimuthal_to_cartesian, columns, pole_safe_sin
from .errors import DomainError, OriginSingularityError
from .physics_core import AtomConfig, SpinOrientation

if TYPE_CHECKING:
    import numpy as np

#: Gauss rule sizes of the spinor-route quadratures: radial nodes for both, then
#: polar nodes for ground_state_norm and for mean_lorentz_factor_3d.
_NORM_RADIAL_NODES = 48
_NORM_THETA_NODES = 64
_ORACLE_THETA_NODES = 72


def _negated(m):
    return tuple(tuple(-c for c in row) for row in m)


def _block(a, b, c, d):
    """The 4x4 matrix [[a, b], [c, d]] of 2x2 blocks, as rows."""
    return tuple(ra + rb for ra, rb in zip(a, b)) + tuple(rc + rd for rc, rd in zip(c, d))


_ZERO = ((0j, 0j), (0j, 0j))
_EYE = ((1 + 0j, 0j), (0j, 1 + 0j))
_SIGMA = (
    ((0j, 1 + 0j), (1 + 0j, 0j)),
    ((0j, -1j), (1j, 0j)),
    ((1 + 0j, 0j), (0j, complex(-1.0))),
)
#: (gamma^0, gamma^1, gamma^2, gamma^3) as rows of complex numbers, negated blocks with their signed zeros.
_GAMMA = (_block(_EYE, _ZERO, _ZERO, _negated(_EYE)), *(_block(_ZERO, s, _negated(s), _ZERO) for s in _SIGMA))


@cache
def _gamma_array() -> np.ndarray:
    import numpy as np

    stack = np.array(_GAMMA, dtype=complex)
    stack.setflags(write=False)
    return stack


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices (gamma^0, gamma^1, gamma^2, gamma^3), read-only."""
    gamma = _gamma_array()
    return gamma[0], gamma[1], gamma[2], gamma[3]


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


def radial_amplitude(atom: AtomConfig, r):
    """Ground-state radial amplitude A(r), elementwise on arrays (a float r returns a float).

    A(r) = (2 m Z alpha)^{3/2} / sqrt(4 pi)
           * sqrt((1 + gamma) / (2 Gamma(1 + 2 gamma)))
           * (2 m Z alpha r)^{gamma - 1} * exp(-m Z alpha r),

    with gamma = gamma_exp and Z*alpha used uniformly in the prefactor, the
    power law and the exponential. Diverges mildly as r -> 0 because
    gamma - 1 < 0, so r = 0 is rejected, as is an A(r) beyond the float range.
    An array maps the float formula over its distinct radii.
    """
    c = 2.0 * atom.mass * atom.za
    g1 = atom.gamma_exp - 1.0
    factor, is_log = _amplitude_prefactor(atom)

    def amplitude(x: float) -> float:
        if is_log:  # sum the logarithms, so that a huge factor meets a tiny exponential first
            return libm.exp(factor + g1 * libm.log(c * x) - 0.5 * c * x)
        return factor * libm.power(c * x, g1) * libm.exp(-0.5 * c * x)

    x = libm.float_or_array(r)
    if isinstance(x, float):
        if not 0.0 <= x < math.inf:
            raise DomainError(f"r must be nonnegative and finite, got {x}")
        if x == 0.0:
            raise OriginSingularityError("origin singularity: A(r) diverges at r = 0")
        amp = amplitude(x)
        if not math.isfinite(amp):
            raise DomainError(f"the amplitude A(r) exceeds the float range at r = {x!r}")
        return amp
    import numpy as np

    bad = ~((x >= 0.0) & (x < math.inf))
    if bad.any():
        raise DomainError(f"r must be nonnegative and finite, got {x[bad][0]}")
    if (x == 0.0).any():
        raise OriginSingularityError("origin singularity: A(r) diverges at r = 0")
    amp = libm.elementwise(amplitude, x)
    if not np.isfinite(amp).all():
        raise DomainError(f"the amplitude A(r) exceeds the float range at r = {float(x.flat[np.argmin(np.isfinite(amp))])!r}")
    return amp


def _spinor_parts(spin: SpinOrientation, amp, b, d, cos_phi, sin_phi, zero):
    """The real and the imaginary parts of the four components, from real products alone, for
    floats and arrays alike. (numpy multiplies complex arrays with fused multiply-adds on some
    hosts, which give an underflowing or zero part another sign than two roundings do.)"""
    if spin is SpinOrientation.UP:  # A (1, 0, i B, i D e^{i phi})
        return (amp, zero, zero, 0.0 - amp * (d * sin_phi)), (zero, zero, amp * b, amp * (d * cos_phi))
    # A (0, 1, i D e^{-i phi}, -i B)
    return (zero, amp, amp * (d * sin_phi), zero), (zero, zero, amp * (d * cos_phi), 0.0 - amp * b)


def _point_factors(atom: AtomConfig, p: SphericalPoint) -> tuple[float, float, float, float, float]:
    """A(r), B = zeta cos(theta), D = zeta sin(theta), cos(phi) and sin(phi) at one point."""
    zeta = small_component_ratio(atom)
    return (radial_amplitude(atom, p.r), zeta * math.cos(p.theta), zeta * pole_safe_sin(p.theta),
            math.cos(p.phi), math.sin(p.phi))


def spinor_at(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint) -> tuple[complex, complex, complex, complex]:
    """The bispinor at one point as four complex numbers: dirac_ground_state's row, on floats."""
    real, imag = _spinor_parts(spin, *_point_factors(atom, p), 0.0)
    return tuple(map(complex, real, imag))


def dirac_ground_state(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Bound 1S_1/2 bispinor: shape (4,) complex at a point, (N, 4) over N points."""
    import numpy as np

    if isinstance(p, SphericalPoint):
        return np.array(spinor_at(spin, atom, p))
    amp = radial_amplitude(atom, p.r)
    zeta = small_component_ratio(atom)
    real, imag = _spinor_parts(
        spin, amp, zeta * libm.cos(p.theta), zeta * pole_safe_sin(p.theta),
        libm.cos(p.phi), libm.sin(p.phi), np.zeros_like(amp),
    )
    return libm.complex_array(np.stack(real, axis=-1), np.stack(imag, axis=-1))


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """Adjoint row spinor psi^dagger gamma^0: the conjugate with its lower two components
    negated (row by row for (N, 4))."""
    import numpy as np

    adjoint = np.conjugate(np.asarray(psi, dtype=complex))
    adjoint[..., 2:] = -adjoint[..., 2:]
    return adjoint


def ground_current(spin: SpinOrientation, amp: float, b, d_sin, d_cos) -> tuple[list[float], list[float], list[float]]:
    """j0, j1 and j2 of the ground-state spinor with A(r) = amp at each angle k, where
    B = b[k], D sin(phi) = d_sin[k] and D cos(phi) = d_cos[k]; j3 is 0.0 at every angle.

    These are the sums of dirac_current's contraction, bit for bit, with only their
    nonzero terms. Each sum starts at +0.0, and under round-to-nearest a sum that starts
    at +0.0 never becomes -0.0, so the terms of a zero gamma entry or a zero spinor
    component change no bit. With X = A (D sin phi), Y = A (D cos phi) and AB = A B, the
    terms left, in the contraction's order, are real products:

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
    """dirac_current of the spinor at one point, [j0, j1, j2, j3], on floats."""
    amp, b, d, cos_phi, sin_phi = _point_factors(atom, p)
    j0, j1, j2 = ground_current(spin, amp, [b], [d * sin_phi], [d * cos_phi])
    return [j0[0], j1[0], j2[0], 0.0]


def dirac_current(psi: np.ndarray) -> np.ndarray:
    """j^mu = Re[psibar gamma^mu psi] from the explicit matrix contraction.

    A real array with columns j0, j1, j2, j3 (spatial parts Cartesian): shape
    (4,) for psi of shape (4,) and (N, 4) for (N, 4), from one batched
    contraction. The imaginary part must cancel; it is checked row by row
    against 1e-13 relative to the density scale rather than trusted to vanish
    in floating point.
    """
    import numpy as np

    psi = np.asarray(psi, dtype=complex)
    rows = psi.reshape(-1, 4)
    j = np.einsum("nk,mkl,nl->nm", dirac_adjoint(rows), _gamma_array(), rows)
    scale = np.maximum(1.0, np.abs(j[:, 0].real))
    leak = np.max(np.abs(j.imag), axis=1)
    if (leak > 1e-13 * scale).any():
        i = int(np.argmax(leak / scale))
        raise ArithmeticError(f"gamma contraction produced imaginary current {float(leak[i])} (scale {float(scale[i])})")
    j = j.real.copy()  # owns its data, so the complex contraction is freed on return
    return j[0] if psi.ndim == 1 else j


def closed_form_current(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Ground-state current from the closed forms, laid out as dirac_current's
    array: (4,) at a point, (N, 4) over N points. The regression target for dirac_current."""
    import numpy as np

    r, theta, phi = columns(p)
    amp2 = radial_amplitude(atom, r) ** 2
    zeta = small_component_ratio(atom)
    b = zeta * np.cos(theta)
    d = zeta * pole_safe_sin(theta)
    sign = 1.0 if spin is SpinOrientation.UP else -1.0
    flow = sign * 2.0 * amp2 * d
    j = np.stack([amp2 * (1.0 + b * b + d * d), -flow * np.sin(phi), flow * np.cos(phi), np.zeros_like(amp2)], axis=-1)
    return j if isinstance(p, SphericalPoints) else j[0]


def azimuthal_speed(spin: SpinOrientation, atom: AtomConfig, theta):
    """The flow's phi component +/-Z*alpha*sin(theta) at colatitude theta (upper sign: spin up);
    elementwise on an array."""
    speed = atom.za * pole_safe_sin(theta)
    return speed if spin is SpinOrientation.UP else -speed


def velocity_at(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint) -> tuple[float, float, float]:
    """bohm_velocity at one point, as a float triple."""
    if p.r == 0.0:
        raise OriginSingularityError("origin singularity: the flow is undefined at r = 0")
    return azimuthal_to_cartesian(p.phi, azimuthal_speed(spin, atom, p.theta))


def bohm_velocity(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Flow velocity v^i = j^i / j^0 (Cartesian, units of c): (3,) at a point, (N, 3) over N points.

    Purely azimuthal; |v| = Z*alpha*sin(theta) independent of r and phi.
    The amplitude A(r)^2 is a common factor of j and j^0 and cancels from the
    ratio, which leaves 2 zeta sin(theta) / (1 + zeta^2) = Z*alpha*sin(theta)
    along +/- phi_hat. The velocity is therefore evaluated without A and stays
    defined at every r > 0, including radii where A(r)^2 underflows to zero.
    dirac_current of the spinor remains the reference it is tested against.
    """
    import numpy as np

    if isinstance(p, SphericalPoint):
        return np.array(velocity_at(spin, atom, p))
    if (p.r == 0.0).any():
        raise OriginSingularityError("origin singularity: the flow is undefined at r = 0")
    return azimuthal_to_cartesian(p.phi, azimuthal_speed(spin, atom, p.theta))


def ground_state_norm(spin: SpinOrientation, atom: AtomConfig) -> float:
    """Quadrature value of int j^0 d^3x through the spinor route (should equal 1)."""
    from .quadrature import axisymmetric_nodes

    points, weights = axisymmetric_nodes(atom, _NORM_RADIAL_NODES, _NORM_THETA_NODES)
    return float(weights @ dirac_current(dirac_ground_state(spin, atom, points))[:, 0])


def mean_lorentz_factor_3d(spin: SpinOrientation, atom: AtomConfig) -> float:
    """Full int gamma_L(v) j^0 d^3x through the spinor route; the quadrature
    oracle that the closed form of dilation.mean_lorentz_factor is tested against."""
    import numpy as np

    from .quadrature import axisymmetric_nodes

    points, weights = axisymmetric_nodes(atom, _NORM_RADIAL_NODES, _ORACLE_THETA_NODES)
    j = dirac_current(dirac_ground_state(spin, atom, points))
    v = j[:, 1:] / j[:, :1]
    return float(weights @ (j[:, 0] / np.sqrt(1.0 - np.sum(v * v, axis=1))))

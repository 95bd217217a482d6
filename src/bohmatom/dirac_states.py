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
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .coords import SphericalPoint, SphericalPoints, azimuthal_to_cartesian, columns, pole_safe_sin
from .errors import DomainError, OriginSingularityError
from .physics_core import AtomConfig
from .quadrature import axisymmetric_nodes

#: Radial and polar Gauss rule sizes of the ground_state_norm quadrature.
_NORM_RADIAL_NODES = 48
_NORM_THETA_NODES = 64

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _build_gammas() -> np.ndarray:
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    g0 = np.block([[eye, zero], [zero, -eye]])
    spatial = [np.block([[zero, s], [-s, zero]]) for s in _SIGMA]
    stack = np.stack([g0, *spatial])
    stack.setflags(write=False)
    return stack

_GAMMA = _build_gammas()
_GAMMA0 = _GAMMA[0]


class SpinOrientation(Enum):
    UP = "up"
    DOWN = "down"


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices (gamma^0, gamma^1, gamma^2, gamma^3), read-only."""
    return _GAMMA[0], _GAMMA[1], _GAMMA[2], _GAMMA[3]


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
    """
    rs = np.array(r, dtype=float, ndmin=1)
    bad = ~((rs >= 0.0) & (rs < math.inf))
    if bad.any():
        raise DomainError(f"r must be nonnegative and finite, got {rs[bad][0]}")
    if (rs == 0.0).any():
        raise OriginSingularityError("origin singularity: A(r) diverges at r = 0")
    c = 2.0 * atom.mass * atom.za
    g1 = atom.gamma_exp - 1.0
    factor, is_log = _amplitude_prefactor(atom)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if is_log:  # sum the logarithms, so that a huge factor meets a tiny exponential first
            amp = np.exp(factor + g1 * np.log(c * rs) - 0.5 * c * rs)
        else:
            amp = factor * (c * rs) ** g1 * np.exp(-0.5 * c * rs)
    if not np.isfinite(amp).all():
        raise DomainError(f"the amplitude A(r) exceeds the float range at r = {float(rs[np.argmin(np.isfinite(amp))])!r}")
    return amp if np.ndim(r) else float(amp[0])


def dirac_ground_state(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Bound 1S_1/2 bispinor: shape (4,) complex at a point, (N, 4) over N points."""
    r, theta, phi = columns(p)
    amp = radial_amplitude(atom, r)
    zeta = small_component_ratio(atom)
    b = zeta * np.cos(theta)
    d = zeta * pole_safe_sin(theta)
    one, zero = np.ones_like(b), np.zeros_like(b)
    if spin is SpinOrientation.UP:
        psi = np.stack([one, zero, 1j * b, 1j * d * np.exp(1j * phi)], axis=-1)
    else:
        psi = np.stack([zero, one, 1j * d * np.exp(-1j * phi), -1j * b], axis=-1)
    psi = amp[:, None] * psi
    return psi if isinstance(p, SphericalPoints) else psi[0]


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """Adjoint row spinor: conjugate transpose times gamma^0 (row by row for (N, 4))."""
    return np.conjugate(np.asarray(psi, dtype=complex)) @ _GAMMA0


def dirac_current(psi: np.ndarray) -> np.ndarray:
    """j^mu = Re[psibar gamma^mu psi] from the explicit matrix contraction.

    A real array with columns j0, j1, j2, j3 (spatial parts Cartesian): shape
    (4,) for psi of shape (4,), (N, 4) for (N, 4), from one batched
    contraction. The imaginary part must cancel; it is checked row by row
    against 1e-13 relative to the density scale rather than trusted to vanish
    in floating point.
    """
    rows = np.asarray(psi, dtype=complex).reshape(-1, 4)
    j = np.einsum("nk,mkl,nl->nm", dirac_adjoint(rows), _GAMMA, rows)
    scale = np.maximum(1.0, np.abs(j[:, 0].real))
    leak = np.max(np.abs(j.imag), axis=1)
    if (leak > 1e-13 * scale).any():
        i = int(np.argmax(leak / scale))
        raise ArithmeticError(f"gamma contraction produced imaginary current {leak[i]} (scale {scale[i]})")
    return j.real if np.ndim(psi) > 1 else j.real[0]


def closed_form_current(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Ground-state current from the closed forms, laid out as dirac_current's
    array: (4,) at a point, (N, 4) over N points. The regression target for dirac_current."""
    r, theta, phi = columns(p)
    amp2 = radial_amplitude(atom, r) ** 2
    zeta = small_component_ratio(atom)
    b = zeta * np.cos(theta)
    d = zeta * pole_safe_sin(theta)
    sign = 1.0 if spin is SpinOrientation.UP else -1.0
    flow = sign * 2.0 * amp2 * d
    j = np.stack([amp2 * (1.0 + b * b + d * d), -flow * np.sin(phi), flow * np.cos(phi), np.zeros_like(amp2)], axis=-1)
    return j if isinstance(p, SphericalPoints) else j[0]


def bohm_velocity(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Flow velocity v^i = j^i / j^0 (Cartesian, units of c): (3,) at a point, (N, 3) over N points.

    Purely azimuthal; |v| = Z*alpha*sin(theta) independent of r and phi.
    The amplitude A(r)^2 is a common factor of j and j^0 and cancels from the
    ratio, which leaves 2 zeta sin(theta) / (1 + zeta^2) = Z*alpha*sin(theta)
    along +/- phi_hat. The velocity is therefore evaluated without A and stays
    defined at every r > 0, including radii where A(r)^2 underflows to zero.
    dirac_current of the spinor remains the reference it is tested against.
    """
    r, theta, phi = columns(p)
    if (r == 0.0).any():
        raise OriginSingularityError("origin singularity: the flow is undefined at r = 0")
    speed = atom.za * pole_safe_sin(theta)
    if spin is SpinOrientation.DOWN:
        speed = -speed
    v = azimuthal_to_cartesian(phi, speed)
    return v if isinstance(p, SphericalPoints) else v[0]


def ground_state_norm(spin: SpinOrientation, atom: AtomConfig) -> float:
    """Quadrature value of int j^0 d^3x through the spinor route (should equal 1)."""
    points, weights = axisymmetric_nodes(atom, _NORM_RADIAL_NODES, _NORM_THETA_NODES)
    return float(weights @ dirac_current(dirac_ground_state(spin, atom, points))[:, 0])


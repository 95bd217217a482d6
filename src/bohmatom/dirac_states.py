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
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .coords import SphericalPoint, SphericalPoints, columns, pole_safe_sin
from .errors import DomainError, OriginSingularityError
from .physics_core import AtomConfig
from .quadrature import axisymmetric_nodes

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


@dataclass(frozen=True)
class FourCurrent:
    """Probability 4-current (j0, j1, j2, j3), spatial parts Cartesian: floats for one spinor, (N,) columns for N."""

    j0: float
    j1: float
    j2: float
    j3: float

    @property
    def spatial(self) -> np.ndarray:
        """(j1, j2, j3): shape (3,) for one spinor, (N, 3) for N."""
        return np.stack([self.j1, self.j2, self.j3], axis=-1)

    @property
    def minkowski_norm_sq(self):
        """j0^2 - |j|^2; nonnegative for a physical (timelike or null) current."""
        return self.j0 * self.j0 - (self.j1 * self.j1 + self.j2 * self.j2 + self.j3 * self.j3)


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices (gamma^0, gamma^1, gamma^2, gamma^3), read-only."""
    return _GAMMA[0], _GAMMA[1], _GAMMA[2], _GAMMA[3]


def small_component_ratio(atom: AtomConfig) -> float:
    """zeta = Z*alpha / (1 + gamma_exp), algebraically equal to (1 - gamma_exp) / (Z*alpha).

    The quotient form avoids the cancellation the difference form suffers at
    small coupling.
    """
    return atom.za / (1.0 + atom.gamma_exp)


@lru_cache(maxsize=64)
def _amplitude_prefactor(atom: AtomConfig) -> float:
    c = 2.0 * atom.mass * atom.za
    g = atom.gamma_exp
    return c**1.5 / math.sqrt(4.0 * math.pi) * math.sqrt((1.0 + g) / (2.0 * math.gamma(1.0 + 2.0 * g)))


def radial_amplitude(atom: AtomConfig, r):
    """Ground-state radial amplitude A(r), elementwise on arrays (a float r returns a float).

    A(r) = (2 m Z alpha)^{3/2} / sqrt(4 pi)
           * sqrt((1 + gamma) / (2 Gamma(1 + 2 gamma)))
           * (2 m Z alpha r)^{gamma - 1} * exp(-m Z alpha r),

    with gamma = gamma_exp and Z*alpha used uniformly in the prefactor, the
    power law and the exponential. Diverges mildly as r -> 0 because
    gamma - 1 < 0, so r = 0 is rejected.
    """
    rs = np.array(r, dtype=float, ndmin=1)
    bad = ~((rs >= 0.0) & (rs < math.inf))
    if bad.any():
        raise DomainError(f"r must be nonnegative and finite, got {rs[bad][0]}")
    if (rs == 0.0).any():
        raise OriginSingularityError("origin singularity: A(r) diverges at r = 0")
    c = 2.0 * atom.mass * atom.za
    amp = _amplitude_prefactor(atom) * (c * rs) ** (atom.gamma_exp - 1.0) * np.exp(-0.5 * c * rs)
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


def dirac_current(psi: np.ndarray) -> FourCurrent:
    """j^mu = Re[psibar gamma^mu psi] from the explicit matrix contraction.

    psi of shape (4,) gives float components, (N, 4) gives (N,) columns from
    one batched contraction. The imaginary part must cancel; it is checked
    row by row against 1e-13 relative to the density scale rather than
    trusted to vanish in floating point.
    """
    rows = np.asarray(psi, dtype=complex).reshape(-1, 4)
    j = np.einsum("nk,mkl,nl->nm", dirac_adjoint(rows), _GAMMA, rows)
    scale = np.maximum(1.0, np.abs(j[:, 0].real))
    leak = np.max(np.abs(j.imag), axis=1)
    if (leak > 1e-13 * scale).any():
        i = int(np.argmax(leak / scale))
        raise ArithmeticError(f"gamma contraction produced imaginary current {leak[i]} (scale {scale[i]})")
    return FourCurrent(*(j.real.T if np.ndim(psi) > 1 else j.real[0].tolist()))


def closed_form_current(spin: SpinOrientation, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> FourCurrent:
    """Ground-state current from the closed forms; regression target for dirac_current."""
    r, theta, phi = columns(p)
    amp2 = radial_amplitude(atom, r) ** 2
    zeta = small_component_ratio(atom)
    b = zeta * np.cos(theta)
    d = zeta * pole_safe_sin(theta)
    sign = 1.0 if spin is SpinOrientation.UP else -1.0
    j = (
        amp2 * (1.0 + b * b + d * d),
        -sign * 2.0 * amp2 * d * np.sin(phi),
        sign * 2.0 * amp2 * d * np.cos(phi),
        np.zeros_like(amp2),
    )
    return FourCurrent(*(j if isinstance(p, SphericalPoints) else (float(c[0]) for c in j)))


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
    # 0.0 - a and a + 0.0 map a signed zero to +0.0, so a flow that vanishes
    # (on the axis) is written as 0.0, never -0.0.
    v = np.stack([0.0 - speed * np.sin(phi), speed * np.cos(phi) + 0.0, np.zeros_like(speed)], axis=-1)
    return v if isinstance(p, SphericalPoints) else v[0]


def ground_state_norm(spin: SpinOrientation, atom: AtomConfig, n_radial: int = 48, n_theta: int = 64) -> float:
    """Quadrature value of int j^0 d^3x through the spinor route (should equal 1)."""
    points, weights = axisymmetric_nodes(atom, n_radial, n_theta)
    return float(weights @ dirac_current(dirac_ground_state(spin, atom, points)).j0)


def normalization_correction(
    spin: SpinOrientation, atom: AtomConfig, n_radial: int = 48, n_theta: int = 64
) -> float:
    """Multiplier kappa that would rescale A(r) to make int j^0 d^3x exactly 1.

    With Z*alpha used uniformly the closed-form normalization is already
    exact, so kappa stays within quadrature noise of 1; a deviation beyond
    1e-9 is reported as a warning since it would indicate a transcription
    problem in the amplitude.
    """
    kappa = 1.0 / math.sqrt(ground_state_norm(spin, atom, n_radial, n_theta))
    if abs(kappa - 1.0) > 1e-9:
        warnings.warn(
            f"radial amplitude normalization correction {kappa} deviates from 1",
            stacklevel=2,
        )
    return kappa

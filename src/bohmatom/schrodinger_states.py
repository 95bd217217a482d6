"""Non-relativistic hydrogen eigenstates, their polar form, and the guidance flow.

An energy eigenstate psi_nlm = R_nl(r) Y_l^m(theta, phi) has phase S = m*phi
wherever it does not vanish, so the phase gradient is known in closed form:

    grad S = (0, 0, m / (r sin(theta)))   in the (r_hat, theta_hat, phi_hat) basis.

The guidance momentum is grad S and the probability current is
|psi|^2 grad S / mass. Every vector returned by this module is expressed in
the local spherical basis; use coords.vector_to_cartesian to convert. The
point functions take a SphericalPoint or SphericalPoints (see coords).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import SphericalPoint, SphericalPoints, columns, pole_safe_sin
from .errors import DomainError, PhaseSingularityError
from .physics_core import AtomConfig
from .quadrature import angular_nodes, composite_gauss_legendre
from .special_functions import assoc_legendre, associated_laguerre, spherical_harmonic


@dataclass(frozen=True)
class QuantumNumbers:
    """(n, l, m) with n >= 1, 0 <= l <= n - 1, |m| <= l."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise DomainError(f"l must lie in [0, n-1], got n={self.n}, l={self.l}")
        if abs(self.m) > self.l:
            raise DomainError(f"|m| must not exceed l, got l={self.l}, m={self.m}")


@dataclass(frozen=True)
class PolarForm:
    """Amplitude-phase decomposition psi = amplitude * exp(i * phase).

    phase_defined is False exactly when the amplitude vanishes; the stored
    phase is NaN in that case.
    """

    amplitude: float
    phase: float
    phase_defined: bool = True


def radial_function(q: QuantumNumbers, atom: AtomConfig, r):
    """Normalized radial factor R_nl(r) with int_0^inf R^2 r^2 dr = 1; elementwise on arrays."""
    rs = np.array(r, dtype=float, ndmin=1)
    bad = ~((rs >= 0.0) & (rs < math.inf))
    if bad.any():
        raise DomainError(f"r must be nonnegative and finite, got {rs[bad][0]}")
    a = atom.bohr_radius
    # The factorial ratio is taken first, as a correctly rounded int division:
    # converting either factorial to float overflows from n + l = 171 on.
    try:
        norm = math.sqrt(
            (2.0 / (q.n * a)) ** 3
            * (math.factorial(q.n - q.l - 1) / math.factorial(q.n + q.l))
            / (2.0 * q.n)
        )
    except OverflowError:  # (2 / (n a))^3 overflows; the product below is then not finite
        norm = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        rho = 2.0 * rs / (q.n * a)
        radial = norm * rho**q.l * np.exp(-0.5 * rho) * associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, rho)
    if not np.isfinite(radial).all():
        i = int(np.argmin(np.isfinite(radial)))
        raise DomainError(f"R_nl(r) leaves the float range at r = {float(rs[i])!r}: a factor overflows")
    return radial if np.ndim(r) else float(radial[0])


def hydrogen_wavefunction(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints):
    """psi_nlm, normalized so that int |psi|^2 d^3x = 1: a complex at a point, shape (N,) over N points."""
    r, theta, phi = columns(p)
    psi = radial_function(q, atom, r) * spherical_harmonic(q.l, q.m, theta, phi)
    return psi if isinstance(p, SphericalPoints) else complex(psi[0])


def polar_decompose(psi: complex) -> PolarForm:
    """Split psi into amplitude |psi| and phase arg(psi) in (-pi, pi]."""
    amplitude = abs(psi)
    if amplitude == 0.0:
        return PolarForm(0.0, math.nan, phase_defined=False)
    return PolarForm(amplitude, math.atan2(psi.imag, psi.real))


def is_node(q: QuantumNumbers, atom: AtomConfig, r, cos_theta):
    """Whether psi_nlm vanishes at (r > 0, cos theta) off the axis, elementwise: a zero of the Laguerre
    factor or of P_l^|m| / sin^|m|. The other factors are positive, so an underflowed psi is no node."""
    with np.errstate(over="ignore", invalid="ignore"):  # a factor beyond the float range is no zero
        rho = 2.0 * r / (q.n * atom.bohr_radius)
        laguerre = associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, rho)
        return (laguerre == 0.0) | (assoc_legendre(q.l, abs(q.m), cos_theta, 1.0) == 0.0)


def bohm_momentum(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Guidance momentum grad S in the spherical basis: (3,) at a point, (N, 3) over N points.

    Identically zero for m = 0 states (real wavefunction, S = 0). For m != 0
    the phase S = m*phi is singular on the polar axis, which includes points
    where m/(r sin theta) overflows, and undefined at nodes.
    """
    r, theta, _ = columns(p)
    out = np.zeros((len(r), 3))
    if q.m != 0:
        with np.errstate(divide="ignore", over="ignore"):
            rate = q.m / (r * pole_safe_sin(theta))
        axis = ~np.isfinite(rate)  # r sin(theta) is 0, or so small that the rate overflows
        if axis.any():
            i = int(np.argmax(axis))
            raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined at r={r[i]}, theta={theta[i]}")
        if is_node(q, atom, r, np.cos(theta)).any():
            raise PhaseSingularityError("phase singularity: wavefunction node")
        out[:, 2] = rate
    return out if isinstance(p, SphericalPoints) else out[0]


def probability_current(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Probability current |psi|^2 grad S / mass in the spherical basis: (3,) at a point, (N, 3) over N points.

    Well defined everywhere: it vanishes at nodes and (for m != 0) on the
    polar axis, where |psi|^2 goes to zero faster than 1/(r sin theta) grows.
    """
    r, theta, _ = columns(p)
    out = np.zeros((len(r), 3))
    if q.m != 0:
        st = pole_safe_sin(theta)
        off_axis = atom.mass * r * st > 0.0  # on the axis, or so near that this product underflows, j = 0
        density = np.abs(np.atleast_1d(hydrogen_wavefunction(q, atom, p))) ** 2
        out[off_axis, 2] = density[off_axis] * q.m / (atom.mass * r[off_axis] * st[off_axis])
    return out if isinstance(p, SphericalPoints) else out[0]


def state_norm(q: QuantumNumbers, atom: AtomConfig, n_radial: int = 64, n_theta: int = 64) -> float:
    """Quadrature value of int |psi_nlm|^2 d^3x (should equal 1).

    Composite Gauss-Legendre panels in r out to 45 n a0 (density tail below
    1e-39 of the peak), Gauss-Legendre in cos(theta), exact 2*pi in phi.
    """
    a = atom.bohr_radius
    edges = np.array([0.0, 2.0, 8.0, 20.0, 45.0]) * q.n * a
    r_nodes, r_weights = composite_gauss_legendre(edges, n_radial)
    radial = radial_function(q, atom, r_nodes) ** 2 * r_nodes * r_nodes
    theta_nodes, theta_weights = angular_nodes(n_theta)
    angular = np.abs(spherical_harmonic(q.l, q.m, theta_nodes, 0.0)) ** 2
    return 2.0 * math.pi * float(np.sum(r_weights * radial)) * float(np.sum(theta_weights * angular))

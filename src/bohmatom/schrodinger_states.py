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

#: Gauss rule sizes of the state_norm quadrature: nodes per radial panel, and in cos(theta).
_NORM_RADIAL_NODES = 64
_NORM_THETA_NODES = 64


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
        # Where rho overflows, exp(-rho/2) is 0 and the product is 0 (l = 0) or inf * 0, which the
        # check below reports with the radius; the Laguerre factor is taken at 0 there, not rejected.
        laguerre = associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, np.where(rho < math.inf, rho, 0.0))
        radial = norm * rho**q.l * np.exp(-0.5 * rho) * laguerre
    if not np.isfinite(radial).all():
        i = int(np.argmin(np.isfinite(radial)))
        raise DomainError(f"R_nl(r) leaves the float range at r = {float(rs[i])!r}: a factor overflows")
    return radial if np.ndim(r) else float(radial[0])


def hydrogen_wavefunction(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints):
    """psi_nlm, normalized so that int |psi|^2 d^3x = 1: a complex at a point, shape (N,) over N points."""
    r, theta, phi = columns(p)
    psi = radial_function(q, atom, r) * spherical_harmonic(q.l, q.m, theta, phi)
    return psi if isinstance(p, SphericalPoints) else complex(psi[0])


def polar_decompose(psi: complex) -> tuple[float, float | None]:
    """psi = amplitude * exp(i * phase) as (amplitude, phase): |psi| and arg(psi) in (-pi, pi].

    The phase is None where psi = 0. atan2 gives -pi on the negative real axis when the imaginary
    part is -0.0 or too small to move it (sin(pi) is not exactly 0 in floats); that phase is
    written as pi, and a -0.0 phase as 0.0, as the package writes every vanishing value.
    """
    amplitude = abs(psi)
    if amplitude == 0.0:
        return 0.0, None
    phase = math.atan2(psi.imag, psi.real)
    return amplitude, (math.pi if phase == -math.pi else phase + 0.0)


def is_node(q: QuantumNumbers, atom: AtomConfig, r, cos_theta):
    """Whether psi_nlm vanishes at (r > 0, cos theta) off the axis, elementwise: a zero of the Laguerre
    factor or of P_l^|m| / sin^|m|. The other factors are positive, so an underflowed psi is no node,
    and a factor beyond the float range is no zero; so is the Laguerre factor where rho = 2r/(n a0) is."""
    degree, order, m = q.n - q.l - 1, 2 * q.l + 1, abs(q.m)
    if isinstance(r, float):  # one point, as the trajectory flow asks: float arithmetic raises no warning
        rho = 2.0 * r / (q.n * atom.bohr_radius)
        laguerre_zero = rho < math.inf and associated_laguerre(degree, order, rho) == 0.0
        return laguerre_zero or assoc_legendre(q.l, m, cos_theta, 1.0) == 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rho = 2.0 * r / (q.n * atom.bohr_radius)
        finite = rho < math.inf
        laguerre_zero = finite & (associated_laguerre(degree, order, np.where(finite, rho, 0.0)) == 0.0)
        return laguerre_zero | (assoc_legendre(q.l, m, cos_theta, 1.0) == 0.0)


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


def state_norm(q: QuantumNumbers, atom: AtomConfig) -> float:
    """Quadrature value of int |psi_nlm|^2 d^3x (should equal 1).

    Composite Gauss-Legendre panels in r out to 45 n a0 (density tail below
    1e-39 of the peak), Gauss-Legendre in cos(theta), exact 2*pi in phi.
    """
    a = atom.bohr_radius
    edges = np.array([0.0, 2.0, 8.0, 20.0, 45.0]) * q.n * a
    r_nodes, r_weights = composite_gauss_legendre(edges, _NORM_RADIAL_NODES)
    radial = radial_function(q, atom, r_nodes) ** 2 * r_nodes * r_nodes
    theta_nodes, theta_weights = angular_nodes(_NORM_THETA_NODES)
    angular = np.abs(spherical_harmonic(q.l, q.m, theta_nodes, 0.0)) ** 2
    return 2.0 * math.pi * float(np.sum(r_weights * radial)) * float(np.sum(theta_weights * angular))

"""Non-relativistic hydrogen eigenstates, their polar form, and the guidance flow.

An energy eigenstate psi_nlm = R_nl(r) Y_l^m(theta, phi) has phase S = m*phi
wherever it does not vanish, so the phase gradient is known in closed form:

    grad S = (0, 0, m / (r sin(theta)))   in the (r_hat, theta_hat, phi_hat) basis.

The guidance momentum is grad S and the probability current is
|psi|^2 grad S / mass. Every vector returned by this module is a float
triple in the local spherical basis; its only nonzero component is the phi
component, which coords.azimuthal_to_cartesian converts.

Everything runs on floats. psi = R_nl(r) Theta(theta) e^{i m phi}, so the
density (R_nl Theta)^2 does not depend on phi. The point functions take a
SphericalPoint; on a grid.SphericalGrid, hydrogen_wavefunction gives R_nl per
radius and Theta per colatitude, with the bits of the point functions. R_nl
has one body, radial_axis, which runs the Laguerre recurrence once per
distinct rho = 2r/(n a0); radial_function is its one-radius case.
"""

from __future__ import annotations

import math

from . import libm
from .coords import SphericalPoint, pole_safe_sin
from .errors import DomainError, PhaseSingularityError
from .frozen import Frozen
from .physics_core import AtomConfig
from .special_functions import assoc_legendre, associated_laguerre, colatitude_factors, with_azimuth

#: log(5e-324): an R_nl bounded below this rounds to 0.
_LOG_SMALLEST_SUBNORMAL = math.log(5e-324)


class QuantumNumbers(Frozen):
    """(n, l, m) with n >= 1, 0 <= l <= n - 1, |m| <= l."""

    _fields = ("n", "l", "m")

    def __init__(self, n: int, l: int, m: int):
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if not 0 <= l <= n - 1:
            raise DomainError(f"l must lie in [0, n-1], got n={n}, l={l}")
        if abs(m) > l:
            raise DomainError(f"|m| must not exceed l, got l={l}, m={m}")
        self._set(n, l, m)


def _radial_norm(q: QuantumNumbers, atom: AtomConfig) -> float:
    """The constant factor of R_nl: sqrt((2 / (n a0))^3 (n - l - 1)! / ((n + l)! 2n)), inf where it overflows."""
    # The factorial ratio is taken first, as a correctly rounded int division:
    # converting either factorial to float overflows from n + l = 171 on.
    try:
        return math.sqrt(
            (2.0 / (q.n * atom.bohr_radius)) ** 3 * (math.factorial(q.n - q.l - 1) / math.factorial(q.n + q.l)) / (2.0 * q.n)
        )
    except OverflowError:  # (2 / (n a))^3 overflows; the product with it is then not finite
        return math.inf


def _vanishes(q: QuantumNumbers, norm: float, rho: float, laguerre_at_minus_one: float) -> bool:
    """Whether R_nl is 0 where norm rho^l exp(-rho/2) L(rho) came out not finite."""
    # A factor overflowed where exp(-rho/2) underflowed. The Laguerre coefficients alternate in
    # sign, so for rho >= 1, |R_nl| <= norm rho^(n-1) L(-1) exp(-rho/2); where that bound is below
    # the smallest subnormal, or rho itself overflows (its logarithm is then inf - inf), R_nl is 0.
    if not (rho >= 1.0 and 0.0 < norm < math.inf):
        return False
    log_bound = math.log(norm) + (q.n - 1) * libm.log(rho) + libm.log(laguerre_at_minus_one) - 0.5 * rho
    return rho == math.inf or log_bound < _LOG_SMALLEST_SUBNORMAL


def radial_axis(q: QuantumNumbers, atom: AtomConfig, radii: list[float]) -> tuple[list[float], list[bool]]:
    """The normalized radial factor R_nl at each of the radii (floats, each >= 0 and finite), with
    int_0^inf R^2 r^2 dr = 1, and whether its Laguerre factor is exactly 0 there (is_node's radial
    test): R_nl = norm rho^l exp(-rho/2) L(rho) with rho = 2r/(n a0), the Laguerre recurrence run
    once per distinct rho."""
    norm = _radial_norm(q, atom)
    degree, order = q.n - q.l - 1, 2 * q.l + 1
    rho_of = [2.0 * x / (q.n * atom.bohr_radius) for x in radii]
    at_minus_one = None
    factor = {}
    for rho in dict.fromkeys(rho_of):
        # Where rho overflows, exp(-rho/2) is 0; the Laguerre factor is taken at 0 there, not rejected.
        laguerre = associated_laguerre(degree, order, rho if rho < math.inf else 0.0)
        value = norm * libm.power(rho, q.l) * libm.exp(-0.5 * rho) * laguerre
        if not math.isfinite(value):
            if at_minus_one is None:
                at_minus_one = associated_laguerre(degree, order, -1.0)
            if _vanishes(q, norm, rho, at_minus_one):
                value = 0.0
        factor[rho] = (value, rho < math.inf and laguerre == 0.0)
    values, nodes = zip(*map(factor.__getitem__, rho_of))
    for x, value in zip(radii, values):
        if not math.isfinite(value):
            raise DomainError(f"R_nl(r) leaves the float range at r = {x!r}: a factor overflows")
    return list(values), list(nodes)


def radial_function(q: QuantumNumbers, atom: AtomConfig, r: float) -> float:
    """Normalized radial factor R_nl(r): radial_axis at one radius."""
    x = float(r)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"r must be nonnegative and finite, got {x}")
    return radial_axis(q, atom, [x])[0][0]


def _point_factors(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint) -> tuple[float, float]:
    """(R_nl(p.r), Theta(p.theta)): the radial factor, and the colatitude factor of Y_l^m, at one point."""
    return radial_function(q, atom, p.r), colatitude_factors(q.l, q.m, [float(p.theta)])[0]


def hydrogen_wavefunction(q: QuantumNumbers, atom: AtomConfig, p, factors: tuple[float, float] | None = None):
    """psi_nlm, normalized so that int |psi|^2 d^3x = 1: a complex at a SphericalPoint p, where
    factors are (R_nl(p.r), Theta(p.theta)), the radial factor and the colatitude factor of Y_l^m
    (special_functions.colatitude_factors), computed here unless given.

    On a grid.SphericalGrid p, its factors, each evaluated once per value of its own axis, as the
    tuple (radial, radial_node, colatitude, angular_node): at radius i, colatitude t and azimuth
    phi, psi = R_nl Y_l^m with R_nl = radial[i] and Y_l^m = with_azimuth(m, colatitude[t], phi),
    and radial_node[i] and angular_node[t] tell whether the Laguerre factor at radius i, or
    P_l^|m| / sin^|m| at colatitude t, is exactly 0 (is_node on the axes)."""
    if not isinstance(p, SphericalPoint):
        radial, radial_node = radial_axis(q, atom, p.r)
        colatitude = colatitude_factors(q.l, q.m, p.theta)
        angular_node = [assoc_legendre(q.l, abs(q.m), math.cos(t), 1.0) == 0.0 for t in p.theta]
        return radial, radial_node, colatitude, angular_node
    radial, colatitude = _point_factors(q, atom, p) if factors is None else factors
    harmonic = with_azimuth(q.m, colatitude, float(p.phi))
    # + 0.0 maps a signed zero to +0.0: an m = 0 state is real, with imaginary part 0.0.
    return complex(radial * harmonic.real, radial * harmonic.imag + 0.0)


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


def is_node(
    q: QuantumNumbers, atom: AtomConfig, r: float, cos_theta: float, radial_node: bool | None = None
) -> bool:
    """Whether psi_nlm vanishes at (r > 0, cos theta) off the axis: a zero of the Laguerre factor
    or of P_l^|m| / sin^|m|. The other factors are positive, so an underflowed psi is no node, and
    a factor beyond the float range is no zero; so is the Laguerre factor where rho = 2r/(n a0) is.
    radial_node is the Laguerre test at r (radial_axis's node flag), computed here unless given."""
    if radial_node is None:
        rho = 2.0 * r / (q.n * atom.bohr_radius)
        radial_node = rho < math.inf and associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, rho) == 0.0
    return radial_node or assoc_legendre(q.l, abs(q.m), cos_theta, 1.0) == 0.0


def phase_gradient(q: QuantumNumbers, r: float, theta: float) -> float:
    """m / (r sin theta), the phi component of grad S at (r, theta), for m != 0. PhaseSingularityError
    where it is not finite: r sin(theta) is 0, or so small that the rate overflows."""
    rho = r * pole_safe_sin(theta)
    rate = q.m / rho if rho != 0.0 else math.inf
    if not math.isfinite(rate):
        raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined at r={r}, theta={theta}")
    return rate


def bohm_momentum(
    q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint, radial_node: bool | None = None
) -> tuple[float, float, float]:
    """Guidance momentum grad S at one point, in the spherical basis.

    Identically zero for m = 0 states (real wavefunction, S = 0). For m != 0
    the phase S = m*phi is singular on the polar axis, which includes points
    where m/(r sin theta) overflows, and undefined at nodes. radial_node is
    radial_axis's node flag at p.r, computed here unless given.
    """
    if q.m == 0:
        return (0.0, 0.0, 0.0)
    rate = phase_gradient(q, p.r, p.theta)
    if is_node(q, atom, p.r, math.cos(p.theta), radial_node):
        raise PhaseSingularityError("phase singularity: wavefunction node")
    return (0.0, 0.0, rate)


def probability_current(
    q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint, factors: tuple[float, float] | None = None
) -> tuple[float, float, float]:
    """Probability current |psi|^2 grad S / mass at one point, in the spherical basis.

    |psi|^2 is (R_nl Theta)^2, the same at every phi, with factors = (R_nl(p.r), Theta(p.theta))
    as hydrogen_wavefunction takes them, computed here unless given: at large n and l their
    norms' factorials take most of the time of a point.
    Well defined everywhere: it vanishes at nodes and (for m != 0) on the
    polar axis, where |psi|^2 goes to zero faster than 1/(r sin theta) grows.
    """
    if q.m == 0:
        return (0.0, 0.0, 0.0)
    radial, colatitude = _point_factors(q, atom, p) if factors is None else factors
    amplitude = radial * colatitude  # |psi| up to its sign
    density = amplitude * amplitude
    # On the axis, or so near that this product underflows, j = 0; where it overflows, j = density * m / inf = 0.
    rho_mass = atom.mass * p.r * pole_safe_sin(p.theta)
    return (0.0, 0.0, density * q.m / rho_mass if rho_mass > 0.0 else 0.0)

"""Non-relativistic hydrogen eigenstates, their polar form, and the guidance flow.

An energy eigenstate psi_nlm = R_nl(r) Y_l^m(theta, phi) has phase S = m*phi
wherever it does not vanish, so the phase gradient is known in closed form:

    grad S = (0, 0, m / (r sin(theta)))   in the (r_hat, theta_hat, phi_hat) basis.

The guidance momentum is grad S and the probability current is
|psi|^2 grad S / mass. Every vector returned by this module is expressed in
the local spherical basis; use coords.vector_to_cartesian to convert. The
point functions take a SphericalPoint or SphericalPoints (see coords).

A SphericalPoint runs on floats (momentum_at and current_at give its vectors
as float triples, which the public functions wrap in arrays); SphericalPoints
run on numpy columns; on a grid.SphericalGrid, hydrogen_wavefunction gives
each factor of psi once per value of its own axis. All paths take exp, log, pow, cos, sin and |psi| from
libm, so a point's values equal its row of a grid bit for bit, whatever
numpy's CPU dispatch. Importing the module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import libm
from .coords import SphericalPoint, SphericalPoints, columns, pole_safe_sin
from .errors import DomainError, PhaseSingularityError
from .physics_core import AtomConfig
from .special_functions import assoc_legendre, associated_laguerre, spherical_harmonic

if TYPE_CHECKING:
    import numpy as np

    from .grid import SphericalGrid

#: Gauss rule sizes of the state_norm quadrature: nodes per radial panel, and in cos(theta).
_NORM_RADIAL_NODES = 64
_NORM_THETA_NODES = 64
#: log(5e-324): an R_nl bounded below this rounds to 0.
_LOG_SMALLEST_SUBNORMAL = math.log(5e-324)


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


def _envelope(q: QuantumNumbers, norm: float, rho: float) -> float:
    """norm rho^l exp(-rho/2), the factor of R_nl beside the Laguerre polynomial."""
    return norm * libm.power(rho, q.l) * libm.exp(-0.5 * rho)


def _vanishes(q: QuantumNumbers, norm: float, rho: float, laguerre_at_minus_one: float) -> bool:
    """Whether R_nl is 0 where norm rho^l exp(-rho/2) L(rho) came out not finite."""
    # A factor overflowed where exp(-rho/2) underflowed. The Laguerre coefficients alternate in
    # sign, so for rho >= 1, |R_nl| <= norm rho^(n-1) L(-1) exp(-rho/2); where that bound is below
    # the smallest subnormal, or rho itself overflows (its logarithm is then inf - inf), R_nl is 0.
    if not (rho >= 1.0 and 0.0 < norm < math.inf):
        return False
    log_bound = math.log(norm) + (q.n - 1) * libm.log(rho) + libm.log(laguerre_at_minus_one) - 0.5 * rho
    return rho == math.inf or log_bound < _LOG_SMALLEST_SUBNORMAL


def radial_function(q: QuantumNumbers, atom: AtomConfig, r):
    """Normalized radial factor R_nl(r) with int_0^inf R^2 r^2 dr = 1; elementwise on arrays.

    R_nl = norm rho^l exp(-rho/2) L(rho) with rho = 2r/(n a0). An array takes its distinct radii,
    maps the libm factors norm rho^l exp(-rho/2) over them and runs the Laguerre recurrence on
    them as one array; its +, * and / round as float arithmetic does, so a float r gets the same bits.
    """
    a = atom.bohr_radius
    norm = _radial_norm(q, atom)
    degree, order = q.n - q.l - 1, 2 * q.l + 1

    x = libm.float_or_array(r)
    if isinstance(x, float):
        if not 0.0 <= x < math.inf:
            raise DomainError(f"r must be nonnegative and finite, got {x}")
        rho = 2.0 * x / (q.n * a)
        # Where rho overflows, exp(-rho/2) is 0; the Laguerre factor is taken at 0 there, not rejected.
        value = _envelope(q, norm, rho) * associated_laguerre(degree, order, rho if rho < math.inf else 0.0)
        if not math.isfinite(value):
            if _vanishes(q, norm, rho, associated_laguerre(degree, order, -1.0)):
                return 0.0
            raise DomainError(f"R_nl(r) leaves the float range at r = {x!r}: a factor overflows")
        return value
    import numpy as np

    bad = ~((x >= 0.0) & (x < math.inf))
    if bad.any():
        raise DomainError(f"r must be nonnegative and finite, got {x[bad][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        rho, inverse = libm.distinct(2.0 * x / (q.n * a))
        values = np.array([_envelope(q, norm, v) for v in rho.tolist()]) * associated_laguerre(
            degree, order, np.where(rho < math.inf, rho, 0.0)
        )
    overflow = np.flatnonzero(~np.isfinite(values))
    if overflow.size:
        at_minus_one = associated_laguerre(degree, order, -1.0)
        values[[i for i in overflow.tolist() if _vanishes(q, norm, float(rho[i]), at_minus_one)]] = 0.0
    values = values[inverse]
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise DomainError(f"R_nl(r) leaves the float range at r = {float(x.flat[i])!r}: a factor overflows")
    return values


def hydrogen_wavefunction(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints | SphericalGrid):
    """psi_nlm, normalized so that int |psi|^2 d^3x = 1: a complex at a point, shape (N,) over N
    points, and on a grid.SphericalGrid its factors (grid.SeparatedWavefunction), each evaluated
    once per value of its own axis."""
    if not isinstance(p, (SphericalPoint, SphericalPoints)):
        from .grid import separated_wavefunction

        return separated_wavefunction(q, atom, p)
    radial = radial_function(q, atom, p.r)
    harmonic = spherical_harmonic(q.l, q.m, p.theta, p.phi)
    # + 0.0 maps a signed zero to +0.0: an m = 0 state is real, with imaginary part 0.0.
    real, imag = radial * harmonic.real, radial * harmonic.imag + 0.0
    return complex(real, imag) if isinstance(p, SphericalPoint) else libm.complex_array(real, imag)


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
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        rho = 2.0 * r / (q.n * atom.bohr_radius)
        finite = rho < math.inf
        laguerre_zero = finite & (associated_laguerre(degree, order, np.where(finite, rho, 0.0)) == 0.0)
        return laguerre_zero | (assoc_legendre(q.l, m, cos_theta, 1.0) == 0.0)


def phase_gradient(q: QuantumNumbers, r: float, theta: float) -> float:
    """m / (r sin theta), the phi component of grad S at (r, theta), for m != 0. PhaseSingularityError
    where it is not finite: r sin(theta) is 0, or so small that the rate overflows."""
    rho = r * pole_safe_sin(theta)
    rate = q.m / rho if rho != 0.0 else math.inf
    if not math.isfinite(rate):
        raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined at r={r}, theta={theta}")
    return rate


def momentum_at(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint) -> tuple[float, float, float]:
    """bohm_momentum at one point, as a float triple."""
    if q.m == 0:
        return (0.0, 0.0, 0.0)
    rate = phase_gradient(q, p.r, p.theta)
    if is_node(q, atom, p.r, math.cos(p.theta)):
        raise PhaseSingularityError("phase singularity: wavefunction node")
    return (0.0, 0.0, rate)


def bohm_momentum(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Guidance momentum grad S in the spherical basis: (3,) at a point, (N, 3) over N points.

    Identically zero for m = 0 states (real wavefunction, S = 0). For m != 0
    the phase S = m*phi is singular on the polar axis, which includes points
    where m/(r sin theta) overflows, and undefined at nodes.
    """
    import numpy as np

    if isinstance(p, SphericalPoint):
        return np.array(momentum_at(q, atom, p))
    r, theta, _ = columns(p)
    out = np.zeros((len(r), 3))
    if q.m != 0:
        with np.errstate(divide="ignore", over="ignore"):
            rate = q.m / (r * pole_safe_sin(theta))
        axis = ~np.isfinite(rate)  # r sin(theta) is 0, or so small that the rate overflows
        if axis.any():
            i = int(np.argmax(axis))
            raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined at r={r[i]}, theta={theta[i]}")
        if is_node(q, atom, r, libm.cos(theta)).any():
            raise PhaseSingularityError("phase singularity: wavefunction node")
        out[:, 2] = rate
    return out


def current_at(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint, density: float) -> tuple[float, float, float]:
    """probability_current at one point, as a float triple, from the density |psi|^2 there."""
    if q.m == 0:
        return (0.0, 0.0, 0.0)
    # On the axis, or so near that this product underflows, j = 0; where it overflows, j = density * m / inf = 0.
    rho_mass = atom.mass * p.r * pole_safe_sin(p.theta)
    return (0.0, 0.0, density * q.m / rho_mass if rho_mass > 0.0 else 0.0)


def probability_current(q: QuantumNumbers, atom: AtomConfig, p: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Probability current |psi|^2 grad S / mass in the spherical basis: (3,) at a point, (N, 3) over N points.

    Well defined everywhere: it vanishes at nodes and (for m != 0) on the
    polar axis, where |psi|^2 goes to zero faster than 1/(r sin theta) grows.
    """
    import numpy as np

    if isinstance(p, SphericalPoint):
        density = libm.abs_squared(hydrogen_wavefunction(q, atom, p)) if q.m != 0 else 0.0
        return np.array(current_at(q, atom, p, density))
    r, theta, _ = columns(p)
    out = np.zeros((len(r), 3))
    if q.m != 0:
        st = pole_safe_sin(theta)
        density = libm.abs_squared(hydrogen_wavefunction(q, atom, p))
        # Where the product overflows, j = density * m / inf = 0; on the axis it may read inf * 0 = nan, not > 0.
        with np.errstate(over="ignore", invalid="ignore"):
            off_axis = atom.mass * r * st > 0.0  # on the axis, or so near that this product underflows, j = 0
            out[off_axis, 2] = density[off_axis] * q.m / (atom.mass * r[off_axis] * st[off_axis])
    return out


def state_norm(q: QuantumNumbers, atom: AtomConfig) -> float:
    """Quadrature value of int |psi_nlm|^2 d^3x (should equal 1).

    Composite Gauss-Legendre panels in r out to 45 n a0 (density tail below
    1e-39 of the peak), Gauss-Legendre in cos(theta), exact 2*pi in phi.
    """
    import numpy as np

    from .quadrature import angular_nodes, composite_gauss_legendre

    a = atom.bohr_radius
    edges = np.array([0.0, 2.0, 8.0, 20.0, 45.0]) * q.n * a
    r_nodes, r_weights = composite_gauss_legendre(edges, _NORM_RADIAL_NODES)
    radial = radial_function(q, atom, r_nodes) ** 2 * r_nodes * r_nodes
    theta_nodes, theta_weights = angular_nodes(_NORM_THETA_NODES)
    angular = np.abs(spherical_harmonic(q.l, q.m, theta_nodes, 0.0)) ** 2
    return 2.0 * math.pi * float(np.sum(r_weights * radial)) * float(np.sum(theta_weights * angular))

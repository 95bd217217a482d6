"""Time dilation of a bound unstable particle in the relativistic ground state.

Each trajectory of the ground-state flow is a circle of constant speed
Z*alpha*sin(theta), so its Lorentz factor is exact and theta-dependent. The
lifetime prediction reported here is the ensemble mean over the stationary
density, dilated_lifetime = rest_lifetime * <gamma_L>, with the pointwise
maximum (the equatorial trajectory) reported alongside so the spread across
trajectories is visible.

Because the speed depends only on theta and the density factorizes, the mean
is a one-dimensional theta average against the marginal weight sin(theta)/2,
which has the closed form artanh(Z*alpha) / (Z*alpha). That closed form is
the only runtime path, and it needs nothing but the math module; the full
three-dimensional quadrature through the spinor, dirac_states.mean_lorentz_factor_3d,
is kept as the oracle it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .physics_core import AtomConfig, SpinOrientation


def mean_lorentz_factor(spin: SpinOrientation, atom: AtomConfig) -> float:
    """Density-weighted mean Lorentz factor over the ground state, artanh(k) / k.

    With k = Z*alpha the flow speed is k*sin(theta) and the theta marginal of
    j^0 is sin(theta)/2, so the mean is the integral of
    1/sqrt(1 - k^2 sin^2 theta) against it, which equals artanh(k) / k =
    1 + k^2/3 + k^4/5 + ... for either spin.
    """
    return math.atanh(atom.za) / atom.za


def excess_over_za_sq(atom: AtomConfig) -> float:
    """(<gamma> - 1) / (Z*alpha)^2 = (artanh(k) - k) / k^3 = sum_j k^(2j) / (2j + 3), with k = Z*alpha.

    The difference form has a relative error of about eps / k^2, so below k = 0.5 the
    series is summed instead: its terms fall by k^2 <= 1/4, and 30 of them reach eps."""
    k = atom.za
    if k >= 0.5:
        return (math.atanh(k) - k) / k**3
    return math.fsum(k ** (2 * j) / (2 * j + 3) for j in range(30))


def dilated_lifetime(rest_lifetime: float, mean_gamma: float) -> float:
    """Observed lifetime rest_lifetime * mean_gamma of the bound particle."""
    if not (rest_lifetime > 0.0 and math.isfinite(rest_lifetime)):
        raise DomainError(f"rest_lifetime must be positive, got {rest_lifetime}")
    if not (mean_gamma >= 1.0 and math.isfinite(mean_gamma)):
        raise DomainError(f"mean_gamma must be >= 1, got {mean_gamma}")
    return rest_lifetime * mean_gamma


@dataclass(frozen=True)
class DilationReport:
    """Lifetime-dilation summary; lifetimes in seconds, everything else dimensionless."""

    mean_gamma: float
    pointwise_max_gamma: float
    rest_lifetime: float
    dilated_lifetime: float

    def __post_init__(self):
        if not 1.0 <= self.mean_gamma <= self.pointwise_max_gamma:
            raise DomainError(
                f"need 1 <= mean_gamma <= pointwise_max_gamma, got "
                f"{self.mean_gamma}, {self.pointwise_max_gamma}"
            )
        if self.rest_lifetime <= 0.0 or self.dilated_lifetime <= 0.0:
            raise DomainError("lifetimes must be positive")


def make_report(spin: SpinOrientation, atom: AtomConfig, rest_lifetime: float) -> DilationReport:
    """Assemble the DilationReport for one atom configuration.

    The pointwise maximum Lorentz factor sits on the equatorial trajectory,
    where the flow speed Z*alpha peaks: 1 / gamma_exp.
    """
    mean = mean_lorentz_factor(spin, atom)
    return DilationReport(
        mean_gamma=mean,
        # Near Z*alpha = 7e-9, artanh(k) / k rounds one ulp above 1 while
        # 1 / gamma_exp rounds to 1; the max keeps mean <= maximum.
        pointwise_max_gamma=max(1.0 / atom.gamma_exp, mean),
        rest_lifetime=rest_lifetime,
        dilated_lifetime=dilated_lifetime(rest_lifetime, mean),
    )

"""Physical constants, natural units, and per-atom derived quantities.

Everything internal works in natural units, hbar = c = 1, with the particle
mass as a free parameter (mass = 1 puts lengths in units of the reduced
Compton wavelength of that particle). Lifetime inputs and outputs are plain
seconds and never pass through a unit conversion.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, SupercriticalCouplingError
from .frozen import Frozen

#: CODATA fine-structure constant.
FINE_STRUCTURE = 0.0072973525693


class SpinOrientation(Enum):
    UP = "up"
    DOWN = "down"


class AtomConfig(Frozen):
    """Hydrogen-like atom: nuclear charge Z, coupling alpha, bound-particle mass.

    alpha is an explicit input rather than a baked-in constant so the
    non-relativistic limit can be probed by scaling it toward zero.
    """

    _fields = ("Z", "alpha", "mass")

    def __init__(self, Z: int, alpha: float = FINE_STRUCTURE, mass: float = 1.0):
        if Z < 1 or Z != int(Z):
            raise DomainError(f"Z must be a positive integer, got {Z}")
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise DomainError(f"alpha must be positive and finite, got {alpha}")
        if not (math.isfinite(mass) and mass > 0.0):
            raise DomainError(f"mass must be positive and finite, got {mass}")
        scale = mass * Z * alpha
        if not (0.0 < scale and 2.0 * scale < math.inf and 1.0 / scale < math.inf):
            raise DomainError(f"mass * Z * alpha = {scale!r} puts the Bohr radius out of the float range")
        if Z * alpha >= 1.0:
            raise SupercriticalCouplingError(
                f"supercritical coupling: Z*alpha = {Z * alpha} >= 1"
            )
        self._set(Z, alpha, mass)

    @property
    def za(self) -> float:
        """Effective coupling Z * alpha, used uniformly in all radial formulas."""
        return self.Z * self.alpha

    @property
    def gamma_exp(self) -> float:
        """Relativistic radial exponent sqrt(1 - (Z*alpha)^2), in (0, 1]."""
        return math.sqrt(1.0 - self.za * self.za)

    @property
    def bohr_radius(self) -> float:
        """Bohr radius 1 / (mass * Z * alpha) in natural units."""
        return 1.0 / (self.mass * self.Z * self.alpha)


def make_atom(Z: int = 1, alpha: float = FINE_STRUCTURE, mass: float = 1.0) -> AtomConfig:
    """Validated AtomConfig; fails with SupercriticalCouplingError when Z*alpha >= 1."""
    return AtomConfig(Z=Z, alpha=alpha, mass=mass)

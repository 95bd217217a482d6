"""Spherical points and conversions between spherical and Cartesian vector components, on floats.

All vector components expressed "in the spherical basis" refer to the local
orthonormal triad (r_hat, theta_hat, phi_hat) at the point in question.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .frozen import Frozen

TWO_PI = 2.0 * math.pi
#: 2**-511, whose square is the smallest normal float.
_SQRT_NORMAL_MIN = math.sqrt(sys.float_info.min)


class SphericalPoint(Frozen):
    """Position (r, theta, phi) with r >= 0, theta in [0, pi], phi in [0, 2*pi)."""

    _fields = ("r", "theta", "phi")

    def __init__(self, r: float, theta: float, phi: float):
        if not (math.isfinite(r) and math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError("spherical coordinates must be finite")
        if r < 0.0:
            raise DomainError(f"r must be nonnegative, got {r}")
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < TWO_PI:
            raise DomainError(f"phi must lie in [0, 2*pi), got {phi}")
        self._set(r, theta, phi)

    def xyz(self) -> tuple[float, float, float]:
        """Cartesian (x, y, z) as floats."""
        st = math.sin(self.theta)
        return (self.r * st * math.cos(self.phi), self.r * st * math.sin(self.phi), self.r * math.cos(self.theta))

    @classmethod
    def from_cartesian(cls, xyz) -> "SphericalPoint":
        x, y, z = (float(c) for c in xyz)
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            return cls(0.0, 0.0, 0.0)
        theta = math.acos(max(-1.0, min(1.0, z / r)))
        phi = math.atan2(y, x) % TWO_PI
        if phi >= TWO_PI:  # guard against rounding x % 2pi up to 2pi itself
            phi = 0.0
        return cls(r, theta, phi)


def pole_safe_sin(theta: float) -> float:
    """sin(theta) with the theta = pi endpoint mapped to exactly zero.

    math.sin(math.pi) is ~1.2e-16, but within the [0, pi] colatitude domain
    the endpoint denotes the south pole, where axial geometry must be exact
    (zero azimuthal speed, singular azimuthal phase).
    """
    return 0.0 if theta == math.pi else math.sin(theta)


def azimuthal_to_cartesian(phi: float, v_phi: float) -> tuple[float, float, float]:
    """Cartesian (v_x, v_y, v_z) of the azimuthal vector v_phi * phi_hat at azimuth phi."""
    # 0.0 - a and a + 0.0 map a signed zero to +0.0, so a flow that vanishes
    # (on the axis, or everywhere for m = 0) is written as 0.0, never -0.0.
    return (0.0 - v_phi * math.sin(phi), v_phi * math.cos(phi) + 0.0, 0.0)


def norm3(x: float, y: float, z: float) -> float:
    """The Euclidean norm of (x, y, z): the squares summed left to right, as np.linalg.norm sums
    them; where that sum overflows, or underflows below the smallest normal float for a nonzero
    vector, the vector is scaled by its largest component first."""
    n = math.sqrt(x * x + y * y + z * z)
    if _SQRT_NORMAL_MIN <= n < math.inf:  # a normal sum: no rescaling
        return n
    s = max(abs(x), abs(y), abs(z))
    if (n == math.inf or (n < _SQRT_NORMAL_MIN and s > 0.0)) and s < math.inf:
        x, y, z = x / s, y / s, z / s
        n = s * math.sqrt(x * x + y * y + z * z)
    return n

"""Spherical points and conversions between spherical and Cartesian vector components.

All vector components expressed "in the spherical basis" refer to the local
orthonormal triad (r_hat, theta_hat, phi_hat) at the point in question.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi
#: 2**-511, whose square is the smallest normal float.
_SQRT_NORMAL_MIN = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class SphericalPoint:
    """Position (r, theta, phi) with r >= 0, theta in [0, pi], phi in [0, 2*pi)."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise DomainError("spherical coordinates must be finite")
        if self.r < 0.0:
            raise DomainError(f"r must be nonnegative, got {self.r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < TWO_PI:
            raise DomainError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def to_cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [
                self.r * st * math.cos(self.phi),
                self.r * st * math.sin(self.phi),
                self.r * math.cos(self.theta),
            ]
        )

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


@dataclass(frozen=True, eq=False)
class SphericalPoints:
    """Many points as equal-length 1-D columns r, theta, phi, each row held to SphericalPoint's ranges."""

    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("r", "theta", "phi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        r, theta, phi = self.r, self.theta, self.phi
        ok = (r >= 0.0) & (r < math.inf) & (theta >= 0.0) & (theta <= math.pi) & (phi >= 0.0) & (phi < TWO_PI)
        if not ok.all():
            i = int(np.argmin(ok))
            SphericalPoint(float(r[i]), float(theta[i]), float(phi[i]))  # raises the DomainError naming the coordinate

    @classmethod
    def grid(cls, r, theta, phi) -> "SphericalPoints":
        """Every (r, theta, phi) combination, r-major, then theta, then phi."""
        return cls(*(c.ravel() for c in np.meshgrid(r, theta, phi, indexing="ij")))


def columns(p: SphericalPoint | SphericalPoints) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) as 1-D arrays. The state functions evaluate these and return row 0 for a
    SphericalPoint, so a point's result equals its row of a batch of points bit for bit."""
    return tuple(np.array(c, dtype=float, ndmin=1) for c in (p.r, p.theta, p.phi))


def pole_safe_sin(theta):
    """sin(theta) with the theta = pi endpoint mapped to exactly zero; elementwise on arrays.

    math.sin(math.pi) is ~1.2e-16, but within the [0, pi] colatitude domain
    the endpoint denotes the south pole, where axial geometry must be exact
    (zero azimuthal speed, singular azimuthal phase).
    """
    if np.ndim(theta):
        return np.where(theta == math.pi, 0.0, np.sin(theta))
    return 0.0 if theta == math.pi else math.sin(theta)


def spherical_basis(point: SphericalPoint | SphericalPoints) -> np.ndarray:
    """Rows r_hat, theta_hat, phi_hat in Cartesian components: (3, 3) at a point, (N, 3, 3) over N points."""
    st, ct = np.sin(point.theta), np.cos(point.theta)
    sp, cp = np.sin(point.phi), np.cos(point.phi)
    basis = np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, np.zeros_like(st)]])
    return np.moveaxis(basis, (0, 1), (-2, -1))


def vector_to_cartesian(point: SphericalPoint | SphericalPoints, components) -> np.ndarray:
    """Map (v_r, v_theta, v_phi) to Cartesian (v_x, v_y, v_z): (3,) at a point, (N, 3) over N points."""
    return np.einsum("...ki,...k->...i", spherical_basis(point), np.asarray(components, dtype=float))


def azimuthal_to_cartesian(phi, v_phi) -> np.ndarray:
    """Cartesian (v_x, v_y, v_z) of the azimuthal vector v_phi * phi_hat at azimuth phi:
    (N, 3) for 1-D columns, (3,) for scalars."""
    # 0.0 - a and a + 0.0 map a signed zero to +0.0, so a flow that vanishes
    # (on the axis, or everywhere for m = 0) is written as 0.0, never -0.0.
    return np.stack([0.0 - v_phi * np.sin(phi), v_phi * np.cos(phi) + 0.0, np.zeros_like(v_phi)], axis=-1)


def vector_norm(v):
    """np.linalg.norm over the last axis (a float for one vector); where the sum of squares
    overflows, or underflows below the smallest normal float for a nonzero vector, each vector
    is scaled by its largest component first."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(v, axis=-1 if v.ndim > 1 else None)
        s = np.abs(v).max(axis=-1)
        # n < sqrt(min) only where the sum of squares is below min, so a normal sum keeps its bits.
        scale = ((n == math.inf) | ((n < _SQRT_NORMAL_MIN) & (s > 0.0))) & (s < math.inf)
        n = np.where(scale, s * np.linalg.norm(v / s[..., None], axis=-1), n)
    return n if v.ndim > 1 else float(n)

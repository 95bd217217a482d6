"""One model object per family of states; each flow is a rigid rotation about z.

DiracGroundState(spin, atom) circulates at Z*alpha*sin(theta), so a start at
radius r turns at omega = +/-Z*alpha/r (upper sign: spin up).
SchrodingerEigenstate(q, atom) moves at m/(mass*rho) along phi_hat, with
rho = r sin(theta), so omega = m/(mass*rho^2), which is 0 for m = 0. Each gives
its grid table, its Cartesian velocity field, the rate of the exact circle
through a start and the state subcommand's keys; the CLI reaches the states
through these alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coords import SphericalPoint, SphericalPoints, azimuthal_to_cartesian, pole_safe_sin, vector_norm
from .dilation import lorentz_factor
from .dirac_states import SpinOrientation, bohm_velocity, dirac_current, dirac_ground_state
from .errors import DomainError, PhaseSingularityError
from .physics_core import AtomConfig
from .schrodinger_states import (
    QuantumNumbers,
    bohm_momentum,
    hydrogen_wavefunction,
    is_node,
    polar_decompose,
    probability_current,
)
from .trajectory_engine import ORIGIN_GUARD_RADII, VelocityField

#: Below the smallest normal float a sum of squares has lost digits.
_NORMAL_MIN = sys.float_info.min


def _rotation(w: float, x: float, y: float) -> tuple[float, float, float]:
    # 0.0 - a and a + 0.0 map a signed zero to +0.0, as coords.azimuthal_to_cartesian does.
    return (0.0 - w * y, w * x + 0.0, 0.0)


@dataclass(frozen=True)
class DiracGroundState:
    spin: SpinOrientation
    atom: AtomConfig

    @property
    def header(self) -> dict:
        return {"model": "dirac", "spin": self.spin.value, "quantum_numbers": None}

    def table(self, points: SphericalPoints) -> tuple[np.ndarray, np.ndarray]:
        """The (N, 4) current j^mu from the gamma contraction and the (N, 3) Cartesian velocity."""
        current = dirac_current(dirac_ground_state(self.spin, self.atom, points))
        return current, bohm_velocity(self.spin, self.atom, points)

    def velocity_field(self) -> VelocityField:
        """v = j/j0, which in Cartesian form reads +/-Z*alpha*(-y, x, 0)/r."""
        k = self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za

        def fn(x: float, y: float, z: float) -> tuple[float, float, float]:
            r_sq = x * x + y * y + z * z
            if _NORMAL_MIN <= r_sq < math.inf:
                return _rotation(k / math.sqrt(r_sq), x, y)
            r = math.hypot(x, y, z)  # the sum left the float range: scale by r instead of squaring it
            return _rotation(k, x / r, y / r)

        return VelocityField(fn, min_radius=ORIGIN_GUARD_RADII * self.atom.bohr_radius)

    def angular_rate(self, start: SphericalPoint) -> float:
        """+/-Z*alpha/r; 0 on the axis, where the flow vanishes, and inside the origin guard."""
        if pole_safe_sin(start.theta) == 0.0 or start.r < ORIGIN_GUARD_RADII * self.atom.bohr_radius:
            return 0.0
        rate = (self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za) / start.r
        if not abs(rate) < math.inf:
            raise DomainError(f"the angular rate Z*alpha/r exceeds the float range at r = {start.r!r}")
        return rate

    def describe(self, point: SphericalPoint) -> dict:
        psi = dirac_ground_state(self.spin, self.atom, point)
        current = dirac_current(psi)
        velocity = bohm_velocity(self.spin, self.atom, point)
        return {
            "spinor": [[float(c.real), float(c.imag)] for c in psi],
            "current": current.tolist(),
            "velocity": [float(c) for c in velocity],
            "speed": vector_norm(velocity),
            "lorentz_factor": lorentz_factor(velocity),
        }


@dataclass(frozen=True)
class SchrodingerEigenstate:
    q: QuantumNumbers
    atom: AtomConfig

    @property
    def header(self) -> dict:
        return {"model": "schrodinger", "spin": None, "quantum_numbers": [self.q.n, self.q.l, self.q.m]}

    def table(self, points: SphericalPoints) -> tuple[np.ndarray, np.ndarray]:
        """The (N, 4) current (density, then density times velocity) and the (N, 3) Cartesian velocity."""
        # One psi over the grid gives the density; the current is density times velocity.
        density = np.abs(hydrogen_wavefunction(self.q, self.atom, points)) ** 2
        velocity = azimuthal_to_cartesian(points.phi, bohm_momentum(self.q, self.atom, points)[:, 2] / self.atom.mass)
        return np.column_stack([density, density[:, None] * velocity]), velocity

    def velocity_field(self) -> VelocityField:
        """grad(S)/mass = (m/mass)(-y, x, 0)/(x^2 + y^2); exact zeros for m = 0, so those
        trajectories are fixed points bit for bit. PhaseSingularityError on the axis
        (including where the rate overflows) and at nodes."""
        if self.q.m == 0:
            return VelocityField(lambda x, y, z: (0.0, 0.0, 0.0))
        q, atom = self.q, self.atom
        k = q.m / atom.mass

        def fn(x: float, y: float, z: float) -> tuple[float, float, float]:
            d, s = x * x + y * y, 1.0
            r = math.sqrt(d + z * z)
            if not (_NORMAL_MIN <= d and r < math.inf and abs(k / d) < math.inf):
                d = s = math.hypot(x, y)  # a sum or the rate left the float range: scale by rho instead
                r = math.hypot(d, z)
            if r == abs(z) or not abs(k / d) < math.inf:  # the colatitude rounds to 0 or pi
                raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined on the z axis, z={z}")
            if is_node(q, atom, r, z / r):
                raise PhaseSingularityError("phase singularity: wavefunction node")
            return _rotation(k / d, x / s, y / s)

        return VelocityField(fn, min_radius=ORIGIN_GUARD_RADII * atom.bohr_radius)

    def angular_rate(self, start: SphericalPoint) -> float:
        """(m/mass)/rho^2; 0 where the flow is zero or undefined: for m = 0, on the
        axis (including where the rate overflows), at a node and inside the origin guard."""
        rho = start.r * pole_safe_sin(start.theta)
        if (
            self.q.m == 0
            or rho == 0.0
            or start.r < ORIGIN_GUARD_RADII * self.atom.bohr_radius
            or is_node(self.q, self.atom, start.r, math.cos(start.theta))
        ):
            return 0.0
        rate = self.q.m / self.atom.mass / rho / rho
        return rate if abs(rate) < math.inf else 0.0

    def describe(self, point: SphericalPoint) -> dict:
        psi = hydrogen_wavefunction(self.q, self.atom, point)
        amplitude, phase = polar_decompose(psi)
        current = probability_current(self.q, self.atom, point)
        velocity = azimuthal_to_cartesian(point.phi, bohm_momentum(self.q, self.atom, point)[2] / self.atom.mass)
        return {
            "psi": [float(psi.real), float(psi.imag)],
            "amplitude": amplitude,
            "phase": phase,
            "current_spherical": [float(c) for c in current],
            "velocity": [float(c) for c in velocity],
            "speed": vector_norm(velocity),
        }

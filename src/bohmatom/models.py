"""One model object per family of states; each flow is a rigid rotation about z.

DiracGroundState(spin, atom) circulates at Z*alpha*sin(theta), so a start at
radius r turns at omega = +/-Z*alpha/r (upper sign: spin up).
SchrodingerEigenstate(q, atom) moves at m/(mass*rho) along phi_hat, with
rho = r sin(theta), so omega = m/(mass*rho^2), which is 0 for m = 0. Each gives
its field table on a grid, its Cartesian velocity field, the rate of the exact
circle through a start and the state subcommand's keys; the CLI reaches the
states through these alone. All of them run on floats, without numpy.
"""

from __future__ import annotations

import math
import sys

from .coords import SphericalPoint, azimuthal_to_cartesian, pole_safe_sin
from .errors import DomainError, PhaseSingularityError
from .frozen import Frozen
from .physics_core import AtomConfig, SpinOrientation

#: Below the smallest normal float a sum of squares has lost digits.
_NORMAL_MIN = sys.float_info.min


def lorentz_factor(v) -> float:
    """gamma_L = 1 / sqrt(1 - |v|^2) for a velocity 3-vector with |v| < 1, the squares summed
    left to right as norm3 sums them."""
    x, y, z = map(float, v)
    speed_sq = x * x + y * y + z * z
    if speed_sq >= 1.0:
        raise DomainError(f"|v| must be < 1, got |v|^2 = {speed_sq}")
    return 1.0 / math.sqrt(1.0 - speed_sq)


def _with_finite_period(rate: float, r: float) -> float:
    """The rate of a start that moves; DomainError where it underflowed to 0 or its period 2*pi/|rate| overflows."""
    if rate == 0.0 or not 2.0 * math.pi / abs(rate) < math.inf:
        raise DomainError(f"the rotation period 2*pi/|omega| exceeds the float range at r = {r!r}")
    return rate


def _rotation(w: float, x: float, y: float) -> tuple[float, float, float]:
    # 0.0 - a and a + 0.0 map a signed zero to +0.0, as coords.azimuthal_to_cartesian does.
    return (0.0 - w * y, w * x + 0.0, 0.0)


class DiracGroundState(Frozen):
    _fields = ("spin", "atom")

    def __init__(self, spin: SpinOrientation, atom: AtomConfig):
        self._set(spin, atom)

    @property
    def header(self) -> dict:
        return {"model": "dirac", "spin": self.spin.value, "quantum_numbers": None}

    def field_table(self, grid: SphericalGrid) -> list:
        """The columns j0, j1, j2, j3, vx, vy, vz, speed of the field table on the grid (grid.dirac_table)."""
        from .grid import dirac_table

        return dirac_table(self.spin, self.atom, grid)

    def velocity_field(self) -> VelocityField:
        """v = j/j0, which in Cartesian form reads +/-Z*alpha*(-y, x, 0)/r."""
        from .trajectory_engine import ORIGIN_GUARD_RADII, VelocityField

        k = self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za

        def fn(x: float, y: float, z: float) -> tuple[float, float, float]:
            r_sq = x * x + y * y + z * z
            if _NORMAL_MIN <= r_sq < math.inf:
                return _rotation(k / math.sqrt(r_sq), x, y)
            r = math.hypot(x, y, z)  # the sum left the float range: scale by r instead of squaring it
            return _rotation(k, x / r, y / r)

        return VelocityField(fn, min_radius=ORIGIN_GUARD_RADII * self.atom.bohr_radius)

    def angular_rate(self, start: SphericalPoint) -> float:
        """+/-Z*alpha/r; 0 on the axis, where the flow vanishes, and inside the origin guard.
        DomainError where the rate or its period 2*pi/|rate| leaves the float range."""
        from .trajectory_engine import ORIGIN_GUARD_RADII

        if pole_safe_sin(start.theta) == 0.0 or start.r < ORIGIN_GUARD_RADII * self.atom.bohr_radius:
            return 0.0
        rate = (self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za) / start.r
        if not abs(rate) < math.inf:
            raise DomainError(f"the angular rate Z*alpha/r exceeds the float range at r = {start.r!r}")
        return _with_finite_period(rate, start.r)

    def describe(self, point: SphericalPoint) -> dict:
        from .dirac_states import azimuthal_speed, bohm_velocity, dirac_ground_state, four_current_at

        psi = dirac_ground_state(self.spin, self.atom, point)
        # The speed and the Lorentz factor come from the azimuthal rate: the same at every phi.
        speed = abs(azimuthal_speed(self.spin, self.atom, point.theta))
        return {
            "spinor": [[c.real, c.imag] for c in psi],
            "current": four_current_at(self.spin, self.atom, point),
            "velocity": list(bohm_velocity(self.spin, self.atom, point)),
            "speed": speed,
            "lorentz_factor": lorentz_factor((speed, 0.0, 0.0)),
        }


class SchrodingerEigenstate(Frozen):
    _fields = ("q", "atom")

    def __init__(self, q: QuantumNumbers, atom: AtomConfig):
        self._set(q, atom)

    @property
    def header(self) -> dict:
        return {"model": "schrodinger", "spin": None, "quantum_numbers": [self.q.n, self.q.l, self.q.m]}

    def field_table(self, grid: SphericalGrid) -> list:
        """The columns j0, j1, j2, j3, vx, vy, vz, speed of the field table on the grid (grid.schrodinger_table)."""
        from .grid import schrodinger_table

        return schrodinger_table(self.q, self.atom, grid)

    def velocity_field(self) -> VelocityField:
        """grad(S)/mass = (m/mass)(-y, x, 0)/(x^2 + y^2); exact zeros for m = 0, so those
        trajectories are fixed points bit for bit. PhaseSingularityError on the axis
        (including where the rate overflows) and at nodes."""
        from .schrodinger_states import is_node
        from .trajectory_engine import ORIGIN_GUARD_RADII, VelocityField

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
        axis (including where the rate overflows), at a node and inside the origin guard.
        DomainError where the start moves but the rate underflows or its period overflows."""
        from .schrodinger_states import is_node
        from .trajectory_engine import ORIGIN_GUARD_RADII

        rho = start.r * pole_safe_sin(start.theta)
        if (
            self.q.m == 0
            or rho == 0.0
            or start.r < ORIGIN_GUARD_RADII * self.atom.bohr_radius
            or is_node(self.q, self.atom, start.r, math.cos(start.theta))
        ):
            return 0.0
        rate = self.q.m / self.atom.mass / rho / rho
        return _with_finite_period(rate, start.r) if abs(rate) < math.inf else 0.0

    def describe(self, point: SphericalPoint) -> dict:
        from .schrodinger_states import (
            bohm_momentum, hydrogen_wavefunction, polar_decompose, probability_current, radial_axis,
        )
        from .special_functions import colatitude_factors

        # One radial_axis call gives R_nl and its node flag, and one colatitude_factors call Theta:
        # the Laguerre recurrence and the norms' factorials run once.
        (radial,), (radial_node,) = radial_axis(self.q, self.atom, [point.r])
        factors = (radial, colatitude_factors(self.q.l, self.q.m, [float(point.theta)])[0])
        psi = hydrogen_wavefunction(self.q, self.atom, point, factors)
        amplitude, phase = polar_decompose(psi)
        rate = bohm_momentum(self.q, self.atom, point, radial_node)[2] / self.atom.mass
        return {
            "psi": [psi.real, psi.imag],
            "amplitude": amplitude,
            "phase": phase,
            "current_spherical": list(probability_current(self.q, self.atom, point, factors)),
            "velocity": list(azimuthal_to_cartesian(point.phi, rate)),
            "speed": abs(rate),
        }

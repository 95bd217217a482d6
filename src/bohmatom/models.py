"""One model object per family of states; each flow is a rigid rotation about z.

DiracGroundState(spin, atom) circulates at Z*alpha*sin(theta), so a start at
radius r turns at omega = +/-Z*alpha/r (upper sign: spin up).
SchrodingerEigenstate(q, atom) moves at m/(mass*rho) along phi_hat, with
rho = r sin(theta), so omega = m/(mass*rho^2), which is 0 for m = 0. Each gives
its field table on a grid, its Cartesian velocity field, the rate of the exact
circle through a start and the state subcommand's keys; the CLI reaches the
states through these alone. All of them run on floats, without numpy.
Each flow alone decides where it is undefined (inside the origin guard, and for
m != 0 on the z axis and at the nodes); angular_rate asks it at the start.
"""

from __future__ import annotations

import math
import sys

from .coords import SphericalPoint, azimuthal_to_cartesian, pole_safe_sin
from .errors import DomainError, OriginSingularityError, PhaseSingularityError
from .frozen import Frozen
from .physics_core import AtomConfig, SpinOrientation

#: Below the smallest normal float a sum of squares has lost digits.
_NORMAL_MIN = sys.float_info.min
#: Each model's flow raises OriginSingularityError this close to the nucleus, in units of the Bohr radius,
#: and the trajectory is aborted there. Ground-state circles never come this close.
ORIGIN_GUARD_RADII = 1e-6


def lorentz_factor(v) -> float:
    """gamma_L = 1 / sqrt(1 - |v|^2) for a velocity 3-vector with |v| < 1, the squares summed
    left to right as norm3 sums them."""
    x, y, z = map(float, v)
    speed_sq = x * x + y * y + z * z
    if speed_sq >= 1.0:
        raise DomainError(f"|v| must be < 1, got |v|^2 = {speed_sq}")
    return 1.0 / math.sqrt(1.0 - speed_sq)


def _undefined_at(model, start: SphericalPoint) -> bool:
    """Whether the model's flow raises DomainError at the start, where it decides that it is undefined."""
    try:
        model.velocity_field().planar(*start.xyz())
    except DomainError:
        return True
    return False


def _with_finite_period(rate: float, r: float, formula: str) -> float:
    """The rate of a start that moves, the closed form `formula`; DomainError where it overflows, underflows
    to 0 or its period 2*pi/|rate| overflows."""
    if not abs(rate) < math.inf:
        raise DomainError(f"the angular rate {formula} exceeds the float range at r = {r!r}")
    if rate == 0.0 or not 2.0 * math.pi / abs(rate) < math.inf:
        raise DomainError(f"the rotation period 2*pi/|omega| exceeds the float range at r = {r!r}")
    return rate


def _origin_guard(atom: AtomConfig):
    """For the guard radius ORIGIN_GUARD_RADII * a0: a bound on x*x + y*y + z*z above which a point lies
    outside it, (2*guard)^2 taken as a product (inf, not OverflowError, for a huge guard) but at least the
    smallest normal float; and the exact test on hypot(x, y, z), which raises OriginSingularityError inside."""
    guard = ORIGIN_GUARD_RADII * atom.bohr_radius

    def outside(x: float, y: float, z: float) -> float:
        r = math.hypot(x, y, z)  # scaled rather than squared: no radius leaves the float range
        if r < guard:
            raise OriginSingularityError(f"trajectory entered guard radius {guard} around the origin")
        return r

    return max(_NORMAL_MIN, (2.0 * guard) * (2.0 * guard)), outside


class DiracGroundState(Frozen):
    _fields = ("spin", "atom")

    def __init__(self, spin: SpinOrientation, atom: AtomConfig):
        self._set(spin, atom)

    @property
    def header(self) -> dict:
        return {"model": "dirac", "spin": self.spin.value, "quantum_numbers": None}

    def field_table(self, grid: SphericalGrid) -> FieldTable:
        """The columns j0, j1, j2, j3, vx, vy, vz, speed of the field table on the grid (grid.dirac_table)."""
        from .grid import dirac_table

        return dirac_table(self.spin, self.atom, grid)

    def velocity_field(self) -> VelocityField:
        """v = j/j0, which in Cartesian form reads +/-Z*alpha*(-y, x, 0)/r."""
        from .trajectory_engine import VelocityField

        k = self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za
        clear, outside_guard = _origin_guard(self.atom)

        def planar(x: float, y: float, z: float) -> tuple[float, float]:
            # 0.0 - a and a + 0.0 map a signed zero to +0.0, as coords.azimuthal_to_cartesian does.
            r_sq = x * x + y * y + z * z
            if not clear < r_sq < math.inf:
                r = outside_guard(x, y, z)
                if not _NORMAL_MIN <= r_sq < math.inf:  # the sum left the float range: scale by r instead
                    return (0.0 - k * (y / r), k * (x / r) + 0.0)
            w = k / math.sqrt(r_sq)
            return (0.0 - w * y, w * x + 0.0)

        return VelocityField(planar)

    def angular_rate(self, start: SphericalPoint) -> float:
        """+/-Z*alpha/r; 0 where the flow is zero or undefined: at the poles, and wherever velocity_field()
        raises at the start (inside the origin guard). DomainError where the rate or its period 2*pi/|rate|
        leaves the float range."""
        if pole_safe_sin(start.theta) == 0.0 or _undefined_at(self, start):
            return 0.0
        rate = (self.atom.za if self.spin is SpinOrientation.UP else -self.atom.za) / start.r
        return _with_finite_period(rate, start.r, "Z*alpha/r")

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

    def field_table(self, grid: SphericalGrid) -> FieldTable:
        """The columns j0, j1, j2, j3, vx, vy, vz, speed of the field table on the grid (grid.schrodinger_table)."""
        from .grid import schrodinger_table

        return schrodinger_table(self.q, self.atom, grid)

    def velocity_field(self) -> VelocityField:
        """grad(S)/mass = (m/mass)(-y, x, 0)/(x^2 + y^2); exact zeros for m = 0, so those trajectories are fixed
        points bit for bit. PhaseSingularityError on the axis (including where the rate overflows) and at nodes."""
        from functools import lru_cache

        from .schrodinger_states import laguerre_node, legendre_node
        from .trajectory_engine import VelocityField

        if self.q.m == 0:
            return VelocityField(lambda x, y, z: (0.0, 0.0))
        q, atom = self.q, self.atom
        k = q.m / atom.mass
        clear, outside_guard = _origin_guard(atom)
        # The node test's recurrences cost O(n - l) and O(l), and an orbit meets few distinct radii and
        # cosines (under 200 of each in a 10 000-step orbit's 40 001 evaluations): each runs once per value.
        radial_node = lru_cache(maxsize=1024)(lambda r: laguerre_node(q, atom, r))
        angular_node = lru_cache(maxsize=1024)(lambda cos_theta: legendre_node(q, cos_theta))

        def planar(x: float, y: float, z: float) -> tuple[float, float]:
            d, s = x * x + y * y, 1.0
            r_sq = d + z * z
            if not clear < r_sq < math.inf:
                outside_guard(x, y, z)
            r = math.sqrt(r_sq)
            if not (_NORMAL_MIN <= d and r < math.inf and abs(k / d) < math.inf):
                d = s = math.hypot(x, y)  # a sum or the rate left the float range: scale by rho instead
                r = math.hypot(d, z)
            if r == abs(z) or not abs(k / d) < math.inf:  # the colatitude rounds to 0 or pi
                raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined on the z axis, z={z}")
            if radial_node(r) or angular_node(z / r):  # is_node(q, atom, r, z / r)
                raise PhaseSingularityError("phase singularity: wavefunction node")
            return (0.0 - k / d * (y / s), k / d * (x / s) + 0.0)

        return VelocityField(planar)

    def angular_rate(self, start: SphericalPoint) -> float:
        """(m/mass)/rho^2; 0 where the flow is zero or undefined: for m = 0, at the poles, and wherever
        velocity_field() raises at the start (on the axis, at a node and inside the origin guard).
        DomainError where the start moves but the rate or its period 2*pi/|rate| leaves the float range."""
        if self.q.m == 0 or pole_safe_sin(start.theta) == 0.0 or _undefined_at(self, start):
            return 0.0
        rho = start.r * math.sin(start.theta)  # not 0: the flow is undefined on the axis
        return _with_finite_period(self.q.m / self.atom.mass / rho / rho, start.r, "(m/mass)/rho^2")

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

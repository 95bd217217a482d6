"""Particle trajectories as integral curves of a model's velocity field.

Integration runs in Cartesian coordinates with fixed-step classical RK4, which
avoids the phi coordinate singularity on the polar axis and keeps runs exactly
reproducible. The Dirac ground-state flow is a family of horizontal circles
(r and theta constant), so every numerical orbit can be checked against the
exact rotation returned by analytic_orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import SphericalPoint, pole_safe_sin
from .dirac_states import SpinOrientation, bohm_velocity
from .errors import OriginSingularityError, PhaseSingularityError, TrajectorySingularityError
from .physics_core import AtomConfig
from .schrodinger_states import QuantumNumbers, is_node

#: Trajectories are aborted when they come this close to the nucleus, in units
#: of the Bohr radius. Ground-state circles never do; the guard protects
#: future superposition fields.
ORIGIN_GUARD_RADII = 1e-6


@dataclass(frozen=True)
class VelocityField:
    """Callable velocity field v(x) with model metadata and an origin guard."""

    fn: Callable[[np.ndarray], np.ndarray]
    model: str
    spin: SpinOrientation | None = None
    min_radius: float = 0.0

    def __call__(self, xyz: np.ndarray) -> np.ndarray:
        if self.min_radius > 0.0 and float(np.dot(xyz, xyz)) < self.min_radius**2:
            raise OriginSingularityError(
                f"trajectory entered guard radius {self.min_radius} around the origin"
            )
        return self.fn(xyz)


@dataclass(frozen=True)
class TrajectoryState:
    """Snapshot along a trajectory: time, Cartesian position and velocity."""

    t: float
    xyz: np.ndarray
    velocity: np.ndarray

    @property
    def position(self) -> SphericalPoint:
        return SphericalPoint.from_cartesian(self.xyz)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


def _read_only(a) -> np.ndarray:
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass
class Trajectory:
    """Uniform-step trajectory in columns, with its model tag (and spin for Dirac runs).

    Row k holds the state at time t[k]: position xyz[k] and velocity
    velocity[k], Cartesian. The columns are read-only views.
    """

    t: np.ndarray
    xyz: np.ndarray
    velocity: np.ndarray
    model: str = ""
    spin: SpinOrientation | None = None

    def __post_init__(self):
        self.t = _read_only(self.t)
        self.xyz = _read_only(self.xyz)
        self.velocity = _read_only(self.velocity)

    @property
    def states(self) -> list[TrajectoryState]:
        """The rows as TrajectoryState snapshots, derived from the columns."""
        return [TrajectoryState(t, x, v) for t, x, v in zip(self.t.tolist(), self.xyz, self.velocity)]

    def positions(self) -> np.ndarray:
        return self.xyz

    def times(self) -> np.ndarray:
        return self.t


def schrodinger_velocity_field(q: QuantumNumbers, atom: AtomConfig) -> VelocityField:
    """Guidance velocity grad(S)/mass of an eigenstate, as a Cartesian field.

    m = 0 states have identically zero field; the closure returns exact zeros
    without touching the wavefunction, so their trajectories are fixed points
    bit for bit. For m != 0 bohm_momentum's m/(r sin theta) phi_hat / mass is evaluated
    as (m/mass)(-y, x, 0)/(x^2 + y^2), raising PhaseSingularityError on the axis and at nodes.
    """
    if q.m == 0:
        def zero_fn(xyz: np.ndarray) -> np.ndarray:
            return np.zeros(3)

        return VelocityField(zero_fn, model="schrodinger", min_radius=0.0)

    guard = ORIGIN_GUARD_RADII * atom.bohr_radius
    k = q.m / atom.mass

    def fn(xyz: np.ndarray) -> np.ndarray:
        x, y, z = np.asarray(xyz, dtype=float).tolist()
        rho_sq = x * x + y * y
        r = math.sqrt(rho_sq + z * z)
        if rho_sq == 0.0 or r == abs(z):  # on the axis, where the colatitude rounds to 0 or pi
            raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined on the z axis, z={z}")
        if is_node(q, atom, r, z / r):
            raise PhaseSingularityError("phase singularity: wavefunction node")
        w = k / rho_sq
        return np.array([0.0 - w * y, w * x + 0.0, 0.0])

    return VelocityField(fn, model="schrodinger", min_radius=guard)


def dirac_velocity_field(spin: SpinOrientation, atom: AtomConfig) -> VelocityField:
    """Ground-state Dirac flow v = j/j0 as a Cartesian field.

    In Cartesian form bohm_velocity's Z*alpha*sin(theta)*phi_hat reads
    +/- Z*alpha*(-y, x, 0)/r (upper sign: spin up), evaluated here directly.
    """
    guard = ORIGIN_GUARD_RADII * atom.bohr_radius
    k = atom.za if spin is SpinOrientation.UP else -atom.za

    def fn(xyz: np.ndarray) -> np.ndarray:
        x, y, z = np.asarray(xyz, dtype=float).tolist()
        w = k / math.sqrt(x * x + y * y + z * z)
        return np.array([0.0 - w * y, w * x + 0.0, 0.0])  # signed zeros as in bohm_velocity

    return VelocityField(fn, model="dirac", spin=spin, min_radius=guard)


def integrate_trajectory(
    field: VelocityField, start: SphericalPoint, dt: float, steps: int
) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = v(x), returning every state.

    steps = 0 yields the single starting state. If any field evaluation hits
    the origin guard, a TrajectorySingularityError carrying the partial
    trajectory (up to the last good state) is raised.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")

    t = dt * np.arange(steps + 1, dtype=float)
    xyz = np.empty((steps + 1, 3))
    velocity = np.empty((steps + 1, 3))

    def columns(rows: int) -> Trajectory:
        return Trajectory(t[:rows], xyz[:rows], velocity[:rows], model=field.model, spin=field.spin)

    # `done` is the number of complete rows; inside the loop it is also the
    # index of the row being computed, so an abort keeps rows [0, done).
    done = 0
    x = start.to_cartesian()
    try:
        v = field(x)
        xyz[0] = x
        velocity[0] = v
        for done in range(1, steps + 1):
            k1 = v
            k2 = field(x + 0.5 * dt * k1)
            k3 = field(x + 0.5 * dt * k2)
            k4 = field(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            v = field(x)
            xyz[done] = x
            velocity[done] = v
        done = steps + 1
    except OriginSingularityError as exc:
        raise TrajectorySingularityError(str(exc), trajectory=columns(done)) from exc
    return columns(done)


def circular_orbit(start: SphericalPoint, angular_rate: float, t: float) -> SphericalPoint:
    """Uniform rotation about the z axis: r and theta fixed, phi advanced by rate*t."""
    phi = (start.phi + angular_rate * t) % (2.0 * math.pi)
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return SphericalPoint(start.r, start.theta, phi)


def circular_orbit_xyz(start: SphericalPoint, angular_rate: float, t: np.ndarray) -> np.ndarray:
    """Cartesian positions of circular_orbit(start, angular_rate, t_k) for the 1-D times t, shape (N, 3).

    The phase follows circular_orbit's rule and the sines and cosines come
    from the same math functions, so row k equals
    circular_orbit(start, angular_rate, t[k]).to_cartesian() bit for bit.
    """
    phi = (start.phi + angular_rate * np.asarray(t, dtype=float)) % (2.0 * math.pi)
    phi[phi >= 2.0 * math.pi] = 0.0
    phases = phi.tolist()
    rho = start.r * math.sin(start.theta)
    xyz = np.empty((len(phases), 3))
    xyz[:, 0] = [rho * math.cos(p) for p in phases]
    xyz[:, 1] = [rho * math.sin(p) for p in phases]
    xyz[:, 2] = start.r * math.cos(start.theta)
    return xyz


def analytic_orbit(
    spin: SpinOrientation, atom: AtomConfig, start: SphericalPoint, t: float
) -> SphericalPoint:
    """Exact Dirac ground-state trajectory through `start` evaluated at time t.

    The flow rotates the point about the z axis at angular rate
    omega = |v(theta)| / (r sin(theta)), anticlockwise for spin up and
    clockwise for spin down. On the axis (sin(theta) = 0) the point is fixed.
    """
    st = pole_safe_sin(start.theta)
    if st == 0.0:
        return start
    speed = float(np.linalg.norm(bohm_velocity(spin, atom, start)))
    omega = speed / (start.r * st)
    if spin is SpinOrientation.DOWN:
        omega = -omega
    return circular_orbit(start, omega, t)


def orbital_period(spin: SpinOrientation, atom: AtomConfig, start: SphericalPoint) -> float:
    """Period of the analytic circular orbit through `start`; inf on the axis."""
    st = pole_safe_sin(start.theta)
    if st == 0.0:
        return math.inf
    speed = float(np.linalg.norm(bohm_velocity(spin, atom, start)))
    if speed == 0.0:
        return math.inf
    return 2.0 * math.pi * start.r * st / speed

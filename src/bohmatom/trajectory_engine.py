"""Particle trajectories as integral curves of a velocity field.

Integration runs in Cartesian coordinates with fixed-step classical RK4, which
avoids the phi coordinate singularity on the polar axis and keeps runs exactly
reproducible. The RK4 loop works on Python floats x, y, z and a VelocityField
maps such a triple to the tuple (vx, vy, vz): one step costs a few
microseconds, where 3-element numpy arrays cost about five times as much.
Python float arithmetic rounds as numpy's elementwise arithmetic does, so the
float loop gives the same bits as the same RK4 on arrays. Every model flow is
a rigid rotation about the z axis (see models), so each numerical orbit can be
checked against the exact circle returned by circular_orbit_xyz.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coords import SphericalPoint
from .errors import DomainError, OriginSingularityError, TrajectorySingularityError

#: Trajectories are aborted when they come this close to the nucleus, in units
#: of the Bohr radius. Ground-state circles never do; the guard protects
#: future superposition fields.
ORIGIN_GUARD_RADII = 1e-6


@dataclass(frozen=True)
class VelocityField:
    """Callable velocity field (x, y, z) -> (vx, vy, vz) on floats, with an origin guard."""

    fn: Callable[[float, float, float], tuple[float, float, float]]
    min_radius: float = 0.0

    def __call__(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        # hypot scales rather than squares, so no radius leaves the float range.
        if self.min_radius > 0.0 and math.hypot(x, y, z) < self.min_radius:
            raise OriginSingularityError(
                f"trajectory entered guard radius {self.min_radius} around the origin"
            )
        return self.fn(x, y, z)


def _read_only(a) -> np.ndarray:
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass
class Trajectory:
    """Uniform-step trajectory in read-only columns.

    Row k holds the state at time t[k]: position xyz[k] and velocity
    velocity[k], Cartesian.
    """

    t: np.ndarray
    xyz: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.t = _read_only(self.t)
        self.xyz = _read_only(self.xyz)
        self.velocity = _read_only(self.velocity)


def integrate_trajectory(
    field: VelocityField, start: SphericalPoint, dt: float, steps: int
) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = v(x), returning every state.

    steps = 0 yields the single starting state. If any field evaluation hits
    the origin guard, a TrajectorySingularityError carrying the partial
    trajectory (up to the last good state) is raised.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if 24 * (steps + 1) > sys.maxsize:  # numpy refuses an (steps + 1, 3) column that large
        raise MemoryError(f"{steps} steps do not fit in memory")
    if not math.isfinite(dt * steps):
        raise DomainError(f"the end time dt * steps = {dt} * {steps} exceeds the float range")

    t = dt * np.arange(steps + 1, dtype=float)
    xyz = np.empty((steps + 1, 3))
    velocity = np.empty((steps + 1, 3))

    def columns(rows: int) -> Trajectory:
        return Trajectory(t[:rows], xyz[:rows], velocity[:rows])

    # `done` is the number of complete rows; inside the loop it is also the
    # index of the row being computed, so an abort keeps rows [0, done).
    # A position that overflows becomes inf or nan (Python floats raise no
    # warning), which the field or the caller rejects.
    done = 0
    x, y, z = start.to_cartesian().tolist()
    h2 = 0.5 * dt
    h6 = dt / 6.0
    try:
        v = field(x, y, z)
        xyz[0] = x, y, z
        velocity[0] = v
        for done in range(1, steps + 1):
            ax, ay, az = v
            bx, by, bz = field(x + h2 * ax, y + h2 * ay, z + h2 * az)
            cx, cy, cz = field(x + h2 * bx, y + h2 * by, z + h2 * bz)
            dx, dy, dz = field(x + dt * cx, y + dt * cy, z + dt * cz)
            x = x + h6 * (ax + 2.0 * bx + 2.0 * cx + dx)
            y = y + h6 * (ay + 2.0 * by + 2.0 * cy + dy)
            z = z + h6 * (az + 2.0 * bz + 2.0 * cz + dz)
            v = field(x, y, z)
            xyz[done] = x, y, z
            velocity[done] = v
        done = steps + 1
    except OriginSingularityError as exc:
        raise TrajectorySingularityError(str(exc), trajectory=columns(done)) from exc
    return columns(done)


def circular_orbit_xyz(start: SphericalPoint, angular_rate: float, t: np.ndarray) -> np.ndarray:
    """Cartesian positions, shape (N, 3), of the uniform rotation about z through start at the 1-D times t.

    r and theta stay fixed and phi advances to (start.phi + angular_rate * t)
    mod 2*pi, computed as SphericalPoint.to_cartesian computes a point.
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

"""Particle trajectories as integral curves of a velocity field.

Integration runs in Cartesian coordinates with fixed-step classical RK4, which
avoids the phi coordinate singularity on the polar axis and keeps runs exactly
reproducible. Every model flow is a rigid rotation about z (see models), so the
loop steps the Python floats x and y through the flow's planar closure, one
call per stage, with z fixed: the bits of the same RK4 on 3-element arrays, at
about 1 us per Dirac step, and each orbit can be checked against the exact
circle of circular_orbit. The rows go straight into one flat float buffer, an
anonymous memory map reserved before the first step. A 10 000-step Dirac
`trajectory` process takes 0.068 s and peaks at 16.6 MB (medians of 21 runs on
a shared 2-core Xeon host, Python 3.11; BENCH_21.json has the `orbit` runs)."""

from __future__ import annotations

import math
from array import array

from .coords import SphericalPoint
from .errors import DomainError, OriginSingularityError, TrajectorySingularityError
from .frozen import Frozen
from .writer import reserve_floats

#: Each model's flow raises OriginSingularityError this close to the nucleus, in units of the Bohr radius,
#: and the trajectory is aborted there. Ground-state circles never come this close.
ORIGIN_GUARD_RADII = 1e-6


class VelocityField(Frozen):
    """Callable velocity field (x, y, z) -> (vx, vy, 0.0) on floats. Every model flow rotates about z:
    `planar` maps (x, y, z) to (vx, vy), and raises OriginSingularityError inside the origin guard."""

    _fields = ("planar",)

    def __init__(self, planar: Callable[[float, float, float], tuple[float, float]]):
        self._set(planar)

    def __call__(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        return (*self.planar(x, y, z), 0.0)


#: The buffer's columns: t, x, y, z, vx, vy, vz.
_COLUMNS = 7


class Trajectory:
    """Uniform-step trajectory in one flat float buffer, read-only: row k holds the Cartesian position
    and velocity at time t[k]. The buffer holds the columns t, x, y, z, vx, vy, vz one after another,
    each `capacity` floats long, of which the first len(self) are filled (see `columns`)."""

    def __init__(self, buffer: memoryview, rows: int):
        self._buffer = buffer.toreadonly()
        self._capacity = len(buffer) // _COLUMNS
        self._rows = rows

    def __len__(self) -> int:
        return self._rows

    @property
    def columns(self) -> tuple[memoryview, ...]:
        """t, x, y, z, vx, vy, vz, each a memoryview of len(self) floats."""
        c, n = self._capacity, self._rows
        return tuple(self._buffer[k * c : k * c + n] for k in range(_COLUMNS))


def integrate_trajectory(field: VelocityField, start: SphericalPoint, dt: float, steps: int) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = v(x), returning every state (steps = 0: the start alone).
    Where an evaluation enters the origin guard, TrajectorySingularityError carries the partial
    trajectory, up to the last good state."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if not math.isfinite(dt * steps):
        raise DomainError(f"the end time dt * steps = {dt} * {steps} exceeds the float range")

    rows = steps + 1
    buffer = reserve_floats(_COLUMNS * rows)
    T, X, Y, Z, VX, VY, VZ = (buffer[k * rows : (k + 1) * rows] for k in range(_COLUMNS))

    # `done` is the number of complete rows; inside the loop it is also the index of the row being computed,
    # so an abort keeps rows [0, done). A position that overflows becomes inf or nan (Python floats raise no
    # warning), which the field or the caller rejects.
    done = 0
    x, y, z = start.xyz()
    h2, h6 = 0.5 * dt, dt / 6.0
    planar = field.planar
    try:
        ax, ay, VZ[0] = field(x, y, z)
        T[0], X[0], Y[0], Z[0], VX[0], VY[0] = 0.0, x, y, z, ax, ay
        # vz is 0.0 at every stage, so z stays fixed: z + h*0.0 is z, but for a signed zero, which
        # turns into +0.0. The map starts zero-filled, so the vz column already reads +0.0.
        z = z + h6 * 0.0
        for done in range(1, steps + 1):
            bx, by = planar(x + h2 * ax, y + h2 * ay, z)
            cx, cy = planar(x + h2 * bx, y + h2 * by, z)
            dx, dy = planar(x + dt * cx, y + dt * cy, z)
            x = x + h6 * (ax + 2.0 * bx + 2.0 * cx + dx)
            y = y + h6 * (ay + 2.0 * by + 2.0 * cy + dy)
            ax, ay = planar(x, y, z)
            T[done], X[done], Y[done], Z[done], VX[done], VY[done] = dt * done, x, y, z, ax, ay
        done = steps + 1
    except OriginSingularityError as exc:
        raise TrajectorySingularityError(str(exc), trajectory=Trajectory(buffer, done)) from exc
    return Trajectory(buffer, done)


def circular_orbit(start: SphericalPoint, angular_rate: float, t) -> tuple[array, array, array]:
    """Cartesian x, y and z columns, as array('d'), of the uniform rotation about z through start at the float times t.

    r and theta stay fixed and phi advances to (start.phi + angular_rate * t)
    mod 2*pi, computed as SphericalPoint.xyz computes a point.
    """
    two_pi = 2.0 * math.pi
    rho = start.r * math.sin(start.theta)
    x, y = array("d"), array("d")
    for time in t:
        phi = (start.phi + angular_rate * time) % two_pi
        if phi >= two_pi:  # the remainder of a tiny negative angle rounds up to 2*pi itself
            phi = 0.0
        x.append(rho * math.cos(phi))
        y.append(rho * math.sin(phi))
    return x, y, array("d", [start.r * math.cos(start.theta)]) * len(x)

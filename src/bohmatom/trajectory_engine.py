"""Particle trajectories as integral curves of a velocity field.

Integration runs in Cartesian coordinates with fixed-step classical RK4, which
avoids the phi coordinate singularity on the polar axis and keeps runs exactly
reproducible. Every model flow is a rigid rotation about z (see models), so the
loop steps the Python floats x and y through the flow's planar closure, one
call per stage, with z fixed: the bits of the same RK4 on 3-element arrays,
at the step times that BENCH_21.json records, and each orbit can be checked
against the exact circle of circular_orbit. integrate_trajectory returns the
columns t, x, y, z, vx, vy, vz, read-only memoryviews of floats that share one
anonymous memory map, reserved before the first step. The trajectory command's
table (TrajectoryTable) adds that circle and the distance to it, block by
block, in the process that writes the block. The `orbit` runs of the
BENCH_*.json files measure 10 000-step Dirac `trajectory` processes."""

from __future__ import annotations

import math
from array import array
from operator import sub

from .coords import SphericalPoint, norm3
from .errors import DomainError, OriginSingularityError, TrajectorySingularityError
from .frozen import Frozen
from .writer import _BLOCK_ROWS, reserve_floats


class VelocityField(Frozen):
    """Callable velocity field (x, y, z) -> (vx, vy, 0.0) on floats. Every model flow rotates about z:
    `planar` maps (x, y, z) to (vx, vy), and raises DomainError where the flow is undefined, such as
    OriginSingularityError inside the origin guard."""

    _fields = ("planar",)

    def __init__(self, planar: Callable[[float, float, float], tuple[float, float]]):
        self._set(planar)

    def __call__(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        return (*self.planar(x, y, z), 0.0)


def integrate_trajectory(field: VelocityField, start: SphericalPoint, dt: float, steps: int) -> tuple[memoryview, ...]:
    """Fixed-step RK4 integration of dx/dt = v(x), returning every state (steps = 0: the start alone) as
    the columns t, x, y, z, vx, vy, vz, read-only memoryviews of floats: row k is the Cartesian position and
    velocity at time t[k]. Where an evaluation enters the origin guard, TrajectorySingularityError carries
    those columns up to the last good state."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise DomainError(f"steps must be nonnegative, got {steps}")
    if not math.isfinite(dt * steps):
        raise DomainError(f"the end time dt * steps = {dt} * {steps} exceeds the float range")

    rows = steps + 1
    buffer = reserve_floats(7 * rows)
    columns = T, X, Y, Z, VX, VY, VZ = [buffer[k * rows : (k + 1) * rows] for k in range(7)]

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
        raise TrajectorySingularityError(str(exc), tuple(c[:done].toreadonly() for c in columns)) from exc
    return tuple(c.toreadonly() for c in columns)


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


class TrajectoryTable:
    """The table of the trajectory command: the RK4 run of a model's flow from start, steps steps of dt,
    where dt None is a ten-thousandth of the period of the exact circle through start (1.0 where it does
    not turn). Its columns are t, x, y, z, vx, vy, vz of the trajectory, then x_ref, y_ref and z_ref of
    that circle (circular_orbit) and deviation, the Cartesian distance to it, one value per row (spans of 1)
    in pieces of piece_rows = _BLOCK_ROWS rows, the writer's one table form. The last four are reserved in
    one shared map and hold 0.0 until fill(i) has computed block i, rows i * _BLOCK_ROWS on: the process
    that writes block i fills it, and the blocks a forked child fills are seen here.

    A run that enters the origin guard is kept up to its last good state, and error is then its
    TrajectorySingularityError (else None). summary is the run summary, whose max_deviation is a
    function to call once every block is filled. DomainError where the model or the run cannot start;
    MemoryError where the columns do not fit.
    """

    names = ("t", "x", "y", "z", "vx", "vy", "vz", "x_ref", "y_ref", "z_ref", "deviation")

    def __init__(self, model, start: SphericalPoint, dt: float | None, steps: int):
        # Signed rotation rate of the exact circular orbit through the start; 0 where there is none.
        self._start, self._rate = start, model.angular_rate(start)
        period = 2.0 * math.pi / abs(self._rate) if self._rate else math.inf
        if dt is None:
            dt = period / 10000.0 if math.isfinite(period) else 1.0
        try:
            columns, self.error = integrate_trajectory(model.velocity_field(), start, dt, steps), None
        except TrajectorySingularityError as exc:
            columns, self.error = exc.columns, exc
        n = len(columns[0])
        buffer = reserve_floats(4 * max(n, 1))  # a map is never empty
        self._reference = [buffer[k * n : (k + 1) * n] for k in range(4)]
        self.columns = [*columns, *self._reference]
        self.rows, self.piece_rows, self.spans = n, _BLOCK_ROWS, (1,) * len(self.columns)
        self.summary = {
            "dt": dt,
            "steps_requested": steps,
            "steps_completed": max(n - 1, 0),
            "period": period if math.isfinite(period) else None,
            "max_deviation": self.max_deviation,
            "aborted": self.error is not None,
        }

    def fill(self, i: int) -> None:
        """Compute block i of x_ref, y_ref, z_ref and deviation."""
        block = slice(i * _BLOCK_ROWS, (i + 1) * _BLOCK_ROWS)
        t, *xyz = (column[block] for column in self.columns[:4])
        ref = circular_orbit(self._start, self._rate, t)
        deviation = array("d", map(norm3, *(map(sub, a, b) for a, b in zip(xyz, ref))))
        for column, values in zip(self._reference, (*ref, deviation)):
            column[block] = values

    def max_deviation(self) -> float:
        """The largest deviation, 0.0 for a table of no rows; read once every block is filled."""
        return max(self._reference[3], default=0.0)

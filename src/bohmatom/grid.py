"""The field command's grid, and the assembly of both models' field tables on it, on floats.

A SphericalGrid is a product of three float axes. On it each factor of a state
runs once per value of its own axis: A(r), R_nl(r) and the Laguerre node test
per radius, zeta cos(theta), zeta sin(theta), the colatitude factor of Y_l^m
and the Legendre node test per colatitude, and sines and cosines per azimuth.
The state modules compute the factors. Both flows are rigid rotations about
z, so j0, j3 and the speed do not depend on phi: each is computed once per
(r, theta), by the arithmetic of the point at phi = 0, and every azimuth of
that (r, theta) carries its bits. Only j1, j2, vx and vy are computed per
point, into float columns reserved before the first point. Every value has
the bits of the state modules' point functions at the same point.

A table builds here all that can fail: the reserved columns, the factors per
radius and per colatitude, the node tests and the per-angle columns. Its
columns that change from slab to slab are filled one r slab at a time, by
the process that writes the slab (FieldTable.fill, called by the writer), so
that a forked child computes the back half of a large table and this process
only the front half. The table, which carries its column names, is in the
writer's one form: each column says how many rows one of its values spans, so
that the writer formats r once per slab, j0 (and the Schrodinger speed) once
per (r, theta) and the columns of one value per angle pair once for the table.

Only `field` imports this module (through the models' field_table), so the
other commands start without loading it; the Schrodinger modules load only
for a Schrodinger table.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import accumulate
from operator import mul

from .coords import azimuthal_to_cartesian, pole_safe_sin
from .errors import PhaseSingularityError
from .frozen import Frozen
from .physics_core import AtomConfig, SpinOrientation
from .writer import reserve_floats


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) on floats, bit for bit: start + k * step with step =
    (stop - start) / (num - 1) and the last value stop itself; where the step underflows to 0,
    start + k / (num - 1) * (stop - start), as numpy does for a subnormal step."""
    delta = stop - start
    if num < 2:
        return [k * delta + start for k in map(float, range(num))]
    step = delta / (num - 1)
    if step == 0.0:
        values = [k / (num - 1) * delta + start for k in map(float, range(num))]
    else:
        values = [k * step + start for k in map(float, range(num))]
    values[-1] = stop
    return values


class SphericalGrid(Frozen):
    """The product grid of the field table: r_count radii from r_min to r_max in equal steps
    (linspace), theta_count cell-centred colatitudes pi (k + 1/2) / theta_count and phi_count
    azimuths 2 pi k / phi_count, with 0 < r_min <= r_max < inf. Points run r-major, then
    theta, then phi, and every point lies in SphericalPoint's ranges.

    Each axis is a list of floats, computed on first access; a grid too large for memory
    can so be refused before its axes are built. One r slab is the theta_count * phi_count
    points at one radius, and the angle pairs of a slab run theta-major."""

    _fields = ("r_min", "r_max", "r_count", "theta_count", "phi_count")

    def __init__(self, r_min: float, r_max: float, r_count: int, theta_count: int, phi_count: int):
        self._set(r_min, r_max, r_count, theta_count, phi_count)

    @property
    def size(self) -> int:
        """The number of points (an int of any size, where len() would be limited to sys.maxsize)."""
        return self.r_count * self.theta_count * self.phi_count

    @cached_property
    def r(self) -> list[float]:
        return linspace(self.r_min, self.r_max, self.r_count)

    @cached_property
    def theta(self) -> list[float]:
        return [math.pi * (k + 0.5) / self.theta_count for k in range(self.theta_count)]

    @cached_property
    def phi(self) -> list[float]:
        return [2.0 * math.pi * k / self.phi_count for k in range(self.phi_count)]


class FieldTable:
    """The field table on a grid, in the one form the writer writes (see writer.Rows): rows, one per
    grid point, r-major, in pieces of piece_rows, one r slab each. Its columns, by names, are r, theta
    and phi, then j0, j1, j2, j3, vx, vy, vz and speed, and spans[k] is the number of rows one value
    of column k spans: a slab for r, phi_count for theta and for a column of one value per
    (r, theta), and 1 for phi and the others, which hold one value per point or one per angle pair
    of a slab, the same at every radius. The columns of one value per point or per (r, theta) are
    reserved before the first point and hold 0.0 until fill(i) has computed r slab i: the process
    that writes slab i fills it."""

    names = ("r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed")

    def __init__(self, grid: SphericalGrid, columns: list, spans: tuple[int, ...], fill):
        slab = grid.theta_count * grid.phi_count
        self.rows, self.piece_rows, self.fill = grid.size, slab, fill
        self.columns = [grid.r, grid.theta, grid.phi, *columns]
        self.spans = (slab, grid.phi_count, 1, *spans)


def _reserved(*lengths: int) -> list[memoryview]:
    """Float columns of the given lengths, reserved at once in one buffer before the first point
    (MemoryError if they cannot be)."""
    buffer = reserve_floats(sum(lengths))
    return [buffer[end - n : end] for n, end in zip(lengths, accumulate(lengths))]


def _put(column: memoryview, i: int, values: list) -> None:
    """Store the values as block i of the column, each block as long as the values: slab i of a
    column of one value per point, or the values of r slab i in a column of one value per (r, theta)."""
    n = len(values)
    column[i * n : (i + 1) * n] = array("d", values)


def _by_theta(grid: SphericalGrid, per_theta: list) -> list:
    """A value per colatitude of the grid, spread over the angle pairs of an r slab (theta-major)."""
    return [v for v in per_theta for _ in range(grid.phi_count)]


def _by_phi(grid: SphericalGrid, per_phi: list) -> list:
    """A value per azimuth of the grid, spread over the angle pairs of an r slab (theta-major)."""
    return per_phi * grid.theta_count


def dirac_table(spin: SpinOrientation, atom: AtomConfig, grid: SphericalGrid) -> FieldTable:
    """The Dirac field table on the grid: the current j^mu of the gamma contraction and the
    Cartesian velocity. j0 is summed once per (r, theta), each value spanning its azimuths; j1
    and j2 hold one value per point; the others one value per angle pair of an r slab, the same
    at every radius, where the speed is |Z*alpha*sin(theta)|, once per colatitude. A(r) is taken
    for every radius here, so that a DomainError is raised before any slab is filled."""
    from .dirac_states import azimuthal_speed, ground_current, radial_amplitude, small_component_ratio

    current = _reserved(grid.r_count * grid.theta_count, grid.size, grid.size)
    slab = grid.theta_count * grid.phi_count
    amplitudes = [radial_amplitude(atom, r) for r in grid.r]
    zeta = small_component_ratio(atom)
    b = [zeta * math.cos(t) for t in grid.theta]
    d = [zeta * pole_safe_sin(t) for t in grid.theta]
    d_sin = list(map(mul, _by_theta(grid, d), _by_phi(grid, [math.sin(p) for p in grid.phi])))
    d_cos = list(map(mul, _by_theta(grid, d), _by_phi(grid, [math.cos(p) for p in grid.phi])))

    def fill(i: int) -> None:
        for column, values in zip(current, ground_current(spin, amplitudes[i], b, d, d_sin, d_cos)):
            _put(column, i, values)

    rates = [azimuthal_speed(spin, atom, t) for t in grid.theta]
    vx, vy, vz = map(list, zip(*(azimuthal_to_cartesian(p, v) for v in rates for p in grid.phi)))
    columns = [*current, [0.0] * slab, vx, vy, vz, _by_theta(grid, list(map(abs, rates)))]
    return FieldTable(grid, columns, (grid.phi_count, *[1] * 7), fill)


def schrodinger_table(q: QuantumNumbers, atom: AtomConfig, grid: SphericalGrid) -> FieldTable:
    """The Schrodinger field table on the grid: the density |psi|^2, the current density times
    velocity and the Cartesian velocity grad(S)/mass. The density (R_nl Theta)^2 in j0 and, for
    m != 0, the speed |m / (mass r sin(theta))| are taken once per (r, theta), each value spanning
    its azimuths. For m != 0, j1, j2, vx and vy hold one value per point; the others hold one value
    per angle pair of an r slab, the same at every radius. R_nl, the rates and the node tests are
    taken here, so that PhaseSingularityError, for m != 0 where the grid meets the axis or a node,
    is raised before any slab is filled."""
    from .schrodinger_states import hydrogen_wavefunction, phase_gradient

    ring, point = grid.r_count * grid.theta_count, grid.size
    columns = _reserved(ring) if q.m == 0 else _reserved(ring, point, point, point, point, ring)
    slab = grid.theta_count * grid.phi_count
    radial, radial_node, colatitude, angular_node = hydrogen_wavefunction(q, atom, grid)
    if q.m != 0:
        rates = [[phase_gradient(q, r, t) / atom.mass for t in grid.theta] for r in grid.r]
        if any(radial_node) or any(angular_node):
            raise PhaseSingularityError("phase singularity: wavefunction node")
        sin_phi = _by_phi(grid, [math.sin(p) for p in grid.phi])
        cos_phi = _by_phi(grid, [math.cos(p) for p in grid.phi])

    def fill(i: int) -> None:
        rings = [a * a for a in (radial[i] * x for x in colatitude)]
        rows = [rings]
        if q.m != 0:
            density, v = _by_theta(grid, rings), _by_theta(grid, rates[i])
            # azimuthal_to_cartesian of v_phi = m / (mass r sin(theta)), and density times it.
            vx = [0.0 - w * s for w, s in zip(v, sin_phi)]
            vy = [w * c + 0.0 for w, c in zip(v, cos_phi)]
            rows += [list(map(mul, density, vx)), list(map(mul, density, vy)), vx, vy, list(map(abs, rates[i]))]
        for column, values in zip(columns, rows):
            _put(column, i, values)

    zeros = [0.0] * slab
    if q.m == 0:  # the flow and the current are 0.0 everywhere
        return FieldTable(grid, [*columns, *[zeros] * 7], (grid.phi_count, *[1] * 7), fill)
    j0, j1, j2, vx, vy, speed = columns
    spans = (grid.phi_count, 1, 1, 1, 1, 1, 1, grid.phi_count)
    return FieldTable(grid, [j0, j1, j2, zeros, vx, vy, zeros, speed], spans, fill)

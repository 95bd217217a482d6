"""The field command's grid, and the assembly of both models' field tables on it, on floats.

A SphericalGrid is a product of three float axes. On it each factor of a state
runs once per value of its own axis: A(r), R_nl(r) and the Laguerre node test
per radius, zeta cos(theta), zeta sin(theta), the colatitude factor of Y_l^m
and the Legendre node test per colatitude, and sines and cosines per azimuth.
The state modules compute the factors. Both flows are rigid rotations about
z, so j0, j3 and the speed do not depend on phi: each is computed once per
(r, theta), by the arithmetic of the point at phi = 0, and every azimuth of
that ring carries its bits. Only j1, j2, vx and vy are computed per point,
into float columns reserved before the first point. Every value has the bits
of the state modules' point functions at the same point.

Only `field` imports this module (through the models' field_table), so the
other commands start without loading it; the Schrodinger modules load only
for a Schrodinger table.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from operator import mul

from .coords import azimuthal_to_cartesian, pole_safe_sin
from .errors import PhaseSingularityError
from .frozen import Frozen
from .physics_core import AtomConfig, SpinOrientation
from .trajectory_engine import reserve_floats


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


def _point_columns(grid: SphericalGrid, count: int) -> list[memoryview]:
    """count float columns of one value per grid point, reserved at once in one buffer before
    the first point (MemoryError if they cannot be)."""
    n = grid.size
    buffer = reserve_floats(count * n)
    return [buffer[k * n : (k + 1) * n] for k in range(count)]


def _by_theta(grid: SphericalGrid, per_theta: list) -> list:
    """A value per colatitude of the grid, spread over the angle pairs of an r slab (theta-major)."""
    return [v for v in per_theta for _ in range(grid.phi_count)]


def _by_phi(grid: SphericalGrid, per_phi: list) -> list:
    """A value per azimuth of the grid, spread over the angle pairs of an r slab (theta-major)."""
    return per_phi * grid.theta_count


def dirac_table(spin: SpinOrientation, atom: AtomConfig, grid: SphericalGrid) -> list:
    """The columns j0, j1, j2, j3, vx, vy, vz, speed of the Dirac field table on the grid: the
    current j^mu of the gamma contraction and the Cartesian velocity. j0, j1 and j2 hold one value
    per point; the others one value per angle pair of an r slab, the same at every radius. j0 is
    summed once per (r, theta), and the speed is |Z*alpha*sin(theta)|, once per colatitude."""
    from .dirac_states import azimuthal_speed, ground_current, radial_amplitude, small_component_ratio

    current = _point_columns(grid, 3)
    slab = grid.theta_count * grid.phi_count
    zeta = small_component_ratio(atom)
    b = [zeta * math.cos(t) for t in grid.theta]
    d = [zeta * pole_safe_sin(t) for t in grid.theta]
    d_sin = list(map(mul, _by_theta(grid, d), _by_phi(grid, [math.sin(p) for p in grid.phi])))
    d_cos = list(map(mul, _by_theta(grid, d), _by_phi(grid, [math.cos(p) for p in grid.phi])))
    for i, r in enumerate(grid.r):
        j0, j1, j2 = ground_current(spin, radial_amplitude(atom, r), b, d, d_sin, d_cos)
        for column, values in zip(current, (_by_theta(grid, j0), j1, j2)):
            column[i * slab : (i + 1) * slab] = array("d", values)
    rates = [azimuthal_speed(spin, atom, t) for t in grid.theta]
    vx, vy, vz = map(list, zip(*(azimuthal_to_cartesian(p, v) for v in rates for p in grid.phi)))
    return [*current, [0.0] * slab, vx, vy, vz, _by_theta(grid, list(map(abs, rates)))]


def schrodinger_table(q: QuantumNumbers, atom: AtomConfig, grid: SphericalGrid) -> list:
    """The columns j0, j1, j2, j3, vx, vy, vz, speed of the Schrodinger field table on the grid:
    the density |psi|^2, the current density times velocity and the Cartesian velocity
    grad(S)/mass. j0 holds one value per point, and so do j1, j2, vx, vy and speed for m != 0;
    the others hold one value per angle pair of an r slab, the same at every radius. The density
    (R_nl Theta)^2 and the speed |m / (mass r sin(theta))| are taken once per (r, theta).
    PhaseSingularityError for m != 0 where the grid meets the axis or a node."""
    from .schrodinger_states import hydrogen_wavefunction, phase_gradient

    columns = _point_columns(grid, 1 if q.m == 0 else 6)
    slab = grid.theta_count * grid.phi_count
    radial, radial_node, colatitude, angular_node = hydrogen_wavefunction(q, atom, grid)
    if q.m != 0:
        rates = [[phase_gradient(q, r, t) / atom.mass for t in grid.theta] for r in grid.r]
        if any(radial_node) or any(angular_node):
            raise PhaseSingularityError("phase singularity: wavefunction node")
        sin_phi = _by_phi(grid, [math.sin(p) for p in grid.phi])
        cos_phi = _by_phi(grid, [math.cos(p) for p in grid.phi])
    zeros = [0.0] * slab
    for i, factor in enumerate(radial):
        density = _by_theta(grid, [a * a for a in (factor * x for x in colatitude)])
        rows = [density]
        if q.m != 0:
            v = _by_theta(grid, rates[i])
            # azimuthal_to_cartesian of v_phi = m / (mass r sin(theta)), and density times it.
            vx = [0.0 - w * s for w, s in zip(v, sin_phi)]
            vy = [w * c + 0.0 for w, c in zip(v, cos_phi)]
            speed = _by_theta(grid, list(map(abs, rates[i])))
            rows += [list(map(mul, density, vx)), list(map(mul, density, vy)), vx, vy, speed]
        for column, values in zip(columns, rows):
            column[i * slab : (i + 1) * slab] = array("d", values)
    if q.m == 0:  # the flow and the current are 0.0 everywhere
        return [*columns, zeros, zeros, zeros, zeros, zeros, zeros, zeros]
    j0, j1, j2, vx, vy, speed = columns
    return [j0, j1, j2, zeros, vx, vy, zeros, speed]

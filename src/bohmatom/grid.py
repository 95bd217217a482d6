"""The field command's grid and the field tables of both models on it, on floats.

A SphericalGrid is a product of three float axes. On it each factor of a state
runs once per value of its own axis: A(r), R_nl(r) and the Laguerre node test
per radius, zeta cos(theta), zeta sin(theta), P_l^m and the Legendre node test
per colatitude, and sines and cosines per azimuth. Only the current (for
Schrodinger also psi, the density and the velocity) is computed per point,
into float columns reserved before the first point. Every value has the bits
of the state modules' array functions at the same point.

Only `field` imports this module (through the models' field_table), so the
other commands start without loading it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import libm
from .coords import azimuthal_to_cartesian, norm3, pole_safe_sin
from .errors import DomainError, PhaseSingularityError
from .physics_core import AtomConfig, SpinOrientation
from .schrodinger_states import (
    QuantumNumbers,
    _envelope,
    _radial_norm,
    _vanishes,
    hydrogen_wavefunction,
    phase_gradient,
)
from .special_functions import assoc_legendre, associated_laguerre, spherical_harmonic_table
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


@dataclass(frozen=True)
class SphericalGrid:
    """The product grid of the field table: r_count radii from r_min to r_max in equal steps
    (linspace), theta_count cell-centred colatitudes pi (k + 1/2) / theta_count and phi_count
    azimuths 2 pi k / phi_count, with 0 < r_min <= r_max < inf. Points run r-major, then
    theta, then phi, and every point lies in SphericalPoint's ranges.

    Each axis is a list of floats, computed on first access; a grid too large for memory
    can so be refused before its axes are built. One r slab is the theta_count * phi_count
    points at one radius, and the angle pairs of a slab run theta-major."""

    r_min: float
    r_max: float
    r_count: int
    theta_count: int
    phi_count: int

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


def laguerre_lockstep(degree: int, order: int, xs: list[float]) -> list[float]:
    """associated_laguerre at each finite float of xs, as a list: one recurrence, run in
    lockstep over the list, with the float path's arithmetic at every value."""
    if degree == 0:
        return [1.0] * len(xs)
    prev, curr = [1.0] * len(xs), [1.0 + order - x for x in xs]
    for n in range(2, degree + 1):
        a, b, d = 2.0 * n - 1.0 + order, n - 1.0 + order, float(n)
        prev, curr = curr, [((a - x) * c - b * p) / d for x, c, p in zip(xs, curr, prev)]
    return curr


def _radial_axis(q: QuantumNumbers, atom: AtomConfig, radii: list[float]) -> tuple[list[float], list[bool]]:
    """R_nl at each radius of a grid axis, with radial_function's bits, and whether the Laguerre
    factor is exactly 0 there (is_node's radial test). The recurrence runs once, in lockstep over
    the distinct values of rho = 2r/(n a0), and serves both."""
    norm = _radial_norm(q, atom)
    rho_of = [2.0 * x / (q.n * atom.bohr_radius) for x in radii]
    rhos = list(dict.fromkeys(rho_of))
    laguerre = laguerre_lockstep(q.n - q.l - 1, 2 * q.l + 1, [rho if rho < math.inf else 0.0 for rho in rhos])
    at_minus_one = None
    factor = {}
    for rho, lag in zip(rhos, laguerre):
        value = _envelope(q, norm, rho) * lag
        if not math.isfinite(value):
            if at_minus_one is None:
                at_minus_one = associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, -1.0)
            if _vanishes(q, norm, rho, at_minus_one):
                value = 0.0
        factor[rho] = (value, rho < math.inf and lag == 0.0)
    values, nodes = zip(*map(factor.__getitem__, rho_of))
    for x, value in zip(radii, values):
        if not math.isfinite(value):
            raise DomainError(f"R_nl(r) leaves the float range at r = {x!r}: a factor overflows")
    return list(values), list(nodes)


@dataclass(frozen=True)
class SeparatedWavefunction:
    """psi_nlm on a SphericalGrid as its two factors: at radius i and angle pair k (theta-major),
    psi = radial[i] * harmonic_real[k] + i (radial[i] * harmonic_imag[k] + 0.0), the bits of
    hydrogen_wavefunction at that point. radial_node[i] and angular_node[t] tell whether the
    Laguerre factor at radius i, or P_l^|m| / sin^|m| at colatitude t, is exactly 0: is_node on the axes."""

    radial: list[float]
    radial_node: list[bool]
    harmonic_real: list[float]
    harmonic_imag: list[float]
    angular_node: list[bool]


def separated_wavefunction(q: QuantumNumbers, atom: AtomConfig, grid: SphericalGrid) -> SeparatedWavefunction:
    """hydrogen_wavefunction on a grid: its radial and angular factors, each once per axis value."""
    radial, radial_node = _radial_axis(q, atom, grid.r)
    real, imag = spherical_harmonic_table(q.l, q.m, grid.theta, grid.phi)
    angular_node = [assoc_legendre(q.l, abs(q.m), math.cos(t), 1.0) == 0.0 for t in grid.theta]
    return SeparatedWavefunction(radial, radial_node, real, imag, angular_node)


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
    per point; the others one value per angle pair of an r slab, the same at every radius."""
    from .dirac_states import azimuthal_speed, ground_current, radial_amplitude, small_component_ratio

    current = _point_columns(grid, 3)
    slab = grid.theta_count * grid.phi_count
    zeta = small_component_ratio(atom)
    b = _by_theta(grid, [zeta * math.cos(t) for t in grid.theta])
    d = _by_theta(grid, [zeta * pole_safe_sin(t) for t in grid.theta])
    d_sin = list(map(mul, d, _by_phi(grid, [math.sin(p) for p in grid.phi])))
    d_cos = list(map(mul, d, _by_phi(grid, [math.cos(p) for p in grid.phi])))
    for i, r in enumerate(grid.r):
        for column, values in zip(current, ground_current(spin, radial_amplitude(atom, r), b, d_sin, d_cos)):
            column[i * slab : (i + 1) * slab] = array("d", values)
    velocity = [azimuthal_to_cartesian(p, azimuthal_speed(spin, atom, t)) for t in grid.theta for p in grid.phi]
    vx, vy, vz = map(list, zip(*velocity))
    return [*current, [0.0] * slab, vx, vy, vz, list(map(norm3, vx, vy, vz))]


def schrodinger_table(q: QuantumNumbers, atom: AtomConfig, grid: SphericalGrid) -> list:
    """The columns j0, j1, j2, j3, vx, vy, vz, speed of the Schrodinger field table on the grid:
    the density |psi|^2, the current density times velocity and the Cartesian velocity
    grad(S)/mass. j0 holds one value per point, and so do j1, j2, vx, vy and speed for m != 0;
    the others hold one value per angle pair of an r slab, the same at every radius.
    PhaseSingularityError for m != 0 where the grid meets the axis or a node."""
    columns = _point_columns(grid, 1 if q.m == 0 else 6)
    slab = grid.theta_count * grid.phi_count
    psi = hydrogen_wavefunction(q, atom, grid)
    if q.m != 0:
        rates = [[phase_gradient(q, r, t) / atom.mass for t in grid.theta] for r in grid.r]
        if any(psi.radial_node) or any(psi.angular_node):
            raise PhaseSingularityError("phase singularity: wavefunction node")
        sin_phi = _by_phi(grid, [math.sin(p) for p in grid.phi])
        cos_phi = _by_phi(grid, [math.cos(p) for p in grid.phi])
    zeros = [0.0] * slab
    for i, radial in enumerate(psi.radial):
        density = [libm.abs_squared(complex(radial * re, radial * im + 0.0))
                   for re, im in zip(psi.harmonic_real, psi.harmonic_imag)]
        rows = [density]
        if q.m != 0:
            v = _by_theta(grid, rates[i])
            # azimuthal_to_cartesian of v_phi = m / (mass r sin(theta)), and density times it.
            vx = [0.0 - w * s for w, s in zip(v, sin_phi)]
            vy = [w * c + 0.0 for w, c in zip(v, cos_phi)]
            rows += [list(map(mul, density, vx)), list(map(mul, density, vy)),
                     vx, vy, list(map(norm3, vx, vy, zeros))]
        for column, values in zip(columns, rows):
            column[i * slab : (i + 1) * slab] = array("d", values)
    if q.m == 0:  # the flow and the current are 0.0 everywhere
        return [*columns, zeros, zeros, zeros, zeros, zeros, zeros, zeros]
    j0, j1, j2, vx, vy, speed = columns
    return [j0, j1, j2, zeros, vx, vy, zeros, speed]

"""The field table on floats equals the array route it replaced, bit for bit.

`field` evaluates each factor once per value of its own grid axis, j0 and the
speed once per (r, theta), and j1, j2, vx and vy per point, on floats. These
tests rebuild the same table as numpy columns from the package's point
functions, called point by point, with the current from the einsum
contraction of each point's spinor (see oracles), j0 from the point at
phi = 0 of the same (r, theta) and the speed as the absolute azimuthal rate,
and check the reduced gamma contraction of dirac_states.ground_current
against the full 64-term loop.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmatom import (
    FINE_STRUCTURE,
    DiracGroundState,
    DomainError,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    dirac_ground_state,
    four_current_at,
    hydrogen_wavefunction,
    make_atom,
)
from bohmatom.coords import azimuthal_to_cartesian
from bohmatom.dirac_states import _spinor_parts, azimuthal_speed, ground_current
from bohmatom.grid import SphericalGrid, linspace
from bohmatom.schrodinger_states import phase_gradient
from oracles import dirac_current, gamma_matrices, spinors

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN
GAMMA = [g.tolist() for g in gamma_matrices()]


def full_contraction(psi):
    """j^mu = Re[psibar gamma^mu psi] of four complex numbers: all 64 terms, k outer and l inner,
    each product taken left to right and added to a sum that starts at +0j (dirac_current's order)."""
    adjoint = (psi[0].conjugate(), psi[1].conjugate(), -psi[2].conjugate(), -psi[3].conjugate())
    j = []
    for gamma in GAMMA:
        total = 0j
        for k in range(4):
            for l in range(4):
                total = adjoint[k] * gamma[k][l] * psi[l] + total
        j.append(total)
    assert all(c.imag == 0.0 or math.isnan(c.imag) for c in j)
    return [c.real for c in j]


def bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# Amplitudes from 0 through subnormals to where A^2 overflows; angle factors of either sign, signed zeros included.
amplitudes = st.sampled_from([0.0, 5e-324, 1e-310, 1e-160, 1e154, 1e155, 1.7e308]) | st.floats(0.0, 1e308)
unit = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-160, 1.0, -1.0, 6.123233995736766e-17]) | st.floats(-1.0, 1.0)


@settings(max_examples=2000, deadline=None)
@given(spin=st.sampled_from([UP, DOWN]), amp=amplitudes, b=unit, d=unit.map(abs), cos_phi=unit, sin_phi=unit)
def test_ground_current_is_the_full_contraction(spin, amp, b, d, cos_phi, sin_phi):
    real, imag = _spinor_parts(spin, amp, b, d, cos_phi, sin_phi)
    want = full_contraction(tuple(map(complex, real, imag)))
    # j0 is the contraction at phi = 0, whatever the angle of j1 and j2.
    want[0] = full_contraction(tuple(map(complex, *_spinor_parts(spin, amp, b, d, 1.0, 0.0))))[0]
    got = [c[0] for c in ground_current(spin, amp, [b], [d], [d * sin_phi], [d * cos_phi])] + [0.0]
    if all(map(math.isfinite, want)):
        assert bits(got) == bits(want)
    else:  # where a product overflows the loop gives nan; the command fails on either
        assert not all(map(math.isfinite, got))


atoms = st.builds(
    lambda z, scale, mass: make_atom(z, FINE_STRUCTURE * scale, mass),
    st.integers(1, 137),
    st.floats(1e-3, 1.0),
    st.sampled_from([1e-200, 1e-100, 1e100, 1e150]) | st.floats(0.1, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(
    atom=atoms,
    spin=st.sampled_from([UP, DOWN]),
    r=st.floats(1e-3, 60.0),
    theta=st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi]),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
def test_point_current_is_the_full_contraction_and_the_einsum(atom, spin, r, theta, phi):
    p = SphericalPoint(r * atom.bohr_radius, theta, phi)
    psi = dirac_ground_state(spin, atom, p)
    psi0 = dirac_ground_state(spin, atom, SphericalPoint(p.r, theta, 0.0))  # j0 is its value at phi = 0
    got = four_current_at(spin, atom, p)
    assert bits(got) == bits(full_contraction(psi0)[:1] + full_contraction(psi)[1:])
    einsum = np.concatenate([dirac_current(np.array(psi0))[:1], dirac_current(np.array(psi))[1:]])
    assert bits(got) == einsum.tobytes()


def array_grid(grid: SphericalGrid) -> list[SphericalPoint]:
    """The grid's points, r-major, from the axes as the field command built them on numpy arrays."""
    n_theta, n_phi = grid.theta_count, grid.phi_count
    r = np.linspace(grid.r_min, grid.r_max, grid.r_count)
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return [SphericalPoint(a, b, c) for a in r.tolist() for b in theta.tolist() for c in phi.tolist()]


def array_table(model, points: list[SphericalPoint]) -> np.ndarray:
    """The (N, 8) columns j0..j3, vx, vy, vz, speed from the point functions, called point by
    point: j0 at the point with phi = 0 of the same (r, theta), and the speed |v_phi|."""
    atom = model.atom
    rings = [SphericalPoint(p.r, p.theta, 0.0) for p in points]
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, DiracGroundState):
            j = dirac_current(spinors(model.spin, atom, points))
            j[:, 0] = dirac_current(spinors(model.spin, atom, rings))[:, 0]
            velocity = np.array([bohm_velocity(model.spin, atom, p) for p in points])
            rates = [azimuthal_speed(model.spin, atom, p.theta) for p in points]
        else:
            density = np.abs([hydrogen_wavefunction(model.q, atom, p) for p in rings]) ** 2
            rates = [bohm_momentum(model.q, atom, p)[2] / atom.mass for p in points]
            velocity = np.array([azimuthal_to_cartesian(p.phi, rate) for p, rate in zip(points, rates)])
            j = np.column_stack([density, density[:, None] * velocity])
        return np.column_stack([j, velocity, np.abs(rates)])


def float_table(model, grid: SphericalGrid) -> np.ndarray:
    """model.field_table with every r slab filled, expanded to one row of 8 values per point: a ring
    column spread over its azimuths, a column of one value per angle pair repeated at every radius."""
    table = model.field_table(grid)
    for i in range(grid.r_count):
        table.fill(i)
    columns = [np.array(column, dtype=float) for column in table.columns]
    columns = [np.repeat(c, grid.phi_count) if k in table.rings else c for k, c in enumerate(columns)]
    return np.column_stack([c if len(c) == grid.size else np.tile(c, grid.r_count) for c in columns])


def assert_tables_agree(model, grid):
    try:
        want = array_table(model, array_grid(grid))
    except DomainError as exc:
        with pytest.raises(type(exc)) as info:
            model.field_table(grid)
        assert str(info.value) == str(exc)
        return
    got = float_table(model, grid)
    if np.isfinite(want).all():
        assert got.tobytes() == want.tobytes()
    else:  # the command fails on either
        assert not np.isfinite(got).all()


counts = st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5))
# In Bohr radii: from inside the nucleus scale to where A(r) and R_nl underflow (about 750 a0 for Z = 1).
radii = st.tuples(st.floats(1e-3, 2000.0), st.floats(1.0, 2.0)).map(lambda t: (t[0], t[0] * t[1]))


@settings(max_examples=150, deadline=None)
@given(atom=atoms, spin=st.sampled_from([UP, DOWN]), radii=radii, counts=counts)
def test_dirac_grid_table_equals_the_array_route(atom, spin, radii, counts):
    a0 = atom.bohr_radius
    assert_tables_agree(DiracGroundState(spin, atom), SphericalGrid(radii[0] * a0, radii[1] * a0, *counts))


@st.composite
def quantum_numbers(draw):
    """n up to 8, with m at 0, +/-1 and +/-l."""
    n = draw(st.integers(1, 8))
    l = draw(st.integers(0, n - 1))
    m = draw(st.sampled_from(sorted({0, 1, -1, l, -l} & set(range(-l, l + 1)))))
    return QuantumNumbers(n, l, m)


@settings(max_examples=150, deadline=None)
@given(atom=atoms, q=quantum_numbers(), radii=radii, counts=counts)
def test_schrodinger_grid_table_equals_the_array_route(atom, q, radii, counts):
    a0 = atom.bohr_radius * q.n
    assert_tables_agree(SchrodingerEigenstate(q, atom), SphericalGrid(radii[0] * a0, radii[1] * a0, *counts))


def ring_bits(column, grid: SphericalGrid) -> np.ndarray:
    """A table column as the int64 bit patterns of its values, shaped (r, theta, phi)."""
    return column.view(np.int64).reshape(grid.r_count, grid.theta_count, grid.phi_count)


@settings(max_examples=60, deadline=None)
@given(atom=atoms, spin=st.sampled_from([UP, DOWN]), q=quantum_numbers(), radii=radii, counts=counts)
def test_phi_independent_values_hold_one_value_per_ring(atom, spin, q, radii, counts):
    # Both flows are rigid rotations about z: j0, j3 and the speed of a table and of `state` are
    # the same bits at every azimuth of an (r, theta) ring, and the speed is the absolute rate.
    for model in (DiracGroundState(spin, atom), SchrodingerEigenstate(q, atom)):
        a0 = atom.bohr_radius * (q.n if isinstance(model, SchrodingerEigenstate) else 1)
        grid = SphericalGrid(radii[0] * a0, radii[1] * a0, *counts)
        try:
            table = float_table(model, grid)
        except DomainError:
            continue
        for k in (0, 3, 7):  # j0, j3, speed
            column = ring_bits(table[:, k], grid)
            assert (column == column[:, :, :1]).all()
        if isinstance(model, DiracGroundState):
            rates = [[azimuthal_speed(spin, atom, t) for t in grid.theta] for _ in grid.r]
            keys = ("current", "speed", "lorentz_factor")
        else:
            rates = [[phase_gradient(q, r, t) / atom.mass if q.m else 0.0 for t in grid.theta] for r in grid.r]
            keys = ("current_spherical", "speed")
        speed = ring_bits(table[:, 7], grid)[:, :, 0]
        assert (speed == np.abs(rates).view(np.int64)).all()
        for p in array_grid(grid):
            got, ring = model.describe(p), model.describe(SphericalPoint(p.r, p.theta, 0.0))
            if isinstance(model, DiracGroundState):  # of the Dirac current, j0 alone
                got["current"], ring["current"] = got["current"][:1], ring["current"][:1]
            assert np.hstack([got[key] for key in keys]).tobytes() == np.hstack([ring[key] for key in keys]).tobytes()


@pytest.mark.parametrize(
    "q, r",
    [((3, 1, 1), 6.0), ((3, 2, 1), 1.0), ((2, 0, 0), 2.0)],
    ids=("radial-node", "equator-node", "m0-radial-node"),
)
def test_grid_through_a_node(q, r):
    # rho = 2r/(n a0) = 4 is a zero of L_1^3 and 2 one of L_1^1; (3, 2, 1) vanishes on the equator.
    atom = make_atom()
    a0 = atom.bohr_radius
    assert_tables_agree(SchrodingerEigenstate(QuantumNumbers(*q), atom), SphericalGrid(r * a0, r * a0, 2, 3, 2))


@pytest.mark.parametrize(
    "start, stop, num",
    [
        (1.5, 7.25, 1),  # one point
        (2.0, 2.0, 5),  # r-min = r-max
        (5e-324, 1.5e-323, 1000),  # the step underflows to 0
        (1e307, 1.7976931348623157e308, 11),  # the range spans most of the float range
        (0.3, 7.1, 30),
    ],
)
def test_linspace_is_numpys(start, stop, num):
    assert np.array(linspace(start, stop, num)).tobytes() == np.linspace(start, stop, num).tobytes()


@pytest.mark.parametrize("count", [1, 2, 7, 30, 1000])
def test_grid_angles_are_the_array_formulas(count):
    grid = SphericalGrid(1.0, 2.0, 1, count, count)
    assert np.array(grid.theta).tobytes() == (np.pi * (np.arange(count) + 0.5) / count).tobytes()
    assert np.array(grid.phi).tobytes() == (2.0 * np.pi * np.arange(count) / count).tobytes()

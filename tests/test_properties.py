"""Property tests over random atoms, states and points.

The array path (SphericalPoints in, one row per point out) must equal the
scalar API (one SphericalPoint at a time) bit for bit, the Dirac current must
be physical (j0 >= 0, timelike up to rounding, |v| < 1), the two spins must be
mirror images, and the field command's CSV text must parse back to exactly
the values the library computes.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmatom import (
    FINE_STRUCTURE,
    PhaseSingularityError,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SphericalPoints,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    closed_form_current,
    dirac_current,
    dirac_ground_state,
    hydrogen_wavefunction,
    make_atom,
    probability_current,
    radial_amplitude,
    radial_function,
    vector_to_cartesian,
)
from bohmatom.cli import main
from bohmatom.special_functions import associated_laguerre, spherical_harmonic

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN

atoms = st.builds(
    lambda z, scale, mass: make_atom(z, FINE_STRUCTURE * scale, mass),
    st.integers(1, 137),
    st.floats(1e-3, 1.0),
    st.floats(0.1, 10.0),
)
spins = st.sampled_from([UP, DOWN])
quantum_numbers = st.integers(1, 6).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda l: st.integers(-l, l).map(lambda m: QuantumNumbers(n, l, m))
    )
)
# Radii in Bohr radii; angles span the closed theta range, the axis included.
points = st.lists(
    st.tuples(st.floats(0.01, 60.0), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
    min_size=1,
    max_size=12,
)


def batch(atom, raw):
    """The sampled points (radii scaled by the Bohr radius) as SphericalPoints and as SphericalPoint list."""
    a0 = atom.bohr_radius
    singles = [SphericalPoint(r * a0, theta, phi) for r, theta, phi in raw]
    columns = SphericalPoints([p.r for p in singles], [p.theta for p in singles], [p.phi for p in singles])
    return columns, singles


def same(a, b) -> bool:
    """Bit-for-bit equality, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(atom=atoms, spin=spins, raw=points)
def test_dirac_array_path_equals_the_scalar_api(atom, spin, raw):
    columns, singles = batch(atom, raw)
    psi = dirac_ground_state(spin, atom, columns)
    current = dirac_current(psi)
    closed = closed_form_current(spin, atom, columns)
    velocity = bohm_velocity(spin, atom, columns)
    amplitude = radial_amplitude(atom, columns.r)
    for i, p in enumerate(singles):
        single_psi = dirac_ground_state(spin, atom, p)
        assert same(psi[i], single_psi)
        one = dirac_current(single_psi)
        assert same([current.j0[i], current.j1[i], current.j2[i], current.j3[i]], [one.j0, one.j1, one.j2, one.j3])
        ref = closed_form_current(spin, atom, p)
        assert same([closed.j0[i], closed.j1[i], closed.j2[i], closed.j3[i]], [ref.j0, ref.j1, ref.j2, ref.j3])
        assert same(velocity[i], bohm_velocity(spin, atom, p))
        assert amplitude[i] == radial_amplitude(atom, p.r)


@settings(max_examples=150, deadline=None)
@given(atom=atoms, q=quantum_numbers, raw=points)
def test_schrodinger_array_path_equals_the_scalar_api(atom, q, raw):
    columns, singles = batch(atom, raw)
    psi = hydrogen_wavefunction(q, atom, columns)
    current = probability_current(q, atom, columns)
    radial = radial_function(q, atom, columns.r)
    harmonic = spherical_harmonic(q.l, q.m, columns.theta, columns.phi)
    rho = 2.0 * columns.r / (q.n * atom.bohr_radius)
    laguerre = associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, rho)
    try:
        momentum = bohm_momentum(q, atom, columns)
    except PhaseSingularityError:  # a point on the axis or at a node
        momentum = None
    for i, p in enumerate(singles):
        assert same(psi[i], hydrogen_wavefunction(q, atom, p))
        assert same(current[i], probability_current(q, atom, p))
        assert radial[i] == radial_function(q, atom, p.r)
        assert same(harmonic[i], spherical_harmonic(q.l, q.m, p.theta, p.phi))
        assert laguerre[i] == associated_laguerre(q.n - q.l - 1, 2 * q.l + 1, float(rho[i]))
        if momentum is not None:
            assert same(momentum[i], bohm_momentum(q, atom, p))


@settings(max_examples=150, deadline=None)
@given(
    atom=atoms,
    q=quantum_numbers.filter(lambda q: q.m != 0),
    raw=st.lists(
        st.tuples(
            st.floats(0.01, 60.0),
            st.floats(1e-3, math.pi - 1e-3) | st.sampled_from([0.0, math.pi]),
            st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_cartesian_schrodinger_field_matches_bohm_momentum(atom, q, raw):
    """The trajectory field evaluates bohm_momentum / mass in Cartesian form."""
    field = SchrodingerEigenstate(q, atom).velocity_field()
    for p in batch(atom, raw)[1]:
        if p.theta in (0.0, math.pi):
            with pytest.raises(PhaseSingularityError):
                field(p.to_cartesian())
            continue
        try:
            want = vector_to_cartesian(p, bohm_momentum(q, atom, p) / atom.mass)
        except PhaseSingularityError:  # a node: rounded coordinates may miss it on the other side
            continue
        np.testing.assert_allclose(field(p.to_cartesian()), want, rtol=0.0, atol=1e-13 * np.linalg.norm(want))


@settings(max_examples=150, deadline=None)
@given(atom=atoms, raw=points)
def test_dirac_current_is_physical_and_the_spins_mirror(atom, raw):
    columns, _ = batch(atom, raw)
    up = dirac_current(dirac_ground_state(UP, atom, columns))
    down = dirac_current(dirac_ground_state(DOWN, atom, columns))
    for current in (up, down):
        assert np.all(current.j0 >= 0.0)
        assert np.all(current.minkowski_norm_sq >= -1e-15 * current.j0**2)
        assert np.all(current.j3 == 0.0)
    np.testing.assert_allclose(down.j0, up.j0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(down.spatial, -up.spatial, rtol=1e-13, atol=0.0)
    v_up = bohm_velocity(UP, atom, columns)
    v_down = bohm_velocity(DOWN, atom, columns)
    np.testing.assert_array_equal(v_down, -v_up)
    assert np.all(np.linalg.norm(v_up, axis=1) < 1.0)
    # Where j0 is representable the closed-form velocity is the ratio j / j0.
    positive = up.j0 > 0.0
    ratio = up.spatial[positive] / up.j0[positive, None]
    assert np.all(np.abs(ratio - v_up[positive]) <= 4e-15 * atom.za)


@settings(max_examples=25, deadline=None)
@given(
    z=st.integers(1, 137),
    scale=st.floats(1e-3, 1.0),
    mass=st.floats(0.1, 10.0),
    spin=st.sampled_from(["up", "down"]),
    counts=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
def test_field_csv_round_trips_exactly(tmp_path_factory, z, scale, mass, spin, counts):
    out = tmp_path_factory.mktemp("field") / "field.csv"
    args = ["field", "--spin", spin, "--Z", str(z), "--alpha-scale", repr(scale), "--mass", repr(mass),
            "--r-count", str(counts[0]), "--theta-count", str(counts[1]), "--phi-count", str(counts[2]),
            "--out", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()[2:]
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    assert rows.shape == (counts[0] * counts[1] * counts[2], 11)
    atom = make_atom(z, FINE_STRUCTURE * scale, mass)
    columns = SphericalPoints(rows[:, 0], rows[:, 1], rows[:, 2])
    spin_o = SpinOrientation(spin)
    current = dirac_current(dirac_ground_state(spin_o, atom, columns))
    velocity = bohm_velocity(spin_o, atom, columns)
    assert same(rows[:, 3], current.j0)
    assert same(rows[:, 4:7], current.spatial)
    assert same(rows[:, 7:10], velocity)
    assert same(rows[:, 10], np.linalg.norm(velocity, axis=1))

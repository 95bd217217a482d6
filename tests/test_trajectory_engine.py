import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bohmatom
from bohmatom import (
    DiracGroundState,
    OriginSingularityError,
    PhaseSingularityError,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    TrajectorySingularityError,
    VelocityField,
    dirac_ground_state,
    integrate_trajectory,
    make_atom,
)
from bohmatom.models import ORIGIN_GUARD_RADII
from bohmatom.physics_core import FINE_STRUCTURE
from bohmatom.schrodinger_states import is_node
from bohmatom.trajectory_engine import circular_orbit
from oracles import circular_orbit_xyz, dirac_current, trajectory_arrays

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN


def period_of(spin, atom, start):
    return 2.0 * math.pi / abs(DiracGroundState(spin, atom).angular_rate(start))


def exact_orbit(spin, atom, start, t):
    """Cartesian position at time t on the exact circle through start."""
    return circular_orbit_xyz(start, DiracGroundState(spin, atom).angular_rate(start), np.array([t]))[0]


#: The radius inside which `inward` raises, as a model's flow does inside its origin guard.
INWARD_GUARD = 2.0


def inward(x, y, z):
    """Unit speed toward the z axis, in the x-y plane; OriginSingularityError within INWARD_GUARD of the origin."""
    if math.hypot(x, y, z) < INWARD_GUARD:
        raise OriginSingularityError(f"trajectory entered guard radius {INWARD_GUARD} around the origin")
    rho = math.hypot(x, y)
    return (-x / rho, -y / rho)


def array_rk4(field, start, dt, steps):
    """The RK4 loop of integrate_trajectory on 3-element numpy arrays, as it ran before the float
    kernel: the rows [0, done) of positions and velocities, done < steps + 1 after an abort."""

    def v_of(x):
        return np.array(field(*x.tolist()))

    xyz, velocity = np.empty((steps + 1, 3)), np.empty((steps + 1, 3))
    done = 0
    x = np.array(start.xyz())
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v = v_of(x)
            xyz[0] = x
            velocity[0] = v
            for done in range(1, steps + 1):
                k1 = v
                k2 = v_of(x + 0.5 * dt * k1)
                k3 = v_of(x + 0.5 * dt * k2)
                k4 = v_of(x + dt * k3)
                x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                v = v_of(x)
                xyz[done] = x
                velocity[done] = v
            done = steps + 1
        except OriginSingularityError:
            pass
    return xyz[:done], velocity[:done]


def three_layer_field(model):
    """The model's flow (x, y, z) -> (vx, vy, vz) with the arithmetic of the three calls it once took per
    evaluation: the math.hypot origin guard, the model's formula, and the tuple (0.0 - w*y, w*x + 0.0, 0.0).
    Where a sum of squares leaves the float range, Dirac scales by r and Schrodinger by rho. m = 0 has no guard."""
    atom = model.atom
    guard = ORIGIN_GUARD_RADII * atom.bohr_radius

    def rotation(w, x, y):
        return (0.0 - w * y, w * x + 0.0, 0.0)

    if isinstance(model, DiracGroundState):
        k = atom.za if model.spin is UP else -atom.za

        def flow(x, y, z):
            r_sq = x * x + y * y + z * z
            if sys.float_info.min <= r_sq < math.inf:
                return rotation(k / math.sqrt(r_sq), x, y)
            r = math.hypot(x, y, z)
            return rotation(k, x / r, y / r)
    elif model.q.m == 0:
        return lambda x, y, z: (0.0, 0.0, 0.0)
    else:
        k = model.q.m / atom.mass

        def flow(x, y, z):
            d, s = x * x + y * y, 1.0
            r = math.sqrt(d + z * z)
            if not (sys.float_info.min <= d and r < math.inf and abs(k / d) < math.inf):
                d = s = math.hypot(x, y)
                r = math.hypot(d, z)
            if r == abs(z) or not abs(k / d) < math.inf:
                raise PhaseSingularityError(f"phase singularity: grad(m*phi) undefined on the z axis, z={z}")
            if is_node(model.q, atom, r, z / r):
                raise PhaseSingularityError("phase singularity: wavefunction node")
            return rotation(k / d, x / s, y / s)

    def guarded(x, y, z):
        if math.hypot(x, y, z) < guard:
            raise OriginSingularityError(f"trajectory entered guard radius {guard} around the origin")
        return flow(x, y, z)

    return guarded


def signed_area_xy(positions):
    """Shoelace sum of the x-y projection; positive for anticlockwise sweeps."""
    x, y = positions[:, 0], positions[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


class TestSchrodingerFixedPoints:
    @pytest.mark.parametrize("q", [QuantumNumbers(1, 0, 0), QuantumNumbers(3, 2, 0)], ids=("100", "320"))
    def test_m_zero_states_do_not_move(self, hydrogen, q):
        field = SchrodingerEigenstate(q, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 2.0)
        _, xyz, velocity = trajectory_arrays(integrate_trajectory(field, start, dt=10.0, steps=100))
        assert np.array_equal(xyz, np.broadcast_to(xyz[0], xyz.shape))
        assert np.all(velocity == 0.0)

    def test_m_nonzero_state_circulates(self, hydrogen):
        q = QuantumNumbers(2, 1, 1)
        field = SchrodingerEigenstate(q, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        speed = math.hypot(*field(*start.xyz()))
        period = 2.0 * math.pi * start.r / speed
        trajectory = integrate_trajectory(field, start, period / 400.0, 100)
        assert signed_area_xy(trajectory_arrays(trajectory)[1]) > 0.0


class TestDiracOrbits:
    def test_one_period_closure(self, hydrogen, equatorial_closure):
        start, period, trajectory = equatorial_closure
        a0 = hydrogen.bohr_radius
        t, xyz, _ = trajectory_arrays(trajectory)
        assert np.linalg.norm(xyz[-1] - xyz[0]) <= 1e-8 * a0
        assert t[-1] == pytest.approx(period, rel=1e-12)

    def test_radius_and_colatitude_conserved(self, equatorial_closure):
        start, _, trajectory = equatorial_closure
        positions = trajectory_arrays(trajectory)[1]
        radii = np.linalg.norm(positions, axis=1)
        colatitudes = np.arccos(np.clip(positions[:, 2] / radii, -1.0, 1.0))
        assert np.max(np.abs(radii - start.r)) / start.r < 1e-8
        assert np.max(np.abs(colatitudes - start.theta)) < 1e-8

    def test_speed_constant_along_trajectory(self, equatorial_closure):
        _, _, trajectory = equatorial_closure
        speeds = np.linalg.norm(trajectory_arrays(trajectory)[2], axis=1)
        assert np.max(np.abs(speeds - speeds[0])) < 1e-10

    def test_spin_down_traverses_same_circle_clockwise(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        period = period_of(DOWN, hydrogen, start)
        field = DiracGroundState(DOWN, hydrogen).velocity_field()
        trajectory = integrate_trajectory(field, start, period / 2000.0, 2000)
        positions = trajectory_arrays(trajectory)[1]
        assert signed_area_xy(positions) < 0.0
        radii = np.linalg.norm(positions, axis=1)
        assert np.max(np.abs(radii - start.r)) / start.r < 1e-8
        assert np.linalg.norm(positions[-1] - positions[0]) <= 1e-8 * start.r

    def test_rk4_error_vanishes_at_fourth_order(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        period = period_of(UP, hydrogen, start)
        field = DiracGroundState(UP, hydrogen).velocity_field()
        errors = []
        for n_steps in (500, 1000, 2000):
            t, xyz, _ = trajectory_arrays(integrate_trajectory(field, start, period / n_steps, n_steps))
            reference = exact_orbit(UP, hydrogen, start, float(t[-1]))
            errors.append(float(np.linalg.norm(xyz[-1] - reference)))
        for e_coarse, e_fine in zip(errors[:-1], errors[1:]):
            ratio = e_coarse / e_fine
            assert 12.0 < ratio < 20.0
            assert 3.8 < math.log2(ratio) < 4.2


    @pytest.mark.parametrize("spin", [UP, DOWN], ids=("up", "down"))
    def test_closed_form_field_tracks_contraction_route(self, hydrogen, spin):
        """RK4 over the closed-form field follows RK4 over j/j0 from the spinor."""

        def contraction(x, y, z):
            current = dirac_current(dirac_ground_state(spin, hydrogen, SphericalPoint.from_cartesian((x, y, z))))
            return tuple((current[1:3] / current[0]).tolist())

        reference_field = VelocityField(contraction)
        start = SphericalPoint(3.1 * hydrogen.bohr_radius, 1.1, 0.4)
        dt = period_of(spin, hydrogen, start) / 2000
        reference = integrate_trajectory(reference_field, start, dt, 2000)
        closed_form = integrate_trajectory(DiracGroundState(spin, hydrogen).velocity_field(), start, dt, 2000)
        _, xyz, velocity = trajectory_arrays(closed_form)
        _, want_xyz, want_velocity = trajectory_arrays(reference)
        assert np.max(np.abs(xyz - want_xyz)) <= 1e-12 * start.r
        assert np.max(np.abs(velocity - want_velocity)) <= 1e-12 * hydrogen.za


class TestFloatKernel:
    """integrate_trajectory gives the bits of the same RK4 run on numpy arrays."""

    @pytest.mark.parametrize("spin", [UP, DOWN], ids=("up", "down"))
    def test_dirac_rows_equal_the_array_loop(self, hydrogen, spin):
        model = DiracGroundState(spin, hydrogen)
        start = SphericalPoint(3.1 * hydrogen.bohr_radius, 1.1, 0.4)
        dt = period_of(spin, hydrogen, start) / 2000
        _, run_xyz, run_velocity = trajectory_arrays(integrate_trajectory(model.velocity_field(), start, dt, 2000))
        xyz, velocity = array_rk4(model.velocity_field(), start, dt, 2000)
        assert np.array_equal(run_xyz, xyz) and np.array_equal(run_velocity, velocity)

    @pytest.mark.parametrize("m", [1, -1])
    def test_schrodinger_rows_equal_the_array_loop(self, hydrogen, m):
        model = SchrodingerEigenstate(QuantumNumbers(2, 1, m), hydrogen)
        start = SphericalPoint(2.3 * hydrogen.bohr_radius, 1.0, 0.3)
        dt = 2.0 * math.pi / abs(model.angular_rate(start)) / 400
        _, run_xyz, run_velocity = trajectory_arrays(integrate_trajectory(model.velocity_field(), start, dt, 400))
        xyz, velocity = array_rk4(model.velocity_field(), start, dt, 400)
        assert np.array_equal(run_xyz, xyz) and np.array_equal(run_velocity, velocity)

    def test_an_aborted_run_keeps_the_array_loop_rows(self):
        field = VelocityField(inward)
        start = SphericalPoint(4.0, 1.2, 0.5)
        with pytest.raises(TrajectorySingularityError) as excinfo:
            integrate_trajectory(field, start, dt=0.3, steps=50)
        _, partial_xyz, partial_velocity = trajectory_arrays(excinfo.value.columns)
        xyz, velocity = array_rk4(field, start, 0.3, 50)
        assert 1 < len(xyz) < 51
        assert np.array_equal(partial_xyz, xyz) and np.array_equal(partial_velocity, velocity)


#: Each model's flow on an atom of the given mass: at mass 1e170, guard^2 falls below the smallest normal
#: float; at mass 1e-300, (2*guard)^2 overflows and a sum of squares near the guard does too.
GUARD_MODELS = {
    "dirac-up": lambda atom: DiracGroundState(UP, atom),
    "dirac-down": lambda atom: DiracGroundState(DOWN, atom),
    "schrodinger-211": lambda atom: SchrodingerEigenstate(QuantumNumbers(2, 1, 1), atom),
    "schrodinger-21-1": lambda atom: SchrodingerEigenstate(QuantumNumbers(2, 1, -1), atom),
}
GUARD_MASSES = [1.0, 1e170, 1e-300]


def _origin_error(planar, x, y, z):
    """The message of the OriginSingularityError that planar raises at (x, y, z), or None."""
    try:
        planar(x, y, z)
    except OriginSingularityError as exc:
        return str(exc)
    return None


class TestOriginGuard:
    """Each model's flow raises OriginSingularityError exactly where hypot(x, y, z) < ORIGIN_GUARD_RADII * a0."""

    @pytest.mark.parametrize("mass", GUARD_MASSES)
    @pytest.mark.parametrize("make", GUARD_MODELS.values(), ids=GUARD_MODELS.keys())
    def test_inside_the_guard_raises_and_at_it_does_not(self, make, mass):
        atom = make_atom(1, FINE_STRUCTURE, mass)
        planar = make(atom).velocity_field().planar
        guard = ORIGIN_GUARD_RADII * atom.bohr_radius
        for x in (guard, math.nextafter(guard, math.inf)):
            assert _origin_error(planar, x, 0.0, 0.0) is None
            assert _origin_error(planar, 0.0, -x, 0.0) is None
        message = f"trajectory entered guard radius {guard} around the origin"
        for x in (math.nextafter(guard, 0.0), 0.5 * guard, 0.0):
            assert _origin_error(planar, x, 0.0, 0.0) == message
            assert _origin_error(planar, 0.0, 0.0, -x) == message

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(GUARD_MODELS)),
        mass=st.sampled_from(GUARD_MASSES),
        scale=st.floats(0.25, 4.0) | st.sampled_from([1.0, 2.0]),
        theta=st.floats(0.1, math.pi - 0.1),
        phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    def test_the_guard_is_hypot_below_the_radius(self, name, mass, scale, theta, phi):
        # Near scale 1 the rounded coordinates put hypot on either side of the guard; at scale 2 the sum
        # of squares meets the bound above which the flow skips hypot.
        atom = make_atom(1, FINE_STRUCTURE, mass)
        guard = ORIGIN_GUARD_RADII * atom.bohr_radius
        x, y, z = SphericalPoint(scale * guard, theta, phi).xyz()
        raised = _origin_error(GUARD_MODELS[name](atom).velocity_field().planar, x, y, z) is not None
        assert raised == (math.hypot(x, y, z) < guard)

    def test_m_zero_flow_has_no_guard(self, hydrogen):
        field = SchrodingerEigenstate(QuantumNumbers(2, 1, 0), hydrogen).velocity_field()
        assert field(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_the_field_is_the_planar_pair_and_vz_zero(self, hydrogen):
        field = DiracGroundState(UP, hydrogen).velocity_field()
        assert field(0.3, -0.2, 0.7) == (*field.planar(0.3, -0.2, 0.7), 0.0)


@st.composite
def _runs(draw):
    """A model on an atom whose mass puts the start at 10^-6.3 to 10^3 Bohr radii, from inside the origin
    guard outward; a start radius where r*r underflows (below 1.5e-154), where it overflows (above
    1.4e154) or in between; the poles a quarter of the time; a step of 0.001 to 3 radians of the start's
    rotation, and up to 40 steps."""
    z_number = draw(st.sampled_from([1, 2, 79, 137]))
    low, high = draw(st.sampled_from([(-300, -155), (-100, 100), (155, 300)]))
    r = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(low, high))
    radii = 10.0 ** draw(st.floats(-6.3, 3.0) | st.floats(-6.1, -5.6))
    za = z_number * FINE_STRUCTURE
    mass = radii / r / za
    assume(0.0 < mass * za < math.inf and 1.0 / (mass * za) < math.inf)
    atom = make_atom(z_number, FINE_STRUCTURE, mass)
    if draw(st.booleans()):
        model = DiracGroundState(draw(st.sampled_from([UP, DOWN])), atom)
        rate = za / r
    else:
        n, l, m = draw(st.sampled_from([(2, 1, 1), (2, 1, -1), (3, 2, 2), (3, 2, -1), (4, 3, -3), (4, 1, 1), (2, 1, 0)]))
        model = SchrodingerEigenstate(QuantumNumbers(n, l, m), atom)
        rate = max(abs(m), 1) / mass / r / r
    pole = draw(st.integers(0, 7))
    theta = (0.0, math.pi)[pole] if pole < 2 else draw(st.floats(0.01, math.pi - 0.01))
    start = SphericalPoint(r, theta, draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)))
    # Near the guard, a step of 1.5 to 2.8 radians spirals inward by up to a quarter of the radius per step.
    dt = draw(st.floats(1e-3, 3.0) | st.floats(1.5, 2.8)) / rate
    steps = draw(st.integers(0, 40))
    assume(0.0 < dt < math.inf and math.isfinite(dt * steps))
    return model, start, dt, steps


def _near_the_guard(model):
    """A run that starts at 1.1 guard radii with a 2-radian step: it aborts during its first steps."""
    start = SphericalPoint(1.1 * ORIGIN_GUARD_RADII * model.atom.bohr_radius, 1.3, 0.0)
    return model, start, 2.0 / abs(model.angular_rate(start)), 40


def _float_kernel_rows(field, start, dt, steps):
    try:
        columns = integrate_trajectory(field, start, dt, steps)
    except TrajectorySingularityError as exc:
        columns = exc.columns
    return trajectory_arrays(columns)[1:]


@settings(max_examples=400, deadline=None)
@given(_runs())
@example(_near_the_guard(DiracGroundState(UP, make_atom())))
@example(_near_the_guard(SchrodingerEigenstate(QuantumNumbers(2, 1, -1), make_atom())))
# An m = 0 flow has no guard: at the origin below the equator z is -0.0, and +0.0 after the first step.
@example((SchrodingerEigenstate(QuantumNumbers(2, 1, 0), make_atom()), SphericalPoint(0.0, 2.0, 0.0), 1.0, 3))
def test_float_kernel_rows_equal_the_array_loop_bit_for_bit(run):
    """The planar flows, stepped with z fixed, give the bits of RK4 on arrays over the three-layer flows,
    the partial rows of an abort and the error of a start on the axis or at a node included."""
    model, start, dt, steps = run
    try:
        want = array_rk4(three_layer_field(model), start, dt, steps)
    except PhaseSingularityError as exc:  # on the axis or at a node: the float kernel raises it too
        with pytest.raises(PhaseSingularityError, match=f"^{re.escape(str(exc))}$"):
            integrate_trajectory(model.velocity_field(), start, dt, steps)
        return
    got = _float_kernel_rows(model.velocity_field(), start, dt, steps)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestAnalyticOrbit:
    def test_identity_at_time_zero(self, hydrogen):
        start = SphericalPoint(2.0 * hydrogen.bohr_radius, 1.0, 0.5)
        np.testing.assert_array_equal(exact_orbit(UP, hydrogen, start, 0.0), start.xyz())

    def test_half_period_is_antipodal(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.5)
        halfway = exact_orbit(UP, hydrogen, start, period_of(UP, hydrogen, start) / 2.0)
        x0 = np.array(start.xyz())
        assert halfway[2] == x0[2]  # r and theta fixed
        # phi advanced by pi to 1e-12 relative
        np.testing.assert_allclose(halfway[:2], -x0[:2], rtol=0.0, atol=1e-12 * (start.phi + math.pi) * start.r)

    def test_rotation_rate_composed_from_velocity(self, hydrogen):
        # omega should equal |v| / (r sin theta), with |v| = Za at the equator
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        omega = 2.0 * math.pi / period_of(UP, hydrogen, start)
        assert omega == pytest.approx(hydrogen.za / start.r, rel=1e-12)

    def test_spin_down_rotates_backwards(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, 1.2, 1.0)
        t = period_of(DOWN, hydrogen, start) / 8.0
        up_phi = SphericalPoint.from_cartesian(exact_orbit(UP, hydrogen, start, t)).phi
        down_phi = SphericalPoint.from_cartesian(exact_orbit(DOWN, hydrogen, start, t)).phi
        assert up_phi > start.phi
        assert down_phi < start.phi

    def test_polar_starts_are_fixed(self, hydrogen):
        for theta in (0.0, math.pi):
            pole = SphericalPoint(hydrogen.bohr_radius, theta, 0.0)
            assert DiracGroundState(UP, hydrogen).angular_rate(pole) == 0.0
            np.testing.assert_array_equal(exact_orbit(UP, hydrogen, pole, 123.0), pole.xyz())


class TestIntegratorContract:
    def test_zero_steps_returns_start_only(self, hydrogen):
        field = DiracGroundState(UP, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.0)
        t, xyz, _ = trajectory_arrays(integrate_trajectory(field, start, dt=1.0, steps=0))
        assert len(t) == 1
        np.testing.assert_array_equal(xyz[0], start.xyz())

    def test_invalid_step_arguments(self, hydrogen):
        field = DiracGroundState(UP, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_trajectory(field, start, dt=0.0, steps=5)
        with pytest.raises(ValueError):
            integrate_trajectory(field, start, dt=1.0, steps=-1)

    def test_columns_are_read_only(self, hydrogen):
        field = DiracGroundState(UP, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.0)
        columns = integrate_trajectory(field, start, dt=3.0, steps=7)
        assert [len(c) for c in columns] == [8] * 7
        assert columns[0].tolist() == [k * 3.0 for k in range(8)]
        for column in columns:
            with pytest.raises(TypeError):
                column[0] = 1.0

    def test_origin_guard_aborts_with_partial_trajectory(self):
        field = VelocityField(inward)
        start = SphericalPoint(4.0, math.pi / 2.0, 0.0)
        with pytest.raises(TrajectorySingularityError) as excinfo:
            integrate_trajectory(field, start, dt=1.0, steps=10)
        partial = excinfo.value.columns
        assert len(partial) == 7
        t, xyz, _ = trajectory_arrays(partial)
        assert 1 <= len(t) == len(partial[-1]) < 11
        assert xyz.shape == (len(t), 3)
        assert np.all(np.linalg.norm(xyz, axis=1) >= INWARD_GUARD)
        np.testing.assert_array_equal(xyz[0], start.xyz())

    def test_float_buffers_and_array_views_hold_the_same_rows(self, hydrogen):
        model = DiracGroundState(UP, hydrogen)
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.2)
        t, *columns = integrate_trajectory(model.velocity_field(), start, dt=3.0, steps=9)
        assert len(t) == 10
        assert all(c.format == "d" and c.readonly for c in (t, *columns))
        times, xyz, velocity = trajectory_arrays((t, *columns))
        assert t.tolist() == times.tolist()
        assert [list(row) for row in zip(*columns)] == np.hstack([xyz, velocity]).tolist()
        rate = model.angular_rate(start)
        reference = circular_orbit_xyz(start, rate, times)
        assert isinstance(reference, np.ndarray) and reference.shape == (10, 3)
        assert np.column_stack(circular_orbit(start, rate, t.tolist())).tolist() == reference.tolist()


_ABORT_EARLY_IN_A_LONG_RUN = """
import math, resource
from bohmatom import (
    OriginSingularityError, SphericalPoint, TrajectorySingularityError, VelocityField, integrate_trajectory,
)

def inward(x, y, z):
    if math.hypot(x, y, z) < 2.0:
        raise OriginSingularityError("trajectory entered guard radius 2.0 around the origin")
    rho = math.hypot(x, y)
    return (-x / rho, -y / rho)

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    integrate_trajectory(VelocityField(inward), SphericalPoint(4.0, 1.2, 0.5), 0.3, 10**7)
except TrajectorySingularityError as exc:
    print(len(exc.columns[0]), (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
"""


def test_column_memory_is_touched_only_by_the_steps_that_fill_it():
    # 10^7 steps reserve 560 MB of columns; a run that aborts within a few steps touches a few pages.
    env = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", _ABORT_EARLY_IN_A_LONG_RUN], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    rows, grown_mb = map(int, result.stdout.split())
    assert 1 < rows < 20
    assert grown_mb < 20

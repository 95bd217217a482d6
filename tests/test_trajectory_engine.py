import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohmatom
from bohmatom import (
    DiracGroundState,
    OriginSingularityError,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    TrajectorySingularityError,
    VelocityField,
    circular_orbit_xyz,
    dirac_current,
    dirac_ground_state,
    integrate_trajectory,
)
from bohmatom.trajectory_engine import ORIGIN_GUARD_RADII, circular_orbit

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN


def period_of(spin, atom, start):
    return 2.0 * math.pi / abs(DiracGroundState(spin, atom).angular_rate(start))


def exact_orbit(spin, atom, start, t):
    """Cartesian position at time t on the exact circle through start."""
    return circular_orbit_xyz(start, DiracGroundState(spin, atom).angular_rate(start), np.array([t]))[0]


def inward(x, y, z):
    """Unit speed toward the origin."""
    r = math.hypot(x, y, z)
    return (-x / r, -y / r, -z / r)


def array_rk4(field, start, dt, steps):
    """The RK4 loop of integrate_trajectory on 3-element numpy arrays, as it ran before the float
    kernel: the rows [0, done) of positions and velocities, done < steps + 1 after an abort."""

    def v_of(x):
        return np.array(field(*x.tolist()))

    xyz, velocity = np.empty((steps + 1, 3)), np.empty((steps + 1, 3))
    done = 0
    x = start.to_cartesian()
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


def signed_area_xy(positions):
    """Shoelace sum of the x-y projection; positive for anticlockwise sweeps."""
    x, y = positions[:, 0], positions[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


class TestSchrodingerFixedPoints:
    @pytest.mark.parametrize("q", [QuantumNumbers(1, 0, 0), QuantumNumbers(3, 2, 0)], ids=("100", "320"))
    def test_m_zero_states_do_not_move(self, hydrogen, q):
        field = SchrodingerEigenstate(q, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 2.0)
        trajectory = integrate_trajectory(field, start, dt=10.0, steps=100)
        assert np.array_equal(trajectory.xyz, np.broadcast_to(trajectory.xyz[0], trajectory.xyz.shape))
        assert np.all(trajectory.velocity == 0.0)

    def test_m_nonzero_state_circulates(self, hydrogen):
        q = QuantumNumbers(2, 1, 1)
        field = SchrodingerEigenstate(q, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        speed = math.hypot(*field(*start.to_cartesian().tolist()))
        period = 2.0 * math.pi * start.r / speed
        trajectory = integrate_trajectory(field, start, period / 400.0, 100)
        assert signed_area_xy(trajectory.xyz) > 0.0


class TestDiracOrbits:
    def test_one_period_closure(self, hydrogen, equatorial_closure):
        start, period, trajectory = equatorial_closure
        a0 = hydrogen.bohr_radius
        assert np.linalg.norm(trajectory.xyz[-1] - trajectory.xyz[0]) <= 1e-8 * a0
        assert trajectory.t[-1] == pytest.approx(period, rel=1e-12)

    def test_radius_and_colatitude_conserved(self, equatorial_closure):
        start, _, trajectory = equatorial_closure
        positions = trajectory.xyz
        radii = np.linalg.norm(positions, axis=1)
        colatitudes = np.arccos(np.clip(positions[:, 2] / radii, -1.0, 1.0))
        assert np.max(np.abs(radii - start.r)) / start.r < 1e-8
        assert np.max(np.abs(colatitudes - start.theta)) < 1e-8

    def test_speed_constant_along_trajectory(self, equatorial_closure):
        _, _, trajectory = equatorial_closure
        speeds = np.linalg.norm(trajectory.velocity, axis=1)
        assert np.max(np.abs(speeds - speeds[0])) < 1e-10

    def test_spin_down_traverses_same_circle_clockwise(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        period = period_of(DOWN, hydrogen, start)
        field = DiracGroundState(DOWN, hydrogen).velocity_field()
        trajectory = integrate_trajectory(field, start, period / 2000.0, 2000)
        positions = trajectory.xyz
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
            trajectory = integrate_trajectory(field, start, period / n_steps, n_steps)
            reference = exact_orbit(UP, hydrogen, start, float(trajectory.t[-1]))
            errors.append(float(np.linalg.norm(trajectory.xyz[-1] - reference)))
        for e_coarse, e_fine in zip(errors[:-1], errors[1:]):
            ratio = e_coarse / e_fine
            assert 12.0 < ratio < 20.0
            assert 3.8 < math.log2(ratio) < 4.2


    @pytest.mark.parametrize("spin", [UP, DOWN], ids=("up", "down"))
    def test_closed_form_field_tracks_contraction_route(self, hydrogen, spin):
        """RK4 over the closed-form field follows RK4 over j/j0 from the spinor."""

        def contraction(x, y, z):
            current = dirac_current(dirac_ground_state(spin, hydrogen, SphericalPoint.from_cartesian((x, y, z))))
            return tuple((current[1:] / current[0]).tolist())

        guard = ORIGIN_GUARD_RADII * hydrogen.bohr_radius
        reference_field = VelocityField(contraction, min_radius=guard)
        start = SphericalPoint(3.1 * hydrogen.bohr_radius, 1.1, 0.4)
        dt = period_of(spin, hydrogen, start) / 2000
        reference = integrate_trajectory(reference_field, start, dt, 2000)
        closed_form = integrate_trajectory(DiracGroundState(spin, hydrogen).velocity_field(), start, dt, 2000)
        assert np.max(np.abs(closed_form.xyz - reference.xyz)) <= 1e-12 * start.r
        assert np.max(np.abs(closed_form.velocity - reference.velocity)) <= 1e-12 * hydrogen.za


class TestFloatKernel:
    """integrate_trajectory gives the bits of the same RK4 run on numpy arrays."""

    @pytest.mark.parametrize("spin", [UP, DOWN], ids=("up", "down"))
    def test_dirac_rows_equal_the_array_loop(self, hydrogen, spin):
        model = DiracGroundState(spin, hydrogen)
        start = SphericalPoint(3.1 * hydrogen.bohr_radius, 1.1, 0.4)
        dt = period_of(spin, hydrogen, start) / 2000
        run = integrate_trajectory(model.velocity_field(), start, dt, 2000)
        xyz, velocity = array_rk4(model.velocity_field(), start, dt, 2000)
        assert np.array_equal(run.xyz, xyz) and np.array_equal(run.velocity, velocity)

    @pytest.mark.parametrize("m", [1, -1])
    def test_schrodinger_rows_equal_the_array_loop(self, hydrogen, m):
        model = SchrodingerEigenstate(QuantumNumbers(2, 1, m), hydrogen)
        start = SphericalPoint(2.3 * hydrogen.bohr_radius, 1.0, 0.3)
        dt = 2.0 * math.pi / abs(model.angular_rate(start)) / 400
        run = integrate_trajectory(model.velocity_field(), start, dt, 400)
        xyz, velocity = array_rk4(model.velocity_field(), start, dt, 400)
        assert np.array_equal(run.xyz, xyz) and np.array_equal(run.velocity, velocity)

    def test_an_aborted_run_keeps_the_array_loop_rows(self):
        field = VelocityField(inward, min_radius=1.0)
        start = SphericalPoint(4.0, 1.2, 0.5)
        with pytest.raises(TrajectorySingularityError) as excinfo:
            integrate_trajectory(field, start, dt=0.3, steps=50)
        partial = excinfo.value.trajectory
        xyz, velocity = array_rk4(field, start, 0.3, 50)
        assert 1 < len(xyz) < 51
        assert np.array_equal(partial.xyz, xyz) and np.array_equal(partial.velocity, velocity)


class TestAnalyticOrbit:
    def test_identity_at_time_zero(self, hydrogen):
        start = SphericalPoint(2.0 * hydrogen.bohr_radius, 1.0, 0.5)
        np.testing.assert_array_equal(exact_orbit(UP, hydrogen, start, 0.0), start.to_cartesian())

    def test_half_period_is_antipodal(self, hydrogen):
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.5)
        halfway = exact_orbit(UP, hydrogen, start, period_of(UP, hydrogen, start) / 2.0)
        x0 = start.to_cartesian()
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
            np.testing.assert_array_equal(exact_orbit(UP, hydrogen, pole, 123.0), pole.to_cartesian())


class TestIntegratorContract:
    def test_zero_steps_returns_start_only(self, hydrogen):
        field = DiracGroundState(UP, hydrogen).velocity_field()
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.0)
        trajectory = integrate_trajectory(field, start, dt=1.0, steps=0)
        assert len(trajectory.t) == 1
        np.testing.assert_array_equal(trajectory.xyz[0], start.to_cartesian())

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
        trajectory = integrate_trajectory(field, start, dt=3.0, steps=7)
        assert trajectory.t.shape == (8,)
        assert trajectory.xyz.shape == trajectory.velocity.shape == (8, 3)
        assert trajectory.t.tolist() == [k * 3.0 for k in range(8)]
        for column in (trajectory.t, trajectory.xyz, trajectory.velocity):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_origin_guard_aborts_with_partial_trajectory(self):
        field = VelocityField(fn=inward, min_radius=1.0)
        start = SphericalPoint(4.0, math.pi / 2.0, 0.0)
        with pytest.raises(TrajectorySingularityError) as excinfo:
            integrate_trajectory(field, start, dt=1.0, steps=10)
        partial = excinfo.value.trajectory
        assert partial is not None
        assert 1 <= len(partial.t) < 11
        assert partial.xyz.shape == (len(partial.t), 3)
        assert np.all(np.linalg.norm(partial.xyz, axis=1) >= 1.0)
        np.testing.assert_array_equal(partial.xyz[0], start.to_cartesian())

    def test_float_buffers_and_array_views_hold_the_same_rows(self, hydrogen):
        model = DiracGroundState(UP, hydrogen)
        start = SphericalPoint(hydrogen.bohr_radius, 1.0, 0.2)
        trajectory = integrate_trajectory(model.velocity_field(), start, dt=3.0, steps=9)
        t, *columns = trajectory.columns
        assert len(trajectory) == len(t) == 10
        assert all(c.format == "d" and c.readonly for c in (t, *columns))
        assert t.tolist() == trajectory.t.tolist()
        assert np.column_stack([np.asarray(c) for c in columns]).tolist() == np.hstack(
            [trajectory.xyz, trajectory.velocity]
        ).tolist()
        for view in (trajectory.t, trajectory.xyz, trajectory.velocity):
            assert isinstance(view, np.ndarray) and not view.flags.writeable
        rate = model.angular_rate(start)
        reference = circular_orbit_xyz(start, rate, trajectory.t)
        assert isinstance(reference, np.ndarray) and reference.shape == (10, 3)
        assert np.column_stack(circular_orbit(start, rate, t.tolist())).tolist() == reference.tolist()
        assert isinstance(start.to_cartesian(), np.ndarray)


_ABORT_EARLY_IN_A_LONG_RUN = """
import math, resource
from bohmatom import SphericalPoint, TrajectorySingularityError, VelocityField, integrate_trajectory

def inward(x, y, z):
    r = math.hypot(x, y, z)
    return (-x / r, -y / r, -z / r)

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    integrate_trajectory(VelocityField(inward, min_radius=1.0), SphericalPoint(4.0, 1.2, 0.5), 0.3, 10**7)
except TrajectorySingularityError as exc:
    print(len(exc.trajectory), (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
"""


def test_column_memory_is_touched_only_by_the_steps_that_fill_it():
    # 10^7 steps reserve 560 MB of columns; a run that aborts within a few steps touches a few pages.
    env = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", _ABORT_EARLY_IN_A_LONG_RUN], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    rows, grown_mb = map(int, result.stdout.split())
    assert 1 < rows < 20
    assert grown_mb < 20

import math

import numpy as np
import pytest

from bohmatom import (
    DiracGroundState,
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
from bohmatom.trajectory_engine import ORIGIN_GUARD_RADII

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN


def period_of(spin, atom, start):
    return 2.0 * math.pi / abs(DiracGroundState(spin, atom).angular_rate(start))


def exact_orbit(spin, atom, start, t):
    """Cartesian position at time t on the exact circle through start."""
    return circular_orbit_xyz(start, DiracGroundState(spin, atom).angular_rate(start), np.array([t]))[0]


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
        speed = np.linalg.norm(field(start.to_cartesian()))
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

        def contraction(xyz):
            current = dirac_current(dirac_ground_state(spin, hydrogen, SphericalPoint.from_cartesian(xyz)))
            return current.spatial / current.j0

        guard = ORIGIN_GUARD_RADII * hydrogen.bohr_radius
        reference_field = VelocityField(contraction, min_radius=guard)
        start = SphericalPoint(3.1 * hydrogen.bohr_radius, 1.1, 0.4)
        dt = period_of(spin, hydrogen, start) / 2000
        reference = integrate_trajectory(reference_field, start, dt, 2000)
        closed_form = integrate_trajectory(DiracGroundState(spin, hydrogen).velocity_field(), start, dt, 2000)
        assert np.max(np.abs(closed_form.xyz - reference.xyz)) <= 1e-12 * start.r
        assert np.max(np.abs(closed_form.velocity - reference.velocity)) <= 1e-12 * hydrogen.za


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
        inward = VelocityField(fn=lambda xyz: -xyz / np.linalg.norm(xyz), min_radius=1.0)
        start = SphericalPoint(4.0, math.pi / 2.0, 0.0)
        with pytest.raises(TrajectorySingularityError) as excinfo:
            integrate_trajectory(inward, start, dt=1.0, steps=10)
        partial = excinfo.value.trajectory
        assert partial is not None
        assert 1 <= len(partial.t) < 11
        assert partial.xyz.shape == (len(partial.t), 3)
        assert np.all(np.linalg.norm(partial.xyz, axis=1) >= 1.0)
        np.testing.assert_array_equal(partial.xyz[0], start.to_cartesian())

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmatom import (
    DomainError,
    FINE_STRUCTURE,
    OriginSingularityError,
    SphericalPoint,
    DiracGroundState,
    SpinOrientation,
    bohm_velocity,
    dirac_ground_state,
    four_current_at,
    make_atom,
    radial_amplitude,
    small_component_ratio,
)
from oracles import closed_form_current, dirac_adjoint, dirac_current, gamma_matrices, ground_state_norm

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def amplitude_log_form(atom, r):
    """Independent reimplementation of A(r) through logarithms."""
    from scipy.special import gammaln

    g = atom.gamma_exp
    c = 2.0 * atom.mass * atom.za
    log_a = (
        1.5 * math.log(c)
        - 0.5 * math.log(4.0 * math.pi)
        + 0.5 * (math.log1p(g) - math.log(2.0) - float(gammaln(1.0 + 2.0 * g)))
        + (g - 1.0) * math.log(c * r)
        - 0.5 * c * r
    )
    return math.exp(log_a)


class TestGammaMatrices:
    def test_gamma0_is_the_displayed_diagonal(self):
        g0 = gamma_matrices()[0]
        np.testing.assert_array_equal(g0, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))

    def test_spatial_gamma_squares_to_minus_identity(self):
        for g in gamma_matrices()[1:]:
            np.testing.assert_allclose(g @ g, -np.eye(4), atol=1e-15)

    def test_gamma0_conjugation_flips_spatial_sign(self):
        g0, g1, _, _ = gamma_matrices()
        np.testing.assert_allclose(g0 @ g1 @ g0, -g1, atol=1e-15)

    def test_anticommutators(self):
        gammas = gamma_matrices()
        for mu in range(4):
            for nu in range(mu, 4):
                anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
                want = 2.0 * ETA[mu, nu] * np.eye(4)
                assert np.max(np.abs(anti - want)) <= 1e-14

    def test_hermiticity(self):
        gammas = gamma_matrices()
        assert np.array_equal(gammas[0].conj().T, gammas[0])
        for g in gammas[1:]:
            assert np.array_equal(g.conj().T, -g)

    def test_matrices_are_read_only(self):
        g = gamma_matrices()[1]
        with pytest.raises(ValueError):
            g[0, 0] = 5.0


class TestRadialAmplitude:
    def test_frozen_value_at_bohr_radius(self, hydrogen):
        got = radial_amplitude(hydrogen, hydrogen.bohr_radius)
        assert got == pytest.approx(0.00012938333473483195, rel=1e-12)

    def test_matches_log_form_reimplementation(self, hydrogen, rng):
        for _ in range(50):
            r = float(rng.uniform(0.01, 10.0)) * hydrogen.bohr_radius
            got = radial_amplitude(hydrogen, r)
            assert got == pytest.approx(amplitude_log_form(hydrogen, r), rel=1e-12)

    def test_origin_rejected(self, hydrogen):
        with pytest.raises(OriginSingularityError):
            radial_amplitude(hydrogen, 0.0)
        with pytest.raises(DomainError):
            radial_amplitude(hydrogen, -1.0)

    def test_power_law_factor_flattens_at_weak_coupling(self):
        atom = make_atom(1, 1e-8)
        c = 2.0 * atom.mass * atom.za
        r = atom.bohr_radius
        assert abs((c * r) ** (atom.gamma_exp - 1.0) - 1.0) < 1e-12


class TestGroundStateSpinor:
    def test_small_component_ratio(self, hydrogen):
        zeta = small_component_ratio(hydrogen)
        assert zeta == pytest.approx(0.003648724860181956, rel=1e-13)
        a = hydrogen.za
        series = a / 2.0 + a**3 / 8.0 + a**5 / 16.0
        assert zeta == pytest.approx(series, rel=1e-10)
        # quotient form agrees with the textbook difference form
        assert zeta == pytest.approx((1.0 - hydrogen.gamma_exp) / a, rel=1e-11)

    def test_spin_up_on_polar_axis(self, hydrogen):
        p = SphericalPoint(hydrogen.bohr_radius, 0.0, 0.0)
        psi = dirac_ground_state(UP, hydrogen, p)
        amp = radial_amplitude(hydrogen, p.r)
        zeta = small_component_ratio(hydrogen)
        np.testing.assert_allclose(psi, [amp, 0.0, 1j * amp * zeta, 0.0], atol=1e-30)

    def test_spin_up_on_equator(self, hydrogen):
        p = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        psi = dirac_ground_state(UP, hydrogen, p)
        amp = radial_amplitude(hydrogen, p.r)
        zeta = small_component_ratio(hydrogen)
        assert psi[0] == pytest.approx(amp, rel=1e-14)
        assert psi[1] == 0.0
        assert abs(psi[2]) <= 1e-16 * amp  # cos(pi/2) rounds to ~6e-17
        assert psi[3] == pytest.approx(1j * amp * zeta, rel=1e-14)

    def test_origin_rejected(self, hydrogen):
        with pytest.raises(OriginSingularityError):
            dirac_ground_state(UP, hydrogen, SphericalPoint(0.0, 1.0, 0.0))


class TestDiracAdjoint:
    def test_upper_component_unchanged(self):
        np.testing.assert_array_equal(
            dirac_adjoint(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)),
            np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
        )

    def test_lower_component_conjugate_and_sign_flip(self):
        np.testing.assert_array_equal(
            dirac_adjoint(np.array([0.0, 0.0, 1.0j, 0.0], dtype=complex)),
            np.array([0.0, 0.0, 1.0j, 0.0], dtype=complex),
        )

    def test_ground_state_adjoint_row(self, hydrogen, sample_points):
        # conjugation flips the small-component signs, gamma^0 flips them back
        for p in sample_points(hydrogen, 10):
            amp = radial_amplitude(hydrogen, p.r)
            zeta = small_component_ratio(hydrogen)
            b = zeta * math.cos(p.theta)
            d = zeta * math.sin(p.theta)
            want = amp * np.array(
                [1.0, 0.0, 1j * b, 1j * d * np.exp(-1j * p.phi)]
            )
            got = dirac_adjoint(dirac_ground_state(UP, hydrogen, p))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-30)


class TestDiracCurrent:
    def test_rest_spinor(self):
        c = dirac_current(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        assert c.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_matches_closed_form_both_spins(self, hydrogen, sample_points):
        for spin in (UP, DOWN):
            for p in sample_points(hydrogen, 500):
                got = four_current_at(spin, hydrogen, p)
                want = closed_form_current(spin, hydrogen, p)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18 * want[0])

    def test_axial_current_component_vanishes(self, hydrogen, sample_points):
        for spin in (UP, DOWN):
            for p in sample_points(hydrogen, 200):
                assert four_current_at(spin, hydrogen, p)[3] == 0.0

    def test_spin_mirror(self, hydrogen, sample_points):
        for p in sample_points(hydrogen, 200):
            up = four_current_at(UP, hydrogen, p)
            down = four_current_at(DOWN, hydrogen, p)
            np.testing.assert_allclose(
                down, [up[0], -up[1], -up[2], 0.0], rtol=1e-13, atol=1e-20 * up[0]
            )

    def test_current_is_timelike(self, hydrogen, sample_points):
        zeta = small_component_ratio(hydrogen)
        for p in sample_points(hydrogen, 100):
            j0, j1, j2, j3 = four_current_at(UP, hydrogen, p)
            norm_sq = j0 * j0 - (j1 * j1 + j2 * j2 + j3 * j3)
            assert norm_sq > 0.0
            amp = radial_amplitude(hydrogen, p.r)
            b = zeta * math.cos(p.theta)
            d = zeta * math.sin(p.theta)
            want = amp**4 * ((1.0 - d) ** 2 + b * b) * ((1.0 + d) ** 2 + b * b)
            assert norm_sq == pytest.approx(want, rel=1e-10)

    def test_generic_spinor_current_is_physical(self, rng):
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            j0, j1, j2, j3 = dirac_current(psi)
            assert j0 > 0.0
            assert j0 * j0 - (j1 * j1 + j2 * j2 + j3 * j3) >= -1e-12 * j0**2

    def test_rotation_sense(self, hydrogen, sample_points):
        # z component of the angular momentum density x*j2 - y*j1
        for p in sample_points(hydrogen, 200, theta_margin=0.01):
            xyz = p.xyz()
            up = four_current_at(UP, hydrogen, p)
            down = four_current_at(DOWN, hydrogen, p)
            assert xyz[0] * up[2] - xyz[1] * up[1] > 0.0
            assert xyz[0] * down[2] - xyz[1] * down[1] < 0.0


class TestBohmVelocity:
    def test_speed_is_za_sin_theta(self, hydrogen, sample_points):
        for p in sample_points(hydrogen, 200):
            speed = float(np.linalg.norm(bohm_velocity(UP, hydrogen, p)))
            assert speed == pytest.approx(hydrogen.za * math.sin(p.theta), rel=1e-12)

    def test_equatorial_speed_equals_coupling(self, hydrogen):
        p = SphericalPoint(hydrogen.bohr_radius, math.pi / 2.0, 0.0)
        speed = float(np.linalg.norm(bohm_velocity(UP, hydrogen, p)))
        assert speed == pytest.approx(FINE_STRUCTURE, rel=5e-14)

    def test_velocity_vanishes_on_axis(self, hydrogen):
        for theta in (0.0, math.pi):
            v = bohm_velocity(UP, hydrogen, SphericalPoint(1.0, theta, 0.0))
            assert v == (0.0, 0.0, 0.0)

    def test_purely_azimuthal(self, hydrogen, sample_points):
        for p in sample_points(hydrogen, 100):
            v = bohm_velocity(UP, hydrogen, p)
            xyz = p.xyz()
            assert abs(v[2]) == 0.0
            # radial projection cancels to rounding on the |v| |x| product scale
            assert abs(np.dot(v, xyz)) <= 8e-16 * np.linalg.norm(xyz) * np.linalg.norm(v)

    def test_speed_independent_of_radius(self, hydrogen, rng):
        for _ in range(50):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            r1, r2 = (float(x) * hydrogen.bohr_radius for x in rng.uniform(0.05, 8.0, 2))
            s1 = np.linalg.norm(bohm_velocity(UP, hydrogen, SphericalPoint(r1, theta, phi)))
            s2 = np.linalg.norm(bohm_velocity(UP, hydrogen, SphericalPoint(r2, theta, phi)))
            assert abs(s1 - s2) <= 1e-13 * max(s1, 1e-30)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1])
    def test_linear_small_coupling_scaling(self, scale):
        atom = make_atom(1, FINE_STRUCTURE * scale)
        thetas = np.linspace(0.05, math.pi - 0.05, 41)
        for theta in thetas:
            speed = np.linalg.norm(
                bohm_velocity(UP, atom, SphericalPoint(atom.bohr_radius, float(theta), 0.0))
            )
            ratio = speed / (scale * FINE_STRUCTURE)
            assert abs(ratio - math.sin(theta)) <= 1e-4 * math.sin(theta)


    def test_defined_where_the_amplitude_underflows(self, hydrogen):
        p = SphericalPoint(1e6, 1.0, 0.3)
        assert radial_amplitude(hydrogen, p.r) == 0.0
        v = bohm_velocity(DOWN, hydrogen, p)
        assert float(np.linalg.norm(v)) == pytest.approx(hydrogen.za * math.sin(p.theta), rel=1e-12)
        assert -v[0] * math.sin(p.phi) + v[1] * math.cos(p.phi) < 0.0

    def test_origin_rejected(self, hydrogen):
        with pytest.raises(OriginSingularityError):
            bohm_velocity(UP, hydrogen, SphericalPoint(0.0, 1.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    z=st.integers(1, 137),
    alpha_factor=st.floats(1e-3, 1.0),
    radii=st.floats(0.05, 50.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    spin=st.sampled_from([UP, DOWN]),
)
def test_closed_form_velocities_match_gamma_contraction(z, alpha_factor, radii, theta, phi, spin):
    """bohm_velocity and the Cartesian trajectory field agree with j/j0 from the spinor's full contraction."""
    atom = make_atom(z, FINE_STRUCTURE * alpha_factor)
    p = SphericalPoint(radii * atom.bohr_radius, theta, phi)
    current = dirac_current(dirac_ground_state(spin, atom, p))
    reference = current[1:] / current[0]
    flow = np.array(DiracGroundState(spin, atom).velocity_field()(*p.xyz()))
    for v in (bohm_velocity(spin, atom, p), flow):
        assert np.max(np.abs(v - reference)) <= 4e-15 * atom.za
        assert float(np.linalg.norm(v)) < 1.0


def finite_difference_divergence(spin, atom, xyz, h):
    """Central-difference divergence of the spatial current in Cartesian coordinates."""
    terms = []
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        plus = four_current_at(spin, atom, SphericalPoint.from_cartesian(xyz + step))[1 + i]
        minus = four_current_at(spin, atom, SphericalPoint.from_cartesian(xyz - step))[1 + i]
        terms.append((plus - minus) / (2.0 * h))
    return sum(terms), sum(abs(t) for t in terms)


class TestStationarity:
    def test_current_is_divergence_free(self, hydrogen, sample_points):
        h = 1e-5 * hydrogen.bohr_radius
        for spin in (UP, DOWN):
            for p in sample_points(hydrogen, 25, r_lo=0.3, r_hi=5.0, theta_margin=0.15):
                xyz = np.array(p.xyz())
                div, term_scale = finite_difference_divergence(spin, hydrogen, xyz, h)
                current = np.array(four_current_at(spin, hydrogen, p))
                scale = max(term_scale, np.linalg.norm(current[1:]) / p.r)
                assert abs(div) <= 1e-6 * scale


class TestNormalization:
    @pytest.mark.parametrize("spin", [UP, DOWN], ids=("up", "down"))
    def test_density_integrates_to_one(self, hydrogen, spin):
        assert abs(ground_state_norm(spin, hydrogen) - 1.0) <= 1e-6

    def test_norm_for_scaled_couplings(self):
        for scale in (0.01, 0.3):
            atom = make_atom(1, FINE_STRUCTURE * scale)
            assert abs(ground_state_norm(UP, atom) - 1.0) <= 1e-6

    def test_correction_factor_is_unity(self, hydrogen):
        # The factor 1/sqrt(norm) that would rescale A(r) lies within 1e-9 of 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = ground_state_norm(UP, hydrogen)
        assert abs(norm - 1.0) <= 2e-9

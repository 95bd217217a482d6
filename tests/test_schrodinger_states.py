import cmath
import math

import numpy as np
import pytest

from bohmatom import (
    DomainError,
    PhaseSingularityError,
    QuantumNumbers,
    SphericalPoint,
    bohm_momentum,
    hydrogen_wavefunction,
    make_atom,
    polar_decompose,
    probability_current,
    radial_function,
)
from bohmatom import schrodinger_states
from bohmatom.grid import SphericalGrid
from oracles import state_norm

GROUND = QuantumNumbers(1, 0, 0)

ALL_N_LE_3 = [
    QuantumNumbers(n, l, m)
    for n in (1, 2, 3)
    for l in range(n)
    for m in range(-l, l + 1)
]
M_ZERO_N_LE_3 = [q for q in ALL_N_LE_3 if q.m == 0]
M_NONZERO_N_LE_3 = [q for q in ALL_N_LE_3 if q.m != 0]


def psi_211_closed_form(atom, p):
    """Textbook closed form for the (2, 1, 1) state, Condon-Shortley sign."""
    a = atom.bohr_radius
    return (
        -(1.0 / (8.0 * math.sqrt(math.pi * a**3)))
        * (p.r / a)
        * math.exp(-p.r / (2.0 * a))
        * math.sin(p.theta)
        * cmath.exp(1j * p.phi)
    )


def finite_difference_current(q, atom, p, h_scale=1e-5):
    """Central-difference evaluation of (1/m) Im[psi* grad psi] in the spherical basis."""
    hr = h_scale * atom.bohr_radius
    h = h_scale

    def psi(r, theta, phi):
        return hydrogen_wavefunction(q, atom, SphericalPoint(r, theta, phi % (2.0 * math.pi)))

    center = psi(p.r, p.theta, p.phi)
    d_r = (psi(p.r + hr, p.theta, p.phi) - psi(p.r - hr, p.theta, p.phi)) / (2.0 * hr)
    d_theta = (psi(p.r, p.theta + h, p.phi) - psi(p.r, p.theta - h, p.phi)) / (2.0 * h * p.r)
    d_phi = (psi(p.r, p.theta, p.phi + h) - psi(p.r, p.theta, p.phi - h)) / (
        2.0 * h * p.r * math.sin(p.theta)
    )
    grad = np.array([d_r, d_theta, d_phi])
    return (np.conj(center) * grad).imag / atom.mass


class TestQuantumNumbers:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuantumNumbers(0, 0, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(2, 2, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(2, 1, 2)


class TestWavefunction:
    def test_ground_state_at_origin(self, hydrogen):
        a = hydrogen.bohr_radius
        got = hydrogen_wavefunction(GROUND, hydrogen, SphericalPoint(0.0, 0.5, 1.0))
        assert got == pytest.approx((math.pi * a**3) ** -0.5, rel=1e-13)
        assert got.imag == 0.0

    def test_ground_state_at_one_bohr_radius(self, hydrogen):
        a = hydrogen.bohr_radius
        got = hydrogen_wavefunction(GROUND, hydrogen, SphericalPoint(a, 0.5, 1.0))
        assert got == pytest.approx((math.pi * a**3) ** -0.5 * math.exp(-1.0), rel=1e-13)

    def test_211_frozen_point(self, hydrogen):
        # closed-form oracle evaluated at (1.7 a0, 1.1, 2.4)
        p = SphericalPoint(1.7 * hydrogen.bohr_radius, 1.1, 2.4)
        got = hydrogen_wavefunction(QuantumNumbers(2, 1, 1), hydrogen, p)
        assert got == pytest.approx(2.0992292992048603e-05 - 1.922924035372752e-05j, rel=1e-12)

    def test_211_matches_closed_form(self, hydrogen, sample_points):
        q = QuantumNumbers(2, 1, 1)
        for p in sample_points(hydrogen, 50):
            got = hydrogen_wavefunction(q, hydrogen, p)
            assert got == pytest.approx(psi_211_closed_form(hydrogen, p), rel=1e-11, abs=1e-30)

    @pytest.mark.parametrize("q", [QuantumNumbers(3, 0, 0), QuantumNumbers(3, 2, 1)], ids=["300", "321"])
    def test_radial_factor_underflows_to_zero_where_a_factor_overflows(self, hydrogen, q):
        # rho**l or the Laguerre factor overflows while exp(-rho/2) underflows: inf * 0 there.
        got = [radial_function(q, hydrogen, x) for x in (0.0, hydrogen.bohr_radius, 1e200, 1e308)]
        assert got[2:] == [0.0, 0.0]
        assert got[1] > 0.0
        with pytest.raises(DomainError, match="leaves the float range"):  # the norm itself overflows
            radial_function(q, make_atom(1, mass=1e300), 1e-298)

    def test_laguerre_recurrence_runs_once_over_the_distinct_radii(self, hydrogen, monkeypatch):
        # The O(degree) recurrence runs once per distinct rho = 2r/(n a0) (and once more at x = -1
        # where a factor overflows, as at r = 1e200); each radius keeps radial_function's bits.
        laguerre = []
        run_laguerre = schrodinger_states.associated_laguerre

        def laguerre_spy(degree, order, x):
            laguerre.append(x)
            return run_laguerre(degree, order, x)

        monkeypatch.setattr(schrodinger_states, "associated_laguerre", laguerre_spy)
        q = QuantumNumbers(40, 5, 3)
        a0 = hydrogen.bohr_radius
        points = SphericalGrid(1e-3 * a0, 1e200 * a0, 5, 2, 3)
        got = hydrogen_wavefunction(q, hydrogen, points)[0]
        rho = [2.0 * r / (q.n * a0) for r in points.r]
        assert sorted(laguerre) == sorted([*rho, -1.0])
        laguerre.clear()
        repeated = [points.r[0], points.r[1], points.r[0], points.r[1]]
        assert schrodinger_states.radial_axis(q, hydrogen, repeated)[0] == [got[0], got[1]] * 2
        assert sorted(laguerre) == sorted([rho[0], rho[1], -1.0])
        monkeypatch.undo()
        assert got == [radial_function(q, hydrogen, r) for r in points.r]
        assert got[0] != 0.0 and got[1:] == [0.0] * 4
    @pytest.mark.parametrize("q", ALL_N_LE_3, ids=lambda q: f"{q.n}{q.l}{q.m}")
    def test_normalization(self, hydrogen, q):
        assert abs(state_norm(q, hydrogen) - 1.0) <= 1e-6


class TestPolarDecompose:
    def test_negative_real(self):
        amplitude, phase = polar_decompose(-2.0)
        assert amplitude == 2.0
        assert phase == pytest.approx(math.pi)

    def test_pure_imaginary(self):
        amplitude, phase = polar_decompose(3.0j)
        assert amplitude == 3.0
        assert phase == pytest.approx(math.pi / 2.0)

    def test_zero_flags_phase_undefined(self):
        assert polar_decompose(0.0) == (0.0, None)

    def test_ground_state_phase_is_zero(self, hydrogen, sample_points):
        for p in sample_points(hydrogen, 20):
            _, phase = polar_decompose(hydrogen_wavefunction(GROUND, hydrogen, p))
            assert phase == 0.0

    def test_reconstruction(self, rng):
        for _ in range(200):
            psi = complex(rng.normal(), rng.normal())
            amplitude, phase = polar_decompose(psi)
            back = amplitude * cmath.exp(1j * phase)
            assert abs(back - psi) <= 1e-14 * abs(psi)


class TestBohmMomentum:
    @pytest.mark.parametrize("q", [GROUND, QuantumNumbers(3, 0, 0)], ids=("100", "300"))
    def test_s_states_at_rest(self, hydrogen, q, sample_points):
        for p in sample_points(hydrogen, 100):
            assert bohm_momentum(q, hydrogen, p) == (0.0, 0.0, 0.0)

    def test_211_equatorial_value(self, hydrogen):
        a = hydrogen.bohr_radius
        got = bohm_momentum(QuantumNumbers(2, 1, 1), hydrogen, SphericalPoint(a, math.pi / 2.0, 0.0))
        np.testing.assert_allclose(got, [0.0, 0.0, 1.0 / a], rtol=1e-14)

    def test_axis_is_singular_for_m_nonzero(self, hydrogen):
        q = QuantumNumbers(2, 1, 1)
        with pytest.raises(PhaseSingularityError):
            bohm_momentum(q, hydrogen, SphericalPoint(1.0, 0.0, 0.0))
        with pytest.raises(PhaseSingularityError):
            bohm_momentum(q, hydrogen, SphericalPoint(0.0, 1.0, 0.0))


class TestProbabilityCurrent:
    @pytest.mark.parametrize("q", [GROUND, QuantumNumbers(2, 0, 0)], ids=("100", "200"))
    def test_s_states_carry_no_current(self, hydrogen, q, sample_points):
        for p in sample_points(hydrogen, 100):
            assert probability_current(q, hydrogen, p) == (0.0, 0.0, 0.0)

    def test_m_zero_states_exact_zero(self, hydrogen, sample_points):
        points = sample_points(hydrogen, 100)
        for q in M_ZERO_N_LE_3:
            for p in points:
                assert probability_current(q, hydrogen, p) == (0.0, 0.0, 0.0)
                assert bohm_momentum(q, hydrogen, p) == (0.0, 0.0, 0.0)

    def test_211_equatorial_value(self, hydrogen):
        a = hydrogen.bohr_radius
        p = SphericalPoint(a, math.pi / 2.0, 0.3)
        density = abs(hydrogen_wavefunction(QuantumNumbers(2, 1, 1), hydrogen, p)) ** 2
        got = probability_current(QuantumNumbers(2, 1, 1), hydrogen, p)
        np.testing.assert_allclose(got, [0.0, 0.0, density / (hydrogen.mass * a)], rtol=1e-12)

    def test_current_is_density_times_velocity(self, hydrogen, sample_points):
        for q in M_NONZERO_N_LE_3:
            for p in sample_points(hydrogen, 20, theta_margin=0.05):
                psi = hydrogen_wavefunction(q, hydrogen, p)
                density = abs(psi) ** 2
                if density <= 1e-12:
                    continue
                want = density * np.array(bohm_momentum(q, hydrogen, p)) / hydrogen.mass
                got = probability_current(q, hydrogen, p)
                np.testing.assert_allclose(got, want, rtol=1e-10)
                assert probability_current(q, hydrogen, p, psi) == got  # a given psi is the one it would compute

    def test_vanishes_on_axis_without_error(self, hydrogen):
        got = probability_current(QuantumNumbers(2, 1, 1), hydrogen, SphericalPoint(1.0, 0.0, 0.0))
        assert got == (0.0, 0.0, 0.0)

    def test_matches_finite_difference_gradient(self, hydrogen, sample_points):
        # central differences of psi with step 1e-5 a0, spherical components
        for q in [QuantumNumbers(2, 1, 1), QuantumNumbers(3, 1, -1), QuantumNumbers(3, 2, 2)]:
            for p in sample_points(hydrogen, 10, r_lo=0.3, r_hi=4.0, theta_margin=0.2):
                want = finite_difference_current(q, hydrogen, p)
                got = probability_current(q, hydrogen, p)
                scale = np.linalg.norm(got)
                if scale < 1e-18:
                    continue
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * scale)

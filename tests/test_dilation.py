import math

import numpy as np
import pytest

from bohmatom import (
    DilationReport,
    DomainError,
    FINE_STRUCTURE,
    SphericalPoint,
    SpinOrientation,
    bohm_velocity,
    dilated_lifetime,
    lorentz_factor,
    make_atom,
    make_report,
    mean_lorentz_factor,
)
from oracles import mean_lorentz_factor_3d

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN
MUON_REST_LIFETIME = 2.196981e-6  # seconds; used as a plain input value


def exact_mean_gamma(za):
    """Closed-form reference: average of 1/sqrt(1 - za^2 sin^2 t) over sin(t)/2."""
    return math.atanh(za) / za


class TestLorentzFactor:
    def test_at_rest(self):
        assert lorentz_factor([0.0, 0.0, 0.0]) == 1.0

    def test_three_four_five(self):
        assert lorentz_factor([0.6, 0.0, 0.0]) == 1.25

    def test_series_at_fine_structure_speed(self):
        a = FINE_STRUCTURE
        series = 1.0 + a**2 / 2.0 + 3.0 * a**4 / 8.0
        assert lorentz_factor([a, 0.0, 0.0]) == pytest.approx(series, rel=1e-13)

    def test_rejects_superluminal(self):
        with pytest.raises(DomainError):
            lorentz_factor([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            lorentz_factor([0.8, 0.8, 0.0])


class TestMeanLorentzFactor:
    def test_tends_to_one_in_nonrelativistic_limit(self):
        atom = make_atom(1, FINE_STRUCTURE * 1e-6)
        mean = mean_lorentz_factor(UP, atom)
        assert abs(mean - 1.0) <= 1e-12

    def test_small_coupling_law(self, hydrogen):
        mean = mean_lorentz_factor(UP, hydrogen)
        excess_ratio = (mean - 1.0) / hydrogen.za**2
        assert abs(excess_ratio - 1.0 / 3.0) <= 0.01 / 3.0
        atom = make_atom(1, 0.001)
        mean_small = mean_lorentz_factor(UP, atom)
        ratio_small = (mean_small - 1.0) / atom.za**2
        assert abs(ratio_small - 1.0 / 3.0) <= 1e-4 / 3.0

    def test_matches_closed_form(self):
        # the spinor-route quadrature is the oracle for the closed form
        for z in (1, 20, 40, 80):
            atom = make_atom(z)
            mean = mean_lorentz_factor(UP, atom)
            assert mean == pytest.approx(mean_lorentz_factor_3d(UP, atom), rel=1e-12)

    def test_spins_agree_exactly(self, hydrogen):
        assert mean_lorentz_factor(UP, hydrogen) == mean_lorentz_factor(DOWN, hydrogen)

    def test_monotone_in_coupling(self):
        means = []
        for alpha in (0.001, 0.01, FINE_STRUCTURE, 0.1):
            means.append(mean_lorentz_factor(UP, make_atom(1, alpha)))
        ordered = [m for _, m in sorted(zip((0.001, 0.01, FINE_STRUCTURE, 0.1), means))]
        assert all(a < b for a, b in zip(ordered[:-1], ordered[1:]))

    def test_bounds(self, rng):
        # mean gamma sits strictly between 1 and 1 + (Z alpha)^2 at moderate coupling
        for _ in range(20):
            za = float(rng.uniform(1e-4, 0.75))
            atom = make_atom(1, za)
            mean = mean_lorentz_factor(UP, atom)
            assert 1.0 < mean < 1.0 + za**2

    def test_one_dimensional_and_full_quadrature_agree(self, hydrogen):
        mean_1d = mean_lorentz_factor(UP, hydrogen)
        mean_3d = mean_lorentz_factor_3d(UP, hydrogen)
        assert abs(mean_1d - mean_3d) <= 1e-9 * mean_1d


class TestDilatedLifetime:
    def test_no_dilation(self):
        assert dilated_lifetime(MUON_REST_LIFETIME, 1.0) == MUON_REST_LIFETIME

    def test_definition(self):
        tau = 3.7e-6
        assert dilated_lifetime(tau, 1.25) == tau * 1.25

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            dilated_lifetime(-1.0, 1.1)
        with pytest.raises(DomainError):
            dilated_lifetime(0.0, 1.1)
        with pytest.raises(DomainError):
            dilated_lifetime(1.0, 0.99)


class TestDilationReport:
    def test_report_fields(self, hydrogen):
        report = make_report(UP, hydrogen, MUON_REST_LIFETIME)
        assert 1.0 <= report.mean_gamma <= report.pointwise_max_gamma
        assert report.dilated_lifetime == report.rest_lifetime * report.mean_gamma
        # pointwise maximum is the equatorial Lorentz factor 1/gamma_exp
        assert report.pointwise_max_gamma == pytest.approx(1.0 / hydrogen.gamma_exp, rel=1e-12)
        equator = SphericalPoint(hydrogen.bohr_radius, 0.5 * math.pi, 0.0)
        assert report.pointwise_max_gamma == lorentz_factor(bohm_velocity(UP, hydrogen, equator))

    def test_mean_rounding_above_the_equatorial_factor(self):
        # here artanh(k)/k rounds to 1 + 2^-52 while 1/gamma_exp rounds to 1
        atom = make_atom(1, 6.681313494619863e-09)
        assert mean_lorentz_factor(UP, atom) > 1.0 / atom.gamma_exp
        report = make_report(UP, atom, MUON_REST_LIFETIME)
        assert report.pointwise_max_gamma == report.mean_gamma

    def test_spin_reports_identical(self, hydrogen):
        assert make_report(UP, hydrogen, MUON_REST_LIFETIME) == make_report(
            DOWN, hydrogen, MUON_REST_LIFETIME
        )

    def test_composed_muon_style_prediction(self, hydrogen):
        report = make_report(UP, hydrogen, MUON_REST_LIFETIME)
        assert report.dilated_lifetime == pytest.approx(
            MUON_REST_LIFETIME * exact_mean_gamma(hydrogen.za), rel=1e-12
        )
        assert report.dilated_lifetime > report.rest_lifetime

    def test_validation(self):
        with pytest.raises(DomainError):
            DilationReport(0.9, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            DilationReport(1.2, 1.1, 1.0, 1.2)
        with pytest.raises(DomainError):
            DilationReport(1.1, 1.2, -1.0, 1.1)
        with pytest.raises(DomainError):
            DilationReport(1.1, 1.2, 1.0, -1.1)

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from bohmatom import DomainError
from bohmatom.special_functions import associated_laguerre, spherical_harmonic
from oracles import laguerre_recurrence


def laguerre_series(n, k, x):
    """Direct series sum, independent of the recurrence implementation."""
    return sum(
        (-1.0) ** i * math.comb(n + k, n - i) * x**i / math.factorial(i)
        for i in range(n + 1)
    )


def closed_form_ylm(l, m, theta, phi):
    """Explicit normalized harmonics for l <= 2, no recurrences involved."""
    if m < 0:
        return (-1.0) ** (-m) * closed_form_ylm(l, -m, theta, phi).conjugate()
    st, ct = math.sin(theta), math.cos(theta)
    base = {
        (0, 0): 0.5 / math.sqrt(math.pi),
        (1, 0): math.sqrt(3.0 / (4.0 * math.pi)) * ct,
        (1, 1): -math.sqrt(3.0 / (8.0 * math.pi)) * st,
        (2, 0): math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * ct * ct - 1.0),
        (2, 1): -math.sqrt(15.0 / (8.0 * math.pi)) * st * ct,
        (2, 2): math.sqrt(15.0 / (32.0 * math.pi)) * st * st,
    }[(l, m)]
    return base * cmath.exp(1j * m * phi)


class TestAssociatedLaguerre:
    def test_degree_zero_is_constant_one(self):
        assert associated_laguerre(0, 3, 7.2) == 1.0

    def test_degree_one_closed_form(self):
        assert associated_laguerre(1, 1, 0.0) == 2.0

    def test_matches_series_oracle_frozen_value(self):
        # series oracle gives exactly 1/16 at (3, 2, 1.5)
        assert associated_laguerre(3, 2, 1.5) == pytest.approx(0.0625, rel=1e-12)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("k", range(4))
    def test_matches_series_oracle_grid(self, n, k):
        for x in (0.0, 0.3, 1.5, 7.7, 19.0):
            want = laguerre_series(n, k, x)
            got = associated_laguerre(n, k, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        degree=st.integers(0, 400) | st.just(25_000),
        # 2l + 1 for every l the CLI accepts.
        order=st.integers(0, 60_000).map(lambda l: 2 * l + 1) | st.just(120_001),
        x=st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 4.0, 1e300]) | st.floats(0.0, 1e4),
    )
    def test_equals_the_textbook_recurrence_bit_for_bit(self, degree, order, x):
        # The coefficients by exact increments round as the ones formed at each step; NaN equals NaN.
        got, want = associated_laguerre(degree, order, x), laguerre_recurrence(degree, order, x)
        assert (math.isnan(got) and math.isnan(want)) or struct.pack("<d", got) == struct.pack("<d", want)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(DomainError):
            associated_laguerre(2, 1, math.inf)
        with pytest.raises(DomainError):
            associated_laguerre(2, 1, math.nan)
        with pytest.raises(DomainError):
            associated_laguerre(-1, 0, 1.0)
        with pytest.raises(DomainError):
            associated_laguerre(1, -2, 1.0)

    def test_three_term_recurrence_residual(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(0, 6))
            x = float(rng.uniform(0.0, 20.0))
            ln = associated_laguerre(n, k, x)
            ln1 = associated_laguerre(n - 1, k, x)
            ln2 = associated_laguerre(n - 2, k, x)
            residual = abs(n * ln - (2 * n - 1 + k - x) * ln1 + (n - 1 + k) * ln2)
            assert residual < 1e-10 * max(1.0, abs(ln))


class TestSphericalHarmonic:
    def test_constant_mode(self, rng):
        for _ in range(10):
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
                0.2820947917738781, rel=1e-12
            )

    def test_dipole_mode_on_axis(self):
        assert spherical_harmonic(1, 0, 0.0, 0.0) == pytest.approx(
            math.sqrt(3.0 / (4.0 * math.pi)), rel=1e-13
        )

    def test_frozen_value_l2_m1(self):
        # closed-form table value at (theta, phi) = (pi/3, pi/4)
        got = spherical_harmonic(2, 1, math.pi / 3.0, math.pi / 4.0)
        want = -0.23654367393939005 - 0.23654367393939005j
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_closed_form_table(self, rng):
        for _ in range(50):
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            for l in range(3):
                for m in range(-l, l + 1):
                    got = spherical_harmonic(l, m, theta, phi)
                    want = closed_form_ylm(l, m, theta, phi)
                    assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_rejects_m_larger_than_l(self):
        with pytest.raises(DomainError):
            spherical_harmonic(1, 2, 0.3, 0.3)
        with pytest.raises(DomainError):
            spherical_harmonic(2, -3, 0.3, 0.3)

    def test_orthonormality_up_to_l3(self):
        # Gauss-Legendre in cos(theta) times uniform (periodic trapezoid) in phi
        x, w_theta = sps.roots_legendre(32)
        thetas = np.arccos(x)
        n_phi = 64
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        w_phi = 2.0 * math.pi / n_phi
        modes = [(l, m) for l in range(4) for m in range(-l, l + 1)]
        grids = {
            lm: np.array(
                [[spherical_harmonic(lm[0], lm[1], t, p) for p in phis] for t in thetas]
            )
            for lm in modes
        }
        for i, lm in enumerate(modes):
            for lm2 in modes[i:]:
                overlap = np.sum(
                    w_theta[:, None] * grids[lm] * np.conj(grids[lm2])
                ) * w_phi
                expected = 1.0 if lm == lm2 else 0.0
                assert abs(overlap - expected) < 1e-8

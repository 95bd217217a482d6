import math

import numpy as np
import pytest

from bohmatom import DomainError, SphericalPoint, vector_to_cartesian
from bohmatom.coords import spherical_basis


def test_roundtrip_through_cartesian(rng):
    for _ in range(200):
        p = SphericalPoint(
            float(rng.uniform(0.1, 50.0)),
            float(rng.uniform(0.0, math.pi)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        q = SphericalPoint.from_cartesian(p.to_cartesian())
        assert q.r == pytest.approx(p.r, rel=1e-13)
        assert q.theta == pytest.approx(p.theta, abs=1e-12)
        # phi is undefined on the axis, compare only away from it
        if math.sin(p.theta) > 1e-6:
            dphi = (q.phi - p.phi) % (2.0 * math.pi)
            assert min(dphi, 2.0 * math.pi - dphi) < 1e-10


def test_origin_maps_to_canonical_point():
    p = SphericalPoint.from_cartesian([0.0, 0.0, 0.0])
    assert (p.r, p.theta, p.phi) == (0.0, 0.0, 0.0)


def test_range_validation():
    with pytest.raises(DomainError):
        SphericalPoint(-1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        SphericalPoint(1.0, 3.5, 0.5)
    with pytest.raises(DomainError):
        SphericalPoint(1.0, 0.5, -0.1)
    with pytest.raises(DomainError):
        SphericalPoint(1.0, 0.5, 7.0)
    with pytest.raises(DomainError):
        SphericalPoint(math.nan, 0.5, 0.5)


def test_basis_is_orthonormal(rng):
    for _ in range(50):
        p = SphericalPoint(1.0, float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))
        basis = spherical_basis(p)
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-14)


def test_vector_conversion_roundtrip(rng):
    for _ in range(50):
        p = SphericalPoint(2.0, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 6.0)))
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            spherical_basis(p) @ vector_to_cartesian(p, v), v, atol=1e-14
        )


def test_radial_unit_vector_points_outward():
    p = SphericalPoint(3.0, 0.7, 1.2)
    np.testing.assert_allclose(
        vector_to_cartesian(p, [1.0, 0.0, 0.0]), p.to_cartesian() / 3.0, atol=1e-14
    )

import numpy as np
import pytest

from bohmatom import DiracGroundState, SphericalPoint, SpinOrientation, integrate_trajectory, make_atom


@pytest.fixture(scope="session")
def hydrogen():
    return make_atom()


@pytest.fixture()
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture()
def sample_points(rng):
    """Factory for random valid spherical points, away from the polar axis."""

    def factory(atom, count, r_lo=0.05, r_hi=8.0, theta_margin=1e-3):
        r = rng.uniform(r_lo, r_hi, count) * atom.bohr_radius
        theta = rng.uniform(theta_margin, np.pi - theta_margin, count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        return [
            SphericalPoint(float(rr), float(tt), float(pp))
            for rr, tt, pp in zip(r, theta, phi)
        ]

    return factory


@pytest.fixture(scope="session")
def equatorial_closure(hydrogen):
    """One full period of the spin-up equatorial orbit at dt = T/10^4.

    Computed once; shared by the trajectory tests and the acceptance suite.
    """
    start = SphericalPoint(hydrogen.bohr_radius, np.pi / 2, 0.0)
    model = DiracGroundState(SpinOrientation.UP, hydrogen)
    period = 2.0 * np.pi / model.angular_rate(start)
    trajectory = integrate_trajectory(model.velocity_field(), start, period / 10_000, 10_000)
    return start, period, trajectory

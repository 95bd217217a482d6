import math

import numpy as np
import pytest

from bohmatom import (
    DiracGroundState,
    DomainError,
    FINE_STRUCTURE,
    QuantumNumbers,
    SchrodingerEigenstate,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    make_atom,
)
from bohmatom.trajectory_engine import ORIGIN_GUARD_RADII
from oracles import vector_to_cartesian

MODELS = [
    lambda atom: DiracGroundState(SpinOrientation.UP, atom),
    lambda atom: DiracGroundState(SpinOrientation.DOWN, atom),
    lambda atom: SchrodingerEigenstate(QuantumNumbers(2, 1, 1), atom),
    lambda atom: SchrodingerEigenstate(QuantumNumbers(4, 3, -2), atom),
]


@pytest.mark.parametrize("make", MODELS, ids=("up", "down", "211", "43-2"))
def test_angular_rate_is_the_azimuthal_rate_of_the_flow(make, rng):
    """omega * rho equals the flow's phi component at the start: both flows turn rigidly about z."""
    for z in (1, 30, 92):
        model = make(make_atom(z, FINE_STRUCTURE, float(rng.uniform(0.5, 200.0))))
        for _ in range(50):
            start = SphericalPoint(float(rng.uniform(0.1, 20.0)) * model.atom.bohr_radius,
                                   float(rng.uniform(0.01, math.pi - 0.01)), float(rng.uniform(0.0, 2.0 * math.pi)))
            v = model.velocity_field()(*start.xyz())
            v_phi = -math.sin(start.phi) * v[0] + math.cos(start.phi) * v[1]
            rho = start.r * math.sin(start.theta)
            assert model.angular_rate(start) * rho == pytest.approx(v_phi, rel=2e-15)


def test_angular_rate_is_zero_where_the_flow_is_zero_or_undefined(hydrogen):
    a0 = hydrogen.bohr_radius
    inside_guard = SphericalPoint(0.5 * ORIGIN_GUARD_RADII * a0, 1.0, 0.0)
    for model in (DiracGroundState(SpinOrientation.UP, hydrogen), SchrodingerEigenstate(QuantumNumbers(3, 1, 1), hydrogen)):
        for theta in (0.0, math.pi):
            assert model.angular_rate(SphericalPoint(a0, theta, 0.0)) == 0.0
        assert model.angular_rate(inside_guard) == 0.0
    assert SchrodingerEigenstate(QuantumNumbers(3, 2, 0), hydrogen).angular_rate(SphericalPoint(a0, 1.0, 0.0)) == 0.0
    # L_1^3(rho) = 4 - rho vanishes at rho = 2r/(3 a0) = 4, a radial node of (3, 1, 1).
    node = SphericalPoint(2.0 * (3 * a0), 1.0, 0.0)
    assert SchrodingerEigenstate(QuantumNumbers(3, 1, 1), hydrogen).angular_rate(node) == 0.0


def test_an_overflowing_dirac_rate_is_a_domain_error():
    atom = make_atom(1, FINE_STRUCTURE, 1e308)
    start = SphericalPoint(2.0 * ORIGIN_GUARD_RADII * atom.bohr_radius, 1.0, 0.0)
    with pytest.raises(DomainError):
        DiracGroundState(SpinOrientation.UP, atom).angular_rate(start)


@pytest.mark.parametrize("r0", [1e-300, 1e200], ids=("tiny", "huge"))
def test_schrodinger_field_agrees_with_bohm_momentum_beyond_the_squares_range(r0):
    # x*x + y*y underflows or overflows here; the field scales by rho instead.
    atom = make_atom(1, FINE_STRUCTURE, 1e300 if r0 < 1.0 else 1.0)
    q = QuantumNumbers(2, 1, 1)
    p = SphericalPoint(r0, 1.0, 0.7)
    want = vector_to_cartesian(p, np.array(bohm_momentum(q, atom, p)) / atom.mass)
    np.testing.assert_allclose(SchrodingerEigenstate(q, atom).velocity_field()(*p.xyz()), want, rtol=1e-15)


def test_schrodinger_describe_evaluates_psi_once(hydrogen, monkeypatch):
    # psi's norm holds (n + l)! and (l + |m|)!, most of a point's time at large n and l; the
    # Laguerre recurrence runs once, and the Legendre one for Theta and for the node test only.
    from bohmatom import schrodinger_states, special_functions

    calls = {"psi": 0, "laguerre": 0, "legendre": 0}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(schrodinger_states, "hydrogen_wavefunction", "psi")
    spy(schrodinger_states, "associated_laguerre", "laguerre")
    spy(schrodinger_states, "assoc_legendre", "legendre")
    spy(special_functions, "assoc_legendre", "legendre")
    got = SchrodingerEigenstate(QuantumNumbers(3, 2, 1), hydrogen).describe(SphericalPoint(hydrogen.bohr_radius, 1.0, 0.3))
    assert calls == {"psi": 1, "laguerre": 1, "legendre": 2}
    assert got["current_spherical"][2] > 0.0

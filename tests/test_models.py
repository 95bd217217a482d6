import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bohmatom.models import ORIGIN_GUARD_RADII
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


def _ulps_from(x, k):
    """The float k steps of one ulp above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


_HYDROGEN = make_atom()
_A0, _GUARD = _HYDROGEN.bohr_radius, ORIGIN_GUARD_RADII * _HYDROGEN.bohr_radius
_TURNING_MODELS = {
    "up": DiracGroundState(SpinOrientation.UP, _HYDROGEN),
    "311": SchrodingerEigenstate(QuantumNumbers(3, 1, 1), _HYDROGEN),
    "32-1": SchrodingerEigenstate(QuantumNumbers(3, 2, -1), _HYDROGEN),
}


@st.composite
def _turning_starts(draw):
    """A model whose flow turns, and an off-pole start: on the (3, 1, 1) radial node r = 6 a0 give or take
    a few ulp, at the origin guard give or take 3 ulp, or anywhere from inside the guard to 10^6 a0."""
    name = draw(st.sampled_from(sorted(_TURNING_MODELS)))
    r = draw(
        st.builds(_ulps_from, st.just(6.0 * _A0), st.integers(-6, 6))
        | st.builds(_ulps_from, st.just(_GUARD), st.integers(-3, 3))
        | st.floats(0.5 * _GUARD, 1e6 * _A0)
    )
    theta = draw(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return _TURNING_MODELS[name], SphericalPoint(r, theta, phi)


@settings(max_examples=1000, deadline=None)
@given(_turning_starts())
def test_angular_rate_is_zero_exactly_where_the_flow_raises_at_the_start(run):
    """Off the poles, a flow that turns is stationary at a start exactly where it is undefined there; the
    rate and the flow share one guard, axis and node decision, on the start's Cartesian coordinates."""
    model, start = run
    try:
        model.velocity_field().planar(*start.xyz())
        raises = False
    except DomainError:
        raises = True
    assert (model.angular_rate(start) == 0.0) == raises


def test_an_overflowing_dirac_rate_is_a_domain_error():
    atom = make_atom(1, FINE_STRUCTURE, 1e308)
    start = SphericalPoint(2.0 * ORIGIN_GUARD_RADII * atom.bohr_radius, 1.0, 0.0)
    with pytest.raises(DomainError):
        DiracGroundState(SpinOrientation.UP, atom).angular_rate(start)


def test_an_overflowing_schrodinger_rate_is_a_domain_error():
    # The flow moves this start at a finite speed m/(mass*rho), but its rate m/(mass*rho^2) overflows.
    atom = make_atom(1, FINE_STRUCTURE, 1e300)
    model, start = SchrodingerEigenstate(QuantumNumbers(2, 1, 1), atom), SphericalPoint(1e-300, 1e-6, 0.0)
    assert model.velocity_field().planar(*start.xyz())[1] > 0.0
    with pytest.raises(DomainError, match=r"^the angular rate \(m/mass\)/rho\^2 exceeds the float range"):
        model.angular_rate(start)


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


@pytest.mark.parametrize("qn", [(2, 1, 1), (3, 2, 1), (5, 2, -2)])
def test_a_schrodinger_orbit_runs_each_node_test_once_per_distinct_value(hydrogen, monkeypatch, qn):
    # Each of the orbit's 4 * steps + 1 evaluations asks whether it stands on a node, but the orbit
    # meets few distinct radii: the Laguerre recurrence runs once per radius, and the rows are those
    # of the field that runs it at every evaluation.
    import functools

    from bohmatom import integrate_trajectory, schrodinger_states

    model = SchrodingerEigenstate(QuantumNumbers(*qn), hydrogen)
    start = SphericalPoint(3.0 * hydrogen.bohr_radius, 1.0, 0.5)
    dt, steps = 2.0 * math.pi / abs(model.angular_rate(start)) / 2000, 2000
    laguerre, calls = schrodinger_states.associated_laguerre, []
    monkeypatch.setattr(schrodinger_states, "associated_laguerre", lambda *args: calls.append(args) or laguerre(*args))
    memo = integrate_trajectory(model.velocity_field(), start, dt, steps)
    memo_calls, calls[:] = list(calls), []
    with monkeypatch.context() as patch:
        patch.setattr(functools, "lru_cache", lambda maxsize: lambda fn: fn)
        every = integrate_trajectory(model.velocity_field(), start, dt, steps)
    assert len(calls) == 4 * steps + 1
    assert len(memo_calls) < len(calls) / 20
    assert [column.tobytes() for column in memo] == [column.tobytes() for column in every]

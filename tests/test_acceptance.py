"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from bohmatom import (
    FINE_STRUCTURE,
    QuantumNumbers,
    SphericalPoint,
    DiracGroundState,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    closed_form_current,
    dirac_current,
    circular_orbit_xyz,
    dirac_ground_state,
    gamma_matrices,
    ground_state_norm,
    integrate_trajectory,
    make_atom,
    mean_lorentz_factor,
    mean_lorentz_factor_3d,
    probability_current,
    state_norm,
)
from bohmatom.cli import main as cli_main

UP, DOWN = SpinOrientation.UP, SpinOrientation.DOWN


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    print(f"criterion {number:02d} PASS  {description}")


def random_points(rng, atom, count, theta_margin=1e-3):
    r = rng.uniform(0.05, 8.0, count) * atom.bohr_radius
    theta = rng.uniform(theta_margin, np.pi - theta_margin, count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    return [
        SphericalPoint(float(a), float(b), float(c)) for a, b, c in zip(r, theta, phi)
    ]


def test_criterion_01_schrodinger_stationarity(hydrogen, rng):
    with criterion(1, "m = 0 states have exactly zero momentum and current"):
        states = [
            QuantumNumbers(n, l, 0) for n in (1, 2, 3) for l in range(n)
        ]
        points = random_points(rng, hydrogen, 1000)
        for q in states:
            for p in points:
                assert np.all(bohm_momentum(q, hydrogen, p) == 0.0)
                assert np.all(probability_current(q, hydrogen, p) == 0.0)


def test_criterion_02_closed_form_dirac_current(hydrogen, rng):
    with criterion(2, "gamma contraction reproduces the closed-form current to 1e-12"):
        for spin in (UP, DOWN):
            for p in random_points(rng, hydrogen, 1000):
                got = dirac_current(dirac_ground_state(spin, hydrogen, p))
                want = closed_form_current(spin, hydrogen, p)
                np.testing.assert_allclose(
                    [got.j0, got.j1, got.j2, got.j3],
                    [want.j0, want.j1, want.j2, want.j3],
                    rtol=1e-12,
                    atol=1e-18 * want.j0,
                )


def test_criterion_03_rotation_sense(hydrogen, rng):
    with criterion(3, "spin up sweeps positive x-y area, spin down negative"):
        for _ in range(20):
            start = SphericalPoint(
                float(rng.uniform(0.3, 4.0)) * hydrogen.bohr_radius,
                float(rng.uniform(0.15, np.pi - 0.15)),
                float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            for spin, expected_sign in ((UP, 1.0), (DOWN, -1.0)):
                model = DiracGroundState(spin, hydrogen)
                period = 2.0 * math.pi / abs(model.angular_rate(start))
                trajectory = integrate_trajectory(model.velocity_field(), start, period / 600.0, 150)
                xy = trajectory.xyz[:, :2]
                area = 0.5 * float(
                    np.sum(xy[:-1, 0] * xy[1:, 1] - xy[1:, 0] * xy[:-1, 1])
                )
                assert area * expected_sign > 0.0


def test_criterion_04_orbit_closure_and_rk4_order(hydrogen, equatorial_closure):
    with criterion(4, "one-period closure at dt = T/1e4 and fourth-order convergence"):
        start, period, trajectory = equatorial_closure
        a0 = hydrogen.bohr_radius
        positions = trajectory.xyz
        assert np.linalg.norm(positions[-1] - positions[0]) <= 1e-8 * a0
        radii = np.linalg.norm(positions, axis=1)
        thetas = np.arccos(np.clip(positions[:, 2] / radii, -1.0, 1.0))
        assert np.max(np.abs(radii - start.r)) / start.r < 1e-8
        assert np.max(np.abs(thetas - start.theta)) < 1e-8

        model = DiracGroundState(UP, hydrogen)
        errors = []
        for n_steps in (500, 1000, 2000):
            run = integrate_trajectory(model.velocity_field(), start, period / n_steps, n_steps)
            reference = circular_orbit_xyz(start, model.angular_rate(start), run.t[-1:])[0]
            errors.append(float(np.linalg.norm(run.xyz[-1] - reference)))
        orders = [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]
        assert all(3.8 <= order <= 4.2 for order in orders)


def test_criterion_05_nonrelativistic_limit():
    with criterion(5, "scaled-coupling speed profile converges to sin(theta)"):
        thetas = np.linspace(0.01, math.pi - 0.01, 41)
        deviations = {}
        for scale in (1.0, 0.5, 0.1, 0.01):
            atom = make_atom(1, FINE_STRUCTURE * scale)
            worst = 0.0
            for theta in thetas:
                speed = float(
                    np.linalg.norm(
                        bohm_velocity(UP, atom, SphericalPoint(atom.bohr_radius, float(theta), 0.0))
                    )
                )
                ratio = speed / (scale * FINE_STRUCTURE)
                worst = max(worst, abs(ratio - math.sin(theta)) / math.sin(theta))
            deviations[scale] = worst
        assert deviations[0.01] <= 1e-4


def test_criterion_06_normalizations(hydrogen):
    with criterion(6, "|psi_100|^2 and j^0 both integrate to 1 within 1e-6"):
        assert abs(state_norm(QuantumNumbers(1, 0, 0), hydrogen) - 1.0) <= 1e-6
        assert abs(ground_state_norm(UP, hydrogen) - 1.0) <= 1e-6


def test_criterion_07_gamma_algebra():
    with criterion(7, "anticommutators and hermiticity of the gamma matrices"):
        gammas = gamma_matrices()
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        for mu in range(4):
            for nu in range(mu, 4):
                anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
                assert np.max(np.abs(anti - 2.0 * eta[mu, nu] * np.eye(4))) <= 1e-14
        assert np.array_equal(gammas[0].conj().T, gammas[0])
        for g in gammas[1:]:
            assert np.array_equal(g.conj().T, -g)


def test_criterion_08_current_conservation(hydrogen, rng):
    with criterion(8, "finite-difference divergence of the spatial current vanishes"):
        h = 1e-5 * hydrogen.bohr_radius
        for spin in (UP, DOWN):
            for p in random_points(rng, hydrogen, 100, theta_margin=0.1):
                xyz = p.to_cartesian()
                terms = []
                for i in range(3):
                    step = np.zeros(3)
                    step[i] = h
                    plus = dirac_current(
                        dirac_ground_state(spin, hydrogen, SphericalPoint.from_cartesian(xyz + step))
                    ).spatial[i]
                    minus = dirac_current(
                        dirac_ground_state(spin, hydrogen, SphericalPoint.from_cartesian(xyz - step))
                    ).spatial[i]
                    terms.append((plus - minus) / (2.0 * h))
                current = dirac_current(dirac_ground_state(spin, hydrogen, p))
                scale = max(sum(abs(t) for t in terms), float(np.linalg.norm(current.spatial)) / p.r)
                assert abs(sum(terms)) <= 1e-6 * scale


def test_criterion_09_dilation(hydrogen):
    with criterion(9, "mean Lorentz factor bounds, small-coupling law, spin symmetry"):
        mean_up = mean_lorentz_factor(UP, hydrogen)
        mean_down = mean_lorentz_factor(DOWN, hydrogen)
        za = hydrogen.za
        assert 1.0 < mean_up < 1.0 + za**2
        assert abs((mean_up - 1.0) / za**2 - 1.0 / 3.0) <= 0.01 / 3.0
        assert mean_up == mean_down
        mean_3d = mean_lorentz_factor_3d(UP, hydrogen)
        assert abs(mean_up - mean_3d) <= 1e-9 * mean_up


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI reruns and exact CSV round-trip"):
        runner = CliRunner()
        from bohmatom import SpinOrientation as Spin

        def run(args):
            result = runner.invoke(cli_main, args, catch_exceptions=False)
            assert result.exit_code == 0
            return result

        pairs = []
        for stem, args in (
            ("field", ["field", "--r-count", "3", "--theta-count", "5", "--phi-count", "4"]),
            ("traj", ["trajectory", "--steps", "64"]),
            ("dilate", ["dilate", "--rest-lifetime", "2.196981e-6"]),
        ):
            a = tmp_path / f"{stem}_a.out"
            b = tmp_path / f"{stem}_b.out"
            run(args + ["--out", str(a)])
            run(args + ["--out", str(b)])
            pairs.append((a.read_bytes(), b.read_bytes()))
        assert all(first == second for first, second in pairs)

        # round trip: parsed CSV text reproduces the library values exactly
        field_file = tmp_path / "field_a.out"
        atom = make_atom()
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in field_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("r,")
        ]
        assert rows
        for row in rows:
            point = SphericalPoint(row[0], row[1], row[2])
            current = dirac_current(dirac_ground_state(Spin.UP, atom, point))
            for parsed, computed in zip(row[3:7], (current.j0, current.j1, current.j2, current.j3)):
                if computed == 0.0:
                    assert parsed == 0.0
                else:
                    assert abs(parsed - computed) <= 1e-15 * abs(computed)

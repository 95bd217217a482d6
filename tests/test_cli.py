import contextlib
import csv
import errno
import io
import json
import math
import os
import pstats
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import bohmatom
from bohmatom import cli, schrodinger_states, usage
from bohmatom import (
    FINE_STRUCTURE,
    QuantumNumbers,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    four_current_at,
    hydrogen_wavefunction,
    make_atom,
)
from bohmatom.cli import main
from bohmatom.coords import azimuthal_to_cartesian
from oracles import click_group, vector_to_cartesian


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def parse_csv(path):
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(tok) for tok in line.split(",")])
    return header, rows


FIELD_ARGS = [
    "field", "--model", "dirac", "--spin", "up",
    "--r-count", "3", "--theta-count", "5", "--phi-count", "4",
]
TRAJ_ARGS = ["trajectory", "--model", "dirac", "--spin", "up", "--steps", "64"]
DILATE_ARGS = ["dilate", "--rest-lifetime", "2.196981e-6"]
# Fresh interpreters import the package from the same source tree as the tests.
_SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}


class TestDeterminism:
    def test_field_reruns_are_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert invoke(runner, FIELD_ARGS + ["--out", str(a)]).exit_code == 0
        assert invoke(runner, FIELD_ARGS + ["--out", str(b)]).exit_code == 0
        assert read_bytes(a) == read_bytes(b)

    def test_trajectory_reruns_are_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert invoke(runner, TRAJ_ARGS + ["--out", str(a)]).exit_code == 0
        assert invoke(runner, TRAJ_ARGS + ["--out", str(b)]).exit_code == 0
        assert read_bytes(a) == read_bytes(b)
        assert read_bytes(str(a) + ".summary.json") == read_bytes(str(b) + ".summary.json")

    def test_dilate_reruns_are_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert invoke(runner, DILATE_ARGS + ["--out", str(a)]).exit_code == 0
        assert invoke(runner, DILATE_ARGS + ["--out", str(b)]).exit_code == 0
        assert read_bytes(a) == read_bytes(b)

    def test_state_output_is_deterministic(self, runner):
        first = invoke(runner, ["state", "--model", "dirac"])
        second = invoke(runner, ["state", "--model", "dirac"])
        assert first.exit_code == 0
        assert first.output == second.output


class TestFieldCommand:
    def test_csv_round_trips_library_values(self, runner, tmp_path):
        out = tmp_path / "field.csv"
        assert invoke(runner, FIELD_ARGS + ["--out", str(out)]).exit_code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
        assert len(rows) == 3 * 5 * 4
        atom = make_atom()
        for row in rows[:8]:
            point = SphericalPoint(row[0], row[1], row[2])
            current = four_current_at(SpinOrientation.UP, atom, point)
            # parsed text reproduces the computed values exactly
            assert row[3:7] == current

    def test_axial_current_column_is_zero(self, runner, tmp_path):
        out = tmp_path / "field.csv"
        assert invoke(runner, FIELD_ARGS + ["--out", str(out)]).exit_code == 0
        _, rows = parse_csv(out)
        assert all(row[6] == 0.0 for row in rows)

    def test_odd_theta_count_includes_equator(self, runner, tmp_path):
        out = tmp_path / "field.csv"
        assert invoke(runner, FIELD_ARGS + ["--out", str(out)]).exit_code == 0
        _, rows = parse_csv(out)
        assert any(row[1] == pytest.approx(math.pi / 2.0, rel=1e-15) for row in rows)

    def test_schrodinger_ground_state_is_static(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        args = [
            "field", "--model", "schrodinger", "--n", "1", "--l", "0", "--m", "0",
            "--r-count", "3", "--theta-count", "3", "--phi-count", "3",
            "--out", str(out),
        ]
        assert invoke(runner, args).exit_code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[4:11] == [0.0] * 7  # currents and velocities all zero
            assert row[3] > 0.0

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "field.json"
        assert invoke(runner, FIELD_ARGS + ["--format", "json", "--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert doc["command"] == "field"
        assert doc["spin"] == "up"
        assert len(doc["rows"]) == 3 * 5 * 4

    def test_invalid_grid_is_a_usage_error(self, runner, tmp_path):
        args = FIELD_ARGS + ["--r-min", "-1.0", "--out", str(tmp_path / "x.csv")]
        result = invoke(runner, args)
        assert result.exit_code == 2

    def test_grid_beyond_memory_is_a_one_line_error(self, runner, tmp_path):
        # 10^17 points need over 10^18 bytes per column, so reserving the table fails at once.
        out = tmp_path / "x.csv"
        counts = ["--r-count", str(10**6), "--theta-count", str(10**6), "--phi-count", str(10**5)]
        result = runner.invoke(main, ["field", *counts, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: a grid of {10**17} points does not fit in memory\n"
        assert result.output.count("\n") == 1
        assert not out.exists()

    def test_velocity_defined_where_the_density_underflows(self, tmp_path):
        # j0 = A(r)^2 underflows to 0 at these radii; the velocity is the
        # amplitude-free closed form Z*alpha*sin(theta)*phi_hat.
        out = tmp_path / "far.csv"
        args = ["field", "--model", "dirac", "--r-min", "1e5", "--r-max", "1e6",
                "--r-count", "2", "--theta-count", "1", "--phi-count", "2", "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "bohmatom.cli", *args], env=_SUBPROCESS_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stderr == ""
        _, rows = parse_csv(out)
        rows = np.array(rows)
        assert rows.shape == (4, 11)
        assert np.all(rows[:, 3] == 0.0)
        k = make_atom().za
        theta, phi = rows[:, 1], rows[:, 2]
        speed = k * np.sin(theta)
        np.testing.assert_allclose(rows[:, 7], -speed * np.sin(phi), rtol=0.0, atol=1e-17)
        np.testing.assert_allclose(rows[:, 8], speed * np.cos(phi), rtol=1e-15)
        assert np.all(rows[:, 9] == 0.0)
        np.testing.assert_allclose(rows[:, 10], speed, rtol=1e-15)

    @pytest.mark.parametrize("spin", ["up", "down"])
    def test_dirac_rows_equal_the_scalar_api(self, runner, tmp_path, spin):
        out = tmp_path / "field.csv"
        args = ["field", "--spin", spin, "--Z", "60", "--r-count", "3", "--theta-count", "4", "--phi-count", "3"]
        assert invoke(runner, args + ["--out", str(out)]).exit_code == 0
        _, rows = parse_csv(out)
        atom = make_atom(60)
        spin_o = SpinOrientation(spin)
        for row in rows:
            point = SphericalPoint(row[0], row[1], row[2])
            current = four_current_at(spin_o, atom, point)
            velocity = bohm_velocity(spin_o, atom, point)
            assert row[3:7] == current
            assert row[7:10] == list(velocity)

    def test_schrodinger_rows_come_from_one_wavefunction(self, runner, tmp_path):
        out = tmp_path / "s.json"
        args = ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "-1", "--Z", "7",
                "--r-count", "3", "--theta-count", "4", "--phi-count", "3", "--format", "json", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        rows = json.loads(read_bytes(out))["rows"]
        atom = make_atom(7)
        q = QuantumNumbers(3, 2, -1)
        for row in rows:
            point = SphericalPoint(row[0], row[1], row[2])
            # |psi|^2 does not depend on phi: the row carries its value at phi = 0.
            amplitude = abs(hydrogen_wavefunction(q, atom, SphericalPoint(row[0], row[1], 0.0)))
            density = amplitude * amplitude
            velocity = vector_to_cartesian(point, np.array(bohm_momentum(q, atom, point)) / atom.mass)
            assert row[3] == density
            assert row[4:7] == (density * velocity).tolist()
            assert row[7:10] == velocity.tolist()


class TestTrajectoryCommand:
    def test_spin_up_sweeps_positive_area(self, runner, tmp_path):
        out = tmp_path / "up.csv"
        assert invoke(runner, TRAJ_ARGS + ["--out", str(out)]).exit_code == 0
        _, rows = parse_csv(out)
        xy = np.array([[row[1], row[2]] for row in rows])
        area = 0.5 * np.sum(xy[:-1, 0] * xy[1:, 1] - xy[1:, 0] * xy[:-1, 1])
        assert area > 0.0

    def test_spin_down_sweeps_negative_area(self, runner, tmp_path):
        out = tmp_path / "down.csv"
        args = ["trajectory", "--model", "dirac", "--spin", "down", "--steps", "64", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        _, rows = parse_csv(out)
        xy = np.array([[row[1], row[2]] for row in rows])
        area = 0.5 * np.sum(xy[:-1, 0] * xy[1:, 1] - xy[1:, 0] * xy[:-1, 1])
        assert area < 0.0

    def test_zero_steps_single_row(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        args = ["trajectory", "--steps", "0", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        atom = make_atom()
        start = SphericalPoint(atom.bohr_radius, math.pi / 2.0, 0.0).xyz()
        assert rows[0][0] == 0.0
        np.testing.assert_array_equal(rows[0][1:4], start)
        assert rows[0][10] == 0.0  # zero deviation from the reference at t = 0

    def test_reference_orbit_tracks_integration(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        assert invoke(runner, TRAJ_ARGS + ["--out", str(out)]).exit_code == 0
        summary = json.loads(read_bytes(str(out) + ".summary.json"))
        assert summary["aborted"] is False
        assert summary["steps_completed"] == 64
        assert summary["max_deviation"] <= 1e-8 * make_atom().bohr_radius

    def test_singular_start_aborts_nonzero_exit(self, runner, tmp_path):
        out = tmp_path / "bad.csv"
        args = [
            "trajectory", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1",
            "--r", "1e-9", "--dt", "1.0", "--steps", "5", "--out", str(out),
        ]
        result = invoke(runner, args)
        assert result.exit_code == 1
        summary = json.loads(read_bytes(str(out) + ".summary.json"))
        assert summary["aborted"] is True

    def test_start_inside_the_origin_guard_writes_no_rows(self, runner, tmp_path):
        # The run aborts before its first row; the JSON still holds an empty table and its summary.
        out = tmp_path / "t.json"
        result = runner.invoke(main, ["trajectory", "--r", "1e-10", "--steps", "3", "--format", "json", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: trajectory entered guard radius 0.0001370359990836958 around the origin\n"
        columns = "".join(f'    "{c}",\n' for c in ["t", "x", "y", "z", "vx", "vy", "vz", "x_ref", "y_ref", "z_ref"])
        assert out.read_text(encoding="utf-8") == (
            '{\n  "command": "trajectory",\n  "model": "dirac",\n  "spin": "up",\n  "quantum_numbers": null,\n'
            '  "Z": 1,\n  "alpha_scale": 1.0,\n  "mass": 1.0,\n'
            f'  "columns": [\n{columns}    "deviation"\n  ],\n'
            '  "rows": [],\n'
            '  "summary": {\n    "dt": 1.0,\n    "steps_requested": 3,\n    "steps_completed": 0,\n'
            '    "period": null,\n    "max_deviation": 0.0,\n    "aborted": true\n  }\n}\n'
        )

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_invalid_dt_is_a_usage_error(self, runner, tmp_path, dt):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, TRAJ_ARGS + ["--dt", dt, "--out", str(out)])
        assert result.exit_code == 2
        assert "--dt must be positive and finite" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_steps_beyond_memory_is_a_one_line_error(self, runner, tmp_path):
        # 10^17 rows need over 10^18 bytes, more than any 64-bit address space
        # holds, so allocating the columns fails at once.
        out = tmp_path / "t.csv"
        result = runner.invoke(main, ["trajectory", "--steps", str(10**17), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: --steps {10**17} does not fit in memory\n"
        assert not out.exists()

    def test_start_beyond_amplitude_underflow_stays_on_its_circle(self, runner, tmp_path):
        out = tmp_path / "far.csv"
        r0 = 60000.0
        args = ["trajectory", "--r", "60000", "--steps", "100", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        _, rows = parse_csv(out)
        rows = np.array(rows)
        assert rows.shape == (101, 11)
        t, xyz = rows[:, 0], rows[:, 1:4]
        omega = make_atom().za / r0
        z0 = r0 * math.cos(math.pi / 2.0)
        exact = np.column_stack([r0 * np.cos(omega * t), r0 * np.sin(omega * t), np.full_like(t, z0)])
        assert np.max(np.abs(xyz - exact)) <= 1e-8 * r0
        assert np.max(np.abs(rows[:, 7:10] - exact)) <= 1e-12 * r0
        assert np.max(rows[:, 10]) <= 1e-8 * r0

    def test_schrodinger_start_beyond_wavefunction_underflow(self, runner, tmp_path):
        # psi underflows to 0 at r = 1e6, which is not a node: the orbit runs.
        out = tmp_path / "far.csv"
        args = ["trajectory", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1",
                "--r", "1e6", "--theta", "1.0", "--steps", "50", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        summary = json.loads(read_bytes(str(out) + ".summary.json"))
        assert summary["aborted"] is False
        assert summary["steps_completed"] == 50
        rho = 1e6 * math.sin(1.0)
        assert summary["period"] == pytest.approx(2.0 * math.pi * rho * rho, rel=1e-12)
        _, rows = parse_csv(out)
        assert max(row[10] for row in rows) <= 1e-8 * 1e6

    def test_json_embeds_summary(self, runner, tmp_path):
        out = tmp_path / "t.json"
        assert invoke(runner, TRAJ_ARGS + ["--format", "json", "--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert doc["summary"]["steps_completed"] == 64
        assert len(doc["rows"]) == 65


class TestDilateCommand:
    def test_report_contents(self, runner, tmp_path):
        out = tmp_path / "report.json"
        assert invoke(runner, DILATE_ARGS + ["--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert doc["dilated_lifetime"] == doc["rest_lifetime"] * doc["mean_gamma"]
        assert 1.0 < doc["mean_gamma"] < doc["pointwise_max_gamma"]
        scales = [row["scale"] for row in doc["alpha_scaling"]]
        assert scales == [1.0, 0.5, 0.1, 0.01]
        assert doc["alpha_scaling"][-1]["excess_over_za_sq"] == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_vanishing_coupling_means_no_dilation(self, runner, tmp_path):
        out = tmp_path / "report.json"
        args = DILATE_ARGS + ["--alpha-scale", "1e-6", "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert abs(doc["mean_gamma"] - 1.0) <= 1e-12
        assert doc["dilated_lifetime"] == doc["rest_lifetime"]

    def test_spin_reports_are_identical_files(self, runner, tmp_path):
        a = tmp_path / "up.json"
        b = tmp_path / "down.json"
        assert invoke(runner, DILATE_ARGS + ["--spin", "up", "--out", str(a)]).exit_code == 0
        assert invoke(runner, DILATE_ARGS + ["--spin", "down", "--out", str(b)]).exit_code == 0
        assert read_bytes(a) == read_bytes(b)

    def test_scale_one_row_reuses_report_mean(self, runner, tmp_path):
        out = tmp_path / "report.json"
        assert invoke(runner, DILATE_ARGS + ["--Z", "80", "--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert doc["alpha_scaling"][0]["scale"] == 1.0
        assert doc["alpha_scaling"][0]["mean_gamma"] == doc["mean_gamma"]

    def test_underflowing_coupling_is_a_one_line_error(self, runner, tmp_path):
        out = tmp_path / "x.json"
        args = ["dilate", "--rest-lifetime", "2e-6", "--alpha-scale", "1e-200", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_a_scaled_atom_out_of_range_is_a_one_line_error(self, runner, tmp_path):
        # The atom of the flags is valid, but at scale 0.01 mass * Z * alpha puts the Bohr radius out of range.
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["dilate", "--rest-lifetime", "2e-6", "--mass", "1e-305", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.startswith("error: alpha_scaling at scale 0.01: mass * Z * alpha = ")
        assert result.output.count("\n") == 1
        assert not out.exists()
        # Where the flags' own atom is out of range, that stays a usage error.
        result = runner.invoke(main, ["dilate", "--rest-lifetime", "2e-6", "--mass", "1e-308", "--out", str(out)])
        assert result.exit_code == 2
        assert "puts the Bohr radius out of the float range" in result.output
        assert not out.exists()

    def test_rejects_nonpositive_lifetime(self, runner, tmp_path):
        for lifetime in ("-1.0", "0", "nan", "inf", "-inf"):
            out = tmp_path / "x.json"
            result = runner.invoke(main, ["dilate", "--rest-lifetime", lifetime, "--out", str(out)])
            assert result.exit_code == 2, lifetime
            assert "--rest-lifetime must be positive and finite" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("alpha_scale", ["9.1e-7", "1e-3"])
    def test_excess_keeps_its_digits_at_small_coupling(self, runner, tmp_path, alpha_scale):
        out = tmp_path / "report.json"
        args = ["dilate", "--rest-lifetime", "2e-6", "--alpha-scale", alpha_scale, "--out", str(out)]
        assert invoke(runner, args).exit_code == 0
        for row in json.loads(read_bytes(out))["alpha_scaling"]:
            k = FINE_STRUCTURE * float(alpha_scale) * row["scale"]
            series = math.fsum(k ** (2 * j) / (2 * j + 3) for j in range(40))
            assert row["excess_over_za_sq"] == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize("z", [136, 137])
    def test_coupling_near_one_has_the_closed_form_mean(self, runner, tmp_path, z):
        out = tmp_path / "report.json"
        assert invoke(runner, DILATE_ARGS + ["--Z", str(z), "--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        k = z * FINE_STRUCTURE
        assert doc["mean_gamma"] == pytest.approx(math.atanh(k) / k, rel=1e-12)


class TestStateCommand:
    def test_dirac_state_document(self, runner):
        result = invoke(runner, ["state", "--model", "dirac", "--theta", "1.5707963267948966"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["spinor"]) == 4
        assert doc["speed"] == pytest.approx(make_atom().za, rel=1e-12)

    def test_schrodinger_state_document(self, runner):
        result = invoke(runner, ["state", "--model", "schrodinger", "--n", "1", "--l", "0", "--m", "0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["phase"] == 0.0
        assert doc["velocity"] == [0.0, 0.0, 0.0]

    def test_velocity_defined_where_the_amplitude_underflows(self, runner):
        result = invoke(runner, ["state", "--model", "dirac", "--r", "1e6", "--theta", "1.0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["current"][0] == 0.0  # A(r)^2 underflows at this radius
        assert doc["speed"] == pytest.approx(make_atom().za * math.sin(1.0), rel=1e-12)

    def test_schrodinger_velocity_defined_where_psi_underflows(self, runner):
        args = ["state", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1", "--r", "1e6", "--theta", "1.0"]
        result = invoke(runner, args)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["amplitude"] == 0.0 and doc["phase"] is None
        assert doc["velocity"] == pytest.approx([0.0, 1.0 / (1e6 * math.sin(1.0)), 0.0], rel=1e-15, abs=0.0)

    def test_schrodinger_state_runs_the_laguerre_recurrence_once(self, runner, monkeypatch):
        # R_nl and its node flag come from one radial_axis call, with the bits of the point functions.
        q, atom = QuantumNumbers(25002, 1, 1), make_atom()
        point = SphericalPoint(atom.bohr_radius, math.pi / 2, 0.0)
        psi = hydrogen_wavefunction(q, atom, point)
        velocity = azimuthal_to_cartesian(point.phi, bohm_momentum(q, atom, point)[2] / atom.mass)
        calls = []
        laguerre = schrodinger_states.associated_laguerre
        spy = lambda *args: calls.append(args) or laguerre(*args)  # noqa: E731
        monkeypatch.setattr(schrodinger_states, "associated_laguerre", spy)
        result = invoke(runner, ["state", "--model", "schrodinger", "--n", "25002", "--l", "1", "--m", "1"])
        assert result.exit_code == 0
        assert len(calls) == 1
        doc = json.loads(result.output)
        assert doc["psi"] == [psi.real, psi.imag]
        assert doc["velocity"] == list(velocity)

    def test_write_to_file(self, runner, tmp_path):
        out = tmp_path / "state.json"
        assert invoke(runner, ["state", "--out", str(out)]).exit_code == 0
        doc = json.loads(read_bytes(out))
        assert doc["command"] == "state"


class TestFlagValidation:
    def test_spin_rejected_for_schrodinger(self, runner, tmp_path):
        args = ["field", "--model", "schrodinger", "--spin", "up", "--out", str(tmp_path / "x.csv")]
        assert invoke(runner, args).exit_code == 2

    def test_quantum_numbers_rejected_for_dirac(self, runner, tmp_path):
        args = ["field", "--model", "dirac", "--n", "2", "--out", str(tmp_path / "x.csv")]
        assert invoke(runner, args).exit_code == 2

    def test_invalid_quantum_numbers(self, runner, tmp_path):
        args = ["field", "--model", "schrodinger", "--n", "1", "--l", "1", "--m", "0",
                "--out", str(tmp_path / "x.csv")]
        assert invoke(runner, args).exit_code == 2

    def test_supercritical_flags(self, runner, tmp_path):
        args = ["field", "--Z", "200", "--out", str(tmp_path / "x.csv")]
        assert invoke(runner, args).exit_code == 2

    def test_unwritable_output_path(self, runner, tmp_path):
        args = FIELD_ARGS + ["--out", str(tmp_path / "missing-dir" / "x.csv")]
        assert invoke(runner, args).exit_code == 1

    @pytest.mark.parametrize("m", ["0", "1", "-1"])
    def test_factorials_beyond_float_range(self, tmp_path, m):
        # (n + l)! = 399! does not fit in a float, and the norm underflows to
        # 0, which is not a node: the run writes the whole table.
        out = tmp_path / "x.csv"
        args = ["field", "--model", "schrodinger", "--n", "200", "--l", "199", "--m", m, "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "bohmatom.cli", *args], env=_SUBPROCESS_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stderr == ""
        _, rows = parse_csv(out)
        assert len(rows) == 5 * 7 * 8


# Starts at which the rate once made its own guard and node decision, on r and theta, and the flow another, on
# x, y and z: the summary gives the period of the exact circle exactly where the flow moves the start.
_START_DECISIONS = {
    # --r is a radial node of (3, 1, 1), but the start's x, y, z are not: it turns, on its circle.
    "node": (["--model", "schrodinger", "--n", "3", "--l", "1", "--m", "1", "--r", "822.2159945021748",
              "--theta", "0.3", "--steps", "4"], 0, 5),
    # --r is an ulp inside the origin guard, but hypot(x, y, z) is not: the flow moves the start, at the
    # circle's dt, and the run stops where an RK4 stage enters the guard.
    "guard-moves": (["--r", "0.00013703599908369577", "--theta", "0.42389999999999994", "--phi", "3.71",
                     "--steps", "20"], 1, 1),
    # --r is the guard radius, but hypot(x, y, z) lies inside it: no circle, and no row.
    "guard-inside": (["--r", "0.0001370359990836958", "--theta", "0.07849999999999999", "--phi", "1.85",
                      "--steps", "20"], 1, 0),
}


@pytest.mark.parametrize("args, exit_code, rows", _START_DECISIONS.values(), ids=_START_DECISIONS.keys())
def test_the_period_is_the_circles_exactly_where_the_flow_moves_the_start(runner, tmp_path, args, exit_code, rows):
    out = tmp_path / "t.json"
    result = runner.invoke(main, ["trajectory", *args, "--format", "json", "--out", str(out)])
    assert result.exit_code == exit_code, result.output
    doc = json.loads(out.read_text(encoding="utf-8"))
    summary = doc["summary"]
    assert len(doc["rows"]) == rows and summary["aborted"] is bool(exit_code)
    if not rows:
        assert summary["period"] is None and summary["dt"] == 1.0
        return
    r, theta = (float(args[args.index(flag) + 1]) for flag in ("--r", "--theta"))
    rho = r * math.sin(theta)
    rate = 1 / 1.0 / rho / rho if "schrodinger" in args else make_atom().za / r  # m / mass / rho^2, Z*alpha / r
    assert summary["period"] == 2.0 * math.pi / rate
    assert summary["dt"] == summary["period"] / 10000.0
    assert summary["max_deviation"] <= 1e-12 * r


_FILE_SIZE_LIMITED = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
from bohmatom.cli import main
main(sys.argv[1:])
"""


@pytest.mark.parametrize("args", [FIELD_ARGS, TRAJ_ARGS], ids=["field", "trajectory"])
def test_failed_write_keeps_the_existing_file(tmp_path, args):
    # A 4096-byte file size limit makes the write fail midway (EFBIG).
    out = tmp_path / "x.csv"
    out.write_text("previous contents\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-c", _FILE_SIZE_LIMITED, *args, "--out", str(out)],
        env={**_SUBPROCESS_ENV, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert result.stderr.count("\n") == 1
    assert out.read_text(encoding="utf-8") == "previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("args", [FIELD_ARGS, TRAJ_ARGS, DILATE_ARGS], ids=["field", "trajectory", "dilate"])
def test_a_failed_write_prints_the_same_bytes_every_run(tmp_path, args):
    # The temp file's name holds the pid: the message names --out and the OS error's text alone.
    out = tmp_path / "missing" / "x.csv"
    runs = [
        subprocess.run([sys.executable, "-m", "bohmatom.cli", *args, "--out", str(out)], env=_SUBPROCESS_ENV,
                       capture_output=True, text=True)
        for _ in range(2)
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(1, "", f"error: cannot write {out}: {os.strerror(2)}\n")] * 2
    assert list(tmp_path.iterdir()) == []


def test_csv_trajectory_into_a_pipe_is_a_usage_error(tmp_path):
    # A pipe has no place beside it for the summary sidecar; the command stops before it opens the pipe,
    # which would wait for a reader.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    result = subprocess.run([sys.executable, "-m", "bohmatom.cli", *TRAJ_ARGS, "--out", str(pipe)],
                            env=_SUBPROCESS_ENV, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.endswith(f"Error: --out {pipe} is not a regular file, so no summary can go beside it: "
                                  "use --format json\n")
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_written_file_replaces_the_existing_one(runner, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("previous contents\n", encoding="utf-8")
    assert invoke(runner, FIELD_ARGS + ["--out", str(out)]).exit_code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3 * 5 * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("target_name", ["target.csv", "elsewhere/target.csv"], ids=["beside", "another-directory"])
def test_out_through_a_link_replaces_its_target(runner, tmp_path, target_name):
    # The temp file goes beside the link's target and replaces it: the link stays a link.
    plain, link, target = tmp_path / "plain.csv", tmp_path / "link.csv", tmp_path / target_name
    assert invoke(runner, FIELD_ARGS + ["--out", str(plain)]).exit_code == 0
    target.parent.mkdir(exist_ok=True)
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target_name)
    assert invoke(runner, FIELD_ARGS + ["--out", str(link)]).exit_code == 0
    assert link.is_symlink() and os.readlink(link) == target_name
    assert target.read_bytes() == plain.read_bytes()
    files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if not p.is_dir())
    assert files == sorted(["plain.csv", "link.csv", target_name])


def run_cold(args, *flags):
    """`python FLAGS -X importtime -m bohmatom.cli ARGS`, the program's own entry: the finished
    process and the names of the modules it imported."""
    result = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-m", "bohmatom.cli", *args],
        env=_SUBPROCESS_ENV, capture_output=True, text=True,
    )
    imports = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return result, {line.rpartition("|")[2].strip() for line in imports}


#: The package modules each command imports: only what it runs.
_BASE_MODULES = {"bohmatom", "bohmatom.errors", "bohmatom.frozen", "bohmatom.physics_core"}
_STATE_MODULES = _BASE_MODULES | {"bohmatom.coords", "bohmatom.models"}
_MODEL_MODULES = {
    "dirac": {"bohmatom.dirac_states", "bohmatom.libm"},
    "schrodinger": {"bohmatom.libm", "bohmatom.schrodinger_states", "bohmatom.special_functions"},
}
_COMMAND_MODULES = {
    "--help": {"bohmatom", "bohmatom.errors", "bohmatom.usage"},
    "dilate": _BASE_MODULES | {"bohmatom.dilation"},
    "state": _STATE_MODULES,
    "trajectory": _STATE_MODULES | {"bohmatom.trajectory_engine", "bohmatom.writer"},
    "field": _STATE_MODULES | {"bohmatom.grid", "bohmatom.writer"},
}


def expected_modules(args):
    """The package modules `bohmatom ARGS` imports: its command's, and its model's where it evaluates one."""
    if "--help" in args:
        return _COMMAND_MODULES["--help"]
    modules = _COMMAND_MODULES[args[0]]
    if args[0] == "dilate":
        return modules
    model = "schrodinger" if "schrodinger" in args else "dirac"
    if args[0] == "trajectory" and model == "dirac":  # the flow is closed-form: no spinor
        return modules
    return modules | _MODEL_MODULES[model]


_SCHRODINGER_START = ["--model", "schrodinger", "--n", "2", "--l", "1", "--theta", "1.0"]
# Trajectory runs of both models, with the exit code each ends with.
_COLD_TRAJECTORIES = [
    (["--spin", "up", "--steps", "50"], 0),
    (["--spin", "down", "--Z", "7", "--r", "12.5", "--theta", "1.1", "--steps", "1025"], 0),
    ([*_SCHRODINGER_START, "--m", "1", "--steps", "50"], 0),
    ([*_SCHRODINGER_START, "--m", "-1", "--steps", "50"], 0),
    ([*_SCHRODINGER_START, "--m", "0", "--steps", "50"], 0),
    (["--r", "1e-10", "--steps", "3"], 1),  # starts inside the origin guard
    ([*_SCHRODINGER_START, "--m", "1", "--r", "1e-9", "--dt", "1.0", "--steps", "5"], 1),  # enters it later
]


# State runs of both models, with the exit code each ends with.
_COLD_STATES = [
    (["--spin", "up", "--theta", "1.0", "--phi", "2.0"], 0),
    (["--spin", "down", "--Z", "92", "--r", "0.01"], 0),
    (["--r", "1e200"], 0),  # A(r) underflows to 0; the velocity does not
    (["--model", "schrodinger", "--n", "3", "--l", "1", "--m", "0", "--theta", "2.5"], 0),
    ([*_SCHRODINGER_START, "--m", "1"], 0),
    ([*_SCHRODINGER_START, "--m", "-1", "--phi", "4.0"], 0),
    ([*_SCHRODINGER_START, "--m", "1", "--r", "1e308"], 0),  # R_nl is 0 where rho overflows
    (["--model", "schrodinger", "--n", "2", "--l", "1", "--m", "-1", "--phi", "3.141592653589793"], 0),
    (["--model", "schrodinger", "--n", "3", "--l", "1", "--m", "0", "--r", "1644", "--theta", "2.5"], 0),
    (["--mass", "1e300"], 1),  # A(r) exceeds the float range
]


# Field runs of both models, with the exit code each ends with.
_COLD_FIELDS = [
    (["--spin", "up"], 0),
    (["--spin", "down", "--Z", "92", "--r-count", "9", "--theta-count", "4", "--phi-count", "3"], 0),
    (["--model", "schrodinger", "--n", "3", "--l", "2", "--m", "-1", "--r-count", "4"], 0),
    (["--model", "schrodinger", "--n", "3", "--l", "1", "--m", "0"], 0),
    (["--mass", "1e300"], 1),  # A(r) exceeds the float range
]


def test_cli_import_loads_no_scipy(tmp_path):
    code = "import sys, bohmatom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=_SUBPROCESS_ENV, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    # No command loads numpy, and each loads only the package modules it runs. A well-formed command and
    # each help page run without click (and the dataclasses and inspect modules); a usage error needs click.
    out = tmp_path / "out"
    runs = [(["--help"], 0), *(([name, "--help"], 0) for name in cli._COMMANDS)]
    runs += [(["dilate", "--rest-lifetime", "2e-6", "--out", str(out)], 0)]
    runs += [(["dilate", "--rest-lifetime", "0", "--out", str(out)], 2), (["field", "--r-count", "0", "--out", str(out)], 2)]
    runs += [(["state", *args], exit_code) for args, exit_code in _COLD_STATES]
    runs += [
        (["trajectory", *args, "--format", fmt, "--out", str(out)], exit_code)
        for args, exit_code in _COLD_TRAJECTORIES
        for fmt in ("csv", "json")
    ]
    runs += [
        (["field", *args, "--format", fmt, "--out", str(out)], exit_code)
        for args, exit_code in _COLD_FIELDS
        for fmt in ("csv", "json")
    ]
    for args, exit_code in runs:
        result, modules = run_cold(args)
        assert result.returncode == exit_code, (args, result.stderr)
        assert not {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}, args
        # A usage error is raised before any model is evaluated, and reported by the click group.
        expected = _COMMAND_MODULES[args[0]] | {"bohmatom.usage"} if exit_code == 2 else expected_modules(args)
        assert {m for m in modules if m.split(".")[0] == "bohmatom"} == expected, args
        if exit_code == 2:
            assert "click" in modules, args
        else:
            assert not {m for m in modules if m.split(".")[0] in ("click", "dataclasses", "inspect")}, args
        if "--help" in args:
            assert result.stdout.startswith("Usage: python -m bohmatom.cli "), args
        elif args[0] == "dilate" and exit_code == 0:
            assert json.loads(out.read_text(encoding="utf-8"))["mean_gamma"] > 1.0
        elif args[0] in ("trajectory", "field") and exit_code == 0:
            assert out.stat().st_size > 0
        elif args[0] == "state" and exit_code == 0:
            assert json.loads(result.stdout)["command"] == "state"


def test_well_formed_commands_import_neither_typing_nor_json(tmp_path):
    # -S leaves out site, whose .pth files may import both modules before the program starts. Every JSON
    # file, a trajectory's CSV summary too, is written without the json module.
    out = str(tmp_path / "out")
    schrodinger = ["--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1"]
    runs = [
        ["state"],
        ["state", *schrodinger, "--out", out],
        ["dilate", "--rest-lifetime", "2e-6", "--out", out],
        ["trajectory", "--steps", "10", "--out", out],
        ["trajectory", *schrodinger, "--theta", "1", "--steps", "10", "--format", "json", "--out", out],
        ["field", "--out", out],
        ["field", *schrodinger, "--format", "json", "--out", out],
    ]
    for args in runs:
        result, modules = run_cold(args, "-S")
        assert result.returncode == 0, (args, result.stderr)
        assert not modules & {"typing", "json"}, args


def test_phi_independent_columns_hold_one_value_per_ring(tmp_path):
    # Both flows rotate rigidly about z: j0, j3 and speed hold one bit pattern per (r, theta) ring, in a
    # CSV and a JSON table each read back with nothing but the csv and json modules.
    grid = ["--r-count", "3", "--theta-count", "24", "--phi-count", "24"]
    runs = {
        "ring.csv": ["field", "--model", "dirac", "--Z", "80", *grid],
        "ring.json": ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1", *grid, "--format", "json"],
    }
    for name, args in runs.items():
        command = [sys.executable, "-m", "bohmatom.cli", *args, "--out", name]
        assert subprocess.run(command, env=_SUBPROCESS_ENV, cwd=tmp_path).returncode == 0, name
    with open(tmp_path / "ring.csv", newline="") as fh:
        _, *csv_rows = csv.reader(line for line in fh if not line.startswith("#"))
    with open(tmp_path / "ring.json") as fh:
        tables = {"ring.csv": [list(map(float, row)) for row in csv_rows], "ring.json": json.load(fh)["rows"]}
    for name, rows in tables.items():
        assert len(rows) == 3 * 24 * 24, name
        for column in (3, 6, 10):  # j0, j3, speed
            rings = {}
            for row in rows:
                rings.setdefault((row[0], row[1]), set()).add(row[column].hex())
            assert len(rings) == 3 * 24 and all(len(v) == 1 for v in rings.values()), (name, column)


_SCHRODINGER_211 = ["--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1"]


@pytest.mark.parametrize(
    "args, written",
    [
        (["field", "--format", "json", "--out", "{out}"], "out"),
        (["field", *_SCHRODINGER_211, "--format", "json", "--out", "{out}"], "out"),
        (["trajectory", "--steps", "1000", "--format", "json", "--out", "{out}"], "out"),
        (["trajectory", "--steps", "1000", "--out", "{out}"], "out.summary.json"),
        (["dilate", "--rest-lifetime", "2.196981e-6", "--out", "{out}"], "out"),
        (["state", *_SCHRODINGER_211, "--out", "{out}"], "out"),
        (["state", *_SCHRODINGER_211], None),
    ],
    ids=["field-dirac", "field-schrodinger", "trajectory", "trajectory-summary", "dilate", "state-out", "state-stdout"],
)
def test_json_outputs_are_the_text_json_dumps_gives(runner, tmp_path, args, written):
    # No command imports json: each JSON file, and the state document on stdout, is the text
    # json.dumps(indent=2) gives for its own values.
    result = invoke(runner, [str(tmp_path / "out") if a == "{out}" else a for a in args])
    assert result.exit_code == 0
    text = result.stdout if written is None else (tmp_path / written).read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


# The program's entry ends each process with os._exit: its exit code, stdout, stderr and files are those of main().
_EXIT_PATHS = {
    "success": (["dilate", "--rest-lifetime", "2e-6", "--out", "{out}"], 0),
    "usage-error": (["field", "--r-count", "0", "--out", "{out}"], 2),
    "fail": (["state", "--mass", "1e300"], 1),
    "aborted-trajectory": (["trajectory", "--r", "1e-10", "--steps", "3", "--out", "{out}"], 1),
    "state-to-stdout": (["state", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", "1"], 0),
    "dirac-state-to-stdout": (["state"], 0),
    "repeated-flag": (["dilate", "--rest-lifetime", "-1", "--rest-lifetime", "2e-6", "--out", "{out}"], 0),
    "negative-radius": (["state", "--r", "-1"], 2),
    "negative-radius-with-equals": (["state", "--r=-1"], 2),
    "spin-with-schrodinger": (["state", "--model", "schrodinger", "--spin", "up"], 2),
    "zero-step": (["trajectory", "--dt", "0", "--out", "{out}"], 2),
    "directory-out": (["dilate", "--rest-lifetime", "2e-6", "--out", "{dir}"], 2),
    "failed-write": (["trajectory", "--steps", "10", "--out", "{missing}"], 1),
    "help": (["--help"], 0),
    "command-help": (["trajectory", "--help"], 0),
    "two-process-table": (["trajectory", "--steps", "3000", "--format", "json", "--out", "{out}"], 0),
    # A FIFO is written in place by one process; it must receive the bytes a regular file gets in two.
    "fifo-field-csv": (["field", "--r-count", "40", "--out", "{fifo}"], 0),
    "fifo-field-json": (["field", "--r-count", "40", "--format", "json", "--out", "{fifo}"], 0),
    "fifo-two-process-table": (["trajectory", "--steps", "3000", "--format", "json", "--out", "{fifo}"], 0),
    "fifo-orbit-json": (["trajectory", "--steps", "10000", "--format", "json", "--out", "{fifo}"], 0),
    "fifo-schrodinger-field-json": (
        ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1", "--r-count", "30", "--theta-count", "30",
         "--phi-count", "30", "--format", "json", "--out", "{fifo}"], 0
    ),
    # r_count == phi_count: a column of one value per (r, theta) is as long as one of one value per angle pair
    "fifo-schrodinger-square-json": (
        ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1", "--r-count", "24", "--theta-count", "5",
         "--phi-count", "24", "--format", "json", "--out", "{fifo}"], 0
    ),
    # A field fails before its output is opened: A(r) leaves the float range, or the grid does not fit in memory.
    "field-amplitude-overflow": (["field", "--mass", "1e300", "--out", "{out}"], 1),
    "field-beyond-memory": (
        ["field", "--r-count", "1000000", "--theta-count", "1000000", "--phi-count", "100000", "--out", "{out}"], 1
    ),
    # The table, the JSON text and the scaling table fail before the output is opened.
    "trajectory-end-time-overflow": (["trajectory", "--dt", "1e308", "--steps", "10", "--out", "{out}"], 1),
    "dilate-not-finite": (["dilate", "--rest-lifetime", "1.7e308", "--Z", "92", "--out", "{out}"], 1),
    "dilate-coupling-underflow": (
        ["dilate", "--rest-lifetime", "2e-6", "--alpha-scale", "1e-200", "--out", "{out}"], 1
    ),
    "dilate-scaled-atom": (["dilate", "--rest-lifetime", "2e-6", "--mass", "1e-305", "--out", "{out}"], 1),
}


#: main() in a fresh interpreter that exits the usual way, tearing itself down.
_MAIN_WITH_TEARDOWN = (
    "import sys; from bohmatom.cli import main; main(sys.argv[1:], prog_name='python -m bohmatom.cli')"
)


def read_fifo(path, run):
    """run()'s result and the bytes it wrote into a new FIFO at path, read by a thread; the FIFO is
    removed after."""
    os.mkfifo(path)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(read_bytes(path)))
    reader.start()
    try:
        result = run()
    finally:
        while reader.is_alive():  # where the run never opened the FIFO, an empty writer ends the read
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(0.1)
        path.unlink()
    return result, chunks[0]


@pytest.mark.parametrize("args, exit_code", _EXIT_PATHS.values(), ids=_EXIT_PATHS.keys())
def test_program_exit_matches_main(tmp_path, args, exit_code):
    out = tmp_path / "out"
    fifo = "{fifo}" in args
    paths = {"{out}": str(out), "{fifo}": str(out), "{dir}": str(tmp_path), "{missing}": str(tmp_path / "no" / "x")}
    args = [paths.get(a, a) for a in args]
    env = {k: v for k, v in _SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}  # stdout as a pipe buffers it
    ends = []
    for entry in (["-m", "bohmatom.cli"], ["-c", _MAIN_WITH_TEARDOWN]):
        def run():
            return subprocess.run([sys.executable, *entry, *args], env=env, capture_output=True, text=True, timeout=120)

        result, piped = read_fifo(out, run) if fifo else (run(), None)
        files = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        ends.append((result.returncode, result.stdout, result.stderr, files, piped))
        for path in tmp_path.iterdir():
            path.unlink()
    assert ends[0][0] == exit_code
    assert ends[0] == ends[1]
    # A field or dilate that exits 1 failed before its output was opened: no file, .tmp or .back.
    if args[0] in ("field", "dilate") and exit_code == 1:
        assert ends[0][3] == []
    if fifo:  # the same command into a regular file writes the same bytes
        assert subprocess.run([sys.executable, "-m", "bohmatom.cli", *args], env=env).returncode == 0
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert out.read_bytes() == ends[0][4]


#: Runs whose stdout cannot be written, with the exit code each ends with: /dev/full fails every write,
#: and a stdout closed before the program starts is None. A help page then goes nowhere, as in click.
_STDOUT_FAILURES = {
    "state-to-a-full-device": (["state"], "full", 1),
    "help-to-a-full-device": (["--help"], "full", 1),
    "command-help-to-a-full-device": (["trajectory", "--help"], "full", 1),
    "state-to-a-closed-stdout": (["state"], "closed", 1),
    "help-to-a-closed-stdout": (["--help"], "closed", 0),
}


@pytest.mark.parametrize("args, stdout, exit_code", _STDOUT_FAILURES.values(), ids=_STDOUT_FAILURES.keys())
def test_a_failed_stdout_ends_in_one_line(args, stdout, exit_code):
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full device")
    env = {k: v for k, v in _SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    ends = []
    for entry in (["-m", "bohmatom.cli"], ["-c", _MAIN_WITH_TEARDOWN]):
        argv = [sys.executable, *entry, *args]
        if stdout == "full":
            with open("/dev/full", "w") as full:
                result = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        else:
            closed = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
            result = subprocess.run(closed, env=env, stderr=subprocess.PIPE, text=True)
        ends.append((result.returncode, result.stderr))
    strerror = os.strerror(errno.ENOSPC if stdout == "full" else errno.EBADF)
    assert ends[0] == ends[1]
    assert ends[0] == (exit_code, f"error: cannot write stdout: {strerror}\n" if exit_code else "")


def test_state_into_a_closed_pipe_exits_1_silently():
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "bohmatom.cli", "state"], env=_SUBPROCESS_ENV, stdout=write_fd,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_fd)
    assert (result.returncode, result.stderr) == (1, b"")


def test_profiled_run_writes_its_profile(tmp_path):
    # A profiler writes its file at the interpreter's own exit, which the program then takes.
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", "p.prof", "-m", "bohmatom.cli",
         "dilate", "--rest-lifetime", "2e-6", "--out", "x.json"],
        env=_SUBPROCESS_ENV, cwd=tmp_path, capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "make_report" in str(pstats.Stats(str(tmp_path / "p.prof")).stats)


#: COLUMNS values: unset, every value from 1 to 81 (click's width is COLUMNS - 2, clamped to 50-78, so
#: these hold every width it can take), one far above 80, and values that are no positive integer.
_COLUMNS = [None, *map(str, range(1, 82)), "120", "0", "abc"]
_PROGRAM_NAMES = ["bohmatom", "python -m bohmatom.cli", "-c"]
_HELP_REQUESTS = [["--help"], *([name, "--help"] for name in cli._COMMANDS)]


def click_prints(group, args, prog_name):
    """The exit code and stdout of the group's main(args) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = group.main(args, prog_name=prog_name, standalone_mode=False)
    return code, out.getvalue()


@pytest.mark.parametrize("columns", _COLUMNS, ids=lambda columns: f"COLUMNS={columns}")
def test_help_pages_are_the_ones_click_renders(monkeypatch, capsys, columns):
    # click renders the reference pages from the same declarations; the direct route and the click
    # group print usage.page's instead, under the program name that click detects.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    reference = click_group(cli)
    main_modules = {  # the __main__ module's package and sys.argv[0] of each way to run the program
        "bohmatom": (None, "/usr/local/bin/bohmatom"),
        "python -m bohmatom.cli": ("bohmatom", cli.__file__),
        "-c": (None, "-c"),
    }
    for prog in _PROGRAM_NAMES:
        for args in [*_HELP_REQUESTS, ["field", "--Z=3", "--help"], ["--help", "field"]]:
            expected = click_prints(reference, args, prog)
            assert expected[0] == 0 and expected[1].startswith(f"Usage: {prog} "), (prog, args)
            assert click_prints(main, args, prog) == expected, (prog, args)
            if args not in _HELP_REQUESTS:
                continue
            command = args[0] if len(args) == 2 else None
            assert usage.page(cli, prog if command is None else f"{prog} {command}", command) + "\n" == expected[1]
            package, argv0 = main_modules[prog]
            with monkeypatch.context() as program:
                program.setitem(sys.modules, "__main__", SimpleNamespace(__package__=package))
                program.setattr(sys, "argv", [argv0, *args])
                cli._main()
            assert capsys.readouterr() == (expected[1], ""), (prog, args)


@pytest.mark.parametrize("columns", [None, "52", "abc"], ids=lambda columns: f"COLUMNS={columns}")
def test_each_way_to_run_the_program_prints_clicks_help(monkeypatch, tmp_path, columns):
    # Run as a module, as an installed script and with -c, the program names itself as click does.
    script = tmp_path / "bohmatom"
    script.write_text("from bohmatom.cli import run\nrun()\n", encoding="utf-8")
    entries = {
        "python -m bohmatom.cli": ["-m", "bohmatom.cli"],
        "bohmatom": [str(script)],
        "-c": ["-c", "from bohmatom.cli import run; run()"],
    }
    env = {k: v for k, v in _SUBPROCESS_ENV.items() if k != "COLUMNS"}
    if columns is not None:
        env["COLUMNS"] = columns
    # stdout is a pipe: where COLUMNS is unset or no positive integer, the width is that of 80 columns
    monkeypatch.setenv("COLUMNS", "52" if columns == "52" else "80")
    reference = click_group(cli)
    for prog, entry in entries.items():
        for args in _HELP_REQUESTS:
            result = subprocess.run([sys.executable, *entry, *args], env=env, capture_output=True, text=True)
            expected = click_prints(reference, args, prog)[1]
            assert (result.returncode, result.stdout, result.stderr) == (0, expected, ""), (prog, args)


@pytest.mark.parametrize("words", [[], ["field"], ["dilate"], ["state", "--model", "dirac"]])
def test_shell_completion_describes_what_click_describes(words):
    # zsh and fish show each command's short help and each option's help beside it.
    from click.shell_completion import ZshComplete

    def items(group):
        completion = ZshComplete(group, {}, "bohmatom", "_BOHMATOM_COMPLETE")
        return [(item.value, item.help) for item in completion.get_completions(words, "--" if words else "")]

    assert items(main) == items(click_group(cli))
    assert any(help_text for _, help_text in items(main))


def test_program_exit_runs_the_atexit_handlers():
    code = (
        "import atexit, sys; from bohmatom.cli import run; atexit.register(print, 'bye'); "
        "sys.argv[1:] = ['--help']; run()"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_SUBPROCESS_ENV, capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("Usage: ")
    assert result.stdout.endswith("  trajectory  Integrate dx/dt = v(x) with fixed-step RK4 from a starting...\nbye\n")


#: Option values by type: ones click converts (' 7', '1_0' and the Arabic-Indic '٣' are ints, 'nan' a
#: float) and ones it rejects ('UP' is not a choice, '.' is a directory); any may go to any flag.
_PARSER_VALUES = {
    int: [" 7", "1_0", "٣", "-1", "2", "1.5"],
    float: [" 7", "1_0", "٣", "nan", "-1", "0.5", "1e-3", "abc"],
    cli._PATH: ["x.csv", "", ".", "--help", "--"],
}
_CHOICE_VALUES = ["UP", "Dirac", "--help"]
_ANY_VALUE = st.sampled_from(sorted({v for values in _PARSER_VALUES.values() for v in values} | {*_CHOICE_VALUES}))


@st.composite
def _argvs(draw):
    """A command and flags for it: mostly --flag value pairs, with its required flags most of the time,
    and now and then --flag=value, a repeated or unknown flag or a lone token such as --help or --."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][1]

    def values(kind):
        typed = list(kind) + _CHOICE_VALUES if isinstance(kind, tuple) else _PARSER_VALUES[kind]
        return st.one_of(st.sampled_from(typed), st.sampled_from(typed), _ANY_VALUE)

    pair = st.sampled_from(options).flatmap(lambda o: values(o[2]).map(lambda value: [o[0], value]))
    joined = pair.map(lambda pair: ["=".join(pair)])
    lone = st.sampled_from(["--help", "--", "--out", "--nope", "x"]).map(lambda token: [token])
    pieces = draw(st.lists(st.one_of(pair, pair, pair, pair, pair, pair, joined, lone), max_size=5))
    if draw(st.integers(0, 9)):
        pieces += [draw(values(o[2]).map(lambda value: [o[0], value])) for o in options if o[4]]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _typed(params):
    """The parameters with their types and reprs, so that nan equals nan and 1 differs from 1.0."""
    return {name: (type(value), repr(value)) for name, value in params.items()}


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_direct_parser_declines_or_agrees_with_click(argv):
    call = cli._parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # a --help prints its page
            params = main.commands[argv[0]].make_context(argv[0], argv[1:]).params
    except (click.exceptions.ClickException, click.exceptions.Exit):
        params = None
    if call is None:
        # Declined: click parses it. An argv of --flag value pairs that click takes is never declined.
        known = {option[0] for option in cli._COMMANDS[argv[0]][1]}
        assert params is None or len(argv) % 2 == 0 or not set(argv[1::2]) <= known, argv
    else:
        body, direct = call
        assert params is not None, argv
        assert body is cli._COMMANDS[argv[0]][0]
        assert _typed(direct) == _typed(params), argv


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, EOFError, BrokenPipeError])
def test_direct_run_ends_an_interrupt_as_click_does(monkeypatch, capsys, interrupt):
    def body(**params):
        raise interrupt(32, "Broken pipe") if interrupt is BrokenPipeError else interrupt()

    monkeypatch.setattr(cli, "_COMMANDS", {"state": (body, ())})
    monkeypatch.setattr(sys, "argv", ["bohmatom", "state"])
    ends = []
    for run in (cli._main, lambda: click.Command("state", callback=body).main([])):
        with monkeypatch.context() as streams:  # a broken pipe wraps both streams
            streams.setattr(sys, "stdout", sys.stdout)
            streams.setattr(sys, "stderr", sys.stderr)
            with pytest.raises(SystemExit) as exit_:
                run()
        ends.append((exit_.value.code, capsys.readouterr()))
    assert ends[0] == ends[1]
    assert ends[0][0] == 1

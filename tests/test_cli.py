import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bohmatom
from bohmatom import (
    FINE_STRUCTURE,
    QuantumNumbers,
    SphericalPoint,
    SpinOrientation,
    bohm_momentum,
    bohm_velocity,
    dirac_current,
    dirac_ground_state,
    hydrogen_wavefunction,
    make_atom,
    vector_to_cartesian,
)
from bohmatom.cli import main


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
            current = dirac_current(dirac_ground_state(SpinOrientation.UP, atom, point))
            # parsed text reproduces the computed values exactly
            assert row[3:7] == current.tolist()

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
            current = dirac_current(dirac_ground_state(spin_o, atom, point))
            velocity = bohm_velocity(spin_o, atom, point)
            assert row[3:7] == current.tolist()
            assert row[7:10] == velocity.tolist()

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
            amplitude = abs(hydrogen_wavefunction(q, atom, point))  # hypot from libm
            density = amplitude * amplitude
            velocity = vector_to_cartesian(point, bohm_momentum(q, atom, point) / atom.mass)
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
        start = SphericalPoint(atom.bohr_radius, math.pi / 2.0, 0.0).to_cartesian()
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


def test_written_file_replaces_the_existing_one(runner, tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("previous contents\n", encoding="utf-8")
    assert invoke(runner, FIELD_ARGS + ["--out", str(out)]).exit_code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3 * 5 * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


_LOADED_AFTER_MAIN = """
import runpy, sys
code = 0
try:
    runpy.run_module("bohmatom.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
print(code, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""

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
    # No command loads numpy: --help, dilate, field, trajectory and state run without it.
    out = tmp_path / "out"
    runs = [(["--help"], 0), (["dilate", "--rest-lifetime", "2e-6", "--out", str(out)], 0)]
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
        result = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER_MAIN, *args], env=_SUBPROCESS_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == f"{exit_code} []", (args, result.stderr)
        if args[0] == "dilate":
            assert json.loads(out.read_text(encoding="utf-8"))["mean_gamma"] > 1.0
        elif args[0] in ("trajectory", "field") and exit_code == 0:
            assert out.stat().st_size > 0
        elif args[0] == "state" and exit_code == 0:
            assert json.loads(result.stdout.rpartition("\n}\n")[0] + "}")["command"] == "state"

"""Tests of the benchmark at tiny size: the output schema, call counts that
repeat between traced runs, and that a wrong output counts as failed."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _units(result: dict) -> dict[str, str]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert PER_LAYER == {name: unit for name, (unit, _) in run.metric_units().items()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_schema(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)
    result = run.timed_run(workload, seed=5, seconds=0, size=wl.TINY)
    assert _units(result) == END_TO_END
    assert result["correct"] is True
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Only `dilate --Z 136`, one per sweep round, may fail.
    assert result["failed"] <= (1 if workload == "sweep" else 0)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat(workload):
    first = run.traced_run(workload, seed=7, size=wl.TINY, import_samples=1)
    second = run.traced_run(workload, seed=7, size=wl.TINY, import_samples=1)
    assert _units(first) == PER_LAYER
    assert first["correct"] is True
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    called = {
        "field": "schrodinger_states.hydrogen_wavefunction.calls",
        "orbit": "trajectory_engine.field_evals",
        "sweep": "dilation.mean_lorentz_factor.calls",
    }[workload]
    assert first["metrics"][called]["value"] > 0


def _scale_column(path: Path, column: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[column] = repr(float(cells[column]) * 1.001)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scale_mean_gamma(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["mean_gamma"] *= 1.001
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "workload, slot, corrupt",
    [
        ("field", "field.dirac", lambda p: _scale_column(p, wl.FIELD_COLUMNS.index("speed"))),
        ("orbit", "orbit.up", lambda p: _scale_column(p, wl.TRAJECTORY_COLUMNS.index("x"))),
        ("sweep", "dilate.scale0.5", _scale_mean_gamma),
    ],
)
def test_wrong_output_counts_as_failed(workload, slot, corrupt, tmp_path):
    op = next(op for op in wl.make_round(workload, 3, 0, wl.TINY) if op.slot == slot)
    _, tally = run.in_process([op], tmp_path, None)
    assert (tally.attempted, tally.failed) == (1, 0)

    path = tmp_path / op.out
    corrupt(path)
    wrong = run.Tally()
    assert not wrong.add(op, path, 0, "")
    assert (wrong.failed, wrong.wrong) == (1, 1)
    assert wrong.result({})["correct"] is False

    crashed = run.Tally()
    assert not crashed.add(op, path, 0, "Traceback (most recent call last):\n")
    assert (crashed.failed, crashed.wrong) == (1, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "field", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

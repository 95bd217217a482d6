"""Benchmark of the bohmatom command-line interface.

    python3 bench/run.py --workload {field,orbit,sweep} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout: the CLI is started from the checkout's
``src`` directory. With ``--trace 0`` the benchmark runs whole rounds of the
workload's CLI invocations, each in its own ``python -m bohmatom.cli``
process, one at a time, until ``--seconds`` have passed, checks every output,
and reports the end-to-end metrics:

    wall_s       median wall time of one round, slot by slot, checks excluded
    setup_s      median cold start of the CLI to a finished --help
    peak_rss_mb  highest resident set size among the workload's CLI processes

With ``--trace 1`` it runs round 0 of the workload in-process twice, once
plain and once under the tracer, and reports the per-layer metrics, the
import times from ``python -X importtime`` and the tracing overhead. That run
does a fixed amount of work, so its call counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import astuple, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

from tracer import CLI_SPAN, Tracer, metric_units  # noqa: E402
from workloads import FULL, WORKLOADS, CheckFailed, Op, Size, make_round  # noqa: E402

#: Cold starts before the first round; one more precedes every round.
SETUP_SAMPLES = 2
#: `python -X importtime` runs per traced run; the median is reported.
IMPORT_SAMPLES = 3

_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@dataclass
class Tally:
    """Operations attempted and failed, and output checks that failed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rows: int = 0

    def add(self, op: Op, path: Path, code: int, stderr: str) -> bool:
        """Count one operation; it fails on a non-zero exit, a traceback or a wrong output."""
        self.attempted += 1
        ok = code == 0 and "Traceback (most recent call last)" not in stderr
        if ok:
            try:
                self.rows += op.check(path)
            except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                print(f"{op.slot}: wrong output: {exc}", file=sys.stderr)
                self.wrong += 1
                ok = False
        else:
            print(f"{op.slot}: exit {code}: {(stderr.strip().splitlines() or [''])[-1]}", file=sys.stderr)
        self.failed += not ok
        return ok

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


@contextmanager
def _workdir(workload: str):
    RUNS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _cli_args(op: Op, work: Path) -> list[str]:
    return [*op.args, "--out", str(work / op.out)]


# ---------------------------------------------------------------- untraced, one process per operation


def spawn(args: list[str], work: Path) -> tuple[float, float, int, str]:
    """Run `python -m bohmatom.cli ARGS`; return wall s, peak RSS MB, exit code and stderr."""
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bohmatom.cli", *args],
            cwd=work, env=_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def cold_start(work: Path) -> float:
    wall, _, code, stderr = spawn(["--help"], work)
    if code != 0:
        raise SystemExit(f"error: `bohmatom --help` exited {code}:\n{stderr}")
    return wall


def timed_run(workload: str, seed: int, seconds: float, size: Size = FULL) -> dict:
    tally = Tally()
    walls: dict[str, list[float]] = defaultdict(list)
    peak_rss = 0.0
    with _workdir(workload) as work:
        setup = [cold_start(work) for _ in range(SETUP_SAMPLES)]
        began = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - began < seconds:
            setup.append(cold_start(work))
            for op in make_round(workload, seed, index, size):
                wall, rss, code, stderr = spawn(_cli_args(op, work), work)
                walls[op.slot].append(wall)
                peak_rss = max(peak_rss, rss)
                tally.add(op, work / op.out, code, stderr)
            index += 1
    for slot, values in walls.items():
        print(f"{slot}: median {statistics.median(values):.4f} s over {len(values)} runs")
    print(f"{workload}: {index} rounds, {tally.attempted} operations, {tally.failed} failed")
    return tally.result(
        {
            "wall_s": (sum(statistics.median(v) for v in walls.values()), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    )


# ---------------------------------------------------------------- traced, in-process


def import_times(samples: int = IMPORT_SAMPLES) -> dict[str, float]:
    """Median import times of bohmatom.cli and of scipy.special, from `python -X importtime`."""
    cli_s, special_s = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bohmatom.cli"],
            env=_ENV, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: importing bohmatom.cli failed:\n{proc.stderr}")
        top, special = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            cumulative = int(parts[1])
            if not name.startswith(" ") and name.startswith("bohmatom"):
                top += cumulative
            if name.strip() == "scipy.special" and not special:
                special = cumulative
        cli_s.append(top * 1e-6)
        special_s.append(special * 1e-6)
    return {"import.bohmatom_cli_s": statistics.median(cli_s), "import.scipy_special_s": statistics.median(special_s)}


def _clear_caches(package: list) -> None:
    """Each CLI call starts in a fresh process; drop the package's function caches to match."""
    for module in package:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def in_process(ops: list[Op], work: Path, tracer: Tracer | None) -> tuple[float, Tally]:
    """Run one round through bohmatom.cli.main in this process; return its wall time and tally."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import click
    from bohmatom import cli

    package = [m for name, m in sys.modules.items() if name.startswith("bohmatom")]
    tally = Tally()
    total = 0.0
    for op in ops:
        _clear_caches(package)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            began = time.perf_counter()
            try:
                with tracer.span(CLI_SPAN) if tracer else nullcontext():
                    cli.main.main(args=_cli_args(op, work), prog_name="bohmatom", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except Exception:
                traceback.print_exc()
                code = 1
            total += time.perf_counter() - began
        tally.add(op, work / op.out, code, err.getvalue())
    return total, tally


def traced_run(workload: str, seed: int, size: Size = FULL, import_samples: int = IMPORT_SAMPLES) -> dict:
    imports = import_times(import_samples)
    ops = make_round(workload, seed, 0, size)
    tracer = Tracer()
    with _workdir(workload) as work:
        in_process(ops, work, None)  # warm-up: first calls pay for lazy imports and cold caches
        plain_wall, plain = in_process(ops, work, None)
        with tracer.installed():
            traced_wall, traced = in_process(ops, work, tracer)
    RUNS.mkdir(exist_ok=True)
    tracer.write(RUNS / f"trace-{workload}-{seed}.npz")

    values = {**imports, **tracer.metrics(traced.rows), "trace.overhead_s": traced_wall - plain_wall}
    print(f"{workload}: traced {traced_wall:.4f} s, untraced {plain_wall:.4f} s, {len(tracer.start)} spans")
    combined = Tally(*(a + b for a, b in zip(astuple(plain), astuple(traced))))
    return combined.result({name: (values[name], unit) for name, (unit, _) in metric_units().items()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bohmatom CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bohmatom" / "cli.py").is_file():
        print(f"error: {SRC / 'bohmatom' / 'cli.py'} not found; run the benchmark inside a checkout", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

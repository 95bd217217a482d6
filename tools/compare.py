"""Byte comparison of the program at two revisions: python tools/compare.py BASE [HEAD]

BASE and HEAD are git revisions of this repository. Each is checked out with `git archive` into a
temporary directory; where HEAD is not given, the working tree itself stands in its place. Every case
runs `python -m bohmatom.cli ARGS`, under the interpreter that runs this script, with the checkout's src
on PYTHONPATH, each in a fresh empty directory and in a session of its own. The cases are:

- each command on both Dirac spins and two Schrodinger states, in both formats;
- field and trajectory tables over products of models, grid shapes, step counts and formats, and edge
  cases, each into a regular file, a FIFO and /dev/null; and 4 into a missing directory;
- `state` on 30 colatitudes at phi = 0 and 19 azimuths on the equator, for the Dirac ground state at
  four Z and five Schrodinger states at two;
- the argv of tests/test_cli.py's _EXIT_PATHS and _COLD_* lists, read from the working tree's file;
- the two-process tables, large enough to be written half by a forked child, into files, and the three
  JSON ones also into a pipe;
- every help request at COLUMNS unset, 52 and 80;
- usage errors.

"{fifo}" in an argv names a FIFO made in the case's directory, which a thread reads. Each table into a
regular file, and each two-process table into a pipe, also runs a second time in HEAD with the CLI
confined to one CPU (set by os.sched_setaffinity before the exec), and is compared with BASE's
unconfined run.

A case is identical where its exit code, stdout, stderr, the name and bytes of every file it leaves
behind and the bytes its FIFO received are, once the paths of its directory and of the checkout read as
<dir> and <tree>. Whatever BASE does, a HEAD run also fails where it runs past TIMEOUT seconds, where a
process of its session is still running once it has exited, or where it leaves a file whose name holds
".tmp" or ends in ".back"; the session is then killed and the next case runs. Each differing or failed
run is printed as one line on stderr, and a one-line JSON summary on stdout; the exit status is 1 where
any run differs or fails. Only the standard library is needed.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
TIMEOUT = 300
FIFO = "{fifo}"
FIELDS = ("exit code", "stdout", "stderr", "files", "FIFO bytes")
COMMANDS = ("field", "trajectory", "dilate", "state")
FORMATS = {"csv": [], "json": ["--format", "json"]}


def schrodinger(n: int, l: int, m: int) -> list[str]:
    return ["--model", "schrodinger", "--n", str(n), "--l", str(l), "--m", str(m)]


def shape(r: int, theta: int, phi: int) -> list[str]:
    return ["--r-count", str(r), "--theta-count", str(theta), "--phi-count", str(phi)]


DIRAC_UP = ["--model", "dirac", "--spin", "up"]
DIRAC_DOWN = ["--model", "dirac", "--spin", "down"]
SCHRODINGER_321 = schrodinger(3, 2, 1)
#: Each command runs on these.
MODELS = {"dirac-up": DIRAC_UP, "dirac-down": DIRAC_DOWN, "schrodinger-211": schrodinger(2, 1, 1),
          "schrodinger-321": SCHRODINGER_321}
GRID = shape(30, 30, 30)
SQUARE = shape(24, 5, 24)  # r_count == phi_count: a column of one value per (r, theta) is as long as one per angle pair

#: Field tables: these models on the default grid and on each shape, in each format.
FIELD_MODELS = {"dirac-up": DIRAC_UP, "dirac-down-Z80": [*DIRAC_DOWN, "--Z", "80"], "schrodinger-321": SCHRODINGER_321,
                "schrodinger-32-1": schrodinger(3, 2, -1), "schrodinger-310": schrodinger(3, 1, 0)}
#: Single-row axes, pieces of one row, the smallest split table (2048 rows) and its neighbours, and r_count ==
#: phi_count.
FIELD_SHAPES = {"default": [], **{"x".join(map(str, s)): shape(*s) for s in (
    (1, 1, 1), (1, 1, 5), (1, 5, 1), (5, 1, 1), (2, 3, 4), (8, 3, 8), (24, 5, 24), (3, 24, 3), (30, 30, 30),
    (2047, 1, 1), (2048, 1, 1), (2049, 1, 1), (3, 683, 1), (1, 64, 32), (2, 32, 32), (40, 7, 8),
)}}
#: Trajectory tables: these models at each step count (blocks of 1024 rows, a split from 2048), in each format.
TRAJECTORY_MODELS = {"dirac-up": DIRAC_UP, "dirac-down": DIRAC_DOWN, "schrodinger-211": schrodinger(2, 1, 1)}
STEPS = (0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 10000)
EDGE_TABLES = {
    "origin-guard": ["trajectory", "--r", "1e-10", "--steps", "3"],
    "origin-guard-json": ["trajectory", "--r", "1e-10", "--steps", "3", "--format", "json"],
    "trajectory-3000-json": ["trajectory", "--steps", "3000", "--format", "json"],
    "schrodinger-210-3000": ["trajectory", *schrodinger(2, 1, 0), "--steps", "3000"],
    "amplitude-overflow": ["field", "--mass", "1e300"],
    "amplitude-overflow-json": ["field", "--mass", "1e300", "--format", "json"],
    "field-beyond-memory": ["field", *shape(1000000, 1000000, 100000)],
    "r-count-0": ["field", "--r-count", "0"],
    "schrodinger-211-theta-count-1": ["field", *schrodinger(2, 1, 1), "--theta-count", "1"],
    "radii-to-1e308": ["field", "--r-max", "1e308"],
    "radii-1e-300-to-1e300": ["field", "--r-min", "1e-300", "--r-max", "1e300"],
    "laguerre-limit": ["field", *schrodinger(25002, 1, 1)],
    "r-count-40": ["field", "--r-count", "40"],
    "r-count-40-json": ["field", "--r-count", "40", "--format", "json"],
    "dt-0": ["trajectory", "--dt", "0"],
}
#: Tables whose --out is in a directory that does not exist.
MISSING_DIRECTORY = {
    "orbit": ["trajectory", "--steps", "10", "--out", "no/orbit.csv"],
    "field": ["field", "--out", "no/field.csv"],
    "field-json": ["field", "--format", "json", "--out", "no/field.json"],
    "orbit-3000-json": ["trajectory", "--steps", "3000", "--format", "json", "--out", "no/orbit.json"],
}

#: `state` points: colatitudes from pole to pole at phi = 0, and azimuths round the equator.
STATE_POINTS = [["--theta", repr(math.pi * k / 29), "--phi", "0.0"] for k in range(30)]
STATE_POINTS += [["--theta", repr(math.pi / 2), "--phi", repr(2 * math.pi * k / 18)] for k in range(19)]
STATE_MODELS = {f"dirac-Z{z}": ["--Z", str(z)] for z in (1, 30, 80, 92)}
STATE_MODELS.update({
    f"schrodinger-{n}{l}{m}-Z{z}": [*schrodinger(n, l, m), "--Z", str(z)]
    for n, l, m in ((3, 2, 1), (2, 1, -1), (4, 3, 3), (3, 2, -2), (3, 1, 0)) for z in (1, 30)
})

#: Tables large enough to be written half by a forked child, by name.
TWO_PROCESS_TABLES = {
    "orbit": ["trajectory", "--steps", "10000"],
    "orbit-json": ["trajectory", "--steps", "10000", "--format", "json"],
    "field": ["field", *GRID],
    "field-json": ["field", *SCHRODINGER_321, *GRID, "--format", "json"],
    # each slab is filled by the process that writes it: both models' fills run in the child too
    "field-m0": ["field", *schrodinger(3, 1, 0), *GRID],
    "field-dirac-json": ["field", *GRID, "--format", "json"],
    "field-square": ["field", *SQUARE],
    "field-square-json": ["field", *SCHRODINGER_321, *SQUARE, "--format", "json"],
    "orbit-2048": ["trajectory", "--steps", "2047"],  # 2048 rows: the smallest table that is split
}
USAGE_ERRORS = [
    [],
    ["nonsense"],
    ["field"],
    ["field", "--out"],
    ["field", "--bogus", "1", "--out", "x"],
    ["field", "--r-count", "0", "--out", "x"],
    ["field", "--r-count", "x", "--out", "x"],
    ["field", "--model", "pauli", "--out", "x"],
    ["field", "--format", "xml", "--out", "x"],
    ["field", "--model", "schrodinger", "--n", "1", "--l", "1", "--out", "x"],
    ["trajectory", "--steps", "-1", "--out", "x"],
    ["trajectory", "--spin", "up", "--model", "schrodinger", "--out", "x"],
    ["dilate", "--out", "x"],
    ["dilate", "--rest-lifetime", "0", "--out", "x"],
    ["state", "--Z", "0"],
    ["state", "--theta", "nan"],
    ["state", "--", "--r"],
]


class Case(NamedTuple):
    args: list[str]
    columns: str | None = None  # COLUMNS, unset where None
    one_cpu: bool = False  # HEAD also runs it confined to one CPU


def tested_argv() -> dict[str, list[str]]:
    """The argv of _EXIT_PATHS and the _COLD_* lists in tests/test_cli.py, as its run tests give them."""
    wanted = {"_SCHRODINGER_START", "_COLD_TRAJECTORIES", "_COLD_STATES", "_COLD_FIELDS", "_EXIT_PATHS"}
    path = REPO / "tests" / "test_cli.py"
    namespace: dict = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & wanted:
            exec(compile(ast.Module([node], []), str(path), "exec"), namespace)
    places = {"{out}": "out", "{dir}": ".", "{missing}": "no/x"}
    cases = {f"exit:{name}": [places.get(a, a) for a in args] for name, (args, _) in namespace["_EXIT_PATHS"].items()}
    cases.update({f"cold-state:{k}": ["state", *args] for k, (args, _) in enumerate(namespace["_COLD_STATES"])})
    for name, key in (("trajectory", "_COLD_TRAJECTORIES"), ("field", "_COLD_FIELDS")):
        for k, (args, _) in enumerate(namespace[key]):
            for fmt in ("csv", "json"):
                cases[f"cold-{name}:{k}:{fmt}"] = [name, *args, "--format", fmt, "--out", "out"]
    return cases


def tables() -> dict[str, list[str]]:
    """The field and trajectory tables' argv, without --out."""
    argv = {
        f"field:{model}:{grid}:{fmt}": ["field", *flags, *shape_flags, *fmt_flags]
        for (model, flags), (grid, shape_flags), (fmt, fmt_flags)
        in itertools.product(FIELD_MODELS.items(), FIELD_SHAPES.items(), FORMATS.items())
    }
    argv.update({
        f"trajectory:{model}:{steps}:{fmt}": ["trajectory", *flags, "--steps", str(steps), *fmt_flags]
        for (model, flags), steps, (fmt, fmt_flags) in itertools.product(TRAJECTORY_MODELS.items(), STEPS, FORMATS.items())
    })
    argv.update({f"edge:{name}": args for name, args in EDGE_TABLES.items()})
    return argv


def all_cases() -> dict[str, Case]:
    """Every case, by name."""
    cases = {}
    for model, flags in MODELS.items():
        for fmt, fmt_flags in FORMATS.items():
            cases[f"field:{model}:{fmt}"] = ["field", *flags, *fmt_flags, "--out", "out"]
            cases[f"trajectory:{model}:{fmt}"] = ["trajectory", *flags, "--steps", "1000", *fmt_flags, "--out", "out"]
        cases[f"state:{model}"] = ["state", *flags]
        cases[f"state:{model}:out"] = ["state", *flags, "--out", "out"]
    for spin in ("up", "down"):
        cases[f"dilate:{spin}"] = ["dilate", "--spin", spin, "--rest-lifetime", "2.196981e-6", "--out", "out"]
    table_argv = tables()
    for name, args in table_argv.items():
        cases[f"table:{name}:fifo"] = [*args, "--out", FIFO]
        cases[f"table:{name}:null"] = [*args, "--out", "/dev/null"]
    cases.update({f"missing-directory:{name}": args for name, args in MISSING_DIRECTORY.items()})
    for (model, flags), (k, point) in itertools.product(STATE_MODELS.items(), enumerate(STATE_POINTS)):
        cases[f"state-point:{model}:{k}"] = ["state", *flags, *point]
    cases.update(tested_argv())
    cases = {name: Case(args) for name, args in cases.items()}
    files = {f"table:{name}:file": args for name, args in table_argv.items()}
    files.update({f"two-process:{name}": args for name, args in TWO_PROCESS_TABLES.items()})
    cases.update({name: Case([*args, "--out", "out"], one_cpu=True) for name, args in files.items()})
    for name in ("orbit-json", "field-json", "field-square-json"):  # stdout is a pipe: written in place
        cases[f"two-process:{name}:pipe"] = Case([*TWO_PROCESS_TABLES[name], "--out", "/dev/stdout"], one_cpu=True)
    helps = [["--help"], *([c, "--help"] for c in COMMANDS), ["field", "--Z=3", "--help"], ["--help", "field"]]
    for columns in (None, "52", "80"):
        for args in helps:
            cases[f"help:{' '.join(args)}:COLUMNS={columns}"] = Case(args, columns)
    cases.update({f"usage:{' '.join(args)}": Case(args) for args in USAGE_ERRORS})
    return cases


def confine_to_one_cpu() -> None:
    """Allow this process, and what it execs, only the lowest of its allowed CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reader(source, into: dict, key: str) -> threading.Thread:
    """A started thread that reads source, an open binary file or the path of one, to its end into into[key]."""
    def read():
        with (open(source, "rb") if isinstance(source, Path) else source) as fh:
            into[key] = fh.read()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


def run_case(tree: Path, case: Case, one_cpu: bool = False, timeout: float = TIMEOUT) -> tuple[tuple, list[str]]:
    """One run of the case in a fresh directory and session, confined to one CPU where one_cpu is true: its end
    (exit code, None where it ran past timeout seconds; stdout; stderr; each file's name and bytes; the bytes
    its FIFO received, None without one) and its failures, each a phrase. The session is killed once its first
    process has exited or timed out."""
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **({"COLUMNS": case.columns} if case.columns else {}))
    failures, got = [], {}
    with tempfile.TemporaryDirectory(prefix="compare-") as cwd:
        root, fifo = Path(cwd), FIFO in case.args
        if fifo:
            os.mkfifo(root / "out")
        with subprocess.Popen(
            [sys.executable, "-m", "bohmatom.cli", *("out" if a == FIFO else a for a in case.args)],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, preexec_fn=confine_to_one_cpu if one_cpu else None,
        ) as process:
            threads = [reader(process.stdout, got, "stdout"), reader(process.stderr, got, "stderr")]
            if fifo:
                threads.append(reader(root / "out", got, "fifo"))
            try:
                code = process.wait(timeout)
            except subprocess.TimeoutExpired:
                code = None
                failures.append(f"ran past {timeout} s")
            try:
                os.killpg(process.pid, signal.SIGKILL)
                if code is not None:
                    failures.append("left a process running")
            except ProcessLookupError:
                pass
            process.wait()
            # Where the FIFO was never opened, an empty writer ends the read; where it is no longer there,
            # nothing can, and its reader is left behind.
            while fifo and threads[-1].is_alive() and (root / "out").is_fifo():
                with contextlib.suppress(OSError):
                    os.close(os.open(root / "out", os.O_WRONLY | os.O_NONBLOCK))
                threads[-1].join(0.1)
            for thread in threads[:2]:
                thread.join()
        names = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
        left = [name for name in names if ".tmp" in Path(name).name or name.endswith(".back")]
        if left:
            failures.append(f"left {', '.join(left)}")
        files = [(name, (root / name).read_bytes()) for name in names if (root / name).is_file()]

        def normalised(data: bytes) -> bytes:
            for path, mark in ((cwd, b"<dir>"), (os.path.realpath(cwd), b"<dir>"), (str(tree), b"<tree>")):
                data = data.replace(os.fsencode(path), mark)
            return data

        end = (code, normalised(got["stdout"]), normalised(got["stderr"]),
               [(name, normalised(data)) for name, data in files], got.get("fifo"))
    return end, failures


def checkout(rev: str, tree: Path) -> Path:
    """The files of git revision rev, extracted into the new directory tree."""
    tree.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"cannot check out {rev}")
    return tree


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__.partition("\n")[0])
    cases = all_cases()
    failed = []
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as scratch:
        base = checkout(argv[0], Path(scratch, "base"))
        head = checkout(argv[1], Path(scratch, "head")) if len(argv) == 2 else REPO
        for name, case in cases.items():
            expected, _ = run_case(base, case)
            runs = {name: run_case(head, case)}
            if case.one_cpu:
                runs[f"{name}:one-cpu"] = run_case(head, case, one_cpu=True)
            for run_name, (end, failures) in runs.items():
                differ = [field for field, a, b in zip(FIELDS, expected, end) if a != b]
                problems = [f"{', '.join(differ)} differ"] * bool(differ) + failures
                if problems:
                    print(f"{run_name}: {'; '.join(problems)}", file=sys.stderr)
                    failed.append(run_name)
    one_cpu = sum(case.one_cpu for case in cases.values())
    total = len(cases) + one_cpu
    summary = {"base": argv[0], "head": argv[1] if len(argv) == 2 else "working tree", "cases": total,
               "one_cpu_cases": one_cpu, "identical": total - len(failed), "different": failed}
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

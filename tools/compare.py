"""Byte comparison of the program at two revisions: python tools/compare.py BASE [HEAD]

BASE and HEAD are git revisions of this repository. Each is checked out with `git archive` into a
temporary directory; where HEAD is not given, the working tree itself stands in its place. Every case
runs `python -m bohmatom.cli ARGS` with the checkout's src on PYTHONPATH, each in a fresh empty
directory. The cases are:

- each command on both models and both formats;
- the argv of tests/test_cli.py's _EXIT_PATHS (all but the FIFO ones) and _COLD_* lists, read from
  the working tree's file;
- the argv of CI's two-process byte step, into files and into a pipe; each of its tables written into a
  file, in two processes, also runs a second time in HEAD with the CLI confined to one CPU (set by
  os.sched_setaffinity before the exec), and is compared with BASE's unconfined run;
- every help request at COLUMNS unset, 52 and 80;
- usage errors.

A case is identical where its exit code, stdout, stderr and the name and bytes of every file it leaves
behind are, once the paths of its directory and of the checkout read as <dir> and <tree>. Each
difference is printed as one line on stderr, and a one-line JSON summary on stdout; the exit status is
1 where any case differs. Only the standard library is needed.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("field", "trajectory", "dilate", "state")
MODELS = {"dirac": ["--model", "dirac"], "schrodinger": ["--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1"]}
GRID = ["--r-count", "30", "--theta-count", "30", "--phi-count", "30"]
SQUARE = ["--r-count", "24", "--theta-count", "5", "--phi-count", "24"]
SCHRODINGER_321 = MODELS["schrodinger"]
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
#: The argv of CI's two-process byte step, by name.
CI_TABLES = {
    "orbit": ["trajectory", "--steps", "10000"],
    "orbit-json": ["trajectory", "--steps", "10000", "--format", "json"],
    "field": ["field", *GRID],
    "field-json": ["field", *SCHRODINGER_321, *GRID, "--format", "json"],
    "field-m0": ["field", "--model", "schrodinger", "--n", "3", "--l", "1", "--m", "0", *GRID],
    "field-dirac-json": ["field", *GRID, "--format", "json"],
    "field-square": ["field", *SQUARE],
    "field-square-json": ["field", *SCHRODINGER_321, *SQUARE, "--format", "json"],
    "orbit-2048": ["trajectory", "--steps", "2047"],
}
#: The cases written into a file in two processes, which HEAD also runs confined to one CPU.
ONE_CPU = {f"ci:{name}" for name in CI_TABLES}


def tested_argv() -> dict[str, list[str]]:
    """The argv of _EXIT_PATHS and the _COLD_* lists in tests/test_cli.py, as its run tests give them."""
    wanted = {"_SCHRODINGER_START", "_COLD_TRAJECTORIES", "_COLD_STATES", "_COLD_FIELDS", "_EXIT_PATHS"}
    path = REPO / "tests" / "test_cli.py"
    namespace: dict = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & wanted:
            exec(compile(ast.Module([node], []), str(path), "exec"), namespace)
    places = {"{out}": "out", "{dir}": ".", "{missing}": "no/x"}
    cases = {
        f"exit:{name}": [places.get(a, a) for a in args]
        for name, (args, _) in namespace["_EXIT_PATHS"].items()
        if "{fifo}" not in args
    }
    cases.update({f"cold-state:{k}": ["state", *args] for k, (args, _) in enumerate(namespace["_COLD_STATES"])})
    for name, key in (("trajectory", "_COLD_TRAJECTORIES"), ("field", "_COLD_FIELDS")):
        for k, (args, _) in enumerate(namespace[key]):
            for fmt in ("csv", "json"):
                cases[f"cold-{name}:{k}:{fmt}"] = [name, *args, "--format", fmt, "--out", "out"]
    return cases


def all_cases() -> dict[str, tuple[list[str], str | None]]:
    """Each case's argv and its COLUMNS (None: unset), by name."""
    cases = {}
    for model, flags in MODELS.items():
        for fmt in ("csv", "json"):
            cases[f"field:{model}:{fmt}"] = ["field", *flags, "--format", fmt, "--out", "out"]
            cases[f"trajectory:{model}:{fmt}"] = ["trajectory", *flags, "--steps", "500", "--format", fmt, "--out", "out"]
        cases[f"state:{model}"] = ["state", *flags]
        cases[f"state:{model}:out"] = ["state", *flags, "--out", "out"]
    for spin in ("up", "down"):
        cases[f"dilate:{spin}"] = ["dilate", "--spin", spin, "--rest-lifetime", "2.196981e-6", "--out", "out"]
    cases.update(tested_argv())
    cases.update({f"ci:{name}": [*args, "--out", "out"] for name, args in CI_TABLES.items()})
    for name in ("orbit-json", "field-json", "field-square-json"):  # stdout is a pipe: written in place
        cases[f"ci:{name}:pipe"] = [*CI_TABLES[name], "--out", "/dev/stdout"]
    cases = {name: (args, None) for name, args in cases.items()}
    helps = [["--help"], *([c, "--help"] for c in COMMANDS), ["field", "--Z=3", "--help"], ["--help", "field"]]
    for columns in (None, "52", "80"):
        for args in helps:
            cases[f"help:{' '.join(args)}:COLUMNS={columns}"] = (args, columns)
    cases.update({f"usage:{' '.join(args)}": (args, None) for args in USAGE_ERRORS})
    return cases


def confine_to_one_cpu() -> None:
    """Allow this process, and what it execs, only the lowest of its allowed CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_case(tree: Path, args: list[str], columns: str | None, one_cpu: bool = False) -> tuple:
    """The exit code, stdout, stderr and files (name and bytes) of one run in a fresh directory, confined to
    one CPU where one_cpu is true."""
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "PYTHONUNBUFFERED")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **({"COLUMNS": columns} if columns else {}))
    with tempfile.TemporaryDirectory(prefix="compare-") as cwd:
        result = subprocess.run(
            [sys.executable, "-m", "bohmatom.cli", *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=300,
            preexec_fn=confine_to_one_cpu if one_cpu else None,
        )
        root = Path(cwd)
        files = sorted((str(p.relative_to(root)), p.read_bytes()) for p in root.rglob("*") if p.is_file())

        def normalised(data: bytes) -> bytes:
            for path, mark in ((cwd, b"<dir>"), (os.path.realpath(cwd), b"<dir>"), (str(tree), b"<tree>")):
                data = data.replace(os.fsencode(path), mark)
            return data

        return (result.returncode, *map(normalised, (result.stdout, result.stderr)),
                [(name, normalised(data)) for name, data in files])


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
    differ = []
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as scratch:
        base = checkout(argv[0], Path(scratch, "base"))
        head = checkout(argv[1], Path(scratch, "head")) if len(argv) == 2 else REPO
        for name, (args, columns) in cases.items():
            expected = run_case(base, args, columns)
            runs = {name: run_case(head, args, columns)}
            if name in ONE_CPU:
                runs[f"{name}:one-cpu"] = run_case(head, args, columns, one_cpu=True)
            for run_name, end in runs.items():
                if end != expected:
                    fields = ("exit code", "stdout", "stderr", "files")
                    print(f"{run_name}: {', '.join(f for f, a, b in zip(fields, expected, end) if a != b)} differ",
                          file=sys.stderr)
                    differ.append(run_name)
    head_name = argv[1] if len(argv) == 2 else "working tree"
    total = len(cases) + len(ONE_CPU)
    summary = {"base": argv[0], "head": head_name, "cases": total, "one_cpu_cases": len(ONE_CPU),
               "identical": total - len(differ), "different": differ}
    print(json.dumps(summary))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

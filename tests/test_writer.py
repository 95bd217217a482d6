"""The table writer in two processes: the same text as one process, in a file or a pipe, the
same error, no child left and no file left beside the output."""

import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohmatom
from bohmatom import DiracGroundState, QuantumNumbers, SchrodingerEigenstate, SpinOrientation, cli, make_atom, writer
from bohmatom.grid import FieldTable, SphericalGrid
from bohmatom.trajectory_engine import TrajectoryTable

B = writer._BLOCK_ROWS
SEPARATORS = {"csv": (",", "\n"), "json": (",\n      ", "\n    ],\n    [\n      ")}
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1, -1e16]
value_pools = st.lists(
    st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6
)
# 0-6 whole blocks, with or without a part block, and the rows around the split threshold.
block_rows = st.one_of(
    st.builds(lambda blocks, extra: blocks * B + extra, st.integers(0, 6), st.sampled_from([0, 1, B - 1])),
    st.sampled_from([2 * B - 1, 2 * B, 2 * B + 1]),
)
# Where a non-finite value goes: nowhere, the first row (front half), the last row (back half) or both.
bad_rows = st.sampled_from(["none", "front", "back", "both"])


def pooled(pool, seed, n):
    """n floats drawn from the pool, so values repeat within a block and across blocks."""
    draw = random.Random(seed)
    return [draw.choice(pool) for _ in range(n)]


def spoil(column, where, bad):
    if column and where in ("front", "both"):
        column[0] = bad
    if column and where in ("back", "both"):
        column[-1] = bad


def column_table(columns):
    """A table of the float columns, named c0, c1, ..., one value per row in blocks of B rows, all computed:
    its fill does nothing."""
    return SimpleNamespace(
        names=[f"c{k}" for k in range(len(columns))], rows=len(columns[0]), piece_rows=B, columns=columns,
        spans=(1,) * len(columns), fill=lambda i: None,
    )


def serial_text(rows, cell_sep, row_sep):
    """The rows as the writer defines them: the repr of each cell, joined row by row."""
    if not all(math.isfinite(v) for row in rows for v in row):
        raise writer.NotFiniteError
    return row_sep.join(cell_sep.join(map(repr, row)) for row in rows)


class ForkSpy:
    """Counts the forks the writer asks for, and makes each fail where told to."""

    def __init__(self, monkeypatch, fail):
        self.calls, self.fail, self.fork = 0, fail, os.fork
        monkeypatch.setattr(writer.os, "fork", self)

    def __call__(self):
        self.calls += 1
        if self.fail:
            raise OSError("fork refused")
        return self.fork()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def file_rows(rows, directory):
    """The rows as Rows.write puts them into a new file "rows" in the directory, read back."""
    path = os.path.join(directory, "rows")
    with open(path, "x", encoding="utf-8", newline="\n") as fh:
        rows.write(fh)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def pipe_rows(rows):
    """The rows as Rows.write puts them into a pipe, read back by a thread."""
    read_fd, write_fd = os.pipe()
    texts = []

    def read():
        with open(read_fd, encoding="utf-8", newline="") as fh:
            texts.append(fh.read())

    reader = threading.Thread(target=read)
    reader.start()
    try:
        with open(write_fd, "w", encoding="utf-8", newline="\n") as fh:
            rows.write(fh)
    finally:
        reader.join()
    return texts[0]


def written(write, fail_fork, to_file):
    """The text of the rows write() returns, written into a file or a pipe, or the NotFiniteError
    class; the forks it asked for. No child is left, and no file beside the rows."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        spy = ForkSpy(patch, fail_fork)
        try:
            text = file_rows(write(), tmp) if to_file else pipe_rows(write())
        except writer.NotFiniteError:
            text = writer.NotFiniteError
        assert os.listdir(tmp) == (["rows"] if to_file else [])
    assert_no_child()
    return text, spy.calls


def all_texts(write):
    """The rows written into a file in two processes, into a file in one (the fork fails) and into
    a pipe, which one process writes: each text with its forks."""
    return written(write, False, True), written(write, True, True), written(write, False, False)


@settings(max_examples=40, deadline=None)
@given(
    rows=block_rows,
    n_cols=st.integers(1, 4),
    pool=value_pools,
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(sorted(SEPARATORS)),
    where=bad_rows,
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_column_table_in_two_processes_equals_one(rows, n_cols, pool, seed, fmt, where, bad):
    columns = [pooled(pool, seed + k, rows) for k in range(n_cols)]
    columns[0] = [float(i) for i in range(rows)]  # no repeats: the other form of a block's cells
    spoil(columns[-1], where, bad)
    separators = SEPARATORS[fmt]
    try:
        expected = serial_text(list(zip(*columns)), *separators)
    except writer.NotFiniteError:
        expected = writer.NotFiniteError
    texts = all_texts(lambda: writer.Rows(column_table(columns), *separators))
    (forked, forks), (in_process, _), (piped, pipe_forks) = texts
    assert forked == in_process == piped == expected
    assert forks == (rows >= 2 * B)
    assert pipe_forks == 0


def grid_reference(grid, columns, slab):
    """The field table's rows, one per grid point, as lists of floats."""
    return [
        [r, t, p, *(c[i * slab + k] if len(c) != slab else c[k] for c in columns)]
        for i, r in enumerate(grid.r)
        for k, (t, p) in enumerate((t, p) for t in grid.theta for p in grid.phi)
    ]


def kind_span(kind, grid):
    """The rows one value of a column of the kind spans on the grid."""
    return {"ring": grid.phi_count, "radius": grid.theta_count * grid.phi_count}.get(kind, 1)


def lazy_table(grid, columns, kinds):
    """A FieldTable of the columns, where each column of a kind other than "angle" is a reserved
    column that fill(i) fills slab by slab from the given one."""
    lazy = [k for k, kind in enumerate(kinds) if kind != "angle"]
    reserved = {k: writer.reserve_floats(len(columns[k])) for k in lazy}

    def fill(i):
        for k in lazy:
            n = len(columns[k]) // grid.r_count  # a slab's values
            reserved[k][i * n : (i + 1) * n] = array("d", columns[k][i * n : (i + 1) * n])

    spans = tuple(kind_span(kind, grid) for kind in kinds)
    return FieldTable(grid, [reserved.get(k, c) for k, c in enumerate(columns)], spans, fill)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.one_of(
        st.sampled_from([(2047, 1, 1), (2048, 1, 1), (2049, 1, 1), (1, 64, 32), (2, 32, 32), (3, 683, 1), (3, 700, 1)]),
        # r_count == phi_count: a column of one value per (r, theta) is as long as one per angle pair
        st.sampled_from([(8, 3, 8), (24, 5, 24)]),
        st.tuples(st.integers(1, 40), st.integers(1, 30), st.integers(1, 12)),
    ),
    kinds=st.lists(st.sampled_from(["angle", "point", "ring", "radius"]), min_size=1, max_size=4),
    pool=value_pools,
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(sorted(SEPARATORS)),
    where=bad_rows,
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_grid_table_in_two_processes_equals_one(shape, kinds, pool, seed, fmt, where, bad):
    # A column holds one value per angle pair, per point, per (r, theta) (the same bits at every azimuth) or per
    # radius (the same bits over the whole slab).
    r_count, theta_count, phi_count = shape
    grid = SphericalGrid(0.5, 3.0, r_count, theta_count, phi_count)
    slab = theta_count * phi_count
    counts = {"angle": slab, "point": grid.size, "ring": r_count * theta_count, "radius": r_count}
    columns = [pooled(pool, seed + k, counts[kind]) for k, kind in enumerate(kinds)]
    spoil(columns[-1], where, bad)
    spread = [[v for v in c for _ in range(kind_span(kind, grid))] for c, kind in zip(columns, kinds)]
    separators = SEPARATORS[fmt]
    try:
        expected = serial_text(grid_reference(grid, spread, slab), *separators)
    except writer.NotFiniteError:
        expected = writer.NotFiniteError
    texts = all_texts(lambda: writer.Rows(lazy_table(grid, columns, kinds), *separators))
    (forked, forks), (in_process, _), (piped, pipe_forks) = texts
    assert forked == in_process == piped == expected
    if expected is not writer.NotFiniteError:  # a bad per-angle value fails before the split
        assert forks == (grid.size >= 2 * B and r_count >= 2)
    assert pipe_forks == 0


@pytest.mark.parametrize(
    "model",
    [DiracGroundState(SpinOrientation.UP, make_atom()), SchrodingerEigenstate(QuantumNumbers(3, 2, 1), make_atom())],
    ids=["dirac", "schrodinger"],
)
@pytest.mark.parametrize(
    "r_count, target", [(30, "file"), (30, "pipe"), (2, "file")], ids=["two-processes", "pipe", "under-2048-rows"]
)
def test_each_slab_is_filled_once_by_the_process_that_writes_it(tmp_path, model, r_count, target):
    a0 = model.atom.bohr_radius
    grid = SphericalGrid(0.2 * a0, 5.0 * a0, r_count, 30, 30)
    table, log = model.field_table(grid), tmp_path / "fills"
    fd = logged_fills(table, log)
    rows = writer.Rows(table, ",", "\n")
    try:
        if target == "file":
            (tmp_path / "out").mkdir()
            file_rows(rows, tmp_path / "out")
        else:
            pipe_rows(rows)
    finally:
        os.close(fd)
    slabs, this = fills_by_process(log), os.getpid()
    if grid.size >= 2 * B and target == "file":  # 27 000 rows, split at slab 15 of 30
        (child,) = set(slabs) - {this}
        assert slabs == {this: list(range(15)), child: list(range(15, 30))}
    else:
        assert slabs == {this: list(range(r_count))}


def logged_fills(table, log):
    """Make table.fill(i) append "pid i" to the file log before it fills block or slab i; the log's
    descriptor, to close."""
    fill, fd = table.fill, os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged_fill(i):
        os.write(fd, f"{os.getpid()} {i}\n".encode())
        fill(i)

    table.fill = logged_fill
    return fd


def fills_by_process(log):
    """The blocks or slabs each process filled, in order, by pid."""
    fills = {}
    for pid, i in (map(int, line.split()) for line in log.read_text().splitlines()):
        fills.setdefault(pid, []).append(i)
    return fills


@pytest.mark.parametrize(
    "steps, target", [(10000, "file"), (10000, "pipe"), (2046, "file")],
    ids=["two-processes", "pipe", "under-2048-rows"],
)
def test_each_trajectory_block_is_filled_once_by_the_process_that_writes_it(tmp_path, steps, target):
    # The circle and the deviation of block i are computed by the process that writes block i; the summary's
    # max_deviation is read after the write, from the deviation column both processes filled.
    model = DiracGroundState(SpinOrientation.UP, make_atom())
    table = TrajectoryTable(model, bohmatom.SphericalPoint(model.atom.bohr_radius, 1.0, 0.5), None, steps)
    log, out = tmp_path / "fills", str(tmp_path / "out" / "orbit.csv")
    fd = logged_fills(table, log)
    try:
        if target == "file":
            os.mkdir(tmp_path / "out")
            texts = {out: cli._csv_text("t", table), out + ".summary.json": cli._json_text(table.summary)}
            cli._write_files(out, texts)
            text = Path(out).read_text(encoding="utf-8").split("\n", 2)[2]
            summary = json.loads(Path(out + ".summary.json").read_text(encoding="utf-8"))
        else:
            text = pipe_rows(writer.Rows(table, ",", "\n"))
            summary = {"max_deviation": table.max_deviation()}
    finally:
        os.close(fd)
    assert_no_child()
    blocks, this = -(-(steps + 1) // B), os.getpid()
    fills = fills_by_process(log)
    if steps + 1 >= 2 * B and target == "file":  # 10 001 rows, split at block 5 of 10
        (child,) = set(fills) - {this}
        assert fills == {this: list(range(5)), child: list(range(5, blocks))}
    else:
        assert fills == {this: list(range(blocks))}
    deviation = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()]
    assert len(deviation) == steps + 1
    assert summary["max_deviation"] == max(deviation) > 0.0


# Split after three blocks, so that the child writes three; each block's text (about 25 kB) is
# larger than a file's buffer, so that it reaches the disk as it is written.
COLUMNS = [[float(i) for i in range(6 * B)], [0.1 * i for i in range(6 * B)]]
ONE_PROCESS = "\n".join(f"{a!r},{b!r}" for a, b in zip(*COLUMNS))


def spoiled(rows, fails):
    """The rows, with each piece i formatted by fails(i, text), where text is the real formatter."""
    prepare = rows.piece_text

    def piece_text():
        text = prepare()
        return lambda i: fails(i, text)

    rows.piece_text = piece_text
    return rows


def failing_child(monkeypatch, how):
    """Rows whose child fails as told: killed before it writes a byte, or killed or raising once
    it has written its first piece, so that a part of its file is on disk."""
    fork, parent, seen = os.fork, os.getpid(), []

    def doomed_child():
        pid = fork()
        if pid == 0 and how == "killed at once":
            os.kill(os.getpid(), signal.SIGKILL)
        return pid

    def fails(i, text):
        if os.getpid() != parent:
            if seen:
                if how == "killed midway":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("the child fails")
            seen.append(i)
        return text(i)

    monkeypatch.setattr(writer.os, "fork", doomed_child)
    return spoiled(writer.Rows(column_table(COLUMNS), ",", "\n"), fails)


def assert_written_here(rows, directory):
    """The rows' file holds the one-process text, and nothing is left beside it: no file, no child."""
    assert file_rows(rows, directory) == ONE_PROCESS
    assert os.listdir(directory) == ["rows"]
    assert_no_child()


def test_a_child_that_fails_leaves_its_half_to_this_process(monkeypatch, tmp_path):
    # The child is killed before it writes a byte: this process writes the back half itself.
    assert_written_here(failing_child(monkeypatch, "killed at once"), tmp_path)


@pytest.mark.parametrize("how", ["killed midway", "exits 1"])
def test_a_child_that_fails_midway_leaves_its_half_to_this_process(monkeypatch, tmp_path, how):
    # The child's file holds a part of its half and is not trusted: this process writes the back half, and
    # the child's file, which has no name, is closed.
    assert_written_here(failing_child(monkeypatch, how), tmp_path)


def test_the_child_file_has_no_name_while_the_halves_are_written(tmp_path):
    # Its name is removed before the fork, so none can outlive a process killed midway.
    listings = []

    def listed(i, text):
        listings.append(os.listdir(tmp_path))
        return text(i)

    assert_written_here(spoiled(writer.Rows(column_table(COLUMNS), ",", "\n"), listed), tmp_path)
    assert listings == [["rows"]] * 3  # the front half's three pieces, formatted in this process


def test_an_ignored_sigchld_costs_the_split_not_the_text(tmp_path):
    # With SIGCHLD ignored the child is reaped unseen: its status is unknown, so this process writes its half.
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert_written_here(writer.Rows(column_table(COLUMNS), ",", "\n"), tmp_path)
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_the_sibling_file_is_appended_through_memory_where_copy_file_range_fails(monkeypatch, tmp_path):
    def refused(*args):
        raise OSError(95, "copy_file_range refused")

    monkeypatch.setattr(writer, "_COPY_CHUNK", 1000)  # several chunks
    monkeypatch.setattr(writer.os, "copy_file_range", refused, raising=False)
    assert_written_here(writer.Rows(column_table(COLUMNS), ",", "\n"), tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "failure", ["not finite in the front half", "not finite in the back half", "interrupt", "append fails"]
)
def test_a_failed_table_leaves_no_file(monkeypatch, capsys, tmp_path, fmt, failure):
    # Whatever fails, the output, its temp file and the child's file are all gone, and no child is left.
    column = [float(i) for i in range(3 * B)]
    if failure == "not finite in the front half":
        column[0] = math.nan
    elif failure == "not finite in the back half":
        column[-1] = math.inf
    elif failure == "append fails":
        def no_space(dst, src):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(writer, "_append", no_space)
    out, table = str(tmp_path / f"table.{fmt}"), column_table([column])
    if fmt == "csv":
        texts = {out: cli._csv_text("t", table), out + ".summary.json": cli._json_text({"a": 1})}
    else:
        texts = {out: cli._json_text({"command": "t", "columns": table.names, "rows": table})}
    if failure == "interrupt":  # raised in the first piece this process formats, once the child is forked
        parent = os.getpid()

        def interrupted(i, text):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return text(i)

        spoiled(next(part for part in texts[out] if isinstance(part, writer.Rows)), interrupted)
    with pytest.raises(KeyboardInterrupt if failure == "interrupt" else SystemExit):
        cli._run(cli._write_files, {"out": out, "texts": texts})
    assert os.listdir(tmp_path) == []
    assert_no_child()
    message = {"interrupt": "", "append fails": f"error: cannot write {out}: No space left on device\n"}
    assert capsys.readouterr().err == message.get(failure, f"error: {cli._NOT_FINITE}\n")


#: Runs `bohmatom ARGS` and prints its exit code and peak resident size in kB. A small parent reads it,
#: since a process forked from pytest would count pytest's own resident size in its ru_maxrss.
_PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bohmatom.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_a_large_table_peaks_well_below_its_file_size(tmp_path):
    # The rows go into the file, or into /dev/null, piece by piece: the process peaks at about half the file's
    # size, where building the whole text first took 2.5 times it.
    out = tmp_path / "field.json"
    grid = ["--r-count", "60", "--theta-count", "60", "--phi-count", "60"]
    args = ["field", "--model", "schrodinger", "--n", "3", "--l", "2", "--m", "1", *grid, "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(Path(bohmatom.__file__).resolve().parents[1])}
    peaks = []
    for target in (str(out), os.devnull):
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *args, "--out", target], env=env, capture_output=True, text=True
        )
        status, peak_kb = map(int, result.stdout.split())
        assert status == 0, (target, result.stderr)
        peaks.append(peak_kb * 1024)
    size = out.stat().st_size
    assert size > 40e6
    assert max(peaks) < 0.75 * size
    assert os.listdir(tmp_path) == ["field.json"]

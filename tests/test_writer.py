"""The table writer in two processes: the same text as one process, the same error, and no child left."""

import math
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmatom import writer
from bohmatom.grid import SphericalGrid

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


def written(write, fail_fork):
    """write()'s concatenated text, or the NotFiniteError class; the forks it asked for; no child left."""
    with pytest.MonkeyPatch.context() as patch:
        spy = ForkSpy(patch, fail_fork)
        try:
            text = "".join(write())
        except writer.NotFiniteError:
            text = writer.NotFiniteError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return text, spy.calls


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
    forked, forks = written(lambda: writer.table_text(columns, *separators), False)
    in_process, _ = written(lambda: writer.table_text(columns, *separators), True)
    assert forked == in_process == expected
    assert forks == (rows >= 2 * B)


def grid_reference(grid, columns, slab):
    """The field table's rows, one per grid point, as lists of floats."""
    return [
        [r, t, p, *(c[i * slab + k] if len(c) != slab else c[k] for c in columns)]
        for i, r in enumerate(grid.r)
        for k, (t, p) in enumerate((t, p) for t in grid.theta for p in grid.phi)
    ]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.one_of(
        st.sampled_from([(2047, 1, 1), (2048, 1, 1), (2049, 1, 1), (1, 64, 32), (2, 32, 32), (3, 683, 1), (3, 700, 1)]),
        st.tuples(st.integers(1, 40), st.integers(1, 30), st.integers(1, 12)),
    ),
    per_point=st.lists(st.booleans(), min_size=1, max_size=4),
    pool=value_pools,
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(sorted(SEPARATORS)),
    where=bad_rows,
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_grid_table_in_two_processes_equals_one(shape, per_point, pool, seed, fmt, where, bad):
    r_count, theta_count, phi_count = shape
    grid = SphericalGrid(0.5, 3.0, r_count, theta_count, phi_count)
    slab = theta_count * phi_count
    columns = [pooled(pool, seed + k, grid.size if each else slab) for k, each in enumerate(per_point)]
    spoil(columns[-1], where, bad)
    separators = SEPARATORS[fmt]
    try:
        expected = serial_text(grid_reference(grid, columns, slab), *separators)
    except writer.NotFiniteError:
        expected = writer.NotFiniteError
    forked, forks = written(lambda: writer.grid_rows(grid, columns, *separators), False)
    in_process, _ = written(lambda: writer.grid_rows(grid, columns, *separators), True)
    assert forked == in_process == expected
    if expected is not writer.NotFiniteError:  # a bad per-angle value fails before the split
        assert forks == (grid.size >= 2 * B and r_count >= 2)


def test_a_child_that_fails_leaves_its_half_to_this_process(monkeypatch):
    # The child is killed before it sends a byte: this process formats the back half itself.
    columns = [[float(i) for i in range(3 * B)]]
    fork = os.fork

    def doomed_child():
        pid = fork()
        if pid == 0:
            os.kill(os.getpid(), 9)
        return pid

    monkeypatch.setattr(writer.os, "fork", doomed_child)
    assert "".join(writer.table_text(columns, ",", "\n")) == "\n".join(map(repr, columns[0]))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_ignored_sigchld_costs_the_split_not_the_text():
    # With SIGCHLD ignored the child is reaped unseen: its status is unknown, so this process formats its half.
    columns = [[float(i) for i in range(3 * B)]]
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        text = "".join(writer.table_text(columns, ",", "\n"))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert text == "\n".join(map(repr, columns[0]))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

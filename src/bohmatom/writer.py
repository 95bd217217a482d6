"""The table writer of `field` and `trajectory`: float tables as rows of text.

Each cell is the repr of its float, the shortest text that reads back as the
same float. A table is written in pieces: blocks of _BLOCK_ROWS rows, or the
r slabs of a field grid. Within a piece each distinct bit pattern of a column
is formatted once. A table of at least two blocks is split once, at the piece
boundary nearest half its rows: a forked child formats the back half and
sends its text through a pipe, while this process formats the front half.
Formatting is the largest part of a 10 000-step `trajectory` process (about
50 ms of 0.13 s); on two cores the halves take about 1.6 times less wall time
than one core takes for both (shared 2-core Xeon host, Python 3.11). Every
piece is formatted on its own, so the text is the same wherever the split
falls and whether or not the fork succeeds.

Only `field` and `trajectory` import this module, so the other commands start
without compiling it.
"""

from __future__ import annotations

import math
import os
import signal
from array import array
from functools import partial
from itertools import repeat
from typing import Callable

#: Rows formatted at a time: bounds the cell strings alive at once.
_BLOCK_ROWS = 1024


class NotFiniteError(ValueError):
    """A value of the table is NaN or infinite, which the text formats cannot carry."""


def _formatted(values: list) -> list[str]:
    """The repr of each value; NotFiniteError unless all are finite."""
    if not all(map(math.isfinite, values)):
        raise NotFiniteError("the table holds a value that is not finite")
    return list(map(repr, values))


def _cells(column: memoryview, start: int, stop: int) -> list[str]:
    """Rows start to stop of a float column as cell strings, each distinct bit pattern formatted once."""
    bits = column.cast("B").cast("q")[start:stop].tolist()
    distinct = set(bits)
    if len(distinct) == len(bits):  # no value repeats: the cells are the values in order
        return _formatted(column[start:stop].tolist())
    keys = array("q", distinct)  # read back below as the floats they encode
    text = dict(zip(keys, _formatted(memoryview(keys).cast("B").cast("d").tolist())))
    return list(map(text.__getitem__, bits))


def _floats(column) -> memoryview:
    """A float column (array('d'), a contiguous memoryview of floats or a list) as a memoryview
    of floats; a list is copied."""
    return memoryview(array("d", column) if isinstance(column, list) else column)


def _in_two_processes(front: Callable[[], str], back: Callable[[], str]) -> tuple[str, str]:
    """(front(), back()), with back() run in a forked child while this process runs front().

    Where the pipe or the fork cannot be made, or the child is not seen to end
    with its whole text, back() runs here after front(): the results and the
    exceptions are those of the two calls in turn. The child is reaped
    before this returns or raises, and killed first if front() raised.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return front(), back()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return front(), back()
    if pid == 0:  # the child: send back()'s text and end without running any of the parent's exit code
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(back().encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    received = False
    try:
        with open(read_fd, "rb") as pipe:
            head = front()
            data = pipe.read()
        received = True
    finally:
        if not received:
            os.kill(pid, signal.SIGKILL)
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # SIGCHLD is ignored, so the child was reaped unseen: its text is not trusted
            status = None
    return head, data.decode() if status == 0 else back()


def _pieces_text(rows: int, pieces: int, piece_rows: int, text: Callable[[int, int], str], row_sep: str) -> list[str]:
    """The rows of a table of `pieces` pieces, `piece_rows` rows each but the last, as strings to
    concatenate; text(i, j) gives the rows of pieces i to j - 1, joined by row_sep.

    A table of at least two blocks and two pieces is formatted in two processes, split at the
    piece boundary nearest half its rows."""
    if rows == 0:
        return []
    if rows < 2 * _BLOCK_ROWS or pieces < 2:
        return [text(0, pieces)]
    split = min(max(round(rows / 2 / piece_rows), 1), pieces - 1)
    head, tail = _in_two_processes(partial(text, 0, split), partial(text, split, pieces))
    return [head, row_sep, tail]


def table_text(table, cell_sep: str, row_sep: str) -> list[str]:
    """The rows of a float table, each cell the repr of its float, joined by the separators,
    as strings to concatenate (none for a table without rows).

    The table is a list of float columns (see _floats), or a function of the two
    separators that returns the rows itself (the field table, see grid_rows).
    Every value must be finite, else NotFiniteError. Block by block, each
    column's cells are keyed by their bit pattern (so -0.0 and 0.0 stay apart),
    and each distinct value is formatted once.
    """
    if callable(table):
        return table(cell_sep, row_sep)
    columns = list(map(_floats, table))
    rows = len(columns[0])

    def text(first: int, stop: int) -> str:
        blocks = []
        for start in range(first * _BLOCK_ROWS, min(stop * _BLOCK_ROWS, rows), _BLOCK_ROWS):
            cells = [_cells(column, start, start + _BLOCK_ROWS) for column in columns]
            blocks.append(row_sep.join(map(cell_sep.join, zip(*cells))))
        return row_sep.join(blocks)

    return _pieces_text(rows, -(-rows // _BLOCK_ROWS), _BLOCK_ROWS, text, row_sep)


def grid_rows(grid, columns: list, cell_sep: str, row_sep: str) -> list[str]:
    """The rows of a field table on a SphericalGrid: r, theta and phi, then the model's columns,
    as table_text gives them.

    A column holds one value per grid point, or one per angle pair of an r slab, the
    same at every radius. r, theta, phi and the per-angle columns are formatted once
    for the grid, and each run of them is joined into one string per angle pair; the
    per-point columns are formatted once per distinct bit pattern of each r slab.
    """
    slab = grid.theta_count * grid.phi_count
    phi = _formatted(grid.phi)
    parts = [[cell_sep.join((t, p)) for t in _formatted(grid.theta) for p in phi]]
    for column in columns:
        if len(column) != slab:  # one value per point
            parts.append(_floats(column))
            continue
        cells = _cells(_floats(column), 0, slab)
        if isinstance(parts[-1], list):
            parts[-1] = list(map(cell_sep.join, zip(parts[-1], cells)))
        else:
            parts.append(cells)
    radii = _formatted(grid.r)

    def text(first: int, stop: int) -> str:
        slabs = []
        for i in range(first, stop):
            cells = [p if isinstance(p, list) else _cells(p, i * slab, (i + 1) * slab) for p in parts]
            slabs.append(row_sep.join(map(cell_sep.join, zip(repeat(radii[i], slab), *cells))))
        return row_sep.join(slabs)

    return _pieces_text(grid.r_count * slab, grid.r_count, slab, text, row_sep)

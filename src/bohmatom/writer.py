"""The table writer of `field` and `trajectory`: float tables as rows of text.

Each cell is the repr of its float, the shortest text that reads back as the
same float. Every table has one form (see Rows): its rows come in
pieces of a fixed number of rows, a trajectory's blocks of _BLOCK_ROWS rows
or a field's r slabs, and each column says how many rows one of its
values spans. A column that repeats within every piece, such as the angles
of a field slab, is formatted once for the table, and a run of such adjacent
columns is joined once. Any other column is formatted piece by piece: a value
that spans several rows once, and, in a column of one value per row, each
distinct bit pattern of the piece once. Each piece goes into the open output
file as soon as it is formatted, so the memory a table takes beyond its float
columns is one piece, not the text of the table, whatever the target
(CHANGES.md records the peak of a Dirac 100^3 CSV `field` into /dev/null
both ways). A table of at least two blocks that goes into a regular file is
split once, at the piece boundary nearest half its rows: a forked child
formats the back half into an unnamed file, while this process formats the
front half, then appends the child's file with os.copy_file_range. The
process that formats a piece also computes it, by the table's fill(i): a
field slab, or the exact circle and the deviation of a trajectory block.
Filling and formatting the rows is the largest part of a 10 000-step
`trajectory` process, and on two free cores the halves take less wall time
than one core takes for both (BENCH_15.json's `formatting_in_process` and
CHANGES.md hold the measurements). Every piece is formatted on its own, so
the text is the same wherever the split falls and whether or not the fork
succeeds.

The float columns of a table are reserved here too (reserve_floats), in maps
that a forked child shares. A command hands its table, which carries its
column names, to its text (cli._csv_text, cli._json), and that makes the
table's Rows. Only `field` and `trajectory` import this module, so the other
commands start without compiling it.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import sys
from array import array
from itertools import repeat

from .errors import NotFiniteError

#: Rows formatted at a time: bounds the cell strings alive at once.
_BLOCK_ROWS = 1024

#: Bytes copied at a time where os.copy_file_range cannot append the child's half.
_COPY_CHUNK = 1 << 20


def reserve_floats(count: int) -> memoryview:
    """A buffer of count floats in an anonymous shared memory map.

    The map reserves the memory at once but touches none of it: each page is
    allocated when it is first written. A child forked while the table is
    written shares it, so that the values it fills are seen here.
    MemoryError if it cannot be reserved.
    """
    size = 8 * count
    if size > sys.maxsize:
        raise MemoryError(f"{count} floats do not fit in memory")
    try:
        return memoryview(mmap.mmap(-1, size, flags=mmap.MAP_SHARED)).cast("d")
    except OSError as exc:  # ENOMEM: larger than the address space or the commit limit
        raise MemoryError(f"{count} floats do not fit in memory") from exc


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


def _span_cells(column: memoryview, span: int, start: int, stop: int):
    """Rows start to stop of a float column of one value per span rows, start a multiple of span, as
    cell strings: with span 1 as _cells gives them, else each value formatted once."""
    if span == 1:
        return _cells(column, start, stop)
    values = _formatted(column[start // span : -(-stop // span)].tolist())
    if len(values) == 1:
        return repeat(values[0], stop - start)
    spread = range(span)
    return [cell for cell in values for _ in spread]


def _floats(column) -> memoryview:
    """A float column (array('d'), a contiguous memoryview of floats or a list) as a memoryview
    of floats; a list is copied."""
    return memoryview(array("d", column) if isinstance(column, list) else column)


def _append(dst: int, src: int) -> None:
    """Append all of the file src at the offset of dst, advancing it."""
    size, done = os.fstat(src).st_size, 0
    while done < size:
        try:
            copied = os.copy_file_range(src, dst, size - done, done)
        except (AttributeError, OSError):  # no copy_file_range on this system, or not between these files
            copied = 0
        if not copied:  # the rest goes through memory, a chunk at a time; a write error is raised here
            copied = os.write(dst, os.pread(src, min(size - done, _COPY_CHUNK), done))
        done += copied


class Rows:
    """The rows of a float table, written piece by piece into a text file, each cell the repr of its
    float: the cells of a row joined by cell_sep, and the rows by row_sep. The table has

    - rows, its number of rows, and piece_rows, the rows of each piece but the last;
    - columns, float columns (see _floats), and spans, the rows each value of a column spans: row j
      of column k is columns[k][(j // spans[k]) % len(columns[k])];
    - fill(i), which the process that writes piece i calls just before it formats it, so that a
      forked child computes only the pieces it writes.

    Each span divides piece_rows and rows. A column whose len * span is less than rows repeats in
    every piece: its len * span divides piece_rows, and it is formatted once, before the first
    piece, from the values it holds then. Any other column is formatted piece by piece, once
    fill(i) has run.

    piece_text() formats what the pieces share and returns the function that gives the rows of one
    piece; it and that function raise NotFiniteError where a value is NaN or infinite. Nothing is
    formatted before the rows are written, so that error is raised while writing. A Rows is true
    where it has rows.
    """

    def __init__(self, table, cell_sep: str, row_sep: str):
        self.table, self.cell_sep, self.row_sep = table, cell_sep, row_sep
        self.pieces = -(-table.rows // table.piece_rows)

    def __bool__(self) -> bool:
        return self.table.rows > 0

    def piece_text(self):
        table, cell_sep, row_sep, n = self.table, self.cell_sep, self.row_sep, self.table.piece_rows
        parts = []  # the joined cells of a run of columns that every piece shares, or a (column, span) of _span_cells
        for column, span in zip(map(_floats, table.columns), table.spans):
            period = len(column) * span
            if period >= table.rows:
                parts.append((column, span))
                continue
            cells = list(_span_cells(column, span, 0, period)) * (n // period)
            if parts and isinstance(parts[-1], list):
                cells = list(map(cell_sep.join, zip(parts.pop(), cells)))
            parts.append(cells)

        def text(i: int) -> str:
            table.fill(i)
            start = i * n
            rows = min(n, table.rows - start)
            cells = [
                _span_cells(*p, start, start + rows) if isinstance(p, tuple) else p if rows == n else p[:rows]
                for p in parts
            ]
            return row_sep.join(map(cell_sep.join, zip(*cells)))

        return text

    def _write(self, fh, text, first: int, stop: int) -> None:
        # Each piece but the table's first is preceded by row_sep, so that the halves meet without a join.
        for i in range(first, stop):
            if i:
                fh.write(self.row_sep)
            fh.write(text(i))

    def write(self, fh) -> None:
        """Write the rows into fh, a text file: a device or a pipe in this process alone.

        Where fh is a regular file, a table of at least two blocks and two pieces is split at the
        piece boundary nearest half its rows. A forked child writes the back half into a file made
        as `<fh.name>.back` and unlinked before the fork, while this process writes the front half
        into fh; the child's file is then appended to fh. Where that file or the fork cannot be
        made, or the child is not seen to end with status 0, this process writes the back half
        after the front half: the bytes and the exceptions are those of one process. The child is
        reaped before this returns or raises, and killed first if the front half raised.
        """
        if not self:
            return
        text, rows = self.piece_text(), self.table.rows
        if rows < 2 * _BLOCK_ROWS or self.pieces < 2 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            self._write(fh, text, 0, self.pieces)
            return
        split = min(max(round(rows / 2 / self.table.piece_rows), 1), self.pieces - 1)
        back = pid = status = None
        try:
            back = open(f"{fh.name}.back", "x+", encoding="utf-8", newline="\n")
            os.remove(back.name)  # the child inherits the open file: no name is left to clean up
            pid = os.fork()
        except OSError:
            pass
        if pid == 0:  # the child: write the back half and end without running any of the parent's exit code
            status = 1
            try:
                self._write(back, text, split, self.pieces)
                back.flush()
                status = 0
            finally:
                os._exit(status)
        try:
            self._write(fh, text, 0, split)
            if pid is not None:
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # SIGCHLD is ignored, so the child was reaped unseen: its file is not trusted
                    pass
                pid = None
            if status == 0:
                fh.flush()
                _append(fh.fileno(), back.fileno())
                fh.seek(0, os.SEEK_END)
            else:
                self._write(fh, text, split, self.pieces)
        finally:
            if pid is not None:  # the front half raised: the child's half is not wanted
                import signal  # here alone: building its enums costs every table process 0.4 ms

                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # SIGCHLD is ignored: the child was reaped unseen
                    pass
            if back is not None:
                back.close()

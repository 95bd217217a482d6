"""The table writer of `field` and `trajectory`: float tables as rows of text.

Each cell is the repr of its float, the shortest text that reads back as the
same float. A table is written in pieces: blocks of _BLOCK_ROWS rows, or the
r slabs of a field grid. Within a piece each distinct bit pattern of a column
is formatted once, and each piece goes into the open output file as soon as
it is formatted, so the memory a table takes beyond its float columns is one
piece, not the text of the table, whatever the target: a Dirac 100^3 CSV
`field` into /dev/null peaks at 49 MB, where its whole text took 419 MB. A
table of at least two blocks that goes into a regular file is split once, at
the piece boundary nearest half its rows: a forked child formats the back
half into an unnamed file, while this process formats the front half, then
appends the child's file with os.copy_file_range. The process that formats a
piece also computes it, by the table's fill(i): a field slab, or the exact
circle and the deviation of a trajectory block. A column that holds one value
per (r, theta) ring is formatted once per ring. Filling and formatting the
rows is the largest part of a 10 000-step `trajectory` process (about 23 ms
of 0.066 s); on two cores the halves take about 1.8 times less wall time than
one core takes for both (shared 2-core Xeon host, Python 3.11). Every piece
is formatted on its own, so the text is the same wherever the split falls and
whether or not the fork succeeds.

The float columns of a table are reserved here too (reserve_floats), in maps
that a forked child shares. Only `field` and `trajectory` import this module,
so the other commands start without compiling it.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import sys
from array import array
from functools import partial
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
    """The rows of a float table, written piece by piece into a text file: `count` rows in
    `pieces` pieces of `piece_rows` rows each but the last, each cell the repr of its float.

    piece_text() prepares what the pieces share and returns the function that gives the rows of
    one piece, joined by row_sep; it and that function raise NotFiniteError where a value is NaN
    or infinite. Nothing is formatted before the rows are written, so that error is raised while
    writing. A Rows is true where it has rows.
    """

    def __init__(self, count: int, pieces: int, piece_rows: int, piece_text, row_sep: str):
        self.count, self.pieces, self.piece_rows = count, pieces, piece_rows
        self.piece_text, self.row_sep = piece_text, row_sep

    def __bool__(self) -> bool:
        return self.count > 0

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
        text = self.piece_text()
        if self.count < 2 * _BLOCK_ROWS or self.pieces < 2 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            self._write(fh, text, 0, self.pieces)
            return
        split = min(max(round(self.count / 2 / self.piece_rows), 1), self.pieces - 1)
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


def table_text(table, cell_sep: str, row_sep: str) -> Rows:
    """The rows of a float table, each cell the repr of its float, joined by the separators. The
    table has columns, float columns of one length (see _floats), and fill(i), which the process
    that writes block i of _BLOCK_ROWS rows calls just before it formats it, so that a forked child
    computes only the blocks it writes.

    Every value must be finite, else NotFiniteError when the rows are written.
    Block by block, each column's cells are keyed by their bit pattern (so -0.0
    and 0.0 stay apart), and each distinct value is formatted once.
    """
    rows = len(table.columns[0])

    def piece_text():
        columns = list(map(_floats, table.columns))

        def text(i: int) -> str:
            table.fill(i)
            start = i * _BLOCK_ROWS
            cells = [_cells(column, start, start + _BLOCK_ROWS) for column in columns]
            return row_sep.join(map(cell_sep.join, zip(*cells)))

        return text

    return Rows(rows, -(-rows // _BLOCK_ROWS), _BLOCK_ROWS, piece_text, row_sep)


def grid_rows(grid, table, cell_sep: str, row_sep: str) -> Rows:
    """The rows of a field table on a SphericalGrid: r, theta and phi, then the columns of the
    table (a grid.FieldTable), as table_text gives them, one r slab per piece.

    A column holds one value per grid point, one per angle pair of an r slab, the same
    at every radius, or, where its index is in table.rings, one per (r, theta) ring.
    r, theta, phi and the per-angle columns are formatted once for the grid, and each
    run of them is joined into one string per angle pair. The process that writes slab
    i fills it, by table.fill(i), just before it formats it, so that a forked child
    computes only the slabs it writes. A ring column is formatted once per ring, from
    its theta_count values of the slab, each text repeated over the ring's azimuths;
    a per-point column once per distinct bit pattern of each r slab.
    """
    slab = grid.theta_count * grid.phi_count
    azimuths = range(grid.phi_count)

    def ring_cells(column: memoryview, start: int, stop: int) -> list[str]:
        rings = column[start // grid.phi_count : stop // grid.phi_count]  # the rings of points start to stop
        return [cell for cell in _formatted(rings.tolist()) for _ in azimuths]

    def piece_text():
        phi = _formatted(grid.phi)
        parts = [[cell_sep.join((t, p)) for t in _formatted(grid.theta) for p in phi]]
        for k, column in enumerate(table.columns):
            if k in table.rings or len(column) == grid.size:  # filled slab by slab, also where the grid is one slab
                parts.append(partial(ring_cells if k in table.rings else _cells, _floats(column)))
                continue
            cells = _cells(_floats(column), 0, slab)
            if isinstance(parts[-1], list):
                parts[-1] = list(map(cell_sep.join, zip(parts[-1], cells)))
            else:
                parts.append(cells)
        radii = _formatted(grid.r)

        def text(i: int) -> str:
            table.fill(i)
            start, stop = i * slab, (i + 1) * slab
            cells = [p if isinstance(p, list) else p(start, stop) for p in parts]
            return row_sep.join(map(cell_sep.join, zip(repeat(radii[i], slab), *cells)))

        return text

    return Rows(grid.r_count * slab, grid.r_count, slab, piece_text, row_sep)

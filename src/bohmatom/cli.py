"""Command-line interface: reproducible field tables, trajectories and dilation reports.

All file values are in natural units (hbar = c = 1) except lifetime fields,
which are in seconds. Numbers are serialized with shortest round-trip
precision, CSV uses one '#' comment line, a single header row, comma
delimiters and LF line endings, and identical invocations produce
byte-identical files. Diagnostics go to stderr only. No command imports
numpy: `trajectory` integrates, checks and writes its rows on floats, and a
10 000-step Dirac run takes 0.35 s instead of 0.46 s and 23 MB instead of
38 MB per process (medians of 20 runs, on a shared 2-core Xeon host with
Python 3.11); `state` evaluates its point on floats, with the bits of the same
point's `field` row, in 0.13 s instead of 0.22 s and 18 MB instead of 31 MB
per process; `field` evaluates each factor once per value of its own grid
axis and writes each row from strings formatted once per axis value or once
per r slab.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import sys
from array import array
from functools import partial
from itertools import repeat

import click

from .dilation import excess_over_za_sq, make_report, mean_lorentz_factor
from .errors import DomainError, TrajectorySingularityError
from .physics_core import FINE_STRUCTURE, SpinOrientation, make_atom

_ALPHA_SCALING_STEPS = (1.0, 0.5, 0.1, 0.01)
#: Largest Laguerre degree n - l - 1 accepted. The radial recurrence and the
#: factorials in the norms grow with it: `field --model schrodinger --n 25002
#: --l 1 --m 1` takes about 0.5 s, and `state` with --n 1000000 took 62 s.
_MAX_LAGUERRE_DEGREE = 25_000
#: Largest l accepted. The Legendre recurrence and the factorials (n + l)! and
#: (l + |m|)! grow with it: the slowest `state` at this limit, such as
#: `--n 60001 --l 60000 --m 1`, takes about 0.8 s, and --l 999999 took 86 s.
_MAX_L = 60_000


def _write_files(out: str, texts: dict[str, str]) -> None:
    """Write each text to its path, or report the failure for --out and exit 1.

    Every text first goes to a new temporary file beside its path, and only
    once all of them are complete are they moved into place with os.replace:
    a failed write leaves no partial file and no existing file changed. A
    device or pipe, such as /dev/null, cannot be replaced and is written in place.
    """
    temps = {}
    try:
        for path, text in texts.items():
            in_place = os.path.exists(path) and not os.path.isfile(path)
            temps[path] = path if in_place else f"{path}.{os.getpid()}.tmp"
            with open(temps[path], "w" if in_place else "x", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for path, temp in temps.items():
            if temp != path:
                os.replace(temp, path)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc}")
    finally:
        for path, temp in temps.items():
            if temp != path and os.path.exists(temp):
                os.remove(temp)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


_NOT_FINITE = "the result is not finite: a value overflowed or is undefined"

#: Rows formatted at a time: bounds the cell strings alive at once.
_BLOCK_ROWS = 1024
#: The "rows" value _json_text stands in for a table; no other value of a document is this string.
_ROWS = "\0rows"


def _formatted(values: list) -> list[str]:
    """The repr of each distinct value of a block; the command fails unless all are finite."""
    if not all(map(math.isfinite, values)):
        _fail(_NOT_FINITE)
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
    """A 1-D float column (array('d'), a memoryview of floats, a numpy column or a list) as a
    contiguous memoryview of floats; a list or a strided column is copied."""
    if isinstance(column, list):
        return memoryview(array("d", column))
    view = memoryview(column)
    return view if view.c_contiguous else memoryview(array("d", view.tolist()))


def _table_text(table, cell_sep: str, row_sep: str) -> str:
    """The rows of a float table, each cell the repr of its float, joined by the separators.

    The table is a list of 1-D float columns (see _floats) or a 2-D numpy array,
    or a function of the two separators that returns the rows itself (the field
    table, see _grid_rows). Every value must be finite, else the command fails.
    Block by block, each column's cells are keyed by their bit pattern (so -0.0
    and 0.0 stay apart), and each distinct value is formatted once.
    """
    if callable(table):
        return table(cell_sep, row_sep)
    columns = [_floats(c) for c in (table.T if getattr(table, "ndim", 1) == 2 else table)]
    blocks = []
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = [_cells(column, start, start + _BLOCK_ROWS) for column in columns]
        blocks.append(row_sep.join(map(cell_sep.join, zip(*cells))))
    return row_sep.join(blocks)


def _grid_rows(grid, columns: list, cell_sep: str, row_sep: str) -> str:
    """The rows of a field table on a SphericalGrid: r, theta and phi, then the model's columns.

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
    slabs = []
    for i, r in enumerate(_formatted(grid.r)):
        cells = [p if isinstance(p, list) else _cells(p, i * slab, (i + 1) * slab) for p in parts]
        slabs.append(row_sep.join(map(cell_sep.join, zip(repeat(r, slab), *cells))))
    return row_sep.join(slabs)


def _json_text(doc: dict) -> str:
    """The document as indent-2 JSON; a "rows" table is written as its list of row lists would be."""
    table = doc.get("rows")
    if table is not None:
        rows = _table_text(table, ",\n      ", "\n    ],\n    [\n      ")
        doc = {**doc, "rows": _ROWS}
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:  # NaN or Infinity, which JSON cannot carry
        _fail(_NOT_FINITE)
    if table is None:
        return text
    head, _, tail = text.partition(json.dumps(_ROWS))
    if not rows:
        return head + "[]" + tail
    # One join builds the text: each + would copy all of it once more.
    return "".join([head, "[\n    [\n      ", rows, "\n    ]\n  ]", tail])


def _csv_text(comment: str, columns: list[str], table) -> str:
    lines = [f"# bohmatom {comment}", ",".join(columns)]
    rows = _table_text(table, ",", "\n")
    if rows:
        lines.append(rows)
    lines.append("")  # the final LF
    return "\n".join(lines)


def _document(command, model, z, alpha_scale, mass, **fields) -> dict:
    """A JSON document: the command and its resolved model and atom, then the fields."""
    return {"command": command, **model.header, "Z": z, "alpha_scale": alpha_scale, "mass": mass, **fields}


def _atom_options(fn):
    fn = click.option("--Z", "z", type=int, default=1, show_default=True, help="Nuclear charge.")(fn)
    fn = click.option(
        "--alpha-scale",
        type=float,
        default=1.0,
        show_default=True,
        help="Multiplier on the physical fine-structure constant.",
    )(fn)
    fn = click.option("--mass", type=float, default=1.0, show_default=True, help="Bound-particle mass in natural units.")(fn)
    return fn


def _model_options(fn):
    fn = click.option("--model", type=click.Choice(["schrodinger", "dirac"]), default="dirac", show_default=True)(fn)
    fn = click.option("--spin", type=click.Choice(["up", "down"]), default=None, help="Dirac only.")(fn)
    fn = click.option("--n", type=int, default=None, help="Schrodinger only.")(fn)
    fn = click.option("--l", type=int, default=None, help="Schrodinger only.")(fn)
    fn = click.option("--m", type=int, default=None, help="Schrodinger only.")(fn)
    return fn


def _make_atom(z: int, alpha_scale: float, mass: float):
    try:
        return make_atom(z, FINE_STRUCTURE * alpha_scale, mass)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc


def _resolve_model(model, spin, n, l, m, z, alpha_scale, mass):
    """Enforce the model-conditional flags, then build the model on its atom."""
    from .models import DiracGroundState, SchrodingerEigenstate
    from .schrodinger_states import QuantumNumbers

    if model == "schrodinger":
        if spin is not None:
            raise click.UsageError("--spin applies only to --model dirac")
        try:
            q = QuantumNumbers(n if n is not None else 1, l if l is not None else 0, m if m is not None else 0)
        except DomainError as exc:
            raise click.UsageError(str(exc)) from exc
        if q.l > _MAX_L:
            raise click.UsageError(f"l = {q.l} exceeds {_MAX_L}, the largest supported")
        if q.n - q.l - 1 > _MAX_LAGUERRE_DEGREE:
            raise click.UsageError(
                f"the Laguerre degree n - l - 1 = {q.n - q.l - 1} exceeds {_MAX_LAGUERRE_DEGREE}, the largest supported"
            )
        return SchrodingerEigenstate(q, _make_atom(z, alpha_scale, mass))
    if n is not None or l is not None or m is not None:
        raise click.UsageError("--n/--l/--m apply only to --model schrodinger")
    return DiracGroundState(SpinOrientation(spin if spin is not None else "up"), _make_atom(z, alpha_scale, mass))


@click.group()
def main():
    """Velocity fields, probability currents, trajectories and time-dilation
    reports for hydrogen-like atoms in the pilot-wave picture."""


@main.command("field")
@_model_options
@_atom_options
@click.option("--r-min", type=float, default=None, help="Grid start radius (natural units); default 0.2 Bohr radii.")
@click.option("--r-max", type=float, default=None, help="Grid end radius (natural units); default 5 Bohr radii.")
@click.option("--r-count", type=int, default=5, show_default=True)
@click.option("--theta-count", type=int, default=7, show_default=True, help="Cell-centered; odd counts include the equator.")
@click.option("--phi-count", type=int, default=8, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def field_cmd(model, spin, n, l, m, z, alpha_scale, mass, r_min, r_max, r_count, theta_count, phi_count, out, fmt):
    """Tabulate density, current and velocity on an (r, theta, phi) grid.

    Rows are ordered r-major, then theta, then phi. Columns: r, theta, phi,
    j0, j1, j2, j3, vx, vy, vz, speed (spatial components Cartesian).
    """
    from .grid import SphericalGrid

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    a0 = model.atom.bohr_radius
    r_lo = 0.2 * a0 if r_min is None else r_min
    r_hi = 5.0 * a0 if r_max is None else r_max
    if not 0.0 < r_lo <= r_hi < math.inf or r_count < 1 or theta_count < 1 or phi_count < 1:
        raise click.UsageError("invalid grid: need 0 < r-min <= r-max and positive counts")

    columns = ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
    grid = SphericalGrid(r_lo, r_hi, r_count, theta_count, phi_count)
    try:
        # The model reserves its per-point columns before it builds the axes or the first point.
        rows = partial(_grid_rows, grid, model.field_table(grid))
    except DomainError as exc:
        _fail(str(exc))
    except MemoryError:
        _fail(f"a grid of {grid.size} points does not fit in memory")

    if fmt == "csv":
        text = _csv_text("field table; natural units (hbar = c = 1); angles in radians", columns, rows)
    else:
        text = _json_text(_document("field", model, z, alpha_scale, mass, columns=columns, rows=rows))
    _write_files(out, {out: text})


@main.command("trajectory")
@_model_options
@_atom_options
@click.option("--r", "r0", type=float, default=None, help="Start radius (natural units); default one Bohr radius.")
@click.option("--theta", "theta0", type=float, default=math.pi / 2, show_default="pi/2")
@click.option("--phi", "phi0", type=float, default=0.0, show_default=True)
@click.option("--dt", type=float, default=None, help="Time step (natural units); default period/10000.")
@click.option("--steps", type=int, default=10000, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def trajectory_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, dt, steps, out, fmt):
    """Integrate dx/dt = v(x) with fixed-step RK4 from a starting point.

    Columns: t, x, y, z, vx, vy, vz, x_ref, y_ref, z_ref, deviation, where the
    reference is the exact circular orbit through the start and deviation is
    the Cartesian distance to it. CSV output carries the run summary in a
    '<out>.summary.json' sidecar; JSON output embeds it.
    """
    from .coords import SphericalPoint, norm3
    from .trajectory_engine import circular_orbit, integrate_trajectory

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    if steps < 0:
        raise click.UsageError("--steps must be nonnegative")
    if dt is not None and not (dt > 0.0 and math.isfinite(dt)):
        raise click.UsageError(f"--dt must be positive and finite, got {dt}")
    try:
        start = SphericalPoint(model.atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc

    aborted = False
    try:
        # Signed rotation rate of the exact circular orbit through the start; 0 where there is none.
        omega = model.angular_rate(start)
        period = 2.0 * math.pi / abs(omega) if omega else math.inf
        if dt is None:
            dt = period / 10000.0 if math.isfinite(period) else 1.0
        trajectory = integrate_trajectory(model.velocity_field(), start, dt, steps)
    except TrajectorySingularityError as exc:
        click.echo(f"error: {exc}", err=True)
        trajectory = exc.trajectory
        aborted = True
    except DomainError as exc:
        _fail(str(exc))
    except MemoryError:
        # The trajectory's columns are reserved up front, before the first step.
        _fail(f"--steps {steps} does not fit in memory")

    columns = ["t", "x", "y", "z", "vx", "vy", "vz", "x_ref", "y_ref", "z_ref", "deviation"]
    # Float buffers throughout: the trajectory's own columns, the exact circle and the distance to it.
    t, *xyz_velocity = trajectory.columns
    ref = circular_orbit(start, omega, t)
    deviation = array("d", map(norm3, *(map(operator.sub, a, b) for a, b in zip(xyz_velocity[:3], ref))))
    table = [t, *xyz_velocity, *ref, deviation]

    summary = {
        "dt": dt,
        "steps_requested": steps,
        "steps_completed": max(len(trajectory) - 1, 0),
        "period": period if math.isfinite(period) else None,
        "max_deviation": max(deviation, default=0.0),
        "aborted": aborted,
    }

    if fmt == "csv":
        comment = "trajectory; natural units (hbar = c = 1); reference is the exact circular orbit"
        texts = {out: _csv_text(comment, columns, table), out + ".summary.json": _json_text(summary)}
    else:
        doc = _document("trajectory", model, z, alpha_scale, mass, columns=columns, rows=table, summary=summary)
        texts = {out: _json_text(doc)}
    _write_files(out, texts)
    if aborted:
        sys.exit(1)


@main.command("dilate")
@click.option("--spin", type=click.Choice(["up", "down"]), default="up", show_default=True)
@_atom_options
@click.option("--rest-lifetime", type=float, required=True, help="Rest-frame lifetime in seconds.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def dilate_cmd(spin, z, alpha_scale, mass, rest_lifetime, out):
    """Write the JSON lifetime-dilation report for the relativistic ground state.

    Lifetimes are in seconds. The report also carries the coupling-scaling
    table (scales 1, 0.5, 0.1, 0.01 on top of --alpha-scale) used to check
    the non-relativistic limit, where mean_gamma must approach 1.
    """
    if not (rest_lifetime > 0.0 and math.isfinite(rest_lifetime)):
        raise click.UsageError(f"--rest-lifetime must be positive and finite, got {rest_lifetime}")
    spin_o = SpinOrientation(spin)
    atom = _make_atom(z, alpha_scale, mass)
    report = make_report(spin_o, atom, rest_lifetime)

    scaling = []
    for s in _ALPHA_SCALING_STEPS:
        atom_s = _make_atom(z, alpha_scale * s, mass)
        if atom_s.za**2 == 0.0:
            _fail(f"coupling too small: (Z*alpha)^2 underflows to 0 at Z*alpha = {atom_s.za!r}")
        mg = report.mean_gamma if s == 1.0 else mean_lorentz_factor(spin_o, atom_s)
        scaling.append(
            {"scale": s, "alpha": atom_s.alpha, "mean_gamma": mg, "excess_over_za_sq": excess_over_za_sq(atom_s)}
        )

    _write_files(out, {out: _json_text({**dataclasses.asdict(report), "alpha_scaling": scaling})})


@main.command("state")
@_model_options
@_atom_options
@click.option("--r", "r0", type=float, default=None, help="Radius (natural units); default one Bohr radius.")
@click.option("--theta", "theta0", type=float, default=math.pi / 2, show_default="pi/2")
@click.option("--phi", "phi0", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def state_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, out):
    """Print the wavefunction or spinor (and local flow data) at one point."""
    from .coords import SphericalPoint

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    try:
        point = SphericalPoint(model.atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc

    xyz = list(point.xyz())
    point_doc = {"r": point.r, "theta": point.theta, "phi": point.phi, "xyz": xyz}
    try:
        doc = _document("state", model, z, alpha_scale, mass, point=point_doc, **model.describe(point))
    except DomainError as exc:
        _fail(str(exc))

    text = _json_text(doc)
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_files(out, {out: text})


if __name__ == "__main__":
    main()

"""Command-line interface: reproducible field tables, trajectories and dilation reports.

All file values are in natural units (hbar = c = 1) except lifetime fields,
which are in seconds. Numbers are serialized with shortest round-trip
precision, CSV uses one '#' comment line, a single header row, comma
delimiters and LF line endings, and identical invocations produce
byte-identical files. Diagnostics go to stderr only.

Each command's options are declared once, as data, in _COMMANDS. The program
entry `run` parses a well-formed argv against that table and calls the
command itself, so such a run imports neither click nor dataclasses; help,
usage errors and any other argv go to the click group `main`, which is built
from the same table the first time it is read. No command imports numpy, and
each imports only the modules it runs: `trajectory` integrates, checks and
writes its rows on floats; `state` evaluates its point on floats, with the
bits of the same point's `field` row; `field` evaluates each factor once per
value of its own grid axis. The table writer (`writer`) formats a large table
in two processes. `run` ends the process as soon as its output is flushed.
Per process, a 10 000-step Dirac `trajectory` takes 0.13 s, a Dirac 30^3
`field` 0.12 s, a `state` 0.05 s and `--help` 0.06 s (medians of 11 runs, on
a shared 2-core Xeon host with Python 3.11; 0.14, 0.14, 0.07 and 0.06 s when
every run imported click).
"""

from __future__ import annotations

import atexit
import errno
import math
import operator
import os
import stat
import sys
from array import array
from functools import partial

from .errors import DomainError, TrajectorySingularityError, UsageError
from .physics_core import FINE_STRUCTURE, SpinOrientation, make_atom

_ALPHA_SCALING_STEPS = (1.0, 0.5, 0.1, 0.01)
#: Largest Laguerre degree n - l - 1 accepted. The radial recurrence and the
#: factorials in the norms grow with it: `field --model schrodinger --n 25002
#: --l 1 --m 1` takes about 0.09 s and its `state` 0.07 s (medians of 11
#: runs), and `state` with --n 1000000 took 62 s.
_MAX_LAGUERRE_DEGREE = 25_000
#: Largest l accepted. The Legendre recurrence and the factorials (n + l)! and
#: (l + |m|)! grow with it: the slowest `state` at this limit, such as
#: `--n 60001 --l 60000 --m 1`, takes about 0.6 s (median of 9 runs), and
#: --l 999999 took 86 s.
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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


_NOT_FINITE = "the result is not finite: a value overflowed or is undefined"

#: The "rows" value _json_text stands in for a table; no other value of a document is this string.
_ROWS = "\0rows"


def _table_pieces(table, cell_sep: str, row_sep: str) -> list[str]:
    """writer.table_text; the command fails unless every value of the table is finite."""
    from .writer import NotFiniteError, table_text

    try:
        return table_text(table, cell_sep, row_sep)
    except NotFiniteError:
        _fail(_NOT_FINITE)


def _json_text(doc: dict) -> str:
    """The document as indent-2 JSON; a "rows" table is written as its list of row lists would be."""
    import json  # here, so that a CSV field table loads neither json nor re

    table = doc.get("rows")
    if table is not None:
        rows = _table_pieces(table, ",\n      ", "\n    ],\n    [\n      ")
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
    return "".join([head, "[\n    [\n      ", *rows, "\n    ]\n  ]", tail])


def _csv_text(comment: str, columns: list[str], table) -> str:
    rows = _table_pieces(table, ",", "\n")
    header = f"# bohmatom {comment}\n{','.join(columns)}\n"
    return "".join([header, *rows, "\n" if rows else ""])


def _document(command, model, z, alpha_scale, mass, **fields) -> dict:
    """A JSON document: the command and its resolved model and atom, then the fields."""
    return {"command": command, **model.header, "Z": z, "alpha_scale": alpha_scale, "mass": mass, **fields}


def _make_atom(z: int, alpha_scale: float, mass: float):
    try:
        return make_atom(z, FINE_STRUCTURE * alpha_scale, mass)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_model(model, spin, n, l, m, z, alpha_scale, mass):
    """Enforce the model-conditional flags, then build the model on its atom."""
    from .models import DiracGroundState, SchrodingerEigenstate

    if model == "schrodinger":
        from .schrodinger_states import QuantumNumbers

        if spin is not None:
            raise UsageError("--spin applies only to --model dirac")
        try:
            q = QuantumNumbers(n if n is not None else 1, l if l is not None else 0, m if m is not None else 0)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        if q.l > _MAX_L:
            raise UsageError(f"l = {q.l} exceeds {_MAX_L}, the largest supported")
        if q.n - q.l - 1 > _MAX_LAGUERRE_DEGREE:
            raise UsageError(
                f"the Laguerre degree n - l - 1 = {q.n - q.l - 1} exceeds {_MAX_LAGUERRE_DEGREE}, the largest supported"
            )
        return SchrodingerEigenstate(q, _make_atom(z, alpha_scale, mass))
    if n is not None or l is not None or m is not None:
        raise UsageError("--n/--l/--m apply only to --model schrodinger")
    return DiracGroundState(SpinOrientation(spin if spin is not None else "up"), _make_atom(z, alpha_scale, mass))


def field_cmd(model, spin, n, l, m, z, alpha_scale, mass, r_min, r_max, r_count, theta_count, phi_count, out, fmt):
    """Tabulate density, current and velocity on an (r, theta, phi) grid.

    Rows are ordered r-major, then theta, then phi. Columns: r, theta, phi,
    j0, j1, j2, j3, vx, vy, vz, speed (spatial components Cartesian).
    """
    from .grid import SphericalGrid
    from .writer import grid_rows

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    a0 = model.atom.bohr_radius
    r_lo = 0.2 * a0 if r_min is None else r_min
    r_hi = 5.0 * a0 if r_max is None else r_max
    if not 0.0 < r_lo <= r_hi < math.inf or r_count < 1 or theta_count < 1 or phi_count < 1:
        raise UsageError("invalid grid: need 0 < r-min <= r-max and positive counts")

    columns = ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
    grid = SphericalGrid(r_lo, r_hi, r_count, theta_count, phi_count)
    try:
        # The model reserves its per-point columns before it builds the axes or the first point.
        rows = partial(grid_rows, grid, model.field_table(grid))
    except DomainError as exc:
        _fail(str(exc))
    except MemoryError:
        _fail(f"a grid of {grid.size} points does not fit in memory")

    if fmt == "csv":
        text = _csv_text("field table; natural units (hbar = c = 1); angles in radians", columns, rows)
    else:
        text = _json_text(_document("field", model, z, alpha_scale, mass, columns=columns, rows=rows))
    _write_files(out, {out: text})


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
        raise UsageError("--steps must be nonnegative")
    if dt is not None and not (dt > 0.0 and math.isfinite(dt)):
        raise UsageError(f"--dt must be positive and finite, got {dt}")
    try:
        start = SphericalPoint(model.atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc

    aborted = False
    try:
        # Signed rotation rate of the exact circular orbit through the start; 0 where there is none.
        omega = model.angular_rate(start)
        period = 2.0 * math.pi / abs(omega) if omega else math.inf
        if dt is None:
            dt = period / 10000.0 if math.isfinite(period) else 1.0
        trajectory = integrate_trajectory(model.velocity_field(), start, dt, steps)
    except TrajectorySingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
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


def dilate_cmd(spin, z, alpha_scale, mass, rest_lifetime, out):
    """Write the JSON lifetime-dilation report for the relativistic ground state.

    Lifetimes are in seconds. The report also carries the coupling-scaling
    table (scales 1, 0.5, 0.1, 0.01 on top of --alpha-scale) used to check
    the non-relativistic limit, where mean_gamma must approach 1.
    """
    from .dilation import excess_over_za_sq, make_report, mean_lorentz_factor

    if not (rest_lifetime > 0.0 and math.isfinite(rest_lifetime)):
        raise UsageError(f"--rest-lifetime must be positive and finite, got {rest_lifetime}")
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

    _write_files(out, {out: _json_text({**report._asdict(), "alpha_scaling": scaling})})


def state_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, out):
    """Print the wavefunction or spinor (and local flow data) at one point."""
    from .coords import SphericalPoint

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    try:
        point = SphericalPoint(model.atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc

    xyz = list(point.xyz())
    point_doc = {"r": point.r, "theta": point.theta, "phi": point.phi, "xyz": xyz}
    try:
        doc = _document("state", model, z, alpha_scale, mass, point=point_doc, **model.describe(point))
    except DomainError as exc:
        _fail(str(exc))

    text = _json_text(doc)
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # here, so that a closed pipe ends the command as _main ends it
    else:
        _write_files(out, {out: text})


#: The type of --out: a path that is not a directory, which click.Path(dir_okay=False) also takes.
_PATH = "path"


def _option(flag, kind, default=None, *, name=None, required=False, help=None, show_default=None):
    """One option of a command: its flag, parameter name (the flag's, as click derives it, unless
    given), type (int, float, a tuple of choices or _PATH), default, whether it is required, and
    its help text and [default: ...] note."""
    return flag, name or flag[2:].replace("-", "_").lower(), kind, default, required, help, show_default


_MODEL_OPTIONS = (
    _option("--m", int, help="Schrodinger only."),
    _option("--l", int, help="Schrodinger only."),
    _option("--n", int, help="Schrodinger only."),
    _option("--spin", ("up", "down"), help="Dirac only."),
    _option("--model", ("schrodinger", "dirac"), "dirac", show_default=True),
)
_ATOM_OPTIONS = (
    _option("--mass", float, 1.0, show_default=True, help="Bound-particle mass in natural units."),
    _option("--alpha-scale", float, 1.0, show_default=True, help="Multiplier on the physical fine-structure constant."),
    _option("--Z", int, 1, show_default=True, help="Nuclear charge."),
)
_ANGLE_OPTIONS = (
    _option("--theta", float, math.pi / 2, name="theta0", show_default="pi/2"),
    _option("--phi", float, 0.0, name="phi0", show_default=True),
)
_OUT = _option("--out", _PATH, required=True)
_FORMAT = _option("--format", ("csv", "json"), "csv", name="fmt", show_default=True)

#: Each command's body and options, in the order --help lists them.
_COMMANDS = {
    "field": (field_cmd, (
        *_MODEL_OPTIONS,
        *_ATOM_OPTIONS,
        _option("--r-min", float, help="Grid start radius (natural units); default 0.2 Bohr radii."),
        _option("--r-max", float, help="Grid end radius (natural units); default 5 Bohr radii."),
        _option("--r-count", int, 5, show_default=True),
        _option("--theta-count", int, 7, show_default=True, help="Cell-centered; odd counts include the equator."),
        _option("--phi-count", int, 8, show_default=True),
        _OUT,
        _FORMAT,
    )),
    "trajectory": (trajectory_cmd, (
        *_MODEL_OPTIONS,
        *_ATOM_OPTIONS,
        _option("--r", float, name="r0", help="Start radius (natural units); default one Bohr radius."),
        *_ANGLE_OPTIONS,
        _option("--dt", float, help="Time step (natural units); default period/10000."),
        _option("--steps", int, 10000, show_default=True),
        _OUT,
        _FORMAT,
    )),
    "dilate": (dilate_cmd, (
        _option("--spin", ("up", "down"), "up", show_default=True),
        *_ATOM_OPTIONS,
        _option("--rest-lifetime", float, required=True, help="Rest-frame lifetime in seconds."),
        _OUT,
    )),
    "state": (state_cmd, (
        *_MODEL_OPTIONS,
        *_ATOM_OPTIONS,
        _option("--r", float, name="r0", help="Radius (natural units); default one Bohr radius."),
        *_ANGLE_OPTIONS,
        _option("--out", _PATH, help="Write JSON here instead of stdout."),
    )),
}

_HELP = (
    "Velocity fields, probability currents, trajectories and time-dilation reports for hydrogen-like atoms "
    "in the pilot-wave picture."
)


def _convert(kind, value: str):
    """The value as click converts it to the option's type; ValueError where click rejects it."""
    if kind is _PATH:
        try:
            mode = os.stat(value).st_mode
        except OSError:  # no such file yet
            return value
        if stat.S_ISDIR(mode) or not os.access(value, os.R_OK):
            raise ValueError(value)
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(value)
        return value
    return kind(value)


def _parse(args: list[str]):
    """The body and keyword arguments that click would call for a well-formed argv; None for any other.

    A well-formed argv is a command name followed by --flag value pairs of that command's options,
    each value one that click converts, with every required flag present; where a flag repeats, its
    last value counts, as in click. Anything else, such as --help, --flag=value, an unknown flag, a
    flag without its value, '--' or a value click rejects, is left to click to parse and report.
    """
    if not args or args[0] not in _COMMANDS or len(args) % 2 == 0:
        return None
    body, options = _COMMANDS[args[0]]
    given = dict(zip(args[1::2], args[2::2]))
    params = {}
    for flag, name, kind, default, required, _, _ in options:
        if flag in given:
            try:
                params[name] = _convert(kind, given.pop(flag))
            except ValueError:
                return None
        elif required:
            return None
        else:
            params[name] = default
    return None if given else (body, params)


def __getattr__(name: str):
    """`main`, the click group of the commands, built from _COMMANDS on first access (PEP 562). It
    prints help and reports usage errors; click is imported only for it."""
    if name != "main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global main
    import click

    def command(command_name, body, options):
        def callback(**params):
            try:
                body(**params)
            except UsageError as exc:
                raise click.UsageError(str(exc)) from exc

        params = [
            click.Option(
                [flag, param],
                type=(
                    click.Path(dir_okay=False) if kind is _PATH
                    else click.Choice(kind) if isinstance(kind, tuple)
                    else kind
                ),
                required=required,
                help=help_text,
                show_default=show_default,
                # A required option has no default at all: click then reports it as missing.
                **({} if required else {"default": default}),
            )
            for flag, param, kind, default, required, help_text, show_default in options
        ]
        return click.Command(command_name, callback=callback, params=params, help=body.__doc__)

    main = click.Group("main", commands=[command(name, *spec) for name, spec in _COMMANDS.items()], help=_HELP)
    return main


def _main() -> None:
    """Run the command of a well-formed sys.argv directly, and any other argv through the click group.

    A usage error the command raises goes to the group too, which runs the command again and reports
    the error as it reports its own, and so does a shell-completion request (a _<PROG>_COMPLETE
    environment variable), which click answers before it parses. An interrupt and a broken pipe end
    the command as they end it in click's standalone mode.
    """
    completion = any(key.startswith("_") and key.endswith("_COMPLETE") for key in os.environ)
    call = None if completion else _parse(sys.argv[1:])
    if call is not None:
        body, params = call
        try:
            body(**params)
            return
        except UsageError:
            pass
        except (EOFError, KeyboardInterrupt):
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise
            from click.utils import PacifyFlushWrapper  # the last flushes then ignore the broken pipe

            sys.stdout, sys.stderr = PacifyFlushWrapper(sys.stdout), PacifyFlushWrapper(sys.stderr)
            sys.exit(1)
    group = globals().get("main") or __getattr__("main")  # built on first use
    group()


def _traced() -> bool:
    """Whether a trace or profile function, or a sys.monitoring tool, watches this process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, where cProfile and coverage may use it
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def run() -> None:
    """The program entry: _main(), then an exit without tearing the interpreter down.

    The exit status is that of the SystemExit _main() ends with (0 where it
    returns), read as sys.exit reads it. The atexit handlers run and stdout and
    stderr are flushed; then os._exit ends the process, which skips freeing
    every object and module one by one (8-33 ms per process). Where a tracer, profiler or debugger watches the
    process, or the exit is not a plain status, or a flush fails, the interpreter
    exits as usual instead, so those report as they always do.
    """
    if _traced():
        _main()
        return
    status = 0
    try:
        _main()
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
        if not isinstance(status, int):
            raise
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()

"""Command-line interface: reproducible field tables, trajectories and dilation reports.

All file values are in natural units (hbar = c = 1) except lifetime fields,
which are in seconds. Numbers are serialized with shortest round-trip
precision, CSV uses one '#' comment line, a single header row, comma
delimiters and LF line endings, and identical invocations produce
byte-identical files. Diagnostics go to stderr only.

Each command's options are declared once, as data, in _COMMANDS. The program
entry `run` parses a well-formed argv against that table and calls the
command itself, and usage.py renders the page of `--help` or `COMMAND --help`
from it: neither imports click. Usage errors and any other argv go to the
click group `main`, which usage.py builds from the table on first access.
Both run a body through _run, which reports a DomainError as its `error:`
line and a NotFiniteError as _NOT_FINITE, with exit status 1. Each command
imports only the modules it runs, which hold its physics, and neither numpy
nor json: _json writes JSON as json.dumps(indent=2) does. _csv_text and _json
write a table's rows through writer.Rows into the output's temp file, or a
device or pipe, one piece at a time, each computed by the process that writes
it. `run` ends the process as soon as its output is flushed. The BENCH_*.json
files hold the measured runs.
"""

from __future__ import annotations

import atexit
import errno
import math
import os
import stat
import sys
from array import array
from types import SimpleNamespace

from .errors import DomainError, NotFiniteError, UsageError

#: Largest Laguerre degree n - l - 1 accepted. The radial recurrence and the
#: factorials in the norms grow with it: CHANGES.md records the times of
#: `field` and `state` at this limit, and of `state` with --n 1000000.
_MAX_LAGUERRE_DEGREE = 25_000
#: Largest l accepted. The Legendre recurrence and the factorials (n + l)! and
#: (l + |m|)! grow with it: CHANGES.md records the time of the slowest `state`
#: at this limit, `--n 60001 --l 60000 --m 1`, and of one with --l 999999.
_MAX_L = 60_000


def _in_place(path: str) -> bool:
    """Whether path exists but is not a regular file (a device or a pipe): it is written in place."""
    return os.path.exists(path) and not os.path.isfile(path)


def _write_files(out: str, texts: dict[str, list]) -> None:
    """Write each text, a list of strings and parts that write themselves (a writer.Rows, or a part
    of a JSON text that _json defers), to its path, or report the failure for --out and exit 1. A
    value that is not finite raises NotFiniteError once every temporary file is removed.

    Every text goes into its file part by part. A regular file's text first goes to a new temporary
    file beside the file its path names, through any symbolic link, and only once all of them are
    complete are they moved into place with os.replace: a failed write leaves no partial file and
    no existing file changed. A device or pipe, such as /dev/null, is written in place: where its
    text fails partway, the parts before the failure have already gone into it.
    """
    temps = {}
    try:
        for path, parts in texts.items():
            in_place = _in_place(path)
            target = path if in_place else os.path.realpath(path)
            temps[target] = target if in_place else f"{target}.{os.getpid()}.tmp"
            with open(temps[target], "w" if in_place else "x", encoding="utf-8", newline="\n") as fh:
                for part in parts:
                    fh.write(part) if isinstance(part, str) else part.write(fh)
        for target, temp in temps.items():
            if temp != target:
                os.replace(temp, target)
    except OSError as exc:  # its message may name the temp path, which holds the pid
        _fail(f"cannot write {out}: {exc.strerror}")
    finally:
        for target, temp in temps.items():
            if temp != target and os.path.exists(temp):
                os.remove(temp)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _stdout_failed(exc: OSError) -> None:
    """End the command for a failed write to stdout: with one error line and exit 1, or as click ends a broken pipe."""
    if exc.errno == errno.EPIPE:
        raise exc
    null = os.open(os.devnull, os.O_WRONLY)
    try:  # the interpreter flushes stdout again as it exits: what is left of the text goes to the null device
        os.dup2(null, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # stdout is closed, or has no file descriptor
        pass
    os.close(null)
    _fail(f"cannot write stdout: {exc.strerror}")


def _print(parts) -> None:
    """Write the parts to stdout and flush it, here, so that a failed write ends the command (see _stdout_failed)."""
    try:
        if sys.stdout is None:  # closed before the program started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except OSError as exc:
        _stdout_failed(exc)


_NOT_FINITE = "the result is not finite: a value overflowed or is undefined"


def _run(body, params: dict) -> None:
    """Run a command body with its parameters: a DomainError it raises ends the command with its one
    error line, and a NotFiniteError with _NOT_FINITE, each with exit status 1. A UsageError goes to
    the caller, which reports it as click reports its own."""
    try:
        body(**params)
    except DomainError as exc:
        _fail(str(exc))
    except NotFiniteError:
        _fail(_NOT_FINITE)


_JSON_ESCAPES = {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}  # JSON's, by UTF-16 code unit


def _json(value, indent: str):
    """value, of dicts with str keys, lists, tuples, str, int, float, bool and None, as json.dumps(value,
    indent=2, allow_nan=False) writes it at the indent, in strings and parts: a table (see writer.Rows)
    as its list of row lists, and a callable as a part that writes the value it gives once it is
    reached. NotFiniteError for NaN and infinities."""
    if isinstance(value, str):
        units = array("H", value.encode("utf-16", "surrogatepass"))[1:]  # after the byte-order mark
        yield '"' + "".join(_JSON_ESCAPES.get(u) or (chr(u) if 31 < u < 127 else f"\\u{u:04x}") for u in units) + '"'
    elif value is None or isinstance(value, bool):
        yield "null" if value is None else "true" if value else "false"
    elif isinstance(value, float) and not math.isfinite(value):
        raise NotFiniteError(value)
    elif isinstance(value, (int, float)):
        yield int.__repr__(value) if isinstance(value, int) else float.__repr__(value)
    elif hasattr(value, "piece_rows"):  # a table: the list of its rows, each the list of its cells
        from .writer import Rows

        row, cell = "\n" + indent + "  ", "\n" + indent + "    "
        rows = Rows(value, "," + cell, row + "]," + row + "[" + cell)
        yield from ("[" + row + "[" + cell, rows, row + "]\n" + indent + "]") if rows else ("[]",)
    elif callable(value):  # called when its part is written, after the parts before it
        yield SimpleNamespace(write=lambda fh: fh.writelines(_json(value(), indent)))
    else:
        inner, keyed = "\n" + indent + "  ", isinstance(value, dict)
        opening, closing = "{}" if keyed else "[]"
        for k, item in enumerate(value.items() if keyed else value):
            yield ("," if k else opening) + inner
            if keyed:
                key, item = item
                yield from (*_json(key, ""), ": ")
            yield from _json(item, indent + "  ")
        yield ("\n" + indent if value else opening) + closing


def _json_text(doc: dict) -> list:
    """The document's JSON text (see _json) and a newline, as the parts _write_files takes."""
    return [*_json(doc, ""), "\n"]


def _csv_text(comment: str, table) -> list:
    """The CSV text of a table (see writer.Rows) under its column names, as the parts _write_files takes."""
    from .writer import Rows

    rows = Rows(table, ",", "\n")
    return [f"# bohmatom {comment}\n{','.join(table.names)}\n", rows, "\n" if rows else ""]


def _document(command, model, z, alpha_scale, mass, **fields) -> dict:
    """A JSON document: the command and its resolved model and atom, then the fields."""
    return {"command": command, **model.header, "Z": z, "alpha_scale": alpha_scale, "mass": mass, **fields}


def _usage(build, *args):
    """build(*args) of values from the command line: a DomainError it raises is a usage error."""
    try:
        return build(*args)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _make_atom(z: int, alpha_scale: float, mass: float):
    from .physics_core import FINE_STRUCTURE, make_atom  # here, so that --help loads none of the physics

    return _usage(make_atom, z, FINE_STRUCTURE * alpha_scale, mass)


def _point(model, r0, theta0, phi0):
    """The start or point of --r, --theta and --phi, where --r defaults to one Bohr radius of the model's atom."""
    from .coords import SphericalPoint

    return _usage(SphericalPoint, model.atom.bohr_radius if r0 is None else r0, theta0, phi0)


def _resolve_model(model, spin, n, l, m, z, alpha_scale, mass):
    """Enforce the model-conditional flags, then build the model on its atom."""
    from .models import DiracGroundState, SchrodingerEigenstate
    from .physics_core import SpinOrientation

    if model == "schrodinger":
        from .schrodinger_states import QuantumNumbers

        if spin is not None:
            raise UsageError("--spin applies only to --model dirac")
        q = _usage(QuantumNumbers, n if n is not None else 1, l if l is not None else 0, m if m is not None else 0)
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

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    a0 = model.atom.bohr_radius
    r_lo = 0.2 * a0 if r_min is None else r_min
    r_hi = 5.0 * a0 if r_max is None else r_max
    if not 0.0 < r_lo <= r_hi < math.inf or r_count < 1 or theta_count < 1 or phi_count < 1:
        raise UsageError("invalid grid: need 0 < r-min <= r-max and positive counts")

    grid = SphericalGrid(r_lo, r_hi, r_count, theta_count, phi_count)
    try:
        # The model reserves its per-point columns before it builds the axes or the first point.
        table = model.field_table(grid)
    except MemoryError:
        _fail(f"a grid of {grid.size} points does not fit in memory")

    if fmt == "csv":
        text = _csv_text("field table; natural units (hbar = c = 1); angles in radians", table)
    else:
        text = _json_text(_document("field", model, z, alpha_scale, mass, columns=table.names, rows=table))
    _write_files(out, {out: text})


def trajectory_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, dt, steps, out, fmt):
    """Integrate dx/dt = v(x) with fixed-step RK4 from a starting point.

    Columns: t, x, y, z, vx, vy, vz, x_ref, y_ref, z_ref, deviation, where the
    reference is the exact circular orbit through the start and deviation is
    the Cartesian distance to it. CSV output carries the run summary in a
    '<out>.summary.json' sidecar; JSON output embeds it.
    """
    from .trajectory_engine import TrajectoryTable

    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    if steps < 0:
        raise UsageError("--steps must be nonnegative")
    if dt is not None and not (dt > 0.0 and math.isfinite(dt)):
        raise UsageError(f"--dt must be positive and finite, got {dt}")
    start = _point(model, r0, theta0, phi0)
    if fmt == "csv" and _in_place(out):
        raise UsageError(f"--out {out} is not a regular file, so no summary can go beside it: use --format json")
    try:
        table = TrajectoryTable(model, start, dt, steps)
    except MemoryError:  # the trajectory's columns are reserved before the first step
        _fail(f"--steps {steps} does not fit in memory")
    if table.error is not None:
        print(f"error: {table.error}", file=sys.stderr)
    # Writing the rows fills the deviation column, which the summary reads after them.
    if fmt == "csv":
        comment = "trajectory; natural units (hbar = c = 1); reference is the exact circular orbit"
        texts = {out: _csv_text(comment, table), out + ".summary.json": _json_text(table.summary)}
    else:
        fields = {"columns": table.names, "rows": table, "summary": table.summary}
        texts = {out: _json_text(_document("trajectory", model, z, alpha_scale, mass, **fields))}
    _write_files(out, texts)
    if table.error is not None:
        sys.exit(1)


def dilate_cmd(spin, z, alpha_scale, mass, rest_lifetime, out):
    """Write the JSON lifetime-dilation report for the relativistic ground state.

    Lifetimes are in seconds. The report also carries the coupling-scaling
    table (scales 1, 0.5, 0.1, 0.01 on top of --alpha-scale) used to check
    the non-relativistic limit, where mean_gamma must approach 1.
    """
    from .dilation import alpha_scaling, make_report
    from .physics_core import SpinOrientation

    if not (rest_lifetime > 0.0 and math.isfinite(rest_lifetime)):
        raise UsageError(f"--rest-lifetime must be positive and finite, got {rest_lifetime}")
    spin_o = SpinOrientation(spin)
    atom = _make_atom(z, alpha_scale, mass)
    report = make_report(spin_o, atom, rest_lifetime)
    scaling = alpha_scaling(spin_o, atom, alpha_scale, report)
    _write_files(out, {out: _json_text({**report._asdict(), "alpha_scaling": scaling})})


def state_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, out):
    """Print the wavefunction or spinor (and local flow data) at one point."""
    model = _resolve_model(model, spin, n, l, m, z, alpha_scale, mass)
    point = _point(model, r0, theta0, phi0)
    point_doc = {"r": point.r, "theta": point.theta, "phi": point.phi, "xyz": list(point.xyz())}
    text = _json_text(_document("state", model, z, alpha_scale, mass, point=point_doc, **model.describe(point)))
    if out is None:
        _print(text)
    else:
        _write_files(out, {out: text})


#: The type of --out: a path that is not a directory, which click.Path(dir_okay=False) also takes.
_PATH = "path"


def _option(flag, kind, default=None, *, name=None, required=False, help=None, show_default=None):
    """One option of a command: its flag, parameter name (the flag's, as click derives it, unless given), type
    (int, float, a tuple of choices or _PATH), default, whether it is required, its help, and the text its help
    page shows in place of the default. The page (usage.page) notes every default that is not None, as click
    does for these declarations with show_default."""
    return flag, name or flag[2:].replace("-", "_").lower(), kind, default, required, help, show_default


_MODEL_OPTIONS = (
    _option("--m", int, help="Schrodinger only."),
    _option("--l", int, help="Schrodinger only."),
    _option("--n", int, help="Schrodinger only."),
    _option("--spin", ("up", "down"), help="Dirac only."),
    _option("--model", ("schrodinger", "dirac"), "dirac"),
)
_ATOM_OPTIONS = (
    _option("--mass", float, 1.0, help="Bound-particle mass in natural units."),
    _option("--alpha-scale", float, 1.0, help="Multiplier on the physical fine-structure constant."),
    _option("--Z", int, 1, help="Nuclear charge."),
)
_ANGLE_OPTIONS = (
    _option("--theta", float, math.pi / 2, name="theta0", show_default="pi/2"),
    _option("--phi", float, 0.0, name="phi0"),
)
_OUT = _option("--out", _PATH, required=True)
_FORMAT = _option("--format", ("csv", "json"), "csv", name="fmt")

#: Each command's body and options, in the order --help lists them.
_COMMANDS = {
    "field": (field_cmd, (
        *_MODEL_OPTIONS,
        *_ATOM_OPTIONS,
        _option("--r-min", float, help="Grid start radius (natural units); default 0.2 Bohr radii."),
        _option("--r-max", float, help="Grid end radius (natural units); default 5 Bohr radii."),
        _option("--r-count", int, 5),
        _option("--theta-count", int, 7, help="Cell-centered; odd counts include the equator."),
        _option("--phi-count", int, 8),
        _OUT,
        _FORMAT,
    )),
    "trajectory": (trajectory_cmd, (
        *_MODEL_OPTIONS,
        *_ATOM_OPTIONS,
        _option("--r", float, name="r0", help="Start radius (natural units); default one Bohr radius."),
        *_ANGLE_OPTIONS,
        _option("--dt", float, help="Time step (natural units); default period/10000."),
        _option("--steps", int, 10000),
        _OUT,
        _FORMAT,
    )),
    "dilate": (dilate_cmd, (
        _option("--spin", ("up", "down"), "up"),
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
    """`main`, the click group of the commands (see usage.group), built on first access (PEP 562)."""
    if name != "main":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global main
    from .usage import group

    main = group(sys.modules[__name__])
    return main


def _main() -> None:
    """Run the command of a well-formed sys.argv directly, print the page of `--help` or `COMMAND --help`
    (usage.print_help), and run any other argv, and a usage error the command raises, through the click
    group, which runs the command again and reports the error as it reports its own; so too a
    shell-completion request (a _<PROG>_COMPLETE environment variable), which click answers before it
    parses. An interrupt and a broken pipe end the command as they end it in click's standalone mode."""
    args = sys.argv[1:]
    if any(key.startswith("_") and key.endswith("_COMPLETE") for key in os.environ):
        call = None
    elif args in (["--help"], *([name, "--help"] for name in _COMMANDS)):
        from .usage import print_help

        call = print_help, {"cli": sys.modules[__name__], "command": args[0] if len(args) == 2 else None}
    else:
        call = _parse(args)
    if call is not None:
        try:
            _run(*call)
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
    (globals().get("main") or __getattr__("main"))()  # the click group, built on first use


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
    every object and module one by one (BENCH_15.json measures the saving).
    Where a tracer, profiler or debugger watches the process, or the exit is not
    a plain status, or a flush fails, the interpreter exits as usual instead, so
    those report as they always do.
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

"""Command-line interface: reproducible field tables, trajectories and dilation reports.

All file values are in natural units (hbar = c = 1) except lifetime fields,
which are in seconds. Numbers are serialized with shortest round-trip
precision, CSV uses one '#' comment line, a single header row, comma
delimiters and LF line endings, and identical invocations produce
byte-identical files. Diagnostics go to stderr only.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from .coords import SphericalPoint, SphericalPoints, vector_to_cartesian, vector_to_spherical
from .dilation import excess_over_za_sq, lorentz_factor, make_report, mean_lorentz_factor
from .dirac_states import SpinOrientation, bohm_velocity, dirac_current, dirac_ground_state
from .errors import DomainError, TrajectorySingularityError
from .physics_core import FINE_STRUCTURE, make_atom
from .schrodinger_states import QuantumNumbers, bohm_momentum, hydrogen_wavefunction, polar_decompose, probability_current
from .trajectory_engine import circular_orbit_xyz, dirac_velocity_field, integrate_trajectory, schrodinger_velocity_field

_ALPHA_SCALING_STEPS = (1.0, 0.5, 0.1, 0.01)


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
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)
    finally:
        for path, temp in temps.items():
            if temp != path and os.path.exists(temp):
                os.remove(temp)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(comment: str, columns: list[str], rows: list[list[float]]) -> str:
    lines = [f"# bohmatom {comment}", ",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _document(command, model, spin_o, q, z, alpha_scale, mass, **fields) -> dict:
    """A JSON document: the command and its resolved model and atom, then the fields."""
    header = {"command": command, "model": model, "spin": spin_o.value if spin_o else None}
    header["quantum_numbers"] = [q.n, q.l, q.m] if q else None
    return {**header, "Z": z, "alpha_scale": alpha_scale, "mass": mass, **fields}


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


def _resolve_model(model, spin, n, l, m):
    """Enforce model-conditional flags and return (quantum_numbers, spin)."""
    if model == "schrodinger":
        if spin is not None:
            raise click.UsageError("--spin applies only to --model dirac")
        try:
            q = QuantumNumbers(n if n is not None else 1, l if l is not None else 0, m if m is not None else 0)
        except DomainError as exc:
            raise click.UsageError(str(exc)) from exc
        return q, None
    if n is not None or l is not None or m is not None:
        raise click.UsageError("--n/--l/--m apply only to --model schrodinger")
    return None, SpinOrientation(spin if spin is not None else "up")


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
    q, spin_o = _resolve_model(model, spin, n, l, m)
    atom = _make_atom(z, alpha_scale, mass)
    a0 = atom.bohr_radius
    r_lo = 0.2 * a0 if r_min is None else r_min
    r_hi = 5.0 * a0 if r_max is None else r_max
    if r_lo <= 0.0 or r_hi < r_lo or r_count < 1 or theta_count < 1 or phi_count < 1:
        raise click.UsageError("invalid grid: need 0 < r-min <= r-max and positive counts")

    columns = ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
    try:
        points = SphericalPoints.grid(
            np.linspace(r_lo, r_hi, r_count),
            np.pi * (np.arange(theta_count) + 0.5) / theta_count,
            2.0 * np.pi * np.arange(phi_count) / phi_count,
        )
        if model == "dirac":
            current = dirac_current(dirac_ground_state(spin_o, atom, points))
            j = np.column_stack([current.j0, current.spatial])
            velocity = bohm_velocity(spin_o, atom, points)
        else:
            # One psi over the grid gives the density; the current is density times velocity.
            density = np.abs(hydrogen_wavefunction(q, atom, points)) ** 2
            velocity = vector_to_cartesian(points, bohm_momentum(q, atom, points) / atom.mass)
            j = np.column_stack([density, density[:, None] * velocity])
    except (DomainError, MemoryError) as exc:  # numpy names the allocation that failed
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    speed = np.linalg.norm(velocity, axis=1)
    rows = np.column_stack([points.r, points.theta, points.phi, j, velocity, speed]).tolist()

    if fmt == "csv":
        text = _csv_text("field table; natural units (hbar = c = 1); angles in radians", columns, rows)
    else:
        text = _json_text(_document("field", model, spin_o, q, z, alpha_scale, mass, columns=columns, rows=rows))
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
    q, spin_o = _resolve_model(model, spin, n, l, m)
    atom = _make_atom(z, alpha_scale, mass)
    if steps < 0:
        raise click.UsageError("--steps must be nonnegative")
    if dt is not None and not (dt > 0.0 and math.isfinite(dt)):
        raise click.UsageError(f"--dt must be positive and finite, got {dt}")
    try:
        start = SphericalPoint(atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc

    field = (
        dirac_velocity_field(spin_o, atom)
        if model == "dirac"
        else schrodinger_velocity_field(q, atom)
    )
    try:
        v_start = field(start.to_cartesian())
    except DomainError:
        v_start = None  # singular start; integration below reports the abort

    # Signed rotation rate of the exact circular orbit through the start.
    st = math.sin(start.theta)
    speed0 = float(np.linalg.norm(v_start)) if v_start is not None else 0.0
    if st > 0.0 and speed0 > 0.0:
        omega = float(vector_to_spherical(start, v_start)[2]) / (start.r * st)
        period = 2.0 * math.pi / abs(omega)
    else:
        omega = 0.0
        period = math.inf
    if dt is None:
        dt = period / 10000.0 if math.isfinite(period) else 1.0

    aborted = False
    try:
        trajectory = integrate_trajectory(field, start, dt, steps)
    except TrajectorySingularityError as exc:
        click.echo(f"error: {exc}", err=True)
        trajectory = exc.trajectory
        aborted = True
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except MemoryError:
        # The trajectory's columns are allocated up front, before the first step.
        click.echo(f"error: --steps {steps} does not fit in memory", err=True)
        sys.exit(1)

    columns = ["t", "x", "y", "z", "vx", "vy", "vz", "x_ref", "y_ref", "z_ref", "deviation"]
    ref = circular_orbit_xyz(start, omega, trajectory.t)
    deviation = np.linalg.norm(trajectory.xyz - ref, axis=1)
    max_deviation = float(deviation.max(initial=0.0))
    rows = np.column_stack([trajectory.t, trajectory.xyz, trajectory.velocity, ref, deviation]).tolist()

    summary = {
        "dt": dt,
        "steps_requested": steps,
        "steps_completed": max(len(trajectory.t) - 1, 0),
        "period": period if math.isfinite(period) else None,
        "max_deviation": max_deviation,
        "aborted": aborted,
    }

    if fmt == "csv":
        comment = "trajectory; natural units (hbar = c = 1); reference is the exact circular orbit"
        texts = {out: _csv_text(comment, columns, rows), out + ".summary.json": _json_text(summary)}
    else:
        doc = _document("trajectory", model, spin_o, q, z, alpha_scale, mass, columns=columns, rows=rows, summary=summary)
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
            click.echo(f"error: coupling too small: (Z*alpha)^2 underflows to 0 at Z*alpha = {atom_s.za!r}", err=True)
            sys.exit(1)
        mg = report.mean_gamma if s == 1.0 else mean_lorentz_factor(spin_o, atom_s)
        scaling.append(
            {"scale": s, "alpha": atom_s.alpha, "mean_gamma": mg, "excess_over_za_sq": excess_over_za_sq(atom_s)}
        )

    doc = {
        "mean_gamma": report.mean_gamma,
        "pointwise_max_gamma": report.pointwise_max_gamma,
        "rest_lifetime": report.rest_lifetime,
        "dilated_lifetime": report.dilated_lifetime,
        "alpha_scaling": scaling,
    }
    _write_files(out, {out: _json_text(doc)})


@main.command("state")
@_model_options
@_atom_options
@click.option("--r", "r0", type=float, default=None, help="Radius (natural units); default one Bohr radius.")
@click.option("--theta", "theta0", type=float, default=math.pi / 2, show_default="pi/2")
@click.option("--phi", "phi0", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def state_cmd(model, spin, n, l, m, z, alpha_scale, mass, r0, theta0, phi0, out):
    """Print the wavefunction or spinor (and local flow data) at one point."""
    q, spin_o = _resolve_model(model, spin, n, l, m)
    atom = _make_atom(z, alpha_scale, mass)
    try:
        point = SphericalPoint(atom.bohr_radius if r0 is None else r0, theta0, phi0)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc

    xyz = [float(c) for c in point.to_cartesian()]
    point_doc = {"r": point.r, "theta": point.theta, "phi": point.phi, "xyz": xyz}
    doc = _document("state", model, spin_o, q, z, alpha_scale, mass, point=point_doc)
    try:
        if model == "dirac":
            psi = dirac_ground_state(spin_o, atom, point)
            current = dirac_current(psi)
            velocity = bohm_velocity(spin_o, atom, point)
            doc["spinor"] = [[float(c.real), float(c.imag)] for c in psi]
            doc["current"] = [current.j0, current.j1, current.j2, current.j3]
            doc["velocity"] = [float(c) for c in velocity]
            doc["speed"] = float(np.linalg.norm(velocity))
            doc["lorentz_factor"] = lorentz_factor(velocity)
        else:
            psi = hydrogen_wavefunction(q, atom, point)
            polar = polar_decompose(psi)
            current = probability_current(q, atom, point)
            doc["psi"] = [float(psi.real), float(psi.imag)]
            doc["amplitude"] = polar.amplitude
            doc["phase"] = polar.phase if polar.phase_defined else None
            doc["current_spherical"] = [float(c) for c in current]
            velocity = vector_to_cartesian(point, bohm_momentum(q, atom, point) / atom.mass)
            doc["velocity"] = [float(c) for c in velocity]
            doc["speed"] = float(np.linalg.norm(velocity))
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    text = _json_text(doc)
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_files(out, {out: text})


if __name__ == "__main__":
    main()

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
import sys

import click
import numpy as np

from .coords import SphericalPoint, vector_to_cartesian, vector_to_spherical
from .dilation import lorentz_factor, make_report, mean_lorentz_factor
from .dirac_states import SpinOrientation, bohm_velocity, dirac_current, dirac_ground_state
from .errors import DomainError, TrajectorySingularityError
from .physics_core import FINE_STRUCTURE, make_atom
from .schrodinger_states import (
    QuantumNumbers,
    bohm_momentum,
    hydrogen_wavefunction,
    polar_decompose,
    probability_current,
)
from .trajectory_engine import (
    circular_orbit_xyz,
    dirac_velocity_field,
    integrate_trajectory,
    schrodinger_velocity_field,
)

_ALPHA_SCALING_STEPS = (1.0, 0.5, 0.1, 0.01)


def _num(x) -> str:
    """Shortest representation that round-trips the float exactly."""
    return repr(float(x))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _atom_options(fn):
    fn = click.option("--Z", "z", type=int, default=1, show_default=True, help="Nuclear charge.")(fn)
    fn = click.option(
        "--alpha-scale",
        type=float,
        default=1.0,
        show_default=True,
        help="Multiplier on the physical fine-structure constant.",
    )(fn)
    fn = click.option(
        "--mass",
        type=float,
        default=1.0,
        show_default=True,
        help="Bound-particle mass in natural units.",
    )(fn)
    return fn


def _model_options(fn):
    fn = click.option(
        "--model",
        type=click.Choice(["schrodinger", "dirac"]),
        default="dirac",
        show_default=True,
    )(fn)
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


def _field_row(model, q, spin, atom, point):
    if model == "dirac":
        current = dirac_current(dirac_ground_state(spin, atom, point))
        velocity = current.spatial / current.j0
        j = (current.j0, current.j1, current.j2, current.j3)
    else:
        density = abs(hydrogen_wavefunction(q, atom, point)) ** 2
        j_cart = vector_to_cartesian(point, probability_current(q, atom, point))
        if q.m == 0:
            velocity = np.zeros(3)
        else:
            velocity = vector_to_cartesian(point, bohm_momentum(q, atom, point) / atom.mass)
        j = (density, j_cart[0], j_cart[1], j_cart[2])
    return [
        point.r,
        point.theta,
        point.phi,
        *j,
        velocity[0],
        velocity[1],
        velocity[2],
        float(np.linalg.norm(velocity)),
    ]


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

    r_values = np.linspace(r_lo, r_hi, r_count)
    theta_values = [math.pi * (i + 0.5) / theta_count for i in range(theta_count)]
    phi_values = [2.0 * math.pi * j / phi_count for j in range(phi_count)]

    columns = ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
    try:
        rows = [
            _field_row(model, q, spin_o, atom, SphericalPoint(float(r), t, p))
            for r in r_values
            for t in theta_values
            for p in phi_values
        ]
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    if fmt == "csv":
        lines = ["# bohmatom field table; natural units (hbar = c = 1); angles in radians"]
        lines.append(",".join(columns))
        lines.extend(",".join(_num(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(
            {
                "command": "field",
                "model": model,
                "spin": spin_o.value if spin_o else None,
                "quantum_numbers": [q.n, q.l, q.m] if q else None,
                "Z": z,
                "alpha_scale": alpha_scale,
                "mass": mass,
                "columns": columns,
                "rows": [[float(x) for x in row] for row in rows],
            }
        )
    try:
        _write_text(out, text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)


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

    try:
        if fmt == "csv":
            lines = ["# bohmatom trajectory; natural units (hbar = c = 1); reference is the exact circular orbit"]
            lines.append(",".join(columns))
            lines.extend(",".join(map(repr, row)) for row in rows)
            _write_text(out, "\n".join(lines) + "\n")
            _write_text(out + ".summary.json", _json_text(summary))
        else:
            _write_text(
                out,
                _json_text(
                    {
                        "command": "trajectory",
                        "model": model,
                        "spin": spin_o.value if spin_o else None,
                        "quantum_numbers": [q.n, q.l, q.m] if q else None,
                        "Z": z,
                        "alpha_scale": alpha_scale,
                        "mass": mass,
                        "columns": columns,
                        "rows": rows,
                        "summary": summary,
                    }
                ),
            )
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)
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
        za_sq = atom_s.za**2
        if za_sq == 0.0:
            click.echo(f"error: coupling too small: (Z*alpha)^2 underflows to 0 at Z*alpha = {atom_s.za!r}", err=True)
            sys.exit(1)
        mg = report.mean_gamma if s == 1.0 else mean_lorentz_factor(spin_o, atom_s)
        excess = (mg - 1.0) / za_sq
        scaling.append(
            {"scale": s, "alpha": atom_s.alpha, "mean_gamma": mg, "excess_over_za_sq": excess}
        )

    doc = {
        "mean_gamma": report.mean_gamma,
        "pointwise_max_gamma": report.pointwise_max_gamma,
        "rest_lifetime": report.rest_lifetime,
        "dilated_lifetime": report.dilated_lifetime,
        "alpha_scaling": scaling,
    }
    try:
        _write_text(out, _json_text(doc))
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)


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

    doc = {
        "command": "state",
        "model": model,
        "spin": spin_o.value if spin_o else None,
        "quantum_numbers": [q.n, q.l, q.m] if q else None,
        "Z": z,
        "alpha_scale": alpha_scale,
        "mass": mass,
        "point": {
            "r": point.r,
            "theta": point.theta,
            "phi": point.phi,
            "xyz": [float(c) for c in point.to_cartesian()],
        },
    }
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
            if q.m == 0:
                velocity = np.zeros(3)
            else:
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
        try:
            _write_text(out, text)
        except OSError as exc:
            click.echo(f"error: cannot write {out}: {exc}", err=True)
            sys.exit(1)


if __name__ == "__main__":
    main()

"""Workload rounds for the bohmatom CLI benchmark, and the checks on their outputs.

A round is a fixed list of CLI invocations ("operations"). Its inputs are
drawn from ``numpy.random.default_rng((seed, round_index))``, so a seed fixes
every round's inputs, and the seed varies only the physics (charge, spin,
sign of m, start point, radial range), never the amount of work.

Every check compares the program's output with a value computed here from
the closed forms of the model (or with scipy.special as an oracle), or with a
property the method must have. No check compares with stored output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: CODATA fine-structure constant, the value the CLI's --alpha-scale multiplies.
ALPHA = 0.0072973525693
#: Rest lifetime of the muon in seconds.
MUON_LIFETIME = 2.196981e-6
#: The CLI's default trajectory step is period / STEPS_PER_PERIOD.
STEPS_PER_PERIOD = 10000
#: Coupling scales the dilate report tabulates on top of --alpha-scale.
SCALING_STEPS = (1.0, 0.5, 0.1, 0.01)
#: Largest charge drawn, except by `dilate`, which draws from 1 to 135.
Z_MAX = 92
#: Closure tolerance of the repo's orbit criterion, relative to the radius.
ORBIT_TOL = 1e-8

WORKLOADS = ("field", "orbit", "sweep")

FIELD_COLUMNS = ["r", "theta", "phi", "j0", "j1", "j2", "j3", "vx", "vy", "vz", "speed"]
TRAJECTORY_COLUMNS = ["t", "x", "y", "z", "vx", "vy", "vz", "x_ref", "y_ref", "z_ref", "deviation"]


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


@dataclass(frozen=True)
class Size:
    """Amount of work per round; FULL is the benchmark, TINY is for its own tests."""

    dirac_grid: int
    schrodinger_grid: int
    orbit_steps: int
    schrodinger_steps: int


FULL = Size(dirac_grid=30, schrodinger_grid=24, orbit_steps=STEPS_PER_PERIOD, schrodinger_steps=400)
TINY = Size(dirac_grid=4, schrodinger_grid=3, orbit_steps=20, schrodinger_steps=10)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments (without --out), output file and check.

    ``slot`` names the operation's place in the round; the benchmark takes
    medians slot by slot. ``check`` raises CheckFailed and otherwise returns
    the number of table rows it verified.
    """

    slot: str
    args: tuple[str, ...]
    out: str
    check: Callable[[Path], int]


def make_round(workload: str, seed: int, index: int, size: Size = FULL) -> list[Op]:
    rng = np.random.default_rng((seed, index))
    return _ROUNDS[workload](rng, size)


# ---------------------------------------------------------------- helpers


def _close(what: str, actual, expected, rtol: float, atol: float = 0.0) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape}, expected {expected.shape}")
    err = np.abs(actual - expected)
    bad = ~(err <= atol + rtol * np.abs(expected))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(
            f"{what}: {int(bad.sum())} values off, first {actual.flat[i]!r} vs {expected.flat[i]!r}"
        )


def _require(what: str, ok: bool) -> None:
    if not ok:
        raise CheckFailed(what)


def _read_csv(path: Path, columns: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        header = fh.readline().rstrip("\n")
    _require(f"{path.name}: comment line", comment.startswith("#"))
    _require(f"{path.name}: header {header!r}", header.split(",") == columns)
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _r(x: float) -> str:
    return repr(float(x))


def _draw_ground_state_point(rng, z: int) -> tuple[float, float, float]:
    """Start point drawn from the Dirac ground-state density (mass = 1).

    r follows Gamma(2*gamma_exp + 1, 1/(2 Z alpha)) and cos(theta) is uniform.
    """
    k = z * ALPHA
    g = math.sqrt(1.0 - k * k)
    r = float(rng.gamma(2.0 * g + 1.0, 1.0 / (2.0 * k)))
    theta = math.acos(float(rng.uniform(-1.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return r, theta, phi


def dirac_density(z: int, r):
    """j0 = A(r)^2 (1 + zeta^2) of the Dirac ground state (mass = 1), from math.lgamma."""
    k = z * ALPHA
    g = math.sqrt(1.0 - k * k)
    c = 2.0 * k
    log_pref = (
        1.5 * math.log(c)
        - 0.5 * math.log(4.0 * math.pi)
        + 0.5 * (math.log1p(g) - math.log(2.0) - math.lgamma(1.0 + 2.0 * g))
    )
    r = np.asarray(r, dtype=float)
    log_a = log_pref + (g - 1.0) * np.log(c * r) - 0.5 * c * r
    zeta = k / (1.0 + g)
    return np.exp(2.0 * log_a) * (1.0 + zeta * zeta)


def schrodinger_density(n: int, l: int, m: int, z: int, r, theta, phi):
    """|R_nl(r) Y_lm(theta, phi)|^2 (mass = 1) from scipy.special."""
    from scipy.special import eval_genlaguerre, factorial, sph_harm_y

    a = 1.0 / (z * ALPHA)
    r = np.asarray(r, dtype=float)
    rho = 2.0 * r / (n * a)
    norm = math.sqrt((2.0 / (n * a)) ** 3 * factorial(n - l - 1, exact=True) / (2.0 * n * factorial(n + l, exact=True)))
    radial = norm * np.exp(-0.5 * rho) * rho**l * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
    return np.abs(radial * sph_harm_y(l, m, np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))) ** 2


def _grid(r_min: float, r_max: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field command's grid in row order: r-major, then theta, then phi."""
    r = np.linspace(r_min, r_max, n)
    theta = np.pi * (np.arange(n) + 0.5) / n
    phi = 2.0 * np.pi * np.arange(n) / n
    return np.repeat(r, n * n), np.tile(np.repeat(theta, n), n), np.tile(phi, n * n)


def _check_grid(rows: np.ndarray, r_min: float, r_max: float, n: int) -> None:
    _require(f"field: {len(rows)} rows, expected {n**3}", rows.shape == (n**3, len(FIELD_COLUMNS)))
    r, theta, phi = _grid(r_min, r_max, n)
    _close("field grid r", rows[:, 0], r, 1e-15)
    _close("field grid theta", rows[:, 1], theta, 1e-15)
    _close("field grid phi", rows[:, 2], phi, 1e-15, 1e-15)


def _check_rotation(what: str, rows: np.ndarray, start, omega: float, dt: float, steps: int) -> None:
    """Rows follow the exact rotation of the start about z by omega * t."""
    r0, theta0, phi0 = start
    _require(f"{what}: {len(rows)} rows, expected {steps + 1}", rows.shape == (steps + 1, len(TRAJECTORY_COLUMNS)))
    t = dt * np.arange(steps + 1)
    _close(f"{what} t", rows[:, 0], t, 1e-12)
    ang = phi0 + omega * t
    rho = r0 * math.sin(theta0)
    expected = np.column_stack([rho * np.cos(ang), rho * np.sin(ang), np.full_like(t, r0 * math.cos(theta0))])
    _close(f"{what} position", rows[:, 1:4], expected, 0.0, ORBIT_TOL * r0)
    velocity = np.column_stack([-omega * expected[:, 1], omega * expected[:, 0], np.zeros_like(t)])
    _close(f"{what} velocity", rows[:, 4:7], velocity, 0.0, ORBIT_TOL * abs(omega) * rho)
    if steps == STEPS_PER_PERIOD:
        _close(f"{what} closure after one period", rows[-1, 1:4], rows[0, 1:4], 0.0, ORBIT_TOL * r0)


def _check_summary(path: Path, steps: int) -> None:
    summary = json.loads(Path(str(path) + ".summary.json").read_text(encoding="utf-8"))
    _require(f"steps_requested {summary['steps_requested']}", summary["steps_requested"] == steps)
    _require(f"steps_completed {summary['steps_completed']}", summary["steps_completed"] == steps)
    _require("trajectory aborted", summary["aborted"] is False)


# ---------------------------------------------------------------- field


def _dirac_field(rng, size: Size) -> Op:
    z = int(rng.integers(1, Z_MAX + 1))
    spin = str(rng.choice(["up", "down"]))
    a0 = 1.0 / (z * ALPHA)
    r_min = a0 * float(rng.uniform(0.05, 0.5))
    r_max = a0 * float(rng.uniform(3.0, 10.0))
    n = size.dirac_grid
    args = (
        "field", "--model", "dirac", "--spin", spin, "--Z", str(z),
        "--r-min", _r(r_min), "--r-max", _r(r_max),
        "--r-count", str(n), "--theta-count", str(n), "--phi-count", str(n), "--format", "csv",
    )

    def check(path: Path) -> int:
        rows = _read_csv(path, FIELD_COLUMNS)
        _check_grid(rows, r_min, r_max, n)
        r, theta, phi = rows[:, 0], rows[:, 1], rows[:, 2]
        k = z * ALPHA
        speed = k * np.sin(theta)
        sense = 1.0 if spin == "up" else -1.0
        _close("dirac j0 = A^2 (1 + zeta^2)", rows[:, 3], dirac_density(z, r), 1e-11)
        _require("dirac j3 == 0", bool(np.all(rows[:, 6] == 0.0)))
        _require("dirac vz == 0", bool(np.all(rows[:, 9] == 0.0)))
        _close("dirac speed = Z alpha sin(theta)", rows[:, 10], speed, 1e-12)
        vx, vy = rows[:, 7], rows[:, 8]
        _close("dirac v_phi", -vx * np.sin(phi) + vy * np.cos(phi), sense * speed, 1e-12, 1e-15)
        _close("dirac v_rho", vx * np.cos(phi) + vy * np.sin(phi), np.zeros_like(r), 0.0, 1e-12 * k)
        return len(rows)

    return Op("field.dirac", args, "dirac_field.csv", check)


def _schrodinger_field(rng, size: Size) -> Op:
    n_q, l_q = 3, 2
    m_q = int(rng.choice([-1, 1]))
    z = int(rng.integers(1, Z_MAX + 1))
    a0 = 1.0 / (z * ALPHA)
    r_min = a0 * float(rng.uniform(0.1, 1.0))
    r_max = a0 * float(rng.uniform(8.0, 20.0))
    g = size.schrodinger_grid
    args = (
        "field", "--model", "schrodinger", "--n", str(n_q), "--l", str(l_q), "--m", str(m_q),
        "--Z", str(z), "--r-min", _r(r_min), "--r-max", _r(r_max),
        "--r-count", str(g), "--theta-count", str(g), "--phi-count", str(g), "--format", "json",
    )

    def check(path: Path) -> int:
        doc = json.loads(path.read_text(encoding="utf-8"))
        _require("schrodinger columns", doc["columns"] == FIELD_COLUMNS)
        _require("schrodinger quantum numbers", doc["quantum_numbers"] == [n_q, l_q, m_q])
        rows = np.array(doc["rows"], dtype=float).reshape(-1, len(FIELD_COLUMNS))
        _check_grid(rows, r_min, r_max, g)
        r, theta, phi = rows[:, 0], rows[:, 1], rows[:, 2]
        density = schrodinger_density(n_q, l_q, m_q, z, r, theta, phi)
        _close("schrodinger density = |R Y|^2", rows[:, 3], density, 1e-10, 1e-12 * float(density.max()))
        w = m_q / (r * np.sin(theta))
        velocity = np.column_stack([-w * np.sin(phi), w * np.cos(phi), np.zeros_like(w)])
        _close("schrodinger velocity = m/(r sin theta) phi_hat", rows[:, 7:10], velocity, 1e-12, 1e-15)
        _close("schrodinger speed", rows[:, 10], np.abs(w), 1e-12)
        _close("schrodinger current = density v", rows[:, 4:7], rows[:, 3:4] * velocity, 1e-10, 1e-300)
        return len(rows)

    return Op("field.schrodinger", args, "schrodinger_field.json", check)


def _field_round(rng, size: Size) -> list[Op]:
    return [_dirac_field(rng, size), _schrodinger_field(rng, size)]


# ---------------------------------------------------------------- orbit


def _dirac_orbit(rng, spin: str, steps: int) -> Op:
    z = int(rng.integers(1, Z_MAX + 1))
    start = _draw_ground_state_point(rng, z)
    args = (
        "trajectory", "--model", "dirac", "--spin", spin, "--Z", str(z),
        "--r", _r(start[0]), "--theta", _r(start[1]), "--phi", _r(start[2]), "--steps", str(steps),
    )

    def check(path: Path) -> int:
        _check_summary(path, steps)
        rows = _read_csv(path, TRAJECTORY_COLUMNS)
        k = z * ALPHA
        omega = (1.0 if spin == "up" else -1.0) * k / start[0]
        period = 2.0 * math.pi * start[0] / k
        _check_rotation("dirac orbit", rows, start, omega, period / STEPS_PER_PERIOD, steps)
        return len(rows)

    return Op(f"orbit.{spin}", args, f"orbit_{spin}.csv", check)


def _orbit_round(rng, size: Size) -> list[Op]:
    return [_dirac_orbit(rng, "up", size.orbit_steps), _dirac_orbit(rng, "down", size.orbit_steps)]


# ---------------------------------------------------------------- sweep


def _excess(k: float) -> float:
    """(artanh(k)/k - 1) / k^2; below k = 0.1 from its series sum_j k^(2j) / (2j + 3)."""
    if k > 0.1:
        return (math.atanh(k) / k - 1.0) / (k * k)
    return sum(k ** (2 * j) / (2 * j + 3) for j in range(12))


def _dilate(slot: str, spin: str, z: int, scale: float) -> Op:
    args = (
        "dilate", "--spin", spin, "--Z", str(z), "--alpha-scale", _r(scale),
        "--rest-lifetime", _r(MUON_LIFETIME),
    )

    def check(path: Path) -> int:
        doc = json.loads(path.read_text(encoding="utf-8"))
        k = z * (ALPHA * scale)
        mean = math.atanh(k) / k
        _close("mean_gamma = artanh(k)/k", doc["mean_gamma"], mean, 1e-12)
        _close("pointwise_max_gamma = 1/sqrt(1-k^2)", doc["pointwise_max_gamma"], 1.0 / math.sqrt(1.0 - k * k), 1e-12)
        _require("rest_lifetime echoed", doc["rest_lifetime"] == MUON_LIFETIME)
        _close("dilated_lifetime = rest * mean_gamma", doc["dilated_lifetime"], MUON_LIFETIME * mean, 1e-12)
        table = doc["alpha_scaling"]
        _require("alpha_scaling scales", [row["scale"] for row in table] == list(SCALING_STEPS))
        distance = []
        for row in table:
            ks = z * (ALPHA * scale * row["scale"])
            _close(f"excess_over_za_sq at scale {row['scale']}", row["excess_over_za_sq"], _excess(ks), 1e-5)
            distance.append(abs(row["excess_over_za_sq"] - 1.0 / 3.0))
        _require(
            "excess_over_za_sq approaches 1/3 as the scale falls",
            all(b <= a + 1e-6 for a, b in zip(distance, distance[1:])) and distance[-1] < 1e-4,
        )
        return 0

    return Op(slot, args, f"{slot}.json", check)


def _dirac_state(rng) -> Op:
    z = int(rng.integers(1, Z_MAX + 1))
    spin = str(rng.choice(["up", "down"]))
    r, theta, phi = _draw_ground_state_point(rng, z)
    args = (
        "state", "--model", "dirac", "--spin", spin, "--Z", str(z),
        "--r", _r(r), "--theta", _r(theta), "--phi", _r(phi),
    )

    def check(path: Path) -> int:
        doc = json.loads(path.read_text(encoding="utf-8"))
        k = z * ALPHA
        speed = k * math.sin(theta)
        sense = 1.0 if spin == "up" else -1.0
        vx, vy, vz = doc["velocity"]
        _close("state speed = Z alpha sin(theta)", doc["speed"], speed, 1e-12)
        _close("state v_phi", -vx * math.sin(phi) + vy * math.cos(phi), sense * speed, 1e-12, 1e-15)
        _require("state vz == 0", vz == 0.0)
        _close("state j0 = A^2 (1 + zeta^2)", doc["current"][0], dirac_density(z, r), 1e-11)
        _close("state lorentz_factor", doc["lorentz_factor"], 1.0 / math.sqrt(1.0 - speed * speed), 1e-12)
        return 0

    return Op("state.dirac", args, "state_dirac.json", check)


def _schrodinger_state(rng) -> Op:
    n_q = int(rng.integers(1, 5))
    l_q = int(rng.integers(0, n_q))
    z = int(rng.integers(1, Z_MAX + 1))
    a0 = 1.0 / (z * ALPHA)
    r = a0 * float(rng.uniform(0.2, 3.0 * n_q))
    theta = math.acos(float(rng.uniform(-1.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    args = (
        "state", "--model", "schrodinger", "--n", str(n_q), "--l", str(l_q), "--m", "0",
        "--Z", str(z), "--r", _r(r), "--theta", _r(theta), "--phi", _r(phi),
    )

    def check(path: Path) -> int:
        doc = json.loads(path.read_text(encoding="utf-8"))
        _require("m = 0 velocity is exactly zero", doc["velocity"] == [0.0, 0.0, 0.0] and doc["speed"] == 0.0)
        re, im = doc["psi"]
        density = float(schrodinger_density(n_q, l_q, 0, z, r, theta, phi))
        _close("state |psi|^2 = |R Y|^2", re * re + im * im, density, 1e-9, 1e-13 * (z * ALPHA) ** 3)
        return 0

    return Op("state.schrodinger", args, "state_schrodinger.json", check)


def _schrodinger_trajectory(rng, steps: int) -> Op:
    m_q = int(rng.choice([-1, 1]))
    z = int(rng.integers(1, Z_MAX + 1))
    a0 = 1.0 / (z * ALPHA)
    start = (a0 * float(rng.uniform(0.5, 4.0)), math.acos(float(rng.uniform(-0.9, 0.9))), float(rng.uniform(0.0, 2.0 * math.pi)))
    args = (
        "trajectory", "--model", "schrodinger", "--n", "2", "--l", "1", "--m", str(m_q), "--Z", str(z),
        "--r", _r(start[0]), "--theta", _r(start[1]), "--phi", _r(start[2]), "--steps", str(steps),
    )

    def check(path: Path) -> int:
        _check_summary(path, steps)
        rows = _read_csv(path, TRAJECTORY_COLUMNS)
        rho = start[0] * math.sin(start[1])
        omega = m_q / (rho * rho)
        _check_rotation("schrodinger orbit", rows, start, omega, 2.0 * math.pi / abs(omega) / STEPS_PER_PERIOD, steps)
        return len(rows)

    return Op("trajectory.schrodinger", args, "trajectory_schrodinger.csv", check)


def _sweep_round(rng, size: Size) -> list[Op]:
    ops = [
        _dilate(f"dilate.scale{scale}", str(rng.choice(["up", "down"])), int(rng.integers(1, 136)), scale)
        for scale in (1.0, 0.5, 0.2)
    ]
    # Z*alpha = 0.9924: the quadrature in mean_lorentz_factor fails to converge,
    # and this operation fails in every round until that is mended.
    ops.append(_dilate("dilate.Z136", "up", 136, 1.0))
    ops.append(_dirac_state(rng))
    ops.append(_schrodinger_state(rng))
    ops.append(_schrodinger_trajectory(rng, size.schrodinger_steps))
    return ops


_ROUNDS = {"field": _field_round, "orbit": _orbit_round, "sweep": _sweep_round}

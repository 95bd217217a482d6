"""Reference implementations that the tests compare the package against, on numpy.

The package computes everything on floats, one point at a time. These
references rebuild the quantities on numpy over the package's float point
functions, called point by point: the full gamma-matrix contraction (einsum)
and the closed-form current of the Dirac ground state, the spinor-route and
Schrodinger quadratures with their Gauss rules, the spherical basis and the
Cartesian map of vectors, np.linalg.norm with rescaling, the exact circle as
an (N, 3) array, and a trajectory's columns as arrays. Beside them stands the
textbook Laguerre recurrence, on floats, as the package first wrote it, and the
click group whose help pages click itself renders.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from bohmatom import SphericalPoint, SpinOrientation, dirac_ground_state, radial_amplitude, radial_function
from bohmatom import small_component_ratio
from bohmatom.coords import _SQRT_NORMAL_MIN, pole_safe_sin
from bohmatom.special_functions import colatitude_factors, with_azimuth
from bohmatom.trajectory_engine import circular_orbit

#: Gauss rule sizes of the spinor-route quadratures: radial nodes for both, then
#: polar nodes for ground_state_norm and for mean_lorentz_factor_3d.
_NORM_RADIAL_NODES = 48
_NORM_THETA_NODES = 64
_ORACLE_THETA_NODES = 72
#: Gauss rule sizes of the state_norm quadrature: nodes per radial panel, and in cos(theta).
_STATE_RADIAL_NODES = 64
_STATE_THETA_NODES = 64


# -- gamma matrices in the Dirac-Pauli representation, and the contraction


def _negated(m):
    return tuple(tuple(-c for c in row) for row in m)


def _block(a, b, c, d):
    """The 4x4 matrix [[a, b], [c, d]] of 2x2 blocks, as rows."""
    return tuple(ra + rb for ra, rb in zip(a, b)) + tuple(rc + rd for rc, rd in zip(c, d))


_ZERO = ((0j, 0j), (0j, 0j))
_EYE = ((1 + 0j, 0j), (0j, 1 + 0j))
_SIGMA = (
    ((0j, 1 + 0j), (1 + 0j, 0j)),
    ((0j, -1j), (1j, 0j)),
    ((1 + 0j, 0j), (0j, complex(-1.0))),
)
#: (gamma^0, gamma^1, gamma^2, gamma^3), negated blocks with their signed zeros, read-only.
_GAMMA = np.array(
    (_block(_EYE, _ZERO, _ZERO, _negated(_EYE)), *(_block(_ZERO, s, _negated(s), _ZERO) for s in _SIGMA)),
    dtype=complex,
)
_GAMMA.setflags(write=False)


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices (gamma^0, gamma^1, gamma^2, gamma^3), read-only."""
    return _GAMMA[0], _GAMMA[1], _GAMMA[2], _GAMMA[3]


def dirac_adjoint(psi) -> np.ndarray:
    """Adjoint row spinor psi^dagger gamma^0: the conjugate with its lower two components
    negated (row by row for (N, 4))."""
    adjoint = np.conjugate(np.asarray(psi, dtype=complex))
    adjoint[..., 2:] = -adjoint[..., 2:]
    return adjoint


def dirac_current(psi) -> np.ndarray:
    """j^mu = Re[psibar gamma^mu psi] from the explicit matrix contraction.

    A real array with columns j0, j1, j2, j3 (spatial parts Cartesian): shape
    (4,) for psi of four components and (N, 4) for (N, 4), from one batched
    contraction. The imaginary part must cancel; it is checked row by row
    against 1e-13 relative to the density scale rather than trusted to vanish
    in floating point.
    """
    psi = np.asarray(psi, dtype=complex)
    rows = psi.reshape(-1, 4)
    j = np.einsum("nk,mkl,nl->nm", dirac_adjoint(rows), _GAMMA, rows)
    scale = np.maximum(1.0, np.abs(j[:, 0].real))
    leak = np.max(np.abs(j.imag), axis=1)
    if (leak > 1e-13 * scale).any():
        i = int(np.argmax(leak / scale))
        raise ArithmeticError(f"gamma contraction produced imaginary current {float(leak[i])} (scale {float(scale[i])})")
    j = j.real.copy()
    return j[0] if psi.ndim == 1 else j


def spinors(spin: SpinOrientation, atom, points) -> np.ndarray:
    """dirac_ground_state at each point, as an (N, 4) complex array."""
    return np.array([dirac_ground_state(spin, atom, p) for p in points], dtype=complex)


def closed_form_current(spin: SpinOrientation, atom, p: SphericalPoint) -> np.ndarray:
    """The ground-state current at a point from the closed forms, laid out as dirac_current's
    (4,) row: A^2 (1 + B^2 + D^2), -/+ 2 A^2 D sin(phi), +/- 2 A^2 D cos(phi), 0."""
    amp2 = radial_amplitude(atom, p.r) ** 2
    zeta = small_component_ratio(atom)
    b = zeta * math.cos(p.theta)
    d = zeta * pole_safe_sin(p.theta)
    flow = (1.0 if spin is SpinOrientation.UP else -1.0) * 2.0 * amp2 * d
    return np.array([amp2 * (1.0 + b * b + d * d), -flow * math.sin(p.phi), flow * math.cos(p.phi), 0.0])


# -- Gauss rules and the quadratures over them


def gauss_genlaguerre(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre nodes and weights for the weight u^a exp(-u) on [0, inf).

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric Jacobi matrix of the monic three-term recurrence, with diagonal
    2i + 1 + a and off-diagonal sqrt(i (i + a)), and each weight is
    Gamma(a + 1) times the squared first component of its unit eigenvector.
    """
    i = np.arange(n, dtype=float)
    off = np.sqrt(i[1:] * (i[1:] + a))
    jacobi = np.diag(2.0 * i + 1.0 + a) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, math.gamma(a + 1.0) * vectors[0] ** 2


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def composite_gauss_legendre(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with n nodes on each panel between consecutive edges."""
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(n, lo, hi)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def angular_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes theta_i and weights w_i with sum_i w_i f(theta_i) ~ int_0^pi f sin(theta) dtheta.

    Gauss-Legendre in x = cos(theta), exact for integrands polynomial in
    cos(theta) up to degree 2n - 1.
    """
    x, w = leggauss(n)
    return np.arccos(x), w


def radial_nodes(atom, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r_i and weights W_i with sum_i W_i g(r_i) ~ int_0^inf g(r) r^2 dr.

    Generalized Gauss-Laguerre in u = 2 m Z alpha r with weight exponent
    2 * gamma_exp, matched to the relativistic ground-state density so its
    integrable r^(2 gamma - 2) endpoint behavior is handled exactly and r = 0
    is never sampled. The exp(u) compensation multiplies the weight directly,
    not through log(w), because the tail weights may underflow to zero.
    """
    g = atom.gamma_exp
    c = 2.0 * atom.mass * atom.za
    u, w = gauss_genlaguerre(n, 2.0 * g)
    return u / c, w * np.exp(u) * u ** (2.0 - 2.0 * g) / c**3


def axisymmetric_nodes(atom, n_radial: int, n_theta: int) -> tuple[list[SphericalPoint], np.ndarray]:
    """Product of the radial and angular rules at phi = 0, r-major, with weights
    W_k such that sum_k W_k f(p_k) ~ int f d^3x for f independent of phi."""
    r_nodes, r_weights = radial_nodes(atom, n_radial)
    theta_nodes, theta_weights = angular_nodes(n_theta)
    weights = 2.0 * math.pi * np.outer(r_weights, theta_weights).ravel()
    return [SphericalPoint(r, t, 0.0) for r in r_nodes.tolist() for t in theta_nodes.tolist()], weights


def ground_state_norm(spin: SpinOrientation, atom) -> float:
    """Quadrature value of int j^0 d^3x through the spinor route (should equal 1)."""
    points, weights = axisymmetric_nodes(atom, _NORM_RADIAL_NODES, _NORM_THETA_NODES)
    return float(weights @ dirac_current(spinors(spin, atom, points))[:, 0])


def mean_lorentz_factor_3d(spin: SpinOrientation, atom) -> float:
    """Full int gamma_L(v) j^0 d^3x through the spinor route; the quadrature
    oracle that the closed form of dilation.mean_lorentz_factor is tested against."""
    points, weights = axisymmetric_nodes(atom, _NORM_RADIAL_NODES, _ORACLE_THETA_NODES)
    j = dirac_current(spinors(spin, atom, points))
    v = j[:, 1:] / j[:, :1]
    return float(weights @ (j[:, 0] / np.sqrt(1.0 - np.sum(v * v, axis=1))))


def state_norm(q, atom) -> float:
    """Quadrature value of int |psi_nlm|^2 d^3x (should equal 1).

    Composite Gauss-Legendre panels in r out to 45 n a0 (density tail below
    1e-39 of the peak), Gauss-Legendre in cos(theta), exact 2*pi in phi.
    """
    edges = np.array([0.0, 2.0, 8.0, 20.0, 45.0]) * q.n * atom.bohr_radius
    r_nodes, r_weights = composite_gauss_legendre(edges, _STATE_RADIAL_NODES)
    radial = np.array([radial_function(q, atom, r) for r in r_nodes.tolist()]) ** 2 * r_nodes * r_nodes
    theta_nodes, theta_weights = angular_nodes(_STATE_THETA_NODES)
    angular = np.abs([with_azimuth(q.m, colatitude_factors(q.l, q.m, [t])[0], 0.0) for t in theta_nodes.tolist()]) ** 2
    return 2.0 * math.pi * float(np.sum(r_weights * radial)) * float(np.sum(theta_weights * angular))


# -- vectors


def spherical_basis(point: SphericalPoint) -> np.ndarray:
    """Rows r_hat, theta_hat, phi_hat at the point, in Cartesian components: (3, 3)."""
    st, ct = np.sin(point.theta), np.cos(point.theta)
    sp, cp = np.sin(point.phi), np.cos(point.phi)
    return np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0]])


def vector_to_cartesian(point: SphericalPoint, components) -> np.ndarray:
    """Map (v_r, v_theta, v_phi) at the point to Cartesian (v_x, v_y, v_z)."""
    return np.einsum("ki,k->i", spherical_basis(point), np.asarray(components, dtype=float))


def vector_norm(v):
    """np.linalg.norm over the last axis (a float for one vector): the squares summed left to
    right, as numpy reduces a row, also for one vector. Where that sum overflows, or underflows
    below the smallest normal float for a nonzero vector, each vector is scaled by its largest
    component first; coords.norm3 is the package's form for one (x, y, z)."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(v, axis=-1)
        s = np.abs(v).max(axis=-1)
        # n < sqrt(min) only where the sum of squares is below min, so a normal sum keeps its bits.
        scale = ((n == math.inf) | ((n < _SQRT_NORMAL_MIN) & (s > 0.0))) & (s < math.inf)
        n = np.where(scale, s * np.linalg.norm(v / s[..., None], axis=-1), n)
    return n if v.ndim > 1 else float(n)


# -- special functions


def laguerre_recurrence(degree: int, order: int, x: float) -> float:
    """L_degree^order(x) by the three-term recurrence with its coefficients formed at each step,
    n L_n = (2n - 1 + k - x) L_{n-1} - (n - 1 + k) L_{n-2}: associated_laguerre's reference."""
    if degree == 0:
        return 1.0
    prev, curr = 1.0, 1.0 + order - x
    for n in range(2, degree + 1):
        prev, curr = curr, ((2.0 * n - 1.0 + order - x) * curr - (n - 1.0 + order) * prev) / n
    return curr


# -- orbits


def circular_orbit_xyz(start: SphericalPoint, angular_rate: float, t) -> np.ndarray:
    """trajectory_engine.circular_orbit at the 1-D times t, as an (N, 3) array of positions."""
    columns = circular_orbit(start, angular_rate, np.asarray(t, dtype=float).tolist())
    return np.column_stack([np.frombuffer(c, dtype=float) for c in columns])


def trajectory_arrays(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The times (N,), Cartesian positions (N, 3) and velocities (N, 3) of a trajectory, copied from its
    columns t, x, y, z, vx, vy, vz as integrate_trajectory returns them."""
    t, *rest = (np.array(c, dtype=float) for c in columns)
    return t, np.column_stack(rest[:3]), np.column_stack(rest[3:])


# -- help pages


def click_group(cli):
    """The click group of cli's commands, declared to click with each option's help and each command's
    docstring, and show_default wherever the default is not None (the declared text where there is
    one), so that click renders its help pages itself: the pages that bohmatom.usage.page renders
    without click."""
    import click

    def command(command_name, body, options):
        def callback(**params):
            try:
                cli._run(body, params)
            except cli.UsageError as exc:
                raise click.UsageError(str(exc)) from exc

        params = [
            click.Option(
                [flag, param],
                type=(
                    click.Path(dir_okay=False) if kind is cli._PATH
                    else click.Choice(kind) if isinstance(kind, tuple)
                    else kind
                ),
                required=required,
                help=help_text,
                show_default=show_default or default is not None,
                **({} if required else {"default": default}),
            )
            for flag, param, kind, default, required, help_text, show_default in options
        ]
        return click.Command(command_name, callback=callback, params=params, help=body.__doc__)

    return click.Group("main", commands=[command(name, *spec) for name, spec in cli._COMMANDS.items()], help=cli._HELP)

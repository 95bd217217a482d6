"""Deterministic quadrature rules for the normalization and averaging oracles.

No runtime path integrates numerically: these rules serve the quadrature
cross-checks (state norms and the three-dimensional mean Lorentz factor)
that tests compare the closed forms against. Node sets are fixed functions
of their arguments and sums are taken with numpy's pairwise accumulation, so
repeated runs give identical results.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .coords import SphericalPoints
from .physics_core import AtomConfig


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


def radial_nodes(atom: AtomConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
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


def axisymmetric_nodes(atom: AtomConfig, n_radial: int, n_theta: int) -> tuple[SphericalPoints, np.ndarray]:
    """Product of the radial and angular rules at phi = 0, r-major, with weights
    W_k such that sum_k W_k f(p_k) ~ int f d^3x for f independent of phi."""
    r_nodes, r_weights = radial_nodes(atom, n_radial)
    theta_nodes, theta_weights = angular_nodes(n_theta)
    weights = 2.0 * math.pi * np.outer(r_weights, theta_weights).ravel()
    return SphericalPoints.grid(r_nodes, theta_nodes, 0.0), weights

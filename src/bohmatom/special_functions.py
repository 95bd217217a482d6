"""Real-valued special functions used by the Schrodinger wavefunctions.

Self-contained, so the analytic state modules depend only on these fixed
conventions:

* generalized Laguerre: L_0^k = 1, L_1^k = 1 + k - x, upward three-term
  recurrence in the degree;
* spherical harmonics: orthonormal over the sphere, Condon-Shortley phase,
  Y_l^{-m} = (-1)^m * conj(Y_l^m).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _float_or_array(x):
    """x as a float where it is one number (np.ndim 0), otherwise as a float array."""
    return float(x) if isinstance(x, float) or np.ndim(x) == 0 else np.asarray(x, dtype=float)


def associated_laguerre(degree: int, order: int, x):
    """Generalized Laguerre polynomial L_degree^order(x), elementwise on arrays.

    Evaluated by the stable three-term recurrence
    n * L_n = (2n - 1 + k - x) * L_{n-1} - (n - 1 + k) * L_{n-2}.
    A float x runs through the same recurrence in float arithmetic, which
    rounds as the elementwise array arithmetic does, and returns a float.
    """
    if degree < 0 or order < 0:
        raise DomainError("degree and order must be nonnegative integers")
    xs = _float_or_array(x)
    if isinstance(xs, float):
        if not math.isfinite(xs):
            raise DomainError(f"x must be finite, got {xs}")
    elif not np.isfinite(xs).all():
        raise DomainError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    if degree == 0:
        return 1.0 if isinstance(xs, float) else np.ones_like(xs)
    prev, curr = 1.0, 1.0 + order - xs
    for n in range(2, degree + 1):
        prev, curr = curr, ((2.0 * n - 1.0 + order - xs) * curr - (n - 1.0 + order) * prev) / n
    return curr


def assoc_legendre(l: int, m: int, x, s):
    """P_l^m at cos(theta) = x with sin(theta) = s >= 0, Condon-Shortley included; elementwise.

    s enters only as the factor s^m, so s = 1 gives the polynomial part
    P_l^m / sin^m(theta), whose zeros are the nodes of P_l^m off the axis.
    Float x and s give a float, by the same recurrence.
    """
    x = _float_or_array(x)
    pmm = 1.0 if isinstance(x, float) else np.ones_like(x)
    for k in range(1, m + 1):
        pmm = pmm * (-(2.0 * k - 1.0) * s)
    if l == m:
        return pmm
    pm1 = x * (2.0 * m + 1.0) * pmm
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2.0 * ll - 1.0) * x * pm1 - (ll - 1.0 + m) * pmm) / (ll - m)
    return pm1


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi) with Condon-Shortley phase, elementwise.

    Float angles run as one-element arrays and return a complex.
    """
    if l < 0:
        raise DomainError("l must be nonnegative")
    if abs(m) > l:
        raise DomainError(f"|m| must not exceed l, got l={l}, m={m}")
    am = abs(m)
    theta_a, phi_a = np.array(theta, dtype=float, ndmin=1), np.array(phi, dtype=float, ndmin=1)
    # Factorial ratio first (correctly rounded int division, at most 1): a
    # float times math.factorial(l + am) overflows from l + am = 171 on.
    norm = math.sqrt(
        (2.0 * l + 1.0) / (4.0 * math.pi) * (math.factorial(l - am) / math.factorial(l + am))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        y = norm * assoc_legendre(l, am, np.cos(theta_a), np.sin(theta_a)) * np.exp(1j * am * phi_a)
    if not np.isfinite(y).all():
        raise DomainError(f"Y_l^m leaves the float range at l={l}, m={m}: P_l^m overflows where its norm underflows")
    if m < 0:
        y = (-1.0) ** am * np.conj(y)
    return y if np.ndim(theta) or np.ndim(phi) else complex(y[0])

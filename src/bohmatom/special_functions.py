"""Real-valued special functions used by the Schrodinger wavefunctions.

Self-contained, so the analytic state modules depend only on these fixed
conventions:

* generalized Laguerre: L_0^k = 1, L_1^k = 1 + k - x, upward three-term
  recurrence in the degree;
* spherical harmonics: orthonormal over the sphere, Condon-Shortley phase,
  Y_l^{-m} = (-1)^m * conj(Y_l^m).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

def associated_laguerre(degree: int, order: int, x: float) -> float:
    """Generalized Laguerre polynomial L_degree^order(x).

    Evaluated by the stable three-term recurrence
    n * L_n = (2n - 1 + k - x) * L_{n-1} - (n - 1 + k) * L_{n-2}.
    """
    if degree < 0 or order < 0:
        raise DomainError("degree and order must be nonnegative integers")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if degree == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 + order - x
    for n in range(2, degree + 1):
        prev, curr = curr, ((2.0 * n - 1.0 + order - x) * curr - (n - 1.0 + order) * prev) / n
    return curr


def _assoc_legendre(l: int, m: int, x: float, s: float) -> float:
    """P_l^m at cos(theta) = x with sin(theta) = s >= 0, Condon-Shortley included."""
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= -(2.0 * k - 1.0) * s
    if l == m:
        return pmm
    pm1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2.0 * ll - 1.0) * x * pm1 - (ll - 1.0 + m) * pmm) / (ll - m)
    return pm1


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_l^m(theta, phi) with Condon-Shortley phase."""
    if l < 0:
        raise DomainError("l must be nonnegative")
    if abs(m) > l:
        raise DomainError(f"|m| must not exceed l, got l={l}, m={m}")
    am = abs(m)
    x = math.cos(theta)
    s = math.sin(theta)
    plm = _assoc_legendre(l, am, x, s)
    # Factorial ratio first (correctly rounded int division, at most 1): a
    # float times math.factorial(l + am) overflows from l + am = 171 on.
    norm = math.sqrt(
        (2.0 * l + 1.0) / (4.0 * math.pi) * (math.factorial(l - am) / math.factorial(l + am))
    )
    y = norm * plm * cmath.exp(1j * am * phi)
    if m >= 0:
        return y
    return (-1.0) ** am * y.conjugate()


"""Real-valued special functions used by the Schrodinger wavefunctions.

Self-contained, so the analytic state modules depend only on these fixed
conventions:

* generalized Laguerre: L_0^k = 1, L_1^k = 1 + k - x, upward three-term
  recurrence in the degree;
* spherical harmonics: orthonormal over the sphere, Condon-Shortley phase,
  Y_l^{-m} = (-1)^m * conj(Y_l^m).

All of them run on floats. associated_laguerre takes one x at a time (the
radial factor of a state calls it once per distinct rho);
spherical_harmonic_table evaluates a product grid of angles, and
spherical_harmonic is its one-pair case.
"""

from __future__ import annotations

import math

from .errors import DomainError


def associated_laguerre(degree: int, order: int, x: float) -> float:
    """Generalized Laguerre polynomial L_degree^order(x).

    Evaluated by the stable three-term recurrence
    n * L_n = (2n - 1 + k - x) * L_{n-1} - (n - 1 + k) * L_{n-2}.
    """
    if degree < 0 or order < 0:
        raise DomainError("degree and order must be nonnegative integers")
    xs = float(x)
    if not math.isfinite(xs):
        raise DomainError(f"x must be finite, got {xs}")
    if degree == 0:
        return 1.0
    prev, curr = 1.0, 1.0 + order - xs
    # a = 2n - 1 + k and b = n - 1 + k by exact increments: integers below 2**53.
    a, b = 1.0 + order, float(order)
    for n in range(2, degree + 1):
        a += 2.0
        b += 1.0
        prev, curr = curr, ((a - xs) * curr - b * prev) / n
    return curr


def assoc_legendre(l: int, m: int, x: float, s: float) -> float:
    """P_l^m at cos(theta) = x with sin(theta) = s >= 0, Condon-Shortley included.

    s enters only as the factor s^m, so s = 1 gives the polynomial part
    P_l^m / sin^m(theta), whose zeros are the nodes of P_l^m off the axis.
    """
    x = float(x)
    pmm = 1.0
    for k in range(1, m + 1):
        pmm = pmm * (-(2.0 * k - 1.0) * s)
    if l == m:
        return pmm
    pm1 = x * (2.0 * m + 1.0) * pmm
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2.0 * ll - 1.0) * x * pm1 - (ll - 1.0 + m) * pmm) / (ll - m)
    return pm1


def _harmonic_norm(l: int, am: int) -> float:
    # Factorial ratio first (correctly rounded int division, at most 1): a
    # float times math.factorial(l + am) overflows from l + am = 171 on.
    return math.sqrt((2.0 * l + 1.0) / (4.0 * math.pi) * (math.factorial(l - am) / math.factorial(l + am)))


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_l^m(theta, phi) with Condon-Shortley phase:
    spherical_harmonic_table of one pair."""
    if l < 0:
        raise DomainError("l must be nonnegative")
    if abs(m) > l:
        raise DomainError(f"|m| must not exceed l, got l={l}, m={m}")
    (real,), (imag,) = spherical_harmonic_table(l, m, [float(theta)], [float(phi)])
    return complex(real, imag)


def spherical_harmonic_table(l: int, m: int, theta: list[float], phi: list[float]) -> tuple[list[float], list[float]]:
    """spherical_harmonic at every pair (theta[i], phi[k]), theta-major, as the lists of its real
    and its imaginary parts: P_l^m runs once per theta, and cos(|m| phi) and sin(|m| phi) are
    taken once per phi."""
    # x sin(m phi) + 0.0 and 0.0 - a map a signed zero to +0.0: the imaginary part of Y_l^0 is 0.0.
    am = abs(m)
    norm = _harmonic_norm(l, am)
    legendre = [norm * assoc_legendre(l, am, math.cos(t), math.sin(t)) for t in theta]
    if not all(map(math.isfinite, legendre)):  # x cos(m phi) and x sin(m phi) are finite where x is
        raise DomainError(f"Y_l^m leaves the float range at l={l}, m={m}: P_l^m overflows where its norm underflows")
    cos_m = [math.cos(am * p) for p in phi]
    sin_m = [math.sin(am * p) for p in phi]
    real = [x * c for x in legendre for c in cos_m]
    imag = [x * s + 0.0 for x in legendre for s in sin_m]
    if m < 0:  # Y_l^{-m} = (-1)^m conj(Y_l^m)
        sign = (-1.0) ** am
        real, imag = [sign * v for v in real], [0.0 - sign * v for v in imag]
    return real, imag

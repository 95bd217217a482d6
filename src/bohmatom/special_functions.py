"""Real-valued special functions used by the Schrodinger wavefunctions.

Self-contained, so the analytic state modules depend only on these fixed
conventions:

* generalized Laguerre: L_0^k = 1, L_1^k = 1 + k - x, upward three-term
  recurrence in the degree;
* spherical harmonics: orthonormal over the sphere, Condon-Shortley phase,
  Y_l^{-m} = (-1)^m * conj(Y_l^m).

All of them run on floats. associated_laguerre takes one x at a time (the
radial factor of a state calls it once per distinct rho). Y_l^m is a
colatitude factor times e^{i m phi}: colatitude_factors gives the first once
per colatitude, and with_azimuth multiplies one by e^{i m phi}.
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


def colatitude_factors(l: int, m: int, theta: list[float]) -> list[float]:
    """The factor N_lm P_l^|m|(cos theta) of Y_l^m = factor * e^{i m phi} at each colatitude, with
    the (-1)^m of Y_l^{-m} = (-1)^m conj(Y_l^m) included for m < 0: P_l^|m| runs once per theta."""
    am = abs(m)
    norm = _harmonic_norm(l, am) * (-1.0 if m < 0 and am % 2 else 1.0)
    factors = [norm * assoc_legendre(l, am, math.cos(t), math.sin(t)) for t in theta]
    if not all(map(math.isfinite, factors)):
        raise DomainError(f"Y_l^m leaves the float range at l={l}, m={m}: P_l^m overflows where its norm underflows")
    return factors


def with_azimuth(m: int, factor: float, phi: float) -> complex:
    """factor * e^{i m phi}, as factor cos(|m| phi) and +/- factor sin(|m| phi) (minus for m < 0)."""
    c, s = math.cos(abs(m) * phi), math.sin(abs(m) * phi)
    # x + 0.0 and 0.0 - x map a signed zero to +0.0: the imaginary part of Y_l^0 is 0.0.
    return complex(factor * c, factor * s + 0.0 if m >= 0 else 0.0 - factor * s)

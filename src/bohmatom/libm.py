"""exp, log, pow, cos, sin and |z| with the C library's rounding, on floats and arrays alike.

numpy's SIMD kernels for exp, log, power and complex absolute value round
differently from libm, and differently again from one CPU feature set to the
next; its sin and cos may be vectorised too. The state functions therefore
take these from Python's math module, which calls libm, on their float path
and on their array path (mapped over the distinct values of a column), so a
point's value equals its row of a grid bit for bit, whatever numpy's CPU
dispatch. |z| is hypot(re, im), which numpy also takes from libm. Where libm
signals overflow or a pole, these return the IEEE result (inf or -inf) as
numpy would, instead of raising. For the same reason complex values are
formed from real products (see complex_array): numpy multiplies complex
arrays with fused multiply-adds where the CPU has them, which round a zero
or underflowing part to another sign than two separate roundings do.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np


def float_or_array(x):
    """x as a float where it is one number (np.ndim 0), otherwise as a float array."""
    if isinstance(x, (int, float)):
        return float(x)
    import numpy as np

    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log(x: float) -> float:
    """log(x) for x >= 0, with log(0) = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def power(x: float, y: float) -> float:
    """x**y for x >= 0, with inf where it overflows or x = 0 meets a negative y."""
    try:
        return x**y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the float array x, one per bit pattern (so -0.0 and 0.0 stay apart),
    and for each value of x its index among them, in x's shape."""
    import numpy as np

    keys, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64), return_inverse=True)
    return keys.view(np.float64), inverse.reshape(np.shape(x))


def elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn of each value of the float array x, as an array of x's shape.

    fn runs once per distinct value (see distinct): a grid of N points has
    only a few distinct radii and angles.
    """
    import numpy as np

    values, inverse = distinct(x)
    return np.array([fn(v) for v in values.tolist()], dtype=float)[inverse]


def cos(x):
    """cos(x) from libm: a float for a float, elementwise on an array."""
    return math.cos(x) if isinstance(x, float) else elementwise(math.cos, x)


def sin(x):
    """sin(x) from libm: a float for a float, elementwise on an array."""
    return math.sin(x) if isinstance(x, float) else elementwise(math.sin, x)


def abs_squared(psi) -> float | np.ndarray:
    """|psi|^2 as hypot(re, im)^2, elementwise on a complex array (np.hypot calls libm's hypot,
    as abs of a complex does)."""
    if isinstance(psi, complex):
        try:
            a = abs(psi)
        except OverflowError:  # hypot overflowed, where numpy gives inf
            return math.inf
        return a * a
    import numpy as np

    a = np.hypot(psi.real, psi.imag)
    return a * a


def complex_array(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """The complex array real + i imag, each part copied exactly."""
    import numpy as np

    out = np.empty(np.broadcast_shapes(np.shape(real), np.shape(imag)), dtype=complex)
    out.real, out.imag = real, imag
    return out

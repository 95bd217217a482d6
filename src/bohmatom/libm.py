"""exp, log and pow on floats, with the IEEE result where the C library signals.

The state functions take exp, log, pow, cos, sin and hypot from Python's math
module, which calls the C library (libm), so their bits follow libm alone.
Where libm signals overflow or a pole, math raises; these return the IEEE
result (inf or -inf) instead.
"""

from __future__ import annotations

import math


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


"""Overflow-safe Chebyshev polynomials of the second kind.

The secular equation multiplies U_{L-1} factors whose magnitude grows like
(2|x|)^L outside [-1, 1]; at the chain lengths and rate ranges this
library accepts, that can overflow doubles.  The three-term recurrence is
therefore run in a split (mantissa, base-2 exponent) representation:
after every step the working pair is renormalized with frexp/ldexp so the
mantissas stay in a safe range while the common exponent accumulates
separately.  Signs are exact, magnitudes carry ordinary double-precision
relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScaledValue:
    """A real number stored as mantissa * 2**exp2."""

    mantissa: float
    exp2: int

    @property
    def sign(self) -> int:
        return int(np.sign(self.mantissa))

    def to_float(self) -> float:
        try:
            return math.ldexp(self.mantissa, self.exp2)
        except OverflowError:
            return math.inf if self.mantissa > 0 else -math.inf


def chebyshev_u_pair_scaled(n: int, x):
    """(U_n, U_{n-1}) at each x, as mantissas with a shared exponent.

    Returns ``(u_n, u_nm1, exp2)`` with ``U_n(x) = u_n * 2**exp2`` and
    ``U_{n-1}(x) = u_nm1 * 2**exp2`` elementwise.  ``n = -1`` and ``n = 0``
    are valid (U_{-1} = 0, U_0 = 1).  A float x gives floats and an int,
    bit for bit equal to the array path's.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    if isinstance(x, float):
        x, u_prev, u_cur, exp2 = float(x), 0.0, 1.0, 0     # U_{-1}, U_0
        x_max, renormalize = abs(x), _renormalize_float
    else:
        x = np.asarray(x, dtype=float)
        u_prev, u_cur = np.zeros_like(x), np.ones_like(x)  # U_{-1}, U_0
        exp2 = np.zeros(x.shape, dtype=np.int64)
        x_max = float(np.max(np.abs(x))) if x.size else 0.0
        renormalize = _renormalize_array
    if n == -1:
        return u_prev, u_cur * math.nan, exp2

    # per-step growth is bounded by 2|x| + 2, so renormalizing after every
    # full stride keeps everything far from overflow while saving passes
    stride = max(1, int(900.0 / math.log2(2.0 * x_max + 4.0)))
    two_x = 2.0 * x
    for start in range(0, n, stride):
        for _ in range(min(stride, n - start)):
            u_prev, u_cur = u_cur, two_x * u_cur - u_prev
        if start + stride <= n:
            u_cur, u_prev, e = renormalize(u_cur, u_prev)
            exp2 += e
    u_cur, u_prev, e = renormalize(u_cur, u_prev)
    exp2 += e
    return u_cur, u_prev, exp2


def _renormalize_float(u_cur: float, u_prev: float):
    e = math.frexp(max(abs(u_cur), abs(u_prev)))[1]
    return math.ldexp(u_cur, -e), math.ldexp(u_prev, -e), e


def _renormalize_array(u_cur: np.ndarray, u_prev: np.ndarray):
    _, e = np.frexp(np.maximum(np.abs(u_cur), np.abs(u_prev)))
    return np.ldexp(u_cur, -e), np.ldexp(u_prev, -e), e

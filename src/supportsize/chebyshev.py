"""Shifted Chebyshev polynomials and the estimator weight table.

The degree-L Chebyshev polynomial T_L is rescaled to an interval [l, r] and
normalized so the result equals -1 at the origin:

    P_L(x) = -T_L((2x - r - l)/(r - l)) / T_L(-(r + l)/(r - l)) = sum_j a_j x^j

The linear-estimator weights are g[j] = a_j * j! / n^j + 1 for 1 <= j <= L and
g[0] = 0.  Each a_j is a scaled derivative of T_L at x0 = -(r + l)/(r - l), and
Chebyshev's equation gives each derivative from the two before it.  Because the
a_j alternate in sign with large magnitudes, every coefficient is computed in
exact rational arithmetic and rounded only once, at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError

# Largest accepted degree.  A table takes O(L) exact rational operations: at
# L = 100, 0.5 s for k = 1e97 and 4.1 s for k = 1e300 on a 2-CPU x86-64 VM.
# The default degree rule (c0 = 0.45) passes 100 only for k above 1e97.
MAX_DEGREE = 100


def check_degree(L: int, lowest: int = 1) -> None:
    """The one degree cap: an order L in 1..MAX_DEGREE, or a polynomial degree from 0."""
    if not lowest <= L <= MAX_DEGREE:
        raise ParameterError(f"degree must be in {lowest}..{MAX_DEGREE}, got {L}")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Weights g[0..L] of the degree-L estimator on [l, r] for sample size n.

    ``_g_lo`` holds the rounding residual of each exact rational weight
    beyond its double in ``g`` (a double-double representation), so
    downstream checks are not limited by the storage rounding; estimation
    itself only ever needs the doubles.
    """

    L: int
    l: float
    r: float
    n: float
    g: np.ndarray
    _g_lo: np.ndarray = None


def _origin_derivs(L: int, l, r) -> tuple[list[Fraction], Fraction]:
    """T_L^(0..L)(x0) at the image x0 = -(r + l)/(r - l) of the origin, and the
    slope 2/(r - l) of the map from [l, r] onto [-1, 1], both exact.

    T_L comes from the three-term recurrence, T_L' from (1 - x^2) T_L' =
    L (T_{L-1} - x T_L), and T^(j+2) from Chebyshev's equation differentiated
    j times: (1 - x^2) T^(j+2) = (2j + 1) x T^(j+1) - (L^2 - j^2) T^(j).
    As 0 < l < r puts x0 below -1, 1 - x0^2 is never 0.
    """
    check_degree(L)
    lf, rf = Fraction(l), Fraction(r)
    if not 0 < lf < rf:
        raise ParameterError(f"need 0 < l < r, got l={l}, r={r}")
    x = -(rf + lf) / (rf - lf)
    prev, curr = Fraction(1), x
    for _ in range(1, L):
        prev, curr = curr, 2 * x * curr - prev
    w = 1 - x * x
    derivs = [curr, L * (prev - x * curr) / w]
    for j in range(L - 1):
        derivs.append(((2 * j + 1) * x * derivs[j + 1] - (L * L - j * j) * derivs[j]) / w)
    return derivs, 2 / (rf - lf)


# shifted_coeffs and g_table both start here: the coeffs command builds it once
@functools.lru_cache(maxsize=1)
def _shifted_coeffs_exact(L: int, l, r) -> tuple[Fraction, ...]:
    derivs, slope = _origin_derivs(L, l, r)
    return tuple(-(slope**j) * derivs[j] / (math.factorial(j) * derivs[0]) for j in range(L + 1))


def _doubles(name: str, exact: tuple[Fraction, ...]) -> np.ndarray:
    """Round exact coefficients to doubles, rejecting any beyond the double range."""
    out = []
    for j, v in enumerate(exact):
        try:
            out.append(float(v))
        except OverflowError:
            raise ParameterError(
                f"{name}_{j} exceeds the double range; lower the degree or widen the interval"
            ) from None
    return np.array(out)


def shifted_coeffs(L: int, l: float, r: float) -> np.ndarray:
    """Monomial coefficients a_0..a_L of P_L on [l, r]; a_0 is exactly -1."""
    return _doubles("a", _shifted_coeffs_exact(L, l, r))


@functools.lru_cache(maxsize=64)
def g_table(L: int, l: float, r: float, n) -> CoefficientTable:
    """Weight table g[j] = a_j * j!/n^j + 1 (g[0] = 0), rationals rounded once.

    The table depends on (L, l, r, n) alone, so each is built once and shared
    by every caller: the 64 most recently used are kept, and their arrays are
    read-only.  Errors are raised afresh on every call.
    """
    if n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {n}")
    a = _shifted_coeffs_exact(L, l, r)
    g_exact = tuple(1 + a[j] * math.factorial(j) / Fraction(n) ** j for j in range(L + 1))
    g = _doubles("g", g_exact)
    g_lo = np.array([float(v - Fraction(h)) for v, h in zip(g_exact, g)])
    g.flags.writeable = False
    g_lo.flags.writeable = False
    return CoefficientTable(L=L, l=float(l), r=float(r), n=float(n), g=g, _g_lo=g_lo)

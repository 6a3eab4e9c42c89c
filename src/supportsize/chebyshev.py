"""Shifted Chebyshev polynomials and the estimator weight table.

The degree-L Chebyshev polynomial T_L is rescaled to an interval [l, r] and
normalized so the result equals -1 at the origin:

    P_L(x) = -T_L((2x - r - l)/(r - l)) / T_L(-(r + l)/(r - l)) = sum_j a_j x^j

The linear-estimator weights are g[j] = a_j * j! / n^j + 1 for 1 <= j <= L and
g[0] = 0, computed as 1 - s^j T_L^(j)(x0) / T_L(x0) with s = 2/(n (r - l)) and
x0 = -(r + l)/(r - l).  Because the a_j alternate in sign with large
magnitudes, every coefficient is computed in exact rational arithmetic and
rounded only once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError


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


def cheb_eval(L: int, x: float) -> float:
    """Evaluate T_L(x) for any real x.

    Uses cos(L arccos x) on [-1, 1] and the root z of z + 1/z = 2x outside,
    with the parity T_L(-x) = (-1)^L T_L(x) for x < -1.
    """
    if L < 0:
        raise ParameterError(f"degree must be >= 0, got {L}")
    if x < 0:
        return (-1) ** L * cheb_eval(L, -x)
    if x <= 1.0:
        return math.cos(L * math.acos(x))
    z = x + math.sqrt((x - 1.0) * (x + 1.0))
    zl = z**L
    return 0.5 * (zl + 1.0 / zl)


def _cheb_derivs_exact(L: int, x: Fraction, jmax: int) -> list[Fraction]:
    """[T_L(x), T_L'(x), ..., T_L^(jmax)(x)] in exact rational arithmetic.

    Differentiating the three-term recurrence j times gives
    T_{m+1}^(j) = 2x T_m^(j) + 2j T_m^(j-1) - T_{m-1}^(j).
    """
    prev = [Fraction(1)] + [Fraction(0)] * jmax
    if L == 0:
        return prev
    curr = [x] + ([Fraction(1)] + [Fraction(0)] * (jmax - 1) if jmax >= 1 else [])
    for _ in range(1, L):
        nxt = []
        for j in range(jmax + 1):
            v = 2 * x * curr[j] - prev[j]
            if j >= 1:
                v += 2 * j * curr[j - 1]
            nxt.append(v)
        prev, curr = curr, nxt
    return curr


def cheb_derivatives(L: int, x: float, jmax: int) -> np.ndarray:
    """Derivative values T_L^(0..jmax)(x), exact internally, rounded on return."""
    if not 0 <= jmax <= L:
        raise ParameterError(f"need 0 <= jmax <= L, got jmax={jmax}, L={L}")
    vals = _cheb_derivs_exact(L, Fraction(x), jmax)
    return np.array([float(v) for v in vals])


def _origin_derivs(L: int, l, r) -> tuple[list[Fraction], Fraction]:
    """T_L^(0..L)(x0) at the image x0 = -(r + l)/(r - l) of the origin, and the
    slope 2/(r - l) of the map from [l, r] onto [-1, 1], both exact."""
    if L < 1:
        raise ParameterError(f"degree must be >= 1, got {L}")
    lf, rf = Fraction(l), Fraction(r)
    if not 0 < lf < rf:
        raise ParameterError(f"need 0 < l < r, got l={l}, r={r}")
    return _cheb_derivs_exact(L, -(rf + lf) / (rf - lf), L), 2 / (rf - lf)


def _shifted_coeffs_exact(L: int, l, r) -> list[Fraction]:
    derivs, slope = _origin_derivs(L, l, r)
    return [-(slope**j) * derivs[j] / (math.factorial(j) * derivs[0]) for j in range(L + 1)]


def _doubles(name: str, exact: list[Fraction]) -> np.ndarray:
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


def g_table(L: int, l: float, r: float, n) -> CoefficientTable:
    """Weight table g[j] = a_j * j!/n^j + 1 (g[0] = 0), rationals rounded once.

    Computed in the scaled variable y = n x, where the same rational reads
    g[j] = 1 - s^j T_L^(j)(x0) / T_L(x0) with s = 2/(n (r - l)), without
    factorials or the p-space coefficients a_j.
    """
    if n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {n}")
    derivs, slope = _origin_derivs(L, l, r)
    s = slope / Fraction(n)
    g_exact = [1 - s**j * derivs[j] / derivs[0] for j in range(L + 1)]
    g = _doubles("g", g_exact)
    g_lo = [float(v - Fraction(h)) for v, h in zip(g_exact, g)]
    return CoefficientTable(L=L, l=float(l), r=float(r), n=float(n), g=g, _g_lo=np.array(g_lo))


def poly_eval_direct(table: CoefficientTable, x: float) -> float:
    """P_L(x) via the defining ratio of Chebyshev values (no monomial expansion)."""
    l, r, L = table.l, table.r, table.L
    t = (2.0 * x - r - l) / (r - l)
    t0 = -(r + l) / (r - l)
    return -cheb_eval(L, t) / cheb_eval(L, t0)

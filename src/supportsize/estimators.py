"""Support-size estimators, all pure functions of a fingerprint.

``k`` is the reciprocal of the smallest nonzero probability mass the unknown
distribution may carry (the model parameter), not the true support size; the
two are easy to confuse.  Estimates are reported as reals, never clamped or
rounded here (both are CLI options).  A sample too small for an estimator,
like any other it is not defined on, raises ``UndefinedEstimatorError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .chebyshev import check_degree, g_table
from .errors import DegenerateDegreeError, ParameterError, UndefinedEstimatorError
from .ingest import Fingerprint

# Relative floor for the approximation interval width.  For n >= c1*k*ln(k)
# the rule r = c1*ln(k)/n drops below l = 1/k; the weights have a finite
# limit as r -> l, so the interval is widened to [l, l*(1+eta)] instead of
# failing.  In that regime multiplicities <= L are rare and the correction
# to the plug-in count is negligible, as it should be.
_MIN_WIDTH = 1e-3


def _check_series(t: float, J: int = 1) -> None:
    """The rules of the extrapolation ratio t (et, gtoulmin) and the cutoff J (et)."""
    if not 0 < t < math.inf:
        raise ParameterError(f"t must be finite and > 0, got {t}")
    if J < 1:
        raise ParameterError(f"J must be a positive integer, got {J}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Every estimator constant: c0=0.45, c1=0.5 (recommended) and override_L of wy,
    the extrapolation ratio t of et and gtoulmin, and the series cutoff J of et."""

    c0: float = 0.45
    c1: float = 0.5
    override_L: Optional[int] = None
    t: float = 1.0
    J: int = 10

    def __post_init__(self):
        if not (0 < self.c0 < math.inf and 0 < self.c1 < math.inf):
            raise ParameterError(
                f"c0 and c1 must be positive and finite, got c0={self.c0}, c1={self.c1}"
            )
        _check_series(self.t, self.J)


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class Estimate:
    value: float
    params: dict

    @staticmethod
    def of(value: float, **params) -> "Estimate":
        return Estimate(value=float(value), params=params)


def _degree(k: float, cfg: EstimatorConfig) -> int:
    """The degree L of the rule, which depends on k and cfg alone."""
    if not 2 <= k < math.inf:
        raise ParameterError(f"k must be finite and >= 2, got {k}")
    if cfg.override_L is not None:
        L = cfg.override_L
    else:
        L = math.floor(cfg.c0 * math.log(k))
    if L < 1:
        raise DegenerateDegreeError(
            f"degree rule gives L={L} for k={k} (c0={cfg.c0}); "
            "too few effective moments -- use the plug-in estimator instead"
        )
    check_degree(L)
    return L


def degree_params(k: float, n: int, cfg: EstimatorConfig = DEFAULT_CONFIG):
    """Degree and approximation interval: L = floor(c0 ln k), [l, r] = [1/k, c1 ln k / n].

    Logarithms are natural: with c0 = 0.45 this yields L = 4, 6, 9 at
    k = 32000, 1e6, 1e9, which no other base reproduces.  L is at most
    ``MAX_DEGREE``.
    """
    L = _degree(k, cfg)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    l = 1.0 / k
    r = cfg.c1 * math.log(k) / n
    if r <= l * (1.0 + _MIN_WIDTH):
        r = l * (1.0 + _MIN_WIDTH)
    return L, l, r


def chebyshev_estimate(
    fp: Fingerprint, k: Optional[float] = None, cfg: EstimatorConfig = DEFAULT_CONFIG
) -> Estimate:
    """Chebyshev-weighted linear estimator: sum_{j<=L} g[j] h_j + sum_{j>L} h_j.

    The weights are chosen so that, under Poisson sampling, the bias
    contribution of a symbol with mass p is exp(-n p) * P_L(p), and P_L is
    the polynomial deviating least from zero on [l, r] among those pinned to
    -1 at the origin.  The weight table takes O(L) exact rational operations
    and is built once per (L, l, r, n); the sum is O(#distinct multiplicities).
    """
    if k is None:
        raise ParameterError("k (reciprocal minimum mass) must be given")
    if fp.n < 1:
        raise UndefinedEstimatorError("chebyshev estimator needs at least one sample")
    L, l, r = degree_params(k, fp.n, cfg)
    value = _linear(fp, g_table(L, l, r, fp.n).g.__getitem__, L)
    return Estimate.of(value, n=fp.n, k=k, L=L, l=l, r=r,
                       c0=cfg.c0, c1=cfg.c1)


def _linear(
    fp: Fingerprint, weight: Optional[Callable[[int], float]] = None, cutoff: float = 0
) -> float:
    """fsum_j w_j h_j over the fingerprint, with w_j = weight(j) up to ``cutoff`` and 1 past it.

    Every linear estimator here is this sum for its own weights.  ``weight``
    is called only at multiplicities the fingerprint holds.  A weight or term
    that is not a finite double leaves the estimator undefined on ``fp``.
    """
    try:
        terms = [(weight(j) if j <= cutoff else 1.0) * h for j, h in fp.items()]
        if all(map(math.isfinite, terms)):
            return math.fsum(terms)
    except OverflowError:
        pass
    raise UndefinedEstimatorError(
        "a weight or the weighted sum is not a finite double on this fingerprint"
    )


def plug_in(fp: Fingerprint) -> Estimate:
    """Number of distinct observed symbols."""
    return Estimate.of(_linear(fp), n=fp.n)


def _coverage(fp: Fingerprint) -> float:
    """C = 1 - h_1/n; the estimators that divide by it are undefined at C = 0."""
    c = 1.0 - fp.get(1) / fp.n
    if c <= 0.0:
        raise UndefinedEstimatorError(
            "sample coverage estimate is zero (every symbol seen exactly once); "
            "the estimator is not defined"
        )
    return c


def good_turing(fp: Fingerprint) -> Estimate:
    """Plug-in count divided by the coverage estimate C = 1 - h_1/n (Good 1953)."""
    if fp.n < 1:
        raise UndefinedEstimatorError("Good-Turing estimator needs at least one sample")
    c = _coverage(fp)
    return Estimate.of(fp.distinct / c, n=fp.n, coverage=c)


def chao_lee(fp: Fingerprint, variant: int = 1) -> Estimate:
    """Coverage-adjusted estimators with CV correction (Chao & Lee 1992).

    With C = 1 - h_1/n, D = number of distinct symbols and
    M = sum_j j(j-1) h_j:

        gamma1^2 = max(D*M / (C*n*(n-1)) - 1, 0)
        variant 1:  D/C + n(1-C)/C * gamma1^2
        gamma2^2 = max(gamma1^2 * (1 + (1-C)*M / (C*(n-1))), 0)
        variant 2:  D/C + n(1-C)/C * gamma2^2
    """
    if variant not in (1, 2):
        raise ParameterError(f"variant must be 1 or 2, got {variant}")
    if fp.n < 2:
        raise UndefinedEstimatorError("Chao-Lee estimators need n >= 2")
    c = _coverage(fp)
    n = fp.n
    d = fp.distinct
    m2 = sum(j * (j - 1) * hj for j, hj in fp.items())
    base = d / c
    gamma_sq = max(base * m2 / (n * (n - 1)) - 1.0, 0.0)
    if variant == 2:
        gamma_sq = max(gamma_sq * (1.0 + (1.0 - c) * m2 / (c * (n - 1))), 0.0)
    value = base + n * (1.0 - c) / c * gamma_sq
    return Estimate.of(value, n=n, coverage=c, cv_sq=gamma_sq)


def efron_thisted(
    fp: Fingerprint, t: float = DEFAULT_CONFIG.t, J: int = DEFAULT_CONFIG.J
) -> Estimate:
    """Binomial-smoothed series estimator (Efron & Thisted 1976).

    value = plug_in + sum_{j=1..J} (-1)^(j+1) t^j b_j h_j with
    b_j = P[Binom(J, 1/(t+1)) >= j], the regularized incomplete beta
    I_{1/(t+1)}(j, J-j+1), evaluated at observed j only.
    """
    from scipy.special import betainc  # loaded on first use, not by importing the package

    _check_series(t, J)
    if fp.n < 1:
        raise UndefinedEstimatorError("Efron-Thisted estimator needs at least one sample")
    q = 1.0 / (t + 1.0)
    value = _linear(fp, lambda j: 1.0 - (-t) ** j * float(betainc(j, J - j + 1, q)), J)
    return Estimate.of(value, n=fp.n, t=t, J=J)


def good_toulmin(fp: Fingerprint, t: float = DEFAULT_CONFIG.t) -> Estimate:
    """Unsmoothed extrapolation series: plug_in + sum_j (-1)^(j+1) t^j h_j (Good & Toulmin 1956)."""
    _check_series(t)
    if fp.n < 1:
        raise UndefinedEstimatorError("Good-Toulmin estimator needs at least one sample")
    value = _linear(fp, lambda j: 1.0 - (-t) ** j, math.inf)
    return Estimate.of(value, n=fp.n, t=t)


# The one token -> estimator table, shared by the CLI, sweeps and probes.
# Every entry is called as fn(fp, k, cfg).
ESTIMATORS = {
    "wy": chebyshev_estimate,
    "plugin": lambda fp, k, cfg: plug_in(fp),
    "gt": lambda fp, k, cfg: good_turing(fp),
    "cl1": lambda fp, k, cfg: chao_lee(fp, 1),
    "cl2": lambda fp, k, cfg: chao_lee(fp, 2),
    "et": lambda fp, k, cfg: efron_thisted(fp, cfg.t, cfg.J),
    "gtoulmin": lambda fp, k, cfg: good_toulmin(fp, cfg.t),
}


def check_k(k: float) -> None:
    """Every estimator's rule for a given ``k``: finite and >= 1."""
    if not 1 <= k < math.inf:
        raise ParameterError(f"k must be finite and >= 1, got {k}")


def check_arguments(token: str, k: Optional[float] = None,
                    cfg: EstimatorConfig = DEFAULT_CONFIG) -> None:
    """Every check of ``run_estimator``'s arguments that needs no sample, so a
    caller can reject bad arguments before it reads or draws one.  ``cfg``
    checked its own constants when it was built."""
    if token not in ESTIMATORS:
        raise ParameterError(f"unknown estimator {token!r}; choose from {sorted(ESTIMATORS)}")
    if k is not None:
        check_k(k)
        if token == "wy":
            _degree(k, cfg)


def run_estimator(
    token: str, fp: Fingerprint, k: Optional[float] = None, cfg: EstimatorConfig = DEFAULT_CONFIG
) -> Estimate:
    """Run the estimator registered under ``token`` in ``ESTIMATORS``, after ``check_arguments``."""
    check_arguments(token, k, cfg)
    return ESTIMATORS[token](fp, k, cfg)

"""Simulation sweeps and sample-complexity probes with reproducible seeding.

Per-trial generators are derived as ``SeedSequence([master_seed, *path])`` so
any cell of a sweep can be recomputed independently and whole runs are
bit-reproducible.  Within a trial the same sample is shared by every
estimator, matching how the estimators are compared in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ParameterError, UndefinedEstimatorError
from .estimators import ESTIMATORS, DEFAULT_CONFIG, EstimatorConfig, check_arguments
from .ingest import Fingerprint, check_seed
from .synth import (DiscreteDistribution, check_sample_size, check_sampling, effective_k,
                    sample_fingerprint)


def _check_trials(trials: int) -> None:
    """Every sweep cell and probe evaluation runs at least one trial."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")


@dataclass(frozen=True)
class SweepSpec:
    family: DiscreteDistribution
    n_grid: list
    trials: int = 50
    estimators: tuple = ("wy", "plugin", "gt")
    seed: int = 0
    sampling: str = "iid"
    cfg: EstimatorConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if not self.n_grid:
            raise ParameterError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ParameterError(f"n_grid must be strictly increasing, got {self.n_grid}")
        _check_trials(self.trials)
        if not self.estimators:
            raise ParameterError("estimators must be nonempty")
        for i, e in enumerate(self.estimators):
            if e in self.estimators[:i]:  # its trials would land twice in one cell
                raise ParameterError(f"estimator {e!r} repeats in {self.estimators}")
            check_arguments(e, effective_k(self.family), self.cfg)
        check_seed(self.seed)
        for n in self.n_grid:  # before the first trial, not where the sweep reaches n
            check_sample_size(n, self.sampling)


@dataclass(frozen=True)
class SweepRow:
    estimator: str
    n: int
    mean_estimate: Optional[float]
    rmse: Optional[float]
    std_dev: Optional[float]
    trials: int
    undefined_count: int


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def trial_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for one trial, derived as SeedSequence([master_seed, *path])."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


def _trial_value(
    estimator: str, fp: Fingerprint, k: float, cfg: EstimatorConfig
) -> Optional[float]:
    """One estimator's value on one trial's sample, or None where it is undefined;
    the arguments passed ``check_arguments`` before the first trial."""
    try:
        return ESTIMATORS[estimator](fp, k, cfg).value
    except UndefinedEstimatorError:
        return None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Mean/RMSE/stddev of each estimator at each n, against the true support size.

    Undefined-estimator trials (for example Good-Turing when no symbol
    repeats) are counted and excluded from the moments; they never abort the
    sweep.  Deterministic for a fixed master seed.
    """
    k = effective_k(spec.family)
    s_true = spec.family.support_size
    cells: dict[tuple[str, int], list] = {(e, n): [] for e in spec.estimators for n in spec.n_grid}
    for ni, n in enumerate(spec.n_grid):
        for t in range(spec.trials):
            rng = trial_rng(spec.seed, ni, t)
            fp = sample_fingerprint(spec.family, n, rng, spec.sampling)
            for est in spec.estimators:
                cells[est, n].append(_trial_value(est, fp, k, spec.cfg))
    rows = []
    for (est, n), cell in cells.items():
        vals = np.array([v for v in cell if v is not None])
        bad = len(cell) - vals.size
        if vals.size == 0:
            rows.append(SweepRow(est, n, None, None, None, spec.trials, bad))
            continue
        rows.append(
            SweepRow(
                estimator=est,
                n=n,
                mean_estimate=float(vals.mean()),
                rmse=float(np.sqrt(np.mean((vals - s_true) ** 2))),
                std_dev=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                trials=spec.trials,
                undefined_count=bad,
            )
        )
    return rows


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - spread, 0.0), min(center + spread, 1.0)


@dataclass(frozen=True)
class ProbeResult:
    estimator: str
    epsilon: float
    delta: float
    k: float
    n_star: Optional[int]
    failure_freq: Optional[float]
    wilson_low: Optional[float]
    wilson_high: Optional[float]
    trials: int
    ceiling: int
    ceiling_reached: bool
    evaluations: list = field(default_factory=list)


def probe_sample_complexity(
    family: DiscreteDistribution,
    estimator: str,
    epsilon: float,
    delta: float = 0.1,
    trials: int = 50,
    seed: int = 0,
    ceiling: Optional[int] = None,
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    sampling: str = "iid",
) -> ProbeResult:
    """Smallest n at which the empirical failure frequency P[|S_hat - S| >= eps*k] drops to delta.

    Doubles n out of a failing region, then bisects; because the empirical
    curve is only stochastically monotone, the boundary point is re-verified
    with 4x trials, and if the verification fails the search hops 5 % forward
    and starts again, at most six times.  An estimator that is undefined on a
    trial counts as a failure.  epsilon >= 1/2 returns 0 (support sizes never
    exceed k, so the trivial estimate k/2 always lands within k/2).
    """
    k = effective_k(family)
    check_arguments(estimator, k, cfg)
    _check_trials(trials)
    if not 0 <= delta < 1:
        raise ParameterError(f"delta must be in [0, 1), got {delta}")
    if ceiling is not None and ceiling < 1:
        raise ParameterError(f"ceiling must be >= 1, got {ceiling}")
    check_sampling(sampling)
    check_seed(seed)
    if epsilon >= 0.5:
        return ProbeResult(estimator, epsilon, delta, k, 0, None, None, None,
                           trials, 0, False, [])
    if not epsilon >= 1.0 / k:
        raise ParameterError(f"epsilon must be >= 1/k = {1.0 / k:.3g}, got {epsilon}")
    if ceiling is None:
        ceiling = int(10 * k * math.log(k))
    s_true = family.support_size
    tol = epsilon * k
    evaluations: list[tuple[int, float]] = []

    def failure_freq(n: int, reps: int = trials, salt: int = 0) -> float:
        failures = 0
        for t in range(reps):
            rng = trial_rng(seed, salt, n, t)
            val = _trial_value(estimator, sample_fingerprint(family, n, rng, sampling), k, cfg)
            if val is None or abs(val - s_true) >= tol:
                failures += 1
        freq = failures / reps
        evaluations.append((n, freq))
        return freq

    lo, n = 0, 1  # lo: the highest n known (or assumed) to fail
    for hop in range(7):
        while n <= ceiling and failure_freq(n) > delta:
            lo, n = n, 2 * n
        if n > ceiling or hop == 6:  # at most six verifications; a seventh search is not used
            break
        hi = n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if failure_freq(mid) <= delta:
                hi = mid
            else:
                lo = mid
        freq4 = failure_freq(hi, 4 * trials, 1)
        if freq4 <= delta:
            wl, wh = wilson_interval(round(freq4 * 4 * trials), 4 * trials)
            return ProbeResult(estimator, epsilon, delta, k, hi, freq4, wl, wh,
                               trials, ceiling, False, evaluations)
        lo, n = hi, hi + max(1, hi // 20)
    return ProbeResult(estimator, epsilon, delta, k, None, None, None, None,
                       trials, ceiling, True, evaluations)

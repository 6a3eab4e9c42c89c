"""Synthetic distribution families and seeded samplers.

All randomness flows through numpy's PCG64 generator seeded with explicit
``SeedSequence`` objects, so any (distribution, n, seed) triple reproduces the
same counts on every platform.  Fixed-size multinomial draws use a Vose
alias table (built once per distribution, O(1) per sample) so sweeps at
k ~ 1e5..1e6 stay fast; Poissonized draws are vectorized per symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import ParameterError
from .ingest import Fingerprint, fingerprint_from_counts

# Largest k that parse_family accepts, checked before anything is allocated.
# Memory grows linearly in k: 1e7 symbols with their alias table peak near
# 0.9 GB, and 1e12 would need terabytes.
MAX_FAMILY_SIZE = 10**7

# Largest n of an iid sample, checked before anything is allocated.  The alias
# draw holds about 25 bytes per draw at its peak, so 1e8 draws take 2.5 GB and
# 1e13 would take hundreds of terabytes.  Drawing in chunks would change the
# random stream; a larger n can be sampled Poissonized, whose memory grows with k.
MAX_IID_N = 10**8

# Largest n of a Poissonized sample: numpy's Generator.poisson rejects means above
# about 9.22e18, and a fingerprint counts its samples in int64 (below 9.22e18).
_MAX_POISSON_N = 9.2e18

# Arguments each family takes.
_FAMILY_KEYS = {"uniform": ("k",), "zipf": ("k", "alpha"), "mixture": ("k",)}

# How a sample of size n is drawn: a multinomial(n) sample, or independent Poi(n p_i) counts.
SAMPLING_MODES = ("iid", "poissonized")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Normalized positive masses with the minimum mass cached."""

    masses: np.ndarray
    min_mass: float = field(init=False, default=0.0)

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        if masses.ndim != 1 or masses.size == 0:
            raise ParameterError("masses must be a nonempty 1-d array")
        if not np.all(masses > 0):
            raise ParameterError("all masses must be strictly positive")
        total = math.fsum(masses.tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise ParameterError(f"masses must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "min_mass", float(masses.min()))
        object.__setattr__(self, "_alias_cache", None)

    @property
    def support_size(self) -> int:
        return int(self.masses.size)

    def _alias(self) -> "_AliasTable":
        cached = getattr(self, "_alias_cache")
        if cached is None:
            cached = _AliasTable(self.masses)
            object.__setattr__(self, "_alias_cache", cached)
        return cached


def _normalized(weights: np.ndarray) -> DiscreteDistribution:
    w = np.asarray(weights, dtype=float)
    w = w / math.fsum(w.tolist())
    # one correction pass keeps the fsum within a few ulps of 1
    w = w / math.fsum(w.tolist())
    return DiscreteDistribution(masses=w)


def make_uniform(k: int) -> DiscreteDistribution:
    """p_i = 1/k on k symbols."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return _normalized(np.ones(k))


def make_zipf(k: int, alpha: float) -> DiscreteDistribution:
    """p_i proportional to i^(-alpha), i = 1..k."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 0 <= alpha < math.inf:
        raise ParameterError(f"alpha must be finite and >= 0, got {alpha}")
    i = np.arange(1, k + 1, dtype=float)
    return _normalized(i**-alpha)


def make_mixture(k: int) -> DiscreteDistribution:
    """Half Zipf(1), half geometric, each half carrying total mass 1/2.

    First k/2 masses proportional to 1/i, last k/2 proportional to
    (1 - 2/k)^(i-1), i = 1..k/2.
    """
    if k < 4 or k % 2 != 0:
        raise ParameterError(f"mixture family needs even k >= 4, got {k}")
    half = k // 2
    i = np.arange(1, half + 1, dtype=float)
    zipf = 1.0 / i
    zipf *= 0.5 / math.fsum(zipf.tolist())
    geo = (1.0 - 2.0 / k) ** (i - 1.0)
    geo *= 0.5 / math.fsum(geo.tolist())
    return _normalized(np.concatenate([zipf, geo]))


def effective_k(dist: DiscreteDistribution) -> float:
    """Reciprocal of the minimum mass: the estimator's k parameter for this distribution."""
    return 1.0 / dist.min_mass


class _AliasTable:
    """Vose alias method; construction O(k), each draw O(1)."""

    def __init__(self, masses: np.ndarray):
        k = masses.size
        prob = np.empty(k)
        alias = np.zeros(k, dtype=np.int64)
        scaled = (masses * k).tolist()
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for rest in (large, small):
            while rest:
                i = rest.pop()
                prob[i] = 1.0
                alias[i] = i
        self.prob = prob
        self.alias = alias

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = self.prob.size
        idx = rng.integers(0, k, size=size)
        keep = rng.random(size) < self.prob[idx]
        return np.where(keep, idx, self.alias[idx])


def check_sampling(sampling: str) -> None:
    if sampling not in SAMPLING_MODES:
        raise ParameterError(f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}")


def check_sample_size(n: int, sampling: str = "iid") -> None:
    """The size rules of one sample: n >= 0, at most MAX_IID_N iid, at most 9.2e18 Poissonized."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    check_sampling(sampling)
    # an int n compares exactly, however large
    if sampling == "poissonized" and n > _MAX_POISSON_N:
        raise ParameterError(f"a Poissonized sample needs n <= {_MAX_POISSON_N:.3g}, got {n}")
    if sampling == "iid" and n > MAX_IID_N:
        raise ParameterError(f"an iid sample needs n <= {MAX_IID_N:.3g}, got {n}; "
                             "use Poissonized sampling for larger n")


def draw_counts(
    dist: DiscreteDistribution,
    n: int,
    rng: np.random.Generator,
    sampling: str = "iid",
) -> np.ndarray:
    """Count vector of one sample: multinomial(n) via alias draws, or independent Poi(n p_i)."""
    check_sample_size(n, sampling)
    if sampling == "poissonized":
        return rng.poisson(n * dist.masses)
    k = dist.support_size
    if n == 0:
        return np.zeros(k, dtype=np.int64)
    symbols = dist._alias().draw(rng, n)
    return np.bincount(symbols, minlength=k)


def sample_fingerprint(
    dist: DiscreteDistribution, n: int, rng: np.random.Generator, sampling: str = "iid"
) -> Fingerprint:
    """Fingerprint of one sample without materializing a symbol-keyed histogram."""
    return fingerprint_from_counts(draw_counts(dist, n, rng, sampling))


def parse_family(spec: str) -> DiscreteDistribution:
    """Parse 'uniform:k=100', 'zipf:k=100,alpha=1', 'mixture:k=50'.

    A key the family does not take, or a repeated key, is a ParameterError.
    """
    name, _, argstr = spec.partition(":")
    if name not in _FAMILY_KEYS:
        raise ParameterError(f"unknown family {name!r}; expected uniform, zipf or mixture")
    args = {}
    if argstr:
        for part in argstr.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if not val:
                raise ParameterError(f"bad family argument {part!r} in {spec!r}")
            if key not in _FAMILY_KEYS[name]:
                raise ParameterError(f"family {name!r} takes {', '.join(_FAMILY_KEYS[name])}, "
                                     f"not {key!r}")
            if key in args:
                raise ParameterError(f"family argument {key!r} repeats in {spec!r}")
            args[key] = val.strip()
    try:
        k = int(args["k"])
        alpha = float(args.get("alpha", 1.0))
    except KeyError as exc:
        raise ParameterError(f"family {spec!r} is missing argument {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"family {spec!r} has a malformed number: {exc}") from exc
    if k > MAX_FAMILY_SIZE:
        raise ParameterError(f"family size k={k} exceeds the limit {MAX_FAMILY_SIZE}")
    if name == "zipf":
        return make_zipf(k, alpha)
    return make_uniform(k) if name == "uniform" else make_mixture(k)

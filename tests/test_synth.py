"""Distribution families, model-class membership, and sampler statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from supportsize import (
    DiscreteDistribution,
    ParameterError,
    draw_counts,
    effective_k,
    make_mixture,
    make_uniform,
    make_zipf,
    parse_family,
    sample_fingerprint,
)
from supportsize.synth import MAX_IID_N


def test_make_uniform_examples():
    d = make_uniform(4)
    assert d.masses == pytest.approx([0.25] * 4)
    assert make_uniform(1).masses == pytest.approx([1.0])
    for k in (1, 7, 1000):
        d = make_uniform(k)
        assert d.min_mass == pytest.approx(1.0 / k)
        assert d.support_size == k
        assert effective_k(d) == pytest.approx(k)


def test_make_zipf_examples():
    assert make_zipf(5, 0.0).masses == pytest.approx(make_uniform(5).masses)
    assert make_zipf(2, 1.0).masses == pytest.approx([2 / 3, 1 / 3])
    w = [1.0, 2 ** -0.5, 3 ** -0.5]
    z = sum(w)
    assert make_zipf(3, 0.5).masses == pytest.approx([x / z for x in w])


def test_zipf_effective_k_is_k_times_harmonic():
    k = 50
    h_k = sum(1.0 / i for i in range(1, k + 1))
    assert effective_k(make_zipf(k, 1.0)) == pytest.approx(k * h_k, rel=1e-10)


def test_make_mixture_k4_exact():
    d = make_mixture(4)
    assert d.masses == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6])
    assert effective_k(d) == pytest.approx(6.0)


def test_make_mixture_structure():
    for k in (4, 10, 100):
        d = make_mixture(k)
        half = k // 2
        assert math.fsum(d.masses[:half].tolist()) == pytest.approx(0.5, abs=1e-12)
        assert math.fsum(d.masses[half:].tolist()) == pytest.approx(0.5, abs=1e-12)
    # geometric decay: the last atom of the second half is its smallest
    d = make_mixture(10)
    second = d.masses[5:]
    assert second.argmin() == 4


def test_make_mixture_rejects_odd_or_tiny_k():
    with pytest.raises(ParameterError):
        make_mixture(7)
    with pytest.raises(ParameterError):
        make_mixture(2)


def test_distribution_invariants_enforced():
    with pytest.raises(ParameterError):
        DiscreteDistribution(masses=np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ParameterError):
        DiscreteDistribution(masses=np.array([0.6, 0.5]))
    with pytest.raises(ParameterError):
        DiscreteDistribution(masses=np.array([np.nan, np.nan]))
    for masses in ([], [[0.5, 0.5]], 1.0):
        with pytest.raises(ParameterError, match="nonempty 1-d"):
            DiscreteDistribution(masses=np.array(masses))


def test_family_membership_in_model_class():
    # every mass at least 1/effective_k, up to float round-off
    for d in (make_uniform(1000), make_zipf(500, 1.0), make_zipf(100, 0.5), make_mixture(64)):
        k = effective_k(d)
        assert np.all(d.masses >= 1.0 / k * (1 - 1e-12))


def _seeded(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def test_sample_iid_examples_and_determinism():
    d = make_uniform(10)
    assert draw_counts(d, 0, _seeded(1)).sum() == 0

    point = DiscreteDistribution(masses=np.array([1.0]))
    assert draw_counts(point, 7, _seeded(3)).tolist() == [7]

    c1 = draw_counts(d, 500, _seeded(9))
    c2 = draw_counts(d, 500, _seeded(9))
    assert np.array_equal(c1, c2)
    c3 = draw_counts(d, 500, _seeded(10))
    assert not np.array_equal(c1, c3)
    assert c1.sum() == 500  # multinomial totals are exact


def test_sample_iid_uniform_concentration():
    # all cell counts within 5 sigma of n/k for a seeded batch
    k, n = 1000, 10**6
    counts = draw_counts(make_uniform(k), n, _seeded(123))
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    assert counts.sum() == n
    assert np.abs(counts - n / k).max() <= 5 * sigma


def test_sample_poissonized_total_behaviour():
    d = make_uniform(200)
    assert draw_counts(d, 0, _seeded(0), "poissonized").sum() == 0
    n = 1000
    trials = 300
    totals = np.array([draw_counts(d, n, _seeded(s), "poissonized").sum() for s in range(trials)])
    # empirical mean of Poi(n) within 3 standard errors
    assert abs(totals.mean() - n) <= 3 * math.sqrt(n / trials)


def test_poissonized_plug_in_is_binomial():
    # under uniform sampling each symbol is seen independently w.p. 1-exp(-n/k)
    k, n, trials = 300, 300, 400
    rng = np.random.default_rng(5)
    distinct = np.empty(trials)
    d = make_uniform(k)
    for t in range(trials):
        distinct[t] = sample_fingerprint(d, n, rng, "poissonized").distinct
    q = 1.0 - math.exp(-n / k)
    res = stats.kstest(distinct, stats.binom(k, q).cdf)
    assert res.pvalue > 1e-4


def test_draw_counts_validation():
    d = make_uniform(4)
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        draw_counts(d, -1, rng)
    with pytest.raises(ParameterError):
        draw_counts(d, 10, rng, sampling="bogus")
    # numpy's Poisson sampler stops near a mean of 9.22e18; an int n of any size is checked
    for n in (10**20, 10**400):
        with pytest.raises(ParameterError, match="Poissonized"):
            draw_counts(d, n, rng, sampling="poissonized")
    assert draw_counts(d, 9_200_000_000_000_000_000, rng, sampling="poissonized").size == 4
    # the alias draw holds all n draws at once, so an iid n is capped before drawing
    for n in (MAX_IID_N + 1, 10**13, 10**20, 10**400):
        with pytest.raises(ParameterError, match="iid sample needs n <= 1e\\+08"):
            draw_counts(d, n, rng)


def test_alias_draws_match_masses():
    # chi-square goodness of fit for the alias sampler on a skewed family
    d = make_zipf(6, 1.0)
    rng = np.random.default_rng(77)
    counts = draw_counts(d, 200_000, rng, "iid")
    res = stats.chisquare(counts, f_exp=200_000 * d.masses)
    assert res.pvalue > 1e-4


def test_parse_family():
    assert parse_family("uniform:k=10").support_size == 10
    z = parse_family("zipf:k=5,alpha=0.5")
    assert z.masses == pytest.approx(make_zipf(5, 0.5).masses)
    assert parse_family("mixture:k=8").support_size == 8
    with pytest.raises(ParameterError):
        parse_family("pareto:k=5")
    with pytest.raises(ParameterError):
        parse_family("zipf:alpha=1")
    with pytest.raises(ParameterError):
        parse_family("zipf:k")
    for spec in ("uniform:k=nan", "uniform:k=inf", "mixture:k=1e400", "zipf:k=5,alpha=x",
                 "zipf:k=2,alpha=nan", "zipf:k=5,alpha=inf"):
        with pytest.raises(ParameterError):
            parse_family(spec)
    # a key the family does not take, or a repeated one, is not silently dropped
    for spec in ("zipf:k=100,alfa=2", "uniform:k=100,alpha=2", "mixture:k=8,alpha=1",
                 "uniform:k=100,k=5", "zipf:k=5,alpha=1,alpha=2"):
        with pytest.raises(ParameterError):
            parse_family(spec)

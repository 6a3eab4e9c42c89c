"""Estimator contracts: degree rule, linear forms, baselines, invariances."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest

import supportsize as ss
from supportsize import (
    DEFAULT_CONFIG,
    DegenerateDegreeError,
    EstimatorConfig,
    Fingerprint,
    ParameterError,
    UndefinedEstimatorError,
    build_histogram,
    chao_lee,
    chebyshev_estimate,
    degree_params,
    efron_thisted,
    fingerprint_of,
    good_toulmin,
    good_turing,
    plug_in,
)
from supportsize.chebyshev import MAX_DEGREE
from supportsize.estimators import check_arguments


def fp_of(h):
    return Fingerprint(h=h, n=sum(j * c for j, c in h.items()))


@pytest.mark.parametrize("k,expected_L", [(32000, 4), (10**6, 6), (10**9, 9)])
def test_degree_rule_matches_published_degrees(k, expected_L):
    L, l, r = degree_params(k, n=10**5)
    assert L == expected_L
    assert l == 1.0 / k
    assert r == pytest.approx(0.5 * math.log(k) / 10**5)


def test_degree_rule_degenerate_small_k():
    with pytest.raises(DegenerateDegreeError, match="plug-in"):
        degree_params(5, 100)


def test_degree_rule_rejects_override_zero():
    with pytest.raises(DegenerateDegreeError):
        degree_params(10**6, 100, EstimatorConfig(override_L=0))


def test_degree_rule_override():
    L, _, _ = degree_params(10**6, 100, EstimatorConfig(override_L=3))
    assert L == 3


def test_degree_rule_interval_floor_in_coupon_collector_regime():
    # n far beyond c1*k*ln(k): the rule's r would fall below l
    k = 1000
    L, l, r = degree_params(k, n=10**7)
    assert l == 1.0 / k
    assert l < r <= l * 1.002


def test_degree_rule_preconditions():
    for k in (1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            degree_params(k, 100)
    with pytest.raises(ParameterError):
        degree_params(100, 0)
    for cfg in (EstimatorConfig(override_L=MAX_DEGREE + 1), EstimatorConfig(c0=1e9)):
        with pytest.raises(ParameterError, match=rf"degree must be in 1\.\.{MAX_DEGREE}"):
            degree_params(10**6, 100, cfg)


def test_plug_in_examples():
    assert plug_in(fp_of({1: 3, 2: 2})).value == 5
    assert plug_in(Fingerprint(h={}, n=0)).value == 0
    assert plug_in(fp_of({7: 1})).value == 1


def test_good_turing_examples():
    est = good_turing(fp_of({1: 2, 4: 2}))
    assert est.params["coverage"] == pytest.approx(0.8)
    assert est.value == pytest.approx(5.0)

    # no singletons: coverage 1, reduces to plug-in
    est = good_turing(fp_of({2: 3, 5: 1}))
    assert est.value == pytest.approx(4.0)

    with pytest.raises(UndefinedEstimatorError):
        good_turing(fp_of({1: 3}))


def test_chao_lee_zero_cv_reduces_to_coverage_form():
    fp = fp_of({10: 5})  # every symbol seen 10 times, no singletons
    for variant in (1, 2):
        est = chao_lee(fp, variant)
        assert est.value == pytest.approx(5.0)
        assert est.params["cv_sq"] == 0.0


def test_chao_lee_undefined_and_preconditions():
    with pytest.raises(UndefinedEstimatorError):
        chao_lee(fp_of({1: 4}))
    with pytest.raises(UndefinedEstimatorError, match="n >= 2"):
        chao_lee(fp_of({1: 1}))  # n = 1 < 2
    with pytest.raises(ParameterError):
        chao_lee(fp_of({1: 2, 2: 1}), variant=3)


def test_chao_lee_against_rational_oracle():
    # direct evaluation of the documented formulas in exact arithmetic
    h = {1: 6, 2: 2, 10: 2}
    fp = fp_of(h)
    n = Fraction(fp.n)
    d = Fraction(fp.distinct)
    c = 1 - Fraction(h[1]) / n
    m2 = Fraction(sum(j * (j - 1) * c_ for j, c_ in h.items()))
    gamma1 = max(d / c * m2 / (n * (n - 1)) - 1, Fraction(0))
    cl1 = d / c + n * (1 - c) / c * gamma1
    gamma2 = max(gamma1 * (1 + (1 - c) * m2 / (c * (n - 1))), Fraction(0))
    cl2 = d / c + n * (1 - c) / c * gamma2
    assert gamma1 > 0  # the case exercises the correction term
    assert chao_lee(fp, 1).value == pytest.approx(float(cl1), rel=1e-12)
    assert chao_lee(fp, 2).value == pytest.approx(float(cl2), rel=1e-12)


def test_efron_thisted_examples():
    # J=2, t=1: b_1 = 3/4, b_2 = 1/4
    est = efron_thisted(fp_of({1: 2, 2: 1}), t=1.0, J=2)
    assert est.value == pytest.approx(3 + 0.75 * 2 - 0.25 * 1)

    tiny = efron_thisted(fp_of({1: 2, 2: 1}), t=1e-12, J=2)
    assert tiny.value == pytest.approx(3.0, abs=1e-9)

    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            efron_thisted(fp_of({1: 1}), t=t)
    with pytest.raises(ParameterError):
        efron_thisted(fp_of({1: 1}), J=0)

    # b_j is evaluated at observed j only: a huge J costs nothing extra,
    # and b_1 = b_2 = 1 - O(2^-J)
    assert efron_thisted(fp_of({1: 2, 2: 1}), t=1.0, J=10**9).value == pytest.approx(4.0)
    # stable b_j: the binomial pmf of J = 1100 no longer overflows
    assert efron_thisted(fp_of({1100: 1}), t=0.5, J=1100).value == pytest.approx(1.0)


def test_good_toulmin_examples():
    assert good_toulmin(fp_of({1: 2, 2: 1}), t=1.0).value == pytest.approx(4.0)
    # only even multiplicities: plug-in minus the even counts
    fp = fp_of({2: 3, 4: 2})
    assert good_toulmin(fp, t=1.0).value == pytest.approx(5 - 5)
    assert good_toulmin(fp, t=1e-12).value == pytest.approx(5.0, abs=1e-9)
    for t in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            good_toulmin(fp, t=t)


def test_series_weights_beyond_double_range_are_undefined():
    fp = fp_of({1100: 1})  # t^j = 2^1100 is not a double
    with pytest.raises(UndefinedEstimatorError):
        good_toulmin(fp, t=2.0)
    with pytest.raises(UndefinedEstimatorError):
        efron_thisted(fp, t=2.0, J=1100)


def test_chebyshev_estimate_fully_observed_reduces_to_plug_in():
    k = 100  # L = floor(0.45 * ln 100) = 2
    fp = fp_of({3: 4, 5: 2})
    L, _, _ = degree_params(k, fp.n)
    assert L == 2
    assert max(fp.h) > L
    est = chebyshev_estimate(fp, k)
    assert est.value == plug_in(fp).value  # exact: only the j > L sum contributes
    assert est.params["L"] == L


def test_chebyshev_estimate_basic_properties():
    fp = fp_of({1: 40, 2: 11, 3: 4, 9: 2})
    est = chebyshev_estimate(fp, k=5000)
    assert math.isfinite(est.value)
    for key in ("n", "k", "L", "l", "r"):
        assert key in est.params


def test_chebyshev_estimate_k_from_config():
    # k is an argument only: the config has no k field
    fp = fp_of({1: 5, 2: 2})
    with pytest.raises(TypeError):
        EstimatorConfig(k=1234.0)
    with pytest.raises(ParameterError, match="k"):
        chebyshev_estimate(fp)


def test_chebyshev_estimate_needs_samples():
    with pytest.raises(UndefinedEstimatorError):
        chebyshev_estimate(Fingerprint(h={}, n=0), k=100)


def test_label_invariance_of_all_estimators():
    tokens = ["a", "b", "a", "c", "c", "d", "e", "e", "e", "f"]
    mapping = {t: f"sym{i}" for i, t in enumerate("abcdef")}
    permuted = [mapping[t] for t in tokens]
    fp1 = fingerprint_of(build_histogram(tokens))
    fp2 = fingerprint_of(build_histogram(permuted))
    ests = [
        lambda f: chebyshev_estimate(f, k=50).value,
        lambda f: plug_in(f).value,
        lambda f: good_turing(f).value,
        lambda f: chao_lee(f, 1).value,
        lambda f: chao_lee(f, 2).value,
        lambda f: efron_thisted(f).value,
        lambda f: good_toulmin(f).value,
    ]
    for fn in ests:
        assert fn(fp1) == fn(fp2)


def test_shakespeare_reproduction_exact():
    """Feeding the tabulated canon fingerprint reproduces the published
    vocabulary estimates once the 846 untabulated abundant types are added."""
    fp = ss.shakespeare_fingerprint()
    assert fp.n == 194667
    assert fp.distinct == 30688
    complete = ss.SHAKESPEARE_TYPES_ABOVE_100
    got_low = chebyshev_estimate(fp, k=6 * 10**5).value + complete
    got_high = chebyshev_estimate(fp, k=10**6).value + complete
    assert round(got_low) == 63148
    assert round(got_high) == 73460


def test_estimator_config_validation():
    for kwargs in ({"c0": 0.0}, {"c0": math.nan}, {"c1": math.inf}, {"t": 0.0}, {"J": 0}):
        with pytest.raises(ParameterError):
            EstimatorConfig(**kwargs)
    # a given k is checked once for every token, whether or not it reads k
    fp = fp_of({1: 2, 2: 1})
    for token in ss.ESTIMATORS:
        for k in (0.5, math.nan, math.inf):
            with pytest.raises(ParameterError, match="k must be"):
                ss.run_estimator(token, fp, k)
    with pytest.raises(ParameterError, match="unknown estimator 'nope'"):
        ss.run_estimator("nope", fp, 100)


@pytest.mark.parametrize("token,k,cfg,t,J", [
    ("wy", 1.5, DEFAULT_CONFIG, 1.0, 10),
    ("wy", 5, DEFAULT_CONFIG, 1.0, 10),
    ("wy", 6e4, EstimatorConfig(override_L=0), 1.0, 10),
    ("wy", 6e4, EstimatorConfig(override_L=MAX_DEGREE + 1), 1.0, 10),
    ("wy", 6e4, EstimatorConfig(c0=1e9), 1.0, 10),
    ("et", 6e4, DEFAULT_CONFIG, math.nan, 10),
    ("et", 6e4, DEFAULT_CONFIG, 1.0, 0),
    ("gtoulmin", 6e4, DEFAULT_CONFIG, -1.0, 10),
])
def test_argument_checks_raise_what_the_estimator_raises(token, k, cfg, t, J):
    # the gate runs the estimator's own checks without a sample: t and J are
    # checked where the config is built, the rest in check_arguments
    fp = fp_of({1: 2, 2: 1})
    estimator = {"wy": lambda: chebyshev_estimate(fp, k, cfg),
                 "et": lambda: efron_thisted(fp, t, J), "gtoulmin": lambda: good_toulmin(fp, t)}
    with pytest.raises(ParameterError) as direct:
        estimator[token]()
    with pytest.raises(type(direct.value), match=f"^{re.escape(str(direct.value))}$"):
        check_arguments(token, k, dataclasses.replace(cfg, t=t, J=J))

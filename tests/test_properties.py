"""Property tests: the estimator registry against exact-rational oracles of the
documented formulas, permutation/label invariance, the tokenizer against its
per-token reference, and a CLI input fuzz."""

import contextlib
import functools
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supportsize import (
    ESTIMATORS,
    Fingerprint,
    TokenizerConfig,
    UndefinedEstimatorError,
    build_histogram,
    degree_params,
    efron_thisted,
    fingerprint_from_counts,
    fingerprint_of,
    good_toulmin,
    run_estimator,
    tokenize,
    write_fingerprint_file,
)
from supportsize import ingest
from supportsize.cli import main

# derandomized so the suite is reproducible; to explore further, drop
# derandomize and raise max_examples
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

fingerprints = st.dictionaries(
    st.integers(1, 200), st.integers(1, 10**4), min_size=1, max_size=30
).map(lambda h: Fingerprint(h=h, n=sum(j * c for j, c in h.items())))


def cheb_monomial(L):
    """Integer monomial coefficients of T_L from the three-term recurrence."""
    t0, t1 = [1], [0, 1]
    for _ in range(L - 1):
        t2 = [0] + [2 * c for c in t1]
        t0, t1 = t1, [a - b for a, b in zip(t2, t0 + [0] * (len(t2) - len(t0)))]
    return t1


def wy_weights(L, l, r, n):
    """g_j = a_j j!/n^j + 1 with P_L = sum_j a_j x^j expanded from T_L(alpha x + beta)."""
    lf, rf = Fraction(l), Fraction(r)
    alpha, beta = 2 / (rf - lf), -(rf + lf) / (rf - lf)
    c = cheb_monomial(L)
    t_beta = sum(cm * beta**m for m, cm in enumerate(c))
    a = [
        -sum(c[m] * math.comb(m, j) * alpha**j * beta ** (m - j) for m in range(j, L + 1)) / t_beta
        for j in range(L + 1)
    ]
    return [a[j] * math.factorial(j) / Fraction(n) ** j + 1 for j in range(L + 1)]


def binomial_tails(t, J):
    """b_j = P[Binom(J, 1/(t+1)) >= j] for j = 0..J, exactly."""
    q = 1 / (Fraction(t) + 1)
    pmf = [math.comb(J, m) * q**m * (1 - q) ** (J - m) for m in range(J + 1)]
    return [sum(pmf[j:]) for j in range(J + 1)]


def linear_oracle(fp, w):
    """(exact sum_j w_j h_j, sum_j |w_j| h_j) with w_j = 1 past the end of w."""
    ws = [(w[j] if j < len(w) else 1, h) for j, h in fp.items()]
    return sum(wj * h for wj, h in ws), sum(abs(wj) * h for wj, h in ws)


def closed_form_oracle(token, fp):
    """Good-Turing and Chao-Lee exactly as documented in README."""
    n, d = Fraction(fp.n), Fraction(fp.distinct)
    c = 1 - Fraction(fp.get(1)) / n
    if c == 0:
        return None
    if token == "gt":
        return d / c
    m2 = Fraction(sum(j * (j - 1) * h for j, h in fp.items()))
    gamma = max(d / c * m2 / (n * (n - 1)) - 1, Fraction(0))
    if token == "cl2":
        gamma = max(gamma * (1 + (1 - c) * m2 / (c * (n - 1))), Fraction(0))
    return d / c + n * (1 - c) / c * gamma


def oracle(token, fp, k):
    """(exact value or None where undefined, scale for the relative tolerance)."""
    if token == "wy":
        return linear_oracle(fp, wy_weights(*degree_params(k, fp.n), fp.n))
    if token == "plugin":
        return linear_oracle(fp, [])
    if token == "et":
        b = binomial_tails(1, 10)
        return linear_oracle(fp, [1 - (-1) ** j * b[j] for j in range(11)])
    if token == "gtoulmin":
        return linear_oracle(fp, [1 - (-1) ** j for j in range(max(fp.h) + 1)])
    value = closed_form_oracle(token, fp)
    return value, None if value is None else abs(value)


def assert_close(got, exact, scale, rel=1e-12):
    assert abs(Fraction(got) - exact) <= Fraction(rel) * scale, (
        f"got {got!r}, exact {float(exact)!r}"
    )


@PROPERTY
@given(fp=fingerprints, k=st.floats(50, 1e9))
def test_registry_matches_exact_oracles(fp, k):
    for token in ESTIMATORS:
        # Chao-Lee on n = 1 ({1: 1}) has zero coverage: undefined like any C = 0
        exact, scale = oracle(token, fp, k)
        if exact is None:
            with pytest.raises(UndefinedEstimatorError):
                run_estimator(token, fp, k)
            continue
        got = run_estimator(token, fp, k).value
        if token == "plugin":
            assert got == exact
        else:
            assert_close(got, exact, scale)


@PROPERTY
@given(fp=fingerprints, t=st.floats(0.05, 3.0), J=st.integers(1, 30))
def test_series_estimators_match_exact_oracles(fp, t, J):
    b = binomial_tails(t, J)
    exact, scale = linear_oracle(fp, [1 - (-Fraction(t)) ** j * b[j] for j in range(J + 1)])
    assert_close(efron_thisted(fp, t, J).value, exact, scale)
    w = [1 - (-Fraction(t)) ** j for j in range(max(fp.h) + 1)]
    assert_close(good_toulmin(fp, t).value, *linear_oracle(fp, w))


def registry_values(fp, k):
    out = {}
    for token in ESTIMATORS:
        try:
            out[token] = run_estimator(token, fp, k).value
        except UndefinedEstimatorError:
            out[token] = None
    return out


@PROPERTY
@given(
    counts=st.lists(st.integers(0, 60), min_size=2, max_size=80).filter(lambda c: sum(c) >= 2),
    data=st.data(),
    k=st.floats(50, 1e7),
)
def test_registry_is_permutation_and_label_invariant(counts, data, k):
    perm = data.draw(st.permutations(range(len(counts))))
    base = registry_values(fingerprint_from_counts(np.array(counts)), k)
    assert registry_values(fingerprint_from_counts(np.array(counts)[perm]), k) == base
    tokens = [f"w{i}" for i, c in zip(perm, counts) for _ in range(c)]
    assert registry_values(fingerprint_of(build_histogram(tokens)), k) == base


# small enough that every valid combination runs in milliseconds (c0 <= 3
# keeps the degree L = floor(c0 ln k) <= 41 at k = 1e6); 1e-200 squares to 0
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-200", "0.5", "1", "2", "3"]
K_VALUES = NUMBERS + ["50", "1e6"]
FAMILIES = st.builds("{}:k={}".format, st.sampled_from(["uniform", "mixture"]),
                     st.sampled_from(NUMBERS + ["50"])) | st.builds(
    "zipf:k={},alpha={}".format, st.sampled_from(NUMBERS + ["50"]), st.sampled_from(NUMBERS))


def flags(names):
    """Optional '--name value' pairs drawn from NUMBERS."""
    return st.lists(st.tuples(st.sampled_from(names), st.sampled_from(NUMBERS)),
                    max_size=3, unique_by=lambda p: p[0]).map(
        lambda pairs: [tok for name, val in pairs for tok in (f"--{name}", val)])


@functools.lru_cache  # one strategy per path: a fresh one per draw costs more than the run
def commands(fp_path):
    estimate = st.builds(
        lambda est, k, rest: ["estimate", "--fingerprint", fp_path, "--k", k,
                              "--estimator", est, *rest],
        st.sampled_from(sorted(ESTIMATORS)), st.sampled_from(K_VALUES),
        flags(["c0", "c1", "t", "J", "degree"]))
    simulate = st.builds(
        lambda fam, est, rest: ["simulate", "--family", fam, "--n-grid", "5,20",
                                "--trials", "1", "--estimators", est, *rest],
        FAMILIES, st.sampled_from(sorted(ESTIMATORS)), flags(["c0", "c1"]))
    grids = st.builds(
        lambda fam, est, grid: ["simulate", "--family", fam, "--n-grid", grid,
                                "--trials", "1", "--estimators", est],
        st.sampled_from(["uniform:k=50"]) | FAMILIES, st.sampled_from(sorted(ESTIMATORS)),
        st.sampled_from(N_GRIDS))
    # a valid family, so a grid in range really runs; n-max beyond the iid cap
    # or beyond int64, and n-points beyond the grid cap, are domain errors
    geometric = st.builds(
        lambda est, lo, hi, points: ["simulate", "--family", "uniform:k=50", "--trials", "1",
                                     "--estimators", est, "--n-min", lo, "--n-max", hi,
                                     "--n-points", points],
        st.sampled_from(sorted(ESTIMATORS)), st.sampled_from(["1", "0"]),
        st.sampled_from(["40", "1000000000000", "100000000000000000000"]),
        st.sampled_from(["3", "1000000000000"]))
    # a later flag overrides the default before it, and half the families are
    # known to be valid, so some probes really search
    probe = st.builds(
        lambda fam, est, rest: ["probe", "--family", fam, "--estimator", est,
                                "--epsilon", "0.45", "--trials", "2", *rest],
        st.sampled_from(["uniform:k=50", "mixture:k=50"]) | FAMILIES,
        st.sampled_from(sorted(ESTIMATORS)),
        flags(["epsilon", "delta", "trials", "ceiling"]))
    coeffs = st.builds(
        lambda k, n, rest: ["coeffs", "--k", k, "--n", n, *rest],
        st.sampled_from(K_VALUES), st.sampled_from(["-1", "0", "1", "100", "nan"]),
        flags(["c0", "c1", "degree"]))
    # runs that are valid but for the seed; a negative one is a domain error, and
    # numpy's SeedSequence takes any size >= 0
    seeded = st.builds(
        lambda argv, seed: [*argv, "--seed", seed],
        st.sampled_from([
            ["simulate", "--family", "uniform:k=50", "--n-grid", "5,20", "--trials", "1",
             "--estimators", "plugin"],
            ["probe", "--family", "uniform:k=50", "--epsilon", "0.45", "--trials", "2"],
            ["estimate", "--input", fp_path, "--k", "50", "--resample-fraction", "0.5"],
        ]),
        st.sampled_from(["0", "7", "-1", str(10**38)]))
    return estimate | simulate | grids | geometric | probe | coeffs | seeded | theory_commands()


# malformed, empty, unsorted, too-small and too-large sample-size grids
N_GRIDS = ["abc", "1,,2", ",", "", "5,x", "1.5", "1e3", "0,1,2", "1,5", "20,5", " 3 , 7",
           "5,100000000000000000000"]
ORDERS = ["-1", "0", "1", "3"]


def theory_commands():
    """theory actions with their float flags drawn from NUMBERS."""
    num = st.sampled_from(NUMBERS)
    order = st.sampled_from(ORDERS)
    approx = st.builds(
        lambda d, a, b: ["theory", "approx", "--degree", d, "--a", a, "--b", b], order, num, num)
    priors = st.builds(
        lambda L, lam, rest: ["theory", "priors", "--order", L, "--lam", lam, *rest],
        order, num, flags(["nu"]))
    tv = st.builds(
        lambda L, lam, scale, rest: ["theory", "tv", "--order", L, "--lam", lam,
                                     "--scale", scale, *rest],
        order, num, num, flags(["nu", "cutoff"]))
    maxcheb = st.builds(
        lambda beta, d: ["theory", "maxcheb", "--beta", beta, "--degree", d], num, order)
    certify = st.builds(
        lambda k, n, rest: ["theory", "certify", "--k", k, "--n", n, "--epsilon", "0.2", *rest],
        st.sampled_from(K_VALUES), num,
        flags(["epsilon", "order", "lam", "nu", "alpha", "c0", "gamma"]))
    # the explicit route takes --order, --lam, --nu and --alpha together; drawn
    # from NUMBERS all four are in range about once in a thousand draws, so each
    # flag here takes one value in range and one edge (out of range, or one that
    # overflows or underflows a term of the certificate)
    explicit = st.builds(
        lambda k, n, L, lam, nu, alpha: ["theory", "certify", "--k", k, "--n", n,
                                         "--epsilon", "0.2", "--order", L, "--lam", lam,
                                         "--nu", nu, "--alpha", alpha],
        *(st.sampled_from(pool) for pool in (["1e6", "nan"], ["3000", "1e300"], ["3", "0"],
                                             ["10", "1e17"], ["0.5", "1e-200"], ["0.1", "1e-200"])))
    return approx | priors | tv | maxcheb | certify | explicit


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@settings(PROPERTY, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(tmp_path, data):
    fp_path = tmp_path / "fp.txt"
    if not fp_path.exists():
        write_fingerprint_file(Fingerprint(h={1: 3, 2: 1, 5: 1}, n=10), fp_path)
    argv = data.draw(commands(str(fp_path)))
    code, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    lines = err.splitlines()
    assert len(lines) <= 1, (argv, err)
    if code:
        assert set(json.loads(lines[0])) >= {"error", "message"}


TOKENIZER_CONFIGS = [TokenizerConfig(case_fold=c, strip_punctuation=p)
                     for c, p in itertools.product((True, False), repeat=2)]


def reference_tokens(text, cfg):
    """The per-token filter: keep a token's str.isalnum characters, drop it if none remain."""
    out = []
    for line in text.splitlines():
        if cfg.case_fold:
            line = line.lower()
        for tok in line.split():
            if cfg.strip_punctuation and not tok.isalnum():
                tok = "".join(ch for ch in tok if ch.isalnum())
                if not tok:
                    continue
            out.append(tok)
    return out


# NEL, CRLF, underscore, a combining acute, dotted capital I (lowercases to
# two characters), a line separator, and any other encodable character
unicode_text = st.lists(
    st.one_of(
        st.sampled_from([" ", "\x85", "\r\n", "\n", "\r", "_", "\u0301", "İ", "\u2028",
                         "\t", "a", "Ab", "ß", "-", "1"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=60,
).map("".join)


@PROPERTY
@given(text=unicode_text)
def test_tokenize_matches_per_token_filter(text):
    data = text.encode()
    lines = text.splitlines(keepends=True)
    for cfg in TOKENIZER_CONFIGS:
        expected = reference_tokens(text, cfg)
        for source in (text, data, io.BytesIO(data), io.StringIO(text), lines, iter(lines)):
            assert list(tokenize(source, cfg)) == expected, (cfg, type(source))


def test_tokenize_matches_per_token_filter_on_every_code_point():
    text = " ".join(map(chr, range(sys.maxunicode + 1)))
    for case_fold in (True, False):
        cfg = TokenizerConfig(case_fold=case_fold)
        assert list(tokenize(text, cfg)) == reference_tokens(text, cfg)
    # the translate table met every code point but stores at most 1 << 16 answers
    assert len(ingest._TABLE) == 1 << 16

"""Chebyshev evaluation, exact coefficient tables, and the bias identity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from supportsize import (
    ParameterError,
    cheb_derivatives,
    cheb_eval,
    g_table,
    poly_eval_direct,
    shifted_coeffs,
)
from supportsize.chebyshev import _shifted_coeffs_exact


def expand_cheb_monomial(L):
    """Integer monomial coefficients of T_L via the three-term recurrence.

    Independent oracle: works on coefficient lists, never on derivative
    recurrences.
    """
    t0, t1 = [1], [0, 1]
    if L == 0:
        return t0
    for _ in range(L - 1):
        t2 = [0] + [2 * c for c in t1]
        t2 = [a - b for a, b in zip(t2, t0 + [0] * (len(t2) - len(t0)))]
        t0, t1 = t1, t2
    return t1


def differentiate(coeffs):
    return [Fraction(i * c) for i, c in enumerate(coeffs)][1:]


def test_cheb_eval_trivial_values():
    for L in (0, 1, 2, 5, 9, 30):
        assert cheb_eval(L, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert cheb_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-14)
    assert cheb_eval(2, -2.0) == pytest.approx(7.0, rel=1e-14)


def test_cheb_eval_matches_cos_identity():
    thetas = np.linspace(0.0, math.pi, 257)
    for L in (1, 2, 7, 16, 33, 64):
        for th in thetas:
            assert abs(cheb_eval(L, math.cos(th)) - math.cos(L * th)) < 1e-12


def test_cheb_eval_matches_monomial_expansion_outside():
    for L in (2, 3, 6, 11):
        coeffs = expand_cheb_monomial(L)
        for x in (-3.5, -1.01, 1.2, 2.0, 8.0):
            direct = float(sum(c * Fraction(x) ** i for i, c in enumerate(coeffs)))
            assert cheb_eval(L, x) == pytest.approx(direct, rel=1e-12)


def test_cheb_derivatives_low_order_examples():
    vals = cheb_derivatives(2, -2.0, 1)
    assert vals == pytest.approx([7.0, -8.0])
    vals = cheb_derivatives(1, 5.0, 1)
    assert vals == pytest.approx([5.0, 1.0])


def test_cheb_derivatives_against_symbolic_differentiation():
    # expand T_6 exactly, differentiate term by term in rational arithmetic
    L, x = 6, Fraction(-3)
    coeffs = [Fraction(c) for c in expand_cheb_monomial(L)]
    expected = []
    for _ in range(L + 1):
        expected.append(float(sum(c * x**i for i, c in enumerate(coeffs))))
        coeffs = differentiate(coeffs)
    got = cheb_derivatives(L, -3.0, L)
    assert got == pytest.approx(expected, rel=1e-13)


def test_cheb_derivatives_preconditions():
    with pytest.raises(ParameterError):
        cheb_derivatives(3, 1.0, 4)
    with pytest.raises(ParameterError):
        cheb_derivatives(3, 1.0, -1)


def test_shifted_coeffs_degree_one_closed_form():
    for l, r in [(0.02, 0.1), (1e-6, 3e-5), (0.1, 0.9)]:
        a = shifted_coeffs(1, l, r)
        assert a[0] == -1.0
        assert a[1] == pytest.approx(2.0 / (r + l), rel=1e-14)


def test_shifted_coeffs_a0_is_exactly_minus_one():
    for L, l, r in [(2, 0.1, 0.3), (6, 1e-6, 1e-4), (12, 0.004, 0.2)]:
        assert shifted_coeffs(L, l, r)[0] == -1.0


def test_shifted_coeffs_degree_two_symbolic_expansion():
    # independent route: compose T_2(alpha x + beta) in exact rationals
    l, r = 0.1, 0.3
    lf, rf = Fraction(l), Fraction(r)
    alpha = 2 / (rf - lf)
    beta = -(rf + lf) / (rf - lf)
    t2 = lambda y: 2 * y * y - 1
    denom = t2(beta)
    expected = [
        float(-(2 * beta * beta - 1) / denom),
        float(-(4 * alpha * beta) / denom),
        float(-(2 * alpha * alpha) / denom),
    ]
    assert shifted_coeffs(2, l, r) == pytest.approx(expected, rel=1e-15)


def test_shifted_coeffs_sign_alternation():
    for L, l, r in [(4, 0.01, 0.2), (6, 1e-6, 5e-5), (9, 1e-9, 2e-8), (12, 0.001, 0.05)]:
        a = shifted_coeffs(L, l, r)
        for j in range(1, L + 1):
            assert a[j] * (-1.0) ** (j + 1) > 0, f"a_{j} sign wrong for L={L}"


def test_shifted_coeffs_rejects_bad_interval():
    with pytest.raises(ParameterError):
        shifted_coeffs(3, 0.5, 0.5)
    with pytest.raises(ParameterError):
        shifted_coeffs(3, 0.5, 0.2)
    with pytest.raises(ParameterError):
        shifted_coeffs(3, 0.0, 0.2)


def test_g_table_degree_one_example():
    table = g_table(1, 0.02, 0.1, 100)
    assert table.g[0] == 0.0
    assert table.g[1] == pytest.approx(7.0 / 6.0, rel=1e-12)


def test_g_table_g0_always_zero():
    for L, l, r, n in [(2, 0.1, 0.3, 10), (6, 1e-6, 5e-5, 10**5), (12, 0.003, 0.08, 500)]:
        assert g_table(L, l, r, n).g[0] == 0.0


def test_g_table_weight_identity():
    # g_j = a_j j!/n^j + 1 is the same rational as the scaled-variable form
    # g_table uses, so both rounded parts match the p-space formula exactly
    fig1 = (6, 1e-6, 0.5 * math.log(10**6) / (2 * 10**5), 2 * 10**5)
    cases = [(5, 0.001, 0.02, 400), fig1, (1, 0.01, 0.3, 7),
             (9, 1e-9, 0.5 * math.log(10**9) / 10**7, 10**7), (12, 1e-5, 3e-4, 3000)]
    for L, l, r, n in cases:
        table = g_table(L, l, r, n)
        a = _shifted_coeffs_exact(L, l, r)
        for j in range(L + 1):
            exact = a[j] * math.factorial(j) / Fraction(n) ** j + 1
            assert table.g[j] == float(exact)
            assert table._g_lo[j] == float(exact - Fraction(float(exact)))


def test_g_table_fig1_configuration_signs():
    # k=1e6, n=2e5 with c0=0.45, c1=0.5 gives the documented oscillating weights
    k, n = 10**6, 2 * 10**5
    L = math.floor(0.45 * math.log(k))
    assert L == 6
    table = g_table(L, 1.0 / k, 0.5 * math.log(k) / n, n)
    signs = [1 if v > 0 else -1 for v in table.g[1:]]
    assert signs == [1, -1, 1, -1, 1, -1]


def test_g_table_requires_positive_n():
    with pytest.raises(ParameterError):
        g_table(2, 0.1, 0.3, 0)


def test_direct_evaluation_endpoint_magnitude():
    for L, l, r in [(3, 0.01, 0.3), (8, 1e-5, 4e-4)]:
        table = g_table(L, l, r, 100)
        x0 = -(r + l) / (r - l)
        expected = 1.0 / abs(cheb_eval(L, x0))
        for x in (l, r):
            assert abs(poly_eval_direct(table, x)) == pytest.approx(expected, rel=1e-9)


def test_coefficients_beyond_double_range_name_their_index():
    # k = n = 1e9 at degree 40: the p-space a_j leave the double range while
    # the weights g_j stay finite
    L, l, r = 40, 1e-9, 0.5 * math.log(1e9) / 1e9
    with pytest.raises(ParameterError, match=r"a_\d+ exceeds the double range"):
        shifted_coeffs(L, l, r)
    assert np.isfinite(g_table(L, l, r, 10**9).g).all()


def test_equioscillation_on_interval():
    for L, l, r in [(2, 0.01, 0.4), (5, 1e-4, 5e-3), (8, 1e-6, 9e-5)]:
        table = g_table(L, l, r, 100)
        x0 = -(r + l) / (r - l)
        sup = 1.0 / abs(cheb_eval(L, x0))
        xs = np.linspace(l, r, 20001)
        vals = np.array([poly_eval_direct(table, x) for x in xs])
        assert np.abs(vals).max() == pytest.approx(sup, rel=1e-9)
        # grid-local extrema at the sup level, alternating in sign
        hits = []
        for i in range(1, len(xs) - 1):
            a, b, c = abs(vals[i - 1]), abs(vals[i]), abs(vals[i + 1])
            if b >= a and b >= c and b > 0.999 * sup:
                if not hits or abs(xs[i] - hits[-1][0]) > (r - l) / (4 * L):
                    hits.append((xs[i], np.sign(vals[i])))
        # endpoints are extrema as well
        if abs(vals[0]) > 0.999 * sup:
            hits.insert(0, (xs[0], np.sign(vals[0])))
        if abs(vals[-1]) > 0.999 * sup:
            hits.append((xs[-1], np.sign(vals[-1])))
        assert len(hits) == L + 1
        signs = [s for _, s in hits]
        assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


def cheb_exact_rational(L, x):
    """T_L at a rational point by the plain three-term recurrence, exactly."""
    t0, t1 = Fraction(1), x
    if L == 0:
        return t0
    for _ in range(L - 1):
        t0, t1 = t1, 2 * x * t1 - t0
    return t1


def test_bias_identity_oracle():
    """sum_{j<=L} poi(np, j) (g[j]-1) = exp(-np) P_L(p) on [l, 1].

    Verified in exact rational arithmetic after multiplying both sides by
    exp(np) (an exact positive factor): the left side uses the produced
    weight table, the right side re-derives P_L(p) through the Chebyshev
    ratio recurrence, which shares nothing with the derivative/factorial
    pipeline under test.  (l, r, n) are sampled as the degree rule would
    produce them; the identity is cancellation-heavy, so the table's full
    double-double precision is what makes 1e-9 pointwise attainable at
    p near the roots of P_L.
    """
    rng = np.random.default_rng(2024)
    for L in range(2, 13):
        k = math.exp((L + float(rng.uniform(0.05, 0.95))) / 0.45)
        l = 1.0 / k
        r = l * 10 ** rng.uniform(1.3, 3.3)
        n = max(int(0.5 * math.log(k) / r), 1)
        r = 0.5 * math.log(k) / n
        table = g_table(L, l, r, n)
        g_full = [Fraction(hi) + Fraction(lo) for hi, lo in zip(table.g, table._g_lo)]
        lf, rf = Fraction(l), Fraction(r)
        denom_t = cheb_exact_rational(L, -(rf + lf) / (rf - lf))
        for p in np.geomspace(l, 1.0, 100):
            pf = Fraction(float(p))
            lam = Fraction(n) * pf
            lhs = sum(lam**j / math.factorial(j) * (g_full[j] - 1) for j in range(L + 1))
            rhs = -cheb_exact_rational(L, (2 * pf - rf - lf) / (rf - lf)) / denom_t
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= Fraction(1, 10**9) * scale, (
                f"L={L} p={p} rel={float(abs(lhs - rhs) / scale):.3e}"
            )

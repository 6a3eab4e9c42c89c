"""Exact Chebyshev derivatives, coefficient and weight tables, and the bias identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev

from supportsize import EstimatorConfig, ParameterError, degree_params, g_table, shifted_coeffs
from supportsize.chebyshev import MAX_DEGREE, _origin_derivs, _shifted_coeffs_exact


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


def shifted_poly(L, l, r):
    """P_L on [l, r] as a numpy Chebyshev series pinned by the exact T_L(x0),
    and its sup-norm 1/|T_L(x0)| on [l, r]."""
    derivs, _ = _origin_derivs(L, l, r)
    return -Chebyshev.basis(L, domain=[l, r]) / float(derivs[0]), 1.0 / abs(float(derivs[0]))


def cheb_derivs_two_index(L, x):
    """[T_L(x), ..., T_L^(L)(x)] exactly, by the three-term recurrence differentiated
    j times, T_{m+1}^(j) = 2x T_m^(j) + 2j T_m^(j-1) - T_{m-1}^(j): the O(L^2)
    route that Chebyshev's equation replaced, kept as a reference."""
    prev = [Fraction(1)] + [Fraction(0)] * L
    curr = [x, Fraction(1)] + [Fraction(0)] * (L - 1)
    for _ in range(1, L):
        nxt = [2 * x * curr[j] - prev[j] + (2 * j * curr[j - 1] if j else 0)
               for j in range(L + 1)]
        prev, curr = curr, nxt
    return curr


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), L=st.integers(1, 40), width=st.floats(-12, 6))
def test_origin_derivs_equal_the_two_index_recurrence(data, L, width):
    # tiny l makes x0 a long rational; L <= 20 there keeps the O(L^2) reference quick
    l = 10.0 ** data.draw(st.floats(-300 if L <= 20 else -30, 0))
    r = l * (1 + 10.0**width)
    lf, rf = Fraction(l), Fraction(r)
    assert _origin_derivs(L, l, r) == (cheb_derivs_two_index(L, -(rf + lf) / (rf - lf)),
                                       2 / (rf - lf))


def test_origin_derivs_low_order_examples():
    # x0 = -(r + l)/(r - l) is -2 on [1, 3] and -5 on [2, 3]
    assert _origin_derivs(2, 1, 3) == ([7, -8, 4], 1)
    assert _origin_derivs(1, 2, 3) == ([-5, 1], 2)


def test_origin_derivs_against_symbolic_differentiation():
    # expand T_6 exactly, differentiate term by term in rational arithmetic;
    # x0 = -3 on [1, 2]
    L, x = 6, Fraction(-3)
    coeffs = [Fraction(c) for c in expand_cheb_monomial(L)]
    expected = []
    for _ in range(L + 1):
        expected.append(sum(c * x**i for i, c in enumerate(coeffs)))
        coeffs = differentiate(coeffs)
    assert _origin_derivs(L, 1, 2) == (expected, 2)


def test_origin_derivs_match_numpy_chebyshev():
    # the j-th derivative of T_L((2x - r - l)/(r - l)) at x = 0 is slope^j T_L^(j)(x0)
    for L, l, r in [(3, 0.01, 0.3), (8, 1e-5, 4e-4), (12, 0.2, 0.9)]:
        derivs, slope = _origin_derivs(L, l, r)
        basis = Chebyshev.basis(L, domain=[l, r])
        for j in range(L + 1):
            assert basis.deriv(j)(0.0) == pytest.approx(float(slope**j * derivs[j]), rel=1e-9)


def test_degree_outside_one_to_the_cap_is_rejected():
    # checked before any work, so a huge degree fails at once
    for L in (0, MAX_DEGREE + 1, 10**10):
        for build in (lambda: shifted_coeffs(L, 0.1, 0.3), lambda: g_table(L, 0.1, 0.3, 100)):
            with pytest.raises(ParameterError, match=rf"degree must be in 1\.\.{MAX_DEGREE}"):
                build()
    assert np.isfinite(g_table(MAX_DEGREE, 1e-6, 1e-4, 10**5).g).all()


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
    # g_table builds g_j = a_j j!/n^j + 1 as one exact rational and rounds it
    # once, so both rounded parts match this formula exactly
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
    for _ in range(2):  # errors are not cached
        with pytest.raises(ParameterError):
            g_table(2, 0.1, 0.3, 0)


def test_g_table_is_built_once_per_key():
    key = (5, 0.001, 0.02, 400)
    table = g_table(*key)
    assert g_table(*key) is table
    for other in [(5, 0.001, 0.02, 401), (5, 0.002, 0.02, 400), (5, 0.001, 0.03, 400)]:
        assert g_table(*other) is not table
        assert not np.array_equal(g_table(*other).g, table.g)


def test_g_table_arrays_are_read_only():
    table = g_table(5, 0.001, 0.02, 400)
    for weights in (table.g, table._g_lo):
        with pytest.raises(ValueError):
            weights[1] = 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.floats(50, 1e12), n=st.integers(1, 10**9), c0=st.floats(0.45, 1.0))
def test_cached_g_table_is_bit_identical_to_a_fresh_build(k, n, c0):
    L, l, r = degree_params(k, n, EstimatorConfig(c0=c0))
    cached = g_table(L, l, r, n)
    assert g_table(L, l, r, float(n)) is cached  # equal keys share one table
    fresh = g_table.__wrapped__(L, l, r, n)
    assert cached.g.tobytes() == fresh.g.tobytes()
    assert cached._g_lo.tobytes() == fresh._g_lo.tobytes()


def test_direct_evaluation_endpoint_magnitude():
    for L, l, r in [(3, 0.01, 0.3), (8, 1e-5, 4e-4)]:
        poly, sup = shifted_poly(L, l, r)
        assert poly(0.0) == pytest.approx(-1.0, rel=1e-9)
        for x in (l, r):
            assert abs(poly(x)) == pytest.approx(sup, rel=1e-9)


def test_coefficients_beyond_double_range_name_their_index():
    # k = n = 1e9 at degree 40: the p-space a_j leave the double range while
    # the weights g_j stay finite
    L, l, r = 40, 1e-9, 0.5 * math.log(1e9) / 1e9
    with pytest.raises(ParameterError, match=r"a_\d+ exceeds the double range"):
        shifted_coeffs(L, l, r)
    assert np.isfinite(g_table(L, l, r, 10**9).g).all()


def test_equioscillation_on_interval():
    for L, l, r in [(2, 0.01, 0.4), (5, 1e-4, 5e-3), (8, 1e-6, 9e-5)]:
        poly, sup = shifted_poly(L, l, r)
        xs = np.linspace(l, r, 20001)
        vals = poly(xs)
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

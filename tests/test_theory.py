"""Best approximation, duality, prior pairs, TV machinery, certificates."""

import math

import numpy as np
import pytest

from supportsize import (
    ParameterError,
    PrecisionError,
    SolverError,
    best_inv_approx,
    closed_form_error,
    construct_prior_pair,
    lecam_certificate,
    lecam_recipe,
    max_exp_cheby,
    poisson_tail_bound,
    primal_value,
    rate_envelope,
    tv_bound,
    tv_exact,
    tv_exact_atoms,
)
from supportsize.chebyshev import MAX_DEGREE


def test_best_constant_approximation():
    res = best_inv_approx(0, 1.0, 10.0)
    assert res.error == pytest.approx((1 - 0.1) / 2, rel=1e-12)
    assert res.coeffs == pytest.approx([(1 + 0.1) / 2], rel=1e-12)
    assert len(res.extrema) == 2
    assert res.extrema == pytest.approx([1.0, 10.0], rel=1e-9)


# the Remez problem of the `theory certify --k 1e6 --epsilon 0.15` example:
# degree L - 1 = 12 on [1 + nu, lam]
_RECIPE = lecam_recipe(1e6, 0.15)
_CERTIFY_INTERVAL = (_RECIPE["L"] - 1, 1.0 + _RECIPE["nu"], _RECIPE["lam"])


def test_remez_matches_closed_form():
    cases = [(3, 1.0, 10.0), (1, 1.0, 2.0), (5, 2.0, 37.0), (4, 1.3, 49.0), (2, 1.0, 25.0),
             (8, 1.0, 30.0), (9, 1.5, 60.0), (10, 1.0, 100.0), (11, 2.0, 200.0),
             (12, 1.0, 50.0), _CERTIFY_INTERVAL]
    for deg, a, b in cases:
        res = best_inv_approx(deg, a, b)
        cf = closed_form_error(deg + 1, a, b)
        assert res.error == pytest.approx(cf, rel=1e-8)


def test_remez_residual_equioscillates():
    cases = [(4, 1.5, 20.0), (8, 1.0, 30.0), (10, 1.0, 100.0), (12, 1.0, 50.0),
             _CERTIFY_INTERVAL]
    for deg, a, b in cases:
        res = best_inv_approx(deg, a, b)
        assert len(res.extrema) == deg + 2
        assert res.extrema[0] == a and res.extrema[-1] == b
        r = res.residual(res.extrema)
        assert np.abs(np.abs(r) - res.error).max() <= 1e-9 * res.error
        signs = np.sign(r)
        assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


def test_remez_beyond_double_resolution_is_a_solver_error():
    # the degree-8 error on [2, 2.05] is ~1e-20, far below the ~1e-16
    # rounding noise of evaluating 1/x - p(x), so the residual cannot alternate
    with pytest.raises(SolverError):
        best_inv_approx(8, 2.0, 2.05)


def test_remez_error_vanishes_as_interval_shrinks():
    errs = [best_inv_approx(2, 2.0, 2.0 + w).error for w in (4.0, 1.0, 0.25, 0.05)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6


def test_closed_form_error_structure():
    # lowest degree agrees with the midrange error of a monotone function
    for a, b in [(1.0, 7.0), (2.0, 9.0)]:
        assert closed_form_error(1, a, b) == pytest.approx((1 / a - 1 / b) / 2, rel=1e-12)
    # geometric decay with the documented ratio
    a, b = 1.0, 30.0
    s = math.sqrt(a / b)
    ratio = (1 - s) / (1 + s)
    for L in (1, 2, 5, 9):
        assert closed_form_error(L + 1, a, b) / closed_form_error(L, a, b) == pytest.approx(
            ratio, rel=1e-12
        )
    with pytest.raises(ParameterError):
        closed_form_error(2, 0.5, 3.0)
    with pytest.raises(ParameterError, match="need L >= 1"):
        closed_form_error(0, 1.0, 3.0)


def test_primal_value_no_moment_constraints():
    # free optimum: point masses at the endpoints
    assert primal_value(0, 1.0, 10.0, 400) == pytest.approx(0.9, rel=1e-9)


def test_primal_value_duality():
    for L, a, b in [(2, 1.0, 12.0), (4, 1.5, 30.0)]:
        lp = primal_value(L, a, b, 2000)
        remez = best_inv_approx(L, a, b).error
        assert lp == pytest.approx(2 * remez, rel=1e-3)


def test_primal_value_grid_precondition():
    with pytest.raises(ParameterError):
        primal_value(3, 1.0, 5.0, 4)
    with pytest.raises(ParameterError, match="need 1 <= a < b < inf"):
        primal_value(3, 5.0, 1.0, 400)
    for L in (-1, MAX_DEGREE + 1):
        with pytest.raises(ParameterError, match=rf"degree must be in 0\.\.{MAX_DEGREE}, got "):
            primal_value(L, 1.0, 5.0, 400)


def test_prior_pair_two_atom_case():
    lam = 10.0
    pair = construct_prior_pair(1, 0.0, lam)
    # X = point mass at 1 -> U has no zero atom; U' carries it
    assert pair.gap == pytest.approx(1 - 1 / lam, rel=1e-12)
    assert pair.weights_u[0] == pytest.approx(0.0, abs=1e-12)
    assert pair.weights_v[0] == pytest.approx(1 - 1 / lam, rel=1e-12)
    assert pair.moment("u", 1) == pytest.approx(1.0, abs=1e-12)
    assert pair.moment("v", 1) == pytest.approx(1.0, abs=1e-12)


def test_prior_pair_invariants_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(12):
        L = int(rng.integers(1, 9))
        nu = float(rng.uniform(0.0, 0.8))
        lam = float(rng.uniform(2.5 + nu, 45.0))
        pair = construct_prior_pair(L, nu, lam)
        assert pair.validate()
        expected = 2 * closed_form_error(L, 1 + nu, lam)
        assert pair.gap == pytest.approx(expected, rel=1e-6)
        # the zero atom sits on the second prior by construction
        assert pair.weights_v[0] > pair.weights_u[0]


def test_prior_pair_preconditions():
    with pytest.raises(ParameterError):
        construct_prior_pair(0, 0.1, 5.0)
    with pytest.raises(ParameterError):
        construct_prior_pair(2, -0.1, 5.0)
    with pytest.raises(ParameterError):
        construct_prior_pair(2, 0.5, 1.2)


def test_each_lab_argument_rule_has_one_wording():
    # an order L matches moments 1..L; a polynomial degree may be 0
    orders = (lambda L: construct_prior_pair(L, 0.1, 5.0), lambda L: tv_bound(2.0, L))
    degrees = (lambda d: best_inv_approx(d, 1.0, 5.0), lambda d: primal_value(d, 1.0, 5.0, 400))
    for calls, lowest in ((orders, 1), (degrees, 0)):
        for call in calls:
            for L in (lowest - 1, MAX_DEGREE + 1):
                with pytest.raises(ParameterError,
                                   match=rf"^degree must be in {lowest}\.\.{MAX_DEGREE}, got {L}$"):
                    call(L)
    for call in (lambda: closed_form_error(2, 5.0, 1.0), lambda: best_inv_approx(2, 5.0, 1.0),
                 lambda: primal_value(2, 5.0, 1.0, 400)):
        with pytest.raises(ParameterError, match=r"^need 1 <= a < b < inf, got a=5\.0, b=1\.0$"):
            call()


def test_tv_exact_identical_mixtures():
    pair = construct_prior_pair(3, 0.1, 15.0)
    est = tv_exact_atoms(pair.atoms_u, pair.weights_u, pair.atoms_u, pair.weights_u, 0.3)
    assert est.lower == 0.0
    assert est.upper <= 1e-12


def test_tv_exact_point_masses():
    lam, s = 8.0, 0.7
    est = tv_exact_atoms(
        np.array([0.0]), np.array([1.0]), np.array([lam]), np.array([1.0]), s
    )
    expected = 1 - math.exp(-s * lam)
    assert est.lower == pytest.approx(expected, abs=1e-12)
    assert est.upper == pytest.approx(expected, abs=1e-10)


def test_tv_exact_cutoff_certification():
    pair = construct_prior_pair(2, 0.0, 10.0)
    with pytest.raises(PrecisionError):
        tv_exact(pair, 1.0, cutoff=5)
    est = tv_exact(pair, 1.0)
    assert est.tail_bound < 1e-12
    assert 0.0 <= est.lower <= est.upper <= 1.0


@pytest.mark.parametrize("L", [2, 3, 5])
def test_tv_moment_matched_decay_rate(L):
    # TV of an L-matched pair decays like scale^(L+1): log-log slope near L+1
    pair = construct_prior_pair(L, 0.0, 12.0)
    scales = np.array([0.004, 0.008, 0.016, 0.032])
    tvs = np.array([tv_exact(pair, s).lower for s in scales])
    slopes = np.diff(np.log(tvs)) / np.diff(np.log(scales))
    assert np.all(slopes > L + 0.6)
    assert np.all(slopes < L + 1.1)


def test_poisson_tail_bound_dominates_tail():
    from scipy.stats import poisson as pois

    for lam in (0.5, 3.0, 20.0):
        for m in (int(lam) + 1, int(lam) + 5, int(lam) + 30):
            assert pois.sf(m, lam) <= poisson_tail_bound(lam, m)
    assert poisson_tail_bound(0.0, 0) == 0.0


def test_tv_bound_values():
    b = tv_bound(2.0, 4)
    assert b.simplified == pytest.approx((math.e * 2.0 / 8.0) ** 4, rel=1e-12)
    assert b.value == min(b.full, b.simplified)
    # deep moment-matching regime: the full form beats the simplified one
    deep = tv_bound(2.0, 12)
    assert deep.full < deep.simplified
    for lam_max in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="lam_max must be finite and > 0"):
            tv_bound(lam_max, 4)
    for L in (0, MAX_DEGREE + 1):
        with pytest.raises(ParameterError, match=rf"degree must be in 1\.\.{MAX_DEGREE}, got "):
            tv_bound(2.0, L)
    assert deep.full == pytest.approx(
        (1.0) ** 13 / math.factorial(13)
        * (2 + 2 ** (1 - 12) + 2 ** (1 / math.log(2) - 12)),
        rel=1e-12,
    )


def test_tv_bound_beyond_double_range_is_infinite():
    # 2^(lam_max / (2 ln 2) - L) overflows a double; the form is then vacuous
    b = tv_bound(1e4, 3)
    assert b.full == math.inf
    assert b.value == b.simplified == pytest.approx((math.e * 1e4 / 6.0) ** 3, rel=1e-12)


def test_tv_bound_dominates_exact_tv():
    rng = np.random.default_rng(31)
    for _ in range(10):
        L = int(rng.integers(1, 7))
        nu = float(rng.uniform(0.0, 0.6))
        lam = float(rng.uniform(2.0 + nu, 25.0))
        pair = construct_prior_pair(L, nu, lam)
        lam_max = float(rng.uniform(0.3, 2 * L / math.e))
        est = tv_exact(pair, lam_max / lam)
        assert est.upper <= tv_bound(lam_max, L).value + 1e-12


def test_lecam_certificate_recipe_case():
    k, eps = 10**6, 0.15
    params = lecam_recipe(k, eps)
    cert = lecam_certificate(k, 3000, eps, **params)
    assert cert.valid
    assert cert.meets_target
    assert cert.implied_epsilon >= eps
    # pushing n far out blows up the mixture-distinguishability term
    cert_big = lecam_certificate(k, 10**7, eps, **params)
    assert not cert_big.valid
    assert cert_big.terms[2] > 0.6


def test_lecam_certificate_preconditions():
    with pytest.raises(ParameterError):
        lecam_certificate(10**6, 100, 0.1, L=3, lam=20.0, nu=0.1, alpha=0.5)
    with pytest.raises(ParameterError):
        lecam_certificate(10**6, 100, 0.1, L=3, lam=20.0, nu=0.0, alpha=0.1)
    with pytest.raises(ParameterError):
        lecam_recipe(100, 0.6)
    # at k = 2 and a tiny epsilon the recipe's lam falls below 1 + nu
    with pytest.raises(ParameterError, match="recipe degenerate"):
        lecam_recipe(2, 1e-10)


def test_max_exp_cheby_stationarity():
    for beta, L in [(3.0, 6), (0.7, 4), (10.0, 9), (24.0, 5)]:
        res = max_exp_cheby(beta, L)
        assert res.residual < 1e-10
        assert res.x_star > 1.0


def test_max_exp_cheby_grid_oracle():
    beta, L = 3.0, 6
    res = max_exp_cheby(beta, L)
    xs = np.linspace(1.0, 50.0, 10**6)
    z = xs + np.sqrt(xs * xs - 1.0)
    tl = 0.5 * (z**L + z**-L)
    grid_max = float(np.max(np.exp(-beta * xs) * tl))
    assert res.value == pytest.approx(grid_max, rel=1e-8)
    assert res.value >= grid_max


def test_max_exp_cheby_boundary_case():
    res = max_exp_cheby(30.0, 5)  # beta >= L^2: decreasing on [1, inf)
    assert res.x_star == 1.0
    assert res.value == pytest.approx(math.exp(-30.0), rel=1e-12)


def test_max_exp_cheby_asymptotic_trend():
    L = 200
    alpha = 2.0
    res = max_exp_cheby(L / alpha, L)
    predicted = (alpha + math.sqrt(alpha * alpha + 1)) / math.exp(math.sqrt(1 + 1 / alpha**2))
    per_degree = math.exp(res.log_value / L)
    assert per_degree == pytest.approx(predicted, rel=0.05)


def test_max_exp_cheby_small_beta_diverges():
    res = max_exp_cheby(1e-3, 5)
    assert res.x_star > 100.0
    assert res.value > 1e10


def test_rate_envelope_values_and_monotonicity():
    assert rate_envelope(100, 0) == 1.0
    k = 1000
    # crossover point: both leading terms equal ln(k)
    crossover = rate_envelope(k, int(k * math.log(k)))
    assert crossover == pytest.approx(math.log(k), rel=1e-2)
    assert rate_envelope(k, k) == pytest.approx(math.sqrt(math.log(k)), rel=1e-12)
    ns = np.linspace(0, 20 * k, 200)
    vals = [rate_envelope(k, n) for n in ns]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    for k, n in ((1.5, 10), (math.inf, 10), (100, -1), (100, math.nan)):
        with pytest.raises(ParameterError, match="need finite k >= 2 and n >= 0"):
            rate_envelope(k, n)


def test_max_exp_cheby_stationarity_across_degrees_and_beta():
    # both terms of tanh(L y) = (beta/L) sinh(y) are at most 1, and bisection
    # to adjacent doubles leaves a residual of a few ulps of that
    for L in (1, 2, 3, 5, 12, 40, 100, 200):
        x_prev = math.inf
        for beta in np.geomspace(1e-9, L * L * (1 - 1e-12), 30):
            res = max_exp_cheby(float(beta), L)
            assert res.residual <= 1e-13, (beta, L)
            assert 1.0 <= res.x_star < x_prev, (beta, L)  # the maximizer moves in as beta grows
            x_prev = res.x_star
        assert max_exp_cheby(float(L * L), L).x_star == 1.0


@pytest.mark.parametrize("beta,L", [(1e-300, 5), (2.0**-1022, 1), (100 * 2.0**-1022, 100),
                                    (1e-307, 100), (5e-324, 1), (5e-324, 5)])
def test_max_exp_cheby_tiny_beta_is_a_record_or_a_parameter_error(beta, L):
    # below beta/L = 2^-1022 the maximizer near L/beta leaves the double range
    if beta / L < 2.0**-1022:
        with pytest.raises(ParameterError):
            max_exp_cheby(beta, L)
        return
    res = max_exp_cheby(beta, L)
    assert math.isfinite(res.x_star) and res.x_star > 1.0
    assert not any(math.isnan(v) for v in (res.x_star, res.value, res.log_value, res.residual))
    # the residual is relative: near y = 700 one ulp of y moves sinh(y) by about 1.1e-13
    assert res.residual <= 2e-13
    # x* = L/beta, so log(exp(-beta x*) T_L(x*)) = -L + L log(2L/beta) - log 2
    assert res.log_value == pytest.approx(L * math.log(2 * L / (math.e * beta)) - math.log(2),
                                          rel=1e-12)


def test_remez_failures_are_domain_errors():
    # at b/a = 1e17 the Chebyshev reference loses a next to b
    with pytest.raises(ParameterError, match="too wide"):
        best_inv_approx(3, 1.0, 1e17)
    with pytest.raises(ParameterError, match="too wide"):
        construct_prior_pair(3, 0.0, 1e17)
    # on [1e200, 1e201] x^2 p'(x) + 1 overflows, so the extrema's eigenvalue solve fails
    for degree in (0, 2):
        with pytest.raises(SolverError, match="Remez step failed"):
            best_inv_approx(degree, 1e200, 1e201)


def test_lecam_certificate_terms_beyond_double_range_are_infinite():
    k, eps = 10**6, 0.15
    cert = lecam_certificate(k, 1e300, eps, **lecam_recipe(k, eps))  # (e n lam / 2kL)^L
    assert cert.terms[2] == math.inf and cert.lhs == math.inf and not cert.valid
    for nu, alpha, inf_term in [(1e-200, 0.1, 0), (0.5, 1e-200, 1)]:  # nu^2, alpha^2 underflow
        cert = lecam_certificate(k, 3000, eps, L=3, lam=10.0, nu=nu, alpha=alpha)
        assert cert.terms[inf_term] == math.inf and not cert.valid
        assert all(math.isfinite(t) for i, t in enumerate(cert.terms) if i != inf_term)


def test_primal_value_equals_the_row_by_row_lp():
    # reference: the equality rows appended one at a time, solved by HiGHS with its presolve
    from numpy.polynomial import chebyshev as cheb
    from scipy.optimize import linprog

    # primal_value solves without presolve; the lab-sized cases take HiGHS 500-950 iterations
    for L, a, b, grid in [(0, 1.0, 10.0, 50), (1, 1.0, 6.0, 80), (3, 1.5, 30.0, 400),
                          (5, 2.0, 40.0, 300), (3, 2.0, 40.0, 2000), (4, 1.2, 30.0, 2000),
                          (5, 3.0, 45.0, 2000)]:
        xs = np.linspace(a, b, grid)
        basis = cheb.chebvander((2.0 * xs - a - b) / (b - a), L)
        rows = [np.concatenate([np.ones(grid), np.zeros(grid)]),
                np.concatenate([np.zeros(grid), np.ones(grid)])]
        for j in range(1, L + 1):
            rows.append(np.concatenate([basis[:, j], -basis[:, j]]))
        b_eq = np.zeros(len(rows))
        b_eq[:2] = 1.0
        ref = linprog(np.concatenate([-1.0 / xs, 1.0 / xs]), A_eq=np.vstack(rows), b_eq=b_eq,
                      bounds=(0, None), method="highs")
        assert primal_value(L, a, b, grid) == -ref.fun

"""Numerical laboratory for the minimax lower-bound machinery.

Pieces: best uniform polynomial approximation of 1/x (Remez exchange and the
Timan closed form), the discretized moment-matching linear program whose value
witnesses the duality with best approximation, construction of moment-matched
prior pairs supported on the equioscillation extrema, exact and bounded total
variation between the induced Poisson mixtures, a numeric certificate for the
sample-complexity lower bound, and the exponentially weighted Chebyshev
maximization used in the bias analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .chebyshev import check_degree
from .errors import ParameterError, PrecisionError, SolverError

_TAIL_CERT = 1e-12  # certified Poisson tail mass for exact TV truncation
# Largest Poisson cutoff of an exact TV, given or derived: the pmf table has cutoff + 1
# rows per atom, and for a pair with 23 atoms 1e5 rows take 0.1 s and 20 MB, 1e6 rows
# 1 s and 200 MB (x86-64 Linux, numpy 2.4).  The lower bounds need cutoffs near ln k.
MAX_TV_CUTOFF = 10**5
_REMEZ_TOL = 1e-13  # converged once max deviation - |level| <= this times max deviation
_REMEZ_MAX_ITER = 60
# PriorPair.validate: weights and their sum, unit mean, moments relative to lam^j
_PRIOR_TOL_WEIGHTS = 1e-10
_PRIOR_TOL_MEAN = 1e-8
_PRIOR_TOL_MOMENT = 1e-8


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """Best uniform approximation of 1/x on [a, b] by a polynomial of the given degree."""

    degree: int
    a: float
    b: float
    coeffs: np.ndarray          # monomial coefficients, ascending
    error: float
    extrema: np.ndarray         # degree+2 equioscillation abscissae, ascending
    _series: object = field(repr=False, default=None)

    def residual(self, x):
        return 1.0 / np.asarray(x, dtype=float) - self._series(x)


def _check_interval(a: float, b: float) -> None:
    """The lab's interval rule: 1/x is approximated on [a, b] with 1 <= a < b < inf."""
    if not 1.0 <= a < b < math.inf:
        raise ParameterError(f"need 1 <= a < b < inf, got a={a}, b={b}")


def closed_form_error(L: int, a: float, b: float) -> float:
    """E_{L-1}(1/x, [a, b]): best degree-(L-1) approximation error in closed form.

    Equals half of ((1+s)^2/a) * ((1-s)/(1+s))^L with s = sqrt(a/b); the
    classical formula for the interval [1+nu, lambda], reparameterized by the
    endpoints (it is scale-covariant, so any 1 <= a < b < inf is valid).
    """
    _check_interval(a, b)
    if L < 1:
        raise ParameterError(f"need L >= 1, got {L}")
    s = math.sqrt(a / b)
    return (1.0 + s) ** 2 / (2.0 * a) * ((1.0 - s) / (1.0 + s)) ** L


def best_inv_approx(degree: int, a: float, b: float) -> ApproxResult:
    """Remez exchange for 1/x on [a, b].

    1/x is smooth and strictly convex on [a, b] with a >= 1, so the residual
    of the optimum equioscillates at exactly degree+2 points including both
    endpoints and the standard multi-point exchange converges quadratically.
    The polynomial is carried in the Chebyshev basis of the interval for
    conditioning and converted to monomial coefficients only for output.
    """
    _check_interval(a, b)
    check_degree(degree, 0)
    m = degree + 2
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    x = mid - half * np.cos(np.pi * np.arange(m) / (m - 1))  # reference, ascending in [a, b]
    if x[0] <= 0.0:  # a is below the rounding unit of b
        raise ParameterError(f"[{a}, {b}] is too wide for doubles: need b/a below about 2^53")
    signs = (-1.0) ** np.arange(m)
    best_gap = math.inf
    stalled = 0
    for _ in range(_REMEZ_MAX_ITER):
        system = np.hstack([_cheb.chebvander((x - mid) / half, degree), signs[:, None]])
        try:
            sol = np.linalg.solve(system, 1.0 / x)
            series = _cheb.Chebyshev(sol[:-1], domain=[a, b])
            x = _alternating_extrema(series, m)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Remez step failed on [{a}, {b}], degree {degree}: {exc}") from exc
        level = sol[-1]
        dev = np.abs(1.0 / x - series(x))
        # residual evaluation carries ~eps/a of absolute noise, so narrow
        # intervals (tiny errors) stall there instead of reaching _REMEZ_TOL; a
        # stalled gap well below the deviation scale is converged in doubles
        gap = dev.max() - abs(level)
        if gap <= _REMEZ_TOL * dev.max() or (stalled >= 3 and gap <= 1e-6 * dev.max()):
            mono = series.convert(kind=np.polynomial.Polynomial)
            return ApproxResult(
                degree=degree, a=a, b=b,
                coeffs=np.asarray(mono.coef, dtype=float),
                error=float(abs(level)),
                extrema=x,
                _series=series,
            )
        if gap >= 0.5 * best_gap:
            stalled += 1
        else:
            stalled = 0
        best_gap = min(best_gap, gap)
    raise SolverError(
        f"Remez did not converge in {_REMEZ_MAX_ITER} iterations on [{a}, {b}], degree {degree}; "
        f"last level {abs(level):.3e}, max deviation {dev.max():.3e}"
    )


def _alternating_extrema(series, m: int) -> np.ndarray:
    """The largest-|residual| candidate of each sign run of r = 1/x - p on [a, b].

    r is stationary exactly where q = x^2 p'(x) + 1 vanishes, so the candidates
    are q's real roots inside (a, b) plus both endpoints (LAPACK returns a real
    eigenvalue with imaginary part exactly 0).  x p(x) - 1 has at most m - 1
    zeros and the alternating reference forces that many sign changes, so the
    candidates fall into exactly m runs of equal sign.
    """
    a, b = series.domain
    ident = _cheb.Chebyshev.identity(domain=series.domain)
    roots = (ident * ident * series.deriv() + 1).roots()
    inner = roots[roots.imag == 0].real
    cand = np.concatenate([[a], inner[(inner > a) & (inner < b)], [b]])
    resid = 1.0 / cand - series(cand)
    runs = np.split(np.arange(cand.size), np.flatnonzero(np.diff(np.sign(resid))) + 1)
    if len(runs) != m:
        raise SolverError(f"residual alternates on {len(runs)} runs, need {m}")
    return np.array([cand[run[np.argmax(np.abs(resid[run]))]] for run in runs])


def primal_value(L: int, a: float, b: float, grid_size: int) -> float:
    """Discretized moment-matching LP: sup E[1/X] - E[1/X'] with L matched moments.

    Two probability vectors live on a shared grid of [a, b]; their first L
    moments must agree.  As the grid refines the optimum converges to twice
    the best degree-L approximation error of 1/x on [a, b] (the duality this
    module exists to witness).  Moment constraints are expressed in the
    Chebyshev basis of the interval so the LP stays well conditioned.
    HiGHS runs without presolve, which on this small dense system only costs
    time; the tests pin the optimum to that of a solve with presolve.
    """
    from scipy.optimize import linprog  # loaded on first use, not by importing the package

    _check_interval(a, b)
    check_degree(L, 0)
    if grid_size < L + 2:
        raise ParameterError(f"grid_size must be >= L+2 = {L + 2}, got {grid_size}")
    xs = np.linspace(a, b, grid_size)
    # rows: each vector sums to 1, then moments 1..L agree
    moments = _cheb.chebvander((2.0 * xs - a - b) / (b - a), L)[:, 1:].T
    a_eq = np.vstack([np.kron(np.eye(2), np.ones(grid_size)), np.hstack([moments, -moments])])
    b_eq = np.zeros(L + 2)
    b_eq[:2] = 1.0
    cost = np.concatenate([-1.0 / xs, 1.0 / xs])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"presolve": False})
    if res.status != 0:
        raise SolverError(f"moment-matching LP failed (status {res.status}): {res.message}")
    return float(-res.fun)


@dataclass(frozen=True, eq=False)
class PriorPair:
    """Two distributions on {0} U [1+nu, lam] with unit mean and L matched moments.

    ``gap`` is P[U'=0] - P[U=0], the separation the pair buys; the zero atom
    weights record numerically which prior carries the larger mass at zero
    (it is the second one, atoms_v/weights_v).
    """

    atoms_u: np.ndarray
    weights_u: np.ndarray
    atoms_v: np.ndarray
    weights_v: np.ndarray
    L: int
    nu: float
    lam: float
    gap: float

    def moment(self, which: str, j: int) -> float:
        atoms = self.atoms_u if which == "u" else self.atoms_v
        weights = self.weights_u if which == "u" else self.weights_v
        return float(np.dot(weights, atoms**j))

    def validate(self):
        for atoms, weights in ((self.atoms_u, self.weights_u), (self.atoms_v, self.weights_v)):
            if np.any(weights < -_PRIOR_TOL_WEIGHTS):
                raise SolverError("negative prior weight")
            if abs(weights.sum() - 1.0) > _PRIOR_TOL_WEIGHTS:
                raise SolverError("prior weights do not sum to 1")
            nonzero = atoms[atoms > 0]
            if nonzero.size and (nonzero.min() < (1 + self.nu) * (1 - 1e-9) or
                                 nonzero.max() > self.lam * (1 + 1e-9)):
                raise SolverError("prior atom outside [1+nu, lam]")
        for which in ("u", "v"):
            if abs(self.moment(which, 1) - 1.0) > _PRIOR_TOL_MEAN:
                raise SolverError("prior mean is not 1")
        for j in range(1, self.L + 1):
            if abs(self.moment("u", j) - self.moment("v", j)) > _PRIOR_TOL_MOMENT * self.lam**j:
                raise SolverError(f"moment {j} mismatch beyond tolerance")
        return True


def construct_prior_pair(L: int, nu: float, lam: float) -> PriorPair:
    """Moment-matched pair from the equioscillation extrema of the 1/x approximation.

    The signed measure supported on the L+1 extrema of the best degree-(L-1)
    approximation that annihilates all polynomials of degree <= L-1 is unique
    up to scale: its weights are the divided-difference coefficients
    1/prod(x_i - x_j).  Splitting it into positive and negative parts (which
    land on the positive- and negative-residual extrema respectively) and
    normalizing each to unit mass gives X, X'; mapping mass w at x to mass
    w/x at x plus a remainder at zero turns them into the unit-mean pair
    U, U' whose gap P[U'=0] - P[U=0] equals twice the approximation error.
    """
    if not 0 <= nu < math.inf:
        raise ParameterError(f"nu must be finite and >= 0, got {nu}")
    if not 1 + nu < lam < math.inf:
        raise ParameterError(f"need 1 + nu < lam < inf, got lam={lam}, nu={nu}")
    check_degree(L)
    a, b = 1.0 + nu, lam
    approx = best_inv_approx(L - 1, a, b)
    x = approx.extrema  # L + 1 >= 2 points, ascending
    spacing = np.diff(x).min()
    if spacing <= 1e-12 * (b - a):
        raise SolverError(
            f"equioscillation extrema nearly coincide (min spacing {spacing:.3e}); "
            "the moment system is singular"
        )
    c = np.array([1.0 / np.prod(x[i] - np.delete(x, i)) for i in range(x.size)])
    if float(np.sum(c / x)) < 0.0:
        c = -c
    pos, neg = c > 0, c < 0
    w_x = c[pos] / c[pos].sum()
    w_xp = c[neg] / c[neg].sum()
    ax, axp = x[pos], x[neg]
    e_inv_x = float(np.sum(w_x / ax))
    e_inv_xp = float(np.sum(w_xp / axp))
    atoms_u = np.concatenate([[0.0], ax])
    weights_u = np.concatenate([[max(1.0 - e_inv_x, 0.0)], w_x / ax])
    atoms_v = np.concatenate([[0.0], axp])
    weights_v = np.concatenate([[max(1.0 - e_inv_xp, 0.0)], w_xp / axp])
    gap = e_inv_x - e_inv_xp
    expected = 2.0 * closed_form_error(L, a, b)
    if not math.isfinite(gap) or abs(gap - expected) > 1e-6 * expected:
        raise SolverError(
            f"prior-pair gap {gap!r} disagrees with closed form {expected!r} "
            f"(L={L}, nu={nu}, lam={lam})"
        )
    pair = PriorPair(
        atoms_u=atoms_u, weights_u=weights_u,
        atoms_v=atoms_v, weights_v=weights_v,
        L=L, nu=nu, lam=lam, gap=gap,
    )
    pair.validate()
    return pair


def poisson_tail_bound(lam: float, m: int) -> float:
    """Chernoff bound on P[Poi(lam) > m]; exact 0 for lam = 0."""
    if lam <= 0.0:
        return 0.0
    m1 = m + 1
    if m1 <= lam:
        return 1.0
    return math.exp(-lam + m1 - m1 * math.log(m1 / lam))


def _poisson_pmf(j: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """P[Poi(lam) = j], broadcast; the same log-space formula scipy.stats.poisson uses."""
    from scipy.special import gammaln, xlogy  # loaded on first use

    return np.exp(xlogy(j, lam) - gammaln(j + 1) - lam)


@dataclass(frozen=True)
class TvEstimate:
    """Certified bracket for a total variation distance: lower <= TV <= upper."""

    lower: float
    upper: float
    tail_bound: float
    cutoff: int


def tv_exact_atoms(
    atoms_a: np.ndarray, weights_a: np.ndarray,
    atoms_b: np.ndarray, weights_b: np.ndarray,
    scale: float, cutoff: Optional[int] = None,
) -> TvEstimate:
    """TV between the Poisson mixtures of two atomic distributions scaled by ``scale``.

    The pmf difference is summed exactly up to ``cutoff``; the discarded tail
    is covered by a Chernoff bound, giving a certified lower/upper bracket.
    """
    if not 0 <= scale < math.inf:
        raise ParameterError(f"scale must be finite and >= 0, got {scale}")
    atoms_a = np.asarray(atoms_a, dtype=float)
    atoms_b = np.asarray(atoms_b, dtype=float)
    lam_a = scale * atoms_a
    lam_b = scale * atoms_b
    lam_max_a = float(lam_a.max(initial=0.0))
    lam_max_b = float(lam_b.max(initial=0.0))
    lam_max = max(lam_max_a, lam_max_b)
    if cutoff is None:  # the smallest certified cutoff, searched no further than the cap
        cutoff = max(int(math.ceil(min(lam_max, MAX_TV_CUTOFF))) + 1, 8)
        while cutoff <= MAX_TV_CUTOFF and poisson_tail_bound(lam_max, cutoff) >= 0.5 * _TAIL_CERT:
            cutoff = max(cutoff + 4, int(cutoff * 1.25))
    if not 0 <= cutoff <= MAX_TV_CUTOFF:
        raise ParameterError(f"Poisson cutoff must be in 0..{MAX_TV_CUTOFF}, got {cutoff} "
                             f"(scale * largest atom = {lam_max:.3g})")
    tail = 0.5 * (poisson_tail_bound(lam_max_a, cutoff) + poisson_tail_bound(lam_max_b, cutoff))
    if tail >= _TAIL_CERT:
        raise PrecisionError(
            f"cutoff {cutoff} leaves Poisson tail bound {tail:.3e} >= {_TAIL_CERT}; increase it"
        )
    js = np.arange(cutoff + 1)[:, None]
    pmf_a = _poisson_pmf(js, lam_a) @ np.asarray(weights_a, dtype=float)
    pmf_b = _poisson_pmf(js, lam_b) @ np.asarray(weights_b, dtype=float)
    truncated = 0.5 * float(np.abs(pmf_a - pmf_b).sum())
    return TvEstimate(
        lower=truncated,
        upper=min(truncated + tail, 1.0),
        tail_bound=tail,
        cutoff=int(cutoff),
    )


def tv_exact(pair: PriorPair, scale: float, cutoff: Optional[int] = None) -> TvEstimate:
    """TV(E[Poi(scale*U)], E[Poi(scale*U')]) for a moment-matched prior pair."""
    return tv_exact_atoms(
        pair.atoms_u, pair.weights_u, pair.atoms_v, pair.weights_v, scale, cutoff
    )


@dataclass(frozen=True)
class TvBound:
    """Moment-matching TV bound: ``value`` is the smaller of the two displayed forms."""

    full: float
    simplified: float
    value: float


def _pow(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that lies beyond the double range."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _over(num: float, den: float) -> float:
    """num / den for num > 0 and den >= 0, or inf where den underflowed to 0."""
    return num / den if den else math.inf


def tv_bound(lam_max: float, L: int) -> TvBound:
    """Upper bound on the TV between Poisson mixtures of variables on [0, lam_max]
    sharing their first L moments."""
    if not 0 < lam_max < math.inf:
        raise ParameterError(f"lam_max must be finite and > 0, got {lam_max}")
    check_degree(L)
    half = lam_max / 2.0
    full = _pow(half, L + 1) / math.factorial(L + 1) * (
        2.0 + _pow(2.0, half - L) + _pow(2.0, lam_max / (2.0 * math.log(2.0)) - L)
    )
    simplified = _pow(math.e * lam_max / (2.0 * L), L)
    return TvBound(full=full, simplified=simplified, value=min(full, simplified))


@dataclass(frozen=True)
class LeCamCertificate:
    """Numeric certificate for the Poissonized sample-complexity lower bound.

    When ``valid``, no estimator can achieve additive error
    ``implied_epsilon * k`` with failure probability <= 0.1 using a
    Poissonized sample of size n (over the nu-approximate parameter space).
    """

    valid: bool
    lhs: float
    gap: float
    implied_epsilon: float
    meets_target: bool
    terms: tuple


def lecam_certificate(
    k: float, n: float, epsilon: float, L: int, lam: float, nu: float, alpha: float
) -> LeCamCertificate:
    """Evaluate the two-prior indistinguishability condition at explicit parameters.

    Builds the moment-matched pair on {0} U [1+nu, lam], takes its gap d and
    checks  2*lam/(k*nu^2) + 2/(k*alpha^2*d^2) + k*(e*n*lam/(2*k*L))^L <= 0.6.
    """
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"alpha must be in (0, 1/2), got {alpha}")
    if not 0.0 < nu < math.inf:
        raise ParameterError(f"nu must be finite and > 0, got {nu}")
    if not (2 <= k < math.inf and 0 <= n < math.inf and 0 < epsilon < 0.5):
        raise ParameterError(f"need finite k >= 2, n >= 0 and 0 < epsilon < 1/2, "
                             f"got k={k}, n={n}, epsilon={epsilon}")
    pair = construct_prior_pair(L, nu, lam)
    d = pair.gap
    # a term beyond the double range is inf: nu^2 or alpha^2 d^2 may underflow to 0
    t1 = _over(2.0 * lam, k * nu**2)
    t2 = _over(2.0, k * alpha**2 * d**2)
    t3 = k * _pow(math.e * n * lam / (2.0 * k * L), L)
    lhs = t1 + t2 + t3
    implied = (1.0 - 2.0 * alpha) * d / 2.0
    return LeCamCertificate(
        valid=bool(lhs <= 0.6),
        lhs=float(lhs),
        gap=float(d),
        implied_epsilon=float(implied),
        meets_target=bool(implied >= epsilon),
        terms=(float(t1), float(t2), float(t3)),
    )


def lecam_recipe(k: float, epsilon: float, c0: float = 1.0, gamma: float = 2.4) -> dict:
    """Parameter choices for the certificate as functions of (k, epsilon).

    L = floor(c0 ln k), lam = (gamma ln k / ln(1/(2 eps)))^2, alpha = k^(-1/3),
    nu = sqrt(sqrt(lam/k) (1 - 2 eps)); gamma > 2 c0 keeps the separation
    requirement satisfiable.
    """
    if not (2 <= k < math.inf and 0 < epsilon < 0.5):
        raise ParameterError(f"need finite k >= 2 and 0 < eps < 1/2, got k={k}, epsilon={epsilon}")
    if not (0.0 < c0 < math.inf and 2.0 * c0 < gamma < math.inf):
        raise ParameterError(f"need finite 0 < 2*c0 < gamma, got gamma={gamma}, c0={c0}")
    logk = math.log(k)
    L = max(int(math.floor(c0 * logk)), 1)
    lam = (gamma * logk / math.log(1.0 / (2.0 * epsilon))) ** 2
    alpha = k ** (-1.0 / 3.0)
    nu = math.sqrt(math.sqrt(lam / k) * (1.0 - 2.0 * epsilon))
    if lam <= 1.0 + nu:
        raise ParameterError(
            f"recipe degenerate at k={k}, epsilon={epsilon}: lam={lam:.3g} <= 1+nu"
        )
    return {"L": L, "lam": lam, "nu": nu, "alpha": alpha}


@dataclass(frozen=True)
class ExpChebMax:
    """Maximizer and maximum of x -> exp(-beta x) T_L(x) on [1, inf)."""

    x_star: float
    value: float
    log_value: float
    residual: float


def max_exp_cheby(beta: float, L: int) -> ExpChebMax:
    """Maximize exp(-beta x) T_L(x) over x >= 1.

    In y = arccosh(x) the stationarity condition reads tanh(L y)/sinh(y) =
    beta/L; the left side falls strictly from L to 0 and, as tanh <= 1, is
    below beta/L at y = asinh(2L/beta).  The root is bisected on that bracket
    until its ends are adjacent doubles.  For beta >= L^2 the maximum sits at
    x = 1.  The maximizer is near L/beta, so beta/L must be >= 2^-1022.
    ``residual`` is |tanh(L y) - (beta/L) sinh(y)| at the root, an error
    relative to tanh <= 1.
    """
    if not 0 < beta < math.inf:
        raise ParameterError(f"beta must be finite and > 0, got {beta}")
    if not 1 <= L < 2**1024:  # L converts to a double
        raise ParameterError(f"L must be in [1, 2^1024), got {L}")
    target = beta / L
    if target < 2.0**-1022:  # the smallest normal double; x* near L/beta stays finite
        raise ParameterError(f"need beta/L >= 2^-1022, got beta={beta}, L={L}")
    if target >= L:
        return ExpChebMax(x_star=1.0, value=math.exp(-beta), log_value=-beta, residual=0.0)
    lo, hi = 0.0, math.asinh(2.0 * L / beta)
    while lo < (y := 0.5 * (lo + hi)) < hi:
        if math.tanh(L * y) > target * math.sinh(y):
            lo = y
        else:
            hi = y
    x_star = math.cosh(y)
    # log cosh(L y) = L y + log((1 + exp(-2 L y))/2), overflow-safe
    log_tl = L * y + math.log1p(math.exp(-2.0 * L * y)) - math.log(2.0)
    log_value = -beta * x_star + log_tl
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    residual = abs(math.tanh(L * y) - target * math.sinh(y))
    return ExpChebMax(x_star=x_star, value=value, log_value=log_value, residual=residual)


def rate_envelope(k: float, n: float) -> float:
    """Exponent shape of the minimax risk: max(sqrt(n ln k / k), n/k, 1)."""
    if not (2 <= k < math.inf and 0 <= n < math.inf):
        raise ParameterError(f"need finite k >= 2 and n >= 0, got k={k}, n={n}")
    return max(math.sqrt(n * math.log(k) / k), n / k, 1.0)

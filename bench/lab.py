"""The ``lab`` workload: a seeded batch through the public theory API.

Modelled on acceptance criteria 6 and 7.  Each duality case runs Remez, the
closed form and the moment-matching LP on one interval; each TV case builds a
moment-matched prior pair and brackets the TV of its Poisson mixtures; one
Le Cam certificate closes the batch.  The raw numbers are returned so the
parent process checks them outside the timed process.

Functions are looked up on the package at call time, so a traced run sees
the wrappers it installed there.
"""

from __future__ import annotations

import math

DUALITY_CASES = 12
TV_CASES = 40
LP_GRID = 2000
CERT_K, CERT_N, CERT_EPS = 10**6, 3000, 0.15
CASES = DUALITY_CASES + TV_CASES + 1


def run_batch(seed: int) -> dict:
    # imported here so the parent process can read the constants above
    # without loading the package
    import numpy as np

    import supportsize as ss

    rng = np.random.default_rng(seed)
    duality = []
    # degrees cycle through criteria 6/7's ranges instead of being drawn, so
    # every batch does the same mix of work; the intervals stay random
    for i in range(DUALITY_CASES):
        # b/a >= 6 keeps the error above ~5e-4, as in criterion 6
        degree = i % 6
        a = float(rng.uniform(1.0, 8.0))
        b = float(a * rng.uniform(6.0, min(50.0 / a, 30.0)))
        res = ss.best_inv_approx(degree, a, b)
        duality.append({
            "remez": res.error,
            "closed_form": ss.closed_form_error(degree + 1, a, b),
            "lp": ss.primal_value(degree, a, b, LP_GRID),
        })
    tv = []
    for i in range(TV_CASES):
        L = 1 + i % 6
        nu = float(rng.uniform(0.0, 0.8))
        lam = float(rng.uniform(2.0 + nu, 30.0))
        pair = ss.construct_prior_pair(L, nu, lam)
        lam_max = float(rng.uniform(0.2, 2 * L / math.e))
        est = ss.tv_exact(pair, lam_max / lam)
        tv.append({
            "gap": pair.gap,
            "closed_form": ss.closed_form_error(L, 1.0 + nu, lam),
            "upper": est.upper,
            "bound": ss.tv_bound(lam_max, L).value,
        })
    params = ss.lecam_recipe(CERT_K, CERT_EPS)
    cert = ss.lecam_certificate(CERT_K, CERT_N, CERT_EPS, **params)
    return {
        "duality": duality,
        "tv": tv,
        "certificate": {"valid": cert.valid, "meets_target": cert.meets_target,
                        "implied_epsilon": cert.implied_epsilon},
    }

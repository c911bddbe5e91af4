"""The sandwich brackets the exact answer, not only nests.

By the Rockafellar-Uryasev form of expected shortfall, the exact support of
a polyhedral kind's risk region in a direction u >= 0 is one linear program:
minimise -u.q + (1/alpha) sum_w w_w u.z_w subject to z_w >= q - eta_w,
z >= 0 and eta_w in X(w), with X(w) written as moves from the gains x_w.
HiGHS solves it on sparse matrices; "unbounded" means the support is -inf.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from svrisk import scenarios
from svrisk.bounds import compute_bundle
from svrisk.markets import ExchangeCone2D, SetPortfolio
from svrisk.riskstats import ES, RiskSpec

ALPHA = 0.05
# Nine directions across the open first quadrant.
FAN = [(math.cos(t), math.sin(t)) for t in np.linspace(0.02, math.pi / 2 - 0.02, 9)]
# HiGHS and the hull agree to rounding where the bundle is exact (the
# segment hull's mirror side), so the slack is relative to the values.
REL_TOL = 1e-9


def ensemble():
    return scenarios.generate(scenarios.GenSpec(n=200, seed=1, correlation=-0.5,
                                                rate_mean=1.5, rate_vol=0.4))


def moves(p):
    """X(w) - x_w for every scenario: a sparse (2n, k) matrix M, whose rows
    n j + w give coordinate j of scenario w's move M v, the (k, 2) bounds
    of v, and rows (A, b) of further constraints A v <= b, or None."""
    n = p.ensemble.n
    eye = sp.identity(n, format="csr")
    if p.kind == "cone-det":
        # t1 b1 + t2 b2 with t >= 0.
        b1, b2 = p.cone.b1, p.cone.b2
        matrix = sp.vstack([sp.hstack([b1[j] * eye, b2[j] * eye]) for j in range(2)])
        return matrix, np.tile([0.0, np.inf], (2 * n, 1)), None
    if p.kind in ("cone-halfplane-random", "liquidity-capped"):
        # lam (1, -pi) along the exchange line, lam free or within the caps.
        pi = p.ensemble.rates
        matrix = sp.vstack([eye, sp.diags(-pi)])
        if p.kind == "liquidity-capped":
            bounds = np.column_stack([-p.cap[1] / pi, np.full(n, p.cap[0])])
        else:
            bounds = np.tile([-np.inf, np.inf], (n, 1))
        return matrix, bounds, None
    assert p.kind == "segment-hull", p.kind
    # sum_k mu_k (g_k - x) with mu_k >= 0 and sum_k mu_k <= 1.
    steps = [g - p.ensemble.gains for g in p.extra_gains]
    matrix = sp.vstack([sp.hstack([sp.diags(s[:, j]) for s in steps]) for j in range(2)])
    simplex = sp.hstack([eye] * len(steps))
    return matrix, np.tile([0.0, np.inf], (n * len(steps), 1)), (simplex, np.ones(n))


def exact_support(p, u):
    """min over X's selections of u . ES(selection), or -inf if unbounded.
    Variables: q (2), z (2n, row n j + w is z_wj), then the moves v."""
    n = p.ensemble.n
    x = p.ensemble.gains
    matrix, v_bounds, extra = moves(p)
    k = matrix.shape[1]
    # q_j - z_wj - (M v)_wj <= x_wj.
    q_part = sp.csr_matrix(np.repeat(np.eye(2), n, axis=0))
    a_ub = sp.hstack([q_part, -sp.identity(2 * n), -matrix])
    b_ub = x.T.reshape(-1)
    if extra is not None:
        a_ub = sp.vstack([a_ub, sp.hstack([sp.csr_matrix((extra[0].shape[0], 2 + 2 * n)),
                                           extra[0]])])
        b_ub = np.concatenate([b_ub, extra[1]])
    w = p.ensemble.weights
    c = np.concatenate([-np.asarray(u), np.concatenate([w * u[0], w * u[1]]) / ALPHA,
                        np.zeros(k)])
    bounds = np.vstack([np.tile([-np.inf, np.inf], (2, 1)),
                        np.tile([0.0, np.inf], (2 * n, 1)), v_bounds])
    res = linprog(c, A_ub=a_ub.tocsr(), b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 3:
        return -math.inf
    assert res.status == 0, (p.kind, u, res.message)
    return res.fun


def directions(p):
    """The fan, and for cone-det, whose support is finite only across its
    dual cone, nine directions from one dual generator to the other, where
    the outer cuts and the corner selections make both bounds exact."""
    if p.kind != "cone-det":
        return FAN
    a1, a2 = (a / np.hypot(*a) for a in (p.cone.a1, p.cone.a2))
    mixes = [lam * a1 + (1 - lam) * a2 for lam in np.linspace(0.0, 1.0, 9)]
    return FAN + [tuple(u / np.hypot(*u)) for u in mixes]


KINDS = {
    "cone-det": lambda e: SetPortfolio.cone_det(e, ExchangeCone2D(1.2, 1.1)),
    "random": SetPortfolio.random_halfplane,
    "liquidity-capped": lambda e: SetPortfolio.liquidity_capped(e, cap=(1.0, 1.0)),
    "segment-hull": lambda e: SetPortfolio.segment_hull(e, [e.gains[:, ::-1]]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_sandwich_brackets_the_exact_support(kind):
    p = KINDS[kind](ensemble())
    bundle = compute_bundle(p, RiskSpec(ES, ALPHA))
    finite = 0
    for u in directions(p):
        exact = exact_support(p, u)
        inner, outer = bundle.inner.scalarize(u), bundle.outer.scalarize(u)
        if exact == -math.inf:
            assert outer == -math.inf, (kind, u, inner, outer)
            continue
        finite += 1
        tol = REL_TOL * max(1.0, abs(exact))
        assert inner >= exact - tol, (kind, u, inner, exact)
        assert exact >= outer - tol, (kind, u, exact, outer)
    # The random kind's support is finite on 4 of the fan's directions.
    assert finite >= 4, kind

"""Univariate monetary risk functionals on weighted empirical samples.

Sign convention: a risk value is the capital that must be added to make the
position acceptable, so risk(constant c) == -c.  Expected shortfall at level
``a`` is the negated average of the lower quantile function over (0, a]; the
fractional atom straddling ``a`` contributes proportionally.  Value at risk
is the negated lower a-quantile (left-continuous inverse of the cdf).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

_STD_NORMAL = NormalDist()

# A weight-sum drift up to this value is accepted verbatim.
WEIGHT_SUM_NOISE = 1e-12
# Beyond the noise band but within this slack the weights are renormalized;
# a larger deviation is treated as an ingestion bug.
WEIGHT_SUM_SLACK = 1e-9

ES = "expected-shortfall"
VAR = "value-at-risk"
NEG_EXPECTATION = "neg-expectation"
NEG_ESSINF = "neg-essinf"

RISK_KINDS = (ES, VAR, NEG_EXPECTATION, NEG_ESSINF)
_LEVEL_KINDS = (ES, VAR)


def _as_float_vector(x, name):
    """A float copy of ``x``, which the caller's later writes cannot reach."""
    arr = np.array(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _settle_weight_sum(weights):
    """Apply the weight-sum policy to non-negative weights."""
    total = float(np.sum(weights))
    drift = abs(total - 1.0)
    if drift > WEIGHT_SUM_SLACK:
        raise ValidationError(f"weights sum to {total!r}, expected 1")
    if drift > WEIGHT_SUM_NOISE:
        return weights / total
    return weights


@dataclass(frozen=True)
class WeightedSample:
    """Finite scenario sample with probability weights summing to one; it
    keeps read-only copies of the arrays it is given."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = _as_float_vector(self.values, "values")
        weights = _as_float_vector(self.weights, "weights")
        if values.shape != weights.shape:
            raise ValidationError("values and weights must have equal length")
        if np.any(weights < 0):
            raise ValidationError("weights must be non-negative")
        weights = _settle_weight_sum(weights)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        self.values.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def uniform(cls, values):
        values = _as_float_vector(values, "values")
        n = values.size
        return cls(values, np.full(n, 1.0 / n))

    @property
    def size(self):
        return self.values.size


@dataclass(frozen=True)
class RiskSpec:
    """Choice of risk functional; ``level`` is required for tail kinds."""

    kind: str
    level: float | None = None

    def __post_init__(self):
        if self.kind not in RISK_KINDS:
            raise ValidationError(f"unknown risk kind {self.kind!r}")
        if self.kind in _LEVEL_KINDS:
            if self.level is None or not (0.0 < float(self.level) < 1.0):
                raise ValidationError(f"{self.kind} needs a level in (0, 1)")
            object.__setattr__(self, "level", float(self.level))
        elif self.level is not None:
            raise ValidationError(f"{self.kind} takes no level")


def _check_level(alpha):
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValidationError("level must lie strictly between 0 and 1")
    return alpha


# Equal-weight expected shortfall selects its tail with one O(n) partition
# and sorts only the tail when the row has at least PARTITION_MIN_N scenarios
# and the tail holds at most half of them; otherwise it sorts the whole
# row.  Microseconds per row, copy included (one process on a 2-core x86-64
# VM, numpy 2.4.6, standard normal rows; whole-row sort / partition + tail
# sort):
#
#   n \ level     0.05          0.25
#   100         0.25 / 0.38   0.24 / 0.37
#   400         1.27 / 1.15   1.27 / 1.36
#   1000        4.20 / 2.62   4.06 / 2.74
#   10000       48.6 / 19.8   49.4 / 26.9
#   50000        277 / 92.3    289 / 143
#
# With the tail at exactly half the row, as in the pairs of a two-sided
# product's halves, partition and tail sort still won: 2.28 / 2.25 us at
# n = 1000, 5.07 / 4.49 at 2000, 31.3 / 25.0 at 10000 and 207 / 158 at 50000.
PARTITION_MIN_N = 1000

# Under equal-weight expected shortfall whose tail holds at most
# PRUNE_MAX_TAIL of the scenarios, tail_risk_rows evaluates the one-sided
# scaled runs of the quantile-shift and frictionless grids from
# PARTITION_MIN_N scenarios on, and the convex mixes and the outer support
# grid (in groups of markets.PRUNE_GROUP directions) from PRUNE_MIN_N on.
# Milliseconds for the 181-direction grid, best of 7-15 runs (one process
# on a 2-core x86-64 VM, numpy 2.4.6, OpenBLAS 0.3.31, generated normal
# gains, rates 1.5/0.3; whole rows / pruned):
#
#   kind       level   n = 1e3      2e3         5e3          1e4          5e4
#   ball        0.05   0.9 / 1.1   1.6 / 1.4    3.2 / 2.2    6.6 / 3.3    35 / 19
#   ball        0.25   1.6 / 2.3   3.0 / 3.4    6.3 / 6.4   12.0 / 11.1   65 / 64
#   liquidity   0.05   4.5 / 2.3   7.8 / 2.9   19.4 / 4.6   36.7 / 8.0   183 / 34
#   liquidity   0.25   4.6 / 3.2   8.2 / 4.9   20.7 / 10.1  30.0 / 12.3  200 / 138
#   segment     0.05   2.0 / 2.5   3.2 / 2.8    6.4 / 4.0   12.3 / 5.9    59 / 21
#   segment     0.25   2.2 / 3.0   3.7 / 3.8    7.7 / 6.6   14.1 / 11.2   74 / 66
#
# At level 0.45 and n = 5e4 pruning was slower (ball 67 / 96 ms, segment
# 75 / 119 ms); at 0.3 it was level.
#
# Milliseconds for the 1225 selections of quantile-shift[both] on a cone-det
# portfolio (pi 1.5 / 1.5), best of 4-7 interleaved runs, same machine;
# whole rows / pruned:
#
#   level   n = 1e3      2e3          5e3          1e4          5e4
#   0.05    7.5 / 5.5   11.5 / 9.0   25.5 / 15.7  52.5 / 26.4  283 / 127
#   0.25    8.5 / 7.9   15.7 / 14.4  35.7 / 31.5  73.4 / 57.6  390 / 301
#
# At n = 400 the two were level (4.1 / 3.8 ms at 0.05, 4.3 / 4.5 at 0.25),
# and at n = 100 pruning took twice as long (1.3 / 2.7 ms).
#
# That product is now evaluated from its two halves at any n
# (selections._product_points).  Milliseconds on a cone-det portfolio
# (pi 1.2 / 1.1, generated gains with correlation -0.5, seed 7), best of
# 3 or more runs, same machine; whole rows below PARTITION_MIN_N and pruned
# runs from it on / halves:
#
#   level   n = 100     1e3         5e3          1e4          5e4
#   0.05    1.1 / 0.6   6.0 / 1.8   15.7 / 7.1   27.4 / 13.0  147 / 66
#   0.15    1.1 / 0.7   7.2 / 3.6   22.2 / 16.2  41.1 / 31.1  227 / 190
#   0.25    1.2 / 1.0   8.2 / 5.0   28.6 / 25.7  51.0 / 47.0  311 / 341
#   0.3     1.2 / 0.8   8.8 / 6.4   37.5 / 37.0  70.7 / 69.0  374 / 417
#
# Each pair sorts the 2m values of its two tails, so from n = 5e4 at levels
# 0.25 and above the halves were slower (805 / 919 ms at n = 1e5, 0.25).
#
# Milliseconds for the 21-point default grids of the convex mixes
# (liquidity-capped, cap 1: two mixes; segment-hull, mirrored extra
# vertices: one mix), best of 7 interleaved runs, same machine; whole rows /
# pruned:
#
#   kind       level   n = 1e3       5e3           1e4           5e4
#   liquidity   0.05   0.25 / 0.24   0.93 / 0.62   1.95 / 1.21   10.2 / 5.4
#   liquidity   0.25   0.28 / 0.38   1.31 / 1.20   2.50 / 2.43   14.1 / 13.9
#   segment     0.05   0.13 / 0.13   0.46 / 0.35   0.93 / 0.57    5.1 / 3.1
#   segment     0.25   0.15 / 0.20   0.60 / 0.59   1.27 / 1.26    7.5 / 7.7
PRUNE_MIN_N = 5000
PRUNE_MAX_TAIL = 0.3


def _tail_count(weights, tail):
    """The number m of scenarios whose cumulative weight before them is
    below ``tail``, in the float arithmetic of ``taken`` in risk_rows, and
    the running sums of at least the first m weights.  The running sums
    only grow, so those scenarios are a prefix, and a running sum is
    sequential, so a short one has the bits of the whole one's prefix: the
    sums are taken only a little past ``tail`` times the count.
    """
    n = len(weights)
    size = min(n, int(tail * n) + 2)
    while True:
        cw = np.cumsum(weights[:size])
        m = int(np.count_nonzero(cw - weights[:size] < tail))
        if m < size or size == n:
            return m, cw
        size = min(n, 2 * size)


def _sorted_rows(values, weights, tail=None, overwrite=False):
    """Sort each row by (value, weight), which makes every downstream
    reduction invariant under permutations of the scenario order, bit for
    bit; returns the sorted values and the weights in matching order.  With
    ``overwrite`` the rows of ``values`` may be reordered in place.

    ``tail`` is an expected-shortfall level.  With equal weights only the m
    scenarios that carry tail weight are returned, in order, with their
    weights and running weight sums (the third value; None when they were
    not needed), and long rows are sorted only as far as the tail reaches:
    O(n) + O(m log m) instead of O(n log n).
    """
    if weights.min() == weights.max():
        # Tied values carry equal weights, so a value sort gives lexsort's
        # pairs up to the order of tied zeros of opposite sign, which no
        # reduction below can tell apart.
        v = values if overwrite else values.copy()
        if tail is None:
            v.sort(axis=-1)
            return v, weights, None
        n = values.shape[-1]
        m, cw = _tail_count(weights, tail)
        if n >= PARTITION_MIN_N and 2 * m <= n:
            v.partition(m - 1, axis=-1)
            v[..., :m].sort(axis=-1)
        else:
            v.sort(axis=-1)
        return v[..., :m], weights[:m], cw[:m]
    order = np.lexsort((np.broadcast_to(weights, values.shape), values), axis=-1)
    return np.take_along_axis(values, order, axis=-1), weights[order], None


def risk_rows(spec, values, weights, overwrite_input=False):
    """Risk of every row of a (k, n) array of scenario values under shared
    probability weights (n,); the functional is described by ``spec``.

    Every functional is defined on the rows sorted by (value, weight), so
    it does not depend on the scenario order, bit for bit.  Equal-weight
    expected shortfall sums the products of the m scenarios that carry tail
    weight and selects them instead of sorting long rows (see
    ``_sorted_rows``); unequal weights sum the whole row, whose tail length
    differs from row to row.  Value at risk and neg-essinf return +0.0 for
    a zero, whichever sign of zero the row holds there.  ``values`` is not
    modified unless ``overwrite_input`` is set: then a caller that owns the
    rows as scratch lets the sort reorder them and the weights scale them in
    place, which saves a copy of every row.  That holds only for rows whose
    values are adjacent in memory; others are copied to row-major first, as
    without ``overwrite_input``, since a sum along rows of another layout
    rounds in another order.
    """
    values = np.asarray(values, dtype=float)
    if spec.kind == NEG_ESSINF:
        live = weights > 0
        if not np.any(live):
            raise ValidationError("sample has no positive-weight scenario")
        return 0.0 - np.min(values[:, live], axis=-1)
    v, w, cw = _sorted_rows(
        values,
        weights,
        tail=spec.level if spec.kind == ES else None,
        overwrite=overwrite_input and values.strides[-1] == values.itemsize,
    )
    # The sorted rows are a copy, the kernel's own gather or the caller's
    # scratch, so the weights are multiplied into them in place.
    if spec.kind == NEG_EXPECTATION:
        v *= w
        return -v.sum(axis=-1)
    alpha = spec.level
    if cw is None:
        cw = np.cumsum(w, axis=-1)
    if spec.kind == ES:
        v *= np.clip(alpha - (cw - w), 0.0, w)
        return -v.sum(axis=-1) / alpha
    k, n = v.shape
    idx = np.minimum(np.sum(cw < alpha - 1e-12, axis=-1), n - 1)
    return 0.0 - v[np.arange(k), idx]


def _prunable_tail(spec, weights, min_n):
    """The number m of scenarios in the tail of equal-weight expected
    shortfall on at least ``min_n`` scenarios, when that tail holds at most
    PRUNE_MAX_TAIL of them; None otherwise, where rows are built whole."""
    n = len(weights)
    if spec.kind != ES or n < min_n or weights.min() != weights.max():
        return None
    m, _ = _tail_count(weights, spec.level)
    return m if m <= PRUNE_MAX_TAIL * n else None


def tail_risk_rows(spec, weights, m, low, high, count, rows, block_values):
    """Risks of ``count`` rows, in blocks of at most ``block_values`` values
    (at least one row) that ``rows(lo, hi, at)`` builds: rows lo..hi-1 on
    the scenarios ``at`` as a row-major array, which the kernel may
    overwrite.
    With m None the rows are whole: ``at`` is slice(None), every weight is
    used and any functional applies.  Otherwise the functional is
    equal-weight expected shortfall whose tail holds m scenarios (see
    ``_prunable_tail``), every entry of every row at scenario i lies in
    [low[i], high[i]], ``high`` is reordered in place, and ``at`` is an index
    array of the scenarios that can reach the tail, on which the rows must
    have the bits of the whole rows' entries.

    With tau the m-th smallest upper bound, at least m entries of every row
    are at most tau, so a scenario whose lower bound exceeds tau holds none
    of the m smallest values of any row, and every scenario holding one of
    them, ties at tau included, is kept.  The tail sum reads only those m
    values, in sorted order, with the first m weights and running sums; the
    weights are equal, so risk_rows on the kept scenarios, with the first
    weights, gives the bits of whole rows.  Infinite bounds keep every
    scenario.
    """
    if m is None:
        at, n = slice(None), len(weights)
    else:
        high.partition(m - 1)
        at = np.flatnonzero(low <= high[m - 1])
        n = len(at)
    size = max(1, block_values // n)
    risks = np.empty(count)
    for lo in range(0, count, size):
        hi = min(count, lo + size)
        risks[lo:hi] = risk_rows(spec, rows(lo, hi, at), weights[:n], overwrite_input=True)
    return risks


def risk_eval(spec, sample):
    """Evaluate the functional described by ``spec`` on ``sample``."""
    return float(risk_rows(spec, sample.values[None, :], sample.weights)[0])


def es_empirical(sample, alpha):
    """Expected shortfall of a weighted sample at tail level ``alpha``."""
    return risk_eval(RiskSpec(ES, _check_level(alpha)), sample)


def var_empirical(sample, alpha):
    """Value at risk: negated lower ``alpha``-quantile of the sample."""
    return risk_eval(RiskSpec(VAR, _check_level(alpha)), sample)


def neg_expectation(sample):
    return risk_eval(RiskSpec(NEG_EXPECTATION), sample)


def neg_essinf(sample):
    return risk_eval(RiskSpec(NEG_ESSINF), sample)


def es_normal(mu, sigma, alpha):
    """Closed-form expected shortfall of N(mu, sigma^2)."""
    alpha = _check_level(alpha)
    sigma = float(sigma)
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    z = _STD_NORMAL.inv_cdf(alpha)
    return float(-mu + sigma * _STD_NORMAL.pdf(z) / alpha)


class LognormalTailStats(NamedTuple):
    """Tail statistics of a mean-one lognormal rate and its reciprocal."""

    es_rate: float
    es_inv_rate: float
    var_low: float
    var_high: float


def es_var_lognormal_mean_one(sigma, alpha):
    """Closed-form ES/VaR figures for rate = exp(-sigma^2/2 + sigma Z).

    Returns expected shortfall of the rate and of its reciprocal at level
    ``alpha``, plus the negated alpha- and (1-alpha)-quantiles of the rate.
    """
    alpha = _check_level(alpha)
    sigma = float(sigma)
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    z_lo = _STD_NORMAL.inv_cdf(alpha)
    z_hi = _STD_NORMAL.inv_cdf(1.0 - alpha)
    es_rate = -_STD_NORMAL.cdf(z_lo - sigma) / alpha
    es_inv_rate = -np.exp(sigma**2) * (1.0 - _STD_NORMAL.cdf(z_hi + sigma)) / alpha
    var_low = -np.exp(-0.5 * sigma**2 + sigma * z_lo)
    var_high = -np.exp(-0.5 * sigma**2 + sigma * z_hi)
    return LognormalTailStats(
        float(es_rate), float(es_inv_rate), float(var_low), float(var_high)
    )

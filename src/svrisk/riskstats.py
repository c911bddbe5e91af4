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
    arr = np.asarray(x, dtype=float)
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
    """Finite scenario sample with probability weights summing to one."""

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
# and the tail holds less than half of them; otherwise it sorts the whole
# row.  Microseconds per row (one process on a 2-core x86-64 VM, numpy 2.4,
# standard normal rows, np.sort / partition + tail sort):
#
#   n \ level     0.05          0.25          0.5           0.9
#   100         0.35 / 0.49   0.32 / 0.54   0.32 / 0.61   0.36 / 0.69
#   400         1.79 / 1.59   1.75 / 1.81   1.72 / 2.23   1.92 / 2.99
#   1000        5.85 / 3.46   5.88 / 4.14   5.80 / 6.24   6.07 / 8.39
#   2000        13.9 / 6.62   12.8 / 8.83   12.7 / 11.6   13.5 / 17.8
#   50000       420 / 158     430 / 242     457 / 325     445 / 485
PARTITION_MIN_N = 1000


def _sorted_rows(values, weights, tail=None):
    """Sort each row by (value, weight), which makes every downstream
    reduction invariant under permutations of the scenario order, bit for
    bit; returns the sorted values and the weights in matching order.

    ``tail`` is an expected-shortfall level.  With equal weights it lets
    long rows be sorted only as far as the tail reaches: the m scenarios
    that carry tail weight come first, in order, and the rest follow in no
    particular order, which costs O(n) + O(m log m) instead of O(n log n).
    Those scenarios enter the tail sum with weight exactly zero, so the sum
    keeps its terms in the same places and its bits.
    """
    if weights.min() == weights.max():
        # Tied values carry equal weights, so a value sort gives lexsort's
        # pairs up to the order of tied zeros of opposite sign, which sums
        # ignore and only the VaR pick below has to restore.
        n = values.shape[-1]
        if tail is not None and n >= PARTITION_MIN_N:
            # The scenarios whose cumulative weight before them is below the
            # level; the same float arithmetic as ``taken`` in risk_rows.
            m = int(np.count_nonzero(np.cumsum(weights) - weights < tail))
            if 2 * m < n:
                v = np.partition(values, m - 1, axis=-1)
                v[..., :m].sort(axis=-1)
                return v, weights
        return np.sort(values, axis=-1), weights
    order = np.lexsort((np.broadcast_to(weights, values.shape), values), axis=-1)
    return np.take_along_axis(values, order, axis=-1), weights[order]


def risk_rows(spec, values, weights):
    """Risk of every row of a (k, n) array of scenario values under shared
    probability weights (n,); the functional is described by ``spec``.

    Equal-weight expected shortfall on long rows selects its tail instead of
    sorting the whole row (see ``_sorted_rows``); every functional gives the
    same bits as a full sort by (value, weight).  ``values`` is not modified.
    """
    values = np.asarray(values, dtype=float)
    if spec.kind == NEG_ESSINF:
        live = weights > 0
        if not np.any(live):
            raise ValidationError("sample has no positive-weight scenario")
        return -np.min(values[:, live], axis=-1)
    v, w = _sorted_rows(values, weights, tail=spec.level if spec.kind == ES else None)
    if spec.kind == NEG_EXPECTATION:
        return -(v * w).sum(axis=-1)
    alpha = spec.level
    cw = np.cumsum(w, axis=-1)
    if spec.kind == ES:
        taken = np.clip(alpha - (cw - w), 0.0, w)
        return -(v * taken).sum(axis=-1) / alpha
    k, n = v.shape
    idx = np.broadcast_to(np.minimum(np.sum(cw < alpha - 1e-12, axis=-1), n - 1), (k,))
    picked = v[np.arange(k), idx]
    if w is weights:
        # lexsort keeps tied zeros in input order; pick the zero it would.
        for r in np.flatnonzero(picked == 0.0):
            zeros = values[r][values[r] == 0.0]
            picked[r] = zeros[idx[r] - np.searchsorted(v[r], 0.0)]
    return -picked


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

import numpy as np
import pytest

from svrisk.errors import ValidationError
from svrisk.riskstats import (
    ES,
    NEG_ESSINF,
    NEG_EXPECTATION,
    PARTITION_MIN_N,
    VAR,
    RiskSpec,
    WeightedSample,
    _sorted_rows,
    _tail_count,
    es_empirical,
    es_normal,
    es_var_lognormal_mean_one,
    neg_essinf,
    neg_expectation,
    risk_eval,
    risk_rows,
    tail_risk_rows,
    var_empirical,
)


def sample(values, weights=None):
    v = np.asarray(values, dtype=float)
    return WeightedSample.uniform(v) if weights is None else WeightedSample(v, weights)


class TestWeightedSample:
    def test_uniform(self):
        s = sample([1.0, 2.0, 3.0])
        assert s.size == 3
        assert np.allclose(s.weights, 1 / 3)

    def test_tiny_weight_drift_kept_verbatim(self):
        w = np.array([0.5, 0.5 + 4e-13])
        s = WeightedSample([0.0, 1.0], w)
        assert s.weights[1] == w[1]

    def test_moderate_drift_renormalized(self):
        w = np.array([0.5, 0.5 + 4e-10])
        s = WeightedSample([0.0, 1.0], w)
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_drift_rejected(self):
        with pytest.raises(ValidationError):
            WeightedSample([0.0, 1.0], [0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            WeightedSample([0.0, 1.0], [-0.1, 1.1])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            WeightedSample([0.0, 1.0, 2.0], [0.5, 0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            WeightedSample([0.0, np.inf], [0.5, 0.5])

    def test_arrays_read_only(self):
        s = sample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_callers_arrays_stay_writable_and_apart(self):
        values, weights = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        s = WeightedSample(values, weights)
        values[0], weights[0] = 9.0, 0.0
        assert s.values.tolist() == [1.0, 2.0] and s.weights.tolist() == [0.5, 0.5]


class TestRiskSpec:
    def test_level_required_for_tail_kinds(self):
        for kind in (ES, VAR):
            with pytest.raises(ValidationError):
                RiskSpec(kind)
            with pytest.raises(ValidationError):
                RiskSpec(kind, 1.0)
            assert RiskSpec(kind, 0.25).level == 0.25

    def test_level_forbidden_otherwise(self):
        with pytest.raises(ValidationError):
            RiskSpec(NEG_EXPECTATION, 0.5)
        assert RiskSpec(NEG_ESSINF).level is None

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            RiskSpec("entropic", 0.5)


class TestExpectedShortfall:
    def test_two_point_at_three_quarters(self):
        assert es_empirical(sample([-2.0, 4.0]), 0.75) == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        assert es_empirical(sample([5.0]), 0.5) == pytest.approx(-5.0, abs=1e-14)

    def test_four_point_median_tail(self):
        # -(1/0.5) * (0.25*1 + 0.25*2)
        assert es_empirical(sample([1.0, 2.0, 3.0, 4.0]), 0.5) == pytest.approx(-1.5)

    def test_fractional_atom(self):
        # alpha=0.3 takes all of the first atom (0.25) and 0.05 of the second
        got = es_empirical(sample([1.0, 2.0, 3.0, 4.0]), 0.3)
        assert got == pytest.approx(-(0.25 * 1 + 0.05 * 2) / 0.3)

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(101)
        w = rng.random(101)
        w /= w.sum()
        perm = rng.permutation(101)
        a = es_empirical(WeightedSample(v, w), 0.2)
        b = es_empirical(WeightedSample(v[perm], w[perm]), 0.2)
        assert a == b  # bit-identical by sorted reduction


class TestValueAtRisk:
    def test_four_point(self):
        assert var_empirical(sample([1.0, 2.0, 3.0, 4.0]), 0.5) == -2.0

    def test_constant(self):
        assert var_empirical(sample([7.0]), 0.3) == -7.0

    def test_two_point_above_half(self):
        assert var_empirical(sample([-2.0, 4.0]), 0.75) == -4.0

    def test_left_continuity_at_atom(self):
        # F(-2) = 0.5 exactly; the left quantile at 0.5 is -2
        assert var_empirical(sample([-2.0, 4.0]), 0.5) == 2.0


class TestRiskEval:
    def test_neg_expectation(self):
        spec = RiskSpec(NEG_EXPECTATION)
        assert risk_eval(spec, sample([-2.0, 4.0])) == pytest.approx(-1.0)

    def test_neg_essinf(self):
        spec = RiskSpec(NEG_ESSINF)
        assert risk_eval(spec, sample([-2.0, 4.0])) == 2.0

    def test_neg_essinf_ignores_dead_scenarios(self):
        s = WeightedSample([-50.0, 1.0, 2.0], [0.0, 0.5, 0.5])
        assert neg_essinf(s) == -1.0

    def test_es_dispatch(self):
        spec = RiskSpec(ES, 0.75)
        assert risk_eval(spec, sample([-2.0, 4.0])) == pytest.approx(0.0, abs=1e-14)

    def test_var_dispatch(self):
        spec = RiskSpec(VAR, 0.75)
        assert risk_eval(spec, sample([-2.0, 4.0])) == -4.0


class TestClosedForms:
    def test_es_normal_standard(self):
        assert es_normal(0.0, 1.0, 0.05) == pytest.approx(2.0627, abs=1e-4)

    def test_es_normal_intro_marginal(self):
        val = es_normal(0.5, 1.0, 0.05)
        assert val == pytest.approx(1.5627, abs=1e-4)
        assert val * (1 + 1 / 1.5) == pytest.approx(2.6045, abs=5e-4)

    def test_es_normal_degenerate(self):
        assert es_normal(0.7, 0.0, 0.3) == pytest.approx(-0.7)

    def test_es_normal_negative_sigma(self):
        with pytest.raises(ValidationError):
            es_normal(0.0, -1.0, 0.05)

    def test_lognormal_tail_stats_pins(self):
        stats = es_var_lognormal_mean_one(0.4, 0.05)
        assert stats.es_rate == pytest.approx(-0.4086929, abs=1e-4)
        assert 1.0 / stats.es_inv_rate == pytest.approx(-2.085047, abs=1e-4)
        assert stats.var_low == pytest.approx(-0.4780971, abs=1e-4)
        assert stats.var_high == pytest.approx(-1.782366, abs=1e-4)

    def test_lognormal_degenerate(self):
        stats = es_var_lognormal_mean_one(1e-12, 0.2)
        for value in stats:
            assert value == pytest.approx(-1.0, abs=1e-9)

    def test_lognormal_tail_stats_match_empirical(self):
        rng = np.random.default_rng(4)
        sigma, alpha, n = 0.4, 0.05, 400_000
        pi = np.exp(sigma * rng.standard_normal(n) - sigma**2 / 2)
        stats = es_var_lognormal_mean_one(sigma, alpha)
        assert es_empirical(sample(pi), alpha) == pytest.approx(stats.es_rate, abs=5e-3)
        assert es_empirical(sample(1 / pi), alpha) == pytest.approx(
            stats.es_inv_rate, abs=5e-3
        )
        assert var_empirical(sample(pi), alpha) == pytest.approx(stats.var_low, abs=5e-3)
        assert var_empirical(sample(pi), 1 - alpha) == pytest.approx(
            stats.var_high, abs=5e-3
        )


def _random_sample(rng, n=60):
    v = rng.standard_normal(n) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
    w = rng.random(n)
    w /= w.sum()
    return WeightedSample(v, w)


ALL_SPECS = [
    RiskSpec(ES, 0.1),
    RiskSpec(ES, 0.75),
    RiskSpec(VAR, 0.3),
    RiskSpec(NEG_EXPECTATION),
    RiskSpec(NEG_ESSINF),
]


class TestAxioms:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.level}")
    def test_cash_invariance(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = _random_sample(rng)
            c = rng.uniform(-5, 5)
            shifted = WeightedSample(s.values + c, s.weights)
            assert risk_eval(spec, shifted) == pytest.approx(
                risk_eval(spec, s) - c, abs=1e-12
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.level}")
    def test_positive_homogeneity(self, spec):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = _random_sample(rng)
            lam = rng.uniform(0.1, 4.0)
            scaled = WeightedSample(lam * s.values, s.weights)
            assert risk_eval(spec, scaled) == pytest.approx(
                lam * risk_eval(spec, s), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.level}")
    def test_monotonicity(self, spec):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = _random_sample(rng)
            bigger = WeightedSample(s.values + rng.random(s.size), s.weights)
            assert risk_eval(spec, bigger) <= risk_eval(spec, s) + 1e-12

    @pytest.mark.parametrize(
        "spec",
        [RiskSpec(ES, 0.2), RiskSpec(NEG_EXPECTATION), RiskSpec(NEG_ESSINF)],
        ids=lambda s: s.kind,
    )
    def test_subadditivity_on_shared_scenarios(self, spec):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = 50
            w = rng.random(n)
            w /= w.sum()
            a = rng.standard_normal(n)
            b = rng.standard_normal(n) * 2.0
            lhs = risk_eval(spec, WeightedSample(a + b, w))
            rhs = risk_eval(spec, WeightedSample(a, w)) + risk_eval(
                spec, WeightedSample(b, w)
            )
            assert lhs <= rhs + 1e-12

    def test_es_lipschitz_in_sup_norm(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s = _random_sample(rng)
            eps = rng.uniform(0, 0.5)
            bumped = WeightedSample(
                s.values + rng.uniform(-eps, eps, s.size), s.weights
            )
            gap = abs(es_empirical(bumped, 0.2) - es_empirical(s, 0.2))
            assert gap <= eps + 1e-12

    def test_es_comonotone_additivity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            v = np.sort(rng.standard_normal(40))
            v += np.arange(40) * 1e-6  # ensure distinct values
            g = np.exp(v)  # increasing transform of the same driver
            w = rng.random(40)
            w /= w.sum()
            lhs = es_empirical(WeightedSample(v + g, w), 0.25)
            rhs = es_empirical(WeightedSample(v, w), 0.25) + es_empirical(
                WeightedSample(g, w), 0.25
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_neg_expectation_matches_mean(self):
        rng = np.random.default_rng(17)
        s = _random_sample(rng)
        assert neg_expectation(s) == pytest.approx(-np.dot(s.values, s.weights))


def _lexsort_reference(spec, values, weights):
    # The per-sample definition with equal weights: sort by (value, weight),
    # then reduce.  Expected shortfall sums the products of the m scenarios
    # that carry tail weight; value at risk returns +0.0 for a zero.
    order = np.lexsort((weights, values))
    v, w = values[order], weights[order]
    cw = np.cumsum(w)
    if spec.kind == ES:
        m = np.count_nonzero(cw - w < spec.level)
        taken = np.clip(spec.level - (cw - w), 0.0, w)
        return float(-(v[:m] * taken[:m]).sum() / spec.level)
    if spec.kind == VAR:
        idx = min(int(np.searchsorted(cw, spec.level - 1e-12, side="left")), v.size - 1)
        return float(0.0 - v[idx])
    return float(-(v * w).sum())


def _weights(mode, n, rng):
    if mode == "uniform":
        return np.full(n, 1.0 / n)
    w = rng.random(n) + 0.05
    if mode == "zero":
        w[1::3] = 0.0
    return WeightedSample(np.zeros(n), w / w.sum()).weights


class TestRiskRows:
    @pytest.mark.parametrize("mode", ["uniform", "uneven", "zero"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.level}")
    def test_rows_equal_per_row_eval(self, spec, mode):
        rng = np.random.default_rng(17)
        for n in (1, 2, 9, 130, 1001):
            values = np.round(rng.standard_normal((4, n)), 1)  # many ties
            w = _weights(mode, n, rng)
            if mode == "zero" and n > 1:
                values[:, 1] = -1e3  # dead scenario below every live one
            rows = risk_rows(spec, values, w)
            assert rows.shape == (4,)
            for r in range(4):
                assert rows[r] == risk_eval(spec, WeightedSample(values[r], w))

    @pytest.mark.parametrize("spec", ALL_SPECS[:-1], ids=lambda s: f"{s.kind}-{s.level}")
    def test_uniform_weights_match_lexsort_bit_for_bit(self, spec):
        # 10_000 and 50_000 are longer than numpy's 8192-value buffer.
        rng = np.random.default_rng(23)
        for n in (1, 3, 64, 257, PARTITION_MIN_N - 1, PARTITION_MIN_N, 4000, 10_000, 50_000):
            values = np.round(rng.standard_normal((3, n)), 2)
            values[:, rng.random(n) < 0.3] = 0.0
            values[:, rng.random(n) < 0.3] = -0.0
            # Sums of untied values change bits when their order does.
            values = np.vstack([values, rng.standard_normal((8, n))])
            # A tail of negative zeros whose sum is -0.0, followed by positive
            # terms that carry no tail weight.
            values = np.vstack([values, np.where(rng.random(n) < 0.5, -0.0, 1.0)])
            w = np.full(n, 1.0 / n)
            specs = [spec]
            if spec.level is not None:
                # A tail of one scenario (level < 1/n), of all n (level near
                # 1), tails that end exactly on a scenario (k/n), and tails
                # that end half a scenario either side of half of n rounded
                # down to a multiple of 8.
                half = n // 2 - n // 2 % 8
                levels = (0.5 / n, 1 - 0.1 / n, 1 / n, (n // 10) / n, (n // 2 - 1) / n,
                          (half - 0.5) / n, (half + 0.5) / n)
                specs += [RiskSpec(spec.kind, a) for a in levels if 0 < a < 1]
            for s in specs:
                want = [_lexsort_reference(s, row, w) for row in values]
                before = values.copy()
                rows = risk_rows(s, values, w)
                assert values.tobytes() == before.tobytes()
                # The same bits when the kernel may reorder a scratch copy
                # in place, given as the strided rows of a block buffer.
                scratch = np.stack([values, values], axis=1)[:, 1]
                in_place = risk_rows(s, scratch, w, overwrite_input=True)
                for got in (rows, in_place):
                    assert np.asarray(got).tobytes() == np.array(want).tobytes()

    def test_tail_count_matches_whole_running_sums(self):
        # Levels on a scenario boundary (k/n) and one ulp either side of it.
        for n in (1, 2, 3, 7, 64, 999, 1000, 1001, 4097, 10_000):
            for w in (np.full(n, 1.0 / n), np.full(n, 1.0 / n) * (1.0 + 1e-10)):
                cw = np.cumsum(w)
                levels = [0.5 / n, 0.05, 0.1, 0.25, 0.5, 0.9, 1 - 0.1 / n]
                for k in {1, n // 10, n // 3, n // 2, n - 1}:
                    levels += [k / n, np.nextafter(k / n, 0.0), np.nextafter(k / n, 1.0)]
                for level in levels:
                    if not 0.0 < level < 1.0:
                        continue
                    m, short = _tail_count(w, level)
                    assert m == np.count_nonzero(cw - w < level), (n, level)
                    assert m <= len(short) <= n
                    assert short.tobytes() == cw[: len(short)].tobytes()
                    _, kept, sums = _sorted_rows(np.zeros((1, n)), w, tail=level)
                    assert sums.tobytes() == cw[: len(kept)].tobytes()
        _, short = _tail_count(np.full(10_000, 1e-4), 0.05)
        assert len(short) < 1_000

    def test_zero_risk_is_positive_zero_in_any_order(self):
        # Only zeros of either sign: the answer must not depend on which of
        # the tied zeros the sort puts at the quantile or the minimum.
        rng = np.random.default_rng(29)
        w = np.full(40, 1.0 / 40)
        for spec in (RiskSpec(VAR, 0.5), RiskSpec(NEG_ESSINF)):
            for _ in range(50):
                row = np.where(rng.random(40) < 0.5, 0.0, -0.0)
                got = risk_rows(spec, np.vstack([row, row[::-1]]), w)
                assert got.tobytes() == np.zeros(2).tobytes()
        for row in ([0.0, -0.0, 1.0, 2.0], [-0.0, 0.0, 1.0, 2.0]):
            assert np.float64(var_empirical(sample(row), 0.5)).tobytes() == bytes(8)

    def test_no_live_scenario_rejected(self):
        with pytest.raises(ValidationError):
            risk_rows(RiskSpec(NEG_ESSINF), np.ones((2, 2)), np.zeros(2))


def _tail_rows(spec, values, low, high, block_values=2**18):
    """tail_risk_rows on the rows of ``values`` with the given bounds,
    checked bit for bit against risk_rows on the whole rows; returns the
    (lo, hi, candidates) of each block it built."""
    k, n = values.shape
    w = np.full(n, 1.0 / n)
    m, _ = _tail_count(w, spec.level)
    blocks = []

    def rows(lo, hi, at):
        blocks.append((lo, hi, len(at)))
        return np.ascontiguousarray(values[lo:hi, at])

    got = tail_risk_rows(spec, w, m, low, high.copy(), k, rows, block_values)
    want = risk_rows(spec, values, w)
    assert got.tobytes() == want.tobytes()
    # The blocks cover the rows in order.
    assert [b[0] for b in blocks] + [k] == [0] + [b[1] for b in blocks]
    return blocks


class TestTailRiskRows:
    """Equal-weight expected shortfall on the tail candidates only has the
    bits of whole rows."""

    @pytest.mark.parametrize("level", [0.5 / 2000, 0.01, 0.05, 0.3])
    @pytest.mark.parametrize("n", [40, 2000])
    def test_random_rows_and_bounds(self, n, level):
        rng = np.random.default_rng(31)
        values = rng.standard_normal((9, n)) + 3.0 * rng.standard_normal(n)
        low = values.min(axis=0) - rng.random(n)
        high = values.max(axis=0) + rng.random(n)
        (block,) = _tail_rows(RiskSpec(ES, level), values, low, high)
        assert block[2] < n or n == 40

    def test_ties_at_tau(self):
        # Integer rows between tight integer bounds: many scenarios tie with
        # the m-th smallest upper bound, by their values and by their lower
        # bounds.
        rng = np.random.default_rng(32)
        n = 1000
        low = rng.integers(0, 6, n).astype(float)
        values = low + rng.integers(0, 2, (5, n))
        for spec in (RiskSpec(ES, 0.05), RiskSpec(ES, 0.2), RiskSpec(ES, 0.25)):
            (block,) = _tail_rows(spec, values, low, low + 1.0)
            assert block[2] < n

    def test_exactly_m_candidates(self):
        # The m scenarios below 1 can hold the tail; the others lie above 2.
        rng = np.random.default_rng(33)
        n, spec = 400, RiskSpec(ES, 0.05)
        m, _ = _tail_count(np.full(n, 1.0 / n), spec.level)
        below = rng.permutation(n) < m
        values = np.where(below, 0.0, 2.0) + rng.random((6, n))
        low, high = np.where(below, 0.0, 2.0), np.where(below, 1.0, 3.0)
        (block,) = _tail_rows(spec, values, low, high)
        assert block[2] == m

    def test_infinite_bounds_keep_every_scenario(self):
        rng = np.random.default_rng(34)
        n = 300
        values = rng.standard_normal((4, n))
        low, high = np.full(n, -np.inf), np.full(n, np.inf)
        (block,) = _tail_rows(RiskSpec(ES, 0.05), values, low, high)
        assert block[2] == n

    def test_blocks_of_one_row(self):
        rng = np.random.default_rng(35)
        n = 500
        values = rng.standard_normal((7, n))
        low, high = values.min(axis=0), values.max(axis=0)
        blocks = _tail_rows(RiskSpec(ES, 0.05), values, low, high, block_values=1)
        assert [b[:2] for b in blocks] == [(i, i + 1) for i in range(7)]
        # Three rows of candidates per block: two full blocks and one short.
        cand = blocks[0][2]
        blocks = _tail_rows(RiskSpec(ES, 0.05), values, low, high, block_values=3 * cand)
        assert [b[:2] for b in blocks] == [(0, 3), (3, 6), (6, 7)]

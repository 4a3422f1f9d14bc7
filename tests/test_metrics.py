import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gboc import metrics
from gboc.errors import BadParams
from oracles import broadcast_affiliation_f1, broadcast_dist_to_intervals, brute_force_vus_pr, brute_force_vus_roc


def perfect_fixture(T=50, anomalies=(10, 30)):
    labels = np.zeros(T, dtype=np.int64)
    labels[list(anomalies)] = 1
    return labels.astype(np.float64), labels


class TestTolerantPr:
    """The +-delta crediting rule, seen through single-delta PR areas."""

    def test_perfect_scores(self):
        scores, labels = perfect_fixture()
        assert metrics.vus_pr(scores, labels, delta_set=(0,)) == 1.0

    def test_shifted_by_exactly_delta(self):
        labels = np.zeros(30, dtype=np.int64)
        labels[[10, 20]] = 1
        scores = np.zeros(30)
        scores[[12, 22]] = 1.0
        assert metrics.vus_pr(scores, labels, delta_set=(2,)) == 1.0
        # at delta 1 the two top-scored points earn no credit: the curve starts
        # at recall 0 and only the all-predicted point (6 credited of 30) adds area
        assert metrics.vus_pr(scores, labels, delta_set=(1,)) == pytest.approx(0.5 * 6 / 30, abs=1e-15)

    def test_multi_match_clamped(self):
        # two predictions credited by one anomaly: recall clamps at 1, precision stays 1
        scores = np.zeros(10)
        scores[[3, 7]] = 1.0
        labels = np.zeros(10, dtype=np.int64)
        labels[5] = 1
        assert metrics.vus_pr(scores, labels, delta_set=(2,)) == 1.0

    def test_no_anomalies_rejected(self):
        with pytest.raises(BadParams, match="^labels contain no anomaly"):
            metrics.vus_pr(np.zeros(5), np.zeros(5, dtype=np.int64), delta_set=(0,))


class TestSeriesChecks:
    """Scores must be finite and labels 0 or 1, for every curve metric."""

    LABELS = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)

    @pytest.mark.parametrize("metric", [metrics.vus_pr, metrics.vus_roc])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, metric, bad):
        scores = np.array([bad, 1, 0, 0, 1, 0], dtype=np.float64)
        with pytest.raises(BadParams, match="^scores must be finite"):
            metric(scores, self.LABELS)

    @pytest.mark.parametrize("metric", [metrics.vus_pr, metrics.vus_roc])
    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_label_outside_zero_one_rejected(self, metric, bad):
        labels = self.LABELS.astype(np.float64)
        labels[1] = bad
        with pytest.raises(BadParams, match="^labels must be 0 or 1"):
            metric(self.LABELS.astype(np.float64), labels)

    def test_zero_one_labels_of_any_dtype_accepted(self):
        scores = self.LABELS.astype(np.float64)
        for labels in (self.LABELS, self.LABELS.astype(bool), self.LABELS.astype(np.float64), self.LABELS.tolist()):
            assert metrics.vus_pr(scores, labels) == 1.0


class TestVusPr:
    def test_perfect_separation(self):
        scores, labels = perfect_fixture()
        assert metrics.vus_pr(scores, labels) == pytest.approx(1.0)
        assert metrics.vus_pr(scores, labels, delta_set=(0,)) == pytest.approx(1.0)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(17)
        scores = rng.integers(0, 5, size=60).astype(np.float64)  # heavy ties
        labels = (rng.random(60) < 0.2).astype(np.int64)
        labels[7] = 1
        for dset in ((0,), (0, 1, 2), (3,)):
            assert metrics.vus_pr(scores, labels, dset) == pytest.approx(
                brute_force_vus_pr(scores, labels, dset), abs=1e-12
            )

    def test_series_shorter_than_tolerance_window(self):
        # T=2 < 2*delta+1: both points lie within delta of the anomaly
        scores, labels = np.zeros(2), np.array([0, 1])
        assert metrics.vus_pr(scores, labels, (1,)) == brute_force_vus_pr(scores, labels, (1,)) == 1.0

    def test_random_scores_near_anomaly_rate(self):
        rng = np.random.default_rng(11)
        labels = (rng.random(2000) < 0.5).astype(np.int64)
        scores = rng.random(2000)
        rate = labels.mean()
        assert metrics.vus_pr(scores, labels, delta_set=(0,)) == pytest.approx(rate, abs=0.05)

    @given(st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(20, 200))
        scores = rng.random(T)
        labels = (rng.random(T) < 0.1).astype(np.int64)
        labels[int(rng.integers(T))] = 1
        values = [metrics.vus_pr(scores, labels, delta_set=(d,)) for d in range(4)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            T = int(rng.integers(10, 100))
            scores = rng.random(T)
            labels = (rng.random(T) < 0.3).astype(np.int64)
            labels[0] = 1
            v = metrics.vus_pr(scores, labels)
            assert 0.0 <= v <= 1.0


class TestVusRoc:
    def test_perfect_separation(self):
        scores, labels = perfect_fixture()
        assert metrics.vus_roc(scores, labels) == pytest.approx(1.0)

    def test_inverted_scores(self):
        scores, labels = perfect_fixture()
        assert metrics.vus_roc(1.0 - scores, labels, delta_set=(0,)) <= 0.05

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(13)
        labels = (rng.random(2000) < 0.5).astype(np.int64)
        scores = rng.random(2000)
        assert metrics.vus_roc(scores, labels, delta_set=(0,)) == pytest.approx(0.5, abs=0.05)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        scores = rng.integers(0, 4, size=40).astype(np.float64)
        labels = (rng.random(40) < 0.25).astype(np.int64)
        labels[3] = 1
        for dset in ((0,), (0, 2)):
            assert metrics.vus_roc(scores, labels, dset) == pytest.approx(
                brute_force_vus_roc(scores, labels, dset), abs=1e-12
            )

    @given(st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(20, 200))
        scores = rng.random(T)
        labels = (rng.random(T) < 0.1).astype(np.int64)
        labels[int(rng.integers(T))] = 1
        if labels.sum() == labels.size:
            labels[0] = 0
        values = [metrics.vus_roc(scores, labels, delta_set=(d,)) for d in range(4)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_labels(self):
        with pytest.raises(BadParams, match="^need at least one anomaly and one normal point"):
            metrics.vus_roc(np.zeros(5), np.ones(5, dtype=np.int64))
        with pytest.raises(BadParams, match="^need at least one anomaly and one normal point"):
            metrics.vus_roc(np.zeros(5), np.zeros(5, dtype=np.int64))


class TestAffiliation:
    def test_exact_predictions(self):
        labels = np.zeros(40, dtype=np.int64)
        labels[5:8] = 1
        labels[20] = 1
        flags = labels.copy()
        assert metrics.affiliation_f1(flags, metrics.label_intervals(labels), 3.0) == pytest.approx(1.0)

    def test_no_predictions_is_nan(self):
        labels = np.zeros(40, dtype=np.int64)
        labels[5] = 1
        value = metrics.affiliation_f1(np.zeros(40, dtype=np.int64), metrics.label_intervals(labels), 3.0)
        assert np.isnan(value)

    def test_kernel_closed_form(self):
        sigma = 4.0
        labels = np.zeros(60, dtype=np.int64)
        labels[10] = 1
        flags = np.zeros(60, dtype=np.int64)
        flags[10 + int(sigma)] = 1
        value = metrics.affiliation_f1(flags, metrics.label_intervals(labels), sigma)
        assert value == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_inside_interval_distance_zero(self):
        labels = np.zeros(30, dtype=np.int64)
        labels[10:20] = 1
        flags = np.zeros(30, dtype=np.int64)
        flags[14] = 1  # single prediction strictly inside the interval
        intervals = metrics.label_intervals(labels)
        value = metrics.affiliation_f1(flags, intervals, 2.0)
        # precision is exactly 1; recall averages kernels centered on t=14
        d = np.abs(np.arange(10, 20) - 14)
        recall = np.exp(-(d**2) / 8.0).mean()
        assert value == pytest.approx(2 * recall / (1 + recall), rel=1e-12)

    def test_bounds_random(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            labels = (rng.random(50) < 0.2).astype(np.int64)
            flags = (rng.random(50) < 0.2).astype(np.int64)
            value = metrics.affiliation_f1(flags, metrics.label_intervals(labels), 2.5)
            if not np.isnan(value):
                assert 0.0 <= value <= 1.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(BadParams):
            metrics.affiliation_f1(np.ones(3, dtype=np.int64), [(0, 0)], 0.0)

    # 1e-320 squared underflows, so 2 sigma^2 is 0; 1e160 squared overflows to inf
    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, -np.inf, 1e-320, 1e160])
    def test_sigma_must_give_a_positive_finite_kernel_width(self, sigma):
        with pytest.raises(BadParams):
            metrics.affiliation_f1(np.ones(3, dtype=np.int64), [(0, 0)], sigma)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_broadcast_oracle_bitwise(self, data):
        T = data.draw(st.integers(1, 80))
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=T, max_size=T)), dtype=np.int64)
        flags = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=T, max_size=T)), dtype=np.int64)
        sigma = data.draw(st.sampled_from([0.5, 1.0, 2.5, 40.0]))
        intervals = metrics.label_intervals(labels)
        got = metrics.affiliation_f1(flags, intervals, sigma)
        want = broadcast_affiliation_f1(flags, intervals, sigma)
        assert np.array_equal(got, want, equal_nan=True) and np.signbit(got) == np.signbit(want)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_interval_distance_of_unsorted_overlapping_intervals(self, data):
        bounds = data.draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 30)), min_size=1, max_size=12))
        intervals = np.array([(s, s + n) for s, n in bounds], dtype=np.float64)
        points = np.array(data.draw(st.lists(st.integers(-100, 100), max_size=30)), dtype=np.float64)
        got = metrics._dist_to_intervals(points, intervals)
        assert np.array_equal(got, broadcast_dist_to_intervals(points, intervals))

    def test_memory_is_linear_in_labels_and_flags(self):
        # 10% labels and 10% flags on T steps; the tables the broadcast
        # distances build would take 8 * A * P bytes, 32 MB here
        T = 20_000
        rng = np.random.default_rng(41)
        labels = (rng.random(T) < 0.1).astype(np.int64)
        flags = (rng.random(T) < 0.1).astype(np.int64)
        intervals = metrics.label_intervals(labels)
        A, P, I = int(labels.sum()), int(flags.sum()), len(intervals)
        tracemalloc.start()
        try:
            metrics.affiliation_f1(flags, intervals, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at most the int64 copy and mask of the flags (9 bytes a step), and
        # eight float64 or int64 arrays each of the flags, the anomalies and
        # the interval bounds alive at once, plus the per-interval ranges
        bound = 9 * T + 8 * 8 * (P + A + 2 * I) + 200 * I
        assert peak <= bound, (peak, bound)
        assert bound < 8 * A * P / 4


class TestLabelIntervals:
    def test_runs(self):
        labels = np.array([1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=np.int64)
        assert metrics.label_intervals(labels) == [(0, 1), (4, 4), (6, 8)]

    def test_empty(self):
        assert metrics.label_intervals(np.zeros(4, dtype=np.int64)) == []


class TestEvaluate:
    def test_per_delta_rows_average_to_vus(self):
        rng = np.random.default_rng(31)
        scores = rng.random(200)
        labels = (rng.random(200) < 0.1).astype(np.int64)
        labels[9] = 1
        flags = (scores > 0.9).astype(np.int64)
        result = metrics.evaluate(scores, flags, labels, delta_set=(0, 1, 2), sigma=2.0)
        assert result.vus_pr == pytest.approx(np.mean([r.auc_pr for r in result.per_delta]))
        assert result.vus_roc == pytest.approx(np.mean([r.auc_roc for r in result.per_delta]))
        assert len(result.per_delta) == 3

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_shared_sweep_matches_single_delta_and_brute_force(self, data):
        n = data.draw(st.integers(2, 40))
        # scores on a coarse grid, so thresholds tie often
        scores = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))) / 4.0
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        assume(0 < labels.sum() < n)
        # small deltas, plus two far beyond the series that the mask clamps to T
        deltas = st.integers(0, 6) | st.sampled_from([10**10, 2**62])
        delta_set = tuple(data.draw(st.lists(deltas, min_size=1, max_size=5)))
        result = metrics.evaluate(scores, labels, labels, delta_set=delta_set, sigma=1.0)
        assert [r.delta for r in result.per_delta] == list(delta_set)
        for row in result.per_delta:
            single = (row.delta,)
            assert row.auc_pr == metrics.vus_pr(scores, labels, single)
            assert row.auc_roc == metrics.vus_roc(scores, labels, single)
            assert abs(row.auc_pr - brute_force_vus_pr(scores, labels, single)) <= 1e-12
            assert abs(row.auc_roc - brute_force_vus_roc(scores, labels, single)) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, 1e-320, 1e160])
    def test_bad_sigma_rejected_before_the_sweep(self, monkeypatch, sigma):
        def not_reached(*args, **kwargs):
            raise AssertionError("the threshold sweep ran before sigma was checked")

        monkeypatch.setattr(metrics, "_delta_areas", not_reached)
        labels = np.array([0, 1, 0, 0], dtype=np.int64)
        with pytest.raises(BadParams, match="sigma"):
            metrics.evaluate(np.linspace(0.0, 1.0, 4), labels, labels, sigma=sigma)

    @pytest.mark.parametrize("flag", [2, -1, 0.5, np.nan])
    def test_flag_outside_zero_one_rejected(self, flag):
        labels = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)
        flags = np.array([0, 1, 0, 0, flag, 0])
        with pytest.raises(BadParams, match="^flags must be 0 or 1"):
            metrics.evaluate(np.linspace(0.0, 1.0, 6), flags, labels, sigma=1.0)
        with pytest.raises(BadParams, match="^flags must be 0 or 1"):
            metrics.affiliation_f1(flags, metrics.label_intervals(labels), 1.0)

    def test_flags_of_another_length_rejected(self):
        labels = np.array([0, 1, 0, 0, 1, 0], dtype=np.int64)
        with pytest.raises(BadParams, match="^flags and labels must be the same length"):
            metrics.evaluate(np.linspace(0.0, 1.0, 6), labels[:5], labels, sigma=1.0)

    def test_label_outside_zero_one_rejected(self):
        labels = np.array([0, 2, 0, 0, 1, 0])
        with pytest.raises(BadParams, match="^labels must be 0 or 1"):
            metrics.evaluate(np.linspace(0.0, 1.0, 6), np.zeros(6), labels, sigma=1.0)

    def test_no_anomalies_reported_before_degenerate_labels(self):
        scores = np.linspace(0.0, 1.0, 6)
        with pytest.raises(BadParams, match="^labels contain no anomaly"):
            metrics.evaluate(scores, np.zeros(6), np.zeros(6, dtype=np.int64), sigma=1.0)
        with pytest.raises(BadParams, match="^need at least one anomaly and one normal point"):
            metrics.evaluate(scores, np.ones(6), np.ones(6, dtype=np.int64), sigma=1.0)

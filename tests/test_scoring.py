import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import neural, scoring, trainer, tsdata
from gboc.errors import BadParams, ModelMismatch
from oracles import brute_force_windows_to_points


def make_model(seed=0, window=3, d=1, hidden=4, layers=1, centers=None) -> trainer.GbocModel:
    rng = np.random.default_rng(seed)
    enc = neural.init_encoder(d, hidden, layers, rng)
    if centers is None:
        centers = rng.normal(size=(3, layers * hidden))
    centers = np.asarray(centers, dtype=np.float64)
    return trainer.GbocModel(
        encoder=enc,
        norm=tsdata.NormStats(mean=np.zeros(d), std=np.ones(d)),
        centers=centers,
        radii=np.zeros(centers.shape[0]),
        config=trainer.TrainConfig(window=window, layers=layers, hidden=hidden),
    )


class TestScoreWindows:
    def test_zero_when_latent_is_a_center(self):
        rng = np.random.default_rng(1)
        model = make_model(seed=1)
        ts = tsdata.TimeSeries(values=rng.normal(size=(6, 1)))
        ws = tsdata.make_windows(ts, 3, 1)
        z0 = neural.encode_batch(model.encoder, ws.as_sequences()[0][None])[0]
        model.centers[0] = z0
        scores = scoring.score_windows(model, ws)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_center_at_origin_gives_norm(self):
        model = make_model(seed=2, centers=np.zeros((1, 4)))
        rng = np.random.default_rng(3)
        ts = tsdata.TimeSeries(values=rng.normal(size=(8, 1)))
        ws = tsdata.make_windows(ts, 3, 1)
        scores = scoring.score_windows(model, ws)
        Z = neural.encode_batch(model.encoder, ws.as_sequences())
        assert np.allclose(scores, np.linalg.norm(Z, axis=1), atol=1e-12)

    def test_matches_exhaustive_scan(self):
        model = make_model(seed=4)
        rng = np.random.default_rng(5)
        ts = tsdata.TimeSeries(values=rng.normal(size=(40, 1)))
        ws = tsdata.make_windows(ts, 3, 1)
        scores = scoring.score_windows(model, ws)
        Z = neural.encode_batch(model.encoder, ws.as_sequences())
        for i, z in enumerate(Z):
            best = min(float(np.linalg.norm(z - c)) for c in model.centers)
            assert scores[i] == pytest.approx(best, abs=1e-12)

    def test_adding_center_never_increases_scores(self):
        model = make_model(seed=6)
        rng = np.random.default_rng(7)
        ts = tsdata.TimeSeries(values=rng.normal(size=(30, 1)))
        ws = tsdata.make_windows(ts, 3, 1)
        before = scoring.score_windows(model, ws)
        model.centers = np.vstack([model.centers, rng.normal(size=4)])
        model.radii = np.zeros(model.centers.shape[0])
        after = scoring.score_windows(model, ws)
        assert np.all(after <= before + 1e-15)

    def test_model_mismatch(self):
        model = make_model(seed=8)
        ts = tsdata.TimeSeries(values=np.zeros((10, 1)))
        ws = tsdata.make_windows(ts, 5, 1)
        with pytest.raises(ModelMismatch):
            scoring.score_windows(model, ws)


class TestWindowsToPoints:
    def test_disjoint_windows_inherit(self):
        out = scoring.windows_to_points(np.array([2.0, 7.0]), np.array([0, 3]), 3, 6)
        assert out.tolist() == [2.0, 2.0, 2.0, 7.0, 7.0, 7.0]

    def test_constant_scores(self):
        out = scoring.windows_to_points(np.full(4, 3.5), np.arange(4), 3, 6)
        assert np.allclose(out, 3.5)

    def test_hand_case(self):
        out = scoring.windows_to_points(np.array([0.0, 3.0, 6.0, 9.0]), np.arange(4), 3, 6)
        assert np.allclose(out, [0.0, 1.5, 3.0, 6.0, 7.5, 9.0])

    def test_uncovered_tail_inherits_nearest(self):
        # starts {0, 3} with w=3 cover t=0..5; t=6 inherits t=5
        out = scoring.windows_to_points(np.array([1.0, 5.0]), np.array([0, 3]), 3, 7)
        assert out[6] == out[5] == 5.0

    def test_gap_equidistant_from_two_windows_takes_the_earlier(self):
        out = scoring.windows_to_points(np.array([1.0, 5.0]), np.array([0, 4]), 1, 5)
        assert out.tolist() == [1.0, 1.0, 1.0, 5.0, 5.0]

    @pytest.mark.parametrize(
        "starts, w, T",
        [([1, 0], 2, 5), ([0, 0], 2, 5), ([-1, 2], 2, 5), ([0, 4], 2, 5), ([], 2, 5), ([0, 2], 0, 5)],
    )
    def test_bad_layout_rejected(self, starts, w, T):
        with pytest.raises(BadParams):
            scoring.windows_to_points(np.ones(len(starts)), np.array(starts, dtype=np.int64), w, T)

    @given(st.data(), st.integers(1, 12), st.integers(1, 15), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_per_timestep_oracle(self, data, w, stride, extra):
        T = w + extra
        starts = np.arange((T - w) // stride + 1, dtype=np.int64) * stride
        finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
        scores = np.array(data.draw(st.lists(finite, min_size=starts.size, max_size=starts.size)), dtype=np.float64)
        out = scoring.windows_to_points(scores, starts, w, T)
        assert out.tobytes() == brute_force_windows_to_points(scores, starts, w, T).tobytes()


class TestThreshold:
    def test_constant_scores_flag_nothing(self):
        threshold, flags = scoring.threshold_3sigma(np.full(10, 2.0))
        assert threshold == 2.0
        assert flags.sum() == 0

    def test_hand_case_one_outlier(self):
        s = np.zeros(100)
        s[42] = 100.0
        threshold, flags = scoring.threshold_3sigma(s)
        assert threshold == pytest.approx(1.0 + 3.0 * np.sqrt(99.0), rel=1e-12)
        assert flags.sum() == 1 and flags[42] == 1

    def test_small_sample_blind_spot(self):
        threshold, flags = scoring.threshold_3sigma(np.array([0.0, 0.0, 0.0, 0.0, 100.0]))
        assert threshold == pytest.approx(140.0)
        assert flags.sum() == 0

    def test_empty_rejected(self):
        with pytest.raises(BadParams):
            scoring.threshold_3sigma(np.array([]))


class TestDetect:
    def test_flags_recomputable_and_deterministic(self):
        model = make_model(seed=10)
        rng = np.random.default_rng(11)
        ts = tsdata.TimeSeries(values=rng.normal(size=(60, 1)))
        rep1 = scoring.detect(model, ts)
        rep2 = scoring.detect(model, ts)
        assert np.array_equal(rep1.point_scores, rep2.point_scores)
        assert np.array_equal(rep1.flags, rep2.flags)
        assert np.array_equal(rep1.flags, (rep1.point_scores > rep1.threshold).astype(np.int64))
        assert np.all(rep1.point_scores >= 0)

    def test_external_threshold_scores(self):
        model = make_model(seed=12)
        rng = np.random.default_rng(13)
        ts = tsdata.TimeSeries(values=rng.normal(size=(50, 1)))
        val_scores = np.full(50, 1e6)
        rep = scoring.detect(model, ts, threshold_scores=val_scores)
        assert rep.threshold == pytest.approx(1e6)
        assert rep.flags.sum() == 0

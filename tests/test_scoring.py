import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import granular, neural, scoring, trainer, tsdata
from gboc.errors import BadParams, ModelMismatch
from oracles import brute_force_windows_to_points
from test_neural import TWO_THREADS

BLOCK = neural.ENCODE_BLOCK
LAYERS = ("cli", "tsdata", "neural", "granular", "trainer", "scoring", "metrics", "model_io")


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
        windows = tsdata.make_windows(rng.normal(size=(6, 1)), 3, 1)
        z0 = neural.encode_batch(model.encoder, windows[0][None])[0]
        model.centers[0] = z0
        scores = scoring.score_windows(model, windows)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_center_at_origin_gives_norm(self):
        model = make_model(seed=2, centers=np.zeros((1, 4)))
        rng = np.random.default_rng(3)
        windows = tsdata.make_windows(rng.normal(size=(8, 1)), 3, 1)
        scores = scoring.score_windows(model, windows)
        Z = neural.encode_batch(model.encoder, windows)
        assert np.allclose(scores, np.linalg.norm(Z, axis=1), atol=1e-12)

    def test_matches_exhaustive_scan(self):
        model = make_model(seed=4)
        rng = np.random.default_rng(5)
        windows = tsdata.make_windows(rng.normal(size=(40, 1)), 3, 1)
        scores = scoring.score_windows(model, windows)
        Z = neural.encode_batch(model.encoder, windows)
        for i, z in enumerate(Z):
            best = min(float(np.linalg.norm(z - c)) for c in model.centers)
            assert scores[i] == pytest.approx(best, abs=1e-12)

    def test_adding_center_never_increases_scores(self):
        model = make_model(seed=6)
        rng = np.random.default_rng(7)
        windows = tsdata.make_windows(rng.normal(size=(30, 1)), 3, 1)
        before = scoring.score_windows(model, windows)
        model.centers = np.vstack([model.centers, rng.normal(size=4)])
        model.radii = np.zeros(model.centers.shape[0])
        after = scoring.score_windows(model, windows)
        assert np.all(after <= before + 1e-15)

    @pytest.mark.parametrize(
        "n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 300, 3 * BLOCK + 1, 4 * BLOCK, 4 * BLOCK + 1, 9 * BLOCK - 1]
    )
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bitwise_equal_to_one_search_over_every_latent(self, n, layers):
        rng = np.random.default_rng(n + layers)
        windows = tsdata.make_windows(rng.normal(size=(n + 1, 1)), 2, 1)
        model = make_model(seed=n, window=2, hidden=32, layers=layers)
        Z = neural.encode_batch(model.encoder, windows)
        # centers near latents, so that many rows have close runners-up
        model.centers = Z[rng.integers(0, n, size=160)] + rng.normal(scale=1e-3, size=(160, Z.shape[1]))
        model.radii = np.zeros(160)
        expected = granular.nearest_centers(model.centers, Z)[1]
        assert scoring.score_windows(model, windows).tobytes() == expected.tobytes()

    def test_memory_stays_below_the_latent_array(self):
        n, layers, hidden = 20000, 2, 32
        rng = np.random.default_rng(21)
        windows = tsdata.make_windows(rng.normal(size=(n + 1, 1)), 2, 1)
        model = make_model(seed=21, window=2, hidden=hidden, layers=layers,
                           centers=rng.normal(scale=0.1, size=(160, layers * hidden)))
        tracemalloc.start()
        try:
            scoring.score_windows(model, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every latent at once would take n * L * h float64s
        assert peak < n * layers * hidden * 8

    def test_model_mismatch(self):
        model = make_model(seed=8)
        windows = tsdata.make_windows(np.zeros((10, 1)), 5, 1)
        with pytest.raises(ModelMismatch):
            scoring.score_windows(model, windows)


class TestWindowsToPoints:
    def test_disjoint_windows_inherit(self):
        out = scoring.windows_to_points(np.array([2.0, 7.0]), 3, 3, 6)
        assert out.tolist() == [2.0, 2.0, 2.0, 7.0, 7.0, 7.0]

    def test_constant_scores(self):
        out = scoring.windows_to_points(np.full(4, 3.5), 1, 3, 6)
        assert np.allclose(out, 3.5)

    def test_hand_case(self):
        out = scoring.windows_to_points(np.array([0.0, 3.0, 6.0, 9.0]), 1, 3, 6)
        assert np.allclose(out, [0.0, 1.5, 3.0, 6.0, 7.5, 9.0])

    def test_uncovered_tail_inherits_nearest(self):
        # starts {0, 3} with w=3 cover t=0..5; t=6 inherits t=5
        out = scoring.windows_to_points(np.array([1.0, 5.0]), 3, 3, 7)
        assert out[6] == out[5] == 5.0

    def test_gap_equidistant_from_two_windows_takes_the_earlier(self):
        out = scoring.windows_to_points(np.array([1.0, 5.0]), 4, 1, 5)
        assert out.tolist() == [1.0, 1.0, 1.0, 5.0, 5.0]

    @pytest.mark.parametrize(
        "n, stride, w, T",
        [(0, 1, 2, 5), (2, 0, 2, 5), (2, -1, 2, 5), (2, 2, 0, 5), (2, 4, 2, 5)],
        ids=["no_windows", "stride_0", "stride_-1", "w_0", "past_T"],
    )
    def test_bad_layout_rejected(self, n, stride, w, T):
        with pytest.raises(BadParams):
            scoring.windows_to_points(np.ones(n), stride, w, T)

    @given(st.data(), st.integers(1, 12), st.integers(1, 15), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_per_timestep_oracle(self, data, w, stride, extra):
        T = w + extra
        starts = np.arange((T - w) // stride + 1, dtype=np.int64) * stride
        finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
        scores = np.array(data.draw(st.lists(finite, min_size=starts.size, max_size=starts.size)), dtype=np.float64)
        out = scoring.windows_to_points(scores, stride, w, T)
        assert out.tobytes() == brute_force_windows_to_points(scores, starts, w, T).tobytes()


class TestThreshold:
    def test_constant_scores_flag_nothing(self):
        s = np.full(10, 2.0)
        threshold = scoring.threshold_3sigma(s)
        assert type(threshold) is float and threshold == 2.0
        assert np.count_nonzero(s > threshold) == 0

    def test_hand_case_one_outlier(self):
        s = np.zeros(100)
        s[42] = 100.0
        threshold = scoring.threshold_3sigma(s)
        assert threshold == pytest.approx(1.0 + 3.0 * np.sqrt(99.0), rel=1e-12)
        assert np.flatnonzero(s > threshold).tolist() == [42]

    def test_small_sample_blind_spot(self):
        s = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        threshold = scoring.threshold_3sigma(s)
        assert threshold == pytest.approx(140.0)
        assert np.count_nonzero(s > threshold) == 0

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

    def test_series_with_other_channel_count_is_a_model_mismatch(self):
        ts = tsdata.TimeSeries(values=np.zeros((20, 2)))
        with pytest.raises(ModelMismatch, match="normalizer is for d=1 channels, series has d=2"):
            scoring.detect(make_model(d=1), ts)

    def test_external_threshold_scores(self):
        model = make_model(seed=12)
        rng = np.random.default_rng(13)
        ts = tsdata.TimeSeries(values=rng.normal(size=(50, 1)))
        val_scores = np.full(50, 1e6)
        rep = scoring.detect(model, ts, threshold_scores=val_scores)
        assert rep.threshold == pytest.approx(1e6)
        assert rep.flags.sum() == 0

    @pytest.mark.skipif(not TWO_THREADS, reason="needs a BLAS thread setter and two usable CPUs")
    def test_two_thread_detect_calls_public_functions_from_the_calling_thread_only(self, monkeypatch):
        # a span tracer keeps one stack per process, so the encoder's worker
        # thread may call only private functions
        model = make_model(seed=14)
        ts = tsdata.TimeSeries(values=np.random.default_rng(15).normal(size=(5 * BLOCK + 77 + 2, 1)))
        want = scoring.detect(model, ts)
        calls, encoder_threads = [], set()

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gboc.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = recorded(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "gboc" or name.startswith("gboc."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        monkeypatch.setattr(module, attr, wrappers[id(obj)])
        forward = neural._forward_encoder

        def forward_on_a_thread(*args):
            encoder_threads.add(threading.get_ident())
            return forward(*args)

        monkeypatch.setattr(neural, "_forward_encoder", forward_on_a_thread)
        got = scoring.detect(model, ts)
        assert len(encoder_threads) == 2  # the series took the two-thread path
        assert "scoring.detect" in [name for name, _ in calls]
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert got.point_scores.tobytes() == want.point_scores.tobytes()
        assert got.flags.tobytes() == want.flags.tobytes() and got.threshold == want.threshold

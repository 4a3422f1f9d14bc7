import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gboc import tsdata
from gboc.errors import (
    BadParams,
    DegenerateSeries,
    MissingFile,
    NonBinaryLabel,
    ParseError,
    WindowTooLong,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_echo(self, tmp_path):
        p = write(tmp_path / "a.csv", "v,label\n0.1,0\n0.2,0\n5.0,1\n")
        ts = tsdata.load_csv(p, label_column="label")
        assert ts.T == 3 and ts.d == 1
        assert ts.labels.tolist() == [0, 0, 1]
        assert np.allclose(ts.values[:, 0], [0.1, 0.2, 5.0])

    def test_header_only_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "v,label\n")
        with pytest.raises(ParseError):
            tsdata.load_csv(p, label_column="label")

    def test_nonbinary_label(self, tmp_path):
        p = write(tmp_path / "a.csv", "v,label\n0.1,2\n")
        with pytest.raises(NonBinaryLabel) as exc:
            tsdata.load_csv(p, label_column="label")
        assert exc.value.row == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            tsdata.load_csv(tmp_path / "nope.csv")

    def test_bad_number(self, tmp_path):
        p = write(tmp_path / "a.csv", "v\n1.0\nx\n")
        with pytest.raises(ParseError) as exc:
            tsdata.load_csv(p)
        assert exc.value.row == 2 and exc.value.col == "v"

    def test_missing_label_column(self, tmp_path):
        p = write(tmp_path / "a.csv", "v\n1.0\n")
        with pytest.raises(ParseError):
            tsdata.load_csv(p, label_column="label")

    def test_round_trip(self, tmp_path):
        ts = tsdata.TimeSeries(
            values=np.array([[1.0, -0.25], [2.5, 1e-17], [3.0, 9.9]]),
            labels=np.array([0, 1, 0]),
            channel_names=["a", "b"],
        )
        p = tmp_path / "rt.csv"
        tsdata.save_csv(ts, p)
        back = tsdata.load_csv(p, label_column="label")
        assert np.array_equal(back.values, ts.values)
        assert np.array_equal(back.labels, ts.labels)

    @given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20))
    @example([(-0.0, 5e-324), (-5e-324, 2.2250738585072009e-308), (1.7976931348623157e308, -1.7976931348623157e308)])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_csv_round_trips_every_finite_float_bit_exactly(self, tmp_path, rows):
        p = tmp_path / "rt.csv"
        tsdata.write_csv(p, ["a", "b"], rows)
        back = tsdata.load_csv(p)
        assert back.values.tobytes() == np.array(rows, dtype=np.float64).tobytes()


class TestNormalizer:
    def test_symmetric_pair(self):
        ts = tsdata.TimeSeries(values=np.array([[1.0], [3.0]]))
        stats = tsdata.fit_normalizer(ts)
        out = tsdata.apply_normalizer(ts, stats)
        assert stats.mean[0] == 2.0
        assert out.values[0, 0] == pytest.approx(-out.values[1, 0])

    def test_constant_channel_clamped(self):
        ts = tsdata.TimeSeries(values=np.array([[5.0], [5.0], [5.0]]))
        stats = tsdata.fit_normalizer(ts)
        assert stats.std[0] == tsdata.EPS_STD
        out = tsdata.apply_normalizer(ts, stats)
        assert np.all(np.isfinite(out.values))

    def test_sample_std_hand_case(self):
        # sample (n-1) std of [0, 10, 20] is 10, so normalized is [-1, 0, 1]
        ts = tsdata.TimeSeries(values=np.array([[0.0], [10.0], [20.0]]))
        stats = tsdata.fit_normalizer(ts)
        assert stats.mean[0] == 10.0 and stats.std[0] == pytest.approx(10.0)
        out = tsdata.apply_normalizer(ts, stats)
        assert np.allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_degenerate_series(self):
        ts = tsdata.TimeSeries(values=np.array([[1.0]]))
        with pytest.raises(DegenerateSeries):
            tsdata.fit_normalizer(ts)

    @given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotence_on_stats(self, T, d, seed):
        rng = np.random.default_rng(seed)
        ts = tsdata.TimeSeries(values=rng.normal(3.0, 2.0, size=(T, d)))
        normed = tsdata.apply_normalizer(ts, tsdata.fit_normalizer(ts))
        stats2 = tsdata.fit_normalizer(normed)
        keep = tsdata.fit_normalizer(ts).std > tsdata.EPS_STD
        assert np.all(np.abs(stats2.mean[keep]) < 1e-9)
        assert np.all(np.abs(stats2.std[keep] - 1.0) < 1e-6)


class TestMakeWindows:
    def test_count_stride_one(self):
        ts = tsdata.TimeSeries(values=np.arange(10.0).reshape(-1, 1))
        ws = tsdata.make_windows(ts, 5, 1)
        assert ws.n_windows == 6
        assert ws.starts.tolist() == [0, 1, 2, 3, 4, 5]

    def test_boundary_single_window(self):
        ts = tsdata.TimeSeries(values=np.arange(5.0).reshape(-1, 1))
        assert tsdata.make_windows(ts, 5, 1).n_windows == 1

    def test_stride_three_hand_case(self):
        ts = tsdata.TimeSeries(values=np.arange(10.0).reshape(-1, 1))
        ws = tsdata.make_windows(ts, 4, 3)
        assert ws.n_windows == 3
        assert ws.starts.tolist() == [0, 3, 6]
        assert np.array_equal(ws.windows[1], np.arange(3.0, 7.0))

    def test_window_too_long(self):
        ts = tsdata.TimeSeries(values=np.arange(4.0).reshape(-1, 1))
        with pytest.raises(WindowTooLong):
            tsdata.make_windows(ts, 5, 1)

    def test_flattening_is_timestep_major(self):
        ts = tsdata.TimeSeries(values=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        ws = tsdata.make_windows(ts, 2, 1)
        assert ws.windows[0].tolist() == [1.0, 10.0, 2.0, 20.0]

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tiling_reconstructs_prefix(self, w, d, seed):
        rng = np.random.default_rng(seed)
        T = w * rng.integers(1, 5) + int(rng.integers(0, w))
        ts = tsdata.TimeSeries(values=rng.normal(size=(T, d)))
        ws = tsdata.make_windows(ts, w, stride=w)
        tiled = ws.windows.reshape(-1, d)
        assert np.array_equal(tiled, ts.values[: ws.n_windows * w])


    @given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 3), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_window_copies(self, w, stride, d, extra, seed):
        ts = tsdata.TimeSeries(values=np.random.default_rng(seed).normal(size=(w + extra, d)))
        ws = tsdata.make_windows(ts, w, stride)
        want = np.array([ts.values[s : s + w].reshape(-1) for s in ws.starts])
        assert ws.windows.tobytes() == want.tobytes()
        assert ws.windows.flags.owndata and ws.windows.flags.c_contiguous
        ws.windows[:] = 0.0
        assert np.array_equal(ts.values.reshape(-1)[: want.shape[1]], want[0])


class TestSynthScenario:
    def test_deterministic(self):
        a = tsdata.synth_scenario("clean", 300, 7)
        b = tsdata.synth_scenario("clean", 300, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)
            assert np.array_equal(x.labels, y.labels)

    def test_zero_noise_is_clean(self):
        params = tsdata.SynthParams(noise_std=0.0)
        _, clean = tsdata.synth_scenario("clean", 300, 9, params)
        _, noisy = tsdata.synth_scenario("noise", 300, 9, params)
        assert np.array_equal(clean.values, noisy.values)

    def test_drift_closed_form(self):
        params = tsdata.SynthParams(drift_slope=0.01)
        T = 1000
        _, clean = tsdata.synth_scenario("clean", T, 3, params)
        _, drift = tsdata.synth_scenario("drift", T, 3, params)
        diff = drift.values - clean.values
        assert np.allclose(diff[-1], 0.01 * (T - 1))
        assert np.allclose(diff[0], 0.0)

    def test_label_soundness_point_anomalies(self):
        params = tsdata.SynthParams(n_spikes=12, n_shifts=0)
        _, test = tsdata.synth_scenario("clean", 500, 11, params)
        assert int(test.labels.sum()) == 12

    def test_injected_ranges_labeled(self):
        params = tsdata.SynthParams(n_spikes=0, n_shifts=2, shift_len=15)
        clean_params = tsdata.SynthParams(n_spikes=0, n_shifts=0)
        _, test = tsdata.synth_scenario("clean", 600, 5, params)
        assert int(test.labels.sum()) == 2 * 15
        # labels sit exactly where the series deviates from the uninjected signal
        _, base = tsdata.synth_scenario("clean", 600, 5, clean_params)
        touched = np.where(np.any(test.values != base.values, axis=1))[0]
        assert set(touched.tolist()) == set(np.where(test.labels == 1)[0].tolist())

    def test_train_split_is_anomaly_free(self):
        train, _ = tsdata.synth_scenario("drift_noise", 400, 13)
        assert int(train.labels.sum()) == 0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            tsdata.SynthParams(spike_mag=0.0)
        with pytest.raises(BadParams):
            tsdata.SynthParams(shift_mag=-1.0)
        with pytest.raises(BadParams):
            tsdata.synth_scenario("clean", 100, 1)
        with pytest.raises(BadParams):
            tsdata.synth_scenario("mystery", 400, 1)

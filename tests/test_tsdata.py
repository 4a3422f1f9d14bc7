import csv
import math

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
from oracles import csv_writer_write, row_walk_load_csv

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# spellings float() accepts or rejects that a plain decimal grid would never draw
ODD_CELLS = [
    "\u0663", "1_000.5", " \t7\n", "-iNF", "1e400", "-1e400", "nan", " NaN ", "infinity", "+.5", "5.", "\xa01",
    "1\u2003", "\uff11\uff12", "0x10", "1,0", "1__0", "_1", "1e", "1d5", "", " ", "abc", "-0", "1e0", "\u0661",
]
CELL = st.one_of(
    FINITE.map(repr),
    FINITE.map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(ODD_CELLS),
    st.text(alphabet="0123456789.eE+-_ nai", max_size=6),
)
LABEL_CELL = st.one_of(st.sampled_from(["0", "1", " 1 ", "1.0", "-0", "1e0", "0.0"]), CELL)


def assert_loads_like_row_walk(path, records, label):
    """load_csv gives the row-walk reference's series, or its exception type,
    message, row and column."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(records)

    def outcome(load):
        try:
            ts = load(path, label_column=label)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
        labels = None if ts.labels is None else ts.labels.tolist()
        return ts.values.tobytes(), ts.values.shape, labels, ts.channel_names

    assert outcome(tsdata.load_csv) == outcome(row_walk_load_csv)


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
        values = np.array(rows, dtype=np.float64)
        tsdata.write_csv(p, ["a", "b"], values.T)
        back = tsdata.load_csv(p)
        assert back.values.tobytes() == values.tobytes()

    @given(
        st.lists(
            st.tuples(st.floats(), st.integers(-(2**63), 2**63 - 1), st.floats(width=32)), min_size=0, max_size=20
        )
    )
    @example([(-0.0, 0, 5e-324), (-5e-324, -1, 1.7976931348623157e308), (-1.7976931348623157e308, 7, math.nan)])
    @example([(math.inf, 2**63 - 1, -math.inf), (math.nan, -(2**63), 0.0)])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_csv_bytes_equal_csv_writer_with_17_digit_floats(self, tmp_path, rows):
        header = ["x", "n", "quoted, name"]
        floats = np.array([r[0] for r in rows], dtype=np.float64)
        ints = np.array([r[1] for r in rows], dtype=np.int64)
        more = np.array([r[2] for r in rows], dtype=np.float64)
        tsdata.write_csv(tmp_path / "got.csv", header, [floats, ints, more])
        csv_writer_write(tmp_path / "want.csv", header, zip(floats.tolist(), ints.tolist(), more.tolist()))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @given(
        n_cols=st.integers(1, 3),
        label=st.sampled_from([None, "label", "b"]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_csv_equals_row_walk_reference(self, tmp_path, n_cols, label, data):
        header = ["a", "b", "c"][:n_cols] + ([label] if label == "label" else [])
        full_row = st.tuples(*[LABEL_CELL if name == "label" else CELL for name in header]).map(list)
        any_row = st.lists(CELL, max_size=len(header) + 1)
        grid = data.draw(st.lists(st.one_of(full_row, full_row, full_row, full_row, any_row), max_size=8))
        assert_loads_like_row_walk(tmp_path / "grid.csv", [header, *grid], label)

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_spellings_load_like_row_walk(self, tmp_path, cell):
        assert_loads_like_row_walk(tmp_path / "odd.csv", [["a", "label"], ["1", "0"], [cell, cell]], "label")


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(BadParams, match="seed"):
            tsdata.synth_scenario("clean", 300, seed)

    def test_shift_longer_than_its_room_rejected(self):
        with pytest.raises(BadParams, match="does not fit"):
            tsdata.synth_scenario("drift_noise", 300, 1, tsdata.SynthParams(shift_len=1000))
        # T=300 leaves one start for a 99-step shift between its margins, and none for 100 steps
        _, test = tsdata.synth_scenario("clean", 300, 1, tsdata.SynthParams(shift_len=99, n_shifts=1, n_spikes=0))
        assert test.labels[100:199].all()
        with pytest.raises(BadParams, match="does not fit"):
            tsdata.synth_scenario("clean", 300, 1, tsdata.SynthParams(shift_len=100, n_shifts=1))
        # no shifts asked for: nothing to place, so any length is fine
        tsdata.synth_scenario("clean", 300, 1, tsdata.SynthParams(shift_len=1000, n_shifts=0, n_spikes=0))

    @pytest.mark.parametrize("field", ["spike_mag", "shift_mag", "drift_slope", "noise_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knob_named(self, field, value):
        with pytest.raises(BadParams, match=f"{field} must be finite"):
            tsdata.SynthParams(**{field: value})

    def test_bad_params(self):
        with pytest.raises(BadParams):
            tsdata.SynthParams(spike_mag=0.0)
        with pytest.raises(BadParams):
            tsdata.SynthParams(shift_mag=-1.0)
        with pytest.raises(BadParams):
            tsdata.synth_scenario("clean", 100, 1)
        with pytest.raises(BadParams):
            tsdata.synth_scenario("mystery", 400, 1)

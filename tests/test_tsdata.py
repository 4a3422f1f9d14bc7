import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gboc import tsdata
from gboc.errors import BadParams, MissingFile, ModelMismatch, ParseError
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


def assert_writes_load_like_row_walk(path, records, label):
    """Records written by csv.writer load as assert_loads_like_row_walk says."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(records)
    assert_loads_like_row_walk(path, label)


def assert_loads_like_row_walk(path, label):
    """load_csv gives the row-walk reference's series, or its exception type,
    message, row and column."""

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
        with pytest.raises(ParseError, match="^row 1, column 'label': label '2' is not 0/1") as exc:
            tsdata.load_csv(p, label_column="label")
        assert exc.value.row == 1 and exc.value.col == "label"

    def test_code_built_series_counts_label_rows_from_1(self):
        with pytest.raises(ParseError, match="^label at row 1 is not 0/1$") as exc:
            tsdata.TimeSeries(values=np.zeros(3), labels=[2, 0, 0])
        assert exc.value.row == 1 and exc.value.col is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            tsdata.load_csv(tmp_path / "nope.csv")

    def test_bad_number(self, tmp_path):
        p = write(tmp_path / "a.csv", "v\n1.0\nx\n")
        with pytest.raises(ParseError) as exc:
            tsdata.load_csv(p)
        assert exc.value.row == 2 and exc.value.col == "v"

    @pytest.mark.parametrize(
        "header, name", [("label,v0,label", "label"), ('v0,"label",v0', "v0"), ("a,,label,", "")]
    )
    @pytest.mark.parametrize("label", [None, "label"])
    def test_header_naming_a_column_twice_rejected(self, tmp_path, header, name, label):
        # either copy could hold the labels or a channel
        p = write(tmp_path / "a.csv", header + "\n" + ",".join("0" * (header.count(",") + 1)) + "\n")
        with pytest.raises(ParseError, match=f"column {name!r} more than once") as exc:
            tsdata.load_csv(p, label_column=label)
        assert exc.value.row == 0

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
            st.tuples(
                st.floats(), st.integers(-(2**63), 2**63 - 1), st.floats(width=32), st.integers(0, 2**64 - 1)
            ),
            min_size=0,
            max_size=20,
        )
    )
    @example([(-0.0, 0, 5e-324, 0), (-5e-324, -1, 1.7976931348623157e308, 2**64 - 1), (-1.7976931348623157e308, 7, math.nan, 2**63)])
    @example([(math.inf, 2**63 - 1, -math.inf, 1), (math.nan, -(2**63), 0.0, 2**64 - 1)])
    @example([(1e-320, 5, 0.1, 3), (0.30000000000000004, -5, -0.0, 2**64 - 2), (1.2345678901234567e-300, 1, 2.0 / 3.0, 0)])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_csv_bytes_equal_csv_writer_with_17_digit_floats(self, tmp_path, rows):
        header = ["x", "n", "quoted, name", "delta"]
        floats = np.array([r[0] for r in rows], dtype=np.float64)
        ints = np.array([r[1] for r in rows], dtype=np.int64)
        more = np.array([r[2] for r in rows], dtype=np.float64)
        # eval --out's delta column: Python ints up to 2**64 - 1 in an object array
        big = np.array([r[3] for r in rows], dtype=object)
        tsdata.write_csv(tmp_path / "got.csv", header, [floats, ints, more, big])
        got = (tmp_path / "got.csv").read_bytes()
        cells = list(zip(floats.tolist(), ints.tolist(), more.tolist(), big.tolist()))
        csv_writer_write(tmp_path / "want.csv", header, cells)
        assert got == (tmp_path / "want.csv").read_bytes()
        # the same bytes as formatting one row at a time
        per_row = "".join("%.17g,%d,%.17g,%d\r\n" % row for row in cells)
        assert got == ('x,n,"quoted, name",delta\r\n' + per_row).encode()

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
        assert_writes_load_like_row_walk(tmp_path / "grid.csv", [header, *grid], label)

    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_spellings_load_like_row_walk(self, tmp_path, cell):
        assert_writes_load_like_row_walk(tmp_path / "odd.csv", [["a", "label"], ["1", "0"], [cell, cell]], "label")


LIMIT = csv.field_size_limit()

# files as raw bytes, each with the label column it is loaded with
RAW_FILES = {
    "lf": (b"a,label\n1,0\n2.5,1\n", "label"),
    "crlf": (b"a,label\r\n1,0\r\n2.5,1\r\n", "label"),
    "lone_cr": (b"a,label\r1,0\r2.5,1\r", "label"),
    "mixed_terminators": (b"a,label\r\n1,0\n2.5,1\r3,0\r\n-1,1", "label"),
    "cr_inside_header": (b"a\rb\n1\n", None),
    "cr_before_crlf": (b"a\n1\r\r\n2\n", None),
    "cr_at_end": (b"a\n1\n2\r", None),
    "no_final_terminator": (b"a,label\n1,0\n2.5,1", "label"),
    "no_final_terminator_crlf": (b"a,b\r\n1,2\r\n3,4", None),
    "blank_line_in_middle": (b"a,label\n1,0\n\n2.5,1\n", "label"),
    "blank_crlf_line_in_middle": (b"a,label\r\n1,0\r\n\r\n2.5,1\r\n", "label"),
    "extra_blank_line_at_end": (b"a,label\n1,0\n2.5,1\n\n", "label"),
    "blank_first_line": (b"\n1\n2\n", None),
    "blank_first_crlf_line": (b"\r\n1\r\n2\r\n", None),
    "only_terminators": (b"\n\n", None),
    "whitespace_only_line": (b"a,label\n1,0\n \t\n2,1\n", "label"),
    "whitespace_only_line_one_column": (b"a\n1\n \n2\n", None),
    "padded_cells": (b"a , b,label\n 1 ,\t2 , 1\n", "label"),
    "trailing_comma": (b"a,label\n1,0,\n2,1,\n", "label"),
    "trailing_comma_in_header_too": (b"a,label,\n1,0,\n", "label"),
    "every_row_one_field_more": (b"a\n1,2\n3,4\n", None),
    "every_row_one_field_fewer": (b"a,b,label\n1,0\n2,1\n", "label"),
    "quote_in_header": (b'"a",label\n1,0\n', "label"),
    "stray_quote_in_header": (b'a"b,label\n1,0\n', "label"),
    "quoted_cell": (b'a,label\n"1",0\n2,1\n', "label"),
    "quoted_comma": (b'a,label\n"1,5",0\n', "label"),
    "nul_in_cell": (b"a,label\n1\x00,0\n", "label"),
    "nul_in_header": (b"a\x00,label\n1,0\n", "label"),
    "bom_before_header": (b"\xef\xbb\xbfa,label\n1,0\n", "label"),
    "bom_in_cell": (b"a,label\n\xef\xbb\xbf1,0\n", "label"),
    "one_column": (b"a\n1\n-2e-3\n", None),
    "one_column_one_row": (b"a\n7", None),
    "one_column_is_the_label": (b"label\n0\n1\n", "label"),
    "header_only": (b"a,label\n", "label"),
    "header_only_unterminated": (b"a,label", "label"),
    "empty": (b"", None),
    "label_not_in_header": (b"a,b\n1,0\n", "label"),
    "file_separator_around_number": (b"a\n\x1c1\n", None),
    "unit_separator_after_number": (b"a\n1\x1f\n", None),
    "unicode_space_around_number": (b"a\n\xc2\xa01\xe2\x80\x83\n", None),
    "arabic_indic_digit": (b"a\n\xd9\xa3\n", None),
    "underscore_in_number": (b"a\n1_000.5\n", None),
    "nan_cell": (b"a,label\n1,0\nnan,1\n", "label"),
    "label_two": (b"a,label\n1,0\n2,2\n", "label"),
    "label_minus_zero": (b"a,label\n1,-0\n2,1e0\n", "label"),
    "invalid_utf8": (b"a\n1\n\xff\n", None),
    "truncated_utf8": (b"a\n1\n\xe2\x82", None),
    "invalid_utf8_past_the_first_chunk": (b"a\n" + b"1\n" * 6000 + b"\xff\n", None),
    "field_at_the_limit": (b"a\n" + b"0" * (LIMIT - 1) + b"1\n", None),
    "field_over_the_limit": (b"a\n" + b"0" * LIMIT + b"1\n", None),
    "repeated_label_column": (b"label,v0,label\n0,1.0,1\n0,2.0,0\n", "label"),
    "repeated_label_column_quoted_header": (b'"label",v0,label\n0,1.0,1\n', "label"),
    "repeated_feature_column": (b"a,b,a\n1,2,3\n", None),
    "repeated_feature_column_quoted_header": (b'a,"b",b\n1,2,3\n', None),
    "repeated_blank_name": (b"a,,\n1,2,3\n", None),
}

# raw text pieces: cells, and separators and characters the csv module and
# np.loadtxt might split or read differently
RAW_PIECE = st.one_of(
    CELL,
    st.sampled_from([",", ",", ",", "\n", "\n", "\r\n", "\r\n", "\r", '"', "\0", "\ufeff", "\x1c", " ", "\t"]),
)


class TestLoadCsvRawText:
    @pytest.mark.parametrize("raw,label", RAW_FILES.values(), ids=RAW_FILES.keys())
    def test_raw_file_loads_like_row_walk(self, tmp_path, raw, label):
        path = tmp_path / "raw.csv"
        path.write_bytes(raw)
        assert_loads_like_row_walk(path, label)

    @pytest.mark.parametrize("spelling", ["{c}1", "1{c}", "1{c}5", "{c}{c}-2.5e1{c}"])
    def test_every_space_and_ascii_character_around_a_number_loads_like_row_walk(self, tmp_path, spelling):
        # np.loadtxt strips str.isspace() characters and stops at the first
        # other non-ASCII one; float() disagrees only on _LOADTXT_ONLY_SPACES
        chars = [chr(i) for i in range(0x110000) if i < 128 or chr(i).isspace()]
        for i, c in enumerate(c for c in chars if c not in ',"\r\n\0'):
            path = tmp_path / f"{i}.csv"
            path.write_bytes(("a\n0\n" + spelling.format(c=c) + "\n").encode())
            assert_loads_like_row_walk(path, None)

    @given(
        header=st.sampled_from(["a,label", "a,b,label", "a", "label", "a,b", ""]),
        terminator=st.sampled_from(["\n", "\r\n"]),
        body=st.lists(RAW_PIECE, max_size=24),
    )
    @example(header="a,b", terminator="\r\n", body=["1", ",", "2", "\r\n", "3", ",", "4"])
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_raw_text_loads_like_row_walk(self, tmp_path, header, terminator, body):
        path = tmp_path / "raw.csv"
        path.write_bytes((header + terminator + "".join(body)).encode())
        assert_loads_like_row_walk(path, "label" if "label" in header else None)


class TestNormalizer:
    def test_symmetric_pair(self):
        ts = tsdata.TimeSeries(values=np.array([[1.0], [3.0]]))
        stats = tsdata.fit_normalizer(ts)
        out = tsdata.apply_normalizer(ts, stats)
        assert stats.mean[0] == 2.0
        assert out[0, 0] == pytest.approx(-out[1, 0])

    def test_constant_channel_clamped(self):
        ts = tsdata.TimeSeries(values=np.array([[5.0], [5.0], [5.0]]))
        stats = tsdata.fit_normalizer(ts)
        assert stats.std[0] == tsdata.EPS_STD
        out = tsdata.apply_normalizer(ts, stats)
        assert np.all(np.isfinite(out))

    def test_sample_std_hand_case(self):
        # sample (n-1) std of [0, 10, 20] is 10, so normalized is [-1, 0, 1]
        ts = tsdata.TimeSeries(values=np.array([[0.0], [10.0], [20.0]]))
        stats = tsdata.fit_normalizer(ts)
        assert stats.mean[0] == 10.0 and stats.std[0] == pytest.approx(10.0)
        out = tsdata.apply_normalizer(ts, stats)
        assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])

    def test_degenerate_series(self):
        ts = tsdata.TimeSeries(values=np.array([[1.0]]))
        with pytest.raises(BadParams, match="^need at least 2 timesteps to fit a normalizer"):
            tsdata.fit_normalizer(ts)

    def test_overflow_is_its_own_error_not_a_parse_error(self):
        # every value is finite; the mean's sum, and the values normalized by
        # a training std below 1, overflow float64
        huge = tsdata.TimeSeries(values=np.tile([1.7e308, -1.7e308], 150))
        with pytest.raises(BadParams, match="^the training series' mean or std overflows float64"):
            tsdata.fit_normalizer(huge)
        stats = tsdata.fit_normalizer(tsdata.TimeSeries(values=np.array([0.0, 0.1])))
        with pytest.raises(ModelMismatch, match="far outside the training range"):
            tsdata.apply_normalizer(huge, stats)

    @given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotence_on_stats(self, T, d, seed):
        rng = np.random.default_rng(seed)
        ts = tsdata.TimeSeries(values=rng.normal(3.0, 2.0, size=(T, d)))
        normed = tsdata.apply_normalizer(ts, tsdata.fit_normalizer(ts))
        stats2 = tsdata.fit_normalizer(tsdata.TimeSeries(values=normed))
        keep = tsdata.fit_normalizer(ts).std > tsdata.EPS_STD
        assert np.all(np.abs(stats2.mean[keep]) < 1e-9)
        assert np.all(np.abs(stats2.std[keep] - 1.0) < 1e-6)


class TestMakeWindows:
    def test_count_stride_one(self):
        values = np.arange(10.0).reshape(-1, 1)
        windows = tsdata.make_windows(values, 5, 1)
        assert len(windows) == 6
        assert windows[:, 0, 0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_boundary_single_window(self):
        assert len(tsdata.make_windows(np.arange(5.0).reshape(-1, 1), 5, 1)) == 1

    def test_stride_three_hand_case(self):
        windows = tsdata.make_windows(np.arange(10.0).reshape(-1, 1), 4, 3)
        assert len(windows) == 3
        assert windows[:, 0, 0].tolist() == [0, 3, 6]
        assert np.array_equal(windows[1, :, 0], np.arange(3.0, 7.0))

    def test_window_too_long(self):
        with pytest.raises(BadParams, match="^window length 5 exceeds series length 4"):
            tsdata.make_windows(np.arange(4.0).reshape(-1, 1), 5, 1)

    def test_flattening_is_timestep_major(self):
        windows = tsdata.make_windows(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]), 2, 1)
        assert windows[0].reshape(-1).tolist() == [1.0, 10.0, 2.0, 20.0]

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tiling_reconstructs_prefix(self, w, d, seed):
        rng = np.random.default_rng(seed)
        T = w * rng.integers(1, 5) + int(rng.integers(0, w))
        values = rng.normal(size=(T, d))
        windows = tsdata.make_windows(values, w, stride=w)
        tiled = windows.reshape(-1, d)
        assert np.array_equal(tiled, values[: len(windows) * w])


    @given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 3), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_window_copies(self, w, stride, d, extra, seed):
        values = np.random.default_rng(seed).normal(size=(w + extra, d))
        windows = tsdata.make_windows(values, w, stride)
        want = np.array([values[s : s + w] for s in range(0, extra + 1, stride)])
        assert windows.tobytes() == want.tobytes()
        assert windows.flags.owndata and windows.flags.c_contiguous
        windows[:] = 0.0
        assert np.array_equal(values[:w], want[0])

    @pytest.mark.parametrize("w, stride", [(1, 1), (16, 3)])
    @pytest.mark.parametrize("d", [1, 3])
    def test_returns_a_copy(self, w, stride, d):
        values = np.random.default_rng(w + d).normal(size=(40, d))
        windows = tsdata.make_windows(values, w, stride)
        assert windows.shape == ((40 - w) // stride + 1, w, d)
        assert windows.flags.c_contiguous
        assert not np.shares_memory(windows, values)


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

    @pytest.mark.parametrize("T, seed, name", [(2000.5, 1, "T"), (2000, 1.5, "seed"), (2000, "1", "seed"),
                                               (True, 1, "T"), (2000, np.float64(1.0), "seed")])
    def test_length_and_seed_must_be_integers(self, T, seed, name):
        with pytest.raises(BadParams, match=f"^{name} must be an integer"):
            tsdata.synth_scenario("clean", T, seed)

    def test_numpy_integer_length_and_seed_accepted(self):
        a = tsdata.synth_scenario("clean", np.int64(300), np.uint64(7))
        b = tsdata.synth_scenario("clean", 300, 7)
        assert np.array_equal(a[1].values, b[1].values)

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

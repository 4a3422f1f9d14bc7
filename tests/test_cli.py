import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import read_curve, read_report, run_cli_pipeline
from gboc import cli, model_io, options, scoring, tsdata
from gboc.trainer import TrainConfig
from test_options import COMMANDS, RANGES


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A fast end-to-end run (short series, few epochs) for CLI plumbing tests."""
    root = tmp_path_factory.mktemp("cli_small")
    return run_cli_pipeline(root, "clean", seed=5, length=300, epochs=2)


class TestPipeline:
    def test_outputs_exist(self, small_pipeline):
        for key in ("model", "curve", "report"):
            assert small_pipeline[key].is_file()

    def test_report_columns_and_flags(self, small_pipeline):
        scores, flags, labels = read_report(small_pipeline["report"])
        assert scores.size == 300
        assert set(np.unique(flags)).issubset({0, 1})
        assert set(np.unique(labels)).issubset({0, 1})

    def test_eval_prints_fixed_order_table(self, small_pipeline, capsys, tmp_path):
        per_delta = tmp_path / "per_delta.csv"
        rc = cli.main(
            ["eval", "--report", str(small_pipeline["report"]), "--out", str(per_delta)]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("VUS-PR")
        assert out[1].startswith("VUS-ROC")
        assert out[2].startswith("Affiliation-F1")
        lines = per_delta.read_text().strip().splitlines()
        assert lines[0] == "delta,auc_pr,auc_roc"
        assert len(lines) == 6  # default delta set {0..4}

    def test_eval_custom_delta_set(self, small_pipeline, capsys):
        rc = cli.main(["eval", "--report", str(small_pipeline["report"]), "--delta-set", "0,2"])
        assert rc == 0
        assert "VUS-PR" in capsys.readouterr().out

    def test_eval_delta_beyond_the_series_equals_t_minus_1(self, small_pipeline, tmp_path, capsys):
        per_delta = tmp_path / "per_delta.csv"
        rc = cli.main(["eval", "--report", str(small_pipeline["report"]), "--delta-set", "0,10000000000",
                       "--out", str(per_delta)])
        assert rc == 0
        longest = tmp_path / "longest.csv"
        assert cli.main(["eval", "--report", str(small_pipeline["report"]), "--delta-set", "299",
                         "--out", str(longest)]) == 0
        capsys.readouterr()
        huge_row = per_delta.read_text().splitlines()[2].split(",")
        longest_row = longest.read_text().splitlines()[1].split(",")
        assert huge_row[0] == "10000000000"
        assert huge_row[1:] == longest_row[1:]

    # one huge delta per run: alongside small ones, a list of Python ints
    # from 2**63 to 2**64 - 1 becomes a NumPy float or uint64 column
    @pytest.mark.parametrize("delta", [2**63 - 1, 2**63, 2**64 - 1, 10**20])
    def test_eval_per_delta_csv_prints_each_delta_as_given(self, small_pipeline, tmp_path, capsys, delta):
        per_delta = tmp_path / "per_delta.csv"
        rc = cli.main(["eval", "--report", str(small_pipeline["report"]), "--delta-set", f"0,299,{delta}",
                       "--out", str(per_delta)])
        assert rc == 0
        capsys.readouterr()
        rows = [line.split(",") for line in per_delta.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "299", str(delta)]
        assert rows[2][1:] == rows[1][1:]  # every delta of T - 1 or more credits the same steps

    def test_dump_balls(self, small_pipeline, tmp_path, capsys):
        out = tmp_path / "balls.csv"
        assert cli.main(["dump-balls", "--model", str(small_pipeline["model"]), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        model = model_io.load_model(small_pipeline["model"])
        assert lines[0].split(",")[-1] == "radius"
        assert len(lines) - 1 == model.centers.shape[0]

    def test_scores_only_mode(self, small_pipeline, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--label-col", "label",
                "--model", str(small_pipeline["model"]),
                "--out", str(out),
                "--scores-only",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        assert header == "t,point_score"

    def test_threshold_fit_validation(self, small_pipeline, tmp_path, capsys):
        # --val-csv alone fits the threshold on the validation series
        data, out = small_pipeline["data"], tmp_path / "report_val.csv"
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(data / "test.csv"),
                "--label-col", "label",
                "--model", str(small_pipeline["model"]),
                "--out", str(out),
                "--val-csv", str(data / "train.csv"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        model = model_io.load_model(small_pipeline["model"])
        ts = tsdata.load_csv(data / "test.csv", label_column="label")
        val_ts = tsdata.load_csv(data / "train.csv", label_column="label")
        report = scoring.detect(model, ts, threshold_scores=scoring.detect(model, val_ts).point_scores)
        assert report.threshold != scoring.detect(model, ts).threshold
        assert f"threshold {report.threshold:.17g}," in err
        expected = tmp_path / "expected.csv"
        columns = [np.arange(ts.T), report.point_scores, report.flags, ts.labels]
        tsdata.write_csv(expected, ["t", "point_score", "flag", "label"], columns)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "flags", [["--scores-only", "--val-csv", "train.csv"], ["--threshold-fit", "validation"]],
        ids=["scores_only_with_val_csv", "threshold_fit"],
    )
    def test_detect_usage_error(self, small_pipeline, tmp_path, capsys, flags):
        # --scores-only sets no threshold, so a validation series has no use;
        # there is no --threshold-fit: --val-csv alone names the threshold source
        argv = ["detect", "--test-csv", str(small_pipeline["data"] / "test.csv"), "--model",
                str(small_pipeline["model"]), "--out", str(tmp_path / "r.csv"), *flags]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_scores_only_stderr_names_no_threshold(self, small_pipeline, tmp_path, capsys):
        # the report has no flag column, so stderr gives no threshold or flag count
        out = tmp_path / "scores.csv"
        argv = ["detect", "--test-csv", str(small_pipeline["data"] / "test.csv"), "--label-col", "label",
                "--model", str(small_pipeline["model"]), "--out", str(out), "--scores-only"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == f"report written to {out} (scores only)\n"

    def test_label_free_validation_series_gives_the_labelled_ones_report(self, small_pipeline, tmp_path, capsys):
        data = small_pipeline["data"]
        unlabelled = tmp_path / "train_v0.csv"
        unlabelled.write_text("".join(line.split(",")[0] + "\n" for line in (data / "train.csv").read_text().splitlines()))
        reports, errs = [], []
        for val in (data / "train.csv", unlabelled):
            out = tmp_path / f"report_{val.stem}.csv"
            argv = ["detect", "--test-csv", str(data / "test.csv"), "--label-col", "label",
                    "--model", str(small_pipeline["model"]), "--out", str(out), "--val-csv", str(val)]
            assert cli.main(argv) == 0
            reports.append(out.read_bytes())
            errs.append(capsys.readouterr().err.replace(str(out), "OUT"))
        assert reports[0] == reports[1]
        assert errs[0] == errs[1] and "threshold " in errs[0]

    # the name "v" is also a substring of the cell's column name v0
    @pytest.mark.parametrize(
        "text, name",
        [("v0,label\n0.5,0\nnan,0\n", "val.csv"), ("v0,label\n0.5,0\n0.25,2\n", "val.csv"), ("", "val.csv"),
         ("v0,v1\n1,2\n", "val.csv"), ("v0,label\n0.5,0\nnan,0\n", "v"), ("v0\n1\n", "val.csv"),
         ("v0\n" + "1.7e308\n-1.7e308\n" * 150, "val.csv")],
        ids=["non_finite_cell", "bad_label", "empty", "two_channels", "non_finite_cell_short_name", "too_short",
             "overflow"],
    )
    def test_validation_load_error_names_the_file(self, small_pipeline, tmp_path, capsys, monkeypatch, text, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        argv = ["detect", "--test-csv", str(small_pipeline["data"] / "test.csv"), "--label-col", "label",
                "--model", str(small_pipeline["model"]), "--out", str(tmp_path / "r.csv"), "--val-csv", name]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --val-csv {name}: ")
        assert not (tmp_path / "r.csv").exists()

    def test_every_csv_gboc_writes_loads_without_the_csv_module(self, tmp_path, monkeypatch, capsys):
        # np.loadtxt reads a plain file several times faster than the csv
        # module's path, so each file gboc writes, and reads back, must be plain
        def refuse(path, label_column):
            raise AssertionError(f"{path} took the csv module's path")

        data, model = tmp_path / "data", tmp_path / "model.gboc"
        assert cli.main(["synth", "--kind", "noise", "--length", "300", "--seed", "3", "--out", str(data)]) == 0
        monkeypatch.setattr(tsdata, "_parse_with_csv_module", refuse)
        out = {name: tmp_path / f"{name}.csv" for name in ("curve", "report", "scores", "per_delta", "balls")}
        detect = ["detect", "--test-csv", data / "test.csv", "--label-col", "label", "--model", model]
        for argv in (
            ["train", "--train-csv", data / "train.csv", "--label-col", "label", "--model", model,
             "--out", out["curve"], "--epochs", "1", "--quiet"],
            [*detect, "--out", out["report"]],
            [*detect, "--scores-only", "--out", out["scores"]],
            ["eval", "--report", out["report"], "--out", out["per_delta"]],
            ["dump-balls", "--model", model, "--out", out["balls"]],
        ):
            assert cli.main([str(a) for a in argv]) == 0
        capsys.readouterr()
        for path in out.values():
            tsdata.load_csv(path)


@pytest.mark.parametrize(
    "epochs,mu,builds",
    [("1", "0.5", ["epoch 1 ball build"]), ("2", "0.3", ["epoch 1 ball build", "epoch 2 ball build", "final ball build"])],
)
def test_prune_fallback_is_one_stderr_line_per_build_unless_quiet(tmp_path, capsys, epochs, mu, builds):
    assert cli.main(["synth", "--kind", "noise", "--length", "200", "--seed", "7", "--out", str(tmp_path)]) == 0
    # a build every epoch, so that a 2-epoch train builds at epochs 1 and 2
    argv = ["train", "--train-csv", str(tmp_path / "train.csv"), "--label-col", "label",
            "--epochs", epochs, "--mu", mu, "--seed", "1", "--rebuild-every", "1"]
    capsys.readouterr()
    assert cli.main([*argv, "--model", str(tmp_path / "loud.gboc")]) == 0
    loud = capsys.readouterr().err.splitlines()
    assert cli.main([*argv, "--model", str(tmp_path / "quiet.gboc"), "--quiet"]) == 0
    quiet = capsys.readouterr().err.splitlines()
    expected = [f"warning: {build}: --mu {mu} would prune every ball; kept the tightest one" for build in builds]
    assert [line for line in loud if line.startswith("warning:")] == expected
    assert not any("Warning" in line for line in loud)
    assert len(quiet) == 1 and quiet[0].startswith("model written to")
    assert (tmp_path / "loud.gboc").read_bytes() == (tmp_path / "quiet.gboc").read_bytes()


def test_epoch_line_names_the_balls_only_on_epochs_that_built_them(tmp_path, capsys):
    assert cli.main(["synth", "--kind", "noise", "--length", "200", "--seed", "7", "--out", str(tmp_path)]) == 0
    argv = ["train", "--train-csv", str(tmp_path / "train.csv"), "--label-col", "label",
            "--epochs", "3", "--rebuild-every", "2", "--model", str(tmp_path / "m.gboc")]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "curve.csv")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("epoch")]
    curve = read_curve(tmp_path / "curve.csv")
    # builds at epochs 1 and 3; the curve still gives every epoch its ball counts
    assert len(lines) == len(curve) == 3
    for line, row in zip(lines, curve):
        named = f"  balls {row['balls_before']}->{row['balls_after']}"
        assert line.endswith(named) if row["epoch"] != 2 else "balls" not in line


def _overflowing_csv(directory) -> str:
    """A one-channel series of finite values whose mean and normalization
    overflow float64."""
    path = directory / "huge.csv"
    path.write_text("v0\n" + "1.7e308\n-1.7e308\n" * 150)
    return str(path)


def _one_error_line(argv: list[str], capsys) -> str:
    """The stderr of a CLI run with every warning an error, which must exit 1
    with one line that starts with 'error:'."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestErrors:
    def test_unknown_flag_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--does-not-exist", "1"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code != 0

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = cli.main(
            ["train", "--train-csv", str(tmp_path / "nope.csv"), "--model", str(tmp_path / "m.gboc")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_eval_without_label_column(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("t,point_score,flag\n0,0.5,0\n")
        rc = cli.main(["eval", "--report", str(report)])
        assert rc == 1
        assert "label" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["t,flag,label", "t,point_score,label"])
    def test_eval_report_without_a_score_or_flag_column(self, tmp_path, capsys, header):
        report = tmp_path / "report.csv"
        report.write_text(f"{header}\n0,0,1\n1,1,0\n")
        want = "error: report must have point_score and flag columns"
        assert _one_error_line(["eval", "--report", str(report)], capsys) == want

    @pytest.mark.parametrize(
        "bad_row, column",
        [
            ("1,abc,0,0", "point_score"),
            ("1,0.2,0", "label"),
            ("1,0.2,yes,0", "flag"),
            ("1,nan,0,0", "point_score"),
            ("1,inf,0,0", "point_score"),
            ("1,0.2,0,2", "label"),
            ("1,0.2,0,-1", "label"),
            ("1,0.2,7,0", "flag"),
        ],
        ids=[
            "non_numeric_score", "short_row", "non_integer_flag", "nan_score", "inf_score",
            "label_two", "negative_label", "flag_seven",
        ],
    )
    def test_eval_malformed_report_names_row_and_column(self, tmp_path, capsys, bad_row, column):
        report = tmp_path / "report.csv"
        report.write_text(f"t,point_score,flag,label\n0,0.5,0,1\n{bad_row}\n")
        assert cli.main(["eval", "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"row 2, column '{column}'" in err

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eval_on_a_report_with_one_change_exits_0_only_when_valid(self, tmp_path, capsys, data):
        n = data.draw(st.integers(4, 12))
        scores = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        flags = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        # two anomalies and two normal points, so no single change leaves the labels one-class
        labels = [1, 1, 0, 0] + data.draw(st.lists(st.sampled_from([0, 1]), min_size=n - 4, max_size=n - 4))
        rows = [[str(t), repr(s), str(f), str(y)] for t, (s, f, y) in enumerate(zip(scores, flags, labels))]
        cell_text = st.one_of(
            st.sampled_from(["nan", "inf", "2", "-1", "1.0", ""]),
            st.floats().map(repr),
            st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)), max_size=8),
        )
        change = data.draw(st.sampled_from(["replace", "drop", "add"]))
        row = rows[data.draw(st.integers(0, n - 1))]
        col = data.draw(st.integers(0, 3))
        if change == "replace":
            row[col] = data.draw(cell_text)
        elif change == "drop":
            del row[col]
        else:
            row.insert(data.draw(st.integers(0, 4)), data.draw(cell_text))
        report = tmp_path / "report.csv"
        report.write_text("".join(",".join(r) + "\n" for r in [["t", "point_score", "flag", "label"], *rows]))

        rc = cli.main(["eval", "--report", str(report)])
        err = capsys.readouterr().err
        if change == "replace":
            try:
                value = float(row[col])
            except ValueError:
                value = math.nan
            valid = value in (0.0, 1.0) if col >= 2 else math.isfinite(value)
        else:
            valid = False
        if valid:
            assert rc == 0, err
        else:
            assert rc == 1 and err.startswith("error:"), (rc, err)

    def test_eval_missing_report(self, tmp_path, capsys):
        assert cli.main(["eval", "--report", str(tmp_path / "absent.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_detect_missing_model(self, small_pipeline, tmp_path, capsys):
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--label-col", "label",
                "--model", str(tmp_path / "absent.gboc"),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_header_naming_a_column_twice_is_one_error_line(self, tmp_path, capsys):
        # train would take a repeated label column's second copy as a feature,
        # and eval a report's second label column as a missing one
        dup = tmp_path / "dup.csv"
        dup.write_text("label,v0,label\n0,1.0,1\n0,2.0,0\n0,1.5,0\n0,0.5,1\n")
        report = tmp_path / "report.csv"
        report.write_text("t,point_score,flag,label,label\n0,0.5,0,1,1\n1,0.2,0,0,0\n")
        model = tmp_path / "dup.gboc"
        train = ["train", "--train-csv", str(dup), "--label-col", "label", "--model", str(model), "--epochs", "1",
                 "--quiet"]
        for argv in (train, ["eval", "--report", str(report)]):
            assert "column 'label' more than once" in _one_error_line(argv, capsys)
        assert not model.exists()

    def test_detect_undeclared_label_column_is_named(self, small_pipeline, tmp_path, capsys):
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--model", str(small_pipeline["model"]),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'label'" in err and "--label-col" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--smin", "-3"),
            ("--smin", "0"),
            ("--seed", "-1"),
            ("--seed", str(2**64)),
            ("--decoder-hidden", "0"),
            ("--mu", "-1"),
            ("--mu", "nan"),
            ("--lr", "0"),
            ("--lr", "inf"),
            ("--batch", str(2**32)),
            ("--stride", "0"),
            ("--epochs", "5000000000"),
        ],
    )
    def test_bad_train_config_rejected_before_training(self, small_pipeline, tmp_path, capsys, flag, value):
        model = tmp_path / "m.gboc"
        rc = cli.main(
            [
                "train",
                "--train-csv", str(small_pipeline["data"] / "train.csv"),
                "--label-col", "label",
                "--model", str(model),
                "--epochs", "1",
                flag, value,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        # no per-epoch progress line came first, and the field behind the flag is named
        assert err.startswith(f"error: {TRAIN_FLAGS[flag][0]} must be "), err
        assert not model.exists()

    def test_too_short_series_is_the_same_error_in_train_and_detect(self, small_pipeline, tmp_path, capsys):
        three = tmp_path / "three.csv"
        three.write_text("v0\n1\n2\n3\n")
        model = tmp_path / "w4.gboc"
        fit = ["train", "--train-csv", str(small_pipeline["data"] / "train.csv"), "--label-col", "label",
               "--model", str(model), "--window", "4", "--epochs", "1", "--quiet"]
        assert cli.main(fit) == 0
        train = ["train", "--train-csv", str(three), "--window", "4", "--model", str(tmp_path / "t.gboc"), "--quiet"]
        detect = ["detect", "--test-csv", str(three), "--model", str(model), "--out", str(tmp_path / "r.csv")]
        errors = [_one_error_line(argv, capsys) for argv in (train, detect)]
        assert errors[0] == errors[1] == "error: window length 4 exceeds series length 3"

    def test_train_into_missing_directory_fails_before_training(self, small_pipeline, tmp_path, capsys):
        for out_flag in ("--model", "--out"):
            paths = {"--model": tmp_path / "m.gboc", "--out": tmp_path / "curve.csv"}
            paths[out_flag] = tmp_path / "nodir" / "x.csv"
            rc = cli.main(
                [
                    "train",
                    "--train-csv", str(small_pipeline["data"] / "train.csv"),
                    "--label-col", "label",
                    "--model", str(paths["--model"]),
                    "--out", str(paths["--out"]),
                    "--epochs", "1",
                ]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "nodir" in err  # no per-epoch progress line came first
            assert not (tmp_path / "m.gboc").exists()

    def test_detect_into_missing_directory_is_clean_error(self, small_pipeline, tmp_path, capsys):
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--label-col", "label",
                "--model", str(small_pipeline["model"]),
                "--out", str(tmp_path / "nodir" / "r.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nodir" in err

    @pytest.mark.parametrize("command", ["detect", "eval", "dump-balls"])
    def test_output_directory_checked_before_any_work(self, small_pipeline, tmp_path, capsys, monkeypatch, command):
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the output directory was checked")

        monkeypatch.setattr(cli, "load_model", not_reached)
        monkeypatch.setattr(cli, "_read_report", not_reached)
        out = str(tmp_path / "nodir" / "out.csv")
        model = str(small_pipeline["model"])
        test_csv = str(small_pipeline["data"] / "test.csv")
        argv = {
            "detect": ["--test-csv", test_csv, "--label-col", "label", "--model", model],
            "eval": ["--report", str(small_pipeline["report"])],
            "dump-balls": ["--model", model],
        }[command]
        assert cli.main([command, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nodir" in err

    @pytest.mark.parametrize("command", ["train", "detect", "eval", "dump-balls"])
    def test_output_path_that_is_a_directory_rejected_before_any_work(
        self, small_pipeline, tmp_path, capsys, monkeypatch, command
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("load_model", "_read_report", "train"):
            monkeypatch.setattr(cli, name, not_reached)
        out = tmp_path / "taken"
        out.mkdir()
        model = str(small_pipeline["model"])
        data = small_pipeline["data"]
        argv = {
            "train": ["--train-csv", str(data / "train.csv"), "--label-col", "label", "--model", str(out)],
            "detect": ["--test-csv", str(data / "test.csv"), "--model", model, "--out", str(out)],
            "eval": ["--report", str(small_pipeline["report"]), "--out", str(out)],
            "dump-balls": ["--model", model, "--out", str(out)],
        }[command]
        assert cli.main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is a directory" in err and "taken" in err

    # each output given the path of another file the command names, spelled
    # differently for detect; nothing is written and the file keeps its bytes
    @pytest.mark.parametrize("command", ["train", "detect", "eval", "dump-balls"])
    def test_output_naming_another_given_file_rejected_before_any_work(
        self, small_pipeline, tmp_path, capsys, monkeypatch, command
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("load_model", "_read_report", "train"):
            monkeypatch.setattr(cli, name, not_reached)
        model, report = tmp_path / "model.gboc", tmp_path / "report.csv"
        model.write_bytes(small_pipeline["model"].read_bytes())
        report.write_bytes(small_pipeline["report"].read_bytes())
        (tmp_path / "sub").mkdir()
        data = small_pipeline["data"]
        argv, kept = {
            "train": (["--train-csv", str(data / "train.csv"), "--label-col", "label", "--model", str(tmp_path / "x"),
                       "--out", str(tmp_path / "x")], tmp_path / "x"),
            "detect": (["--test-csv", str(data / "test.csv"), "--model", str(model),
                        "--out", str(tmp_path / "sub" / ".." / "model.gboc")], model),
            "eval": (["--report", str(report), "--out", str(report)], report),
            "dump-balls": (["--model", str(model), "--out", str(model)], model),
        }[command]
        before = kept.read_bytes() if kept.exists() else None
        assert cli.main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is the same file as" in err
        assert (kept.read_bytes() if kept.exists() else None) == before

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e-320", "-1"])
    def test_eval_rejects_a_meaningless_sigma(self, small_pipeline, capsys, sigma):
        assert cli.main(["eval", "--report", str(small_pipeline["report"]), "--sigma-aff", sigma]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and "sigma" in captured.err

    def test_memory_error_is_a_clean_error(self, small_pipeline, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "train", out_of_memory)
        argv = ["train", "--train-csv", str(small_pipeline["data"] / "train.csv"), "--label-col", "label",
                "--model", str(tmp_path / "m.gboc")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_diverging_train_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["synth", "--kind", "noise", "--length", "200", "--seed", "3", "--out", str(tmp_path)]) == 0
        argv = ["train", "--train-csv", str(tmp_path / "train.csv"), "--label-col", "label",
                "--model", str(tmp_path / "m.gboc"), "--epochs", "2", "--quiet", "--lr", "1e300"]
        assert _one_error_line(argv, capsys) == "error: epoch 1: non-finite loss or gradient; aborting epoch"
        assert not (tmp_path / "m.gboc").exists()

    def test_latents_diverging_at_a_ball_build_is_one_error_line(self, tmp_path, capsys):
        assert cli.main(["synth", "--kind", "noise", "--length", "200", "--seed", "3", "--out", str(tmp_path)]) == 0
        argv = ["train", "--train-csv", str(tmp_path / "train.csv"), "--label-col", "label",
                "--model", str(tmp_path / "m.gboc"), "--epochs", "3", "--rebuild-every", "1", "--lr", "1e308",
                "--batch", "1000", "--quiet"]
        want = "error: non-finite latents at the epoch-2 ball build; training diverged"
        assert _one_error_line(argv, capsys) == want
        assert not (tmp_path / "m.gboc").exists()

    def test_train_on_a_series_whose_mean_overflows_is_one_error_line(self, tmp_path, capsys):
        argv = ["train", "--train-csv", _overflowing_csv(tmp_path), "--model", str(tmp_path / "m.gboc"),
                "--epochs", "1", "--quiet"]
        assert "overflows float64" in _one_error_line(argv, capsys)
        assert not (tmp_path / "m.gboc").exists()

    def test_detect_far_outside_the_training_range_is_one_error_line(self, small_pipeline, tmp_path, capsys):
        argv = ["detect", "--test-csv", _overflowing_csv(tmp_path), "--model", str(small_pipeline["model"]),
                "--out", str(tmp_path / "r.csv")]
        assert "far outside the training range" in _one_error_line(argv, capsys)


# flag -> (options field, a value other than the field's default); a flag
# with value True takes no argument
TRAIN_FLAGS = {
    "--window": ("window", 3),
    "--stride": ("stride", 2),
    "--layers": ("layers", 1),
    "--hidden": ("hidden", 3),
    "--decoder-hidden": ("decoder_hidden", 5),
    "--epochs": ("epochs", 2),
    "--batch": ("batch_size", 7),
    "--lr": ("lr", 0.003),
    "--lambda": ("lam", 0.25),
    "--smin": ("s_min", 5),
    "--mu": ("mu", 2.5),
    "--seed": ("seed", 11),
    "--rebuild-every": ("rebuild_every", 2),
    "--gbc-off": ("gbc_off", True),
    "--prune-off": ("prune_off", True),
    "--assign-unpruned": ("assign_unpruned", True),
}
SYNTH_FLAGS = {
    "--spikes": ("n_spikes", 3),
    "--shifts": ("n_shifts", 1),
    "--spike-mag": ("spike_mag", 4.0),
    "--shift-len": ("shift_len", 10),
    "--shift-mag": ("shift_mag", 2.0),
    "--drift-slope": ("drift_slope", 0.002),
    "--noise-std": ("noise_std", 0.1),
    "--channels": ("n_channels", 2),
}


def _flag_argv(flags: dict) -> list[str]:
    argv = []
    for flag, (_, value) in flags.items():
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _expected_options(cls, flags: dict):
    expected = {name: value for name, value in flags.values()}
    assert set(expected) == {f.name for f in dataclasses.fields(cls)}  # every field has a flag
    defaults = dataclasses.asdict(cls())
    assert all(value != defaults[name] for name, value in expected.items())
    return cls(**expected)


class TestOptionsReachTheirFields:
    def test_every_train_flag_reaches_its_config_field(self, small_pipeline, tmp_path, capsys):
        model = tmp_path / "m.gboc"
        argv = ["train", "--train-csv", str(small_pipeline["data"] / "train.csv"), "--label-col", "label",
                "--model", str(model), "--quiet", *_flag_argv(TRAIN_FLAGS)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert model_io.load_model(model).config == _expected_options(TrainConfig, TRAIN_FLAGS)

    def test_every_synth_flag_reaches_its_params_field(self, tmp_path, capsys, monkeypatch):
        seen = []
        original = tsdata.synth_scenario

        def recording(kind, T, seed, params):
            seen.append(params)
            return original(kind, T, seed, params)

        monkeypatch.setattr(tsdata, "synth_scenario", recording)
        argv = ["synth", "--kind", "drift_noise", "--length", "300", "--out", str(tmp_path), *_flag_argv(SYNTH_FLAGS)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert seen == [_expected_options(tsdata.SynthParams, SYNTH_FLAGS)]


@pytest.fixture(scope="module")
def t200_pipeline(tmp_path_factory):
    """A T=200, one-epoch pipeline whose files seed the valid argv of every command."""
    return run_cli_pipeline(tmp_path_factory.mktemp("cli_t200"), "noise", seed=7, length=200, epochs=1)


def _valid_argv(command: str, files: dict) -> dict[str, str | None]:
    """A valid argv of the command as {flag: value}, value None for a switch."""
    data, model, report = str(files["data"]), str(files["model"]), str(files["report"])
    return {
        "synth": {"--kind": "clean", "--length": "200", "--seed": "3", "--out": "synth_out", "--spikes": "8",
                  "--shifts": "2", "--spike-mag": "5", "--shift-len": "20", "--shift-mag": "3",
                  "--drift-slope": "0.001", "--noise-std": "0.3", "--channels": "1"},
        "train": {"--train-csv": f"{data}/train.csv", "--label-col": "label", "--model": "m.gboc",
                  "--out": "curve.csv", "--window": "2", "--stride": "1", "--layers": "2", "--hidden": "32",
                  "--decoder-hidden": "64", "--epochs": "1", "--batch": "32", "--lr": "1e-4", "--lambda": "0.5",
                  "--smin": "8", "--mu": "2", "--seed": "1", "--rebuild-every": "1", "--quiet": None},
        "detect": {"--test-csv": f"{data}/test.csv", "--label-col": "label", "--model": model,
                   "--out": "report.csv", "--val-csv": f"{data}/train.csv"},
        "eval": {"--report": report, "--delta-set": "0,1", "--sigma-aff": "1", "--window": "2",
                 "--out": "per_delta.csv"},
        "dump-balls": {"--model": model, "--out": "balls.csv"},
    }[command]


def _join(command: str, flags: dict[str, str | None]) -> list[str]:
    return [command, *(x for flag, value in flags.items() for x in (flag, value) if x is not None)]


ODD_VALUES = ("", "x", "-1", "0", "0.5", "nan", "inf", "1e400", "18446744073709551616")


@pytest.mark.parametrize("command", ["synth", "train", "detect", "eval", "dump-balls"])
def test_one_odd_flag_value_exits_cleanly(t200_pipeline, tmp_path, capsys, monkeypatch, command):
    # every flag value of a valid argv replaced, in turn, by each odd value:
    # exit 0, exit 1 with error:, or argparse's usage error with exit 2
    monkeypatch.chdir(tmp_path)
    flags = _valid_argv(command, t200_pipeline)
    assert cli.main(_join(command, flags)) == 0, capsys.readouterr().err
    capsys.readouterr()
    failures = []
    for flag in [f for f, value in flags.items() if value is not None]:
        for odd in ODD_VALUES:
            try:
                rc = cli.main(_join(command, {**flags, flag: odd}))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:
                failures.append(f"{flag} {odd!r}: raised {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            usage_error = rc == 2 and err.startswith("usage:") and "error:" in err
            if not (rc == 0 or (rc == 1 and err.startswith("error:")) or usage_error) or "Traceback" in err:
                failures.append(f"{flag} {odd!r}: exit {rc}, stderr {err[-300:]!r}")
    assert not failures, "\n".join(failures)


VALUE_FLAGS = [(command, action.option_strings[0])
               for command, p in cli.build_parser()._subparsers._group_actions[0].choices.items()
               for action in p._actions if action.option_strings and action.nargs is None]


@pytest.mark.parametrize("command, flag", VALUE_FLAGS, ids=[f"{c}{f}" for c, f in VALUE_FLAGS])
def test_a_flag_given_as_dashdash_is_a_usage_error(t200_pipeline, tmp_path, capsys, monkeypatch, command, flag):
    # argparse on Python 3.11 reads --flag=-- as an empty list, past the
    # flag's type and choices; the rest of the argv is valid
    monkeypatch.chdir(tmp_path)
    flags = {f: value for f, value in _valid_argv(command, t200_pipeline).items() if f != flag}
    with pytest.raises(SystemExit) as exc:
        cli.main([*_join(command, flags), f"{flag}=--"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage:"), err
    assert err.endswith(f"error: argument {flag}: expected one argument\n"), err
    assert not any(tmp_path.iterdir())


# accepted values of the fields that scale a run's work, drawn small; their
# upper edges are checked by construction in test_options.py
SMALL = {"window": st.integers(1, 8), "hidden": st.integers(1, 8), "decoder_hidden": st.integers(1, 8),
         "epochs": st.integers(1, 2), "batch_size": st.integers(1, 64), "n_channels": st.integers(1, 3)}
CLI_FIELDS = [(COMMANDS[cls], f) for cls in COMMANDS for f in dataclasses.fields(cls)]


def _converts(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("command, field", CLI_FIELDS, ids=[f"{c}.{f.name}" for c, f in CLI_FIELDS])
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_drawn_option_value_through_the_cli(t200_pipeline, tmp_path, capsys, command, field, data):
    # a value the kind rejects is one "error: <field> must be" line and no
    # file; one it accepts reaches its field or ends in one error: line; text
    # that is no number of the kind's type is argparse's usage error
    kind, out = field.metadata["kind"], Path(tempfile.mkdtemp(dir=tmp_path))
    flag = field.metadata["flag"] or "--" + field.name.replace("_", "-")
    if command == "train":
        argv = ["train", "--train-csv", str(t200_pipeline["data"] / "train.csv"), "--label-col", "label",
                "--model", str(out / "m.gboc"), "--out", str(out / "curve.csv"), "--epochs", "1", "--quiet"]
    else:
        argv = ["synth", "--kind", "drift_noise", "--length", "200", "--out", str(out / "data")]
    inside, edges, outside = RANGES[kind]
    case = "switch" if kind is options.SWITCH else data.draw(st.sampled_from(["inside", "outside", "text"]))
    if case == "switch":
        value = data.draw(st.booleans())
        argv += [flag] if value else []
    elif case == "text":
        noise = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
        text = data.draw(st.one_of(st.sampled_from(["x", "", "--", "1e-3x", "1.5", "2.0"]), noise)
                         .filter(lambda t: not _converts(kind.type, t)))
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"{flag}={text}"])
        assert exc.value.code == 2
        return
    else:
        small = SMALL.get(field.name, st.one_of(inside, st.sampled_from(edges)))
        text = str(data.draw(small if case == "inside" else st.sampled_from(outside)))
        value = kind.type(text)
        argv.append(f"{flag}={text}")
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert not any("Traceback" in line for line in err), err
    if not kind.accepts(value):
        assert rc == 1 and len(err) == 1 and err[0].startswith(f"error: {field.name} must be "), (rc, err)
        assert not any(out.iterdir())
    elif rc == 1:
        assert len(err) == 1 and err[0].startswith("error:"), err
    else:
        assert rc == 0, (rc, err)
        if command == "train":
            assert getattr(model_io.load_model(out / "m.gboc").config, field.name) == value
        else:
            assert tsdata.load_csv(out / "data" / "test.csv", label_column="label").values.shape[0] == 200


class TestSynth:
    def test_writes_both_files_with_labels(self, tmp_path, capsys):
        rc = cli.main(["synth", "--kind", "noise", "--length", "250", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        train_lines = (tmp_path / "train.csv").read_text().splitlines()
        test_lines = (tmp_path / "test.csv").read_text().splitlines()
        assert train_lines[0] == "v0,label"
        assert len(train_lines) == 251 and len(test_lines) == 251

    def test_bad_params_exit_code(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--kind", "clean", "--length", "250", "--seed", "3", "--out", str(tmp_path), "--spike-mag", "-1"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--seed", str(2**64)],
            ["--kind", "drift_noise", "--length", "300", "--shift-len", "1000"],
            ["--spike-mag", "nan"],
            ["--noise-std", "inf"],
        ],
    )
    def test_bad_input_is_a_clean_error(self, tmp_path, capsys, flags):
        argv = ["synth", "--kind", "clean", "--length", "250", "--out", str(tmp_path / "data"), *flags]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("kind, flag, value", [("noise", "--noise-std", "1e308"),
                                                   ("drift", "--drift-slope", "1e307")])
    def test_overflowing_test_split_is_one_error_line(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "data"
        argv = ["synth", "--kind", kind, "--length", "200", "--out", str(out), flag, value]
        assert _one_error_line(argv, capsys).startswith("error: the test split overflows float64; lower ")
        assert not out.exists()

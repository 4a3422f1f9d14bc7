import numpy as np
import pytest

from conftest import read_report, run_cli_pipeline
from gboc import cli, model_io


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
        out = tmp_path / "report_val.csv"
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--label-col", "label",
                "--model", str(small_pipeline["model"]),
                "--out", str(out),
                "--threshold-fit", "validation",
                "--val-csv", str(small_pipeline["data"] / "train.csv"),
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_threshold_fit_validation_requires_val_csv(self, small_pipeline, tmp_path, capsys):
        rc = cli.main(
            [
                "detect",
                "--test-csv", str(small_pipeline["data"] / "test.csv"),
                "--model", str(small_pipeline["model"]),
                "--out", str(tmp_path / "r.csv"),
                "--threshold-fit", "validation",
            ]
        )
        assert rc == 1
        assert "val-csv" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "bad_row, column",
        [
            ("1,abc,0,0", "point_score"),
            ("1,0.2,0", "label"),
            ("1,0.2,yes,0", "flag"),
            ("1,nan,0,0", "point_score"),
            ("1,inf,0,0", "point_score"),
        ],
        ids=["non_numeric_score", "short_row", "non_integer_flag", "nan_score", "inf_score"],
    )
    def test_eval_malformed_report_names_row_and_column(self, tmp_path, capsys, bad_row, column):
        report = tmp_path / "report.csv"
        report.write_text(f"t,point_score,flag,label\n0,0.5,0,1\n{bad_row}\n")
        assert cli.main(["eval", "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"row 2, column '{column}'" in err

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
        assert err.startswith("error:")  # no per-epoch progress line came first
        assert not model.exists()

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

"""Shared fixtures: the desk-scale Type I pipeline is expensive, so it runs
once per session (twice, for the determinism checks) and is reused by the
trainer tests and several acceptance criteria."""
from __future__ import annotations

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from gboc import cli

DESK_LENGTH = 2000
DESK_EPOCHS = 10
DESK_SEED = 2024

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
        # GitHub Actions renders this file as the job summary
        summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary:
            with open(summary, "a") as fh:
                fh.write("### Acceptance criteria\n\n```\n" + "\n".join(ACCEPTANCE_LINES) + "\n```\n")


def run_cli_pipeline(
    base: Path,
    kind: str,
    seed: int = DESK_SEED,
    length: int = DESK_LENGTH,
    epochs: int = DESK_EPOCHS,
    train_flags: tuple[str, ...] = (),
) -> dict:
    started = time.monotonic()
    base.mkdir(parents=True, exist_ok=True)
    data = base / "data"
    assert cli.main(["synth", "--kind", kind, "--length", str(length), "--seed", str(seed), "--out", str(data)]) == 0
    model = base / "model.gboc"
    curve = base / "curve.csv"
    assert (
        cli.main(
            [
                "train",
                "--train-csv", str(data / "train.csv"),
                "--label-col", "label",
                "--model", str(model),
                "--out", str(curve),
                "--epochs", str(epochs),
                "--seed", str(seed),
                "--quiet",
                *train_flags,
            ]
        )
        == 0
    )
    report = base / "report.csv"
    assert (
        cli.main(
            [
                "detect",
                "--test-csv", str(data / "test.csv"),
                "--label-col", "label",
                "--model", str(model),
                "--out", str(report),
            ]
        )
        == 0
    )
    return {
        "data": data,
        "model": model,
        "curve": curve,
        "report": report,
        "seconds": time.monotonic() - started,
    }


def read_report(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scores = np.array([float(r["point_score"]) for r in rows])
    flags = np.array([int(r["flag"]) for r in rows], dtype=np.int64)
    labels = np.array([int(r["label"]) for r in rows], dtype=np.int64)
    return scores, flags, labels


def read_curve(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {k: (int(v) if k in ("epoch", "balls_before", "balls_after") else float(v)) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


@pytest.fixture(scope="session")
def desk_clean_runs(tmp_path_factory) -> tuple[dict[str, Path], dict[str, Path]]:
    """The Type I pipeline at desk scale, run twice with identical flags."""
    root = tmp_path_factory.mktemp("desk_clean")
    run_a = run_cli_pipeline(root / "a", "clean")
    run_b = run_cli_pipeline(root / "b", "clean")
    return run_a, run_b

"""Command-line interface: synth, train, detect, eval, dump-balls.

Data goes to files or stdout, progress to stderr; every floating-point value
written to a CSV uses 17 significant digits so round trips are exact. All
commands exit 0 on success and nonzero with a message on any module error.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import metrics, scoring, tsdata
from .errors import GbocError, MissingFile, ModelMismatch, ParseError
from .model_io import load_model, save_model
from .trainer import TrainConfig, train


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _parse_delta_set(text: str) -> tuple[int, ...]:
    try:
        deltas = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"bad delta set {text!r}; expected comma-separated integers") from None
    if not deltas or any(d < 0 for d in deltas):
        raise ParseError("delta set must be nonempty and nonnegative")
    return deltas


def _add_synth(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("synth", help="generate a labeled scenario dataset (train.csv/test.csv)")
    p.add_argument("--kind", required=True, choices=tsdata.SCENARIO_KINDS)
    p.add_argument("--length", type=int, default=2000, help="timesteps per split")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spikes", type=int, default=8)
    p.add_argument("--shifts", type=int, default=2)
    p.add_argument("--spike-mag", type=float, default=5.0)
    p.add_argument("--shift-len", type=int, default=20)
    p.add_argument("--shift-mag", type=float, default=3.0)
    p.add_argument("--drift-slope", type=float, default=0.001)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.add_argument("--channels", type=int, default=1)


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="fit a model on an anomaly-free series")
    p.add_argument("--train-csv", required=True)
    p.add_argument("--label-col", default=None, help="label column to drop from the training features")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--out", default=None, help="optional training-curve CSV")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--decoder-hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--smin", type=int, default=8)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--rebuild-every", type=int, default=1)
    p.add_argument("--gbc-off", action="store_true", help="replace balls with plain k-means centers")
    p.add_argument("--prune-off", action="store_true", help="keep every ball, no radius pruning")
    p.add_argument("--assign-unpruned", action="store_true", help="align against unpruned balls during training")
    p.add_argument("--quiet", action="store_true")


def _add_detect(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("detect", help="score a series with a trained model")
    p.add_argument("--test-csv", required=True)
    p.add_argument("--label-col", default=None, help="carry this label column into the report")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="report CSV")
    p.add_argument("--scores-only", action="store_true", help="emit t,point_score only (no thresholding)")
    p.add_argument("--threshold-fit", choices=("self", "validation"), default="self")
    p.add_argument("--val-csv", default=None, help="normal series for --threshold-fit validation")


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="evaluate a detect report against its labels")
    p.add_argument("--report", required=True, help="report CSV produced by detect")
    p.add_argument("--delta-set", default="0,1,2,3,4")
    p.add_argument("--sigma-aff", type=float, default=None, help="affiliation bandwidth (default: window/2)")
    p.add_argument("--window", type=int, default=2, help="window length used to derive the default bandwidth")
    p.add_argument("--out", default=None, help="optional per-delta CSV")


def _add_dump_balls(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("dump-balls", help="write the model's centers and radii as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)


def cmd_synth(args: argparse.Namespace) -> int:
    params = tsdata.SynthParams(
        n_spikes=args.spikes,
        n_shifts=args.shifts,
        spike_mag=args.spike_mag,
        shift_len=args.shift_len,
        shift_mag=args.shift_mag,
        drift_slope=args.drift_slope,
        noise_std=args.noise_std,
        n_channels=args.channels,
    )
    train_ts, test_ts = tsdata.synth_scenario(args.kind, args.length, args.seed, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tsdata.save_csv(train_ts, out / "train.csv")
    tsdata.save_csv(test_ts, out / "test.csv")
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}", file=sys.stderr)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    for out in (args.model, args.out):
        if out is not None and not Path(out).parent.is_dir():
            raise MissingFile(f"no such directory for output file: {out}")
    ts = tsdata.load_csv(args.train_csv, label_column=args.label_col)
    cfg = TrainConfig(
        window=args.window,
        stride=args.stride,
        layers=args.layers,
        hidden=args.hidden,
        decoder_hidden=args.decoder_hidden,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        lam=args.lam,
        s_min=args.smin,
        mu=args.mu,
        seed=args.seed,
        rebuild_every=args.rebuild_every,
        gbc_off=args.gbc_off,
        prune_off=args.prune_off,
        assign_unpruned=args.assign_unpruned,
    )
    model, reports = train(ts, cfg, verbose=not args.quiet)
    save_model(model, args.model)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_lrec", "mean_lgb", "mean_loss", "balls_before", "balls_after"])
            for r in reports:
                writer.writerow(
                    [r.epoch, _fmt(r.mean_lrec), _fmt(r.mean_lgb), _fmt(r.mean_loss), r.balls_before, r.balls_after]
                )
    print(f"model written to {args.model} ({model.centers.shape[0]} centers)", file=sys.stderr)
    return 0


def _load_for_model(path: str, label_col: str | None, n_channels: int) -> tsdata.TimeSeries:
    ts = tsdata.load_csv(path, label_column=label_col)
    if ts.d != n_channels:
        hint = "; if one of them holds labels, name it with --label-col" if label_col is None else ""
        raise ModelMismatch(f"model expects {n_channels} channel(s), {path} has {ts.channel_names}{hint}")
    return ts


def cmd_detect(args: argparse.Namespace) -> int:
    if args.threshold_fit == "validation" and not args.val_csv:
        raise ParseError("--threshold-fit validation requires --val-csv")
    model = load_model(args.model)
    ts = _load_for_model(args.test_csv, args.label_col, model.encoder.input_size)
    threshold_scores = None
    if args.threshold_fit == "validation":
        val_ts = _load_for_model(args.val_csv, args.label_col, model.encoder.input_size)
        threshold_scores = scoring.detect(model, val_ts).point_scores
    report = scoring.detect(model, ts, threshold_scores=threshold_scores)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if args.scores_only:
            writer.writerow(["t", "point_score"])
            for t, s in enumerate(report.point_scores):
                writer.writerow([t, _fmt(s)])
        else:
            header = ["t", "point_score", "flag"] + (["label"] if ts.labels is not None else [])
            writer.writerow(header)
            for t in range(ts.T):
                row = [t, _fmt(report.point_scores[t]), int(report.flags[t])]
                if ts.labels is not None:
                    row.append(int(ts.labels[t]))
                writer.writerow(row)
    print(
        f"report written to {args.out} (threshold {_fmt(report.threshold)}, {int(report.flags.sum())} flags)",
        file=sys.stderr,
    )
    return 0


def _report_cell(row: list[str], rnum: int, header: list[str], i: int, parse):
    try:
        return parse(row[i])
    except (IndexError, ValueError):
        found = repr(row[i]) if i < len(row) else "nothing (short row)"
        msg = f"report row {rnum}, column {header[i]!r}: cannot read {found}"
        raise ParseError(msg, row=rnum, col=header[i]) from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _read_report(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not Path(path).is_file():
        raise MissingFile(f"no such report file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("report file is empty")
        try:
            i_score = header.index("point_score")
            i_flag = header.index("flag")
        except ValueError:
            raise ParseError("report must have point_score and flag columns") from None
        i_label = header.index("label") if "label" in header else None
        if i_label is None:
            raise ParseError("report has no label column; rerun detect with --label-col")
        scores, flags, labels = [], [], []
        for rnum, row in enumerate(reader, start=1):
            scores.append(_report_cell(row, rnum, header, i_score, _finite_float))
            flags.append(_report_cell(row, rnum, header, i_flag, int))
            labels.append(_report_cell(row, rnum, header, i_label, int))
    return np.array(scores), np.array(flags, dtype=np.int64), np.array(labels, dtype=np.int64)


def cmd_eval(args: argparse.Namespace) -> int:
    scores, flags, labels = _read_report(args.report)
    delta_set = _parse_delta_set(args.delta_set)
    sigma = args.sigma_aff if args.sigma_aff is not None else args.window / 2.0
    result = metrics.evaluate(scores, flags, labels, delta_set=delta_set, sigma=sigma)
    af = "NaN" if np.isnan(result.affiliation_f1) else f"{result.affiliation_f1:.6f}"
    print(f"VUS-PR          {result.vus_pr:.6f}")
    print(f"VUS-ROC         {result.vus_roc:.6f}")
    print(f"Affiliation-F1  {af}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "auc_pr", "auc_roc"])
            for row in result.per_delta:
                writer.writerow([row.delta, _fmt(row.auc_pr), _fmt(row.auc_roc)])
    return 0


def cmd_dump_balls(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    d_lat = model.centers.shape[1]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{i}" for i in range(d_lat)] + ["radius"])
        for center, radius in zip(model.centers, model.radii):
            writer.writerow([_fmt(v) for v in center] + [_fmt(radius)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gboc",
        description="Granular-ball one-class network for time-series anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_train(sub)
    _add_detect(sub)
    _add_eval(sub)
    _add_dump_balls(sub)
    return parser


_DISPATCH = {
    "synth": cmd_synth,
    "train": cmd_train,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "dump-balls": cmd_dump_balls,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (GbocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: synth, train, detect, eval, dump-balls.

Data goes to files or stdout, progress to stderr. Every CSV is read and
written by ``tsdata``, whose writer gives floats 17 significant digits so
round trips are exact. All commands exit 0 on success and nonzero with a
message on any module error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics, scoring, tsdata
from .errors import BadParams, GbocError, MissingFile, ModelMismatch, ParseError
from .model_io import load_model, save_model
from .trainer import EpochReport, GbocModel, TrainConfig, train


def _parse_delta_set(text: str) -> tuple[int, ...]:
    try:
        deltas = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"bad delta set {text!r}; expected comma-separated integers") from None
    if not deltas or any(d < 0 for d in deltas):
        raise ParseError("delta set must be nonempty and nonnegative")
    return deltas


def _add_options(p: argparse.ArgumentParser, cls) -> None:
    """One flag per field of an options dataclass, as gboc.options declares it."""
    for f in dataclasses.fields(cls):
        flag, kind = f.metadata["flag"] or "--" + f.name.replace("_", "-"), f.metadata["kind"]
        if kind.type is bool:
            how = {"action": "store_true", "help": f.metadata["help"]}
        else:
            how = {"metavar": flag[2:].replace("-", "_").upper(), "type": kind.type}
        p.add_argument(flag, dest=f.name, default=f.default, **how)


def _add_synth(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("synth", help="generate a labeled scenario dataset (train.csv/test.csv)")
    p.add_argument("--kind", required=True, choices=tsdata.SCENARIO_KINDS)
    p.add_argument("--length", type=int, default=2000, help="timesteps per split")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", required=True, help="output directory")
    _add_options(p, tsdata.SynthParams)
    p.set_defaults(func=cmd_synth)


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="fit a model on an anomaly-free series")
    p.add_argument("--train-csv", required=True)
    p.add_argument("--label-col", default=None, help="label column to drop from the training features")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--out", default=None, help="optional training-curve CSV")
    _add_options(p, TrainConfig)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)


def _add_detect(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("detect", help="score a series with a trained model")
    p.add_argument("--test-csv", required=True)
    p.add_argument("--label-col", default=None, help="carry this label column into the report")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="report CSV")
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--scores-only", action="store_true", help="emit t,point_score only (no thresholding)")
    threshold.add_argument("--val-csv", help="fit the 3-sigma threshold on this normal series, not the scored one")
    p.set_defaults(func=cmd_detect)


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="evaluate a detect report against its labels")
    p.add_argument("--report", required=True, help="report CSV produced by detect")
    p.add_argument("--delta-set", default=",".join(map(str, metrics.DEFAULT_DELTA_SET)))
    p.add_argument("--sigma-aff", type=float, default=None, help="affiliation bandwidth (default: window/2)")
    p.add_argument(
        "--window", type=int, default=TrainConfig.window, help="window length used to derive the default bandwidth"
    )
    p.add_argument("--out", default=None, help="optional per-delta CSV")
    p.set_defaults(func=cmd_eval)


def _add_dump_balls(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("dump-balls", help="write the model's centers and radii as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_balls)


def _from_args(cls, args: argparse.Namespace):
    """An options dataclass built from the parsed fields of the same names."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_synth(args: argparse.Namespace) -> int:
    params = _from_args(tsdata.SynthParams, args)
    train_ts, test_ts = tsdata.synth_scenario(args.kind, args.length, args.seed, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tsdata.save_csv(train_ts, out / "train.csv")
    tsdata.save_csv(test_ts, out / "test.csv")
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}", file=sys.stderr)
    return 0


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Fail before any work when an output file's directory does not exist,
    the output path is itself a directory, or it names the same file as any
    other path the command was given, input or output: writing it would
    destroy that file. Both dicts map a flag to its path, None if not given."""
    given = {flag: path for flag, path in {**inputs, **outputs}.items() if path is not None}
    for flag, out in outputs.items():
        if out is None:
            continue
        if not Path(out).parent.is_dir():
            raise MissingFile(f"no such directory for output file: {out}")
        if Path(out).is_dir():
            raise BadParams(f"output file is a directory: {out}")
        for other, path in given.items():
            if other != flag and _same_file(out, path):
                raise BadParams(f"{flag} {out} is the same file as {other} {path}")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _from_args(TrainConfig, args)
    _check_outputs({"--model": args.model, "--out": args.out}, {"--train-csv": args.train_csv})
    ts = tsdata.load_csv(args.train_csv, label_column=args.label_col)
    model, reports = train(ts, cfg, verbose=not args.quiet)
    save_model(model, args.model)
    if args.out:
        header = [f.name for f in dataclasses.fields(EpochReport)]
        columns = [np.array([getattr(r, name) for r in reports]) for name in header]
        tsdata.write_csv(args.out, header, columns)
    print(f"model written to {args.model} ({model.centers.shape[0]} centers)", file=sys.stderr)
    return 0


def _load_for_model(path: str, label_col: str | None, n_channels: int) -> tsdata.TimeSeries:
    ts = tsdata.load_csv(path, label_column=label_col)
    if ts.d != n_channels:
        hint = "; if one of them holds labels, name it with --label-col" if label_col is None else ""
        raise ModelMismatch(f"model expects {n_channels} channel(s), {path} has {ts.channel_names}{hint}")
    return ts


def _validation_scores(path: str, label_col: str | None, model: GbocModel) -> np.ndarray:
    """Point scores of the --val-csv series. Its labels go unread, so
    --label-col names a column to drop only when the file's header has it.
    Any error in reading or scoring the series names the file."""
    n_channels = model.encoder.input_size
    try:
        try:
            val_ts = _load_for_model(path, label_col, n_channels)
        except ParseError as exc:
            if label_col is None or (exc.row, exc.col) != (0, label_col):
                raise
            val_ts = _load_for_model(path, None, n_channels)
        return scoring.detect(model, val_ts).point_scores
    except GbocError as exc:
        exc.args = (f"--val-csv {path}: {exc}",)
        raise


def cmd_detect(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"--test-csv": args.test_csv, "--model": args.model, "--val-csv": args.val_csv})
    model = load_model(args.model)
    ts = _load_for_model(args.test_csv, args.label_col, model.encoder.input_size)
    threshold_scores = None if args.val_csv is None else _validation_scores(args.val_csv, args.label_col, model)
    report = scoring.detect(model, ts, threshold_scores=threshold_scores)
    columns = {"t": np.arange(ts.T), "point_score": report.point_scores}
    if args.scores_only:
        summary = "scores only"
    else:
        columns["flag"] = report.flags
        if ts.labels is not None:
            columns["label"] = ts.labels
        summary = f"threshold {report.threshold:.17g}, {int(report.flags.sum())} flags"
    tsdata.write_csv(args.out, list(columns), columns.values())
    print(f"report written to {args.out} ({summary})", file=sys.stderr)
    return 0


def _read_report(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, 0/1 flags and 0/1 labels of a detect report."""
    try:
        report = tsdata.load_csv(path, label_column="label")
    except ParseError as exc:
        if exc.row == 0 and exc.col == "label":
            msg = "report has no label column; rerun detect with --label-col and without --scores-only"
            raise ParseError(msg) from None
        raise
    names = report.channel_names
    if "point_score" not in names or "flag" not in names:
        raise ParseError("report must have point_score and flag columns")
    flags = report.values[:, names.index("flag")]
    bad = np.flatnonzero((flags != 0.0) & (flags != 1.0))
    if bad.size:
        row = int(bad[0]) + 1
        raise ParseError(f"row {row}, column 'flag': {flags[bad[0]]:g} is not 0/1", row=row, col="flag")
    return report.values[:, names.index("point_score")], flags.astype(np.int64), report.labels


def cmd_eval(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"--report": args.report})
    scores, flags, labels = _read_report(args.report)
    delta_set = _parse_delta_set(args.delta_set)
    sigma = args.sigma_aff if args.sigma_aff is not None else args.window / 2.0
    result = metrics.evaluate(scores, flags, labels, delta_set=delta_set, sigma=sigma)
    af = "NaN" if np.isnan(result.affiliation_f1) else f"{result.affiliation_f1:.6f}"
    print(f"VUS-PR          {result.vus_pr:.6f}")
    print(f"VUS-ROC         {result.vus_roc:.6f}")
    print(f"Affiliation-F1  {af}")
    if args.out:
        rows = result.per_delta
        # an object column keeps each delta the Python int given, past 2**63 too
        columns = [np.array([r.delta for r in rows], dtype=object), np.array([r.auc_pr for r in rows]),
                   np.array([r.auc_roc for r in rows])]
        tsdata.write_csv(args.out, ["delta", "auc_pr", "auc_roc"], columns)
    return 0


def cmd_dump_balls(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"--model": args.model})
    model = load_model(args.model)
    header = [f"c{i}" for i in range(model.centers.shape[1])] + ["radius"]
    tsdata.write_csv(args.out, header, [*model.centers.T, model.radii])
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
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # argparse on Python 3.11 reads --flag=-- as an empty list and skips the flag's type
    for action in args.parser._actions:
        if isinstance(getattr(args, action.dest, None), list):
            args.parser.error(f"argument {action.option_strings[0]}: expected one argument")
    try:
        return args.func(args)
    except (GbocError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads, each a closed loop of gboc CLI commands.

One client runs in this process and starts each command only after the
previous one returned; the program sees nothing but the CSVs that ``gboc
synth`` made from the benchmark seed.

- ``desk_fit``: the desk-scale acceptance pipeline (T=2000, 10 epochs, CLI
  defaults). Granular-ball construction does most of the fitting work.
- ``long_window``: the same data with 16-step windows, 5 epochs and two ball
  rebuilds, so the LSTM forward and backward passes dominate the fit.
- ``long_detect``: inference only. Set-up fits a 2-epoch model; the timed
  part scores one 20000-step ``noise`` split, a single huge nearest-center
  query where training makes hundreds of small ones.

Every CLI command is one operation. A command fails when it exits nonzero or
raises, or when a check on the files it wrote fails.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("clean", "noise", "drift_noise")


@dataclass(frozen=True)
class Size:
    length: int  # timesteps of every desk-scale split
    long_length: int  # timesteps of long_detect's scored split
    toy: bool = False  # one epoch everywhere, for the self-check

    def epochs(self, n: int) -> int:
        return 1 if self.toy else n


FULL = Size(length=2000, long_length=20000)
TOY = Size(length=200, long_length=400, toy=True)


@dataclass
class Command:
    op: int
    wall: float
    stdout: str


class Runner:
    """Runs ``gboc.cli.main`` in this process and counts operations."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []

    def __call__(self, *argv) -> Command:
        op = self.attempted
        self.attempted += 1
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash or a usage exit is a failed operation
            code = repr(exc)
        wall = time.perf_counter() - start
        if code != 0:
            self.fail(op, f"gboc {' '.join(argv)} -> {code}: {err.getvalue().strip()[-400:]}")
        return Command(op, wall, out.getvalue())

    def fail(self, op: int, why: str) -> None:
        self.failed.add(op)
        self.errors.append(why)


def digest(path: Path) -> tuple[str, int]:
    """SHA-256 and line count of a file; ("missing", 0) if it was not written."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return "missing", 0
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


@dataclass
class Pass:
    """One run of a workload's timed pipeline."""

    pipeline_s: float = 0.0
    fit_s: float | None = None
    detect_s: float = 0.0
    vus_pr: dict[str, float] = field(default_factory=dict)
    files: dict[str, tuple[str, int]] = field(default_factory=dict)  # name -> (sha256, op)


class Client:
    """The gboc commands a workload issues, with their output checks."""

    def __init__(self, runner: Runner, seed: int, size: Size) -> None:
        self.run = runner
        self.seed = seed
        self.size = size

    def _keep(self, files: dict, name: str, path: Path, op: int, rows: int | None = None) -> None:
        sha, lines = digest(path)
        if sha == "missing":
            self.run.fail(op, f"{name} was not written")
        elif rows is not None and lines != rows + 1:
            self.run.fail(op, f"{name} has {lines - 1} rows, expected {rows}")
        files[name] = (sha, op)

    def synth(self, files: dict, root: Path, kind: str, length: int) -> None:
        out = root / f"{kind}_{length}"
        cmd = self.run("synth", "--kind", kind, "--length", length, "--seed", self.seed, "--out", out)
        for split in ("train.csv", "test.csv"):
            self._keep(files, f"{out.name}/{split}", out / split, cmd.op, rows=length)

    def train(self, files: dict, csv: Path, out: Path, *args) -> float:
        model, curve = out / "model.bin", out / "curve.csv"
        out.mkdir(parents=True, exist_ok=True)
        cmd = self.run("train", "--train-csv", csv, "--label-col", "label", "--model", model, "--out", curve, *args)
        self._keep(files, "model.bin", model, cmd.op)
        self._keep(files, "curve.csv", curve, cmd.op)
        return cmd.wall

    def detect(self, files: dict, csv: Path, model: Path, report: Path, rows: int) -> float:
        report.parent.mkdir(parents=True, exist_ok=True)
        cmd = self.run("detect", "--test-csv", csv, "--label-col", "label", "--model", model, "--out", report)
        self._keep(files, report.name, report, cmd.op, rows=rows)
        return cmd.wall

    def vus_pr(self, report: Path, *args) -> float:
        cmd = self.run("eval", "--report", report, *args)
        for line in cmd.stdout.splitlines():
            if line.startswith("VUS-PR"):
                value = float(line.split()[1])
                if 0.0 <= value <= 1.0:
                    return value
        self.run.fail(cmd.op, f"eval printed no VUS-PR in [0, 1]: {cmd.stdout!r}")
        return float("nan")


class Workload:
    """Set-up makes the inputs (and for long_detect the model); ``pipeline``
    is the timed part; ``accuracy`` scores scenarios the timed part does not."""

    name = ""

    def setup(self, c: Client, root: Path, files: dict) -> float | None:
        """Returns the set-up fit's wall time, or None if set-up does not fit."""
        for kind in KINDS:
            c.synth(files, root, kind, c.size.length)
        return None

    def pipeline(self, c: Client, setup: Path, out: Path) -> Pass:
        raise NotImplementedError

    def accuracy(self, c: Client, setup: Path, out: Path) -> dict[str, float]:
        return {}


class FitWorkload(Workload):
    """Fit once on the shared train split, then detect and eval all three
    scenarios; synth gives the three kinds byte-identical train splits."""

    def __init__(self, name: str, train_args: tuple, eval_args: tuple, epochs: int) -> None:
        self.name, self.train_args, self.eval_args, self.epochs = name, train_args, eval_args, epochs

    def setup(self, c: Client, root: Path, files: dict) -> None:
        super().setup(c, root, files)
        shas = {files[f"{kind}_{c.size.length}/train.csv"] for kind in KINDS}
        if len({sha for sha, _ in shas}) != 1:
            c.run.fail(max(op for _, op in shas), "the scenario kinds no longer share one train split")

    def pipeline(self, c: Client, setup: Path, out: Path) -> Pass:
        n = c.size.length
        p = Pass()
        start = time.perf_counter()
        p.fit_s = c.train(p.files, setup / f"clean_{n}" / "train.csv", out,
                          "--epochs", c.size.epochs(self.epochs), *self.train_args)
        for kind in KINDS:
            report = out / f"report_{kind}.csv"
            p.detect_s += c.detect(p.files, setup / f"{kind}_{n}" / "test.csv", out / "model.bin", report, n)
            p.vus_pr[kind] = c.vus_pr(report, *self.eval_args)
        p.pipeline_s = time.perf_counter() - start
        return p


class LongDetect(Workload):
    name = "long_detect"
    epochs = 2

    def setup(self, c: Client, root: Path, files: dict) -> float:
        for kind in ("clean", "drift_noise"):
            c.synth(files, root, kind, c.size.length)
        c.synth(files, root, "noise", c.size.long_length)
        return c.train(files, root / f"clean_{c.size.length}" / "train.csv", root,
                       "--epochs", c.size.epochs(self.epochs))

    def pipeline(self, c: Client, setup: Path, out: Path) -> Pass:
        n = c.size.long_length
        p = Pass()
        report = out / "report_noise.csv"
        start = time.perf_counter()
        p.detect_s = c.detect(p.files, setup / f"noise_{n}" / "test.csv", setup / "model.bin", report, n)
        p.vus_pr["noise"] = c.vus_pr(report)
        p.pipeline_s = time.perf_counter() - start
        return p

    def accuracy(self, c: Client, setup: Path, out: Path) -> dict[str, float]:
        """The set-up model on the desk-scale clean and drift_noise test splits."""
        n = c.size.length
        vus = {}
        for kind in ("clean", "drift_noise"):
            report = out / f"report_{kind}.csv"
            c.detect({}, setup / f"{kind}_{n}" / "test.csv", setup / "model.bin", report, n)
            vus[kind] = c.vus_pr(report)
        return vus


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload("desk_fit", (), (), epochs=10),
        FitWorkload("long_window", ("--window", "16", "--rebuild-every", "5"), ("--window", "16"), epochs=5),
        LongDetect(),
    )
}

"""Benchmark of the gboc CLI: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_fit --seed 2024 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

gboc is imported from ``src/`` next to this directory (never from an
installed copy) and driven through ``gboc.cli.main(argv)`` in this process.
Workloads are described in ``workloads.py``.

A run sets up from scratch at least ``SETUP_MIN_REPEATS`` times and for at
least ``SETUP_MIN_SECONDS``, and reports the median as ``setup_s``. It then
repeats the workload's timed pipeline until ``--seconds`` have passed and it
ran at least twice. ``--trace 0`` prints the end-to-end metrics: ``setup_s``,
the median ``pipeline_s`` and ``peak_rss_mb``.

With ``--trace 1`` the pipelines alternate between untraced and traced (see
``spans.py``). It prints the per-layer figures as medians over the traced
pipelines, ``trace_overhead_s`` (traced minus untraced ``pipeline_s``), the
untraced ``fit_s`` (wall time of ``gboc train``; for long_detect the set-up
fit) and ``detect_s`` (all ``gboc detect`` calls of a pipeline), and the
VUS-PR of each scenario. Those last three are not end-to-end metrics because
they vary from seed to seed by more than any usable bound: accuracy because
each seed makes other data, and the short timings because a few sub-second
calls sample the host's momentary speed.

Checks: every file a command writes must be byte-identical (SHA-256) to the
same file in the first set-up or first pipeline of the run, whether traced
or not; reports must have one row per timestep; eval must print a VUS-PR.
A command that fails a check, exits nonzero or raises counts as failed.

The last line of stdout is the result as JSON. A fuller record (environment,
file hashes, every repeat, errors) goes to ``.perfbench_out/`` with the
spans of the last traced pipeline.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
MIN_PIPELINES = 2

sys.path.insert(0, str(HERE))
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import FULL, KINDS, TOY, WORKLOADS, Client, Runner, Size  # noqa: E402

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("vus_pr."):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def import_gboc():
    """Import gboc from this checkout's sources; exit 1 if they are absent."""
    if not (SRC / "gboc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no gboc sources at {SRC / 'gboc'}")
    sys.path.insert(0, str(SRC))
    import gboc.cli

    if Path(gboc.cli.__file__).resolve().parent != (SRC / "gboc").resolve():
        raise SystemExit(f"perfbench: imported gboc from {gboc.cli.__file__}, not from {SRC}")
    return gboc


def blas_threads() -> int | None:
    """OpenBLAS's runtime thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def _median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _check_same(runner: Runner, first: dict, later: dict, what: str) -> None:
    for name, (sha, op) in later.items():
        if name in first and sha != first[name][0]:
            runner.fail(op, f"{name} differs from the first {what}")


def run_workload(gboc, name: str, seed: int, seconds: float, trace: bool, size: Size, work: Path,
                 setup_seconds: float = SETUP_MIN_SECONDS) -> dict:
    """Set up, run the timed loop and return the result with its details."""
    workload = WORKLOADS[name]
    runner = Runner(gboc.cli)
    client = Client(runner, seed, size)

    setup_dir = work / "setup"  # the first set-up; repeats go elsewhere and are deleted
    setup_s, setup_fit_s, setup_files = [], [], []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < setup_seconds:
        target = work / "setup-repeat" if setup_s else setup_dir
        files: dict = {}
        start = time.perf_counter()
        fit = workload.setup(client, target, files)
        setup_s.append(time.perf_counter() - start)
        setup_fit_s.append(fit)
        setup_files.append(files)
        _check_same(runner, setup_files[0], files, "set-up")
        if target != setup_dir:
            shutil.rmtree(target)

    passes, traced, layer_runs, tracer = [], [], [], None
    start = time.perf_counter()
    while len(passes) + len(traced) < MIN_PIPELINES or time.perf_counter() - start < seconds:
        if trace and len(passes) > len(traced):
            tracer = Tracer()
            with tracer.installed():
                traced.append(workload.pipeline(client, setup_dir, work / "pass"))
            layer_runs.append(layer_metrics(tracer.spans))
        else:
            passes.append(workload.pipeline(client, setup_dir, work / "pass"))
    for p in passes[1:] + traced:
        _check_same(runner, passes[0].files, p.files, "pipeline")

    vus = {**passes[0].vus_pr, **workload.accuracy(client, setup_dir, work / "accuracy")}
    untraced_s = _median([p.pipeline_s for p in passes])
    if trace:
        metrics = {k: _median([r[k] for r in layer_runs]) for k in layer_runs[0]}
        fits = [p.fit_s for p in passes] if passes[0].fit_s is not None else setup_fit_s
        metrics["fit_s"] = _median(fits)
        metrics["detect_s"] = _median([p.detect_s for p in passes])
        metrics["traced_pipeline_s"] = _median([p.pipeline_s for p in traced])
        metrics["trace_overhead_s"] = metrics["traced_pipeline_s"] - untraced_s
        metrics["trace.unattributed_s"] = _median(
            [p.pipeline_s - sum(r[f"{layer}.self_s"] for layer in LAYERS) for p, r in zip(traced, layer_runs)]
        )
        metrics.update({f"vus_pr.{kind}": vus[kind] for kind in KINDS})
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "pipeline_s": untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "size": vars(size),
        "vus_pr": vus,
        "hashes": {k: sha for k, (sha, _) in {**setup_files[0], **passes[0].files}.items()},
        "setup_s": setup_s,
        "pipelines": [vars(p) | {"files": None} for p in passes],
        "traced_pipelines": [vars(p) | {"files": None} for p in traced],
        "errors": runner.errors,
    }
    return {"result": result, "details": details, "tracer": tracer}


def self_check(gboc) -> int:
    """Run every workload at toy size, untraced and traced, and check that
    each emits exactly the metrics BENCHMARK.json names, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        print("self-check: BENCHMARK.json and workloads.py name different workloads", file=sys.stderr)
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            work = OUT_DIR / f"selfcheck-{name}-{os.getpid()}"
            try:
                out = run_workload(gboc, name, 2024, 0.0, bool(trace), TOY, work, setup_seconds=0.0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            result = out["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} operations "
                                f"failed: {out['details']['errors'][:3]}")
            print(f"self-check {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at toy size and check the emitted metrics")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")

    gboc = import_gboc()
    if args.self_check:
        return self_check(gboc)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        out = run_workload(gboc, args.workload, args.seed, args.seconds, bool(args.trace), FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {**out["details"], "environment": environment(), "result": out["result"]}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if out["tracer"] is not None:
        out["tracer"].write_jsonl(OUT_DIR / f"{tag}-spans.jsonl")
    for error in details["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": details["environment"], "hashes": details["hashes"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

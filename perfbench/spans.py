"""Span tracing of the gboc layers, installed from outside the package.

A layer is one module of ``gboc``. While a :class:`Tracer` is installed,
every public module-level function defined in a layer module is replaced,
wherever ``gboc`` binds it, by a wrapper that records one span: the
function's qualified name, its start and end on ``time.perf_counter``, the
index of the span it was called from, and for a few functions a work count
taken from its arguments or result. Nothing under ``src/gboc`` is edited,
and uninstalling puts every original function back.

Self time is a span's duration minus the time covered by its direct
children; a layer's self time is the sum over that layer's spans. The root
spans are the ``cli.main`` calls, so the self times of all layers add up to
the summed duration of the traced commands.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("cli", "tsdata", "neural", "granular", "trainer", "scoring", "metrics", "model_io")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts recorded on the span of these functions: (args, kwargs, result) -> int.
_COUNTS = {
    # distance evaluations: query rows x centers
    "granular.nearest_centers": lambda a, k, r: len(r[0]) * len(_arg(a, k, 0, "centers")),
    "granular.try_split": lambda a, k, r: int(r is not None),
    "granular.generate": lambda a, k, r: len(r.balls),
    "granular.prune": lambda a, k, r: len(r.balls),
    "neural.encode_batch": lambda a, k, r: len(r),
    "tsdata.load_csv": lambda a, k, r: r.T,
    "model_io.save_model": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; spans stay in memory until written."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions of the imported gboc for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gboc.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        patched = []  # every binding of a wrapped function, in gboc and its modules
        modules = [m for n, m in sys.modules.items() if n == "gboc" or n.startswith("gboc.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "count": s.count}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer figures of one traced pipeline, keyed by metric name.

    Times are summed span durations (children included) unless the name says
    self; counts are span counts or summed work counts.
    """
    own = self_times(spans)

    def pick(name, parent=None, exclude_parent=None):
        out = []
        for s in spans:
            if s.name != name:
                continue
            pname = spans[s.parent].name if s.parent >= 0 else None
            if parent is not None and pname != parent:
                continue
            if exclude_parent is not None and pname == exclude_parent:
                continue
            out.append(s)
        return out

    def total(name, **kw):
        return sum((s.duration for s in pick(name, **kw)), 0.0)

    def counted(name):
        return sum(s.count or 0 for s in pick(name))

    def own_total(name):
        return sum((own[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    attempts = len(pick("granular.try_split"))
    accepted = counted("granular.try_split")
    m = {
        "granular.kmeans_coarse_s": total("granular.kmeans", exclude_parent="granular.try_split"),
        "granular.kmeans_coarse_calls": len(pick("granular.kmeans", exclude_parent="granular.try_split")),
        "granular.kmeans2_s": total("granular.kmeans", parent="granular.try_split"),
        "granular.try_split_s": total("granular.try_split"),
        "granular.split_attempts": attempts,
        "granular.splits_accepted": accepted,
        "granular.split_accept_ratio": accepted / attempts if attempts else 0.0,
        "granular.generate_s": total("granular.generate"),
        "granular.prune_s": total("granular.prune"),
        "granular.balls_before": counted("granular.generate"),
        "granular.balls_after": counted("granular.prune"),
        "granular.nearest_centers_s": total("granular.nearest_centers"),
        "granular.nearest_centers_calls": len(pick("granular.nearest_centers")),
        "granular.nearest_center_pairs": counted("granular.nearest_centers"),
        "neural.encode_batch_s": total("neural.encode_batch"),
        "neural.windows_encoded": counted("neural.encode_batch"),
        "neural.backward_s": total("neural.backward"),
        "neural.backward_calls": len(pick("neural.backward")),
        "neural.opt_step_s": total("neural.opt_step"),
        "trainer.train_s": own_total("trainer.train"),
        "scoring.detect_s": own_total("scoring.detect"),
        "scoring.windows_to_points_s": total("scoring.windows_to_points"),
        "tsdata.load_csv_s": total("tsdata.load_csv"),
        "tsdata.rows_read": counted("tsdata.load_csv"),
        "tsdata.make_windows_s": total("tsdata.make_windows"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.sweep_calls": len(pick("metrics.vus_pr")) + len(pick("metrics.vus_roc")),
        "model_io.save_model_s": total("model_io.save_model"),
        "model_io.load_model_s": total("model_io.load_model"),
        "model_io.model_bytes": counted("model_io.save_model"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((own[i] for i, s in enumerate(spans) if s.name.split(".")[0] == layer), 0.0)
    m["trace.spans"] = len(spans)
    return m

"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("trainer.train", 1.0, 9.0, 0),
        Span("granular.generate", 2.0, 6.0, 1),
        Span("granular.kmeans", 2.5, 4.5, 2),
        Span("cli.main", 10.0, 11.0, -1),
    ]
    assert self_times(spans) == [2.0, 4.0, 2.0, 2.0, 1.0]
    m = layer_metrics(spans)
    assert m["granular.self_s"] == 4.0
    assert m["granular.kmeans_coarse_calls"] == 1
    layers = ("cli", "tsdata", "neural", "granular", "trainer", "scoring", "metrics", "model_io")
    assert sum(m[f"{layer}.self_s"] for layer in layers) == 11.0


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(HERE.parent / "src"))
    import gboc.cli
    import gboc.trainer

    original = gboc.trainer.train
    tracer = Tracer()
    with tracer.installed():
        assert gboc.cli.train is gboc.trainer.train
        assert gboc.cli.train.__wrapped__ is original
    assert gboc.cli.train is original and gboc.trainer.train is original
    assert not hasattr(gboc.granular.kmeans, "__wrapped__")


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--self-check"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("self-check: ok")

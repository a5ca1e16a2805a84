"""The names the benchmark reaches into must exist.

``perfbench/tracer.py`` wraps functions under the names their callers look
up, and the benchmark worker calls package-level functions and reads
``.observations`` off parse results and panels. A cleanup that drops one of
these names would break traced benchmark runs without failing any other
test, so this file checks them. The tracer is only loaded here, never
installed: no attribute of the package is replaced.

``perfbench/run.py`` also reads ``config.threads`` from the manifest of
each ``uplift fit`` run, and its self-test counts a run with
``UPLIFT_THREADS=0`` as failed because ``fit`` exits 2 on it; both are
pinned here too.
"""
from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import discount_uplift as du
from discount_uplift.cli import main
from discount_uplift.domain import ParseResult, SkuPanel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
GOLDEN_INPUT = Path(__file__).parent / "data" / "golden_input.csv"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve_to_callables():
    targets = _tracer_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_worker_names_exist():
    for name in ("DgpConfig", "generate_study", "run_study", "serialize_csv",
                 "summarize"):
        assert callable(getattr(du, name, None)), name
    for cls in (ParseResult, SkuPanel):
        assert isinstance(getattr(cls, "observations", None), property), cls


def test_fit_manifest_records_the_worker_count(tmp_path, monkeypatch):
    monkeypatch.delenv("UPLIFT_THREADS", raising=False)
    usable = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count()
    for flags, threads in (([], usable), (["--threads", "3"], 3)):
        out_dir = tmp_path / str(threads)
        assert main(["fit", "--input", str(GOLDEN_INPUT), "--out-dir",
                     str(out_dir), *flags]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["threads"] == threads


def test_fit_exits_2_on_zero_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("UPLIFT_THREADS", "0")
    assert main(["fit", "--input", str(GOLDEN_INPUT),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()

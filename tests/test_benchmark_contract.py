"""The names the benchmark reaches into must exist.

``perfbench/tracer.py`` wraps functions under the names their callers look
up, and the benchmark worker calls package-level functions and reads
``.observations`` off parse results and panels. A cleanup that drops one of
these names would break traced benchmark runs without failing any other
test, so this file checks them. The tracer is only loaded here, never
installed: no attribute of the package is replaced.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import discount_uplift as du
from discount_uplift.domain import ParseResult, SkuPanel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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

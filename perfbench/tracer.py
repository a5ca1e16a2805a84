"""Outside-in span tracing of discount_uplift's layers.

The tracer replaces public functions under the names their callers look up
(``cli.parse_csv``, ``two_step.fit_ols``, ``ols.t_pvalue`` ...) with wrappers
that record one span per call: id, name, start, end, parent id, thread id
and a small payload of counts read off the call's result. Spans stay in
memory until the traced operation ends. No file of the program changes.

A span opened on a pool thread with no open span of its own takes the
innermost span open on the main thread as its parent: the main thread is
blocked in the call that started the pool (``run_study``).
"""
from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable

# A payload function maps (args, kwargs, result) to a dict of counts.
Payload = Callable[[tuple, dict, Any], dict]


def _parse_payload(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs.get("source")
    size = len(source) if isinstance(source, (bytes, str)) else 0
    return {"rows": len(result.observations), "rejected": len(result.errors),
            "bytes": size}


def _eligible_payload(args, kwargs, result) -> dict:
    eligible, excluded = result
    return {"eligible": len(eligible), "panels": len(eligible) + len(excluded)}


def _fit_payload(args, kwargs, result) -> dict:
    return {"rank_deficient": int(not result.ok)}


def _study_payload(args, kwargs, result) -> dict:
    threads = kwargs.get("threads") or 1
    return {"skus": len(result), "failed": sum(1 for r in result if not r.ok),
            "threads": threads}


def _serialize_payload(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute the caller looks up, span name, payload). The span name
# is the layer that defines the function; the attribute is where the caller
# finds it, so that the wrapper sits on the real call path.
TARGETS: tuple[tuple[str, str, str, Payload | None], ...] = (
    ("discount_uplift.cli", "parse_csv", "domain.parse_csv", _parse_payload),
    ("discount_uplift.cli", "build_panels", "domain.build_panels", None),
    ("discount_uplift.cli", "run_study", "two_step.run_study", _study_payload),
    ("discount_uplift.cli", "summarize", "aggregate.summarize", None),
    ("discount_uplift.cli", "generate_study", "synth.generate_study", None),
    ("discount_uplift.cli", "serialize_csv", "domain.serialize_csv",
     _serialize_payload),
    ("discount_uplift.two_step", "filter_eligible", "domain.filter_eligible",
     _eligible_payload),
    ("discount_uplift.two_step", "fit_ols", "ols.fit_ols", _fit_payload),
    ("discount_uplift.two_step", "predict", "ols.predict", None),
    ("discount_uplift.ols", "t_pvalue", "ols.t_pvalue", None),
    ("discount_uplift.synth", "generate_panel", "synth.generate_panel", None),
    # The library workload calls the package-level names.
    ("discount_uplift", "run_study", "two_step.run_study", _study_payload),
    ("discount_uplift", "summarize", "aggregate.summarize", None),
)


class Tracer:
    """Records spans of wrapped calls; ``spans`` holds tuples
    ``(id, name, start, end, parent, thread, payload)`` with times in
    seconds on the ``time.perf_counter`` clock."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn: Callable,
             payload: Payload | None = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = payload(args, kwargs, result) if payload else {}
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), info))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target attribute; ``uninstall`` puts them back."""
        for module_name, attr, name, payload in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, payload))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and summed payload.

    With a thread pool, seconds are thread-seconds: spans of one name on
    two threads at once both count.
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _, info in spans:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own[span_id]
        for key, value in info.items():
            if key == "threads":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return totals

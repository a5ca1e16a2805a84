"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Runs every workload with ``--size small`` and checks its output:
every metric named in BENCHMARK.json is emitted with its unit, the gate
passes on a healthy program and fails on a broken one, layer self times
add up to the traced wall time, and the exact counts repeat.
"""
from __future__ import annotations

import functools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_totals, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT,
          env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, **(env or {})))


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@functools.cache
def cached(workload: str, trace: int) -> tuple[dict, dict]:
    """One run per workload and mode, shared by the tests that read it."""
    return parsed(bench(workload, trace))


def check_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    detail, result = cached(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0
               for m in SPEC["end_to_end"])
    env = detail["env"]
    for key in ("python", "numpy", "blas", "OPENBLAS_CORETYPE", "nproc",
                "fit_threads", "git_commit"):
        assert key in env
    assert detail["error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_time_sum(workload):
    detail, result = cached(workload, 1)
    check_metrics(result, SPEC["per_layer"])
    value = {k: v["value"] for k, v in result["metrics"].items()}
    wall, total = value["trace.wall_s"], value["trace.self_sum_s"]
    slack = abs(value["trace.overhead_s"]) + 1e-3
    threads = max(1, value["two_step.run_study.threads"])
    if threads == 1:
        assert abs(total - wall) <= slack
    else:
        # Pool threads run layers side by side: thread-seconds exceed wall.
        assert wall - slack <= total <= threads * wall + slack
    assert detail["samples"] >= 1


def test_layer_split_and_counts():
    fit = {k: v["value"] for k, v in cached("fit-csv", 1)[1]["metrics"].items()}
    study = {k: v["value"]
             for k, v in cached("study-mem", 1)[1]["metrics"].items()}
    sim = {k: v["value"]
           for k, v in cached("simulate-csv", 1)[1]["metrics"].items()}
    assert sim["ols.fit_ols.calls"] == 0
    assert sim["synth.generate_panel.calls"] > 0
    ok = study["two_step.run_study.skus"] - study["two_step.run_study.failed"]
    assert study["ols.t_pvalue.calls"] == 19 * ok
    assert study["ols.t_pvalue.used_ratio"] == ok / (19 * ok)
    ols_two_step = (study["ols.fit_ols.self_s"] + study["ols.t_pvalue.s"]
                    + study["ols.predict.s"]
                    + study["two_step.run_study.self_s"])
    assert ols_two_step > 0.5 * study["trace.self_sum_s"]
    assert fit["domain.parse_csv.rows"] == cached("fit-csv", 0)[0]["rows"]
    assert fit["cli.write.bytes"] > 0 and sim["cli.write.bytes"] > 0


def test_simulate_output_is_fit_input():
    fit_detail, _ = cached("fit-csv", 0)
    sim_detail, _ = cached("simulate-csv", 0)
    assert fit_detail["input_digest"] == sim_detail["ops"][0]["digests"][0]


def test_exact_counts_repeat_across_runs():
    first = cached("fit-csv", 1)[1]["metrics"]
    again = parsed(bench("fit-csv", 1))[1]["metrics"]
    for name in ("ols.fit_ols.calls", "ols.t_pvalue.calls",
                 "domain.parse_csv.rows", "cli.write.bytes"):
        assert again[name] == first[name]


def test_failing_program_counts_as_failed():
    # A thread count of 0 makes `uplift fit` exit 2 on every operation.
    detail, result = parsed(bench("fit-csv", 0, env={"UPLIFT_THREADS": "0"}))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert detail["error_rate"] == 1.0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fit-csv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_subtract_covered_children():
    spans = [
        (1, "root", 0.0, 10.0, None, 1, {}),
        (2, "a", 1.0, 4.0, 1, 1, {}),
        (3, "b", 3.0, 6.0, 1, 2, {}),  # overlaps a on another thread
        (4, "c", 2.0, 3.0, 2, 1, {"rows": 5}),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    totals = layer_totals(spans)
    assert totals["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0, "rows": 5}


def test_tracer_restores_wrapped_functions():
    import types

    module = types.ModuleType("fake")
    module.f = lambda x: x + 1
    sys.modules["fake_traced_module"] = module
    try:
        original = module.f
        tracer = Tracer()
        tracer.install([("fake_traced_module", "f", "fake.f",
                         lambda args, kwargs, result: {"out": result})])
        assert module.f(1) == 2 and module.f is not original
        tracer.uninstall()
        assert module.f is original
        (_, name, start, end, parent, _, info), = tracer.spans
        assert (name, parent, info) == ("fake.f", None, {"out": 2})
        assert end >= start
    finally:
        del sys.modules["fake_traced_module"]

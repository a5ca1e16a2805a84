"""One benchmark operation in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC_JSON``. The spec
names the operation, its arguments, the directory to run in (so that paths
the program records are the same in every run), a result path and whether
to trace.
The worker reports ``ready`` (the ``time.monotonic`` reading once
``discount_uplift`` is imported, comparable with the parent's clock) and,
per timed call, its wall and CPU seconds and, when traced, the span totals
per layer. It writes the spans themselves into its directory.

Operations:

* ``cli``: one timed call of ``discount_uplift.cli.main(argv)``; the exit
  code is recorded.
* ``study``: generate the study panels (untimed), then time ``run_study``
  followed by ``summarize`` with library defaults, repeatedly; each call's
  reports and aggregate are written (untimed) for the correctness gate.
* ``reference``: write a CSV with ``generate_study`` and ``serialize_csv``,
  the library path that ``uplift simulate`` must match byte for byte.
* ``probe``: import only, for another sample of the set-up time.
"""
from __future__ import annotations

import time

START = time.monotonic()

import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import discount_uplift as du  # noqa: E402
from discount_uplift import cli  # noqa: E402

READY = time.monotonic()

from tracer import Tracer, layer_totals  # noqa: E402

REPORT_COLUMNS = ("sku", "status", "n_plain", "n_disc", "mean_residual",
                  "gamma10", "gamma10_se", "gamma10_t", "gamma10_p",
                  "significant")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _fmt(value) -> str:
    return "" if value is None else format(value, ".17g")


def study_panels(spec: dict) -> tuple:
    config = du.DgpConfig(seed=spec["seed"], n_days=spec["days"],
                          discount_probability=spec["discount_prob"])
    return du.generate_study(config, spec["skus"], gammas=spec["gammas"])


def panel_oracle(panels) -> dict:
    """Eligibility and weekday coverage counted from raw observations, not
    through the program's panel split or eligibility filter."""
    eligible = rank_deficient = 0
    for panel in panels:
        disc = [o.weekday for o in panel.observations
                if o.discounted_sales >= 1]
        plain = [o.weekday for o in panel.observations
                 if o.discounted_sales == 0]
        if len(panel.observations) >= 100 and len(disc) >= 50:
            eligible += 1
            if len(set(disc)) < 7 or len(set(plain)) < 7:
                rank_deficient += 1
    return {"eligible": eligible, "rank_deficient": rank_deficient}


def write_study_outputs(out_dir: Path, reports, aggregate) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "reports.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            significant = "" if r.significant_positive is None else \
                str(r.significant_positive).lower()
            writer.writerow([r.sku_id, r.status.value, r.n_plain, r.n_disc,
                             _fmt(r.mean_residual), _fmt(r.gamma10),
                             _fmt(r.gamma10_se), _fmt(r.gamma10_t),
                             _fmt(r.gamma10_p), significant])
    (out_dir / "aggregate.json").write_text(json.dumps(
        dataclasses.asdict(aggregate), indent=2, sort_keys=True) + "\n")


def timed(op, root: str, traced: bool,
          spans_path: str) -> tuple[dict, object]:
    """Time one call of ``op``; traced, also record it as span ``root``,
    keep the per-layer totals and write the spans to ``spans_path``."""
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
        op = tracer.wrap(root, op)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        outcome = op()
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer:
            tracer.uninstall()
    record = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
    if tracer:
        record["layers"] = layer_totals(tracer.spans)
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
    return record, outcome


def run(spec: dict) -> dict:
    result: dict = {"ready": READY, "start": START}
    os.chdir(spec["cwd"])
    if spec["op"] == "probe":
        return result
    if spec["op"] == "reference":
        panels = study_panels(spec)
        text = du.serialize_csv(o for p in panels for o in p.observations)
        Path(spec["out"]).write_text(text, encoding="utf-8")
        return result
    if spec["op"] == "cli":
        def main():
            return cli.main(spec["argv"])
        record, result["exit_code"] = timed(main, "cli.main", spec["trace"],
                                            "spans.json")
        result["iterations"] = [record]
        return result

    # study: one process generates the panels once, then repeats the timed
    # call, as a library caller would; every second call is traced when
    # tracing. No call starts that would end after ``until``.
    panels = study_panels(spec)
    result["oracle"] = panel_oracle(panels)

    def study():
        reports = du.run_study(panels)
        return reports, du.summarize(reports)

    iterations: list[dict] = []
    result["iterations"] = iterations
    while len(iterations) < spec["min_iters"] or time.monotonic() + \
            statistics.median(r["wall_s"] for r in iterations) <= spec["until"]:
        k = len(iterations)
        traced = spec["trace"] and k % 2 == 1
        record, (reports, aggregate) = timed(study, "bench.study", traced,
                                             f"spans-{k}.json")
        record["out"] = f"out-{k}"
        write_study_outputs(Path(record["out"]), reports, aggregate)
        del reports, aggregate
        iterations.append(record)
    result["exit_code"] = 0
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

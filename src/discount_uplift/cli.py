"""Command-line front end: ``uplift fit``, ``uplift simulate``, ``uplift cycle``.

``fit`` runs the full pipeline on a CSV dataset and writes machine-readable
reports plus plot-ready summaries; ``simulate`` writes a synthetic dataset
with known ground truth; ``cycle`` runs the replenishment feedback-loop
demonstration. Every output directory gets a ``manifest.json`` sufficient to
re-run the command; all data outputs are deterministic for fixed inputs, the
manifest alone carries the timestamp.

Exit codes: 0 success, 2 invalid input or configuration (including parse
errors and zero eligible SKUs), 1 internal error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import hashlib
import heapq
import io
import json
import math
import os
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .aggregate import AggregateError, StudyAggregate, summarize
from .domain import (DomainError, EligibilityRule, RowIssue, build_panels,
                     csv_blocks, partition_csv)
from .synth import (CycleConfig, DgpConfig, InvalidConfig, cycle_summary,
                    iter_study, simulate_cycle)
# Unused here; perfbench/tracer.py wraps cli.generate_study, cli.parse_csv
# and cli.serialize_csv until its stage recorder replaces them (ROADMAP
# item 6).
from .domain import parse_csv, serialize_csv  # noqa: F401
from .synth import generate_study  # noqa: F401
from .two_step import ReportStatus, Sidedness, StudyReports, run_study


# Row errors and warnings printed per field before the rest are only counted.
ISSUES_SHOWN = 10
FIT_OUTPUTS = ("reports.csv", "aggregate.json", "histogram.csv",
               "boxplot.csv", "manifest.json")
CYCLE_OUTPUTS = ("trace.csv", "summary.json", "manifest.json")


class UserError(Exception):
    """Input problem; reported without a traceback, exit code 2."""


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def _manifest(command: str, config: dict, input_digest: str | None) -> dict:
    return {
        "command": command,
        "config": config,
        "input_digest": input_digest,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
    }


def _check_makedirs(path: Path, flag: str, files: Sequence[str] = ()
                    ) -> Path:
    """Raises UserError unless ``path`` is a directory or can be made one,
    and none of ``files`` in it is a directory: the nearest of it and its
    ancestors that exists, a symbolic link to nothing included, must be a
    directory. Returns that nearest one."""
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise UserError(f"{flag}: {existing} is not a directory")
    for name in files:
        if (path / name).is_dir():
            raise UserError(f"{flag}: {path / name} is a directory")
    return existing


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise UserError("--threads must be at least 1")
        return flag
    env = os.environ.get("UPLIFT_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise UserError(f"UPLIFT_THREADS is not an integer: {env!r}") from exc
        if value < 1:
            raise UserError("UPLIFT_THREADS must be at least 1")
        return value
    return os.cpu_count() or 1


def _print_issues(issues: Sequence[RowIssue], prefix: str, noun: str,
                  counts: dict[str, int] | None = None) -> None:
    """The first ISSUES_SHOWN issues of each field, then one count line per
    field for the rest. ``counts`` gives each field's number of issues when
    ``issues`` holds only the first ones."""
    seen: dict[str, int] = {}
    for issue in issues:
        seen[issue.field] = seen.get(issue.field, 0) + 1
        if seen[issue.field] <= ISSUES_SHOWN:
            print(f"{prefix}{issue}", file=sys.stderr)
    for field in seen:
        count = (counts or seen)[field]
        if count > ISSUES_SHOWN:
            print(f"{prefix}… and {count - ISSUES_SHOWN} more {field} {noun}",
                  file=sys.stderr)


class _IssueLog:
    """Issues of one kind, added in any order: per field, the ISSUES_SHOWN
    first ones in line order (a line's in the order they were added), and
    the number of all."""

    def __init__(self) -> None:
        # Per field, a heap of (-line, -order added, issue): its root is the
        # last of the issues kept.
        self.first: dict[str, list[tuple[int, int, RowIssue]]] = {}
        self.counts: dict[str, int] = {}

    def __len__(self) -> int:
        return sum(self.counts.values())

    def append(self, issue: RowIssue) -> None:
        heap = self.first.setdefault(issue.field, [])
        item = (-issue.line, -len(self), issue)
        self.counts[issue.field] = self.counts.get(issue.field, 0) + 1
        if len(heap) < ISSUES_SHOWN:
            heapq.heappush(heap, item)
        else:
            heapq.heappushpop(heap, item)

    def shown(self) -> list[RowIssue]:
        """The issues kept, in line order."""
        return [issue for _, _, issue in sorted(
            (item for heap in self.first.values() for item in heap),
            reverse=True)]

    def print(self, prefix: str, noun: str) -> None:
        _print_issues(self.shown(), prefix, noun, self.counts)


def _reports_csv(reports: StudyReports, with_store: bool) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["sku", "status", "n_plain", "n_disc", "mean_residual", "gamma10",
              "gamma10_se", "gamma10_t", "gamma10_p", "significant"]
    if with_store:
        header.insert(1, "store")
    writer.writerow(header)
    ok = reports.ok.tolist()
    # A failed row leaves its estimates and its significance empty.
    columns = [reports.sku.tolist(),
               [(ReportStatus.OK if o else ReportStatus.ESTIMATION_FAILED
                 ).value for o in ok],
               reports.n_plain.tolist(), reports.n_disc.tolist()]
    columns += [[_fmt(v) if o else "" for v, o in zip(values.tolist(), ok)]
                for values in (reports.mean_residual, reports.gamma10,
                               reports.gamma10_se, reports.gamma10_t,
                               reports.gamma10_p)]
    columns.append([("true" if v else "false") if o else ""
                    for v, o in zip(reports.significant.tolist(), ok)])
    if with_store:
        columns.insert(1, [store if has else "" for store, has in zip(
            reports.store.tolist(), reports.has_store.tolist())])
    writer.writerows(zip(*columns))
    return out.getvalue()


def _histogram_csv(aggregate: StudyAggregate) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bin_left", "bin_right", "count"])
    edges = aggregate.histogram.edges
    for i, count in enumerate(aggregate.histogram.counts):
        writer.writerow([_fmt(edges[i]), _fmt(edges[i + 1]), count])
    return out.getvalue()


def _boxplot_csv(aggregate: StudyAggregate) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["statistic", "value"])
    box = aggregate.boxplot
    for name in ("minimum", "whisker_low", "q1", "median", "q3",
                 "whisker_high", "maximum"):
        writer.writerow([name, _fmt(getattr(box, name))])
    return out.getvalue()


def _parse_hist_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise UserError(f"--hist-range must be LO:HI, got {text!r}") from exc
    if not (lo < hi and math.isfinite(hi - lo)):
        raise UserError("--hist-range must satisfy LO < HI with HI - LO "
                        f"finite, got {text!r}")
    return lo, hi


def cmd_fit(args: argparse.Namespace) -> int:
    input_path = Path(args.input)
    if not input_path.is_file():
        raise UserError(f"input file not found: {input_path}")
    out_dir = Path(args.out_dir)
    existing = _check_makedirs(out_dir, "--out-dir", FIT_OUTPUTS)
    try:
        rule = EligibilityRule(min_entries=args.min_entries,
                               min_discount_days=args.min_discount_days)
        sidedness = Sidedness(args.sided)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    if not 0.0 < args.alpha < 1.0:
        raise UserError(f"--alpha must be in (0, 1), got {args.alpha}")
    if not 0.0 < args.trim <= 1.0:
        raise UserError(f"--trim must be in (0, 1], got {args.trim}")
    hist_range = _parse_hist_range(args.hist_range)
    if args.hist_bins < 1:
        raise UserError("--hist-bins must be at least 1")
    threads = _resolve_threads(args.threads)

    # The input is read once, and its rows wait in bucket files beside
    # --out-dir (not in the system's temporary directory, which may be held
    # in memory) to be estimated a bucket at a time. Every issue is known
    # before the first is printed, and before any output is written.
    digest = hashlib.sha256()
    errors, warnings = _IssueLog(), _IssueLog()
    parts: list[StudyReports] = []
    n_panels = 0
    with tempfile.TemporaryDirectory(prefix=".uplift-fit-",
                                     dir=existing) as spill:
        with open(input_path, "rb") as handle:
            try:
                partition = partition_csv(handle, Path(spill), digest,
                                          errors)
            except (DomainError, csv.Error) as exc:
                raise UserError(f"{input_path} is not a readable UTF-8 CSV "
                                f"file: {exc}") from exc
        # Every bucket is checked for repeated keys before the first is
        # estimated, so that an error found late wastes no estimation.
        partition.check(errors, warnings)
        for table in () if errors else partition.tables():
            panels = build_panels(table, group_by=args.group_by)
            n_panels += len(panels)
            parts.append(run_study(panels, rule=rule, alpha=args.alpha,
                                   sidedness=sidedness, threads=threads))
    warnings.print("warning: ", "warnings")
    if errors:
        errors.print("", "errors")
        if errors.shown()[0].line == 1:  # the header's; no row was read
            raise UserError(f"invalid header in {input_path}")
        raise UserError(f"{len(errors)} invalid rows in {input_path}")
    reports = StudyReports.concatenate(parts)
    # Each SKU's rows are in one bucket; order them by (sku, store) as a
    # single study would.
    reports = reports.take(np.lexsort((reports.store, reports.sku)))

    if not len(reports):
        raise UserError("no eligible SKUs")
    n_failed = len(reports) - int(np.count_nonzero(reports.ok))
    if n_failed == len(reports):
        raise UserError("estimation failed for every eligible SKU")
    try:
        aggregate = summarize(reports, trim_mass=args.trim,
                              hist_range=hist_range, hist_bins=args.hist_bins)
    except AggregateError as exc:
        raise UserError(str(exc)) from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    with_store = args.group_by == "store-sku"
    _write(out_dir / "reports.csv", _reports_csv(reports, with_store))
    _write_json(out_dir / "aggregate.json", dataclasses.asdict(aggregate))
    _write(out_dir / "histogram.csv", _histogram_csv(aggregate))
    _write(out_dir / "boxplot.csv", _boxplot_csv(aggregate))
    _write_json(out_dir / "manifest.json", _manifest(
        "fit",
        {"input": str(input_path), "out_dir": str(out_dir),
         "min_entries": args.min_entries,
         "min_discount_days": args.min_discount_days, "alpha": args.alpha,
         "sided": args.sided, "trim": args.trim, "hist_range": args.hist_range,
         "hist_bins": args.hist_bins, "group_by": args.group_by,
         "threads": threads},
        digest.hexdigest()))
    print(f"estimated {len(reports) - n_failed} SKUs "
          f"({n_failed} failed, {n_panels - len(reports)} ineligible); "
          f"reports in {out_dir}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.skus < 0:
        raise UserError("--skus must be non-negative")
    try:
        start_date = dt.date.fromisoformat(args.start_date)
    except ValueError as exc:
        raise UserError(f"--start-date must be an ISO date, got "
                        f"{args.start_date!r}") from exc
    config = DgpConfig(
        seed=args.seed, n_days=args.days,
        weekday_effects=tuple(args.weekday_effects),
        forecast_noise_sd=args.forecast_noise_sd, order_up_to=args.order_up_to,
        discount_probability=args.discount_prob,
        discount_intensity=args.intensity, gamma_true=args.gamma,
        demand_noise=args.demand_noise, demand_noise_sd=args.demand_noise_sd,
        start_date=start_date)
    try:
        config.validate()
    except InvalidConfig as exc:
        raise UserError(str(exc)) from exc

    # The file is written under a temporary name in the same directory and
    # renamed when complete, so a failed run leaves no partial dataset.
    out_path = Path(args.out)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    _check_makedirs(out_path.parent, "--out",
                    (out_path.name, manifest_path.name))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    part = out_path.with_name(f".{out_path.name}.{os.getpid()}.part")
    digest = hashlib.sha256()
    try:
        with open(part, "wb") as out:
            for text in csv_blocks(p.table for p in iter_study(config,
                                                                args.skus)):
                data = text.encode("utf-8")
                digest.update(data)
                out.write(data)
        os.replace(part, out_path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    config_dict = dataclasses.asdict(config)
    config_dict["start_date"] = config.start_date.isoformat()
    config_dict["skus"] = args.skus
    _write_json(manifest_path,
                _manifest("simulate", config_dict, digest.hexdigest()))
    print(f"wrote {args.skus * config.n_days} observations for {args.skus} "
          f"SKUs to {out_path}")
    return 0


def cmd_cycle(args: argparse.Namespace) -> int:
    config = CycleConfig(
        seed=args.seed, n_days=args.days,
        true_regular_share=args.true_share, assumed_share=args.assumed_share,
        smoothing_weight=args.smoothing, shelf_life_days=args.shelf_life,
        order_up_to_multiplier=args.multiplier, base_demand=args.base_demand,
        discount_sell_prob=args.sell_prob)
    try:
        config.validate()
    except InvalidConfig as exc:
        raise UserError(str(exc)) from exc

    out_dir = Path(args.out_dir)
    _check_makedirs(out_dir, "--out-dir", CYCLE_OUTPUTS)
    trace = simulate_cycle(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["day", "stock", "forecast", "stickered", "sales",
                     "discounted_sales", "spoilage", "order_placed"])
    for day in trace.days:
        writer.writerow([day.day, day.stock, _fmt(day.forecast),
                         day.stickered, day.sales, day.discounted_sales,
                         day.spoilage, day.order_placed])
    _write(out_dir / "trace.csv", out.getvalue())
    summary = cycle_summary(trace)
    _write_json(out_dir / "summary.json", summary)
    _write_json(out_dir / "manifest.json",
                _manifest("cycle", dataclasses.asdict(config), None))
    last_half = summary["last_half"]
    print(f"simulated {len(trace.days)} days; last-half mean stock "
          f"{last_half['mean_stock']:.2f}, mean spoilage "
          f"{last_half['mean_spoilage']:.2f}; trace in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplift",
        description="Estimate the promotional uplift of discounted sales of "
                    "expiring perishables from store/SKU/day panel data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run the two-step estimation on a CSV")
    fit.add_argument("--input", required=True, help="input CSV dataset")
    fit.add_argument("--out-dir", default="uplift-out")
    fit.add_argument("--min-entries", type=int, default=100)
    fit.add_argument("--min-discount-days", type=int, default=50)
    fit.add_argument("--alpha", type=float, default=0.05)
    fit.add_argument("--sided", choices=[s.value for s in Sidedness],
                     default=Sidedness.TWO_SIDED.value)
    fit.add_argument("--trim", type=float, default=0.95,
                     help="central mass kept of the per-SKU mean residuals")
    fit.add_argument("--hist-range", default="0:1.5",
                     help="LO:HI of the histogram bins; write a negative LO "
                          "as --hist-range=-0.5:1.5")
    fit.add_argument("--hist-bins", type=int, default=30)
    fit.add_argument("--group-by", choices=["sku", "store-sku"], default="sku")
    fit.add_argument("--threads", type=int, default=None,
                     help="default: UPLIFT_THREADS or all cores")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--skus", type=int, default=50)
    sim.add_argument("--days", type=int, default=400)
    sim.add_argument("--gamma", type=float, default=0.6,
                     help="planted uplift per discounted sale")
    sim.add_argument("--discount-prob", type=float, default=0.25)
    sim.add_argument("--intensity", type=float, default=3.5)
    sim.add_argument("--weekday-effects", type=float, nargs=7,
                     default=list(DgpConfig().weekday_effects),
                     metavar="LAMBDA")
    sim.add_argument("--forecast-noise-sd", type=float, default=0.5)
    sim.add_argument("--demand-noise", choices=["gaussian", "poisson"],
                     default="gaussian")
    sim.add_argument("--demand-noise-sd", type=float, default=0.5)
    sim.add_argument("--order-up-to", type=int, default=40)
    sim.add_argument("--start-date", default="2024-01-01")
    sim.add_argument("--out", default="synthetic.csv")
    sim.set_defaults(func=cmd_simulate)

    cyc = sub.add_parser("cycle", help="run the feedback-loop simulation")
    cyc.add_argument("--seed", type=int, default=0)
    cyc.add_argument("--days", type=int, default=365)
    cyc.add_argument("--true-share", type=float, default=0.3)
    cyc.add_argument("--assumed-share", type=float, default=1.0)
    cyc.add_argument("--smoothing", type=float, default=0.2)
    cyc.add_argument("--shelf-life", type=int, default=3)
    cyc.add_argument("--multiplier", type=float, default=2.0)
    cyc.add_argument("--base-demand", type=float, default=5.0)
    cyc.add_argument("--sell-prob", type=float, default=0.85)
    cyc.add_argument("--out-dir", default="cycle-out")
    cyc.set_defaults(func=cmd_cycle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

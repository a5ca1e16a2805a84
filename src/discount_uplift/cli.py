"""Command-line front end: ``uplift fit``, ``uplift simulate``, ``uplift cycle``.

``fit`` runs the full pipeline on a CSV dataset and writes machine-readable
reports plus plot-ready summaries, on ``--threads`` worker processes that
parse pieces of the input and estimate buckets of its SKUs; ``simulate``
writes a synthetic dataset with known ground truth, on one worker process
per usable CPU that generates and renders runs of consecutive SKUs; both
write the same bytes for any worker count. The workers are forked and fed
over pipes (:class:`_Workers`); they end with the main process, and one
that dies makes the run exit 1. ``cycle`` runs the
replenishment feedback-loop demonstration. Every output directory gets a
``manifest.json`` sufficient to re-run the command; all data outputs are
deterministic for fixed inputs, the manifest alone carries the timestamp.

Exit codes: 0 success, 2 invalid input or configuration (including parse
errors and zero eligible SKUs), 1 internal error.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import datetime as dt
import hashlib
import heapq
import io
import itertools
import json
import math
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import traceback
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

try:
    import fcntl
except ImportError:  # no flock: no run locks or sweeps scratch directories
    fcntl = None

from . import __version__, domain, synth
from .aggregate import AggregateError, StudyAggregate, summarize
from .domain import (DomainError, EligibilityRule, Partition, Piece, RowIssue,
                     build_panels, csv_blocks, read_pieces)
from .synth import (CycleConfig, DgpConfig, InvalidConfig, cycle_summary,
                    simulate_cycle)
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


def _fmt(value: float) -> str:
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
    return _usable_cpus()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    def merge(self, other: _IssueLog) -> None:
        """Adds the issues of ``other``, as if they were appended here in
        the order they were appended there."""
        base = len(self)
        for field, items in other.first.items():
            heap = self.first.setdefault(field, [])
            for line, order, issue in items:
                heapq.heappush(heap, (line, order - base, issue))
                if len(heap) > ISSUES_SHOWN:
                    heapq.heappop(heap)
            self.counts[field] = self.counts.get(field, 0) + \
                other.counts[field]

    def shown(self) -> list[RowIssue]:
        """The issues kept, in line order."""
        return [issue for _, _, issue in sorted(
            (item for heap in self.first.values() for item in heap),
            reverse=True)]

    def print(self, prefix: str, noun: str) -> None:
        """The issues kept, then one count line per field for the rest, in
        the order of each field's first issue shown."""
        shown = self.shown()
        for issue in shown:
            print(f"{prefix}{issue}", file=sys.stderr)
        for field in dict.fromkeys(issue.field for issue in shown):
            if self.counts[field] > ISSUES_SHOWN:
                print(f"{prefix}… and {self.counts[field] - ISSUES_SHOWN} "
                      f"more {field} {noun}", file=sys.stderr)


def _csv_text(rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _reports_csv(reports: StudyReports, with_store: bool) -> str:
    header = ["sku", "status", "n_plain", "n_disc", "mean_residual", "gamma10",
              "gamma10_se", "gamma10_t", "gamma10_p", "significant"]
    if with_store:
        header.insert(1, "store")
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
    return _csv_text([header, *zip(*columns)])


def _histogram_csv(aggregate: StudyAggregate) -> str:
    edges = aggregate.histogram.edges
    return _csv_text([("bin_left", "bin_right", "count"), *(
        (_fmt(edges[i]), _fmt(edges[i + 1]), count)
        for i, count in enumerate(aggregate.histogram.counts))])


def _boxplot_csv(aggregate: StudyAggregate) -> str:
    box = aggregate.boxplot
    return _csv_text([("statistic", "value"), *(
        (name, _fmt(getattr(box, name)))
        for name in ("minimum", "whisker_low", "q1", "median", "q3",
                     "whisker_high", "maximum"))])


def _parse_hist_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise UserError(f"--hist-range must be LO:HI, got {text!r}") from exc
    if not (lo < hi and math.isfinite(hi - lo)):
        raise UserError("--hist-range must satisfy LO < HI with HI - LO "
                        f"finite, got {text!r}")
    return lo, hi


@dataclasses.dataclass(frozen=True)
class _Fit:
    """What every process of one ``fit`` shares: its input's descriptor,
    the partition the input is spilled to, and the study's settings."""

    source: int
    partition: Partition
    group_by: str
    rule: EligibilityRule
    alpha: float
    sidedness: Sidedness


# The tasks of a fit, each run in the parent or in a worker: on consecutive
# pieces of the input, then on one bucket at a time.

def _spill(fit: _Fit, pieces: Iterable[Piece]) -> _IssueLog:
    errors = _IssueLog()
    fit.partition.spill(pieces, errors)
    return errors


def _spill_at(fit: _Fit, at: tuple[int, int, int, int]) -> _IssueLog:
    """Spills the piece of the input at ``at`` (first line, first byte,
    length and CRC-32), read again; DomainError if it has changed."""
    line, byte, length, crc = at
    data = os.pread(fit.source, length, byte)
    if len(data) != length or zlib.crc32(data) != crc:
        raise DomainError(f"it changed while it was read (the {length} "
                          f"bytes from line {line}, byte {byte})")
    return _spill(fit, [Piece(data, line, byte)])


def _bucket(fit: _Fit, item: tuple[int, bool]
            ) -> tuple[_IssueLog, _IssueLog, tuple[StudyReports, int] | None]:
    """A bucket's issues, then its reports and panel count if estimated."""
    bucket, estimate = item
    errors, warnings = _IssueLog(), _IssueLog()
    table = fit.partition.table(bucket, errors, warnings)
    if errors or not estimate:
        return errors, warnings, None
    panels = build_panels(table, group_by=fit.group_by)
    return errors, warnings, (run_study(panels, rule=fit.rule, alpha=fit.alpha,
                                        sidedness=fit.sidedness), len(panels))


# The task of a simulate, run in the parent or in a worker.

def _rows(config: DgpConfig, skus: range) -> bytes:
    """The CSV rows of SKUs ``skus``, header skipped, as UTF-8."""
    # generate_panel is looked up per panel, so a wrapper on the module
    # attribute sees every call.
    blocks = csv_blocks(synth.generate_panel(config, sku_id=sku).table
                        for sku in skus)
    next(blocks)  # the header
    return "".join(blocks).encode("utf-8")


def _send(fd: int, data: bytes) -> None:
    """Writes ``data`` to ``fd`` as a frame: its length in 8 bytes, then it."""
    for part in (len(data).to_bytes(8, "little"), memoryview(data)):
        while part:
            part = part[os.write(fd, part):]


def _receive(source: BinaryIO) -> bytes | None:
    """The data of the next frame from ``source``; None if it ends first."""
    head = source.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = source.read(size)
    return data if len(data) == size else None


class _WorkerTraceback(Exception):
    """A worker's traceback, the cause of its exception raised here."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _serve(context: _Fit | DgpConfig, tasks: BinaryIO, results: int) -> None:
    """Runs each ``(task, item)`` frame read from ``tasks`` as ``task(context,
    item)``, until ``tasks`` ends, writing to ``results`` one frame per
    task: ``(True, result)``, or ``(False, exception, traceback)``, or a
    RuntimeError in place of a result or exception that cannot be
    pickled."""
    while (frame := _receive(tasks)) is not None:
        try:
            task, item = pickle.loads(frame)
            reply = (True, task(context, item))
        except BaseException as exc:  # KeyboardInterrupt included
            reply = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "result" if reply[0] else "exception"
            data = pickle.dumps((False, RuntimeError(
                f"a worker's {what} cannot be pickled: {exc!r}"),
                traceback.format_exc() if reply[0] else reply[2]))
        _send(results, data)


class _Workers:
    """Runs tasks on ``context`` (a ``_Fit`` or a ``DgpConfig``) on
    ``count`` worker processes, or in this process when ``count`` is below
    2 or ``os.fork`` is not available.

    The workers are forked at the first task, not spawned, so that they
    share what this process has read by then (a fit's header columns, its
    input's descriptor, the flocked lock of its scratch directory) and do
    not import numpy again. Forking is safe: neither command runs a thread
    in this process. Each worker reads frames (an 8-byte length, then a
    pickle) of tasks from one pipe and writes their results to another.
    Items go to the workers in turn and their results are read in order,
    one at a time, so a worker writing a large result waits for its turn.

    A worker ignores Ctrl-C, which this process handles, and leaves only
    through ``os._exit``, so it never unwinds what this process was doing
    when it forked (the removal of a scratch directory). A thread in each
    worker ends it when this process ends, even if killed outright: it
    waits on a pipe that only this process holds open for writing. A
    worker that dies ends its result pipe, which fails the run. Leaving
    the ``with`` block closes the task pipes, which ends the workers, and
    reaps them; leaving it by an exception kills them first."""

    def __init__(self, context: _Fit | DgpConfig, count: int) -> None:
        self.context = context
        self.forks = count if count > 1 and hasattr(os, "fork") else 0
        # Per worker: its pid, the write end of its task pipe and the read
        # end of its result pipe; and the write end of the workers' lifeline.
        self.workers: list[tuple[int, int, BinaryIO]] = []
        self.lifeline: int | None = None

    def _fork(self) -> None:
        lifeline, self.lifeline = os.pipe()
        for _ in range(self.forks):
            tasks, to_tasks = os.pipe()
            from_results, results = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    for _, sibling, replies in self.workers:
                        os.close(sibling)
                        os.close(replies.fileno())
                    for end in (self.lifeline, to_tasks, from_results):
                        os.close(end)

                    def orphaned() -> None:
                        os.read(lifeline, 1)  # EOF: the main process ended
                        os._exit(1)

                    threading.Thread(target=orphaned, daemon=True).start()
                    _serve(self.context, open(tasks, "rb"), results)
                    code = 0
                finally:
                    os._exit(code)
            os.close(tasks)
            os.close(results)
            self.workers.append((pid, to_tasks, open(from_results, "rb")))
        os.close(lifeline)

    def _give(self, worker: int, task: Callable, item) -> None:
        pid, to_tasks, _ = self.workers[worker]
        frame = pickle.dumps((task, item), pickle.HIGHEST_PROTOCOL)
        try:
            _send(to_tasks, frame)
        except BrokenPipeError:
            raise RuntimeError(f"worker process {pid} ended unexpectedly"
                               ) from None

    def _result(self, worker: int):
        pid, _, replies = self.workers[worker]
        frame = _receive(replies)
        if frame is None:
            raise RuntimeError(f"worker process {pid} ended unexpectedly")
        ok, value, *remote = pickle.loads(frame)
        if ok:
            return value
        value.__cause__ = _WorkerTraceback(*remote)
        raise value

    def map(self, task: Callable, items: Iterable) -> Iterator:
        """``task(context, item)`` for each of ``items``, in order; a task's
        exception is raised in its turn. On workers, at most two items per
        worker are in flight."""
        if not self.forks:
            for item in items:
                yield task(self.context, item)
            return
        if not self.workers:
            self._fork()
        pending: collections.deque = collections.deque()
        for k, item in enumerate(items):
            worker = k % self.forks
            self._give(worker, task, item)
            pending.append(worker)
            if len(pending) >= 2 * self.forks:
                yield self._result(pending.popleft())
        while pending:
            yield self._result(pending.popleft())

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, failed, *_) -> None:
        if failed is not None:
            for pid, _, _ in self.workers:
                os.kill(pid, signal.SIGKILL)
        for _, to_tasks, replies in self.workers:
            os.close(to_tasks)
            replies.close()
        if self.lifeline is not None:
            os.close(self.lifeline)
        for pid, _, _ in self.workers:
            os.waitpid(pid, 0)


@contextlib.contextmanager
def _scratch_directory(parent: Path, command: str) -> Iterator[Path]:
    """A new ``.uplift-<command>-*`` directory in ``parent`` for what a run
    of ``command`` writes before it is done (the buckets of a fit, the
    dataset of a simulate), removed on exit. Until then it holds a ``lock``
    file that this process, and the workers it forks, hold flocked. First,
    every ``.uplift-*`` directory whose lock no process holds, left by a
    run that was killed, is removed; one with no ``lock`` file may be one
    that another run is making, and is left alone."""
    for stale in parent.glob(".uplift-*") if fcntl else ():
        # OSError: no lock file, or a running process holds it.
        with contextlib.suppress(OSError), \
                os.fdopen(os.open(stale / "lock", os.O_RDONLY)) as lock:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(stale, ignore_errors=True)
    scratch = Path(tempfile.mkdtemp(prefix=f".uplift-{command}-", dir=parent))
    with os.fdopen(os.open(scratch / "lock.new", os.O_CREAT | os.O_WRONLY,
                           0o600), "wb") as lock:
        try:
            if fcntl:
                fcntl.flock(lock, fcntl.LOCK_EX)
            os.rename(scratch / "lock.new", scratch / "lock")  # once held
            yield scratch
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def _read_input(workers: _Workers, pieces: Iterator[Piece],
                errors: _IssueLog) -> None:
    """Spills the rows of the input's ``pieces``, adding their row errors to
    ``errors`` in line order. This process reads the header, and every
    piece from the first that holds a quote, since ``csv.reader`` may read
    a quoted record across lines; the workers parse the pieces between,
    each on its own, read again from the input (:func:`_spill_at`), which
    must not change after this process read it into its digest."""
    head = next(pieces, None)
    fit = workers.context
    if not workers.forks or head is None or b'"' in head.data:
        errors.merge(_spill(fit, itertools.chain(
            [head] if head else [], pieces)))
        return
    errors.merge(_spill(fit, [head]))
    if fit.partition.columns is None:  # a bad header
        return
    quoted: list[Piece] = []

    def unquoted() -> Iterator[tuple[int, int, int, int]]:
        for piece in pieces:
            if b'"' in piece.data:
                quoted.append(piece)
                return
            yield (piece.line, piece.byte, len(piece.data),
                   zlib.crc32(piece.data))

    for log in workers.map(_spill_at, unquoted()):
        errors.merge(log)
    if quoted:
        errors.merge(_spill(fit, itertools.chain(quoted, pieces)))


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
    studies: list[tuple[StudyReports, int]] = []  # and their panel counts
    with _scratch_directory(existing, "fit") as spill, \
            open(input_path, "rb") as handle:
        size = handle.seek(0, io.SEEK_END)
        handle.seek(0)
        fit = _Fit(handle.fileno(), Partition(spill, size), args.group_by,
                   rule, args.alpha, sidedness)
        # No more workers than pieces: an input of one piece is fitted here.
        with _Workers(fit, min(threads, -(-size // domain.READ_BYTES))
                      ) as workers:
            try:
                _read_input(workers, read_pieces(handle, digest), errors)
            except (DomainError, csv.Error) as exc:
                raise UserError(f"{input_path} is not a readable UTF-8 CSV "
                                f"file: {exc}") from exc
            # A bucket is estimated only if no error is known as it is handed
            # out: a repeated key wastes the buckets handed out before it is
            # found.
            for found, doubtful, study in workers.map(_bucket, (
                    (b, not errors) for b in fit.partition.filled())):
                errors.merge(found)
                warnings.merge(doubtful)
                if study:
                    studies.append(study)
    warnings.print("warning: ", "warnings")
    if errors:
        errors.print("", "errors")
        if errors.shown()[0].line == 1:  # the header's; no row was read
            raise UserError(f"invalid header in {input_path}")
        raise UserError(f"{len(errors)} invalid rows in {input_path}")
    reports = StudyReports.concatenate([part for part, _ in studies])
    ineligible = sum(panels for _, panels in studies) - len(reports)
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
          f"({n_failed} failed, {ineligible} ineligible); "
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

    # The file is written in a scratch directory beside it and renamed when
    # complete, so a failed run leaves no partial dataset, and a killed one
    # a directory that the next run in the same directory removes.
    out_path = Path(args.out)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    _check_makedirs(out_path.parent, "--out",
                    (out_path.name, manifest_path.name))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # Runs of consecutive SKUs that fill at most one block of rows each (one
    # SKU if it fills more), rendered on one worker per usable CPU: the
    # bytes do not depend on how many.
    per_run = max(1, domain._CHUNK_ROWS // max(1, config.n_days))
    runs = [range(first, min(first + per_run, args.skus + 1))
            for first in range(1, args.skus + 1, per_run)]
    (header,) = csv_blocks(())  # no rows: the header alone
    digest = hashlib.sha256()
    with _scratch_directory(out_path.parent, "simulate") as scratch:
        part = scratch / out_path.name
        with _Workers(config, min(_usable_cpus(), len(runs))) as workers, \
                open(part, "wb") as out:
            for data in itertools.chain([header.encode("utf-8")],
                                        workers.map(_rows, runs)):
                digest.update(data)
                out.write(data)
        os.replace(part, out_path)
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
    _write(out_dir / "trace.csv", _csv_text([
        ("day", "stock", "forecast", "stickered", "sales", "discounted_sales",
         "spoilage", "order_placed"),
        *((day.day, day.stock, _fmt(day.forecast), day.stickered, day.sales,
           day.discounted_sales, day.spoilage, day.order_placed)
          for day in trace.days)]))
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
                     help="worker processes; default: UPLIFT_THREADS, else "
                          "the CPUs this process may use")
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

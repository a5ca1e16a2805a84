"""Benchmark of discount_uplift, end to end and layer by layer.

    python3 perfbench/run.py --workload fit-csv --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each timed operation runs in a fresh
interpreter (``worker.py``) with ``src`` on its path, one process at a
time; the benchmark's own process only spawns, waits and checks. Inputs are
made from ``--seed`` during set-up; then operations repeat, at least
``MIN_OPS`` of them, while the next is expected to end within ``--seconds``.
The benchmark is a closed loop with one client. Every operation passes
through the correctness gate; one that fails it, exits non-zero or times
out counts in ``failed`` and is never dropped.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, medians over the untraced operations. With ``--trace 1`` every
second operation runs traced (``tracer.py``) and the last line holds the
per-layer metrics of the traced ones. The line before it is a JSON record
of the environment, every operation's figures and the gate's findings.

Workloads (see NOTES.md for why each exists and what it should move):

* ``fit-csv``: ``uplift fit`` with CLI defaults on 500 SKUs x 730 days.
* ``study-mem``: ``run_study`` then ``summarize`` on 2000 SKUs x 180 days.
* ``simulate-csv``: ``uplift simulate`` writing the ``fit-csv`` input.

``--size small`` shrinks every workload for the self-test.
"""
from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_OPS = 3
SETUP_SAMPLES = 5
# Every run, set-up included, must end well within three minutes.
DEADLINE_S = 165.0
POLL_S = 0.01

STUDY_GAMMAS = (0.0, 0.3, 0.6, 1.0)
CLI_GAMMA = 0.6  # the default planted gamma of `uplift simulate`
# The mean gamma10 of a group may differ from the planted value by this
# many standard errors of the mean before the gate fails.
GAMMA_TOLERANCE_SE = 6.0

SIZES = {
    "full": {"csv_skus": 500, "csv_days": 730,
             "study_skus": 2000, "study_days": 180},
    "small": {"csv_skus": 40, "csv_days": 400,
              "study_skus": 120, "study_days": 180},
}
WORKLOADS = ("fit-csv", "study-mem", "simulate-csv")

# Counts that repeat exactly for a fixed seed; traced operations must agree.
EXACT_COUNTS = ("ols.fit_ols.calls", "ols.t_pvalue.calls",
                "synth.generate_panel.calls", "domain.parse_csv.rows",
                "domain.serialize_csv.bytes", "cli.write.bytes")


COUNT_UNITS = ("count", "bytes")


class BenchError(RuntimeError):
    """The workload could not be set up or measured at all."""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else math.nan


# --- child processes ----------------------------------------------------

class Runner:
    """Spawns workers one at a time and reaps each with its own rusage."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.setup_samples: list[float] = []
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, spec: dict) -> dict:
        """Run one worker; returns its result merged with what the parent
        saw: exit status, peak RSS, stderr tail. Records its set-up time."""
        self.count += 1
        op_dir = self.work / f"op-{self.count:03d}"
        op_dir.mkdir(parents=True)
        result_path = op_dir / "result.json"
        spec = dict(spec, cwd=str(op_dir), result=str(result_path))
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(op_dir / "stdout"), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(op_dir / "stderr"), flags, 0o644)]
        spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=actions)
        timed_out = False
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > self.deadline and not timed_out:
                    os.kill(pid, signal.SIGKILL)
                    timed_out = True
                time.sleep(POLL_S)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        out = {"dir": op_dir, "timed_out": timed_out,
               "status": os.waitstatus_to_exitcode(status),
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if result_path.is_file():
            out.update(json.loads(result_path.read_text()))
            self.setup_samples.append(out["ready"] - spawned)
        stderr = (op_dir / "stderr").read_text(errors="replace")
        out["stderr"] = stderr[-2000:]
        return out


def child_failure(proc: dict) -> str | None:
    if proc["timed_out"]:
        return "timed out"
    tail = proc["stderr"].strip()[-300:]
    if proc["status"] != 0:
        return f"worker exited {proc['status']}: {tail}"
    if proc.get("exit_code", 0) != 0:
        return f"program exited {proc['exit_code']}: {tail}"
    return None


def operations(proc: dict) -> list[dict]:
    """One record per timed call of a worker; a worker that failed before
    timing anything still counts as one failed operation."""
    failure = child_failure(proc)
    ops = []
    for call in proc.get("iterations") or [{"traced": False}]:
        op = dict(call, dir=proc["dir"] / call.get("out", ""),
                  peak_rss_mb=proc["peak_rss_mb"],
                  oracle=proc.get("oracle"),
                  problems=[failure] if failure else [])
        if "wall_s" not in op and not failure:
            op["problems"].append("no timed call")
        ops.append(op)
    return ops


# --- correctness gate ---------------------------------------------------

def csv_oracle(path: Path) -> dict:
    """Eligible SKUs (CLI defaults: 100 rows, 50 discount days) and those
    among them that must fail as rank deficient because some weekday has no
    discount-free day or no discount day, read straight from the CSV."""
    rows = collections.Counter()
    disc_days: dict[str, set] = collections.defaultdict(set)
    plain_days: dict[str, set] = collections.defaultdict(set)
    n_disc = collections.Counter()
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            sku = row["sku"]
            rows[sku] += 1
            if int(row["discounted_sales"]) >= 1:
                n_disc[sku] += 1
                disc_days[sku].add(row["weekday"])
            else:
                plain_days[sku].add(row["weekday"])
    eligible = [s for s in rows if rows[s] >= 100 and n_disc[s] >= 50]
    deficient = [s for s in eligible
                 if len(disc_days[s]) < 7 or len(plain_days[s]) < 7]
    return {"eligible": len(eligible), "rank_deficient": len(deficient)}


def check_reports(path: Path, oracle: dict, planted) -> list[str]:
    """Row count, failures and per-gamma recovery of a reports CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    if len(rows) != oracle["eligible"]:
        problems.append(f"{len(rows)} report rows for "
                        f"{oracle['eligible']} eligible SKUs")
    failed = sum(1 for r in rows if r["status"] != "ok")
    if failed != oracle["rank_deficient"]:
        problems.append(f"{failed} estimation_failed rows, expected "
                        f"{oracle['rank_deficient']} (weekday coverage)")
    groups = collections.defaultdict(list)
    for r in rows:
        if r["status"] == "ok":
            groups[planted(int(r["sku"]))].append(
                (float(r["gamma10"]), float(r["gamma10_se"])))
    for gamma, pairs in sorted(groups.items()):
        n = len(pairs)
        mean = sum(g for g, _ in pairs) / n
        sem = math.sqrt(sum(se * se for _, se in pairs)) / n
        if not abs(mean - gamma) <= GAMMA_TOLERANCE_SE * sem:
            problems.append(f"planted gamma {gamma}: mean gamma10 {mean:.6f} "
                            f"over {n} SKUs, tolerance "
                            f"{GAMMA_TOLERANCE_SE * sem:.6f}")
    return problems


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --- workloads ----------------------------------------------------------

class Workload:
    """Set-up, measurement and gate of one workload. The CLI workloads run
    one process per operation, as a shell user would."""

    def __init__(self, size: dict, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.rows = size["csv_skus"] * size["csv_days"]

    def simulate_argv(self, out: str) -> list[str]:
        return ["simulate", "--seed", str(self.seed),
                "--skus", str(self.size["csv_skus"]),
                "--days", str(self.size["csv_days"]), "--out", out]

    def setup(self, runner: Runner) -> None:
        pass

    def spec(self) -> dict:
        raise NotImplementedError

    def measure(self, runner: Runner, seconds: float,
                trace: bool) -> list[dict]:
        """At least MIN_OPS operations; then more while the next, at the
        median duration so far, would end within ``seconds``."""
        ops: list[dict] = []
        durations: list[float] = []
        start = time.monotonic()
        while len(ops) < MIN_OPS or \
                time.monotonic() - start + median(durations) <= seconds:
            if time.monotonic() > runner.deadline:
                break
            began = time.monotonic()
            traced = trace and len(ops) % 2 == 1
            ops += operations(runner.spawn(dict(self.spec(), trace=traced)))
            durations.append(time.monotonic() - began)
        return ops

    def check(self, op: dict) -> tuple[list[str], tuple, int]:
        """Problems, output digests and bytes the CLI wrote."""
        raise NotImplementedError


class FitCsv(Workload):
    def setup(self, runner: Runner) -> None:
        proc = runner.spawn({"op": "cli", "trace": False,
                             "argv": self.simulate_argv("input.csv")})
        failure = child_failure(proc)
        if failure:
            raise BenchError(f"generating the fit-csv input: {failure}")
        self.input = proc["dir"] / "input.csv"
        self.input_digest = sha256(self.input)
        self.oracle = csv_oracle(self.input)

    def spec(self) -> dict:
        # Relative, so the paths the manifest records have the same length
        # in every run.
        source = f"../{self.input.parent.name}/{self.input.name}"
        return {"op": "cli",
                "argv": ["fit", "--input", source, "--out-dir", "out"]}

    def check(self, op):
        out = op["dir"] / "out"
        problems = check_reports(out / "reports.csv", self.oracle,
                                 lambda sku: CLI_GAMMA)
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["input_digest"] != self.input_digest:
            problems.append("manifest input digest differs from the input")
        op["fit_threads"] = manifest["config"]["threads"]
        digests = (sha256(out / "reports.csv"), sha256(out / "aggregate.json"))
        return problems, digests, dir_bytes(out)


class StudyMem(Workload):
    """One process generates the panels once and repeats the timed call,
    as a library caller would; the panel generation is not timed."""

    def __init__(self, size: dict, seed: int) -> None:
        super().__init__(size, seed)
        self.rows = size["study_skus"] * size["study_days"]

    def measure(self, runner, seconds, trace):
        return operations(runner.spawn({
            "op": "study", "trace": trace, "seed": self.seed,
            "skus": self.size["study_skus"], "days": self.size["study_days"],
            "discount_prob": 0.4, "gammas": list(STUDY_GAMMAS),
            "min_iters": MIN_OPS, "until": time.monotonic() + seconds}))

    def check(self, op):
        problems = check_reports(
            op["dir"] / "reports.csv", op["oracle"],
            lambda sku: STUDY_GAMMAS[(sku - 1) % len(STUDY_GAMMAS)])
        digests = (sha256(op["dir"] / "reports.csv"),
                   sha256(op["dir"] / "aggregate.json"))
        return problems, digests, 0


class SimulateCsv(Workload):
    def setup(self, runner: Runner) -> None:
        proc = runner.spawn({"op": "reference", "trace": False,
                             "seed": self.seed, "skus": self.size["csv_skus"],
                             "days": self.size["csv_days"],
                             "discount_prob": 0.25, "gammas": None,
                             "out": "reference.csv"})
        failure = child_failure(proc)
        if failure:
            raise BenchError(f"writing the reference CSV: {failure}")
        self.reference_digest = sha256(proc["dir"] / "reference.csv")

    def spec(self) -> dict:
        return {"op": "cli", "argv": self.simulate_argv("synthetic.csv")}

    def check(self, op):
        out = op["dir"] / "synthetic.csv"
        manifest_path = op["dir"] / "synthetic.csv.manifest.json"
        digest = sha256(out)
        problems = []
        if digest != self.reference_digest:
            problems.append("output differs from the fit-csv input "
                            "(generate_study + serialize_csv) for this seed")
        with open(out, "rb") as handle:
            lines = sum(block.count(b"\n")
                        for block in iter(lambda: handle.read(1 << 20), b""))
        if lines != self.rows + 1:
            problems.append(f"{lines - 1} data rows, expected {self.rows}")
        if json.loads(manifest_path.read_text())["input_digest"] != digest:
            problems.append("manifest digest differs from the output")
        return problems, (digest,), out.stat().st_size + \
            manifest_path.stat().st_size


WORKLOAD_CLASSES = {"fit-csv": FitCsv, "study-mem": StudyMem,
                    "simulate-csv": SimulateCsv}


# --- metrics ------------------------------------------------------------

def layer_metrics(op: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    layers = op["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = get("domain.parse_csv", "s")
    reported = get("two_step.run_study", "skus") - \
        get("two_step.run_study", "failed")
    return {
        "domain.parse_csv.s": parse_s,
        "domain.parse_csv.rows": get("domain.parse_csv", "rows"),
        "domain.parse_csv.mb_per_s":
            ratio(get("domain.parse_csv", "bytes") / 1e6, parse_s),
        "domain.parse_csv.rejected": get("domain.parse_csv", "rejected"),
        "domain.build_panels.s": get("domain.build_panels", "s"),
        "domain.filter_eligible.s": get("domain.filter_eligible", "s"),
        "domain.filter_eligible.eligible_ratio":
            ratio(get("domain.filter_eligible", "eligible"),
                  get("domain.filter_eligible", "panels")),
        "domain.serialize_csv.s": get("domain.serialize_csv", "s"),
        "domain.serialize_csv.bytes": get("domain.serialize_csv", "bytes"),
        "synth.generate_study.s": get("synth.generate_study", "s"),
        "synth.generate_panel.calls": get("synth.generate_panel", "calls"),
        "ols.fit_ols.calls": get("ols.fit_ols", "calls"),
        "ols.fit_ols.self_s": get("ols.fit_ols", "self_s"),
        "ols.fit_ols.rank_deficient": get("ols.fit_ols", "rank_deficient"),
        "ols.predict.calls": get("ols.predict", "calls"),
        "ols.predict.s": get("ols.predict", "s"),
        "ols.t_pvalue.calls": get("ols.t_pvalue", "calls"),
        "ols.t_pvalue.s": get("ols.t_pvalue", "s"),
        "ols.t_pvalue.used_ratio":
            ratio(reported, get("ols.t_pvalue", "calls")),
        "two_step.run_study.s": get("two_step.run_study", "s"),
        "two_step.run_study.self_s": get("two_step.run_study", "self_s"),
        "two_step.run_study.skus": get("two_step.run_study", "skus"),
        "two_step.run_study.failed": get("two_step.run_study", "failed"),
        "two_step.run_study.threads": get("two_step.run_study", "threads"),
        "aggregate.summarize.s": get("aggregate.summarize", "s"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.write.bytes": op.get("write_bytes", 0),
        "trace.wall_s": op["wall_s"],
        "trace.self_sum_s": sum(v["self_s"] for v in layers.values()),
    }


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def summarize_ops(ops: list[dict], workload: Workload, trace: bool,
                  setup_samples: list[float]) -> dict[str, float]:
    timed = [op for op in ops if "wall_s" in op]
    plain = [op for op in timed if not op["traced"]]
    if not trace:
        return {
            "wall_s": median([op["wall_s"] for op in plain]),
            "rows_per_s": median([workload.rows / op["wall_s"]
                                  for op in plain]),
            "cpu_s": median([op["cpu_s"] for op in plain]),
            "peak_rss_mb": median([op["peak_rss_mb"] for op in plain]),
            "setup_s": median(setup_samples),
        }
    traced = [layer_metrics(op) for op in timed if op["traced"]]
    if not traced:
        return {}
    # Counts repeat exactly (cross_checks fails the run otherwise); times
    # and rates are medians.
    metrics = {name: (value if isinstance(value, int)
                      else median([m[name] for m in traced]))
               for name, value in traced[0].items()}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
        [op["wall_s"] for op in plain])
    return metrics


# --- environment --------------------------------------------------------

def blas_runtime() -> dict:
    """Runtime configuration (with the detected core) and thread count of
    the OpenBLAS that numpy bundles, when it bundles one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    return {"config": config().decode(), "threads": threads()}
    return {}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **blas_runtime()},
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "UPLIFT_THREADS": os.environ.get("UPLIFT_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "platform": platform.platform(),
    }


# --- one run ------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: int, trace: bool,
        size_name: str) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record)."""
    started = time.monotonic()
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started + DEADLINE_S)
        workload = WORKLOAD_CLASSES[workload_name](SIZES[size_name], seed)
        workload.setup(runner)
        ops = workload.measure(runner, seconds, trace)
        while len(runner.setup_samples) < SETUP_SAMPLES:
            if child_failure(runner.spawn({"op": "probe"})):
                break
        for op in ops:
            if op["problems"]:
                continue
            try:
                op["problems"], op["digests"], op["write_bytes"] = \
                    workload.check(op)
            except (OSError, ValueError, KeyError) as exc:
                op["problems"] = [f"outputs unreadable: {exc!r}"]
        cross_checks(ops)
        metrics = summarize_ops(ops, workload, trace, runner.setup_samples)
        if not metrics or not all(map(math.isfinite, metrics.values())):
            raise BenchError("no operation produced a timing")
        env = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for op in ops if op["problems"])
    units = load_units()
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value if units[name] in COUNT_UNITS
                           else float(value), "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    detail = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size_name, "rows": workload.rows,
        "input_digest": getattr(workload, "input_digest", None),
        "env": dict(env, fit_threads=next(
            (op["fit_threads"] for op in ops if "fit_threads" in op), None)),
        "error_rate": failed / len(ops),
        "samples": sum(1 for op in ops if not op["traced"]),
        "setup_samples": len(runner.setup_samples),
        "elapsed_s": time.monotonic() - started,
        "ops": [{key: op.get(key) for key in
                 ("traced", "wall_s", "cpu_s", "peak_rss_mb", "write_bytes",
                  "digests", "problems")} for op in ops],
    }
    return result, detail


def cross_checks(ops: list[dict]) -> None:
    """Digests must agree across the operations of one run, and the exact
    counts across its traced operations; dissenters fail."""
    passing = [op for op in ops if not op["problems"]]
    if passing:
        common = collections.Counter(op["digests"] for op in passing)
        majority = common.most_common(1)[0][0]
        for op in passing:
            if op["digests"] != majority:
                op["problems"].append("output digests differ from the "
                                      "other operations of this run")
    traced = [op for op in ops if op["traced"] and not op["problems"]]
    if traced:
        counts = [{name: layer_metrics(op)[name] for name in EXACT_COUNTS}
                  for op in traced]
        for op, own in zip(traced[1:], counts[1:]):
            if own != counts[0]:
                op["problems"].append(f"exact counts differ: {own} "
                                      f"vs {counts[0]}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "discount_uplift" / "__init__.py").is_file():
        print(f"error: no discount_uplift sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for op in detail["ops"]:
        for problem in op["problems"]:
            print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import hashlib
import importlib.util
import io
import json
import os
import platform
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import discount_uplift
from discount_uplift import cli, domain, synth
from discount_uplift.cli import main
from discount_uplift.domain import (WEEKDAY_NAMES, ObservationTable,
                                    parse_csv, serialize_csv)
from discount_uplift.synth import DgpConfig, generate_study
from conftest import watch_forks
from oracles import exact_sqrt, exact_two_step

DATA = Path(__file__).parent / "data"

# Digest of the committed seed-7 dataset; simulate must reproduce it exactly.
GOLDEN_INPUT_SHA256 = \
    "da99ec2f8b867e03abb622d43adbe357a20ec1d2569115962dbb8651a67cf6c3"

GOLDEN_SIMULATE_FLAGS = ["--seed", "7", "--skus", "8", "--days", "300",
                         "--gamma", "0.6", "--discount-prob", "0.35"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_digest_is_stable(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["simulate", *GOLDEN_SIMULATE_FLAGS, "--out", str(out)]) == 0
    assert sha256(out) == GOLDEN_INPUT_SHA256
    assert sha256(out) == sha256(DATA / "golden_input.csv")
    manifest = json.loads((tmp_path / "synth.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 7
    assert manifest["input_digest"] == GOLDEN_INPUT_SHA256


def test_simulate_zero_skus_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["simulate", "--skus", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "store,sku,date,weekday,stock,forecast,sales,discounted_sales"]


def test_simulate_accepts_negative_gamma(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["simulate", "--skus", "1", "--days", "30", "--gamma", "-0.2",
                 "--out", str(out)]) == 0


def _library_csv(seed: int, skus: int, days: int) -> bytes:
    panels = generate_study(DgpConfig(seed=seed, n_days=days), skus)
    table = ObservationTable.concat(p.table for p in panels)
    return serialize_csv(table).encode("utf-8")


@pytest.mark.parametrize("chunk_rows, skus, days", [
    (7, 4, 20),  # a panel spans several blocks
    (16, 12, 3),  # a block holds several panels
    (None, 0, 30),  # the header alone
])
def test_simulate_streams_the_library_bytes(tmp_path, monkeypatch,
                                            chunk_rows, skus, days):
    if chunk_rows is not None:
        monkeypatch.setattr(domain, "_CHUNK_ROWS", chunk_rows)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--seed", "5", "--skus", str(skus),
                 "--days", str(days), "--out", str(out)]) == 0
    expected = _library_csv(5, skus, days)
    assert out.read_bytes() == expected
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["input_digest"] == hashlib.sha256(expected).hexdigest()


def _cpus(monkeypatch, count: int) -> None:
    """Makes the CLI see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _childless() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_simulate_generates_at_most_one_block_ahead(tmp_path, monkeypatch):
    # Panels come from synth.generate_panel (the name the benchmark traces).
    # A task renders a run of SKUs that fills at most one block, and in one
    # process no run is generated before the runs ahead of it are written.
    chunk, days = 50, 20
    monkeypatch.setattr(domain, "_CHUNK_ROWS", chunk)
    _cpus(monkeypatch, 1)
    generate, rows = synth.generate_panel, cli._rows
    generated: list[int] = []
    runs: list[tuple[int, range]] = []  # panels generated before each run

    def counting(*args, **kwargs):
        generated.append(1)
        return generate(*args, **kwargs)

    def watching(config, skus):
        runs.append((len(generated), skus))
        return rows(config, skus)

    monkeypatch.setattr(synth, "generate_panel", counting)
    monkeypatch.setattr(cli, "_rows", watching)
    assert main(["simulate", "--skus", "12", "--days", str(days),
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert len(generated) == 12
    assert [sku for _, skus in runs for sku in skus] == list(range(1, 13))
    assert [before for before, _ in runs] == \
        [skus[0] - 1 for _, skus in runs]
    assert max(len(skus) for _, skus in runs) == chunk // days


@pytest.mark.parametrize("skus, days", [
    (12, 20),  # 6 runs of 2 SKUs
    (120, 0),  # 3 runs of empty panels: the header alone
    (0, 30),  # no run: the header alone
    (2, 20),  # one run, which no worker renders
])
def test_simulate_bytes_independent_of_the_worker_count(tmp_path,
                                                        monkeypatch, alarm,
                                                        skus, days):
    chunk = 50
    monkeypatch.setattr(domain, "_CHUNK_ROWS", chunk)
    expected = _library_csv(5, skus, days)
    runs = -(-skus // max(1, chunk // max(1, days)))
    forked = watch_forks(monkeypatch)
    pids = tmp_path / "pids"
    generate = synth.generate_panel

    def recording(config, sku_id):
        _record(pids, str(os.getpid()))
        return generate(config, sku_id=sku_id)

    monkeypatch.setattr(synth, "generate_panel", recording)
    outputs, workers = set(), []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        pids.write_text("")
        out = tmp_path / f"{cpus}.csv"
        assert main(["simulate", "--seed", "5", "--skus", str(skus),
                     "--days", str(days), "--out", str(out)]) == 0
        manifest = json.loads(
            out.with_name(out.name + ".manifest.json").read_text())
        outputs.add((out.read_bytes(), manifest["input_digest"]))
        workers.append(bool(set(pids.read_text().split()) -
                            {str(os.getpid())}))
    assert outputs == {(expected, hashlib.sha256(expected).hexdigest())}
    assert forked == [False, runs > 1, runs > 1]
    assert workers == [False, runs > 1, runs > 1]
    if not skus * days:
        assert expected == (",".join(domain.CSV_COLUMNS) + "\n").encode()


@pytest.mark.parametrize("cpus, how", [(1, "raised"), (2, "raised"),
                                       (2, "killed")],
                         ids=["1", "2", "2-killed"])
@pytest.mark.parametrize("earlier", [None, b"an earlier dataset\n"])
def test_simulate_failure_leaves_no_partial_file(tmp_path, monkeypatch,
                                                 alarm, earlier, cpus, how):
    # On 2 CPUs, the failure is raised in a worker, or the worker kills
    # itself.
    _cpus(monkeypatch, cpus)
    forked = watch_forks(monkeypatch)
    generate = synth.generate_panel
    parent = os.getpid()

    def failing(config, sku_id):
        if sku_id == 3:
            if how == "killed" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("generator failed")
        return generate(config, sku_id=sku_id)

    monkeypatch.setattr(synth, "generate_panel", failing)
    monkeypatch.setattr(domain, "_CHUNK_ROWS", 7)  # blocks precede the failure
    out = tmp_path / "s.csv"
    if earlier is not None:
        out.write_bytes(earlier)
    assert main(["simulate", "--skus", "5", "--days", "20",
                 "--out", str(out)]) == 1
    assert forked == [cpus > 1]
    assert _childless()
    assert [p.name for p in tmp_path.iterdir()] == \
        ([] if earlier is None else ["s.csv"])
    if earlier is not None:
        assert out.read_bytes() == earlier


def test_simulate_out_naming_a_directory_exits_2(tmp_path, monkeypatch,
                                                 capsys):
    generate = synth.generate_panel
    generated = []

    def counting(*args, **kwargs):
        generated.append(1)
        return generate(*args, **kwargs)

    monkeypatch.setattr(synth, "generate_panel", counting)
    assert main(["simulate", "--skus", "3", "--days", "20",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: --out: {tmp_path} is a directory\n"
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--skus", "3", "--days", "20",
                 "--out", str(taken / "s.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: --out: {taken} is not a directory\n"
    assert not generated  # checked before any panel is made
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no .part


def test_simulate_manifest_naming_a_directory_exits_2(tmp_path, monkeypatch,
                                                      capsys):
    manifest = tmp_path / "x.csv.manifest.json"
    manifest.mkdir()
    generate = synth.generate_panel
    generated = []

    def counting(*args, **kwargs):
        generated.append(1)
        return generate(*args, **kwargs)

    monkeypatch.setattr(synth, "generate_panel", counting)
    assert main(["simulate", "--skus", "3", "--days", "20",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: --out: {manifest} is a directory\n"
    assert not generated
    assert [p.name for p in tmp_path.iterdir()] == [manifest.name]


def test_simulate_rejects_invalid_config(tmp_path):
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--discount-prob", "1.5", "--out", str(out)]) == 2
    assert main(["simulate", "--skus", "-2", "--out", str(out)]) == 2


def test_simulate_rejects_non_finite_setting(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--intensity", "nan", "--out", str(out)]) == 2
    assert "discount_intensity must be finite" in capsys.readouterr().err
    for flags, message in (
            (["--weekday-effects", "1e19", "1", "1", "1", "1", "1", "1"],
             "weekday_effects must be at most 2**53"),
            (["--demand-noise-sd", "1e300"],
             "demand_noise_sd must be at most 2**53"),
            (["--intensity", "1e19"],
             "discount_intensity must be at most 2**53")):
        assert main(["simulate", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, field", [
    ("simulate", ["--order-up-to", "10000000000000000000"], "order_up_to"),
    ("simulate", ["--order-up-to", str(1 << 63)], "order_up_to"),
    ("cycle", ["--base-demand", "nan"], "base_demand"),
    ("cycle", ["--multiplier", "inf"], "order_up_to_multiplier"),
    ("cycle", ["--base-demand", "1e300"], "base_demand"),
    ("cycle", ["--multiplier", "1e300"], "order_up_to_multiplier"),
    ("cycle", ["--base-demand", "1e9", "--multiplier", "1e8"],
     "order_up_to_multiplier times base_demand, the first order,")])
def test_out_of_range_setting_exits_2_naming_it(tmp_path, capsys, command,
                                                 flags, field):
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "simulate" else \
        ["--out-dir", str(out)]
    assert main([command, "--days", "30", *flags, *target]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not out.exists()


def test_settings_at_their_bounds_run(tmp_path):
    # The largest order-up-to level and uplifts; a first order of 2**53
    # units that grows a million-fold a day on a one-day shelf life.
    for flags in (["--order-up-to", str((1 << 63) - 1)],
                  ["--gamma", "1e308"], ["--gamma=-1e308"]):
        assert main(["simulate", "--skus", "2", "--days", "30", *flags,
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["cycle", "--days", "5", "--shelf-life", "1",
                 "--base-demand", "1", "--multiplier", str(2 ** 53),
                 "--out-dir", str(tmp_path / "c")]) == 0
    stock = [int(line.split(",")[1]) for line in
             (tmp_path / "c" / "trace.csv").read_text().splitlines()[1:]]
    assert stock[0] == 2 ** 53 and stock[-1] == (1 << 63) - 1


def test_simulate_malformed_start_date_exits_2(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["simulate", "--start-date", "2024-13-01",
                 "--out", str(out)]) == 2
    assert "--start-date" in capsys.readouterr().err
    assert main(["simulate", "--start-date", "9999-12-01", "--days", "60",
                 "--out", str(out)]) == 2


def test_internal_value_error_exits_1(tmp_path, monkeypatch, capsys):
    import discount_uplift.cli as cli

    def broken_study(*args, **kwargs):
        raise ValueError("bug inside the study")

    monkeypatch.setattr(cli, "run_study", broken_study)
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "bug inside the study" in capsys.readouterr().err


def test_fit_user_input_value_errors_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes((DATA / "golden_input.csv").read_bytes()
                       + "1,1,2024-01-01,Monday,5,0.5,1,0 café\n"
                       .encode("latin-1"))
    assert main(["fit", "--input", str(latin1),
                 "--out-dir", str(tmp_path / "a")]) == 2
    assert "not a readable UTF-8 CSV" in capsys.readouterr().err
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--trim", "0.01", "--out-dir", str(tmp_path / "b")]) == 2
    assert "central trimming" in capsys.readouterr().err


def test_fit_names_the_line_and_byte_of_a_non_utf8_byte(tmp_path,
                                                        monkeypatch, capsys):
    # Past the first 64 KiB, a position within the decoder's last read is
    # not the byte's offset in the file. In pieces of 16 KiB, the byte is in
    # the last of several, which a worker decodes at --threads 2.
    golden = (DATA / "golden_input.csv").read_bytes()
    assert len(golden) > 1 << 16
    latin1 = tmp_path / "latin1.csv"
    row = "1,1,2024-01-01,Monday,5,0.5,1,0 café\n"
    latin1.write_bytes(golden + row.encode("latin-1"))
    line, offset = golden.count(b"\n") + 1, len(golden) + row.index("é")
    for read_bytes, threads in ((domain.READ_BYTES, "1"), (1 << 14, "1"),
                                (1 << 14, "2")):
        monkeypatch.setattr(domain, "READ_BYTES", read_bytes)
        assert main(["fit", "--input", str(latin1), "--threads", threads,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {latin1} is not a readable UTF-8 CSV file: line {line}, "
            f"byte {offset}: can't decode byte 0xe9: invalid continuation "
            "byte\n")


class _SpyReader(io.BufferedReader):
    """A binary file that records the size asked of every read in
    ``sizes``."""

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def read1(self, size=-1):
        self.sizes.append(size)
        return super().read1(size)

    def readinto(self, buffer):
        self.sizes.append(len(buffer))
        return super().readinto(buffer)


def test_fit_hashes_and_parses_one_handle_in_bounded_reads(tmp_path,
                                                           monkeypatch):
    opened, sizes = [], []

    def spy_open(path, mode="r", *args, **kwargs):
        assert mode == "rb", mode
        opened.append(Path(path))
        reader = _SpyReader(io.FileIO(path, "rb"))
        reader.sizes = sizes
        return reader

    def unread(self):
        raise AssertionError(f"{self} read whole")

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    monkeypatch.setattr(Path, "read_bytes", unread)
    src = DATA / "golden_input.csv"
    out_dir = tmp_path / "o"
    assert main(["fit", "--input", str(src), "--out-dir", str(out_dir)]) == 0
    monkeypatch.undo()
    assert opened == [src]
    assert sizes and all(0 < size <= domain.READ_BYTES for size in sizes)
    assert (out_dir / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["input_digest"] == GOLDEN_INPUT_SHA256


@pytest.mark.parametrize("extra, code", [
    # Rows repeating one key: every one after the first is a duplicate.
    ("1,999,2024-01-01,Monday,5,0.5,1,0\n" * 5000, 2),
    # One more row, with no newline after it.
    ("1,999,2024-01-01,Monday,5,0.5,1,0", 0),
], ids=["appended-duplicates", "appended-row"])
def test_fit_input_growing_while_read_is_hashed_as_parsed(
        tmp_path, monkeypatch, capsys, extra, code):
    # The file grows after its first read: what fit parses and what it
    # hashes are the same bytes, the grown file. In pieces of 16 KiB, at
    # --threads 2, workers parse the grown file's pieces.
    src = tmp_path / "growing.csv"
    golden = (DATA / "golden_input.csv").read_bytes()

    class Growing(io.BufferedReader):
        grown = False

        def readinto(self, buffer):
            n = super().readinto(buffer)
            if not self.grown:
                self.grown = True
                with open(src, "a") as handle:
                    handle.write(extra)
            return n

    for read_bytes, threads in ((domain.READ_BYTES, "1"), (1 << 14, "1"),
                                (1 << 14, "2")):
        src.write_bytes(golden)
        monkeypatch.setattr(domain, "READ_BYTES", read_bytes)
        monkeypatch.setattr(cli, "open", lambda path, mode: Growing(
            io.FileIO(path, mode)), raising=False)
        out_dir = tmp_path / f"o-{read_bytes}-{threads}"
        assert main(["fit", "--input", str(src), "--out-dir", str(out_dir),
                     "--threads", threads]) == code
        monkeypatch.undo()
        err = capsys.readouterr().err
        grown = src.read_bytes()
        assert grown == golden + extra.encode()
        if code == 2:
            line = golden.count(b"\n") + 2  # the second appended row
            assert err.splitlines()[0] == (
                f"line:{line} field:row duplicate entry for store 1 sku 999 "
                "date 2024-01-01")
            assert err.endswith(f"error: 4999 invalid rows in {src}\n")
            assert not out_dir.exists()
        else:
            assert err == ""
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["input_digest"] == \
                hashlib.sha256(grown).hexdigest()


def test_fit_out_dir_naming_a_file_exits_2_before_reading(tmp_path,
                                                          monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")

    def unread(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_pieces", unread)
    for out_dir in (taken, taken / "sub"):
        assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out-dir: {taken} is not a directory\n"
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["fit", "simulate", "cycle"])
def test_dangling_symlink_as_output_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, command, below):
    # A symbolic link to nothing exists as a name but not as a directory.
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere")
    target = link / below
    studies = []
    study = cli.run_study

    def counting(*args, **kwargs):
        studies.append(1)
        return study(*args, **kwargs)

    monkeypatch.setattr(cli, "run_study", counting)
    flag, argv = {
        "fit": ("--out-dir", ["--input", str(DATA / "golden_input.csv"),
                              "--out-dir", str(target)]),
        "simulate": ("--out", ["--skus", "3", "--days", "20",
                               "--out", str(target / "s.csv")]),
        "cycle": ("--out-dir", ["--days", "5", "--out-dir", str(target)]),
    }[command]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == \
        f"error: {flag}: {link} is not a directory\n"  # and no traceback
    assert studies == []
    assert [p.name for p in tmp_path.iterdir()] == ["link"]
    assert link.is_symlink() and not link.exists()


@pytest.mark.parametrize("name", cli.FIT_OUTPUTS)
def test_fit_output_naming_a_directory_exits_2_before_reading(
        tmp_path, monkeypatch, capsys, name):
    out_dir = tmp_path / "fo"
    (out_dir / name).mkdir(parents=True)

    def unread(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "read_pieces", unread)
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == \
        f"error: --out-dir: {out_dir / name} is a directory\n"
    assert [p.name for p in out_dir.iterdir()] == [name]


def test_fit_rejects_a_cell_over_the_field_size_limit(tmp_path, capsys):
    # Both documents are comma-simple; only csv.reader knows the field limit.
    limit = csv.field_size_limit()
    header = "store,sku,date,weekday,stock,forecast,sales,discounted_sales\n"
    long_cell = "0." + "5" * limit
    too_long = header + f"1,10,2024-01-01,Monday,5,{long_cell},1,0\n"
    with pytest.raises(csv.Error):
        parse_csv(too_long.encode("utf-8"))
    src = tmp_path / "long.csv"
    src.write_text(too_long)
    # In pieces of 16 KiB, the long line is a piece of its own, which a
    # worker parses at --threads 2.
    messages = set()
    for read_bytes, threads in ((domain.READ_BYTES, "1"), (1 << 14, "1"),
                                (1 << 14, "2")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain, "READ_BYTES", read_bytes)
            assert main(["fit", "--input", str(src), "--threads", threads,
                         "--out-dir", str(tmp_path / "o")]) == 2
        messages.add(capsys.readouterr().err)
    (message,) = messages
    assert "not a readable UTF-8 CSV file" in message
    # A line over the limit whose every cell is within it still parses.
    padded = " " * (limit // 2 + 1) + "5"
    result = parse_csv(header + f"1,10,2024-01-01,Monday,{padded},{padded},"
                       "1,0\n")
    assert not result.errors
    assert result.table.stock.tolist() == [5]
    assert result.table.forecast.tolist() == [5.0]


def test_fit_reads_a_byte_order_mark(tmp_path):
    plain = (DATA / "golden_input.csv").read_bytes()
    marked = b"\xef\xbb\xbf" + plain
    assert parse_csv(marked).table == parse_csv(plain).table
    assert parse_csv(marked.decode("utf-8")).table == parse_csv(plain).table
    quoted = b"\xef\xbb\xbf\"store\"" + plain.removeprefix(b"store")
    assert parse_csv(quoted).table == parse_csv(plain).table
    src = tmp_path / "bom.csv"
    src.write_bytes(marked)
    assert main(["fit", "--input", str(src),
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()


def test_fit_prints_bounded_weekday_warnings(tmp_path, capsys):
    # 1,000 rows whose weekday column names the next day: every row warns.
    src = tmp_path / "shifted.csv"
    assert main(["simulate", "--seed", "2", "--skus", "2", "--days", "500",
                 "--out", str(src)]) == 0
    lines = src.read_text().splitlines()
    shifted = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[3] = WEEKDAY_NAMES[(WEEKDAY_NAMES.index(cells[3]) + 1) % 7]
        shifted.append(",".join(cells))
    src.write_text("\n".join(shifted) + "\n")
    capsys.readouterr()
    assert main(["fit", "--input", str(src), "--trim", "1.0",
                 "--out-dir", str(tmp_path / "o")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 11
    assert all(" field:weekday " in line for line in warnings[:10])
    assert warnings[10] == "warning: … and 990 more weekday warnings"


def test_fit_matches_golden_reports(tmp_path):
    out_dir = tmp_path / "out"
    code = main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir), "--threads", "2"])
    assert code == 0
    assert (out_dir / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()
    for name in ("aggregate.json", "histogram.csv", "boxplot.csv",
                 "manifest.json"):
        assert (out_dir / name).is_file()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["min_entries"] == 100
    assert manifest["config"]["min_discount_days"] == 50
    assert manifest["config"]["alpha"] == 0.05
    assert manifest["input_digest"] == GOLDEN_INPUT_SHA256
    aggregate = json.loads((out_dir / "aggregate.json").read_text())
    assert aggregate["n_ok"] == 8 and aggregate["n_failed"] == 0
    assert sum(aggregate["histogram"]["counts"]) \
        + aggregate["histogram_excluded"] == 8


def test_golden_reports_match_exact_oracle():
    # The golden bytes are one rounding of the estimates; each reported
    # estimate must lie within 8 ulps of the exact rational answer.
    days: dict[int, list] = {}
    with open(DATA / "golden_input.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            days.setdefault(int(row["sku"]), []).append((
                WEEKDAY_NAMES.index(row["weekday"]) + 1,
                float(row["forecast"]), int(row["stock"]), int(row["sales"]),
                int(row["discounted_sales"])))
    with open(DATA / "golden_reports.csv", newline="") as handle:
        reports = list(csv.DictReader(handle))
    assert [int(r["sku"]) for r in reports] == sorted(days)
    bound = Fraction(8, 2**52)
    for report in reports:
        mean_residual, gamma10, variance = exact_two_step(
            days[int(report["sku"])])
        for field, exact in (("mean_residual", mean_residual),
                             ("gamma10", gamma10),
                             ("gamma10_se", exact_sqrt(variance))):
            error = abs(Fraction(float(report[field])) - exact)
            assert error <= bound * abs(exact), (report["sku"], field)


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not _numpy_blas_is_openblas(),
    reason="OPENBLAS_CORETYPE selects x86-64 OpenBLAS kernels")
def test_fit_bytes_independent_of_openblas_kernel(tmp_path):
    src = str(Path(discount_uplift.__file__).resolve().parents[1])
    outputs = set()
    for coretype in (None, "Prescott", "Nehalem", "Sandybridge", "Haswell"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        out_dir = tmp_path / (coretype or "default")
        proc = subprocess.run(
            [sys.executable, "-m", "discount_uplift.cli", "fit",
             "--input", str(DATA / "golden_input.csv"),
             "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "reports.csv").read_bytes() == \
            (DATA / "golden_reports.csv").read_bytes(), coretype
        outputs.add((out_dir / "aggregate.json").read_bytes())
    assert len(outputs) == 1


def test_fit_outputs_identical_across_threads_and_runs(tmp_path, monkeypatch):
    import discount_uplift.two_step as two_step

    # The 8 golden SKUs in several batches, pieces and buckets, so that
    # --threads 4 forks workers that parse, check and estimate.
    monkeypatch.setattr(two_step, "BATCH_FITS", 3)
    forked = watch_forks(monkeypatch)
    digests = []
    for run, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out_dir = tmp_path / run
        assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                     "--out-dir", str(out_dir), "--threads", threads]) == 0
        digests.append(tuple(
            sha256(out_dir / name) for name in
            ("reports.csv", "aggregate.json", "histogram.csv", "boxplot.csv")))
    assert digests[0] == digests[1] == digests[2]
    assert forked == [False, True, False]


def test_fit_reads_crlf_pieces_with_the_reader_on_workers(tmp_path,
                                                          monkeypatch):
    # from_bytes reads CRLF pieces itself. With each store id zero-padded
    # to 19 digits, one more than it takes, it declines every piece of
    # 16 KiB, so each goes through csv.reader and _Columns.records: in one
    # process, and in the workers at --threads 2.
    golden = (DATA / "golden_input.csv").read_bytes()
    crlf = golden.replace(b"\n", b"\r\n")
    header, _, body = crlf.partition(b"\r\n")
    padded = header + b"\r\n" + b"\r\n".join(
        line.rjust(len(line) + 19 - line.index(b","), b"0")
        for line in body.split(b"\r\n") if line) + b"\r\n"
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 14)
    log, records = tmp_path / "records", domain._Columns.records

    def logged(self, *args):
        _record(log, str(os.getpid()))
        return records(self, *args)

    monkeypatch.setattr(domain._Columns, "records", logged)
    for name, data, threads, reader in (
            ("crlf", crlf, "1", False), ("padded", padded, "1", True),
            ("padded", padded, "2", True)):
        src = tmp_path / f"{name}.csv"
        src.write_bytes(data)
        log.write_text("")
        files = _fit_files(src, tmp_path / f"{name}{threads}",
                           "--threads", threads)
        assert files["reports.csv"] == \
            (DATA / "golden_reports.csv").read_bytes()
        pids = set(log.read_text().split())
        assert bool(pids) == reader
        assert bool(pids - {str(os.getpid())}) == (threads == "2")


def test_fit_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("store,sku,date,weekday,stock,forecast,sales,"
                     "discounted_sales\n")
    assert main(["fit", "--input", str(empty),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "no eligible SKUs" in capsys.readouterr().err
    empty.write_bytes(b"")  # not even a header
    assert main(["fit", "--input", str(empty),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "line:1 field:header empty file", f"error: invalid header in {empty}"]
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.glob(".uplift-fit-*"))


def test_fit_workers_report_a_bad_header_as_one_process_does(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # The main process reads the header; when it is bad, no piece goes to
    # the workers.
    golden = (DATA / "golden_input.csv").read_bytes()
    src = tmp_path / "in.csv"
    src.write_bytes(golden.replace(b"discounted_sales", b"discounted", 1))
    forked = watch_forks(monkeypatch)
    assert len(golden) > 2 * domain.READ_BYTES
    spill = cli._spill
    spills: list[int] = []

    def counting(fit, pieces):
        spills.append(os.getpid())
        return spill(fit, pieces)

    monkeypatch.setattr(cli, "_spill", counting)
    for threads in ("1", "2"):
        spills.clear()
        assert main(["fit", "--input", str(src), "--threads", threads,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "line:1 field:discounted_sales missing column",
            f"error: invalid header in {src}"]
        assert spills == [os.getpid()]
        assert not list(tmp_path.glob(".uplift-fit-*"))
        assert not (tmp_path / "o").exists()
    assert forked == [False, True]  # workers at --threads 2, given no task


def test_fit_missing_file_exits_2(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_fit_malformed_rows_reported_with_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("store,sku,date,weekday,stock,forecast,sales,"
                   "discounted_sales\n1,10,2024-01-01,Monday,5,0.5,2,3\n")
    assert main(["fit", "--input", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line:2 field:discounted_sales" in err
    bad.write_text("stor,sku,date,weekday,stock,forecast,sales,"
                   "discounted_sales\n1,10,2024-01-01,Monday,5,0.5,2,1\n")
    assert main(["fit", "--input", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "line:1 field:store missing column",
        f"error: invalid header in {bad}"]


def test_issue_log_merge_equals_appending_in_order():
    # Lines 2..61 with up to three issues each. Pieces hold runs of lines
    # and buckets hold lines in any pattern; runs of issues may also split
    # a line's issues between logs.
    rng = np.random.default_rng(5)
    issues = [domain.RowIssue(line, str(rng.choice(["stock", "row"])),
                              f"issue {k}")
              for line in range(2, 62) for k in range(rng.integers(0, 4))]
    whole = cli._IssueLog()
    for issue in issues:
        whole.append(issue)
    for part_of in (lambda i: issues[i].line // 7,
                    lambda i: issues[i].line % 3, lambda i: i // 5):
        parts: dict[int, cli._IssueLog] = {}
        for i, issue in enumerate(issues):
            parts.setdefault(part_of(i), cli._IssueLog()).append(issue)
        merged = cli._IssueLog()
        for key in sorted(parts):
            merged.merge(parts[key])
        assert merged.shown() == whole.shown()
        assert merged.counts == whole.counts and len(merged) == len(issues)


def test_fit_prints_bounded_row_errors(tmp_path, capsys):
    # 40 rows with discounted_sales > sales: one systematic fault.
    bad = tmp_path / "bad.csv"
    start = dt.date(2024, 1, 1)
    rows = [f"1,10,{start + dt.timedelta(days=d)},"
            f"{WEEKDAY_NAMES[(start + dt.timedelta(days=d)).weekday()]},"
            "9,1.5,2,3" for d in range(40)]
    bad.write_text("store,sku,date,weekday,stock,forecast,sales,"
                   "discounted_sales\n" + "\n".join(rows) + "\n")
    assert main(["fit", "--input", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 12
    assert [line.split()[0] for line in err[:10]] == \
           [f"line:{n}" for n in range(2, 12)]
    assert all(" field:discounted_sales " in line for line in err[:10])
    assert err[10] == "… and 30 more discounted_sales errors"
    assert err[11] == f"error: 40 invalid rows in {bad}"


def test_fit_flag_validation(tmp_path):
    src = DATA / "golden_input.csv"
    out = str(tmp_path / "o")
    assert main(["fit", "--input", str(src), "--out-dir", out,
                 "--alpha", "2.0"]) == 2
    for hist_range in ("oops", "0:inf", "-1e308:1e308"):
        assert main(["fit", "--input", str(src), "--out-dir", out,
                     f"--hist-range={hist_range}"]) == 2
    assert main(["fit", "--input", str(src), "--out-dir", out,
                 "--min-entries", "10", "--min-discount-days", "20"]) == 2
    assert main(["fit", "--input", str(src), "--out-dir", out,
                 "--threads", "0"]) == 2
    for flag, value in (("--trim", "0"), ("--trim", "1.5"),
                        ("--hist-bins", "0")):
        assert main(["fit", "--input", str(src), "--out-dir", out,
                     flag, value]) == 2
    assert not Path(out).exists()


def test_fit_exits_2_when_every_eligible_sku_fails(tmp_path, capsys):
    # Discounted sales only on Mondays leave stage 1 no discount-free Monday
    # to fit the Monday effect on, so the one eligible SKU fails.
    days = [dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(120)]
    src = tmp_path / "mondays.csv"
    src.write_text(",".join(domain.CSV_COLUMNS) + "\n" + "".join(
        f"1,7,{day},{WEEKDAY_NAMES[day.weekday()]},10,5.0,4,"
        f"{2 if day.weekday() == 0 else 0}\n" for day in days))
    out_dir = tmp_path / "o"
    assert main(["fit", "--input", str(src), "--out-dir", str(out_dir),
                 "--min-entries", "100", "--min-discount-days", "10"]) == 2
    assert capsys.readouterr().err == \
        "error: estimation failed for every eligible SKU\n"
    assert not out_dir.exists()
    assert not list(tmp_path.glob(".uplift-fit-*"))


def test_fit_negative_hist_range_as_one_word(tmp_path):
    # argparse takes "-0.5:1.5" after a space for an option; "=" binds it.
    out_dir = tmp_path / "o"
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir), "--hist-range=-0.5:1.5"]) == 0
    rows = (out_dir / "histogram.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "-0.5"


def test_fit_group_by_store_adds_store_column(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir), "--group-by", "store-sku"]) == 0
    header = (out_dir / "reports.csv").read_text().splitlines()[0]
    assert header.startswith("sku,store,status,")


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("UPLIFT_THREADS", "2")
    out_dir = tmp_path / "out"
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["threads"] == 2
    monkeypatch.setenv("UPLIFT_THREADS", "zero")
    assert main(["fit", "--input", str(DATA / "golden_input.csv"),
                 "--out-dir", str(out_dir)]) == 2


def test_cycle_paired_runs_show_stock_ordering(tmp_path):
    summaries = {}
    for share in ("0.3", "1.0"):
        out_dir = tmp_path / share
        assert main(["cycle", "--seed", "5", "--days", "365",
                     "--true-share", "0.3", "--assumed-share", share,
                     "--out-dir", str(out_dir)]) == 0
        summaries[share] = json.loads((out_dir / "summary.json").read_text())
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("day,stock,forecast,")
        assert len(trace) == 366
    assert summaries["1.0"]["last_half"]["mean_stock"] > \
        summaries["0.3"]["last_half"]["mean_stock"]


def test_cycle_output_naming_a_directory_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "co"
    (out_dir / "summary.json").mkdir(parents=True)
    assert main(["cycle", "--days", "5", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == \
        f"error: --out-dir: {out_dir / 'summary.json'} is a directory\n"
    assert [p.name for p in out_dir.iterdir()] == ["summary.json"]


def test_cycle_single_day_and_validation(tmp_path):
    out_dir = tmp_path / "one"
    assert main(["cycle", "--days", "1", "--out-dir", str(out_dir)]) == 0
    assert len((out_dir / "trace.csv").read_text().splitlines()) == 2
    assert main(["cycle", "--smoothing", "0", "--out-dir", str(out_dir)]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "discount_uplift.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


# --- the partitioned fit pass ----------------------------------------------

def _by_date(table: ObservationTable) -> bytes:
    """The CSV of ``table`` with its rows in date order, so that consecutive
    rows belong to different SKUs."""
    return serialize_csv(table[np.argsort(table.date, kind="stable")]
                         ).encode("utf-8")


def _two_store_csv() -> bytes:
    golden = parse_csv((DATA / "golden_input.csv").read_bytes()).table
    other = ObservationTable.concat(p.table for p in generate_study(
        DgpConfig(seed=8, n_days=300, discount_probability=0.35), 8))
    other = ObservationTable(np.full(len(other), 2), *other.columns()[1:])
    return _by_date(ObservationTable.concat([golden, other]))


def _fit_files(src: Path, out_dir: Path, *flags: str) -> dict:
    assert main(["fit", "--input", str(src), "--out-dir", str(out_dir),
                 *flags]) == 0
    files = {name: (out_dir / name).read_bytes()
             for name in cli.FIT_OUTPUTS if name != "manifest.json"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    files["input_digest"] = manifest["input_digest"]
    return files


def _library_files(data: bytes, group_by: str) -> dict:
    """What fit writes, computed by parse_csv, build_panels and run_study."""
    reports = discount_uplift.run_study(discount_uplift.build_panels(
        parse_csv(data).table, group_by=group_by))
    aggregate = discount_uplift.summarize(reports)
    return {"reports.csv": cli._reports_csv(reports, group_by == "store-sku"),
            "aggregate.json": json.dumps(dataclasses.asdict(aggregate),
                                         indent=2, sort_keys=True) + "\n",
            "histogram.csv": cli._histogram_csv(aggregate),
            "boxplot.csv": cli._boxplot_csv(aggregate),
            "input_digest": hashlib.sha256(data).hexdigest()}


def _small_buckets(monkeypatch, size: int, buckets: int,
                   lines: int = 7) -> list[int]:
    """Makes fit spill a ``size``-byte file to ``buckets`` buckets, blocks
    of ``lines`` lines; returns the bucket counts of the partitions made."""
    monkeypatch.setattr(domain, "BUCKET_BYTES", -(-size // buckets))
    monkeypatch.setattr(domain, "_PARSE_LINES", lines)
    made: list[int] = []

    class Counting(domain.Partition):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self.buckets)

    monkeypatch.setattr(cli, "Partition", Counting)
    return made


def _record(path: Path, text: str) -> None:
    """Appends a line to ``path``, from whichever process runs it."""
    with open(path, "a") as handle:
        handle.write(text + "\n")


@pytest.mark.parametrize("group_by", ["sku", "store-sku"])
def test_fit_buckets_equal_one_bucket_and_the_library(tmp_path, monkeypatch,
                                                       group_by):
    data = _by_date(parse_csv((DATA / "golden_input.csv").read_bytes()
                              ).table) if group_by == "sku" else \
        _two_store_csv()
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    flags = ("--group-by", group_by)
    whole = _fit_files(src, tmp_path / "whole", *flags)
    made = _small_buckets(monkeypatch, len(data), 7)
    split = _fit_files(src, tmp_path / "split", *flags)
    assert made == [7]
    assert split == whole
    expected = _library_files(data, group_by)
    assert {name: value if name == "input_digest" else value.decode()
            for name, value in split.items()} == expected
    if group_by == "sku":
        assert split["reports.csv"] == \
            (DATA / "golden_reports.csv").read_bytes()
    else:
        assert len(split["reports.csv"].splitlines()) == 1 + 16


def _mixed_error_csv() -> bytes:
    """Golden rows in date order with faults: malformed cells, short rows, a
    quoted cell, invariant breaches, duplicates far from the rows they
    repeat, two rows repeating malformed ones (not duplicates) and more
    weekday mismatches than are shown."""
    lines = _by_date(parse_csv((DATA / "golden_input.csv").read_bytes()
                               ).table).decode().splitlines()
    body = lines[1:]
    for i in range(0, 240, 20):  # 12 malformed stock cells
        cells = body[i].split(",")
        cells[4] = "x"
        body[i] = ",".join(cells)
    for i in (301, 602, 903):  # short rows
        body[i] = ",".join(body[i].split(",")[:5])
    cells = body[1000].split(",")
    cells[5] = f'"{cells[5]}"'  # a block for csv.reader
    body[1000] = ",".join(cells)
    for i in (1100, 1101, 1500, 1999):  # sales over stock
        cells = body[i].split(",")
        cells[6] = str(int(cells[4]) + 1)
        body[i] = ",".join(cells)
    for i in range(1200, 1200 + 15 * 11, 11):  # 15 weekday mismatches
        cells = body[i].split(",")
        cells[3] = WEEKDAY_NAMES[(WEEKDAY_NAMES.index(cells[3]) + 2) % 7]
        body[i] = ",".join(cells)
    # 12 repeats; the 11th and the last repeat rows whose stock is malformed
    repeats = [lines[1 + i] for i in range(50, 50 + 12 * 13, 13)]
    repeats.append(lines[1])
    return ("\n".join([lines[0], *body, *repeats]) + "\n").encode()


def test_fit_buckets_print_the_library_issues(tmp_path, monkeypatch, capsys):
    data = _mixed_error_csv()
    src = tmp_path / "mixed.csv"
    src.write_bytes(data)
    parsed = parse_csv(data)
    assert 2 * cli.ISSUES_SHOWN < len(parsed.errors)
    for issues, prefix, noun in ((parsed.warnings, "warning: ", "warnings"),
                                 (parsed.errors, "", "errors")):
        log = cli._IssueLog()
        for issue in issues:
            log.append(issue)
        log.print(prefix, noun)
    expected = capsys.readouterr().err + \
        f"error: {len(parsed.errors)} invalid rows in {src}\n"
    assert "… and 2 more stock errors" in expected
    assert "… and 4 more row errors" in expected
    assert "… and 5 more weekday warnings" in expected

    # Each issue is appended once, in the process that finds it: the
    # workers parse the pieces before the quoted cell's, and check buckets.
    held = tmp_path / "held"
    append = cli._IssueLog.append

    def watching(self, issue):
        append(self, issue)
        _record(held, str(max(map(len, self.first.values()))))

    monkeypatch.setattr(cli._IssueLog, "append", watching)
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 13)
    # In one block of 4,096 lines, each repeat shares a block and a bucket
    # with the row it repeats.
    for threads in ("1", "2"):
        held.write_text("")
        for buckets, lines in ((1, 7), (6, 7), (6, 4096)):
            made = _small_buckets(monkeypatch, len(data), buckets, lines)
            assert main(["fit", "--input", str(src), "--threads", threads,
                         "--out-dir", str(tmp_path / "o")]) == 2
            assert made == [buckets]
            assert capsys.readouterr().err == expected
        sizes = [int(size) for size in held.read_text().split()]
        assert max(sizes) == cli.ISSUES_SHOWN
        assert len(sizes) == 3 * (len(parsed.errors) + len(parsed.warnings))
    assert not (tmp_path / "o").exists()


def test_fit_estimates_no_bucket_after_a_duplicate(tmp_path, monkeypatch,
                                                   capsys):
    # A repeated key in the last of 4 buckets (sku 5's) exits 2, and stops
    # the estimation there: only the 3 buckets before it are estimated.
    # Without it, each of the 4 buckets is estimated.
    golden = (DATA / "golden_input.csv").read_bytes()
    repeated = golden + golden.splitlines(keepends=True)[1 + 4 * 300]
    studies: list[list[int]] = []
    study = cli.run_study

    def counting(panels, **kwargs):
        studies.append(sorted(p.sku_id for p in panels))
        return study(panels, **kwargs)

    monkeypatch.setattr(cli, "run_study", counting)
    for data, code, estimated in ((repeated, 2, 3), (golden, 0, 4)):
        src = tmp_path / f"in-{code}.csv"
        src.write_bytes(data)
        made = _small_buckets(monkeypatch, len(data), 4)
        studies.clear()
        assert main(["fit", "--input", str(src), "--threads", "1",
                     "--out-dir", str(tmp_path / f"out-{code}")]) == code
        assert made == [4] and len(studies) == estimated
        assert (5 in studies[-1]) == (code == 0)
    assert "duplicate" in capsys.readouterr().err
    assert not (tmp_path / "out-2").exists()


def test_fit_workers_estimate_no_bucket_after_a_duplicate(tmp_path,
                                                          monkeypatch):
    # As above, with the buckets checked and estimated by 2 workers, which
    # record the SKUs of each study they run in a file. Those handed out
    # before the duplicate is found may be estimated; its own is not.
    golden = (DATA / "golden_input.csv").read_bytes()
    repeated = golden + golden.splitlines(keepends=True)[1 + 4 * 300]
    studies = tmp_path / "studies"
    study = cli.run_study

    def counting(panels, **kwargs):
        _record(studies, f"{os.getpid()} {sorted(p.sku_id for p in panels)}")
        return study(panels, **kwargs)

    monkeypatch.setattr(cli, "run_study", counting)
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 14)
    for data, code, most in ((repeated, 2, 3), (golden, 0, 4)):
        src = tmp_path / f"in-{code}.csv"
        src.write_bytes(data)
        made = _small_buckets(monkeypatch, len(data), 4)
        studies.write_text("")
        assert main(["fit", "--input", str(src), "--threads", "2",
                     "--out-dir", str(tmp_path / f"out-{code}")]) == code
        lines = studies.read_text().splitlines()
        assert made == [4] and len(lines) <= most
        assert any(5 in json.loads(line.split(" ", 1)[1])
                   for line in lines) == (code == 0)
    assert len(lines) == 4
    assert str(os.getpid()) not in {line.split()[0] for line in lines}


def test_fit_reads_each_bucket_once(tmp_path, monkeypatch):
    # Each bucket's file is read once, to word its issues and estimate it.
    golden = (DATA / "golden_input.csv").read_bytes()
    src = tmp_path / "in.csv"
    src.write_bytes(golden)
    made = _small_buckets(monkeypatch, len(golden), 4)
    reads: list[str] = []
    fromfile = np.fromfile

    def counting(file, *args, **kwargs):
        reads.append(Path(file).name)
        return fromfile(file, *args, **kwargs)

    monkeypatch.setattr(np, "fromfile", counting)
    assert main(["fit", "--input", str(src), "--threads", "1",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert made == [4]
    assert sorted(reads) == [f"bucket-{b}.{os.getpid()}" for b in range(4)]


@pytest.mark.parametrize("case, code", [
    ("estimated", 0), ("row-error", 2), ("duplicate", 2),
    ("fault-in-second-bucket", 1), ("interrupted", None)])
def test_fit_removes_its_buckets(tmp_path, monkeypatch, case, code):
    golden = (DATA / "golden_input.csv").read_bytes()
    if case == "row-error":
        golden += b"1,99,2024-01-01,Monday,5,0.5,6,0\n"  # sales over stock
    elif case == "duplicate":  # sku 5, in the last of 4 buckets
        golden += golden.splitlines(keepends=True)[1 + 4 * 300]
    src = tmp_path / "in.csv"
    src.write_bytes(golden)
    work = tmp_path / "work"  # the nearest existing ancestor of --out-dir
    work.mkdir()
    out_dir = work / "a" / "b"
    assert _small_buckets(monkeypatch, len(golden), 4) is not None
    seen: list[list[str]] = []
    skus: list[set[int]] = []
    study = cli.run_study

    def watching(panels, **kwargs):
        seen.append(sorted(p.name for p in work.glob(".uplift-fit-*/*")))
        skus.append({p.sku_id for p in panels})
        if case == "fault-in-second-bucket" and len(seen) == 2:
            raise RuntimeError("fault in the second bucket")
        if case == "interrupted":
            raise KeyboardInterrupt
        return study(panels, **kwargs)

    monkeypatch.setattr(cli, "run_study", watching)
    argv = ["fit", "--input", str(src), "--out-dir", str(out_dir),
            "--threads", "1"]
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == code
    assert not list(work.glob(".uplift-fit-*"))
    assert out_dir.exists() == (code == 0)
    assert all(seen)  # the buckets were beside --out-dir
    if case == "row-error":
        assert seen == []  # a row error stops every estimation
    elif case == "duplicate":  # only the buckets before its own are fitted
        assert len(seen) <= 3 and not any(5 in found for found in skus)
    else:
        assert seen


@pytest.mark.parametrize("case, code", [
    ("estimated", 0), ("row-error", 2), ("duplicate", 2),
    ("fault-in-second-bucket", 1), ("interrupted", None), ("killed", 1)])
def test_fit_workers_leave_no_process_and_no_bucket(tmp_path, monkeypatch,
                                                    case, code):
    # test_fit_removes_its_buckets on 2 workers, which record what they see
    # in a file; a worker that dies makes fit exit 1, and no exit leaves a
    # worker running.
    golden = (DATA / "golden_input.csv").read_bytes()
    if case == "row-error":
        golden += b"1,99,2024-01-01,Monday,5,0.5,6,0\n"  # sales over stock
    elif case == "duplicate":  # sku 5, in the last of 4 buckets
        golden += golden.splitlines(keepends=True)[1 + 4 * 300]
    src = tmp_path / "in.csv"
    src.write_bytes(golden)
    work = tmp_path / "work"
    work.mkdir()
    out_dir = work / "a" / "b"
    monkeypatch.setattr(domain, "READ_BYTES", 1 << 14)
    assert _small_buckets(monkeypatch, len(golden), 4) is not None
    seen, skus = tmp_path / "seen", tmp_path / "skus"
    study = cli.run_study

    def watching(panels, **kwargs):
        _record(seen, " ".join(sorted(
            p.name for p in work.glob(".uplift-fit-*/*"))) or "-")
        _record(skus, " ".join(str(p.sku_id) for p in panels))
        calls = len(seen.read_text().splitlines())
        if case == "fault-in-second-bucket" and calls == 2:
            raise RuntimeError("fault in the second bucket")
        if case == "interrupted":
            raise KeyboardInterrupt
        if case == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        return study(panels, **kwargs)

    monkeypatch.setattr(cli, "run_study", watching)
    argv = ["fit", "--input", str(src), "--out-dir", str(out_dir),
            "--threads", "2"]
    # A hang fails the test instead of stalling the suite.
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("fit hung"))
    signal.alarm(120)
    try:
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert _childless()
    assert not list(work.glob(".uplift-fit-*"))
    assert out_dir.exists() == (code == 0)
    views = seen.read_text().splitlines() if seen.exists() else []
    assert "-" not in views  # the buckets were beside --out-dir
    if case == "row-error":
        assert views == []  # a row error stops every estimation
    elif case == "duplicate":  # only the buckets before its own are fitted
        assert len(views) <= 3
        assert views == [] or "5" not in skus.read_text().split()
    else:
        assert views


_SLOW_FIT = """
import os, signal, sys, time
# Ctrl-C interrupts even if pytest was started with SIGINT ignored.
signal.signal(signal.SIGINT, signal.default_int_handler)
from discount_uplift import cli, domain
domain.READ_BYTES = 1 << 14
study = cli.run_study

def slow(panels, **kwargs):
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    time.sleep(2)
    return study(panels, **kwargs)

cli.run_study = slow
sys.exit(cli.main(["fit", "--input", sys.argv[2], "--out-dir", sys.argv[3],
                   "--threads", "2"]))
"""


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(") ", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has ended (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(") ", 1)[1][0] \
            == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
@pytest.mark.parametrize("how", ["main-killed", "ctrl-c"])
def test_fit_workers_end_with_the_main_process(tmp_path, how):
    # One worker estimates the input's one bucket, slowly, and the other
    # waits for a task, when the main process is killed or the process
    # group gets Ctrl-C. No worker outlives the main process; after Ctrl-C
    # only the main process reports the interrupt, and the buckets go.
    pids_file, work = tmp_path / "pids", tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(discount_uplift.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_FIT, str(pids_file),
         str(DATA / "golden_input.csv"), str(work / "out")],
        env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
    workers: list[int] = []
    try:
        for _ in range(600):  # a worker is estimating, or 60 s passed
            if pids_file.exists() and pids_file.read_text():
                break
            time.sleep(0.1)
        workers = _children(proc.pid)
        assert len(workers) == 2 and proc.poll() is None
        if how == "main-killed":
            proc.kill()
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        for _ in range(300):
            if all(map(_gone, workers)):
                break
            time.sleep(0.1)
        assert all(map(_gone, workers))
    finally:
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if how == "ctrl-c":
        assert proc.returncode == -signal.SIGINT
        assert err.count("KeyboardInterrupt") == 1, err
        assert not list(work.glob(".uplift-fit-*"))


# --- a killed fit's buckets --------------------------------------------------

_WAITING_FIT = """
import os, sys, time
from pathlib import Path
from discount_uplift import cli, domain
domain.READ_BYTES = 1 << 14
study = cli.run_study

def waiting(panels, **kwargs):
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    while not Path(sys.argv[1] + ".go").exists():
        time.sleep(0.05)
    return study(panels, **kwargs)

cli.run_study = waiting
sys.exit(cli.main(["fit", "--input", sys.argv[2], "--out-dir", sys.argv[3],
                   "--threads", "2"]))
"""


def _fit_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(discount_uplift.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))


_WAITING_SIMULATE = """
import os, sys, time
from pathlib import Path
from discount_uplift import cli, domain, synth
os.sched_getaffinity = lambda pid: {0, 1}
domain._CHUNK_ROWS = 20
generate = synth.generate_panel

def waiting(config, sku_id):
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    while not Path(sys.argv[1] + ".go").exists():
        time.sleep(0.05)
    return generate(config, sku_id=sku_id)

synth.generate_panel = waiting
sys.exit(cli.main(["simulate", "--skus", "4", "--days", "20",
                   "--out", sys.argv[2]]))
"""


def _waiting(tmp_path: Path, script: str, *args: Path) -> subprocess.Popen:
    """``script`` run with ``tmp_path / "pids"`` and ``args``, started once
    one of its workers is at work; it waits until ``tmp_path / "pids.go"``
    exists."""
    pids = tmp_path / "pids"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(pids), *map(str, args)],
        env=_fit_env(), stderr=subprocess.PIPE, text=True)
    while not (pids.exists() and pids.read_text()):
        assert proc.poll() is None, proc.communicate()
        time.sleep(0.05)
    return proc


def _waiting_fit(tmp_path: Path, out_dir: Path) -> subprocess.Popen:
    """A fit on 2 workers, started once one of them is estimating."""
    return _waiting(tmp_path, _WAITING_FIT, DATA / "golden_input.csv",
                    out_dir)


def _waiting_simulate(tmp_path: Path, out: Path) -> subprocess.Popen:
    """A simulate of 4 SKUs on 2 workers, started once one of them is
    generating."""
    return _waiting(tmp_path, _WAITING_SIMULATE, out)


def _fit_beside(out_dir: Path) -> None:
    """A fit of the golden input, in a process of its own."""
    proc = subprocess.run(
        [sys.executable, "-m", "discount_uplift.cli", "fit", "--input",
         str(DATA / "golden_input.csv"), "--out-dir", str(out_dir)],
        env=_fit_env(), capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert (out_dir / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()


def _simulate_beside(out: Path) -> None:
    """A simulate of 3 SKUs, in a process of its own."""
    proc = subprocess.run(
        [sys.executable, "-m", "discount_uplift.cli", "simulate", "--skus",
         "3", "--days", "20", "--out", str(out)],
        env=_fit_env(), capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


needs_flock = pytest.mark.skipif(importlib.util.find_spec("fcntl") is None,
                                 reason="no fcntl")


@pytest.fixture
def alarm():
    """Fails the test, instead of stalling the suite, if it hangs."""
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("a run hung"))
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


@needs_flock
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
def test_fit_removes_the_buckets_of_a_killed_fit(tmp_path, alarm):
    work = tmp_path / "work"
    work.mkdir()
    proc = _waiting_fit(tmp_path, work / "a")
    workers = _children(proc.pid)
    proc.kill()
    proc.communicate()
    while not all(map(_gone, workers)):
        time.sleep(0.05)
    (left,) = work.glob(".uplift-fit-*")
    assert (left / "lock").exists() and len(list(left.iterdir())) > 1
    _fit_beside(work / "b")
    assert not list(work.glob(".uplift-fit-*"))


@needs_flock
def test_fits_side_by_side_keep_each_others_buckets(tmp_path, alarm):
    work = tmp_path / "work"
    work.mkdir()
    proc = _waiting_fit(tmp_path, work / "a")
    try:
        (running,) = work.glob(".uplift-fit-*")
        _fit_beside(work / "b")
        assert list(work.glob(".uplift-fit-*")) == [running]
        (tmp_path / "pids.go").touch()
        _, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert (work / "a" / "reports.csv").read_bytes() == \
        (DATA / "golden_reports.csv").read_bytes()
    assert not list(work.glob(".uplift-fit-*"))


def test_fit_leaves_a_directory_without_a_lock_file(tmp_path, alarm):
    # Another fit may be making it, between its mkdir and its lock file.
    work = tmp_path / "work"
    making = work / ".uplift-fit-making"
    making.mkdir(parents=True)
    (making / "bucket-0.1").write_bytes(b"")
    _fit_beside(work / "out")
    assert list(work.glob(".uplift-fit-*")) == [making]
    assert [p.name for p in making.iterdir()] == ["bucket-0.1"]


@needs_flock
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
def test_simulate_removes_the_leftover_of_a_killed_simulate(tmp_path, alarm):
    work = tmp_path / "work"
    work.mkdir()
    proc = _waiting_simulate(tmp_path, work / "s.csv")
    workers = _children(proc.pid)
    proc.kill()
    proc.communicate()
    while not all(map(_gone, workers)):
        time.sleep(0.05)
    (left,) = work.glob(".uplift-simulate-*")
    assert sorted(p.name for p in left.iterdir()) == ["lock", "s.csv"]
    _simulate_beside(work / "s.csv")
    assert sorted(p.name for p in work.iterdir()) == \
        ["s.csv", "s.csv.manifest.json"]


@needs_flock
@pytest.mark.parametrize("first", ["fit", "simulate"])
def test_simulate_and_fit_side_by_side_keep_each_others_directory(
        tmp_path, alarm, first):
    work = tmp_path / "work"
    work.mkdir()
    if first == "fit":
        proc = _waiting_fit(tmp_path, work / "a")
    else:
        proc = _waiting_simulate(tmp_path, work / "s.csv")
    try:
        (running,) = work.glob(".uplift-*")
        if first == "fit":
            _simulate_beside(work / "t.csv")
        else:
            _fit_beside(work / "b")
        assert list(work.glob(".uplift-*")) == [running]
        (tmp_path / "pids.go").touch()
        _, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert not list(work.glob(".uplift-*"))


@pytest.mark.parametrize("change", ["rewritten", "truncated"])
def test_fit_input_changed_under_its_workers_exits_2(tmp_path, monkeypatch,
                                                     capsys, alarm, change):
    # A worker reads its piece from the input again, by offset. Here the
    # input changes after the main process read a piece and before the
    # worker does: a digit is rewritten, or the file cut short. The run
    # exits 2 naming the input, and leaves no output, bucket directory or
    # worker.
    src = tmp_path / "in.csv"
    src.write_bytes((DATA / "golden_input.csv").read_bytes())
    forked = watch_forks(monkeypatch)
    read = cli.read_pieces

    def changing(source, digest):
        for piece in read(source, digest):
            if piece.line > 1 and piece.byte < 3 * domain.READ_BYTES <= \
                    piece.byte + len(piece.data):
                with open(src, "r+b") as handle:
                    if change == "rewritten":
                        handle.seek(piece.byte)
                        handle.write(b"9" if piece.data[:1] != b"9" else b"8")
                    else:
                        handle.truncate(piece.byte + 1)
            yield piece

    monkeypatch.setattr(cli, "read_pieces", changing)
    out_dir = tmp_path / "o"
    assert main(["fit", "--input", str(src), "--out-dir", str(out_dir),
                 "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src} ") and \
        "changed while it was read" in err, err
    assert forked == [True]
    assert _childless()
    assert not list(tmp_path.glob(".uplift-fit-*"))
    assert not out_dir.exists()


# --- simulate's workers, and a task no worker can take -----------------------

@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_a_task_that_cannot_be_pickled_exits_1(tmp_path, monkeypatch, alarm,
                                               command):
    # A nested function cannot be sent to a worker. The run exits 1 all the
    # same, and leaves no worker, bucket directory or partial file.
    forked = watch_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(domain, "_CHUNK_ROWS", 50)
    name = {"fit": "_spill_at", "simulate": "_rows"}[command]
    task = getattr(cli, name)

    def nested(context, item):
        return task(context, item)

    monkeypatch.setattr(cli, name, nested)
    work = tmp_path / "work"
    work.mkdir()
    argv = {"fit": ["--input", str(DATA / "golden_input.csv"),
                    "--out-dir", str(work / "o")],
            "simulate": ["--skus", "12", "--days", "20",
                         "--out", str(work / "s.csv")]}[command]
    assert main([command, *argv]) == 1
    assert forked == [True]
    assert _childless()
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("picklable", [True, False])
@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_a_worker_traceback_reaches_stderr(tmp_path, monkeypatch, capsys,
                                           alarm, command, picklable):
    # A task fails in a worker: the run exits 1 and prints the worker's
    # traceback as the cause of the exception the main process raises,
    # which is a RuntimeError if the task's cannot be pickled.
    forked = watch_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(domain, "_CHUNK_ROWS", 50)

    def failing_in_a_worker(*args, **kwargs):
        if picklable:
            raise RuntimeError("worker fault")
        raise RuntimeError("worker fault", lambda: None)

    module, name, task = {"fit": (cli, "run_study", "_bucket"),
                          "simulate": (synth, "generate_panel", "_rows")
                          }[command]
    monkeypatch.setattr(module, name, failing_in_a_worker)
    argv = {"fit": ["--input", str(DATA / "golden_input.csv"),
                    "--out-dir", str(tmp_path / "o")],
            "simulate": ["--skus", "12", "--days", "20",
                         "--out", str(tmp_path / "s.csv")]}[command]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert forked == [True]
    assert _childless()
    remote, _, local = err.partition("The above exception was the direct "
                                     "cause of the following exception")
    assert f", in {task}\n" in remote, err
    assert ", in failing_in_a_worker\n" in remote, err
    assert f", in {task}\n" not in local, err
    assert local.rstrip().splitlines()[-1].startswith(
        "RuntimeError: worker fault" if picklable else
        "RuntimeError: a worker's exception cannot be pickled: "), err
    assert list(tmp_path.iterdir()) == []


_FORKS = """
import json, os, sys, threading
from discount_uplift import cli, domain
os.sched_getaffinity = lambda pid: {0, 1}
domain.READ_BYTES = 1 << 14
domain._CHUNK_ROWS = 50
threads = []
fork = os.fork

def counting():
    threads.append(threading.active_count())
    return fork()

os.fork = counting
work = sys.argv[2]
assert cli.main(["simulate", "--skus", "12", "--days", "20",
                 "--out", os.path.join(work, "s.csv")]) == 0
assert cli.main(["fit", "--input", sys.argv[1], "--threads", "2",
                 "--out-dir", os.path.join(work, "o")]) == 0
print(json.dumps({"threads": threads, "modules": [
    name for name in ("multiprocessing", "concurrent.futures")
    if name in sys.modules]}))
"""


def test_workers_fork_from_one_thread_without_a_pool_module(tmp_path):
    # In a fresh interpreter, simulate on 2 CPUs and fit --threads 2 each
    # fork 2 workers while this process runs no other thread, and neither
    # imports multiprocessing or concurrent.futures.
    done = subprocess.run(
        [sys.executable, "-c", _FORKS, str(DATA / "golden_input.csv"),
         str(tmp_path)], env=_fit_env(), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"threads": [1, 1, 1, 1], "modules": []}


_SLOW_SIMULATE = """
import os, signal, sys, time
# Ctrl-C interrupts even if pytest was started with SIGINT ignored.
signal.signal(signal.SIGINT, signal.default_int_handler)
from discount_uplift import cli, domain, synth
os.sched_getaffinity = lambda pid: {0, 1}
domain._CHUNK_ROWS = 20
generate = synth.generate_panel

def slow(config, sku_id):
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    time.sleep(2)
    return generate(config, sku_id=sku_id)

synth.generate_panel = slow
sys.exit(cli.main(["simulate", "--skus", "6", "--days", "20",
                   "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
@pytest.mark.parametrize("how", ["main-killed", "ctrl-c"])
def test_simulate_workers_end_with_the_main_process(tmp_path, alarm, how):
    # Two workers each render a run of one SKU, slowly, when the main
    # process is killed or the process group gets Ctrl-C. No worker
    # outlives it; after Ctrl-C no partial file is left either.
    pids, work = tmp_path / "pids", tmp_path / "work"
    work.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_SIMULATE, str(pids),
         str(work / "s.csv")],
        env=_fit_env(), stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    workers: list[int] = []
    try:
        while not (pids.exists() and pids.read_text()):
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.05)
        workers = _children(proc.pid)
        assert len(workers) == 2
        if how == "main-killed":
            proc.kill()
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate()
        while not all(map(_gone, workers)):
            time.sleep(0.05)
    finally:
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert set(pids.read_text().split()) <= set(map(str, workers))
    if how == "ctrl-c":
        assert proc.returncode == -signal.SIGINT
        assert err.count("KeyboardInterrupt") == 1, err
        assert list(work.iterdir()) == []


# --- cells the byte path declines, in the workers ----------------------------

@pytest.mark.parametrize("field, cell", [
    ("stock", "+5"), ("stock", "5_0"), ("stock", " 5 "),
    ("date", "2023-02-29"), ("date", "2024-2-01"), ("weekday", "0"),
    ("stock", "1234567890123456789")])
def test_fit_workers_read_a_declined_piece_as_one_process_does(
        tmp_path, monkeypatch, capsys, field, cell):
    # One near-valid cell in the middle of the golden input's 4th piece of
    # 6 sends that piece to csv.reader, in a worker at --threads 2.
    forked = watch_forks(monkeypatch)
    golden = (DATA / "golden_input.csv").read_bytes()
    middle = list(domain.read_pieces(io.BytesIO(golden)))[4]
    lines = golden.splitlines(keepends=True)
    cells = lines[middle.line + 10].decode().split(",")
    cells[domain.CSV_COLUMNS.index(field)] = cell
    lines[middle.line + 10] = ",".join(cells).encode()
    src = tmp_path / "in.csv"
    src.write_bytes(b"".join(lines))
    pieces = list(domain.read_pieces(io.BytesIO(src.read_bytes())))
    columns, _ = domain._read_header(iter(pieces), domain._CANONICAL, [])
    assert len(pieces) == 1 + 6
    assert [p.line for p in pieces[1:] if columns.from_bytes(p) is None] == \
        [middle.line]
    spills = tmp_path / "spills"
    spill = domain.Partition.spill

    def recording(self, run, errors):
        _record(spills, str(os.getpid()))
        return spill(self, run, errors)

    monkeypatch.setattr(domain.Partition, "spill", recording)
    runs = []
    for threads in ("1", "2"):
        spills.write_text("")
        out_dir = tmp_path / threads
        code = main(["fit", "--input", str(src), "--threads", threads,
                     "--out-dir", str(out_dir)])
        runs.append((code, capsys.readouterr().err, {
            name: (out_dir / name).read_bytes()
            for name in cli.FIT_OUTPUTS[:-1] if (out_dir / name).exists()}))
    assert forked == [False, True]
    assert set(spills.read_text().split()) - {str(os.getpid())}
    assert runs[0] == runs[1]
    code, err, outputs = runs[0]
    expected = parse_csv(src.read_bytes())
    assert code == (2 if expected.errors else 0)
    assert [line for line in err.splitlines() if line.startswith("line:")] \
        == [str(e) for e in expected.errors]
    if not expected.errors:
        library = _library_files(src.read_bytes(), "sku")
        assert {name: value.decode() for name, value in outputs.items()} == \
            {name: library[name] for name in outputs}


# --- the W500 input ----------------------------------------------------------

# The benchmark's fit-csv input, W500: the digest of `uplift simulate --seed
# 3 --skus 500 --days 730` (365,000 rows, 57 pieces, 14 buckets), and of
# what `uplift fit` writes for it. The estimator writes out the order of
# every sum it takes (see the ols module docstring); the one sum left to
# numpy is `summarize`'s mean of the trimmed mean residuals, which numpy
# adds pairwise from 8 values on, so the `aggregate.json` digest holds for
# numpy's present order of that one sum.
W500_SHA256 = \
    "67c3086229afdeb59bda75f0f44f447b2008bdd20a63e2fce2b9eb7f827bd4b9"
W500_DIGESTS = {
    "reports.csv":
        "8ae71a2bcb842610b1ee99919d621ab95bc8038656fb1a96a48b48848da1233f",
    "aggregate.json":
        "c4b01efcc5856b58a46a7c6c488027913e004f141de4a665d80d75d484731c14"}


def test_fit_w500_digests(tmp_path, capsys):
    src = tmp_path / "w500.csv"
    assert main(["simulate", "--seed", "3", "--skus", "500", "--days", "730",
                 "--out", str(src)]) == 0
    assert sha256(src) == W500_SHA256
    capsys.readouterr()
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        assert main(["fit", "--input", str(src), "--threads", threads,
                     "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        assert {name: sha256(out_dir / name) for name in W500_DIGESTS} == \
            W500_DIGESTS

"""Smoke tests of the experiment scripts in ``scripts/``: each runs to the
end on a small grid and prints one row per grid value."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _process(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _run(script: str, *args: str) -> list[str]:
    done = _process(script, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_recovery_experiment_prints_one_row_per_gamma():
    lines = _run("recovery_experiment.py", "--seeds", "3", "--days", "200")
    assert lines[0].split() == ["gamma", "n", "mean", "sd", "coverage",
                                "signif"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["0.00", "3"], ["0.30", "3"], ["0.60", "3"], ["1.00", "3"]]


def test_recovery_experiment_reports_gammas_with_no_estimate():
    for args in (("--seeds", "2", "--days", "14"), ("--seeds", "0")):
        lines = _run("recovery_experiment.py", *args, "--gammas", "0.3",
                     "0.6")
        assert [line.split()[:2] for line in lines[1:]] == [
            ["0.30", "0"], ["0.60", "0"]]


def test_cycle_experiment_prints_one_row_per_share():
    lines = _run("cycle_experiment.py", "--seeds", "2", "--days", "60")
    assert lines[0] == "true regular share: 0.3"
    assert [line.split()[0] for line in lines[2:]] == [
        "0.00", "0.30", "0.60", "1.00"]
    assert all(len(line.split()) == 4 for line in lines[2:])


def test_cycle_experiment_rejects_an_empty_seed_grid():
    done = _process("cycle_experiment.py", "--seeds", "0", "--days", "30")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--seeds must be at least 1" in done.stderr
    assert "Warning" not in done.stderr

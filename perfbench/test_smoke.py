"""Smoke tests of the benchmark at its tiny size; a few seconds per run.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_no_errors(workload, trace):
    done = _run(ROOT, "--workload", workload, "--size", "smoke", "--seconds", "1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    # error_rate = failed / attempted must be 0.
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stderr
    assert result["correct"] is True
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_host_speed_probe_leaves_its_time_out_and_restores_the_signal():
    import signal
    import time

    from probe import HostSpeed

    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        t0, c0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - t0 < 0.6:
            pass
        wall, program = time.perf_counter() - t0, speed.clock() - c0
    assert len(speed.samples) >= 3  # entry, at least one tick, exit
    assert 0 < program < wall
    assert speed.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

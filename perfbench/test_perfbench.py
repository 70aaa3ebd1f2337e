"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs end to end at its tiny size; a pool that answers one
task wrongly must fail the run; the zero-overhead reference matches
hand-worked schedules; and without the program source the benchmark
exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIMEOUT = 170
NAMES = ("noop_drain", "paper_loop", "sequential_repeats")


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--seed", "3", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_ideal_makespan_hand_worked() -> None:
    # Two workers: A runs 3 (0-3); B runs 1 (0-1) then 2 (1-3); the last
    # 2 starts at 3 on either worker and ends at 5.
    assert workloads.ideal_makespan([3, 1, 2, 2], 2) == 5
    # One worker runs tasks at 0-1 and 1-2; after 2 completions a second
    # worker joins at t=2, so the remaining four run in pairs: 2-3, 3-4.
    assert workloads.ideal_makespan([1] * 6, 1, join_after=2, extra_workers=1) == 4
    # Without the join the same tasks take 6.
    assert workloads.ideal_makespan([1] * 6, 1) == 6
    assert workloads.ideal_makespan([], 4) == 0


def test_sequential_inputs_repeat_recent_points() -> None:
    size = workloads.Size(seq_submissions=2000)
    rows, repeat = workloads.sequential_inputs(np.random.default_rng(5), size)
    assert repeat.sum() == 1000 and not repeat[0]
    distinct: list[int] = []
    for i in range(len(rows)):
        if repeat[i]:
            window = {tuple(rows[j]) for j in distinct[-workloads.WORKING_SET:]}
            assert tuple(rows[i]) in window
        else:
            distinct.append(i)
    again, _ = workloads.sequential_inputs(np.random.default_rng(5), size)
    assert np.array_equal(rows, again)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_runs_and_checks_out(name: str) -> None:
    proc = bench("--workload", name)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer() -> None:
    proc = bench("--workload", "paper_loop", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(proc)["metrics"]
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: m["unit"] for k, m in metrics.items()} == declared
    assert metrics["me.reprioritize_calls"]["value"] == 3
    assert metrics["me.reprioritize_s"]["value"] > 0
    assert metrics["client.rpc_ms_p50.pool.report"]["value"] > 0
    assert "residual_p50" in proc.stdout and "tracing overhead" in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_wrong_answer_fails_the_run(name: str) -> None:
    proc = bench("--workload", name, "--corrupt-first")
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_exits_nonzero_without_program_source(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "noop_drain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

"""The pool's shared result reporter.

Every worker hands its result to one flusher that reports whatever is
queued in one ``report_batch`` store operation — results must all
arrive, a lone result must go out without waiting for company, results
finishing behind an in-flight flush must coalesce into the next one,
and a broken batch path must degrade to per-item reports rather than
lose results.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EQSQL, RemoteTaskStore, TaskService, as_completed
from repro.db import MemoryTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool


def batched_config(**overrides):
    defaults = dict(work_type=0, n_workers=4, batch_size=8)
    defaults.update(overrides)
    return PoolConfig(**defaults)


class RecordingStore(MemoryTaskStore):
    """Records each ``report_batch`` call's task ids and entry time;
    the first call can be held on ``gate``."""

    def __init__(self, hold_first: bool = False) -> None:
        super().__init__()
        self.batches: list[list[int]] = []
        self.entered_at: list[float] = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        if not hold_first:
            self.gate.set()

    def report_batch(self, reports, *, now=0.0, profiles=None):
        self.entered_at.append(time.monotonic())
        self.batches.append([tid for tid, _type, _result in reports])
        self.entered.set()
        if len(self.batches) == 1:
            assert self.gate.wait(10)
        super().report_batch(reports, now=now, profiles=profiles)


class TestBatchedReporting:
    def test_all_results_arrive(self):
        eq = EQSQL(MemoryTaskStore())
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), batched_config()
        ).start()
        try:
            futures = eq.submit_tasks("exp", 0, [f'{{"i": {i}}}' for i in range(40)])
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 40
        finally:
            pool.stop()
            eq.close()
        assert pool.tasks_completed == 40
        assert pool.reports_lost == 0
        assert pool.owned() == 0

    @pytest.mark.timing
    def test_lone_result_reported_without_waiting(self):
        # No linger: the flusher reports a lone result the moment the
        # worker hands it over, in a batch of one.
        finished_at: list[float] = []

        def echo(d):
            finished_at.append(time.monotonic())
            return d

        store = RecordingStore()
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(echo), PoolConfig(work_type=0)
        ).start()
        try:
            future = eq.submit_task("exp", 0, "{}")
            status, _result = future.result(timeout=10)
            assert status.value == "success"
        finally:
            pool.stop()
            eq.close()
        assert store.batches == [[future.eq_task_id]]
        assert store.entered_at[0] - finished_at[0] < 0.25

    def test_results_behind_inflight_flush_coalesce(self):
        # Hold the first flush in its RPC while N more tasks finish:
        # their N results must go out together in the very next flush.
        n = 6
        ran: list[int] = []

        def echo(d):
            ran.append(1)
            return d

        store = RecordingStore(hold_first=True)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(echo), PoolConfig(work_type=0, n_workers=n + 1)
        ).start()
        try:
            first = eq.submit_task("exp", 0, "{}")
            assert store.entered.wait(10), "pool never called report_batch"
            rest = eq.submit_tasks("exp", 0, ["{}"] * n)
            # A worker stays busy until its result is queued, so every
            # result is queued once all n + 1 ran and none is busy.
            deadline = time.monotonic() + 10
            while len(ran) < n + 1 or pool.busy() > 0:
                assert time.monotonic() < deadline, "tasks never finished"
                time.sleep(0.001)
            store.gate.set()
            done = list(as_completed([first, *rest], delay=0.001, timeout=10))
            assert len(done) == n + 1
        finally:
            store.gate.set()
            pool.stop()
            eq.close()
        assert store.batches[0] == [first.eq_task_id]
        assert sorted(store.batches[1]) == sorted(f.eq_task_id for f in rest)
        assert len(store.batches) == 2
        assert pool.tasks_completed == n + 1
        assert pool.owned() == 0

    def test_failed_batch_falls_back_to_single_reports(self):
        class BatchPathDown(MemoryTaskStore):
            def report_batch(self, reports, *, now=0.0, profiles=None):
                raise ConnectionError("batch path down")

        eq = EQSQL(BatchPathDown())
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), batched_config()
        ).start()
        try:
            futures = eq.submit_tasks("exp", 0, ["{}"] * 16)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 16
        finally:
            pool.stop()
            eq.close()
        assert pool.tasks_completed == 16
        assert pool.reports_lost == 0

    def test_batched_pool_over_remote_store(self):
        backing = MemoryTaskStore()
        service = TaskService(backing).start()
        store = RemoteTaskStore(*service.address)
        eq = EQSQL(store)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(lambda d: d), batched_config()
        ).start()
        try:
            futures = eq.submit_tasks("exp", 0, ["{}"] * 32)
            done = list(as_completed(futures, delay=0.001, timeout=30))
            assert len(done) == 32
        finally:
            pool.stop()
            eq.close()
            service.stop()
            backing.close()
        assert pool.tasks_completed == 32


class TestConfigValidation:
    def test_rejects_memory_profiling_without_profiling(self):
        with pytest.raises(ValueError, match="profile_memory"):
            PoolConfig(work_type=0, profile_memory=True)

    def test_rejects_nonpositive_telemetry_interval(self):
        with pytest.raises(ValueError, match="telemetry_interval"):
            PoolConfig(work_type=0, telemetry_interval=0.0)

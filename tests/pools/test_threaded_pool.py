"""End-to-end tests for the threaded worker pool."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core import EQSQL, EQ_STOP, ResultStatus, as_completed
from repro.core.constants import EQ_ABORT
from repro.db import MemoryTaskStore
from repro.pools import PoolConfig, PythonTaskHandler, ThreadedWorkerPool
from repro.telemetry import EventKind, TraceCollector


@pytest.fixture
def eq():
    eqsql = EQSQL(MemoryTaskStore())
    yield eqsql
    eqsql.close()


def square_handler():
    return PythonTaskHandler(lambda d: {"y": d["x"] ** 2})


def submit_squares(eq, n, eq_type=0):
    payloads = [json.dumps({"x": i}) for i in range(n)]
    return eq.submit_tasks("exp", eq_type, payloads)


class TestExecution:
    def test_executes_all_tasks(self, eq):
        futures = submit_squares(eq, 25)
        config = PoolConfig(work_type=0, n_workers=4)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 25
        for f in done:
            status, result = f.result(timeout=0)
            assert status == ResultStatus.SUCCESS
            x = json.loads(eq.task_info(f.eq_task_id).json_out)["x"]
            assert json.loads(result) == {"y": x**2}
        pool.stop()
        assert pool.tasks_completed == 25
        assert pool.tasks_failed == 0

    def test_only_consumes_own_work_type(self, eq):
        mine = submit_squares(eq, 3, eq_type=1)
        theirs = submit_squares(eq, 3, eq_type=2)
        config = PoolConfig(work_type=1, n_workers=2)
        with ThreadedWorkerPool(eq, square_handler(), config):
            done = list(as_completed(mine, timeout=10, delay=0.01))
            assert len(done) == 3
        # Other work type untouched.
        assert eq.queue_lengths(2)[0] == 3
        assert all(not f.done() for f in theirs)

    def test_failed_task_reports_error_payload(self, eq):
        def sometimes_fail(d):
            if d["x"] % 2 == 0:
                raise ValueError("even input")
            return {"ok": d["x"]}

        futures = submit_squares(eq, 6)
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(sometimes_fail), config).start()
        done = list(as_completed(futures, timeout=10, delay=0.01))
        pool.stop()
        errors = 0
        for f in done:
            _, result = f.result(timeout=0)
            if "error" in json.loads(result):
                errors += 1
        assert errors == 3
        assert pool.tasks_failed == 3
        assert pool.tasks_completed == 3

    def test_worker_pool_name_recorded(self, eq):
        futures = submit_squares(eq, 2)
        config = PoolConfig(work_type=0, n_workers=1, name="bebop-pool")
        with ThreadedWorkerPool(eq, square_handler(), config):
            list(as_completed(futures, timeout=10, delay=0.01))
        assert eq.task_info(futures[0].eq_task_id).worker_pool == "bebop-pool"


class TestShutdown:
    def test_eq_stop_drains_and_stops(self, eq):
        futures = submit_squares(eq, 10)
        stop_future = eq.submit_task("exp", 0, EQ_STOP, priority=-100)
        config = PoolConfig(work_type=0, n_workers=3)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        # EQ_STOP has the lowest priority: all real tasks complete first.
        done = list(as_completed(futures, timeout=20, delay=0.01))
        assert len(done) == 10
        assert stop_future.result(timeout=10, delay=0.01) == (
            ResultStatus.SUCCESS,
            EQ_STOP,
        )
        pool.join(timeout=10)
        assert not pool.is_alive()

    def test_eq_abort_stops_quickly(self, eq):
        eq.submit_task("exp", 0, EQ_ABORT, priority=100)
        submit_squares(eq, 5)
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        pool.join(timeout=10)
        assert not pool.is_alive()

    def test_explicit_stop(self, eq):
        config = PoolConfig(work_type=0, n_workers=2)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        pool.stop(timeout=10)
        assert not pool.is_alive()

    def test_double_start_rejected(self, eq):
        config = PoolConfig(work_type=0, n_workers=1)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        with pytest.raises(RuntimeError):
            pool.start()
        pool.stop()


class TestPolicyBehaviour:
    def test_owned_never_exceeds_batch(self, eq):
        observed_max = 0
        lock = threading.Lock()

        def slow(d):
            nonlocal observed_max
            with lock:
                observed_max = max(observed_max, pool.owned())
            return d

        submit_squares(eq, 30)
        config = PoolConfig(work_type=0, n_workers=2, batch_size=5)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(slow), config).start()
        while eq.queue_lengths(0)[0] > 0 or pool.owned() > 0:
            eq.clock.sleep(0.01)
        pool.stop()
        assert observed_max <= 5

    def test_trace_events_recorded(self, eq):
        trace = TraceCollector()
        futures = submit_squares(eq, 8)
        config = PoolConfig(work_type=0, n_workers=2, name="traced")
        pool = ThreadedWorkerPool(eq, square_handler(), config, trace=trace).start()
        list(as_completed(futures, timeout=10, delay=0.01))
        pool.stop()
        starts = trace.filter(kind=EventKind.TASK_START, source="traced")
        stops = trace.filter(kind=EventKind.TASK_STOP, source="traced")
        assert len(starts) == 8 and len(stops) == 8
        fetches = trace.filter(kind=EventKind.FETCH)
        assert sum(int(e.detail) for e in fetches) >= 8
        kinds = {e.kind for e in trace.snapshot()}
        assert EventKind.POOL_START in kinds and EventKind.POOL_STOP in kinds


class TestMultiplePools:
    def test_two_pools_share_queue_equitably(self, eq):
        futures = submit_squares(eq, 40)
        pool_a = ThreadedWorkerPool(
            eq, square_handler(), PoolConfig(work_type=0, n_workers=2, name="a")
        ).start()
        pool_b = ThreadedWorkerPool(
            eq, square_handler(), PoolConfig(work_type=0, n_workers=2, name="b")
        ).start()
        done = list(as_completed(futures, timeout=20, delay=0.01))
        pool_a.stop()
        pool_b.stop()
        assert len(done) == 40
        pools = {eq.task_info(f.eq_task_id).worker_pool for f in done}
        assert pools == {"a", "b"}  # both pools did work
        assert pool_a.tasks_completed + pool_b.tasks_completed == 40


class TestEventDrivenRefill:
    """A full pool refills when a slot frees, not on a ``poll_delay`` tick.

    ``poll_delay=5.0`` makes any tick-based wait obvious: the bounds
    below sit far under one tick and far over the real run time.
    """

    SLOW_TICK = dict(work_type=0, n_workers=1, batch_size=1, poll_delay=5.0)

    @pytest.mark.parametrize("report_batch_size", [1, 4])
    def test_saturated_pool_refills_without_tick(self, eq, report_batch_size):
        # With report_batch_size > 1 the slot is freed on the flusher
        # thread rather than the worker.  Tick-based refill would need
        # at least 19 ticks (95 s) for 20 tasks.
        futures = eq.submit_tasks("exp", 0, ["{}"] * 20)
        config = PoolConfig(**self.SLOW_TICK, report_batch_size=report_batch_size)
        pool = ThreadedWorkerPool(eq, PythonTaskHandler(lambda d: d), config)
        t0 = time.monotonic()
        pool.start()
        try:
            done = list(as_completed(futures, timeout=5.0, delay=0.005))
            elapsed = time.monotonic() - t0
        finally:
            pool.stop(timeout=10)
        assert len(done) == 20
        assert elapsed < 5.0
        assert pool.tasks_completed == 20
        assert not pool.is_alive()

    @pytest.mark.parametrize("report_batch_size", [1, 4])
    def test_no_lost_wakeup_under_thread_churn(self, eq, report_batch_size):
        # The refill has no timer fallback, so a lost notify would stall
        # the pool for good.  Many workers, a threshold policy, and a
        # tiny switch interval give the race every chance to show.
        futures = eq.submit_tasks("exp", 0, ["{}"] * 400)
        config = PoolConfig(
            work_type=0, n_workers=8, batch_size=12, threshold=3,
            poll_delay=5.0, report_batch_size=report_batch_size,
        )
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = ThreadedWorkerPool(eq, PythonTaskHandler(lambda d: d), config)
            pool.start()
            try:
                done = list(as_completed(futures, timeout=30.0, delay=0.005))
            finally:
                pool.stop(timeout=10)
        finally:
            sys.setswitchinterval(old_interval)
        assert len(done) == 400
        assert pool.tasks_completed == 400
        assert pool.owned() == 0
        assert not pool.is_alive()

    def test_stop_on_saturated_pool_returns_after_inflight_task(self, eq):
        started, release = threading.Event(), threading.Event()

        def gated(d):
            started.set()
            release.wait(10)
            return d

        eq.submit_tasks("exp", 0, ["{}"] * 3)
        pool = ThreadedWorkerPool(
            eq, PythonTaskHandler(gated), PoolConfig(**self.SLOW_TICK)
        ).start()
        assert started.wait(10)
        stopper = threading.Thread(target=pool.stop, kwargs={"timeout": 10})
        stopper.start()
        time.sleep(0.05)  # let stop() reach its join before releasing
        released_at = time.monotonic()
        release.set()
        stopper.join(10)
        assert not stopper.is_alive()
        assert time.monotonic() - released_at < 1.0
        assert not pool.is_alive()
        assert pool.tasks_completed == 1  # drained, nothing more fetched

    def test_abort_on_idle_pool_returns_promptly(self, eq):
        config = PoolConfig(work_type=0, n_workers=4, poll_delay=5.0)
        pool = ThreadedWorkerPool(eq, square_handler(), config).start()
        time.sleep(0.05)  # workers idle on the local queue
        t0 = time.monotonic()
        pool.stop(drain=False, timeout=10)
        # The fetcher's long-poll in flight (fetch_wait, 0.5 s) is the
        # slowest part; a 5 s tick or a hung worker would exceed this.
        assert time.monotonic() - t0 < 3.0
        assert not pool.is_alive()

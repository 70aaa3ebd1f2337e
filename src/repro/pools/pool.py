"""Threaded worker pool.

One fetcher thread applies the batch/threshold policy against the EMEWS
DB output queue; N worker threads execute claimed tasks and report
results to the input queue.  The owned-task count (claimed but not yet
completed) drives the fetch policy exactly as in §IV-D, so this pool
reproduces the utilization regimes of Figure 3 in real time.

Shutdown follows the EQ_STOP convention: a task whose payload is the
``EQ_STOP`` sentinel tells the pool to stop fetching, drain its owned
tasks, and exit; the sentinel task itself is reported back (payload
``EQ_STOP``) so the submitter's future completes.  ``stop()`` forces the
same path locally.

With ``report_batch_size > 1`` the pool runs a shared reporter: workers
enqueue completed results instead of reporting them inline, and a single
flusher thread pushes each batch to the DB in one ``report_batch`` store
operation — flushing at K results or after a bounded linger, whichever
comes first, so a remote store's round trip is paid per batch while a
lone result still reports promptly.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Any

from repro.core.constants import EQ_ABORT, EQ_STOP
from repro.core.eqsql import EQSQL
from repro.pools.config import PoolConfig
from repro.pools.handlers import TaskExecutionError, TaskHandler
from repro.telemetry.events import EventKind, TraceCollector
from repro.telemetry.fleet import TelemetryPusher
from repro.telemetry.profiling import ProfileHandle, TaskProfiler
from repro.telemetry.journal import (
    EV_FETCH,
    EV_REPORT,
    EV_RUN_END,
    EV_RUN_START,
    ROLE_POOL,
    Journal,
    get_journal,
)
from repro.telemetry.metrics import (
    COUNT_BUCKETS,
    MetricsRegistry,
    get_metrics,
)
from repro.telemetry.tracing import SpanContext, Tracer, get_tracer
from repro.util.errors import ReproError
from repro.util.logging import get_logger, log_event
from repro.util.serialization import json_dumps

_log = get_logger(__name__)


class ThreadedWorkerPool:
    """A pilot-job worker pool running on threads.

    Under an enabled tracer, each fetch that returns work records a
    ``pool.fetch`` span and each task executes inside a ``pool.task``
    span parented to the submitter's span (the context rides the task
    payload), with ``pool.report`` nested for the result write — the
    queue-wait / run / report decomposition of the task lifecycle.
    """

    def __init__(
        self,
        eqsql: EQSQL,
        handler: TaskHandler,
        config: PoolConfig,
        trace: TraceCollector | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        journal: Journal | None = None,
    ) -> None:
        self._eqsql = eqsql
        self._handler = handler
        self._config = config
        self._trace = trace
        self._tracer = tracer
        # Flight recorder: resolved per call when not injected, so a
        # later configure_journal() is picked up (tracer discipline).
        self._journal = journal
        registry = metrics if metrics is not None else get_metrics()
        self._m_completed = registry.counter(
            "pool.tasks_completed", "tasks executed and reported"
        )
        self._m_failed = registry.counter(
            "pool.tasks_failed", "tasks whose handler raised"
        )
        self._m_fetch_size = registry.histogram(
            "pool.fetch_batch_size", COUNT_BUCKETS, "tasks per non-empty fetch"
        )
        self._m_queue_wait = registry.histogram(
            "pool.queue_wait_seconds", help="local-queue wait: fetch to execution start"
        )
        self._m_run = registry.histogram(
            "pool.run_seconds", help="handler execution time"
        )
        self._m_report = registry.histogram(
            "pool.report_seconds", help="result report round trip"
        )
        self._m_lease_renewals = registry.counter(
            "pool.lease_renewals", "task leases renewed by the heartbeat"
        )
        self._m_fetch_errors = registry.counter(
            "pool.fetch_errors", "batch queries that failed on a connection fault"
        )
        self._m_report_errors = registry.counter(
            "pool.report_errors", "result reports lost to a connection fault"
        )
        self._policy = config.policy()

        self._owned = 0
        self._owned_ids: set[int] = set()
        self._owned_lock = threading.Lock()
        # Notified when _finalize drops the owned count, and by stop().
        self._slot_freed = threading.Condition(self._owned_lock)
        self._local: "queue.Queue[dict[str, Any] | None]" = queue.Queue()
        self._stop_fetching = threading.Event()
        self._stop_heartbeat = threading.Event()
        self._abort = threading.Event()
        self._threads: list[threading.Thread] = []
        self._heartbeat: threading.Thread | None = None
        self._started = False
        self._reporter: _BatchReporter | None = (
            _BatchReporter(self) if config.report_batch_size > 1 else None
        )

        self._stats_lock = threading.Lock()
        self._busy = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        #: Executions whose report never reached the DB (connection lost
        #: past retry); the lease reaper re-dispatches these elsewhere.
        self.reports_lost = 0

        # Per-task resource profiling (off by default): handles for
        # in-flight tasks (the telemetry heartbeat snapshots them for
        # the live cpu-vs-wall signal) plus a bounded buffer of finished
        # profiles drained into each push envelope.
        self._profiler: TaskProfiler | None = (
            TaskProfiler(memory=config.profile_memory)
            if config.profile_tasks
            else None
        )
        self._profile_lock = threading.Lock()
        self._live_handles: dict[int, ProfileHandle] = {}
        self._recent_profiles: deque[dict[str, Any]] = deque(maxlen=64)
        self._pusher: TelemetryPusher | None = None

    @property
    def name(self) -> str:
        return self._config.name

    @property
    def config(self) -> PoolConfig:
        return self._config

    def owned(self) -> int:
        """Tasks claimed from the DB but not yet completed."""
        with self._owned_lock:
            return self._owned

    def busy(self) -> int:
        """Workers currently executing (or reporting) a task."""
        with self._stats_lock:
            return self._busy

    def busy_fraction(self) -> float:
        """Fraction of workers currently occupied — the live analogue of
        the utilization statistic the Fig 3 benchmarks compute offline."""
        return self.busy() / self._config.n_workers

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _jrnl(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    @property
    def telemetry_pusher(self) -> TelemetryPusher | None:
        """The fleet push thread, when ``telemetry_interval`` is set and
        the store exposes the ``telemetry`` RPC."""
        return self._pusher

    def _telemetry_envelope(self) -> dict[str, Any]:
        """Per-beat fleet payload: load, counters, profiles, live tasks."""
        busy_fraction = self.busy_fraction()
        with self._profile_lock:
            profiles = list(self._recent_profiles)
            self._recent_profiles.clear()
            running = [handle.live() for handle in self._live_handles.values()]
        with self._stats_lock:
            completed = self.tasks_completed
            failed = self.tasks_failed
            lost = self.reports_lost
        envelope: dict[str, Any] = {
            "busy_fraction": busy_fraction,
            "n_workers": self._config.n_workers,
            "owned": self.owned(),
            "tasks_completed": completed,
            "tasks_failed": failed,
            "reports_lost": lost,
            "running": running,
        }
        if profiles:
            envelope["profiles"] = profiles
        return envelope

    @staticmethod
    def _msg_trace_id(message: dict[str, Any]) -> str:
        wire = message.get("trace")
        return wire[0] if wire else ""

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ThreadedWorkerPool":
        """Launch the fetcher and worker threads."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        if self._trace is not None:
            self._trace.record(
                EventKind.POOL_START, self._eqsql.clock.now(), source=self.name
            )
        fetcher = threading.Thread(
            target=self._fetch_loop, name=f"{self.name}-fetcher", daemon=True
        )
        workers = [
            threading.Thread(
                target=self._work_loop, name=f"{self.name}-worker-{i}", daemon=True
            )
            for i in range(self._config.n_workers)
        ]
        self._threads = [fetcher, *workers]
        for t in self._threads:
            t.start()
        if self._reporter is not None:
            self._reporter.start()
        if self._config.telemetry_interval is not None:
            sink = getattr(self._eqsql.store, "telemetry", None)
            if sink is None:
                # In-process stores have no service to push to; the
                # config is tolerated so one PoolConfig can serve both
                # local tests and remote deployments.
                log_event(
                    _log, "pool.telemetry_unavailable", level=30,
                    pool=self.name,
                )
            else:
                self._pusher = TelemetryPusher(
                    worker_id=self.name,
                    role="pool",
                    sink=sink,
                    interval=self._config.telemetry_interval,
                    envelope_fn=self._telemetry_envelope,
                    clock=self._eqsql.clock,
                ).start()
        if self._config.lease_duration is not None:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name=f"{self.name}-heartbeat",
                daemon=True,
            )
            self._heartbeat.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` lets owned tasks finish (EQ_STOP semantics);
        ``drain=False`` abandons queued local work (EQ_ABORT semantics —
        abandoned tasks stay RUNNING in the DB; if they were claimed
        under a lease the reaper requeues them automatically, otherwise
        manual ``recover_pool`` is required).
        """
        self._stop_fetching.set()
        if not drain:
            self._abort.set()
            # Wake idle workers; their abort check skips queued work.
            for _ in range(self._config.n_workers):
                self._local.put(None)
        with self._slot_freed:
            self._slot_freed.notify()
        # Ends an in-process long-poll early, though EQSQL re-issues it
        # until its deadline; against a remote store this is a no-op.
        # Either way fetch_wait bounds how long the fetcher stays blocked.
        waker = getattr(self._eqsql.store, "wake_waiters", None)
        if waker is not None:
            waker()
        self.join(timeout)

    def join(self, timeout: float = 30.0) -> None:
        """Wait for the pool's threads to exit."""
        for t in self._threads:
            t.join(timeout)
        # The reporter outlives the workers: the fetcher's drain waits
        # for the owned count to reach zero, which only happens once the
        # flusher has reported every enqueued result.  On abort pending
        # results are discarded (their tasks stay RUNNING for the lease
        # reaper, like any abandoned work).
        if self._reporter is not None:
            self._reporter.stop(discard=self._abort.is_set(), timeout=timeout)
        # The heartbeat outlives the fetcher so leases stay fresh while
        # owned tasks drain; it only stops once the workers are done (or
        # on abort, where renewing would keep abandoned tasks from the
        # reaper).
        self._stop_heartbeat.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout)
            self._heartbeat = None
        if self._pusher is not None:
            # Stop pushes a parting beat so the fleet registry sees the
            # final counters before this pool disappears.
            self._pusher.stop()
            self._pusher = None
        if self._trace is not None and self._started:
            self._trace.record(
                EventKind.POOL_STOP, self._eqsql.clock.now(), source=self.name
            )
            self._started = False

    def is_alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    # -- fetcher -----------------------------------------------------------------

    def _fetch_loop(self) -> None:
        config = self._config
        clock = self._eqsql.clock
        tracer = self.tracer
        # Event-driven fetch: against a wait-capable store each empty
        # batch query long-polls up to fetch_wait server-side, so the
        # empty-queue sleep below is redundant (the store did the
        # waiting, and stop() wakes blocked waiters).
        long_poll = config.fetch_wait > 0 and getattr(
            self._eqsql.store, "supports_wait", False
        )
        query_timeout = (
            max(config.query_timeout, config.fetch_wait)
            if long_poll
            else config.query_timeout
        )
        while True:
            # A full pool refills the moment _finalize frees a slot.
            with self._slot_freed:
                self._slot_freed.wait_for(
                    lambda: self._stop_fetching.is_set()
                    or self._policy.to_fetch(self._owned) > 0
                )
                owned = self._owned
            if self._stop_fetching.is_set():
                break
            t0 = clock.now() if tracer.enabled else 0.0
            try:
                messages = self._eqsql.query_task_batch(
                    config.work_type,
                    batch_size=config.batch_size or config.n_workers,
                    threshold=config.threshold,
                    owned=owned,
                    worker_pool=config.name,
                    delay=config.poll_delay,
                    timeout=query_timeout,
                    lease=config.lease_duration,
                )
            except (ReproError, OSError) as exc:
                # A lost connection must not kill the fetcher: tasks
                # popped server-side but never received are leased, so
                # the reaper requeues them; we just poll again.
                self._m_fetch_errors.inc()
                log_event(
                    _log, "pool.fetch_error", level=30,
                    pool=self.name, error=str(exc),
                )
                clock.sleep(config.poll_delay)
                continue
            if not messages:
                if not long_poll:
                    clock.sleep(config.poll_delay)
                continue
            fetched_at = clock.now()
            self._m_fetch_size.observe(len(messages))
            if tracer.enabled:
                tracer.add_span(
                    "pool.fetch",
                    "pool",
                    t0,
                    fetched_at,
                    attrs={"pool": self.name, "n": len(messages)},
                )
            for message in messages:
                message["_fetched_at"] = fetched_at
            journal = self._jrnl()
            if journal.enabled:
                for message in messages:
                    journal.emit(
                        EV_FETCH,
                        message["eq_task_id"],
                        role=ROLE_POOL,
                        work_type=config.work_type,
                        trace_id=self._msg_trace_id(message),
                        source=self.name,
                        time=fetched_at,
                    )
            if self._trace is not None:
                self._trace.record(
                    EventKind.FETCH,
                    clock.now(),
                    source=self.name,
                    detail=str(len(messages)),
                )
            for message in messages:
                if message["payload"] in (EQ_STOP, EQ_ABORT):
                    # Report the sentinel so the submitter's future
                    # resolves, then begin shutdown.
                    try:
                        self._eqsql.report_task(
                            message["eq_task_id"], config.work_type, message["payload"]
                        )
                    except (ReproError, OSError):
                        pass  # shutdown proceeds; the lease reaper requeues it
                    self._stop_fetching.set()
                    if message["payload"] == EQ_ABORT:
                        self._abort.set()
                    continue
                with self._owned_lock:
                    self._owned += 1
                    self._owned_ids.add(message["eq_task_id"])
                self._local.put(message)
        # Drain: wait for owned tasks to complete, then release workers.
        with self._slot_freed:
            self._slot_freed.wait_for(
                lambda: self._owned == 0 or self._abort.is_set()
            )
        for _ in range(config.n_workers):
            self._local.put(None)

    # -- lease heartbeat ----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = self._config.heartbeat_interval
        assert interval is not None
        while not self._stop_heartbeat.wait(interval):
            if self._abort.is_set():
                # Abandoned tasks must NOT be kept alive: stop renewing
                # so their leases lapse and the reaper requeues them.
                return
            self.renew_leases()

    def renew_leases(self) -> int:
        """Renew the leases of every currently owned task (one heartbeat).

        Runs on the heartbeat thread in live pools; tests drive it
        directly under a :class:`~repro.util.clock.VirtualClock`.
        Returns the number of leases renewed.  Connection faults are
        absorbed (the client already retried — renewal is idempotent):
        missing one beat is survivable by design, the lease outlasting
        several intervals.
        """
        lease = self._config.lease_duration
        if lease is None:
            return 0
        with self._owned_lock:
            ids = list(self._owned_ids)
        if not ids:
            return 0
        try:
            renewed = self._eqsql.store.renew_leases(
                ids, now=self._eqsql.clock.now(), lease=lease
            )
        except (ReproError, OSError) as exc:
            log_event(
                _log, "pool.heartbeat_error", level=30,
                pool=self.name, error=str(exc),
            )
            return 0
        self._m_lease_renewals.inc(renewed)
        return renewed

    # -- workers --------------------------------------------------------------------

    def _work_loop(self) -> None:
        clock = self._eqsql.clock
        tracer = self.tracer
        while True:
            if self._abort.is_set():
                return
            message = self._local.get()
            if message is None:
                return
            eq_task_id = message["eq_task_id"]
            started_at = clock.now()
            fetched_at = message.get("_fetched_at")
            if fetched_at is not None:
                self._m_queue_wait.observe(started_at - fetched_at)
            if self._trace is not None:
                self._trace.task_start(started_at, eq_task_id, source=self.name)
            journal = self._jrnl()
            if journal.enabled:
                journal.emit(
                    EV_RUN_START,
                    eq_task_id,
                    role=ROLE_POOL,
                    work_type=self._config.work_type,
                    trace_id=self._msg_trace_id(message),
                    source=self.name,
                    time=started_at,
                )
            with self._stats_lock:
                self._busy += 1
            try:
                # Hot path: the span machinery (context construction,
                # kwargs, handle) is only paid when tracing is on.
                if tracer.enabled:
                    with tracer.span(
                        "pool.task",
                        component="pool",
                        parent=SpanContext.from_wire(message.get("trace")),
                        eq_task_id=eq_task_id,
                        pool=self.name,
                    ) as sp:
                        self._run_one(message, eq_task_id, started_at, sp)
                else:
                    self._run_one(message, eq_task_id, started_at, None)
            finally:
                with self._stats_lock:
                    self._busy -= 1

    def _run_one(
        self,
        message: dict[str, Any],
        eq_task_id: int,
        started_at: float,
        sp: Any,
    ) -> None:
        """Execute one fetched task and report its result.

        ``sp`` is the open ``pool.task`` span, or None when tracing is
        disabled.
        """
        config = self._config
        clock = self._eqsql.clock
        profiler = self._profiler
        handle: ProfileHandle | None = None
        if profiler is not None:
            handle = profiler.start(eq_task_id, config.work_type)
            with self._profile_lock:
                self._live_handles[eq_task_id] = handle
        try:
            # run() opens the handler span; skip it when untraced.
            if sp is not None:
                result = self._handler.run(message["payload"])
            else:
                result = self._handler.handle(message["payload"])
            failed = False
        except TaskExecutionError as exc:
            result = json_dumps({"error": str(exc)})
            failed = True
            if sp is not None:
                sp.set_attr("failed", True)
        profile_dict: dict[str, Any] | None = None
        if handle is not None:
            profile_dict = handle.finish(failed=failed).to_dict()
            with self._profile_lock:
                self._live_handles.pop(eq_task_id, None)
                self._recent_profiles.append(profile_dict)
        ran_at = clock.now()
        self._m_run.observe(ran_at - started_at)
        journal = self._jrnl()
        if journal.enabled:
            extra: dict[str, Any] | None = {"failed": True} if failed else None
            if profile_dict is not None:
                extra = dict(extra) if extra else {}
                extra["profile"] = profile_dict
            journal.emit(
                EV_RUN_END,
                eq_task_id,
                role=ROLE_POOL,
                work_type=config.work_type,
                trace_id=self._msg_trace_id(message),
                source=self.name,
                time=ran_at,
                extra=extra,
            )
        if self._reporter is not None:
            # Batched mode: hand the result to the shared reporter and
            # release this worker immediately.  Finalization (owned
            # decrement, stats, task-stop trace) happens on the flusher
            # thread once the result actually reaches the DB, so the
            # fetch policy never double-counts capacity for a task whose
            # report is still in flight.
            self._reporter.submit(eq_task_id, result, failed, ran_at, profile_dict)
            return
        lost = False
        try:
            try:
                if sp is not None:
                    with self.tracer.span(
                        "pool.report", component="pool", eq_task_id=eq_task_id
                    ):
                        self._eqsql.report_task(
                            eq_task_id, config.work_type, result,
                            profile=profile_dict,
                        )
                else:
                    self._eqsql.report_task(
                        eq_task_id, config.work_type, result, profile=profile_dict
                    )
                self._m_report.observe(clock.now() - ran_at)
            except (ReproError, OSError) as exc:
                # The connection died beyond the client's retries and the
                # result could not be recorded.  The worker must survive:
                # the task's lease lapses without renewal (it leaves the
                # owned set below), the reaper requeues it, and another
                # pool re-executes — the result is recovered, not lost.
                lost = True
                self._m_report_errors.inc()
                log_event(
                    _log, "pool.report_error", level=30,
                    pool=self.name, eq_task_id=eq_task_id, error=str(exc),
                )
        finally:
            self._finalize(eq_task_id, failed=failed, lost=lost)

    def _finalize(self, eq_task_id: int, *, failed: bool, lost: bool) -> None:
        """Book-keeping after a task's report settles (or is lost).

        Shared by the synchronous report path and the batch reporter;
        the owned count must only drop here, after the report, because
        it drives the fetch policy.
        """
        if self._trace is not None:
            self._trace.task_stop(
                self._eqsql.clock.now(), eq_task_id, source=self.name
            )
        journal = self._jrnl()
        if journal.enabled:
            journal.emit(
                EV_REPORT,
                eq_task_id,
                role=ROLE_POOL,
                work_type=self._config.work_type,
                source=self.name,
                time=self._eqsql.clock.now(),
                extra={"lost": True} if lost else None,
            )
        with self._slot_freed:
            self._owned -= 1
            self._owned_ids.discard(eq_task_id)
            self._slot_freed.notify()
        with self._stats_lock:
            if lost:
                self.reports_lost += 1
            elif failed:
                self.tasks_failed += 1
            else:
                self.tasks_completed += 1
        if not lost:
            (self._m_failed if failed else self._m_completed).inc()

    # -- context manager ----------------------------------------------------------------

    def __enter__(self) -> "ThreadedWorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class _BatchReporter:
    """Shared result reporter: workers enqueue, one flusher reports.

    Batches are flushed at ``report_batch_size`` results or after
    ``report_linger`` seconds, whichever comes first — the linger bounds
    how long a lone result waits, the size bounds memory and RPC-frame
    growth.  The linger uses wall-clock time (not the pool's injected
    clock): it paces a real background thread, and a virtual clock would
    make ``queue.Queue`` timeouts meaningless.

    If the batch RPC fails, the flusher falls back to per-item reports
    (``report`` is first-write-wins idempotent, so items the broken
    batch may already have applied re-send safely); only items whose
    individual report also fails count as lost.
    """

    def __init__(self, pool: ThreadedWorkerPool) -> None:
        self._pool = pool
        self._batch_size = pool.config.report_batch_size
        self._linger = pool.config.report_linger
        self._q: "queue.Queue[tuple[int, str, bool, float, dict | None] | None]" = queue.Queue()
        self._discard = False
        self._started = False
        self._thread = threading.Thread(
            target=self._run, name=f"{pool.name}-reporter", daemon=True
        )

    def start(self) -> None:
        self._started = True
        self._thread.start()

    def submit(
        self,
        eq_task_id: int,
        result: str,
        failed: bool,
        ran_at: float,
        profile: dict | None = None,
    ) -> None:
        """Enqueue one completed task's result for the next flush."""
        self._q.put((eq_task_id, result, failed, ran_at, profile))

    def stop(self, discard: bool = False, timeout: float = 30.0) -> None:
        """Stop the flusher; drains the queue first unless ``discard``."""
        self._discard = discard
        self._q.put(None)
        if self._started:
            self._thread.join(timeout)

    def _run(self) -> None:
        while (first := self._q.get()) is not None and not self._discard:
            batch = [first]
            # Linger for more results; the stop sentinel ends the linger
            # and the flusher exits once the batch in hand is reported.
            deadline = time.monotonic() + self._linger
            while len(batch) < self._batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._q.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    self._flush(batch)
                    return
                batch.append(item)
            self._flush(batch)

    def _flush(self, batch: list[tuple[int, str, bool, float, dict | None]]) -> None:
        pool = self._pool
        work_type = pool.config.work_type
        tracer = pool.tracer
        reports = [(tid, work_type, result) for tid, result, _f, _r, _p in batch]
        profiles = {
            tid: profile for tid, _res, _f, _r, profile in batch if profile
        } or None
        lost_ids: set[int] = set()
        try:
            if tracer.enabled:
                with tracer.span(
                    "pool.report_batch",
                    component="pool",
                    pool=pool.name,
                    n=len(batch),
                ):
                    pool._eqsql.report_tasks(reports, profiles=profiles)
            else:
                pool._eqsql.report_tasks(reports, profiles=profiles)
        except (ReproError, OSError):
            for tid, result, _failed, _ran, profile in batch:
                try:
                    pool._eqsql.report_task(tid, work_type, result, profile=profile)
                except (ReproError, OSError) as exc:
                    lost_ids.add(tid)
                    pool._m_report_errors.inc()
                    log_event(
                        _log, "pool.report_error", level=30,
                        pool=pool.name, eq_task_id=tid, error=str(exc),
                    )
        now = pool._eqsql.clock.now()
        for tid, _result, failed, ran_at, _profile in batch:
            lost = tid in lost_ids
            if not lost:
                pool._m_report.observe(now - ran_at)
            pool._finalize(tid, failed=failed, lost=lost)

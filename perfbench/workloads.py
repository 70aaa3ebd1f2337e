"""Seeded inputs, output checks and the driver loops.

Every input a task sees is generated here from the run's seed and
carried in its payload, sleep times included; the pools only execute
payloads.  Each driver loop returns a :class:`RepResult` holding the
end-to-end observations of one repetition and the count of outputs that
failed their check.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.eqsql import EQSQL
from repro.core.futures import as_completed
from repro.me.driver import run_async_optimization
from repro.me.functions import ackley, lognormal_runtime
from repro.me.reprioritizer import GPRReprioritizer

from tasks import DIM, EXP_ID, WORK_TYPE

#: Ackley's §VI domain: [-32.768, 32.768]^4.
BOUND = 32.768
#: Closed-loop window of sequential_repeats: tasks kept outstanding.
WINDOW = 2
#: Repeats draw from this many most recent distinct points; it fits in
#: the store's default 512-entry result cache, so every repeat whose
#: original has completed is answerable from the cache.
WORKING_SET = 256
#: Per-wait bound for the driver loops; a lost task fails the run.
COLLECT_TIMEOUT = 60.0


@dataclass(frozen=True)
class Size:
    """Problem sizes of one repetition of each workload."""

    noop_tasks: int = 1000
    paper_points: int = 750
    paper_batch: int = 50
    paper_sleep_mean: float = 0.05
    seq_submissions: int = 2000
    seq_sleep: float = 0.002


FULL = Size()
#: Smallest sizes that still take every code path (used by the self-tests).
TINY = Size(
    noop_tasks=40,
    paper_points=100,
    paper_batch=25,
    paper_sleep_mean=0.005,
    seq_submissions=60,
)


@dataclass
class RepResult:
    """What one repetition observed in the driver."""

    t_start: float
    t_end: float
    n_results: int
    attempted: int
    failed: int
    ideal_s: float
    miss_rtts: list[float] = field(default_factory=list)
    hit_rtts: list[float] = field(default_factory=list)
    coalesced: int = 0
    reprioritizations: int = 0
    reprioritize_s: float = 0.0

    @property
    def makespan_s(self) -> float:
        return self.t_end - self.t_start


# -- output checks ----------------------------------------------------------


def task_value(x: Sequence[float]) -> float:
    """The objective of a point ``(x1..x4, sleep)``: Ackley of the first four."""
    return float(ackley(np.asarray(x[:DIM], dtype=float)))


def same_value(got: float, want: float) -> bool:
    # The pools evaluate Ackley with their own scalar code, so allow a
    # few ulps of rounding; a wrong answer is off by far more.
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


# -- zero-overhead reference ------------------------------------------------------


def ideal_makespan(
    durations: Sequence[float],
    workers: int,
    join_after: int | None = None,
    extra_workers: int = 0,
) -> float:
    """Makespan of list-scheduling ``durations`` in order, with no overhead.

    Each task starts on the earliest-free worker.  When ``join_after``
    tasks have completed, ``extra_workers`` more workers become free at
    that completion time (a pool joining mid-run).
    """
    free = [0.0] * workers
    heapq.heapify(free)
    done: list[float] = []
    joined = join_after is None or extra_workers == 0
    makespan = 0.0
    for d in durations:
        t = heapq.heappop(free)
        if not joined:
            # Tasks assigned later start at >= t, so every completion at
            # or before t is already in ``done``.
            finished = sorted(c for c in done if c <= t)
            if len(finished) >= join_after:
                join_time = finished[join_after - 1]
                for _ in range(extra_workers):
                    heapq.heappush(free, join_time)
                heapq.heappush(free, t)
                t = heapq.heappop(free)
                joined = True
        end = t + d
        done.append(end)
        makespan = max(makespan, end)
        heapq.heappush(free, end)
    return makespan


# -- inputs -----------------------------------------------------------------------


def uniform_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-BOUND, BOUND, size=(n, DIM))


def noop_inputs(rng: np.random.Generator, size: Size) -> list[str]:
    """Indexed payloads with a random token, so an echo is checkable."""
    return [
        json.dumps({"i": i, "token": rng.bytes(8).hex()}) for i in range(size.noop_tasks)
    ]


def paper_inputs(rng: np.random.Generator, size: Size) -> np.ndarray:
    """``(n, 5)`` rows: a uniform Ackley point plus its lognormal sleep."""
    n = size.paper_points
    sleeps = lognormal_runtime(rng, mean=size.paper_sleep_mean, sigma=0.5, size=n)
    return np.column_stack([uniform_points(rng, n), sleeps])


def sequential_inputs(rng: np.random.Generator, size: Size) -> tuple[np.ndarray, np.ndarray]:
    """Rows as in :func:`paper_inputs` plus a repeat mask.

    Exactly half of the positions after the first repeat one of the last
    :data:`WORKING_SET` distinct points; the rest are fresh points.
    """
    n = size.seq_submissions
    repeat = np.zeros(n, dtype=bool)
    repeat[1 + rng.choice(n - 1, size=n // 2, replace=False)] = True
    fresh = uniform_points(rng, n)
    rows = np.empty((n, DIM + 1))
    distinct: list[int] = []
    for i in range(n):
        if repeat[i]:
            window = distinct[-WORKING_SET:]
            rows[i] = rows[window[int(rng.integers(len(window)))]]
        else:
            rows[i, :DIM] = fresh[i]
            rows[i, DIM] = size.seq_sleep
            distinct.append(i)
    return rows, repeat


def point_payload(row: Sequence[float]) -> str:
    return json.dumps({"x": [float(v) for v in row]})


# -- driver loops -----------------------------------------------------------------


class StampingEQSQL(EQSQL):
    """EQSQL that stamps when each result pop returns, giving
    submit-to-result times inside ``run_async_optimization``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stamps: list[tuple[float, list[int]]] = []

    def pop_completed_ids(self, *args, **kwargs):
        popped = super().pop_completed_ids(*args, **kwargs)
        self.stamps.append((time.monotonic(), [tid for tid, _ in popped]))
        return popped


def drive_noop(eqsql, payloads: list[str]) -> RepResult:
    """One ``submit_tasks`` drained with ``as_completed``; results echo."""
    t0 = time.monotonic()
    futures = eqsql.submit_tasks(EXP_ID, WORK_TYPE, payloads)
    index = {f.eq_task_id: i for i, f in enumerate(futures)}
    seen: set[int] = set()
    wrong = 0
    rtts: list[float] = []
    for future in as_completed(futures, timeout=COLLECT_TIMEOUT):
        rtts.append(time.monotonic() - t0)
        _, result = future.result(timeout=0)
        i = index[future.eq_task_id]
        if result != payloads[i] or i in seen:
            wrong += 1
        seen.add(i)
    t1 = time.monotonic()
    n = len(payloads)
    return RepResult(
        t_start=t0,
        t_end=t1,
        n_results=len(rtts),
        attempted=n,
        failed=wrong + (n - len(seen)),
        ideal_s=0.0,
        miss_rtts=rtts,
    )


def drive_paper(
    eqsql: StampingEQSQL,
    points: np.ndarray,
    size: Size,
    on_join: Callable[[], None],
) -> RepResult:
    """The §VI loop through ``run_async_optimization``.

    ``on_join`` starts the second pool once a third of the points are
    done; submit-to-result times come from the result-pop stamps.
    """
    n = len(points)
    join_at = n // 3
    gpr = GPRReprioritizer(max_train=200)
    state = {"calls": 0, "joined": False, "seconds": 0.0}

    def reprioritize(X_done, y_done, X_remaining):
        state["calls"] += 1
        if not state["joined"] and len(y_done) >= join_at:
            on_join()
            state["joined"] = True
        t = time.monotonic()
        priorities = gpr(X_done[:, :DIM], y_done, X_remaining[:, :DIM])
        state["seconds"] += time.monotonic() - t
        return priorities

    t0 = time.monotonic()
    result = run_async_optimization(
        eqsql,
        EXP_ID,
        WORK_TYPE,
        points,
        reprioritizer=reprioritize,
        batch_completed=size.paper_batch,
        timeout=COLLECT_TIMEOUT,
    )
    t1 = time.monotonic()
    row_of = {tuple(row): i for i, row in enumerate(points.tolist())}
    seen: set[int] = set()
    wrong = 0
    for x, y in zip(result.X.tolist(), result.y.tolist()):
        i = row_of.get(tuple(x))
        if i is None or i in seen or not same_value(y, task_value(x)):
            wrong += 1
        if i is not None:
            seen.add(i)
    expected_passes = math.ceil(n / size.paper_batch) - 1
    passes = len(result.reprioritizations)
    if passes != expected_passes or state["calls"] != expected_passes:
        wrong += 1
    rtts = [t - t0 for t, ids in eqsql.stamps for _ in ids]
    return RepResult(
        t_start=t0,
        t_end=t1,
        n_results=len(result.y),
        attempted=n,
        failed=wrong + (n - len(seen)),
        ideal_s=ideal_makespan(points[:, DIM], 4, join_after=join_at, extra_workers=4),
        miss_rtts=rtts,
        reprioritizations=passes,
        reprioritize_s=state["seconds"],
    )


def drive_sequential(eqsql, rows: np.ndarray, repeat: np.ndarray) -> RepResult:
    """Closed loop, :data:`WINDOW` outstanding, every submit cache-readwrite."""
    payloads = [point_payload(row) for row in rows]
    expected = [task_value(row) for row in rows.tolist()]
    pending: list = []
    meta: dict[int, tuple[int, float, str]] = {}
    inflight: set[int] = set()
    out = RepResult(t_start=0.0, t_end=0.0, n_results=0, attempted=len(rows), failed=0,
                    ideal_s=ideal_makespan(np.where(repeat, 0.0, rows[:, DIM]), WINDOW))

    def collect_one() -> None:
        for future in as_completed(pending, pop=True, n=1, timeout=COLLECT_TIMEOUT):
            now = time.monotonic()
            i, t_submit, kind = meta.pop(id(future))
            _, result = future.result(timeout=0)
            if not same_value(json.loads(result)["y"], expected[i]):
                out.failed += 1
            if kind == "hit":
                out.hit_rtts.append(now - t_submit)
            elif kind == "miss":
                out.miss_rtts.append(now - t_submit)
                inflight.discard(future.eq_task_id)
            out.n_results += 1

    out.t_start = time.monotonic()
    for i, payload in enumerate(payloads):
        t_submit = time.monotonic()
        future = eqsql.submit_task(EXP_ID, WORK_TYPE, payload, cache="readwrite")
        if future.eq_task_id < 0:  # answered from the cache
            kind = "hit"
        elif future.eq_task_id in inflight:  # joined an in-flight task
            kind = "coalesced"
            out.coalesced += 1
        else:
            kind = "miss"
            inflight.add(future.eq_task_id)
        meta[id(future)] = (i, t_submit, kind)
        pending.append(future)
        while len(pending) >= WINDOW:
            collect_one()
    while pending:
        collect_one()
    out.t_end = time.monotonic()
    out.failed += len(rows) - out.n_results
    return out

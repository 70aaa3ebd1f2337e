"""Timed wrappers around each role's public entry points.

A traced run swaps the stack's classes for subclasses built here: every
listed public method is timed with ``time.monotonic`` (one clock shared
by every process on the host, so records from different roles line up)
and appended to an in-memory :class:`Recorder`.  Nothing is written
until the role finishes; untraced runs use the unmodified classes.

Long-poll calls (``wait`` > 0) are tagged as waits, so park time is
kept apart from store work and RPC round trips.  The sqlite store's
wait loop re-enters its own public ``pop_out``/``pop_in_any`` without
``wait``, so in the service each real store attempt inside a park is
recorded as an ordinary store call.
"""

from __future__ import annotations

import time
from typing import Any

from repro.util.clock import SystemClock

#: Methods timed on RemoteTaskStore (client) and SqliteTaskStore (store).
STORE_METHODS = (
    "create_task",
    "create_tasks",
    "pop_out",
    "report",
    "report_batch",
    "pop_in_any",
    "update_priorities",
    "cache_get",
    "cache_put",
)

#: Methods timed on EQSQL in the driver.
EQSQL_METHODS = ("submit_task", "submit_tasks", "update_priorities", "pop_completed_ids")

#: Methods whose result length says whether the call found work.
_SIZED = frozenset({"pop_out", "pop_in_any", "pop_completed_ids"})


class Recorder:
    """Append-only span list: ``[layer, method, t0, t1, wait, n]`` rows.

    ``list.append`` is atomic under the interpreter lock, so worker
    threads record without a lock of their own.
    """

    def __init__(self) -> None:
        self.rows: list[list[Any]] = []

    def add(
        self, layer: str, method: str, t0: float, t1: float, wait: bool = False, n: int = -1
    ) -> None:
        self.rows.append([layer, method, t0, t1, wait, n])


def timed_subclass(base: type, methods: tuple[str, ...], layer: str, recorder: Recorder) -> type:
    """A subclass of ``base`` whose ``methods`` record a span per call."""

    def wrap(name: str):
        inner = getattr(base, name)

        def timed(self, *args, **kwargs):
            t0 = time.monotonic()
            result = inner(self, *args, **kwargs)
            wait = bool(kwargs.get("wait") or 0)
            n = len(result) if name in _SIZED else -1
            recorder.add(layer, name, t0, time.monotonic(), wait, n)
            return result

        timed.__name__ = name
        timed.__doc__ = inner.__doc__
        return timed

    namespace = {name: wrap(name) for name in methods}
    return type(f"Timed{base.__name__}", (base,), namespace)


class HostClock(SystemClock):
    """``time.monotonic`` without the per-process epoch offset.

    Every role stamps the EMEWS DB with this clock, so a task's creation
    time (driver) and start time (pool) are comparable across processes.
    """

    def now(self) -> float:
        return time.monotonic()

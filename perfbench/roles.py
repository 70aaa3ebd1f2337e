"""One role of the live stack, run as its own OS process.

    python3 perfbench/roles.py service --db FILE --out FILE [--trace]
    python3 perfbench/roles.py pool --name NAME --kind echo|ackley --out FILE [--trace]

The parent talks to a role over its stdin/stdout, one JSON object per
line.  The service prints ``{"port": P}`` once it listens.  A pool reads
``{"port": P}``, connects, prints ``{"connected": true}``, then starts
its workers on ``{"cmd": "start"}``.  ``{"cmd": "stop"}`` (or the
parent's end of stdin closing) makes a role shut down, write its
statistics to ``--out`` and print ``{"done": true}``.

Every role runs with default configuration: ``TaskService`` over
``SqliteTaskStore(path)``, and ``ThreadedWorkerPool`` with
``PoolConfig(work_type=0)`` through ``RemoteTaskStore``.  ``--trace``
swaps in the timed subclasses of :mod:`probes`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

import probes
import tasks
from repro.core.eqsql import EQSQL
from repro.core.service import TaskService
from repro.core.service_client import RemoteTaskStore
from repro.db.sqlite_backend import SqliteTaskStore
from repro.pools.config import PoolConfig
from repro.pools.handlers import TaskHandler
from repro.pools.pool import ThreadedWorkerPool


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def receive() -> dict | None:
    """Next command from the parent; None once its end of stdin closed."""
    line = sys.stdin.readline()
    return json.loads(line) if line.strip() else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BenchHandler(TaskHandler):
    """Runs :func:`tasks.run_task` and keeps each call's interval.

    The intervals give handler busy time (pool utilization) and, per
    worker thread, the gap between one task's end and the next's start.
    """

    def __init__(self, kind: str, corrupt_first: bool) -> None:
        self._kind = kind
        self._corrupt = corrupt_first
        self._corrupt_lock = threading.Lock()
        self.intervals: list[tuple[int, float, float]] = []

    def handle(self, payload: str) -> str:
        t0 = time.monotonic()
        result = tasks.run_task(self._kind, payload)
        self.intervals.append((threading.get_ident(), t0, time.monotonic()))
        if self._corrupt:
            with self._corrupt_lock:
                if self._corrupt:
                    self._corrupt = False
                    result = tasks.corrupt(self._kind, result)
        return result


def run_service(args: argparse.Namespace) -> None:
    recorder = probes.Recorder()
    store_cls = (
        probes.timed_subclass(SqliteTaskStore, probes.STORE_METHODS, "store", recorder)
        if args.trace
        else SqliteTaskStore
    )
    store = store_cls(args.db)
    service = TaskService(store).start()
    try:
        send({"port": service.address[1]})
        while (message := receive()) is not None and message.get("cmd") != "stop":
            pass
        counters = service.status_snapshot()["service"]
        stats = {
            "rss_mb": peak_rss_mb(),
            "bytes_received": counters["bytes_received"],
            "bytes_sent": counters["bytes_sent"],
            "cache": store.cache_stats(),
            "records": recorder.rows,
        }
        if args.trace:
            # Queue wait from the DB's own timestamps (created -> start).
            waits = []
            for tid in store.tasks_for_experiment(tasks.EXP_ID):
                row = store.get_task(tid)
                if row.time_start is not None:
                    waits.append(row.time_start - row.time_created)
            stats["queue_waits"] = waits
    finally:
        service.stop()
        store.close()
    with open(args.out, "w") as fh:
        json.dump(stats, fh)
    send({"done": True})


def run_pool(args: argparse.Namespace) -> None:
    message = receive()
    if message is None:
        return
    recorder = probes.Recorder()
    client_cls = (
        probes.timed_subclass(RemoteTaskStore, probes.STORE_METHODS, "client", recorder)
        if args.trace
        else RemoteTaskStore
    )
    eqsql = EQSQL(client_cls("127.0.0.1", int(message["port"])), clock=probes.HostClock())
    handler = BenchHandler(args.kind, args.corrupt_first)
    pool = ThreadedWorkerPool(eqsql, handler, PoolConfig(work_type=tasks.WORK_TYPE, name=args.name))
    send({"connected": True})
    started_at = None
    try:
        while (message := receive()) is not None and message.get("cmd") != "stop":
            if message.get("cmd") == "start" and started_at is None:
                started_at = time.monotonic()
                pool.start()
    finally:
        if started_at is not None:
            pool.stop()
        eqsql.close()
    stats = {
        "name": args.name,
        "n_workers": pool.config.n_workers,
        "started_at": started_at,
        "tasks_completed": pool.tasks_completed,
        "intervals": handler.intervals,
        "records": recorder.rows,
    }
    with open(args.out, "w") as fh:
        json.dump(stats, fh)
    send({"done": True})


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="role", required=True)
    service = sub.add_parser("service")
    service.add_argument("--db", required=True)
    pool = sub.add_parser("pool")
    pool.add_argument("--name", required=True)
    pool.add_argument("--kind", choices=("echo", "ackley"), required=True)
    pool.add_argument("--corrupt-first", action="store_true",
                      help="return a wrong answer for the first task (self-tests)")
    for p in (service, pool):
        p.add_argument("--out", required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    (run_service if args.role == "service" else run_pool)(args)


if __name__ == "__main__":
    main()

"""Worker pool configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fetch import FetchPolicy
from repro.util.ids import short_id


@dataclass
class PoolConfig:
    """Configuration for a worker pool.

    ``batch_size`` defaults to ``n_workers`` (the Fig 3 middle-panel
    regime: every owned task is immediately runnable); set it above
    ``n_workers`` to oversubscribe (top panel), and raise ``threshold``
    to delay fetching until a larger deficit accumulates (bottom panel).
    """

    work_type: int
    n_workers: int = 4
    batch_size: int | None = None
    threshold: int = 1
    name: str = field(default_factory=lambda: short_id("pool"))
    #: Sleep between empty fetches against a store that cannot long-poll
    #: (``supports_wait`` false, or ``fetch_wait=0``), and the backoff
    #: after a failed fetch.  A full pool does not poll: it refills the
    #: moment a task finishes and frees a slot.
    poll_delay: float = 0.02
    #: Timeout for each individual batch query against the DB.
    query_timeout: float = 0.0
    #: Long-poll bound (seconds) for fetches against a wait-capable
    #: store: each empty batch query blocks server-side this long and
    #: returns the instant work arrives, replacing the ``poll_delay``
    #: sleep loop — an idle pool goes from ~1/poll_delay RPCs per second
    #: to ~1/fetch_wait, while dispatch latency *drops* to the RPC round
    #: trip.  Also bounds how long ``stop()`` can block on a fetch in
    #: flight against a remote store (in-process stores wake instantly).
    #: Set to 0 to force the legacy sleep-polling behaviour.
    fetch_wait: float = 0.5
    #: Fault-tolerance lease (seconds) the pool claims tasks under.
    #: ``None`` claims unleased (a crashed pool's tasks then need manual
    #: ``recover_pool``); with a lease, the pool heartbeats renewals and
    #: a lease reaper requeues its tasks automatically if it dies.
    #: Must comfortably exceed ``heartbeat_interval``.
    lease_duration: float | None = None
    #: Seconds between lease-renewal heartbeats; defaults to a third of
    #: ``lease_duration`` so two consecutive heartbeats can be lost
    #: before the lease lapses.
    heartbeat_interval: float | None = None
    #: Results per shared-reporter flush.  At the default of 1 each
    #: worker reports its own result synchronously (the pre-batching
    #: behaviour); above 1 workers enqueue results and a single flusher
    #: thread reports them in one ``report_batch`` RPC — the round trip
    #: is paid once per flush, not once per task.
    report_batch_size: int = 1
    #: Max seconds the reporter lingers waiting to fill a batch before
    #: flushing what it has, so single-task latency stays bounded even
    #: when results trickle in.  Only meaningful with
    #: ``report_batch_size > 1``.
    report_linger: float = 0.05
    #: Wrap each task execution in a resource profile (wall/CPU/RSS,
    #: see :mod:`repro.telemetry.profiling`) attached to its report and
    #: journal run_end.  Off by default: the disabled path must stay
    #: within noise of a pool without profiling.
    profile_tasks: bool = False
    #: Additionally sample the tracemalloc allocation peak per task.
    #: Requires ``profile_tasks``; taxes every allocation, so it is a
    #: debugging mode, not a fleet default.
    profile_memory: bool = False
    #: Seconds between fleet telemetry pushes to the service (the
    #: ``telemetry`` RPC).  ``None`` (default) disables pushing.
    telemetry_interval: float | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.batch_size is None:
            self.batch_size = self.n_workers
        if self.lease_duration is not None:
            if self.lease_duration <= 0:
                raise ValueError(
                    f"lease_duration must be positive, got {self.lease_duration}"
                )
            if self.heartbeat_interval is None:
                self.heartbeat_interval = self.lease_duration / 3.0
            if not 0 < self.heartbeat_interval < self.lease_duration:
                raise ValueError(
                    f"heartbeat_interval ({self.heartbeat_interval}) must be in"
                    f" (0, lease_duration={self.lease_duration})"
                )
        elif self.heartbeat_interval is not None:
            raise ValueError("heartbeat_interval requires lease_duration")
        if self.fetch_wait < 0:
            raise ValueError(
                f"fetch_wait must be >= 0, got {self.fetch_wait}"
            )
        if self.report_batch_size < 1:
            raise ValueError(
                f"report_batch_size must be >= 1, got {self.report_batch_size}"
            )
        if self.report_linger <= 0:
            raise ValueError(
                f"report_linger must be positive, got {self.report_linger}"
            )
        if self.profile_memory and not self.profile_tasks:
            raise ValueError("profile_memory requires profile_tasks")
        if self.telemetry_interval is not None and self.telemetry_interval <= 0:
            raise ValueError(
                f"telemetry_interval must be positive, got {self.telemetry_interval}"
            )
        # Validates batch/threshold bounds.
        self.policy()

    def policy(self) -> FetchPolicy:
        """The pool's fetch policy object."""
        assert self.batch_size is not None
        return FetchPolicy(batch_size=self.batch_size, threshold=self.threshold)

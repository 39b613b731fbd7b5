"""Job-executing workers: the compute half of the study service.

A :class:`Worker` drains one store's job queue: it atomically claims jobs
(:meth:`~repro.store.jobs.SqlJobQueue.claim`), executes the scenario through
:func:`~repro.scenarios.study.fetch_or_execute` — so results land in the
content-addressed store and resubmitted scenarios are served warm with zero
optimizer executions — heartbeats mid-run from a background thread to keep
the lease alive, and retries transient failures with exponential backoff
until the job's attempt budget is spent.

:class:`WorkerPool` fans the same loop out over N OS processes, each with its
own :class:`~repro.store.sqlite.ResultStore` connection to the shared SQLite
file; the WAL journal plus the conditional-UPDATE claim make that safe.  Both
honour a stop request (``repro work`` wires SIGINT/SIGTERM to it): the
in-flight job finishes, only *claiming* stops.  A stop request only sets a
plain attribute the loop checks each turn, so it is safe inside a signal
handler and takes effect within one poll interval.  A hard interrupt inside a job
(:class:`KeyboardInterrupt` when the library is used directly) releases the
lease so the job re-queues without burning an attempt.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import (
    AllocationError,
    ConfigurationError,
    JobError,
    MappingError,
    ReproError,
    ScenarioError,
    TaskGraphError,
    TopologyError,
    TrafficError,
)
from ..telemetry import MetricsRegistry, get_registry, merge_snapshots, set_registry, span
from .jobs import DEFAULT_LEASE_SECONDS, Job, backoff_seconds

if TYPE_CHECKING:
    from ..scenarios.study import ScenarioOutcome
    from .sqlite import ResultStore

__all__ = ["Worker", "WorkerPool", "WorkerStats"]

#: Errors that say the document itself cannot run (unknown registry name,
#: invalid field or option, a workload that does not fit its grid, an
#: infeasible allocation target ...): retrying such a job cannot help.
_UNRUNNABLE_ERRORS = (
    AllocationError,
    ConfigurationError,
    MappingError,
    ScenarioError,
    TaskGraphError,
    TopologyError,
    TrafficError,
)


def default_worker_id() -> str:
    """A host/pid-qualified worker identity (shows up in lease columns)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerStats:
    """What one worker loop did (returned by :meth:`Worker.run`)."""

    claimed: int = 0
    completed: int = 0
    #: Completed jobs whose result came straight from the store (warm hits).
    store_hits: int = 0
    #: Failed attempts that were re-queued for another try.
    retried: int = 0
    #: Jobs that ended failed (non-retryable error).
    failed: int = 0
    #: Jobs that ended dead (attempt budget exhausted).
    dead: int = 0
    #: Leases lost mid-run (another worker re-claimed after expiry).
    lost_leases: int = 0
    #: Telemetry registry snapshot from this worker's process
    #: (:meth:`~repro.telemetry.MetricsRegistry.snapshot`); empty when the
    #: worker ran in-process and booked straight into the global registry.
    registry: Dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "WorkerStats") -> "WorkerStats":
        """Accumulate another worker's counters into this one (for pools)."""
        for name in self.__dataclass_fields__:
            if name == "registry":
                continue
            setattr(self, name, getattr(self, name) + getattr(other, name))
        snapshots = [s for s in (self.registry, other.registry) if s]
        self.registry = merge_snapshots(snapshots) if snapshots else {}
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def summary(self) -> str:
        """One log line: ``claimed 4: 3 completed (1 warm), 1 dead ...``."""
        parts = [f"{self.completed} completed ({self.store_hits} warm)"]
        for label, value in (
            ("retried", self.retried),
            ("failed", self.failed),
            ("dead", self.dead),
            ("lost lease(s)", self.lost_leases),
        ):
            if value:
                parts.append(f"{value} {label}")
        return f"claimed {self.claimed} job(s): " + ", ".join(parts)


class Worker:
    """A single-threaded claim → execute → complete loop over one store.

    Parameters
    ----------
    store:
        A :class:`~repro.store.sqlite.ResultStore` (or its in-process
        :class:`~repro.store.sqlite.MemoryStore`); jobs are claimed from and
        results written through it.
    worker_id:
        Lease-owner identity; defaults to ``host-pid-random``.
    lease_seconds:
        Lease duration per claim; the heartbeat thread renews it every
        ``lease_seconds / 3`` while a job executes, so a worker only loses a
        lease by dying (or wedging) for longer than the lease.
    poll_interval:
        Sleep between claim attempts when the queue is empty.
    backoff_base:
        Base of the exponential retry delay for transient failures
        (:func:`~repro.store.jobs.backoff_seconds`, doubling per attempt up
        to a minute).
    stop:
        Optional externally-shared event (any object with ``is_set``/``wait``/
        ``set`` — a :class:`threading.Event` or a multiprocessing event);
        setting it stops the loop after the in-flight job finishes.
    """

    def __init__(
        self,
        store: ResultStore,
        worker_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_interval: float = 0.2,
        backoff_base: float = 1.0,
        stop: Optional[Any] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        self.backoff_base = float(backoff_base)
        self._stop = threading.Event() if stop is None else stop
        self._stop_requested = False
        self.stats = WorkerStats()

    def stop(self) -> None:
        """Ask the loop to exit once the in-flight job (if any) finishes.

        Only a plain attribute is set, so this is safe in a signal handler:
        setting the event would take its lock, which the interrupted thread
        may be holding inside ``wait`` — a deadlock.  The loop sees the
        request within one ``poll_interval``.
        """
        self._stop_requested = True

    @property
    def stopping(self) -> bool:
        return self._stop_requested or self._stop.is_set()

    # ------------------------------------------------------------------ one job
    def process_one(self) -> Optional[Job]:
        """Claim and fully process one job; returns its final snapshot.

        ``None`` means nothing was claimable.  Execution errors never
        propagate — they become state transitions (re-queue, failed, dead) —
        except :class:`KeyboardInterrupt`, which releases the lease and
        re-raises.
        """
        job = self.store.claim(self.worker_id, lease_seconds=self.lease_seconds)
        if job is None:
            return None
        self.stats.claimed += 1
        finished = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(job.id, finished), daemon=True
        )
        beater.start()
        try:
            with span(
                "worker.job",
                job=job.id,
                fingerprint=job.fingerprint,
                attempt=job.attempts,
                worker=self.worker_id,
            ):
                result, hit = self._execute(job)
        except KeyboardInterrupt:
            finished.set()
            beater.join()
            self._release_quietly(job)
            raise
        except _UNRUNNABLE_ERRORS as error:
            return self._record_failure(job, error, retryable=False)
        except (ReproError, Exception) as error:  # noqa: BLE001 - the queue is the error boundary
            return self._record_failure(job, error, retryable=True)
        else:
            try:
                done = self.store.complete(job.id, self.worker_id)
                if job.study:
                    self.store.record_study(job.study, [job.fingerprint])
            except JobError:
                # Lease expired mid-run and someone else owns the job now;
                # the result is in the store either way (same fingerprint).
                self.stats.lost_leases += 1
                return self.store.job(job.id)
            self.stats.completed += 1
            if hit:
                self.stats.store_hits += 1
                get_registry().counter("repro_worker_store_hits_total").inc()
            return done
        finally:
            finished.set()
            beater.join()

    def _execute(self, job: Job) -> "ScenarioOutcome":
        from ..scenarios.scenario import Scenario
        from ..scenarios.study import fetch_or_execute

        scenario = Scenario.from_dict(job.scenario)
        return fetch_or_execute(scenario, store=self.store)

    def _heartbeat_loop(self, job_id: str, finished: threading.Event) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not finished.wait(interval):
            try:
                if not self.store.heartbeat(
                    job_id, self.worker_id, lease_seconds=self.lease_seconds
                ):
                    return
            except ReproError:  # pragma: no cover - racing store teardown
                return

    def _record_failure(self, job: Job, error: BaseException, retryable: bool) -> Job:
        delay = backoff_seconds(job.attempts, self.backoff_base)
        message = f"{type(error).__name__}: {error}"
        try:
            failed = self.store.fail(
                job.id,
                self.worker_id,
                message,
                retryable=retryable,
                delay_seconds=delay,
            )
        except JobError:
            self.stats.lost_leases += 1
            return self.store.job(job.id)
        if failed.state == "queued":
            self.stats.retried += 1
        elif failed.state == "dead":
            self.stats.dead += 1
        else:
            self.stats.failed += 1
        return failed

    def _release_quietly(self, job: Job) -> None:
        try:
            self.store.release(job.id, self.worker_id)
        except ReproError:  # pragma: no cover - lease already lost
            pass

    # --------------------------------------------------------------------- loop
    def run(
        self,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain: bool = False,
    ) -> WorkerStats:
        """Process jobs until stopped; returns the accumulated counters.

        ``max_jobs`` bounds how many jobs this call processes; ``idle_timeout``
        exits after that many seconds without claimable work; ``drain`` exits
        as soon as the queue holds no queued *or* leased jobs (the batch /
        benchmark mode).  With none of the three the loop runs until
        :meth:`stop` (the service mode).
        """
        processed = 0
        idle_since: Optional[float] = None
        while not self.stopping:
            job = self.process_one()
            if job is not None:
                processed += 1
                idle_since = None
                if max_jobs is not None and processed >= max_jobs:
                    break
                continue
            if drain:
                snapshot = self.store.jobs_stats()
                if snapshot["queued"] == 0 and snapshot["leased"] == 0:
                    break
            if idle_timeout is not None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= idle_timeout:
                    break
            self._stop.wait(self.poll_interval)
        return self.stats


def _pool_worker(
    path: str,
    options: Dict[str, Any],
    run_options: Dict[str, Any],
    stop: Any,
    results: Any,
) -> None:
    """Child-process entry point: open an own store, run one worker loop."""
    import signal

    worker: Optional[Worker] = None
    requested = False

    def request_stop(*_: Any) -> None:
        # First SIGINT/SIGTERM: finish the in-flight job, then exit cleanly.
        # Plain attributes only (see Worker.stop); a signal that lands before
        # the worker exists is handed over once it does.
        nonlocal requested
        requested = True
        if worker is not None:
            worker.stop()

    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is not None:
            signal.signal(signum, request_stop)

    from .sqlite import ResultStore

    # Each child books into a fresh registry and ships the snapshot home in
    # its stats payload, so the parent can merge per-worker telemetry without
    # double counting (the global registry of a pool child is never read).
    local = MetricsRegistry()
    set_registry(local)
    with ResultStore(path) as store:
        worker = Worker(store, stop=stop, **options)
        if requested:
            worker.stop()
        stats = worker.run(**run_options)
    stats.registry = local.snapshot()
    results.put(stats.to_dict())


class WorkerPool:
    """N worker processes over one SQLite store file (``repro work -c N``).

    Each child opens its own :class:`~repro.store.sqlite.ResultStore` on
    ``path`` — never a shared connection — and runs a plain :class:`Worker`
    loop; cross-process claim safety comes from the queue's conditional
    UPDATE, not from anything in this class.
    """

    def __init__(self, path: str, concurrency: int, **worker_options: Any) -> None:
        if concurrency < 1:
            raise JobError(f"a worker pool needs at least one worker, got {concurrency}")
        self.path = str(path)
        self.concurrency = int(concurrency)
        self.worker_options = worker_options
        #: Per-child :class:`WorkerStats` from the last :meth:`run` call,
        #: in result-arrival order (each carries its registry snapshot).
        self.child_stats: List[WorkerStats] = []
        import multiprocessing

        self._context = multiprocessing.get_context()
        self._stop = self._context.Event()
        self._stop_requested = False
        self._processes: List[Any] = []

    def stop(self) -> None:
        """Ask every worker to exit after its in-flight job.

        Signal-safe like :meth:`Worker.stop`: only a flag is set here, and
        :meth:`run` passes it on to the children's shared event while it
        waits for them.
        """
        self._stop_requested = True

    def run(
        self,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain: bool = False,
    ) -> WorkerStats:
        """Run the pool to completion and return the merged counters.

        ``max_jobs`` is per worker; ``idle_timeout`` and ``drain`` behave as
        in :meth:`Worker.run`.
        """
        results = self._context.Queue()
        run_options = {"max_jobs": max_jobs, "idle_timeout": idle_timeout, "drain": drain}
        self._processes = [
            self._context.Process(
                target=_pool_worker,
                args=(self.path, self.worker_options, run_options, self._stop, results),
                daemon=True,
            )
            for _ in range(self.concurrency)
        ]
        for process in self._processes:
            process.start()
        import queue as queue_module

        poll_interval = float(self.worker_options.get("poll_interval", 0.2))
        payloads: List[Dict[str, Any]] = []
        # Read the results while waiting: a child whose payload is larger
        # than the pipe buffer cannot exit until its payload has been read.
        while any(process.is_alive() for process in self._processes):
            if self._stop_requested:
                self._stop.set()
            try:
                payloads.append(results.get(timeout=poll_interval))
            except queue_module.Empty:
                pass
        while len(payloads) < len(self._processes):
            try:
                payloads.append(results.get(timeout=5.0))
            except queue_module.Empty:  # pragma: no cover - a child died hard
                break
        for process in self._processes:
            process.join()
        merged = WorkerStats()
        self.child_stats = []
        for payload in payloads:
            child = WorkerStats(**payload)
            self.child_stats.append(child)
            merged.merge(child)
        # Fold the children's telemetry into this process's registry so the
        # pool is observable exactly like an in-process worker.
        if merged.registry:
            get_registry().merge(merged.registry)
        return merged

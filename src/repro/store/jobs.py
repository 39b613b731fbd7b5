"""Durable job queue: the write path of the study service.

A *job* is one scenario waiting to be executed by a worker
(:mod:`repro.store.worker`).  Jobs move through a small state machine::

    queued ──claim──▶ leased ──complete──▶ done
      ▲                 │
      │   retryable     ├──fail──▶ failed   (non-retryable error)
      └───failure───────┤
          (backoff)     └──attempts exhausted / lease expired──▶ dead

* ``queued`` — waiting for a worker; ``not_before`` implements retry backoff.
* ``leased`` — claimed by a worker under a lease.  The worker heartbeats to
  extend the lease; when the lease expires (crashed or wedged worker) the job
  becomes claimable again, and each claim counts as an attempt.
* ``done`` — executed; the result document lives in the result store under
  the job's scenario fingerprint.
* ``failed`` — a non-retryable error (e.g. the scenario document no longer
  resolves); ``repro jobs requeue`` puts it back manually.
* ``dead`` — transient failures (or lease expiries) exhausted
  ``max_attempts``.

:class:`SqlJobQueue` is the queue: guarded SQL over the :data:`JOBS_TABLE`
of :class:`~repro.store.sqlite.ResultStore`'s connection, mixed into that
store.  On a file it is durable and shared by every worker process pointed
at the file; :class:`~repro.store.sqlite.MemoryStore` runs it on a private
``:memory:`` database (tests and single-process pipelines).
"""

from __future__ import annotations

import json
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..errors import JobError, StoreError
from ..telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from ..scenarios.scenario import Scenario

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "JOBS_TABLE",
    "JOB_STATES",
    "Job",
    "SqlJobQueue",
    "backoff_seconds",
    "enqueue_submission",
    "failure_transition",
    "note_job_claimed",
    "note_job_enqueued",
    "note_job_expired_dead",
    "note_job_finished",
    "scenarios_from_submission",
    "summarise_jobs",
]

#: Every state a job can be in (see the module docs for the transitions).
JOB_STATES = ("queued", "leased", "done", "failed", "dead")

#: States a job never leaves on its own (``requeue`` is the manual escape).
TERMINAL_STATES = ("done", "failed", "dead")

#: Default execution attempts (first run + retries) before a job goes dead.
DEFAULT_MAX_ATTEMPTS = 3

#: Default worker lease duration; heartbeats extend it by the same amount.
DEFAULT_LEASE_SECONDS = 60.0


def new_job_id() -> str:
    """A fresh, URL-safe job identifier."""
    return f"job-{uuid.uuid4().hex[:12]}"


def backoff_seconds(
    attempts: int,
    base: float = 1.0,
    factor: float = 2.0,
    cap: float = 60.0,
) -> float:
    """Exponential retry delay after ``attempts`` failed executions."""
    if attempts <= 0:
        return 0.0
    return min(cap, base * factor ** (attempts - 1))


def failure_transition(
    attempts: int,
    max_attempts: int,
    retryable: bool,
    now: float,
    delay_seconds: float,
) -> Tuple[str, float]:
    """``(next_state, not_before)`` after a failed execution attempt.

    Non-retryable errors go straight to ``failed``; retryable ones re-queue
    with a delay until the attempt budget is spent, then the job is ``dead``.
    """
    if not retryable:
        return "failed", now
    if attempts >= max_attempts:
        return "dead", now
    return "queued", now + max(0.0, delay_seconds)


def scenarios_from_submission(payload: Any) -> Tuple[Optional[str], List["Scenario"]]:
    """Decode a job submission document into ``(study_name, scenarios)``.

    Accepts a single scenario document, a study document, or a bare JSON
    array of scenario documents — the same shapes ``repro run`` and
    ``repro study`` consume, so any file that runs locally also submits.
    """
    # Imported lazily: `import repro.store` loads this module without the
    # scenario layer (see the package's lazy attributes).
    from ..scenarios.scenario import Scenario
    from ..scenarios.study import STUDY_SCHEMA, Study

    if isinstance(payload, list):
        return None, Study.from_dict(payload).scenarios
    if isinstance(payload, dict):
        if "scenarios" in payload or payload.get("schema") == STUDY_SCHEMA:
            study = Study.from_dict(payload)
            return study.name, study.scenarios
        return None, [Scenario.from_dict(payload)]
    from ..errors import ScenarioError

    raise ScenarioError(
        "a job submission must be a scenario document, a study document or "
        f"an array of scenario documents, got {type(payload).__name__}"
    )


def enqueue_submission(
    store: Any,
    payload: Any,
    priority: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    study: Optional[str] = None,
) -> Tuple[Optional[str], List["Job"]]:
    """Decode a submission document and enqueue one job per unique scenario.

    The shared write path of ``POST /api/v1/jobs`` and ``repro submit``:
    duplicate fingerprints within the submission collapse to one job, and
    when a study name is known (from the document or the ``study`` override)
    the store's study index is updated so ``GET /studies/<name>`` works once
    the jobs finish.  Returns ``(study_name, jobs)``.
    """
    study_name, scenarios = scenarios_from_submission(payload)
    if study is not None:
        study_name = study
    jobs: List[Job] = []
    seen: Dict[str, bool] = {}
    for scenario in scenarios:
        fingerprint = scenario.fingerprint()
        if fingerprint in seen:
            continue
        seen[fingerprint] = True
        jobs.append(
            store.enqueue(
                scenario,
                priority=priority,
                max_attempts=max_attempts,
                study=study_name,
            )
        )
    if study_name is not None:
        store.record_study(study_name, list(seen))
    return study_name, jobs


@dataclass(frozen=True)
class Job:
    """One queued scenario execution (a snapshot — the queue row is the truth)."""

    id: str
    state: str
    fingerprint: str
    scenario: Dict[str, Any]
    priority: int = 0
    study: Optional[str] = None
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    not_before: float = 0.0
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    heartbeat_at: Optional[float] = None
    error: Optional[str] = None
    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    updated_at: float = 0.0

    @property
    def is_terminal(self) -> bool:
        """True once the job can no longer run on its own (done/failed/dead)."""
        return self.state in TERMINAL_STATES

    @property
    def wait_seconds(self) -> Optional[float]:
        """Queue wait until the first claim, or ``None`` while still waiting."""
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.enqueued_at)

    @property
    def run_seconds(self) -> Optional[float]:
        """First-claim-to-finish wall clock, or ``None`` while running."""
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary (what the HTTP API serves)."""
        return {
            "id": self.id,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "study": self.study,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "lease_owner": self.lease_owner,
            "lease_expires_at": self.lease_expires_at,
            "heartbeat_at": self.heartbeat_at,
            "error": self.error,
            "enqueued_at": self.enqueued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "updated_at": self.updated_at,
            "scenario": dict(self.scenario),
        }


def _require_state(value: Optional[str]) -> None:
    if value is not None and value not in JOB_STATES:
        raise JobError(
            f"unknown job state {value!r} (expected one of {', '.join(JOB_STATES)})"
        )


def _scenario_document(scenario: Union["Scenario", Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
    """Validate an enqueue payload; returns ``(fingerprint, document)``."""
    from ..scenarios.scenario import Scenario

    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if not isinstance(scenario, Scenario):
        raise JobError(
            f"a job executes a Scenario (or its document), got {type(scenario).__name__}"
        )
    return scenario.fingerprint(), scenario.to_dict()


def summarise_jobs(
    records: List[Dict[str, Any]], now: Optional[float] = None
) -> Dict[str, Any]:
    """The shared ``jobs_stats`` payload, from plain per-job field dicts.

    Wait and run means treat in-flight jobs consistently: every job that has
    been claimed contributes its queue wait, and every job that has consumed
    worker time contributes it — finished attempts (done/failed/dead) as
    ``finished_at - started_at`` and *currently leased* jobs as their elapsed
    time so far (``now - started_at``).  Historically leased jobs counted
    into the wait mean but silently dropped out of the run mean, so a queue
    with long-running in-flight work looked faster than it was.
    """
    if now is None:
        now = time.time()
    counts = {state: 0 for state in JOB_STATES}
    waits: List[float] = []
    runs: List[float] = []
    for record in records:
        counts[record["state"]] += 1
        started = record.get("started_at")
        finished = record.get("finished_at")
        if started is not None:
            waits.append(max(0.0, started - record["enqueued_at"]))
        if record["state"] == "leased" and started is not None:
            runs.append(max(0.0, now - started))
        elif started is not None and finished is not None:
            runs.append(max(0.0, finished - started))
    def mean(values: List[float]) -> float:
        return (sum(values) / len(values)) if values else 0.0

    return {
        "total": len(records),
        "depth": counts["queued"],
        "queued": counts["queued"],
        "leased": counts["leased"],
        "done": counts["done"],
        "failed": counts["failed"],
        "dead": counts["dead"],
        "mean_wait_seconds": mean(waits),
        "mean_run_seconds": mean(runs),
    }


# --------------------------------------------------------------- telemetry
# Queue-side counters, booked by the transitions of SqlJobQueue (workers and
# the HTTP API both go through them; the worker's own WorkerStats stay
# per-process).

def note_job_enqueued() -> None:
    get_registry().counter("repro_jobs_enqueued_total").inc()


def note_job_claimed(reclaimed: bool) -> None:
    """Book a successful claim; an expired-lease re-claim is a retry."""
    registry = get_registry()
    registry.counter("repro_jobs_claimed_total").inc()
    if reclaimed:
        registry.counter("repro_jobs_lease_expired_total").inc()
        registry.counter("repro_jobs_retried_total").inc()


def note_job_expired_dead() -> None:
    """Book an expired lease whose attempt budget was already spent."""
    registry = get_registry()
    registry.counter("repro_jobs_lease_expired_total").inc()
    registry.counter("repro_jobs_dead_total").inc()


def note_job_finished(record: Dict[str, Any]) -> None:
    """Book a terminal/retry transition from the job's updated field dict."""
    registry = get_registry()
    state = record["state"]
    if state == "done":
        registry.counter("repro_jobs_completed_total").inc()
        started = record.get("started_at")
        finished = record.get("finished_at")
        if started is not None:
            registry.histogram("repro_jobs_wait_seconds").observe(
                max(0.0, started - record["enqueued_at"])
            )
            if finished is not None:
                registry.histogram("repro_jobs_run_seconds").observe(
                    max(0.0, finished - started)
                )
    elif state == "failed":
        registry.counter("repro_jobs_failed_total").inc()
    elif state == "dead":
        registry.counter("repro_jobs_dead_total").inc()
    elif state == "queued":
        # A retryable failure went back to the queue for another attempt.
        registry.counter("repro_jobs_retried_total").inc()


#: The ``jobs`` table and its claim index, created by every host store.
JOBS_TABLE = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    state            TEXT NOT NULL,
    fingerprint      TEXT NOT NULL,
    scenario         TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    study            TEXT,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    not_before       REAL NOT NULL DEFAULT 0,
    lease_owner      TEXT,
    lease_expires_at REAL,
    heartbeat_at     REAL,
    error            TEXT,
    enqueued_at      REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    updated_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_claim_idx
    ON jobs (state, priority DESC, enqueued_at, id);
"""


class SqlJobQueue:
    """The job queue over a :data:`JOBS_TABLE` (mixed into the result store).

    The host store supplies ``_lock`` (a re-entrant lock guarding the
    connection), ``_connection`` (an :mod:`sqlite3` connection with
    :class:`sqlite3.Row` rows on a database holding :data:`JOBS_TABLE`) and
    ``_execute`` (one statement; SQLite errors re-raised as
    :class:`~repro.errors.StoreError`).  Every transition is one guarded
    UPDATE inside the connection's transaction, so a state change is
    all-or-nothing and a lost race changes no row.
    """

    _lock: Any
    _connection: sqlite3.Connection

    def _execute(self, sql: str, parameters: Tuple[Any, ...] = ()) -> sqlite3.Cursor:
        raise NotImplementedError  # provided by the host store

    def enqueue(
        self,
        scenario: Union["Scenario", Dict[str, Any]],
        priority: int = 0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        study: Optional[str] = None,
    ) -> Job:
        """Validate and append one scenario job; returns the queued job."""
        fingerprint, document = _scenario_document(scenario)
        now = time.time()
        job_id = new_job_id()
        with self._lock, self._connection:
            self._execute(
                """
                INSERT INTO jobs (
                    id, state, fingerprint, scenario, priority, study,
                    attempts, max_attempts, not_before, enqueued_at, updated_at
                ) VALUES (?, 'queued', ?, ?, ?, ?, 0, ?, ?, ?, ?)
                """,
                (
                    job_id,
                    fingerprint,
                    json.dumps(document),
                    int(priority),
                    study,
                    max(1, int(max_attempts)),
                    now,
                    now,
                    now,
                ),
            )
        note_job_enqueued()
        return self.job(job_id)

    def claim(
        self, worker_id: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> Optional[Job]:
        """Atomically lease the next runnable job, or ``None``.

        Runnable means queued with ``not_before`` due, or leased with an
        *expired* lease (a crashed or wedged worker) — re-claiming such a job
        is the crash-recovery path and counts as a fresh attempt.  Expired
        jobs whose attempt budget is already spent are marked dead instead.
        The candidate row is re-checked inside the conditional UPDATE, so
        concurrent workers (threads or processes on the same file) never
        claim the same job twice.
        """
        while True:
            with self._lock, self._connection:
                now = time.time()
                row = self._execute(
                    """
                    SELECT id, state, attempts, max_attempts, started_at FROM jobs
                    WHERE (state = 'queued' AND not_before <= ?)
                       OR (state = 'leased' AND lease_expires_at <= ?)
                    ORDER BY priority DESC, enqueued_at, id LIMIT 1
                    """,
                    (now, now),
                ).fetchone()
                if row is None:
                    return None
                guard = (
                    "(state = 'queued' AND not_before <= ?) "
                    "OR (state = 'leased' AND lease_expires_at <= ?)"
                )
                if row["state"] == "leased" and row["attempts"] >= row["max_attempts"]:
                    cursor = self._execute(
                        f"""
                        UPDATE jobs SET state = 'dead', error = ?,
                            lease_owner = NULL, lease_expires_at = NULL,
                            finished_at = ?, updated_at = ?
                        WHERE id = ? AND ({guard})
                        """,
                        (
                            f"lease expired after attempt "
                            f"{row['attempts']}/{row['max_attempts']}",
                            now,
                            now,
                            row["id"],
                            now,
                            now,
                        ),
                    )
                    if cursor.rowcount:
                        note_job_expired_dead()
                    continue
                cursor = self._execute(
                    f"""
                    UPDATE jobs SET state = 'leased', attempts = attempts + 1,
                        lease_owner = ?, lease_expires_at = ?, heartbeat_at = ?,
                        started_at = COALESCE(started_at, ?), updated_at = ?
                    WHERE id = ? AND ({guard})
                    """,
                    (worker_id, now + lease_seconds, now, now, now, row["id"], now, now),
                )
                if cursor.rowcount:
                    note_job_claimed(reclaimed=row["state"] == "leased")
                    return self._job_locked(row["id"])
            # Lost the race for this candidate; look for the next one.

    def heartbeat(
        self, job_id: str, worker_id: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> bool:
        """Extend a held lease; False when the lease was lost in the meantime."""
        now = time.time()
        with self._lock, self._connection:
            cursor = self._execute(
                "UPDATE jobs SET lease_expires_at = ?, heartbeat_at = ?, updated_at = ? "
                "WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                (now + lease_seconds, now, now, job_id, worker_id),
            )
        return bool(cursor.rowcount)

    def _transition_held(
        self, job_id: str, worker_id: str, sql: str, parameters: Tuple[Any, ...]
    ) -> Job:
        """Run a guarded leased-job UPDATE; raise :class:`JobError` on a lost lease."""
        with self._lock, self._connection:
            cursor = self._execute(
                f"{sql} WHERE id = ? AND state = 'leased' AND lease_owner = ?",
                parameters + (job_id, worker_id),
            )
            if cursor.rowcount:
                return self._job_locked(job_id)
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        raise JobError(
            f"job {job_id!r} is not leased by {worker_id!r} "
            f"(state {current.state!r}, owner {current.lease_owner!r})"
        )

    def complete(self, job_id: str, worker_id: str) -> Job:
        """Mark a leased job done (the result is already in the store)."""
        now = time.time()
        job = self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = 'done', error = NULL, lease_owner = NULL, "
            "lease_expires_at = NULL, finished_at = ?, updated_at = ?",
            (now, now),
        )
        note_job_finished(job.to_dict())
        return job

    def fail(
        self,
        job_id: str,
        worker_id: str,
        error: str,
        retryable: bool = True,
        delay_seconds: float = 0.0,
    ) -> Job:
        """Record a failed attempt; re-queues (with backoff), fails or kills."""
        with self._lock:
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        now = time.time()
        state, not_before = failure_transition(
            current.attempts, current.max_attempts, retryable, now, delay_seconds
        )
        job = self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = ?, error = ?, not_before = ?, "
            "lease_owner = NULL, lease_expires_at = NULL, finished_at = ?, "
            "updated_at = ?",
            (state, str(error), not_before, None if state == "queued" else now, now),
        )
        note_job_finished(job.to_dict())
        return job

    def release(self, job_id: str, worker_id: str) -> Job:
        """Give a leased job back untouched (graceful shutdown mid-claim).

        The released claim doesn't count against the retry budget.
        """
        now = time.time()
        return self._transition_held(
            job_id,
            worker_id,
            "UPDATE jobs SET state = 'queued', attempts = MAX(0, attempts - 1), "
            "not_before = ?, lease_owner = NULL, lease_expires_at = NULL, "
            "updated_at = ?",
            (now, now),
        )

    def cancel(self, job_id: str) -> bool:
        """Drop a *queued* job; False when absent or no longer cancellable."""
        with self._lock, self._connection:
            cursor = self._execute(
                "DELETE FROM jobs WHERE id = ? AND state = 'queued'", (job_id,)
            )
        return bool(cursor.rowcount)

    def requeue(self, job_id: str) -> Job:
        """Reset a terminal (done/failed/dead) job to queued with a fresh budget."""
        now = time.time()
        placeholders = ", ".join("?" for _ in TERMINAL_STATES)
        with self._lock, self._connection:
            cursor = self._execute(
                f"""
                UPDATE jobs SET state = 'queued', attempts = 0, not_before = ?,
                    error = NULL, lease_owner = NULL, lease_expires_at = NULL,
                    heartbeat_at = NULL, started_at = NULL, finished_at = NULL,
                    updated_at = ?
                WHERE id = ? AND state IN ({placeholders})
                """,
                (now, now, job_id) + TERMINAL_STATES,
            )
            if cursor.rowcount:
                return self._job_locked(job_id)
            current = self._job_locked(job_id)
        if current is None:
            raise JobError(f"no job {job_id!r} in the queue")
        raise JobError(
            f"only done/failed/dead jobs can be requeued; "
            f"{job_id!r} is {current.state!r}"
        )

    def job(self, job_id: str) -> Optional[Job]:
        """The job with this id, or ``None``."""
        with self._lock:
            return self._job_locked(job_id)

    def _job_locked(self, job_id: str) -> Optional[Job]:
        row = self._execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return None if row is None else self._decode_job(row)

    def jobs(self, state: Optional[str] = None, limit: Optional[int] = None) -> List[Job]:
        """Jobs newest-first, optionally filtered by state."""
        _require_state(state)
        sql = "SELECT * FROM jobs"
        parameters: Tuple[Any, ...] = ()
        if state is not None:
            sql += " WHERE state = ?"
            parameters += (state,)
        sql += " ORDER BY enqueued_at DESC, id"
        if limit is not None:
            sql += " LIMIT ?"
            parameters += (max(0, int(limit)),)
        with self._lock:
            rows = self._execute(sql, parameters).fetchall()
        return [self._decode_job(row) for row in rows]

    def jobs_stats(self) -> Dict[str, Any]:
        """Queue telemetry: per-state counts, depth, mean wait/run times."""
        with self._lock:
            rows = self._execute(
                "SELECT state, enqueued_at, started_at, finished_at FROM jobs"
            ).fetchall()
        return summarise_jobs([dict(row) for row in rows])

    def _decode_job(self, row: sqlite3.Row) -> Job:
        record = dict(row)
        try:
            record["scenario"] = json.loads(record["scenario"])
        except json.JSONDecodeError as error:
            raise StoreError(
                f"stored scenario for job {record['id']!r} is not valid JSON: {error}"
            ) from None
        return Job(**record)

    def _age_jobs(self, cutoff: float) -> None:
        """Delete finished jobs last updated before ``cutoff``.

        The store's ``gc`` calls this inside its transaction, so finished
        jobs age out alongside the results they produced.  Live
        (queued/leased) jobs are never collected.
        """
        placeholders = ", ".join("?" for _ in TERMINAL_STATES)
        self._execute(  # repro-lint: allow R003 — caller holds the transaction
            f"DELETE FROM jobs WHERE state IN ({placeholders}) AND updated_at < ?",
            TERMINAL_STATES + (cutoff,),
        )

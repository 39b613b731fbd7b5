"""Tests for the durable job queue, the workers and the jobs HTTP API."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import sqlite3
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro

from repro.config import GeneticParameters
from repro.errors import JobError, ScenarioError, StoreError
from repro.scenarios import (
    Scenario,
    Study,
    TrafficSettings,
    VerificationSettings,
    execute_scenario,
)
from repro.store import (
    JOB_STATES,
    Job,
    MemoryStore,
    ResultStore,
    Worker,
    WorkerPool,
    create_server,
)
from repro.store.jobs import (
    backoff_seconds,
    enqueue_submission,
    failure_transition,
    scenarios_from_submission,
)
from repro.store.sqlite import MIGRATABLE_SCHEMAS, STORE_SCHEMA
from repro.telemetry import MetricsRegistry, get_registry, set_registry


def smoke_scenario(**changes) -> Scenario:
    """A fast-running scenario for the queue tests."""
    base = Scenario(
        name="jobs-smoke",
        genetic=GeneticParameters(population_size=16, generations=4),
    )
    return base.derive(**changes) if changes else base


def traffic_scenario(**settings) -> Scenario:
    """A small dynamic-traffic scenario with the given traffic settings."""
    settings.setdefault("model_options", {"offered_load_erlangs": 4.0, "request_count": 50})
    return smoke_scenario(
        rows=2,
        columns=2,
        wavelength_count=2,
        optimizer="dynamic_rwa",
        traffic=TrafficSettings(**settings),
    )


def scenario_document(genetic=None, **fields) -> dict:
    """The smoke scenario's document with ``fields`` written in as given.

    The scenario checks refuse such a document at the door, so it reaches a
    queue only as a row written before those checks existed.
    """
    document = smoke_scenario().to_dict()
    document.update(fields)
    if genetic is not None:
        document["genetic"] = dict(document["genetic"], **genetic)
    return document


def traffic_document(**settings) -> dict:
    """The small traffic scenario's document with ``settings`` written into its traffic block.

    Like :func:`scenario_document`, such a document reaches a queue only as
    a row written before the checks that refuse it existed.
    """
    document = traffic_scenario().to_dict()
    document["traffic"] = dict(document["traffic"], **settings)
    return document


def pipeline_scenario(**workload_options) -> Scenario:
    """A 4-stage pipeline on the default mapping with ``workload_options`` added."""
    return smoke_scenario(
        workload="pipeline",
        workload_options={"stage_count": 4, **workload_options},
        mapping="default",
    )


def trace_event(**fields) -> dict:
    """One trace event from core 0 to core 1, with ``fields`` overridden."""
    return dict({"source": 0, "destination": 1, "arrival": 0.0, "holding": 1.0}, **fields)


#: Documents that can never run -> the start of the error each job must keep.
UNRUNNABLE = {
    "infeasible_target": (
        lambda: smoke_scenario(optimizer="first_fit", optimizer_options={"target_counts": 8}),
        "AllocationError: communication c1 cannot reserve 8 wavelengths",
    ),
    "wrong_length_target": (
        lambda: smoke_scenario(
            optimizer="least_used", optimizer_options={"target_counts": [1, 2]}
        ),
        "AllocationError: expected 6 wavelength counts, got 2",
    ),
    "exhaustive_too_large": (
        lambda: smoke_scenario(optimizer="exhaustive"),
        "AllocationError: the chromosome space 2^48 is too large",
    ),
    "seed_on_first_fit": (
        lambda: traffic_scenario(strategy="first_fit", strategy_options={"seed": 3}),
        "TrafficError: invalid options for online allocator 'first_fit'",
    ),
    "unknown_model_option": (
        lambda: traffic_scenario(model_options={"warp_factor": 9}),
        "TrafficError: invalid options for traffic model 'poisson'",
    ),
    "non_integer_seed": (
        lambda: traffic_scenario(strategy="random", strategy_options={"seed": "abc"}),
        "TrafficError: invalid options for online allocator 'random'",
    ),
    "sweep_of_strings": (
        lambda: smoke_scenario(optimizer="first_fit", optimizer_options={"sweep": ["x"]}),
        "ScenarioError: optimizer 'first_fit': 'sweep' must be a list of integers",
    ),
    "sweep_not_a_list": (
        lambda: smoke_scenario(optimizer="most_used", optimizer_options={"sweep": 3}),
        "ScenarioError: optimizer 'most_used': 'sweep' must be a list of integers",
    ),
    "non_integer_model_seed": (
        lambda: traffic_scenario(
            model_options={"offered_load_erlangs": 4.0, "request_count": 50, "seed": "abc"}
        ),
        "TrafficError: invalid options for traffic model 'poisson'",
    ),
    "random_infeasible_target": (
        lambda: smoke_scenario(optimizer="random", optimizer_options={"target_counts": 8}),
        "AllocationError: random allocation found no valid draw",
    ),
    "target_counts_string": (
        lambda: smoke_scenario(optimizer="first_fit", optimizer_options={"target_counts": "x"}),
        "AllocationError: target_counts must be an integer or a list of integers",
    ),
    "target_counts_float": (
        lambda: smoke_scenario(optimizer="most_used", optimizer_options={"target_counts": 2.5}),
        "AllocationError: target_counts must be an integer or a list of integers",
    ),
    "trace_event_missing_key": (
        lambda: traffic_scenario(
            model="trace", model_options={"events": [{"source": 0, "destination": 1}]}
        ),
        "TrafficError: invalid options for traffic model 'trace': a trace event has no",
    ),
    "trace_file_missing": (
        lambda: traffic_scenario(model="trace", model_options={"path": "missing-trace.json"}),
        "TrafficError: invalid options for traffic model 'trace'",
    ),
    "unknown_topology_option": (
        lambda: smoke_scenario(topology_options={"bogus": 1}),
        "TopologyError: invalid options for topology 'ring'",
    ),
    "zero_layers": (
        lambda: smoke_scenario(topology="multi_ring", topology_options={"layers": 0}),
        "TopologyError: a multi-ring stack needs at least one layer",
    ),
    "crossing_loss_string": (
        lambda: smoke_scenario(topology="crossbar", topology_options={"crossing_loss_db": "abc"}),
        "TopologyError: invalid options for topology 'crossbar'",
    ),
    "pipeline_beyond_the_cores": (
        lambda: smoke_scenario(
            workload="pipeline", workload_options={"stage_count": 40}, mapping="round_robin"
        ),
        "MappingError: 40 tasks cannot be mapped one-to-one onto 16 cores",
    ),
    "random_single_task": (
        lambda: smoke_scenario(workload="random", workload_options={"task_count": 1}),
        "TaskGraphError: a random task graph needs at least two tasks",
    ),
    "negative_quality_factor": (
        lambda: smoke_scenario(overrides={"photonic": {"quality_factor": -5}}),
        "ConfigurationError: quality factor must be positive",
    ),
    "fractional_layers": (
        lambda: smoke_scenario(topology="multi_ring", topology_options={"layers": 2.5}),
        "TopologyError: invalid options for topology 'multi_ring': layers must be an integer",
    ),
    "boolean_pillar": (
        lambda: smoke_scenario(topology="multi_ring", topology_options={"pillar": True}),
        "TopologyError: invalid options for topology 'multi_ring': pillar must be an integer",
    ),
    "fractional_request_count": (
        lambda: traffic_scenario(model_options={"offered_load_erlangs": 4.0, "request_count": 50.5}),
        "TrafficError: invalid options for traffic model 'poisson': "
        "request_count must be an integer",
    ),
    "boolean_request_count": (
        lambda: traffic_scenario(model_options={"offered_load_erlangs": 4.0, "request_count": True}),
        "TrafficError: invalid options for traffic model 'poisson': "
        "request_count must be an integer",
    ),
    "fractional_wavelength_count": (
        lambda: scenario_document(wavelength_count=8.5),
        "ScenarioError: scenario 'wavelength_count' must be an integer, got 8.5",
    ),
    "boolean_wavelength_count": (
        lambda: scenario_document(wavelength_count=True),
        "ScenarioError: scenario 'wavelength_count' must be an integer, got True",
    ),
    "string_wavelength_count": (
        lambda: scenario_document(wavelength_count="8"),
        "ScenarioError: scenario 'wavelength_count' must be an integer, got '8'",
    ),
    "fractional_seed": (
        lambda: scenario_document(seed=2.5),
        "ScenarioError: scenario 'seed' must be an integer, got 2.5",
    ),
    "boolean_generations": (
        lambda: scenario_document(genetic={"generations": True}),
        "ScenarioError: invalid genetic parameters: generations must be an integer, got True",
    ),
    "fractional_generations": (
        lambda: scenario_document(genetic={"generations": 4.5}),
        "ScenarioError: invalid genetic parameters: generations must be an integer, got 4.5",
    ),
    "population_below_four": (
        lambda: scenario_document(genetic={"population_size": 3}),
        "ScenarioError: invalid genetic parameters: population size must be at least 4",
    ),
    "nan_offered_load": (
        lambda: traffic_scenario(
            model_options={"offered_load_erlangs": math.nan, "request_count": 50}
        ),
        "TrafficError: offered_load_erlangs must be finite and positive",
    ),
    "infinite_offered_load": (
        lambda: traffic_scenario(
            model_options={"offered_load_erlangs": math.inf, "request_count": 50}
        ),
        "TrafficError: offered_load_erlangs must be finite and positive",
    ),
    "nan_mean_holding": (
        lambda: traffic_scenario(
            model_options={"offered_load_erlangs": 4.0, "request_count": 50, "mean_holding": math.nan}
        ),
        "TrafficError: mean_holding must be finite and positive",
    ),
    "infinite_mean_holding": (
        lambda: traffic_scenario(
            model_options={"offered_load_erlangs": 4.0, "request_count": 50, "mean_holding": math.inf}
        ),
        "TrafficError: mean_holding must be finite and positive",
    ),
    "nan_trace_arrival": (
        lambda: traffic_scenario(
            model="trace", model_options={"events": [trace_event(arrival=math.nan)]}
        ),
        "TrafficError: request 0: arrival time must be finite and non-negative",
    ),
    "nan_trace_holding": (
        lambda: traffic_scenario(
            model="trace", model_options={"events": [trace_event(holding=math.nan)]}
        ),
        "TrafficError: request 0: holding time must be finite and positive",
    ),
    "fractional_verification_parallel": (
        lambda: scenario_document(verification={"simulate": True, "parallel": 2.5}),
        "ScenarioError: verification 'parallel' must be a non-negative integer, got 2.5",
    ),
    "string_verification_parallel": (
        lambda: scenario_document(verification={"simulate": True, "parallel": "2"}),
        "ScenarioError: verification 'parallel' must be a non-negative integer, got '2'",
    ),
    "boolean_verification_parallel": (
        lambda: scenario_document(verification={"simulate": True, "parallel": True}),
        "ScenarioError: verification 'parallel' must be a non-negative integer, got True",
    ),
    "boolean_verification_tolerance": (
        lambda: scenario_document(verification={"simulate": True, "tolerance": True}),
        "ScenarioError: verification 'tolerance' must be a finite non-negative number, "
        "got True",
    ),
    "infinite_verification_tolerance": (
        lambda: scenario_document(verification={"simulate": True, "tolerance": math.inf}),
        "ScenarioError: verification 'tolerance' must be a finite non-negative number, "
        "got inf",
    ),
    "nan_execution_cycles": (
        lambda: pipeline_scenario(execution_cycles=math.nan),
        "TaskGraphError: task S0: execution time must be finite and non-negative",
    ),
    "infinite_execution_cycles": (
        lambda: pipeline_scenario(execution_cycles=math.inf),
        "TaskGraphError: task S0: execution time must be finite and non-negative",
    ),
    "nan_volume_bits": (
        lambda: pipeline_scenario(volume_bits=math.nan),
        "TaskGraphError: edge c0: volume must be finite and positive",
    ),
    "exhaustive_batch_size": (
        lambda: smoke_scenario(optimizer="exhaustive", optimizer_options={"batch_size": "abc"}),
        "ScenarioError: unknown options for optimizer 'exhaustive': ['batch_size']",
    ),
    "boolean_execution_cycles": (
        lambda: pipeline_scenario(execution_cycles=True),
        "TaskGraphError: task S0: execution time must be a number, got True",
    ),
    "boolean_volume_bits": (
        lambda: pipeline_scenario(volume_bits=True),
        "TaskGraphError: edge c0: volume must be a number, got True",
    ),
    "boolean_warmup_fraction": (
        lambda: traffic_document(warmup_fraction=False),
        "ScenarioError: traffic 'warmup_fraction' must be a number in [0, 1), got False",
    ),
    "string_warmup_fraction": (
        lambda: traffic_document(warmup_fraction="0.5"),
        "ScenarioError: traffic 'warmup_fraction' must be a number in [0, 1), got '0.5'",
    ),
    "text_warmup_fraction": (
        lambda: traffic_document(warmup_fraction="abc"),
        "ScenarioError: traffic 'warmup_fraction' must be a number in [0, 1), got 'abc'",
    ),
    "null_warmup_fraction": (
        lambda: traffic_document(warmup_fraction=None),
        "ScenarioError: traffic 'warmup_fraction' must be a number in [0, 1), got None",
    ),
}


def enqueue_as_written(queue, document, max_attempts: int = 3) -> Job:
    """Queue ``document``; a dict the checks refuse goes in as an older row would."""
    if isinstance(document, Scenario):
        return queue.enqueue(document, max_attempts=max_attempts)
    with pytest.raises(ScenarioError):
        queue.enqueue(document)
    job = queue.enqueue(smoke_scenario(), max_attempts=max_attempts)
    with queue._lock, queue._connection:
        queue._execute(
            "UPDATE jobs SET scenario = ? WHERE id = ?", (json.dumps(document), job.id)
        )
    return job


def _subprocess_env() -> dict:
    """Child-process environment with the package importable."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(params=["memory", "sqlite"])
def queue(request, tmp_path):
    """Both store backends behind the same queue tests."""
    if request.param == "memory":
        yield MemoryStore()
    else:
        store = ResultStore(tmp_path / "queue.sqlite")
        yield store
        store.close()


# ------------------------------------------------------------ transition rules
class TestTransitionRules:
    def test_backoff_is_exponential_and_capped(self):
        assert backoff_seconds(0) == 0.0
        assert backoff_seconds(1, base=1.0, factor=2.0) == 1.0
        assert backoff_seconds(2, base=1.0, factor=2.0) == 2.0
        assert backoff_seconds(3, base=1.0, factor=2.0) == 4.0
        assert backoff_seconds(50, base=1.0, factor=2.0, cap=60.0) == 60.0

    def test_non_retryable_goes_failed(self):
        state, _ = failure_transition(1, 3, retryable=False, now=10.0, delay_seconds=5.0)
        assert state == "failed"

    def test_retryable_requeues_with_delay(self):
        state, not_before = failure_transition(
            1, 3, retryable=True, now=10.0, delay_seconds=5.0
        )
        assert state == "queued" and not_before == 15.0

    def test_exhausted_budget_goes_dead(self):
        state, _ = failure_transition(3, 3, retryable=True, now=10.0, delay_seconds=5.0)
        assert state == "dead"


# ------------------------------------------------------------- queue semantics
class TestQueueSemantics:
    def test_enqueue_returns_queued_job(self, queue):
        scenario = smoke_scenario()
        job = queue.enqueue(scenario)
        assert job.state == "queued"
        assert job.fingerprint == scenario.fingerprint()
        assert job.attempts == 0 and job.max_attempts == 3
        assert not job.is_terminal
        assert queue.job(job.id).state == "queued"

    def test_enqueue_accepts_raw_documents(self, queue):
        job = queue.enqueue(smoke_scenario().to_dict())
        assert Scenario.from_dict(job.scenario).fingerprint() == job.fingerprint

    def test_enqueue_rejects_invalid_documents(self, queue):
        with pytest.raises((ScenarioError, JobError)):
            queue.enqueue({"schema": "repro.scenario/1", "no_such_key": 1})
        with pytest.raises(JobError):
            queue.enqueue(42)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"max_attempts": 0}, "max_attempts must be an integer of at least 1, got 0"),
            ({"max_attempts": -4}, "max_attempts must be an integer of at least 1, got -4"),
            ({"max_attempts": 2.5}, "max_attempts must be an integer of at least 1, got 2.5"),
            ({"max_attempts": True}, "max_attempts must be an integer of at least 1, got True"),
            ({"priority": 2.5}, "priority must be an integer, got 2.5"),
            ({"priority": "2"}, "priority must be an integer, got '2'"),
            ({"priority": False}, "priority must be an integer, got False"),
        ],
        ids=[
            "zero_attempts",
            "negative_attempts",
            "fractional_attempts",
            "boolean_attempts",
            "fractional_priority",
            "string_priority",
            "boolean_priority",
        ],
    )
    def test_enqueue_refuses_options_that_are_not_counts(self, queue, options, message):
        with pytest.raises(ScenarioError) as excinfo:
            queue.enqueue(smoke_scenario(), **options)
        assert str(excinfo.value) == message
        assert queue.jobs() == []

    def test_claim_is_fifo_within_a_priority(self, queue):
        first = queue.enqueue(smoke_scenario(name="a"))
        time.sleep(0.002)  # distinct enqueued_at timestamps
        second = queue.enqueue(smoke_scenario(name="b"))
        assert queue.claim("w").id == first.id
        assert queue.claim("w").id == second.id
        assert queue.claim("w") is None

    def test_higher_priority_claims_first(self, queue):
        low = queue.enqueue(smoke_scenario(name="low"), priority=0)
        high = queue.enqueue(smoke_scenario(name="high"), priority=9)
        assert queue.claim("w").id == high.id
        assert queue.claim("w").id == low.id

    def test_claim_leases_and_counts_the_attempt(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("worker-1", lease_seconds=30.0)
        assert job.state == "leased"
        assert job.attempts == 1
        assert job.lease_owner == "worker-1"
        assert job.lease_expires_at > time.time()
        assert job.started_at is not None

    def test_heartbeat_extends_only_the_owners_lease(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("owner", lease_seconds=30.0)
        assert queue.heartbeat(job.id, "owner", lease_seconds=60.0) is True
        assert queue.job(job.id).lease_expires_at > job.lease_expires_at
        assert queue.heartbeat(job.id, "impostor") is False
        assert queue.heartbeat("absent", "owner") is False

    def test_complete_requires_the_lease(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("owner")
        with pytest.raises(JobError):
            queue.complete(job.id, "impostor")
        done = queue.complete(job.id, "owner")
        assert done.state == "done" and done.is_terminal
        assert done.finished_at is not None and done.run_seconds is not None
        with pytest.raises(JobError):
            queue.complete(job.id, "owner")

    def test_retryable_failure_requeues_with_backoff(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("w")
        failed = queue.fail(job.id, "w", "boom", retryable=True, delay_seconds=30.0)
        assert failed.state == "queued"
        assert failed.error == "boom"
        assert failed.attempts == 1
        assert failed.not_before > time.time() + 10.0
        # The backoff delay keeps the job out of reach for now.
        assert queue.claim("w") is None

    def test_exhausted_attempts_go_dead(self, queue):
        queue.enqueue(smoke_scenario(), max_attempts=2)
        for _ in range(2):
            job = queue.claim("w")
            last = queue.fail(job.id, "w", "boom", retryable=True, delay_seconds=0.0)
        assert last.state == "dead"
        assert queue.claim("w") is None

    def test_non_retryable_failure_goes_failed(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("w")
        failed = queue.fail(job.id, "w", "bad document", retryable=False)
        assert failed.state == "failed"
        assert queue.claim("w") is None

    def test_release_requeues_without_burning_an_attempt(self, queue):
        queue.enqueue(smoke_scenario())
        job = queue.claim("w")
        assert job.attempts == 1
        released = queue.release(job.id, "w")
        assert released.state == "queued" and released.attempts == 0
        assert queue.claim("w").attempts == 1

    def test_cancel_only_drops_queued_jobs(self, queue):
        job = queue.enqueue(smoke_scenario())
        assert queue.cancel(job.id) is True
        assert queue.job(job.id) is None
        assert queue.cancel(job.id) is False
        leased = queue.enqueue(smoke_scenario(name="leased"))
        queue.claim("w")
        assert queue.cancel(leased.id) is False

    def test_requeue_resets_terminal_jobs(self, queue):
        job = queue.enqueue(smoke_scenario())
        with pytest.raises(JobError):
            queue.requeue(job.id)  # still queued
        claimed = queue.claim("w")
        queue.fail(claimed.id, "w", "boom", retryable=False)
        fresh = queue.requeue(job.id)
        assert fresh.state == "queued"
        assert fresh.attempts == 0 and fresh.error is None
        assert queue.claim("w").id == job.id
        with pytest.raises(JobError):
            queue.requeue("absent")

    def test_expired_lease_is_reclaimable_by_another_worker(self, queue):
        queue.enqueue(smoke_scenario())
        first = queue.claim("crashed", lease_seconds=0.05)
        time.sleep(0.1)
        second = queue.claim("survivor", lease_seconds=30.0)
        assert second is not None and second.id == first.id
        assert second.lease_owner == "survivor"
        assert second.attempts == 2  # the crashed claim burned one attempt
        done = queue.complete(second.id, "survivor")
        assert done.state == "done"

    def test_expired_lease_with_spent_budget_goes_dead(self, queue):
        job = queue.enqueue(smoke_scenario(), max_attempts=1)
        queue.claim("crashed", lease_seconds=0.05)
        time.sleep(0.1)
        assert queue.claim("survivor") is None
        snapshot = queue.job(job.id)
        assert snapshot.state == "dead"
        assert "lease expired" in snapshot.error

    def test_jobs_listing_filters_and_limits(self, queue):
        queue.enqueue(smoke_scenario(name="a"))
        queue.enqueue(smoke_scenario(name="b"))
        claimed = queue.claim("w")
        assert {job.state for job in queue.jobs()} == {"queued", "leased"}
        assert [job.id for job in queue.jobs(state="leased")] == [claimed.id]
        assert len(queue.jobs(limit=1)) == 1
        with pytest.raises(JobError):
            queue.jobs(state="sideways")

    def test_jobs_stats_counts_and_depth(self, queue):
        assert queue.jobs_stats()["total"] == 0
        queue.enqueue(smoke_scenario(name="a"))
        queue.enqueue(smoke_scenario(name="b"))
        job = queue.claim("w")
        queue.complete(job.id, "w")
        stats = queue.jobs_stats()
        assert stats["total"] == 2
        assert stats["queued"] == 1 and stats["depth"] == 1
        assert stats["done"] == 1
        assert stats["mean_wait_seconds"] >= 0.0
        assert stats["mean_run_seconds"] >= 0.0

    def test_store_stats_include_queue_telemetry(self, queue):
        queue.enqueue(smoke_scenario())
        stats = queue.stats()
        assert stats["jobs_total"] == 1 and stats["jobs_depth"] == 1

    def test_gc_prunes_the_study_index_and_ages_finished_jobs(self, queue):
        done = queue.enqueue(smoke_scenario(name="done"))
        queue.complete(queue.claim("w").id, "w")
        waiting = queue.enqueue(smoke_scenario(name="waiting"))
        # The study names a fingerprint no stored result carries.
        queue.record_study("demo", [done.fingerprint])
        time.sleep(0.05)
        queue.gc(max_age_seconds=0.01)
        assert queue.studies() == {}
        assert [job.id for job in queue.jobs()] == [waiting.id]


# ----------------------------------------------------------- concurrent claims
def _race_claims(handles) -> dict:
    """One thread per handle claims and completes until the queue is empty.

    Returns job id -> the workers that leased it.  The switch interval is
    shortened so the threads interleave inside ``claim``.
    """
    claims: dict = {}
    errors: list = []
    lock = threading.Lock()

    def drain(worker_id, handle):
        try:
            while (job := handle.claim(worker_id)) is not None:
                with lock:
                    claims.setdefault(job.id, []).append(worker_id)
                handle.complete(job.id, worker_id)
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    threads = [
        threading.Thread(target=drain, args=(f"w{n}", handle))
        for n, handle in enumerate(handles)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return claims


class TestConcurrentClaims:
    JOBS = 40

    def _enqueue(self, queue) -> set:
        return {
            queue.enqueue(smoke_scenario(name=f"race-{n}")).id
            for n in range(self.JOBS)
        }

    def _assert_each_job_leased_once(self, queue, ids, claims):
        assert set(claims) == ids
        assert all(len(workers) == 1 for workers in claims.values())
        jobs = queue.jobs()
        assert len(jobs) == self.JOBS
        assert all(job.state == "done" and job.attempts == 1 for job in jobs)

    def test_threads_never_claim_a_job_twice(self, queue):
        ids = self._enqueue(queue)
        claims = _race_claims([queue] * 4)
        self._assert_each_job_leased_once(queue, ids, claims)

    def test_two_handles_on_one_file_never_claim_a_job_twice(self, tmp_path):
        path = tmp_path / "race.sqlite"
        with ResultStore(path) as first, ResultStore(path) as second:
            ids = self._enqueue(first)
            claims = _race_claims([first, second, first, second])
            self._assert_each_job_leased_once(second, ids, claims)


# ------------------------------------------------------------ submission paths
class TestSubmissions:
    def test_single_scenario_document(self):
        study_name, scenarios = scenarios_from_submission(smoke_scenario().to_dict())
        assert study_name is None and len(scenarios) == 1

    def test_array_of_scenarios(self):
        docs = [smoke_scenario(name="a").to_dict(), smoke_scenario(name="b").to_dict()]
        study_name, scenarios = scenarios_from_submission(docs)
        assert study_name is None
        assert [scenario.name for scenario in scenarios] == ["a", "b"]

    def test_study_document_keeps_its_name(self):
        study = Study([smoke_scenario(name="a")], name="batch-7")
        study_name, scenarios = scenarios_from_submission(study.to_dict())
        assert study_name == "batch-7" and len(scenarios) == 1

    def test_junk_is_rejected(self):
        with pytest.raises(ScenarioError):
            scenarios_from_submission("not a document")

    def test_enqueue_submission_dedupes_and_records_the_study(self):
        store = MemoryStore()
        doc = smoke_scenario().to_dict()
        study_name, jobs = enqueue_submission(
            store, [doc, doc], priority=2, max_attempts=5, study="dup-study"
        )
        assert study_name == "dup-study"
        assert len(jobs) == 1  # identical fingerprints collapse
        assert jobs[0].priority == 2 and jobs[0].max_attempts == 5
        assert store.studies() == {"dup-study": [jobs[0].fingerprint]}


# -------------------------------------------------------------- sqlite details
class TestSqliteQueue:
    def test_jobs_survive_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with ResultStore(path) as store:
            job = store.enqueue(smoke_scenario(), priority=3)
        with ResultStore(path) as store:
            restored = store.job(job.id)
            assert restored.state == "queued" and restored.priority == 3
            assert store.claim("w").id == job.id

    def test_v1_store_is_migrated_in_place(self, tmp_path):
        path = tmp_path / "old.sqlite"
        scenario = smoke_scenario()
        result = execute_scenario(scenario).summary()
        with ResultStore(path) as store:
            store.put(result)
        # Rewind the file to repro.store/1: no jobs table, old schema stamp.
        with sqlite3.connect(path) as connection:
            connection.execute("DROP TABLE jobs")
            connection.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema'",
                (MIGRATABLE_SCHEMAS[0],),
            )
        with ResultStore(path) as store:
            # Migrated: results intact and the queue works.
            assert store.get(result.fingerprint) == result
            job = store.enqueue(scenario)
            assert store.claim("w").id == job.id
        # The new schema id is stamped on disk.
        with sqlite3.connect(path) as connection:
            stamped = connection.execute(
                "SELECT value FROM store_meta WHERE key = 'schema'"
            ).fetchone()[0]
        assert stamped == STORE_SCHEMA

    def test_unknown_schema_is_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ResultStore(path):
            pass
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE store_meta SET value = 'repro.store/99' WHERE key = 'schema'"
            )
        with pytest.raises(StoreError, match="repro.store/99"):
            ResultStore(path)

    def test_gc_drops_old_terminal_jobs_only(self, tmp_path):
        with ResultStore(tmp_path / "q.sqlite") as store:
            done = store.enqueue(smoke_scenario(name="done"))
            claimed = store.claim("w")
            store.complete(claimed.id, "w")
            store.enqueue(smoke_scenario(name="waiting"))
            time.sleep(0.05)
            store.gc(max_age_seconds=0.01)
            assert store.job(done.id) is None
            assert store.jobs_stats()["queued"] == 1


# --------------------------------------------------------------------- workers
class TestWorker:
    def test_executes_a_job_end_to_end(self, tmp_path):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "q.sqlite") as store:
            job = store.enqueue(scenario, study="worker-study")
            worker = Worker(store, lease_seconds=30.0)
            stats = worker.run(drain=True)
            assert stats.claimed == 1 and stats.completed == 1
            assert store.job(job.id).state == "done"
            stored = store.peek(scenario.fingerprint())
            assert stored is not None
            assert store.studies() == {"worker-study": [scenario.fingerprint()]}
        direct = execute_scenario(scenario).summary()
        assert stored.comparable_dict() == direct.comparable_dict()

    def test_resubmission_is_served_warm(self, tmp_path, monkeypatch):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "q.sqlite") as store:
            store.enqueue(scenario)
            Worker(store).run(drain=True)

            # The result is cached now: a second job must not touch the
            # optimizer at all.
            def forbidden(*args, **kwargs):
                raise AssertionError("optimizer executed on a warm submission")

            monkeypatch.setattr("repro.scenarios.study.execute_scenario", forbidden)
            store.enqueue(scenario)
            worker = Worker(store)
            stats = worker.run(drain=True)
            assert stats.completed == 1 and stats.store_hits == 1

    def test_transient_failures_retry_then_die(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("flaky backend")

        monkeypatch.setattr("repro.scenarios.study.fetch_or_execute", explode)
        with ResultStore(tmp_path / "q.sqlite") as store:
            job = store.enqueue(smoke_scenario(), max_attempts=3)
            worker = Worker(store, backoff_base=0.0, poll_interval=0.01)
            stats = worker.run(drain=True)
            assert stats.retried == 2 and stats.dead == 1
            snapshot = store.job(job.id)
            assert snapshot.state == "dead"
            assert "flaky backend" in snapshot.error

    def test_scenario_errors_fail_without_retry(self, tmp_path, monkeypatch):
        def reject(*args, **kwargs):
            raise ScenarioError("document no longer resolves")

        monkeypatch.setattr("repro.scenarios.study.fetch_or_execute", reject)
        with ResultStore(tmp_path / "q.sqlite") as store:
            job = store.enqueue(smoke_scenario())
            stats = Worker(store).run(drain=True)
            assert stats.failed == 1 and stats.retried == 0
            snapshot = store.job(job.id)
            assert snapshot.state == "failed" and snapshot.attempts == 1

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_unrunnable_documents_fail_once(self, queue, case):
        build, message = UNRUNNABLE[case]
        job = enqueue_as_written(queue, build())
        stats = Worker(queue, backoff_base=0.0, poll_interval=0.01).run(drain=True)
        assert stats.failed == 1 and stats.retried == 0 and stats.dead == 0
        snapshot = queue.job(job.id)
        assert snapshot.state == "failed" and snapshot.attempts == 1
        assert snapshot.error.startswith(message), snapshot.error

    def test_keyboard_interrupt_releases_the_lease(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.scenarios.study.fetch_or_execute", interrupt)
        with ResultStore(tmp_path / "q.sqlite") as store:
            job = store.enqueue(smoke_scenario())
            worker = Worker(store)
            with pytest.raises(KeyboardInterrupt):
                worker.process_one()
            snapshot = store.job(job.id)
            assert snapshot.state == "queued"
            assert snapshot.attempts == 0  # the interrupted claim is free

    def test_idle_timeout_and_stop(self):
        store = MemoryStore()
        worker = Worker(store, poll_interval=0.01)
        started = time.monotonic()
        worker.run(idle_timeout=0.05)
        assert time.monotonic() - started < 5.0
        worker.stop()
        assert worker.stopping
        worker.run()  # returns immediately once stopped

    def test_heartbeat_keeps_a_slow_job_leased(self, queue, monkeypatch):
        def slow(*args, **kwargs):
            time.sleep(0.5)
            raise ScenarioError("done sleeping")

        monkeypatch.setattr("repro.scenarios.study.fetch_or_execute", slow)
        job = queue.enqueue(smoke_scenario())
        # Lease far shorter than the job: only heartbeats keep it alive.
        worker = Worker(queue, lease_seconds=0.2)
        worker.process_one()
        assert worker.stats.lost_leases == 0
        assert queue.job(job.id).state == "failed"

    def test_worker_pool_drains_the_queue(self, tmp_path):
        path = tmp_path / "pool.sqlite"
        scenarios = [smoke_scenario(name=f"pool-{n}") for n in range(3)]
        with ResultStore(path) as store:
            for scenario in scenarios:
                store.enqueue(scenario)
        pool = WorkerPool(str(path), concurrency=2, poll_interval=0.05)
        stats = pool.run(drain=True)
        assert stats.claimed == 3 and stats.completed == 3
        with ResultStore(path) as store:
            assert store.jobs_stats()["done"] == 3
            for scenario in scenarios:
                assert scenario.fingerprint() in store

    def test_worker_pool_reads_large_payloads_while_joining(self, tmp_path, monkeypatch):
        # A child whose stats payload outgrows the pipe buffer cannot exit
        # until the parent reads it; joining first would wait forever.
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the padding patch reaches the children only by fork")
        padding = 3000
        original_run = Worker.run

        def padded_run(worker, *args, **kwargs):
            registry = get_registry()  # the child's own registry
            for index in range(padding):
                registry.counter("repro_test_padding_total", series=f"{index:05d}").inc()
            return original_run(worker, *args, **kwargs)

        monkeypatch.setattr(Worker, "run", padded_run)
        path = tmp_path / "pool.sqlite"
        with ResultStore(path):
            pass
        pool = WorkerPool(str(path), concurrency=2, poll_interval=0.05)
        previous = set_registry(MetricsRegistry())
        try:
            runner = threading.Thread(target=pool.run, kwargs={"drain": True}, daemon=True)
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive(), "WorkerPool.run did not return"
            merged = get_registry()
            assert len(pool.child_stats) == 2
            for child in pool.child_stats:
                assert len(pickle.dumps(child.to_dict())) > 64 * 1024
            for index in (0, padding - 1):
                assert merged.counter_value(
                    "repro_test_padding_total", series=f"{index:05d}"
                ) == 2
        finally:
            set_registry(previous)

    def test_worker_pool_rejects_zero_concurrency(self, tmp_path):
        with pytest.raises(JobError):
            WorkerPool(str(tmp_path / "q.sqlite"), concurrency=0)

    def test_worker_pool_runs_verified_jobs(self, tmp_path):
        # Replays run in the worker's own process: a pool child is a daemon
        # and may start no processes of its own.
        path = tmp_path / "pool.sqlite"
        scenario = smoke_scenario(
            name="pool-verified",
            verification=VerificationSettings(simulate=True, parallel=2),
        )
        with ResultStore(path) as store:
            job = store.enqueue(scenario)
        stats = WorkerPool(str(path), 2, backoff_base=0.0).run(drain=True)
        assert stats.completed == 1 and stats.dead == 0
        with ResultStore(path) as store:
            done = store.job(job.id)
            assert done.state == "done" and done.attempts == 1, done.error
            result = store.peek(job.fingerprint)
        assert result is not None and result.verified
        assert len(result.verification_rows) == result.pareto_size > 0


# -------------------------------------------------------------- crash recovery
_CRASH_CLAIMER = """
import sys, time
from repro.store import ResultStore

store = ResultStore(sys.argv[1])
job = store.claim("doomed-worker", lease_seconds=float(sys.argv[2]))
print(job.id, flush=True)
time.sleep(120)  # never completes; the parent kills us mid-lease
"""


class TestCrashRecovery:
    def test_killed_worker_lease_expires_and_job_completes(self, tmp_path):
        path = tmp_path / "crash.sqlite"
        scenario = smoke_scenario(name="crash-recovery")
        with ResultStore(path) as store:
            job = store.enqueue(scenario, max_attempts=3)

        child = subprocess.Popen(
            [sys.executable, "-c", _CRASH_CLAIMER, str(path), "1.0"],
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        try:
            claimed_line = child.stdout.readline().strip()
            assert claimed_line.startswith("job-")
        finally:
            child.kill()
            child.wait(timeout=30)

        with ResultStore(path) as store:
            snapshot = store.job(job.id)
            assert snapshot.state == "leased"
            assert snapshot.lease_owner == "doomed-worker"
            # A second worker cannot claim until the dead worker's lease
            # expires, then it re-claims and completes the job.
            deadline = time.time() + 30.0
            worker = Worker(store, lease_seconds=30.0, poll_interval=0.05)
            stats = worker.run(max_jobs=1, idle_timeout=deadline - time.time())
            assert stats.completed == 1
            final = store.job(job.id)
            assert final.state == "done"
            assert final.attempts == 2  # crashed claim + successful claim
            recovered = store.peek(scenario.fingerprint())
        direct = execute_scenario(scenario).summary()
        assert recovered.comparable_dict() == direct.comparable_dict()


# ------------------------------------------------------------- study enqueue
class TestStudyEnqueue:
    """A study is queued as the document it is, through ``enqueue_submission``."""

    def test_enqueue_instead_of_execute(self):
        store = MemoryStore()
        scenarios = [smoke_scenario(name="a"), smoke_scenario(name="b")]
        document = Study(scenarios, name="queued-study").to_dict()
        study_name, jobs = enqueue_submission(store, document, priority=4)
        assert study_name == "queued-study"
        assert len(jobs) == 2
        assert all(job.state == "queued" and job.priority == 4 for job in jobs)
        assert all(job.study == "queued-study" for job in jobs)
        assert store.studies()["queued-study"] == [
            scenario.fingerprint() for scenario in scenarios
        ]
        # No execution happened: the queue holds the work, the store no results.
        assert len(store) == 0

    def test_enqueue_dedupes_identical_scenarios(self):
        store = MemoryStore()
        scenario = smoke_scenario()
        _, jobs = enqueue_submission(
            store, Study([scenario, scenario], name="dup").to_dict()
        )
        assert len(jobs) == 1
        assert store.studies() == {"dup": [scenario.fingerprint()]}

    def test_stored_scenarios_are_queued_and_served_warm(self):
        store = MemoryStore()
        cached = smoke_scenario(name="cached")
        fresh = smoke_scenario(name="fresh")
        store.put(execute_scenario(cached).summary())
        _, jobs = enqueue_submission(
            store, Study([cached, fresh], name="partial").to_dict()
        )
        assert [job.fingerprint for job in jobs] == [
            cached.fingerprint(),
            fresh.fingerprint(),
        ]
        stats = Worker(store, poll_interval=0.01).run(drain=True)
        assert stats.completed == 2 and stats.store_hits == 1
        assert store.studies()["partial"] == [job.fingerprint for job in jobs]


# -------------------------------------------------------------------- http api
@pytest.fixture()
def api(tmp_path):
    """A live server over an empty store; yields (base_url, store)."""
    store = ResultStore(tmp_path / "api.sqlite")
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", store
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def _request(method: str, url: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestJobsHttpApi:
    def test_submit_single_scenario(self, api):
        base, store = api
        status, reply = _request(
            "POST", f"{base}/api/v1/jobs", smoke_scenario().to_dict()
        )
        assert status == 201
        assert reply["count"] == 1 and reply["study"] is None
        job = reply["jobs"][0]
        assert job["state"] == "queued"
        assert job["result_cached"] is False
        assert job["pareto_url"].endswith("/pareto")
        status, fetched = _request("GET", f"{base}{job['job_url']}")
        assert status == 200 and fetched["id"] == job["id"]

    def test_submit_study_document_records_the_study(self, api):
        base, store = api
        study = Study(
            [smoke_scenario(name="a"), smoke_scenario(name="b")], name="http-study"
        )
        status, reply = _request("POST", f"{base}/api/v1/jobs", study.to_dict())
        assert status == 201 and reply["count"] == 2
        assert reply["study"] == "http-study"
        assert len(store.studies()["http-study"]) == 2

    def test_submit_wrapper_with_options(self, api):
        base, store = api
        body = {
            "scenario": smoke_scenario().to_dict(),
            "priority": 7,
            "max_attempts": 9,
            "study": "wrapped",
        }
        status, reply = _request("POST", f"{base}/api/v1/jobs", body)
        assert status == 201
        job = reply["jobs"][0]
        assert job["priority"] == 7 and job["max_attempts"] == 9
        assert job["study"] == "wrapped"

    @pytest.mark.parametrize(
        "options",
        [
            {"priority": 2.5},
            {"priority": "2"},
            {"priority": True},
            {"max_attempts": True},
            {"max_attempts": 0},
            {"max_attempts": 2.5},
        ],
    )
    def test_submit_wrapper_refuses_options_that_are_not_counts(self, api, options):
        base, store = api
        body = {"scenario": smoke_scenario().to_dict(), **options}
        status, reply = _request("POST", f"{base}/api/v1/jobs", body)
        assert status == 400 and reply["status"] == 400, reply
        assert f"{next(iter(options))} must be an integer" in reply["error"]
        assert store.jobs() == []

    def test_listing_filters_by_state(self, api):
        base, store = api
        store.enqueue(smoke_scenario(name="a"))
        leased = store.claim("w")
        status, reply = _request("GET", f"{base}/api/v1/jobs?state=leased")
        assert status == 200
        assert [job["id"] for job in reply["jobs"]] == [leased.id]
        assert reply["stats"]["leased"] == 1
        status, reply = _request("GET", f"{base}/api/v1/jobs?state=sideways")
        assert status == 400 and "sideways" in reply["error"]
        status, reply = _request("GET", f"{base}/api/v1/jobs?limit=zero")
        assert status == 400

    @pytest.mark.parametrize(
        "query", ["state=sideways", "state=QUEUED", "limit=-3", "limit=2.5", "limit=zero"]
    )
    def test_listing_query_errors_are_400(self, api, query):
        base, store = api
        store.enqueue(smoke_scenario(name="listed"))
        status, reply = _request("GET", f"{base}/api/v1/jobs?{query}")
        assert status == 400 and reply["status"] == 400, reply
        name, value = query.split("=")
        assert reply["error"].startswith(f"{name} must be") and repr(value) in reply["error"]

    @pytest.mark.parametrize("route", ["jobs", "scenarios"])
    @pytest.mark.parametrize(
        "case",
        [
            "population_below_four",
            "fractional_generations",
            "string_wavelength_count",
            "fractional_verification_parallel",
            "boolean_warmup_fraction",
            "string_warmup_fraction",
            "text_warmup_fraction",
            "null_warmup_fraction",
        ],
    )
    def test_documents_the_checks_refuse_are_400(self, api, route, case):
        base, store = api
        build, message = UNRUNNABLE[case]
        status, reply = _request("POST", f"{base}/api/v1/{route}", build())
        assert status == 400, reply
        assert message.split(": ", 1)[1] in reply["error"]
        assert store.jobs() == []

    def test_cancel_and_requeue(self, api):
        base, store = api
        queued = store.enqueue(smoke_scenario(name="victim"))
        status, reply = _request("DELETE", f"{base}/api/v1/jobs/{queued.id}")
        assert status == 200 and reply["cancelled"] is True
        status, reply = _request("DELETE", f"{base}/api/v1/jobs/{queued.id}")
        assert status == 404
        job = store.enqueue(smoke_scenario(name="finished"))
        store.fail(store.claim("w").id, "w", "boom", retryable=False)
        status, reply = _request("DELETE", f"{base}/api/v1/jobs/{job.id}")
        assert status == 409  # terminal jobs cannot be cancelled
        status, reply = _request("POST", f"{base}/api/v1/jobs/{job.id}/requeue")
        assert status == 200 and reply["state"] == "queued"
        status, reply = _request("POST", f"{base}/api/v1/jobs/absent/requeue")
        assert status == 404

    def test_malformed_body_gets_the_error_envelope(self, api):
        base, _ = api
        request = urllib.request.Request(
            f"{base}/api/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["status"] == 400 and "JSON" in payload["error"]

    def test_uncaught_handler_error_becomes_a_500_envelope(self, api):
        base, store = api
        original = store.jobs_stats
        store.jobs_stats = lambda: 1 / 0  # type: ignore[assignment]
        try:
            status, payload = _request("GET", f"{base}/api/v1/jobs")
            assert status == 500
            assert payload["status"] == 500
            assert "internal error" in payload["error"]
            assert "ZeroDivisionError" in payload["error"]
        finally:
            store.jobs_stats = original  # type: ignore[assignment]

    def test_submit_work_fetch_pareto_end_to_end(self, api, monkeypatch):
        base, store = api
        scenario = smoke_scenario(name="end-to-end")
        status, reply = _request("POST", f"{base}/api/v1/jobs", scenario.to_dict())
        assert status == 201
        job = reply["jobs"][0]
        Worker(store).run(drain=True)
        status, done = _request("GET", f"{base}{job['job_url']}")
        assert status == 200 and done["state"] == "done"
        status, pareto = _request("GET", f"{base}{job['pareto_url']}")
        assert status == 200 and pareto["pareto_rows"]

        # Second submission of the same scenario: served warm, zero optimizer
        # executions.
        def forbidden(*args, **kwargs):
            raise AssertionError("optimizer executed on a warm submission")

        monkeypatch.setattr("repro.scenarios.study.execute_scenario", forbidden)
        status, reply = _request("POST", f"{base}/api/v1/jobs", scenario.to_dict())
        assert status == 201
        assert reply["jobs"][0]["result_cached"] is True
        stats = Worker(store).run(drain=True)
        assert stats.completed == 1 and stats.store_hits == 1


# ------------------------------------------------------------------------- cli
def run_cli(capsys, *argv: str) -> str:
    from repro.cli import main

    exit_code = main(list(argv))
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    return captured.out


class TestJobsCli:
    def _scenario_file(self, tmp_path) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(smoke_scenario().to_json())
        return str(path)

    def test_submit_work_and_warm_resubmit(self, tmp_path, capsys, monkeypatch):
        document = self._scenario_file(tmp_path)
        store = str(tmp_path / "q.sqlite")
        output = run_cli(capsys, "submit", document, "--store", store)
        assert "enqueued 1 job(s)" in output
        output = run_cli(capsys, "work", "--store", store, "--drain")
        assert "1 completed (0 warm)" in output
        run_cli(capsys, "submit", document, "--store", store)
        monkeypatch.setattr(
            "repro.scenarios.study.execute_scenario",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("not warm")),
        )
        output = run_cli(capsys, "work", "--store", store, "--drain")
        assert "1 completed (1 warm)" in output

    def test_jobs_ls_status_cancel_requeue_stats(self, tmp_path, capsys):
        store_path = str(tmp_path / "q.sqlite")
        with ResultStore(store_path) as store:
            queued = store.enqueue(smoke_scenario(name="one"))
            other = store.enqueue(smoke_scenario(name="two"))
            store.fail(store.claim("w").id, "w", "boom", retryable=False)
        listing = run_cli(capsys, "jobs", "ls", "--store", store_path)
        assert "2 job(s)" in listing and "failed" in listing
        status = run_cli(capsys, "jobs", "status", other.id, "--store", store_path)
        assert json.loads(status)["id"] == other.id
        stats = run_cli(capsys, "jobs", "stats", "--store", store_path)
        assert "depth" in stats
        run_cli(capsys, "jobs", "requeue", queued.id, "--store", store_path)
        run_cli(capsys, "jobs", "cancel", queued.id, "--store", store_path)
        assert run_cli(capsys, "jobs", "ls", "--store", store_path).count("job-") == 1

    def test_jobs_needs_exactly_one_target(self, capsys):
        from repro.cli import main

        assert main(["jobs", "ls"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_submit_a_study_document_into_a_store(self, tmp_path, capsys):
        scenarios = [smoke_scenario(name="a"), smoke_scenario(name="b")]
        document = tmp_path / "study.json"
        document.write_text(json.dumps(Study(scenarios, name="cli-study").to_dict()))
        store_path = str(tmp_path / "q.sqlite")
        output = run_cli(
            capsys, "submit", str(document), "--store", store_path, "--priority", "4"
        )
        assert "enqueued 2 job(s)" in output and "under study 'cli-study'" in output
        with ResultStore(store_path) as store:
            assert store.jobs_stats()["queued"] == 2
            assert len(store) == 0  # nothing executed yet
            jobs = store.jobs()
            assert {(job.study, job.priority) for job in jobs} == {("cli-study", 4)}
            assert store.studies()["cli-study"] == [
                scenario.fingerprint() for scenario in scenarios
            ]

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_submit_into_a_store_refuses_max_attempts_below_one(
        self, tmp_path, capsys, value
    ):
        from repro.cli import main

        store_path = str(tmp_path / "q.sqlite")
        argv = ["submit", self._scenario_file(tmp_path), "--store", store_path]
        assert main(argv + ["--max-attempts", value]) == 2
        error = capsys.readouterr().err
        assert error.startswith(
            f"error: max_attempts must be an integer of at least 1, got {value}"
        ), error
        with ResultStore(store_path) as store:
            assert store.jobs() == []

    def test_work_refuses_a_worker_id_for_a_pool(self, tmp_path, capsys):
        from repro.cli import main

        store_path = str(tmp_path / "q.sqlite")
        argv = ["work", "--store", store_path, "--drain", "--worker-id", "alone"]
        assert main(argv + ["--concurrency", "2"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: --worker-id names one worker"), error
        assert "--concurrency 2" in error

    def test_study_enqueue_requires_a_store(self, tmp_path, capsys):
        from repro.cli import main

        document = tmp_path / "study.json"
        document.write_text(json.dumps([smoke_scenario().to_dict()]))
        assert main(["submit", str(document)]) == 2
        assert "exactly one of --store or --url" in capsys.readouterr().err
        with pytest.raises(SystemExit):  # `repro study` no longer queues
            main(["study", str(document), "--enqueue"])

    @pytest.mark.parametrize(
        "case",
        [
            "boolean_execution_cycles",
            "boolean_generations",
            "boolean_pillar",
            "boolean_request_count",
            "boolean_verification_parallel",
            "boolean_verification_tolerance",
            "boolean_volume_bits",
            "boolean_warmup_fraction",
            "boolean_wavelength_count",
            "crossing_loss_string",
            "exhaustive_batch_size",
            "fractional_generations",
            "fractional_layers",
            "fractional_request_count",
            "fractional_seed",
            "fractional_verification_parallel",
            "fractional_wavelength_count",
            "infinite_execution_cycles",
            "infinite_mean_holding",
            "infinite_offered_load",
            "infinite_verification_tolerance",
            "nan_execution_cycles",
            "nan_mean_holding",
            "nan_offered_load",
            "nan_trace_arrival",
            "nan_trace_holding",
            "nan_volume_bits",
            "negative_quality_factor",
            "non_integer_model_seed",
            "null_warmup_fraction",
            "pipeline_beyond_the_cores",
            "population_below_four",
            "random_infeasible_target",
            "random_single_task",
            "string_verification_parallel",
            "string_warmup_fraction",
            "string_wavelength_count",
            "sweep_not_a_list",
            "sweep_of_strings",
            "target_counts_string",
            "text_warmup_fraction",
            "trace_event_missing_key",
            "trace_file_missing",
            "unknown_topology_option",
            "zero_layers",
        ],
    )
    def test_run_rejects_an_unrunnable_document_cleanly(self, tmp_path, capsys, case):
        from repro.cli import main

        build, message = UNRUNNABLE[case]
        document = build()
        path = tmp_path / "scenario.json"
        path.write_text(
            document.to_json() if isinstance(document, Scenario) else json.dumps(document)
        )
        assert main(["run", str(path)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: " + message.split(": ", 1)[1]), error
        assert "Traceback" not in error


# ------------------------------------------------------------ cli over http
@pytest.fixture()
def served_queue(tmp_path, monkeypatch):
    """A live server over a store file; yields (base_url, store_path, store).

    The CLI's clock is frozen three days ahead, so the ``age`` column reads
    the same whichever transport lists the jobs.
    """
    frozen = time.time() + 3 * 86400.0
    monkeypatch.setattr("repro.cli.time", SimpleNamespace(time=lambda: frozen))
    store_path = str(tmp_path / "served.sqlite")
    store = ResultStore(store_path)
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", store_path, store
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def _as_target(output: str, url: str, store_path: str) -> str:
    """``output`` with both targets named ``<target>`` (``at URL`` reads ``in``)."""
    return (
        output.replace(f" at {url}", f" in {url}")
        .replace(url, "<target>")
        .replace(store_path, "<target>")
    )


class TestJobsCliOverHttp:
    """``--url`` prints what ``--store`` prints for the same queue."""

    def test_submit(self, served_queue, tmp_path, capsys):
        from repro.cli import main

        url, store_path, store = served_queue
        scenarios = [smoke_scenario(name="a"), smoke_scenario(name="b")]
        document = tmp_path / "study.json"
        document.write_text(json.dumps(Study(scenarios, name="doc-study").to_dict()))
        options = ["--study", "my study", "--priority", "3"]
        via_url = run_cli(capsys, "submit", str(document), "--url", url, *options)
        via_store = run_cli(capsys, "submit", str(document), "--store", store_path, *options)
        hint = f"run `repro work --store {store_path} --drain` to execute them\n"
        assert via_store.endswith(hint)
        url_jobs = re.findall(r"job-[0-9a-f]{12}", via_url)
        store_jobs = re.findall(r"job-[0-9a-f]{12}", via_store)
        assert len(url_jobs) == len(store_jobs) == 2
        for url_job, store_job in zip(url_jobs, store_jobs):
            via_store = via_store.replace(store_job, url_job)
        assert _as_target(via_url, url, store_path) == _as_target(
            via_store[: -len(hint)], url, store_path
        )
        assert "under study 'my study'" in via_url and "priority 3" in via_url
        assert {(job.study, job.priority) for job in store.jobs()} == {("my study", 3)}
        assert store.studies()["my study"] == [s.fingerprint() for s in scenarios]

        assert main(["submit", str(document), "--url", url, "--max-attempts", "0"]) == 2
        error = capsys.readouterr().err
        assert "(400): max_attempts must be an integer of at least 1, got 0" in error
        assert len(store.jobs()) == 4

    def test_jobs(self, served_queue, capsys):
        from repro.cli import main

        url, store_path, store = served_queue
        for priority in range(4):
            store.enqueue(smoke_scenario(name=f"cli-{priority}"), priority=priority)
        for _ in range(2):
            store.fail(store.claim("w").id, "w", "boom", retryable=False)

        def both(*argv: str):
            via_url = run_cli(capsys, "jobs", *argv, "--url", url)
            via_store = run_cli(capsys, "jobs", *argv, "--store", store_path)
            return _as_target(via_url, url, store_path), _as_target(via_store, url, store_path)

        for argv in (["ls"], ["ls", "--state", "failed"], ["ls", "--limit", "3"], ["stats"]):
            via_url, via_store = both(*argv)
            assert via_url == via_store, argv
        assert "4 job(s) in <target>" in both("ls")[0]
        for target in ("--url", url), ("--store", store_path):
            assert main(["jobs", "ls", "--limit", "-3", *target]) == 2
            assert capsys.readouterr().err == "error: --limit must be >= 0 (got -3)\n"

        queued = store.jobs(state="queued")
        via_url, via_store = both("status", queued[0].id)
        via_url_document = json.loads(via_url)
        # The HTTP job document adds its navigation fields.
        assert via_url_document.pop("job_url") == f"/api/v1/jobs/{queued[0].id}"
        assert {"result_url", "pareto_url", "result_cached"} <= set(via_url_document)
        for key in ("result_url", "pareto_url", "result_cached"):
            via_url_document.pop(key)
        assert via_url_document == json.loads(via_store)

        # cancel and requeue change the queue: each transport gets a job of its own.
        failed = store.jobs(state="failed")
        for action, (first, second) in (("cancel", queued), ("requeue", failed)):
            via_url = run_cli(capsys, "jobs", action, first.id, "--url", url)
            via_store = run_cli(capsys, "jobs", action, second.id, "--store", store_path)
            assert via_url == via_store.replace(second.id, first.id), action
        assert store.jobs_stats()["queued"] == 2 and store.jobs_stats()["failed"] == 0
        via_url, via_store = both("ls")
        assert via_url == via_store


# ---------------------------------------------------------- graceful shutdown
class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_work_exits_cleanly_on_signal(self, tmp_path, signum):
        store_path = str(tmp_path / "q.sqlite")
        with ResultStore(store_path):
            pass
        child = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "work",
                "--store",
                store_path,
                "--poll-interval",
                "0.05",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_subprocess_env(),
        )
        try:
            banner = child.stdout.readline()
            assert "SIGINT/SIGTERM to stop" in banner
            child.send_signal(signum)
            output, _ = child.communicate(timeout=30)
            assert child.returncode == 0
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on failure
                child.kill()
                child.wait(timeout=30)
        assert "claimed 0 job(s)" in output
        assert "queue now" in output

    def test_serve_exits_cleanly_on_sigterm(self, tmp_path):
        store_path = str(tmp_path / "api.sqlite")
        with ResultStore(store_path):
            pass
        child = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "serve",
                "--store",
                store_path,
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_subprocess_env(),
        )
        try:
            banner = child.stdout.readline()
            assert "serving result store" in banner
            child.send_signal(signal.SIGTERM)
            output, _ = child.communicate(timeout=30)
            assert child.returncode == 0
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on failure
                child.kill()
                child.wait(timeout=30)
        assert "server stopped" in output

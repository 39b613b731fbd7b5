#!/usr/bin/env python
"""Submit scenarios as durable jobs and execute them with workers.

This example shows the job-queue half of the study service:

1. a wavelength sweep is *enqueued* into a SQLite-backed
   :class:`~repro.store.sqlite.ResultStore` instead of executed
   (:func:`~repro.store.jobs.enqueue_submission` — what
   ``python -m repro submit sweep.json --store ...`` does),
2. a :class:`~repro.store.worker.Worker` claims each job under a lease,
   executes it and writes the result into the same store (what
   ``python -m repro work --store ...`` runs),
3. the scenarios are submitted *again* over the HTTP API
   (``POST /api/v1/jobs``) and a second worker drains them warm — the results
   are already content-addressed in the store, so zero optimizers execute,
4. the queue telemetry (depth, per-state counts, mean wait/run times) is read
   back from ``GET /api/v1/stats``.

Run it with::

    python examples/job_queue.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.scenarios import ScenarioBuilder, Study
from repro.store import ResultStore, Worker, create_server
from repro.store.jobs import enqueue_submission


def build_scenarios():
    return [
        ScenarioBuilder()
        .named(f"queued-nw{wavelength_count}")
        .grid(4, 4)
        .wavelengths(wavelength_count)
        .genetic(population_size=32, generations=12)
        .seed(2017)
        .build()
        for wavelength_count in (4, 8, 12)
    ]


def main() -> None:
    with tempfile.TemporaryDirectory() as tempdir:
        db_path = Path(tempdir) / "results.sqlite"

        # 1. Enqueue the study: durable jobs, no execution yet.
        study_doc = Study(build_scenarios(), name="queued-sweep").to_dict()
        with ResultStore(db_path) as store:
            _, jobs = enqueue_submission(store, study_doc)
            print(f"enqueued {len(jobs)} job(s); queue depth "
                  f"{store.jobs_stats()['depth']}")

            # 2. One worker drains the queue: claim -> execute -> complete.
            worker = Worker(store, lease_seconds=30.0)
            stats = worker.run(drain=True)
            print(f"worker {worker.worker_id}: {stats.summary()}")

        # 3. Submit the same scenarios over HTTP and drain them warm.
        store = ResultStore(db_path)
        server = create_server(store, host="127.0.0.1", port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{port}/api/v1"
        print(f"serving {db_path.name} at {base}")

        try:
            request = urllib.request.Request(
                f"{base}/jobs",
                data=json.dumps(study_doc).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                submitted = json.loads(response.read())
            cached = sum(job["result_cached"] for job in submitted["jobs"])
            print(
                f"resubmitted {submitted['count']} job(s) over HTTP "
                f"({cached} already cached)"
            )

            warm = Worker(store)
            warm_stats = warm.run(drain=True)
            print(
                f"warm drain: {warm_stats.completed} completed, "
                f"{warm_stats.store_hits} served from the store "
                "(zero optimizer executions)"
            )

            # 4. Queue telemetry rides along with the store stats.
            with urllib.request.urlopen(f"{base}/stats") as response:
                stats = json.loads(response.read())
            print(
                f"queue telemetry: {stats['jobs_done']} done, depth "
                f"{stats['jobs_depth']}, mean wait "
                f"{stats['jobs_mean_wait_seconds']:.3f}s, mean run "
                f"{stats['jobs_mean_run_seconds']:.3f}s"
            )

            # Fetch one finished job's Pareto front by its result URL.
            job = submitted["jobs"][0]
            pareto_url = f"http://127.0.0.1:{port}{job['pareto_url']}"
            with urllib.request.urlopen(pareto_url) as response:
                front = json.loads(response.read())
            print(
                f"{front['name']!r}: {len(front['pareto_rows'])} Pareto "
                "solutions straight from the store"
            )
        finally:
            server.shutdown()
            server.server_close()
            store.close()


if __name__ == "__main__":
    main()

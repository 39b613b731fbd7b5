"""Fresh-process side of the benchmark: runs the program and checks its output.

``run.py`` starts this script once per measured process, with ``src`` on
``PYTHONPATH``.  It prints ``READY`` when set-up is done (so the parent can
time set-up from process start) and, unless ``--setup-only``, one final
``RESULT {json}`` line.  Modes:

``paper``    one ``execute_scenario`` of the generated paper scenario
``study``    one study_queue round: enqueue the seeded mix, drain it
``fixture``  fill a store with the warm_get fixture results
``serve``    ``repro serve`` with every layer entry point traced
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads
from tracing import COUNTERS, Recorder, summarise

#: Objective key -> (Pareto row column, ``ObjectiveVector`` attribute).
OBJECTIVES = {
    "time": ("execution_time_kcycles", "execution_time_kcycles"),
    "ber": ("mean_ber", "mean_bit_error_rate"),
    "energy": ("bit_energy_fj", "bit_energy_fj"),
}

#: study: seconds before the drain is stopped, below the 150 s ``run.py``
#: waits for this process's result.
DRAIN_DEADLINE = 120.0


def ready() -> None:
    print("READY", flush=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def digest(documents: List[Dict[str, Any]]) -> str:
    """Short SHA-256 over canonical JSON of result ``comparable_dict()``s."""
    sha = hashlib.sha256()
    for document in documents:
        sha.update(json.dumps(document, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()[:16]


def start_recorder(trace: Optional[str]) -> Optional[Recorder]:
    if trace is None:
        return None
    recorder = Recorder(trace_id=Path(trace).stem)
    recorder.install()
    recorder.recording = True
    return recorder


def nsga2_rows(documents: List[Dict[str, Any]]) -> int:
    """Rows the NSGA-II runs of these documents look up: population x (generations + 1) each."""
    return sum(
        document["genetic"]["population_size"] * (document["genetic"]["generations"] + 1)
        for document in documents
    )


def layer_counts(recorder: Recorder, trace: str, documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Stop recording, write the spans, and summarise them for the parent.

    ``documents`` are the scenario documents whose NSGA-II runs were traced.
    """
    from repro.telemetry import get_registry

    recorder.recording = False
    recorder.uninstall()
    recorder.write_jsonl(trace)
    counters = {name: 0.0 for name in COUNTERS}
    for name, _labels, value in get_registry().iter_counters():
        if name in counters:
            counters[name] += value
    return summarise(recorder.spans, counters, nsga2_rows(documents))


# --------------------------------------------------------------------- paper
def check_front(scenario: Any, outcome: Any) -> List[str]:
    """Scalar re-evaluation and mutual non-dominance of every Pareto row."""
    import numpy as np

    from repro.scenarios.study import build_scenario_evaluator

    failures: List[str] = []
    rows = outcome.summary().pareto_rows
    solutions = outcome.result.pareto_solutions
    if not rows or len(rows) != len(solutions):
        return [f"{len(rows)} Pareto rows for {len(solutions)} front solutions"]
    evaluator = build_scenario_evaluator(scenario)
    for row, solution in zip(rows, solutions):
        again = evaluator.evaluate(solution.chromosome)
        if row["allocation"] != solution.allocation_summary or not again.is_valid:
            failures.append(f"row {row['allocation']!r} does not re-evaluate as valid")
            continue
        for column, attribute in OBJECTIVES.values():
            value = getattr(again.objectives, attribute)
            if not math.isclose(row[column], value, rel_tol=1e-9, abs_tol=0.0):
                failures.append(f"row {row['allocation']!r}: {column} {row[column]!r} != {value!r}")
    matrix = np.array(
        [[row[OBJECTIVES[key][0]] for key in scenario.objectives] for row in rows]
    )
    no_worse = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=-1)
    better = (matrix[:, None, :] < matrix[None, :, :]).any(axis=-1)
    dominated = int((no_worse & better).any(axis=0).sum())
    if dominated:
        failures.append(f"{dominated} Pareto row(s) dominated by another row")
    return failures


def paper(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.scenarios import study
    from repro.scenarios.scenario import Scenario

    document = json.loads(Path(args.scenario).read_text())
    scenario = Scenario.from_dict(document)
    scenario.fingerprint()
    ready()
    if args.setup_only:
        return {}
    recorder = start_recorder(args.trace)
    start, cpu = time.perf_counter(), time.process_time()
    outcome = study.execute_scenario(scenario)
    explore_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu
    layers = None if recorder is None else layer_counts(recorder, args.trace, [document])
    summary = outcome.summary()
    history = outcome.result.nsga2.history
    return {
        "explore_s": explore_s,
        "cpu_s": cpu_s,
        "generations": len(history) - 1,
        "generation_ms": [record.wall_clock_seconds * 1e3 for record in history[1:]],
        "pareto_size": summary.pareto_size,
        "digest": digest([summary.comparable_dict()]),
        "failures": check_front(scenario, outcome),
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
    }


# --------------------------------------------------------------------- study
def study(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.store.jobs import enqueue_submission
    from repro.store.sqlite import ResultStore
    from repro.store.worker import Worker

    store = ResultStore(args.store)
    mix = workloads.study_mix(args.seed, args.round, args.size)
    ready()
    if args.setup_only:
        store.close()
        return {}
    recorder = start_recorder(args.trace)
    worker = Worker(store)
    # Stop the drain from a thread, never with a signal: a signal landing
    # while the worker waits on its stop event can deadlock it.
    watchdog = threading.Timer(DRAIN_DEADLINE, worker.stop)
    watchdog.daemon = True
    start, cpu = time.perf_counter(), time.process_time()
    for submission in mix:
        enqueue_submission(store, submission.document)
    watchdog.start()
    stats = worker.run(drain=True)
    elapsed, cpu_s = time.perf_counter() - start, time.process_time() - cpu
    watchdog.cancel()
    fresh_runs = [submission.document for submission in mix if submission.kind in ("static", "verify")]
    layers = None if recorder is None else layer_counts(recorder, args.trace, fresh_runs)
    if layers is not None:
        layers.update(claimed=stats.claimed, warm_hits=stats.store_hits)

    jobs = store.jobs()
    done = [job for job in jobs if job.state == "done"]
    resubmits = sum(1 for submission in mix if submission.kind == "resubmit")
    failures = [
        f"job {job.id} ended {job.state}: {job.error}" for job in jobs if job.state != "done"
    ]
    if len(jobs) != len(mix):
        failures.append(f"{len(jobs)} jobs in the queue for {len(mix)} submissions")
    if stats.store_hits != resubmits:
        failures.append(f"{stats.store_hits} warm hits for {resubmits} resubmissions")
    fingerprints = sorted({job.fingerprint for job in jobs})
    results = [store.peek(fingerprint) for fingerprint in fingerprints]
    if any(result is None for result in results):
        failures.append("a done job has no stored result")
        results = [result for result in results if result is not None]
    store.close()
    return {
        "jobs": len(mix),
        "done": len(done),
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "jobs_per_s": len(done) / elapsed,
        "warm_hits": stats.store_hits,
        "service_ms": [
            (job.finished_at - job.started_at) * 1e3
            for job in done
            if job.started_at is not None and job.finished_at is not None
        ],
        "digest": digest([result.comparable_dict() for result in results]),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
    }


# ------------------------------------------------------------------- fixture
def fixture(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.study import Study
    from repro.store.sqlite import ResultStore

    scenarios = [Scenario.from_dict(document) for document in workloads.fixture_scenarios(args.size)]
    with ResultStore(args.store) as store:
        Study(scenarios, name="served", store=store).run(parallel=2)
        return {"fingerprints": store.fingerprints()}


# --------------------------------------------------------------------- serve
def serve(args: argparse.Namespace) -> int:
    from repro.cli import main

    recorder = start_recorder(args.trace)
    code = main(["serve", "--store", args.store, "--port", "0"])
    if recorder is not None:
        recorder.recording = False
        recorder.write_jsonl(args.trace)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("paper", "study", "fixture", "serve"))
    parser.add_argument("--scenario", help="paper: scenario document file")
    parser.add_argument("--store", help="study/fixture/serve: SQLite store path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0, help="study: round index")
    parser.add_argument("--size", default="full", choices=("full", "toy"))
    parser.add_argument("--trace", default=None, help="record spans and write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    import repro

    source = Path(__file__).resolve().parent.parent / "src"
    if Path(repro.__file__).resolve().parent.parent != source:
        print(f"error: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    if args.mode == "serve":
        return serve(args)
    result = {"paper": paper, "study": study, "fixture": fixture}[args.mode](args)
    if not args.setup_only:
        print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: generators, toy-size runs, the bare-directory exit.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import Recorder, summarise  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
#: Each workload's own metric names, printed above the result line.
WORKLOAD_NAMES = {
    "paper_nsga2": ["explore_s", "op_p50_ms"],
    "warm_get": ["get_rps", "get_p50_ms", "get_p99_ms"],
    "study_queue": ["jobs_per_s", "op_p50_ms"],
}


def run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def fingerprints(documents):
    from repro.scenarios.scenario import Scenario

    return [Scenario.from_dict(document).fingerprint() for document in documents]


# ------------------------------------------------------------------ generators
def test_paper_scenario_is_a_function_of_the_seed():
    assert workloads.paper_scenario(5, 20) == workloads.paper_scenario(5, 20)
    assert fingerprints([workloads.paper_scenario(5, 20)]) != fingerprints([workloads.paper_scenario(6, 20)])
    genetic = workloads.paper_scenario(5, 20)["genetic"]
    assert (genetic["population_size"], genetic["generations"]) == (400, 300)


def test_study_mix_is_a_function_of_the_seed():
    first, again, other = (workloads.study_mix(seed) for seed in (5, 5, 6))
    assert first == again
    assert fingerprints([s.document for s in first]) == fingerprints([s.document for s in again])
    assert fingerprints([s.document for s in first]) != fingerprints([s.document for s in other])
    kinds = [submission.kind for submission in first]
    assert (kinds.count("resubmit"), kinds.count("dynamic"), len(kinds)) == (20, 25, 100)
    seen = set()
    for submission, fingerprint in zip(first, fingerprints([s.document for s in first])):
        assert (submission.kind == "resubmit") == (fingerprint in seen)
        seen.add(fingerprint)


def test_warm_get_requests_are_a_function_of_the_seed():
    stored = [f"{index:016x}" for index in range(8)]

    def head(seed):
        return list(itertools.islice(workloads.warm_get_requests(seed, stored), 400))

    assert head(5) == head(5)
    assert head(5) != head(6)
    routes = [request.route for request in head(5)]
    assert 0.65 < routes.count(workloads.RESULTS_ROUTE) / len(routes) < 0.85
    assert {request.fingerprint for request in head(5)} == set(stored)


def test_fixture_has_distinct_fingerprints():
    documents = workloads.fixture_scenarios()
    assert len(set(fingerprints(documents))) == len(documents) >= 24


# --------------------------------------------------------------------- tracing
def test_recorder_patches_the_binding_each_caller_looks_up():
    import repro.allocation.nsga2 as nsga2
    import repro.allocation.pareto as pareto

    originals = (nsga2.non_dominated_sort, pareto.non_dominated_sort, pareto.dominance_matrix)
    recorder = Recorder("test")
    recorder.install()
    try:
        assert nsga2.non_dominated_sort is not originals[0]
        assert pareto.non_dominated_sort is not originals[1]
        recorder.recording = True
        nsga2.non_dominated_sort([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        recorder.recording = False
    finally:
        recorder.uninstall()
    assert (nsga2.non_dominated_sort, pareto.non_dominated_sort, pareto.dominance_matrix) == originals
    names = [record["name"] for record in recorder.spans]
    assert names == ["pareto.dominance_matrix", "pareto.non_dominated_sort"]
    sort = recorder.spans[1]
    assert sort["attrs"]["self_s"] == pytest.approx(sort["duration"] - recorder.spans[0]["duration"])


def test_traced_evaluations_are_counted_from_spans_not_from_the_result():
    from repro.scenarios.scenario import Scenario
    from repro.scenarios.study import execute_scenario

    document = workloads.paper_scenario(5, 1, "toy")
    document["genetic"].update(population_size=16, generations=4)
    recorder = Recorder("test")
    recorder.install()
    try:
        recorder.recording = True
        result = execute_scenario(Scenario.from_dict(document)).result.nsga2
        recorder.recording = False
    finally:
        recorder.uninstall()
    names = [record["name"] for record in recorder.spans]
    assert "heuristics.uniform_allocation" in names
    counted = summarise(recorder.spans, {}, nsga2_rows=16 * (4 + 1))
    assert counted["evaluations"] == result.evaluations
    assert counted["memo_hits"] == result.memo_hits
    assert counted["batch_rows"] > counted["evaluations"]


# ------------------------------------------------------------------- toy runs
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_emits_every_metric_with_its_unit(workload, trace):
    completed = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "toy")
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    printed = {line.split()[0] for line in completed.stdout.splitlines() if line.startswith("  ")}
    assert {"failed_ratio", *WORKLOAD_NAMES[workload]} <= printed
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        spans = ROOT / ".perfbench" / "traces" / f"{workload}-seed3.jsonl"
        rendered = subprocess.run(
            [sys.executable, "-m", "repro", "telemetry", str(spans), "--no-tree"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert rendered.returncode == 0, rendered.stderr
        assert "span" in rendered.stdout


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("--workload", WORKLOADS[0], "--seed", "3", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

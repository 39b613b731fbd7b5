"""Seeded inputs of the three benchmark workloads.

Every generator here is a pure function of the workload seed and the run
size: the same seed gives the same scenario documents (hence the same
fingerprints) and the same request sequence, and a different seed gives
different ones.  The program under test only ever receives what these
functions return — plain scenario documents and request paths — so this
module imports nothing from ``repro``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, NamedTuple, Sequence

SCENARIO_SCHEMA = "repro.scenario/1"

#: One NSGA-II generation per this many seconds of run length: the default
#: 20 s run is the paper's own 300-generation exploration.
GENERATIONS_PER_SECOND = 15

#: Population of the paper's exploration.  The 800-row merged pool is what
#: the dominance cost grows with, so the workload never shrinks it.
PAPER_POPULATION = 400

#: Default-template results pre-filled into the served store (distinct seeds).
FIXTURE_RESULTS = {"full": 32, "toy": 4}

#: Jobs in one study_queue round, per run size, and run length per round:
#: a 20 s run drains ten rounds, each a different mix of the same seed, so
#: the run's figures average over a thousand distinct jobs.
ROUND_JOBS = {"full": 100, "toy": 20}
SECONDS_PER_ROUND = 2.0

#: Wavelength counts of the fresh static jobs, loads and strategies of the
#: dynamic ones.  They are cycled, not drawn, so every seed runs the same
#: composition and only the order, the GA seeds and the traffic streams move.
STATIC_WAVELENGTHS = (4, 8, 12)
DYNAMIC_LOADS = (8.0, 24.0)
DYNAMIC_STRATEGIES = ("first_fit", "least_used", "most_used", "random")
DYNAMIC_REQUESTS = 1000

#: Share of warm_get requests that ask for the whole document (the rest ask
#: for the Pareto rows), and of responses whose body is decoded and compared.
RESULTS_SHARE = 0.75
CHECKED_SHARE = 0.02

RESULTS_ROUTE = "results"
PARETO_ROUTE = "pareto"


def paper_scenario(seed: int, seconds: float, size: str = "full") -> Dict[str, object]:
    """The paper's exploration: the default scenario with a 400-individual GA.

    Only the GA seed and the generation count vary; the generation count
    follows the run length (300 at the default 20 s, as in the paper).
    """
    population = PAPER_POPULATION if size == "full" else 40
    return {
        "schema": SCENARIO_SCHEMA,
        "name": "paper-nsga2",
        "genetic": {
            "population_size": population,
            "generations": max(1, round(GENERATIONS_PER_SECOND * seconds)),
            "seed": seed,
        },
    }


def fixture_scenarios(size: str = "full") -> List[Dict[str, object]]:
    """Default-template scenarios with distinct seeds, stored before serving.

    The fixture does not depend on the workload seed, so one build serves
    every run of a checkout; the seed drives the request sequence instead.
    """
    documents = []
    for index in range(FIXTURE_RESULTS[size]):
        document: Dict[str, object] = {
            "schema": SCENARIO_SCHEMA,
            "name": f"served-{index}",
            "seed": 1 + index,
        }
        if size == "toy":
            document["genetic"] = {"population_size": 16, "generations": 4}
        documents.append(document)
    return documents


class Request(NamedTuple):
    """One warm_get request: the path sent and what its body must equal."""

    path: str
    fingerprint: str
    route: str
    checked: bool


def warm_get_requests(seed: int, fingerprints: Sequence[str]) -> Iterator[Request]:
    """Endless seeded GET sequence, uniform over the stored fingerprints.

    Whole documents and Pareto rows are asked for at about 3:1; about one
    body in fifty is marked for a full decode-and-compare check.
    """
    rng = random.Random(f"warm_get/{seed}")
    fingerprints = sorted(fingerprints)
    while True:
        fingerprint = rng.choice(fingerprints)
        route = RESULTS_ROUTE if rng.random() < RESULTS_SHARE else PARETO_ROUTE
        path = f"/api/v1/results/{fingerprint}"
        if route == PARETO_ROUTE:
            path += "/pareto"
        yield Request(path, fingerprint, route, rng.random() < CHECKED_SHARE)


class Submission(NamedTuple):
    """One study_queue submission: its document and why it is in the mix."""

    kind: str  # "static", "verify", "dynamic" or "resubmit"
    document: Dict[str, object]


def study_rounds(seconds: float) -> int:
    """Rounds of a study_queue run: one per :data:`SECONDS_PER_ROUND` of run length."""
    return max(1, round(seconds / SECONDS_PER_ROUND))


def study_mix(seed: int, round_index: int = 0, size: str = "full") -> List[Submission]:
    """Seeded single-scenario submissions of one study_queue round.

    About half are fresh static NSGA-II jobs at the CI smoke size (16x4,
    NW 4/8/12; one in twenty verified by simulation), a quarter are dynamic
    RWA points (Poisson, 1000 requests, all four strategies at two loads)
    and a fifth resubmit a fingerprint submitted earlier in the round, which
    the worker then serves warm from the store.
    """
    rng = random.Random(f"study_queue/{seed}/{round_index}")
    jobs = ROUND_JOBS[size]
    resubmits = jobs // 5
    dynamic = jobs // 4
    static = jobs - resubmits - dynamic
    verified = max(1, jobs // 20)
    used_seeds = set()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(1, 2**31)
            if value not in used_seeds:
                used_seeds.add(value)
                return value

    fresh: List[Submission] = []
    for index in range(static):
        seed_value = fresh_seed()
        document: Dict[str, object] = {
            "schema": SCENARIO_SCHEMA,
            "name": f"static-{index}",
            "wavelength_count": STATIC_WAVELENGTHS[index % len(STATIC_WAVELENGTHS)],
            "genetic": {"population_size": 16, "generations": 4, "seed": seed_value},
        }
        kind = "static"
        if index < verified:
            document["verification"] = {"simulate": True}
            kind = "verify"
        fresh.append(Submission(kind, document))
    for index in range(dynamic):
        fresh.append(
            Submission(
                "dynamic",
                {
                    "schema": SCENARIO_SCHEMA,
                    "name": f"dynamic-{index}",
                    "optimizer": {"name": "dynamic_rwa", "options": {}},
                    "traffic": {
                        "model": "poisson",
                        "model_options": {
                            "offered_load_erlangs": DYNAMIC_LOADS[
                                (index // len(DYNAMIC_STRATEGIES)) % len(DYNAMIC_LOADS)
                            ],
                            "request_count": DYNAMIC_REQUESTS,
                        },
                        "strategy": DYNAMIC_STRATEGIES[index % len(DYNAMIC_STRATEGIES)],
                    },
                    "seed": fresh_seed(),
                },
            )
        )
    rng.shuffle(fresh)
    sequence = list(fresh)
    for _ in range(resubmits):
        position = rng.randrange(1, len(sequence) + 1)
        earlier = [entry for entry in sequence[:position] if entry.kind != "resubmit"]
        original = rng.choice(earlier)
        sequence.insert(position, Submission("resubmit", original.document))
    return sequence

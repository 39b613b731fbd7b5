"""Command-line interface.

The CLI exposes the most common workflows without writing Python:

``python -m repro info``
    Describe the default architecture, application and parameters.
``python -m repro explore``
    Run a wavelength-allocation exploration and print/save the Pareto front.
``python -m repro evaluate --allocation 1,1,1,1,1,1``
    Evaluate one explicit allocation (wavelength counts, first-fit placed).
``python -m repro simulate --allocation 2,1,1,2,1,1``
    Replay an allocation in the discrete-event simulator and check it against
    the analytical schedule.
``python -m repro paper table2|fig6a|fig6b|fig7``
    Regenerate one artefact of the paper's evaluation section.
``python -m repro run scenario.json``
    Execute one declarative scenario (``--template`` prints a starter file).
``python -m repro study study.json --parallel 4``
    Execute a batch of scenarios, optionally across worker processes.
``python -m repro topologies``
    List the registered ONoC topologies with their worst-case link losses.
``python -m repro cache ls --store results.sqlite``
    Inspect or maintain a persistent result store (``ls``/``stats``/``gc``/
    ``export``).
``python -m repro serve --store results.sqlite --port 8787``
    Serve cached results (Pareto fronts, verification reports, study
    listings) over a JSON HTTP API without re-running any optimizer, and
    accept job submissions (``POST /api/v1/jobs``) for workers to execute.
``python -m repro submit scenario.json --store results.sqlite``
    Enqueue durable jobs (one per unique scenario; a study document's jobs
    are recorded under its name) into a store — or into a running server
    with ``--url http://host:port``.
``python -m repro work --store results.sqlite --concurrency 4``
    Run worker processes that claim queued jobs under a lease, execute them
    and persist the results; SIGINT/SIGTERM finish the in-flight job first.
``python -m repro jobs ls|status|cancel|requeue|stats --store results.sqlite``
    Inspect and manage the job queue (also available via ``--url``).
``python -m repro telemetry trace.jsonl``
    Pretty-print the span tree and per-span aggregate table of a JSONL trace
    recorded with ``--trace PATH`` (on ``run``/``study``/``work``/``serve``)
    or the ``REPRO_TRACE`` environment variable.

``run`` and ``study`` accept ``--store PATH``: results are then served from
the store when present and persisted into it after execution, so repeated
invocations warm-start instead of recomputing.  ``submit`` queues the same
documents as durable jobs instead of executing them.

Every classic command accepts ``--wavelengths``, ``--rows``, ``--columns``,
the GA sizing flags and ``--topology`` / ``--workload`` / ``--mapping``
registry names (with ``--topology-options`` / ``--workload-options`` /
``--mapping-options`` JSON objects), so any registered application can be
explored, evaluated or simulated on any registered topology — not just the
paper's.  The flags describe a :class:`~repro.scenarios.scenario.Scenario`:
``info``, ``evaluate`` and ``simulate`` work on its evaluator and ``explore``
executes it.  ``paper`` accepts the same flags but rejects any that would
change the paper's setup; its GA sizing follows ``REPRO_PAPER_FULL`` unless
``--population`` / ``--generations`` are given.  ``run`` and ``study``
accept ``--topology`` as an override of the scenario documents.  See
``python -m repro --help``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import __version__
from .analysis import ascii_scatter, divergence_report, format_table, write_csv
from .allocation.heuristics import first_fit_allocation
from .config import GeneticParameters
from .devtools.cli import add_lint_arguments
from .devtools.cli import run as run_lint
from .errors import ReproError
from .paper import PaperExperimentSuite, table1_rows
from .scenarios import (
    MAPPING_STRATEGIES,
    OPTIMIZERS,
    WORKLOADS,
    Scenario,
    Study,
    VerificationSettings,
    build_scenario_evaluator,
    execute_scenario,
    fetch_or_execute,
)
from .simulation import SimulationVerifier
from .store import ResultStore, Worker, WorkerPool, create_server
from .telemetry import configure_tracing
from .store.jobs import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS, JOB_STATES, enqueue_submission
from .topology import TOPOLOGIES, build_topology, topology_description, worst_case_link_loss_db
from .traffic import (
    DEFAULT_SWEEP_SEED,
    ONLINE_ALLOCATORS,
    TRAFFIC_MODELS,
    sweep_blocking,
    sweep_rows,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Performance and energy aware wavelength allocation on a ring-based "
            "WDM 3D optical NoC (DATE 2017 reproduction)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rows", type=int, default=4, help="rows of the electrical layer")
    common.add_argument("--columns", type=int, default=4, help="columns of the electrical layer")
    common.add_argument(
        "--wavelengths", type=int, default=8, help="number of WDM wavelengths (NW)"
    )
    common.add_argument("--population", type=int, default=None, help="GA population size")
    common.add_argument("--generations", type=int, default=None, help="GA generation count")
    common.add_argument("--seed", type=int, default=2017, help="GA random seed")
    common.add_argument("--csv", type=str, default=None, help="write the result rows to a CSV file")
    common.add_argument(
        "--workload",
        default="paper",
        help=f"workload registry name (available: {', '.join(WORKLOADS.names())})",
    )
    common.add_argument(
        "--workload-options",
        default=None,
        help='workload options as a JSON object, e.g. \'{"stage_count": 5}\'',
    )
    common.add_argument(
        "--mapping",
        default="paper",
        help=f"mapping strategy registry name (available: {', '.join(MAPPING_STRATEGIES.names())})",
    )
    common.add_argument(
        "--mapping-options",
        default=None,
        help='mapping options as a JSON object, e.g. \'{"stride": 2}\'',
    )
    common.add_argument(
        "--topology",
        default="ring",
        help=f"topology registry name (available: {', '.join(TOPOLOGIES.names())})",
    )
    common.add_argument(
        "--topology-options",
        default=None,
        help='topology options as a JSON object, e.g. \'{"layers": 2}\'',
    )

    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append one JSONL line per telemetry span to this file "
        "(inspect with `repro telemetry PATH`; REPRO_TRACE=PATH works too)",
    )

    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", parents=[common], help="describe the default setup")

    explore = subparsers.add_parser(
        "explore", parents=[common], help="run a wavelength-allocation exploration"
    )
    explore.add_argument(
        "--objectives",
        default="time,ber,energy",
        help="comma-separated objectives to minimise (time, ber, energy)",
    )
    explore.add_argument(
        "--optimizer",
        default="nsga2",
        help=f"optimizer backend registry name (available: {', '.join(OPTIMIZERS.names())})",
    )

    evaluate = subparsers.add_parser(
        "evaluate", parents=[common], help="evaluate one allocation (wavelength counts)"
    )
    evaluate.add_argument(
        "--allocation",
        required=True,
        help="comma-separated wavelength counts per communication, e.g. 1,1,1,1,1,1",
    )

    simulate = subparsers.add_parser(
        "simulate", parents=[common], help="replay one allocation in the event-driven simulator"
    )
    simulate.add_argument(
        "--allocation",
        required=True,
        help="comma-separated wavelength counts per communication, e.g. 2,1,1,2,1,1",
    )

    paper = subparsers.add_parser(
        "paper", parents=[common], help="regenerate a paper table or figure"
    )
    paper.add_argument(
        "artefact",
        choices=["table1", "table2", "fig6a", "fig6b", "fig7"],
        help="which artefact of the paper's evaluation to regenerate",
    )

    topologies = subparsers.add_parser(
        "topologies", help="list the registered ONoC topologies"
    )
    topologies.add_argument(
        "--wavelengths", type=int, default=8, help="wavelength count for the loss column"
    )
    topologies.add_argument("--rows", type=int, default=4, help="rows of the tile grid")
    topologies.add_argument(
        "--columns", type=int, default=4, help="columns of the tile grid"
    )
    topologies.add_argument(
        "--csv", type=str, default=None, help="write the topology rows to a CSV file"
    )

    run = subparsers.add_parser(
        "run",
        parents=[tracing],
        help="execute one declarative scenario from a JSON file",
    )
    run.add_argument(
        "scenario", nargs="?", default=None, help="path to a scenario JSON document"
    )
    run.add_argument(
        "--template",
        action="store_true",
        help="print a starter scenario JSON document and exit",
    )
    run.add_argument("--csv", type=str, default=None, help="write the Pareto rows to a CSV file")
    run.add_argument(
        "--verify",
        action="store_true",
        help="replay every Pareto solution in the discrete-event simulator "
        "(overrides the scenario's verification block)",
    )
    run.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative simulated-vs-analytical makespan tolerance for --verify",
    )
    run.add_argument(
        "--topology",
        default=None,
        help="override the scenario's topology "
        f"(available: {', '.join(TOPOLOGIES.names())})",
    )
    run.add_argument(
        "--topology-options",
        default=None,
        help="override the scenario's topology options (JSON object)",
    )
    run.add_argument(
        "--store",
        default=None,
        help="SQLite result store: serve the scenario from it when cached, "
        "persist the result into it otherwise",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase GA time breakdown "
        "(objective evaluation / selection / genetic operators)",
    )

    study = subparsers.add_parser(
        "study",
        parents=[tracing],
        help="execute a batch of scenarios from a JSON file",
    )
    study.add_argument(
        "study", help="path to a study JSON document (or a JSON array of scenarios)"
    )
    study.add_argument(
        "--parallel",
        type=int,
        default=None,
        help="number of worker processes (default: run serially)",
    )
    study.add_argument("--csv", type=str, default=None, help="write the summary rows to a CSV file")
    study.add_argument(
        "--pareto-csv",
        type=str,
        default=None,
        help="write every Pareto solution of every scenario to a CSV file",
    )
    study.add_argument(
        "--verification-csv",
        type=str,
        default=None,
        help="write every per-solution simulation-replay row to a CSV file",
    )
    study.add_argument(
        "--topology",
        default=None,
        help="run every scenario of the study on this topology instead of its own "
        f"(available: {', '.join(TOPOLOGIES.names())})",
    )
    study.add_argument(
        "--topology-options",
        default=None,
        help="topology options applied with --topology (JSON object)",
    )
    study.add_argument(
        "--store",
        default=None,
        help="SQLite result store shared across runs: cached scenarios are "
        "served without executing any optimizer backend",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain a persistent result store"
    )
    cache.add_argument(
        "action",
        choices=["ls", "stats", "gc", "export"],
        help="ls: list entries; stats: counters and size; gc: evict entries; "
        "export: dump every stored document as JSON",
    )
    cache.add_argument(
        "--store", required=True, help="path to the SQLite result store"
    )
    cache.add_argument(
        "--csv", type=str, default=None, help="ls: also write the rows to a CSV file"
    )
    cache.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="gc: keep at most this many results (least-recently-used evicted)",
    )
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: evict results not accessed within this many days",
    )
    cache.add_argument(
        "--output",
        type=str,
        default=None,
        help="export: write the JSON document array here (default: stdout)",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[tracing],
        help="serve a result store over a JSON HTTP API",
    )
    serve.add_argument(
        "--store", required=True, help="path to the SQLite result store"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8787, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="silence the per-request access-log line",
    )

    submit = subparsers.add_parser(
        "submit", help="enqueue scenario/study jobs for workers to execute"
    )
    submit.add_argument(
        "document",
        help="path to a scenario JSON document, a study JSON document or a "
        "JSON array of scenarios",
    )
    submit.add_argument(
        "--store", default=None, help="enqueue directly into this SQLite store"
    )
    submit.add_argument(
        "--url",
        default=None,
        help="submit to a running `repro serve` instead, e.g. http://127.0.0.1:8787",
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="higher claims first (default 0)"
    )
    submit.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="execution attempts before a job goes dead",
    )
    submit.add_argument(
        "--study", default=None, help="record the jobs under this study name"
    )

    work = subparsers.add_parser(
        "work",
        parents=[tracing],
        help="run queue workers that execute submitted jobs",
    )
    work.add_argument(
        "--store", required=True, help="path to the SQLite result store"
    )
    work.add_argument(
        "--concurrency", "-c", type=int, default=1, help="number of worker processes"
    )
    work.add_argument(
        "--lease-seconds",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help="job lease duration; heartbeats renew it while a job runs",
    )
    work.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="sleep between claim attempts when the queue is empty",
    )
    work.add_argument(
        "--backoff-base",
        type=float,
        default=1.0,
        help="base retry delay (seconds) for transient job failures",
    )
    work.add_argument(
        "--max-jobs", type=int, default=None, help="stop after this many jobs per worker"
    )
    work.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds without claimable work",
    )
    work.add_argument(
        "--drain",
        action="store_true",
        help="exit as soon as the queue holds no queued or leased jobs",
    )
    work.add_argument(
        "--worker-id", default=None, help="lease-owner identity (default host-pid-random)"
    )

    jobs = subparsers.add_parser(
        "jobs", help="inspect and manage the job queue"
    )
    jobs.add_argument(
        "action",
        choices=["ls", "status", "cancel", "requeue", "stats"],
        help="ls: list jobs; status: one job document; cancel: drop a queued "
        "job; requeue: reset a finished job; stats: queue telemetry",
    )
    jobs.add_argument(
        "job_id", nargs="?", default=None, help="job id (status/cancel/requeue)"
    )
    jobs.add_argument(
        "--store", default=None, help="path to the SQLite result store"
    )
    jobs.add_argument(
        "--url", default=None, help="talk to a running `repro serve` instead"
    )
    jobs.add_argument(
        "--state",
        default=None,
        choices=list(JOB_STATES),
        help="ls: only jobs in this state",
    )
    jobs.add_argument(
        "--limit", type=int, default=None, help="ls: at most this many jobs"
    )
    jobs.add_argument(
        "--csv", type=str, default=None, help="ls: also write the rows to a CSV file"
    )

    traffic = subparsers.add_parser(
        "traffic",
        help="sweep offered load vs blocking probability for online RWA strategies",
    )
    traffic.add_argument(
        "--topology",
        default="ring",
        choices=sorted(TOPOLOGIES.names()),
        help="architecture to drive the dynamic traffic through",
    )
    traffic.add_argument(
        "--topology-options",
        default=None,
        help="JSON object of extra options for the topology factory",
    )
    traffic.add_argument("--rows", type=int, default=4, help="mesh rows per layer")
    traffic.add_argument("--columns", type=int, default=4, help="mesh columns per layer")
    traffic.add_argument(
        "--wavelengths",
        default="4",
        help="comma-separated wavelength counts to sweep (default: 4)",
    )
    traffic.add_argument(
        "--strategies",
        default="first_fit,least_used,most_used,random",
        help=(
            "comma-separated online allocators to compare "
            f"(available: {', '.join(sorted(ONLINE_ALLOCATORS.names()))})"
        ),
    )
    traffic.add_argument(
        "--loads",
        default="8,16,24",
        help="comma-separated offered loads in Erlangs (default: 8,16,24)",
    )
    traffic.add_argument(
        "--requests", type=int, default=2000, help="connection requests per point"
    )
    traffic.add_argument(
        "--holding", type=float, default=1.0, help="mean connection holding time"
    )
    traffic.add_argument(
        "--model",
        default="poisson",
        choices=sorted(TRAFFIC_MODELS.names()),
        help="traffic model generating the request stream",
    )
    traffic.add_argument(
        "--model-options",
        default=None,
        help="JSON object of extra options for the traffic model",
    )
    traffic.add_argument(
        "--warmup",
        type=float,
        default=0.1,
        help="leading fraction of requests excluded from blocking statistics",
    )
    traffic.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SWEEP_SEED,
        help="seed of the request stream (allocator RNG derives from it)",
    )
    traffic.add_argument(
        "--csv", type=str, default=None, help="also write the sweep rows to a CSV file"
    )

    lint = subparsers.add_parser(
        "lint",
        help="static analysis of the project's reproducibility invariants",
    )
    add_lint_arguments(lint)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="inspect a JSONL span trace (written with --trace or REPRO_TRACE)",
    )
    telemetry.add_argument(
        "trace_file", help="path to the JSONL trace file to analyse"
    )
    telemetry.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also write one flat CSV row per span to this file",
    )
    telemetry.add_argument(
        "--no-tree",
        action="store_true",
        help="skip the indented span tree (print only the aggregate table)",
    )

    return parser


def _genetic_parameters(
    args: argparse.Namespace, defaults: Optional[GeneticParameters] = None
) -> GeneticParameters:
    """GA sizing from ``--population`` / ``--generations``; unset flags keep ``defaults``."""
    defaults = defaults or GeneticParameters()
    population = defaults.population_size if args.population is None else args.population
    generations = defaults.generations if args.generations is None else args.generations
    if population <= 0:
        raise ReproError(f"--population must be a positive even integer (got {population})")
    if generations <= 0:
        raise ReproError(f"--generations must be a positive integer (got {generations})")
    return GeneticParameters(
        population_size=population,
        generations=generations,
        seed=args.seed,
    )


def _parse_options(text: Optional[str], flag: str) -> Dict[str, Any]:
    """Parse a ``--*-options`` JSON object flag."""
    if text is None:
        return {}
    try:
        options = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"cannot parse {flag} {text!r}: {error}") from None
    if not isinstance(options, dict):
        raise ReproError(f"{flag} must be a JSON object, got {text!r}")
    return options


def _scenario_from_args(args: argparse.Namespace, **changes: Any) -> Scenario:
    """The scenario the common flags of a classic command describe.

    Topology, workload and mapping all come from the registries
    (``--topology`` / ``--workload`` / ``--mapping``), so every classic
    command runs on any registered architecture and application, not just the
    paper's; ``--seed`` keeps randomised workloads and mappings deterministic.
    """
    return Scenario(
        name=args.command,
        rows=args.rows,
        columns=args.columns,
        wavelength_count=args.wavelengths,
        topology=args.topology,
        topology_options=_parse_options(args.topology_options, "--topology-options"),
        workload=args.workload,
        workload_options=_parse_options(args.workload_options, "--workload-options"),
        mapping=args.mapping,
        mapping_options=_parse_options(args.mapping_options, "--mapping-options"),
        genetic=_genetic_parameters(args),
        **changes,
    )


def _parse_counts(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ReproError(f"cannot parse allocation {text!r}: {error}") from None


def _maybe_write_csv(args: argparse.Namespace, rows: Sequence[dict]) -> None:
    if args.csv and rows:
        path = write_csv(args.csv, list(rows))
        print(f"wrote {len(rows)} rows to {path}")


def _apply_topology_override(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """Fold the ``--topology``/``--topology-options`` overrides into a scenario."""
    if args.topology is None and args.topology_options is None:
        return scenario
    if args.topology is None:
        raise ReproError("--topology-options has no effect without --topology")
    return scenario.derive(
        topology=args.topology,
        topology_options=_parse_options(args.topology_options, "--topology-options"),
    )


# --------------------------------------------------------------------- commands
def _command_topologies(args: argparse.Namespace) -> int:
    """List every registered topology with its size and worst-case link loss."""
    rows = []
    for name in TOPOLOGIES.names():
        topology = build_topology(
            name, args.rows, args.columns, wavelength_count=args.wavelengths
        )
        rows.append(
            {
                "topology": name,
                "cores": topology.core_count,
                "wavelengths": topology.wavelength_count,
                "worst_case_loss_db": round(worst_case_link_loss_db(topology), 4),
                "description": topology_description(name),
            }
        )
    print(
        f"{len(rows)} registered topologies "
        f"({args.rows}x{args.columns} tiles, {args.wavelengths} wavelengths):"
    )
    print(format_table(rows))
    _maybe_write_csv(args, rows)
    return 0


def _command_info(args: argparse.Namespace) -> int:
    evaluator = build_scenario_evaluator(_scenario_from_args(args))
    task_graph = evaluator.task_graph
    print(evaluator.architecture.describe())
    print(
        f"Application: {task_graph.task_count} tasks, "
        f"{task_graph.communication_count} communications, "
        f"critical path {task_graph.critical_path_cycles() / 1000:.1f} kcc"
    )
    print()
    print("Table I power-loss parameters:")
    print(format_table(table1_rows()))
    return 0


def _command_explore(args: argparse.Namespace) -> int:
    objective_keys = tuple(key.strip() for key in args.objectives.split(",") if key.strip())
    outcome = execute_scenario(
        _scenario_from_args(args, objectives=objective_keys, optimizer=args.optimizer)
    )
    result = outcome.result
    rows = outcome.pareto_rows()
    print(
        f"{result.valid_solution_count} distinct valid allocations explored "
        f"({args.optimizer}), {result.pareto_size} on the Pareto front "
        f"({', '.join(objective_keys)}):"
    )
    print(format_table(rows))
    _maybe_write_csv(args, rows)
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    evaluator = build_scenario_evaluator(_scenario_from_args(args))
    counts = _parse_counts(args.allocation)
    solution = first_fit_allocation(evaluator, counts)
    print(f"allocation {solution.allocation_summary} "
          f"(chromosome {solution.chromosome.to_paper_string()})")
    print(f"  valid            : {solution.is_valid}")
    print(f"  execution time   : {solution.objectives.execution_time_kcycles:.2f} kcc")
    print(f"  bit energy       : {solution.objectives.bit_energy_fj:.3f} fJ/bit")
    print(f"  mean BER         : {solution.objectives.mean_bit_error_rate:.3e} "
          f"(log10 {solution.objectives.log10_ber:.2f})")
    rows = [
        {
            "allocation": solution.allocation_summary,
            "execution_time_kcycles": solution.objectives.execution_time_kcycles,
            "bit_energy_fj": solution.objectives.bit_energy_fj,
            "mean_ber": solution.objectives.mean_bit_error_rate,
        }
    ]
    _maybe_write_csv(args, rows)
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    evaluator = build_scenario_evaluator(_scenario_from_args(args))
    counts = _parse_counts(args.allocation)
    solution = first_fit_allocation(evaluator, counts)
    verifier = SimulationVerifier.from_evaluator(evaluator)
    verification = verifier.verify_solution(solution)
    print(
        f"simulated allocation {solution.allocation_summary} "
        f"(workload {args.workload!r}, mapping {args.mapping!r})"
    )
    print(f"  makespan             : {verification.simulated_kcycles:.2f} kcc")
    print(f"  analytical schedule  : {verification.analytical_kcycles:.2f} kcc "
          f"(divergence {verification.divergence_kcycles:.3g} kcc)")
    print(f"  wavelength conflicts : {verification.conflict_count}")
    print(f"  avg core utilisation : {verification.average_core_utilisation:.1%}")
    print(f"  avg wl utilisation   : {verification.average_wavelength_utilisation:.1%}")
    print(f"  verdict              : {'PASS' if verification.passed else 'DIVERGED'}")
    _maybe_write_csv(args, [verification.row()])
    return 0 if verification.passed else 1


def _command_paper(args: argparse.Namespace) -> int:
    if args.topology != "ring":
        # The paper artefacts are definitionally ring results; silently
        # printing them under another topology flag would mislabel the data.
        raise ReproError(
            "the paper artefacts are defined on the 'ring' topology; "
            "use 'explore'/'run'/'study' to explore other topologies"
        )
    changed = [
        flag
        for flag, value, paper_value in (
            ("--rows", args.rows, 4),
            ("--columns", args.columns, 4),
            ("--workload", args.workload, "paper"),
            ("--mapping", args.mapping, "paper"),
            ("--topology-options", args.topology_options, None),
            ("--workload-options", args.workload_options, None),
            ("--mapping-options", args.mapping_options, None),
        )
        if value != paper_value
    ]
    if changed:
        # Same reasoning: the suite always runs the paper's own setup.
        raise ReproError(
            "the paper artefacts are defined on the paper's 4x4 grid, workload "
            f"and mapping, which {', '.join(changed)} would change; "
            "use 'explore'/'run'/'study' to explore other setups"
        )
    if args.artefact == "table1":
        print(format_table(table1_rows()))
        _maybe_write_csv(args, table1_rows())
        return 0

    suite = PaperExperimentSuite(seed=args.seed)
    if args.population is not None or args.generations is not None:
        # Only explicit sizing flags replace the suite's own GA sizing, so
        # REPRO_PAPER_FULL=1 keeps the paper's 400 x 300 otherwise.
        configuration = suite.configuration
        genetic = _genetic_parameters(args, configuration.genetic)
        suite = PaperExperimentSuite(configuration=replace(configuration, genetic=genetic))
    if args.artefact == "table2":
        rows = suite.table2()
        print(format_table(rows))
        _maybe_write_csv(args, rows)
        return 0

    if args.artefact in {"fig6a", "fig6b"}:
        series_by_nw = suite.fig6a() if args.artefact == "fig6a" else suite.fig6b()
        y_label = "bit energy (fJ/bit)" if args.artefact == "fig6a" else "log10(BER)"
        points, markers, rows = [], [], []
        for wavelength_count, series in sorted(series_by_nw.items()):
            marker = {4: "4", 8: "8", 12: "c"}.get(wavelength_count, "*")
            points.extend(series)
            markers.extend(marker * len(series))
            rows.extend(
                {"wavelength_count": wavelength_count, "x": x, "y": y} for x, y in series
            )
        print(ascii_scatter(points, markers=markers,
                            x_label="execution time (kcc)", y_label=y_label))
        _maybe_write_csv(args, rows)
        return 0

    data = suite.fig7(wavelength_count=args.wavelengths)
    cloud, front = data["valid_solutions"], data["pareto_front"]
    print(ascii_scatter(
        cloud + front,
        markers=["."] * len(cloud) + ["O"] * len(front),
        x_label="execution time (kcc)",
        y_label="log10(BER)",
        title=f"{len(cloud)} valid solutions, {len(front)} on the Pareto front",
    ))
    _maybe_write_csv(args, [{"x": x, "y": y} for x, y in cloud])
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.template:
        print(Scenario().to_json())
        return 0
    if args.scenario is None:
        raise ReproError("run needs a scenario JSON file (or --template)")
    scenario = _apply_topology_override(Scenario.load(args.scenario), args)
    if args.verify or args.tolerance is not None:
        settings = scenario.verification
        simulate = True if args.verify else settings.simulate
        if not simulate:
            raise ReproError(
                "--tolerance has no effect without --verify "
                "or a scenario verification block"
            )
        scenario = scenario.derive(
            verification=VerificationSettings(
                simulate=simulate,
                tolerance=settings.tolerance if args.tolerance is None else args.tolerance,
                parallel=settings.parallel,
            )
        )
    store = ResultStore(args.store) if args.store else None
    try:
        summary, served_from_store = fetch_or_execute(scenario, store=store)
    finally:
        if store is not None:
            store.close()
    print(
        f"scenario {scenario.name!r}: topology {scenario.topology!r}, "
        f"optimizer {scenario.optimizer!r}, "
        f"workload {scenario.workload!r}, mapping {scenario.mapping!r}, "
        f"{scenario.wavelength_count} wavelengths"
    )
    if served_from_store:
        print(
            f"served from result store {args.store} "
            f"(fingerprint {summary.fingerprint}); no optimizer executed"
        )
    if summary.is_dynamic:
        report = summary.blocking_report()
        print(
            f"dynamic traffic: {report.model!r} model, {report.strategy!r} strategy, "
            f"{report.offered} offered requests "
            f"({report.warmup_excluded} warm-up excluded) "
            f"in {summary.runtime_seconds:.2f}s:"
        )
        print(
            f"blocking probability {report.blocking_probability:.4f} "
            f"(95% CI [{report.wilson_low:.4f}, {report.wilson_high:.4f}]), "
            f"{report.blocked} blocked, "
            f"mean link utilisation {report.mean_link_utilisation:.4f}"
        )
        rows = [report.summary_row()]
    else:
        print(
            f"{summary.valid_solution_count} distinct valid allocations explored, "
            f"{summary.pareto_size} on the Pareto front "
            f"({', '.join(scenario.objectives)}) in {summary.runtime_seconds:.2f}s:"
        )
        rows = [dict(row) for row in summary.pareto_rows]
    print(format_table(rows))
    if args.profile:
        print(_profile_report(summary))
    if summary.verified:
        print(divergence_report(summary))
    _maybe_write_csv(args, rows)
    return 0 if (not summary.verified or summary.verification_passed) else 1


def _profile_report(summary: "ScenarioResult") -> str:
    """The per-phase GA time breakdown of one scenario result."""
    phases = (
        ("evaluation", summary.evaluation_seconds),
        ("selection", summary.selection_seconds),
        ("operators", summary.operator_seconds),
    )
    accounted = sum(seconds for _, seconds in phases)
    if accounted <= 0.0:
        return (
            f"phase breakdown: none recorded (the {summary.optimizer!r} backend "
            "keeps no per-phase telemetry, or the result was served from a "
            "store written before profiling existed)"
        )
    total = summary.runtime_seconds
    parts = []
    for name, seconds in phases:
        share = 100.0 * seconds / total if total > 0.0 else 0.0
        parts.append(f"{name} {seconds:.3f}s ({share:.0f}%)")
    other = max(total - accounted, 0.0)
    parts.append(f"other {other:.3f}s")
    return "phase breakdown: " + ", ".join(parts)


def _command_study(args: argparse.Namespace) -> int:
    study = Study.load(args.study)
    if args.topology is not None or args.topology_options is not None:
        study = Study(
            [_apply_topology_override(scenario, args) for scenario in study.scenarios],
            name=study.name,
        )

    def progress(completed: int, total: int, result) -> None:
        print(
            f"  [{completed}/{total}] {result.name}: "
            f"{result.valid_solution_count} valid, "
            f"{result.pareto_size} on the front ({result.runtime_seconds:.2f}s)"
        )

    store = ResultStore(args.store) if args.store else None
    try:
        runner = (
            study
            if store is None
            else Study(study.scenarios, name=study.name, store=store)
        )
        result = runner.run(parallel=args.parallel, progress=progress)
    finally:
        if store is not None:
            store.close()
    print()
    print(result.report())
    if args.csv:
        path = result.to_csv(args.csv)
        print(f"wrote {len(result.rows())} rows to {path}")
    if args.pareto_csv:
        path = result.pareto_to_csv(args.pareto_csv)
        print(f"wrote {len(result.pareto_rows())} rows to {path}")
    if args.verification_csv:
        path = result.verification_to_csv(args.verification_csv)
        print(f"wrote {len(result.verification_rows())} rows to {path}")
    return 0 if result.verification_passed else 1


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _command_cache(args: argparse.Namespace) -> int:
    with ResultStore(args.store) as store:
        if args.action == "ls":
            now = time.time()  # repro-lint: allow R006 — compared against store wall-clock timestamps, not a duration
            rows = []
            for row in store.rows():
                rows.append(
                    {
                        "fingerprint": row["fingerprint"],
                        "name": row["name"],
                        "topology": row["topology"],
                        "optimizer": row["optimizer"],
                        "workload": row["workload"],
                        "wavelengths": row["wavelength_count"],
                        "pareto_size": row["pareto_size"],
                        "runtime_s": round(row["runtime_seconds"], 3),
                        "accesses": row["access_count"],
                        "version": row["repro_version"],
                        "age": _format_age(now - row["created_at"]),
                    }
                )
            print(f"{len(rows)} result(s) in {args.store}:")
            if rows:
                print(format_table(rows))
            _maybe_write_csv(args, rows)
            return 0
        if args.action == "stats":
            stats = store.stats()
            width = max(len(key) for key in stats)
            for key, value in stats.items():
                print(f"{key:<{width}} : {value}")
            studies = store.studies()
            for name, fingerprints in studies.items():
                print(f"study {name!r}: {len(fingerprints)} scenario(s)")
            return 0
        if args.action == "gc":
            if args.max_entries is None and args.max_age_days is None:
                raise ReproError(
                    "cache gc needs --max-entries and/or --max-age-days"
                )
            max_age = (
                None if args.max_age_days is None else args.max_age_days * 86400.0
            )
            removed = store.gc(max_entries=args.max_entries, max_age_seconds=max_age)
            print(f"evicted {removed} result(s); {len(store)} remaining")
            return 0
        # export
        documents = store.export_documents()
        text = json.dumps(documents, indent=2) + "\n"
        if args.output:
            path = Path(args.output)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"exported {len(documents)} document(s) to {path}")
        else:
            print(text, end="")
        return 0


def _install_signal_handlers(callback: Callable[[], None]) -> Dict[int, Any]:
    """Route SIGINT/SIGTERM to ``callback``; returns the replaced handlers."""
    previous: Dict[int, Any] = {}
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            previous[signum] = signal.signal(signum, lambda *_: callback())
        except ValueError:  # pragma: no cover - not the main thread
            pass
    return previous


def _restore_signal_handlers(previous: Dict[int, Any]) -> None:
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass


def _command_serve(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    try:
        # Access logging defaults ON for the CLI service (one structured line
        # per request); --quiet silences it.
        server = create_server(store, host=args.host, port=args.port, quiet=args.quiet)
    except OSError as error:
        store.close()
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from None
    # The handler only sets a flag (see StoreHTTPServer.stop); the store is
    # closed after server_close() has joined the in-flight requests, so the
    # buffered touches of every answered GET are written.
    previous = _install_signal_handlers(server.stop)
    host, port = server.server_address[:2]
    print(
        f"serving result store {args.store} ({len(store)} result(s)) "
        f"at http://{host}:{port}/api/v1 — Ctrl-C to stop"
    )
    try:
        server.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        _restore_signal_handlers(previous)
        server.server_close()
        store.close()
    print(f"server stopped; store {args.store} closed")
    return 0


def _load_json_document(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except OSError as error:
        raise ReproError(f"cannot read {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ReproError(f"{path!r} is not valid JSON: {error}") from None


def _api(url: str, path: str) -> str:
    return url.rstrip("/") + "/api/v1" + path


def _http_json(method: str, url: str, payload: Optional[Any] = None) -> Any:
    """One JSON request against a ``repro serve`` API; ReproError on failure."""
    import urllib.error
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", "replace")
        try:
            message = json.loads(body).get("error", body)
        except (json.JSONDecodeError, AttributeError):
            message = body.strip() or str(error)
        raise ReproError(f"{method} {url} failed ({error.code}): {message}") from None
    except urllib.error.URLError as error:
        raise ReproError(f"cannot reach {url}: {error.reason}") from None


def _job_rows(job_dicts: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    now = time.time()  # repro-lint: allow R006 — compared against queue wall-clock timestamps, not a duration
    rows = []
    for job in job_dicts:
        error = job.get("error") or ""
        rows.append(
            {
                "id": job["id"],
                "state": job["state"],
                "priority": job["priority"],
                "attempts": f"{job['attempts']}/{job['max_attempts']}",
                "study": job.get("study") or "-",
                "fingerprint": job["fingerprint"][:12],
                "age": _format_age(max(0.0, now - job["enqueued_at"])),
                "error": (error[:40] + "...") if len(error) > 43 else error,
            }
        )
    return rows


def _print_mapping(mapping: Dict[str, Any]) -> None:
    width = max(len(key) for key in mapping) if mapping else 0
    for key, value in mapping.items():
        if isinstance(value, float):
            value = round(value, 6)
        print(f"{key:<{width}} : {value}")


def _command_submit(args: argparse.Namespace) -> int:
    if (args.store is None) == (args.url is None):
        raise ReproError("submit needs exactly one of --store or --url")
    payload = _load_json_document(args.document)
    if args.url:
        body: Dict[str, Any] = {
            "scenario": payload,
            "priority": args.priority,
            "max_attempts": args.max_attempts,
        }
        if args.study is not None:
            body["study"] = args.study
        reply = _http_json("POST", _api(args.url, "/jobs"), body)
        jobs = reply.get("jobs", [])
        study_name = reply.get("study")
    else:
        with ResultStore(args.store) as store:
            study_name, queued = enqueue_submission(
                store,
                payload,
                priority=args.priority,
                max_attempts=args.max_attempts,
                study=args.study,
            )
        jobs = [job.to_dict() for job in queued]
    target = args.url or args.store
    suffix = f" under study {study_name!r}" if study_name else ""
    print(f"enqueued {len(jobs)} job(s) into {target}{suffix}:")
    for job in jobs:
        print(
            f"  {job['id']}  priority {job['priority']}  "
            f"fingerprint {job['fingerprint'][:12]}"
        )
    if args.store:
        print(f"run `repro work --store {args.store} --drain` to execute them")
    return 0


def _command_work(args: argparse.Namespace) -> int:
    if args.concurrency < 1:
        raise ReproError(f"--concurrency must be >= 1 (got {args.concurrency})")
    if args.concurrency > 1 and args.worker_id is not None:
        raise ReproError(f"--worker-id names one worker, not --concurrency {args.concurrency}")
    worker_options = {
        "lease_seconds": args.lease_seconds,
        "poll_interval": args.poll_interval,
        "backoff_base": args.backoff_base,
    }
    run_options = {
        "max_jobs": args.max_jobs,
        "idle_timeout": args.idle_timeout,
        "drain": args.drain,
    }
    if args.concurrency == 1:
        store = ResultStore(args.store)
        worker = Worker(store, worker_id=args.worker_id, **worker_options)
        previous = _install_signal_handlers(worker.stop)
        print(f"worker {worker.worker_id} on {args.store} — SIGINT/SIGTERM to stop")
        try:
            stats = worker.run(**run_options)
        finally:
            _restore_signal_handlers(previous)
            store.close()
    else:
        pool = WorkerPool(args.store, args.concurrency, **worker_options)
        previous = _install_signal_handlers(pool.stop)
        print(
            f"{args.concurrency} workers on {args.store} — SIGINT/SIGTERM to stop"
        )
        try:
            stats = pool.run(**run_options)
        finally:
            _restore_signal_handlers(previous)
    print(stats.summary())
    with ResultStore(args.store) as store:
        snapshot = store.jobs_stats()
    print(
        f"queue now: {snapshot['queued']} queued, {snapshot['leased']} leased, "
        f"{snapshot['done']} done, {snapshot['failed']} failed, "
        f"{snapshot['dead']} dead"
    )
    return 0 if stats.failed == 0 and stats.dead == 0 else 1


def _command_jobs(args: argparse.Namespace) -> int:
    if (args.store is None) == (args.url is None):
        raise ReproError("jobs needs exactly one of --store or --url")
    if args.limit is not None and args.limit < 0:
        raise ReproError(f"--limit must be >= 0 (got {args.limit})")
    if args.action in {"status", "cancel", "requeue"} and not args.job_id:
        raise ReproError(f"jobs {args.action} needs a job id")
    if args.url:
        return _jobs_via_url(args)
    with ResultStore(args.store) as store:
        if args.action == "ls":
            rows = _job_rows(
                [job.to_dict() for job in store.jobs(state=args.state, limit=args.limit)]
            )
            print(f"{len(rows)} job(s) in {args.store}:")
            if rows:
                print(format_table(rows))
            _maybe_write_csv(args, rows)
            return 0
        if args.action == "stats":
            _print_mapping(store.jobs_stats())
            return 0
        if args.action == "status":
            job = store.job(args.job_id)
            if job is None:
                raise ReproError(f"no job {args.job_id!r} in {args.store}")
            print(json.dumps(job.to_dict(), indent=2))
            return 0
        if args.action == "cancel":
            if store.cancel(args.job_id):
                print(f"cancelled {args.job_id}")
                return 0
            raise ReproError(
                f"job {args.job_id!r} is not queued (or unknown); "
                "only queued jobs can be cancelled"
            )
        job = store.requeue(args.job_id)
        print(f"requeued {job.id} (attempts reset, state {job.state!r})")
        return 0


def _jobs_via_url(args: argparse.Namespace) -> int:
    if args.action == "ls":
        query = []
        if args.state:
            query.append(f"state={args.state}")
        if args.limit is not None:
            query.append(f"limit={args.limit}")
        suffix = "?" + "&".join(query) if query else ""
        reply = _http_json("GET", _api(args.url, "/jobs" + suffix))
        rows = _job_rows(reply.get("jobs", []))
        print(f"{len(rows)} job(s) at {args.url}:")
        if rows:
            print(format_table(rows))
        _maybe_write_csv(args, rows)
        return 0
    if args.action == "stats":
        reply = _http_json("GET", _api(args.url, "/jobs"))
        _print_mapping(reply.get("stats", {}))
        return 0
    if args.action == "status":
        reply = _http_json("GET", _api(args.url, f"/jobs/{args.job_id}"))
        print(json.dumps(reply, indent=2))
        return 0
    if args.action == "cancel":
        _http_json("DELETE", _api(args.url, f"/jobs/{args.job_id}"))
        print(f"cancelled {args.job_id}")
        return 0
    reply = _http_json("POST", _api(args.url, f"/jobs/{args.job_id}/requeue"))
    print(f"requeued {reply['id']} (attempts reset, state {reply['state']!r})")
    return 0


def _parse_number_list(text: str, flag: str, kind: Callable[[str], Any]) -> List[Any]:
    """Parse a comma-separated numeric list flag such as ``--loads 8,16,24``."""
    values: List[Any] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(kind(token))
        except ValueError:
            raise ReproError(f"cannot parse {flag} value {token!r}") from None
    if not values:
        raise ReproError(f"{flag} needs at least one value, got {text!r}")
    return values


def _command_traffic(args: argparse.Namespace) -> int:
    wavelength_counts = _parse_number_list(args.wavelengths, "--wavelengths", int)
    loads = _parse_number_list(args.loads, "--loads", float)
    strategies = [token.strip() for token in args.strategies.split(",") if token.strip()]
    if not strategies:
        raise ReproError(f"--strategies needs at least one value, got {args.strategies!r}")
    reports = sweep_blocking(
        topology=args.topology,
        rows=args.rows,
        columns=args.columns,
        wavelength_counts=wavelength_counts,
        strategies=strategies,
        loads=loads,
        request_count=args.requests,
        mean_holding=args.holding,
        warmup_fraction=args.warmup,
        seed=args.seed,
        model=args.model,
        model_options=_parse_options(args.model_options, "--model-options"),
        topology_options=_parse_options(args.topology_options, "--topology-options"),
    )
    print(
        f"dynamic traffic sweep: {args.model!r} model on {args.topology!r} "
        f"({args.rows}x{args.columns}), seed {args.seed}, "
        f"{args.requests} requests per point ({args.warmup:.0%} warm-up excluded)"
    )
    rows = sweep_rows(
        reports, loads=loads, wavelength_counts=wavelength_counts, strategies=strategies
    )
    print(format_table(rows))
    for line in _traffic_ordering_lines(reports, loads, wavelength_counts, strategies):
        print(line)
    _maybe_write_csv(args, rows)
    return 0


def _traffic_ordering_lines(
    reports: Sequence["BlockingReport"],
    loads: Sequence[float],
    wavelength_counts: Sequence[int],
    strategies: Sequence[str],
) -> List[str]:
    """One line per (load, NW) point ranking the strategies by blocking."""
    if len(strategies) < 2:
        return []
    lines: List[str] = []
    position = 0
    for load in loads:
        for wavelength_count in wavelength_counts:
            ranked = sorted(
                reports[position : position + len(strategies)],
                key=lambda report: (report.blocking_probability, report.strategy),
            )
            ordering = " <= ".join(
                f"{report.strategy} ({report.blocking_probability:.4f})"
                for report in ranked
            )
            lines.append(
                f"ordering at {load:g} Erlangs, {wavelength_count} wavelengths: {ordering}"
            )
            position += len(strategies)
    return lines


def _command_lint(args: argparse.Namespace) -> int:
    return run_lint(args)


def _command_telemetry(args: argparse.Namespace) -> int:
    from .telemetry.report import (
        aggregate_spans,
        build_span_tree,
        load_trace,
        render_span_tree,
        span_rows,
    )

    records = load_trace(args.trace_file)
    if not records:
        print(f"no spans in {args.trace_file}")
        return 0
    traces = {record.get("trace") for record in records}
    print(
        f"{len(records)} span(s) across {len(traces)} trace(s) "
        f"in {args.trace_file}"
    )
    if not args.no_tree:
        print()
        for line in render_span_tree(build_span_tree(records)):
            print(line)
    print()
    table = [
        {
            "span": row["name"],
            "count": row["count"],
            "total_s": round(row["total_seconds"], 6),
            "mean_s": round(row["mean_seconds"], 6),
            "min_s": round(row["min_seconds"], 6),
            "max_s": round(row["max_seconds"], 6),
        }
        for row in aggregate_spans(records)
    ]
    print(format_table(table))
    _maybe_write_csv(args, span_rows(records))
    return 0


_COMMANDS = {
    "topologies": _command_topologies,
    "info": _command_info,
    "explore": _command_explore,
    "evaluate": _command_evaluate,
    "simulate": _command_simulate,
    "paper": _command_paper,
    "run": _command_run,
    "study": _command_study,
    "cache": _command_cache,
    "serve": _command_serve,
    "submit": _command_submit,
    "work": _command_work,
    "jobs": _command_jobs,
    "traffic": _command_traffic,
    "lint": _command_lint,
    "telemetry": _command_telemetry,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None):
        configure_tracing(args.trace)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a consumer that exited early (e.g. `repro run | head`).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised through __main__
    sys.exit(main())

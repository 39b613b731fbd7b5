#!/usr/bin/env python
"""Quickstart: explore wavelength allocations for the paper's application.

This example describes the paper's setup — the virtual application of Fig. 5
on the 4x4 ring-based WDM ONoC — as a :class:`~repro.Scenario`, runs a (small)
NSGA-II exploration through :func:`~repro.execute_scenario` and prints the
Pareto front together with the three reference points the paper highlights:

* the most energy-efficient allocation (one wavelength per communication),
* the fastest allocation found,
* the best-BER allocation found.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import GeneticParameters, Scenario, execute_scenario
from repro.allocation import uniform_allocation
from repro.analysis import format_table
from repro.scenarios import build_scenario_evaluator


def main() -> None:
    # The paper's workload and mapping are the scenario defaults; a quick GA
    # sizing keeps the run short (increase it for better fronts).
    scenario = Scenario(
        name="quickstart",
        wavelength_count=8,
        genetic=GeneticParameters(population_size=80, generations=40),
    )
    evaluator = build_scenario_evaluator(scenario)
    task_graph = evaluator.task_graph

    print(evaluator.architecture.describe())
    print(
        f"Application: {task_graph.task_count} tasks, "
        f"{task_graph.communication_count} communications, "
        f"computation-only critical path "
        f"{task_graph.critical_path_cycles() / 1000:.1f} k-cycles"
    )
    print()

    # The paper's most energy-efficient reference point: one wavelength each.
    single = uniform_allocation(evaluator, 1)
    print(
        "Single-wavelength allocation "
        f"{single.allocation_summary}: "
        f"time {single.objectives.execution_time_kcycles:.1f} kcc, "
        f"energy {single.objectives.bit_energy_fj:.2f} fJ/bit, "
        f"log10(BER) {single.objectives.log10_ber:.2f}"
    )
    print()

    outcome = execute_scenario(scenario)
    result = outcome.result
    print(
        f"NSGA-II explored {result.valid_solution_count} distinct valid allocations; "
        f"{result.pareto_size} are Pareto-optimal."
    )
    print()
    print(format_table(outcome.pareto_rows()))
    print()

    fastest = result.best_by("time")
    greenest = result.best_by("energy")
    cleanest = result.best_by("ber")
    print(f"Fastest allocation      : {fastest.allocation_summary} "
          f"({fastest.objectives.execution_time_kcycles:.2f} kcc)")
    print(f"Most energy efficient   : {greenest.allocation_summary} "
          f"({greenest.objectives.bit_energy_fj:.2f} fJ/bit)")
    print(f"Best bit error rate     : {cleanest.allocation_summary} "
          f"(log10 BER {cleanest.objectives.log10_ber:.2f})")


if __name__ == "__main__":
    main()

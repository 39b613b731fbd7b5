#!/usr/bin/env python
"""Compare classical wavelength-assignment heuristics against NSGA-II.

The related-work section of the paper recalls the classical single-objective
heuristics of WDM networking — Random, First-Fit, Most-Used, Least-Used — and
argues that a multi-objective search is needed for the ONoC setting.  This
example quantifies that claim on the paper's application: each heuristic
produces one allocation per "wavelengths per communication" setting, and the
script reports how many of those points are dominated by the NSGA-II front.

Run it with::

    python examples/baseline_comparison.py
"""

from __future__ import annotations

from repro import GeneticParameters, Scenario, execute_scenario
from repro.allocation import (
    dominates,
    first_fit_allocation,
    least_used_allocation,
    most_used_allocation,
    random_allocation,
)
from repro.analysis import format_table
from repro.scenarios import build_scenario_evaluator


def main() -> None:
    # The paper's application and mapping on the 4x4 ring with 8 wavelengths.
    scenario = Scenario(
        name="baselines", genetic=GeneticParameters(population_size=80, generations=50)
    )
    result = execute_scenario(scenario).result
    front = [
        solution.objective_tuple(("time", "energy", "ber"))
        for solution in result.pareto_solutions
    ]
    print(f"NSGA-II front: {len(front)} solutions "
          f"(from {result.valid_solution_count} valid allocations)")
    print()

    # The heuristics run on the same evaluator; called directly (rather than
    # as scenarios) so that invalid picks stay in the table.
    evaluator = build_scenario_evaluator(scenario)
    rows = []
    dominated_count = 0
    total = 0
    for per_communication in (1, 2, 3):
        baselines = {
            "first_fit": first_fit_allocation(evaluator, per_communication),
            "most_used": most_used_allocation(evaluator, per_communication),
            "least_used": least_used_allocation(evaluator, per_communication),
            "random": random_allocation(evaluator, per_communication, seed=2017),
        }
        for name, solution in baselines.items():
            objectives = solution.objective_tuple(("time", "energy", "ber"))
            dominated = any(dominates(point, objectives) for point in front)
            dominated_count += int(dominated)
            total += 1
            rows.append(
                {
                    "heuristic": f"{name} ({per_communication} wl/comm)",
                    "valid": solution.is_valid,
                    "time_kcc": solution.objectives.execution_time_kcycles,
                    "energy_fj": solution.objectives.bit_energy_fj,
                    "log10_ber": solution.objectives.log10_ber,
                    "dominated_by_nsga2": dominated,
                }
            )

    print(format_table(rows))
    print()
    print(f"{dominated_count}/{total} heuristic points are strictly dominated by "
          "the NSGA-II front; the remaining points are (at best) on it, never beyond it.")


if __name__ == "__main__":
    main()

"""Ablation C — sensitivity of the exploration to the GA sizing.

The paper runs NSGA-II with 400 individuals for 300 generations.  This
ablation checks what a smaller budget costs: with more evaluations the
optimiser discovers more distinct valid solutions and pushes the best
execution time at least as low, i.e. the search benefits monotonically from
budget (which justifies the paper's sizing) while even small budgets recover
the energy-optimal ``[1,...,1]`` anchor.
"""

from __future__ import annotations

from repro.analysis import format_table, write_csv
from repro.config import GeneticParameters
from repro.scenarios import Scenario, execute_scenario

BUDGETS = (
    GeneticParameters(population_size=16, generations=8, seed=11),
    GeneticParameters(population_size=32, generations=16, seed=11),
    GeneticParameters(population_size=64, generations=32, seed=11),
)


def test_ga_budget_sweep(benchmark, results_dir):
    """Bigger GA budgets explore more and never lose the anchors."""
    base = Scenario(name="ga-budget", wavelength_count=8)
    scenarios = [base.derive(genetic=parameters) for parameters in BUDGETS]

    outcomes = benchmark.pedantic(
        lambda: [execute_scenario(scenario) for scenario in scenarios],
        rounds=1,
        iterations=1,
    )
    records = [outcome.summary() for outcome in outcomes]

    rows = []
    for parameters, record in zip(BUDGETS, records):
        rows.append(
            {
                "population": parameters.population_size,
                "generations": parameters.generations,
                "evaluations": record.evaluations,
                "valid_solutions": record.valid_solution_count,
                "pareto_size": record.pareto_size,
                "best_time_kcc": record.best_time_kcycles,
                "best_energy_fj": record.best_energy_fj,
            }
        )
    print()
    print("Ablation C — GA budget sweep (8 wavelengths)")
    print(format_table(rows))
    write_csv(results_dir / "ablation_ga_settings.csv", rows)

    # More budget => more distinct valid solutions discovered.
    valid_counts = [record.valid_solution_count for record in records]
    assert valid_counts[0] < valid_counts[1] < valid_counts[2]

    # The largest budget finds an execution time at least as good as the
    # smallest one (runs are independently seeded, so only the extremes of the
    # sweep are compared, with a half-kilocycle tolerance).
    best_times = [record.best_time_kcycles for record in records]
    assert best_times[-1] <= best_times[0] + 0.5

    # Every budget keeps the [1,...,1] energy anchor thanks to seeding + elitism.
    for outcome in outcomes:
        assert outcome.result.best_by("energy").wavelength_counts == (1,) * 6

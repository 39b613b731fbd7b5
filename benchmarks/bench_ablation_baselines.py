"""Ablation A — classical heuristics versus the NSGA-II Pareto front.

The paper motivates a multi-objective search by noting that the classical
single-objective wavelength-assignment heuristics (Random, First-Fit,
Most-Used, Least-Used) target blocking probability, not the time/energy/BER
trade-off.  This ablation quantifies the claim on the paper's application:
no heuristic point may dominate the NSGA-II front, and the front strictly
dominates most of them.
"""

from __future__ import annotations

from repro.allocation import (
    dominates,
    first_fit_allocation,
    least_used_allocation,
    most_used_allocation,
    random_allocation,
)
from repro.analysis import format_table, write_csv
from repro.scenarios import build_scenario_evaluator


def test_heuristic_baselines_never_beat_nsga2(benchmark, suite, results_dir):
    """Every classical heuristic allocation is dominated by or on the GA front."""
    evaluator = build_scenario_evaluator(suite.scenario_for(8))

    def run_heuristics():
        solutions = []
        for per_communication in (1, 2, 3):
            for name, heuristic in (
                ("first_fit", first_fit_allocation),
                ("most_used", most_used_allocation),
                ("least_used", least_used_allocation),
            ):
                solutions.append(
                    (f"{name}-{per_communication}", heuristic(evaluator, per_communication))
                )
            solutions.append(
                (
                    f"random-{per_communication}",
                    random_allocation(evaluator, per_communication, seed=per_communication),
                )
            )
        return solutions

    heuristic_solutions = benchmark.pedantic(run_heuristics, rounds=1, iterations=1)

    record = suite.record(8)
    front = [
        solution.objective_tuple(("time", "energy", "ber"))
        for solution in record.result.pareto_solutions
    ]

    table = []
    beaten = 0
    for name, solution in heuristic_solutions:
        objectives = solution.objective_tuple(("time", "energy", "ber"))
        if solution.is_valid:
            # No heuristic point may dominate any point of the GA front.
            for point in front:
                assert not dominates(objectives, point), (name, objectives, point)
            if any(dominates(point, objectives) for point in front):
                beaten += 1
        table.append(
            {
                "heuristic": name,
                "valid": solution.is_valid,
                "time_kcc": solution.objectives.execution_time_kcycles,
                "energy_fj": solution.objectives.bit_energy_fj,
                "log10_ber": solution.objectives.log10_ber,
            }
        )

    print()
    print("Ablation A — heuristic baselines vs NSGA-II (8 wavelengths)")
    print(format_table(table))
    print(f"{beaten}/{len(table)} heuristic points strictly dominated by the GA front")
    write_csv(results_dir / "ablation_baselines.csv", table)

    # The GA front strictly dominates at least half of the valid heuristic points.
    valid_points = [row for row in table if row["valid"]]
    assert beaten >= len(valid_points) // 2

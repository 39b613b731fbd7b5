#!/usr/bin/env python
"""Future-work study: how the task mapping changes the allocation trade-offs.

The paper's conclusion points out that moving tasks in space (a different
mapping) moves communications in space and time, and therefore changes the
crosstalk picture.  This example explores the paper's application under several
mappings — the paper's placement, a tightly packed one, a maximally spread one
and a few random ones — and compares the resulting Pareto fronts.

Run it with::

    python examples/mapping_exploration.py
"""

from __future__ import annotations

from repro import GeneticParameters, Scenario, execute_scenario
from repro.analysis import format_table, hypervolume_2d


def main() -> None:
    # Mappings are registry names, so the sweep is a plain list of scenarios
    # that differ only in their mapping field.
    base = Scenario(
        name="mapping-study",
        wavelength_count=8,
        genetic=GeneticParameters(population_size=60, generations=40),
    )
    candidates = {
        "paper": base,
        "packed (adjacent cores)": base.derive(
            mapping="round_robin", mapping_options={"stride": 1}
        ),
        "spread (stride 5)": base.derive(mapping="round_robin", mapping_options={"stride": 5}),
        "random seed 1": base.derive(mapping="random", mapping_options={"seed": 1}),
        "random seed 2": base.derive(mapping="random", mapping_options={"seed": 2}),
    }

    # Hypervolume reference: worst time = single-wavelength bound, generous energy cap.
    reference = (45.0, 12.0)
    rows = []
    for name, scenario in candidates.items():
        result = execute_scenario(scenario).result
        best_time, best_energy, _ = result.best_objective_values()
        rows.append(
            {
                "mapping": name,
                "pareto_size": result.pareto_size,
                "best_time_kcc": best_time,
                "best_energy_fj": best_energy,
                "hypervolume": hypervolume_2d(result.front_series("time", "energy"), reference),
            }
        )

    print("Pareto-front quality per mapping (time/energy objectives, "
          f"hypervolume reference {reference}):")
    print(format_table(rows))
    print()
    best = max(rows, key=lambda row: row["hypervolume"])
    print(f"Best mapping by hypervolume: {best['mapping']}")
    print("Packing communicating tasks onto neighbouring cores shortens paths "
          "(less loss, fewer shared segments), which shows up as a larger "
          "dominated area.")


if __name__ == "__main__":
    main()

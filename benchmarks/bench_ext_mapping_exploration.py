"""Extension — the paper's future work: exploring different task mappings.

The conclusion of the paper notes that changing the task mapping moves
communications in space and time and should further improve throughput, BER
and bit energy.  This extension benchmark runs the wavelength-allocation
exploration of the paper's application under several mappings (the paper's
spread placement, a tightly packed one, and random ones) and compares the
resulting (time, energy) Pareto fronts by hypervolume.

Expected shape: packing communicating tasks onto neighbouring cores shortens
the waveguide paths, which lowers losses and removes conflicts — its front
hypervolume is at least as large as the spread placements'.
"""

from __future__ import annotations

from repro.analysis import format_table, hypervolume_2d, write_csv
from repro.scenarios import Scenario, execute_scenario

#: Hypervolume reference point: slightly worse than the worst observable point.
REFERENCE = (45.0, 15.0)


def test_mapping_exploration(benchmark, results_dir, small_ga):
    """Compare Pareto fronts across task mappings (paper future work)."""
    base = Scenario(name="mapping", wavelength_count=8, genetic=small_ga)
    candidates = {
        "paper": base,
        "packed": base.derive(mapping="round_robin", mapping_options={"stride": 1}),
        "spread": base.derive(mapping="round_robin", mapping_options={"stride": 5}),
        "random": base.derive(mapping="random", mapping_options={"seed": 13}),
    }

    results = benchmark.pedantic(
        lambda: [execute_scenario(scenario).result for scenario in candidates.values()],
        rounds=1,
        iterations=1,
    )

    rows = []
    hypervolumes = {}
    for name, result in zip(candidates, results):
        volume = hypervolume_2d(result.front_series("time", "energy"), REFERENCE)
        hypervolumes[name] = volume
        best_time, best_energy, _ = result.best_objective_values()
        rows.append(
            {
                "mapping": name,
                "pareto_size": result.pareto_size,
                "best_time_kcc": best_time,
                "best_energy_fj": best_energy,
                "hypervolume": volume,
            }
        )
    print()
    print("Extension — mapping exploration (8 wavelengths, time/energy front)")
    print(format_table(rows))
    write_csv(results_dir / "ext_mapping_exploration.csv", rows)

    # Every mapping produces a usable front.
    assert all(result.pareto_size >= 1 for result in results)
    assert all(volume > 0.0 for volume in hypervolumes.values())

    # Packing communicating tasks next to each other is never worse than the
    # maximally spread placement (shorter paths, fewer shared segments).
    assert hypervolumes["packed"] >= hypervolumes["spread"] - 1e-6

    # The mapping changes the achievable trade-offs, which is exactly why the
    # paper lists mapping exploration as future work.
    assert max(hypervolumes.values()) > min(hypervolumes.values())

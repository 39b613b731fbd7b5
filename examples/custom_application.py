#!/usr/bin/env python
"""Allocate wavelengths for a custom streaming application on a larger ONoC.

This example shows the full user workflow on an application that is *not* the
paper's: an 8-stage video-processing pipeline with a side analytics branch,
mapped onto a 6x6 ring ONoC with 16 wavelengths.  It demonstrates

* building a task graph by hand,
* choosing a mapping,
* inspecting the link budget of the longest communication,
* exploring allocations and cross-checking the best one with the
  discrete-event simulator.

Run it with::

    python examples/custom_application.py
"""

from __future__ import annotations

from repro import (
    AllocationEvaluator,
    GeneticParameters,
    Mapping,
    OnocSimulator,
    RingOnocArchitecture,
    TaskGraph,
)
from repro.analysis import format_table
from repro.models import LinkBudget
from repro.scenarios import OptimizerParameters, create_optimizer


def build_video_pipeline() -> TaskGraph:
    """An 8-stage pipeline (capture ... encode) with an analytics side branch."""
    graph = TaskGraph(name="video-pipeline")
    stages = [
        ("capture", 3000.0),
        ("denoise", 6000.0),
        ("debayer", 4000.0),
        ("scale", 4000.0),
        ("detect", 8000.0),
        ("track", 5000.0),
        ("overlay", 3000.0),
        ("encode", 7000.0),
    ]
    graph.add_tasks(stages)
    volumes = [16000.0, 12000.0, 12000.0, 8000.0, 4000.0, 4000.0, 6000.0]
    names = [name for name, _ in stages]
    for source, destination, volume in zip(names, names[1:], volumes):
        graph.add_communication(source, destination, volume)
    # Analytics side branch: raw detections streamed to a logger task.
    graph.add_task("analytics", 5000.0)
    graph.add_communication("detect", "analytics", 2000.0)
    return graph


def main() -> None:
    architecture = RingOnocArchitecture.grid(6, 6, wavelength_count=16)
    task_graph = build_video_pipeline()
    # Spread the stages around the ring (stride 3) so transfers share segments.
    mapping = Mapping.round_robin(task_graph, architecture, stride=3)

    print(architecture.describe())
    print(f"Application '{task_graph.name}': {task_graph.task_count} tasks, "
          f"{task_graph.communication_count} communications")
    print()

    # Link budget of the heaviest communication, with and without neighbours.
    budget = LinkBudget(architecture)
    heavy = max(task_graph.communications(), key=lambda edge: edge.volume_bits)
    source_core = mapping.core_of(heavy.source)
    destination_core = mapping.core_of(heavy.destination)
    lonely = budget.evaluate_link(source_core, destination_core, channel=0)
    crowded = budget.evaluate_channels(
        source_core, destination_core, channels=list(range(4))
    )
    print(f"Heaviest communication {heavy.label} ({heavy.source} -> {heavy.destination}, "
          f"{heavy.volume_bits:.0f} bits):")
    print(f"  single wavelength : received {lonely.signal.power_dbm:.2f} dBm, "
          f"SNR {lonely.snr.snr_db:.1f} dB, BER {lonely.bit_error_rate:.2e}")
    worst = max(report.bit_error_rate for report in crowded)
    print(f"  4 wavelengths     : worst-channel BER {worst:.2e} "
          "(intra-communication crosstalk included)")
    print()

    # A hand-built task graph is not in the workload registry, so the search
    # runs on an explicit evaluator through the same backend call that
    # execute_scenario makes for registered workloads.
    evaluator = AllocationEvaluator(architecture, task_graph, mapping)
    parameters = OptimizerParameters(
        genetic=GeneticParameters(population_size=60, generations=40)
    )
    result = create_optimizer("nsga2").run(evaluator, parameters)
    print(f"{result.valid_solution_count} valid allocations explored, "
          f"{result.pareto_size} on the Pareto front:")
    print(format_table(result.summary_rows()[:10]))
    print()

    # Cross-check the fastest allocation with the discrete-event simulator.
    fastest = result.best_by("time")
    simulator = OnocSimulator(architecture, task_graph, mapping)
    report = simulator.run(fastest.chromosome.allocation())
    print(f"Fastest allocation {fastest.allocation_summary}:")
    print(f"  analytical makespan : {fastest.objectives.execution_time_kcycles:.2f} kcc")
    print(f"  simulated makespan  : {report.makespan_kilocycles:.2f} kcc")
    print(f"  wavelength conflicts observed: {len(report.conflicts)}")
    print(f"  average wavelength utilisation: "
          f"{report.statistics.average_wavelength_utilisation:.1%}")


if __name__ == "__main__":
    main()

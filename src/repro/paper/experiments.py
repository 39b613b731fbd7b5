"""The driver regenerating the paper's tables and figures.

Every :class:`PaperExperimentSuite` artefact method returns plain data (rows
of dictionaries or (x, y) series) so the benchmark harness can both print it
and assert its shape:

* :meth:`~PaperExperimentSuite.table2` — Table II: number of valid solutions
  and of Pareto-front solutions for 4, 8 and 12 wavelengths.
* :meth:`~PaperExperimentSuite.fig6a` — Fig. 6a: Pareto fronts of bit energy
  vs execution time.
* :meth:`~PaperExperimentSuite.fig6b` — Fig. 6b: Pareto fronts of log10(BER)
  vs execution time.
* :meth:`~PaperExperimentSuite.fig7` — Fig. 7: every valid 8-wavelength
  solution in the (execution time, log10 BER) plane plus the Pareto front.

The heavy part (one NSGA-II run per wavelength count) is shared: a
:class:`PaperExperimentSuite` describes each run as a
:class:`~repro.scenarios.scenario.Scenario`, executes it once through
:func:`~repro.scenarios.study.execute_scenario` and caches the
:class:`~repro.scenarios.study.ScenarioOutcome`, so regenerating all figures
costs three GA runs, exactly as in the paper.  The GA
sizing defaults to the library's fast settings; pass ``full_scale=True`` (or
set the environment variable ``REPRO_PAPER_FULL=1``) for the paper's
400-individual, 300-generation runs.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import OnocConfiguration
from ..scenarios.scenario import Scenario
from ..scenarios.study import ScenarioOutcome, execute_scenario
from .parameters import PAPER_WAVELENGTH_COUNTS, paper_configuration

__all__ = ["PaperExperimentSuite"]


def _full_scale_requested() -> bool:
    return os.environ.get("REPRO_PAPER_FULL", "").strip() in {"1", "true", "yes"}


class PaperExperimentSuite:
    """Shared runner for every table/figure of the paper's evaluation.

    Parameters
    ----------
    wavelength_counts:
        The waveguide configurations to explore (defaults to the paper's 4/8/12).
    configuration:
        Optional configuration override.
    full_scale:
        Use the paper's GA sizing (400 x 300).  Defaults to the value of the
        ``REPRO_PAPER_FULL`` environment variable.
    seed:
        Seed of the genetic algorithm.
    """

    def __init__(
        self,
        wavelength_counts: Sequence[int] = PAPER_WAVELENGTH_COUNTS,
        configuration: Optional[OnocConfiguration] = None,
        full_scale: Optional[bool] = None,
        seed: int = 2017,
    ) -> None:
        if full_scale is None:
            full_scale = _full_scale_requested()
        self._wavelength_counts = tuple(wavelength_counts)
        self._configuration = configuration or paper_configuration(
            full_scale=full_scale, seed=seed
        )
        self._outcomes: Dict[int, ScenarioOutcome] = {}

    @property
    def wavelength_counts(self) -> Tuple[int, ...]:
        """The explored wavelength counts."""
        return self._wavelength_counts

    @property
    def configuration(self) -> OnocConfiguration:
        """The configuration shared by every run."""
        return self._configuration

    def scenario_for(self, wavelength_count: int) -> Scenario:
        """The declarative scenario describing one paper run.

        The suite's entire setup — Fig. 5 workload, Fig. 5b mapping, Table I
        parameters, GA sizing — is expressed as a plain
        :class:`~repro.scenarios.scenario.Scenario`, so any paper experiment
        can be exported to JSON and replayed with ``python -m repro run``.
        """
        configuration = self._configuration
        return Scenario(
            name=f"paper-nw{wavelength_count}",
            rows=4,
            columns=4,
            wavelength_count=wavelength_count,
            workload="paper",
            mapping="paper",
            genetic=configuration.genetic,
            overrides={
                "photonic": configuration.photonic.to_dict(),
                "timing": configuration.timing.to_dict(),
                "energy": configuration.energy.to_dict(),
            },
        )

    def record(self, wavelength_count: int) -> ScenarioOutcome:
        """The (cached) outcome of the paper run for one wavelength count."""
        if wavelength_count not in self._outcomes:
            self._outcomes[wavelength_count] = execute_scenario(
                self.scenario_for(wavelength_count)
            )
        return self._outcomes[wavelength_count]

    def records(self) -> List[ScenarioOutcome]:
        """Outcomes for every configured wavelength count."""
        return [self.record(count) for count in self._wavelength_counts]

    # ------------------------------------------------------------------ table 2
    def table2(self) -> List[Dict[str, object]]:
        """Rows of Table II: wavelengths, Pareto-front size, valid-solution count.

        The Pareto-front size is computed over the two-objective projection the
        paper uses for its Table II discussion (execution time vs bit energy).
        """
        results = [outcome.result for outcome in self.records()]
        return [
            {
                "wavelength_count": result.wavelength_count,
                "pareto_front_size": len(result.front_for(("time", "energy"))),
                "valid_solution_count": result.valid_solution_count,
            }
            for result in results
        ]

    # ------------------------------------------------------------------ figures
    def fig6a(self) -> Dict[int, List[Tuple[float, float]]]:
        """Fig. 6a series: execution time (kcc) vs bit energy (fJ/bit) per NW."""
        return {
            outcome.result.wavelength_count: outcome.result.front_series("time", "energy")
            for outcome in self.records()
        }

    def fig6b(self) -> Dict[int, List[Tuple[float, float]]]:
        """Fig. 6b series: execution time (kcc) vs log10(BER) per NW."""
        return {
            outcome.result.wavelength_count: outcome.result.front_series("time", "log_ber")
            for outcome in self.records()
        }

    def fig7(self, wavelength_count: int = 8) -> Dict[str, List[Tuple[float, float]]]:
        """Fig. 7: all valid solutions and the Pareto front for one NW (default 8)."""
        result = self.record(wavelength_count).result
        all_points = [
            (solution.objectives.execution_time_kcycles, solution.objectives.log10_ber)
            for solution in result.valid_solutions
        ]
        front_points = result.front_series("time", "log_ber")
        return {"valid_solutions": all_points, "pareto_front": front_points}

    def pareto_rows(self) -> List[Dict[str, object]]:
        """Every Pareto solution of every wavelength count (CSV-ready)."""
        return [row for outcome in self.records() for row in outcome.pareto_rows()]


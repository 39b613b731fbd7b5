"""Paper reproduction layer.

* :mod:`~repro.paper.parameters`  — the exact parameter values of Table I and
  Section IV, plus the Table I rows themselves.
* :mod:`~repro.paper.experiments` — drivers that regenerate Table II and
  Figures 6a, 6b and 7.  Each paper run is a
  :class:`~repro.scenarios.scenario.Scenario` (Fig. 5 workload and mapping on
  the 4x4 ring, see :meth:`PaperExperimentSuite.scenario_for`).
"""

from .parameters import paper_configuration, table1_rows, PAPER_WAVELENGTH_COUNTS
from .experiments import PaperExperimentSuite

__all__ = [
    "paper_configuration",
    "table1_rows",
    "PAPER_WAVELENGTH_COUNTS",
    "PaperExperimentSuite",
]

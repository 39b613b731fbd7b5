"""Shared fixtures for the benchmark harness.

The expensive part of every paper experiment is the NSGA-II exploration (one
run per wavelength count).  A single session-scoped
:class:`~repro.paper.experiments.PaperExperimentSuite` performs those runs once
and every table/figure benchmark reads from it, mirroring how the paper derives
all of Table II and Figures 6-7 from the same three explorations.

Environment knobs
-----------------
``REPRO_BENCH_POPULATION`` / ``REPRO_BENCH_GENERATIONS``
    Override the GA sizing used by the benchmarks (defaults: 80 x 50).
``REPRO_PAPER_FULL=1``
    Use the paper's full 400 x 300 sizing (slow: several minutes per run).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.config import GeneticParameters, OnocConfiguration
from repro.paper import PaperExperimentSuite
from repro.paper.parameters import paper_photonic_parameters

#: Directory where benchmarks drop their CSV outputs.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _bench_genetic_parameters() -> GeneticParameters:
    population = int(os.environ.get("REPRO_BENCH_POPULATION", "80"))
    generations = int(os.environ.get("REPRO_BENCH_GENERATIONS", "50"))
    return GeneticParameters(
        population_size=population, generations=generations, seed=2017
    )


@pytest.fixture(scope="session")
def bench_configuration() -> OnocConfiguration:
    """Paper photonic parameters with the benchmark GA sizing."""
    if os.environ.get("REPRO_PAPER_FULL", "").strip() in {"1", "true", "yes"}:
        genetic = GeneticParameters.paper_defaults()
    else:
        genetic = _bench_genetic_parameters()
    return OnocConfiguration(photonic=paper_photonic_parameters(), genetic=genetic)


@pytest.fixture(scope="session")
def suite(bench_configuration) -> PaperExperimentSuite:
    """The shared experiment suite (4, 8 and 12 wavelength explorations)."""
    return PaperExperimentSuite(configuration=bench_configuration, full_scale=False)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def small_ga() -> GeneticParameters:
    """A small GA sizing for ablation sweeps that run many explorations."""
    return GeneticParameters(population_size=32, generations=16, seed=7)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Report the `repro lint` violation count alongside the benchmarks.

    The count lands in ``BENCH_lint.json`` next to the other ``BENCH_*``
    trend files so regressions in the static-analysis posture are tracked
    the same way kernel timings are.  Best effort: a lint crash must never
    fail a benchmark run, so any error is reported and swallowed.
    """
    try:
        import json

        from repro.devtools import ALL_RULES, LintEngine

        root = Path(__file__).resolve().parent.parent
        engine = LintEngine(ALL_RULES)
        violations, checked = engine.lint_paths(
            [root / "src" / "repro", root / "benchmarks"], root=root
        )
        terminalreporter.write_line(
            f"lint_violations={len(violations)} (files_checked={checked})"
        )
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "benchmark": "lint",
            "lint_violations": len(violations),
            "files_checked": checked,
            "violations": [violation.to_dict() for violation in violations],
        }
        (RESULTS_DIR / "BENCH_lint.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
    except Exception as error:  # pragma: no cover - diagnostic path
        terminalreporter.write_line(f"lint_violations=unavailable ({error})")

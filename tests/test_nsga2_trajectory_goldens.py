"""Whole NSGA-II trajectories pinned as SHA-256 literals.

Each digest covers a run's final population bytes, its Pareto front's
objective tuples and, per generation, the valid count, the best time,
energy and BER, the front size, the evaluations and the memo hits (no
timings).  The runs are the paper's default scenario at 400x20 and the
16x4 static jobs of the ``study_queue`` benchmark at NW 4, 8 and 12.  The
GA operators' random stream, the selection and the evaluation all feed
these digests, so any change to the walked trajectory shows up here even
when the per-pair oracle of ``tests/oracles.py`` changes with it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.allocation.nsga2 import Nsga2Result
from repro.config import GeneticParameters
from repro.scenarios import Scenario, execute_scenario


def trajectory_digest(result: Nsga2Result) -> str:
    """SHA-256 of the final population bytes, the front and the generation books."""
    digest = hashlib.sha256()
    for solution in result.final_population:
        digest.update(np.asarray(solution.chromosome.genes, dtype=np.uint8).tobytes())
    for row in result.pareto_front.objectives:
        digest.update(repr(tuple(float(value) for value in row)).encode())
    for record in result.history:
        digest.update(
            repr(
                (
                    record.valid_count,
                    record.best_time_kcycles,
                    record.best_energy_fj,
                    record.best_ber,
                    record.front_size,
                    record.evaluations,
                    record.memo_hits,
                )
            ).encode()
        )
    return digest.hexdigest()


class TestTrajectoryGoldens:
    """Whole runs pinned as literals: the operators' stream may not move."""

    def test_paper_default_at_400_by_20(self):
        scenario = Scenario(
            genetic=GeneticParameters(population_size=400, generations=20, seed=2017)
        )
        result = execute_scenario(scenario).result.nsga2
        assert trajectory_digest(result) == (
            "0f3b7f0cab89e30d87af904f0304a81365fea805b56b45c36ac890929e17f5b0"
        )

    @pytest.mark.parametrize(
        "wavelengths, expected",
        [
            (4, "47be330dd90a9703d4bde1147e4b5bd027c40dc58035b99e44d507e3b5e0e68b"),
            (8, "8b9bbefe36b0853636c89e857fcff8e800201f9b66eb2eca25288d9cd3b08b5a"),
            (12, "c38232da1a236ab509740088814250bd2ce2089f73f5742839264f3166130af1"),
        ],
    )
    def test_study_queue_static_jobs(self, wavelengths, expected):
        scenario = Scenario(
            wavelength_count=wavelengths,
            genetic=GeneticParameters(population_size=16, generations=4, seed=2017),
        )
        result = execute_scenario(scenario).result.nsga2
        assert trajectory_digest(result) == expected

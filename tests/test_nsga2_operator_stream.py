"""The raw-block GA operators replay the per-pair random stream exactly.

``Nsga2Optimizer._make_offspring`` takes every draw of a generation from one
block of PCG64 words (:class:`repro.allocation.nsga2._RawDraws`) instead of
one ``Generator`` call per tournament, coin, cut pair and flip row.  These
tests hold it to the per-pair operators of ``tests/oracles.py``:

* the block's bounded integers and doubles equal ``Generator.integers(0, n)``
  and ``Generator.random`` on the installed numpy, with the same generator
  state (32-bit buffer included) afterwards;
* one generation's offspring and the generator state after it equal the
  per-pair code's over a grid of genomes, tournament sizes, operator
  probabilities and population sizes;
* whole runs walk the same trajectory, generator state included.

``tests/test_nsga2_trajectory_goldens.py`` pins whole trajectories as
literals, so exactness holds even if both code paths change together.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import List

import numpy as np
import pytest

from oracles import PerPairNsga2
from repro.allocation import AllocationEvaluator, Nsga2Optimizer
from repro.allocation.nsga2 import Nsga2Result, _RawDraws
from repro.application import Mapping, paper_mapping, paper_task_graph, pipeline_task_graph
from repro.config import GeneticParameters
from repro.topology import RingOnocArchitecture

#: Bounds of ``integers(0, n)``: no draw at all, the GA's own sizes, and three
#: that Lemire's method rejects often.
BOUNDS = (1, 2, 48, 400, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5)

#: Paper workload at NW 1, 2, 4, 8 and 12, plus a one-communication NW 1
#: pipeline whose genome is a single gene (``integers(0, 1)`` draws nothing).
WORKLOADS = ("paper-nw1", "paper-nw2", "paper-nw4", "paper-nw8", "paper-nw12", "pipeline-nw1")

#: (tournament size, mutation probability, crossover probability) grid.
OPERATORS = list(itertools.product((2, 3, 5), (0.0, 0.02, 0.5, 1.0), (0.0, 0.9, 1.0)))


@lru_cache(maxsize=None)
def workload_evaluator(workload: str) -> AllocationEvaluator:
    if workload == "pipeline-nw1":
        architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=1)
        return AllocationEvaluator(
            architecture,
            pipeline_task_graph(stage_count=2),
            Mapping.from_dict({"S0": 0, "S1": 1}),
        )
    wavelengths = int(workload.rsplit("nw", 1)[1])
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=wavelengths)
    return AllocationEvaluator(architecture, paper_task_graph(), paper_mapping(architecture))


def generator_pair(seed: int, buffered: bool):
    """Two generators in one state; ``buffered`` leaves a half word in PCG64's buffer."""
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        first.integers(0, 7)
        second.integers(0, 7)
        assert first.bit_generator.state["has_uint32"] == 1
    return first, second


class TestRawDraws:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("n", BOUNDS)
    def test_integers_match_the_generator(self, n, buffered):
        replayed, reference = generator_pair(n % 9973, buffered)
        # A three-word block: the draws must grow it, rejections or not.
        draws = _RawDraws(replayed, 3)
        got = draws.integers(n, 64) + draws.integers(n, 1)
        draws.close()
        want = reference.integers(0, n, size=64).tolist() + [int(reference.integers(0, n))]
        assert got == want
        assert replayed.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("n", BOUNDS)
    def test_doubles_and_rows_interleave_with_integers(self, n, buffered):
        replayed, reference = generator_pair(n % 7919 + 1, buffered)
        draws = _RawDraws(replayed, 16)
        starts: List[int] = []
        rows: List[np.ndarray] = []
        for step in range(48):
            kind = step % 4
            if kind == 0:
                count = step % 3 + 1
                assert draws.integers(n, count) == reference.integers(0, n, size=count).tolist()
            elif kind == 1:
                assert draws.random() == reference.random()
            elif kind == 2:
                start, flipped = draws.random_row(5, 0.3)
                row = reference.random(5) < 0.3
                assert flipped == bool(row.any())
                starts.append(start)
                rows.append(row)
            else:
                assert draws.integers(n, 1) == [int(reference.integers(0, n))]
        assert np.array_equal(draws.rows_below(starts, 5, 0.3), np.stack(rows))
        draws.close()
        assert replayed.bit_generator.state == reference.bit_generator.state


def tied_objectives(rng: np.random.Generator, size: int) -> np.ndarray:
    """Objective rows with many rank and crowding ties and some invalid rows."""
    objectives = rng.integers(0, 4, size=(size, 3)).astype(float)
    objectives[rng.random(size) < 0.2] = np.inf
    return objectives


@pytest.mark.parametrize("population", [4, 16, 400])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_offspring_and_state_match_the_per_pair_operators(workload, population):
    evaluator = workload_evaluator(workload)
    genome = evaluator.communication_count * evaluator.wavelength_count
    inputs = np.random.default_rng([population, genome])
    for case, (tournament, mutation, crossover) in enumerate(OPERATORS):
        parameters = GeneticParameters(
            population_size=population,
            generations=1,
            tournament_size=tournament,
            mutation_probability=mutation,
            crossover_probability=crossover,
            seed=case,
        )
        production = Nsga2Optimizer(evaluator, parameters)
        oracle = PerPairNsga2(evaluator, parameters)
        # Come in with either 32-bit buffer state.
        for _ in range(case % 3):
            production._rng.integers(0, 5)
            oracle._rng.integers(0, 5)
        matrix = (inputs.random((population, genome)) < inputs.uniform(0.1, 0.9)).astype(np.uint8)
        objectives = tied_objectives(inputs, population)

        got = production._make_offspring(matrix, objectives)
        want = oracle._make_offspring(matrix, objectives)
        label = (workload, population, tournament, mutation, crossover)
        assert got.dtype == np.uint8 and got.flags.c_contiguous, label
        assert np.array_equal(got, want), label
        assert production._rng.bit_generator.state == oracle._rng.bit_generator.state, label


class _StateLog:
    """Records the generator state after every generation's operators."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.states: List[dict] = []

    def _make_offspring(self, *args):
        offspring = super()._make_offspring(*args)
        self.states.append(self._rng.bit_generator.state)
        return offspring


class _LoggedProduction(_StateLog, Nsga2Optimizer):
    pass


class _LoggedPerPair(_StateLog, PerPairNsga2):
    pass


def trajectory(result: Nsga2Result) -> List[object]:
    """Everything a run walked, without timings."""
    return [
        [solution.chromosome.genes for solution in result.final_population],
        [solution.chromosome.genes for solution in result.pareto_front.items],
        [tuple(float(value) for value in row) for row in result.pareto_front.objectives],
        [
            (
                record.generation,
                record.valid_count,
                record.best_time_kcycles,
                record.best_energy_fj,
                record.best_ber,
                record.front_size,
                record.evaluations,
                record.memo_hits,
            )
            for record in result.history
        ],
        result.evaluations,
        result.memo_hits,
    ]


@pytest.mark.parametrize(
    "workload, parameters",
    [
        ("paper-nw8", GeneticParameters(population_size=40, generations=10, seed=2017)),
        (
            "paper-nw4",
            GeneticParameters(
                population_size=16, generations=12, tournament_size=3,
                mutation_probability=0.5, seed=7,
            ),
        ),
        ("paper-nw12", GeneticParameters(population_size=24, generations=6, seed=90210)),
        ("pipeline-nw1", GeneticParameters(population_size=8, generations=6, seed=3)),
    ],
)
def test_whole_runs_walk_the_per_pair_trajectory(workload, parameters):
    evaluator = workload_evaluator(workload)
    production = _LoggedProduction(evaluator, parameters)
    oracle = _LoggedPerPair(evaluator, parameters)
    assert trajectory(production.run()) == trajectory(oracle.run())
    assert len(production.states) == parameters.generations
    assert production.states == oracle.states

"""Reproduction tests: the shapes reported in the paper's evaluation section.

These are the library's "does it actually reproduce the paper" checks: they run
the full experiment suite (with a reduced GA sizing so the test-suite stays
fast) and assert the qualitative findings of Section IV:

* Table II's ordering — valid-solution counts and Pareto-front sizes grow with
  the number of wavelengths;
* Fig. 6a — execution time decreases and saturates towards the 20 k-cycle
  computation floor as wavelengths are added, and the ``[1,1,1,1,1,1]``
  allocation is the most energy-efficient point;
* Fig. 6b — faster allocations pay with a worse BER, within the paper's
  log10(BER) window;
* Fig. 7 — the valid-solution cloud is much larger than its Pareto front.
"""

from __future__ import annotations

import math

import pytest

from repro.config import GeneticParameters, OnocConfiguration
from repro.paper import (
    PAPER_WAVELENGTH_COUNTS,
    PaperExperimentSuite,
    paper_configuration,
    table1_rows,
)
from repro.paper.parameters import paper_genetic_parameters, paper_photonic_parameters


@pytest.fixture(scope="module")
def suite() -> PaperExperimentSuite:
    configuration = OnocConfiguration(
        genetic=GeneticParameters(population_size=48, generations=24, seed=2017)
    )
    return PaperExperimentSuite(configuration=configuration)


class TestParameterFidelity:
    def test_table1_has_six_rows(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert {row["symbol"] for row in rows} == {"Lp", "Lb", "Lp0", "Lp1", "Kp0", "Kp1"}

    def test_paper_photonic_parameters_are_the_defaults(self):
        assert paper_photonic_parameters() == OnocConfiguration().photonic

    def test_paper_genetic_parameters(self):
        parameters = paper_genetic_parameters()
        assert parameters.population_size == 400
        assert parameters.generations == 300

    def test_paper_configuration_scales(self):
        fast = paper_configuration(full_scale=False)
        full = paper_configuration(full_scale=True)
        assert fast.photonic == full.photonic
        assert full.genetic.population_size == 400
        assert fast.genetic.population_size < 400

    def test_paper_wavelength_counts(self):
        assert PAPER_WAVELENGTH_COUNTS == (4, 8, 12)


class TestTable2Shape:
    def test_valid_solution_count_grows_with_wavelengths(self, suite):
        rows = suite.table2()
        counts = [row["valid_solution_count"] for row in rows]
        assert counts[0] < counts[1] <= counts[2] * 1.05  # 4 << 8 <= ~12

    def test_pareto_front_is_a_small_fraction_of_valid_solutions(self, suite):
        for row in suite.table2():
            assert row["pareto_front_size"] < row["valid_solution_count"] / 10

    def test_front_grows_from_4_to_8_wavelengths(self, suite):
        rows = {row["wavelength_count"]: row for row in suite.table2()}
        assert rows[4]["pareto_front_size"] < rows[8]["pareto_front_size"]


class TestFig6aShape:
    def test_single_wavelength_allocation_is_the_energy_optimum(self, suite):
        for wavelength_count in suite.wavelength_counts:
            record = suite.record(wavelength_count)
            best_energy = record.result.best_by("energy")
            assert best_energy.wavelength_counts == (1,) * 6
            assert best_energy.objectives.execution_time_kcycles == pytest.approx(38.0)

    def test_execution_time_improves_with_more_wavelengths(self, suite):
        best_times = {
            wavelength_count: suite.record(wavelength_count).summary().best_time_kcycles
            for wavelength_count in suite.wavelength_counts
        }
        assert best_times[8] < best_times[4]
        assert best_times[12] <= best_times[8] + 0.5

    def test_improvement_from_4_to_8_exceeds_8_to_12(self, suite):
        best_times = {
            wavelength_count: suite.record(wavelength_count).summary().best_time_kcycles
            for wavelength_count in suite.wavelength_counts
        }
        assert (best_times[4] - best_times[8]) >= (best_times[8] - best_times[12]) - 0.5

    def test_times_stay_above_the_computation_floor(self, suite):
        for series in suite.fig6a().values():
            assert all(x >= 20.0 - 1e-9 for x, _ in series)

    def test_energy_range_matches_paper_magnitude(self, suite):
        for series in suite.fig6a().values():
            for _, energy in series:
                assert 2.0 < energy < 15.0

    def test_front_trades_time_for_energy(self, suite):
        for series in suite.fig6a().values():
            xs = [x for x, _ in series]
            ys = [y for _, y in series]
            assert xs == sorted(xs)
            assert all(earlier >= later for earlier, later in zip(ys, ys[1:]))


class TestFig6bShape:
    def test_log_ber_in_paper_window(self, suite):
        for series in suite.fig6b().values():
            for _, log_ber in series:
                assert -4.5 < log_ber < -2.5

    def test_faster_solutions_have_worse_ber(self, suite):
        for series in suite.fig6b().values():
            if len(series) < 2:
                continue
            fastest = series[0]
            slowest = series[-1]
            assert fastest[1] >= slowest[1]


class TestFig7Shape:
    def test_cloud_is_larger_than_front(self, suite):
        fig7 = suite.fig7(wavelength_count=8)
        assert len(fig7["valid_solutions"]) > 5 * len(fig7["pareto_front"])

    def test_front_points_belong_to_the_cloud_region(self, suite):
        fig7 = suite.fig7(wavelength_count=8)
        cloud_times = [x for x, _ in fig7["valid_solutions"]]
        for x, _ in fig7["pareto_front"]:
            assert min(cloud_times) - 1e-9 <= x <= max(cloud_times) + 1e-9

    def test_records_are_cached(self, suite):
        assert suite.record(8) is suite.record(8)

    def test_pareto_rows_cover_all_wavelength_counts(self, suite):
        rows = suite.pareto_rows()
        assert {row["wavelength_count"] for row in rows} == set(suite.wavelength_counts)

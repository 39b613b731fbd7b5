"""Ablation B — micro-ring selectivity (quality factor) and channel spacing.

Section III-B derives the inter-channel crosstalk from the Lorentzian roll-off
of the receiver micro-rings: the leak grows when the channel spacing shrinks
(fixed FSR, more wavelengths) or when the quality factor drops (blunter
filter).  The related work (Chittamuru et al.) mitigates crosstalk precisely by
increasing channel spacing.

This ablation sweeps the quality factor at 8 wavelengths and checks that the
best reachable BER degrades monotonically as the filter gets blunter, while
the execution-time axis is untouched (the timing model does not depend on Q).
"""

from __future__ import annotations

from repro.analysis import format_table, write_csv
from repro.scenarios import Scenario, execute_scenario

QUALITY_FACTORS = (19200.0, 9600.0, 2400.0)


def test_quality_factor_sweep(benchmark, results_dir, small_ga):
    """Lower Q (blunter rings) => worse best-case BER, unchanged best time."""
    base = Scenario(name="quality-factor", wavelength_count=8, genetic=small_ga)
    scenarios = {
        quality_factor: base.derive(overrides={"photonic": {"quality_factor": quality_factor}})
        for quality_factor in QUALITY_FACTORS
    }

    records = benchmark.pedantic(
        lambda: {q: execute_scenario(scenario).summary() for q, scenario in scenarios.items()},
        rounds=1,
        iterations=1,
    )

    rows = []
    for quality_factor in QUALITY_FACTORS:
        record = records[quality_factor]
        rows.append(
            {
                "quality_factor": quality_factor,
                "best_log10_ber": record.best_log10_ber,
                "best_time_kcc": record.best_time_kcycles,
                "pareto_size": record.pareto_size,
            }
        )
    print()
    print("Ablation B — micro-ring quality factor sweep (8 wavelengths)")
    print(format_table(rows))
    write_csv(results_dir / "ablation_quality_factor.csv", rows)

    # BER degrades (log10 BER increases) as the quality factor decreases.
    log_bers = [records[q].best_log10_ber for q in QUALITY_FACTORS]
    assert log_bers[0] <= log_bers[1] + 1e-6 <= log_bers[2] + 2e-6

    # The paper's Q=9600 sits in the log10(BER) window of Fig. 6b.
    assert -4.5 < records[9600.0].best_log10_ber < -2.5

    # The execution-time objective is independent of the photonic filter.
    times = [records[q].best_time_kcycles for q in QUALITY_FACTORS]
    assert max(times) - min(times) < 3.0

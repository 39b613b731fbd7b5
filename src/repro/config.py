"""Configuration dataclasses shared by every subsystem.

The library is configured through a small set of frozen dataclasses:

* :class:`PhotonicParameters`  — device-level losses, laser powers, MR geometry
  (Table I of the paper plus the FSR / Q values of Section IV).
* :class:`TimingParameters`    — data rate per wavelength and clock frequency
  (the execution-time model of Section III-C).
* :class:`EnergyParameters`    — laser efficiency, MR tuning power and detector
  sensitivity used by the bit-energy model.
* :class:`GeneticParameters`   — NSGA-II settings (Section III-D / IV).
* :class:`OnocConfiguration`   — the aggregate handed to high-level APIs.

All classes validate their fields on construction and raise
:class:`~repro.errors.ConfigurationError` on inconsistent input so that errors
surface close to their cause rather than deep inside a model evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from . import constants
from .errors import ConfigurationError

__all__ = [
    "PhotonicParameters",
    "TimingParameters",
    "EnergyParameters",
    "GeneticParameters",
    "OnocConfiguration",
    "is_count",
    "is_real",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def is_count(value: object) -> bool:
    """An ``int`` and not a ``bool``: the rule every integer option follows.

    ``int()`` would turn ``2.5`` into 2 and ``true`` into 1, so a typo would
    run silently under a fingerprint of its own.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """An ``int`` or ``float`` and not a ``bool``: the rule every real-valued setting follows.

    ``float()`` would turn ``true`` into 1.0 and ``"0.5"`` into 0.5, and
    raise a bare ``ValueError`` or ``TypeError`` on ``"abc"`` or ``null``.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PhotonicParameters:
    """Device-level photonic parameters (Table I and Section IV of the paper).

    All losses are expressed in dB and must be negative or zero (they attenuate
    power); crosstalk coefficients likewise.  Laser powers are absolute dBm.
    """

    center_wavelength_nm: float = constants.DEFAULT_CENTER_WAVELENGTH_NM
    free_spectral_range_nm: float = constants.DEFAULT_FSR_NM
    quality_factor: float = constants.DEFAULT_QUALITY_FACTOR
    propagation_loss_db_per_cm: float = constants.DEFAULT_PROPAGATION_LOSS_DB_PER_CM
    bending_loss_db_per_90deg: float = constants.DEFAULT_BENDING_LOSS_DB_PER_90_DEG
    mr_off_pass_loss_db: float = constants.DEFAULT_MR_OFF_PASS_LOSS_DB
    mr_on_loss_db: float = constants.DEFAULT_MR_ON_LOSS_DB
    mr_off_crosstalk_db: float = constants.DEFAULT_MR_OFF_CROSSTALK_DB
    mr_on_crosstalk_db: float = constants.DEFAULT_MR_ON_CROSSTALK_DB
    laser_power_one_dbm: float = constants.DEFAULT_LASER_POWER_ONE_DBM
    laser_power_zero_dbm: float = constants.DEFAULT_LASER_POWER_ZERO_DBM

    def __post_init__(self) -> None:
        _require(self.center_wavelength_nm > 0.0, "center wavelength must be positive")
        _require(self.free_spectral_range_nm > 0.0, "FSR must be positive")
        _require(self.quality_factor > 0.0, "quality factor must be positive")
        for name in (
            "propagation_loss_db_per_cm",
            "bending_loss_db_per_90deg",
            "mr_off_pass_loss_db",
            "mr_on_loss_db",
            "mr_off_crosstalk_db",
            "mr_on_crosstalk_db",
        ):
            _require(getattr(self, name) <= 0.0, f"{name} must be <= 0 dB (attenuation)")
        _require(
            self.laser_power_zero_dbm < self.laser_power_one_dbm,
            "laser '0' power must be below laser '1' power",
        )

    @property
    def half_bandwidth_nm(self) -> float:
        """Half of the -3 dB bandwidth of the micro-ring filter (delta in Eq. 1)."""
        return self.center_wavelength_nm / (2.0 * self.quality_factor)

    def with_quality_factor(self, quality_factor: float) -> "PhotonicParameters":
        """Return a copy with a different micro-ring quality factor."""
        return replace(self, quality_factor=quality_factor)

    def with_free_spectral_range(self, fsr_nm: float) -> "PhotonicParameters":
        """Return a copy with a different free spectral range."""
        return replace(self, free_spectral_range_nm=fsr_nm)

    def to_dict(self) -> Dict[str, float]:
        """Flat dictionary of the parameters, for reports and CSV output."""
        return {
            "center_wavelength_nm": self.center_wavelength_nm,
            "free_spectral_range_nm": self.free_spectral_range_nm,
            "quality_factor": self.quality_factor,
            "propagation_loss_db_per_cm": self.propagation_loss_db_per_cm,
            "bending_loss_db_per_90deg": self.bending_loss_db_per_90deg,
            "mr_off_pass_loss_db": self.mr_off_pass_loss_db,
            "mr_on_loss_db": self.mr_on_loss_db,
            "mr_off_crosstalk_db": self.mr_off_crosstalk_db,
            "mr_on_crosstalk_db": self.mr_on_crosstalk_db,
            "laser_power_one_dbm": self.laser_power_one_dbm,
            "laser_power_zero_dbm": self.laser_power_zero_dbm,
        }


@dataclass(frozen=True)
class TimingParameters:
    """Timing model parameters (Section III-C).

    ``data_rate_bits_per_cycle`` is the per-wavelength optical data rate
    expressed in bits per processor clock cycle, i.e. the ``B`` of Eq. (10) once
    the whole model is normalised to clock cycles.
    """

    data_rate_bits_per_cycle: float = constants.DEFAULT_DATA_RATE_BITS_PER_CYCLE
    clock_frequency_hz: float = constants.DEFAULT_CLOCK_FREQUENCY_HZ

    def __post_init__(self) -> None:
        _require(self.data_rate_bits_per_cycle > 0.0, "data rate must be positive")
        _require(self.clock_frequency_hz > 0.0, "clock frequency must be positive")

    @property
    def data_rate_bits_per_second(self) -> float:
        """Per-wavelength data rate in bits per second."""
        return self.data_rate_bits_per_cycle * self.clock_frequency_hz

    def to_dict(self) -> Dict[str, float]:
        """Flat dictionary of the parameters."""
        return {
            "data_rate_bits_per_cycle": self.data_rate_bits_per_cycle,
            "clock_frequency_hz": self.clock_frequency_hz,
        }


@dataclass(frozen=True)
class EnergyParameters:
    """Parameters of the bit-energy model.

    The paper reports bit energy in fJ/bit but does not spell out the model; we
    use a laser link-budget model (see :mod:`repro.models.energy`): the laser
    must deliver ``photodetector_sensitivity_dbm`` at the receiver after the
    worst-case path loss, each ON-state micro-ring adds a static tuning power,
    every reserved channel pays a fixed per-transfer setup energy (laser bias
    settling plus ring thermal locking), and the electrical energy is the
    optical energy divided by the wall-plug efficiency.
    """

    laser_efficiency: float = constants.DEFAULT_LASER_EFFICIENCY
    mr_tuning_power_mw: float = constants.DEFAULT_MR_TUNING_POWER_MW
    channel_setup_energy_fj: float = constants.DEFAULT_CHANNEL_SETUP_ENERGY_FJ
    photodetector_sensitivity_dbm: float = constants.DEFAULT_PHOTODETECTOR_SENSITIVITY_DBM

    def __post_init__(self) -> None:
        _require(0.0 < self.laser_efficiency <= 1.0, "laser efficiency must be in (0, 1]")
        _require(self.mr_tuning_power_mw >= 0.0, "MR tuning power must be >= 0")
        _require(self.channel_setup_energy_fj >= 0.0, "channel setup energy must be >= 0")

    def to_dict(self) -> Dict[str, float]:
        """Flat dictionary of the parameters."""
        return {
            "laser_efficiency": self.laser_efficiency,
            "mr_tuning_power_mw": self.mr_tuning_power_mw,
            "channel_setup_energy_fj": self.channel_setup_energy_fj,
            "photodetector_sensitivity_dbm": self.photodetector_sensitivity_dbm,
        }


@dataclass(frozen=True)
class GeneticParameters:
    """NSGA-II settings (Section III-D and IV of the paper).

    The paper iterates 300 generations over a population of 400 individuals.
    Those values are available through :meth:`paper_defaults`; the regular
    default is smaller so that the test-suite and the benchmarks run quickly.
    """

    population_size: int = 120
    generations: int = 80
    crossover_probability: float = 0.9
    mutation_probability: float = 0.02
    tournament_size: int = 2
    seed: int = 2017

    def __post_init__(self) -> None:
        for name in ("population_size", "generations", "tournament_size", "seed"):
            value = getattr(self, name)
            _require(is_count(value), f"{name} must be an integer, got {value!r}")
        _require(self.population_size >= 4, "population size must be at least 4")
        _require(self.population_size % 2 == 0, "population size must be even")
        _require(self.generations >= 1, "generations must be at least 1")
        _require(0.0 <= self.crossover_probability <= 1.0, "crossover probability in [0, 1]")
        _require(0.0 <= self.mutation_probability <= 1.0, "mutation probability in [0, 1]")
        _require(self.tournament_size >= 2, "tournament size must be at least 2")

    @classmethod
    def paper_defaults(cls, seed: int = 2017) -> "GeneticParameters":
        """The exact GA size used in the paper (400 individuals, 300 generations)."""
        return cls(population_size=400, generations=300, seed=seed)

    @classmethod
    def smoke_test(cls, seed: int = 2017) -> "GeneticParameters":
        """A tiny configuration for unit tests."""
        return cls(population_size=16, generations=8, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        """Flat dictionary of the parameters."""
        return {
            "population_size": self.population_size,
            "generations": self.generations,
            "crossover_probability": self.crossover_probability,
            "mutation_probability": self.mutation_probability,
            "tournament_size": self.tournament_size,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OnocConfiguration:
    """Aggregate configuration handed to the high-level exploration APIs."""

    photonic: PhotonicParameters = field(default_factory=PhotonicParameters)
    timing: TimingParameters = field(default_factory=TimingParameters)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    genetic: GeneticParameters = field(default_factory=GeneticParameters)

    @classmethod
    def paper_defaults(cls, seed: int = 2017) -> "OnocConfiguration":
        """Configuration matching the paper's experimental setup."""
        return cls(genetic=GeneticParameters.paper_defaults(seed=seed))

    def to_dict(self) -> Dict[str, Any]:
        """Nested dictionary of every parameter group."""
        return {
            "photonic": self.photonic.to_dict(),
            "timing": self.timing.to_dict(),
            "energy": self.energy.to_dict(),
            "genetic": self.genetic.to_dict(),
        }

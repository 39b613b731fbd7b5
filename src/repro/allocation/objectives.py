"""Objective evaluation of a wavelength allocation.

This module turns a :class:`~repro.allocation.chromosome.Chromosome` into the
three figures of merit the paper explores:

* **global execution time** (kilo-clock-cycles), from the schedule of
  Eqs. (10)-(12);
* **average bit error rate**, from the crosstalk/SNR/BER chain of Eqs. (1)-(9);
* **bit energy** (fJ/bit), from the adaptive laser-budget model of
  :mod:`repro.models.energy`.

The evaluator pre-computes everything that only depends on the architecture,
the task graph and the mapping (paths, base losses, pairwise spatial
relationships, the Lorentzian crosstalk matrix) so that evaluating one
chromosome — which NSGA-II does hundreds of thousands of times — only involves
cheap arithmetic.  Its physics is cross-checked against the readable reference
models of :mod:`repro.models` by the test-suite.

Validity rules (Section III-D of the paper)
-------------------------------------------
A chromosome is *invalid* when

1. a communication has no reserved wavelength (it could never transmit),
2. two communications that share a directed waveguide segment **and** whose
   transfers overlap in time reserve a common wavelength (the signal of one
   would be dropped or corrupted by the other), or
3. a communication reserves more wavelengths than the waveguide carries
   (impossible by construction with the binary encoding, kept as a defensive
   check).

Invalid chromosomes receive infinite objectives, exactly as the paper "directly
set[s] the fitness to infinity".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..application.communication import MappedCommunication, build_communications
from ..application.mapping import Mapping
from ..application.scheduling import ListScheduler, Schedule
from ..application.task_graph import TaskGraph
from ..config import OnocConfiguration
from ..devices.microring import MicroRingResonator
from ..errors import AllocationError
from ..models.ber import BerModel
from ..models.energy import BitEnergyModel
from ..topology.base import OnocTopology
from ..units import dbm_to_mw
from .chromosome import Chromosome

__all__ = [
    "CrosstalkScope",
    "ObjectiveVector",
    "ValidityReport",
    "AllocationSolution",
    "EvaluatorArrays",
    "AllocationEvaluator",
]


class CrosstalkScope(enum.Enum):
    """Which aggressors are counted in the crosstalk noise of Eq. (7)."""

    #: Only the other wavelengths of the same communication (the crosstalk the
    #: paper says "will always be there until the communication finishes").
    INTRA = "intra"
    #: Intra plus every other communication whose path crosses the victim's
    #: destination ONI, regardless of timing (worst case).
    SPATIAL = "spatial"
    #: Intra plus spatially crossing communications whose transfers overlap in
    #: time with the victim's (the default; matches the paper's discussion of
    #: inter- vs intra-communication crosstalk).
    TEMPORAL = "temporal"


@dataclass(frozen=True)
class ObjectiveVector:
    """The three minimised figures of merit of one allocation."""

    execution_time_kcycles: float
    mean_bit_error_rate: float
    bit_energy_fj: float

    #: Names usable with :meth:`value_of` and the NSGA-II objective selection.
    KEYS = ("time", "ber", "energy")

    def value_of(self, key: str) -> float:
        """Objective value by short name (``"time"``, ``"ber"`` or ``"energy"``)."""
        if key == "time":
            return self.execution_time_kcycles
        if key == "ber":
            return self.mean_bit_error_rate
        if key == "energy":
            return self.bit_energy_fj
        raise AllocationError(f"unknown objective key {key!r}")

    def as_tuple(self, keys: Sequence[str] = KEYS) -> Tuple[float, ...]:
        """Objective values in the order of ``keys`` (all minimised)."""
        return tuple(self.value_of(key) for key in keys)

    @property
    def log10_ber(self) -> float:
        """``log10`` of the mean BER (the paper's Fig. 6b / Fig. 7 y-axis)."""
        return math.log10(max(self.mean_bit_error_rate, 1.0e-300))

    @property
    def is_finite(self) -> bool:
        """True when every objective is finite (i.e. the allocation was valid)."""
        return all(
            math.isfinite(value)
            for value in (
                self.execution_time_kcycles,
                self.mean_bit_error_rate,
                self.bit_energy_fj,
            )
        )

    @classmethod
    def infinite(cls) -> "ObjectiveVector":
        """The fitness assigned to invalid chromosomes."""
        return cls(
            execution_time_kcycles=float("inf"),
            mean_bit_error_rate=float("inf"),
            bit_energy_fj=float("inf"),
        )


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the validity rules applied to one chromosome."""

    is_valid: bool
    empty_communications: Tuple[int, ...] = ()
    conflicts: Tuple[Tuple[int, int, int], ...] = ()

    @property
    def reason(self) -> str:
        """Human-readable explanation of the verdict."""
        if self.is_valid:
            return "valid"
        parts = []
        if self.empty_communications:
            labels = ", ".join(f"c{index}" for index in self.empty_communications)
            parts.append(f"communications without any wavelength: {labels}")
        if self.conflicts:
            described = ", ".join(
                f"c{i} and c{j} share wavelength {channel} on a common segment"
                for i, j, channel in self.conflicts[:5]
            )
            parts.append(described)
        return "; ".join(parts) if parts else "invalid"


@dataclass(frozen=True)
class AllocationSolution:
    """A fully evaluated wavelength allocation."""

    chromosome: Chromosome
    objectives: ObjectiveVector
    validity: ValidityReport
    wavelength_counts: Tuple[int, ...]
    per_communication_ber: Tuple[float, ...] = ()
    per_communication_energy_fj: Tuple[float, ...] = ()
    per_communication_duration_kcycles: Tuple[float, ...] = ()

    @property
    def is_valid(self) -> bool:
        """True when the chromosome satisfied every validity rule."""
        return self.validity.is_valid

    @property
    def allocation_summary(self) -> str:
        """The paper's compact ``[1, 4, 2, 3, 2, 3]`` wavelength-count notation."""
        return "[" + ", ".join(str(count) for count in self.wavelength_counts) + "]"

    def objective_tuple(self, keys: Sequence[str] = ObjectiveVector.KEYS) -> Tuple[float, ...]:
        """Objective values for Pareto sorting."""
        return self.objectives.as_tuple(keys)


@dataclass(frozen=True)
class EvaluatorArrays:
    """The per-scenario matrices an evaluator precomputes, exposed read-only.

    These arrays only depend on the architecture, the task graph and the
    mapping — never on a chromosome — so they are computed once and shared
    between the scalar reference evaluator and the vectorized
    :class:`~repro.allocation.batch.BatchEvaluator`.
    """

    #: Lorentzian leak (dB) of an aggressor on channel ``i`` into the drop ring
    #: of channel ``m`` (Eq. 1): ``phi_db[m, i]``.
    phi_db: np.ndarray
    #: Per-communication base path loss (dB, every crossed ring OFF).
    victim_base_loss_db: np.ndarray
    #: Number of rings each communication's signal crosses non-resonantly.
    victim_crossed_ring_count: np.ndarray
    #: ``[j, k]``: communications ``cj``/``ck`` share a directed segment.
    shares_segment: np.ndarray
    #: ``[j, k]``: aggressor ``cj`` reaches the destination ONI of victim ``ck``.
    aggressor_reaches: np.ndarray
    #: ``[j, k]``: path loss (dB) from ``cj``'s source to ``ck``'s destination.
    aggressor_path_loss_db: np.ndarray
    #: ``[j, k]``: ``cj``'s destination ONI lies on ``ck``'s path.
    destination_on_path: np.ndarray
    #: Extra loss (dB) per ON-state ring crossed, relative to an OFF ring.
    on_ring_delta_db: float
    #: Laser power of a logical '1' (dBm).
    laser_one_dbm: float
    #: Laser power of a logical '0' (mW) — the noise floor of Eq. (8).
    laser_zero_mw: float


class AllocationEvaluator:
    """Fast evaluator of chromosomes for a fixed application, mapping and architecture.

    Parameters
    ----------
    architecture:
        Any :class:`~repro.topology.base.OnocTopology` (ring, multi-ring 3D,
        crossbar ...); the evaluator reads every topology-dependent quantity
        through the base class's methods, so the search backends work on all of them.
    task_graph:
        The application (its edge order defines the chromosome layout).
    mapping:
        One-to-one task-to-core mapping.
    configuration:
        Optional configuration override (defaults to the architecture's).
    crosstalk_scope:
        Which aggressors contribute to the noise of Eq. (7).
    ber_model:
        BER convention; defaults to the paper-matching decibel convention.
    """

    def __init__(
        self,
        architecture: OnocTopology,
        task_graph: TaskGraph,
        mapping: Mapping,
        configuration: Optional[OnocConfiguration] = None,
        crosstalk_scope: CrosstalkScope = CrosstalkScope.TEMPORAL,
        ber_model: Optional[BerModel] = None,
    ) -> None:
        self._architecture = architecture
        self._task_graph = task_graph
        self._mapping = mapping
        self._configuration = configuration or architecture.configuration
        self._crosstalk_scope = crosstalk_scope
        self._ber_model = ber_model or BerModel()

        self._communications = build_communications(task_graph, mapping, architecture)
        self._scheduler = ListScheduler(task_graph, mapping, self._configuration.timing)
        self._energy_model = BitEnergyModel(
            self._configuration.energy, self._configuration.timing
        )
        self._batch_evaluator = None
        self._precompute()

    # ----------------------------------------------------------------- public
    @property
    def architecture(self) -> OnocTopology:
        """The architecture under evaluation."""
        return self._architecture

    @property
    def task_graph(self) -> TaskGraph:
        """The application under evaluation."""
        return self._task_graph

    @property
    def mapping(self) -> Mapping:
        """The task-to-core mapping under evaluation."""
        return self._mapping

    @property
    def configuration(self) -> OnocConfiguration:
        """The configuration in use."""
        return self._configuration

    @property
    def communications(self) -> List[MappedCommunication]:
        """The mapped communications, in chromosome order."""
        return list(self._communications)

    @property
    def communication_count(self) -> int:
        """Number of communications ``Nl``."""
        return len(self._communications)

    @property
    def wavelength_count(self) -> int:
        """Number of wavelengths ``NW``."""
        return self._architecture.wavelength_count

    @property
    def crosstalk_scope(self) -> CrosstalkScope:
        """The configured crosstalk scope."""
        return self._crosstalk_scope

    @property
    def scheduler(self) -> ListScheduler:
        """The execution-time model used for Eq. (11)."""
        return self._scheduler

    @property
    def ber_model(self) -> BerModel:
        """The BER convention in use."""
        return self._ber_model

    @property
    def energy_model(self) -> BitEnergyModel:
        """The bit-energy model in use."""
        return self._energy_model

    @property
    def precomputed(self) -> EvaluatorArrays:
        """The chromosome-independent matrices, for batch engines to reuse."""
        return EvaluatorArrays(
            phi_db=self._phi_db,
            victim_base_loss_db=self._victim_base_loss_db,
            victim_crossed_ring_count=self._victim_crossed_ring_count,
            shares_segment=self._shares_segment,
            aggressor_reaches=self._aggressor_reaches,
            aggressor_path_loss_db=self._aggressor_path_loss_db,
            destination_on_path=self._destination_on_path,
            on_ring_delta_db=self._on_ring_delta_db,
            laser_one_dbm=self._laser_one_dbm,
            laser_zero_mw=self._laser_zero_mw,
        )

    def batch(self) -> "BatchEvaluator":  # noqa: F821 - forward reference
        """The population-level engine sharing this evaluator's precomputation.

        Built lazily and cached, so heuristics, NSGA-II and the exhaustive
        search all reuse one :class:`~repro.allocation.batch.BatchEvaluator`.
        """
        if self._batch_evaluator is None:
            from .batch import BatchEvaluator  # deferred to avoid a module cycle

            self._batch_evaluator = BatchEvaluator(self)
        return self._batch_evaluator

    def random_chromosome(self, rng: np.random.Generator) -> Chromosome:
        """A random chromosome with the right shape for this evaluator."""
        return Chromosome.random(self.communication_count, self.wavelength_count, rng)

    def shares_segment(self, first_index: int, second_index: int) -> bool:
        """True when two communications traverse a common directed waveguide segment."""
        return bool(self._shares_segment[first_index, second_index])

    def conflict_pairs(self, wavelength_counts: Sequence[int]) -> List[Tuple[int, int]]:
        """Pairs of communications that must use disjoint wavelength sets.

        A pair conflicts when the two paths share a directed segment and the
        transfers (with the given per-communication wavelength counts) overlap
        in time.  Heuristic allocators use this to stay within the validity
        rules.
        """
        schedule = self._scheduler.schedule(wavelength_counts)
        overlap = schedule.overlap_matrix(self.communication_count)
        pairs: List[Tuple[int, int]] = []
        for j in range(self.communication_count):
            for k in range(j + 1, self.communication_count):
                if self._shares_segment[j, k] and overlap[j][k]:
                    pairs.append((j, k))
        return pairs

    # ------------------------------------------------------------- precompute
    def _precompute(self) -> None:
        architecture = self._architecture
        photonic = self._configuration.photonic
        grid = architecture.grid_wavelengths
        nw = grid.count
        nl = len(self._communications)

        # Lorentzian crosstalk matrix: phi_db[m, i] is the leak of an aggressor on
        # channel i into the drop ring of channel m (Eq. 1), in dB.
        phi_db = np.zeros((nw, nw))
        for victim in range(nw):
            ring = MicroRingResonator.from_photonic_parameters(
                grid.wavelength_nm(victim), photonic
            )
            phi_db[victim, :] = ring.filter_transmission_array_db(
                np.asarray(grid.wavelengths_nm)
            )
        self._phi_db = phi_db

        # Per-communication base path loss (every crossed ring assumed OFF).
        # Ring-crossing counts and the topology-specific extra terms (waveguide
        # crossings, vertical couplers) come from the topology, so the same
        # arithmetic serves the ring, the 3D multi-ring and the crossbar.
        self._victim_base_loss_db = np.zeros(nl)
        self._victim_crossed_ring_count = np.zeros(nl, dtype=int)
        for index, communication in enumerate(self._communications):
            source = communication.source_core
            destination = communication.destination_core
            waveguide_db = communication.path.total_waveguide_loss_db(photonic)
            crossed_rings = architecture.crossed_off_ring_count(source, destination)
            self._victim_crossed_ring_count[index] = crossed_rings
            self._victim_base_loss_db[index] = (
                waveguide_db
                + crossed_rings * photonic.mr_off_pass_loss_db
                + photonic.mr_on_loss_db
                + architecture.extra_path_loss_db(source, destination, photonic)
            )

        # Pairwise spatial relationships, through the topology's segment-usage
        # and crosstalk-reach interfaces.
        self._shares_segment = np.zeros((nl, nl), dtype=bool)
        usage = architecture.segment_usage(
            [
                (communication.source_core, communication.destination_core)
                for communication in self._communications
            ]
        )
        for indices in usage.values():
            for j in indices:
                for k in indices:
                    if j != k:
                        self._shares_segment[j, k] = True

        self._aggressor_reaches = np.zeros((nl, nl), dtype=bool)
        self._aggressor_path_loss_db = np.zeros((nl, nl))
        self._destination_on_path = np.zeros((nl, nl), dtype=bool)
        for j, aggressor in enumerate(self._communications):
            for k, victim in enumerate(self._communications):
                if j == k:
                    continue
                reach_loss_db = architecture.crosstalk_path_loss_db(
                    aggressor.source_core,
                    aggressor.destination_core,
                    victim.destination_core,
                    photonic,
                )
                self._aggressor_reaches[j, k] = reach_loss_db is not None
                if reach_loss_db is not None:
                    self._aggressor_path_loss_db[j, k] = reach_loss_db
                # Is the aggressor's destination ONI on the victim's path?  Then
                # the victim's signal crosses the aggressor's ON drop rings.
                self._destination_on_path[j, k] = victim.crosses_oni(
                    aggressor.destination_core
                )

        self._on_ring_delta_db = photonic.mr_on_loss_db - photonic.mr_off_pass_loss_db
        self._laser_one_dbm = photonic.laser_power_one_dbm
        self._laser_zero_mw = dbm_to_mw(photonic.laser_power_zero_dbm)

        # The matrices are shared with the batch engine through `precomputed`;
        # freeze them so no consumer can corrupt another's view.
        for array in (
            self._phi_db,
            self._victim_base_loss_db,
            self._victim_crossed_ring_count,
            self._shares_segment,
            self._aggressor_reaches,
            self._aggressor_path_loss_db,
            self._destination_on_path,
        ):
            array.setflags(write=False)

    # --------------------------------------------------------------- validity
    def check_validity(
        self, chromosome: Chromosome, schedule: Optional[Schedule] = None
    ) -> ValidityReport:
        """Apply the validity rules of Section III-D to a chromosome."""
        self._check_shape(chromosome)
        counts = chromosome.wavelength_counts()
        empty = tuple(
            index for index, count in enumerate(counts) if count == 0
        )
        if empty:
            return ValidityReport(is_valid=False, empty_communications=empty)
        if any(count > self.wavelength_count for count in counts):
            # Unreachable with the binary encoding; defensive check.
            return ValidityReport(is_valid=False)

        if schedule is None:
            schedule = self._scheduler.schedule(counts)
        overlap = schedule.overlap_matrix(self.communication_count)

        allocation = chromosome.allocation()
        conflicts: List[Tuple[int, int, int]] = []
        for j in range(self.communication_count):
            channels_j = set(allocation[j])
            for k in range(j + 1, self.communication_count):
                if not self._shares_segment[j, k]:
                    continue
                if not overlap[j][k]:
                    continue
                common = channels_j & set(allocation[k])
                for channel in sorted(common):
                    conflicts.append((j, k, channel))
        if conflicts:
            return ValidityReport(is_valid=False, conflicts=tuple(conflicts))
        return ValidityReport(is_valid=True)

    # --------------------------------------------------------------- evaluate
    def evaluate(self, chromosome: Chromosome) -> AllocationSolution:
        """Evaluate one chromosome into a fully populated :class:`AllocationSolution`."""
        self._check_shape(chromosome)
        counts = chromosome.wavelength_counts()
        if any(count == 0 for count in counts):
            validity = self.check_validity(chromosome)
            return AllocationSolution(
                chromosome=chromosome,
                objectives=ObjectiveVector.infinite(),
                validity=validity,
                wavelength_counts=counts,
            )

        schedule = self._scheduler.schedule(counts)
        validity = self.check_validity(chromosome, schedule)
        if not validity.is_valid:
            return AllocationSolution(
                chromosome=chromosome,
                objectives=ObjectiveVector.infinite(),
                validity=validity,
                wavelength_counts=counts,
            )

        overlap = schedule.overlap_matrix(self.communication_count)
        allocation = chromosome.allocation()

        per_comm_ber: List[float] = []
        per_comm_energy: List[float] = []
        per_comm_duration: List[float] = []
        energy_breakdowns = []
        all_channel_bers: List[float] = []

        for k, communication in enumerate(self._communications):
            channels = allocation[k]
            # BER is evaluated under the *actual* network conditions (which ON
            # rings and aggressors are active while this transfer runs)...
            on_ring_actual = self._crossed_on_ring_count(k, allocation, overlap)
            # ...whereas the laser power budget is provisioned for the *worst
            # case* (every spatially crossing transfer assumed concurrent), so
            # that reserving more wavelengths anywhere in the system never
            # lowers the energy — matching the monotone trend of Fig. 6a.
            on_ring_worst = self._crossed_on_ring_count(
                k, allocation, overlap, worst_case=True
            )
            channel_losses: List[float] = []
            channel_noise_ratios: List[float] = []
            channel_bers: List[float] = []
            for victim_channel in channels:
                loss_db = (
                    self._victim_base_loss_db[k] + on_ring_actual * self._on_ring_delta_db
                )
                signal_dbm = self._laser_one_dbm + loss_db
                signal_mw = dbm_to_mw(signal_dbm)
                noise_mw = self._crosstalk_noise_mw(
                    k, victim_channel, allocation, overlap, loss_db
                )
                snr_linear = signal_mw / (noise_mw + self._laser_zero_mw)
                channel_bers.append(self._ber_model.from_snr_linear(snr_linear))

                energy_loss_db = (
                    self._victim_base_loss_db[k] + on_ring_worst * self._on_ring_delta_db
                )
                energy_signal_mw = dbm_to_mw(self._laser_one_dbm + energy_loss_db)
                intra_noise_mw = self._crosstalk_noise_mw(
                    k,
                    victim_channel,
                    allocation,
                    overlap,
                    energy_loss_db,
                    intra_only=True,
                )
                channel_losses.append(energy_loss_db)
                channel_noise_ratios.append(min(intra_noise_mw / energy_signal_mw, 1.0))
            breakdown = self._energy_model.communication_energy(
                communication.volume_bits, channel_losses, channel_noise_ratios
            )
            energy_breakdowns.append(breakdown)
            per_comm_energy.append(breakdown.energy_per_bit_fj)
            per_comm_ber.append(float(np.mean(channel_bers)))
            per_comm_duration.append(
                schedule.interval(k).duration_cycles / 1000.0
            )
            all_channel_bers.extend(channel_bers)

        objectives = ObjectiveVector(
            execution_time_kcycles=schedule.makespan_kilocycles,
            mean_bit_error_rate=float(np.mean(all_channel_bers)),
            bit_energy_fj=self._energy_model.allocation_energy_per_bit_fj(energy_breakdowns),
        )
        return AllocationSolution(
            chromosome=chromosome,
            objectives=objectives,
            validity=validity,
            wavelength_counts=counts,
            per_communication_ber=tuple(per_comm_ber),
            per_communication_energy_fj=tuple(per_comm_energy),
            per_communication_duration_kcycles=tuple(per_comm_duration),
        )

    def evaluate_allocation(
        self, allocation: Sequence[Sequence[int]]
    ) -> AllocationSolution:
        """Evaluate an explicit per-communication channel assignment."""
        chromosome = Chromosome.from_allocation(
            [tuple(channels) for channels in allocation], self.wavelength_count
        )
        return self.evaluate(chromosome)

    # ---------------------------------------------------------------- helpers
    def _crossed_on_ring_count(
        self,
        victim_index: int,
        allocation: Sequence[Tuple[int, ...]],
        overlap: Sequence[Sequence[bool]],
        worst_case: bool = False,
    ) -> int:
        """Number of ON-state rings the victim's signal crosses non-resonantly.

        With ``worst_case=True`` the temporal-overlap filter is ignored: every
        spatially crossing transfer is assumed concurrent.  The energy model
        uses this pessimistic count to provision the laser power.
        """
        if self._crosstalk_scope is CrosstalkScope.INTRA:
            return 0
        count = 0
        for j in range(self.communication_count):
            if j == victim_index:
                continue
            if not self._destination_on_path[j, victim_index]:
                continue
            if (
                not worst_case
                and self._crosstalk_scope is CrosstalkScope.TEMPORAL
                and not overlap[j][victim_index]
            ):
                continue
            count += len(allocation[j])
        return count

    def _crosstalk_noise_mw(
        self,
        victim_index: int,
        victim_channel: int,
        allocation: Sequence[Tuple[int, ...]],
        overlap: Sequence[Sequence[bool]],
        victim_loss_db: float,
        intra_only: bool = False,
    ) -> float:
        """Total crosstalk power (mW) at the victim photodetector (Eq. 7)."""
        photonic = self._configuration.photonic
        noise_mw = 0.0
        # Intra-communication crosstalk: the other wavelengths of the same
        # transfer follow the victim's own path but are not dropped by the
        # victim ring, so their power at the drop input is the victim loss
        # without the final drop term.
        intra_path_db = victim_loss_db - photonic.mr_on_loss_db
        for channel in allocation[victim_index]:
            if channel == victim_channel:
                continue
            aggressor_dbm = (
                self._laser_one_dbm + intra_path_db + self._phi_db[victim_channel, channel]
            )
            noise_mw += dbm_to_mw(aggressor_dbm)
        if intra_only or self._crosstalk_scope is CrosstalkScope.INTRA:
            return noise_mw
        # Inter-communication crosstalk: other transfers whose path reaches the
        # victim's destination ONI leak through the same Lorentzian tail.
        for j in range(self.communication_count):
            if j == victim_index:
                continue
            if not self._aggressor_reaches[j, victim_index]:
                continue
            if (
                self._crosstalk_scope is CrosstalkScope.TEMPORAL
                and not overlap[j][victim_index]
            ):
                continue
            path_db = self._aggressor_path_loss_db[j, victim_index]
            for channel in allocation[j]:
                if channel == victim_channel:
                    continue
                aggressor_dbm = (
                    self._laser_one_dbm + path_db + self._phi_db[victim_channel, channel]
                )
                noise_mw += dbm_to_mw(aggressor_dbm)
        return noise_mw

    def _check_shape(self, chromosome: Chromosome) -> None:
        if chromosome.communication_count != self.communication_count:
            raise AllocationError(
                f"chromosome describes {chromosome.communication_count} communications, "
                f"the application has {self.communication_count}"
            )
        if chromosome.wavelength_count != self.wavelength_count:
            raise AllocationError(
                f"chromosome uses {chromosome.wavelength_count} wavelengths, "
                f"the architecture carries {self.wavelength_count}"
            )

"""Population-level batch evaluation of wavelength allocations.

:class:`BatchEvaluator` is the vectorized counterpart of the scalar
:class:`~repro.allocation.objectives.AllocationEvaluator`.  It represents a
whole population as one ``(population, communications, wavelengths)`` uint8
tensor and computes validity masks, execution times, mean BERs and bit
energies for every row at once, with no per-chromosome Python loops:

* scheduling runs through :meth:`~repro.application.scheduling.ListScheduler.schedule_batch`,
  whose float arithmetic is bit-identical to the scalar schedule — so the
  validity verdicts (which compare schedule intervals) match the reference
  exactly;
* the crosstalk sums of Eq. (7) become matrix products against the linear
  Lorentzian matrix ``10^(phi_db/10)``, the aggressor-reach loss matrix and
  the temporal-overlap tensor;
* BER (Eq. 9) and the adaptive laser budget evaluate element-wise through the
  array methods of :mod:`repro.models.ber` and :mod:`repro.models.energy`.

The scalar evaluator remains the readable reference implementation; the
test-suite asserts objective-for-objective equivalence between the two on
randomized populations.  Floating-point results agree to ~1e-12 relative
(summation order differs), while validity and execution time are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import AllocationError
from ..telemetry import get_registry
from .chromosome import Chromosome
from .objectives import (
    AllocationEvaluator,
    AllocationSolution,
    CrosstalkScope,
    ObjectiveVector,
    ValidityReport,
)

__all__ = ["BatchEvaluation", "BatchEvaluator"]

#: Column order of :meth:`BatchEvaluation.objective_matrix` (the canonical
#: time/ber/energy order of :attr:`ObjectiveVector.KEYS`).
_OBJECTIVE_COLUMNS = {key: index for index, key in enumerate(ObjectiveVector.KEYS)}


@dataclass
class BatchEvaluation:
    """The fully evaluated state of one population.

    All arrays are indexed by population row; invalid rows carry infinite
    objectives (exactly as the paper "directly set[s] the fitness to
    infinity") and empty per-communication diagnostics.
    """

    #: Population genes, shape ``(population, communications, wavelengths)``.
    genes: np.ndarray
    #: Reserved wavelengths per communication, shape ``(population, communications)``.
    wavelength_counts: np.ndarray
    #: Row validity verdicts (Section III-D rules).
    valid: np.ndarray
    #: Execution time (kilo-clock-cycles), ``inf`` on invalid rows.
    execution_time_kcycles: np.ndarray
    #: Mean bit error rate, ``inf`` on invalid rows.
    mean_bit_error_rate: np.ndarray
    #: Bit energy (fJ/bit), ``inf`` on invalid rows.
    bit_energy_fj: np.ndarray
    #: Per-communication mean BER (undefined garbage on invalid rows).
    per_communication_ber: np.ndarray
    #: Per-communication bit energy (fJ/bit).
    per_communication_energy_fj: np.ndarray
    #: Per-communication transfer duration (kilo-clock-cycles).
    per_communication_duration_kcycles: np.ndarray
    #: The evaluator that produced this batch (used to materialise solutions).
    evaluator: "BatchEvaluator"

    def __len__(self) -> int:
        return self.genes.shape[0]

    @property
    def valid_count(self) -> int:
        """Number of valid rows."""
        return int(np.count_nonzero(self.valid))

    def gene_bytes(self, index: int) -> bytes:
        """Byte fingerprint of one row (the memo key the GA uses)."""
        return self.genes[index].tobytes()

    def objective_matrix(self, keys: Sequence[str] = ObjectiveVector.KEYS) -> np.ndarray:
        """Objective values as a ``(population, len(keys))`` float matrix."""
        columns = np.stack(
            [
                self.execution_time_kcycles,
                self.mean_bit_error_rate,
                self.bit_energy_fj,
            ],
            axis=1,
        )
        try:
            order = [_OBJECTIVE_COLUMNS[key] for key in keys]
        except KeyError as error:
            raise AllocationError(f"unknown objective key {error.args[0]!r}") from None
        return columns[:, order]

    def objectives(self, index: int) -> ObjectiveVector:
        """The objective vector of one row."""
        return ObjectiveVector(
            execution_time_kcycles=float(self.execution_time_kcycles[index]),
            mean_bit_error_rate=float(self.mean_bit_error_rate[index]),
            bit_energy_fj=float(self.bit_energy_fj[index]),
        )

    def chromosome(self, index: int) -> Chromosome:
        """Materialise one row back into a first-class chromosome."""
        shape = self.genes.shape
        return Chromosome.from_numpy(self.genes[index], shape[1], shape[2])

    def solution(self, index: int) -> AllocationSolution:
        """Materialise one row into a scalar-compatible :class:`AllocationSolution`.

        Valid rows carry the batch-computed objectives and per-communication
        diagnostics; invalid rows fall back to the scalar evaluator for the
        detailed validity report (they are materialised rarely — the hot path
        never needs them).
        """
        chromosome = self.chromosome(index)
        counts = tuple(int(count) for count in self.wavelength_counts[index])
        if not bool(self.valid[index]):
            validity = self.evaluator.scalar.check_validity(chromosome)
            return AllocationSolution(
                chromosome=chromosome,
                objectives=ObjectiveVector.infinite(),
                validity=validity,
                wavelength_counts=counts,
            )
        return AllocationSolution(
            chromosome=chromosome,
            objectives=self.objectives(index),
            validity=ValidityReport(is_valid=True),
            wavelength_counts=counts,
            per_communication_ber=tuple(
                float(value) for value in self.per_communication_ber[index]
            ),
            per_communication_energy_fj=tuple(
                float(value) for value in self.per_communication_energy_fj[index]
            ),
            per_communication_duration_kcycles=tuple(
                float(value) for value in self.per_communication_duration_kcycles[index]
            ),
        )

    def solutions(self) -> List[AllocationSolution]:
        """Every row materialised (convenience for small batches)."""
        return [self.solution(index) for index in range(len(self))]

    def take(self, rows: Sequence[int]) -> "BatchEvaluation":
        """The sub-batch of the given rows, in that order (arrays are copied)."""
        index = np.asarray(rows, dtype=np.intp)
        return replace(self, **{name: getattr(self, name)[index] for name in _ROW_ARRAYS})


#: The per-row arrays of a :class:`BatchEvaluation` (every field but the evaluator).
_ROW_ARRAYS = tuple(field.name for field in fields(BatchEvaluation) if field.name != "evaluator")


class BatchEvaluator:
    """Vectorized population evaluation sharing a scalar evaluator's precomputation.

    Parameters
    ----------
    evaluator:
        The scalar reference evaluator whose architecture/application/mapping
        (and precomputed matrices) this engine reuses.  Most callers obtain a
        cached instance through :meth:`AllocationEvaluator.batch`.
    """

    def __init__(self, evaluator: AllocationEvaluator) -> None:
        self._evaluator = evaluator
        arrays = evaluator.precomputed
        configuration = evaluator.configuration
        self._scope = evaluator.crosstalk_scope
        self._nl = evaluator.communication_count
        self._nw = evaluator.wavelength_count

        # Linear-domain constants of the crosstalk chain (Eqs. 1-8).
        self._phi_lin = 10.0 ** (arrays.phi_db / 10.0)
        self._phi_diag = np.diag(self._phi_lin).copy()
        self._base_loss_db = arrays.victim_base_loss_db
        self._destination_on_path = arrays.destination_on_path.astype(float)
        self._reach_lin = np.where(
            arrays.aggressor_reaches, 10.0 ** (arrays.aggressor_path_loss_db / 10.0), 0.0
        )
        self._shares_segment = arrays.shares_segment
        self._on_ring_delta_db = arrays.on_ring_delta_db
        self._laser_one_dbm = arrays.laser_one_dbm
        self._laser_zero_mw = arrays.laser_zero_mw

        # Energy-model constants.
        energy = configuration.energy
        timing = configuration.timing
        self._mr_on_loss_db = configuration.photonic.mr_on_loss_db
        self._tuning_power_mw = energy.mr_tuning_power_mw
        self._setup_energy_j = energy.channel_setup_energy_fj * 1.0e-15
        self._data_rate_bps = timing.data_rate_bits_per_second
        self._volumes_bits = np.array(
            [communication.volume_bits for communication in evaluator.communications],
            dtype=float,
        )
        self._total_volume_bits = float(self._volumes_bits.sum())

    # ----------------------------------------------------------------- access
    @property
    def scalar(self) -> AllocationEvaluator:
        """The scalar reference evaluator this engine is derived from."""
        return self._evaluator

    @property
    def communication_count(self) -> int:
        """Number of communications ``Nl``."""
        return self._nl

    @property
    def wavelength_count(self) -> int:
        """Number of wavelengths ``NW``."""
        return self._nw

    @property
    def genome_length(self) -> int:
        """Genes per chromosome (``Nl * NW``)."""
        return self._nl * self._nw

    # -------------------------------------------------------------- factories
    def random_population(
        self,
        population_size: int,
        rng: np.random.Generator,
        reserve_probability: float = 0.5,
    ) -> np.ndarray:
        """A uniformly random ``(population, Nl, NW)`` gene tensor."""
        draws = rng.random((population_size, self._nl, self._nw))
        return (draws < reserve_probability).astype(np.uint8)

    def population_from_chromosomes(
        self, chromosomes: Iterable[Chromosome]
    ) -> np.ndarray:
        """Stack chromosomes into a gene tensor (zero-copy per row)."""
        rows = [chromosome.as_array() for chromosome in chromosomes]
        if not rows:
            return np.zeros((0, self._nl, self._nw), dtype=np.uint8)
        return np.stack(rows)

    def population_from_allocations(
        self, allocations: Sequence[Sequence[Sequence[int]]]
    ) -> np.ndarray:
        """Gene tensor from explicit per-communication channel index sets."""
        genes = np.zeros((len(allocations), self._nl, self._nw), dtype=np.uint8)
        for row, allocation in enumerate(allocations):
            if len(allocation) != self._nl:
                raise AllocationError(
                    f"allocation {row} describes {len(allocation)} communications, "
                    f"the application has {self._nl}"
                )
            for communication, channels in enumerate(allocation):
                for channel in channels:
                    if not 0 <= channel < self._nw:
                        raise AllocationError(
                            f"channel {channel} outside the {self._nw}-wavelength grid"
                        )
                    genes[row, communication, channel] = 1
        return genes

    # -------------------------------------------------------------- evaluation
    def evaluate_chromosomes(self, chromosomes: Iterable[Chromosome]) -> BatchEvaluation:
        """Evaluate a sequence of chromosomes in one vectorized pass."""
        return self.evaluate_population(self.population_from_chromosomes(chromosomes))

    def evaluate_allocations(
        self, allocations: Sequence[Sequence[Sequence[int]]]
    ) -> BatchEvaluation:
        """Evaluate explicit per-communication channel assignments in one pass."""
        return self.evaluate_population(self.population_from_allocations(allocations))

    def evaluate_population(self, genes: np.ndarray) -> BatchEvaluation:
        """Evaluate a whole population tensor.

        Parameters
        ----------
        genes:
            Binary array of shape ``(population, Nl, NW)`` or
            ``(population, Nl * NW)``; any integer or boolean dtype.
        """
        registry = get_registry()
        with registry.timer("repro_batch_evaluate_seconds"):
            evaluation = self._evaluate_population(genes)
        registry.counter("repro_batch_calls_total").inc()
        registry.counter("repro_batch_rows_total").inc(evaluation.genes.shape[0])
        return evaluation

    def invalid_batch(self, genes: np.ndarray) -> BatchEvaluation:
        """A batch of rows already known to be invalid, built without evaluating them.

        Materialising an invalid row needs only its genes —
        :meth:`BatchEvaluation.solution` rebuilds the validity report through
        the scalar evaluator — so the objectives are ``inf`` and the
        per-communication diagnostics zero.  Callers that know a row's verdict
        (the NSGA-II memo) materialise it through this instead of evaluating
        it again.
        """
        tensor = self._coerce(genes)
        population = tensor.shape[0]
        infinite = np.full(population, np.inf)
        zeros = np.zeros((population, self._nl))
        return BatchEvaluation(
            genes=tensor,
            wavelength_counts=tensor.sum(axis=2, dtype=np.int64),
            valid=np.zeros(population, dtype=bool),
            execution_time_kcycles=infinite,
            mean_bit_error_rate=infinite.copy(),
            bit_energy_fj=infinite.copy(),
            per_communication_ber=zeros,
            per_communication_energy_fj=zeros.copy(),
            per_communication_duration_kcycles=zeros.copy(),
            evaluator=self,
        )

    def _evaluate_population(self, genes: np.ndarray) -> BatchEvaluation:
        tensor = self._coerce(genes)
        population = tensor.shape[0]
        if population == 0:
            return self.invalid_batch(tensor)
        genes_f = tensor.astype(float)
        counts = tensor.sum(axis=2, dtype=np.int64)

        # --- validity rule 1: every communication needs a wavelength.  Rows
        # violating it are still scheduled (with counts clamped to one) so the
        # whole batch stays rectangular; their objectives are masked at the end.
        has_empty = (counts == 0).any(axis=1)
        counts_clamped = np.maximum(counts, 1)

        schedule = self._evaluator.scheduler.schedule_batch(counts_clamped)
        overlap = schedule.overlap_tensor()

        # --- validity rule 2: no shared wavelength on a shared segment while
        # the transfers overlap in time.
        common_channel = np.matmul(genes_f, genes_f.transpose(0, 2, 1)) > 0.5
        conflict = (self._shares_segment[None, :, :] & overlap & common_channel).any(
            axis=(1, 2)
        )
        valid = ~(has_empty | conflict)

        counts_f = counts.astype(float)
        overlap_f = overlap.astype(float)

        # --- ON-ring counts crossed by each victim (actual vs worst case).
        if self._scope is CrosstalkScope.INTRA:
            on_ring_actual = np.zeros((population, self._nl))
            on_ring_worst = np.zeros((population, self._nl))
        else:
            on_ring_worst = np.einsum(
                "pj,jk->pk", counts_f, self._destination_on_path
            )
            if self._scope is CrosstalkScope.TEMPORAL:
                on_ring_actual = np.einsum(
                    "jk,pjk,pj->pk", self._destination_on_path, overlap_f, counts_f
                )
            else:
                on_ring_actual = on_ring_worst

        # --- signal and crosstalk noise at the victim photodetector (Eq. 7).
        loss_db = self._base_loss_db[None, :] + on_ring_actual * self._on_ring_delta_db
        signal_mw = 10.0 ** ((self._laser_one_dbm + loss_db) / 10.0)

        # A[p, k, m] = sum_c genes[p, k, c] * phi_lin[m, c]; subtracting the
        # diagonal term excludes the victim channel itself from its own noise.
        phi_sum = np.matmul(genes_f, self._phi_lin.T)
        phi_sum_excl = phi_sum - genes_f * self._phi_diag[None, None, :]

        intra_factor = 10.0 ** (
            (self._laser_one_dbm + loss_db - self._mr_on_loss_db) / 10.0
        )
        noise_mw = intra_factor[:, :, None] * phi_sum_excl

        if self._scope is not CrosstalkScope.INTRA:
            if self._scope is CrosstalkScope.TEMPORAL:
                weights = self._reach_lin[None, :, :] * overlap_f
            else:
                weights = np.broadcast_to(
                    self._reach_lin[None, :, :], overlap_f.shape
                )
            inter_sum = np.einsum("pjk,pjm->pkm", weights, phi_sum_excl)
            noise_mw = noise_mw + 10.0 ** (self._laser_one_dbm / 10.0) * inter_sum

        snr_linear = signal_mw[:, :, None] / (noise_mw + self._laser_zero_mw)
        ber = self._evaluator.ber_model.from_snr_linear_array(snr_linear)
        ber_masked = ber * genes_f
        per_comm_ber = ber_masked.sum(axis=2) / counts_clamped
        total_channels = np.maximum(counts.sum(axis=1), 1)
        mean_ber = ber_masked.sum(axis=(1, 2)) / total_channels

        # --- adaptive laser budget (worst-case concurrency, intra-only noise).
        energy_loss_db = (
            self._base_loss_db[None, :] + on_ring_worst * self._on_ring_delta_db
        )
        energy_signal_mw = 10.0 ** ((self._laser_one_dbm + energy_loss_db) / 10.0)
        energy_factor = 10.0 ** (
            (self._laser_one_dbm + energy_loss_db - self._mr_on_loss_db) / 10.0
        )
        intra_noise_mw = energy_factor[:, :, None] * phi_sum_excl
        noise_ratio = np.minimum(
            intra_noise_mw / energy_signal_mw[:, :, None], 1.0
        )
        laser_mw = self._evaluator.energy_model.laser_electrical_power_mw_array(
            np.broadcast_to(energy_loss_db[:, :, None], noise_ratio.shape), noise_ratio
        )
        laser_power_mw = (laser_mw * genes_f).sum(axis=2)

        duration_s = self._volumes_bits[None, :] / (
            counts_clamped * self._data_rate_bps
        )
        laser_energy_j = laser_power_mw * 1.0e-3 * duration_s
        tuning_energy_j = (
            counts_f * self._tuning_power_mw * 1.0e-3 * duration_s
        )
        setup_energy_j = counts_f * self._setup_energy_j
        total_energy_j = laser_energy_j + tuning_energy_j + setup_energy_j

        with np.errstate(divide="ignore", invalid="ignore"):
            per_comm_energy_fj = np.where(
                self._volumes_bits[None, :] > 0.0,
                total_energy_j / self._volumes_bits[None, :] * 1.0e15,
                0.0,
            )
        if self._total_volume_bits > 0.0:
            allocation_energy_fj = (
                total_energy_j.sum(axis=1) / self._total_volume_bits * 1.0e15
            )
        else:
            allocation_energy_fj = np.zeros(population)

        execution_time = schedule.makespan_kilocycles
        # Re-derive the duration as (end - start) so it is bit-identical to the
        # scalar CommunicationInterval.duration_cycles round trip.
        per_comm_duration = (schedule.end_cycles - schedule.start_cycles) / 1000.0

        return BatchEvaluation(
            genes=tensor,
            wavelength_counts=counts,
            valid=valid,
            execution_time_kcycles=np.where(valid, execution_time, np.inf),
            mean_bit_error_rate=np.where(valid, mean_ber, np.inf),
            bit_energy_fj=np.where(valid, allocation_energy_fj, np.inf),
            per_communication_ber=per_comm_ber,
            per_communication_energy_fj=per_comm_energy_fj,
            per_communication_duration_kcycles=per_comm_duration,
            evaluator=self,
        )

    # ---------------------------------------------------------------- helpers
    def _coerce(self, genes: np.ndarray) -> np.ndarray:
        array = np.asarray(genes)
        if array.ndim == 2 and array.shape[1] == self.genome_length:
            array = array.reshape(array.shape[0], self._nl, self._nw)
        if array.ndim != 3 or array.shape[1:] != (self._nl, self._nw):
            raise AllocationError(
                f"expected a population of shape (n, {self._nl}, {self._nw}) or "
                f"(n, {self.genome_length}), got {array.shape}"
            )
        if array.dtype != np.uint8:
            array = array.astype(np.uint8)
        return np.ascontiguousarray(array)

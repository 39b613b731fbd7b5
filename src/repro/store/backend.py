"""Result-store backend protocol and the in-process backend.

A store backend is a fingerprint-keyed mapping of
:class:`~repro.scenarios.study.ScenarioResult` documents.  The fingerprint is
the content address: :meth:`~repro.scenarios.scenario.Scenario.fingerprint`
hashes the canonical scenario document, so two entries with the same key are
guaranteed to describe the same run and a cached result can be served without
re-executing the optimizer.

:class:`MemoryStore` is the in-process backend — it is what a
:class:`~repro.scenarios.study.Study` uses when no explicit store is given,
and it preserves the historical behaviour of the study's plain dict cache
(results are shared by object identity across ``run`` calls).  Its job queue
is the file store's SQL (:class:`~repro.store.jobs.SqlJobQueue`) run on a
private ``:memory:`` database.  The SQLite implementation in
:mod:`repro.store.sqlite` adds durability and cross-process sharing behind
the same protocol.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..errors import StoreError
from ..telemetry import get_registry
from .jobs import JOBS_TABLE, JobQueue, SqlJobQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from ..scenarios.study import ScenarioResult

__all__ = ["MemoryStore", "StoreBackend", "decode_result"]


def decode_result(fingerprint: str, document: str) -> "ScenarioResult":
    """The stored JSON text of ``fingerprint`` as a :class:`ScenarioResult`.

    The one integrity check every reader of stored text shares: the text
    must be valid JSON, decode to a ``ScenarioResult``, and carry the
    fingerprint it is stored under.  Anything else is a corrupt row and
    raises :class:`~repro.errors.StoreError`.
    """
    from ..scenarios.study import ScenarioResult

    try:
        payload = json.loads(document)
    except json.JSONDecodeError as error:
        raise StoreError(
            f"stored document for {fingerprint!r} is not valid JSON: {error}"
        ) from None
    try:
        result = ScenarioResult.from_dict(payload)
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(
            f"stored document for {fingerprint!r} does not decode to a "
            f"ScenarioResult: {error}"
        ) from None
    if result.fingerprint != fingerprint:
        raise StoreError(
            f"stored document under {fingerprint!r} carries fingerprint "
            f"{result.fingerprint!r}; the store row is corrupt"
        )
    return result


@runtime_checkable
class StoreBackend(JobQueue, Protocol):
    """What a :class:`~repro.scenarios.study.Study` needs from a result store.

    Implementations are fingerprint-keyed document stores with hit/miss/evict
    accounting.  ``get`` counts a hit or a miss; ``peek`` is the side-effect
    free read used for listings.  Every backend is also a
    :class:`~repro.store.jobs.JobQueue`: scenarios are submitted as jobs,
    workers lease and execute them, and the results land back in the same
    store under their fingerprints.
    """

    #: Short registry-style name of the backend ("memory", "sqlite" ...).
    backend_name: str

    @property
    def location(self) -> Optional[str]:
        """Where the store lives (a filesystem path), or ``None`` if in-process."""

    def get(self, fingerprint: str) -> Optional["ScenarioResult"]:
        """The stored result for ``fingerprint`` (counts a hit or a miss)."""

    def peek(self, fingerprint: str) -> Optional["ScenarioResult"]:
        """Like :meth:`get` but without touching the hit/miss/recency stats."""

    def document(self, fingerprint: str) -> Optional[str]:
        """The stored JSON text of ``fingerprint``, or ``None``.

        No stats, recency or version policy, and no decoding: the HTTP
        service answers from this text and checks it with
        :func:`decode_result` once per distinct text.
        """

    def touch(self, fingerprint: str) -> None:
        """Mark an entry as used (hit + recency) without reading or policy.

        The HTTP service pairs this with :meth:`peek` or :meth:`document`:
        archived entries are served regardless of :meth:`get`'s freshness
        policy, yet still count as usage so LRU gc never evicts what is
        actively being answered.
        """

    def put(self, result: "ScenarioResult") -> None:
        """Insert or replace the document stored under ``result.fingerprint``."""

    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, oldest entry first."""

    def items(self) -> Iterator[Tuple[str, "ScenarioResult"]]:
        """``(fingerprint, result)`` pairs, oldest entry first."""

    def record_study(self, name: str, fingerprints: Sequence[str]) -> None:
        """Associate a study name with the fingerprints it resolved."""

    def studies(self) -> Dict[str, List[str]]:
        """Study name -> fingerprints, for every recorded study."""

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict least-recently-used / expired entries; returns the count removed."""

    def stats(self) -> Dict[str, Any]:
        """Backend name, location, entry count and hit/miss/eviction counters."""

    def close(self) -> None:
        """Release any resource the backend holds (idempotent)."""

    def __len__(self) -> int: ...

    def __contains__(self, fingerprint: object) -> bool: ...


class MemoryStore(SqlJobQueue):
    """In-process, dict-backed store — the default :class:`Study` backend.

    Entries are held by reference (no serialisation round-trip), so repeated
    ``get`` calls return the identical object.  Recency is tracked per entry
    so :meth:`gc` can evict least-recently-used results when a cap is given.
    The :class:`~repro.store.jobs.SqlJobQueue` base runs the job queue on a
    private ``:memory:`` SQLite database, so single-process pipelines (and
    the tests) exercise the same submit/work loop as a store file.
    """

    backend_name = "memory"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(":memory:", check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        self._connection.executescript(JOBS_TABLE)
        self._results: Dict[str, "ScenarioResult"] = {}
        self._accessed_at: Dict[str, float] = {}
        self._created_at: Dict[str, float] = {}
        self._study_index: Dict[str, List[str]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def location(self) -> Optional[str]:
        return None

    # ---------------------------------------------------------------- documents
    def get(self, fingerprint: str) -> Optional["ScenarioResult"]:
        result = self._results.get(fingerprint)
        if result is None:
            self._misses += 1
            get_registry().counter("repro_store_misses_total", backend=self.backend_name).inc()
            return None
        self._hits += 1
        get_registry().counter("repro_store_hits_total", backend=self.backend_name).inc()
        self._accessed_at[fingerprint] = time.time()
        return result

    def peek(self, fingerprint: str) -> Optional["ScenarioResult"]:
        return self._results.get(fingerprint)

    def document(self, fingerprint: str) -> Optional[str]:
        result = self._results.get(fingerprint)
        return None if result is None else json.dumps(result.to_dict())

    def touch(self, fingerprint: str) -> None:
        if fingerprint in self._results:
            self._hits += 1
            get_registry().counter("repro_store_hits_total", backend=self.backend_name).inc()
            self._accessed_at[fingerprint] = time.time()

    def put(self, result: "ScenarioResult") -> None:
        now = time.time()
        fingerprint = result.fingerprint
        self._results[fingerprint] = result
        self._created_at.setdefault(fingerprint, now)
        self._accessed_at[fingerprint] = now
        get_registry().counter("repro_store_puts_total", backend=self.backend_name).inc()

    def fingerprints(self) -> List[str]:
        return list(self._results)

    def items(self) -> Iterator[Tuple[str, "ScenarioResult"]]:
        return iter(list(self._results.items()))

    # ------------------------------------------------------------------ studies
    def record_study(self, name: str, fingerprints: Sequence[str]) -> None:
        recorded = self._study_index.setdefault(name, [])
        for fingerprint in fingerprints:
            if fingerprint not in recorded:
                recorded.append(fingerprint)

    def studies(self) -> Dict[str, List[str]]:
        return {
            name: list(fingerprints)
            for name, fingerprints in self._study_index.items()
        }

    # -------------------------------------------------------------- maintenance
    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        victims: List[str] = []
        if max_age_seconds is not None:
            cutoff = time.time() - max_age_seconds
            victims.extend(
                fingerprint
                for fingerprint, accessed in self._accessed_at.items()
                if accessed < cutoff
            )
            with self._lock, self._connection:
                self._age_jobs(cutoff)
        if max_entries is not None and len(self._results) - len(set(victims)) > max_entries:
            by_recency = sorted(
                (f for f in self._results if f not in set(victims)),
                key=lambda f: self._accessed_at.get(f, 0.0),
            )
            excess = len(self._results) - len(set(victims)) - max_entries
            victims.extend(by_recency[:excess])
        removed = 0
        for fingerprint in dict.fromkeys(victims):
            if fingerprint in self._results:
                del self._results[fingerprint]
                self._accessed_at.pop(fingerprint, None)
                self._created_at.pop(fingerprint, None)
                removed += 1
        # As in ResultStore.gc: a study keeps only fingerprints still stored.
        self._study_index = {
            name: kept
            for name, fingerprints in self._study_index.items()
            if (kept := [f for f in fingerprints if f in self._results])
        }
        self._evictions += removed
        if removed:
            get_registry().counter(
                "repro_store_evictions_total", backend=self.backend_name
            ).inc(removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        stats = {
            "backend": self.backend_name,
            "path": self.location,
            "entries": len(self._results),
            "studies": len(self._study_index),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }
        for key, value in self.jobs_stats().items():
            stats[f"jobs_{key}"] = value
        return stats

    def close(self) -> None:
        """Close the job queue's in-memory database (idempotent)."""
        with self._lock:
            self._connection.close()

    def _execute(self, sql: str, parameters: Tuple[Any, ...] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, parameters)
        except sqlite3.Error as error:
            raise StoreError(f"in-memory job queue query failed: {error}") from None

    # ------------------------------------------------------------------- dunder
    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, fingerprint: object) -> bool:
        return fingerprint in self._results

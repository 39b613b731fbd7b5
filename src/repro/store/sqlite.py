"""SQLite-backed, content-addressed persistent result store.

:class:`ResultStore` persists full
:class:`~repro.scenarios.study.ScenarioResult` documents keyed by the scenario
fingerprint (the content address — the SHA-256 digest of the canonical
scenario document).  It is the durable
:class:`~repro.store.backend.StoreBackend` implementation:

* **Durability & sharing** — the database runs in WAL journal mode with a
  busy timeout (opening retries while another process initialises a fresh
  file), and every write is an upsert-by-fingerprint, so parallel
  :class:`~repro.scenarios.study.Study` workers and multiple processes can
  point at the same file without clobbering each other.
* **Schema versioning** — the ``store_meta`` table pins :data:`STORE_SCHEMA`;
  opening a corrupt file or one written by a different schema raises a clear
  :class:`~repro.errors.StoreError` instead of silently misreading documents.
* **Integrity** — ``put`` re-derives the fingerprint from the embedded
  scenario document and refuses mismatches; every decode
  (:func:`~repro.store.backend.decode_result`) validates that the stored
  document still carries the requested fingerprint.
* **Stats & GC** — per-instance hit/miss/eviction counters plus an LRU /
  max-age eviction policy (:meth:`gc`) keep long-lived stores bounded.
  :meth:`touch` (one per served GET) is buffered and written in one
  transaction per second or per :data:`_TOUCH_FLUSH_PENDING` fingerprints;
  every reader of the usage figures flushes first.
* **Job queue** — :class:`~repro.store.jobs.SqlJobQueue` runs on the file's
  ``jobs`` table (``queued → leased → done|failed|dead`` with
  lease/heartbeat columns), so ``POST /jobs`` submissions survive restarts
  and any number of ``repro work`` processes can claim work from the same
  file.

The store is thread-safe (one connection guarded by a lock — the threading
HTTP server in :mod:`repro.store.server` shares a single instance) and may be
used as a context manager.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StoreError
from ..scenarios.scenario import Scenario
from ..scenarios.study import ScenarioResult
from ..telemetry import get_registry
from .backend import decode_result
from .jobs import JOBS_TABLE, SqlJobQueue

__all__ = ["MIGRATABLE_SCHEMAS", "STORE_SCHEMA", "ResultStore"]

#: Identifier pinned in every store database; bump on incompatible layouts.
STORE_SCHEMA = "repro.store/2"

#: Older schemas :class:`ResultStore` upgrades in place on open.  ``/2`` only
#: *adds* the ``jobs`` table, so a ``/1`` database migrates losslessly.
MIGRATABLE_SCHEMAS = ("repro.store/1",)

def _current_version() -> str:
    """The installed library version (imported lazily: the package root is
    still initialising when this module loads through the lazy store API)."""
    from .. import __version__

    return __version__


_TABLES = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    fingerprint      TEXT PRIMARY KEY,
    name             TEXT NOT NULL,
    optimizer        TEXT NOT NULL,
    workload         TEXT NOT NULL,
    mapping          TEXT NOT NULL,
    topology         TEXT NOT NULL,
    wavelength_count INTEGER NOT NULL,
    pareto_size      INTEGER NOT NULL,
    runtime_seconds  REAL NOT NULL,
    document         TEXT NOT NULL,
    repro_version    TEXT NOT NULL,
    created_at       REAL NOT NULL,
    accessed_at      REAL NOT NULL,
    access_count     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS studies (
    study       TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    recorded_at REAL NOT NULL,
    PRIMARY KEY (study, fingerprint)
);
""" + JOBS_TABLE


#: Pause between attempts to initialise a file another process is initialising.
_INITIALISE_RETRY_SECONDS = 0.05

#: Buffered :meth:`ResultStore.touch` calls are written once this many
#: seconds have passed since the first of them, or once this many distinct
#: fingerprints are pending.
_TOUCH_FLUSH_SECONDS = 1.0
_TOUCH_FLUSH_PENDING = 64


class ResultStore(SqlJobQueue):
    """Content-addressed SQLite store of scenario results (see module docs)."""

    backend_name = "sqlite"

    # perfbench's tracer wraps these entry points in ResultStore's own
    # namespace (its store.enqueue/claim/complete spans).
    enqueue = SqlJobQueue.enqueue
    claim = SqlJobQueue.claim
    complete = SqlJobQueue.complete

    def __init__(self, path: str | Path, timeout: float = 30.0) -> None:
        self._path = Path(path)
        self._lock = threading.RLock()
        # fingerprint -> (touches, latest touch time) not yet written, and
        # the time of the first of them.
        self._touches: Dict[str, Tuple[int, float]] = {}
        self._touches_since: Optional[float] = None
        self._path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._connection = sqlite3.connect(
                str(self._path), timeout=timeout, check_same_thread=False
            )
        except sqlite3.Error as error:  # pragma: no cover - connect rarely fails
            raise StoreError(f"cannot open result store {self._path}: {error}") from None
        self._connection.row_factory = sqlite3.Row
        try:
            self._initialise_retrying(timeout)
        except sqlite3.Error as error:
            self._connection.close()
            raise StoreError(
                f"result store {self._path} is not a readable SQLite database: {error}"
            ) from None
        except StoreError:
            self._connection.close()
            raise

    def _initialise_retrying(self, timeout: float) -> None:
        """:meth:`_initialise`, retried while another process initialises the file.

        SQLite reports a lock held by a concurrent initialiser (two processes
        opening one fresh file) as ``database is locked`` at once, without
        waiting out the busy timeout.  Every statement of :meth:`_initialise`
        is idempotent, so the whole block is retried, pausing
        :data:`_INITIALISE_RETRY_SECONDS` between attempts, for up to
        ``timeout`` seconds of pauses.
        """
        attempts = max(1, int(timeout / _INITIALISE_RETRY_SECONDS))
        for attempt in range(attempts):
            try:
                self._initialise(timeout)
                return
            except sqlite3.OperationalError as error:
                if "database is locked" not in str(error) or attempt == attempts - 1:
                    raise
            time.sleep(_INITIALISE_RETRY_SECONDS)

    def _initialise(self, timeout: float) -> None:
        with self._lock, self._connection:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            existing = {
                row[0]
                for row in self._connection.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            if existing and "store_meta" not in existing:
                raise StoreError(
                    f"result store {self._path} predates schema tracking "
                    f"(no store_meta table); rebuild it with {STORE_SCHEMA!r}"
                )
            self._connection.executescript(_TABLES)
            # INSERT OR IGNORE so two processes racing to initialise a fresh
            # database both succeed; the re-read below validates whatever won.
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('schema', ?)",
                (STORE_SCHEMA,),
            )
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
                "('created_at', ?)",
                (repr(time.time()),),
            )
            # Hit/miss/eviction counters live in the database, not the
            # connection, so `repro cache stats` sees usage from every process.
            for counter in ("hits", "misses", "evictions"):
                self._connection.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, '0')",
                    (counter,),
                )
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key='schema'"
            ).fetchone()
            if row[0] in MIGRATABLE_SCHEMAS:
                # The executescript above already created the tables this
                # schema adds; stamping the new identifier completes the
                # in-place upgrade (older builds will then refuse the file,
                # which is the safe direction).
                self._connection.execute(
                    "UPDATE store_meta SET value = ? WHERE key='schema'",
                    (STORE_SCHEMA,),
                )
            elif row[0] != STORE_SCHEMA:
                raise StoreError(
                    f"result store {self._path} uses schema {row[0]!r}; "
                    f"this build reads {STORE_SCHEMA!r} — run its matching "
                    f"version or export/re-import the documents"
                )

    # -------------------------------------------------------------------- meta
    @property
    def path(self) -> Path:
        """Filesystem location of the database."""
        return self._path

    @property
    def location(self) -> Optional[str]:
        return str(self._path)

    @property
    def schema(self) -> str:
        """The schema identifier this store was opened with."""
        return STORE_SCHEMA

    # ---------------------------------------------------------------- documents
    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The stored result for ``fingerprint``; bumps the recency columns.

        A result produced by a *different* library version is a miss: the
        scenario fingerprint addresses the description, not the code that
        evaluated it, so warm-starting across versions would silently serve
        stale fronts.  (:meth:`peek` — listings and the HTTP archive service —
        still returns such rows; :meth:`rows` exposes ``repro_version``.)
        """
        with self._lock:
            row = self._execute(
                "SELECT document, repro_version FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            with self._connection:
                if row is None or row["repro_version"] != _current_version():
                    self._bump_counter("misses", 1)
                    get_registry().counter(
                        "repro_store_misses_total", backend=self.backend_name
                    ).inc()
                    return None
                self._bump_counter("hits", 1)
                get_registry().counter(
                    "repro_store_hits_total", backend=self.backend_name
                ).inc()
                self._execute(
                    "UPDATE results SET accessed_at = ?, access_count = access_count + 1 "
                    "WHERE fingerprint = ?",
                    (time.time(), fingerprint),
                )
        return decode_result(fingerprint, row["document"])

    def peek(self, fingerprint: str) -> Optional[ScenarioResult]:
        """Like :meth:`get` but without stats, recency or the version policy."""
        document = self.document(fingerprint)
        return None if document is None else decode_result(fingerprint, document)

    def document(self, fingerprint: str) -> Optional[str]:
        """The stored JSON text of ``fingerprint`` (one SELECT, no decoding)."""
        with self._lock:
            row = self._execute(
                "SELECT document FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return None if row is None else row["document"]

    def touch(self, fingerprint: str) -> None:
        """Record usage of an entry (hit counter + recency), policy-free.

        The write is buffered: touches are counted per fingerprint and
        written in one transaction once :data:`_TOUCH_FLUSH_SECONDS` have
        passed since the first buffered touch or :data:`_TOUCH_FLUSH_PENDING`
        fingerprints are pending.  :meth:`stats`, :meth:`rows`, :meth:`gc`
        and :meth:`close` flush first, so the figures they read are exact;
        a process killed without :meth:`close` loses only the touches
        buffered since the last flush.
        """
        now = time.time()
        with self._lock:
            count, _ = self._touches.get(fingerprint, (0, now))
            self._touches[fingerprint] = (count + 1, now)
            if self._touches_since is None:
                self._touches_since = now
            if len(self._touches) >= _TOUCH_FLUSH_PENDING or not (
                0.0 <= now - self._touches_since < _TOUCH_FLUSH_SECONDS
            ):
                self._flush_touches()

    def _flush_touches(self) -> None:
        """Write the buffered touches in one transaction (kept if it fails)."""
        with self._lock:
            if not self._touches:
                return
            hits = 0
            with self._connection:
                for fingerprint, (count, accessed_at) in self._touches.items():
                    cursor = self._execute(
                        "UPDATE results SET accessed_at = MAX(accessed_at, ?), "
                        "access_count = access_count + ? WHERE fingerprint = ?",
                        (accessed_at, count, fingerprint),
                    )
                    if cursor.rowcount:
                        hits += count
                self._bump_counter("hits", hits)
            self._touches.clear()
            self._touches_since = None
        if hits:
            get_registry().counter(
                "repro_store_hits_total", backend=self.backend_name
            ).inc(hits)

    def put(self, result: ScenarioResult) -> None:
        """Insert or replace (upsert) the document under its content address."""
        if not isinstance(result, ScenarioResult):
            raise StoreError(
                f"a result store holds ScenarioResult documents, got "
                f"{type(result).__name__}"
            )
        derived = Scenario.from_dict(result.scenario).fingerprint()
        if derived != result.fingerprint:
            raise StoreError(
                f"result fingerprint {result.fingerprint!r} does not match its "
                f"scenario document (content address {derived!r}); refusing to "
                f"store an inconsistent result"
            )
        # Key order is preserved (no sort_keys): pareto/verification row dicts
        # define the column order of every downstream table and CSV.
        document = json.dumps(result.to_dict())
        now = time.time()
        with self._lock, self._connection:
            self._execute(
                """
                INSERT INTO results (
                    fingerprint, name, optimizer, workload, mapping, topology,
                    wavelength_count, pareto_size, runtime_seconds, document,
                    repro_version, created_at, accessed_at, access_count
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)
                ON CONFLICT(fingerprint) DO UPDATE SET
                    name = excluded.name,
                    optimizer = excluded.optimizer,
                    workload = excluded.workload,
                    mapping = excluded.mapping,
                    topology = excluded.topology,
                    wavelength_count = excluded.wavelength_count,
                    pareto_size = excluded.pareto_size,
                    runtime_seconds = excluded.runtime_seconds,
                    document = excluded.document,
                    repro_version = excluded.repro_version,
                    accessed_at = excluded.accessed_at
                """,
                (
                    result.fingerprint,
                    result.name,
                    result.optimizer,
                    result.workload,
                    result.mapping,
                    result.topology,
                    result.wavelength_count,
                    result.pareto_size,
                    result.runtime_seconds,
                    document,
                    _current_version(),
                    now,
                    now,
                ),
            )
        get_registry().counter(
            "repro_store_puts_total", backend=self.backend_name
        ).inc()

    def fingerprints(self) -> List[str]:
        with self._lock:
            rows = self._execute(
                "SELECT fingerprint FROM results ORDER BY created_at, fingerprint"
            ).fetchall()
        return [row["fingerprint"] for row in rows]

    def items(self) -> Iterator[Tuple[str, ScenarioResult]]:
        with self._lock:
            rows = self._execute(
                "SELECT fingerprint, document FROM results "
                "ORDER BY created_at, fingerprint"
            ).fetchall()
        for row in rows:
            yield row["fingerprint"], decode_result(row["fingerprint"], row["document"])

    def rows(self) -> List[Dict[str, Any]]:
        """One flat metadata row per stored result (for listings and CSV)."""
        with self._lock:
            self._flush_touches()
            rows = self._execute(
                """
                SELECT fingerprint, name, optimizer, workload, mapping, topology,
                       wavelength_count, pareto_size, runtime_seconds,
                       repro_version, created_at, accessed_at, access_count
                FROM results ORDER BY created_at, fingerprint
                """
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ studies
    def record_study(self, name: str, fingerprints: Sequence[str]) -> None:
        now = time.time()
        with self._lock, self._connection:
            for fingerprint in fingerprints:
                self._execute(
                    "INSERT OR IGNORE INTO studies (study, fingerprint, recorded_at) "
                    "VALUES (?, ?, ?)",
                    (name, fingerprint, now),
                )

    def studies(self) -> Dict[str, List[str]]:
        with self._lock:
            rows = self._execute(
                "SELECT study, fingerprint FROM studies "
                "ORDER BY recorded_at, study, fingerprint"
            ).fetchall()
        index: Dict[str, List[str]] = {}
        for row in rows:
            index.setdefault(row["study"], []).append(row["fingerprint"])
        return index

    # -------------------------------------------------------------- maintenance
    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict expired and least-recently-used entries; returns rows removed."""
        removed = 0
        self._flush_touches()
        now = time.time()
        with self._lock, self._connection:
            if max_age_seconds is not None:
                cutoff = now - max_age_seconds
                cursor = self._execute(
                    "DELETE FROM results WHERE accessed_at < ?", (cutoff,)
                )
                removed += cursor.rowcount
            if max_entries is not None:
                cursor = self._execute(
                    """
                    DELETE FROM results WHERE fingerprint IN (
                        SELECT fingerprint FROM results
                        ORDER BY accessed_at DESC, created_at DESC, fingerprint
                        LIMIT -1 OFFSET ?
                    )
                    """,
                    (max(0, max_entries),),
                )
                removed += cursor.rowcount
            self._execute(
                "DELETE FROM studies WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM results)"
            )
            if max_age_seconds is not None:
                self._age_jobs(now - max_age_seconds)
            self._bump_counter("evictions", removed)
        if removed:
            get_registry().counter(
                "repro_store_evictions_total", backend=self.backend_name
            ).inc(removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self._flush_touches()
            entries = self._execute("SELECT COUNT(*) FROM results").fetchone()[0]
            studies = self._execute(
                "SELECT COUNT(DISTINCT study) FROM studies"
            ).fetchone()[0]
            accesses = self._execute(
                "SELECT COALESCE(SUM(access_count), 0) FROM results"
            ).fetchone()[0]
            counters = {
                key: self._read_counter(key)
                for key in ("hits", "misses", "evictions")
            }
        try:
            size_bytes = self._path.stat().st_size
        except OSError:  # pragma: no cover - racing deletion
            size_bytes = 0
        stats = {
            "backend": self.backend_name,
            "path": str(self._path),
            "schema": STORE_SCHEMA,
            "entries": entries,
            "studies": studies,
            "size_bytes": size_bytes,
            "hits": counters["hits"],
            "misses": counters["misses"],
            "evictions": counters["evictions"],
            "total_accesses": accesses,
        }
        # Queue telemetry rides along with the cache counters, so
        # `GET /stats` and `repro cache stats` surface both in one payload.
        for key, value in self.jobs_stats().items():
            stats[f"jobs_{key}"] = value
        return stats

    def export_documents(self) -> List[Dict[str, Any]]:
        """Every stored document, decoded (for ``repro cache export``)."""
        return [result.to_dict() for _, result in self.items()]

    def close(self) -> None:
        """Write the buffered touches, then close the connection."""
        with self._lock:
            try:
                self._flush_touches()
            finally:
                self._connection.close()

    # ------------------------------------------------------------------- dunder
    def _bump_counter(self, key: str, delta: int) -> None:
        """Add ``delta`` to a persistent store_meta counter (caller holds lock)."""
        # A nested `with self._connection:` here would commit the caller's
        # half-finished transaction early.
        self._execute(  # repro-lint: allow R003 — caller holds the transaction
            "UPDATE store_meta SET value = CAST(value AS INTEGER) + ? WHERE key = ?",
            (delta, key),
        )

    def _read_counter(self, key: str) -> int:
        row = self._execute(
            "SELECT value FROM store_meta WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    def _execute(self, sql: str, parameters: Tuple[Any, ...] = ()) -> sqlite3.Cursor:
        try:
            return self._connection.execute(sql, parameters)
        except sqlite3.Error as error:
            raise StoreError(
                f"result store {self._path} query failed: {error}"
            ) from None

    def __len__(self) -> int:
        with self._lock:
            return self._execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            row = self._execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self._path)!r})"

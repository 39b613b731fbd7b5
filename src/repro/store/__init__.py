"""Persistent result store and study service.

This subpackage turns the in-process study cache into a long-lived service
layer:

* :mod:`~repro.store.sqlite` — :class:`ResultStore`, the content-addressed,
  SQLite/WAL-backed store with schema versioning, upserts, stats and
  LRU/max-age garbage collection, and :class:`MemoryStore`, the same store on
  a private ``:memory:`` database (the
  :class:`~repro.scenarios.study.Study` default).
* :mod:`~repro.store.jobs` — the durable job queue: the :class:`Job`
  document and :class:`~repro.store.jobs.SqlJobQueue`, the guarded SQL of
  ``queued → leased → done | failed | dead`` that every store runs on its
  database.
* :mod:`~repro.store.worker` — :class:`Worker` / :class:`WorkerPool`, the
  claim → execute → complete loops behind ``repro work``.
* :mod:`~repro.store.server` — a stdlib :mod:`http.server` JSON API that
  serves cached Pareto fronts and verification reports by fingerprint and
  accepts job submissions (``repro serve``).

Quickstart::

    from repro import ResultStore, Study

    store = ResultStore("results.sqlite")
    Study(scenarios, store=store).run()      # cold: executes + persists
    Study(scenarios, store=store).run()      # warm: zero optimizer runs

Queue mode::

    from repro.store.jobs import enqueue_submission

    enqueue_submission(store, Study(scenarios, name="sweep").to_dict())
    # then, in any number of other processes:  repro work --store results.sqlite
"""

from typing import Any

from ..errors import JobError, StoreError
from .jobs import JOB_STATES, Job

# The stores, the HTTP server and the worker persist/serve/execute
# ScenarioResult documents, so their modules import repro.scenarios.study.
# Resolving them lazily (PEP 562) keeps `import repro.store` free of the
# scenario layer and of any import-order constraint on it.
_LAZY = {
    "MemoryStore": ("repro.store.sqlite", "MemoryStore"),
    "ResultStore": ("repro.store.sqlite", "ResultStore"),
    "STORE_SCHEMA": ("repro.store.sqlite", "STORE_SCHEMA"),
    "MIGRATABLE_SCHEMAS": ("repro.store.sqlite", "MIGRATABLE_SCHEMAS"),
    "StoreHTTPServer": ("repro.store.server", "StoreHTTPServer"),
    "create_server": ("repro.store.server", "create_server"),
    "serve": ("repro.store.server", "serve"),
    "Worker": ("repro.store.worker", "Worker"),
    "WorkerPool": ("repro.store.worker", "WorkerPool"),
    "WorkerStats": ("repro.store.worker", "WorkerStats"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "JOB_STATES",
    "Job",
    "JobError",
    "MIGRATABLE_SCHEMAS",
    "MemoryStore",
    "ResultStore",
    "STORE_SCHEMA",
    "StoreError",
    "StoreHTTPServer",
    "Worker",
    "WorkerPool",
    "WorkerStats",
    "create_server",
    "serve",
]

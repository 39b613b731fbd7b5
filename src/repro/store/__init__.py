"""Persistent result store and study service.

This subpackage turns the in-process study cache into a long-lived service
layer:

* :mod:`~repro.store.backend` — the :class:`StoreBackend` protocol and the
  in-process backend (:class:`MemoryStore`, the
  :class:`~repro.scenarios.study.Study` default).
* :mod:`~repro.store.sqlite` — :class:`ResultStore`, the content-addressed,
  SQLite/WAL-backed durable backend with schema versioning, upserts, stats
  and LRU/max-age garbage collection.
* :mod:`~repro.store.jobs` — the durable job queue: the :class:`Job`
  document, the :class:`JobQueue` protocol every backend implements
  (``queued → leased → done | failed | dead``) and its one implementation,
  the guarded SQL both backends run (on the store file, or on a private
  ``:memory:`` database for :class:`MemoryStore`).
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

    Study(scenarios, store=store).enqueue()  # durable jobs instead of running
    # then, in any number of other processes:  repro work --store results.sqlite
"""

from typing import Any

from ..errors import JobError, StoreError
from .backend import MemoryStore, StoreBackend
from .jobs import JOB_STATES, Job, JobQueue

# The SQLite store, the HTTP server and the worker persist/serve/execute
# ScenarioResult documents, so their modules import repro.scenarios.study —
# which itself imports the backend above for its default store.  Resolving
# them lazily (PEP 562) keeps `from repro.store import ResultStore` working
# without an import cycle.
_LAZY = {
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
    "JobQueue",
    "MIGRATABLE_SCHEMAS",
    "MemoryStore",
    "ResultStore",
    "STORE_SCHEMA",
    "StoreBackend",
    "StoreError",
    "StoreHTTPServer",
    "Worker",
    "WorkerPool",
    "WorkerStats",
    "create_server",
    "serve",
]

"""Tests for the persistent result store and study service (:mod:`repro.store`)."""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import itertools
import json
import os
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

import repro
from repro.config import GeneticParameters
from repro.errors import StoreError
from repro.scenarios import Scenario, ScenarioResult, Study, execute_scenario
from repro.scenarios.study import fetch_or_execute
from repro.store import MemoryStore, ResultStore, create_server
from repro.store.sqlite import STORE_SCHEMA
from repro.telemetry import MetricsRegistry, set_registry


def smoke_scenario(**changes) -> Scenario:
    """A fast-running paper scenario for the tests."""
    base = Scenario(
        name="store-smoke",
        genetic=GeneticParameters(population_size=16, generations=4),
    )
    return base.derive(**changes) if changes else base


@pytest.fixture(scope="module")
def smoke_result() -> ScenarioResult:
    """One real scenario result, executed once for the whole module."""
    return execute_scenario(smoke_scenario()).summary()


def _put_repeatedly(arguments: Tuple[str, Dict[str, Any], int]) -> int:
    """Process-pool worker: open the store at ``path`` and upsert ``count`` times."""
    path, document, count = arguments
    result = ScenarioResult.from_dict(document)
    with ResultStore(path) as store:
        for _ in range(count):
            store.put(result)
    return count


# ---------------------------------------------------------------- memory store
class TestMemoryStore:
    def test_round_trip_preserves_identity(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        assert store.get(smoke_result.fingerprint) == smoke_result
        assert smoke_result.fingerprint in store
        assert len(store) == 1

    def test_hit_miss_counters(self, smoke_result):
        store = MemoryStore()
        assert store.get("absent") is None
        store.put(smoke_result)
        store.get(smoke_result.fingerprint)
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["backend"] == "memory" and stats["path"] is None

    def test_peek_does_not_touch_stats(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        store.peek(smoke_result.fingerprint)
        store.peek("absent")
        assert store.stats()["hits"] == 0 and store.stats()["misses"] == 0

    def test_gc_max_entries_evicts_least_recently_used(self, smoke_result):
        store = MemoryStore()
        others = [
            execute_scenario(smoke_scenario(name=f"gc{n}", wavelength_count=n)).summary()
            for n in (4, 6)
        ]
        for result in [smoke_result, *others]:
            store.put(result)
        store.get(smoke_result.fingerprint)  # most recently used
        removed = store.gc(max_entries=1)
        assert removed == 2
        assert store.fingerprints() == [smoke_result.fingerprint]
        assert store.stats()["evictions"] == 2

    def test_record_study(self, smoke_result):
        store = MemoryStore()
        store.put(smoke_result)
        store.record_study("demo", [smoke_result.fingerprint])
        store.record_study("demo", [smoke_result.fingerprint])
        assert store.studies() == {"demo": [smoke_result.fingerprint]}


# ---------------------------------------------------------------- sqlite store
class TestResultStore:
    def test_round_trip_equality_and_bit_identical_document(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            restored = store.get(smoke_result.fingerprint)
        assert restored == smoke_result
        assert restored.to_dict() == smoke_result.to_dict()

    def test_survives_reopen(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with ResultStore(path) as store:
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_upsert_by_fingerprint_keeps_one_row(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.put(smoke_result)
            store.put(smoke_result)
            assert len(store) == 1
            assert store.fingerprints() == [smoke_result.fingerprint]

    def test_fingerprint_is_a_content_address(self, tmp_path, smoke_result):
        forged = smoke_result.to_dict()
        forged["fingerprint"] = "0" * 16
        for store in (MemoryStore(), ResultStore(tmp_path / "s.sqlite")):
            with store, pytest.raises(StoreError, match="content address"):
                store.put(ScenarioResult.from_dict(forged))

    def test_non_result_rejected(self, tmp_path):
        for store in (MemoryStore(), ResultStore(tmp_path / "s.sqlite")):
            with store, pytest.raises(StoreError, match="ScenarioResult"):
                store.put({"not": "a result"})

    def test_corrupt_file_rejected_with_store_error(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database" * 30)
        with pytest.raises(StoreError, match="not a readable SQLite database"):
            ResultStore(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "INSERT INTO store_meta (key, value) VALUES ('schema', 'repro.store/0')"
            )
        with pytest.raises(StoreError, match="repro.store/0"):
            ResultStore(path)

    def test_pre_schema_database_rejected(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE results (fingerprint TEXT PRIMARY KEY)")
        with pytest.raises(StoreError, match="store_meta"):
            ResultStore(path)

    def test_corrupt_row_rejected_on_read(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE results SET document = 'not json'",
            )
        with ResultStore(path) as store:
            with pytest.raises(StoreError, match="not valid JSON"):
                store.get(smoke_result.fingerprint)

    def test_open_retries_while_another_process_initialises(self, tmp_path, monkeypatch):
        # Two processes opening one fresh file: SQLite reports the other
        # initialiser's lock as "database is locked" at once.
        original = ResultStore._initialise
        refused = []

        def locked_twice(store, timeout):
            if len(refused) < 2:
                refused.append(timeout)
                raise sqlite3.OperationalError("database is locked")
            original(store, timeout)

        monkeypatch.setattr(ResultStore, "_initialise", locked_twice)
        with ResultStore(tmp_path / "fresh.sqlite") as store:
            assert len(store) == 0
        assert len(refused) == 2

    def test_open_gives_up_on_a_lock_after_its_timeout(self, tmp_path, monkeypatch):
        def always_locked(store, timeout):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(ResultStore, "_initialise", always_locked)
        with pytest.raises(StoreError, match="database is locked"):
            ResultStore(tmp_path / "held.sqlite", timeout=0.2)

    def test_two_processes_writing_the_same_fingerprint(self, tmp_path, smoke_result):
        path = str(tmp_path / "shared.sqlite")
        document = smoke_result.to_dict()
        with ProcessPoolExecutor(max_workers=2) as pool:
            counts = list(
                pool.map(_put_repeatedly, [(path, document, 25), (path, document, 25)])
            )
        assert counts == [25, 25]
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_gc_by_entry_count_and_age(self, tmp_path, smoke_result):
        results = [smoke_result] + [
            execute_scenario(smoke_scenario(name=f"gc{n}", wavelength_count=n)).summary()
            for n in (4, 6)
        ]
        with ResultStore(tmp_path / "s.sqlite") as store:
            for result in results:
                store.put(result)
            assert store.gc(max_age_seconds=3600) == 0
            removed = store.gc(max_entries=1)
            assert removed == 2
            assert len(store) == 1
            assert store.stats()["evictions"] == 2
            assert store.gc(max_age_seconds=0.0) == 1
            assert len(store) == 0

    def test_gc_drops_orphaned_study_rows(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.record_study("demo", [smoke_result.fingerprint])
            store.gc(max_entries=0)
            assert store.studies() == {}

    def test_result_from_another_version_is_a_warm_start_miss(
        self, tmp_path, smoke_result
    ):
        """Fingerprints address the scenario, not the code: results written by
        a different library version must not silently warm-start a study,
        though listings and peek still serve them as archive rows."""
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET repro_version = '0.0.1'")
        with ResultStore(path) as store:
            assert store.get(smoke_result.fingerprint) is None
            assert store.stats()["misses"] == 1
            assert store.peek(smoke_result.fingerprint) == smoke_result
            (row,) = store.rows()
            assert row["repro_version"] == "0.0.1"
            # Re-executing upserts the row back to the current version.
            store.put(smoke_result)
            assert store.get(smoke_result.fingerprint) == smoke_result

    def test_counters_persist_across_instances(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
            store.get(smoke_result.fingerprint)
            store.get("absent")
        # A fresh connection (e.g. a later `repro cache stats` invocation)
        # still sees the usage of every earlier process.
        with ResultStore(path) as store:
            stats = store.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            store.gc(max_entries=0)
        with ResultStore(path) as store:
            assert store.stats()["evictions"] == 1

    def test_stats_and_rows(self, tmp_path, smoke_result):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            store.get(smoke_result.fingerprint)
            store.get("absent")
            stats = store.stats()
            assert stats["backend"] == "sqlite"
            assert stats["schema"] == STORE_SCHEMA
            assert stats["entries"] == 1
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["size_bytes"] > 0
            (row,) = store.rows()
            assert row["fingerprint"] == smoke_result.fingerprint
            assert row["access_count"] == 1


# -------------------------------------------------------------- study + store
class TestStudyWithStore:
    def scenarios(self):
        return [
            smoke_scenario(name=f"nw{count}", wavelength_count=count)
            for count in (4, 8)
        ]

    def test_warm_rerun_executes_zero_backends(self, tmp_path, monkeypatch):
        path = tmp_path / "study.sqlite"
        with ResultStore(path) as store:
            cold = Study(self.scenarios(), name="warmup", store=store).run()
        assert cold.store_hits == 0 and cold.store_misses == 2

        import repro.scenarios.study as study_module

        def forbidden(*args, **kwargs):
            raise AssertionError("optimizer backend executed on a warm re-run")

        monkeypatch.setattr(study_module, "execute_scenario", forbidden)
        with ResultStore(path) as store:
            warm = Study(self.scenarios(), name="warmup", store=store).run()
        assert warm.store_hits == 2 and warm.store_misses == 0
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_store_telemetry_in_report_rows_and_csv(self, tmp_path):
        path = tmp_path / "study.sqlite"
        with ResultStore(path) as store:
            Study(self.scenarios(), store=store).run()
        with ResultStore(path) as store:
            result = Study(self.scenarios(), store=store).run()
            report = result.report()
        assert result.store_backend == "sqlite"
        assert result.store_path == str(path)
        assert "Result store: sqlite" in report
        assert "2 hit(s), 0 miss(es)" in report
        assert all(row["store_hit"] for row in result.rows())
        csv_path = result.to_csv(tmp_path / "out.csv")
        header, *lines = csv_path.read_text().strip().splitlines()
        assert "store_hit" in header.split(",")
        assert all(line.endswith("True") for line in lines)

    def test_default_memory_store_reports_misses_then_hits(self):
        study = Study([smoke_scenario()])
        first = study.run()
        second = study.run()
        assert (first.store_hits, first.store_misses) == (0, 1)
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert first.results[0] == second.results[0]

    def test_parallel_study_writes_through_the_store(self, tmp_path):
        path = tmp_path / "parallel.sqlite"
        with ResultStore(path) as store:
            Study(self.scenarios(), name="par", store=store).run(parallel=2)
        with ResultStore(path) as store:
            assert len(store) == 2
            assert {
                name: sorted(fingerprints)
                for name, fingerprints in store.studies().items()
            } == {"par": sorted(s.fingerprint() for s in self.scenarios())}

    def test_fetch_or_execute_hits_after_execute(self, tmp_path):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "s.sqlite") as store:
            first, hit_first = fetch_or_execute(scenario, store=store)
            second, hit_second = fetch_or_execute(scenario, store=store)
        assert (hit_first, hit_second) == (False, True)
        assert first.to_dict() == second.to_dict()

    def test_execute_scenario_writes_through(self, tmp_path):
        scenario = smoke_scenario()
        with ResultStore(tmp_path / "s.sqlite") as store:
            outcome = execute_scenario(scenario, store=store)
            assert store.peek(scenario.fingerprint()) == outcome.summary()

    def test_preseeding_the_cache_skips_execution(self, smoke_result, monkeypatch):
        scenario = Scenario.from_dict(smoke_result.scenario)
        study = Study([scenario])
        study.store.put(smoke_result)

        import repro.scenarios.study as study_module

        def forbidden(*args, **kwargs):
            raise AssertionError("pre-seeded scenario was re-executed")

        monkeypatch.setattr(study_module, "execute_scenario", forbidden)
        result = study.run()
        assert result.results[0] == smoke_result
        assert result.store_hits == 1

    def test_the_store_is_the_study_cache(self, smoke_result):
        scenario = Scenario.from_dict(smoke_result.scenario)
        study = Study([scenario])
        store = study.store
        assert len(store) == 0 and scenario.fingerprint() not in store
        store.put(smoke_result)
        assert len(study.store) == 1 and smoke_result.fingerprint in study.store
        assert study.store.peek(smoke_result.fingerprint) == smoke_result
        assert study.store.fingerprints() == [smoke_result.fingerprint]
        assert dict(study.store.items()) == {smoke_result.fingerprint: smoke_result}
        assert study.store.peek("absent") is None
        # put re-derives the address from the embedded scenario document.
        forged = dataclasses.replace(smoke_result, fingerprint="wrong-key")
        with pytest.raises(StoreError, match="fingerprint"):
            study.store.put(forged)
        assert study.store.fingerprints() == [smoke_result.fingerprint]


# ------------------------------------------------------------------- http api
@pytest.fixture(scope="module")
def api(tmp_path_factory, smoke_result):
    """A live server over a one-result store; yields (port, scenario_fingerprint)."""
    path = tmp_path_factory.mktemp("serve") / "api.sqlite"
    store = ResultStore(path)
    store.put(smoke_result)
    store.record_study("api-study", [smoke_result.fingerprint])
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], smoke_result
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


class TestHttpApi:
    def test_health_and_stats(self, api):
        port, _ = api
        status, payload = _get(port, "/api/v1/health")
        assert status == 200 and payload["status"] == "ok" and payload["entries"] == 1
        status, stats = _get(port, "/api/v1/stats")
        assert status == 200 and stats["backend"] == "sqlite"

    def test_index_lists_endpoints(self, api):
        port, _ = api
        status, payload = _get(port, "/")
        assert status == 200
        assert any("pareto" in endpoint for endpoint in payload["endpoints"])

    def test_result_document_round_trips(self, api):
        port, result = api
        _, listing = _get(port, "/api/v1/results")
        assert listing["results"][0]["fingerprint"] == result.fingerprint
        status, document = _get(port, f"/api/v1/results/{result.fingerprint}")
        assert status == 200
        assert ScenarioResult.from_dict(document) == result

    def test_cached_pareto_front_served_without_reoptimisation(self, api):
        port, result = api
        status, payload = _get(port, f"/api/v1/results/{result.fingerprint}/pareto")
        assert status == 200
        assert payload["pareto_rows"] == [dict(row) for row in result.pareto_rows]

    def test_verification_endpoint(self, api):
        port, result = api
        status, payload = _get(
            port, f"/api/v1/results/{result.fingerprint}/verification"
        )
        assert status == 200
        assert payload["verified"] == result.verified

    def test_studies_listing(self, api):
        port, result = api
        _, studies = _get(port, "/api/v1/studies")
        assert studies["studies"] == {"api-study": [result.fingerprint]}
        status, detail = _get(port, "/api/v1/studies/api-study")
        assert status == 200
        assert detail["results"][0]["name"] == result.name

    def test_post_scenario_returns_fingerprint_and_cached_flag(self, api):
        port, result = api
        scenario = Scenario.from_dict(result.scenario)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=json.dumps(scenario.to_dict()).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload == {
            "fingerprint": result.fingerprint,
            "cached": True,
            "result_url": f"/api/v1/results/{result.fingerprint}",
            "pareto_url": f"/api/v1/results/{result.fingerprint}/pareto",
        }

    def test_post_uncached_scenario(self, api):
        port, _ = api
        scenario = smoke_scenario(name="never-ran", wavelength_count=12)
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=json.dumps(scenario.to_dict()).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["cached"] is False
        assert payload["fingerprint"] == scenario.fingerprint()

    def test_unknown_fingerprint_is_404(self, api):
        port, _ = api
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(port, "/api/v1/results/doesnotexist")
        assert excinfo.value.code == 404
        assert "doesnotexist" in json.loads(excinfo.value.read())["error"]

    def test_invalid_scenario_post_is_400(self, api):
        port, _ = api
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/v1/scenarios",
            data=b'{"schema": "bogus/9"}',
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, api):
        port, _ = api
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(port, "/api/v9/results")
        assert excinfo.value.code == 404

    def test_archived_rows_from_other_versions_are_still_served(
        self, tmp_path, smoke_result
    ):
        """The HTTP service is an archive: get()'s version freshness policy
        applies to warm-starting studies, not to serving stored fronts."""
        path = tmp_path / "archive.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE results SET repro_version = '0.0.1'")
        with ResultStore(path) as store:
            server = create_server(store, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                status, document = _get(
                    port, f"/api/v1/results/{smoke_result.fingerprint}"
                )
                assert status == 200
                assert ScenarioResult.from_dict(document) == smoke_result
            finally:
                server.shutdown()
                server.server_close()

    def test_serving_a_result_counts_as_cache_usage(self, tmp_path, smoke_result):
        """GETs bump hit stats and recency, so gc never evicts served results."""
        with ResultStore(tmp_path / "usage.sqlite") as store:
            store.put(smoke_result)
            server = create_server(store, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                port = server.server_address[1]
                before = store.stats()["hits"]
                _get(port, f"/api/v1/results/{smoke_result.fingerprint}")
                _get(port, f"/api/v1/results/{smoke_result.fingerprint}/pareto")
                assert store.stats()["hits"] == before + 2
                (row,) = store.rows()
                assert row["access_count"] == 2
            finally:
                server.shutdown()
                server.server_close()


# ------------------------------------------------ serving the stored JSON text
@contextlib.contextmanager
def _serving(store):
    """A live server over ``store`` for one test; yields the server."""
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _call(port: int, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
    """Status and raw body of one request of any method (errors included)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=data)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _fetch(port: int, path: str) -> Tuple[int, bytes]:
    """Status and raw body of one GET (error statuses included)."""
    return _call(port, "GET", path)


def _pareto_document(result: ScenarioResult) -> Dict[str, Any]:
    return {
        "fingerprint": result.fingerprint,
        "name": result.name,
        "objective_keys": list(result.objective_keys),
        "pareto_rows": [dict(row) for row in result.pareto_rows],
    }


def _stored_text(path, fingerprint: str) -> str:
    with sqlite3.connect(path) as connection:
        (text,) = connection.execute(
            "SELECT document FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
    return text


def _set_stored_text(path, fingerprint: str, text: str) -> None:
    with sqlite3.connect(path) as connection:
        connection.execute(
            "UPDATE results SET document = ? WHERE fingerprint = ?", (text, fingerprint)
        )


class TestServingStoredDocuments:
    def test_result_body_is_the_stored_text(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        fingerprint = smoke_result.fingerprint
        with ResultStore(path) as store:
            store.put(smoke_result)
            assert store.document(fingerprint) == _stored_text(path, fingerprint)
            assert store.document("absent") is None
            with _serving(store) as server:
                port = server.server_address[1]
                for _ in range(2):  # memo miss, then memo hit
                    status, body = _fetch(port, f"/api/v1/results/{fingerprint}")
                    assert status == 200
                    assert body == _stored_text(path, fingerprint).encode() + b"\n"
                    status, body = _fetch(port, f"/api/v1/results/{fingerprint}/pareto")
                    assert status == 200
                    assert json.loads(body) == _pareto_document(smoke_result)
        assert json.loads(_stored_text(path, fingerprint)) == smoke_result.to_dict()

    @pytest.mark.parametrize("corruption", ["not json", "other fingerprint"])
    @pytest.mark.parametrize("route", ["", "/pareto"])
    def test_corrupt_rows_answer_500(self, tmp_path, smoke_result, corruption, route):
        path = tmp_path / "s.sqlite"
        fingerprint = smoke_result.fingerprint
        with ResultStore(path) as store:
            store.put(smoke_result)
            with _serving(store) as server:
                port = server.server_address[1]
                # Served (and remembered) intact first: the check must follow
                # the stored text, not the fingerprint.
                assert _fetch(port, f"/api/v1/results/{fingerprint}{route}")[0] == 200
                if corruption == "not json":
                    text = "not json"
                else:
                    document = smoke_result.to_dict()
                    document["fingerprint"] = "0" * 16
                    text = json.dumps(document)
                _set_stored_text(path, fingerprint, text)
                hits = store.stats()["hits"]
                status, body = _fetch(port, f"/api/v1/results/{fingerprint}{route}")
                assert status == 500
                envelope = json.loads(body)
                assert envelope["status"] == 500 and fingerprint in envelope["error"]
                assert store.stats()["hits"] == hits

    def test_valid_re_put_is_served_on_the_next_get(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        fingerprint = smoke_result.fingerprint
        rerun = dataclasses.replace(
            smoke_result,
            runtime_seconds=smoke_result.runtime_seconds + 1.0,
            pareto_rows=smoke_result.pareto_rows[:1],
        )
        with ResultStore(path) as store:
            store.put(smoke_result)
            with _serving(store) as server:
                port = server.server_address[1]
                _fetch(port, f"/api/v1/results/{fingerprint}")
                _fetch(port, f"/api/v1/results/{fingerprint}/pareto")
                # Another connection (as a worker process would) re-puts it.
                with ResultStore(path) as writer:
                    writer.put(rerun)
                _, body = _fetch(port, f"/api/v1/results/{fingerprint}")
                assert json.loads(body) == rerun.to_dict()
                _, body = _fetch(port, f"/api/v1/results/{fingerprint}/pareto")
                assert json.loads(body) == _pareto_document(rerun)

    def test_outdated_document_is_served_re_encoded(self, tmp_path, smoke_result):
        # A row written before some fields existed: from_dict fills their
        # defaults, so the stored dict is not what to_dict gives.
        path = tmp_path / "s.sqlite"
        fingerprint = smoke_result.fingerprint
        outdated = smoke_result.to_dict()
        for key in ("topology", "evaluations", "verification_rows"):
            del outdated[key]
        with ResultStore(path) as store:
            store.put(smoke_result)
            _set_stored_text(path, fingerprint, json.dumps(outdated))
            expected = store.peek(fingerprint).to_dict()
            assert expected != outdated
            with _serving(store) as server:
                port = server.server_address[1]
                for _ in range(2):
                    status, body = _fetch(port, f"/api/v1/results/{fingerprint}")
                    assert status == 200 and json.loads(body) == expected
                    _, body = _fetch(port, f"/api/v1/results/{fingerprint}/pareto")
                    assert json.loads(body) == _pareto_document(smoke_result)

    def test_memo_never_exceeds_its_cap(self, tmp_path, smoke_result):
        from repro.store.server import SERVED_MEMO_ENTRIES

        with ResultStore(tmp_path / "s.sqlite") as store:
            server = create_server(store, port=0)
            try:
                for index in range(SERVED_MEMO_ENTRIES + 8):
                    variant = dataclasses.replace(smoke_result, runtime_seconds=float(index))
                    text = json.dumps(variant.to_dict())
                    served = server.served(variant.fingerprint, text, text.encode())
                    assert served.document is None
                    assert len(server._served) <= SERVED_MEMO_ENTRIES
                assert len(server._served) == SERVED_MEMO_ENTRIES
            finally:
                server.server_close()

    def test_memory_store_server_serves_the_same_bodies(self, tmp_path, smoke_result):
        memory = MemoryStore()
        memory.put(smoke_result)
        fingerprint = smoke_result.fingerprint
        bodies = []
        listings = []
        with ResultStore(tmp_path / "s.sqlite") as sqlite_store:
            sqlite_store.put(smoke_result)
            for store in (memory, sqlite_store):
                with _serving(store) as server:
                    port = server.server_address[1]
                    bodies.append(
                        [
                            _fetch(port, f"/api/v1/results/{fingerprint}{route}")
                            for route in ("", "/pareto", "/verification")
                        ]
                    )
                    listings.append(json.loads(_fetch(port, "/api/v1/results")[1]))
        assert bodies[0] == bodies[1]
        assert all(status == 200 for status, _ in bodies[0])
        assert memory.stats()["hits"] == 3
        (memory_row,), (sqlite_row,) = (listing["results"] for listing in listings)
        assert memory_row["fingerprint"] == sqlite_row["fingerprint"] == fingerprint
        assert list(memory_row) == list(sqlite_row)


# --------------------------------------------------------------- batched touch
class _Clock:
    """A settable stand-in for the store module's ``time``."""

    def __init__(self, now: float) -> None:
        self.now = now

    def time(self) -> float:
        return self.now


class TestBatchedTouches:
    @pytest.fixture
    def clock(self, monkeypatch):
        import repro.store.sqlite as sqlite_module

        clock = _Clock(1_000_000.0)
        monkeypatch.setattr(sqlite_module, "time", clock)
        return clock

    @staticmethod
    def commits(store: ResultStore):
        statements = []
        store._connection.set_trace_callback(statements.append)
        return statements

    def test_touches_are_exact_wherever_they_are_read(self, tmp_path, smoke_result):
        path = tmp_path / "s.sqlite"
        fingerprint = smoke_result.fingerprint
        previous = set_registry(MetricsRegistry())
        try:
            with ResultStore(path) as store:
                store.put(smoke_result)
                for _ in range(7):
                    store.touch(fingerprint)
                store.touch("absent")
                assert store.stats()["hits"] == 7
                (row,) = store.rows()
                assert row["access_count"] == 7
                with _serving(store) as server:
                    _, text = _fetch(server.server_address[1], "/metrics")
                metrics = text.decode()
                assert 'repro_store_hits_total{backend="sqlite"} 7' in metrics
                assert "repro_store_hits 7" in metrics
                for _ in range(3):
                    store.touch(fingerprint)
            with ResultStore(path) as store:
                assert store.stats()["hits"] == 10
                (row,) = store.rows()
                assert row["access_count"] == 10
        finally:
            set_registry(previous)

    def test_a_burst_inside_one_second_is_one_write_transaction(
        self, tmp_path, smoke_result, clock
    ):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            statements = self.commits(store)
            start = clock.now
            for step in range(20):
                clock.now = start + step * 0.04
                store.touch(smoke_result.fingerprint)
            assert statements.count("COMMIT") == 0
            clock.now = start + 1.0
            store.touch(smoke_result.fingerprint)
            assert statements.count("COMMIT") == 1
            (row,) = store.rows()
            assert row["access_count"] == 21
            assert row["accessed_at"] == start + 1.0

    def test_pending_fingerprints_flush_at_the_threshold(self, tmp_path, clock):
        from repro.store.sqlite import _TOUCH_FLUSH_PENDING

        with ResultStore(tmp_path / "s.sqlite") as store:
            statements = self.commits(store)
            for index in range(_TOUCH_FLUSH_PENDING - 1):
                store.touch(f"fp-{index}")
            assert statements.count("COMMIT") == 0
            store.touch(f"fp-{_TOUCH_FLUSH_PENDING}")
            assert statements.count("COMMIT") == 1
            # Touches of absent entries count nothing, as before.
            assert store.stats()["hits"] == 0

    def test_gc_flushes_before_it_evicts(self, tmp_path, smoke_result, clock):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(smoke_result)
            clock.now += 1000.0
            store.touch(smoke_result.fingerprint)
            clock.now += 100.0
            assert store.gc(max_age_seconds=500.0) == 0
            assert len(store) == 1
            clock.now += 1000.0
            assert store.gc(max_age_seconds=500.0) == 1


# ----------------------------------------------------------- http input bounds
def _post_with_length(port: int, length: str) -> Tuple[int, Dict[str, Any]]:
    """POST /jobs announcing ``length`` body bytes and sending none."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest("POST", "/api/v1/jobs")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHttpInputBounds:
    def test_oversized_body_is_413_without_reading_it(self, api):
        from repro.store.server import MAX_BODY_BYTES

        port, _ = api
        status, envelope = _post_with_length(port, str(MAX_BODY_BYTES + 1))
        assert status == 413 and envelope["status"] == 413
        assert str(MAX_BODY_BYTES) in envelope["error"]

    @pytest.mark.parametrize("length", ["-5", "twelve"])
    def test_invalid_content_length_is_400(self, api, length):
        port, _ = api
        status, envelope = _post_with_length(port, length)
        assert status == 400 and envelope["status"] == 400
        assert "Content-Length" in envelope["error"]

    def test_silent_client_gives_its_thread_back(self, api, monkeypatch):
        from repro.store.server import REQUEST_TIMEOUT_SECONDS, _StoreRequestHandler

        assert _StoreRequestHandler.timeout == REQUEST_TIMEOUT_SECONDS > 0
        port, result = api
        monkeypatch.setattr(_StoreRequestHandler, "timeout", 0.2)
        with socket.create_connection(("127.0.0.1", port), timeout=30) as silent:
            # The server closes the connection once its timeout passes.
            assert silent.recv(1) == b""
        status, _ = _get(port, f"/api/v1/results/{result.fingerprint}/pareto")
        assert status == 200


# --------------------------------------------------------------- route table
#: What ``GET /`` lists, one line per route after its own.
INDEX_ENDPOINTS = [
    "GET  /metrics",
    "GET  /api/v1/health",
    "GET  /api/v1/stats",
    "GET  /api/v1/results",
    "GET  /api/v1/results/<fingerprint>",
    "GET  /api/v1/results/<fingerprint>/pareto",
    "GET  /api/v1/results/<fingerprint>/verification",
    "GET  /api/v1/studies",
    "GET  /api/v1/studies/<name>",
    "POST /api/v1/scenarios",
    "POST /api/v1/jobs",
    "GET  /api/v1/jobs",
    "GET  /api/v1/jobs/<id>",
    "POST /api/v1/jobs/<id>/requeue",
    "DELETE /api/v1/jobs/<id>",
]

#: The ``route`` label each request books into ``repro_http_requests_total``.
ROUTE_LABELS = [
    ("GET", "/", "/"),
    ("GET", "/metrics", "/metrics"),
    ("GET", "/metrics/x", "<unknown>"),
    ("GET", "/api", "<unknown>"),
    ("GET", "/api/v1", "<unknown>"),
    ("GET", "/api/v1/health", "/api/v1/health"),
    ("GET", "/api/v1/health/", "/api/v1/health"),
    ("GET", "/api/v1/health/x", "<unknown>"),
    ("GET", "/api/v1/stats", "/api/v1/stats"),
    ("GET", "/api/v1/scenarios", "/api/v1/scenarios"),
    ("GET", "/api/v1/results", "/api/v1/results"),
    ("GET", "/api/v1/results/abc", "/api/v1/results/<fingerprint>"),
    ("GET", "/api/v1/results/health", "/api/v1/results/<fingerprint>"),
    ("GET", "/api/v1/results/abc/pareto", "/api/v1/results/<fingerprint>/pareto"),
    ("GET", "/api/v1/results/abc/verification", "/api/v1/results/<fingerprint>/verification"),
    ("GET", "/api/v1/results/abc/other", "<unknown>"),
    ("GET", "/api/v1/results/abc/pareto/x", "<unknown>"),
    ("GET", "/api/v1/studies", "/api/v1/studies"),
    ("GET", "/api/v1/studies/s", "/api/v1/studies/<name>"),
    ("GET", "/api/v1/studies/s/x", "<unknown>"),
    ("GET", "/api/v1/jobs", "/api/v1/jobs"),
    ("GET", "/api/v1/jobs?state=queued", "/api/v1/jobs"),
    ("GET", "/api/v1/jobs/j", "/api/v1/jobs/<id>"),
    ("GET", "/api/v1/jobs/requeue", "/api/v1/jobs/<id>"),
    ("GET", "/api/v1/jobs/j/requeue", "/api/v1/jobs/<id>/requeue"),
    ("GET", "/api/v1/jobs/j/other", "<unknown>"),
    ("GET", "/api/v1/unknown", "<unknown>"),
    ("GET", "/api/v2/health", "<unknown>"),
    ("GET", "/API/v1/health", "<unknown>"),
    ("GET", "/other", "<unknown>"),
    ("POST", "/api/v1/health", "/api/v1/health"),
    ("POST", "/api/v1/jobs/j/other", "<unknown>"),
    ("DELETE", "/api/v1/jobs", "/api/v1/jobs"),
    ("PUT", "/api/v1/jobs/j", "/api/v1/jobs/<id>"),
    ("PATCH", "/api/v1/results", "/api/v1/results"),
]


def _booked_routes(registry: MetricsRegistry) -> Dict[str, float]:
    """``repro_http_requests_total`` summed per ``route`` label."""
    booked: Dict[str, float] = {}
    for name, labels, value in registry.iter_counters():
        if name == "repro_http_requests_total":
            route = dict(labels)["route"]
            booked[route] = booked.get(route, 0.0) + value
    return booked


class TestRouteTable:
    def test_every_route_answers_a_well_formed_request(self, smoke_result):
        from repro.store.server import ROUTES

        store = MemoryStore()
        store.put(smoke_result)
        store.record_study("route-study", [smoke_result.fingerprint])
        job = store.enqueue(smoke_scenario(name="route-job"))
        # A failed job: the requeue row resets it, then the delete row cancels it.
        store.fail(store.claim("w").id, "w", "boom", retryable=False)
        values = {
            "<fingerprint>": smoke_result.fingerprint,
            "<name>": "route-study",
            "<id>": job.id,
        }
        document = smoke_scenario(name="posted").to_dict()
        answered = []
        with _serving(store) as server:
            port = server.server_address[1]
            for method, template, _ in ROUTES:
                path = "/".join(values.get(part, part) for part in template.split("/"))
                body = document if method == "POST" and "<" not in template else None
                status, _ = _call(port, method, path, body)
                answered.append((method, template, status))
        assert [row for row in answered if row[2] not in (200, 201)] == [], answered
        assert len(answered) == len(INDEX_ENDPOINTS) + 1

    def test_index_and_metric_labels_are_pinned(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with _serving(MemoryStore()) as server:
                port = server.server_address[1]
                booked = []
                for count, (method, path, _) in enumerate(ROUTE_LABELS, start=1):
                    before = _booked_routes(registry)
                    status, body = _call(port, method, path)
                    if path == "/":
                        assert status == 200
                        assert json.loads(body)["endpoints"] == INDEX_ENDPOINTS
                    # The handler books its request after the response is sent.
                    deadline = time.monotonic() + 10.0
                    while sum(_booked_routes(registry).values()) < count:
                        assert time.monotonic() < deadline, (method, path)
                        time.sleep(0.002)
                    after = _booked_routes(registry)
                    (label,) = [r for r in after if after[r] != before.get(r, 0.0)]
                    booked.append((method, path, label))
        finally:
            set_registry(previous)
        assert booked == ROUTE_LABELS

    @pytest.mark.parametrize(
        "name, encoded", [("my study", "my%20study"), ("a/b", "a%2Fb")]
    )
    def test_path_parameters_are_percent_decoded(self, smoke_result, name, encoded):
        store = MemoryStore()
        store.put(smoke_result)
        store.record_study(name, [smoke_result.fingerprint])
        with _serving(store) as server:
            status, body = _call(server.server_address[1], "GET", f"/api/v1/studies/{encoded}")
        assert status == 200, body
        payload = json.loads(body)
        assert payload["study"] == name
        assert payload["fingerprints"] == [smoke_result.fingerprint]
        assert payload["results"][0]["name"] == smoke_result.name


# ------------------------------------------------------------ serve shutdown
class TestServeShutdown:
    @pytest.mark.parametrize("run", range(20))
    def test_sigterm_under_load_exits_and_flushes_touches(
        self, tmp_path, smoke_result, run
    ):
        path = tmp_path / "served.sqlite"
        with ResultStore(path) as store:
            store.put(smoke_result)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--store", str(path),
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        answered = []
        client = None
        try:
            banner = child.stdout.readline()
            port = int(re.search(r":(\d+)/api/v1", banner).group(1))
            paths = [
                f"/api/v1/results/{smoke_result.fingerprint}",
                f"/api/v1/results/{smoke_result.fingerprint}/pareto",
            ]

            def load() -> None:
                for index in itertools.count():
                    try:
                        status, _ = _fetch(port, paths[index % 2])
                    except (OSError, http.client.HTTPException):
                        return  # the server has gone
                    answered.append(status)

            client = threading.Thread(target=load, daemon=True)
            client.start()
            deadline = time.monotonic() + 30
            while len(answered) < 20 and time.monotonic() < deadline:
                time.sleep(0.01)
            child.send_signal(signal.SIGTERM)
            output, _ = child.communicate(timeout=30)
            assert child.returncode == 0, output
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on failure
                child.kill()
                child.wait(timeout=30)
            if client is not None:
                client.join(timeout=30)
        assert "server stopped" in output
        assert answered and set(answered) == {200}
        with ResultStore(path) as store:
            (row,) = store.rows()
            assert row["access_count"] == len(answered)
            assert store.stats()["hits"] == len(answered)

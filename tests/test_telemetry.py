"""Tests for the unified telemetry layer.

Covers the metrics registry (counters/gauges/histograms, snapshots, merge),
the JSONL span tracer and its report helpers, the Prometheus text exporter
and ``GET /metrics``, the ``repro telemetry`` CLI, cross-process aggregation
through :class:`WorkerPool`, crash-recovery retry accounting, and the
trace-vs-reported phase-total agreement the observability story rests on.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.config import GeneticParameters
from repro.scenarios import Scenario, execute_scenario
from repro.store import MemoryStore, ResultStore, WorkerPool, create_server
from repro.store.jobs import summarise_jobs
from repro.telemetry import (
    MetricsRegistry,
    Stopwatch,
    configure_tracing,
    get_registry,
    merge_snapshots,
    render_prometheus,
    reset_tracing,
    set_registry,
    span,
    timed_span,
    tracing_enabled,
)
from repro.telemetry.report import (
    aggregate_spans,
    build_span_tree,
    load_trace,
    render_span_tree,
    span_rows,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test gets a fresh global registry and no tracer."""
    previous = set_registry(MetricsRegistry())
    reset_tracing()
    yield
    set_registry(previous)
    reset_tracing()


def smoke_scenario(**changes) -> Scenario:
    base = Scenario(
        name="telemetry-smoke",
        genetic=GeneticParameters(population_size=16, generations=4),
    )
    return base.derive(**changes) if changes else base


# ------------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_counter_increments_by_label_set(self):
        registry = MetricsRegistry()
        registry.counter("hits", backend="memory").inc()
        registry.counter("hits", backend="memory").inc(2)
        registry.counter("hits", backend="sqlite").inc()
        assert registry.counter_value("hits", backend="memory") == 3
        assert registry.counter_value("hits", backend="sqlite") == 1
        assert registry.counter_value("hits", backend="other") == 0

    def test_gauge_is_last_writer_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        registry.gauge("depth").set(2)
        assert registry.gauge_value("depth") == 2

    def test_histogram_tracks_count_sum_min_max(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 1.0):
            registry.histogram("seconds").observe(value)
        stats = registry.histogram_stats("seconds")
        assert stats["count"] == 3
        assert stats["sum"] == pytest.approx(3.0)
        assert stats["min"] == 0.5
        assert stats["max"] == 1.5

    def test_timer_observes_elapsed_time(self):
        registry = MetricsRegistry()
        with registry.timer("block_seconds", phase="x"):
            pass
        stats = registry.histogram_stats("block_seconds", phase="x")
        assert stats["count"] == 1
        assert stats["sum"] >= 0.0

    def test_disabled_registry_books_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("hits").inc()
        registry.gauge("depth").set(1)
        registry.histogram("seconds").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == []
        assert snapshot["gauges"] == []
        assert snapshot["histograms"] == []

    def test_snapshot_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs").inc(2)
        b.counter("jobs").inc(3)
        a.histogram("wait").observe(1.0)
        b.histogram("wait").observe(3.0)
        a.merge(b.snapshot())
        assert a.counter_value("jobs") == 5
        stats = a.histogram_stats("wait")
        assert stats["count"] == 2
        assert stats["sum"] == pytest.approx(4.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0

    def test_merge_snapshots_equals_pairwise_merge(self):
        registries = []
        for n in range(3):
            registry = MetricsRegistry()
            registry.counter("work", worker=str(n % 2)).inc(n + 1)
            registries.append(registry)
        merged = merge_snapshots([r.snapshot() for r in registries])
        target = MetricsRegistry()
        target.merge(merged)
        assert target.counter_value("work", worker="0") == 1 + 3
        assert target.counter_value("work", worker="1") == 2

    def test_global_registry_swap_restores_previous(self):
        local = MetricsRegistry()
        previous = set_registry(local)
        try:
            get_registry().counter("swapped").inc()
            assert local.counter_value("swapped") == 1
        finally:
            set_registry(previous)
        assert get_registry() is previous


# -------------------------------------------------------------------- tracing
class TestTracing:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        with span("noop") as handle:
            assert handle is None

    def test_spans_nest_and_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        assert tracing_enabled()
        with span("outer", fingerprint="abc123"):
            with span("inner", step=1):
                pass
            with span("inner", step=2):
                pass
        reset_tracing()
        records = load_trace(str(path))
        assert [r["name"] for r in records] == ["inner", "inner", "outer"]
        outer = records[-1]
        assert outer["trace"] == "abc123"
        assert all(r["trace"] == "abc123" for r in records)
        assert all(r["parent"] == outer["span"] for r in records[:2])
        roots = build_span_tree(records)
        assert len(roots) == 1 and roots[0].name == "outer"
        assert [child.attrs["step"] for child in roots[0].children] == [1, 2]
        assert outer["duration"] >= max(r["duration"] for r in records[:2])

    def test_timed_span_duration_matches_histogram_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        registry = MetricsRegistry()
        with timed_span("measured", metric="block_seconds", registry=registry):
            time.sleep(0.01)
        reset_tracing()
        records = load_trace(str(path))
        assert len(records) == 1
        stats = registry.histogram_stats("block_seconds")
        # One perf_counter pair feeds both sinks: byte-identical durations.
        assert records[0]["duration"] == stats["sum"]

    def test_report_helpers_aggregate_and_flatten(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        for _ in range(3):
            with span("work", kind="unit"):
                pass
        reset_tracing()
        records = load_trace(str(path))
        rows = aggregate_spans(records)
        assert rows[0]["name"] == "work" and rows[0]["count"] == 3
        flat = span_rows(records)
        assert len(flat) == 3
        assert json.loads(flat[0]["attrs"]) == {"kind": "unit"}
        tree_lines = render_span_tree(build_span_tree(records))
        assert len(tree_lines) == 3 and all("work" in line for line in tree_lines)


# ----------------------------------------------------------------- prometheus
class TestPrometheus:
    def test_renders_counters_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", backend="memory").inc(2)
        registry.gauge("repro_depth").set(7)
        registry.histogram("repro_wait_seconds").observe(0.25)
        text = render_prometheus(registry, {"repro_entries": 3})
        assert '# TYPE repro_hits_total counter' in text
        assert 'repro_hits_total{backend="memory"} 2' in text
        assert "repro_depth 7" in text
        assert "repro_wait_seconds_count 1" in text
        assert "repro_wait_seconds_sum 0.25" in text
        assert "repro_entries 3" in text
        assert text.endswith("\n")

    def test_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_routes_total", route='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'route="a\\"b\\\\c\\nd"' in text


# ------------------------------------------------------- engine/report accord
class TestPhaseAgreement:
    def test_trace_totals_match_reported_phase_seconds(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        outcome = execute_scenario(smoke_scenario())
        reset_tracing()
        result = outcome.summary()
        records = load_trace(str(path))

        def phase_total(name: str) -> float:
            return sum(r["duration"] for r in records if r["name"] == name)

        assert phase_total("engine.evaluation") == pytest.approx(
            result.evaluation_seconds, rel=1e-9
        )
        assert phase_total("engine.selection") == pytest.approx(
            result.selection_seconds, rel=1e-9
        )
        assert phase_total("engine.operator") == pytest.approx(
            result.operator_seconds, rel=1e-9
        )

    def test_engine_counters_match_result_document(self):
        outcome = execute_scenario(smoke_scenario())
        result = outcome.summary()
        registry = get_registry()
        assert registry.counter_value("repro_engine_evaluations_total") == (
            result.evaluations
        )
        assert registry.counter_value("repro_engine_memo_hits_total") == (
            result.memo_hits
        )
        assert registry.counter_value(
            "repro_scenario_executions_total", kind="static"
        ) == 1

    def test_fingerprints_and_documents_ignore_telemetry(self):
        scenario = smoke_scenario()
        fingerprint = scenario.fingerprint()
        first = execute_scenario(scenario).summary()
        set_registry(MetricsRegistry())  # telemetry state must not leak in
        second = execute_scenario(scenario).summary()
        assert scenario.fingerprint() == fingerprint
        assert first.comparable_dict() == second.comparable_dict()
        assert "telemetry" not in first.to_dict()


# ----------------------------------------------------------- /metrics + serve
class TestMetricsEndpoint:
    def test_scrape_covers_request_store_and_queue_series(self):
        store = MemoryStore()
        store.get("missing")  # book a store miss
        store.enqueue(smoke_scenario())
        server = create_server(store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/health")
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as response:
                assert "text/plain" in response.headers["Content-Type"]
                text = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        # Request series (labelled by route template, not raw path).
        assert (
            'repro_http_requests_total{method="GET",route="/api/v1/health",'
            'status="200"} 1' in text
        )
        assert 'repro_http_request_seconds_count{route="/api/v1/health"} 1' in text
        # Store series from the registry plus scrape-time gauges.
        assert 'repro_store_misses_total{backend="memory"} 1' in text
        assert "repro_store_entries 0" in text
        # Queue series: the enqueue counter and the scrape-time depth gauge.
        assert "repro_jobs_enqueued_total 1" in text
        assert "repro_jobs_queued 1" in text

    def test_put_and_patch_answer_the_json_404_and_are_counted(self):
        server = create_server(MemoryStore(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            for method in ("PUT", "PATCH"):
                request = urllib.request.Request(f"{base}/api/v1/jobs", method=method)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request)
                assert excinfo.value.code == 404
                assert "application/json" in excinfo.value.headers["Content-Type"]
                envelope = json.loads(excinfo.value.read())
                assert envelope["status"] == 404 and method in envelope["error"]
            with urllib.request.urlopen(f"{base}/metrics") as response:
                text = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        for method in ("PUT", "PATCH"):
            assert (
                f'repro_http_requests_total{{method="{method}",route="/api/v1/jobs",'
                f'status="404"}} 1' in text
            )

    def test_access_log_line_is_structured_and_quietable(self, capsys):
        store = MemoryStore()
        server = create_server(store, port=0, quiet=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/health")
        finally:
            server.shutdown()
            server.server_close()
        err = capsys.readouterr().err
        assert "GET /api/v1/health status=200 duration_ms=" in err

    def test_quiet_server_logs_nothing(self, capsys):
        store = MemoryStore()
        server = create_server(store, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/health")
        finally:
            server.shutdown()
            server.server_close()
        assert capsys.readouterr().err == ""


# -------------------------------------------------------------- telemetry CLI
class TestTelemetryCommand:
    def test_prints_tree_and_aggregate_table(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path))
        with span("outer", fingerprint="deadbeef"):
            with span("inner"):
                pass
        reset_tracing()
        csv_path = tmp_path / "spans.csv"
        assert main(["telemetry", str(path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "2 span(s) across 1 trace(s)" in out
        assert "outer" in out and "inner" in out
        assert "total_s" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("name,trace,span,parent,depth,start")

    def test_cli_trace_flag_round_trips(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(smoke_scenario().to_dict()))
        trace_path = tmp_path / "trace.jsonl"
        assert main(["run", str(scenario_path), "--trace", str(trace_path)]) == 0
        reset_tracing()
        capsys.readouterr()
        assert main(["telemetry", str(trace_path), "--no-tree"]) == 0
        out = capsys.readouterr().out
        assert "engine.generation" in out
        assert "scenario.execute" in out


# --------------------------------------------------- cross-process aggregation
class TestWorkerPoolAggregation:
    def test_merged_registry_is_the_sum_of_child_snapshots(self, tmp_path):
        path = tmp_path / "pool.sqlite"
        scenarios = [smoke_scenario(name=f"pool-{n}") for n in range(4)]
        with ResultStore(path) as store:
            for scenario in scenarios:
                store.enqueue(scenario)
        pool = WorkerPool(str(path), concurrency=2, poll_interval=0.05)
        stats = pool.run(drain=True)
        assert stats.completed == 4
        assert len(pool.child_stats) == 2
        expected = merge_snapshots(
            [child.registry for child in pool.child_stats if child.registry]
        )
        assert stats.registry == expected
        # Per-counter: merged value == sum of the per-worker values.
        def counter_map(snapshot):
            return {
                (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
                for entry in snapshot.get("counters", [])
            }

        merged_counters = counter_map(stats.registry)
        summed: dict = {}
        for child in pool.child_stats:
            for key, value in counter_map(child.registry).items():
                summed[key] = summed.get(key, 0) + value
        assert merged_counters == summed
        # The children's work is visible in this process's global registry.
        registry = get_registry()
        assert registry.counter_value("repro_jobs_completed_total") == 4
        assert registry.counter_value("repro_jobs_claimed_total") == 4
        assert registry.counter_value("repro_engine_evaluations_total") > 0


# ------------------------------------------------------ retry/lease accounting
class TestRetryAccounting:
    def test_expired_lease_reclaim_counts_one_retry_per_extra_attempt(self):
        store = MemoryStore()
        job = store.enqueue(smoke_scenario(), max_attempts=3)
        first = store.claim("w1", lease_seconds=0.01)
        assert first.id == job.id
        time.sleep(0.05)
        second = store.claim("w2", lease_seconds=30.0)
        assert second.id == job.id and second.attempts == 2
        registry = get_registry()
        assert registry.counter_value("repro_jobs_claimed_total") == 2
        assert registry.counter_value("repro_jobs_lease_expired_total") == 1
        assert registry.counter_value("repro_jobs_retried_total") == 1
        store.complete(job.id, "w2")
        # Completion is not a retry; the count stays one-per-extra-attempt.
        assert registry.counter_value("repro_jobs_retried_total") == 1
        assert registry.counter_value("repro_jobs_completed_total") == 1

    def test_requeue_after_failure_counts_once_not_on_the_next_claim(self):
        store = MemoryStore()
        job = store.enqueue(smoke_scenario(), max_attempts=3)
        store.claim("w1", lease_seconds=30.0)
        store.fail(job.id, "w1", "transient", retryable=True, delay_seconds=0.0)
        registry = get_registry()
        assert registry.counter_value("repro_jobs_retried_total") == 1
        # The follow-up claim of the re-queued job is a plain claim.
        assert store.claim("w1", lease_seconds=30.0).id == job.id
        assert registry.counter_value("repro_jobs_retried_total") == 1
        assert registry.counter_value("repro_jobs_claimed_total") == 2

    def test_sqlite_books_the_same_series(self, tmp_path):
        with ResultStore(tmp_path / "q.sqlite") as store:
            job = store.enqueue(smoke_scenario(), max_attempts=3)
            store.claim("w1", lease_seconds=0.01)
            time.sleep(0.05)
            second = store.claim("w2", lease_seconds=30.0)
            assert second.id == job.id
            store.complete(job.id, "w2")
        registry = get_registry()
        assert registry.counter_value("repro_jobs_enqueued_total") == 1
        assert registry.counter_value("repro_jobs_claimed_total") == 2
        assert registry.counter_value("repro_jobs_lease_expired_total") == 1
        assert registry.counter_value("repro_jobs_retried_total") == 1
        assert registry.counter_value("repro_jobs_completed_total") == 1
        assert registry.histogram_stats("repro_jobs_run_seconds")["count"] == 1


# -------------------------------------------------------- summarise_jobs fix
class TestSummariseJobs:
    def test_inflight_jobs_count_into_the_run_mean(self):
        records = [
            {"state": "leased", "enqueued_at": 0.0, "started_at": 10.0,
             "finished_at": None},
            {"state": "done", "enqueued_at": 0.0, "started_at": 5.0,
             "finished_at": 15.0},
            {"state": "failed", "enqueued_at": 0.0, "started_at": 2.0,
             "finished_at": 4.0},
            {"state": "queued", "enqueued_at": 1.0, "started_at": None,
             "finished_at": None},
        ]
        stats = summarise_jobs(records, now=20.0)
        # Waits: every claimed job (10 + 5 + 2); runs: the leased job's
        # elapsed time so far (20-10) plus both finished attempts (10, 2).
        assert stats["mean_wait_seconds"] == pytest.approx(17.0 / 3.0)
        assert stats["mean_run_seconds"] == pytest.approx(22.0 / 3.0)
        assert stats["leased"] == 1 and stats["done"] == 1
        assert stats["total"] == 4 and stats["depth"] == 1

    def test_terminal_failed_and_dead_attempts_count_into_the_run_mean(self):
        records = [
            {"state": "dead", "enqueued_at": 0.0, "started_at": 1.0,
             "finished_at": 3.0},
        ]
        stats = summarise_jobs(records, now=100.0)
        assert stats["mean_run_seconds"] == pytest.approx(2.0)

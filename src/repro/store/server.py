"""Stdlib HTTP JSON API over a result store (``repro serve``).

The read half serves cached Pareto fronts, verification reports and study
listings straight out of a :class:`~repro.store.sqlite.ResultStore` (a file,
or the in-process :class:`~repro.store.sqlite.MemoryStore`) without ever
re-running an optimizer.  The write half is the job queue: ``POST
/api/v1/jobs`` accepts a scenario document, a study document or an array of
scenarios and enqueues one durable job per unique scenario for ``repro work``
workers to execute; clients poll ``GET /api/v1/jobs/<id>`` and fetch the
Pareto front by fingerprint once the job is done.  (``POST
/api/v1/scenarios`` remains the dry-run: it only *fingerprints* the document
and reports whether a result is already cached.)

Endpoints (all JSON):

====================================  =========================================
``GET  /``                            service banner + endpoint list
``GET  /metrics``                     Prometheus text-format telemetry scrape
``GET  /api/v1/health``               liveness probe with entry count
``GET  /api/v1/stats``                backend + queue stats (hits, depth ...)
``GET  /api/v1/results``              metadata row per stored result
``GET  /api/v1/results/<fp>``         the full ScenarioResult document
``GET  /api/v1/results/<fp>/pareto``  just that result's Pareto front rows
``GET  /api/v1/results/<fp>/verification``  replay rows + divergence summary
``GET  /api/v1/studies``              recorded study name -> fingerprints
``GET  /api/v1/studies/<name>``       summary rows of one recorded study
``POST /api/v1/scenarios``            scenario document -> fingerprint + cached?
``POST /api/v1/jobs``                 scenario/study document -> queued job(s)
``GET  /api/v1/jobs``                 job listing (``?state=``, ``?limit=``)
``GET  /api/v1/jobs/<id>``            one job: state, attempts, lease, error
``POST /api/v1/jobs/<id>/requeue``    reset a done/failed/dead job to queued
``DELETE /api/v1/jobs/<id>``          cancel a still-queued job
====================================  =========================================

Every error path answers with the same JSON envelope
(``{"error": ..., "status": ...}``): expected conditions map to
400/404/409/413, and any uncaught handler exception is converted into a 500
envelope instead of a raw traceback.  ``PUT`` and ``PATCH`` have no route and
answer the 404 envelope; ``HEAD`` keeps the standard library's bodiless 501.

``GET /results/<fp>`` and ``/pareto`` answer from the stored JSON text
(:meth:`~repro.store.sqlite.ResultStore.document`) in compact form: the
document route writes the text itself, the Pareto route a body built once
per stored text.  The server remembers, per (fingerprint, SHA-256 of the
text), that the text passed :func:`~repro.store.sqlite.decode_result`, so a
warm GET neither decodes nor re-encodes; a re-put row has a new digest and
is checked again, and a corrupt row still answers the 500 envelope.

Built on :class:`http.server.ThreadingHTTPServer`, so it has no dependencies
beyond the standard library; the store's internal lock makes the concurrent
handler threads safe.  Request bodies are capped at :data:`MAX_BODY_BYTES`
and idle connections time out after :data:`REQUEST_TIMEOUT_SECONDS`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..config import is_count
from ..errors import JobError, ReproError, ScenarioError, StoreError
from ..scenarios.scenario import Scenario
from ..scenarios.study import ScenarioResult
from ..telemetry import Stopwatch, get_registry, render_prometheus
from ..telemetry.prometheus import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from .jobs import DEFAULT_MAX_ATTEMPTS, Job, enqueue_submission
from .sqlite import ResultStore, decode_result

__all__ = ["StoreHTTPServer", "create_server", "serve"]

#: URL prefix of every API route.
API_PREFIX = "/api/v1"

#: Largest request body the server reads; a longer ``Content-Length``
#: answers 413 before any of the body is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a connection may stay silent before its handler thread gives up.
REQUEST_TIMEOUT_SECONDS = 10.0

#: Stored texts whose validation and Pareto body the server remembers.
SERVED_MEMO_ENTRIES = 256

#: How often :meth:`StoreHTTPServer.run` checks for a stop request (seconds).
STOP_POLL_SECONDS = 0.1

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

_ENDPOINTS = [
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


class _RequestError(Exception):
    """A malformed request: answered with ``status`` and the JSON envelope."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Served(NamedTuple):
    """What one validated stored text answers."""

    #: The ``/results`` body when the stored dict is not what ``to_dict``
    #: gives (a row written by an older version); ``None`` serves the text.
    document: Optional[bytes]
    #: The ``/pareto`` body.
    pareto: bytes


def _json_body(payload: Any) -> bytes:
    """Compact JSON plus a newline, the form of the stored documents."""
    return json.dumps(payload).encode("utf-8") + b"\n"


def _pareto_payload(result: ScenarioResult) -> Dict[str, Any]:
    return {
        "fingerprint": result.fingerprint,
        "name": result.name,
        "objective_keys": list(result.objective_keys),
        "pareto_rows": [dict(row) for row in result.pareto_rows],
    }


def _validate(fingerprint: str, text: str) -> _Served:
    """Full decode checks of a stored text (StoreError if it is corrupt)."""
    result = decode_result(fingerprint, text)
    canonical = result.to_dict()
    return _Served(
        document=None if canonical == json.loads(text) else _json_body(canonical),
        pareto=_json_body(_pareto_payload(result)),
    )


class StoreHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one result store.

    :meth:`run` serves until :meth:`stop`.  Request threads are not daemons,
    so ``server_close`` waits for the in-flight requests (each bounded by
    :data:`REQUEST_TIMEOUT_SECONDS` of silence): every answered request is
    complete on the wire, and closing the store afterwards writes its touch.
    """

    daemon_threads = False

    def __init__(
        self,
        address: Tuple[str, int],
        store: ResultStore,
        quiet: bool = True,
    ) -> None:
        self.store = store
        self.quiet = quiet
        self._stop_requested = False
        self._served: "OrderedDict[Tuple[str, bytes], _Served]" = OrderedDict()
        self._served_lock = threading.Lock()
        super().__init__(address, _StoreRequestHandler)

    def served(self, fingerprint: str, text: str, data: bytes) -> _Served:
        """The validated answers of a stored text (``data`` is its UTF-8).

        Memoised per (fingerprint, SHA-256 of the text) with at most
        :data:`SERVED_MEMO_ENTRIES` entries, least recently used out first.
        A text that fails the checks is never remembered.
        """
        key = (fingerprint, hashlib.sha256(data).digest())
        with self._served_lock:
            served = self._served.get(key)
            if served is not None:
                self._served.move_to_end(key)
                return served
        served = _validate(fingerprint, text)
        with self._served_lock:
            self._served[key] = served
            while len(self._served) > SERVED_MEMO_ENTRIES:
                self._served.popitem(last=False)
        return served

    def stop(self) -> None:
        """Ask :meth:`run` to return; safe inside a signal handler.

        Only a plain attribute is set.  Setting an event or starting a
        thread here could deadlock: the interrupted thread may hold
        threading's internal locks, e.g. inside ``Thread.start()``.
        """
        self._stop_requested = True

    def run(self) -> None:
        """Serve until :meth:`stop` (the ``repro serve`` loop).

        ``serve_forever`` runs on a helper thread while this thread polls
        the stop flag every :data:`STOP_POLL_SECONDS`, then shuts the loop
        down and joins it.
        """
        loop = threading.Thread(
            target=self.serve_forever, args=(STOP_POLL_SECONDS,), daemon=True
        )
        loop.start()
        try:
            while not self._stop_requested and loop.is_alive():
                time.sleep(STOP_POLL_SECONDS)
        finally:
            self.shutdown()
            loop.join()


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-store/1"
    server: StoreHTTPServer
    # A client that connects and then stays silent gives its thread back.
    timeout = REQUEST_TIMEOUT_SECONDS

    # ------------------------------------------------------------------ plumbing
    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # The stdlib per-response line is replaced by the single structured
        # access line emitted from _dispatch (it carries the duration too).
        pass

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:  # pragma: no cover - exercised manually
            super().log_message(format, *args)

    def _send_body(
        self, body: bytes, status: int = 200, content_type: str = _JSON_CONTENT_TYPE
    ) -> None:
        self._response_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send_body(json.dumps(payload, indent=2).encode("utf-8") + b"\n", status)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message, "status": status}, status=status)

    def _segments(self) -> List[str]:
        path = urlsplit(self.path).path
        return [segment for segment in path.split("/") if segment]

    def _result_or_404(self, fingerprint: str) -> Optional[ScenarioResult]:
        # peek + touch, not get(): the service is an archive, so it answers
        # rows regardless of get()'s version freshness policy — while still
        # counting the usage (hits + recency) so LRU gc never evicts what is
        # actively being served.
        result = self.server.store.peek(fingerprint)
        if result is None:
            self._send_error_json(
                404, f"no result stored under fingerprint {fingerprint!r}"
            )
            return None
        self.server.store.touch(fingerprint)
        return result

    def _send_stored(self, fingerprint: str, pareto: bool) -> None:
        """``/results/<fp>`` or its ``/pareto`` from the stored JSON text.

        Like :meth:`_result_or_404` this counts as usage (touch) and ignores
        the version policy; the text is validated before it is touched.
        """
        store = self.server.store
        text = store.document(fingerprint)
        if text is None:
            self._send_error_json(
                404, f"no result stored under fingerprint {fingerprint!r}"
            )
            return
        data = text.encode("utf-8")
        served = self.server.served(fingerprint, text, data)
        store.touch(fingerprint)
        if pareto:
            self._send_body(served.pareto)
        elif served.document is not None:
            self._send_body(served.document)
        else:
            self._send_body(data + b"\n")

    def _read_body_json(self) -> Any:
        """The request body decoded as JSON; raises ScenarioError on junk.

        A ``Content-Length`` that is not a non-negative integer answers 400,
        and one above :data:`MAX_BODY_BYTES` 413, before the body is read.
        """
        text = self.headers.get("Content-Length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            raise _RequestError(
                400, f"Content-Length must be a non-negative integer, got {text!r}"
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            # The unread body makes the connection unusable for another request.
            self.close_connection = True
            raise _RequestError(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{MAX_BODY_BYTES} bytes",
            )
        body = self.rfile.read(length) if length else b""
        try:
            return json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ScenarioError(f"request body is not valid JSON: {error}") from None

    # -------------------------------------------------------------------- routes
    def _dispatch(self, route: Callable[[], None]) -> None:
        """Run a router; every failure mode becomes the JSON error envelope.

        Expected conditions keep their specific status codes (malformed
        documents 400, bad transitions 409, oversized bodies 413, store
        trouble 500); anything uncaught is a 500 envelope rather than a raw
        traceback on the wire.

        Every request — success or envelope — books one
        ``repro_http_requests_total{method,route,status}`` increment, one
        ``repro_http_request_seconds{route}`` observation, and (unless the
        server is quiet) one structured access-log line.
        """
        self._response_status = 0
        with Stopwatch() as watch:
            try:
                route()
            except _RequestError as error:
                self._send_error_json(error.status, str(error))
            except ScenarioError as error:
                self._send_error_json(400, str(error))
            except JobError as error:
                self._send_error_json(409, str(error))
            except (StoreError, ReproError) as error:
                self._send_error_json(500, str(error))
            except (BrokenPipeError, ConnectionError):  # pragma: no cover - client gone
                pass
            except Exception as error:  # noqa: BLE001 - the envelope is the contract
                try:
                    self._send_error_json(
                        500, f"internal error: {type(error).__name__}: {error}"
                    )
                except (BrokenPipeError, ConnectionError):  # pragma: no cover
                    pass
        status = self._response_status
        route_label = self._route_label()
        registry = get_registry()
        registry.counter(
            "repro_http_requests_total",
            method=self.command,
            route=route_label,
            status=status,
        ).inc()
        registry.histogram(
            "repro_http_request_seconds", route=route_label
        ).observe(watch.elapsed)
        self.log_message(
            "%s %s status=%d duration_ms=%.1f",
            self.command,
            self.path,
            status,
            watch.elapsed * 1000.0,
        )

    def _route_label(self) -> str:
        """A low-cardinality route template for metric labels."""
        segments = self._segments()
        if not segments:
            return "/"
        if segments == ["metrics"]:
            return "/metrics"
        if segments[:2] != ["api", "v1"] or len(segments) == 2:
            return "<unknown>"
        route = segments[2:]
        head = route[0]
        if len(route) == 1 and head in (
            "health", "stats", "scenarios", "results", "jobs", "studies"
        ):
            return f"{API_PREFIX}/{head}"
        if head == "results" and len(route) == 2:
            return f"{API_PREFIX}/results/<fingerprint>"
        if head == "results" and len(route) == 3 and route[2] in (
            "pareto", "verification"
        ):
            return f"{API_PREFIX}/results/<fingerprint>/{route[2]}"
        if head == "jobs" and len(route) == 2:
            return f"{API_PREFIX}/jobs/<id>"
        if head == "jobs" and len(route) == 3 and route[2] == "requeue":
            return f"{API_PREFIX}/jobs/<id>/requeue"
        if head == "studies" and len(route) == 2:
            return f"{API_PREFIX}/studies/<name>"
        return "<unknown>"

    def _send_metrics(self) -> None:
        """``GET /metrics``: the global registry in Prometheus text format.

        Store/queue state (entry counts, queue depth, per-state totals ...)
        is derived at scrape time from :meth:`~ResultStore.stats` and
        exported as gauges alongside the registry's counters and timers.
        """
        extra: Dict[str, Any] = {}
        for key, value in self.server.store.stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            name = f"repro_{key}" if key.startswith("jobs_") else f"repro_store_{key}"
            extra[name] = value
        body = render_prometheus(get_registry(), extra).encode("utf-8")
        self._send_body(body, content_type=_METRICS_CONTENT_TYPE)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_delete)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_none)

    do_PATCH = do_PUT

    def _route_none(self) -> None:
        self._send_error_json(404, f"no {self.command} route for {self.path!r}")

    def _route_get(self) -> None:
        store = self.server.store
        segments = self._segments()
        if not segments:
            self._send_json(
                {
                    "service": "repro result store",
                    "backend": store.backend_name,
                    "path": store.location,
                    "endpoints": _ENDPOINTS,
                }
            )
            return
        if segments == ["metrics"]:
            self._send_metrics()
            return
        if segments[:2] != ["api", "v1"]:
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        route = segments[2:]
        if route == ["health"]:
            self._send_json(
                {"status": "ok", "backend": store.backend_name, "entries": len(store)}
            )
        elif route == ["stats"]:
            self._send_json(store.stats())
        elif route == ["results"]:
            self._send_json({"results": store.rows()})
        elif len(route) == 2 and route[0] == "results":
            self._send_stored(route[1], pareto=False)
        elif len(route) == 3 and route[0] == "results" and route[2] == "pareto":
            self._send_stored(route[1], pareto=True)
        elif len(route) == 3 and route[0] == "results" and route[2] == "verification":
            result = self._result_or_404(route[1])
            if result is not None:
                self._send_json(
                    {
                        "fingerprint": result.fingerprint,
                        "verified": result.verified,
                        "sim_conflicts": result.sim_conflicts,
                        "sim_divergences": result.sim_divergences,
                        "sim_max_divergence_kcycles": result.sim_max_divergence_kcycles,
                        "verification_rows": [
                            dict(row) for row in result.verification_rows
                        ],
                    }
                )
        elif route == ["jobs"]:
            query = parse_qs(urlsplit(self.path).query)
            state = query.get("state", [None])[0]
            limit_text = query.get("limit", [None])[0]
            try:
                limit = None if limit_text is None else int(limit_text)
            except ValueError:
                self._send_error_json(400, f"limit must be an integer, got {limit_text!r}")
                return
            jobs = store.jobs(state=state, limit=limit)
            self._send_json(
                {
                    "jobs": [self._job_payload(job) for job in jobs],
                    "stats": store.jobs_stats(),
                }
            )
        elif len(route) == 2 and route[0] == "jobs":
            job = store.job(route[1])
            if job is None:
                self._send_error_json(404, f"no job {route[1]!r} in the queue")
                return
            self._send_json(self._job_payload(job))
        elif route == ["studies"]:
            self._send_json({"studies": store.studies()})
        elif len(route) == 2 and route[0] == "studies":
            studies = store.studies()
            if route[1] not in studies:
                self._send_error_json(404, f"no study recorded as {route[1]!r}")
                return
            fingerprints = studies[route[1]]
            rows = []
            for fingerprint in fingerprints:
                result = store.peek(fingerprint)
                if result is not None:
                    rows.append(result.summary_row())
            self._send_json(
                {"study": route[1], "fingerprints": fingerprints, "results": rows}
            )
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def _route_post(self) -> None:
        segments = self._segments()
        route = segments[2:] if segments[:2] == ["api", "v1"] else None
        if route == ["scenarios"]:
            payload = self._read_body_json()
            try:
                scenario = Scenario.from_dict(payload)
            except ScenarioError as error:
                self._send_error_json(400, f"invalid scenario document: {error}")
                return
            fingerprint = scenario.fingerprint()
            cached = fingerprint in self.server.store
            self._send_json(
                {
                    "fingerprint": fingerprint,
                    "cached": cached,
                    "result_url": f"{API_PREFIX}/results/{fingerprint}",
                    "pareto_url": f"{API_PREFIX}/results/{fingerprint}/pareto",
                }
            )
        elif route == ["jobs"]:
            self._submit_jobs(self._read_body_json())
        elif route is not None and len(route) == 3 and route[0] == "jobs" and route[2] == "requeue":
            if self.server.store.job(route[1]) is None:
                self._send_error_json(404, f"no job {route[1]!r} in the queue")
                return
            job = self.server.store.requeue(route[1])
            self._send_json(self._job_payload(job))
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def _route_delete(self) -> None:
        segments = self._segments()
        if len(segments) == 4 and segments[:3] == ["api", "v1", "jobs"]:
            store = self.server.store
            job_id = segments[3]
            if store.cancel(job_id):
                self._send_json({"id": job_id, "cancelled": True})
                return
            job = store.job(job_id)
            if job is None:
                self._send_error_json(404, f"no job {job_id!r} in the queue")
            else:
                self._send_error_json(
                    409,
                    f"job {job_id!r} is {job.state!r}; only queued jobs can be "
                    f"cancelled (use POST .../requeue to reset finished jobs)",
                )
            return
        self._send_error_json(404, f"unknown path {self.path!r}")

    # ---------------------------------------------------------------- job plumbing
    def _submit_jobs(self, payload: Any) -> None:
        """``POST /jobs``: enqueue one job per unique submitted scenario.

        The body may be a bare scenario document, a study document, an array
        of scenario documents, or any of those wrapped as ``{"scenario": ...,
        "priority": ..., "max_attempts": ..., "study": ...}``.
        """
        priority = 0
        max_attempts = DEFAULT_MAX_ATTEMPTS
        study_override: Optional[str] = None
        # The option wrapper is keyed "scenario"; a dict with "scenarios" is a
        # study document and goes through scenarios_from_submission whole, so
        # its name is preserved.
        if isinstance(payload, dict) and "scenario" in payload:
            priority = payload.get("priority", priority)
            max_attempts = payload.get("max_attempts", max_attempts)
            if not is_count(priority):
                raise _RequestError(400, f"priority must be an integer, got {priority!r}")
            if not (is_count(max_attempts) and max_attempts >= 1):
                raise _RequestError(
                    400, f"max_attempts must be an integer of at least 1, got {max_attempts!r}"
                )
            if payload.get("study") is not None:
                study_override = str(payload["study"])
            payload = payload["scenario"]
        study_name, jobs = enqueue_submission(
            self.server.store,
            payload,
            priority=priority,
            max_attempts=max_attempts,
            study=study_override,
        )
        self._send_json(
            {
                "jobs": [self._job_payload(job) for job in jobs],
                "count": len(jobs),
                "study": study_name,
            },
            status=201,
        )

    def _job_payload(self, job: Job) -> Dict[str, Any]:
        """A job document plus navigation URLs and the cached/result state."""
        payload = job.to_dict()
        payload["job_url"] = f"{API_PREFIX}/jobs/{job.id}"
        payload["result_url"] = f"{API_PREFIX}/results/{job.fingerprint}"
        payload["pareto_url"] = f"{API_PREFIX}/results/{job.fingerprint}/pareto"
        payload["result_cached"] = job.fingerprint in self.server.store
        return payload


def create_server(
    store: ResultStore, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> StoreHTTPServer:
    """Bind (but do not start) a store server; ``port=0`` picks a free port."""
    return StoreHTTPServer((host, port), store, quiet=quiet)


def serve(
    store: ResultStore, host: str = "127.0.0.1", port: int = 8787, quiet: bool = True
) -> None:
    """Serve the store until interrupted (see :meth:`StoreHTTPServer.run`)."""
    with create_server(store, host, port, quiet=quiet) as server:
        server.run()

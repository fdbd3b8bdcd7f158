"""Compilation-as-a-service: the asyncio HTTP/JSON front end.

Stdlib only — the server speaks just enough HTTP/1.1 over asyncio
streams to serve a JSON API; there is no framework dependency to
install. Endpoints:

* ``POST /jobs`` — submit a :class:`~repro.engine.jobs.CompileJob`,
  either by content (``{"job": <wire payload>}``, see
  :meth:`CompileJob.to_wire`) or by key (``{"key": "<sha256>"}``,
  which only completes against the result cache). Returns the job
  status document; 202 when queued, 200 when already known/cached,
  429 + ``Retry-After`` under backpressure, 503 while draining. A body
  byte-identical to the one that created a job's record is answered
  from the record without being decoded.
* ``GET /jobs/<key>`` — poll one job's status/result summary (the
  summary carries the result's semantic fingerprint so clients can
  assert equivalence with a local compile).
* ``GET /jobs/<key>/events`` — the job's engine event stream as NDJSON:
  full history first, then live events until the job is terminal.
* ``GET /healthz`` — liveness (+ drain state).
* ``GET /stats`` — queue depth, result-cache stats, and a typed metrics
  export (histograms keep their buckets and carry p50/p95/p99).
* ``GET /metrics`` — the same registry in Prometheus text exposition
  format (see :mod:`repro.obs.prometheus`), scrapable by any
  Prometheus-compatible collector.

A key that is not a content hash (64 lowercase hex characters) is
answered 404 wherever one is accepted, before anything is looked up.

Every request runs under a ``serve.request`` span; when the caller
sent a ``traceparent`` header (see :mod:`repro.obs.propagate`) the
span continues the caller's trace, so a client-side span, the server's
request handling, and the shipped worker spans stitch into one trace.
Request latency, per-status counts and in-flight depth are recorded
under the ``serve.http`` metrics scope whether or not tracing is on.
Requests refused before routing — a malformed request line (400), more
than ``MAX_HEADER_LINES`` header lines (431), a request head still
incomplete ``HEAD_TIMEOUT_SECONDS`` after the connection opened (408),
a bad ``Content-Length`` (400) or an oversized body (413) — count in
the same ``requests`` and ``status.<code>`` counters.

Clients identify themselves with the ``X-Repro-Client`` header (used
for per-client in-flight caps); anonymous requests share one bucket.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import pathlib
import time

from repro.engine.cache import ResultCache, cache_root
from repro.engine.events import EventBus
from repro.engine.jobs import CompileJob
from repro.obs import spans as obs
from repro.obs.export import jsonl_line
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_exposition
from repro.obs.propagate import TRACEPARENT_HEADER, parse_traceparent
from repro.serve.admission import AdmissionController
from repro.serve.manager import JobManager

_log = get_logger("serve")

#: Largest accepted request body (a wire-format DDG is a few KiB).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Most header lines one request may carry; more is answered 431.
MAX_HEADER_LINES = 100

#: One deadline for the whole request head (request line and headers);
#: a client still sending its head when it passes is answered 408.
HEAD_TIMEOUT_SECONDS = 10.0

#: Client-identity header for per-client admission accounting.
CLIENT_HEADER = "x-repro-client"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclasses.dataclass
class ServeConfig:
    """Deployment knobs for one server (CLI flags map 1:1).

    The default data directory is the local cache root, so a server
    and the ``repro bench`` CLI share results.
    """

    host: str = "127.0.0.1"
    port: int = 8774
    data_dir: str | None = None
    executor: str = "process"
    workers: int = 2
    timeout: float | None = None
    queue_limit: int = 256
    max_inflight: int = 16
    retry_after: float = 1.0

    def resolved_data_dir(self) -> pathlib.Path:
        """Result-cache root (default: the engine's local cache root)."""
        if self.data_dir:
            return pathlib.Path(self.data_dir).expanduser()
        return cache_root()


def build_service(
    config: ServeConfig, bus: EventBus | None = None
) -> tuple[ResultCache, AdmissionController, JobManager, MetricsRegistry]:
    """Wire up the cache/admission/manager stack for one deployment.

    The cache is always on: ``REPRO_CACHE=off`` switches off the batch
    engine's store, not a server's.
    """
    metrics = MetricsRegistry()
    cache = ResultCache(root=config.resolved_data_dir(), enabled=True)
    admission = AdmissionController(
        max_queue=config.queue_limit,
        max_inflight_per_client=config.max_inflight,
        retry_after=config.retry_after,
        metrics=metrics,
    )
    manager = JobManager(
        cache=cache,
        admission=admission,
        executor=config.executor,
        workers=config.workers,
        timeout=config.timeout,
        bus=bus,
        metrics=metrics,
    )
    return cache, admission, manager, metrics


class ServeServer:
    """One HTTP listener bound to a :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        cache: ResultCache,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.cache = cache
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._http = manager.metrics.scoped("serve.http")

    async def start(self) -> None:
        """Bind and begin accepting (port 0 picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    async def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful drain: stop accepting, finish admitted jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.manager.drain(timeout=drain_timeout)

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception as exc:
            _log.error("request handler failed", error=f"{type(exc).__name__}: {exc}")
            try:
                await _respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(_read_head(reader), HEAD_TIMEOUT_SECONDS)
        except asyncio.TimeoutError:
            await self._reject(writer, 408, "request head timed out")
            return
        except _Refused as refused:
            await self._reject(writer, refused.status, str(refused))
            return
        if head is None:
            return  # closed before sending a request line
        method, path, headers = head
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            await self._reject(writer, 400, "bad content-length")
            return
        if length > MAX_BODY_BYTES:
            await self._reject(writer, 413, "body too large")
            return
        body = await reader.readexactly(length) if length else b""
        client = headers.get(CLIENT_HEADER, "")
        remote = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        self._http.counter("requests").inc()
        inflight = self._http.gauge("inflight")
        inflight.set(inflight.value + 1)
        started = time.perf_counter()
        try:
            with obs.span(
                "serve.request", remote=remote, method=method, path=path
            ) as span:
                status = await self._route(method, path, body, client, writer)
                span.set(status=status)
            self._http.counter(f"status.{status}").inc()
        finally:
            inflight.set(inflight.value - 1)
            self._http.histogram("request_seconds").observe(
                time.perf_counter() - started
            )

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, error: str
    ) -> None:
        """Answer a request refused before routing, counting it like any
        routed request."""
        self._http.counter("requests").inc()
        self._http.counter(f"status.{status}").inc()
        await _respond(writer, status, {"error": error})

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        client: str,
        writer: asyncio.StreamWriter,
    ) -> int:
        if path == "/healthz" and method == "GET":
            state = "draining" if self.manager.admission.draining else "ok"
            return await _respond(writer, 200, {"status": state})
        if path == "/stats" and method == "GET":
            return await _respond(writer, 200, self._stats_payload())
        if path == "/metrics" and method == "GET":
            return await _respond_text(
                writer, 200, render_exposition(self.manager.metrics)
            )
        if path == "/jobs":
            if method != "POST":
                return await _respond(writer, 405, {"error": "POST /jobs"})
            return await self._submit(body, client, writer)
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            if method != "GET":
                return await _respond(writer, 405, {"error": "GET only"})
            if rest.endswith("/events"):
                return await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
            return await self._status(rest, writer)
        return await _respond(writer, 404, {"error": f"no route {method} {path}"})

    # -- endpoints -------------------------------------------------------

    async def _submit(
        self, body: bytes, client: str, writer: asyncio.StreamWriter
    ) -> int:
        # The body that created a record is answered from it undecoded.
        body_digest = hashlib.sha256(body).hexdigest()
        record = self.manager.resubmit(body_digest)
        if record is not None:
            return await _respond(writer, 200, record.to_payload())
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return await _respond(writer, 400, {"error": f"bad JSON body: {exc}"})
        if "key" in payload and "job" not in payload:
            record = self.manager.lookup(payload["key"])
            if record is None:
                return await _respond(
                    writer,
                    404,
                    {"error": "unknown key; submit the job content instead"},
                )
            return await _respond(writer, 200, record.to_payload())
        try:
            job = CompileJob.from_wire(payload["job"])
        except Exception as exc:
            return await _respond(
                writer, 400, {"error": f"bad job payload: {type(exc).__name__}: {exc}"}
            )
        record, decision, existed = self.manager.submit(
            job, client=client, body_digest=body_digest
        )
        if record is None:
            return await _respond(
                writer,
                decision.http_status,
                {"error": decision.reason, "retry_after": decision.retry_after},
                extra_headers={"Retry-After": f"{decision.retry_after:g}"},
            )
        status = 200 if existed or record.status.value == "done" else 202
        return await _respond(writer, status, record.to_payload())

    async def _status(self, key: str, writer: asyncio.StreamWriter) -> int:
        record = self.manager.lookup(key)
        if record is None:
            return await _respond(writer, 404, {"error": f"unknown job {key[:16]}"})
        return await _respond(writer, 200, record.to_payload())

    async def _stream_events(self, key: str, writer: asyncio.StreamWriter) -> int:
        record = self.manager.lookup(key)
        if record is None:
            return await _respond(writer, 404, {"error": f"unknown job {key[:16]}"})
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        async for event in self.manager.stream_events(key):
            writer.write(jsonl_line(event.to_dict()).encode("utf-8"))
            await writer.drain()
        return 200

    def _stats_payload(self) -> dict:
        cache_stats = self.cache.stats()
        return {
            "jobs": self.manager.counts(),
            "admission": {
                "queue_depth": self.manager.admission.depth,
                "queue_limit": self.manager.admission.max_queue,
                "draining": self.manager.admission.draining,
            },
            "cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "writes": cache_stats.writes,
                "entries": cache_stats.entries,
                "total_bytes": cache_stats.total_bytes,
            },
            # Typed export (not snapshot()): histograms keep their
            # bucket vectors and precomputed p50/p95/p99 instead of
            # being flattened to count/sum/max scalars.
            "metrics": {
                name: record
                for name, record in sorted(self.manager.metrics.export().items())
            },
        }


class _Refused(Exception):
    """A request head answered with an error ``status``."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """Read the request line and headers.

    Returns ``(method, path, headers)``, or None when the client closed
    before a request line.

    Raises:
        _Refused: a malformed request line or too many header lines.
    """
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) != 3:
        raise _Refused(400, "malformed request line")
    method, path, _version = parts
    headers: dict[str, str] = {}
    lines = 0
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            return method, path, headers
        lines += 1
        if lines > MAX_HEADER_LINES:
            raise _Refused(431, "too many header lines")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()


async def _respond_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = "text/plain; version=0.0.4; charset=utf-8",
) -> int:
    """Write one plain-text response (the ``/metrics`` exposition)."""
    body = text.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return status


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: dict[str, str] | None = None,
) -> int:
    """Write one JSON response and return the status (for span attrs)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return status

"""Pluggable exporters for observability records.

One :class:`Exporter` interface serves both halves of the telemetry
the repository produces:

* **spans** from :mod:`repro.obs.spans` (``export_span``), and
* **engine events** from :mod:`repro.engine.events` (``export_event``)
  — the engine's ``EventBus`` fans out to exporters, so event
  consumers and span exporters share one fan-out and one failure policy.

Three concrete exporters ship here: :class:`InMemoryExporter` (tests
and programmatic consumers), :class:`JsonlExporter` (one JSON object
per record, append-only), and the Chrome trace-event writer
(:func:`chrome_trace` / :func:`write_chrome_trace`), whose output loads
directly into ``chrome://tracing`` or https://ui.perfetto.dev.
:func:`jsonl_line` is the repository's one JSONL encoder: the trace and
event files, ``REPRO_LOG`` records and the server's NDJSON event stream
all write their lines through it.

Exporters must never break the run they observe: the
:class:`ExportPipeline` fan-out swallows (and counts) exporter
exceptions, mirroring the engine's historical ``EventBus`` contract.
"""

from __future__ import annotations

import json


def jsonl_line(record: dict) -> str:
    """``record`` as one JSON Lines line: sorted keys, trailing newline."""
    return json.dumps(record, sort_keys=True) + "\n"


def _wire(span) -> dict:
    """Accept both Span objects and wire dicts."""
    return span if isinstance(span, dict) else span.to_wire()


class Exporter:
    """Observability record consumer (subclass and override)."""

    def export_span(self, span) -> None:
        """Consume one finished :class:`~repro.obs.spans.Span`."""

    def export_event(self, event) -> None:
        """Consume one :class:`~repro.engine.events.Event`."""

    def close(self) -> None:
        """Flush/teardown; called once at the end of a run."""


class ExportPipeline:
    """Fan records out to exporters; a broken exporter never breaks a run."""

    def __init__(self, exporters=()) -> None:
        self.exporters = list(exporters)
        self.dropped = 0

    def export_span(self, span) -> None:
        for exporter in self.exporters:
            try:
                exporter.export_span(span)
            except Exception:
                self.dropped += 1

    def export_event(self, event) -> None:
        for exporter in self.exporters:
            try:
                exporter.export_event(event)
            except Exception:
                self.dropped += 1

    def close(self) -> None:
        for exporter in self.exporters:
            try:
                exporter.close()
            except Exception:
                self.dropped += 1


class InMemoryExporter(Exporter):
    """Keep every record in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.events: list = []

    def export_span(self, span) -> None:
        self.spans.append(span)

    def export_event(self, event) -> None:
        self.events.append(event)

    def drain_spans(self) -> list:
        """Return and clear the collected spans."""
        spans, self.spans = self.spans, []
        return spans


class JsonlExporter(Exporter):
    """Append records as JSON lines to a file.

    Spans are written as ``{"type": "span", ...}`` (wire form), events
    as ``{"type": "event", ...}`` (their ``to_dict`` form), so one file
    can interleave both and readers can filter on ``type``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def _write(self, record: dict) -> None:
        self._handle.write(jsonl_line(record))

    def export_span(self, span) -> None:
        self._write({"type": "span", **_wire(span)})

    def export_event(self, event) -> None:
        self._write({"type": "event", **event.to_dict()})

    def close(self) -> None:
        self._handle.flush()
        self._handle.close()


def write_spans(spans, path: str) -> int:
    """Write finished spans to a JSONL trace file; returns the count."""
    exporter = JsonlExporter(path)
    count = 0
    for span in spans:
        exporter.export_span(span)
        count += 1
    exporter.close()
    return count


def read_trace(path: str) -> list[dict]:
    """Load the span records of a JSONL trace file (wire dicts)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type", "span") == "span":
                records.append(record)
    return records


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------


def chrome_trace(spans) -> dict:
    """Convert spans to a Chrome trace-event JSON document.

    Each span becomes one complete (``"ph": "X"``) event; timestamps
    are microseconds relative to the earliest span so the viewer opens
    at t=0. Process lanes are labelled ``engine`` (the coordinating
    process, i.e. the pid hosting the root spans) or ``worker``.
    """
    records = [_wire(span) for span in spans]
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(record["start"] for record in records)
    root_pids = {r["pid"] for r in records if r.get("parent") is None}
    events = []
    for pid in sorted({record["pid"] for record in records}):
        label = "engine" if pid in root_pids else f"worker-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for record in records:
        args = dict(record.get("attrs", {}))
        args["span_id"] = record["id"]
        if record.get("parent") is not None:
            args["parent_id"] = record["parent"]
        if record.get("error"):
            args["error"] = True
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round((record["start"] - base) * 1e6, 3),
                "dur": round(record["dur"] * 1e6, 3),
                "pid": record["pid"],
                "tid": record["tid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path: str) -> int:
    """Write the Chrome trace JSON for ``spans``; returns the event count."""
    document = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])

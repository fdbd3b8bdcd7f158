"""Structured logging with trace correlation.

A tiny stdlib-only logger for operational messages from long-running
components (the serve daemon, the engine executor). Every record is a
flat dict — ``ts``, ``level``, ``logger``, ``event``, ``pid``, plus
arbitrary keyword fields — and is stamped with the current trace/span
ids when a span is open (:func:`repro.obs.spans.current_context`), so a
log line emitted inside ``serve.job`` can be joined against the trace
that produced it.

Output mode comes from ``REPRO_LOG``:

* ``text`` (default) — single human-readable line on stderr;
* ``json`` — one JSON object per line on stderr;
* ``off`` — suppressed;
* any other value — treated as a path; JSONL records are appended.

``REPRO_LOG_LEVEL`` (``debug``/``info``/``warning``/``error``, default
``info``) filters below-threshold records. Both knobs are re-read per
record: tests and the serve daemon can flip them at runtime without
re-creating loggers, and the cost is one ``os.environ`` lookup on a
path that is never hot.
"""

from __future__ import annotations

import os
import sys
import time

from repro.obs import spans
from repro.obs.export import jsonl_line

#: Output mode: ``off`` | ``text`` (default) | ``json`` | a file path.
LOG_ENV = "REPRO_LOG"
#: Minimum level emitted: debug | info | warning | error (default info).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _threshold() -> int:
    raw = os.environ.get(LOG_LEVEL_ENV, "info").strip().lower()
    return _LEVELS.get(raw, 20)


class Logger:
    """A named emitter of structured log records."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **fields) -> dict | None:
        """Emit one record; returns the record dict, or None if filtered."""
        mode = os.environ.get(LOG_ENV, "text").strip()
        if mode == "off" or _LEVELS.get(level, 20) < _threshold():
            return None
        record: dict = {
            "ts": round(time.time(), 6),
            "level": level,
            "logger": self.name,
            "event": event,
            "pid": os.getpid(),
        }
        ctx = spans.current_context()
        if ctx is not None:
            record["trace"] = ctx.trace_id
            record["span"] = ctx.span_id
        record.update(fields)
        self._emit(mode, record)
        return record

    def _emit(self, mode: str, record: dict) -> None:
        if mode == "json":
            sys.stderr.write(jsonl_line(record))
        elif mode == "text":
            extras = " ".join(
                f"{key}={record[key]}"
                for key in record
                if key not in ("ts", "level", "logger", "event", "pid")
            )
            line = f"repro {record['logger']}: {record['event']}"
            print(line + (f" ({extras})" if extras else ""), file=sys.stderr)
        else:
            try:
                with open(mode, "a", encoding="utf-8") as handle:
                    handle.write(jsonl_line(record))
            except OSError:
                sys.stderr.write(jsonl_line(record))

    def debug(self, event: str, **fields) -> dict | None:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> dict | None:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> dict | None:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> dict | None:
        return self.log("error", event, **fields)


_LOGGERS: dict[str, Logger] = {}


def get_logger(name: str) -> Logger:
    """Get (or create) the logger ``name``."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS[name] = Logger(name)
    return logger

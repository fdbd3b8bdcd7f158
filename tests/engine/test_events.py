"""Structured events, the progress line and the event bus."""

import io
import re

from repro.engine.events import (
    Event,
    EventBus,
    EventKind,
    StderrProgressSink,
)
from repro.obs.export import Exporter, InMemoryExporter


def event(kind=EventKind.FINISHED, **kwargs):
    defaults = dict(kind=kind, key="ab" * 32, tag="bench/loop_0")
    defaults.update(kwargs)
    return Event(**defaults)


class TestStderrProgressSink:
    def test_counts_terminal_events(self):
        stream = io.StringIO()
        sink = StderrProgressSink(total=4, stream=stream)
        sink.export_event(event(EventKind.STARTED))  # ignored: not terminal
        sink.export_event(event(EventKind.FINISHED))
        sink.export_event(event(EventKind.CACHE_HIT))
        sink.export_event(event(EventKind.ERROR))
        sink.export_event(event(EventKind.TIMEOUT))
        sink.close()
        assert sink.done == 4
        assert sink.hits == 1 and sink.failed == 1 and sink.timeouts == 1
        out = stream.getvalue()
        assert "[4/4]" in out and "1 cached" in out
        assert out.endswith("\n")

    def test_line_reports_elapsed_and_throughput(self):
        stream = io.StringIO()
        sink = StderrProgressSink(total=2, stream=stream)
        sink.export_event(event(EventKind.FINISHED))
        sink.export_event(event(EventKind.FINISHED))
        sink.close()
        out = stream.getvalue()
        assert sink.started_at is not None
        # "<elapsed>s <rate> jobs/s" appears on the progress line.
        assert re.search(r"\d+\.\d+s \d+\.\d+ jobs/s", out)

    def test_elapsed_counts_from_the_first_event(self, monkeypatch):
        clock = iter([100.0, 100.0, 102.0])
        monkeypatch.setattr(
            "repro.engine.events.time.monotonic", lambda: next(clock)
        )
        stream = io.StringIO()
        sink = StderrProgressSink(total=2, stream=stream)
        sink.export_event(event(EventKind.FINISHED))  # starts the clock at 100
        sink.export_event(event(EventKind.FINISHED))  # emitted at 102 -> 2.0s
        assert "2.0s 1.0 jobs/s" in stream.getvalue()


class TestEventBus:
    def test_broken_sink_never_breaks_the_run(self):
        class Exploding(Exporter):
            def export_event(self, _):
                raise RuntimeError("boom")

            def close(self):
                raise RuntimeError("boom")

        good = InMemoryExporter()
        bus = EventBus([Exploding(), good])
        bus.emit(event())
        bus.close()
        assert len(good.events) == 1
        assert bus.dropped == 2  # one emit + one close failure

    def test_timestamps_are_stamped(self):
        sink = InMemoryExporter()
        EventBus([sink]).emit(event())
        assert sink.events[0].timestamp > 0

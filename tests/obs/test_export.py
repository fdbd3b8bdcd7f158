"""Exporters, trace files, Chrome conversion, and the summaries."""

import json

import pytest

from repro.obs.export import (
    ExportPipeline,
    Exporter,
    InMemoryExporter,
    JsonlExporter,
    chrome_trace,
    jsonl_line,
    read_trace,
    write_chrome_trace,
    write_spans,
)
from repro.engine.events import Event, EventKind
from repro.obs.summary import (
    aggregate,
    diff_summary,
    flame_summary,
    self_times,
    stage_summary,
)


def wire(name, sid, parent=None, start=0.0, dur=1.0, pid=1, tid=1, **extra):
    record = {
        "name": name,
        "id": sid,
        "parent": parent,
        "start": start,
        "dur": dur,
        "pid": pid,
        "tid": tid,
    }
    record.update(extra)
    return record


class BrokenExporter(Exporter):
    def export_span(self, span):
        raise RuntimeError("broken")

    def export_event(self, event):
        raise RuntimeError("broken")

    def close(self):
        raise RuntimeError("broken")


class TestPipeline:
    def test_broken_exporter_is_counted_not_raised(self):
        memory = InMemoryExporter()
        pipeline = ExportPipeline([BrokenExporter(), memory])
        pipeline.export_span(wire("s", 1))
        pipeline.export_event({"kind": "x"})
        pipeline.close()
        assert pipeline.dropped == 3
        assert len(memory.spans) == 1
        assert len(memory.events) == 1

    def test_in_memory_drain(self):
        memory = InMemoryExporter()
        memory.export_span(wire("s", 1))
        assert len(memory.drain_spans()) == 1
        assert memory.drain_spans() == []


class TestJsonl:
    def test_span_and_event_lines_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        exporter = JsonlExporter(path)
        exporter.export_span(wire("pass.schedule", 1, dur=0.5))
        exporter.close()
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["type"] == "span"
        assert lines[0]["name"] == "pass.schedule"

    def test_write_and_read_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        spans = [wire("a", 1), wire("b", 2, parent=1)]
        assert write_spans(spans, path) == 2
        back = read_trace(path)
        assert [r["name"] for r in back] == ["a", "b"]
        assert back[1]["parent"] == 1

    def test_read_trace_filters_event_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"type": "event", "kind": "started"})
            + "\n"
            + json.dumps({"type": "span", **wire("a", 1)})
            + "\n\n"
        )
        assert [r["name"] for r in read_trace(str(path))] == ["a"]


def event(kind=EventKind.FINISHED, **kwargs):
    return Event(kind=kind, key="ab" * 32, tag="bench/loop_0", **kwargs)


class TestJsonlEvents:
    def test_lines_are_parseable_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export_event(event(duration=1.25, ii=4, mii=3))
        exporter.export_event(event(EventKind.ERROR, error="unschedulable"))
        exporter.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["type"] == second["type"] == "event"
        assert first["kind"] == "finished"
        assert first["ii"] == 4 and first["mii"] == 3
        assert second["kind"] == "error"
        assert second["error"] == "unschedulable"

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for _ in range(2):
            exporter = JsonlExporter(str(path))
            exporter.export_event(event())
            exporter.close()
        assert len(path.read_text().strip().splitlines()) == 2

    def test_one_encoder_for_every_line(self):
        record = {"b": 1, "a": [1.5, "x"]}
        assert jsonl_line(record) == '{"a": [1.5, "x"], "b": 1}\n'


class TestChrome:
    def test_structure(self, tmp_path):
        spans = [
            wire("engine.run_jobs", 1, start=10.0, dur=2.0, pid=100),
            wire("engine.job", 2, parent=1, start=10.5, dur=1.0, pid=200),
            wire("pass.partition", 3, parent=2, start=10.6, dur=0.4, pid=200,
                 error=True, attrs={"ii": 3}),
        ]
        doc = chrome_trace(spans)
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        labels = {e["pid"]: e["args"]["name"] for e in meta}
        assert labels[100] == "engine"
        assert labels[200] == "worker-200"
        assert len(slices) == 3
        # Timestamps are microseconds relative to the earliest span.
        by_name = {e["name"]: e for e in slices}
        assert by_name["engine.run_jobs"]["ts"] == 0.0
        assert by_name["engine.job"]["ts"] == 500000.0
        assert by_name["pass.partition"]["args"]["error"] is True
        assert by_name["pass.partition"]["args"]["ii"] == 3
        assert by_name["pass.partition"]["cat"] == "pass"

        path = str(tmp_path / "trace.chrome.json")
        assert write_chrome_trace(spans, path) == 5
        assert json.load(open(path))["traceEvents"]

    def test_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestSelfTime:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            wire("root", 1, dur=1.0),
            wire("child", 2, parent=1, dur=0.3),
            wire("child", 3, parent=1, dur=0.2),
            wire("grandchild", 4, parent=2, dur=0.1),
        ]
        selfs = self_times(spans)
        # 1.0 - (0.3 + 0.2); the grandchild is not double-counted.
        assert selfs[1] == pytest.approx(0.5)
        assert selfs[2] == pytest.approx(0.2)  # 0.3 - 0.1
        assert selfs[4] == pytest.approx(0.1)

    def test_self_time_clamps_at_zero_for_parallel_children(self):
        # Worker children of one batch span can sum past its duration.
        spans = [
            wire("batch", 1, dur=1.0),
            wire("job", 2, parent=1, dur=0.8),
            wire("job", 3, parent=1, dur=0.8),
        ]
        assert self_times(spans)[1] == 0.0

    def test_aggregate_groups_by_name(self):
        spans = [
            wire("pass.a", 1, dur=0.5),
            wire("pass.a", 2, dur=0.3, error=True),
            wire("pass.b", 3, dur=0.1),
        ]
        stats = aggregate(spans)
        assert stats["pass.a"].count == 2
        assert stats["pass.a"].total == 0.8
        assert stats["pass.a"].errors == 1
        assert stats["pass.b"].mean == 0.1


class TestSummaries:
    def test_flame_summary_orders_by_self_time(self):
        spans = [
            wire("outer", 1, dur=1.0),
            wire("hot", 2, parent=1, dur=0.9),
        ]
        text = flame_summary(spans, top=5)
        lines = [l for l in text.splitlines() if l.startswith(("hot", "outer"))]
        assert lines[0].startswith("hot")
        assert "total self time" in text

    def test_stage_summary_covers_pass_spans_only(self):
        spans = [
            wire("pass.partition", 1, dur=0.5),
            wire("engine.job", 2, dur=2.0),
        ]
        text = stage_summary(spans)
        assert "pass.partition" in text
        assert "engine.job" not in text

    def test_stage_summary_empty(self):
        assert "no pass.* spans" in stage_summary([wire("engine.job", 1)])

    def test_diff_summary_reports_deltas(self):
        a = [wire("pass.a", 1, dur=1.0)]
        b = [wire("pass.a", 1, dur=0.4), wire("pass.new", 2, dur=0.2)]
        text = diff_summary(a, b)
        assert "-0.6000" in text
        assert "new" in text
        assert "total self time" in text

"""The structured logger: modes, levels, trace correlation."""

import json

from repro import obs
from repro.obs.log import LOG_ENV, LOG_LEVEL_ENV, get_logger


class TestModes:
    def test_off_suppresses(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "off")
        assert get_logger("t").info("hello") is None
        assert capsys.readouterr().err == ""

    def test_text_mode_prints_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "text")
        get_logger("serve").info("listening", url="http://x:1")
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro serve: listening" in err
        assert "url=http://x:1" in err

    def test_json_mode_emits_parseable_records(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "json")
        get_logger("engine").warning("worker died, retrying job", attempt=1)
        record = json.loads(capsys.readouterr().err)
        assert record["level"] == "warning"
        assert record["logger"] == "engine"
        assert record["event"] == "worker died, retrying job"
        assert record["attempt"] == 1
        assert record["pid"] > 0
        assert record["ts"] > 0

    def test_path_mode_appends_jsonl(self, monkeypatch, tmp_path):
        path = tmp_path / "serve.log"
        monkeypatch.setenv(LOG_ENV, str(path))
        log = get_logger("serve")
        log.info("first")
        log.info("second", n=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["event"] for line in lines] == [
            "first",
            "second",
        ]

    def test_path_mode_lines_are_sorted_key_json(self, monkeypatch, tmp_path):
        path = tmp_path / "serve.log"
        monkeypatch.setenv(LOG_ENV, str(path))
        record = get_logger("serve").info("listening", url="http://x:1", n=2)
        assert path.read_text() == json.dumps(record, sort_keys=True) + "\n"


class TestLevels:
    def test_below_threshold_is_dropped(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "json")
        monkeypatch.setenv(LOG_LEVEL_ENV, "warning")
        log = get_logger("t")
        assert log.debug("nope") is None
        assert log.info("nope") is None
        assert log.warning("yes") is not None
        assert capsys.readouterr().err.count("\n") == 1

    def test_default_threshold_is_info(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "json")
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        log = get_logger("t")
        assert log.debug("nope") is None
        assert log.info("yes") is not None
        capsys.readouterr()


class TestTraceCorrelation:
    def test_records_stamp_open_span_context(self, monkeypatch):
        monkeypatch.setenv(LOG_ENV, "off")
        # mode off still filters; use json to capture the record object.
        monkeypatch.setenv(LOG_ENV, "json")
        with obs.force_enabled():
            with obs.span("outer") as span:
                record = get_logger("t").info("inside")
            assert record["trace"] == span.trace_id
            assert record["span"] == span.span_id
            obs.tracer().drain()

    def test_no_span_means_no_trace_fields(self, monkeypatch):
        monkeypatch.setenv(LOG_ENV, "json")
        record = get_logger("t").info("outside")
        assert "trace" not in record
        assert "span" not in record

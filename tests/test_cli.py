"""The command-line interface."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.cli import main
from repro.ddg import io as ddg_io
from repro.workloads.patterns import daxpy


class TestCompile:
    def test_compile_pattern(self, capsys):
        assert main(["compile", "--machine", "2c1b2l64r", "--loop", "daxpy"]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out and "II" in out

    def test_compile_kernel_dump(self, capsys):
        main(["compile", "--loop", "daxpy", "--kernel"])
        out = capsys.readouterr().out
        assert "slot=" in out

    def test_baseline_flag(self, capsys):
        main(["compile", "--loop", "stencil5", "--no-replication"])
        out = capsys.readouterr().out
        assert "[baseline]" in out
        assert "replicas 0" in out

    def test_compile_json_file(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        ddg_io.save(daxpy(), str(path))
        assert main(["compile", "--loop", str(path)]) == 0
        assert "daxpy" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_reports_ipc(self, capsys):
        main(["simulate", "--loop", "daxpy", "-n", "50"])
        out = capsys.readouterr().out
        assert "IPC" in out and "cycles" in out

    def test_unified_machine(self, capsys):
        main(["simulate", "--machine", "unified", "--loop", "stencil5"])
        out = capsys.readouterr().out
        assert "0 copies" in out


class TestSuite:
    def test_single_benchmark(self, capsys):
        main(["suite", "--benchmark", "mgrid", "--limit", "2"])
        out = capsys.readouterr().out
        assert "mgrid" in out and "speedup" in out


class TestSchemes:
    def test_cloning_scheme(self, capsys):
        main(["compile", "--loop", "daxpy", "--scheme", "cloning"])
        assert "[value_cloning]" in capsys.readouterr().out

    def test_macro_scheme(self, capsys):
        main(["compile", "--loop", "stencil5", "--scheme", "macro"])
        assert "[macro_replication]" in capsys.readouterr().out

    def test_scheme_overrides_no_replication(self, capsys):
        main(
            ["compile", "--loop", "daxpy", "--no-replication",
             "--scheme", "replication"]
        )
        assert "[replication]" in capsys.readouterr().out


class TestAsm:
    def test_assembly_emitted(self, capsys):
        main(["asm", "--loop", "daxpy", "--machine", "2c1b2l64r"])
        out = capsys.readouterr().out
        assert "prolog:" in out and "kernel:" in out and "epilog:" in out


class TestDot:
    def test_plain_dot(self, capsys):
        main(["dot", "--loop", "dot_product"])
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_partitioned_dot(self, capsys):
        main(["dot", "--loop", "daxpy", "--machine", "2c1b2l64r", "--partition"])
        out = capsys.readouterr().out
        assert "subgraph cluster_0" in out


class TestBench:
    def test_matrix_summary_table(self, capsys):
        assert (
            main(
                ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                 "--limit", "2", "--jobs", "1", "--quiet", "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bench matrix" in out
        assert "mgrid" in out and "baseline" in out and "replication" in out
        assert "cache: disabled" in out

    def test_second_run_reports_cache_hits(self, capsys, monkeypatch, tmp_path):
        from repro.engine import cache as engine_cache

        monkeypatch.setenv(engine_cache.CACHE_DIR_ENV, str(tmp_path))
        engine_cache.reset_default_cache()
        argv = ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                "--limit", "2", "--jobs", "1", "--scheme", "baseline",
                "--quiet"]
        main(argv)
        cold = capsys.readouterr().out
        assert "0 hits" in cold or "(0.0%)" in cold
        main(argv)
        warm = capsys.readouterr().out
        assert "(100.0%)" in warm
        engine_cache.reset_default_cache()

    def test_text_report_includes_stage_breakdown(self, capsys):
        main(["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
              "--limit", "2", "--jobs", "1", "--scheme", "baseline",
              "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert "per-stage compile time" in out
        assert "schedule" in out and "partition" in out

    def test_json_format_is_machine_readable(self, capsys):
        import json

        assert (
            main(["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                  "--limit", "2", "--jobs", "1", "--scheme", "baseline",
                  "--quiet", "--no-cache", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 2
        assert payload["cache"]["enabled"] is False
        cell = payload["cells"][0]
        assert cell["benchmark"] == "mgrid"
        assert cell["scheme"] == "baseline"
        assert cell["ok"] == 2 and cell["failed"] == 0
        assert cell["ipc"] > 0
        stages = payload["stages"]
        assert "partition" in stages and "schedule" in stages
        for stage in stages.values():
            assert stage["seconds"] >= 0.0
            assert 0.0 <= stage["share"] <= 1.0
        assert payload["failures"] == []

    def test_failed_job_exits_nonzero_and_is_listed(self, capsys, monkeypatch):
        from repro.engine import jobs as jobs_mod
        from repro.pipeline import CompileError

        def fail(*args, **kwargs):
            raise CompileError("no schedule found")

        monkeypatch.setattr(jobs_mod, "compile_loop", fail)
        argv = ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                "--limit", "1", "--jobs", "1", "--scheme", "baseline",
                "--quiet", "--no-cache"]
        assert main(argv + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["failed"] == 1
        [failure] = payload["failures"]
        assert failure["tag"].startswith("mgrid/")
        assert failure["outcome"] == "error"
        assert failure["error"] == "no schedule found"
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "1 loops did not compile:" in out
        assert f"{failure['tag']}: [error/invalid_input] no schedule found" in out

    def test_schemes_filter_runs_registered_scheme(self, capsys):
        assert (
            main(
                ["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
                 "--limit", "1", "--jobs", "1", "--schemes", "repl-part",
                 "--quiet", "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repl-part" in out
        assert "baseline" not in out.split("per-stage")[0]

    def test_schemes_filter_accepts_comma_separated(self, capsys):
        main(["bench", "--benchmark", "mgrid", "--machine", "2c1b2l64r",
              "--limit", "1", "--jobs", "1",
              "--schemes", "baseline,repl-part", "--quiet", "--no-cache"])
        out = capsys.readouterr().out
        assert "baseline" in out and "repl-part" in out

    def test_unknown_scheme_exits_with_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--benchmark", "mgrid", "--limit", "1",
                  "--jobs", "1", "--schemes", "nonsense", "--quiet",
                  "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'nonsense'" in err
        assert "repl-part" in err  # the message lists what IS available

    def test_events_file_is_jsonl(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        main(["bench", "--benchmark", "mgrid", "--limit", "1", "--jobs", "1",
              "--scheme", "baseline", "--quiet", "--no-cache",
              "--events", str(events)])
        capsys.readouterr()
        lines = events.read_text().strip().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {record["type"] for record in records} == {"event"}
        kinds = {record["kind"] for record in records}
        assert "finished" in kinds or "cache_hit" in kinds


class TestTrace:
    def test_record_writes_trace_and_summary(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "run.jsonl"
        chrome_path = tmp_path / "run.chrome.json"
        code = main(
            [
                "trace",
                "--summary",
                "--out", str(out_path),
                "--chrome", str(chrome_path),
                "--record",
                "compile", "--machine", "2c1b2l64r", "--loop", "daxpy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out
        assert "top" in out and "self time" in out
        assert out_path.exists() and chrome_path.exists()

        import json

        doc = json.load(open(chrome_path))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "pipeline.compile" in names
        assert any(name.startswith("pass.") for name in names)

    def test_summary_of_an_existing_trace(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main(
            [
                "trace", "--out", str(path), "--record",
                "compile", "--machine", "2c1b2l64r", "--loop", "daxpy",
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage durations" in out

    def test_diff_of_two_traces(self, capsys, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"t{index}.jsonl"
            main(
                [
                    "trace", "--out", str(path), "--record",
                    "compile", "--machine", "2c1b2l64r", "--loop", "daxpy",
                ]
            )
            paths.append(str(path))
        capsys.readouterr()
        assert main(["trace", "--diff", *paths]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out

    def test_record_without_command_errors(self, capsys):
        assert main(["trace", "--record"]) == 2
        assert "needs a command" in capsys.readouterr().err

    def test_diff_needs_two_files(self, capsys, tmp_path):
        assert main(["trace", "--diff", "only_one.jsonl"]) == 2
        assert "two trace files" in capsys.readouterr().err

    def test_no_inputs_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "trace files" in capsys.readouterr().err

    def test_record_cannot_nest(self, capsys):
        assert main(["trace", "--record", "trace", "x.jsonl"]) == 2
        assert "cannot record itself" in capsys.readouterr().err

    def test_env_var_records_without_the_wrapper(self, capsys, tmp_path, monkeypatch):
        from repro.obs import spans as obs

        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(path))
        obs._refresh_from_env()
        try:
            assert main(
                ["compile", "--machine", "2c1b2l64r", "--loop", "daxpy"]
            ) == 0
            err = capsys.readouterr().err
            assert "wrote" in err and str(path) in err
            assert path.exists()
        finally:
            monkeypatch.delenv(obs.TRACE_ENV)
            obs._refresh_from_env()
            obs.tracer().drain()

    def test_crashing_command_still_flushes_the_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        """REPRO_TRACE output survives an unhandled exception."""
        import repro.cli as cli
        from repro.obs import spans as obs
        from repro.obs.export import read_trace

        def boom(ddg, machine, scheme):
            with obs.span("doomed.pass"):
                pass
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli, "compile_loop", boom)
        path = tmp_path / "crash.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(path))
        obs._refresh_from_env()
        try:
            with pytest.raises(RuntimeError, match="kaboom"):
                main(["compile", "--machine", "2c1b2l64r", "--loop", "daxpy"])
            err = capsys.readouterr().err
            assert "wrote" in err and str(path) in err
            records = read_trace(str(path))
            assert any(record["name"] == "doomed.pass" for record in records)
        finally:
            monkeypatch.delenv(obs.TRACE_ENV)
            obs._refresh_from_env()
            obs.tracer().drain()


class TestSelfCheck:
    def test_selfcheck_runs_green(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "self-check OK" in out
        assert "verified" in out


class TestCache:
    def test_path_prints_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "store")

    def test_path_honors_dir_flag(self, capsys, tmp_path):
        assert main(["cache", "path", "--dir", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "d")

    def test_stats_on_fresh_store(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache at" in out
        assert "0 entries on disk" in out

    def test_clear_reports_removed_count(self, capsys, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.jobs import CompileJob
        from repro.pipeline.driver import Scheme, compile_loop
        from repro.machine.config import parse_config

        job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
        result = compile_loop(
            daxpy(), parse_config("2c1b2l64r"), scheme=Scheme.BASELINE
        )
        ResultCache(root=tmp_path, enabled=True).put(job.content_hash(), result)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "1 entries on disk" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert list(tmp_path.rglob("*.pkl")) == []


class TestServeCLI:
    def test_serve_smoke_exit_code(self, capsys):
        assert main(["serve", "--smoke", "--executor", "thread"]) == 0
        out = capsys.readouterr().out
        assert "serve smoke: OK" in out

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    def test_sigterm_drains_and_reaps_the_pool(self, tmp_path):
        from repro.engine.jobs import CompileJob
        from repro.pipeline.driver import Scheme
        from repro.serve.client import ServeClient

        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_LOG="json")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--executor", "process", "--workers", "1",
                "--data-dir", str(tmp_path),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = None
            for record in _log_records(server.stderr):
                if record["event"] == "listening":
                    url = record["url"]
                    break
            assert url is not None, "server exited before listening"
            client = ServeClient(url)
            job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
            client.submit(job)
            assert client.wait(job.content_hash(), timeout=120.0)["outcome"] == "ok"
            workers = _descendants(server.pid)
            assert workers, "the process pool spawned no worker"

            server.send_signal(signal.SIGTERM)
            _, rest = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        events = [record["event"] for record in _log_records(rest.splitlines())]
        assert "draining" in events
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]


def _log_records(lines):
    """The JSON log records among a stream of stderr lines."""
    for line in lines:
        if line.startswith("{"):
            yield json.loads(line)


def _descendants(pid):
    """Pids of every live descendant of ``pid`` (Linux /proc)."""
    found = []
    pending = [pid]
    while pending:
        parent = pending.pop()
        for task in pathlib.Path(f"/proc/{parent}/task").glob("*"):
            children = (task / "children").read_text().split()
            found.extend(int(child) for child in children)
            pending.extend(int(child) for child in children)
    return found


def _alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_pattern_is_a_file_path(self):
        with pytest.raises(FileNotFoundError):
            main(["compile", "--loop", "no_such_pattern"])

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            main(["cache", "defragment"])

"""Start ``repro serve`` for the benchmark, optionally traced.

Usage, from the root of a checkout (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py serve --port 0 --workers 1 ...

The arguments go to ``repro.cli.main`` unchanged. ``PERFBENCH_SERVER_CPU``
pins the server to one CPU before it starts a thread. When the environment
variable ``PERFBENCH_TRACE_DIR`` names a directory, the launcher first
wraps the server's layer entry points (``JobManager.submit``,
``ShardedCache.get``/``put`` and the process pool's ``submit``) and
swaps the pool's job entry point for :func:`traced_execute_wire`, which
traces the compiler's layers inside the pool worker. Server-side spans
go to ``server.json`` when the server has drained; the worker appends
one JSON line per job to ``worker-<pid>.jsonl``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from layers import LayerTracer, sum_diagnostics, wrap_compile_layers

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
CPU_ENV = "PERFBENCH_SERVER_CPU"

# The pool worker's tracer, made on its first job (a worker starts
# from a fork or a fresh import, so it cannot be handed over).
_worker_tracer: LayerTracer | None = None


def traced_execute_wire(wire, key, timeout, traceparent=None):
    """The engine's ``execute_wire`` with the compiler's layers traced."""
    global _worker_tracer
    from repro.engine import jobs
    from repro.engine.executor import execute_wire

    if _worker_tracer is None:
        _worker_tracer = LayerTracer()
        wrap_compile_layers(_worker_tracer)
        _worker_tracer.wrap(jobs, "compile_loop", "pipeline")
    _worker_tracer.clear()
    started = time.time()
    cpu = time.thread_time()
    result = execute_wire(wire, key, timeout, traceparent)
    cpu = time.thread_time() - cpu
    counters, attempts, stages = sum_diagnostics([result.result] if result.ok else [])
    line = {
        "start": started,
        "cpu_s": cpu,
        "layers": _worker_tracer.summary(),
        "counters": counters,
        "attempts": attempts,
        "stages": stages,
    }
    path = Path(os.environ[TRACE_DIR_ENV]) / f"worker-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    return result


def trace_server(tracer: LayerTracer, pool_calls: list) -> None:
    """Wrap the server-side entry points of the serve and engine layers."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.serve import manager
    from repro.serve.shards import ShardedCache

    tracer.wrap(manager.JobManager, "submit", "serve.manager_submit")
    tracer.wrap(ShardedCache, "get", "engine.cache_get")
    tracer.wrap(ShardedCache, "put", "engine.cache_put")
    manager.execute_wire = traced_execute_wire
    submit = ProcessPoolExecutor.submit

    def timed_submit(self, fn, /, *args, **kwargs):
        started = time.time()
        began = time.perf_counter()
        future = submit(self, fn, *args, **kwargs)
        # The callback runs on the pool's management thread.
        future.add_done_callback(
            lambda _: pool_calls.append((started, time.perf_counter() - began))
        )
        return future

    ProcessPoolExecutor.submit = timed_submit


def main(argv: list[str]) -> int:
    cpu = os.environ.get(CPU_ENV)
    if cpu:
        # Before any thread starts, so every server thread inherits it.
        os.sched_setaffinity(0, {int(cpu)})
    from repro import cli

    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return cli.main(argv)
    tracer = LayerTracer()
    pool_calls: list[tuple[float, float]] = []
    trace_server(tracer, pool_calls)
    offset = time.time() - time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        spans = [
            [layer, start + offset, end - start]
            for layer, start, end, _parent, _raised in tracer.spans
        ]
        payload = {"spans": spans, "pool": pool_calls}
        Path(trace_dir, "server.json").write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer tracing built only from the benchmark's own files.

:class:`LayerTracer` replaces a layer's public entry point with a
wrapper that records one span per call (layer name, start, end, parent
span) in memory. A layer's self time is its spans' durations minus the
part covered by child spans; errors are the calls that raised (for the
scheduler, a failed II attempt). Nothing inside the program is traced:
``REPRO_TRACE`` stays off, and the wrappers are removed by
:meth:`LayerTracer.restore`.
"""

from __future__ import annotations

import contextlib
import functools
import time


class LayerTracer:
    """In-memory spans around wrapped entry points and timed blocks."""

    def __init__(self) -> None:
        # One [layer, start, end, parent index, raised] list per span.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, layer: str) -> None:
        """Trace every call of ``owner.attr`` (a module function or method)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record the enclosed block as one span of ``layer``."""
        parent = self._open[-1] if self._open else -1
        record = [layer, time.perf_counter(), 0.0, parent, False]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def clear(self) -> None:
        """Drop finished spans (open spans must not exist)."""
        self.spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``errors``, ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (layer, start, end, _, raised) in enumerate(self.spans):
            entry = out.setdefault(
                layer, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["errors"] += int(raised)
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


def merge_summaries(summaries: list[dict]) -> dict[str, dict[str, float]]:
    """Sum per-layer summaries (e.g. one per served job)."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for layer, entry in summary.items():
            into = out.setdefault(layer, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    return out


def wrap_compile_layers(tracer: LayerTracer) -> None:
    """Wrap the compiler's layers at the names the pass pipeline calls.

    The partitioner is wrapped on its class; the replicator, placement,
    scheduler and MII are wrapped where :mod:`repro.pipeline.passes`
    binds them, so exactly the pipeline's calls are traced.
    """
    from repro.partition.multilevel import MultilevelPartitioner
    from repro.pipeline import passes

    tracer.wrap(MultilevelPartitioner, "partition", "partition")
    tracer.wrap(MultilevelPartitioner, "partition_replicating", "partition")
    tracer.wrap(passes, "replicate", "core.replicate")
    tracer.wrap(passes, "build_placed_graph", "schedule.place")
    tracer.wrap(passes, "schedule", "schedule.schedule")
    tracer.wrap(passes, "mii", "ddg.mii")


def compile_layer_metrics(
    layers: dict[str, dict[str, float]],
    counters: dict[str, float],
    attempts: int,
    stage_seconds: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of the compiler from spans plus exact counters.

    ``layers`` is a :meth:`LayerTracer.summary` with a ``pipeline``
    layer around each ``compile_loop`` call; ``counters`` and
    ``stage_seconds`` are summed over the same jobs'
    ``CompileDiagnostics``; ``attempts`` is the summed II trajectory
    length.
    """
    empty = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
    pipeline = layers.get("pipeline", empty)
    partition = layers.get("partition", empty)
    replicate = layers.get("core.replicate", empty)
    schedule = layers.get("schedule.schedule", empty)
    reused = counters.get("replicate.subgraph_reused", 0) + counters.get(
        "replicate.removable_reused", 0
    )
    walks = counters.get("replicate.subgraph_walks", 0) + counters.get(
        "replicate.removable_walks", 0
    )
    applied = counters.get("partition.moves_applied", 0)
    return {
        "pipeline.self_s": pipeline["self_s"],
        "pipeline.attempts": attempts,
        "pipeline.failed_attempt_ratio": _ratio(
            attempts - (pipeline["calls"] - pipeline["errors"]), attempts
        ),
        "partition.self_s": partition["self_s"],
        "partition.calls": partition["calls"],
        "partition.moves_applied": applied,
        "partition.pseudo_evaluations": counters.get("partition.pseudo_evaluations", 0),
        "partition.move_accept_ratio": _ratio(
            counters.get("partition.moves_accepted", 0), applied
        ),
        "partition.share_pct": 100 * _ratio(partition["total_s"], pipeline["total_s"]),
        # The same share from the program's own stage timer, over the
        # same compile time: the two should agree.
        "partition.stage_share_pct": 100
        * _ratio(stage_seconds.get("partition", 0.0), pipeline["total_s"]),
        "core.replicate_s": replicate["self_s"],
        "core.replicate_calls": replicate["calls"],
        "core.candidates_scored": counters.get("replicate.candidates_scored", 0),
        "core.rescore_skip_ratio": _ratio(reused, reused + walks),
        "schedule.place_s": layers.get("schedule.place", empty)["self_s"],
        "schedule.schedule_s": schedule["self_s"],
        "schedule.calls": schedule["calls"],
        "schedule.fail_ratio": _ratio(schedule["errors"], schedule["calls"]),
        "ddg.mii_s": layers.get("ddg.mii", empty)["self_s"],
        "ddg.kernel_calls": counters.get("kernels.python_calls", 0)
        + counters.get("kernels.numpy_calls", 0),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def sum_diagnostics(results) -> tuple[dict[str, float], int, dict[str, float]]:
    """Summed ``counters``, II attempts and ``stage_seconds`` of results.

    Only exact counts are summed: time-valued counters (``*_seconds``)
    and per-job rates (``*_rate``) are left out.
    """
    counters: dict[str, float] = {}
    stages: dict[str, float] = {}
    attempts = 0
    for result in results:
        diagnostics = result.diagnostics
        attempts += len(diagnostics.ii_trajectory)
        for name, value in diagnostics.counters.items():
            if not name.endswith(("_seconds", "_rate")):
                counters[name] = counters.get(name, 0) + value
        for name, value in diagnostics.stage_seconds.items():
            stages[name] = stages.get(name, 0.0) + value
    return counters, attempts, stages


#: Every per-layer metric with its unit. A workload reports 0 for the
#: layers it bypasses (e.g. the serve layers on ``compile-suite``).
LAYER_UNITS = {
    "workloads.generate_s": "s",
    "pipeline.self_s": "s",
    "pipeline.attempts": "count",
    "pipeline.failed_attempt_ratio": "ratio",
    "pipeline.job_cpu_ms_p50": "ms",
    "pipeline.job_cpu_ms_p99": "ms",
    "pipeline.failed_job_cpu_s": "s",
    "partition.self_s": "s",
    "partition.calls": "count",
    "partition.moves_applied": "count",
    "partition.pseudo_evaluations": "count",
    "partition.move_accept_ratio": "ratio",
    "partition.share_pct": "%",
    "partition.stage_share_pct": "%",
    "core.replicate_s": "s",
    "core.replicate_calls": "count",
    "core.candidates_scored": "count",
    "core.rescore_skip_ratio": "ratio",
    "schedule.place_s": "s",
    "schedule.schedule_s": "s",
    "schedule.calls": "count",
    "schedule.fail_ratio": "ratio",
    "ddg.mii_s": "s",
    "ddg.kernel_calls": "count",
    "sim.check_s": "s",
    "engine.pool_ms_p50": "ms",
    "engine.cache_get_ms_p50": "ms",
    "engine.cache_put_ms_p50": "ms",
    "serve.manager_submit_ms_p50": "ms",
    "serve.submit_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.fetch_ms_p50": "ms",
    "serve.first_touch_ms_p50": "ms",
    "serve.repeat_ms_p50": "ms",
    "serve.dedupe_ratio": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "obs.trace_overhead_pct": "%",
}

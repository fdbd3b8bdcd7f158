"""``compile-suite``: the paper's evaluation matrix, compiled in-process.

One thread calls ``compile_loop`` once per job, in a fixed order: every
loop of the seeded draw on each machine under each scheme. Serve,
engine and cache are bypassed entirely, so this is where compiler
speed-ups show and where a speed change that trades away schedule
quality is caught (``ipc_hmean``, ``bus_copies``, ``added_insns_pct``
are deterministic for a seed).
"""

from __future__ import annotations

import time

from common import (
    MACHINES,
    QUALITY_UNITS,
    SCHEMES,
    check_kernel,
    draw_loops,
    median,
    percentile,
    quality,
    self_peak_rss_mb,
    warmup_loops,
)
from layers import (
    LAYER_UNITS,
    LayerTracer,
    compile_layer_metrics,
    sum_diagnostics,
    wrap_compile_layers,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def compile_pass(loops: list, tracer: LayerTracer | None = None) -> dict:
    """Compile every (machine, scheme, loop) job once, in a fixed order.

    Per job, the compiling thread's CPU time and the wall time from the
    call to the result in hand are recorded, split by whether the job
    compiled. Unschedulable loops are failed jobs: counted, and their
    cost kept apart from the completed jobs'.
    """
    from repro.machine.config import parse_config
    from repro.pipeline import CompileError, compile_loop

    machines = [(name, parse_config(name)) for name in MACHINES]
    cells, errors, cpu, wall, failed_cpu = [], [], [], [], []
    pass_cpu = time.thread_time()
    for name, machine in machines:
        for scheme in SCHEMES:
            for loop in loops:
                cpu0, wall0 = time.thread_time(), time.perf_counter()
                try:
                    if tracer is None:
                        result = compile_loop(loop.ddg, machine, scheme)
                    else:
                        with tracer.span("pipeline"):
                            result = compile_loop(loop.ddg, machine, scheme)
                except CompileError as exc:
                    failed_cpu.append(time.thread_time() - cpu0)
                    errors.append(f"{loop.name} on {name} under {scheme}: {exc}")
                else:
                    wall.append(time.perf_counter() - wall0)
                    cpu.append(time.thread_time() - cpu0)
                    cells.append((name, scheme, loop, result))
    return {
        "cells": cells,
        "errors": errors,
        "cpu": cpu,
        "wall": wall,
        "failed_cpu": failed_cpu,
        "cpu_s": time.thread_time() - pass_cpu,
    }


def check_cells(cells: list, report, tracer: LayerTracer | None = None) -> None:
    """Verify and simulate every compiled kernel (outside timed regions)."""
    for _machine, _scheme, loop, result in cells:
        if tracer is None:
            failure = check_kernel(loop, result)
        else:
            with tracer.span("sim"):
                failure = check_kernel(loop, result)
        if failure:
            report.check_failed(failure)


def run(seed: int, seconds: int, trace: bool, report) -> None:
    """Run the workload and fill ``report``."""
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        loops = draw_loops(seed, seconds)
        setups.append(time.perf_counter() - started)
    compile_pass(warmup_loops(seed, seconds))

    timed = compile_pass(loops)
    jobs = len(timed["cpu"])
    if not trace:
        peak_rss = self_peak_rss_mb()
        report.attempted = jobs + len(timed["errors"])
        report.failed = len(timed["errors"])
        check_cells(timed["cells"], report)
        report.add("jobs_per_cpu_s", jobs / sum(timed["cpu"]), "1/s")
        report.add("jobs_per_s", jobs / sum(timed["wall"]), "1/s")
        report.add("job_ms_p50", 1000 * percentile(timed["cpu"], 50), "ms", jobs)
        report.add("job_ms_p99", 1000 * percentile(timed["cpu"], 99), "ms", jobs)
        for name, value in quality(timed["cells"]).items():
            report.add(name, value, QUALITY_UNITS[name])
        report.add("setup_s", median(setups), "s", len(setups))
        report.add("peak_rss_mb", peak_rss, "MiB")
        return

    # Traced run: the same work again on a fresh draw of the same loops
    # (fresh DDG objects, so no memo carries over), with every layer's
    # entry point wrapped. The untraced pass above is the reference for
    # the tracing overhead and for the exact counts.
    tracer = LayerTracer()
    with tracer.span("workloads"):
        traced_loops = draw_loops(seed, seconds)
    wrap_compile_layers(tracer)
    try:
        traced = compile_pass(traced_loops, tracer)
    finally:
        tracer.restore()
    report.attempted = len(traced["cpu"]) + len(traced["errors"])
    report.failed = len(traced["errors"])
    untraced_counts = sum_diagnostics(cell[3] for cell in timed["cells"])
    counters, attempts, stages = sum_diagnostics(cell[3] for cell in traced["cells"])
    if untraced_counts[:2] != (counters, attempts):
        report.check_failed("exact counters differ between traced and untraced passes")
    if quality(timed["cells"]) != quality(traced["cells"]):
        report.check_failed("schedule quality differs between traced and untraced passes")
    check_cells(traced["cells"], report, tracer)

    layers = tracer.summary()
    values = compile_layer_metrics(layers, counters, attempts, stages)
    values["workloads.generate_s"] = layers["workloads"]["total_s"]
    values["sim.check_s"] = layers.get("sim", {"total_s": 0.0})["total_s"]
    values["pipeline.job_cpu_ms_p50"] = 1000 * percentile(timed["cpu"], 50)
    values["pipeline.job_cpu_ms_p99"] = 1000 * percentile(timed["cpu"], 99)
    values["pipeline.failed_job_cpu_s"] = sum(timed["failed_cpu"])
    values["obs.trace_overhead_pct"] = 100 * (traced["cpu_s"] / timed["cpu_s"] - 1)
    report.add_layers(
        values,
        LAYER_UNITS,
        {"pipeline.job_cpu_ms_p50": jobs, "pipeline.job_cpu_ms_p99": jobs},
    )

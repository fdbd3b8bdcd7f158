"""Shared pieces of the benchmark: inputs, checks, percentiles, output.

Every workload draws its loops from the same seeded generator, checks
every compiled kernel against the verifier and the simulator, takes
every percentile from raw samples with one function, and prints its
result in one format. The seed reaches only the loop generator: the
program under test sees nothing but the generated DDGs.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import random
import resource
import sys
import zlib
from pathlib import Path

#: Source tree of the program under test, relative to the checkout root.
SRC = Path("src")

#: Machines of the compile matrix (the paper's 2- and 4-cluster VLIWs).
MACHINES = ("2c1b2l64r", "4c1b2l64r")

#: Schemes of the compile matrix; the last two replicate.
SCHEMES = ("baseline", "replication", "repl-part")

#: Share of the suite drawn per run-second, in two parts: the largest
#: loops of each benchmark, always compiled, and a seeded pick among
#: the rest. At 15 s each part is a fifth (about 245 of 678 loops).
SHARE_PER_SECOND = 1 / 75

class SetupError(RuntimeError):
    """The benchmark cannot run here (no program, server never came up)."""


def import_program() -> None:
    """Put the checkout's ``src`` on the path and check it holds the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"no program under {SRC}/repro; run from the root of a checkout"
        )
    sys.path.insert(0, str(SRC.resolve()))


def loop_seed(seed: int, benchmark: str, purpose: str) -> int:
    """Random seed for one benchmark's part of a draw."""
    return zlib.crc32(f"{purpose}:{seed}:{benchmark}".encode("ascii"))


def _draw(seed: int, seconds: int) -> list[tuple[list, set[int]]]:
    """Per benchmark: its suite loops and the indices drawn."""
    from repro.workloads import BENCHMARK_ORDER, benchmark_loops

    share = min(1.0, seconds * SHARE_PER_SECOND)
    draws = []
    for name in BENCHMARK_ORDER:
        suite = benchmark_loops(name)
        by_size = sorted(range(len(suite)), key=lambda i: len(suite[i].ddg))
        big = max(1, round(len(suite) * share))
        rest = by_size[:-big]
        pick = random.Random(loop_seed(seed, name, "timed"))
        chosen = by_size[-big:] + pick.sample(rest, round(len(rest) * share))
        draws.append((suite, set(chosen)))
    return draws


def draw_loops(seed: int, seconds: int) -> list:
    """The seeded draw from the synthetic SPECfp95 suite (678 loops).

    Per benchmark, the largest loops are always drawn and a seeded
    sample of the others is added, each part ``seconds / 75`` of the
    benchmark's loops. The few big loops carry most of the compile time
    and the slowest jobs, so drawing them every time keeps run-to-run
    spread down to the program's own; the seed varies the rest. The
    suite's loops all schedule on both machines.
    """
    return [
        suite[i] for suite, chosen in _draw(seed, seconds) for i in sorted(chosen)
    ]


def warmup_loops(seed: int, seconds: int) -> list:
    """Per benchmark, the first suite loop the draw left out.

    Warming up on a timed loop would pre-fill its per-DDG analysis memo.
    """
    loops = []
    for suite, chosen in _draw(seed, seconds):
        spare = [i for i in range(len(suite)) if i not in chosen]
        loops.extend(suite[i] for i in spare[:1])
    return loops


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of raw samples.

    Always one of the samples, so it can never exceed the maximum.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    """Median of raw samples (nearest rank, like every percentile here)."""
    return percentile(samples, 50)


def check_kernel(loop, result) -> str | None:
    """Verify one compiled kernel; returns the failure text, or None.

    The verifier checks placement, dependences, functional units and
    buses, and the simulator steps the pipeline cycle by cycle. Its
    cycle count must equal ``Texec = (N - 1 + SC) * II``, here derived
    from the scheduled ops themselves rather than from the kernel's own
    accounting (which the simulator reuses).
    """
    from repro.sim import VerificationError, simulate, verify_kernel

    kernel = result.kernel
    try:
        verify_kernel(kernel)
        cycles = simulate(kernel, loop.iterations, static_check=False).cycles
    except VerificationError as exc:
        return f"{loop.name}: {exc}"
    finish = 0
    for op in kernel.ops.values():
        latency = kernel.machine.latency_of(op.instance.op_class)
        if op.instance.is_copy and kernel.copy_latency_override is not None:
            latency = kernel.copy_latency_override
        finish = max(finish, op.start + latency)
    stages = max(1, -(-finish // kernel.ii))
    expected = (loop.iterations - 1 + stages) * kernel.ii
    if cycles != expected or kernel.execution_cycles(loop.iterations) != expected:
        return f"{loop.name}: simulated {cycles} cycles, Texec from the schedule is {expected}"
    return None


def quality(cells: list[tuple[str, str, object, object]]) -> dict[str, float]:
    """Schedule-quality metrics of compiled jobs.

    ``cells`` holds ``(machine, scheme, loop, result)`` per compiled job.
    ``ipc_hmean`` is the harmonic mean over (benchmark, machine, scheme)
    cells of the benchmark IPC; ``added_insns_pct`` covers the two
    replicating schemes (the baseline adds none by construction).
    """
    from repro.pipeline import (
        added_instruction_stats,
        benchmark_metrics,
        harmonic_mean,
        loop_metrics,
    )

    groups: dict[tuple[str, str, str], list] = {}
    replicating = []
    copies = 0
    for machine, scheme, loop, result in cells:
        metrics = loop_metrics(loop, result)
        groups.setdefault((loop.benchmark, machine, scheme), []).append(metrics)
        if scheme != "baseline":
            replicating.append(metrics)
        copies += result.kernel.n_copy_ops()
    ipcs = [
        benchmark_metrics(key[0], members).ipc for key, members in groups.items()
    ]
    return {
        "ipc_hmean": harmonic_mean(ipcs),
        "bus_copies": float(copies),
        "added_insns_pct": added_instruction_stats(replicating).total_percent,
    }


#: Units of the :func:`quality` metrics.
QUALITY_UNITS = {"ipc_hmean": "ops/cycle", "bus_copies": "count", "added_insns_pct": "%"}


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stamp(workload: str, seed: int, seconds: int, trace: bool, cache: str) -> dict:
    """Host and run stamp; runs are only compared when their stamps match."""
    from repro.ddg.csr import kernel_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernels": kernel_backend(),
        # Looked up, not imported: importing NumPy would move peak RSS.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "cache": cache,
    }


class Report:
    """Collects one run's metrics and prints them.

    Human-readable lines (with the sample count next to every
    percentile) go first; the last line of standard output is the
    machine-readable JSON result.
    """

    def __init__(self, run_stamp: dict) -> None:
        self.stamp = run_stamp
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        """Record one metric; ``samples`` is printed next to percentiles."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        suffix = f"  (n={samples})" if samples is not None else ""
        self.notes.append(f"{name:<34} {value:>14.6f} {unit}{suffix}")

    def add_layers(
        self, values: dict[str, float], units: dict[str, str], samples: dict[str, int]
    ) -> None:
        """Record every per-layer metric in ``units``; absent ones are 0."""
        for name, unit in units.items():
            self.add(name, values.get(name, 0.0), unit, samples.get(name))

    def check_failed(self, text: str) -> None:
        """An output check failed: a failed operation and an incorrect run."""
        self.failed += 1
        self.check_failures.append(text)

    def emit(self, out_path: str | None = None) -> int:
        """Print the report; returns the process exit code."""
        print(f"stamp {json.dumps(self.stamp, sort_keys=True)}")
        for line in self.notes:
            print(line)
        for text in self.check_failures[:20]:
            print(f"CHECK FAILED: {text}")
        print(f"attempted {self.attempted}  failed {self.failed}")
        result = {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }
        if out_path:
            with open(out_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"stamp": self.stamp, "result": result}) + "\n")
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1

"""Batch compilation engine: parallel fan-out + persistent result cache.

The benchmark harness compiles the same (loop, machine, scheme, flags)
cells over and over — Figure 7's kernels are Figure 10's, and every
pytest invocation used to recompile the world. This package turns one
compilation into a :class:`~repro.engine.jobs.CompileJob` with a
deterministic content hash, runs batches of jobs across worker
processes (:mod:`repro.engine.executor`), persists results in an
on-disk content-addressed cache keyed by that hash
(:mod:`repro.engine.cache`), and reports progress through structured
events (:mod:`repro.engine.events`).

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache location (default ``~/.cache/repro-engine``).
* ``REPRO_CACHE=off`` — disable the persistent cache entirely.
* ``REPRO_ENGINE_JOBS`` — worker processes for the library path
  (default 1: in-process, deterministic, no pool overhead).
* ``REPRO_ENGINE_TIMEOUT`` — per-job wall-clock timeout in seconds
  (default: none).
"""

from repro.engine.cache import CacheStats, ResultCache, default_cache
from repro.engine.events import (
    Event,
    EventBus,
    EventKind,
    StderrProgressSink,
)
from repro.engine.executor import EngineConfig, run_jobs
from repro.engine.jobs import (
    ENGINE_SCHEMA_VERSION,
    CompileJob,
    ErrorKind,
    JobResult,
    Outcome,
)

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "CacheStats",
    "CompileJob",
    "EngineConfig",
    "ErrorKind",
    "Event",
    "EventBus",
    "EventKind",
    "JobResult",
    "Outcome",
    "ResultCache",
    "StderrProgressSink",
    "default_cache",
    "run_jobs",
]

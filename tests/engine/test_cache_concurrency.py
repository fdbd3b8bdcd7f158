"""The cache's documented durability rules, under real concurrency.

The docstring of :mod:`repro.engine.cache` promises two things:

* writers land entries atomically (tmp file + ``os.replace``), so a
  reader never observes a torn entry — it sees a complete old copy, a
  complete new copy, or a miss;
* concurrent writers of the same key are last-writer-wins with either
  writer's bytes intact.

These tests exercise both with real processes hammering one store on
real disk — no monkeypatching, no fault injection. A barrier lines the
processes up so writes and reads genuinely overlap.
"""

import hashlib
import multiprocessing
import pickle
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.jobs import ENGINE_SCHEMA_VERSION
from repro.machine.config import parse_config
from repro.pipeline.driver import CompileResult, compile_loop
from repro.workloads.patterns import daxpy

KEY = hashlib.sha256(b"concurrency-test-key").hexdigest()

#: One writer per scheme: each writes a result the others can tell apart.
SCHEMES = ("baseline", "replication", "repl-part")


@pytest.fixture(scope="module")
def results():
    """Three valid results for one key, told apart by their scheme."""
    machine = parse_config("2c1b2l64r")
    return {scheme: compile_loop(daxpy(), machine, scheme) for scheme in SCHEMES}


def _writer(root, key, result, rounds, barrier):
    """Rewrite ``key`` with ``result`` as fast as possible."""
    cache = ResultCache(root=root, enabled=True)
    barrier.wait(timeout=60)
    for _ in range(rounds):
        cache.put(key, result)


def _decode(raw: bytes) -> str:
    """The writer's scheme from raw entry bytes (raises when torn)."""
    envelope = pickle.loads(raw)
    if envelope.get("schema") != ENGINE_SCHEMA_VERSION:
        raise ValueError("wrong schema")
    if not isinstance(envelope["result"], CompileResult):
        raise ValueError("not a CompileResult")
    return envelope["result"].scheme_name


def _reader(root, key, min_observed, deadline_s, queue, barrier):
    """Read ``key``'s file until enough observations land; report torn ones."""
    path = ResultCache(root=root, enabled=True).path_for(key)
    barrier.wait(timeout=60)
    deadline = time.monotonic() + deadline_s
    torn = 0
    observed = 0
    while observed < min_observed and time.monotonic() < deadline:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            continue
        observed += 1
        try:
            _decode(raw)
        except Exception:
            torn += 1
    queue.put((observed, torn))


def _run(tmp_path, results, schemes, rounds, extra=(), drain=lambda: None):
    """Run one writer per scheme plus ``extra`` processes, all lined up
    on one barrier; returns what ``drain`` collects before the joins."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(len(schemes) + len(extra))
    processes = [
        context.Process(
            target=_writer,
            args=(str(tmp_path), KEY, results[scheme], rounds, barrier),
        )
        for scheme in schemes
    ]
    processes += [
        context.Process(target=target, args=(*args, barrier))
        for target, args in extra
    ]
    for process in processes:
        process.start()
    collected = drain()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    return collected


def test_concurrent_same_key_writers_never_tear_readers(tmp_path, results):
    """Two processes rewrite one key while readers watch: no torn reads."""
    queue = multiprocessing.get_context("spawn").Queue()
    reader = (_reader, (str(tmp_path), KEY, 200, 30.0, queue))
    reports = _run(
        tmp_path, results, SCHEMES[:2], 400, extra=(reader, reader),
        drain=lambda: [queue.get(timeout=120) for _ in range(2)],
    )
    for _observed, torn in reports:
        assert torn == 0, "a reader observed a torn / mid-write entry"
    assert sum(observed for observed, _ in reports) > 0, (
        "readers never saw the entry at all"
    )


def test_last_writer_wins_with_intact_bytes(tmp_path, results):
    """After the dust settles the entry is exactly one writer's bytes."""
    _run(tmp_path, results, SCHEMES[:2], 100)
    cache = ResultCache(root=tmp_path, enabled=True)
    winner = _decode(cache.path_for(KEY).read_bytes())  # intact bytes
    assert winner in SCHEMES[:2]
    assert cache.get(KEY).scheme_name == winner


def test_no_temp_files_survive_the_stampede(tmp_path, results):
    """The write path cleans up its tmp files even under contention."""
    _run(tmp_path, results, SCHEMES, 50)
    assert list(tmp_path.rglob("*.tmp")) == []
    # and the surviving entry is one of the writers', intact
    cache = ResultCache(root=tmp_path, enabled=True)
    assert _decode(cache.path_for(KEY).read_bytes()) in SCHEMES

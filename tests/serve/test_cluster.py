"""The in-process deployment against the local single-process path.

A server over one result cache serves a bench-matrix slice with
results semantically identical to local compiles, serves every
resubmission from that cache, and shares the cache's on-disk layout
with the batch engine in both directions.
"""

import pytest

from repro.engine.cache import ResultCache
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, Outcome
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.serve.client import ServeClient
from repro.serve.cluster import ServeCluster
from repro.workloads.specfp import benchmark_loops

MACHINE = "4c1b4l64r"
SCHEMES = (Scheme.BASELINE, Scheme.REPLICATION)
BENCHMARKS = ("tomcatv", "mgrid")
LOOPS_PER_BENCHMARK = 2


def _matrix() -> list[CompileJob]:
    """A small but real slice of the bench matrix: 2 benchmarks x 2
    loops x 2 schemes = 8 distinct jobs."""
    jobs = []
    for benchmark in BENCHMARKS:
        for i, loop in enumerate(
            benchmark_loops(benchmark, limit=LOOPS_PER_BENCHMARK)
        ):
            for scheme in SCHEMES:
                jobs.append(
                    CompileJob(
                        ddg=loop.ddg,
                        machine=MACHINE,
                        scheme=scheme,
                        tag=f"{benchmark}/{i}/{scheme.value}",
                    )
                )
    return jobs


@pytest.fixture(scope="module")
def expected():
    """Local single-process fingerprints, the ground truth."""
    config = parse_config(MACHINE)
    return {
        job.content_hash(): result_fingerprint(
            compile_loop(job.ddg, config, scheme=job.scheme)
        )
        for job in _matrix()
    }


def _fingerprints(results):
    return {
        r.key: result_fingerprint(r.result) for r in results
    }


def test_cluster_acceptance(tmp_path, expected):
    jobs = _matrix()
    with ServeCluster(
        root=tmp_path / "cluster", executor="thread", workers=2
    ) as cluster:
        # -- the matrix, served -------------------------------------------
        results = cluster.run_jobs(jobs)
        assert len(results) == len(jobs)
        assert all(r.outcome is Outcome.OK for r in results)
        assert _fingerprints(results) == expected

        # -- resubmitted after the records are gone: all from the cache ---
        cluster.forget_records()  # resubmissions re-walk the cache path
        again = cluster.run_jobs(jobs)
        assert all(r.outcome is Outcome.OK for r in again)
        assert all(r.cached for r in again)
        assert _fingerprints(again) == expected


def test_cluster_dedupes_concurrent_submissions(tmp_path):
    jobs = _matrix()[:2]
    with ServeCluster(
        root=tmp_path / "dedupe", executor="thread", workers=2
    ) as cluster:
        first = cluster.run_jobs(jobs + jobs)
        assert len(first) == 4
        # same key submitted twice resolves to the same record/result
        assert first[0].key == first[2].key
        assert result_fingerprint(first[0].result) == result_fingerprint(
            first[2].result
        )


def test_cluster_writes_the_local_cache_layout(tmp_path):
    """Served results land where the batch engine's cache looks."""
    job = _matrix()[0]
    with ServeCluster(root=tmp_path / "one", executor="thread", workers=1) as cluster:
        [served] = cluster.run_jobs([job])
        assert served.outcome is Outcome.OK
    key = job.content_hash()
    assert (tmp_path / "one" / key[:2] / f"{key}.pkl").exists()
    local = compile_loop(job.ddg, parse_config(MACHINE), scheme=job.scheme)
    assert result_fingerprint(served.result) == result_fingerprint(local)
    assert ResultCache(root=tmp_path / "one", enabled=True).get(key) is not None


def test_server_serves_a_plain_result_cache(tmp_path, expected):
    """A data dir filled by the batch engine's cache is served as hits."""
    jobs = _matrix()[:4]
    store = ResultCache(root=tmp_path / "filled", enabled=True)
    config = parse_config(MACHINE)
    for job in jobs:
        store.put(
            job.content_hash(), compile_loop(job.ddg, config, scheme=job.scheme)
        )
    with ServeCluster(
        root=tmp_path / "filled", executor="thread", workers=1, http=True
    ) as cluster:
        client = ServeClient(cluster.url, client_id="filled")
        for job in jobs:
            key = job.content_hash()
            # By key alone: only the cache can answer this.
            code, status = client.submit_key(key)
            assert code == 200
            assert status["status"] == "done"
            assert status["cached"] is True
            assert status["fingerprint"] == expected[key]
        metrics = client.stats()["metrics"]
        assert metrics["serve.cache_hits"]["value"] == len(jobs)
        assert "serve.compiled" not in metrics

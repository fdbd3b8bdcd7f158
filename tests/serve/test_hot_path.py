"""What a request for a known key costs, and which keys reach the disk.

Over real HTTP: each record is fingerprinted once, a first submission
encodes and hashes its DDG once, a byte-identical resubmission is
answered without decoding (one dedupe, the same payload as the decoded
path), and a key that is not a content hash never names a file.
"""

import dataclasses
import http.client
import json

import pytest

from repro.ddg import io as ddg_io
from repro.engine import jobs as engine_jobs
from repro.engine.jobs import CompileJob
from repro.pipeline.driver import Scheme
from repro.serve import manager as serve_manager
from repro.serve.client import ServeClient
from repro.serve.cluster import ServeCluster
from repro.workloads.patterns import daxpy, dot_product, figure3_graph, stencil5


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-hot-path")
    with ServeCluster(root=root, executor="thread", workers=2, http=True) as up:
        yield up


@pytest.fixture()
def client(cluster):
    return ServeClient(cluster.url, client_id="hot-path")


def _body(job: CompileJob) -> bytes:
    """The exact bytes :class:`ServeClient` sends for ``job``."""
    return json.dumps({"job": job.to_wire()}).encode("utf-8")


def _raw(cluster, method: str, path: str, body: bytes | None = None):
    """One request with ``path`` sent verbatim; returns (status, payload)."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _deduped(client) -> int:
    return client.stats()["metrics"].get("serve.deduped", {}).get("value", 0)


def _counting(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` to record one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fingerprint_runs_once_per_record(cluster, client, monkeypatch):
    calls = _counting(monkeypatch, serve_manager, "result_fingerprint")
    job = CompileJob(ddg=daxpy(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
    key = client.submit(job)["key"]
    first = client.wait(key, timeout=120.0)
    for _ in range(3):
        assert client.submit(job)["fingerprint"] == first["fingerprint"]
        assert client.status(key)["fingerprint"] == first["fingerprint"]
    assert len(calls) == 1
    # A cache hit is a new record: fingerprinted once more, then read.
    cluster.forget_records()
    for _ in range(3):
        again = client.submit(job)
        assert again["cached"] is True
        assert again["fingerprint"] == first["fingerprint"]
        assert client.status(key)["fingerprint"] == first["fingerprint"]
    assert len(calls) == 2


def test_first_submission_encodes_and_hashes_once(cluster, client, monkeypatch):
    job = CompileJob(ddg=stencil5(), machine="2c1b2l64r", scheme=Scheme.BASELINE)
    body, key = _body(job), job.content_hash()
    encodes = _counting(monkeypatch, ddg_io, "to_dict")
    digests = _counting(monkeypatch, engine_jobs, "_digest")
    status, payload = _raw(cluster, "POST", "/jobs", body)
    assert (status, payload["key"]) == (202, key)
    assert (len(encodes), len(digests)) == (1, 1)
    client.wait(key, timeout=120.0)


def test_identical_resubmission_skips_decoding(cluster, client, monkeypatch):
    job = CompileJob(
        ddg=dot_product(), machine="2c1b2l64r", scheme=Scheme.REPLICATION,
        tag="hot/first",
    )
    body = _body(job)
    assert _raw(cluster, "POST", "/jobs", body)[0] == 202
    client.wait(job.content_hash(), timeout=120.0)
    entries = len(cluster.manager.body_keys)
    decodes = _counting(monkeypatch, CompileJob, "from_wire")

    before = _deduped(client)
    fast = _raw(cluster, "POST", "/jobs", body)
    assert _deduped(client) == before + 1
    assert decodes == []

    # Only the tag differs: a new body, decoded and deduped on its key,
    # answered with the same document, and not remembered.
    retagged = _body(dataclasses.replace(job, tag="hot/second"))
    before = _deduped(client)
    decoded = _raw(cluster, "POST", "/jobs", retagged)
    assert _deduped(client) == before + 1
    assert len(decodes) == 1
    assert fast == decoded
    assert fast[0] == 200 and fast[1]["status"] == "done"
    assert len(cluster.manager.body_keys) == entries


def test_finished_record_drops_its_wire(cluster, client):
    job = CompileJob(
        ddg=figure3_graph(), machine="2c1b2l64r", scheme=Scheme.REPLICATION
    )
    body = _body(job)
    assert _raw(cluster, "POST", "/jobs", body)[0] == 202
    client.wait(job.content_hash(), timeout=120.0)
    assert cluster.manager.records[job.content_hash()].wire is None
    before = _deduped(client)
    status, payload = _raw(cluster, "POST", "/jobs", body)
    assert (status, payload["status"]) == (200, "done")
    assert _deduped(client) == before + 1


@pytest.mark.parametrize(
    "body",
    [b"{not json", json.dumps({"job": {"nonsense": True}}).encode("utf-8")],
    ids=["bad-json", "bad-job"],
)
def test_malformed_body_is_400_and_never_memoized(cluster, body):
    entries = len(cluster.manager.body_keys)
    for _ in range(2):
        assert _raw(cluster, "POST", "/jobs", body)[0] == 400
    assert len(cluster.manager.body_keys) == entries


def test_digest_map_never_outgrows_records(cluster, client):
    jobs = [
        CompileJob(ddg=ddg(), machine=machine, scheme=Scheme.BASELINE, tag=tag)
        for ddg in (daxpy, figure3_graph)
        for machine in ("2c1b2l64r", "4c1b2l64r")
        for tag in ("a", "b")
    ]
    for job in jobs + jobs:
        client.submit(job)
        manager = cluster.manager
        assert len(manager.body_keys) <= len(manager.records)
        assert set(manager.body_keys.values()) <= set(manager.records)
    for job in jobs:
        client.wait(job.content_hash(), timeout=120.0)


def test_traversal_keys_touch_no_file(tmp_path):
    """``root / key[:2] / f"{key}.pkl"`` with key ``../victim`` is
    ``<tmp>/victim.pkl`` for the data directory ``<tmp>/a/data``."""
    victim = tmp_path / "victim.pkl"
    victim.write_bytes(b"not a cache entry")
    root = tmp_path / "a" / "data"
    root.mkdir(parents=True)  # ".." resolves only through a real directory
    with ServeCluster(root=root, executor="thread", workers=1, http=True) as cluster:
        for method, path, body in (
            ("GET", "/jobs/../victim", None),
            ("GET", "/jobs/../victim/events", None),
            ("POST", "/jobs", json.dumps({"key": "../victim"}).encode("utf-8")),
        ):
            assert _raw(cluster, method, path, body)[0] == 404
    assert victim.read_bytes() == b"not a cache entry"

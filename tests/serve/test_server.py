"""The HTTP API, end to end over a real socket."""

import http.client
import json
import select
import socket
import time

import pytest

from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.serve.client import ServeClient, ServeError
from repro.serve import server as serve_server
from repro.serve.cluster import ServeCluster
from repro.workloads.patterns import daxpy, dot_product, stencil5

MACHINE = "2c1b2l64r"


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-http")
    with ServeCluster(
        root=root, shards=2, replication=2, executor="thread", workers=2,
        max_inflight=4,  # well below queue_limit so client_capped is reachable
        http=True,
    ) as up:
        yield up


@pytest.fixture()
def client(cluster):
    return ServeClient(cluster.url, client_id="pytest")


def _job(scheme=Scheme.REPLICATION, ddg=None, tag="http/test"):
    return CompileJob(
        ddg=ddg if ddg is not None else daxpy(),
        machine=MACHINE,
        scheme=scheme,
        tag=tag,
    )


class TestSubmitAndPoll:
    def test_submit_wait_matches_local_compile(self, client):
        job = _job()
        submitted = client.submit(job)
        assert submitted["key"] == job.content_hash()
        done = client.wait(submitted["key"], timeout=120.0)
        assert done["status"] == "done"
        assert done["outcome"] == "ok"
        local = compile_loop(
            daxpy(), parse_config(MACHINE), scheme=Scheme.REPLICATION
        )
        assert done["fingerprint"] == result_fingerprint(local)

    def test_resubmit_is_idempotent(self, client):
        job = _job(scheme=Scheme.BASELINE, tag="http/idempotent")
        first = client.submit(job)
        client.wait(first["key"], timeout=120.0)
        again = client.submit(job)
        assert again["key"] == first["key"]
        assert again["status"] == "done"

    def test_submit_by_key_completes_from_cache(self, client):
        job = _job(ddg=dot_product(), tag="http/bykey")
        client.submit(job)
        client.wait(job.content_hash(), timeout=120.0)
        status, payload = client.submit_key(job.content_hash())
        assert status == 200
        assert payload["status"] == "done"

    def test_submit_by_unknown_key_is_404(self, client):
        status, payload = client.submit_key("0" * 64)
        assert status == 404
        assert "error" in payload

    def test_status_of_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.status("f" * 64)
        assert err.value.status == 404


class TestEvents:
    def test_stream_replays_history_and_terminates(self, client):
        job = _job(ddg=dot_product(), scheme=Scheme.BASELINE, tag="http/events")
        client.submit(job)
        client.wait(job.content_hash(), timeout=120.0)
        events = client.events(job.content_hash())
        assert events, "stream must carry at least the terminal event"
        kinds = [event["kind"] for event in events]
        assert kinds[-1] in ("finished", "cache_hit")
        assert all(event["key"] == job.content_hash() for event in events)

    def test_events_of_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.events("a" * 64)
        assert err.value.status == 404


class TestProtocolErrors:
    def _raw(self, cluster, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def test_bad_json_body_is_400(self, cluster):
        status, _, body = self._raw(
            cluster, "POST", "/jobs", body=b"{not json",
            headers={"Content-Length": "9"},
        )
        assert status == 400
        assert b"bad JSON" in body

    def test_bad_job_payload_is_400(self, cluster):
        raw = json.dumps({"job": {"nonsense": True}}).encode()
        status, _, body = self._raw(
            cluster, "POST", "/jobs", body=raw,
            headers={"Content-Length": str(len(raw))},
        )
        assert status == 400
        assert b"bad job payload" in body

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, cluster, length):
        # http.client would refuse to send these headers, so write the
        # request bytes by hand.
        port = int(cluster.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                .encode("latin-1")
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        assert json.loads(body) == {"error": "bad content-length"}

    def _head_rejection(self, cluster, chunks, pause=0.0):
        """Send raw request-head ``chunks`` (``pause`` seconds apart, and
        no more once the server answers), then read the whole response;
        returns (status, body)."""
        port = int(cluster.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            for chunk in chunks:
                sock.sendall(chunk.encode("latin-1"))
                if pause and select.select([sock], [], [], pause)[0]:
                    break
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        return int(head.split(b"\r\n")[0].split()[1]), json.loads(body)

    def _counters(self, client):
        metrics = client.stats()["metrics"]
        return {
            name: entry.get("value", 0)
            for name, entry in metrics.items()
            if entry["type"] == "counter"
        }

    def _assert_counted(self, before, after, status):
        name = f"serve.http.status.{status}"
        assert after.get(name, 0) == before.get(name, 0) + 1
        # The refused request and the /stats read that observed it.
        requests = "serve.http.requests"
        assert after[requests] >= before[requests] + 2

    def test_malformed_request_line_is_counted_400(self, cluster, client):
        before = self._counters(client)
        status, body = self._head_rejection(cluster, ["NONSENSE\r\n"])
        assert (status, body) == (400, {"error": "malformed request line"})
        self._assert_counted(before, self._counters(client), 400)

    def test_too_many_header_lines_is_431(self, cluster, client):
        before = self._counters(client)
        # The 101st header line is refused at once, before the blank
        # line that would end the head is ever sent.
        head = "GET /healthz HTTP/1.1\r\n" + "".join(
            f"X-Filler-{i}: {i}\r\n"
            for i in range(serve_server.MAX_HEADER_LINES + 1)
        )
        status, body = self._head_rejection(cluster, [head])
        assert (status, body) == (431, {"error": "too many header lines"})
        self._assert_counted(before, self._counters(client), 431)

    def test_header_line_cap_is_inclusive(self, cluster):
        headers = {
            f"X-Filler-{i}": str(i)
            for i in range(serve_server.MAX_HEADER_LINES - 3)
        }
        # http.client adds Host and Accept-Encoding; 100 lines in all.
        assert self._raw(cluster, "GET", "/healthz", headers=headers)[0] == 200

    def test_one_deadline_covers_the_whole_head(
        self, cluster, client, monkeypatch
    ):
        """A head that trickles in — every line well inside the deadline
        — is still cut off once the head as a whole runs past it."""
        monkeypatch.setattr(serve_server, "HEAD_TIMEOUT_SECONDS", 0.5)
        before = self._counters(client)
        started = time.monotonic()
        # A line every 0.15 s for 3 s: no single wait nears 0.5 s.
        status, body = self._head_rejection(
            cluster,
            ["GET /healthz HTTP/1.1\r\n"]
            + [f"X-Slow-{i}: {i}\r\n" for i in range(20)],
            pause=0.15,
        )
        assert (status, body) == (408, {"error": "request head timed out"})
        assert time.monotonic() - started < 2.5
        self._assert_counted(before, self._counters(client), 408)

    def test_wrong_method_is_405(self, cluster):
        assert self._raw(cluster, "DELETE", "/jobs")[0] == 405
        assert self._raw(cluster, "POST", "/jobs/" + "0" * 64)[0] == 405

    def test_unknown_route_is_404(self, cluster):
        assert self._raw(cluster, "GET", "/nope")[0] == 404

    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["ring"] == {"shards": 2, "replication": 2, "vnodes": 16}
        assert stats["admission"]["queue_limit"] >= 1
        assert {shard["id"] for shard in stats["shards"]} == {0, 1}


class TestObservabilityEndpoints:
    def test_stats_metrics_are_typed(self, client):
        client.health()  # at least one observed request before reading
        metrics = client.stats()["metrics"]
        assert metrics, "serve.http instruments register on first request"
        assert all("type" in entry for entry in metrics.values())
        histogram = metrics["serve.http.request_seconds"]
        assert histogram["type"] == "histogram"
        assert len(histogram["counts"]) == len(histogram["bounds"]) + 1
        assert histogram["count"] == sum(histogram["counts"])
        assert histogram["count"] >= 1
        for quantile in ("p50", "p95", "p99"):
            assert histogram[quantile] >= 0.0
        requests = metrics["serve.http.requests"]
        assert requests == {"type": "counter", "value": requests["value"]}

    def test_metrics_endpoint_is_valid_prometheus_text(self, client):
        from repro.obs.prometheus import parse_exposition, validate_exposition

        client.health()
        text = client.metrics()
        assert validate_exposition(text) == []
        samples = parse_exposition(text)
        assert samples["repro_serve_http_requests_total"] >= 1
        assert any(
            key.startswith("repro_serve_http_request_seconds_bucket")
            for key in samples
        )

    def test_metrics_rejects_post(self, cluster):
        connection = http.client.HTTPConnection(
            "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
        )
        try:
            connection.request("POST", "/metrics")
            assert connection.getresponse().status == 404
        finally:
            connection.close()


class TestBackpressure:
    def test_capped_client_gets_429_with_retry_after(self, cluster):
        admission = cluster.manager.admission
        # occupy every slot this client id is allowed
        for _ in range(admission.max_inflight_per_client):
            assert admission.admit("hog").admitted
        try:
            # a job no other test submits: tags don't enter the content
            # hash, so reusing a ddg+scheme pair would dedupe against an
            # existing record and bypass admission entirely
            hog = ServeClient(cluster.url, client_id="hog")
            status, payload = hog.try_submit(
                _job(ddg=stencil5(), scheme=Scheme.BASELINE, tag="http/hog")
            )
            assert status == 429
            assert payload["error"] == "client_capped"
            assert payload["retry_after"] > 0
            # header form, for well-behaved generic clients
            connection = http.client.HTTPConnection(
                "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
            )
            try:
                raw = json.dumps(
                    {
                        "job": _job(
                            ddg=stencil5(), scheme=Scheme.BASELINE, tag="http/hog"
                        ).to_wire()
                    }
                ).encode()
                connection.request(
                    "POST", "/jobs", body=raw,
                    headers={"x-repro-client": "hog"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                assert response.getheader("Retry-After") is not None
            finally:
                connection.close()
        finally:
            for _ in range(admission.max_inflight_per_client):
                admission.release("hog")

    def test_draining_server_answers_503(self, cluster, client):
        admission = cluster.manager.admission
        admission.start_drain()
        try:
            assert client.health()["status"] == "draining"
            status, payload = client.try_submit(
                _job(ddg=stencil5(), tag="http/drain")
            )
            assert status == 503
            assert payload["error"] == "draining"
        finally:
            admission.stop_drain()
        assert client.health()["status"] == "ok"

"""The HTTP front door: status codes, bodies, headers, lifecycle.

Each test binds an ephemeral port (``port=0``) and speaks real HTTP via
urllib against a live ``BrokerServer``; in-process runners keep it fast.
"""

import asyncio
import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.api import SimRequest
from repro.serve import BrokerConfig, BrokerServer

REQUEST = SimRequest(
    kind="training",
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)

FAST = BrokerConfig(use_processes=False)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process memo is process-global; isolate it per test."""
    import repro.core.sweep as sweep_mod

    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


def _post(address, body, path="/v1/simulate"):
    data = body.encode() if isinstance(body, str) else body
    request = urllib.request.Request(
        f"http://{address}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.status, json.load(reply), dict(reply.headers)


def _get(address, path):
    with urllib.request.urlopen(
        f"http://{address}{path}", timeout=30
    ) as reply:
        return reply.status, json.load(reply)


class TestSimulate:
    def test_ok_round_trip(self):
        with BrokerServer(FAST, port=0) as server:
            status, body, _ = _post(server.address, REQUEST.to_json())
        assert status == 200
        assert body["status"] == "ok"
        assert body["result"]["model"] == "gpt3-13b"
        assert body["request"]["cluster"] == "mi250x32"
        assert body["digest"] == REQUEST.digest()

    def test_second_request_is_cache_hit(self):
        with BrokerServer(FAST, port=0) as server:
            _post(server.address, REQUEST.to_json())
            _, body, _ = _post(server.address, REQUEST.to_json())
            _, metrics = _get(server.address, "/v1/metrics")
        assert body["cached"] is True
        assert metrics["hits"] == 1
        assert metrics["misses"] == 1

    def test_bad_json_is_400(self):
        with BrokerServer(FAST, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.address, "{not json")
        assert excinfo.value.code == 400
        assert "invalid request JSON" in json.load(excinfo.value)["error"]

    def test_invalid_request_is_400_with_suggestion(self):
        payload = json.dumps({
            "kind": "training",
            "model": "gpt13b",
            "cluster": "mi250x32",
            "parallelism": "TP4-PP2",
        })
        with BrokerServer(FAST, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.address, payload)
        assert excinfo.value.code == 400
        assert "did you mean 'gpt3-13b'" in (
            json.load(excinfo.value)["error"]
        )

    def test_queue_full_is_429_with_retry_after(self):
        release = None

        def make_runner(loop_holder):
            def runner(request, timeout_s):
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop_holder[0]
                ).result(timeout=10)
                return "done"

            return runner

        loop_holder = [None]
        config = BrokerConfig(
            cache=False, concurrency=1, queue_limit=0,
            retry_after_s=3.0,
        )
        server = BrokerServer(
            config, port=0, runner=make_runner(loop_holder)
        )
        loop_holder[0] = server.loop
        release = asyncio.run_coroutine_threadsafe(
            _make_event(), server.loop
        ).result()
        try:
            server.start()
            import threading

            first_done = threading.Event()
            outcome = {}

            def occupy():
                outcome["first"] = _post(
                    server.address, REQUEST.to_json()
                )
                first_done.set()

            threading.Thread(target=occupy, daemon=True).start()
            while server.broker.status_dict()["executing"] < 1:
                pass
            other = SimRequest(
                kind="training",
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism="TP4-PP2",
                global_batch_size=8,
                microbatch_size=2,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.address, other.to_json())
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "3"
            body = json.load(excinfo.value)
            assert body["status"] == "rejected"
            server.loop.call_soon_threadsafe(release.set)
            first_done.wait(timeout=30)
            assert outcome["first"][0] == 200
        finally:
            server.stop()


async def _make_event() -> asyncio.Event:
    return asyncio.Event()


class TestStatusEndpoints:
    def test_status(self):
        with BrokerServer(FAST, port=0) as server:
            status, body = _get(server.address, "/v1/status")
        assert status == 200
        assert body["status"] == "ok"
        assert body["concurrency"] == FAST.concurrency
        assert body["uptime_s"] >= 0

    def test_metrics_latency_fields(self):
        with BrokerServer(FAST, port=0) as server:
            _post(server.address, REQUEST.to_json())
            _, body = _get(server.address, "/v1/metrics")
        for key in ("latency_p50_s", "latency_p90_s", "latency_p99_s"):
            assert body[key] >= 0

    def test_unknown_path_is_404(self):
        with BrokerServer(FAST, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.address, "/nope")
        assert excinfo.value.code == 404
        assert "/v1/simulate" in json.load(excinfo.value)["error"]

    def test_post_to_unknown_path_is_404(self):
        with BrokerServer(FAST, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server.address, REQUEST.to_json(), path="/v2/run")
        assert excinfo.value.code == 404


class _CountingWriter:
    """A socket writer that records the size of each write."""

    def __init__(self, inner, sizes: list) -> None:
        self._inner = inner
        self._sizes = sizes

    def write(self, data):
        self._sizes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWire:
    def test_each_response_is_one_write(self):
        """Headers and body leave in one socket write. Sent as two, the
        body of a back-to-back keep-alive answer waits behind Nagle's
        algorithm for the client's delayed ACK of the headers."""
        from repro.serve.http import _Handler

        sizes: list[int] = []

        class CountingHandler(_Handler):
            def setup(self):
                super().setup()
                self.wfile = _CountingWriter(self.wfile, sizes)

        server = BrokerServer(FAST, port=0)
        server._httpd.RequestHandlerClass = CountingHandler
        exchanges = [
            ("POST", "/v1/simulate", REQUEST.to_json(), 200),  # miss
            ("POST", "/v1/simulate", REQUEST.to_json(), 200),  # hit
            ("POST", "/v1/simulate", "{not json", 400),
            ("GET", "/v1/status", None, 200),
            ("GET", "/v1/metrics", None, 200),
            ("GET", "/nope", None, 404),
        ]
        with server:
            host, port = server.address.rsplit(":", 1)
            connection = http.client.HTTPConnection(host, int(port),
                                                    timeout=30)
            try:
                lengths = []
                for method, path, body, code in exchanges:
                    connection.request(method, path, body=body)
                    reply = connection.getresponse()
                    payload = reply.read()
                    assert reply.status == code
                    json.loads(payload)
                    lengths.append(len(payload))
            finally:
                connection.close()
        assert len(sizes) == len(exchanges)
        # Each write carries the whole response: headers plus body.
        assert all(size > length for size, length in zip(sizes, lengths))


class TestLifecycle:
    def test_stop_is_idempotent(self):
        server = BrokerServer(FAST, port=0)
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op

    def test_context_manager_closes_port(self):
        with BrokerServer(FAST, port=0) as server:
            address = server.address
            _get(address, "/v1/status")
        with pytest.raises(OSError):
            _get(address, "/v1/status")

    def test_ephemeral_port_is_reported(self):
        with BrokerServer(FAST, port=0) as server:
            host, port = server.address.rsplit(":", 1)
            assert host == "127.0.0.1"
            assert int(port) > 0

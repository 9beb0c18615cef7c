"""The serve hit path: each distinct request is parsed, keyed and
encoded once, and every body is still ``json.dumps(response.to_dict())``.

Real HTTP against ``BrokerServer`` with in-process execution. The broker
is spied on so each raw body can be compared with the response object
it came from.
"""

import asyncio
import http.client
import json
import threading
from collections import Counter

import pytest

import repro.core.sweep as sweep
from repro.api import OptimizeRequest, SimRequest
from repro.core.parallel import WorkerCrashError, WorkerTimeoutError
from repro.serve import Broker, BrokerConfig, BrokerServer

BASE = dict(model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
            global_batch_size=8)
TRAINING = SimRequest(**BASE)

REQUESTS = {
    "training": ("/v1/simulate", TRAINING),
    "inference": ("/v1/simulate", SimRequest(kind="inference", **BASE)),
    "serving": ("/v1/simulate", SimRequest(
        kind="serving", model="gpt3-13b", cluster="mi250x32")),
    "optimize": ("/v1/optimize", OptimizeRequest(
        model="gpt3-13b", cluster="mi250x32", global_batch_size=8,
        microbatch_sizes=(1,), parallelisms=("TP4-PP2",),
        schedules=("1f1b",), beam_width=1, refine_top=1)),
}

FAST = BrokerConfig(use_processes=False)
#: As ``repro serve`` builds it: degraded answers on, in-process here.
DEGRADED = BrokerConfig(use_processes=False, degraded=True)


@pytest.fixture(autouse=True)
def _fresh_memo():
    sweep._CACHE.clear()
    yield
    sweep._CACHE.clear()


@pytest.fixture
def key_calls(monkeypatch):
    """Counts every cache-key and key-digest computation."""
    tally = Counter()
    for name in ("cache_key", "key_digest"):
        original = getattr(sweep, name)

        def counted(*args, _original=original, _name=name):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sweep, name, counted)
    return tally


class Client:
    """One keep-alive connection to a server, plus a spy that keeps
    every response object the broker returned."""

    def __init__(self, server: BrokerServer) -> None:
        host, port = server.address.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
        self.responses = []
        broker = server.broker
        submit = broker.submit

        async def spy(request, **kwargs):
            response = await submit(request, **kwargs)
            self.responses.append(response)
            return response

        broker.submit = spy

    def post(self, body, path="/v1/simulate", headers=None):
        self.conn.request("POST", path, body=body, headers=headers or {})
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def get(self, path):
        self.conn.request("GET", path)
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def expected(self) -> bytes:
        """The body the last response had before bodies were encoded
        from kept fragments."""
        return json.dumps(self.responses[-1].to_dict()).encode()

    def close(self) -> None:
        self.conn.close()


@pytest.fixture
def served():
    servers, clients = [], []

    def start(config=FAST, runner=None):
        server = BrokerServer(config, port=0, runner=runner).start()
        servers.append(server)
        client = Client(server)
        clients.append(client)
        return server, client

    yield start
    for client in clients:
        client.close()
    for server in servers:
        server.stop()


class TestKeyCounts:
    @pytest.mark.parametrize("name", ["training", "optimize"])
    def test_first_request_keys_once_and_a_repeat_never(
            self, served, key_calls, name):
        path, request = REQUESTS[name]
        _, client = served(DEGRADED)
        if name == "optimize":
            # The search itself keys its probes; only the hit counts.
            assert client.post(request.to_json(), path)[0] == 200
        else:
            key_calls.clear()
            assert client.post(request.to_json(), path)[0] == 200
            assert not client.responses[-1].cached
            assert key_calls == {"cache_key": 1, "key_digest": 1}
        # Another spelling of the same request is a first body: a hit
        # that keys once.
        other = json.dumps(request.to_dict())
        assert other != request.to_json()
        key_calls.clear()
        assert client.post(other, path)[0] == 200
        assert client.responses[-1].cached
        assert key_calls == {"cache_key": 1, "key_digest": 1}
        # Repeated bodies are parsed, keyed and encoded already.
        key_calls.clear()
        replies = [client.post(body, path)
                   for body in (other, request.to_json(), other)]
        assert key_calls == {}
        for (status, raw), response in zip(replies,
                                           client.responses[-3:]):
            assert status == 200
            assert raw == json.dumps(response.to_dict()).encode()

    def test_broker_alone_keys_a_hit_and_a_miss_once(self, key_calls):
        async def scenario():
            broker = Broker(DEGRADED)
            try:
                for cached in (False, True):
                    key_calls.clear()
                    response = await broker.submit(TRAINING)
                    assert response.ok and response.cached is cached
                    assert key_calls == {"cache_key": 1, "key_digest": 1}
            finally:
                broker.close()

        asyncio.run(scenario())


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_miss_hit_and_repeat_bodies(self, served, name):
        path, request = REQUESTS[name]
        _, client = served(DEGRADED)
        for cached in (False, True, True):
            status, raw = client.post(request.to_json(), path)
            assert status == 200
            assert client.responses[-1].cached is cached
            assert raw == client.expected()

    def test_deduped_body_echoes_its_own_request(self, served):
        gate = threading.Event()

        def runner(request, timeout_s):
            gate.wait(timeout=30)
            return {"answer": 42}

        server, first = served(
            BrokerConfig(use_processes=False, cache=False), runner
        )
        second = Client(server)
        try:
            slow = threading.Thread(
                target=first.post,
                args=(TRAINING.to_json(), "/v1/simulate",
                      {"X-Repro-Deadline-S": "30"}),
            )
            slow.start()
            while server.broker.status_dict()["executing"] < 1:
                pass
            results = []
            worker = threading.Thread(
                target=lambda: results.append(
                    second.post(TRAINING.to_json())
                )
            )
            worker.start()
            while server.broker.metrics.deduped < 1:
                pass
            gate.set()
            slow.join(timeout=30)
            worker.join(timeout=30)
        finally:
            second.close()
        status, raw = results[0]
        response = json.loads(raw)
        assert status == 200 and response["deduped"] is True
        # The dedup answer echoes this client's own request (no
        # deadline), not the executing one's (deadline 30).
        assert response["request"]["timeout_s"] is None
        deduped = [r for r in second.responses if r.deduped]
        assert deduped[0].request.timeout_s is None
        assert raw == json.dumps(deduped[0].to_dict()).encode()

    def test_400_and_404_bodies(self, served):
        _, client = served()
        status, raw = client.post("{not json")
        with pytest.raises(ValueError) as error:
            SimRequest.from_json("{not json")
        assert status == 400
        assert raw == json.dumps(
            {"status": "error", "error": str(error.value)}
        ).encode()
        status, raw = client.post(TRAINING.to_json(), "/v2/run")
        assert status == 404
        assert raw == json.dumps({
            "status": "error",
            "error": "unknown path '/v2/run'; known: POST /v1/simulate, "
                     "POST /v1/optimize, GET /v1/status, GET /v1/metrics",
        }).encode()

    def test_429_body(self, served):
        gate = threading.Event()

        def runner(request, timeout_s):
            gate.wait(timeout=30)
            return {"answer": 42}

        server, client = served(
            BrokerConfig(use_processes=False, cache=False, concurrency=1,
                         queue_limit=0, retry_after_s=3.0),
            runner,
        )
        blocked = Client(server)
        occupy = threading.Thread(target=blocked.post,
                                  args=(TRAINING.to_json(),))
        occupy.start()
        try:
            while server.broker.status_dict()["executing"] < 1:
                pass
            other = SimRequest(**{**BASE, "microbatch_size": 2})
            status, raw = client.post(other.to_json())
            rejected = client.responses[-1]
        finally:
            gate.set()
            occupy.join(timeout=30)
            blocked.close()
        assert status == 429 and rejected.status == "rejected"
        assert raw == json.dumps(rejected.to_dict()).encode()

    @pytest.mark.parametrize("failure, code", [
        (WorkerTimeoutError("worker exceeded its deadline"), 504),
        (WorkerCrashError("worker died"), 500),
    ])
    def test_failure_bodies(self, served, failure, code):
        def runner(request, timeout_s):
            raise failure

        _, client = served(
            BrokerConfig(use_processes=False, cache=False), runner
        )
        for _ in range(2):
            status, raw = client.post(TRAINING.to_json())
            assert status == code
            assert raw == client.expected()


class _SpyTable:
    """Records every read and write of the encoded-result table."""

    def __init__(self, table) -> None:
        self.table = table
        self.calls = []

    def get(self, key):
        self.calls.append(("get", key))
        return self.table.get(key)

    def put(self, key, value):
        self.calls.append(("put", key))
        self.table.put(key, value)


class TestDegradedAnswers:
    def test_degraded_answers_never_touch_the_encoded_table(self, served):
        outcomes = [{"answer": 42}]

        def runner(request, timeout_s):
            if outcomes:
                return outcomes.pop()
            raise WorkerCrashError("worker died")

        server, client = served(
            BrokerConfig(use_processes=False, cache=False, degraded=True),
            runner,
        )
        spy = server._httpd.encoded = _SpyTable(server._httpd.encoded)
        status, raw = client.post(TRAINING.to_json())
        assert status == 200 and raw == client.expected()
        digest = TRAINING.digest()
        assert spy.calls == [("get", digest), ("put", digest)]
        spy.calls.clear()
        other = SimRequest(**{**BASE, "microbatch_size": 2})
        for body, source in ((TRAINING.to_json(), "stale-cache"),
                             (other.to_json(), "analytic")):
            status, raw = client.post(body)
            response = client.responses[-1]
            assert status == 200
            assert response.degraded and response.degraded_source == source
            assert raw == client.expected()
        assert spy.calls == []


class TestDeadlineHeader:
    def test_same_body_echoes_its_own_deadline(self, served):
        _, client = served()
        body = TRAINING.to_json()
        seen = []
        for headers in ({}, {"X-Repro-Deadline-S": "7.5"}, {},
                        {"X-Repro-Deadline-S": "7.5"}):
            status, raw = client.post(body, headers=headers)
            assert status == 200 and raw == client.expected()
            seen.append(json.loads(raw)["request"]["timeout_s"])
        assert seen == [None, 7.5, None, 7.5]

    def test_body_deadline_wins_over_the_header(self, served):
        _, client = served()
        body = SimRequest(timeout_s=12.0, **BASE).to_json()
        status, raw = client.post(body,
                                  headers={"X-Repro-Deadline-S": "3"})
        assert status == 200
        assert json.loads(raw)["request"]["timeout_s"] == 12.0

    def test_bad_header_is_400_every_time(self, served):
        _, client = served()
        for _ in range(2):
            status, raw = client.post(
                TRAINING.to_json(), headers={"X-Repro-Deadline-S": "soon"}
            )
            assert status == 400
            assert "soon" in json.loads(raw)["error"]


class TestCacheTierCounters:
    def test_memo_and_store_hits_sum_to_hits(self):
        async def scenario():
            first = Broker(FAST)
            try:
                assert not (await first.submit(TRAINING)).cached
                assert (await first.submit(TRAINING)).cached
                one = first.metrics_dict()
            finally:
                first.close()
            sweep._CACHE.clear()  # a fresh process over a warm store
            second = Broker(FAST)
            try:
                assert (await second.submit(TRAINING)).cached
                assert (await second.submit(TRAINING)).cached
                two = second.metrics_dict()
            finally:
                second.close()
            return one, two

        one, two = asyncio.run(scenario())
        assert (one["memo_hits"], one["store_hits"], one["hits"]) == (1, 0, 1)
        assert (two["memo_hits"], two["store_hits"], two["hits"]) == (1, 1, 2)
        for metrics in (one, two):
            assert metrics["memo_hits"] + metrics["store_hits"] == (
                metrics["hits"]
            )

    def test_metrics_endpoint_reports_the_tiers(self, served):
        _, client = served()
        for _ in range(3):
            client.post(TRAINING.to_json())
        status, raw = client.get("/v1/metrics")
        metrics = json.loads(raw)
        assert status == 200
        assert (metrics["memo_hits"], metrics["store_hits"]) == (2, 0)
        assert metrics["hits"] == 2

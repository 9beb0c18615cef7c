"""Stdlib HTTP front end for the broker: JSON in, JSON out.

No third-party server: a ``ThreadingHTTPServer`` accepts connections
and each handler thread bridges into the broker's private asyncio loop
with :func:`asyncio.run_coroutine_threadsafe`, so all admission-control
state stays single-threaded inside the loop.

Endpoints (see docs/api.md for request/response schemas):

- ``POST /v1/simulate`` — body is :meth:`SimRequest.to_dict` JSON.
  ``200`` ok, ``400`` malformed/invalid request, ``429`` queue full
  (with ``Retry-After``), ``504`` per-request deadline, ``500`` worker
  crash or payload error. Every non-400 body is
  :meth:`SimResponse.to_dict` JSON. An ``X-Repro-Deadline-S`` request
  header sets the per-request deadline when the body carries no
  ``timeout_s`` of its own — the deadline then propagates HTTP →
  broker → worker, so a late answer is cancelled at every layer
  (degraded-mode brokers may still answer approximately; such bodies
  carry ``degraded: true``).
- ``POST /v1/optimize`` — body is :meth:`OptimizeRequest.to_dict`
  JSON; same status codes, deadline header, and response envelope as
  ``/v1/simulate``, with ``result`` carrying
  :meth:`OptimizeResult.to_dict`. Finished searches are
  content-addressed by request digest, so repeating one is a cache
  hit.
- ``GET /v1/status`` — liveness + queue depth.
- ``GET /v1/metrics`` — counters, hit rate (``hits`` split into
  ``memo_hits`` and ``store_hits``), p50/p90/p99 latency, and the
  resilience counters (``errors_total``, ``retries_total``,
  ``respawns_total``, ``degraded_total``).

A repeated request skips the work the server already did for it. The
server keeps two small bounded tables: one maps (endpoint, body bytes,
deadline header) to the validated request, its
:class:`~repro.core.sweep.RunIdentity` and its JSON; the other maps a
digest to its exact result and that result's JSON. A response body is
:meth:`SimResponse.encode` with those fragments spliced in, byte for
byte what ``json.dumps(response.to_dict())`` gives. The broker still
runs in full for every request: counters, dedup, admission, execution.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import json
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

from repro.api import OptimizeRequest, SimRequest
from repro.core.sweep import RunIdentity
from repro.serve.broker import (
    Broker,
    BrokerConfig,
    SimResponse,
    result_payload,
)

_STATUS_CODES = {
    "ok": 200,
    "rejected": 429,
    "timeout": 504,
    "error": 500,
}

#: Distinct request bodies whose parse the server keeps.
_PARSED_LIMIT = 256

#: Exact results whose encoded JSON the server keeps.
_ENCODED_LIMIT = 256


class _Table:
    """A fixed-size, thread-safe LRU map (handler threads share it)."""

    def __init__(self, limit: int) -> None:
        self._limit = limit
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self._limit:
                self._items.popitem(last=False)


class _Parsed(NamedTuple):
    """One validated request body: the request, its identity (carried
    beside it, never stored on it) and ``json.dumps`` of its dict."""

    request: SimRequest | OptimizeRequest
    identity: RunIdentity
    request_json: str


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the owning server carries broker + loop."""

    server: "_Server"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, code: int, body: dict,
                   headers: dict | None = None) -> None:
        self._send(code, json.dumps(body).encode(), headers)

    def _send(self, code: int, payload: bytes,
              headers: dict | None = None) -> None:
        # Compose the response in memory and send it in one write: sent
        # as two, the body waits behind Nagle's algorithm for the
        # client's delayed ACK of the headers (about 40 ms per
        # back-to-back keep-alive request).
        wire, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
            response = self.wfile.getvalue()
        finally:
            self.wfile = wire
        wire.write(response)

    def _not_found(self) -> None:
        self._send_json(
            404,
            {
                "status": "error",
                "error": f"unknown path {self.path!r}; known: "
                "POST /v1/simulate, POST /v1/optimize, "
                "GET /v1/status, GET /v1/metrics",
            },
        )

    # -- endpoints ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/v1/status":
            self._send_json(200, self.server.broker.status_dict())
        elif self.path == "/v1/metrics":
            self._send_json(200, self.server.broker.metrics_dict())
        else:
            self._not_found()

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/v1/simulate":
            request_type = SimRequest
        elif self.path == "/v1/optimize":
            request_type = OptimizeRequest
        else:
            self._not_found()
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            parsed = self.server.parse(
                request_type, self.path, self.rfile.read(length),
                self.headers.get("X-Repro-Deadline-S"),
            )
        except (ValueError, TypeError, UnicodeDecodeError) as error:
            self._send_json(
                400, {"status": "error", "error": str(error)}
            )
            return
        response: SimResponse = asyncio.run_coroutine_threadsafe(
            self.server.broker.submit(
                parsed.request, identity=parsed.identity
            ),
            self.server.loop,
        ).result()
        headers = {}
        if response.retry_after_s is not None:
            headers["Retry-After"] = f"{response.retry_after_s:g}"
        self._send(
            _STATUS_CODES.get(response.status, 500),
            self.server.body(response, parsed),
            headers,
        )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    broker: Broker
    loop: asyncio.AbstractEventLoop
    verbose: bool = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.parsed = _Table(_PARSED_LIMIT)
        self.encoded = _Table(_ENCODED_LIMIT)

    def parse(self, request_type, path: str, body: bytes,
              deadline: str | None) -> _Parsed:
        """Validate one request body, or reuse an earlier parse of the
        same body sent to the same endpoint with the same deadline
        header. The header sets ``timeout_s`` when the body has none."""
        key = (path, body, deadline)
        parsed = self.parsed.get(key)
        if parsed is None:
            request = request_type.from_json(body.decode())
            if deadline is not None and request.timeout_s is None:
                request = dataclasses.replace(
                    request, timeout_s=float(deadline)
                )
            parsed = _Parsed(request, request.identity(),
                             json.dumps(request.to_dict()))
            self.parsed.put(key, parsed)
        return parsed

    def body(self, response: SimResponse, parsed: _Parsed) -> bytes:
        """The response body, from the fragments already encoded.

        An exact answer's result JSON is kept per digest and reused
        while the same result object answers; degraded answers neither
        read nor fill that table.
        """
        digest = parsed.identity.digest
        result_json = None
        if response.ok and not response.degraded:
            result = response.result
            entry = self.encoded.get(digest)
            if entry is None or entry[0] is not result:
                entry = (result, json.dumps(result_payload(result)))
                self.encoded.put(digest, entry)
            result_json = entry[1]
        return response.encode(parsed.request_json, digest, result_json)


class BrokerServer:
    """A broker plus its event loop plus a threaded HTTP server.

    Owns one daemon thread running the asyncio loop (all broker state
    lives there) and one ``ThreadingHTTPServer``. ``port=0`` binds an
    ephemeral port (tests); :attr:`address` reports the bound
    ``host:port``. Usable as a context manager::

        with BrokerServer(port=0) as server:
            urllib.request.urlopen(f"http://{server.address}/v1/status")
    """

    def __init__(
        self,
        config: BrokerConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 8053,
        runner=None,
        verbose: bool = False,
    ) -> None:
        self._config = config or BrokerConfig()
        self._runner = runner
        self.loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self.loop.run_forever,
            name="repro-serve-loop",
            daemon=True,
        )
        self._loop_thread.start()
        # The broker's futures/semaphore must be created on its loop.
        self.broker: Broker = asyncio.run_coroutine_threadsafe(
            self._make_broker(), self.loop
        ).result()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.broker = self.broker
        self._httpd.loop = self.loop
        self._httpd.verbose = verbose
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._stopped = False

    async def _make_broker(self) -> Broker:
        return Broker(self._config, runner=self._runner)

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "BrokerServer":
        """Begin accepting connections (returns immediately)."""
        self._http_thread.start()
        return self

    def stop(self) -> None:
        """Shut down the HTTP server and the broker loop."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._loop_thread.join(timeout=5.0)
        self.loop.close()
        self.broker.close()

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def run(self) -> None:
        """Serve until interrupted (the ``repro serve`` CLI loop)."""
        try:
            self.start()
            self._http_thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

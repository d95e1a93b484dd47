"""HTTP transport: server, client, status mapping, lifecycle over the wire.

Covers the transport contract:

- every ``SolveResponse`` status maps to its HTTP code (200/422/504/409)
  and every transport refusal to its own (400/413/429/503);
- the response body for a solved request is byte-identical to the
  in-process ``SolveResponse.to_json()`` for the same content hash —
  the transport must not fork determinism;
- backpressure surfaces as 429 with a ``Retry-After`` header;
- a design nested too deeply to parse fails alone with a 422, and the
  requests batched with it get the bytes of a clean run;
- ``DELETE /v1/solve/{request_id}`` cancels queued work, and a client
  handle's ``cancel()`` round-trips it;
- graceful drain: a server closed mid-request still answers the
  in-flight client before releasing its sockets.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.corpus.generator import CorpusGenerator
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    HttpConfig,
    ServeConfig,
    ServiceOverloaded,
    SolveOptions,
    SolveRequest,
    request_from_json,
    request_to_json,
    response_from_json,
)

MINI_SOURCE = """
module mini (
  input clk,
  input rst_n,
  input a,
  input b,
  output wire y
);
  assign y = a & b;
endmodule
"""

FAST = dict(bmc_depth=6, bmc_random_trials=8)


def fast_request(source: str, **overrides) -> SolveRequest:
    options = dict(FAST)
    options.update(overrides)
    return SolveRequest(source, SolveOptions(**options))


@contextmanager
def http_server(http_config: HttpConfig = None, **serve_overrides):
    """A started server + aimed client over a fresh service."""
    service = AssertService(ServeConfig(**serve_overrides))
    server = AssertHttpServer(service, http_config or HttpConfig())
    server.start()
    try:
        yield server, AssertClient.for_server(server)
    finally:
        server.close()


@pytest.fixture(scope="module")
def shared():
    """One server shared by the read-mostly tests."""
    with http_server() as (server, client):
        yield server, client


class TestSolveRoundTrip:
    def test_ok_response_parses(self, shared):
        _, client = shared
        response = client.solve(fast_request(MINI_SOURCE))
        assert response.ok
        assert response.proposals
        scores = [p.score for p in response.proposals]
        assert scores == sorted(scores, reverse=True)

    def test_http_body_byte_identical_to_in_process(self, shared):
        # The acceptance criterion: for one request content hash, the
        # bytes on the wire ARE the in-process serialization.
        server, client = shared
        request = fast_request(MINI_SOURCE)
        status, _, body = client._request(
            "POST", "/v1/solve", request_to_json(request).encode("utf-8"))
        assert status == 200
        in_process = server.service.solve(request, timeout=60)
        assert body == in_process.to_json().encode("utf-8")
        # And the client's parse round-trips to the same bytes.
        assert response_from_json(body.decode()).to_json().encode() == body

    def test_admission_hit_body_byte_identical_to_in_process(self):
        with http_server() as (server, client):
            request = fast_request(MINI_SOURCE, bmc_depth=7)
            in_process = server.service.solve(request, timeout=60)
            before = server.service.stats()
            bodies = [client._request(
                "POST", "/v1/solve",
                request_to_json(request).encode("utf-8"))
                for _ in range(2)]
            after = server.service.stats()
        for status, _, body in bodies:
            assert status == 200
            assert body == in_process.to_json().encode("utf-8")
        # Both answered at admission: nothing new reached the batcher.
        assert after.batched_requests == before.batched_requests
        assert after.cache_hits - before.cache_hits == 2

    def test_compile_error_maps_to_422(self, shared):
        server, client = shared
        status, _, body = client._request(
            "POST", "/v1/solve",
            request_to_json(SolveRequest("utter garbage ;;;")).encode())
        assert status == 422
        response = response_from_json(body.decode())
        assert response.status == "compile_error"
        assert response.error  # compiler diagnostics travel the wire
        # 422 bodies are byte-deterministic too.
        in_process = server.service.solve(
            SolveRequest("utter garbage ;;;"), timeout=60)
        assert body == in_process.to_json().encode("utf-8")

    def test_solve_returns_structured_compile_error(self, shared):
        _, client = shared
        response = client.solve("module broken (")
        assert response.status == "compile_error"
        assert not response.ok


def post_batch(requests, **serve_overrides):
    """POST ``requests`` concurrently into one batch of a fresh server:
    ``[(status, body)]`` in request order, plus the server's batch count."""
    config = dict(max_batch=len(requests), batch_window_ms=5000,
                  result_cache=False, **serve_overrides)
    with http_server(**config) as (server, client):
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            replies = list(pool.map(
                lambda r: client._request(
                    "POST", "/v1/solve", request_to_json(r).encode()),
                requests))
        batches = server.service.stats().batches
    return [(status, body) for status, _, body in replies], batches


class TestPoisonRequest:
    def test_deeply_nested_design_fails_alone(self):
        generator = CorpusGenerator(seed=29)
        mates = [SolveRequest(seed.source, SolveOptions.for_design(seed, **FAST))
                 for seed in (generator.generate_one(family=family)
                              for family in ("counter", "alu", "fsm"))]
        # One assign nesting 3,000 parentheses: deeper than the parser's
        # recursion can go.
        poison = fast_request(
            "module deep (input a, output wire y);\n  assign y = "
            + "(" * 3000 + "a" + ")" * 3000 + ";\nendmodule\n")
        clean, _ = post_batch(mates)
        mixed, batches = post_batch([mates[0], poison, mates[1], mates[2]])
        assert batches == 1  # all four really shared one batch
        status, body = mixed.pop(1)
        assert status == 422
        assert response_from_json(body.decode()).status == "compile_error"
        assert all(status == 200 for status, _ in clean)
        assert mixed == clean


class TestMalformedRequests:
    @pytest.mark.parametrize("body", [
        b"{not json",
        b"[1, 2, 3]",
        b'"just a string"',
        b'{"options": {}}',                              # no design_source
        b'{"design_source": 42}',                        # wrong type
        b'{"design_source": ""}',                        # empty
        b'{"design_source": "module m; endmodule", "surprise": 1}',
        b'{"design_source": "module m; endmodule", '
        b'"options": {"unknown_knob": 1}}',
        b'{"design_source": "module m; endmodule", '
        b'"options": {"hallucination_rate": 2.0}}',      # fails validate()
        b'{"design_source": "module m; endmodule", '
        b'"options": {"hints": [["short"]]}}',           # malformed hint
    ])
    def test_maps_to_400(self, shared, body):
        _, client = shared
        status, _, data = client._request("POST", "/v1/solve", body)
        assert status == 400
        assert b"error" in data

    def test_client_raises_value_error_on_400(self, shared):
        _, client = shared
        with pytest.raises(ValueError, match="400"):
            client.solve(SolveRequest(MINI_SOURCE,
                                      SolveOptions(hallucination_rate=2.0)))

    def test_unknown_endpoints_404(self, shared):
        _, client = shared
        for method, path in (("GET", "/nope"), ("POST", "/v1/other"),
                             ("DELETE", "/v1/unknown/x")):
            status, _, _ = client._request(method, path)
            assert status == 404

    @pytest.mark.parametrize("length", ["-5", "-1", "nonsense", ""])
    def test_bad_content_length_maps_to_400(self, shared, length):
        # A negative or unparsable Content-Length must be a structured
        # 400, never a handler crash or a read-until-timeout stall.
        import http.client

        _, client = shared
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/solve")
            conn.putheader("Content-Type", "application/json")
            if length:
                conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()

    def test_oversized_body_maps_to_413(self):
        with http_server(HttpConfig(max_body_bytes=256)) as (_, client):
            request = fast_request(MINI_SOURCE)  # well over 256 bytes
            status, _, _ = client._request(
                "POST", "/v1/solve", request_to_json(request).encode())
            assert status == 413
            with pytest.raises(ValueError, match="413"):
                client.solve(request)


class TestDeadlineOverHttp:
    def test_expired_request_maps_to_504_before_any_flush(self):
        # Window so long only the deadline timer can resolve the
        # request: the 504 proves timer-driven expiry works end to end.
        with http_server(max_batch=64, batch_window_ms=30_000) \
                as (server, client):
            status, _, body = client._request(
                "POST", "/v1/solve",
                request_to_json(
                    fast_request(MINI_SOURCE, deadline_ms=40.0)).encode())
            assert status == 504
            response = response_from_json(body.decode())
            assert response.status == "timeout"
            assert server.service.stats().batches == 0
            assert server.service.stats().timeouts == 1


class TestBackpressureOverHttp:
    def test_queue_full_maps_to_429_and_delete_frees_it(self):
        # The service is never started (manage_service=False), so its
        # 1-slot queue cannot drain: the first request parks, the
        # second must bounce with 429 + Retry-After.
        service = AssertService(ServeConfig(max_queue=1))
        server = AssertHttpServer(service, HttpConfig(),
                                  manage_service=False)
        server.start()
        client = AssertClient.for_server(server)
        try:
            handle = client.submit(SolveRequest(
                MINI_SOURCE, SolveOptions(**FAST), request_id="stuck"))
            deadline = time.monotonic() + 5
            while service.stats().queue_depth < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.002)
            assert service.stats().queue_depth == 1

            status, headers, _ = client._request(
                "POST", "/v1/solve",
                request_to_json(fast_request(MINI_SOURCE)).encode())
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            with pytest.raises(ServiceOverloaded):
                client.solve(fast_request(MINI_SOURCE))

            # Client-initiated cancellation frees the parked request:
            # its in-flight POST resolves to 409/cancelled.
            assert handle.cancel() == 1
            response = handle.result(timeout=5)
            assert response.status == "cancelled"
            assert service.stats().cancelled == 1
            assert handle.cancel() == 0  # nothing left under that tag
        finally:
            server.close()
            service.close()

    def test_delete_unknown_request_id_404(self, shared):
        _, client = shared
        status, _, body = client._request("DELETE", "/v1/solve/never-seen")
        assert status == 404
        assert b'"cancelled": 0' in body
        assert client.cancel("never-seen") == 0


class TestOperatorEndpoints:
    def test_healthz(self, shared):
        _, client = shared
        payload = client.healthz()
        assert payload["http_status"] == 200
        assert payload["status"] == "ok"

    def test_statsz_exposes_gauges_and_store(self, shared):
        _, client = shared
        client.solve(fast_request(MINI_SOURCE))
        payload = client.statsz()
        service_stats = payload["service"]
        for gauge in ("inflight", "queue_depth", "queue_capacity",
                      "cancelled", "timeouts", "submitted", "cache_hits"):
            assert gauge in service_stats
        assert service_stats["submitted"] >= 1
        assert "store" in payload  # None without a configured store


class TestLifecycle:
    def test_graceful_drain_answers_inflight_requests(self):
        service = AssertService(ServeConfig(batch_window_ms=5))
        server = AssertHttpServer(service, HttpConfig()).start()
        client = AssertClient.for_server(server)
        handle = client.submit(fast_request(MINI_SOURCE))
        deadline = time.monotonic() + 5
        while service.stats().inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        server.close()  # drain: in-flight work is answered, not reset
        response = handle.result(timeout=10)
        assert response.ok
        # ...and afterwards the socket is really gone.
        with pytest.raises(OSError):
            client.healthz()

    def test_drain_grace_bounds_close_on_unmanaged_service(self):
        # manage_service=False and a service that will never resolve the
        # parked request: close() must reclaim the blocked handler after
        # drain_grace_s (503 to that client) instead of hanging until
        # the server's full wait budget.
        service = AssertService(ServeConfig())  # never started
        server = AssertHttpServer(
            service, HttpConfig(default_timeout_s=120, drain_grace_s=0.5),
            manage_service=False)
        server.start()
        client = AssertClient.for_server(server)
        handle = client.submit(fast_request(MINI_SOURCE))
        deadline = time.monotonic() + 5
        while service.stats().inflight < 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 30  # bounded, not 120s
        from repro.serve import ServiceClosed

        with pytest.raises(ServiceClosed, match="drained"):
            handle.result(timeout=5)
        service.close()

    def test_close_is_idempotent(self):
        service = AssertService(ServeConfig())
        server = AssertHttpServer(service, HttpConfig()).start()
        server.close()
        server.close()

    def test_pipeline_config_serve_http(self):
        from repro.core.api import PipelineConfig

        server = PipelineConfig(n_workers=2, seed=7).serve_http(
            max_batch=4)
        assert server.service.config.n_workers == 2
        assert server.service.config.seed == 7
        assert server.service.config.max_batch == 4
        try:
            server.start()
            assert AssertClient.for_server(server).healthz()["status"] == "ok"
        finally:
            server.close()


class TestWireCodecs:
    def test_request_round_trip(self):
        request = SolveRequest(
            MINI_SOURCE,
            SolveOptions(hints=(("n", "y == 1", None, 0, "msg"),),
                         mine_hints=False, max_proposals=3,
                         hallucination_rate=0.25, bmc_depth=7,
                         bmc_random_trials=9, deadline_ms=1500.0),
            request_id="abc")
        decoded = request_from_json(request_to_json(request).encode())
        assert decoded == request
        assert decoded.cache_key() == request.cache_key()

    def test_decoded_defaults_match_python_defaults(self):
        decoded = request_from_json(
            b'{"design_source": "module m; endmodule"}')
        assert decoded.options == SolveOptions()
        assert decoded.request_id == ""

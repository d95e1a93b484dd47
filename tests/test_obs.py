"""Observability: tracing + metrics, unit level through the fleet.

Covers the observability contract end to end:

- deterministic trace ids and the ``X-Repro-Trace-Id`` wire round trip
  (malformed headers degrade to a freshly derived id, never garbage);
- span nesting via contextvars, the worker export/ingest protocol
  (spans pickle), and back-dated ``solve.<phase>`` spans from the
  engine's existing phase timers;
- the bounded :class:`TraceBuffer` (recent/slowest retention, open-table
  eviction) and trace-fragment merging by span id;
- histograms (quantiles, cumulative buckets), the registry's idempotent
  wiring, strict Prometheus-text parsing, and fleet-style exposition
  merging;
- the acceptance criteria: one fleet-routed request is ONE trace — the
  router's ``fleet.route``, the backend's ``http.server``, the
  service's queue/batch spans and the solve span all share a trace id
  in the router's ``/tracez``; ``/metricsz`` parses as Prometheus text
  at every layer; and response bodies are byte-identical with tracing
  on or off.
"""

from __future__ import annotations

import http.client
import pickle

import pytest

from repro.core.api import FleetConfig, make_fleet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    ServeConfig,
    SolveOptions,
    SolveRequest,
    request_to_json,
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


def fast_request(source: str = MINI_SOURCE, **overrides) -> SolveRequest:
    options = dict(FAST)
    request_id = overrides.pop("request_id", "")
    options.update(overrides)
    return SolveRequest(source, SolveOptions(**options),
                        request_id=request_id)


@pytest.fixture()
def clean_tracing():
    """Tracing on, fresh buffer; restores the previous state after."""
    previous = obs_trace.configure(enabled=True)
    obs_trace.reset()
    yield
    obs_trace.configure(enabled=previous)
    obs_trace.reset()


def trace_by_id(snapshot, trace_id):
    for record in snapshot["recent"]:
        if record["trace_id"] == trace_id:
            return record
    return None


def span_names(record):
    return [entry["name"] for entry in record["spans"]]


# -- trace ids and the wire header ---------------------------------------------


class TestTraceIds:
    def test_deterministic_and_distinct(self):
        a = obs_trace.trace_id_for("key", "req-1")
        assert a == obs_trace.trace_id_for("key", "req-1")
        assert len(a) == 32
        assert all(c in "0123456789abcdef" for c in a)
        assert a != obs_trace.trace_id_for("key", "req-2")
        assert a != obs_trace.trace_id_for("other", "req-1")
        # Length-prefixed hashing: no concatenation ambiguity.
        assert obs_trace.trace_id_for("ab", "c") \
            != obs_trace.trace_id_for("a", "bc")

    def test_header_round_trip(self):
        ctx = obs_trace.SpanContext("ab" * 16, "cd" * 8)
        header = obs_trace.format_trace_header(ctx)
        trace_id, parent = obs_trace.parse_trace_header(header)
        assert trace_id == ctx.trace_id
        assert parent.as_tuple() == ctx.as_tuple()

    def test_bare_trace_id_parses_without_parent(self):
        trace_id, parent = obs_trace.parse_trace_header("ab" * 16)
        assert trace_id == "ab" * 16
        assert parent is None

    @pytest.mark.parametrize("value", [
        "", "not-hex!", "abc",                 # empty / non-hex / too short
        "ABCDEF0123456789",                    # uppercase refused
        "ab" * 40,                             # too long
        f"{'ab' * 16}/xyz",                    # bad parent id
        f"{'ab' * 16}/{'cd' * 20}",            # parent too long
    ])
    def test_malformed_headers_degrade_to_none(self, value):
        assert obs_trace.parse_trace_header(value) == (None, None)


# -- spans, propagation, export ------------------------------------------------


class TestSpans:
    def test_nesting_parents_automatically(self, clean_tracing):
        trace_id = obs_trace.trace_id_for("nest", "")
        with obs_trace.span("outer", trace_id=trace_id, root=True) as outer:
            with obs_trace.span("inner") as inner:
                assert inner.trace_id == trace_id
                assert inner.parent_id == outer.span_id
                assert obs_trace.current().span_id == inner.span_id
            assert obs_trace.current().span_id == outer.span_id
        record = trace_by_id(obs_trace.buffer().snapshot(), trace_id)
        assert span_names(record) == ["outer", "inner"]
        assert record["spans"][0]["root"] is True
        assert not any(entry.get("in_progress")
                       for entry in record["spans"])

    def test_no_trace_means_no_span(self, clean_tracing):
        # Outside any request trace (batch datagen), spans are free.
        assert obs_trace.begin("orphan") is None
        with obs_trace.span("orphan") as span_obj:
            assert span_obj is None
        assert obs_trace.buffer().snapshot()["recent"] == []

    def test_disabled_tracing_records_nothing(self, clean_tracing):
        obs_trace.configure(enabled=False)
        assert not obs_trace.enabled()
        with obs_trace.span("off", trace_id="ab" * 16, root=True) as span_obj:
            assert span_obj is None
        snapshot = obs_trace.buffer().snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["recent"] == []

    def test_end_is_idempotent_and_merges_attrs(self, clean_tracing):
        span_obj = obs_trace.begin("once", trace_id="ab" * 16, root=True)
        span_obj.end(status="ok")
        first = span_obj.duration
        span_obj.end(status="overwritten-not")
        assert span_obj.duration == first
        assert span_obj.attrs["status"] == "ok"

    def test_record_phase_backdates_a_child(self, clean_tracing):
        trace_id = obs_trace.trace_id_for("phase", "")
        with obs_trace.span("solve", trace_id=trace_id, root=True) as parent:
            obs_trace.record_phase("simulate", 0.25)
        record = trace_by_id(obs_trace.buffer().snapshot(), trace_id)
        phase = next(e for e in record["spans"]
                     if e["name"] == "solve.simulate")
        assert phase["parent_id"] == parent.span_id
        assert phase["duration_ms"] == pytest.approx(250.0)
        # Back-dated start: the phase began ~250ms before it was
        # reported, i.e. at (or before) the parent's own start.
        assert phase["offset_ms"] <= record["spans"][0]["offset_ms"] + 1.0

    def test_record_phase_outside_a_trace_is_a_noop(self, clean_tracing):
        obs_trace.record_phase("simulate", 1.0)
        assert obs_trace.buffer().snapshot()["recent"] == []

    def test_export_and_ingest_round_trip_through_pickle(
            self, clean_tracing):
        # The engine's worker protocol: spans finished under
        # export_spans() never touch the local buffer; they ship back
        # (pickled, like unit results) and ingest() lands them.
        trace_id = obs_trace.trace_id_for("export", "")
        with obs_trace.export_spans() as exported:
            with obs_trace.span("engine.unit", trace_id=trace_id):
                obs_trace.record_phase("bmc", 0.01)
        assert obs_trace.buffer().snapshot()["recent"] == []
        assert {s.name for s in exported} == {"engine.unit", "solve.bmc"}
        shipped = pickle.loads(pickle.dumps(exported))
        obs_trace.ingest(shipped)
        # Ingested spans sit in the open table until the trace's root
        # finishes elsewhere; finalize by hand to inspect them.
        obs_trace.buffer().finish(trace_id)
        (record,) = obs_trace.buffer().snapshot()["recent"]
        assert sorted(span_names(record)) == ["engine.unit", "solve.bmc"]


# -- the bounded buffer and fragment merging -----------------------------------


class TestTraceBuffer:
    @staticmethod
    def _finish_trace(buffer, trace_id, duration):
        span_obj = obs_trace.Span("root", trace_id, root=True)
        span_obj.duration = duration
        span_obj._sink = ()  # keep end() off the global buffer
        buffer.add(span_obj)
        span_obj.done = True
        buffer.finish(trace_id)

    def test_recent_and_slowest_retention(self):
        buffer = obs_trace.TraceBuffer(max_recent=3, max_slowest=2)
        for i in range(6):
            # Durations 5,4,3,2,1,0: the slowest arrive first, so the
            # slowest set must survive the later, faster traffic.
            self._finish_trace(buffer, f"{i:032x}", float(5 - i))
        snapshot = buffer.snapshot()
        assert snapshot["finished"] == 6
        assert [r["trace_id"] for r in snapshot["recent"]] \
            == [f"{i:032x}" for i in (3, 4, 5)]
        assert [r["duration_ms"] for r in snapshot["slowest"]] \
            == [5000.0, 4000.0]

    def test_open_table_eviction_counts_drops(self):
        buffer = obs_trace.TraceBuffer(max_open=2)
        for i in range(4):
            buffer.add(obs_trace.Span("s", f"{i:032x}"))
        snapshot = buffer.snapshot()
        assert snapshot["open"] == 2
        assert snapshot["dropped"] == 2
        buffer.finish("0" * 32)  # evicted: finalizes nothing
        assert buffer.snapshot()["finished"] == 0

    def test_finish_unknown_trace_is_harmless(self):
        buffer = obs_trace.TraceBuffer()
        buffer.finish("f" * 32)
        assert buffer.snapshot()["finished"] == 0

    @pytest.mark.parametrize("kwargs", [
        dict(max_recent=0), dict(max_slowest=-1), dict(max_open=0),
        dict(max_recent=True),
    ])
    def test_bound_validation(self, kwargs):
        with pytest.raises(ValueError):
            obs_trace.TraceBuffer(**kwargs)

    def test_merge_dedups_spans_and_rebases_offsets(self):
        trace_id = "a" * 32
        shared = {"name": "http.server", "span_id": "s1", "parent_id": None,
                  "offset_ms": 0.0, "duration_ms": 30.0, "root": True}
        early = {"trace_id": trace_id, "name": "http.server",
                 "duration_ms": 30.0, "epoch": 100.0,
                 "spans": [dict(shared),
                           {"name": "queue.wait", "span_id": "s2",
                            "parent_id": "s1", "offset_ms": 1.0,
                            "duration_ms": 5.0}]}
        late = {"trace_id": trace_id, "name": "http.server",
                "duration_ms": 28.0, "epoch": 100.01,
                "spans": [dict(shared),  # duplicate span id: dropped
                          {"name": "solve", "span_id": "s3",
                           "parent_id": "s1", "offset_ms": 2.0,
                           "duration_ms": 20.0}]}
        (merged,) = obs_trace.merge_trace_records([early, late])
        assert merged["n_spans"] == 3
        assert merged["duration_ms"] == 30.0
        solve = next(e for e in merged["spans"] if e["name"] == "solve")
        # The late fragment's epoch is 10ms after the early one's.
        assert solve["offset_ms"] == pytest.approx(12.0)
        assert [e["span_id"] for e in merged["spans"]].count("s1") == 1


# -- metrics: histograms, registry, exposition ---------------------------------


class TestHistogram:
    def test_quantiles_interpolate_within_buckets(self):
        hist = obs_metrics.Histogram("t_seconds", "test",
                                     buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.5)
        assert 0.0 < hist.quantile(0.25) <= 1.0
        assert 1.0 < hist.quantile(0.75) <= 2.0
        assert hist.quantile(1.0) <= 4.0

    def test_overflow_clamps_to_last_bound(self):
        hist = obs_metrics.Histogram("t_seconds", "test", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.5) == 2.0

    def test_empty_histogram_quantile_is_zero(self):
        hist = obs_metrics.Histogram("t_seconds", "test")
        assert hist.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(0.0)

    def test_cumulative_bucket_exposition(self):
        hist = obs_metrics.Histogram("t_seconds", "test", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        lines = []
        hist.render(lines)
        parsed = obs_metrics.parse_prometheus_text("\n".join(lines))
        assert parsed.value("t_seconds_bucket", le="1") == 1.0
        assert parsed.value("t_seconds_bucket", le="2") == 2.0
        assert parsed.value("t_seconds_bucket", le="+Inf") == 3.0
        assert parsed.value("t_seconds_count") == 3.0
        assert parsed.types["t_seconds"] == "histogram"

    def test_bucket_validation(self):
        for bad in ((), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError):
                obs_metrics.Histogram("t", "test", buckets=bad)


class TestRegistry:
    def test_registration_is_idempotent_by_shape(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter("a_total", "help")
        assert registry.counter("a_total", "other help") is counter
        with pytest.raises(ValueError):
            registry.gauge("a_total", "now a gauge")

    def test_counters_refuse_decrements(self):
        counter = obs_metrics.MetricsRegistry().counter("a_total", "help")
        counter.inc(2)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 2.0

    def test_counter_family_labels(self):
        registry = obs_metrics.MetricsRegistry()
        family = registry.counter_family("req_total", "help",
                                         ("handler", "code"))
        family.labels(handler="solve", code="200").inc()
        family.labels(handler="solve", code="200").inc()
        family.labels(handler="solve", code="429").inc()
        with pytest.raises(ValueError):
            family.labels(handler="solve")  # missing label
        parsed = obs_metrics.parse_prometheus_text(registry.render())
        assert parsed.value("req_total", handler="solve", code="200") == 2.0
        assert parsed.value("req_total", handler="solve", code="429") == 1.0

    def test_provider_family_renders_prefixed_and_survives_errors(self):
        registry = obs_metrics.MetricsRegistry()
        registry.provider("pre", "help", lambda: {"hits": 3, "bad name": 1})
        registry.provider("boom", "help",
                          lambda: (_ for _ in ()).throw(RuntimeError()))
        parsed = obs_metrics.parse_prometheus_text(registry.render())
        assert parsed.value("pre_hits") == 3.0
        assert parsed.value("pre_bad name") is None  # invalid name skipped


class TestExposition:
    def test_parse_rejects_malformed_lines(self):
        for bad in ("metric_without_value",
                    "name{unclosed=\"x\" 1",
                    "name 12abc",
                    "# TYPE incomplete"):
            with pytest.raises(ValueError):
                obs_metrics.parse_prometheus_text(bad)

    def test_label_escaping_round_trips(self):
        registry = obs_metrics.MetricsRegistry()
        family = registry.counter_family("esc_total", "help", ("path",))
        family.labels(path='a"b\\c\nd').inc()
        parsed = obs_metrics.parse_prometheus_text(registry.render())
        assert parsed.value("esc_total", path='a"b\\c\nd') == 1.0

    def test_merge_expositions_sums_by_name_and_labels(self):
        def backend(n):
            registry = obs_metrics.MetricsRegistry()
            registry.counter("solved_total", "help").inc(n)
            hist = registry.histogram("lat_seconds", "help",
                                      buckets=(1.0, 2.0))
            hist.observe(0.5)
            return registry.render()

        merged = obs_metrics.merge_expositions([backend(2), backend(3)])
        parsed = obs_metrics.parse_prometheus_text(merged)
        assert parsed.value("solved_total") == 5.0
        assert parsed.value("lat_seconds_bucket", le="1") == 2.0
        assert parsed.value("lat_seconds_count") == 2.0
        assert parsed.types["lat_seconds"] == "histogram"


# -- the serving stack, instrumented -------------------------------------------


class TestServiceTracing:
    def test_in_process_solve_yields_one_finished_trace(self, clean_tracing):
        request = fast_request(request_id="trace-me")
        trace_id = obs_trace.trace_id_for(request.cache_key(), "trace-me")
        with AssertService(ServeConfig(batch_window_ms=5.0)) as service:
            response = service.solve(request, timeout=60)
            assert response.ok
            record = trace_by_id(obs_trace.buffer().snapshot(), trace_id)
        assert record is not None
        names = span_names(record)
        assert names[0] == "request.inflight"
        assert record["spans"][0]["root"] is True
        assert record["spans"][0]["attrs"]["status"] == "ok"
        assert "queue.wait" in names
        assert "batch.wait" in names
        assert "solve" in names
        # The engine's phase timers surfaced as solve.* child spans.
        assert any(name.startswith("solve.") for name in names)

    def test_service_metricsz_counts_the_request(self, clean_tracing):
        with AssertService(ServeConfig(batch_window_ms=5.0)) as service:
            assert service.solve(fast_request(), timeout=60).ok
            parsed = obs_metrics.parse_prometheus_text(
                service.metrics.render())
        assert parsed.value("repro_service_submitted_total") == 1.0
        assert parsed.value("repro_service_solved_total") == 1.0
        assert parsed.value("repro_service_request_seconds_count") == 1.0
        assert parsed.value("repro_service_queue_wait_seconds_count") == 1.0

    def test_admission_hit_is_one_ok_span_and_never_queues(
            self, clean_tracing):
        hit = fast_request(request_id="warm-hit")
        trace_id = obs_trace.trace_id_for(hit.cache_key(), "warm-hit")
        with AssertService(ServeConfig(batch_window_ms=5.0)) as service:
            assert service.solve(fast_request(request_id="cold"),
                                 timeout=60).ok
            assert service.solve(hit, timeout=60).ok
            record = trace_by_id(obs_trace.buffer().snapshot(), trace_id)
            parsed = obs_metrics.parse_prometheus_text(
                service.metrics.render())
        assert record is not None
        # No dangling queue.wait: the hit never reached the queue.
        assert span_names(record) == ["request.inflight"]
        attrs = record["spans"][0]["attrs"]
        assert attrs["status"] == "ok"
        assert attrs["cache_hit"] is True
        assert parsed.value("repro_service_request_seconds_count") == 2.0
        assert parsed.value("repro_service_queue_wait_seconds_count") == 1.0


class TestHttpObservability:
    def test_metricsz_parses_and_counts_requests(self, clean_tracing):
        with AssertHttpServer(
                AssertService(ServeConfig(batch_window_ms=5.0))) as server:
            client = AssertClient.for_server(server)
            assert client.solve(fast_request(), timeout=60).ok
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
        assert parsed.value("repro_http_requests_total",
                            handler="solve", code="200") == 1.0
        assert parsed.value("repro_http_request_seconds_count") >= 1.0
        assert parsed.value("repro_service_solved_total") == 1.0
        # The engine provider section rode along (solve phases ran).
        assert any(name.startswith("repro_solve_profile_")
                   for name, _ in parsed.samples)

    def test_incoming_trace_header_is_honored(self, clean_tracing):
        supplied = "ab" * 16
        request = fast_request()
        with AssertHttpServer(
                AssertService(ServeConfig(batch_window_ms=5.0))) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                body = request_to_json(request).encode("utf-8")
                conn.request("POST", "/v1/solve", body=body,
                             headers={"Content-Type": "application/json",
                                      obs_trace.TRACE_HEADER: supplied})
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            record = trace_by_id(
                AssertClient.for_server(server).tracez(), supplied)
        assert record is not None
        assert "http.server" in span_names(record)

    def test_tracez_reports_server_spans(self, clean_tracing):
        request = fast_request(request_id="http-trace")
        trace_id = obs_trace.trace_id_for(request.cache_key(), "http-trace")
        with AssertHttpServer(
                AssertService(ServeConfig(batch_window_ms=5.0))) as server:
            client = AssertClient.for_server(server)
            assert client.solve(request, timeout=60).ok
            record = trace_by_id(client.tracez(), trace_id)
        assert record is not None
        names = span_names(record)
        assert names[0] == "http.server"
        assert record["spans"][0]["attrs"]["code"] == 200
        assert "request.inflight" in names
        assert "solve" in names

    def test_bodies_byte_identical_tracing_on_and_off(self, clean_tracing):
        request = fast_request()
        bodies = {}
        for enabled in (True, False):
            obs_trace.configure(enabled=enabled)
            obs_trace.reset()
            with AssertHttpServer(AssertService(
                    ServeConfig(batch_window_ms=5.0))) as server:
                client = AssertClient.for_server(server)
                _, _, data = client._request(
                    "POST", "/v1/solve",
                    request_to_json(request).encode("utf-8"))
                bodies[enabled] = data
        assert bodies[True] == bodies[False]


class TestFleetObservability:
    def test_one_routed_request_is_one_trace(self, clean_tracing):
        # THE acceptance test: a fleet-routed request shows up in the
        # router's /tracez as a single trace whose spans cover every
        # layer — router, backend HTTP edge, service queue/batch, solve.
        request = fast_request(request_id="fleet-trace")
        trace_id = obs_trace.trace_id_for(request.cache_key(), "fleet-trace")
        router = make_fleet(FleetConfig(n_backends=2),
                            ServeConfig(batch_window_ms=5.0))
        router.start()
        try:
            client = AssertClient.for_server(router)
            assert client.solve(request, timeout=60).ok
            payload = client.tracez()
        finally:
            router.close()
        assert payload["enabled"] is True
        assert payload["backends_reached"] == 2
        record = trace_by_id(payload, trace_id)
        assert record is not None
        names = span_names(record)
        assert names[0] == "fleet.route"
        for name in ("fleet.forward", "http.server", "request.inflight",
                     "queue.wait", "batch.wait", "solve"):
            assert name in names, f"missing {name} in {names}"
        assert any(name.startswith("solve.") for name in names)
        # One coherent parent chain: the backend's server span hangs off
        # the router's forward path, not off a second root.
        by_id = {e["span_id"]: e for e in record["spans"]}
        server_entry = next(e for e in record["spans"]
                            if e["name"] == "http.server")
        assert server_entry["parent_id"] in by_id
        assert sum(1 for e in record["spans"] if e.get("root")) >= 1

    def test_fleet_metricsz_merges_backends(self, clean_tracing):
        router = make_fleet(FleetConfig(n_backends=2),
                            ServeConfig(batch_window_ms=5.0))
        router.start()
        try:
            client = AssertClient.for_server(router)
            for i in range(3):
                request = fast_request(f"// fleet metrics {i}\n{MINI_SOURCE}")
                assert client.solve(request, timeout=60).status \
                    in ("ok", "compile_error")
            parsed = obs_metrics.parse_prometheus_text(client.metricsz())
        finally:
            router.close()
        assert parsed.value("repro_router_routed_total") == 3.0
        # Backend-side solves sum across the fleet.
        assert parsed.value("repro_service_solved_total") == 3.0
        assert parsed.value("repro_service_request_seconds_count") == 3.0
        assert parsed.value("repro_router_backends_healthy") == 2.0

"""Serving layer: service, micro-batcher, result cache, loadgen.

Covers the edge cases the serving contract promises:

- queue-full backpressure raises ``ServiceOverloaded`` instead of
  queueing unboundedly;
- identical requests produce byte-identical responses, cached or not;
- the batcher flushes on batch-size *and* on window timeout;
- malformed Verilog yields a structured ``compile_error`` response, and
  the worker keeps serving afterwards;
- micro-batching beats the sequential one-at-a-time baseline and a
  100%-repeat workload is served dramatically faster from the cache
  (the bench's acceptance criteria, smoke-checked here at small scale).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.baselines.engine import make_baseline
from repro.corpus.generator import CorpusGenerator
from repro.eval.config import EvalConfig
from repro.serve import (
    AssertService,
    EvalRequest,
    ResultCache,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
    run_load,
    solve_task,
)
from repro.serve.service import SolveTask
from repro.verilog.compile import default_compile_cache

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

#: Cheap service settings shared by most tests: tiny BMC budget, serial
#: engine, wide-open queue.
FAST = dict(bmc_depth=6, bmc_random_trials=8)


def fast_request(source: str, **overrides) -> SolveRequest:
    options = dict(FAST)
    options.update(overrides)
    return SolveRequest(source, SolveOptions(**options))


#: Gate of :class:`GatedModel`: module-level, so the model itself stays
#: picklable (``register_model`` digests its pickle).
EVAL_STARTED = threading.Event()
EVAL_RELEASE = threading.Event()


class GatedModel:
    """A baseline whose sampling blocks until ``EVAL_RELEASE`` is set,
    holding its evaluation mid-compute for as long as a test needs."""

    def __init__(self, name: str = "GPT-4"):
        self.inner = make_baseline(name, seed=0)

    def generate_case(self, case, n=20):
        EVAL_STARTED.set()
        assert EVAL_RELEASE.wait(60), "eval never released"
        return self.inner.generate_case(case, n=n)


def cheap_eval(cases, request_id: str = "", **config) -> EvalRequest:
    """A one-case GPT-4 evaluation at a tiny sample budget."""
    config = dict(dict(n_samples=2, k_values=(1,)), **config)
    return EvalRequest("GPT-4", cases[:1], EvalConfig(**config),
                       request_id=request_id)


@pytest.fixture(scope="module")
def tiny_workload():
    """12 requests over 3 unique corpus designs, small BMC budget."""
    return build_workload(WorkloadSpec(n_requests=12, unique_designs=3,
                                       seed=11, bmc_depth=6,
                                       bmc_random_trials=8))


class TestBackpressure:
    def test_queue_full_raises_overloaded(self):
        service = AssertService(ServeConfig(max_queue=3))
        futures = []
        try:
            # Not started: nothing drains, so the bounded queue must fill.
            for _ in range(3):
                futures.append(service.submit(fast_request(MINI_SOURCE)))
            with pytest.raises(ServiceOverloaded):
                service.submit(fast_request(MINI_SOURCE))
            assert service.stats().rejected == 1
            assert service.stats().submitted == 3
            # Starting the consumer drains the accepted requests.
            service.start()
            for future in futures:
                assert future.result(timeout=60).ok
        finally:
            service.close()

    def test_submit_after_close_raises(self):
        service = AssertService(ServeConfig())
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(fast_request(MINI_SOURCE))

    def test_close_drains_accepted_requests(self):
        service = AssertService(ServeConfig(batch_window_ms=50))
        future = service.submit(fast_request(MINI_SOURCE))
        service.start()
        service.close()
        assert future.result(timeout=5).ok


class TestDeterminismAndCache:
    def test_same_request_byte_identical_with_cache(self):
        with AssertService(ServeConfig(result_cache=True)) as service:
            first = service.solve(fast_request(MINI_SOURCE), timeout=60)
            second = service.solve(fast_request(MINI_SOURCE), timeout=60)
            stats = service.stats()
        assert second is first  # served straight from the result cache
        assert second.to_json() == first.to_json()
        assert stats.cache_hits == 1
        assert stats.solved == 1

    def test_cached_equals_recomputed(self):
        request = fast_request(MINI_SOURCE)
        with AssertService(ServeConfig(result_cache=True)) as cached_svc:
            cached = cached_svc.solve(request, timeout=60)
        with AssertService(ServeConfig(result_cache=False)) as plain_svc:
            fresh_a = plain_svc.solve(request, timeout=60)
            fresh_b = plain_svc.solve(request, timeout=60)
            assert plain_svc.stats().solved == 2  # really recomputed
        assert fresh_a.to_json() == fresh_b.to_json() == cached.to_json()

    def test_request_id_does_not_fork_cache(self):
        a = SolveRequest(MINI_SOURCE, SolveOptions(**FAST), request_id="x")
        b = SolveRequest(MINI_SOURCE, SolveOptions(**FAST), request_id="y")
        assert a.cache_key() == b.cache_key()

    def test_options_fork_cache_key(self):
        a = fast_request(MINI_SOURCE, bmc_depth=6)
        b = fast_request(MINI_SOURCE, bmc_depth=7)
        assert a.cache_key() != b.cache_key()

    def test_cache_key_is_hashed_once_and_invisible(self, monkeypatch):
        import pickle

        from repro.serve import service as service_mod

        calls = []
        real_key = service_mod.content_key

        def counting_key(*parts):
            calls.append(parts)
            return real_key(*parts)

        monkeypatch.setattr(service_mod, "content_key", counting_key)
        request = fast_request(MINI_SOURCE)
        twin = fast_request(MINI_SOURCE)
        before = (pickle.dumps(request), repr(request), hash(request))
        assert request.cache_key() == request.cache_key()
        assert len(calls) == 1
        assert (pickle.dumps(request), repr(request),
                hash(request)) == before
        assert request == twin
        restored = pickle.loads(pickle.dumps(request))
        assert restored == request
        assert restored.cache_key() == request.cache_key()

    def test_result_cache_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_solve_task_is_pure(self):
        request = fast_request(MINI_SOURCE)
        task = SolveTask(key=request.cache_key(),
                         design_source=request.design_source,
                         options=request.options, seed=2025)
        assert solve_task(task).to_json() == solve_task(task).to_json()


class TestBatcherFlush:
    def test_flush_on_batch_size(self, tiny_workload):
        config = ServeConfig(max_batch=4, batch_window_ms=5000,
                             result_cache=False)
        with AssertService(config) as service:
            futures = [service.submit(r) for r in tiny_workload[:8]]
            for future in futures:
                assert future.result(timeout=120).ok
            stats = service.stats()
        # 8 requests, window far too long to expire: only size flushes.
        assert stats.flush_size == 2
        assert stats.flush_timeout == 0
        assert stats.max_batch == 4

    def test_flush_on_timeout(self, tiny_workload):
        config = ServeConfig(max_batch=64, batch_window_ms=40,
                             result_cache=False)
        with AssertService(config) as service:
            futures = [service.submit(r) for r in tiny_workload[:3]]
            for future in futures:
                assert future.result(timeout=120).ok
            stats = service.stats()
        # 3 requests can never reach max_batch=64: the window must flush.
        assert stats.flush_timeout >= 1
        assert stats.flush_size == 0
        assert stats.batched_requests == 3

    def test_batch_dedups_identical_requests(self):
        config = ServeConfig(max_batch=8, batch_window_ms=5000,
                             result_cache=False)
        with AssertService(config) as service:
            request = fast_request(MINI_SOURCE)
            futures = [service.submit(request) for _ in range(8)]
            responses = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert stats.solved == 1          # one engine unit for the batch
        assert stats.deduped == 7
        assert len({r.to_json() for r in responses}) == 1


class TestMalformedInput:
    def test_compile_error_is_structured(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve("utter garbage ;;;", timeout=60)
        assert not response.ok
        assert response.status == "compile_error"
        assert response.error  # carries the compiler diagnostics
        assert response.proposals == ()

    def test_worker_survives_malformed_request(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            bad = service.solve("module broken (", timeout=60)
            good = service.solve(tiny_workload[0], timeout=120)
            stats = service.stats()
        assert bad.status == "compile_error"
        assert good.ok and good.proposals
        assert stats.compile_errors == 1
        assert stats.errors == 0  # structured response, not a failed future

    def test_malformed_mixed_into_batch(self, tiny_workload):
        config = ServeConfig(max_batch=4, batch_window_ms=5000)
        with AssertService(config) as service:
            futures = [service.submit(tiny_workload[0]),
                       service.submit("not verilog"),
                       service.submit(tiny_workload[1]),
                       service.submit("also not verilog")]
            responses = [f.result(timeout=120) for f in futures]
        assert [r.status for r in responses] == [
            "ok", "compile_error", "ok", "compile_error"]


class TestHintsAndMining:
    def test_hintless_design_mines_proposals(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve(fast_request(MINI_SOURCE), timeout=60)
        assert response.ok
        assert response.proposals
        assert all(p.origin == "mined" for p in response.proposals)
        assert all(0.0 < p.score <= 1.0 for p in response.proposals)

    def test_mining_disabled_returns_empty_ok(self):
        request = fast_request(MINI_SOURCE, mine_hints=False)
        with AssertService(ServeConfig()) as service:
            response = service.solve(request, timeout=60)
        assert response.ok
        assert response.proposals == ()

    def test_corpus_hints_validate_and_score(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            response = service.solve(tiny_workload[0], timeout=120)
        assert response.ok
        assert response.proposals  # template hints hold on their design
        assert all(p.origin == "hint" for p in response.proposals)
        scores = [p.score for p in response.proposals]
        assert scores == sorted(scores, reverse=True)

    def test_hallucinated_proposals_rejected(self, tiny_workload):
        source = tiny_workload[0].design_source
        base = tiny_workload[0].options
        distorted = SolveOptions(hints=base.hints, hallucination_rate=1.0,
                                 bmc_depth=8, bmc_random_trials=16)
        with AssertService(ServeConfig()) as service:
            response = service.solve(SolveRequest(source, distorted),
                                     timeout=120)
        assert response.ok
        assert response.rejected > 0


class TestLoadgen:
    def test_workload_is_deterministic(self):
        spec = WorkloadSpec(n_requests=10, unique_designs=3, seed=42)
        first = build_workload(spec)
        second = build_workload(spec)
        assert [r.cache_key() for r in first] == \
               [r.cache_key() for r in second]
        assert [r.design_source for r in first] == \
               [r.design_source for r in second]

    def test_workload_repeats_designs(self):
        requests = build_workload(WorkloadSpec(n_requests=16,
                                               unique_designs=3, seed=42))
        assert len({r.cache_key() for r in requests}) <= 3

    def test_run_load_reports_latency(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            report = run_load(service, tiny_workload[:4], concurrency=2,
                              label="smoke")
        assert report.n_requests == 4
        assert report.errors == 0
        assert report.req_per_sec > 0
        assert 0 < report.p50_ms <= report.p95_ms <= report.max_ms
        assert all(r is not None and r.ok for r in report.responses)


class TestServingWins:
    """Small-scale smoke checks of the bench acceptance criteria."""

    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(WorkloadSpec(n_requests=24, unique_designs=3,
                                           seed=17, bmc_depth=6,
                                           bmc_random_trials=8))

    def config(self, **overrides) -> ServeConfig:
        settings = dict(max_queue=64, max_batch=24, batch_window_ms=15,
                        backend="auto", n_workers=4)
        settings.update(overrides)
        return ServeConfig(**settings)

    def test_batched_throughput_beats_sequential(self, workload):
        with AssertService(self.config(result_cache=False)) as service:
            sequential = run_load(service, workload, concurrency=1,
                                  label="sequential")
            seq_solved = service.stats().solved
        with AssertService(self.config(result_cache=False)) as service:
            batched = run_load(service, workload, concurrency=24,
                               label="batched")
            batch_stats = service.stats()
        # Structural win first (not wall-clock-flaky): 24 sequential
        # solves collapse to one per unique design per batch.
        assert seq_solved == len(workload)
        assert batch_stats.solved < len(workload) // 2
        assert batch_stats.deduped > 0
        # And the acceptance-criterion throughput ratio.
        assert batched.req_per_sec >= 2.0 * sequential.req_per_sec
        # Responses stay byte-identical across serving modes.
        assert [r.to_json() for r in batched.responses] == \
               [r.to_json() for r in sequential.responses]

    def test_repeat_workload_served_from_cache(self, workload):
        # Start from a genuinely cold process state: earlier tests leave
        # the process-wide compile cache (and with it the compiled-tier
        # program cache) warm for this very workload, which would deflate
        # the cold pass the 5x floor is measured against.
        default_compile_cache().clear()
        with AssertService(self.config(result_cache=True)) as service:
            cold = run_load(service, workload, concurrency=24, label="cold")
            warm = run_load(service, workload, concurrency=24, label="warm")
            stats = service.stats()
        # The repeat pass recomputes nothing...
        assert stats.solved <= len({r.cache_key() for r in workload})
        assert stats.cache_hits > 0
        # ...and is dramatically faster (acceptance floor: 5x).
        assert warm.req_per_sec >= 5.0 * cold.req_per_sec
        assert [r.to_json() for r in warm.responses] == \
               [r.to_json() for r in cold.responses]


class TestConfigValidation:
    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(backend="quantum")

    @pytest.mark.parametrize("field,value", [
        ("max_queue", 0), ("max_batch", 0), ("n_workers", 0),
        ("cache_entries", 0), ("batch_window_ms", -1.0)])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_bad_options_rejected_at_submit(self):
        service = AssertService(ServeConfig())
        try:
            with pytest.raises(ValueError):
                service.submit(SolveRequest(
                    MINI_SOURCE, SolveOptions(hallucination_rate=2.0)))
        finally:
            service.close()

    @pytest.mark.parametrize("hints", [
        ((b"name", "y == 1", None, 0, "msg"),),   # non-str name
        (("name", "y == 1", None, "0", "msg"),),  # non-int delay
        (("name", "y == 1"),),                    # wrong arity
        (42,),                                    # not a tuple at all
    ])
    def test_malformed_hints_rejected_before_enqueue(self, hints):
        # Un-canonicalizable hints must fail loudly at submit(), never
        # inside the batcher thread where they would strand the future.
        service = AssertService(ServeConfig())
        try:
            with pytest.raises(ValueError):
                service.submit(SolveRequest(MINI_SOURCE,
                                            SolveOptions(hints=hints)))
        finally:
            service.close()

    def test_close_fails_unserved_futures(self):
        # Never started: close() must fail queued futures, not hang them.
        service = AssertService(ServeConfig())
        future = service.submit(fast_request(MINI_SOURCE))
        service.close()
        with pytest.raises(ServiceClosed):
            future.result(timeout=5)
        assert service.stats().errors == 1

    def test_pipeline_config_plumbs_serve_config(self):
        from repro.core.api import PipelineConfig

        config = PipelineConfig(n_workers=3, seed=99)
        serve = config.serve(max_batch=5)
        assert serve.n_workers == 3
        assert serve.seed == 99
        assert serve.max_batch == 5
        service = config.make_service()
        try:
            assert service.config.n_workers == 3
        finally:
            service.close()


class TestEngineWarm:
    def test_warm_is_idempotent_and_serial_safe(self):
        from repro.engine import ExecutionEngine

        with ExecutionEngine(n_workers=1, backend="serial") as engine:
            engine.warm()
            engine.warm()
            assert engine.map(_identity, [1, 2, 3]) == [1, 2, 3]

    def test_warm_starts_thread_pool(self):
        from repro.engine import ExecutionEngine

        with ExecutionEngine(n_workers=2, backend="thread") as engine:
            engine.warm()
            assert engine._pool is not None
            assert engine.map(_identity, [4, 5]) == [4, 5]

    def test_warm_actually_spawns_process_workers(self):
        # Executors spawn workers lazily on submit; warm() must force
        # the spawn, or the first request still pays pool startup.
        from repro.engine import ExecutionEngine

        with ExecutionEngine(n_workers=2, backend="process") as engine:
            engine.warm()
            assert len(engine._pool._processes) >= 1
            assert engine.map(_identity, [6]) == [6]


def _identity(x):
    return x


class TestBatcherUnit:
    """MicroBatcher in isolation, with an instrumented flush."""

    def test_flush_error_does_not_kill_consumer(self):
        import queue as queue_mod

        from repro.serve.batcher import MicroBatcher

        source: "queue_mod.Queue" = queue_mod.Queue()
        seen = []

        def flush(batch, reason):
            if len(seen) == 0:
                seen.append("boom")
                raise RuntimeError("first flush explodes")
            seen.append(list(batch))

        batcher = MicroBatcher(source, flush, max_batch=2, window_s=0.01)
        batcher.start()
        try:
            source.put("a")
            source.put("b")
            deadline = time.monotonic() + 5
            while batcher.stats.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            source.put("c")
            deadline = time.monotonic() + 5
            while batcher.stats.batches < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            batcher.stop()
        assert batcher.stats.flush_errors == 1
        assert ["c"] in seen  # the consumer survived and kept flushing

    def test_invalid_parameters(self):
        import queue as queue_mod

        from repro.serve.batcher import MicroBatcher

        with pytest.raises(ValueError):
            MicroBatcher(queue_mod.Queue(), lambda b, r: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(queue_mod.Queue(), lambda b, r: None, window_s=-1)


class TestMining:
    def test_mine_invariant_hints_shape(self):
        from repro.sva.mine import mine_invariant_hints
        from repro.verilog.compile import compile_source

        design = compile_source(MINI_SOURCE).design
        hints = mine_invariant_hints(design)
        assert [h.name for h in hints] == ["mined_y_def"]
        assert hints[0].consequent == "y == (a & b)"

    def test_mining_requires_clock_convention(self):
        from repro.sva.mine import mine_invariant_hints
        from repro.verilog.compile import compile_source

        source = ("module nc (input a, input b, output wire y);\n"
                  "  assign y = a | b;\nendmodule\n")
        design = compile_source(source).design
        assert mine_invariant_hints(design) == []

    def test_mined_proposals_round_trip_via_corpus(self):
        """Mined hints on a corpus design validate like template hints."""
        design = CorpusGenerator(seed=5).generate_one("counter")
        request = SolveRequest(design.source,
                               SolveOptions(mine_hints=True, **FAST))
        with AssertService(ServeConfig()) as service:
            response = service.solve(request, timeout=120)
        assert response.ok  # mined or empty, but never a crash


class TestDeadlines:
    """``SolveOptions.deadline_ms``: a request that exceeds its deadline —
    waiting in the queue or riding a batch — resolves to a structured
    ``timeout`` response instead of blocking ``result()`` forever."""

    def test_expired_in_queue_resolves_to_timeout(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        request = fast_request(MINI_SOURCE, deadline_ms=10.0)
        future = service.submit(request)
        time.sleep(0.05)  # expires while the consumer is not yet running
        try:
            service.start()
            response = future.result(timeout=10)
        finally:
            service.close()
        assert response.status == "timeout"
        assert not response.ok
        assert "deadline" in response.error
        assert response.request_key == request.cache_key()
        assert service.stats().timeouts == 1

    def test_generous_deadline_succeeds(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve(
                fast_request(MINI_SOURCE, deadline_ms=60_000.0), timeout=60)
            assert response.ok
            assert service.stats().timeouts == 0

    def test_deadline_is_not_part_of_the_content_key(self):
        tight = fast_request(MINI_SOURCE, deadline_ms=5.0)
        loose = fast_request(MINI_SOURCE, deadline_ms=5_000.0)
        plain = fast_request(MINI_SOURCE)
        assert tight.cache_key() == loose.cache_key() == plain.cache_key()

    def test_timeout_responses_are_not_cached(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        expired = service.submit(fast_request(MINI_SOURCE, deadline_ms=5.0))
        time.sleep(0.05)
        try:
            service.start()
            assert expired.result(timeout=10).status == "timeout"
            # The same design solved afresh must not see a stale timeout.
            clean = service.solve(fast_request(MINI_SOURCE), timeout=60)
        finally:
            service.close()
        assert clean.ok
        assert service.stats().timeouts == 1

    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            SolveOptions(deadline_ms=0).validate()
        with pytest.raises(ValueError, match="deadline_ms"):
            SolveOptions(deadline_ms=-5.0).validate()
        SolveOptions(deadline_ms=None).validate()  # default: no deadline


class TestTimerDeadlines:
    """The monotonic-deadline timer wheel: an expired request fails
    *while it still waits* — before any batch flush, even before the
    service starts — instead of at flush time (PR 4's first cut)."""

    def test_queued_expiry_fires_before_any_flush(self):
        # Batch window and size chosen so no flush can possibly happen
        # before the deadline: only the timer can resolve this future.
        config = ServeConfig(max_batch=64, batch_window_ms=30_000)
        with AssertService(config) as service:
            future = service.submit(
                fast_request(MINI_SOURCE, deadline_ms=30.0))
            response = future.result(timeout=5)
            stats = service.stats()
        assert response.status == "timeout"
        assert "deadline" in response.error
        assert stats.batches == 0  # timer-driven: no flush had occurred
        assert stats.timeouts == 1

    def test_expiry_fires_even_before_start(self):
        # The timer starts with the first deadline-carrying submit, not
        # with the consumer: a never-started service still times out.
        service = AssertService(ServeConfig())
        try:
            future = service.submit(
                fast_request(MINI_SOURCE, deadline_ms=20.0))
            response = future.result(timeout=5)
            assert response.status == "timeout"
            assert service.stats().timeouts == 1
        finally:
            service.close()

    def test_expired_request_is_never_computed(self):
        # The dead entry still travels through the queue, but its batch
        # slot must not waste compute on a response nobody will get.
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        future = service.submit(fast_request(MINI_SOURCE, deadline_ms=5.0))
        assert future.result(timeout=5).status == "timeout"
        try:
            service.start()
            deadline = time.monotonic() + 5
            while service.stats().batches < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.stats().solved == 0
        finally:
            service.close()


class TestCancellation:
    """Client-initiated cancellation via ``AssertService.cancel``."""

    def tagged(self, request_id: str) -> SolveRequest:
        return SolveRequest(MINI_SOURCE, SolveOptions(**FAST),
                            request_id=request_id)

    def test_cancel_queued_request_drops_it(self):
        service = AssertService(ServeConfig())  # not started: stays queued
        request = self.tagged("job-1")
        future = service.submit(request)
        assert service.cancel("job-1") == 1
        response = future.result(timeout=5)
        assert response.status == "cancelled"
        assert not response.ok
        assert response.request_key == request.cache_key()
        try:
            service.start()
            deadline = time.monotonic() + 5
            while service.stats().batches < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = service.stats()
            assert stats.cancelled == 1
            assert stats.solved == 0  # dropped before any compute
            assert stats.inflight == 0
        finally:
            service.close()

    def test_cancel_unknown_or_untagged(self):
        service = AssertService(ServeConfig())
        try:
            service.submit(fast_request(MINI_SOURCE))  # no request_id
            assert service.cancel("nope") == 0
            assert service.cancel("") == 0
        finally:
            service.close()

    def test_cancel_resolves_each_request_once(self):
        service = AssertService(ServeConfig())
        try:
            service.submit(self.tagged("dup"))
            service.submit(self.tagged("dup"))
            assert service.cancel("dup") == 2
            assert service.cancel("dup") == 0  # nothing left to cancel
            assert service.stats().cancelled == 2
        finally:
            service.close()

    def test_cancel_racing_batch_is_cached_but_not_delivered(self):
        # Cancel lands after the batch formed and compute began: the
        # client's future resolves to ``cancelled`` immediately, while
        # the computed response still lands in the result cache — it is
        # a valid answer for future repeats of the same content.
        config = ServeConfig(batch_window_ms=1.0, result_cache=True)
        service = AssertService(config).start()
        try:
            real_map = service._engine.map
            compute_started = threading.Event()
            release = threading.Event()

            def gated_map(fn, tasks, **kwargs):
                compute_started.set()
                assert release.wait(10), "flush never released"
                return real_map(fn, tasks, **kwargs)

            service._engine.map = gated_map
            future = service.submit(self.tagged("race"))
            assert compute_started.wait(10)  # batch formed, compute running
            assert service.cancel("race") == 1
            assert future.result(timeout=5).status == "cancelled"
            release.set()
            deadline = time.monotonic() + 10
            while service.stats().solved < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            service._engine.map = real_map
            # The abandoned response was cached: a repeat of the same
            # content is a cache hit, not a recompute.
            repeat = service.solve(fast_request(MINI_SOURCE), timeout=60)
            stats = service.stats()
        finally:
            service.close()
        assert repeat.ok
        assert stats.solved == 1
        assert stats.cache_hits == 1
        assert stats.cancelled == 1


class TestAdmissionCacheHits:
    """A result-cache hit resolves inside ``submit``: it never enters
    the queue, the batch window, the deadline timer or the
    ``request_id`` registry.  Every check here is timing-free."""

    @staticmethod
    def gate_engine(service):
        """Hold the batcher thread inside ``engine.map`` until released
        (the gated-map pattern of the cancellation race test)."""
        real_map = service._engine.map
        started = threading.Event()
        release = threading.Event()

        def gated_map(fn, tasks, **kwargs):
            started.set()
            assert release.wait(10), "flush never released"
            return real_map(fn, tasks, **kwargs)

        service._engine.map = gated_map
        return started, release

    def test_repeat_is_done_when_submit_returns(self):
        # A window no test could wait out: only a size flush (64 twins)
        # can compute the first answer, and only admission can serve the
        # repeat before the next flush.
        config = ServeConfig(batch_window_ms=30_000, max_batch=64)
        with AssertService(config) as service:
            futures = [service.submit(fast_request(MINI_SOURCE))
                       for _ in range(64)]
            first = futures[0].result(timeout=120)
            repeat = service.submit(fast_request(MINI_SOURCE))
            assert repeat.done()
            stats = service.stats()
        assert repeat.result() is first
        assert stats.batches == 1
        assert stats.batched_requests == 64
        assert stats.submitted == stats.completed == 65
        assert stats.cache_hits == 1

    def test_repeat_is_answered_while_the_batcher_is_busy(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0)).start()
        try:
            cached = service.solve(fast_request(MINI_SOURCE), timeout=60)
            started, release = self.gate_engine(service)
            cold = service.submit(fast_request(MINI_SOURCE, bmc_depth=7))
            assert started.wait(10)  # the batcher is held mid-compute
            repeat = service.submit(fast_request(MINI_SOURCE))
            assert repeat.done()
            assert repeat.result().to_json() == cached.to_json()
            release.set()
            assert cold.result(timeout=60).ok
        finally:
            service.close()

    def test_repeat_is_served_when_the_queue_is_full(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0,
                                            max_queue=1)).start()
        try:
            cached = service.solve(fast_request(MINI_SOURCE), timeout=60)
            started, release = self.gate_engine(service)
            held = service.submit(fast_request(MINI_SOURCE, bmc_depth=7))
            assert started.wait(10)
            queued = service.submit(fast_request(MINI_SOURCE, bmc_depth=8))
            with pytest.raises(ServiceOverloaded):
                service.submit(fast_request(MINI_SOURCE, bmc_depth=9))
            repeat = service.submit(fast_request(MINI_SOURCE))
            assert repeat.result(timeout=0) is cached
            release.set()
            assert held.result(timeout=60).ok
            assert queued.result(timeout=60).ok
            assert service.stats().rejected == 1
        finally:
            service.close()

    def test_repeat_after_close_raises(self):
        service = AssertService(ServeConfig()).start()
        service.solve(fast_request(MINI_SOURCE), timeout=60)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(fast_request(MINI_SOURCE))
        assert service.stats().submitted == 1

    def test_cancel_on_a_hit_returns_zero(self):
        with AssertService(ServeConfig()) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            future = service.submit(SolveRequest(
                MINI_SOURCE, SolveOptions(**FAST), request_id="hit"))
            assert future.done()
            assert service.cancel("hit") == 0
            stats = service.stats()
        assert future.result().ok
        assert stats.cancelled == 0

    def test_deadlined_repeat_never_meets_the_timer(self):
        with AssertService(ServeConfig()) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            response = service.solve(
                fast_request(MINI_SOURCE, deadline_ms=50.0), timeout=0)
            timer = service._timer
            assert timer._thread is None  # never started
            assert timer._resolved == 0
            stats = service.stats()
        assert response.ok
        assert stats.timeouts == 0

    def test_evals_always_take_the_queue(self, human_cases):
        service = AssertService(ServeConfig())  # not started: nothing drains
        try:
            futures = [service.submit_eval(
                EvalRequest("GPT-4", human_cases[:1])) for _ in range(2)]
            stats = service.stats()
            assert stats.queue_depth == 2
            assert stats.cache_hits + stats.cache_misses == 0
            service.start()
            for future in futures:
                assert future.result(timeout=60).status == "unknown_model"
            again = service.submit_eval(EvalRequest("GPT-4", human_cases[:1]))
            assert not again.done()
            assert again.result(timeout=60).status == "unknown_model"
            stats = service.stats()
        finally:
            service.close()
        assert stats.batched_requests == 3
        assert stats.cache_hits + stats.cache_misses == 0

    def test_concurrent_submitters_count_each_request_once(self):
        import sys

        requests = [fast_request(MINI_SOURCE, bmc_depth=depth)
                    for depth in (6, 7, 8)]
        n_threads, per_thread = 8, 25
        futures, errors = [], []

        def client(offset):
            try:
                for i in range(per_thread):
                    futures.append(service.submit(
                        requests[(offset + i) % len(requests)]))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AssertService(ServeConfig(batch_window_ms=1.0)) as service:
                threads = [threading.Thread(target=client, args=(k,))
                           for k in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                bodies = {f.result(timeout=60).to_json() for f in futures}
                stats = service.stats()
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        total = n_threads * per_thread
        assert len(futures) == total
        assert len(bodies) == len(requests)
        assert stats.submitted == stats.completed == total
        assert stats.cache_hits + stats.cache_store_hits \
            + stats.cache_misses == total

    def test_one_counted_lookup_per_request_over_a_disk_store(
            self, tmp_path):
        from repro.store import StoreConfig

        config = ServeConfig(store=StoreConfig(path=tmp_path,
                                               memory_entries=0))
        requests = [fast_request(MINI_SOURCE, bmc_depth=depth)
                    for depth in (6, 7, 8)]
        with AssertService(config) as service:
            for future in [service.submit(r) for r in requests]:
                assert future.result(timeout=60).ok
            for request in requests:
                assert service.submit(request).done()
            stats = service.stats()
            store = service._store.counters()
        n = len(requests)
        assert stats.cache_misses == n
        assert stats.cache_hits == n
        assert stats.cache_store_hits == 0
        assert stats.solved == n
        # One store read per miss, at admission; the flush re-check and
        # the repeats stay in memory.
        assert store["hits"] + store["misses"] == n


class TestEvalLane:
    """Evaluations keep the solve lifecycle (dedup, cancellation,
    deadlines) on a lane of their own, so a computing eval never holds
    up a solve."""

    @staticmethod
    def service_with_model():
        service = AssertService(ServeConfig())  # not started: evals queue
        service.register_model("GPT-4", make_baseline("GPT-4", seed=0))
        return service

    def test_identical_queued_evals_compute_once(self, human_cases):
        service = self.service_with_model()
        try:
            futures = [service.submit_eval(cheap_eval(human_cases))
                       for _ in range(2)]
            service.start()
            first, second = (future.result(timeout=60)
                             for future in futures)
            stats = service.stats()
        finally:
            service.close()
        assert first.ok and second.ok
        assert first.report is second.report  # one compute, two waiters
        assert stats.evals == 1
        assert stats.deduped == 1

    def test_cancelled_queued_eval_never_runs(self, human_cases):
        service = self.service_with_model()
        try:
            future = service.submit_eval(
                cheap_eval(human_cases, request_id="ev-1"))
            assert service.cancel("ev-1") == 1
            response = future.result(timeout=5)
            service.start()
        finally:
            service.close()  # drains the lane: its batch has flushed
        stats = service.stats()
        assert type(response).__name__ == "EvalResponse"
        assert response.status == "cancelled"
        assert stats.batches == 1
        assert stats.evals == 0
        assert stats.cancelled == 1

    def test_queued_eval_past_its_deadline_times_out(self, human_cases):
        service = self.service_with_model()
        try:
            future = service.submit_eval(
                cheap_eval(human_cases, deadline_ms=20.0))
            response = future.result(timeout=5)  # the timer, not a flush
            service.start()
        finally:
            service.close()
        stats = service.stats()
        assert type(response).__name__ == "EvalResponse"
        assert response.status == "timeout"
        assert "deadline" in response.error
        assert stats.timeouts == 1
        assert stats.evals == 0

    def test_cold_solve_resolves_while_an_eval_computes(self, human_cases):
        EVAL_STARTED.clear()
        EVAL_RELEASE.clear()
        service = AssertService(ServeConfig()).start()
        try:
            service.register_model("gated", GatedModel())
            evaluation = service.submit_eval(
                EvalRequest("gated", human_cases[:1],
                            EvalConfig(n_samples=2, k_values=(1,))))
            assert EVAL_STARTED.wait(30), "eval never started"
            solve = service.submit(fast_request(MINI_SOURCE))
            # With one batcher for both kinds this solve would wait for
            # a release that only comes after it resolves.
            response = solve.result(timeout=30)
            assert not evaluation.done()
        finally:
            EVAL_RELEASE.set()
            service.close()
        assert response.ok
        assert evaluation.result(timeout=5).ok


class TestSaturationGauges:
    def test_inflight_and_capacity_gauges(self):
        service = AssertService(ServeConfig(max_queue=8))
        futures = [service.submit(fast_request(MINI_SOURCE))
                   for _ in range(3)]
        stats = service.stats()
        assert stats.inflight == 3  # accepted, nothing resolved yet
        assert stats.queue_depth == 3
        assert stats.queue_capacity == 8
        try:
            service.start()
            for future in futures:
                assert future.result(timeout=60).ok
            assert service.stats().inflight == 0
        finally:
            service.close()

    def test_statsz_payload_without_store(self):
        with AssertService(ServeConfig()) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            payload = service.statsz()
        assert payload["store"] is None
        for gauge in ("inflight", "queue_depth", "queue_capacity",
                      "cancelled", "timeouts", "submitted"):
            assert gauge in payload["service"]

    def test_statsz_payload_with_store(self):
        from repro.store import StoreConfig

        config = ServeConfig(store=StoreConfig())
        with AssertService(config) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            payload = service.statsz()
        store_info = payload["store"]
        assert store_info is not None
        for counter in ("hits", "misses", "writes", "entries"):
            assert counter in store_info

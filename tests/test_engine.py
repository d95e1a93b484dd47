"""The stage-graph execution engine: RNG derivation, backends, graphs,
compile caching, config validation, and the parallel==serial guarantee."""

import sys
import threading
import time

import pytest

from repro.datagen.pipeline import (
    VOLATILE_STAT_KEYS,
    DatagenConfig,
    build_stage_graph,
    run_pipeline,
)
from repro.engine import (
    BACKENDS,
    ExecutionEngine,
    StageContext,
    StageGraph,
    derive_rng,
    derive_seed,
)
from repro.eval.runner import evaluate_model
from repro.verilog.compile import CompileCache, compile_source


def _square(x):
    return x * x


def _double(x):
    return 2 * x


#: Units run per pool thread: a thread-local counter, so each unit's
#: metrics window sees exactly its own increment.
_UNITS_RUN = threading.local()


def _counted(x):
    _UNITS_RUN.n = getattr(_UNITS_RUN, "n", 0) + 1
    return x


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "stage1", "mod_a") == \
            derive_seed(7, "stage1", "mod_a")

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "stage1", "mod_a")
        assert derive_seed(8, "stage1", "mod_a") != base
        assert derive_seed(7, "stage2", "mod_a") != base
        assert derive_seed(7, "stage1", "mod_b") != base

    def test_type_sensitive(self):
        assert derive_seed(1) != derive_seed("1")

    def test_no_boundary_collision(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(1, "s", "u")
        b = derive_rng(1, "s", "u")
        assert [a.random() for _ in range(4)] == \
            [b.random() for _ in range(4)]

    def test_unit_ids_disambiguate_name_collisions(self):
        from repro.corpus.meta import DesignSeed
        from repro.datagen.stage1 import unit_ids

        seeds = [DesignSeed("adder_7", "src_a", None),
                 DesignSeed("adder_7", "src_b", None),
                 DesignSeed("mux_3", "src_c", None)]
        assert unit_ids(seeds) == ["adder_7", "adder_7#1", "mux_3"]

    def test_stage_context_labels(self):
        ctx = StageContext(2025, "stage2", "mod_x")
        assert ctx.rng("sva").random() != ctx.rng("bugs").random()
        assert ctx.seed_for("sva") == \
            StageContext(2025, "stage2", "mod_x").seed_for("sva")


class TestExecutionEngine:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_map_preserves_order(self, backend):
        with ExecutionEngine(n_workers=3, backend=backend) as engine:
            assert engine.map(_square, list(range(20))) == \
                [x * x for x in range(20)]

    def test_auto_degrades_to_serial_when_no_cores(self, monkeypatch):
        import repro.engine.executor as executor
        monkeypatch.setattr(executor, "available_cpus", lambda: 1)
        engine = executor.ExecutionEngine(n_workers=8, backend="auto")
        assert engine.backend == "serial"
        assert engine.requested_workers == 8

    def test_single_worker_is_serial(self):
        assert ExecutionEngine(n_workers=1, backend="process").backend \
            == "serial"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionEngine(backend="gpu")
        with pytest.raises(ValueError, match="n_workers"):
            ExecutionEngine(n_workers=0)

    def test_stats_accumulate_per_stage(self):
        with ExecutionEngine() as engine:
            engine.map(_square, [1, 2], stage="alpha")
            engine.map(_square, [3], stage="alpha")
            engine.map(_double, [4], stage="beta")
            stats = engine.stats()
        assert stats["stages"]["alpha"]["units"] == 3
        assert stats["stages"]["beta"]["units"] == 1
        assert stats["backend"] in BACKENDS

    def test_concurrent_maps_keep_exact_bookkeeping(self, monkeypatch):
        # Two threads mapping at once, as a service's solve and eval
        # lanes do: no stage unit, map number or counter delta is lost.
        from repro.engine import metrics

        def yielding_accumulate(total, increment):
            # metrics.accumulate's read-modify-write, releasing the GIL
            # between read and write so that an unguarded caller loses
            # updates reliably instead of once in a thousand maps.
            for name, counters in increment.items():
                bucket = total.setdefault(name, {})
                for key, value in counters.items():
                    seen = bucket.get(key, 0)
                    time.sleep(0)
                    bucket[key] = seen + value

        monkeypatch.setattr(metrics, "accumulate", yielding_accumulate)
        monkeypatch.setitem(metrics._PROVIDERS, "units_run",
                            lambda: {"n": getattr(_UNITS_RUN, "n", 0)})
        n_threads, maps, per_map = 2, 200, 3
        barrier = threading.Barrier(n_threads)

        def lane():
            barrier.wait()
            for _ in range(maps):
                engine.map(_counted, range(per_map), stage="shared")
                engine.map(_counted, range(per_map))  # named map-<n>

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExecutionEngine(n_workers=2, backend="thread") as engine:
                threads = [threading.Thread(target=lane)
                           for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = engine.stats()["stages"]
                totals = engine.metric_totals()
        finally:
            sys.setswitchinterval(previous)
        assert stats["shared"]["units"] == n_threads * maps * per_map
        numbered = [name for name in stats if name.startswith("map-")]
        assert len(numbered) == n_threads * maps
        assert all(stats[name]["units"] == per_map for name in numbered)
        assert totals["units_run"]["n"] == 2 * n_threads * maps * per_map

    def test_closed_engine_refuses_work(self):
        engine = ExecutionEngine()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.map(_square, [1])


class TestStageGraph:
    def test_runs_in_dependency_order(self):
        graph = StageGraph("g")
        graph.add_stage("a", lambda inputs: 2)
        graph.add_stage("b", lambda inputs: inputs["a"] + 3, deps=("a",))
        with ExecutionEngine() as engine:
            outputs = graph.run(engine)
        assert outputs == {"a": 2, "b": 5}

    def test_stage_fans_out_through_engine(self):
        graph = StageGraph("g")
        graph.add_stage("items", lambda inputs: [1, 2, 3])
        graph.add_stage("squares", lambda inputs: sum(
            inputs.engine.map(_square, inputs["items"], stage="squares")),
            deps=("items",))
        with ExecutionEngine(n_workers=2, backend="thread") as engine:
            outputs = graph.run(engine)
        assert outputs["squares"] == 14

    def test_undeclared_dependency_rejected(self):
        graph = StageGraph("g")
        with pytest.raises(ValueError, match="undeclared"):
            graph.add_stage("b", lambda inputs: 1, deps=("missing",))

    def test_duplicate_stage_rejected(self):
        graph = StageGraph("g")
        graph.add_stage("a", lambda inputs: 1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add_stage("a", lambda inputs: 2)

    def test_non_dependency_access_rejected(self):
        graph = StageGraph("g")
        graph.add_stage("a", lambda inputs: 1)
        graph.add_stage("b", lambda inputs: 2)
        graph.add_stage("c", lambda inputs: inputs["a"], deps=("b",))
        with ExecutionEngine() as engine:
            with pytest.raises(KeyError, match="declared"):
                graph.run(engine)

    def test_only_runs_requested_subgraph(self):
        ran = []
        graph = StageGraph("g")
        graph.add_stage("a", lambda inputs: ran.append("a"))
        graph.add_stage("b", lambda inputs: ran.append("b"), deps=("a",))
        graph.add_stage("c", lambda inputs: ran.append("c"))
        with ExecutionEngine() as engine:
            graph.run(engine, only=["b"])
        assert ran == ["a", "b"]

    def test_datagen_graph_shape(self):
        graph = build_stage_graph(DatagenConfig(n_designs=1))
        assert graph.stage_names() == \
            ["corpus", "stage1", "stage2", "split", "stage3"]
        assert "stage2 <- stage1" in graph.describe()


class TestCompileCache:
    GOLDEN = ("module t (input clk, input a, output reg q);\n"
              "  always @(posedge clk) q <= a;\nendmodule\n")

    def test_repeated_golden_compiles_hit(self):
        cache = CompileCache()
        first = cache.get_or_compile(self.GOLDEN)
        again = cache.get_or_compile(self.GOLDEN)
        assert first.ok
        assert again is first
        assert cache.counters() == {"hits": 1, "misses": 1,
                                    "evictions": 0, "store_hits": 0}
        assert cache.hit_rate == 0.5

    def test_failures_cached_too(self):
        cache = CompileCache()
        bad = "module broken (\n"
        assert not cache.get_or_compile(bad).ok
        assert not cache.get_or_compile(bad).ok
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = CompileCache(max_entries=1)
        cache.get_or_compile(self.GOLDEN)
        cache.get_or_compile("module other ();\n  assign 1;\nendmodule\n")
        assert cache.evictions == 1
        assert len(cache) == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            CompileCache(max_entries=0)

    def test_compile_source_bypass(self):
        a = compile_source(self.GOLDEN)
        b = compile_source(self.GOLDEN, use_cache=False)
        assert b is not a
        assert b.ok == a.ok


class TestDatagenConfigValidation:
    def test_defaults_valid(self):
        DatagenConfig()

    @pytest.mark.parametrize("field,value", [
        ("n_designs", 0), ("bugs_per_design", 0), ("bmc_depth", 0),
        ("bmc_random_trials", -1), ("n_workers", 0),
        ("compile_cache_size", 0), ("break_rate", 1.5),
        ("hallucination_rate", -0.1), ("train_fraction", 2.0),
        ("backend", "gpu"),
    ])
    def test_offending_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatagenConfig(**{field: value})

    def test_mutated_config_revalidated_by_run(self):
        config = DatagenConfig(n_designs=2)
        config.train_fraction = 3.0
        with pytest.raises(ValueError, match="train_fraction"):
            run_pipeline(config)


class TestParallelDeterminism:
    CONFIG = dict(n_designs=8, bugs_per_design=2, seed=23,
                  bmc_depth=6, bmc_random_trials=8)

    def test_parallel_equals_serial(self):
        serial = run_pipeline(DatagenConfig(n_workers=1, **self.CONFIG))
        parallel = run_pipeline(DatagenConfig(n_workers=4,
                                              backend="process",
                                              **self.CONFIG))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.comparable() == parallel.comparable()
        # The volatile keys exist on both sides but are allowed to differ.
        for key in VOLATILE_STAT_KEYS:
            assert key in serial.stats and key in parallel.stats
        assert parallel.stats["engine"]["backend"] == "process"

    def test_thread_backend_equals_serial(self):
        serial = run_pipeline(DatagenConfig(n_workers=1, **self.CONFIG))
        threaded = run_pipeline(DatagenConfig(n_workers=3, backend="thread",
                                              **self.CONFIG))
        assert serial.fingerprint() == threaded.fingerprint()

    def test_cache_disabled_same_datasets(self):
        cached = run_pipeline(DatagenConfig(**self.CONFIG))
        uncached = run_pipeline(DatagenConfig(compile_cache=False,
                                              **self.CONFIG))
        assert cached.fingerprint() == uncached.fingerprint()
        assert uncached.stats["compile_cache"]["hits"] == 0

    def test_pipeline_reports_cache_hits(self):
        bundle = run_pipeline(DatagenConfig(**self.CONFIG))
        assert bundle.stats["compile_cache"]["hits"] > 0
        assert 0.0 < bundle.stats["compile_cache"]["hit_rate"] <= 1.0


class TestBatchedSvaValidation:
    """The batched validator must reproduce per-proposal verdicts exactly."""

    def test_batched_matches_per_proposal(self):
        from repro.corpus.generator import CorpusGenerator
        from repro.datagen.stage2 import validate_svas
        from repro.oracles.sva import SvaOracle
        from repro.sva.bmc import BmcConfig

        bmc = BmcConfig(depth=6, random_trials=8)
        designs = CorpusGenerator(seed=51).generate(10)
        compared = 0
        for design in designs:
            # A high distortion rate exercises every rejection path:
            # syntax-broken, failing, and monitor-error proposals.
            oracle = SvaOracle(derive_rng(51, design.name),
                               hallucination_rate=0.6)
            proposals = oracle.propose(design)
            batched_valid, batched_rejected = validate_svas(
                design, proposals, bmc, mode="batched")
            ref_valid, ref_rejected = validate_svas(
                design, proposals, bmc, mode="per_proposal")
            assert [p.name for p in batched_valid] == \
                [p.name for p in ref_valid]
            assert batched_rejected == ref_rejected
            compared += len(proposals)
        assert compared > 0

    def test_invalid_mode_rejected(self):
        from repro.datagen.stage2 import validate_svas

        with pytest.raises(ValueError, match="sva_validation"):
            validate_svas(None, [], None, mode="turbo")

    def test_pipeline_identical_across_modes(self):
        config = dict(n_designs=6, bugs_per_design=2, seed=29,
                      bmc_depth=6, bmc_random_trials=8)
        batched = run_pipeline(DatagenConfig(**config))
        reference = run_pipeline(DatagenConfig(
            sva_validation="per_proposal", **config))
        assert batched.fingerprint() == reference.fingerprint()


class TestParallelEvaluation:
    def test_parallel_eval_equals_serial(self, small_bundle):
        from repro.baselines.engine import make_baseline

        cases = small_bundle.sva_eval_machine
        if not cases:
            pytest.skip("no machine cases at this scale")
        model = make_baseline("GPT-4", seed=3)
        serial = evaluate_model(model, cases, n=6, seed=11)
        with ExecutionEngine(n_workers=3, backend="process") as engine:
            parallel = evaluate_model(model, cases, n=6, seed=11,
                                      engine=engine)
        assert [(o.n, o.c) for o in serial.outcomes] == \
            [(o.n, o.c) for o in parallel.outcomes]

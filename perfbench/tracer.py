"""Span tracing around the program's public entry points, from outside.

:func:`install` replaces each entry point with a wrapper that records a
span (name, start, end, parent, request id) on a per-thread stack, then
calls the original.  Module-level functions are replaced under every
name any loaded ``repro`` module bound them to, so ``from x import f``
call sites are traced too; methods are replaced on their class.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.  Nothing under
``src/`` changes: the program runs unmodified code with wrappers around
it, and only in a traced run.

Per-cycle work (simulator steps, monitor advances) is deliberately not
wrapped: a wrapper there would cost more than the work it times.  The
simulate/monitor split comes from the program's own ``solve_profile``
counters instead (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from measure import percentile, self_times

#: Spans that only contain other work: their self time is the
#: ``unaccounted`` line of the layer accounting, not a layer.
CONTAINERS = ("serve.batch", "datagen.run_pipeline")

#: The layer accounting must close to within this share of root wall
#: time (plus 1 ms of float rounding); anything larger means spans
#: overlap or escape their parents and the per-layer numbers are wrong.
ACCOUNTING_BOUND_SHARE = 0.001


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.requests: Dict[str, tuple] = {}
        self._queued: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None,
             rid_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(args, result)`` runs
        after the call (outside the span), ``rid_of(args)`` names the
        request the span belongs to (children inherit it)."""
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, parent_rid = stack[-1] if stack else (None, None)
            sid = next(ids)
            rid = rid_of(args) if rid_of is not None else parent_rid
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, rid))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- server-side request bookkeeping -------------------------------------

    def submitted(self, request, future) -> None:
        """Remember when a request entered the service; its resolution
        time lands in :attr:`requests` keyed by the client's request id."""
        submit_t = time.perf_counter()
        key = request.cache_key()
        kind = "solve" if hasattr(request, "design_source") else "eval"
        if kind == "solve":
            with self._lock:
                self._queued[key].append(submit_t)

        def resolved(_future) -> None:
            self.requests[request.request_id] = (
                kind, submit_t, time.perf_counter())

        future.add_done_callback(resolved)

    def picked(self, key: str) -> None:
        """A batch reached the cache lookup for ``key``: every solve
        queued under it stops waiting now."""
        now = time.perf_counter()
        with self._lock:
            waits = self._queued.pop(key, ())
        self.samples["serve.queue_wait_ms"].extend(
            (now - t) * 1000.0 for t in waits)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, rid in self.spans:
                out.write(json.dumps([sid, parent, name, round(start, 7),
                                      round(end, 7), rid]) + "\n")


def _replace_function(module_name: str, name: str, replacement_for) -> None:
    """Rebind ``module.name`` in every loaded ``repro`` module that holds
    the same object (``from module import name`` call sites included)."""
    original = getattr(sys.modules[module_name], name)
    wrapped = replacement_for(original)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _replace_method(cls, name: str, replacement_for) -> None:
    setattr(cls, name, replacement_for(getattr(cls, name)))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point.  Call before the program starts
    working (in the server child, before the server starts)."""
    import repro.datagen.pipeline  # noqa: F401 - load every module first
    import repro.datagen.stage2  # noqa: F401
    import repro.eval.runner  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.baselines.engine import BaselineModel
    from repro.bugs.injector import BugInjector
    from repro.corpus.generator import CorpusGenerator
    from repro.engine.executor import ExecutionEngine
    from repro.oracles.cot import CotOracle
    from repro.oracles.sva import SvaOracle
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import ResultCache
    from repro.serve.service import AssertService, SolveResponse
    from repro.store.disk import DiskStore

    t = tracer

    def span(name, **kw):
        return lambda fn: t.wrap(name, fn, **kw)

    # Verilog front end.
    _replace_function("repro.verilog.compile", "compile_source",
                      span("verilog.compile"))
    _replace_function("repro.sva.insert", "compile_with_sva",
                      span("verilog.compile_with_sva"))
    # Oracles, validation, bounded checking, simulation, bug injection.
    _replace_method(SvaOracle, "propose", span("oracles.sva_propose"))
    _replace_method(CotOracle, "generate", span("oracles.cot"))

    def validated(args, result):
        t.count("sva.validate.proposed", len(args[1]))
        t.count("sva.validate.accepted", len(result[0]))

    _replace_function("repro.datagen.stage2", "validate_svas",
                      span("sva.validate", on_result=validated))
    _replace_function("repro.sva.bmc", "bounded_check_batch", span(
        "sva.bmc_batch", on_result=lambda a, r: t.count(
            "sva.bmc_batch.stimuli", r.stimuli_tried)))
    _replace_function("repro.sva.bmc", "bounded_check", span(
        "sva.bmc", on_result=lambda a, r: t.count(
            "sva.bmc.stimuli", r.stimuli_tried)))

    def counting_runs(run_iter):
        # run() drives run_iter() through the instance attribute, so
        # counting here counts each stimulus run exactly once.
        def counted(*args, **kwargs):
            t.count("sim.runs")
            return run_iter(*args, **kwargs)
        return counted

    def simulator_made(args, simulator):
        simulator.run_iter = counting_runs(simulator.run_iter)

    _replace_function("repro.sim.compiled", "make_simulator", span(
        "sim.make_simulator", on_result=simulator_made))
    _replace_method(BugInjector, "inject_many", span(
        "bugs.inject", on_result=lambda a, r: t.count(
            "bugs.injected", len(r))))

    # Engine: map spans with every unit inside its own span, so the
    # map's self time is dispatch overhead alone.  (The wrapped unit is a
    # closure, which the serial backend of the default configs accepts;
    # a process pool would need a picklable unit.)
    map_original = ExecutionEngine.map

    def traced_map(self, fn, items, stage=None, memo_key=None):
        items = list(items)
        if stage == "serve":
            t.count("serve.batches")
            t.samples["serve.batch_size"].append(len(items))
        return map_original(self, t.wrap("engine.unit", fn), items,
                            stage=stage, memo_key=memo_key)

    ExecutionEngine.map = t.wrap("engine.map", traced_map)

    # Serving: batches, cache, solve units, codecs, request lifecycle.
    init_original = MicroBatcher.__init__

    def traced_init(self, source, flush, *args, **kwargs):
        init_original(self, source, t.wrap("serve.batch", flush),
                      *args, **kwargs)

    MicroBatcher.__init__ = traced_init
    _replace_function("repro.serve.service", "solve_task", span(
        "serve.solve_task", rid_of=lambda a: a[0].key[:16]))
    get_original = ResultCache.get

    def traced_get(self, key):
        t.picked(key)
        value = get_original(self, key)
        t.count("serve.cache_lookups")
        if value is not None:
            t.count("serve.cache_hits")
        return value

    ResultCache.get = t.wrap("serve.cache_get", traced_get)
    _replace_method(ResultCache, "put", span("serve.cache_put"))
    for method in ("submit", "submit_eval"):
        original = getattr(AssertService, method)

        def traced_submit(self, request, _original=original):
            future = _original(self, request)
            t.submitted(request, future)
            return future

        setattr(AssertService, method,
                t.wrap("serve.submit", traced_submit))
    for name in ("request_from_json", "eval_request_from_json",
                 "eval_response_wire"):
        _replace_function("repro.serve.codecs", name, span("serve.codec"))
    _replace_method(SolveResponse, "to_json", span("serve.codec"))

    # Evaluation, baselines, store.
    def evaluated(args, report):
        t.count("eval.cases", report.stats.get("cases", 0))
        t.count("eval.memo_hits", report.stats.get("memo_hits", 0))

    _replace_function("repro.eval.runner", "run_eval",
                      span("eval.run", on_result=evaluated))
    _replace_function("repro.eval.runner", "semantic_check",
                      span("eval.semantic_check"))
    _replace_method(BaselineModel, "generate_case",
                    span("baselines.generate"))
    _replace_method(DiskStore, "get", span("store.get"))
    _replace_method(DiskStore, "put", span("store.put"))

    # Datagen stages, under one run_pipeline root.
    _replace_method(CorpusGenerator, "generate", span("datagen.corpus"))
    for stage in ("stage1", "stage2", "stage3"):
        _replace_function("repro.datagen.pipeline", f"run_{stage}",
                          span(f"datagen.{stage}"))
    _replace_function("repro.datagen.pipeline", "run_pipeline",
                      span("datagen.run_pipeline"))


# -- summaries -----------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_accounting(spans: List[tuple]) -> Dict[str, object]:
    """Per-layer self times plus the ``unaccounted`` line (container
    self time), and the wall time of the root spans they must sum to."""
    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    layers: Dict[str, float] = defaultdict(float)
    unaccounted = 0.0
    root_wall = 0.0
    for sid, parent, name, start, end, _rid in spans:
        if parent is None:
            root_wall += end - start
        if name in CONTAINERS:
            unaccounted += selfs[sid]
        else:
            layers[name] += selfs[sid]
    total = sum(layers.values()) + unaccounted
    gap = abs(total - root_wall)
    return {"layers_ms": {k: round(_ms(v), 3) for k, v in
                          sorted(layers.items(), key=lambda kv: -kv[1])},
            "unaccounted_ms": round(_ms(unaccounted), 3),
            "root_wall_ms": round(_ms(root_wall), 3),
            "gap_ms": round(_ms(gap), 6),
            "bound_ms": round(_ms(root_wall * ACCOUNTING_BOUND_SHARE)
                              + 1.0, 3),
            "closes": _ms(gap) <= _ms(root_wall * ACCOUNTING_BOUND_SHARE)
            + 1.0}


def layer_metrics(tracer: Tracer, profile_delta: Dict[str, int],
                  compile_delta: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics one traced child process can compute."""
    by_name: Dict[str, List[float]] = defaultdict(list)
    for _sid, _parent, name, start, end, _rid in tracer.spans:
        by_name[name].append(_ms(end - start))
    map_self = 0.0
    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in tracer.spans])
    for sid, _parent, name, *_rest in tracer.spans:
        if name == "engine.map":
            map_self += _ms(selfs[sid])
    counts = tracer.counts

    def total(name):
        return sum(by_name.get(name, ()))

    def pct(values, q):
        return percentile(values, q) if values else 0.0

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    solve_ms = by_name.get("serve.solve_task", [])
    batch_sizes = tracer.samples["serve.batch_size"]
    hits = compile_delta.get("hits", 0) + compile_delta.get("store_hits", 0)
    lookups = hits + compile_delta.get("misses", 0)
    return {
        "serve.codec_ms.total": total("serve.codec"),
        "serve.queue_wait_ms.p50": pct(
            tracer.samples["serve.queue_wait_ms"], 0.50),
        "serve.queue_wait_ms.p95": pct(
            tracer.samples["serve.queue_wait_ms"], 0.95),
        "serve.batches": counts["serve.batches"],
        "serve.batch_size.mean": (sum(batch_sizes) / len(batch_sizes)
                                  if batch_sizes else 0.0),
        "serve.cache_hit_share": share("serve.cache_hits",
                                       "serve.cache_lookups"),
        "serve.solve_task.count": len(solve_ms),
        "serve.solve_task_ms.p50": pct(solve_ms, 0.50),
        "serve.solve_task_ms.p95": pct(solve_ms, 0.95),
        "serve.solve_task_ms.total": sum(solve_ms),
        "engine.map_ms.self": map_self,
        "verilog.compile.count": len(by_name.get("verilog.compile", ())),
        "verilog.compile_ms.total": total("verilog.compile"),
        "verilog.compile_cache_hit_share": hits / lookups if lookups else 0.0,
        "oracles.sva_propose_ms.total": total("oracles.sva_propose"),
        "oracles.cot_ms.total": total("oracles.cot"),
        "sva.bmc_batch.count": len(by_name.get("sva.bmc_batch", ())),
        "sva.bmc_batch_ms.total": total("sva.bmc_batch"),
        "sva.bmc_batch.stimuli_per_call": (
            counts["sva.bmc_batch.stimuli"] / len(by_name["sva.bmc_batch"])
            if by_name.get("sva.bmc_batch") else 0.0),
        "sva.bmc.count": len(by_name.get("sva.bmc", ())),
        "sva.bmc_ms.total": total("sva.bmc"),
        "sva.bmc.stimuli_per_call": (
            counts["sva.bmc.stimuli"] / len(by_name["sva.bmc"])
            if by_name.get("sva.bmc") else 0.0),
        "sva.validate_accept_share": share("sva.validate.accepted",
                                           "sva.validate.proposed"),
        "sim.runs": counts["sim.runs"],
        # The program's own per-phase counters (microseconds).  bmc_us
        # contains simulate_us + monitor_us; compile_program_us is
        # separate (charged when a simulator is made).
        "sim.simulate_ms.total": profile_delta.get("simulate_us", 0) / 1000.0,
        "sva.monitor_ms.total": profile_delta.get("monitor_us", 0) / 1000.0,
        "sim.compile_program_ms.total":
            profile_delta.get("compile_program_us", 0) / 1000.0,
        "bugs.inject_ms.total": total("bugs.inject"),
        "datagen.stage_ms.corpus": total("datagen.corpus"),
        "datagen.stage_ms.stage1": total("datagen.stage1"),
        "datagen.stage_ms.stage2": total("datagen.stage2"),
        "datagen.stage_ms.stage3": total("datagen.stage3"),
        "eval.run_ms.p50": pct(by_name.get("eval.run", []), 0.50),
        "eval.semantic_check.count":
            len(by_name.get("eval.semantic_check", ())),
        "eval.semantic_check_ms.total": total("eval.semantic_check"),
        "eval.memo_hit_share": share("eval.memo_hits", "eval.cases"),
        "baselines.generate_ms.total": total("baselines.generate"),
        "store.put.count": len(by_name.get("store.put", ())),
        "store.put_ms.total": total("store.put"),
        "store.get.count": len(by_name.get("store.get", ())),
        "store.get_ms.total": total("store.get"),
        "trace.spans": len(tracer.spans),
    }

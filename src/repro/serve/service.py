"""AssertService: async request serving for assertion generation.

The batch pipeline answers "regenerate the whole paper"; this module
answers "here is one design, give me validated SVAs *now*" — the
request/response layer the ROADMAP's serving goal needs:

- :class:`SolveRequest` carries raw design source plus
  :class:`SolveOptions` (hint list, mining, hallucination rate, BMC
  budget).  Requests are content-addressed: every RNG stream the solve
  consumes derives from the request's SHA-256 key, so identical requests
  produce byte-identical responses no matter when, where, or in which
  batch they run.
- :meth:`AssertService.submit` first looks the request up in the
  :class:`repro.serve.cache.ResultCache` on the caller's thread: a
  repeat resolves its ``Future`` before ``submit`` returns, never
  touching a queue, the batch window or the deadline timer.  Every
  other request enqueues onto its kind's lane — solves and evaluations
  each have their own queue — under one *bounded* admission count: once
  ``max_queue`` requests wait across both lanes, :class:`ServiceOverloaded`
  is raised immediately (backpressure — the caller sheds load or
  retries) instead of letting latency grow without bound.
- Each lane has its own :class:`repro.serve.batcher.MicroBatcher`
  consumer thread, so a seconds-long evaluation never holds up the
  solves queued behind it.  A flush dedups its batch by content key;
  the solve lane re-checks the cache's memory tier (a twin queued
  earlier may have been solved since) and fans the remaining unique
  work units out over one :meth:`repro.engine.ExecutionEngine.map`
  call — workers share the process-wide compile cache, and each unit
  scores all of a design's proposals with one
  ``bounded_check_batch``-backed validation pass.  The eval lane runs
  each unique evaluation in turn; evaluations are never result-cached.
- :class:`ServiceStats` surfaces every counter an operator needs:
  queue/backpressure, batch shapes, cache hits, dedup wins, errors.

Malformed Verilog never crashes a worker: a request that does not
compile resolves to a structured ``compile_error`` response carrying the
compiler's diagnostics.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import cov
from repro.corpus.meta import DesignSeed, SvaHint, TemplateMeta
from repro.engine import BACKENDS, ExecutionEngine, derive_rng
from repro.engine import metrics
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.eval.cases import cases_to_json
from repro.eval.config import EvalConfig
from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.sim.compiled import SIM_MODES
from repro.serve.cache import ResultCache, content_key
from repro.store import StoreConfig
from repro.sva.bmc import BmcConfig
from repro.sva.mine import mine_invariant_hints
from repro.verilog.compile import compile_source, configure_compile_cache

#: A hint as it travels inside a request: hashable, picklable, canonical.
#: ``(name, consequent, antecedent, delay, message)`` mirrors
#: :class:`SvaHint`'s constructor.
HintTuple = Tuple[str, str, Optional[str], int, str]


class ServiceOverloaded(RuntimeError):
    """The bounded request queues are full; retry later or shed load."""


class ServiceClosed(RuntimeError):
    """submit() after close()."""


def hint_to_tuple(hint: SvaHint) -> HintTuple:
    return (hint.name, hint.consequent, hint.antecedent, hint.delay,
            hint.message)


def hint_from_tuple(data: Sequence) -> SvaHint:
    name, consequent, antecedent, delay, message = data
    return SvaHint(name, consequent, antecedent=antecedent, delay=int(delay),
                   message=message)


@dataclass(frozen=True)
class SolveOptions:
    """Per-request knobs; part of the request's content key.

    ``hints`` feeds the oracle known-plausible properties (the loadgen
    fills it from corpus template metadata, standing in for an upstream
    LLM's raw proposals); with no hints and ``mine_hints=True`` the
    service mines candidates from the design structure instead.  Either
    way every proposal is re-validated with the bounded checker before it
    is served.
    """

    hints: Tuple[HintTuple, ...] = ()
    mine_hints: bool = True
    max_proposals: int = 8
    hallucination_rate: float = 0.0
    bmc_depth: int = 10
    bmc_random_trials: int = 24
    #: Wall-clock budget from ``submit()``; a request still unserved when
    #: it expires — waiting in the queue or sitting in a batch — resolves
    #: to a structured ``timeout`` response instead of blocking
    #: ``result()`` forever.  A QoS knob like ``request_id``, NOT part of
    #: the content key: differently-deadlined repeats still share cache
    #: entries and batch dedup, and timeout responses are never cached.
    deadline_ms: Optional[float] = None

    @classmethod
    def for_design(cls, design: DesignSeed, **overrides) -> "SolveOptions":
        """Options carrying the design's template hints."""
        hints = tuple(hint_to_tuple(h) for h in design.meta.sva_hints)
        return cls(hints=hints, **overrides)

    def validate(self) -> None:
        for hint in self.hints:
            try:
                parts = tuple(hint)
            except TypeError:
                parts = ()
            if len(parts) != 5:
                raise ValueError(f"hint tuples are (name, consequent, "
                                 f"antecedent, delay, message), got {hint!r}")
            name, consequent, antecedent, delay, message = parts
            if not (isinstance(name, str) and isinstance(consequent, str)
                    and isinstance(message, str)
                    and (antecedent is None or isinstance(antecedent, str))
                    and isinstance(delay, int)
                    and not isinstance(delay, bool)):
                raise ValueError(f"malformed hint tuple: {hint!r}")
        if not isinstance(self.max_proposals, int) \
                or isinstance(self.max_proposals, bool) \
                or self.max_proposals < 1:
            raise ValueError(f"max_proposals must be an integer >= 1, "
                             f"got {self.max_proposals!r}")
        if not 0.0 <= self.hallucination_rate <= 1.0:
            raise ValueError(f"hallucination_rate must be in [0, 1], "
                             f"got {self.hallucination_rate!r}")
        for name, minimum in (("bmc_depth", 1), ("bmc_random_trials", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(
                    f"{name} must be an integer >= {minimum}, got {value!r}")
        if self.deadline_ms is not None \
                and (not isinstance(self.deadline_ms, (int, float))
                     or isinstance(self.deadline_ms, bool)
                     or self.deadline_ms <= 0):
            raise ValueError(f"deadline_ms must be a number > 0 or None, "
                             f"got {self.deadline_ms!r}")

    def canonical(self) -> str:
        """Stable text rendering, hashed into the request key.

        Deliberately excludes ``deadline_ms``: the deadline changes when
        a response is worth delivering, never what the response is."""
        return json.dumps({
            "hints": [list(h) for h in self.hints],
            "mine_hints": self.mine_hints,
            "max_proposals": self.max_proposals,
            "hallucination_rate": self.hallucination_rate,
            "bmc_depth": self.bmc_depth,
            "bmc_random_trials": self.bmc_random_trials,
        }, sort_keys=True)

    def hint_objects(self) -> List[SvaHint]:
        return [hint_from_tuple(h) for h in self.hints]


@dataclass(frozen=True)
class SolveRequest:
    """One unit of service traffic.

    ``request_id`` is a client-side tag for tracing; it is *not* part of
    the content key, so differently-tagged repeats still share cache
    entries and batch dedup.
    """

    design_source: str
    options: SolveOptions = field(default_factory=SolveOptions)
    request_id: str = ""

    def cache_key(self) -> str:
        """The content key, hashed once per request object.

        The memo lives outside the dataclass fields, so equality, repr
        and hashing ignore it, and :meth:`__getstate__` keeps it out of
        pickles."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = content_key(self.design_source, self.options.canonical())
            object.__setattr__(self, "_cache_key", key)
        return key

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state


class ScoredProposal:
    """One validated assertion, ready to insert into the design."""

    __slots__ = ("name", "property_text", "assertion_text", "score", "origin")

    def __init__(self, name: str, property_text: str, assertion_text: str,
                 score: float, origin: str):
        self.name = name
        self.property_text = property_text
        self.assertion_text = assertion_text
        self.score = score
        self.origin = origin  # "hint" | "mined"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "property": self.property_text,
                "assertion": self.assertion_text, "score": self.score,
                "origin": self.origin}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScoredProposal({self.name}, score={self.score})"


class SolveResponse:
    """The deterministic result of one solve.

    ``status`` is ``"ok"``, ``"compile_error"``, ``"timeout"``, or
    ``"cancelled"``: a compile error carries the compiler's diagnostics
    in ``error`` (structured failure, not a crashed worker); a timeout
    means the request exceeded its ``SolveOptions.deadline_ms`` before
    being served; cancelled means the client abandoned it via
    :meth:`AssertService.cancel`.  Only the two deterministic statuses
    (``ok`` / ``compile_error``) are ever cached.
    ``request_key`` echoes the request's content
    key (design source + canonical options) so clients can correlate
    responses with submissions.  Deliberately carries no timing or host
    fields: identical requests must serialize to identical bytes
    (:meth:`to_json`), which is what makes result caching sound.

    ``coverage`` is telemetry, present only when the serving deployment
    runs with ``ServeConfig.coverage`` on: the coverage report the
    validating bounded checks produced, plus vacuity-penalized quality
    scores per served proposal.  It is a deterministic function of
    request content *given* the knob, and :meth:`to_json` omits the key
    entirely when it is absent — coverage-off deployments serialize to
    exactly the pre-coverage bytes.
    """

    __slots__ = ("status", "request_key", "proposals", "rejected", "error",
                 "coverage")

    def __init__(self, status: str, request_key: str,
                 proposals: Tuple[ScoredProposal, ...] = (),
                 rejected: int = 0, error: str = "",
                 coverage: Optional[Dict[str, object]] = None):
        self.status = status
        self.request_key = request_key
        self.proposals = proposals
        self.rejected = rejected
        self.error = error
        self.coverage = coverage

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "request_key": self.request_key,
            "proposals": [p.to_dict() for p in self.proposals],
            "rejected": self.rejected,
            "error": self.error,
        }
        if self.coverage is not None:
            payload["coverage"] = self.coverage
        return json.dumps(payload, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover
        if not self.ok:
            return f"SolveResponse({self.status})"
        return (f"SolveResponse(ok, {len(self.proposals)} proposals, "
                f"{self.rejected} rejected)")


class EvalRequest:
    """One evaluation job: a registered model name over submitted cases.

    The eval twin of :class:`SolveRequest` — same lifecycle (bounded
    queue, deadline timer, cancellation by ``request_id``), different
    payload.  ``model`` names a model previously installed with
    :meth:`AssertService.register_model`; the cases travel with the
    request, so any backend holding the model can serve it.

    Content-addressed like solves: :meth:`cache_key` hashes the model
    name, the canonical case rendering, and ``EvalConfig.canonical()``
    (which excludes ``deadline_ms``), so the fleet router sends repeats
    of one evaluation to the same backend — where the per-case memo in
    the artifact store makes the repeat cheap.
    """

    __slots__ = ("model", "cases", "config", "request_id", "_cases_json")

    def __init__(self, model: str, cases,
                 config: Optional[EvalConfig] = None, request_id: str = ""):
        if not isinstance(model, str) or not model:
            raise ValueError(
                "model must be a non-empty registered model name")
        self.model = model
        self.cases = list(cases)
        if not self.cases:
            raise ValueError("cases must be a non-empty list")
        self.config = config or EvalConfig()
        self.request_id = request_id
        self._cases_json: Optional[str] = None

    def cases_json(self) -> str:
        """Canonical case rendering (computed once, reused by the key)."""
        if self._cases_json is None:
            self._cases_json = cases_to_json(self.cases)
        return self._cases_json

    def cache_key(self) -> str:
        return content_key("eval", self.model, self.cases_json(),
                           self.config.canonical())


class EvalResponse:
    """The resolution of one :class:`EvalRequest`.

    ``status`` is ``"ok"`` (``report`` carries the
    :class:`repro.eval.EvalReport`), ``"unknown_model"`` (no registered
    model under that name), ``"timeout"``, or ``"cancelled"`` — the last
    two with the same semantics as their solve twins.
    """

    __slots__ = ("status", "request_key", "report", "error")

    def __init__(self, status: str, request_key: str, report=None,
                 error: str = ""):
        self.status = status
        self.request_key = request_key
        self.report = report
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:  # pragma: no cover
        if not self.ok:
            return f"EvalResponse({self.status})"
        return f"EvalResponse(ok, {self.report!r})"


# -- the per-request work unit (module-level: picklable for process pools) ----


@dataclass(frozen=True)
class SolveTask:
    """Everything one worker needs to solve one unique request.

    ``sim_mode`` is deployment configuration, not request content: it
    selects the simulation tier (see :mod:`repro.sim.compiled`) and must
    never change the response, so it stays out of ``key`` — a cached
    response is valid under either mode.

    ``coverage`` is the same kind of knob: when on, the worker attaches
    the coverage report its validating checks already produced (no extra
    simulation) to the response.  Both tiers emit byte-identical
    reports, so it stays out of ``key`` too.

    ``trace_parent`` is the first waiter's inflight span context (a
    picklable ``(trace_id, span_id)`` tuple), carried so the worker's
    ``solve`` span lands in the request's trace.  Purely volatile: it
    never reaches ``key`` or the response, which stays a function of
    content alone.
    """

    key: str
    design_source: str
    options: SolveOptions
    seed: int
    sim_mode: str = "compiled"
    coverage: bool = False
    trace_parent: Optional[Tuple[str, str]] = None


def _score_hint(hint: SvaHint, design_signals: frozenset) -> float:
    """Deterministic quality proxy: signal coverage + temporal depth."""
    covered = len(set(hint.signals()) & design_signals)
    coverage = covered / max(1, len(design_signals))
    temporal = 0.2 if hint.antecedent is not None else 0.0
    return round(min(1.0, 0.2 + 0.6 * coverage + temporal), 4)


def _vacuity_scores(scored: "List[ScoredProposal]",
                    report: Dict[str, object]) -> Dict[str, float]:
    """Discount each proposal's structural score by how often its passes
    were vacuous during validation: a score of 0 means every observed
    pass held only because the antecedent never fired."""
    quality = report.get("assertions", {})
    out: Dict[str, float] = {}
    for proposal in scored:
        counters = quality.get(f"{proposal.name}_assertion")
        if not counters:
            out[proposal.name] = proposal.score
            continue
        real = counters.get("real_passes", 0)
        observed = real + counters.get("vacuous", 0)
        factor = (real / observed) if observed else 0.0
        out[proposal.name] = round(proposal.score * factor, 4)
    return out


def solve_task(task: SolveTask) -> SolveResponse:
    """Compile, propose, validate, score — one request end to end.

    Every random draw derives from ``(seed, "serve", key, ...)``, so the
    response is a pure function of the task (``trace_parent`` included —
    tracing observes, never steers): reorderable across batches, workers
    and backends, and safely cacheable by content key.
    """
    with obs_trace.span("solve", parent=task.trace_parent,
                        attrs={"key": task.key[:12]}):
        return _solve_task_inner(task)


def _solve_task_inner(task: SolveTask) -> SolveResponse:
    from repro.datagen.stage2 import validate_svas
    from repro.oracles.sva import SvaOracle

    options = task.options
    compiled = compile_source(task.design_source)
    if not compiled.ok:
        return SolveResponse("compile_error", task.key,
                             error=compiled.failure_summary())

    hints = options.hint_objects()
    origin = "hint"
    if not hints and options.mine_hints:
        hints = mine_invariant_hints(compiled.design,
                                     limit=options.max_proposals)
        origin = "mined"
    hints = hints[:options.max_proposals]
    if not hints:
        return SolveResponse("ok", task.key)

    seed_like = DesignSeed(
        "serve_design", task.design_source,
        TemplateMeta("serve", {}, "served design", [], hints))
    oracle = SvaOracle(derive_rng(task.seed, "serve", task.key, "oracle"),
                       hallucination_rate=options.hallucination_rate)
    proposals = oracle.propose(seed_like)
    bmc = BmcConfig(depth=options.bmc_depth,
                    random_trials=options.bmc_random_trials,
                    seed=task.seed, sim_mode=task.sim_mode,
                    coverage=task.coverage)
    coverage_out: Optional[dict] = {} if task.coverage else None
    valid, rejected = validate_svas(seed_like, proposals, bmc, mode="batched",
                                    coverage_out=coverage_out)

    design_signals = frozenset(compiled.design.symbols)
    scored = [ScoredProposal(p.name, p.property_text, p.assertion_text,
                             _score_hint(p.hint, design_signals), origin)
              for p in valid]
    scored.sort(key=lambda p: (-p.score, p.name))
    coverage = None
    if coverage_out:
        # The report the validating checks already produced — attaching
        # it costs no extra simulation, keeping the coverage knob off the
        # solve critical path.
        coverage = {"report": coverage_out,
                    "scores": _vacuity_scores(scored, coverage_out)}
    return SolveResponse("ok", task.key, proposals=tuple(scored),
                         rejected=rejected, coverage=coverage)


# -- configuration -------------------------------------------------------------


@dataclass
class ServeConfig:
    """Capacity and execution knobs for one :class:`AssertService`.

    Mirrors :class:`repro.datagen.pipeline.DatagenConfig`'s style: a
    validated dataclass whose execution knobs (workers, backend, caches,
    batching) never change responses — only how fast they arrive.
    """

    n_workers: int = 1
    backend: str = "auto"
    max_queue: int = 256
    max_batch: int = 16
    batch_window_ms: float = 10.0
    result_cache: bool = True
    cache_entries: int = 1024
    compile_cache: bool = True
    compile_cache_size: int = 4096
    sim_mode: str = "compiled"
    #: Collect toggle/block coverage and assertion-quality counters from
    #: every solve's validating checks.  A pure execution knob like
    #: ``sim_mode``: it never changes which proposals are served, only
    #: whether responses additionally carry a ``coverage`` block (and
    #: the ``/covz`` buffer fills).  Off by default so the serving hot
    #: path pays nothing for it.
    coverage: bool = False
    seed: int = 2025
    #: Persistent tier under the result cache (and, via the worker
    #: initializer, under every worker's compile cache).  Responses are
    #: byte-deterministic functions of request content, so a fleet of
    #: service instances pointed at one store directory safely pool
    #: responses: cached == recomputed.
    store: Optional[StoreConfig] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, minimum in (("n_workers", 1), ("max_queue", 1),
                              ("max_batch", 1), ("cache_entries", 1),
                              ("compile_cache_size", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(
                    f"{name} must be an integer >= {minimum}, got {value!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.sim_mode not in SIM_MODES:
            raise ValueError(
                f"sim_mode must be one of {SIM_MODES}, got {self.sim_mode!r}")
        if not isinstance(self.coverage, bool):
            raise ValueError(
                f"coverage must be a bool, got {self.coverage!r}")
        if not isinstance(self.batch_window_ms, (int, float)) \
                or isinstance(self.batch_window_ms, bool) \
                or self.batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be a number >= 0, "
                             f"got {self.batch_window_ms!r}")
        if self.store is not None:
            if not isinstance(self.store, StoreConfig):
                raise ValueError(
                    f"store must be a StoreConfig or None, got {self.store!r}")
            self.store.validate()

    def compile_cache_settings(self) -> tuple:
        """The ``configure_compile_cache`` arguments this config implies —
        applied in worker processes (engine initializer) and, by
        :meth:`AssertService.start`, in the serving process itself, so
        the persistent compile tier also exists under the serial and
        thread backends where no initializer ever runs."""
        store_path = self.store.store_path() if self.store else ""
        store_bytes = self.store.max_bytes if store_path else 0
        return (self.compile_cache, self.compile_cache_size,
                store_path, store_bytes)

    def make_engine(self) -> ExecutionEngine:
        """Worker pool whose subprocesses inherit the compile-cache knobs."""
        return ExecutionEngine(
            n_workers=self.n_workers, backend=self.backend,
            initializer=configure_compile_cache,
            initargs=self.compile_cache_settings())


@dataclass
class ServiceStats:
    """One consistent snapshot of every service counter.

    ``queue_depth`` / ``inflight`` / ``queue_capacity`` are the
    saturation gauges: ``inflight`` counts requests accepted but not yet
    resolved (queued, batching, or computing), so operators and load
    tests can see pressure building *before* the bounded queue starts
    returning 429s.  Queue and batch fields sum the solve and eval
    lanes (``max_batch`` is the larger lane's); ``queue_capacity`` is
    the admission bound both lanes share.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    solved: int = 0
    deduped: int = 0
    compile_errors: int = 0
    timeouts: int = 0
    cancelled: int = 0
    evals: int = 0
    eval_cases: int = 0
    eval_memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_store_hits: int = 0
    cache_entries: int = 0
    cache_hit_rate: float = 0.0
    store_entries: int = 0
    batches: int = 0
    batched_requests: int = 0
    mean_batch: float = 0.0
    max_batch: int = 0
    flush_size: int = 0
    flush_timeout: int = 0
    flush_drain: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    inflight: int = 0
    backend: str = "serial"
    n_workers: int = 1

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class _Pending:
    """One accepted request in flight.

    The queue item handed to the batcher, the deadline-timer entry, and
    the cancellation registry all reference the same ``_Pending``, so
    whichever path resolves it first (flush, timer, cancel, close)
    claims it atomically under the service lock — the losers see
    ``claimed`` and back off instead of double-resolving the future.
    """

    __slots__ = ("request", "future", "expiry", "key", "claimed",
                 "created", "span", "queue_span", "batch_span")

    def __init__(self, request: SolveRequest, future: "Future",
                 expiry: Optional[float]):
        self.request = request
        self.future = future
        self.expiry = expiry  # time.monotonic() deadline, or None
        self.key = request.cache_key()
        self.claimed = False
        # Observability only, all volatile: the submit timestamp feeds
        # the latency histograms whether or not tracing is enabled; the
        # spans (inflight / queue-wait / batch-wait) are None when it is
        # not.  Whichever resolver claims the request also closes them.
        self.created = time.perf_counter()
        self.span = None
        self.queue_span = None
        self.batch_span = None


class _DeadlineTimer:
    """Monotonic-deadline timer wheel for queued requests.

    One daemon thread sleeps until the earliest registered expiry and
    fires the service's expire callback on it — so a request whose
    ``deadline_ms`` lapses *while it still waits in the queue* (or rides
    a forming batch) resolves to a structured timeout the moment it
    expires, instead of at the next batch flush.  The thread starts
    lazily on the first deadline-carrying submit and wakes whenever a
    new earliest deadline arrives.
    """

    #: Compact once at least this many resolved entries linger (and they
    #: are the majority) — keeps discard() O(1) amortized.
    COMPACT_FLOOR = 64

    def __init__(self, expire):
        self._expire = expire  # callback(_Pending)
        self._heap: List[Tuple[float, int, _Pending]] = []
        self._counter = itertools.count()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._resolved = 0  # entries claimed elsewhere, still in the heap

    def add(self, pending: _Pending) -> None:
        with self._cond:
            if self._closed:
                return  # close() drains the queue and fails the future
            heapq.heappush(self._heap,
                           (pending.expiry, next(self._counter), pending))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="serve-deadline", daemon=True)
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            pending = None
            with self._cond:
                while pending is None:
                    if self._closed:
                        return
                    if not self._heap:
                        self._cond.wait()
                        continue
                    if self._heap[0][2].claimed:
                        heapq.heappop(self._heap)  # resolved elsewhere
                        self._resolved = max(0, self._resolved - 1)
                        continue
                    delay = self._heap[0][0] - time.monotonic()
                    if delay <= 0:
                        pending = heapq.heappop(self._heap)[2]
                    else:
                        self._cond.wait(delay)
            # Fire outside the condition lock: the callback takes the
            # service lock and resolves a future.
            if not pending.claimed:
                self._expire(pending)

    def discard(self, pending: _Pending) -> None:
        """Note that ``pending`` resolved without expiring.

        Heaps cannot remove from the middle cheaply, so resolved entries
        are left in place and filtered out in bulk once they are the
        majority — otherwise a fleet of long-deadline requests that all
        resolve in milliseconds would pin their (request + response)
        payloads until each deadline lapsed."""
        with self._cond:
            self._resolved += 1
            if self._resolved >= self.COMPACT_FLOOR \
                    and self._resolved * 2 >= len(self._heap):
                self._heap = [entry for entry in self._heap
                              if not entry[2].claimed]
                heapq.heapify(self._heap)
                self._resolved = 0
                self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            thread, self._thread = self._thread, None
            self._heap.clear()
            self._cond.notify()
        if thread is not None:
            thread.join(timeout=5.0)


class AssertService:
    """Bounded-queue, micro-batched assertion service.

    Lifecycle::

        with AssertService(ServeConfig(n_workers=4)) as service:
            future = service.submit(SolveRequest(source))
            response = future.result()

    ``submit`` may be called before :meth:`start`; requests queue up (and
    exert backpressure) until the consumer starts draining.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.config.validate()
        # One lane per request kind; the admission bound in
        # _submit_pending counts both queues against max_queue.
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_queue)
        self._eval_queue: "queue.Queue" = queue.Queue(
            maxsize=self.config.max_queue)
        self._store = (self.config.store.make_store()
                       if self.config.store is not None else None)
        self._cache = (ResultCache(self.config.cache_entries,
                                   store=self._store)
                       if self.config.result_cache else None)
        self._engine: Optional[ExecutionEngine] = None
        self._batcher: Optional[MicroBatcher] = None
        self._eval_batcher: Optional[MicroBatcher] = None
        self._timer = _DeadlineTimer(self._expire_pending)
        # Per-service (not process-global) so co-located fleet backends
        # each retain only what they themselves solved — the router's
        # /covz merge then counts every report exactly once.
        self.cov_buffer = cov.CoverageBuffer()
        self._closed = False
        self._lock = threading.Lock()
        self._by_id: Dict[str, List[_Pending]] = {}
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._errors = 0
        self._solved = 0
        self._deduped = 0
        self._compile_errors = 0
        self._timeouts = 0
        self._cancelled = 0
        self._evals = 0
        self._eval_cases = 0
        self._eval_memo_hits = 0
        self._models: Dict[str, Tuple[object, str]] = {}
        self._previous_compile_cache: Optional[tuple] = None
        self.metrics = obs_metrics.MetricsRegistry()
        self._request_seconds = self.metrics.histogram(
            "repro_service_request_seconds",
            "Accepted-request latency, submit to resolution (any outcome).")
        self._queue_wait_seconds = self.metrics.histogram(
            "repro_service_queue_wait_seconds",
            "Time a queued request waited before batch pickup, either "
            "lane (admission cache hits never queue).")
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose the existing counters through the metrics registry.

        Everything here is callback-backed — ``/metricsz`` reads the
        same bookkeeping ``stats()`` reports, so no number is maintained
        twice and registration costs the hot path nothing.
        """
        def reader(attr: str):
            return lambda: getattr(self, attr)

        for name in ("submitted", "completed", "rejected", "errors",
                     "solved", "deduped", "compile_errors", "timeouts",
                     "cancelled", "evals"):
            self.metrics.counter_callback(
                f"repro_service_{name}_total",
                f"Cumulative {name} requests.", reader(f"_{name}"))
        self.metrics.gauge_callback(
            "repro_service_queue_depth",
            "Requests waiting in the solve and eval queues.",
            self._queue_depth)
        self.metrics.gauge_callback(
            "repro_service_queue_capacity",
            "Admission bound over both lanes' queues.",
            lambda: self.config.max_queue)
        self.metrics.gauge_callback(
            "repro_service_inflight",
            "Accepted requests not yet resolved.",
            lambda: max(0, self._submitted - self._completed - self._errors))
        if self._cache is not None:
            self.metrics.counter_callback(
                "repro_service_cache_hits_total", "Result-cache hits.",
                lambda: self._cache.hits)
            self.metrics.counter_callback(
                "repro_service_cache_misses_total", "Result-cache misses.",
                lambda: self._cache.misses)
            self.metrics.gauge_callback(
                "repro_service_cache_entries", "Live result-cache entries.",
                lambda: len(self._cache))
        self.metrics.provider(
            "repro_engine",
            "Worker-side counter deltas accumulated by the engine.",
            self._engine_worker_totals)

    def _engine_worker_totals(self) -> Dict[str, int]:
        engine = self._engine
        if engine is None:
            return {}
        flat: Dict[str, int] = {}
        for provider, counters in engine.metric_totals().items():
            for key, value in counters.items():
                flat[f"{provider}_{key}"] = value
        return flat

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AssertService":
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._batcher is not None:
            return self
        # Apply the compile-cache knobs (incl. the persistent store tier)
        # in this process too: under the serial and thread backends the
        # engine initializer never runs, and compilation happens right
        # here.  close() restores the previous settings.
        self._previous_compile_cache = configure_compile_cache(
            *self.config.compile_cache_settings())
        self._engine = self.config.make_engine()
        self._engine.warm()  # pool startup off the first request's latency
        window_s = self.config.batch_window_ms / 1000.0
        self._batcher = MicroBatcher(
            self._queue, functools.partial(self._flush, self._flush_solves),
            max_batch=self.config.max_batch, window_s=window_s)
        self._eval_batcher = MicroBatcher(
            self._eval_queue,
            functools.partial(self._flush, self._flush_evals),
            max_batch=self.config.max_batch, window_s=window_s,
            name="serve-eval-batcher")
        self._batcher.start()
        self._eval_batcher.start()
        return self

    def close(self) -> None:
        """Drain accepted requests, then release the worker pool.

        Requests the consumer never reached — enqueued before
        :meth:`start`, or racing past the ``_closed`` check behind the
        batcher's stop sentinel — get their futures failed with
        :class:`ServiceClosed` rather than left to hang a client."""
        with self._lock:
            # Flipped under the same lock submit() holds for its check:
            # once this block exits, no new request can enter the queue,
            # so the drain below is complete, not best-effort.
            if self._closed:
                return
            self._closed = True
        for batcher in (self._batcher, self._eval_batcher):
            if batcher is not None:
                batcher.stop()
        self._timer.close()
        for lane in (self._queue, self._eval_queue):
            while True:
                try:
                    item = lane.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Pending):
                    self._fail(item, ServiceClosed(
                        "service closed before the request was served"))
        if self._engine is not None:
            self._engine.close()
        if self._previous_compile_cache is not None:
            configure_compile_cache(*self._previous_compile_cache)
            self._previous_compile_cache = None

    def __enter__(self) -> "AssertService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path --------------------------------------------------------

    def _coerce(self, request: Union[SolveRequest, str]) -> SolveRequest:
        if isinstance(request, str):
            request = SolveRequest(request)
        request.options.validate()
        return request

    def register_model(self, name: str, model) -> str:
        """Install ``model`` under ``name`` for ``POST /v1/eval`` traffic.

        Returns the model's content digest (the memo-key half), so
        operators can verify every fleet backend registered the same
        weights under the same name.  Re-registering a name replaces the
        model."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"model name must be a non-empty string, "
                             f"got {name!r}")
        from repro.eval.runner import model_digest

        digest = model_digest(model)
        with self._lock:
            self._models[name] = (model, digest)
        return digest

    def model_names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def submit(self, request: Union[SolveRequest, str]) -> "Future":
        """Accept one solve; the future resolves to a SolveResponse.

        A result-cache hit is resolved before this returns; anything
        else is enqueued on the solve lane.  Raises
        :class:`ServiceOverloaded` when the bounded queues are full and
        :class:`ServiceClosed` after :meth:`close`.
        """
        request = self._coerce(request)
        return self._submit_pending(request, request.options.deadline_ms)

    def submit_eval(self, request: EvalRequest) -> "Future":
        """Enqueue one evaluation; the future resolves to an EvalResponse.

        Same lifecycle as :meth:`submit` — bounded admission (429-style
        backpressure), deadline timer, cancellation by ``request_id``,
        batch dedup by content key — on the eval lane, whose own batcher
        thread keeps a long evaluation from delaying queued solves."""
        if not isinstance(request, EvalRequest):
            raise ValueError(
                f"submit_eval takes an EvalRequest, "
                f"got {type(request).__name__}")
        request.config.validate()
        return self._submit_pending(request, request.config.deadline_ms)

    def _submit_pending(self, request: Union[SolveRequest, EvalRequest],
                        deadline: Optional[float]) -> "Future":
        """The shared accept path: solve and eval requests share the
        admission bound, timer, and cancellation registry, each queueing
        on its own lane — except a solve whose answer is already cached,
        which resolves right here."""
        future: "Future" = Future()
        expiry = (time.monotonic() + deadline / 1000.0
                  if deadline is not None else None)
        # The expiry is attached only once the request is queued: an
        # admission hit never meets the deadline timer.
        pending = _Pending(request, future, None)
        # Open the trace before any resolution path can see the request:
        # the inflight span roots the trace for in-process callers and
        # joins the HTTP server span's trace (the ambient context) when
        # one is active on this thread.
        if obs_trace.enabled():
            parent = obs_trace.current()
            trace_id = (parent.trace_id if parent is not None
                        else obs_trace.trace_id_for(pending.key,
                                                    request.request_id))
            attrs = ({"request_id": request.request_id}
                     if request.request_id else None)
            pending.span = obs_trace.begin(
                "request.inflight", parent=parent, trace_id=trace_id,
                root=parent is None, attrs=attrs)
        # The request's one counted cache lookup, on the caller's thread:
        # a repeat must not wait out a batch window for a microsecond
        # answer.  Evals are never result-cached, so they always queue.
        is_eval = isinstance(request, EvalRequest)
        cached = (self._cache.get(pending.key)
                  if self._cache is not None and not is_eval else None)
        if cached is not None:
            with self._lock:
                if self._closed:
                    self._end_spans(pending, "closed")
                    raise ServiceClosed("service is closed")
                self._submitted += 1
            if pending.span is not None:
                pending.span.attrs["cache_hit"] = True
            self._finish(pending, cached)
            return future
        pending.expiry = expiry
        if pending.span is not None:
            pending.queue_span = obs_trace.begin("queue.wait",
                                                 parent=pending.span)
        # Atomic closed-check + bound check + enqueue (put_nowait never
        # blocks, so holding the lock is safe): a submit can therefore
        # never land behind close()'s stop sentinel and be silently
        # stranded.  Every put happens under this lock and consumers only
        # shrink the queues, so the lane queue itself is never full here.
        with self._lock:
            if self._closed:
                self._end_spans(pending, "closed")
                raise ServiceClosed("service is closed")
            if self._queue_depth() >= self.config.max_queue:
                self._rejected += 1
                self._end_spans(pending, "rejected")
                raise ServiceOverloaded(
                    f"request queue full ({self.config.max_queue} pending)")
            (self._eval_queue if is_eval else self._queue).put_nowait(pending)
            self._submitted += 1
            if request.request_id:
                self._by_id.setdefault(request.request_id, []).append(pending)
        if expiry is not None:
            self._timer.add(pending)
        return future

    def cancel(self, request_id: str) -> int:
        """Cancel every in-flight request tagged ``request_id``.

        A still-queued request is dropped — its batch slot never
        computes.  A request already riding a batch is abandoned: the
        computed response still lands in the result cache (it is a valid
        answer for future repeats) but is not delivered.  Either way the
        client's future resolves immediately to a structured
        ``status="cancelled"`` response.  Returns how many requests this
        call cancelled (0 for an unknown — or empty — tag).
        """
        if not request_id:
            return 0
        with self._lock:
            pendings = list(self._by_id.get(request_id, ()))
        cancelled = 0
        for pending in pendings:
            if self._finish(pending, self._cancelled_response_for(pending)):
                cancelled += 1
        return cancelled

    def solve(self, request: Union[SolveRequest, str],
              timeout: Optional[float] = None) -> SolveResponse:
        """Synchronous convenience: submit and wait."""
        if self._batcher is None:
            self.start()
        return self.submit(request).result(timeout)

    # -- resolution (exactly-once, any thread) -------------------------------

    def _finish(self, pending: _Pending, response: SolveResponse) -> bool:
        """Resolve ``pending`` with ``response`` if nobody else has.

        Exactly one resolver wins — flush, deadline timer, cancel, or
        close — decided by the ``claimed`` flag under the service lock.
        Counters update before the future resolves, so a client that
        wakes from ``result()`` and immediately reads ``stats()`` sees
        its own request counted."""
        with self._lock:
            if pending.claimed:
                return False
            pending.claimed = True
            self._completed += 1
            if response.status == "timeout":
                self._timeouts += 1
            elif response.status == "cancelled":
                self._cancelled += 1
            self._unregister_locked(pending)
        self._request_seconds.observe(time.perf_counter() - pending.created)
        self._end_spans(pending, response.status)
        if pending.expiry is not None and response.status != "timeout":
            self._timer.discard(pending)
        pending.future.set_result(response)
        return True

    def _fail(self, pending: _Pending, exc: BaseException) -> bool:
        """Exception twin of :meth:`_finish` (same claim discipline)."""
        with self._lock:
            if pending.claimed:
                return False
            pending.claimed = True
            self._errors += 1
            self._unregister_locked(pending)
        self._request_seconds.observe(time.perf_counter() - pending.created)
        self._end_spans(pending, "error")
        if pending.expiry is not None:
            self._timer.discard(pending)
        pending.future.set_exception(exc)
        return True

    @staticmethod
    def _end_spans(pending: _Pending, status: str) -> None:
        """Close whatever request spans are still open (end is
        idempotent, so racing with the batch-pickup close is safe)."""
        for span_obj in (pending.queue_span, pending.batch_span):
            if span_obj is not None:
                span_obj.end()
        if pending.span is not None:
            pending.span.end(status=status)

    def _unregister_locked(self, pending: _Pending) -> None:
        request_id = pending.request.request_id
        if not request_id:
            return
        waiters = self._by_id.get(request_id)
        if waiters is None:
            return
        try:
            waiters.remove(pending)
        except ValueError:
            pass
        if not waiters:
            del self._by_id[request_id]

    def _expire_pending(self, pending: _Pending) -> None:
        """Timer callback: the deadline lapsed before anything served it."""
        self._finish(pending, self._timeout_response_for(pending))

    @staticmethod
    def _timeout_response_for(
            pending: _Pending) -> Union[SolveResponse, EvalResponse]:
        """A kind-matched timeout: eval waiters get an EvalResponse."""
        error = "deadline_ms exceeded before the request was served"
        if isinstance(pending.request, EvalRequest):
            return EvalResponse("timeout", pending.key, error=error)
        return SolveResponse("timeout", pending.key, error=error)

    @staticmethod
    def _cancelled_response_for(
            pending: _Pending) -> Union[SolveResponse, EvalResponse]:
        if isinstance(pending.request, EvalRequest):
            return EvalResponse("cancelled", pending.key,
                                error="cancelled by client")
        return SolveResponse("cancelled", pending.key,
                             error="cancelled by client")

    # -- batch flush (one batcher thread per lane) --------------------------

    def _flush(self, serve, batch: List[_Pending], reason: str) -> None:
        """Serve one lane's batch with ``serve`` (:meth:`_flush_solves`
        or :meth:`_flush_evals`).  Must resolve every future, success or
        not: a stranded future hangs its client forever, which is worse
        than any error it could carry."""
        try:
            serve(self._pick_up(batch))
        except BaseException as exc:  # noqa: BLE001
            for pending in batch:
                self._fail(pending, exc)
            raise  # let the batcher count the flush error too

    def _pick_up(self, batch: List[_Pending]
                 ) -> "OrderedDict[str, List[_Pending]]":
        """End the batch's queue waits and group it by content key.

        Requests the deadline timer or a cancellation already resolved
        drop out here, and a key all of whose waiters are gone is never
        computed at all — a queued cancel or expiry saves its compute
        entirely."""
        groups: "OrderedDict[str, List[_Pending]]" = OrderedDict()
        picked = time.perf_counter()
        for pending in batch:
            if pending.future.done():
                continue
            self._queue_wait_seconds.observe(picked - pending.created)
            if pending.span is not None:
                if pending.queue_span is not None:
                    pending.queue_span.end()
                pending.batch_span = obs_trace.begin("batch.wait",
                                                     parent=pending.span)
            groups.setdefault(pending.key, []).append(pending)
        dedup_extra = sum(len(waiters) for waiters in groups.values()) \
            - len(groups)
        with self._lock:
            self._deduped += dedup_extra
        return groups

    def _deliver(self, waiters: List[_Pending], response) -> None:
        """Resolve every waiter of one computed key with ``response``."""
        now = time.monotonic()
        for pending in waiters:
            # Belt and braces: the timer normally fires first, but a
            # deadline that lapsed mid-compute must never see its
            # response delivered late just because the timer thread has
            # not been scheduled yet.
            if pending.expiry is not None and now > pending.expiry:
                self._finish(pending, self._timeout_response_for(pending))
            else:
                self._finish(pending, response)

    def _flush_solves(self, groups: "OrderedDict[str, List[_Pending]]"
                      ) -> None:
        misses: List[str] = []
        for key, waiters in groups.items():
            # Every waiter missed at admission, where its lookup was
            # counted; a twin in an earlier batch may have been computed
            # since.  Memory only: the store was read at admission.
            cached = (self._cache.peek(key) if self._cache is not None
                      else None)
            if cached is not None:
                for pending in waiters:
                    self._finish(pending, cached)
            else:
                misses.append(key)

        tasks = [SolveTask(key=key,
                           design_source=groups[key][0].request.design_source,
                           options=groups[key][0].request.options,
                           seed=self.config.seed,
                           sim_mode=self.config.sim_mode,
                           coverage=self.config.coverage,
                           trace_parent=(
                               groups[key][0].span.context_tuple()
                               if groups[key][0].span is not None else None))
                 for key in misses]
        try:
            results = (self._engine.map(solve_task, tasks, stage="serve")
                       if tasks else [])
        except BaseException as exc:  # noqa: BLE001 - fail futures, not thread
            for key in misses:
                for pending in groups[key]:
                    self._fail(pending, exc)
            return

        # Memory tier before anything can observe the batch (counters or
        # a resolved future): a client that resubmits the moment its
        # answer arrives must hit at admission.
        if self._cache is not None:
            for key, response in zip(misses, results):
                self._cache.remember(key, response)
        compile_errors = sum(1 for response in results if not response.ok)
        with self._lock:
            self._solved += len(tasks)
            self._compile_errors += compile_errors
        for key, response in zip(misses, results):
            self._deliver(groups[key], response)
        # Write-through last: a disk-backed cache put (pickle + rename +
        # index bookkeeping) must not sit on the response critical path.
        # The computed response is valid and cacheable even when its own
        # waiters timed out or were cancelled mid-batch — a later repeat
        # hits it.
        if self._cache is not None:
            for key, response in zip(misses, results):
                self._cache.write_through(key, response)
        # Retain coverage reports for /covz — only from fresh solves
        # (cache hits would double-count their design's counters).
        for response in results:
            if response.coverage is not None:
                report = response.coverage.get("report")
                if report:
                    self.cov_buffer.record(report)

    def _flush_evals(self, groups: "OrderedDict[str, List[_Pending]]"
                     ) -> None:
        # One compute per unique key serves every deduped waiter; repeats
        # across batches recompute only the aggregation — the per-case
        # outcomes come back from the store's eval/v1 memo.  Deliberately
        # NOT ResultCache'd: the response depends on which object is
        # registered under the model *name*, which a shared store cannot
        # see, whereas the per-case memo keys on the model's digest.
        for key, waiters in groups.items():
            try:
                response = self._run_eval(waiters[0].request, key)
            except BaseException as exc:  # noqa: BLE001
                for pending in waiters:
                    self._fail(pending, exc)
                continue
            self._deliver(waiters, response)

    def _run_eval(self, request: EvalRequest, key: str) -> EvalResponse:
        """Resolve one unique eval key (eval batcher thread)."""
        with self._lock:
            entry = self._models.get(request.model)
        if entry is None:
            return EvalResponse(
                "unknown_model", key,
                error=f"no registered model named {request.model!r}")
        model, _digest = entry
        from repro.eval.runner import run_eval

        report = run_eval(model, request.cases, request.config,
                          engine=self._engine, store=self._store)
        with self._lock:
            self._evals += 1
            self._eval_cases += report.stats.get("cases", 0)
            self._eval_memo_hits += report.stats.get("memo_hits", 0)
        return EvalResponse("ok", key, report=report)

    # -- reporting -----------------------------------------------------------

    def _queue_depth(self) -> int:
        """Requests waiting across both lanes (what max_queue bounds)."""
        return self._queue.qsize() + self._eval_queue.qsize()

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot of the service counters.

        Counter fields are individually monotonic, but batcher/cache
        counters are read without pausing their writer threads, so
        derived ratios (``mean_batch``, ``cache_hit_rate``) can lag an
        in-flight request by one update."""
        stats = ServiceStats()
        with self._lock:
            stats.submitted = self._submitted
            stats.completed = self._completed
            stats.rejected = self._rejected
            stats.errors = self._errors
            stats.solved = self._solved
            stats.deduped = self._deduped
            stats.compile_errors = self._compile_errors
            stats.timeouts = self._timeouts
            stats.cancelled = self._cancelled
            stats.evals = self._evals
            stats.eval_cases = self._eval_cases
            stats.eval_memo_hits = self._eval_memo_hits
            stats.inflight = max(
                0, self._submitted - self._completed - self._errors)
        if self._cache is not None:
            stats.cache_hits = self._cache.hits
            stats.cache_misses = self._cache.misses
            stats.cache_store_hits = self._cache.store_hits
            stats.cache_entries = len(self._cache)
            stats.cache_hit_rate = round(self._cache.hit_rate, 4)
        if self._store is not None:
            stats.store_entries = len(self._store)
        if self._batcher is not None:
            snap = BatcherStats.combined(
                [self._batcher.stats, self._eval_batcher.stats]).snapshot()
            stats.batches = snap["batches"]
            stats.batched_requests = snap["items"]
            stats.mean_batch = snap["mean_batch"]
            stats.max_batch = snap["max_batch"]
            stats.flush_size = snap["flush_reasons"]["size"]
            stats.flush_timeout = snap["flush_reasons"]["timeout"]
            stats.flush_drain = snap["flush_reasons"]["drain"]
        stats.queue_depth = self._queue_depth()
        stats.queue_capacity = self.config.max_queue
        if self._engine is not None:
            stats.backend = self._engine.backend
            stats.n_workers = self._engine.n_workers
        return stats

    def statsz(self) -> Dict[str, object]:
        """The operator payload behind ``GET /statsz``: the full
        :class:`ServiceStats` snapshot, the backing store's own counters
        (hit/miss/write/evict/corrupt) when one is attached, and the
        cumulative per-phase solve profile (``*_us`` wall-time counters
        for program compilation, simulation, monitoring and BMC) summed
        across worker processes when the engine pools."""
        payload: Dict[str, object] = {"service": self.stats().to_dict()}
        if self._store is not None:
            store_info = dict(self._store.counters())
            store_info["entries"] = len(self._store)
            payload["store"] = store_info
        else:
            payload["store"] = None
        profile = dict(metrics.profile_counters())
        if self._engine is not None and self._engine.backend == "process":
            for key, value in self._engine.metric_totals().get(
                    "solve_profile", {}).items():
                profile[key] = profile.get(key, 0) + value
        payload["solve_profile"] = profile
        coverage = dict(cov.coverage_counters())
        if self._engine is not None and self._engine.backend == "process":
            for key, value in self._engine.metric_totals().get(
                    "coverage", {}).items():
                coverage[key] = coverage.get(key, 0) + value
        payload["coverage"] = coverage
        return payload

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The payload behind ``GET /covz``: this service's retained
        per-design coverage reports (most recent first), bounded like
        the trace buffer.  ``limit`` caps how many designs are
        returned."""
        return self.cov_buffer.snapshot(limit=limit)

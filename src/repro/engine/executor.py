"""The execution engine: ordered parallel map with pluggable backends.

``ExecutionEngine.map`` applies a picklable task function to a list of
work units and returns results **in input order**, whatever the backend:

- ``serial``  — plain loop in the calling process (the reference
  semantics; every other backend must be byte-identical to it);
- ``thread``  — ``ThreadPoolExecutor`` (useful for I/O-bound units);
- ``process`` — ``ProcessPoolExecutor`` (CPU-bound units; the pipeline's
  default for real parallelism);
- ``auto``    — ``process`` clamped to the CPUs actually available,
  degrading to ``serial`` on a single-core host instead of paying pool
  overhead for nothing.

Because stage units draw only from RNG streams derived per unit (see
:mod:`repro.engine.rng`), scheduling order cannot leak into results.
Every unit call is wrapped with a metrics snapshot so process-local
counters (compile-cache hits, …) surface in the parent; see
:mod:`repro.engine.metrics`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import metrics
from repro.obs import trace as obs_trace

BACKENDS = ("auto", "serial", "thread", "process")


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _warm_noop() -> None:
    """Top-level (hence picklable) no-op used by :meth:`ExecutionEngine.warm`."""


def _call_with_metrics(task: Tuple[Callable, object, object]):
    """Top-level (hence picklable) unit wrapper: run + counter delta + spans.

    ``task`` carries the dispatching map's span context (a picklable
    ``(trace_id, span_id)`` tuple or ``None``); the unit runs inside an
    ``engine.unit`` span under span-export mode, and the spans it
    finishes travel back with the result — the exact protocol the
    counter deltas already use, extended to traces.
    """
    fn, item, trace_ctx = task
    before = metrics.snapshot()
    with obs_trace.export_spans() as spans:
        with obs_trace.span("engine.unit", parent=trace_ctx):
            result = fn(item)
    return result, metrics.delta(before, metrics.snapshot()), spans


class ExecutionEngine:
    """Maps task functions over unit lists with a persistent worker pool."""

    def __init__(self, n_workers: int = 1, backend: str = "auto",
                 initializer: Optional[Callable] = None,
                 initargs: tuple = (),
                 store=None, memo_context: str = "",
                 memo_namespace: str = "stage/v1"):
        """``initializer(*initargs)`` propagates process-global settings
        (e.g. compile-cache knobs) into process-pool workers.  It runs
        only in subprocesses: under the serial and thread backends work
        executes in the calling process, whose state the caller already
        controls — running it there would leak a global mutation past
        the engine's lifetime.

        ``store`` (any :class:`repro.store.ArtifactStore`) enables
        unit-level memoization in :meth:`map`: calls that also pass a
        ``memo_key`` skip units whose results the store already holds.
        ``memo_context`` is the caller's config digest, available to key
        functions via the engine so stored results are only reused for a
        semantically identical configuration."""
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.requested_backend = backend
        self.requested_workers = n_workers
        if backend == "auto":
            n_workers = min(n_workers, available_cpus())
            backend = "process" if n_workers > 1 else "serial"
        if n_workers <= 1:
            backend = "serial"
        self.backend = backend
        self.n_workers = n_workers
        self.store = store
        self.memo_context = memo_context
        self.memo_namespace = memo_namespace
        self._initializer = initializer
        self._initargs = initargs
        self._pool = None
        self._closed = False
        # Guards the pool handle and the bookkeeping below: a service
        # with two batcher lanes calls map() from two threads at once.
        self._lock = threading.Lock()
        self._stage_stats: "Dict[str, Dict[str, float]]" = {}
        self._metric_totals: Dict[str, Dict[str, int]] = {}
        self._map_count = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.backend == "serial":
            return None
        with self._lock:
            if self._pool is None:
                if self.backend == "thread":
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.n_workers)
                else:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.n_workers,
                        initializer=self._initializer,
                        initargs=self._initargs)
            return self._pool

    def warm(self) -> None:
        """Start the worker pool now instead of lazily at the first map.

        Batch runs don't care, but the serving layer does: without this
        the first request of a cold service pays the whole process-pool
        spawn (plus initializer) latency.  Executors spawn workers
        lazily on submit, so constructing the pool is not enough — a
        round of no-op tasks forces the spawns (and runs the
        initializer) before any real work arrives.  No-op for serial
        backends.
        """
        pool = self._ensure_pool()
        if pool is not None:
            for future in [pool.submit(_warm_noop)
                           for _ in range(self.n_workers)]:
                future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.backend != "serial"

    def map(self, fn: Callable, items: Sequence, stage: Optional[str] = None,
            memo_key: Optional[Callable] = None) -> List:
        """Apply ``fn`` to every item, preserving input order.

        ``fn`` must be a module-level function and items picklable when
        the backend is ``process``.

        When the engine carries a ``store`` and the caller passes
        ``memo_key`` (item -> content-key string, typically built with
        :func:`repro.store.unit_memo_key` over this engine's
        ``memo_context``), every unit is first looked up in the store's
        ``memo_namespace``; only misses execute, and their results are
        written back — so an identical re-run skips straight to stored
        results.  Memoized unit results must be picklable and non-``None``
        (a stored ``None`` is indistinguishable from a miss).  Store hits
        bypass the unit's metrics snapshot, so worker-side counters (e.g.
        compile-cache stats) only reflect units that actually ran.
        """
        items = list(items)
        with self._lock:
            self._map_count += 1
            stage = stage or f"map-{self._map_count}"
        started = time.perf_counter()
        # No-op outside a trace (batch datagen): span() yields None when
        # no request trace is ambient, at the cost of one contextvar read.
        with obs_trace.span("engine.map",
                            attrs={"stage": stage, "units": len(items),
                                   "backend": self.backend}) as map_span:
            store = self.store if memo_key is not None else None
            if store is None:
                results = self._execute(fn, items)
                memo_hits = memo_misses = 0
            else:
                keys = [memo_key(item) for item in items]
                results = [store.get(self.memo_namespace, key)
                           for key in keys]
                pending = [i for i, cached in enumerate(results)
                           if cached is None]
                memo_hits = len(items) - len(pending)
                memo_misses = len(pending)
                if pending:
                    computed = self._execute(fn, [items[i] for i in pending])
                    for i, result in zip(pending, computed):
                        store.put(self.memo_namespace, keys[i], result)
                        results[i] = result
                if map_span is not None:
                    map_span.attrs["memo_hits"] = memo_hits
        elapsed = time.perf_counter() - started
        with self._lock:
            bucket = self._stage_stats.setdefault(
                stage, {"units": 0, "seconds": 0.0,
                        "memo_hits": 0, "memo_misses": 0})
            bucket["units"] += len(items)
            bucket["seconds"] += elapsed
            bucket["memo_hits"] += memo_hits
            bucket["memo_misses"] += memo_misses
        return results

    def _execute(self, fn: Callable, items: List) -> List:
        """The raw ordered map: pool dispatch + metrics/span accumulation."""
        pool = self._ensure_pool()
        trace_ctx = obs_trace.current_tuple()
        tasks = [(fn, item, trace_ctx) for item in items]
        if pool is None:
            rows = [_call_with_metrics(task) for task in tasks]
        else:
            chunksize = max(1, len(tasks) // (self.n_workers * 4))
            rows = list(pool.map(_call_with_metrics, tasks,
                                 chunksize=chunksize))
        results = []
        for result, counter_delta, spans in rows:
            with self._lock:
                metrics.accumulate(self._metric_totals, counter_delta)
            obs_trace.ingest(spans)
            results.append(result)
        return results

    # -- reporting -----------------------------------------------------------

    def metric_totals(self) -> Dict[str, Dict[str, int]]:
        """Summed worker-side counter deltas across all maps so far."""
        with self._lock:
            return {name: dict(counters)
                    for name, counters in self._metric_totals.items()}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            stages = {name: {"units": int(s["units"]),
                             "seconds": round(s["seconds"], 6),
                             "memo_hits": int(s.get("memo_hits", 0)),
                             "memo_misses": int(s.get("memo_misses", 0))}
                      for name, s in self._stage_stats.items()}
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "requested_backend": self.requested_backend,
            "requested_workers": self.requested_workers,
            "cpu_count": available_cpus(),
            "stages": stages,
        }

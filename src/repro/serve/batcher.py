"""Micro-batching: coalesce queued requests into engine work units.

A :class:`MicroBatcher` owns one consumer thread over one of the
service's request queues (the service runs one batcher per lane: solves
and evaluations).  It blocks for the first item, then keeps
collecting until either ``max_batch`` items are in hand (**size** flush)
or ``window_s`` seconds have passed since the batch opened (**timeout**
flush), and hands the batch to the service's flush callable — which
dedups it by content hash and runs one :meth:`ExecutionEngine.map` over
the unique work units.  Throughput therefore *rises* with concurrency
(duplicate in-flight requests collapse, unique ones fan out across the
worker pool) instead of degrading, while the window bounds the latency a
lone request pays for the chance to share a batch.  Only result-cache
misses pay it on the solve lane, and every evaluation on the eval lane:
the service answers cached repeats at admission, before they would
reach a queue.

The flush callable must not raise; the batcher still guards it so a bug
in one batch cannot kill the consumer thread and deadlock every later
request.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs import trace as obs_trace

#: Flush reasons, in stats order.
FLUSH_SIZE = "size"
FLUSH_TIMEOUT = "timeout"
FLUSH_DRAIN = "drain"

_STOP = object()  # queue sentinel: drain what is queued ahead, then exit


@dataclass
class BatcherStats:
    """Consumer-thread counters (single writer; readers take snapshots)."""

    batches: int = 0
    items: int = 0
    max_batch: int = 0
    flush_errors: int = 0
    flush_reasons: dict = field(default_factory=lambda: {
        FLUSH_SIZE: 0, FLUSH_TIMEOUT: 0, FLUSH_DRAIN: 0})

    @classmethod
    def combined(cls, parts: List["BatcherStats"]) -> "BatcherStats":
        """Counter sums over several batchers (``max_batch`` is the
        largest) — one service-wide view of its lanes."""
        total = cls()
        for part in parts:
            total.batches += part.batches
            total.items += part.items
            total.max_batch = max(total.max_batch, part.max_batch)
            total.flush_errors += part.flush_errors
            for reason, count in part.flush_reasons.items():
                total.flush_reasons[reason] += count
        return total

    @property
    def mean_batch(self) -> float:
        return self.items / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        return {"batches": self.batches, "items": self.items,
                "max_batch": self.max_batch,
                "mean_batch": round(self.mean_batch, 3),
                "flush_errors": self.flush_errors,
                "flush_reasons": dict(self.flush_reasons)}


class MicroBatcher:
    """Queue consumer that flushes coalesced batches via a callback."""

    def __init__(self, source: "queue.Queue", flush: Callable[[List, str], None],
                 max_batch: int = 16, window_s: float = 0.010,
                 name: str = "serve-batcher"):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self._source = source
        self._flush = flush
        self.max_batch = max_batch
        self.window_s = window_s
        self.stats = BatcherStats()
        self._thread: Optional[threading.Thread] = None
        self._stop_sent = False
        self._name = name

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(target=self._run, name=self._name,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain everything already queued, then stop the thread.

        The sentinel enters the FIFO behind every pending request, so no
        accepted request is dropped.
        """
        if self._thread is None:
            return
        if not self._stop_sent:
            self._stop_sent = True
            self._source.put(_STOP)  # blocks if full; the consumer makes room
        self._thread.join(timeout)
        if self._thread.is_alive():
            # Timed-out join: keep the handle so `running` stays truthful
            # and a later stop() can join again without re-sending the
            # sentinel.
            return
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- consumer loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._source.get()
            if item is _STOP:
                return
            batch = [item]
            stopping = False
            deadline = time.monotonic() + self.window_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._source.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            if stopping:
                reason = FLUSH_DRAIN
            elif len(batch) >= self.max_batch:
                reason = FLUSH_SIZE
            else:
                reason = FLUSH_TIMEOUT
            self.stats.batches += 1
            self.stats.items += len(batch)
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            self.stats.flush_reasons[reason] += 1
            # Per-flush span, parented to the first traced member's
            # inflight span (duck-typed: the batcher stays generic over
            # queue items).  Making it the consumer thread's ambient span
            # is what parents the flush's engine.map span into a trace.
            trace_parent = next(
                (span for span in (getattr(item, "span", None)
                                   for item in batch) if span is not None),
                None)
            try:
                with obs_trace.span("batch.flush", parent=trace_parent,
                                    attrs={"size": len(batch),
                                           "reason": reason}):
                    self._flush(batch, reason)
            except BaseException:  # noqa: BLE001 - must not kill the consumer
                self.stats.flush_errors += 1
            if stopping:
                return

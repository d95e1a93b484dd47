#!/usr/bin/env python
"""Serving-layer benchmark: micro-batching and result-cache wins.

Replays one deterministic corpus-sampled request stream (see
:mod:`repro.serve.loadgen`) against four service settings on the same
host:

- **sequential** — one request at a time, result cache off: the
  no-serving-layer baseline (every request pays a full solve);
- **batched**    — the same stream with concurrent clients, result cache
  off: what micro-batching alone buys (in-batch dedup + worker fan-out);
- **cache_cold** — concurrent again with the result cache on, empty;
- **cache_warm** — the *same stream replayed* against the warm cache: a
  100%-repeat workload served from content-hash lookups.

The report asserts the serving layer's two contracts —
``batched_speedup >= --min-batched-speedup`` (default 2x) and
``cache_speedup >= --min-cache-speedup`` (default 5x) — plus response
determinism: every batched/cached response must be byte-identical to the
sequential one — and one structural check: the warm pass, answered at
admission, adds exactly 0 batched requests and 0 solves to the cold
pass's counters (exit 4 otherwise).  Results land in
``BENCH_serve.json`` (p50/p95 latency, req/s, service counters) so the
serving trajectory is tracked across PRs like ``BENCH_pipeline.json``
tracks the batch pipeline.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.engine import available_cpus
from repro.serve import (
    AssertService,
    ServeConfig,
    WorkloadSpec,
    build_workload,
    run_load,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _service(args, result_cache: bool, max_batch: int = None) -> AssertService:
    return AssertService(ServeConfig(
        n_workers=args.workers, backend="auto",
        max_queue=max(args.requests * 2, 64),
        max_batch=max_batch if max_batch is not None else args.max_batch,
        batch_window_ms=args.window_ms,
        result_cache=result_cache,
        seed=args.seed))


def _measure(args, requests, label: str, concurrency: int,
             result_cache: bool = False, service=None):
    """Run one load pass.  Pass *either* ``result_cache`` (a fresh
    service is built and torn down) *or* an existing ``service`` whose
    configuration already settles the caching question."""
    own = service is None
    if not own and result_cache:
        raise ValueError("pass result_cache only when _measure builds "
                         "the service itself")
    service = service or _service(args, result_cache)
    try:
        report = run_load(service, requests, concurrency=concurrency,
                          label=label)
        stats = service.stats()
    finally:
        if own:
            service.close()
    print(f"  {label:<10} {report.seconds:7.2f}s  "
          f"{report.req_per_sec:7.1f} req/s  p50 {report.p50_ms:7.1f}ms  "
          f"p95 {report.p95_ms:7.1f}ms  p99 {report.p99_ms:7.1f}ms  "
          f"solved {stats.solved}  "
          f"deduped {stats.deduped}  cache hits {stats.cache_hits}")
    return report, stats


def run_bench(args) -> dict:
    spec = WorkloadSpec(n_requests=args.requests,
                        unique_designs=args.unique,
                        seed=args.seed,
                        bmc_depth=args.bmc_depth,
                        bmc_random_trials=args.bmc_random_trials)
    requests = build_workload(spec)
    print(f"bench_serve: {args.requests} requests over {args.unique} unique "
          f"designs, concurrency={args.concurrency}, "
          f"workers={args.workers}, cpus={available_cpus()}")

    sequential, seq_stats = _measure(
        args, requests, "sequential", concurrency=1, result_cache=False)
    batched, batch_stats = _measure(
        args, requests, "batched", concurrency=args.concurrency,
        result_cache=False)

    # Cache passes share one service: cold populates, warm is 100% repeats.
    cache_service = _service(args, result_cache=True)
    try:
        cache_cold, cold_stats = _measure(args, requests, "cache_cold",
                                          concurrency=args.concurrency,
                                          service=cache_service)
        cache_warm, warm_stats = _measure(args, requests, "cache_warm",
                                          concurrency=args.concurrency,
                                          service=cache_service)
    finally:
        cache_service.close()

    unique_keys = len({r.cache_key() for r in requests})
    responses_match = all(
        a is not None and b is not None and c is not None
        and a.to_json() == b.to_json() == c.to_json()
        for a, b, c in zip(sequential.responses, batched.responses,
                           cache_warm.responses))
    batched_speedup = round(
        batched.req_per_sec / sequential.req_per_sec, 3) \
        if sequential.req_per_sec else 0.0
    cache_speedup = round(
        cache_warm.req_per_sec / cache_cold.req_per_sec, 3) \
        if cache_cold.req_per_sec else 0.0
    # Structural, not timed: every warm request is a repeat, answered at
    # admission, so the warm pass must put nothing through the batcher
    # and solve nothing.
    warm_delta = {
        "batched_requests": (warm_stats.batched_requests
                             - cold_stats.batched_requests),
        "solved": warm_stats.solved - cold_stats.solved,
    }

    report = {
        "benchmark": "serve",
        "n_requests": args.requests,
        "unique_designs": args.unique,
        "unique_request_keys": unique_keys,
        "concurrency": args.concurrency,
        "requested_workers": args.workers,
        "cpu_count": available_cpus(),
        "max_batch": args.max_batch,
        "batch_window_ms": args.window_ms,
        "sequential": sequential.to_dict(),
        "batched": batched.to_dict(),
        "cache_cold": cache_cold.to_dict(),
        "cache_warm": cache_warm.to_dict(),
        "batched_speedup": batched_speedup,
        "cache_speedup": cache_speedup,
        "min_batched_speedup": args.min_batched_speedup,
        "min_cache_speedup": args.min_cache_speedup,
        "batching_win": batched_speedup >= args.min_batched_speedup,
        "cache_win": cache_speedup >= args.min_cache_speedup,
        "responses_match": responses_match,
        "cache_warm_delta": warm_delta,
        "warm_bypasses_batcher": not any(warm_delta.values()),
        "batched_stats": batch_stats.to_dict(),
        "cache_warm_stats": warm_stats.to_dict(),
        "unix_time": int(time.time()),
    }
    output = args.output or REPO_ROOT / "BENCH_serve.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  micro-batching speedup {batched_speedup}x "
          f"(floor {args.min_batched_speedup}x), "
          f"cache speedup {cache_speedup}x "
          f"(floor {args.min_cache_speedup}x), "
          f"responses match: {responses_match}, warm-pass deltas "
          f"{warm_delta} (must be 0) -> {output}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--unique", type=int, default=8)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--window-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--bmc-depth", type=int, default=10)
    parser.add_argument("--bmc-random-trials", type=int, default=24)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--min-batched-speedup", type=float, default=2.0,
                        help="required batched/sequential req/s ratio "
                             "(0 disables the gate)")
    parser.add_argument("--min-cache-speedup", type=float, default=5.0,
                        help="required warm/cold cache req/s ratio "
                             "(0 disables the gate)")
    args = parser.parse_args()
    report = run_bench(args)
    if not report["responses_match"]:
        print("  FATAL: batched/cached responses diverge from sequential")
        sys.exit(1)
    if args.min_batched_speedup > 0 and not report["batching_win"]:
        print("  FATAL: micro-batching speedup below floor")
        sys.exit(2)
    if args.min_cache_speedup > 0 and not report["cache_win"]:
        print("  FATAL: result-cache speedup below floor")
        sys.exit(3)
    if not report["warm_bypasses_batcher"]:
        print("  FATAL: warm-cache repeats reached the batcher")
        sys.exit(4)


if __name__ == "__main__":
    main()

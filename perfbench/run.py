"""End-to-end benchmark: paced HTTP solving, solves mixed with evals,
and cold dataset generation.

Run from the repository root::

    python3 perfbench/run.py --workload solve_http --seed 1 --seconds 30 --trace 0

(``--workload all`` runs the three in turn.)

The benchmark builds nothing: the program is the pure-Python package
under ``src/``, imported from there.  Every workload starts the program
fresh in a child process (``child.py``) and feeds it inputs generated
here: designs from a fixed library (``--library-seed``), their order,
repeats and eval seeds from ``--seed``.  The last line on standard
output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the readable report, and the full record (inputs, host
facts, the program's own counters, per-phase counts) is written to
``.perfbench_out/``.

Workloads (one process of load, at most two threads and connections):

- ``solve_http``: the whole serving path (HTTP edge, codecs, queue,
  micro-batcher, result cache, ``bounded_check_batch`` on golden
  designs).  A paced open loop at ``PACED_RATE`` solves/s, then two
  closed-loop clients over designs the paced phase never sent.  Exactly
  half of each phase's requests repeat an earlier design.  No store,
  no eval, no bug check.  Outside the timed phases it also runs the
  datagen fingerprint gate, and its traced run takes the layers only
  datagen runs (:data:`DATAGEN_LAYERS`) from one traced cold datagen
  run of ``TRACED_DATAGEN_DESIGNS`` designs, so that the benchmark's
  workloads measure every layer.
- ``solve_eval_mix``: the same paced solve stream plus one ``/v1/eval``
  (GPT-4 baseline, the 38 human cases, ``semantic_check``) due every
  ``EVAL_PERIOD_S`` on the same two connections (no solve due in the
  ``EVAL_QUIET_S`` before it), against a server with a fresh
  ``DiskStore``: long requests beside short ones on the single batcher
  thread.
- ``datagen_cold``: ``run_pipeline(DatagenConfig())`` at the shipped
  defaults (60 designs, seed 2025 = ``LIBRARY_SEED``, serial engine, no
  store), each run in a fresh process; stage2 (early-exit bounded checks
  on buggy designs) dominates and no serve layer runs.  ``--seed`` draws
  the small corpus of the fingerprint gate.  This workload is for runs
  by hand and is not in ``BENCHMARK.json``: it is pure CPU work, and on
  a shared 2-CPU host the speed of identical work drifts by 15-50% over
  minutes, so the middle half of ten 30 s runs spreads by 13-26% of
  their median, whatever statistic is taken within a run: up to and
  past the 25% bound a regression check could hold it to.

End-to-end metrics.  Every workload reports every one, so that a
regression check can compare each per workload; each keeps one meaning
per workload, and
the report lines before the JSON also print the workload's own named
figures (all-solve p50/p95, eval p50, ...) with their sample counts:

================  ======================  ======================  =================
metric            solve_http              solve_eval_mix          datagen_cold
================  ======================  ======================  =================
setup_s           inputs generated +      same, + eval cases      median spawn to
                  median of 5 server      built                   ready of the
                  starts to /healthz ok                           run's processes
latency_ms        median paced *repeat*   lower quartile of the   median wall of a
                  solve (the cached path) same, evals beside      cold pipeline run
slo_share         paced solves answered   same within 1000 ms     runs within
                  200 within 300 ms       (queued behind evals)   ``DATAGEN_SLO_S``
throughput_per_s  saturated solves/s,     paced ops completed     designs/s
                  two closed-loop clients per s of phase wall
peak_rss_mb       server child            server child            datagen process
================  ======================  ======================  =================

Latencies are timed from each request's *due* time.  The all-solve
median and p95 are printed but not gated: with half the stream
repeating, the median sits on the edge between cached (~12 ms) and
computed (20-400 ms) answers, and a p95 of ~200 samples of this
heavy-tailed, queueing service moves by 20-50% between runs of the
same inputs on a 2-CPU host.  The share within a fixed limit averages
over every scheduled solve instead.  Inside the mix the repeat-solve
median flips between ~12 ms and ~100 ms as interference grows past
half the repeats, so its lower quartile is gated there; the evals'
own latency tracks host speed (25% spread between runs) and is
printed, while slower evals show in the mix's ``slo_share``.

``--trace 1`` first repeats the untraced measurement, then runs the
workload again with spans recorded around the program's public entry
points (``tracer.py``), and reports the per-layer metrics, the layer
accounting (self times + ``unaccounted`` = root wall time, within
``tracer.ACCOUNTING_BOUND_SHARE``) and the tracing overhead.

Correctness gates run outside the timed phases; any mismatch prints
``correct: false`` and exits 1:

- sampled HTTP 200 solve bodies equal in-process
  ``solve_task(...).to_json()`` under ``sim_mode="interp"``, and every
  200 body of one request key is identical;
- every ``/v1/eval`` 200 body equals in-process ``run_eval(...).to_json()``;
- ``datagen_cold`` fingerprints agree across the run's runs of one seed,
  and at ``GATE_DESIGNS`` designs compiled == compiled == interp.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    host_facts,
    median,
    paced_schedule,
    percentile,
    repeat_share,
)

#: Paced solve rate, fixed near half the two-client saturation rate
#: measured at the commit that introduced the benchmark (15-17 solves/s
#: on a 2-CPU host), so the paced phase probes latency under real but
#: unsaturated load.
PACED_RATE = 8.0
#: Nominal saturation rate, used only to size the saturation phase to
#: about ``SAT_SHARE`` of ``--seconds`` at that commit.  The phase sends
#: a fixed request count, so a slower program takes longer, never less
#: work.
SAT_NOMINAL_RPS = 17.0
SAT_SHARE = 0.2
#: Seed of the design library: the corpus designs every solve stream
#: sends and the ``DatagenConfig`` seed of ``datagen_cold`` (its shipped
#: default).  ``--seed`` draws arrival order, repeats and eval seeds
#: over this fixed library; ``--library-seed`` swaps in a held-out one.
LIBRARY_SEED = 2025
#: Share of each solve stream's requests that repeat an earlier design.
REPEAT_SHARE = 0.5
#: A solve that is not answered 200 within this, counted from its due
#: time, misses the latency limit (as does every failed solve).
SOLVE_SLO_MS = 300.0
#: The limit beside evals: a solve queued behind a ~1.3 s eval misses
#: 300 ms by construction; this one asks that it wait less than an eval.
MIX_SLO_MS = 1000.0
#: One eval due every this many seconds in ``solve_eval_mix``.
EVAL_PERIOD_S = 10.0
#: No solve is due this long before an eval, so an eval meets a
#: drained queue: its latency is the eval path's, and the solves due
#: while it runs show the interference.
EVAL_QUIET_S = 0.5
#: Samples per human case, sized so one eval takes ~1.5 s.
EVAL_SAMPLES = 6
EVAL_MODEL = "GPT-4"
#: A cold datagen run slower than this misses its limit (~1.5x the
#: 60-design run at the benchmark's introduction).
DATAGEN_SLO_S = 20.0
#: Designs of the traced datagen run on ``solve_http`` (the first ones
#: of the shipped 60-design run; 3-5 s traced).
TRACED_DATAGEN_DESIGNS = 8
#: Distinct designs per solve stream checked against the interp tier.
GATE_SOLVES = 6
#: Design count of the compiled/interp fingerprint gate.
GATE_DESIGNS = 6
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 60.0
#: Hard wall-clock cap: children are killed and the run fails before
#: any caller's 180 s limit.
WATCHDOG_S = 170


class BenchError(RuntimeError):
    """The run cannot produce valid metrics."""


# -- child processes -----------------------------------------------------------

_CHILDREN: List[subprocess.Popen] = []


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed so str-keyed set iteration, and with it the order the program
    # does its work in, repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(*args: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=str(ROOT), env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    _CHILDREN.append(proc)
    return proc


def _read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"child {proc.args[2:]} exited early "
                         f"(code {proc.poll()})")
    return json.loads(line)


def _finish(proc: subprocess.Popen) -> dict:
    """Close the child's stdin, read its final report, reap it."""
    proc.stdin.close()
    out = proc.stdout.read()
    code = proc.wait(timeout=60)
    _CHILDREN.remove(proc)
    if code != 0:
        raise BenchError(f"child {proc.args[2:]} failed with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def _kill_children() -> None:
    for proc in list(_CHILDREN):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _CHILDREN.remove(proc)


class ServerChild:
    """One fresh ``AssertHttpServer`` in a child process."""

    def __init__(self, trace: bool = False, store: bool = False,
                 model: str = "", spans_out: str = ""):
        started = time.perf_counter()
        self.proc = _spawn("server", "--trace", str(int(trace)),
                           "--store", str(int(store)), "--model", model,
                           "--scratch", str(OUT), "--spans-out", spans_out)
        self.port = _read_json_line(self.proc)["port"]
        status, _ = self.get("/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        self.up_s = time.perf_counter() - started

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> dict:
        return _finish(self.proc)


def _start_server(**kwargs) -> Tuple[ServerChild, float]:
    """Start the server ``SETUP_REPEATS`` times (keeping the last) and
    return it with the median start-to-healthy time."""
    times = []
    for i in range(SETUP_REPEATS):
        server = ServerChild(**kwargs)
        times.append(server.up_s)
        if i < SETUP_REPEATS - 1:
            server.stop()
    return server, median(times)


# -- load generation -----------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One scheduled request and what became of it."""

    kind: str  # "solve" | "eval"
    path: str
    body: bytes
    rid: str
    key: str
    due: float = 0.0  # offset from the phase start, seconds
    repeat: bool = False  # a solve of a design sent earlier in the run
    status: int = 0  # 0 = transport error or timeout
    data: bytes = b""
    latency_ms: float = 0.0  # from due (paced) or send (closed loop)
    rtt_ms: float = 0.0  # from send to full body read
    late_ms: float = 0.0  # send time minus due time

    @property
    def ok(self) -> bool:
        return self.status == 200


def _drive(port: int, ops: List[Op], paced: bool, workers: int = 2
           ) -> float:
    """Send ``ops`` in order over ``workers`` keep-alive connections.

    Paced: each op is sent no earlier than its due time and timed from
    it (open loop).  Otherwise each worker sends its next op as soon as
    the previous answer is read (closed loop).  Returns the phase's wall
    time.
    """
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = None
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            op = ops[index]
            due = start + op.due
            if paced:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                conn.request("POST", op.path, body=op.body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                op.data = response.read()
                op.status = response.status
            except (OSError, http.client.HTTPException):
                op.status = 0
                if conn is not None:
                    conn.close()
                conn = None
            done = time.perf_counter()
            op.rtt_ms = (done - sent) * 1000.0
            op.late_ms = (sent - due) * 1000.0 if paced else 0.0
            op.latency_ms = (done - (due if paced else sent)) * 1000.0
        if conn is not None:
            conn.close()

    # Daemon threads: a watchdog timeout must not wait on a stuck request.
    threads = [threading.Thread(target=worker, name=f"load-{i}", daemon=True)
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _solve_ops(seed: int, library_seed: int, n_requests: int, prefix: str,
               exclude: frozenset = frozenset()
               ) -> Tuple[List[Op], Dict[str, int]]:
    """A solve stream of ``n_requests`` of which ``REPEAT_SHARE`` repeat
    an earlier design, and the stream's template-family mix.

    Requests are built as ``repro.serve.loadgen.build_workload`` builds
    them (corpus designs carrying their template hints), but the shape
    is fixed rather than sampled: the distinct designs cycle through
    every registered family in registry order, and exactly
    ``REPEAT_SHARE`` of the requests repeat an earlier design (picked
    uniformly among those already sent).  The designs come from
    ``library_seed``; ``seed`` only orders them and picks the repeats.
    Solve cost differs by design more than fiftyfold, so drawing the mix
    or the designs per seed made the seed, not the program, the largest
    source of spread.  Designs whose key is in ``exclude`` are replaced
    by another of the same family.
    """
    import random

    from repro.corpus.generator import CorpusGenerator
    from repro.engine.rng import derive_seed
    from repro.serve import SolveOptions, SolveRequest
    from repro.serve.codecs import request_to_json

    generator = CorpusGenerator(
        seed=derive_seed(library_seed, "perfbench", prefix) % (2 ** 32))
    families = generator.families
    distinct: List[SolveRequest] = []
    mix: Counter = Counter()
    seen = set(exclude)
    for i in range(n_requests - round(n_requests * REPEAT_SHARE)):
        family = families[i % len(families)]
        for _attempt in range(100):
            design = generator.generate_one(family=family)
            request = SolveRequest(design.source,
                                   SolveOptions.for_design(design))
            if request.cache_key() not in seen:
                break
        else:
            raise BenchError(f"no unseen {family} design in 100 tries")
        seen.add(request.cache_key())
        distinct.append(request)
        mix[family] += 1
    rng = random.Random(derive_seed(seed, "perfbench", prefix, "order"))
    rng.shuffle(distinct)
    is_new = [True] * len(distinct) + [False] * (n_requests - len(distinct))
    rng.shuffle(is_new)
    is_new.insert(0, is_new.pop(is_new.index(True)))  # a repeat needs a first
    fresh = iter(distinct)
    sent: List[SolveRequest] = []
    ops = []
    for i, new in enumerate(is_new):
        request = next(fresh) if new else rng.choice(sent)
        if new:
            sent.append(request)
        request = dataclasses.replace(request, request_id=f"{prefix}{i:05d}")
        ops.append(Op("solve", "/v1/solve",
                      request_to_json(request).encode("utf-8"),
                      request.request_id, request.cache_key(),
                      repeat=not new))
    return ops, dict(sorted(mix.items()))


def _digest(ops: List[Op]) -> str:
    sha = hashlib.sha256()
    for op in ops:
        sha.update(op.path.encode() + b"\0" + op.body + b"\0")
    return sha.hexdigest()


def _phase_summary(name: str, ops: List[Op]) -> Dict[str, object]:
    ok = sum(op.ok for op in ops)
    late = [op.late_ms for op in ops]
    return {"phase": name, "attempted": len(ops), "ok": ok,
            "failed": len(ops) - ok,
            "late_ms_p95": percentile(late, 0.95) if late else 0.0,
            "late_ms_max": max(late) if late else 0.0}


# -- correctness gates ---------------------------------------------------------


def _gate_solves(ops: List[Op]) -> List[str]:
    """Every 200 body of a key is identical, and the first
    ``GATE_SOLVES`` distinct keys match the interp reference."""
    from repro.serve import ServeConfig
    from repro.serve.codecs import request_from_json
    from repro.serve.service import SolveTask, solve_task

    errors = []
    bodies: Dict[str, bytes] = {}
    for op in ops:
        if not op.ok:
            continue
        if bodies.setdefault(op.key, op.data) != op.data:
            errors.append(f"{op.rid}: body differs from an earlier "
                          f"answer for the same request")
    seed = ServeConfig().seed
    for op in [op for op in ops if op.ok and bodies.get(op.key) is op.data
               ][:GATE_SOLVES]:
        request = request_from_json(op.body)
        reference = solve_task(SolveTask(
            key=op.key, design_source=request.design_source,
            options=request.options, seed=seed, sim_mode="interp"))
        if reference.to_json().encode("utf-8") != op.data:
            errors.append(f"{op.rid}: HTTP body differs from the interp "
                          f"in-process solve")
    return errors


def _gate_evals(ops: List[Op]) -> List[str]:
    from repro.baselines.engine import make_baseline
    from repro.eval import run_eval
    from repro.serve.codecs import eval_request_from_json

    model = make_baseline(EVAL_MODEL, seed=0)
    errors = []
    for op in ops:
        if op.kind != "eval" or not op.ok:
            continue
        request = eval_request_from_json(op.body)
        reference = run_eval(model, request.cases, request.config)
        if reference.to_json().encode("utf-8") != op.data:
            errors.append(f"{op.rid}: HTTP eval body differs from the "
                          f"in-process run_eval")
    return errors


# -- workloads -----------------------------------------------------------------


def _solve_metrics(solves: List[Op], limit_ms: float, quantile: float
                   ) -> Tuple[Dict[str, float], Dict[str, tuple]]:
    """Paced-solve latency metrics, gated and printed.

    The gated central latency is the median over *repeat* solves (the
    cached path: edge, codecs, queue, batch window, cache).  With half
    the stream repeating, the all-solve median sits exactly on the edge
    between the cached and the computed population and swings by 30%
    between runs of identical inputs, so it is printed, not gated; the
    tail is gated as the share within ``limit_ms``, which is an
    average over every scheduled solve and far steadier than a
    percentile of ~200 samples.
    """
    ok = [op for op in solves if op.ok]
    if not any(op.repeat for op in ok) or not any(not op.repeat for op in ok):
        raise BenchError("no repeat or no first-time solve succeeded")
    every = [op.latency_ms for op in ok]
    repeat = [op.latency_ms for op in ok if op.repeat]
    cold = [op.latency_ms for op in ok if not op.repeat]
    within = sum(op.ok and op.latency_ms <= limit_ms for op in solves)
    metrics = {"latency_ms": percentile(repeat, quantile),
               "slo_share": within / len(solves)}
    named = {"solve_p50_ms": (percentile(every, 0.50), "ms", len(every)),
             "solve_p95_ms": (percentile(every, 0.95), "ms", len(every)),
             "solve_repeat_p50_ms": (percentile(repeat, 0.50), "ms",
                                     len(repeat)),
             "solve_repeat_p25_ms": (percentile(repeat, 0.25), "ms",
                                     len(repeat)),
             "solve_first_p50_ms": (percentile(cold, 0.50), "ms", len(cold)),
             "solve_slo_share": (metrics["slo_share"], "ratio", len(solves))}
    return metrics, named


def _edge_ms(ops: List[Op], server_report: dict) -> List[float]:
    requests = server_report["trace"]["requests"]
    edges = []
    for op in ops:
        seen = requests.get(op.rid)
        if op.ok and op.kind == "solve" and seen:
            edges.append(op.rtt_ms - (seen[2] - seen[1]) * 1000.0)
    return edges


def _serve_pass(args, trace: bool, mix: bool, inputs: dict) -> dict:
    """One measured pass of a serving workload against a fresh server."""
    spans_out = str(OUT / f"{args.workload}-s{args.seed}.spans.jsonl") \
        if trace else ""
    server, up_s = _start_server(trace=trace, store=mix,
                                 model=EVAL_MODEL if mix else "",
                                 spans_out=spans_out)
    try:
        paced = inputs["paced"]
        paced_s = _drive(server.port, paced, paced=True)
        sat = inputs.get("sat", [])
        sat_s = _drive(server.port, sat, paced=False) if sat else 0.0
        _, statsz = server.get("/statsz")
    finally:
        report = server.stop()
    return {"up_s": up_s, "paced_s": paced_s, "sat_s": sat_s,
            "statsz": json.loads(statsz), "server": report,
            "paced": paced, "sat": sat}


def _fresh_ops(ops: List[Op]) -> List[Op]:
    return [Op(op.kind, op.path, op.body, op.rid, op.key, op.due, op.repeat)
            for op in ops]


def serving_workload(args, mix: bool) -> dict:
    seconds = float(args.seconds)
    setup_started = time.perf_counter()
    paced_s = seconds if mix else seconds * (1.0 - SAT_SHARE)
    schedule = paced_schedule(PACED_RATE, paced_s,
                              EVAL_PERIOD_S if mix else None, EVAL_QUIET_S)
    n_paced = sum(kind == "solve" for _, kind in schedule)
    paced_solves, paced_mix = _solve_ops(args.seed, args.library_seed,
                                         n_paced, "p")
    solves = iter(paced_solves)
    paced: List[Op] = []
    cases = None
    if mix:  # imported here: the program's modules load after the CLI check
        from repro.corpus.human import build_human_cases
        from repro.eval import EvalConfig
        from repro.serve import EvalRequest
        from repro.serve.codecs import eval_request_to_json

        cases = build_human_cases()

    def eval_op(seed: int, rid: str) -> Op:
        request = EvalRequest(EVAL_MODEL, cases, request_id=rid, config=EvalConfig(
            n_samples=EVAL_SAMPLES, seed=seed, semantic_check=True))
        return Op("eval", "/v1/eval",
                  eval_request_to_json(request).encode("utf-8"),
                  request.request_id, request.cache_key())

    # Eval seeds are distinct per eval (no memo hits) but the same in
    # every run: eval cost varies ~20% with the sampling seed.
    for k, (due, kind) in enumerate(schedule):
        op = (next(solves) if kind == "solve"
              else eval_op(args.library_seed * 1000 + k, f"e{k:05d}"))
        op.due = due
        paced.append(op)
    sat: List[Op] = []
    sat_mix: Dict[str, int] = {}
    if not mix:
        n_sat = int(round(seconds * SAT_SHARE * SAT_NOMINAL_RPS))
        sat, sat_mix = _solve_ops(args.seed, args.library_seed, n_sat, "s",
                                  frozenset(op.key for op in paced_solves))
    inputs = {"paced": paced, "sat": sat}
    inputs_s = time.perf_counter() - setup_started

    passes = [_serve_pass(args, False, mix, inputs)]
    if args.trace:
        passes.append(_serve_pass(
            args, True, mix, {k: _fresh_ops(v) for k, v in inputs.items()}))

    # Everything below is outside the timed phases.
    errors: List[str] = []
    datagen_traced = None
    if not mix:
        errors, _ = _datagen_gate(args.seed)
        if args.trace:
            datagen_traced = _datagen_run(
                args.library_seed, trace=True,
                n_designs=TRACED_DATAGEN_DESIGNS)
    paced_keys = [op.key for op in paced if op.kind == "solve"]
    record = {"inputs": {
        "digest": _digest(paced + sat),
        "paced_solves": len(paced_keys),
        "paced_evals": len(paced) - len(paced_keys),
        "paced_repeat_share": repeat_share(paced_keys),
        "paced_families": paced_mix,
        "sat_solves": len(sat),
        "sat_repeat_share": repeat_share([op.key for op in sat],
                                         seen=set(paced_keys)),
        "sat_families": sat_mix}}
    results = []
    for measured in passes:
        ops = measured["paced"] + measured["sat"]
        errors += _gate_solves([op for op in measured["paced"]
                                if op.kind == "solve"])
        errors += _gate_solves(measured["sat"])
        if mix:
            errors += _gate_evals(measured["paced"])
        solves = [op for op in measured["paced"] if op.kind == "solve"]
        latency, named = _solve_metrics(
            solves, MIX_SLO_MS if mix else SOLVE_SLO_MS, 0.25 if mix else 0.5)
        metrics = {"setup_s": inputs_s + measured["up_s"], **latency,
                   "peak_rss_mb": measured["server"]["peak_rss_mb"]}
        evals = [op for op in measured["paced"] if op.kind == "eval"]
        named = {"setup_s": (metrics["setup_s"], "s", SETUP_REPEATS),
                 "setup_inputs_s": (inputs_s, "s", 1),
                 "setup_server_s": (measured["up_s"], "s", SETUP_REPEATS),
                 **named}
        if mix:
            eval_lat = [op.latency_ms for op in evals if op.ok]
            if not eval_lat:
                raise BenchError("no eval succeeded")
            done = sum(op.ok for op in measured["paced"])
            metrics["throughput_per_s"] = done / measured["paced_s"]
            named["eval_mean_ms"] = (sum(eval_lat) / len(eval_lat), "ms",
                                     len(eval_lat))
            named["eval_p50_ms"] = (percentile(eval_lat, 0.5), "ms",
                                    len(eval_lat))
            named["paced_ops_per_s"] = (metrics["throughput_per_s"], "1/s",
                                        done)
        else:
            sat_ok = sum(op.ok for op in measured["sat"])
            metrics["throughput_per_s"] = sat_ok / measured["sat_s"]
            named["solve_sat_rps"] = (metrics["throughput_per_s"], "req/s",
                                      sat_ok)
        attempted = len(ops)
        failed = sum(not op.ok for op in ops)
        named["failed_share"] = (failed / attempted, "ratio", attempted)
        named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", 1)
        stats = measured["statsz"]
        results.append({
            "metrics": metrics, "named": named,
            "attempted": attempted, "failed": failed,
            "phases": [_phase_summary("paced", measured["paced"])]
            + ([_phase_summary("saturation", measured["sat"])]
               if measured["sat"] else []),
            "program": {
                "service": {k: stats["service"][k] for k in (
                    "batches", "mean_batch", "deduped", "cache_hits",
                    "cache_misses", "solved", "evals", "eval_memo_hits")},
                "solve_profile": stats["solve_profile"],
                "compile_cache": measured["server"]["compile_cache"],
                "store": stats["store"]},
            "server": measured["server"],
            "solve_latency_ms": [round(op.latency_ms, 2) for op in solves],
            "solve_repeat": [op.repeat for op in solves],
            "evals": [{"latency_ms": op.latency_ms, "rtt_ms": op.rtt_ms,
                       "late_ms": op.late_ms} for op in evals],
            "cpu_s": measured["server"]["cpu_s"],
            "ops": ops, "paced_ops": measured["paced"]})
    return {"record": record, "errors": errors, "passes": results,
            "datagen_traced": datagen_traced}


def _datagen_run(seed: int, trace: bool = False, n_designs: int = 0,
                 sim_mode: str = "compiled") -> dict:
    started = time.perf_counter()
    spans_out = str(OUT / f"datagen_cold-s{seed}.spans.jsonl") \
        if trace else ""
    proc = _spawn("datagen", "--seed", str(seed), "--trace", str(int(trace)),
                  "--n-designs", str(n_designs), "--sim-mode", sim_mode,
                  "--spans-out", spans_out)
    _read_json_line(proc)
    ready_s = time.perf_counter() - started
    report = _finish(proc)
    report["ready_s"] = ready_s
    return report


def _datagen_gate(seed: int) -> Tuple[List[str], List[dict]]:
    """The fingerprint gate, outside any timed phase: on a small corpus
    drawn from ``seed``, compiled == compiled == interp."""
    small = [_datagen_run(seed, n_designs=GATE_DESIGNS, sim_mode=mode)
             for mode in ("compiled", "compiled", "interp")]
    if len({r["fingerprint"] for r in small}) == 1:
        return [], small
    return [f"{GATE_DESIGNS}-design fingerprints differ across compiled, "
            f"compiled, interp: {[r['fingerprint'][:12] for r in small]}"
            ], small


def datagen_workload(args) -> dict:
    runs: List[dict] = []
    started = time.perf_counter()
    while not runs or (time.perf_counter() - started + runs[-1]["ready_s"]
                       + runs[-1]["wall_s"] <= args.seconds):
        runs.append(_datagen_run(args.library_seed))
    passes = [runs]
    if args.trace:
        passes.append([_datagen_run(args.library_seed, trace=True)])
    errors, small = _datagen_gate(args.seed)
    for runs in passes:
        if len({r["fingerprint"] for r in passes[0] + runs}) != 1:
            errors.append("fingerprints differ across runs of one seed")
    results = []
    for runs in passes:
        walls = [r["wall_s"] for r in runs]
        designs = sum(r["n_designs"] for r in runs)
        # Every process of the run, gate ones included, is a set-up.
        setups = [r["ready_s"] for r in runs + small]
        metrics = {"setup_s": median(setups),
                   "latency_ms": median(walls) * 1000.0,
                   "throughput_per_s": designs / sum(walls),
                   "slo_share": sum(w <= DATAGEN_SLO_S for w in walls)
                   / len(walls),
                   "peak_rss_mb": median(r["peak_rss_mb"] for r in runs)}
        named = {
            "setup_s": (metrics["setup_s"], "s", len(setups)),
            "datagen_run_ms": (metrics["latency_ms"], "ms", len(runs)),
            "datagen_designs_per_s": (metrics["throughput_per_s"],
                                      "designs/s", designs),
            "failed_share": (0.0, "ratio", len(runs)),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB", len(runs))}
        last = runs[-1]
        results.append({
            "metrics": metrics, "named": named,
            "attempted": len(runs), "failed": 0,
            "phases": [{"phase": "runs", "attempted": len(runs),
                        "ok": len(runs), "failed": 0}],
            "program": {k: last[k] for k in (
                "compile_cache", "solve_profile", "engine_stages")},
            "server": last, "cpu_s": sum(r["cpu_s"] for r in runs) / designs,
            "run_walls_s": walls,
            "ops": [], "paced_ops": []})
    record = {"inputs": {
        "digest": hashlib.sha256(
            f"DatagenConfig(seed={args.library_seed})".encode()).hexdigest(),
        "fingerprint": passes[0][0]["fingerprint"],
        "families": passes[0][0]["corpus_families"],
        "gate_fingerprints": [r["fingerprint"] for r in small]}}
    return {"record": record, "errors": errors, "passes": results}


# -- traced-run reporting ------------------------------------------------------


#: End-to-end metrics and their units (see the module docstring).
END_TO_END = {"setup_s": "s", "latency_ms": "ms", "slo_share": "ratio",
              "throughput_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics of a traced run: unit and which direction is better.
#: A layer that does not run on a workload reports 0 there.
PER_LAYER = {
    "serve.edge_ms.p50": ("ms", "lower"),
    "serve.codec_ms.total": ("ms", "lower"),
    "serve.queue_wait_ms.p50": ("ms", "lower"),
    "serve.queue_wait_ms.p95": ("ms", "lower"),
    "serve.batch_size.mean": ("items", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.cache_hit_share": ("ratio", "higher"),
    "serve.solve_task.count": ("count", "lower"),
    "serve.solve_task_ms.p50": ("ms", "lower"),
    "serve.solve_task_ms.p95": ("ms", "lower"),
    "serve.solve_task_ms.total": ("ms", "lower"),
    "engine.map_ms.self": ("ms", "lower"),
    "verilog.compile.count": ("count", "lower"),
    "verilog.compile_ms.total": ("ms", "lower"),
    "verilog.compile_cache_hit_share": ("ratio", "higher"),
    "oracles.sva_propose_ms.total": ("ms", "lower"),
    "oracles.cot_ms.total": ("ms", "lower"),
    "sva.bmc_batch.count": ("count", "lower"),
    "sva.bmc_batch_ms.total": ("ms", "lower"),
    "sva.bmc_batch.stimuli_per_call": ("items", "lower"),
    "sva.bmc.count": ("count", "lower"),
    "sva.bmc_ms.total": ("ms", "lower"),
    "sva.bmc.stimuli_per_call": ("items", "lower"),
    "sva.validate_accept_share": ("ratio", "higher"),
    "sim.runs": ("count", "lower"),
    "sim.simulate_ms.total": ("ms", "lower"),
    "sva.monitor_ms.total": ("ms", "lower"),
    "sim.compile_program_ms.total": ("ms", "lower"),
    "bugs.inject_ms.total": ("ms", "lower"),
    "datagen.bug_yield_share": ("ratio", "higher"),
    "datagen.stage_ms.corpus": ("ms", "lower"),
    "datagen.stage_ms.stage1": ("ms", "lower"),
    "datagen.stage_ms.stage2": ("ms", "lower"),
    "datagen.stage_ms.stage3": ("ms", "lower"),
    "eval.run_ms.p50": ("ms", "lower"),
    "eval.semantic_check.count": ("count", "lower"),
    "eval.semantic_check_ms.total": ("ms", "lower"),
    "eval.memo_hit_share": ("ratio", "higher"),
    "baselines.generate_ms.total": ("ms", "lower"),
    "store.put.count": ("count", "lower"),
    "store.put_ms.total": ("ms", "lower"),
    "store.get.count": ("count", "lower"),
    "store.get_ms.total": ("ms", "lower"),
    "loadgen.late_ms.p95": ("ms", "lower"),
    "loadgen.late_ms.max": ("ms", "lower"),
    "loadgen.repeat_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.root_wall_ms": ("ms", "lower"),
    "trace.unaccounted_ms": ("ms", "lower"),
    "trace.accounting_gap_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    # The program's own counters, as counts.  bmc_us includes
    # simulate_us and monitor_us.
    "program.service.batches": ("count", "lower"),
    "program.service.mean_batch": ("items", "higher"),
    "program.service.deduped": ("count", "higher"),
    "program.service.cache_hits": ("count", "higher"),
    "program.solve_profile.bmc_us": ("count", "lower"),
    "program.solve_profile.simulate_us": ("count", "lower"),
    "program.solve_profile.monitor_us": ("count", "lower"),
    "program.solve_profile.compile_program_us": ("count", "lower"),
    "program.compile_cache.hits": ("count", "higher"),
    "program.compile_cache.misses": ("count", "lower"),
}


#: The layers only the datagen path runs: zero at the ``solve_http``
#: server, whose traced run reports them from one traced cold datagen run.
DATAGEN_LAYERS = (
    "bugs.inject_ms.total", "datagen.bug_yield_share",
    "datagen.stage_ms.corpus", "datagen.stage_ms.stage1",
    "datagen.stage_ms.stage2", "datagen.stage_ms.stage3",
    "oracles.cot_ms.total", "sva.bmc.count", "sva.bmc_ms.total",
    "sva.bmc.stimuli_per_call")


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of the traced pass."""
    trace = traced["server"]["trace"]
    layers = dict(trace["layers"])
    layers.setdefault("datagen.bug_yield_share", 0.0)
    ops = traced["ops"]
    paced = traced["paced_ops"]
    late = [op.late_ms for op in paced]
    layers["loadgen.late_ms.p95"] = percentile(late, 0.95) if late else 0.0
    layers["loadgen.late_ms.max"] = max(late) if late else 0.0
    layers["loadgen.repeat_share"] = repeat_share(
        [op.key for op in paced if op.kind == "solve"])
    edges = _edge_ms(ops, traced["server"]) if ops else []
    layers["serve.edge_ms.p50"] = percentile(edges, 0.5) if edges else 0.0
    # Tracing overhead: extra CPU time the working process spent on the
    # same inputs (per design for datagen, whose run counts may differ).
    layers["trace.overhead_share"] = (
        traced["cpu_s"] / untraced["cpu_s"] - 1.0)
    accounting = trace["accounting"]
    layers["trace.root_wall_ms"] = accounting["root_wall_ms"]
    layers["trace.unaccounted_ms"] = accounting["unaccounted_ms"]
    layers["trace.accounting_gap_ms"] = accounting["gap_ms"]
    program = traced["program"]
    for group, keys in (("service", ("batches", "mean_batch", "deduped",
                                     "cache_hits")),
                        ("solve_profile", ("bmc_us", "simulate_us",
                                           "monitor_us",
                                           "compile_program_us")),
                        ("compile_cache", ("hits", "misses"))):
        for key in keys:
            layers[f"program.{group}.{key}"] = program.get(
                group, {}).get(key, 0)
    if set(layers) != set(PER_LAYER):
        raise BenchError(f"per-layer metrics drifted from PER_LAYER: "
                         f"{sorted(set(layers) ^ set(PER_LAYER))}")
    return layers


# -- main ----------------------------------------------------------------------


def _print_report(workload: str, result: dict, label: str) -> None:
    print(f"[{workload}] {label} pass")
    for phase in result["phases"]:
        print("  phase " + " ".join(f"{k}={v}" for k, v in phase.items()
                                    if k != "phase") + f"  ({phase['phase']})")
    for name, (value, unit, count) in result["named"].items():
        print(f"  {name:<24} {value:>12.4f} {unit:<10} n={count}")
    print("  program counters (counts; solve_profile bmc_us includes "
          "simulate_us + monitor_us):")
    for name, value in result["program"].items():
        print(f"    {name}: {json.dumps(value, sort_keys=True)}")


def _print_accounting(label: str, accounting: dict, errors: List[str]
                      ) -> None:
    print(f"  {label}layer accounting, self ms: " + ", ".join(
        f"{k}={v}" for k, v in accounting["layers_ms"].items()))
    print(f"  unaccounted={accounting['unaccounted_ms']} ms; layers + "
          f"unaccounted = root wall {accounting['root_wall_ms']} ms "
          f"within {accounting['gap_ms']} ms "
          f"(bound {accounting['bound_ms']} ms)")
    if not accounting["closes"]:
        errors.append(f"{label}layer accounting does not close")


WORKLOADS = ("solve_http", "solve_eval_mix", "datagen_cold")


def run_workload(args, workload: str) -> dict:
    """Measure one workload, print its report, write its record and
    return the result object (raises :class:`BenchError`)."""
    args.workload = workload
    before = host_facts(str(ROOT))
    outcome = (datagen_workload(args) if workload == "datagen_cold"
               else serving_workload(args, workload == "solve_eval_mix"))
    after = host_facts(str(ROOT))
    untraced = outcome["passes"][0]
    print(f"[{workload}] seed={args.seed} library_seed={args.library_seed} "
          f"seconds={args.seconds} commit={before['commit'][:12]} "
          f"nproc={before['nproc']} python={before['python']} "
          f"loadavg before={before['loadavg']} after={after['loadavg']}")
    _print_report(workload, untraced, "untraced")
    result = {"correct": True, "attempted": untraced["attempted"],
              "failed": untraced["failed"],
              "metrics": {name: {"value": untraced["metrics"][name],
                                 "unit": unit}
                          for name, unit in END_TO_END.items()}}
    record = {"workload": workload, "seed": args.seed,
              "library_seed": args.library_seed, "seconds": args.seconds,
              "trace": args.trace, "host_before": before, "host_after": after,
              **outcome["record"],
              "untraced": {k: v for k, v in untraced.items()
                           if not k.endswith("ops")}}
    if args.trace:
        traced = outcome["passes"][1]
        _print_report(workload, traced, "traced")
        layers = per_layer(untraced, traced)
        _print_accounting("", traced["server"]["trace"]["accounting"],
                          outcome["errors"])
        print(f"  tracing overhead (extra CPU, same inputs)="
              f"{layers['trace.overhead_share']:.4f}")
        datagen = outcome.get("datagen_traced")
        if datagen is not None:
            print(f"  {', '.join(DATAGEN_LAYERS)} from one traced "
                  f"{datagen['n_designs']}-design cold datagen run "
                  f"({datagen['wall_s']:.3f} s)")
            _print_accounting("datagen ", datagen["trace"]["accounting"],
                              outcome["errors"])
            layers.update((name, datagen["trace"]["layers"][name])
                          for name in DATAGEN_LAYERS)
            record["datagen_traced"] = datagen
        result.update(attempted=traced["attempted"], failed=traced["failed"],
                      metrics={name: {"value": layers[name], "unit": unit}
                               for name, (unit, _) in PER_LAYER.items()})
        record["traced"] = {k: v for k, v in traced.items()
                            if not k.endswith("ops")}
        record["per_layer"] = layers
    for error in outcome["errors"]:
        print(f"  CORRECTNESS FAILURE: {error}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={not outcome['errors']}")
    result["correct"] = not outcome["errors"]
    record["errors"] = outcome["errors"]
    (OUT / f"{workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmark workloads and print their metrics; the "
                    "last output line is the JSON result.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--library-seed", type=int, default=LIBRARY_SEED,
                        help="design library / datagen seed; change it for "
                             "a held-out run")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    def watchdog(_signum, _frame):
        raise BenchError(f"run exceeded {WATCHDOG_S}s")

    signal.signal(signal.SIGALRM, watchdog)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        signal.alarm(WATCHDOG_S)
        try:
            results[workload] = run_workload(args, workload)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
        finally:
            signal.alarm(0)
            _kill_children()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{name}": value
                              for w, r in results.items()
                              for name, value in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

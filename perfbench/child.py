"""Child-process entry points: the program under test runs here.

``server`` starts a default-config :class:`AssertHttpServer` on an
ephemeral port, prints ``{"port": N}`` and serves until its standard
input closes; ``datagen`` prints ``{"ready": true}`` once imported, runs
one :func:`run_pipeline` and exits.  Either way the last line on
standard output is a JSON report: peak RSS, the program's own counters
and, with ``--trace 1``, the per-layer summary of the spans recorded
around the program's public entry points (installed before any work).

Run by ``run.py``; standalone: ``PYTHONPATH=src python3
perfbench/child.py server --trace 0`` (close stdin to stop it).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time

from measure import peak_rss_mb


def _say(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _tracing(enabled: bool):
    if not enabled:
        return None
    import tracer

    recorder = tracer.Tracer()
    tracer.install(recorder)
    return recorder


def _counters():
    from repro.engine.metrics import profile_counters
    from repro.verilog.compile import compile_cache_counters

    return {"solve_profile": profile_counters(),
            "compile_cache": compile_cache_counters()}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _delta(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _trace_report(recorder, profile, compiled, spans_out):
    import tracer

    if spans_out:
        recorder.dump(spans_out)
    return {"layers": tracer.layer_metrics(recorder, profile, compiled),
            "accounting": tracer.layer_accounting(recorder.spans),
            "requests": recorder.requests}


def serve(args) -> None:
    recorder = _tracing(args.trace)
    from repro.baselines.engine import make_baseline
    from repro.serve import AssertHttpServer, AssertService, ServeConfig
    from repro.store import StoreConfig

    with tempfile.TemporaryDirectory(prefix="store-",
                                     dir=args.scratch) as store_dir:
        config = (ServeConfig(store=StoreConfig(path=store_dir))
                  if args.store else ServeConfig())
        service = AssertService(config)
        if args.model:
            service.register_model(args.model, make_baseline(args.model,
                                                             seed=0))
        server = AssertHttpServer(service)
        server.start()
        try:
            # After start(): the service installs its own compile cache.
            before = _counters()
            _say({"port": server.port})
            sys.stdin.read()  # serve until the parent closes our stdin
            # Before close(): it restores the previous compile cache.
            after = _counters()
        finally:
            server.close()
        report = {"peak_rss_mb": peak_rss_mb(), "cpu_s": _cpu_s(), **after}
        if recorder is not None:
            report["trace"] = _trace_report(
                recorder,
                _delta(before["solve_profile"], after["solve_profile"]),
                _delta(before["compile_cache"], after["compile_cache"]),
                args.spans_out)
    _say(report)


def datagen(args) -> None:
    recorder = _tracing(args.trace)
    import repro.datagen.pipeline as pipeline

    config = pipeline.DatagenConfig(seed=args.seed, sim_mode=args.sim_mode,
                                    **({"n_designs": args.n_designs}
                                       if args.n_designs else {}))
    _say({"ready": True})
    started, cpu_before = time.perf_counter(), _cpu_s()
    bundle = pipeline.run_pipeline(config)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    entries = len(bundle.sva_bug_train) + len(bundle.sva_eval_machine)
    report = {"wall_s": wall_s, "cpu_s": cpu_s, "n_designs": config.n_designs,
              "fingerprint": bundle.fingerprint(),
              "peak_rss_mb": peak_rss_mb(),
              "sva_bug_entries": entries,
              "corpus_families": bundle.stats["corpus_families"],
              "compile_cache": bundle.stats["compile_cache"],
              "solve_profile": bundle.stats["solve_profile"],
              "engine_stages": bundle.stats["engine"]["stages"]}
    if recorder is not None:
        # run_pipeline installs and then restores its own compile
        # cache, so its counters come from the bundle's stats.
        report["trace"] = _trace_report(
            recorder, bundle.stats["solve_profile"],
            bundle.stats["compile_cache"], args.spans_out)
        injected = recorder.counts["bugs.injected"]
        report["trace"]["layers"]["datagen.bug_yield_share"] = (
            entries / injected if injected else 0.0)
    _say(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("server", "datagen"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--scratch", default=None,
                        help="directory for the server's store")
    parser.add_argument("--store", type=int, choices=(0, 1), default=0)
    parser.add_argument("--model", default="")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--n-designs", type=int, default=0,
                        help="0 keeps the shipped default")
    parser.add_argument("--sim-mode", default="compiled")
    args = parser.parse_args()
    (serve if args.mode == "server" else datagen)(args)


if __name__ == "__main__":
    main()

"""Counter providers sampled around engine work units.

Subsystems with process-local monotonic counters (e.g. the compile cache)
register a provider here at import time.  The engine snapshots all
providers before and after each unit, ships the per-unit delta back from
the worker with the unit's result, and accumulates the deltas in the
parent process — the only way to surface worker-side counters when units
run in a process pool.

Deltas are exact under the process backend (units run sequentially
within each worker).  The in-process backends (serial and thread)
snapshot process-global counters, so a unit's window also sees whatever
another thread increments meanwhile: interleaved thread-backend units,
or a concurrent serving lane (a service runs its solve and eval lanes
on two threads) whose increments are credited to whichever unit's
window they fall in.  Aggregated engine totals are an upper bound
there.  The providers' own cumulative counters (e.g. ``/statsz``
``solve_profile``, read straight from :func:`profile_counters`) are
process-global and stay exact.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict

from repro.obs import trace as obs_trace

Counters = Dict[str, int]

_PROVIDERS: Dict[str, Callable[[], Counters]] = {}


def register_provider(name: str, fn: Callable[[], Counters]) -> None:
    """Register (or replace) a named counter provider."""
    _PROVIDERS[name] = fn


def snapshot() -> Dict[str, Counters]:
    return {name: dict(fn()) for name, fn in _PROVIDERS.items()}


def delta(before: Dict[str, Counters],
          after: Dict[str, Counters]) -> Dict[str, Counters]:
    """Per-provider counter increments between two snapshots."""
    out: Dict[str, Counters] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        diff = {key: value - base.get(key, 0)
                for key, value in counters.items()
                if value - base.get(key, 0)}
        if diff:
            out[name] = diff
    return out


def accumulate(total: Dict[str, Counters],
               increment: Dict[str, Counters]) -> None:
    """Sum ``increment`` into ``total`` in place."""
    for name, counters in increment.items():
        bucket = total.setdefault(name, {})
        for key, value in counters.items():
            bucket[key] = bucket.get(key, 0) + value


# -- solve-phase wall-clock profile -------------------------------------------
#
# The solve hot path (program compilation, simulation, SVA monitoring, the
# BMC driver around them) reports per-phase wall time here.  Times are kept
# as integer microseconds so the provider fits the ``Counters`` contract:
# monotonic ints whose deltas the engine can ship back from workers and
# accumulate, exactly like the compile-cache counters.

_PROFILE: Dict[str, int] = {}
_PROFILE_LOCK = threading.Lock()


def add_time(phase: str, seconds: float) -> None:
    """Charge ``seconds`` of wall time to ``phase`` (``<phase>_us`` counter).

    When a trace is active the same measurement is also recorded as a
    ``solve.<phase>`` child span (see
    :func:`repro.obs.trace.record_phase`), so ``/tracez`` attributes a
    slow request's time to compile/simulate/monitor/bmc without a
    second timer in the hot path.
    """
    micros = int(seconds * 1_000_000)
    if micros <= 0:
        return
    key = f"{phase}_us"
    with _PROFILE_LOCK:
        _PROFILE[key] = _PROFILE.get(key, 0) + micros
    obs_trace.record_phase(phase, seconds)


def profile_counters() -> Counters:
    """Metrics provider: cumulative per-phase solve times (microseconds)."""
    with _PROFILE_LOCK:
        return dict(_PROFILE)


register_provider("solve_profile", profile_counters)

"""Pure measurement helpers shared by the benchmark and its child processes.

Nothing here imports the program under test: percentiles, span
self-time, the open-loop schedule and host facts are benchmark
machinery, tested on their own by ``test_perfbench.py``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``.

    The smallest value with at least ``q`` of the sample at or below it,
    so p95 of 100 samples is the 95th smallest.  Raises on an empty
    sample: a latency figure with no requests behind it is a bug.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    """Midpoint median (mean of the two middle values for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[int, Optional[int], float, float]]
               ) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    ``spans`` are ``(span_id, parent_id, start, end)``.  Child intervals
    are clipped to the parent's and merged first, so overlapping children
    are not subtracted twice and the self times of a tree sum exactly to
    its root's duration.
    """
    bounds = {sid: (start, end) for sid, _parent, start, end in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, start, end in spans:
        if parent is None or parent not in bounds:
            continue
        p_start, p_end = bounds[parent]
        children.setdefault(parent, []).append(
            (max(start, p_start), min(end, p_end)))
    return {sid: (end - start) - union_length(children.get(sid, ()))
            for sid, (start, end) in bounds.items()}


def paced_schedule(rate_per_s: float, duration_s: float,
                   eval_period_s: Optional[float] = None,
                   quiet_s: float = 0.0) -> List[Tuple[float, str]]:
    """The open-loop send schedule: ``(due_offset_s, kind)`` in due order.

    Solves are due every ``1 / rate_per_s`` seconds from 0; with an
    ``eval_period_s``, one eval is due in the middle of every whole
    period, and no solve is due in the ``quiet_s`` before it.  The
    schedule is fixed before the run starts and never
    depends on how fast the server answers, which is what makes the loop
    open: a stall delays later sends, and their latency is counted from
    these due times, not from when they went out.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be > 0")
    evals = ([(k + 0.5) * eval_period_s
              for k in range(int(duration_s // eval_period_s))]
             if eval_period_s else [])
    schedule = [(due, "solve") for due in
                (i / rate_per_s
                 for i in range(int(round(rate_per_s * duration_s))))
                if not any(e - quiet_s <= due < e for e in evals)]
    schedule += [(due, "eval") for due in evals]
    # Stable on ties: a solve due at the same instant as an eval goes first.
    return sorted(schedule, key=lambda item: (item[0], item[1] != "solve"))


def repeat_share(keys: Sequence[str], seen: Optional[set] = None) -> float:
    """Share of ``keys`` equal to one before it (or already in ``seen``)."""
    if not keys:
        return 0.0
    seen = set() if seen is None else set(seen)
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts(root: str) -> Dict[str, object]:
    """Commit, CPU count, Python version and load average, recorded
    before and after each run so a noisy run can be spotted."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the benchmark may run from an export that is no git checkout
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}

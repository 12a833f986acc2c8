"""Pure aggregation used by the benchmark: percentiles, node counts, verdict
shares, ratios, and per-span self times. No numpy and no reluverify import, so
the self-tests exercise it on synthetic inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SAFE = "Safe"
UNSAFE = "Unsafe"

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Run:
    """One (instance, heuristic) verification as the benchmark saw it."""

    instance: str
    heuristic: str
    verdict: str
    branches: int
    seconds: float
    unknown_reason: Optional[str] = None
    error: Optional[str] = None


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile: no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reportable(n_samples: int, q: float) -> bool:
    """True when at least MIN_SAMPLES_BEYOND of n_samples lie above the q-th percentile."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def count_nodes(runs: Sequence[Run]) -> int:
    """Search nodes: every branch plus the root, which RunStats does not count."""
    return sum(r.branches + 1 for r in runs)


def solved_pct(runs: Sequence[Run]) -> float:
    """Share of runs that ended Safe or Unsafe, in percent (0 for no runs)."""
    return 100.0 * sum(r.verdict in (SAFE, UNSAFE) for r in runs) / len(runs) if runs else 0.0


def ratio(numerator: float, base: float) -> float:
    """numerator / base; 0 when the base is 0 (nothing attempted, nothing wasted)."""
    return numerator / base if base else 0.0


def scaled_seconds(
    t0: float,
    t1: float,
    marks: Sequence[Tuple[float, float, float]],
    kernel_before: float,
    kernel_after: float,
    kernel_ref: float,
) -> Tuple[float, float]:
    """Time in [t0, t1] outside the calibrations run inside it, as measured and
    rescaled to reference speed.

    marks are (start, end, kernel seconds) of those calibrations, in order.
    Each stretch between two calibrations is multiplied by kernel_ref over the
    mean kernel time of the calibrations bounding it; kernel_before and
    kernel_after bound the first and last stretch.
    """
    edges = [(t0, t0, kernel_before), *marks, (t1, t1, kernel_after)]
    raw = scaled = 0.0
    for (_, a, ka), (b, _, kb) in zip(edges, edges[1:]):
        raw += b - a
        scaled += (b - a) * kernel_ref / (0.5 * (ka + kb))
    return raw, scaled


def run_signature(runs: Sequence[Run]) -> List[tuple]:
    """The deterministic part of a pass: (instance, heuristic, verdict, branches)."""
    return sorted((r.instance, r.heuristic, r.verdict, r.branches) for r in runs)


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def span_totals(
    names: Sequence[str],
    name_ids: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> Dict[str, SpanTotals]:
    """Calls, self time and total time per span name.

    Span i has name names[name_ids[i]] and parent span parents[i] (-1 for a
    root). Self time is the span's duration minus its children's durations;
    total time sums durations of spans with no ancestor of the same name, so
    recursion is not counted twice.
    """
    out = {name: SpanTotals() for name in names}
    child_s = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child_s[p] += ends[i] - starts[i]
    for i, nid in enumerate(name_ids):
        t = out[names[nid]]
        dur = ends[i] - starts[i]
        t.calls += 1
        t.self_s += dur - child_s[i]
        if not has_ancestor(parents, name_ids, i, nid):
            t.total_s += dur
    return out


def has_ancestor(parents: Sequence[int], name_ids: Sequence[int], i: int, nid: int) -> bool:
    """True when some ancestor of span i has name id nid."""
    p = parents[i]
    while p >= 0:
        if name_ids[p] == nid:
            return True
        p = parents[p]
    return False


def count_under(
    parents: Sequence[int], name_ids: Sequence[int], nid: int, ancestor_nid: int
) -> int:
    """Number of spans named nid that have an ancestor named ancestor_nid."""
    return sum(
        1
        for i, n in enumerate(name_ids)
        if n == nid and has_ancestor(parents, name_ids, i, ancestor_nid)
    )

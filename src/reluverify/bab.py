"""Worklist-driven branch-and-bound over ReLU sub-domains.

Each popped sub-domain goes through four phases: bound the margin with the
convex relaxation, prune if the bound clears zero, otherwise evaluate the
bound's box minimizer on the concrete network (a violation ends the search as
Unsafe), and finally split on the neuron the heuristic blames for the spurious
witness. A split lives only in its clamp: each child's pre-activation interval
of the split neuron starts (+1) or ends (-1) at zero, and every later bound
pass intersects with it. Input bisection restores completeness when no neuron
split is available.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import heuristics, relax, witness as witness_mod
from .model import InputError, Network, RELU, VerificationTask
from .relax import NeuronBounds, Slopes

SAFE = "Safe"
UNSAFE = "Unsafe"
UNKNOWN = "Unknown"

class InvariantError(RuntimeError):
    """A structural invariant of the search failed; the run cannot be trusted."""


@dataclass
class SubDomain:
    """A box plus pre-activation bounds, which carry every split as a clamp.

    n_splits counts the neuron splits on the path from the root, depth the
    splits plus input bisections. parent_lower_bound is the bound of the node
    that created this one (it stays valid here because the region only
    shrank) and doubles as the worklist priority.

    A child made by a split or a bisection defers its bounds: while net is
    set, bounds holds the parent's intervals (without their relaxations, and
    with the split's clamp) and neuron_bounds recomputes layers start_layer
    and later on first read. Children that are never popped are never bounded.
    """

    box_lower: np.ndarray
    box_upper: np.ndarray
    bounds: NeuronBounds
    depth: int = 0
    parent_lower_bound: float = float("-inf")
    n_splits: int = 0
    net: Optional[Network] = None
    start_layer: int = 0

    @property
    def neuron_bounds(self) -> NeuronBounds:
        if self.net is not None:
            self.bounds = relax.propagate_bounds(self.net, self.box_lower, self.box_upper,
                                                 self.bounds, self.start_layer)
            self.net = None
        return self.bounds

    @classmethod
    def child(cls, net: Network, parent: "SubDomain", box_lower: np.ndarray,
              box_upper: np.ndarray, start_layer: int,
              clamp: Optional[Tuple[int, int, int]] = None) -> "SubDomain":
        """A sub-domain of parent over the given box. clamp = (layer, neuron,
        sign) narrows that neuron to z >= 0 (+1) or z <= 0 (-1) in the child's
        own copy of the layer; ancestors' clamps hold by intersection."""
        base = parent.neuron_bounds
        lower, upper = list(base.lower), list(base.upper)
        if clamp is not None:
            layer, neuron, sign = clamp
            lower[layer], upper[layer] = lower[layer].copy(), upper[layer].copy()
            if sign > 0:
                lower[layer][neuron] = max(lower[layer][neuron], 0.0)
            else:
                upper[layer][neuron] = min(upper[layer][neuron], 0.0)
        return cls(box_lower, box_upper, NeuronBounds(lower, upper), parent.depth + 1,
                   parent.parent_lower_bound, parent.n_splits + (clamp is not None),
                   net, start_layer)


@dataclass
class RunStats:
    """Outcome of one verification run."""

    verdict: str
    branches_visited: int = 0
    splits_made: int = 0
    wall_time_s: float = 0.0
    witness: Optional[witness_mod.Witness] = None
    per_node_trace: Optional[List[dict]] = None
    gap_clamp_events: int = 0
    unknown_reason: Optional[str] = None


@dataclass
class BabConfig:
    """Search knobs; verification budgets live on the task itself."""

    alpha_iters: int = 20
    alpha_step: float = 0.25
    trace: bool = False

    def __post_init__(self):
        if self.alpha_iters < 0:
            raise InputError(f"config.alpha_iters must be non-negative, got {self.alpha_iters}")
        if not 0.0 < self.alpha_step < float("inf"):  # NaN too: no step can improve
            raise InputError(f"config.alpha_step must be finite and > 0, got {self.alpha_step}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Worklist:
    """Priority queue popping the lowest parent_lower_bound first
    (most-violated-first); insertion order breaks ties deterministically."""

    def __init__(self):
        self._heap: List[Tuple[float, int, SubDomain]] = []
        self._seq = 0

    def push(self, d: SubDomain) -> None:
        heapq.heappush(self._heap, (d.parent_lower_bound, self._seq, d))
        self._seq += 1

    def pop(self) -> Optional[SubDomain]:
        """The next feasible sub-domain, or None. Popping bounds a sub-domain;
        those whose bounds prove them empty are dropped on the way."""
        while self._heap:
            d = heapq.heappop(self._heap)[2]
            if d.neuron_bounds.is_feasible():
                return d
        return None

    def __len__(self) -> int:
        return len(self._heap)


def make_root(task: VerificationTask) -> SubDomain:
    lo, hi = task.input_lower, task.input_upper  # float64, as the task stores them
    return SubDomain(lo, hi, relax.propagate_bounds(task.network, lo, hi))


def split_subdomain(
    net: Network,
    d: SubDomain,
    layer: int,
    neuron: int,
) -> Tuple[SubDomain, SubDomain]:
    """Split a sub-domain on one unstable neuron.

    The +1 child takes z >= 0 (the boundary belongs to it), the -1 child
    z < 0. Earlier-layer bounds are reused with the new clamp applied; later
    layers are recomputed and intersected with the parent's when a child's
    bounds are first read. Children whose bounds cross are infeasible; the
    worklist drops them when popped. A neuron split before is clamped at
    zero, so it is not unstable and cannot be split again.
    """
    key = (layer, neuron)
    if net.layers[layer].activation != RELU:
        raise ValueError(f"split_subdomain: layer {layer} is not a ReLU layer")
    l = d.neuron_bounds.lower[layer][neuron]
    u = d.neuron_bounds.upper[layer][neuron]
    if not (l < 0.0 < u):
        raise ValueError(f"split_subdomain: neuron {key} with bounds [{l}, {u}] is not unstable")
    return (SubDomain.child(net, d, d.box_lower, d.box_upper, layer + 1, (layer, neuron, +1)),
            SubDomain.child(net, d, d.box_lower, d.box_upper, layer + 1, (layer, neuron, -1)))


def input_bisect(net: Network, d: SubDomain) -> Optional[Tuple[SubDomain, SubDomain]]:
    """Bisect the widest input dimension at its midpoint (lowest index on ties).

    Restores completeness when no unstable neuron is splittable. Returns
    None when the box has zero width in every dimension, which makes the leaf
    undecidable (Unknown). The halves' bounds are recomputed from the first
    layer when first read.
    """
    widths = d.box_upper - d.box_lower
    dim = int(np.argmax(widths))
    mid = 0.5 * (d.box_lower[dim] + d.box_upper[dim])
    if not (d.box_lower[dim] < mid < d.box_upper[dim]):
        return None
    lower_hi = d.box_upper.copy()
    lower_hi[dim] = mid
    upper_lo = d.box_lower.copy()
    upper_lo[dim] = mid
    return (SubDomain.child(net, d, d.box_lower.copy(), lower_hi, 0),
            SubDomain.child(net, d, upper_lo, d.box_upper.copy(), 0))


def _check_termination_measure(parent: SubDomain, child: SubDomain, split) -> None:
    # Structural termination argument: a neuron split (layer, neuron) leaves
    # it stable in the child's own, not yet propagated, bounds, which only
    # shrink via intersection, so it removes an unstable neuron for good; a
    # bisection (split None) strictly reduces the descending-sorted width tuple.
    if split is not None:
        layer, neuron = split
        if child.bounds.lower[layer][neuron] < 0.0 < child.bounds.upper[layer][neuron]:
            raise InvariantError(f"neuron split {split} left the neuron unstable in a child")
    else:
        pw = tuple(sorted(parent.box_upper - parent.box_lower, reverse=True))
        cw = tuple(sorted(child.box_upper - child.box_lower, reverse=True))
        if not cw < pw:
            raise InvariantError("input bisection did not shrink the box widths")


def _process_node(task: VerificationTask, heuristic: str, slopes: Slopes,
                  stats: RunStats, d: SubDomain,
                  results: Optional[relax.BoundResult] = None
                  ) -> Tuple[dict, Tuple[SubDomain, ...]]:
    """Run the four phases on one sub-domain, node stats.branches_visited.

    Returns its trace entry, whose "action" is pruned-safe, unsafe, split,
    bisect or stuck, and the children to queue. slopes are the root's
    optimized slopes, one row per spec row; results, when given, is the
    sub-domain's stacked bound under them (the root's, from its slope
    optimization) and is used instead of bounding again. The witness, split
    and clamp counts go into stats.
    """
    net = task.network
    C = task.spec_matrix
    entry = {
        "node": stats.branches_visited,
        "depth": d.depth,
        "parent_lower_bound": d.parent_lower_bound,
        "n_splits": d.n_splits,
    }

    # Phase 1: bound every spec row over this sub-domain, in one stacked pass.
    if results is None:
        results = relax.compute_bounds(net, C, d, slopes)
    worst_row = int(np.argmin(results.lower_bound))  # the first row on ties
    raw_lb = float(results.lower_bound[worst_row])
    # The parent's bound remains valid on this shrunken region; inheriting it
    # keeps node bounds monotone even when the clamped relaxation drifts.
    eff_lb = max(raw_lb, d.parent_lower_bound)
    entry["lower_bound"] = eff_lb
    entry["raw_lower_bound"] = raw_lb
    entry["row"] = worst_row

    # Phase 2: safety check.
    if eff_lb > 0.0:
        entry["action"] = "pruned-safe"
        return entry, ()

    # Phase 3: counterexample validation at the bound's own minimizer.
    bound = results.row(worst_row)
    wit = witness_mod.validate_witness(net, C, bound)
    entry["witness_margin"] = float(wit.concrete_margin.min())
    if wit.kind == witness_mod.CONCRETE_VIOLATION:
        stats.witness = wit
        entry["action"] = "unsafe"
        return entry, ()

    # Phase 4: refinement guided by the spurious witness. When every score of
    # the heuristic vanishes, babsr picks; when babsr's vanish too, bisect.
    row_slopes = {k: v[worst_row] for k, v in slopes.items()}
    primary = None
    for kind in dict.fromkeys((heuristic, heuristics.BABSR)):
        scores, clamps = heuristics.score_branches(
            kind, net, C[worst_row], bound, d, wit.preacts, row_slopes
        )
        stats.gap_clamp_events += clamps  # babsr never clamps: the count is the heuristic's
        if primary is None:
            primary = scores
        pick = heuristics.select_branch(scores)
        if pick is not None:
            children = split_subdomain(net, d, *pick)
            entry.update(action="split", split=list(pick), split_kind=kind)
            break
    else:
        scores = primary  # a bisection traces the heuristic's own scores
        children = input_bisect(net, d)
        if children is None:
            entry["action"] = "stuck"
            return entry, ()
        entry["action"] = "bisect"

    stats.splits_made += 1
    if stats.per_node_trace is not None:  # only the trace reads them
        score_n = sum(int(np.count_nonzero(np.isfinite(s))) for s in scores.values())
        if score_n:
            entry["score_max"] = float(max(s.max() for s in scores.values()))
            entry["score_n"] = score_n
    for child in children:
        _check_termination_measure(d, child, pick)
        child.parent_lower_bound = eff_lb
    entry["children"] = len(children)
    return entry, children


def verify(task: VerificationTask, heuristic: str = heuristics.DRG,
           config: Optional[BabConfig] = None) -> RunStats:
    """Run the search on a task: bound, check the counterexample, refine, repeat.

    The root's slopes are optimized first and the root is processed; then,
    until a verdict or a budget, the sub-domain with the lowest bound is
    popped and processed. The root does not count toward branches_visited:
    instances decided there report zero branches. The clock starts here, so
    the root's bounds and slope optimization count toward the time budget.
    Budgets are checked between nodes, never mid-bound: the timeout before
    popping, the branch budget after, so it counts as exhausted only while a
    feasible sub-domain waits.

    Safe only if every sub-domain was pruned by a positive lower bound or
    infeasibility; Unsafe only with a validated concrete witness; Unknown on
    timeout, branch budget, or an unrefinable leaf. Deterministic given
    (task, heuristic, config).
    """
    start_time = time.perf_counter()
    config = config or BabConfig()
    heuristics.check_kind(heuristic)
    deadline = start_time + task.timeout_seconds
    stats = RunStats(verdict=UNKNOWN, per_node_trace=[] if config.trace else None)
    root = make_root(task)
    slopes, results = relax.optimize_alpha(task.network, task.spec_matrix, root,
                                           config.alpha_iters, config.alpha_step, deadline)
    worklist = Worklist()
    stuck = False
    d = root
    while True:
        entry, children = _process_node(task, heuristic, slopes, stats, d, results)
        if stats.per_node_trace is not None:
            stats.per_node_trace.append(entry)
        if entry["action"] == "unsafe":
            stats.verdict = UNSAFE
            break
        stuck |= entry["action"] == "stuck"
        for child in children:
            worklist.push(child)
        if time.perf_counter() > deadline:
            stats.unknown_reason = "timeout"
            break
        d, results = worklist.pop(), None
        if d is None:
            if stuck:
                stats.unknown_reason = "unrefinable leaf"
            else:
                stats.verdict = SAFE
            break
        if stats.branches_visited >= task.max_branches:
            stats.unknown_reason = "branch budget exhausted"
            break
        stats.branches_visited += 1
    stats.wall_time_s = time.perf_counter() - start_time
    return stats

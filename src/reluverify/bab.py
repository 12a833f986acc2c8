"""Worklist-driven branch-and-bound over ReLU sub-domains.

A sub-domain is decided in four phases: bound the margin with the convex
relaxation, prune if the bound clears zero, otherwise evaluate the bound's
box minimizer on the concrete network (a violation ends the search as
Unsafe), and finally split on the neuron the heuristic blames for the
spurious witness, or bisect the widest input dimension when the heuristic
scores no neuron. branchings decides a bounded stack (a step's feasible
sub-domains, or the root) and returns each decision as a Branching of plain
values: the effective bound, its scores' maximum and finite count, and its
witness when it is unsafe. verify works in steps: each takes the best queued
sub-domains off the worklist, bounds their intervals in one pass, decides
the feasible ones it can still apply and applies their Branchings one at a
time, in pop order; _trace_entry reports each one when the run is traced. A
split lives only in its clamp: a child keeps its parent's intervals and the
clamp (layer, neuron, sign), and the pass that bounds it writes the clamp
into the child's row of the stacked base, so the split neuron's interval
starts (+1) or ends (-1) at zero and every later bound pass intersects with
it. A pass hands each sub-domain its intervals alone; relaxations live only
on the relax.Domains stack that propagate_bounds returns, which is indexed
for the sub-stacks that are decided and scored.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import numbers
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import heuristics, relax, witness as witness_mod
from .model import InputError, Network, RELU, VerificationTask
from .relax import BoundResult, Domains, NeuronBounds, Slopes

SAFE = "Safe"
UNSAFE = "Unsafe"
UNKNOWN = "Unknown"

# A step's pass takes as many sub-domains (at least one) as keep each stacked
# array within this many elements, 512 KB: per sub-domain, a backward pass's 2 n_k
# or m spec rows over the widest input they reach, or the 2 N intervals.
LOOKAHEAD_ELEMENTS = 65_536


class InvariantError(RuntimeError):
    """A structural invariant of the search failed; the run cannot be trusted."""


def lookahead(net: Network, rows: int) -> int:
    """How many queued sub-domains one step may bound under a spec of rows rows."""
    reach = np.maximum.accumulate([layer.in_dim for layer in net.layers]).tolist()
    widest = max([2 * layer.out_dim * r for layer, r in zip(net.layers[:-1], reach)]
                 + [rows * reach[-1], 2 * net.hidden_offsets[-1]])
    return max(1, LOOKAHEAD_ELEMENTS // widest)


@dataclass(slots=True)
class SubDomain:
    """A box plus pre-activation intervals, which carry every split as a clamp.

    n_splits counts the neuron splits on the path from the root, depth the
    splits plus input bisections. parent_lower_bound is the bound of the node
    that created this one (it stays valid here because the region only
    shrank) and doubles as the worklist priority.

    A child made by a split or a bisection defers its bounds: while net is
    set, bounds is its parent's intervals object, shared and never written,
    and clamp the split's (layer, neuron, sign) or None. The step that takes
    it off the worklist bounds it: its pass recomputes the layers after the
    clamp's (all of them without one). Once bounded, bounds holds its own
    intervals, one (2, N) array, and clamp is None. Children that no step
    takes are never bounded.
    """

    box_lower: np.ndarray
    box_upper: np.ndarray
    bounds: NeuronBounds
    depth: int = 0
    parent_lower_bound: float = float("-inf")
    n_splits: int = 0
    net: Optional[Network] = None
    clamp: Optional[Tuple[int, int, int]] = None

    @property
    def neuron_bounds(self) -> NeuronBounds:
        """The intervals. A deferred sub-domain's are those of a copy, clamp
        included, bounded alone: reading them leaves it deferred, so no reader
        outside the search changes which pass bounds it."""
        if self.net is None:
            return self.bounds
        copy = dataclasses.replace(self)
        bound_subdomains([copy])
        return copy.bounds

    @classmethod
    def child(cls, net: Network, parent: "SubDomain", box_lower: np.ndarray, box_upper: np.ndarray,
              clamp: Optional[Tuple[int, int, int]] = None) -> "SubDomain":
        """A sub-domain of parent over the given box, deferred. It copies
        nothing: it keeps the parent's intervals object and clamp = (layer,
        neuron, sign), which narrows that neuron to z >= 0 (+1) or z <= 0 (-1)
        when a pass bounds it; ancestors' clamps hold by intersection."""
        return cls(box_lower, box_upper, parent.neuron_bounds, parent.depth + 1,
                   parent.parent_lower_bound, parent.n_splits + (clamp is not None),
                   net, clamp)


def bound_subdomains(ds: Sequence[SubDomain]) -> Domains:
    """Bound deferred sub-domains of one network in one stacked pass and
    return the stack propagate_bounds bounds, in the order of ds.

    Their intervals are stacked into a fresh base, and each clamp is written
    into its own sub-domain's row of it, the only place a clamp is applied;
    the layers after the clamp's are recomputed (all of them without one).
    Each sub-domain then gets a copy of its own row of the stacked interval
    array and its feasibility; the relaxations stay on the returned stack.
    Every number is the one bounding the sub-domain alone gives.
    """
    net = ds[0].net
    lo, hi = np.array([d.box_lower for d in ds]), np.array([d.box_upper for d in ds])
    base = NeuronBounds.stack([d.bounds for d in ds])
    for i, d in enumerate(ds):
        if d.clamp is not None:
            layer, neuron, sign = d.clamp
            at = base.offsets[layer] + neuron
            if sign > 0:
                base.data[i, 0, at] = max(base.data[i, 0, at], 0.0)
            else:
                base.data[i, 1, at] = min(base.data[i, 1, at], 0.0)
    start = np.array([0 if d.clamp is None else d.clamp[0] + 1 for d in ds])
    domains = relax.propagate_bounds(net, lo, hi, base, start)
    for i, d in enumerate(ds):
        d.bounds, d.net, d.clamp = domains.neuron_bounds.intervals(i), None, None
    return domains


@dataclass
class Branching:
    """A sub-domain's decision and what it reads, all plain values: the worst
    spec row (the first on ties), its bound and the effective lower_bound
    (the larger of it and the parent's); the action (non-finite,
    pruned-safe, unsafe, split or bisect); the witness margin, unless the
    bound is non-finite or prunes, and the witness itself only when unsafe;
    if the witness is spurious, the gap clamps, the heuristic's pick (None
    when its scores all vanish: the sub-domain bisects), and for the trace
    the largest of its scores and how many are finite."""

    row: int
    raw_lower_bound: float
    lower_bound: float
    action: str
    witness_margin: Optional[float] = None
    witness: Optional[witness_mod.Witness] = None
    clamps: int = 0
    pick: Optional[Tuple[int, int]] = None
    score_max: Optional[float] = None
    score_n: int = 0


def branchings(net: Network, C: np.ndarray, slopes: Slopes, heuristic: str,
               parents: Sequence[float], domains: Domains,
               results: BoundResult) -> List[Branching]:
    """Decide each sub-domain of a bounded stack and return its Branching,
    action included, in the stack's order. parents are their parents'
    bounds, domains stacks them and results are their bounds of every spec
    row under slopes, the root's. The search's phase rules are written here
    only, on the stacked arrays, in this order:

    - a non-finite bound, or intervals that hold a NaN (the raw bound is
      then NaN): non-finite;
    - lower_bound, the larger of the bound and the parent's (valid on the
      shrunken region), > 0: pruned-safe;
    - otherwise the witnesses take one stacked concrete pass. A non-finite
      witness margin: non-finite; one <= 0: unsafe, and the Branching holds
      the Witness the run then reports, the only one made;
    - the spurious rest take one stacked scoring and pick with the
      heuristic: split on the pick, or bisect where every score vanishes
      (at most ZERO_SCORE_TOL, or no unstable neuron). Each keeps its scores'
      finite count and maximum, the layers' maxima taken as Python's max does.

    Each number is the one a stack of one gives; no Branching keeps an
    index into the stacks."""
    worst = np.argmin(results.lower_bound, axis=-1)  # the first row on ties
    raw = results.lower_bound[np.arange(len(worst)), worst]
    # A NaN interval (an overflow) reads as a stable neuron: no bound over it holds.
    raw[np.isnan(domains.neuron_bounds.data).any(axis=(1, 2))] = np.nan
    parents = np.array(parents, dtype=float)
    # The parent's bound remains valid on this shrunken region; inheriting it
    # keeps node bounds monotone even when the clamped relaxation drifts. It
    # is max(raw, parent) as Python takes it: raw on a tie (its sign of zero
    # too) and a NaN raw stays NaN.
    lower = np.where(parents > raw, parents, raw)
    # "bisect" stands until a later phase decides otherwise.
    action = np.where(np.isfinite(raw), np.where(lower > 0.0, "pruned-safe", "bisect"),
                      "non-finite")
    out = list(map(Branching, worst.tolist(), raw.tolist(), lower.tolist(), action.tolist()))
    idx = np.flatnonzero(action == "bisect")
    if not len(idx):
        return out
    rows = worst[idx]
    bound = results[idx, rows]
    concrete, preacts = witness_mod.validate_witness(net, C, bound)
    margins = concrete.min(axis=-1)
    action = np.where(np.isfinite(margins), np.where(margins <= 0.0, "unsafe", "bisect"),
                      "non-finite")
    for j, (i, act, margin) in enumerate(zip(idx.tolist(), action.tolist(), margins.tolist())):
        b = out[i]
        b.witness_margin, b.action = margin, act
        if act == "unsafe":  # the one witness a run reports; its bound is the raw one
            b.witness = witness_mod.Witness(bound.x_star[j], b.raw_lower_bound, concrete[j])
    todo = np.flatnonzero(action == "bisect")  # spurious
    if not len(todo):
        return out
    if len(todo) < len(idx):
        idx, rows, bound = idx[todo], rows[todo], bound[todo]
        preacts = [z[todo] for z in preacts]
    sub = domains if len(idx) == len(parents) else domains[idx]
    scores, clamps = heuristics.score_branches(heuristic, net, C[rows], bound, sub, preacts,
                                               {k: v[rows] for k, v in slopes.items()})
    picks = heuristics.select_branch(scores)
    maxima = [s.max(axis=-1) for s in scores.values()] or [np.full(len(idx), np.nan)]
    score_max = functools.reduce(lambda top, m: np.where(m > top, m, top), maxima)
    score_n = sum((np.isfinite(s).sum(axis=-1) for s in scores.values()), np.zeros(len(idx), int))
    for j, i in enumerate(idx.tolist()):
        b = out[i]
        b.clamps, b.score_max, b.score_n = int(clamps[j]), float(score_max[j]), int(score_n[j])
        if j in picks:
            b.pick, b.action = picks[j], "split"
    return out


@dataclass
class RunStats:
    """Outcome of one verification run. passes counts the steps' stacked
    bounding passes (the root's is not one), bounded the sub-domains they
    bound and empty those dropped as empty."""

    verdict: str
    branches_visited: int = 0
    splits_made: int = 0
    wall_time_s: float = 0.0
    witness: Optional[witness_mod.Witness] = None
    per_node_trace: Optional[List[dict]] = None
    gap_clamp_events: int = 0
    unknown_reason: Optional[str] = None
    passes: int = 0
    bounded: int = 0
    empty: int = 0


@dataclass
class BabConfig:
    """A run's settings: its budgets, the root's slope optimization, its trace.
    Each budget is kept as a plain int or float."""

    timeout_seconds: float = 60.0
    max_branches: int = 100_000
    alpha_iters: int = 20
    trace: bool = False

    def __post_init__(self):
        for name, kind in (("timeout_seconds", numbers.Real), ("max_branches", numbers.Integral),
                           ("alpha_iters", numbers.Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is numbers.Integral else "a real number"
                raise InputError(f"config.{name} must be {what}, got {value!r}")
            try:  # kept as a plain int or float (numpy, Fraction): the result JSON echoes it
                setattr(self, name, int(value) if kind is numbers.Integral else float(value))
            except OverflowError:
                raise InputError(f"config.{name} is beyond float range, got {value!r}") from None
        if not isinstance(self.trace, bool):  # "no" would be truthy and turn tracing on
            raise InputError(f"config.trace must be a bool, got {self.trace!r}")
        if not self.timeout_seconds > 0:  # NaN too: it would never time out
            raise InputError(f"config.timeout_seconds must be positive, got {self.timeout_seconds}")
        if self.max_branches < 0:
            raise InputError(f"config.max_branches must be non-negative, got {self.max_branches}")
        if self.alpha_iters < 0:
            raise InputError(f"config.alpha_iters must be non-negative, got {self.alpha_iters}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Worklist:
    """Priority queue of sub-domains waiting for their step, popping the
    lowest parent_lower_bound first (most-violated-first); insertion order
    breaks ties deterministically."""

    def __init__(self):
        self._heap: List[Tuple[float, int, SubDomain]] = []
        self._seq = 0

    def push(self, d: SubDomain) -> None:
        heapq.heappush(self._heap, (d.parent_lower_bound, self._seq, d))
        self._seq += 1

    def pop(self, limit: int = 1) -> List[SubDomain]:
        """The best limit entries (all, if fewer wait), in pop order."""
        return [heapq.heappop(self._heap)[2] for _ in range(min(limit, len(self._heap)))]

    def __len__(self) -> int:
        return len(self._heap)


def split_subdomain(
    net: Network,
    d: SubDomain,
    layer: int,
    neuron: int,
) -> Tuple[SubDomain, SubDomain]:
    """Split a sub-domain on one unstable neuron.

    The +1 child takes z >= 0 (the boundary belongs to it), the -1 child
    z < 0. Each keeps d's intervals and its clamp; when a child is bounded,
    earlier-layer intervals are reused with the clamp applied and later
    layers are recomputed and intersected with the parent's. Children whose
    bounds cross are infeasible; the step that bounds them drops them. A
    neuron split before is clamped at zero, so it is not unstable and cannot
    be split again.
    """
    key = (layer, neuron)
    if not 0 <= layer < net.n_layers - 1 or net.layers[layer].activation != RELU:
        raise ValueError(f"split_subdomain: layer {layer} is not a ReLU layer")
    if not 0 <= neuron < net.layers[layer].out_dim:
        raise ValueError(f"split_subdomain: layer {layer} has no neuron {neuron}")
    nb = d.neuron_bounds
    l, u = nb.data[:, nb.offsets[layer] + neuron].tolist()
    if not (l < 0.0 < u):
        raise ValueError(f"split_subdomain: neuron {key} with bounds [{l}, {u}] is not unstable")
    return (SubDomain.child(net, d, d.box_lower, d.box_upper, (layer, neuron, +1)),
            SubDomain.child(net, d, d.box_lower, d.box_upper, (layer, neuron, -1)))


def input_bisect(net: Network, d: SubDomain) -> Optional[Tuple[SubDomain, SubDomain]]:
    """Bisect the widest input dimension at its midpoint (lowest index on ties).

    Taken where the heuristic scores no neuron, which keeps the search
    complete when no unstable neuron is left. Returns None when the box has
    zero width in every dimension, which makes the leaf undecidable
    (Unknown). The halves' bounds are recomputed from the first layer when
    they are bounded. Each half shares with d the box array it does not
    change, as it shares d's intervals: nothing writes either.
    """
    widths = d.box_upper - d.box_lower
    dim = int(np.argmax(widths))
    mid = 0.5 * d.box_lower[dim] + 0.5 * d.box_upper[dim]  # lo + hi may overflow
    if not (d.box_lower[dim] < mid < d.box_upper[dim]):
        return None
    lower_hi = d.box_upper.copy()
    lower_hi[dim] = mid
    upper_lo = d.box_lower.copy()
    upper_lo[dim] = mid
    return (SubDomain.child(net, d, d.box_lower, lower_hi),
            SubDomain.child(net, d, upper_lo, d.box_upper))


def _check_termination_measure(parent: SubDomain, child: SubDomain, split) -> None:
    # Structural termination argument: a neuron split (layer, neuron) leaves
    # it stable in the child's not yet propagated bounds, its intervals under
    # its clamp, which only shrink via intersection, so it removes an unstable
    # neuron for good; a bisection (split None) strictly reduces the
    # descending-sorted width tuple.
    if split is not None:
        layer, neuron = split
        l, u = child.bounds.data[:, child.bounds.offsets[layer] + neuron].tolist()
        if child.clamp is not None and child.clamp[:2] == (layer, neuron):
            l, u = (max(l, 0.0), u) if child.clamp[2] > 0 else (l, min(u, 0.0))
        if l < 0.0 < u:
            raise InvariantError(f"neuron split {split} left the neuron unstable in a child")
    else:
        pw = tuple(sorted(parent.box_upper - parent.box_lower, reverse=True))
        cw = tuple(sorted(child.box_upper - child.box_lower, reverse=True))
        if not cw < pw:
            raise InvariantError("input bisection did not shrink the box widths")


def _trace_entry(node: int, d: SubDomain, b: Branching,
                 children: Optional[Tuple[SubDomain, ...]]) -> dict:
    """Node d's trace line: node is its number, b its Branching and children
    what applying b made (None for a bisection whose box cannot be halved,
    traced as stuck)."""
    entry = {"node": node, "depth": d.depth, "parent_lower_bound": d.parent_lower_bound,
             "n_splits": d.n_splits, "lower_bound": b.lower_bound,
             "raw_lower_bound": b.raw_lower_bound, "row": b.row}
    if b.witness_margin is not None:
        entry["witness_margin"] = b.witness_margin
    entry["action"] = "stuck" if children is None else b.action
    if not children:
        return entry
    if b.action == "split":
        entry["split"] = list(b.pick)
    if b.score_n:
        entry["score_max"], entry["score_n"] = b.score_max, b.score_n
    entry["children"] = len(children)
    return entry


def verify(task: VerificationTask, heuristic: str = heuristics.DRG,
           config: Optional[BabConfig] = None) -> RunStats:
    """Run the search on a task: bound, check the counterexample, refine, repeat.

    The root's slopes are optimized first and the root's Branching is
    applied; then, until a verdict or a budget, the search takes steps. A
    step pops the best B = min(lookahead(net, m), max_branches -
    branches_visited + 1) queued sub-domains (m spec rows) and bounds their
    intervals in one stacked pass (bound_subdomains). It drops the empty
    ones, decides the first max_branches - branches_visited of the rest with
    compute_bounds and branchings (the root with its optimized bounds), and
    applies their Branchings in pop order: a split or bisection makes two
    children, each with the Branching's lower_bound as its parent's bound (a
    stuck bisection, whose box cannot be halved, makes none), and counts its
    gap clamps and the split; unsafe ends the run with the Branching's
    witness, non-finite ends it Unknown. A step's children wait for the next
    step. At B = 1 each step is one node; a Safe run's tree is the same at
    any B, since a node's Branching depends only on its region and its
    parent's bound. Only a traced run builds trace lines (_trace_entry). The
    root does not count toward branches_visited: instances decided there
    report zero branches. The clock starts here, so the root's bounds and
    slope optimization count toward the time budget. Budgets are checked
    between nodes, never mid-bound: the timeout between a step's nodes and
    before each pop, so a run left with nothing queued ends on its verdict
    however late; the branch budget after a step, which counts it as
    exhausted only when a feasible sub-domain it popped is left undecided.

    Safe only if every sub-domain was pruned by a positive lower bound or
    infeasibility; Unsafe only with a validated concrete witness; Unknown on
    timeout, branch budget, an unrefinable leaf, or a non-finite bound (a
    NaN interval's included) or witness margin. Deterministic given (task,
    heuristic, config).
    """
    start_time = time.perf_counter()
    config = config or BabConfig()
    heuristics.check_kind(heuristic)
    deadline = start_time + config.timeout_seconds
    stats = RunStats(verdict=UNKNOWN, per_node_trace=[] if config.trace else None)
    net, C = task.network, task.spec_matrix
    stack = relax.propagate_bounds(net, task.input_lower[None], task.input_upper[None])
    root = SubDomain(task.input_lower, task.input_upper, stack.neuron_bounds.intervals(0))
    slopes, results = relax.optimize_alpha(net, C, stack, config.alpha_iters, deadline)
    slopes = {k: v[0] for k, v in slopes.items()}
    step = zip([root], branchings(net, C, slopes, heuristic, [root.parent_lower_bound], stack,
                                  results))
    batch = lookahead(net, len(C))
    worklist = Worklist()
    stuck = exhausted = False
    while True:
        for j, (d, b) in enumerate(step):
            if j and time.perf_counter() > deadline:
                stats.unknown_reason = "timeout"
                break
            if d is not root:
                stats.branches_visited += 1
            children = (split_subdomain(net, d, *b.pick) if b.action == "split" else
                        input_bisect(net, d) if b.action == "bisect" else ())
            stats.gap_clamp_events += b.clamps  # only a spurious witness is scored
            if stats.per_node_trace is not None:
                stats.per_node_trace.append(_trace_entry(stats.branches_visited, d, b, children))
            if b.action == "unsafe":
                stats.verdict, stats.witness = UNSAFE, b.witness
                break
            if b.action == "non-finite":
                stats.unknown_reason = "non-finite bound"
                break
            stuck |= children is None
            if children:
                stats.splits_made += 1
                for child in children:
                    _check_termination_measure(d, child, b.pick)
                    child.parent_lower_bound = b.lower_bound
                    worklist.push(child)
        if stats.verdict != UNKNOWN or stats.unknown_reason is not None:
            break
        if exhausted:
            stats.unknown_reason = "branch budget exhausted"
            break
        if not worklist:
            if stuck:
                stats.unknown_reason = "unrefinable leaf"
            else:
                stats.verdict = SAFE
            break
        if time.perf_counter() > deadline:
            stats.unknown_reason = "timeout"
            break
        left = config.max_branches - stats.branches_visited
        taken = worklist.pop(min(batch, left + 1))
        stack = bound_subdomains(taken)
        feasible = np.flatnonzero(stack.neuron_bounds.feasible)
        stats.passes += 1
        stats.bounded += len(taken)
        stats.empty += len(taken) - len(feasible)
        # A feasible entry past the first left only shows that one waits.
        exhausted, feasible = len(feasible) > left, feasible[:left]
        step, ds = (), [taken[i] for i in feasible]
        if ds:
            stack = stack[feasible] if len(ds) < len(taken) else stack
            step = zip(ds, branchings(net, C, slopes, heuristic, [d.parent_lower_bound for d in ds],
                                      stack, relax.compute_bounds(net, C, stack, slopes)))
        del stack  # not kept alive through the next step's pass
    stats.wall_time_s = time.perf_counter() - start_time
    return stats

"""Symbolic linear lower bounds of the margin via backward propagation through
the ReLU triangle relaxation, with optimizable lower-bound slopes.

The backward pass walks the network output-to-input keeping a linear function
of the current layer's post-activations. At an unstable ReLU the coefficient
sign decides which side of the relaxation is substituted: a non-negative
coefficient takes the lower line alpha * z (slope in [0, 1]), a negative one
takes the upper chord through (l, 0) and (u, u) and its intercept folds into
the offset. The coefficient on each post-activation, captured just before the
layer's relaxation is traversed, is the per-neuron sensitivity used by the
branching heuristics.

A region is a box plus the pre-activation intervals of every hidden layer
(NeuronBounds), nothing else: how a search narrowed them is not known here.
It is empty only when a narrowing makes a lower bound exceed its upper one
by more than INFEASIBILITY_TOL; a NaN left by an overflow never makes it so.
The intervals are one float64 array of shape (2, N), lower bounds in row 0
and upper ones in row 1, the N hidden neurons side by side in layer order
(Network.hidden_offsets); a stack of D regions is one (D, 2, N) array, so
stacking, taking one out and indexing a sub-stack are one array call each
at any depth. The search shares these arrays rather than copying them: a
split child keeps its parent's intervals until a pass bounds it, and a
bisection half shares with its parent the box array it does not change.
Measured with tracemalloc (Python 3.11, numpy 2.4), one bounded region's
intervals cost about 700 B on two 16-wide layers and 3.3 kB on three 64-wide
ones, against 1.2 kB and 4.0 kB as one array per layer and side.

Regions are bounded in stacks, the Domains that propagate_bounds returns and
the one holder of relaxations: boxes, intervals and relaxations carry a
leading domain axis of length D, a single region is a stack of one, and
indexing a stack takes a sub-stack. A ReLU layer's relaxation is its
unstable mask and upper line, held once as (D, 1, n_k) arrays. The spec rows
of a sub-domain are bounded together as well, their coefficients riding a
further axis as (D, m, 1, n) stacks, and the relaxed forward pass evaluates
W @ h on (..., n, 1) stacks. Each product is then the very call one domain
(and one row) makes alone: a matrix-vector product per row, and for the 2n
rows of an intermediate bound a matrix-matrix product per domain. So every
domain's and every row's bound, coefficients and minimizer agree bit for bit
with bounding it alone. A flat (D * m, n) @ (n, p) product would not: the
matrix-matrix kernel sums in another order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import Network, RELU

# Bound crossings against a base's intervals larger than this make a region
# empty; smaller crossings are treated as floating-point slivers and collapsed
# to a point so that pruning never relies on rounding noise.
INFEASIBILITY_TOL = 1e-9

# The root's slope ascent, read by bab.verify at each call: ALPHA_ITERS iterations, each
# first stepping ALPHA_STEP along the gradient, halved up to 8 times before a row stops.
ALPHA_ITERS = 20
ALPHA_STEP = 0.25


# Per layer: (unstable mask, upper slope, upper intercept).
Relaxation = Tuple[np.ndarray, np.ndarray, np.ndarray]


def relaxation(l: np.ndarray, u: np.ndarray) -> Relaxation:
    """Triangle relaxation of ReLUs with pre-activation intervals [l, u].

    A neuron is active when l >= 0 (l = 0 counts as active), inactive when
    u <= 0 otherwise, and unstable when l < 0 < u. The upper line is the
    identity on active neurons, zero on inactive ones, and on unstable ones
    the chord through (l, 0) and (u, u): slope u / (u - l), intercept
    -u * l / (u - l). The lower line is left to _lower_slope: the slopes
    being optimized (alpha * z) on unstable neurons, the upper line elsewhere.
    """
    unst = (l < 0.0) & (u > 0.0)
    denom = np.where(unst, u - l, 1.0)
    # The intercept is evaluated at unstable neurons only: -u * l of an
    # active neuron near the float64 limit would overflow, only to be dropped.
    icpt = np.zeros_like(denom)
    np.multiply(np.negative(u), l, out=icpt, where=unst)
    return unst, np.where(unst, u / denom, l >= 0.0), np.divide(icpt, denom, out=icpt, where=unst)


def adaptive_alpha(l: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The adaptive lower slope: 1 where u >= -l, else 0. On l <= u it already
    is the whole lower-line slope: 1 on active neurons, 0 on inactive ones."""
    return np.where(u >= -l, 1.0, 0.0)


@dataclass(slots=True)
class NeuronBounds:
    """Pre-activation intervals for every hidden layer (layer k = 0 .. L-2)
    of one region, or of a stack of D regions, as one float64 array data of
    shape (2, N), or (D, 2, N) for a stack; feasible is then one flag per
    domain. Row 0 holds the lower bounds and row 1 the upper ones; the N
    hidden neurons lie side by side, layer by layer, layer k at columns
    offsets[k]:offsets[k + 1] (the network's hidden_offsets). lower and upper
    hand out each layer's rows as views; a per-neuron read or write indexes
    the flat row at offsets[layer] + neuron.

    They are the whole abstraction of a region: a narrowing (a branch's
    clamp of a neuron to one sign) is written here, and propagate_bounds
    keeps it by intersection. A lower bound above its upper one marks the
    region empty, a legitimate outcome of a narrowing; propagate_bounds then
    bounds no later layer of it, which keeps its base's intervals. It is
    infeasible iff some l > u; a NaN left by an overflow does not make it so.
    Intervals and feasibility are all they hold: relaxations live on the
    Domains stacks only.
    """

    data: np.ndarray
    offsets: Tuple[int, ...]
    feasible: Union[bool, np.ndarray] = True

    @property
    def lower(self) -> List[np.ndarray]:
        """Each hidden layer's lower bounds, views of data."""
        return [self.data[..., 0, a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    @property
    def upper(self) -> List[np.ndarray]:
        """Each hidden layer's upper bounds, views of data."""
        return [self.data[..., 1, a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    def is_feasible(self) -> bool:
        return self.feasible

    def intervals(self, i: int) -> "NeuronBounds":
        """Domain i of a stack alone: a copy of its interval array, which owns
        its data and keeps no stack alive, and its feasibility as a bool."""
        return NeuronBounds(self.data[i].copy(), self.offsets, bool(self.feasible[i]))

    @classmethod
    def stack(cls, bounds: Sequence["NeuronBounds"]) -> "NeuronBounds":
        """The stack of single-region bounds, in order: a fresh interval array
        and the feasibility flags."""
        return cls(np.array([b.data for b in bounds]), bounds[0].offsets,
                   np.array([b.feasible for b in bounds]))


@dataclass
class Domains:
    """A bounded stack of D sub-domains, as propagate_bounds returns it:
    boxes of shape (D, n0), their stacked NeuronBounds and each ReLU layer's
    relaxation, (D, 1, n_k) arrays, which broadcast against the (D, m, n_k)
    spec-row stacks of the bound passes; the scores read their [:, 0] views."""

    box_lower: np.ndarray
    box_upper: np.ndarray
    neuron_bounds: NeuronBounds
    relaxations: Dict[int, Relaxation]

    def __getitem__(self, idx: np.ndarray) -> "Domains":
        """The stack of the domains an index array names, in its order."""
        nb = self.neuron_bounds
        return Domains(self.box_lower[idx], self.box_upper[idx],
                       NeuronBounds(nb.data[idx], nb.offsets, nb.feasible[idx]),
                       {k: tuple(a[idx] for a in rel) for k, rel in self.relaxations.items()})


# Lower-line slopes per ReLU layer: layer k maps to an (n_k,) array shared by
# every spec row, an (m, n_k) array, one row per spec row, or a (D, m, n_k)
# one, one row per domain and spec row. Only the entries at unstable neurons
# matter, and every ReLU layer needs one. A slope outside [0, 1] would make
# the bound unsound; the adaptive ones are 0 or 1 and optimize_alpha clips
# its steps.
Slopes = Dict[int, np.ndarray]


@dataclass
class BoundResult:
    """Sound linear lower bounds w @ x + b of margin rows over sub-domains.

    A[k] holds the backward coefficients on layer k's post-activations,
    recorded before that layer's relaxation was traversed; w is the same
    quantity at the input layer, and x_star the bound's box minimizer: the
    closed-form candidate counterexample, at which the bound takes the value
    lower_bound. compute_bounds returns D domains by m spec rows, every field
    with leading axes (D, m). Indexing takes the leading axis: result[i] is
    domain i's stack of rows, and result[i][r] its row r, with b and
    lower_bound scalars, each as if bounded alone.
    """

    w: np.ndarray
    b: np.ndarray
    lower_bound: np.ndarray
    A: Dict[int, np.ndarray]
    x_star: np.ndarray

    def __getitem__(self, i) -> "BoundResult":
        return BoundResult(self.w[i], self.b[i], self.lower_bound[i],
                           {k: v[i] for k, v in self.A.items()}, self.x_star[i])

    def put(self, rows: np.ndarray, other: "BoundResult") -> None:
        """Overwrite in place the entries the boolean mask rows selects on the
        leading axes with those of other, a result of the same shape."""
        vectors = rows[..., None]
        np.copyto(self.w, other.w, where=vectors)
        np.copyto(self.b, other.b, where=rows)
        np.copyto(self.lower_bound, other.lower_bound, where=rows)
        np.copyto(self.x_star, other.x_star, where=vectors)
        for k, v in self.A.items():
            np.copyto(v, other.A[k], where=vectors)


def concretize(lam: np.ndarray, off, lo: np.ndarray, hi: np.ndarray):
    """Box minimizer and minimum of the linear function(s) lam @ x + off.

    x_star takes the lower corner where the coefficient is non-negative and
    the upper corner otherwise; the minimum is then evaluated at x_star, so a
    bound and its witness's value agree bit for bit. lam may hold one row or
    a stack of rows (one value per row).
    """
    x_star = np.where(lam >= 0.0, lo, hi)
    return x_star, (lam * x_star).sum(axis=-1) + off


def _lower_slope(rel: Relaxation, alpha: np.ndarray) -> np.ndarray:
    """Lower-line slope per neuron: alpha unstable, else the upper one (1 active,
    0 inactive). Always float64, whatever alpha's dtype: _relu_backward reads its bits."""
    unst, up_slope, _ = rel
    return np.where(unst, alpha, up_slope).astype(np.float64, copy=False)


# What a backward pass substitutes at one ReLU layer: the lower-line slope,
# the upper-line slope and the upper-line intercept, each shaped to broadcast
# against the coefficients that reach the layer.
Step = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _relu_backward(lam: np.ndarray, step: Step) -> Tuple[np.ndarray, np.ndarray]:
    """Push backward coefficients through one ReLU layer's relaxation.

    lam has shape (..., n); returns the new coefficients on the
    pre-activations and the per-row offset contribution from upper-line
    intercepts.

    Where lam >= 0 (ties at exactly 0 included) the lower line is taken,
    elsewhere (NaN included) the upper one. The two selects are bit masks on
    the int64 views of the float64 arrays, not np.where or a masked copyto:
    the sign of lam is close to random, and a data-dependent masked loop
    mispredicts its branches (on a Xeon host, np.where on an (8, 128, 64)
    stack took 484 us with a random mask against 127 us with an all-true
    one). The masks move bits and do no arithmetic, so every value is the
    one the select gives. The mask is int8, -1 (all ones) or 0, and
    sign-extends in the int64 operations; the arrays of lam's size stay the
    int8 mask and one float64 buffer. The step's slopes must be float64, as
    relaxation and _lower_slope make them.
    """
    lower_slope, up_slope, up_icpt = step
    mask = np.greater_equal(lam, 0.0).view(np.int8)
    mask -= 1  # -1 where lam < 0 or NaN, else 0
    terms = lam * up_icpt
    bits = terms.view(np.int64)
    bits &= mask
    off_delta = terms.sum(axis=-1)
    del terms, bits
    # lower ^ ((lower ^ upper) & mask): the upper slope where the mask is set.
    lower_bits = lower_slope.view(np.int64)
    slope = (lower_bits ^ up_slope.view(np.int64)) & mask
    slope ^= lower_bits
    slope = slope.view(np.float64)
    return np.multiply(slope, lam, out=slope), off_delta


def _backward_from_layer(
    net: Network,
    obj_layer: int,
    lam: np.ndarray,
    off: np.ndarray,
    steps: Dict[int, Step],
    A: Optional[Dict[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Linear lower bounds of c_mat @ z^(obj_layer) as functions of the input.

    lam and off are c_mat @ W and c_mat @ b of layer obj_layer, for rows
    c_mat with any leading axes; steps holds every ReLU layer below
    obj_layer. Returns (coeffs on x, offsets). Given A, each traversed ReLU
    layer's coefficients, recorded before its relaxation, are put there.
    """
    for k in range(obj_layer - 1, -1, -1):
        lyr = net.layers[k]
        if lyr.activation == RELU:
            if A is not None:
                A[k] = lam
            lam, delta = _relu_backward(lam, steps[k])
            off = off + delta
        off = off + lam @ lyr.bias
        lam = lam @ lyr.weights
    return lam, off


def compute_bounds(net: Network, C: np.ndarray, domains: Domains, slopes: Slopes) -> BoundResult:
    """Sound linear lower bounds of margin rows over a stack of sub-domains.

    C is an (m, p) stack of spec rows, each bounded over each of the D
    domains; slopes are shared or hold one row per spec row (and domain). For
    every x in domain i's box whose pre-activations lie in its neuron bounds,
    w[i, r] @ x + b[i, r] <= C[r] @ f(x). Each domain and row gets exactly the
    result of bounding it in a stack of its own. Raises ValueError when a
    domain's neuron bounds signal an empty region, which has no bound to give.
    """
    bounds = domains.neuron_bounds
    if not bounds.feasible.all():
        raise ValueError("compute_bounds: a sub-domain is infeasible")
    steps = {}
    for k, s in slopes.items():
        rel = domains.relaxations[k]
        steps[k] = (_lower_slope(rel, s)[..., None, :], rel[1][..., None, :], rel[2][..., None, :])
    c_mat, last = C[:, None, :], net.layers[-1]
    n_domains = len(domains.box_lower)
    lam = (c_mat @ last.weights)[None].repeat(n_domains, axis=0)
    off = (c_mat @ last.bias)[None].repeat(n_domains, axis=0)
    A: Dict[int, np.ndarray] = {}
    lam, off = _backward_from_layer(net, net.n_layers - 1, lam, off, steps, A)
    lam, off = lam[..., 0, :], off[..., 0]
    x_star, lb = concretize(lam, off, domains.box_lower[:, None, :],
                            domains.box_upper[:, None, :])
    return BoundResult(lam, off, lb, {k: v[..., 0, :] for k, v in A.items()}, x_star)


def propagate_bounds(
    net: Network,
    box_lower: np.ndarray,
    box_upper: np.ndarray,
    base: Optional[NeuronBounds] = None,
    start_layer=0,
) -> Domains:
    """Pre-activation bounds for every hidden layer of a stack of D
    sub-domains, earlier layers first; the boxes are (D, n0). Returns the
    bounded stack: the boxes, the intervals and feasibility (every layer's
    intervals written into one fresh (D, 2, N) array), and each ReLU layer's
    relaxation.

    Each layer is bounded by a backward pass with adaptive slopes using the
    layers already bounded, intersected with a plain interval-arithmetic pass
    (both enclose the true range, so the intersection does too and is never
    looser than either). With a base (the stacked bounds of enclosing
    regions), a domain's layers below its start_layer (one int for all, or
    one per domain) are taken from it as they are, and its recomputed layers
    are intersected with it, so every narrowing written into the base holds
    in the result. Only the domains that recompute a layer take part in its
    passes. Each ReLU layer's relaxation is built here, once, right after the
    layer is bounded.

    Crossings (l > u) are rounding slivers and collapse to their midpoint,
    unless a base is given and one exceeds INFEASIBILITY_TOL: that domain is
    then empty, and its later layers keep the base's intervals unbounded.
    Without a base the box alone is never empty, so every crossing
    collapses. A NaN left by an overflow crosses nothing: its domain stays
    feasible, and the search ends on it (bab.branchings).
    """
    n_domains, n_hidden = len(box_lower), net.n_layers - 1
    start = np.asarray(start_layer)
    first, last = int(start.min()), int(start.max())
    if base is None and last > 0:
        raise ValueError("propagate_bounds: start_layer > 0 needs the parent's bounds as base")
    offsets = net.hidden_offsets
    # A domain's layers that no pass recomputes keep the base's intervals.
    data = np.empty((n_domains, 2, offsets[-1])) if base is None else base.data.copy()
    feasible = np.ones(n_domains, dtype=bool)  # not found empty
    relaxations: Dict[int, Relaxation] = {}
    steps: Dict[int, Step] = {}  # adaptive-slope steps, (D, 1, n_k) each
    post_lo, post_hi = box_lower, box_upper
    for k in range(n_hidden):
        layer = net.layers[k]
        cols = slice(offsets[k], offsets[k + 1])
        every = k >= last and feasible.all()  # every domain recomputes this layer
        rows = slice(None) if every else np.flatnonzero(feasible & (start <= k))
        if every or len(rows):
            n_k = layer.out_dim
            lam, off = _backward_from_layer(
                net, k, *layer.stacked_pm,
                steps if every else {j: tuple(a[rows] for a in st) for j, st in steps.items()})
            _, vals = concretize(lam, off, box_lower[rows, None, :], box_upper[rows, None, :])
            Wp, Wn = layer.weight_parts
            lo, hi = post_lo[rows, :, None], post_hi[rows, :, None]
            l = np.maximum(vals[:, :n_k], (Wp @ lo)[..., 0] + (Wn @ hi)[..., 0] + layer.bias)
            u = np.minimum(-vals[:, n_k:], (Wp @ hi)[..., 0] + (Wn @ lo)[..., 0] + layer.bias)
            if base is not None:
                l = np.maximum(l, base.data[rows, 0, cols])
                u = np.minimum(u, base.data[rows, 1, cols])
            data[rows, 0, cols], data[rows, 1, cols] = l, u
        l, u = data[:, 0, cols], data[:, 1, cols]
        crossed = (l > u) & feasible[:, None]  # a NaN never crosses
        if crossed.any():
            if base is not None:
                gap = l[crossed] - u[crossed]
                feasible[np.nonzero(crossed)[0][gap > INFEASIBILITY_TOL]] = False
                crossed &= feasible[:, None]
            # The rest are slivers; halves, not l + u, stay finite near the float64 limit.
            l[crossed] = u[crossed] = 0.5 * l[crossed] + 0.5 * u[crossed]
        if layer.activation == RELU:
            relaxations[k] = rel = relaxation(l[:, None, :], u[:, None, :])
            if max(k + 1, first) < n_hidden:  # read by a later layer's pass
                steps[k] = (adaptive_alpha(l, u)[:, None, :], rel[1], rel[2])
            post_lo, post_hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        else:
            post_lo, post_hi = l, u
    return Domains(box_lower, box_upper, NeuronBounds(data, offsets, feasible), relaxations)


def alpha_gradient(net: Network, domains: Domains, slopes: Slopes,
                   bound: BoundResult) -> Dict[int, np.ndarray]:
    """Analytic derivative of each row's concretized lower bound w.r.t. its slopes.

    bound is compute_bounds(net, C, domains, slopes); its A and x_star are all
    the derivative needs. For an unstable neuron whose backward coefficient is
    non-negative the bound is locally linear in its slope with derivative
    A * z_tilde, where z_tilde is the neuron's pre-activation at the bound's
    box minimizer under the relaxation lines the backward pass chose. All
    other neurons contribute zero. Returns one (D, m, n_k) array per ReLU
    layer. Each W @ h of that relaxed forward pass runs on a (D, m, n, 1)
    stack, as one domain and row at a time would.
    """
    h, grads = bound.x_star, {}
    for k in range(net.n_layers - 1):
        layer = net.layers[k]
        z = (layer.weights @ h[..., None])[..., 0] + layer.bias
        if layer.activation == RELU:
            rel, coeff = domains.relaxations[k], bound.A[k]
            unst, up_slope, up_icpt = rel
            grads[k] = np.where(unst & (coeff >= 0.0), coeff * z, 0.0)
            h = np.where(coeff >= 0.0, _lower_slope(rel, slopes[k]) * z, up_slope * z + up_icpt)
        else:
            h = z
    return grads


def optimize_alpha(
    net: Network, C: np.ndarray, domains: Domains, iters: int, deadline: Optional[float] = None,
) -> Tuple[Slopes, BoundResult]:
    """Maximize each spec row's concretized lower bound over its slopes, on
    each domain of a stack, by projected gradient ascent with backtracking.

    C is an (m, p) stack of spec rows; the slopes come back as (D, m, n_k)
    arrays, one row per domain and spec row, with the best iterate seen per
    row, and the bound they give, which equals compute_bounds(net, C,
    domains, slopes) bit for bit; with no ReLU layer there are no slopes, and
    the bound is that of the network alone. An infeasible domain raises
    ValueError, as in compute_bounds.

    The rows are optimized together, one bound pass per line-search round,
    yet each follows exactly its own single-row path: a row stops on an
    all-zero gradient or when 8 halvings of its step, ALPHA_STEP at first,
    find no improvement. Stopped rows stay in the stack, held at their
    slopes, and boolean masks discard their results. The gradient reuses
    the A and x_star of the bound that the current slopes produced. iters =
    0 returns the adaptive initialization: 1 where u >= |l|, else 0. Once
    deadline (a time.perf_counter() value) has passed, no further iteration
    starts. Every slope stays in [0, 1], the adaptive ones by construction
    and each step by clipping, so every iterate is sound.
    """
    bounds = domains.neuron_bounds
    cur = {k: np.repeat(adaptive_alpha(l, u)[:, None, :], len(C), 1)
           for k, (l, u) in enumerate(zip(bounds.lower, bounds.upper))
           if net.layers[k].activation == RELU}
    best = compute_bounds(net, C, domains, cur)
    active = np.ones(best.lower_bound.shape, dtype=bool)
    for _ in range(iters):
        if deadline is not None and time.perf_counter() > deadline:
            break
        grads = alpha_gradient(net, domains, cur, best)
        searching = active & np.any([(g != 0.0).any(axis=-1) for g in grads.values()], axis=0)
        active = np.zeros_like(active)  # the rows that improve go on
        trial = np.full(active.shape, ALPHA_STEP)
        for _ in range(8):
            if not searching.any():
                break
            moving = searching[..., None]
            cand = {k: np.where(moving, (v + trial[..., None] * grads[k]).clip(0.0, 1.0), v)
                    for k, v in cur.items()}
            res = compute_bounds(net, C, domains, cand)
            better = searching & (res.lower_bound > best.lower_bound)
            for k, v in cur.items():
                np.copyto(v, cand[k], where=better[..., None])
            best.put(better, res)
            active |= better
            searching &= ~better
            np.multiply(trial, 0.5, out=trial, where=searching)
        if not active.any():
            break
    return cur, best

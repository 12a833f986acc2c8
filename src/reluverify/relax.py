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

The spec rows of a sub-domain are bounded together: their coefficients ride a
leading axis as (m, 1, n) stacks, and the relaxed forward pass evaluates
W @ h on (m, n, 1) stacks. Each product is then the same matrix-vector call a
single row makes, so every row's bound, coefficients and minimizer agree bit
for bit with bounding that row alone. A flat (m, n) @ (n, p) product would
not: the matrix-matrix kernel sums in another order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import Network, RELU

# Bound crossings against a base's intervals larger than this make a region
# empty; smaller crossings are treated as floating-point slivers and collapsed
# to a point so that pruning never relies on rounding noise.
INFEASIBILITY_TOL = 1e-9


# Per layer: (active mask, unstable mask, upper slope, upper intercept).
Relaxation = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class NeuronBounds:
    """Pre-activation intervals for every hidden layer (layer k = 0 .. L-2).

    They are the whole abstraction of a region: a narrowing (a branch's
    clamp of a neuron to one sign) is written here, and propagate_bounds
    keeps it by intersection. lower[k] > upper[k] marks the region empty, a
    legitimate outcome of a narrowing; propagate_bounds then stops at that
    layer, so the lists can be shorter than the hidden layers. The intervals
    must not be modified once a layer's relaxation, adaptive slope or the
    feasibility has been read: each is computed once per instance.
    """

    lower: List[np.ndarray]
    upper: List[np.ndarray]
    _relaxations: Dict[int, Relaxation] = field(default_factory=dict, repr=False, compare=False)
    _adaptive_slopes: Dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _feasible: Optional[bool] = field(default=None, repr=False, compare=False)

    def is_feasible(self) -> bool:
        if self._feasible is None:
            self._feasible = all(np.all(l <= u) for l, u in zip(self.lower, self.upper))
        return self._feasible

    def relaxation(self, k: int) -> Relaxation:
        """Triangle relaxation of layer k's ReLUs, computed once per instance.

        A neuron is active when l >= 0 (l = 0 counts as active), inactive when
        u <= 0 otherwise, and unstable when l < 0 < u. The upper line is the
        identity on active neurons, zero on inactive ones, and on unstable ones
        the chord through (l, 0) and (u, u): slope u / (u - l), intercept
        -u * l / (u - l). The lower line (alpha * z) depends on the slopes
        being optimized and is left to the caller.
        """
        rel = self._relaxations.get(k)
        if rel is None:
            l, u = self.lower[k], self.upper[k]
            act = l >= 0.0
            unst = (l < 0.0) & (u > 0.0)
            denom = np.where(unst, u - l, 1.0)
            up_slope = np.where(unst, u / denom, act)
            up_icpt = np.where(unst, -u * l / denom, 0.0)
            rel = self._relaxations[k] = (act, unst, up_slope, up_icpt)
        return rel

    def adaptive_slope(self, k: int) -> np.ndarray:
        """Layer k's lower-line slope under the adaptive alpha, computed once per instance."""
        slope = self._adaptive_slopes.get(k)
        if slope is None:
            slope = self._adaptive_slopes[k] = _lower_slope(self.relaxation(k),
                                                            _adaptive_alpha(self, k))
        return slope

    def unstable_mask(self, k: int) -> np.ndarray:
        return self.relaxation(k)[1]


def _adaptive_alpha(bounds: NeuronBounds, k: int) -> np.ndarray:
    return np.where(bounds.upper[k] >= -bounds.lower[k], 1.0, 0.0)


# Lower-line slopes per ReLU layer: layer k maps to an (n_k,) array shared by
# every spec row or an (m, n_k) array, one row per spec row. Only the entries
# at unstable neurons matter; a layer left out, or no slopes at all (None),
# takes the adaptive slope. A slope outside [0, 1] would make the bound
# unsound; the adaptive ones are 0 or 1 and optimize_alpha clips its steps.
Slopes = Dict[int, np.ndarray]


@dataclass
class BoundResult:
    """A sound linear lower bound w @ x + b of margin rows over a sub-domain.

    A[k] holds the backward coefficients on layer k's post-activations,
    recorded before that layer's relaxation was traversed; w is the same
    quantity at the input layer, and x_star the bound's box minimizer: the
    closed-form candidate counterexample, at which the bound takes the value
    lower_bound. For one row, b and lower_bound are floats; for a stack of m
    rows every field gains a leading axis of length m.
    """

    w: np.ndarray
    b: float
    lower_bound: float
    A: Dict[int, np.ndarray]
    x_star: np.ndarray

    def row(self, r: int) -> "BoundResult":
        """Spec row r of a stacked result, as if it had been bounded alone."""
        return BoundResult(self.w[r], float(self.b[r]), float(self.lower_bound[r]),
                           {k: v[r] for k, v in self.A.items()}, self.x_star[r])

    def take(self, rows: np.ndarray) -> "BoundResult":
        """The stacked result restricted to the given spec rows."""
        return BoundResult(self.w[rows], self.b[rows], self.lower_bound[rows],
                           {k: v[rows] for k, v in self.A.items()}, self.x_star[rows])

    def put(self, rows: np.ndarray, other: "BoundResult") -> None:
        """Overwrite the given spec rows in place with the rows of other."""
        self.w[rows] = other.w
        self.b[rows] = other.b
        self.lower_bound[rows] = other.lower_bound
        self.x_star[rows] = other.x_star
        for k, v in self.A.items():
            v[rows] = other.A[k]


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
    """Lower-line slope per neuron: 1 active, 0 inactive, alpha unstable."""
    act, unst, _, _ = rel
    return np.where(unst, alpha, act)


def _slope_for(slopes: Optional[Slopes], bounds: NeuronBounds, k: int) -> np.ndarray:
    """Layer k's lower-line slope under slopes, else the memoized adaptive one."""
    if slopes is not None and k in slopes:
        return _lower_slope(bounds.relaxation(k), slopes[k])
    return bounds.adaptive_slope(k)


def _relu_backward(
    lam: np.ndarray, rel: Relaxation, lower_slope: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Push backward coefficients through one ReLU layer's relaxation.

    lam has shape (..., n) and the lower-line slope broadcasts against it;
    returns the new coefficients on the pre-activations and the per-row
    offset contribution from upper-line intercepts.
    """
    _, _, up_slope, up_icpt = rel
    pos = lam >= 0.0  # ties at exactly 0 take the lower relaxation
    slope = np.where(pos, lower_slope, up_slope)
    off_delta = np.where(pos, 0.0, lam * up_icpt).sum(axis=-1)
    return lam * slope, off_delta


def _backward_from_layer(
    net: Network,
    obj_layer: int,
    lam: np.ndarray,
    off: np.ndarray,
    bounds: NeuronBounds,
    slopes: Optional[Slopes],
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Linear lower bounds of c_mat @ z^(obj_layer) as functions of the input.

    lam and off are c_mat @ W and c_mat @ b of layer obj_layer. c_mat is
    (r, p), rows sharing one set of slopes, or (m, 1, p), spec rows with
    per-row slopes of shape (m, n_k). Returns (coeffs on x, offsets, A) where
    A maps each traversed ReLU layer to the coefficients recorded before its
    relaxation; all keep c_mat's leading axes.
    """
    A: Dict[int, np.ndarray] = {}
    for k in range(obj_layer - 1, -1, -1):
        lyr = net.layers[k]
        if lyr.activation == RELU:
            A[k] = lam
            slope = _slope_for(slopes, bounds, k)
            if slope.ndim == 2:
                slope = slope[:, None, :]
            lam, delta = _relu_backward(lam, bounds.relaxation(k), slope)
            off = off + delta
        off = off + lam @ lyr.bias
        lam = lam @ lyr.weights
    return lam, off, A


def compute_bounds(net: Network, C, domain, slopes: Optional[Slopes] = None):
    """Sound linear lower bounds of margin rows over a sub-domain.

    C is one row or an (m, p) stack of rows; slopes are shared or hold one
    row per spec row. For every x in the sub-domain box whose
    pre-activations lie in its neuron bounds, w @ x + b <= c_row @ f(x) for
    each row.
    A stack gives each row exactly the result of bounding it alone. Raises
    ValueError when the domain's neuron bounds signal an empty region, which
    has no bound to give.
    """
    C = np.asarray(C, dtype=np.float64)
    rows = np.atleast_2d(C)
    bounds = domain.neuron_bounds
    if not bounds.is_feasible():
        raise ValueError("compute_bounds: the sub-domain is infeasible")
    c_mat, last = rows[:, None, :], net.layers[-1]
    lam, off, A = _backward_from_layer(net, net.n_layers - 1, c_mat @ last.weights,
                                       c_mat @ last.bias, bounds, slopes)
    lam, off = lam[:, 0, :], off[:, 0]
    x_star, lb = concretize(lam, off, domain.box_lower, domain.box_upper)
    res = BoundResult(lam, off, lb, {k: v[:, 0, :] for k, v in A.items()}, x_star)
    return res.row(0) if C.ndim == 1 else res


def propagate_bounds(
    net: Network,
    box_lower: np.ndarray,
    box_upper: np.ndarray,
    base: Optional[NeuronBounds] = None,
    start_layer: int = 0,
) -> NeuronBounds:
    """Pre-activation bounds for every hidden layer, earlier layers first.

    Each layer is bounded by a backward pass with adaptive slopes using the
    layers already bounded, intersected with a plain interval-arithmetic pass
    (both enclose the true range, so the intersection does too and is never
    looser than either). With a base (the bounds of an enclosing region),
    layers below start_layer are taken from it as they are and recomputed
    layers are intersected with it, so every narrowing written into the base
    holds in the result.

    Crossings (l > u) are rounding slivers and collapse to their midpoint,
    unless a base is given and one exceeds INFEASIBILITY_TOL: the region is
    then empty, and the result stops at that crossed layer. Without a base
    the box alone is never empty, so every crossing collapses. The result
    keeps its feasibility and the relaxations and adaptive slopes its own
    passes computed.
    """
    if start_layer > 0 and base is None:
        raise ValueError("propagate_bounds: start_layer > 0 needs the parent's bounds as base")
    work = NeuronBounds([], [])
    feasible = True
    post_lo = box_lower
    post_hi = box_upper
    for k in range(net.n_layers - 1):
        layer = net.layers[k]
        if k < start_layer:
            l, u = base.lower[k], base.upper[k]
        else:
            n_k = layer.out_dim
            lam, off, _ = _backward_from_layer(net, k, *layer.stacked_pm, work, None)
            _, vals = concretize(lam, off, box_lower, box_upper)
            Wp, Wn = layer.weight_parts
            l = np.maximum(vals[:n_k], Wp @ post_lo + Wn @ post_hi + layer.bias)
            u = np.minimum(-vals[n_k:], Wp @ post_hi + Wn @ post_lo + layer.bias)
            if base is not None:
                l = np.maximum(l, base.lower[k])
                u = np.minimum(u, base.upper[k])
        if not np.all(l <= u):  # a crossing, or a NaN left by an overflow
            if base is not None and np.any(l - u > INFEASIBILITY_TOL):
                return NeuronBounds(work.lower + [l], work.upper + [u], work._relaxations,
                                    work._adaptive_slopes, False)
            crossed = l > u
            mid = 0.5 * (l + u)
            l = np.where(crossed, mid, l)
            u = np.where(crossed, mid, u)
            feasible = feasible and bool(np.all(l <= u))
        work.lower.append(l)
        work.upper.append(u)
        if layer.activation == RELU:
            post_lo, post_hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        else:
            post_lo, post_hi = l, u
    work._feasible = feasible
    return work


def _relaxed_forward(
    net: Network,
    x_star: np.ndarray,
    bounds: NeuronBounds,
    A: Dict[int, np.ndarray],
    slopes: Optional[Slopes],
) -> Dict[int, np.ndarray]:
    """Pre-activation values at x_star under the relaxation lines the backward
    pass chose. These equal the sensitivities of the concretized bound to the
    pre-activation coefficients, which is what the alpha gradient needs.

    x_star is one minimizer or an (m, n_in) stack, one per spec row, with A
    shaped to match; each W @ h runs on an (m, n, 1) stack, as one row at a
    time would.
    """
    h = x_star
    pre: Dict[int, np.ndarray] = {}
    for k in range(net.n_layers - 1):
        layer = net.layers[k]
        z = (layer.weights @ h[..., None])[..., 0] + layer.bias
        if layer.activation == RELU:
            pre[k] = z
            _, _, up_slope, up_icpt = bounds.relaxation(k)
            lower = _slope_for(slopes, bounds, k) * z
            h = np.where(A[k] >= 0.0, lower, up_slope * z + up_icpt)
        else:
            h = z
    return pre


def alpha_gradient(net: Network, domain, slopes: Optional[Slopes],
                   bound: BoundResult) -> Dict[int, np.ndarray]:
    """Analytic derivative of each row's concretized lower bound w.r.t. its slopes.

    bound is compute_bounds(net, C, domain, slopes) for one row or a stack of
    rows; its A and x_star are all the derivative needs. For an unstable
    neuron whose backward coefficient is non-negative the bound is locally
    linear in its slope with derivative A * z_tilde, where z_tilde is the
    neuron's pre-activation under the relaxed forward evaluation at the
    bound's box minimizer. All other neurons contribute zero. Returns one
    array per ReLU layer, shaped as that layer's A.
    """
    bounds = domain.neuron_bounds
    pre = _relaxed_forward(net, bound.x_star, bounds, bound.A, slopes)
    return {k: np.where(bounds.unstable_mask(k) & (coeff >= 0.0), coeff * pre[k], 0.0)
            for k, coeff in bound.A.items()}


def optimize_alpha(
    net: Network, C, domain, iters: int, step: float, deadline: Optional[float] = None
) -> Tuple[Slopes, Optional[BoundResult]]:
    """Maximize each row's concretized lower bound over its slopes by projected
    gradient ascent with backtracking.

    Returns the best iterate seen per row and the bound it gives, which equals
    compute_bounds(net, C, domain, slopes) bit for bit; the bound is None when
    there is nothing to optimize (no ReLU layer) and no slopes come back. An
    infeasible domain raises ValueError, as in compute_bounds.

    C is one row or an (m, p) stack of rows; a stack gets (m, n_k) slopes, one
    row per spec row. The rows are optimized together, one bound pass per
    line-search round, yet each follows exactly its own single-row path: a row
    stops on an all-zero gradient or when 8 halvings of its step find no
    improvement, and then leaves the stack. The gradient reuses the A and
    x_star of the bound that the current slopes produced. iters = 0 returns
    the adaptive initialization: 1 where u >= |l|, else 0. Once deadline (a
    time.perf_counter() value) has passed, no further iteration starts. Every
    slope stays in [0, 1], the adaptive ones by construction and each step by
    clipping, so every iterate is sound.
    """
    C = np.asarray(C, dtype=np.float64)
    rows = np.atleast_2d(C)
    bounds = domain.neuron_bounds
    cur = {k: np.repeat(_adaptive_alpha(bounds, k)[None, :], len(rows), axis=0)
           for k in range(len(bounds.lower)) if net.layers[k].activation == RELU}
    if not cur:
        return cur, None
    best = compute_bounds(net, rows, domain, cur)
    active = np.arange(len(rows))
    for _ in range(iters):
        if deadline is not None and time.perf_counter() > deadline:
            break
        if len(active) == len(rows):
            grads = alpha_gradient(net, domain, cur, best)
        else:
            grads = alpha_gradient(net, domain, {k: v[active] for k, v in cur.items()},
                                   best.take(active))
        moving = np.zeros(len(active), dtype=bool)
        for g in grads.values():
            moving |= (g != 0.0).any(axis=1)
        active = active[moving]
        grads = {k: g[moving] for k, g in grads.items()}
        trial = np.full(len(active), step)
        improved = np.zeros(len(active), dtype=bool)
        searching = np.arange(len(active))  # positions in active still backtracking
        for _ in range(8):
            if not len(searching):
                break
            r = active[searching]
            cand = {k: (v[r] + trial[searching, None] * grads[k][searching]).clip(0.0, 1.0)
                    for k, v in cur.items()}
            res = compute_bounds(net, rows[r], domain, cand)
            better = res.lower_bound > best.lower_bound[r]
            if better.any():
                for k, v in cur.items():
                    v[r[better]] = cand[k][better]
                best.put(r[better], res.take(better))
                improved[searching[better]] = True
            searching = searching[~better]
            trial[searching] *= 0.5
        active = active[improved]
        if not len(active):
            break
    if C.ndim == 1:
        return {k: v[0] for k, v in cur.items()}, best.row(0)
    return cur, best

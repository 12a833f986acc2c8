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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import Network, RELU

# Clamp-induced bound crossings larger than this prune a sub-domain as
# infeasible; smaller crossings are treated as floating-point slivers and
# collapsed to a point so that pruning never relies on rounding noise.
INFEASIBILITY_TOL = 1e-9


# Per layer: (active mask, unstable mask, upper slope, upper intercept).
Relaxation = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class NeuronBounds:
    """Pre-activation intervals for every hidden layer (layer k = 0 .. L-2).

    lower[k] > upper[k] anywhere marks the sub-domain infeasible; that is a
    legitimate signal produced by split clamping, not an error. The intervals
    must not be modified once a layer's relaxation has been read.
    """

    lower: List[np.ndarray]
    upper: List[np.ndarray]
    infeasible_layer: Optional[int] = None
    _relaxations: Dict[int, Relaxation] = field(default_factory=dict, repr=False, compare=False)

    def is_feasible(self) -> bool:
        if self.infeasible_layer is not None:
            return False
        return all(np.all(l <= u) for l, u in zip(self.lower, self.upper))

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

    def unstable_mask(self, k: int) -> np.ndarray:
        return self.relaxation(k)[1]

    def n_unstable(self, net: Network) -> int:
        total = 0
        for k in range(len(self.lower)):
            if net.layers[k].activation == RELU:
                total += int(np.count_nonzero(self.unstable_mask(k)))
        return total


def _adaptive_alpha(bounds: NeuronBounds, k: int) -> np.ndarray:
    return np.where(bounds.upper[k] >= -bounds.lower[k], 1.0, 0.0)


@dataclass
class RelaxationParams:
    """Lower-bound slope per neuron for each ReLU layer; entries live in [0, 1].

    Only the entries at unstable neurons matter; stable neurons are substituted
    exactly regardless of the stored slope.
    """

    alpha: Dict[int, np.ndarray]

    def __post_init__(self):
        for k, arr in self.alpha.items():
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"alpha[{k}]: slopes must lie in [0, 1]")

    @classmethod
    def adaptive(cls, net: Network, bounds: NeuronBounds) -> "RelaxationParams":
        """Default slopes: 1 where u >= |l|, else 0 (good zero-iteration baseline)."""
        return cls({k: _adaptive_alpha(bounds, k) for k in range(len(bounds.lower))
                    if net.layers[k].activation == RELU})

    def copy(self) -> "RelaxationParams":
        return RelaxationParams({k: v.copy() for k, v in self.alpha.items()})


@dataclass
class BoundResult:
    """A sound linear lower bound w @ x + b of one margin row over a sub-domain.

    A[k] holds the backward coefficients on layer k's post-activations,
    recorded before that layer's relaxation was traversed; w is the same
    quantity at the input layer. neuron_bounds is the snapshot the pass used.
    """

    w: Optional[np.ndarray]
    b: float
    lower_bound: float
    A: Dict[int, np.ndarray]
    neuron_bounds: NeuronBounds
    feasible: bool = True

    @classmethod
    def infeasible_marker(cls, bounds: NeuronBounds) -> "BoundResult":
        return cls(None, float("nan"), float("inf"), {}, bounds, feasible=False)


def concretize(lam: np.ndarray, off, lo: np.ndarray, hi: np.ndarray):
    """Box minimizer and minimum of the linear function(s) lam @ x + off.

    x_star takes the lower corner where the coefficient is non-negative and
    the upper corner otherwise; the minimum is then evaluated at x_star, so a
    bound and its witness's value agree bit for bit. lam may hold one row or
    a stack of rows (one value per row).
    """
    x_star = np.where(lam >= 0.0, lo, hi)
    return x_star, (lam * x_star).sum(axis=-1) + off


def _alpha_for(params: Optional[RelaxationParams], bounds: NeuronBounds, k: int) -> np.ndarray:
    if params is not None and k in params.alpha:
        return params.alpha[k]
    return _adaptive_alpha(bounds, k)


def _lower_slope(rel: Relaxation, alpha: np.ndarray) -> np.ndarray:
    """Lower-line slope per neuron: 1 active, 0 inactive, alpha unstable."""
    act, unst, _, _ = rel
    return np.where(unst, np.clip(alpha, 0.0, 1.0), act)


def _relu_backward(
    lam: np.ndarray, rel: Relaxation, alpha: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Push backward coefficients through one ReLU layer's relaxation.

    lam has shape (m, n); returns the new coefficients on the pre-activations
    and the per-row offset contribution from upper-line intercepts.
    """
    _, _, up_slope, up_icpt = rel
    pos = lam >= 0.0  # ties at exactly 0 take the lower relaxation
    slope = np.where(pos, _lower_slope(rel, alpha), up_slope)
    off_delta = np.where(pos, 0.0, lam * up_icpt).sum(axis=1)
    return lam * slope, off_delta


def _backward_from_layer(
    net: Network,
    obj_layer: int,
    c_mat: np.ndarray,
    bounds: NeuronBounds,
    params: Optional[RelaxationParams],
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Linear lower bounds of c_mat @ z^(obj_layer) as functions of the input.

    Returns (coeffs on x, offsets, A) where A maps each traversed ReLU layer
    to the coefficients recorded before its relaxation.
    """
    layer = net.layers[obj_layer]
    lam = c_mat @ layer.weights
    off = c_mat @ layer.bias
    A: Dict[int, np.ndarray] = {}
    for k in range(obj_layer - 1, -1, -1):
        lyr = net.layers[k]
        if lyr.activation == RELU:
            A[k] = lam
            lam, delta = _relu_backward(lam, bounds.relaxation(k), _alpha_for(params, bounds, k))
            off = off + delta
        off = off + lam @ lyr.bias
        lam = lam @ lyr.weights
    return lam, off, A


def compute_bounds(net: Network, c_row, domain, params: Optional[RelaxationParams] = None):
    """Sound linear lower bound of one margin row over a sub-domain.

    For every x in the sub-domain box that satisfies all split constraints,
    w @ x + b <= c_row @ f(x). Returns an infeasible marker instead of a bound
    when the domain's neuron bounds signal an empty region.
    """
    bounds = domain.neuron_bounds
    if not bounds.is_feasible():
        return BoundResult.infeasible_marker(bounds)
    c_row = np.asarray(c_row, dtype=np.float64)
    lam, off, A = _backward_from_layer(net, net.n_layers - 1, c_row[None, :], bounds, params)
    _, lb = concretize(lam[0], off[0], domain.box_lower, domain.box_upper)
    return BoundResult(lam[0], float(off[0]), float(lb), {k: v[0] for k, v in A.items()}, bounds)


def propagate_bounds(
    net: Network,
    box_lower: np.ndarray,
    box_upper: np.ndarray,
    splits: Dict[Tuple[int, int], int],
    params: Optional[RelaxationParams] = None,
    base: Optional[NeuronBounds] = None,
    start_layer: int = 0,
) -> NeuronBounds:
    """Pre-activation bounds for every hidden layer, earlier layers first.

    Each layer is bounded by a backward pass using the layers already bounded,
    intersected with a plain interval-arithmetic pass (both enclose the true
    range, so the intersection does too and is never looser than either), then
    split clamps are applied: sign +1 lifts the lower bound to 0, sign -1 drops
    the upper bound to 0. With a base (the parent's bounds), layers below
    start_layer are copied instead of recomputed and recomputed layers are
    intersected with the base as well. The result carries no relaxations yet.
    """
    if start_layer > 0 and base is None:
        raise ValueError("propagate_bounds: start_layer > 0 needs the parent's bounds as base")
    n_hidden = net.n_layers - 1
    work = NeuronBounds([None] * n_hidden, [None] * n_hidden)  # type: ignore[list-item]
    infeasible_at: Optional[int] = None
    post_lo = box_lower
    post_hi = box_upper
    for k in range(n_hidden):
        layer = net.layers[k]
        if base is not None and (k < start_layer or infeasible_at is not None):
            l = base.lower[k].copy()
            u = base.upper[k].copy()
        elif infeasible_at is not None:
            l = np.zeros(layer.out_dim)
            u = np.zeros(layer.out_dim)
        else:
            n_k = layer.out_dim
            eye = np.eye(n_k)
            lam, off, _ = _backward_from_layer(net, k, np.vstack([eye, -eye]), work, params)
            _, vals = concretize(lam, off, box_lower, box_upper)
            l = vals[:n_k].copy()
            u = -vals[n_k:]
            Wp = np.maximum(layer.weights, 0.0)
            Wn = np.minimum(layer.weights, 0.0)
            l = np.maximum(l, Wp @ post_lo + Wn @ post_hi + layer.bias)
            u = np.minimum(u, Wp @ post_hi + Wn @ post_lo + layer.bias)
            if base is not None:
                l = np.maximum(l, base.lower[k])
                u = np.minimum(u, base.upper[k])
        for (sl, sj), sign in splits.items():
            if sl != k:
                continue
            if sign > 0:
                l[sj] = max(l[sj], 0.0)
            else:
                u[sj] = min(u[sj], 0.0)
        crossed = l > u
        if np.any(crossed):
            if infeasible_at is None and np.any(l - u > INFEASIBILITY_TOL):
                infeasible_at = k
            else:
                mid = 0.5 * (l + u)
                l = np.where(crossed, mid, l)
                u = np.where(crossed, mid, u)
        work.lower[k] = l
        work.upper[k] = u
        if layer.activation == RELU:
            post_lo, post_hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        else:
            post_lo, post_hi = l, u
    # A fresh object, so sub-domains waiting in the worklist hold no relaxations.
    return NeuronBounds(work.lower, work.upper, infeasible_at)


def _relaxed_forward(
    net: Network,
    x_star: np.ndarray,
    bounds: NeuronBounds,
    A: Dict[int, np.ndarray],
    params: Optional[RelaxationParams],
) -> Dict[int, np.ndarray]:
    """Pre-activation values at x_star under the relaxation lines the backward
    pass chose. These equal the sensitivities of the concretized bound to the
    pre-activation coefficients, which is what the alpha gradient needs.
    """
    h = x_star
    pre: Dict[int, np.ndarray] = {}
    for k in range(net.n_layers - 1):
        layer = net.layers[k]
        z = layer.weights @ h + layer.bias
        if layer.activation == RELU:
            pre[k] = z
            rel = bounds.relaxation(k)
            _, _, up_slope, up_icpt = rel
            lower = _lower_slope(rel, _alpha_for(params, bounds, k)) * z
            h = np.where(A[k] >= 0.0, lower, up_slope * z + up_icpt)
        else:
            h = z
    return pre


def alpha_gradient(
    net: Network, c_row, domain, params: RelaxationParams
) -> Dict[int, np.ndarray]:
    """Analytic derivative of the concretized lower bound w.r.t. each slope.

    For an unstable neuron whose backward coefficient is non-negative the bound
    is locally linear in its slope with derivative A * z_tilde, where z_tilde is
    the neuron's pre-activation under the relaxed forward evaluation at the
    bound's box minimizer. All other neurons contribute zero.
    """
    res = compute_bounds(net, c_row, domain, params)
    if not res.feasible:
        return {k: np.zeros_like(v) for k, v in params.alpha.items()}
    x_star, _ = concretize(res.w, res.b, domain.box_lower, domain.box_upper)
    pre = _relaxed_forward(net, x_star, res.neuron_bounds, res.A, params)
    grads: Dict[int, np.ndarray] = {}
    for k, alpha in params.alpha.items():
        coeff = res.A.get(k)
        if coeff is None:
            grads[k] = np.zeros_like(alpha)
            continue
        unst = res.neuron_bounds.unstable_mask(k)
        grads[k] = np.where(unst & (coeff >= 0.0), coeff * pre[k], 0.0)
    return grads


def optimize_alpha(net: Network, c_row, domain, iters: int, step: float) -> RelaxationParams:
    """Maximize the concretized lower bound over the slopes by projected
    gradient ascent with backtracking; always returns the best iterate seen.

    iters = 0 returns the adaptive initialization unchanged.
    """
    bounds = domain.neuron_bounds
    params = RelaxationParams.adaptive(net, bounds)
    if not bounds.is_feasible() or not params.alpha:
        return params
    best = params.copy()
    best_lb = compute_bounds(net, c_row, domain, params).lower_bound
    cur = params
    for _ in range(iters):
        grads = alpha_gradient(net, c_row, domain, cur)
        if all(np.all(g == 0.0) for g in grads.values()):
            break
        trial = step
        improved = False
        for _ in range(8):
            cand = RelaxationParams(
                {k: np.clip(cur.alpha[k] + trial * grads[k], 0.0, 1.0) for k in cur.alpha}
            )
            lb = compute_bounds(net, c_row, domain, cand).lower_bound
            if lb > best_lb:
                best_lb = lb
                best = cand.copy()
                cur = cand
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
    return best

"""Branching scores for unstable neurons.

The main heuristic masks the relaxation gap to neurons whose backward
coefficient is negative: there the bound leans on the static upper chord,
which only a split can tighten. Non-negative ones lean on the lower slope,
optimized at the root only (every other node bounds with the root's slopes).
The rest are the comparison variants (symmetric gap, gradient/center/
intercept ablations, the one-shot intercept-magnitude baseline, raw width).

Every kind is one masked array formula per layer, |coef| * gap: the
coefficient is the backward coefficient A (the concrete margin gradient for
grad), and the gap is the upper chord minus the ReLU at a point (the witness,
or the box center for center), the upper-line intercept (babsr, intercept),
or the interval width (width).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import model
from .relax import BoundResult, Slopes

DRG = "drg"
DRG_SYMMETRIC = "drg_symmetric"
BABSR = "babsr"
CENTER = "center"
INTERCEPT = "intercept"
GRAD = "grad"
WIDTH = "width"
KINDS = (DRG, DRG_SYMMETRIC, BABSR, CENTER, INTERCEPT, GRAD, WIDTH)

# Scores at or below this are treated as zero: no neuron is picked on them,
# since numerical noise should not masquerade as guidance.
ZERO_SCORE_TOL = 1e-12

# Per ReLU layer, (D, n_k) scores, one per domain and neuron; -inf marks a
# neuron that cannot be split (stable, or already split and clamped stable).
Scores = Dict[int, np.ndarray]


def check_kind(kind: str) -> None:
    """Raise InputError unless kind names a heuristic."""
    if kind not in KINDS:
        raise model.InputError(f"unknown heuristic {kind!r}; valid kinds: {', '.join(KINDS)}")


def score_branches(
    kind: str,
    net: model.Network,
    c_rows: np.ndarray,
    bound: BoundResult,
    domains,
    preacts: List[np.ndarray],
    slopes: Slopes,
) -> Tuple[Scores, np.ndarray]:
    """Score every unstable neuron of each domain of a stack for a heuristic kind.

    bound holds each domain's bound of its spec row, c_rows[i], over the
    relax.Domains stack domains (leading axis D), under its relaxations;
    preacts are the network's pre-activations at the witnesses (from
    model.forward), read by drg, drg_symmetric and grad; slopes are the rows'
    lower-line slopes, (D, n_k) per ReLU layer, read by drg_symmetric. Each
    domain's numbers are the ones it gets alone.

    Returns (scores, gap clamp events per domain). A clamp event is a neuron
    scored on the upper side whose raw chord-minus-ReLU gap at the evaluation
    point is negative, i.e. the point lies outside [l, u]; the witness can,
    because it ignores split constraints. Such gaps are clamped to zero.
    """
    nb = domains.neuron_bounds
    coefs = bound.A
    if kind == GRAD:
        coefs = model.margin_preact_gradients(net, c_rows, preacts)
    if kind == CENTER:
        # lo + hi may overflow; this equals 0.5 * (lo + hi) whenever that sum is finite and normal
        _, preacts = model.forward(net, 0.5 * domains.box_lower + 0.5 * domains.box_upper)
    scores: Scores = {}
    clamps = np.zeros(len(domains.box_lower), dtype=np.int64)
    for k in sorted(bound.A):
        unst, up_slope, up_icpt = (a[:, 0] for a in domains.relaxations[k])
        coef = coefs[k]
        if kind == WIDTH:
            score = nb.upper[k] - nb.lower[k]
        elif kind in (BABSR, INTERCEPT):
            score = np.abs(coef) * up_icpt
            if kind == INTERCEPT:
                score = np.where(coef < 0.0, score, 0.0)
        else:
            z = preacts[k]
            raw_gap = up_slope * z + up_icpt - np.maximum(z, 0.0)
            upper_side = coef < 0.0
            clamps += np.count_nonzero(unst & upper_side & (raw_gap < 0.0), axis=-1)
            if kind == DRG_SYMMETRIC:
                # the score is kept only at unstable neurons, whose lower slope is alpha
                other = np.maximum(z, 0.0) - slopes[k] * z
            else:
                other = 0.0
            score = np.abs(coef) * np.where(upper_side, np.maximum(raw_gap, 0.0), other)
        scores[k] = np.where(unst, score, -np.inf)
    return scores, clamps


def select_branch(scores: Scores) -> Dict[int, Tuple[int, int]]:
    """Each domain's (layer, neuron) pick, keyed by its index in the stack.

    The argmax within each layer, then a strict > across layers in order, so
    ties break toward the lower layer, then neuron, and a NaN leaves the other
    layers' picks standing. Only scores above ZERO_SCORE_TOL are picked.
    """
    best, picks = ZERO_SCORE_TOL, {}
    for k in sorted(scores):
        j, top = scores[k].argmax(axis=-1), scores[k].max(axis=-1)  # top is the score at j
        better = top > best
        best = np.where(better, top, best)
        picks.update((i, (k, n)) for i, n in zip(np.flatnonzero(better).tolist(),
                                                 j[better].tolist()))
    return picks

"""Branching scores for unstable neurons.

The main heuristic masks the relaxation gap to neurons whose backward
coefficient is negative: there the bound leans on the static upper chord,
which only a split can tighten, while non-negative coefficients lean on the
adjustable lower slope that the optimizer already handles. The remaining kinds
are the comparison variants (symmetric gap, gradient/center/intercept
ablations, the one-shot intercept-magnitude baseline, and raw interval width).

Every kind is one masked array formula per layer, |coef| * gap: the
coefficient is the backward coefficient A (the concrete margin gradient for
grad), and the gap is the upper chord minus the ReLU at a point (the witness,
or the box center for center), the upper-line intercept (babsr, intercept),
or the interval width (width).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from . import model
from .relax import BoundResult, RelaxationParams, _slope_for

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

# Per ReLU layer, one score per neuron; -inf marks a neuron that cannot be
# split (stable, or already split and therefore clamped stable).
Scores = Dict[int, np.ndarray]


def check_kind(kind: str) -> None:
    """Raise InputError unless kind names a heuristic."""
    if kind not in KINDS:
        raise model.InputError(f"unknown heuristic {kind!r}; valid kinds: {', '.join(KINDS)}")


def score_branches(
    kind: str,
    net: model.Network,
    c_row: np.ndarray,
    bound: BoundResult,
    domain,
    preacts: List[np.ndarray],
    params: Optional[RelaxationParams],
) -> Tuple[Scores, int]:
    """Score every unstable neuron for a heuristic kind.

    preacts are the network's pre-activations at the witness (from
    model.forward), read by drg, drg_symmetric and grad.

    Returns (scores, gap clamp events). A clamp event is a neuron scored on
    the upper side whose raw chord-minus-ReLU gap at the evaluation point is
    negative, i.e. the point lies outside [l, u]; the witness can, because it
    ignores split constraints. Such gaps are clamped to zero.
    """
    nb = bound.neuron_bounds
    coefs = bound.A
    if kind == GRAD:
        coefs = model.margin_preact_gradients(net, c_row, preacts)
    if kind == CENTER:
        _, preacts = model.forward(net, 0.5 * (domain.box_lower + domain.box_upper))
    scores: Scores = {}
    clamps = 0
    for k in sorted(bound.A):
        _, unst, up_slope, up_icpt = nb.relaxation(k)
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
            clamps += int(np.count_nonzero(unst & upper_side & (raw_gap < 0.0)))
            if kind == DRG_SYMMETRIC:
                # the lower line's slope is alpha wherever the score is kept
                other = np.maximum(z, 0.0) - _slope_for(params, nb, k) * z
            else:
                other = 0.0
            score = np.abs(coef) * np.where(upper_side, np.maximum(raw_gap, 0.0), other)
        scores[k] = np.where(unst, score, -np.inf)
    return scores, clamps


def select_branch(scores: Scores) -> Optional[Tuple[int, int]]:
    """Argmax by score; ties break toward the lower layer, then lower neuron.

    Returns None unless some neuron scores above ZERO_SCORE_TOL (stable and
    split neurons score -inf).
    """
    best, pick = ZERO_SCORE_TOL, None
    for k in sorted(scores):
        j = int(np.argmax(scores[k]))
        if scores[k][j] > best:
            best, pick = scores[k][j], (k, j)
    return pick

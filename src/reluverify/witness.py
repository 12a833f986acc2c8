"""Closed-form candidate counterexamples from linear bounds, and their
classification as concrete violations versus spurious witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .relax import BoundResult, concretize

CONCRETE_VIOLATION = "concrete_violation"
SPURIOUS = "spurious"


@dataclass(frozen=True)
class Witness:
    """Minimizer of a symbolic lower bound over the box, with its concrete margin.

    x_star always sits on box corners. It is not clipped by split constraints,
    so it may lie outside the sub-domain's exact region; the classification and
    the branching scores still use it as the bound's minimizer.
    """

    x_star: np.ndarray
    abstract_margin: float
    concrete_margin: np.ndarray
    kind: str

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "abstract_margin": self.abstract_margin,
            "concrete_margin": self.concrete_margin.tolist(),
            "kind": self.kind,
        }


def construct_witness(bound: BoundResult, box_lower, box_upper) -> np.ndarray:
    """Box minimizer of w @ x + b: lower corner where w_k >= 0, upper otherwise."""
    if not bound.feasible:
        raise ValueError("construct_witness: bound is an infeasible marker")
    lo = np.asarray(box_lower, dtype=np.float64)
    hi = np.asarray(box_upper, dtype=np.float64)
    x_star, _ = concretize(bound.w, bound.b, lo, hi)
    return x_star


def validate_witness(
    net: model.Network, C, x_star, bound: Optional[BoundResult] = None
) -> Witness:
    """Evaluate the concrete margin at x_star and classify the candidate.

    A concrete_violation terminates the whole verification with Unsafe; a
    spurious witness feeds the branching heuristic. The abstract margin is
    filled in from the bound when one is supplied.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    concrete = model.margin(net, C, x_star)
    kind = CONCRETE_VIOLATION if float(concrete.min()) <= 0.0 else SPURIOUS
    if bound is not None and bound.feasible:
        # The box [x_star, x_star] has x_star as its minimizer, so this is the
        # bound's own value whenever x_star came from construct_witness.
        abstract = float(concretize(bound.w, bound.b, x_star, x_star)[1])
    else:
        abstract = float("nan")
    return Witness(x_star, abstract, concrete, kind)

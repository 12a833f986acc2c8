"""Classification of a bound's closed-form minimizer as a concrete violation
or a spurious counterexample."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import model
from .relax import BoundResult

CONCRETE_VIOLATION = "concrete_violation"
SPURIOUS = "spurious"


@dataclass(frozen=True)
class Witness:
    """Minimizer of a symbolic lower bound over the box, with its concrete margin.

    x_star always sits on box corners. It is not clipped by split constraints,
    so it may lie outside the sub-domain's exact region; the classification and
    the branching scores still use it as the bound's minimizer. preacts holds
    the network's pre-activations at x_star, from the pass that gave the
    concrete margin.
    """

    x_star: np.ndarray
    abstract_margin: float
    concrete_margin: np.ndarray
    kind: str
    preacts: List[np.ndarray] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "abstract_margin": self.abstract_margin,
            "concrete_margin": self.concrete_margin.tolist(),
            "kind": self.kind,
        }


def validate_witness(net: model.Network, C, bound: BoundResult) -> Witness:
    """Run the network once at the bound's minimizer and classify it.

    The abstract margin is the bound itself, its value at x_star. A
    concrete_violation terminates the whole verification with Unsafe; a
    spurious witness feeds the branching heuristic.
    """
    logits, preacts = model.forward(net, bound.x_star)
    concrete = np.asarray(C, dtype=np.float64) @ logits
    kind = CONCRETE_VIOLATION if float(concrete.min()) <= 0.0 else SPURIOUS
    return Witness(bound.x_star, float(bound.lower_bound), concrete, kind, preacts)

"""The bounds' closed-form minimizers, run through the concrete network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from . import model
from .relax import BoundResult


@dataclass(frozen=True)
class Witness:
    """Minimizer of a symbolic lower bound over the box, with its concrete margin.

    x_star always sits on box corners. It is not clipped by split constraints,
    so it may lie outside the sub-domain's exact region; the branching scores
    still use it as the bound's minimizer. A stack has a leading domain axis.
    Whether it violates is decided by bab.branchings alone; the only witness a
    run reports is a concrete violation, the kind to_dict writes.
    """

    x_star: np.ndarray
    abstract_margin: Union[float, np.ndarray]
    concrete_margin: np.ndarray

    def __getitem__(self, i: int) -> "Witness":
        return Witness(self.x_star[i], float(self.abstract_margin[i]), self.concrete_margin[i])

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "abstract_margin": self.abstract_margin,
            "concrete_margin": self.concrete_margin.tolist(),
            "kind": "concrete_violation",
        }


def validate_witness(net: model.Network, C, bound: BoundResult) -> Tuple[Witness, List[np.ndarray]]:
    """Run the network once at each domain's minimizer.

    bound holds one spec row of each of D domains, whose witnesses come back
    stacked, with the network's pre-activations at them (for the branching
    scores). The abstract margin is the bound itself, its value at x_star.
    """
    logits, preacts = model.forward(net, bound.x_star)
    concrete = (np.asarray(C, dtype=np.float64) @ logits[..., None])[..., 0]
    return Witness(bound.x_star, bound.lower_bound, concrete), preacts

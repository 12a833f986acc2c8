"""The one counterexample a run reports, and the concrete pass that finds it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import model


@dataclass(frozen=True)
class Witness:
    """The one counterexample a run reports: the minimizer of a spec row's
    symbolic lower bound over the box, the bound there, and every spec row's
    concrete margin at it, one of them at most 0.

    x_star always sits on box corners. It is not clipped by split constraints,
    so it may lie outside the sub-domain's exact region. bab.branchings alone
    decides that a witness violates, and makes the Witness of it.
    """

    x_star: np.ndarray
    abstract_margin: float
    concrete_margin: np.ndarray

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "abstract_margin": self.abstract_margin,
            "concrete_margin": self.concrete_margin.tolist(),
            "kind": "concrete_violation",
        }


def validate_witness(net: model.Network, C,
                     x_star: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Run the network once at each of D domains' minimizers, x_star (D, n).

    Returns the (D, m) concrete margins of every spec row at the minimizers,
    and the network's pre-activations there (for the branching scores).
    """
    logits, preacts = model.forward(net, x_star)
    return (np.asarray(C, dtype=np.float64) @ logits[..., None])[..., 0], preacts

"""Classification of a bound's closed-form minimizer as a concrete violation
or a spurious counterexample."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

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
    concrete margin. A stack has a leading domain axis and a kind per domain.
    """

    x_star: np.ndarray
    abstract_margin: Union[float, np.ndarray]
    concrete_margin: np.ndarray
    kind: Union[str, Tuple[str, ...]]
    preacts: List[np.ndarray] = field(repr=False, compare=False)

    def __getitem__(self, i: int) -> "Witness":
        return Witness(self.x_star[i], float(self.abstract_margin[i]), self.concrete_margin[i],
                       self.kind[i], [z[i] for z in self.preacts])

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "abstract_margin": self.abstract_margin,
            "concrete_margin": self.concrete_margin.tolist(),
            "kind": self.kind,
        }


def validate_witness(net: model.Network, C, bound: BoundResult) -> Witness:
    """Run the network once at each domain's minimizer and classify it.

    bound holds one spec row of each of D domains, whose witnesses come back
    stacked. The abstract margin is the bound itself, its value at x_star. A
    concrete_violation ends the verification as Unsafe; a spurious witness
    feeds the branching heuristic.
    """
    logits, preacts = model.forward(net, bound.x_star)
    concrete = (np.asarray(C, dtype=np.float64) @ logits[..., None])[..., 0]
    kind = tuple(CONCRETE_VIOLATION if m <= 0.0 else SPURIOUS
                 for m in concrete.min(axis=-1).tolist())
    return Witness(bound.x_star, bound.lower_bound, concrete, kind, preacts)

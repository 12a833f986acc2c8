"""Correctness checks on verdicts, independent of reluverify's own code.

The network is re-read from its JSON file and evaluated with a plain numpy
forward pass written here, so a defect in the program's forward pass or
witness bookkeeping cannot also hide in the check.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Tuple

import numpy as np

Layer = Tuple[np.ndarray, np.ndarray, str]

# Above this input dimension the 2**d box corners are not enumerated.
MAX_CORNER_DIM = 12
CHUNK = 4096


def load_instance(model_path: str, spec_path: str):
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    layers: List[Layer] = [
        (np.array(l["weights"], dtype=np.float64), np.array(l["bias"], dtype=np.float64),
         l["activation"])
        for l in model["layers"]
    ]
    lo = np.array(spec["input_lower"], dtype=np.float64)
    hi = np.array(spec["input_upper"], dtype=np.float64)
    C = np.array(spec["C"], dtype=np.float64)
    return layers, lo, hi, C


def margins(layers: List[Layer], C: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Worst spec row of C @ f(x) for each row x of xs."""
    h = xs
    for W, b, act in layers:
        h = h @ W.T + b
        if act == "relu":
            h = np.maximum(h, 0.0)
    return (h @ C.T).min(axis=1)


def witness_violates(model_path: str, spec_path: str, x) -> bool:
    """True when x lies in the box and some spec row is non-positive at x."""
    layers, lo, hi, C = load_instance(model_path, spec_path)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != lo.shape or np.any(x < lo) or np.any(x > hi):
        return False
    return bool(margins(layers, C, x[None, :])[0] <= 0.0)


def attack_finds_violation(model_path: str, spec_path: str, samples: int, seed: int) -> bool:
    """Box corners (when few enough) plus uniform samples; True on any margin <= 0."""
    layers, lo, hi, C = load_instance(model_path, spec_path)
    if lo.shape[0] <= MAX_CORNER_DIM:
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        if np.any(margins(layers, C, corners) <= 0.0):
            return True
    rng = np.random.default_rng(seed)
    for start in range(0, samples, CHUNK):
        xs = rng.uniform(lo, hi, size=(min(CHUNK, samples - start), lo.shape[0]))
        if np.any(margins(layers, C, xs) <= 0.0):
            return True
    return False

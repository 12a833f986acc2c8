"""Overflow fuzz: nets whose hidden weights reach 1e100 to 1e160.

Per seed 0-399, rng = default_rng(seed) draws 2-3 ReLU layers of width 1-3
over 2 inputs, normal weights and biases, each hidden layer's weights scaled
by 10**U(100, 160), and a linear output. The box is [-1, 1]^2 and C =
[[1.0]]. Their intervals overflow to inf and NaN, which once crashed a run
with a ValueError or dropped NaN children as empty, ending it Safe. drg at
MAX_BRANCHES must raise nothing, and no Safe verdict may be refuted by
oracle.scan_margin.
"""

import collections

import numpy as np

from reluverify import bab, model, oracle

MAX_BRANCHES = 200
SAMPLES = 20_000


def _task(seed):
    rng = np.random.default_rng(seed)
    dims, defs = [2], []
    for width in rng.integers(1, 4, size=int(rng.integers(2, 4))).tolist():
        weights, bias = rng.normal(size=(width, dims[-1])), rng.normal(size=width)
        defs.append((weights * 10 ** rng.uniform(100, 160), bias, model.RELU))
        dims.append(width)
    defs.append((rng.normal(size=(1, dims[-1])), rng.normal(size=1), model.LINEAR))
    return model.VerificationTask(model.make_network(defs), -np.ones(2), np.ones(2),
                                  np.array([[1.0]]))


def test_overflowed_nets_raise_nothing_and_no_safe_verdict_is_refuted():
    verdicts, raised, refuted = collections.Counter(), [], []
    with np.errstate(all="ignore"):
        for seed in range(400):
            task = _task(seed)
            try:
                stats = bab.verify(task, "drg", bab.BabConfig(max_branches=MAX_BRANCHES))
            except Exception as exc:  # reported with its seed, every seed still run
                raised.append((seed, type(exc).__name__))
                continue
            verdicts[stats.verdict] += 1
            if stats.verdict == bab.SAFE and oracle.scan_margin(task, SAMPLES, seed)[1] <= 0.0:
                refuted.append((seed, stats.empty))
    assert (raised, refuted) == ([], [])
    assert all(verdicts[v] for v in (bab.SAFE, bab.UNSAFE, bab.UNKNOWN)), verdicts

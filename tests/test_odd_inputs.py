"""Odd but valid inputs against the exact oracle.

Seeded oracle-sized tasks mix point boxes, a degenerate box dimension, an
all-zero weight row, a linear hidden layer before a ReLU layer,
single-output nets and up to 12 spec rows. Every verdict of drg, babsr and
width must match the sign of oracle.exact_min_margin.
"""

import numpy as np

from reluverify import bab, model, oracle

KINDS = ("drg", "babsr", "width")
# Tasks whose exact minimum lies this close to zero are float-edge cases,
# which only rigorous rounding of the bounds and the witness can settle.
EDGE = 1e-6
FEATURES = {"point box", "degenerate dimension", "zero weight row", "linear hidden layer",
            "single output"}


def _odd_task(rng):
    """An oracle-sized task with some odd features, the features and its
    number of spec rows. Every row's first coefficient is positive, and the
    output bias is shifted so that the smallest sampled margin, each row
    divided by that coefficient, lies within 0.05 of zero on either side."""
    features = set()
    n_in = int(rng.integers(1, 4))
    hidden = [(int(rng.integers(2, 6)), model.RELU) for _ in range(int(rng.integers(1, 3)))]
    if rng.random() < 0.3:
        hidden.insert(0, (int(rng.integers(2, 5)), model.LINEAR))
        features.add("linear hidden layer")
    n_out = 1 if rng.random() < 0.3 else int(rng.integers(2, 4))
    if n_out == 1:
        features.add("single output")
    defs, prev = [], n_in
    for width, act in hidden + [(n_out, model.LINEAR)]:
        defs.append((rng.normal(0.0, 1.5 / np.sqrt(prev), (width, prev)),
                     rng.normal(0.0, 0.2, width), act))
        prev = width
    if rng.random() < 0.3:
        k = int(rng.integers(len(hidden)))
        defs[k][0][int(rng.integers(hidden[k][0]))] = 0.0
        features.add("zero weight row")
    rows = int(rng.integers(1, 13))
    C = np.hstack([rng.uniform(0.5, 2.0, (rows, 1)), rng.normal(0.0, 1.0, (rows, n_out - 1))])
    lo = rng.uniform(-1.0, 0.5, n_in)
    hi = lo + rng.uniform(0.05, 1.0, n_in)
    box = rng.random()
    if box < 0.15:
        hi = lo.copy()
        features.add("point box")
    elif box < 0.4:
        j = int(rng.integers(n_in))
        hi[j] = lo[j]
        features.add("degenerate dimension")
    logits, _ = model.forward(model.make_network(defs), rng.uniform(lo, hi, (256, n_in)))
    sampled = float(((logits @ C.T) / C[:, 0]).min())
    defs[-1][1][0] += rng.uniform(-0.05, 0.05) - sampled  # moves each row r by C[r, 0] times it
    return model.VerificationTask(model.make_network(defs), lo, hi, C), features, rows


def test_odd_but_valid_inputs_match_the_exact_oracle():
    rng = np.random.default_rng(2026)
    config = bab.BabConfig(timeout_seconds=600.0, max_branches=2000)
    seen, expected_verdicts, mismatches, checks, searched, most_rows = set(), set(), [], 0, 0, 0
    for i in range(40):
        task, features, rows = _odd_task(rng)
        min_value, _ = oracle.exact_min_margin(task)
        if abs(min_value) < EDGE:
            continue
        expected = bab.UNSAFE if min_value <= 0.0 else bab.SAFE
        for kind in KINDS:
            stats = bab.verify(task, kind, config)
            if stats.verdict != expected:
                mismatches.append((i, kind, stats.verdict, min_value, sorted(features)))
            checks += 1
            searched += stats.branches_visited > 0
        seen |= features
        expected_verdicts.add(expected)
        most_rows = max(most_rows, rows)
    assert mismatches == []
    assert seen == FEATURES
    assert expected_verdicts == {bab.SAFE, bab.UNSAFE}
    assert most_rows >= 10 and checks >= 100 and searched >= 10

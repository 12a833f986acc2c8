"""The soundness ledger: float64 verdicts that exact arithmetic refutes.

The probe draws linear nets from default_rng(0), per net in this order:
W1 (4, 3), b1 (4,) and W2 (1, 4) normal, lo ~ U(-1, 0)^3 and hi = lo +
U(0.1, 1)^3. The hidden layer is linear and C = [[1.0]]. The output bias is
float(-m), m the exact (Fraction) corner minimum of the net without it,
nudged by 0, +1, -1, +2 and -2 ulps, so each net gives five instances whose
exact minimum lies within a few ulps of zero. drg judges each at
MAX_BRANCHES.

A verdict is wrong when it is Safe and the exact minimum is <= 0, or Unsafe
and the exact minimum is > 0. The ledger lists every wrong instance: its
net, nudge, verdict and exact minimum (a fraction string), and for Unsafe
its witness's exact margin. The test fails when an instance the ledger does
not list is wrong, or a listed one is no longer wrong as listed, so a change
that mends a verdict updates the ledger and shows which ones it mended.
soundness_ledger.json covers nets 0-3,999. The tier-1 case checks nets
0-399 against its entries with net < 400; the case over all of them runs
under `pytest -m slow`. Every listed Unsafe witness has an exact margin > 0,
so re-checking the reported witness exactly leaves no wrong Unsafe.

Which verdicts go wrong depends on how numpy's BLAS rounds the verifier's
float64 products. The ledger was written with numpy 2.4.6 on its bundled
OpenBLAS 0.3.31 (DYNAMIC_ARCH) under its Haswell core, the one a CPU with
AVX2 and without AVX-512 gets; its Zen core gives the same entries, its
SkylakeX (AVX-512) and Prescott cores other wrong sets. tests/conftest.py
sets OPENBLAS_CORETYPE=Haswell before numpy is imported, so pytest reads
that core on any AVX2 x86-64 CPU.

Regenerate it (only when a change is meant to alter verdicts) with
`OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_soundness_ledger.py`:
run as a script, the file does not load the conftest.
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reluverify import bab, model

LEDGER = Path(__file__).parent / "data" / "soundness_ledger.json"
NETS = 4000
NUDGES = (0, 1, -1, 2, -2)
MAX_BRANCHES = 100


def _nets(count):
    rng = np.random.default_rng(0)
    for _ in range(count):
        W1, b1, W2 = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(1, 4))
        lo = rng.uniform(-1.0, 0.0, size=3)
        yield W1, b1, W2, lo, lo + rng.uniform(0.1, 1.0, size=3)


def _nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return float(value)


def wrong_verdicts(count):
    """Every wrong verdict of the probe over nets 0 .. count - 1, in order."""
    wrong = []
    for i, (W1, b1, W2, lo, hi) in enumerate(_nets(count)):
        # The net without its output bias is c @ x + d, computed exactly.
        w1 = [[Fraction(v) for v in row] for row in W1.tolist()]
        w2 = [Fraction(v) for v in W2[0].tolist()]
        c = [sum(w2[k] * w1[k][j] for k in range(4)) for j in range(3)]
        d = sum(w2[k] * Fraction(v) for k, v in enumerate(b1.tolist()))
        m = d + sum(cj * Fraction(lo[j] if cj >= 0 else hi[j]) for j, cj in enumerate(c))
        for ulps in NUDGES:
            b2 = _nudged(float(-m), ulps)
            net = model.make_network([(W1, b1, model.LINEAR), (W2, np.array([b2]), model.LINEAR)])
            stats = bab.verify(model.VerificationTask(net, lo, hi, np.array([[1.0]])), "drg",
                               bab.BabConfig(max_branches=MAX_BRANCHES))
            least = m + Fraction(b2)
            if (stats.verdict, least > 0) not in ((bab.SAFE, False), (bab.UNSAFE, True)):
                continue
            entry = {"net": i, "nudge": ulps, "verdict": stats.verdict, "exact_min": str(least)}
            if stats.verdict == bab.UNSAFE:
                x = stats.witness.x_star.tolist()
                entry["witness_margin"] = str(
                    d + Fraction(b2) + sum(cj * Fraction(xj) for cj, xj in zip(c, x)))
            wrong.append(entry)
    return wrong


@pytest.mark.parametrize("count", [400, pytest.param(NETS, marks=pytest.mark.slow)])
def test_wrong_verdicts_are_exactly_the_ledgers(count):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert (ledger["nets"], ledger["nudges"], ledger["max_branches"]) == (NETS, list(NUDGES),
                                                                        MAX_BRANCHES)
    listed = [e for e in ledger["wrong"] if e["net"] < count]
    assert all(Fraction(e["witness_margin"]) > 0 for e in listed if e["verdict"] == bab.UNSAFE)
    got = wrong_verdicts(count)
    unlisted = [e for e in got if e not in listed]
    mended = [e for e in listed if e not in got]
    assert (unlisted, mended) == ([], [])


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_CORETYPE") != "Haswell":
        sys.exit("run with OPENBLAS_CORETYPE=Haswell, the core tests/conftest.py pins")
    wrong = wrong_verdicts(NETS)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n"nets": {NETS},\n"nudges": {json.dumps(list(NUDGES))},\n')
        fh.write(f'"max_branches": {MAX_BRANCHES},\n"wrong": [\n')
        fh.write(",\n".join(json.dumps(e) for e in wrong))
        fh.write("\n]}\n")
    print(f"wrote {len(wrong)} wrong verdicts to {LEDGER}", file=sys.stderr)

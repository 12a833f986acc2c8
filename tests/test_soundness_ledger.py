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
soundness_ledger.json covers nets 0-399; soundness_ledger_slow.json covers
nets 0-3,999 and runs under `pytest -m slow`. The probe draws the same first
400 nets for both, so the fast ledger is the slow one's entries with net <
400: a test holds the two files to that, and a change that mends verdicts
rewrites both.

Which verdicts go wrong depends on how numpy's BLAS rounds the verifier's
float64 products. Both ledgers were written with numpy 2.4.6 on its bundled
OpenBLAS 0.3.31 (DYNAMIC_ARCH), which picks the SkylakeX kernel on an
AVX-512 x86-64 CPU; its Cooperlake kernel gives the same entries over nets
0-399. Its Haswell kernel (AVX2 CPUs) and Prescott kernel give other wrong
sets over nets 0-399 (221 and 247 wrong verdicts, not 216);
OPENBLAS_CORETYPE selects the kernel.

Regenerate both (only when a change is meant to alter verdicts) with
`PYTHONPATH=src python tests/test_soundness_ledger.py`.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reluverify import bab, model

DATA = Path(__file__).parent / "data"
LEDGERS = {400: DATA / "soundness_ledger.json", 4000: DATA / "soundness_ledger_slow.json"}
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


@pytest.mark.parametrize("count", [400, pytest.param(4000, marks=pytest.mark.slow)])
def test_wrong_verdicts_are_exactly_the_ledgers(count):
    ledger = json.loads(LEDGERS[count].read_text(encoding="utf-8"))
    assert (ledger["nets"], ledger["nudges"], ledger["max_branches"]) == (count, list(NUDGES),
                                                                         MAX_BRANCHES)
    got = wrong_verdicts(count)
    unlisted = [e for e in got if e not in ledger["wrong"]]
    mended = [e for e in ledger["wrong"] if e not in got]
    assert (unlisted, mended) == ([], [])


def test_the_fast_ledger_is_the_slow_ledgers_first_nets():
    fast, slow = (json.loads(path.read_text(encoding="utf-8")) for path in LEDGERS.values())
    assert fast["wrong"] == [e for e in slow["wrong"] if e["net"] < fast["nets"]]
    assert (fast["nudges"], fast["max_branches"]) == (slow["nudges"], slow["max_branches"])


def write(count: int, path: Path) -> None:
    wrong = wrong_verdicts(count)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n"nets": {count},\n"nudges": {json.dumps(list(NUDGES))},\n')
        fh.write(f'"max_branches": {MAX_BRANCHES},\n"wrong": [\n')
        fh.write(",\n".join(json.dumps(e) for e in wrong))
        fh.write("\n]}\n")
    print(f"wrote {len(wrong)} wrong verdicts to {path}", file=sys.stderr)


if __name__ == "__main__":
    for count, path in LEDGERS.items():
        write(count, path)

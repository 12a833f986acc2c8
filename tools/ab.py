"""Paired A/B runs of the benchmark: a base revision's src/ against the
working tree's (or a second revision's), alternating which runs first.

Run from the repository root:

    python3 tools/ab.py --base HEAD~1 --pairs 10 --seconds 30 \\
        --workloads narrow-deep --out ab.json

Each side is a fresh directory holding its own src/ (the revision's, taken
with `git archive`, or a copy of the working tree's) beside copies of the
working tree's verifbench/ and BENCHMARK.json, so both sides run the same
benchmark script. Every run is `python3 verifbench/run.py --workload W
--seconds S [--seed N]` in a fresh process without compiled bytecode. In
pair i the base runs first when i is even, the head when it is odd, and the
workloads take turns within each pair.

A run counts only if the JSON on its last line has "correct": true and
"failed": 0; any other run is named on stderr and in the output's
"failures", and its pair counts for no metric. For each end-to-end metric in
BENCHMARK.json and each workload the report gives both sides' medians and
quartiles, the pairs each side won in the metric's better direction (ties
count for neither), the exact two-sided sign-test p-value, and whether the
medians differ by more than the base's interquartile range. Where run.py
also prints a metric's uncalibrated twin (nodes_per_s_raw, setup_s_raw), the
same comparison is made for it: the gated metrics are rescaled by a
calibration kernel, and the two can disagree.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


# verifbench's own aggregation (no numpy), so quartiles follow its percentile rule.
_spec = importlib.util.spec_from_file_location("verifbench_stats", ROOT / "verifbench" / "stats.py")
stats = sys.modules["verifbench_stats"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stats)


def summary(values: Sequence[float]) -> dict:
    return {"median": stats.percentile(values, 50), "q1": stats.percentile(values, 25),
            "q3": stats.percentile(values, 75)}


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses (ties
    dropped): the chance under a fair coin of a split at least this uneven."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def first_in_pair(i: int) -> str:
    return SIDES[i % 2]


def read_result(stdout: str) -> Tuple[Optional[dict], Optional[str]]:
    """A run's metrics by name, or None and why the run does not count. The
    JSON on the last line gives the end-to-end metrics; the `metric NAME =
    VALUE UNIT` lines before it add the rest run.py prints, such as the
    uncalibrated nodes_per_s_raw (to its 6 significant digits)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "last line is not JSON: " + lines[-1][:200]
    if not isinstance(result, dict):
        return None, "last line is not a JSON object"
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, ("not correct: correct=%r, failed=%r"
                      % (result.get("correct"), result.get("failed")))
    printed = re.findall(r"^metric (\S+) = (\S+) ", stdout, re.MULTILINE)
    return ({k: float(v) for k, v in printed}
            | {k: v["value"] for k, v in result["metrics"].items()}), None


def compare(base: Sequence[Optional[float]], head: Sequence[Optional[float]],
            better: str) -> dict:
    """One metric of one workload over the pairs: base[i] and head[i] are the
    two sides' values in pair i, None for a run that does not count. Only
    pairs where both count are compared."""
    pairs = [(b, h) for b, h in zip(base, head, strict=True) if b is not None and h is not None]
    out: dict = {"better": better, "pairs_counted": len(pairs)}
    if not pairs:
        return out
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    losses = sum(sign * (h - b) < 0 for b, h in pairs)
    b_vals, h_vals = [b for b, _ in pairs], [h for _, h in pairs]
    out["base"], out["head"] = summary(b_vals), summary(h_vals)
    out["base"]["runs"], out["head"]["runs"] = list(base), list(head)
    gap = out["head"]["median"] - out["base"]["median"]
    iqr = out["base"]["q3"] - out["base"]["q1"]
    out.update(
        head_over_base=out["head"]["median"] / out["base"]["median"]
        if out["base"]["median"] else None,
        pairs_won={"head": wins, "base": losses, "ties": len(pairs) - wins - losses},
        sign_test_p=sign_test(wins, losses),
        base_iqr=iqr,
        gap_exceeds_base_iqr=abs(gap) > iqr,
    )
    return out


def report(runs: List[dict], metrics: Sequence[dict], workloads: Sequence[str],
           pairs: int) -> Dict[str, dict]:
    """Per workload: the pairs' bookkeeping and compare() for each metric,
    and for its uncalibrated twin NAME_raw where the runs print one. runs
    are the records run_pairs makes: pair, workload, side, metrics (None for
    a run that does not count) and error."""
    out = {}
    for w in workloads:
        at = {(r["pair"], r["side"]): r["metrics"] for r in runs if r["workload"] == w}
        got = {side: [at.get((i, side)) for i in range(pairs)] for side in SIDES}
        printed = {name for v in got["base"] + got["head"] if v for name in v}
        names = [(m["name"], m["better"]) for m in metrics]
        names += [(n + "_raw", better) for n, better in names if n + "_raw" in printed]

        def values(side, name):
            return [None if v is None else v.get(name) for v in got[side]]

        out[w] = {
            "pairs": pairs,
            "first_in_pair": [first_in_pair(i) for i in range(pairs)],
            "counted": {side: sum(v is not None for v in got[side]) for side in SIDES},
            "metrics": {n: compare(values("base", n), values("head", n), better)
                        for n, better in names},
        }
    return out


def build_side(dest: Path, rev: Optional[str]) -> None:
    """dest gets rev's src/ (the working tree's when rev is None) and copies
    of the working tree's verifbench/ and BENCHMARK.json."""
    dest.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".verifbench_work", "*.egg-info")
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.copytree(ROOT / "verifbench", dest / "verifbench", ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def resolve(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def run_one(tree: Path, workload: str, seconds: float, seed: Optional[int]) -> dict:
    argv = [sys.executable, "verifbench/run.py", "--workload", workload,
            "--seconds", str(seconds)] + ([] if seed is None else ["--seed", str(seed)])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # each side imports only its own src/
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    metrics, error = read_result(proc.stdout)
    if error is not None and proc.returncode != 0:
        error += f" (exit {proc.returncode}: {proc.stderr.strip()[-300:]})"
    return {"correct": error is None, "error": error, "metrics": metrics}


def run_pairs(trees: Dict[str, Path], workloads: Sequence[str], pairs: int, seconds: float,
              seed: Optional[int]) -> List[dict]:
    runs = []
    for i in range(pairs):
        order = SIDES if first_in_pair(i) == "base" else SIDES[::-1]
        for w in workloads:
            for side in order:
                r = dict(pair=i, workload=w, side=side,
                         **run_one(trees[side], w, seconds, seed))
                runs.append(r)
                if r["error"] is None:
                    shown = ", ".join(f"{k} {v:.6g}" for k, v in r["metrics"].items())
                    print(f"pair {i + 1}/{pairs} {w} {side}: {shown}", file=sys.stderr)
                else:
                    print(f"FAILED pair {i + 1}/{pairs} {w} {side}: {r['error']}",
                          file=sys.stderr)
    return runs


def table(workloads: Dict[str, dict]) -> str:
    lines = []
    for w, rep in workloads.items():
        for name, m in rep["metrics"].items():
            if "base" not in m:
                lines.append(f"{w} {name}: no pair counted")
                continue
            b, h, won = m["base"], m["head"], m["pairs_won"]
            ratio = "" if m["head_over_base"] is None else f" (x{m['head_over_base']:.3f})"
            lines.append(
                f"{w} {name}: base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f" -> head {h['median']:.6g} [{h['q1']:.6g}, {h['q3']:.6g}]{ratio};"
                f" {m['better']} is better; head won {won['head']}, base {won['base']},"
                f" ties {won['ties']} of {m['pairs_counted']};"
                f" sign test p = {m['sign_test_p']:.4g};"
                f" gap {'exceeds' if m['gap_exceeds_base_iqr'] else 'within'} the base IQR")
    return "\n".join(lines)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision whose src/ is the base")
    ap.add_argument("--head", default=None,
                    help="git revision whose src/ is the head (default: the working tree's)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="run.py's --seconds")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="workload names (default: every one in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=None, help="run.py's --seed")
    ap.add_argument("--out", required=True, help="JSON report file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in listed["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    revs = {"base": args.base, "head": args.head}
    try:
        shas = {side: None if rev is None else resolve(rev) for side, rev in revs.items()}
    except subprocess.CalledProcessError as exc:
        print(f"error: not a git revision: {exc.cmd[-1].removesuffix('^{commit}')}",
              file=sys.stderr)
        return 2
    # On SIGTERM as on Ctrl-C: subprocess.run kills the running benchmark and
    # the finally below removes both trees.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {side: work / side for side in SIDES}
        for side in SIDES:
            build_side(trees[side], shas[side])
        runs = run_pairs(trees, workloads, args.pairs, args.seconds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    command = "python3 verifbench/run.py --workload W --seconds %g" % args.seconds
    if args.seed is not None:
        command += f" --seed {args.seed}"
    out = {
        "command": command,
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head or "working tree", "sha": shas["head"]},
        "workloads": report(runs, listed["end_to_end"], workloads, args.pairs),
        "failures": [{k: r[k] for k in ("pair", "workload", "side", "error")}
                     for r in runs if r["error"] is not None],
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(table(out["workloads"]))
    return 1 if out["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the reluverify verifier on seeded suites.

Run from the repository root:

    python3 verifbench/run.py --workload narrow-deep --seed 7 --seconds 30 --trace 0

The workload's suite is generated from --seed with `reluverify gen` (untimed).
Set-up is timed in fresh processes. Then `reluverify bench` runs in-process
through cli.main, one whole suite pass after another while the --seconds budget
lasts. Every verdict is checked afterwards, outside the timed region. The
report ends with one JSON line {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (one more
pass with every public function of the package wrapped in spans).
"""

import os

# Pinned before numpy is imported, here and in the set-up probes: one process
# generates all load, and BLAS threads would make timings depend on the host.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
import stats
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_VERDICTS = HERE / "expected_verdicts.json"

# Large enough that only the branch budget ends a run, so the work done does
# not depend on machine speed; a run that still hits it counts as failed.
TIMEOUT_S = 600
SETUP_PROBES = 5
ATTACK_SAMPLES = 10_000

# On a shared host the machine's speed drifts, by up to 2x over minutes, and
# CPU time tracks wall time, so it is not descheduling. A fixed kernel is timed
# before and after every measured interval, and the gated times are rescaled
# to the speed at which the kernel takes CAL_REF_S (its time on the 2-CPU Xeon
# this benchmark was defined on). The kernel resembles the program's hot path:
# small matrix-vector products, masks, and a short loop over numpy scalars.
# Inside a pass the kernel also runs between verifications, at most every
# CAL_EVERY_S, so a drift during a long pass is followed; that time is taken
# out of the pass time.
CAL_REPS = 25_000
CAL_REF_S = 0.40
CAL_EVERY_S = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    gen_args: Tuple[str, ...]
    heuristics: str
    max_branches: int


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "narrow-deep", 7,
        ("--layers", "2", "--widths", "16", "--count", "12", "--eps", "0.25",
         "--inputs", "4", "--outputs", "3"),
        "drg,babsr", 3000,
    ),
    Workload(
        "wide-deep", 11,
        ("--layers", "3", "--widths", "64", "--count", "6", "--eps", "0.1",
         "--inputs", "8", "--outputs", "5"),
        "drg,drg_symmetric,babsr,width", 1000,
    ),
    Workload(
        "wide-triage", 13,
        ("--layers", "3", "--widths", "64", "--count", "100", "--eps", "0.05",
         "--inputs", "8", "--outputs", "5"),
        # Zero branches: every run is one node, so nodes/s does not follow
        # how many properties a seed leaves undecided.
        "drg", 0,
    ),
)}


@dataclass
class Pass:
    """One `reluverify bench` pass over the suite."""

    seconds: float
    runs: List[stats.Run]
    witnesses: Dict[Tuple[str, str], Optional[list]]
    error: Optional[str] = None
    scale: float = 1.0  # reference seconds per measured second


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel."""
    rng = np.random.default_rng(0)
    W = rng.normal(size=(64, 64))
    x = rng.normal(size=64)
    lam = rng.normal(size=(8, 64))
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        h = np.maximum(W @ x, 0.0)
        m = np.where(h > 0.1, lam, 0.0)
        float((m @ W).sum())
        total = 0.0
        for k in range(16):
            total += x[k] * h[k]
    return time.perf_counter() - t0


@dataclass
class Checked:
    attempted: int
    failures: Dict[Tuple[str, str], str] = field(default_factory=dict)


def run_cli(cli, argv: List[str]) -> int:
    """cli.main with its stdout discarded, so the benchmark's last line stays its own."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def gen_argv(w: Workload, seed: int, out: str) -> List[str]:
    return ["gen", "--seed", str(seed), *w.gen_args, "--out", out]


def bench_argv(w: Workload, suite: str, out: str) -> List[str]:
    return ["bench", "--suite", suite, "--heuristics", w.heuristics,
            "--max-branches", str(w.max_branches), "--timeout", str(TIMEOUT_S), "--out", out]


class RunRecorder:
    """Wraps bab.verify to capture each run's verdict, branches, witness and time."""

    def __init__(self, bab, instance_by_box: Dict[bytes, str],
                 calibrate_every: Optional[float] = None):
        self.bab = bab
        self.instance_by_box = instance_by_box
        self.calibrate_every = calibrate_every
        self.runs: List[stats.Run] = []
        self.witnesses: Dict[Tuple[str, str], Optional[list]] = {}
        self.marks: List[Tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def __enter__(self):
        self.original = original = self.bab.verify
        self.started = time.perf_counter()

        def verify(task, heuristic, *args, **kwargs):
            instance = self.instance_by_box[task.input_lower.tobytes()]
            t0 = time.perf_counter()
            try:
                result = original(task, heuristic, *args, **kwargs)
            except Exception as exc:
                self.runs.append(stats.Run(instance, heuristic, "error", 0,
                                           time.perf_counter() - t0, error=repr(exc)))
                raise
            seconds = time.perf_counter() - t0
            self.runs.append(stats.Run(instance, heuristic, result.verdict,
                                       result.branches_visited, seconds, result.unknown_reason))
            self.witnesses[(instance, heuristic)] = (
                None if result.witness is None else result.witness.x_star.tolist()
            )
            if self.calibrate_every is not None:
                start = time.perf_counter()
                if start - (self.marks[-1][1] if self.marks else self.started) >= self.calibrate_every:
                    kernel = calibrate()
                    self.marks.append((start, time.perf_counter(), kernel))
            return result

        self.bab.verify = verify
        return self

    def __exit__(self, *exc):
        self.bab.verify = self.original
        return False


def run_pass(cli, bab, w: Workload, suite: Path, out: Path, instance_by_box,
             cal_before: float, calibrate_every: Optional[float]) -> Tuple[Pass, float]:
    """One bench pass, calibrated; returns it with the kernel time measured after it."""
    with RunRecorder(bab, instance_by_box, calibrate_every) as rec:
        t0 = time.perf_counter()
        error = None
        try:
            rc = run_cli(cli, bench_argv(w, str(suite), str(out)))
            if rc != 0:
                error = f"bench exited with code {rc}"
        except Exception as exc:  # the pass failed; report it instead of dying
            error = f"bench raised {exc!r}"
        t1 = time.perf_counter()
    cal_after = calibrate()
    raw, scaled = stats.scaled_seconds(t0, t1, rec.marks, cal_before, cal_after, CAL_REF_S)
    return Pass(raw, rec.runs, rec.witnesses, error, scaled / raw), cal_after


def measure_setup(suite: Path) -> Tuple[List[float], List[float]]:
    """Set-up seconds of each fresh-process probe, as measured and rescaled."""
    raw, scaled = [], []
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(suite)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        cal_after = calibrate()
        scaled.append(stats.scaled_seconds(0.0, raw[-1], [], cal, cal_after, CAL_REF_S)[1])
        cal = cal_after
    return raw, scaled


def check_runs(w: Workload, seed: int, pairs: Dict[str, Tuple[str, str]], p: Pass) -> Checked:
    """Failure accounting for one pass; see README.md for the rules."""
    kinds = w.heuristics.split(",")
    result = Checked(attempted=len(pairs) * len(kinds))
    fail = result.failures
    seen = {(r.instance, r.heuristic): r for r in p.runs}
    for inst in pairs:
        for kind in kinds:
            if (inst, kind) not in seen:
                fail[(inst, kind)] = "not run: " + (p.error or "missing from the pass")
    for key, r in seen.items():
        if r.error is not None:
            fail[key] = f"raised {r.error}"
        elif r.unknown_reason == "timeout":
            fail[key] = "ended on the wall-clock timeout"
        elif r.verdict == stats.UNSAFE:
            x = p.witnesses.get(key)
            if x is None or not checks.witness_violates(*pairs[r.instance], x):
                fail[key] = "Unsafe, but the witness margin is positive when recomputed"
    by_instance: Dict[str, List[stats.Run]] = {}
    for r in seen.values():
        by_instance.setdefault(r.instance, []).append(r)
    for i, inst in enumerate(sorted(pairs)):
        runs = by_instance.get(inst, [])
        verdicts = {r.verdict for r in runs}
        decided = [(inst, r.heuristic) for r in runs if r.verdict in (stats.SAFE, stats.UNSAFE)]
        if {stats.SAFE, stats.UNSAFE} <= verdicts:
            for key in decided:
                fail.setdefault(key, "Safe and Unsafe verdicts disagree across heuristics")
        elif stats.SAFE in verdicts and checks.attack_finds_violation(
                *pairs[inst], ATTACK_SAMPLES, seed * 100_003 + i):
            for key in decided:
                fail.setdefault(key, "Safe, but the sampling attack found a violation")
    if seed == w.default_seed:
        expected = json.loads(EXPECTED_VERDICTS.read_text(encoding="utf-8"))[w.name]
        for key, r in seen.items():
            want = expected.get(key[0], {}).get(key[1])
            if {want, r.verdict} == {stats.SAFE, stats.UNSAFE}:
                fail.setdefault(key, f"verdict {r.verdict}, recorded {want}")
    return result


def trace_pass(cli, bab, w: Workload, suite: Path, out: Path, instance_by_box,
               cal_before: float) -> Tuple[Pass, Tracer, Dict[str, int]]:
    """One bench pass with every TARGETS function wrapped in spans. The kernel
    does not run inside it, which would add to the spans' self times."""
    counts = {"worklist_peak": 0, "children": 0, "infeasible_children": 0}

    def on_push(args, _result):
        counts["worklist_peak"] = max(counts["worklist_peak"], len(args[0]))

    def on_split(_args, children):
        counts["children"] += len(children)
        counts["infeasible_children"] += sum(not c.neuron_bounds.is_feasible() for c in children)

    tracer = Tracer("reluverify", observers={"bab.Worklist.push": on_push, "bab.split_subdomain": on_split})
    tracer.install()
    try:
        p, _ = run_pass(cli, bab, w, suite, out, instance_by_box, cal_before, None)
    finally:
        tracer.uninstall()
    return p, tracer, counts


LAYER_SPANS = (
    "model.load_task", "model.forward", "model.margin", "model.margin_preact_gradients",
    "relax.optimize_alpha", "relax.alpha_gradient", "relax.compute_bounds",
    "relax.propagate_bounds", "witness.construct_witness", "witness.validate_witness",
    "heuristics.score_branches", "heuristics.select_branch", "bab.verify",
    "bab.split_subdomain", "bab.input_bisect", "bab.Worklist.push", "bab.Worklist.pop",
)


def layer_metrics(tracer: Tracer, counts: Dict[str, int], traced: Pass,
                  plain: List[Pass]) -> Dict[str, Tuple[float, str]]:
    totals = stats.span_totals(tracer.names, tracer.name_ids, tracer.parents,
                               tracer.starts, tracer.ends)

    def t(name: str) -> stats.SpanTotals:
        return totals.get(name, stats.SpanTotals())

    m: Dict[str, Tuple[float, str]] = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = (t(name).calls, "count")
        m[f"{name}.self_s"] = (t(name).self_s, "s")
    m["cli.bench.self_s"] = (t("cli.bench").self_s, "s")
    m["relax.optimize_alpha.total_s"] = (t("relax.optimize_alpha").total_s, "s")
    m["bab.split_subdomain.total_s"] = (t("bab.split_subdomain").total_s, "s")

    nodes = stats.count_nodes(traced.runs)
    expansions = t("bab.split_subdomain").calls + t("bab.input_bisect").calls
    ids = {name: i for i, name in enumerate(tracer.names)}
    bounds_in_opt = 0
    if "relax.compute_bounds" in ids and "relax.optimize_alpha" in ids:
        bounds_in_opt = stats.count_under(tracer.parents, tracer.name_ids,
                                          ids["relax.compute_bounds"], ids["relax.optimize_alpha"])
    m["bab.nodes"] = (nodes, "count")
    m["bab.worklist.peak_len"] = (counts["worklist_peak"], "count")
    m["relax.compute_bounds.per_node"] = (stats.ratio(t("relax.compute_bounds").calls, nodes), "ratio")
    m["relax.propagate_bounds.per_node"] = (
        stats.ratio(t("relax.propagate_bounds").calls, nodes), "ratio")
    m["bab.infeasible_child_ratio"] = (
        stats.ratio(counts["infeasible_children"], counts["children"]), "ratio")
    m["bab.bisect_ratio"] = (stats.ratio(t("bab.input_bisect").calls, expansions), "ratio")
    m["heuristics.fallback_ratio"] = (
        stats.ratio(t("heuristics.score_branches").calls, expansions), "ratio")
    m["relax.optimize_alpha.bounds_per_iter"] = (
        stats.ratio(bounds_in_opt, t("relax.alpha_gradient").calls), "ratio")
    plain_s = stats.median([p.seconds * p.scale for p in plain])
    m["trace.overhead_pct"] = (100.0 * (traced.seconds * traced.scale - plain_s) / plain_s, "%")
    covered = sum(v.self_s for v in totals.values())
    m["trace.coverage_pct"] = (100.0 * covered / traced.seconds, "%")
    return m


def environment() -> Dict[str, str]:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": str(os.cpu_count()), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(passes: List[Pass], setup: Tuple[List[float], List[float]],
               peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric; all of them come from untraced passes.

    setup_s and nodes_per_s are rescaled to the reference speed (see
    CAL_REF_S); the *_raw and suite_s figures are wall time as measured.
    """
    runs = passes[0].runs
    nodes = stats.count_nodes(runs)
    m = {
        "setup_s": (stats.median(setup[1]), "s"),
        "nodes_per_s": (stats.median([nodes / (p.seconds * p.scale) for p in passes]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s_raw": (stats.median(setup[0]), "s"),
        "nodes_per_s_raw": (stats.median([nodes / p.seconds for p in passes]), "1/s"),
        "speed_vs_ref": (stats.median([p.scale for p in passes]), "ratio"),
        "suite_s": (stats.median([p.seconds for p in passes]), "s"),
        "solved_pct": (stats.solved_pct(runs), "%"),
        "nodes_total": (nodes, "count"),
    }
    # Only where the p90 has ten runs beyond it: with fewer runs the verdict
    # times split into root-decided and budget-capped clusters, and the
    # percentiles land on the gap between them.
    if stats.reportable(len(runs), 90):
        for q in (50, 90):
            per_pass = [stats.percentile([1000.0 * r.seconds for r in p.runs], q) for p in passes]
            m[f"verdict_ms_p{q}"] = (stats.median(per_pass), "ms")
    return m


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="suite seed for `reluverify gen` (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring budget: whole passes are started while it lasts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reluverify" / "__init__.py").is_file():
        print(f"error: no reluverify package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reluverify import bab, cli

    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    work_root = ROOT / ".verifbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=work_root))
    try:
        return measure(args, w, seed, work, cli, bab)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def measure(args, w: Workload, seed: int, work: Path, cli, bab) -> int:
    suite = work / "suite"
    gen = gen_argv(w, seed, str(suite))
    rc = run_cli(cli, gen)
    if rc != 0:
        print(f"error: reluverify {' '.join(gen)} exited with code {rc}", file=sys.stderr)
        return 1
    pairs = {name: (m, s) for name, m, s in cli.discover_suite(str(suite))}
    instance_by_box = {}
    for name, (_, spec_path) in pairs.items():
        lo = json.loads(Path(spec_path).read_text(encoding="utf-8"))["input_lower"]
        instance_by_box[np.array(lo, dtype=np.float64).tobytes()] = name

    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(x["why"] for x in listed["workloads"] if x["name"] == w.name)
    print(f"workload {w.name}: {why}")
    print(f"seed {seed}" + (" (default)" if seed == w.default_seed else ""))
    print("gen:   reluverify " + " ".join(gen_argv(w, seed, "<suite>")))
    print("bench: reluverify " + " ".join(bench_argv(w, "<suite>", "<report>")))
    print("env:   " + " ".join(f"{k}={v}" for k, v in environment().items()))

    setup = measure_setup(suite)
    passes: List[Pass] = []
    start = time.perf_counter()
    cal = calibrate()
    while True:
        t = time.perf_counter()
        p, cal = run_pass(cli, bab, w, suite, work / f"report{len(passes)}", instance_by_box,
                          cal, CAL_EVERY_S)
        last = time.perf_counter() - t
        passes.append(p)
        print(f"pass {len(passes)}: {p.seconds:.3f} s, {len(p.runs)} runs,"
              f" {stats.count_nodes(p.runs)} nodes, speed {p.scale:.3f} of reference"
              + (f", {p.error}" if p.error else ""))
        # Start another pass only if one more of the same length still fits.
        if p.error or time.perf_counter() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    traced = None
    if args.trace:
        traced, tracer, counts = trace_pass(cli, bab, w, suite, work / "report-traced",
                                            instance_by_box, cal)
        if tracer.missing:
            print("tracer: missing targets skipped: " + ", ".join(tracer.missing))
        if traced.error:
            problems.append(f"traced pass: {traced.error}")
    signatures = {repr(stats.run_signature(p.runs)) for p in passes + ([traced] if traced else [])}
    if len(signatures) > 1:
        problems.append("per-run (verdict, branches) differ between passes")

    checked = check_runs(w, seed, pairs, passes[0])
    for (inst, kind), why in sorted(checked.failures.items()):
        print(f"FAILED {inst} {kind}: {why}")
    for problem in problems:
        print(f"FAILED: {problem}")
    runs = passes[0].runs
    verdicts = [r.verdict for r in runs]
    print(f"verdicts: {verdicts.count(stats.SAFE)} Safe / {verdicts.count(stats.UNSAFE)} Unsafe /"
          f" {verdicts.count('Unknown')} Unknown over {len(runs)} runs;"
          f" {len(checked.failures)} failed of {checked.attempted} attempted")

    e2e = end_to_end(passes, setup, peak_rss_mb)
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"  (times are medians of {len(passes)} passes of {len(runs)} runs;"
          f" set-up is the median of {len(setup[0])} fresh processes)")
    if traced is not None:
        metrics = layer_metrics(tracer, counts, traced, passes)
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
        if not 95.0 <= metrics["trace.coverage_pct"][0] <= 100.5:
            print("WARNING: span self times do not cover the traced suite time")
    else:
        metrics = e2e
    metrics = {m["name"]: metrics[m["name"]]
               for m in listed["per_layer" if traced is not None else "end_to_end"]}
    result = {
        "correct": not checked.failures and not problems,
        "attempted": checked.attempted,
        "failed": len(checked.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

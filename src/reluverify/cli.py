"""Command-line entry points: verify one instance, benchmark heuristics over a
suite, generate seeded instances, and query the exact oracle.

Exit codes: 0 Safe, 1 Unsafe, 2 Unknown, 3 input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bab, heuristics, model, oracle

EXIT_BY_VERDICT = {bab.SAFE: 0, bab.UNSAFE: 1, bab.UNKNOWN: 2}
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def _config_from_args(args, trace: bool = False) -> bab.BabConfig:
    return bab.BabConfig(timeout_seconds=args.timeout, max_branches=args.max_branches,
                         alpha_iters=args.alpha_iters, trace=trace)


def _add_verify_options(p: argparse.ArgumentParser) -> None:
    d = bab.BabConfig()
    p.add_argument("--timeout", type=float, default=d.timeout_seconds, help="wall-clock budget (s)")
    p.add_argument("--max-branches", type=int, default=d.max_branches, help="sub-domain budget")
    p.add_argument("--alpha-iters", type=int, default=d.alpha_iters, help="slope ascent iterations")


def _result_dict(stats: bab.RunStats, heuristic: str, config: bab.BabConfig) -> dict:
    result = {
        "verdict": stats.verdict,
        "branches": stats.branches_visited,
        "splits": stats.splits_made,
        "gap_clamp_events": stats.gap_clamp_events,
        "passes": stats.passes,
        "bounded": stats.bounded,
        "empty": stats.empty,
        "time_s": stats.wall_time_s,
        "heuristic": heuristic,
        "config_echo": dict(config.to_dict(), heuristic=heuristic),
    }
    if stats.witness is not None:
        result["witness"] = stats.witness.to_dict()
    if stats.unknown_reason is not None:
        result["unknown_reason"] = stats.unknown_reason
    return result


def _json(obj, indent: Optional[int] = None) -> str:
    """obj as strict (RFC 8259) JSON: each non-finite float is written as null."""
    def finite(o):
        if isinstance(o, float):
            return o if math.isfinite(o) else None
        if isinstance(o, dict):
            return {k: finite(v) for k, v in o.items()}
        return [finite(v) for v in o] if isinstance(o, (list, tuple)) else o
    return json.dumps(finite(obj), indent=indent, sort_keys=True, allow_nan=False)


def _open_for_writing(path: str, flag: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise model.InputError(f"{flag} {path}: cannot write file ({exc.strerror})") from None


def _out_dir(path: str, make: bool = False) -> Path:
    """--out as a directory: refused when the path, or its nearest existing
    ancestor, is not a directory (checked before any work), and made if make."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise model.InputError(f"--out {path}: {existing} is not a directory")
    try:
        if make:
            out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise model.InputError(f"--out {path}: cannot make directory ({exc.strerror})") from None
    return out


def cmd_verify(args) -> int:
    # Before any file is opened: --output and --trace name two files, neither
    # of them the --model or the --spec file.
    seen = {Path(args.spec).resolve(): "--spec", Path(args.model).resolve(): "--model"}
    for flag, path in (("--output", args.output), ("--trace", args.trace)):
        if path:
            key = Path(path).resolve()
            if key in seen:
                raise model.InputError(f"{seen[key]} and {flag} name the same file: {path}")
            seen[key] = flag
    task = model.load_task(args.model, args.spec)
    config = _config_from_args(args, trace=bool(args.trace))
    heuristics.check_kind(args.heuristic)  # before a file is made for its run
    # Opened before the search, so an unwritable path costs no search.
    with contextlib.ExitStack() as files:
        output = args.output and files.enter_context(_open_for_writing(args.output, "--output"))
        trace = args.trace and files.enter_context(_open_for_writing(args.trace, "--trace"))
        stats = bab.verify(task, args.heuristic, config)
        result = _result_dict(stats, args.heuristic, config)
        print(_json(result, indent=2), file=output or sys.stdout)
        for entry in stats.per_node_trace or []:
            trace.write(_json(entry) + "\n")
    return EXIT_BY_VERDICT[stats.verdict]


def generate_instance(
    rng: np.random.Generator,
    n_inputs: int,
    hidden_widths: Sequence[int],
    n_outputs: int,
    eps: float,
    weight_scale: float,
) -> Tuple[model.Network, np.ndarray, np.ndarray, np.ndarray]:
    """One seeded random instance: a ReLU net, a box around a random anchor,
    and a one-vs-rest spec. The output bias is shifted so the anchor's margin
    sits near eps times the local margin gradient, which keeps the suites
    balanced between Safe and Unsafe instead of collapsing to one verdict.

    Raises InputError naming --weight-scale when the network or its margin
    gradient at the anchor leaves float64, and --eps when the bias shift does.
    """
    dims = [n_inputs, *hidden_widths, n_outputs]
    layer_defs = []
    for i in range(1, len(dims)):
        fan_in = dims[i - 1]
        weights = rng.normal(0.0, weight_scale / np.sqrt(fan_in), size=(dims[i], fan_in))
        bias = rng.normal(0.0, 0.1 * weight_scale, size=dims[i])
        layer_defs.append((weights, bias, model.LINEAR if i == len(dims) - 1 else model.RELU))
    anchor = rng.uniform(-1.0, 1.0, size=n_inputs)
    if n_outputs == 1:
        C = np.array([[1.0]])
    else:
        C = np.zeros((n_outputs - 1, n_outputs))
        C[:, 0] = 1.0
        for r in range(n_outputs - 1):
            C[r, r + 1] = -1.0

    try:
        with np.errstate(over="raise", invalid="raise"):
            net = model.make_network(layer_defs)
            logits, preacts = model.forward(net, anchor)
            anchor_margin = float((C @ logits).min())
            grad_scale = max(
                float(np.abs(net.layers[0].weights.T
                             @ model.margin_preact_gradients(net, c_row, preacts)[0]).sum())
                for c_row in C
            )
    except (FloatingPointError, model.InputError):  # a weight or an activation overflowed
        raise model.InputError(f"--weight-scale {weight_scale!r}: the generated network"
                               " overflows float64") from None
    target = eps * max(grad_scale, 1e-6) * rng.uniform(0.4, 1.6)
    output_bias = layer_defs[-1][1]
    output_bias[0] += target - anchor_margin  # shifts every margin row equally
    if not np.isfinite(output_bias[0]):
        raise model.InputError(f"--eps {eps!r}: the margin shift overflows float64")
    return model.make_network(layer_defs), anchor - eps, anchor + eps, C


def cmd_gen(args) -> int:
    try:
        widths = [int(w) for w in str(args.widths).split(",") if w.strip()]
    except ValueError:
        raise model.InputError(f"--widths: cannot parse {args.widths!r}") from None
    if len(widths) == 1 and args.layers > 1:
        widths = widths * args.layers
    if args.layers < 1 or len(widths) != args.layers or any(w < 1 for w in widths):
        raise model.InputError(f"--layers {args.layers} and --widths {args.widths!r} do not"
                               " describe a valid hidden stack")
    for flag, value in (("--eps", args.eps), ("--weight-scale", args.weight_scale)):
        if not 0.0 < value < float("inf"):  # NaN too
            raise model.InputError(f"{flag} must be finite and > 0, got {value}")
    if not 2.0 * args.eps < float("inf"):  # the box is anchor +- eps, anchor in [-1, 1]
        raise model.InputError(f"--eps {args.eps!r}: the box width overflows float64")
    if args.count < 1 or args.inputs < 1 or args.outputs < 1:
        raise model.InputError("--count/--inputs/--outputs must be positive")
    out_dir = _out_dir(args.out)

    def instances():
        rng = np.random.default_rng(args.seed)
        for _ in range(args.count):
            yield generate_instance(rng, args.inputs, widths, args.outputs, args.eps,
                                    args.weight_scale)

    # A first pass, cheap next to writing, stops an overflow before any file
    # is written, without holding the whole suite in memory.
    for _ in instances():
        pass
    _out_dir(args.out, make=True)
    for i, (net, lo, hi, C) in enumerate(instances()):
        stem = out_dir / f"case_{i:03d}"
        model.save_model(net, str(stem) + ".model.json")
        model.save_spec(lo, hi, C, str(stem) + ".spec.json")
    print(f"wrote {args.count} instances to {out_dir}")
    return 0


def discover_suite(suite_dir: str) -> List[Tuple[str, str, str]]:
    root = Path(suite_dir)
    out = []
    for model_path in sorted(root.glob("*.model.json")):
        spec_path = Path(str(model_path)[: -len(".model.json")] + ".spec.json")
        if spec_path.exists():
            out.append((model_path.name[: -len(".model.json")], str(model_path), str(spec_path)))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: List[str], rows: List[List]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.heuristics.split(",") if k.strip()]
    for i, kind in enumerate(kinds):
        heuristics.check_kind(kind)
        if kind in kinds[:i]:
            raise model.InputError(f"--heuristics: {kind!r} is repeated")
    if not kinds:
        raise model.InputError("--heuristics: empty list")
    instances = discover_suite(args.suite)
    if not instances:
        raise model.InputError(f"no (model, spec) pairs found in {args.suite}")
    baseline = args.baseline or (heuristics.BABSR if heuristics.BABSR in kinds else kinds[0])
    if baseline not in kinds:
        raise model.InputError(f"--baseline {baseline!r} is not among the heuristics run")
    out_dir = _out_dir(args.out)

    config = _config_from_args(args)
    runs: Dict[str, List[bab.RunStats]] = {kind: [] for kind in kinds}  # suite order
    for name, model_path, spec_path in instances:
        task = model.load_task(model_path, spec_path)
        for kind in kinds:
            runs[kind].append(bab.verify(task, kind, config))
        del task  # not held, with its layers' bound constants, while the next one loads
    rows = sorted([name, kind, s.verdict, s.branches_visited, s.splits_made, _fmt(s.wall_time_s)]
                  for kind, stats in runs.items()
                  for (name, _, _), s in zip(instances, stats))
    # Made once every run is done, so a task error leaves no empty
    # report directory (building every task first would hold the whole suite).
    _out_dir(args.out, make=True)
    _write_csv(out_dir / "results.csv",
               ["instance", "heuristic", "verdict", "branches", "splits", "time_s"], rows)

    n = len(instances)
    summary_rows, head_rows = [], []
    for kind, stats in runs.items():
        branches = [s.branches_visited for s in stats]
        times = [s.wall_time_s for s in stats]
        unknown = sum(s.verdict == bab.UNKNOWN for s in stats)
        win_br = win_time = ""
        if kind != baseline:
            # One paired count per kind: wins, ties and losses on branches
            # against the baseline's run on the same instance.
            wins = ties = time_wins = 0
            for s, b in zip(stats, runs[baseline]):
                wins += s.branches_visited < b.branches_visited
                ties += s.branches_visited == b.branches_visited
                time_wins += s.wall_time_s <= b.wall_time_s
            win_br = _fmt(100.0 * (wins + ties) / n)  # ties count as wins
            win_time = _fmt(100.0 * time_wins / n)
            head_rows.append([kind, baseline, wins, ties, n - wins - ties, win_br])
        centres = [_fmt(x) for s in (sorted(branches), sorted(times))  # np.median of floats
                   for x in (sum(s) / n, (s[(n - 1) // 2] + s[n // 2]) / 2)]  # loads numpy.ma
        summary_rows.append([kind, *centres, _fmt(100.0 * unknown / n), win_br, win_time])
    _write_csv(
        out_dir / "summary.csv",
        ["heuristic", "branches_mean", "branches_median", "time_mean_s", "time_median_s",
         "pct_timeout", "win_rate_branches_pct", "win_rate_time_pct"],
        summary_rows,
    )
    _write_csv(
        out_dir / "head_to_head.csv",
        ["heuristic", "baseline", "wins", "ties", "losses", "dominance_pct"],
        head_rows,
    )

    print(f"benchmarked {n} instances x {len(kinds)} heuristics (baseline: {baseline})")
    widths = [14, 14, 16, 12, 12, 12, 8, 9]
    header = ["heuristic", "branches_mean", "branches_median", "time_mean_s",
              "time_med_s", "pct_timeout", "win_br", "win_time"]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in summary_rows:
        cells = [row[0]] + [f"{float(c):.4g}" if c != "" else "--" for c in row[1:]]
        print("  ".join(c.ljust(w)[:w] for c, w in zip(cells, widths)))
    return 0


def cmd_oracle(args) -> int:
    if args.samples < 1:
        raise model.InputError(f"--samples must be positive, got {args.samples}")
    if args.samples > oracle.MAX_ORACLE_SAMPLES:
        raise model.InputError(
            f"--samples {args.samples} exceeds the oracle's cap {oracle.MAX_ORACLE_SAMPLES}")
    task = model.load_task(args.model, args.spec)
    min_value, argmin = oracle.exact_min_margin(task)
    attack = oracle.grid_attack(task, args.samples, args.seed)
    result = {
        "min_value": min_value,
        "argmin": argmin.tolist(),
        "unsafe": min_value <= 0.0,
        "attack": None if attack is None else {"x": attack[0].tolist(), "margin": attack[1]},
    }
    print(_json(result, indent=2))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT_ERROR: argparse's own 2 is the Unknown code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reluverify",
        description="Complete verifier for feedforward ReLU networks over box domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one (model, spec) instance")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--heuristic", default=heuristics.DRG,
                   help="branching heuristic: " + ", ".join(heuristics.KINDS))
    p.add_argument("--output", default=None, help="write the result JSON here instead of stdout")
    p.add_argument("--trace", default=None, help="write a per-node JSONL trace to this path")
    _add_verify_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="compare heuristics over a suite directory")
    p.add_argument("--suite", required=True, help="directory of *.model.json / *.spec.json pairs")
    p.add_argument("--heuristics", required=True, help="comma-separated heuristic kinds")
    p.add_argument("--baseline", default=None,
                   help="baseline heuristic for win rates (default: babsr if run, else first)")
    p.add_argument("--out", required=True, help="output directory for CSV reports")
    _add_verify_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate seeded random instances")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--layers", type=int, required=True, help="number of hidden layers")
    p.add_argument("--widths", required=True, help="hidden widths, comma list or single value")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, help="box half-width around the anchor")
    p.add_argument("--weight-scale", type=float, default=1.0)
    p.add_argument("--inputs", type=int, default=2)
    p.add_argument("--outputs", type=int, default=2)
    p.add_argument("--out", required=True, help="suite directory to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="exact minimum margin of a tiny instance")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # gen and oracle seed numpy generators
            raise model.InputError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except model.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug or a resource limit: exiting 1 would read as Unsafe
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

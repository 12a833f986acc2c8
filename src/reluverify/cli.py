"""Command-line entry points: verify one instance, benchmark heuristics over a
suite, generate seeded instances, and query the exact oracle.

Exit codes: 0 Safe, 1 Unsafe, 2 Unknown, 3 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bab, heuristics, model, oracle

EXIT_BY_VERDICT = {bab.SAFE: 0, bab.UNSAFE: 1, bab.UNKNOWN: 2}
EXIT_INPUT_ERROR = 3


def _config_from_args(args, trace: bool = False) -> bab.BabConfig:
    return bab.BabConfig(
        alpha_iters=args.alpha_iters,
        alpha_step=args.alpha_step,
        trace=trace,
    )


def _add_verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=60.0, help="wall-clock budget in seconds")
    p.add_argument("--max-branches", type=int, default=100_000, help="sub-domain budget")
    p.add_argument("--alpha-iters", type=int, default=20, help="slope-optimization iterations")
    p.add_argument("--alpha-step", type=float, default=0.25, help="initial ascent step size")


def _result_dict(stats: bab.RunStats, heuristic: str, config: bab.BabConfig,
                 task: model.VerificationTask) -> dict:
    result = {
        "verdict": stats.verdict,
        "branches": stats.branches_visited,
        "splits": stats.splits_made,
        "time_s": stats.wall_time_s,
        "heuristic": heuristic,
        "config_echo": dict(
            config.to_dict(),
            timeout_seconds=task.timeout_seconds,
            max_branches=task.max_branches,
            heuristic=heuristic,
        ),
    }
    if stats.witness is not None:
        result["witness"] = stats.witness.to_dict()
    if stats.unknown_reason is not None:
        result["unknown_reason"] = stats.unknown_reason
    return result


def cmd_verify(args) -> int:
    task = model.load_task(args.model, args.spec, args.timeout, args.max_branches)
    config = _config_from_args(args, trace=bool(args.trace))
    stats = bab.verify(task, args.heuristic, config)
    result = _result_dict(stats, args.heuristic, config, task)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in stats.per_node_trace or []:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
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
    balanced between Safe and Unsafe instead of collapsing to one verdict."""
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

    net = model.make_network(layer_defs)
    logits, preacts = model.forward(net, anchor)
    anchor_margin = float((C @ logits).min())
    grad_scale = max(
        float(np.abs(net.layers[0].weights.T
                     @ model.margin_preact_gradients(net, c_row, preacts)[0]).sum())
        for c_row in C
    )
    target = eps * max(grad_scale, 1e-6) * rng.uniform(0.4, 1.6)
    output_bias = layer_defs[-1][1]
    output_bias[0] += target - anchor_margin  # shifts every margin row equally
    return model.make_network(layer_defs), anchor - eps, anchor + eps, C


def cmd_gen(args) -> int:
    try:
        widths = [int(w) for w in str(args.widths).split(",") if w.strip()]
    except ValueError:
        print(f"error: --widths: cannot parse {args.widths!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if len(widths) == 1 and args.layers > 1:
        widths = widths * args.layers
    if args.layers < 1 or len(widths) != args.layers or any(w < 1 for w in widths):
        print(
            f"error: --layers {args.layers} and --widths {args.widths!r} do not describe a"
            " valid hidden stack",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    for flag, value in (("--eps", args.eps), ("--weight-scale", args.weight_scale)):
        if not 0.0 < value < float("inf"):  # NaN too
            print(f"error: {flag} must be finite and > 0, got {value}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if args.count < 1 or args.inputs < 1 or args.outputs < 1:
        print("error: --count/--inputs/--outputs must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.count):
        net, lo, hi, C = generate_instance(
            rng, args.inputs, widths, args.outputs, args.eps, args.weight_scale
        )
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
    for kind in kinds:
        heuristics.check_kind(kind)
    if not kinds:
        print("error: --heuristics: empty list", file=sys.stderr)
        return EXIT_INPUT_ERROR
    instances = discover_suite(args.suite)
    if not instances:
        print(f"error: no (model, spec) pairs found in {args.suite}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    baseline = args.baseline or (heuristics.BABSR if heuristics.BABSR in kinds else kinds[0])
    if baseline not in kinds:
        print(f"error: --baseline {baseline!r} is not among the heuristics run", file=sys.stderr)
        return EXIT_INPUT_ERROR

    config = _config_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records: Dict[Tuple[str, str], bab.RunStats] = {}
    rows = []
    for name, model_path, spec_path in instances:
        task = model.load_task(model_path, spec_path, args.timeout, args.max_branches)
        for kind in kinds:
            stats = bab.verify(task, kind, config)
            records[(name, kind)] = stats
            rows.append(
                [name, kind, stats.verdict, stats.branches_visited, stats.splits_made,
                 _fmt(stats.wall_time_s)]
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out_dir / "results.csv",
               ["instance", "heuristic", "verdict", "branches", "splits", "time_s"], rows)

    names = [name for name, _, _ in instances]
    summary_rows = []
    for kind in kinds:
        branches = [records[(n, kind)].branches_visited for n in names]
        times = [records[(n, kind)].wall_time_s for n in names]
        unknown = sum(records[(n, kind)].verdict == bab.UNKNOWN for n in names)
        if kind == baseline:
            win_br = win_time = ""
        else:
            win_br = _fmt(
                100.0
                * sum(
                    records[(n, kind)].branches_visited
                    <= records[(n, baseline)].branches_visited
                    for n in names
                )
                / len(names)
            )
            win_time = _fmt(
                100.0
                * sum(
                    records[(n, kind)].wall_time_s <= records[(n, baseline)].wall_time_s
                    for n in names
                )
                / len(names)
            )
        summary_rows.append(
            [
                kind,
                _fmt(statistics.mean(branches)),
                _fmt(statistics.median(branches)),
                _fmt(statistics.mean(times)),
                _fmt(statistics.median(times)),
                _fmt(100.0 * unknown / len(names)),
                win_br,
                win_time,
            ]
        )
    _write_csv(
        out_dir / "summary.csv",
        ["heuristic", "branches_mean", "branches_median", "time_mean_s", "time_median_s",
         "pct_timeout", "win_rate_branches_pct", "win_rate_time_pct"],
        summary_rows,
    )

    head_rows = []
    for kind in kinds:
        if kind == baseline:
            continue
        wins = ties = losses = 0
        for n in names:
            a = records[(n, kind)].branches_visited
            b = records[(n, baseline)].branches_visited
            if a < b:
                wins += 1
            elif a == b:
                ties += 1
            else:
                losses += 1
        dom = 100.0 * (wins + ties) / len(names)
        head_rows.append([kind, baseline, wins, ties, losses, _fmt(dom)])
    _write_csv(
        out_dir / "head_to_head.csv",
        ["heuristic", "baseline", "wins", "ties", "losses", "dominance_pct"],
        head_rows,
    )

    print(f"benchmarked {len(names)} instances x {len(kinds)} heuristics"
          f" (baseline: {baseline})")
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
        print(f"error: --samples must be positive, got {args.samples}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    task = model.load_task(args.model, args.spec)
    try:
        min_value, argmin = oracle.exact_min_margin(task)
    except oracle.OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    attack = oracle.grid_attack(task, args.samples, args.seed)
    result = {
        "min_value": min_value,
        "argmin": argmin.tolist(),
        "unsafe": min_value <= 0.0,
        "attack": None if attack is None else {"x": attack[0].tolist(), "margin": attack[1]},
    }
    print(json.dumps(result, indent=2, sort_keys=True))
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
    if getattr(args, "seed", 0) < 0:  # gen and oracle seed numpy generators
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except model.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The random-instance suites
are seeded and deterministic: a passing run stays passing.
"""

import csv
import itertools
import time
from pathlib import Path

import numpy as np

from reluverify import bab, cli, heuristics, model, oracle, relax

from helpers import identity_relu_net, make_domain, oracle_sized_task, random_net, random_task


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_case_study_regression():
    t0 = time.perf_counter()
    ok = True
    # n_A spans [-2, 18], n_B spans [-4, 4]; both have coefficient -1 and the
    # witness sits at z*_A = 8, z*_B = 0 (the identity layer passes x through).
    nb = relax.NeuronBounds([np.array([-2.0, -4.0])], [np.array([18.0, 4.0])])
    _, _, slope, icpt = nb.relaxation(0)
    ok &= abs(slope[0] - 0.9) <= 1e-12 and abs(icpt[0] - 1.8) <= 1e-12
    ok &= abs(slope[1] - 0.5) <= 1e-12 and abs(icpt[1] - 2.0) <= 1e-12

    net = identity_relu_net(2)
    z_star = np.array([8.0, 0.0])
    bound = relax.BoundResult(np.array([1.0, 1.0]), 0.0, -1.0, {0: np.array([-1.0, -1.0])}, nb,
                              z_star)
    preacts = model.forward(net, z_star)[1]

    def scores(kind):  # neither kind reads the domain (only center does)
        return heuristics.score_branches(kind, net, np.array([1.0]), bound, None, preacts,
                                         None)[0]

    drg = scores(heuristics.DRG)
    ok &= abs(drg[0][0] - 1.0) <= 1e-12 and abs(drg[0][1] - 2.0) <= 1e-12
    ok &= heuristics.select_branch(drg) == (0, 1)
    ok &= heuristics.select_branch(scores(heuristics.WIDTH)) == (0, 0)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("case-study regression", bool(ok), f"{elapsed:.3f}s")


def test_soundness_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    safe = unsafe = unknown = violations = 0
    for i in range(200):
        n0 = int(rng.integers(2, 7))
        n_hidden = int(rng.integers(1, 4))  # 2-4 layers total
        widths = [int(rng.integers(4, 21)) for _ in range(n_hidden)]
        task = random_task(rng, n0, widths, 2, eps=float(rng.uniform(0.05, 0.35)),
                           scale=2.0, timeout_seconds=5.0, max_branches=300)
        stats = bab.verify(task, "drg")
        if stats.verdict == bab.SAFE:
            safe += 1
            if oracle.grid_attack(task, 100_000, seed=i) is not None:
                violations += 1
        elif stats.verdict == bab.UNSAFE:
            unsafe += 1
        else:
            unknown += 1
    elapsed = time.perf_counter() - t0
    detail = (f"safe={safe} unsafe={unsafe} unknown={unknown} "
              f"violations={violations} {elapsed:.1f}s")
    _report("soundness suite", violations == 0 and safe > 0 and elapsed < 300.0, detail)


def test_oracle_equivalence():
    rng = np.random.default_rng(77)
    matches = 0
    witnesses_ok = True
    for i in range(50):
        task = oracle_sized_task(rng, timeout_seconds=60.0, max_branches=100_000)
        min_value, _ = oracle.exact_min_margin(task)
        stats = bab.verify(task, "drg")
        expected = bab.UNSAFE if min_value <= 0 else bab.SAFE
        if stats.verdict == expected:
            matches += 1
        if stats.verdict == bab.UNSAFE:
            m = model.margin(task.network, task.spec_matrix, stats.witness.x_star)
            witnesses_ok &= float(m.min()) <= 0.0
    _report("oracle equivalence", matches == 50 and witnesses_ok, f"{matches}/50")


def test_relaxation_validity():
    rng = np.random.default_rng(88)
    failures = 0
    for _ in range(1000):
        l = -rng.uniform(1e-3, 10.0)
        u = rng.uniform(1e-3, 10.0)
        alpha = rng.uniform(0.0, 1.0)
        rel = relax.NeuronBounds([np.array([l])], [np.array([u])]).relaxation(0)
        up_slope, up_icpt = rel[2][0], rel[3][0]
        lo_slope = relax._lower_slope(rel, np.array([alpha]))[0]
        z = np.linspace(l, u, 1000)
        relu = np.maximum(z, 0.0)
        if np.any(lo_slope * z > relu + 1e-12):
            failures += 1
        elif np.any(relu > up_slope * z + up_icpt + 1e-12):
            failures += 1
    _report("relaxation validity", failures == 0, f"{failures} failures")


def test_witness_optimality():
    rng = np.random.default_rng(99)
    exact = 0
    for _ in range(1000):
        n0 = int(rng.integers(1, 13))
        w = rng.normal(size=n0)
        b = float(rng.normal())
        lo = rng.uniform(-3, 0, n0)
        hi = lo + rng.uniform(0, 4, n0)
        x_star = relax.concretize(w, b, lo, hi)[0]
        val = relax.concretize(w, b, x_star, x_star)[1]
        corner_min = min(
            relax.concretize(w, b, c, c)[1] for c in map(np.array, itertools.product(*zip(lo, hi)))
        )
        if val == corner_min:
            exact += 1
    _report("witness optimality", exact == 1000, f"{exact}/1000 exact")


def test_alpha_gradient_check():
    rng = np.random.default_rng(111)
    checked = 0
    worst = 0.0
    never_worse = True
    while checked < 100:
        net = random_net(rng, 3, [int(rng.integers(4, 7)), int(rng.integers(3, 6))], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.2, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=2)
        params = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
        for k in params.alpha:
            params.alpha[k] = rng.uniform(0.2, 0.8, size=params.alpha[k].shape)
        grads = relax.alpha_gradient(net, c, d, params)
        h = 1e-5
        for k in sorted(grads):
            for j in np.flatnonzero(d.neuron_bounds.unstable_mask(k)):
                if checked >= 100:
                    break
                p_hi = params.copy()
                p_hi.alpha[k][j] = p_hi.alpha[k][j] + h
                p_lo = params.copy()
                p_lo.alpha[k][j] = p_lo.alpha[k][j] - h
                fd = (relax.compute_bounds(net, c, d, p_hi).lower_bound
                      - relax.compute_bounds(net, c, d, p_lo).lower_bound) / (2 * h)
                an = grads[k][j]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
                checked += 1
        init = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
        lb_init = relax.compute_bounds(net, c, d, init).lower_bound
        lb_opt = relax.compute_bounds(
            net, c, d, relax.optimize_alpha(net, c, d, 20, 0.25)[0]
        ).lower_bound
        never_worse &= lb_opt >= lb_init
    _report("alpha gradient check", worst <= 1e-4 and never_worse,
            f"worst rel err {worst:.2e}, {checked} points")


def test_monotonicity_over_traces():
    rng = np.random.default_rng(222)
    total = bad = 0
    for i in range(50):
        task = random_task(rng, int(rng.integers(2, 5)),
                           [int(rng.integers(4, 9)) for _ in range(int(rng.integers(1, 3)))],
                           2, eps=float(rng.uniform(0.15, 0.5)), scale=2.0,
                           timeout_seconds=10.0, max_branches=500)
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
        for entry in stats.per_node_trace or []:
            if "lower_bound" in entry and np.isfinite(entry["parent_lower_bound"]):
                total += 1
                if entry["lower_bound"] < entry["parent_lower_bound"] - 1e-9:
                    bad += 1
    _report("monotonicity", bad == 0 and total > 0, f"{total - bad}/{total} child bounds")


def _csv_without_time_columns(path: Path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if "time" not in name]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def test_bench_determinism():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        suite = tmp / "suite"
        assert cli.main(["gen", "--seed", "13", "--layers", "2", "--widths", "5,4",
                         "--count", "6", "--eps", "0.25", "--out", str(suite)]) == 0
        args = ["bench", "--suite", str(suite), "--heuristics", "drg,babsr,width",
                "--timeout", "10", "--max-branches", "400"]
        assert cli.main(args + ["--out", str(tmp / "r1")]) == 0
        assert cli.main(args + ["--out", str(tmp / "r2")]) == 0
        same = True
        for name in ("results.csv", "summary.csv", "head_to_head.csv"):
            a = _csv_without_time_columns(tmp / "r1" / name)
            b = _csv_without_time_columns(tmp / "r2" / name)
            same &= a.encode() == b.encode()
        _report("bench determinism", same, "3 reports compared without time columns")


def test_directional_dominance():
    rng = np.random.default_rng(333)
    collected = 0
    wins = 0
    while collected < 50:
        task = oracle_sized_task(rng, timeout_seconds=60.0, max_branches=100_000)
        min_value, _ = oracle.exact_min_margin(task)
        if min_value <= 0:
            continue
        drg = bab.verify(task, "drg")
        sym = bab.verify(task, "drg_symmetric")
        if drg.verdict != bab.SAFE or sym.verdict != bab.SAFE:
            continue
        collected += 1
        if drg.branches_visited <= sym.branches_visited:
            wins += 1
    _report("directional dominance", wins >= 30, f"{wins}/50 better-or-equal")

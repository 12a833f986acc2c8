import collections
import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from reluverify import bab, cli, heuristics, model, oracle, relax

from helpers import (layer_scan, layout_nets, make_domain, oracle_sized_task, propagate_of,
                     random_task, reference_propagate_bounds, scalar_relu_net, scalar_task,
                     stack_of, unstable)


def test_verify_safe_at_root_with_optimized_alpha():
    task = scalar_task(scalar_relu_net(out_bias=0.1))  # m(x) = ReLU(x) + 0.1
    stats = bab.verify(task, "drg")
    assert stats.verdict == bab.SAFE
    assert stats.branches_visited == 0
    assert stats.splits_made == 0


def test_verify_unsafe_at_root_with_corner_witness():
    task = scalar_task(scalar_relu_net(out_bias=-0.5))  # m(x) = ReLU(x) - 0.5
    stats = bab.verify(task, "drg")
    assert stats.verdict == bab.UNSAFE
    assert stats.branches_visited == 0
    assert stats.witness is not None
    assert stats.witness.concrete_margin.min() <= 0
    assert abs(stats.witness.concrete_margin.min() + 0.5) < 1e-12
    # re-evaluating the witness through the model gives the same verdict
    m = model.margin(task.network, task.spec_matrix, stats.witness.x_star)
    assert m.min() <= 0
    # the reported witness is the root's optimized bound and its minimizer
    root = make_domain(task.network, task.input_lower, task.input_upper)
    _, bound = relax.optimize_alpha(task.network, task.spec_matrix, stack_of(root),
                                    bab.BabConfig().alpha_iters)
    assert stats.witness.abstract_margin == bound.lower_bound[0, 0]
    assert np.array_equal(stats.witness.x_star, bound.x_star[0, 0])


def test_split_subdomain_clamps_children():
    net = model.make_network([
        (np.array([[2.0]]), np.array([0.0]), model.RELU),
        (np.array([[1.0]]), np.array([0.0]), model.LINEAR),
    ])
    d = make_domain(net, [-1.0], [1.0])
    assert d.neuron_bounds.lower[0].tolist() == [-2.0]
    pos, neg = bab.split_subdomain(net, d, 0, 0)
    # a child copies nothing at split time: it keeps the parent's intervals
    # and carries the clamp, which its bounds apply
    assert pos.bounds is d.bounds and neg.bounds is d.bounds
    assert pos.clamp == (0, 0, +1) and neg.clamp == (0, 0, -1)
    assert d.neuron_bounds.lower[0].tolist() == [-2.0] and d.neuron_bounds.upper[0].tolist() == [2.0]
    assert pos.neuron_bounds.lower[0].tolist() == [0.0]
    assert pos.neuron_bounds.upper[0].tolist() == [2.0]
    assert neg.neuron_bounds.lower[0].tolist() == [-2.0]
    assert neg.neuron_bounds.upper[0].tolist() == [0.0]
    assert d.n_splits == 0 and pos.n_splits == neg.n_splits == 1
    assert pos.depth == d.depth + 1
    a, b = bab.input_bisect(net, pos)
    assert a.n_splits == b.n_splits == 1 and a.depth == pos.depth + 1


def test_split_partition_covers_parent_exactly_once():
    rng = np.random.default_rng(51)
    for trial in range(10):
        task = random_task(rng, 2, (5,), 1, eps=0.8)
        net = task.network
        d = make_domain(net, task.input_lower, task.input_upper)
        layer0 = unstable(d.neuron_bounds, 0)
        if layer0.size == 0:
            continue
        j = int(layer0[0])
        pos, neg = bab.split_subdomain(net, d, 0, j)
        xs = rng.uniform(task.input_lower, task.input_upper, size=(1000, 2))
        z = xs @ net.layers[0].weights.T + net.layers[0].bias
        in_pos = z[:, j] >= 0.0  # boundary belongs to the +1 child
        in_neg = z[:, j] < 0.0
        assert np.all(in_pos ^ in_neg)


def _satisfies_splits(net, x, splits):
    _, preacts = model.forward(net, x)
    for layer, j, sign in splits:
        z = preacts[layer][j]
        if sign > 0 and not z >= 0.0:
            return False
        if sign < 0 and not z < 0.0:
            return False
    return True


def test_nested_split_sets_partition_parent_region():
    rng = np.random.default_rng(50)
    task = random_task(rng, 2, (5, 4), 1, eps=0.8)
    net = task.network
    parent = make_domain(net, task.input_lower, task.input_upper)
    # first split, then split one child again on a later-layer neuron
    j0 = int(unstable(parent.neuron_bounds, 0)[0])
    child, _ = bab.split_subdomain(net, parent, 0, j0)
    unstable1 = unstable(child.neuron_bounds, 1)
    if unstable1.size == 0:
        unstable1 = unstable(child.neuron_bounds, 0)
        layer = 0
    else:
        layer = 1
    j1 = int(unstable1[0])
    g1, g2 = bab.split_subdomain(net, child, layer, j1)
    path = [(0, j0, +1)]
    path1, path2 = path + [(layer, j1, +1)], path + [(layer, j1, -1)]
    checked = 0
    for x in rng.uniform(task.input_lower, task.input_upper, size=(1000, 2)):
        if not _satisfies_splits(net, x, path):
            assert not (_satisfies_splits(net, x, path1)
                        or _satisfies_splits(net, x, path2))
            continue
        in1 = _satisfies_splits(net, x, path1)
        in2 = _satisfies_splits(net, x, path2)
        assert in1 ^ in2  # exactly one grandchild, boundary on the +1 side
        checked += 1
    assert checked > 50


def test_split_rejects_repeat_and_stable():
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    pos, _ = bab.split_subdomain(net, d, 0, 0)
    with pytest.raises(ValueError):
        bab.split_subdomain(net, pos, 0, 0)
    stable = make_domain(net, [0.5], [1.0])
    with pytest.raises(ValueError):
        bab.split_subdomain(net, stable, 0, 0)


def test_child_node_bounds_monotone_in_traces():
    rng = np.random.default_rng(52)
    checked = 0
    for trial in range(15):
        task = random_task(rng, 3, (5, 4), 2, eps=float(rng.uniform(0.2, 0.6)))
        config = bab.BabConfig(timeout_seconds=20.0, max_branches=3000, trace=True)
        stats = bab.verify(task, "drg", config)
        for entry in stats.per_node_trace or []:
            if "lower_bound" in entry and np.isfinite(entry["parent_lower_bound"]):
                assert entry["lower_bound"] >= entry["parent_lower_bound"] - 1e-9
                checked += 1
    assert checked > 0


def test_input_bisect_midpoint_and_widest():
    net = model.make_network([(np.eye(2), np.zeros(2), model.LINEAR)])
    d = make_domain(net, [0.0, 0.0], [4.0, 1.0])
    a, b = bab.input_bisect(net, d)
    assert a.box_upper.tolist() == [2.0, 1.0]
    assert b.box_lower.tolist() == [2.0, 0.0]


def test_input_bisect_tie_takes_lowest_dimension():
    net = model.make_network([(np.eye(2), np.zeros(2), model.LINEAR)])
    d = make_domain(net, [0.0, 0.0], [1.0, 1.0])
    a, b = bab.input_bisect(net, d)
    assert a.box_upper.tolist() == [0.5, 1.0]
    assert b.box_lower.tolist() == [0.5, 0.0]


def test_input_bisect_shrinks_width_geometrically():
    net = model.make_network([(np.eye(3), np.zeros(3), model.LINEAR)])
    d = make_domain(net, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    for k in range(1, 13):
        d = bab.input_bisect(net, d)[0]
        max_width = float((d.box_upper - d.box_lower).max())
        assert max_width <= 1.0 * 2.0 ** (-(k // 3)) + 1e-15


def test_input_bisect_zero_width_returns_none():
    net = model.make_network([(np.eye(2), np.zeros(2), model.LINEAR)])
    d = make_domain(net, [0.3, -1.0], [0.3, -1.0])
    assert bab.input_bisect(net, d) is None


def test_input_bisect_splits_a_box_whose_endpoints_sum_past_float64():
    # 1e308 + 1.7e308 overflows; the halves must still meet at a finite mid.
    net = model.make_network([(np.eye(1), np.zeros(1), model.LINEAR)])
    d = make_domain(net, [1e308], [1.7e308])
    a, b = bab.input_bisect(net, d)
    mid = a.box_upper[0]
    assert b.box_lower[0] == mid and mid == 1.35e308
    assert a.box_lower[0] == 1e308 and b.box_upper[0] == 1.7e308


def test_worklist_pops_lowest_bound_first():
    net = scalar_relu_net()
    w = bab.Worklist()
    d1 = make_domain(net, [-1.0], [1.0])
    d1.parent_lower_bound = -1.0
    d3 = make_domain(net, [-1.0], [1.0])
    d3.parent_lower_bound = -3.0
    w.push(d1)
    w.push(d3)
    assert [d.parent_lower_bound for d in w.pop()] == [-3.0]
    assert [d.parent_lower_bound for d in w.pop()] == [-1.0]
    assert w.pop() == []
    w.push(d1)
    w.push(d3)
    assert w.pop(5) == [d3, d1] and len(w) == 0


def test_empty_worklist_step_returns_safe(monkeypatch):
    # The root is pruned and queues nothing, so the worklist is empty after
    # the root's step: the run ends Safe without popping or another pass.
    pop, popped = bab.Worklist.pop, []

    def recording_pop(self, limit):
        popped.append((len(self), pop(self, limit)))
        return popped[-1][1]

    monkeypatch.setattr(bab.Worklist, "pop", recording_pop)
    stats = bab.verify(scalar_task(scalar_relu_net(out_bias=0.1)), "drg")
    assert popped == []
    assert stats.verdict == bab.SAFE and stats.unknown_reason is None
    assert (stats.passes, stats.bounded, stats.empty) == (0, 0, 0)


def test_determinism_identical_runs():
    rng = np.random.default_rng(54)
    task = random_task(rng, 3, (6, 6), 3, eps=0.4)
    config = bab.BabConfig(timeout_seconds=30.0, max_branches=5000, trace=True)
    a = bab.verify(task, "drg", config)
    b = bab.verify(task, "drg", config)
    assert a.verdict == b.verdict
    assert a.branches_visited == b.branches_visited
    assert a.splits_made == b.splits_made
    assert a.gap_clamp_events == b.gap_clamp_events
    assert a.per_node_trace == b.per_node_trace
    if a.witness is not None:
        assert np.array_equal(a.witness.x_star, b.witness.x_star)


def test_verdicts_match_exact_oracle():
    rng = np.random.default_rng(55)
    for trial in range(15):
        task = oracle_sized_task(rng)
        mv, _ = oracle.exact_min_margin(task)
        stats = bab.verify(task, "drg", bab.BabConfig(timeout_seconds=30.0, max_branches=100_000))
        expected = bab.UNSAFE if mv <= 0 else bab.SAFE
        assert stats.verdict == expected, f"trial {trial}: oracle min {mv}, got {stats.verdict}"
        if stats.verdict == bab.UNSAFE:
            m = model.margin(task.network, task.spec_matrix, stats.witness.x_star)
            assert m.min() <= 0


def test_branch_budget_gives_unknown():
    # |x| - 0.2 on [-1, 1] is unsafe near 0 but the corner witnesses are safe,
    # so the root cannot decide and the budget must bite.
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([-0.2]), model.LINEAR),
    ])
    stats = bab.verify(scalar_task(net), "drg", bab.BabConfig(max_branches=0))
    assert stats.verdict == bab.UNKNOWN
    assert stats.unknown_reason == "branch budget exhausted"


def test_config_rejects_budgets_out_of_range():
    # NaN fails every comparison, so a `<= 0` check would let it through and
    # the budget would never run out.
    for timeout in (0.0, -1.0, float("nan")):
        with pytest.raises(model.InputError, match="timeout_seconds"):
            bab.BabConfig(timeout_seconds=timeout)
    with pytest.raises(model.InputError, match="max_branches"):
        bab.BabConfig(max_branches=-1)
    # A non-integral budget would pass a range check and crash the run later
    # with a raw TypeError (range() in Worklist.pop, optimize_alpha's loop).
    for name in ("max_branches", "alpha_iters"):
        for value in (2.5, np.float64(3.0), True, "5", None):
            with pytest.raises(model.InputError, match=name):
                bab.BabConfig(**{name: value})
        assert getattr(bab.BabConfig(**{name: np.int64(3)}), name) == 3
    for value in ("5", None, True, 10**400, Fraction(10**400)):
        with pytest.raises(model.InputError, match="timeout_seconds"):
            bab.BabConfig(timeout_seconds=value)
    assert bab.BabConfig(timeout_seconds=2).timeout_seconds == 2
    # A truthy non-bool such as "no" would turn tracing on and be echoed.
    for value in ("no", 1, None):
        with pytest.raises(model.InputError, match="trace"):
            bab.BabConfig(trace=value)


def test_config_keeps_each_budget_as_a_plain_number():
    # Numpy and Fraction budgets pass the checks and are kept as the int or
    # float they equal: the config echo then serializes, and the run is the
    # one plain numbers give.
    odd = bab.BabConfig(timeout_seconds=Fraction(600), max_branches=np.int64(40),
                        alpha_iters=np.int32(2), trace=True)
    plain = bab.BabConfig(timeout_seconds=600.0, max_branches=40, alpha_iters=2, trace=True)
    assert [(k, type(v)) for k, v in odd.to_dict().items()] == \
        [(k, type(v)) for k, v in plain.to_dict().items()]
    assert json.dumps(odd.to_dict(), allow_nan=False) == json.dumps(plain.to_dict())
    task = random_task(np.random.default_rng(53), 3, (6, 6), 3, eps=0.8)  # Safe in 21 branches
    a, b = bab.verify(task, "drg", odd), bab.verify(task, "drg", plain)
    assert a.branches_visited == b.branches_visited > 0
    for name in ("verdict", "splits_made", "gap_clamp_events", "unknown_reason", "per_node_trace"):
        assert getattr(a, name) == getattr(b, name), name


def test_timeout_gives_unknown():
    rng = np.random.default_rng(56)
    task = random_task(rng, 4, (8, 8), 2, eps=1.5)
    stats = bab.verify(task, "drg", bab.BabConfig(timeout_seconds=1e-9, max_branches=10**9))
    if stats.verdict == bab.UNKNOWN:  # root may already decide; then nothing to check
        assert stats.unknown_reason == "timeout"


def test_a_root_that_prunes_is_safe_past_any_deadline():
    # The deadline is checked between nodes and before a step's pop, never
    # after the last node: a root that prunes leaves nothing to do, so the run
    # is Safe however early it times out.
    task = scalar_task(scalar_relu_net(out_bias=1.5))
    stats = bab.verify(task, "drg", bab.BabConfig(timeout_seconds=1e-9, alpha_iters=0))
    assert (stats.verdict, stats.unknown_reason, stats.branches_visited) == (bab.SAFE, None, 0)


def test_a_deadline_passing_at_the_last_node_leaves_the_verdict_standing(monkeypatch):
    # A deadline that passes while the last node is applied ends nothing: no
    # node is left, so the run ends Safe with the untimed run's tree.
    task = random_task(np.random.default_rng(2), 3, (6,), 1, eps=0.5)
    config = bab.BabConfig(timeout_seconds=600.0, max_branches=200, trace=True)
    full = bab.verify(task, "drg", config)
    assert full.verdict == bab.SAFE and full.branches_visited > 2
    entry, late = bab._trace_entry, []

    def last_entry(node, *args):
        late.append(node == full.branches_visited)
        return entry(node, *args)

    class Clock:  # real time until the last node's trace line, then far past any deadline
        @staticmethod
        def perf_counter():
            return time.perf_counter() + (1e9 if any(late) else 0.0)

    monkeypatch.setattr(bab, "_trace_entry", last_entry)
    monkeypatch.setattr(bab, "time", Clock)
    stats = bab.verify(task, "drg", config)
    assert late[-1] and not any(late[:-1])
    assert (stats.verdict, stats.unknown_reason) == (bab.SAFE, None)
    assert stats.per_node_trace == full.per_node_trace


def test_all_zero_scores_bisect_until_decided():
    # m(x) = |x| + c has positive coefficients on both neurons, so drg's gap
    # scores vanish: every node bisects, and the search still decides.
    bisections = 0
    for c, expected in ((-0.2, bab.UNSAFE), (0.05, bab.SAFE)):
        net = model.make_network([
            (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
            (np.array([[1.0, 1.0]]), np.array([c]), model.LINEAR),
        ])
        stats = bab.verify(scalar_task(net), "drg",
                           bab.BabConfig(max_branches=10_000, trace=True))
        assert stats.verdict == expected
        assert all("split" not in e for e in stats.per_node_trace)
        bisections += stats.splits_made
    assert bisections > 0


def test_bisect_after_both_kinds_score_zero_traces_the_heuristics_own_scores():
    # Every coefficient is positive, so drg scores every neuron 0 and each of
    # its nodes bisects. babsr splits neurons 0 and 2, after which neuron 1,
    # which weighs 1e-14 in the margin, scores about 5e-15, within
    # ZERO_SCORE_TOL, and its nodes bisect too. Each bisection line carries
    # the scores of the run's own heuristic.
    config = bab.BabConfig(max_branches=200, trace=True)
    traces = {kind: bab.verify(scalar_task(_all_positive_net()), kind, config).per_node_trace
              for kind in ("drg", "babsr")}
    assert all("split" not in e for e in traces["drg"])
    assert any("split" in e for e in traces["babsr"])
    bisects = {kind: [e for e in trace if e["action"] == "bisect"]
               for kind, trace in traces.items()}
    assert bisects["drg"] and all(e["score_max"] == 0.0 and e["score_n"] > 0
                                  for e in bisects["drg"])
    assert bisects["babsr"]
    assert all(0.0 < e["score_max"] <= heuristics.ZERO_SCORE_TOL for e in bisects["babsr"])


def test_unsafe_needs_no_branching_when_root_witness_hits():
    task = scalar_task(scalar_relu_net(out_bias=-2.0))
    stats = bab.verify(task, "width")
    assert stats.verdict == bab.UNSAFE and stats.branches_visited == 0


def test_every_heuristic_reaches_correct_verdicts():
    rng = np.random.default_rng(57)
    task = oracle_sized_task(rng)
    mv, _ = oracle.exact_min_margin(task)
    expected = bab.UNSAFE if mv <= 0 else bab.SAFE
    from reluverify.heuristics import KINDS

    for kind in KINDS:
        stats = bab.verify(task, kind, bab.BabConfig(timeout_seconds=30.0, max_branches=50_000))
        assert stats.verdict == expected, f"{kind}: {stats.verdict} vs {expected}"


def test_wall_time_counts_root_slope_optimization(monkeypatch):
    optimize = relax.optimize_alpha

    def slow_optimize(*args, **kwargs):
        time.sleep(0.05)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(relax, "optimize_alpha", slow_optimize)
    stats = bab.verify(scalar_task(scalar_relu_net(out_bias=0.1)), "drg")
    assert stats.verdict == bab.SAFE and stats.wall_time_s >= 0.05


def test_timeout_stops_root_slope_optimization(monkeypatch):
    # 5 spec rows over 64-wide layers, undecided at the root: with a tiny
    # timeout the root's slope optimization stops after its first stacked
    # bound pass, and the run ends on the timeout.
    rng = np.random.default_rng(64)
    task = random_task(rng, 8, (64, 64), 6, eps=0.3)
    compute, optimize = relax.compute_bounds, relax.optimize_alpha
    passes = {"in_optimize": 0}
    inside = []

    def counting_bounds(*args, **kwargs):
        passes["in_optimize"] += bool(inside)
        return compute(*args, **kwargs)

    def tracking_optimize(*args, **kwargs):
        inside.append(1)
        try:
            return optimize(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(relax, "compute_bounds", counting_bounds)
    monkeypatch.setattr(relax, "optimize_alpha", tracking_optimize)
    stats = bab.verify(task, "drg", bab.BabConfig(timeout_seconds=1e-6, max_branches=10**9))
    assert stats.verdict == bab.UNKNOWN and stats.unknown_reason == "timeout"
    assert 1 <= passes["in_optimize"] <= 2


def test_termination_measure_violations_raise():
    net = model.make_network([(np.eye(2), np.zeros(2), model.RELU),
                              (np.ones((1, 2)), np.zeros(1), model.LINEAR)])
    parent = make_domain(net, [-1.0, -1.0], [1.0, 1.0], splits={(0, 0): 1})
    same = make_domain(net, [-1.0, -1.0], [1.0, 1.0], splits={(0, 1): 1})
    with pytest.raises(bab.InvariantError, match="split"):
        bab._check_termination_measure(parent, same, (0, 0))
    with pytest.raises(bab.InvariantError, match="bisection"):
        bab._check_termination_measure(parent, same, None)
    child, _ = bab.input_bisect(net, parent)
    bab._check_termination_measure(parent, child, None)
    for child in bab.split_subdomain(net, parent, 0, 1):
        bab._check_termination_measure(parent, child, (0, 1))


def test_split_child_without_its_clamp_raises(monkeypatch):
    # The termination measure reads the clamp itself: a split whose children
    # lose it would leave the neuron unstable and could repeat forever. babsr
    # splits here; drg's scores vanish (both coefficients are positive), so
    # drg would only bisect.
    child = bab.SubDomain.child.__func__
    monkeypatch.setattr(bab.SubDomain, "child", classmethod(
        lambda cls, net, parent, lo, hi, clamp=None: child(cls, net, parent, lo, hi)))
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([-0.2]), model.LINEAR),
    ])
    with pytest.raises(bab.InvariantError, match="unstable"):
        bab.verify(scalar_task(net), "babsr", bab.BabConfig(max_branches=10))


def test_safe_verdicts_survive_grid_attack():
    rng = np.random.default_rng(60)
    attacked = 0
    for trial in range(10):
        task = random_task(rng, 3, (5, 5), 2, eps=float(rng.uniform(0.1, 0.4)))
        stats = bab.verify(task, "drg", bab.BabConfig(timeout_seconds=20.0, max_branches=2000))
        if stats.verdict == bab.SAFE:
            assert oracle.grid_attack(task, 20_000, seed=trial) is None
            attacked += 1
    assert attacked > 0


def test_deferred_child_bounds_equal_eager_propagation_bitwise(monkeypatch):
    # Splitting and bisecting bound nothing; a child's bounds, once read, are
    # exactly what the eager rule gives: propagate at split time and clamp
    # every split on the path again at its layer (reference_propagate_bounds).
    # A read leaves the child deferred, with its parent's bounds and its
    # clamp, so the one descended into is bounded first.
    def assert_same(lazy, eager):
        assert lazy.is_feasible() == eager.is_feasible()
        if lazy.is_feasible():
            assert len(lazy.lower) == len(eager.lower)
        for lazy_side, eager_side in ((lazy.lower, eager.lower), (lazy.upper, eager.upper)):
            for a, b in zip(lazy_side, eager_side):
                assert np.array_equal(a, b)

    propagate = relax.propagate_bounds
    long_chains = 0
    for seed in range(70, 76):
        task = random_task(np.random.default_rng(seed), 3, (6, 5), 2, eps=0.6)
        net, lo, hi = task.network, task.input_lower, task.input_upper
        d = make_domain(net, lo, hi)
        ref = reference_propagate_bounds(net, lo, hi, {})
        assert_same(d.neuron_bounds, ref)
        path = {}
        for _ in range(4):
            calls = []
            monkeypatch.setattr(relax, "propagate_bounds",
                                lambda *a, **k: calls.append(1) or propagate(*a, **k))
            halves = bab.input_bisect(net, d)
            splittable = [(k, int(j)) for k in (0, 1) for j in unstable(d.neuron_bounds, k)]
            children = bab.split_subdomain(net, d, *splittable[0]) if splittable else ()
            monkeypatch.undo()
            assert calls == []
            for child in halves:
                assert child.net is not None and child.bounds is d.bounds and child.clamp is None
            for child, sign in zip(children, (+1, -1)):
                assert child.net is not None and child.bounds is d.bounds
                assert child.clamp == (*splittable[0], sign)
            for half in halves:
                assert_same(half.neuron_bounds, reference_propagate_bounds(
                    net, half.box_lower, half.box_upper, path, ref, 0))
            if not splittable:
                break
            layer = splittable[0][0]
            feasible = []
            for child, sign in zip(children, (+1, -1)):
                splits = {**path, splittable[0]: sign}
                eager = reference_propagate_bounds(net, lo, hi, splits, ref, layer + 1)
                assert_same(child.neuron_bounds, eager)
                assert child.net is not None and child.clamp == (*splittable[0], sign)
                if eager.is_feasible():
                    feasible.append((child, splits, eager))
            if not feasible:
                break
            d, path, ref = feasible[0]
            bab.bound_subdomains([d])
        long_chains += len(path) >= 3
    assert long_chains >= 4


def _searches():
    """Seeded budget-capped searches that split, bisect and meet empty children."""
    for seed in (86, 88):
        task = random_task(np.random.default_rng(seed), 3, (6, 5), 2, eps=0.6)
        for kind in ("drg", "babsr", "drg_symmetric"):
            bab.verify(task, kind, bab.BabConfig(max_branches=150))


def test_feasibility_set_by_propagation_equals_the_layer_scan(monkeypatch):
    # The feasibility propagate_bounds records for each domain of a stack,
    # from a crossed layer, must be exactly what a scan of that domain's
    # intervals alone reads: infeasible iff some l > u.
    propagate, calls = relax.propagate_bounds, []

    def recording(net, lo, hi, base=None, start_layer=0):
        stack = propagate(net, lo, hi, base, start_layer)
        calls.append((base is not None, np.broadcast_to(start_layer, len(lo)), stack.neuron_bounds))
        return stack

    monkeypatch.setattr(relax, "propagate_bounds", recording)
    _searches()
    _, _, high = _straddling_bisection()
    high.neuron_bounds  # bounds the empty half
    kinds = {"split": 0, "bisect": 0, "empty": 0}
    for has_base, start_layers, stacked in calls:
        for i, start_layer in enumerate(start_layers):
            nb = stacked.intervals(i)
            scan = layer_scan(nb.lower, nb.upper)
            assert nb.is_feasible() == nb.feasible == stacked.feasible[i] == scan
            kinds["split"] += start_layer > 0
            kinds["bisect"] += has_base and start_layer == 0
            kinds["empty"] += not scan
    assert kinds["split"] > 100 and kinds["bisect"] > 100 and kinds["empty"] > 20


def test_each_layer_relaxation_is_computed_once_per_bounds(monkeypatch):
    # Relaxations are built by propagate_bounds alone, one per ReLU layer of
    # each stack it bounds, and each is handed on with the bounds it returns:
    # the built ones are exactly the returned ones, so no reader builds one
    # again.
    build, propagate = relax.relaxation, relax.propagate_bounds
    built, returned = [], []  # both keep their objects alive for the ids
    monkeypatch.setattr(relax, "relaxation", lambda l, u: built.append(build(l, u)) or built[-1])
    monkeypatch.setattr(relax, "propagate_bounds",
                        lambda *a, **k: returned.append(propagate(*a, **k)) or returned[-1])
    _searches()
    ids = [id(r) for r in built]
    assert len(ids) > 100 and len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(id(r) for nb in returned for r in nb.relaxations.values())


def _straddling_bisection(out_bias=0.0):
    """Bisection children of z = x on [-1, 3] split z < 0: the lower half
    [-1, 1] is feasible, the upper half [1, 3] (z >= 1 but z <= 0) is not."""
    net = scalar_relu_net(out_bias=out_bias)
    parent = make_domain(net, [-1.0], [3.0], splits={(0, 0): -1})
    low, high = bab.input_bisect(net, parent)
    return net, low, high


def test_worklist_pop_skips_infeasible_children(monkeypatch):
    # A step pops the best entries, high first, and bounds them in one pass;
    # the empty one is counted and skipped, never processed as a branch.
    # Without slope optimization the root splits; high and low replace its
    # children.
    _, low, high = _straddling_bisection()
    low.parent_lower_bound, high.parent_lower_bound = -1.0, -2.0  # high comes first
    w = bab.Worklist()
    w.push(low)
    w.push(high)
    assert w.pop(2) == [high, low] and len(w) == 0
    _, low, high = _straddling_bisection(out_bias=0.1)  # the task's net
    low.parent_lower_bound, high.parent_lower_bound = -1.0, -2.0
    push, pushed, taken = bab.Worklist.push, [], []

    def root_queues_low_and_high(self, d):
        if not pushed:
            push(self, low)
            push(self, high)
        pushed.append(d)

    monkeypatch.setattr(bab.Worklist, "push", root_queues_low_and_high)
    bound, take, decided = bab.bound_subdomains, bab.branchings, []
    monkeypatch.setattr(bab, "bound_subdomains", lambda ds: taken.append(ds) or bound(ds))
    monkeypatch.setattr(bab, "branchings",
                        lambda *args: decided.append(list(args[4])) or take(*args))
    task = scalar_task(scalar_relu_net(out_bias=0.1))
    stats = bab.verify(task, "drg", bab.BabConfig(alpha_iters=0, trace=True))
    assert len(pushed) == 2 and taken == [[high, low]]
    # decided by parent bound: the root, then low alone
    assert not high.bounds.is_feasible() and decided == [[-np.inf], [-1.0]]
    assert (stats.passes, stats.bounded, stats.empty, stats.branches_visited) == (1, 2, 1, 1)
    assert stats.verdict == bab.SAFE
    assert [e["parent_lower_bound"] for e in stats.per_node_trace[1:]] == [-1.0]


@pytest.mark.parametrize("max_branches", [0, 5])
def test_budget_is_not_exhausted_by_an_infeasible_child(monkeypatch, max_branches):
    # A branch budget, zero or not, with only an infeasible child queued
    # ends Safe: the budget counts as exhausted only while a feasible
    # sub-domain waits. The step whose only entry is empty bounds it alone
    # and decides nothing: no spec bound follows the root's. Without slope
    # optimization the root splits; high replaces its children.
    task = scalar_task(scalar_relu_net(out_bias=0.1))
    _, _, high = _straddling_bisection()
    push, pushed = bab.Worklist.push, []
    compute, bound, calls = relax.compute_bounds, bab.bound_subdomains, []

    def root_queues_only_high(self, d):
        if not pushed:
            push(self, high)
        pushed.append(d)

    monkeypatch.setattr(bab.Worklist, "push", root_queues_only_high)
    monkeypatch.setattr(relax, "compute_bounds", lambda *a: calls.append("spec") or compute(*a))
    monkeypatch.setattr(bab, "bound_subdomains", lambda ds: calls.append(len(ds)) or bound(ds))
    stats = bab.verify(task, "drg", bab.BabConfig(max_branches=max_branches, alpha_iters=0))
    assert len(pushed) == 2 and not high.neuron_bounds.is_feasible()
    assert stats.verdict == bab.SAFE
    assert stats.unknown_reason is None and stats.branches_visited == 0
    assert "spec" in calls and calls[calls.index("spec") + 1:] == [1]


def _counting_bounds(monkeypatch):
    """Count the sub-domains propagate_bounds bounds, the entries
    Worklist.pop takes off and the Branchings bab.branchings returns; keep
    every worklist and every batch handed to bab.bound_subdomains (alive, so
    their ids stay unique)."""
    propagate, pop, bound = relax.propagate_bounds, bab.Worklist.pop, bab.bound_subdomains
    take = bab.branchings
    counts = {"bounds": 0, "popped": 0, "decided": 0}
    worklists, batches = [], []

    def counting_propagate(net, lo, *args, **kwargs):
        counts["bounds"] += len(lo)
        return propagate(net, lo, *args, **kwargs)

    def counting_pop(self, limit):
        worklists.append(self)
        before = len(self)
        d = pop(self, limit)
        counts["popped"] += before - len(self)
        return d

    def recording_bound(ds):
        batches.append(list(ds))
        return bound(ds)

    def counting_take(*args):
        out = take(*args)
        counts["decided"] += len(out)
        return out

    monkeypatch.setattr(relax, "propagate_bounds", counting_propagate)
    monkeypatch.setattr(bab.Worklist, "pop", counting_pop)
    monkeypatch.setattr(bab, "bound_subdomains", recording_bound)
    monkeypatch.setattr(bab, "branchings", counting_take)
    return counts, worklists, batches


def _gen_tasks(tmp_path, *gen_args):
    assert cli.main(["gen", *gen_args, "--out", str(tmp_path)]) == 0
    return [model.load_task(m, s) for _, m, s in cli.discover_suite(str(tmp_path))]


def test_propagate_bounds_bounds_each_subdomain_at_most_once(monkeypatch, tmp_path):
    # Children are bounded by the step that pops them, never when queued,
    # and each at most once: one domain for the root and one per sub-domain
    # a step takes off the worklist, the empty ones and those a step took
    # but the run ended before among them: those decided but not applied,
    # and the budget's last one, bounded but not decided. A run that ends
    # Safe leaves none of those, and no entry left on the worklist is
    # bounded.
    tasks = _gen_tasks(tmp_path, "--seed", "7", "--layers", "2", "--widths", "16", "--count",
                       "4", "--eps", "0.25", "--inputs", "4", "--outputs", "3")
    counts, worklists, batches = _counting_bounds(monkeypatch)
    capped = never_processed = 0
    for task in tasks:
        for kind in ("drg", "babsr"):
            counts.update(bounds=0, popped=0, decided=0)
            worklists.clear()
            batches.clear()
            stats = bab.verify(task, kind, bab.BabConfig(timeout_seconds=600.0, max_branches=100))
            bounded = [d for ds in batches for d in ds]
            assert len({id(d) for d in bounded}) == len(bounded)
            assert not any(d.net is None for w in worklists for _, _, d in w._heap)
            assert counts["bounds"] == 1 + counts["popped"] == 1 + len(bounded) == 1 + stats.bounded
            assert len(batches) == stats.passes
            left = stats.bounded - stats.branches_visited - stats.empty
            exhausted = stats.unknown_reason == "branch budget exhausted"
            assert left == counts["decided"] - 1 - stats.branches_visited + exhausted
            if stats.verdict == bab.SAFE:
                assert left == 0
            never_processed += left
            if exhausted:
                capped += 1
                # each split queued two children; far fewer were ever bounded
                assert len(bounded) < 1.5 * stats.splits_made
    assert capped >= 3 and never_processed > 0


def test_a_zero_branch_budget_bounds_the_root_and_each_popped_child_alone_and_decides_none(
        monkeypatch, tmp_path):
    # With no branch to spend, each step is one entry wide: the step that
    # finds the budget exhausted bounds only what it takes off the worklist,
    # one entry at a time, exactly one child when the first is feasible, and
    # decides none of them: only the root gets a Branching. On the
    # wide-triage suite (`gen --seed 13`, drg) that is 100 roots and 35
    # children bounded.
    tasks = _gen_tasks(tmp_path, "--seed", "13", "--layers", "3", "--widths", "64", "--count",
                       "100", "--eps", "0.05", "--inputs", "8", "--outputs", "5")
    counts, _, batches = _counting_bounds(monkeypatch)
    total = 0
    for task in tasks:
        counts.update(bounds=0, popped=0, decided=0)
        batches.clear()
        stats = bab.verify(task, "drg", bab.BabConfig(max_branches=0))
        assert counts["bounds"] == 1 + counts["popped"]
        if stats.unknown_reason == "branch budget exhausted":
            assert counts["popped"] >= 1
        assert all(len(ds) == 1 for ds in batches) and counts["decided"] == 1
        total += counts["bounds"]
    assert total == 135


def _mixed_batch(margin_shift=0.0):
    """Deferred sub-domains of one net with hidden layers of 6, 5 and 4:
    split children at layers 0, 1 and 2 (start_layer 1, 2 and 3), bisection
    halves, a split grandchild and an empty bisection half, with the spec.
    margin_shift is added to every margin (to the first output's bias)."""
    net, _, _, C = cli.generate_instance(np.random.default_rng(91), 3, [6, 5, 4], 3, 0.5, 2.0)
    first, last = net.layers[0], net.layers[-1]
    weights, bias = first.weights.copy(), first.bias.copy()
    weights[0], bias[0] = [1.0, 0.0, 0.0], 0.0  # neuron (0, 0) is z = x_0
    out_bias = last.bias.copy()
    out_bias[0] += margin_shift
    net = model.make_network([(weights, bias, model.RELU)] + [
        (layer.weights, layer.bias, layer.activation) for layer in net.layers[1:-1]]
        + [(last.weights, out_bias, model.LINEAR)])
    lo, hi = np.array([-1.0, -0.5, -0.5]), np.array([3.0, 0.5, 0.5])
    root = make_domain(net, lo, hi)
    batch = []
    for k in range(3):
        j = int(unstable(root.neuron_bounds, k)[0])
        batch += bab.split_subdomain(net, root, k, j)
    batch += bab.input_bisect(net, root)
    # z = x_0 <= 0, so the half x_0 in [1, 3] is empty
    clamped = make_domain(net, lo, hi, splits={(0, 0): -1})
    batch += bab.input_bisect(net, clamped)
    j = int(unstable(clamped.neuron_bounds, 1)[0])
    batch += bab.split_subdomain(net, clamped, 1, j)
    return net, C, root, batch


def _decide(net, ds, C, slopes, heuristic="drg"):
    """Bound ds in one pass and decide its feasible ones in one more, as a
    step of verify does without a budget: each sub-domain's Branching, None
    where it is empty."""
    stack = bab.bound_subdomains(ds)
    feasible = np.flatnonzero(stack.neuron_bounds.feasible)
    decided = [None] * len(ds)
    if len(feasible):
        stack = stack[feasible]
        taken = bab.branchings(net, C, slopes, heuristic,
                               [ds[i].parent_lower_bound for i in feasible], stack,
                               relax.compute_bounds(net, C, stack, slopes))
        for i, b in zip(feasible.tolist(), taken, strict=True):
            decided[i] = b
    return decided


def test_a_stacked_pass_gives_each_subdomain_its_numbers_alone_bitwise(monkeypatch):
    net, C, root, batch = _mixed_batch()
    slopes, _ = relax.optimize_alpha(net, C, stack_of(root), 5)
    slopes = {k: v[0] for k, v in slopes.items()}
    alone = [dataclasses.replace(d) for d in batch]
    # each is recomputed from the layer after its clamp's, from the first without one
    assert sorted({0 if d.clamp is None else d.clamp[0] + 1 for d in batch}) == [0, 1, 2, 3]
    compute, phase1 = relax.compute_bounds, []  # the phase-1 bounds each pass takes
    propagate, propagated = relax.propagate_bounds, []  # the stacks each pass bounds
    monkeypatch.setattr(relax, "compute_bounds",
                        lambda *a: phase1.append(compute(*a)) or phase1[-1])
    monkeypatch.setattr(relax, "propagate_bounds",
                        lambda *a: propagated.append(propagate(*a)) or propagated[-1])
    decided = _decide(net, batch, C, slopes)
    stacked, pass_stack = phase1.pop(), propagated.pop()
    decided_alone = [_decide(net, [d], C, slopes)[0] for d in alone]
    results = iter(zip(stacked, phase1, strict=True))  # one per feasible sub-domain
    assert 0 < sum(not d.neuron_bounds.is_feasible() for d in alone) < len(alone)
    for i, (d, ref, own, branching, want_branching) in enumerate(
            zip(batch, alone, propagated, decided, decided_alone, strict=True)):
        got, want = d.neuron_bounds, ref.neuron_bounds
        assert d.net is None and got.is_feasible() == want.is_feasible()
        for a, b in zip(got.lower + got.upper, want.lower + want.upper, strict=True):
            assert np.array_equal(a, b, equal_nan=True)
        # relaxations live on the stacks only: row i of the pass's is its own
        assert not hasattr(got, "relaxations") and not hasattr(want, "relaxations")
        assert sorted(pass_stack.relaxations) == sorted(own.relaxations)
        for k, rel in own.relaxations.items():
            assert all(np.array_equal(a[i], b[0])
                       for a, b in zip(pass_stack.relaxations[k], rel, strict=True))
        if not want.is_feasible():
            assert branching is None and want_branching is None
            continue
        got, (want,) = next(results)
        for name in ("w", "b", "lower_bound", "x_star"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert sorted(got.A) == sorted(want.A)
        for k, v in want.A.items():
            assert np.array_equal(got.A[k], v)
        _assert_same_branching(branching, want_branching)


def test_a_pass_leaves_no_subdomain_a_view_of_its_stacks(monkeypatch):
    # Each sub-domain a pass bounds, and the root verify bounds, gets copies
    # of its own interval rows, which own their data, its feasibility as a
    # bool and no relaxation: nothing a queued sub-domain keeps holds the
    # pass's stacks alive.
    net, C, root, batch = _mixed_batch(margin_shift=9.0)
    slopes, _ = relax.optimize_alpha(net, C, stack_of(root), 5)
    slopes = {k: v[0] for k, v in slopes.items()}
    assert 0 < sum(b is not None for b in _decide(net, batch, C, slopes)) < len(batch)
    processed = _recording_processed(monkeypatch)
    bab.verify(model.VerificationTask(net, root.box_lower, root.box_upper, C), "drg",
               bab.BabConfig(max_branches=20))
    assert len(processed) > 1
    for d in batch + processed:
        assert d.bounds.data.base is None
        assert not hasattr(d.bounds, "relaxations") and type(d.bounds.feasible) is bool
        assert d.net is None and d.clamp is None


def test_a_split_copies_no_interval_and_never_writes_a_shared_one():
    # A split child keeps its parent's intervals object and its clamp.
    # Bounding the children, together or one at a time, writes each clamp
    # into the pass's own stack only: the parent's arrays keep their bits,
    # and each child's split neuron starts (+1) or ends (-1) at zero.
    net, _, parent, _ = _mixed_batch()
    arrays = parent.bounds.lower + parent.bounds.upper
    before = [a.tobytes() for a in arrays]
    for k in range(3):
        j = int(unstable(parent.bounds, k)[0])
        alone = bab.split_subdomain(net, parent, k, j)
        together = [dataclasses.replace(c) for c in alone]
        assert all(c.bounds is parent.bounds for c in (*alone, *together))
        bab.bound_subdomains(together)
        for c in alone:
            bab.bound_subdomains([c])
        assert [a.tobytes() for a in arrays] == before
        for pos, neg in (alone, together):
            assert pos.bounds.lower[k][j] == 0.0 < pos.bounds.upper[k][j]
            assert neg.bounds.lower[k][j] < 0.0 == neg.bounds.upper[k][j]


def test_a_clamp_through_the_flat_index_lands_on_its_layer_and_neuron():
    # A write at column offsets[layer] + neuron is the write through the
    # layer's view. A pass writes each split child's clamp there: its layers
    # up to the split's keep the parent's intervals but for that one entry,
    # zero. The stability checks read the same entry.
    clamped = 0
    for net, offsets in layout_nets():
        root = make_domain(net, -np.ones(3), np.ones(3))
        for k in range(len(offsets) - 1):
            if net.layers[k].activation != model.RELU:
                with pytest.raises(ValueError, match="not a ReLU layer"):
                    bab.split_subdomain(net, root, k, 0)
                continue
            with pytest.raises(ValueError, match="no neuron"):
                bab.split_subdomain(net, root, k, net.layers[k].out_dim)
            for j in range(net.layers[k].out_dim):
                via_view = relax.NeuronBounds(root.bounds.data.copy(), offsets)
                via_flat = relax.NeuronBounds(root.bounds.data.copy(), offsets)
                via_view.lower[k][j], via_view.upper[k][j] = 7.0, 8.0
                via_flat.data[:, offsets[k] + j] = 7.0, 8.0
                assert np.array_equal(via_view.data, via_flat.data)
                if j not in unstable(root.bounds, k):
                    with pytest.raises(ValueError, match="not unstable"):
                        bab.split_subdomain(net, root, k, j)
                    continue
                children = bab.split_subdomain(net, root, k, j)
                bab.bound_subdomains(children)
                for child, side in zip(children, (0, 1)):
                    bab._check_termination_measure(root, child, (k, j))
                    want = root.bounds.data[:, :offsets[k + 1]].copy()
                    want[side, offsets[k] + j] = 0.0
                    assert np.array_equal(child.bounds.data[:, :offsets[k + 1]], want)
                clamped += 1
    assert clamped >= 5


def test_a_subdomain_holds_one_owned_interval_array_and_its_children_share_memory():
    # A bounded sub-domain's intervals are one array that owns its data. Both
    # children of a split share their parent's NeuronBounds object; each
    # bisection half shares it too, and with it the one box array the half
    # does not change. The root's boxes are the task's read-only arrays.
    net, C, root, batch = _mixed_batch()
    bab.bound_subdomains(batch)
    for d in [root] + batch:
        nb = d.bounds
        assert not hasattr(d, "__dict__") and not hasattr(nb, "__dict__")  # slots
        assert [name for name in type(nb).__slots__
                if isinstance(getattr(nb, name), np.ndarray)] == ["data"]
        assert nb.data.base is None and nb.data.shape == (2, 15)
    k, j = 0, int(unstable(root.bounds, 0)[0])
    pos, neg = bab.split_subdomain(net, root, k, j)
    assert pos.bounds is root.bounds and neg.bounds is root.bounds
    low, high = bab.input_bisect(net, root)
    assert low.bounds is root.bounds and high.bounds is root.bounds
    assert low.box_lower is root.box_lower and high.box_upper is root.box_upper
    assert not np.shares_memory(low.box_upper, root.box_upper)
    assert not np.shares_memory(high.box_lower, root.box_lower)
    assert np.array_equal(low.box_upper[1:], root.box_upper[1:])
    assert low.box_upper[0] < root.box_upper[0]
    task = model.VerificationTask(net, root.box_lower, root.box_upper, C)
    assert not task.input_lower.flags.writeable and not task.input_upper.flags.writeable


def _assert_same_branching(got, want):
    fields = ("row", "action", "clamps", "pick")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    for name in ("raw_lower_bound", "lower_bound", "witness_margin"):
        value, want_value = getattr(got, name), getattr(want, name)
        assert (value is None) == (want_value is None), name
        assert want_value is None or np.array_equal(value, want_value, equal_nan=True), name
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        for name in ("x_star", "abstract_margin", "concrete_margin"):
            assert np.array_equal(getattr(got.witness, name), getattr(want.witness, name)), name
    assert got.score_n == want.score_n and type(got.score_n) is int
    assert (got.score_max is None) == (want.score_max is None)
    if want.score_max is not None:
        assert np.float64(got.score_max).tobytes() == np.float64(want.score_max).tobytes()


def _all_positive_net():
    """m(x) = ReLU(x) + 1e-14 ReLU(x + 0.1) + 0.5 ReLU(-x) - 0.2 on [-1, 1]:
    every coefficient is positive, so drg's scores vanish and it bisects,
    and once babsr has split neurons 0 and 2, neuron 1's scores (about
    5e-15) are within ZERO_SCORE_TOL and babsr bisects too."""
    return model.make_network([
        (np.array([[1.0], [1.0], [-1.0]]), np.array([0.0, 0.1, 0.0]), model.RELU),
        (np.array([[1.0, 1e-14, 0.5]]), np.array([-0.2]), model.LINEAR),
    ])


def test_a_stacked_pass_takes_each_subdomains_branching_alone_bitwise():
    # For every kind: _mixed_batch as it is (some witnesses unsafe), then
    # with its margins raised by 9 (most witnesses spurious, two bounds above
    # zero) plus a sub-domain pruned by its parent's bound, then every
    # step's pass of a search on _all_positive_net, whose drg scores
    # vanish (it bisects). Each sub-domain's Branching in the stack equals
    # its Branching alone; its lower_bound is the larger of its bound and its
    # parent's, and only an unsafe one keeps its witness. A step decides all
    # its feasible sub-domains but, at the budget, its last one.
    def spec_of(margin_shift):
        net, C, root, batch = _mixed_batch(margin_shift)
        slopes, _ = relax.optimize_alpha(net, C, stack_of(root), 5)
        return net, batch, C, {k: v[0] for k, v in slopes.items()}

    (plain_net, plain, plain_C, plain_slopes), (net, batch, C, slopes) = spec_of(0.0), spec_of(9.0)
    bound, take, pending, passes = bab.bound_subdomains, bab.branchings, [], []

    def recording_bound(ds):
        alone = [dataclasses.replace(d) for d in ds]
        stack = bound(ds)
        pending[:] = [(ref, d.bounds.is_feasible()) for ref, d in zip(alone, ds)]
        return stack

    def recording_take(*args):
        taken = take(*args)
        if pending:  # a step's decisions; the root's follow no pass
            passes.append((pending[:], taken, args[:4]))  # net, C, slopes, heuristic
            pending.clear()
        return taken

    seen = {"pruned": 0, "unsafe": 0, "split": 0, "bisect": 0}
    for kind in heuristics.KINDS:
        passes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bab, "bound_subdomains", recording_bound)
            mp.setattr(bab, "branchings", recording_take)
            _decide(plain_net, [dataclasses.replace(d) for d in plain], plain_C, plain_slopes, kind)
            by_parent = dataclasses.replace(batch[0], parent_lower_bound=1.0)
            *_, parent_pruned = _decide(net, [dataclasses.replace(d) for d in batch] + [by_parent],
                                        C, slopes, kind)
            bab.verify(scalar_task(_all_positive_net()), kind, bab.BabConfig(max_branches=60))
            pending.clear()  # a budget's last pass decides nothing
        assert max(len(taken) for _, taken, _ in passes) > 1
        for alone, taken, spec in passes:
            feasible = [ref for ref, ok in alone if ok]
            assert len(feasible) - 1 <= len(taken) <= len(feasible)
            decided = iter(taken)
            for ref, ok in alone:
                (want,) = _decide(spec[0], [ref], *spec[1:])
                if not ok:  # infeasible
                    assert want is None
                    continue
                b = next(decided, None)
                if b is None:  # the budget's last one
                    continue
                _assert_same_branching(b, want)
                assert np.array_equal(b.lower_bound, max(b.raw_lower_bound, ref.parent_lower_bound),
                                      equal_nan=True)
                assert (b.witness is not None) == (b.action == "unsafe")
                seen["pruned"] += b.action == "pruned-safe"
                seen["unsafe"] += b.action == "unsafe"
                seen["split"] += b.action == "split"
                seen["bisect"] += b.action == "bisect"
        assert parent_pruned.action == "pruned-safe"
        assert parent_pruned.raw_lower_bound < 0
    assert min(seen.values()) > 0, seen


def test_an_unsafe_branching_reports_its_own_rows_witness_bitwise():
    # In a stack that mixes a sub-domain pruned by its parent's bound, split
    # ones and unsafe ones with either worst row, and parents' bounds above
    # half the raw ones, each unsafe Branching's Witness is its own worst
    # row's minimizer, that row's raw bound (not the parent-raised
    # lower_bound) and the concrete margins there, read off the stack's
    # bounds independently of branchings.
    net, C, root, batch = _mixed_batch(margin_shift=2.0)
    slopes, _ = relax.optimize_alpha(net, C, stack_of(root), 5)
    slopes = {k: v[0] for k, v in slopes.items()}
    stack = bab.bound_subdomains(batch)
    stack = stack[np.flatnonzero(stack.neuron_bounds.feasible)]
    results = relax.compute_bounds(net, C, stack, slopes)
    raw = results.lower_bound.min(axis=-1)
    parents = [1.0] + [-np.inf if i % 2 else 0.5 * r for i, r in enumerate(raw[1:])]
    taken = bab.branchings(net, C, slopes, "drg", parents, stack, results)
    assert taken[0].action == "pruned-safe"
    unsafe = [(i, b) for i, b in enumerate(taken) if b.action == "unsafe"]
    assert {b.row for _, b in unsafe} == {0, 1} and any(b.action == "split" for b in taken)
    assert any(b.lower_bound > b.raw_lower_bound for _, b in unsafe)
    for i, b in unsafe:
        row = int(np.argmin(results.lower_bound[i]))
        x_star = results.x_star[i, row]
        assert b.row == row and type(b.witness.abstract_margin) is float
        assert b.witness.abstract_margin == results.lower_bound[i, row] == raw[i]
        assert np.array_equal(b.witness.x_star, x_star)
        assert np.array_equal(b.witness.concrete_margin, model.margin(net, C, x_star))
        assert b.witness.concrete_margin.min() <= 0.0
    assert all(b.witness is None for b in taken if b.action != "unsafe")


def test_a_branching_keeps_the_score_max_and_count_its_rows_give_the_trace(monkeypatch):
    # A scored Branching keeps two numbers of its score rows: score_n, the
    # finite scores, and score_max, Python's max over the layers' row maxima
    # in layer order, as the trace took them from the rows. A NaN in a later
    # layer is passed over, one in the first layer stays, and a tie of
    # signed zeros keeps the earlier layer's.
    net, C, root, batch = _mixed_batch(margin_shift=9.0)
    slopes, _ = relax.optimize_alpha(net, C, stack_of(root), 5)
    slopes = {k: v[0] for k, v in slopes.items()}
    score, planted = heuristics.score_branches, []

    def planting(*args):
        scores, clamps = score(*args)
        scores = {k: s.copy() for k, s in scores.items()}
        first, *_, last = sorted(scores)
        for j in range(len(clamps)):
            if j % 4 == 0:
                scores[last][j, 0] = np.nan
            elif j % 4 == 1:
                scores[first][j, 0] = np.nan
            elif j % 4 == 2:
                for s in scores.values():
                    s[j] = -np.inf
                scores[first][j, 0], scores[last][j, 0] = -0.0, 0.0
        planted.append(scores)
        return scores, clamps

    monkeypatch.setattr(heuristics, "score_branches", planting)
    decided = _decide(net, batch, C, slopes)
    (scores,) = planted
    scored = [b for b in decided if b is not None and b.action in ("split", "bisect")]
    assert len(scored) == len(scores[0]) >= 3
    for j, b in enumerate(scored):
        want_n = sum(int(np.count_nonzero(np.isfinite(s[j]))) for s in scores.values())
        want_max = float(max(s[j].max() for s in scores.values()))
        assert b.score_n == want_n and type(b.score_n) is int
        assert type(b.score_max) is float
        assert np.float64(b.score_max).tobytes() == np.float64(want_max).tobytes()
    assert not math.isnan(scored[0].score_max) and math.isnan(scored[1].score_max)
    assert str(scored[2].score_max) == "-0.0" and scored[2].score_n == 2


def _record_tasks(tmp_path):
    """The search record's suites, as (name, task) pairs."""
    from test_search_record import SUITES

    return [(f"suite{i}/case_{k:03d}", task) for i, gen_args in enumerate(SUITES)
            for k, task in enumerate(_gen_tasks(tmp_path / str(i), *gen_args[1:]))]


def test_every_safe_tree_is_the_same_at_any_step_width(monkeypatch, tmp_path):
    # The search record's suites and every heuristic, run with steps of one
    # sub-domain and of the default width: a node's Branching depends only
    # on its region and its parent's bound, so each Safe run's trace lines,
    # node numbers aside, are the same multiset, floats included, with the
    # same counts. Other runs may reach other nodes.
    from test_search_record import MAX_BRANCHES

    config = bab.BabConfig(timeout_seconds=600.0, max_branches=MAX_BRANCHES, trace=True)
    tasks = _record_tasks(tmp_path)
    batched = []
    bound = bab.bound_subdomains
    monkeypatch.setattr(bab, "bound_subdomains", lambda ds: batched.append(len(ds)) or bound(ds))

    def runs():
        out = {}
        for name, task in tasks:
            for kind in heuristics.KINDS:
                s = bab.verify(task, kind, config)
                lines = collections.Counter(
                    repr(sorted((k, v) for k, v in e.items() if k != "node"))
                    for e in s.per_node_trace)
                out[name, kind] = (s.verdict, s.branches_visited, s.splits_made,
                                   s.gap_clamp_events, s.bounded - s.empty, lines)
        return out

    default = runs()
    assert max(batched) > 32  # the suites' steps fill more than a dive's few nodes
    batched.clear()
    monkeypatch.setattr(bab, "lookahead", lambda net, rows: 1)
    one = runs()
    assert max(batched) == 1
    safe = [key for key, run in one.items() if run[0] == bab.SAFE]
    assert len(safe) == 58
    for key in safe:
        assert default[key] == one[key], key
    assert any(default[key] != one[key] for key in one)


@pytest.fixture(scope="module")
def budget_runs(tmp_path_factory):
    """Every heuristic's run on the search record's suites at branch budgets
    0, 1, 2, 7, 64 and 300, with steps of one (width 1) and of the default
    width (None): {(budget, width): {(name, kind): (B, RunStats)}}."""
    tasks = _record_tasks(tmp_path_factory.mktemp("record"))
    runs, lookahead = {}, bab.lookahead
    with pytest.MonkeyPatch.context() as mp:
        for width in (1, None):
            mp.setattr(bab, "lookahead", lookahead if width is None else lambda net, rows: width)
            for budget in (0, 1, 2, 7, 64, 300):
                config = bab.BabConfig(timeout_seconds=600.0, max_branches=budget)
                runs[budget, width] = {
                    (name, kind): (bab.lookahead(task.network, len(task.spec_matrix)),
                                   bab.verify(task, kind, config))
                    for name, task in tasks for kind in heuristics.KINDS}
    return runs


def test_step_counters_account_for_every_bounded_subdomain(budget_runs):
    # Each sub-domain a step bounds is empty, a branch, or one the run ended
    # before: a Safe run processes every one it bounds; any other leaves at
    # most a step's width, B, unprocessed.
    kinds = collections.Counter()
    for (budget, width), runs in budget_runs.items():
        for b, s in runs.values():
            waiting = s.bounded - s.branches_visited - s.empty
            assert 0 <= s.empty <= s.bounded and s.passes <= s.bounded
            if s.verdict == bab.SAFE:
                assert waiting == 0
            else:
                assert waiting <= b
            kinds[s.verdict, waiting > 0, width] += 1
    # Both widths leave sub-domains unprocessed; steps of one leave one at most.
    assert kinds[bab.UNSAFE, True, None] and kinds[bab.UNKNOWN, True, 1]
    assert max(s.bounded - s.branches_visited - s.empty
               for b, s in budget_runs[300, None].values()) > 1


def test_branch_budgets_hold_at_every_step_width(budget_runs):
    # At every budget and width: no run spends more branches than its
    # budget; one ends "branch budget exhausted" only with the budget spent
    # and exactly one feasible sub-domain waiting, the one its last step
    # bounded beyond the budget; a run Safe with steps of one is
    # Safe at the default width with the same branch count, and no run flips
    # between Safe and Unsafe.
    exhausted = collections.Counter()
    for (budget, width), runs in budget_runs.items():
        for b, s in runs.values():
            assert s.branches_visited <= budget
            if s.unknown_reason == "branch budget exhausted":
                assert s.branches_visited == budget
                assert s.bounded - s.branches_visited - s.empty == 1
                exhausted[budget, width] += 1
            else:
                assert s.unknown_reason is None or s.verdict == bab.UNKNOWN
        if width is None:
            continue
        for key, (_, one) in runs.items():
            _, wide = budget_runs[budget, None][key]
            assert {one.verdict, wide.verdict} != {bab.SAFE, bab.UNSAFE}, (budget, key)
            if one.verdict == bab.SAFE:
                assert (wide.verdict, wide.branches_visited) == (bab.SAFE, one.branches_visited)
    assert all(exhausted[budget, width] for budget, width in budget_runs)


def test_a_deadline_in_the_middle_of_a_step_ends_the_run_before_its_next_node(monkeypatch,
                                                                             tmp_path):
    # A deadline that passes after the first node of a step of three or
    # more ends the run "timeout" there: the step's next node keeps its
    # Branching unapplied, and the trace is the untimed run's up to that node.
    (task,) = [t for name, t in _record_tasks(tmp_path) if name == "suite0/case_004"]
    config = bab.BabConfig(timeout_seconds=600.0, max_branches=300, trace=True)
    bound, take, steps, decided = bab.bound_subdomains, bab.branchings, [], []
    monkeypatch.setattr(bab, "bound_subdomains", lambda ds: steps.append(list(ds)) or bound(ds))
    monkeypatch.setattr(bab, "branchings",
                        lambda *args: decided.append(take(*args)) or decided[-1])
    full = bab.verify(task, "drg", config)
    feasible = [[d for d in ds if d.bounds.is_feasible()] for ds in steps]
    at = next(i for i, ds in enumerate(feasible) if len(ds) >= 3)
    node = 1 + sum(len(ds) for ds in feasible[:at])  # the first node of that step
    assert node < full.branches_visited

    class Clock:  # real time until node has been applied, then far past any deadline
        calls = 0

        @classmethod
        def perf_counter(cls):
            cls.calls += 1  # one call at the start, then one before each node past the root
            return time.perf_counter() + (1e9 if cls.calls >= node + 2 else 0.0)

    steps.clear(), decided.clear()
    monkeypatch.setattr(bab, "time", Clock)
    stats = bab.verify(task, "drg", config)
    assert (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "timeout")
    assert stats.branches_visited == node
    assert stats.per_node_trace == full.per_node_trace[:node + 1]
    # that step decided all its feasible sub-domains and applied only the first
    assert len(decided[-1]) == len(feasible[at])
    assert stats.per_node_trace[-1]["raw_lower_bound"] == decided[-1][0].raw_lower_bound
    assert stats.bounded - stats.branches_visited - stats.empty >= 1


def test_lookahead_keeps_every_stacked_array_of_a_pass_within_the_budget(monkeypatch):
    # A pass of lookahead(net, m) sub-domains, spec included, stacks no array
    # larger than LOOKAHEAD_ELEMENTS, and the window is the budget over the
    # widest array it measures per sub-domain, never less than 1: 128 on
    # 16-wide layers, 8 on 64-wide ones, fewer where an intermediate bound
    # reaches back past a narrow layer, a spec has many rows or the intervals
    # are long, and 1 on a layer larger than the budget.
    sizes = []
    backward, concretize = relax._relu_backward, relax.concretize
    compute, propagate = relax.compute_bounds, relax.propagate_bounds

    def recording_backward(lam, step):
        out = backward(lam, step)
        sizes.extend((lam.size, out[0].size))
        return out

    def recording_concretize(lam, *args):
        out = concretize(lam, *args)
        sizes.extend((lam.size, out[0].size))
        return out

    def recording_compute(*args):
        out = compute(*args)
        sizes.extend([out.w.size, out.x_star.size] + [a.size for a in out.A.values()])
        return out

    def recording_propagate(*args):
        out = propagate(*args)
        sizes.append(out.neuron_bounds.data.size)
        return out

    monkeypatch.setattr(relax, "_relu_backward", recording_backward)
    monkeypatch.setattr(relax, "concretize", recording_concretize)
    monkeypatch.setattr(relax, "compute_bounds", recording_compute)
    monkeypatch.setattr(relax, "propagate_bounds", recording_propagate)
    rng = np.random.default_rng(5)
    cases = [  # inputs, hidden widths, outputs, spec rows, window
        (4, [16, 16], 3, None, 128),  # narrow-deep
        (8, [64, 64, 64], 5, None, 8),  # wide-deep
        (300, [300], 2, None, 1),  # 2 * 300 * 300 elements for one sub-domain
        (64, [4, 64], 3, None, 8),  # layer 1's bound reaches the 64 inputs
        (4, [16, 16], 3, 600, 6),  # 600 spec rows on 16-wide layers
        (1, [2] * 60, 2, None, 273),  # 2 N = 240 intervals
    ]
    for n_in, widths, n_out, m, window in cases:
        net, lo, hi, C = cli.generate_instance(rng, n_in, widths, n_out, 0.5, 1.0)
        if m is not None:
            C = rng.normal(size=(m, n_out))
        assert bab.lookahead(net, len(C)) == window
        root = make_domain(net, lo, hi)
        slopes = {k: relax.adaptive_alpha(l, u) for k, (l, u) in
                  enumerate(zip(root.bounds.lower, root.bounds.upper))}
        sizes.clear()
        _decide(net, [bab.SubDomain.child(net, root, lo, hi) for _ in range(window)], C, slopes)
        widest = max(sizes) // window  # each largest array stacks the window's sub-domains
        assert max(sizes) == window * widest
        assert window == max(1, bab.LOOKAHEAD_ELEMENTS // widest)
        assert window * widest <= bab.LOOKAHEAD_ELEMENTS or window == 1


def test_reading_a_queued_childs_bounds_leaves_the_search_unchanged(monkeypatch, tmp_path):
    # An observer that reads neuron_bounds of every split child, as
    # verifbench's traced pass does, bounds a copy: the child stays deferred
    # with the same bounds object and its clamp. On the search record's
    # suites, at twice the record's branch budget, every drg and babsr run
    # keeps the batches its steps bound, its compute_bounds calls
    # and its trace bytes.
    from test_search_record import MAX_BRANCHES, SUITES

    config = bab.BabConfig(timeout_seconds=600.0, max_branches=2 * MAX_BRANCHES, trace=True)
    tasks = [task for i, gen_args in enumerate(SUITES)
             for task in _gen_tasks(tmp_path / str(i), *gen_args[1:])]
    bound, compute, split = bab.bound_subdomains, relax.compute_bounds, bab.split_subdomain
    passes, computed, reading, reads = [], [], [], []

    def recording_bound(ds):
        if not reading:  # the observer's reads are not the search's passes
            passes.append(len(ds))
        return bound(ds)

    def observed_split(*args):
        children = split(*args)
        reading.append(True)
        for child in children:
            before, clamp = child.bounds, child.clamp
            child.neuron_bounds.is_feasible()
            assert child.net is not None and child.bounds is before
            assert clamp is not None and child.clamp == clamp
        reading.clear()
        reads.append(len(children))
        return children

    monkeypatch.setattr(bab, "bound_subdomains", recording_bound)
    monkeypatch.setattr(relax, "compute_bounds", lambda *a: computed.append(1) or compute(*a))

    def runs():
        out = []
        for task in tasks:
            for kind in ("drg", "babsr"):
                passes.clear(), computed.clear()
                s = bab.verify(task, kind, config)
                out.append((s.verdict, s.branches_visited, list(passes), len(computed),
                            repr(s.per_node_trace)))
        return out

    plain = runs()
    monkeypatch.setattr(bab, "split_subdomain", observed_split)
    assert runs() == plain
    assert sum(reads) > 1000 and max(n for _, _, batches, _, _ in plain for n in batches) > 8


def _recording_processed(monkeypatch):
    """A list that gets, in order, each sub-domain verify takes: the root
    when it splits or bisects (the one depth-0 sub-domain refined) and each
    one Worklist.pop returns. Each step's pass bounds all it pops, so after
    the run the feasible ones among them are the nodes in the order they
    were processed, up to the run's end; those after the last traced node
    are the ones its step took but the run ended before."""
    pop, taken = bab.Worklist.pop, []
    for name in ("split_subdomain", "input_bisect"):
        def refining(net, d, *args, _refine=getattr(bab, name)):
            if d.depth == 0:
                taken.append(d)
            return _refine(net, d, *args)
        monkeypatch.setattr(bab, name, refining)

    def popping(self, limit=1):
        ds = pop(self, limit)
        taken.extend(ds)
        return ds

    monkeypatch.setattr(bab.Worklist, "pop", popping)
    return taken


# Every key a trace line may have (README, "verify").
TRACE_KEYS = {"node", "depth", "parent_lower_bound", "n_splits", "lower_bound", "raw_lower_bound",
              "row", "witness_margin", "action", "split", "score_max", "score_n", "children"}


def test_each_node_takes_the_action_its_branching_decided(monkeypatch, tmp_path):
    # The search record's suites and every heuristic: each processed node's
    # trace action is the one branchings decided for it. The one exception
    # is stuck, a bisection whose box cannot be halved. Each line has only
    # the documented keys, and split exactly on a split. Every feasible
    # sub-domain a step took is decided, but a budget's last one.
    from test_search_record import MAX_BRANCHES, SUITES

    config = bab.BabConfig(timeout_seconds=600.0, max_branches=MAX_BRANCHES, trace=True)
    take, seen, decided = bab.branchings, set(), []

    def recording(*args):
        taken = take(*args)
        decided.extend(taken)  # in the order verify applies them
        return taken

    monkeypatch.setattr(bab, "branchings", recording)
    processed = _recording_processed(monkeypatch)
    for i, gen_args in enumerate(SUITES):
        for task in _gen_tasks(tmp_path / str(i), *gen_args[1:]):
            for kind in heuristics.KINDS:
                processed.clear()
                decided.clear()
                stats = bab.verify(task, kind, config)
                trace = stats.per_node_trace
                popped = [d for d in processed if d.depth]
                nodes = 1 + sum(d.bounds.is_feasible() for d in popped)  # the root's first
                exhausted = stats.unknown_reason == "branch budget exhausted"
                assert len(trace) == stats.branches_visited + 1
                assert len(popped) == stats.bounded
                waiting = nodes - len(trace)
                assert waiting == stats.bounded - stats.branches_visited - stats.empty
                assert waiting >= exhausted and (waiting == 0 or stats.verdict != bab.SAFE)
                assert len(decided) == nodes - exhausted
                for b, entry in zip(decided, trace):
                    action, traced = b.action, entry["action"]
                    assert traced == action or (action, traced) == ("bisect", "stuck")
                    assert set(entry) <= TRACE_KEYS and ("split" in entry) == (traced == "split")
                    seen.add(action)
    assert seen == {"pruned-safe", "unsafe", "split", "bisect"}


def _record_suite_runs(tmp_path, trace):
    """Every heuristic's search on the search record's second suite, which
    both splits and bisects, with or without a trace."""
    from test_search_record import MAX_BRANCHES, SUITES

    config = bab.BabConfig(timeout_seconds=600.0, max_branches=MAX_BRANCHES, trace=trace)
    tasks = _gen_tasks(tmp_path / str(trace), *SUITES[1][1:])
    return [bab.verify(task, kind, config) for task in tasks for kind in heuristics.KINDS]


def test_tracing_changes_nothing_but_the_trace(monkeypatch, tmp_path):
    # An untraced run builds no trace line, and it decides exactly what the
    # traced run of the same search decides.
    def outcome(s):
        wit = s.witness and (s.witness.x_star.tobytes(), s.witness.concrete_margin.tobytes())
        return (s.verdict, s.branches_visited, s.splits_made, s.gap_clamp_events,
                s.unknown_reason, wit)

    traced = _record_suite_runs(tmp_path, True)

    def no_trace_line(*args):
        raise AssertionError("an untraced run built a trace line")

    monkeypatch.setattr(bab, "_trace_entry", no_trace_line)
    plain = _record_suite_runs(tmp_path, False)
    assert all(s.per_node_trace is None for s in plain)
    assert [outcome(s) for s in plain] == [outcome(s) for s in traced]
    assert {s.verdict for s in traced} == {bab.SAFE, bab.UNSAFE}
    assert sum(s.splits_made for s in traced) > 0


def test_the_search_refines_through_the_module_hooks(monkeypatch, tmp_path):
    # verifbench times bab.split_subdomain and counts bab.input_bisect by
    # wrapping the module globals: every split and bisection goes through
    # them, one call per split line and one per bisect or stuck line.
    calls = {"split_subdomain": 0, "input_bisect": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(bab, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(bab, name, counting)
    actions = collections.Counter(e["action"] for s in _record_suite_runs(tmp_path, True)
                                  for e in s.per_node_trace)
    assert calls["split_subdomain"] == actions["split"] > 0
    assert calls["input_bisect"] == actions["bisect"] + actions["stuck"] > 0


def test_concrete_network_runs_once_per_witness(monkeypatch, tmp_path):
    # The witnesses of a stack run the concrete network in one stacked pass,
    # which gives both their concrete margins and the pre-activations drg
    # and grad score with; nothing evaluates x* again. Its rows are the
    # witnessed nodes plus the sub-domains a step witnessed that were never
    # processed, and no pruned sub-domain gets one. A step witnesses only
    # what the budget can apply, so only a run that ends in the middle of a
    # step leaves witnessed ones: the record's suite0/case_001 with grad,
    # Unsafe at its first branch.
    tasks = _gen_tasks(tmp_path, "--seed", "7", "--layers", "2", "--widths", "16", "--count", "2",
                       "--eps", "0.3", "--inputs", "4", "--outputs", "3")
    tasks += [t for name, t in _record_tasks(tmp_path / "record") if name == "suite0/case_001"]
    forward, take = model.forward, bab.branchings
    rows, taken, never_processed = [], [], 0
    monkeypatch.setattr(model, "forward", lambda net, x: rows.append(len(x)) or forward(net, x))

    def recording(net, C, slopes, heuristic, parents, *rest):
        decided = take(net, C, slopes, heuristic, parents, *rest)
        taken.extend(zip(decided, parents))  # in the order verify applies them
        return decided

    monkeypatch.setattr(bab, "branchings", recording)
    config = bab.BabConfig(timeout_seconds=600.0, max_branches=50, trace=True)
    for task in tasks:
        for kind in ("drg", "grad"):
            rows.clear(), taken.clear()
            stats = bab.verify(task, kind, config)
            witnesses = sum("witness_margin" in e for e in stats.per_node_trace)
            unapplied = taken[len(stats.per_node_trace):]
            left = sum(b.witness_margin is not None for b, _ in unapplied)
            assert stats.splits_made > 0
            assert sum(rows) == witnesses + left
            never_processed += left
            assert sum(b.witness_margin is not None for b, _ in taken) == sum(rows)
            for b, parent in taken:
                raw = b.raw_lower_bound
                assert (b.witness_margin is not None) == (math.isfinite(raw) and max(raw, parent) <= 0)
    assert never_processed > 0


def _single_point_task(seed):
    """8 inputs, one ReLU layer of 4 with weights of order 1e4, a box that is
    the single point x ~ U(1e3, 1e4), and a margin of -1 at x."""
    rng = np.random.default_rng(seed)
    W0 = rng.normal(0.0, 1e4, (4, 8))
    b0 = rng.normal(0.0, 1.0, 4)
    W1 = rng.normal(0.0, 1.0, (1, 4))
    x = rng.uniform(1e3, 1e4, 8)
    b1 = -1.0 - W1 @ np.maximum(W0 @ x + b0, 0.0)
    net = model.make_network([(W0, b0, model.RELU), (W1, b1, model.LINEAR)])
    return model.VerificationTask(net, x, x, np.array([[1.0]]))


def test_single_point_root_is_never_pruned_as_empty():
    # At this scale the backward and the interval-arithmetic bounds of layer 0
    # cross by more than INFEASIBILITY_TOL from rounding alone; without a
    # clamp the root's region is never empty, so the crossing collapses and
    # the concrete violation at x is found.
    for seed in range(20):
        task = _single_point_task(seed)
        assert model.margin(task.network, task.spec_matrix, task.input_lower)[0] < -0.5
        root = relax.propagate_bounds(task.network, task.input_lower[None], task.input_upper[None])
        assert root.neuron_bounds.feasible.tolist() == [True]
        ref = reference_propagate_bounds(task.network, task.input_lower, task.input_upper, {})
        assert ref.feasible and np.array_equal(root.neuron_bounds.data[0], ref.data)
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
        assert stats.verdict == bab.UNSAFE, f"seed {seed}"
        assert [e["action"] for e in stats.per_node_trace] == ["unsafe"]
        assert np.array_equal(stats.witness.x_star, task.input_lower)
    # Under a base, one stacked pass decides each row as bounding it alone
    # does, bit for bit: a sliver crossing (1e-12) collapses to its
    # midpoint, a crossing above the tolerance empties its row, whose later
    # layers keep the base's intervals, and a clean row keeps the root's.
    net = random_task(np.random.default_rng(95), 3, (5, 4), 2).network
    lo, hi = -np.ones((3, 3)), np.ones((3, 3))
    root = relax.propagate_bounds(net, lo[:1], hi[:1]).neuron_bounds
    base = relax.NeuronBounds.stack([root.intervals(0)] * 3)
    l0 = base.data[0, 0, 0]
    base.data[0, 1, 0], base.data[1, 1, 0] = l0 - 1e-12, l0 - 1.0
    stack = relax.propagate_bounds(net, lo, hi, base, 0)
    nb, later = stack.neuron_bounds, slice(net.hidden_offsets[1], None)
    assert nb.feasible.tolist() == [True, False, True]
    assert nb.data[0, 0, 0] == nb.data[0, 1, 0] == 0.5 * l0 + 0.5 * (l0 - 1e-12)
    assert (nb.data[1, 0, 0], nb.data[1, 1, 0]) == (l0, l0 - 1.0)  # the crossing stays
    assert nb.data[1, :, later].tobytes() == base.data[1, :, later].tobytes()
    assert nb.data[2].tobytes() == root.data[0].tobytes()
    for i in range(3):
        alone = relax.propagate_bounds(net, lo[i:i + 1], hi[i:i + 1], relax.NeuronBounds(
            base.data[i:i + 1], base.offsets, base.feasible[i:i + 1]), 0)
        assert alone.neuron_bounds.feasible.tolist() == [nb.feasible[i]]
        assert alone.neuron_bounds.data[0].tobytes() == nb.data[i].tobytes()
        for k, rel in stack.relaxations.items():
            for got, want in zip(rel, alone.relaxations[k], strict=True):
                assert got[i].tobytes() == want[0].tobytes()


def test_a_non_finite_bound_or_witness_margin_ends_the_run_unknown(monkeypatch):
    # The --eps 8e307 box of `gen --seed 1 --layers 1 --widths 4 --count 1`
    # is finite, but its root bound overflows to -inf; no verdict rests on it.
    net, lo, hi, C = cli.generate_instance(np.random.default_rng(1), 2, [4], 2, 8e307, 1.0)
    task = model.VerificationTask(net, lo, hi, C)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
    assert (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "non-finite bound")
    (entry,) = stats.per_node_trace
    assert entry["action"] == "non-finite" and entry["raw_lower_bound"] == -np.inf
    # A witness margin of -inf would otherwise be a concrete violation.
    validate = bab.witness_mod.validate_witness

    def infinite_margins(*args):
        concrete, preacts = validate(*args)
        return np.full_like(concrete, -np.inf), preacts

    monkeypatch.setattr(bab.witness_mod, "validate_witness", infinite_margins)
    stats = bab.verify(scalar_task(scalar_relu_net(out_bias=-0.5)), "drg")
    assert (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "non-finite bound")


def test_a_nan_interval_in_a_step_ends_the_run_unknown_at_its_node(monkeypatch):
    # A NaN in a sub-domain's intervals, as an overflow leaves one, proves
    # nothing empty. Poisoned in the second feasible entry of a step's base,
    # it reaches every layer of that entry: the step applies the node before
    # it as usual, then ends Unknown at it with a NaN raw bound, and never
    # counts it as empty.
    task = random_task(np.random.default_rng(86), 3, (6, 5), 2, eps=0.6)
    config = bab.BabConfig(max_branches=150, trace=True)
    clean = bab.verify(task, "drg", config).per_node_trace
    propagate, empty, poisoned = relax.propagate_bounds, [], []

    def poisoning(net, lo, hi, base=None, start_layer=0):
        feasible = np.flatnonzero(propagate(net, lo, hi, base, start_layer).neuron_bounds.feasible)
        if base is not None and len(feasible) >= 3 and not poisoned:
            base.data[feasible[1], 0, 0] = np.nan
            poisoned.append(feasible[1])
        stack = propagate(net, lo, hi, base, start_layer)
        empty.append(int(np.count_nonzero(~stack.neuron_bounds.feasible)))
        return stack

    monkeypatch.setattr(relax, "propagate_bounds", poisoning)
    stats = bab.verify(task, "drg", config)
    trace = stats.per_node_trace
    assert poisoned and (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "non-finite bound")
    assert trace[-1]["action"] == "non-finite" and np.isnan(trace[-1]["raw_lower_bound"])
    assert trace[:-1] == clean[:len(trace) - 1] and clean[len(trace) - 1]["action"] != "non-finite"
    assert trace[-2]["action"] in ("split", "bisect", "pruned-safe")
    # The poisoned pass is the run's last; the root's own pass is not a step's.
    assert stats.passes == len(empty) - 1 and stats.empty == sum(empty[1:])


def test_an_infinite_root_interval_with_a_finite_bound_still_decides():
    # Layer 1's root upper bound overflows to inf, yet the bound and the
    # witness margin are finite: x = (-1, -1) gives margin exactly 0, Unsafe.
    net = model.make_network([(np.array([[1e300, 1e300]]), np.zeros(1), model.RELU),
                              (np.array([[1e300]]), np.zeros(1), model.RELU),
                              (np.array([[1.0]]), np.zeros(1), model.LINEAR)])
    task = model.VerificationTask(net, -np.ones(2), np.ones(2), np.array([[1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        stats = bab.verify(task, "drg")
        root = propagate_of(net, task.input_lower, task.input_upper)
    assert root.upper[1][0] == np.inf
    assert stats.verdict == bab.UNSAFE
    assert stats.witness.x_star.tolist() == [-1.0, -1.0]
    assert stats.witness.concrete_margin.tolist() == [0.0]

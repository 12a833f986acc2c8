import dataclasses
import time

import numpy as np
import pytest

from reluverify import bab, cli, heuristics, model, oracle, relax

from helpers import (make_domain, oracle_sized_task, random_task, reference_propagate_bounds,
                     scalar_relu_net, scalar_task)


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


def test_split_subdomain_clamps_children():
    net = model.make_network([
        (np.array([[2.0]]), np.array([0.0]), model.RELU),
        (np.array([[1.0]]), np.array([0.0]), model.LINEAR),
    ])
    d = make_domain(net, [-1.0], [1.0])
    assert d.neuron_bounds.lower[0].tolist() == [-2.0]
    pos, neg = bab.split_subdomain(net, d, 0, 0)
    # the clamp is written into each child's own copy of the layer at split time
    assert pos.bounds.lower[0].tolist() == [0.0] and pos.bounds.upper[0].tolist() == [2.0]
    assert neg.bounds.lower[0].tolist() == [-2.0] and neg.bounds.upper[0].tolist() == [0.0]
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
        unstable = np.flatnonzero(d.neuron_bounds.unstable_mask(0))
        if unstable.size == 0:
            continue
        j = int(unstable[0])
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
    j0 = int(np.flatnonzero(parent.neuron_bounds.unstable_mask(0))[0])
    child, _ = bab.split_subdomain(net, parent, 0, j0)
    unstable1 = np.flatnonzero(child.neuron_bounds.unstable_mask(1))
    if unstable1.size == 0:
        unstable1 = np.flatnonzero(child.neuron_bounds.unstable_mask(0))
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
        task = random_task(rng, 3, (5, 4), 2, eps=float(rng.uniform(0.2, 0.6)),
                           timeout_seconds=20.0, max_branches=3000)
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
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


def test_worklist_pops_lowest_bound_first():
    net = scalar_relu_net()
    w = bab.Worklist()
    d1 = make_domain(net, [-1.0], [1.0])
    d1.parent_lower_bound = -1.0
    d3 = make_domain(net, [-1.0], [1.0])
    d3.parent_lower_bound = -3.0
    w.push(d1)
    w.push(d3)
    assert w.pop().parent_lower_bound == -3.0
    assert w.pop().parent_lower_bound == -1.0
    assert w.pop() is None


def test_empty_worklist_step_returns_safe(monkeypatch):
    # The root is pruned and queues nothing, so the first pop finds the
    # worklist empty and the run ends Safe.
    pop, popped = bab.Worklist.pop, []

    def recording_pop(self):
        popped.append((len(self), pop(self)))
        return popped[-1][1]

    monkeypatch.setattr(bab.Worklist, "pop", recording_pop)
    stats = bab.verify(scalar_task(scalar_relu_net(out_bias=0.1)), "drg")
    assert popped == [(0, None)]
    assert stats.verdict == bab.SAFE and stats.unknown_reason is None


def test_determinism_identical_runs():
    rng = np.random.default_rng(54)
    task = random_task(rng, 3, (6, 6), 3, eps=0.4, timeout_seconds=30.0, max_branches=5000)
    a = bab.verify(task, "drg", bab.BabConfig(trace=True))
    b = bab.verify(task, "drg", bab.BabConfig(trace=True))
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
        task = oracle_sized_task(rng, timeout_seconds=30.0, max_branches=100_000)
        mv, _ = oracle.exact_min_margin(task)
        stats = bab.verify(task, "drg")
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
    task = scalar_task(net, max_branches=0)
    stats = bab.verify(task, "drg")
    assert stats.verdict == bab.UNKNOWN
    assert stats.unknown_reason == "branch budget exhausted"


def test_timeout_gives_unknown():
    rng = np.random.default_rng(56)
    task = random_task(rng, 4, (8, 8), 2, eps=1.5, timeout_seconds=1e-9, max_branches=10**9)
    stats = bab.verify(task, "drg")
    if stats.verdict == bab.UNKNOWN:  # root may already decide; then nothing to check
        assert stats.unknown_reason == "timeout"


def test_all_zero_scores_fall_back_to_babsr_then_bisect():
    # m(x) = |x| + c has positive coefficients on both neurons, so the gap
    # scores vanish and the search must still make progress.
    for c, expected in ((-0.2, bab.UNSAFE), (0.05, bab.SAFE)):
        net = model.make_network([
            (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
            (np.array([[1.0, 1.0]]), np.array([c]), model.LINEAR),
        ])
        task = scalar_task(net, max_branches=10_000)
        stats = bab.verify(task, "drg")
        assert stats.verdict == expected


def test_bisect_after_both_kinds_score_zero_traces_the_heuristics_own_scores():
    # Neuron 1 is unstable but weighs 1e-14 in the margin: drg scores it 0 and
    # babsr about 5e-15, both within ZERO_SCORE_TOL, so once babsr has split
    # the other neurons the search bisects. The trace keeps drg's scores.
    net = model.make_network([
        (np.array([[1.0], [1.0], [-1.0]]), np.array([0.0, 0.1, 0.0]), model.RELU),
        (np.array([[1.0, 1e-14, 0.5]]), np.array([-0.2]), model.LINEAR),
    ])
    task = scalar_task(net, max_branches=200)
    traces = {kind: bab.verify(task, kind, bab.BabConfig(trace=True)).per_node_trace
              for kind in ("drg", "babsr")}
    assert any(e.get("split_kind") == "babsr" for e in traces["drg"])
    bisects = {kind: [e for e in trace if e["action"] == "bisect"]
               for kind, trace in traces.items()}
    assert bisects["drg"] and all(e["score_max"] == 0.0 for e in bisects["drg"])
    assert bisects["babsr"]
    assert all(0.0 < e["score_max"] <= heuristics.ZERO_SCORE_TOL for e in bisects["babsr"])


def test_unsafe_needs_no_branching_when_root_witness_hits():
    task = scalar_task(scalar_relu_net(out_bias=-2.0))
    stats = bab.verify(task, "width")
    assert stats.verdict == bab.UNSAFE and stats.branches_visited == 0


def test_every_heuristic_reaches_correct_verdicts():
    rng = np.random.default_rng(57)
    task = oracle_sized_task(rng, timeout_seconds=30.0, max_branches=50_000)
    mv, _ = oracle.exact_min_margin(task)
    expected = bab.UNSAFE if mv <= 0 else bab.SAFE
    from reluverify.heuristics import KINDS

    for kind in KINDS:
        stats = bab.verify(task, kind)
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
    task = random_task(rng, 8, (64, 64), 6, eps=0.3, timeout_seconds=1e-6, max_branches=10**9)
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
    stats = bab.verify(task, "drg")
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
    # lose it would leave the neuron unstable and could repeat forever.
    child = bab.SubDomain.child.__func__
    monkeypatch.setattr(bab.SubDomain, "child", classmethod(
        lambda cls, net, parent, lo, hi, start_layer, clamp=None:
            child(cls, net, parent, lo, hi, start_layer)))
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([-0.2]), model.LINEAR),
    ])
    with pytest.raises(bab.InvariantError, match="unstable"):
        bab.verify(scalar_task(net, max_branches=10), "drg")


def test_safe_verdicts_survive_grid_attack():
    rng = np.random.default_rng(60)
    attacked = 0
    for trial in range(10):
        task = random_task(rng, 3, (5, 5), 2, eps=float(rng.uniform(0.1, 0.4)),
                           timeout_seconds=20.0, max_branches=2000)
        stats = bab.verify(task, "drg")
        if stats.verdict == bab.SAFE:
            assert oracle.grid_attack(task, 20_000, seed=trial) is None
            attacked += 1
    assert attacked > 0


def test_deferred_child_bounds_equal_eager_propagation_bitwise(monkeypatch):
    # Splitting and bisecting bound nothing; a child's bounds, once read, are
    # exactly what the eager rule gives: propagate at split time and clamp
    # every split on the path again at its layer (reference_propagate_bounds).
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
            d.neuron_bounds.relaxation(0)  # the parent's memo is not handed on
            calls = []
            monkeypatch.setattr(relax, "propagate_bounds",
                                lambda *a, **k: calls.append(1) or propagate(*a, **k))
            halves = bab.input_bisect(net, d)
            unstable = [(k, int(j)) for k in (0, 1)
                        for j in np.flatnonzero(d.neuron_bounds.unstable_mask(k))]
            children = bab.split_subdomain(net, d, *unstable[0]) if unstable else ()
            monkeypatch.undo()
            assert calls == []
            for child in halves + children:
                assert child.net is not None and child.bounds._relaxations == {}
            for half in halves:
                assert_same(half.neuron_bounds, reference_propagate_bounds(
                    net, half.box_lower, half.box_upper, path, ref, 0))
            if not unstable:
                break
            layer = unstable[0][0]
            feasible = []
            for child, sign in zip(children, (+1, -1)):
                splits = {**path, unstable[0]: sign}
                eager = reference_propagate_bounds(net, lo, hi, splits, ref, layer + 1)
                assert_same(child.neuron_bounds, eager)
                if eager.is_feasible():
                    feasible.append((child, splits, eager))
            if not feasible:
                break
            d, path, ref = feasible[0]
        long_chains += len(path) >= 3
    assert long_chains >= 4


def _searches():
    """Seeded budget-capped searches that split, bisect and meet empty children."""
    for seed in (86, 88):
        task = random_task(np.random.default_rng(seed), 3, (6, 5), 2, eps=0.6,
                           max_branches=150)
        for kind in ("drg", "babsr"):
            bab.verify(task, kind)


def test_feasibility_set_by_propagation_equals_the_layer_scan(monkeypatch):
    # propagate_bounds records whether it stopped at a crossed layer; that
    # must be exactly what is_feasible() reads from the intervals alone.
    propagate, calls = relax.propagate_bounds, []

    def recording(net, lo, hi, base=None, start_layer=0):
        nb = propagate(net, lo, hi, base, start_layer)
        calls.append((base is not None, start_layer, nb))
        return nb

    monkeypatch.setattr(relax, "propagate_bounds", recording)
    _searches()
    _, _, high = _straddling_bisection()
    high.neuron_bounds  # bounds the empty half
    kinds = {"split": 0, "bisect": 0, "empty": 0}
    for has_base, start_layer, nb in calls:
        assert nb._feasible is not None
        scan = relax.NeuronBounds(nb.lower, nb.upper).is_feasible()
        assert nb._feasible == scan
        kinds["split"] += start_layer > 0
        kinds["bisect"] += has_base and start_layer == 0
        kinds["empty"] += not scan
    assert kinds["split"] > 100 and kinds["bisect"] > 100 and kinds["empty"] > 20


def test_each_layer_relaxation_is_computed_once_per_bounds(monkeypatch):
    # A bound pass hands its relaxations and adaptive slopes on with the
    # bounds it returns, so no later reader of the same intervals builds them
    # again. Keyed by the interval lists, so a fresh object over the same
    # lists counts as the same bounds; the lists are kept alive for the keys.
    built = {"relaxation": [], "adaptive_slope": []}
    alive = []
    for name, memo in (("relaxation", "_relaxations"), ("adaptive_slope", "_adaptive_slopes")):
        def counting(self, k, method=getattr(relax.NeuronBounds, name), memo=memo, name=name):
            if k not in getattr(self, memo):
                alive.append(self.lower)
                built[name].append((id(self.lower), k))
            return method(self, k)
        monkeypatch.setattr(relax.NeuronBounds, name, counting)
    _searches()
    for name, keys in built.items():
        assert len(keys) > 100, name
        assert len(set(keys)) == len(keys), name


def _straddling_bisection():
    """Bisection children of z = x on [-1, 3] split z < 0: the lower half
    [-1, 1] is feasible, the upper half [1, 3] (z >= 1 but z <= 0) is not."""
    net = scalar_relu_net()
    parent = make_domain(net, [-1.0], [3.0], splits={(0, 0): -1})
    low, high = bab.input_bisect(net, parent)
    return net, low, high


def test_worklist_pop_skips_infeasible_children():
    _, low, high = _straddling_bisection()
    low.parent_lower_bound, high.parent_lower_bound = -1.0, -2.0  # high comes first
    w = bab.Worklist()
    w.push(low)
    w.push(high)
    assert w.pop() is low
    assert not high.neuron_bounds.is_feasible() and len(w) == 0
    _, low, high = _straddling_bisection()
    w.push(high)
    assert w.pop() is None and len(w) == 0


def test_budget_is_not_exhausted_by_an_infeasible_child(monkeypatch):
    # A zero branch budget with only an infeasible child queued ends Safe: the
    # budget counts as exhausted only while a feasible sub-domain waits.
    task = scalar_task(scalar_relu_net(out_bias=0.1), max_branches=0)
    _, _, high = _straddling_bisection()
    process = bab._process_node

    def root_queues_only_high(*args, **kwargs):
        entry, _ = process(*args, **kwargs)
        return entry, ((high,) if entry["node"] == 0 else ())

    monkeypatch.setattr(bab, "_process_node", root_queues_only_high)
    stats = bab.verify(task, "drg")
    assert not high.neuron_bounds.is_feasible()
    assert stats.verdict == bab.SAFE
    assert stats.unknown_reason is None and stats.branches_visited == 0


def test_propagate_bounds_runs_once_per_popped_subdomain(monkeypatch, tmp_path):
    # Children are bounded when popped, never when queued: one pass for the
    # root and one per sub-domain taken off the worklist, including the
    # infeasible ones dropped there and the one popped when the budget ran out.
    assert cli.main(["gen", "--seed", "7", "--layers", "2", "--widths", "16", "--count", "4",
                     "--eps", "0.25", "--inputs", "4", "--outputs", "3", "--out", str(tmp_path)]) == 0
    propagate, pop = relax.propagate_bounds, bab.Worklist.pop
    counts = {"bounds": 0, "popped": 0}

    def counting_propagate(*args, **kwargs):
        counts["bounds"] += 1
        return propagate(*args, **kwargs)

    def counting_pop(self):
        before = len(self)
        d = pop(self)
        counts["popped"] += before - len(self)
        return d

    monkeypatch.setattr(relax, "propagate_bounds", counting_propagate)
    monkeypatch.setattr(bab.Worklist, "pop", counting_pop)
    capped = 0
    for _, model_path, spec_path in cli.discover_suite(str(tmp_path)):
        task = model.load_task(model_path, spec_path, 600.0, 100)
        for kind in ("drg", "babsr"):
            counts.update(bounds=0, popped=0)
            stats = bab.verify(task, kind)
            assert counts["bounds"] == 1 + counts["popped"]
            if stats.unknown_reason == "branch budget exhausted":
                capped += 1
                # each split queued two children; far fewer were ever bounded
                assert counts["popped"] < 1.5 * stats.splits_made
    assert capped >= 3


def test_concrete_network_runs_once_per_witness(monkeypatch, tmp_path):
    # The witness's forward pass gives both its concrete margin and the
    # pre-activations drg and grad score with; nothing evaluates x* again.
    assert cli.main(["gen", "--seed", "7", "--layers", "2", "--widths", "16", "--count", "2",
                     "--eps", "0.25", "--inputs", "4", "--outputs", "3", "--out", str(tmp_path)]) == 0
    forward = model.forward
    calls = []
    monkeypatch.setattr(model, "forward", lambda *a: calls.append(1) or forward(*a))
    for _, model_path, spec_path in cli.discover_suite(str(tmp_path)):
        task = model.load_task(model_path, spec_path, 600.0, 50)
        for kind in ("drg", "grad"):
            calls.clear()
            stats = bab.verify(task, kind, bab.BabConfig(trace=True))
            witnesses = sum("witness_margin" in e for e in stats.per_node_trace)
            assert stats.splits_made > 0
            assert len(calls) == witnesses


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
        assert bab.make_root(task).neuron_bounds.is_feasible()
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
        assert stats.verdict == bab.UNSAFE, f"seed {seed}"
        assert [e["action"] for e in stats.per_node_trace] == ["unsafe"]
        assert np.array_equal(stats.witness.x_star, task.input_lower)

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from reluverify import bab, model, relax

from reluverify.cli import generate_instance

from helpers import (adaptive_slopes, bounds_of, branching_of, gradient_of, layer_scan,
                     layout_nets, make_domain, near_limit_task, optimize_of, propagate_of, random_net,
                     reference_optimize_alpha, reference_propagate_bounds,
                     reference_relu_backward, scalar_relu_net, unstable)


def _relaxation(l, u):
    """Relaxation of one neuron with pre-activation bounds [l, u], as scalars."""
    unst, slope, icpt = relax.relaxation(np.array([l]), np.array([u]))
    return bool(unst[0]), float(slope[0]), float(icpt[0])


def test_relu_relaxation_wide_interval():
    unst, slope, icpt = _relaxation(-2.0, 18.0)
    assert unst
    assert abs(slope - 0.9) < 1e-12
    assert abs(icpt - 1.8) < 1e-12
    rel = relax.relaxation(np.array([-2.0]), np.array([18.0]))
    assert relax._lower_slope(rel, np.array([0.5])).tolist() == [0.5]


def test_relu_relaxation_moderate_interval():
    _, slope, icpt = _relaxation(-4.0, 4.0)
    assert abs(slope - 0.5) < 1e-12
    assert abs(icpt - 2.0) < 1e-12


def test_relu_relaxation_symmetric_interval():
    _, slope, icpt = _relaxation(-1.0, 1.0)
    assert abs(slope - 0.5) < 1e-12
    assert abs(icpt - 0.5) < 1e-12


def test_relu_relaxation_stable_neurons_are_exact():
    # stable neurons are never unstable and get their exact line, not a chord
    assert _relaxation(0.5, 2.0) == (False, 1.0, 0.0)
    assert _relaxation(-2.0, -0.5) == (False, 0.0, 0.0)
    rel = relax.relaxation(np.array([0.5, -2.0]), np.array([2.0, -0.5]))
    assert relax._lower_slope(rel, np.array([0.3, 0.3])).tolist() == [1.0, 0.0]


def test_stability_tag_tie_rules():
    # l = 0 counts as active (upper slope 1), u = 0 as inactive (slope 0);
    # only l < 0 < u is unstable
    assert _relaxation(0.0, 2.0)[:2] == (False, 1.0)
    assert _relaxation(-2.0, 0.0)[:2] == (False, 0.0)
    assert _relaxation(-1.0, 1.0)[:2] == (True, 0.5)
    assert _relaxation(1.0, 2.0)[:2] == (False, 1.0)


def test_relaxation_is_computed_once_per_bounds_object(monkeypatch):
    # propagate_bounds builds each ReLU layer's relaxation once, from the
    # layer's final intervals in the (D, 1, n_k) layout, and returns it with
    # the bounds and their feasibility as one Domains stack; bounding the
    # stack builds nothing.
    net = random_net(np.random.default_rng(29), 3, [6, 5], 2)
    lo, hi = -np.ones(3), np.ones(3)
    build, built = relax.relaxation, []
    monkeypatch.setattr(relax, "relaxation", lambda l, u: built.append(build(l, u)) or built[-1])
    stacked = relax.propagate_bounds(net, lo[None], hi[None])
    nb = stacked.neuron_bounds
    relax.compute_bounds(net, np.array([[1.0, -1.0]]), stacked,
                         {k: relax.adaptive_alpha(nb.lower[k], nb.upper[k]) for k in (0, 1)})
    assert [id(r) for r in built] == [id(stacked.relaxations[k]) for k in (0, 1)]
    assert nb.feasible.tolist() == [True] and nb.intervals(0).is_feasible() is True
    for k, n_k in ((0, 6), (1, 5)):
        new = build(nb.lower[k][:, None, :], nb.upper[k][:, None, :])
        for kept, want in zip(stacked.relaxations[k], new, strict=True):
            assert kept.shape == (1, 1, n_k)
            assert kept.dtype == want.dtype and kept.tobytes() == want.tobytes()


def _bounded_stack():
    """A stack of four boxes bounded over a base with mixed start layers; the
    base empties the last one at layer 0."""
    net = random_net(np.random.default_rng(33), 3, [6, 5, 4], 2)
    rng = np.random.default_rng(34)
    lo = rng.uniform(-1.0, 0.0, (4, 3))
    hi = lo + rng.uniform(0.2, 1.5, (4, 3))
    base = relax.propagate_bounds(net, lo, hi).neuron_bounds
    base.lower[0][3, 0] = base.upper[0][3, 0] + 1.0
    return net, relax.propagate_bounds(net, lo, hi, base, np.array([1, 2, 0, 0]))


def test_indexing_a_stack_takes_those_rows_bitwise():
    # A sub-stack is the Domains an index array takes: in its order, the
    # very rows of the boxes, the intervals, the feasibility and every
    # relaxation array.
    _, stack = _bounded_stack()
    nb = stack.neuron_bounds
    assert nb.feasible.tolist() == [True, True, True, False]
    idx = np.array([3, 0, 2])
    sub = stack[idx]
    assert sub.box_lower.tobytes() == stack.box_lower[idx].tobytes()
    assert sub.box_upper.tobytes() == stack.box_upper[idx].tobytes()
    assert sub.neuron_bounds.feasible.tolist() == [False, True, True]
    assert sorted(sub.relaxations) == sorted(stack.relaxations) == [0, 1, 2]
    for j, i in enumerate(idx):
        for got, want in zip(sub.neuron_bounds.lower + sub.neuron_bounds.upper,
                             nb.lower + nb.upper, strict=True):
            assert got[j].tobytes() == want[i].tobytes()
        for k, rel in stack.relaxations.items():
            for got, want in zip(sub.relaxations[k], rel, strict=True):
                assert got[j].dtype == want[i].dtype and got[j].tobytes() == want[i].tobytes()


def test_propagation_builds_an_adaptive_alpha_only_where_a_later_pass_reads_it(monkeypatch):
    # Layer k's alpha is read only by the backward passes of recomputed
    # layers above k: never the last hidden layer's, and none when a split on
    # the last hidden layer leaves no layer to recompute.
    net = random_net(np.random.default_rng(31), 3, [6, 5, 4], 2)  # widths name the layers
    lo, hi = -np.ones(3), np.ones(3)
    alpha, widths = relax.adaptive_alpha, []
    monkeypatch.setattr(relax, "adaptive_alpha", lambda l, u: widths.append(l.size) or alpha(l, u))
    root = propagate_of(net, lo, hi)
    assert widths == [6, 5]
    for start_layer, read in ((1, [6, 5]), (2, [6, 5]), (3, [])):
        widths.clear()
        propagate_of(net, lo, hi, root, start_layer)
        assert widths == read, start_layer


def test_adaptive_alpha_is_the_whole_lower_slope():
    # On l <= u the adaptive alpha already is 1 on active neurons and 0 on
    # inactive ones, so resolving it through the relaxation changes no bit.
    rng = np.random.default_rng(30)
    l = rng.normal(size=200) * rng.choice([1e-3, 1.0, 1e3], 200)
    u = l + rng.exponential(size=200) * rng.choice([0.0, 1e-3, 1.0, 1e3], 200)
    ties = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.0], [-0.0, 0.0], [-1.0, 0.0],
                     [-1.0, -0.0], [2.0, 2.0], [-2.0, -2.0], [-1.0, 1.0]])
    for lo, up in ((l, u), (ties[:, 0], ties[:, 1])):
        alpha = relax.adaptive_alpha(lo, up)
        resolved = relax._lower_slope(relax.relaxation(lo, up), alpha)
        assert alpha.dtype == resolved.dtype and alpha.tobytes() == resolved.tobytes()


def test_a_stable_neurons_lower_slope_is_its_upper_slope():
    # Off the unstable neurons the lower line takes the upper slope: exactly
    # 1.0 where l >= 0 and 0.0 elsewhere, as float64 whatever alpha's dtype,
    # on signed zeros, points (l == u), crossed intervals and NaN ends, in
    # either layout.
    rng = np.random.default_rng(96)
    ends = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300, np.nan])
    l, u = (np.concatenate([a.ravel(), rng.normal(size=100)]) for a in np.meshgrid(ends, ends))
    unst = (l < 0.0) & (u > 0.0)
    assert unst.any() and (~unst).any() and (l > u).any() and (l == u).any()
    for dtype in (np.float64, np.float32):
        alpha = rng.uniform(size=(3, l.size)).astype(dtype)
        want = np.where(unst, alpha, l >= 0.0).astype(np.float64)
        for got in (relax._lower_slope(relax.relaxation(l, u), alpha),
                    relax._lower_slope(relax.relaxation(l[None, None], u[None, None]), alpha)[0]):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_compute_bounds_single_neuron_lower_line():
    # m(x) = ReLU(x) on [-1, 1] with alpha = 0.5: bound is 0.5 x, minimum -0.5
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    res = bounds_of(net, np.array([[1.0]]), d, {0: np.array([0.5])})[0]
    assert res.w.tolist() == [0.5]
    assert res.b == 0.0
    assert res.lower_bound == -0.5
    assert res.A[0].tolist() == [1.0]


def test_compute_bounds_single_neuron_upper_line():
    # m(x) = -ReLU(x) + 1: negative coefficient takes the upper line 0.5x + 0.5
    net = scalar_relu_net(out_weight=-1.0, out_bias=1.0)
    d = make_domain(net, [-1.0], [1.0])
    res = bounds_of(net, np.array([[1.0]]), d, {0: np.array([0.5])})[0]
    assert res.w.tolist() == [-0.5]
    assert res.b == 0.5
    assert res.lower_bound == 0.0
    assert res.A[0].tolist() == [-1.0]


def test_compute_bounds_raises_on_infeasible_subdomain():
    net = scalar_relu_net()
    d = make_domain(net, [0.5], [1.0], splits={(0, 0): -1})  # z = x >= 0.5 but clamped <= 0
    assert not d.neuron_bounds.is_feasible()
    with pytest.raises(ValueError, match="infeasible"):
        bounds_of(net, np.array([[1.0]]), d, adaptive_slopes(net, d))
    with pytest.raises(ValueError, match="infeasible"):
        bounds_of(net, np.array([[1.0], [2.0]]), d, adaptive_slopes(net, d))


def test_compute_bounds_sampled_soundness():
    rng = np.random.default_rng(21)
    for trial in range(5):
        net = random_net(rng, 3, [6, 5], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.5, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=2)
        res = bounds_of(net, c[None], d, adaptive_slopes(net, d))[0]
        xs = rng.uniform(lo, hi, size=(10_000, 3))
        margins = model.forward(net, xs)[0] @ c
        bound_vals = xs @ res.w + res.b
        assert np.max(bound_vals - margins) <= 1e-9


def test_compute_bounds_sampled_soundness_with_splits():
    rng = np.random.default_rng(22)
    net = random_net(rng, 2, [5, 4], 1, scale=2.0)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    root = make_domain(net, lo, hi)
    layer0 = unstable(root.neuron_bounds, 0)
    assert layer0.size >= 1
    j = int(layer0[0])
    for sign in (+1, -1):
        d = make_domain(net, lo, hi, splits={(0, j): sign})
        if not d.neuron_bounds.is_feasible():
            continue
        res = bounds_of(net, np.array([[1.0]]), d, adaptive_slopes(net, d))[0]
        xs = rng.uniform(lo, hi, size=(10_000, 2))
        z = xs @ net.layers[0].weights.T + net.layers[0].bias
        keep = z[:, j] >= 0.0 if sign > 0 else z[:, j] < 0.0
        xs = xs[keep]
        margins = model.forward(net, xs)[0] @ np.array([1.0])
        assert np.max(xs @ res.w + res.b - margins) <= 1e-9


def test_intermediate_bounds_linear_image():
    net = model.make_network([
        (np.array([[2.0]]), np.array([0.0]), model.RELU),
        (np.array([[1.0]]), np.array([0.0]), model.LINEAR),
    ])
    d = make_domain(net, [-1.0], [1.0])
    assert d.neuron_bounds.lower[0].tolist() == [-2.0]
    assert d.neuron_bounds.upper[0].tolist() == [2.0]


def test_intermediate_bounds_split_clamp():
    net = model.make_network([
        (np.array([[2.0]]), np.array([0.0]), model.RELU),
        (np.array([[1.0]]), np.array([0.0]), model.LINEAR),
    ])
    d = make_domain(net, [-1.0], [1.0], splits={(0, 0): +1})
    assert d.neuron_bounds.lower[0].tolist() == [0.0]
    assert d.neuron_bounds.upper[0].tolist() == [2.0]


def test_intermediate_bounds_nest_between_interval_arithmetic_and_samples():
    rng = np.random.default_rng(23)
    from reluverify.oracle import _interval_bounds

    for trial in range(5):
        net = random_net(rng, 3, [6, 5], 2, scale=1.5)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.5, 3)
        d = make_domain(net, lo, hi)
        ia_l, ia_u = _interval_bounds(net, lo, hi)
        xs = rng.uniform(lo, hi, size=(10_000, 3))
        h = xs
        for k, layer in enumerate(net.layers[:-1]):
            z = h @ layer.weights.T + layer.bias
            # interval arithmetic contains the propagated bounds
            assert np.all(ia_l[k] <= d.neuron_bounds.lower[k] + 1e-9)
            assert np.all(ia_u[k] >= d.neuron_bounds.upper[k] - 1e-9)
            # propagated bounds contain the sampled true range
            assert np.all(z.min(axis=0) >= d.neuron_bounds.lower[k] - 1e-9)
            assert np.all(z.max(axis=0) <= d.neuron_bounds.upper[k] + 1e-9)
            h = np.maximum(z, 0.0) if layer.activation == model.RELU else z


def _sweep_alpha(net, c_row, domain, grid=2001):
    best_lb, best_alpha = -np.inf, None
    for a in np.linspace(0.0, 1.0, grid):
        lb = bounds_of(net, c_row[None], domain, {0: np.array([a])}).lower_bound[0]
        if lb > best_lb:
            best_lb, best_alpha = lb, a
    return best_lb, best_alpha


def test_optimize_alpha_relu_identity():
    # m(x) = ReLU(x) on [-1, 1]: the sweep oracle puts the optimum at alpha 0
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    sweep_lb, sweep_alpha = _sweep_alpha(net, np.array([1.0]), d)
    assert sweep_alpha == 0.0 and sweep_lb == 0.0
    slopes, _ = optimize_of(net, np.array([[1.0]]), d, iters=30)
    lb = bounds_of(net, np.array([[1.0]]), d, slopes).lower_bound[0]
    assert abs(lb - sweep_lb) < 1e-9
    assert abs(slopes[0][0, 0] - 0.0) < 1e-9


def test_optimize_alpha_interior_optimum():
    # m(x) = 2 ReLU(x) - x on [-1, 1]. Without skip connections this is
    # ReLU(x) + ReLU(-x); the bound is (a1 - a2) x with minimum -|a1 - a2|,
    # so any matched slope pair attains the true optimum 0.
    net = model.make_network([
        (np.array([[1.0], [-1.0]]), np.zeros(2), model.RELU),
        (np.array([[1.0, 1.0]]), np.array([0.0]), model.LINEAR),
    ])
    xs = np.linspace(-1, 1, 11)
    vals = [model.forward(net, np.array([x]))[0][0] for x in xs]
    assert np.allclose(vals, [2 * max(x, 0) - x for x in xs])
    d = make_domain(net, [-1.0], [1.0])
    # sweep oracle over the slope grid
    best = -np.inf
    for a1 in np.linspace(0, 1, 101):
        for a2 in np.linspace(0, 1, 101):
            slopes = {0: np.array([a1, a2])}
            best = max(best, bounds_of(net, np.array([[1.0]]), d, slopes).lower_bound[0])
    assert best == 0.0
    slopes, _ = optimize_of(net, np.array([[1.0]]), d, iters=40)
    lb = bounds_of(net, np.array([[1.0]]), d, slopes).lower_bound[0]
    assert abs(lb - best) < 1e-9


def test_optimize_alpha_zero_iters_returns_adaptive_init():
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    slopes, _ = optimize_of(net, np.array([[1.0]]), d, iters=0)
    assert np.array_equal(slopes[0][0], adaptive_slopes(net, d)[0])


def test_optimize_alpha_never_worse_than_init():
    rng = np.random.default_rng(24)
    for trial in range(10):
        net = random_net(rng, 3, [5, 4], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.0, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=(1, 2))
        lb0 = bounds_of(net, c, d, adaptive_slopes(net, d)).lower_bound
        slopes, _ = optimize_of(net, c, d, iters=20)
        lb1 = bounds_of(net, c, d, slopes).lower_bound
        assert lb1 >= lb0


def test_triangle_validity_on_grid():
    rng = np.random.default_rng(25)
    for _ in range(100):
        l = -rng.uniform(0.01, 10.0)
        u = rng.uniform(0.01, 10.0)
        a = rng.uniform(0.0, 1.0)
        rel = relax.relaxation(np.array([l]), np.array([u]))
        lower = relax._lower_slope(rel, np.array([a]))[0]
        slope, icpt = rel[1][0], rel[2][0]
        z = np.linspace(l, u, 1000)
        relu = np.maximum(z, 0.0)
        assert np.all(lower * z <= relu + 1e-12)
        assert np.all(relu <= slope * z + icpt + 1e-12)


def test_exactness_when_every_relu_is_stable():
    rng = np.random.default_rng(26)
    for _ in range(10):
        net = random_net(rng, 2, [4], 1, scale=1.0)
        # push all hidden neurons stable-active with a large bias
        W0, b0 = net.layers[0].weights, net.layers[0].bias
        net = model.make_network([
            (W0, b0 + 10.0, model.RELU),
            (net.layers[1].weights, net.layers[1].bias, model.LINEAR),
        ])
        lo, hi = np.array([-0.5, -0.5]), np.array([0.5, 0.5])
        d = make_domain(net, lo, hi)
        assert not unstable(d.neuron_bounds, 0).size  # layer 0 is the only hidden layer
        c = np.array([[1.0]])
        res = bounds_of(net, c, d, adaptive_slopes(net, d))[0]
        # exact affine margin: m(x) = W1 (W0 x + b0') + b1 on this box
        w_eff = (net.layers[1].weights @ net.layers[0].weights)[0]
        b_eff = float((net.layers[1].weights @ net.layers[0].bias + net.layers[1].bias)[0])
        exact = float(np.minimum(w_eff * lo, w_eff * hi).sum()) + b_eff
        assert abs(res.lower_bound - exact) < 1e-9


def test_alpha_gradient_matches_finite_differences():
    rng = np.random.default_rng(27)
    worst = 0.0
    for trial in range(5):
        net = random_net(rng, 3, [5, 4], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.0, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=(1, 2))
        slopes = {k: rng.uniform(0.2, 0.8, size=v.shape)
                  for k, v in adaptive_slopes(net, d).items()}
        grads = gradient_of(net, c, d, slopes)
        h = 1e-5
        for k in sorted(grads):
            for j in unstable(d.neuron_bounds, k):
                p_hi = {i: v.copy() for i, v in slopes.items()}
                p_hi[k][j] += h
                p_lo = {i: v.copy() for i, v in slopes.items()}
                p_lo[k][j] -= h
                fd = (bounds_of(net, c, d, p_hi).lower_bound[0]
                      - bounds_of(net, c, d, p_lo).lower_bound[0]) / (2 * h)
                rel = abs(grads[k][0, j] - fd) / max(abs(grads[k][0, j]), abs(fd), 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-4


def test_concretize_matches_witness_dot_bitwise():
    rng = np.random.default_rng(28)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        w = rng.normal(size=n)
        off = float(rng.normal())
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0, 2, n)
        x_star, value = relax.concretize(w, off, lo, hi)
        assert x_star.tolist() == np.where(w >= 0, lo, hi).tolist()
        assert value == relax.concretize(w, off, x_star, x_star)[1]
        # a stack of rows concretizes each row exactly as it would alone
        rows = np.vstack([w, -w, 2.0 * w])
        _, values = relax.concretize(rows, np.array([off, 0.0, -off]), lo, hi)
        for row, o, v in zip(rows, (off, 0.0, -off), values):
            assert v == relax.concretize(row, o, lo, hi)[1]


def test_bound_equals_witness_abstract_margin_bitwise():
    rng, unsafe = np.random.default_rng(30), 0
    for trial in range(20):
        n0 = int(rng.integers(1, 13))
        net = random_net(rng, n0, [6, 5], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, n0)
        hi = lo + rng.uniform(0.1, 1.0, n0)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=(1, 2))
        for rows in (c, -c):
            res = bounds_of(net, rows, d, adaptive_slopes(net, d))[0]
            b = branching_of(net, rows, d, adaptive_slopes(net, d))
            assert b.raw_lower_bound == res.lower_bound
            if b.action == "unsafe":
                unsafe += 1
                assert b.witness.abstract_margin == res.lower_bound
                assert np.array_equal(b.witness.x_star, res.x_star)
    assert unsafe >= 10


def test_propagate_bounds_from_later_layer_needs_base():
    net = random_net(np.random.default_rng(31), 2, [4, 3], 1)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="base"):
        propagate_of(net, lo, hi, start_layer=1)
    base = propagate_of(net, lo, hi)
    again = propagate_of(net, lo, hi, base=base, start_layer=1)
    assert again.lower[0].tolist() == base.lower[0].tolist()


def _stacked_cases(seed=31, count=4):
    """Seeded 8-input gen instances with 3-5 spec rows, as (net, C, domain)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_out = int(rng.integers(4, 7))
        net, lo, hi, C = generate_instance(rng, 8, [12, 10], n_out, 0.3, 1.5)
        yield net, C, make_domain(net, lo, hi)


def _zero_gradient_case():
    """A stack whose second row's first gradient is all zero: every unstable
    coefficient of it is negative, so each neuron takes the upper chord and
    no slope moves its bound. The first row's bound improves."""
    net = model.make_network([
        (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3), model.RELU),
        (np.array([[1.0, 2.0, 0.5], [-1.0, -0.5, -2.0]]), np.zeros(2), model.LINEAR),
    ])
    return net, np.eye(2), make_domain(net, [-1.0, -1.0], [1.0, 1.0])


def _assert_same_bound(stacked, single):
    assert np.array_equal(stacked.w, single.w)
    assert stacked.b == single.b and stacked.lower_bound == single.lower_bound
    assert np.array_equal(stacked.x_star, single.x_star)
    assert sorted(stacked.A) == sorted(single.A)
    for k in single.A:
        assert np.array_equal(stacked.A[k], single.A[k])


def test_compute_bounds_stack_equals_single_rows_bitwise():
    rng = np.random.default_rng(32)
    for net, C, d in _stacked_cases():
        shared = adaptive_slopes(net, d)
        per_row = {k: rng.uniform(0.0, 1.0, (len(C), v.size)) for k, v in shared.items()}
        for slopes in (shared, per_row):
            res = bounds_of(net, C, d, slopes)
            assert res.lower_bound.shape == (len(C),)
            for r in range(len(C)):
                row_slopes = {k: v[r] if v.ndim == 2 else v for k, v in slopes.items()}
                single = bounds_of(net, C[r:r + 1], d, row_slopes)[0]
                _assert_same_bound(res[r], single)


def test_stacked_optimize_alpha_matches_per_row_reference_bitwise():
    stop_points = set()
    for net, C, d in (*_stacked_cases(), _zero_gradient_case()):
        for iters in (0, 20):
            slopes, _ = optimize_of(net, C, d, iters)
            res = bounds_of(net, C, d, slopes)
            for r in range(len(C)):
                ref, attempts = reference_optimize_alpha(net, C[r], d, iters)
                stop_points.add(len(attempts))
                for k, v in ref.items():
                    assert np.array_equal(slopes[k][r], v), (iters, r, k)
                assert res.lower_bound[r] == bounds_of(net, C[r:r + 1], d, ref).lower_bound[0]
    # rows stopped at different iterations (after 1, 9, 10, 11 and 17 here)
    assert len(stop_points - {0, 20}) >= 3


def test_zero_gradient_case_stops_one_row_at_once_beside_a_row_that_improves():
    # The premise of _zero_gradient_case, which the stacked tests take as one
    # more input: the second row stops on its first gradient, held at its
    # adaptive slopes while the first row's steps go on in the same stack.
    net, C, d = _zero_gradient_case()
    init = bounds_of(net, C, d, adaptive_slopes(net, d))
    assert unstable(d.neuron_bounds, 0).size == d.neuron_bounds.lower[0].size
    assert (init.A[0][1] < 0.0).all()
    assert reference_optimize_alpha(net, C[1], d, 20)[1] == [0]
    assert len(reference_optimize_alpha(net, C[0], d, 20)[1]) > 1
    assert optimize_of(net, C, d, 20)[1].lower_bound[0] > init.lower_bound[0]


def test_optimize_alpha_bound_passes_are_one_plus_line_search_rounds(monkeypatch):
    compute, gradient = relax.compute_bounds, relax.alpha_gradient
    for net, C, d in (*_stacked_cases(), _zero_gradient_case()):
        logs = [reference_optimize_alpha(net, C[r], d, 20)[1] for r in range(len(C))]
        iterations = max(len(log) for log in logs)
        rounds = sum(max(log[i] if i < len(log) else 0 for log in logs)
                     for i in range(iterations))
        calls = {"bounds": 0, "gradients": 0, "bounds_in_gradient": 0}
        inside = []

        def counting_bounds(*args, **kwargs):
            calls["bounds"] += 1
            calls["bounds_in_gradient"] += bool(inside)
            return compute(*args, **kwargs)

        def counting_gradient(*args, **kwargs):
            calls["gradients"] += 1
            inside.append(1)
            try:
                return gradient(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(relax, "compute_bounds", counting_bounds)
        monkeypatch.setattr(relax, "alpha_gradient", counting_gradient)
        optimize_of(net, C, d, 20)
        monkeypatch.undo()
        assert calls == {"bounds": 1 + rounds, "gradients": iterations, "bounds_in_gradient": 0}


def test_optimize_alpha_stops_at_the_deadline():
    net, C, d = next(_stacked_cases())
    slopes, _ = optimize_of(net, C, d, 20, deadline=0.0)
    for k, v in adaptive_slopes(net, d).items():
        assert np.array_equal(slopes[k], np.repeat(v[None, :], len(C), axis=0))


def _assert_same_stacked_bound(a, b):
    for field in ("w", "b", "lower_bound", "x_star"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert sorted(a.A) == sorted(b.A)
    for k in a.A:
        assert np.array_equal(a.A[k], b.A[k])


def test_optimize_alpha_bound_equals_compute_bounds_bitwise(monkeypatch):
    # The bound handed back with the slopes is the one compute_bounds gives
    # them: after all iterations, with none, and when the deadline cuts the
    # run short (a clock ticking once per reading passes 3.5 in iteration 4).
    gradient = relax.alpha_gradient
    for net, C, d in (*_stacked_cases(), _zero_gradient_case()):
        for iters, deadline in ((20, None), (0, None), (20, 3.5)):
            ticks = itertools.count(1)
            gradients = []
            monkeypatch.setattr(relax, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
            monkeypatch.setattr(relax, "alpha_gradient",
                                lambda *a, **k: gradients.append(1) or gradient(*a, **k))
            slopes, bound = optimize_of(net, C, d, iters, deadline)
            monkeypatch.undo()
            if deadline is not None:
                assert len(gradients) == 3
            _assert_same_stacked_bound(bound, bounds_of(net, C, d, slopes))
        slopes, bound = optimize_of(net, C[:1], d, 20)
        _assert_same_stacked_bound(bound, bounds_of(net, C[:1], d, slopes))


def test_optimize_alpha_without_relu_layers_returns_the_networks_bound():
    net = model.make_network([(np.ones((1, 2)), np.zeros(1), model.LINEAR)])
    d = make_domain(net, [-1.0, -1.0], [1.0, 1.0])
    slopes, bound = optimize_of(net, np.array([[1.0]]), d, 20)
    assert slopes == {}
    _assert_same_stacked_bound(bound, bounds_of(net, np.array([[1.0]]), d, {}))
    assert bound.lower_bound.tolist() == [-2.0]
    infeasible = make_domain(scalar_relu_net(), [0.5], [1.0], splits={(0, 0): -1})
    with pytest.raises(ValueError, match="infeasible"):
        optimize_of(scalar_relu_net(), np.array([[1.0]]), infeasible, 20)


def test_a_nan_left_by_overflow_is_feasible_and_ends_the_search_unknown():
    # 1e300 weights overflow to inf, and 0 * inf in the interval pass leaves a
    # NaN. A NaN crosses nothing, so it proves no region empty: the domain is
    # feasible, as the layer scan reads, and the search ends on it Unknown
    # rather than rest a verdict on the bound the relaxation gives over it.
    net = model.make_network([
        (np.array([[1e300]]), np.zeros(1), model.RELU),
        (np.array([[1e300]]), np.zeros(1), model.RELU),
        (np.array([[1.0]]), np.zeros(1), model.RELU),
        (np.array([[1.0]]), np.zeros(1), model.LINEAR),
    ])
    task = model.VerificationTask(net, -np.ones(1), np.ones(1), np.array([[1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        nb = propagate_of(net, task.input_lower, task.input_upper)
        stats = bab.verify(task, "drg", bab.BabConfig(trace=True))
    assert np.isnan(nb.lower[2]).any()
    assert nb.feasible is True and nb.is_feasible()
    assert layer_scan(nb.lower, nb.upper)
    assert (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "non-finite bound")
    assert [e["action"] for e in stats.per_node_trace] == ["non-finite"]
    assert np.isnan(stats.per_node_trace[0]["raw_lower_bound"])


def test_relaxation_evaluates_no_intercept_it_drops():
    # Active and inactive neurons near the float64 limit: -u * l would
    # overflow (a RuntimeWarning, an error in this suite) on values the
    # relaxation drops. Unstable intercepts keep the chord formula's bits.
    l = np.array([1e308, -1.7e308, -2.0, -1e-300, -3.0])
    u = np.array([1.7e308, -1e308, 18.0, 1e-300, 0.5])
    unst, slope, icpt = relax.relaxation(l, u)
    assert unst.tolist() == [False, False, True, True, True]
    assert slope[~unst].tolist() == [1.0, 0.0]
    chord = -u[unst] * l[unst] / (u[unst] - l[unst])
    assert icpt[unst].tobytes() == chord.tobytes()
    assert icpt[~unst].tobytes() == np.zeros(2).tobytes()  # +0.0, as before


def test_root_interval_near_the_float64_limit_is_finite_and_holds_the_point():
    # The box is one point whose pre-activation is about 1.52e308: the
    # interval and backward bounds cross by rounding, and the collapse to
    # their midpoint must not overflow the sum l + u to inf.
    task = near_limit_task(-1e8)
    nb = propagate_of(task.network, task.input_lower, task.input_upper)
    layer = task.network.layers[0]
    z = layer.weights @ task.input_lower + layer.bias
    assert nb.is_feasible()
    assert np.all(np.isfinite(nb.lower[0])) and np.all(np.isfinite(nb.upper[0]))
    assert np.all(nb.lower[0] <= z) and np.all(z <= nb.upper[0])


def _backward_case(rng, lam_shape, step_shape):
    """lam of lam_shape holding signed zeros and a few NaNs, and a step of
    step_shape built by relax.relaxation from intervals that include
    infinite ends and chords that overflow (|l|, |u| about 1e200)."""
    lam = rng.normal(size=lam_shape)
    flat = lam.reshape(-1)
    picks = rng.choice(flat.size, size=(3, flat.size // 8), replace=False)
    flat[picks[0]], flat[picks[1]], flat[picks[2][:2]] = 0.0, -0.0, np.nan
    l = rng.normal(size=step_shape)
    u = l + np.abs(rng.normal(size=step_shape))
    special = rng.integers(0, 4, size=step_shape)
    l = np.where(special == 1, -np.inf, np.where(special == 2, -1e200, l))
    u = np.where(special == 1, 1.0, np.where(special >= 2, 1.3e200, u))
    u = np.where(special == 3, np.inf, u)
    with np.errstate(all="ignore"):
        rel = relax.relaxation(l, u)
    # Spec rows carry a slope row each; an intermediate-bound pass shares its domain's.
    alpha = rng.uniform(size=lam_shape if len(lam_shape) == 4 else step_shape)
    lower = relax._lower_slope(rel, alpha)
    return lam, (lower, rel[1], rel[2])


@pytest.mark.parametrize("n_domains", [1, 5])
@pytest.mark.parametrize("shape", ["shared", "stacked", "spec_rows"])
def test_relu_backward_matches_the_where_reference_bitwise(shape, n_domains):
    # The three ways a pass reaches a ReLU layer: propagate_bounds starts from
    # one (2n, n) stack shared by every domain and goes on with (D, 2n, n)
    # ones; compute_bounds carries (D, m, 1, n) spec rows. Signed zeros take
    # the lower line (ties at 0), and inf or NaN steps move through as bits.
    rng = np.random.default_rng(n_domains)
    n, m = 7, 3
    lam_shape, step_shape = {"shared": ((2 * n, n), (n_domains, 1, n)),
                             "stacked": ((n_domains, 2 * n, n), (n_domains, 1, n)),
                             "spec_rows": ((n_domains, m, 1, n), (n_domains, 1, 1, n))}[shape]
    for _ in range(5):
        lam, step = _backward_case(rng, lam_shape, step_shape)
        with np.errstate(all="ignore"):
            got = relax._relu_backward(lam, step)
            want = reference_relu_backward(lam, step)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def test_flat_intervals_hold_each_layer_at_its_offsets():
    # One (D, 2, N) array holds a stack's intervals, lower bounds in row 0,
    # the hidden layers side by side: each layer's columns are the intervals
    # bounding that domain alone gives, and a domain taken out of the stack,
    # by intervals or by indexing, is its row of that one array.
    rng = np.random.default_rng(94)
    for net, offsets in layout_nets():
        assert net.hidden_offsets == offsets
        lo = rng.uniform(-1.5, -0.5, (3, 3))
        hi = lo + rng.uniform(0.5, 2.0, (3, 3))
        stack = relax.propagate_bounds(net, lo, hi)
        nb = stack.neuron_bounds
        assert nb.data.shape == (3, 2, offsets[-1]) and nb.data.dtype == np.float64
        assert nb.offsets == offsets and len(nb.lower) == len(nb.upper) == len(offsets) - 1
        for i in range(3):
            ref = reference_propagate_bounds(net, lo[i], hi[i], {})
            for k, (a, b) in enumerate(zip(offsets, offsets[1:])):
                assert np.array_equal(nb.data[i, 0, a:b], ref.lower[k])
                assert np.array_equal(nb.data[i, 1, a:b], ref.upper[k])
                assert np.shares_memory(nb.lower[k], nb.data)
                assert np.shares_memory(nb.upper[k], nb.data)
            one = nb.intervals(i)
            assert one.data.shape == (2, offsets[-1]) and np.array_equal(one.data, nb.data[i])
        sub = stack[np.array([2, 0])].neuron_bounds
        assert np.array_equal(sub.data, nb.data[[2, 0]]) and sub.offsets == offsets
        again = relax.NeuronBounds.stack([nb.intervals(2), nb.intervals(0)])
        assert np.array_equal(again.data, sub.data) and again.feasible.tolist() == [True, True]

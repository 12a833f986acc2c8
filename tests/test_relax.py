import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from reluverify import bab, model, relax

from reluverify.cli import generate_instance

from helpers import make_domain, random_net, reference_optimize_alpha, scalar_relu_net


def _relaxation(l, u):
    """Relaxation of one neuron with pre-activation bounds [l, u], as scalars."""
    nb = relax.NeuronBounds([np.array([l])], [np.array([u])])
    act, unst, slope, icpt = nb.relaxation(0)
    return bool(act[0]), bool(unst[0]), float(slope[0]), float(icpt[0])


def test_relu_relaxation_wide_interval():
    _, unst, slope, icpt = _relaxation(-2.0, 18.0)
    assert unst
    assert abs(slope - 0.9) < 1e-12
    assert abs(icpt - 1.8) < 1e-12
    nb = relax.NeuronBounds([np.array([-2.0])], [np.array([18.0])])
    assert relax._lower_slope(nb.relaxation(0), np.array([0.5])).tolist() == [0.5]


def test_relu_relaxation_moderate_interval():
    _, _, slope, icpt = _relaxation(-4.0, 4.0)
    assert abs(slope - 0.5) < 1e-12
    assert abs(icpt - 2.0) < 1e-12


def test_relu_relaxation_symmetric_interval():
    _, _, slope, icpt = _relaxation(-1.0, 1.0)
    assert abs(slope - 0.5) < 1e-12
    assert abs(icpt - 0.5) < 1e-12


def test_relu_relaxation_stable_neurons_are_exact():
    # stable neurons are never unstable and get their exact line, not a chord
    assert _relaxation(0.5, 2.0) == (True, False, 1.0, 0.0)
    assert _relaxation(-2.0, -0.5) == (False, False, 0.0, 0.0)
    nb = relax.NeuronBounds([np.array([0.5, -2.0])], [np.array([2.0, -0.5])])
    assert relax._lower_slope(nb.relaxation(0), np.array([0.3, 0.3])).tolist() == [1.0, 0.0]


def test_relu_relaxation_rejects_bad_alpha():
    with pytest.raises(ValueError):
        relax.RelaxationParams({0: np.array([1.5])})
    with pytest.raises(ValueError):
        relax.RelaxationParams({0: np.array([-0.5])})


def test_stability_tag_tie_rules():
    # l = 0 counts as active, u = 0 as inactive; only l < 0 < u is unstable
    assert _relaxation(0.0, 2.0)[:2] == (True, False)
    assert _relaxation(-2.0, 0.0)[:2] == (False, False)
    assert _relaxation(-1.0, 1.0)[:2] == (False, True)
    assert _relaxation(1.0, 2.0)[:2] == (True, False)


def test_relaxation_is_computed_once_per_bounds_object():
    net = random_net(np.random.default_rng(29), 3, [6, 5], 2)
    d = make_domain(net, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    nb = d.neuron_bounds
    # propagation hands back layer 0's relaxation and adaptive slope, which
    # its pass over layer 1 read, and its feasibility
    assert set(nb._relaxations) == {0} and set(nb._adaptive_slopes) == {0}
    assert nb._feasible is True
    fresh = relax.NeuronBounds(nb.lower, nb.upper)
    for k in (0, 1):
        for kept, new in zip(nb.relaxation(k), fresh.relaxation(k)):
            assert kept.dtype == new.dtype and kept.tobytes() == new.tobytes()
        slope = relax._lower_slope(fresh.relaxation(k), relax._adaptive_alpha(fresh, k))
        assert nb.adaptive_slope(k).tobytes() == slope.tobytes()
    assert nb.relaxation(1) is nb.relaxation(1)
    assert nb.adaptive_slope(1) is nb.adaptive_slope(1)


def test_compute_bounds_single_neuron_lower_line():
    # m(x) = ReLU(x) on [-1, 1] with alpha = 0.5: bound is 0.5 x, minimum -0.5
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    params = relax.RelaxationParams({0: np.array([0.5])})
    res = relax.compute_bounds(net, np.array([1.0]), d, params)
    assert res.w.tolist() == [0.5]
    assert res.b == 0.0
    assert res.lower_bound == -0.5
    assert res.A[0].tolist() == [1.0]


def test_compute_bounds_single_neuron_upper_line():
    # m(x) = -ReLU(x) + 1: negative coefficient takes the upper line 0.5x + 0.5
    net = scalar_relu_net(out_weight=-1.0, out_bias=1.0)
    d = make_domain(net, [-1.0], [1.0])
    params = relax.RelaxationParams({0: np.array([0.5])})
    res = relax.compute_bounds(net, np.array([1.0]), d, params)
    assert res.w.tolist() == [-0.5]
    assert res.b == 0.5
    assert res.lower_bound == 0.0
    assert res.A[0].tolist() == [-1.0]


def test_compute_bounds_raises_on_infeasible_subdomain():
    net = scalar_relu_net()
    d = make_domain(net, [0.5], [1.0], splits={(0, 0): -1})  # z = x >= 0.5 but clamped <= 0
    assert not d.neuron_bounds.is_feasible()
    with pytest.raises(ValueError, match="infeasible"):
        relax.compute_bounds(net, np.array([1.0]), d)
    with pytest.raises(ValueError, match="infeasible"):
        relax.compute_bounds(net, np.array([[1.0], [2.0]]), d)


def test_compute_bounds_sampled_soundness():
    rng = np.random.default_rng(21)
    for trial in range(5):
        net = random_net(rng, 3, [6, 5], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.5, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=2)
        res = relax.compute_bounds(net, c, d)
        xs = rng.uniform(lo, hi, size=(10_000, 3))
        margins = model.forward_batch(net, xs) @ c
        bound_vals = xs @ res.w + res.b
        assert np.max(bound_vals - margins) <= 1e-9


def test_compute_bounds_sampled_soundness_with_splits():
    rng = np.random.default_rng(22)
    net = random_net(rng, 2, [5, 4], 1, scale=2.0)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    root = make_domain(net, lo, hi)
    unstable = np.flatnonzero(root.neuron_bounds.unstable_mask(0))
    assert unstable.size >= 1
    j = int(unstable[0])
    for sign in (+1, -1):
        d = make_domain(net, lo, hi, splits={(0, j): sign})
        if not d.neuron_bounds.is_feasible():
            continue
        res = relax.compute_bounds(net, np.array([1.0]), d)
        xs = rng.uniform(lo, hi, size=(10_000, 2))
        z = xs @ net.layers[0].weights.T + net.layers[0].bias
        keep = z[:, j] >= 0.0 if sign > 0 else z[:, j] < 0.0
        xs = xs[keep]
        margins = model.forward_batch(net, xs) @ np.array([1.0])
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
        params = relax.RelaxationParams({0: np.array([a])})
        lb = relax.compute_bounds(net, c_row, domain, params).lower_bound
        if lb > best_lb:
            best_lb, best_alpha = lb, a
    return best_lb, best_alpha


def test_optimize_alpha_relu_identity():
    # m(x) = ReLU(x) on [-1, 1]: the sweep oracle puts the optimum at alpha 0
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    sweep_lb, sweep_alpha = _sweep_alpha(net, np.array([1.0]), d)
    assert sweep_alpha == 0.0 and sweep_lb == 0.0
    params, _ = relax.optimize_alpha(net, np.array([1.0]), d, iters=30, step=0.25)
    lb = relax.compute_bounds(net, np.array([1.0]), d, params).lower_bound
    assert abs(lb - sweep_lb) < 1e-9
    assert abs(params.alpha[0][0] - 0.0) < 1e-9


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
            params = relax.RelaxationParams({0: np.array([a1, a2])})
            best = max(best, relax.compute_bounds(net, np.array([1.0]), d, params).lower_bound)
    assert best == 0.0
    params, _ = relax.optimize_alpha(net, np.array([1.0]), d, iters=40, step=0.25)
    lb = relax.compute_bounds(net, np.array([1.0]), d, params).lower_bound
    assert abs(lb - best) < 1e-9


def test_optimize_alpha_zero_iters_returns_adaptive_init():
    net = scalar_relu_net()
    d = make_domain(net, [-1.0], [1.0])
    params, _ = relax.optimize_alpha(net, np.array([1.0]), d, iters=0, step=0.25)
    init = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
    assert np.array_equal(params.alpha[0], init.alpha[0])


def test_optimize_alpha_never_worse_than_init():
    rng = np.random.default_rng(24)
    for trial in range(10):
        net = random_net(rng, 3, [5, 4], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, 3)
        hi = lo + rng.uniform(0.5, 1.0, 3)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=2)
        init = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
        lb0 = relax.compute_bounds(net, c, d, init).lower_bound
        params, _ = relax.optimize_alpha(net, c, d, iters=20, step=0.25)
        lb1 = relax.compute_bounds(net, c, d, params).lower_bound
        assert lb1 >= lb0


def test_triangle_validity_on_grid():
    rng = np.random.default_rng(25)
    for _ in range(100):
        l = -rng.uniform(0.01, 10.0)
        u = rng.uniform(0.01, 10.0)
        a = rng.uniform(0.0, 1.0)
        nb = relax.NeuronBounds([np.array([l])], [np.array([u])])
        rel = nb.relaxation(0)
        lower = relax._lower_slope(rel, np.array([a]))[0]
        slope, icpt = rel[2][0], rel[3][0]
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
        assert not d.neuron_bounds.unstable_mask(0).any()  # layer 0 is the only hidden layer
        c = np.array([1.0])
        res = relax.compute_bounds(net, c, d)
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
        c = rng.normal(size=2)
        params = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
        for k in params.alpha:
            params.alpha[k] = rng.uniform(0.2, 0.8, size=params.alpha[k].shape)
        grads = relax.alpha_gradient(net, c, d, params)
        h = 1e-5
        for k in sorted(grads):
            for j in np.flatnonzero(d.neuron_bounds.unstable_mask(k)):
                p_hi = params.copy()
                p_hi.alpha[k][j] += h
                p_lo = params.copy()
                p_lo.alpha[k][j] -= h
                fd = (relax.compute_bounds(net, c, d, p_hi).lower_bound
                      - relax.compute_bounds(net, c, d, p_lo).lower_bound) / (2 * h)
                rel = abs(grads[k][j] - fd) / max(abs(grads[k][j]), abs(fd), 1e-8)
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
    from reluverify import witness

    rng = np.random.default_rng(30)
    for trial in range(20):
        n0 = int(rng.integers(1, 13))
        net = random_net(rng, n0, [6, 5], 2, scale=2.0)
        lo = rng.uniform(-1.0, 0.0, n0)
        hi = lo + rng.uniform(0.1, 1.0, n0)
        d = make_domain(net, lo, hi)
        c = rng.normal(size=2)
        res = relax.compute_bounds(net, c, d)
        wit = witness.validate_witness(net, c[None, :], res)
        assert wit.abstract_margin == res.lower_bound


def test_propagate_bounds_from_later_layer_needs_base():
    net = random_net(np.random.default_rng(31), 2, [4, 3], 1)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="base"):
        relax.propagate_bounds(net, lo, hi, start_layer=1)
    base = relax.propagate_bounds(net, lo, hi)
    again = relax.propagate_bounds(net, lo, hi, base=base, start_layer=1)
    assert again.lower[0].tolist() == base.lower[0].tolist()


def _stacked_cases(seed=31, count=4):
    """Seeded 8-input gen instances with 3-5 spec rows, as (net, C, domain)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_out = int(rng.integers(4, 7))
        net, lo, hi, C = generate_instance(rng, 8, [12, 10], n_out, 0.3, 1.5)
        yield net, C, make_domain(net, lo, hi)


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
        shared = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
        per_row = relax.RelaxationParams(
            {k: rng.uniform(0.0, 1.0, (len(C), v.size)) for k, v in shared.alpha.items()})
        for params in (None, shared, per_row):
            res = relax.compute_bounds(net, C, d, params)
            assert res.lower_bound.shape == (len(C),)
            for r in range(len(C)):
                row_params = None if params is None else params.row(r)
                single = relax.compute_bounds(net, C[r], d, row_params)
                _assert_same_bound(res.row(r), single)


def test_stacked_optimize_alpha_matches_per_row_reference_bitwise():
    stop_points = set()
    for net, C, d in _stacked_cases():
        for iters in (0, 20):
            params, _ = relax.optimize_alpha(net, C, d, iters, 0.25)
            res = relax.compute_bounds(net, C, d, params)
            for r in range(len(C)):
                ref, attempts = reference_optimize_alpha(net, C[r], d, iters, 0.25)
                stop_points.add(len(attempts))
                for k, v in ref.alpha.items():
                    assert np.array_equal(params.alpha[k][r], v), (iters, r, k)
                assert res.lower_bound[r] == relax.compute_bounds(net, C[r], d, ref).lower_bound
    # rows left the stack at different iterations (after 1, 9, 10, 11 and 17 here)
    assert len(stop_points - {0, 20}) >= 3


def test_optimize_alpha_bound_passes_are_one_plus_line_search_rounds(monkeypatch):
    compute, gradient = relax.compute_bounds, relax.alpha_gradient
    for net, C, d in _stacked_cases():
        logs = [reference_optimize_alpha(net, C[r], d, 20, 0.25)[1] for r in range(len(C))]
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
        relax.optimize_alpha(net, C, d, 20, 0.25)
        monkeypatch.undo()
        assert calls == {"bounds": 1 + rounds, "gradients": iterations, "bounds_in_gradient": 0}


def test_optimize_alpha_stops_at_the_deadline():
    net, C, d = next(_stacked_cases())
    adaptive = relax.RelaxationParams.adaptive(net, d.neuron_bounds)
    params, _ = relax.optimize_alpha(net, C, d, 20, 0.25, deadline=0.0)
    for k, v in adaptive.alpha.items():
        assert np.array_equal(params.alpha[k], np.repeat(v[None, :], len(C), axis=0))


def _assert_same_stacked_bound(a, b):
    assert a.neuron_bounds is b.neuron_bounds
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
    for net, C, d in _stacked_cases():
        for iters, deadline in ((20, None), (0, None), (20, 3.5)):
            ticks = itertools.count(1)
            gradients = []
            monkeypatch.setattr(relax, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
            monkeypatch.setattr(relax, "alpha_gradient",
                                lambda *a, **k: gradients.append(1) or gradient(*a, **k))
            params, bound = relax.optimize_alpha(net, C, d, iters, 0.25, deadline)
            monkeypatch.undo()
            if deadline is not None:
                assert len(gradients) == 3
            _assert_same_stacked_bound(bound, relax.compute_bounds(net, C, d, params))
        params, bound = relax.optimize_alpha(net, C[0], d, 20, 0.25)
        _assert_same_bound(bound, relax.compute_bounds(net, C[0], d, params))


def test_optimize_alpha_without_relu_layers_returns_no_bound():
    net = model.make_network([(np.ones((1, 2)), np.zeros(1), model.LINEAR)])
    d = make_domain(net, [-1.0, -1.0], [1.0, 1.0])
    params, bound = relax.optimize_alpha(net, np.array([[1.0]]), d, 20, 0.25)
    assert params.alpha == {} and bound is None
    infeasible = make_domain(scalar_relu_net(), [0.5], [1.0], splits={(0, 0): -1})
    with pytest.raises(ValueError, match="infeasible"):
        relax.optimize_alpha(scalar_relu_net(), np.array([[1.0]]), infeasible, 20, 0.25)


def test_is_feasible_reads_hand_built_bounds_once():
    crossed = relax.NeuronBounds([np.array([0.0, 2.0])], [np.array([1.0, 1.0])])
    assert not crossed.is_feasible() and crossed._feasible is False
    fine = relax.NeuronBounds([np.array([0.0, 1.0])], [np.array([1.0, 1.0])])
    assert fine.is_feasible() and fine._feasible is True


def test_propagated_feasibility_sees_a_nan_left_by_overflow():
    # 1e300 weights overflow to inf, and 0 * inf in the interval pass leaves a
    # NaN that no crossing check sees; the recorded feasibility must still be
    # what the layer scan reads.
    net = model.make_network([
        (np.array([[1e300]]), np.zeros(1), model.RELU),
        (np.array([[1e300]]), np.zeros(1), model.RELU),
        (np.array([[1.0]]), np.zeros(1), model.RELU),
        (np.array([[1.0]]), np.zeros(1), model.LINEAR),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        nb = relax.propagate_bounds(net, np.array([-1.0]), np.array([1.0]))
    assert np.isnan(nb.lower[2]).any()
    assert nb._feasible is False
    assert not relax.NeuronBounds(nb.lower, nb.upper).is_feasible()


def test_derived_slopes_are_not_validated_again(monkeypatch):
    # Only slopes from outside are range-checked; rows, copies, the adaptive
    # rule and the optimizer's clipped steps are valid by construction.
    net, C, d = next(_stacked_cases())
    checks = []
    post_init = relax.RelaxationParams.__post_init__
    monkeypatch.setattr(relax.RelaxationParams, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    params, _ = relax.optimize_alpha(net, C, d, 20, 0.25)
    params.row(1).copy()
    relax.RelaxationParams.adaptive(net, d.neuron_bounds)
    assert checks == []
    relax.RelaxationParams({0: np.array([0.5])})
    assert checks == [1]

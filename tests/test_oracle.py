import numpy as np
import pytest
from scipy.optimize import linprog

from reluverify import bab, model, oracle, relax

from helpers import make_domain, oracle_sized_task, random_net, scalar_relu_net, scalar_task


def test_exact_min_toy_unsafe():
    task = scalar_task(scalar_relu_net(out_bias=-0.5))  # m(x) = ReLU(x) - 0.5
    mv, argmin = oracle.exact_min_margin(task)
    assert abs(mv + 0.5) < 1e-9
    assert argmin[0] <= 1e-9  # any x <= 0 attains the minimum


def test_exact_min_purely_linear_net():
    net = model.make_network([(np.array([[2.0, -3.0]]), np.array([0.25]), model.LINEAR)])
    task = model.VerificationTask(net, np.array([-1.0, -1.0]), np.array([1.0, 2.0]),
                                  np.array([[1.0]]))
    mv, argmin = oracle.exact_min_margin(task)
    w = np.array([2.0, -3.0])
    expected = float(np.minimum(w * task.input_lower, w * task.input_upper).sum()) + 0.25
    assert abs(mv - expected) < 1e-9
    assert np.allclose(argmin, [-1.0, 2.0])


def test_budget_guard_refuses_large_inputs():
    net = model.make_network([(np.eye(7), np.zeros(7), model.LINEAR)])
    task = model.VerificationTask(net, -np.ones(7), np.ones(7), np.eye(7))
    with pytest.raises(oracle.OracleBudgetError):
        oracle.exact_min_margin(task)


def test_budget_guard_refuses_many_unstable():
    rng = np.random.default_rng(61)
    net = random_net(rng, 2, [20], 1, scale=2.0)
    task = model.VerificationTask(net, -np.ones(2), np.ones(2), np.array([[1.0]]))
    with pytest.raises(oracle.OracleBudgetError):
        oracle.exact_min_margin(task)


def test_grid_attack_finds_violation_on_unsafe_toy():
    task = scalar_task(scalar_relu_net(out_bias=-0.5))
    hit = oracle.grid_attack(task, 100, seed=0)
    assert hit is not None
    x, m = hit
    assert m <= 0
    assert model.margin(task.network, task.spec_matrix, x).min() <= 0


def test_grid_attack_none_on_safe_toy():
    task = scalar_task(scalar_relu_net(out_bias=0.1))
    assert oracle.grid_attack(task, 100, seed=0) is None


def test_exact_min_is_lower_bound_of_scan():
    rng = np.random.default_rng(62)
    for _ in range(10):
        task = oracle_sized_task(rng, margin_gap=0.0)
        mv, _ = oracle.exact_min_margin(task)
        _, scanned = oracle.scan_margin(task, 2000, seed=1)
        assert mv <= scanned + 1e-9


def test_attack_never_contradicts_exact_sign():
    rng = np.random.default_rng(63)
    for _ in range(10):
        task = oracle_sized_task(rng, margin_gap=0.0)
        mv, _ = oracle.exact_min_margin(task)
        hit = oracle.grid_attack(task, 2000, seed=2)
        if hit is not None:
            assert mv <= 0


def test_exact_matches_relax_bound_on_fully_stable_net():
    rng = np.random.default_rng(64)
    net = random_net(rng, 2, [4], 1, scale=1.0)
    net = model.make_network([
        (net.layers[0].weights, net.layers[0].bias + 10.0, model.RELU),
        (net.layers[1].weights, net.layers[1].bias, model.LINEAR),
    ])
    task = model.VerificationTask(net, np.array([-0.5, -0.5]), np.array([0.5, 0.5]),
                                  np.array([[1.0]]))
    d = make_domain(net, task.input_lower, task.input_upper)
    assert not d.neuron_bounds.unstable_mask(0).any()  # layer 0 is the only hidden layer
    res = relax.compute_bounds(net, np.array([1.0]), d)
    mv, _ = oracle.exact_min_margin(task)
    assert abs(res.lower_bound - mv) < 1e-9


def test_feasibility_filter_does_not_change_minimum():
    rng = np.random.default_rng(65)
    for _ in range(5):
        task = oracle_sized_task(rng, margin_gap=0.0)
        with_filter, _ = oracle.exact_min_margin(task, feasibility_filter=True)
        without, _ = oracle.exact_min_margin(task, feasibility_filter=False)
        assert abs(with_filter - without) < 1e-9


def test_argmin_margin_matches_min_value():
    rng = np.random.default_rng(66)
    for _ in range(10):
        task = oracle_sized_task(rng, margin_gap=0.0)
        mv, argmin = oracle.exact_min_margin(task)
        m = model.margin(task.network, task.spec_matrix, argmin).min()
        assert abs(m - mv) < 1e-7
        assert np.all(argmin >= task.input_lower - 1e-9)
        assert np.all(argmin <= task.input_upper + 1e-9)


def test_pattern_regions_are_affine_pieces():
    # inside a region (its constraints satisfied), the affine view equals the
    # concrete margin
    rng = np.random.default_rng(68)
    task = oracle_sized_task(rng, margin_gap=0.0)
    lo, hi = task.input_lower, task.input_upper
    regions = list(oracle.enumerate_regions(task))
    assert regions
    xs = rng.uniform(lo, hi, size=(500, task.network.input_dim))
    covered = 0
    for x in xs:
        for region in regions:
            if region.constraint_rows.size and np.any(
                region.constraint_rows @ x > region.constraint_rhs + 1e-9
            ):
                continue
            affine = region.margin_w @ x + region.margin_b
            concrete = model.margin(task.network, task.spec_matrix, x)
            assert np.allclose(affine, concrete, rtol=0, atol=1e-8)
            covered += 1
            break
    assert covered == len(xs)  # the closed regions cover the box


def test_scan_margin_rejects_zero_samples():
    task = scalar_task(scalar_relu_net())
    with pytest.raises(ValueError):
        oracle.scan_margin(task, 0)


# --- simplex ------------------------------------------------------------


def test_simplex_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(67)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 8))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n)) if m else None
        b = rng.normal(size=m) if m else None
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0, 2, n)
        status, x, val = oracle.lp_minimize(c, A, b, lo, hi)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)), method="highs")
        if ref.status == 0:
            assert status == oracle.OPTIMAL, f"trial {trial}"
            assert abs(val - ref.fun) < 1e-7 * max(1.0, abs(ref.fun))
            if A is not None:
                assert np.all(A @ x - b <= 1e-7)
            assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        elif ref.status == 2:
            assert status == oracle.INFEASIBLE, f"trial {trial}"


def test_simplex_handles_degenerate_box():
    c = np.array([1.0, -1.0])
    status, x, val = oracle.lp_minimize(c, None, None, np.array([0.5, 1.0]), np.array([0.5, 1.0]))
    assert status == oracle.OPTIMAL
    assert np.allclose(x, [0.5, 1.0])
    assert abs(val - (0.5 - 1.0)) < 1e-12


def test_simplex_detects_infeasible():
    # x0 <= -1 contradicts x0 >= 0
    status, _, _ = oracle.lp_minimize(
        np.array([1.0]), np.array([[1.0]]), np.array([-1.0]), np.array([0.0]), np.array([2.0])
    )
    assert status == oracle.INFEASIBLE

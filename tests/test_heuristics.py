import numpy as np
import pytest

from reluverify import bab, cli, heuristics, model, relax

from helpers import (adaptive_slopes, bounds_of, hand_bounds, identity_relu_net, make_domain,
                     random_net, scores_of, select_of, unstable)

# The two-neuron scenario used throughout: n_A spans [-2, 18] (width 20),
# n_B spans [-4, 4] (width 8), both with sensitivity magnitude 1 on the
# upper-line side, witness pre-activations z*_A = 8, z*_B = 0.
CASE_L = np.array([-2.0, -4.0])
CASE_U = np.array([18.0, 4.0])
CASE_Z = np.array([8.0, 0.0])


def _scores(kind, A, l, u, z, alpha=None, out_weights=None):
    """Score one layer of neurons with bounds [l, u], backward coefficients A,
    and witness pre-activations z. The network is an identity ReLU layer, so
    the witness x* = z; its output weights set the concrete gradients. The box
    is the single point z, so the center is z as well.

    Returns (layer-0 scores, gap clamp events).
    """
    z = np.asarray(z, dtype=float)
    net = identity_relu_net(z.size, out_weights)
    nb = hand_bounds([l], [u])
    bound = relax.BoundResult(np.ones(z.size), 0.0, -1.0, {0: np.asarray(A, dtype=float)}, z)
    domain = bab.SubDomain(z, z, nb)
    slopes = None if alpha is None else {0: np.asarray(alpha, float)}
    scores, clamps = scores_of(kind, net, np.array([1.0]), bound, domain,
                               model.forward(net, z)[1], slopes)
    assert sorted(scores) == [0]
    return scores[0], clamps


def _upper_gap(l, u, z):
    """Reference: upper chord minus ReLU at z, clamped at zero, in scalars."""
    up = u / (u - l) * z - u * l / (u - l)
    return max(0.0, up - max(z, 0.0))


def test_directional_gap_wide_neuron():
    s, _ = _scores("drg", [-1.0], [-2.0], [18.0], [8.0])
    assert abs(s[0] - 1.0) < 1e-12


def test_directional_gap_narrow_neuron():
    s, _ = _scores("drg", [-1.0], [-4.0], [4.0], [0.0])
    assert abs(s[0] - 2.0) < 1e-12


def test_directional_gap_masks_nonnegative_coefficients():
    for z in (-3.0, 0.0, 2.0, 17.0):
        s, _ = _scores("drg", [1.0, 0.0], [-2.0, -2.0], [18.0, 18.0], [z, z])
        assert s.tolist() == [0.0, 0.0]


def test_directional_gap_rejects_stable():
    # stable neurons are never candidates, whatever their coefficient
    s, _ = _scores("drg", [-1.0, -1.0], [1.0, -2.0], [2.0, -0.5], [0.5, -1.0])
    assert s.tolist() == [-np.inf, -np.inf]
    assert select_of({0: s}) is None


def test_directional_gap_clamps_outside_interval():
    # z* below l: upper line goes negative there, gap clamps at zero
    s, clamps = _scores("drg", [-1.0], [-2.0], [18.0], [-10.0])
    assert s[0] == 0.0
    assert clamps == 1


def test_drg_score_prefers_narrow_neuron_with_larger_gap():
    s, _ = _scores("drg", [-1.0, -1.0], CASE_L, CASE_U, CASE_Z)
    assert abs(s[0] - 1.0) < 1e-12
    assert abs(s[1] - 2.0) < 1e-12
    assert select_of({0: s}) == (0, 1)


def test_drg_score_all_zero_when_coefficients_nonnegative():
    s, _ = _scores("drg", [1.0, 0.5], CASE_L, CASE_U, CASE_Z)
    assert s.tolist() == [0.0, 0.0]
    assert select_of({0: s}) is None


def test_drg_score_matches_independent_formula():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        l = -rng.uniform(0.1, 5.0, n)
        u = rng.uniform(0.1, 5.0, n)
        A = rng.normal(size=n)
        z = rng.uniform(l, u)
        s, _ = _scores("drg", A, l, u, z)
        for j in range(n):
            expected = abs(A[j]) * _upper_gap(l[j], u[j], z[j]) if A[j] < 0 else 0.0
            assert abs(s[j] - expected) < 1e-12


def test_symmetric_score_lower_side():
    # A = +1, alpha = 0.5, z* = -1, (l, u) = (-2, 2): |1| * (0 - (-0.5)) = 0.5
    s, _ = _scores("drg_symmetric", [1.0], [-2.0], [2.0], [-1.0], alpha=[0.5])
    assert abs(s[0] - 0.5) < 1e-12


def test_symmetric_agrees_with_drg_on_negative_coefficients():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        l = -rng.uniform(0.1, 5.0, n)
        u = rng.uniform(0.1, 5.0, n)
        A = -rng.uniform(0.1, 2.0, n)  # all negative
        z = rng.uniform(l - 1.0, u + 1.0)
        drg, drg_clamps = _scores("drg", A, l, u, z)
        sym, sym_clamps = _scores("drg_symmetric", A, l, u, z, alpha=rng.uniform(0, 1, n))
        assert drg.tolist() == sym.tolist()
        assert drg_clamps == sym_clamps


def test_symmetric_matches_independent_formula():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        l = -rng.uniform(0.1, 5.0, n)
        u = rng.uniform(0.1, 5.0, n)
        A = rng.normal(size=n)
        alpha = rng.uniform(0, 1, n)
        z = rng.uniform(l, u)
        s, _ = _scores("drg_symmetric", A, l, u, z, alpha=alpha)
        for j in range(n):
            if A[j] < 0:
                gap = _upper_gap(l[j], u[j], z[j])
            else:
                gap = max(z[j], 0.0) - alpha[j] * z[j]
            assert abs(s[j] - abs(A[j]) * gap) < 1e-12


def test_intercept_score_value():
    s, _ = _scores("intercept", [-1.0, 1.0], CASE_L, CASE_U, CASE_Z)
    assert abs(s[0] - 1.8) < 1e-12
    assert s[1] == 0.0


def test_width_score_reproduces_the_trap():
    widths, _ = _scores("width", [-1.0, -1.0], CASE_L, CASE_U, CASE_Z)
    assert widths.tolist() == [20.0, 8.0]
    # width prefers the wide neuron, the gap heuristic the narrow one
    assert select_of({0: widths}) == (0, 0)
    drg, _ = _scores("drg", [-1.0, -1.0], CASE_L, CASE_U, CASE_Z)
    assert select_of({0: drg}) == (0, 1)


def test_babsr_score_matches_independent_formula():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        l = -rng.uniform(0.1, 5.0, n)
        u = rng.uniform(0.1, 5.0, n)
        A = rng.normal(size=n)
        s, clamps = _scores("babsr", A, l, u, np.zeros(n))
        assert clamps == 0
        for j in range(n):
            assert abs(s[j] - abs(A[j] * u[j] * l[j] / (u[j] - l[j]))) < 1e-12


def test_grad_score_uses_concrete_gradient_sign():
    # output weights (2, -3) make the concrete gradients (2, -3) at z* = (8, 1):
    # the positive partial masks the first neuron whatever A says
    z = np.array([8.0, 1.0])
    s, _ = _scores("grad", [-1.0, -1.0], CASE_L, CASE_U, z, out_weights=[2.0, -3.0])
    assert s[0] == 0.0
    assert abs(s[1] - 3.0 * _upper_gap(-4.0, 4.0, 1.0)) < 1e-12


def test_center_scores_at_the_box_center():
    net = identity_relu_net(2)
    nb = hand_bounds([CASE_L], [CASE_U])
    far_corner = np.array([10.0, 2.0])
    bound = relax.BoundResult(np.ones(2), 0.0, -1.0, {0: np.array([-1.0, -1.0])}, far_corner)
    domain = bab.SubDomain(np.array([6.0, -2.0]), np.array([10.0, 2.0]), nb)
    s, _ = scores_of("center", net, np.array([1.0]), bound, domain,
                     model.forward(net, far_corner)[1], None)
    drg_at_center, _ = _scores("drg", [-1.0, -1.0], CASE_L, CASE_U, CASE_Z)
    assert s[0].tolist() == drg_at_center.tolist()


def test_select_branch_argmax_and_ties():
    assert select_of({1: np.array([1.0, 2.0])}) == (1, 1)
    out = -np.inf  # not splittable
    layer1 = np.array([out, out, 1.0, out, 1.0])
    layer2 = np.array([out, out, out, 1.0])
    assert select_of({1: layer1, 2: layer2}) == (1, 2)
    assert select_of({2: layer2, 1: layer1}) == (1, 2)


def test_select_branch_invariant_to_positive_rescaling():
    rng = np.random.default_rng(45)
    scores = {0: rng.uniform(0, 5, 10)}
    base = select_of(scores)
    for c in (0.5, 2.0, 17.0):
        assert select_of({0: c * scores[0]}) == base


def test_select_branch_empty_signals_none():
    assert select_of({}) is None
    assert select_of({0: np.array([-np.inf, -np.inf])}) is None


def test_select_branch_ignores_scores_within_tolerance():
    tol = heuristics.ZERO_SCORE_TOL
    assert select_of({0: np.array([tol, 0.0]), 1: np.array([-np.inf])}) is None
    assert select_of({0: np.array([tol, 0.0]), 1: np.array([2 * tol])}) == (1, 0)


def test_select_branch_picks_each_domain_of_a_stack_by_its_own_scores():
    tol, out = heuristics.ZERO_SCORE_TOL, -np.inf
    layer0 = np.array([[1.0, 3.0, 3.0],  # a tie within a layer: the lower neuron
                       [2.0, 1.0, out],  # a tie across layers: the lower layer
                       [tol, 0.0, out],  # nothing above the tolerance: no pick
                       [np.nan, 5.0, 1.0]])  # a NaN in layer 0: layer 1's pick stands
    layer1 = np.array([[0.5, 1.0], [0.0, 2.0], [tol, out], [0.5, 2.0]])
    picks = heuristics.select_branch({1: layer1, 0: layer0})
    assert picks == {0: (0, 1), 1: (0, 0), 3: (1, 1)}
    for i in range(4):
        assert select_of({0: layer0[i], 1: layer1[i]}) == picks.get(i)


def test_unknown_kind_is_an_input_error():
    with pytest.raises(model.InputError, match="valid kinds: drg"):
        heuristics.check_kind("nonsense")
    for kind in heuristics.KINDS:
        heuristics.check_kind(kind)


def test_gap_clamp_counting():
    # witness pre-activation above u on a negative-coefficient neuron: the raw
    # upper-line gap is negative there, so the clamp fires and is counted
    s, clamps = _scores("drg", [-1.0, -1.0], [-2.0, -2.0], [2.0, 2.0], [5.0, 0.0])
    assert clamps == 1
    assert s[0] == 0.0  # clamped
    assert s[1] > 0.0


def test_scores_skip_stable_and_split_neurons():
    net = random_net(np.random.default_rng(46), 2, [4], 1)
    d = make_domain(net, [-1.0, -1.0], [1.0, 1.0])
    splittable = unstable(d.neuron_bounds, 0)
    assert splittable.size >= 2
    j = int(splittable[0])
    d2 = make_domain(net, [-1.0, -1.0], [1.0, 1.0], splits={(0, j): +1})
    res = bounds_of(net, np.array([[1.0]]), d2, adaptive_slopes(net, d2))[0]
    scores, _ = scores_of("drg", net, np.array([1.0]), res, d2,
                          model.forward(net, np.zeros(2))[1], None)
    candidates = set(np.flatnonzero(np.isfinite(scores[0])).tolist())
    assert j not in candidates
    assert candidates == set(unstable(d2.neuron_bounds, 0).tolist())


def test_center_scores_a_box_whose_endpoints_sum_past_float64(tmp_path):
    # narrow-deep seed 7's case_003 moved onto a box near 1.2e308: the first
    # layer's weights / 1e306, the inputs x * 1e306 + 1.2e308, and the bias
    # takes the shift back. lo + hi overflows there; the box center must not.
    assert cli.main(["gen", "--seed", "7", "--layers", "2", "--widths", "16", "--count", "12",
                     "--eps", "0.25", "--inputs", "4", "--outputs", "3", "--out", str(tmp_path)]) == 0
    task = model.load_task(str(tmp_path / "case_003.model.json"), str(tmp_path / "case_003.spec.json"))
    first, shift = task.network.layers[0], 1.2e308
    weights = first.weights / 1e306
    net = model.make_network(
        [(weights, first.bias - weights @ np.full(first.in_dim, shift), model.RELU)]
        + [(layer.weights, layer.bias, layer.activation) for layer in task.network.layers[1:]])
    moved = model.VerificationTask(net, task.input_lower * 1e306 + shift,
                                   task.input_upper * 1e306 + shift, task.spec_matrix)
    with np.errstate(over="ignore"):
        assert np.isinf(moved.input_lower + moved.input_upper).any()
    for kind in ("drg", "center"):
        stats = bab.verify(moved, kind, bab.BabConfig(max_branches=200))
        assert (stats.verdict, stats.unknown_reason) == (bab.UNKNOWN, "branch budget exhausted")

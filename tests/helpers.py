"""Shared builders for the test suite."""

import itertools

import numpy as np

from reluverify import bab, heuristics, model, relax, witness
from reluverify.cli import generate_instance


def scalar_relu_net(out_weight=1.0, out_bias=0.0):
    """m(x) = out_weight * ReLU(x) + out_bias."""
    return model.make_network([
        (np.array([[1.0]]), np.array([0.0]), model.RELU),
        (np.array([[out_weight]]), np.array([out_bias]), model.LINEAR),
    ])


def identity_relu_net(n, out_weights=None):
    """m(x) = out_weights @ ReLU(x): layer 0's pre-activations equal the input."""
    w = np.ones(n) if out_weights is None else np.asarray(out_weights, dtype=float)
    return model.make_network([
        (np.eye(n), np.zeros(n), model.RELU),
        (w[None, :], np.array([0.0]), model.LINEAR),
    ])


def scalar_task(net, lo=-1.0, hi=1.0, C=None):
    C = np.array([[1.0]]) if C is None else np.asarray(C)
    return model.VerificationTask(net, np.atleast_1d(lo).astype(float),
                                  np.atleast_1d(hi).astype(float), C)


def propagate_of(net, lo, hi, base=None, start_layer=0):
    """relax.propagate_bounds over one box (and base), as a stack of one:
    the region's intervals and feasibility, as the search hands them on."""
    stacked_base = None if base is None else relax.NeuronBounds.stack([base])
    return relax.propagate_bounds(net, np.asarray(lo)[None], np.asarray(hi)[None],
                                  stacked_base, start_layer).neuron_bounds.intervals(0)


def stack_of(*domains):
    """Bounded sub-domains as one relax.Domains stack, in order, with every
    layer's relaxation built by relax.relaxation in the (D, 1, n_k) layout,
    as relax.propagate_bounds builds a stack's."""
    nb = relax.NeuronBounds.stack([d.neuron_bounds for d in domains])
    return relax.Domains(np.array([d.box_lower for d in domains]),
                         np.array([d.box_upper for d in domains]), nb,
                         {k: relax.relaxation(l[:, None, :], u[:, None, :])
                          for k, (l, u) in enumerate(zip(nb.lower, nb.upper))})


def unstable(nb, k):
    """The neurons of layer k whose interval in nb straddles zero: the
    unstable mask relax.relaxation takes, read from the intervals alone."""
    return np.flatnonzero((nb.lower[k] < 0.0) & (nb.upper[k] > 0.0))


def bounds_of(net, C, domain, slopes):
    """relax.compute_bounds over one sub-domain: the stack of its spec rows."""
    return relax.compute_bounds(net, C, stack_of(domain), slopes)[0]


def gradient_of(net, C, domain, slopes):
    """relax.alpha_gradient of the spec rows C over one sub-domain at slopes."""
    stack = stack_of(domain)
    grads = relax.alpha_gradient(net, stack, slopes, relax.compute_bounds(net, C, stack, slopes))
    return {k: g[0] for k, g in grads.items()}


def optimize_of(net, C, domain, iters, step, deadline=None):
    """relax.optimize_alpha over one sub-domain: (m, n_k) slopes and its stack of rows."""
    slopes, bound = relax.optimize_alpha(net, C, stack_of(domain), iters, step, deadline)
    return {k: v[0] for k, v in slopes.items()}, bound[0]


def row_stack(bound):
    """One spec row's relax.BoundResult as a stack of one domain."""
    w, b, lower_bound, x_star = (np.asarray(f)[None] for f in
                                 (bound.w, bound.b, bound.lower_bound, bound.x_star))
    return relax.BoundResult(w, b, lower_bound, {k: v[None] for k, v in bound.A.items()}, x_star)


def witness_of(net, C, bound):
    """witness.validate_witness of one spec row's bound, as a stack of one."""
    wit, _ = witness.validate_witness(net, C, row_stack(bound))
    return wit[0]


def scores_of(kind, net, c_row, bound, domain, preacts, slopes):
    """heuristics.score_branches for one sub-domain and one row's bound, as a
    stack of one: (layer -> (n_k,) scores, gap clamp events)."""
    slopes = None if slopes is None else {k: np.asarray(v)[None] for k, v in slopes.items()}
    scores, clamps = heuristics.score_branches(kind, net, np.asarray(c_row)[None], row_stack(bound),
                                               stack_of(domain), [z[None] for z in preacts], slopes)
    return {k: s[0] for k, s in scores.items()}, int(clamps[0])


def select_of(scores):
    """heuristics.select_branch for one domain's scores, as a stack of one."""
    return heuristics.select_branch({k: np.asarray(s)[None] for k, s in scores.items()}).get(0)


def make_domain(net, lo, hi, splits=None):
    """A SubDomain over the given box with propagated bounds; splits maps
    (layer, neuron) to a sign, each clamped in turn through SubDomain.child."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = bab.SubDomain(lo, hi, propagate_of(net, lo, hi))
    for (layer, neuron), sign in (splits or {}).items():
        d = bab.SubDomain.child(net, d, lo, hi, (layer, neuron, sign))
    if d.net is not None:
        bab.bound_subdomains([d])  # a read would bound a copy and leave d deferred
    return d


def hand_bounds(lower, upper):
    """relax.NeuronBounds over hand-written intervals, one list entry per hidden
    layer: with the feasibility that relax.propagate_bounds would record for
    them, infeasible iff some l > u."""
    lower = [np.asarray(l, dtype=float) for l in lower]
    upper = [np.asarray(u, dtype=float) for u in upper]
    return bounds_from_layers(lower, upper, layer_scan(lower, upper))


def bounds_from_layers(lower, upper, feasible):
    """relax.NeuronBounds laid out from one interval array per hidden layer
    and side: the layers side by side in one (2, N) array, lower bounds in
    row 0."""
    offsets = tuple(itertools.accumulate(map(len, lower), initial=0))
    data = np.empty((2, offsets[-1]))
    for side, layers in zip(data, (lower, upper)):
        for k, values in enumerate(layers):
            side[offsets[k]:offsets[k + 1]] = values
    return relax.NeuronBounds(data, offsets, feasible)


def layout_nets():
    """(net, its hidden_offsets) for the flat interval layout's index
    arithmetic, each over 3 inputs with 2 outputs: no hidden layer (N = 0),
    one 1-wide layer, widths (3, 16, 1), and a 4-wide linear hidden layer
    between ReLU ones."""
    rng = np.random.default_rng(93)
    relu, linear = model.RELU, model.LINEAR
    nets = []
    for hidden, offsets in (([], (0,)), ([(1, relu)], (0, 1)),
                            ([(3, relu), (16, relu), (1, relu)], (0, 3, 19, 20)),
                            ([(3, relu), (4, linear), (5, relu)], (0, 3, 7, 12))):
        defs, prev = [], 3
        for width, activation in hidden + [(2, linear)]:
            defs.append((rng.normal(size=(width, prev)), rng.normal(size=width), activation))
            prev = width
        nets.append((model.make_network(defs), offsets))
    return nets


def layer_scan(lower, upper):
    """Feasibility read from the intervals alone: infeasible iff some l > u
    (a NaN crosses nothing)."""
    return not any(np.any(l > u) for l, u in zip(lower, upper))


def reference_propagate_bounds(net, lo, hi, splits, base=None, start_layer=0):
    """relax.propagate_bounds under the rule of a sub-domain that kept its
    splits as a (layer, neuron) -> sign dict: every split is clamped again at
    its layer on every pass, right after the layer is bounded, and a region
    found empty keeps the base's intervals past the crossed layer; without a
    base every crossing collapses. Reference for the clamp-only bounds of
    bab.SubDomain."""
    n_hidden = net.n_layers - 1
    work_lower, work_upper = [None] * n_hidden, [None] * n_hidden
    relaxations, alphas = {}, {}
    infeasible_at = None
    post_lo, post_hi = lo, hi
    for k in range(n_hidden):
        layer = net.layers[k]
        if base is not None and (k < start_layer or infeasible_at is not None):
            l, u = base.lower[k].copy(), base.upper[k].copy()
        else:
            eye = np.eye(layer.out_dim)
            stack = np.vstack([eye, -eye])
            steps = {j: (alpha, *relaxations[j][1:]) for j, alpha in alphas.items()}
            lam, off = relax._backward_from_layer(net, k, stack @ layer.weights,
                                                  stack @ layer.bias, steps)
            _, vals = relax.concretize(lam, off, lo, hi)
            Wp, Wn = np.maximum(layer.weights, 0.0), np.minimum(layer.weights, 0.0)
            l = np.maximum(vals[:layer.out_dim], Wp @ post_lo + Wn @ post_hi + layer.bias)
            u = np.minimum(-vals[layer.out_dim:], Wp @ post_hi + Wn @ post_lo + layer.bias)
            if base is not None:
                l, u = np.maximum(l, base.lower[k]), np.minimum(u, base.upper[k])
        for (sl, sj), sign in splits.items():
            if sl == k and sign > 0:
                l[sj] = max(l[sj], 0.0)
            elif sl == k:
                u[sj] = min(u[sj], 0.0)
        crossed = l > u
        if np.any(crossed):
            if base is not None and infeasible_at is None and np.any(
                    l - u > relax.INFEASIBILITY_TOL):
                infeasible_at = k
            else:
                mid = 0.5 * l + 0.5 * u
                l, u = np.where(crossed, mid, l), np.where(crossed, mid, u)
        work_lower[k], work_upper[k] = l, u
        if layer.activation == model.RELU:
            relaxations[k] = relax.relaxation(l, u)
            alphas[k] = np.where(u >= -l, 1.0, 0.0)
            post_lo, post_hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        else:
            post_lo, post_hi = l, u
    return bounds_from_layers(work_lower, work_upper, layer_scan(work_lower, work_upper))


def reference_relu_backward(lam, step):
    """relax._relu_backward written with np.where and a masked copyto: the
    lower line where lam >= 0, the upper one elsewhere (NaN included). The
    bit-mask kernel must return the same bits."""
    lower_slope, up_slope, up_icpt = step
    pos = lam >= 0.0
    icpt_terms = lam * up_icpt
    np.copyto(icpt_terms, 0.0, where=pos)
    slope = np.where(pos, lower_slope, up_slope)
    return slope * lam, icpt_terms.sum(axis=-1)


def near_limit_task(out_bias):
    """A valid one-neuron task whose root pre-activation (about 1.52e308) lies
    near the float64 limit: the exact margin is about 1.52e8 + out_bias, so
    out_bias = -1e8 is Safe and -1e9 Unsafe. The box is a single point."""
    net = model.make_network([
        (np.array([[-0.9319543455033154, 0.6225637668840749, 0.9580888220323263,
                    0.6996952200960282]]), np.array([1.413353993546865e+308]), model.RELU),
        (np.array([[1e-300]]), np.array([0.0]), model.RELU),
        (np.array([[1.0]]), np.array([out_bias]), model.LINEAR),
    ])
    x = np.array([1.1401291778552035e+306, -8.662284254351965e+306, 2.474344557366494e+307,
                  -9.54813526679418e+306])
    return model.VerificationTask(net, x, x.copy(), np.array([[1.0]]))


def random_net(rng, n_inputs, widths, n_outputs, scale=1.5):
    defs = []
    prev = n_inputs
    for w in widths:
        defs.append((rng.normal(0, scale / np.sqrt(prev), (w, prev)),
                     rng.normal(0, 0.2, w), model.RELU))
        prev = w
    defs.append((rng.normal(0, scale / np.sqrt(prev), (n_outputs, prev)),
                 rng.normal(0, 0.2, n_outputs), model.LINEAR))
    return model.make_network(defs)


def random_task(rng, n_inputs=3, widths=(5, 4), n_outputs=2, eps=0.5, scale=2.0):
    net, lo, hi, C = generate_instance(rng, n_inputs, list(widths), n_outputs, eps, scale)
    return model.VerificationTask(net, lo, hi, C)


def oracle_sized_task(rng, margin_gap=1e-3):
    """A random task within the exact oracle's enumeration budget.

    Instances whose true minimum margin lies within margin_gap of zero are
    rejected: their verdict is a knife-edge coin flip that no finite-budget
    relaxation-based search can settle, so they make meaningless test cases.
    The well-posedness call is made by the independent oracle, never by the
    verifier under test.
    """
    from reluverify import oracle

    while True:
        n0 = int(rng.integers(2, 4))
        widths = [int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 3)))]
        task = random_task(rng, n0, widths, 2, eps=float(rng.uniform(0.1, 0.5)))
        lows, ups = oracle._interval_bounds(task.network, task.input_lower, task.input_upper)
        n_unstable = 0
        for k, layer in enumerate(task.network.layers[:-1]):
            if layer.activation == model.RELU:
                n_unstable += int(np.count_nonzero((lows[k] < 0.0) & (ups[k] > 0.0)))
        if n_unstable > oracle.MAX_ORACLE_UNSTABLE:
            continue
        if margin_gap > 0.0:
            min_value, _ = oracle.exact_min_margin(task)
            if abs(min_value) < margin_gap:
                continue
        return task


def naive_forward(net, x):
    """Pure-Python re-implementation of the forward pass (independent oracle)."""
    h = [float(v) for v in x]
    for layer in net.layers:
        W = layer.weights.tolist()
        b = layer.bias.tolist()
        z = []
        for i in range(len(W)):
            acc = b[i]
            for j in range(len(h)):
                acc += W[i][j] * h[j]
            z.append(acc)
        if layer.activation == model.RELU:
            h = [v if v > 0.0 else 0.0 for v in z]
        else:
            h = z
    return h


def adaptive_slopes(net, domain):
    """The adaptive slopes, computed afresh: 1 where u >= |l|, else 0, per ReLU layer."""
    nb = domain.neuron_bounds
    return {k: np.where(nb.upper[k] >= -nb.lower[k], 1.0, 0.0)
            for k in range(len(nb.lower)) if net.layers[k].activation == model.RELU}


def reference_optimize_alpha(net, c_row, domain, iters, step):
    """Slope optimization for one spec row, one bound pass per call: the
    per-row loop that the stacked relax.optimize_alpha must reproduce.

    Returns (slopes, attempts): attempts holds, per gradient evaluation, the
    number of line-search bound passes it led to (0 for an all-zero gradient).
    """
    c, cur = c_row[None], adaptive_slopes(net, domain)
    attempts = []
    if not domain.neuron_bounds.is_feasible() or not cur:
        return cur, attempts
    best_lb = bounds_of(net, c, domain, cur).lower_bound[0]
    for _ in range(iters):
        grads = gradient_of(net, c, domain, cur)
        if all(np.all(g == 0.0) for g in grads.values()):
            attempts.append(0)
            break
        trial = step
        improved = False
        for n_tries in range(1, 9):
            cand = {k: np.clip(v + trial * grads[k][0], 0.0, 1.0) for k, v in cur.items()}
            lb = bounds_of(net, c, domain, cand).lower_bound[0]
            if lb > best_lb:
                best_lb = lb
                cur = cand
                improved = True
                break
            trial *= 0.5
        attempts.append(n_tries)
        if not improved:
            break
    return cur, attempts

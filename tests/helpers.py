"""Shared builders for the test suite."""

import numpy as np

from reluverify import bab, model, relax
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


def scalar_task(net, lo=-1.0, hi=1.0, C=None, **kw):
    C = np.array([[1.0]]) if C is None else np.asarray(C)
    return model.VerificationTask(net, np.atleast_1d(lo).astype(float),
                                  np.atleast_1d(hi).astype(float), C, **kw)


def make_domain(net, lo, hi, splits=None):
    """A SubDomain over the given box with propagated bounds; splits maps
    (layer, neuron) to a sign, each clamped in turn through SubDomain.child."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = bab.SubDomain(lo, hi, relax.propagate_bounds(net, lo, hi))
    for (layer, neuron), sign in (splits or {}).items():
        d = bab.SubDomain.child(net, d, lo, hi, layer + 1, (layer, neuron, sign))
    d.neuron_bounds  # bound now, not on first read
    return d


def reference_propagate_bounds(net, lo, hi, splits, base=None, start_layer=0):
    """relax.propagate_bounds under the rule of a sub-domain that kept its
    splits as a (layer, neuron) -> sign dict: every split is clamped again at
    its layer on every pass, right after the layer is bounded, and a region
    found empty keeps the base's intervals (zeros without one) past the
    crossed layer. Reference for the clamp-only bounds of bab.SubDomain."""
    n_hidden = net.n_layers - 1
    work = relax.NeuronBounds([None] * n_hidden, [None] * n_hidden)
    infeasible_at = None
    post_lo, post_hi = lo, hi
    for k in range(n_hidden):
        layer = net.layers[k]
        if base is not None and (k < start_layer or infeasible_at is not None):
            l, u = base.lower[k].copy(), base.upper[k].copy()
        elif infeasible_at is not None:
            l, u = np.zeros(layer.out_dim), np.zeros(layer.out_dim)
        else:
            eye = np.eye(layer.out_dim)
            stack = np.vstack([eye, -eye])
            lam, off, _ = relax._backward_from_layer(net, k, stack @ layer.weights,
                                                     stack @ layer.bias, work, None)
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
            if infeasible_at is None and np.any(l - u > relax.INFEASIBILITY_TOL):
                infeasible_at = k
            else:
                mid = 0.5 * (l + u)
                l, u = np.where(crossed, mid, l), np.where(crossed, mid, u)
        work.lower[k], work.upper[k] = l, u
        if layer.activation == model.RELU:
            post_lo, post_hi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        else:
            post_lo, post_hi = l, u
    return relax.NeuronBounds(work.lower, work.upper)


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


def random_task(rng, n_inputs=3, widths=(5, 4), n_outputs=2, eps=0.5, scale=2.0, **kw):
    net, lo, hi, C = generate_instance(rng, n_inputs, list(widths), n_outputs, eps, scale)
    return model.VerificationTask(net, lo, hi, C, **kw)


def oracle_sized_task(rng, margin_gap=1e-3, **kw):
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
        task = random_task(rng, n0, widths, 2, eps=float(rng.uniform(0.1, 0.5)), **kw)
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
    cur = adaptive_slopes(net, domain)
    attempts = []
    if not domain.neuron_bounds.is_feasible() or not cur:
        return cur, attempts
    best_lb = relax.compute_bounds(net, c_row, domain, cur).lower_bound
    for _ in range(iters):
        grads = relax.alpha_gradient(net, domain, cur,
                                     relax.compute_bounds(net, c_row, domain, cur))
        if all(np.all(g == 0.0) for g in grads.values()):
            attempts.append(0)
            break
        trial = step
        improved = False
        for n_tries in range(1, 9):
            cand = {k: np.clip(v + trial * grads[k], 0.0, 1.0) for k, v in cur.items()}
            lb = relax.compute_bounds(net, c_row, domain, cand).lower_bound
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

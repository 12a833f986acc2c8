import itertools

import numpy as np

from reluverify import model, relax, witness

from helpers import adaptive_slopes, bounds_of, branching_of, make_domain, scalar_relu_net


def _minimizer(w, lo, hi, b=0.0):
    """The box minimizer of w @ x + b, as every bound computes its x_star."""
    return relax.concretize(np.asarray(w, dtype=float), b, np.asarray(lo, dtype=float),
                            np.asarray(hi, dtype=float))[0]


def _value_at(w, b, x):
    """w @ x + b summed exactly as concretization sums it."""
    return relax.concretize(w, b, x, x)[1]


def _point(net, C, x):
    """The domain over the single point x, and its first spec row's bound
    there, whose box minimizer can only be x itself."""
    d = make_domain(net, x, x)
    bound = bounds_of(net, C[:1], d, adaptive_slopes(net, d))[0]
    assert np.array_equal(bound.x_star, x)
    return d, bound


def _margins_at(net, C, x):
    """witness.validate_witness's concrete margins at the point x."""
    concrete, _ = witness.validate_witness(net, C, x[None])
    return concrete[0]


def test_sign_rule():
    x = _minimizer([1.0, -2.0], [0.0, 0.0], [1.0, 1.0])
    assert x.tolist() == [0.0, 1.0]


def test_zero_coefficient_takes_lower():
    x = _minimizer([0.0, 0.0], [-3.0, 2.0], [5.0, 7.0])
    assert x.tolist() == [-3.0, 2.0]


def test_witness_attains_corner_minimum():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        w = rng.normal(size=n)
        b = float(rng.normal())
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0, 3, n)
        x_star = _minimizer(w, lo, hi, b)
        val = _value_at(w, b, x_star)
        corner_min = min(_value_at(w, b, np.array(c)) for c in itertools.product(*zip(lo, hi)))
        assert val == corner_min


def test_minimizer_property_exact():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        w = rng.normal(size=n)
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0, 3, n)
        x_star = _minimizer(w, lo, hi)
        assert _value_at(w, 0.0, x_star) == relax.concretize(w, 0.0, lo, hi)[1]


def test_validate_concrete_violation():
    net, C, x = scalar_relu_net(out_bias=-0.5), np.array([[1.0]]), np.array([-1.0])  # ReLU(x) - 0.5
    d, bound = _point(net, C, x)
    b = branching_of(net, C, d, adaptive_slopes(net, d))
    assert b.action == "unsafe"
    wit = b.witness
    assert wit.concrete_margin.tolist() == [-0.5]  # <= 0: a concrete violation
    assert np.array_equal(wit.x_star, x) and wit.abstract_margin == bound.lower_bound
    assert wit.to_dict()["kind"] == "concrete_violation"


def test_validate_spurious():
    net = scalar_relu_net(out_bias=0.1)  # m(x) = ReLU(x) + 0.1
    margins = _margins_at(net, np.array([[1.0]]), np.array([-1.0]))
    assert margins.min() > 0.0  # spurious
    assert abs(margins[0] - 0.1) < 1e-15


def test_abstract_margin_equals_lower_bound():
    # The reported witness holds its node's raw bound at the bound's own
    # minimizer, bit for bit, also where the parent's bound raises the
    # node's effective lower_bound.
    net, C = scalar_relu_net(out_bias=-0.2), np.array([[1.0]])
    d = make_domain(net, [-1.0], [1.0])
    slopes = {0: np.array([0.5])}
    res = bounds_of(net, C, d, slopes)[0]
    assert res.lower_bound < 0  # the safety check fails
    for parent in (-np.inf, 0.5 * res.lower_bound):
        b = branching_of(net, C, d, slopes, parent)
        assert b.action == "unsafe" and b.lower_bound == max(res.lower_bound, parent)
        wit = b.witness
        assert type(wit.abstract_margin) is float
        assert wit.abstract_margin == res.lower_bound == b.raw_lower_bound
        assert np.array_equal(wit.x_star, res.x_star)
        assert np.array_equal(wit.concrete_margin, model.margin(net, C, res.x_star))
    assert b.lower_bound > wit.abstract_margin  # the raised bound is not the one reported


def test_classification_consistent_with_margin():
    rng = np.random.default_rng(33)
    net = scalar_relu_net(out_weight=1.7, out_bias=-0.3)
    C = np.array([[1.0]])
    for _ in range(50):
        x = rng.uniform(-1, 1, 1)
        margins = _margins_at(net, C, x)
        assert np.array_equal(margins, model.margin(net, C, x))
        # m(x) = 1.7 ReLU(x) - 0.3 violates exactly where the margin says so.
        assert (margins.min() <= 0.0) == (1.7 * max(x[0], 0.0) - 0.3 <= 0.0)


def test_x_star_lies_on_corners():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        w = rng.normal(size=n)
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.1, 3, n)
        x = _minimizer(w, lo, hi)
        assert np.all((x == lo) | (x == hi))

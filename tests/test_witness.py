import itertools

import numpy as np

from reluverify import model, relax, witness

from helpers import make_domain, scalar_relu_net


def _minimizer(w, lo, hi, b=0.0):
    """The box minimizer of w @ x + b, as every bound computes its x_star."""
    return relax.concretize(np.asarray(w, dtype=float), b, np.asarray(lo, dtype=float),
                            np.asarray(hi, dtype=float))[0]


def _value_at(w, b, x):
    """w @ x + b summed exactly as concretization sums it."""
    return relax.concretize(w, b, x, x)[1]


def _validate_at(net, C, x):
    """Validate the witness of a bound over the single point x, whose box
    minimizer can only be x itself."""
    d = make_domain(net, x, x)
    bound = relax.compute_bounds(net, C[0], d)
    assert np.array_equal(bound.x_star, x)
    return witness.validate_witness(net, C, bound)


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
    net = scalar_relu_net(out_bias=-0.5)  # m(x) = ReLU(x) - 0.5
    wit = _validate_at(net, np.array([[1.0]]), np.array([-1.0]))
    assert wit.kind == witness.CONCRETE_VIOLATION
    assert wit.concrete_margin.tolist() == [-0.5]


def test_validate_spurious():
    net = scalar_relu_net(out_bias=0.1)  # m(x) = ReLU(x) + 0.1
    wit = _validate_at(net, np.array([[1.0]]), np.array([-1.0]))
    assert wit.kind == witness.SPURIOUS
    assert abs(wit.concrete_margin[0] - 0.1) < 1e-15


def test_abstract_margin_equals_lower_bound():
    net = scalar_relu_net(out_bias=-0.2)
    d = make_domain(net, [-1.0], [1.0])
    res = relax.compute_bounds(net, np.array([1.0]), d, {0: np.array([0.5])})
    wit = witness.validate_witness(net, np.array([[1.0]]), res)
    assert wit.x_star is res.x_star
    assert abs(wit.abstract_margin - res.lower_bound) <= 1e-12
    # the safety check failed, so the witness violates in the abstract domain
    assert res.lower_bound < 0
    assert wit.abstract_margin < 0


def test_classification_consistent_with_margin():
    rng = np.random.default_rng(33)
    net = scalar_relu_net(out_weight=1.7, out_bias=-0.3)
    C = np.array([[1.0]])
    for _ in range(50):
        x = rng.uniform(-1, 1, 1)
        wit = _validate_at(net, C, x)
        assert np.array_equal(wit.concrete_margin, model.margin(net, C, x))
        expected = witness.CONCRETE_VIOLATION if wit.concrete_margin.min() <= 0 else witness.SPURIOUS
        assert wit.kind == expected


def test_x_star_lies_on_corners():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        w = rng.normal(size=n)
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.1, 3, n)
        x = _minimizer(w, lo, hi)
        assert np.all((x == lo) | (x == hi))

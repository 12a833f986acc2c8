import json

import numpy as np
import pytest

from reluverify import model

from helpers import naive_forward, random_net, scalar_relu_net


def test_forward_relu_clips_negative():
    net = scalar_relu_net()
    logits, preacts = model.forward(net, np.array([-2.0]))
    assert logits.tolist() == [0.0]
    assert [p.tolist() for p in preacts] == [[-2.0], [0.0]]


def test_forward_identity_linear():
    net = model.make_network([(np.eye(2), np.zeros(2), model.LINEAR)])
    logits, _ = model.forward(net, np.array([0.3, -0.7]))
    assert logits.tolist() == [0.3, -0.7]


def test_forward_matches_naive_reimplementation():
    rng = np.random.default_rng(3)
    net = random_net(rng, 3, [5], 2)
    x = np.array([0.25, -0.5, 0.75])  # box center of [-0.5,1]x[-2,1]x[0.5,1]
    logits, _ = model.forward(net, x)
    expected = naive_forward(net, x)
    assert np.allclose(logits, expected, rtol=0, atol=1e-12)


def test_margin_direct_formula():
    net = model.make_network([(np.eye(2), np.array([0.9, 0.2]), model.LINEAR)])
    m = model.margin(net, np.array([[1.0, -1.0]]), np.zeros(2))
    assert m.tolist() == [0.9 - 0.2]


def test_margin_identity_equals_logits():
    rng = np.random.default_rng(4)
    net = random_net(rng, 2, [4], 3)
    x = rng.uniform(-1, 1, 2)
    logits, _ = model.forward(net, x)
    assert np.array_equal(model.margin(net, np.eye(3), x), logits)


def test_margin_matches_naive_oracle():
    rng = np.random.default_rng(5)
    net = random_net(rng, 4, [6, 5], 3)
    C = rng.normal(size=(2, 3))
    x = rng.uniform(-1, 1, 4)
    expected = C @ np.array(naive_forward(net, x))
    assert np.allclose(model.margin(net, C, x), expected, rtol=0, atol=1e-10)


def test_forward_deterministic_bit_for_bit():
    rng = np.random.default_rng(6)
    net = random_net(rng, 3, [7, 7], 2)
    x = rng.uniform(-1, 1, 3)
    a, pa = model.forward(net, x)
    b, pb = model.forward(net, x)
    assert np.array_equal(a, b)
    assert all(np.array_equal(u, v) for u, v in zip(pa, pb))


def test_preacts_satisfy_relu_relation():
    rng = np.random.default_rng(7)
    net = random_net(rng, 3, [5, 4], 2)
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        _, preacts = model.forward(net, x)
        h = x
        for k, layer in enumerate(net.layers):
            z = layer.weights @ h + layer.bias
            assert np.array_equal(z, preacts[k])
            h = np.maximum(z, 0.0) if layer.activation == model.RELU else z


def test_forward_dimension_mismatch():
    net = scalar_relu_net()
    with pytest.raises(model.InputError):
        model.forward(net, np.array([1.0, 2.0]))


def test_margin_preact_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    net = random_net(rng, 3, [5, 4], 2)
    c = rng.normal(size=2)
    x = rng.uniform(-1, 1, 3)
    grads = model.margin_preact_gradients(net, c, model.forward(net, x)[1])
    # check the input-layer chain rule numerically
    h = 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        fd = (float(c @ model.forward(net, x + e)[0]) - float(c @ model.forward(net, x - e)[0])) / (2 * h)
        analytic = float(net.layers[0].weights[:, d] @ grads[0])
        assert abs(fd - analytic) < 1e-5


# --- loading / saving ---------------------------------------------------


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _minimal_model(tmp_path):
    return _write(tmp_path, "m.json", {
        "input_dim": 1,
        "layers": [
            {"weights": [[1.0]], "bias": [0.0], "activation": "relu"},
            {"weights": [[1.0]], "bias": [0.0], "activation": "linear"},
        ],
    })


def test_load_minimal_model(tmp_path):
    net = model.load_model(_minimal_model(tmp_path))
    assert net.n_layers == 2
    assert net.input_dim == 1 and net.output_dim == 1


def test_load_task_and_roundtrip(tmp_path):
    mp = _minimal_model(tmp_path)
    sp = _write(tmp_path, "s.json", {"input_lower": [-1.0], "input_upper": [1.0], "C": [[1.0]]})
    task = model.load_task(mp, sp)
    mp2, sp2 = str(tmp_path / "m2.json"), str(tmp_path / "s2.json")
    model.save_task(task, mp2, sp2)
    again = model.load_task(mp2, sp2)
    assert again.network.n_layers == task.network.n_layers
    for a, b in zip(again.network.layers, task.network.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    assert np.array_equal(again.input_lower, task.input_lower)
    assert np.array_equal(again.input_upper, task.input_upper)
    assert np.array_equal(again.spec_matrix, task.spec_matrix)


def test_roundtrip_is_bit_identical_through_files(tmp_path):
    rng = np.random.default_rng(10)
    net = random_net(rng, 3, [4, 5], 2)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    model.save_model(net, p1)
    model.save_model(model.load_model(p1), p2)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_load_spec_lower_above_upper_names_index(tmp_path):
    mp = _minimal_model(tmp_path)
    sp = _write(tmp_path, "s.json", {"input_lower": [2.0], "input_upper": [1.0], "C": [[1.0]]})
    with pytest.raises(model.InputError, match=r"input_lower\[0\]"):
        model.load_task(mp, sp)


def test_load_model_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(model.InputError, match="parse error"):
        model.load_model(str(path))


def test_load_model_rejects_unknown_activation(tmp_path):
    mp = _write(tmp_path, "m.json", {
        "input_dim": 1,
        "layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "tanh"}],
    })
    with pytest.raises(model.InputError, match="tanh"):
        model.load_model(mp)


def test_load_model_rejects_dimension_mismatch(tmp_path):
    mp = _write(tmp_path, "m.json", {
        "input_dim": 2,
        "layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "linear"}],
    })
    with pytest.raises(model.InputError, match=r"layers\[0\]"):
        model.load_model(mp)


def test_load_model_rejects_non_finite(tmp_path):
    mp = _write(tmp_path, "m.json", {
        "input_dim": 1,
        "layers": [{"weights": [[1e999]], "bias": [0.0], "activation": "linear"}],
    })
    with pytest.raises(model.InputError, match="non-finite"):
        model.load_model(mp)


def test_load_model_rejects_boolean_input_dim(tmp_path):
    # JSON true is a Python bool, which is an int subclass equal to 1.
    mp = _write(tmp_path, "m.json", {
        "input_dim": True,
        "layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "linear"}],
    })
    with pytest.raises(model.InputError, match="input_dim"):
        model.load_model(mp)


@pytest.mark.parametrize("value", [True, 1.0, 0, -1, np.True_, "1"])
@pytest.mark.parametrize("dim", ["input_dim", "output_dim"])
def test_network_refuses_a_dimension_the_loader_refuses(dim, value):
    layers = (model.Layer(np.ones((1, 1)), np.zeros(1), model.LINEAR),)
    with pytest.raises(model.InputError, match=f"{dim}: expected a positive integer"):
        model.Network(layers, **{"input_dim": 1, "output_dim": 1, dim: value})


def test_network_takes_a_numpy_integer_input_dim_as_an_int(tmp_path):
    layers = (model.Layer(np.ones((1, 2)), np.zeros(1), model.LINEAR),)
    net = model.Network(layers, np.int64(2), np.uint8(1))
    assert type(net.input_dim) is int and type(net.output_dim) is int
    model.save_model(net, str(tmp_path / "m.json"))  # json writes no numpy integer
    assert model.load_model(str(tmp_path / "m.json")).input_dim == 2


def _task_arrays(task):
    for layer in task.network.layers:
        yield from (layer.weights, layer.bias, *layer.stacked_pm, *layer.weight_parts)
    yield from (task.input_lower, task.input_upper, task.spec_matrix)


def test_loaded_arrays_are_read_only_and_own_their_data(tmp_path):
    sp = _write(tmp_path, "s.json", {"input_lower": [-1.0], "input_upper": [1.0], "C": [[1.0]]})
    for arr in _task_arrays(model.load_task(_minimal_model(tmp_path), sp)):
        assert not arr.flags.writeable and arr.base is None


def test_task_arrays_are_copies_of_the_callers_arrays():
    w, b = np.array([[1.0, -2.0]]), np.array([0.5])
    lo, hi, C = np.array([-1.0, 0.0]), np.array([1.0, 2.0]), np.array([[1.0]])
    net = model.make_network([(w, b, model.LINEAR)])
    task = model.VerificationTask(net, lo, hi, C)
    for arr in (w, b, lo, hi, C):
        arr[...] = 7.0
    assert net.layers[0].weights.tolist() == [[1.0, -2.0]] and net.layers[0].bias.tolist() == [0.5]
    assert task.input_lower.tolist() == [-1.0, 0.0] and task.input_upper.tolist() == [1.0, 2.0]
    assert task.spec_matrix.tolist() == [[1.0]]
    for arr in _task_arrays(task):
        assert not arr.flags.writeable and arr.base is None


def test_load_task_names_the_spec_for_its_errors(tmp_path):
    mp = _minimal_model(tmp_path)
    sp = _write(tmp_path, "s.json", {"input_lower": [-1.0, 0.0], "input_upper": [1.0, 1.0],
                                     "C": [[1.0]]})
    with pytest.raises(model.InputError, match="input_dim") as exc:
        model.load_task(mp, sp)
    assert str(exc.value).startswith(f"{sp}: ")


def test_load_model_rejects_relu_last_layer(tmp_path):
    mp = _write(tmp_path, "m.json", {
        "input_dim": 1,
        "layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "relu"}],
    })
    with pytest.raises(model.InputError, match="linear"):
        model.load_model(mp)


def test_spec_c_columns_must_match_output_dim(tmp_path):
    mp = _minimal_model(tmp_path)
    sp = _write(tmp_path, "s.json",
                {"input_lower": [-1.0], "input_upper": [1.0], "C": [[1.0, 2.0]]})
    with pytest.raises(model.InputError, match="output_dim"):
        model.load_task(mp, sp)


def _forward_alone(net, x):
    """One point's forward pass as single matrix-vector products W @ h."""
    h, preacts = x, []
    for layer in net.layers:
        z = layer.weights @ h + layer.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if layer.activation == model.RELU else z
    return h, preacts


def _gradients_alone(net, c_row, preacts):
    """One point's margin gradients as single products W.T @ g."""
    g, grads = c_row.copy(), [None] * net.n_layers
    for k in range(net.n_layers - 1, -1, -1):
        if net.layers[k].activation == model.RELU:
            g = g * (preacts[k] > 0.0)
        grads[k] = g
        if k > 0:
            g = net.layers[k].weights.T @ g
    return grads


@pytest.mark.parametrize("n_in, widths, n_out", [(4, [16, 16], 3), (8, [64, 64, 64], 5)])
def test_a_stack_of_points_gets_each_points_forward_and_gradients_bitwise(n_in, widths, n_out):
    # The layer shapes of the benchmark's suites: every point of a stack and a
    # point alone get the bits of the single matrix-vector products.
    rng = np.random.default_rng(92)
    net = random_net(rng, n_in, widths, n_out)
    xs = rng.uniform(-1.0, 1.0, (32, n_in))
    c_rows = rng.normal(size=(32, n_out))
    logits, preacts = model.forward(net, xs)
    grads = model.margin_preact_gradients(net, c_rows, preacts)
    for i, x in enumerate(xs):
        want, want_preacts = _forward_alone(net, x)
        want_grads = _gradients_alone(net, c_rows[i], want_preacts)
        one, one_preacts = model.forward(net, x)
        assert np.array_equal(logits[i], want) and np.array_equal(one, want)
        for k, z in enumerate(want_preacts):
            assert np.array_equal(preacts[k][i], z) and np.array_equal(one_preacts[k], z)
        one_grads = model.margin_preact_gradients(net, c_rows[i], one_preacts)
        for k, g in enumerate(want_grads):
            assert np.array_equal(grads[k][i], g) and np.array_equal(one_grads[k], g)

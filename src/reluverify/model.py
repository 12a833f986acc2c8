"""Dense feedforward ReLU networks, verification tasks, and their JSON file formats."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

RELU = "relu"
LINEAR = "linear"
ACTIVATIONS = (RELU, LINEAR)


class InputError(ValueError):
    """Malformed model/spec data: parse failures, shape mismatches, non-finite values."""


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        idx = np.argwhere(~np.isfinite(np.atleast_1d(arr)))[0]
        pos = "][".join(str(int(i)) for i in idx)
        raise InputError(f"{where}: non-finite value at [{pos}]")


def _as_matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: not a numeric matrix ({exc})") from None
    if arr.ndim != 2 or arr.size == 0:
        raise InputError(f"{where}: expected a non-empty 2-D matrix, got shape {arr.shape}")
    _check_finite(arr, where)
    return arr


def _as_vector(value, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: not a numeric vector ({exc})") from None
    if arr.ndim != 1:
        raise InputError(f"{where}: expected a 1-D vector, got shape {arr.shape}")
    _check_finite(arr, where)
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Layer:
    """One affine layer plus its activation. Arrays are copied and made read-only."""

    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)
    activation: str

    def __post_init__(self):
        w = _as_matrix(self.weights, "layer.weights")
        b = _as_vector(self.bias, "layer.bias")
        if b.shape[0] != w.shape[0]:
            raise InputError(
                f"layer.bias: length {b.shape[0]} does not match {w.shape[0]} output rows"
            )
        if self.activation not in ACTIVATIONS:
            raise InputError(f"layer.activation: unknown activation {self.activation!r}")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "bias", _freeze(b))

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    # Read-only constants of the bound passes, built once per layer.
    @cached_property
    def stacked_pm(self) -> Tuple[np.ndarray, np.ndarray]:
        """([W; -W], [b; -b]): equal to [I; -I] @ W and [I; -I] @ b (each entry
        is one product with 1, up to the sign of a zero), the start of the
        backward pass that bounds each pre-activation from below and above."""
        return (_freeze(np.vstack([self.weights, -self.weights])),
                _freeze(np.concatenate([self.bias, -self.bias])))

    @cached_property
    def weight_parts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(max(W, 0), min(W, 0)), for interval arithmetic."""
        return _freeze(np.maximum(self.weights, 0.0)), _freeze(np.minimum(self.weights, 0.0))


@dataclass(frozen=True)
class Network:
    """Feedforward network: alternating affine maps and {relu, linear} activations.

    The last layer must be linear; output specifications apply to its logits.
    Immutable after construction, safe to share across concurrent workers.
    """

    layers: Tuple[Layer, ...]
    input_dim: int
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise InputError("network: needs at least one layer")
        if self.input_dim <= 0:
            raise InputError(f"network: input_dim must be positive, got {self.input_dim}")
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != prev:
                raise InputError(
                    f"network: layers[{i}].weights: expected {prev} columns, got {layer.in_dim}"
                )
            prev = layer.out_dim
        if prev != self.output_dim:
            raise InputError(
                f"network: output_dim {self.output_dim} does not match last layer rows {prev}"
            )
        if self.layers[-1].activation != LINEAR:
            raise InputError("network: last layer must have linear activation")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def make_network(layer_defs: Sequence[Tuple]) -> Network:
    """Build a Network from (weights, bias, activation) triples, inferring dimensions."""
    layers = tuple(Layer(w, b, act) for (w, b, act) in layer_defs)
    return Network(layers, layers[0].in_dim, layers[-1].out_dim)


def forward(net: Network, x) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Evaluate the network at a single point.

    Returns (logits, preacts) where preacts[k] is the pre-activation vector of
    layer k (the final entry equals the logits since the last layer is linear).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise InputError(f"forward: input shape {x.shape} does not match ({net.input_dim},)")
    _check_finite(x, "forward: input")
    preacts = []
    h = x
    for layer in net.layers:
        z = layer.weights @ h + layer.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if layer.activation == RELU else z
    return h, preacts


def forward_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (n_points, input_dim) batch; returns logits rows."""
    h = np.asarray(xs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise InputError(f"forward_batch: batch shape {h.shape} does not match input_dim")
    for layer in net.layers:
        z = h @ layer.weights.T + layer.bias
        h = np.maximum(z, 0.0) if layer.activation == RELU else z
    return h


def margin(net: Network, C, x) -> np.ndarray:
    """Margin C @ f(x); the property holds iff every entry is strictly positive."""
    C = np.asarray(C, dtype=np.float64)
    logits, _ = forward(net, x)
    return C @ logits


def margin_preact_gradients(net: Network, c_row,
                            preacts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Gradient of the scalar margin c_row @ f(x) w.r.t. each pre-activation vector.

    preacts are the pre-activations at x, as forward returns them.
    Backpropagation through the concrete network, with ReLU subgradient 0 at z = 0.
    """
    c_row = np.asarray(c_row, dtype=np.float64)
    n = net.n_layers
    grads: List[Optional[np.ndarray]] = [None] * n
    g = c_row.copy()  # d margin / d z at the current layer
    for k in range(n - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == RELU:
            g = g * (preacts[k] > 0.0)
        grads[k] = g
        if k > 0:
            g = layer.weights.T @ g
    return grads  # type: ignore[return-value]


@dataclass(frozen=True)
class VerificationTask:
    """A network, a box input domain, an output specification, and search budgets.

    The property holds iff every row of spec_matrix @ f(x) is strictly positive
    for all x in [input_lower, input_upper].
    """

    network: Network
    input_lower: np.ndarray
    input_upper: np.ndarray
    spec_matrix: np.ndarray
    timeout_seconds: float = 60.0
    max_branches: int = 100_000

    def __post_init__(self):
        lo = _as_vector(self.input_lower, "task.input_lower")
        hi = _as_vector(self.input_upper, "task.input_upper")
        C = _as_matrix(self.spec_matrix, "task.spec_matrix")
        n0 = self.network.input_dim
        if lo.shape[0] != n0 or hi.shape[0] != n0:
            raise InputError(
                f"task: box dimensions ({lo.shape[0]}, {hi.shape[0]}) do not match input_dim {n0}"
            )
        bad = np.flatnonzero(lo > hi)
        if bad.size:
            k = int(bad[0])
            raise InputError(f"task.input_lower[{k}] = {lo[k]} exceeds input_upper[{k}] = {hi[k]}")
        if C.shape[1] != self.network.output_dim:
            raise InputError(
                f"task.spec_matrix: {C.shape[1]} columns do not match output_dim"
                f" {self.network.output_dim}"
            )
        if not self.timeout_seconds > 0:  # NaN too: it would never time out
            raise InputError(f"task.timeout_seconds must be positive, got {self.timeout_seconds}")
        if self.max_branches < 0:
            raise InputError("task.max_branches must be non-negative")
        object.__setattr__(self, "input_lower", _freeze(lo))
        object.__setattr__(self, "input_upper", _freeze(hi))
        object.__setattr__(self, "spec_matrix", _freeze(C))


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error: {exc}") from None


def load_model(path: str) -> Network:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level value must be an object")
    if "input_dim" not in data or "layers" not in data:
        raise InputError(f"{path}: missing required key 'input_dim' or 'layers'")
    input_dim = data["input_dim"]
    if not isinstance(input_dim, int) or isinstance(input_dim, bool) or input_dim <= 0:
        raise InputError(f"{path}: input_dim: expected a positive integer, got {input_dim!r}")
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise InputError(f"{path}: layers: expected a non-empty list")
    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"{path}: layers[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected an object")
        for key in ("weights", "bias", "activation"):
            if key not in entry:
                raise InputError(f"{where}: missing key '{key}'")
        try:
            layers.append(Layer(entry["weights"], entry["bias"], entry["activation"]))
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
    try:
        return Network(tuple(layers), input_dim, layers[-1].out_dim)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_spec(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level value must be an object")
    for key in ("input_lower", "input_upper", "C"):
        if key not in data:
            raise InputError(f"{path}: missing required key '{key}'")
    lo = _as_vector(data["input_lower"], f"{path}: input_lower")
    hi = _as_vector(data["input_upper"], f"{path}: input_upper")
    C = _as_matrix(data["C"], f"{path}: C")
    return lo, hi, C


def load_task(
    model_path: str,
    spec_path: str,
    timeout_seconds: float = 60.0,
    max_branches: int = 100_000,
) -> VerificationTask:
    """Load and fully validate a verification task from a model file and a spec file."""
    net = load_model(model_path)
    lo, hi, C = load_spec(spec_path)
    try:
        task = VerificationTask(net, lo, hi, C)
    except InputError as exc:
        raise InputError(f"{spec_path}: {exc}") from None
    # The budgets are checked apart: an error in them is not the spec file's.
    return dataclasses.replace(task, timeout_seconds=timeout_seconds, max_branches=max_branches)


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def model_to_dict(net: Network) -> dict:
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in net.layers
        ],
    }


def spec_to_dict(input_lower, input_upper, C) -> dict:
    return {
        "input_lower": np.asarray(input_lower).tolist(),
        "input_upper": np.asarray(input_upper).tolist(),
        "C": np.asarray(C).tolist(),
    }


def save_model(net: Network, path: str) -> None:
    _write_json(model_to_dict(net), path)


def save_spec(input_lower, input_upper, C, path: str) -> None:
    _write_json(spec_to_dict(input_lower, input_upper, C), path)


def save_task(task: VerificationTask, model_path: str, spec_path: str) -> None:
    save_model(task.network, model_path)
    save_spec(task.input_lower, task.input_upper, task.spec_matrix, spec_path)

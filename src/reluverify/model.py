"""Dense feedforward ReLU networks, verification tasks, and their JSON file formats."""

from __future__ import annotations

import itertools
import json
import numbers
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


def _reject_non_numbers(value, arr: np.ndarray, where: str) -> None:
    """Raise InputError at the first entry of the nested lists value, read by
    np.array as arr, that is not a number float64 holds: a boolean, a string
    (np.array with a float dtype parses "2.0"), null, an object or a too large
    integer. A numeric arr hides only booleans, read as 0 or 1: only those are looked up."""
    numeric = arr.dtype.kind in "biuf"
    if numeric and isinstance(value, np.ndarray):
        return
    for idx in np.argwhere((arr == 0) | (arr == 1)) if numeric else np.ndindex(*arr.shape):
        item = value
        for i in idx:
            item = item[i]
        pos = "][".join(str(int(i)) for i in idx)
        if isinstance(item, bool) or not isinstance(item, numbers.Real):
            kind = "boolean" if isinstance(item, bool) else "non-numeric"
            raise InputError(f"{where}: {kind} value at [{pos}]")
        try:
            float(item)
        except OverflowError:
            raise InputError(f"{where}: integer beyond float64 range at [{pos}]") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr, a fresh array, marked read-only in place."""
    arr.setflags(write=False)
    return arr


def _as_array(value, ndim: int, where: str) -> np.ndarray:
    """value as a fresh read-only float64 array of ndim dimensions (a matrix
    non-empty), every entry a finite number: not a boolean, not a string."""
    kind = "matrix" if ndim == 2 else "vector"
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: not a numeric {kind} ({exc})") from None
    if arr.ndim != ndim or (ndim == 2 and arr.size == 0):
        expected = "a non-empty 2-D matrix" if ndim == 2 else "a 1-D vector"
        raise InputError(f"{where}: expected {expected}, got shape {arr.shape}")
    _reject_non_numbers(value, arr, where)
    arr = arr.astype(np.float64, copy=False)
    _check_finite(arr, where)
    return _freeze(arr)


@dataclass(frozen=True)
class Layer:
    """One affine layer plus its activation. Arrays are copied and made read-only."""

    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)
    activation: str

    def __post_init__(self):
        w = _as_array(self.weights, 2, "layer.weights")
        b = _as_array(self.bias, 1, "layer.bias")
        if b.shape[0] != w.shape[0]:
            raise InputError(
                f"layer.bias: length {b.shape[0]} does not match {w.shape[0]} output rows"
            )
        if self.activation not in ACTIVATIONS:
            raise InputError(f"layer.activation: unknown activation {self.activation!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

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
        for name in ("input_dim", "output_dim"):  # numpy integers too; bool is an int
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n <= 0:
                raise InputError(f"network: {name}: expected a positive integer, got {n!r}")
            object.__setattr__(self, name, int(n))
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

    @cached_property
    def hidden_offsets(self) -> Tuple[int, ...]:
        """Where each hidden layer's neurons start when the hidden layers lie
        side by side in order, as relax.NeuronBounds lays them out, and last
        the total count: layer k spans hidden_offsets[k]:hidden_offsets[k + 1]."""
        return tuple(itertools.accumulate((layer.out_dim for layer in self.layers[:-1]), initial=0))


def make_network(layer_defs: Sequence[Tuple]) -> Network:
    """Build a Network from (weights, bias, activation) triples, inferring dimensions."""
    layers = tuple(Layer(w, b, act) for (w, b, act) in layer_defs)
    return Network(layers, layers[0].in_dim, layers[-1].out_dim)


def forward(net: Network, x) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Evaluate the network at a point, or at a stack of points (..., input_dim).

    Returns (logits, preacts), preacts[k] the pre-activations of layer k (the
    last equals the logits). Each W @ h runs on (..., n, 1) stacks, the product
    one point makes alone, so each point of a stack gets its own bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (net.input_dim,):
        raise InputError(f"forward: input shape {x.shape} does not match (..., {net.input_dim})")
    _check_finite(x, "forward: input")
    preacts = []
    h = x
    for layer in net.layers:
        z = (layer.weights @ h[..., None])[..., 0] + layer.bias
        preacts.append(z)
        h = np.maximum(z, 0.0) if layer.activation == RELU else z
    return h, preacts


def margin(net: Network, C, x) -> np.ndarray:
    """Margin C @ f(x); the property holds iff every entry is strictly positive."""
    C = np.asarray(C, dtype=np.float64)
    logits, _ = forward(net, x)
    return C @ logits


def margin_preact_gradients(net: Network, c_row,
                            preacts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Gradient of the scalar margin c_row @ f(x) w.r.t. each pre-activation vector.

    preacts are the pre-activations at x (or a stack), as forward returns them.
    Backpropagation through the concrete network, with ReLU subgradient 0 at
    z = 0; W.T @ g runs on (..., n, 1) stacks and the transposed view of W.
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
            g = (layer.weights.T @ g[..., None])[..., 0]
    return grads  # type: ignore[return-value]


@dataclass(frozen=True)
class VerificationTask:
    """A network, a box input domain and an output specification (the spec file's C).

    The property holds iff every row of spec_matrix @ f(x) is strictly positive
    for all x in [input_lower, input_upper].
    """

    network: Network
    input_lower: np.ndarray
    input_upper: np.ndarray
    spec_matrix: np.ndarray

    def __post_init__(self):
        lo = _as_array(self.input_lower, 1, "input_lower")
        hi = _as_array(self.input_upper, 1, "input_upper")
        C = _as_array(self.spec_matrix, 2, "C")
        n0 = self.network.input_dim
        if lo.shape[0] != n0 or hi.shape[0] != n0:
            raise InputError(
                f"task: box dimensions ({lo.shape[0]}, {hi.shape[0]}) do not match input_dim {n0}"
            )
        bad = np.flatnonzero(lo > hi)
        if bad.size:
            k = int(bad[0])
            raise InputError(f"task.input_lower[{k}] = {lo[k]} exceeds input_upper[{k}] = {hi[k]}")
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(hi - lo))
        if bad.size:
            k = int(bad[0])
            raise InputError(
                f"task: box width input_upper[{k}] - input_lower[{k}] overflows float64")
        if C.shape[1] != self.network.output_dim:
            raise InputError(
                f"task.spec_matrix: {C.shape[1]} columns do not match output_dim"
                f" {self.network.output_dim}"
            )
        object.__setattr__(self, "input_lower", lo)
        object.__setattr__(self, "input_upper", hi)
        object.__setattr__(self, "spec_matrix", C)


def _require(obj, keys: Sequence[str], where: str) -> dict:
    """obj, when it is a JSON object holding every one of keys."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{where}: missing required key '{key}'")
    return obj


def _read_json(path: str, keys: Sequence[str]) -> dict:
    """The JSON object in the file at path, holding every one of keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _require(json.load(fh), keys, path)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file ({exc})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: parse error: {exc}") from None


def load_model(path: str) -> Network:
    data = _read_json(path, ("input_dim", "layers"))
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise InputError(f"{path}: layers: expected a non-empty list")
    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"{path}: layers[{i}]"
        entry = _require(entry, ("weights", "bias", "activation"), where)
        try:
            layers.append(Layer(entry["weights"], entry["bias"], entry["activation"]))
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
    try:
        return Network(tuple(layers), data["input_dim"], layers[-1].out_dim)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_task(model_path: str, spec_path: str) -> VerificationTask:
    """Load and fully validate a verification task from a model file and a spec file."""
    net = load_model(model_path)
    data = _read_json(spec_path, ("input_lower", "input_upper", "C"))
    try:
        return VerificationTask(net, data["input_lower"], data["input_upper"], data["C"])
    except InputError as exc:
        raise InputError(f"{spec_path}: {exc}") from None


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
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

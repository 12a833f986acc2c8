"""Independent ground truth for tiny instances: an exact complete checker by
activation-pattern enumeration over a small dense simplex, plus a sampling
falsifier. Test support only; the verifier's hot path never calls this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import model
from .model import InputError, LINEAR, Network, RELU, VerificationTask

MAX_ORACLE_INPUTS = 6
MAX_ORACLE_UNSTABLE = 14

_LP_TOL = 1e-9
_LP_MAX_PIVOTS = 20_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class OracleBudgetError(InputError):
    """The instance exceeds the enumeration budget; pick a smaller one."""


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_enterable: int) -> str:
    """Minimize the objective in the last row over the first n_enterable columns.

    Bland's rule throughout (lowest eligible entering index, lowest basis index
    on ratio ties) so the tableau can never cycle.
    """
    m = T.shape[0] - 1
    for _ in range(_LP_MAX_PIVOTS):
        col = -1
        for j in range(n_enterable):
            if T[-1, j] < -_LP_TOL:
                col = j
                break
        if col < 0:
            return OPTIMAL
        row = -1
        best_ratio = np.inf
        for i in range(m):
            a = T[i, col]
            if a > _LP_TOL:
                ratio = T[i, -1] / a
                if ratio < best_ratio - _LP_TOL or (
                    ratio <= best_ratio + _LP_TOL and (row < 0 or basis[i] < basis[row])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex: pivot limit exceeded")


def lp_minimize(
    c: np.ndarray,
    A_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[str, Optional[np.ndarray], float]:
    """Minimize c @ x subject to A_ub @ x <= b_ub and lo <= x <= hi.

    Dense two-phase tableau simplex, self-contained. Returns
    (status, x, value); x and value are None/nan unless status is optimal.
    """
    c = np.asarray(c, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = c.shape[0]
    if A_ub is None or (hasattr(A_ub, "__len__") and len(A_ub) == 0):
        A = np.zeros((0, n))
        b = np.zeros(0)
    else:
        A = np.asarray(A_ub, dtype=np.float64).reshape(-1, n)
        b = np.asarray(b_ub, dtype=np.float64).reshape(-1)

    # Shift to y = x - lo >= 0; the upper bounds become ordinary rows.
    span = hi - lo
    A_all = np.vstack([A, np.eye(n)])
    b_all = np.concatenate([b - A @ lo, span])
    m = A_all.shape[0]

    neg = b_all < 0.0
    slack_sign = np.where(neg, -1.0, 1.0)
    A_all = np.where(neg[:, None], -A_all, A_all)
    b_all = np.where(neg, -b_all, b_all)

    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    n_cols = n + m + n_art
    T = np.zeros((m + 1, n_cols + 1))
    T[:m, :n] = A_all
    T[:m, n : n + m] = np.diag(slack_sign)
    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = n + i
    for a_idx, r in enumerate(art_rows):
        T[r, n + m + a_idx] = 1.0
        basis[r] = n + m + a_idx
    T[:m, -1] = b_all

    if n_art:
        # Phase 1: minimize the artificial total, expressed in nonbasic terms.
        T[-1, n + m : n + m + n_art] = 1.0
        for r in art_rows:
            T[-1] -= T[r]
        status = _run_simplex(T, basis, n + m)
        if status != OPTIMAL or -T[-1, -1] > 1e-7:
            return INFEASIBLE, None, float("nan")
        # Drive any leftover artificial out of the basis if a real pivot exists.
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if abs(T[i, j]) > _LP_TOL:
                        _pivot(T, basis, i, j)
                        break

    # Phase 2 with the real objective.
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[-1] -= c[basis[i]] * T[i]
    status = _run_simplex(T, basis, n + m)
    if status != OPTIMAL:
        return status, None, float("nan")
    y = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            y[basis[i]] = T[i, -1]
    x = lo + y
    return OPTIMAL, x, float(c @ y + c @ lo)


def _interval_bounds(net: Network, lo: np.ndarray, hi: np.ndarray):
    """Plain interval arithmetic through the hidden layers (deliberately
    independent of the verifier's bound propagation)."""
    lows, ups = [], []
    cl, cu = lo, hi
    for layer in net.layers[:-1]:
        W, b = layer.weights, layer.bias
        Wp = np.maximum(W, 0.0)
        Wn = np.minimum(W, 0.0)
        zl = Wp @ cl + Wn @ cu + b
        zu = Wp @ cu + Wn @ cl + b
        lows.append(zl)
        ups.append(zu)
        if layer.activation == RELU:
            cl, cu = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
        else:
            cl, cu = zl, zu
    return lows, ups


@dataclass
class PatternRegion:
    """One activation pattern of the unstable neurons and its affine view.

    With all unstable ReLUs fixed by the pattern the network is affine:
    margin row r equals margin_w[r] @ x + margin_b[r] on the region
    {x : constraint_rows @ x <= constraint_rhs} intersected with the box
    (strict sides closed to their boundary).
    """

    pattern: Dict[Tuple[int, int], int]
    margin_w: np.ndarray
    margin_b: np.ndarray
    constraint_rows: np.ndarray
    constraint_rhs: np.ndarray


def enumerate_regions(
    task: VerificationTask, feasibility_filter: bool = True
) -> Iterator[PatternRegion]:
    """All activation-pattern regions of the task, feasible prefixes first.

    Budget-guarded: refuses more than MAX_ORACLE_INPUTS inputs or
    MAX_ORACLE_UNSTABLE interval-unstable neurons. feasibility_filter prunes
    pattern prefixes with empty regions; disabling it only wastes work.
    """
    net = task.network
    lo, hi, C = task.input_lower, task.input_upper, task.spec_matrix
    n0 = net.input_dim
    if n0 > MAX_ORACLE_INPUTS:
        raise OracleBudgetError(f"input dimension {n0} exceeds oracle budget {MAX_ORACLE_INPUTS}")
    lows, ups = _interval_bounds(net, lo, hi)
    n_unstable = 0
    for k, layer in enumerate(net.layers[:-1]):
        if layer.activation == RELU:
            n_unstable += int(np.count_nonzero((lows[k] < 0.0) & (ups[k] > 0.0)))
    if n_unstable > MAX_ORACLE_UNSTABLE:
        raise OracleBudgetError(
            f"{n_unstable} unstable neurons exceed oracle budget {MAX_ORACLE_UNSTABLE}"
        )

    n_layers = net.n_layers

    def visit(k, M, cvec, pattern, rows, rhs):
        if k == n_layers - 1:
            layer = net.layers[k]
            yield PatternRegion(
                pattern=dict(pattern),
                margin_w=C @ (layer.weights @ M),
                margin_b=C @ (layer.weights @ cvec + layer.bias),
                constraint_rows=np.array(rows) if rows else np.zeros((0, n0)),
                constraint_rhs=np.array(rhs) if rhs else np.zeros(0),
            )
            return
        layer = net.layers[k]
        zM = layer.weights @ M
        zc = layer.weights @ cvec + layer.bias
        if layer.activation == LINEAR:
            yield from visit(k + 1, zM, zc, pattern, rows, rhs)
            return
        act = lows[k] >= 0.0
        inact = (ups[k] <= 0.0) & ~act
        unstable = np.flatnonzero(~(act | inact))
        for signs in itertools.product((1, -1), repeat=unstable.size):
            keep = act.copy()
            new_rows = list(rows)
            new_rhs = list(rhs)
            new_pattern = dict(pattern)
            for j, s in zip(unstable, signs):
                new_pattern[(k, int(j))] = int(s)
                if s > 0:
                    keep[j] = True
                    new_rows.append(-zM[j])  # z_j >= 0
                    new_rhs.append(float(zc[j]))
                else:
                    new_rows.append(zM[j])  # z_j <= 0
                    new_rhs.append(float(-zc[j]))
            if unstable.size and feasibility_filter:
                status, _, _ = lp_minimize(
                    np.zeros(n0), np.array(new_rows), np.array(new_rhs), lo, hi
                )
                if status != OPTIMAL:
                    continue  # empty pattern region
            yield from visit(k + 1, zM * keep[:, None], zc * keep, new_pattern,
                             new_rows, new_rhs)

    yield from visit(0, np.eye(n0), np.zeros(n0), {}, [], [])


def exact_min_margin(
    task: VerificationTask, feasibility_filter: bool = True
) -> Tuple[float, np.ndarray]:
    """Exact global minimum of the margin over the box, with a minimizer.

    Enumerates activation patterns over the interval-unstable neurons; within
    a pattern the network is affine and each spec row is minimized over the
    pattern's polytope (strict sides closed, which cannot change the infimum
    of a continuous affine function). min_value <= 0 iff the task is Unsafe.
    """
    lo, hi, C = task.input_lower, task.input_upper, task.spec_matrix
    best_val = float("inf")
    best_x: Optional[np.ndarray] = None
    for region in enumerate_regions(task, feasibility_filter):
        A = region.constraint_rows if region.constraint_rows.size else None
        b = region.constraint_rhs if region.constraint_rows.size else None
        for r in range(C.shape[0]):
            status, x, val = lp_minimize(region.margin_w[r], A, b, lo, hi)
            if status == OPTIMAL:
                total = val + region.margin_b[r]
                if total < best_val:
                    best_val = total
                    best_x = x
    if best_x is None:
        raise RuntimeError("exact_min_margin: no feasible activation pattern found")
    return float(best_val), best_x


def _corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.array(list(itertools.product(*zip(lo, hi))))


def scan_margin(task: VerificationTask, samples: int, seed: int = 0) -> Tuple[np.ndarray, float]:
    """Worst concrete margin over `samples` uniform points plus all box corners
    (corners only when the input dimension allows). Returns (point, margin)."""
    if samples < 1:
        raise ValueError("scan_margin: samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = task.input_lower, task.input_upper
    points = rng.uniform(lo, hi, size=(samples, task.network.input_dim))
    if task.network.input_dim <= 16:
        points = np.vstack([points, _corners(lo, hi)])
    logits = model.forward_batch(task.network, points)
    margins = (logits @ task.spec_matrix.T).min(axis=1)
    worst = int(np.argmin(margins))
    return points[worst], float(margins[worst])


def grid_attack(
    task: VerificationTask, samples: int, seed: int = 0
) -> Optional[Tuple[np.ndarray, float]]:
    """Sampling falsifier: the worst point found iff its margin is <= 0."""
    x, m = scan_margin(task, samples, seed)
    if m <= 0.0:
        return x, m
    return None

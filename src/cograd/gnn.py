"""Two-layer graph convolutional solver trained against a relaxed Hamiltonian.

The network maps trainable node embeddings through two normalized-adjacency
convolutions, ReLU then sigmoid, to per-node probabilities p. Training
descends the relaxed energy H(p) directly (no labels), after which p is
thresholded and repaired into a feasible binary assignment. Gradients are
computed analytically; the only dependency is numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .baselines import one_flip_local_search
from .graph import Graph, renormalized_adjacency
from .qubo import BinaryAssignment, ProblemKind, QuboMatrix

__all__ = [
    "GcnParams",
    "SoftAssignment",
    "TrainConfig",
    "TrainingDivergedError",
    "Adam",
    "default_dims",
    "init_params",
    "forward",
    "relaxed_loss",
    "backward",
    "descend",
    "train",
    "project_and_repair",
    "export_loss_trace",
]

# sigmoid outputs are clipped this far inside (0,1) so logs stay finite
_P_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss leaves the finite range."""


@dataclass
class GcnParams:
    """Trainable tensors: embedding table h0 (n, d0), layer weights
    w0 (d0, d1) and w1 (d1, 1). Also used to carry gradients of the same
    shapes out of :func:`backward`."""

    h0: np.ndarray
    w0: np.ndarray
    w1: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.h0, self.w0, self.w1]

    def copy(self) -> "GcnParams":
        return GcnParams(self.h0.copy(), self.w0.copy(), self.w1.copy())


@dataclass(frozen=True)
class SoftAssignment:
    """Per-node probabilities strictly inside (0,1)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"p must be a vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("probabilities must lie strictly inside (0,1)")
        object.__setattr__(self, "p", p)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent schedule; embedding dims default per graph size."""

    max_epochs: int = 10_000
    learning_rate: float = 1e-2
    patience: int = 500
    tolerance: float = 1e-4
    seed: int = 0
    d0: int | None = None
    d1: int | None = None

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")


def default_dims(n: int) -> tuple[int, int]:
    """Embedding widths for an n-node graph: d0 grows like sqrt(n) within
    [4, 128], d1 is half of d0 with a floor of 2."""
    d0 = min(128, max(4, int(np.floor(np.sqrt(max(n, 0)) + 0.5))))
    d1 = max(2, d0 // 2)
    return d0, d1


def init_params(n: int, d0: int, d1: int, seed: int) -> GcnParams:
    """Seeded normal init, scale 1/sqrt(fan-in) per tensor.

    Fan-in is the width feeding each product: d0 for the embedding table and
    first layer, d1 for the output layer.
    """
    if d0 < 1 or d1 < 1:
        raise ValueError("embedding dims must be at least 1")
    rng = np.random.default_rng(seed)
    return GcnParams(
        h0=rng.normal(0.0, 1.0 / np.sqrt(d0), (n, d0)),
        w0=rng.normal(0.0, 1.0 / np.sqrt(d0), (d0, d1)),
        w1=rng.normal(0.0, 1.0 / np.sqrt(d1), (d1, 1)),
    )


def _check_shapes(params: GcnParams, a_hat: sp.csr_array) -> None:
    n, d0 = params.h0.shape
    if a_hat.shape != (n, n):
        raise ValueError(f"adjacency shape {a_hat.shape} does not match n={n}")
    if params.w0.shape[0] != d0:
        raise ValueError(f"w0 expects input width {params.w0.shape[0]}, h0 has {d0}")
    if params.w1.shape != (params.w0.shape[1], 1):
        raise ValueError(
            f"w1 shape {params.w1.shape} does not match layer width {params.w0.shape[1]}"
        )


def _forward_parts(params: GcnParams, a_hat: sp.csr_array):
    _check_shapes(params, a_hat)
    p0 = a_hat @ params.h0
    z1 = p0 @ params.w0
    h1 = np.maximum(z1, 0.0)
    p1 = a_hat @ h1
    z2 = p1 @ params.w1
    p = np.clip(expit(z2[:, 0]), _P_EPS, 1.0 - _P_EPS)
    return p, p0, z1, h1, p1


def forward(params: GcnParams, a_hat: sp.csr_array) -> SoftAssignment:
    """p = sigmoid(Â relu(Â h0 w0) w1), one probability per node."""
    p, *_ = _forward_parts(params, a_hat)
    return SoftAssignment(p)


def relaxed_loss(p: SoftAssignment | np.ndarray, q: QuboMatrix) -> float:
    """Energy of the soft assignment; the training objective."""
    return q.value(np.asarray(p))


def _grads(params: GcnParams, a_hat: sp.csr_array, q: QuboMatrix, parts):
    p, p0, z1, _h1, p1 = parts
    dp = q.gradient(p)
    dz2 = (dp * p * (1.0 - p))[:, None]
    dw1 = p1.T @ dz2
    dp1 = dz2 @ params.w1.T
    dh1 = a_hat @ dp1
    dz1 = dh1 * (z1 > 0.0)
    dw0 = p0.T @ dz1
    dp0 = dz1 @ params.w0.T
    dh0 = a_hat @ dp0
    return [dh0, dw0, dw1]


def backward(params: GcnParams, a_hat: sp.csr_array, q: QuboMatrix) -> GcnParams:
    """Exact gradients of relaxed_loss(forward(params)) w.r.t. each tensor.

    Chain rule through dH/dp = 2 Q_offdiag p + diag, the sigmoid, both
    convolutions (Â is symmetric, so the adjoint is Â itself) and the ReLU
    mask. Returned in a GcnParams of matching shapes.
    """
    parts = _forward_parts(params, a_hat)
    dh0, dw0, dw1 = _grads(params, a_hat, q, parts)
    return GcnParams(h0=dh0, w0=dw0, w1=dw1)


class Adam:
    """Adaptive moment estimation with bias correction (decay 0.9/0.999)."""

    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update each array in place from its gradient."""
        if self._m is None:
            self._m = [np.zeros_like(a) for a in arrays]
            self._v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for a, g, m, v in zip(arrays, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


def descend(
    arrays: list[np.ndarray],
    evaluate: Callable[[], tuple[float, Callable[[], list[np.ndarray]]]],
    cfg: TrainConfig,
    on_best: Callable[[], None] | None = None,
) -> list[tuple[int, float, float]]:
    """Adam on ``arrays``, in place, under the best-loss patience window.

    Each epoch ``evaluate()`` returns the loss at the current arrays and a
    function giving one gradient per array, called only when a step follows.
    ``on_best`` runs whenever the best loss improves. Stops at max_epochs or
    once the best loss gained less than ``tolerance`` over the last
    ``patience`` epochs (a window, so slow steady descent keeps going).
    Returns the (epoch, loss, best_loss) trace, epochs starting at 1.

    Raises
    ------
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    opt = Adam(cfg.learning_rate)
    best_loss = np.inf
    trace: list[tuple[int, float, float]] = []
    # non-finite arithmetic is caught by the loss guard, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            loss, grads = evaluate()
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            if loss < best_loss:
                best_loss = loss
                if on_best is not None:
                    on_best()
            trace.append((epoch, float(loss), float(best_loss)))
            if (
                epoch > cfg.patience
                and trace[epoch - 1 - cfg.patience][2] - best_loss
                < cfg.tolerance
            ):
                break
            opt.step(arrays, grads())
    return trace


def train(
    g: Graph,
    q: QuboMatrix,
    cfg: TrainConfig,
    loss_offset: float = 0.0,
) -> tuple[SoftAssignment, list[tuple[int, float, float]]]:
    """Descend the relaxed energy; return the best soft assignment seen.

    The loss trace holds (epoch, loss, best_loss) rows, epochs starting at 1.
    ``loss_offset`` is a constant added to every reported loss (used when the
    training objective carries a frozen auxiliary term); it shifts the trace
    without changing any descent decision. Stopping follows :func:`descend`.

    Raises
    ------
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    if g.n != q.n:
        raise ValueError(f"graph has {g.n} nodes but QUBO dimension is {q.n}")
    a_hat = renormalized_adjacency(g)
    d0, d1 = default_dims(g.n)
    if cfg.d0 is not None:
        d0 = cfg.d0
    if cfg.d1 is not None:
        d1 = cfg.d1
    params = init_params(g.n, d0, d1, cfg.seed)
    parts = best_p = None

    def evaluate():
        nonlocal parts
        parts = _forward_parts(params, a_hat)
        return q.value(parts[0]) + loss_offset, lambda: _grads(params, a_hat, q, parts)

    def keep_best():
        nonlocal best_p
        best_p = parts[0].copy()

    trace = descend(params.arrays(), evaluate, cfg, on_best=keep_best)
    return SoftAssignment(best_p), trace


def project_and_repair(
    kind: ProblemKind,
    g: Graph,
    p: SoftAssignment | np.ndarray,
    polish: bool = False,
) -> BinaryAssignment:
    """Threshold p at 0.5 and repair to feasibility; optionally polish.

    Repair rules (deterministic):

    * MIS: for each edge with both endpoints selected, deselect the endpoint
      of larger degree (tie: the larger index); afterwards add, in ascending
      index order, every node with no selected neighbor.
    * MVC: for each uncovered edge, select the endpoint of larger degree
      (tie: the smaller index); afterwards scan indices descending and drop
      any node whose removal keeps every incident edge covered.
    * MaxCut: nothing to repair.

    With ``polish`` the result is refined by 1-flip first-improvement local
    search. The output is always feasible.
    """
    kind = ProblemKind(kind)
    x = (np.asarray(p, dtype=np.float64) >= 0.5).astype(np.int64)
    if kind is ProblemKind.MIS:
        for u, v in zip(g.edge_u, g.edge_v):
            if x[u] == 1 and x[v] == 1:
                drop = v if g.degree[v] >= g.degree[u] else u
                x[drop] = 0
        for i in range(g.n):
            if x[i] == 0 and not np.any(x[g.neighbors(i)] == 1):
                x[i] = 1
    elif kind is ProblemKind.MVC:
        for u, v in zip(g.edge_u, g.edge_v):
            if x[u] == 0 and x[v] == 0:
                pick = u if g.degree[u] >= g.degree[v] else v
                x[pick] = 1
        for i in range(g.n - 1, -1, -1):
            if x[i] == 1 and bool(np.all(x[g.neighbors(i)] == 1)):
                x[i] = 0
    if polish:
        x = one_flip_local_search(kind, g, x)
    return x


def export_loss_trace(trace: list[tuple[int, float, float]]) -> str:
    """CSV text with header ``epoch,loss,best_loss``."""
    lines = ["epoch,loss,best_loss"]
    for epoch, loss, best in trace:
        lines.append(f"{epoch},{loss!r},{best!r}")
    return "\n".join(lines) + "\n"

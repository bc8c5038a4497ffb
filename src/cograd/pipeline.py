"""Predict-then-optimize composition and multilinear-extension utilities.

The end-to-end flow: sample a node-induced observation of the true graph,
train the edge predictor on it, build a QUBO whose edge weights are the
predicted probabilities, descend the relaxed energy with the GCN solver,
then repair and score the decision on the true graph it will be executed
on. The predicted graph is sparse: the observed edges plus a budget of
predicted partners per unobserved node, about as many edges as the true
graph has, and no stage builds an n x n array. Lambda times the
predictor's frozen reconstruction loss is a constant: it shifts the
solver's reported loss and ``combined_loss`` but enters no gradient, so it
changes no decision.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .gnn import TrainConfig, project_and_repair, train
from .graph import Graph, sample_observed_subgraph
from .linkpred import (
    SoftAdjacency,
    predict_adjacency,
    reconstruction_bce,
    train_predictor,
)
from .qubo import (
    BinaryAssignment,
    ProblemKind,
    QuboMatrix,
    _check_penalty,
    build_qubo,
    eval_hamiltonian,
    is_feasible,
    objective,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "CoverageModel",
    "end_to_end_solve",
    "combined_loss",
    "soft_adjacency_graph",
    "multilinear_value",
    "coverage_multilinear_grads",
]

# predicted pairs below this probability carry no weight in the QUBO
_SOFT_EDGE_CUTOFF = 1e-3
_MULTILINEAR_LIMIT = 16


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda coefficient must be nonnegative and finite")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end run settings.

    ``seed`` drives the observation sampling; the predictor and solver carry
    their own seeds inside their configs. ``lam`` weighs the predictor's
    reconstruction loss, a constant once the predictor is trained: it is
    added to the solver's reported loss and to ``combined_loss``, enters no
    gradient and changes no decision.
    """

    kind: ProblemKind
    observe_fraction: float = 0.8
    lam: float = 1.0
    predictor_cfg: TrainConfig = field(default_factory=TrainConfig)
    solver_cfg: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    penalty: float = 2.0
    polish: bool = True

    def __post_init__(self):
        if not 0.0 < self.observe_fraction <= 1.0:
            raise ValueError("observe_fraction must be in (0, 1]")
        _check_lam(self.lam)
        _check_penalty(ProblemKind(self.kind), self.penalty)


@dataclass(frozen=True)
class PipelineResult:
    """Decision plus its evaluation on the true and predicted graphs."""

    assignment: BinaryAssignment
    problem: str
    n: int
    m: int
    observe_fraction: float
    lam: float
    seed: int
    objective_true: float
    objective_predicted: float
    feasible_true: bool
    runtime_ms: float
    h_qubo: float
    l_obj: float
    combined_loss: float

    def to_json(self) -> str:
        """Every field but the assignment, in field order; ``lam`` is keyed
        "lambda"."""
        return json.dumps(
            {
                "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)
                if f.name != "assignment"
            }
        )


@dataclass(frozen=True)
class CoverageModel:
    """Coverage probabilities theta[i, j]: item i covers target j."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=np.float64)
        if t.ndim != 2:
            raise ValueError(f"theta must be 2-d, got shape {t.shape}")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("theta entries must lie in [0, 1]")
        object.__setattr__(self, "theta", t)


def soft_adjacency_graph(soft: SoftAdjacency) -> Graph:
    """Weighted graph of every stored pair whose probability clears the
    cutoff."""
    keep = soft.w >= _SOFT_EDGE_CUTOFF
    return Graph.from_arrays(soft.n, soft.u[keep], soft.v[keep], soft.w[keep])


def combined_loss(
    p, q_pred: QuboMatrix, recon_bce: float, lam: float
) -> float:
    """Relaxed energy on the predicted QUBO plus lam times the predictor's
    reconstruction loss; lam must be nonnegative and finite."""
    _check_lam(lam)
    return eval_hamiltonian(q_pred, np.asarray(p)) + lam * recon_bce


def end_to_end_solve(g_true: Graph, cfg: PipelineConfig) -> PipelineResult:
    """Observe, predict, optimize on the prediction, execute on the truth.

    With full observation the predicted graph collapses to the true one
    (every pair is observed, so none is scored), so at lam = 0 the result is
    bit-identical to the standalone solver under the same solver seed.
    """
    t0 = time.perf_counter()
    kind = ProblemKind(cfg.kind)
    sample = sample_observed_subgraph(g_true, cfg.observe_fraction, cfg.seed)
    params = train_predictor(sample, g_true.n, cfg.predictor_cfg)
    soft = predict_adjacency(params, sample)
    g_pred = soft_adjacency_graph(soft)
    q_pred = build_qubo(kind, g_pred, cfg.penalty)
    l_obj = reconstruction_bce(params, sample)
    soft_assignment, _trace = train(
        g_pred, q_pred, cfg.solver_cfg, loss_offset=cfg.lam * l_obj
    )
    x = project_and_repair(kind, g_true, soft_assignment, polish=cfg.polish)
    h_qubo = eval_hamiltonian(q_pred, np.asarray(soft_assignment))
    return PipelineResult(
        assignment=x,
        problem=kind.value,
        n=g_true.n,
        m=g_true.m,
        observe_fraction=cfg.observe_fraction,
        lam=cfg.lam,
        seed=cfg.seed,
        objective_true=objective(kind, g_true, x),
        objective_predicted=objective(kind, g_pred, x),
        feasible_true=is_feasible(kind, g_true, x),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        h_qubo=h_qubo,
        l_obj=l_obj,
        combined_loss=h_qubo + cfg.lam * l_obj,
    )


def multilinear_value(
    f: Callable[[tuple[int, ...]], float], x: Sequence[float]
) -> float:
    """Expectation of the set function under independent Bernoulli(x_i).

    F(x) = sum over subsets S of f(S) * prod_{i in S} x_i *
    prod_{i not in S} (1 - x_i), by full enumeration. ``f`` receives the
    subset as a sorted tuple of item indices and must satisfy f(()) = 0.

    Raises
    ------
    ValueError
        If there are more than 16 items or f is not normalized.
    """
    xa = np.asarray(x, dtype=np.float64)
    n = len(xa)
    if n > _MULTILINEAR_LIMIT:
        raise ValueError(f"enumeration over {n} items exceeds {_MULTILINEAR_LIMIT}")
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    if f(()) != 0.0:
        raise ValueError("set function must be normalized: f(empty) = 0")
    total = 0.0
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if (mask >> i) & 1)
        prob = 1.0
        for i in range(n):
            prob *= xa[i] if (mask >> i) & 1 else 1.0 - xa[i]
        if prob != 0.0:
            total += f(subset) * prob
    return float(total)


def coverage_multilinear_grads(
    x: Sequence[float], model: CoverageModel
) -> tuple[np.ndarray, np.ndarray]:
    """First derivative of the coverage extension and its theta sensitivity.

    For F(x, theta) = sum_j [1 - prod_i (1 - x_i theta_ij)] returns

    * grad_x[i] = sum_j theta_ij * prod_{l != i} (1 - x_l theta_lj)
    * tensor[i, k, j] = d/dtheta_kj of the j-th term of grad_x[i]:
      -theta_ij * x_k * prod_{l != i,k} (1 - x_l theta_lj) when k != i,
      and prod_{l != i} (1 - x_l theta_lj) when k = i.
    """
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    theta = model.theta
    n, t = theta.shape
    if len(xa) != n:
        raise ValueError(f"x has {len(xa)} items, theta has {n}")
    grad_x = np.zeros(n)
    tensor = np.zeros((n, n, t))
    for j in range(t):
        c = 1.0 - xa * theta[:, j]
        for i in range(n):
            not_i = np.prod(np.delete(c, i))
            grad_x[i] += theta[i, j] * not_i
            tensor[i, i, j] = not_i
            for k in range(n):
                if k != i:
                    not_ik = np.prod(np.delete(c, [i, k]))
                    tensor[i, k, j] = -theta[i, j] * xa[k] * not_ik
    return grad_x, tensor

"""Predict-then-optimize composition.

The end-to-end flow: sample a node-induced observation of the true graph,
train the edge predictor on it, build a QUBO whose edge weights are the
predicted probabilities, descend the relaxed energy with the GCN solver,
then repair and score the decision on the true graph it will be executed
on. The predicted graph is sparse: the observed edges plus a budget of
predicted partners per unobserved node, about as many edges as the true
graph has, and no stage builds an n x n array. The solver never sees
lambda: it only weighs the predictor's frozen reconstruction loss in the
reported ``combined_loss``. The multilinear-extension utilities live in
:mod:`cograd.multilinear` and are re-exported here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .gnn import TrainConfig, _check_seed, _python_numbers, _real
from .gnn import project_and_repair, train
from .graph import Graph, _kept_count, sample_observed_subgraph
from .linkpred import predict_adjacency, reconstruction_bce, train_predictor
from .multilinear import CoverageModel, coverage_multilinear_grads, multilinear_value
from .qubo import (
    BinaryAssignment,
    ProblemKind,
    _check_penalty,
    build_qubo,
    is_feasible,
    objective,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "CoverageModel",
    "end_to_end_solve",
    "soft_adjacency_graph",
    "multilinear_value",
    "coverage_multilinear_grads",
]

# predicted pairs below this probability carry no weight
_SOFT_EDGE_CUTOFF = 1e-3


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end run settings.

    ``seed`` drives the observation sampling; the predictor and solver carry
    their own seeds inside their configs. ``predictor_cfg`` is read only
    when some node is unobserved. ``lam`` weighs the predictor's
    reconstruction loss in the reported ``combined_loss`` only; the solver
    never sees it, so it changes no decision. A numpy number is kept as its
    Python equal, ``x.item()``, so the result's JSON can hold it.
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
        frac, lam = self.observe_fraction, self.lam
        if not (_real(frac) and 0.0 < frac <= 1.0):
            raise ValueError(f"observe_fraction must be in (0, 1], got {frac!r}")
        if not (_real(lam) and 0.0 <= lam < np.inf):
            raise ValueError(
                f"lambda coefficient must be nonnegative and finite, got {lam!r}"
            )
        _check_penalty(ProblemKind(self.kind), self.penalty)
        _check_seed(self.seed)
        _python_numbers(self)


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


def soft_adjacency_graph(g: Graph) -> Graph:
    """The edges of the predicted graph ``g`` whose probability clears the
    cutoff. This is the only filter on predicted weights before the QUBO,
    so it is the one that drops zero weights."""
    keep = g.edge_w >= _SOFT_EDGE_CUTOFF
    return Graph.from_arrays(g.n, g.edge_u[keep], g.edge_v[keep], g.edge_w[keep])


def end_to_end_solve(g_true: Graph, cfg: PipelineConfig) -> PipelineResult:
    """Observe, predict, optimize on the prediction, execute on the truth.

    The nodes are sampled, and the link predictor is trained, scored for
    its reconstruction loss ``l_obj`` and asked for the predicted graph,
    only when the fraction leaves some node unobserved. With full
    observation there is nothing to predict: the solver runs on the true
    graph, weights included, so the result is the standalone solver's under
    the same solver seed, ``l_obj`` is 0.0, ``combined_loss`` is ``h_qubo``
    and ``objective_predicted`` is ``objective_true``. An empty graph
    counts as fully observed at any fraction. A partial observation with
    no observed edge is a ValueError raised before any training.
    ``h_qubo`` is the solver's best loss, which :func:`cograd.gnn.train`
    computes as ``q.value`` of the p it returns.
    """
    t0 = time.perf_counter()
    kind = ProblemKind(cfg.kind)
    l_obj, g_pred = 0.0, g_true
    if _kept_count(g_true.n, cfg.observe_fraction) < g_true.n:
        sample = sample_observed_subgraph(g_true, cfg.observe_fraction, cfg.seed)
        params = train_predictor(sample, g_true.n, cfg.predictor_cfg)
        l_obj = reconstruction_bce(params, sample)
        g_pred = soft_adjacency_graph(predict_adjacency(params, sample))
    q_pred = build_qubo(kind, g_pred, cfg.penalty)
    soft_assignment, trace = train(g_pred, q_pred, cfg.solver_cfg)
    x = project_and_repair(kind, g_true, soft_assignment, polish=cfg.polish)
    h_qubo = trace[-1][2]  # the best loss: H of the p train returns
    objective_true = objective(kind, g_true, x)
    return PipelineResult(
        assignment=x,
        problem=kind.value,
        n=g_true.n,
        m=g_true.m,
        observe_fraction=cfg.observe_fraction,
        lam=cfg.lam,
        seed=cfg.seed,
        objective_true=objective_true,
        objective_predicted=(
            objective_true if g_pred is g_true else objective(kind, g_pred, x)
        ),
        feasible_true=is_feasible(kind, g_true, x),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        h_qubo=h_qubo,
        l_obj=l_obj,
        combined_loss=h_qubo + cfg.lam * l_obj,
    )

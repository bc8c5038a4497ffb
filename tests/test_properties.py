"""Property-based invariants on small unsigned graphs.

Graphs have 0 to 8 nodes, isolated nodes among them, and edge weights that
are 1, 0, fractional or above 1. The runs are derandomized, so every run
tries the same examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cograd.gnn import TrainConfig, project_and_repair, train
from cograd.graph import Graph, parse_gset, write_gset
from cograd.pipeline import PipelineConfig, end_to_end_solve
from cograd.qubo import ProblemKind, build_qubo, is_feasible, objective

_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

_WEIGHTS = st.one_of(
    st.just(1.0),
    st.just(0.0),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(1.0, 1e3, allow_nan=False),
)


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(_WEIGHTS, min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@st.composite
def graphs_with_vector(draw, elements) -> tuple[Graph, np.ndarray]:
    g = draw(graphs())
    x = draw(st.lists(elements, min_size=g.n, max_size=g.n))
    return g, np.array(x, dtype=np.float64)


@_PROPERTY
@given(
    case=graphs_with_vector(st.floats(0.0, 1.0, allow_nan=False)),
    kind=st.sampled_from([ProblemKind.MIS, ProblemKind.MVC]),
)
def test_repair_is_feasible(case, kind):
    g, p = case
    x = project_and_repair(kind, g, p)
    assert is_feasible(kind, g, x)
    # the repair's last scan leaves no eligible flip, so the polish moves nothing
    assert np.array_equal(project_and_repair(kind, g, p, polish=True), x)


@_PROPERTY
@given(g=graphs())
def test_gset_round_trip(g):
    assert parse_gset(write_gset(g)) == g


@_PROPERTY
@given(
    case=graphs_with_vector(st.sampled_from([0.0, 1.0])),
    kind=st.sampled_from(list(ProblemKind)),
)
def test_qubo_value_is_the_objective_on_feasible_binaries(case, kind):
    g, x = case
    # repairing a binary vector gives a feasible one; MaxCut needs none
    x = project_and_repair(kind, g, x)
    sign = {ProblemKind.MAXCUT: -1.0, ProblemKind.MIS: -1.0, ProblemKind.MVC: 1.0}
    want = sign[kind] * objective(kind, g, x)
    assert build_qubo(kind, g).value(x) == pytest.approx(want, rel=1e-12, abs=1e-12)


_SOLVER = TrainConfig(max_epochs=40, patience=20, seed=5)


@settings(_PROPERTY, max_examples=40)
@given(g=graphs(), kind=st.sampled_from(list(ProblemKind)))
@example(g=Graph(0), kind=ProblemKind.MAXCUT)
@example(g=Graph(1), kind=ProblemKind.MIS)
@example(g=Graph(2), kind=ProblemKind.MVC)
@example(g=Graph(5), kind=ProblemKind.MIS)
def test_full_observation_reduces_to_the_standalone_solver(g, kind):
    cfg = PipelineConfig(
        kind=kind,
        observe_fraction=1.0,
        lam=0.0,
        predictor_cfg=TrainConfig(max_epochs=10, seed=5),
        solver_cfg=_SOLVER,
        seed=5,
    )
    soft, _ = train(g, build_qubo(kind, g), _SOLVER)
    alone = project_and_repair(kind, g, soft, polish=True)
    assert np.array_equal(end_to_end_solve(g, cfg).assignment, alone)

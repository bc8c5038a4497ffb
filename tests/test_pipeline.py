"""Tests for the predict-then-optimize pipeline and multilinear utilities."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from scipy.special import expit

import cograd
from cograd import multilinear, pipeline
from cograd.gnn import TrainConfig, project_and_repair, train
from cograd.graph import (
    Graph,
    generate_d_regular,
    generate_erdos_renyi,
    renormalized_adjacency,
    sample_observed_subgraph,
)
from cograd.linkpred import (
    PredictorParams,
    predict_adjacency,
    train_predictor,
)
from cograd.pipeline import (
    CoverageModel,
    PipelineConfig,
    coverage_multilinear_grads,
    end_to_end_solve,
    multilinear_value,
    soft_adjacency_graph,
)
from cograd.qubo import ProblemKind, build_qubo

_FAST_PRED = TrainConfig(seed=1, max_epochs=60, patience=60)
_FAST_SOLVE = TrainConfig(seed=3, max_epochs=600, patience=600)
# weights above 1, below the soft-edge cutoff and 0
_WEIGHTED = Graph(6, [(0, 1, 2.5), (1, 2, 5e-4), (2, 3, 0.0), (3, 4, 7.0),
                      (0, 4, 0.3), (1, 4, 1.0)])


def _cfg(kind, **kw):
    base = dict(
        kind=kind,
        observe_fraction=1.0,
        predictor_cfg=_FAST_PRED,
        solver_cfg=_FAST_SOLVE,
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="observe_fraction"):
        PipelineConfig(kind=ProblemKind.MAXCUT, observe_fraction=0.0)
    with pytest.raises(ValueError, match="observe_fraction"):
        PipelineConfig(kind=ProblemKind.MAXCUT, observe_fraction=1.2)
    with pytest.raises(ValueError, match="nonnegative"):
        PipelineConfig(kind=ProblemKind.MAXCUT, lam=-0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_lambda(value):
    with pytest.raises(ValueError, match="lambda .* finite"):
        PipelineConfig(kind=ProblemKind.MAXCUT, lam=value)


@pytest.mark.parametrize("kind", [ProblemKind.MIS, ProblemKind.MVC])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.0])
def test_config_checks_penalty_before_training(kind, value):
    with pytest.raises(ValueError, match="penalty must be finite and above 1"):
        PipelineConfig(kind=kind, penalty=value)
    # MaxCut has no constraints; the setting is ignored
    PipelineConfig(kind=ProblemKind.MAXCUT, penalty=value)


def test_coverage_model_validation():
    with pytest.raises(ValueError, match="2-d"):
        CoverageModel(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="0, 1"):
        CoverageModel(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError, match="0, 1"):
        CoverageModel(np.array([[-0.1, 0.5]]))
    with pytest.raises(ValueError, match="0, 1"):
        CoverageModel(np.array([[np.nan, 0.5]]))


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e20])
def test_reduction_identity_bit_exact(lam):
    # full observation must reproduce the standalone solver at any lam: the
    # solver never sees it, however large it is against H(p)
    for inst in range(2):
        g = generate_erdos_renyi(10, 0.4, seed=700 + inst)
        for kind in ProblemKind:
            res = end_to_end_solve(g, _cfg(kind, lam=lam, seed=inst))
            q = build_qubo(kind, g)
            soft, _ = train(g, q, _FAST_SOLVE)
            alone = project_and_repair(kind, g, soft, polish=True)
            assert np.array_equal(res.assignment, alone)
            assert res.h_qubo == q.value(soft.p)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_full_observation_of_an_edgeless_graph_is_the_standalone_solver(kind, n):
    # nothing to learn and nothing to predict: no predictor is trained
    g = Graph(n)
    res = end_to_end_solve(g, _cfg(kind, lam=0.0, seed=2))
    soft, _ = train(g, build_qubo(kind, g), _FAST_SOLVE)
    alone = project_and_repair(kind, g, soft, polish=True)
    assert np.array_equal(res.assignment, alone)
    assert res.l_obj == 0.0 and res.feasible_true


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_full_observation_keeps_weights_a_probability_cannot_hold(kind):
    # the truth is the prediction, whatever its weights
    g = _WEIGHTED
    res = end_to_end_solve(g, _cfg(kind, lam=0.0, seed=1))
    soft, _ = train(g, build_qubo(kind, g), _FAST_SOLVE)
    alone = project_and_repair(kind, g, soft, polish=True)
    assert np.array_equal(res.assignment, alone)
    assert res.objective_predicted == res.objective_true
    assert res.h_qubo == build_qubo(kind, g).value(soft.p)


@pytest.mark.parametrize("graph", ["3-regular", "weighted"])
@pytest.mark.parametrize("kind", list(ProblemKind))
def test_full_observation_trains_no_predictor_and_scores_no_pairs(
    monkeypatch, kind, graph
):
    def no_predictor(*args, **kwargs):
        raise AssertionError("the link predictor ran at full observation")

    for name in ("train_predictor", "reconstruction_bce", "predict_adjacency"):
        monkeypatch.setattr(f"cograd.pipeline.{name}", no_predictor)
    g = generate_d_regular(20, 3, seed=4) if graph == "3-regular" else _WEIGHTED
    res = end_to_end_solve(g, _cfg(kind, lam=1e20))
    soft, _ = train(g, build_qubo(kind, g), _FAST_SOLVE)
    alone = project_and_repair(kind, g, soft, polish=True)
    assert np.array_equal(res.assignment, alone)
    assert res.l_obj == 0.0 and res.combined_loss == res.h_qubo


@pytest.mark.parametrize("fraction", [1.0, 0.98, 0.8])
def test_full_observation_draws_no_node_sample_and_scores_once(monkeypatch, fraction):
    # 0.98 of 20 nodes rounds to all 20: that is full observation too
    calls = {"sample": 0, "objective": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr("cograd.pipeline.sample_observed_subgraph",
                        counted("sample", sample_observed_subgraph))
    monkeypatch.setattr("cograd.pipeline.objective", counted("objective", pipeline.objective))
    g = generate_d_regular(20, 3, seed=4)
    res = end_to_end_solve(g, _cfg(ProblemKind.MIS, observe_fraction=fraction))
    partial = fraction == 0.8
    assert calls == {"sample": int(partial), "objective": 1 + int(partial)}
    if not partial:
        assert res.objective_predicted == res.objective_true


def test_empty_graph_counts_as_fully_observed_at_any_fraction():
    res = end_to_end_solve(Graph(0), _cfg(ProblemKind.MIS, observe_fraction=0.3))
    assert res.assignment.shape == (0,) and res.objective_true == 0.0


def test_partial_observation_without_edges_fails_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("cograd.pipeline.train", no_training)
    with pytest.raises(ValueError, match="no edges"):
        end_to_end_solve(Graph(5), _cfg(ProblemKind.MIS, observe_fraction=0.8))


@pytest.mark.parametrize("dims", [{"d0": 0}, {"d1": 3.5}, {"d0": True}])
def test_bad_solver_dims_fail_before_predictor_training(monkeypatch, dims):
    def no_training(*args, **kwargs):
        raise AssertionError("predictor training started")

    monkeypatch.setattr("cograd.pipeline.train_predictor", no_training)
    g = generate_erdos_renyi(30, 0.2, seed=0)
    with pytest.raises(ValueError, match="embedding dims must be at least 1"):
        end_to_end_solve(
            g,
            _cfg(ProblemKind.MIS, observe_fraction=0.8, solver_cfg=TrainConfig(**dims)),
        )


def test_k4_maxcut_full_observation():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    res = end_to_end_solve(k4, _cfg(ProblemKind.MAXCUT))
    assert res.objective_true == 4.0
    assert res.feasible_true


def test_path_mvc_full_observation():
    path = Graph(3, [(0, 1), (1, 2)])
    res = end_to_end_solve(path, _cfg(ProblemKind.MVC))
    assert res.objective_true == 1.0
    assert list(res.assignment) == [0, 1, 0]


def test_repaired_decision_feasible_on_true_graph():
    # feasibility must hold on the executed graph even when the predictor
    # saw only part of it
    for inst, kind in enumerate([ProblemKind.MIS, ProblemKind.MVC]):
        g = generate_erdos_renyi(14, 0.3, seed=40 + inst)
        res = end_to_end_solve(g, _cfg(kind, observe_fraction=0.6, seed=inst))
        assert res.feasible_true
        assert res.n == 14 and res.m == g.m
        assert res.runtime_ms > 0.0


def test_result_json_schema():
    path = Graph(3, [(0, 1), (1, 2)])
    res = end_to_end_solve(path, _cfg(ProblemKind.MVC))
    doc = json.loads(res.to_json())
    assert list(doc) == [
        "problem",
        "n",
        "m",
        "observe_fraction",
        "lambda",
        "seed",
        "objective_true",
        "objective_predicted",
        "feasible_true",
        "runtime_ms",
        "h_qubo",
        "l_obj",
        "combined_loss",
    ]
    assert doc["problem"] == "mvc"
    assert doc["lambda"] == 1.0
    assert isinstance(doc["feasible_true"], bool)


def test_combined_loss_fields_consistent():
    g = generate_erdos_renyi(12, 0.3, seed=9)
    res = end_to_end_solve(
        g, _cfg(ProblemKind.MAXCUT, observe_fraction=0.7, lam=2.5)
    )
    assert res.l_obj > 0.0
    assert res.combined_loss == res.h_qubo + 2.5 * res.l_obj


def test_partial_observation_pipeline_memory_is_bounded():
    # n = 4000, 80 % observed, 5 predictor and 5 solver epochs: the
    # predictor's n x d buffers, the blocks of l_obj and the predicted
    # graph trace 22.9 MiB
    g = generate_d_regular(4000, 3, seed=1)
    five = TrainConfig(seed=0, max_epochs=5, patience=5)
    cfg = _cfg(ProblemKind.MIS, observe_fraction=0.8, seed=1,
               predictor_cfg=five, solver_cfg=five)
    tracemalloc.start()
    try:
        res = end_to_end_solve(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.feasible_true and 0.0 < res.l_obj < np.inf
    assert peak < 25 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_soft_adjacency_graph_cutoff():
    # (1, 2) lies below the cutoff and (0, 2) weighs 0: both are dropped,
    # and (0, 1) exactly at the cutoff is kept
    predicted = Graph(4, [(0, 1, 1e-3), (1, 2, 1e-4), (0, 2, 0.0), (2, 3, 0.9)])
    g = soft_adjacency_graph(predicted)
    assert g.n == 4
    assert g.edges == ((0, 1, 1e-3), (2, 3, 0.9))


def test_multilinear_binary_corners_exact():
    rng = np.random.default_rng(5)
    values = {(): 0.0}
    for mask in range(1, 16):
        values[tuple(i for i in range(4) if (mask >> i) & 1)] = float(
            rng.normal()
        )
    f = lambda s: values[s]
    for mask in range(16):
        x = np.array([(mask >> i) & 1 for i in range(4)], dtype=float)
        subset = tuple(i for i in range(4) if (mask >> i) & 1)
        assert multilinear_value(f, x) == pytest.approx(values[subset])


def test_multilinear_single_edge_cut_half():
    # one edge, both endpoints at probability one half: expected cut is 1/2
    f = lambda s: 1.0 if len(s) == 1 else 0.0
    assert multilinear_value(f, [0.5, 0.5]) == pytest.approx(0.5)


def test_multilinear_matches_coverage_closed_form():
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.05, 0.95, size=(5, 3))

    def f_cov(s):
        if not s:
            return 0.0
        return float(np.sum(1.0 - np.prod(1.0 - theta[list(s), :], axis=0)))

    x = rng.uniform(0.0, 1.0, size=5)
    closed = float(np.sum(1.0 - np.prod(1.0 - x[:, None] * theta, axis=0)))
    assert multilinear_value(f_cov, x) == pytest.approx(closed, abs=1e-12)


def test_multilinear_validation():
    f = lambda s: float(len(s))
    with pytest.raises(ValueError, match="16"):
        multilinear_value(f, np.full(17, 0.5))
    with pytest.raises(ValueError, match="0, 1"):
        multilinear_value(f, [0.5, 1.5])
    with pytest.raises(ValueError, match="0, 1"):
        multilinear_value(f, [np.nan, 0.5])
    with pytest.raises(ValueError, match="normalized"):
        multilinear_value(lambda s: 1.0, [0.5])


def test_coverage_grads_single_item_single_target():
    model = CoverageModel(np.array([[0.7]]))
    gx, tensor = coverage_multilinear_grads([0.4], model)
    assert gx[0] == pytest.approx(0.7)
    assert tensor[0, 0, 0] == pytest.approx(1.0)


def test_coverage_grads_cross_term():
    theta = np.array([[0.6], [0.3]])
    x = np.array([0.2, 0.5])
    gx, tensor = coverage_multilinear_grads(x, CoverageModel(theta))
    assert gx[0] == pytest.approx(0.6 * (1.0 - 0.5 * 0.3))
    assert tensor[0, 1, 0] == pytest.approx(-0.6 * 0.5)
    assert tensor[1, 0, 0] == pytest.approx(-0.3 * 0.2)


def test_coverage_grads_match_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(5):
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 5))
        theta = rng.uniform(0.05, 0.95, size=(n, t))
        x = rng.uniform(0.05, 0.95, size=n)
        gx, tensor = coverage_multilinear_grads(x, CoverageModel(theta))

        def closed(xv, th):
            return float(np.sum(1.0 - np.prod(1.0 - xv[:, None] * th, axis=0)))

        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (closed(xp, theta) - closed(xm, theta)) / (2 * h)
            assert abs(fd - gx[i]) < 1e-6
        for k in range(n):
            for j in range(t):
                tp, tm = theta.copy(), theta.copy()
                tp[k, j] += h
                tm[k, j] -= h
                gp, _ = coverage_multilinear_grads(x, CoverageModel(tp))
                gm, _ = coverage_multilinear_grads(x, CoverageModel(tm))
                fd = (gp - gm) / (2 * h)
                assert np.max(np.abs(fd - tensor[:, k, j])) < 1e-6


def _coverage_grads_by_deletion(x, theta):
    """Reference: every product that leaves items out is taken over
    np.delete of those items, O(n^2 t) products."""
    n, t = theta.shape
    grad_x = np.zeros(n)
    tensor = np.zeros((n, n, t))
    for j in range(t):
        c = 1.0 - x * theta[:, j]
        for i in range(n):
            not_i = np.prod(np.delete(c, i))
            grad_x[i] += theta[i, j] * not_i
            tensor[i, i, j] = not_i
            for k in range(n):
                if k != i:
                    not_ik = np.prod(np.delete(c, [i, k]))
                    tensor[i, k, j] = -theta[i, j] * x[k] * not_ik
    return grad_x, tensor


def test_coverage_grads_match_the_deletion_reference():
    # including zero factors, x_i = theta_ij = 1, which rule out division
    rng = np.random.default_rng(33)
    eps = np.finfo(np.float64).eps
    for case in range(60):
        n = int(rng.integers(0, 9))
        t = int(rng.integers(1, 5))
        theta = rng.uniform(0.0, 1.0, size=(n, t))
        x = rng.uniform(0.0, 1.0, size=n)
        if n and case % 2:
            ones = rng.integers(0, n, size=2)
            x[ones] = 1.0
            theta[ones, rng.integers(0, t)] = 1.0
        gx, tensor = multilinear.coverage_multilinear_grads(
            x, multilinear.CoverageModel(theta)
        )
        ref_gx, ref_tensor = _coverage_grads_by_deletion(x, theta)
        # products of up to n factors in [0, 1], summed over t targets
        atol = 4 * (n + t) * eps
        np.testing.assert_allclose(gx, ref_gx, rtol=0.0, atol=atol)
        np.testing.assert_allclose(tensor, ref_tensor, rtol=0.0, atol=atol)


def test_pipeline_re_exports_the_multilinear_utilities():
    for name in multilinear.__all__:
        assert getattr(pipeline, name) is getattr(multilinear, name)
        assert getattr(cograd, name) is getattr(multilinear, name)


@pytest.mark.parametrize("x", [[1.5], [-0.1], [np.nan]], ids=["above", "below", "nan"])
def test_coverage_grads_reject_x_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match="0, 1"):
        coverage_multilinear_grads(x, CoverageModel(np.array([[0.5]])))


def test_coverage_grads_shape_mismatch():
    with pytest.raises(ValueError, match="items"):
        coverage_multilinear_grads([0.5], CoverageModel(np.full((2, 2), 0.5)))


def test_predictor_perturbation_barely_moves_solver_loss():
    # tiny predictor perturbations must not jolt the relaxed energy the
    # solver descends, otherwise the composed objective is not smooth
    g = generate_erdos_renyi(12, 0.35, seed=17)
    sample = sample_observed_subgraph(g, 0.8, seed=0)
    params = train_predictor(sample, g.n, _FAST_PRED)
    q = build_qubo(ProblemKind.MAXCUT, soft_adjacency_graph(predict_adjacency(params, sample)))
    soft, _ = train(g, q, _FAST_SOLVE)
    p = np.asarray(soft)
    base = q.value(p)
    rng = np.random.default_rng(1)
    params.embed += rng.uniform(-1e-6, 1e-6, size=params.embed.shape)
    params.w += rng.uniform(-1e-6, 1e-6, size=params.w.shape)
    q2 = build_qubo(
        ProblemKind.MAXCUT, soft_adjacency_graph(predict_adjacency(params, sample))
    )
    assert abs(q2.value(p) - base) <= 1e-3


def _dense_predicted_graph(params, sample):
    """The predicted graph through a dense n x n matrix: every pair scored,
    symmetrized, observed pairs overwritten with their clipped truth, pairs
    below 1e-3 dropped."""
    n = params.full_n
    kept, og = sample.kept_nodes, sample.observed_graph
    known = Graph.from_arrays(n, kept[og.edge_u], kept[og.edge_v], og.edge_w)
    z = (renormalized_adjacency(known) @ params.embed) @ params.w
    probs = expit(z @ z.T)
    np.fill_diagonal(probs, 0.0)
    probs = (probs + probs.T) / 2.0
    block = np.zeros((len(kept), len(kept)))
    block[og.edge_u, og.edge_v] = og.edge_w
    block[og.edge_v, og.edge_u] = og.edge_w
    probs[np.ix_(kept, kept)] = np.clip(block, 0.0, 1.0)
    iu, iv = np.triu_indices(n, k=1)
    w = probs[iu, iv]
    keep = w >= 1e-3
    return Graph.from_arrays(n, iu[keep], iv[keep], w[keep])


@pytest.mark.parametrize(
    "n, edges",
    [
        # weights above 1, below the 1e-3 cutoff, negative; isolated nodes 5, 6
        (7, [(0, 1, 2.5), (1, 2, 5e-4), (2, 3, -0.25), (3, 4, 0.4), (0, 4, 1e-3),
             (1, 3, 1.0), (0, 2, 0.0)]),
        (12, [(u, v, 1.0) for u, v in [(0, 1), (1, 2), (2, 0), (3, 4), (8, 9)]]),
        (3, []),
        (1, []),
    ],
)
def test_full_observation_prediction_equals_dense_reference(n, edges):
    g = Graph(n, edges)
    sample = sample_observed_subgraph(g, 1.0, seed=0)
    rng = np.random.default_rng(n)
    params = PredictorParams(embed=rng.normal(size=(n, 4)), w=rng.normal(size=(4, 3)))
    got = soft_adjacency_graph(predict_adjacency(params, sample))
    want = _dense_predicted_graph(params, sample)
    assert got == want
    for a, b in [(got.edge_u, want.edge_u), (got.edge_v, want.edge_v),
                 (got.edge_w, want.edge_w), (got.degree, want.degree)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)

from __future__ import annotations

import numpy as np
import pytest

from cograd.baselines import dga, one_flip_local_search
from cograd.graph import Graph, generate_erdos_renyi
from cograd.qubo import ProblemKind, brute_force_optimum, is_feasible, objective


def test_dga_maxcut_cycle_reaches_optimum():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    x = dga(ProblemKind.MAXCUT, g)
    assert objective(ProblemKind.MAXCUT, g, x) == 4.0


def test_dga_mis_star_picks_leaves():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    x = dga(ProblemKind.MIS, g)
    assert list(x) == [0, 1, 1, 1, 1]
    assert objective(ProblemKind.MIS, g, x) == 4.0


def test_dga_mvc_star_picks_center():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    x = dga(ProblemKind.MVC, g)
    assert list(x) == [1, 0, 0, 0, 0]
    assert objective(ProblemKind.MVC, g, x) == 1.0


def test_dga_feasible_and_deterministic():
    for seed in range(8):
        g = generate_erdos_renyi(20, 0.25, seed=seed)
        for kind in ProblemKind:
            x = dga(kind, g)
            assert is_feasible(kind, g, x)
            assert np.array_equal(x, dga(kind, g))


def test_dga_mis_output_is_maximal():
    for seed in range(5):
        g = generate_erdos_renyi(18, 0.3, seed=seed)
        x = dga(ProblemKind.MIS, g)
        for v in range(g.n):
            if x[v] == 0:
                assert np.any(x[g.indices[g.indptr[v] : g.indptr[v + 1]]] == 1)


def test_local_search_fixed_point_at_optimum():
    # started from the exact optimum, the search must return it unchanged
    for seed in range(30):
        g = generate_erdos_renyi(10, 0.35, seed=seed)
        for kind in ProblemKind:
            xo, vo = brute_force_optimum(kind, g)
            x = one_flip_local_search(kind, g, xo)
            assert objective(kind, g, x) == vo
            assert is_feasible(kind, g, x)


def test_local_search_maxcut_from_zeros():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    x = one_flip_local_search(ProblemKind.MAXCUT, g, np.zeros(4, dtype=np.int64))
    assert objective(ProblemKind.MAXCUT, g, x) == 4.0


def test_local_search_mvc_strips_redundancy():
    g = Graph(3, [(0, 1), (1, 2)])
    x = one_flip_local_search(ProblemKind.MVC, g, np.array([1, 1, 1]))
    assert list(x) == [0, 1, 0]


def test_local_search_rejects_infeasible_start():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="feasible"):
        one_flip_local_search(ProblemKind.MIS, g, np.array([1, 1]))
    with pytest.raises(ValueError, match="feasible"):
        one_flip_local_search(ProblemKind.MVC, g, np.array([0, 0]))


def test_local_search_never_worsens():
    rng = np.random.default_rng(3)
    for seed in range(6):
        g = generate_erdos_renyi(15, 0.3, seed=seed)
        for kind in ProblemKind:
            if kind is ProblemKind.MAXCUT:
                x0 = rng.integers(0, 2, g.n)
            elif kind is ProblemKind.MIS:
                x0 = np.zeros(g.n, dtype=np.int64)
            else:
                x0 = np.ones(g.n, dtype=np.int64)
            v0 = objective(kind, g, x0)
            x = one_flip_local_search(kind, g, x0)
            v = objective(kind, g, x)
            assert is_feasible(kind, g, x)
            assert v >= v0 if kind.maximize else v <= v0


def test_local_search_weighted_terminates():
    rng = np.random.default_rng(9)
    g = generate_erdos_renyi(12, 0.4, seed=1)
    g = Graph(g.n, zip(g.edge_u, g.edge_v, rng.uniform(0.5, 3.0, g.m)))
    x = one_flip_local_search(ProblemKind.MAXCUT, g, np.zeros(g.n, dtype=np.int64))
    # local optimality: no single flip improves
    for v in range(g.n):
        y = x.copy()
        y[v] = 1 - y[v]
        assert objective(ProblemKind.MAXCUT, g, y) <= objective(ProblemKind.MAXCUT, g, x)

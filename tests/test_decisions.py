"""Repair, local search and dga against the plain sequential loops.

The library computes these decisions with array code and priority queues.
The loops below are the definitions they must match bit for bit: every
test here requires equal arrays, on any finite weights.
"""

from __future__ import annotations

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cograd.baselines import dga, one_flip_local_search
from cograd.gnn import TrainConfig, project_and_repair, train
from cograd.graph import Graph, generate_d_regular, generate_erdos_renyi
from cograd.qubo import (
    ProblemKind,
    build_qubo,
    export_coordinate_text,
    is_feasible,
    objective,
)

MAXCUT, MIS, MVC = ProblemKind.MAXCUT, ProblemKind.MIS, ProblemKind.MVC

_SPEC = importlib.util.spec_from_file_location(
    "decisions", Path(__file__).resolve().parent.parent / "scripts" / "decisions.py"
)
decisions = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(decisions)


def _row(g, v):
    """Node v's neighbours and their weights, sliced from the CSR."""
    lo, hi = g.indptr[v], g.indptr[v + 1]
    return g.indices[lo:hi], g.weights[lo:hi]


def _reference_flip_improves(kind, g, x, v):
    nbrs, wts = _row(g, v)
    if kind is MAXCUT:
        cut_now = x[nbrs] != x[v]
        return float(np.sum(wts[~cut_now]) - np.sum(wts[cut_now])) > 0.0
    if kind is MIS:
        return x[v] == 0 and not np.any(x[nbrs] == 1)
    return x[v] == 1 and bool(np.all(x[nbrs] == 1))


def _reference_local_search(kind, g, x0):
    """First-improvement 1-flip search: ascending scans until one flips
    nothing."""
    x = np.asarray(x0, dtype=np.int64).copy()
    assert is_feasible(kind, g, x)
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            if _reference_flip_improves(kind, g, x, v):
                x[v] = 1 - x[v]
                improved = True
    return x


def _reference_repair(kind, g, p, polish=False):
    """Threshold at 0.5, fix each violated edge in canonical order by its
    heavier endpoint, then add (MIS, ascending) or drop (MVC, descending)
    every node the constraints allow."""
    x = (np.asarray(p, dtype=np.float64) >= 0.5).astype(np.int64)
    if kind is MIS:
        for u, v in zip(g.edge_u, g.edge_v):
            if x[u] == 1 and x[v] == 1:
                x[v if g.degree[v] >= g.degree[u] else u] = 0
        for i in range(g.n):
            if x[i] == 0 and not np.any(x[_row(g, i)[0]] == 1):
                x[i] = 1
    elif kind is MVC:
        for u, v in zip(g.edge_u, g.edge_v):
            if x[u] == 0 and x[v] == 0:
                x[u if g.degree[u] >= g.degree[v] else v] = 1
        for i in range(g.n - 1, -1, -1):
            if x[i] == 1 and bool(np.all(x[_row(g, i)[0]] == 1)):
                x[i] = 0
    return _reference_local_search(kind, g, x) if polish else x


def _reference_dga(kind, g):
    """Greedy by degree; residual degrees recounted over every edge for
    each pick."""
    x = np.zeros(g.n, dtype=np.int64)
    if kind is MAXCUT:
        placed = np.zeros(g.n, dtype=bool)
        for v in np.lexsort((np.arange(g.n), -g.degree)):
            nbrs, wts = _row(g, v)
            seen = placed[nbrs]
            gain_in = float(np.sum(wts[seen & (x[nbrs] == 0)]))
            gain_out = float(np.sum(wts[seen & (x[nbrs] == 1)]))
            x[v] = 1 if gain_in >= gain_out else 0
            placed[v] = True
    elif kind is MIS:
        alive = np.ones(g.n, dtype=bool)
        while np.any(alive):
            deg = np.zeros(g.n, dtype=np.int64)
            live = alive[g.edge_u] & alive[g.edge_v]
            np.add.at(deg, g.edge_u[live], 1)
            np.add.at(deg, g.edge_v[live], 1)
            v = int(np.argmin(np.where(alive, deg, np.iinfo(np.int64).max)))
            x[v] = 1
            alive[v] = False
            alive[_row(g, v)[0]] = False
    else:
        covered = np.zeros(g.m, dtype=bool)
        while not np.all(covered):
            deg = np.zeros(g.n, dtype=np.int64)
            np.add.at(deg, g.edge_u[~covered], 1)
            np.add.at(deg, g.edge_v[~covered], 1)
            v = int(np.argmax(deg))
            x[v] = 1
            covered |= (g.edge_u == v) | (g.edge_v == v)
    return x


def _assert_all_match(g, p):
    """Repair with and without polish, local search from the repair (and
    from a MaxCut threshold) and dga, each equal to its reference."""
    for kind in ProblemKind:
        x0 = _reference_repair(kind, g, p)
        assert np.array_equal(project_and_repair(kind, g, p), x0)
        want = _reference_local_search(kind, g, x0)
        assert np.array_equal(project_and_repair(kind, g, p, polish=True), want)
        assert np.array_equal(one_flip_local_search(kind, g, x0), want)
        assert np.array_equal(dga(kind, g), _reference_dga(kind, g))


# Signed weights are drawn here only: the other properties stay unsigned.
_SIGNED_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.0, -1.0, 0.1, 0.2, 0.3, 1.0 / 3.0, -0.5, 2.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_P = st.one_of(st.sampled_from([0.0, 0.5, 1.0, np.nextafter(0.5, 0.0)]), st.floats(0.0, 1.0))


@st.composite
def _signed_cases(draw) -> tuple[Graph, np.ndarray]:
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(_SIGNED_WEIGHTS, min_size=len(chosen), max_size=len(chosen)))
    g = Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])
    fill = draw(st.sampled_from(["each", 0.0, 0.5, 1.0]))
    if fill == "each":
        return g, np.array(draw(st.lists(_P, min_size=n, max_size=n)), dtype=np.float64)
    return g, np.full(n, fill)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=_signed_cases())
@example(case=(Graph(0), np.zeros(0)))
@example(case=(Graph(1), np.ones(1)))
@example(case=(Graph(2, [(0, 1, -1.0)]), np.full(2, 0.5)))
@example(case=(Graph(2, [(0, 1, 0.0)]), np.zeros(2)))
@example(case=(Graph(5, [(1, 3, 0.3)]), np.ones(5)))
def test_decisions_match_the_sequential_loops(case):
    _assert_all_match(*case)


# Shapes whose scan order follows long chains of neighbours, as the script
# builds them. Relabelling a path in reverse gives the same graph, so the
# second path runs up the even nodes and back down the odd ones: a chain
# against either scan direction.
_CHAINS = {name: make for name, make in decisions.REPAIR_GRAPHS
           if name in ("path", "folded-path", "torus")}


@pytest.mark.parametrize("case", [0, 1, *_CHAINS])
def test_decisions_match_on_a_large_regular_graph(case):
    """3-regular n = 3000 at seeds 0 and 1, from its trained p too, and the
    chain shapes, from p = 0, p = 1 and a seeded uniform p."""
    trained = case in (0, 1)
    g = generate_d_regular(3000, 3, case) if trained else _CHAINS[case]()
    seed = case if trained else 0
    rng = np.random.default_rng(seed)
    for kind in ProblemKind:
        ps = [np.zeros(g.n), np.ones(g.n), rng.uniform(size=g.n)]
        if trained:
            cfg = TrainConfig(max_epochs=100, patience=100, seed=seed)
            ps.insert(0, train(g, build_qubo(kind, g), cfg)[0])
        for p in ps:
            x0 = _reference_repair(kind, g, p)
            assert np.array_equal(project_and_repair(kind, g, p), x0)
            want = _reference_local_search(kind, g, x0)
            assert np.array_equal(project_and_repair(kind, g, p, polish=True), want)


@pytest.mark.parametrize("make", [
    lambda s: generate_d_regular(100, 3, s),
    lambda s: generate_erdos_renyi(150, 3.0 / 149, s),
    lambda s: generate_d_regular(200, 3, s),
    lambda s: generate_erdos_renyi(250, 3.0 / 249, s),
])
def test_dga_and_polish_match_on_small_suite_graphs(make):
    for seed in range(3):
        g = make(seed)
        for kind in ProblemKind:
            x0 = dga(kind, g)
            assert np.array_equal(x0, _reference_dga(kind, g))
            assert np.array_equal(one_flip_local_search(kind, g, x0),
                                  _reference_local_search(kind, g, x0))


@pytest.mark.parametrize(("weights", "x", "flips_0"), [
    # same side 0.1 + 0.2 = 0.30000000000000004 against a cut 0.3: gains 5.6e-17
    ((0.1, 0.2, 0.3), [0, 0, 0, 1], True),
    # same side 0.4 against a cut 0.1 + 0.3 = 0.4 exactly: no gain, although
    # the row summed in order, -0.1 + 0.4 - 0.3, reads +5.6e-17
    ((0.1, 0.4, 0.3), [0, 1, 0, 1], False),
])
def test_maxcut_near_tie_is_decided_by_the_exact_sum(weights, x, flips_0):
    g = Graph(4, [(0, 1, weights[0]), (0, 2, weights[1]), (0, 3, weights[2])])
    x = np.array(x)
    want = _reference_local_search(MAXCUT, g, x)
    got = one_flip_local_search(MAXCUT, g, x)
    assert np.array_equal(got, want)
    assert (got[0] != x[0]) == flips_0


_EDGE = Graph(2, [(0, 1)])


@pytest.mark.parametrize(("call", "bad"), [
    (lambda: is_feasible(MIS, _EDGE, [2, 0]), 0),
    (lambda: objective(MIS, _EDGE, [2, 0]), 0),
    (lambda: objective(MAXCUT, _EDGE, [0, -1]), 1),
    (lambda: one_flip_local_search(MIS, _EDGE, [0.9, 0.9]), 0),
    (lambda: one_flip_local_search(MVC, _EDGE, [1, 2]), 1),
    (lambda: is_feasible(MVC, _EDGE, [1.0, np.nan]), 1),
])
def test_non_binary_assignment_is_rejected(call, bad):
    with pytest.raises(ValueError, match=f"entry {bad} "):
        call()


def test_bool_and_float_binaries_are_accepted():
    assert is_feasible(MIS, _EDGE, np.array([True, False]))
    assert objective(MAXCUT, _EDGE, [0.0, 1.0]) == 1.0
    assert list(one_flip_local_search(MVC, _EDGE, [1.0, 1.0])) == [0, 1]


def test_decisions_script_prints_one_line_per_case():
    """scripts/decisions.py: its names are unique words, and its first case
    hashes the sequential repair."""
    names = [name for name, _ in decisions.cases()]
    assert len(names) == len(set(names)) and all(re.fullmatch(r"\S+", n) for n in names)
    name, decide = next(decisions.cases())
    assert name == "repair/reg-100/mis/p=0"
    want = _reference_repair(MIS, generate_d_regular(100, 3, 0), np.zeros(100))
    assert re.fullmatch("[0-9a-f]{40}", decisions.digest(decide()))
    assert decisions.digest(decide()) == decisions.digest(want)


def test_decisions_script_hashes_qubo_bytes_as_they_are():
    """The qubo cases hash the coordinate text and the CSR arrays, uncast."""
    decide = dict(decisions.cases())["qubo/weighted/mis"]
    g = Graph(6, [(0, 1, 2.5), (1, 2, -0.25), (2, 3, 0.0), (0, 4, 1e-3)])
    q = build_qubo(MIS, g)
    csr = q._offdiag
    want = export_coordinate_text(q).encode() + csr.indptr.tobytes()
    want += csr.indices.tobytes() + csr.data.tobytes()
    assert decide() == want
    assert decisions.digest(want) == hashlib.sha1(want).hexdigest()

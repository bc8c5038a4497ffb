from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cograd.graph import Graph, generate_erdos_renyi
from cograd.qubo import (
    ProblemKind,
    QuboMatrix,
    brute_force_optimum,
    build_qubo,
    export_coordinate_text,
    is_feasible,
    objective,
)


def test_single_edge_maxcut_values():
    g = Graph(2, [(0, 1)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    # relaxed midpoint sits at half the optimal cut's energy
    assert q.value([0.5, 0.5]) == -0.5
    assert q.value([0, 0]) == 0.0
    assert q.value([0, 1]) == -1.0
    assert q.value([1, 0]) == -1.0
    assert q.value([1, 1]) == 0.0


def test_maxcut_energy_is_negated_cut():
    for seed in range(5):
        g = generate_erdos_renyi(10, 0.4, seed=seed)
        rng = np.random.default_rng(seed)
        g = Graph(g.n, zip(g.edge_u, g.edge_v, rng.integers(1, 4, g.m)))
        q = build_qubo(ProblemKind.MAXCUT, g)
        for _ in range(20):
            x = rng.integers(0, 2, g.n)
            assert -q.value(x) == objective(ProblemKind.MAXCUT, g, x)


def test_mis_energy_matches_size_when_feasible():
    for seed in range(5):
        g = generate_erdos_renyi(10, 0.4, seed=seed)
        q = build_qubo(ProblemKind.MIS, g)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            x = rng.integers(0, 2, g.n)
            h = q.value(x)
            if is_feasible(ProblemKind.MIS, g, x):
                assert h == -objective(ProblemKind.MIS, g, x)
            else:
                # each violated edge costs the penalty weight 2 > 1
                assert h > -np.sum(x)


def test_mvc_energy_matches_size_when_feasible():
    for seed in range(5):
        g = generate_erdos_renyi(10, 0.4, seed=seed)
        q = build_qubo(ProblemKind.MVC, g)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            x = rng.integers(0, 2, g.n)
            h = q.value(x)
            if is_feasible(ProblemKind.MVC, g, x):
                assert h == objective(ProblemKind.MVC, g, x)
            else:
                assert h > np.sum(x)


def test_penalty_makes_optimum_feasible():
    # with any P > 1 the Hamiltonian minimum is attained by a feasible x;
    # the energies come from an independent dense quadratic form
    for seed in range(6):
        g = generate_erdos_renyi(10, 0.35, seed=seed)
        n = g.n
        masks = np.arange(1 << n)
        bits = ((masks[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(float)
        for kind in (ProblemKind.MIS, ProblemKind.MVC):
            for penalty in (1.5, 2.0, 4.0):
                q = build_qubo(kind, g, penalty=penalty)
                dense = np.zeros((n, n))
                for (i, j), c in q.entries.items():
                    dense[i, j] += c
                    if i != j:
                        dense[j, i] += c
                h = np.einsum("bi,ij,bj->b", bits, dense, bits) + q.offset
                x = bits[int(np.argmin(h))].astype(int)
                assert is_feasible(kind, g, x)
                xo, vo = brute_force_optimum(kind, g)
                assert objective(kind, g, x) == vo
                assert q.value(x) == np.min(h)


def test_penalty_at_most_one_rejected():
    g = Graph(2, [(0, 1)])
    for kind in (ProblemKind.MIS, ProblemKind.MVC):
        with pytest.raises(ValueError, match="penalty"):
            build_qubo(kind, g, penalty=1.0)
    # MaxCut has no constraints; the argument is ignored
    build_qubo(ProblemKind.MAXCUT, g, penalty=0.0)


@pytest.mark.parametrize("kind", [ProblemKind.MIS, ProblemKind.MVC])
@pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
def test_non_finite_penalty_rejected(kind, penalty):
    with pytest.raises(ValueError, match="penalty must be finite"):
        build_qubo(kind, Graph(2, [(0, 1)]), penalty=penalty)


def test_mis_triangle_hand_values():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    q = build_qubo(ProblemKind.MIS, g)
    x, v = brute_force_optimum(ProblemKind.MIS, g)
    assert v == 1.0
    # lexicographically smallest optimal singleton
    assert list(x) == [0, 0, 1]
    assert q.value(x) == -1.0
    assert q.value([1, 1, 1]) == -3.0 + 3 * 2.0


def test_mvc_path_hand_values():
    g = Graph(3, [(0, 1), (1, 2)])
    q = build_qubo(ProblemKind.MVC, g)
    x, v = brute_force_optimum(ProblemKind.MVC, g)
    assert v == 1.0
    assert list(x) == [0, 1, 0]
    assert q.value(x) == 1.0
    # empty cover violates both edges: offset alone remains
    assert q.value([0, 0, 0]) == 4.0


def test_relaxed_and_binary_paths_agree_bitwise():
    for seed in range(4):
        g = generate_erdos_renyi(12, 0.3, seed=seed)
        rng = np.random.default_rng(seed)
        for kind in ProblemKind:
            q = build_qubo(kind, g)
            x = rng.integers(0, 2, g.n)
            assert q.value(x) == q.value(x.astype(np.float64))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    g = generate_erdos_renyi(9, 0.5, seed=1)
    for kind in ProblemKind:
        q = build_qubo(kind, g)
        p = rng.uniform(0.1, 0.9, g.n)
        grad = q.gradient(p)
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = 1e-6
            fd = (q.value(p + e) - q.value(p - e)) / 2e-6
            assert abs(grad[i] - fd) < 1e-6


def test_brute_force_ties_are_lexicographic():
    # two isolated nodes, MaxCut: every assignment cuts 0, smallest is 00
    g = Graph(2)
    x, v = brute_force_optimum(ProblemKind.MAXCUT, g)
    assert v == 0.0 and list(x) == [0, 0]
    # single edge MIS: both singletons are optimal, 01 < 10
    g = Graph(2, [(0, 1)])
    x, v = brute_force_optimum(ProblemKind.MIS, g)
    assert v == 1.0 and list(x) == [0, 1]
    x, v = brute_force_optimum(ProblemKind.MVC, g)
    assert v == 1.0 and list(x) == [0, 1]


def test_brute_force_guard():
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_optimum(ProblemKind.MAXCUT, Graph(25))


def test_brute_force_chunking_consistent():
    # n > 16 exercises the chunked path; compare against a direct n=17 scan
    g = generate_erdos_renyi(17, 0.1, seed=3)
    x, v = brute_force_optimum(ProblemKind.MAXCUT, g)
    assert is_feasible(ProblemKind.MAXCUT, g, x)
    assert objective(ProblemKind.MAXCUT, g, x) == v
    q = build_qubo(ProblemKind.MAXCUT, g)
    assert -q.value(x) == v


def test_qubo_matrix_merges_and_validates():
    q = QuboMatrix(3, {(1, 0): 1.0, (0, 1): 2.0, (2, 2): -1.0}, offset=5.0)
    assert q.entries == {(0, 1): 3.0, (2, 2): -1.0}
    assert q.value([1, 1, 1]) == 2 * 3.0 - 1.0 + 5.0
    with pytest.raises(ValueError, match="out of range"):
        QuboMatrix(2, {(0, 2): 1.0})
    for entries, offset, message in [
        ({(0, 1): np.nan}, 0.0, "entry (0,1) must be finite, got nan"),
        ({(1, 1): np.inf}, 0.0, "entry (1,1) must be finite, got inf"),
        # the sum of two finite entries overflows
        ({(0, 1): 1e308, (1, 0): 1e308}, 0.0, "entry (0,1) must be finite, got inf"),
        ({(0, 0): 1.0}, np.inf, "offset must be finite, got inf"),
    ]:
        with pytest.raises(ValueError) as err:
            QuboMatrix(2, entries, offset=offset)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="shape"):
        q.value(np.zeros(2))


@pytest.mark.parametrize(("entries", "message"), [
    ({(0.5, 1): 1.0, (1.7, 1.7): 2.0}, "entry (0.5,1) has an index that is not an integer"),
    ({(0, 1): 1.0, (2, np.float64(1.5)): 2.0}, "entry (2,1.5) has an index that is not an integer"),
    ({(np.float32(2.25), 0): 1.0}, "entry (2.25,0) has an index that is not an integer"),
], ids=["float", "numpy-float64", "numpy-float32"])
def test_qubo_matrix_rejects_non_integer_keys(entries, message):
    with pytest.raises(ValueError) as err:
        QuboMatrix(3, entries)
    assert str(err.value) == message


def test_qubo_matrix_accepts_integral_keys():
    q = QuboMatrix(3, {(np.int64(2), 0): 1.0, (1.0, 1): 2.0, (np.int32(0), np.float64(1.0)): 3.0})
    assert q.entries == {(0, 2): 1.0, (1, 1): 2.0, (0, 1): 3.0}


def test_export_coordinate_text():
    g = Graph(3, [(0, 1), (1, 2)])
    q = build_qubo(ProblemKind.MVC, g, penalty=2.0)
    text = export_coordinate_text(q)
    lines = text.strip().splitlines()
    assert lines[0] == "3 4"
    assert "0 1 1" in lines and "1 2 1" in lines
    assert "0 0 -1" in lines and "1 1 -3" in lines and "2 2 -1" in lines


def _reference_qubo(kind, g, penalty=2.0):
    """build_qubo as a per-edge loop into a dict, through the public dict
    constructor."""
    entries, offset = {}, 0.0

    def add(i, j, c):
        key = (i, j) if i <= j else (j, i)
        entries[key] = entries.get(key, 0.0) + c

    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w))
    if kind is ProblemKind.MAXCUT:
        penalty = 0.0
        for u, v, w in edges:
            add(u, v, w)
            add(u, u, -w)
            add(v, v, -w)
    else:
        sign = -1.0 if kind is ProblemKind.MIS else 1.0
        for i in range(g.n):
            add(i, i, sign)
        for u, v, w in edges:
            pw = penalty * w
            add(u, v, pw / 2.0)
            if kind is ProblemKind.MVC:
                add(u, u, -pw)
                add(v, v, -pw)
                offset += pw
    return QuboMatrix(g.n, entries, offset=offset, penalty=penalty)


def _qubo_graphs():
    rng = np.random.default_rng(8)
    signed = generate_erdos_renyi(30, 0.25, seed=4)
    w = rng.normal(0.0, 1.5, signed.m)
    w[:4] = [0.0, -0.0, 1e-3, -7.25]
    return [
        Graph(0),
        Graph(1),
        Graph(2),
        Graph(2, [(0, 1, 0.3)]),
        Graph(6, [(0, 1), (1, 2), (4, 5, -1.0)]),
        Graph(signed.n + 3, zip(signed.edge_u, signed.edge_v, w)),
        generate_erdos_renyi(60, 0.5, seed=9),
    ]


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("g", _qubo_graphs(), ids=repr)
def test_build_qubo_bit_identical_to_per_edge_loop(kind, g):
    for penalty in (2.0, 3.7):
        got, want = build_qubo(kind, g, penalty), _reference_qubo(kind, g, penalty)
        assert got.entries == want.entries
        assert got.offset == want.offset and got.penalty == want.penalty
        assert repr(got) == repr(want)
        rng = np.random.default_rng(g.n)
        for x in (rng.random(g.n), rng.integers(0, 2, g.n), np.ones(g.n)):
            assert got.value(x) == want.value(x)
            assert np.array_equal(got.gradient(x), want.gradient(x))


def test_entries_keep_explicit_zeros():
    g = Graph(4, [(0, 1, 0.0), (2, 3, 1.0), (1, 2, -1.0)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    assert q.entries == {(0, 1): 0.0, (0, 0): 0.0, (1, 1): 1.0, (2, 3): 1.0,
                         (2, 2): 0.0, (3, 3): -1.0, (1, 2): -1.0}
    assert build_qubo(ProblemKind.MAXCUT, Graph(3, [(0, 1)])).entries == {
        (0, 1): 1.0, (0, 0): -1.0, (1, 1): -1.0}


def _scipy_offdiag(q):
    """Q's off-diagonal part, both triangles, rebuilt from ``entries`` as a
    scipy CSR array."""
    upper = [(i, j, c) for (i, j), c in q.entries.items() if i != j]
    i = np.array([e[0] for e in upper], dtype=np.int64)
    j = np.array([e[1] for e in upper], dtype=np.int64)
    c = np.array([e[2] for e in upper], dtype=np.float64)
    return sp.csr_array(
        (np.concatenate([c, c]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(q.n, q.n),
    )


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("g", _qubo_graphs(), ids=repr)
def test_value_and_gradient_bit_identical_to_scipy_product(kind, g):
    # both constructors: build_qubo and the dict one, through the loop
    for q in (build_qubo(kind, g, 3.7), _reference_qubo(kind, g, 3.7)):
        off = _scipy_offdiag(q)
        # the same entries in the same order; the index dtype, which scipy
        # picks from its inputs, does not change a product
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(q._offdiag, name), getattr(off, name))
        diag = np.zeros(q.n)
        for (i, j), c in q.entries.items():
            if i == j:
                diag[i] = c
        rng = np.random.default_rng(g.n + 1)
        for x in (rng.random(g.n), rng.integers(0, 2, g.n).astype(float), np.ones(g.n)):
            qx = off @ x
            assert q.value(x) == float(x @ qx + diag @ x + q.offset)
            assert q.gradient(x).tobytes() == (2.0 * qx + diag).tobytes()

from __future__ import annotations

import gzip
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import cograd.graph as graph_module
from cograd.cli import main
from cograd.graph import (
    Graph,
    GsetFormatError,
    _renormalized_csr,
    generate_d_regular,
    generate_erdos_renyi,
    load_gset,
    parse_gset,
    renormalized_adjacency,
    sample_observed_subgraph,
    write_gset,
)


def test_edges_are_canonical():
    g = Graph(4, [(2, 1), (3, 0), (0, 1, 2.5)])
    assert g.edges == ((0, 1, 2.5), (0, 3, 1.0), (1, 2, 1.0))
    assert g.m == 3
    assert list(g.indices[g.indptr[1] : g.indptr[2]]) == [0, 2]


def test_degree_is_weighted():
    g = Graph(3, [(0, 1, 2.0), (1, 2, -1.0)])
    assert np.allclose(g.degree, [2.0, 1.0, -1.0])


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def _csr(g):
    """The graph's own CSR arrays as a scipy array."""
    return sp.csr_array((g.weights, g.indices, g.indptr), shape=(g.n, g.n))


def test_adjacency_matches_edges():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    a = _csr(g).toarray()
    assert np.array_equal(a, [[0, 2, 0], [2, 0, 3], [0, 3, 0]])


def test_parse_gset_basic():
    g = parse_gset("3 2\n1 2 5\n2 3 -1\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 5.0), (1, 2, -1.0))


def test_parse_gset_default_weight():
    g = parse_gset("2 1\n1 2\n")
    assert g.edges == ((0, 1, 1.0),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("3\n", "line 1"),
        ("2 1\n1 2 3 4\n", "line 2"),
        ("2 1\n1 1\n", "self-loop"),
        ("2 1\n1 3\n", "out of range"),
        ("2 2\n1 2\n2 1\n", "duplicate"),
        ("2 2\n1 2\n", "declares 2 edges"),
        ("2 1\n1 x\n", "line 2"),
        ("2 1\n1 2 nan\n", "line 2: weight must be finite"),
        ("3 2\n1 2\n2 3 inf\n", "line 3: weight must be finite"),
        ("2 1\n1 2 -inf\n", "line 2: weight must be finite"),
    ],
)
def test_parse_gset_errors(text, fragment):
    with pytest.raises(GsetFormatError, match=fragment):
        parse_gset(text)


def test_write_parse_round_trip():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = generate_erdos_renyi(30, 0.2, seed=seed)
        # reweight to random integers, negative allowed
        w = rng.integers(-5, 6, g.m)
        w[w == 0] = 1
        g = Graph(g.n, zip(g.edge_u, g.edge_v, w))
        assert parse_gset(write_gset(g)) == g


def test_write_parse_round_trip_fractional_weights():
    g = Graph(3, [(0, 1, 0.125), (1, 2, -2.5)])
    assert "1 2 0.125" in write_gset(g)
    assert parse_gset(write_gset(g)) == g


def test_load_gset_gzip(tmp_path):
    g = generate_d_regular(12, 3, seed=0)
    plain = tmp_path / "g.txt"
    plain.write_text(write_gset(g))
    zipped = tmp_path / "g.txt.gz"
    zipped.write_bytes(gzip.compress(write_gset(g).encode()))
    assert load_gset(plain) == g
    assert load_gset(zipped) == g


def test_d_regular_degrees_and_determinism():
    for n, d, seed in [(20, 3, 0), (50, 5, 1), (11, 4, 2)]:
        g = generate_d_regular(n, d, seed)
        assert g.n == n and g.m == n * d // 2
        assert np.all(g.degree == d)
        assert generate_d_regular(n, d, seed) == g
    assert generate_d_regular(10, 3, seed=0) != generate_d_regular(10, 3, seed=1)


def test_d_regular_complete_graph():
    # d = n-1 leaves exactly one simple graph; restarts must find it
    for seed in range(3):
        g = generate_d_regular(4, 3, seed)
        assert g.edges == (
            (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
            (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
        )


def test_d_regular_edge_cases():
    assert generate_d_regular(5, 0, seed=0).m == 0
    with pytest.raises(ValueError, match="odd"):
        generate_d_regular(5, 3, seed=0)
    with pytest.raises(ValueError):
        generate_d_regular(4, 4, seed=0)


def test_d_regular_gives_up_after_a_bounded_number_of_pairings(monkeypatch):
    """The complete graph K10 comes out of about one random pairing in 1e13,
    so the generator gives up: a ValueError naming n, d and the bound, which
    the CLI turns into exit code 2. The bound is lowered here to keep the
    test short; at its real size the case fails in about ten seconds."""
    monkeypatch.setattr(graph_module, "_MAX_PAIRINGS", 2000)
    with pytest.raises(ValueError, match="9-regular graph on 10 nodes in 2000 "):
        generate_d_regular(10, 9, seed=0)
    assert main(["gen", "--n", "10", "--d", "9"]) == 2


def test_erdos_renyi_extremes():
    assert generate_erdos_renyi(10, 0.0, seed=0).m == 0
    assert generate_erdos_renyi(10, 1.0, seed=0).m == 45
    g = generate_erdos_renyi(40, 0.3, seed=7)
    assert g == generate_erdos_renyi(40, 0.3, seed=7)


@pytest.mark.parametrize(
    "n, p, seed",
    [(0, 0.5, 1), (1, 0.5, 2), (2, 1.0, 3), (2, 0.0, 3), (150, 0.02, 4),
     (250, 0.012, 5), (600, 0.0, 6), (1000, 1.0, 7), (1500, 0.01, 8)],
)
def test_erdos_renyi_equals_one_draw_over_all_pairs(n, p, seed):
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    want = Graph.from_arrays(n, iu[mask], iv[mask])
    got = generate_erdos_renyi(n, p, seed)
    for a, b in zip(_graph_arrays(got), _graph_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_erdos_renyi_memory_is_linear_in_n():
    # one uniform and one index pair per node pair took 108 MiB here
    tracemalloc.start()
    try:
        g = generate_erdos_renyi(3000, 0.001, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m > 0
    assert peak < 16 * 2**20


def test_sample_observed_full_fraction_is_identity():
    g = generate_d_regular(16, 3, seed=4)
    s = sample_observed_subgraph(g, 1.0, seed=9)
    assert np.array_equal(s.kept_nodes, np.arange(16))
    assert s.observed_graph == g
    assert s.original_n == 16


def test_sample_observed_induces_exact_edges():
    for seed in range(4):
        g = generate_erdos_renyi(25, 0.3, seed=seed)
        s = sample_observed_subgraph(g, 0.6, seed=seed + 100)
        k = len(s.kept_nodes)
        assert k == round(0.6 * 25)
        assert np.all(np.diff(s.kept_nodes) > 0)
        kept = set(int(v) for v in s.kept_nodes)
        want = sorted(
            (int(np.searchsorted(s.kept_nodes, u)), int(np.searchsorted(s.kept_nodes, v)), w)
            for u, v, w in g.edges
            if u in kept and v in kept
        )
        assert list(s.observed_graph.edges) == want
        # determinism
        s2 = sample_observed_subgraph(g, 0.6, seed=seed + 100)
        assert np.array_equal(s2.kept_nodes, s.kept_nodes)
        assert s2.observed_graph == s.observed_graph


def test_sample_observed_rejects_bad_fraction():
    g = generate_d_regular(10, 3, seed=0)
    with pytest.raises(ValueError):
        sample_observed_subgraph(g, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_observed_subgraph(g, 1.5, seed=0)
    with pytest.raises(ValueError, match="zero"):
        sample_observed_subgraph(Graph(20), 0.01, seed=0)


def test_renormalized_adjacency_two_nodes():
    # A + I on a single edge has all row sums 2, so every entry becomes 1/2.
    g = Graph(2, [(0, 1)])
    ah = renormalized_adjacency(g).toarray()
    assert np.allclose(ah, 0.5)


def test_renormalized_adjacency_symmetric_and_bounded():
    for seed in range(4):
        g = generate_erdos_renyi(30, 0.2, seed=seed)
        ah = renormalized_adjacency(g)
        dense = ah.toarray()
        assert np.allclose(dense, dense.T)
        # spectral radius of the normalized operator is at most 1
        eigs = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(eigs)) <= 1.0 + 1e-9
        # isolated nodes keep a well-defined unit self-weight
    g = Graph(3, [(0, 1)])
    ah = renormalized_adjacency(g).toarray()
    assert ah[2, 2] == 1.0


def test_renormalized_adjacency_rejects_nonpositive_rowsum():
    g = Graph(2, [(0, 1, -3.0)])
    with pytest.raises(ValueError, match="positive"):
        renormalized_adjacency(g)


def _graph_arrays(g):
    return (g.edge_u, g.edge_v, g.edge_w, g.indptr, g.indices, g.weights, g.degree)


def _builder_cases():
    rng = np.random.default_rng(5)
    cases = [(0, []), (1, []), (2, []), (2, [(1, 0, -0.5)]), (5, [(3, 4, 2.0)])]
    for n, p in [(9, 0.4), (40, 0.15)]:
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < p
        u, v = iu[keep], iv[keep]
        flip = rng.random(len(u)) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        w = rng.normal(0.0, 2.0, len(u)).round(3)
        w[:3] = [0.0, -1.0, 0.125]
        order = rng.permutation(len(u))
        cases.append((n + 2, list(zip(u[order], v[order], w[order]))))
    return cases


def _reference_graph_arrays(n, edges):
    """The canonical edge arrays, CSR and degree of Graph(n, edges) from
    plain per-edge loops: sorted (u, v) pairs, each row's (neighbor,
    weight) pairs sorted, and the degree summed along the row from 0.0."""
    canon = sorted((min(int(u), int(v)), max(int(u), int(v)), float(w))
                   for u, v, w in edges)
    rows = [[] for _ in range(n)]
    for u, v, w in canon:
        rows[u].append((v, w))
        rows[v].append((u, w))
    degree = np.zeros(n)
    for i, row in enumerate(rows):
        row.sort()
        for _, w in row:
            degree[i] += w
    return (
        np.array([u for u, _, _ in canon], dtype=np.int64),
        np.array([v for _, v, _ in canon], dtype=np.int64),
        np.array([w for _, _, w in canon], dtype=np.float64),
        np.cumsum([0] + [len(row) for row in rows]).astype(np.int64),
        np.array([c for row in rows for c, _ in row], dtype=np.int64),
        np.array([w for row in rows for _, w in row], dtype=np.float64),
        degree,
    )


@pytest.mark.parametrize("n, edges", _builder_cases())
def test_from_arrays_bit_identical_to_constructor(n, edges):
    want = _reference_graph_arrays(n, edges)
    u = [e[0] for e in edges]
    v = [e[1] for e in edges]
    w = [e[2] for e in edges]
    for got in (Graph(n, edges), Graph.from_arrays(n, u, v, w),
                Graph.from_arrays(n, np.array(u, dtype=np.int64),
                                  np.array(v, dtype=np.int64), np.array(w))):
        assert got.n == n and got == Graph(n, edges)
        for a, b in zip(_graph_arrays(got), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    unit = Graph.from_arrays(n, u, v)
    assert unit == Graph(n, zip(u, v)) and np.all(unit.edge_w == 1.0)


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, [(0, 1), (0, 3), (1, 1)]),
        (3, [(0, 1), (2, 2), (5, 0)]),
        (3, [(0, 1), (-1, 2)]),
        (4, [(0, 1), (2, 3), (1, 0)]),
        (4, [(3, 2), (0, 1), (1, 2), (2, 3)]),
        (-1, []),
    ],
)
def test_from_arrays_raises_constructor_errors(n, edges):
    with pytest.raises(ValueError) as want:
        Graph(n, edges)
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    with pytest.raises(ValueError) as got:
        Graph.from_arrays(n, u, v)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 2**70)], "edge (0,1180591620717411303424) out of range for n=3"),
        (3, [(0, 1), (-(2**63) - 1, 2)], "out of range for n=3"),
        (3, [(0, 1), (0, 1), (2**64, 1)], "edge (18446744073709551616,1) out of range"),
        # an earlier bad edge is still the one reported
        (3, [(0, 5), (0, 2**70)], "edge (0,5) out of range for n=3"),
        (3, [(2, 2), (0, 2**70)], "self-loop at node 2"),
        (-1, [(0, 2**70)], "node count must be nonnegative"),
    ],
)
def test_index_beyond_int64_is_out_of_range(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert message in str(err.value)
    with pytest.raises(ValueError) as err:
        Graph.from_arrays(n, [e[0] for e in edges], [e[1] for e in edges])
    assert message in str(err.value)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (2, [(0, 1, float("nan"))], "edge (0,1) weight must be finite, got nan"),
        (3, [(0, 1, 1.0), (2, 1, float("inf")), (0, 2, float("nan"))],
         "edge (2,1) weight must be finite, got inf"),
        (4, [(3, 2, -float("inf")), (0, 1, 1.0)], "edge (3,2) weight must be finite, got -inf"),
    ],
)
def test_constructors_reject_non_finite_weight(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message
    cols = list(zip(*edges))
    for arrays in (cols, [np.array(c) for c in cols]):
        with pytest.raises(ValueError) as err:
            Graph.from_arrays(n, *arrays)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0.0, 1.2), (1.9, 2.7)], "edge (0.0,1.2) has an endpoint that is not an integer"),
        (3, [(0, 1), (1, 2.5)], "edge (1,2.5) has an endpoint that is not an integer"),
        (3, [(0, 1), (float("nan"), 2)], "edge (nan,2) has an endpoint that is not an integer"),
        (3, [(0, 1.5), (0, 5)], "edge (0,1.5) has an endpoint that is not an integer"),
        (3, [(0, float("inf"))], "edge (0,inf) out of range for n=3"),
        (3, [(float("-inf"), 0.5)], "edge (-inf,0.5) out of range for n=3"),
        # an earlier bad edge is still the one reported
        (3, [(0, 5), (0, 1.5)], "edge (0,5) out of range for n=3"),
        (3, [(1, 1), (0, 1.5)], "self-loop at node 1"),
    ],
)
def test_constructors_reject_non_integral_endpoints(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message
    u, v = (list(c) for c in zip(*edges))
    for arrays in ((u, v), (np.array(u), np.array(v))):
        with pytest.raises(ValueError) as err:
            Graph.from_arrays(n, *arrays)
        assert str(err.value) == message


def test_constructors_accept_integral_endpoints():
    want = Graph(4, [(0, 1), (1, 2), (2, 3)])
    edges = [(0, 1.0), (np.int32(1), np.uint64(2)), (np.float64(2.0), np.int8(3))]
    assert Graph(4, edges) == want
    u, v = (list(c) for c in zip(*edges))
    assert Graph.from_arrays(4, u, v) == want
    assert Graph.from_arrays(4, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])) == want
    assert Graph.from_arrays(4, np.array([0, 1, 2], dtype=np.uint8), [1, 2, 3]) == want


def test_from_arrays_rejects_ragged_arrays():
    with pytest.raises(ValueError, match="equal length"):
        Graph.from_arrays(3, [0, 1], [1, 2], [1.0])


def _reference_renormalized(g):
    """scale @ (A + I) @ scale with scipy's sparse products."""
    inv_sqrt = 1.0 / np.sqrt(g.degree + 1.0)
    a = _csr(g).tolil()
    a.setdiag(1.0)
    a = a.tocsr()
    scale = sp.dia_array((inv_sqrt[None, :], [0]), shape=(g.n, g.n)).tocsr()
    return scale @ a @ scale


@pytest.mark.parametrize("n, edges", _builder_cases()[1:])
def test_renormalized_adjacency_bit_identical_to_sparse_products(n, edges):
    # the sparse product drops the zeros that zero-weight edges leave
    g = Graph(n, [(u, v, abs(w)) for u, v, w in edges])
    got, want = renormalized_adjacency(g), _reference_renormalized(g)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.all(got.data != 0.0)


def test_renormalized_adjacency_bit_identical_on_regular_graph():
    g = generate_d_regular(600, 5, seed=3)
    got, want = renormalized_adjacency(g), _reference_renormalized(g)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def _renormalized_cases():
    """Generated graphs, isolated nodes, n <= 2 and signed weights (each
    augmented row sum positive, so Â is defined)."""
    rng = np.random.default_rng(14)
    signed = generate_erdos_renyi(50, 0.1, seed=6)
    w = rng.uniform(-0.3, 2.0, signed.m)
    w[:3] = [0.0, -0.25, 1e-3]
    return [
        Graph(0),
        Graph(1),
        Graph(2),
        Graph(2, [(0, 1, -0.5)]),
        Graph(7, [(0, 1, 2.0), (1, 2, -0.25), (4, 5, 0.0)]),
        Graph(signed.n + 4, zip(signed.edge_u, signed.edge_v, w)),
        generate_d_regular(300, 3, seed=1),
        generate_erdos_renyi(80, 0.2, seed=2),
    ]


@pytest.mark.parametrize("g", _renormalized_cases(), ids=repr)
def test_renormalized_csr_has_the_arrays_of_renormalized_adjacency(g):
    got, want = _renormalized_csr(g), renormalized_adjacency(g)
    assert isinstance(want, sp.csr_array)
    assert got.shape == want.shape == (g.n, g.n)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)

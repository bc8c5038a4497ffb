"""Undirected weighted graphs in CSR form, plus file I/O, generators and sampling.

Every other module consumes the :class:`Graph` type defined here. Graphs are
immutable after construction: node count, a canonical edge list (u < v, sorted),
a compressed sparse row adjacency, and the weighted degree vector.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ._sparse import Csr, index_dtype

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Graph",
    "ObservedSample",
    "GsetFormatError",
    "parse_gset",
    "write_gset",
    "load_gset",
    "generate_d_regular",
    "generate_erdos_renyi",
    "sample_observed_subgraph",
    "renormalized_adjacency",
]


_INT64 = np.iinfo(np.int64)
# node pairs per draw in generate_erdos_renyi: 2 MiB of uniforms
_PAIR_BLOCK = 1 << 18
# random pairings generate_d_regular draws before it gives up
_MAX_PAIRINGS = 1_000_000


class GsetFormatError(ValueError):
    """Raised for malformed Gset-format input; the message names the line."""


class Graph:
    """Immutable undirected weighted graph.

    Parameters
    ----------
    n : int
        Number of nodes, labeled 0..n-1. Isolated nodes are legal.
    edges : iterable of (u, v) or (u, v, w)
        Undirected edges with 0-based endpoints; weight defaults to 1.0.
        Self-loops, duplicate undirected edges, non-finite weights and
        endpoints that are not integers (1.0 is one, 1.5 is not) are
        rejected.

    Attributes
    ----------
    n : int
    edge_u, edge_v : int64 arrays, shape (m,)
        Canonical endpoints with edge_u < edge_v, sorted lexicographically.
    edge_w : float64 array, shape (m,)
    indptr, indices, weights : CSR adjacency over both edge directions.
        Node v's neighbours, sorted, are ``indices[indptr[v]:indptr[v + 1]]``,
        and ``weights`` holds their weights in the same slice.
    degree : float64 array, shape (n,)
        Weighted degree: sum of incident edge weights per node.
    """

    def __init__(self, n: int, edges: Iterable[Sequence[float]] = ()):
        us, vs, ws = [], [], []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            us.append(u)
            vs.append(v)
            ws.append(float(w))
        self._build(n, *_endpoint_arrays(n, us, vs), np.asarray(ws, dtype=np.float64))

    @classmethod
    def from_arrays(
        cls,
        n: int,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        w: Sequence[float] | np.ndarray | None = None,
    ) -> Graph:
        """The graph with edges (u[i], v[i], w[i]); ``w`` defaults to ones.

        Equal to ``Graph(n, zip(u, v, w))``, bit for bit, and raises the same
        errors (for the first offending edge in input order), without a
        Python-level loop over the edges.
        """
        u, v = _endpoint_arrays(n, u, v)
        w = np.ones(len(u)) if w is None else np.asarray(w, dtype=np.float64)
        if not u.ndim == v.ndim == w.ndim == 1 or not len(u) == len(v) == len(w):
            raise ValueError(
                f"edge arrays must be 1-d of equal length, got shapes "
                f"{u.shape}, {v.shape}, {w.shape}"
            )
        g = cls.__new__(cls)
        g._build(n, u, v, w)
        return g

    def _build(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        _check_endpoints(n, u, v)
        bad = ~np.isfinite(w)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"edge ({u[i]},{v[i]}) weight must be finite, got {w[i]}")

        # canonical u < v, sorted lexicographically: the key is monotone in
        # (u, v) and the sort is stable, as lexsort((v, u)) would be
        edge_u = np.minimum(u, v)
        edge_v = np.maximum(u, v)
        key = edge_u * max(n, 1) + edge_v
        order = np.argsort(key, kind="stable")
        edge_u, edge_v, edge_w, key = edge_u[order], edge_v[order], w[order], key[order]
        dup = np.diff(key) == 0
        if np.any(dup):
            i = int(np.argmax(dup))
            raise ValueError(f"duplicate edge ({edge_u[i + 1]},{edge_v[i + 1]})")

        self.n = n
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w

        # CSR over both directions, neighbor lists sorted per row: a stable
        # sort by row puts each row's lower neighbors (the v side, in
        # ascending u) before its upper ones (the u side, in ascending v).
        src = np.concatenate([edge_v, edge_u])
        dst = np.concatenate([edge_u, edge_v])
        wts = np.concatenate([edge_w, edge_w])
        order = np.argsort(src, kind="stable")
        src, dst, wts = src[order], dst[order], wts[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.indices = dst
        self.weights = wts
        # bincount adds in input order, as a per-edge loop over src would;
        # with no edges it counts in integers, hence the cast
        self.degree = np.bincount(src, weights=wts, minlength=n).astype(
            np.float64, copy=False
        )

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edge_u)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Canonical edge list as (u, v, w) tuples with u < v, sorted."""
        return tuple(
            (int(u), int(v), float(w))
            for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_w, other.edge_w)
        )

    def __hash__(self):
        return hash((self.n, self.edge_u.tobytes(), self.edge_v.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class ObservedSample:
    """A node-induced subgraph drawn from a larger graph.

    ``kept_nodes`` are the retained original indices, strictly increasing.
    ``observed_graph`` is relabeled to 0..k-1 in kept order, so
    ``kept_nodes[i]`` is the original index of observed node i.
    """

    kept_nodes: np.ndarray
    observed_graph: Graph
    original_n: int


def _check_endpoints(n: int, u: np.ndarray, v: np.ndarray) -> None:
    """Raise for a negative n, or for the first edge, in input order, that
    is out of range or a self-loop."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = out_of_range | (u == v)
    if np.any(bad):
        i = int(np.argmax(bad))
        if out_of_range[i]:
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        raise ValueError(f"self-loop at node {u[i]}")


def _endpoint_arrays(n: int, u, v) -> tuple[np.ndarray, np.ndarray]:
    """``u`` and ``v`` as int64 arrays. An endpoint with a fraction (NaN
    included) is no node, and one that int64 cannot hold is out of range
    for every n: the first edge, in input order, with such an endpoint
    raises, unless an earlier edge is out of range or a self-loop."""
    try:
        with np.errstate(invalid="ignore"):
            iu, iv = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    except (OverflowError, ValueError):
        pass
    else:
        # the cast truncates fractions and wraps what int64 cannot hold
        if np.array_equal(iu, u) and np.array_equal(iv, v):
            return iu, iv
    u, v = list(u), list(v)
    for i, (a, b) in enumerate(zip(u, v)):
        fault = _index_fault(a, n) or _index_fault(b, n)
        if fault:
            _check_endpoints(
                n, np.asarray(u[:i], dtype=np.int64), np.asarray(v[:i], dtype=np.int64)
            )
            raise ValueError(f"edge ({a},{b}) {fault}")
    # every pair is sound; lists of unequal length are the caller's to reject
    return np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)


def _index_fault(x, n: int) -> str | None:
    """Why ``x`` is no int64 node index, or None when it is one."""
    try:
        if x != int(x):
            return "has an endpoint that is not an integer"
    except OverflowError:  # int(±inf)
        return f"out of range for n={n}"
    except (TypeError, ValueError):  # int(nan), or not a number
        return "has an endpoint that is not an integer"
    return None if _INT64.min <= x <= _INT64.max else f"out of range for n={n}"


def _format_weight(w: float) -> str:
    """A number as Gset and coordinate text write it: whole values without
    a point, others by the shortest round-trip repr. The float cast keeps
    numpy 2 from writing a numpy float as ``np.float64(0.5)``."""
    if w == int(w):
        return str(int(w))
    return repr(float(w))


def parse_gset(text: str | bytes) -> Graph:
    """Parse Gset-format text: a header line ``n m`` then m lines ``i j w``.

    Node indices in the file are 1-based; the returned graph is 0-based.
    The weight token may be any integer (negative weights occur in the wild)
    or a finite decimal; a missing weight defaults to 1.

    Raises
    ------
    GsetFormatError
        On malformed lines, non-finite weights, out-of-range indices,
        self-loops or duplicates; the message names the 1-based line.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    if not lines:
        raise GsetFormatError("line 1: missing 'n m' header")
    header = lines[0].split()
    if len(header) != 2:
        raise GsetFormatError(f"line 1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GsetFormatError(f"line 1: expected 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GsetFormatError("line 1: n and m must be nonnegative")

    us, vs, ws = [], [], []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (2, 3):
            raise GsetFormatError(f"line {lineno}: expected 'i j w', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GsetFormatError(
                f"line {lineno}: expected 'i j w', got {raw!r}"
            ) from None
        if not math.isfinite(w):
            raise GsetFormatError(f"line {lineno}: weight must be finite, got {parts[2]!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GsetFormatError(f"line {lineno}: node index out of range 1..{n}")
        if i == j:
            raise GsetFormatError(f"line {lineno}: self-loop at node {i}")
        u, v = (i - 1, j - 1) if i < j else (j - 1, i - 1)
        if (u, v) in seen:
            raise GsetFormatError(f"line {lineno}: duplicate edge ({i},{j})")
        seen.add((u, v))
        us.append(u)
        vs.append(v)
        ws.append(w)
    if len(us) != m:
        raise GsetFormatError(
            f"line {lineno}: header declares {m} edges, found {len(us)}"
        )
    return Graph.from_arrays(n, us, vs, ws)


def write_gset(g: Graph) -> str:
    """Serialize a graph to Gset format with canonical (u < v, sorted) edges.

    Round trip: ``parse_gset(write_gset(g)) == g`` for any valid graph.
    """
    out = [f"{g.n} {g.m}"]
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
        out.append(f"{u + 1} {v + 1} {_format_weight(w)}")
    return "\n".join(out) + "\n"


def load_gset(path: str | Path) -> Graph:
    """Read a Gset file; transparently gunzips when the name ends in ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as f:
            return parse_gset(f.read())
    return parse_gset(path.read_text())


def generate_d_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish random simple d-regular graph via the pairing model.

    Stubs are shuffled and paired; any self-loop or duplicate edge discards
    the whole pairing and restarts. Deterministic for fixed (n, d, seed).
    A pairing is simple with probability about exp(-(d^2 - 1) / 4) at large
    n, so the generator suits sparse regular graphs (the d = 3, 5 benchmark
    regime) and tiny dense ones. After ``_MAX_PAIRINGS`` rejected pairings
    it gives up. That fails d <= 5 with negligible probability, d = 6 with
    at most about 0.2 % (on 7 to 9 nodes; far less from 10 nodes on), d = 7
    now and then (8 % on 20 nodes) and d >= 8 mostly.

    Raises
    ------
    ValueError
        If n*d is odd (no such graph exists), d >= n, or ``_MAX_PAIRINGS``
        pairings in a row are not simple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d >= n:
        raise ValueError(f"degree d={d} requires more than {n} nodes")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} is odd; no {d}-regular graph on {n} nodes")
    if d == 0:
        return Graph(n)

    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_MAX_PAIRINGS):
        rng.shuffle(stubs)
        u = np.minimum(stubs[0::2], stubs[1::2])
        v = np.maximum(stubs[0::2], stubs[1::2])
        if np.any(u == v):
            continue
        key = u * n + v
        if len(np.unique(key)) < len(key):
            continue
        return Graph.from_arrays(n, u, v)
    msg = f"no simple {d}-regular graph on {n} nodes in {_MAX_PAIRINGS} random pairings"
    raise ValueError(msg)


def generate_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) random graph with unit weights."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # one uniform per pair u < v in row-major order, drawn a block of rows
    # at a time: the generator yields the same doubles in pieces as in one
    # call, and memory stays linear in n
    step = max(1, _PAIR_BLOCK // max(n, 1))
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for first in range(0, n, step):
        rows = np.arange(first, min(first + step, n))
        counts = n - 1 - rows
        starts = np.cumsum(counts) - counts
        kept = np.flatnonzero(rng.random(int(counts.sum())) < p)
        row = np.searchsorted(starts, kept, side="right") - 1
        us.append(rows[row])
        vs.append(rows[row] + 1 + kept - starts[row])
    return Graph.from_arrays(n, np.concatenate(us), np.concatenate(vs))


def _kept_count(n: int, fraction: float) -> int:
    """The nodes an observation of ``fraction`` of n nodes keeps:
    round(fraction * n), halves rounded up."""
    return int(np.floor(fraction * n + 0.5))


def sample_observed_subgraph(g: Graph, fraction: float, seed: int) -> ObservedSample:
    """Keep round(fraction * n) uniformly sampled nodes and induce their edges.

    Sampling is a seeded shuffle followed by a prefix take, so the same seed
    reproduces the same sample bit-for-bit. The observed edge set is exactly
    the edges of g with both endpoints kept.

    An empty graph is kept whole at any fraction.

    Raises
    ------
    ValueError
        If the fraction is outside (0, 1] or rounds to zero kept nodes of a
        nonempty graph.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = _kept_count(g.n, fraction)
    if k == 0 and g.n > 0:
        raise ValueError(f"fraction {fraction} keeps zero of {g.n} nodes")
    rng = np.random.default_rng(seed)
    kept = np.sort(rng.permutation(g.n)[:k])
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[kept] = np.arange(k)
    both = (pos[g.edge_u] >= 0) & (pos[g.edge_v] >= 0)
    induced = Graph.from_arrays(
        k, pos[g.edge_u[both]], pos[g.edge_v[both]], g.edge_w[both]
    )
    return ObservedSample(
        kept_nodes=kept,
        observed_graph=induced,
        original_n=g.n,
    )


def renormalized_adjacency(g: Graph) -> scipy.sparse.csr_array:
    """Self-loop-augmented, symmetrically normalized adjacency.

    Returns the sparse matrix with entries (A + I)_ij / sqrt(dh_i * dh_j),
    where dh is the row sum of A + I, as a scipy CSR array (``scipy.sparse``
    is imported on the first call). The added identity keeps isolated
    nodes well defined (dh = 1).

    Raises
    ------
    ValueError
        If negative edge weights push some augmented row sum to <= 0, making
        the normalization undefined.
    """
    import scipy.sparse as sp

    a = _renormalized_csr(g)
    return sp.csr_array((a.data, a.indices, a.indptr), shape=a.shape)


def _renormalized_csr(g: Graph) -> Csr:
    """:func:`renormalized_adjacency` as its CSR arrays, without scipy."""
    dh = g.degree + 1.0
    if np.any(dh <= 0.0):
        bad = int(np.argmin(dh))
        raise ValueError(
            f"augmented degree of node {bad} is {dh[bad]:g}; "
            "normalization needs positive row sums"
        )
    inv_sqrt = 1.0 / np.sqrt(dh)
    # A + I in CSR: each row's diagonal entry goes in among its sorted
    # neighbors, so every entry right of the diagonal moves one slot on
    n = g.n
    counts = np.diff(g.indptr)
    rows = np.repeat(np.arange(n), counts)
    right = g.indices > rows
    pos = np.arange(len(rows)) + rows + right
    diag = g.indptr[:-1] + np.arange(n) + np.bincount(rows[~right], minlength=n)
    cols = np.empty(len(rows) + n, dtype=np.int64)
    vals = np.empty(len(rows) + n, dtype=np.float64)
    cols[pos], vals[pos] = g.indices, g.weights
    cols[diag], vals[diag] = np.arange(n), 1.0
    # scale @ (A + I) @ scale entry by entry, in the sparse product's
    # operation order, dropping the zeros it would not store
    rows = np.repeat(np.arange(n), counts + 1)
    data = inv_sqrt[rows] * vals * inv_sqrt[cols]
    keep = data != 0.0
    # 32-bit indices whenever they fit, as the sparse product chooses
    idx = index_dtype(len(cols))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return Csr(indptr, cols[keep].astype(idx), data[keep], (n, n))

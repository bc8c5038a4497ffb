"""Classical baselines: degree-based greedy placement and 1-flip local search.

Both are deterministic, always return feasible assignments, and share the
tie-breaking rules documented on :func:`dga`. MIS and MVC ``dga`` run on a
priority queue, and MaxCut local search on kept gains; the MIS/MVC add and
drop scans walk only the nodes eligible at their start. Each gives the
decisions of the plain sequential scan it documents.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph
from .qubo import BinaryAssignment, ProblemKind, _as_binary, is_feasible

__all__ = ["dga", "one_flip_local_search"]


def dga(kind: ProblemKind, g: Graph) -> BinaryAssignment:
    """Degree-based greedy assignment.

    MaxCut: nodes are visited in descending weighted degree (ties to the
    smaller index); each is placed on the side that cuts more weight against
    already-placed neighbors, ties landing in the selected set.
    MIS: repeatedly take the node of minimum residual degree (ties to the
    smaller index) and delete it together with its neighbors.
    MVC: repeatedly take the node of maximum residual degree (ties to the
    smaller index) and delete its incident edges until none remain.

    Residual degrees count edges, not weights. MIS and MVC keep them in a
    heap with lazy deletion, in O((n + m) log n); MaxCut is O(n + m).
    """
    kind = ProblemKind(kind)
    if kind is ProblemKind.MAXCUT:
        return _dga_maxcut(g)
    return _dga_peel(g, largest=kind is ProblemKind.MVC)


def _dga_maxcut(g: Graph) -> np.ndarray:
    x = np.zeros(g.n, dtype=np.int64)
    placed = np.zeros(g.n, dtype=bool)
    order = np.lexsort((np.arange(g.n), -g.degree))
    for v in order:
        lo, hi = g.indptr[v], g.indptr[v + 1]
        nbrs, wts = g.indices[lo:hi], g.weights[lo:hi]
        seen = placed[nbrs]
        gain_in = float(np.sum(wts[seen & (x[nbrs] == 0)]))
        gain_out = float(np.sum(wts[seen & (x[nbrs] == 1)]))
        x[v] = 1 if gain_in >= gain_out else 0
        placed[v] = True
    return x


def _dga_peel(g: Graph, largest: bool) -> np.ndarray:
    """MIS (``largest=False``): take the live node of least residual degree
    and delete it with its neighbours. MVC (``largest=True``): take the node
    of most uncovered edges and delete it, until no edge is left. Ties go to
    the smaller index.

    The heap key ``±deg * n + v`` orders by degree, then index. A node's key
    is pushed again each time its degree changes; a popped key that no
    longer matches its node's degree is stale and skipped.
    """
    n = g.n
    sign = -1 if largest else 1
    deg = np.diff(g.indptr).tolist()
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    alive = [True] * n
    x = np.zeros(n, dtype=np.int64)
    heap = [sign * d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        v = key % n
        if not alive[v] or key != sign * deg[v] * n + v:
            continue
        if largest and deg[v] == 0:
            break
        x[v] = 1
        alive[v] = False
        gone = [v]
        if not largest:
            gone += [u for u in indices[indptr[v] : indptr[v + 1]] if alive[u]]
            for u in gone:
                alive[u] = False
        for d in gone:
            for u in indices[indptr[d] : indptr[d + 1]]:
                if alive[u]:
                    deg[u] -= 1
                    heapq.heappush(heap, sign * deg[u] * n + u)
    return x


def one_flip_local_search(
    kind: ProblemKind, g: Graph, x0: BinaryAssignment
) -> BinaryAssignment:
    """First-improvement single-bit local search from a feasible start.

    Scans nodes in ascending index, applying any flip that preserves
    feasibility and strictly improves the objective, until a full scan finds
    none. Every accepted flip strictly improves a bounded objective, so the
    search terminates.

    The result is that of the plain scan, bit for bit, at O(n + m) work per
    scan:

    * MIS and MVC: a flip never makes another node eligible, so one scan
      (:func:`greedy_flip`) walks only the nodes whose closed
      neighbourhood is all 0 (MIS) or all 1 (MVC) at its start, and a
      second scan would find nothing.
    * MaxCut: each node's gain is kept, and a flip updates only the
      flipped node and its neighbours. The scan jumps to the next node
      whose gain is not below its rounding margin, and one whose gain lies
      within the margin is decided by the plain scan's own sum.

    Raises
    ------
    ValueError
        If x0 is not a 0/1 vector of length g.n, or is infeasible for the
        given problem.
    """
    kind = ProblemKind(kind)
    x = _as_binary(x0, g.n)
    if not is_feasible(kind, g, x):
        raise ValueError(f"local search requires a feasible start for {kind.value}")
    if kind is ProblemKind.MAXCUT:
        return _maxcut_one_flip(g, x)
    greedy_flip(g, x, 0 if kind is ProblemKind.MIS else 1)
    return x


def greedy_flip(g: Graph, x: np.ndarray, value: int, descending: bool = False) -> None:
    """Scan the nodes in index order (descending if asked) and flip, in
    place, each node v with x_v = value at v and at all its neighbours: the
    MIS scan that adds free nodes (value 0) and the MVC scan that drops
    redundant ones (value 1).

    A flip makes v's neighbours ineligible and no node becomes eligible, so
    only the nodes eligible at the start are walked, and only their rows of
    the adjacency are read. Each one not struck off when reached is
    flipped, and its neighbours are struck off.
    """
    eligible = x == value
    other = ~eligible
    eligible[g.edge_u[other[g.edge_v]]] = False
    eligible[g.edge_v[other[g.edge_u]]] = False
    order = np.flatnonzero(eligible)
    if not order.size:
        return
    # the adjacency of the eligible nodes alone, as Python lists: node v's
    # row is rows[bounds[v]:bounds[v + 1]], empty unless v is eligible
    degree = np.diff(g.indptr)
    rows = g.indices[np.repeat(eligible, degree)].tolist()
    bounds = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degree * eligible, out=bounds[1:])
    bounds, live, flips = bounds.tolist(), eligible.tolist(), []
    for v in order[::-1].tolist() if descending else order.tolist():
        if live[v]:
            flips.append(v)
            for u in rows[bounds[v] : bounds[v + 1]]:
                live[u] = False
    x[flips] = 1 - value


def _maxcut_one_flip(g: Graph, x: np.ndarray) -> np.ndarray:
    """First-improvement 1-flip MaxCut scan with kept gains.

    ``gain[v]`` is the cut change from flipping v: a sum over v's edges at
    the start, negated when v flips and moved by 2 w_uv when a neighbour u
    flips. Each such move adds at most eps/2 * sum|w| of rounding at v, so
    after k moves it differs from the plain scan's sum by under
    (deg(v) + k) * eps * sum|w|. Outside four times that margin its sign
    is the plain scan's; inside, the plain scan's expression decides.
    """
    n, eu, ev = g.n, g.edge_u, g.edge_v
    signed = np.where(x[eu] == x[ev], g.edge_w, -g.edge_w)
    gain = np.bincount(eu, signed, minlength=n) + np.bincount(ev, signed, minlength=n)
    mass = np.abs(g.edge_w)
    abs_mass = np.bincount(eu, mass, minlength=n) + np.bincount(ev, mass, minlength=n)
    unit = 4.0 * np.finfo(np.float64).eps * abs_mass
    slack = np.diff(g.indptr) + 1.0
    # a node whose incident weights are all 0 gains exactly 0 from a flip;
    # a NaN or infinite gain or margin leaves a node to the exact test
    live = abs_mass != 0
    candidate = live & ~(gain < -slack * unit)
    flipped = True
    while flipped:
        flipped = False
        v = 0
        while v < n:
            v += int(np.argmax(candidate[v:]))
            if not candidate[v]:
                break
            if gain[v] > slack[v] * unit[v] or _cut_flip_improves(g, x, v):
                x[v] ^= 1
                flipped = True
                gain[v] = -gain[v]
                candidate[v] = not gain[v] < -slack[v] * unit[v]
                lo, hi = g.indptr[v], g.indptr[v + 1]
                nbrs, wt = g.indices[lo:hi], g.weights[lo:hi]
                gain[nbrs] += np.where(x[nbrs] == x[v], 2.0 * wt, -2.0 * wt)
                slack[nbrs] += 1.0
                candidate[nbrs] = live[nbrs] & ~(gain[nbrs] < -slack[nbrs] * unit[nbrs])
            v += 1
    return x


def _cut_flip_improves(g: Graph, x: np.ndarray, v: int) -> bool:
    lo, hi = g.indptr[v], g.indptr[v + 1]
    nbrs, wts = g.indices[lo:hi], g.weights[lo:hi]
    cut_now = x[nbrs] != x[v]
    # flipping v toggles the cut status of every incident edge
    return float(np.sum(wts[~cut_now]) - np.sum(wts[cut_now])) > 0.0

"""Edge prediction from a partially observed graph.

A one-layer graph convolution over the observed graph encodes each
observed node into a low-dimensional code; a node the sample does not hold
has no neighbourhood in it, so its code is its own embedding row times the
projection. An inner-product decoder scores pairs. Only pairs between
observed nodes carry training signal (observed edges as positives, sampled
observed non-edges as negatives), so the descent works on the observed
nodes' embeddings only. Embeddings of unobserved nodes feel nothing but
weight decay: they take the same number of steps on it alone after the
descent, which gives a descent over every row bit for bit. The negatives
come from one stream of the descent's generator, drawn in bulk, and a key
is searched among the taken pairs only when a prefilter table cannot rule
it out.

The prediction is a sparse weighted :class:`Graph`, never an n x n matrix.
Observed pairs keep their ground truth, since observed evidence is certain,
and each unobserved node keeps only its highest-scoring partners, as many
as the observed mean degree: about as many predicted edges as true ones.
Scores are computed in row blocks of bounded size, and the reconstruction
loss sums its terms block by block, so memory grows with the nodes and the
predicted pairs, not with their squares. The reconstruction loss scores a
block of rows against the rows from its first onwards in one broadcast
product and gathers no code per pair; its time still grows with the
square of the observed nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sparse import Csr, bind, bind_scatter, spmm
from .gnn import _P_EPS, Adam, TrainConfig, _carve, _dims, _draw_normal, _sigmoid
from .gnn import _count, descend
from .graph import Graph, ObservedSample, _check_endpoints, _endpoint_arrays
from .graph import _renormalized_csr

__all__ = [
    "PredictorParams",
    "train_predictor",
    "predict_adjacency",
    "pair_scores",
    "reconstruction_bce",
]

_WEIGHT_DECAY = 1e-4
# entries of the score or pair arrays built at once, per block of rows
_BLOCK = 1 << 14
# rows of scores _top_partners builds at once at least: past _BLOCK // n
# rows a block would be one row, and a product of one row against z.T
# takes longer per row than one of a few dozen rows
_TOP_ROWS = 32
# values the negative sampler draws from its generator at once, at least
_STREAM = 1 << 13
# prefilter buckets per taken key of the negative sampler
_BUCKETS = 8


@dataclass
class PredictorParams:
    """Embedding table over all nodes plus the encoder projection.

    ``embed`` is (full_n, d_in); ``w`` is (d_in, d_z); node i's code is row i
    of M @ w. M's row at the j-th kept node is row j of Â_obs @ embed[kept],
    where Â_obs is the renormalized adjacency of the observed graph in
    observed numbering. Every other row of M, at an unobserved node or at a
    padding row past the sampled graph, is 0.0 + its embedding row: its
    renormalized row is its self-loop alone.
    """

    embed: np.ndarray
    w: np.ndarray

    @property
    def full_n(self) -> int:
        return self.embed.shape[0]


def _check_full_n(
    sample: ObservedSample, n: int, params: PredictorParams | None = None
) -> None:
    """Refuse a ``full_n`` that is not a whole number or is smaller than the
    sampled graph, then ``params`` if any entry of its ``embed`` or ``w``
    is not finite: a NaN would make every comparison of scores false."""
    if not _count(n, least=0):
        raise ValueError(f"full_n must be a whole number, got {n!r}")
    if n < sample.original_n:
        raise ValueError(
            f"full_n={n} is smaller than the sampled graph ({sample.original_n})"
        )
    for name in ("embed", "w") if params is not None else ():
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"params.{name} has an entry that is not finite")


def _encode(params: PredictorParams, known: ObservedSample) -> np.ndarray:
    """Every node's code, as :class:`PredictorParams` defines it.

    Â_obs is read with its columns at original indices, so it multiplies
    the whole table and no copy of ``embed[kept]`` is made. The product
    with ``w`` takes all full_n rows at once: OpenBLAS may pick another
    kernel for fewer rows, whose last bits differ."""
    _check_full_n(known, params.full_n, params)
    kept = known.kept_nodes
    embed = np.asarray(params.embed, dtype=np.float64)
    a = _renormalized_csr(known.observed_graph)
    cols = kept.astype(a.indices.dtype)[a.indices]
    # what a product's zeroed sum and diagonal 1 give, -0.0 included
    m = embed + 0.0
    m[kept] = spmm(Csr(a.indptr, cols, a.data, (len(kept), len(embed))), embed,
                   np.empty((len(kept), embed.shape[1])))
    return m @ params.w


def train_predictor(
    sample: ObservedSample, full_n: int, cfg: TrainConfig
) -> PredictorParams:
    """Fit the encoder by descending pairwise cross-entropy.

    Each epoch scores every observed edge against an equal number of freshly
    sampled observed non-edges and takes one adaptive-moment step on the
    mean binary cross-entropy. Stopping follows the same best-loss window
    as the solver (:func:`cograd.gnn.descend`). Deterministic for a fixed
    config.

    The descent works on the k observed rows of the embedding table only,
    in observed numbering, through the observed graph's own renormalized
    adjacency, which is how those rows' codes are defined
    (:class:`PredictorParams`). An unobserved row's code is its own row,
    which no scored pair reaches, so its gradient is its weight-decay pull
    alone and its path depends only on its initial draw and on the number
    of steps: after the descent those rows take as many adaptive-moment
    steps on weight decay alone as the descent took (one per epoch, less
    the last when the patience window stopped it), and the table is put
    back together in original row order. The whole (full_n, d_in) table is
    drawn first, then ``w``, then the negative sampler's stream, so each
    parameter is the one a descent over every row gives. The dense products
    have k rows, not full_n; from about n = 1500 OpenBLAS can pick another
    kernel for them, and the parameters' last bits then differ from that
    descent's.

    As in :func:`cograd.gnn.train`, the parameters and their gradient each
    live in one flat buffer, and every epoch writes into buffers allocated
    once per call. The two products with Â and the scatter of the pair
    gradients into dz are bound to those buffers once per call
    (:mod:`cograd._sparse`), so an epoch checks none of them. The scatter
    is one compiled CSC product that adds ds times the other end's code
    into each end's row in pair order, from zeros: ``np.add.at``'s sums,
    bit for bit.

    The negatives are drawn in rounds, each redrawing the pairs still
    missing, as per-round ``rng.integers(0, k, size=(2, c))`` calls would
    draw them. They are taken from one bulk stream of those integers
    (:class:`_NonEdgeSampler`), which is exact because numpy's bounded
    integers of one range and dtype read one continuous stream of the bit
    generator: joined per-round calls equal one bulk draw.
    ``test_train_predictor_bit_identical_to_reference_loop``, which draws
    per round and steps every row in one loop, pins both properties. A
    prefilter table of buckets rules out most candidates before any search
    of the taken keys.

    Raises
    ------
    ValueError
        If the observed graph has no edges to learn from, or if ``full_n``
        is not a whole number or is smaller than the sampled graph, before
        any work, in the words the scorers use.
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    og = sample.observed_graph
    if og.m == 0:
        raise ValueError("cannot train a predictor: the observed graph has no edges")
    _check_full_n(sample, full_n)
    a_obs = _renormalized_csr(og)
    d_in, d_z = _dims(full_n, cfg)

    rng = np.random.default_rng(cfg.seed)
    scales = [1.0 / np.sqrt(d_in)] * 2
    _, (table, w_init) = _draw_normal(rng, [(full_n, d_in), (d_in, d_z)], scales)
    kept = sample.kept_nodes
    m, k = og.m, og.n
    shapes = [(k, d_in), (d_in, d_z)]
    flat, (embed, w) = _carve(shapes)
    table.take(kept, axis=0, out=embed)
    np.copyto(w, w_init)

    n_neg = m if k * (k - 1) // 2 - m > 0 else 0
    n_pairs = m + n_neg
    # the sampler's long-lived arrays come before the epoch buffers; rng
    # ends ahead of per-round draws, and nothing reads it after the descent
    sample_non_edges = _NonEdgeSampler(rng, og, n_neg)
    # ends[0] and ends[1] hold the scored pairs' first and second ends, the
    # observed edges before the negatives; ends.ravel() is the scatter's
    # row order. others holds each end's other end, ends[::-1] made
    # contiguous: z is gathered through it, so that row j of z_ends is the
    # code that ds[j] scales into row ends.ravel()[j] of dz.
    ends = np.empty((2, n_pairs), dtype=np.int64)
    ends[0, :m] = og.edge_u
    ends[1, :m] = og.edge_v
    others = np.empty((2, n_pairs), dtype=np.int64)
    others[:, :m] = ends[::-1, :m]
    y = np.concatenate([np.ones(m), np.zeros(n_neg)])

    m_in = np.empty((k, d_in))
    z = np.empty((k, d_z))
    z_ends = np.empty((2, n_pairs, d_z))
    z_v, z_u = z_ends
    prod = np.empty((n_pairs, d_z))
    s = np.empty(n_pairs)
    terms = np.empty(n_pairs)
    # ds once per end: the weights of the scatter, in ends.ravel()'s order
    ds_ends = np.empty((2, n_pairs))
    ds = ds_ends[0]
    dz = np.empty((k, d_z))
    # m_in is dead once dw is taken, so dz @ w.T goes into its buffer
    dm = m_in
    grad, (dembed, dw) = _carve(shapes)
    a_embed = bind(a_obs, embed, m_in)
    a_dm = bind(a_obs, dm, dembed)
    scatter = bind_scatter(
        ends.reshape(-1), ds_ends.reshape(-1), z_ends.reshape(-1, d_z), dz
    )

    def evaluate():
        neg = sample_non_edges()
        np.copyto(ends[:, m:], neg)
        np.copyto(others[:, m:], neg[::-1])
        a_embed()
        np.matmul(m_in, w, out=z)
        # every index is in range: mode="clip" spares np.take the copy of
        # ``out`` that mode="raise" makes
        z.take(others, axis=0, out=z_ends, mode="clip")
        np.multiply(z_u, z_v, out=prod)
        # np.sum and np.mean bit for bit, without their Python wrappers
        np.add.reduce(prod, axis=1, out=s)
        _sigmoid(s, out=s)
        # np.clip(s, eps, 1 - eps) bit for bit, without its Python wrapper
        np.maximum(s, _P_EPS, out=s)
        np.minimum(s, 1.0 - _P_EPS, out=s)
        # y log s + (1 - y) log(1 - s) at y in {0, 1}: the other term is a
        # signed zero (s is clipped inside (0, 1)), which adds nothing
        np.log(s[:m], out=terms[:m])
        np.subtract(1.0, s[m:], out=terms[m:])
        np.log(terms[m:], out=terms[m:])
        loss = float(-(np.add.reduce(terms) / n_pairs))
        np.subtract(s, y, out=ds)
        np.divide(ds, n_pairs, out=ds)
        ds_ends[1] = ds
        scatter()
        np.matmul(m_in.T, dz, out=dw)
        np.matmul(dz, w.T, out=dm)
        a_dm()
        return loss, grad

    trace = descend(flat, evaluate, cfg)
    # a step follows every epoch but the one the patience window stops in
    steps = len(trace) - 1 if trace.stop_reason == "patience" else len(trace)
    unobs = np.setdiff1d(np.arange(full_n), kept)
    if len(unobs):
        table[unobs] = _decayed(table[unobs], steps, cfg.learning_rate)
    table[kept] = embed
    return PredictorParams(embed=table, w=w)


def _decayed(rows: np.ndarray, steps: int, learning_rate: float) -> np.ndarray:
    """``rows`` after ``steps`` adaptive-moment steps on the weight-decay
    gradient _WEIGHT_DECAY * rows alone, in place.

    In a descent over the whole table an unobserved row's gradient is
    exactly this: its renormalized row is its self-loop alone and its code
    takes no pair gradient, so the product adds only +0.0 before the decay
    term.
    Adam works element by element, with bias corrections that depend only
    on the step count, so these steps give that descent's rows bit for bit.
    """
    opt = Adam(learning_rate)
    grad = np.empty_like(rows)
    for _ in range(steps):
        np.multiply(rows, _WEIGHT_DECAY, out=grad)
        opt.step([rows], [grad])
    return rows


def _taken_keys(og: Graph) -> np.ndarray:
    """The ascending keys u * k + v (u <= v) that :class:`_NonEdgeSampler`
    rejects on the k-node observed graph ``og``: its edges and the k
    self-pairs, followed by the sentinel k * k, which exceeds every pair's
    key so that a search never runs off the end."""
    k = og.n
    keys = np.concatenate(
        [og.edge_u * k + og.edge_v, np.arange(k) * (k + 1), [k * k]]
    )
    keys.sort()
    return keys


class _NonEdgeSampler:
    """Uniform observed non-edges, ``count`` at a time, from one stream.

    Each call refills and returns ``pairs``, a (2, count) array of
    observed-index pairs (u < v) that are not observed edges. Each round
    takes the next 2c values of the stream as a (2, c) array of candidates
    for the c pairs still missing, orders each candidate and keeps those
    whose key u * k + v is not in :func:`_taken_keys`.

    The stream is ``rng.integers(0, k)`` drawn ``max(_STREAM, 2 * count)``
    values at a time. numpy's bounded integers of one range and dtype read
    one continuous stream of the bit generator, so the pairs are those that
    per-round calls ``rng.integers(0, k, size=(2, c))`` give, bit for bit;
    ``used`` counts the values taken. ``rng`` ends ahead of those calls.

    A prefilter spares most keys a search: its table holds _BUCKETS
    buckets per taken key, a key's bucket is the key mod the table's odd
    size, and every taken key occupies its own bucket. So a key in an empty
    bucket is no taken key; it is searched as -1, which is no key either
    and takes a few steps at most. Only keys in occupied buckets are
    searched for in the sorted taken keys.

    The arrays are allocated once, and a round writes into them; its only
    new array is the search's positions. Temporaries of many small sizes
    would stay in numpy's cache of small blocks, spread over the heap, and
    keep the descent's freed buffers from being returned to the system
    (1.2 MB more RSS at dfl-partial's shape, with glibc's malloc).
    """

    def __init__(self, rng: np.random.Generator, og: Graph, count: int):
        self.rng, self.k = rng, og.n
        self.taken = _taken_keys(og)
        self.size = _BUCKETS * len(self.taken) + 1
        self.occupied = np.zeros(self.size, dtype=bool)
        self.occupied[self.taken % self.size] = True
        self.chunk = max(_STREAM, 2 * count)
        self.stream = rng.integers(0, self.k, size=self.chunk if count else 0)
        self.pos = self.used = 0
        self.pairs = np.empty((2, count), dtype=np.int64)
        # a round of c pairs works in the first c columns
        self.scratch = np.empty((4, count), dtype=np.int64)
        self.flags = np.empty(count, dtype=bool)

    def _next(self, need: int) -> np.ndarray:
        """The stream's next ``need`` values, at most one chunk."""
        start, stop = self.pos, self.pos + need
        self.used += need
        if stop <= len(self.stream):
            self.pos = stop
            return self.stream[start:stop]
        tail = self.stream[start:]
        self.stream = self.rng.integers(0, self.k, size=self.chunk)
        self.pos = need - len(tail)
        return np.concatenate([tail, self.stream[: self.pos]])

    def __call__(self) -> np.ndarray:
        out_u, out_v = self.pairs
        count = self.pairs.shape[1]
        got = 0
        while got < count:
            c = count - got
            cand = self._next(2 * c).reshape(2, c)
            u, v, keys, probe = self.scratch[:, :c]
            ok = self.flags[:c]
            np.minimum(cand[0], cand[1], out=u)
            np.maximum(cand[0], cand[1], out=v)
            np.multiply(u, self.k, out=keys)
            keys += v
            np.remainder(keys, self.size, out=probe)
            self.occupied.take(probe, out=ok, mode="clip")
            probe.fill(-1)
            np.copyto(probe, keys, where=ok)
            at = self.taken.searchsorted(probe)
            np.not_equal(self.taken.take(at, out=keys, mode="clip"), probe, out=ok)
            take = np.count_nonzero(ok)
            u.compress(ok, out=out_u[got : got + take])
            v.compress(ok, out=out_v[got : got + take])
            got += take
        return self.pairs


def _partner_budget(m_obs: int, k_obs: int, n: int) -> int:
    """Partners kept per unobserved node: the observed mean degree
    corrected for node sampling, round(2 * m_obs * n / k_obs**2), at least
    1 and at most n - 1.

    A node-induced sample of k_obs of n nodes keeps about (k_obs / n)**2 of
    the edges, so m_obs * (n / k_obs)**2 estimates the true edge count and
    twice that over n its mean degree.
    """
    k = max(1, round(2 * m_obs * n / max(k_obs, 1) ** 2))
    return min(k, n - 1)


def _decode(z: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sigma(z[u[i]] . z[v[i]]) for each i."""
    s = np.sum(z[u] * z[v], axis=1)
    with np.errstate(over="ignore"):
        return _sigmoid(s, out=s)


def _row_blocks(rows: np.ndarray, width: int, least: int = 1):
    """Consecutive slices of ``rows`` whose (rows x width) arrays hold at
    most _BLOCK entries, or ``least`` rows where that is more."""
    step = max(least, _BLOCK // max(width, 1))
    for r0 in range(0, len(rows), step):
        yield rows[r0 : r0 + step]


def _top_partners(z: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Canonical keys u * n + v (u < v, ascending, unique) of the pairs that
    join each of ``rows`` to its k highest-scoring other nodes; among equal
    scores the smaller index wins. Each row is chosen on its own, so the
    keys do not depend on the block size; blocks hold _BLOCK scores, or
    _TOP_ROWS rows of n where that is more."""
    n = z.shape[0]
    keys = [np.zeros(0, dtype=np.int64)]
    if k == 0:  # a lone node has no partner
        return keys[0]
    for block in _row_blocks(rows, n, least=_TOP_ROWS):
        scores = z[block] @ z.T
        scores[np.arange(len(block)), block] = -np.inf
        # every score above the k-th largest, then as many of the scores
        # equal to it as are still needed, the smaller indices first
        kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
        above = scores > kth
        ties = scores == kth
        need = k - np.count_nonzero(above, axis=1)
        take = above | (ties & (np.cumsum(ties, axis=1) <= need[:, None]))
        r, theirs = np.nonzero(take)
        mine = block[r]
        keys.append(np.minimum(mine, theirs) * n + np.maximum(mine, theirs))
    return np.unique(np.concatenate(keys))


def predict_adjacency(params: PredictorParams, known: ObservedSample) -> Graph:
    """The predicted graph: observed pairs at their ground truth plus each
    unobserved node's best-scoring partners, weighted by probability.

    An observed pair keeps its weight clipped to [0, 1], at original
    indices. Each unobserved node keeps its k highest-scoring partners
    among all other nodes (ties to the smaller index), k being the observed
    mean degree corrected for node sampling (:func:`_partner_budget`).
    Every kept pair weighs its decoder probability as :func:`pair_scores`
    gives it, whichever endpoint chose it. The result is a :class:`Graph`
    over ``params.full_n`` nodes with at most m_obs + k * n_unobs edges;
    an edge may weigh 0, and :func:`cograd.pipeline.soft_adjacency_graph`
    drops it. Scores are computed in row blocks of bounded size; no
    n x n array is built. At full observation the prediction is the
    observed graph with clipped weights. Raises ValueError, before any
    work, if ``params`` has fewer rows than the sampled graph has nodes or
    an entry that is not finite, as :func:`pair_scores` and
    :func:`reconstruction_bce` do when they encode.
    """
    n = params.full_n
    _check_full_n(known, n, params)
    kept = known.kept_nodes
    og = known.observed_graph
    unobs = np.setdiff1d(np.arange(n), kept)
    u, v = kept[og.edge_u], kept[og.edge_v]
    w = np.clip(og.edge_w, 0.0, 1.0)
    if len(unobs):
        z = _encode(params, known)
        keys = _top_partners(z, unobs, _partner_budget(og.m, og.n, n))
        cu, cv = keys // n, keys % n
        u = np.concatenate([u, cu])
        v = np.concatenate([v, cv])
        w = np.concatenate([w, _decode(z, cu, cv)])
    return Graph.from_arrays(n, u, v, w)


def pair_scores(
    params: PredictorParams, known: ObservedSample, pairs: np.ndarray
) -> np.ndarray:
    """Decoder probabilities sigma(z_i . z_j) for an array of (i, j) rows,
    without the observed-evidence override. Raises ValueError for pairs that
    are not a (k, 2) array, then, in :meth:`Graph.from_arrays`'s words, for
    the first pair with an endpoint that is no node or with equal endpoints,
    then if ``params`` has fewer rows than the sampled graph has nodes or
    an entry that is not finite.
    """
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), got {pairs.shape}")
    u, v = _endpoint_arrays(params.full_n, pairs[:, 0], pairs[:, 1])
    _check_endpoints(params.full_n, u, v)
    return _decode(_encode(params, known), u, v)


def reconstruction_bce(params: PredictorParams, known: ObservedSample) -> float:
    """Mean cross-entropy of raw decoder scores against every observed pair.

    Covers all kept-node pairs (edges and non-edges alike) with no override,
    so a perfectly reconstructing encoder scores near 0. The pairs are
    scored in row blocks of bounded size, in row-major order, and each
    block's sum joins a running total, so memory stays bounded however many
    pairs there are. A block of rows r0..r1 of the observed codes is
    multiplied against rows r0 onwards in one broadcast product, whose
    pairs above the diagonal it keeps; its edge labels come from the
    block's slice of the canonical edge list. No code is gathered per
    pair. Deterministic. Raises ValueError, before any scoring, if
    ``params`` has fewer rows than the sampled graph has nodes or an entry
    that is not finite, however few nodes the sample holds.
    """
    kept = known.kept_nodes
    og = known.observed_graph
    z = _encode(params, known)[kept]
    k = len(kept)
    n_pairs = k * (k - 1) // 2
    if n_pairs == 0:
        return 0.0
    cols = np.arange(k)
    total = 0.0
    for block in _row_blocks(cols, k):
        r0, r1 = block[0], block[-1] + 1
        # np.sum(z[u] * z[v], axis=1) bit for bit: the same rows, reduced
        # along the same contiguous axis
        s = np.add.reduce(z[r0:r1, None, :] * z[None, r0:, :], axis=2)
        upper = block[:, None] < cols[r0:]
        s = s[upper]
        with np.errstate(over="ignore"):
            _sigmoid(s, out=s)
        np.clip(s, _P_EPS, 1.0 - _P_EPS, out=s)
        # the block's edges are a slice of the edge list, sorted by u
        lo, hi = np.searchsorted(og.edge_u, [r0, r1])
        edge = np.zeros(upper.shape, dtype=bool)
        edge[og.edge_u[lo:hi] - r0, og.edge_v[lo:hi] - r0] = True
        # log s on an edge, log(1 - s) off one, as in train_predictor's loss
        total += float(np.sum(np.log(np.where(edge[upper], s, 1.0 - s))))
    return -total / n_pairs

"""Edge prediction from a partially observed graph.

A one-layer graph convolution encodes every node into a low-dimensional
embedding; an inner-product decoder scores each pair. Only pairs between
observed nodes carry training signal (observed edges as positives, sampled
observed non-edges as negatives); embeddings of unobserved nodes are free
parameters held near zero by weight decay. Predicted probabilities for
observed pairs are overridden with the ground truth afterwards, since
observed evidence is certain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .gnn import TrainConfig, default_dims, descend
from .graph import Graph, ObservedSample, renormalized_adjacency

__all__ = [
    "PredictorParams",
    "SoftAdjacency",
    "known_graph",
    "train_predictor",
    "predict_adjacency",
    "threshold_adjacency",
    "pair_scores",
    "reconstruction_bce",
    "export_soft_adjacency",
]

_WEIGHT_DECAY = 1e-4
_S_EPS = 1e-12


@dataclass
class PredictorParams:
    """Embedding table over all nodes plus the encoder projection.

    ``embed`` is (full_n, d_in); ``w`` is (d_in, d_z); node i's code is row i
    of Â_known @ embed @ w, where Â_known is the renormalized adjacency of
    the known graph (observed edges at original indices, unobserved nodes
    isolated).
    """

    embed: np.ndarray
    w: np.ndarray

    @property
    def full_n(self) -> int:
        return self.embed.shape[0]


@dataclass(frozen=True)
class SoftAdjacency:
    """Symmetric matrix of edge probabilities with a zero diagonal."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"probs must be square, got shape {p.shape}")
        if not np.allclose(p, p.T):
            raise ValueError("probs must be symmetric")
        if np.any(np.diagonal(p) != 0.0):
            raise ValueError("diagonal must be zero")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def known_graph(sample: ObservedSample, full_n: int | None = None) -> Graph:
    """Observed edges relabeled to original indices; all other nodes isolated."""
    n = sample.original_n if full_n is None else full_n
    if n < sample.original_n:
        raise ValueError(
            f"full_n={n} is smaller than the sampled graph ({sample.original_n})"
        )
    og = sample.observed_graph
    kept = sample.kept_nodes
    return Graph.from_arrays(n, kept[og.edge_u], kept[og.edge_v], og.edge_w)


def _encode(params: PredictorParams, known: ObservedSample) -> np.ndarray:
    a_known = renormalized_adjacency(known_graph(known, params.full_n))
    return (a_known @ params.embed) @ params.w


def train_predictor(
    sample: ObservedSample, full_n: int, cfg: TrainConfig
) -> PredictorParams:
    """Fit the encoder by descending pairwise cross-entropy.

    Each epoch scores every observed edge against an equal number of freshly
    sampled observed non-edges and takes one adaptive-moment step on the
    mean binary cross-entropy; embeddings of unobserved nodes only feel the
    weight-decay pull. Stopping follows the same best-loss window as the
    solver (:func:`cograd.gnn.descend`). Deterministic for a fixed config.

    Raises
    ------
    ValueError
        If the observed graph has no edges to learn from.
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    og = sample.observed_graph
    if og.m == 0:
        raise ValueError("cannot train a predictor: the observed graph has no edges")
    kg = known_graph(sample, full_n)
    a_known = renormalized_adjacency(kg)
    d_in, d_z = default_dims(full_n)
    if cfg.d0 is not None:
        d_in = cfg.d0
    if cfg.d1 is not None:
        d_z = cfg.d1

    rng = np.random.default_rng(cfg.seed)
    params = PredictorParams(
        embed=rng.normal(0.0, 1.0 / np.sqrt(d_in), (full_n, d_in)),
        w=rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_z)),
    )

    kept = sample.kept_nodes
    pos_u = kept[og.edge_u]
    pos_v = kept[og.edge_v]
    k = og.n
    # canonical keys of observed edges, in observed index space (ascending)
    edge_keys = og.edge_u * k + og.edge_v
    n_free_pairs = k * (k - 1) // 2 - og.m
    if n_free_pairs > 0:
        y = np.concatenate([np.ones(og.m), np.zeros(og.m)])
    else:
        y = np.ones(og.m)

    unobs = np.setdiff1d(np.arange(full_n), kept)

    def evaluate():
        if n_free_pairs > 0:
            neg_u, neg_v = _sample_non_edges(rng, k, og.m, edge_keys)
            u = np.concatenate([pos_u, kept[neg_u]])
            v = np.concatenate([pos_v, kept[neg_v]])
        else:
            u, v = pos_u, pos_v

        m_in = a_known @ params.embed
        z = m_in @ params.w
        s = np.clip(expit(np.sum(z[u] * z[v], axis=1)), _S_EPS, 1.0 - _S_EPS)
        loss = float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))

        def grads():
            ds = (s - y) / len(y)
            dz = _scatter_rows(
                np.concatenate([u, v]),
                np.concatenate([ds[:, None] * z[v], ds[:, None] * z[u]]),
                full_n,
            )
            dw = m_in.T @ dz
            dm = dz @ params.w.T
            dembed = a_known @ dm
            dembed[unobs] += _WEIGHT_DECAY * params.embed[unobs]
            return [dembed, dw]

        return loss, grads

    descend([params.embed, params.w], evaluate, cfg)
    return params


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """out[index[i]] += rows[i] for each i in order, from zeros: the sums of
    ``np.add.at(out, index, rows)``, bit for bit, one bincount per column."""
    out = np.empty((n, rows.shape[1]))
    for c, col in enumerate(rows.T):
        out[:, c] = np.bincount(index, weights=col, minlength=n)
    return out


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the ascending array ``sorted_keys``."""
    if len(sorted_keys) == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _sample_non_edges(rng, k: int, count: int, edge_keys: np.ndarray):
    """Uniform observed-index pairs (u < v) that are not observed edges;
    ``edge_keys`` (u * k + v of the observed edges) must be ascending."""
    out_u = np.empty(count, dtype=np.int64)
    out_v = np.empty(count, dtype=np.int64)
    got = 0
    while got < count:
        cand = rng.integers(0, k, size=(2, count - got))
        u = np.minimum(cand[0], cand[1])
        v = np.maximum(cand[0], cand[1])
        ok = (u != v) & ~_in_sorted(edge_keys, u * k + v)
        take = int(np.sum(ok))
        out_u[got : got + take] = u[ok]
        out_v[got : got + take] = v[ok]
        got += take
    return out_u, out_v


def predict_adjacency(
    params: PredictorParams, known: ObservedSample
) -> SoftAdjacency:
    """Score every pair, then overwrite observed pairs with ground truth."""
    z = _encode(params, known)
    probs = expit(z @ z.T)
    np.fill_diagonal(probs, 0.0)
    probs = (probs + probs.T) / 2.0

    kept = known.kept_nodes
    og = known.observed_graph
    block = np.zeros((len(kept), len(kept)))
    block[og.edge_u, og.edge_v] = og.edge_w
    block[og.edge_v, og.edge_u] = og.edge_w
    probs[np.ix_(kept, kept)] = np.clip(block, 0.0, 1.0)
    return SoftAdjacency(probs)


def threshold_adjacency(soft: SoftAdjacency, tau: float) -> Graph:
    """Unit-weight graph keeping every pair with probability at least tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    iu, iv = np.triu_indices(soft.n, k=1)
    keep = soft.probs[iu, iv] >= tau
    return Graph.from_arrays(soft.n, iu[keep], iv[keep])


def pair_scores(
    params: PredictorParams, known: ObservedSample, pairs: np.ndarray
) -> np.ndarray:
    """Decoder probabilities sigma(z_i . z_j) for an array of (i, j) rows,
    without the observed-evidence override."""
    z = _encode(params, known)
    pairs = np.asarray(pairs, dtype=np.int64)
    return expit(np.sum(z[pairs[:, 0]] * z[pairs[:, 1]], axis=1))


def reconstruction_bce(params: PredictorParams, known: ObservedSample) -> float:
    """Mean cross-entropy of raw decoder scores against every observed pair.

    Covers all kept-node pairs (edges and non-edges alike) with no override,
    so a perfectly reconstructing encoder scores near 0. Deterministic.
    """
    kept = known.kept_nodes
    og = known.observed_graph
    iu, iv = np.triu_indices(len(kept), k=1)
    if len(iu) == 0:
        return 0.0
    s = pair_scores(params, known, np.column_stack([kept[iu], kept[iv]]))
    s = np.clip(s, _S_EPS, 1.0 - _S_EPS)
    k = len(kept)
    y = _in_sorted(og.edge_u * k + og.edge_v, iu * k + iv).astype(np.float64)
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


def export_soft_adjacency(soft: SoftAdjacency, cutoff: float = 1e-3) -> str:
    """Coordinate-list CSV ``i,j,prob`` of upper-triangle entries >= cutoff."""
    lines = ["i,j,prob"]
    iu, iv = np.triu_indices(soft.n, k=1)
    vals = soft.probs[iu, iv]
    keep = vals >= cutoff
    for i, j, p in zip(iu[keep], iv[keep], vals[keep]):
        lines.append(f"{int(i)},{int(j)},{float(p)!r}")
    return "\n".join(lines) + "\n"

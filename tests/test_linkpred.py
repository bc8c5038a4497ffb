from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from cograd.gnn import TrainConfig, TrainingDivergedError, default_dims
from cograd.graph import (
    Graph,
    ObservedSample,
    generate_d_regular,
    generate_erdos_renyi,
    renormalized_adjacency,
    sample_observed_subgraph,
)
from cograd import linkpred
from cograd.linkpred import (
    PredictorParams,
    pair_scores,
    predict_adjacency,
    reconstruction_bce,
    train_predictor,
)

_FAST = TrainConfig(seed=0, max_epochs=400, patience=400)


def _sample(n=20, p=0.25, frac=0.7, gseed=3, sseed=1):
    g = generate_erdos_renyi(n, p, seed=gseed)
    return g, sample_observed_subgraph(g, frac, seed=sseed)


def _known_graph(sample, full_n):
    """The observed edges at original indices over full_n nodes; every
    other node isolated."""
    og, kept = sample.observed_graph, sample.kept_nodes
    return Graph.from_arrays(full_n, kept[og.edge_u], kept[og.edge_v], og.edge_w)


def test_train_predictor_deterministic():
    _, s = _sample()
    a = train_predictor(s, 20, _FAST)
    b = train_predictor(s, 20, _FAST)
    assert np.array_equal(a.embed, b.embed)
    assert np.array_equal(a.w, b.w)
    c = train_predictor(s, 20, TrainConfig(seed=5, max_epochs=400, patience=400))
    assert not np.array_equal(a.embed, c.embed)


def test_train_predictor_rejects_edgeless_observation():
    s = sample_observed_subgraph(Graph(10, [(8, 9)]), 0.5, seed=2)
    assert s.observed_graph.m == 0
    with pytest.raises(ValueError, match="no edges"):
        train_predictor(s, 10, _FAST)


def _no_work(*args, **kwargs):
    raise AssertionError("work before the check")


def test_train_predictor_rejects_full_n_below_the_sample(monkeypatch):
    g, s = _sample()
    # the check comes before Â is built or anything is drawn
    monkeypatch.setattr(linkpred, "_renormalized_csr", _no_work)
    monkeypatch.setattr(linkpred, "_draw_normal", _no_work)
    with pytest.raises(ValueError) as got:
        train_predictor(s, g.n - 1, _FAST)
    assert str(got.value) == "full_n=19 is smaller than the sampled graph (20)"


# 0.05 keeps one node, which has no pair to score
@pytest.mark.parametrize("frac", [1.0, 0.7, 0.05])
@pytest.mark.parametrize(
    "score",
    [
        predict_adjacency,
        lambda params, s: pair_scores(params, s, np.array([[0, 1]])),
        reconstruction_bce,
    ],
    ids=["predict_adjacency", "pair_scores", "reconstruction_bce"],
)
def test_scorers_reject_a_table_smaller_than_the_sample(monkeypatch, score, frac):
    _, s = _sample(frac=frac)
    params = PredictorParams(embed=np.zeros((19, 4)), w=np.zeros((4, 2)))
    # the check comes before Â is built or a prediction made
    monkeypatch.setattr(linkpred, "_renormalized_csr", _no_work)
    monkeypatch.setattr(linkpred.Graph, "from_arrays", _no_work)
    with pytest.raises(ValueError) as got:
        score(params, s)
    assert str(got.value) == "full_n=19 is smaller than the sampled graph (20)"


@pytest.mark.parametrize("where", ["embed", "w"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "score",
    [
        predict_adjacency,
        lambda params, s: pair_scores(params, s, np.array([[0, 1]])),
        reconstruction_bce,
    ],
    ids=["predict_adjacency", "pair_scores", "reconstruction_bce"],
)
def test_scorers_reject_a_table_that_is_not_finite(monkeypatch, score, bad, where):
    # a NaN would spread into every score of its row and make no partner
    # beat the k-th score, and the losses would be NaN
    _, s = _sample(frac=0.7)
    rng = np.random.default_rng(0)
    params = PredictorParams(embed=rng.normal(size=(20, 4)), w=rng.normal(size=(4, 2)))
    getattr(params, where)[0, 0] = bad
    monkeypatch.setattr(linkpred, "_renormalized_csr", _no_work)
    monkeypatch.setattr(linkpred.Graph, "from_arrays", _no_work)
    with pytest.raises(ValueError) as got:
        score(params, s)
    assert str(got.value) == f"params.{where} has an entry that is not finite"


@pytest.mark.parametrize("full_n", [20.0, True])
def test_train_predictor_rejects_full_n_that_is_not_a_whole_number(monkeypatch, full_n):
    _, s = _sample()
    monkeypatch.setattr(linkpred, "_renormalized_csr", _no_work)
    monkeypatch.setattr(linkpred, "_draw_normal", _no_work)
    with pytest.raises(ValueError) as got:
        train_predictor(s, full_n, _FAST)
    assert str(got.value) == f"full_n must be a whole number, got {full_n!r}"


@pytest.mark.parametrize("case", ["padded", "isolated", "reg-1600"])
def test_codes_equal_the_known_graph_product(case):
    # the codes against Â of the observed edges at original indices, every
    # other node isolated, times embed and w over all full_n rows
    if case == "padded":
        g, s = _sample(n=40, p=0.2, frac=0.6)
        full_n = g.n + 6
    elif case == "isolated":
        g = generate_d_regular(60, 3, seed=0)
        s = sample_observed_subgraph(g, 0.5, seed=0)
        assert np.any(s.observed_graph.degree == 0)
        full_n = g.n
    else:
        # past the size where OpenBLAS may switch kernels with the rows: a
        # product with w over fewer rows moves the last bits here
        g = generate_d_regular(1600, 3, seed=0)
        s = sample_observed_subgraph(g, 0.8, seed=0)
        full_n = g.n
    d_in, d_z = default_dims(full_n)
    rng = np.random.default_rng(5)
    params = PredictorParams(
        embed=rng.normal(size=(full_n, d_in)), w=rng.normal(size=(d_in, d_z))
    )
    want = (renormalized_adjacency(_known_graph(s, full_n)) @ params.embed) @ params.w
    got = linkpred._encode(params, s)
    assert got.tobytes() == want.tobytes()


def test_train_predictor_divergence_names_epoch():
    _, s = _sample()
    cfg = TrainConfig(seed=0, learning_rate=1e150, max_epochs=50)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train_predictor(s, 20, cfg)


def test_single_observed_edge_scores_high():
    g = Graph(2, [(0, 1)])
    s = sample_observed_subgraph(g, 1.0, seed=0)
    params = train_predictor(s, 2, _FAST)
    assert pair_scores(params, s, np.array([[0, 1]]))[0] > 0.5


def test_predict_override_and_bounds():
    g, s = _sample()
    params = train_predictor(s, 20, _FAST)
    pred = predict_adjacency(params, s)
    assert pred.n == 20
    # one entry per pair, above the diagonal; every other pair weighs 0
    assert np.all(pred.edge_u < pred.edge_v)
    stored = {(int(a), int(b)): x for a, b, x in zip(pred.edge_u, pred.edge_v, pred.edge_w)}
    kept = s.kept_nodes
    og = s.observed_graph
    observed = set(zip(og.edge_u.tolist(), og.edge_v.tolist()))
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            pair = (int(min(kept[a], kept[b])), int(max(kept[a], kept[b])))
            exact = stored.get(pair, 0.0)
            assert exact == (1.0 if (a, b) in observed else 0.0)


def test_full_observation_reproduces_graph():
    g, _ = _sample()
    s = sample_observed_subgraph(g, 1.0, seed=4)
    params = train_predictor(s, 20, _FAST)
    pred = predict_adjacency(params, s)
    for got, want in ((pred.edge_u, g.edge_u), (pred.edge_v, g.edge_v), (pred.edge_w, g.edge_w)):
        assert np.array_equal(got, want)


def test_unobserved_nodes_get_scores_in_range():
    g, s = _sample(frac=0.6)
    params = train_predictor(s, 20, _FAST)
    pred = predict_adjacency(params, s)
    unobs = np.setdiff1d(np.arange(20), s.kept_nodes)
    assert len(unobs) > 0
    at_unobs = np.isin(pred.edge_u, unobs) | np.isin(pred.edge_v, unobs)
    assert np.any(at_unobs)
    sub = pred.edge_w[at_unobs]
    assert np.all((sub >= 0.0) & (sub <= 1.0))


def test_training_beats_density_baseline_on_held_out_edges():
    # drop a tenth of the observed edges, train on the rest, score the
    # dropped ones; the constant predictor emits the training density
    g = generate_erdos_renyi(40, 0.15, seed=11)
    s = sample_observed_subgraph(g, 1.0, seed=0)
    og = s.observed_graph
    rng = np.random.default_rng(0)
    hold = rng.choice(og.m, size=og.m // 10, replace=False)
    mask = np.ones(og.m, dtype=bool)
    mask[hold] = False
    reduced = ObservedSample(
        kept_nodes=s.kept_nodes,
        observed_graph=Graph(og.n, zip(og.edge_u[mask], og.edge_v[mask], og.edge_w[mask])),
        original_n=s.original_n,
    )
    params = train_predictor(reduced, 40, TrainConfig(seed=1))
    pairs = np.column_stack([og.edge_u[hold], og.edge_v[hold]])
    scores = np.clip(pair_scores(params, reduced, pairs), 1e-12, 1 - 1e-12)
    bce = -float(np.mean(np.log(scores)))
    density = reduced.observed_graph.m / (og.n * (og.n - 1) / 2)
    assert bce < -np.log(density)


def test_reconstruction_bce_decreases_with_training():
    g, s = _sample()
    barely = train_predictor(s, 20, TrainConfig(seed=0, max_epochs=1, patience=1))
    trained = train_predictor(s, 20, _FAST)
    assert reconstruction_bce(trained, s) < reconstruction_bce(barely, s)


def test_predictor_params_full_n():
    p = PredictorParams(embed=np.zeros((7, 3)), w=np.zeros((3, 2)))
    assert p.full_n == 7


def _reference_train_predictor(sample, full_n, cfg):
    """train_predictor as a plain out-of-place loop over public calls:
    np.add.at scatters, np.isin for the negative draws, textbook Adam over
    every row of the table, the unobserved ones with weight decay, and the
    best-loss patience window. Returns the parameters, the number of
    epochs run and why the loop stopped: a stop by the window takes no step
    in its last epoch."""
    og, kept = sample.observed_graph, sample.kept_nodes
    a_known = renormalized_adjacency(_known_graph(sample, full_n))
    d_in, d_z = default_dims(full_n)
    rng = np.random.default_rng(cfg.seed)
    params = [rng.normal(0.0, 1.0 / np.sqrt(d_in), (full_n, d_in)),
              rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_z))]
    k = og.n
    edge_keys = og.edge_u * k + og.edge_v
    free = k * (k - 1) // 2 - og.m > 0
    unobs = np.setdiff1d(np.arange(full_n), kept)
    m = [np.zeros_like(x) for x in params]
    v2 = [np.zeros_like(x) for x in params]
    best, trace = np.inf, []
    for epoch in range(1, cfg.max_epochs + 1):
        embed, w = params
        u, v = kept[og.edge_u], kept[og.edge_v]
        y = np.ones(og.m)
        if free:
            neg_u, neg_v = [], []
            while len(neg_u) < og.m:
                cand = rng.integers(0, k, size=(2, og.m - len(neg_u)))
                a, b = np.minimum(cand[0], cand[1]), np.maximum(cand[0], cand[1])
                ok = (a != b) & ~np.isin(a * k + b, edge_keys)
                neg_u += list(a[ok])
                neg_v += list(b[ok])
            u = np.concatenate([u, kept[np.array(neg_u, dtype=np.int64)]])
            v = np.concatenate([v, kept[np.array(neg_v, dtype=np.int64)]])
            y = np.concatenate([y, np.zeros(og.m)])
        m_in = a_known @ embed
        z = m_in @ w
        # the sigmoid as train_predictor computes it, 1 / (1 + exp(-x))
        s = np.clip(1.0 / (1.0 + np.exp(-np.sum(z[u] * z[v], axis=1))), 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))
        best = min(best, loss)
        trace.append(best)
        if epoch > cfg.patience and trace[epoch - 1 - cfg.patience] - best < cfg.tolerance:
            return params, epoch, "patience"
        ds = (s - y) / len(y)
        dz = np.zeros_like(z)
        np.add.at(dz, u, ds[:, None] * z[v])
        np.add.at(dz, v, ds[:, None] * z[u])
        dembed = a_known @ (dz @ w.T)
        dembed[unobs] += 1e-4 * embed[unobs]
        grads = [dembed, m_in.T @ dz]
        c1, c2 = 1.0 - 0.9**epoch, 1.0 - 0.999**epoch
        for i, (x, g) in enumerate(zip(params, grads)):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v2[i] = 0.999 * v2[i] + (1.0 - 0.999) * g * g
            x -= cfg.learning_rate * (m[i] / c1) / (np.sqrt(v2[i] / c2) + 1e-8)
    return params, cfg.max_epochs, "max_epochs"


# why each case's descent stops: by the window, the last epoch takes no
# step, so the unobserved rows take one step fewer than the epochs run
_STOP_REASONS = {
    "partial": "patience",
    "complete": "patience",
    "padded": "patience",
    "larger": "patience",
    "dense": "max_epochs",
    "isolated": "patience",
    "isolated/max_epochs": "max_epochs",
}


@pytest.mark.parametrize("case", list(_STOP_REASONS))
def test_train_predictor_bit_identical_to_reference_loop(case):
    cfg = TrainConfig(seed=2, max_epochs=300, patience=60, tolerance=1e-3)
    if case == "partial":
        g, s = _sample(n=40, p=0.2, frac=0.7)
        full_n = g.n
    elif case == "larger":
        g = generate_d_regular(150, 3, seed=4)
        s = sample_observed_subgraph(g, 0.8, seed=4)
        full_n = g.n + 9
    elif case == "complete":
        # every observed pair is an edge: no negatives to draw
        g = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        s = sample_observed_subgraph(g, 0.8, seed=0)
        full_n = g.n
    elif case == "dense":
        # most draws are rejected, so epochs take several rounds and the
        # stream refills often; 420 fixed epochs run past t = 356, where
        # Adam's first bias correction rounds to 1 in float64
        g = generate_erdos_renyi(30, 0.85, seed=2)
        s = sample_observed_subgraph(g, 0.8, seed=3)
        full_n = g.n
        cfg = TrainConfig(seed=2, max_epochs=420, patience=420)
    elif case.startswith("isolated"):
        # observed nodes whose every neighbour is unobserved: their rows of
        # Â hold only the diagonal, and they feel only negative pairs
        g = generate_d_regular(60, 3, seed=0)
        s = sample_observed_subgraph(g, 0.5, seed=0)
        assert np.any(s.observed_graph.degree == 0)
        full_n = g.n + 3
        if case == "isolated/max_epochs":
            cfg = TrainConfig(seed=2, max_epochs=80, patience=80)
    else:
        g, s = _sample()
        full_n = g.n + 6
    got = train_predictor(s, full_n, cfg)
    (embed, w), epochs, reason = _reference_train_predictor(s, full_n, cfg)
    assert reason == _STOP_REASONS[case]
    assert (epochs < cfg.max_epochs) == (reason == "patience")
    assert np.array_equal(got.embed, embed)
    assert np.array_equal(got.w, w)


def _reference_non_edges(rng, og, count):
    """The negative draws of _reference_train_predictor, with the number of
    rounds they took."""
    k = og.n
    edge_keys = og.edge_u * k + og.edge_v
    neg_u, neg_v, rounds = [], [], 0
    while len(neg_u) < count:
        cand = rng.integers(0, k, size=(2, count - len(neg_u)))
        a, b = np.minimum(cand[0], cand[1]), np.maximum(cand[0], cand[1])
        ok = (a != b) & ~np.isin(a * k + b, edge_keys)
        neg_u += list(a[ok])
        neg_v += list(b[ok])
        rounds += 1
    return np.array([neg_u, neg_v], dtype=np.int64), rounds


@pytest.mark.parametrize("case", ["dense", "k=2", "straddle", "collisions"])
def test_sample_non_edges_draws_the_isin_reference_pairs(monkeypatch, case):
    if case == "k=2":
        # one pair, not an edge: half the draws are self-pairs
        og = Graph(2, [])
        count = 9
    else:
        # 85 % of the observed pairs are edges: most draws are rejected
        og = generate_erdos_renyi(30, 0.85, seed=2)
        assert og.m >= 0.8 * 30 * 29 / 2
        count = og.m
    if case == "straddle":
        # a stream of one epoch's first round: every later first round
        # starts in one chunk and ends in the next
        monkeypatch.setattr(linkpred, "_STREAM", 1)
    if case == "collisions":
        # one bucket per taken key: with 8 the table outnumbers this
        # graph's k * k keys, so no bucket would hold two keys
        monkeypatch.setattr(linkpred, "_BUCKETS", 1)
    rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    sample = linkpred._NonEdgeSampler(rng, og, count)
    if case == "collisions":
        # some keys that are not taken share a bucket with a taken key, so
        # only the search can accept them
        u, v = np.triu_indices(og.n, 1)
        keys = u * og.n + v
        free = ~np.isin(keys, sample.taken)
        assert np.any(sample.occupied[keys[free] % sample.size])
    # three epochs' draws from one stream
    for epoch in range(3):
        if case == "straddle":
            assert (sample.pos + 2 * count > len(sample.stream)) == (epoch > 0)
        got = sample()
        want, rounds = _reference_non_edges(rng_ref, og, count)
        assert rounds >= 3
        assert got.tobytes() == want.tobytes()
        # the sampler took exactly the values the per-round draws took
        fresh = np.random.default_rng(7)
        fresh.integers(0, og.n, size=sample.used)
        assert fresh.bit_generator.state == rng_ref.bit_generator.state


def test_reconstruction_bce_equals_dense_label_formula():
    for frac, seed in [(0.7, 1), (1.0, 2), (0.3, 3)]:
        g, s = _sample(n=30, frac=frac, sseed=seed)
        params = train_predictor(s, 30, TrainConfig(seed=seed, max_epochs=50))
        kept, og = s.kept_nodes, s.observed_graph
        iu, iv = np.triu_indices(len(kept), k=1)
        sc = pair_scores(params, s, np.column_stack([kept[iu], kept[iv]]))
        sc = np.clip(sc, 1e-12, 1.0 - 1e-12)
        adj = np.zeros((len(kept), len(kept)))
        adj[og.edge_u, og.edge_v] = 1.0
        adj[og.edge_v, og.edge_u] = 1.0
        y = adj[iu, iv]
        want = float(-np.mean(y * np.log(sc) + (1.0 - y) * np.log(1.0 - sc)))
        assert reconstruction_bce(params, s) == want


def _reference_reconstruction_bce(params, sample, rows):
    """reconstruction_bce as a per-pair scorer: blocks of ``rows`` rows of
    the observed pairs in row-major order, each pair's two codes gathered
    (through pair_scores), edge labels from np.isin and one np.sum per
    block added to a running total."""
    kept, og = sample.kept_nodes, sample.observed_graph
    k = len(kept)
    edge_keys = og.edge_u * k + og.edge_v
    cols = np.arange(k)
    total = 0.0
    for r0 in range(0, k, rows):
        block = cols[r0 : r0 + rows]
        bi, iv = np.nonzero(block[:, None] < cols)
        if len(bi) == 0:
            continue
        iu = block[bi]
        s = pair_scores(params, sample, np.column_stack([kept[iu], kept[iv]]))
        s = np.clip(s, 1e-12, 1.0 - 1e-12)
        edge = np.isin(iu * k + iv, edge_keys)
        total += float(np.sum(np.log(np.where(edge, s, 1.0 - s))))
    return -total / (k * (k - 1) // 2)


def _bce_case(case):
    """(sample, full_n) of one reconstruction_bce case."""
    if case == "complete":
        g = Graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        return sample_observed_subgraph(g, 1.0, seed=0), 7
    if case == "isolated":
        # observed nodes 4..9 have no observed edge, so neither do their rows
        g = Graph(10, [(0, 1), (0, 3), (1, 2), (2, 3)])
        return sample_observed_subgraph(g, 1.0, seed=0), 10
    if case == "k=2":
        og = Graph(2, [(0, 1)])
        return ObservedSample(kept_nodes=np.array([1, 3]), observed_graph=og, original_n=5), 5
    g, s = _sample(n=30, p=0.15, frac=0.7)
    return s, (g.n + 7 if case == "padded" else g.n)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("case", ["complete", "isolated", "k=2", "partial", "padded"])
def test_reconstruction_bce_bit_identical_to_per_pair_reference(monkeypatch, case, rows):
    s, full_n = _bce_case(case)
    k = len(s.kept_nodes)
    rng = np.random.default_rng(len(case) + rows)
    # 19-wide codes: numpy sums 8 or more terms in eight interleaved partial
    # sums, so any other summation order shows in the low bits
    params = PredictorParams(
        embed=rng.normal(size=(full_n, 6)), w=rng.normal(size=(6, 19)) / 3.0
    )
    # _row_blocks(cols, k) takes _BLOCK // k rows at a time
    monkeypatch.setattr(linkpred, "_BLOCK", rows * k)
    blocks = [len(b) for b in linkpred._row_blocks(np.arange(k), k)]
    assert set(blocks) <= {1, 2} and rows in blocks
    got = reconstruction_bce(params, s)
    assert got.hex() == _reference_reconstruction_bce(params, s, rows).hex()


def _budget(sample, full_n):
    og = sample.observed_graph
    return min(max(1, round(2 * og.m * full_n / og.n**2)), full_n - 1)


@pytest.mark.parametrize("frac, full_n", [(0.6, 40), (0.8, 40), (0.5, 46)])
def test_predicted_pairs_are_truth_plus_budgeted_partners(frac, full_n):
    g = generate_erdos_renyi(40, 0.1, seed=5)
    s = sample_observed_subgraph(g, frac, seed=2)
    params = train_predictor(s, full_n, _FAST)
    pred = predict_adjacency(params, s)
    kept, og = s.kept_nodes, s.observed_graph
    unobs = np.setdiff1d(np.arange(full_n), kept)
    k = _budget(s, full_n)
    assert len(pred.edge_w) <= og.m + k * len(unobs)
    assert np.all(pred.edge_u < pred.edge_v)
    assert np.all(np.diff(pred.edge_u * full_n + pred.edge_v) > 0)
    observed = np.isin(pred.edge_u, kept) & np.isin(pred.edge_v, kept)
    truth = {(int(kept[a]), int(kept[b])) for a, b, _ in og.edges}
    assert {(int(a), int(b)) for a, b in zip(pred.edge_u[observed], pred.edge_v[observed])} == truth
    assert np.all(pred.edge_w[observed] == 1.0)
    pairs = np.column_stack([pred.edge_u[~observed], pred.edge_v[~observed]])
    assert np.array_equal(pred.edge_w[~observed], pair_scores(params, s, pairs))
    # each unobserved node keeps its k best partners, so it has at least k
    touch = np.bincount(np.concatenate([pred.edge_u, pred.edge_v]), minlength=full_n)
    assert np.all(touch[unobs] >= k)


def test_partner_budget_is_sampling_corrected_mean_degree():
    # 3-regular, n = 800, 80 % observed: the budget is the true degree
    g = generate_d_regular(800, 3, seed=0)
    s = sample_observed_subgraph(g, 0.8, seed=0)
    assert _budget(s, 800) == 3
    params = PredictorParams(
        embed=np.random.default_rng(0).normal(size=(800, 8)), w=np.eye(8, 4)
    )
    pred = predict_adjacency(params, s)
    assert len(pred.edge_w) <= s.observed_graph.m + 3 * 160
    assert len(pred.edge_w) <= 2 * g.m


def test_tied_scores_go_to_smaller_index():
    # nodes 0 and 1 are observed with one edge; 2..7 are unobserved and
    # have no observed neighbourhood, so their codes are their embedding rows.
    # Every unobserved pair scores exactly 1 and every pair with an
    # observed node 0; the budget is round(2 * 1 * 8 / 2**2) = 4 of 5 ties.
    s = ObservedSample(
        kept_nodes=np.array([0, 1]), observed_graph=Graph(2, [(0, 1)]), original_n=8
    )
    embed = np.zeros((8, 2))
    embed[2:, 0] = 1.0
    params = PredictorParams(embed=embed, w=np.eye(2))
    pred = predict_adjacency(params, s)
    got = {(int(a), int(b)) for a, b in zip(pred.edge_u, pred.edge_v)}
    want = {(0, 1)}
    for a in range(2, 8):
        others = [b for b in range(2, 8) if b != a][:4]
        want |= {(min(a, b), max(a, b)) for b in others}
    assert got == want
    assert (6, 7) not in got and (2, 3) in got


@pytest.mark.parametrize("k", [1, 4, 9])
def test_top_partners_row_floor_keeps_the_keys_of_one_row_blocks(monkeypatch, k):
    # a _BLOCK of 8 entries holds no row of 300 scores, so every block is
    # as tall as the floor; rows 150.. repeat rows 0.. and every seventh
    # row is zero, so many scores tie
    n = 300
    z = np.random.default_rng(5).normal(size=(n, 6))
    z[150:] = z[:150]
    z[::7] = 0.0
    rows = np.arange(0, n, 2)
    monkeypatch.setattr(linkpred, "_BLOCK", 8)
    floor = linkpred._TOP_ROWS
    assert floor == 32
    sizes = [len(b) for b in linkpred._row_blocks(rows, n, least=floor)]
    assert sizes == [32, 32, 32, 32, 22]
    got = linkpred._top_partners(z, rows, k)
    monkeypatch.setattr(linkpred, "_TOP_ROWS", 1)
    want = linkpred._top_partners(z, rows, k)
    assert got.tobytes() == want.tobytes()
    assert len(np.unique(want)) == len(want) >= len(rows) * k // 2


def test_predict_adjacency_memory_is_far_below_dense():
    n = 3000
    g = generate_d_regular(n, 3, seed=1)
    s = sample_observed_subgraph(g, 0.8, seed=1)
    d_in, d_z = default_dims(n)
    rng = np.random.default_rng(0)
    params = PredictorParams(
        embed=rng.normal(size=(n, d_in)), w=rng.normal(size=(d_in, d_z)) / d_in
    )
    tracemalloc.start()
    try:
        pred = predict_adjacency(params, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pred.edge_w) <= 2 * g.m
    assert peak < n * n * 8 / 10, f"peak {peak / 1e6:.1f} MB"


def test_reconstruction_bce_memory_is_bounded():
    # 3200 observed nodes give 5.1 million observed pairs: one float64 per
    # pair would be 41 MB, while the blocks and the codes take a few MiB
    # (4.9 MiB measured)
    n = 4000
    g = generate_d_regular(n, 3, seed=1)
    s = sample_observed_subgraph(g, 0.8, seed=1)
    params = train_predictor(s, n, TrainConfig(seed=0, max_epochs=5, patience=5))
    tracemalloc.start()
    try:
        loss = reconstruction_bce(params, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < loss < np.inf
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "pairs, fragment",
    [
        ([[-1, 0]], "out of range for n=20"),
        ([[20, 0]], "out of range for n=20"),
        ([[0, 2**70]], "out of range for n=20"),
        ([[1.7, 0]], "not an integer"),
        ([[0, np.nan]], "not an integer"),
        ([[3, 3]], "self-loop at node 3"),
        ([[0, 1, 2]], r"shape \(k, 2\)"),
        ([0, 1], r"shape \(k, 2\)"),
    ],
)
def test_pair_scores_rejects_pairs_that_are_not_node_pairs(pairs, fragment):
    g, s = _sample()
    rng = np.random.default_rng(0)
    params = PredictorParams(embed=rng.normal(size=(g.n, 4)), w=rng.normal(size=(4, 3)))
    with pytest.raises(ValueError, match=fragment):
        pair_scores(params, s, pairs)
    # sound pairs in any orientation, repeats included, are still scored
    got = pair_scores(params, s, np.array([[0, 19], [19, 0], [0, 19]]))
    assert got[0] == got[1] == got[2]
    assert pair_scores(params, s, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def test_decoder_raises_no_overflow_warning():
    # codes this large put some z_u . z_v far below -709, where the
    # sigmoid's exp(-x) overflows and the probability is exactly 0
    g, s = _sample()
    rng = np.random.default_rng(9)
    params = PredictorParams(embed=rng.normal(0.0, 1e3, (g.n, 4)), w=rng.normal(size=(4, 3)))
    iu, iv = np.triu_indices(g.n, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = pair_scores(params, s, np.column_stack([iu, iv]))
        predict_adjacency(params, s)
        reconstruction_bce(params, s)
    assert np.any(scores == 0.0) and np.any(scores == 1.0)

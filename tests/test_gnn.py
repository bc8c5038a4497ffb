from __future__ import annotations

import ctypes
import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from cograd import gnn
from cograd._sparse import Csr
from cograd._sparse import spmm as _spmm
from cograd.graph import (
    Graph,
    generate_d_regular,
    generate_erdos_renyi,
    renormalized_adjacency,
)
from cograd.gnn import (
    Adam,
    GcnParams,
    SoftAssignment,
    TrainConfig,
    TrainingDivergedError,
    _P_EPS,
    _Workspace,
    backward,
    default_dims,
    export_loss_trace,
    forward,
    init_params,
    project_and_repair,
    relaxed_loss,
    train,
)
from cograd.qubo import (
    ProblemKind,
    QuboMatrix,
    build_qubo,
    is_feasible,
    objective,
)


def _fd_check(params: GcnParams, a_hat, q, h=1e-5):
    grads = backward(params, a_hat, q)
    worst = 0.0
    for arr, grad in zip(params.arrays(), grads.arrays()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            lp = relaxed_loss(forward(params, a_hat), q)
            arr[idx] = old - h
            lm = relaxed_loss(forward(params, a_hat), q)
            arr[idx] = old
            fd = (lp - lm) / (2 * h)
            # the 1e-4 floor keeps FD round-off noise (~1e-10) from
            # registering as relative error where the true gradient is 0
            denom = max(abs(fd), abs(grad[idx]), 1e-4)
            worst = max(worst, abs(grad[idx] - fd) / denom)
    return worst


def test_init_deterministic_and_shaped():
    a = init_params(5, 4, 2, seed=1)
    b = init_params(5, 4, 2, seed=1)
    assert a.h0.shape == (5, 4) and a.w0.shape == (4, 2) and a.w1.shape == (2, 1)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    c = init_params(5, 4, 2, seed=2)
    assert not np.array_equal(a.h0, c.h0)
    with pytest.raises(ValueError):
        init_params(5, 0, 2, seed=1)


def test_init_scale_statistics():
    # 10^4 draws at scale 1/sqrt(4): sample mean within 3 standard errors
    p = init_params(2500, 4, 2, seed=3)
    scale = 0.5
    assert abs(p.h0.mean()) < 3 * scale / 100
    assert np.isclose(p.h0.std(), scale, rtol=0.05)


def test_forward_zero_output_weights_give_half():
    g = generate_erdos_renyi(7, 0.5, seed=0)
    a_hat = renormalized_adjacency(g)
    params = init_params(7, 4, 3, seed=0)
    params.w1[:] = 0.0
    p = forward(params, a_hat)
    assert len(p) == 7
    assert np.all(np.asarray(p) == 0.5)


def test_forward_single_isolated_node_by_hand():
    g = Graph(1)
    a_hat = renormalized_adjacency(g)
    params = init_params(1, 3, 2, seed=5)
    p = float(np.asarray(forward(params, a_hat))[0])
    z = np.maximum(params.h0 @ params.w0, 0.0) @ params.w1
    assert np.isclose(p, 1.0 / (1.0 + np.exp(-z[0, 0])))


def test_forward_output_strictly_inside_unit_interval():
    g = generate_erdos_renyi(15, 0.3, seed=2)
    a_hat = renormalized_adjacency(g)
    params = init_params(15, 6, 3, seed=2)
    params.w1 *= 100.0
    p = np.asarray(forward(params, a_hat))
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_forward_rejects_shape_mismatch():
    g = generate_erdos_renyi(6, 0.5, seed=0)
    a_hat = renormalized_adjacency(g)
    with pytest.raises(ValueError):
        forward(init_params(5, 4, 2, seed=0), a_hat)


def test_soft_assignment_validation():
    with pytest.raises(ValueError):
        SoftAssignment(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        SoftAssignment(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        SoftAssignment(np.array([[0.5]]))
    sa = SoftAssignment(np.array([0.25, 0.75]))
    assert np.array_equal(np.asarray(sa), [0.25, 0.75])


def test_relaxed_loss_matches_hamiltonian():
    g = Graph(2, [(0, 1)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    assert relaxed_loss(SoftAssignment(np.array([0.5, 0.5])), q) == -0.5
    zero = QuboMatrix(2, {})
    assert relaxed_loss(np.array([0.3, 0.9]), zero) == 0.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(4):
        g = generate_erdos_renyi(6, 0.5, seed=trial)
        kind = list(ProblemKind)[trial % 3]
        q = build_qubo(kind, g)
        a_hat = renormalized_adjacency(g)
        params = init_params(6, 4, 3, seed=int(rng.integers(1000)))
        worst = max(worst, _fd_check(params, a_hat, q))
    assert worst < 1e-4


def test_backward_zero_q_gives_zero_grads():
    g = generate_erdos_renyi(5, 0.6, seed=1)
    a_hat = renormalized_adjacency(g)
    grads = backward(init_params(5, 4, 2, seed=1), a_hat, QuboMatrix(5, {}))
    for arr in grads.arrays():
        assert np.all(arr == 0.0)


def test_backward_at_zero_output_weights():
    g = generate_erdos_renyi(6, 0.5, seed=3)
    q = build_qubo(ProblemKind.MAXCUT, g)
    a_hat = renormalized_adjacency(g)
    params = init_params(6, 4, 3, seed=3)
    params.w1[:] = 0.0
    assert _fd_check(params, a_hat, q) < 1e-4


def test_tiny_gradient_step_descends():
    for seed in range(10):
        g = generate_erdos_renyi(8, 0.4, seed=seed)
        kind = list(ProblemKind)[seed % 3]
        q = build_qubo(kind, g)
        a_hat = renormalized_adjacency(g)
        params = init_params(8, 4, 2, seed=seed)
        before = relaxed_loss(forward(params, a_hat), q)
        grads = backward(params, a_hat, q)
        for arr, grad in zip(params.arrays(), grads.arrays()):
            arr -= 1e-6 * grad
        after = relaxed_loss(forward(params, a_hat), q)
        assert after <= before + 1e-9


def test_adam_first_step_size_is_learning_rate():
    # with bias correction the first update is lr * sign(grad) (eps aside)
    opt = Adam(0.01)
    a = np.zeros(3)
    opt.step([a], [np.array([1.0, -2.0, 0.5])])
    assert np.allclose(a, [-0.01, 0.01, -0.01], atol=1e-6)


def _textbook_adam_step(arrays, grads, m, v, t, lr):
    """Adam step t out of place: m, v and the update as single expressions."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for i, (x, g) in enumerate(zip(arrays, grads)):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * g * g
        x -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)


def test_adam_steps_match_textbook_bit_for_bit():
    # 420 steps: the first bias correction rounds to 1 from t = 165 in
    # float32 and t = 356 in float64, after which Adam skips its division
    steps = 420
    for dtype, rounds_at in ((np.float32, 165), (np.float64, 356)):
        assert dtype(1.0 - 0.9**rounds_at) == 1.0 != dtype(1.0 - 0.9**(rounds_at - 1))
        rng = np.random.default_rng(11)
        start = [rng.normal(size=(40, 6)).astype(dtype),
                 rng.normal(size=(6, 1)).astype(dtype)]
        scales = (-3, 0, 2, -1, 1, 0)
        grads = [[rng.normal(scale=10.0**scales[t % 6], size=x.shape).astype(dtype)
                  for x in start] for t in range(steps)]
        ours = [x.copy() for x in start]
        opt = Adam(0.03)
        for g in grads:
            opt.step(ours, g)
        ref = [x.copy() for x in start]
        m, v = [np.zeros_like(x) for x in ref], [np.zeros_like(x) for x in ref]
        for t, g in enumerate(grads, start=1):
            _textbook_adam_step(ref, g, m, v, t, 0.03)
        for x, y in zip(ours, ref):
            assert x.dtype == y.dtype == dtype
            assert np.array_equal(x, y)


def test_forward_backward_return_fresh_arrays():
    g = generate_erdos_renyi(20, 0.3, seed=4)
    q = build_qubo(ProblemKind.MIS, g)
    a_hat = renormalized_adjacency(g)
    params = init_params(20, 5, 3, seed=4)
    ws = _Workspace(a_hat, 5, 3, q)
    ws.forward(params)
    ws.backward(params)
    buffers = [x for x in vars(ws).values() if isinstance(x, np.ndarray)]
    buffers += params.arrays()
    first = backward(params, a_hat, q).arrays() + [np.asarray(forward(params, a_hat))]
    second = backward(params, a_hat, q).arrays() + [np.asarray(forward(params, a_hat))]
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
    for i, x in enumerate(first + second):
        for y in buffers + (first + second)[i + 1:]:
            assert not np.shares_memory(x, y)


def _reference_train(g, q, cfg):
    """A float64 descent as a plain loop, every array out of place: Â times
    each layer's input before its weight, (Â h0) w0 and (Â h1) w1, textbook
    Adam and the best-loss patience window. Its sums associate differently
    from train()'s kernel, which multiplies by the weight first."""
    a = renormalized_adjacency(g)
    params = init_params(g.n, *default_dims(g.n), cfg.seed)
    h0, w0, w1 = (x.copy() for x in params.arrays())
    m = [np.zeros_like(x) for x in (h0, w0, w1)]
    v = [np.zeros_like(x) for x in (h0, w0, w1)]
    best_loss, best_p, trace, stop = np.inf, None, [], "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        p0 = a @ h0
        h1 = np.maximum(p0 @ w0, 0.0)
        p1 = a @ h1
        p = np.clip(expit((p1 @ w1)[:, 0]), _P_EPS, 1.0 - _P_EPS)
        loss = relaxed_loss(p, q)
        if loss < best_loss:
            best_loss, best_p = loss, p.copy()
        trace.append((epoch, loss, best_loss))
        if (epoch > cfg.patience
                and trace[epoch - 1 - cfg.patience][2] - best_loss < cfg.tolerance):
            stop = "patience"
            break
        dz2 = (q.gradient(p) * p * (1.0 - p))[:, None]
        dz1 = (a @ (dz2 @ w1.T)) * (h1 > 0.0)
        grads = [a @ (dz1 @ w0.T), p0.T @ dz1, p1.T @ dz2]
        _textbook_adam_step([h0, w0, w1], grads, m, v, epoch, cfg.learning_rate)
    return best_p, trace, stop


def _reference_train_f32(g, q, cfg):
    """train()'s mixed precision and association as a plain loop, every
    array out of place: Â, the parameters, the n x d products, the gradients
    and Adam in float32; p, the loss and dH/dp p (1 - p) in float64. Each
    layer multiplies by its weight before Â."""
    f32 = np.float32
    a = renormalized_adjacency(g).astype(f32)
    params = init_params(g.n, *default_dims(g.n), cfg.seed)
    h0, w0, w1 = (x.astype(f32) for x in params.arrays())
    m = [np.zeros_like(x) for x in (h0, w0, w1)]
    v = [np.zeros_like(x) for x in (h0, w0, w1)]
    best_loss, best_p, trace, stop = np.inf, None, [], "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        h1 = np.maximum(a @ (h0 @ w0), 0.0)
        z2 = a @ (h1 @ w1)
        # the sigmoid as train() computes it, 1 / (1 + exp(-z))
        p = np.clip(1.0 / (1.0 + np.exp(-z2[:, 0].astype(np.float64))), _P_EPS, 1.0 - _P_EPS)
        loss = relaxed_loss(p, q)
        if loss < best_loss:
            best_loss, best_p = loss, p.copy()
        trace.append((epoch, loss, best_loss))
        if (epoch > cfg.patience
                and trace[epoch - 1 - cfg.patience][2] - best_loss < cfg.tolerance):
            stop = "patience"
            break
        dz2 = (q.gradient(p) * p * (1.0 - p)).astype(f32)[:, None]
        a_dz2 = a @ dz2
        dz1 = (a_dz2 * w1.T) * (h1 > 0.0)
        a_dz1 = a @ dz1
        grads = [a_dz1 @ w0.T, h0.T @ a_dz1, h1.T @ a_dz2]
        assert all(x.dtype == f32 for x in grads)
        _textbook_adam_step([h0, w0, w1], grads, m, v, epoch, cfg.learning_rate)
    return best_p, trace, stop


def _train_case(kind, graph):
    if graph == "regular":
        g = generate_d_regular(40, 3, seed=2)
    elif graph == "large":
        g = generate_d_regular(300, 3, seed=5)
        assert default_dims(g.n)[0] == 17
    else:
        g = Graph(12, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
    cfg = TrainConfig(seed=3, max_epochs=250, patience=40, tolerance=1e-3)
    return g, build_qubo(kind, g), cfg


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("graph", ["regular", "isolated", "large"])
def test_train_bit_identical_to_reference_loop(kind, graph):
    g, q, cfg = _train_case(kind, graph)
    sa, tr = train(g, q, cfg)
    p_ref, tr_ref, stop_ref = _reference_train_f32(g, q, cfg)
    assert np.array_equal(np.asarray(sa), p_ref)
    assert tr == tr_ref
    assert tr.stop_reason == stop_ref


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("graph", ["regular", "isolated", "large"])
def test_train_float32_tracks_float64_loop(kind, graph):
    # the float32 epoch must not change what the descent decides: how long
    # it runs, why it stops and the repaired, polished decision
    g, q, cfg = _train_case(kind, graph)
    sa, tr = train(g, q, cfg)
    p64, tr64, stop64 = _reference_train(g, q, cfg)
    assert len(tr) == len(tr64)
    assert tr.stop_reason == stop64
    assert np.max(np.abs(np.asarray(sa) - p64)) <= 1e-4
    for x, y in zip(tr, tr64):
        assert abs(x[1] - y[1]) <= 1e-3 * max(1.0, abs(y[1]))
    assert np.array_equal(
        project_and_repair(kind, g, sa, polish=True),
        project_and_repair(kind, g, p64, polish=True),
    )


@pytest.mark.parametrize("dims", [None, (3, 8)])
def test_sparse_products_are_d1_or_one_column_wide(monkeypatch, dims):
    # each layer multiplies by its weight before Â, so no sparse product is
    # d0 wide; an override with d1 > d0 keeps the same association
    g = generate_d_regular(40, 3, seed=2)
    q = build_qubo(ProblemKind.MIS, g)
    d0, d1 = dims or default_dims(g.n)
    assert d0 != d1
    # the column count of each product with Â, in call order;
    # Q_offdiag p is the one product on a vector
    widths, bind = [], gnn._bind

    def recording(a, x, out):
        product = bind(a, x, out)

        def call():
            if x.ndim == 2:
                widths.append(x.shape[1])
            return product()

        return call

    monkeypatch.setattr(gnn, "_bind", recording)
    train(g, q, TrainConfig(max_epochs=1, d0=d0, d1=d1))
    assert widths == [d1, 1, 1, d1]
    widths.clear()
    forward(init_params(g.n, d0, d1, seed=0), renormalized_adjacency(g))
    assert widths == [d1, 1]


def _csr_cases():
    rng = np.random.default_rng(8)
    g = generate_erdos_renyi(30, 0.1, seed=1)
    a = renormalized_adjacency(g)
    assert a.indices.dtype == np.int32
    wide = sp.csr_array(
        (a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)), shape=a.shape
    )
    # rows 1 and 3 hold no entries
    holes = sp.csr_array(rng.normal(size=(5, 4)) * (np.arange(5) % 2 == 0)[:, None])
    yield a
    yield wide
    yield holes
    yield sp.csr_array((0, 0))
    yield sp.csr_array((1, 1))
    yield sp.csr_array(np.array([[2.5]]))
    yield sp.csr_array((3, 0))


@pytest.mark.parametrize("a", list(_csr_cases()))
@pytest.mark.parametrize("cols", [None, 1, 2, 7])
def test_spmm_byte_equal_to_sparse_product(a, cols):
    rng = np.random.default_rng(3)
    shape = (a.shape[1],) if cols is None else (a.shape[1], cols)
    x = rng.normal(size=shape)
    for dtype in (np.float64, np.float32):
        a, x = a.astype(dtype), x.astype(dtype)
        want = a @ x
        out = np.full(want.shape, np.nan, dtype)
        got = _spmm(a, x, out)
        assert got is out
        assert got.shape == want.shape and got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        # the same arrays as a Csr record
        record = Csr(a.indptr, a.indices, a.data, a.shape)
        out = np.full(want.shape, np.nan, dtype)
        assert _spmm(record, x, out) is out
        assert out.tobytes() == want.tobytes()


def test_spmm_rejects_mismatched_buffers():
    a = renormalized_adjacency(generate_erdos_renyi(6, 0.5, seed=0))
    x = np.ones((6, 3))
    for out in (np.empty((6, 2)), np.empty((5, 3)), np.empty((6, 3), dtype=np.float32),
                np.empty((3, 6)).T):
        with pytest.raises(ValueError):
            _spmm(a, x, out)
    with pytest.raises(ValueError):
        _spmm(a, np.ones((5, 3)), np.empty((6, 3)))
    with pytest.raises(ValueError):
        _spmm(a, np.ones((6, 3, 1)), np.empty((6, 3, 1)))
    with pytest.raises(ValueError):
        _spmm(a.tocsc(), x, np.empty((6, 3)))


def test_spmm_rejects_mixed_dtypes():
    a64 = renormalized_adjacency(generate_erdos_renyi(6, 0.5, seed=0))
    a32 = a64.astype(np.float32)
    for a, x, out_dtype in [
        (a64, np.ones((6, 3), np.float32), np.float32),
        (a32, np.ones((6, 3)), np.float64),
        (a32, np.ones((6, 3), np.float32), np.float64),
        (a64, np.ones(6, np.float32), np.float64),
        (a32, np.ones(6), np.float32),
    ]:
        with pytest.raises(ValueError):
            _spmm(a, x, np.empty(x.shape, out_dtype))
    ints = sp.csr_array(np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        _spmm(ints, np.ones(3, np.int64), np.empty(3, np.int64))


def test_sigmoid_within_4_ulp_of_expit():
    rng = np.random.default_rng(12)
    z = np.concatenate(
        [rng.normal(0.0, scale, 20_000) for scale in (0.1, 1.0, 5.0, 30.0)]
        + [np.linspace(-40.0, 40.0, 10_001),
           [0.0, -0.0, 1e-300, -708.0, -709.9, -710.0, -800.0, 800.0, -1e30, 1e30]]
    )
    for dtype in (np.float64, np.float32):
        zz = z.astype(dtype)
        with np.errstate(over="ignore"):
            got = gnn._sigmoid(zz, np.empty(len(zz)))
        want = expit(zz.astype(np.float64))
        # both lie in [0, 1], where the int64 view counts ULPs
        assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 4


def test_no_overflow_warning_outside_a_descent():
    # weights this large put z far below -709, where exp(-z) overflows
    g = generate_erdos_renyi(15, 0.3, seed=2)
    q = build_qubo(ProblemKind.MAXCUT, g)
    a_hat = renormalized_adjacency(g)
    params = init_params(15, 6, 3, seed=2)
    params.w1 *= 1e5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.min(forward(params, a_hat).p) == _P_EPS
        backward(params, a_hat, q)


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_workspace_energy_and_gradient_byte_equal_to_qubo(kind):
    g = generate_erdos_renyi(25, 0.2, seed=6)
    q = build_qubo(kind, g)
    other = build_qubo(ProblemKind.MAXCUT, generate_erdos_renyi(25, 0.3, seed=7))
    a_hat = renormalized_adjacency(g)
    params = init_params(25, 5, 3, seed=6)
    ws = _Workspace(a_hat, 5, 3, q)
    p = ws.forward(params)
    assert ws.backward(params) == q.value(p)
    assert q._energy_gradient(ws.qp).tobytes() == q.gradient(p).tobytes()
    want = backward(params, a_hat, q).arrays()
    got = [ws.dh0, ws.dw0, ws.dw1]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    # a workspace bound to a second QUBO gets its own product at the same p
    ws = _Workspace(a_hat, 5, 3, other)
    assert ws.forward(params).tobytes() == p.tobytes()
    assert ws.backward(params) == other.value(p)
    got = [ws.dh0, ws.dw0, ws.dw1]
    want = backward(params, a_hat, other).arrays()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_best_loss_is_the_energy_of_the_returned_p(kind):
    """The trace's last best loss is ``q.value`` of the p that train returns,
    bit for bit, whether the budget or the patience window ends the descent:
    the pipeline reports it as ``h_qubo``."""
    g = generate_erdos_renyi(12, 0.3, seed=5)
    q = build_qubo(kind, g)
    for cfg, reason in [(TrainConfig(seed=1, max_epochs=150, patience=150), "max_epochs"),
                        (TrainConfig(seed=1, max_epochs=5000), "patience")]:
        soft, trace = train(g, q, cfg)
        assert trace.stop_reason == reason
        assert trace[-1][2] == q.value(soft.p)


def test_init_params_fill_one_buffer():
    params = init_params(9, 4, 3, seed=2)
    rng = np.random.default_rng(2)
    want = [rng.normal(0.0, 0.5, (9, 4)), rng.normal(0.0, 0.5, (4, 3)),
            rng.normal(0.0, 1.0 / np.sqrt(3), (3, 1))]
    base = params.h0.base
    for x, y in zip(params.arrays(), want):
        assert x.tobytes() == y.tobytes()
        assert x.base is base and x.flags.c_contiguous
    assert base.shape == (9 * 4 + 4 * 3 + 3,)


def test_train_deterministic_and_best_monotone():
    g = generate_erdos_renyi(10, 0.4, seed=7)
    q = build_qubo(ProblemKind.MAXCUT, g)
    cfg = TrainConfig(seed=4, max_epochs=300, patience=300)
    sa1, tr1 = train(g, q, cfg)
    sa2, tr2 = train(g, q, cfg)
    assert np.array_equal(np.asarray(sa1), np.asarray(sa2))
    assert tr1 == tr2
    best = [b for _, _, b in tr1]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    epochs = [e for e, _, _ in tr1]
    assert epochs == list(range(1, len(tr1) + 1))


def test_train_patience_window_stops_on_plateau():
    g = Graph(2, [(0, 1)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    cfg = TrainConfig(seed=0, patience=50)
    sa, tr = train(g, q, cfg)
    # symmetric two-node pooling forces p0 = p1, so the reachable floor of
    # the relaxed energy is -0.5 at p = 0.5; training must get there and a
    # projected assignment still cuts the edge after polish
    assert len(tr) < 10_000
    assert tr[-1][2] <= -0.45
    x = project_and_repair(ProblemKind.MAXCUT, g, sa, polish=True)
    assert objective(ProblemKind.MAXCUT, g, x) == 1.0


def test_train_records_stop_reason():
    g = Graph(2, [(0, 1)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    _, tr = train(g, q, TrainConfig(seed=0, patience=50))
    assert isinstance(tr, list) and tr.stop_reason == "patience"
    assert len(tr) < 10_000
    _, tr = train(g, q, TrainConfig(seed=0, max_epochs=3, patience=3))
    assert tr.stop_reason == "max_epochs" and len(tr) == 3
    # a window that closes on the last epoch counts as patience
    _, tr = train(g, q, TrainConfig(seed=0, max_epochs=4, patience=3, tolerance=1e9))
    assert tr.stop_reason == "patience" and len(tr) == 4


def test_train_loss_offset_shifts_trace_only():
    g = generate_erdos_renyi(8, 0.4, seed=2)
    q = build_qubo(ProblemKind.MIS, g)
    cfg = TrainConfig(seed=1, max_epochs=100, patience=100)
    sa0, tr0 = train(g, q, cfg)
    sa1, tr1 = train(g, q, cfg, loss_offset=2.5)
    assert np.array_equal(np.asarray(sa0), np.asarray(sa1))
    for (e0, l0, b0), (e1, l1, b1) in zip(tr0, tr1):
        assert e0 == e1
        assert np.isclose(l1 - l0, 2.5)
        assert np.isclose(b1 - b0, 2.5)


def test_train_divergence_names_epoch():
    g = generate_erdos_renyi(8, 0.5, seed=0)
    q = build_qubo(ProblemKind.MAXCUT, g)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(g, q, TrainConfig(seed=0, learning_rate=1e150, max_epochs=10))


def test_train_rejects_dimension_mismatch():
    g = generate_erdos_renyi(5, 0.5, seed=0)
    q = QuboMatrix(4, {})
    with pytest.raises(ValueError):
        train(g, q, TrainConfig())


@pytest.mark.parametrize("dims", [(0, 2), (-1, 2), (4, -3)])
def test_train_rejects_bad_dims(dims):
    g = generate_erdos_renyi(5, 0.5, seed=0)
    q = build_qubo(ProblemKind.MIS, g)
    with pytest.raises(ValueError, match="embedding dims must be at least 1"):
        train(g, q, TrainConfig(d0=dims[0], d1=dims[1], max_epochs=2))


@pytest.mark.parametrize(
    "dims",
    [{"d0": 0}, {"d1": -3}, {"d0": 3.5}, {"d1": 2.0}, {"d0": True}, {"d1": False},
     {"d0": "4"}, {"d0": np.float64(4.0)}],
)
def test_train_config_rejects_bad_dims(dims):
    with pytest.raises(ValueError, match="embedding dims must be at least 1"):
        TrainConfig(**dims)


def test_train_config_accepts_dims():
    assert TrainConfig().d0 is None
    assert TrainConfig(d0=1, d1=np.int64(7)).d1 == 7


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(tolerance=-1e-9)


@pytest.mark.parametrize("field", ["max_epochs", "patience"])
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(4.0), True, "5", None])
def test_train_config_rejects_non_integral_counts(field, value):
    with pytest.raises(ValueError) as err:
        TrainConfig(**{field: value})
    assert str(err.value) == f"{field} must be at least 1 and a whole number, got {value!r}"


def test_train_config_accepts_integral_counts():
    cfg = TrainConfig(max_epochs=np.int64(3), patience=np.int32(2))
    assert (cfg.max_epochs, cfg.patience) == (3, 2)


@pytest.mark.parametrize("field", ["learning_rate", "tolerance"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .* finite"):
        TrainConfig(**{field: value})


def test_default_dims():
    assert default_dims(1) == (4, 2)
    assert default_dims(12) == (4, 2)
    assert default_dims(100) == (10, 5)
    assert default_dims(800) == (28, 14)
    assert default_dims(100_000) == (128, 64)


def test_project_repair_mis_dense_selection():
    # all nodes above threshold on a triangle: repair must cut back to a
    # single selected node and the result stays maximal
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    x = project_and_repair(ProblemKind.MIS, g, np.array([0.9, 0.9, 0.9]))
    assert list(x) == [1, 0, 0]
    assert is_feasible(ProblemKind.MIS, g, x)


def test_project_repair_mvc_sparse_selection():
    g = Graph(3, [(0, 1), (1, 2)])
    x = project_and_repair(ProblemKind.MVC, g, np.array([0.1, 0.1, 0.1]))
    assert list(x) == [0, 1, 0]
    x = project_and_repair(ProblemKind.MVC, g, np.array([0.1, 0.1, 0.1]), polish=True)
    assert objective(ProblemKind.MVC, g, x) == 1.0


def test_project_repair_mis_adds_for_maximality():
    g = Graph(4, [(0, 1), (2, 3)])
    x = project_and_repair(ProblemKind.MIS, g, np.array([0.1, 0.1, 0.1, 0.1]))
    # nothing selected by threshold; maximality sweep adds greedily by index
    assert list(x) == [1, 0, 1, 0]


def test_project_repair_always_feasible():
    rng = np.random.default_rng(11)
    for seed in range(6):
        g = generate_erdos_renyi(14, 0.3, seed=seed)
        p = rng.uniform(0.01, 0.99, g.n)
        for kind in ProblemKind:
            for polish in (False, True):
                x = project_and_repair(kind, g, p, polish=polish)
                assert is_feasible(kind, g, x)
                assert set(np.unique(x)) <= {0, 1}


@pytest.mark.parametrize("kind", list(ProblemKind))
@pytest.mark.parametrize("polish", [False, True])
def test_project_repair_rejects_bad_p(kind, polish):
    g = generate_erdos_renyi(10, 0.3, seed=1)
    nan_at_3 = np.full(10, 0.7)
    nan_at_3[3] = np.nan
    for p in (np.full(13, 0.7), np.full(7, 0.7), np.full(10, np.nan), nan_at_3,
              np.full((10, 1), 0.7), np.float64(0.7)):
        with pytest.raises(ValueError, match="p "):
            project_and_repair(kind, g, p, polish=polish)


def test_polish_improves_in_problem_sense():
    rng = np.random.default_rng(5)
    for seed in range(6):
        g = generate_erdos_renyi(14, 0.3, seed=seed)
        p = rng.uniform(0.01, 0.99, g.n)
        for kind in ProblemKind:
            raw = project_and_repair(kind, g, p, polish=False)
            pol = project_and_repair(kind, g, p, polish=True)
            vr = objective(kind, g, raw)
            vp = objective(kind, g, pol)
            assert vp >= vr if kind.maximize else vp <= vr


def test_export_loss_trace_csv():
    g = Graph(2, [(0, 1)])
    q = build_qubo(ProblemKind.MAXCUT, g)
    _, tr = train(g, q, TrainConfig(seed=0, max_epochs=3, patience=3))
    text = export_loss_trace(tr)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,loss,best_loss"
    assert len(lines) == 4
    e, l, b = lines[1].split(",")
    assert e == "1" and float(l) == float(b)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_openblas_binds_the_mapped_openblas():
    """_openblas() finds the OpenBLAS that the process has mapped, as read
    from /proc/self/maps, and binds that library's own functions."""
    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    paths = {f[5].strip() for f in fields if len(f) == 6}
    paths = [p for p in paths if "openblas" in os.path.basename(p).lower()]
    if not paths:
        pytest.skip("no library with openblas in its file name is mapped")
    address = lambda f: ctypes.cast(f, ctypes.c_void_p).value  # noqa: E731
    mapped = set()
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        for names in gnn._OPENBLAS_SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                mapped.add(tuple(address(getattr(lib, name)) for name in names))
                break
    blas = gnn._openblas()
    assert blas is not None
    assert (address(blas.get), address(blas.set)) in mapped

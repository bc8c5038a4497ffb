"""The bound products of ``cograd._sparse``: the CSR product against
``spmm`` and scipy's ``@``, the scatter against ``np.add.at``."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from cograd._sparse import Csr, bind, bind_scatter, spmm
from cograd.graph import generate_erdos_renyi, renormalized_adjacency


def _scatter_cases():
    rng = np.random.default_rng(11)
    index = rng.integers(0, 6, size=40)
    index[:8] = 2  # one row many times over, in a run
    weights = rng.normal(size=40)
    weights[[3, 9, 17]] = 0.0
    weights[[4, 10, 30]] = -0.0
    yield "repeated", index, weights, rng.normal(size=(40, 5)), 6
    yield "empty", np.zeros(0, np.int64), np.zeros(0), np.zeros((0, 3)), 4
    yield "one row", np.zeros(7, np.int64), rng.normal(size=7), rng.normal(size=(7, 2)), 1
    yield "one column", rng.integers(0, 9, size=12), rng.normal(size=12), rng.normal(size=(12, 1)), 9
    # a zero weight on a row holding -0.0: the sum keeps the sign add.at gives
    yield "signed zeros", np.array([1, 1, 0]), np.array([-0.0, 0.0, 1.5]), np.array(
        [[-0.0, 2.0], [-1.0, -0.0], [-0.0, -0.0]]
    ), 3


@pytest.mark.parametrize("case", list(_scatter_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scatter_byte_equal_to_add_at(case, index_dtype, dtype):
    _, index, weights, rows, n = case
    index = index.astype(index_dtype)
    weights, rows = weights.astype(dtype), rows.astype(dtype)
    want = np.zeros((n, rows.shape[1]), dtype)
    np.add.at(want, index, weights[:, None] * rows)
    out = np.full(want.shape, np.nan, dtype)
    scatter = bind_scatter(index, weights, rows, out)
    assert scatter() is out
    assert out.tobytes() == want.tobytes()
    # the call zeroes out, so a second one gives the same sums
    assert scatter().tobytes() == want.tobytes()


def test_scatter_reads_its_inputs_when_called():
    rng = np.random.default_rng(12)
    index, weights, rows = rng.integers(0, 5, 20), rng.normal(size=20), rng.normal(size=(20, 3))
    out = np.empty((5, 3))
    scatter = bind_scatter(index, weights, rows, out)
    scatter()
    index[:] = rng.integers(0, 5, 20)
    weights *= -2.0
    rows[:] = rng.normal(size=(20, 3))
    want = np.zeros((5, 3))
    np.add.at(want, index, weights[:, None] * rows)
    assert scatter().tobytes() == want.tobytes()


def test_scatter_rejects_mismatched_operands():
    index, weights, rows = np.zeros(4, np.int64), np.ones(4), np.ones((4, 3))
    bad = [
        (index.astype(np.float64), weights, rows, np.empty((5, 3))),
        (index, np.ones(3), rows, np.empty((5, 3))),
        (index, weights, np.ones((3, 3)), np.empty((5, 3))),
        (index, weights, rows, np.empty((5, 2))),
        (index, weights, rows, np.empty(5)),
        (index, weights.astype(np.float32), rows, np.empty((5, 3))),
        (index, weights, rows, np.empty((5, 3), np.float32)),
        (index, weights, np.ones((3, 4)).T, np.empty((5, 3))),
        (index, weights, rows, np.empty((3, 5)).T),
        (np.zeros(8, np.int64)[::2], weights, rows, np.empty((5, 3))),
        (index.reshape(2, 2), weights, rows, np.empty((5, 3))),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            bind_scatter(*args)


def _csr_cases():
    a = renormalized_adjacency(generate_erdos_renyi(30, 0.1, seed=1))
    yield a
    yield Csr(a.indptr, a.indices, a.data, a.shape)
    yield sp.csr_array(np.random.default_rng(2).normal(size=(4, 6)))
    yield sp.csr_array((3, 0))


@pytest.mark.parametrize("a", list(_csr_cases()))
@pytest.mark.parametrize("cols", [None, 1, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bound_product_byte_equal_to_spmm_and_scipy(a, cols, dtype):
    rng = np.random.default_rng(4)
    data = a.data.astype(dtype)
    record = Csr(a.indptr, a.indices, data, a.shape)
    scipy_a = sp.csr_array((data, a.indices, a.indptr), shape=a.shape)
    shape = (a.shape[1],) if cols is None else (a.shape[1], cols)
    x = rng.normal(size=shape).astype(dtype)
    out = np.full((a.shape[0],) + shape[1:], np.nan, dtype)
    product = bind(record, x, out)
    for _ in range(2):
        assert product() is out
        want = scipy_a @ x
        assert out.tobytes() == want.tobytes()
        assert out.tobytes() == spmm(scipy_a, x, np.empty_like(out)).tobytes()
        # the call reads x as it is now: write new values into the buffer
        x[...] = rng.normal(size=shape)


def test_bind_rejects_a_strided_operand_that_spmm_copies():
    a = renormalized_adjacency(generate_erdos_renyi(6, 0.5, seed=0))
    x = np.random.default_rng(5).normal(size=(3, 6)).T
    with pytest.raises(ValueError):
        bind(a, x, np.empty((6, 3)))
    assert spmm(a, x, np.empty((6, 3))).tobytes() == (a @ x).tobytes()

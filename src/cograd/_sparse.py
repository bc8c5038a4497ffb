"""Sparse products on numpy arrays, by scipy's compiled kernels.

The solver and the link predictor need three products: a CSR matrix times
a dense vector or matrix, and the scatter of weighted rows into a dense
matrix. :class:`Csr` holds a matrix's three CSR arrays. :func:`bind`
checks a product ``a @ x -> out`` once and returns it as a call without
arguments; :func:`spmm` is that call made once. :func:`bind_scatter`
binds ``out[index[j]] += weights[j] * rows[j]``, for each j in order, from
zeros. The kernels are the ones scipy's own ``@`` dispatches to, in
``scipy.sparse._sparsetools``: ``csr_matvec`` for a vector or a single
column, ``csr_matvecs`` for a wider matrix, and ``csc_matvecs`` for the
scatter, as a matrix with one column per row scattered. So the products
are scipy's, bit for bit, and the scatter adds in the order
``np.add.at`` does.

Binding is safe because an epoch's operands are fixed buffers: a bound
call holds flat views of them, so it reads whatever they hold when it is
called, and the shapes, dtypes and contiguity it checked at binding
cannot change. So a descent checks each product once, not once per epoch.

The kernel module is loaded from its file in scipy's package directory,
which does not run ``scipy/__init__.py`` or ``scipy/sparse/__init__.py``:
importing ``scipy.sparse`` pulls in ``scipy._lib._util``, which imports a
copy of the whole numpy namespace (``numpy.testing`` and ``numpy.f2py``
among it), and costs more than a short solve. Only where that file is not
found is the module imported through ``scipy.sparse``; it is the same
compiled code either way.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Csr", "as_csr", "bind", "bind_scatter", "index_dtype", "spmm"]


def _load_sparsetools() -> ModuleType:
    """scipy's ``sparse/_sparsetools`` extension, loaded from its file."""
    scipy_spec = importlib.util.find_spec("scipy")
    for location in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("_sparsetools", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()

_INT32_MAX = np.iinfo(np.int32).max
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class Csr(NamedTuple):
    """A sparse matrix as its CSR arrays: row i holds the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def index_dtype(count: int) -> type:
    """The index dtype scipy picks for CSR arrays that must count to
    ``count``: 32-bit whenever it fits."""
    return np.int32 if count <= _INT32_MAX else np.int64


def as_csr(a) -> Csr:
    """``a`` as a :class:`Csr`: a record as it is, a scipy CSR matrix or
    array as a record of its own arrays (no copy). Anything else, a CSC
    matrix included, raises ValueError."""
    if a.__class__ is Csr:
        return a
    if getattr(a, "format", None) != "csr":
        raise ValueError(f"expected a CSR matrix, got {type(a).__name__}")
    return Csr(a.indptr, a.indices, a.data, a.shape)


def bind(a, x: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
    """A call that writes ``a @ x`` into ``out`` and returns it, bit for
    bit, reading ``x`` as it is when called.

    ``a`` is a :class:`Csr` or a scipy CSR matrix; ``x`` is a C-contiguous
    vector or matrix with as many rows as ``a`` has columns; ``out`` is a
    C-contiguous array of the product's shape. All three are float64, or
    all three float32. They are checked here, once. As in scipy's dispatch,
    a vector or a single column goes through ``csr_matvec`` and a wider
    matrix through ``csr_matvecs``; both add into ``out``, which each call
    zeroes first.
    """
    a = as_csr(a)
    m, n = a.shape
    dtype = a.data.dtype
    if not (
        x.dtype == dtype
        and out.dtype == dtype
        and dtype in _FLOATS
        and 1 <= x.ndim <= 2
        and x.shape[0] == n
        and out.shape == (m,) + x.shape[1:]
        and x.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        raise ValueError(
            f"cannot write a {a.shape} {dtype} CSR matrix times a "
            f"{x.shape} {x.dtype} array into a {out.shape} {out.dtype} array"
        )
    operands = (a.indptr, a.indices, a.data, x.reshape(-1), out.reshape(-1))
    if x.ndim == 1 or x.shape[1] == 1:
        return _bound(out, _sparsetools.csr_matvec, m, n, *operands)
    return _bound(out, _sparsetools.csr_matvecs, m, n, x.shape[1], *operands)


def bind_scatter(
    index: np.ndarray, weights: np.ndarray, rows: np.ndarray, out: np.ndarray
) -> Callable[[], np.ndarray]:
    """A call that zeroes ``out``, adds ``weights[j] * rows[j]`` into row
    ``index[j]`` of it for each j in order, and returns it: the sums of
    ``np.add.at(out, index, weights[:, None] * rows)`` from zeros, bit for
    bit, reading the three inputs as they are when called.

    ``index`` is a C-contiguous integer vector and ``weights`` a
    C-contiguous vector of its length; ``rows`` and ``out`` are C-contiguous
    matrices of the same width, ``rows`` with a row per index. ``weights``,
    ``rows`` and ``out`` are all float64 or all float32. They are checked
    here, once. The caller keeps every entry of ``index`` a row number of
    ``out`` (``0 <= index[j] < len(out)``) whenever it calls: the kernel
    writes where they point and does not check them.

    The scatter is ``csc_matvecs`` of the ``len(out) x len(index)`` CSC
    matrix whose column j holds ``weights[j]`` in row ``index[j]``, times
    ``rows``: the kernel walks the columns in order and adds
    ``weights[j] * rows[j]`` into its row.
    """
    count = len(index)
    dtype = out.dtype
    if not (
        index.ndim == 1
        and index.dtype.kind in "iu"
        and weights.shape == (count,)
        and rows.ndim == out.ndim == 2
        and rows.shape == (count, out.shape[1])
        and weights.dtype == rows.dtype == dtype
        and dtype in _FLOATS
        and all(v.flags.c_contiguous for v in (index, weights, rows, out))
    ):
        raise ValueError(
            f"cannot scatter {rows.shape} {rows.dtype} rows at a {index.shape} "
            f"{index.dtype} index with {weights.shape} {weights.dtype} weights "
            f"into a {out.shape} {out.dtype} array"
        )
    # one entry per column; sparsetools needs both index arrays of one dtype
    colptr = np.arange(count + 1, dtype=index.dtype)
    return _bound(
        out, _sparsetools.csc_matvecs, len(out), count, out.shape[1],
        colptr, index, weights, rows.reshape(-1), out.reshape(-1),
    )


def _bound(out: np.ndarray, kernel, *args) -> Callable[[], np.ndarray]:
    """``kernel(*args)``, which adds into ``out``, as a call that zeroes
    ``out`` first and returns it."""
    fill, call = out.fill, functools.partial(kernel, *args)

    def product() -> np.ndarray:
        fill(0.0)
        call()
        return out

    return product


def spmm(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ x`` written into ``out``, which it returns, bit for bit: the
    product :func:`bind` checks, called once. ``x`` need not be
    C-contiguous here; a strided ``x`` is copied first."""
    return bind(a, x if x.flags.c_contiguous else x.copy(), out)()

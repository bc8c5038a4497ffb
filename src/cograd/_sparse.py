"""Compressed sparse row matrices on numpy arrays, multiplied by scipy's
compiled CSR kernels.

The solver needs of a sparse matrix only its three CSR arrays and the
product with a dense vector or matrix. :class:`Csr` holds the arrays, and
:func:`spmm` writes a product into a given buffer through the kernels
scipy's own ``@`` dispatches to, ``csr_matvec`` and ``csr_matvecs`` in
``scipy.sparse._sparsetools``. So the products are scipy's, bit for bit.

The kernel module is loaded from its file in scipy's package directory,
which does not run ``scipy/__init__.py`` or ``scipy/sparse/__init__.py``:
importing ``scipy.sparse`` pulls in ``scipy._lib._util``, which imports a
copy of the whole numpy namespace (``numpy.testing`` and ``numpy.f2py``
among it), and costs more than a short solve. Only where that file is not
found is the module imported through ``scipy.sparse``; it is the same
compiled code either way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType
from typing import NamedTuple

import numpy as np

__all__ = ["Csr", "as_csr", "index_dtype", "spmm"]


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


def spmm(a, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ x`` written into ``out``, which it returns, bit for bit.

    ``a`` is a :class:`Csr` or a scipy CSR matrix; ``x`` is a vector or
    matrix with as many rows as ``a`` has columns; ``out`` is a
    C-contiguous array of the product's shape. All three are float64, or
    all three float32. As in scipy's dispatch, a vector or a single column
    goes through ``csr_matvec`` and a wider matrix through ``csr_matvecs``;
    both add into ``out``, which is zeroed first.
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
        and out.flags.c_contiguous
    ):
        raise ValueError(
            f"cannot write a {a.shape} {dtype} CSR matrix times a "
            f"{x.shape} {x.dtype} array into a {out.shape} {out.dtype} array"
        )
    out.fill(0.0)
    if x.ndim == 1 or x.shape[1] == 1:
        _sparsetools.csr_matvec(
            m, n, a.indptr, a.indices, a.data, x.ravel(), out.ravel()
        )
    else:
        _sparsetools.csr_matvecs(
            m, n, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel()
        )
    return out

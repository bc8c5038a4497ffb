"""QUBO encodings of MaxCut / MIS / MVC and exact small-instance optimization.

All three problems are cast as minimization of a quadratic Hamiltonian
H(x) = sum_ij x_i Q_ij x_j + offset over binary x, with constraints folded in
as penalty terms. Diagonal entries carry the linear coefficients (x_i^2 = x_i
on binaries); when H is evaluated on a relaxed vector p in [0,1]^n the
diagonal is applied linearly, so H stays the multilinear extension of its
binary values. A :class:`QuboMatrix` keeps Q as arrays laid out by a
:class:`Graph` over its off-diagonal pairs: ``Graph`` alone sorts pairs
into canonical order and CSR, and both QUBO constructors take its layout.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from ._sparse import Csr, index_dtype, spmm
from .graph import Graph, _format_weight

__all__ = [
    "BinaryAssignment",
    "ProblemKind",
    "QuboMatrix",
    "build_qubo",
    "objective",
    "is_feasible",
    "brute_force_optimum",
    "export_coordinate_text",
]

_ENUM_LIMIT = 24

# Length-n integer array over {0, 1}; one decision per node.
BinaryAssignment = np.ndarray


class ProblemKind(str, Enum):
    """The three supported node-decision problems."""

    MAXCUT = "maxcut"
    MIS = "mis"
    MVC = "mvc"

    @property
    def maximize(self) -> bool:
        """True when larger objectives are better (MaxCut, MIS)."""
        return self is not ProblemKind.MVC


class QuboMatrix:
    """Sparse symmetric quadratic form plus a constant offset.

    ``entries`` maps canonical index pairs (i <= j) to the symmetric matrix
    coefficient Q_ij; the monomial x_i * x_j therefore enters H with
    coefficient 2 * Q_ij for i < j and the diagonal enters linearly.
    ``penalty`` records the constraint coefficient used at build time
    (0 for MaxCut). The form is stored as arrays: the diagonal, and the
    full symmetric off-diagonal part in CSR with the layout of a
    :class:`Graph` over its pairs, which holds each coupling Q_ij twice, at
    (i, j) and (j, i), and nowhere else.
    """

    def __init__(
        self,
        n: int,
        entries: dict[tuple[int, int], float],
        offset: float = 0.0,
        penalty: float = 0.0,
    ):
        acc: dict[tuple[int, int], float] = {}
        for (i, j), c in entries.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i},{j}) out of range for n={n}")
            if i != int(i) or j != int(j):
                raise ValueError(f"entry ({i},{j}) has an index that is not an integer")
            if i > j:
                i, j = j, i
            key = (i, j)
            acc[key] = acc.get(key, 0.0) + float(c)
        keys = np.array(list(acc), dtype=np.int64).reshape(-1, 2)
        coeffs = np.fromiter(acc.values(), np.float64, len(acc))
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if len(bad):
            (i, j), c = keys[bad[0]], coeffs[bad[0]]
            raise ValueError(f"entry ({i},{j}) must be finite, got {c}")
        if not np.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset}")
        on_diag = keys[:, 0] == keys[:, 1]
        diag_nodes = keys[on_diag, 0]
        diag = np.zeros(n, dtype=np.float64)
        diag[diag_nodes] = coeffs[on_diag]
        g = Graph.from_arrays(n, *keys[~on_diag].T, coeffs[~on_diag])
        self._build(g, g.weights, diag, diag_nodes, offset, penalty)

    def _build(self, g, csr_c, diag, diag_nodes, offset, penalty) -> QuboMatrix:
        """Set the form and return it: ``csr_c`` holds Q's couplings in
        ``g``'s CSR order, and the diagonal ``diag`` has stored entries at
        ``diag_nodes``."""
        self.n = n = g.n
        self.offset = float(offset)
        self.penalty = float(penalty)
        self._diag = diag
        self._diag_nodes = diag_nodes
        # Full symmetric off-diagonal matrix, the one copy of the couplings:
        # value and gradient multiply by it, and entries reads it.
        idx = index_dtype(max(n, len(csr_c)))
        self._offdiag = Csr(g.indptr.astype(idx), g.indices.astype(idx), csr_c, (n, n))
        return self

    @cached_property
    def entries(self) -> dict[tuple[int, int], float]:
        """Canonical (i <= j) pairs -> Q_ij, explicit zeros included; built
        from the arrays on first access. The pairs i < j are the CSR's upper
        triangle, which row by row is canonical order."""
        d = self._diag_nodes.tolist()
        out = dict(zip(zip(d, d), self._diag[self._diag_nodes].tolist()))
        indptr, indices, data, _ = self._offdiag
        rows = np.repeat(np.arange(self.n), np.diff(indptr))
        up = rows < indices
        out.update(zip(zip(rows[up].tolist(), indices[up].tolist()), data[up].tolist()))
        return out

    def value(self, x: np.ndarray) -> float:
        """H(x) for binary or relaxed x (diagonal applied linearly)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"assignment has shape {x.shape}, expected ({self.n},)")
        return self._energy(x, spmm(self._offdiag, x, np.empty(self.n)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """dH/dx = 2 * Q_offdiag @ x + diag."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"assignment has shape {x.shape}, expected ({self.n},)")
        return self._energy_gradient(spmm(self._offdiag, x, np.empty(self.n)))

    def _energy(self, x: np.ndarray, qx: np.ndarray) -> float:
        """H(x) from x and qx = Q_offdiag @ x."""
        return float(x @ qx + self._diag @ x + self.offset)

    def _energy_gradient(
        self, qx: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """dH/dx = 2 * qx + diag from qx = Q_offdiag @ x, into ``out`` if given."""
        out = np.multiply(2.0, qx, out=out)
        return np.add(out, self._diag, out=out)

    def __repr__(self) -> str:
        nnz = len(self._diag_nodes) + len(self._offdiag.data) // 2
        return f"QuboMatrix(n={self.n}, nnz={nnz}, offset={self.offset:g})"


def _check_penalty(kind: ProblemKind, penalty: float) -> None:
    """MIS and MVC need a finite penalty above 1; MaxCut has none."""
    if kind is not ProblemKind.MAXCUT and not 1.0 < penalty < np.inf:
        raise ValueError(f"{kind.value} penalty must be finite and above 1, got {penalty}")


def build_qubo(kind: ProblemKind, g: Graph, penalty: float = 2.0) -> QuboMatrix:
    """Encode a problem on g as a Hamiltonian to minimize.

    Encodings (w is the edge weight; constraints scale with it so that soft
    predicted adjacencies plug in as real weights):

    * MaxCut:  H = sum_E w (2 x_u x_v - x_u - x_v), so -H(x) is the cut weight.
    * MIS:     H = -sum_i x_i + P sum_E w x_u x_v.
    * MVC:     H =  sum_i x_i + P sum_E w (1 - x_u)(1 - x_v).

    The constant from the MVC expansion lives in the offset, keeping the
    matrix purely linear/quadratic while H(x) stays exact. For MIS/MVC any
    penalty P > 1 makes constraint violations strictly unprofitable at unit
    weights; P <= 1 and a non-finite P are rejected.

    Built from the edge arrays. Every sum runs in the order of a loop over
    the canonical edges (node terms first), so the result is the same, bit
    for bit, as adding the terms one by one into a dict from 0.0.
    """
    kind = ProblemKind(kind)
    n = g.n
    offset = 0.0
    if kind is ProblemKind.MAXCUT:
        penalty = 0.0
        # a sum from 0.0 stores 0.0 + c, which turns -0.0 into 0.0
        csr_c = 0.0 + g.weights
        # the sum of -w over each node's edges from 0.0 in edge order:
        # rounding is symmetric, and 0.0 - s keeps a zero sum at +0.0
        diag_nodes = np.flatnonzero(np.diff(g.indptr))
        diag = 0.0 - g.degree
    else:
        _check_penalty(kind, penalty)
        sign = -1.0 if kind is ProblemKind.MIS else 1.0
        csr_c = 0.0 + penalty * g.weights / 2.0
        diag_nodes = np.arange(n)
        if kind is ProblemKind.MVC:
            pw = penalty * g.edge_w
            # the diagonal terms of edge k go to u_k, then v_k
            ends = np.column_stack([g.edge_u, g.edge_v]).ravel()
            diag = np.bincount(
                np.concatenate([diag_nodes, ends]),
                weights=np.concatenate([np.full(n, sign), np.repeat(-pw, 2)]),
                minlength=n,
            )
            # left to right from 0.0, not pairwise as np.sum would
            offset = float(np.cumsum(np.concatenate([[0.0], pw]))[-1])
        else:
            diag = np.full(n, sign)
    # bincount over no terms counts in integers, hence the cast
    diag = diag.astype(np.float64, copy=False)
    return QuboMatrix.__new__(QuboMatrix)._build(
        g, csr_c, diag, diag_nodes, offset, penalty
    )


def objective(kind: ProblemKind, g: Graph, x: Iterable[float]) -> float:
    """Problem objective of a binary assignment, feasible or not.

    MaxCut: total weight of edges with endpoints on opposite sides.
    MIS / MVC: number of selected nodes.

    Raises
    ------
    ValueError
        If x is not a vector of g.n entries, each 0 or 1.
    """
    kind = ProblemKind(kind)
    xa = _as_binary(x, g.n)
    if kind is ProblemKind.MAXCUT:
        cut = xa[g.edge_u] != xa[g.edge_v]
        return float(np.sum(g.edge_w[cut]))
    return float(np.sum(xa))


def is_feasible(kind: ProblemKind, g: Graph, x: Iterable[float]) -> bool:
    """Check the edge constraints: none for MaxCut, x_u + x_v <= 1 on every
    edge for MIS, x_u + x_v >= 1 for MVC.

    Raises
    ------
    ValueError
        If x is not a vector of g.n entries, each 0 or 1.
    """
    kind = ProblemKind(kind)
    xa = _as_binary(x, g.n)
    if kind is ProblemKind.MAXCUT:
        return True
    su, sv = xa[g.edge_u] == 1, xa[g.edge_v] == 1
    if kind is ProblemKind.MIS:
        return not bool(np.any(su & sv))
    return bool(np.all(su | sv))


def brute_force_optimum(kind: ProblemKind, g: Graph) -> tuple[np.ndarray, float]:
    """Exhaustive optimum over all feasible binary assignments.

    Ties resolve to the lexicographically smallest bit string
    (x_0 most significant). Guarded to n <= 24; runtime is O(2^n * m).
    """
    kind = ProblemKind(kind)
    n = g.n
    if n > _ENUM_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration limit {_ENUM_LIMIT}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0

    # Bit i of the mask holds x_i at significance n-1-i, so ascending mask
    # order is lexicographic order of bit strings and first-best wins ties.
    shifts = (n - 1 - np.arange(n)).astype(np.int64)
    best_val = -np.inf if kind.maximize else np.inf
    best_bits: np.ndarray | None = None
    chunk = 1 << min(n, 16)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, start + chunk, dtype=np.int64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        if kind is ProblemKind.MAXCUT:
            cut = bits[:, g.edge_u] != bits[:, g.edge_v]
            vals = cut @ g.edge_w
        else:
            sizes = bits.sum(axis=1, dtype=np.int64).astype(np.float64)
            su = bits[:, g.edge_u] == 1
            sv = bits[:, g.edge_v] == 1
            if kind is ProblemKind.MIS:
                ok = ~np.any(su & sv, axis=1)
                vals = np.where(ok, sizes, -np.inf)
            else:
                ok = np.all(su | sv, axis=1)
                vals = np.where(ok, sizes, np.inf)
        i = int(np.argmax(vals)) if kind.maximize else int(np.argmin(vals))
        v = float(vals[i])
        if (kind.maximize and v > best_val) or (not kind.maximize and v < best_val):
            best_val = v
            best_bits = bits[i].astype(np.int64)
    assert best_bits is not None
    return best_bits, best_val


def export_coordinate_text(q: QuboMatrix) -> str:
    """Coordinate-list text form: header ``n offset`` then ``i j coeff`` lines
    for the canonically stored (i <= j) entries, sorted."""
    lines = [f"{q.n} {_format_weight(q.offset)}"]
    for (i, j) in sorted(q.entries):
        lines.append(f"{i} {j} {_format_weight(q.entries[(i, j)])}")
    return "\n".join(lines) + "\n"


def _as_binary(x: Iterable[float], n: int) -> np.ndarray:
    xa = np.asarray(x)
    if xa.shape != (n,):
        raise ValueError(f"assignment has shape {xa.shape}, expected ({n},)")
    bad = (xa != 0) & (xa != 1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"assignment entry {i} is {xa[i]!r}, expected 0 or 1")
    return xa.astype(np.int64)

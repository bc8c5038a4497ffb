"""Multilinear extensions of set functions and the coverage gradients.

The multilinear extension F(x) of a set function f is its expectation when
each item i is included independently with probability x_i. For coverage,
F(x, theta) = sum_j [1 - prod_i (1 - x_i theta_ij)] has a closed form, and
so do its first derivatives in x and their sensitivity to theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["CoverageModel", "multilinear_value", "coverage_multilinear_grads"]

_MULTILINEAR_LIMIT = 16


@dataclass(frozen=True)
class CoverageModel:
    """Coverage probabilities theta[i, j]: item i covers target j. Raises
    ValueError unless theta is 2-d with every entry in [0, 1] (NaN fails)."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=np.float64)
        if t.ndim != 2:
            raise ValueError(f"theta must be 2-d, got shape {t.shape}")
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("theta entries must lie in [0, 1]")
        object.__setattr__(self, "theta", t)


def multilinear_value(
    f: Callable[[tuple[int, ...]], float], x: Sequence[float]
) -> float:
    """Expectation of the set function under independent Bernoulli(x_i).

    F(x) = sum over subsets S of f(S) * prod_{i in S} x_i *
    prod_{i not in S} (1 - x_i), by full enumeration. ``f`` receives the
    subset as a sorted tuple of item indices and must satisfy f(()) = 0.

    Raises
    ------
    ValueError
        If there are more than 16 items, an x_i outside [0, 1] (NaN
        included) or f is not normalized.
    """
    xa = np.asarray(x, dtype=np.float64)
    n = len(xa)
    if n > _MULTILINEAR_LIMIT:
        raise ValueError(f"enumeration over {n} items exceeds {_MULTILINEAR_LIMIT}")
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    if f(()) != 0.0:
        raise ValueError("set function must be normalized: f(empty) = 0")
    total = 0.0
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if (mask >> i) & 1)
        prob = 1.0
        for i in range(n):
            prob *= xa[i] if (mask >> i) & 1 else 1.0 - xa[i]
        if prob != 0.0:
            total += f(subset) * prob
    return float(total)


def coverage_multilinear_grads(
    x: Sequence[float], model: CoverageModel
) -> tuple[np.ndarray, np.ndarray]:
    """First derivative of the coverage extension and its theta sensitivity.

    For F(x, theta) = sum_j [1 - prod_i (1 - x_i theta_ij)] returns

    * grad_x[i] = sum_j theta_ij * prod_{l != i} (1 - x_l theta_lj)
    * tensor[i, k, j] = d/dtheta_kj of the j-th term of grad_x[i]:
      -theta_ij * x_k * prod_{l != i,k} (1 - x_l theta_lj) when k != i,
      and prod_{l != i} (1 - x_l theta_lj) when k = i.

    The products that leave items out come from exclusive prefix and suffix
    products, with no division, so a factor of zero (x_l = theta_lj = 1)
    is handled exactly. Raises ValueError for an x_i outside [0, 1] (NaN
    included), then for an x whose length is not theta's item count.
    """
    xa = np.asarray(x, dtype=np.float64)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    theta = model.theta
    n, t = theta.shape
    if len(xa) != n:
        raise ValueError(f"x has {len(xa)} items, theta has {n}")
    diag = np.arange(n)
    # row i holds the factors 1 - x_l theta_lj with item i's set to 1
    factors = np.broadcast_to(1.0 - xa[:, None] * theta, (n, n, t)).copy()
    factors[diag, diag] = 1.0
    # before[i, k] and after[i, k + 1]: products over l < k and over l > k
    before = np.ones((n, n + 1, t))
    np.cumprod(factors, axis=1, out=before[:, 1:])
    after = np.ones((n, n + 1, t))
    after[:, :n] = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    # rest[i, k] = prod_{l != i,k} (1 - x_l theta_lj); rest[i, i] leaves out i
    rest = before[:, :n] * after[:, 1:]
    not_i = rest[diag, diag]
    grad_x = np.sum(theta * not_i, axis=1)
    tensor = -theta[:, None, :] * xa[None, :, None] * rest
    tensor[diag, diag] = not_i
    return grad_x, tensor

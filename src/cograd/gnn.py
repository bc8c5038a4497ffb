"""Two-layer graph convolutional solver trained against a relaxed Hamiltonian.

The network maps trainable node embeddings through two normalized-adjacency
convolutions, ReLU then sigmoid, to per-node probabilities p. Training
descends the relaxed energy H(p) directly (no labels), after which p is
thresholded and repaired into a feasible binary assignment. Gradients are
computed analytically, in numpy; of scipy only the compiled CSR kernel is
used, without importing ``scipy.sparse`` (see :mod:`cograd._sparse`).

:func:`train` allocates one workspace of epoch buffers per call and the
epoch writes into it, as :class:`Adam` does into its own moment and scratch
arrays: at large n the epoch is otherwise bound by allocating and faulting
in fresh n x d temporaries, and at small n by the Python dispatch around
each operation. So that Adam steps one array, the parameters live in one
flat buffer and the workspace's gradients in another: the tensors of
:class:`GcnParams` are views into the first, each filled in place as it is
drawn, and the gradient tensors views into the second. An epoch is one
forward and one backward pass: the backward computes the product
Q_offdiag p once, takes dH/dp from it for the gradients and returns the
relaxed energy H(p), which is the epoch's loss. The public
:func:`forward` and :func:`backward` run the same kernel on a fresh
workspace, so they return new arrays.

Each convolution multiplies by its weight first and by Â second, Â (h w)
rather than (Â h) w, as PyTorch Geometric's ``GCNConv`` does: the weights
narrow d0 to d1 to 1, so the forward pass's sparse products are d1 and 1
columns wide. Â is symmetric, so the backward pass takes its two sparse
products on the same narrow side, 1 and d1 columns wide, and an epoch's
sparse work is 2 d1 + 2 columns instead of 2 d0 + 2 d1. The dense products
cost the same in either order.

The sparse products write ``a @ x`` into a workspace buffer through the
compiled kernel that scipy's ``@`` calls, ``csr_matvec`` or
``csr_matvecs`` in ``scipy.sparse._sparsetools``. scipy offers no
``out=`` for a sparse-dense product, and its ``@`` pays for argument
dispatch and a fresh zeroed result on every call, a cost that does not
shrink with n. :func:`train` builds Â once per call as a ``Csr`` record
of its three arrays, and the workspace binds its five products, the four
with Â and Q_offdiag p, once (``cograd._sparse.bind``): each is checked
when it is bound, and an epoch calls it with no argument and no check, so
an epoch touches no scipy object. The kernel is private to scipy and is
loaded from its file, because importing ``scipy.sparse`` takes longer than
a short solve; so the binding stays private here, and a test pins it,
byte for byte, to scipy's ``a @ x`` on scipy matrices and records alike.
The public :func:`forward` and :func:`backward` take a scipy CSR matrix,
as :func:`cograd.graph.renormalized_adjacency` returns.

The sigmoid is 1 / (1 + exp(-z)) in numpy (:func:`_sigmoid`), which is
within 4 ULP of ``scipy.special.expit``. Its last bits follow numpy's
exp, which numpy may dispatch to different SIMD code on different CPUs.

Precision. :func:`train` runs the n x d part of every epoch in float32, as
in mixed-precision training (Micikevicius et al., ICLR 2018): Â, cast once
per call, the parameters (:func:`init_params`' float64 draws, each rounded
once), the workspace's n x d buffers, the gradients and Adam's moments.
That part is most of the memory traffic of an epoch, and halving its width
about halves the epoch at large n. The n-vector tail stays float64: z2 is
widened before the sigmoid, so p, Q_offdiag p, the energy H(p) and
dH/dp p (1 - p) are float64, and only that last vector is rounded, once,
into the float32 column that starts the backward pass. The loss trace,
the patience window, the divergence check and the returned probabilities
are therefore float64, and every decision is taken on float64 numbers.
This is safe because nothing the descent decides hangs on the low digits
of the n x d work: Â keeps about 7 significant digits, the parameters
are a random start that Adam moves by steps of about the learning rate,
and the sign-normalised Adam step does not depend on a gradient's last
digits. A test holds :func:`train` to a float64 loop that multiplies by Â
first, (Â h0) w0: the same epochs, stop reasons and repaired decisions,
with p within 1e-4, across both the precision and the association. The
public :func:`forward` and :func:`backward` stay float64, because the
finite-difference gradient checks need that precision.

Threads. :func:`descend`, and so :func:`train` and the link predictor's
training, runs its epochs with numpy's BLAS limited to one thread and then
gives the caller back the thread count it had, on every exit. An epoch's
dense products (h0 w0, h0^T u and u w0^T at n x d) are large enough for
OpenBLAS to split across its pool, but they come every couple of
milliseconds, and between them the pool's idle worker busy-waits. At
n = 3000 on two cores a descent so burned about twice the CPU time of its
wall time, and one thread halves the CPU time with no loss of wall time.
scikit-learn limits BLAS around its k-means loop for the same reason. On
one thread the products also sum in one order, so p no longer depends on
the machine's core count. The functions bound are OpenBLAS's, looked up
once on numpy's own compiled core, ``_multiarray_umath``, which links the
BLAS its products call; with another BLAS (MKL, Accelerate), or without
``RTLD_NOLOAD`` (Windows), the scope does nothing and the pool is left as
it is.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from ._sparse import Csr, as_csr
from ._sparse import bind as _bind
from .baselines import greedy_flip, one_flip_local_search
from .graph import Graph, _renormalized_csr
from .qubo import BinaryAssignment, ProblemKind, QuboMatrix

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "GcnParams",
    "SoftAssignment",
    "TrainConfig",
    "TrainingDivergedError",
    "LossTrace",
    "Adam",
    "default_dims",
    "init_params",
    "forward",
    "relaxed_loss",
    "backward",
    "descend",
    "train",
    "project_and_repair",
    "export_loss_trace",
]

# sigmoid outputs are clipped this far inside (0,1) so logs stay finite
_P_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss leaves the finite range."""


@dataclass
class GcnParams:
    """Trainable tensors: embedding table h0 (n, d0), layer weights
    w0 (d0, d1) and w1 (d1, 1). Also used to carry gradients of the same
    shapes out of :func:`backward`."""

    h0: np.ndarray
    w0: np.ndarray
    w1: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.h0, self.w0, self.w1]


@dataclass(frozen=True)
class SoftAssignment:
    """Per-node probabilities strictly inside (0,1)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"p must be a vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("probabilities must lie strictly inside (0,1)")
        object.__setattr__(self, "p", p)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent schedule. The embedding dims ``d0`` and ``d1`` are
    ints of at least 1, or None for :func:`default_dims` of the graph;
    ``seed`` is an int of at least 0; ``learning_rate`` and ``tolerance``
    are real numbers, not bools."""

    max_epochs: int = 10_000
    learning_rate: float = 1e-2
    patience: int = 500
    tolerance: float = 1e-4
    seed: int = 0
    d0: int | None = None
    d1: int | None = None

    def __post_init__(self):
        if not _count(self.max_epochs):
            raise ValueError(
                f"max_epochs must be at least 1 and a whole number, got {self.max_epochs!r}"
            )
        lr = self.learning_rate
        if not (_real(lr) and 0 < lr < np.inf):
            raise ValueError(f"learning_rate must be positive and finite, got {lr!r}")
        if not _count(self.patience):
            raise ValueError(
                f"patience must be at least 1 and a whole number, got {self.patience!r}"
            )
        tol = self.tolerance
        if not (_real(tol) and 0 <= tol < np.inf):
            raise ValueError(f"tolerance must be nonnegative and finite, got {tol!r}")
        if not all(d is None or _count(d) for d in (self.d0, self.d1)):
            raise ValueError(
                "embedding dims must be at least 1 and whole numbers, "
                f"got d0={self.d0!r}, d1={self.d1!r}"
            )
        _check_seed(self.seed)


def _count(x, least: int = 1) -> bool:
    """Whether x is a whole number of at least ``least``: an int or numpy
    integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _real(x) -> bool:
    """Whether x is a real number: an int, a float or a numpy number, not a
    bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _python_numbers(config) -> None:
    """Replace each numpy number among the fields of the frozen dataclass
    ``config`` by its Python equal, ``x.item()``, so that the config
    computes and writes JSON as one built from Python numbers does. The
    configs whose settings reach a JSON writer call it last in
    ``__post_init__``, so that error messages show the value given."""
    for f in fields(config):
        if isinstance(value := getattr(config, f.name), np.generic):
            object.__setattr__(config, f.name, value.item())


def _check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is a whole number of at least 0, the
    rule for every seed a run is given."""
    if not _count(seed, least=0):
        raise ValueError(f"seed must be at least 0 and a whole number, got {seed!r}")


def default_dims(n: int) -> tuple[int, int]:
    """Embedding widths for an n-node graph: d0 grows like sqrt(n) within
    [4, 128], d1 is half of d0 with a floor of 2."""
    d0 = min(128, max(4, int(np.floor(np.sqrt(max(n, 0)) + 0.5))))
    d1 = max(2, d0 // 2)
    return d0, d1


def _dims(n: int, cfg: TrainConfig) -> tuple[int, int]:
    """The embedding widths of a descent on n nodes: ``cfg.d0`` and
    ``cfg.d1`` where set, :func:`default_dims` otherwise."""
    d0, d1 = default_dims(n)
    return (d0 if cfg.d0 is None else cfg.d0), (d1 if cfg.d1 is None else cfg.d1)


def init_params(n: int, d0: int, d1: int, seed: int) -> GcnParams:
    """Seeded normal init, scale 1/sqrt(fan-in) per tensor.

    Fan-in is the width feeding each product: d0 for the embedding table and
    first layer, d1 for the output layer. The tensors are views into one
    flat buffer, in the order h0, w0, w1, which is each tensor's ``base``.
    """
    if d0 < 1 or d1 < 1:
        raise ValueError("embedding dims must be at least 1")
    rng = np.random.default_rng(seed)
    scales = (1.0 / np.sqrt(d0), 1.0 / np.sqrt(d0), 1.0 / np.sqrt(d1))
    return GcnParams(*_draw_normal(rng, _gcn_shapes(n, d0, d1), scales)[1])


def _gcn_shapes(n: int, d0: int, d1: int) -> list[tuple[int, int]]:
    return [(n, d0), (d0, d1), (d1, 1)]


def _carve(
    shapes: Sequence[tuple[int, ...]], dtype: type = np.float64
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A new flat buffer and its consecutive C-ordered views, one per shape."""
    flat = np.empty(sum(math.prod(shape) for shape in shapes), dtype)
    return flat, _views(flat, shapes)


def _views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive C-ordered views of ``flat``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at : at + size].reshape(shape))
        at += size
    return views


def _draw_normal(
    rng: np.random.Generator,
    shapes: Sequence[tuple[int, ...]],
    scales: Sequence[float],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A flat buffer and its views (:func:`_carve`) holding, in turn, the
    draws ``rng.normal(0.0, scale, shape)`` would give, bit for bit.

    Each view is filled in place, so no second copy of the draws exists.
    """
    flat, views = _carve(shapes)
    for view, scale in zip(views, scales):
        rng.standard_normal(out=view)
        view *= scale
        view += 0.0  # rng.normal returns 0.0 + scale * z, which maps -0.0 to 0.0
    return flat, views


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) into ``out``, which it returns, in ``out``'s dtype.

    Where z < -709 (float64), exp(-z) overflows to inf and the quotient is
    0, as it should be, but numpy warns of the overflow. :func:`descend`
    runs its epochs with that warning off; other callers switch it off
    themselves, with ``np.errstate(over="ignore")``.
    """
    np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _check_shapes(params: GcnParams, a_hat: Csr) -> None:
    n, d0 = params.h0.shape
    if a_hat.shape != (n, n):
        raise ValueError(f"adjacency shape {a_hat.shape} does not match n={n}")
    if params.w0.shape[0] != d0:
        raise ValueError(f"w0 expects input width {params.w0.shape[0]}, h0 has {d0}")
    if params.w1.shape != (params.w0.shape[1], 1):
        raise ValueError(
            f"w1 shape {params.w1.shape} does not match layer width {params.w0.shape[1]}"
        )


class _Workspace:
    """Buffers of one solver epoch at fixed shapes, and the epoch's sparse
    products with Â and, when a QUBO ``q`` is given, Q_offdiag, bound to
    them once.

    :meth:`forward` and :meth:`backward` write every intermediate into
    these arrays, so an epoch allocates nothing of size n x d. The
    gradients :meth:`backward` writes are the views ``dh0``, ``dw0`` and
    ``dw1`` into the flat buffer ``grad``, in the order of
    :func:`init_params`, overwritten by its next call. :meth:`backward`
    needs ``q``.

    Each layer multiplies by its weight before it multiplies by Â, so every
    sparse product is d1 or 1 columns wide: forward ``t0 = h0 w0``,
    ``z1 = Â t0`` (rectified in place into ``h1``), ``t1 = h1 w1``,
    ``z2 = Â t1``; backward ``v = Â dz2``, ``dz1 = (v w1^T) [h1 > 0]`` and
    ``u = Â dz1``, from which dw1 = h1^T v, dw0 = h0^T u and dh0 = u w0^T.
    The n x d buffers are all n x d1 or n x 1.

    The n x d buffers and the gradients have ``dtype``, which must be the
    dtype of Â and of the parameters; the n-vectors from the sigmoid on
    (p, Q_offdiag p, dH/dp) are float64 whatever ``dtype`` is.
    """

    def __init__(
        self,
        a_hat: Csr,
        d0: int,
        d1: int,
        q: QuboMatrix | None = None,
        *,
        dtype: type = np.float64,
    ):
        n = a_hat.shape[0]
        self.q = q
        self.t0 = np.empty((n, d1), dtype)
        self.h1 = np.empty((n, d1), dtype)
        self.t1 = np.empty((n, 1), dtype)
        self.z2 = np.empty((n, 1), dtype)
        self.p = np.empty(n)
        self.qp = np.empty(n)  # Q_offdiag p
        self.dp = np.empty(n)
        self.one_minus_p = np.empty(n)
        self.dz2 = np.empty((n, 1), dtype)
        self.v = np.empty((n, 1), dtype)
        self.dz1 = np.empty((n, d1), dtype)
        self.relu_mask = np.empty((n, d1), dtype=bool)
        self.u = np.empty((n, d1), dtype)
        self.grad, (self.dh0, self.dw0, self.dw1) = _carve(
            _gcn_shapes(n, d0, d1), dtype
        )
        self.a_t0 = _bind(a_hat, self.t0, self.h1)  # z1, rectified in place
        self.a_t1 = _bind(a_hat, self.t1, self.z2)
        self.a_dz2 = _bind(a_hat, self.dz2, self.v)
        self.a_dz1 = _bind(a_hat, self.dz1, self.u)
        if q is not None:
            self.q_p = _bind(q._offdiag, self.p, self.qp)

    def forward(self, params: GcnParams) -> np.ndarray:
        """p = sigmoid(Â relu(Â h0 w0) w1) into ``self.p``, which it
        returns. exp may overflow in the sigmoid (see :func:`_sigmoid`)."""
        np.matmul(params.h0, params.w0, out=self.t0)
        self.a_t0()
        np.maximum(self.h1, 0.0, out=self.h1)
        np.matmul(self.h1, params.w1, out=self.t1)
        self.a_t1()
        _sigmoid(self.z2[:, 0], out=self.p)  # widened to float64 exactly
        # np.clip(p, eps, 1 - eps) bit for bit, without its Python wrapper
        np.maximum(self.p, _P_EPS, out=self.p)
        return np.minimum(self.p, 1.0 - _P_EPS, out=self.p)

    def backward(self, params: GcnParams) -> float:
        """H(p) at the last :meth:`forward` of params, as ``q.value(p)``
        gives it; the gradients dh0, dw0 and dw1 go into ``grad``.

        H(p) and dH/dp share one product Q_offdiag p. Â is symmetric, so
        each adjoint product is Â itself, taken on the narrow side of its
        layer."""
        p, dp, q = self.p, self.dp, self.q
        self.q_p()
        q._energy_gradient(self.qp, out=dp)
        dp *= p
        np.subtract(1.0, p, out=self.one_minus_p)
        # dz2 = dH/dp p (1 - p), computed in float64 and stored in dtype
        np.multiply(dp, self.one_minus_p, out=self.dz2[:, 0])
        self.a_dz2()
        np.matmul(self.h1.T, self.v, out=self.dw1)
        # v w1^T as a broadcast: a matmul with inner width 1 is slower
        np.multiply(self.v, params.w1.T, out=self.dz1)
        # h1 = relu(z1) is positive exactly where z1 is
        np.greater(self.h1, 0.0, out=self.relu_mask)
        np.multiply(self.dz1, self.relu_mask, out=self.dz1)
        self.a_dz1()
        np.matmul(params.h0.T, self.u, out=self.dw0)
        np.matmul(self.u, params.w0.T, out=self.dh0)
        return q._energy(p, self.qp)


def forward(
    params: GcnParams, a_hat: Csr | scipy.sparse.csr_array
) -> SoftAssignment:
    """p = sigmoid(Â relu(Â h0 w0) w1), one probability per node.

    ``a_hat`` is a scipy CSR matrix, such as :func:`renormalized_adjacency`
    returns. Returns a new array on every call."""
    a_hat = as_csr(a_hat)
    _check_shapes(params, a_hat)
    ws = _Workspace(a_hat, *params.w0.shape)
    with np.errstate(over="ignore"):
        return SoftAssignment(ws.forward(params))


def relaxed_loss(p: SoftAssignment | np.ndarray, q: QuboMatrix) -> float:
    """Energy of the soft assignment; the training objective."""
    return q.value(np.asarray(p))


def backward(
    params: GcnParams, a_hat: Csr | scipy.sparse.csr_array, q: QuboMatrix
) -> GcnParams:
    """Exact gradients of relaxed_loss(forward(params)) w.r.t. each tensor.

    Chain rule through dH/dp = 2 Q_offdiag p + diag, the sigmoid, both
    convolutions (Â is symmetric, so the adjoint is Â itself) and the ReLU
    mask. Returned in a GcnParams of matching shapes, new arrays on every
    call.
    """
    a_hat = as_csr(a_hat)
    _check_shapes(params, a_hat)
    ws = _Workspace(a_hat, *params.w0.shape, q)
    with np.errstate(over="ignore"):
        ws.forward(params)
    ws.backward(params)
    return GcnParams(ws.dh0, ws.dw0, ws.dw1)


class LossTrace(list):
    """The (epoch, loss, best_loss) rows of a descent, epochs starting at 1,
    and why it stopped: ``"patience"`` when the best loss stalled over the
    patience window, ``"max_epochs"`` when the epoch budget ran out."""

    stop_reason: str | None = None


# Adam's moment decays and denominator guard: the defaults of Kingma & Ba,
# "Adam: A Method for Stochastic Optimization" (ICLR 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adaptive moment estimation with bias correction (decays 0.9/0.999,
    guard 1e-8).

    The moments and two scratch arrays per parameter are allocated on the
    first step and reused, so a step allocates nothing of parameter size.
    Once the first bias correction 1 - 0.9^t rounds to 1 in a parameter's
    dtype (from t = 165 in float32 and t = 356 in float64), m / c1 is m bit
    for bit, and the step skips that division.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self._state: list[tuple[np.ndarray, ...]] | None = None

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update each array in place from its gradient.

        Computes m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        a -= lr (m / c1) / (sqrt(v / c2) + eps), operation by operation.
        """
        if self._state is None:
            self._state = [tuple(np.zeros_like(a) for _ in range(4)) for a in arrays]
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        for a, g, (m, v, num, den) in zip(arrays, grads, self._state):
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=num)
            v *= _BETA2
            np.multiply(g, 1.0 - _BETA2, out=num)
            v += np.multiply(num, g, out=num)
            if a.dtype.type(c1) == 1.0:
                np.multiply(m, self.learning_rate, out=num)
            else:
                np.divide(m, c1, out=num)
                num *= self.learning_rate
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += _ADAM_EPS
            a -= np.divide(num, den, out=num)


# OpenBLAS's thread-count functions, looked up in turn on numpy's extension
# module: numpy's wheels (scipy-openblas, 64-bit integer interface), a
# scipy-openblas build with 32-bit integers, a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _BlasThreads(NamedTuple):
    """The thread-count functions of one loaded BLAS library."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas() -> _BlasThreads | None:
    """The thread-count functions of the OpenBLAS numpy calls, or None when
    there are none (another BLAS, or no ``os.RTLD_NOLOAD``, as on Windows).

    numpy's already loaded ``_multiarray_umath`` extension is opened with
    ``RTLD_NOLOAD``, so nothing new is loaded, and the symbols are looked up
    on that handle: the dynamic linker searches the extension and the
    libraries it links, so the functions found are those of the BLAS that
    numpy's products call, whatever its file is named.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 2, numpy 1
    try:
        path = core._multiarray_umath.__file__
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except (AttributeError, OSError):  # no such module, or no RTLD_NOLOAD
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        set_.restype, set_.argtypes = None, (ctypes.c_int,)
        return _BlasThreads(get, set_)
    return None


class _OneBlasThread:
    """Context manager limiting numpy's BLAS to one thread.

    The pool size is process-wide, so nested and concurrent scopes share
    it: the first to enter saves the caller's count and sets 1, the last to
    leave restores the count. Without a bound OpenBLAS it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self) -> None:
        blas = _openblas()
        if blas is None:
            return
        with self._lock:
            if self._depth == 0:
                self._saved = blas.get()
                blas.set(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        blas = _openblas()
        if blas is None:
            return
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                blas.set(self._saved)


_one_blas_thread = _OneBlasThread()


def descend(
    params: np.ndarray,
    evaluate: Callable[[], tuple[float, np.ndarray]],
    cfg: TrainConfig,
    on_best: Callable[[], None] | None = None,
) -> LossTrace:
    """Adam on the flat array ``params``, in place, under the best-loss
    patience window.

    Each epoch ``evaluate()`` returns the loss at the current parameters and
    their gradient, an array of the same shape; the last epoch's gradient
    is not used when the patience window stops the descent.
    ``on_best`` runs whenever the best loss improves. Stops at max_epochs or
    once the best loss gained less than ``tolerance`` over the last
    ``patience`` epochs (a window, so slow steady descent keeps going).
    Returns the (epoch, loss, best_loss) trace, epochs starting at 1, with
    its stop reason.

    The epochs run with numpy's BLAS on the calling thread (see the module
    docstring), so p does not depend on the BLAS pool size; the caller's
    thread count is restored however the descent ends, including when
    ``evaluate`` raises. Without OpenBLAS the pool is left as it is.

    Raises
    ------
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    opt = Adam(cfg.learning_rate)
    best_loss = np.inf
    trace = LossTrace()
    trace.stop_reason = "max_epochs"
    # non-finite arithmetic is caught by the loss guard, not warnings
    with _one_blas_thread, np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            loss, grad = evaluate()
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            if loss < best_loss:
                best_loss = loss
                if on_best is not None:
                    on_best()
            trace.append((epoch, float(loss), float(best_loss)))
            if (
                epoch > cfg.patience
                and trace[epoch - 1 - cfg.patience][2] - best_loss
                < cfg.tolerance
            ):
                trace.stop_reason = "patience"
                break
            opt.step([params], [grad])
    return trace


def train(
    g: Graph,
    q: QuboMatrix,
    cfg: TrainConfig,
    loss_offset: float = 0.0,
) -> tuple[SoftAssignment, LossTrace]:
    """Descend the relaxed energy; return the best soft assignment seen.

    The loss trace holds (epoch, loss, best_loss) rows, epochs starting at 1,
    and the stop reason. ``loss_offset`` is a constant added to every
    loss, and no library caller passes it. The benchmark's stage-by-stage
    ``compose`` (``perfbench/workloads.py``) is its last caller, so it
    stays until the benchmark refresh (ROADMAP item 12) deletes
    ``compose``, and goes with it then. It enters no gradient, but the
    best-loss window and the best-p choice compare the shifted losses, so
    an offset large enough to round away their differences in float64
    changes the descent's decisions. Stopping follows :func:`descend`. The
    epoch runs in mixed precision (see the module docstring); losses and p
    are float64. Each loss is H(p), as ``q.value(p)`` gives it bit for
    bit, plus ``loss_offset``; without an offset the trace's last best loss
    is therefore ``q.value`` of the returned p.

    Raises
    ------
    TrainingDivergedError
        If the loss becomes non-finite; the message names the epoch.
    """
    if g.n != q.n:
        raise ValueError(f"graph has {g.n} nodes but QUBO dimension is {q.n}")
    a_hat = _renormalized_csr(g)
    a_hat = a_hat._replace(data=a_hat.data.astype(np.float32))
    d0, d1 = _dims(g.n, cfg)
    # init_params' float64 draws, each rounded once to float32
    flat = init_params(g.n, d0, d1, cfg.seed).h0.base.astype(np.float32)
    params = GcnParams(*_views(flat, _gcn_shapes(g.n, d0, d1)))
    ws = _Workspace(a_hat, d0, d1, q, dtype=np.float32)
    best_p = np.empty(g.n)

    def evaluate():
        ws.forward(params)
        return ws.backward(params) + loss_offset, ws.grad

    def keep_best():
        np.copyto(best_p, ws.p)

    trace = descend(flat, evaluate, cfg, on_best=keep_best)
    return SoftAssignment(best_p), trace


def project_and_repair(
    kind: ProblemKind,
    g: Graph,
    p: SoftAssignment | np.ndarray,
    polish: bool = False,
) -> BinaryAssignment:
    """Threshold p at 0.5 and repair to feasibility; optionally polish.

    Repair rules (deterministic):

    * MIS: for each edge with both endpoints selected, deselect the endpoint
      of larger degree (tie: the larger index); afterwards add, in ascending
      index order, every node with no selected neighbor.
    * MVC: for each uncovered edge, select the endpoint of larger degree
      (tie: the smaller index); afterwards scan indices descending and drop
      any node whose removal keeps every incident edge covered.
    * MaxCut: nothing to repair.

    With ``polish`` the result is refined by 1-flip first-improvement local
    search. The output is always feasible. The polish changes no MIS or MVC
    decision: the repair's last scan (MIS add, MVC drop) leaves no eligible
    node, and a flip makes none eligible.

    The decisions are those of the sequential scans above, bit for bit, at
    O(n + m) work per pass. Only edges that violate at the threshold are
    visited, in canonical order, since x only falls (MIS) or rises (MVC)
    along the way. The add and drop scans flip the greedy independent set,
    in their scan order, of the nodes eligible when the scan starts (see
    :func:`cograd.baselines.greedy_flip`).

    Raises
    ------
    ValueError
        If p is not a vector of g.n probabilities or holds a NaN.
    """
    kind = ProblemKind(kind)
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (g.n,):
        raise ValueError(f"p has shape {p.shape}, expected ({g.n},)")
    if np.isnan(p).any():
        raise ValueError("p holds NaN")
    x = (p >= 0.5).astype(np.int64)
    if kind is not ProblemKind.MAXCUT:
        # MIS deselects around selected pairs, MVC selects on unselected pairs
        value = 1 if kind is ProblemKind.MIS else 0
        u, v = g.edge_u, g.edge_v
        bad = np.flatnonzero((x[u] == value) & (x[v] == value))
        u, v = u[bad], v[bad]
        if kind is ProblemKind.MIS:
            flip = np.where(g.degree[v] >= g.degree[u], v, u)
        else:
            flip = np.where(g.degree[u] >= g.degree[v], u, v)
        xs = x.tolist()
        for a, b, f in zip(u.tolist(), v.tolist(), flip.tolist()):
            if xs[a] == value and xs[b] == value:
                xs[f] = 1 - value
        x = np.asarray(xs, dtype=np.int64)
        greedy_flip(g, x, 1 - value, descending=kind is ProblemKind.MVC)
    if polish:
        x = one_flip_local_search(kind, g, x)
    return x


def export_loss_trace(trace: list[tuple[int, float, float]]) -> str:
    """CSV text with header ``epoch,loss,best_loss``."""
    lines = ["epoch,loss,best_loss"]
    for epoch, loss, best in trace:
        lines.append(f"{epoch},{loss!r},{best!r}")
    return "\n".join(lines) + "\n"

"""Descents run numpy's BLAS on the calling thread and give the caller's
thread count back on every exit."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from cograd import gnn
from cograd.gnn import TrainConfig, TrainingDivergedError, descend, train
from cograd.graph import (
    generate_d_regular,
    generate_erdos_renyi,
    sample_observed_subgraph,
)
from cograd.linkpred import train_predictor
from cograd.qubo import ProblemKind, build_qubo

_BLAS = gnn._openblas()

pytestmark = pytest.mark.skipif(
    _BLAS is None, reason="numpy's BLAS is not an OpenBLAS this module can bind"
)


@pytest.fixture
def pool():
    """The caller's pool set to 2 threads, and the original size restored
    after the test; yields the count as read back."""
    original = _BLAS.get()
    _BLAS.set(2)
    yield _BLAS.get()
    _BLAS.set(original)


def _counting_evaluate(seen: list[int], then=None):
    """An ``evaluate`` for :func:`descend` that records the BLAS thread
    count, runs ``then`` if given, and reports a constant loss."""

    def evaluate():
        seen.append(_BLAS.get())
        if then is not None:
            then()
        return 1.0, np.zeros(1)

    return evaluate


def test_p_does_not_depend_on_the_blas_pool(pool):
    g = generate_d_regular(3000, 3, 0)
    cfg = TrainConfig(max_epochs=100, patience=100, seed=0)
    for kind in (ProblemKind.MAXCUT, ProblemKind.MIS):
        q = build_qubo(kind, g)
        ps = []
        for threads in (2, 1):
            _BLAS.set(threads)
            before = _BLAS.get()
            ps.append(np.asarray(train(g, q, cfg)[0]))
            assert _BLAS.get() == before
        assert ps[0].tobytes() == ps[1].tobytes(), kind


def test_evaluate_runs_on_one_blas_thread(pool):
    seen = []
    trace = descend(np.zeros(1), _counting_evaluate(seen), TrainConfig(max_epochs=3))
    assert len(trace) == 3 and seen == [1, 1, 1]
    assert _BLAS.get() == pool


def test_count_restored_after_divergence(pool):
    g = generate_erdos_renyi(8, 0.5, seed=0)
    q = build_qubo(ProblemKind.MAXCUT, g)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(g, q, TrainConfig(seed=0, learning_rate=1e150, max_epochs=10))
    assert _BLAS.get() == pool
    s = sample_observed_subgraph(generate_erdos_renyi(20, 0.25, seed=3), 0.7, seed=1)
    with pytest.raises(TrainingDivergedError):
        train_predictor(s, 20, TrainConfig(seed=0, learning_rate=1e150, max_epochs=50))
    assert _BLAS.get() == pool


def test_count_restored_when_evaluate_raises(pool):
    def fail():
        raise KeyError("from evaluate")

    seen = []
    with pytest.raises(KeyError, match="from evaluate"):
        descend(np.zeros(1), _counting_evaluate(seen, fail), TrainConfig())
    assert seen == [1] and _BLAS.get() == pool


def test_nested_descend_keeps_one_thread_and_restores(pool):
    inner, outer = [], []

    def nested():
        descend(np.zeros(1), _counting_evaluate(inner), TrainConfig(max_epochs=2))
        outer.append(_BLAS.get())  # the inner exit must not restore early

    descend(np.zeros(1), _counting_evaluate(outer, nested), TrainConfig(max_epochs=2))
    assert inner == [1] * 4 and outer == [1] * 4
    assert _BLAS.get() == pool


def test_concurrent_descents_restore_when_the_last_leaves(pool):
    both_inside = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    errors = []

    def run(name, then):
        try:
            descend(np.zeros(1), _counting_evaluate(seen[name], then),
                    TrainConfig(max_epochs=1))
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    def second_waits():
        both_inside.wait()
        assert first_done.wait(timeout=30)

    second = threading.Thread(target=run, args=("second", second_waits))
    second.start()
    run("first", both_inside.wait)
    # the second descent is still running, so the pool stays at one thread
    assert _BLAS.get() == 1
    first_done.set()
    second.join(timeout=30)
    assert not errors and not second.is_alive()
    assert seen == {"first": [1], "second": [1]}
    assert _BLAS.get() == pool


def test_many_threads_descending_keep_one_thread_and_restore(pool):
    """A lost update of the shared depth would restore the pool while some
    descent is still inside, or leave it at one thread at the end."""
    seen, errors = [], []

    def work():
        try:
            for _ in range(50):
                descend(np.zeros(1), _counting_evaluate(seen), TrainConfig(max_epochs=2))
        except Exception as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(seen) == 6 * 50 * 2 and set(seen) == {1}
    assert _BLAS.get() == pool

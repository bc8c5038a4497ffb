"""The benchmark's workloads, the checks on their decisions, and the
per-epoch probes.

Every workload calls cograd only through its public functions. Each one
generates its instances from the run seed in ``setup``; the timed ``run``
then receives only the generated graphs. ``run_traced`` does the same work
with spans around every call into a cograd module. Why each workload exists
is in README.md.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass
from statistics import median
from types import SimpleNamespace

import numpy as np

import cograd.bench as cograd_bench
from cograd import (
    Adam,
    Graph,
    InstanceSpec,
    PipelineConfig,
    ProblemKind,
    SuiteSpec,
    TrainConfig,
    build_qubo,
    default_dims,
    dga,
    end_to_end_solve,
    forward,
    generate_d_regular,
    generate_erdos_renyi,
    init_params,
    is_feasible,
    objective,
    one_flip_local_search,
    predict_adjacency,
    project_and_repair,
    reconstruction_bce,
    renormalized_adjacency,
    run_suite,
    sample_observed_subgraph,
    soft_adjacency_graph,
    train,
    train_predictor,
    write_gset,
)
from cograd.gnn import backward

from spans import NullTracer

KINDS = (ProblemKind.MAXCUT, ProblemKind.MIS, ProblemKind.MVC)
NULL = NullTracer()


class Refused(Exception):
    """The workload cannot be measured faithfully on this machine."""


def fixed_budget(epochs: int, seed: int) -> TrainConfig:
    """A schedule that runs exactly ``epochs`` epochs: with patience at
    least max_epochs the best-loss window never closes early."""
    return TrainConfig(max_epochs=epochs, patience=epochs, seed=seed)


@dataclass
class Decision:
    """One binary decision and what the program reported about it.

    ``x`` is None for a suite row until the check re-solves it. ``key``
    names the input, so the same input can be compared across rounds.
    """

    kind: ProblemKind
    graph: Graph
    key: tuple
    x: np.ndarray | None = None
    objective: float = float("nan")
    feasible: bool = False
    gcn: bool = True
    row: dict | None = None
    error: str | None = None


def decide(kind, g, key, fn) -> Decision:
    """Run one decision; one that raises is recorded as failed and the
    run goes on, so every attempt is counted."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - boundary: count, report, go on
        traceback.print_exc(file=sys.stderr)
        return Decision(kind, g, key, error=repr(exc))


def recompute(kind: ProblemKind, g, x) -> tuple[bool, float]:
    """Feasibility and objective from the graph's edge arrays, written
    apart from cograd.qubo so that a defect there cannot hide itself."""
    x = np.asarray(x)
    if x.shape != (g.n,) or not np.all((x == 0) | (x == 1)):
        return False, float("nan")
    a = x[g.edge_u].astype(bool)
    b = x[g.edge_v].astype(bool)
    if kind is ProblemKind.MAXCUT:
        return True, float(g.edge_w @ (a ^ b))
    if kind is ProblemKind.MIS:
        return not bool(np.any(a & b)), float(np.count_nonzero(x))
    return bool(np.all(a | b)), float(np.count_nonzero(x))


def quality(d: Decision) -> float:
    """Cut weight / total weight (MaxCut), |S|/n (MIS), 1 - |C|/n (MVC)."""
    g = d.graph
    if d.kind is ProblemKind.MAXCUT:
        return d.objective / float(np.sum(g.edge_w))
    if d.kind is ProblemKind.MIS:
        return d.objective / g.n
    return 1.0 - d.objective / g.n


def check(d: Decision) -> bool:
    """The decision is feasible by recomputation, the program said so too,
    and the objective it reported equals the recomputed one."""
    if d.error is not None or d.x is None:
        return False
    if d.row is not None and (d.row["n"], d.row["m"]) != (d.graph.n, d.graph.m):
        return False
    feasible, obj = recompute(d.kind, d.graph, d.x)
    return feasible and d.feasible and abs(obj - d.objective) <= 1e-9 * max(1.0, abs(obj))


def count_failed(rounds: list[list[Decision]]) -> int:
    """Decisions that raised, fail :func:`check`, or differ from the first
    decision made on the same input (every round repeats the same inputs,
    and cograd promises seed-determinism)."""
    first: dict[tuple, Decision] = {}
    for decisions in rounds:
        for d in decisions:
            first.setdefault(d.key, d)
    failed = 0
    for decisions in rounds:
        for d in decisions:
            ref = first[d.key]
            ok = (
                d.error is None
                and check(d if d.x is not None else ref)
                and (d.objective, d.feasible) == (ref.objective, ref.feasible)
                and (d.x is None or ref.x is None or np.array_equal(d.x, ref.x))
            )
            failed += not ok
    return failed


def solve(kind, g, cfg: TrainConfig, tr=NULL) -> np.ndarray:
    """The standalone GCN solver: build_qubo -> train -> project_and_repair
    -> one_flip_local_search. The last two calls are what
    project_and_repair(polish=True) does, split so each gets its own span."""
    q = tr.call("qubo.build", build_qubo, kind, g)
    soft, losses = tr.call("gnn.train", train, g, q, cfg)
    x0 = tr.call("gnn.repair", project_and_repair, kind, g, soft)
    x = tr.call("baselines.polish", one_flip_local_search, kind, g, x0)
    tr.count("qubo.nnz", len(q.entries))
    tr.count("gnn.epochs", len(losses))
    tr.count("gnn.early_stop", len(losses) < cfg.max_epochs)
    tr.count("baselines.flips", np.count_nonzero(x != x0))
    return x


def standalone(kind, g, cfg, key, tr=NULL) -> Decision:
    def go():
        x = solve(kind, g, cfg, tr)
        return Decision(kind, g, key, x, objective(kind, g, x), is_feasible(kind, g, x))

    return decide(kind, g, key, go)


def compose(g, cfg: PipelineConfig, tr=NULL):
    """end_to_end_solve, stage by stage through public calls, with polish
    on as in every config here. Returns the decision on g and the predicted
    graph with its QUBO."""
    kind = ProblemKind(cfg.kind)
    sample = tr.call(
        "graph.sample", sample_observed_subgraph, g, cfg.observe_fraction, cfg.seed
    )
    params = tr.call("linkpred.train", train_predictor, sample, g.n, cfg.predictor_cfg)
    soft = tr.call("linkpred.predict", predict_adjacency, params, sample)
    g_pred = tr.call("pipeline.soft_graph", soft_adjacency_graph, soft)
    q_pred = tr.call("qubo.build", build_qubo, kind, g_pred, cfg.penalty)
    l_obj = tr.call("linkpred.bce", reconstruction_bce, params, sample)
    soft_x, losses = tr.call(
        "gnn.train", train, g_pred, q_pred, cfg.solver_cfg, loss_offset=cfg.lam * l_obj
    )
    x0 = tr.call("gnn.repair", project_and_repair, kind, g, soft_x)
    x = tr.call("baselines.polish", one_flip_local_search, kind, g, x0)

    true_keys = g.edge_u * g.n + g.edge_v
    on_true = np.isin(g_pred.edge_u * g.n + g_pred.edge_v, true_keys)
    tr.count("pipeline.m_pred", g_pred.m)
    tr.count("pipeline.pred_density", g_pred.m / max(g.m, 1))
    tr.count(
        "pipeline.pred_precision",
        float(np.sum(g_pred.edge_w[on_true]) / max(np.sum(g_pred.edge_w), 1e-300)),
    )
    tr.count("qubo.nnz", len(q_pred.entries))
    tr.count("gnn.epochs", len(losses))
    tr.count("gnn.early_stop", len(losses) < cfg.solver_cfg.max_epochs)
    tr.count("baselines.flips", np.count_nonzero(x != x0))
    return x, g_pred, q_pred


GUARD_N = 40
GUARD_EPOCHS = 300


def guard(seed: int) -> tuple[bool, bool]:
    """Untimed checks on a small graph from the seed.

    Returns (reduction_exact, composition_match): end_to_end_solve at full
    observation and lam = 0 gives the standalone solver's assignment for
    every problem, and the stage-by-stage :func:`compose` reproduces
    end_to_end_solve at partial observation.
    """
    g = generate_d_regular(GUARD_N, 3, seed)
    solver = fixed_budget(GUARD_EPOCHS, seed)
    exact = True
    for kind in KINDS:
        cfg = PipelineConfig(
            kind=kind,
            observe_fraction=1.0,
            lam=0.0,
            predictor_cfg=fixed_budget(GUARD_EPOCHS, seed),
            solver_cfg=solver,
            seed=seed,
        )
        exact &= np.array_equal(end_to_end_solve(g, cfg).assignment, solve(kind, g, solver))
    cfg = PipelineConfig(
        kind=ProblemKind.MIS,
        observe_fraction=0.8,
        predictor_cfg=fixed_budget(GUARD_EPOCHS, seed),
        solver_cfg=solver,
        seed=seed,
    )
    match = np.array_equal(end_to_end_solve(g, cfg).assignment, compose(g, cfg)[0])
    return bool(exact), bool(match)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


def probe(g, q, seed: int, reps: int = 15) -> dict[str, float]:
    """Per-call times of the solver epoch's parts on the workload's graph,
    through the public forward, backward (which re-runs forward) and
    Adam.step, plus the QUBO's value and gradient."""
    a_hat = renormalized_adjacency(g)
    d0, d1 = default_dims(g.n)
    params = init_params(g.n, d0, d1, seed)
    grads = backward(params, a_hat, q).arrays()
    opt = Adam(1e-2)
    scratch = [a.copy() for a in params.arrays()]
    p = forward(params, a_hat).p
    return {
        "graph.renorm_ms": _median_ms(lambda: renormalized_adjacency(g), reps),
        "gnn.a_hat_nnz": float(a_hat.nnz),
        "gnn.forward_ms": _median_ms(lambda: forward(params, a_hat), reps),
        "gnn.backward_ms": _median_ms(lambda: backward(params, a_hat, q), reps),
        "gnn.adam_ms": _median_ms(lambda: opt.step(scratch, grads), reps),
        "qubo.value_us": 1000.0 * _median_ms(lambda: q.value(p), 4 * reps),
        "qubo.gradient_us": 1000.0 * _median_ms(lambda: q.gradient(p), 4 * reps),
    }


class SolveLarge:
    """Standalone GCN solver on one large sparse graph, all three problems,
    fixed epoch budget: time is almost all in the solver epoch."""

    name = "solve-large"
    n, degree, epochs = 3000, 3, 100

    def setup(self, seed, tr, tmp):
        g = tr.call("graph.generate", generate_d_regular, self.n, self.degree, seed)
        return SimpleNamespace(g=g, cfg=fixed_budget(self.epochs, seed))

    def run(self, st, tr=NULL) -> list[Decision]:
        return [standalone(k, st.g, st.cfg, (k.value,), tr) for k in KINDS]

    run_traced = run

    def verify(self, st, decisions, tr):
        pass  # every decision carries its assignment

    def probe_target(self, st):
        return st.g, build_qubo(ProblemKind.MAXCUT, st.g)


class SuiteSmall:
    """run_suite over small graphs with cograd's default worker pool: many
    short solves, the thread pool and the greedy baseline.

    The suite's ``epochs`` caps max_epochs; patience stays at its default.
    Left uncapped, epochs-to-stop moved a round's wall time by 37 % of its
    median across seeds, more than any bound allows.
    """

    name = "suite-small"
    # (name, generator, n); Erdos-Renyi at mean degree 3, like the regular ones
    instances = (
        ("reg-100", "d-regular", 100),
        ("er-150", "erdos-renyi", 150),
        ("reg-200", "d-regular", 200),
        ("er-250", "erdos-renyi", 250),
    )
    methods = ("gnn-solver", "dga+local-search")
    epochs = 1000

    def setup(self, seed, tr, tmp):
        nproc = len(os.sched_getaffinity(0))
        workers = cograd_bench._worker_count()
        if workers > nproc:
            raise Refused(
                f"the default bench pool has {workers} workers but only {nproc} "
                "CPUs are available; suite-small would measure oversubscription"
            )
        rng = np.random.default_rng(seed)
        graphs, specs = {}, []
        for name, generator, n in self.instances:
            gseed = int(rng.integers(2**31))
            if generator == "d-regular":
                g = tr.call("graph.generate", generate_d_regular, n, 3, gseed)
            else:
                g = tr.call("graph.generate", generate_erdos_renyi, n, 3.0 / (n - 1), gseed)
            path = os.path.join(tmp, name + ".txt")
            with open(path, "w") as f:
                f.write(write_gset(g))
            graphs[name] = g
            specs.append(InstanceSpec(name=name, path=path))
        return SimpleNamespace(graphs=graphs, specs=tuple(specs), seed=seed)

    def _suite(self, spec, tr):
        if isinstance(tr, NullTracer):
            return run_suite(spec)
        with tr.span("bench.run_suite") as sid:
            inner = cograd_bench._run_row

            def traced_row(*args):
                with tr.span("bench.row", parent=sid):
                    return inner(*args)

            cograd_bench._run_row = traced_row
            try:
                return run_suite(spec)
            finally:
                cograd_bench._run_row = inner

    def run(self, st, tr=NULL) -> list[Decision]:
        out = []
        for kind in KINDS:
            spec = SuiteSpec(
                problem=kind,
                instances=st.specs,
                methods=self.methods,
                seeds=(st.seed,),
                epochs=self.epochs,
            )
            try:
                rows = self._suite(spec, tr).rows
            except Exception as exc:  # noqa: BLE001 - every expected row fails
                traceback.print_exc(file=sys.stderr)
                out += [
                    Decision(kind, st.graphs[name], (kind.value, name, m, st.seed),
                             gcn=m == "gnn-solver", error=repr(exc))
                    for name, _, _ in self.instances
                    for m in self.methods
                ]
                continue
            for row in rows:
                out.append(
                    Decision(
                        kind,
                        st.graphs[row["instance"]],
                        (kind.value, row["instance"], row["method"], row["seed"]),
                        objective=row["objective"],
                        feasible=row["feasible"],
                        gcn=row["method"] == "gnn-solver",
                        row=row,
                    )
                )
        return out

    run_traced = run

    def verify(self, st, decisions, tr):
        """Rows carry no assignment: re-solve each through public calls,
        as bench runs it (penalty 2, polish on, the suite's epoch cap)."""
        for d in decisions:
            if d.row is None:
                continue
            kind, g = d.kind, d.graph
            try:
                if d.gcn:
                    cfg = TrainConfig(max_epochs=self.epochs, seed=d.row["seed"])
                    d.x = solve(kind, g, cfg, tr)
                else:
                    x0 = tr.call("baselines.dga", dga, kind, g)
                    d.x = tr.call("baselines.polish", one_flip_local_search, kind, g, x0)
            except Exception as exc:  # noqa: BLE001 - the row counts as failed
                traceback.print_exc(file=sys.stderr)
                d.error = repr(exc)

    def probe_target(self, st):
        g = max(st.graphs.values(), key=lambda g: g.m)
        return g, build_qubo(ProblemKind.MAXCUT, g)


class DflPartial:
    """Predict-then-optimize on a partially observed graph: time and memory
    in the link predictor, the dense predicted graph and its QUBO."""

    name = "dfl-partial"
    n, fraction = 800, 0.8
    predictor_epochs, solver_epochs = 800, 150

    def setup(self, seed, tr, tmp):
        g = tr.call("graph.generate", generate_d_regular, self.n, 3, seed)
        cfg = PipelineConfig(
            kind=ProblemKind.MIS,
            observe_fraction=self.fraction,
            predictor_cfg=fixed_budget(self.predictor_epochs, seed),
            solver_cfg=fixed_budget(self.solver_epochs, seed),
            seed=seed,
        )
        return SimpleNamespace(g=g, cfg=cfg, pred=None)

    def run(self, st) -> list[Decision]:
        def go():
            res = end_to_end_solve(st.g, st.cfg)
            return Decision(ProblemKind.MIS, st.g, ("mis",), res.assignment,
                            res.objective_true, res.feasible_true)

        return [decide(ProblemKind.MIS, st.g, ("mis",), go)]

    def run_traced(self, st, tr) -> list[Decision]:
        kind, key = ProblemKind.MIS, ("mis", "composed")

        def go():
            x, g_pred, q_pred = compose(st.g, st.cfg, tr)
            st.pred = (g_pred, q_pred)
            return Decision(kind, st.g, key, x, objective(kind, st.g, x),
                            is_feasible(kind, st.g, x))

        return [decide(kind, st.g, key, go)]

    def verify(self, st, decisions, tr):
        pass

    def probe_target(self, st):
        return st.pred


WORKLOADS = {w.name: w for w in (SolveLarge(), SuiteSmall(), DflPartial())}

#!/usr/bin/env python3
"""Print a SHA-1 of each decision in a fixed set, to compare two commits.

Usage:
    python3 scripts/decisions.py > decisions.txt

Each line is ``case sha1``: the case name, then the SHA-1 of its 0/1
decision as int64 bytes, or for the QUBO and predictor cases of the bytes
they list. The run time goes to stderr. The script imports cograd from the
``src`` of the checkout it sits in, so a copy placed in another checkout
runs that checkout's code, and ``diff`` of the two outputs names every
decision that moved. It calls public functions only, and reads a QUBO's
CSR arrays and the predictor's codes (``linkpred._encode``).

Cases:

* repair, with and without polish, of MIS and MVC from p = 0, 1/6, 5/6, 1
  and a seeded uniform p, and ``dga`` + local search for all three
  problems, on 3-regular graphs (n = 100, 800, 3000, 32,000), an
  Erdos-Renyi graph (n = 250, mean degree 3), a 3000-node path in index
  order, a path that runs up the even nodes and back down the odd ones, and
  a 50 x 50 torus numbered row by row;
* solve-large's shape: 3-regular n = 3000, seeds 0-1, 100 fixed epochs,
  repair and polish, all three problems;
* suite-small's four graphs at seed 0, epochs capped at 1000 with default
  patience: ``gnn-solver`` and ``dga+local-search``, all three problems;
* ``bench/suite-small/<problem>``: the same graphs, methods and epoch cap
  run through ``run_suite``, as ``json.dumps`` of its rows without
  ``runtime_ms``;
* dfl-partial's shape: 3-regular n = 800, 80 % observed, 800 predictor and
  150 solver epochs, seed 0, all three problems, at the default lambda and
  again at lambda = 1e20 (``.../lambda=1e20``). Lambda must not reach the
  solver, so each pair of decisions is equal;
* ``qubo/<graph>/<problem>``: the QUBO of each problem on reg-100, er-250,
  the torus and a 6-node graph with a zero, a negative and a fractional
  weight and an isolated node, as the bytes of ``export_coordinate_text``
  followed by those of its CSR arrays (``indptr``, ``indices``, ``data``);
* ``predictor/seed=0``: the link predictor trained on dfl-partial's shape
  (800 epochs), as the bytes of its ``embed`` and ``w`` followed by
  ``repr`` of its reconstruction loss;
* ``predictor/dense/seed=0``: the same for an Erdos-Renyi graph (n = 100,
  p = 0.8), 80 % observed, at 400 epochs. Most negative draws hit an
  observed edge, so each epoch takes several rounds of draws;
* ``predicted/dfl-partial/seed=0``: the graph the solver runs on in
  dfl-partial's shape, ``soft_adjacency_graph(predict_adjacency(...))`` of
  the ``predictor/seed=0`` predictor, as the bytes of its ``edge_u``,
  ``edge_v`` and ``edge_w``;
* ``trace/reg-100/<problem>/<schedule>``: the solver's descent on reg-100
  at 200 fixed epochs (``epochs=200``) and at the default schedule
  (``default``), as the bytes of ``export_loss_trace`` of its trace, then
  of its p, then of its stop reason;
* ``pipeline/<case>/<problem>``: ``PipelineResult.to_json()`` without
  ``runtime_ms``, for dfl-partial's shape at seed 0 (``dfl-partial``) and
  for the weighted 6-node graph of the qubo cases, fully observed at
  lambda = 1e20 with the default schedules (``weighted/lambda=1e20``).
  Full observation trains no predictor, so the latter pins the decision
  with ``l_obj`` = 0, and lambda still never reaches the solver;
* ``predictor/reg-1500/seed=0`` and ``dfl/reg-1500/seed=0/<problem>``:
  3-regular n = 1500, 80 % observed, 200 predictor and 150 solver epochs,
  seed 0, as the bytes of the predictor's ``embed`` and ``w`` and as each
  problem's decision. From about this size OpenBLAS may pick another
  matrix-product kernel for the predictor's observed rows than for all
  rows, so the predictor's last bits can move with the row count while
  the decisions stay put;
* ``codes/padded/seed=0``: the predictor's codes, as the bytes of
  ``linkpred._encode``, for an Erdos-Renyi graph (n = 40, p = 0.2), 60 %
  observed, trained at 100 fixed epochs with ``full_n`` = 46, so that six
  padding rows follow the sampled graph's.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cograd import (  # noqa: E402
    Graph,
    InstanceSpec,
    ObservedSample,
    PipelineConfig,
    PipelineResult,
    PredictorParams,
    ProblemKind,
    SuiteSpec,
    TrainConfig,
    build_qubo,
    dga,
    end_to_end_solve,
    export_coordinate_text,
    export_loss_trace,
    generate_d_regular,
    generate_erdos_renyi,
    one_flip_local_search,
    predict_adjacency,
    project_and_repair,
    reconstruction_bce,
    run_suite,
    sample_observed_subgraph,
    soft_adjacency_graph,
    train,
    train_predictor,
)
from cograd import linkpred  # noqa: E402

# a decision, or the bytes of an array-valued result
Case = tuple[str, Callable[[], np.ndarray | bytes]]


def path(order) -> Graph:
    """The path that visits the nodes of ``order`` in turn."""
    order = np.asarray(order)
    return Graph.from_arrays(len(order), order[:-1], order[1:])


def torus(side: int) -> Graph:
    """The side x side grid with wrap-around, numbered row by row."""
    node = np.arange(side * side).reshape(side, side)
    right, down = np.roll(node, -1, axis=1), np.roll(node, -1, axis=0)
    return Graph.from_arrays(side * side, np.tile(node.ravel(), 2),
                             np.concatenate([right.ravel(), down.ravel()]))


REPAIR_GRAPHS = (
    ("reg-100", lambda: generate_d_regular(100, 3, 0)),
    ("reg-800", lambda: generate_d_regular(800, 3, 0)),
    ("reg-3000", lambda: generate_d_regular(3000, 3, 0)),
    ("reg-32000", lambda: generate_d_regular(32_000, 3, 0)),
    ("er-250", lambda: generate_erdos_renyi(250, 3.0 / 249, 0)),
    ("path", lambda: path(np.arange(3000))),
    ("folded-path", lambda: path(np.r_[0:3000:2, 2999:0:-2])),
    ("torus", lambda: torus(50)),
)


def fixed_budget(epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(max_epochs=epochs, patience=epochs, seed=seed)


def gcn(kind: ProblemKind, g: Graph, cfg: TrainConfig) -> np.ndarray:
    soft, _ = train(g, build_qubo(kind, g), cfg)
    return project_and_repair(kind, g, soft, polish=True)


def dga_local_search(kind: ProblemKind, g: Graph) -> np.ndarray:
    return one_flip_local_search(kind, g, dga(kind, g))


@cache
def dfl_result(g: Graph, kind: ProblemKind, seed: int, lam: float = 1.0,
               predictor_epochs: int = 800) -> PipelineResult:
    cfg = PipelineConfig(kind=kind, observe_fraction=0.8, lam=lam, seed=seed,
                         predictor_cfg=fixed_budget(predictor_epochs, seed),
                         solver_cfg=fixed_budget(150, seed))
    return end_to_end_solve(g, cfg)


def dfl(g: Graph, kind: ProblemKind, seed: int, lam: float = 1.0,
        predictor_epochs: int = 800) -> np.ndarray:
    return dfl_result(g, kind, seed, lam, predictor_epochs).assignment


def result_bytes(result: PipelineResult) -> bytes:
    doc = json.loads(result.to_json())
    del doc["runtime_ms"]
    return json.dumps(doc).encode()


def full_observation(g: Graph, kind: ProblemKind, lam: float) -> PipelineResult:
    return end_to_end_solve(g, PipelineConfig(kind=kind, observe_fraction=1.0, lam=lam))


def trace_bytes(kind: ProblemKind, g: Graph, cfg: TrainConfig) -> bytes:
    soft, trace = train(g, build_qubo(kind, g), cfg)
    return (export_loss_trace(trace).encode() + soft.p.tobytes()
            + trace.stop_reason.encode())


def qubo_bytes(kind: ProblemKind, g: Graph) -> bytes:
    q = build_qubo(kind, g)
    csr = q._offdiag
    return export_coordinate_text(q).encode() + b"".join(
        a.tobytes() for a in (csr.indptr, csr.indices, csr.data))


@cache
def predictor(g: Graph, seed: int, epochs: int) -> tuple[ObservedSample, PredictorParams]:
    """The 80 % sample of ``g`` and the predictor trained on it, as
    ``end_to_end_solve`` draws and trains them."""
    sample = sample_observed_subgraph(g, 0.8, seed)
    return sample, train_predictor(sample, g.n, fixed_budget(epochs, seed))


def predictor_bytes(g: Graph, seed: int, epochs: int = 800, loss: bool = True) -> bytes:
    """The bytes of the trained ``embed`` and ``w``, then ``repr`` of the
    reconstruction loss unless ``loss`` is false."""
    sample, params = predictor(g, seed, epochs)
    out = params.embed.tobytes() + params.w.tobytes()
    return out + repr(reconstruction_bce(params, sample)).encode() if loss else out


def predicted_bytes(g: Graph, seed: int, epochs: int = 800) -> bytes:
    """The bytes of the predicted graph's ``edge_u``, ``edge_v`` and
    ``edge_w`` past the cutoff, as the solver receives it."""
    sample, params = predictor(g, seed, epochs)
    pred = soft_adjacency_graph(predict_adjacency(params, sample))
    return pred.edge_u.tobytes() + pred.edge_v.tobytes() + pred.edge_w.tobytes()


def padded_code_bytes(g: Graph, seed: int) -> bytes:
    """The bytes of the codes of a predictor trained on 60 % of ``g`` over
    six more rows than ``g`` has nodes, at 100 fixed epochs."""
    sample = sample_observed_subgraph(g, 0.6, seed)
    params = train_predictor(sample, g.n + 6, fixed_budget(100, seed))
    return linkpred._encode(params, sample).tobytes()


def suite_small_specs(seed: int) -> tuple[InstanceSpec, ...]:
    """suite-small's instances as bench generators, with the graph seeds its
    set-up draws."""
    rng = np.random.default_rng(seed)
    specs = []
    for name, n in (("reg-100", 100), ("er-150", 150), ("reg-200", 200), ("er-250", 250)):
        gseed = int(rng.integers(2**31))
        if name.startswith("reg"):
            specs.append(InstanceSpec(name, generator="d-regular", n=n, d=3, seed=gseed))
        else:
            specs.append(InstanceSpec(name, generator="erdos-renyi", n=n,
                                      p=3.0 / (n - 1), seed=gseed))
    return tuple(specs)


def suite_small_graphs(seed: int) -> Iterator[tuple[str, Graph]]:
    """suite-small's instances, drawn as its set-up draws them."""
    for spec in suite_small_specs(seed):
        yield spec.name, spec.load()


def bench_rows(kind: ProblemKind, instances: tuple[InstanceSpec, ...]) -> bytes:
    spec = SuiteSpec(kind, instances, ("gnn-solver", "dga+local-search"), epochs=1000)
    rows = [{k: v for k, v in row.items() if k != "runtime_ms"}
            for row in run_suite(spec).rows]
    return json.dumps(rows).encode()


def cases() -> Iterator[Case]:
    """Every case in print order, as (name, call returning the decision).
    Each group's graph is built when the generator reaches it."""
    for name, make in REPAIR_GRAPHS:
        g = make()
        ps = {"p=0": np.zeros(g.n), "p=1|6": np.full(g.n, 1 / 6),
              "p=5|6": np.full(g.n, 5 / 6), "p=1": np.ones(g.n),
              "p=uniform": np.random.default_rng(0).uniform(size=g.n)}
        for kind in (ProblemKind.MIS, ProblemKind.MVC):
            for label, p in ps.items():
                for polish in (False, True):
                    step = "polish" if polish else "repair"
                    yield (f"{step}/{name}/{kind.value}/{label}",
                           partial(project_and_repair, kind, g, p, polish=polish))
        for kind in ProblemKind:
            yield f"dga+local-search/{name}/{kind.value}", partial(dga_local_search, kind, g)
    for seed in (0, 1):
        g = generate_d_regular(3000, 3, seed)
        for kind in ProblemKind:
            yield (f"solve-large/seed={seed}/{kind.value}",
                   partial(gcn, kind, g, fixed_budget(100, seed)))
    for name, g in suite_small_graphs(0):
        for kind in ProblemKind:
            yield (f"suite-small/{name}/gnn-solver/{kind.value}",
                   partial(gcn, kind, g, TrainConfig(max_epochs=1000, seed=0)))
            yield (f"suite-small/{name}/dga+local-search/{kind.value}",
                   partial(dga_local_search, kind, g))
    for kind in ProblemKind:
        yield f"bench/suite-small/{kind.value}", partial(bench_rows, kind, suite_small_specs(0))
    g = generate_d_regular(800, 3, 0)
    for kind in ProblemKind:
        yield f"dfl-partial/seed=0/{kind.value}", partial(dfl, g, kind, 0)
    for kind in ProblemKind:
        yield (f"dfl-partial/seed=0/{kind.value}/lambda=1e20",
               partial(dfl, g, kind, 0, lam=1e20))
    weighted = Graph(6, [(0, 1, 2.5), (1, 2, -0.25), (2, 3, 0.0), (0, 4, 1e-3)])
    makers = dict(REPAIR_GRAPHS, weighted=lambda: weighted)
    for name in ("reg-100", "er-250", "torus", "weighted"):
        q_graph = makers[name]()
        for kind in ProblemKind:
            yield f"qubo/{name}/{kind.value}", partial(qubo_bytes, kind, q_graph)
    yield "predictor/seed=0", partial(predictor_bytes, g, 0)
    yield "predicted/dfl-partial/seed=0", partial(predicted_bytes, g, 0)
    dense = generate_erdos_renyi(100, 0.8, 0)
    yield "predictor/dense/seed=0", partial(predictor_bytes, dense, 0, 400)
    reg100 = makers["reg-100"]()
    for kind in ProblemKind:
        for schedule, cfg in (("epochs=200", fixed_budget(200, 0)), ("default", TrainConfig())):
            yield (f"trace/reg-100/{kind.value}/{schedule}",
                   partial(trace_bytes, kind, reg100, cfg))
    for kind in ProblemKind:
        yield (f"pipeline/dfl-partial/{kind.value}",
               lambda kind=kind: result_bytes(dfl_result(g, kind, 0)))
    for kind in ProblemKind:
        yield (f"pipeline/weighted/lambda=1e20/{kind.value}",
               lambda kind=kind: result_bytes(full_observation(weighted, kind, 1e20)))
    reg1500 = generate_d_regular(1500, 3, 0)
    yield "predictor/reg-1500/seed=0", partial(predictor_bytes, reg1500, 0, 200, loss=False)
    for kind in ProblemKind:
        yield (f"dfl/reg-1500/seed=0/{kind.value}",
               partial(dfl, reg1500, kind, 0, predictor_epochs=200))
    er40 = generate_erdos_renyi(40, 0.2, 0)
    yield "codes/padded/seed=0", partial(padded_code_bytes, er40, 0)


def digest(x: np.ndarray | bytes) -> str:
    """SHA-1 of bytes as they are, or of a decision as int64 bytes."""
    if not isinstance(x, bytes):
        x = np.asarray(x, dtype=np.int64).tobytes()
    return hashlib.sha1(x).hexdigest()


def main() -> None:
    start = time.perf_counter()
    for name, decide in cases():
        print(name, digest(decide()), flush=True)
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()

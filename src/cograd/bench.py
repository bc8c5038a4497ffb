"""Benchmark suites: run solvers over instances and emit CSV/JSON reports.

A suite is a cross product of instances, methods, and seeds. Rows run one
at a time in the calling thread, and every row is seed-deterministic.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .baselines import dga, one_flip_local_search
from .gnn import TrainConfig, _check_seed, _count, _python_numbers, _real
from .graph import Graph, generate_d_regular, generate_erdos_renyi, load_gset
from .pipeline import PipelineConfig, end_to_end_solve
from .qubo import ProblemKind, brute_force_optimum, is_feasible, objective
from .reference import best_known

__all__ = [
    "METHODS",
    "InstanceSpec",
    "SuiteSpec",
    "BenchReport",
    "relative_error",
    "run_suite",
    "emit_report",
]

METHODS = ("gnn-solver", "dfl-pipeline", "dga", "dga+local-search", "oracle")

CSV_HEADER = "instance,n,m,method,objective,feasible,runtime_ms,seed,epsilon"


def relative_error(ours: float, best: float, maximize: bool = True) -> float:
    """Gap to the best-known objective, clamped below at zero.

    (best - ours) / best when larger is better, (ours - best) / best when
    smaller is better.
    """
    if best <= 0.0:
        raise ValueError(f"best-known value must be positive, got {best}")
    eps = (best - ours) / best if maximize else (ours - best) / best
    return max(0.0, float(eps))


@dataclass(frozen=True)
class InstanceSpec:
    """One benchmark instance: a file on disk or a seeded generator.

    ``n``, ``d`` and ``seed`` are whole numbers of at least 0 and ``p`` a
    real number in [0, 1], none of them a bool; they are checked here, so a
    bad config entry fails before any instance loads. A numpy number is
    kept as its Python equal, ``x.item()``, as in :class:`SuiteSpec` and
    :class:`cograd.pipeline.PipelineConfig`, so JSON can hold it."""

    name: str
    path: str | None = None
    generator: str | None = None
    n: int = 0
    d: int = 0
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("n", "d"):
            value = getattr(self, key)
            if not _count(value, least=0):
                raise ValueError(
                    f"{key} must be at least 0 and a whole number, got {value!r}"
                )
        p = self.p
        if not (_real(p) and 0 <= p <= 1):
            raise ValueError(f"p must be a real number in [0, 1], got {p!r}")
        _check_seed(self.seed)
        _python_numbers(self)

    def load(self) -> Graph:
        if self.path is not None:
            try:
                return load_gset(self.path)
            except FileNotFoundError:
                msg = f"instance file not found: {self.path}"
                raise FileNotFoundError(msg) from None
            except (OSError, EOFError, zlib.error) as exc:
                # a directory, an unreadable file, or a gzip that is not one,
                # is cut short or is corrupt: bad input
                reason = getattr(exc, "strerror", None) or exc
                msg = f"cannot read instance file {self.path}: {reason}"
                raise ValueError(msg) from None
        if self.generator == "d-regular":
            return generate_d_regular(self.n, self.d, self.seed)
        if self.generator == "erdos-renyi":
            return generate_erdos_renyi(self.n, self.p, self.seed)
        raise ValueError(
            f"instance {self.name!r} needs a path or a known generator, "
            f"got generator={self.generator!r}"
        )


@dataclass(frozen=True)
class SuiteSpec:
    """Cross product of instances, methods, and seeds plus run settings.

    The run settings are checked when the spec is built, by the rules of
    :class:`TrainConfig`, :class:`PipelineConfig` and the penalty, whatever
    methods are listed, so a bad setting fails before any instance loads."""

    problem: ProblemKind
    instances: tuple[InstanceSpec, ...]
    methods: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    penalty: float = 2.0
    polish: bool = True
    observe_fraction: float = 0.8
    epochs: int | None = None
    lr: float | None = None
    d0: int | None = None
    d1: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "problem", ProblemKind(self.problem))
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "methods", tuple(self.methods))
        seeds = tuple(self.seeds)
        for s in seeds:
            _check_seed(s)
        # Python ints, as the JSON rows need them
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
        names = [inst.name for inst in self.instances]
        if len(set(names)) != len(names):
            raise ValueError("instance names must be unique")
        _pipeline_cfg(self, 0)
        _python_numbers(self)

    def digest(self) -> str:
        doc = asdict(self)
        doc["problem"] = self.problem.value
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[dict, ...]
    metadata: dict


def _pipeline_cfg(spec: SuiteSpec, seed: int) -> PipelineConfig:
    # lambda keeps its default: it only shifts losses, which no row reports
    schedule = {"max_epochs": spec.epochs, "learning_rate": spec.lr}
    schedule = {k: v for k, v in schedule.items() if v is not None}
    return PipelineConfig(
        kind=spec.problem,
        observe_fraction=spec.observe_fraction,
        predictor_cfg=TrainConfig(seed=seed),
        solver_cfg=TrainConfig(seed=seed, d0=spec.d0, d1=spec.d1, **schedule),
        seed=seed,
        penalty=spec.penalty,
        polish=spec.polish,
    )


def _run_method(
    spec: SuiteSpec, g: Graph, method: str, seed: int
) -> tuple[float, bool, np.ndarray]:
    """Objective, feasibility and assignment of one method on one graph.

    A ``gnn-solver`` row is the ``dfl-pipeline`` row at full observation:
    :func:`cograd.pipeline.end_to_end_solve` then solves on the true graph,
    which is the standalone GCN solver."""
    kind = spec.problem
    if method == "oracle":
        x, val = brute_force_optimum(kind, g)
        return val, bool(is_feasible(kind, g, x)), x
    if method == "dga":
        x = dga(kind, g)
    elif method == "dga+local-search":
        x = one_flip_local_search(kind, g, dga(kind, g))
    elif method in ("gnn-solver", "dfl-pipeline"):
        cfg = _pipeline_cfg(spec, seed)
        if method == "gnn-solver":
            cfg = replace(cfg, observe_fraction=1.0)
        res = end_to_end_solve(g, cfg)
        return res.objective_true, res.feasible_true, res.assignment
    else:
        raise ValueError(f"unknown method {method!r}")
    return objective(kind, g, x), bool(is_feasible(kind, g, x)), x


def _run_row(
    spec: SuiteSpec, name: str, g: Graph, method: str, seed: int, assignment: bool = False
) -> dict:
    """One report row; with ``assignment`` it also carries the decision."""
    t0 = time.perf_counter()
    obj, feasible, x = _run_method(spec, g, method, seed)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    ref = best_known(name)
    eps = (
        relative_error(obj, ref, spec.problem.maximize)
        if ref is not None
        else None
    )
    row = {
        "instance": name,
        "n": g.n,
        "m": g.m,
        "method": method,
        "objective": float(obj),
        "feasible": bool(feasible),
        "runtime_ms": runtime_ms,
        "seed": seed,
        "epsilon": eps,
    }
    if assignment:
        row["assignment"] = [int(b) for b in x]
    return row


def _worker_count() -> int:
    # kept for perfbench: SuiteSmall.setup (workloads.py), environment() (worker.py)
    return 1


def run_suite(spec: SuiteSpec) -> BenchReport:
    """Run every (instance, method, seed) combination into one report.

    Instances load up front so a missing file fails before any solver
    starts. Rows run and are ordered by (instance, method, seed).
    """
    graphs = {inst.name: inst.load() for inst in spec.instances}
    tasks = sorted(
        (name, method, seed)
        for name in graphs
        for method in spec.methods
        for seed in spec.seeds
    )
    # _run_row is looked up per row: perfbench's traced suite-small wraps it
    rows = tuple(
        _run_row(spec, name, graphs[name], method, seed)
        for name, method, seed in tasks
    )
    metadata = {
        "config_digest": spec.digest(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    return BenchReport(rows=rows, metadata=metadata)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: BenchReport, format: str = "csv") -> bytes:
    """Serialize a report; rows keep their (instance, method, seed) order."""
    if format == "csv":
        lines = [CSV_HEADER]
        for row in report.rows:
            lines.append(
                ",".join(_csv_cell(row[key]) for key in CSV_HEADER.split(","))
            )
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        doc = {"metadata": report.metadata, "rows": list(report.rows)}
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}, expected csv or json")

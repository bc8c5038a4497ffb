"""Tests for suite running, relative error, and report emission."""

from __future__ import annotations

import importlib
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import cograd.bench as cograd_bench
from cograd.bench import (
    CSV_HEADER,
    BenchReport,
    InstanceSpec,
    SuiteSpec,
    emit_report,
    relative_error,
    run_suite,
)
from cograd.gnn import TrainConfig
from cograd.graph import Graph, generate_d_regular, write_gset
from cograd.pipeline import PipelineConfig, end_to_end_solve
from cograd.qubo import ProblemKind, build_qubo
from cograd.reference import GSET_BEST_KNOWN, PUBLISHED_CUTS


def _c4_file(tmp_path, name="c4.txt"):
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / name
    path.write_text(write_gset(g))
    return str(path)


def test_relative_error_pinned_values():
    assert relative_error(3060, 3064) == pytest.approx(0.0013, abs=5e-5)
    assert relative_error(5860, 5880) == pytest.approx(0.0034, abs=5e-5)
    assert relative_error(6000, 6000) == 0.0


def test_relative_error_reproduces_reference_gaps():
    # two-decimal percentage gaps for every benchmark row
    expected = {
        "G14": 0.13,
        "G15": 0.39,
        "G22": 0.19,
        "G49": 0.0,
        "G50": 0.34,
        "G55": 1.28,
        "G70": 0.44,
    }
    for name, want in expected.items():
        eps = relative_error(
            PUBLISHED_CUTS[name]["gnn-dfl"], GSET_BEST_KNOWN[name]
        )
        assert round(eps * 100, 2) == want, name


def test_relative_error_senses_and_clamp():
    # beating the reference clamps to zero rather than going negative
    assert relative_error(110.0, 100.0) == 0.0
    assert relative_error(90.0, 100.0) == pytest.approx(0.1)
    assert relative_error(6.0, 5.0, maximize=False) == pytest.approx(0.2)
    assert relative_error(4.0, 5.0, maximize=False) == 0.0
    with pytest.raises(ValueError, match="positive"):
        relative_error(1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        relative_error(1.0, -2.0)


def test_reference_table_sane():
    assert all(v > 0 for v in GSET_BEST_KNOWN.values())
    assert PUBLISHED_CUTS["G70"]["run-csp"] is None
    assert set(PUBLISHED_CUTS) == set(GSET_BEST_KNOWN)


def test_suite_c4_oracle_and_dga(tmp_path):
    spec = SuiteSpec(
        problem=ProblemKind.MAXCUT,
        instances=(InstanceSpec("c4", path=_c4_file(tmp_path)),),
        methods=("oracle", "dga"),
    )
    report = run_suite(spec)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["objective"] == 4.0
        assert row["feasible"] is True
        assert row["epsilon"] is None
        assert (row["n"], row["m"]) == (4, 4)


def test_empty_suite_valid_metadata():
    report = run_suite(
        SuiteSpec(problem=ProblemKind.MAXCUT, instances=(), methods=("dga",))
    )
    assert report.rows == ()
    assert set(report.metadata) == {"config_digest", "timestamp", "tool_version"}
    assert emit_report(report, "csv") == (CSV_HEADER + "\n").encode()


def test_missing_instance_file_names_path():
    spec = SuiteSpec(
        problem=ProblemKind.MAXCUT,
        instances=(InstanceSpec("gone", path="/no/such/file.txt"),),
        methods=("dga",),
    )
    with pytest.raises(FileNotFoundError, match="/no/such/file.txt"):
        run_suite(spec)


def test_row_order_and_csv_shape(tmp_path):
    spec = SuiteSpec(
        problem=ProblemKind.MAXCUT,
        instances=(
            InstanceSpec("b", path=_c4_file(tmp_path, "b.txt")),
            InstanceSpec("a", path=_c4_file(tmp_path, "a.txt")),
        ),
        methods=("oracle", "dga"),
        seeds=(1, 0),
    )
    report = run_suite(spec)
    keys = [(r["instance"], r["method"], r["seed"]) for r in report.rows]
    assert keys == sorted(keys)
    assert keys[0] == ("a", "dga", 0)
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 8


def test_json_csv_row_equivalence(tmp_path):
    spec = SuiteSpec(
        problem=ProblemKind.MAXCUT,
        instances=(InstanceSpec("c4", path=_c4_file(tmp_path)),),
        methods=("oracle", "dga"),
    )
    report = run_suite(spec)
    doc = json.loads(emit_report(report, "json").decode())
    csv_lines = emit_report(report, "csv").decode().splitlines()[1:]
    assert len(doc["rows"]) == len(csv_lines)
    for row, line in zip(doc["rows"], csv_lines):
        cells = line.split(",")
        assert cells[0] == row["instance"]
        assert float(cells[4]) == row["objective"]
        assert cells[5] == ("true" if row["feasible"] else "false")
        assert cells[8] == ""  # no reference value for c4
    assert doc["metadata"]["tool_version"]


def test_reports_deterministic_for_same_config(tmp_path):
    spec = SuiteSpec(
        problem=ProblemKind.MIS,
        instances=(InstanceSpec("er", generator="erdos-renyi", n=10, p=0.4, seed=3),),
        methods=("dga", "dga+local-search", "oracle"),
        seeds=(0, 1),
    )
    r1, r2 = run_suite(spec), run_suite(spec)
    strip = lambda rows: [dict(r, runtime_ms=0.0) for r in rows]
    assert strip(r1.rows) == strip(r2.rows)
    assert r1.metadata["config_digest"] == r2.metadata["config_digest"]


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown method"):
        SuiteSpec(
            problem=ProblemKind.MAXCUT, instances=(), methods=("simulated-annealing",)
        )
    with pytest.raises(ValueError, match="unique"):
        SuiteSpec(
            problem=ProblemKind.MAXCUT,
            instances=(
                InstanceSpec("x", generator="erdos-renyi", n=4, p=0.5),
                InstanceSpec("x", generator="erdos-renyi", n=5, p=0.5),
            ),
            methods=("dga",),
        )
    with pytest.raises(ValueError, match="format"):
        emit_report(BenchReport(rows=(), metadata={}), "yaml")
    with pytest.raises(ValueError, match="generator"):
        InstanceSpec("bad").load()


@pytest.mark.parametrize(
    "key, value",
    [("n", 10.5), ("n", -1), ("n", True), ("d", 3.0), ("d", None),
     ("p", True), ("p", 1.5), ("p", -0.1), ("p", float("nan")), ("p", "0.5")],
)
def test_instance_sizes_are_checked_where_they_are_set(key, value):
    named = f"{key} .*got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=named):
        InstanceSpec("x", generator="erdos-renyi", **{key: value})
    # numpy scalars pass, as the generators take them
    InstanceSpec("x", generator="d-regular", n=np.int64(10), d=np.int32(3),
                 p=np.float64(0.5), seed=np.int64(2))


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None, np.float64(4.0)])
def test_every_seed_is_checked_where_it_is_set(seed):
    named = f"seed .*got {re.escape(repr(seed))}"
    with pytest.raises(ValueError, match=named):
        TrainConfig(seed=seed)
    with pytest.raises(ValueError, match=named):
        PipelineConfig(kind="mis", seed=seed)
    with pytest.raises(ValueError, match=named):
        SuiteSpec(problem="mis", instances=(), methods=("dga",), seeds=(0, seed))
    with pytest.raises(ValueError, match=named):
        InstanceSpec("x", generator="d-regular", n=10, d=3, seed=seed)


def test_suite_seeds_are_stored_as_python_ints():
    spec = SuiteSpec(problem="mis", instances=(), methods=("dga",), seeds=(np.int64(3), 0))
    assert spec.seeds == (3, 0)
    assert all(type(s) is int for s in spec.seeds)
    assert TrainConfig(seed=np.uint8(0)).seed == 0


def test_solver_methods_feasible_rows():
    spec = SuiteSpec(
        problem=ProblemKind.MIS,
        instances=(InstanceSpec("er", generator="erdos-renyi", n=10, p=0.4, seed=5),),
        methods=("gnn-solver", "dfl-pipeline"),
        observe_fraction=1.0,
        epochs=300,
    )
    for row in run_suite(spec).rows:
        assert row["feasible"] is True
        assert row["objective"] >= 1.0


def test_a_gnn_solver_row_is_one_pipeline_call_at_full_observation(monkeypatch):
    calls = []

    def spy(g, cfg):
        res = end_to_end_solve(g, cfg)
        calls.append((cfg, res))
        return res

    monkeypatch.setattr(cograd_bench, "end_to_end_solve", spy)
    spec = SuiteSpec(
        problem=ProblemKind.MVC,
        instances=(InstanceSpec("er", generator="erdos-renyi", n=12, p=0.3, seed=2),),
        methods=("gnn-solver", "dfl-pipeline"),
        seeds=(0, 1),
        penalty=3.0,
        polish=False,
        observe_fraction=0.75,
        epochs=30,
        lr=0.02,
        d0=8,
        d1=4,
    )
    rows = run_suite(spec).rows
    assert len(calls) == len(rows) == 4
    for row, (cfg, res) in zip(rows, calls):
        seed = row["seed"]
        frac = 1.0 if row["method"] == "gnn-solver" else 0.75
        assert cfg.observe_fraction == frac and cfg.seed == seed
        assert cfg.solver_cfg == TrainConfig(
            max_epochs=30, learning_rate=0.02, seed=seed, d0=8, d1=4
        )
        assert (cfg.kind, cfg.penalty, cfg.polish) == (ProblemKind.MVC, 3.0, False)
        assert row["objective"] == res.objective_true
        assert row["feasible"] == res.feasible_true
    assert [row["method"] for row in rows] == ["dfl-pipeline"] * 2 + ["gnn-solver"] * 2


def test_rows_run_in_order_in_the_calling_thread(tmp_path, monkeypatch):
    spec = SuiteSpec(
        problem=ProblemKind.MIS,
        instances=(
            InstanceSpec("er", generator="erdos-renyi", n=8, p=0.5, seed=1),
            InstanceSpec("c4", path=_c4_file(tmp_path)),
        ),
        methods=("oracle", "gnn-solver", "dga"),
        seeds=(2, 0, 1),
        epochs=50,
    )
    inner = cograd_bench._run_row
    calls = []

    def recording(spec, name, g, method, seed):
        calls.append((threading.get_ident(), (name, method, seed)))
        return inner(spec, name, g, method, seed)

    monkeypatch.setattr(cograd_bench, "_run_row", recording)
    first = run_suite(spec).rows
    second = run_suite(spec).rows
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    order = [task for _, task in calls]
    assert len(order) == 2 * 2 * 3 * 3
    assert order[:18] == sorted(order[:18]) == order[18:]
    assert order[:18] == [(r["instance"], r["method"], r["seed"]) for r in first]
    assert [dict(r, runtime_ms=0.0) for r in first] == [
        dict(r, runtime_ms=0.0) for r in second
    ]


def test_perfbench_harness_contract(tmp_path, monkeypatch):
    # perfbench reads the worker count and wraps _run_row of this module
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert workloads.cograd_bench is cograd_bench
    assert cograd_bench._worker_count() == 1
    st = workloads.SuiteSmall().setup(0, workloads.NULL, str(tmp_path))
    assert len(st.specs) == len(workloads.SuiteSmall.instances)
    # the benchmark's own checks and probe run against this tree: full
    # observation reduces to the solver, and its staged pipeline matches
    assert workloads.guard(0) == (True, True)
    g = generate_d_regular(20, 3, 0)
    timings = workloads.probe(g, build_qubo(ProblemKind.MAXCUT, g), 0, reps=1)
    assert all(np.isfinite(v) and v >= 0.0 for v in timings.values())


@pytest.mark.parametrize("settings", [
    {"epochs": 0},
    {"lr": float("nan")},
    {"d0": 0},
    {"penalty": 0.5},
    {"observe_fraction": 1.5},
])
def test_run_settings_are_checked_when_the_suite_is_built(monkeypatch, settings):
    """A bad setting fails in SuiteSpec, before any instance loads or any row
    runs, even when no listed method would use it."""
    loaded = []

    def load(self):
        loaded.append(self.name)
        return generate_d_regular(10, 3, 0)

    monkeypatch.setattr(InstanceSpec, "load", load)
    inst = InstanceSpec("a", generator="d-regular", n=10, d=3)
    with pytest.raises(ValueError):
        run_suite(SuiteSpec(ProblemKind.MIS, (inst,), ("dga", "gnn-solver"), **settings))
    assert loaded == []


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: TrainConfig(learning_rate=True),
                 "learning_rate must be positive", id="TrainConfig.learning_rate"),
    pytest.param(lambda: TrainConfig(tolerance=True),
                 "tolerance must be nonnegative", id="TrainConfig.tolerance"),
    pytest.param(lambda: PipelineConfig(kind="mis", lam=True),
                 "lambda coefficient must be", id="PipelineConfig.lam"),
    pytest.param(lambda: PipelineConfig(kind="mis", observe_fraction=True),
                 "observe_fraction must be", id="PipelineConfig.observe_fraction"),
    pytest.param(lambda: SuiteSpec("mis", (), ("dga",), lr=True),
                 "learning_rate must be positive", id="SuiteSpec.lr"),
    pytest.param(lambda: SuiteSpec("mis", (), ("dga",), observe_fraction=True),
                 "observe_fraction must be", id="SuiteSpec.observe_fraction"),
    pytest.param(lambda: InstanceSpec("a", generator="erdos-renyi", n=5, p=True),
                 "p must be a real", id="InstanceSpec.p"),
])
def test_a_bool_is_not_a_real_number(make, message):
    with pytest.raises(ValueError, match=f"{message}.*got True$"):
        make()


def test_real_settings_take_ints_and_numpy_numbers():
    assert TrainConfig(learning_rate=np.float32(0.5), tolerance=0).learning_rate == 0.5
    assert PipelineConfig(kind="mis", observe_fraction=np.float64(0.5), lam=2).lam == 2
    assert InstanceSpec("a", generator="erdos-renyi", n=5, p=np.float16(0.5)).p == 0.5


_SHORT = TrainConfig(max_epochs=20, patience=20)


def _pipeline_json(seed=0, lam=1.0, observe_fraction=0.8) -> dict:
    cfg = PipelineConfig(kind="mis", observe_fraction=observe_fraction, lam=lam,
                         predictor_cfg=_SHORT, solver_cfg=_SHORT, seed=seed)
    doc = json.loads(end_to_end_solve(generate_d_regular(20, 3, 0), cfg).to_json())
    del doc["runtime_ms"]
    return doc


def _suite_json(n=12, p=0.3, lr=0.01, epochs=10) -> tuple[str, str]:
    inst = InstanceSpec("a", generator="erdos-renyi", n=n, p=p)
    report = run_suite(SuiteSpec("mis", (inst,), ("gnn-solver",), lr=lr, epochs=epochs))
    rows = [{k: v for k, v in row.items() if k != "runtime_ms"} for row in report.rows]
    return report.metadata["config_digest"], json.dumps(rows)


@pytest.mark.parametrize("write, key, value", [
    pytest.param(_pipeline_json, "seed", np.int64(3), id="PipelineConfig.seed"),
    pytest.param(_pipeline_json, "lam", np.float32(0.3), id="PipelineConfig.lam"),
    pytest.param(_pipeline_json, "observe_fraction", np.float32(0.8),
                 id="PipelineConfig.observe_fraction"),
    pytest.param(_suite_json, "n", np.int64(12), id="InstanceSpec.n"),
    pytest.param(_suite_json, "p", np.float32(0.3), id="InstanceSpec.p"),
    pytest.param(_suite_json, "lr", np.float32(0.01), id="SuiteSpec.lr"),
    pytest.param(_suite_json, "epochs", np.int64(10), id="SuiteSpec.epochs"),
])
def test_numpy_settings_write_the_json_of_their_python_equals(write, key, value):
    """A result or report from a numpy-number setting is the one its
    ``x.item()`` gives, in JSON and in the config digest."""
    assert write(**{key: value}) == write(**{key: value.item()})

"""Command-line interface tests: subcommands, config files, exit codes."""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cograd

from cograd.bench import InstanceSpec, SuiteSpec, run_suite
from cograd.cli import main
from cograd.gnn import TrainConfig, project_and_repair, train
from cograd.graph import load_gset, parse_gset, write_gset, Graph
from cograd.qubo import ProblemKind, build_qubo


@pytest.fixture()
def ring6(tmp_path):
    path = tmp_path / "ring6.txt"
    assert main(["gen", "--n", "6", "--d", "3", "--seed", "1",
                 "--out", str(path)]) == 0
    return str(path)


def test_gen_produces_regular_graph(ring6):
    g = parse_gset(open(ring6).read())
    assert g.n == 6
    assert all(int(d) == 3 for d in g.degree)


def test_gen_missing_flag_is_usage_error(capsys):
    assert main(["gen", "--d", "3"]) == 1
    assert "--n" in capsys.readouterr().err


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_bad_problem_choice_is_usage_error():
    assert main(["solve", "--problem", "tsp", "--input", "x"]) == 1


def test_oracle_json_row(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(write_gset(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
    assert main(["oracle", "--problem", "maxcut", "--input", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["objective"] == 4.0
    assert row["method"] == "oracle"
    assert row["feasible"] is True
    assert row["assignment"] in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_solve_csv_schema(ring6, capsys):
    assert main(["solve", "--problem", "maxcut", "--input", ring6,
                 "--epochs", "300", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance,n,m,method,objective,feasible,runtime_ms,seed,epsilon"
    cells = lines[1].split(",")
    assert cells[0] == "ring6"
    assert cells[3] == "gnn-solver"
    assert cells[5] == "true"


def test_solve_missing_input_is_data_error(capsys):
    assert main(["solve", "--problem", "maxcut", "--input", "/missing.txt"]) == 2
    assert "missing.txt" in capsys.readouterr().err


def test_solve_divergence_exit_code(ring6, capsys):
    code = main(["solve", "--problem", "maxcut", "--input", ring6,
                 "--seed", "1", "--lr", "1e150", "--epochs", "50"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_dfl_json_schema(ring6, capsys):
    assert main(["dfl", "--problem", "mis", "--input", ring6,
                 "--observe", "1.0", "--lambda", "0.5",
                 "--epochs", "300"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "mis"
    assert doc["lambda"] == 0.5
    assert doc["observe_fraction"] == 1.0
    assert doc["feasible_true"] is True
    assert "combined_loss" in doc
    # full observation trains no predictor: nothing is reconstructed
    assert doc["l_obj"] == 0.0
    assert doc["combined_loss"] == doc["h_qubo"]


def test_dfl_full_observation_of_an_edgeless_graph(tmp_path, capsys):
    path = tmp_path / "empty5.txt"
    path.write_text("5 0\n")
    assert main(["solve", "--problem", "mis", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == 5.0
    assert main(["dfl", "--problem", "mis", "--input", str(path),
                 "--observe", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective_true"] == 5.0 and doc["l_obj"] == 0.0
    # a partial observation with no edge leaves nothing to learn from
    assert main(["dfl", "--problem", "mis", "--input", str(path)]) == 2
    assert "no edges" in capsys.readouterr().err


def test_lambda_is_a_dfl_flag_only(tmp_path, ring6):
    cfg = tmp_path / "suite.json"
    suite = {
        "problem": "maxcut",
        "instances": [{"name": "ring6", "path": ring6}],
        "methods": ["dga"],
    }
    cfg.write_text(json.dumps(suite))
    assert main(["bench", "--config", str(cfg), "--lambda", "0.5"]) == 1
    cfg.write_text(json.dumps(dict(suite, **{"lambda": 0.5})))
    assert main(["bench", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("entry", [{"seed": 1.5}, {"p": True}, {"n": 10.5}])
def test_bad_instance_entry_is_data_error_before_loading(
    tmp_path, ring6, capsys, monkeypatch, entry
):
    def no_loading(*args, **kwargs):
        raise AssertionError("an instance was loaded")

    monkeypatch.setattr("cograd.bench.InstanceSpec.load", no_loading)
    cfg = tmp_path / "suite.json"
    bad = {"name": "er", "generator": "erdos-renyi", "n": 10, "p": 0.3, **entry}
    cfg.write_text(json.dumps({
        "problem": "mis",
        "instances": [{"name": "ring6", "path": ring6}, bad],
        "methods": ["dga"],
    }))
    assert main(["bench", "--config", str(cfg)]) == 2
    (key, value), = entry.items()
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{key} " in err and repr(value) in err


def test_bench_with_config(tmp_path, ring6, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "problem": "maxcut",
        "instances": [{"name": "ring6", "path": ring6}],
        "methods": ["oracle", "dga"],
        "seeds": 2,
    }))
    assert main(["bench", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 4  # header + 2 methods x 2 seeds
    assert [l.split(",")[7] for l in lines[1:]] == ["0", "1", "0", "1"]


@pytest.mark.parametrize("seeds", [0, -2])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_bench_without_seeds_is_usage_error(tmp_path, ring6, capsys, seeds, via):
    cfg = tmp_path / "suite.json"
    suite = {
        "problem": "maxcut",
        "instances": [{"name": "ring6", "path": ring6}],
        "methods": ["dga"],
    }
    if via == "config":
        suite["seeds"] = seeds
    cfg.write_text(json.dumps(suite))
    flags = ["--seeds", str(seeds)] if via == "flag" else []
    assert main(["bench", "--config", str(cfg), *flags]) == 1
    out = capsys.readouterr()
    assert "--seeds" in out.err and out.out == ""


def test_config_file_supplies_required_flags(tmp_path, ring6, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(
        {"problem": "maxcut", "input": ring6, "epochs": 200}
    ))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "gnn-solver"


def test_cli_flag_overrides_config(tmp_path, ring6, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(
        {"problem": "maxcut", "input": ring6, "epochs": 200, "seed": 5}
    ))
    assert main(["solve", "--config", str(cfg), "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": "maxcut", "wibble": 1}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("polish", "false"),
        ("polish", 0),
        ("epochs", 30.9),
        ("epochs", True),
        ("epochs", "30"),
        ("seed", 1.5),
        ("d0", 4.5),
        ("lr", "0.1"),
        ("penalty", None),
        ("penalty", False),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, ring6, capsys,
                                                   key, value):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"problem": "mis", "input": ring6, key: value}))
    assert main(["solve", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key {key!r}" in captured.err


def test_config_numbers_take_the_flag_type(tmp_path, ring6, capsys):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"problem": "mis", "input": ring6, "epochs": 200.0,
                               "lr": 1, "polish": False}))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_weight_is_data_error(tmp_path, capsys, command, token):
    path = tmp_path / "g.txt"
    path.write_text(f"3 2\n1 2 1\n2 3 {token}\n")
    assert main([command, "--problem", "mis", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "finite" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", ["--problem", "maxcut", "--lr", "nan"]),
        ("solve", ["--problem", "mis", "--penalty", "nan"]),
        ("solve", ["--problem", "mvc", "--penalty", "inf"]),
        ("dfl", ["--problem", "mis", "--lr", "inf"]),
        ("dfl", ["--problem", "mvc", "--penalty", "nan"]),
        ("dfl", ["--problem", "maxcut", "--lambda", "nan"]),
        ("dfl", ["--problem", "mis", "--lambda", "inf"]),
        ("dfl", ["--problem", "mvc", "--lambda", "nan", "--format", "csv"]),
    ],
)
def test_non_finite_setting_is_data_error_before_training(
    ring6, capsys, monkeypatch, command, flags
):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("cograd.pipeline.train_predictor", no_training)
    monkeypatch.setattr("cograd.pipeline.train", no_training)
    assert main([command, "--input", ring6, *flags]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "finite" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_maxcut_ignores_a_non_finite_penalty(ring6, capsys, token):
    # MaxCut has no constraints, so its penalty is never read
    rows = []
    for flags in ([], ["--penalty", token]):
        argv = ["solve", "--problem", "maxcut", "--input", ring6, "--epochs", "50"]
        assert main([*argv, *flags, "--format", "json"]) == 0
        rows.append(dict(json.loads(capsys.readouterr().out), runtime_ms=0.0))
    assert rows[0] == rows[1]


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["solve", "--config", str(cfg)]) == 1


def test_solve_directory_input_is_data_error(tmp_path, capsys):
    assert main(["solve", "--problem", "maxcut", "--input", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(tmp_path) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_data_error(tmp_path, ring6, capsys, target):
    out = tmp_path if target == "directory" else tmp_path / "no" / "g.txt"
    for argv in (["gen", "--n", "6", "--d", "3"],
                 ["oracle", "--problem", "mis", "--input", ring6]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write output file") and str(out) in err
        assert len(err.strip().splitlines()) == 1


def test_config_directory_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read config file") and str(tmp_path) in err
    assert len(err.strip().splitlines()) == 1


def _solve_damaged_gzip(tmp_path, ring6, capsys, damage):
    packed = bytearray(gzip.compress(open(ring6, "rb").read()))
    damage(packed)
    path = tmp_path / "ring6.txt.gz"
    path.write_bytes(bytes(packed))
    assert main(["solve", "--problem", "mis", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read instance file") and str(path) in err
    assert len(err.strip().splitlines()) == 1


def test_truncated_gzip_input_is_data_error(tmp_path, ring6, capsys):
    def cut(packed):
        del packed[len(packed) // 2:]

    _solve_damaged_gzip(tmp_path, ring6, capsys, cut)


def test_corrupt_gzip_input_is_data_error(tmp_path, ring6, capsys):
    def flip(packed):
        packed[20:30] = bytes(b ^ 0xFF for b in packed[20:30])

    _solve_damaged_gzip(tmp_path, ring6, capsys, flip)


def test_python_dash_m_runs_the_cli(tmp_path):
    # the source tree this test imported cograd from, not an installed copy
    src = Path(cograd.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "g.txt"
    done = subprocess.run(
        [sys.executable, "-m", "cograd", "gen", "--n", "6", "--d", "3",
         "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert parse_gset(out.read_text()).n == 6
    bad = subprocess.run([sys.executable, "-m", "cograd"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 1


@pytest.mark.parametrize("command", ["solve", "dfl", "oracle"])
@pytest.mark.parametrize("key", ["format", "problem"])
def test_config_value_outside_choices_is_usage_error(tmp_path, ring6, capsys,
                                                     command, key):
    doc = {"problem": "maxcut", "input": ring6, "format": "json"}
    doc[key] = "xml"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'xml'" in captured.err and key in captured.err


def test_out_flag_writes_file(tmp_path, ring6):
    out = tmp_path / "row.json"
    assert main(["oracle", "--problem", "mis", "--input", ring6,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "oracle"


def test_solve_row_matches_suite_row(tmp_path, capsys):
    # G14 has a best-known value, so epsilon is compared as a number
    path = tmp_path / "G14.txt"
    assert main(["gen", "--n", "30", "--d", "3", "--seed", "4",
                 "--out", str(path)]) == 0
    assert main(["solve", "--problem", "mis", "--input", str(path),
                 "--seed", "2", "--epochs", "300", "--format", "json"]) == 0
    cli_row = json.loads(capsys.readouterr().out)
    spec = SuiteSpec(
        problem=ProblemKind.MIS,
        instances=(InstanceSpec("G14", generator="d-regular", n=30, d=3, seed=4),),
        methods=("gnn-solver",),
        seeds=(2,),
        epochs=300,
    )
    (row,) = run_suite(spec).rows
    assert row["epsilon"] is not None
    for key in ("objective", "feasible", "n", "m", "seed", "epsilon"):
        assert cli_row[key] == row[key], key


def test_config_embedding_dims_reach_solver(tmp_path, capsys):
    path = tmp_path / "reg12.txt"
    assert main(["gen", "--n", "12", "--d", "3", "--seed", "2",
                 "--out", str(path)]) == 0
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "problem": "maxcut", "input": str(path), "epochs": 200, "seed": 3,
        "d0": 16, "d1": 8,
    }))
    assert main(["solve", "--config", str(cfg)]) == 0
    got = json.loads(capsys.readouterr().out)["assignment"]
    g = load_gset(path)
    q = build_qubo(ProblemKind.MAXCUT, g)

    def solve(**dims):
        soft, _ = train(g, q, TrainConfig(max_epochs=200, seed=3, **dims))
        return [int(b) for b in project_and_repair(ProblemKind.MAXCUT, g, soft, polish=True)]

    assert got == solve(d0=16, d1=8)
    assert got != solve()  # the default widths decide differently here


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--epochs", "0"]),
    ("solve", ["--lr", "nan"]),
    ("solve", ["--penalty", "0.5"]),
    ("dfl", ["--observe", "1.5"]),
    ("bench", ["--epochs", "0"]),
    ("bench", ["--observe", "1.5"]),
])
def test_bad_run_settings_fail_before_any_instance_loads(
    tmp_path, ring6, capsys, monkeypatch, command, flags
):
    def no_loading(*args, **kwargs):
        raise AssertionError("an instance was loaded")

    monkeypatch.setattr("cograd.bench.InstanceSpec.load", no_loading)
    if command == "bench":
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({
            "problem": "mis",
            "instances": [{"name": "ring6", "path": ring6}],
            "methods": ["dga", "gnn-solver"],
        }))
        argv = ["bench", "--config", str(cfg)]
    else:
        argv = [command, "--problem", "mis", "--input", ring6]
    assert main([*argv, *flags]) == 2
    assert capsys.readouterr().err.startswith("data error:")

"""Solving needs numpy and scipy's compiled CSR kernel, not the
``scipy.sparse`` or ``scipy.special`` packages: a fresh interpreter that
runs the CLI, the pipeline and a suite never imports them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cograd

_SOLVE_PREDICT_AND_BENCH = r"""
import json, sys
from cograd import _sparse
from cograd.bench import InstanceSpec, SuiteSpec, run_suite
from cograd.cli import main
from cograd.gnn import TrainConfig
from cograd.graph import generate_d_regular, write_gset
from cograd.pipeline import PipelineConfig, end_to_end_solve

path = sys.argv[1]
with open(path, "w") as f:
    f.write(write_gset(generate_d_regular(40, 3, seed=1)))
code = main(["solve", "--problem", "mis", "--input", path, "--epochs", "50",
             "--out", path + ".json"])
assert code == 0, code
short = TrainConfig(max_epochs=50)
res = end_to_end_solve(generate_d_regular(60, 3, seed=2), PipelineConfig(
    kind="mvc", observe_fraction=0.8, predictor_cfg=short, solver_cfg=short))
assert res.feasible_true
spec = SuiteSpec(
    problem="maxcut",
    instances=(InstanceSpec("reg30", generator="d-regular", n=30, d=3, seed=3),),
    methods=("gnn-solver", "dga+local-search"),
    epochs=50,
)
assert len(run_suite(spec).rows) == 2
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "kernel": _sparse._sparsetools.__name__,
}))
"""


def test_solving_imports_neither_scipy_sparse_nor_special(tmp_path):
    # the source tree this test imported cograd from, not an installed copy
    src = Path(cograd.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _SOLVE_PREDICT_AND_BENCH, str(tmp_path / "g.txt")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    for package in ("scipy.sparse", "scipy.special"):
        assert not [m for m in seen["scipy"] if m.startswith(package)], seen["scipy"]
    # the kernel came from its file, not through the scipy.sparse import
    assert seen["kernel"] == "_sparsetools"
    assert json.loads((tmp_path / "g.txt.json").read_text())["feasible"] is True

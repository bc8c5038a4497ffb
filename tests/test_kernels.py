"""Decisions do not depend on the machine's numpy and BLAS kernels.

A fixed set of decisions runs in child processes under three settings:
the default, numpy's AVX-512 loops switched off through
``NPY_DISABLE_CPU_FEATURES``, and OpenBLAS's Haswell kernels forced through
``OPENBLAS_CORETYPE``. Each setting is read once, at start-up, by its own
process only. p's last bits may differ between them; the decisions, epoch
counts and stop reasons may not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cograd import gnn

SRC = Path(__file__).resolve().parent.parent / "src"

# each problem on 3-regular graphs at a fixed budget, repaired and polished,
# and dfl-partial's MIS shape; then the kernels the child ran on
CHILD = """
import ctypes, hashlib, json, os
import numpy as np
from cograd import (PipelineConfig, ProblemKind, TrainConfig, build_qubo,
                    end_to_end_solve, generate_d_regular, project_and_repair, train)

def sha1(x):
    return hashlib.sha1(np.asarray(x, dtype=np.int64).tobytes()).hexdigest()

def budget(epochs):
    return TrainConfig(max_epochs=epochs, patience=epochs, seed=0)

out = {}
for n in (100, 800):
    g = generate_d_regular(n, 3, 0)
    for kind in ProblemKind:
        soft, trace = train(g, build_qubo(kind, g), budget(200))
        x = project_and_repair(kind, g, soft, polish=True)
        out[f"reg-{n}/{kind.value}"] = [sha1(x), len(trace), trace.stop_reason]
cfg = PipelineConfig(kind="mis", observe_fraction=0.8, seed=0,
                     predictor_cfg=budget(800), solver_cfg=budget(150))
g = generate_d_regular(800, 3, 0)
out["dfl-partial/mis"] = [sha1(end_to_end_solve(g, cfg).assignment)]
core = (getattr(np, "_core", None) or np.core)._multiarray_umath
lib = ctypes.CDLL(core.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
names = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
         "openblas_get_corename")
corename = next(getattr(lib, name) for name in names if hasattr(lib, name))
corename.restype, corename.argtypes = ctypes.c_char_p, ()
kernels = {"numpy": core.__cpu_features__, "openblas": corename().decode()}
print(json.dumps({"decisions": out, "kernels": kernels}))
"""


def _avx512_targets() -> list[str]:
    """The AVX-512 targets numpy dispatches to that this CPU has."""
    core = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [
        t
        for t in core.__cpu_dispatch__
        if (t == "X86_V4" or "AVX512" in t) and core.__cpu_features__.get(t)
    ]


def _run(**env) -> dict:
    environ = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    environ.pop("NPY_DISABLE_CPU_FEATURES", None)
    environ.pop("OPENBLAS_CORETYPE", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**environ, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_decisions_do_not_depend_on_the_kernels():
    if gnn._openblas() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS: no BLAS kernel to switch")
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU: nothing to switch off")
    default = _run()
    no_avx512 = _run(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    haswell = _run(OPENBLAS_CORETYPE="Haswell")
    # each setting took effect in its own process only
    assert all(default["kernels"]["numpy"][t] for t in targets)
    assert not any(no_avx512["kernels"]["numpy"][t] for t in targets)
    assert haswell["kernels"]["openblas"] == "Haswell"
    assert no_avx512["decisions"] == default["decisions"]
    assert haswell["decisions"] == default["decisions"]

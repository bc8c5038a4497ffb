"""Smoke test of scripts/stage_probe.py on one small run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "stage_probe", Path(__file__).resolve().parent.parent / "scripts" / "stage_probe.py"
)
stage_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_probe)

STAGES = [
    "graph.sample",
    "linkpred.train",
    "linkpred.predict",
    "pipeline.soft_graph",
    "qubo.build",
    "linkpred.bce",
    "gnn.train",
    "gnn.repair",
    "baselines.polish",
]


def test_stage_probe_prints_one_record_per_n(capsys):
    assert stage_probe.main(["200", "--problem", "mis", "--predictor-epochs", "3",
                             "--solver-epochs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["n"] == 200
    assert list(record["stages_ms"]) == STAGES
    assert all(ms >= 0.0 for ms in record["stages_ms"].values())
    assert abs(record["total_ms"] - sum(record["stages_ms"].values())) < 0.1
    assert record["peak_rss_mb"] > 0.0

#!/usr/bin/env python3
"""Time each stage of a partial-observation pipeline run at one or more n.

Usage:
    python3 scripts/stage_probe.py 2000 8000 [--problem maxcut] \\
        [--predictor-epochs 20] [--solver-epochs 20] [--seed 0]

For each n, a 3-regular graph on n nodes with 80 % of its nodes observed
runs through perfbench's ``compose``, the benchmark's stage-by-stage copy
of ``end_to_end_solve``, with a ``Tracer`` timing each public call. The
epoch budgets are fixed (patience equals the budget). Each n prints one
JSON line: ``n``, ``stages_ms`` keyed by span name in run order, their sum
``total_ms``, and ``peak_rss_mb``, the process's peak resident set so far,
which covers every smaller n run before it. The script imports cograd from
the ``src`` and the benchmark from the ``perfbench`` of the checkout it
sits in.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cograd import PipelineConfig, ProblemKind, generate_d_regular  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import compose, fixed_budget  # noqa: E402

OBSERVE = 0.8


def probe(n: int, kind: ProblemKind, predictor_epochs: int, solver_epochs: int,
          seed: int) -> dict:
    """Stage times of one run on a 3-regular n-node graph; see the module
    docstring for the record."""
    g = generate_d_regular(n, 3, seed)
    cfg = PipelineConfig(
        kind=kind,
        observe_fraction=OBSERVE,
        predictor_cfg=fixed_budget(predictor_epochs, seed),
        solver_cfg=fixed_budget(solver_epochs, seed),
        seed=seed,
    )
    tr = Tracer()
    compose(g, cfg, tr)
    stages = {s["name"]: round((s["end"] - s["start"]) * 1000.0, 2) for s in tr.spans}
    return {
        "n": n,
        "stages_ms": stages,
        "total_ms": round(sum(stages.values()), 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, nargs="+", help="graph sizes, run in turn")
    ap.add_argument("--problem", default="maxcut", choices=[k.value for k in ProblemKind])
    ap.add_argument("--predictor-epochs", type=int, default=20)
    ap.add_argument("--solver-epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for n in args.n:
        record = probe(n, ProblemKind(args.problem), args.predictor_epochs,
                       args.solver_epochs, args.seed)
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one workload, one seed.

Prints ``ready`` once cograd is imported and the workload's instances exist,
so the parent can time set-up. Then, unless ``--setup-only``, it runs the
untimed guard, the timed rounds and the checks, and prints one JSON object
as its last line. ``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cograd  # noqa: E402
import cograd.bench as cograd_bench  # noqa: E402
from spans import Tracer, layer_self_ms, mean_call_ms  # noqa: E402
from workloads import (  # noqa: E402
    NULL,
    WORKLOADS,
    Refused,
    check,
    count_failed,
    guard,
    probe,
    quality,
)


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(seconds: float, work, min_rounds: int):
    """Run ``work`` at least ``min_rounds`` times, then until one more
    round (at the median round time) would pass ``seconds``.

    Returns per-round wall seconds, CPU seconds of the whole process (all
    threads) and results.
    """
    walls, cpus, outs = [], [], []
    start = time.perf_counter()
    while True:
        c0, t0 = _cpu_s(), time.perf_counter()
        outs.append(work())
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        cpus.append(_cpu_s() - c0)
        if len(walls) >= min_rounds and t1 - start + median(walls) > seconds:
            return walls, cpus, outs


def measure(wl, st, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    exact, _ = guard(seed)  # also lets lazy imports and caches settle
    walls, cpus, rounds = repeat(seconds, lambda: wl.run(st), min_rounds=2)
    rss = _peak_rss_mb()
    wl.verify(st, rounds[0], NULL)
    good = [quality(d) for d in rounds[0] if d.gcn and check(d)]
    return {
        "attempted": sum(len(r) for r in rounds),
        "failed": count_failed(rounds),
        "reduction_exact": exact,
        "round_wall_s": walls,
        "metrics": {
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "peak_rss_mb": rss,
            "quality": mean(good) if good else 0.0,
        },
    }


def measure_traced(wl, st, seed: int, seconds: float, tr: Tracer) -> dict:
    """Traced run: pairs of one untraced and one traced round, then the
    per-layer metrics from the first traced round (run id ``round-1``)."""
    exact, guard_match = guard(seed)
    untraced, traced, walls = [], [], {"untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(wl.run(st))
        t1 = time.perf_counter()
        tr.run = f"round-{len(traced) + 1}"
        with tr.span("round"):
            traced.append(wl.run_traced(st, tr))
        t2 = time.perf_counter()
        walls["untraced"].append(t1 - t0)
        walls["traced"].append(t2 - t1)
        if t2 - start + (t2 - t0) > seconds:
            break
    tr.run = "round-1"
    with tr.span("verify"):
        wl.verify(st, traced[0], tr)
    target = wl.probe_target(st)
    probes = probe(*target, seed) if target is not None else {}

    first, plain = traced[0][0], untraced[0][0]
    workload_match = wl.name != "dfl-partial" or (
        first.x is not None and plain.x is not None and np.array_equal(first.x, plain.x)
    )
    overhead = median(walls["traced"]) - median(walls["untraced"])
    metrics = layer_metrics(tr, traced[0], probes)
    metrics.update(
        {
            "pipeline.trace_match": float(guard_match and workload_match),
            "pipeline.reduction_exact": float(exact),
            "trace.overhead_s": overhead,
        }
    )
    rounds = traced + untraced  # traced first: its rows carry re-solved assignments
    return {
        "attempted": sum(len(r) for r in rounds),
        "failed": count_failed(rounds),
        "reduction_exact": exact,
        "trace_match": guard_match and workload_match,
        "round_wall_s": walls,
        "metrics": metrics,
    }


def layer_metrics(tr: Tracer, decisions, probes: dict) -> dict:
    spans = tr.of_run("round-1")

    def count(name):
        vals = [v for run, v in tr.counts[name] if run == "round-1"]
        return mean(vals) if vals else 0.0

    def total_ms(name):
        return sum((s["end"] - s["start"]) * 1000.0 for s in spans if s["name"] == name)

    epochs = sum(v for run, v in tr.counts["gnn.epochs"] if run == "round-1")
    suites = [s for s in spans if s["name"] == "bench.run_suite"]
    rows = [s for s in spans if s["name"] == "bench.row"]
    row_ms = [d.row["runtime_ms"] for d in decisions if d.row is not None]
    suite_s = sum(s["end"] - s["start"] for s in suites)
    m = dict(probes)
    m.update(
        {
            "graph.generate_ms": sum(
                (s["end"] - s["start"]) * 1000.0
                for s in tr.of_run("setup")
                if s["name"] == "graph.generate"
            ),
            "graph.sample_ms": mean_call_ms(spans, "graph.sample"),
            "qubo.build_ms": mean_call_ms(spans, "qubo.build"),
            "qubo.nnz": count("qubo.nnz"),
            "gnn.train_ms": mean_call_ms(spans, "gnn.train"),
            "gnn.epochs": count("gnn.epochs"),
            "gnn.epoch_ms": total_ms("gnn.train") / epochs if epochs else 0.0,
            "gnn.early_stop_frac": count("gnn.early_stop"),
            "gnn.repair_ms": mean_call_ms(spans, "gnn.repair"),
            "baselines.polish_ms": mean_call_ms(spans, "baselines.polish"),
            "baselines.flips": count("baselines.flips"),
            "baselines.dga_ms": mean_call_ms(spans, "baselines.dga"),
            "linkpred.train_ms": mean_call_ms(spans, "linkpred.train"),
            "linkpred.predict_ms": mean_call_ms(spans, "linkpred.predict"),
            "linkpred.bce_ms": mean_call_ms(spans, "linkpred.bce"),
            "pipeline.soft_graph_ms": mean_call_ms(spans, "pipeline.soft_graph"),
            "pipeline.m_pred": count("pipeline.m_pred"),
            "pipeline.pred_density": count("pipeline.pred_density"),
            "pipeline.pred_precision": count("pipeline.pred_precision"),
            "bench.workers": float(
                max(
                    (len({r["thread"] for r in rows if r["parent"] == s["id"]}) for s in suites),
                    default=0,
                )
            ),
            "bench.rows": float(len(row_ms)),
            "bench.row_ms.p50": median(row_ms) if row_ms else 0.0,
            "bench.overlap": sum(row_ms) / 1000.0 / suite_s if suite_s else 0.0,
        }
    )
    m.update({f"{layer}.self_ms": ms for layer, ms in layer_self_ms(spans).items()})
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cograd": cograd.__version__,
        "pool_workers": cograd_bench._worker_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if ROOT / "src" not in Path(cograd.__file__).resolve().parents:
        print(f"cograd was imported from {cograd.__file__}, not from this source tree",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tr = Tracer() if args.trace else NULL
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            st = wl.setup(args.seed, tr, tmp)
        except Refused as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(wl, st, args.seed, args.seconds, tr)
        else:
            result = measure(wl, st, args.seed, args.seconds)
    result["env"] = environment()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write(spans_path, {
            "workload": args.workload,
            "seed": args.seed,
            "stale": not result["trace_match"],
            "env": result["env"],
        })
        result["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

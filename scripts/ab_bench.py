#!/usr/bin/env python3
"""A/B the benchmark between two commits and write a BENCH_<n>.json file.

Usage:
    python3 scripts/ab_bench.py PARENT CHANGE --out BENCH_11.json \\
        --seeds 501-510 [--workload solve-large ...] [--claim TEXT] [--workdir DIR]

For every workload and seed, each commit is run once from a fresh
``git archive`` of it, with PYTHONDONTWRITEBYTECODE=1, through

    python3 perfbench/run.py --workload <w> --seed <s> --trace 0

The parent runs first on odd seeds and the change on even ones. The output
records every run's end-to-end metrics (as declared in the change's
BENCHMARK.json), their medians and quartiles, the pairs in which the change
is better or tied, failed and attempted decisions, exit codes and the
machine. A gain is shown when the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the parent's
interquartile range.

It also runs the change's ``scripts/decisions.py`` in a fresh archive of
each commit and records, under ``decisions``, how many cases there are,
how many print the same SHA-1 on both sides, and the names of those that
differ. Run it from the root of a git checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"501-505,511"`` -> [501, 502, 503, 504, 505, 511].

    Raises ValueError on an empty part, a reversed range or a seed named
    twice, which would run no seed or pair one seed's runs with another's.
    """
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise ValueError(f"seed range {part!r} is empty")
        seeds += span
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"a seed appears twice in {text!r}")
    return seeds


def _stats(values: list[float]) -> dict:
    qs = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {
        "median": round(median(values), 4),
        "quartiles": [round(q, 4) for q in qs],
        "runs": [round(v, 4) for v in values],
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload summary of paired runs.

    ``runs`` holds one record per (workload, seed, side), ``side`` being
    ``"parent"`` or ``"change"``: ``{"workload", "seed", "side",
    "exit_code", "result"}``, where ``result`` is perfbench's last output
    line (``{"attempted", "failed", "metrics": {name: {"value"}}}``) or None
    when it printed none. ``end_to_end`` is BENCHMARK.json's list of
    ``{"name", "better", "bound"}``. A seed counts as a pair only when both
    sides gave a result.
    """
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        seeds = sorted(by_seed)
        sides = ("parent", "change")
        paired = [
            s for s in seeds
            if all(by_seed[s].get(side, {}).get("result") for side in sides)
        ]
        entry = {
            "seeds": seeds,
            "pairs": len(paired),
            "failed": {}, "attempted": {}, "exit_codes": {}, "metrics": {},
        }
        for side in sides:
            recs = [by_seed[s][side] for s in seeds if side in by_seed[s]]
            results = [r["result"] for r in recs if r["result"]]
            entry["failed"][side] = sum(res["failed"] for res in results)
            entry["attempted"][side] = sum(res["attempted"] for res in results)
            entry["exit_codes"][side] = [r["exit_code"] for r in recs]
        for m in end_to_end if paired else ():
            name, lower = m["name"], m["better"] == "lower"
            vals = {
                side: [by_seed[s][side]["result"]["metrics"][name]["value"] for s in paired]
                for side in sides
            }
            better = sum(
                (c < p) if lower else (c > p)
                for p, c in zip(vals["parent"], vals["change"])
            )
            tied = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
            parent, change = _stats(vals["parent"]), _stats(vals["change"])
            gap = parent["median"] - change["median"]
            gap = gap if lower else -gap
            iqr = parent["quartiles"][2] - parent["quartiles"][0]
            entry["metrics"][name] = {
                "better": m["better"],
                "bound": m["bound"],
                "parent": parent,
                "change": change,
                "change_better_pairs": better,
                "tied_pairs": tied,
                "median_change_rel": (
                    round(change["median"] / parent["median"] - 1.0, 4)
                    if parent["median"] else None
                ),
                "gain_shown": better >= 0.9 * len(paired) and gap > iqr,
            }
        out[w] = entry
    return out


# the environment variables that size the BLAS pool of the benchmark's runs
_POOL_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def machine() -> dict:
    info = {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    info.update({name: os.environ.get(name) for name in _POOL_ENV})
    try:
        import numpy as np
        import scipy

        info["numpy"], info["scipy"] = np.__version__, scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (ImportError, KeyError):
        pass
    return info


def _archive(commit: str, dest: Path) -> None:
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def _run_archived(
    commit: str, workdir: Path, argv: list[str], files: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """``python3 *argv`` in a fresh archive of ``commit``, with
    PYTHONDONTWRITEBYTECODE=1, after writing each of ``files`` (path
    relative to the tree: text) into it; the tree is removed after."""
    tree = Path(tempfile.mkdtemp(prefix="ab-", dir=workdir))
    try:
        _archive(commit, tree)
        for rel, text in (files or {}).items():
            (tree / rel).write_text(text)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            ["python3", *argv], cwd=tree, env=env, capture_output=True, text=True
        )
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def run_one(commit: str, workload: str, seed: int, workdir: Path) -> dict:
    """One perfbench run of ``commit`` from a fresh archive, then removed."""
    proc = _run_archived(
        commit, workdir,
        ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit_code": proc.returncode, "result": result}


def compare_decisions(parent: str, change: str) -> dict:
    """The ``decisions`` record of two outputs of ``scripts/decisions.py``.

    Each output holds ``case sha1`` lines; blank lines and lines starting
    with ``#`` are skipped. A case counts as identical when both outputs
    print it with the same SHA-1, and differs otherwise, a case printed on
    one side only included. ``differ`` lists the differing cases in the
    change's print order, then the parent's.
    """

    def digests(text: str) -> dict[str, str]:
        lines = (line.strip() for line in text.splitlines())
        return dict(
            line.rpartition(" ")[::2] for line in lines if line and not line.startswith("#")
        )

    p, c = digests(parent), digests(change)
    names = list(dict.fromkeys([*c, *p]))
    differ = [name for name in names if p.get(name) != c.get(name)]
    return {"cases": len(names), "identical": len(names) - len(differ), "differ": differ}


def run_decisions(rev: dict[str, str], workdir: Path) -> dict:
    """The change's ``scripts/decisions.py`` run in a fresh archive of each
    commit, compared by :func:`compare_decisions`."""
    script = subprocess.run(
        ["git", "-C", str(ROOT), "show", f"{rev['change']}:scripts/decisions.py"],
        check=True, capture_output=True, text=True,
    ).stdout
    procs = {
        side: _run_archived(
            rev[side], workdir, ["scripts/decisions.py"], {"scripts/decisions.py": script}
        )
        for side in ("parent", "change")
    }
    for side, proc in procs.items():
        print(f"decisions {side}: exit {proc.returncode}", file=sys.stderr, flush=True)
    return {
        "method": (
            "the change's scripts/decisions.py, run in a fresh git archive of each "
            "commit with PYTHONDONTWRITEBYTECODE=1; cases compared by name"
        ),
        **compare_decisions(procs["parent"].stdout, procs["change"].stdout),
        "exit_codes": {side: proc.returncode for side, proc in procs.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 501-510")
    ap.add_argument("--workload", action="append", help="default: every declared one")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--claim", default="")
    ap.add_argument("--workdir", type=Path, help="where archives are unpacked")
    args = ap.parse_args(argv)

    rev = {
        side: subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", commit + "^{commit}"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        for side, commit in (("parent", args.parent), ("change", args.change))
    }
    spec = json.loads(subprocess.run(
        ["git", "-C", str(ROOT), "show", f"{rev['change']}:BENCHMARK.json"],
        check=True, capture_output=True, text=True,
    ).stdout)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    workdir = args.workdir or Path(tempfile.gettempdir())
    workdir.mkdir(parents=True, exist_ok=True)

    runs = []
    for w in workloads:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                rec = run_one(rev[side], w, seed, workdir)
                runs.append(dict(rec, workload=w, seed=seed, side=side))
                res = rec["result"] or {}
                wall = res.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{w} seed {seed} {side}: exit {rec['exit_code']} wall_s {wall}",
                      file=sys.stderr, flush=True)

    report = {
        "benchmark": "python3 perfbench/run.py --workload <w> --seed <s> --trace 0",
        "claim": args.claim,
        "parent_commit": rev["parent"],
        "change_commit": rev["change"],
        "machine": machine(),
        "method": (
            "one parent run and one change run per seed and workload, each from a "
            "fresh git archive of its commit with PYTHONDONTWRITEBYTECODE=1, the "
            "parent first on odd seeds; medians and quartiles (statistics.quantiles, "
            "n=4, inclusive) over the seeds with both results; runs in seed order. "
            "gain_shown: the change is better in >= 9/10 of the pairs and its median "
            "beats the parent's by more than the parent's interquartile range"
        ),
        "workloads": summarize(runs, spec["end_to_end"]),
        "decisions": run_decisions(rev, workdir),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

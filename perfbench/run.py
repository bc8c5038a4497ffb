"""cograd benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a source tree; cograd is imported from its ``src``.
Workloads and metrics are declared in BENCHMARK.json and explained in
perfbench/README.md. Every metric is printed with its unit; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones and a span file under perfbench/out/.

Exit codes: 0 all checks passed; 1 a check failed (the result is still
printed); 2 the benchmark could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve-large", "suite-small", "dfl-partial")
SETUP_SAMPLES = 5  # set-up is short and noisy: report the median of several
DEADLINE_S = 170.0  # the whole command, set-up samples included


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _read_line(proc: subprocess.Popen, deadline: float) -> bytes | None:
    """One line from the child's unbuffered stdout, byte by byte, so that
    nothing after it is consumed before communicate()."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                return None
            ch = os.read(fd, 1)
            if not ch:
                return None
            buf += ch
    return buf.strip()


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _start(argv: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time: from process start
    until it has imported cograd and generated its instances."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        bufsize=0,
        cwd=ROOT,
        env=env,
    )
    line = _read_line(proc, deadline)
    setup_s = time.perf_counter() - t0
    if line != b"ready":
        _stop(proc)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen, deadline: float) -> dict | None:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def git_commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Set-up samples in short-lived workers, then one worker that measures."""
    env = dict(os.environ)
    # suite-small measures the bench pool at its default size
    env.pop("GDFL_THREADS", None)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = _start(argv + ["--setup-only"], env, deadline)
            _finish(proc, deadline)
            setups.append(setup_s)
    proc, setup_s = _start(argv + ["--trace", str(trace)], env, deadline)
    setups.append(setup_s)
    result = _finish(proc, deadline)
    if result is None:
        raise BenchError("worker printed no result")
    if not trace:
        result["metrics"]["setup_s"] = median(setups)
        result["setup_samples_s"] = setups
    result["env"].update(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "GDFL_THREADS": os.environ.get("GDFL_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": git_commit(),
        }
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cograd" / "__init__.py").is_file():
        print(f"no cograd source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        try:
            res = run_workload(name, args.seed, seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
        ok = res["failed"] == 0 and res["reduction_exact"] and not missing
        correct &= ok
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for m in declared:
            value = float(res["metrics"].get(m["name"], 0.0))
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{name:12} {m['name']:26} {value:<14.6g} {m['unit']}")
        print(f"{name:12} {'fail_frac':26} {res['failed'] / res['attempted']:<14.6g} ratio"
              f"  ({res['failed']} of {res['attempted']} decisions)")
        print(f"{name:12} {'reduction_exact':26} {int(res['reduction_exact'])}")
        if args.trace:
            stale = "" if res["trace_match"] else "  (trace is stale)"
            print(f"{name:12} spans written to {res['spans']}{stale}")
        if missing:
            print(f"{name:12} not measured: {', '.join(missing)}")
        print(f"{name:12} env {json.dumps(res['env'], sort_keys=True)}")
        OUT.mkdir(exist_ok=True)
        record = dict(res, workload=name, seed=args.seed, seconds=seconds, trace=args.trace)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: gen (d-regular generation), solve (GCN solver on one
instance), dfl (end-to-end predict-then-optimize), oracle (brute force),
bench (suite runner). solve and oracle print the row of the matching
bench method on one instance file, plus its assignment in JSON. dfl prints
that row in CSV; in JSON it prints the pipeline result
(``PipelineResult.to_json``), which has no instance, method, epsilon or
assignment. A JSON config file can supply any long flag by name ("lambda",
"observe", "polish", ...); explicit flags win over the file.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    BenchReport,
    InstanceSpec,
    SuiteSpec,
    _pipeline_cfg,
    _run_row,
    emit_report,
    run_suite,
)
from .gnn import TrainingDivergedError
from .graph import generate_d_regular, write_gset
from .pipeline import end_to_end_solve
from .qubo import ProblemKind

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


# subcommand -> the bench method it runs on one instance
_METHODS = {"solve": "gnn-solver", "dfl": "dfl-pipeline", "oracle": "oracle"}

# argparse dest -> (SuiteSpec field, conversion) for the run settings
_SPEC_FIELDS = {
    "penalty": ("penalty", float),
    "polish": ("polish", bool),
    "observe": ("observe_fraction", float),
    "epochs": ("epochs", int),
    "lr": ("lr", float),
    "d0": ("d0", int),
    "d1": ("d1", int),
}


def _fits(value, kind: type) -> bool:
    """Whether a config-file value has a flag's type: JSON true/false is a
    bool and nothing else, and an int flag takes an integral number."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is int and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, float))


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    ap = _Parser(prog="cograd", description="QUBO solving on graphs")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, *, problem=True, instance=True, fmt="json"):
        p.add_argument("--config", help="JSON file of flag values")
        if problem:
            p.add_argument("--problem", choices=[k.value for k in ProblemKind])
        if instance:
            p.add_argument("--input", help="instance file, edge-list format")
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default=fmt)
        p.add_argument("--out", help="output path (default stdout)")

    gen = sub.add_parser("gen", help="generate a d-regular instance")
    gen.add_argument("--n", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--seed", type=int, default=0)
    common(gen, problem=False, instance=False, fmt=None)

    def solver_flags(p, pipeline: bool):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--penalty", type=float, default=2.0)
        p.add_argument("--polish", action=argparse.BooleanOptionalAction, default=True)
        if pipeline:
            p.add_argument("--observe", type=float, default=0.8)
        # embedding widths are config-file keys only
        p.set_defaults(d0=None, d1=None)

    solve = sub.add_parser("solve", help="run the GCN solver on one instance")
    solver_flags(solve, pipeline=False)
    common(solve)

    dfl = sub.add_parser("dfl", help="predict the graph, then solve on it")
    solver_flags(dfl, pipeline=True)
    dfl.add_argument(
        "--lambda", dest="lam", type=float, default=1.0,
        help="weight of the predictor's reconstruction loss in the reported "
        "combined_loss; the solver never sees it",
    )
    common(dfl)

    oracle = sub.add_parser("oracle", help="exhaustive optimum (small n)")
    common(oracle)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--seeds", type=int, default=1, help="number of seeds")
    solver_flags(bench, pipeline=True)
    common(bench, instance=False, fmt="csv")
    bench.set_defaults(instances=None, methods=None)
    return ap, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parser defaults, then the config file, then explicit flags."""
    ap, subparsers = _build_parser()
    ns = ap.parse_args(argv)
    if ns.config is None:
        return ns
    path = Path(ns.config)
    if not path.exists():
        raise _UsageError(f"config file not found: {ns.config}")
    try:
        text = path.read_text()
    except OSError as exc:  # a directory or an unreadable file
        reason = exc.strerror or exc
        raise _UsageError(f"cannot read config file {ns.config}: {reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a JSON object")
    known = set(vars(ns)) - {"command", "config"}
    sub = subparsers[ns.command]
    # argparse checks choices on command-line values only, not on defaults
    choices = {a.dest: a.choices for a in sub._actions if a.choices is not None}
    # nor types: a file value must already have its flag's type
    types = {dest: convert for dest, (_, convert) in _SPEC_FIELDS.items()}
    types.update({a.dest: a.type for a in sub._actions if a.type is not None})
    values = {}
    for key, value in doc.items():
        # "lambda" is a Python keyword, so its dest is "lam"
        dest = "lam" if key == "lambda" else key.replace("-", "_")
        if dest not in known:
            raise _UsageError(f"config key {key!r} not valid for {ns.command!r}")
        if dest in choices and value not in choices[dest]:
            allowed = ", ".join(map(repr, choices[dest]))
            raise _UsageError(
                f"config key {key!r}: invalid choice {value!r} (choose from {allowed})"
            )
        kind = types.get(dest)
        if kind is not None and not _fits(value, kind):
            raise _UsageError(
                f"config key {key!r}: expected {kind.__name__}, got {value!r}"
            )
        values[dest] = value
    # the subparser fills its own defaults, so they are where the file goes
    sub.set_defaults(**values)
    return ap.parse_args(argv)


def _require(ns: argparse.Namespace, *names: str):
    for name in names:
        if getattr(ns, name) is None:
            raise _UsageError(f"--{name} is required (flag or config)")


def _write_out(data: bytes, out: str | None):
    if out is None:
        sys.stdout.write(data.decode())
        return
    try:
        Path(out).write_bytes(data)
    except OSError as exc:  # a directory, a missing parent, no permission
        reason = exc.strerror or exc
        raise ValueError(f"cannot write output file {out}: {reason}") from None


def _suite_spec(ns: argparse.Namespace, instances, methods, seeds) -> SuiteSpec:
    """Run settings from the parsed flags; settings a command has no flag
    for keep the SuiteSpec defaults."""
    opts = vars(ns)
    settings = {
        field: convert(opts[dest])
        for dest, (field, convert) in _SPEC_FIELDS.items()
        if opts.get(dest) is not None
    }
    return SuiteSpec(ProblemKind(ns.problem), instances, methods, seeds, **settings)


def _cmd_gen(ns: argparse.Namespace) -> int:
    _require(ns, "n", "d")
    g = generate_d_regular(int(ns.n), int(ns.d), int(ns.seed))
    _write_out(write_gset(g).encode(), ns.out)
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    """solve, dfl and oracle on one instance file: a bench row, except for
    dfl in JSON, which prints the pipeline result."""
    _require(ns, "problem", "input")
    inst = InstanceSpec(name=Path(ns.input).name.partition(".")[0], path=ns.input)
    method = _METHODS[ns.command]
    seed = int(getattr(ns, "seed", 0))  # oracle takes no seed
    spec = _suite_spec(ns, (inst,), (method,), (seed,))
    if method == "dfl-pipeline":
        # lambda reaches only the JSON report, but is checked in every format
        cfg = replace(_pipeline_cfg(spec, seed), lam=ns.lam)
    g = inst.load()
    if method == "dfl-pipeline" and ns.format == "json":
        res = end_to_end_solve(g, cfg)
        data = (res.to_json() + "\n").encode()
    else:
        row = _run_row(spec, inst.name, g, method, seed, assignment=True)
        if ns.format == "csv":
            data = emit_report(BenchReport(rows=(row,), metadata={}), "csv")
        else:
            data = (json.dumps(row) + "\n").encode()
    _write_out(data, ns.out)
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    _require(ns, "problem", "instances", "methods")
    for key in ("instances", "methods"):
        if not isinstance(getattr(ns, key), list):
            raise _UsageError(f"bench config must list {key}")
    try:
        instances = tuple(InstanceSpec(**d) for d in ns.instances)
    except TypeError as exc:
        raise _UsageError(f"bad instance entry: {exc}") from exc
    count, base = int(ns.seeds), int(ns.seed)
    if count < 1:
        raise _UsageError(f"--seeds must be at least 1, got {count}")
    seeds = tuple(range(base, base + count))
    spec = _suite_spec(ns, instances, tuple(ns.methods), seeds)
    _write_out(emit_report(run_suite(spec), ns.format), ns.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_run,
    "dfl": _cmd_run,
    "oracle": _cmd_run,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse(argv)
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

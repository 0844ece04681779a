"""Command-line interface for batch generation, solving, emission, and reports.

Exit codes: 0 success, 1 validation or decode failure, 2 usage or input
error, 3 time limit hit with an open optimality gap.
"""

from __future__ import annotations

import argparse
import sys
import time
from operator import countOf, itemgetter
from pathlib import Path

from . import __version__
from .core import (
    FjsError,
    Instance,
    Schedule,
    SolutionPair,
    _collector_paused,
    _echo,
    _printable,
    check_time,
    validate_solution,
)
from .emit import write_lp, write_mps
from .exact import STATUS_BOUND_PAIR, solve_branch_and_bound
from .generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from .heuristic import earliest_start_heuristic, earliest_start_selection
from .io import (
    FORMAT_INSTANCE,
    FORMAT_SOLUTION,
    ReportRow,
    decode_json,
    instance_size,
    number_from_json,
    parse_instance,
    parse_solution,
    render_report,
    serialize_instance,
    serialize_solution,
    solution_document,
)
from .milp import (
    BINARY,
    ModelPoint,
    PointError,
    build_compact_model,
    build_machine_indexed_model,
    decode_compact,
    decode_machine_indexed,
    default_horizon,
    makespan_lower_bound,
)

MODEL_BUILDERS = {"new": build_compact_model, "ooy": build_machine_indexed_model}
MODEL_DECODERS = {"new": decode_compact, "ooy": decode_machine_indexed}
WRITERS = {"lp": write_lp, "mps": write_mps}


class _UsageError(Exception):
    """A usage or input error found after parsing, such as a path that cannot be read: exit 2."""


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FjsError(f"{_printable(str(path))}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise _UsageError(f"cannot read {_printable(str(path))}") from exc


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}") from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        instance = args.generator(args)
    except ValueError as exc:  # sizes the generator refuses
        raise _UsageError(str(exc)) from exc
    _write(args.out, serialize_instance(instance))
    print(f"wrote {_printable(instance.name)} ({instance.n_ops} operations) to {args.out}")
    return 0


def _run_est(instance: Instance, time_limit: float) -> tuple[SolutionPair, Schedule, str, dict]:
    t0 = time.monotonic()
    sol, sched = earliest_start_heuristic(instance)
    elapsed = time.monotonic() - t0
    meta = {"lower_bound": makespan_lower_bound(instance), "upper_bound": sched.makespan, "elapsed": elapsed}
    return sol, sched, "feasible", meta


def _run_bnb(instance: Instance, time_limit: float) -> tuple[SolutionPair, Schedule, str, dict]:
    result = solve_branch_and_bound(instance, time_limit=time_limit)
    meta = {
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "nodes_explored": result.nodes_explored,
        "elapsed": result.elapsed,
    }
    return result.solution, result.schedule, result.status, meta


# A runner returns the solution, its schedule, the status and its meta fields, lower_bound and
# upper_bound among them; `fjs solve` prints [lb;ub] and exits 3 exactly when the status is bound-pair.
# A runner reaches the public solvers through this module's globals, so a caller that rebinds them
# there, such as a tracer, sees every call.
SOLVERS = {"est": _run_est, "bnb": _run_bnb}


def _cmd_solve(args: argparse.Namespace) -> int:
    if not args.time_limit > 0:
        raise _UsageError(f"--time-limit must be positive, got {args.time_limit}")
    instance = parse_instance(_read(args.infile))
    sol, sched, status, meta = SOLVERS[args.method](instance, args.time_limit)
    meta = {"method": args.method, "status": status, **meta}
    if args.out:
        _write(args.out, serialize_solution(instance, sol, sched, meta))
    open_gap = status == STATUS_BOUND_PAIR
    value_cell = f"[{meta['lower_bound']};{meta['upper_bound']}]" if open_gap else str(meta["upper_bound"])
    print(f"{_printable(instance.name)}: mks {value_cell} ({status})")
    return 3 if open_gap else 0


def _parse_horizon(text: str, instance: Instance):
    if text == "auto":
        return default_horizon(instance, earliest_start_selection(instance)[1])
    return check_time(number_from_json(text, "--L"))  # the grammar of numbers in files, the rule of times


def _cmd_emit(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.infile))
    try:
        horizon = _parse_horizon(args.L, instance)
    except FjsError as exc:
        raise _UsageError(f"--L must be 'auto' or a positive rational, got {_echo(args.L)}") from exc
    if horizon == 0:
        raise _UsageError("--L auto gives no horizon for an instance without operations; give a positive --L")
    try:
        model = MODEL_BUILDERS[args.model](instance, horizon)
    except ValueError as exc:  # a horizon below a processing time, which the ooy model refuses
        raise _UsageError(f"--L is too small for the {args.model} model: {exc}") from exc
    del instance  # and with it the builder's name layout, which the writers do not read
    _write(args.out, WRITERS[args.format](model))
    n_binary = countOf(map(itemgetter(1), model.variables), BINARY)
    print(
        f"wrote {_printable(model.name)}: {len(model.constraints)} constraints, "
        f"{len(model.variables) - 1} variables ({n_binary} binary), L = {horizon}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.infile))
    if args.sol is None:
        print(f"{_printable(instance.name)}: instance ok ({instance.n_ops} operations)")
        return 0
    sol, sched, _ = parse_solution(_read(args.sol), instance)
    if not _valid(instance, sol, sched):
        return 1
    print(f"{_printable(instance.name)}: solution ok (makespan {sched.makespan})")
    return 0


def _valid(instance: Instance, sol: SolutionPair, sched: Schedule) -> bool:
    """Whether ``validate_solution`` passes a parsed solution; if not, each issue goes to stderr."""
    issues = validate_solution(instance, sol, sched).issues
    for issue in issues:
        print(f"{_printable(instance.name)}: {issue.kind}: {issue.message}", file=sys.stderr)
    return not issues


def _cmd_decode(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.infile))
    raw = decode_json(_read(args.point), PointError)
    if not isinstance(raw, dict):
        raise _UsageError("point file must be a JSON object of variable values")
    # a name is echoed whole up to 80 characters and cut beyond, as any echoed input
    point = ModelPoint(
        {name: number_from_json(value, name if len(name) <= 80 else _echo(name)) for name, value in raw.items()}
    )
    sol, sched = MODEL_DECODERS[args.model](instance, point)
    meta = {"method": f"decode-{args.model}", "status": "feasible"}
    _write(args.out, serialize_solution(instance, sol, sched, meta))
    print(f"{_printable(instance.name)}: decoded point, makespan {sched.makespan}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _UsageError(f"cannot read {args.directory}")
    instances: dict[str, tuple[Instance, str]] = {}  # each instance and its file name
    for path in sorted(directory.glob("*.fjs.json")):
        instance = parse_instance(_read(path))
        if instance.name in instances:  # a solution names its instance, so a name must pick one file
            name, first = _echo(instance.name), _printable(instances[instance.name][1])
            raise _UsageError(f"{first} and {_printable(path.name)}: two instance files named {name} in {directory}")
        instances[instance.name] = instance, path.name
    rows = []
    columns: dict[str, tuple] = {}  # the size and EST makespan of each instance a solution names
    for path in sorted(directory.glob("*.sol.json")):
        document = solution_document(_read(path))
        name = document["instance"]
        if name not in instances:
            raise _UsageError(f"{_printable(path.name)}: no instance file named {_echo(name)} in {directory}")
        instance = instances[name][0]
        sol, sched, meta = parse_solution(document, instance)
        del document  # only its meta is read from here on, so EST below does not run beside it
        if not _valid(instance, sol, sched):  # the judge of fjs validate --sol, with its output
            return 1
        if name not in columns:
            columns[name] = (*instance_size(instance), earliest_start_selection(instance)[1])
        rows.append(
            ReportRow(
                name,
                *columns[name],
                method=str(meta.get("method", "?")),
                status=str(meta.get("status", "?")),
                lower_bound=meta["lower_bound"],
                upper_bound=meta["upper_bound"],
                elapsed=meta["elapsed"],
            )
        )
    rows.sort(key=lambda r: (r.name, r.method))
    _write(args.out, render_report(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fjs", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"fjs {__version__} (formats: {FORMAT_INSTANCE}, {FORMAT_SOLUTION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.set_defaults(handler=_cmd_generate)
    gen_sub = gen.add_subparsers(dest="family", required=True)
    yfjs = gen_sub.add_parser("yfjs", help="jobs are chains, possibly rewired into a Y")
    yfjs.add_argument("--n", type=int, required=True, help="number of jobs")
    yfjs.add_argument("--o", type=int, required=True, help="operations per job")
    yfjs.add_argument("--m", type=int, required=True, help="number of machines")
    yfjs.add_argument("--q", type=int, required=True, help="max eligible machines per operation")
    yfjs.add_argument("--seed", type=int, required=True)
    yfjs.add_argument("--out", required=True)
    yfjs.set_defaults(generator=lambda a: generate_yfjs(YfjsParams(a.n, a.o, a.m, a.q, a.seed)))
    dafjs = gen_sub.add_parser("dafjs", help="jobs split and merge between equal-length paths")
    dafjs.add_argument("--n", type=int, required=True, help="number of jobs")
    dafjs.add_argument("--m", type=int, required=True, help="number of machines")
    dafjs.add_argument("--seed", type=int, required=True)
    dafjs.add_argument("--out", required=True)
    dafjs.set_defaults(generator=lambda a: generate_dafjs(DafjsParams(a.n, a.m, a.seed)))

    solve = sub.add_parser("solve", help="solve an instance")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("--method", choices=tuple(SOLVERS), required=True)
    solve.add_argument(
        "--time-limit",
        type=float,
        default=3600.0,
        help="positive number of seconds the search may run (default 3600); est stops after one pass",
    )
    solve.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: the search runs on one thread"
    )
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out")

    emit = sub.add_parser("emit", help="write a model as an LP or MPS file")
    emit.set_defaults(handler=_cmd_emit)
    emit.add_argument("--model", choices=tuple(MODEL_BUILDERS), required=True)
    emit.add_argument("--format", choices=tuple(WRITERS), required=True)
    emit.add_argument("--L", default="auto", help="makespan horizon: 'auto' or a positive rational, written a or a/b")
    emit.add_argument("--in", dest="infile", required=True)
    emit.add_argument("--out", required=True)

    validate = sub.add_parser("validate", help="validate an instance, optionally with a solution")
    validate.set_defaults(handler=_cmd_validate)
    validate.add_argument("--in", dest="infile", required=True)
    validate.add_argument("--sol")

    decode = sub.add_parser("decode", help="decode a model point into a solution file")
    decode.set_defaults(handler=_cmd_decode)
    decode.add_argument("--model", choices=tuple(MODEL_DECODERS), required=True)
    decode.add_argument("--in", dest="infile", required=True)
    decode.add_argument("--point", required=True)
    decode.add_argument("--out", required=True)

    report = sub.add_parser("report", help="aggregate solution files into a table")
    report.set_defaults(handler=_cmd_report)
    report.add_argument("--dir", dest="directory", required=True)
    report.add_argument("--out")
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one ``fjs`` command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's collector is left as it was found.  Of the library calls, only
    the two model builders pause it too, for the call alone; the writers,
    codecs and solvers never touch it.
    """
    args = _PARSER.parse_args(argv)
    try:
        with _collector_paused():  # a command's records live until it returns and hold no cycles
            return args.handler(args)
    except _UsageError as exc:
        message, code = str(exc), 2
    except FjsError as exc:
        prefix = f"{exc.code}: " if getattr(exc, "code", None) else ""
        message, code = f"{prefix}{exc}", 1
    print(f"fjs: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Canonical JSON file formats for instances and solutions, plus text reports.

Instances travel as ``.fjs.json`` documents and solutions as ``.sol.json``;
both are emitted in canonical form (sorted keys, two-space indent, trailing
newline) so identical data produces identical bytes.  Instance files carry
integer times only; solution files may carry exact non-integer rationals as
``"numerator/denominator"`` strings.  Reports are fixed-layout text tables
with one row per solved instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Sequence

from .core import (
    FjsError,
    Instance,
    InstanceError,
    MachineAssignment,
    Rational,
    Schedule,
    Selection,
    SolutionPair,
    certified_critical_path,
    validate_solution,
    weakly_connected_components,
    _echo,
)

__all__ = [
    "FORMAT_INSTANCE",
    "FORMAT_SOLUTION",
    "SolutionError",
    "ReportRow",
    "decode_json",
    "parse_instance",
    "serialize_instance",
    "solution_document",
    "parse_solution",
    "serialize_solution",
    "selection_from_starts",
    "render_report",
    "format_bound_cell",
    "instance_size",
    "number_to_json",
    "number_from_json",
]

FORMAT_INSTANCE = "fjs-instance/1"
FORMAT_SOLUTION = "fjs-solution/1"


class SolutionError(FjsError):
    """Malformed or infeasible solution document."""


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def number_to_json(value: Rational) -> int | str:
    """Exact JSON encoding: int when integral, else an 'a/b' string."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def number_from_json(value: object, where: str) -> Rational:
    """Inverse of :func:`number_to_json`; rejects floats and other types."""
    if isinstance(value, bool):
        raise SolutionError(f"{where}: expected a number, got {_echo(value)}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SolutionError(f"{where}: bad rational literal {_echo(value)}") from exc
    raise SolutionError(f"{where}: expected int or 'a/b' string, got {_echo(value)}")


def serialize_instance(instance: Instance) -> str:
    """Canonical instance document; requires integer processing times."""
    operations = []
    for v in instance.ops:
        times = []
        for k, t in zip(instance.eligible[v], instance.times[v]):
            if isinstance(t, Fraction):
                if t.denominator != 1:
                    raise InstanceError("bad-time", f"instance files carry integer times; p({v},{k}) = {t}")
                t = int(t)
            times.append([k, t])
        operations.append({"id": v, "times": times})
    document = {
        "format": FORMAT_INSTANCE,
        "name": instance.name,
        "machines": instance.machines,
        "operations": operations,
        "arcs": [list(arc) for arc in instance.arcs],
        "jobs": [list(group) for group in weakly_connected_components(instance)],
    }
    return _canonical(document)


def decode_json(text: str, error: Callable[[str], FjsError]) -> object:
    """``json.loads(text)``; a syntax error, or nesting too deep to decode, raises ``error(message)``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise error("JSON nested too deeply to decode") from exc


def parse_instance(text: str) -> Instance:
    """Parse and fully validate a canonical instance document."""
    document = decode_json(text, partial(InstanceError, "syntax"))
    if not isinstance(document, dict):
        raise InstanceError("bad-format", "top-level value must be an object")
    if document.get("format") != FORMAT_INSTANCE:
        raise InstanceError("bad-format", f"expected format {FORMAT_INSTANCE!r}, got {_echo(document.get('format'))}")
    for field in ("name", "machines", "operations", "arcs"):
        if field not in document:
            raise InstanceError("missing-field", f"missing field {field!r}")
    if not isinstance(document["name"], str):
        raise InstanceError("bad-format", f"instance name {_echo(document['name'])} is not a string")
    machines = document["machines"]
    if not isinstance(machines, int) or isinstance(machines, bool):
        raise InstanceError("bad-machine-count", "machines must be an integer")
    operations = document["operations"]
    if not isinstance(operations, list):
        raise InstanceError("bad-format", "operations must be a list")
    ptimes: dict[int, dict[int, int]] = {}
    for op in operations:
        if not isinstance(op, dict) or "id" not in op or "times" not in op:
            raise InstanceError("bad-format", f"operation entry {_echo(op)} needs 'id' and 'times'")
        v = op["id"]
        if not isinstance(v, int) or isinstance(v, bool) or v in ptimes:
            raise InstanceError("bad-id", f"operation id {_echo(v)} is not a fresh integer")
        row: dict[int, int] = {}
        if not isinstance(op["times"], list):
            raise InstanceError("bad-format", f"operation {v}: times must be a list of [machine, time] pairs")
        for pair in op["times"]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InstanceError("bad-format", f"operation {v}: times must be [machine, time] pairs")
            k, t = pair
            if not isinstance(k, int) or isinstance(k, bool):
                raise InstanceError("bad-machine", f"operation {v}: machine id {_echo(k)} is not an integer")
            if not isinstance(t, int) or isinstance(t, bool):
                raise InstanceError("bad-time", f"operation {v}: time {_echo(t)} is not an integer")
            if k in row:
                raise InstanceError("bad-machine", f"operation {v}: machine {k} listed twice")
            row[k] = t
        ptimes[v] = row
    if sorted(ptimes) != list(range(len(ptimes))):
        raise InstanceError("bad-id", "operation ids must be dense integers 0..n-1")
    if not isinstance(document["arcs"], list):
        raise InstanceError("bad-format", "arcs must be a list of [from, to] pairs")
    arcs = []
    for arc in document["arcs"]:
        if not (
            isinstance(arc, list)
            and len(arc) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in arc)
        ):
            raise InstanceError("bad-format", f"arc entry {_echo(arc)} must be a pair of ids")
        arcs.append((arc[0], arc[1]))
    return Instance.from_tables(document["name"], machines, ptimes, arcs)


def selection_from_starts(
    instance: Instance, assignment: MachineAssignment, start: Sequence[Rational]
) -> Selection:
    """Sequence each machine's operations by start time (ties by id).

    An operation on a machine the instance lacks is left out; the
    assignment check reports it.
    """
    sequences: dict[int, list[int]] = {k: [] for k in range(1, instance.machines + 1)}
    for v in sorted(instance.ops, key=lambda v: (start[v], v)):
        sequences.get(assignment.machine[v], []).append(v)
    return Selection(tuple(sequences.values()))


def serialize_solution(
    instance: Instance,
    sol: SolutionPair,
    sched: Schedule,
    meta: Mapping[str, object] | None = None,
) -> str:
    """Canonical solution document; refuses to write an infeasible solution."""
    report = validate_solution(instance, sol, sched)
    if not report.ok:
        raise SolutionError(f"refusing to serialize an infeasible solution: {report.summary()}")
    clean_meta = {
        key: number_to_json(value) if isinstance(value, Fraction) else value
        for key, value in (meta or {}).items()
    }
    document = {
        "format": FORMAT_SOLUTION,
        "instance": instance.name,
        "assignment": [[v, sol.assignment.machine[v]] for v in instance.ops],
        "starts": [[v, number_to_json(sched.start[v])] for v in instance.ops],
        "makespan": number_to_json(sched.makespan),
        "meta": clean_meta,
    }
    return _canonical(document)


def solution_document(source: str | dict) -> dict:
    """A solution document, decoded if ``source`` is JSON text, whose format
    and required fields are checked; it is not yet matched to an instance."""
    document = decode_json(source, SolutionError) if isinstance(source, str) else source
    if not isinstance(document, dict) or document.get("format") != FORMAT_SOLUTION:
        raise SolutionError(f"expected format {FORMAT_SOLUTION!r}")
    for field in ("assignment", "starts", "makespan", "instance"):
        if field not in document:
            raise SolutionError(f"missing field {field!r}")
    if not isinstance(document["instance"], str):
        raise SolutionError(f"instance name {_echo(document['instance'])} is not a string")
    return document


def parse_solution(source: str | dict, instance: Instance) -> tuple[SolutionPair, Schedule, dict]:
    """Parse a solution document (JSON text or a decoded object) against its instance.

    The selection is reconstructed from the start times (each machine's
    operations sequenced by start).  Structural errors raise; feasibility is the
    caller's concern via ``validate_solution``.
    """
    document = solution_document(source)
    name = document["instance"]
    if name != instance.name:
        raise SolutionError(f"solution is for instance {_echo(name)}, not {_echo(instance.name)}")

    def id_map(entries: object, what: str) -> dict[int, object]:
        if not isinstance(entries, list):
            raise SolutionError(f"{what} must be a list of [id, value] pairs")
        out: dict[int, object] = {}
        for pair in entries:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SolutionError(f"{what} entries must be [id, value] pairs")
            v, value = pair
            if not isinstance(v, int) or isinstance(v, bool) or v in out:
                raise SolutionError(f"{what}: id {_echo(v)} is not a fresh integer")
            out[v] = value
        if sorted(out) != list(instance.ops):
            raise SolutionError(f"{what} must cover operation ids 0..{instance.n_ops - 1}")
        return out

    machines = id_map(document["assignment"], "assignment")
    for v, k in machines.items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise SolutionError(f"assignment: machine {_echo(k)} of operation {v} is not an integer")
    starts_raw = id_map(document["starts"], "starts")
    start = tuple(number_from_json(starts_raw[v], f"start of operation {v}") for v in instance.ops)
    makespan = number_from_json(document["makespan"], "makespan")
    assignment = MachineAssignment(tuple(machines[v] for v in instance.ops))
    selection = selection_from_starts(instance, assignment, start)
    sol = SolutionPair(assignment, selection)
    try:
        critical = certified_critical_path(instance, sol, start)
    except (KeyError, IndexError):
        critical = ()
    sched = Schedule(start, makespan, critical)
    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise SolutionError("meta must be an object")
    return sol, sched, meta


@dataclass(frozen=True)
class ReportRow:
    """One benchmark line: instance identity, heuristic value, solver outcome."""

    name: str
    n_jobs: int
    ops_min: int
    ops_max: int
    machines: int
    est_makespan: Rational
    method: str
    status: str
    lower_bound: Rational
    upper_bound: Rational
    elapsed: float


def format_bound_cell(lower: Rational, upper: Rational) -> str:
    """Render an open optimality gap as ``[lb;ub] gap%`` of the upper bound."""
    gap = 0.0 if upper == 0 else float((upper - lower) / upper) * 100
    return f"[{_cell_num(lower)};{_cell_num(upper)}] {gap:.2f}%"


def _cell_num(value: Rational) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{float(value):g}"
    return str(int(value))


def render_report(rows: Sequence[ReportRow]) -> str:
    """Fixed-layout table: Instance, Size, EST, Method, mks, CPU(s)."""
    header = ("Instance", "Size", "EST", "Method", "mks", "CPU(s)")
    body = []
    for row in rows:
        ops = str(row.ops_min) if row.ops_min == row.ops_max else f"{row.ops_min}-{row.ops_max}"
        size = f"{row.n_jobs}, {ops}, {row.machines}"
        if row.status == "optimal":
            cell = _cell_num(row.upper_bound)
        else:
            cell = format_bound_cell(row.lower_bound, row.upper_bound)
        body.append((row.name, size, _cell_num(row.est_makespan), row.method, cell, f"{row.elapsed:.2f}"))
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i]) for i in range(6)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(6)).rstrip()]
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(6)).rstrip())
    return "\n".join(lines) + "\n"


def instance_size(instance: Instance) -> tuple[int, int, int, int]:
    """(jobs, min ops per job, max ops per job, machines) for report rows."""
    components = weakly_connected_components(instance)
    if not components:
        return 0, 0, 0, instance.machines
    sizes = [len(c) for c in components]
    return len(components), min(sizes), max(sizes), instance.machines

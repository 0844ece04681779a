"""Canonical JSON file formats for instances and solutions, plus text reports.

Instances travel as ``.fjs.json`` documents and solutions as ``.sol.json``;
both are emitted in canonical form, the text of ``json.dumps(document,
sort_keys=True, indent=2)`` plus a newline, so identical data produces
identical bytes.  The writers render that text directly, because with
``indent`` set ``json.dumps`` runs its pure-Python encoder.  Instance files
carry integer times only; solution files may carry exact non-integer
rationals as ``"numerator/denominator"`` strings.  Reports are fixed-layout
text tables with one row per solved instance.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import eq, itemgetter, le, lt
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    MAX_DIGITS,
    FjsError,
    Instance,
    InstanceError,
    Rational,
    Schedule,
    SolutionPair,
    selection_from_starts,
    validate_solution,
    weakly_connected_components,
    _DIGITS_BOUND,
    _echo,
    _ints_within,
    _num_text,
    _printable,
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


def _array(items: Sequence[str], depth: int) -> str:
    """A JSON array as ``json.dumps(indent=2)`` lays it out ``depth`` levels
    deep, from its items already rendered one level deeper."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _pair_layout(depth: int) -> str:
    """The ``%`` template of one ``[a, b]`` item of an array ``depth`` levels deep."""
    item, value = "  " * (depth + 1), "  " * (depth + 2)
    return f"[\n{value}%s,\n{value}%s\n{item}]"


def _pairs(pairs: Iterable[tuple[object, object]], depth: int) -> str:
    """``_array`` of ``[a, b]`` pairs whose values are ints or JSON text,
    each filled into one template by ``%``."""
    return _array(list(map(_pair_layout(depth).__mod__, pairs)), depth)


def _json_values(values: Sequence[object]) -> Sequence[object]:
    """``values`` for ``_pairs``: ints as they are, since ``str`` writes an int
    as JSON does, and otherwise each value's ``json.dumps`` text."""
    return values if set(map(type, values)) <= {int} else [json.dumps(value) for value in values]


def number_to_json(value: Rational) -> int | str:
    """Exact JSON encoding: int when integral, else an 'a/b' string."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def number_from_json(value: object, where: str) -> Rational:
    """Inverse of :func:`number_to_json`: an int, or a string ``"a"`` or ``"a/b"``
    of decimal digits with an optional leading minus; anything else is refused,
    and so is a number with a part (``a`` or ``b``) of more than ``MAX_DIGITS``
    digits."""
    if isinstance(value, bool):
        raise SolutionError(f"{where}: expected a number, got {_echo(value)}")
    if isinstance(value, int):
        if abs(value) >= _DIGITS_BOUND:
            raise SolutionError(f"{where}: {_echo(value)} has more than {MAX_DIGITS} digits")
        return value
    if isinstance(value, str):
        match = re.fullmatch(r"-?([0-9]+)(?:/([0-9]+))?", value)
        if match:
            if max(map(len, match.groups(""))) > MAX_DIGITS:
                raise SolutionError(f"{where}: {_echo(value)} has a part of more than {MAX_DIGITS} digits")
            try:
                return Fraction(value)
            except ZeroDivisionError:
                pass
        raise SolutionError(f"{where}: bad rational literal {_echo(value)}")
    raise SolutionError(f"{where}: expected int or 'a/b' string, got {_echo(value)}")


def serialize_instance(instance: Instance) -> str:
    """Canonical instance document; requires integer processing times."""
    if set(map(type, chain.from_iterable(instance.times))) - {int}:
        v, k, t = next(
            (v, k, t)
            for v in instance.ops
            for k, t in zip(instance.eligible[v], instance.times[v])
            if type(t) is not int
        )
        raise InstanceError("bad-time", f"instance files carry integer times; p({v},{k}) = {t}")
    # one template per row length, with the id and each [machine, time] pair left as %s
    layouts = {
        length: '{\n      "id": %s,\n      "times": ' + _array([_pair_layout(3)] * length, 3) + "\n    }"
        for length in set(map(len, instance.times))
    }
    operations = [
        layouts[len(row)] % (v, *chain.from_iterable(zip(machs, row)))
        for v, (machs, row) in enumerate(zip(instance.eligible, instance.times))
    ]
    jobs = [_array(list(map(str, group)), 2) for group in weakly_connected_components(instance)]
    return (
        f'{{\n  "arcs": {_pairs(instance.arcs, 1)},\n'
        f'  "format": {json.dumps(FORMAT_INSTANCE)},\n'
        f'  "jobs": {_array(jobs, 1)},\n'
        f'  "machines": {instance.machines},\n'
        f'  "name": {json.dumps(instance.name)},\n'
        f'  "operations": {_array(operations, 1)}\n}}\n'
    )


def decode_json(text: str, error: Callable[[str], FjsError]) -> object:
    """``json.loads(text)``; a syntax error, an integer literal too long to
    convert, or nesting too deep to decode raises ``error(message)``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # the interpreter's limit on int string conversion
        raise error("JSON integer literal too long to decode") from exc
    except RecursionError as exc:
        raise error("JSON nested too deeply to decode") from exc


def _two_item_lists(entries: list) -> bool:
    """Whether every entry is a list of two items, checked in bulk."""
    return set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}


def _fresh_id_pairs(entries: list) -> bool:
    """Whether every entry is a two-item list led by an int id, and no id
    leads two entries, checked in bulk."""
    if not _two_item_lists(entries):
        return False
    ids = list(map(itemgetter(0), entries))
    return set(map(type, ids)) <= {int} and len(set(ids)) == len(ids)


def parse_instance(text: str) -> Instance:
    """Parse an instance document.

    Only the document's shape is checked here: an object with the required
    fields, operation entries with fresh dense ids, and ``[machine, time]``
    and ``[from, to]`` pairs of two items.  The values, and the order of
    each operation's pairs, are ``Instance``'s to check and sort, once the
    decoded document is gone.
    """
    return Instance(*_instance_fields(text))


def _instance_fields(text: str) -> tuple[object, object, tuple, tuple, list]:
    """The name, machine count, eligible machines, times and arcs of an
    instance document whose shape is checked; its values are not."""
    document = decode_json(text, partial(InstanceError, "syntax"))
    if not isinstance(document, dict):
        raise InstanceError("bad-format", "top-level value must be an object")
    if document.get("format") != FORMAT_INSTANCE:
        raise InstanceError("bad-format", f"expected format {FORMAT_INSTANCE!r}, got {_echo(document.get('format'))}")
    for field in ("name", "machines", "operations", "arcs"):
        if field not in document:
            raise InstanceError("missing-field", f"missing field {field!r}")
    operations = document["operations"]
    if not isinstance(operations, list):
        raise InstanceError("bad-format", "operations must be a list")
    rows = _operation_rows(operations)
    if not _ints_within(list(rows), 0, len(rows) - 1):  # distinct ids in 0..n-1 are all of them
        raise InstanceError("bad-id", "operation ids must be dense integers 0..n-1")
    arcs = document["arcs"]
    if not isinstance(arcs, list):
        raise InstanceError("bad-format", "arcs must be a list of [from, to] pairs")
    if not _two_item_lists(list(chain(chain.from_iterable(rows.values()), arcs))):
        for v, row in rows.items():
            if not _two_item_lists(row):
                raise InstanceError("bad-format", f"operation {v}: times must be [machine, time] pairs")
        arc = next(arc for arc in arcs if not _two_item_lists([arc]))
        raise InstanceError("bad-format", f"arc entry {_echo(arc)} must be a pair of ids")
    # each row split into its machines and its times
    columns = [tuple(zip(*rows[v])) or ((), ()) for v in range(len(rows))]
    eligible, times = tuple(zip(*columns)) or ((), ())
    return document["name"], document["machines"], eligible, times, arcs


def _operation_rows(operations: list) -> dict[int, list]:
    """Each operation entry's ``times`` list by its id.

    The entries are checked in bulk: dicts with ``id`` and ``times``, int
    ids, all distinct, and list times.  Only when that fails does a loop walk
    them in order, raising the InstanceError of the first fault.
    """
    if set(map(type, operations)) <= {dict}:
        try:
            ids = list(map(itemgetter("id"), operations))
            rows = list(map(itemgetter("times"), operations))
        except KeyError:
            pass
        else:
            if set(map(type, ids)) <= {int} and set(map(type, rows)) <= {list} and len(set(ids)) == len(ids):
                return dict(zip(ids, rows))
    seen: set[int] = set()
    for op in operations:
        if not isinstance(op, dict) or "id" not in op or "times" not in op:
            raise InstanceError("bad-format", f"operation entry {_echo(op)} needs 'id' and 'times'")
        v = op["id"]
        if type(v) is not int or v in seen:
            raise InstanceError("bad-id", f"operation id {_echo(v)} is not a fresh integer")
        if not isinstance(op["times"], list):
            raise InstanceError("bad-format", f"operation {v}: times must be a list of [machine, time] pairs")
        seen.add(v)


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
    meta_text = json.dumps(clean_meta, sort_keys=True, indent=2).replace("\n", "\n  ")
    assignment = _json_values(sol.assignment)
    starts = _json_values([number_to_json(s) for s in sched.start])
    return (
        f'{{\n  "assignment": {_pairs(zip(instance.ops, assignment), 1)},\n'
        f'  "format": {json.dumps(FORMAT_SOLUTION)},\n'
        f'  "instance": {json.dumps(instance.name)},\n'
        f'  "makespan": {json.dumps(number_to_json(sched.makespan))},\n'
        f'  "meta": {meta_text},\n'
        f'  "starts": {_pairs(zip(instance.ops, starts), 1)}\n}}\n'
    )


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
    caller's concern via ``validate_solution``.  The returned ``meta`` holds its
    bounds as numbers, each defaulting to the makespan, and ``elapsed`` (0.0 by
    default).  A bad value of these, or a claim the file refutes, raises
    SolutionError: an upper bound other than the makespan, a lower bound above
    the upper, ``optimal`` with the two apart or ``bound-pair`` with them equal.
    """
    document = solution_document(source)
    name = document["instance"]
    if name != instance.name:
        raise SolutionError(f"solution is for instance {_echo(name)}, not {_echo(instance.name)}")

    def id_map(entries: object, what: str) -> dict[int, object]:
        if not isinstance(entries, list):
            raise SolutionError(f"{what} must be a list of [id, value] pairs")
        if _fresh_id_pairs(entries):
            out = dict(entries)
        else:  # walk the pairs in order to name the first fault
            out = {}
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
    start = tuple(map(starts_raw.__getitem__, instance.ops))
    # ints of at most MAX_DIGITS digits are what number_from_json returns unchanged
    if not _ints_within(list(start), 1 - _DIGITS_BOUND, _DIGITS_BOUND - 1):
        start = tuple(number_from_json(starts_raw[v], f"start of operation {v}") for v in instance.ops)
    makespan = number_from_json(document["makespan"], "makespan")
    assignment = tuple(machines[v] for v in instance.ops)
    selection = selection_from_starts(instance, assignment, start)
    sol = SolutionPair(assignment, selection)
    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise SolutionError("meta must be an object")
    lower, upper = (number_from_json(meta[k], k) if k in meta else makespan for k in ("lower_bound", "upper_bound"))
    elapsed = meta.get("elapsed", 0.0)
    if type(elapsed) not in (int, float) or not 0 <= elapsed <= sys.float_info.max:
        raise SolutionError(f"elapsed: expected a finite non-negative number of seconds, got {_echo(elapsed)}")
    if upper != makespan:
        raise SolutionError(f"upper_bound {_echo(meta['upper_bound'])} is not the makespan {_echo(document['makespan'])}")
    status = meta.get("status")
    relation, holds = ("=", eq) if status == "optimal" else ("<", lt) if status == "bound-pair" else ("<=", le)
    if not holds(lower, upper):
        shown = " and ".join(_echo(number_to_json(bound)) for bound in (lower, upper))
        raise SolutionError(f"status {_echo(status)} needs lower_bound {relation} upper_bound, got {shown}")
    return sol, Schedule(start, makespan), {**meta, "lower_bound": lower, "upper_bound": upper, "elapsed": elapsed}


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
    """Render an open optimality gap as ``[lb;ub] gap%`` of the upper bound;
    a gap beyond the range of a float is written exactly, as ``_num_text`` does."""
    try:
        gap = 0.0 if upper == 0 else float((upper - lower) / upper) * 100
    except OverflowError:
        gap = math.inf
    shown = _num_text(Fraction(upper - lower, upper) * 100) if math.isinf(gap) else f"{gap:.2f}"
    return f"[{_cell_num(lower)};{_cell_num(upper)}] {shown}%"


def _cell_num(value: Rational) -> str:
    """A non-integral value as a float ``%g`` where a float shows it, and every
    other value exactly, as ``_num_text`` writes it: an integer, or ``a/b``
    when the value is beyond a float's range or so near 0 that a float shows ``0``."""
    if isinstance(value, Fraction) and value.denominator != 1:
        try:
            shown = float(value)
        except OverflowError:
            shown = 0.0  # beyond a float's range: written exactly, as a value a float rounds to 0 is
        if shown:
            return f"{shown:g}"
    return _num_text(value)


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
        method, elapsed = _printable(row.method), f"{row.elapsed:.2f}"
        body.append((_printable(row.name), size, _cell_num(row.est_makespan), method, cell, elapsed))
    widths = [max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i]) for i in range(6)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(6)).rstrip()]
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(6)).rstrip())
    return "\n".join(lines) + "\n"


def instance_size(instance: Instance) -> tuple[int, int, int, int]:
    """(jobs, min ops per job, max ops per job, machines) for report rows."""
    sizes = [len(c) for c in weakly_connected_components(instance)]
    return len(sizes), min(sizes, default=0), max(sizes, default=0), instance.machines

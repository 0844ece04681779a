"""Domain model for flexible job shop instances with DAG precedences.

An instance is a set of operations, a precedence DAG over them, a pool of
machines, and for each operation the set of machines that can process it
together with exact rational processing times.  A solution fixes one machine
per operation (assignment) and an orientation of every pair of operations
that share a machine (selection, stored as one sequence per machine); the
tight schedule starts every operation at its longest incoming path length,
which is the minimum-makespan schedule for that assignment and selection.

Operation ids are dense integers ``0 .. n_ops-1``; machines are numbered
``1 .. machines``.  Processing times are ``int`` or ``fractions.Fraction``
(floats are rejected: admissibility checks must be exact).  All deterministic
iteration breaks ties by ascending id.  Topological orders come from Kahn's
algorithm with a stack for a frontier, popped depth first with the lowest id
first, over the instance's own successor lists where it has them.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Set
from itertools import chain, islice, permutations, repeat
from operator import eq, lt
from typing import Iterable, Mapping, Sequence

Rational = int | Fraction

__all__ = [
    "FjsError",
    "InstanceError",
    "SelectionError",
    "InadmissibleError",
    "MAX_DIGITS",
    "MAX_MACHINES",
    "Instance",
    "Selection",
    "SolutionPair",
    "Schedule",
    "ValidationIssue",
    "ValidationReport",
    "check_time",
    "certified_critical_path",
    "disjunctive_pairs",
    "selection_from_starts",
    "topological_order",
    "tight_schedule",
    "validate_solution",
    "weakly_connected_components",
]


class FjsError(Exception):
    """Base class for all library errors."""


class InstanceError(FjsError):
    """Invalid instance data. ``code`` identifies the violated rule."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SelectionError(FjsError):
    """Malformed selection: the sequences are not a permutation of each machine's operations."""


class InadmissibleError(FjsError):
    """The selection conflicts with the precedence DAG (directed cycle)."""

    def __init__(self, cycle: tuple[int, ...]):
        super().__init__(f"selection induces a cycle: {'->'.join(map(str, cycle))}")
        self.cycle = cycle


class _Echo(reprlib.Repr):
    """``repr`` for echoing input values in messages, cut at 80 characters, 8
    items and 3 levels, so any echo stays within tens of KiB.  Within those
    limits it equals ``repr``, dict key order included; a string is cut
    only when it holds more than 80 characters."""

    def __init__(self) -> None:
        super().__init__()
        self.maxstring = self.maxother = self.maxlong = 80
        self.maxlist = self.maxdict = self.maxtuple = 8
        self.maxlevel = 3

    def repr_int(self, x, level):
        if abs(x) < 10**self.maxlong:
            return super().repr_int(x, level)
        # cut as reprlib does, but without turning the whole int into text,
        # which the interpreter refuses past 4,300 digits
        sign, a = "-" if x < 0 else "", abs(x)
        digits = int((a.bit_length() - 1) * 0.30102999566398120) + 1  # those of 2**(bit_length - 1)
        digits += a >= 10**digits
        head = (self.maxlong - 3) // 2
        tail = self.maxlong - 3 - head
        return f"{sign}{a // 10 ** (digits - head + len(sign))}...{a % 10**tail:0{tail}d}"

    def repr_Fraction(self, x, level):
        return f"Fraction({self.repr_int(x.numerator, level)}, {self.repr_int(x.denominator, level)})"

    def repr_str(self, x, level):
        return repr(x) if len(x) <= self.maxstring else super().repr_str(x, level)

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        pieces = [f"{self.repr1(key, level - 1)}: {self.repr1(x[key], level - 1)}" for key in islice(x, self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


_echo = _Echo().repr


def _printable(name: str) -> str:
    """A name as one line of text that any UTF-8 stream takes: unchanged when
    printable, else each non-printable character, such as a newline or a lone
    surrogate, written as its ``repr`` escape (``\\n``, ``\\ud800``)."""
    if name.isprintable():
        return name
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in name)


def _num_text(value: Rational) -> str:
    """``str(value)``, except that an int, or a part of a Fraction, of more
    digits than the interpreter turns into text is cut as ``_echo`` cuts it."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction):
            return f"{_num_text(value.numerator)}/{_num_text(value.denominator)}"
        return _echo(value)


MAX_MACHINES = 10_000
"""The most machines an instance may declare.  Solvers and model builders
allocate per declared machine; literature instances have a few dozen."""

MAX_DIGITS = 1000
"""The most decimal digits of a processing time, and of each part of an exact
number read from a file or flag.  A sum or product of two such numbers has at
most 2001 digits, well inside the interpreter's 4,300-digit limit on turning
an int into text."""

_DIGITS_BOUND = 10**MAX_DIGITS  # the least int of more than MAX_DIGITS digits


def check_time(value: object) -> Rational:
    """Validate a processing-time value: a positive int or Fraction whose
    numerator and denominator have at most ``MAX_DIGITS`` digits.

    The value is returned as an ``int`` when it is integral.  Floats are
    refused because schedule feasibility is decided with exact comparisons.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InstanceError("bad-time", f"processing time must be int or Fraction, got {_echo(value)}")
    if value <= 0:
        raise InstanceError("nonpositive-time", f"processing time must be positive, got {_num_text(value)}")
    if max(value.numerator, value.denominator) >= _DIGITS_BOUND:
        raise InstanceError("bad-time", f"processing time must have at most {MAX_DIGITS} digits, got {_echo(value)}")
    return int(value) if value.denominator == 1 else value


def _ints_within(values: list, low: int, high: int) -> bool:
    """Whether every value is an ``int`` (not a bool) in ``low..high``, checked in bulk."""
    return not values or (set(map(type, values)) == {int} and low <= min(values) and max(values) <= high)


@dataclass(frozen=True)
class Instance:
    """A flexible job shop instance.

    ``eligible[v]`` is the sorted tuple of machines that can run operation
    ``v`` and ``times[v][i]`` its processing time on ``eligible[v][i]``.
    ``arcs`` is the precedence DAG, kept sorted and deduplicated.  Validity
    (a string name, a machine count in ``1..MAX_MACHINES``, machine ranges,
    positive times of at most ``MAX_DIGITS`` digits, arcs between known ids,
    acyclicity) is enforced at construction, so every ``Instance`` in
    circulation is well formed.

    Construction also publishes the tables every reader shares, read in
    place: ``preds[v]`` and ``succs[v]``, ascending; ``ptime[v, k]``, the
    time of ``v`` on its eligible machine ``k`` (a plain dict, so an instance
    pickles); and ``order``, a topological order of the arcs from a
    depth-first frontier that pops the lowest id first (on generated
    instances, the order a min-id frontier gives).
    """

    name: str
    machines: int
    eligible: tuple[tuple[int, ...], ...]
    times: tuple[tuple[Rational, ...], ...]
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InstanceError("bad-format", f"instance name {_echo(self.name)} is not a string")
        machines = self.machines
        if isinstance(machines, bool) or not isinstance(machines, int):
            raise InstanceError("bad-machine-count", "machines must be an integer")
        if machines < 1:
            raise InstanceError("bad-machine-count", f"machine count must be >= 1, got {_num_text(machines)}")
        if machines > MAX_MACHINES:
            raise InstanceError("bad-machine-count", f"machine count must be <= {MAX_MACHINES}, got {_echo(machines)}")
        n = len(self.eligible)
        if len(self.times) != n:
            raise InstanceError("shape-mismatch", "eligible and times must have one entry per operation")
        # Each rule is checked in bulk over the flattened rows; only when one
        # fails does a loop walk the rows in order to name the first fault.
        eligible = tuple(map(tuple, self.eligible))
        times = tuple(map(tuple, self.times))
        if not _ints_within(list(chain.from_iterable(times)), 1, _DIGITS_BOUND - 1):
            times = tuple(tuple(map(check_time, row)) for row in times)  # raises, or makes Fractions exact
        lengths = list(map(len, eligible))
        machine_ids = list(chain.from_iterable(eligible))
        # (v, k) for each eligible machine k of each operation v, in row order
        keys = list(zip(chain.from_iterable(map(repeat, range(n), lengths)), machine_ids))
        if not (
            all(lengths)
            and lengths == list(map(len, times))
            and _ints_within(machine_ids, 1, machines)
            and all(map(lt, keys, keys[1:]))  # each row strictly increasing
        ):
            _raise_row_fault(eligible, times, machines)
        arcs = tuple(map(tuple, self.arcs))
        ends = list(chain.from_iterable(arcs))
        if not (
            set(map(len, arcs)) <= {2} and _ints_within(ends, 0, n - 1) and not any(map(eq, ends[::2], ends[1::2]))
        ):
            _raise_arc_fault(arcs, n)
        arcs = tuple(sorted(set(arcs)))
        object.__setattr__(self, "eligible", eligible)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "arcs", arcs)

        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for u, w in arcs:
            preds[w].append(u)
            succs[u].append(w)
        object.__setattr__(self, "preds", tuple(map(tuple, preds)))
        object.__setattr__(self, "succs", tuple(map(tuple, succs)))
        object.__setattr__(self, "ptime", dict(zip(keys, chain.from_iterable(times))))
        order = _kahn(n, self.preds, self.succs)
        if len(order) < n:
            cycle = _find_cycle(self.preds, order)
            raise InstanceError("cycle", f"precedence arcs contain a cycle: {'->'.join(map(str, cycle))}")
        object.__setattr__(self, "order", tuple(order))

    @property
    def n_ops(self) -> int:
        return len(self.eligible)

    @property
    def ops(self) -> range:
        return range(self.n_ops)

    @classmethod
    def from_tables(
        cls,
        name: str,
        machines: int,
        ptimes: Mapping[int, Mapping[int, Rational]],
        arcs: Iterable[tuple[int, int]],
    ) -> "Instance":
        """Build an instance from ``{op: {machine: time}}`` tables.

        Operation ids must be the dense range ``0..n-1``.
        """
        n = len(ptimes)
        if sorted(ptimes) != list(range(n)):
            raise InstanceError("bad-id", "operation ids must be dense integers 0..n-1")
        eligible = tuple(tuple(sorted(ptimes[v])) for v in range(n))
        times = tuple(tuple(ptimes[v][k] for k in eligible[v]) for v in range(n))
        return cls(name, machines, eligible, times, tuple(arcs))


def _raise_row_fault(eligible: tuple[tuple, ...], times: tuple[tuple, ...], machines: int) -> None:
    """Raise the InstanceError for the first operation whose machines break a rule."""
    for v, machs in enumerate(eligible):
        if not machs:
            raise InstanceError("empty-eligible", f"operation {v} has no eligible machine")
        if len(times[v]) != len(machs):
            raise InstanceError("shape-mismatch", f"operation {v}: one time per eligible machine required")
        for k in machs:
            if type(k) is not int:
                raise InstanceError("bad-machine", f"operation {v}: machine id {_echo(k)} is not an integer")
        if any(k < 1 or k > machines for k in machs):
            raise InstanceError("bad-machine", f"operation {v}: machine id outside 1..{machines}")
        if tuple(sorted(set(machs))) != machs:
            for i, k in enumerate(machs):
                if k in machs[:i]:
                    raise InstanceError("bad-machine", f"operation {v}: machine {k} listed twice")
            raise InstanceError("bad-machine", f"operation {v}: eligible machines must be sorted and distinct")


def _raise_arc_fault(arcs: tuple[tuple, ...], n: int) -> None:
    """Raise the InstanceError for the first arc that is not a pair of distinct operation ids."""
    for arc in arcs:
        u, w = arc
        if not (type(u) is int and type(w) is int and 0 <= u < n and 0 <= w < n):
            raise InstanceError("dangling-arc", f"arc {_echo(arc)} references an unknown operation id")
        if u == w:
            raise InstanceError("self-loop", f"arc ({u}, {w}) is a self-loop")


def _ops_by_machine(instance: Instance) -> dict[int, tuple[int, ...]]:
    """Map each machine ``k`` to the operations eligible on ``k``, ascending."""
    on_machine: dict[int, list[int]] = {k: [] for k in range(1, instance.machines + 1)}
    for v in instance.ops:
        for k in instance.eligible[v]:
            on_machine[k].append(v)
    return {k: tuple(ops_k) for k, ops_k in on_machine.items()}


def disjunctive_pairs(instance: Instance) -> dict[int, tuple[tuple[int, int], ...]]:
    """Map each machine ``k`` to the ordered pairs of distinct operations eligible together on ``k``."""
    return {k: tuple(permutations(ops_k, 2)) for k, ops_k in _ops_by_machine(instance).items()}


class _PairView(Set):
    """The ordered same-machine pairs of a selection, as a read-only set built on use."""

    _from_iterable = frozenset  # results of set operations

    def __init__(self, sequences: tuple[tuple[int, ...], ...]):
        self._sequences = sequences

    def __len__(self) -> int:
        return sum(len(seq) * (len(seq) - 1) // 2 for seq in self._sequences)

    def __iter__(self):
        return ((v, w) for seq in self._sequences for i, v in enumerate(seq) for w in seq[i + 1:])

    def __contains__(self, pair: object) -> bool:
        return pair in frozenset(self)


@dataclass(frozen=True)
class Selection:
    """The processing order on each machine, in linear space.

    ``sequences[k - 1]`` lists every operation assigned to machine ``k`` in
    processing order; ``v`` precedes ``w`` iff it comes first on their
    machine.  Sequences are stored as tuples, so two selections that order
    the same pairs under the same assignment compare equal.
    """

    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequences", tuple(tuple(seq) for seq in self.sequences))

    @property
    def pairs(self) -> Set[tuple[int, int]]:
        """Every ordered same-machine pair ``(v, w)`` with ``v`` first; only ``len`` is cheap."""
        return _PairView(self.sequences)

    def positions(self) -> dict[int, tuple[int, int]]:
        """``(machine, index)`` of each operation listed in the sequences."""
        return {v: (k, i) for k, seq in enumerate(self.sequences, 1) for i, v in enumerate(seq)}


@dataclass(frozen=True)
class SolutionPair:
    """A machine assignment together with a selection; fixes everything but timing.

    ``assignment[v]`` is the machine of operation ``v``.
    """

    assignment: tuple[int, ...]
    selection: Selection


@dataclass(frozen=True)
class Schedule:
    """Start times plus the makespan they claim.

    Nothing else is stored: whether the schedule fits a solution is
    ``validate_solution``'s to decide, and a certificate of its makespan is
    ``certified_critical_path`` of the starts.
    """

    start: tuple[Rational, ...]
    makespan: Rational


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a feasibility check; empty ``issues`` means feasible."""

    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{i.kind}: {i.message}" for i in self.issues)


def _kahn(n: int, preds: Sequence[Sequence[int]], succs: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Kahn topological order; incomplete iff there is a cycle.

    The frontier is a stack, popped depth first with the lowest id first:
    the sources go on it in descending order, and so do the successors
    that each popped operation releases.  ``succs`` are the ascending
    successor lists of ``preds``, made from them when not given.
    """
    if succs is None:
        succs = [[] for _ in range(n)]
        for w in range(n):
            for u in preds[w]:
                succs[u].append(w)
    indeg = list(map(len, preds))
    stack = [v for v in range(n - 1, -1, -1) if not indeg[v]]
    pop, push = stack.pop, stack.append
    order = []
    while stack:
        v = pop()
        order.append(v)
        for w in reversed(succs[v]):
            indeg[w] -= 1
            if not indeg[w]:
                push(w)
    return order


def _longest_path(order: Iterable[int], preds: Sequence[Sequence[int]], weight: Sequence[Rational]) -> list[Rational]:
    """Heaviest path ending at each node, its own weight included.

    ``order`` must list every node after all of its ``preds``.
    """
    finish: list[Rational] = [0] * len(weight)
    for v in order:
        longest = 0
        for u in preds[v]:
            if finish[u] > longest:
                longest = finish[u]
        finish[v] = longest + weight[v]
    return finish


def _find_cycle(preds: Sequence[Sequence[int]], order: Sequence[int]) -> tuple[int, ...]:
    """A directed cycle as a node tuple, found among the nodes that ``order``,
    an incomplete Kahn order of ``preds``, left out."""
    remaining = set(range(len(preds))).difference(order)
    v = min(remaining)
    trail, pos = [], {}
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        v = min(u for u in preds[v] if u in remaining)
    return tuple(reversed(trail[pos[v]:]))


def _selection_preds(instance: Instance, sol: SolutionPair) -> list[list[int]]:
    """Precedence predecessors plus the operation just before each one on its machine.

    Raises SelectionError unless every operation has an eligible machine and
    each machine's sequence lists exactly its operations once.  These arcs
    reach what the full orientation reaches, and with positive times no
    other same-machine pair is ever tight.
    """
    n = instance.n_ops
    f = sol.assignment
    if len(f) != n:
        raise SelectionError(f"assignment covers {len(f)} of {n} operations")
    for v, k in enumerate(f):
        if k not in instance.eligible[v]:
            raise SelectionError(f"operation {v} assigned to ineligible machine {k}")
    sequences = sol.selection.sequences
    if len(sequences) != instance.machines:
        raise SelectionError(f"selection has {len(sequences)} sequences for {instance.machines} machines")
    preds = list(map(list, instance.preds))
    seen = [False] * n
    for k, seq in enumerate(sequences, 1):
        for i, v in enumerate(seq):
            if not (isinstance(v, int) and 0 <= v < n and f[v] == k):
                raise SelectionError(f"operation {v!r} is sequenced on machine {k} but not assigned to it")
            if seen[v]:
                raise SelectionError(f"operation {v} appears twice in the sequence of machine {k}")
            seen[v] = True
            if i:
                preds[v].append(seq[i - 1])
    for v in instance.ops:
        if not seen[v]:
            raise SelectionError(f"operation {v} is missing from the sequence of machine {f[v]}")
    return preds


def selection_from_starts(instance: Instance, assignment: tuple[int, ...], start: Sequence[Rational]) -> Selection:
    """Sequence each machine's operations by start time (ties by id).

    An operation on a machine the instance lacks is left out; the
    assignment check reports it.
    """
    sequences: dict[int, list[int]] = {k: [] for k in range(1, instance.machines + 1)}
    for v in sorted(instance.ops, key=start.__getitem__):  # stable, so ties keep ascending ids
        sequences.get(assignment[v], []).append(v)
    return Selection(tuple(sequences.values()))


def topological_order(n: int, preds: Sequence[Sequence[int]]) -> list[int]:
    """Kahn topological order with a depth-first frontier that pops the
    lowest id first (see ``_kahn``); raises on cycles."""
    order = _kahn(n, preds)
    if len(order) != n:
        raise InadmissibleError(_find_cycle(preds, order))
    return order


def tight_schedule(instance: Instance, sol: SolutionPair) -> Schedule:
    """Earliest-start schedule for an admissible solution.

    Each start equals the longest path length into the operation (processing
    times of the path's nodes, excluding the operation itself), computed by
    dynamic programming over a topological order.  This schedule has minimum
    makespan for the given assignment and selection.  Raises SelectionError
    for a malformed selection and InadmissibleError, naming the cycle, when
    the selection and the precedence arcs close a cycle.
    """
    preds = _selection_preds(instance, sol)
    p = [instance.ptime[v, k] for v, k in enumerate(sol.assignment)]
    finish = _longest_path(topological_order(instance.n_ops, preds), preds, p)
    return Schedule(start=tuple(finish[v] - p[v] for v in instance.ops), makespan=max(finish, default=0))


def certified_critical_path(
    instance: Instance,
    sol: SolutionPair,
    start: Sequence[Rational],
) -> tuple[int, ...]:
    """Path whose processing times sum to the makespan, or () if none.

    Backtracks from a makespan-achieving operation along edges met with
    equality; succeeds exactly when the given starts are tight along some
    chain back to time zero.  Ties break by lowest id.  Raises
    SelectionError for a malformed selection.
    """
    if instance.n_ops == 0:
        return ()
    f = sol.assignment
    preds = _selection_preds(instance, sol)
    finish = [start[v] + instance.ptime[v, f[v]] for v in instance.ops]
    path, tight = [], [finish.index(max(finish))]
    while tight:
        v = min(tight)
        path.append(v)
        tight = [u for u in preds[v] if finish[u] == start[v]]
    return tuple(reversed(path)) if start[v] == 0 else ()


def weakly_connected_components(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Components of the undirected precedence graph, each ascending and in
    the order of their lowest ids; a proxy for jobs.

    Each component is walked breadth first over the instance's predecessor
    and successor lists, from its lowest id.
    """
    preds, succs = instance.preds, instance.succs
    seen = [False] * instance.n_ops
    components = []
    for root in instance.ops:
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for v in component:  # the list grows as it is walked
            for w in chain(preds[v], succs[v]):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        component.sort()
        components.append(tuple(component))
    return tuple(components)


def validate_solution(instance: Instance, sol: SolutionPair, sched: Schedule) -> ValidationReport:
    """Check every schedule and selection invariant; never raises.

    Each violated constraint becomes one issue naming the offending
    operations.  The starts must follow the selection on each machine, or
    their own order (``selection_from_starts``) when it is malformed or cyclic.
    """
    issues: list[ValidationIssue] = []
    f = sol.assignment
    if len(f) != instance.n_ops:
        issues.append(
            ValidationIssue("assignment", f"assignment covers {len(f)} of {instance.n_ops} operations")
        )
    else:
        for v, k in enumerate(f):
            if k not in instance.eligible[v]:
                issues.append(ValidationIssue("assignment", f"operation {v} on ineligible machine {k}"))
    if len(sched.start) != instance.n_ops:
        issues.append(
            ValidationIssue("schedule", f"schedule covers {len(sched.start)} of {instance.n_ops} operations")
        )
    if issues:
        return ValidationReport(tuple(issues))

    s = sched.start
    p = [instance.ptime[v, f[v]] for v in instance.ops]
    try:
        preds = _selection_preds(instance, sol)
    except SelectionError as exc:
        issues.append(ValidationIssue("selection", str(exc)))
    else:
        # Times are positive, so exact starts that keep every arc rise
        # strictly along each path, and the arcs close no cycle: only a
        # broken arc calls for the cycle search.
        if any(s[u] + p[u] > s[v] for v in instance.ops for u in preds[v]):
            try:
                topological_order(instance.n_ops, preds)  # the cycle tight_schedule names
            except InadmissibleError as exc:
                issues.append(ValidationIssue("admissibility", f"cycle {'->'.join(map(str, exc.cycle))}"))
    # an issue so far is a malformed or cyclic selection: then follow the starts' own order
    sequences = (selection_from_starts(instance, sol.assignment, s) if issues else sol.selection).sequences

    for v in instance.ops:
        if s[v] < 0:
            issues.append(ValidationIssue("start-range", f"operation {v} starts at {_num_text(s[v])} < 0"))
    for u, w in instance.arcs:
        if s[u] + p[u] > s[w]:
            message = f"arc ({u}, {w}): {_num_text(s[u])} + {p[u]} > {_num_text(s[w])}"
            issues.append(ValidationIssue("precedence", message))
    for k, seq in enumerate(sequences, 1):
        for a, b in zip(seq, seq[1:]):
            if s[a] + p[a] > s[b]:
                issues.append(ValidationIssue("machine-conflict", f"operations {a} and {b} overlap on machine {k}"))
    if instance.n_ops:
        actual = max(s[v] + p[v] for v in instance.ops)
        if sched.makespan != actual:
            issues.append(
                ValidationIssue("makespan", f"recorded makespan {_num_text(sched.makespan)} != {_num_text(actual)}")
            )
    elif sched.makespan != 0:
        issues.append(ValidationIssue("makespan", "empty instance must have makespan 0"))
    return ValidationReport(tuple(issues))

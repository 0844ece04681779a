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
iteration breaks ties by ascending id.
"""

from __future__ import annotations

import heapq
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Set
from itertools import islice
from typing import Iterable, Mapping, Sequence

Rational = int | Fraction

__all__ = [
    "FjsError",
    "InstanceError",
    "SelectionError",
    "InadmissibleError",
    "Instance",
    "DisjunctivePairs",
    "MachineAssignment",
    "Selection",
    "SolutionPair",
    "Schedule",
    "ValidationIssue",
    "ValidationReport",
    "check_time",
    "certified_critical_path",
    "disjunctive_pairs",
    "is_admissible",
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
    limits it equals ``repr``, dict key order included."""

    def __init__(self) -> None:
        super().__init__()
        self.maxstring = self.maxother = self.maxlong = 80
        self.maxlist = self.maxdict = self.maxtuple = 8
        self.maxlevel = 3

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


def check_time(value: object) -> Rational:
    """Validate a processing-time value: a positive int or Fraction.

    Fractions with denominator 1 are normalised to int.  Floats are refused
    because schedule feasibility is decided with exact comparisons.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InstanceError("bad-time", f"processing time must be int or Fraction, got {_echo(value)}")
    if value <= 0:
        raise InstanceError("nonpositive-time", f"processing time must be positive, got {value}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


@dataclass(frozen=True)
class Instance:
    """A flexible job shop instance.

    ``eligible[v]`` is the sorted tuple of machines that can run operation
    ``v`` and ``times[v][i]`` its processing time on ``eligible[v][i]``.
    ``arcs`` is the precedence DAG, kept sorted and deduplicated.  Validity
    (dense ids, machine ranges, positive times, acyclicity) is enforced at
    construction, so every ``Instance`` in circulation is well formed.
    """

    name: str
    machines: int
    eligible: tuple[tuple[int, ...], ...]
    times: tuple[tuple[Rational, ...], ...]
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise InstanceError("bad-machine-count", f"machine count must be >= 1, got {self.machines}")
        n = len(self.eligible)
        if len(self.times) != n:
            raise InstanceError("shape-mismatch", "eligible and times must have one entry per operation")
        eligible = tuple(tuple(row) for row in self.eligible)
        times = tuple(tuple(check_time(t) for t in row) for row in self.times)
        for v, machs in enumerate(eligible):
            if not machs:
                raise InstanceError("empty-eligible", f"operation {v} has no eligible machine")
            if len(times[v]) != len(machs):
                raise InstanceError("shape-mismatch", f"operation {v}: one time per eligible machine required")
            if any(k < 1 or k > self.machines for k in machs):
                raise InstanceError("bad-machine", f"operation {v}: machine id outside 1..{self.machines}")
            if tuple(sorted(set(machs))) != machs:
                raise InstanceError("bad-machine", f"operation {v}: eligible machines must be sorted and distinct")
        arcs = []
        for arc in self.arcs:
            u, w = arc
            ids = isinstance(u, int) and isinstance(w, int) and not (isinstance(u, bool) or isinstance(w, bool))
            if not ids or not (0 <= u < n and 0 <= w < n):
                raise InstanceError("dangling-arc", f"arc {_echo(arc)} references an unknown operation id")
            if u == w:
                raise InstanceError("self-loop", f"arc ({u}, {w}) is a self-loop")
            arcs.append((u, w))
        arcs = tuple(sorted(set(arcs)))
        object.__setattr__(self, "eligible", eligible)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "arcs", arcs)

        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for u, w in arcs:
            preds[w].append(u)
            succs[u].append(w)
        object.__setattr__(self, "_preds", tuple(tuple(x) for x in preds))
        object.__setattr__(self, "_succs", tuple(tuple(x) for x in succs))
        object.__setattr__(
            self, "_ptime", {(v, k): times[v][i] for v in range(n) for i, k in enumerate(eligible[v])}
        )
        order = _kahn(n, self._preds)
        if len(order) < n:
            cycle = _find_cycle(n, self._preds)
            raise InstanceError("cycle", f"precedence arcs contain a cycle: {'->'.join(map(str, cycle))}")
        object.__setattr__(self, "_order", tuple(order))

    @property
    def n_ops(self) -> int:
        return len(self.eligible)

    @property
    def ops(self) -> range:
        return range(self.n_ops)

    @property
    def order(self) -> tuple[int, ...]:
        """The operations in topological order of the arcs, ties by lowest id."""
        return self._order

    def ptime(self, v: int, k: int) -> Rational:
        """Processing time of operation ``v`` on machine ``k`` (must be eligible)."""
        return self._ptime[(v, k)]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._preds[v]

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succs[v]

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


@dataclass(frozen=True)
class DisjunctivePairs:
    """Ordered pairs of distinct operations that can share a machine.

    ``by_machine[k]`` lists the pairs eligible together on machine ``k``;
    ``pairs`` is their union and ``beta`` the sum of the per-machine counts
    (a pair appears once per shared machine).
    """

    by_machine: Mapping[int, tuple[tuple[int, int], ...]]
    pairs: tuple[tuple[int, int], ...]
    beta: int


def disjunctive_pairs(instance: Instance) -> DisjunctivePairs:
    """Enumerate the potential machine conflicts of an instance."""
    on_machine: dict[int, list[int]] = {k: [] for k in range(1, instance.machines + 1)}
    for v in instance.ops:
        for k in instance.eligible[v]:
            on_machine[k].append(v)
    by_machine = {}
    union: set[tuple[int, int]] = set()
    beta = 0
    for k in range(1, instance.machines + 1):
        ops_k = on_machine[k]
        pairs_k = tuple((v, w) for v in ops_k for w in ops_k if v != w)
        by_machine[k] = pairs_k
        union.update(pairs_k)
        beta += len(pairs_k)
    return DisjunctivePairs(by_machine=by_machine, pairs=tuple(sorted(union)), beta=beta)


@dataclass(frozen=True)
class MachineAssignment:
    """One machine per operation; ``machine[v]`` is the machine of operation ``v``."""

    machine: tuple[int, ...]

    def ptime(self, instance: Instance, v: int) -> Rational:
        return instance.ptime(v, self.machine[v])


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
    """A machine assignment together with a selection; fixes everything but timing."""

    assignment: MachineAssignment
    selection: Selection


@dataclass(frozen=True)
class Schedule:
    """Start times plus the derived makespan.

    ``critical_path`` certifies the makespan: the path's processing times sum
    to the makespan.  It is empty for the empty instance and for schedules
    with slack, where no path achieves it.
    """

    start: tuple[Rational, ...]
    makespan: Rational
    critical_path: tuple[int, ...]


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str
    ops: tuple[int, ...] = ()


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


def _kahn(n: int, preds: Sequence[Sequence[int]]) -> list[int]:
    """Kahn topological order with a min-id frontier; incomplete iff there is a cycle."""
    indeg = [len(p) for p in preds]
    succs: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        for u in preds[w]:
            succs[u].append(w)
    frontier = [v for v in range(n) if indeg[v] == 0]  # ascending, hence a heap
    order = []
    while frontier:
        v = heapq.heappop(frontier)
        order.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(frontier, w)
    return order


def _longest_path(order: Iterable[int], preds: Sequence[Sequence[int]], weight: Sequence[Rational]) -> list[Rational]:
    """Heaviest path ending at each node, its own weight included.

    ``order`` must list every node after all of its ``preds``.
    """
    finish: list[Rational] = [0] * len(weight)
    for v in order:
        finish[v] = max([finish[u] for u in preds[v]], default=0) + weight[v]
    return finish


def _find_cycle(n: int, preds: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Return a directed cycle as a node tuple, or () if the graph is acyclic."""
    order = _kahn(n, preds)
    if len(order) == n:
        return ()
    remaining = set(range(n)).difference(order)
    v = min(remaining)
    trail, pos = [], {}
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        v = min(u for u in preds[v] if u in remaining)
    return tuple(reversed(trail[pos[v]:]))


def _check_assignment(instance: Instance, assignment: MachineAssignment) -> None:
    if len(assignment.machine) != instance.n_ops:
        raise SelectionError(f"assignment covers {len(assignment.machine)} of {instance.n_ops} operations")
    for v, k in enumerate(assignment.machine):
        if k not in instance.eligible[v]:
            raise SelectionError(f"operation {v} assigned to ineligible machine {k}")


def _check_selection(instance: Instance, sol: SolutionPair) -> None:
    """Raise SelectionError unless each machine's sequence lists exactly its operations once."""
    _check_assignment(instance, sol.assignment)
    f = sol.assignment.machine
    sequences = sol.selection.sequences
    if len(sequences) != instance.machines:
        raise SelectionError(f"selection has {len(sequences)} sequences for {instance.machines} machines")
    seen = [False] * instance.n_ops
    for k, seq in enumerate(sequences, 1):
        for v in seq:
            if not (isinstance(v, int) and 0 <= v < instance.n_ops and f[v] == k):
                raise SelectionError(f"operation {v!r} is sequenced on machine {k} but not assigned to it")
            if seen[v]:
                raise SelectionError(f"operation {v} appears twice in the sequence of machine {k}")
            seen[v] = True
    for v in instance.ops:
        if not seen[v]:
            raise SelectionError(f"operation {v} is missing from the sequence of machine {f[v]}")


def _combined_preds(instance: Instance, selection: Selection) -> list[list[int]]:
    """Precedence predecessors plus the operation just before each one on its machine.

    These arcs reach what the full orientation reaches, and with positive
    times no other same-machine pair is ever tight.
    """
    preds = [list(instance.predecessors(v)) for v in instance.ops]
    for seq in selection.sequences:
        for a, b in zip(seq, seq[1:]):
            preds[b].append(a)
    return preds


def is_admissible(instance: Instance, sol: SolutionPair) -> bool:
    """True iff the precedence arcs plus the selection form a DAG.

    Raises SelectionError for a malformed selection; inadmissibility (a
    directed cycle) is an ordinary False.
    """
    _check_selection(instance, sol)
    preds = _combined_preds(instance, sol.selection)
    return not _find_cycle(instance.n_ops, preds)


def topological_order(n: int, preds: Sequence[Sequence[int]]) -> list[int]:
    """Kahn topological order with a min-id frontier; raises on cycles."""
    order = _kahn(n, preds)
    if len(order) != n:
        raise InadmissibleError(_find_cycle(n, preds))
    return order


def tight_schedule(instance: Instance, sol: SolutionPair) -> Schedule:
    """Earliest-start schedule for an admissible solution.

    Each start equals the longest path length into the operation (processing
    times of the path's nodes, excluding the operation itself), computed by
    dynamic programming over a topological order.  This schedule has minimum
    makespan for the given assignment and selection.
    """
    _check_selection(instance, sol)
    preds = _combined_preds(instance, sol.selection)
    p = [instance.ptime(v, k) for v, k in enumerate(sol.assignment.machine)]
    finish = _longest_path(topological_order(instance.n_ops, preds), preds, p)
    start = tuple(finish[v] - p[v] for v in instance.ops)
    path = certified_critical_path(instance, sol, start)
    return Schedule(start=start, makespan=max(finish, default=0), critical_path=path)


def certified_critical_path(
    instance: Instance,
    sol: SolutionPair,
    start: Sequence[Rational],
) -> tuple[int, ...]:
    """Path whose processing times sum to the makespan, or () if none.

    Backtracks from a makespan-achieving operation along edges met with
    equality; succeeds exactly when the given starts are tight along some
    chain back to time zero.  Ties break by lowest id.
    """
    if instance.n_ops == 0:
        return ()
    f = sol.assignment.machine
    preds = _combined_preds(instance, sol.selection)
    finish = [start[v] + instance.ptime(v, f[v]) for v in instance.ops]
    path, tight = [], [finish.index(max(finish))]
    while tight:
        v = min(tight)
        path.append(v)
        tight = [u for u in preds[v] if finish[u] == start[v]]
    return tuple(reversed(path)) if start[v] == 0 else ()


def weakly_connected_components(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Components of the undirected precedence graph; a proxy for jobs."""
    parent = list(instance.ops)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in instance.arcs:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[max(ru, rw)] = min(ru, rw)
    groups: dict[int, list[int]] = {}
    for v in instance.ops:
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def validate_solution(instance: Instance, sol: SolutionPair, sched: Schedule) -> ValidationReport:
    """Check every schedule and selection invariant; never raises.

    Each violated constraint becomes one issue naming the offending
    operations.
    """
    issues: list[ValidationIssue] = []
    f = sol.assignment.machine
    if len(f) != instance.n_ops:
        issues.append(
            ValidationIssue("assignment", f"assignment covers {len(f)} of {instance.n_ops} operations")
        )
    else:
        for v, k in enumerate(f):
            if k not in instance.eligible[v]:
                issues.append(ValidationIssue("assignment", f"operation {v} on ineligible machine {k}", (v,)))
    if len(sched.start) != instance.n_ops:
        issues.append(
            ValidationIssue("schedule", f"schedule covers {len(sched.start)} of {instance.n_ops} operations")
        )
    if issues:
        return ValidationReport(tuple(issues))

    try:
        _check_selection(instance, sol)
    except SelectionError as exc:
        issues.append(ValidationIssue("selection", str(exc)))
    else:
        preds = _combined_preds(instance, sol.selection)
        if _find_cycle(instance.n_ops, preds):
            for v, w in sol.selection.pairs:  # name the cycle the full orientation gives
                preds[w].append(v)
            cycle = _find_cycle(instance.n_ops, preds)
            issues.append(
                ValidationIssue("admissibility", f"cycle {'->'.join(map(str, cycle))}", cycle)
            )

    p = [instance.ptime(v, f[v]) for v in instance.ops]
    s = sched.start
    for v in instance.ops:
        if s[v] < 0:
            issues.append(ValidationIssue("start-range", f"operation {v} starts at {s[v]} < 0", (v,)))
    for u, w in instance.arcs:
        if s[u] + p[u] > s[w]:
            issues.append(
                ValidationIssue(
                    "precedence", f"arc ({u}, {w}): {s[u]} + {p[u]} > {s[w]}", (u, w)
                )
            )
    by_machine: dict[int, list[int]] = {}
    for v in instance.ops:
        by_machine.setdefault(f[v], []).append(v)
    for k, ops_k in sorted(by_machine.items()):
        ops_k.sort(key=lambda v: (s[v], v))
        for a, b in zip(ops_k, ops_k[1:]):
            if s[a] + p[a] > s[b]:
                issues.append(
                    ValidationIssue(
                        "machine-conflict",
                        f"operations {a} and {b} overlap on machine {k}",
                        (a, b),
                    )
                )
    if instance.n_ops:
        actual = max(s[v] + p[v] for v in instance.ops)
        if sched.makespan != actual:
            issues.append(
                ValidationIssue("makespan", f"recorded makespan {sched.makespan} != {actual}")
            )
    elif sched.makespan != 0:
        issues.append(ValidationIssue("makespan", "empty instance must have makespan 0"))
    if sched.critical_path:
        path = sched.critical_path
        arcs = set(instance.arcs)
        pos = sol.selection.positions()

        def is_edge(a: int, b: int) -> bool:
            pa, pb = pos.get(a), pos.get(b)
            return (a, b) in arcs or bool(pa and pb and pa[0] == pb[0] and pa < pb)

        if not all(is_edge(a, b) for a, b in zip(path, path[1:])):
            issues.append(ValidationIssue("critical-path", "not a path of the combined graph", path))
        elif sum(p[v] for v in path) != sched.makespan:
            issues.append(
                ValidationIssue("critical-path", "path length does not equal the makespan", path)
            )
    return ValidationReport(tuple(issues))

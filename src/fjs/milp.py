"""Solver-agnostic MILP builders for the scheduling problem, plus point codecs.

Two formulations are provided.  The compact model keeps one start variable
per operation and resolves machine conflicts with big-M rows over ordered
operation pairs.  The machine-indexed model carries start and completion
variables per (operation, machine) pair, a sequencing binary per ordered pair
and machine, and zeroes out the timing variables of unchosen machines.  Both
minimise a single makespan variable ``z``.  Besides ``z``, the compact
variables are ``s_v``, ``x_v_k`` and ``y_v_w`` (``_compact_names``), and the
machine-indexed ones ``s_v_k``, ``t_v_k``, ``x_v_k`` and ``y_v_w_k``
(``_machine_indexed_names``); every other function looks names up there.  Each
layout is made once per instance and kept while the instance lives, so the
builder, the codecs and the gap witness of one instance share it; names and row
names are spelled from the decimal text of the ids (``_id_text``), made once per
instance too.

Feasible solutions translate to feasible model points and back; the codecs
here implement both directions exactly (exact arithmetic: ``int``
coefficients for integral data, ``Fraction`` only where needed).
``check_feasible`` evaluates a point against a model exactly, which also
serves the LP-relaxation checks: it never enforces
integrality, so a fractional point can be certified against the relaxed
polyhedron directly.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps
from itertools import chain, permutations, repeat
from operator import eq, itemgetter, ne
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    FjsError,
    InadmissibleError,
    Instance,
    Rational,
    Schedule,
    Selection,
    SolutionPair,
    ValidationIssue,
    ValidationReport,
    disjunctive_pairs,
    tight_schedule,
    topological_order,
    validate_solution,
    _echo,
    _longest_path,
    _num_text,
    _ops_by_machine,
)

__all__ = [
    "PointError",
    "WitnessError",
    "Variable",
    "LinearConstraint",
    "MilpModel",
    "ModelPoint",
    "build_compact_model",
    "build_machine_indexed_model",
    "encode_compact",
    "decode_compact",
    "encode_machine_indexed",
    "decode_machine_indexed",
    "check_feasible",
    "machine_indexed_gap_witness",
    "makespan_lower_bound",
    "default_horizon",
]

CONTINUOUS = "continuous"
BINARY = "binary"
_RELATIONS = {"<=", "=", ">="}
_first, _second = itemgetter(0), itemgetter(1)  # a record's name; a row's terms or a term's variable


class PointError(FjsError):
    """A model point that cannot be decoded or evaluated."""


class WitnessError(FjsError):
    """The gap-witness preconditions do not hold for this instance."""


class Variable(NamedTuple):
    """A model variable: ``binary`` with bounds 0 and 1, or ``continuous``."""

    name: str
    kind: str
    lower: Rational = 0
    upper: Rational | None = None  # None = +inf


class LinearConstraint(NamedTuple):
    """An immutable tuple record: ``sum(coef * var for coef, var in terms) relation rhs``."""

    name: str
    terms: tuple[tuple[Rational, str], ...]
    relation: str  # "<=", "=", ">="
    rhs: Rational


@dataclass(frozen=True)
class MilpModel:
    """Variables of kind ``binary`` (bounds 0 and 1) or ``continuous`` with distinct names, rows
    of relation ``<=``, ``=`` or ``>=``, and terms naming declared variables only: checked once,
    here, so every reader relies on them.

    Each check is one pass in C over all records; only a pass that fails walks the records in
    order, to name the first offender.
    """

    name: str
    variables: tuple[Variable, ...]
    objective: tuple[tuple[Rational, str], ...]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self) -> None:
        variables, constraints = self.variables, self.constraints
        # A triple other than a binary's must be a continuous variable's; compared, never hashed.
        odd = filter(partial(ne, (BINARY, 0, 1)), map(itemgetter(1, 2, 3), variables))
        if not all(map(eq, map(_first, odd), repeat(CONTINUOUS))):
            for name, kind, lower, upper in variables:
                if kind != CONTINUOUS and (kind, lower, upper) != (BINARY, 0, 1):
                    if kind != BINARY:
                        raise ValueError(f"variable {name}: kind must be {BINARY!r} or {CONTINUOUS!r}, got {kind!r}")
                    raise ValueError(f"binary {name} must have bounds 0 and 1, got {lower} and {upper}")
        names = set(map(_first, variables))
        if len(names) < len(variables):
            counts = Counter(map(_first, variables))
            raise ValueError(f"variable {next(name for name, n in counts.items() if n > 1)} is declared twice")
        if not _RELATIONS.issuperset(map(itemgetter(2), constraints)):
            name, _, relation, _ = next(row for row in constraints if row.relation not in _RELATIONS)
            raise ValueError(f"row {name}: relation must be '<=', '=' or '>=', got {relation!r}")
        # every term of the objective and the rows, read with no list of all terms
        terms = chain(self.objective, chain.from_iterable(map(_second, constraints)))
        if not names.issuperset(map(_second, terms)):
            rows = [("objective", self.objective), *((f"row {row.name}", row.terms) for row in constraints)]
            for where, row_terms in rows:
                for _, var in row_terms:
                    if var not in names:
                        raise ValueError(f"{where}: term names undeclared variable {var}")


@dataclass(frozen=True)
class ModelPoint:
    """An assignment of a rational value to every variable of a model."""

    values: Mapping[str, Rational]

    def __getitem__(self, name: str) -> Rational:
        return self.values[name]


def _per_instance(layout):
    """Make ``layout(instance)`` once per instance and keep it while the instance lives.

    Equal instances share one entry; their layouts are equal.  Callers read the tables and
    never change them.
    """
    made: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @wraps(layout)
    def lookup(instance: Instance):
        tables = made.get(instance)
        if tables is None:
            tables = made[instance] = layout(instance)
        return tables

    return lookup


@_per_instance
def _id_text(instance: Instance) -> tuple[str, ...]:
    """``str(i)`` at index ``i`` for every operation id and machine id: names and row names are
    spelled from this text, which is made once per instance."""
    return tuple(map(str, range(max(instance.n_ops, instance.machines + 1))))


def _x_names(instance: Instance) -> list[dict[int, str]]:
    ids = _id_text(instance)
    return [{k: f"x_{ids[v]}_{ids[k]}" for k in instance.eligible[v]} for v in instance.ops]


@_per_instance
def _compact_names(instance: Instance):
    """The operations ``on_machine[k]`` eligible on each machine and the compact model's names
    ``s[v]``, ``x[v][k]`` and ``y[v, w]``, each keyed in model order.

    ``y`` covers the sorted union of the per-machine conflict pairs, the
    ``permutations(on_machine[k], 2)`` that ``disjunctive_pairs`` gives.  The layout keeps the
    operation tuples, not the pairs, which would hold one tuple per pair while the instance lives.
    """
    ids = _id_text(instance)
    on_machine = _ops_by_machine(instance)
    pairs = sorted(set(chain.from_iterable(permutations(ops_k, 2) for ops_k in on_machine.values())))
    y = dict(zip(pairs, [f"y_{ids[v]}_{ids[w]}" for v, w in pairs]))
    return on_machine, list(map("s_".__add__, ids[: instance.n_ops])), _x_names(instance), y


@_per_instance
def _machine_indexed_names(instance: Instance):
    """The machine-indexed names ``s[v][k]``, ``t[v][k]``, ``x[v][k]`` and ``y[k][v, w]``, keyed in
    model order; the keys of ``y[k]`` are machine ``k``'s conflict pairs."""
    ids = _id_text(instance)
    s = [{k: f"s_{ids[v]}_{ids[k]}" for k in instance.eligible[v]} for v in instance.ops]
    t = [{k: f"t_{ids[v]}_{ids[k]}" for k in instance.eligible[v]} for v in instance.ops]
    y = {
        k: dict(zip(row, [f"y_{ids[v]}_{ids[w]}_{ids[k]}" for v, w in row]))
        for k, row in disjunctive_pairs(instance).items()
    }
    return s, t, _x_names(instance), y


def _check_horizon(L: Rational) -> None:
    if not isinstance(L, (int, Fraction)) or isinstance(L, bool):
        raise ValueError(f"horizon L must be int or Fraction, got {L!r}")
    if L <= 0:
        raise ValueError(f"horizon L must be positive, got {_num_text(L)}")


def _variables(names: Iterable[str], kind: str) -> Iterator[Variable]:
    """A ``kind`` variable per name, with the bounds of its kind, each made by ``tuple.__new__``
    in C (the record's own ``__new__`` is a Python function)."""
    lower, upper = (0, 1) if kind == BINARY else (0, None)
    return map(tuple.__new__, repeat(Variable), zip(names, repeat(kind), repeat(lower), repeat(upper)))


def _assign_rows(ids: tuple[str, ...], x: list[dict[int, str]]) -> list[LinearConstraint]:
    """The rows ``assign_v``, one machine per operation, which both formulations share."""
    new = tuple.__new__
    return [
        new(LinearConstraint, (f"assign_{ids[v]}", tuple([(1, name) for name in row.values()]), "=", 1))
        for v, row in enumerate(x)
    ]


def build_compact_model(instance: Instance, L: Rational) -> MilpModel:
    """Operation-indexed model: start per operation, big-M machine conflicts.

    Variables: z; s_v >= 0; binary x_v_k for eligible (v, k); binary y_v_w per
    ordered conflict pair.  The assigned processing time is substituted
    inline as ``sum_k p(v,k) x_v_k``, so the model has ``2|V| + |A| + |B| +
    beta`` rows and ``|V| + phi + |B|`` variables besides z.
    """
    _check_horizon(L)
    ops = instance.ops

    # Each name, and each term that recurs, is made once and shared by every row using it; each
    # record is made by tuple.__new__ in C.
    ids = _id_text(instance)
    on_machine, s, x, y = _compact_names(instance)
    s_plus = [(1, name) for name in s]
    s_minus = [(-1, name) for name in s]
    x_minus = [{k: (-1, name) for k, name in row.items()} for row in x]
    y_plus = {pair: (1, name) for pair, name in y.items()}
    ptime_terms = [tuple(zip(instance.times[v], x[v].values())) for v in ops]
    minus_z = (-1, "z")
    new = tuple.__new__

    variables = [*_variables(chain(("z",), s), CONTINUOUS)]
    variables += _variables(chain(*map(dict.values, x), y.values()), BINARY)

    rows = [new(LinearConstraint, (f"cmax_{ids[v]}", (s_plus[v], *ptime_terms[v], minus_z), "<=", 0)) for v in ops]
    rows += _assign_rows(ids, x)
    for k, ops_k in on_machine.items():
        prefix = f"sel_{ids[k]}_"
        for v, w in permutations(ops_k, 2):
            terms = (y_plus[v, w], y_plus[w, v], x_minus[v][k], x_minus[w][k])
            rows.append(new(LinearConstraint, (f"{prefix}{ids[v]}_{ids[w]}", terms, ">=", -1)))
    for u, v in instance.arcs:
        terms = (s_plus[u], *ptime_terms[u], s_minus[v])
        rows.append(new(LinearConstraint, (f"pprec_{ids[u]}_{ids[v]}", terms, "<=", 0)))
    for pair, name in y.items():
        v, w = pair
        terms = (s_plus[v], *ptime_terms[v], (L, name), s_minus[w])
        rows.append(new(LinearConstraint, (f"disj_{ids[v]}_{ids[w]}", terms, "<=", L)))

    return MilpModel(
        name=f"{instance.name}-compact",
        variables=tuple(variables),
        objective=((1, "z"),),
        constraints=tuple(rows),
    )


def build_machine_indexed_model(instance: Instance, L: Rational) -> MilpModel:
    """Machine-indexed model: start/completion per (operation, machine).

    Timing variables of unchosen machines are forced to zero, precedence rows
    couple the per-machine sums, and only terminal operations bound z.  The
    pair-orientation rows are emitted once per ordered pair, so the model has
    ``|V| + |A| + phi_hat + 2 phi + 2 beta`` rows and ``3 phi + beta``
    variables besides z.
    """
    _check_horizon(L)
    ops, eligible = instance.ops, instance.eligible

    # Each name, and each term that recurs, is made once and shared by every row using it; each
    # record is made by tuple.__new__ in C.
    ids = _id_text(instance)
    s, t, x, y = _machine_indexed_names(instance)
    s_plus = [{k: (1, name) for k, name in row.items()} for row in s]
    s_minus = [{k: (-1, name) for k, name in row.items()} for row in s]
    t_plus = [{k: (1, name) for k, name in row.items()} for row in t]
    y_plus = {k: {pair: (1, name) for pair, name in row.items()} for k, row in y.items()}
    new = tuple.__new__

    variables = [*_variables(chain(("z",), *map(dict.values, s), *map(dict.values, t)), CONTINUOUS)]
    variables += _variables(chain(*map(dict.values, x), *map(dict.values, y.values())), BINARY)

    minus_z = (-1, "z")
    rows = [
        new(LinearConstraint, (f"cmax_{ids[v]}_{ids[k]}", (term, minus_z), "<=", 0))
        for v in ops
        if not instance.succs[v]
        for k, term in t_plus[v].items()
    ]
    rows += _assign_rows(ids, x)
    minus_2L = -2 * L
    for v in ops:
        for k, name in x[v].items():
            terms = (s_plus[v][k], t_plus[v][k], (minus_2L, name))
            rows.append(new(LinearConstraint, (f"link_{ids[v]}_{ids[k]}", terms, "<=", 0)))
    for k, plus in y_plus.items():
        prefix = f"sel_{ids[k]}_"
        for v, w in plus:
            rows.append(new(LinearConstraint, (f"{prefix}{ids[v]}_{ids[w]}", (plus[v, w], plus[w, v]), "=", 1)))
    for v in ops:
        for k, p in zip(eligible[v], instance.times[v]):
            terms = (s_plus[v][k], (-1, t[v][k]), (L, x[v][k]))
            rows.append(new(LinearConstraint, (f"comp_{ids[v]}_{ids[k]}", terms, "<=", L - p)))
    for k, row in y.items():
        prefix = f"disj_{ids[k]}_"
        for pair, name in row.items():
            v, w = pair
            terms = (t_plus[v][k], s_minus[w][k], (L, name))
            rows.append(new(LinearConstraint, (f"{prefix}{ids[v]}_{ids[w]}", terms, "<=", L)))
    for u, v in instance.arcs:
        terms = (*t_plus[u].values(), *s_minus[v].values())
        rows.append(new(LinearConstraint, (f"pprec_{ids[u]}_{ids[v]}", terms, "<=", 0)))

    return MilpModel(
        name=f"{instance.name}-machine-indexed",
        variables=tuple(variables),
        objective=((1, "z"),),
        constraints=tuple(rows),
    )


def check_feasible(model: MilpModel, point: ModelPoint) -> ValidationReport:
    """Evaluate every constraint and bound of the model at the point, exactly.

    Integrality is never enforced, so this doubles as the LP-relaxation
    check.
    """
    values = point.values
    issues: list[ValidationIssue] = []
    # Model names are distinct: a point of as many names that has each holds exactly them.
    try:
        if len(values) != len(model.variables):
            raise KeyError
        for name, _, lower, upper in model.variables:
            val = values[name]
            if val < lower:
                issues.append(ValidationIssue("bound", f"{name} = {_num_text(val)} below lower bound {_num_text(lower)}"))
            if upper is not None and val > upper:
                issues.append(ValidationIssue("bound", f"{name} = {_num_text(val)} above upper bound {_num_text(upper)}"))
    except KeyError:
        _expect_names(point, {var.name for var in model.variables})
        raise
    for name, terms, relation, rhs in model.constraints:
        lhs = 0
        for coef, var in terms:
            lhs += coef * values[var]
        if relation == "<=":
            excess = lhs - rhs
        elif relation == ">=":
            excess = rhs - lhs
        else:
            excess = abs(lhs - rhs)
        if excess > 0:
            message = f"{name}: lhs {_num_text(lhs)} {relation} {_num_text(rhs)} violated by {_num_text(excess)}"
            issues.append(ValidationIssue("constraint", message))
    return ValidationReport(tuple(issues))


def encode_compact(instance: Instance, sol: SolutionPair) -> ModelPoint:
    """Map an admissible solution to a feasible compact-model point.

    Starts come from the tight schedule and z is its makespan, so the point
    satisfies every row of ``build_compact_model(instance, L)`` whenever
    ``L >= makespan``.
    """
    sched = tight_schedule(instance, sol)
    _, s, x, y = _compact_names(instance)
    f = sol.assignment
    pos = sol.selection.positions()
    values: dict[str, Rational] = {"z": sched.makespan}
    for v in instance.ops:
        values[s[v]] = sched.start[v]
        for k, name in x[v].items():
            values[name] = 1 if f[v] == k else 0
    for (v, w), name in y.items():
        values[name] = 1 if f[v] == f[w] and pos[v] < pos[w] else 0
    return ModelPoint(values)


def encode_machine_indexed(instance: Instance, sol: SolutionPair) -> ModelPoint:
    """Map an admissible solution to a feasible machine-indexed point.

    Off-machine sequencing binaries follow operation ids: an
    unassigned-versus-assigned pair always yields to the assigned one, and
    two unassigned operations order by id, the higher first.  The
    point satisfies the model whenever ``L >= makespan`` and ``L`` is at
    least every processing time.
    """
    sched = tight_schedule(instance, sol)
    pos = sol.selection.positions()
    s, t, x, y = _machine_indexed_names(instance)
    f = sol.assignment
    values: dict[str, Rational] = {"z": sched.makespan}
    for v in instance.ops:
        for k, p in zip(instance.eligible[v], instance.times[v]):
            on = f[v] == k
            values[s[v][k]] = sched.start[v] if on else 0
            values[t[v][k]] = sched.start[v] + p if on else 0
            values[x[v][k]] = 1 if on else 0
    for k, row in y.items():
        for (v, w), name in row.items():
            if f[v] == k and f[w] == k:
                bit = 1 if pos[v] < pos[w] else 0
            elif f[v] != k and f[w] == k:
                bit = 1
            elif f[v] != k and f[w] != k:
                bit = 1 if v > w else 0
            else:
                bit = 0
            values[name] = bit
    return ModelPoint(values)


def _expect_layout(point: ModelPoint, groups: list) -> None:
    """Refuse a point whose names are not ``z`` and those of ``groups``, disjoint collections of
    distinct names: the size and each name's membership decide, and sets are built only to word
    the ``PointError``."""
    values = point.values
    if len(values) != 1 + sum(map(len, groups)) or not all(map(values.__contains__, chain(("z",), *groups))):
        _expect_names(point, set(chain(("z",), *groups)))


def _expect_names(point: ModelPoint, expected: set[str]) -> None:
    given = set(point.values)
    unknown = given - expected
    if unknown:
        raise PointError(f"unknown variable names in point: {_echo(sorted(unknown)[:5])}")
    missing = expected - given
    if missing:
        raise PointError(f"point is missing variables: {sorted(missing)[:5]}")


def _binary(point: ModelPoint, name: str) -> int:
    val = point[name]
    if val == 0:
        return 0
    if val == 1:
        return 1
    raise PointError(f"non-integral binary {name} = {_num_text(val)}")


def _read_binaries(
    instance: Instance, point: ModelPoint, x: list[dict[int, str]], y_name: Callable[[int, int, int], str]
) -> SolutionPair:
    """The solution a point's binaries encode: ``x`` gives the assignment and
    ``y_name(k, v, w)`` names the binary "v before w on machine k".

    Only the pairs sharing an assigned machine are read, each once.  An
    operation's index counts those oriented before it; the indices are a
    permutation iff the orientation is transitive, that is, acyclic on each
    machine.  Cycles through the precedence arcs are left to the decoder's
    schedule check.
    """
    f, on_machine = [], [[] for _ in range(instance.machines + 1)]
    for v, row in enumerate(x):
        chosen = [k for k, name in row.items() if _binary(point, name)]
        if not chosen:
            raise PointError(f"no machine selected for operation {v}")
        if len(chosen) > 1:
            raise PointError(f"multiple machines selected for operation {v}: {chosen}")
        f.append(chosen[0])
        on_machine[chosen[0]].append(v)
    indices = []
    for k, ops_k in enumerate(on_machine[1:], 1):
        index = dict.fromkeys(ops_k, 0)
        for i, v in enumerate(ops_k):
            for w in ops_k[i + 1 :]:
                v_first = _binary(point, y_name(k, v, w))
                if v_first == _binary(point, y_name(k, w, v)):
                    state = "both orientations" if v_first else "no orientation"
                    raise PointError(f"infeasible point: pair ({v}, {w}) has {state} selected")
                index[w if v_first else v] += 1
        indices.append(index)
    if any(sorted(index.values()) != list(range(len(index))) for index in indices):
        raise PointError("infeasible point: selection induces a precedence cycle")
    return SolutionPair(tuple(f), Selection([sorted(index, key=index.__getitem__) for index in indices]))


def decode_compact(instance: Instance, point: ModelPoint) -> tuple[SolutionPair, Schedule]:
    """Recover the solution encoded by an integral compact-model point.

    Sequencing binaries of pairs that do not share the assigned machine carry
    no meaning, but must still be 0 or 1.  The returned schedule is the tight
    schedule of the recovered solution; its makespan never exceeds the point's z.
    """
    _, s, x, y = _compact_names(instance)
    _expect_layout(point, [s, y.values(), *(row.values() for row in x)])

    sol = _read_binaries(instance, point, x, lambda k, v, w: y[v, w])
    f = sol.assignment
    for (v, w), name in y.items():
        if f[v] != f[w]:  # the reader has read the pairs sharing a machine
            _binary(point, name)
    try:
        sched = tight_schedule(instance, sol)
    except InadmissibleError as exc:
        raise PointError(f"infeasible point: cycle {'->'.join(map(str, exc.cycle))}") from exc
    if instance.n_ops and sched.makespan > point["z"]:
        z, makespan = _num_text(point["z"]), _num_text(sched.makespan)
        raise PointError(f"infeasible point: z = {z} below the tight makespan {makespan}")
    return sol, sched


def decode_machine_indexed(instance: Instance, point: ModelPoint) -> tuple[SolutionPair, Schedule]:
    """Recover the solution encoded by an integral machine-indexed point.

    Only the sequencing binaries of assigned machines are read.  The schedule
    uses the point's own start values on the chosen machines;
    ``validate_solution`` decides whether they fit the recovered solution,
    and whether its selection closes a cycle with the precedence arcs.
    """
    s, t, x, y = _machine_indexed_names(instance)
    _expect_layout(point, [row.values() for table in (s, t, x, y.values()) for row in table])

    sol = _read_binaries(instance, point, x, lambda k, v, w: y[k][v, w])
    f = sol.assignment
    start = tuple(point[s[v][f[v]]] for v in instance.ops)
    makespan = max((start[v] + instance.ptime[v, f[v]] for v in instance.ops), default=0)
    sched = Schedule(start, makespan)
    report = validate_solution(instance, sol, sched)
    if not report.ok:
        raise PointError(f"infeasible point: {report.issues[0].message}")
    if instance.n_ops and makespan > point["z"]:
        raise PointError(f"infeasible point: z = {_num_text(point['z'])} below the makespan {_num_text(makespan)}")
    return sol, sched


def machine_indexed_gap_witness(instance: Instance, L: Rational) -> ModelPoint:
    """Zero-objective fractional point for the machine-indexed relaxation.

    All timing variables are zero, every assignment binary is spread
    uniformly over the operation's eligible machines, every sequencing
    binary is 1/2, and z = 0.  Requires every processing time at most L/2
    and at least two eligible machines for every operation (the uniform
    assignment row then keeps each component at most 1/2, which is what the
    zeroed completion rows tolerate).  Its objective value 0 shows the
    relaxation bound can be arbitrarily far below the true optimum.
    """
    _check_horizon(L)
    for v in instance.ops:
        if len(instance.eligible[v]) < 2:
            raise WitnessError(f"operation {v} has a single eligible machine; need at least 2")
        for k in instance.eligible[v]:
            if 2 * instance.ptime[v, k] > L:
                raise WitnessError(
                    f"processing time p({v},{k}) = {instance.ptime[v, k]} exceeds L/2 = {Fraction(L) / 2}"
                )
    s, t, x, y = _machine_indexed_names(instance)
    values: dict[str, Rational] = {"z": 0}
    for v in instance.ops:
        share = Fraction(1, len(instance.eligible[v]))
        for k in instance.eligible[v]:
            values.update({s[v][k]: 0, t[v][k]: 0, x[v][k]: share})
    values.update((name, Fraction(1, 2)) for row in y.values() for name in row.values())
    return ModelPoint(values)


def makespan_lower_bound(instance: Instance) -> Rational:
    """Longest path with per-operation minimum times: a valid optimum bound."""
    preds = instance.preds
    pmin = [min(row) for row in instance.times]
    return max(_longest_path(topological_order(instance.n_ops, preds), preds, pmin), default=0)


def default_horizon(instance: Instance, est_makespan: Rational | None = None) -> Rational:
    """Big-M horizon: a provided heuristic makespan, else the sum of maxima."""
    if est_makespan is not None:
        return est_makespan
    return sum(max(row) for row in instance.times)

"""Exact makespan minimisation at desk scale.

Two independent routes: ``brute_force`` enumerates every machine assignment
and every admissible per-machine ordering, and is the ground truth for tests;
``solve_branch_and_bound`` builds schedules forward with Giffler and
Thompson's conflict-set branching, restricted to one machine per node: the
machine k* on which some ready operation completes earliest, at theta.  Each
child appends a different ready operation to k*'s sequence, and sequences
only grow, so two subtrees never share a partial schedule: none is built
twice and no table of visited states is needed.  At least one child still
leads to an optimum (see ``_Search.expand``), so exhausting the tree proves
optimality.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import (
    Instance,
    Rational,
    Schedule,
    Selection,
    SolutionPair,
    tight_schedule,
    _kahn,
    _longest_path,
)
from .heuristic import earliest_start_heuristic

__all__ = ["SolveResult", "CapError", "brute_force", "solve_branch_and_bound"]

STATUS_OPTIMAL = "optimal"
STATUS_BOUND_PAIR = "bound-pair"


class CapError(Exception):
    """Instance exceeds the enumeration caps of the brute-force oracle."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact run.

    ``status`` is ``optimal`` when the search space was exhausted (then
    ``lower_bound == upper_bound == schedule makespan``) and ``bound-pair``
    when the time limit was hit with a proven gap.
    """

    solution: SolutionPair
    schedule: Schedule
    lower_bound: Rational
    upper_bound: Rational
    status: str
    nodes_explored: int
    elapsed: float


def brute_force(instance: Instance, max_ops: int = 9, max_assignments: int = 100_000) -> SolveResult:
    """Exhaustive optimum by enumerating assignments and per-machine orders.

    Candidate orders are per-machine permutations; inadmissible combinations
    (cycles with the precedence arcs) are filtered out.  Intended for tiny
    instances only, hence the caps.
    """
    t0 = time.monotonic()
    n = instance.n_ops
    if n > max_ops:
        raise CapError(f"{n} operations exceed the cap of {max_ops}")
    n_assignments = 1
    for row in instance.eligible:
        n_assignments *= len(row)
    if n_assignments > max_assignments:
        raise CapError(f"{n_assignments} assignments exceed the cap of {max_assignments}")

    base_preds = [list(instance.predecessors(v)) for v in range(n)]
    best_mks = None
    best = None
    examined = 0
    for assignment in itertools.product(*instance.eligible):
        p = [instance.ptime(v, assignment[v]) for v in range(n)]
        groups: list[list[int]] = [[] for _ in range(instance.machines)]
        for v in range(n):
            groups[assignment[v] - 1].append(v)
        for sequences in itertools.product(*map(itertools.permutations, groups)):
            examined += 1
            preds = [list(ps) for ps in base_preds]
            for seq in sequences:
                for a, b in zip(seq, seq[1:]):
                    preds[b].append(a)
            order = _kahn(n, preds)
            if len(order) < n:
                continue  # the sequences close a cycle with the arcs
            mks = max(_longest_path(order, preds, p), default=0)
            if best_mks is None or mks < best_mks:
                best_mks = mks
                best = SolutionPair(assignment, Selection(sequences))
    sol, sched = best, tight_schedule(instance, best)
    return SolveResult(sol, sched, best_mks, best_mks, STATUS_OPTIMAL, examined, time.monotonic() - t0)


class BnbNode(NamedTuple):
    """A partial forward schedule: a prefix of (operation, machine) decisions.

    Its makespan so far is ``max(machine_avail)``: each machine's newest
    operation ends last on that machine.
    """

    lower_bound: Rational
    scheduled_mask: int
    ready_time: tuple[Rational, ...]
    machine_avail: tuple[Rational, ...]
    machine_seq: tuple[tuple[int, ...], ...]


class _Search:
    """State of one depth-first branch-and-bound run.

    The instance is read once, into zero-based tables: ``options[v]`` holds
    the ``(machine, time)`` pairs of operation v and ``ptime[v]`` the same as
    a dict; ``rows`` holds, in topological order, ``(v, 1 << v, eligible
    machines, ((u, 1 << u) for each predecessor u), least time of v)``; and
    ``single`` holds, per machine, the ``(1 << v, least time)`` of each
    operation that only that machine can run.
    """

    def __init__(self, instance: Instance, deadline: float):
        self.deadline = deadline
        n = instance.n_ops
        self.n = n
        self.full_mask = (1 << n) - 1
        eligible = [tuple(k - 1 for k in row) for row in instance.eligible]
        self.options = [tuple(zip(machs, times)) for machs, times in zip(eligible, instance.times)]
        self.ptime = [dict(pairs) for pairs in self.options]
        pmin = [min(times) for times in instance.times]
        preds = [instance.predecessors(v) for v in range(n)]
        self.rows = [(v, 1 << v, eligible[v], tuple((u, 1 << u) for u in preds[v]), pmin[v]) for v in instance.order]
        self.pred_mask = [sum(1 << u for u in preds[v]) for v in range(n)]
        self.successors = [instance.successors(v) for v in range(n)]
        single: dict[int, list[tuple[int, Rational]]] = {}
        for v in range(n):
            if len(eligible[v]) == 1:
                single.setdefault(eligible[v][0], []).append((1 << v, pmin[v]))
        self.single = list(single.items())
        self.dp: list[Rational] = [0] * n  # read only at unscheduled operations, each set earlier in the order
        self.stack: list[BnbNode] = []
        self.nodes = 0
        self.best_value: Rational = None  # set before search starts
        self.best_leaf = None

    def lower_bound(self, ready, mask, avail, cutoff=math.inf) -> Rational:
        """Max of the path bound with minimum times and the machine workload bound.

        Returns as soon as the running bound reaches ``cutoff``: the caller
        prunes such a node whatever its full bound is.  Below ``cutoff`` the
        value is the full bound.  A machine without single-machine
        operations adds nothing to ``max(avail)``, where the bound starts.
        """
        lb = max(avail)
        if lb >= cutoff:
            return lb
        dp = self.dp
        for v, bit, eligible, preds, p in self.rows:
            if mask & bit:
                continue
            release = ready[v]
            for u, u_bit in preds:
                if not mask & u_bit and dp[u] > release:
                    release = dp[u]
            base = min(map(avail.__getitem__, eligible))
            if base > release:
                release = base
            c = release + p
            dp[v] = c
            if c > lb:
                lb = c
                if lb >= cutoff:
                    return lb
        for k, ops in self.single:
            load = avail[k]
            for bit, p in ops:
                if not mask & bit:
                    load += p
            if load > lb:
                lb = load
        return lb

    def expand(self, node: BnbNode) -> list[BnbNode]:
        """Children of a node: the conflict set of one machine.

        theta and k* are the smallest ``(completion, machine)`` over every
        ready operation on every eligible machine.  Each child puts next on
        k* a ready operation that could start there before theta.

        Some child extends to an optimum.  Take any completion S of the
        node.  If some operation starts on k* before theta in S, it is ready
        (an unscheduled predecessor ends at theta or later), so the first
        one is a child.  Otherwise, moving the operation that achieves theta
        to the front of k*'s rest is never worse: it finishes at theta, no
        later than in S; k* is idle until theta; and its old machine is
        freed.  That is a child too, as positive times (``check_time``)
        start it before theta.
        """
        _, mask, node_ready, node_avail, node_seq = node
        pred_mask = self.pred_mask
        ready_ops = [v for v in range(self.n) if not mask >> v & 1 and mask & pred_mask[v] == pred_mask[v]]
        theta = k = None
        options = self.options
        for v in ready_ops:
            rt = node_ready[v]
            for m, p in options[v]:
                a = node_avail[m]
                c = (a if a > rt else rt) + p
                if theta is None or c < theta or (c == theta and m < k):
                    theta, k = c, m
        avail_k = node_avail[k]
        children = []
        cutoff = self.best_value
        ptime, successors = self.ptime, self.successors
        for v in ready_ops:
            p = ptime[v].get(k)
            if p is None:
                continue
            rt = node_ready[v]
            est = avail_k if avail_k > rt else rt
            if est >= theta:
                continue  # starting v at est would idle k past theta
            ect = est + p
            seqs = list(node_seq)
            seqs[k] += (v,)
            machine_seq = tuple(seqs)
            child_mask = mask | (1 << v)
            avail = list(node_avail)
            avail[k] = ect
            if child_mask == self.full_mask:
                makespan = max(avail)
                if makespan < self.best_value:
                    self.best_value = makespan
                    self.best_leaf = machine_seq
                    cutoff = makespan
                continue
            ready = list(node_ready)
            for w in successors[v]:
                if ect > ready[w]:
                    ready[w] = ect
            lb = self.lower_bound(ready, child_mask, avail, cutoff)
            if lb >= cutoff:
                continue
            children.append(BnbNode(lb, child_mask, tuple(ready), tuple(avail), machine_seq))
        children.sort(key=itemgetter(0), reverse=True)
        return children

    def run(self) -> None:
        """Expand nodes depth first until the stack empties or the deadline passes."""
        stack = self.stack
        while stack:
            node = stack.pop()
            if node.lower_bound >= self.best_value:
                continue
            if time.monotonic() > self.deadline:
                stack.append(node)
                return
            self.nodes += 1
            stack.extend(self.expand(node))


def solve_branch_and_bound(instance: Instance, time_limit: float = 3600.0) -> SolveResult:
    """Exact branch and bound over forward-built active schedules.

    The incumbent is initialised with the earliest-start heuristic.  On
    exhaustion the result is optimal; when the time limit strikes first, the
    incumbent is returned together with the smallest lower bound among the
    unexplored subtrees.
    """
    if not time_limit > 0:  # also refuses NaN
        raise ValueError("time_limit must be positive")
    t0 = time.monotonic()
    n = instance.n_ops
    est_sol, est_sched = earliest_start_heuristic(instance)
    if n == 0:
        return SolveResult(est_sol, est_sched, 0, 0, STATUS_OPTIMAL, 0, time.monotonic() - t0)

    search = _Search(instance, deadline=t0 + time_limit)
    search.best_value = est_sched.makespan
    ready, avail = (0,) * n, (0,) * instance.machines
    search.stack.append(BnbNode(search.lower_bound(ready, 0, avail), 0, ready, avail, ((),) * instance.machines))

    search.run()

    elapsed = time.monotonic() - t0
    upper = search.best_value
    lower = min([upper] + [nd.lower_bound for nd in search.stack])  # the stack is empty unless timed out
    status = STATUS_BOUND_PAIR if lower < upper else STATUS_OPTIMAL

    if search.best_leaf is None:
        sol, sched = est_sol, est_sched
    else:
        machine = [0] * n
        for k, seq in enumerate(search.best_leaf, 1):
            for v in seq:
                machine[v] = k
        sol = SolutionPair(tuple(machine), Selection(search.best_leaf))
        sched = tight_schedule(instance, sol)
    return SolveResult(sol, sched, lower, upper, status, search.nodes, elapsed)

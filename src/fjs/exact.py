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

Nodes are chosen best first with depth-first plunging (Linderoth and
Savelsbergh 1999): from the open node of least bound the search dives
through least-bound children until the dive ends, then starts again from
the least bound.  At most ``OPEN_NODE_CAP`` open nodes wait in that
least-bound heap; beyond it they go on a stack that is searched depth first
before the heap is touched again, which keeps the open set within
``OPEN_NODE_CAP`` plus about the square of the operation count.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import (
    STATUS_BOUND_PAIR,
    STATUS_OPTIMAL,
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

BRUTE_FORCE_MAX_OPS = 9  # the caps of the brute-force oracle
BRUTE_FORCE_MAX_ASSIGNMENTS = 100_000
OPEN_NODE_CAP = 4096  # open nodes kept in the least-bound heap; more go on a depth-first stack


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


def brute_force(instance: Instance) -> SolveResult:
    """Exhaustive optimum by enumerating assignments and per-machine orders.

    Candidate orders are per-machine permutations; inadmissible combinations
    (cycles with the precedence arcs) are filtered out.  Intended for tiny
    instances only, hence the caps.
    """
    t0 = time.monotonic()
    n = instance.n_ops
    if n > BRUTE_FORCE_MAX_OPS:
        raise CapError(f"{n} operations exceed the cap of {BRUTE_FORCE_MAX_OPS}")
    n_assignments = 1
    for row in instance.eligible:
        n_assignments *= len(row)
    if n_assignments > BRUTE_FORCE_MAX_ASSIGNMENTS:
        raise CapError(f"{n_assignments} assignments exceed the cap of {BRUTE_FORCE_MAX_ASSIGNMENTS}")

    best_mks = None
    best = None
    examined = 0
    for assignment in itertools.product(*instance.eligible):
        p = [instance.ptime[v, assignment[v]] for v in range(n)]
        groups: list[list[int]] = [[] for _ in range(instance.machines)]
        for v in range(n):
            groups[assignment[v] - 1].append(v)
        for sequences in itertools.product(*map(itertools.permutations, groups)):
            examined += 1
            preds = list(map(list, instance.preds))
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
    operation ends last on that machine.  ``decisions`` is None at the root
    and otherwise links to the last decision, ``(parent decisions, v, k,
    start)``: operation v put last on zero-based machine k at ``start``.
    """

    lower_bound: Rational
    scheduled_mask: int
    ready_time: tuple[Rational, ...]
    machine_avail: tuple[Rational, ...]
    decisions: tuple | None


class _Search:
    """One branch-and-bound run, from its root to its result.

    ``_Search(instance, cutoff, deadline, node_limit)`` opens the root with
    its full bound, with ``cutoff`` as the incumbent; ``run`` plunges from
    the least-bound open node until no node is open, the deadline passes or
    ``node_limit`` nodes are expanded; ``open_bound`` and ``result`` report
    it.  Every open node carries its full bound.  The open nodes wait in a
    heap keyed ``(bound, -sequence)``, least bound and then newest first, of
    at most ``OPEN_NODE_CAP`` entries, and beyond it on an overflow stack;
    ``_seed`` replaces them and ``_open_nodes`` lists them.

    The instance is read once, into zero-based tables: ``options[v]`` holds
    the ``(machine, time)`` pairs of operation v and ``ptime[v]`` the same as
    a dict; ``rows`` holds, in topological order, ``(v, 1 << v, machine or
    pairs, predecessors of v, least time of v)``, where one eligible machine
    is an int and two or more are v's ``options`` pairs, whose times the
    bound reads in place of the least time; ``ready_rows`` holds ``(v, 1 <<
    v, mask of v's predecessors)``, from which ``expand`` reads the ready
    operations; and ``single`` holds, per machine, the
    ``(1 << v, least time)`` of each operation only that machine can run.
    """

    def __init__(self, instance: Instance, cutoff: Rational, deadline: float, node_limit: float = math.inf):
        self.instance = instance
        self.deadline = deadline
        self.node_limit = node_limit
        n = instance.n_ops
        self.full_mask = (1 << n) - 1
        eligible = [tuple(k - 1 for k in row) for row in instance.eligible]
        self.options = [tuple(zip(machs, times)) for machs, times in zip(eligible, instance.times)]
        self.ptime = [dict(pairs) for pairs in self.options]
        pmin = [min(times) for times in instance.times]
        machines = [pairs[0][0] if len(pairs) == 1 else pairs for pairs in self.options]
        self.rows = [(v, 1 << v, machines[v], instance.preds[v], pmin[v]) for v in instance.order]
        self.ready_rows = [(v, 1 << v, sum(1 << u for u in instance.preds[v])) for v in range(n)]
        self.successors = instance.succs
        single: dict[int, list[tuple[int, Rational]]] = {}
        for v in range(n):
            if len(eligible[v]) == 1:
                single.setdefault(eligible[v][0], []).append((1 << v, pmin[v]))
        self.single = list(single.items())
        # Scratch of the bound walk: an unscheduled operation's entry is set
        # before any successor reads it, and a placed operation's entry is
        # reset to 0 as the walk passes it.
        self.dp: list[Rational] = [0] * n
        self.nodes = 0
        self.best_value = cutoff
        self.best_leaf: tuple | None = None  # the decisions of the best leaf found
        ready, avail = (0,) * n, (0,) * instance.machines
        self._seed([BnbNode(self.lower_bound(ready, 0, avail), 0, ready, avail, None)])

    def _seed(self, nodes) -> None:
        """Makes ``nodes`` the open nodes, in the order given."""
        self._heap: list[tuple[Rational, int, BnbNode]] = []  # (bound, -sequence, node): least bound, then newest
        self._stack: list[BnbNode] = []  # the overflow, depth first
        self._sequence = itertools.count(0, -1)
        self._open(nodes)

    def _open(self, nodes) -> None:
        """Opens ``nodes`` in order: into the heap while it holds fewer than ``OPEN_NODE_CAP``, then onto the stack."""
        heap, stack, sequence = self._heap, self._stack, self._sequence
        for node in nodes:
            if len(heap) < OPEN_NODE_CAP:
                heapq.heappush(heap, (node.lower_bound, next(sequence), node))
            else:
                stack.append(node)

    def _open_nodes(self) -> list[BnbNode]:
        """The open nodes: the heap's, in heap order, then the stack's, bottom first."""
        return [entry[2] for entry in self._heap] + self._stack

    def lower_bound(self, ready, mask, avail, cutoff=math.inf) -> Rational:
        """Max of the path bound and the machine workload bound.

        The path bound credits an open operation v, released at ``release``
        by its predecessors, with the least ``max(avail[k], release) + p``
        over its eligible machines k.  That is sound because a descendant
        only appends to the end of a machine's sequence, so v placed on k
        starts no earlier than ``avail[k]``; heads propagate along the arcs
        as in Carlier and Pinson (1989).  At the root every ``avail`` is 0
        and the term is ``release`` plus v's least time.

        Returns as soon as the running bound reaches ``cutoff``: the caller
        prunes such a node whatever its full bound is.  Below ``cutoff`` the
        value is the full bound.  A machine without single-machine
        operations adds nothing to ``max(avail)``, where the bound starts.

        Predecessors are read without a mask test: a placed predecessor's
        ``dp`` entry is 0, and its completion is already in ``ready``, which
        is never negative.
        """
        lb = max(avail)
        if lb >= cutoff:
            return lb
        dp = self.dp
        for v, bit, machines, preds, p in self.rows:
            if mask & bit:
                dp[v] = 0
                continue
            release = ready[v]
            for u in preds:
                if dp[u] > release:
                    release = dp[u]
            if machines.__class__ is int:
                a = avail[machines]
                c = (a if a > release else release) + p
            else:
                c = None
                for k, q in machines:
                    a = avail[k]
                    e = (a if a > release else release) + q
                    if c is None or e < c:
                        c = e
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
        _, mask, node_ready, node_avail, decisions = node
        ready_ops = [v for v, bit, preds in self.ready_rows if not mask & bit and mask & preds == preds]
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
            child_mask = mask | (1 << v)
            avail = list(node_avail)
            avail[k] = ect
            if child_mask == self.full_mask:
                makespan = max(avail)
                if makespan < cutoff:
                    self.best_value = cutoff = makespan
                    self.best_leaf = (decisions, v, k, est)
                continue
            ready = list(node_ready)
            for w in successors[v]:
                if ect > ready[w]:
                    ready[w] = ect
            lb = self.lower_bound(ready, child_mask, avail, cutoff)
            if lb >= cutoff:
                continue
            link = (decisions, v, k, est)
            children.append(tuple.__new__(BnbNode, (lb, child_mask, tuple(ready), tuple(avail), link)))
        children.sort(key=itemgetter(0), reverse=True)
        return children

    def run(self) -> None:
        """Expand nodes until none is open, the deadline passes or the node limit is reached.

        Each round takes an open node, from the stack while it holds any,
        else the least-bound one from the heap, and plunges: it expands the
        node and goes on with its least-bound child, the last one ``expand``
        returns, opening the others.  A plunge ends at a node without
        children or at one whose bound reaches the incumbent.  The dive finds
        incumbents early, and each restart from the least bound leaves
        unexpanded every node whose bound lies between the optimum and a
        stale incumbent.  The node about to be expanded when the deadline
        passes or the limit is reached stays open.  With ``OPEN_NODE_CAP``
        at 0 every open node goes on the stack, and the search is depth
        first.
        """
        heap, stack = self._heap, self._stack
        deadline, node_limit = self.deadline, self.node_limit
        while stack or heap:
            node = stack.pop() if stack else heapq.heappop(heap)[2]
            while node.lower_bound < self.best_value:
                if time.monotonic() > deadline or self.nodes >= node_limit:
                    stack.append(node)
                    return
                self.nodes += 1
                children = self.expand(node)
                if not children:
                    break
                node = children.pop()
                self._open(children)

    def open_bound(self) -> Rational:
        """The least of the incumbent and the bounds of the open nodes, of which none is left unless stopped early."""
        return min([self.best_value] + [node.lower_bound for node in self._open_nodes()])

    def result(self) -> tuple[SolutionPair, Schedule] | None:
        """The best leaf found and the schedule the search built for it, or
        None when no leaf beat the cutoff.  Its starts are tight: v went last
        on machine k, so it starts once k is free and v's predecessors, all
        placed, have ended."""
        if self.best_leaf is None:
            return None
        n = self.instance.n_ops
        assignment, start, sequences = [0] * n, [0] * n, [[] for _ in range(self.instance.machines)]
        decisions = self.best_leaf
        while decisions is not None:  # from the last decision back to the first
            decisions, v, k, start[v] = decisions
            assignment[v] = k + 1
            sequences[k].append(v)
        selection = Selection([seq[::-1] for seq in sequences])
        return SolutionPair(tuple(assignment), selection), Schedule(tuple(start), self.best_value)


def solve_branch_and_bound(
    instance: Instance, time_limit: float = 3600.0, node_limit: int | None = None
) -> SolveResult:
    """Exact branch and bound over forward-built active schedules.

    The incumbent is initialised with the earliest-start heuristic.  On
    exhaustion the result is optimal; when the time limit strikes first, or
    ``node_limit`` nodes have been expanded, the incumbent is returned
    together with the smallest lower bound among the unexplored subtrees.
    ``node_limit`` is None, for no limit, or an int of at least 1; a node
    limit makes a stopped run repeat exactly.
    """
    if not time_limit > 0:  # also refuses NaN
        raise ValueError("time_limit must be positive")
    if node_limit is not None and (not isinstance(node_limit, int) or isinstance(node_limit, bool) or node_limit < 1):
        raise ValueError("node_limit must be an int of at least 1")
    t0 = time.monotonic()
    est_sol, est_sched = earliest_start_heuristic(instance)
    limit = math.inf if node_limit is None else node_limit
    search = _Search(instance, est_sched.makespan, deadline=t0 + time_limit, node_limit=limit)
    search.run()
    elapsed = time.monotonic() - t0
    lower, upper = search.open_bound(), search.best_value
    status = STATUS_BOUND_PAIR if lower < upper else STATUS_OPTIMAL
    sol, sched = search.result() or (est_sol, est_sched)
    return SolveResult(sol, sched, lower, upper, status, search.nodes, elapsed)

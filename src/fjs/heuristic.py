"""Earliest-start constructive heuristic.

Operations are appended one at a time: among the ready operations (all
predecessors already placed) and their eligible machines, pick the pair that
can start earliest.  Ties are broken by the largest mean-processing-time path
weight hanging off the operation, then by lowest operation id, then lowest
machine id.  The per-machine insertion order is the selection, which is
admissible by construction, and each operation starts as early as its
machine and predecessors allow, so the greedy's own starts are the tight
schedule: ``earliest_start_selection`` returns the solution and its
makespan, and ``earliest_start_heuristic`` adds the schedule.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import lcm

from .core import (
    Instance,
    Rational,
    Schedule,
    Selection,
    SolutionPair,
    tight_schedule,
    _longest_path,
)

__all__ = ["earliest_start_heuristic", "earliest_start_selection"]


def _scaled_tails(instance: Instance) -> list[Rational]:
    """Largest mean-time path weight starting at each operation, times ``scale``.

    ``scale`` is the lcm of the eligible-set sizes and an operation weighs
    ``sum(row) * (scale // len(row))``, ``scale`` times its mean time, so the
    tails are ``int`` on integral instances and order exactly as the
    mean-time tails do.  One reverse topological sweep.
    """
    scale = lcm(*(len(row) for row in instance.times))
    weights = [sum(row) * (scale // len(row)) for row in instance.times]
    return _longest_path(reversed(instance.order), instance.succs, weights)


def earliest_start_selection(instance: Instance) -> tuple[SolutionPair, Rational]:
    """Greedy earliest-start construction of a feasible solution, with its makespan.

    Each operation starts as early as its machine and its predecessors
    allow, so the starts are the tight schedule of the solution and the
    makespan is the last machine's completion; no schedule is built.
    Deterministic for a given instance; runs in
    O(|V| + |A| + |V| * m + sum |eligible| * log |V|): the tails take one
    reverse sweep, and each of the |V| steps scans the m machine tops.
    """
    n, m = instance.n_ops, instance.machines
    eligible, ptime, successors = instance.eligible, instance.ptime, instance.succs
    tails = _scaled_tails(instance)
    # The operations by priority: a heavier tail first, then the lower id
    # (the sort is stable).  The heaps hold an operation's position in this
    # order, one int that compares as (tail rank, id) does.
    by_priority = sorted(instance.ops, key=tails.__getitem__, reverse=True)
    position = [0] * n
    for p, w in enumerate(by_priority):
        position[w] = p
    pending = list(map(len, instance.preds))
    ready_time: list[Rational] = [0] * n
    machine_avail: list[Rational] = [0] * (m + 1)
    sequences: list[list[int]] = [[] for _ in range(m)]
    chosen_machine = [0] * n
    placed = [False] * n  # by position
    # Heap invariant, for every machine k: released[k] holds the positions of
    # the ready operations w eligible on k with ready_time[w] <=
    # machine_avail[k], and waiting[k] holds (ready_time[w], position) for
    # those released later.  A ready operation's ready time is final and
    # machine_avail[k] only rises, when k is chosen, so only the chosen
    # machine's waiting entries can move.  Placed operations stay in the
    # heaps of their other machines until they reach a top, where they are
    # popped.
    released: list[list[int]] = [[] for _ in range(m + 1)]
    waiting: list[list[tuple]] = [[] for _ in range(m + 1)]

    def release(w: int) -> None:
        rt, p = ready_time[w], position[w]
        for k in eligible[w]:
            if rt <= machine_avail[k]:
                heappush(released[k], p)
            else:
                heappush(waiting[k], (rt, p))

    for v in instance.ops:
        if pending[v] == 0:
            release(v)

    for _ in range(n):
        # The least (start, position, k) over every ready (operation,
        # machine) pair: on machine k it starts at machine_avail[k] if
        # released[k] holds anything, else at the least ready time in
        # waiting[k].  A machine whose start is already later than the best
        # one's cannot win.
        best = None
        for k in range(1, m + 1):
            heap = released[k]
            while heap and placed[heap[0]]:
                heappop(heap)
            if heap:
                if best is not None and machine_avail[k] > best[0]:
                    continue
                key = (machine_avail[k], heap[0], k)
            else:
                heap = waiting[k]
                while heap and placed[heap[0][1]]:
                    heappop(heap)
                if not heap or best is not None and heap[0][0] > best[0]:
                    continue
                key = (*heap[0], k)
            if best is None or key < best:
                best = key
        start, p, k = best
        placed[p] = True
        w = by_priority[p]
        chosen_machine[w] = k
        completion = start + ptime[w, k]
        machine_avail[k] = completion
        sequences[k - 1].append(w)
        heap = waiting[k]
        while heap and heap[0][0] <= completion:
            _, q = heappop(heap)
            if not placed[q]:
                heappush(released[k], q)
        for succ in successors[w]:
            if completion > ready_time[succ]:
                ready_time[succ] = completion
            pending[succ] -= 1
            if pending[succ] == 0:
                release(succ)

    return SolutionPair(tuple(chosen_machine), Selection(sequences)), max(machine_avail)


def earliest_start_heuristic(instance: Instance) -> tuple[SolutionPair, Schedule]:
    """``earliest_start_selection``'s solution and its tight schedule."""
    sol, _ = earliest_start_selection(instance)
    return sol, tight_schedule(instance, sol)

"""Earliest-start constructive heuristic.

Operations are appended one at a time: among the ready operations (all
predecessors already placed) and their eligible machines, pick the pair that
can start earliest.  Ties are broken by the largest mean-processing-time path
weight hanging off the operation, then by lowest operation id, then lowest
machine id.  The per-machine insertion order is the selection, which is
admissible by construction; the final schedule is tight.
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

__all__ = ["earliest_start_heuristic"]


def _scaled_tails(instance: Instance) -> list[Rational]:
    """Largest mean-time path weight starting at each operation, times ``scale``.

    ``scale`` is the lcm of the eligible-set sizes and an operation weighs
    ``sum(row) * (scale // len(row))``, ``scale`` times its mean time, so the
    tails are ``int`` on integral instances and order exactly as the
    mean-time tails do.  One reverse topological sweep.
    """
    scale = lcm(*(len(row) for row in instance.times))
    weights = [sum(row) * (scale // len(row)) for row in instance.times]
    succs = [instance.successors(v) for v in instance.ops]
    return _longest_path(reversed(instance.order), succs, weights)


def earliest_start_heuristic(instance: Instance) -> tuple[SolutionPair, Schedule]:
    """Greedy earliest-start construction of a feasible solution.

    Deterministic for a given instance; runs in
    O(|V||A| + |V| * m + sum |eligible| * log |V|).
    """
    n, m = instance.n_ops, instance.machines
    tails = _scaled_tails(instance)
    rank_of = {t: r for r, t in enumerate(sorted(set(tails), reverse=True))}
    rank = [rank_of[t] for t in tails]  # a heavier tail gets a smaller rank
    pending = [len(instance.predecessors(v)) for v in instance.ops]
    ready_time: list[Rational] = [0] * n
    machine_avail: list[Rational] = [0] * (m + 1)
    machine_seq: list[list[int]] = [[] for _ in range(m)]
    chosen_machine = [0] * n
    placed = [False] * n
    # Heap invariant, for every machine k: released[k] holds (rank, w) for the
    # ready operations w eligible on k with ready_time[w] <= machine_avail[k],
    # and waiting[k] holds (ready_time[w], rank, w) for those released later.
    # A ready operation's ready time is final and machine_avail[k] only rises,
    # when k is chosen, so only the chosen machine's waiting entries can move.
    # Placed operations stay in the heaps of their other machines until they
    # reach a top, where they are popped.
    released: list[list[tuple]] = [[] for _ in range(m + 1)]
    waiting: list[list[tuple]] = [[] for _ in range(m + 1)]

    def release(w: int) -> None:
        rt = ready_time[w]
        for k in instance.eligible[w]:
            if rt <= machine_avail[k]:
                heappush(released[k], (rank[w], w))
            else:
                heappush(waiting[k], (rt, rank[w], w))

    for v in instance.ops:
        if pending[v] == 0:
            release(v)

    for _ in range(n):
        # The least (start, rank, w, k) over every ready (operation, machine)
        # pair: on machine k it starts at machine_avail[k] if released[k]
        # holds anything, else at the least ready time in waiting[k].
        best = None
        for k in range(1, m + 1):
            heap = released[k]
            while heap and placed[heap[0][1]]:
                heappop(heap)
            if heap:
                key = (machine_avail[k], *heap[0], k)
            else:
                heap = waiting[k]
                while heap and placed[heap[0][2]]:
                    heappop(heap)
                if not heap:
                    continue
                key = (*heap[0], k)
            if best is None or key < best:
                best = key
        start, _, w, k = best
        placed[w] = True
        chosen_machine[w] = k
        completion = start + instance.ptime(w, k)
        machine_avail[k] = completion
        machine_seq[k - 1].append(w)
        heap = waiting[k]
        while heap and heap[0][0] <= completion:
            _, r, v = heappop(heap)
            if not placed[v]:
                heappush(released[k], (r, v))
        for succ in instance.successors(w):
            if completion > ready_time[succ]:
                ready_time[succ] = completion
            pending[succ] -= 1
            if pending[succ] == 0:
                release(succ)

    sol = SolutionPair(tuple(chosen_machine), Selection(machine_seq))
    return sol, tight_schedule(instance, sol)

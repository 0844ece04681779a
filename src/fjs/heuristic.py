"""Earliest-start constructive heuristic.

Operations are appended one at a time: among the ready operations (all
predecessors already placed) and their eligible machines, pick the pair that
can start earliest.  Ties are broken by the largest mean-processing-time path
weight hanging off the operation, then by lowest operation id, then lowest
machine id.  The per-machine insertion order is the selection, which is
admissible by construction; the final schedule is tight.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Instance,
    MachineAssignment,
    Rational,
    Schedule,
    Selection,
    SolutionPair,
    tight_schedule,
    topological_order,
    _longest_path,
)

__all__ = ["mean_ptimes", "tail_weights", "earliest_start_heuristic"]


def mean_ptimes(instance: Instance) -> list[Fraction]:
    """Mean processing time per operation over its eligible machines."""
    return [Fraction(sum(row), len(row)) for row in instance.times]


def tail_weights(instance: Instance) -> list[Fraction]:
    """Largest mean-time path weight starting at each operation.

    ``tail[v] = mean[v] + max(tail[w] for successors w)``, with max 0 for
    sinks; computed once by a reverse topological sweep.
    """
    order = topological_order(instance.n_ops, [instance.predecessors(v) for v in instance.ops])
    succs = [instance.successors(v) for v in instance.ops]
    return _longest_path(reversed(order), succs, mean_ptimes(instance))


def earliest_start_heuristic(instance: Instance) -> tuple[SolutionPair, Schedule]:
    """Greedy earliest-start construction of a feasible solution.

    Deterministic for a given instance; runs in O(|V||A| + |V|^2 * m).
    """
    n = instance.n_ops
    tail = tail_weights(instance)
    rank_of = {t: r for r, t in enumerate(sorted(set(tail), reverse=True))}
    rank = [rank_of[t] for t in tail]  # a heavier tail gets a smaller rank
    pending = [len(instance.predecessors(v)) for v in instance.ops]
    ready_time: list[Rational] = [0] * n
    machine_avail: list[Rational] = [0] * (instance.machines + 1)
    machine_seq: list[list[int]] = [[] for _ in range(instance.machines)]
    ready = sorted(v for v in instance.ops if pending[v] == 0)
    chosen_machine = [0] * n

    for _ in range(n):
        best = None
        for w in ready:
            rt = ready_time[w]
            for k in instance.eligible[w]:
                start = machine_avail[k] if machine_avail[k] > rt else rt
                key = (start, rank[w], w, k)
                if best is None or key < best:
                    best = key
        start, _, w, k = best
        chosen_machine[w] = k
        completion = start + instance.ptime(w, k)
        machine_avail[k] = completion
        machine_seq[k - 1].append(w)
        ready.remove(w)
        for succ in instance.successors(w):
            if completion > ready_time[succ]:
                ready_time[succ] = completion
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.append(succ)
        ready.sort()

    sol = SolutionPair(MachineAssignment(tuple(chosen_machine)), Selection(machine_seq))
    return sol, tight_schedule(instance, sol)

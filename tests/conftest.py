"""Shared fixtures: the worked 3-operation example and seeded random data."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import pytest

from fjs.core import InadmissibleError, Instance, Schedule, Selection, SolutionPair, tight_schedule
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic
from fjs.milp import MilpModel
from fjs.rng import Xoshiro256StarStar

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def make_ex1() -> Instance:
    """Three operations a=0, b=1, c=2; a precedes both b and c; two machines."""
    return Instance.from_tables(
        "EX1",
        machines=2,
        ptimes={0: {1: 3}, 1: {1: 2, 2: 4}, 2: {2: 5}},
        arcs=[(0, 1), (0, 2)],
    )


@pytest.fixture
def ex1() -> Instance:
    return make_ex1()


@pytest.fixture
def restore_gc():
    """Leave the cyclic garbage collector as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def small_random_instance(
    seed: int,
    max_ops: int = 8,
    max_machines: int = 3,
    max_eligible: int = 2,
    arc_percent: int = 30,
    max_time: int = 10,
) -> Instance:
    """Tiny instance for oracle comparisons; arcs only go id-upward."""
    rng = Xoshiro256StarStar(seed)
    n = rng.randint(2, max_ops)
    m = rng.randint(1, max_machines)
    eligible = []
    times = []
    for _ in range(n):
        size = rng.randint(1, min(max_eligible, m))
        machs = tuple(sorted(rng.sample(list(range(1, m + 1)), size)))
        eligible.append(machs)
        times.append(tuple(rng.randint(1, max_time) for _ in machs))
    arcs = tuple(
        (u, w) for u in range(n) for w in range(u + 1, n) if rng.randint(0, 99) < arc_percent
    )
    return Instance(f"rnd-{seed}", m, tuple(eligible), tuple(times), arcs)


def random_admissible_solution(instance: Instance, seed: int) -> SolutionPair:
    """Random assignment plus the selection induced by a random topological order."""
    rng = Xoshiro256StarStar(seed)
    machine = tuple(
        row[rng.randint(0, len(row) - 1)] for row in instance.eligible
    )
    pending = [len(instance.preds[v]) for v in instance.ops]
    ready = sorted(v for v in instance.ops if pending[v] == 0)
    position = {}
    while ready:
        v = ready.pop(rng.randint(0, len(ready) - 1))
        position[v] = len(position)
        for w in instance.succs[v]:
            pending[w] -= 1
            if pending[w] == 0:
                ready.append(w)
        ready.sort()
    sequences: list[list[int]] = [[] for _ in range(instance.machines)]
    for v in sorted(instance.ops, key=position.__getitem__):
        sequences[machine[v] - 1].append(v)
    return SolutionPair(machine, Selection(sequences))


@cache
def reversed_sequence_mix() -> tuple[tuple[Instance, SolutionPair, Schedule, SolutionPair], ...]:
    """``(instance, EST solution, its schedule, the solution with its longest
    machine sequence reversed)`` for 300 seeds; the reversal closes a cycle
    when a precedence path joins two operations of that sequence."""
    mix = []
    for seed in range(300):
        inst = small_random_instance(seed, max_ops=10, max_machines=4, max_eligible=3, max_time=5)
        sol, sched = earliest_start_heuristic(inst)
        sequences = list(sol.selection.sequences)
        k = max(range(len(sequences)), key=lambda i: len(sequences[i]))
        sequences[k] = sequences[k][::-1]
        mix.append((inst, sol, sched, SolutionPair(sol.assignment, Selection(sequences))))
    return tuple(mix)


def cyclic_reversals() -> list[tuple[Instance, SolutionPair, Schedule, SolutionPair, tuple[int, ...]]]:
    """The cases of ``reversed_sequence_mix`` whose reversal is cyclic, each
    with the cycle that ``tight_schedule`` raises for it."""
    cases = []
    for inst, sol, sched, reversed_sol in reversed_sequence_mix():
        try:
            tight_schedule(inst, reversed_sol)
        except InadmissibleError as exc:
            cases.append((inst, sol, sched, reversed_sol, exc.cycle))
    return cases


def integral_instances() -> list[Instance]:
    """EX1 plus one small generated instance of each family."""
    return [
        make_ex1(),
        generate_yfjs(YfjsParams(3, 4, 3, 2, 2)),
        generate_dafjs(DafjsParams(2, 4, 1)),
    ]


def with_fraction_rows(model: MilpModel, divisor: int = 1) -> MilpModel:
    """The same model with every row coefficient and right-hand side a Fraction.

    Each row is divided by ``divisor``, which leaves its feasible set alone.
    Every row the builders make has a coefficient of +-1, so a divisor above
    1 gives every row a denominator to clear.
    """
    rows = tuple(
        row._replace(
            terms=tuple((Fraction(coef) / divisor, name) for coef, name in row.terms),
            rhs=Fraction(row.rhs) / divisor,
        )
        for row in model.constraints
    )
    objective = tuple((Fraction(coef), name) for coef, name in model.objective)
    return replace(model, constraints=rows, objective=objective)


def traced(call: Callable, *args) -> tuple[object, int, int]:
    """``call(*args)``, the bytes its result holds and the peak bytes the call
    held at once, both as ``tracemalloc`` counts what the call allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak

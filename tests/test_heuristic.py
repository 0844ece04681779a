"""Earliest-start heuristic: worked example, tie-break rules, feasibility."""

from __future__ import annotations

from fractions import Fraction

from fjs.core import Instance, tight_schedule, validate_solution
from fjs.heuristic import earliest_start_heuristic, mean_ptimes, tail_weights

from conftest import small_random_instance


def test_ex1_trace(ex1):
    # At time 3 the candidates (b,1), (b,2), (c,2) all start at 3; c wins the
    # tie with the larger tail weight (5 vs 3), so b follows a on machine 1.
    sol, sched = earliest_start_heuristic(ex1)
    assert sol.assignment.machine == (1, 1, 2)
    assert sol.selection.sequences == ((0, 1), (2,))
    assert sched.makespan == 8
    assert sched.start == (0, 3, 3)


def test_ex1_tail_weights(ex1):
    assert mean_ptimes(ex1) == [Fraction(3), Fraction(3), Fraction(5)]
    assert tail_weights(ex1) == [Fraction(8), Fraction(3), Fraction(5)]


def test_single_operation_takes_lowest_machine_not_fastest():
    # Earliest start, not shortest time: both machines start at 0, so the
    # machine-id tie-break picks machine 1 despite its longer time.
    inst = Instance.from_tables("one", 2, {0: {1: 5, 2: 3}}, [])
    sol, sched = earliest_start_heuristic(inst)
    assert sol.assignment.machine == (1,)
    assert sched.makespan == 5


def test_chain_on_shared_machine():
    inst = Instance.from_tables(
        "chain", 1, {0: {1: 2}, 1: {1: 3}, 2: {1: 4}}, [(0, 1), (1, 2)]
    )
    sol, sched = earliest_start_heuristic(inst)
    assert sched.makespan == 9
    assert sol.selection.sequences == ((0, 1, 2),)
    assert sol.selection.pairs == frozenset({(0, 1), (0, 2), (1, 2)})


def test_empty_instance():
    inst = Instance("empty", 1, (), (), ())
    sol, sched = earliest_start_heuristic(inst)
    assert sched.makespan == 0
    assert sched.start == ()


def test_output_always_validates():
    for seed in range(40):
        inst = small_random_instance(seed, max_ops=8, max_machines=3)
        sol, sched = earliest_start_heuristic(inst)
        report = validate_solution(inst, sol, sched)
        assert report.ok, report.summary()
        assert sched == tight_schedule(inst, sol)


def test_deterministic_across_runs():
    inst = small_random_instance(7, max_ops=8)
    first = earliest_start_heuristic(inst)
    second = earliest_start_heuristic(inst)
    assert first == second


def test_never_below_the_exact_optimum():
    from fjs.exact import brute_force

    for seed in range(15):
        inst = small_random_instance(seed, max_ops=6)
        _, est_sched = earliest_start_heuristic(inst)
        assert est_sched.makespan >= brute_force(inst).upper_bound

"""Earliest-start heuristic: worked example, tie-break rules, feasibility."""

from __future__ import annotations

from fractions import Fraction

from fjs.core import (
    Instance,
    Selection,
    SolutionPair,
    tight_schedule,
    validate_solution,
)
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import _scaled_tails, earliest_start_heuristic, earliest_start_selection

from conftest import small_random_instance


def test_ex1_trace(ex1):
    # At time 3 the candidates (b,1), (b,2), (c,2) all start at 3; c wins the
    # tie with the larger tail weight (5 vs 3), so b follows a on machine 1.
    sol, sched = earliest_start_heuristic(ex1)
    assert sol.assignment == (1, 1, 2)
    assert sol.selection.sequences == ((0, 1), (2,))
    assert sched.makespan == 8
    assert sched.start == (0, 3, 3)


def test_ex1_tail_weights(ex1):
    # Every operation of ex1 has two eligible machines, so the scale is 2 and
    # the mean-time tails are 8, 3 and 5.
    assert _scaled_tails(ex1) == [16, 6, 10]


def test_tail_weights_follow_the_mean_time_recurrence():
    # Eligible sets of 1, 2 and 3 machines with fractional times, so the
    # weights are scale = lcm(1, 2, 3) = 6 times the mean times.
    inst = Instance.from_tables(
        "mixed",
        3,
        {
            0: {1: Fraction(1, 2)},
            1: {1: 1, 3: Fraction(2, 3)},
            2: {1: Fraction(5, 4), 2: 2, 3: Fraction(1, 3)},
            3: {2: Fraction(7, 5), 3: 1},
            4: {2: 3},
        },
        [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)],
    )
    mean = [Fraction(sum(row), len(row)) for row in inst.times]
    assert mean == [Fraction(1, 2), Fraction(5, 6), Fraction(43, 36), Fraction(6, 5), Fraction(3)]
    expected = [Fraction(0)] * inst.n_ops
    for v in reversed(inst.ops):  # arcs only go id-upward
        expected[v] = 6 * mean[v] + max((expected[w] for w in inst.succs[v]), default=0)
    assert _scaled_tails(inst) == expected
    assert expected[0] == 6 * (Fraction(1, 2) + Fraction(43, 36) + 3)


def test_single_operation_takes_lowest_machine_not_fastest():
    # Earliest start, not shortest time: both machines start at 0, so the
    # machine-id tie-break picks machine 1 despite its longer time.
    inst = Instance.from_tables("one", 2, {0: {1: 5, 2: 3}}, [])
    sol, sched = earliest_start_heuristic(inst)
    assert sol.assignment == (1,)
    assert sched.makespan == 5


def test_chain_on_shared_machine():
    inst = Instance.from_tables(
        "chain", 1, {0: {1: 2}, 1: {1: 3}, 2: {1: 4}}, [(0, 1), (1, 2)]
    )
    sol, sched = earliest_start_heuristic(inst)
    assert sched.makespan == 9
    assert sol.selection.sequences == ((0, 1, 2),)


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


def _reference_est(instance):
    """The plain scan: each step takes the least (start, rank, w, k) over every
    ready operation w and eligible machine k, ranking heavier tails first."""
    tail = _scaled_tails(instance)
    rank_of = {t: r for r, t in enumerate(sorted(set(tail), reverse=True))}
    pending = [len(instance.preds[v]) for v in instance.ops]
    ready_time = [0] * instance.n_ops
    machine_avail = [0] * (instance.machines + 1)
    sequences = [[] for _ in range(instance.machines)]
    chosen_machine = [0] * instance.n_ops
    ready = [v for v in instance.ops if pending[v] == 0]
    while ready:
        start, _, w, k = min(
            (max(machine_avail[k], ready_time[w]), rank_of[tail[w]], w, k)
            for w in ready
            for k in instance.eligible[w]
        )
        chosen_machine[w] = k
        machine_avail[k] = start + instance.ptime[w, k]
        sequences[k - 1].append(w)
        ready.remove(w)
        for succ in instance.succs[w]:
            ready_time[succ] = max(ready_time[succ], machine_avail[k])
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.append(succ)
    sol = SolutionPair(tuple(chosen_machine), Selection(sequences))
    return sol, tight_schedule(instance, sol)


def _with_fractional_times(inst):
    times = tuple(
        tuple(Fraction(t, 1 + (v + i) % 3) for i, t in enumerate(row))
        for v, row in enumerate(inst.times)
    )
    return Instance(inst.name, inst.machines, inst.eligible, times, inst.arcs)


def test_matches_the_plain_scan():
    # Times 1-3 make many equal starts and tails, so the tie-breaks decide.
    cases = [Instance("empty", 1, (), (), ())]
    for seed in range(300):
        inst = small_random_instance(
            seed, max_ops=30, max_machines=5, max_eligible=1 + seed % 4, max_time=3
        )
        cases.append(_with_fractional_times(inst) if seed % 2 else inst)
    for seed in range(300, 400):  # up to 12 machines, most of which cannot win a step
        inst = small_random_instance(
            seed, max_ops=30, max_machines=12, max_eligible=1 + seed % 6, max_time=3
        )
        cases.append(_with_fractional_times(inst) if seed % 2 else inst)
    for inst in cases:
        assert earliest_start_heuristic(inst) == _reference_est(inst), inst.name


def test_selection_gives_the_solution_and_makespan_of_the_heuristic():
    # earliest_start_selection builds no schedule: its makespan, the last
    # machine's completion, must be that of the tight schedule of its solution
    cases = [Instance("empty", 1, (), (), ())]
    for seed in range(200):
        cases.append(small_random_instance(seed, max_ops=20, max_machines=4, max_eligible=1 + seed % 4, max_time=5))
    for seed in range(200, 240):
        inst = small_random_instance(seed, max_ops=20, max_machines=4, max_eligible=1 + seed % 4, max_time=30)
        times = tuple(tuple(Fraction(t, 7) for t in row) for row in inst.times)
        cases.append(Instance(inst.name, inst.machines, inst.eligible, times, inst.arcs))
    for seed in range(1, 11):
        cases.append(generate_yfjs(YfjsParams(2 + seed % 4, 3 + seed % 5, 4, 1 + seed % 3, seed)))
        cases.append(generate_dafjs(DafjsParams(1 + seed % 4, 3 + seed % 4, seed)))
    for inst in cases:
        sol, sched = earliest_start_heuristic(inst)
        assert earliest_start_selection(inst) == (sol, sched.makespan), inst.name

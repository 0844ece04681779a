"""Exact solvers: worked examples, oracle agreement, bounds, one build per partial schedule."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from fjs import exact
from fjs.core import Instance, Schedule, Selection, SolutionPair, tight_schedule, validate_solution
from fjs.exact import CapError, SolveResult, brute_force, solve_branch_and_bound
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic

from conftest import small_random_instance


def test_ex1_optimum(ex1):
    bf = brute_force(ex1)
    bb = solve_branch_and_bound(ex1, time_limit=60)
    assert bf.upper_bound == bb.upper_bound == 8
    assert bf.status == bb.status == "optimal"
    assert bf.lower_bound == bb.lower_bound == 8


def test_single_operation_picks_fastest_machine():
    inst = Instance.from_tables("one", 2, {0: {1: 5, 2: 3}}, [])
    assert brute_force(inst).upper_bound == 3
    assert solve_branch_and_bound(inst, 60).upper_bound == 3


def test_two_independent_ops_one_machine_serialize():
    inst = Instance.from_tables("two", 1, {0: {1: 2}, 1: {1: 3}}, [])
    assert brute_force(inst).upper_bound == 5
    assert solve_branch_and_bound(inst, 60).upper_bound == 5


def test_empty_instance():
    # Enumeration examines the one empty assignment; the search proves it at the root.
    for machines in (1, 2):
        inst = Instance("empty", machines, (), (), ())
        empty = SolutionPair((), Selection(((),) * machines))
        for result, nodes in ((brute_force(inst), 1), (solve_branch_and_bound(inst, 60), 0)):
            assert replace(result, elapsed=0) == SolveResult(empty, Schedule((), 0), 0, 0, "optimal", nodes, 0)


def test_brute_force_caps():
    big = Instance.from_tables("big", 1, {v: {1: 1} for v in range(10)}, [])
    with pytest.raises(CapError):
        brute_force(big)
    # 4**9 = 262,144 assignments, refused before any is enumerated
    wide = Instance.from_tables("wide", 4, {v: {1: 1, 2: 1, 3: 1, 4: 1} for v in range(9)}, [])
    with pytest.raises(CapError, match="^262144 assignments exceed the cap of 100000$"):
        brute_force(wide)


def test_time_limit_must_be_positive(ex1):
    with pytest.raises(ValueError):
        solve_branch_and_bound(ex1, time_limit=0)


def test_oracle_agreement_on_random_instances():
    kept_est = 0
    for seed in range(60):
        inst = small_random_instance(seed)
        bf = brute_force(inst)
        bb = solve_branch_and_bound(inst, 60)
        assert bb.status == "optimal"
        assert bf.upper_bound == bb.upper_bound, inst.name
        for result in (bf, bb):
            assert result.lower_bound == result.upper_bound == result.schedule.makespan
            assert validate_solution(inst, result.solution, result.schedule).ok
        est_sol, est_sched = earliest_start_heuristic(inst)
        if bb.upper_bound == est_sched.makespan:
            # No leaf beat EST's makespan, so the search returns EST's own solution.
            assert (bb.solution, bb.schedule) == (est_sol, est_sched), inst.name
            kept_est += 1
    assert kept_est == 37


def sequences_of(decisions, machines):
    """A node's machine sequences, read back from its chain of decisions."""
    sequences = [[] for _ in range(machines)]
    while decisions is not None:
        decisions, v, k, _ = decisions
        sequences[k].insert(0, v)
    return tuple(map(tuple, sequences))


def test_no_partial_schedule_is_built_twice(monkeypatch):
    built: list[tuple[tuple[int, ...], ...]] = []

    class Recording(exact._Search):
        def expand(self, node):
            children = super().expand(node)
            built.extend(sequences_of(child.decisions, self.instance.machines) for child in children)
            return children

    monkeypatch.setattr(exact, "_Search", Recording)
    for seed in range(60):
        inst = small_random_instance(seed)
        built.clear()
        bb = solve_branch_and_bound(inst, 60)
        assert len(set(built)) == len(built), inst.name
        assert bb.status == "optimal"
        assert brute_force(inst).upper_bound == bb.upper_bound, inst.name
        assert validate_solution(inst, bb.solution, bb.schedule).ok


def test_the_returned_schedule_is_the_tight_schedule_of_its_solution():
    # The search returns the starts it placed each operation at, without
    # scheduling the leaf's solution again: they must be its tight schedule.
    found = 0
    for seed in range(400):
        inst = small_random_instance(seed, max_ops=10, max_machines=4, max_eligible=3)
        if seed % 2:
            inst = replace(inst, times=tuple(tuple(Fraction(t, 7) for t in row) for row in inst.times))
        result = solve_branch_and_bound(inst, 60)
        assert result.status == "optimal"
        assert result.schedule == tight_schedule(inst, result.solution), inst.name
        assert validate_solution(inst, result.solution, result.schedule).ok, inst.name
        found += result.upper_bound < earliest_start_heuristic(inst)[1].makespan
    assert found > 200  # leaves the search built, not EST's solution


def test_counters_repeat_exactly():
    inst = generate_yfjs(YfjsParams(3, 4, 3, 2, 2))
    first = solve_branch_and_bound(inst, 60)
    second = solve_branch_and_bound(inst, 60)
    assert first.status == second.status == "optimal"
    assert first.nodes_explored == second.nodes_explored


@pytest.mark.parametrize(
    "instance, optimum, max_nodes",
    [
        pytest.param(generate_yfjs(YfjsParams(4, 5, 5, 3, 1)), 537, 1000, id="YFJS-n4-o5-m5-q3-s1-537"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 3)), 212, 2000, id="DAFJS-n3-m4-s3-212"),
    ],
)
def test_closes_instances_beyond_the_old_reach(instance, optimum, max_nodes):
    result = solve_branch_and_bound(instance, time_limit=60)
    assert result.status == "optimal"
    assert result.nodes_explored <= max_nodes
    assert result.lower_bound == result.upper_bound == result.schedule.makespan == optimum
    assert validate_solution(instance, result.solution, result.schedule).ok


@pytest.mark.parametrize(
    "instance, optimum, nodes",
    [
        pytest.param(generate_yfjs(YfjsParams(3, 4, 3, 2, 3)), 544, 188, id="YFJS-n3-o4-m3-q2-s3"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 2)), 715, 32, id="YFJS-n3-o5-m4-q2-s2"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 3)), 564, 17, id="YFJS-n3-o5-m4-q2-s3"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 2)), 239, 132, id="DAFJS-n3-m4-s2"),
        pytest.param(generate_dafjs(DafjsParams(3, 5, 3)), 261, 25, id="DAFJS-n3-m5-s3"),
        pytest.param(generate_yfjs(YfjsParams(4, 5, 5, 3, 1)), 537, 365, id="YFJS-n4-o5-m5-q3-s1"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 3)), 212, 468, id="DAFJS-n3-m4-s3"),
    ],
)
def test_search_order_is_pinned_on_the_bnb_corpus(instance, optimum, nodes):
    # The `bnb` workload of perfbench/workloads.py (BNB_SOLVED + BNB_CAPPED):
    # any change to branching, bounding or child order moves these counts.
    result = solve_branch_and_bound(instance, time_limit=60)
    assert (result.upper_bound, result.nodes_explored, result.status) == (optimum, nodes, "optimal")


@pytest.mark.parametrize(
    "instance, assignment, sequences",
    [
        pytest.param(
            generate_yfjs(YfjsParams(3, 4, 3, 2, 3)),
            (3, 1, 1, 2, 1, 1, 1, 2, 1, 3, 2, 3),
            ((8, 5, 4, 6, 1, 2), (10, 7, 3), (0, 9, 11)),
            id="YFJS-n3-o4-m3-q2-s3",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(3, 5, 4, 2, 2)),
            (2, 4, 1, 3, 3, 2, 2, 2, 1, 1, 1, 4, 3, 1, 4),
            ((10, 8, 13, 2, 9), (5, 0, 6, 7), (12, 3, 4), (11, 1, 14)),
            id="YFJS-n3-o5-m4-q2-s2",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(3, 5, 4, 2, 3)),
            (3, 1, 4, 1, 2, 3, 2, 3, 1, 1, 1, 4, 4, 4, 4),
            ((10, 1, 8, 9, 3), (6, 4), (5, 0, 7), (11, 12, 2, 13, 14)),
            id="YFJS-n3-o5-m4-q2-s3",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 4, 2)),
            (3, 2, 4, 3, 1, 4, 2, 2, 4, 3, 1, 1, 3, 3, 2),
            ((10, 11, 4), (7, 6, 1, 14), (9, 12, 0, 13, 3), (5, 8, 2)),
            id="DAFJS-n3-m4-s2",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 5, 3)),
            (5, 1, 3, 1, 2, 4, 1, 4, 5, 2, 2, 4, 2, 2, 2, 1, 5, 3, 1, 4),
            ((15, 3, 1, 18, 6), (13, 14, 4, 9, 10, 12), (17, 2), (7, 5, 11, 19), (16, 0, 8)),
            id="DAFJS-n3-m5-s3",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(4, 5, 5, 3, 1)),
            (3, 2, 3, 1, 2, 5, 3, 2, 5, 3, 1, 4, 4, 4, 4, 5, 2, 4, 1, 3),
            ((10, 18, 3), (16, 1, 7, 4), (0, 2, 6, 19, 9), (11, 17, 12, 13, 14), (5, 15, 8)),
            id="YFJS-n4-o5-m5-q3-s1",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 4, 3)),
            (3, 2, 2, 3, 1, 4, 2, 1, 3, 4, 4, 2, 2, 3, 4, 4),
            ((7, 4), (12, 2, 1, 6, 11), (0, 13, 3, 8), (5, 9, 10, 14, 15)),
            id="DAFJS-n3-m4-s3",
        ),
    ],
)
def test_returned_solutions_are_pinned_on_the_bnb_corpus(instance, assignment, sequences):
    # The node counts above miss a change of incumbent or of the order of
    # equal-bound children that keeps the count: the returned leaf does not.
    result = solve_branch_and_bound(instance, time_limit=60)
    assert result.solution == SolutionPair(assignment, Selection(sequences))


def test_timeout_returns_est_incumbent_and_sound_bounds():
    # EST lands on machine 1 (start-time tie) with time 9; the optimum is 6.
    inst = Instance.from_tables("trap", 2, {0: {1: 9, 2: 3}, 1: {2: 3}}, [])
    _, est_sched = earliest_start_heuristic(inst)
    assert est_sched.makespan == 9
    optimum = brute_force(inst).upper_bound
    assert optimum == 6
    result = solve_branch_and_bound(inst, time_limit=1e-9)
    assert result.upper_bound == est_sched.makespan
    assert result.lower_bound <= optimum <= result.upper_bound
    assert result.status in ("bound-pair", "optimal")
    full = solve_branch_and_bound(inst, time_limit=60)
    assert full.status == "optimal"
    assert full.upper_bound == 6


def test_result_metadata(ex1):
    result = solve_branch_and_bound(ex1, 60)
    assert result.nodes_explored >= 0
    assert result.elapsed >= 0
    assert validate_solution(ex1, result.solution, result.schedule).ok


def least_end(instance, v, release, avail):
    """The earliest an open operation can end: on its best eligible machine, from its free time."""
    return min(max(avail[k - 1], release) + instance.ptime[v, k] for k in instance.eligible[v])


def split_end(instance, v, release, avail):
    """A weaker end: the least free time and the least processing time, often of two machines."""
    return max(min(avail[k - 1] for k in instance.eligible[v]), release) + min(instance.times[v])


def reference_lower_bound(instance, ready, mask, avail, end=least_end):
    """A node's bound as the search computes it straight from the instance, with 1-based machines.

    The path bound, where an open operation ends no earlier than the least
    ``max(avail[k - 1], release) + ptime(v, k)`` over its eligible machines
    k, and the workload of each machine's single-machine operations, both
    from ``max(avail)``.  With ``end=split_end`` it is the weaker bound the
    search used before it credited each machine's own free time.
    """
    pmin = [min(row) for row in instance.times]
    single_machine_ops: dict[int, list[int]] = {}
    for v in instance.ops:
        if len(instance.eligible[v]) == 1:
            single_machine_ops.setdefault(instance.eligible[v][0], []).append(v)
    lb = max(avail)
    dp = [0] * instance.n_ops
    for v in instance.order:
        if mask >> v & 1:
            continue
        release = ready[v]
        for u in instance.preds[v]:
            if not (mask >> u & 1) and dp[u] > release:
                release = dp[u]
        c = end(instance, v, release, avail)
        dp[v] = c
        if c > lb:
            lb = c
    for k, ops in single_machine_ops.items():
        load = avail[k - 1]
        for v in ops:
            if not (mask >> v & 1):
                load += pmin[v]
        if load > lb:
            lb = load
    return lb


class _Recording(exact._Search):
    """Keeps every search it makes, each with every node it pushes."""

    made: list[_Recording] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushed = []
        self.made.append(self)

    def run(self):
        self.pushed.extend(self.stack)  # the root
        super().run()

    def expand(self, node):
        children = super().expand(node)
        self.pushed.extend(children)
        return children


def _check_every_pushed_bound(monkeypatch, stale=None) -> int:
    """Checks the bound of every node pushed on 43 small instances, under each cutoff too.

    Returns how many nodes were checked.  With ``stale``, every entry of the
    bound walk's scratch ``dp`` is set to it before each call.
    """
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    pushed = 0
    for seed in range(43):
        inst = small_random_instance(seed, max_ops=12, max_machines=4, max_eligible=3)
        assert solve_branch_and_bound(inst, 60).status == "optimal"
        (search,) = _Recording.made
        _Recording.made.clear()

        def lower_bound(*args):
            if stale is not None:
                search.dp[:] = [stale] * inst.n_ops
            return search.lower_bound(*args)

        for node in search.pushed:
            ready, mask, avail = node.ready_time, node.scheduled_mask, node.machine_avail
            reference = reference_lower_bound(inst, ready, mask, avail)
            assert node.lower_bound == lower_bound(ready, mask, avail) == reference, inst.name
            low = max(avail)
            for cutoff in {low, (low + reference) / Fraction(2), reference - 1, reference, reference + 1}:
                bound = lower_bound(ready, mask, list(avail), cutoff)
                assert (bound >= cutoff) == (reference >= cutoff), (inst.name, cutoff)
                assert bound >= cutoff or bound == reference
        pushed += len(search.pushed)
    return pushed


def test_bound_matches_the_reference_on_every_pushed_node(monkeypatch):
    assert _check_every_pushed_bound(monkeypatch) > 500


class _Exhaustive(exact._Search):
    """A search bounded only by a node's makespan so far, so its optimum does not rest on ``lower_bound``."""

    def lower_bound(self, ready, mask, avail, cutoff=None):
        return max(avail)


def best_completion(instance, node):
    """The least makespan of any schedule that extends ``node``, from a search of its subtree alone."""
    search = _Exhaustive(instance, math.inf, deadline=math.inf)
    search.stack[:] = [node]
    search.run()
    return search.best_value


def test_every_pushed_bound_lies_between_the_weaker_bound_and_the_best_completion(monkeypatch):
    # Sound: no completion of a node ends before its bound.  At least as
    # strong as crediting each open operation with the least free time and
    # the least processing time, which may come from two machines.
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    checked = stronger = 0
    for seed in range(40):
        inst = small_random_instance(seed, max_ops=10, max_machines=4, max_eligible=3)
        if seed % 2:
            inst = replace(inst, times=tuple(tuple(Fraction(t, 7) for t in row) for row in inst.times))
        assert solve_branch_and_bound(inst, 60).status == "optimal"
        (search,) = _Recording.made
        _Recording.made.clear()
        for node in search.pushed:
            ready, mask, avail = node.ready_time, node.scheduled_mask, node.machine_avail
            weaker = reference_lower_bound(inst, ready, mask, avail, split_end)
            assert weaker <= node.lower_bound <= best_completion(inst, node), inst.name
            stronger += weaker < node.lower_bound
        checked += len(search.pushed)
    assert checked > 500 and stronger > 50, (checked, stronger)


@pytest.mark.parametrize("stale", [10**9, Fraction(10**9, 7)], ids=["int", "fraction"])
def test_bound_ignores_stale_scratch(monkeypatch, stale):
    # The bound walk reads ``dp`` without testing the mask, so each entry it
    # reads must be written earlier in the same call, whatever an earlier
    # call, or its return at the cutoff, left there.
    _check_every_pushed_bound(monkeypatch, stale)


@pytest.mark.parametrize("seed, nodes", [(1, 5), (3, 5), (9, 10), (13, 10), (23, 5)])
def test_a_timed_out_run_reports_full_bounds(monkeypatch, seed, nodes):
    # The clock reads 0 at the start and one more at each node the search
    # would expand, so the deadline strikes after exactly `nodes` nodes.
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    inst = small_random_instance(seed)
    with monkeypatch.context() as patch:
        clock = itertools.count()
        patch.setattr(exact.time, "monotonic", lambda: float(next(clock)))
        result = solve_branch_and_bound(inst, time_limit=nodes + 0.5)
    (search,) = _Recording.made
    assert result.nodes_explored == nodes
    assert result.status == "bound-pair"
    assert result.lower_bound <= brute_force(inst).upper_bound <= result.upper_bound
    left = [reference_lower_bound(inst, nd.ready_time, nd.scheduled_mask, nd.machine_avail) for nd in search.stack]
    assert [nd.lower_bound for nd in search.stack] == left
    assert result.lower_bound == min([result.upper_bound, *left])

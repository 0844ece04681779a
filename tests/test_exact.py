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


@pytest.mark.parametrize("limit", [0, -1, 0.5, math.nan, True, 1.5, math.inf])
def test_node_limit_must_be_at_least_1(ex1, limit):
    # None is the only "no limit"; a bool or a float is no count of nodes
    with pytest.raises(ValueError, match="^node_limit must be an int of at least 1$"):
        solve_branch_and_bound(ex1, node_limit=limit)


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
    "instance, optimum, nodes, depth_first_nodes",
    [
        pytest.param(generate_yfjs(YfjsParams(3, 4, 3, 2, 3)), 544, 188, 188, id="YFJS-n3-o4-m3-q2-s3"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 2)), 715, 32, 32, id="YFJS-n3-o5-m4-q2-s2"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 3)), 564, 17, 17, id="YFJS-n3-o5-m4-q2-s3"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 2)), 239, 103, 132, id="DAFJS-n3-m4-s2"),
        pytest.param(generate_dafjs(DafjsParams(3, 5, 3)), 261, 25, 25, id="DAFJS-n3-m5-s3"),
        pytest.param(generate_yfjs(YfjsParams(4, 5, 5, 3, 1)), 537, 147, 365, id="YFJS-n4-o5-m5-q3-s1"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 3)), 212, 288, 468, id="DAFJS-n3-m4-s3"),
    ],
)
def test_search_order_is_pinned_on_the_bnb_corpus(monkeypatch, instance, optimum, nodes, depth_first_nodes):
    # The `bnb` workload of perfbench/workloads.py (BNB_SOLVED + BNB_CAPPED):
    # any change to branching, bounding, child order or node selection moves
    # these counts.  With OPEN_NODE_CAP at 0 every open node goes on the
    # overflow stack, and the search is the depth-first one it was before
    # it plunged from the least bound.
    for cap, expected in ((exact.OPEN_NODE_CAP, nodes), (0, depth_first_nodes)):
        monkeypatch.setattr(exact, "OPEN_NODE_CAP", cap)
        result = solve_branch_and_bound(instance, time_limit=60)
        assert (result.upper_bound, result.nodes_explored, result.status) == (optimum, expected, "optimal"), cap


@pytest.mark.parametrize(
    "instance, assignment, sequences, depth_first_sequences",
    [
        pytest.param(
            generate_yfjs(YfjsParams(3, 4, 3, 2, 3)),
            (3, 1, 1, 2, 1, 1, 1, 2, 1, 3, 2, 3),
            ((8, 5, 4, 6, 1, 2), (10, 7, 3), (0, 9, 11)),
            None,
            id="YFJS-n3-o4-m3-q2-s3",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(3, 5, 4, 2, 2)),
            (2, 4, 1, 3, 3, 2, 2, 2, 1, 1, 1, 4, 3, 1, 4),
            ((10, 8, 13, 2, 9), (0, 5, 6, 7), (12, 3, 4), (11, 1, 14)),
            ((10, 8, 13, 2, 9), (5, 0, 6, 7), (12, 3, 4), (11, 1, 14)),
            id="YFJS-n3-o5-m4-q2-s2",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(3, 5, 4, 2, 3)),
            (3, 1, 4, 1, 2, 3, 2, 3, 1, 1, 1, 4, 4, 4, 4),
            ((10, 1, 8, 9, 3), (6, 4), (5, 0, 7), (11, 12, 2, 13, 14)),
            None,
            id="YFJS-n3-o5-m4-q2-s3",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 4, 2)),
            (3, 2, 4, 3, 1, 4, 2, 2, 4, 3, 1, 1, 3, 3, 2),
            ((10, 11, 4), (7, 6, 1, 14), (9, 12, 0, 13, 3), (5, 8, 2)),
            None,
            id="DAFJS-n3-m4-s2",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 5, 3)),
            (5, 1, 3, 1, 2, 4, 1, 4, 5, 2, 2, 4, 2, 2, 2, 1, 5, 3, 1, 4),
            ((15, 3, 1, 18, 6), (13, 14, 4, 9, 10, 12), (17, 2), (7, 5, 11, 19), (16, 0, 8)),
            None,
            id="DAFJS-n3-m5-s3",
        ),
        pytest.param(
            generate_yfjs(YfjsParams(4, 5, 5, 3, 1)),
            (3, 2, 3, 1, 2, 5, 3, 2, 5, 3, 1, 4, 4, 4, 4, 5, 2, 4, 1, 3),
            ((10, 18, 3), (16, 1, 7, 4), (0, 2, 6, 19, 9), (11, 17, 12, 13, 14), (5, 15, 8)),
            None,
            id="YFJS-n4-o5-m5-q3-s1",
        ),
        pytest.param(
            generate_dafjs(DafjsParams(3, 4, 3)),
            (3, 2, 2, 3, 1, 4, 2, 1, 3, 4, 4, 2, 2, 3, 4, 4),
            ((7, 4), (12, 2, 1, 6, 11), (0, 13, 3, 8), (5, 9, 10, 14, 15)),
            None,
            id="DAFJS-n3-m4-s3",
        ),
    ],
)
def test_returned_solutions_are_pinned_on_the_bnb_corpus(
    monkeypatch, instance, assignment, sequences, depth_first_sequences
):
    # The node counts above miss a change of incumbent or of the order of
    # equal-bound children that keeps the count: the returned leaf does not.
    # Depth first (OPEN_NODE_CAP at 0) the leaf is the one the search
    # returned before it plunged; None means the same leaf.
    result = solve_branch_and_bound(instance, time_limit=60)
    assert result.solution == SolutionPair(assignment, Selection(sequences))
    monkeypatch.setattr(exact, "OPEN_NODE_CAP", 0)
    result = solve_branch_and_bound(instance, time_limit=60)
    assert result.solution == SolutionPair(assignment, Selection(depth_first_sequences or sequences))


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
    """Keeps every search it makes, each with every node it pushes and the most nodes open at once."""

    made: list[_Recording] = []

    def __init__(self, *args, **kwargs):
        self.most_open = 0
        super().__init__(*args, **kwargs)
        self.pushed = []
        self.made.append(self)

    def _open(self, nodes):
        super()._open(nodes)
        self.most_open = max(self.most_open, len(self._open_nodes()))

    def run(self):
        self.pushed.extend(self._open_nodes())  # the root
        super().run()

    def expand(self, node):
        children = super().expand(node)
        self.pushed.extend(children)
        return children


SMALL_CAP = 2  # an open-node cap that the searches of the small instances overflow


def _check_every_pushed_bound(monkeypatch, stale=None) -> list[int]:
    """Checks the bound of every node pushed on 43 small instances, under each cutoff too.

    Runs each search with the open-node cap as it is and with ``SMALL_CAP``,
    and returns how many nodes were checked under each.  With ``stale``,
    every entry of the bound walk's scratch ``dp`` is set to it before each
    call.
    """
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    checked = []
    for cap in (exact.OPEN_NODE_CAP, SMALL_CAP):
        monkeypatch.setattr(exact, "OPEN_NODE_CAP", cap)
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
        checked.append(pushed)
    return checked


def test_bound_matches_the_reference_on_every_pushed_node(monkeypatch):
    assert min(_check_every_pushed_bound(monkeypatch)) > 500


class _Exhaustive(exact._Search):
    """A search bounded only by a node's makespan so far, so its optimum does not rest on ``lower_bound``."""

    def lower_bound(self, ready, mask, avail, cutoff=None):
        return max(avail)


def best_completion(instance, node):
    """The least makespan of any schedule that extends ``node``, from a search of its subtree alone."""
    search = _Exhaustive(instance, math.inf, deadline=math.inf)
    search._seed([node])
    search.run()
    return search.best_value


def test_every_pushed_bound_lies_between_the_weaker_bound_and_the_best_completion(monkeypatch):
    # Sound: no completion of a node ends before its bound.  At least as
    # strong as crediting each open operation with the least free time and
    # the least processing time, which may come from two machines.
    # Under the open-node cap as it is and under a small one.
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    for cap in (exact.OPEN_NODE_CAP, SMALL_CAP):
        monkeypatch.setattr(exact, "OPEN_NODE_CAP", cap)
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
        assert checked > 500 and stronger > 50, (cap, checked, stronger)


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
    open_nodes = search._open_nodes()
    left = [reference_lower_bound(inst, nd.ready_time, nd.scheduled_mask, nd.machine_avail) for nd in open_nodes]
    assert [nd.lower_bound for nd in open_nodes] == left
    assert result.lower_bound == min([result.upper_bound, *left])
    # The node limit stops at the same node, alone or when the deadline strikes there too.
    stopped = _outcome(result)
    assert _outcome(solve_branch_and_bound(inst, 60, node_limit=nodes)) == stopped
    with monkeypatch.context() as patch:
        clock = itertools.count()
        patch.setattr(exact.time, "monotonic", lambda: float(next(clock)))
        both = solve_branch_and_bound(inst, time_limit=nodes + 0.5, node_limit=nodes)
    assert _outcome(both) == stopped


def _outcome(result: SolveResult) -> SolveResult:
    """Everything a result holds but its wall time."""
    return replace(result, elapsed=0)


@pytest.mark.parametrize("cap", [1, 2, 8])
def test_every_optimum_holds_under_a_small_open_node_cap(monkeypatch, cap):
    # Beyond the cap open nodes go on the overflow stack, which is searched
    # depth first before the heap is popped again.
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    monkeypatch.setattr(exact, "OPEN_NODE_CAP", cap)
    overflowed = 0
    for seed in range(60):
        inst = small_random_instance(seed)
        bb = solve_branch_and_bound(inst, 60)
        (search,) = _Recording.made
        _Recording.made.clear()
        assert bb.status == "optimal"
        assert bb.upper_bound == brute_force(inst).upper_bound, inst.name
        assert validate_solution(inst, bb.solution, bb.schedule).ok, inst.name
        overflowed += search.most_open > cap
    assert overflowed > 0  # 13, 10 and 1 of the 60 searches at caps 1, 2 and 8


def test_the_overflow_stack_bounds_the_open_set(monkeypatch):
    # Once the heap holds OPEN_NODE_CAP nodes the rest go on a stack searched
    # depth first: at most one group of siblings, fewer than n_ops, per depth.
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    monkeypatch.setattr(exact, "OPEN_NODE_CAP", 64)
    inst = generate_dafjs(DafjsParams(4, 6, 9))  # still open after 100,000 nodes
    result = solve_branch_and_bound(inst, 60, node_limit=5000)
    (search,) = _Recording.made
    assert (result.status, result.nodes_explored) == ("bound-pair", 5000)
    assert exact.OPEN_NODE_CAP < search.most_open <= exact.OPEN_NODE_CAP + inst.n_ops**2, search.most_open


@pytest.mark.parametrize("instance", [generate_dafjs(DafjsParams(4, 6, 9)), generate_dafjs(DafjsParams(4, 5, 1))])
def test_a_node_limit_repeats_exactly(instance):
    first = solve_branch_and_bound(instance, 60, node_limit=2000)
    assert (first.status, first.nodes_explored) == ("bound-pair", 2000)
    assert first.lower_bound < first.upper_bound == first.schedule.makespan
    assert _outcome(solve_branch_and_bound(instance, 60, node_limit=2000)) == _outcome(first)


def test_a_node_limit_brackets_the_optimum():
    for seed in range(60):
        inst = small_random_instance(seed)
        optimum = brute_force(inst).upper_bound
        full = solve_branch_and_bound(inst, 60).nodes_explored
        for limit in range(1, 21):
            result = solve_branch_and_bound(inst, 60, node_limit=limit)
            assert result.nodes_explored == min(limit, full), (inst.name, limit)
            assert (result.status == "optimal") == (limit >= full), (inst.name, limit)
            assert result.lower_bound <= optimum <= result.upper_bound == result.schedule.makespan, (inst.name, limit)
            assert validate_solution(inst, result.solution, result.schedule).ok, (inst.name, limit)

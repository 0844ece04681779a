"""Exact solvers: worked examples, oracle agreement, bounds, one build per partial schedule."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from fjs import exact
from fjs.core import Instance, Schedule, Selection, SolutionPair, validate_solution
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
    wide = Instance.from_tables("wide", 3, {v: {1: 1, 2: 1, 3: 1} for v in range(8)}, [])
    with pytest.raises(CapError):
        brute_force(wide, max_assignments=100)


def test_time_limit_must_be_positive(ex1):
    with pytest.raises(ValueError):
        solve_branch_and_bound(ex1, time_limit=0)


def test_oracle_agreement_on_random_instances():
    for seed in range(60):
        inst = small_random_instance(seed)
        bf = brute_force(inst)
        bb = solve_branch_and_bound(inst, 60)
        assert bb.status == "optimal"
        assert bf.upper_bound == bb.upper_bound, inst.name
        for result in (bf, bb):
            assert result.lower_bound == result.upper_bound == result.schedule.makespan
            assert validate_solution(inst, result.solution, result.schedule).ok


def test_no_partial_schedule_is_built_twice(monkeypatch):
    built: list[tuple[tuple[int, ...], ...]] = []

    class Recording(exact._Search):
        def expand(self, node):
            children = super().expand(node)
            built.extend(child.machine_seq for child in children)
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
        pytest.param(generate_yfjs(YfjsParams(3, 4, 3, 2, 3)), 544, 224, id="YFJS-n3-o4-m3-q2-s3"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 2)), 715, 39, id="YFJS-n3-o5-m4-q2-s2"),
        pytest.param(generate_yfjs(YfjsParams(3, 5, 4, 2, 3)), 564, 34, id="YFJS-n3-o5-m4-q2-s3"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 2)), 239, 202, id="DAFJS-n3-m4-s2"),
        pytest.param(generate_dafjs(DafjsParams(3, 5, 3)), 261, 44, id="DAFJS-n3-m5-s3"),
        pytest.param(generate_yfjs(YfjsParams(4, 5, 5, 3, 1)), 537, 453, id="YFJS-n4-o5-m5-q3-s1"),
        pytest.param(generate_dafjs(DafjsParams(3, 4, 3)), 212, 1172, id="DAFJS-n3-m4-s3"),
    ],
)
def test_search_order_is_pinned_on_the_bnb_corpus(instance, optimum, nodes):
    # The `bnb` workload of perfbench/workloads.py (BNB_SOLVED + BNB_CAPPED):
    # any change to branching, bounding or child order moves these counts.
    result = solve_branch_and_bound(instance, time_limit=60)
    assert (result.upper_bound, result.nodes_explored, result.status) == (optimum, nodes, "optimal")


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


def reference_lower_bound(instance, ready, mask, avail):
    """A node's bound as the search computed it straight from the instance, with 1-based machines.

    The path bound with each operation's least time and its earliest free
    eligible machine, and the workload of each machine's single-machine
    operations, both from ``max(avail)``.
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
        for u in instance.predecessors(v):
            if not (mask >> u & 1) and dp[u] > release:
                release = dp[u]
        base = min(avail[k - 1] for k in instance.eligible[v])
        if base > release:
            release = base
        c = release + pmin[v]
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


def test_bound_matches_the_reference_on_every_pushed_node(monkeypatch):
    monkeypatch.setattr(_Recording, "made", [])
    monkeypatch.setattr(exact, "_Search", _Recording)
    pushed = 0
    for seed in range(30):
        inst = small_random_instance(seed, max_ops=12, max_machines=4, max_eligible=3)
        assert solve_branch_and_bound(inst, 60).status == "optimal"
        (search,) = _Recording.made
        _Recording.made.clear()
        for node in search.pushed:
            ready, mask, avail = node.ready_time, node.scheduled_mask, node.machine_avail
            reference = reference_lower_bound(inst, ready, mask, avail)
            assert node.lower_bound == search.lower_bound(ready, mask, avail) == reference, inst.name
            low = max(avail)
            for cutoff in {low, (low + reference) / Fraction(2), reference - 1, reference, reference + 1}:
                bound = search.lower_bound(ready, mask, list(avail), cutoff)
                assert (bound >= cutoff) == (reference >= cutoff), (inst.name, cutoff)
                assert bound >= cutoff or bound == reference
        pushed += len(search.pushed)
    assert pushed > 500


@pytest.mark.parametrize("seed, nodes", [(1, 5), (3, 5), (9, 10), (13, 10), (23, 10)])
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

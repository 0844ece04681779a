"""Domain model tests; tight-schedule expectations come from a path enumerator."""

from __future__ import annotations

import heapq
import reprlib
from collections import Counter
from fractions import Fraction

import pytest

from fjs.core import (
    MAX_MACHINES,
    InadmissibleError,
    Instance,
    InstanceError,
    Schedule,
    Selection,
    SelectionError,
    SolutionPair,
    ValidationIssue,
    ValidationReport,
    certified_critical_path,
    disjunctive_pairs,
    selection_from_starts,
    tight_schedule,
    topological_order,
    validate_solution,
    weakly_connected_components,
    _echo,
    _find_cycle,
    _kahn,
    _num_text,
    _selection_preds,
)
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.rng import Xoshiro256StarStar

from conftest import (
    cyclic_reversals,
    integral_instances,
    random_admissible_solution,
    reversed_sequence_mix,
    small_random_instance,
)


def all_paths_longest_start(instance, sol):
    """Independent oracle: max path length into each op by full enumeration."""
    edges = set(instance.arcs) | set(sol.selection.pairs)
    f = sol.assignment
    p = [instance.ptime[v, f[v]] for v in instance.ops]
    preds = {v: [u for (u, w) in edges if w == v] for v in instance.ops}

    def longest_into(v, seen):
        best = 0
        for u in preds[v]:
            assert u not in seen, "cycle reached by the enumeration oracle"
            cand = longest_into(u, seen | {u}) + p[u]
            best = max(best, cand)
        return best

    return [longest_into(v, {v}) for v in instance.ops]


EX1_SOL = SolutionPair((1, 1, 2), Selection(((0, 1), (2,))))

# 10**5000 and -10**5000 as ``_echo`` cuts them: 38 leading characters, "..." and 39 trailing digits
BIG_CUT = f"1{'0' * 37}...{'0' * 39}"
MINUS_BIG_CUT = f"-1{'0' * 36}...{'0' * 39}"


class TestDisjunctivePairs:
    def test_ex1_sets(self, ex1):
        dp = disjunctive_pairs(ex1)
        assert dp.keys() == {1, 2}
        assert set(dp[1]) == {(0, 1), (1, 0)}
        assert set(dp[2]) == {(1, 2), (2, 1)}

    def test_disjoint_eligibility_gives_empty(self):
        inst = Instance.from_tables("disjoint", 2, {0: {1: 2}, 1: {2: 3}}, [])
        assert disjunctive_pairs(inst) == {1: (), 2: ()}

    def test_single_operation(self):
        inst = Instance.from_tables("one", 1, {0: {1: 7}}, [])
        assert disjunctive_pairs(inst) == {1: ()}

    @pytest.mark.parametrize(
        "instance",
        [
            *integral_instances(),
            # machine 2 runs one operation and machine 3 none
            Instance.from_tables("sparse", 3, {0: {1: 2}, 1: {1: 3, 2: 4}, 2: {1: 1}}, []),
        ],
        ids=lambda inst: inst.name,
    )
    def test_matches_the_nested_loop_definition(self, instance):
        on_machine = {k: [v for v in instance.ops if k in instance.eligible[v]] for k in range(1, instance.machines + 1)}
        expected = {k: tuple((v, w) for v in ops_k for w in ops_k if v != w) for k, ops_k in on_machine.items()}
        assert disjunctive_pairs(instance) == expected
        assert list(disjunctive_pairs(instance)) == list(expected)

    def test_symmetry_on_random_instances(self):
        for seed in range(20):
            inst = small_random_instance(seed)
            dp = disjunctive_pairs(inst)
            assert dp.keys() == set(range(1, inst.machines + 1))
            for k, pairs_k in dp.items():
                assert len(set(pairs_k)) == len(pairs_k)
                assert all((w, v) in pairs_k for v, w in pairs_k)
                assert all(v != w and k in inst.eligible[v] and k in inst.eligible[w] for v, w in pairs_k)


class TestSelection:
    def test_lists_and_tuples_give_equal_selections(self):
        assert Selection([[0, 2, 1], [3]]) == Selection(((0, 2, 1), (3,)))
        assert hash(Selection([[0, 2, 1], [3]])) == hash(Selection(((0, 2, 1), (3,))))

    def test_pairs_view_is_the_transitive_orientation(self):
        pairs = Selection(((0, 2, 1), (3,), ())).pairs
        assert len(pairs) == 3
        assert pairs == frozenset({(0, 2), (0, 1), (2, 1)})
        assert (0, 1) in pairs and (1, 0) not in pairs and (0, 3) not in pairs
        assert pairs | {(3, 0)} == frozenset({(0, 2), (0, 1), (2, 1), (3, 0)})

    def test_positions(self):
        assert Selection(((0, 2, 1), (3,))).positions() == {0: (1, 0), 2: (1, 1), 1: (1, 2), 3: (2, 0)}


class TestAdmissibility:
    def test_ex1_forward_orientation(self, ex1):
        assert tight_schedule(ex1, EX1_SOL).makespan == 8

    def test_ex1_backward_orientation_cycles(self, ex1):
        sol = SolutionPair((1, 1, 2), Selection(((1, 0), (2,))))
        with pytest.raises(InadmissibleError, match="selection induces a cycle: 1->0"):
            tight_schedule(ex1, sol)

    def test_empty_selection_on_distinct_machines(self):
        inst = Instance.from_tables("distinct", 2, {0: {1: 2}, 1: {2: 3}}, [])
        sol = SolutionPair((1, 2), Selection(((0,), (1,))))
        assert tight_schedule(inst, sol).makespan == 3

    def test_missing_orientation_is_malformed_not_inadmissible(self, ex1):
        # operation 1 is left out of machine 1's sequence
        sol = SolutionPair((1, 1, 2), Selection(((0,), (2,))))
        with pytest.raises(SelectionError, match="operation 1 is missing"):
            tight_schedule(ex1, sol)

    def test_double_orientation_is_malformed(self, ex1):
        # operation 0 is listed twice, so machine 1 has no single order
        sol = SolutionPair((1, 1, 2), Selection(((0, 1, 0), (2,))))
        with pytest.raises(SelectionError, match="operation 0 appears twice"):
            tight_schedule(ex1, sol)

    def test_off_machine_pair_is_malformed(self, ex1):
        # operation 1 is assigned to machine 2 but sequenced on machine 1
        sol = SolutionPair((1, 2, 2), Selection(((0, 1), (1, 2))))
        with pytest.raises(SelectionError, match="operation 1 is sequenced on machine 1 but not assigned"):
            tight_schedule(ex1, sol)

    @pytest.mark.parametrize(
        "sol, message",
        [
            (SolutionPair((1, 1), Selection(((0, 1), (2,)))), "assignment covers 2 of 3 operations"),
            (SolutionPair((2, 1, 2), Selection(((1,), (0, 2)))), "operation 0 assigned to ineligible machine 2"),
            (SolutionPair((1, 1, 2), Selection(((0, 1),))), "selection has 1 sequences for 2 machines"),
        ],
        ids=["assignment-length", "ineligible-machine", "sequence-count"],
    )
    def test_a_malformed_solution_is_refused_before_its_sequences_are_read(self, ex1, sol, message):
        with pytest.raises(SelectionError) as err:
            tight_schedule(ex1, sol)
        assert str(err.value) == message

    def test_inadmissible_solution_has_cycle_certificate(self, ex1):
        sol = SolutionPair((1, 1, 2), Selection(((1, 0), (2,))))
        with pytest.raises(InadmissibleError) as err:
            tight_schedule(ex1, sol)
        cycle = err.value.cycle
        edges = set(ex1.arcs) | set(sol.selection.pairs)
        closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
        assert all(edge in edges for edge in closed)


class TestOneSortPerGraph:
    """Each acyclicity question is at most one Kahn run, including naming the
    cycle, and none for starts that keep every arc."""

    CYCLIC = SolutionPair((1, 1, 2), Selection(((1, 0), (2,))))

    @pytest.fixture
    def kahn_runs(self, monkeypatch):
        import fjs.core

        runs = []
        kahn = fjs.core._kahn

        def counted(n, preds, succs=None):
            runs.append(n)
            return kahn(n, preds, succs)

        monkeypatch.setattr(fjs.core, "_kahn", counted)
        return runs

    def test_instance_with_cyclic_arcs(self, kahn_runs):
        with pytest.raises(InstanceError, match="cycle: 1->0"):
            Instance.from_tables("loop", 1, {0: {1: 1}, 1: {1: 1}}, [(0, 1), (1, 0)])
        assert len(kahn_runs) == 1

    def test_tight_schedule_of_a_cyclic_selection(self, ex1, kahn_runs):
        with pytest.raises(InadmissibleError):
            tight_schedule(ex1, self.CYCLIC)
        assert len(kahn_runs) == 1

    def test_validate_solution_of_a_cyclic_selection(self, ex1, kahn_runs):
        report = validate_solution(ex1, self.CYCLIC, Schedule((0, 3, 3), 8))
        assert report.issues[0].message == "cycle 1->0"
        assert len(kahn_runs) == 1

    def test_validate_solution_of_a_valid_solution(self, ex1, kahn_runs):
        assert validate_solution(ex1, EX1_SOL, Schedule((0, 3, 3), 8)).ok
        assert kahn_runs == []

    def test_validate_solution_of_starts_that_break_an_arc(self, ex1, kahn_runs):
        # operation 1 starts before operation 0 ends: both its arcs from 0
        # break, but the selection closes no cycle
        report = validate_solution(ex1, EX1_SOL, Schedule((0, 2, 3), 8))
        assert [issue.kind for issue in report.issues] == ["precedence", "machine-conflict"]
        assert len(kahn_runs) == 1

    @pytest.mark.parametrize("model", ["compact", "machine_indexed"])
    def test_decode_of_the_encoded_ex1_point(self, ex1, kahn_runs, model):
        from fjs import milp

        point = getattr(milp, f"encode_{model}")(ex1, EX1_SOL)
        kahn_runs.clear()
        sol, _ = getattr(milp, f"decode_{model}")(ex1, point)
        assert sol == EX1_SOL
        # the compact decoder sorts in tight_schedule; the machine-indexed one
        # hands the point's starts, which keep every arc, to validate_solution
        assert len(kahn_runs) == {"compact": 1, "machine_indexed": 0}[model]


def _min_id_order(instance: Instance) -> tuple[int, ...]:
    """Kahn's order with a min-id heap for a frontier."""
    pending = [len(instance.preds[v]) for v in instance.ops]
    frontier = [v for v in instance.ops if not pending[v]]
    order = []
    while frontier:
        v = heapq.heappop(frontier)
        order.append(v)
        for w in instance.succs[v]:
            pending[w] -= 1
            if not pending[w]:
                heapq.heappush(frontier, w)
    return tuple(order)


# the benchmark's corpus, then seeded instances of small and wide shapes
ORDER_CASES = [
    *(YfjsParams(*sizes) for sizes in [(10, 10, 10, 3, 1), (100, 10, 10, 3, 1), (200, 10, 20, 3, 1)]),
    *(YfjsParams(*sizes) for sizes in [(3, 4, 3, 2, 3), (3, 5, 4, 2, 2), (3, 5, 4, 2, 3), (4, 5, 5, 3, 1)]),
    *(DafjsParams(*sizes) for sizes in [(5, 10, 1), (60, 10, 1), (3, 4, 2), (3, 5, 3), (3, 4, 3)]),
    *(YfjsParams(2 + seed % 5, 1 + seed % 9, 4, 2, seed) for seed in range(20)),
    *(DafjsParams(1 + seed % 6, 2 + seed % 9, seed) for seed in range(20)),
]


class TestTopologicalOrder:
    """``Instance.order`` is the row order of the branch-and-bound's bound
    walk, so its speed depends on it: on generated instances the depth-first
    frontier gives the order of a min-id heap."""

    @pytest.mark.parametrize("params", ORDER_CASES, ids=str)
    def test_generated_instances_keep_the_min_id_order(self, params):
        instance = generate_yfjs(params) if isinstance(params, YfjsParams) else generate_dafjs(params)
        assert instance.order == _min_id_order(instance)

    def test_order_is_topological_on_random_dags(self):
        for seed in range(200):
            instance = small_random_instance(seed, max_ops=14, arc_percent=20)
            position = {v: i for i, v in enumerate(instance.order)}
            assert sorted(position) == list(instance.ops)
            assert all(position[u] < position[w] for u, w in instance.arcs)
            assert topological_order(instance.n_ops, instance.preds) == list(instance.order)


class TestTightSchedule:
    def test_ex1_values(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        assert all_paths_longest_start(ex1, EX1_SOL) == list(sched.start)
        assert sched.start == (0, 3, 3)
        assert sched.makespan == 8
        assert certified_critical_path(ex1, EX1_SOL, sched.start) == (0, 2)

    def test_single_operation(self):
        inst = Instance.from_tables("one", 1, {0: {1: 7}}, [])
        sol = SolutionPair((1,), Selection(((0,),)))
        sched = tight_schedule(inst, sol)
        assert sched.start == (0,)
        assert sched.makespan == 7
        assert certified_critical_path(inst, sol, sched.start) == (0,)

    def test_an_empty_instance_has_an_empty_certificate(self):
        empty = Instance("empty", 2, (), (), ())
        assert certified_critical_path(empty, SolutionPair((), Selection(((), ()))), ()) == ()

    def test_chain_forced_by_precedence(self):
        inst = Instance.from_tables("chain", 3, {0: {1: 1}, 1: {2: 1}, 2: {3: 1}}, [(0, 1), (1, 2)])
        sol = SolutionPair((1, 2, 3), Selection(((0,), (1,), (2,))))
        sched = tight_schedule(inst, sol)
        assert sched.start == (0, 1, 2)
        assert sched.makespan == 3

    def test_matches_path_enumeration_on_random_instances(self):
        for seed in range(30):
            inst = small_random_instance(seed, max_ops=6)
            sol = random_admissible_solution(inst, seed * 7 + 1)
            sched = tight_schedule(inst, sol)
            assert list(sched.start) == all_paths_longest_start(inst, sol)

    def test_minimal_among_perturbed_feasible_schedules(self):
        for seed in range(10):
            inst = small_random_instance(seed, max_ops=7)
            sol = random_admissible_solution(inst, seed + 100)
            sched = tight_schedule(inst, sol)
            rng = Xoshiro256StarStar(seed)
            f = sol.assignment
            p = [inst.ptime[v, f[v]] for v in inst.ops]
            edges = set(inst.arcs) | set(sol.selection.pairs)
            preds = {v: [u for (u, w) in edges if w == v] for v in inst.ops}
            order = sorted(inst.ops, key=lambda v: (sched.start[v], v))
            for _ in range(100):
                slack = [rng.randint(0, 5) for _ in inst.ops]
                start = [0] * inst.n_ops
                for v in order:
                    floor = max((start[u] + p[u] for u in preds[v]), default=0)
                    start[v] = floor + slack[v]
                perturbed = max(start[v] + p[v] for v in inst.ops)
                assert perturbed >= sched.makespan

    def test_no_slack_at_any_start(self):
        for seed in range(20):
            inst = small_random_instance(seed)
            sol = random_admissible_solution(inst, seed + 999)
            sched = tight_schedule(inst, sol)
            f = sol.assignment
            p = [inst.ptime[v, f[v]] for v in inst.ops]
            edges = set(inst.arcs) | set(sol.selection.pairs)
            preds = {v: [u for (u, w) in edges if w == v] for v in inst.ops}
            for v in inst.ops:
                if sched.start[v] != 0:
                    assert any(sched.start[u] + p[u] == sched.start[v] for u in preds[v])

    def test_critical_path_certifies_makespan(self):
        for seed in range(20):
            inst = small_random_instance(seed)
            sol = random_admissible_solution(inst, seed + 5)
            sched = tight_schedule(inst, sol)
            f = sol.assignment
            path = certified_critical_path(inst, sol, sched.start)
            assert path, "tight schedules always admit a certificate"
            assert sum(inst.ptime[v, f[v]] for v in path) == sched.makespan


def _reference_validate(instance, sol, sched):
    """``validate_solution`` with a Kahn run for every well-formed selection,
    whether or not its starts break an arc."""
    issues = []
    f = sol.assignment
    if len(f) != instance.n_ops:
        issues.append(ValidationIssue("assignment", f"assignment covers {len(f)} of {instance.n_ops} operations"))
    else:
        for v, k in enumerate(f):
            if k not in instance.eligible[v]:
                issues.append(ValidationIssue("assignment", f"operation {v} on ineligible machine {k}"))
    if len(sched.start) != instance.n_ops:
        issues.append(ValidationIssue("schedule", f"schedule covers {len(sched.start)} of {instance.n_ops} operations"))
    if issues:
        return ValidationReport(tuple(issues))

    s = sched.start
    try:
        preds = _selection_preds(instance, sol)
    except SelectionError as exc:
        issues.append(ValidationIssue("selection", str(exc)))
    else:
        order = _kahn(instance.n_ops, preds)
        if len(order) < instance.n_ops:
            cycle = _find_cycle(preds, order)
            issues.append(ValidationIssue("admissibility", f"cycle {'->'.join(map(str, cycle))}"))
    sequences = (selection_from_starts(instance, sol.assignment, s) if issues else sol.selection).sequences

    p = [instance.ptime[v, f[v]] for v in instance.ops]
    for v in instance.ops:
        if s[v] < 0:
            issues.append(ValidationIssue("start-range", f"operation {v} starts at {_num_text(s[v])} < 0"))
    for u, w in instance.arcs:
        if s[u] + p[u] > s[w]:
            message = f"arc ({u}, {w}): {_num_text(s[u])} + {p[u]} > {_num_text(s[w])}"
            issues.append(ValidationIssue("precedence", message))
    for k, seq in enumerate(sequences, 1):
        for a, b in zip(seq, seq[1:]):
            if s[a] + p[a] > s[b]:
                issues.append(ValidationIssue("machine-conflict", f"operations {a} and {b} overlap on machine {k}"))
    if instance.n_ops:
        actual = max(s[v] + p[v] for v in instance.ops)
        if sched.makespan != actual:
            issues.append(
                ValidationIssue("makespan", f"recorded makespan {_num_text(sched.makespan)} != {_num_text(actual)}")
            )
    elif sched.makespan != 0:
        issues.append(ValidationIssue("makespan", "empty instance must have makespan 0"))
    return ValidationReport(tuple(issues))


class TestValidateSolution:
    def test_matches_the_reference_that_always_sorts(self):
        # EST solutions, the same with some starts shifted, and with one
        # machine's sequence reversed, which closes a cycle when a
        # precedence path joins two of its operations
        kinds = Counter()
        for seed, (inst, sol, sched, reversed_sol) in enumerate(reversed_sequence_mix()):
            rng = Xoshiro256StarStar(seed)
            shifted = tuple(t + rng.randint(-3, 3) if rng.randint(0, 2) == 0 else t for t in sched.start)
            for case in ((sol, sched), (sol, Schedule(shifted, sched.makespan)), (reversed_sol, sched)):
                report = validate_solution(inst, *case)
                assert report == _reference_validate(inst, *case), inst.name
                kinds.update(issue.kind for issue in report.issues)
        assert kinds["admissibility"] >= 100 and kinds["precedence"] >= 100, kinds

    def test_a_cyclic_selection_is_named_by_the_cycle_tight_schedule_raises(self):
        cases = cyclic_reversals()
        assert len(cases) == 213
        for inst, _, sched, reversed_sol, cycle in cases:
            report = validate_solution(inst, reversed_sol, sched)
            assert report.issues[0] == ValidationIssue("admissibility", f"cycle {'->'.join(map(str, cycle))}")

    def test_feasible_triple_is_clean(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        report = validate_solution(ex1, EX1_SOL, sched)
        assert report.ok

    def test_a_clean_report_summarises_as_ok(self, ex1):
        assert validate_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)).summary() == "ok"

    def test_precedence_violation_reported(self, ex1):
        sched = Schedule(start=(0, 2, 3), makespan=8)
        report = validate_solution(ex1, EX1_SOL, sched)
        kinds = [i.kind for i in report.issues]
        assert "precedence" in kinds
        entry = next(i for i in report.issues if i.kind == "precedence")
        assert entry.message == "arc (0, 1): 0 + 3 > 2"

    def test_machine_conflict_reported(self):
        inst = Instance.from_tables("two", 1, {0: {1: 2}, 1: {1: 3}}, [])
        sol = SolutionPair((1, 1), Selection(((0, 1),)))
        sched = Schedule(start=(0, 1), makespan=4)
        report = validate_solution(inst, sol, sched)
        assert any(i.kind == "machine-conflict" for i in report.issues)

    def test_starts_that_contradict_the_selection_conflict(self):
        # in order of start the two operations do not overlap, but the
        # selection puts 0 first
        inst = Instance.from_tables("two", 1, {0: {1: 2}, 1: {1: 3}}, [])
        sol = SolutionPair((1, 1), Selection(((0, 1),)))
        report = validate_solution(inst, sol, Schedule(start=(3, 0), makespan=5))
        assert [(i.kind, i.message) for i in report.issues] == [
            ("machine-conflict", "operations 0 and 1 overlap on machine 1")
        ]

    def test_bad_makespan_reported(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        wrong = Schedule(start=sched.start, makespan=9)
        report = validate_solution(ex1, EX1_SOL, wrong)
        assert any(i.kind == "makespan" for i in report.issues)

    def test_ineligible_assignment_reported(self, ex1):
        sol = SolutionPair((2, 1, 2), Selection(((1,), (0, 2))))
        sched = Schedule(start=(0, 3, 3), makespan=8)
        report = validate_solution(ex1, sol, sched)
        assert any(i.kind == "assignment" for i in report.issues)

    def test_cycle_is_named_on_the_neighbour_arcs(self):
        # 1, 2, 0 on one machine against arc (0, 1): only neighbours on the
        # machine are arcs, so the cycle is the chain 1->2->0, the one
        # tight_schedule raises, and not 1->0 through the pair (1, 0)
        inst = Instance.from_tables("c", 1, {0: {1: 1}, 1: {1: 1}, 2: {1: 1}}, [(0, 1)])
        sol = SolutionPair((1, 1, 1), Selection(((1, 2, 0),)))
        with pytest.raises(InadmissibleError) as err:
            tight_schedule(inst, sol)
        assert err.value.cycle == (1, 2, 0)
        report = validate_solution(inst, sol, Schedule((0, 1, 2), 3))
        assert [(i.kind, i.message) for i in report.issues] == [("admissibility", "cycle 1->2->0")]

    def test_a_start_too_long_for_text_is_cut(self, ex1):
        report = validate_solution(ex1, EX1_SOL, Schedule(start=(-(10**5000), 3, 3), makespan=8))
        assert [(i.kind, i.message) for i in report.issues] == [
            ("start-range", f"operation 0 starts at {MINUS_BIG_CUT} < 0")
        ]

    def test_a_precedence_start_too_long_for_text_is_cut(self, ex1):
        report = validate_solution(ex1, EX1_SOL, Schedule(start=(10**5000, 0, 10**5000 + 3), makespan=10**5000 + 8))
        assert [(i.kind, i.message) for i in report.issues] == [
            ("precedence", f"arc (0, 1): {BIG_CUT} + 3 > 0"),
            ("machine-conflict", "operations 0 and 1 overlap on machine 1"),
        ]

    def test_a_makespan_too_long_for_text_is_cut(self, ex1):
        report = validate_solution(ex1, EX1_SOL, Schedule(start=(0, 3, 3), makespan=10**5000))
        assert [(i.kind, i.message) for i in report.issues] == [("makespan", f"recorded makespan {BIG_CUT} != 8")]

    @pytest.mark.parametrize(
        "assignment, start, issues",
        [
            ((1, 1), (0, 3, 3), [("assignment", "assignment covers 2 of 3 operations")]),
            ((1, 1, 2), (0, 3), [("schedule", "schedule covers 2 of 3 operations")]),
            (
                (1, 1, 2, 2),
                (0, 3, 3, 3),
                [
                    ("assignment", "assignment covers 4 of 3 operations"),
                    ("schedule", "schedule covers 4 of 3 operations"),
                ],
            ),
        ],
        ids=["short-assignment", "short-starts", "both-long"],
    )
    def test_lengths_are_reported_before_any_other_check(self, ex1, assignment, start, issues):
        report = validate_solution(ex1, SolutionPair(assignment, EX1_SOL.selection), Schedule(start, 8))
        assert [(i.kind, i.message) for i in report.issues] == issues

    def test_an_empty_instance_has_makespan_0(self):
        empty = Instance("empty", 2, (), (), ())
        sol = SolutionPair((), Selection(((), ())))
        assert validate_solution(empty, sol, Schedule((), 0)).ok
        report = validate_solution(empty, sol, Schedule((), 3))
        assert [(i.kind, i.message) for i in report.issues] == [("makespan", "empty instance must have makespan 0")]

    def test_never_raises_on_garbage(self, ex1):
        sol = SolutionPair((1, 1, 2), Selection(((1, 0, 1), (2,))))
        sched = Schedule(start=(-1, 0, 0), makespan=0)
        report = validate_solution(ex1, sol, sched)
        assert not report.ok


class TestEcho:
    @pytest.mark.parametrize("digits", [1, 79, 80, 81, 200, 4300])
    def test_an_int_is_echoed_as_reprlib_cuts_it(self, digits):
        cutter = reprlib.Repr()
        cutter.maxlong = 80
        for x in (10**digits - 1, -(10**digits - 1), 7 * 10 ** (digits - 1) + 3):
            assert _echo(x) == cutter.repr(x)
            if len(repr(x)) <= 80:
                assert _echo(x) == repr(x)

    def test_an_int_past_the_text_limit_shows_its_first_and_last_digits(self):
        x = 12345 * 10**5000 + 678
        assert _echo(x) == f"12345{'0' * 33}...{'0' * 36}678"
        assert _echo(-x) == f"-12345{'0' * 32}...{'0' * 36}678"
        assert _echo(Fraction(x, 11)) == f"Fraction(12345{'0' * 33}...{'0' * 36}678, 11)"
        assert _echo(Fraction(-1, 3)) == repr(Fraction(-1, 3))


    def test_a_dict_is_cut_at_8_items_and_3_levels(self):
        assert _echo({}) == "{}"
        assert _echo(dict.fromkeys(range(9), 0)) == "{0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, ...}"
        assert _echo({1: {2: {3: {4: 5}}}}) == "{1: {2: {3: {...}}}}"
        assert _echo({1: {2: {3: {}}}}) == "{1: {2: {3: {}}}}"  # an empty dict is shown at any depth


class TestInstanceValidation:
    @pytest.mark.parametrize("name", [5, None])
    def test_non_string_name(self, name):
        # serialize_instance would write such a name, and parse_instance refuse it
        with pytest.raises(InstanceError, match=f"^instance name {name!r} is not a string$") as err:
            Instance(name, 1, ((1,),), ((3,),), ())
        assert err.value.code == "bad-format"

    def test_dangling_arc(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1}}, [(0, 3)])
        assert err.value.code == "dangling-arc"

    def test_bool_arc_endpoint_rejected(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1}, 1: {1: 1}}, [(True, 0)])
        assert err.value.code == "dangling-arc"

    def test_self_loop(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1}}, [(0, 0)])
        assert err.value.code == "self-loop"

    def test_cycle_names_witness(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1}, 1: {1: 1}}, [(0, 1), (1, 0)])
        assert err.value.code == "cycle"
        assert "->" in str(err.value)

    def test_empty_eligibility(self):
        with pytest.raises(InstanceError) as err:
            Instance("bad", 1, ((),), ((),), ())
        assert err.value.code == "empty-eligible"

    @pytest.mark.parametrize(
        "eligible, times, code, message",
        [
            (((1,), (1,)), ((1,),), "shape-mismatch", "eligible and times must have one entry per operation"),
            (((1, 2),), ((1,),), "shape-mismatch", "operation 0: one time per eligible machine required"),
            (((1.0,),), ((1,),), "bad-machine", "operation 0: machine id 1.0 is not an integer"),
        ],
        ids=["row-count", "time-count", "float-machine"],
    )
    def test_malformed_rows_passed_to_the_constructor(self, eligible, times, code, message):
        with pytest.raises(InstanceError) as err:
            Instance("bad", 2, eligible, times, ())
        assert (err.value.code, str(err.value)) == (code, message)

    def test_nonpositive_time(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 0}}, [])
        assert err.value.code == "nonpositive-time"

    def test_float_time_rejected(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1.5}}, [])
        assert err.value.code == "bad-time"

    def test_times_of_max_digits(self):
        assert Instance.from_tables("ok", 1, {0: {1: 10**1000 - 1}, 1: {1: Fraction(1, 10**1000 - 1)}}, []).n_ops == 2
        for time in (10**1000, Fraction(1, 10**1000), Fraction(10**1000, 3)):
            with pytest.raises(InstanceError, match="at most 1000 digits") as err:
                Instance.from_tables("bad", 1, {0: {1: time}}, [])
            assert err.value.code == "bad-time"

    def test_an_int_too_long_for_text_is_echoed_cut(self):
        cut = f"1{'0' * 37}...{'0' * 39}"
        with pytest.raises(InstanceError, match=rf"at most 1000 digits, got {cut}$"):
            Instance.from_tables("bad", 1, {0: {1: 10**5000}}, [])
        with pytest.raises(InstanceError, match=rf"must be <= {MAX_MACHINES}, got {cut}$"):
            Instance("bad", 10**5000, ((1,),), ((1,),), ())

    def test_a_machine_count_too_long_for_text_is_cut(self):
        with pytest.raises(InstanceError, match=rf"machine count must be >= 1, got {MINUS_BIG_CUT}$"):
            Instance("bad", -(10**5000), ((1,),), ((1,),), ())

    @pytest.mark.parametrize(
        "time, shown",
        [(-(10**5000), MINUS_BIG_CUT), (Fraction(-(10**5000), 3), f"{MINUS_BIG_CUT}/3"), (Fraction(-1, 2), "-1/2")],
        ids=["int", "fraction", "short-fraction"],
    )
    def test_a_nonpositive_time_too_long_for_text_is_cut(self, time, shown):
        with pytest.raises(InstanceError, match=rf"processing time must be positive, got {shown}$") as err:
            Instance.from_tables("bad", 1, {0: {1: time}}, [])
        assert err.value.code == "nonpositive-time"

    def test_machine_count_cap(self):
        assert Instance("ok", MAX_MACHINES, ((MAX_MACHINES,),), ((1,),), ()).machines == MAX_MACHINES
        with pytest.raises(InstanceError, match=f"machine count must be <= {MAX_MACHINES}") as err:
            Instance("bad", MAX_MACHINES + 1, ((1,),), ((1,),), ())
        assert err.value.code == "bad-machine-count"

    def test_machine_out_of_range(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {2: 1}}, [])
        assert err.value.code == "bad-machine"

    def test_sparse_ids_rejected(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1}, 2: {1: 1}}, [])
        assert err.value.code == "bad-id"

    def test_components_split_by_jobs(self):
        inst = Instance.from_tables(
            "twojobs", 1, {0: {1: 1}, 1: {1: 1}, 2: {1: 1}}, [(0, 1)]
        )
        assert weakly_connected_components(inst) == ((0, 1), (2,))

"""Domain model tests; tight-schedule expectations come from a path enumerator."""

from __future__ import annotations

import pytest

from fjs.core import (
    InadmissibleError,
    Instance,
    InstanceError,
    MachineAssignment,
    Schedule,
    Selection,
    SelectionError,
    SolutionPair,
    disjunctive_pairs,
    is_admissible,
    tight_schedule,
    validate_solution,
    weakly_connected_components,
)
from fjs.rng import Xoshiro256StarStar

from conftest import random_admissible_solution, small_random_instance


def all_paths_longest_start(instance, sol):
    """Independent oracle: max path length into each op by full enumeration."""
    edges = set(instance.arcs) | set(sol.selection.pairs)
    f = sol.assignment.machine
    p = [instance.ptime(v, f[v]) for v in instance.ops]
    preds = {v: [u for (u, w) in edges if w == v] for v in instance.ops}

    def longest_into(v, seen):
        best = 0
        for u in preds[v]:
            assert u not in seen, "cycle reached by the enumeration oracle"
            cand = longest_into(u, seen | {u}) + p[u]
            best = max(best, cand)
        return best

    return [longest_into(v, {v}) for v in instance.ops]


EX1_SOL = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((0, 1), (2,))))


class TestDisjunctivePairs:
    def test_ex1_sets(self, ex1):
        dp = disjunctive_pairs(ex1)
        assert set(dp.by_machine[1]) == {(0, 1), (1, 0)}
        assert set(dp.by_machine[2]) == {(1, 2), (2, 1)}
        assert len(dp.pairs) == 4
        assert dp.beta == 4

    def test_disjoint_eligibility_gives_empty(self):
        inst = Instance.from_tables("disjoint", 2, {0: {1: 2}, 1: {2: 3}}, [])
        dp = disjunctive_pairs(inst)
        assert dp.pairs == ()
        assert dp.beta == 0

    def test_single_operation(self):
        inst = Instance.from_tables("one", 1, {0: {1: 7}}, [])
        assert disjunctive_pairs(inst).pairs == ()

    def test_symmetry_on_random_instances(self):
        for seed in range(20):
            inst = small_random_instance(seed)
            dp = disjunctive_pairs(inst)
            pair_set = set(dp.pairs)
            assert all((w, v) in pair_set for v, w in pair_set)
            for k, pairs_k in dp.by_machine.items():
                assert set(pairs_k) <= pair_set
            assert dp.beta >= len(dp.pairs)


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
        assert is_admissible(ex1, EX1_SOL) is True

    def test_ex1_backward_orientation_cycles(self, ex1):
        sol = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((1, 0), (2,))))
        assert is_admissible(ex1, sol) is False

    def test_empty_selection_on_distinct_machines(self):
        inst = Instance.from_tables("distinct", 2, {0: {1: 2}, 1: {2: 3}}, [])
        sol = SolutionPair(MachineAssignment((1, 2)), Selection(((0,), (1,))))
        assert is_admissible(inst, sol) is True

    def test_missing_orientation_is_malformed_not_inadmissible(self, ex1):
        # operation 1 is left out of machine 1's sequence
        sol = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((0,), (2,))))
        with pytest.raises(SelectionError, match="operation 1 is missing"):
            is_admissible(ex1, sol)

    def test_double_orientation_is_malformed(self, ex1):
        # operation 0 is listed twice, so machine 1 has no single order
        sol = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((0, 1, 0), (2,))))
        with pytest.raises(SelectionError, match="operation 0 appears twice"):
            is_admissible(ex1, sol)

    def test_off_machine_pair_is_malformed(self, ex1):
        # operation 1 is assigned to machine 2 but sequenced on machine 1
        sol = SolutionPair(MachineAssignment((1, 2, 2)), Selection(((0, 1), (1, 2))))
        with pytest.raises(SelectionError, match="operation 1 is sequenced on machine 1 but not assigned"):
            is_admissible(ex1, sol)

    def test_inadmissible_solution_has_cycle_certificate(self, ex1):
        sol = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((1, 0), (2,))))
        with pytest.raises(InadmissibleError) as err:
            tight_schedule(ex1, sol)
        cycle = err.value.cycle
        edges = set(ex1.arcs) | set(sol.selection.pairs)
        closed = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
        assert all(edge in edges for edge in closed)


class TestTightSchedule:
    def test_ex1_values(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        assert all_paths_longest_start(ex1, EX1_SOL) == list(sched.start)
        assert sched.start == (0, 3, 3)
        assert sched.makespan == 8
        assert sched.critical_path == (0, 2)

    def test_single_operation(self):
        inst = Instance.from_tables("one", 1, {0: {1: 7}}, [])
        sol = SolutionPair(MachineAssignment((1,)), Selection(((0,),)))
        sched = tight_schedule(inst, sol)
        assert sched.start == (0,)
        assert sched.makespan == 7
        assert sched.critical_path == (0,)

    def test_chain_forced_by_precedence(self):
        inst = Instance.from_tables("chain", 3, {0: {1: 1}, 1: {2: 1}, 2: {3: 1}}, [(0, 1), (1, 2)])
        sol = SolutionPair(MachineAssignment((1, 2, 3)), Selection(((0,), (1,), (2,))))
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
            f = sol.assignment.machine
            p = [inst.ptime(v, f[v]) for v in inst.ops]
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
            f = sol.assignment.machine
            p = [inst.ptime(v, f[v]) for v in inst.ops]
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
            f = sol.assignment.machine
            path = sched.critical_path
            assert path, "tight schedules always admit a certificate"
            assert sum(inst.ptime(v, f[v]) for v in path) == sched.makespan


class TestValidateSolution:
    def test_feasible_triple_is_clean(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        report = validate_solution(ex1, EX1_SOL, sched)
        assert report.ok

    def test_precedence_violation_reported(self, ex1):
        sched = Schedule(start=(0, 2, 3), makespan=8, critical_path=())
        report = validate_solution(ex1, EX1_SOL, sched)
        kinds = [i.kind for i in report.issues]
        assert "precedence" in kinds
        entry = next(i for i in report.issues if i.kind == "precedence")
        assert entry.ops == (0, 1)

    def test_machine_conflict_reported(self):
        inst = Instance.from_tables("two", 1, {0: {1: 2}, 1: {1: 3}}, [])
        sol = SolutionPair(MachineAssignment((1, 1)), Selection(((0, 1),)))
        sched = Schedule(start=(0, 1), makespan=4, critical_path=())
        report = validate_solution(inst, sol, sched)
        assert any(i.kind == "machine-conflict" for i in report.issues)

    def test_bad_makespan_reported(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        wrong = Schedule(start=sched.start, makespan=9, critical_path=())
        report = validate_solution(ex1, EX1_SOL, wrong)
        assert any(i.kind == "makespan" for i in report.issues)

    def test_ineligible_assignment_reported(self, ex1):
        sol = SolutionPair(MachineAssignment((2, 1, 2)), Selection(((1,), (0, 2))))
        sched = Schedule(start=(0, 3, 3), makespan=8, critical_path=())
        report = validate_solution(ex1, sol, sched)
        assert any(i.kind == "assignment" for i in report.issues)

    def test_cycle_is_named_through_the_full_orientation(self):
        # 1, 2, 0 on one machine against arc (0, 1): the walk from 0 meets
        # 1 first among all earlier operations, so the cycle is 1->0, not
        # the neighbour chain 1->2->0
        inst = Instance.from_tables("c", 1, {0: {1: 1}, 1: {1: 1}, 2: {1: 1}}, [(0, 1)])
        sol = SolutionPair(MachineAssignment((1, 1, 1)), Selection(((1, 2, 0),)))
        report = validate_solution(inst, sol, Schedule((0, 1, 2), 3, ()))
        assert [(i.kind, i.message, i.ops) for i in report.issues] == [("admissibility", "cycle 1->0", (1, 0))]

    def test_never_raises_on_garbage(self, ex1):
        sol = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((1, 0, 1), (2,))))
        sched = Schedule(start=(-1, 0, 0), makespan=0, critical_path=(2, 0))
        report = validate_solution(ex1, sol, sched)
        assert not report.ok


class TestInstanceValidation:
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

    def test_nonpositive_time(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 0}}, [])
        assert err.value.code == "nonpositive-time"

    def test_float_time_rejected(self):
        with pytest.raises(InstanceError) as err:
            Instance.from_tables("bad", 1, {0: {1: 1.5}}, [])
        assert err.value.code == "bad-time"

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

"""Model builders, codecs, feasibility checking, bounds, and the gap witness.

Size expectations are recomputed from first principles (set comprehensions
over the instance data) rather than taken from the builders.
"""

from __future__ import annotations

import gc
import random
import re
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from fjs import milp
from fjs.core import (
    Instance,
    Selection,
    SolutionPair,
    ValidationIssue,
    ValidationReport,
    certified_critical_path,
    disjunctive_pairs,
    tight_schedule,
    validate_solution,
)
from fjs.exact import brute_force
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic
from fjs.io import parse_instance, serialize_instance
from fjs.milp import (
    BINARY,
    CONTINUOUS,
    LinearConstraint,
    MilpModel,
    ModelPoint,
    PointError,
    WitnessError,
    build_compact_model,
    build_machine_indexed_model,
    check_feasible,
    decode_compact,
    decode_machine_indexed,
    default_horizon,
    encode_compact,
    encode_machine_indexed,
    machine_indexed_gap_witness,
    makespan_lower_bound,
    Variable,
)

from conftest import (
    cyclic_reversals,
    integral_instances,
    make_ex1,
    random_admissible_solution,
    small_random_instance,
    with_fraction_rows,
)

EX1_SOL = SolutionPair((1, 1, 2), Selection(((0, 1), (2,))))


def _reversed_points(instance, sol, reversed_sol):
    """The compact and machine-indexed points of the admissible ``sol`` with
    the sequencing binaries of each assigned machine set as ``reversed_sol``
    orders its operations."""
    f = sol.assignment
    pos = {v: i for seq in reversed_sol.selection.sequences for i, v in enumerate(seq)}  # compared on one machine
    compact = dict(encode_compact(instance, sol).values)
    indexed = dict(encode_machine_indexed(instance, sol).values)
    for v in instance.ops:
        for w in instance.ops:
            if v != w and f[v] == f[w]:
                compact[f"y_{v}_{w}"] = indexed[f"y_{v}_{w}_{f[v]}"] = int(pos[v] < pos[w])
    return ModelPoint(compact), ModelPoint(indexed)


def independent_sizes(instance):
    """|V|, |A|, |B|, beta, phi, phi_hat straight from the definitions."""
    V = list(instance.ops)
    F = {v: set(instance.eligible[v]) for v in V}
    B = {(v, w) for v in V for w in V if v != w and F[v] & F[w]}
    beta = sum(
        1
        for k in range(1, instance.machines + 1)
        for v in V
        for w in V
        if v != w and k in F[v] and k in F[w]
    )
    phi = sum(len(F[v]) for v in V)
    with_succ = {u for u, _ in instance.arcs}
    phi_hat = sum(len(F[v]) for v in V if v not in with_succ)
    return len(V), len(instance.arcs), len(B), beta, phi, phi_hat


def sizes(model):
    """(rows, variables besides z, binaries) of a model, counted from its variables and rows."""
    n_binary = sum(var.kind == BINARY for var in model.variables)
    return len(model.constraints), len(model.variables) - 1, n_binary


class TestModelSizes:
    def test_ex1_compact_counts(self, ex1):
        model = build_compact_model(ex1, 14)
        assert sizes(model) == (16, 11, 8)  # 2*3 + 2 + 4 + 4 rows; 3 + 4 + 4 variables

    def test_ex1_machine_indexed_counts(self, ex1):
        model = build_machine_indexed_model(ex1, 14)
        assert sizes(model) == (24, 16, 8)  # 3 + 2 + 3 + 2*4 + 2*4 rows; 3*4 + 4 variables

    @pytest.mark.parametrize("seed", range(15))
    def test_count_formulas_on_random_instances(self, seed):
        inst = small_random_instance(seed, max_ops=7, max_machines=3, max_eligible=3)
        nV, nA, nB, beta, phi, phi_hat = independent_sizes(inst)
        compact = build_compact_model(inst, default_horizon(inst))
        assert sizes(compact) == (2 * nV + nA + nB + beta, nV + phi + nB, phi + nB)
        indexed = build_machine_indexed_model(inst, default_horizon(inst))
        assert sizes(indexed) == (nV + nA + phi_hat + 2 * phi + 2 * beta, 3 * phi + beta, phi + beta)

    def test_no_conflict_pairs_no_y_rows(self):
        inst = Instance.from_tables("disjoint", 2, {0: {1: 2}, 1: {2: 3}}, [(0, 1)])
        model = build_compact_model(inst, 10)
        assert not any(v.name.startswith("y_") for v in model.variables)
        assert not any(r.name.startswith(("sel_", "disj_")) for r in model.constraints)
        indexed = build_machine_indexed_model(inst, 10)
        assert not any(v.name.startswith("y_") for v in indexed.variables)

    def test_single_op_compact_structure(self):
        inst = Instance.from_tables("one", 1, {0: {1: 5}}, [])
        model = build_compact_model(inst, 5)
        assert [r.name for r in model.constraints] == ["cmax_0", "assign_0"]
        assert sizes(model) == (2, 2, 1)

    def test_model_wellformedness(self, ex1):
        for model in (build_compact_model(ex1, 14), build_machine_indexed_model(ex1, 14)):
            names = [var.name for var in model.variables]
            assert len(set(names)) == len(names)
            declared = set(names)
            for row in model.constraints:
                assert all(name in declared for _, name in row.terms)
            row_names = [r.name for r in model.constraints]
            assert len(set(row_names)) == len(row_names)
            assert model.objective == ((Fraction(1), "z"),)

    def test_horizon_must_be_positive(self, ex1):
        for bad in (0, -3, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                build_compact_model(ex1, bad)
            with pytest.raises(ValueError):
                build_machine_indexed_model(ex1, bad)

    def test_a_float_horizon_is_refused(self, ex1):
        with pytest.raises(ValueError) as info:
            build_compact_model(ex1, 8.0)
        assert str(info.value) == "horizon L must be int or Fraction, got 8.0"

    def test_a_horizon_too_long_for_text_is_cut(self, ex1):
        with pytest.raises(ValueError) as info:
            build_compact_model(ex1, -(10**5000))
        assert str(info.value) == f"horizon L must be positive, got -1{'0' * 36}...{'0' * 39}"

    def test_the_machine_indexed_model_refuses_a_horizon_below_a_time(self, ex1):
        for L in (4, Fraction(49, 10)):
            with pytest.raises(ValueError) as info:
                build_machine_indexed_model(ex1, L)
            assert str(info.value) == f"horizon L = {L} is below the time 5 of operation 2 on machine 2"
        assert build_machine_indexed_model(ex1, 5).constraints  # the largest time itself is a horizon
        assert build_compact_model(ex1, 4).constraints


class TestEncodeDecode:
    def test_ex1_compact_point_values(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        assert point["z"] == 8
        assert (point["s_0"], point["s_1"], point["s_2"]) == (0, 3, 3)
        assert point["x_1_1"] == 1 and point["x_1_2"] == 0
        assert point["y_0_1"] == 1 and point["y_1_0"] == 0
        assert point["y_1_2"] == 0 and point["y_2_1"] == 0

    def test_ex1_machine_indexed_point_values(self, ex1):
        point = encode_machine_indexed(ex1, EX1_SOL)
        assert point["y_0_1_1"] == 1 and point["y_1_0_1"] == 0
        # machine 2: op 1 is assigned elsewhere, so it yields to op 2
        assert point["y_1_2_2"] == 1
        assert point["t_2_2"] == 8 and point["s_2_2"] == 3
        assert point["s_1_2"] == 0 and point["t_1_2"] == 0

    def test_encode_rejects_inadmissible(self, ex1):
        from fjs.core import InadmissibleError

        bad = SolutionPair((1, 1, 2), Selection(((1, 0), (2,))))
        with pytest.raises(InadmissibleError):
            encode_compact(ex1, bad)
        with pytest.raises(InadmissibleError):
            encode_machine_indexed(ex1, bad)

    def test_single_op_trivial_point(self):
        inst = Instance.from_tables("one", 1, {0: {1: 5}}, [])
        sol = SolutionPair((1,), Selection(((0,),)))
        point = encode_compact(inst, sol)
        assert point["z"] == 5 and point["s_0"] == 0 and point["x_0_1"] == 1

    def test_round_trips_and_cross_model_consistency(self):
        for seed in range(12):
            inst = small_random_instance(seed, max_ops=7, max_machines=3, max_eligible=3)
            horizon = default_horizon(inst)
            compact = build_compact_model(inst, horizon)
            indexed = build_machine_indexed_model(inst, horizon)
            for sub in range(3):
                sol = random_admissible_solution(inst, seed * 31 + sub)
                mks = tight_schedule(inst, sol).makespan
                pc = encode_compact(inst, sol)
                assert check_feasible(compact, pc).ok
                sol_c, sched_c = decode_compact(inst, pc)
                assert sol_c.assignment == sol.assignment
                assert sol_c.selection == sol.selection
                assert sched_c.makespan == mks
                pm = encode_machine_indexed(inst, sol)
                assert check_feasible(indexed, pm).ok
                sol_m, sched_m = decode_machine_indexed(inst, pm)
                assert sol_m.assignment == sol.assignment
                assert sol_m.selection == sol.selection
                assert sched_m.makespan == sched_c.makespan == mks

    def test_decode_requires_exactly_one_machine(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["x_1_1"] = 0
        with pytest.raises(PointError, match="no machine"):
            decode_compact(ex1, ModelPoint(values))
        values["x_1_1"] = 1
        values["x_1_2"] = 1
        with pytest.raises(PointError, match="multiple machines"):
            decode_compact(ex1, ModelPoint(values))

    def test_decode_rejects_fractional_binaries(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["y_0_1"] = Fraction(1, 2)
        with pytest.raises(PointError, match="non-integral"):
            decode_compact(ex1, ModelPoint(values))

    @pytest.mark.parametrize(
        "encode, decode, dropped",
        [(encode_compact, decode_compact, "s_0"), (encode_machine_indexed, decode_machine_indexed, "s_0_1")],
        ids=["compact", "machine-indexed"],
    )
    def test_decode_rejects_unknown_and_missing_names(self, ex1, encode, decode, dropped):
        point = encode(ex1, EX1_SOL)
        values = dict(point.values)
        values["mystery"] = 1
        with pytest.raises(PointError, match="unknown"):
            decode(ex1, ModelPoint(values))
        del values["mystery"]
        del values[dropped]
        with pytest.raises(PointError, match=rf"^point is missing variables: \['{dropped}'\]$"):
            decode(ex1, ModelPoint(values))
        values["mystery"] = 1  # as many names as the model has, one of them unknown
        with pytest.raises(PointError, match=r"^unknown variable names in point: \['mystery'\]$"):
            decode(ex1, ModelPoint(values))

    def test_decode_rejects_cyclic_selection(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["y_0_1"], values["y_1_0"] = 0, 1
        with pytest.raises(PointError, match="cycle"):
            decode_compact(ex1, ModelPoint(values))

    @pytest.mark.parametrize(
        "encode, decode, suffix, message",
        [
            (encode_compact, decode_compact, "", "cycle 1->0"),
            (encode_machine_indexed, decode_machine_indexed, "_1", "cycle 1->0"),
        ],
        ids=["compact", "machine-indexed"],
    )
    def test_decode_names_a_cycle_through_the_arcs(self, ex1, encode, decode, suffix, message):
        # 1 before 0 on machine 1 against arc (0, 1)
        values = dict(encode(ex1, EX1_SOL).values)
        values[f"y_0_1{suffix}"], values[f"y_1_0{suffix}"] = 0, 1
        with pytest.raises(PointError, match=f"^infeasible point: {message}$"):
            decode(ex1, ModelPoint(values))

    def test_both_decoders_name_the_cycle_tight_schedule_raises(self):
        cases = cyclic_reversals()
        assert len(cases) == 213
        for inst, sol, _, reversed_sol, cycle in cases:
            compact, indexed = _reversed_points(inst, sol, reversed_sol)
            for decode, point in ((decode_compact, compact), (decode_machine_indexed, indexed)):
                with pytest.raises(PointError) as err:
                    decode(inst, point)
                assert str(err.value) == f"infeasible point: cycle {'->'.join(map(str, cycle))}", inst.name

    def test_no_cycle_is_named_through_the_pair_view(self, monkeypatch):
        # Selection.pairs is quadratic in the operations per machine
        cases = [(inst, sched, reversed_sol, _reversed_points(inst, sol, reversed_sol))
                 for inst, sol, sched, reversed_sol, _ in cyclic_reversals()]

        def refuse(self):
            raise AssertionError("Selection.pairs built")

        monkeypatch.setattr(Selection, "pairs", property(refuse))
        for inst, sched, reversed_sol, (compact, indexed) in cases:
            assert validate_solution(inst, reversed_sol, sched).issues[0].kind == "admissibility"
            for decode, point in ((decode_compact, compact), (decode_machine_indexed, indexed)):
                with pytest.raises(PointError, match="^infeasible point: cycle "):
                    decode(inst, point)

    def test_decode_rejects_unoriented_and_doubly_oriented_pairs(self, ex1):
        for encode, decode, suffix in (
            (encode_compact, decode_compact, ""),
            (encode_machine_indexed, decode_machine_indexed, "_1"),
        ):
            values = dict(encode(ex1, EX1_SOL).values)
            values[f"y_0_1{suffix}"] = 0
            with pytest.raises(PointError, match=r"pair \(0, 1\) has no orientation selected"):
                decode(ex1, ModelPoint(values))
            values[f"y_0_1{suffix}"] = values[f"y_1_0{suffix}"] = 1
            with pytest.raises(PointError, match=r"pair \(0, 1\) has both orientations selected"):
                decode(ex1, ModelPoint(values))

    @pytest.mark.parametrize(
        "encode, decode, suffix",
        [(encode_compact, decode_compact, ""), (encode_machine_indexed, decode_machine_indexed, "_1")],
        ids=["compact", "machine-indexed"],
    )
    def test_decode_names_the_first_faulty_pair_in_walk_order(self, encode, decode, suffix):
        # three operations on one machine: the pairs are read (0, 1), (0, 2), (1, 2)
        inst = Instance.from_tables("three", 1, {0: {1: 1}, 1: {1: 2}, 2: {1: 3}}, [])
        point = encode(inst, SolutionPair((1, 1, 1), Selection(((0, 1, 2),))))
        values = {**point.values, f"y_0_1{suffix}": Fraction(1, 2), f"y_1_2{suffix}": 0}
        with pytest.raises(PointError, match=f"^non-integral binary y_0_1{suffix} = 1/2$"):
            decode(inst, ModelPoint(values))
        values = {**point.values, f"y_0_1{suffix}": 0, f"y_1_2{suffix}": Fraction(1, 2)}
        with pytest.raises(PointError, match=r"^infeasible point: pair \(0, 1\) has no orientation selected$"):
            decode(inst, ModelPoint(values))

    def test_decode_rejects_intransitive_orientation(self):
        # 0 before 1, 1 before 2, 2 before 0 on one machine: every pair is
        # oriented once, there are no arcs, and the orientation is a cycle
        inst = Instance.from_tables("three", 1, {0: {1: 1}, 1: {1: 2}, 2: {1: 3}}, [])
        sol = SolutionPair((1, 1, 1), Selection(((0, 1, 2),)))
        for encode, decode, suffix in (
            (encode_compact, decode_compact, ""),
            (encode_machine_indexed, decode_machine_indexed, "_1"),
        ):
            values = dict(encode(inst, sol).values)
            values[f"y_0_2{suffix}"], values[f"y_2_0{suffix}"] = 0, 1
            with pytest.raises(PointError) as err:
                decode(inst, ModelPoint(values))
            assert str(err.value) == "infeasible point: cycle 1->2->0 on machine 1"

    def test_decode_rejects_z_below_makespan(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["z"] = 7
        with pytest.raises(PointError, match="z = 7"):
            decode_compact(ex1, ModelPoint(values))

    def test_decode_ignores_off_machine_orientation(self, ex1):
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["y_1_2"] = 1  # ops 1 and 2 are on different machines
        sol, sched = decode_compact(ex1, ModelPoint(values))
        assert sol.selection == EX1_SOL.selection
        assert sched.makespan == 8

    def test_machine_indexed_decode_uses_point_starts(self, ex1):
        point = encode_machine_indexed(ex1, EX1_SOL)
        values = dict(point.values)
        # push op 1 later but stay feasible; decode must keep the slack
        values["s_1_1"] = 4
        values["t_1_1"] = 6
        values["z"] = 8
        sol, sched = decode_machine_indexed(ex1, ModelPoint(values))
        assert sched.start == (0, 4, 3)
        assert sched.makespan == 8
        sol2, sched2 = decode_machine_indexed(ex1, point)
        assert certified_critical_path(ex1, sol2, sched2.start) == (0, 2)

    # ``_echo`` cuts an int to 38 leading characters, "..." and 39 trailing digits
    @pytest.mark.parametrize(
        "encode, decode, makespan",
        [
            (encode_compact, decode_compact, "tight makespan"),
            (encode_machine_indexed, decode_machine_indexed, "makespan"),
        ],
        ids=["compact", "machine-indexed"],
    )
    def test_a_z_too_long_for_text_is_cut(self, ex1, encode, decode, makespan):
        values = {**encode(ex1, EX1_SOL).values, "z": -(10**5000)}
        with pytest.raises(PointError) as info:
            decode(ex1, ModelPoint(values))
        assert str(info.value) == f"infeasible point: z = -1{'0' * 36}...{'0' * 39} below the {makespan} 8"

    def test_a_binary_too_long_for_text_is_cut(self, ex1):
        values = {**encode_compact(ex1, EX1_SOL).values, "y_1_2": 10**5000}
        with pytest.raises(PointError) as info:
            decode_compact(ex1, ModelPoint(values))
        assert str(info.value) == f"non-integral binary y_1_2 = 1{'0' * 37}...{'0' * 39}"

    def test_decode_rejects_a_non_integral_off_machine_binary(self, ex1):
        values = {**encode_compact(ex1, EX1_SOL).values, "y_2_1": Fraction(1, 2)}  # ops 1 and 2 on different machines
        with pytest.raises(PointError, match=r"^non-integral binary y_2_1 = 1/2$"):
            decode_compact(ex1, ModelPoint(values))

    @pytest.mark.parametrize("one", [Fraction(1), True], ids=["fraction", "bool"])
    def test_an_off_machine_binary_equal_to_one_decodes_as_before(self, ex1, one):
        values = {**encode_compact(ex1, EX1_SOL).values, "y_2_1": one}  # ops 1 and 2 on different machines
        assert decode_compact(ex1, ModelPoint(values)) == decode_compact(ex1, encode_compact(ex1, EX1_SOL))

    @pytest.mark.parametrize(
        "value, text",
        [(Fraction(1, 2), "1/2"), (float("nan"), "nan"), ([1], "[1]")],
        ids=["half", "nan", "unhashable"],
    )
    def test_a_faulty_off_machine_binary_is_named_in_walk_order(self, ex1, value, text):
        """The walk over the off-machine binaries names the first faulty one in model order."""
        values = {**encode_compact(ex1, EX1_SOL).values, "y_2_1": value}
        with pytest.raises(PointError, match=rf"^non-integral binary y_2_1 = {re.escape(text)}$"):
            decode_compact(ex1, ModelPoint(values))
        values["y_1_2"] = [0]  # first in model order
        with pytest.raises(PointError, match=r"^non-integral binary y_1_2 = \[0\]$"):
            decode_compact(ex1, ModelPoint(values))

    def test_decode_reads_each_binary_at_most_once(self):
        """Reads are counted at the point's mapping, whichever code path makes them."""
        reads = Counter()

        class CountingValues(dict):
            def __getitem__(self, name):
                reads[name] += 1
                return super().__getitem__(name)

        inst = small_random_instance(2, max_ops=7, max_machines=3, max_eligible=3)
        sol = random_admissible_solution(inst, 1)
        compact = encode_compact(inst, sol)
        decode_compact(inst, ModelPoint(CountingValues(compact.values)))
        assert sorted(reads.elements()) == sorted(name for name in compact.values if name[0] in "xyz")
        reads.clear()
        decode_machine_indexed(inst, ModelPoint(CountingValues(encode_machine_indexed(inst, sol).values)))
        assert any(name[0] == "y" for name in reads) and set(reads.values()) == {1}

    def test_machine_indexed_decode_rejects_edge_violation(self, ex1):
        point = encode_machine_indexed(ex1, EX1_SOL)
        values = dict(point.values)
        values["s_1_1"] = 1  # starts before predecessor 0 finishes
        values["t_1_1"] = 3
        with pytest.raises(PointError, match=r"^infeasible point: arc \(0, 1\): 0 \+ 3 > 1$"):
            decode_machine_indexed(ex1, ModelPoint(values))


class TestCheckFeasible:
    def test_lowered_z_reports_cmax_rows(self, ex1):
        model = build_compact_model(ex1, 14)
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["z"] = 5
        report = check_feasible(model, ModelPoint(values))
        names = [i.message.split(":")[0] for i in report.issues]
        assert "cmax_2" in names

    def test_unknown_name_raises(self, ex1):
        model = build_compact_model(ex1, 14)
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["w"] = 0
        with pytest.raises(PointError):
            check_feasible(model, ModelPoint(values))
        # as many names as the model has, one of them swapped: unknown is named before missing
        del values["s_0"]
        with pytest.raises(PointError, match=r"unknown variable names in point: \['w'\]"):
            check_feasible(model, ModelPoint(values))

    def test_a_valid_point_builds_no_name_sets(self, ex1, monkeypatch):
        def refuse(point, expected):
            raise AssertionError("name sets built for a point with the model's names")

        monkeypatch.setattr(milp, "_expect_names", refuse)
        for build, encode, decode in CODECS:
            point = encode(ex1, EX1_SOL)
            assert check_feasible(build(ex1, 14), point).ok
            assert decode(ex1, point)[1].makespan == 8

    def test_missing_name_raises(self, ex1):
        model = build_compact_model(ex1, 14)
        values = dict(encode_compact(ex1, EX1_SOL).values)
        del values["s_0"]
        with pytest.raises(PointError, match=r"point is missing variables: \['s_0'\]"):
            check_feasible(model, ModelPoint(values))

    def test_bound_violations_reported(self, ex1):
        model = build_compact_model(ex1, 14)
        point = encode_compact(ex1, EX1_SOL)
        values = dict(point.values)
        values["s_0"] = -1
        report = check_feasible(model, ModelPoint(values))
        assert any(i.kind == "bound" for i in report.issues)

    def test_report_on_a_hand_built_model(self):
        """Kinds, messages and order of every issue, bounds before rows, each in model order."""
        model = MilpModel(
            "hand",
            (
                Variable("a", CONTINUOUS, 0, 10),
                Variable("b", CONTINUOUS, Fraction(1, 2)),
                Variable("c", BINARY, 0, 1),
                Variable("d", CONTINUOUS, -5, 5),
            ),
            ((1, "a"),),
            (
                LinearConstraint("le_ok", ((1, "a"), (2, "c")), "<=", 3),
                LinearConstraint("le_bad", ((Fraction(1, 3), "b"), (1, "d")), "<=", Fraction(1, 2)),
                LinearConstraint("ge_bad", ((1, "a"),), ">=", 0),
                LinearConstraint("ge_ok", ((1, "b"), (-1, "c")), ">=", 5),
                LinearConstraint("eq_bad", ((1, "c"), (-1, "a")), "=", 1),
                LinearConstraint("eq_ok", ((Fraction(1, 4), "d"),), "=", Fraction(3, 16)),
                LinearConstraint("empty_ok", (), "<=", 0),
                LinearConstraint("empty_bad", (), ">=", 1),
            ),
        )
        point = ModelPoint({"a": -1, "b": 7, "c": 2, "d": Fraction(3, 4)})
        report = check_feasible(model, point)
        assert report == ValidationReport(
            (
                ValidationIssue("bound", "a = -1 below lower bound 0"),
                ValidationIssue("bound", "c = 2 above upper bound 1"),
                ValidationIssue("constraint", "le_bad: lhs 37/12 <= 1/2 violated by 31/12"),
                ValidationIssue("constraint", "ge_bad: lhs -1 >= 0 violated by 1"),
                ValidationIssue("constraint", "eq_bad: lhs 3 = 1 violated by 2"),
                ValidationIssue("constraint", "empty_bad: lhs 0 >= 1 violated by 1"),
            )
        )

    # ``_echo`` cuts an int to 38 leading characters, "..." and 39 trailing digits
    BIG_MODEL = MilpModel(
        "big",
        (Variable("s", CONTINUOUS), Variable("b", BINARY, 0, 1)),
        ((1, "s"),),
        (LinearConstraint("r", ((1, "s"),), ">=", Fraction(1, 3)),),
    )

    def test_a_bound_value_too_long_for_text_is_cut(self):
        report = check_feasible(self.BIG_MODEL, ModelPoint({"s": 1, "b": -(10**5000)}))
        assert report.issues == (ValidationIssue("bound", f"b = -1{'0' * 36}...{'0' * 39} below lower bound 0"),)
        report = check_feasible(self.BIG_MODEL, ModelPoint({"s": 1, "b": 10**5000}))
        assert report.issues == (ValidationIssue("bound", f"b = 1{'0' * 37}...{'0' * 39} above upper bound 1"),)

    def test_a_row_value_too_long_for_text_is_cut(self):
        report = check_feasible(self.BIG_MODEL, ModelPoint({"s": -(10**5000), "b": 0}))
        lhs, excess = f"-1{'0' * 36}...{'0' * 39}", f"3{'0' * 37}...{'0' * 38}1/3"
        assert report.issues == (
            ValidationIssue("bound", f"s = {lhs} below lower bound 0"),
            ValidationIssue("constraint", f"r: lhs {lhs} >= 1/3 violated by {excess}"),
        )


CODECS = [
    (build_compact_model, encode_compact, decode_compact),
    (build_machine_indexed_model, encode_machine_indexed, decode_machine_indexed),
]
MODELS = [(build, encode) for build, encode, _ in CODECS]


def reference_issues(model, point):
    """``check_feasible``'s issues as first written: each row's excess is computed, then compared
    with 0.  The exact rule it is kept to check, for ``int`` and ``Fraction`` values."""
    issues = []
    for name, _, lower, upper in model.variables:
        val = point[name]
        if val < lower:
            issues.append(ValidationIssue("bound", f"{name} = {val} below lower bound {lower}"))
        if upper is not None and val > upper:
            issues.append(ValidationIssue("bound", f"{name} = {val} above upper bound {upper}"))
    for name, terms, relation, rhs in model.constraints:
        lhs = sum(coef * point[var] for coef, var in terms)
        if relation == "<=":
            excess = lhs - rhs
        elif relation == ">=":
            excess = rhs - lhs
        else:
            excess = abs(lhs - rhs)
        if excess > 0:
            issues.append(ValidationIssue("constraint", f"{name}: lhs {lhs} {relation} {rhs} violated by {excess}"))
    return tuple(issues)


def reference_bit(f, start, k, v, w):
    """The machine-indexed binary "v before w on machine k" by its four cases, as first written."""
    if f[v] == k and f[w] == k:
        return 1 if start[v] < start[w] else 0
    if f[v] != k and f[w] == k:
        return 1
    if f[v] != k and f[w] != k:
        return 1 if v > w else 0
    return 0


def moved_points(point, seed, count=10):
    """The point with all values as Fractions, ``count`` seeded values in turn moved by +-1 and
    +-1/2, and z lowered by 1 and to 0."""
    values = point.values
    yield ModelPoint({name: Fraction(val) for name, val in values.items()})
    for name in random.Random(seed).sample(sorted(values), min(count, len(values))):
        for delta in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
            yield ModelPoint({**values, name: values[name] + delta})
    for z in (values["z"] - 1, 0):
        yield ModelPoint({**values, "z": z})


class TestReferenceRules:
    """``check_feasible`` decides a row with one comparison and ``encode_machine_indexed`` writes a
    sequencing bit from two cases; both agree with the rules as first written."""

    INSTANCES = [
        make_ex1(),
        generate_yfjs(YfjsParams(3, 4, 3, 2, 2)),
        generate_dafjs(DafjsParams(2, 3, 4)),
        *(small_random_instance(seed, max_ops=6, max_machines=3, max_eligible=3) for seed in range(4)),
    ]

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda instance: instance.name)
    def test_check_feasible_gives_the_reference_issues(self, instance):
        sol, sched = earliest_start_heuristic(instance)
        L = default_horizon(instance, sched.makespan)
        violated = 0
        for seed, (build, encode) in enumerate(MODELS):
            point = encode(instance, sol)
            model = build(instance, L)
            for checked in (model, with_fraction_rows(model, 3)):
                for moved in moved_points(point, seed):
                    issues = check_feasible(checked, moved).issues
                    assert issues == reference_issues(checked, moved)
                    violated += any(issue.kind == "constraint" for issue in issues)
        assert violated

    def test_each_machine_indexed_bit_follows_the_four_case_rule(self):
        for seed in range(40):
            inst = small_random_instance(seed, max_ops=8, max_machines=3, max_eligible=3)
            for sub in range(3):
                sol = random_admissible_solution(inst, seed * 31 + sub)
                f, start = sol.assignment, tight_schedule(inst, sol).start
                values = encode_machine_indexed(inst, sol).values
                for k, pairs in disjunctive_pairs(inst).items():
                    for v, w in pairs:
                        bit = values[f"y_{v}_{w}_{k}"]
                        assert type(bit) is int and bit == reference_bit(f, start, k, v, w), (inst.name, k, v, w)

    def test_a_float_point_is_outside_the_exact_contract(self):
        """Floats are not part of the exact contract; this pins what they give.  A NaN breaks an
        equality row, which the subtract-then-compare rule let pass, and a float below an integer
        bound that a float cannot hold breaks a >= row, which the subtraction rounded away."""
        model = MilpModel(
            "float",
            (Variable("a", CONTINUOUS), Variable("b", CONTINUOUS)),
            (),
            (
                LinearConstraint("le", ((1, "a"),), "<=", 1),
                LinearConstraint("ge", ((1, "a"),), ">=", 1),
                LinearConstraint("eq", ((1, "a"),), "=", 1),
                LinearConstraint("past", ((1, "b"),), ">=", 2**53 + 1),
            ),
        )
        point = ModelPoint({"a": float("nan"), "b": 2.0**53})
        assert check_feasible(model, point).issues == (
            ValidationIssue("constraint", "eq: lhs nan = 1 violated by nan"),
            ValidationIssue("constraint", "past: lhs 9007199254740992.0 >= 9007199254740993 violated by 0.0"),
        )
        assert reference_issues(model, point) == ()


class TestLayout:
    """Each formulation's names are made once per instance and kept while the instance lives."""

    def test_the_layout_does_not_outlive_its_instance(self):
        instance = replace(make_ex1(), name="outlived")  # equal to no instance of another test
        models = [build(instance, 14) for build, _, _ in CODECS]
        for _, encode, decode in CODECS:
            decode(instance, encode(instance, EX1_SOL))
        alive = weakref.ref(instance)
        del instance, models
        gc.collect()
        assert alive() is None

    def test_pairs_are_made_at_most_once_per_formulation(self, monkeypatch):
        calls = []
        pairs = milp.disjunctive_pairs
        monkeypatch.setattr(milp, "disjunctive_pairs", lambda instance: calls.append(instance) or pairs(instance))
        instance = replace(make_ex1(), name="pairs-once")
        for build, encode, decode in CODECS:
            build(instance, 14)
            for _ in range(2):
                decode(instance, encode(instance, EX1_SOL))
        assert 1 <= len(calls) <= 2

    def test_both_layouts_share_one_x_table(self):
        instance = replace(make_ex1(), name="x-shared")
        assert milp._compact_names(instance)[2] is milp._machine_indexed_names(instance)[2]

    def test_equal_instances_give_equal_points(self):
        text = serialize_instance(make_ex1())
        first, second = parse_instance(text), parse_instance(text)
        assert first == second and first is not second
        for build, encode, decode in CODECS:
            point = encode(first, EX1_SOL)
            assert build(second, 14) == build(first, 14)
            assert encode(second, EX1_SOL) == point
            assert decode(second, point) == decode(first, point)


def all_coefficients(model):
    for coef, _ in model.objective:
        yield coef
    for row in model.constraints:
        yield row.rhs
        for coef, _ in row.terms:
            yield coef


BUILDERS = [build_compact_model, build_machine_indexed_model]


class TestCollector:
    """Each builder runs with the cyclic garbage collector paused and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("build", BUILDERS)
    def test_a_build_leaves_the_collector_as_it_found_it(self, ex1, restore_gc, build, enabled):
        (gc.enable if enabled else gc.disable)()
        assert build(ex1, 14).constraints
        assert gc.isenabled() is enabled
        for L in (0, 4) if build is build_machine_indexed_model else (0,):  # 4 is below the time 5 of operation 2
            with pytest.raises(ValueError):
                build(ex1, L)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("build, layout", zip(BUILDERS, ["_compact_names", "_machine_indexed_names"]))
    def test_the_collector_is_paused_while_the_layout_is_made(self, monkeypatch, restore_gc, build, layout):
        gc.enable()
        seen = []
        made = getattr(milp, layout)
        monkeypatch.setattr(milp, layout, lambda instance: seen.append(gc.isenabled()) or made(instance))
        build(replace(make_ex1(), name=f"paused-{layout}"), 14)  # equal to no instance of another test
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("build", BUILDERS)
    def test_a_build_leaves_no_cyclic_garbage(self, restore_gc, build):
        instance = generate_dafjs(DafjsParams(3, 4, 3))
        L = default_horizon(instance, earliest_start_heuristic(instance)[1].makespan)
        gc.disable()
        gc.collect()
        model = build(instance, L)
        assert gc.collect() == 0
        assert model.constraints


class TestIntegerCoefficients:
    @pytest.mark.parametrize("instance", integral_instances(), ids=lambda inst: inst.name)
    @pytest.mark.parametrize("build, encode", MODELS, ids=["compact", "machine-indexed"])
    def test_integral_data_give_int_coefficients_and_same_checks(self, instance, build, encode):
        sol, sched = earliest_start_heuristic(instance)
        model = build(instance, default_horizon(instance, sched.makespan))
        assert all(type(c) is int for c in all_coefficients(model))
        as_fraction = with_fraction_rows(model)
        assert all(type(c) is Fraction for c in all_coefficients(as_fraction))
        point = encode(instance, sol)
        lowered = ModelPoint({**point.values, "z": sched.makespan - 1})
        assert check_feasible(model, point).ok
        assert not check_feasible(model, lowered).ok
        for p in (point, lowered):
            assert check_feasible(model, p).issues == check_feasible(as_fraction, p).issues

    @pytest.mark.parametrize("build", [build_compact_model, build_machine_indexed_model])
    def test_fractional_data_keep_fractions(self, ex1, build):
        assert any(type(c) is Fraction for c in all_coefficients(build(ex1, Fraction(19, 2))))
        frac = Instance.from_tables("frac", 1, {0: {1: Fraction(3, 2)}, 1: {1: 2}}, [(0, 1)])
        assert any(type(c) is Fraction for c in all_coefficients(build(frac, 8)))


class TestGapWitness:
    def flexible_instance(self):
        return Instance.from_tables(
            "flex",
            2,
            {0: {1: 3, 2: 4}, 1: {1: 2, 2: 4}, 2: {1: 6, 2: 5}},
            [(0, 1), (0, 2)],
        )

    def test_witness_feasible_with_zero_objective(self):
        inst = self.flexible_instance()
        L = 14
        witness = machine_indexed_gap_witness(inst, L)
        model = build_machine_indexed_model(inst, L)
        report = check_feasible(model, witness)
        assert report.ok, report.summary()
        assert witness["z"] == 0
        assert witness["x_0_1"] == Fraction(1, 2)
        assert witness["y_0_1_1"] == Fraction(1, 2)

    def test_single_machine_operation_fails_precondition(self):
        # EX1 has machines eligible for two operations each, yet its
        # single-machine operations force assignment mass onto one machine,
        # which the zeroed completion rows cannot absorb.
        with pytest.raises(WitnessError, match="single eligible machine"):
            machine_indexed_gap_witness(make_ex1(), 14)

    def test_large_ptime_fails_precondition(self):
        inst = self.flexible_instance()
        with pytest.raises(WitnessError, match="exceeds L/2"):
            machine_indexed_gap_witness(inst, 11)  # p(2,1)=6 > 11/2

    @pytest.mark.parametrize("machines", [3, 4])  # machine 3 is eligible for one operation, machine 4 for none
    def test_underused_and_idle_machines_need_no_precondition(self, machines):
        inst = Instance.from_tables(
            "thin", machines, {0: {1: 2, 2: 2}, 1: {1: 2, 2: 2}, 2: {2: 2, 3: 2}}, []
        )
        witness = machine_indexed_gap_witness(inst, 10)
        report = check_feasible(build_machine_indexed_model(inst, 10), witness)
        assert report.ok, report.summary()
        assert witness["z"] == 0

    def test_compact_model_rejects_the_analogous_point(self):
        # With positive minimum times the compact relaxation cannot reach
        # objective zero: the makespan rows force z above the per-operation
        # assigned time, whatever the fractional split.
        inst = self.flexible_instance()
        L = 14
        model = build_compact_model(inst, L)
        values = {"z": 0}
        for v in inst.ops:
            values[f"s_{v}"] = 0
            share = Fraction(1, len(inst.eligible[v]))
            for k in inst.eligible[v]:
                values[f"x_{v}_{k}"] = share
        from fjs.core import disjunctive_pairs

        for v, w in set().union(*disjunctive_pairs(inst).values()):
            values[f"y_{v}_{w}"] = Fraction(1, 2)
        report = check_feasible(model, ModelPoint(values))
        assert any(i.message.startswith("cmax_") for i in report.issues)


class TestBounds:
    def test_ex1_lower_bound(self, ex1):
        assert makespan_lower_bound(ex1) == 8  # chain a->c with minimum times

    def test_single_op_lower_bound(self):
        inst = Instance.from_tables("one", 2, {0: {1: 5, 2: 3}}, [])
        assert makespan_lower_bound(inst) == 3

    def test_independent_ops_lower_bound_is_max(self):
        inst = Instance.from_tables("ind", 2, {0: {1: 4}, 1: {2: 9}}, [])
        assert makespan_lower_bound(inst) == 9
        assert makespan_lower_bound(Instance("empty", 1, (), (), ())) == 0  # the max over no operations

    def test_lower_bound_below_optimum_on_random_instances(self):
        for seed in range(25):
            inst = small_random_instance(seed, max_ops=6)
            assert makespan_lower_bound(inst) <= brute_force(inst).upper_bound

    def test_default_horizon(self, ex1):
        assert default_horizon(ex1) == 12  # 3 + 4 + 5
        assert default_horizon(ex1, 8) == 8
        assert default_horizon(ex1, 4) == 5  # raised to the largest time
        assert default_horizon(Instance("empty", 1, (), (), ())) == 0

    def test_est_point_is_feasible_in_both_models_at_the_default_horizon(self):
        # 6 of these YFJS instances and 10 of the random ones have an EST makespan below their largest time
        instances = [generate_yfjs(YfjsParams(2, 2, 3, 3, seed)) for seed in range(1, 101)]
        instances += [small_random_instance(seed, max_machines=4, max_eligible=3) for seed in range(200)]
        for instance in instances:
            sol, sched = earliest_start_heuristic(instance)
            L = default_horizon(instance, sched.makespan)
            for build, encode, _ in CODECS:
                report = check_feasible(build(instance, L), encode(instance, sol))
                assert report.ok, (instance.name, L, report.summary())


def _model(*variables, rows=()):
    return MilpModel("m", variables, (), rows)


class TestVariable:
    def test_unknown_kind_is_refused(self, ex1):
        # the writers would write an "integer" variable as continuous
        with pytest.raises(ValueError, match="variable y: kind must be"):
            _model(Variable("y", "integer", 0, 5))
        model = build_compact_model(ex1, 14)
        with pytest.raises(ValueError, match="variable z: kind must be"):
            replace(model, variables=(model.variables[0]._replace(kind="integer"), *model.variables[1:]))
        assert _model(Variable("s", CONTINUOUS, 2, 7)).variables[0].kind == CONTINUOUS

    @pytest.mark.parametrize("lower, upper", [(1, 1), (0, None), (0, 2), (Fraction(1, 2), 1)])
    def test_binary_bounds_must_be_zero_and_one(self, ex1, lower, upper):
        # the writers drop binary bounds, so x fixed to 1 would admit x = 0
        with pytest.raises(ValueError, match="binary x must have bounds 0 and 1"):
            _model(Variable("x", BINARY, lower, upper))
        model = build_compact_model(ex1, 14)
        with pytest.raises(ValueError, match="binary w must have bounds 0 and 1"):
            replace(model, variables=(*model.variables, Variable("w", BINARY, lower, upper)))
        assert _model(Variable("x", BINARY, 0, 1)).variables[0].upper == 1

    def test_duplicate_names_are_refused(self, ex1):
        # write_mps would end in a KeyError at the second column
        row = LinearConstraint("r", ((1, "a"),), "<=", 1)
        with pytest.raises(ValueError, match="variable a is declared twice"):
            MilpModel("dup", (Variable("a", CONTINUOUS), Variable("a", CONTINUOUS)), ((1, "a"),), (row,))
        model = build_machine_indexed_model(ex1, 14)
        with pytest.raises(ValueError, match="variable s_0_1 is declared twice"):
            replace(model, variables=(*model.variables, Variable("s_0_1", CONTINUOUS)))

    def test_terms_naming_undeclared_variables_are_refused(self, ex1):
        # check_feasible and write_mps would end in a KeyError, and write_lp would write the name
        row = LinearConstraint("r", ((1, "b"),), "<=", 1)
        with pytest.raises(ValueError, match="^row r: term names undeclared variable b$"):
            MilpModel("m", (Variable("a", CONTINUOUS),), ((1, "a"),), (row,))
        with pytest.raises(ValueError, match="^objective: term names undeclared variable b$"):
            MilpModel("m", (Variable("a", CONTINUOUS),), ((1, "a"), (2, "b")), ())
        model = build_compact_model(ex1, 14)
        with pytest.raises(ValueError, match="^row cmax_0: term names undeclared variable s_0$"):
            replace(model, variables=tuple(var for var in model.variables if var.name != "s_0"))

    @pytest.mark.parametrize("relation", ["<", ">", "==", "=<", "<= "])
    def test_relations_other_than_le_eq_ge_are_refused(self, relation):
        # check_feasible would evaluate such a row as "="
        row = LinearConstraint("r", ((1, "a"),), relation, 1)
        with pytest.raises(ValueError, match=f"row r: relation must be '<=', '=' or '>=', got {relation!r}"):
            _model(Variable("a", CONTINUOUS), rows=(row,))
        for accepted in ("<=", "=", ">="):
            _model(Variable("a", CONTINUOUS), rows=(row._replace(relation=accepted),))

    def test_the_first_offender_is_named(self):
        # the bulk passes only find that a record offends; the ordered walk names the first one
        bad_kind, bad_bounds = Variable("k", "integer"), Variable("b", BINARY, 1, 1)
        with pytest.raises(ValueError, match="^variable k: kind must be"):
            _model(Variable("a", CONTINUOUS), bad_kind, bad_bounds)
        with pytest.raises(ValueError, match="^binary b must have bounds 0 and 1, got 1 and 1$"):
            _model(Variable("a", CONTINUOUS), bad_bounds, bad_kind)
        with pytest.raises(ValueError, match="^variable b is declared twice$"):
            _model(*(Variable(name, CONTINUOUS) for name in "bcacb"))
        rows = [LinearConstraint(name, ((1, "a"),), relation, 0) for name, relation in ["r=", "q<", "p>"]]
        with pytest.raises(ValueError, match="^row q: relation must be"):
            _model(Variable("a", CONTINUOUS), rows=rows)

    @pytest.mark.parametrize(
        "variable, message",
        [
            (Variable("x", BINARY, [0], 1), "binary x must have bounds 0 and 1, got [0] and 1"),
            (Variable("x", BINARY, 0, {1: 1}), "binary x must have bounds 0 and 1, got 0 and {1: 1}"),
            (Variable("x", [BINARY], 0, 1), "variable x: kind must be 'binary' or 'continuous', got ['binary']"),
        ],
        ids=["list-lower", "dict-upper", "list-kind"],
    )
    def test_unhashable_kinds_and_bounds_are_refused_by_value(self, variable, message):
        # the kinds and bounds are compared, never hashed: no TypeError
        with pytest.raises(ValueError) as refused:
            _model(Variable("a", CONTINUOUS), variable)
        assert str(refused.value) == message

    def test_the_bulk_kind_check_accepts_what_the_ordered_walk_accepts(self):
        # the walk is the reference: it refuses a kind other than continuous whose
        # (kind, lower, upper) is not (binary, 0, 1)
        kinds = [BINARY, CONTINUOUS, "integer", "Binary", None, [BINARY]]
        bounds = [0, 1, 0.0, 1.0, False, True, Fraction(0), Fraction(1, 2), 2, None, [0], [1]]
        refused = 0
        for kind in kinds:
            for lower in bounds:
                for upper in bounds:
                    walk_refuses = kind != CONTINUOUS and (kind, lower, upper) != (BINARY, 0, 1)
                    try:
                        _model(Variable("a", CONTINUOUS), Variable("v", kind, lower, upper))
                    except ValueError:
                        assert walk_refuses, (kind, lower, upper)
                        refused += 1
                    else:
                        assert not walk_refuses, (kind, lower, upper)
        assert refused > 500

    @pytest.mark.parametrize(
        "record, field",
        [(Variable("s", CONTINUOUS), "upper"), (LinearConstraint("r", ((1, "s"),), "<=", 1), "rhs")],
        ids=["variable", "constraint"],
    )
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            record.extra = 5

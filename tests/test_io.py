"""File formats: round trips, error codes, and report rendering."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjs.core import (
    Instance,
    InstanceError,
    MachineAssignment,
    Schedule,
    Selection,
    SolutionPair,
    tight_schedule,
    validate_solution,
)
from fjs.io import (
    ReportRow,
    SolutionError,
    decode_json,
    format_bound_cell,
    instance_size,
    number_from_json,
    number_to_json,
    parse_instance,
    parse_solution,
    render_report,
    selection_from_starts,
    serialize_instance,
    serialize_solution,
    solution_document,
)

from conftest import random_admissible_solution, small_random_instance

EX1_SOL = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((0, 1), (2,))))
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # json.loads raises RecursionError on it


class TestInstanceFormat:
    def test_ex1_round_trip(self, ex1):
        assert parse_instance(serialize_instance(ex1)) == ex1

    def test_round_trip_is_canonical(self, ex1):
        text = serialize_instance(ex1)
        assert serialize_instance(parse_instance(text)) == text
        assert text.endswith("\n")

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, derandomize=True)
    def test_round_trip_on_random_instances(self, seed):
        inst = small_random_instance(seed)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_matches_checked_in_golden(self, ex1, golden_dir):
        assert serialize_instance(ex1) == (golden_dir / "ex1.fjs.json").read_text()

    def test_dangling_arc_code(self, ex1):
        text = serialize_instance(ex1).replace('[\n      0,\n      2\n    ]', '[\n      0,\n      9\n    ]')
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert err.value.code == "dangling-arc"

    def test_cycle_names_witness(self):
        inst_text = serialize_instance(
            Instance.from_tables("ok", 1, {0: {1: 1}, 1: {1: 1}}, [(0, 1)])
        )
        broken = inst_text.replace(
            '"arcs": [\n    [\n      0,\n      1\n    ]\n  ]',
            '"arcs": [\n    [\n      0,\n      1\n    ],\n    [\n      1,\n      0\n    ]\n  ]',
        )
        with pytest.raises(InstanceError) as err:
            parse_instance(broken)
        assert err.value.code == "cycle"
        assert "->" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(InstanceError) as err:
            parse_instance("{not json")
        assert err.value.code == "syntax"
        assert "line 1" in str(err.value)

    def test_wrong_format_tag(self):
        with pytest.raises(InstanceError) as err:
            parse_instance('{"format": "something/9"}')
        assert err.value.code == "bad-format"

    def test_non_integer_time_rejected(self, ex1):
        text = serialize_instance(ex1).replace(
            '[\n          1,\n          3\n        ]', '[\n          1,\n          "3"\n        ]'
        )
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert err.value.code == "bad-time"

    @pytest.mark.parametrize("arcs", [5, "0,1", [[True, 0]], [[0, False]]])
    def test_malformed_arcs_rejected(self, ex1, arcs):
        document = json.loads(serialize_instance(ex1))
        document["arcs"] = arcs
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(document))
        assert err.value.code == "bad-format"

    @pytest.mark.parametrize("name", [None, ["a"], 5, True])
    def test_non_string_name_rejected(self, ex1, name):
        # str() used to turn null into 'None' and ["a"] into "['a']"
        document = json.loads(serialize_instance(ex1))
        document["name"] = name
        with pytest.raises(InstanceError, match="is not a string") as err:
            parse_instance(json.dumps(document))
        assert err.value.code == "bad-format"

    def test_nesting_too_deep_is_a_syntax_error(self):
        with pytest.raises(InstanceError, match="nested too deeply") as err:
            parse_instance(DEEP_JSON)
        assert err.value.code == "syntax"

    def test_fractional_times_cannot_be_serialized(self):
        inst = Instance.from_tables("frac", 1, {0: {1: Fraction(3, 2)}}, [])
        with pytest.raises(InstanceError) as err:
            serialize_instance(inst)
        assert err.value.code == "bad-time"


class TestSolutionFormat:
    def test_round_trip(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        meta = {"method": "bnb", "status": "optimal", "lower_bound": 8, "upper_bound": 8, "elapsed": 0.01}
        text = serialize_solution(ex1, EX1_SOL, sched, meta)
        sol, parsed_sched, parsed_meta = parse_solution(text, ex1)
        assert sol == EX1_SOL
        assert parsed_sched.start == sched.start
        assert parsed_sched.makespan == 8
        assert parsed_meta["method"] == "bnb"
        assert serialize_solution(ex1, sol, parsed_sched, parsed_meta) == text

    def test_selection_rebuilt_from_starts(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        derived = selection_from_starts(ex1, EX1_SOL.assignment, sched.start)
        assert derived == EX1_SOL.selection

    def test_fractional_values_survive(self):
        inst = Instance.from_tables("fr", 1, {0: {1: Fraction(1, 2)}, 1: {1: Fraction(1, 2)}}, [])
        sol = SolutionPair(MachineAssignment((1, 1)), Selection(((0, 1),)))
        sched = tight_schedule(inst, sol)
        assert sched.makespan == 1
        text = serialize_solution(inst, sol, sched)
        _, parsed, _ = parse_solution(text, inst)
        assert parsed.start == (0, Fraction(1, 2))

    def test_refuses_infeasible_solution(self, ex1):
        bad = Schedule(start=(0, 1, 3), makespan=8)
        with pytest.raises(SolutionError, match="refusing"):
            serialize_solution(ex1, EX1_SOL, bad)

    @pytest.mark.parametrize("field", ["assignment", "starts"])
    def test_bool_operation_id_rejected(self, ex1, field):
        document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
        document[field][1][0] = True
        with pytest.raises(SolutionError, match="fresh integer"):
            parse_solution(json.dumps(document), ex1)

    def test_wrong_instance_name(self, ex1):
        sched = tight_schedule(ex1, EX1_SOL)
        text = serialize_solution(ex1, EX1_SOL, sched).replace('"EX1"', '"OTHER"')
        with pytest.raises(SolutionError, match="OTHER"):
            parse_solution(text, ex1)

    def test_nesting_too_deep_is_a_solution_error(self):
        with pytest.raises(SolutionError, match="nested too deeply"):
            solution_document(DEEP_JSON)

    def test_decode_json_maps_syntax_errors_to_the_given_type(self):
        assert decode_json('{"a": [1]}', SolutionError) == {"a": [1]}
        with pytest.raises(SolutionError, match="line 1, column 2"):
            decode_json("{", SolutionError)

    def test_parsed_solutions_validate_on_random_instances(self):
        for seed in range(15):
            inst = small_random_instance(seed)
            sol = random_admissible_solution(inst, seed + 3)
            sched = tight_schedule(inst, sol)
            parsed_sol, parsed_sched, _ = parse_solution(
                serialize_solution(inst, sol, sched), inst
            )
            assert validate_solution(inst, parsed_sol, parsed_sched).ok
            assert parsed_sched.makespan == sched.makespan


class TestNumbers:
    def test_integer_passthrough(self):
        assert number_to_json(5) == 5
        assert number_from_json(5, "x") == 5

    def test_fraction_round_trip(self):
        assert number_to_json(Fraction(3, 2)) == "3/2"
        assert number_from_json("3/2", "x") == Fraction(3, 2)
        assert number_to_json(Fraction(4, 2)) == 2

    def test_rejects_floats_and_junk(self):
        with pytest.raises(SolutionError):
            number_from_json(1.5, "x")
        with pytest.raises(SolutionError):
            number_from_json("3/0", "x")
        with pytest.raises(SolutionError):
            number_from_json(True, "x")


    @pytest.mark.parametrize("text", ["0e0", "3.6e2", "1e1000000", "1.5", " 7 ", "7\n", "+1", "1/-2", "\u0661", "1_000", ""])
    def test_strings_other_than_a_or_a_over_b_are_refused(self, text):
        with pytest.raises(SolutionError, match="bad rational literal"):
            number_from_json(text, "x")

    def test_string_grammar(self):
        assert number_from_json("-3/4", "x") == Fraction(-3, 4)
        assert number_from_json("007", "x") == 7
        assert number_from_json("-0", "x") == 0


class TestReport:
    def test_gap_cell_formatting(self):
        assert format_bound_cell(859, 881) == "[859;881] 2.50%"
        assert format_bound_cell(Fraction(8452600, 10000), 1104).startswith("[845.26;1104]")

    def test_header_only_when_empty(self):
        text = render_report([])
        assert text.splitlines() == ["Instance  Size  EST  Method  mks  CPU(s)"]

    def test_rows_render_optimal_and_bounds(self):
        rows = [
            ReportRow("A", 2, 3, 3, 2, 10, "bnb", "optimal", 8, 8, 0.01),
            ReportRow("B", 3, 2, 5, 4, 99, "bnb", "bound-pair", 859, 881, 3600.0),
        ]
        text = render_report(rows)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "2, 3, 2" in lines[1] and lines[1].rstrip().endswith("0.01")
        assert "[859;881] 2.50%" in lines[2]
        assert "3, 2-5, 4" in lines[2]

    def test_instance_size(self, ex1):
        assert instance_size(ex1) == (1, 3, 3, 2)

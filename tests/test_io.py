"""File formats: round trips, error codes, and report rendering."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjs.cli import main
from fjs.core import (
    MAX_DIGITS,
    Instance,
    InstanceError,
    Schedule,
    Selection,
    SolutionPair,
    selection_from_starts,
    tight_schedule,
    validate_solution,
    weakly_connected_components,
    _echo,
    _num_text,
)
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
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
    serialize_instance,
    serialize_solution,
    solution_document,
    _cell_num,
)

from conftest import make_ex1, random_admissible_solution, small_random_instance, traced

EX1_SOL = SolutionPair((1, 1, 2), Selection(((0, 1), (2,))))
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

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    @settings(max_examples=40, derandomize=True)
    def test_shuffled_documents_parse_to_the_canonical_instance(self, seed, rnd):
        # the reader keeps each row's order; Instance sorts the pairs and the arcs
        inst = small_random_instance(seed, max_eligible=3, arc_percent=50)
        text = serialize_instance(inst)
        document = json.loads(text)
        for op in document["operations"]:
            rnd.shuffle(op["times"])
        rnd.shuffle(document["operations"])
        rnd.shuffle(document["arcs"])
        parsed = parse_instance(json.dumps(document))
        assert parsed == inst and parsed.ptime == inst.ptime and parsed.order == inst.order
        assert serialize_instance(parsed) == text

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

    @pytest.mark.parametrize(
        "arcs, code",
        [(5, "bad-format"), ("0,1", "bad-format"), ([[True, 0]], "dangling-arc"), ([[0, False]], "dangling-arc")],
    )
    def test_malformed_arcs_rejected(self, ex1, arcs, code):
        # the reader checks that arcs are a list of pairs; Instance, that their ends are ids
        document = json.loads(serialize_instance(ex1))
        document["arcs"] = arcs
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(document))
        assert err.value.code == code

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

    @pytest.mark.parametrize(
        "generate",
        [
            lambda: generate_yfjs(YfjsParams(200, 10, 20, 3, 1)),
            lambda: generate_yfjs(YfjsParams(50, 10, 10, 3, 1)),
            lambda: generate_dafjs(DafjsParams(60, 10, 1)),
        ],
        ids=["YFJS-n200", "YFJS-n50", "DAFJS-n60"],
    )
    def test_the_decoded_document_is_gone_before_the_instance_is_built(self, generate):
        # Holding the document, its rows and the instance at once peaks at 1.21-1.23 times
        # the sum below on these instances; letting go of the document first, at 0.71-0.78.
        instance = generate()
        text = serialize_instance(instance)
        _, document_bytes, _ = traced(json.loads, text)
        parsed, instance_bytes, peak = traced(parse_instance, text)
        assert parsed == instance
        assert peak < document_bytes + instance_bytes

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
        sol = SolutionPair((1, 1), Selection(((0, 1),)))
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

    # Starts that are all ints of at most MAX_DIGITS digits are taken in bulk;
    # any other start sends every start through number_from_json.
    @pytest.mark.parametrize(
        "value, expected",
        [("3/2", (0, Fraction(3, 2), 3)), (-2, (0, -2, 3)), (10**1000 - 1, (0, 10**1000 - 1, 3))],
    )
    def test_starts_outside_or_inside_the_bulk_check_keep_their_value(self, ex1, value, expected):
        document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
        document["starts"][1][1] = value
        _, sched, _ = parse_solution(json.dumps(document), ex1)
        assert sched.start == expected
        assert list(map(type, sched.start)) == list(map(type, expected))

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "start of operation 1: expected a number, got True"),
            (10**1000, f"start of operation 1: {_echo(10**1000)} has more than 1000 digits"),
            (-(10**1000), f"start of operation 1: {_echo(-(10**1000))} has more than 1000 digits"),
        ],
    )
    def test_a_start_outside_the_bulk_check_keeps_its_message(self, ex1, value, message):
        document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
        document["starts"][1][1] = value
        with pytest.raises(SolutionError) as caught:
            parse_solution(json.dumps(document), ex1)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("assignment", {"0": 1}, "assignment must be a list of [id, value] pairs"),
            ("starts", "0 3 3", "starts must be a list of [id, value] pairs"),
            ("assignment", [[0, 1], [1, 1], [3, 2]], "assignment must cover operation ids 0..2"),
            ("starts", [[0, 0], [1, 3]], "starts must cover operation ids 0..2"),
            ("assignment", [[0, 1], [1, "1"], [2, 2]], "assignment: machine '1' of operation 1 is not an integer"),
            ("assignment", [[0, 1], [1, 1.0], [2, 2]], "assignment: machine 1.0 of operation 1 is not an integer"),
            ("meta", [], "meta must be an object"),
        ],
        ids=[
            "assignment-object", "starts-string", "assignment-ids", "starts-ids", "str-machine", "float-machine", "meta"
        ],
    )
    def test_a_malformed_field_is_named(self, ex1, field, value, message):
        document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
        document[field] = value
        with pytest.raises(SolutionError) as err:
            parse_solution(json.dumps(document), ex1)
        assert str(err.value) == message

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

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("9" * 1000, 10**1000 - 1),
            ("-" + "9" * 1000, 1 - 10**1000),
            ("1/" + "9" * 1000, Fraction(1, 10**1000 - 1)),
            ("0" * 1000 + "/" + "7" * 1000, 0),
            (10**1000 - 1, 10**1000 - 1),
            (1 - 10**1000, 1 - 10**1000),
        ],
        ids=["digits", "negative", "denominator", "leading-zeros", "int", "negative-int"],
    )
    def test_parts_of_max_digits_are_read(self, value, expected):
        assert number_from_json(value, "x") == expected

    @pytest.mark.parametrize(
        "value",
        ["9" * 1001, "1/" + "9" * 1001, "0" * 1001, "30000000000/" + "9" * 4300, 10**1000, -(10**1000)],
        ids=["digits", "denominator", "zeros", "far-over", "int", "negative-int"],
    )
    def test_a_part_of_more_than_max_digits_is_refused(self, value):
        with pytest.raises(SolutionError, match=r"^x: .* has (a part of )?more than 1000 digits$"):
            number_from_json(value, "x")


# Ints of any size, and Fractions whose parts have at most MAX_DIGITS digits, from
# far beyond a float's range to so near 0 that a float shows them as 0.
_PARTS = st.builds(lambda m, e: m * 10**e, st.integers(1, 10**9), st.integers(0, MAX_DIGITS - 10))
CELL_VALUES = (
    st.integers()
    | st.builds(lambda m, e: m * 10**e, st.integers(-(10**9), 10**9), st.integers(0, 5000))
    | st.builds(lambda sign, a, b: Fraction(sign * a, b), st.sampled_from([1, -1]), _PARTS, _PARTS)
)


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

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(10**400, 3), "1" + "0" * 400 + "/3"),
            (Fraction(1, 10**900), "1/1" + "0" * 900),
            (Fraction(-1, 10**900), "-1/1" + "0" * 900),
        ],
        ids=["overflow", "underflow", "negative-underflow"],
    )
    def test_a_bound_a_float_cannot_show_is_written_exactly(self, value, text):
        rows = [
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "optimal", 8, value, 0.0),
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "bound-pair", value, value, 0.0),
            ReportRow("A", 1, 1, 1, 1, value, "bnb", "optimal", 8, 8, 0.0),
        ]
        assert [render_report([row]).splitlines()[1] for row in rows] == [
            f"A         1, 1, 1  10   bnb     {text}  0.00",
            f"A         1, 1, 1  10   bnb     [{text};{text}] 0.00%  0.00",
            f"A         1, 1, 1  {text}  bnb     8    0.00",
        ]

    def test_an_int_too_long_for_text_is_cut(self):
        long = 10**5000  # past the interpreter's 4,300-digit limit on int-to-text
        cut, cut_plus_1 = f"1{'0' * 37}...{'0' * 39}", f"1{'0' * 37}...{'0' * 38}1"
        rows = [
            ReportRow("A", 1, 1, 1, 1, long, "bnb", "optimal", 8, 8, 0.0),
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "optimal", 8, long, 0.0),
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "bound-pair", long, long + 1, 0.0),
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "bound-pair", 8, long, 0.0),
            ReportRow("A", 1, 1, 1, 1, 10, "bnb", "bound-pair", 8, Fraction(long), 0.0),  # an integral Fraction
        ]
        assert [render_report([row]).splitlines()[1] for row in rows] == [
            f"A         1, 1, 1  {cut}  bnb     8    0.00",
            f"A         1, 1, 1  10   bnb     {cut}  0.00",
            f"A         1, 1, 1  10   bnb     [{cut};{cut_plus_1}] 0.00%  0.00",
            f"A         1, 1, 1  10   bnb     [8;{cut}] 100.00%  0.00",
            f"A         1, 1, 1  10   bnb     [8;{cut}] 100.00%  0.00",
        ]

    def test_a_method_is_shown_escaped(self):
        # a newline in a method would otherwise start a forged row
        row = ReportRow("A", 1, 1, 1, 1, 10, "est\nB  1, 1, 1  1  bnb  1", "optimal", 8, 8, 0.0)
        assert render_report([row]).splitlines() == [
            "Instance  Size     EST  Method                      mks  CPU(s)",
            "A         1, 1, 1  10   est\\nB  1, 1, 1  1  bnb  1  8    0.00",
        ]

    def test_a_tiny_bound_a_float_can_show_is_rendered(self):
        row = ReportRow("A", 1, 1, 1, 1, 10, "bnb", "optimal", 8, Fraction(1, 10**320), 0.0)
        assert render_report([row]).splitlines()[1].split()[-2] == f"{1e-320:g}"

    @given(CELL_VALUES)
    @settings(max_examples=300, derandomize=True)
    def test_a_number_cell_is_a_float_where_one_shows_it_else_exact(self, value):
        text = _cell_num(value)
        assert "\n" not in text
        try:
            shown = float(value)
        except OverflowError:
            shown = 0.0
        if value != int(value):
            assert text == (f"{shown:g}" if shown else f"{value.numerator}/{value.denominator}")
        elif abs(value) < 10**4300:
            assert text == str(int(value))
        else:  # past the interpreter's 4,300-digit limit on int-to-text: cut as messages cut it
            assert text == _echo(int(value))

    @given(CELL_VALUES, CELL_VALUES)
    @settings(max_examples=300, derandomize=True)
    def test_a_gap_cell_is_a_float_where_one_shows_it_else_exact(self, lower, upper):
        text = format_bound_cell(lower, upper)
        assert "\n" not in text
        bounds = f"[{_cell_num(lower)};{_cell_num(upper)}] "
        assert text.startswith(bounds) and text.endswith("%")
        try:
            gap = 0.0 if upper == 0 else float((upper - lower) / upper) * 100
        except OverflowError:
            gap = math.inf
        if math.isfinite(gap):
            assert text == f"{bounds}{gap:.2f}%"
        else:
            assert text == f"{bounds}{_num_text(Fraction(upper - lower, upper) * 100)}%"
            assert "..." in text or Fraction(text[len(bounds):-1]) == Fraction(upper - lower, upper) * 100

    def test_instance_size(self, ex1):
        assert instance_size(ex1) == (1, 3, 3, 2)
        assert instance_size(Instance("empty", 4, (), (), ())) == (0, 0, 0, 4)


# ---------------------------------------------------------------------------
# The writers against their reference: json.dumps(sort_keys=True, indent=2)


def _reference_instance_text(instance: Instance) -> str:
    document = {
        "format": "fjs-instance/1",
        "name": instance.name,
        "machines": instance.machines,
        "operations": [
            {"id": v, "times": [[k, t] for k, t in zip(instance.eligible[v], instance.times[v])]}
            for v in instance.ops
        ],
        "arcs": [list(arc) for arc in instance.arcs],
        "jobs": [list(group) for group in weakly_connected_components(instance)],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _reference_solution_text(instance: Instance, sol: SolutionPair, sched: Schedule, meta: dict) -> str:
    document = {
        "format": "fjs-solution/1",
        "instance": instance.name,
        "assignment": [[v, sol.assignment[v]] for v in instance.ops],
        "starts": [[v, number_to_json(sched.start[v])] for v in instance.ops],
        "makespan": number_to_json(sched.makespan),
        "meta": {key: number_to_json(value) if isinstance(value, Fraction) else value for key, value in meta.items()},
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII text and surrogates
NAMES = st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1fa Zé€\U0001f600\ud800/') | st.characters(), max_size=12)


@st.composite
def instances(draw, fractional: bool = False):
    """Small instances; times are ints, ``Fraction``s with denominator 1, or
    (when ``fractional``) any positive ``Fraction``."""
    machines = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    big = st.integers(1, 10**30)
    whole = big | big.map(Fraction)
    time = whole | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6) if fractional else whole
    eligible, times = [], []
    for _ in range(n):
        row = draw(st.lists(st.integers(1, machines), min_size=1, max_size=machines, unique=True))
        eligible.append(tuple(sorted(row)))
        times.append(tuple(draw(time) for _ in row))
    candidates = [(u, w) for u in range(n) for w in range(u + 1, n)]
    arcs = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return Instance(draw(NAMES), machines, tuple(eligible), tuple(times), tuple(arcs))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | NAMES
META = st.dictionaries(
    NAMES,
    st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3))
    | st.fractions(),
    max_size=5,
)


class TestCanonicalWriters:
    @given(instances())
    @settings(max_examples=150, derandomize=True)
    def test_instance_text_is_the_json_dumps_text(self, inst):
        text = serialize_instance(inst)
        assert text == _reference_instance_text(inst)
        assert parse_instance(text) == inst

    @pytest.mark.parametrize(
        "inst",
        [
            Instance("empty", 1, (), (), ()),
            Instance('no "arcs" \\ é', 3, ((1, 3), (2,)), ((Fraction(4), 5), (Fraction(7, 1),)), ()),
        ],
        ids=["no-operations", "no-arcs"],
    )
    def test_edge_instances(self, inst):
        assert serialize_instance(inst) == _reference_instance_text(inst)

    @given(instances(fractional=True), st.integers(0, 10**6), META)
    @settings(max_examples=150, derandomize=True)
    def test_solution_text_is_the_json_dumps_text(self, inst, seed, meta):
        sol = random_admissible_solution(inst, seed)
        sched = tight_schedule(inst, sol)
        assert serialize_solution(inst, sol, sched, meta) == _reference_solution_text(inst, sol, sched, meta)

    def test_fractional_starts_are_strings(self):
        inst = Instance("fr", 1, ((1,), (1,)), ((Fraction(1, 3),), (Fraction(2, 3),)), ())
        sol = SolutionPair((1, 1), Selection(((0, 1),)))
        sched = tight_schedule(inst, sol)
        meta = {"bound": Fraction(1, 3), "none": None, "flag": True, "ratio": 0.5, "nested": {"ü": [1, {"x": None}]}}
        text = serialize_solution(inst, sol, sched, meta)
        assert text == _reference_solution_text(inst, sol, sched, meta)
        assert '"1/3"' in text and '"bound": "1/3"' in text


# ---------------------------------------------------------------------------
# The reader: one malformed instance document per rule, with its code, its
# message and the exit code of `fjs validate --in`


def _ex1_document() -> dict:
    return json.loads(serialize_instance(make_ex1()))


def _edit(**fields):
    def edit(document):
        document.update(fields)
        return document

    return edit


def _edit_op(v, **fields):
    def edit(document):
        document["operations"][v].update(fields)
        return document

    return edit


def _drop(field):
    def edit(document):
        del document[field]
        return document

    return edit


MALFORMED_INSTANCES = [
    # ids
    ("id-not-fresh", _edit_op(1, id=0), "bad-id", "operation id 0 is not a fresh integer"),
    ("id-bool", _edit_op(0, id=False), "bad-id", "operation id False is not a fresh integer"),
    ("ids-not-dense", _edit_op(2, id=5), "bad-id", "operation ids must be dense integers 0..n-1"),
    # machines
    ("machines-not-int", _edit(machines="2"), "bad-machine-count", "machines must be an integer"),
    ("machines-zero", _edit(machines=0), "bad-machine-count", "machine count must be >= 1, got 0"),
    ("machines-above-cap", _edit(machines=10_001), "bad-machine-count", "machine count must be <= 10000, got 10001"),
    ("machine-id-not-int", _edit_op(0, times=[["1", 3]]), "bad-machine", "operation 0: machine id '1' is not an integer"),
    ("machine-id-out-of-range", _edit_op(0, times=[[3, 3]]), "bad-machine", "operation 0: machine id outside 1..2"),
    # times
    ("time-not-int", _edit_op(0, times=[[1, "3"]]), "bad-time", "operation 0: processing time must be int or Fraction, got '3'"),
    ("time-float", _edit_op(0, times=[[1, 1.5]]), "bad-time", "operation 0: processing time must be int or Fraction, got 1.5"),
    ("time-zero", _edit_op(1, times=[[1, 2], [2, 0]]), "nonpositive-time", "operation 1: processing time must be positive, got 0"),
    (
        "time-too-long",
        _edit_op(0, times=[[1, 10**1000]]),
        "bad-time",
        f"operation 0: processing time must have at most 1000 digits, got {_echo(10**1000)}",
    ),
    # arcs
    ("arc-dangling", _edit(arcs=[[0, 9]]), "dangling-arc", "arc (0, 9) references an unknown operation id"),
    ("arc-not-a-pair", _edit(arcs=[[0, 1], [0]]), "bad-format", "arc entry [0] must be a pair of ids"),
    ("arc-bool-end", _edit(arcs=[[True, 0]]), "dangling-arc", "arc (True, 0) references an unknown operation id"),
    ("arc-string-end", _edit(arcs=[[0, "1"]]), "dangling-arc", "arc (0, '1') references an unknown operation id"),
    ("arcs-not-a-list", _edit(arcs=5), "bad-format", "arcs must be a list of [from, to] pairs"),
    # self-loop
    ("self-loop", _edit(arcs=[[0, 1], [1, 1]]), "self-loop", "arc (1, 1) is a self-loop"),
    # cycle
    ("cycle", _edit(arcs=[[0, 1], [1, 2], [2, 0]]), "cycle", "precedence arcs contain a cycle: 1->2->0"),
    # shape
    ("not-an-object", lambda document: [document], "bad-format", "top-level value must be an object"),
    ("wrong-format", _edit(format="fjs-instance/2"), "bad-format", "expected format 'fjs-instance/1', got 'fjs-instance/2'"),
    ("missing-field", _drop("arcs"), "missing-field", "missing field 'arcs'"),
    ("operations-not-a-list", _edit(operations={}), "bad-format", "operations must be a list"),
    (
        "entry-without-times",
        lambda document: {**document, "operations": [{"id": 0}]},
        "bad-format",
        "operation entry {'id': 0} needs 'id' and 'times'",
    ),
    ("times-not-a-list", _edit_op(0, times=5), "bad-format", "operation 0: times must be a list of [machine, time] pairs"),
    ("pair-of-three", _edit_op(0, times=[[1, 3, 4]]), "bad-format", "operation 0: times must be [machine, time] pairs"),
    ("no-machines", _edit_op(0, times=[]), "empty-eligible", "operation 0 has no eligible machine"),
    # eligible order: rows may list machines in any order, but each once
    ("machine-listed-twice", _edit_op(1, times=[[2, 4], [1, 2], [2, 3]]), "bad-machine", "operation 1: machine 2 listed twice"),
]


class TestInstanceReaderRules:
    @pytest.mark.parametrize(
        "edit, code, message", [case[1:] for case in MALFORMED_INSTANCES], ids=[case[0] for case in MALFORMED_INSTANCES]
    )
    def test_malformed_document(self, tmp_path, capsys, edit, code, message):
        text = json.dumps(edit(_ex1_document()))
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert (err.value.code, str(err.value)) == (code, message)
        path = tmp_path / "bad.fjs.json"
        path.write_text(text)
        assert main(["validate", "--in", str(path)]) == 1
        assert capsys.readouterr().err == f"fjs: {code}: {message}\n"

    def test_rows_may_list_machines_in_any_order(self, ex1):
        text = json.dumps(_edit_op(1, times=[[2, 4], [1, 2]])(_ex1_document()))
        assert parse_instance(text) == ex1

    def test_operations_may_come_in_any_id_order(self, ex1):
        document = _ex1_document()
        document["operations"].reverse()
        assert parse_instance(json.dumps(document)) == ex1

    @pytest.mark.parametrize(
        "eligible, times, message",
        [
            (((1, 1),), ((1, 1),), "operation 0: machine 1 listed twice"),
            (((1,), (2, 1, 2)), ((1,), (1, 2, 3)), "operation 1: machine 2 listed twice"),
        ],
        ids=["duplicate", "duplicate-apart"],
    )
    def test_constructor_refuses_a_machine_listed_twice(self, eligible, times, message):
        with pytest.raises(InstanceError) as err:
            Instance("bad", 2, eligible, times, ())
        assert (err.value.code, str(err.value)) == ("bad-machine", message)

    def test_constructor_sorts_each_row(self):
        unsorted = Instance("rows", 3, ((3, 1, 2), (2,), (2, 1)), ((30, 10, 20), (5,), (7, Fraction(8, 2))), [(2, 0), (0, 1)])
        expected = Instance("rows", 3, ((1, 2, 3), (2,), (1, 2)), ((10, 20, 30), (5,), (4, 7)), ((0, 1), (2, 0)))
        assert unsorted == expected
        assert unsorted.ptime == expected.ptime and type(unsorted.times[2][0]) is int
        assert Instance.from_tables("rows", 3, {0: {3: 30, 1: 10, 2: 20}, 1: {2: 5}, 2: {2: 7, 1: 4}}, [(2, 0), (0, 1)]) == expected


# ---------------------------------------------------------------------------
# The readers check their entries in bulk and walk them in order only when a
# check fails: a fault after many valid entries keeps its first-fault message


def _wide() -> Instance:
    """110 operations, no arcs: operation v runs on machine 1 for v + 1, or on machine 2."""
    return Instance.from_tables("wide", 2, {v: {1: v + 1, 2: 3} for v in range(110)}, [])


def _put(value, at=100):
    def edit(entries):
        entries[at] = value

    return edit


def _change(field, value, at=100):
    def edit(entries):
        entries[at] = {**entries[at], field: value}

    return edit


def _without(field):
    def edit(entries):
        del entries[100][field]

    return edit


def _both(first, second):
    def edit(entries):
        first(entries)
        second(entries)

    return edit


LATE_OPERATION_FAULTS = [
    ("not-a-dict", _put([100, [[1, 101]]]), "bad-format", "operation entry [100, [[1, 101]]] needs 'id' and 'times'"),
    ("no-id", _without("id"), "bad-format", "operation entry {'times': [[1, 101], [2, 3]]} needs 'id' and 'times'"),
    ("no-times", _without("times"), "bad-format", "operation entry {'id': 100} needs 'id' and 'times'"),
    ("bool-id", _change("id", True), "bad-id", "operation id True is not a fresh integer"),
    ("repeated-id", _change("id", 7), "bad-id", "operation id 7 is not a fresh integer"),
    ("times-not-a-list", _change("times", {"1": 101}), "bad-format", "operation 100: times must be a list of [machine, time] pairs"),
    ("repeated-id-then-a-non-dict", _both(_change("id", 7), _put(5, at=105)), "bad-id", "operation id 7 is not a fresh integer"),
    (
        "times-not-a-list-then-a-bool-id",
        _both(_change("times", 5), _change("id", False, at=101)),
        "bad-format",
        "operation 100: times must be a list of [machine, time] pairs",
    ),
]

LATE_PAIR_FAULTS = [
    ("not-a-list", _put({"100": 1}), "{what} entries must be [id, value] pairs"),
    ("pair-of-one", _put([100]), "{what} entries must be [id, value] pairs"),
    ("pair-of-three", _put([100, 1, 1]), "{what} entries must be [id, value] pairs"),
    ("bool-id", _put([True, 1]), "{what}: id True is not a fresh integer"),
    ("string-id", _put(["100", 1]), "{what}: id '100' is not a fresh integer"),
    ("repeated-id", _put([7, 1]), "{what}: id 7 is not a fresh integer"),
    ("repeated-id-then-a-pair-of-one", _both(_put([7, 1]), _put([101], at=101)), "{what}: id 7 is not a fresh integer"),
]

WIDE_SOL = SolutionPair((2,) * 110, Selection(((), tuple(range(110)))))


class TestLateFirstFaults:
    @pytest.mark.parametrize(
        "edit, code, message", [case[1:] for case in LATE_OPERATION_FAULTS], ids=[case[0] for case in LATE_OPERATION_FAULTS]
    )
    def test_operation_entry(self, edit, code, message):
        document = json.loads(serialize_instance(_wide()))
        edit(document["operations"])
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(document))
        assert (err.value.code, str(err.value)) == (code, message)

    @pytest.mark.parametrize("what", ["assignment", "starts"])
    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in LATE_PAIR_FAULTS], ids=[case[0] for case in LATE_PAIR_FAULTS]
    )
    def test_solution_pair(self, what, edit, message):
        instance = _wide()
        document = json.loads(serialize_solution(instance, WIDE_SOL, tight_schedule(instance, WIDE_SOL)))
        edit(document[what])
        with pytest.raises(SolutionError) as err:
            parse_solution(json.dumps(document), instance)
        assert str(err.value) == message.format(what=what)

    def test_solution_pairs_may_come_in_any_id_order(self):
        instance = _wide()
        sched = tight_schedule(instance, WIDE_SOL)
        document = json.loads(serialize_solution(instance, WIDE_SOL, sched))
        document["assignment"].reverse()
        assert parse_solution(document, instance)[:2] == (WIDE_SOL, sched)

"""LP/MPS writers: determinism, numeric rendering, structural sanity."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from fjs.core import Instance
from fjs.emit import _exact_decimal, write_lp, write_mps
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic
from fjs.milp import (
    BINARY,
    CONTINUOUS,
    LinearConstraint,
    MilpModel,
    Variable,
    build_compact_model,
    build_machine_indexed_model,
    default_horizon,
)

from conftest import integral_instances, small_random_instance, traced, with_fraction_rows


def test_emission_is_deterministic(ex1):
    model = build_compact_model(ex1, 8)
    assert write_lp(model) == write_lp(model)
    assert write_mps(model) == write_mps(model)


def test_lp_sections_in_order(ex1):
    text = write_lp(build_machine_indexed_model(ex1, 8))
    positions = [text.index(s) for s in ("Minimize", "Subject To", "Bounds", "Binaries", "End")]
    assert positions == sorted(positions)
    assert text.endswith("End\n")


def test_lp_one_constraint_per_line(ex1):
    model = build_compact_model(ex1, 8)
    text = write_lp(model)
    for row in model.constraints:
        assert sum(line.startswith(f" {row.name}:") for line in text.splitlines()) == 1


def test_every_binary_listed_once(ex1):
    model = build_compact_model(ex1, 8)
    lp = write_lp(model)
    binaries_block = lp.split("Binaries\n", 1)[1].split("End", 1)[0].split()
    expected = [v.name for v in model.variables if v.kind == "binary"]
    assert binaries_block == expected
    mps = write_mps(model)
    assert mps.count("'INTORG'") == 1 and mps.count("'INTEND'") == 1
    for name in expected:
        assert f" BV BND" in mps and name in mps


def test_mps_sections_in_order(ex1):
    text = write_mps(build_compact_model(ex1, 8))
    positions = [text.index(s) for s in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
    assert positions == sorted(positions)


def test_fractional_rows_are_scaled_to_integers():
    inst = small_random_instance(3)
    model = build_compact_model(inst, Fraction(19, 2))
    lp = write_lp(model)
    for line in lp.splitlines():
        assert "/" not in line
        if line.startswith(" disj"):
            assert "." not in line  # scaled to integers, not decimals
    mps = write_mps(model)
    assert "/" not in mps and "." not in mps.split("NAME", 1)[1]


def assert_same_text(got: str, expected: str) -> None:
    """Line-by-line equality; reports the first differing line, not a full diff."""
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    for number, (g, e) in enumerate(zip(got_lines, expected_lines), 1):
        assert g == e, f"line {number} differs"
    assert len(got_lines) == len(expected_lines) and got == expected


@pytest.mark.parametrize("instance", integral_instances(), ids=lambda inst: inst.name)
@pytest.mark.parametrize("build", [build_compact_model, build_machine_indexed_model])
def test_int_rows_write_like_fraction_rows(instance, build):
    _, sched = earliest_start_heuristic(instance)
    model = build(instance, default_horizon(instance, sched.makespan))
    # Fraction rows with denominator 1, and halved rows that must be scaled back.
    for other in (with_fraction_rows(model), with_fraction_rows(model, 2)):
        assert_same_text(write_lp(other), write_lp(model))
        assert_same_text(write_mps(other), write_mps(model))


# sha256 of the writers' output, each recorded before a rewrite of the builders or
# writers; L is the EST makespan unless given.  The "-m10" instances have
# two-digit operation and machine ids, which the EX1 golden files lack.
PINNED_SHA256 = {
    ("YFJS", "compact", None, "lp"): "82a6f11b58014eef4e3df8500197ff68f0dcc00d55f5c52cdc7f450f88bc09ef",
    ("YFJS", "compact", None, "mps"): "871b460f2f51128abe99fe4a7d269b5dd94289c5141b5091d9a795e02a1aa9ee",
    ("YFJS", "machine-indexed", None, "lp"): "9588cd8c889dd75575a23174730c6af905d901d9780bc246ced4ac2c69929088",
    ("YFJS", "machine-indexed", None, "mps"): "d941dd7293f1e9af2993e0f977720920b66c315aedbf3d26cf4f721fe0b81b00",
    ("DAFJS", "compact", None, "lp"): "fa665e35a47adf654286e4b50ef5544b4da4601ab9c689159a61ba304cf2a3d5",
    ("DAFJS", "compact", None, "mps"): "eb106ef258bbff40582d890b3183b38d44a125744fe77e76db9a271cb4a80d4f",
    ("DAFJS", "machine-indexed", None, "lp"): "3ddbf93c881414b94e15e99e6665cfb35689d691e566c75bd336e50cf6954cec",
    ("DAFJS", "machine-indexed", None, "mps"): "f27f30b186f383b02aee47a21b57d04ce1f16b4193196d21b07e2529545e2592",
    ("DAFJS", "compact", "483/2", "lp"): "d76350ffe299dd9544c716e73b2a4efb6917aee14db91537ac44cc3368c9e84f",
    ("DAFJS", "compact", "483/2", "mps"): "f763a8c745d790d1250475a0f78040b8edede5187a215ba261ef888c5485b8ca",
    ("DAFJS", "machine-indexed", "483/2", "lp"): "0b5258cc5da9e5ada70004b4c5b305921f0e90647ebac92f3a17c518669d9c34",
    ("DAFJS", "machine-indexed", "483/2", "mps"): "f8ccae7274ceba2faa4be124aaed0eac89289ac2f696a59c57934ab694d20dcb",
    ("YFJS-m10", "compact", None, "lp"): "ea243e62242251d95a0808e11c9e8d04f584d5bfeeff5400d64a664af995d7a5",
    ("YFJS-m10", "compact", None, "mps"): "557d0b157f97a392e27bbf2bdaf657c28b1e5a0ca6c66364b508a992fb8c8051",
    ("YFJS-m10", "machine-indexed", None, "lp"): "2d5775f25d65413a523a2be80534a352a753febe9324393a589a42d4975e8d05",
    ("YFJS-m10", "machine-indexed", None, "mps"): "960d644a4b9f9356031d5b5bce42e42484e5a6332a2e18d2cb3de3c7d49f0283",
    ("DAFJS-m10", "compact", None, "lp"): "cfbfe3555c5855bef1883b1e0ba75cccc5ac0b3fb082523f504ac3363061c027",
    ("DAFJS-m10", "compact", None, "mps"): "300ba69a8a1efa503c2eb953d3024e7e0a98cd8883093ab8d9e4c24446714f49",
    ("DAFJS-m10", "machine-indexed", None, "lp"): "9a08131a9127c101dc840318b0f77c6bea2b3f55b644380904f0ccbc9e9e5a42",
    ("DAFJS-m10", "machine-indexed", None, "mps"): "b2ed63a8bac2bd2a504059df6b8313b85386f20874a34fac99883aee5c5f913b",
}
PINNED_INSTANCES = {
    "YFJS": lambda: generate_yfjs(YfjsParams(3, 4, 3, 2, 2)),
    "DAFJS": lambda: generate_dafjs(DafjsParams(2, 4, 1)),
    "YFJS-m10": lambda: generate_yfjs(YfjsParams(3, 4, 10, 3, 1)),  # 12 operations
    "DAFJS-m10": lambda: generate_dafjs(DafjsParams(2, 10, 1)),  # 31 operations
}
PINNED_BUILDERS = {"compact": build_compact_model, "machine-indexed": build_machine_indexed_model}
PINNED_WRITERS = {"lp": write_lp, "mps": write_mps}


@pytest.mark.parametrize("family, model, horizon, fmt", sorted(PINNED_SHA256, key=str), ids=str)
def test_writers_output_is_pinned(family, model, horizon, fmt):
    instance = PINNED_INSTANCES[family]()
    L = Fraction(horizon) if horizon else earliest_start_heuristic(instance)[1].makespan
    text = PINNED_WRITERS[fmt](PINNED_BUILDERS[model](instance, L))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256[family, model, horizon, fmt]


@pytest.mark.parametrize("family", sorted(PINNED_INSTANCES))
def test_builders_make_plain_records(family):
    # the builders make records with tuple.__new__, bypassing the NamedTuple's own constructor
    instance = PINNED_INSTANCES[family]()
    L = earliest_start_heuristic(instance)[1].makespan
    for build in PINNED_BUILDERS.values():
        model = build(instance, L)
        assert all(type(var) is Variable and len(var) == 4 for var in model.variables)
        assert all(type(row) is LinearConstraint and len(row) == 4 for row in model.constraints)


def test_fractional_processing_times_are_scaled():
    inst = Instance.from_tables("frac", 1, {0: {1: Fraction(3, 2)}, 1: {1: 2}}, [(0, 1)])
    lp = write_lp(build_compact_model(inst, 8))
    assert " cmax_0: 2 s_0 + 3 x_0_1 - 2 z <= 0\n" in lp
    assert " disj_0_1: 2 s_0 + 3 x_0_1 + 16 y_0_1 - 2 s_1 <= 16\n" in lp
    assert " cmax_1: s_1 + 2 x_1_1 - z <= 0\n" in lp
    mps = write_mps(build_compact_model(inst, 8))
    assert "/" not in mps and "." not in mps.split("NAME", 1)[1]


@pytest.mark.parametrize("write", [write_lp, write_mps])
def test_fractional_objective_is_refused(ex1, write):
    model = replace(build_compact_model(ex1, 8), objective=((Fraction(1, 2), "z"),))
    with pytest.raises(ValueError, match="objective coefficient 1/2 of z"):
        write(model)


def _bounded_model() -> MilpModel:
    variables = (
        Variable("s_0", CONTINUOUS, 2, 7),
        Variable("s_1", CONTINUOUS, 0, Fraction(5, 2)),
        Variable("s_2", CONTINUOUS, Fraction(-1, 4)),
        Variable("s_3", CONTINUOUS),
        Variable("x_0", BINARY, 0, 1),
    )
    row = LinearConstraint("r", tuple((1, v.name) for v in variables), "<=", 9)
    return MilpModel("bounded", variables, ((1, "s_0"),), (row,))


def test_mps_writes_continuous_bounds():
    mps = write_mps(_bounded_model())
    bounds = mps.split("BOUNDS\n", 1)[1].split("ENDATA", 1)[0].splitlines()
    assert [line.split() for line in bounds] == [
        ["LO", "BND", "s_0", "2"],
        ["UP", "BND", "s_0", "7"],
        ["UP", "BND", "s_1", "2.5"],
        ["LO", "BND", "s_2", "-0.25"],
        ["BV", "BND", "x_0"],
    ]
    lp = write_lp(_bounded_model())
    assert " 2 <= s_0 <= 7\n" in lp and " -0.25 <= s_2\n" in lp and " 0 <= s_3\n" in lp


def test_mps_negative_upper_bound_keeps_lower_bound():
    model = _bounded_model()
    model = replace(model, variables=(Variable("s_0", CONTINUOUS, 0, -1),) + model.variables[1:])
    mps = write_mps(model)
    assert [line.split() for line in mps.splitlines() if "s_0" in line and "BND" in line] == [
        ["LO", "BND", "s_0", "0"],
        ["UP", "BND", "s_0", "-1"],
    ]


def test_integer_models_print_plain_integers(ex1):
    lp = write_lp(build_compact_model(ex1, 8))
    assert "." not in lp.split("\n", 1)[1]


def test_exact_decimal_rendering():
    assert _exact_decimal(Fraction(5, 2)) == "2.5"
    assert _exact_decimal(Fraction(-3, 8)) == "-0.375"
    assert _exact_decimal(Fraction(7)) == "7"
    assert _exact_decimal(Fraction(1, 20)) == "0.05"
    with pytest.raises(ValueError):
        _exact_decimal(Fraction(1, 3))


def _continuous(name: str, lower=0, upper=None) -> Variable:
    return Variable(name, CONTINUOUS, lower, upper)


def _binary(name: str) -> Variable:
    return Variable(name, BINARY, 0, 1)


def _row(name: str, terms, relation: str, rhs) -> LinearConstraint:
    return LinearConstraint(name, tuple(terms), relation, rhs)


# Models the builders never make, each with write_mps's text recorded before the
# writer joined its sections one at a time.
EDGE_MODELS = {
    "no-rows": MilpModel("no-rows", (_continuous("z"),), ((1, "z"),), ()),
    "zero-rhs": MilpModel(
        "zero-rhs",
        (_continuous("s_0"), _continuous("s_1"), _continuous("z")),
        ((1, "z"),),
        (
            _row("p", [(1, "s_0"), (-1, "s_1")], "<=", 0),
            _row("q", [(1, "s_1"), (-1, "z")], "<=", 0),
            _row("e", [(2, "s_0"), (-1, "s_1")], "=", 0),
        ),
    ),
    "zero-coef-empty-row": MilpModel(
        "zero-coef-empty-row",
        (_continuous("s_0"), _continuous("s_1"), _continuous("unused"), _continuous("z")),
        ((1, "z"),),
        (
            _row("r0", [(0, "s_0"), (3, "s_1")], ">=", 4),
            _row("empty", [], "<=", 0),
            _row("r1", [(1, "s_1"), (-1, "z")], "<=", -2),
        ),
    ),
    "fraction-row": MilpModel(
        "fraction-row",
        (_continuous("s_0", Fraction(1, 4), Fraction(5, 2)), _continuous("s_1", Fraction(-3, 8)), _continuous("z")),
        ((1, "z"),),
        (
            _row("half", [(Fraction(1, 2), "s_0"), (Fraction(-2, 3), "s_1")], "<=", Fraction(7, 6)),
            _row("whole", [(Fraction(4, 2), "s_1"), (-1, "z")], ">=", Fraction(-6, 3)),
            _row("third", [(Fraction(1, 3), "z")], "=", 1),
        ),
    ),
    "binaries-only": MilpModel(
        "binaries-only",
        (_binary("x_0"), _binary("x_1"), _binary("x_2")),
        ((1, "x_0"), (2, "x_2")),
        (_row("pick", [(1, "x_0"), (1, "x_1"), (1, "x_2")], "=", 1), _row("not_2", [(1, "x_2")], "<=", 0)),
    ),
    "binary-block": MilpModel(
        "binary-block",
        (_continuous("s_0", 0, 10), _binary("x_0"), _binary("x_1"), _continuous("s_1", -5, -1), _continuous("z")),
        ((1, "z"),),
        (
            _row("a", [(1, "s_0"), (10, "x_0"), (-1, "z")], "<=", 10),
            _row("b", [(1, "x_0"), (1, "x_1")], "=", 1),
            _row("c", [(-1, "s_1"), (1, "z"), (-3, "x_1")], ">=", 0),
        ),
    ),
    "newline-name": MilpModel(
        "two\nlines\tand a tab",
        (_continuous("s_0"), _binary("x_0"), _continuous("z")),
        ((1, "z"),),
        (_row("cap", [(1, "s_0"), (5, "x_0"), (-1, "z")], "<=", 0),),
    ),
}
EDGE_MPS = {
    "no-rows": """\
NAME          no-rows
ROWS
 N  obj
COLUMNS
    z         obj       1
RHS
BOUNDS
ENDATA
""",
    "zero-rhs": """\
NAME          zero-rhs
ROWS
 N  obj
 L  p
 L  q
 E  e
COLUMNS
    s_0       p         1
    s_0       e         2
    s_1       p         -1
    s_1       q         1
    s_1       e         -1
    z         obj       1
    z         q         -1
RHS
BOUNDS
ENDATA
""",
    "zero-coef-empty-row": """\
NAME          zero-coef-empty-row
ROWS
 N  obj
 G  r0
 L  empty
 L  r1
COLUMNS
    s_1       r0        3
    s_1       r1        1
    z         obj       1
    z         r1        -1
RHS
    RHS       r0        4
    RHS       r1        -2
BOUNDS
ENDATA
""",
    "fraction-row": """\
NAME          fraction-row
ROWS
 N  obj
 L  half
 G  whole
 E  third
COLUMNS
    s_0       half      3
    s_1       half      -4
    s_1       whole     2
    z         obj       1
    z         whole     -1
    z         third     1
RHS
    RHS       half      7
    RHS       whole     -2
    RHS       third     3
BOUNDS
 LO BND       s_0       0.25
 UP BND       s_0       2.5
 LO BND       s_1       -0.375
ENDATA
""",
    "binaries-only": """\
NAME          binaries-only
ROWS
 N  obj
 E  pick
 L  not_2
COLUMNS
    MARKER1   'MARKER'  'INTORG'
    x_0       obj       1
    x_0       pick      1
    x_1       pick      1
    x_2       obj       2
    x_2       pick      1
    x_2       not_2     1
    MARKER2   'MARKER'  'INTEND'
RHS
    RHS       pick      1
BOUNDS
 BV BND       x_0
 BV BND       x_1
 BV BND       x_2
ENDATA
""",
    "binary-block": """\
NAME          binary-block
ROWS
 N  obj
 L  a
 E  b
 G  c
COLUMNS
    s_0       a         1
    MARKER1   'MARKER'  'INTORG'
    x_0       a         10
    x_0       b         1
    x_1       b         1
    x_1       c         -3
    MARKER2   'MARKER'  'INTEND'
    s_1       c         -1
    z         obj       1
    z         a         -1
    z         c         1
RHS
    RHS       a         10
    RHS       b         1
BOUNDS
 UP BND       s_0       10
 BV BND       x_0
 BV BND       x_1
 LO BND       s_1       -5
 UP BND       s_1       -1
ENDATA
""",
    "newline-name": """\
NAME          two\\nlines\\tand a tab
ROWS
 N  obj
 L  cap
COLUMNS
    s_0       cap       1
    MARKER1   'MARKER'  'INTORG'
    x_0       cap       5
    MARKER2   'MARKER'  'INTEND'
    z         obj       1
    z         cap       -1
RHS
BOUNDS
 BV BND       x_0
ENDATA
""",
}


@pytest.mark.parametrize("case", sorted(EDGE_MODELS))
def test_mps_text_of_edge_models_is_pinned(case):
    assert_same_text(write_mps(EDGE_MODELS[case]), EDGE_MPS[case])


# `r0` leaves out its zero coefficient, and the row `empty`, with no term, reads `0`.
EDGE_LP = {
    "no-rows": """\
\\ Problem: no-rows
Minimize
 obj: z
Subject To
Bounds
 0 <= z
Binaries
End
""",
    "zero-rhs": """\
\\ Problem: zero-rhs
Minimize
 obj: z
Subject To
 p: s_0 - s_1 <= 0
 q: s_1 - z <= 0
 e: 2 s_0 - s_1 = 0
Bounds
 0 <= s_0
 0 <= s_1
 0 <= z
Binaries
End
""",
    "zero-coef-empty-row": """\
\\ Problem: zero-coef-empty-row
Minimize
 obj: z
Subject To
 r0: 3 s_1 >= 4
 empty: 0 <= 0
 r1: s_1 - z <= -2
Bounds
 0 <= s_0
 0 <= s_1
 0 <= unused
 0 <= z
Binaries
End
""",
    "fraction-row": """\
\\ Problem: fraction-row
Minimize
 obj: z
Subject To
 half: 3 s_0 - 4 s_1 <= 7
 whole: 2 s_1 - z >= -2
 third: z = 3
Bounds
 0.25 <= s_0 <= 2.5
 -0.375 <= s_1
 0 <= z
Binaries
End
""",
    "binaries-only": """\
\\ Problem: binaries-only
Minimize
 obj: x_0 + 2 x_2
Subject To
 pick: x_0 + x_1 + x_2 = 1
 not_2: x_2 <= 0
Bounds
Binaries
 x_0
 x_1
 x_2
End
""",
    "binary-block": """\
\\ Problem: binary-block
Minimize
 obj: z
Subject To
 a: s_0 + 10 x_0 - z <= 10
 b: x_0 + x_1 = 1
 c: - s_1 + z - 3 x_1 >= 0
Bounds
 0 <= s_0 <= 10
 -5 <= s_1 <= -1
 0 <= z
Binaries
 x_0
 x_1
End
""",
    "newline-name": """\
\\ Problem: two\\nlines\\tand a tab
Minimize
 obj: z
Subject To
 cap: s_0 + 5 x_0 - z <= 0
Bounds
 0 <= s_0
 0 <= z
Binaries
 x_0
End
""",
}


@pytest.mark.parametrize("case", sorted(EDGE_MODELS))
def test_lp_text_of_edge_models_is_pinned(case):
    assert_same_text(write_lp(EDGE_MODELS[case]), EDGE_LP[case])


# The models of the benchmark's export workload: fjs emit --L auto of both models of two instances.
EXPORT_INSTANCES = {
    "YFJS-n10-o10-m10-q3-s1": lambda: generate_yfjs(YfjsParams(10, 10, 10, 3, 1)),
    "DAFJS-n5-m10-s1": lambda: generate_dafjs(DafjsParams(5, 10, 1)),
}


@pytest.mark.parametrize("build", [build_compact_model, build_machine_indexed_model])
@pytest.mark.parametrize("family", sorted(EXPORT_INSTANCES))
def test_mps_peak_is_below_two_and_a_half_times_its_text(family, build):
    # Holding every ROWS line and cell until one final join peaks at 2.69-3.24 times the
    # text on these models; joining each section once it is complete, at 2.25-2.31.
    instance = EXPORT_INSTANCES[family]()
    model = build(instance, default_horizon(instance, earliest_start_heuristic(instance)[1].makespan))
    text, _, peak = traced(write_mps, model)
    assert peak < 2.5 * len(text)

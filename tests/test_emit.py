"""LP/MPS writers: determinism, numeric rendering, structural sanity."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from fjs.core import Instance
from fjs.emit import _exact_decimal, write_lp, write_mps
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

from conftest import integral_instances, small_random_instance, with_fraction_rows


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
    return MilpModel("bounded", variables, ((1, "s_0"),), (row,), stats=None)


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

"""Plain-text emission of models in LP and MPS formats.

Output is deterministic: variables and rows appear in model order, numbers
are printed as integers whenever possible, and any row with fractional
coefficients is scaled by the least common denominator first (scaling a row
by a positive integer does not change the feasible set).  A row whose
coefficients and right-hand side are all ``int``, which is every row of a
model built from integral data, is written as it is, with no lcm computed.
Standalone values such as bounds fall back to exact decimals.  Objective
coefficients must be integral.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import itemgetter

from .core import Rational, _printable
from .milp import BINARY, LinearConstraint, MilpModel

__all__ = ["write_lp", "write_mps"]


def _exact_decimal(value: Rational) -> str:
    """Exact decimal representation; only terminating expansions allowed."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal expansion")
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    whole, frac = digits[:-shift], digits[-shift:]
    return f"{sign}{whole}.{frac}"


def _scaled_row(row: LinearConstraint) -> tuple[tuple[tuple[int, str], ...], int]:
    """Row with int coefficients and rhs: (terms, rhs), its denominators cleared if it has any."""
    terms, rhs = row.terms, row.rhs
    if type(rhs) is int:
        for coef, _ in terms:
            if type(coef) is not int:
                break
        else:
            return terms, rhs
    scale = lcm(rhs.denominator, *[coef.denominator for coef, _ in terms])
    return tuple([(int(coef * scale), name) for coef, name in terms]), int(rhs * scale)


def _objective(model: MilpModel) -> tuple[tuple[int, str], ...]:
    """Objective terms as ints; a fractional coefficient is refused, not truncated."""
    for coef, name in model.objective:
        if coef.denominator != 1:
            raise ValueError(f"objective coefficient {coef} of {name} is not integral")
    return tuple((int(coef), name) for coef, name in model.objective)


def _lp_expression(terms: tuple[tuple[int, str], ...]) -> str:
    parts: list[str] = []
    for coef, name in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if coef > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    if not parts:
        parts.append("0 " + terms[0][1] if terms else "0")
    return " ".join(parts)


def write_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP format."""
    lines = [f"\\ Problem: {_printable(model.name)}", "Minimize"]
    lines.append(" obj: " + _lp_expression(_objective(model)))
    lines.append("Subject To")
    for row in model.constraints:
        terms, rhs = _scaled_row(row)
        lines.append(f" {row.name}: {_lp_expression(terms)} {row.relation} {rhs}")
    lines.append("Bounds")
    for var in model.variables:
        if var.kind == BINARY:
            continue
        lower = _exact_decimal(var.lower)
        if var.upper is None:
            lines.append(f" {lower} <= {var.name}")
        else:
            lines.append(f" {lower} <= {var.name} <= {_exact_decimal(var.upper)}")
    lines.append("Binaries")
    for var in model.variables:
        if var.kind == BINARY:
            lines.append(f" {var.name}")
    lines += ["End", ""]
    return "\n".join(lines)


def write_mps(model: MilpModel) -> str:
    """Render the model in MPS format (column-aligned, markers for binaries).

    Each section is joined into one string as soon as it is complete, and
    its lines are let go, so at its peak the writer holds about the model
    plus twice the text.
    """
    first = itemgetter(0)  # a record's name
    width = max(map(len, chain(map(first, model.variables), map(first, model.constraints), ["'MARKER'"]))) + 2

    # One pass over the rows fills the per-column and RHS cells; every row
    # name is padded once, not once per cell.
    cells: dict[str, list[str]] = {v.name: [] for v in model.variables}
    obj = "obj".ljust(width)
    for coef, name in _objective(model):
        cells[name].append(f"{obj}{coef}")
    rhs_column = f"    {'RHS':<{width}}"
    rhs_cells = ["RHS"]
    for row in model.constraints:
        row_name = row.name.ljust(width)
        terms, rhs = _scaled_row(row)
        for coef, name in terms:
            if coef:
                cells[name].append(f"{row_name}{coef}")
        if rhs:
            rhs_cells.append(f"{rhs_column}{row_name}{rhs}")
    rhs_section = "\n".join(rhs_cells)
    del rhs_cells

    def entry(col: str, row: str, val: object) -> str:
        return f"    {col:<{width}}{row:<{width}}{val}"

    lines = ["COLUMNS"]
    in_integer_block = False
    for var in model.variables:
        if var.kind == BINARY and not in_integer_block:
            lines.append(entry("MARKER1", "'MARKER'", "'INTORG'"))
            in_integer_block = True
        if var.kind != BINARY and in_integer_block:
            lines.append(entry("MARKER2", "'MARKER'", "'INTEND'"))
            in_integer_block = False
        column_cells = cells.pop(var.name)  # freed once joined
        if column_cells:
            column = f"    {var.name:<{width}}"
            lines.append(column + ("\n" + column).join(column_cells))
    if in_integer_block:
        lines.append(entry("MARKER2", "'MARKER'", "'INTEND'"))
    columns_section = "\n".join(lines)

    lines = ["BOUNDS"]
    bound_name = f"{'BND':<{width}}"
    for var in model.variables:
        if var.kind == BINARY:
            lines.append(f" BV {bound_name}{var.name}")
            continue
        # MPS defaults a column to [0, +inf); a negative upper bound alone
        # would make some readers drop the lower bound, so LO is then explicit.
        if var.lower != 0 or (var.upper is not None and var.upper < 0):
            lines.append(f" LO {bound_name}{var.name:<{width}}{_exact_decimal(var.lower)}")
        if var.upper is not None:
            lines.append(f" UP {bound_name}{var.name:<{width}}{_exact_decimal(var.upper)}")
    bounds_section = "\n".join(lines)

    # ROWS comes first in the file but is rendered last, in a second pass
    # over the rows, so none of its lines lives beside the cells.
    row_kind = {"<=": "L", ">=": "G", "=": "E"}
    lines = ["ROWS", " N  obj"]
    lines += [f" {row_kind[relation]}  {name}" for name, _, relation, _ in model.constraints]
    rows_section = "\n".join(lines)
    del lines
    name_line = f"NAME          {_printable(model.name)}"
    return "\n".join([name_line, rows_section, columns_section, rhs_section, bounds_section, "ENDATA", ""])

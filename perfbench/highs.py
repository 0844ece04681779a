"""Reference optima from HiGHS, through `scipy.optimize.milp`, for the `bnb` corpus.

The compact model of `fjs.milp.build_compact_model` is handed to HiGHS in
floating point.  Nothing of the float solution is trusted: the binaries are
rounded, decoded with the exact `fjs.milp.decode_compact` and validated
exactly, and the decoded makespan counts as optimal only when HiGHS proves
a dual bound within 1 of it, which for integer processing times leaves no
better schedule.  Raises ImportError when scipy is missing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp
from scipy.sparse import coo_array

from fjs import core, heuristic
from fjs import milp as fmilp


def proven_optimum(instance, time_limit: float = 60.0) -> int | None:
    """The optimal makespan, or None when HiGHS proves no optimum in time."""
    if any(t != int(t) for row in instance.times for t in row):
        raise ValueError("reference optima need integer processing times")
    _, sched = heuristic.earliest_start_heuristic(instance)
    horizon = fmilp.default_horizon(instance, sched.makespan)
    model = fmilp.build_compact_model(instance, horizon)
    index = {var.name: i for i, var in enumerate(model.variables)}

    cost = np.zeros(len(index))
    for coef, name in model.objective:
        cost[index[name]] = float(coef)
    rows, cols, vals, lower, upper = [], [], [], [], []
    for r, row in enumerate(model.constraints):
        for coef, name in row.terms:
            rows.append(r)
            cols.append(index[name])
            vals.append(float(coef))
        rhs = float(row.rhs)
        lower.append(rhs if row.relation in (">=", "=") else -np.inf)
        upper.append(rhs if row.relation in ("<=", "=") else np.inf)
    matrix = coo_array((vals, (rows, cols)), shape=(len(model.constraints), len(index))).tocsr()
    binary = [var.kind == fmilp.BINARY for var in model.variables]
    result = highs_milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.array(binary, dtype=int),
        bounds=Bounds(
            [float(var.lower) for var in model.variables],
            [np.inf if var.upper is None else float(var.upper) for var in model.variables],
        ),
        options={"time_limit": time_limit, "disp": False},
    )
    if result.status != 0:
        return None

    values = {var.name: (round(result.x[i]) if binary[i] else 0) for i, var in enumerate(model.variables)}
    values["z"] = horizon  # decode recomputes the tight makespan, which never exceeds z
    sol, decoded = fmilp.decode_compact(instance, fmilp.ModelPoint(values))
    if not core.validate_solution(instance, sol, decoded).ok:
        return None
    if math.ceil(result.mip_dual_bound - 1e-6) < decoded.makespan:
        return None
    return int(decoded.makespan)

"""Flexible job shop scheduling with DAG-shaped job precedences.

The package covers the full desk workflow: model an instance (`core`), build
solver-ready MILP files for it (`milp`, `emit`), get a fast feasible schedule
(`heuristic`), certify optimality at small scale (`exact`), generate seeded
benchmark instances (`generate`), and move everything through canonical JSON
formats and text reports (`io`, `cli`).
"""

__version__ = "0.1.0"

from .core import (
    FjsError,
    InadmissibleError,
    Instance,
    InstanceError,
    Schedule,
    Selection,
    SelectionError,
    SolutionPair,
    ValidationIssue,
    ValidationReport,
    disjunctive_pairs,
    tight_schedule,
    validate_solution,
)
from .exact import SolveResult, brute_force, solve_branch_and_bound
from .generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from .heuristic import earliest_start_heuristic, earliest_start_selection
from .io import parse_instance, parse_solution, serialize_instance, serialize_solution
from .milp import (
    MilpModel,
    ModelPoint,
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
)

__all__ = [
    "__version__",
    "FjsError",
    "InadmissibleError",
    "Instance",
    "InstanceError",
    "MilpModel",
    "ModelPoint",
    "Schedule",
    "Selection",
    "SelectionError",
    "SolutionPair",
    "SolveResult",
    "ValidationIssue",
    "ValidationReport",
    "YfjsParams",
    "DafjsParams",
    "brute_force",
    "build_compact_model",
    "build_machine_indexed_model",
    "check_feasible",
    "decode_compact",
    "decode_machine_indexed",
    "default_horizon",
    "disjunctive_pairs",
    "earliest_start_heuristic",
    "earliest_start_selection",
    "encode_compact",
    "encode_machine_indexed",
    "generate_dafjs",
    "generate_yfjs",
    "machine_indexed_gap_witness",
    "makespan_lower_bound",
    "parse_instance",
    "parse_solution",
    "serialize_instance",
    "serialize_solution",
    "solve_branch_and_bound",
    "tight_schedule",
    "validate_solution",
]

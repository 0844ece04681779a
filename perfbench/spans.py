"""Span tracing for the benchmark, installed from outside the fjs package.

`Tracer.install` wraps every public module-level function of each fjs layer
module and rebinds every reference to it that the package holds: module
attributes, names imported into other modules (``fjs.exact`` imports
``earliest_start_heuristic``), and function tables kept by value
(``fjs.cli.MODEL_BUILDERS``, ``MODEL_DECODERS``, ``WRITERS``).  After
rebinding it scans again and raises if any original function is still
reachable, so a layer cannot be missed silently.

A span is a tuple (name, start, end, parent): the ``layer.function`` name,
`time.perf_counter` readings, and the index of the enclosing span in the
same phase (-1 for none).  Spans stay in memory; the per-layer figures are
derived from them after the run:

* self time of a span = its duration minus the durations of its child spans;
* a layer's self time = the sum of the self times of its spans;
* a named function's time (`NAMED`) = the self time of its spans plus the
  self time of unnamed helper spans of the same layer nested under them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "io", "generate", "heuristic", "core", "milp", "emit", "exact")
"""The package modules timed as layers (``fjs.rng`` is internal to ``generate``)."""

NAMED = {
    "milp.build_compact_model": "milp.build_compact_s",
    "milp.build_machine_indexed_model": "milp.build_machine_indexed_s",
    "milp.check_feasible": "milp.check_feasible_s",
    "milp.encode_compact": "milp.encode_s",
    "milp.encode_machine_indexed": "milp.encode_s",
    "milp.decode_compact": "milp.decode_s",
    "milp.decode_machine_indexed": "milp.decode_s",
    "emit.write_lp": "emit.write_lp_s",
    "emit.write_mps": "emit.write_mps_s",
    "generate.generate_yfjs": "generate.generate_s",
    "generate.generate_dafjs": "generate.generate_s",
    "io.parse_instance": "io.parse_instance_s",
    "io.serialize_instance": "io.serialize_instance_s",
    "io.parse_solution": "io.parse_solution_s",
    "io.serialize_solution": "io.serialize_solution_s",
    "io.render_report": "io.render_report_s",
    "heuristic.earliest_start_heuristic": "heuristic.est_s",
    "core.tight_schedule": "core.tight_schedule_s",
    "core.validate_solution": "core.validate_solution_s",
    "exact.solve_branch_and_bound": "exact.bnb_s",
}
"""Functions with a time metric of their own, keyed by ``layer.function``."""


def _count_build(counts, args, kwargs, model) -> None:
    counts["milp.rows"] += len(model.constraints)
    counts["milp.terms"] += sum(len(row.terms) for row in model.constraints)


def _count_write(counts, args, kwargs, text) -> None:
    counts["emit.bytes"] += len(text) if text.isascii() else len(text.encode("utf-8"))


def _count_est(counts, args, kwargs, result) -> None:
    counts["heuristic.est_calls"] += 1


def _count_selection(counts, args, kwargs, result) -> None:
    sol = args[1] if len(args) > 1 else kwargs["sol"]
    counts["core.selection_pairs"] += len(sol.selection.pairs)


def _count_bnb(counts, args, kwargs, result) -> None:
    counts["exact.solves"] += 1
    counts["exact.nodes_all"] += result.nodes_explored
    if result.status == "optimal":
        counts["exact.solved"] += 1
        counts["exact.nodes_solved"] += result.nodes_explored
    else:  # stopped by the time limit: more nodes means a faster search
        counts["exact.nodes"] += result.nodes_explored
    if result.upper_bound:
        counts["exact.gap_sum"] += float((result.upper_bound - result.lower_bound) / result.upper_bound)


_BUILD = (_count_build, ("milp.rows", "milp.terms"))
_WRITE = (_count_write, ("emit.bytes",))
COUNTERS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "milp.build_compact_model": _BUILD,
    "milp.build_machine_indexed_model": _BUILD,
    "emit.write_lp": _WRITE,
    "emit.write_mps": _WRITE,
    "heuristic.earliest_start_heuristic": (_count_est, ("heuristic.est_calls",)),
    "core.tight_schedule": (_count_selection, ("core.selection_pairs",)),
    "exact.solve_branch_and_bound": (
        _count_bnb,
        ("exact.solves", "exact.nodes_all", "exact.nodes", "exact.solved", "exact.nodes_solved", "exact.gap_sum"),
    ),
}
"""Counts read from the arguments or result of a call after its span closes,
with the count names each one feeds."""


Span = tuple  # (name, start, end, parent)


@dataclass
class Phase:
    """One set-up or one pass: its wall time, spans and counts."""

    kind: str  # "setup" or "pass"
    start: float
    end: float = 0.0
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    excluded_s: float = 0.0  # time of COUNTERS and of the harness between items, excluded from cli.self_s


class Tracer:
    def __init__(self) -> None:
        self.phases: list[Phase] = []
        self._phase: Phase | None = None
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- phases ---------------------------------------------------------

    def begin(self, kind: str) -> None:
        self._phase = Phase(kind, perf_counter())
        self._stack = []

    def end(self) -> Phase:
        phase = self._phase
        phase.end = perf_counter()
        self.phases.append(phase)
        self._phase = None
        return phase

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` of harness work in the current phase out of cli.self_s."""
        self._phase.excluded_s += seconds

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name, (None,))[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self._phase
            if phase is None:
                return fn(*args, **kwargs)
            spans, stack = phase.spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(phase.counts, args, kwargs, result)
                phase.excluded_s += perf_counter() - end
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self, extra_namespaces: tuple = ()) -> None:
        """Wrap every public function of every layer and rebind all references."""
        modules = [importlib.import_module(f"fjs.{layer}") for layer in LAYERS]
        wrappers: dict[int, Callable] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [vars(m) for name, m in sorted(sys.modules.items()) if name == "fjs" or name.startswith("fjs.")]
        namespaces += [vars(ns) if not isinstance(ns, dict) else ns for ns in extra_namespaces]
        for namespace in namespaces:
            self._rebind(namespace, wrappers)
        leftovers = [where for namespace in namespaces for where in _references(namespace, wrappers)]
        if leftovers:
            self.uninstall()
            raise RuntimeError(f"unwrapped references to traced functions: {leftovers}")

    def _rebind(self, namespace: dict, wrappers: dict[int, Callable]) -> None:
        for key, value in list(namespace.items()):
            if id(value) in wrappers:
                self._set(namespace, key, value, wrappers[id(value)])
            elif isinstance(value, dict) and not key.startswith("__"):
                for inner_key, inner in list(value.items()):
                    if id(inner) in wrappers:
                        self._set(value, inner_key, inner, wrappers[id(inner)])

    def _set(self, table: dict, key, old, new) -> None:
        table[key] = new
        self._restore.append(lambda: table.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _references(namespace: dict, wrappers: dict[int, Callable]) -> list[str]:
    """Places in a namespace that still hold an unwrapped traced function."""
    found = []
    module = namespace.get("__name__", "?")
    for key, value in namespace.items():
        if key.startswith("__") and key.endswith("__"):
            continue
        candidates = [(key, value)]
        if isinstance(value, dict):
            candidates += [(f"{key}[{k!r}]", v) for k, v in value.items()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            candidates += [(f"{key}[...]", v) for v in value]
        elif inspect.isclass(value):
            candidates += [(f"{key}.{k}", v) for k, v in vars(value).items()]
        elif inspect.isfunction(value):
            candidates += [(f"{key} default", v) for v in (value.__defaults__ or ())]
            candidates += [(f"{key} default", v) for v in (value.__kwdefaults__ or {}).values()]
        found += [f"{module}.{where}" for where, v in candidates if id(v) in wrappers]
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _owners(spans: list[Span]) -> list[str | None]:
    """The named-function metric each span's self time counts towards."""
    owner: list[str | None] = []
    for name, _, _, parent in spans:
        metric = NAMED.get(name)
        if metric is None and parent >= 0 and _layer(spans[parent][0]) == _layer(name):
            metric = owner[parent]
        owner.append(metric)
    return owner


def phase_metrics(phase: Phase) -> dict[str, float]:
    """Per-layer self time, named-function time and counts of one phase."""
    own = self_times(phase.spans)
    values: dict[str, float] = defaultdict(float)
    for span, metric, seconds in zip(phase.spans, _owners(phase.spans), own):
        values[f"{_layer(span[0])}.self_s"] += seconds
        if metric is not None:
            values[metric] += seconds
    for name, count in phase.counts.items():
        values[name] += count
    if phase.kind == "pass":
        covered = sum(seconds for span, seconds in zip(phase.spans, own) if _layer(span[0]) != "cli")
        values["cli.self_s"] = (phase.end - phase.start) - covered - phase.excluded_s
    return values


DERIVED = {
    "emit.mib_per_s": ("emit.bytes", ("emit.write_lp_s", "emit.write_mps_s"), 2**-20),
    "exact.nodes_per_s": ("exact.nodes_all", ("exact.bnb_s",), 1),
    "exact.solved_share": ("exact.solved", ("exact.solves",), 1),
    "exact.gap": ("exact.gap_sum", ("exact.solves",), 1),
}
"""Ratio metrics: numerator, the metrics summed as denominator, and a scale.
A ratio's call count is its denominators' call count."""


def derive(values: dict[str, float]) -> None:
    """Add the ratio metrics of `DERIVED` to a defaultdict of phase values (0 where nothing was called)."""
    for ratio, (numerator, denominators, scale) in DERIVED.items():
        base = sum(values[name] for name in denominators)
        values[ratio] = values[numerator] * scale / base if base else 0.0


def call_counts(phases: list[Phase]) -> dict[str, int]:
    """Number of calls that fed each metric, over all phases."""
    calls: dict[str, int] = defaultdict(int)
    for phase in phases:
        for name, *_ in phase.spans:
            calls[f"{_layer(name)}.self_s"] += 1
            fed = COUNTERS.get(name, (None, ()))[1]
            if name in NAMED:
                fed += (NAMED[name],)
            for metric in fed:
                calls[metric] += 1
    for ratio, (_, denominators, _) in DERIVED.items():
        calls[ratio] = sum(calls.get(name, 0) for name in denominators)
    return dict(calls)

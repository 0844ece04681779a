"""The four benchmark workloads: corpus, set-up, timed pass and output checks.

Each workload drives fjs through the calls a user makes: `fjs.cli.main` for
`export`, `schedule` and `bnb`, and the library functions for `certify`,
which has no CLI command.  A workload object is used in this order:

    prepare()         once, untimed: reference data the checks need
    then, in each round:
    reset()           untimed: drops the previous round's files and models
    setup()           one or more times, each timed for setup_s
    run(item)         for each item of pass_order(), each timed for pass_s;
                      returns that item's raw output
    check(outputs)    untimed; counts attempted and failed output checks

Functions of the package are looked up as module attributes at call time,
so the span wrappers that `spans.Tracer` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import re
import shutil
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fjs import cli, core, generate, heuristic, milp
from fjs import io as fio
from fjs import emit

RECORDED = json.loads((Path(__file__).parent / "recorded.json").read_text(encoding="utf-8"))
"""Outputs of the default corpus (corpus seed 0), recorded at the seed commit."""

BNB_SOLVED_LIMIT = 8.0
"""Limit of the `bnb` instances the seed proves optimal: over three times the slowest
of them (1.7 s, and 2.6 s on a slow host), so a slowdown does not cap them."""

BNB_CAPPED_LIMIT = 1.0
"""Limit of the `bnb` instances the seed cannot close; their bounds at 1, 3 and 5 s
were identical, and their node count grows with the search's speed."""


@dataclass(frozen=True)
class Spec:
    """A generated instance: family, size parameters and reference seed."""

    family: str  # "yfjs": params are n, o, m, q; "dafjs": params are n, m
    params: tuple[int, ...]
    seed: int

    def generator_seed(self, corpus_seed: int) -> int:
        return self.seed + 1000 * corpus_seed

    def generate(self, corpus_seed: int):
        seed = self.generator_seed(corpus_seed)
        if self.family == "yfjs":
            return generate.generate_yfjs(generate.YfjsParams(*self.params, seed))
        return generate.generate_dafjs(generate.DafjsParams(*self.params, seed))

    def __str__(self) -> str:
        return "-".join((self.family, *map(str, self.params), f"s{self.seed}"))

    def cli_args(self, corpus_seed: int, out: Path) -> list[str]:
        keys = ("--n", "--o", "--m", "--q") if self.family == "yfjs" else ("--n", "--m")
        sizes = [text for key, value in zip(keys, self.params) for text in (key, str(value))]
        return ["generate", self.family, *sizes, "--seed", str(self.generator_seed(corpus_seed)), "--out", str(out)]


def yfjs(n: int, o: int, m: int, q: int, seed: int) -> Spec:
    return Spec("yfjs", (n, o, m, q), seed)


def dafjs(n: int, m: int, seed: int) -> Spec:
    return Spec("dafjs", (n, m), seed)


MODEL_CORPUS = (yfjs(10, 10, 10, 3, 1), dafjs(5, 10, 1))
SCHEDULE_CORPUS = (yfjs(100, 10, 10, 3, 1), yfjs(200, 10, 20, 3, 1), dafjs(60, 10, 1))
BNB_SOLVED = (yfjs(3, 4, 3, 2, 3), yfjs(3, 5, 4, 2, 2), yfjs(3, 5, 4, 2, 3), dafjs(3, 4, 2), dafjs(3, 5, 3))
BNB_CAPPED = (yfjs(4, 5, 5, 3, 1), dafjs(3, 4, 3))
BNB_CORPUS = BNB_SOLVED + BNB_CAPPED


def label(item) -> str:
    """A workload item's name in the run record."""
    return "/".join(map(str, item)) if isinstance(item, tuple) else str(item)


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `fjs <argv>` in process; return the exit code and what it printed."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def schedule_errors(instance_doc: dict, solution_doc: dict) -> list[str]:
    """Check a solution document against its instance document, without fjs.

    Verifies eligibility, precedence arcs, machine overlaps and the makespan
    with exact rational arithmetic.
    """
    times = {op["id"]: dict((k, t) for k, t in op["times"]) for op in instance_doc["operations"]}
    machine = dict((v, k) for v, k in solution_doc["assignment"])
    start = {v: Fraction(s) for v, s in solution_doc["starts"]}
    if set(machine) != set(times) or set(start) != set(times):
        return ["assignment or starts do not cover the operations"]
    errors = []
    finish = {}
    for v, k in machine.items():
        if k not in times[v]:
            return [f"operation {v} on ineligible machine {k}"]
        if start[v] < 0:
            errors.append(f"operation {v} starts at {start[v]}")
        finish[v] = start[v] + times[v][k]
    errors += [f"arc {u}->{v} violated" for u, v in instance_doc["arcs"] if start[v] < finish[u]]
    on_machine = defaultdict(list)
    for v, k in machine.items():
        on_machine[k].append((start[v], finish[v], v))
    for ops in on_machine.values():
        ops.sort()
        errors += [f"operations {a[2]} and {b[2]} overlap" for a, b in zip(ops, ops[1:]) if b[0] < a[1]]
    if Fraction(solution_doc["makespan"]) != max(finish.values(), default=0):
        errors.append(f"makespan {solution_doc['makespan']} is not the last completion")
    return errors


class Workload:
    name = ""
    corpus: tuple[Spec, ...] = ()

    def __init__(self, corpus_seed: int, workdir: Path) -> None:
        self.corpus_seed = corpus_seed
        self.dir = workdir / self.name
        self.recorded = RECORDED.get(self.name) if corpus_seed == 0 else None

    def items(self) -> list:
        return list(self.corpus)

    def pass_order(self, rng) -> list:
        order = self.items()
        rng.shuffle(order)
        return order

    def prepare(self) -> None:
        pass

    def time_limited(self, output) -> bool:
        """Whether the item that gave `output` ran until a time limit stopped it."""
        return False

    def reset(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def _write_instances(self) -> dict[Spec, Path]:
        paths = {}
        for spec in self.corpus:
            instance = spec.generate(self.corpus_seed)
            path = self.dir / f"{instance.name}.fjs.json"
            path.write_text(fio.serialize_instance(instance), encoding="utf-8")
            paths[spec] = path
        return paths


# ---------------------------------------------------------------------------
# export: fjs emit --L auto for {new, ooy} x {lp, mps}

EMIT_LINE = re.compile(r"(\d+) constraints, (\d+) variables \((\d+) binary\)")


def model_counts(instance_doc: dict) -> dict[str, tuple[int, int, int]]:
    """(rows, variables besides z, binaries) of both models, by the builders'
    docstring formulas, counted from the instance document alone."""
    eligible = {op["id"]: [k for k, _ in op["times"]] for op in instance_doc["operations"]}
    arcs = instance_doc["arcs"]
    n, a = len(eligible), len(arcs)
    phi = sum(len(ks) for ks in eligible.values())
    has_successor = {u for u, _ in arcs}
    phi_hat = sum(len(ks) for v, ks in eligible.items() if v not in has_successor)
    per_machine = defaultdict(int)
    for ks in eligible.values():
        for k in ks:
            per_machine[k] += 1
    beta = sum(c * (c - 1) for c in per_machine.values())
    machine_sets = [set(eligible[v]) for v in sorted(eligible)]
    shared = sum(1 for i, s in enumerate(machine_sets) for t in machine_sets[i + 1:] if s & t)
    b = 2 * shared  # ordered pairs that share a machine
    return {
        "new": (2 * n + a + b + beta, n + phi + b, phi + b),
        "ooy": (n + a + phi_hat + 2 * phi + 2 * beta, 3 * phi + beta, phi + beta),
    }


def file_rows(data: bytes, fmt: str) -> int:
    """Number of constraint rows in an emitted LP or MPS file."""
    if fmt == "lp":
        body = data[data.index(b"\nSubject To\n") + 12 : data.index(b"\nBounds\n") + 1]
        return body.count(b"\n")
    body = data[data.index(b"\nROWS\n") + 6 : data.index(b"\nCOLUMNS\n") + 1]
    return body.count(b"\n") - 1  # the objective row


class Export(Workload):
    name = "export"
    corpus = MODEL_CORPUS

    def items(self) -> list:
        return [(spec, model, fmt) for spec in self.corpus for model in ("new", "ooy") for fmt in ("lp", "mps")]

    def prepare(self) -> None:
        self.expected_hash: dict[str, str] = dict(self.recorded["sha256"]) if self.recorded else {}
        self.counts: dict[Spec, dict] = {}
        for spec in self.corpus:
            instance = spec.generate(self.corpus_seed)
            self.counts[spec] = model_counts(json.loads(fio.serialize_instance(instance)))
            if self.recorded:
                continue
            _, sched = heuristic.earliest_start_heuristic(instance)
            horizon = milp.default_horizon(instance, sched.makespan)
            for model, build in (("new", milp.build_compact_model), ("ooy", milp.build_machine_indexed_model)):
                built = build(instance, horizon)
                for fmt, write in (("lp", emit.write_lp), ("mps", emit.write_mps)):
                    text = write(built).encode("utf-8")
                    self.expected_hash[f"{instance.name}-{model}.{fmt}"] = hashlib.sha256(text).hexdigest()

    def setup(self) -> None:
        self.instance_paths = self._write_instances()

    def run(self, item):
        spec, model, fmt = item
        src = self.instance_paths[spec]
        dst = self.dir / f"{src.name.removesuffix('.fjs.json')}-{model}.{fmt}"
        argv = ["emit", "--model", model, "--format", fmt, "--L", "auto", "--in", str(src), "--out", str(dst)]
        return (spec, model, fmt, dst, *call_cli(argv))

    def check(self, outputs: list, checks: Checks) -> None:
        for spec, model, fmt, dst, code, stdout in outputs:
            checks.expect(code == 0, f"{dst.name}: exit code {code}")
            data = dst.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            checks.expect(digest == self.expected_hash.get(dst.name), f"{dst.name}: sha256 {digest[:12]} differs")
            rows, variables, binaries = self.counts[spec][model]
            match = EMIT_LINE.search(stdout)
            printed = tuple(map(int, match.groups())) if match else None
            checks.expect(printed == (rows, variables, binaries), f"{dst.name}: counts {printed} != {(rows, variables, binaries)}")
            checks.expect(file_rows(data, fmt) == rows, f"{dst.name}: file rows differ from {rows}")


# ---------------------------------------------------------------------------
# certify: encode, check, decode and validate the EST point of both models


class Certify(Workload):
    name = "certify"
    corpus = MODEL_CORPUS
    encoders = {"new": "encode_compact", "ooy": "encode_machine_indexed"}
    decoders = {"new": "decode_compact", "ooy": "decode_machine_indexed"}

    def items(self) -> list:
        return [(spec, model) for spec in self.corpus for model in ("new", "ooy")]

    def reset(self) -> None:
        self.cases = None  # release the previous round's models untimed

    def setup(self) -> None:
        self.cases = None
        cases = {}
        for spec in self.corpus:
            instance = spec.generate(self.corpus_seed)
            sol, sched = heuristic.earliest_start_heuristic(instance)
            horizon = milp.default_horizon(instance, sched.makespan)
            cases[spec, "new"] = (instance, sol, sched, milp.build_compact_model(instance, horizon))
            cases[spec, "ooy"] = (instance, sol, sched, milp.build_machine_indexed_model(instance, horizon))
        self.cases = cases

    def run(self, item):
        spec, model_kind = item
        instance, sol, sched, model = self.cases[spec, model_kind]
        point = getattr(milp, self.encoders[model_kind])(instance, sol)
        feasible = milp.check_feasible(model, point).ok
        sol2, sched2 = getattr(milp, self.decoders[model_kind])(instance, point)
        valid = core.validate_solution(instance, sol2, sched2).ok
        corrupted = milp.ModelPoint({**point.values, "z": sched.makespan - 1})
        rejected = not milp.check_feasible(model, corrupted).ok
        return (f"{instance.name}-{model_kind}", sched.makespan, feasible, sched2.makespan, valid, rejected)

    def check(self, outputs: list, checks: Checks) -> None:
        for label, makespan, feasible, decoded, valid, rejected in outputs:
            checks.expect(feasible, f"{label}: EST point reported infeasible")
            checks.expect(decoded == makespan, f"{label}: decoded makespan {decoded} != {makespan}")
            checks.expect(valid, f"{label}: decoded solution does not validate")
            checks.expect(rejected, f"{label}: point with z = makespan - 1 accepted")


# ---------------------------------------------------------------------------
# schedule: fjs generate, solve --method est, validate --sol, report


class Schedule(Workload):
    name = "schedule"
    corpus = SCHEDULE_CORPUS

    def setup(self) -> None:
        self.expected = {}
        for spec in self.corpus:
            instance = spec.generate(self.corpus_seed)
            self.expected[spec] = (instance.name, fio.serialize_instance(instance))

    def pass_order(self, rng) -> list:
        return super().pass_order(rng) + ["report"]  # the report reads every solution of the pass

    def run(self, item):
        if item == "report":
            report = self.dir / "all.report.txt"
            return ("report", report, call_cli(["report", "--dir", str(self.dir), "--out", str(report)]))
        stem = self.expected[item][0]
        inst, sol = self.dir / f"{stem}.fjs.json", self.dir / f"{stem}.sol.json"
        generated = call_cli(item.cli_args(self.corpus_seed, inst))
        solved = call_cli(["solve", "--method", "est", "--in", str(inst), "--out", str(sol)])
        validated = call_cli(["validate", "--in", str(inst), "--sol", str(sol)])
        return (item, stem, generated, solved, validated)

    def check(self, outputs: list, checks: Checks) -> None:
        makespans = {}
        for spec, stem, generated, solved, validated in outputs[:-1]:
            inst_text = (self.dir / f"{stem}.fjs.json").read_text(encoding="utf-8")
            checks.expect(generated[0] == 0 and inst_text == self.expected[spec][1], f"{stem}: generated file differs")
            checks.expect(solved[0] == 0, f"{stem}: solve exit code {solved[0]}")
            checks.expect(validated[0] == 0, f"{stem}: validate exit code {validated[0]}: {validated[1].strip()}")
            solution = json.loads((self.dir / f"{stem}.sol.json").read_text(encoding="utf-8"))
            errors = schedule_errors(json.loads(inst_text), solution)
            checks.expect(not errors, f"{stem}: {errors[:3]}")
            makespans[stem] = solution["makespan"]
            if self.recorded:
                expected = self.recorded["makespan"][stem]
                checks.expect(solution["makespan"] == expected, f"{stem}: makespan {solution['makespan']} != {expected}")
        _, report, (code, _) = outputs[-1]
        checks.expect(code == 0, f"report exit code {code}")
        rows = {}
        for line in report.read_text(encoding="utf-8").splitlines()[1:]:
            cells = re.split(r"\s{2,}", line)
            rows[cells[0]] = cells
        for stem, makespan in makespans.items():
            cells = rows.get(stem, [])
            ok = len(cells) == 6 and cells[2] == str(makespan) and cells[3] == "est"
            checks.expect(ok, f"report row for {stem}: {cells}")


# ---------------------------------------------------------------------------
# bnb: fjs solve --method bnb with a fixed per-instance limit


class BranchAndBound(Workload):
    name = "bnb"
    corpus = BNB_CORPUS

    def prepare(self) -> None:
        if self.recorded:
            self.optimum = dict(self.recorded["optimum"])
            return
        self.optimum = {}
        try:
            import highs
        except ImportError:  # scipy missing: lb <= ub and validation still run
            return
        for spec in self.corpus:
            instance = spec.generate(self.corpus_seed)
            value = highs.proven_optimum(instance, time_limit=60.0)
            if value is not None:
                self.optimum[instance.name] = value

    def setup(self) -> None:
        self.instance_paths = self._write_instances()

    def run(self, item):
        src = self.instance_paths[item]
        dst = self.dir / src.name.replace(".fjs.json", ".sol.json")
        limit = BNB_CAPPED_LIMIT if item in BNB_CAPPED else BNB_SOLVED_LIMIT
        argv = ["solve", "--method", "bnb", "--time-limit", str(limit), "--in", str(src), "--out", str(dst)]
        return (src, dst, *call_cli(argv))

    def time_limited(self, output) -> bool:
        return output[2] == 3  # fjs solve exits with 3 when the limit struck first

    def bounds(self, outputs: list) -> list[tuple[str, Fraction, Fraction, str]]:
        result = []
        for src, dst, code, stdout in outputs:
            meta = json.loads(dst.read_text(encoding="utf-8"))["meta"]
            lb, ub = Fraction(meta["lower_bound"]), Fraction(meta["upper_bound"])
            result.append((src.name.removesuffix(".fjs.json"), lb, ub, meta["status"]))
        return result

    def check(self, outputs: list, checks: Checks) -> None:
        for (src, dst, code, _), (name, lb, ub, status) in zip(outputs, self.bounds(outputs)):
            checks.expect(code == (0 if status == "optimal" else 3), f"{name}: exit code {code} with status {status}")
            solution = json.loads(dst.read_text(encoding="utf-8"))
            errors = schedule_errors(json.loads(src.read_text(encoding="utf-8")), solution)
            checks.expect(not errors, f"{name}: {errors[:3]}")
            checks.expect(Fraction(solution["makespan"]) == ub, f"{name}: makespan is not the upper bound {ub}")
            checks.expect(lb <= ub, f"{name}: lb {lb} > ub {ub}")
            optimum = self.optimum.get(name)
            if optimum is not None:
                checks.expect(lb <= optimum <= ub, f"{name}: optimum {optimum} outside [{lb};{ub}]")
            if status == "optimal":
                checks.expect(lb == ub and optimum in (None, ub), f"{name}: optimal {ub}, reference {optimum}")

    def summary(self, outputs: list) -> dict[str, float]:
        bounds = self.bounds(outputs)
        return {
            "solved_share": sum(status == "optimal" for *_, status in bounds) / len(bounds),
            "gap": sum(float((ub - lb) / ub) for _, lb, ub, _ in bounds) / len(bounds),
        }


WORKLOADS = {cls.name: cls for cls in (Export, Certify, Schedule, BranchAndBound)}

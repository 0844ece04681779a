"""Benchmark of the fjs package: four workloads timed through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload export --seed 1 --seconds 30 --trace 0

`--workload all` (the default) runs every workload in a fresh process of its
own.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
each metric by name with its unit.  `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps the package's layers with spans (see spans.py)
and reports the per-layer metrics instead.  `--seed` shuffles the order in
which each pass visits the corpus; `--corpus-seed` changes the instances
themselves (0, the default, is the corpus whose outputs recorded.json holds).
Times are reported in reference seconds, measured against a calibration
loop timed next to them (see `Clock`); the record file also holds the wall
times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("export", "certify", "schedule", "bnb")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "milp.build_compact_s": "s",
    "milp.build_machine_indexed_s": "s",
    "milp.rows": "count",
    "milp.terms": "count",
    "emit.write_lp_s": "s",
    "emit.write_mps_s": "s",
    "emit.bytes": "B",
    "emit.mib_per_s": "MiB/s",
    "milp.check_feasible_s": "s",
    "milp.encode_s": "s",
    "milp.decode_s": "s",
    "generate.generate_s": "s",
    "io.parse_instance_s": "s",
    "io.serialize_instance_s": "s",
    "io.parse_solution_s": "s",
    "io.serialize_solution_s": "s",
    "io.render_report_s": "s",
    "heuristic.est_s": "s",
    "heuristic.est_calls": "count",
    "core.tight_schedule_s": "s",
    "core.validate_solution_s": "s",
    "core.selection_pairs": "count",
    "exact.bnb_s": "s",
    "exact.nodes": "count",
    "exact.nodes_solved": "count",
    "exact.nodes_per_s": "1/s",
    "exact.solved_share": "share",
    "exact.gap": "share",
    "cli.self_s": "s",
    "io.self_s": "s",
    "generate.self_s": "s",
    "heuristic.self_s": "s",
    "core.self_s": "s",
    "milp.self_s": "s",
    "emit.self_s": "s",
    "exact.self_s": "s",
    "trace.overhead": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="shuffles the order of each pass")
    parser.add_argument("--corpus-seed", type=int, default=0, help="instance generator seed offset; 0 = recorded corpus")
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


MIN_ROUNDS = 3
"""Every run times at least this many passes, even past its time budget."""

SETUP_ROUND_S, SETUP_ROUND_REPS = 0.2, 20
"""A round repeats its set-up while the round's set-ups took under SETUP_ROUND_S
in total, at most SETUP_ROUND_REPS times."""

CALIBRATION_S = 0.007
"""The time of one `calibration()` at the usual speed of the host the benchmark
was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7): the unit of reported times."""


def calibration() -> int:
    """Fixed pure-Python work of the kind fjs does: small rationals, a dict,
    string building and a sort."""
    table, parts = {}, []
    for i in range(1, 2001):
        x = Fraction(i, 7) + Fraction(3, i % 11 + 1)
        table[i] = x
        parts.append(f"{i} {x.numerator} ")
    return len("".join(parts)) + min(table, key=table.__getitem__)


class Clock:
    """Converts measured wall times to reference seconds.

    Each piece of timed work is bracketed by calibrations, and its wall time
    is divided by the mean of the two calibration times and multiplied by
    CALIBRATION_S.  The host's speed drifts by up to 1.6x in phases of
    seconds to minutes; the calibration drifts with it, so the ratio stays.
    Garbage is collected before each calibration, so that the next timed
    work does not pay for the garbage of the work before it, as in a fresh
    `fjs` process.
    """

    def __init__(self) -> None:
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        gc.collect()
        start = time.perf_counter()
        calibration()
        return time.perf_counter() - start

    def scale(self, walls: list[float]) -> list[float]:
        """Calibrate after `walls` were measured; return them in reference seconds."""
        before, self.last = self.last, self._calibrate()
        unit = (before + self.last) / 2
        return [wall / unit * CALIBRATION_S for wall in walls]


def _phase(tracer, kind: str, action) -> float:
    """Time one call of `action`, as one traced phase when a tracer is given."""
    if tracer:
        tracer.begin(kind)
    start = time.perf_counter()
    action()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end()
    return elapsed


@dataclass
class Timings:
    setups: list[float] = field(default_factory=list)  # reference seconds
    setup_walls: list[float] = field(default_factory=list)
    items: dict = field(default_factory=lambda: defaultdict(list))  # item -> reference seconds in each pass
    item_walls: dict = field(default_factory=lambda: defaultdict(list))
    passes: list[float] = field(default_factory=list)  # wall time of each pass, its items summed

    def pass_s(self) -> float:
        """One pass in reference seconds: the sum over the corpus of each item's median."""
        return sum(statistics.median(times) for times in self.items.values())


def measure(workload, rng: random.Random, seconds: float, checks, summaries: list, tracer=None) -> Timings:
    """Run rounds of reset, set-up and one pass until at least MIN_ROUNDS
    have run and the next round would end after `seconds`.

    Set-ups and passes alternate so that both are sampled across the whole
    run.  The round's set-ups, and then each item of the pass on its own,
    are timed between calibrations (see `Clock`).  A solve stopped by its
    time limit lasts the limit whatever the host's speed, so its wall time
    is kept as it is.  Every pass is checked outside the timed regions.
    """
    timings = Timings()
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        workload.reset()
        clock = Clock()
        walls = []
        while len(walls) < SETUP_ROUND_REPS and sum(walls) < SETUP_ROUND_S:
            walls.append(_phase(tracer, "setup", workload.setup))
        timings.setup_walls += walls
        timings.setups += clock.scale(walls)
        order = workload.pass_order(rng)
        if tracer:
            tracer.begin("pass")
        outputs = []
        pass_wall = 0.0
        for item in order:
            item_start = time.perf_counter()
            outputs.append(workload.run(item))
            wall = time.perf_counter() - item_start
            scaled = clock.scale([wall])[0]
            if tracer:
                tracer.exclude(time.perf_counter() - item_start - wall)
            timings.items[item].append(wall if workload.time_limited(outputs[-1]) else scaled)
            timings.item_walls[item].append(wall)
            pass_wall += wall
        timings.passes.append(pass_wall)
        if tracer:
            tracer.end()
        workload.check(outputs, checks)
        if hasattr(workload, "summary"):
            summaries.append(workload.summary(outputs))
        del outputs
        now = time.perf_counter()
        if len(timings.passes) >= MIN_ROUNDS and now - started + (now - round_start) > seconds:
            return timings


def layer_metrics(tracer, overhead: float) -> dict[str, list[float]]:
    """Per-layer samples, one per traced pass: that pass plus the median set-up."""
    setups = [spans.phase_metrics(phase) for phase in tracer.phases if phase.kind == "setup"]
    passes = [spans.phase_metrics(phase) for phase in tracer.phases if phase.kind == "pass"]
    setup_part = {name: statistics.median(s.get(name, 0.0) for s in setups) for name in set().union(*setups)}
    samples: dict[str, list[float]] = defaultdict(list)
    for values in passes:
        one = defaultdict(float, setup_part)
        for name, value in values.items():
            one[name] += value
        spans.derive(one)
        one["trace.overhead"] = overhead
        for name in PER_LAYER:
            samples[name].append(one[name])
    return samples


def _summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def run_workload(args: argparse.Namespace) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.corpus_seed, OUT)
    workload.prepare()
    checks = workloads.Checks()
    rng = random.Random(args.seed)
    summaries: list[dict] = []
    record: dict = {"workload": args.workload, "seed": args.seed, "corpus_seed": args.corpus_seed,
                    "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
                    "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu_model()}
    if args.trace == 0:
        timings = measure(workload, rng, args.seconds, checks, summaries)
        values = {"setup_s": statistics.median(timings.setups), "pass_s": timings.pass_s(),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        record["setup_s"] = _summary(timings.setups)
        record["setup_wall_s"] = _summary(timings.setup_walls)
        record["pass_wall_s"] = _summary(timings.passes)
        record["items"] = {workloads.label(item): {"s": _summary(times), "wall_s": _summary(timings.item_walls[item])}
                           for item, times in timings.items.items()}
        for name, unit in END_TO_END.items():
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        for name in ("setup_s", "setup_wall_s", "pass_wall_s"):
            q = record[name]
            print(f"{args.workload} {name}: median {q['median']:.6g} s, quartiles {q['q1']:.6g} .. {q['q3']:.6g} "
                  f"({q['n']} samples)")
        units = END_TO_END
    else:
        plain = measure(workload, rng, args.seconds / 2, checks, summaries)
        tracer = spans.Tracer()
        tracer.install(extra_namespaces=(workloads,))
        try:
            traced = measure(workload, rng, args.seconds / 2, checks, summaries, tracer)
        finally:
            tracer.uninstall()
        samples = layer_metrics(tracer, traced.pass_s() / plain.pass_s() - 1)
        record["calls"] = spans.call_counts(tracer.phases)
        record["pass_s"] = {"untraced": plain.pass_s(), "traced": traced.pass_s()}
        record["layers"] = {name: _summary(values) for name, values in samples.items()}
        values = {name: statistics.median(samples[name]) for name in PER_LAYER}
        for name, unit in PER_LAYER.items():
            q = record["layers"][name]
            print(f"{args.workload} {name} = {q['median']:.6g} {unit} (median of {q['n']} traced passes; "
                  f"quartiles {q['q1']:.6g} .. {q['q3']:.6g})")
        units = PER_LAYER

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    shares = {"failed_share": checks.failed / checks.attempted}
    for key in summaries[0] if summaries else ():
        shares[key] = statistics.median(summary[key] for summary in summaries)
    for name, value in shares.items():
        print(f"{args.workload} {name} = {value:.6g} share")
    for message in checks.messages:
        print(f"{args.workload} check failed: {message}", file=sys.stderr)
    record.update(metrics=metrics, **shares, attempted=checks.attempted, failed=checks.failed,
                  failures=checks.messages)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"record-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the final line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--corpus-seed", str(args.corpus_seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fjs" / "__init__.py").is_file():
        print(f"perfbench: no fjs package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

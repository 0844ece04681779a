"""Tests of the benchmark harness itself: run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import workloads
from fjs import cli, core, exact, heuristic, milp

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SHOULD_MOVE = {
    "export": (
        "milp.build_compact_s", "milp.build_machine_indexed_s", "milp.rows", "milp.terms",
        "emit.write_lp_s", "emit.write_mps_s", "emit.bytes", "emit.mib_per_s", "cli.self_s",
    ),
    "certify": (
        "milp.build_compact_s", "milp.build_machine_indexed_s", "milp.rows", "milp.terms",
        "milp.check_feasible_s", "milp.encode_s", "milp.decode_s",
    ),
    "schedule": (
        "generate.generate_s", "io.parse_instance_s", "io.serialize_instance_s", "io.parse_solution_s",
        "io.serialize_solution_s", "io.render_report_s", "heuristic.est_s", "heuristic.est_calls",
        "core.tight_schedule_s", "core.validate_solution_s", "core.selection_pairs", "cli.self_s",
    ),
    "bnb": ("exact.bnb_s", "exact.nodes", "exact.nodes_solved", "exact.nodes_per_s"),
}
"""Per-layer metrics that must record calls on each workload (the README's table)."""


def one_pass(workload, order: list) -> list:
    """Reset, set up once and run the items of `order`, untimed."""
    workload.reset()
    workload.setup()
    return [workload.run(item) for item in order]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_records_every_layer_metric(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    record = json.loads((run.OUT / f"record-{workload}-trace1-seed3.json").read_text())
    missing = [name for name in SHOULD_MOVE[workload] if record["calls"].get(name, 0) == 0]
    assert not missing
    assert all(result["metrics"][name]["value"] > 0 for name in SHOULD_MOVE[workload])


def test_install_rebinds_every_reference():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exact.earliest_start_heuristic is heuristic.earliest_start_heuristic
        assert hasattr(heuristic.earliest_start_heuristic, "__wrapped_original__")
        for table in (cli.MODEL_BUILDERS, cli.MODEL_DECODERS, cli.WRITERS):
            assert all(hasattr(fn, "__wrapped_original__") for fn in table.values())
        instance = workloads.BNB_CORPUS[0].generate(0)
        tracer.begin("pass")
        milp.makespan_lower_bound(instance)
        phase = tracer.end()
        names_and_parents = [(span[0], span[3]) for span in phase.spans]
        assert names_and_parents == [("milp.makespan_lower_bound", -1), ("core.topological_order", 0)]
    finally:
        tracer.uninstall()
    assert not hasattr(cli.MODEL_BUILDERS["new"], "__wrapped_original__")
    assert not hasattr(core.tight_schedule, "__wrapped_original__")


def test_install_refuses_a_reference_it_cannot_rebind():
    held = {"frozen": (core.tight_schedule,)}
    with pytest.raises(RuntimeError, match="frozen"):
        spans.Tracer().install(extra_namespaces=(held,))
    assert not hasattr(core.tight_schedule, "__wrapped_original__")


def test_self_time_and_owner_attribution():
    phase = spans.Phase("pass", start=0.0, end=10.0)
    phase.spans = [
        ("cli.main", 0.0, 9.0, -1),
        ("heuristic.earliest_start_heuristic", 1.0, 5.0, 0),
        ("heuristic.tail_weights", 1.5, 2.5, 1),  # unnamed helper: counts for est_s
        ("core.tight_schedule", 3.0, 4.0, 1),
    ]
    values = spans.phase_metrics(phase)
    assert values["heuristic.est_s"] == pytest.approx(3.0)
    assert values["heuristic.self_s"] == pytest.approx(3.0)
    assert values["core.tight_schedule_s"] == pytest.approx(1.0)
    assert values["cli.self_s"] == pytest.approx(10.0 - 4.0)


def test_export_check_catches_a_flipped_lp_byte(tmp_path):
    workload = workloads.Export(0, tmp_path)
    workload.prepare()
    outputs = one_pass(workload, [(workloads.MODEL_CORPUS[0], "new", "lp")])
    checks = workloads.Checks()
    workload.check(outputs, checks)
    assert checks.attempted > 0 and checks.failed == 0, checks.messages
    path = outputs[0][3]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    workload.check(outputs, checks)
    assert checks.failed == 1 and "sha256" in checks.messages[0]


def test_certify_check_catches_an_accepted_corrupted_point(tmp_path, monkeypatch):
    workload = workloads.Certify(0, tmp_path)
    item = (workloads.MODEL_CORPUS[1], "new")
    checks = workloads.Checks()
    workload.check(one_pass(workload, [item]), checks)
    assert checks.failed == 0, checks.messages
    monkeypatch.setattr(milp, "check_feasible", lambda model, point, tol=0: core.ValidationReport(()))
    workload.check([workload.run(item)], checks)
    assert checks.failed == 1 and "accepted" in checks.messages[0]


def test_schedule_check_catches_a_wrong_makespan(tmp_path):
    workload = workloads.Schedule(0, tmp_path)
    outputs = one_pass(workload, [workloads.SCHEDULE_CORPUS[2], "report"])
    checks = workloads.Checks()
    workload.check(outputs, checks)
    assert checks.failed == 0, checks.messages
    workload.recorded = {"makespan": {name: value + 1 for name, value in workload.recorded["makespan"].items()}}
    workload.check(outputs, checks)
    assert checks.failed == 1 and "makespan" in checks.messages[0]


def test_bnb_check_catches_a_wrong_optimum(tmp_path):
    workload = workloads.BranchAndBound(0, tmp_path)
    workload.prepare()
    outputs = one_pass(workload, [workloads.BNB_CORPUS[0]])
    checks = workloads.Checks()
    workload.check(outputs, checks)
    assert checks.failed == 0, checks.messages
    name = workloads.BNB_CORPUS[0].generate(0).name
    workload.optimum[name] -= 1
    workload.check(outputs, checks)
    assert checks.failed >= 1 and name in checks.messages[0]


def test_bnb_nodes_are_split_by_status():
    counts = defaultdict(float)
    for status, nodes in (("optimal", 10), ("bound-pair", 300), ("optimal", 5)):
        spans._count_bnb(counts, (), {}, SimpleNamespace(status=status, nodes_explored=nodes, lower_bound=1,
                                                         upper_bound=2 if status != "optimal" else 1))
    assert (counts["exact.nodes"], counts["exact.nodes_solved"], counts["exact.nodes_all"]) == (300, 15, 315)
    counts["exact.bnb_s"] = 3.0
    spans.derive(counts)
    assert counts["exact.nodes_per_s"] == 105
    assert counts["exact.solved_share"] == pytest.approx(2 / 3)
    assert counts["exact.gap"] == pytest.approx(0.5 / 3)
    assert counts["emit.mib_per_s"] == 0.0  # no writes: no ratio


def test_clock_divides_by_the_calibrations_on_either_side(monkeypatch):
    calibrations = iter([0.010, 0.020, 0.005])
    monkeypatch.setattr(run.Clock, "_calibrate", lambda self: next(calibrations))
    clock = run.Clock()
    assert clock.scale([3.0, 1.5]) == pytest.approx([3.0 / 0.015 * run.CALIBRATION_S, 1.5 / 0.015 * run.CALIBRATION_S])
    assert clock.scale([1.0]) == pytest.approx([1.0 / 0.0125 * run.CALIBRATION_S])


def test_schedule_errors_finds_an_overlap():
    instance = {"operations": [{"id": 0, "times": [[1, 3]]}, {"id": 1, "times": [[1, 2]]}], "arcs": []}
    solution = {"assignment": [[0, 1], [1, 1]], "starts": [[0, 0], [1, 2]], "makespan": 4}
    assert workloads.schedule_errors(instance, solution) == ["operations 0 and 1 overlap"]


class SmallExport(workloads.Export):
    corpus = (workloads.yfjs(3, 4, 3, 2, 3),)


class SmallBranchAndBound(workloads.BranchAndBound):
    corpus = (workloads.yfjs(3, 4, 3, 2, 3),)


@pytest.mark.parametrize("workload_class", [SmallExport, SmallBranchAndBound, workloads.Schedule])
def test_other_corpus_seeds_check_without_recorded_data(tmp_path, workload_class):
    workload = workload_class(2, tmp_path)
    assert workload.recorded is None
    workload.prepare()
    order = workload.items()[:1] + (["report"] if workload_class is workloads.Schedule else [])
    checks = workloads.Checks()
    workload.check(one_pass(workload, order), checks)
    assert checks.attempted >= 4 and checks.failed == 0, checks.messages


def test_reference_optima_match_highs():
    pytest.importorskip("scipy")
    highs = pytest.importorskip("highs")
    recorded = workloads.RECORDED["bnb"]["optimum"]
    for spec in workloads.BNB_CORPUS:
        instance = spec.generate(0)
        assert highs.proven_optimum(instance) == recorded[instance.name]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "schedule", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

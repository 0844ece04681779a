"""End-to-end command-line flows and exit codes."""

from __future__ import annotations

import json

import pytest

from fjs import cli
from fjs.cli import main
from fjs.exact import solve_branch_and_bound
from fjs.generate import YfjsParams, generate_yfjs
from fjs.heuristic import earliest_start_heuristic
from fjs.io import parse_instance, parse_solution, serialize_instance, serialize_solution
from fjs.milp import encode_compact, encode_machine_indexed
from fjs.core import MachineAssignment, Selection, SolutionPair

from conftest import make_ex1

EX1_SOL = SolutionPair(MachineAssignment((1, 1, 2)), Selection(((0, 1), (2,))))


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.fjs.json"
    path.write_text(serialize_instance(make_ex1()))
    return path


def test_solve_bnb_prints_makespan(ex1_file, tmp_path, capsys):
    out = tmp_path / "ex1.sol.json"
    code = main(["solve", "--method", "bnb", "--in", str(ex1_file), "--out", str(out)])
    assert code == 0
    assert "mks 8" in capsys.readouterr().out
    sol, sched, meta = parse_solution(out.read_text(), make_ex1())
    assert sched.makespan == 8
    assert meta["status"] == "optimal"
    assert meta["lower_bound"] == 8


def test_solve_bnb_ignores_threads(tmp_path, capsys):
    from fjs.generate import YfjsParams, generate_yfjs

    inst = generate_yfjs(YfjsParams(3, 4, 3, 2, 2))
    path, out = tmp_path / "y.fjs.json", tmp_path / "y.sol.json"
    path.write_text(serialize_instance(inst))
    code = main(["solve", "--method", "bnb", "--threads", "4", "--in", str(path), "--out", str(out)])
    assert code == 0
    _, _, meta = parse_solution(out.read_text(), inst)
    assert meta["status"] == "optimal"
    assert meta["nodes_explored"] == solve_branch_and_bound(inst, 60).nodes_explored


def test_solve_est(ex1_file, tmp_path, capsys):
    out = tmp_path / "est.sol.json"
    assert main(["solve", "--method", "est", "--in", str(ex1_file), "--out", str(out)]) == 0
    assert "mks 8" in capsys.readouterr().out
    _, _, meta = parse_solution(out.read_text(), make_ex1())
    assert meta["elapsed"] > 0  # measured, not a placeholder


def test_solve_timeout_exit_code(tmp_path, capsys):
    from fjs.core import Instance

    inst = Instance.from_tables("trap", 2, {0: {1: 9, 2: 3}, 1: {2: 3}}, [])
    path = tmp_path / "trap.fjs.json"
    path.write_text(serialize_instance(inst))
    code = main(["solve", "--method", "bnb", "--time-limit", "1e-9", "--in", str(path)])
    assert code == 3
    assert "[" in capsys.readouterr().out  # bound pair printed


def test_validate_instance_ok(ex1_file, capsys):
    assert main(["validate", "--in", str(ex1_file)]) == 0
    assert "instance ok" in capsys.readouterr().out


def test_validate_cyclic_instance_fails(tmp_path, capsys):
    document = json.loads(serialize_instance(make_ex1()))
    document["arcs"] = [[0, 1], [1, 0]]
    path = tmp_path / "bad.fjs.json"
    path.write_text(json.dumps(document))
    assert main(["validate", "--in", str(path)]) == 1
    assert "cycle" in capsys.readouterr().err


@pytest.mark.parametrize("arcs", [5, [[True, 0]]])
def test_malformed_arcs_exit_one(tmp_path, capsys, arcs):
    document = json.loads(serialize_instance(make_ex1()))
    document["arcs"] = arcs
    path = tmp_path / "bad.fjs.json"
    path.write_text(json.dumps(document))
    for command in (["validate"], ["solve", "--method", "bnb"]):
        assert main([*command, "--in", str(path)]) == 1
        assert "bad-format" in capsys.readouterr().err


def test_a_huge_bad_arc_entry_gives_a_short_message(tmp_path, capsys):
    document = json.loads(serialize_instance(make_ex1()))
    document["arcs"] = [list(range(200_000))]
    path = tmp_path / "bad.fjs.json"
    path.write_text(json.dumps(document))
    assert main(["validate", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fjs: bad-format: arc entry [0, 1, 2, 3, 4, 5, 6, 7, ...] must be a pair of ids")
    assert len(err.encode()) < 1024


def test_validate_solution_roundtrip(ex1_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["solve", "--method", "bnb", "--in", str(ex1_file), "--out", str(out)])
    assert main(["validate", "--in", str(ex1_file), "--sol", str(out)]) == 0
    assert "solution ok" in capsys.readouterr().out


def test_validate_bad_solution_fails(ex1_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["solve", "--method", "bnb", "--in", str(ex1_file), "--out", str(out)])
    document = json.loads(out.read_text())
    starts = {v: s for v, s in document["starts"]}
    starts[1] = 2  # violates arc (0, 1)
    document["starts"] = [[v, starts[v]] for v in sorted(starts)]
    out.write_text(json.dumps(document))
    assert main(["validate", "--in", str(ex1_file), "--sol", str(out)]) == 1
    assert "precedence" in capsys.readouterr().err


def test_emit_lp_matches_golden(ex1_file, tmp_path, golden_dir, capsys):
    out = tmp_path / "ex1.lp"
    code = main([
        "emit", "--model", "new", "--format", "lp", "--L", "auto",
        "--in", str(ex1_file), "--out", str(out),
    ])
    assert code == 0
    assert "16 constraints" in capsys.readouterr().out
    assert out.read_text() == (golden_dir / "ex1-new.lp").read_text()


def test_emit_rejects_bad_horizon(ex1_file, tmp_path, capsys):
    code = main([
        "emit", "--model", "new", "--format", "lp", "--L", "banana",
        "--in", str(ex1_file), "--out", str(tmp_path / "x.lp"),
    ])
    assert code == 2
    assert "--L" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_emit_rejects_non_positive_horizon(ex1_file, tmp_path, capsys, horizon):
    code = main([
        "emit", "--model", "new", "--format", "lp", "--L", horizon,
        "--in", str(ex1_file), "--out", str(tmp_path / "x.lp"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("fjs: --L must be 'auto' or a positive rational")
    assert not (tmp_path / "x.lp").exists()


def test_emit_auto_horizon_of_an_empty_instance_is_a_usage_error(tmp_path, capsys):
    from fjs.core import Instance

    path = tmp_path / "empty.fjs.json"
    path.write_text(serialize_instance(Instance("empty", 1, (), (), ())))
    code = main([
        "emit", "--model", "ooy", "--format", "mps", "--L", "auto",
        "--in", str(path), "--out", str(tmp_path / "x.mps"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("fjs: --L auto")


def test_solve_rejects_non_positive_time_limit(ex1_file, capsys):
    code = main(["solve", "--method", "bnb", "--time-limit", "0", "--in", str(ex1_file)])
    assert code == 2
    assert capsys.readouterr().err == "fjs: --time-limit must be positive, got 0.0\n"


def test_report_rejects_a_solution_file_that_is_not_an_object(ex1_file, tmp_path, capsys):
    bad = tmp_path / "bad.sol.json"
    bad.write_text("[]")
    assert main(["validate", "--in", str(ex1_file), "--sol", str(bad)]) == 1
    expected = capsys.readouterr().err
    assert main(["report", "--dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == expected == "fjs: expected format 'fjs-solution/1'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format": "fjs-solution/1"}', "missing field 'assignment'"),
        (
            '{"format": "fjs-solution/1", "assignment": [], "starts": [], "makespan": 0}',
            "missing field 'instance'",
        ),
        (
            '{"format": "fjs-solution/1", "assignment": [], "starts": [], "makespan": 0, "instance": []}',
            "instance name [] is not a string",
        ),
        ('{"format": "fjs-solution/0", "instance": "ex1"}', "expected format 'fjs-solution/1'"),
        ("{", "line 1, column 2: Expecting property name enclosed in double quotes"),
    ],
    ids=["missing-field", "missing-instance", "list-instance", "wrong-format", "bad-json"],
)
def test_report_checks_a_solution_file_before_looking_up_its_instance(ex1_file, tmp_path, capsys, text, message):
    bad = tmp_path / "bad.sol.json"
    bad.write_text(text)
    assert main(["validate", "--in", str(ex1_file), "--sol", str(bad)]) == 1
    expected = capsys.readouterr().err
    assert main(["report", "--dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == expected == f"fjs: {message}\n"


def test_report_reads_and_decodes_each_solution_file_once(ex1_file, tmp_path, monkeypatch):
    sol_path = tmp_path / "ex1.sol.json"
    assert main(["solve", "--method", "est", "--in", str(ex1_file), "--out", str(sol_path)]) == 0
    sol_text = sol_path.read_text()
    reads, decodes = [], []
    read_text, loads = type(sol_path).read_text, json.loads

    def counting_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    def counting_loads(text, *args, **kwargs):
        decodes.append(text == sol_text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(type(sol_path), "read_text", counting_read_text)
    monkeypatch.setattr(json, "loads", counting_loads)
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path / "out.txt")]) == 0
    assert reads.count("ex1.sol.json") == 1
    assert decodes.count(True) == 1


def test_decode_both_models(ex1_file, tmp_path, capsys):
    ex1 = make_ex1()
    for model_name, encoder in (("new", encode_compact), ("ooy", encode_machine_indexed)):
        point = encoder(ex1, EX1_SOL)
        point_path = tmp_path / f"point-{model_name}.json"
        point_path.write_text(json.dumps({k: v for k, v in point.values.items()}, default=str))
        out = tmp_path / f"decoded-{model_name}.sol.json"
        code = main([
            "decode", "--model", model_name, "--in", str(ex1_file),
            "--point", str(point_path), "--out", str(out),
        ])
        assert code == 0
        _, sched, _ = parse_solution(out.read_text(), ex1)
        assert sched.makespan == 8


def test_decode_infeasible_point_fails(ex1_file, tmp_path, capsys):
    ex1 = make_ex1()
    point = encode_compact(ex1, EX1_SOL)
    values = dict(point.values)
    values["y_0_1"], values["y_1_0"] = 0, 1  # cycle with arc (0, 1)
    point_path = tmp_path / "bad-point.json"
    point_path.write_text(json.dumps(values))
    code = main([
        "decode", "--model", "new", "--in", str(ex1_file),
        "--point", str(point_path), "--out", str(tmp_path / "out.sol.json"),
    ])
    assert code == 1
    assert "cycle" in capsys.readouterr().err


def test_generate_solve_report_flow(tmp_path, capsys):
    inst_path = tmp_path / "g.fjs.json"
    assert main(["generate", "yfjs", "--n", "2", "--o", "3", "--m", "2", "--q", "2",
                 "--seed", "5", "--out", str(inst_path)]) == 0
    instance = parse_instance(inst_path.read_text())
    sol_path = tmp_path / "g.sol.json"
    assert main(["solve", "--method", "bnb", "--in", str(inst_path), "--out", str(sol_path)]) == 0
    report_path = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(report_path)]) == 0
    report = report_path.read_text()
    assert report.startswith("Instance")
    assert instance.name in report


def test_report_runs_est_once_per_instance(tmp_path, monkeypatch):
    instance = generate_yfjs(YfjsParams(3, 4, 3, 2, 2))
    (tmp_path / "y.fjs.json").write_text(serialize_instance(instance))
    est_sol, est_sched = earliest_start_heuristic(instance)
    result = solve_branch_and_bound(instance)
    for method, sol, sched, status in (
        ("est", est_sol, est_sched, "feasible"),
        ("bnb", result.solution, result.schedule, "optimal"),
    ):
        meta = {"method": method, "status": status, "elapsed": 0.25}
        (tmp_path / f"y-{method}.sol.json").write_text(serialize_solution(instance, sol, sched, meta))
    calls = []

    def counting_est(inst):
        calls.append(inst.name)
        return earliest_start_heuristic(inst)

    monkeypatch.setattr(cli, "earliest_start_heuristic", counting_est)
    out = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert calls == [instance.name]
    assert out.read_text() == (
        "Instance             Size     EST  Method  mks              CPU(s)\n"
        "YFJS-n3-o4-m3-q2-s2  3, 4, 3  692  bnb     649              0.25\n"
        "YFJS-n3-o4-m3-q2-s2  3, 4, 3  692  est     [692;692] 0.00%  0.25\n"
    )


def test_cli_flow_never_builds_the_pair_view(tmp_path, monkeypatch, capsys):
    # Selection.pairs is quadratic in the operations per machine; the
    # generate-solve-validate-report flow must not touch it.
    def refuse(self):
        raise AssertionError("Selection.pairs built")

    monkeypatch.setattr(Selection, "pairs", property(refuse))
    with pytest.raises(AssertionError):
        EX1_SOL.selection.pairs
    inst_path, sol_path = tmp_path / "big.fjs.json", tmp_path / "big.sol.json"
    assert main(["generate", "yfjs", "--n", "30", "--o", "10", "--m", "10", "--q", "3",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    assert "(300 operations)" in capsys.readouterr().out
    assert main(["solve", "--method", "est", "--in", str(inst_path), "--out", str(sol_path)]) == 0
    assert main(["validate", "--in", str(inst_path), "--sol", str(sol_path)]) == 0
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path / "out.report.txt")]) == 0
    assert "solution ok" in capsys.readouterr().out


def test_generate_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.fjs.json", tmp_path / "b.fjs.json"
    args = ["generate", "dafjs", "--n", "2", "--m", "5", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "--in", "/nonexistent/x.fjs.json"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--method", "nope", "--in", "x"])
    assert err.value.code == 2


def test_version_mentions_formats(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert "fjs-instance/1" in out and "fjs-solution/1" in out


@pytest.mark.parametrize("name", [None, ["a"]])
def test_instance_with_a_non_string_name_exits_1(tmp_path, capsys, name):
    document = json.loads(serialize_instance(make_ex1()))
    document["name"] = name
    path = tmp_path / "bad.fjs.json"
    path.write_text(json.dumps(document))
    assert main(["validate", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"fjs: bad-format: instance name {name!r} is not a string\n"


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # json.loads raises RecursionError on it


@pytest.mark.parametrize("command", ["validate-in", "validate-sol", "decode-point", "report"])
def test_json_nested_too_deeply_exits_1(ex1_file, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv, message = {
        "validate-in": (["validate", "--in", str(deep)], "syntax: JSON nested too deeply to decode"),
        "validate-sol": (["validate", "--in", str(ex1_file), "--sol", str(deep)], "JSON nested too deeply to decode"),
        "decode-point": (
            ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(deep), "--out", str(tmp_path / "o")],
            "JSON nested too deeply to decode",
        ),
        "report": (["report", "--dir", str(tmp_path)], "JSON nested too deeply to decode"),
    }[command]
    if command == "report":
        deep.rename(tmp_path / "deep.sol.json")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"fjs: {message}\n"


def test_bad_json_point_file_exits_1(ex1_file, tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text("{")
    argv = ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(point), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "fjs: line 1, column 2: Expecting property name enclosed in double quotes\n"

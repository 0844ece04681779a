"""End-to-end command-line flows and exit codes."""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import shlex
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fjs import cli, exact, heuristic
from fjs.cli import main
from fjs.exact import solve_branch_and_bound
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic, earliest_start_selection
from fjs.io import number_to_json, parse_instance, parse_solution, serialize_instance, serialize_solution
from fjs.milp import default_horizon, encode_compact, encode_machine_indexed
from fjs.core import Instance, Schedule, Selection, SolutionPair, _echo, tight_schedule

from conftest import make_ex1, small_random_instance

EX1_SOL = SolutionPair((1, 1, 2), Selection(((0, 1), (2,))))


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


def test_solve_est_prints_its_makespan_when_the_bound_is_lower(tmp_path, capsys):
    # Only bound-pair opens the summary cell and exits 3; est keeps a gap to its bound and is feasible.
    inst = generate_yfjs(YfjsParams(2, 3, 2, 2, 1))
    path, out = tmp_path / "y.fjs.json", tmp_path / "y.sol.json"
    path.write_text(serialize_instance(inst))
    assert main(["solve", "--method", "est", "--in", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "YFJS-n2-o3-m2-q2-s1: mks 365 (feasible)\n"
    _, _, meta = parse_solution(out.read_text(), inst)
    assert {key: meta[key] for key in meta if key != "elapsed"} == {
        "lower_bound": 294,
        "upper_bound": 365,
        "method": "est",
        "status": "feasible",
    }


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


@pytest.mark.parametrize("arcs, code", [(5, "bad-format"), ([[True, 0]], "dangling-arc")])
def test_malformed_arcs_exit_one(tmp_path, capsys, arcs, code):
    # a list that is not of pairs is the document's shape; a bool end is an arc's value
    document = json.loads(serialize_instance(make_ex1()))
    document["arcs"] = arcs
    path = tmp_path / "bad.fjs.json"
    path.write_text(json.dumps(document))
    for command in (["validate"], ["solve", "--method", "bnb"]):
        assert main([*command, "--in", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"fjs: {code}: ")


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
    summary = {
        "new": "wrote EX1-compact: 16 constraints, 11 variables (8 binary), L = 8\n",
        "ooy": "wrote EX1-machine-indexed: 24 constraints, 16 variables (8 binary), L = 8\n",
    }
    for model in ("new", "ooy"):
        for fmt in ("lp", "mps"):
            out = tmp_path / f"ex1-{model}.{fmt}"
            code = main([
                "emit", "--model", model, "--format", fmt, "--L", "auto",
                "--in", str(ex1_file), "--out", str(out),
            ])
            assert code == 0
            assert capsys.readouterr().out == summary[model]
            assert out.read_text() == (golden_dir / out.name).read_text()


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


@pytest.mark.parametrize(
    "horizon", ["1e100000", "1e-100000", "12.5", "1e3", " 7", "1/0", "-0", pytest.param("x" * 200, id="x*200")]
)
def test_emit_reads_the_horizon_with_the_number_grammar_of_files(ex1_file, tmp_path, capsys, horizon):
    code = main([
        "emit", "--model", "new", "--format", "lp", "--L", horizon,
        "--in", str(ex1_file), "--out", str(tmp_path / "x.lp"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"fjs: --L must be 'auto' or a positive rational, got {_echo(horizon)}\n"
    assert not (tmp_path / "x.lp").exists()


@pytest.mark.parametrize("horizon, shown", [("20", "20"), ("007", "7"), ("41/2", "41/2"), ("40/2", "20")])
def test_emit_accepts_integer_and_fraction_horizons(ex1_file, tmp_path, capsys, horizon, shown):
    code = main([
        "emit", "--model", "new", "--format", "lp", "--L", horizon,
        "--in", str(ex1_file), "--out", str(tmp_path / "x.lp"),
    ])
    assert code == 0
    assert capsys.readouterr().out.endswith(f", L = {shown}\n")


@pytest.mark.parametrize("model, fmt", [("new", "lp"), ("new", "mps"), ("ooy", "lp"), ("ooy", "mps")])
def test_emit_horizon_parts_hold_at_most_max_digits(ex1_file, tmp_path, capsys, model, fmt):
    out = tmp_path / f"x.{fmt}"
    for horizon in ("1/" + "9" * 1001, "1/" + "9" * 4300):
        argv = ["emit", "--model", model, "--format", fmt, "--L", horizon, "--in", str(ex1_file), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"fjs: --L must be 'auto' or a positive rational, got {_echo(horizon)}\n"
        assert not out.exists()
    horizon = "9" * 1000 + "/" + str(10**999 + 3)  # parts of 1000 digits, in lowest terms, above every EX1 time
    argv = ["emit", "--model", model, "--format", fmt, "--L", horizon, "--in", str(ex1_file), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f", L = {horizon}\n")


def test_emit_ooy_refuses_a_horizon_below_a_time(tmp_path, capsys):
    # The EST makespan of YFJS-n2-o2-m3-q3-s6 is 172, below the time 187 of operation 2 on machine 3: at L = 172
    # the row comp_2_3 would force operation 2 onto machine 3.
    path = tmp_path / "y.fjs.json"
    path.write_text(serialize_instance(generate_yfjs(YfjsParams(2, 2, 3, 3, 6))))
    out = tmp_path / "y.lp"
    argv = ["emit", "--model", "ooy", "--format", "lp", "--in", str(path), "--out", str(out), "--L"]
    assert main([*argv, "172"]) == 2
    assert capsys.readouterr().err == (
        "fjs: --L is too small for the ooy model: horizon L = 172 is below the time 187 of operation 2 on machine 3\n"
    )
    assert not out.exists()
    for horizon in ("auto", "187"):
        assert main([*argv, horizon]) == 0
        assert capsys.readouterr().out.endswith(", L = 187\n")
    argv[2] = "new"
    assert main([*argv, "172"]) == 0  # the compact model takes any horizon of at least the makespan


def test_validate_start_parts_hold_at_most_max_digits(ex1_file, tmp_path, capsys):
    ex1 = make_ex1()
    solution = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    sol_path = tmp_path / "ex1.sol.json"
    argv = ["validate", "--in", str(ex1_file), "--sol", str(sol_path)]
    for start in ("30000000000/" + "9" * 4300, "30000000000/" + "9" * 1001):
        solution["starts"][2][1] = start
        sol_path.write_text(json.dumps(solution))
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"fjs: start of operation 2: {_echo(start)} has a part of more than 1000 digits\n"
        )
    # at the limit the file is read, and the messages print sums of up to 2001 digits
    solution["starts"][2][1] = "30000000000/" + "9" * 1000
    sol_path.write_text(json.dumps(solution))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in err] == [" precedence", " makespan"]


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


@pytest.mark.parametrize("method", ["est", "bnb"])
@pytest.mark.parametrize("limit, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
def test_solve_rejects_non_positive_time_limit(ex1_file, capsys, method, limit, shown):
    code = main(["solve", "--method", method, "--time-limit", limit, "--in", str(ex1_file)])
    assert code == 2
    assert capsys.readouterr().err == f"fjs: --time-limit must be positive, got {shown}\n"


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


def test_decode_refuses_a_point_file_that_is_not_an_object(ex1_file, tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(list(encode_compact(make_ex1(), EX1_SOL).values)))
    argv = ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(point), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "fjs: point file must be a JSON object of variable values\n"
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("name, shown", [("a\ud800b", "a\\ud800b"), ("a\nb", "a\\nb")], ids=["surrogate", "newline"])
def test_a_name_that_is_not_printable_is_shown_escaped(tmp_path, capsys, name, shown):
    # Such a name can come from a valid file, as "a\ud800b" or "a\nb"; every
    # summary line, report row and model header shows it on one line that a
    # UTF-8 stream takes, and the files that carry it as JSON keep it exact.
    instance = replace(make_ex1(), name=name)
    inst = tmp_path / "x.fjs.json"
    inst.write_text(serialize_instance(instance))
    files = {fmt: tmp_path / f"x.{fmt}" for fmt in ("lp", "mps")}
    point = tmp_path / "point.json"
    point.write_text(json.dumps(encode_compact(instance, EX1_SOL).values))
    runs = [
        (["solve", "--method", "est", "--in", str(inst), "--out", str(tmp_path / "x.sol.json")], "mks 8 (feasible)"),
        (["solve", "--method", "bnb", "--in", str(inst), "--out", str(tmp_path / "b.sol.json")], "mks 8 (optimal)"),
        (["emit", "--model", "new", "--format", "lp", "--in", str(inst), "--out", str(files["lp"])], "-compact: "),
        (["emit", "--model", "ooy", "--format", "mps", "--in", str(inst), "--out", str(files["mps"])], "-machine-indexed: "),
        (["validate", "--in", str(inst)], "instance ok"),
        (["validate", "--in", str(inst), "--sol", str(tmp_path / "x.sol.json")], "solution ok"),
        (["decode", "--model", "new", "--in", str(inst), "--point", str(point), "--out", str(tmp_path / "d.sol.json")],
         "decoded point"),
        (["report", "--dir", str(tmp_path)], "est"),
    ]
    for argv, summary in runs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert shown in out and summary in out, argv
    assert out.count(shown) == 3  # the report: the est, bnb and decoded rows
    lp, mps = (path.read_text().splitlines() for path in files.values())
    assert lp[:2] == [f"\\ Problem: {shown}-compact", "Minimize"]
    assert mps[:2] == [f"NAME          {shown}-machine-indexed", "ROWS"]
    assert parse_solution((tmp_path / "d.sol.json").read_text(), instance)[1].makespan == 8


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
        return earliest_start_selection(inst)

    monkeypatch.setattr(cli, "earliest_start_selection", counting_est)
    out = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert calls == [instance.name]
    assert out.read_text() == (
        "Instance             Size     EST  Method  mks              CPU(s)\n"
        "YFJS-n3-o4-m3-q2-s2  3, 4, 3  692  bnb     649              0.25\n"
        "YFJS-n3-o4-m3-q2-s2  3, 4, 3  692  est     [692;692] 0.00%  0.25\n"
    )


def test_report_and_emit_auto_build_no_schedule(tmp_path, monkeypatch, capsys):
    # The report's EST column and emit --L auto read only EST's makespan.
    instance = generate_yfjs(YfjsParams(3, 4, 3, 2, 2))
    path = tmp_path / "y.fjs.json"
    path.write_text(serialize_instance(instance))
    sol, sched = earliest_start_heuristic(instance)
    meta = {"method": "est", "status": "feasible", "elapsed": 0.25}
    (tmp_path / "y.sol.json").write_text(serialize_solution(instance, sol, sched, meta))

    def refuse(*args):
        raise AssertionError("tight_schedule called")

    monkeypatch.setattr(heuristic, "tight_schedule", refuse)
    out = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split()[4:6] == [str(sched.makespan), "est"]
    argv = ["emit", "--model", "new", "--format", "lp", "--L", "auto", "--in", str(path), "--out", str(tmp_path / "y.lp")]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f", L = {default_horizon(instance, sched.makespan)}\n")


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


@pytest.mark.parametrize(
    "argv, instance",
    [
        (["yfjs", "--n", "2", "--o", "5", "--m", "4", "--q", "3"], generate_yfjs(YfjsParams(2, 5, 4, 3, 7))),
        (["dafjs", "--n", "2", "--m", "5"], generate_dafjs(DafjsParams(2, 5, 7))),
    ],
    ids=["yfjs", "dafjs"],
)
def test_generate_writes_the_generators_instance(tmp_path, capsys, argv, instance):
    # n, o, m and q all differ, so an argument passed to the wrong parameter changes the file
    out = tmp_path / "g.fjs.json"
    assert main(["generate", *argv, "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == serialize_instance(instance)


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


HUGE_INT = "9" * 5000  # past the interpreter's 4,300-digit limit on int string conversion


@pytest.mark.parametrize("command", ["validate-in", "validate-sol", "decode-point"])
def test_huge_integer_literal_exits_1(ex1_file, tmp_path, capsys, command):
    ex1 = make_ex1()
    instance = json.loads(ex1_file.read_text())
    instance["operations"][0]["times"][0][1] = "HUGE"
    solution = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    solution["makespan"] = "HUGE"
    document = {"validate-in": instance, "validate-sol": solution, "decode-point": {"z": "HUGE"}}[command]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(document).replace('"HUGE"', HUGE_INT))
    argv = {
        "validate-in": ["validate", "--in", str(huge)],
        "validate-sol": ["validate", "--in", str(ex1_file), "--sol", str(huge)],
        "decode-point": [
            "decode", "--model", "new", "--in", str(ex1_file), "--point", str(huge), "--out", str(tmp_path / "o"),
        ],
    }[command]
    prefix = "syntax: " if command == "validate-in" else ""
    assert main(argv) == 1
    assert capsys.readouterr().err == f"fjs: {prefix}JSON integer literal too long to decode\n"


def _write_ex1_solution(directory, meta, shift=0):
    """EX1 and a solution file of it in ``directory``: the tight schedule with
    every start moved by ``shift``, so its makespan is 8 + shift, and ``meta``."""
    ex1 = make_ex1()
    tight = tight_schedule(ex1, EX1_SOL)
    sched = Schedule(tuple(start + shift for start in tight.start), tight.makespan + shift)
    (directory / "ex1.fjs.json").write_text(serialize_instance(ex1))
    (directory / "ex1.sol.json").write_text(serialize_solution(ex1, EX1_SOL, sched, meta))


def _both_commands(capsys, directory, stem):
    """The exit code and stderr of ``fjs validate --sol`` on ``stem``'s files in
    ``directory``, then those of ``fjs report`` over the directory."""
    validate = ["validate", "--in", str(directory / f"{stem}.fjs.json"), "--sol", str(directory / f"{stem}.sol.json")]
    report = ["report", "--dir", str(directory), "--out", str(directory / "out.report.txt")]
    return [(main(argv), capsys.readouterr().err) for argv in (validate, report)]


BAD_ELAPSED = "elapsed: expected a finite non-negative number of seconds, got "
HUGE_FRACTION = "1" + "0" * 400 + "/3"  # non-integral and beyond the range of a float
TINY_FRACTION = "1/1" + "0" * 900  # non-integral, and a float shows it as 0


@pytest.mark.parametrize(
    "meta, message",
    [
        # parse_solution refuses these, so both commands exit 1 with the same message
        ({"elapsed": "abc"}, BAD_ELAPSED + "'abc'"),
        ({"elapsed": [1]}, BAD_ELAPSED + "[1]"),
        ({"elapsed": None}, BAD_ELAPSED + "None"),
        ({"elapsed": True}, BAD_ELAPSED + "True"),
        ({"elapsed": float("nan")}, BAD_ELAPSED + "nan"),
        ({"elapsed": -1}, BAD_ELAPSED + "-1"),
        ({"elapsed": 10**400}, BAD_ELAPSED + "1" + "0" * 37 + "..." + "0" * 39),
        ({"lower_bound": 12.7}, "lower_bound: expected int or 'a/b' string, got 12.7"),
        ({"upper_bound": 8.0}, "upper_bound: expected int or 'a/b' string, got 8.0"),
    ],
    ids=[
        "elapsed-str", "elapsed-list", "elapsed-null", "elapsed-bool", "elapsed-nan", "elapsed-negative",
        "elapsed-overflow", "float-lower", "float-upper",
    ],
)
def test_report_rejects_bad_meta_values(tmp_path, capsys, meta, message):
    _write_ex1_solution(tmp_path, {"method": "est", "status": "feasible", **meta})
    assert _both_commands(capsys, tmp_path, "ex1") == [(1, f"fjs: {message}\n")] * 2


@pytest.mark.parametrize(
    "meta, shift, row",
    [
        # files whose claims hold, with a bound or gap that a float cannot show: the report writes it exactly
        (
            {"lower_bound": HUGE_FRACTION},
            10**400,
            f"[{HUGE_FRACTION};{10**400 + 8}] 66.67%",
        ),
        (
            {"status": "optimal", "lower_bound": HUGE_FRACTION, "upper_bound": HUGE_FRACTION},
            Fraction(10**400, 3) - 8,
            HUGE_FRACTION,
        ),
        ({"lower_bound": TINY_FRACTION}, 0, f"[{TINY_FRACTION};8] 100.00%"),
        ({"lower_bound": -(10**400)}, 0, f"[-1{'0' * 400};8] 125{'0' * 396}100%"),  # gap (8 + 10**400) / 8
        (
            {"lower_bound": -8 * 10**307},  # a gap of 1e307, which times 100 overflows
            0,
            f"[-8{'0' * 307};8] 1{'0' * 306}100%",
        ),
    ],
    ids=[
        "lower-fraction-overflow", "optimal-upper-overflow", "lower-underflow", "gap-overflow", "gap-times-100-overflow",
    ],
)
def test_report_writes_a_value_a_float_cannot_show_exactly(tmp_path, capsys, meta, shift, row):
    _write_ex1_solution(tmp_path, {"method": "est", "status": "feasible", **meta}, shift)
    assert _both_commands(capsys, tmp_path, "ex1") == [(0, ""), (0, "")]
    assert (tmp_path / "out.report.txt").read_text().splitlines()[1] == f"EX1       1, 3, 2  8    est     {row}  0.00"


FEASIBLE_NEEDS = "status 'feasible' needs lower_bound <= upper_bound"
OPTIMAL_NEEDS = "status 'optimal' needs lower_bound = upper_bound"
BOUND_PAIR_NEEDS = "status 'bound-pair' needs lower_bound < upper_bound"


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"lower_bound": 10**400}, f"{FEASIBLE_NEEDS}, got {_echo(10**400)} and 8"),
        ({"status": "optimal", "upper_bound": TINY_FRACTION}, f"upper_bound {_echo(TINY_FRACTION)} is not the makespan 8"),
        ({"upper_bound": TINY_FRACTION}, f"upper_bound {_echo(TINY_FRACTION)} is not the makespan 8"),
        ({"lower_bound": 10**308, "upper_bound": 1}, "upper_bound 1 is not the makespan 8"),
        ({"upper_bound": "16/2", "lower_bound": "17/2"}, f"{FEASIBLE_NEEDS}, got '17/2' and 8"),
        ({"status": "optimal", "lower_bound": "15/2"}, f"{OPTIMAL_NEEDS}, got '15/2' and 8"),
        ({"status": "bound-pair"}, f"{BOUND_PAIR_NEEDS}, got 8 and 8"),
        ({"status": "bound-pair", "lower_bound": 8, "upper_bound": 8}, f"{BOUND_PAIR_NEEDS}, got 8 and 8"),
    ],
    ids=[
        "lower-overflow", "optimal-upper-underflow", "gap-overflow", "gap-times-100-overflow", "lower-above-upper",
        "optimal-open", "bound-pair-defaults", "bound-pair-closed",
    ],
)
def test_a_claim_the_file_refutes_exits_1_from_both_commands(tmp_path, capsys, meta, message):
    # The first four are the files that the report's own bound readers refused, before the claims were checked.
    _write_ex1_solution(tmp_path, {"method": "est", "status": "feasible", **meta})
    assert _both_commands(capsys, tmp_path, "ex1") == [(1, f"fjs: {message}\n")] * 2


def test_report_prints_an_integral_bound_beyond_a_float_exactly(tmp_path, capsys):
    _write_ex1_solution(tmp_path, {"method": "est", "status": "feasible", "lower_bound": 10**400}, 10**400)
    assert _both_commands(capsys, tmp_path, "ex1") == [(0, ""), (0, "")]
    row = (tmp_path / "out.report.txt").read_text().splitlines()[1]
    assert f" [{10**400};{10**400 + 8}] 0.00% " in row


def test_report_reads_exact_bounds_and_defaults_to_the_makespan(tmp_path):
    out = tmp_path / "out.txt"
    _write_ex1_solution(tmp_path, {"method": "est", "status": "feasible", "lower_bound": "15/2", "elapsed": 2})
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text() == (
        "Instance  Size     EST  Method  mks            CPU(s)\n"
        "EX1       1, 3, 2  8    est     [7.5;8] 6.25%  2.00\n"
    )


def _dafjs_est_document(directory):
    """``DAFJS-n3-m4-s3``'s instance file in ``directory`` and the document of
    its ``fjs solve --method est`` solution (makespan 256, lower bound 207)."""
    instance, sol_path = directory / "d.fjs.json", directory / "d.sol.json"
    instance.write_text(serialize_instance(generate_dafjs(DafjsParams(3, 4, 3))))
    assert main(["solve", "--method", "est", "--in", str(instance), "--out", str(sol_path)]) == 0
    return json.loads(sol_path.read_text())


@pytest.mark.parametrize(
    "meta, fields, first_line",
    [
        ({"lower_bound": "abc"}, {}, "fjs: lower_bound: bad rational literal 'abc'"),
        ({"elapsed": -1}, {}, "fjs: " + BAD_ELAPSED + "-1"),
        (
            {"status": "optimal", "lower_bound": 40, "upper_bound": 40},
            {"starts": [[v, 0] for v in range(16)], "makespan": 40},
            "DAFJS-n3-m4-s3: precedence: arc (0, 1): 0 + 93 > 0",
        ),
        ({"status": "optimal", "lower_bound": 100, "upper_bound": 100}, {},
         "fjs: upper_bound 100 is not the makespan 256"),
        (
            {"status": "bound-pair", "lower_bound": 306, "upper_bound": 256},
            {},
            f"fjs: {BOUND_PAIR_NEEDS}, got 306 and 256",
        ),
        ({"status": "bound-pair", "lower_bound": 1, "upper_bound": 999}, {},
         "fjs: upper_bound 999 is not the makespan 256"),
    ],
    ids=["lower-abc", "elapsed-negative", "all-starts-0", "optimal-100", "bound-pair-306-256", "bound-pair-1-999"],
)
def test_both_commands_refuse_a_forged_solution_alike(tmp_path, capsys, meta, fields, first_line):
    # Each of these files passed one of the two commands while the other refused it.
    document = _dafjs_est_document(tmp_path)
    document["meta"].update(meta)
    document.update(fields)
    (tmp_path / "d.sol.json").write_text(json.dumps(document))
    capsys.readouterr()
    (validated, validate_err), reported = _both_commands(capsys, tmp_path, "d")
    assert (validated, validate_err) == reported
    assert validated == 1
    assert validate_err.splitlines()[0] == first_line
    assert len(validate_err.splitlines()) == (27 if fields else 1)  # 14 arcs, 12 overlaps and the makespan
    assert not (tmp_path / "out.report.txt").exists()


MUTANT_VALUES = (
    0, 1, 7, 8, 9, 207, 212, 256, 300, -1, 2.5, -0.5, 8.0, float("nan"), float("inf"), True, None, [], {},
    "8", "15/2", "512/2", "-3/4", "1/0", "abc", "1e3", "optimal", "bound-pair", "feasible",
    10**400, -(10**400), HUGE_FRACTION, TINY_FRACTION,
)


def _mutant(document, rng):
    """``document`` with one to three of its meta values, its makespan or one start replaced or removed."""
    document = json.loads(json.dumps(document))
    for _ in range(rng.randint(1, 3)):
        value = rng.choice(MUTANT_VALUES)
        kind = rng.choice(["lower_bound", "upper_bound", "elapsed", "status", "makespan", "start", "meta"])
        if kind == "start":
            document["starts"][rng.randrange(len(document["starts"]))][1] = value
        elif kind == "makespan":
            document["makespan"] = value
        elif kind == "meta":
            document["meta"] = value if rng.random() < 0.2 else {}
        elif rng.random() < 0.2 and isinstance(document["meta"], dict):
            document["meta"].pop(kind, None)
        elif isinstance(document["meta"], dict):
            document["meta"][kind] = value
    return document


def test_mutated_solutions_get_one_verdict_from_both_commands(tmp_path, capsys):
    rng = random.Random(20261021)
    bases = []
    for stem, instance in (("ex1", make_ex1()), ("d", generate_dafjs(DafjsParams(3, 4, 3)))):
        directory = tmp_path / stem
        directory.mkdir()
        path, sol_path = directory / f"{stem}.fjs.json", directory / f"{stem}.sol.json"
        path.write_text(serialize_instance(instance))
        for method in ("est", "bnb"):
            assert main(["solve", "--method", method, "--in", str(path), "--out", str(sol_path)]) == 0
            bases.append((directory, stem, json.loads(sol_path.read_text())))
    capsys.readouterr()
    verdicts = []
    for _ in range(150):
        for directory, stem, document in bases:
            (directory / f"{stem}.sol.json").write_text(json.dumps(_mutant(document, rng)))
            validated, reported = _both_commands(capsys, directory, stem)
            assert validated == reported
            verdicts.append(validated[0])
    assert 0.1 < verdicts.count(0) / len(verdicts) < 0.9  # both verdicts are exercised
    assert set(verdicts) == {0, 1}


def _bnb_corpus():
    """The instances of the benchmark's ``bnb`` workload."""
    yfjs = [YfjsParams(3, 4, 3, 2, 3), YfjsParams(3, 5, 4, 2, 2), YfjsParams(3, 5, 4, 2, 3), YfjsParams(4, 5, 5, 3, 1)]
    dafjs = [DafjsParams(3, 4, 2), DafjsParams(3, 5, 3), DafjsParams(3, 4, 3)]
    return [*map(generate_yfjs, yfjs), *map(generate_dafjs, dafjs)]


def test_every_solution_file_fjs_writes_passes_both_commands(tmp_path, capsys):
    instances = _bnb_corpus() + [small_random_instance(seed) for seed in range(60)]  # and the oracle instances
    for instance in instances:
        stem = tmp_path / instance.name
        path, written = f"{stem}.fjs.json", []
        Path(path).write_text(serialize_instance(instance))
        for method in ("est", "bnb"):
            written.append(f"{stem}-{method}.sol.json")
            assert main(["solve", "--method", method, "--in", path, "--out", written[-1]]) == 0
        sol = parse_solution(Path(written[-1]).read_text(), instance)[0]
        for model, encode in (("new", encode_compact), ("ooy", encode_machine_indexed)):
            point = tmp_path / "point.json"
            point.write_text(json.dumps({name: number_to_json(v) for name, v in encode(instance, sol).values.items()}))
            written.append(f"{stem}-decode-{model}.sol.json")
            assert main(["decode", "--model", model, "--in", path, "--point", str(point), "--out", written[-1]]) == 0
        for sol_path in written:
            assert main(["validate", "--in", path, "--sol", sol_path]) == 0, sol_path
    capsys.readouterr()
    out = tmp_path / "all.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 1 + 4 * len(instances)


def test_validate_a_wrong_makespan_prints_one_issue(ex1_file, tmp_path, capsys):
    ex1 = make_ex1()
    document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    document["makespan"] = 9
    sol_path = tmp_path / "ex1.sol.json"
    sol_path.write_text(json.dumps(document))
    assert main(["validate", "--in", str(ex1_file), "--sol", str(sol_path)]) == 1
    assert capsys.readouterr().err == "EX1: makespan: recorded makespan 9 != 8\n"


@pytest.mark.parametrize(
    "command, message",
    [
        ("validate-sol", "start of operation 0: bad rational literal '0e0'"),
        ("report", "upper_bound: bad rational literal '3.6e2'"),
        ("decode-point", "z: bad rational literal '1e1000000'"),
    ],
)
def test_numbers_in_files_are_ints_or_fraction_strings(ex1_file, tmp_path, capsys, command, message):
    ex1 = make_ex1()
    solution = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL), {"method": "est"}))
    if command == "validate-sol":
        solution["starts"][0][1] = "0e0"
    else:
        solution["meta"]["upper_bound"] = "3.6e2"
    (tmp_path / "ex1.sol.json").write_text(json.dumps(solution))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"z": "1e1000000"}))
    argv = {
        "validate-sol": ["validate", "--in", str(ex1_file), "--sol", str(tmp_path / "ex1.sol.json")],
        "report": ["report", "--dir", str(tmp_path)],
        "decode-point": [
            "decode", "--model", "new", "--in", str(ex1_file), "--point", str(point), "--out", str(tmp_path / "o"),
        ],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"fjs: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["yfjs", "--n", "0", "--o", "2", "--m", "2", "--q", "1"], "all yfjs parameters must be >= 1"),
        (["yfjs", "--n", "2", "--o", "2", "--m", "2", "--q", "3"], "max_eligible cannot exceed the machine count"),
        (["dafjs", "--n", "2", "--m", "1"], "machines must be >= 2"),
        (["yfjs", "--n", "1", "--o", "1", "--m", "10001", "--q", "1"], "machines must be <= 10000"),
        (["dafjs", "--n", "1", "--m", "10001"], "machines must be <= 10000"),
        (["dafjs", "--n", "1", "--m", "10000"], "n_jobs * 3 * machines * ceil(0.7 * machines) must be <= 1000000"),
        (["yfjs", "--n", "1001", "--o", "100", "--m", "10", "--q", "10"],
         "n_jobs * ops_per_job * max_eligible must be <= 1000000"),
    ],
    ids=["yfjs-n0", "yfjs-q-above-m", "dafjs-m1", "yfjs-m-above-cap", "dafjs-m-above-cap", "dafjs-work", "yfjs-work"],
)
def test_generate_rejects_bad_sizes_as_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "g.fjs.json"
    assert main(["generate", *argv, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"fjs: {message}\n"
    assert not out.exists()


def _ex1_solution_file(directory):
    ex1 = make_ex1()
    path = directory / "ex1.sol.json"
    path.write_text(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    return path


def _argv_reading(command, ex1_file, tmp_path, path):
    """Arguments for which ``command`` reads ``path`` as its input file."""
    return {
        "validate-in": ["validate", "--in", str(path)],
        "validate-sol": ["validate", "--in", str(ex1_file), "--sol", str(path)],
        "decode-point": [
            "decode", "--model", "new", "--in", str(ex1_file), "--point", str(path), "--out", str(tmp_path / "o"),
        ],
        "report-instance": ["report", "--dir", str(tmp_path)],
        "report-solution": ["report", "--dir", str(tmp_path)],
    }[command]


READERS = ["validate-in", "validate-sol", "decode-point", "report-instance", "report-solution"]


def _bad_input(command, tmp_path):
    """Where ``command`` will read its input file: for report, an entry of its directory."""
    if command == "report-instance":
        return tmp_path / "bad.fjs.json"
    if command == "report-solution":
        _ex1_solution_file(tmp_path)
        return tmp_path / "other.sol.json"
    return tmp_path / "input.json"


@pytest.mark.parametrize("command", READERS)
def test_a_directory_as_input_file_is_a_usage_error(ex1_file, tmp_path, capsys, command):
    path = _bad_input(command, tmp_path)
    path.mkdir()
    assert main(_argv_reading(command, ex1_file, tmp_path, path)) == 2
    assert capsys.readouterr().err == f"fjs: cannot read {path}\n"


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_report_on_a_directory_it_cannot_read_is_a_usage_error(ex1_file, tmp_path, capsys, kind):
    directory = tmp_path / "missing" if kind == "missing" else ex1_file
    out = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(directory), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"fjs: cannot read {directory}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", READERS)
def test_an_input_file_that_is_not_utf8_exits_1(ex1_file, tmp_path, capsys, command):
    path = _bad_input(command, tmp_path)
    path.write_bytes(b'{"format": "\xff"}')
    assert main(_argv_reading(command, ex1_file, tmp_path, path)) == 1
    assert capsys.readouterr().err == f"fjs: {path}: not UTF-8 text (invalid start byte at byte 12)\n"


@pytest.mark.parametrize("command", ["generate", "solve", "emit", "decode", "report"])
def test_an_output_path_in_a_missing_directory_is_a_usage_error(ex1_file, tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    point = tmp_path / "point.json"
    point.write_text(json.dumps(encode_compact(make_ex1(), EX1_SOL).values, default=str))
    argv = {
        "generate": ["generate", "dafjs", "--n", "2", "--m", "2", "--seed", "1"],
        "solve": ["solve", "--method", "est", "--in", str(ex1_file)],
        "emit": ["emit", "--model", "new", "--format", "lp", "--in", str(ex1_file)],
        "decode": ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(point)],
        "report": ["report", "--dir", str(tmp_path)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"fjs: cannot write {out}\n"


@pytest.mark.parametrize("length", [80, 200_000])
@pytest.mark.parametrize("case", ["unknown-name", "bad-value"])
def test_decode_echoes_a_long_variable_name_cut(ex1_file, tmp_path, capsys, case, length):
    name = "q" * length
    values = {**encode_compact(make_ex1(), EX1_SOL).values, name: 0}
    if case == "bad-value":
        values[name] = "abc"
    point = tmp_path / "point.json"
    point.write_text(json.dumps(values, default=str))
    argv = ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(point), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    if length <= 80:  # printed whole
        expected = {
            "unknown-name": f"fjs: unknown variable names in point: {[name]}\n",
            "bad-value": f"fjs: {name}: bad rational literal 'abc'\n",
        }[case]
        assert err == expected
    else:
        assert err.startswith({"unknown-name": "fjs: unknown variable names in point: ['qqq", "bad-value": "fjs: 'qqq"}[case])
        assert "..." in err and len(err.encode()) < 200


def _readme_exit_rows() -> list[tuple[str, int, str]]:
    """(command, code, output prefix) of each row of the README's exit-code table."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Condition | Example | Code | Output starts with |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        _, command, code, prefix = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((command.strip("`"), int(code), prefix.strip("`")))
    return rows


@pytest.mark.parametrize("command, code, prefix", _readme_exit_rows())
def test_readme_exit_code_table(tmp_path, monkeypatch, capsys, command, code, prefix):
    ex1 = make_ex1()
    late = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    late["makespan"] = 9
    claim = {**late, "makespan": 8, "meta": {"upper_bound": 9}}
    elapsed = {**claim, "meta": {"elapsed": -1}}
    trap = Instance.from_tables("trap", 2, {0: {1: 9, 2: 3}, 1: {2: 3}}, [])
    files = {
        "ex1.fjs.json": serialize_instance(ex1),
        "late.sol.json": json.dumps(late),
        "claim.sol.json": json.dumps(claim),
        "elapsed.sol.json": json.dumps(elapsed),
        "trap.fjs.json": serialize_instance(trap),
        "empty.json": "{}",
        "syntax.json": "{",
        "deep.json": "[" * 100_000,
        "huge.json": "1" * 4301,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "latin1.json").write_bytes(b"\xff")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(command)
    assert program == "fjs"
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert (captured.err if code in (1, 2) else captured.out).startswith(prefix)


def test_report_refuses_two_instance_files_of_one_name(ex1_file, tmp_path, capsys):
    # b holds an instance of the same name with every time tripled; the solution fits only a
    tripled = json.loads(ex1_file.read_text())
    for op in tripled["operations"]:
        op["times"] = [[machine, 3 * time] for machine, time in op["times"]]
    ex1_file.rename(tmp_path / "a.fjs.json")
    (tmp_path / "b.fjs.json").write_text(serialize_instance(parse_instance(json.dumps(tripled))))
    ex1 = make_ex1()
    (tmp_path / "a.sol.json").write_text(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    out = tmp_path / "out.report.txt"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"fjs: a.fjs.json and b.fjs.json: two instance files named 'EX1' in {tmp_path}\n"
    assert not out.exists()


def _write_unknown_name_solution(directory, name):
    ex1 = make_ex1()
    document = json.loads(serialize_solution(ex1, EX1_SOL, tight_schedule(ex1, EX1_SOL)))
    document["instance"] = name
    (directory / "x.sol.json").write_text(json.dumps(document))


def test_report_names_an_unknown_instance(tmp_path, capsys):
    _write_unknown_name_solution(tmp_path, "nope")
    assert main(["report", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"fjs: x.sol.json: no instance file named 'nope' in {tmp_path}\n"


def test_report_echoes_a_long_unknown_instance_name_cut(tmp_path, capsys):
    _write_unknown_name_solution(tmp_path, "n" * 100_000)
    assert main(["report", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fjs: x.sol.json: no instance file named 'nnn")
    assert len(err.encode()) < 300


def test_report_escapes_a_file_name_that_is_not_printable(ex1_file, tmp_path, capsys):
    # a newline in a file name would otherwise start a forged line of the message
    _write_unknown_name_solution(tmp_path, "nope")
    (tmp_path / "x.sol.json").rename(tmp_path / "x\nfjs: forged.sol.json")
    assert main(["report", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"fjs: x\\nfjs: forged.sol.json: no instance file named 'nope' in {tmp_path}\n"
    for name in ("a\n.fjs.json", "b\n.fjs.json"):
        (tmp_path / name).write_text(ex1_file.read_text())
    assert main(["report", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"fjs: a\\n.fjs.json and b\\n.fjs.json: two instance files named 'EX1' in {tmp_path}\n"
    )
    latin1 = tmp_path / "latin1"
    latin1.mkdir()
    (latin1 / "x\nfjs: forged.sol.json").write_bytes(b"\xff")
    assert main(["report", "--dir", str(latin1)]) == 1
    assert capsys.readouterr().err == (
        f"fjs: {latin1}/x\\nfjs: forged.sol.json: not UTF-8 text (invalid start byte at byte 0)\n"
    )


def test_report_escapes_a_method_that_is_not_printable(tmp_path, capsys):
    # the method would otherwise write a second, forged row
    document = _dafjs_est_document(tmp_path)
    document["meta"].update(method="est\nFORGED  9, 9, 9  1  bnb  1", elapsed=0.5)
    (tmp_path / "d.sol.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert _both_commands(capsys, tmp_path, "d") == [(0, ""), (0, "")]
    assert (tmp_path / "out.report.txt").read_text().splitlines() == [
        "Instance        Size       EST  Method                           mks               CPU(s)",
        f"DAFJS-n3-m4-s3  3, 4-7, 4  256  est\\nFORGED  9, 9, 9  1  bnb  1  [207;256] 19.14%  0.50",
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_keeps_the_callers_collector_state_after_every_exit_code(ex1_file, tmp_path, restore_gc, capsys, enabled):
    (gc.enable if enabled else gc.disable)()
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    for code, argv in {
        0: ["validate", "--in", str(ex1_file)],
        1: ["validate", "--in", str(empty)],
        2: ["validate", "--in", str(tmp_path / "missing.fjs.json")],
    }.items():
        assert main(argv) == code
        assert gc.isenabled() is enabled


def test_main_leaves_the_collector_enabled_after_a_usage_error(restore_gc, capsys):
    gc.enable()
    with pytest.raises(SystemExit) as err:
        main(["solve", "--method", "nope", "--in", "x"])
    assert err.value.code == 2
    assert gc.isenabled()


def _patch_handler(monkeypatch, command, handler):
    subparsers = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    monkeypatch.setitem(subparsers.choices[command]._defaults, "handler", handler)


def test_main_enables_the_collector_again_when_a_handler_raises(ex1_file, monkeypatch, restore_gc):
    gc.enable()
    def boom(args):
        raise RuntimeError("boom")

    _patch_handler(monkeypatch, "validate", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["validate", "--in", str(ex1_file)])
    assert gc.isenabled()


def test_main_pauses_the_collector_while_the_handler_runs(ex1_file, monkeypatch, restore_gc):
    gc.enable()
    seen = []

    def record(args):
        seen.append(gc.isenabled())
        return 0

    _patch_handler(monkeypatch, "validate", record)
    assert main(["validate", "--in", str(ex1_file)]) == 0
    assert seen == [False]
    assert gc.isenabled()


# The solution writer's meta (json.dumps with indent=2) leaves 33 objects of the pure-Python encoder
CYCLIC_GARBAGE_BOUND = 64


def _cyclic_garbage(argv):
    gc.disable()
    gc.collect()
    main(argv)
    return gc.collect()


def test_a_command_leaves_bounded_cyclic_garbage(ex1_file, tmp_path, restore_gc, capsys):
    d = tmp_path
    est_sol, bnb_sol, point = d / "est.sol.json", d / "bnb.sol.json", d / "point.json"
    point.write_text(json.dumps(encode_compact(make_ex1(), EX1_SOL).values, default=str))
    commands = [
        ["generate", "yfjs", "--n", "3", "--o", "4", "--m", "3", "--q", "2", "--seed", "1", "--out", str(d / "y.fjs.json")],
        ["solve", "--method", "est", "--in", str(ex1_file), "--out", str(est_sol)],
        ["solve", "--method", "bnb", "--in", str(ex1_file), "--out", str(bnb_sol)],
        ["validate", "--in", str(ex1_file), "--sol", str(est_sol)],
        *(
            ["emit", "--model", model, "--format", fmt, "--in", str(ex1_file), "--out", str(d / f"x-{model}.{fmt}")]
            for model in cli.MODEL_BUILDERS
            for fmt in cli.WRITERS
        ),
        ["decode", "--model", "new", "--in", str(ex1_file), "--point", str(point), "--out", str(d / "d.sol.json")],
        ["report", "--dir", str(d), "--out", str(d / "all.report.txt")],
    ]
    for argv in commands:
        assert _cyclic_garbage(argv) <= CYCLIC_GARBAGE_BOUND, argv[:3]


def test_cyclic_garbage_does_not_grow_with_the_search(ex1_file, tmp_path, restore_gc, monkeypatch, capsys):
    # DAFJS-n4-m6-s9 is still open after 100,000 nodes.  Around the capped
    # run the clock reads 0 at the start and one more at each node the search
    # would expand, so the deadline strikes after exactly 10,000 nodes.
    big = tmp_path / "big.fjs.json"
    big.write_text(serialize_instance(generate_dafjs(DafjsParams(4, 6, 9))))
    closed = _cyclic_garbage(["solve", "--method", "bnb", "--in", str(ex1_file), "--out", str(tmp_path / "a.sol.json")])
    capped_sol = tmp_path / "b.sol.json"
    with monkeypatch.context() as patch:
        clock = itertools.count()
        patch.setattr(exact.time, "monotonic", lambda: float(next(clock)))
        capped = _cyclic_garbage(
            ["solve", "--method", "bnb", "--time-limit", "10000.5", "--in", str(big), "--out", str(capped_sol)]
        )
    assert "(bound-pair)" in capsys.readouterr().out  # the capped search stopped at its time limit
    assert json.loads(capped_sol.read_text())["meta"]["nodes_explored"] == 10_000
    assert closed == capped <= CYCLIC_GARBAGE_BOUND


def test_main_builds_no_parser_per_call(ex1_file, monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called by main")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["validate", "--in", str(ex1_file)]) == 0
    assert main(["solve", "--method", "est", "--in", str(ex1_file)]) == 0
    assert capsys.readouterr().out == "EX1: instance ok (3 operations)\nEX1: mks 8 (feasible)\n"


HELP = Path(__file__).parent / "golden" / "help"


@pytest.mark.parametrize(
    "command",
    ["", "generate", "generate yfjs", "generate dafjs", "solve", "emit", "validate", "decode", "report"],
)
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as done:
        main([*command.split(), "--help"])
    assert done.value.code == 0
    golden = HELP / f"{'-'.join(['fjs', *command.split()])}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

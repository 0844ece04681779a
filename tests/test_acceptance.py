"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 2 and 3 need the published small/medium benchmark files converted
into the canonical instance format (see README); they skip when the files
are not present, and criterion 1 is the exactness gate in that case.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import pytest

from fjs.core import Instance, tight_schedule, validate_solution
from fjs.emit import write_lp, write_mps
from fjs.exact import brute_force, solve_branch_and_bound
from fjs.generate import DafjsParams, YfjsParams, generate_dafjs, generate_yfjs
from fjs.heuristic import earliest_start_heuristic
from fjs.io import parse_instance, serialize_instance
from fjs.milp import (
    BINARY,
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
from fjs.rng import Xoshiro256StarStar

from conftest import DATA_DIR, GOLDEN_DIR, random_admissible_solution, small_random_instance

FATTAHI_DIR = DATA_DIR / "fattahi"

SFJS_OPTIMA = {
    "SFJS01": 66, "SFJS02": 107, "SFJS03": 221, "SFJS04": 355, "SFJS05": 119,
    "SFJS06": 320, "SFJS07": 397, "SFJS08": 253, "SFJS09": 210, "SFJS10": 516,
}
MFJS_OPTIMA = {
    "MFJS01": 468, "MFJS02": 446, "MFJS03": 466,
    "MFJS04": 554, "MFJS05": 514, "MFJS06": 634,
}


def passed(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@lru_cache(maxsize=1)
def generated_corpus() -> tuple[Instance, ...]:
    """100 generated instances: 50 per generator, sizes swept by seed."""
    corpus = []
    for i in range(50):
        corpus.append(
            generate_yfjs(
                YfjsParams(
                    n_jobs=1 + i % 3,
                    ops_per_job=2 + i % 5,
                    machines=2 + i % 6,
                    max_eligible=1 + i % min(3, 2 + i % 6),
                    seed=1000 + i,
                )
            )
        )
    for i in range(50):
        corpus.append(DafjsParams(n_jobs=1 + i % 3, machines=2 + i % 8, seed=2000 + i))
        corpus[-1] = generate_dafjs(corpus[-1])
    return tuple(corpus)


@lru_cache(maxsize=1)
def witness_corpus() -> tuple[Instance, ...]:
    """100 instances meeting the gap-witness preconditions, oracle-solvable."""
    instances = []
    seed = 0
    while len(instances) < 100:
        seed += 1
        inst = generate_dafjs(DafjsParams(n_jobs=1, machines=5, seed=seed))
        horizon = default_horizon(inst)
        eligible_count = {k: 0 for k in range(1, inst.machines + 1)}
        for v in inst.ops:
            for k in inst.eligible[v]:
                eligible_count[k] += 1
        if min(eligible_count.values()) < 2:
            continue
        if any(len(row) < 2 for row in inst.eligible):
            continue
        if any(2 * t > horizon for row in inst.times for t in row):
            continue
        instances.append(inst)
    return tuple(instances)


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    count = 0
    for seed in range(200):
        inst = small_random_instance(seed, max_ops=8, max_machines=3, max_eligible=2)
        assignments = 1
        for row in inst.eligible:
            assignments *= len(row)
        assert inst.n_ops <= 8 and inst.machines <= 3 and assignments <= 10**5
        bf = brute_force(inst)
        bb = solve_branch_and_bound(inst, time_limit=60)
        assert bb.status == "optimal", inst.name
        assert bf.upper_bound == bb.upper_bound, inst.name
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"
    passed(1, f"{count} instances, exact agreement, {elapsed:.1f}s")


def _load_external(names):
    instances = {}
    for name in names:
        path = FATTAHI_DIR / f"{name}.fjs.json"
        if not path.exists():
            pytest.skip(
                f"external benchmark file {path} not present; "
                "see README for the one-time conversion recipe"
            )
        instances[name] = parse_instance(path.read_text(encoding="utf-8"))
    return instances


def test_criterion_2_small_benchmark_optima():
    instances = _load_external(SFJS_OPTIMA)
    for name, expected in SFJS_OPTIMA.items():
        result = solve_branch_and_bound(instances[name], time_limit=60)
        assert result.status == "optimal", name
        assert result.upper_bound == expected, name
    passed(2, "SFJS01-SFJS10 optimal makespans reproduced")


def test_criterion_3_medium_benchmark_stretch():
    instances = _load_external(MFJS_OPTIMA)
    limit = float(os.environ.get("FJS_STRETCH_TIME_LIMIT", "3600"))
    outcomes = []
    for name, expected in MFJS_OPTIMA.items():
        result = solve_branch_and_bound(instances[name], time_limit=limit)
        if result.status == "optimal":
            assert result.upper_bound == expected, name
            outcomes.append(f"{name}={result.upper_bound}")
        else:
            assert result.lower_bound <= expected <= result.upper_bound, name
            outcomes.append(f"{name}=[{result.lower_bound};{result.upper_bound}]")
    passed(3, "stretch outcomes: " + ", ".join(outcomes))


def test_criterion_4_model_count_formulas():
    for inst in generated_corpus():
        V = list(inst.ops)
        F = {v: set(inst.eligible[v]) for v in V}
        nB = sum(1 for v in V for w in V if v != w and F[v] & F[w])
        beta = sum(
            1
            for k in range(1, inst.machines + 1)
            for v in V
            for w in V
            if v != w and k in F[v] and k in F[w]
        )
        phi = sum(len(F[v]) for v in V)
        with_succ = {u for u, _ in inst.arcs}
        phi_hat = sum(len(F[v]) for v in V if v not in with_succ)
        horizon = default_horizon(inst)
        compact = build_compact_model(inst, horizon)
        assert len(compact.constraints) == 2 * len(V) + len(inst.arcs) + nB + beta
        assert len(compact.variables) - 1 == len(V) + phi + nB
        assert sum(var.kind == BINARY for var in compact.variables) == phi + nB
        indexed = build_machine_indexed_model(inst, horizon)
        assert len(indexed.constraints) == len(V) + len(inst.arcs) + phi_hat + 2 * phi + 2 * beta
        assert len(indexed.variables) - 1 == 3 * phi + beta
        assert sum(var.kind == BINARY for var in indexed.variables) == phi + beta
    passed(4, f"count formulas exact on {len(generated_corpus())} instances")


def test_criterion_5_encode_decode_round_trips():
    checked = 0
    for i in range(20):
        inst = small_random_instance(10_000 + i, max_ops=7, max_machines=3, max_eligible=3)
        horizon = default_horizon(inst)
        compact = build_compact_model(inst, horizon)
        indexed = build_machine_indexed_model(inst, horizon)
        for sub in range(5):
            sol = random_admissible_solution(inst, i * 101 + sub)
            mks = tight_schedule(inst, sol).makespan
            pc = encode_compact(inst, sol)
            assert check_feasible(compact, pc).ok
            sol_c, sched_c = decode_compact(inst, pc)
            pm = encode_machine_indexed(inst, sol)
            assert check_feasible(indexed, pm).ok
            sol_m, sched_m = decode_machine_indexed(inst, pm)
            for decoded, sched in ((sol_c, sched_c), (sol_m, sched_m)):
                assert decoded.assignment == sol.assignment
                assert decoded.selection == sol.selection
                assert sched.makespan == mks
            checked += 1
    assert checked == 100
    passed(5, "100 solutions: feasible at tol 0, decode preserves everything")


def test_criterion_6_relaxation_witness_and_lower_bound():
    for inst in witness_corpus():
        horizon = default_horizon(inst)
        witness = machine_indexed_gap_witness(inst, horizon)
        assert witness["z"] == 0
        relaxed = build_machine_indexed_model(inst, horizon)
        report = check_feasible(relaxed, witness)
        assert report.ok, f"{inst.name}: {report.summary()}"
        lb = makespan_lower_bound(inst)
        assert lb > 0
        result = solve_branch_and_bound(inst, time_limit=120)
        assert result.status == "optimal", inst.name
        assert lb <= result.upper_bound
    passed(6, f"{len(witness_corpus())} witnesses feasible at objective 0; bounds sound")


def test_criterion_7_heuristic_properties():
    for inst in generated_corpus():
        sol, sched = earliest_start_heuristic(inst)
        report = validate_solution(inst, sol, sched)
        assert report.ok, f"{inst.name}: {report.summary()}"
    for seed in range(100):
        inst = small_random_instance(seed, max_ops=7)
        _, sched = earliest_start_heuristic(inst)
        assert sched.makespan >= brute_force(inst).upper_bound

    # one instance at the scale of the largest published job-shop rows:
    # 30 chain jobs of 8..11 operations on 15 machines
    rng = Xoshiro256StarStar(777)
    ptimes = {}
    arcs = []
    next_id = 0
    for _ in range(30):
        length = rng.randint(8, 11)
        ids = list(range(next_id, next_id + length))
        next_id += length
        arcs.extend(zip(ids, ids[1:]))
        for v in ids:
            size = rng.randint(1, 5)
            machs = rng.sample(list(range(1, 16)), size)
            ptimes[v] = {k: rng.randint(1, 99) for k in machs}
    big = Instance.from_tables("MK14-sized", 15, ptimes, arcs)
    t0 = time.monotonic()
    sol, sched = earliest_start_heuristic(big)
    elapsed = time.monotonic() - t0
    assert validate_solution(big, sol, sched).ok
    assert elapsed < 1.0, f"heuristic took {elapsed:.2f}s on {big.n_ops} operations"
    passed(7, f"feasible everywhere, above the optimum, {big.n_ops} ops in {elapsed * 1000:.0f}ms")


def test_criterion_7_soft_est_column_comparison():
    if not FATTAHI_DIR.exists():
        pytest.skip(
            "published instance files not present; the heuristic-column "
            "comparison is a non-gating soft target (tie-break sensitive)"
        )


def test_criterion_8_generator_invariants():
    from collections import Counter

    jobs_seen = 0
    for i in range(100):
        params = YfjsParams(
            n_jobs=10, ops_per_job=2 + i % 7, machines=3 + i % 8,
            max_eligible=1 + i % 3, seed=3000 + i,
        )
        inst = generate_yfjs(params)
        assert serialize_instance(inst) == serialize_instance(generate_yfjs(params))
        from fjs.core import weakly_connected_components

        for component in weakly_connected_components(inst):
            members = set(component)
            arcs = [(u, w) for u, w in inst.arcs if u in members]
            indeg = Counter(w for _, w in arcs)
            assert len(arcs) == len(members) - 1
            assert sum(1 for d in indeg.values() if d >= 2) <= 1
            assert all(d <= 2 for d in indeg.values())
            jobs_seen += 1
        for row, machs in zip(inst.times, inst.eligible):
            assert 1 <= len(machs) <= params.max_eligible
            assert all(20 <= t <= 200 for t in row)
    assert jobs_seen == 1000

    jobs_seen = 0
    for i in range(100):
        params = DafjsParams(n_jobs=10, machines=5 + i % 6, seed=4000 + i)
        inst = generate_dafjs(params)
        assert serialize_instance(inst) == serialize_instance(generate_dafjs(params))
        m = params.machines
        lo_len, hi_len = -(-m // 2), m
        lo_f, hi_f = -(-3 * m // 10), -(-7 * m // 10)
        from fjs.core import weakly_connected_components
        from test_generate import maximal_path_lengths

        for component in weakly_connected_components(inst):
            members = sorted(component)
            arcs = [(u, w) for u, w in inst.arcs if u in set(members)]
            lengths = maximal_path_lengths(members, arcs)
            assert len(lengths) == 1
            assert lo_len <= next(iter(lengths)) <= hi_len
            outdeg = Counter(u for u, _ in arcs)
            indeg = Counter(w for _, w in arcs)
            splits = sum(1 for v in members if outdeg[v] >= 2)
            merges = sum(1 for v in members if indeg[v] >= 2)
            assert (splits, merges) in {(1, 0), (0, 1), (1, 1)}
            jobs_seen += 1
        for row, machs in zip(inst.times, inst.eligible):
            assert lo_f <= len(machs) <= hi_f
            base = min(row)
            assert 1 <= base and max(row) <= min(3 * base, 99)
    assert jobs_seen == 1000
    passed(8, "1000 jobs per generator satisfy every structural invariant")


def test_criterion_9_golden_emissions():
    ex1 = parse_instance((GOLDEN_DIR / "ex1.fjs.json").read_text())
    _, est_sched = earliest_start_heuristic(ex1)
    horizon = default_horizon(ex1, est_sched.makespan)
    assert horizon == 8
    outputs = {
        "ex1-new.lp": write_lp(build_compact_model(ex1, horizon)),
        "ex1-new.mps": write_mps(build_compact_model(ex1, horizon)),
        "ex1-ooy.lp": write_lp(build_machine_indexed_model(ex1, horizon)),
        "ex1-ooy.mps": write_mps(build_machine_indexed_model(ex1, horizon)),
    }
    for filename, text in outputs.items():
        assert text == (GOLDEN_DIR / filename).read_text(), filename
    passed(9, "LP and MPS emissions match the goldens byte for byte")

"""Generator structure invariants, determinism, and the RNG primitives."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjs.core import MAX_MACHINES, Instance
from fjs.generate import (
    MAX_ELIGIBLE_PAIRS,
    DafjsParams,
    YfjsParams,
    generate_dafjs,
    generate_yfjs,
    job_shape_arcs,
    rewired_chain_arcs,
)
from fjs.io import serialize_instance
from fjs.rng import Xoshiro256StarStar


def job_subgraphs(instance: Instance):
    from fjs.core import weakly_connected_components

    for component in weakly_connected_components(instance):
        members = set(component)
        arcs = [(u, w) for u, w in instance.arcs if u in members]
        yield sorted(members), arcs


def maximal_path_lengths(members, arcs):
    succs = {v: [] for v in members}
    preds = {v: [] for v in members}
    for u, w in arcs:
        succs[u].append(w)
        preds[w].append(u)
    lengths = set()

    def walk(v, count):
        if not succs[v]:
            lengths.add(count)
            return
        for w in succs[v]:
            walk(w, count + 1)

    for v in members:
        if not preds[v]:
            walk(v, 1)
    return lengths


class TestChainRewiring:
    def test_redirect_creates_convergence(self):
        # 3-op chain, i=2, j=3: arc into op 2 moves to op 3, so op 2 loses
        # its predecessor and op 3 gains two
        arcs = rewired_chain_arcs(base=0, length=3, i=2, j=3)
        assert arcs == {(1, 2), (0, 2)}

    def test_reordering_of_i_and_j(self):
        assert rewired_chain_arcs(0, 3, 3, 2) == rewired_chain_arcs(0, 3, 2, 3)

    def test_no_change_cases(self):
        chain = {(0, 1), (1, 2)}
        assert rewired_chain_arcs(0, 3, 1, 2) == chain
        assert rewired_chain_arcs(0, 3, 2, 1) == chain
        assert rewired_chain_arcs(0, 3, 2, 2) == chain

    def test_base_offset(self):
        assert rewired_chain_arcs(10, 3, 2, 3) == {(11, 12), (10, 12)}


class TestJobShapes:
    def test_split_merge_shape_counts(self):
        # one head op, two branches of two, two tail ops: seven operations,
        # both maximal paths five nodes long
        count, arcs = job_shape_arcs("DA2", head=1, mid=2, tail=2, first_id=0)
        assert count == 7
        assert set(arcs) == {
            (1, 2), (3, 4), (5, 6),  # branch chains and tail chain
            (0, 1), (0, 3),          # split
            (2, 5), (4, 5),          # merge
        }

    def test_pure_split_shape(self):
        count, arcs = job_shape_arcs("D3", head=2, mid=1, tail=0, first_id=0)
        assert count == 5
        assert set(arcs) == {(0, 1), (1, 2), (1, 3), (1, 4)}

    def test_pure_merge_shape(self):
        count, arcs = job_shape_arcs("A2", head=0, mid=2, tail=1, first_id=0)
        assert count == 5
        assert set(arcs) == {(0, 1), (2, 3), (1, 4), (3, 4)}


class TestYfjs:
    def test_shape_path_or_single_convergence(self):
        for seed in range(30):
            params = YfjsParams(n_jobs=4, ops_per_job=5, machines=4, max_eligible=3, seed=seed)
            inst = generate_yfjs(params)
            assert inst.n_ops == 20
            for members, arcs in job_subgraphs(inst):
                indeg = Counter(w for _, w in arcs)
                assert len(arcs) == len(members) - 1
                heavy = [v for v, d in indeg.items() if d >= 2]
                assert len(heavy) <= 1
                assert all(indeg[v] <= 2 for v in members)

    def test_time_and_eligibility_ranges(self):
        inst = generate_yfjs(YfjsParams(5, 6, 8, 3, seed=11))
        for row, machs in zip(inst.times, inst.eligible):
            assert 1 <= len(machs) <= 3
            assert all(20 <= t <= 200 for t in row)

    def test_no_flexibility_when_q_is_one(self):
        inst = generate_yfjs(YfjsParams(3, 4, 5, 1, seed=2))
        assert all(len(machs) == 1 for machs in inst.eligible)

    def test_single_op_jobs(self):
        inst = generate_yfjs(YfjsParams(3, 1, 2, 2, seed=5))
        assert inst.arcs == ()

    def test_deterministic_and_seed_sensitive(self):
        params = YfjsParams(4, 5, 6, 3, seed=99)
        a = serialize_instance(generate_yfjs(params))
        b = serialize_instance(generate_yfjs(params))
        c = serialize_instance(generate_yfjs(YfjsParams(4, 5, 6, 3, seed=100)))
        assert a == b
        assert a != c

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            YfjsParams(0, 3, 3, 2, seed=1)
        with pytest.raises(ValueError):
            YfjsParams(1, 3, 3, 4, seed=1)

    def test_machine_count_cap(self):
        assert YfjsParams(1, 1, MAX_MACHINES, 1, seed=1).machines == MAX_MACHINES
        with pytest.raises(ValueError, match=f"machines must be <= {MAX_MACHINES}"):
            YfjsParams(1, 1, MAX_MACHINES + 1, 1, seed=1)


class TestDafjs:
    def test_equal_maximal_paths_and_ranges(self):
        for seed in range(30):
            m = 5 + seed % 6
            inst = generate_dafjs(DafjsParams(n_jobs=3, machines=m, seed=seed))
            lo, hi = -(-m // 2), m
            for members, arcs in job_subgraphs(inst):
                lengths = maximal_path_lengths(members, arcs)
                assert len(lengths) == 1, "all maximal paths share one length"
                (length,) = lengths
                assert lo <= length <= hi

    def test_split_and_merge_node_counts(self):
        for seed in range(25):
            inst = generate_dafjs(DafjsParams(n_jobs=4, machines=6, seed=seed + 50))
            for members, arcs in job_subgraphs(inst):
                outdeg = Counter(u for u, _ in arcs)
                indeg = Counter(w for _, w in arcs)
                splits = sum(1 for v in members if outdeg[v] >= 2)
                merges = sum(1 for v in members if indeg[v] >= 2)
                assert (splits, merges) in {(1, 0), (0, 1), (1, 1)}

    def test_eligibility_size_range(self):
        inst = generate_dafjs(DafjsParams(4, 10, seed=3))
        for machs in inst.eligible:
            assert 3 <= len(machs) <= 7  # ceil(0.3*10) .. ceil(0.7*10)

    def test_time_spread_from_base(self):
        for seed in range(10):
            inst = generate_dafjs(DafjsParams(3, 7, seed=seed))
            for row in inst.times:
                base = min(row)
                assert 1 <= base <= 99
                assert max(row) <= min(3 * base, 99)

    def test_small_machine_counts_still_work(self):
        for m in (2, 3, 4):
            inst = generate_dafjs(DafjsParams(3, m, seed=1))
            assert inst.n_ops > 0

    def test_deterministic(self):
        params = DafjsParams(5, 7, seed=123)
        assert serialize_instance(generate_dafjs(params)) == serialize_instance(generate_dafjs(params))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DafjsParams(1, 1, seed=0)
        with pytest.raises(ValueError, match="^n_jobs must be >= 1$"):
            DafjsParams(0, 4, seed=0)

    def test_machine_count_cap(self):
        # MAX_MACHINES itself passes the machine cap and is then refused for its work
        with pytest.raises(ValueError, match=r"^n_jobs \* 3 \* machines"):
            DafjsParams(1, MAX_MACHINES, seed=1)
        with pytest.raises(ValueError, match=f"machines must be <= {MAX_MACHINES}"):
            DafjsParams(1, MAX_MACHINES + 1, seed=1)


YFJS_WORK = f"n_jobs * ops_per_job * max_eligible must be <= {MAX_ELIGIBLE_PAIRS}"
DAFJS_WORK = f"n_jobs * 3 * machines * ceil(0.7 * machines) must be <= {MAX_ELIGIBLE_PAIRS}"


class TestWorkBound:
    @pytest.mark.parametrize(
        "family, sizes",
        [
            (YfjsParams, (200, 10, 20, 3)),  # the largest yfjs size of the perfbench corpus
            (YfjsParams, (4, 10, 7, 3)),  # the README
            (YfjsParams, (30, 10, 10, 3)),  # the largest yfjs size of the CLI tests
            (DafjsParams, (60, 10)),  # the largest dafjs size of the perfbench corpus
            (DafjsParams, (10, 10)),  # the largest dafjs size of the acceptance tests
            (DafjsParams, (4, 5)),  # the README
            (YfjsParams, (1000, 100, 10, 10)),  # n·o·q at the bound
            (YfjsParams, (1, 1, MAX_MACHINES, 1)),
            (DafjsParams, (1, 690)),  # 3·690·483 = 999,810
            (DafjsParams, (MAX_ELIGIBLE_PAIRS // 12, 2)),  # 3·2·2 = 12 per job
        ],
        ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else value.__name__,
    )
    def test_sizes_within_the_bound_are_accepted(self, family, sizes):
        assert family(*sizes, seed=1).seed == 1

    @pytest.mark.parametrize(
        "family, sizes, message",
        [
            (YfjsParams, (1001, 100, 10, 10), YFJS_WORK),
            (YfjsParams, (1, 1001, 1000, 1000), YFJS_WORK),
            (YfjsParams, (10**9, 10**9, 2, 2), YFJS_WORK),
            (DafjsParams, (1, 691), DAFJS_WORK),  # 3·691·484 = 1,003,332
            (DafjsParams, (1 + MAX_ELIGIBLE_PAIRS // 12, 2), DAFJS_WORK),
        ],
        ids=["yfjs-jobs", "yfjs-eligible", "yfjs-huge", "dafjs-m691", "dafjs-jobs"],
    )
    def test_sizes_beyond_the_bound_are_refused(self, family, sizes, message):
        with pytest.raises(ValueError) as caught:
            family(*sizes, seed=1)
        assert str(caught.value) == message


class TestRng:
    def test_known_stream_is_stable(self):
        # frozen regression anchor: the seed expansion must never change,
        # or previously published instances stop being reproducible
        rng = Xoshiro256StarStar(0)
        assert [rng.next_u64() for _ in range(3)] == [
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
        ]

    @given(st.integers(0, 2**64 - 1), st.integers(-50, 50), st.integers(0, 100))
    @settings(max_examples=60, derandomize=True)
    def test_randint_stays_in_bounds(self, seed, lo, width):
        rng = Xoshiro256StarStar(seed)
        hi = lo + width
        for _ in range(20):
            assert lo <= rng.randint(lo, hi) <= hi

    def test_randint_covers_small_range(self):
        rng = Xoshiro256StarStar(42)
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    # randint(0, 2**63) rejects about half of its draws, (1, 3 * 2**62) a
    # quarter; the generators' spans almost never reject
    @pytest.mark.parametrize("lo, hi", [(0, 2**63), (1, 3 * 2**62), (-7, 5 * 2**60), (0, 2), (10, 200)])
    def test_rejected_draws_advance_the_state(self, lo, hi):
        rng, twin = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
        span = hi - lo + 1
        limit = 2**64 - 2**64 % span
        rejected = 0
        for _ in range(200):
            r = twin.next_u64()
            while r >= limit:
                rejected += 1
                r = twin.next_u64()
            assert rng.randint(lo, hi) == lo + r % span
        assert rng.s == twin.s
        if hi == 2**63:
            assert rejected > 150

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Xoshiro256StarStar(1).randint(5, 4)

    def test_sample_uniform_subsets(self):
        rng = Xoshiro256StarStar(7)
        for _ in range(50):
            out = rng.sample([1, 2, 3, 4, 5], 3)
            assert len(set(out)) == 3
            assert set(out) <= {1, 2, 3, 4, 5}
        with pytest.raises(ValueError):
            rng.sample([1], 2)

"""Seeded random instance generators.

Two families: Y-job instances (``yfjs``), where each job is a chain that may
be rewired into two converging branches, and disassembly/assembly instances
(``dafjs``), where each job is one of six DAG shapes built from equal-length
maximal paths.  All draws are uniform and come from a single seeded stream
per instance, in a fixed documented order, so identical parameters reproduce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_MACHINES, Instance
from .rng import Xoshiro256StarStar

__all__ = [
    "YfjsParams",
    "DafjsParams",
    "generate_yfjs",
    "generate_dafjs",
    "rewired_chain_arcs",
    "job_shape_arcs",
    "DAFJS_JOB_KINDS",
    "MAX_ELIGIBLE_PAIRS",
]

# Job shapes of the dafjs generator, in draw order: an initial path splitting
# into 2 or 3 parallel paths (D), parallel paths merging into a final path
# (A), or both (DA).
DAFJS_JOB_KINDS = ("D2", "D3", "A2", "A3", "DA2", "DA3")

MAX_ELIGIBLE_PAIRS = 1_000_000
"""Most (operation, eligible machine) pairs that the sizes of one instance may
let a generator draw in the worst case: ``n·o·q`` for yfjs, and
``n·3m·ceil(0.7m)`` for dafjs, whose jobs have fewer than ``3m`` operations
(for m >= 2) with at most ``ceil(0.7m)`` eligible machines each.  Larger
sizes are refused before any draw."""


@dataclass(frozen=True)
class YfjsParams:
    """Y-job generator parameters: jobs, operations per job, machines, and
    the maximum number of eligible machines per operation."""

    n_jobs: int
    ops_per_job: int
    machines: int
    max_eligible: int
    seed: int

    def __post_init__(self) -> None:
        if min(self.n_jobs, self.ops_per_job, self.machines, self.max_eligible) < 1:
            raise ValueError("all yfjs parameters must be >= 1")
        if self.max_eligible > self.machines:
            raise ValueError("max_eligible cannot exceed the machine count")
        if self.machines > MAX_MACHINES:
            raise ValueError(f"machines must be <= {MAX_MACHINES}")
        if self.n_jobs * self.ops_per_job * self.max_eligible > MAX_ELIGIBLE_PAIRS:
            raise ValueError(f"n_jobs * ops_per_job * max_eligible must be <= {MAX_ELIGIBLE_PAIRS}")


@dataclass(frozen=True)
class DafjsParams:
    """Disassembly/assembly generator parameters."""

    n_jobs: int
    machines: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.machines < 2:
            raise ValueError("machines must be >= 2")
        if self.machines > MAX_MACHINES:
            raise ValueError(f"machines must be <= {MAX_MACHINES}")
        m = self.machines
        if self.n_jobs * 3 * m * _ceil_div(7 * m, 10) > MAX_ELIGIBLE_PAIRS:
            raise ValueError(f"n_jobs * 3 * machines * ceil(0.7 * machines) must be <= {MAX_ELIGIBLE_PAIRS}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def rewired_chain_arcs(base: int, length: int, i: int, j: int) -> set[tuple[int, int]]:
    """Arcs of one job: the chain base..base+length-1, possibly Y-rewired.

    i and j address operations 1..length within the job.  When both exceed 1
    and differ, the arc into the i-th operation is redirected to the j-th
    (with i < j after reordering), which turns the chain into two branches
    converging at j; otherwise the chain is kept as is.
    """
    arcs = {(base + a, base + a + 1) for a in range(length - 1)}
    if i != 1 and j != 1 and i != j:
        if i > j:
            i, j = j, i
        arcs.discard((base + i - 2, base + i - 1))
        arcs.add((base + i - 2, base + j - 1))
    return arcs


def generate_yfjs(params: YfjsParams) -> Instance:
    """Generate a Y-job instance.

    Draw order: per job the two chain-rewire indices i and j, then per
    operation (in id order) the eligibility size, the machine subset, and
    one time per eligible machine in ascending machine order.  Times are
    uniform in {20..200}; eligibility size is uniform in {1..max_eligible}.
    """
    rng = Xoshiro256StarStar(params.seed)
    n, o, m, q = params.n_jobs, params.ops_per_job, params.machines, params.max_eligible
    arcs: list[tuple[int, int]] = []
    for job in range(n):
        i = rng.randint(1, o)
        j = rng.randint(1, o)
        arcs.extend(rewired_chain_arcs(job * o, o, i, j))

    eligible = []
    times = []
    machine_pool = list(range(1, m + 1))
    for _ in range(n * o):
        size = rng.randint(1, q)
        machs = tuple(sorted(rng.sample(machine_pool, size)))
        eligible.append(machs)
        times.append(tuple(rng.randint(20, 200) for _ in machs))

    name = f"YFJS-n{n}-o{o}-m{m}-q{q}-s{params.seed}"
    return Instance(name, m, tuple(eligible), tuple(times), tuple(arcs))


def _split_two(rng: Xoshiro256StarStar, total: int) -> tuple[int, int]:
    """Uniform split of ``total`` into two positive parts."""
    a = rng.randint(1, total - 1)
    return a, total - a


def _split_three(rng: Xoshiro256StarStar, total: int) -> tuple[int, int, int]:
    """Uniform split of ``total`` into three positive parts (single draw)."""
    count = (total - 1) * (total - 2) // 2
    idx = rng.randint(0, count - 1)
    for a in range(1, total - 1):
        choices = total - 1 - a
        if idx < choices:
            return a, idx + 1, total - a - idx - 1
        idx -= choices
    raise AssertionError("split index out of range")


def job_shape_arcs(
    kind: str, head: int, mid: int, tail: int, first_id: int
) -> tuple[int, list[tuple[int, int]]]:
    """Arcs of one split/merge job; returns (op count, arcs with global ids).

    ``head`` operations form the initial path, ``mid`` the length of each of
    the kind's 2 or 3 parallel branches, ``tail`` the final path (zero for
    the sections a kind lacks).  Node ids are assigned section by section:
    initial path, each branch in turn, final path.  Every maximal path then
    has head + mid + tail nodes.
    """
    branches = int(kind[-1])
    arcs: list[tuple[int, int]] = []
    next_id = first_id

    def path(count: int) -> list[int]:
        nonlocal next_id
        ids = list(range(next_id, next_id + count))
        next_id += count
        arcs.extend((a, b) for a, b in zip(ids, ids[1:]))
        return ids

    head_ids = path(head) if head else []
    branch_ids = [path(mid) for _ in range(branches)]
    tail_ids = path(tail) if tail else []
    if head_ids:
        arcs.extend((head_ids[-1], br[0]) for br in branch_ids)
    if tail_ids:
        arcs.extend((br[-1], tail_ids[0]) for br in branch_ids)
    return next_id - first_id, arcs


def _dafjs_job(rng: Xoshiro256StarStar, machines: int, first_id: int) -> tuple[int, list[tuple[int, int]]]:
    """Draw one dafjs job: kind, maximal path length, section split.

    The drawn length range is clamped from below to the minimum the kind
    admits (relevant only for machine counts below five).
    """
    kind = DAFJS_JOB_KINDS[rng.randint(0, 5)]
    min_len = 3 if kind.startswith("DA") else 2
    lo = max(_ceil_div(machines, 2), min_len)
    hi = max(machines, lo)
    length = rng.randint(lo, hi)

    if kind.startswith("DA"):
        head, mid, tail = _split_three(rng, length)
    elif kind.startswith("D"):
        head, mid = _split_two(rng, length)
        tail = 0
    else:
        mid, tail = _split_two(rng, length)
        head = 0
    return job_shape_arcs(kind, head, mid, tail, first_id)


def generate_dafjs(params: DafjsParams) -> Instance:
    """Generate a disassembly/assembly instance.

    Per operation (after the structural draws of every job): eligibility
    size uniform in {ceil(0.3 m) .. ceil(0.7 m)}, a uniform machine subset,
    a base machine chosen uniformly among them with time uniform in
    {1..99}, and each remaining machine (ascending) uniform in
    {p .. min(3p, 99)} where p is the base time.
    """
    rng = Xoshiro256StarStar(params.seed)
    m = params.machines
    arcs: list[tuple[int, int]] = []
    total_ops = 0
    for _ in range(params.n_jobs):
        count, job_arcs = _dafjs_job(rng, m, total_ops)
        arcs.extend(job_arcs)
        total_ops += count

    size_lo, size_hi = _ceil_div(3 * m, 10), _ceil_div(7 * m, 10)
    machine_pool = list(range(1, m + 1))
    eligible = []
    times = []
    for _ in range(total_ops):
        size = rng.randint(size_lo, size_hi)
        machs = tuple(sorted(rng.sample(machine_pool, size)))
        base_machine = machs[rng.randint(0, len(machs) - 1)]
        base_time = rng.randint(1, 99)
        row = []
        for k in machs:
            if k == base_machine:
                row.append(base_time)
            else:
                row.append(rng.randint(base_time, min(3 * base_time, 99)))
        eligible.append(machs)
        times.append(tuple(row))

    name = f"DAFJS-n{params.n_jobs}-m{m}-s{params.seed}"
    return Instance(name, m, tuple(eligible), tuple(times), tuple(arcs))

"""Seeded input generators for the membership benchmark.

Every function takes a ``random.Random`` (or a seed) and returns plain data:
numbers, circuit text, instances of the reduction problems, or circuits built
from ``setcircuits`` gate objects. Nothing here calls an engine, so generator
time stays outside the timed phase.
"""
from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# number theory used only by the generators and the oracles


def is_prime_naive(n: int) -> bool:
    """Trial division up to sqrt(n); meant for n below about 10^12."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def small_primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime_naive(p)]


PRIMES_200 = small_primes(200)
ODD_PRIMES_200 = PRIMES_200[1:]
# Mersenne primes 2^p - 1, all at least 2^61: known primes, so the oracle
# needs no primality test at this size.
HUGE_PRIMES = tuple((1 << p) - 1 for p in (61, 89, 107, 127))
TWO_POW_61 = 1 << 61


def random_prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime_naive(n):
            return n


def product_of_distinct(rng: random.Random, pool, k: int, max_exp: int = 2) -> int:
    out = 1
    for p in rng.sample(pool, k):
        out *= p ** rng.randint(1, max_exp)
    return out


def smooth_at_least_2_61(rng: random.Random, need_two: bool) -> int:
    """2^a * 3^b >= 2^61 with a >= 1 when need_two, else a = 0 allowed."""
    a = rng.randint(1 if need_two else 0, 70)
    b = max(0, math.ceil((61 - a) / math.log2(3))) + rng.randint(0, 4)
    n = 2**a * 3**b
    while n < TWO_POW_61:
        n *= 3
    return n


# ---------------------------------------------------------------------------
# mulcomp-stream: fixed comp+mul circuits, seeded queries

PRIMES_TEXT = """circuit v1
# the primes: comp(0 union 1) is N>=2, its square under mul the composites
gate 1 input 0
gate 2 input 1
gate 3 union 1 2
gate 4 comp 3
gate 5 mul 4 4
gate 6 comp 5
gate 7 inter 6 4
output 7
"""

EVENS_TEXT = """circuit v1
# the even numbers: {2} mul comp({0} inter {1}) = {2} mul N
gate 1 input 0
gate 2 input 1
gate 3 inter 1 2
gate 4 comp 3
gate 5 input 2
gate 6 mul 5 4
output 6
"""

# One pass of mulcomp-stream: (circuit, query class, count). The count of each
# class is fixed, so every pass costs about the same; only the numbers drawn
# inside a class change with the seed. The vector dimension is 1 + the number
# of distinct primes among the labels and b; the comments give it and the
# cost at the seed commit. Of the 200 verdicts per pass, 40 are cheap, 120
# are omega3 and 40 cost about 40 ms, so p50 falls in the middle of omega3 and
# p90 in the middle of the 40 ms class, each well apart from its neighbours.
MULCOMP_DECK = (
    ("primes", "trivial", 4),  # b in {0, 1}: dim 1, 0.2 ms
    ("primes", "prime-power", 12),  # dim 2, 0.5 ms
    ("primes", "omega2", 10),  # dim 3, 2 ms
    ("primes", "omega3", 120),  # dim 4, 11 ms
    ("primes", "omega4", 6),  # dim 5: refused by the grid budget (40-65 ms at 10^6)
    ("primes", "omega5", 4),  # dim 6: refused by the grid budget
    ("primes", "huge-prime", 2),  # refused: factor, after 75 ms of trial division
    ("primes", "huge-semiprime", 2),  # refused: factor
    ("primes", "huge-smooth", 2),  # 2^a 3^b >= 2^61: dim 3, 2.5 ms
    ("evens", "trivial", 2),  # dim 2, 1.8 ms
    ("evens", "power-of-two", 10),  # dim 2, 1.8 ms
    ("evens", "one-odd-prime", 36),  # dim 3, 40 ms
    ("evens", "two-odd-primes", 4),  # dim 4: refused by the grid budget (0.9 s at 10^6)
    ("evens", "three-odd-primes", 2),  # dim 5: refused (17 s at the default budget)
    ("evens", "huge-prime", 1),
    ("evens", "huge-semiprime", 1),
    ("evens", "huge-smooth", 4),  # dim 3, 40 ms
)


def mulcomp_query(rng: random.Random, circuit: str, cls: str, big_primes) -> tuple[int, bool]:
    """One query b of the class, with the oracle's answer for that circuit."""
    if cls == "trivial":
        b = rng.randint(0, 1)
    elif cls == "prime-power":
        b = rng.choice(PRIMES_200) ** rng.randint(1, 3)
    elif cls.startswith("omega"):
        b = product_of_distinct(rng, PRIMES_200[:25], int(cls[5:]))
    elif cls == "power-of-two":
        b = 2 ** rng.randint(1, 40)
    elif "odd-prime" in cls:
        k = {"one": 1, "two": 2, "three": 3}[cls.split("-")[0]]
        b = 2 ** rng.randint(0, 3) * product_of_distinct(rng, ODD_PRIMES_200[:20], k)
    elif cls == "huge-prime":
        b = rng.choice(HUGE_PRIMES)
    elif cls == "huge-semiprime":
        p, q = rng.sample(big_primes, 2)
        b = p * q
    elif cls == "huge-smooth":
        b = smooth_at_least_2_61(rng, need_two=circuit == "primes" or rng.random() < 0.5)
    else:
        raise ValueError(f"unknown query class {cls!r}")
    if circuit == "evens":
        return b, b % 2 == 0
    if cls.startswith("huge"):
        return b, cls == "huge-prime"  # known by construction
    return b, is_prime_naive(b)


def mulcomp_big_primes(seed: int, count: int = 8) -> list[int]:
    """Primes in [2^31, 2^32): products of two exceed 2^61 with both above 10^6."""
    rng = random.Random(seed)
    return [random_prime_between(rng, 1 << 31, 1 << 32) for _ in range(count)]


def mulcomp_deck(seed: int, index: int, big_primes) -> list[tuple[str, str, int, bool]]:
    rng = random.Random(seed * 1_000_003 + index)
    ops = []
    for circuit, cls, count in MULCOMP_DECK:
        for _ in range(count):
            b, expect = mulcomp_query(rng, circuit, cls, big_primes)
            ops.append((circuit, cls, b, expect))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# reductions-ladder: instances of the four reductions at growing sizes


def gap_instance(rng: random.Random, n: int, reductions):
    edges = tuple(
        (a, b)
        for a in range(n)
        for b in range(a + 1, min(n, a + 7))
        if rng.random() < 0.45
    )
    s = rng.randrange(n // 4 + 1)
    t = rng.randrange(n - n // 4, n)
    return reductions.GapInstance(edges=edges, s=s, t=t, nodes=tuple(range(n)))


def cvp_instance(rng: random.Random, n_gates: int, reductions):
    names = [f"x{i}" for i in range(8)]
    assignment = {x: rng.random() < 0.5 for x in names}
    gates = [(x, "var", x) for x in names]
    ids = list(names)
    for i in range(n_gates):
        gid = f"g{i}"
        op = rng.choice(("not", "and", "or", "and", "or"))
        window = ids[-16:]
        if op == "not":
            gates.append((gid, op, rng.choice(window)))
        else:
            gates.append((gid, op, rng.choice(window), rng.choice(window)))
        ids.append(gid)
    return reductions.CvpInstance(gates=tuple(gates), output=ids[-1], assignment=assignment)


def majority_instance(rng: random.Random, n: int, reductions):
    children: dict = {}
    labels: dict = {}
    for v in range(n - 1, -1, -1):
        succs = list(range(v + 1, min(n, v + 9)))
        if v < n - 4:
            children[v] = tuple(rng.sample(succs, rng.randint(1, min(3, len(succs)))))
        else:
            labels[v] = rng.choice(("accept", "reject"))
    # nodes no longer reachable from the root are dropped by the reduction
    return reductions.MajorityDagInstance(root=0, children=children, labels=labels)


def exact_cover_instance(rng: random.Random, n: int, m: int, reductions):
    universe = tuple(range(n))
    sets = set()
    if rng.random() < 0.5:  # plant a solution half of the time
        perm = list(universe)
        rng.shuffle(perm)
        i = 0
        while i < n:
            k = rng.randint(2, 4)
            sets.add(tuple(sorted(perm[i : i + k])))
            i += k
    while len(sets) < m:
        sets.add(tuple(sorted(rng.sample(universe, rng.randint(2, 4)))))
    return reductions.ExactCoverInstance(universe=universe, sets=tuple(sorted(sets)))


# One pass of reductions-ladder: (reduction, size, count). Sizes grow
# geometrically; the comments give the cost at the seed commit. The counts put
# the 50 operations of a pass into five cost bands of 21, 8, 12, 8 and 1, so
# p50 falls in the middle of the 1-1.5 ms band, p90 in the middle of the
# 9-12 ms band and p99 on the largest cvp circuit, each band at least twice as
# costly as the one below. Exact cover stops at n=20, m=32: at n=24, m=40 one
# instance takes 0.1-1.1 s, so a few instances would set every figure.
LADDER_DECK = (
    ("exact-cover", (8, 10), 5),  # 0.25 ms
    ("majority", 20, 5),  # 0.4 ms
    ("exact-cover", (12, 16), 5),  # 0.4 ms
    ("gap", 40, 6),  # 0.4 ms
    ("exact-cover", (16, 24), 2),  # 1.0 ms
    ("cvp", 60, 2),  # 1.2 ms
    ("gap", 120, 2),  # 1.3 ms
    ("majority", 80, 2),  # 1.5 ms
    ("cvp", 200, 3),  # 3.9 ms
    ("gap", 360, 3),  # 4.0 ms
    ("exact-cover", (20, 32), 3),  # 4.5 ms (3-11 ms)
    ("majority", 240, 3),  # 4.8 ms
    ("gap", 800, 3),  # 9 ms
    ("cvp", 600, 3),  # 12 ms
    ("majority", 600, 2),  # 12 ms
    ("cvp", 1500, 1),  # 30 ms
)


def ladder_deck(seed: int, index: int, sc):
    """(reduction name, size, instance, Reduction, circuit text) per op."""
    rng = random.Random(seed * 1_000_003 + index)
    ops = [
        _ladder_op(rng, name, size, sc)
        for name, size, count in LADDER_DECK
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def _ladder_op(rng, name, size, sc):
    r = sc.reductions
    if name == "gap":
        inst = gap_instance(rng, size, r)
        red = r.from_gap(inst)
    elif name == "cvp":
        inst = cvp_instance(rng, size, r)
        red = r.from_cvp(inst)
    elif name == "majority":
        inst = majority_instance(rng, size, r)
        red = r.from_majority_dag(inst)
    else:
        inst = exact_cover_instance(rng, *size, r)
        red = r.from_exact_cover(inst)
    return (name, size, inst, red, sc.serialize_circuit(red.circuit))


# ---------------------------------------------------------------------------
# random-corpus: many small seeded circuits, a few queries each

CLAMPABLE_SCALAR_OPS = ("union", "inter", "comp", "add", "div")
COMPFREE_SCALAR_OPS = ("union", "inter", "add", "mul", "div")
VECTOR_OPS = ("union", "inter", "comp", "add", "sub")
VECTOR_COMPFREE_OPS = ("union", "inter", "add", "sub")
SCALAR_CUTOFF_CAP = 200


def cutoffs(c) -> dict:
    """Per-gate cutoffs by the recurrence documented in setcircuits.bounds.

    Computed here, not by the package, so the generated corpus does not
    change when the package's own cutoff code changes.
    """
    cut: dict = {}
    for g in c.gates:
        k = str(g.kind)
        if k == "input":
            v = g.value
            if isinstance(v, tuple):
                cut[g.gid] = max(v) + 2
            else:  # a natural number, or inf (cutoff 1)
                cut[g.gid] = v + 2 if isinstance(v, int) else 1
        elif k == "add":
            cut[g.gid] = cut[g.preds[0]] + cut[g.preds[1]]
        elif k in ("union", "inter"):
            cut[g.gid] = max(cut[g.preds[0]], cut[g.preds[1]])
        else:  # comp, div, sub: the first predecessor's cutoff
            cut[g.gid] = cut[g.preds[0]]
    return cut


def grid_work(c) -> int:
    """Cells a clamped vector evaluation visits, by the worst-case counts:
    (n+1)^dim per gate, add ((n+1)(n+2)/2)^dim pairs, sub (n+1)^dim (w+1)^dim."""
    cut = cutoffs(c)
    d = c.dim
    work = 0
    for g in c.gates:
        n = cut[g.gid]
        k = str(g.kind)
        if k == "add":
            work += ((n + 1) * (n + 2) // 2) ** d
        elif k == "sub":
            w = max(cut[g.preds[0]], cut[g.preds[1]])
            work += (n + 1) ** d * (w + 1) ** d
        elif k != "input":
            work += (n + 1) ** d
    return work


def reference_work(c) -> int:
    """Upper bound on the calls tests/refeval.py's vector reference makes:
    add and sub enumerate a box of side cutoff + 6 (its slack is 5) per call
    of their predecessors, without counting its memo."""
    cut = cutoffs(c)
    work: dict = {}
    for g in c.gates:
        k = str(g.kind)
        below = sum(work[p] for p in g.preds)
        if k in ("add", "sub"):
            side = max(cut[p] for p in g.preds) + 6
            work[g.gid] = side**c.dim * below
        else:
            work[g.gid] = below or 1
    return work[c.output]


def scalar_reference_work(c, z: int) -> int:
    """Upper bound on the calls tests/refeval.py's scalar reference makes for
    query z: add splits its value every way, div tries every witness up to
    its cap (cutoff + 53) and asks the dividend for value * witness."""
    cut = cutoffs(c)

    def work(gid, v):
        g = c.gate(gid)
        k = str(g.kind)
        if k == "input":
            return 1
        if k == "add":
            return (v + 1) * (work(g.preds[0], v) + work(g.preds[1], v))
        if k == "div":
            cap = max(cut[p] for p in g.preds) + 53
            return cap * (work(g.preds[0], v * cap) + work(g.preds[1], cap))
        return sum(work(p, v) for p in g.preds)

    return work(c.output, z)


def _random_gates(rng, sc, ops, labels, max_gates):
    G = sc.GateKind
    gates = [sc.Gate(i + 1, G.INPUT, value=v) for i, v in enumerate(labels)]
    total = rng.randint(len(gates) + 1, max_gates)
    while len(gates) < total:
        gid = len(gates) + 1
        kind = G(rng.choice(ops))
        if kind is G.COMP:
            preds = (rng.randint(1, gid - 1),)
        else:
            preds = (rng.randint(1, gid - 1), rng.randint(1, gid - 1))
        gates.append(sc.Gate(gid, kind, preds=preds))
    return tuple(gates)


def random_clampable_scalar(rng, sc):
    while True:
        labels = [rng.randint(0, 60) for _ in range(rng.randint(1, 3))]
        gates = _random_gates(rng, sc, CLAMPABLE_SCALAR_OPS, labels, 7)
        c = sc.Circuit(gates, output=len(gates))
        if max(cutoffs(c).values()) <= SCALAR_CUTOFF_CAP:
            return c


def random_compfree_scalar(rng, sc):
    """Comp-free, and mul only together with add, so no vector transform runs."""
    while True:
        labels = [rng.randint(0, 60) for _ in range(rng.randint(1, 3))]
        gates = _random_gates(rng, sc, COMPFREE_SCALAR_OPS, labels, 6)
        kinds = {str(g.kind) for g in gates}
        if "mul" in kinds and "add" not in kinds:
            continue
        return sc.Circuit(gates, output=len(gates))


def random_vector(rng, sc, dim: int, comp: bool, work_range=None):
    """A vector circuit; with comp it is decided on clamped grids, and its
    grid_work lies in work_range = (lo, hi)."""
    ops = VECTOR_OPS if comp else VECTOR_COMPFREE_OPS
    while True:
        labels = [
            sc.INF if rng.random() < 0.15 else tuple(rng.randint(0, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 2))
        ]
        gates = _random_gates(rng, sc, ops, labels, 6)
        if comp and not any(str(g.kind) == "comp" for g in gates):
            continue
        c = sc.Circuit(gates, output=len(gates), dim=dim, vector=True)
        if work_range is None:
            return c
        lo, hi = work_range
        if lo <= grid_work(c) < hi:
            return c


# One pass of random-corpus: (fragment, dims of its circuits, grid work range).
# Vector circuits with comp are drawn in fixed numbers per grid-work class,
# so the vecrep_apply tail has the same shape in every pass; work stays below
# 10^4 (dim 3 at cutoff 14 took seconds). About 82% of the operations are
# cheap, 16% mid and 2% high, which puts p90 inside "mid" and p99 inside "high".
CORPUS_DECK = (
    ("clampable-scalar", (1,) * 60, None),
    ("compfree-scalar", (1,) * 30, None),
    ("vector-compfree", (1, 2, 3, 4) * 3, None),
    ("vector-low", (1, 2, 3, 4) * 2, (0, 10**2.5)),
    ("vector-mid", (2, 3, 4) * 7, (10**2.5, 10**3.5)),
    ("vector-high", (2, 3, 4), (10**3.5, 10**4)),
)
CORPUS_QUERIES = 3


def corpus_deck(seed: int, index: int, sc):
    """(fragment, circuit, query) per op, CORPUS_QUERIES queries per circuit."""
    rng = random.Random(seed * 1_000_003 + index)
    ops = []
    for frag, dims, work in CORPUS_DECK:
        for dim in dims:
            if frag == "clampable-scalar":
                c = random_clampable_scalar(rng, sc)
                top = max(cutoffs(c).values()) + 3
                queries = [rng.randint(0, top) for _ in range(CORPUS_QUERIES)]
            elif frag == "compfree-scalar":
                c = random_compfree_scalar(rng, sc)
                queries = [rng.randint(0, 130) for _ in range(CORPUS_QUERIES)]
            else:
                c = random_vector(rng, sc, dim, comp=frag != "vector-compfree", work_range=work)
                top = max(cutoffs(c).values()) + 2
                queries = [
                    sc.INF if rng.random() < 0.1
                    else tuple(rng.randint(0, top) for _ in range(dim))
                    for _ in range(CORPUS_QUERIES)
                ]
            ops.extend((frag, c, q) for q in queries)
    rng.shuffle(ops)
    return ops

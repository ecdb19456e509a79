"""Acceptance gate: ten end-to-end checks, one test and one verdict line each.

Run with `pytest -v tests/test_acceptance.py`; every criterion below then
reports exactly one PASSED or FAILED line. Each test also prints a
`criterion NN PASS` line that surfaces with -s or in failure output.
"""

import random
import time

import pytest

from setcircuits import (
    EngineBudget,
    GateKind,
    NotRepresentable,
    OpenFragmentError,
    decide,
    eliminate_cap,
    eval_clamped_scalar,
    eval_singleton,
    parse_circuit,
    subcircuit_at,
    to_vector_gcdfree,
    value_bound,
    xcheck_circuit,
)
from setcircuits.cli import main as cli_main
from setcircuits.reductions import (
    cvp_value,
    exact_cover_solvable,
    from_cvp,
    from_exact_cover,
    from_gap,
    from_majority_dag,
    gap_has_path,
    majority_accepts,
    primes_circuit,
)

from circgen import bounded_scalar, bounded_vector, random_scalar
from refeval import exact_sets_bruteforce, ref_member_scalar
from test_reductions import _random_cvp, _random_majority

TIGHT = EngineBudget(max_set_elems=10**5, max_grid_cells=3 * 10**5, max_memo_entries=3 * 10**5)

CLAMPABLE_SCALAR = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.DIV)
CLAMPABLE_VECTOR = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.SUB)


def _naive_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_c01_primes_circuit_membership():
    c = primes_circuit()
    start = time.monotonic()
    for b in range(101):
        v = decide(c, b)
        assert v.engine == "clamped-vector"
        assert v.member == _naive_prime(b), f"b={b}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 01 PASS: primes circuit, b in [0,100], {elapsed:.2f}s")


def test_c02_singleton_and_empty():
    zero = parse_circuit("circuit v1\ngate 1 input 0\noutput 1\n")
    assert decide(zero, 0).member is True
    assert decide(zero, 0).engine == "singleton"
    for b in (1, 2, 3, 17):
        assert decide(zero, b).member is False
    empty = parse_circuit("circuit v1\ngate 1 input 0\ngate 2 div 1 1\noutput 2\n")
    for b in range(8):
        assert decide(empty, b).member is False
    print("criterion 02 PASS: {0} and the empty set answer correctly")


def test_c03_even_numbers_circuit():
    c = parse_circuit(
        "circuit v1\n"
        "gate 1 input 0\n"
        "gate 2 input 1\n"
        "gate 3 inter 1 2\n"
        "gate 4 comp 3\n"
        "gate 5 input 2\n"
        "gate 6 mul 5 4\n"
        "output 6\n"
    )
    for b in range(41):
        assert decide(c, b).member == (b % 2 == 0), f"b={b}"
    print("criterion 03 PASS: {2} times N gives the evens on [0,40]")


def test_c04_membership_constant_past_cutoffs():
    rng = random.Random(20260816)
    violations = 0
    for _ in range(1000):
        c = bounded_scalar(
            rng, CLAMPABLE_SCALAR, max_cutoff=30, max_gates=8, max_label=8
        )
        reps, _ = eval_clamped_scalar(c)
        for g in c.gates:
            rep = reps[g.gid]
            n = rep.cutoff
            sub = subcircuit_at(c, g.gid)
            for k in (0, 1, 2, 5, 13, 50):
                if ref_member_scalar(sub, n + k) != rep.tail:
                    violations += 1
    assert violations == 0
    print("criterion 04 PASS: 1000 circuits, tails constant on [cutoff, cutoff+50]")


def test_c05_value_bounds_cover_reachable_values():
    rng = random.Random(31337)
    ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
    for _ in range(500):
        c = random_scalar(rng, ops, max_gates=6, max_label=8)
        vb = value_bound(c)
        for s in exact_sets_bruteforce(c).values():
            for v in s:
                assert vb.contains(v), f"v={v}\n{c}"
    print("criterion 05 PASS: value bounds hold on 500 complement-free circuits")


def test_c06_gcdfree_route_agreement():
    rng = random.Random(271828)
    ops = (GateKind.UNION, GateKind.INTER, GateKind.MUL, GateKind.DIV)
    for _ in range(300):
        c = random_scalar(rng, ops, max_gates=5, max_label=30)
        out = exact_sets_bruteforce(c)[c.output]
        for b in (0, 1, rng.randrange(2, 61), rng.randrange(2, 61)):
            try:
                vc, q, emap = to_vector_gcdfree(c, b)
            except NotRepresentable:
                assert b not in out, f"b={b}\n{c}"
                continue
            assert decide(vc, q).member == (b in out), f"b={b}\n{c}"
    print("criterion 06 PASS: gcd-free vector route agrees on 300 circuits")


def test_c07_cap_elimination_preserves_values():
    rng = random.Random(1618)
    ops = (GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
    for _ in range(300):
        c = random_scalar(rng, ops, max_gates=6, max_label=9)
        e = eliminate_cap(c)
        assert GateKind.INTER not in {g.kind for g in e.gates}
        assert eval_singleton(c)[c.output] == eval_singleton(e)[e.output], str(c)
    print("criterion 07 PASS: cap elimination preserves 300 singleton circuits")


def test_c08_reduction_biconditionals():
    rng = random.Random(6174)
    start = time.monotonic()
    for _ in range(200):
        n = rng.randrange(1, 7)
        universe = tuple(range(n))
        pool = set()
        while len(pool) < rng.randrange(1, 6):
            pool.add(frozenset(rng.sample(universe, rng.randrange(1, n + 1))))
        from setcircuits.reductions import ExactCoverInstance

        inst = ExactCoverInstance(universe=universe, sets=tuple(sorted(pool, key=sorted)))
        red = from_exact_cover(inst)
        assert red.answer(decide(red.circuit, red.query).member) == exact_cover_solvable(inst)
    t_ec = time.monotonic() - start

    start = time.monotonic()
    for _ in range(200):
        n = rng.randrange(2, 9)
        edges = tuple(
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
        )
        from setcircuits.reductions import GapInstance

        inst = GapInstance(edges=edges, s=rng.randrange(n), t=rng.randrange(n), nodes=tuple(range(n)))
        red = from_gap(inst)
        assert red.answer(decide(red.circuit, red.query).member) == gap_has_path(inst)
    t_gap = time.monotonic() - start

    start = time.monotonic()
    for _ in range(200):
        inst = _random_cvp(rng)
        red = from_cvp(inst)
        assert red.answer(decide(red.circuit, red.query).member) == cvp_value(inst)
    t_cvp = time.monotonic() - start

    start = time.monotonic()
    for _ in range(200):
        inst = _random_majority(rng)
        red = from_majority_dag(inst)
        assert red.answer(decide(red.circuit, red.query).member) == majority_accepts(inst)
    t_maj = time.monotonic() - start

    for name, t in (("exact-cover", t_ec), ("gap", t_gap), ("cvp", t_cvp), ("majority", t_maj)):
        assert t < 60.0, f"{name} suite took {t:.1f}s"
    print(
        "criterion 08 PASS: 200 instances per reduction agree "
        f"(ec {t_ec:.1f}s, gap {t_gap:.1f}s, cvp {t_cvp:.1f}s, maj {t_maj:.1f}s)"
    )


def test_c09_engine_cross_check():
    rng = random.Random(8128)
    disagreements = []
    compared = 0  # circuits on which two or more engines answered; xcheck compares nothing on the rest

    def xcheck(c, max_b):
        nonlocal compared
        res = xcheck_circuit(c, max_b=max_b, budget=TIGHT)
        if len(res.answered) >= 2:
            compared += 1
        return res.problems

    for _ in range(150):
        c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=14, max_gates=5, max_label=5)
        disagreements += xcheck(c, 8)
    ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
    for _ in range(150):
        c = random_scalar(rng, ops, max_gates=5, max_label=6)
        disagreements += xcheck(c, 8)
    mulops = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL, GateKind.DIV)
    for _ in range(100):
        c = random_scalar(rng, mulops, max_gates=5, max_label=6)
        disagreements += xcheck(c, 8)
    for dim in (1, 2, 3):
        for _ in range(12):
            c = bounded_vector(
                rng, CLAMPABLE_VECTOR, max_cutoff=6, dim=dim, max_gates=4, max_coord=2
            )
            disagreements += xcheck(c, 4)
    assert disagreements == []
    assert compared > 0
    print(f"criterion 09 PASS: engines agree across {compared} cross-checked circuits")


def test_c10_open_fragment_refused(tmp_path):
    text = (
        "circuit v1\n"
        "gate 1 input 2\n"
        "gate 2 comp 1\n"
        "gate 3 add 2 1\n"
        "gate 4 mul 3 1\n"
        "output 4\n"
    )
    c = parse_circuit(text)
    with pytest.raises(OpenFragmentError):
        decide(c, 5)
    p = tmp_path / "open.circ"
    p.write_text(text)
    assert cli_main(["member", str(p), "5"]) == 4
    print("criterion 10 PASS: comp+add+mul is refused by library and CLI")

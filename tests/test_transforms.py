import math
import random
from collections import Counter

import pytest

from setcircuits import (
    INF,
    BudgetExceeded,
    Circuit,
    EngineBudget,
    ExponentMap,
    FragmentError,
    Gate,
    GateKind,
    NotRepresentable,
    applicable_engines,
    decide,
    demorgan_rewrite,
    eliminate_cap,
    eval_clamped_vector,
    eval_exact,
    eval_singleton,
    expand_formula,
    factorize,
    fragment_of,
    parse_circuit,
    to_vector_gcdfree,
    to_vector_primefact,
)
from setcircuits.numtheory import miller_rabin, primes_upto
from setcircuits.reductions import primes_circuit

from circgen import bounded_scalar, deep_chain, random_scalar
from refeval import exact_sets_bruteforce
from test_circuit import PRIMES_TEXT


def _mul_circuit():
    return parse_circuit(
        "circuit v1\n"
        "gate 1 input 6\n"
        "gate 2 input 10\n"
        "gate 3 mul 1 2\n"
        "output 3\n"
    )


class TestGcdFreeVectorization:
    def test_labels_become_exponent_vectors(self):
        vc, q, emap = to_vector_gcdfree(_mul_circuit(), 60)
        assert emap.base == (2, 3, 5)
        assert vc.dim == 3
        assert q == (2, 1, 1)
        labels = {g.gid: g.value for g in vc.gates if g.kind is GateKind.INPUT}
        assert labels == {1: (1, 1, 0), 2: (1, 0, 1)}
        kinds = {g.gid: g.kind for g in vc.gates}
        assert kinds[3] is GateKind.ADD

    def test_query_primes_stay_out_of_the_basis(self):
        for b in (0, 1, 60, 3600):
            assert to_vector_gcdfree(_mul_circuit(), b)[2].base == (2, 3, 5)
        with pytest.raises(NotRepresentable):
            to_vector_gcdfree(_mul_circuit(), 7)

    def test_zero_maps_to_inf(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 0\ngate 2 input 1\ngate 3 mul 1 2\noutput 3\n"
        )
        vc, q, emap = to_vector_gcdfree(c, 0)
        assert q is INF
        labels = {g.gid: g.value for g in vc.gates if g.kind is GateKind.INPUT}
        assert labels[1] is INF
        assert labels[2] == tuple([0] * vc.dim)

    def test_agreement_with_scalar_semantics(self):
        rng = random.Random(11)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.MUL, GateKind.DIV)
        for _ in range(60):
            c = random_scalar(rng, ops, max_gates=5, max_label=12)
            out = exact_sets_bruteforce(c)[c.output]
            for b in (0, 1, rng.randrange(1, 40), rng.randrange(1, 40)):
                try:
                    vc, q, emap = to_vector_gcdfree(c, b)
                except NotRepresentable:
                    assert b not in out, f"b={b}\n{c}"
                    continue
                got = decide(vc, q).member
                assert got == (b in out), f"b={b}\n{c}"


class TestImagesAreValidCircuits:
    """The vector images are derived without a second check; a checked
    Circuit built from the same gates must be equal to them."""

    @pytest.mark.parametrize("to_vector, ops", [
        (to_vector_gcdfree, (GateKind.UNION, GateKind.INTER, GateKind.MUL, GateKind.DIV)),
        (to_vector_primefact, (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL,
                               GateKind.DIV)),
    ])
    def test_image_equals_checked_circuit(self, to_vector, ops):
        rng = random.Random(167)
        for _ in range(150):
            c = random_scalar(rng, ops, max_gates=7, max_label=30)
            vc = to_vector(c, 0)[0]
            checked = Circuit(vc.gates, output=vc.output, dim=vc.dim, vector=True)
            assert vc == checked and vc.vector and vc.dim >= 1, str(c)
            assert fragment_of(vc) == fragment_of(checked)
            for g in c.gates:
                assert type(vc.gate(g.gid)) is Gate
                assert vc.gate(g.gid) == checked.gate(g.gid)


class TestPrimeFactorVectorization:
    def test_primes_circuit_shape(self):
        vc, q, emap = to_vector_primefact(primes_circuit(), 9)
        # the labels 0 and 1 have no primes: only the spill slot is left
        assert emap.base == ()
        assert vc.dim == 1
        assert q == (2,)
        kinds = {g.gid: g.kind for g in vc.gates}
        assert kinds[5] is GateKind.ADD  # mul turned into vector addition

    def test_membership_transfers(self):
        pc = primes_circuit()
        for b in range(25):
            vc, q, emap = to_vector_primefact(pc, b)
            got = decide(vc, q).member
            assert got == (b in (2, 3, 5, 7, 11, 13, 17, 19, 23)), f"b={b}"

    def test_spill_slot_separates_foreign_primes(self):
        # {6} over base (3,): 6 = 3^1 * 2, so the spill coordinate is busy
        c = parse_circuit("circuit v1\ngate 1 input 6\noutput 1\n")
        vc, q, emap = to_vector_primefact(c, 3)
        assert decide(vc, q).member is False
        vc, q, emap = to_vector_primefact(c, 6)
        assert decide(vc, q).member is True


def _query_in_basis_route(c, b):
    """The earlier prime-factor map, whose base also held the query's primes."""
    primes = set()
    for n in [g.value for g in c.gates if g.kind is GateKind.INPUT] + [b]:
        if n >= 1:
            primes.update(factorize(n))
    emap = ExponentMap(kind="prime-factors", base=tuple(sorted(primes)))
    swap = {GateKind.MUL: GateKind.ADD, GateKind.DIV: GateKind.SUB}
    gates = tuple(
        Gate(gid=g.gid, kind=g.kind, value=emap.apply(g.value))
        if g.kind is GateKind.INPUT
        else Gate(gid=g.gid, kind=swap.get(g.kind, g.kind), preds=g.preds)
        for g in c.gates
    )
    return Circuit(gates=gates, output=c.output, dim=emap.dim, vector=True), emap.apply(b)


class TestLabelOnlyBasis:
    """The bases come from the labels alone; the argument for that is in the
    to_vector_* docstrings, and these tests check it on random circuits."""

    def test_prime_factor_route_matches_query_in_basis_route(self):
        rng = random.Random(2718)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL, GateKind.DIV)
        budget = EngineBudget(max_grid_cells=2 * 10**4)
        circuits = queries = 0
        for _ in range(120):
            c = random_scalar(rng, ops, max_gates=5, max_label=12)
            compared = 0
            for b in list(range(9)) + [rng.randrange(9, 400) for _ in range(3)]:
                try:
                    vc, q = _query_in_basis_route(c, b)
                    want = decide(vc, q, budget=budget).member
                    got = decide(*to_vector_primefact(c, b)[:2], budget=budget).member
                except BudgetExceeded:
                    continue
                assert got == want, f"b={b}\n{c}"
                compared += 1
            circuits += compared > 0
            queries += compared
        assert circuits >= 80 and queries >= 800

    def test_staged_spill_matches_exact_apply(self):
        """The clamped-vector route on the scalar circuit, which reads the
        spill across intervals, against the exact map, on queries whose
        foreign primes lie past 1000, some past 10^6, yet within reach of
        factorize."""
        rng = random.Random(2718)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL, GateKind.DIV)
        budget = EngineBudget(max_grid_cells=2 * 10**4)
        queries = 0
        for _ in range(120):
            c = random_scalar(rng, ops, max_gates=5, max_label=12)
            vc, _, emap = to_vector_primefact(c, 0)
            try:
                rep = eval_clamped_vector(vc, budget=budget)[1]
            except BudgetExceeded:
                continue
            for _ in range(8):
                b = _foreign_query(rng, emap.base)
                v = decide(c, b, engine="clamped-vector", budget=budget)
                assert v.member == rep.member(emap.apply(b)), f"b={b}\n{c}"
                queries += 1
        assert queries >= 600

    def test_gcdfree_routes_match_bruteforce(self):
        rng = random.Random(3141)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.MUL, GateKind.DIV)
        unrepresentable = 0
        for _ in range(100):
            c = random_scalar(rng, ops, max_gates=5, max_label=30)
            out = exact_sets_bruteforce(c)[c.output]
            emap = to_vector_gcdfree(c, 0)[2]
            names = [n for n in ("exact-vector", "singleton-vector") if n in applicable_engines(c)]
            for b in sorted(out)[:3] + [0, 1, rng.randrange(2, 100), rng.randrange(2, 100)]:
                try:
                    emap.apply(b)
                except NotRepresentable:
                    unrepresentable += 1
                for name in names:
                    assert decide(c, b, engine=name).member == (b in out), f"{name} b={b}\n{c}"
        assert unrepresentable >= 20


# primes past 1000, and past 10^6
MID_PRIMES = [p for p in primes_upto(3000) if p > 1000]
BIG_PRIMES = (1_000_003, 99_999_989, 999_999_937)


def _foreign_query(rng, base):
    b = 1
    for p in base + (13, 997):
        b *= p ** rng.randint(0, 2)
    for _ in range(rng.randint(0, 3)):
        b *= rng.choice(MID_PRIMES)
    if rng.random() < 0.4:
        b *= rng.choice(BIG_PRIMES)
    return b


def _random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if miller_rabin(n):
            return n


def _omega_equals(k):
    """The naturals with exactly k prime factors, counted with multiplicity."""
    lines = ["circuit v1", "gate 1 input 0", "gate 2 input 1", "gate 3 union 1 2", "gate 4 comp 3"]
    for i in range(k):  # gate 5 + i: at least i + 2 prime factors
        lines.append(f"gate {5 + i} mul {4 + i} 4")
    lines += [f"gate 20 comp {4 + k}", f"gate 21 inter {3 + k} 20", "output 21"]
    return parse_circuit("\n".join(lines) + "\n")


# the primes and evens circuits of the membership benchmark (perfbench/gen.py)
EVENS = parse_circuit(
    "circuit v1\ngate 1 input 0\ngate 2 input 1\ngate 3 inter 1 2\ngate 4 comp 3\n"
    "gate 5 input 2\ngate 6 mul 5 4\noutput 6\n"
)


class TestStagedSpill:
    def test_steps_on_omega_layers(self):
        rng = random.Random(61)
        steps = Counter()
        for k in (1, 2, 3):
            c = _omega_equals(k)
            for _ in range(150):
                b = _foreign_query(rng, (2, 3))
                omega = sum(factorize(b).values())
                v = decide(c, b, engine="clamped-vector")
                assert v.member == (omega == k), f"k={k} b={b}"
                lo, hi = v.stats["spill"]
                assert lo <= omega <= hi
                steps[v.stats["step"]] += 1
        assert min(steps[s] for s in ("exact", "prime-test", "factored")) >= 3, steps

    def test_intervals_narrow_and_hold_omega(self):
        rng = random.Random(89)
        for _ in range(300):
            rest = _foreign_query(rng, ())
            omega = sum(factorize(rest).values())
            prev = (0, rest.bit_length())
            for lo, hi, _ in ExponentMap.spill_bounds(rest):
                assert prev[0] <= lo <= omega <= hi <= prev[1], rest
                prev = (lo, hi)
            assert prev == (omega, omega)

    def test_factored_step_on_products_of_large_primes(self):
        # two or three prime factors past 10^6; within the default step bound
        # rho splits off every prime below 2^26
        rng = random.Random(26)
        steps = Counter()
        for k in (2, 3):
            c = _omega_equals(k)
            for _ in range(4):
                primes = [_random_prime(rng, 10**6, 2**26) for _ in range(k - 1)]
                primes.append(_random_prime(rng, 10**6, 2**40))
                for extra in (1, 7, 1_000_003):
                    b = extra * math.prod(primes)
                    v = decide(c, b, engine="clamped-vector")
                    assert v.member == (extra == 1), f"k={k} b={b}"
                    steps[v.stats["step"]] += 1
        assert set(steps) == {"factored"}, steps

    def test_huge_queries(self):
        primes = primes_circuit()
        p, q = 2_147_483_659, 4_294_967_291  # primes in [2^31, 2^32)
        assert decide(primes, 2**61 - 1).member is True
        assert decide(primes, p * q).member is False
        assert decide(EVENS, 2**127).member is True
        for e in (89, 107, 127):  # Mersenne primes past MR_BOUND, proved by certificate
            v = decide(primes, 2**e - 1)
            assert v.member is True and v.stats["step"] == "prime-test"
            assert decide(EVENS, 2**e - 1).member is False
        # n - 1 = 2 q1 q2 with q1, q2 prime near 2^64: rho cannot split off
        # enough of n - 1 to prove the prime n
        n = 2 * 19_282_901_516_542_751_161 * 18_788_459_943_534_510_863 + 1
        with pytest.raises(BudgetExceeded) as info:
            decide(primes, n)
        assert info.value.kind == "factor"
        assert decide(EVENS, n).member is False

    def test_stats_name_the_interval_and_step(self):
        primes = primes_circuit()
        assert decide(primes, 97).stats["step"] == "prime-test"
        assert decide(primes, 97).stats["spill"] == (1, 1)
        assert decide(primes, 1).stats["spill"] == (0, 0)
        assert decide(EVENS, 2**127 - 1).stats["step"] == "exact"
        assert "spill" not in decide(primes, 0).stats


def _prime_by_trial_division(b):
    return b >= 2 and all(b % d for d in range(2, math.isqrt(b) + 1))


def test_prime_factor_route_verdicts_pinned():
    # decide on the benchmark's primes (one axis) and evens (two axes) texts
    # against oracles that share no code with the engines
    primes = parse_circuit(PRIMES_TEXT)
    p, q = 4_294_967_291, 4_294_967_279
    assert _prime_by_trial_division(p) and _prime_by_trial_division(q)  # 32-bit primes
    huge = {2**61 - 1: True, p * q: False, 2**127 - 1: True}  # is b prime?
    for b in [*range(3001), *huge]:
        vp, ve = decide(primes, b), decide(EVENS, b)
        want = huge[b] if b in huge else _prime_by_trial_division(b)
        assert (vp.member, ve.member) == (want, b % 2 == 0), b
        assert (vp.engine, ve.engine) == ("clamped-vector", "clamped-vector"), b
        assert (vp.stats["dim"], ve.stats["dim"]) == (1, 2), b


def test_division_on_the_prime_factor_route_pinned():
    # the paper's division: P.P / P, (P.{4}) / {2} and comp(composites / {12})
    # on the prime-factor route at dims 1, 2 and 3, and {360} / N>=1 on the
    # clamped scalar route; trial division up to 150, and large b known by
    # construction: a prime p, 2p and twice the Mersenne prime 2^61 - 1
    assert PRIMES_TEXT.endswith("output 7\n")  # gate 4 is N>=2, gate 5 the composites, 7 P
    body = PRIMES_TEXT[: -len("output 7\n")]
    p = 10**9 + 7
    large = (p, 2 * p, 2 * (2**61 - 1))
    prime = _prime_by_trial_division
    cases = [
        (body + "gate 8 mul 7 7\ngate 9 div 8 7\noutput 9\n",
         prime, (True, False, False), "clamped-vector", 1),
        (body + "gate 8 input 4\ngate 9 mul 7 8\ngate 10 input 2\ngate 11 div 9 10\noutput 11\n",
         lambda b: b % 2 == 0 and prime(b // 2), (False, True, True), "clamped-vector", 2),
        (body + "gate 8 input 12\ngate 9 div 5 8\ngate 10 comp 9\noutput 10\n",
         lambda b: b == 0, (False, False, False), "clamped-vector", 3),
        ("circuit v1\ngate 1 input 360\ngate 2 input 0\ngate 3 comp 2\ngate 4 div 1 3\noutput 4\n",
         lambda b: b >= 1 and 360 % b == 0, (False, False, False), "clamped-scalar", None),
    ]
    for text, small, want_large, engine, dim in cases:
        c = parse_circuit(text)
        for b, want in [*((b, small(b)) for b in range(151)), *zip(large, want_large)]:
            v = decide(c, b)
            assert (v.member, v.engine, v.stats.get("dim")) == (want, engine, dim), (text, b)


class TestEliminateCap:
    def test_disjoint_singletons_give_empty(self):
        for a, b in ((6, 7), (3, 7)):
            c = parse_circuit(
                f"circuit v1\ngate 1 input {a}\ngate 2 input {b}\n"
                "gate 3 inter 1 2\noutput 3\n"
            )
            e = eliminate_cap(c)
            assert GateKind.INTER not in fragment_of(e)
            assert eval_exact(e)[e.output] == frozenset()

    def test_equal_singletons_survive(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 6\ngate 2 input 6\ngate 3 inter 1 2\noutput 3\n"
        )
        e = eliminate_cap(c)
        assert eval_exact(e)[e.output] == frozenset({6})

    def test_random_singleton_circuits_preserved(self):
        rng = random.Random(23)
        ops = (GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
        for _ in range(120):
            c = random_scalar(rng, ops, max_gates=5, max_label=9)
            e = eliminate_cap(c)
            assert GateKind.INTER not in fragment_of(e)
            assert eval_singleton(c)[c.output] == eval_singleton(e)[e.output], str(c)

    def test_refuses_union_and_comp(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 1\ngate 2 comp 1\ngate 3 inter 1 2\noutput 3\n"
        )
        with pytest.raises(FragmentError):
            eliminate_cap(c)


class TestDeMorgan:
    def test_inter_gates_disappear(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 2\ngate 2 input 3\n"
            "gate 3 inter 1 2\ngate 4 comp 3\noutput 4\n"
        )
        d = demorgan_rewrite(c)
        assert GateKind.INTER not in fragment_of(d)
        assert GateKind.COMP in fragment_of(d)

    def test_membership_preserved(self):
        rng = random.Random(37)
        ops = (
            GateKind.UNION,
            GateKind.INTER,
            GateKind.COMP,
            GateKind.ADD,
            GateKind.DIV,
        )
        checked = 0
        for _ in range(80):
            c = bounded_scalar(rng, ops, max_gates=5, max_label=5, max_cutoff=24)
            if GateKind.COMP not in fragment_of(c):
                continue
            d = demorgan_rewrite(c)
            for b in range(0, 12):
                assert decide(d, b).member == decide(c, b).member, f"b={b}\n{c}"
            checked += 1
        assert checked >= 30

    def test_refuses_comp_free_circuits(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\noutput 1\n")
        with pytest.raises(FragmentError):
            demorgan_rewrite(c)


class TestExpandFormula:
    def test_shared_gates_are_duplicated(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 2\ngate 2 add 1 1\ngate 3 add 2 2\noutput 3\n"
        )
        f = expand_formula(c)
        assert len(f.gates) == 7
        for g in f.gates:
            if g.gid != f.output:
                users = [h for h in f.gates if g.gid in h.preds]
                assert len(users) == 1

    def test_budget(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 2\ngate 2 add 1 1\ngate 3 add 2 2\noutput 3\n"
        )
        with pytest.raises(BudgetExceeded):
            expand_formula(c, max_gates=3)

    def test_membership_preserved(self):
        rng = random.Random(41)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL)
        for _ in range(40):
            c = random_scalar(rng, ops, max_gates=5, max_label=6)
            f = expand_formula(c)
            want = exact_sets_bruteforce(c)[c.output]
            got = exact_sets_bruteforce(f)[f.output]
            assert want == got, str(c)

    def test_deep_chains(self):
        n = 10**4
        comps = deep_chain(GateKind.COMP, n)
        assert expand_formula(comps) == comps  # no gate is shared
        # the shared input is cloned once per union, numbered in post-order
        # from the output: an input at 1 and at every even id, union 2k + 1
        # reading 2k - 1 and 2k
        unions = deep_chain(GateKind.UNION, n)
        leaf = Gate(1, GateKind.INPUT, value=0)
        gates = [leaf]
        for k in range(1, n):
            gates += [leaf._replace(gid=2 * k), Gate(2 * k + 1, GateKind.UNION, (2 * k - 1, 2 * k))]
        assert expand_formula(unions) == Circuit(tuple(gates), output=2 * n - 1)
        with pytest.raises(BudgetExceeded, match="formula exceeds 19998 gates") as e:
            expand_formula(unions, max_gates=2 * n - 2)
        assert e.value.kind == "expansion"

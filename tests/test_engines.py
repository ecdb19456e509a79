import dataclasses
import itertools
import random
import sys
import time

import pytest

from setcircuits import engines
from setcircuits import (
    INF,
    BudgetExceeded,
    Circuit,
    CutoffProfile,
    EngineBudget,
    FragmentError,
    GateKind,
    MembershipVerdict,
    NatSetRep,
    OpenFragmentError,
    applicable_engines,
    certificate_search,
    certified_cutoff,
    cutoff_profile,
    decide,
    eval_clamped_scalar,
    eval_clamped_vector,
    eval_exact,
    eval_singleton,
    eval_singleton_vector,
    fragment_of,
    parse_circuit,
    primes_circuit,
    search_member,
    structural_cutoff,
    subcircuit_at,
    verify_certificate,
    xcheck_circuit,
)
from setcircuits.engines import pick_engine
from setcircuits.setrep import natrep_apply, vecrep_apply, vecrep_from_label
from setcircuits.reductions import (
    CvpInstance,
    ExactCoverInstance,
    cvp_value,
    exact_cover_solvable,
    from_cvp,
    from_exact_cover,
)

from circgen import (
    SCALAR_FULL,
    VECTOR_FULL,
    bounded_scalar,
    bounded_vector,
    deep_chain,
    random_scalar,
    random_vector,
)
from refeval import exact_sets_bruteforce, ref_member_scalar, ref_member_vector
from test_circuit import PRIMES_TEXT
from test_transforms import EVENS

TIGHT = EngineBudget(max_set_elems=10**5, max_grid_cells=3 * 10**5, max_memo_entries=3 * 10**5)

CLAMPABLE_SCALAR = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.DIV)
CLAMPABLE_VECTOR = (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.SUB)

# {0, 2} + comp({1}): the add's structural cutoff is 4 + 3 = 7, so each of its
# shifts counts 8 cells. The sparser side, {0, 2}, needs two shifts, which a
# budget of 15 cells (one shift) refuses and one of 16 allows.
SHIFT_TEXT = (
    "circuit v1\ngate 1 input 0\ngate 2 input 2\ngate 3 union 1 2\ngate 4 input 1\n"
    "gate 5 comp 4\ngate 6 add 3 5\noutput 6\n"
)


# gate 5 feeds nothing: without it the circuit is {mul}-only
DEAD_COMP_TEXT = (
    "circuit v1\ngate 1 input 4\ngate 2 input 5\ngate 3 input 6\ngate 4 mul 1 2\n"
    "gate 5 comp 4\ngate 6 mul 4 2\noutput 6\n"
)


def _certified_table(c: Circuit, budget: EngineBudget = TIGHT):
    """The output's clamped table at the paper's certified cutoffs 2^|C_g| + 1,
    one natrep_apply or vecrep_apply per gate of the output's cone: the
    yardstick no engine decides by, which the structural verdicts must match."""
    cut = certified_cutoff(c).cutoffs
    reps = {}
    for gid, kind, preds, value in subcircuit_at(c, c.output).gates:
        n = cut[gid]
        if kind is GateKind.INPUT:
            reps[gid] = vecrep_from_label(value, c.dim, n) if c.vector else NatSetRep(n, 1 << value)
            continue
        b = None if kind is GateKind.COMP else reps[preds[1]]
        apply = vecrep_apply if c.vector else natrep_apply
        reps[gid] = apply(kind, reps[preds[0]], b, n, budget.max_grid_cells)
    return reps[c.output]


class TestSingleton:
    def test_matches_bruteforce(self):
        rng = random.Random(101)
        ops = (GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
        for _ in range(150):
            c = random_scalar(rng, ops, max_gates=6, max_label=9)
            vals = eval_singleton(c)
            sets = exact_sets_bruteforce(c)
            for gid, s in sets.items():
                want = next(iter(s)) if s else None
                assert vals[gid] == want, f"gate {gid}\n{c}"

    def test_vector_inf_rules(self):
        c = parse_circuit(
            "vcircuit v1 dim 2\n"
            "gate 1 input inf\n"
            "gate 2 input 1,2\n"
            "gate 3 add 1 2\n"   # inf + x = inf
            "gate 4 sub 2 1\n"   # x - inf is undefined, so empty
            "gate 5 sub 1 2\n"   # inf - x = inf
            "gate 6 inter 3 5\n"
            "output 6\n"
        )
        vals = eval_singleton_vector(c)
        assert vals[3] is INF
        assert vals[4] is None
        assert vals[5] is INF
        assert vals[6] is INF
        assert decide(c, INF).member is True
        assert decide(c, (0, 0)).member is False

    def test_vector_sub_componentwise(self):
        c = parse_circuit(
            "vcircuit v1 dim 2\n"
            "gate 1 input 5,3\n"
            "gate 2 input 2,3\n"
            "gate 3 sub 1 2\n"
            "output 3\n"
        )
        assert eval_singleton_vector(c)[3] == (3, 0)
        # one coordinate would go negative: the difference does not exist
        c2 = parse_circuit(
            "vcircuit v1 dim 2\n"
            "gate 1 input 5,3\n"
            "gate 2 input 2,4\n"
            "gate 3 sub 1 2\n"
            "output 3\n"
        )
        assert eval_singleton_vector(c2)[3] is None


class TestExact:
    def test_matches_bruteforce_scalar(self):
        rng = random.Random(103)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
        for _ in range(120):
            c = random_scalar(rng, ops, max_gates=5, max_label=7)
            assert eval_exact(c) == exact_sets_bruteforce(c), str(c)

    def test_matches_bruteforce_vector(self):
        rng = random.Random(107)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.SUB)
        for _ in range(80):
            c = random_vector(rng, ops, dim=2, max_gates=5, max_coord=3)
            assert eval_exact(c) == exact_sets_bruteforce(c), str(c)

    def test_set_size_budget(self):
        c = parse_circuit(
            "circuit v1\n"
            "gate 1 input 0\n"
            "gate 2 input 1\n"
            "gate 3 union 1 2\n"
            "gate 4 add 3 3\n"
            "gate 5 add 4 4\n"
            "output 5\n"
        )
        assert eval_exact(c)[5] == frozenset(range(5))
        with pytest.raises(BudgetExceeded):
            eval_exact(c, EngineBudget(max_set_elems=4))


class TestDemand:
    """eval_exact with a query keeps, at each gate of a {union, inter, div}
    circuit, the values that divide its demand: at the output, the full
    set's divisors of b (all of it for b = 0)."""

    def test_kept_sets_match_the_full_sets(self):
        rng = random.Random(263)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.DIV)
        zeros = dead = 0
        for _ in range(300):
            c = random_scalar(rng, ops, max_gates=rng.randint(2, 8), max_label=12)
            full = eval_exact(c)
            zeros += 0 in full[c.output]
            for b in range(30):
                kept = eval_exact(c, query=b)
                dead += len(kept) < len(full)
                assert all(kept[g] <= full[g] for g in kept), f"b={b}\n{c}"
                want = {v for v in full[c.output] if b == 0 or v and b % v == 0}
                assert kept[c.output] == want, f"b={b}\n{c}"
        assert zeros > 0 and dead > 0

    def test_decide_matches_bruteforce(self):
        rng = random.Random(269)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.DIV)
        for _ in range(60):
            c = random_scalar(rng, ops, max_gates=7, max_label=12)
            out = exact_sets_bruteforce(c)[c.output]
            for b in range(25):
                assert decide(c, b).member == (b in out), f"b={b}\n{c}"

    def test_a_query_needs_union_inter_div(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 add 1 1\noutput 2\n")
        with pytest.raises(FragmentError):
            eval_exact(c, query=4)

    def test_exact_cover_24_40_is_decided_on_exact(self):
        rng = random.Random(277)
        for i in range(6):
            inst = _exact_cover(rng, 24, 40, i % 2 == 0)
            red = from_exact_cover(inst)
            v = decide(red.circuit, red.query)
            assert v.engine == "exact"
            assert red.answer(v.member) == exact_cover_solvable(inst), inst

    def test_a_planted_32_64_instance_is_decided_in_under_a_second(self):
        # the full sets pass the 10^6-element budget, and the certificate
        # fallback then runs out of steps: refused after about 30 s
        red = from_exact_cover(_exact_cover(random.Random(3), 32, 64, True))
        t0 = time.perf_counter()
        v = decide(red.circuit, red.query)
        assert time.perf_counter() - t0 < 1.0
        assert (v.engine, v.member) == ("exact", True)

    def test_the_verdict_counts_the_elements_kept(self):
        red = from_exact_cover(_exact_cover(random.Random(283), 16, 24, True))
        c, b = red.circuit, red.query
        v = decide(c, b)
        assert v.stats["elems"] == sum(map(len, eval_exact(c, query=b).values()))
        assert v.stats["elems"] * 10 < sum(map(len, eval_exact(c).values()))

    def test_a_set_size_refusal_at_the_query_falls_back_to_certificate(self):
        red = from_exact_cover(_exact_cover(random.Random(293), 8, 10, True))
        v = decide(red.circuit, red.query, budget=EngineBudget(max_set_elems=2))
        assert (v.engine, v.member) == ("certificate", True)
        assert verify_certificate(red.circuit, red.query, v.witness)


class TestClampedScalar:
    def test_matches_reference_on_corpus(self):
        rng = random.Random(109)
        for _ in range(120):
            c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=24, max_gates=6, max_label=6)
            reps, out = eval_clamped_scalar(c)
            for b in range(0, out.cutoff + 8):
                assert out.member(b) == ref_member_scalar(c, b), f"b={b}\n{c}"

    def test_membership_constant_past_cutoff(self):
        rng = random.Random(113)
        for _ in range(50):
            c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=20, max_gates=5, max_label=5)
            reps, out = eval_clamped_scalar(c)
            n = out.cutoff
            base = ref_member_scalar(c, n)
            assert out.tail == base
            for k in (1, 7, 19, 30):
                assert ref_member_scalar(c, n + k) == base, f"k={k}\n{c}"

    def test_a_gate_past_the_grid_budget_is_refused(self):
        # gate 1's structural cutoff is 12: a 13-cell bitmap
        c = parse_circuit("circuit v1\ngate 1 input 10\ngate 2 comp 1\noutput 2\n")
        for run in (lambda bud: eval_clamped_scalar(c, bud), lambda bud: decide(c, 3, budget=bud)):
            with pytest.raises(BudgetExceeded, match="gate 1 needs a 13-cell bitmap") as e:
                run(EngineBudget(max_grid_cells=12))
            assert e.value.kind == "grid"
        assert decide(c, 3, budget=EngineBudget(max_grid_cells=13)).member is True

    def test_an_add_past_the_shift_budget_is_refused(self):
        c = parse_circuit(SHIFT_TEXT)
        with pytest.raises(BudgetExceeded, match="needs over 1 shifts") as e:
            decide(c, 5, budget=EngineBudget(max_grid_cells=15))
        assert e.value.kind == "grid"
        enough = EngineBudget(max_grid_cells=16)
        assert [decide(c, b, budget=enough).member for b in range(10)] == [
            ref_member_scalar(c, b) for b in range(10)
        ] == [True, False] + [True] * 8

    def test_refuses_mul(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 mul 1 1\noutput 2\n")
        with pytest.raises(FragmentError):
            eval_clamped_scalar(c)

    def test_each_distinct_kernel_application_runs_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return natrep_apply(*args)

        monkeypatch.setattr(engines, "natrep_apply", counting)
        rng = random.Random(197)
        for size in (30, 100, 300, 700):
            inst = _cvp_instance(rng, size)
            c = from_cvp(inst).circuit
            assert 60 <= len(c) <= 1500
            calls.clear()
            reps, out = eval_clamped_scalar(c)
            # every set is empty or full at one cutoff: the keys are {0} / {0},
            # comp of either set and div of each pair, whatever the size
            assert len(calls) == len(_unshared_keys(c, reps)) <= 7
            assert out.member(1) == cvp_value(inst)
        for _ in range(60):  # random circuits repeat few keys, and share those
            c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=20, max_gates=8, max_label=5)
            calls.clear()
            reps, _ = eval_clamped_scalar(c)
            assert len(calls) == len(_unshared_keys(c, reps)), str(c)
        # the result cutoff is part of the key: the structural profile fixes it
        # by the kind and the operands' cutoffs, but one that gives two comp
        # gates of one operand two cutoffs gets two applications
        cut = {1: 2, 2: 4, 3: 6}
        monkeypatch.setattr(engines, "cutoff_profile", lambda c: CutoffProfile(cut))
        c = parse_circuit("circuit v1\ngate 1 input 0\ngate 2 comp 1\ngate 3 comp 1\noutput 3\n")
        calls.clear()
        reps, _ = eval_clamped_scalar(c)
        assert len(calls) == 2 and (reps[2], reps[3]) == (NatSetRep(4, 30), NatSetRep(6, 126))


def _cvp_instance(rng: random.Random, n_gates: int) -> CvpInstance:
    """A boolean circuit on 8 variables; each gate reads the last 16 gates."""
    ids = [f"x{i}" for i in range(8)]
    assignment = {x: rng.random() < 0.5 for x in ids}
    gates = [(x, "var", x) for x in ids]
    for i in range(n_gates):
        op = rng.choice(("not", "and", "or"))
        args = rng.choices(ids[-16:], k=1 if op == "not" else 2)
        gates.append((f"g{i}", op, *args))
        ids.append(f"g{i}")
    return CvpInstance(gates=tuple(gates), output=ids[-1], assignment=assignment)


def _unshared_keys(c: Circuit, shared: dict) -> set:
    """The distinct (kind, operand reps, cutoff) keys of c, from reps built one
    natrep_apply or vecrep_apply per gate; asserts they equal the shared reps
    gate by gate."""
    cut = cutoff_profile(c).cutoffs
    apply = vecrep_apply if c.vector else natrep_apply
    reps, keys = {}, set()
    for gid, kind, preds, value in c.gates:
        if kind is GateKind.INPUT:
            n = cut[gid]
            reps[gid] = vecrep_from_label(value, c.dim, n) if c.vector else NatSetRep(n, 1 << value)
            continue
        operands = [reps[p] for p in preds]
        keys.add((kind, *operands, cut[gid]))
        reps[gid] = apply(kind, operands[0], None if kind is GateKind.COMP else operands[-1],
                          cut[gid])
    assert reps == shared
    return keys


class TestClampedVector:
    def test_matches_reference_on_corpus(self):
        rng = random.Random(127)
        for _ in range(35):
            c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=8, dim=2, max_gates=5, max_coord=3)
            reps, out = eval_clamped_vector(c, budget=TIGHT)
            n = out.cutoff
            pts = [(a, b) for a in range(n + 3) for b in range(n + 3)]
            for x in pts + [INF]:
                assert out.member(x) == ref_member_vector(c, x), f"x={x}\n{c}"

    def test_dim_three(self):
        rng = random.Random(131)
        for _ in range(8):
            c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=6, dim=3, max_gates=4, max_coord=2)
            reps, out = eval_clamped_vector(c, budget=TIGHT)
            n = out.cutoff
            for x in [(0, 0, 0), (n, 0, n), (n + 2, n + 2, n + 2), (1, n + 5, 0), INF]:
                assert out.member(x) == ref_member_vector(c, x), f"x={x}\n{c}"

    def test_per_coordinate_clamping_is_sound(self):
        # complement of the inf point plus (1,1): (0, big) stays out while
        # (big, big) is in, so a single saturation class cannot represent it
        c = parse_circuit(
            "vcircuit v1 dim 2\n"
            "gate 1 input inf\n"
            "gate 2 comp 1\n"
            "gate 3 input 1,1\n"
            "gate 4 add 2 3\n"
            "output 4\n"
        )
        reps, out = eval_clamped_vector(c)
        big = out.cutoff + 9
        assert out.member((big, big))
        assert not out.member((0, big))
        assert not out.member((big, 0))
        assert ref_member_vector(c, (7, 7)) and not ref_member_vector(c, (0, 7))

    def test_one_axis_gate_tables_match_reference(self):
        # one-axis tables are computed on bitmaps: check every gate, not just
        # the output, on [0, n + 2] and inf, and cross-check the engines
        rng = random.Random(167)
        for _ in range(60):
            c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=12, dim=1, max_gates=6, max_coord=4)
            reps, _ = eval_clamped_vector(c, budget=TIGHT)
            for i, g in enumerate(c.gates):
                upto = Circuit(c.gates[: i + 1], output=g.gid, dim=1, vector=True)
                rep = reps[g.gid]
                for x in [(v,) for v in range(rep.cutoff + 3)] + [INF]:
                    assert rep.member(x) == ref_member_vector(upto, x), f"gate {g.gid} x={x}\n{c}"
            assert xcheck_circuit(c, max_b=8, budget=TIGHT).problems == [], str(c)

    def test_each_distinct_kernel_application_runs_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return vecrep_apply(*args)

        monkeypatch.setattr(engines, "vecrep_apply", counting)
        for dim, label in [(1, "2"), (2, "1,0")]:  # comp 1 twice: one application
            c = parse_circuit(f"vcircuit v1 dim {dim}\ngate 1 input {label}\ngate 2 comp 1\n"
                              "gate 3 comp 1\ngate 4 union 2 3\noutput 4\n")
            calls.clear()
            reps, _ = eval_clamped_vector(c)
            assert [args[0] for args in calls] == [GateKind.COMP, GateKind.UNION]
            assert reps[2] is reps[3]
            calls.clear()
            decide(c, (0,) * dim)
            assert len(calls) == 2
        rng = random.Random(199)
        for dim in (1, 2):
            for _ in range(40):
                c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=8, dim=dim, max_gates=7,
                                   max_coord=2)
                calls.clear()
                reps, _ = eval_clamped_vector(c, budget=TIGHT)
                assert len(calls) == len(_unshared_keys(c, reps)), str(c)

    def test_mul_and_div_cannot_reach_it(self):
        # multiplicative gates are rejected when the vector circuit is built,
        # so every vector circuit is clampable by construction
        from setcircuits import CircuitError

        for op in ("mul", "div"):
            with pytest.raises(CircuitError, match=op):
                parse_circuit(f"vcircuit v1 dim 1\ngate 1 input 2\ngate 2 {op} 1 1\noutput 2\n")


# a dead tower of adds: gate 8's structural cutoff is 192, so its add needs
# about 2.3 * 10^7 decomposition pairs at dim 2, past the default budget.
# The output, gate 9, reads only gates 1 and 2.
DEAD_TOWER_TEXT = (
    "vcircuit v1 dim 2\ngate 1 input 1,0\ngate 2 comp 1\ngate 3 add 2 2\n"
    + "".join(f"gate {k} add {k - 1} {k - 1}\n" for k in range(4, 9))
    + "gate 9 inter 1 2\noutput 9\n"
)


def _with_dead_gates(rng, dim, max_cutoff, **kw):
    """A clampable vector circuit with comp whose output does not read every gate."""
    while True:
        c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=max_cutoff, dim=dim, **kw)
        if GateKind.COMP in fragment_of(c) and len(subcircuit_at(c, c.output)) < len(c):
            return c


class TestOutputCone:
    """A vector circuit whose route is clamped-vector is routed again on its
    output's cone, and clamped-vector tabulates that cone only."""

    @pytest.mark.parametrize("dim,max_cutoff,count", [(1, 12, 12), (2, 8, 12), (3, 5, 6)])
    def test_verdicts_match_search_and_reference(self, dim, max_cutoff, count):
        rng = random.Random(175 + dim)
        for _ in range(count):
            c = _with_dead_gates(rng, dim, max_cutoff, max_gates=7, max_coord=2)
            cone = subcircuit_at(c, c.output)
            route = pick_engine(cone)[0]  # clamped-vector where the cone has comp
            assert (route == "clamped-vector") == (GateKind.COMP in fragment_of(cone))
            n = structural_cutoff(c)[c.output]
            pts = list(itertools.product(range(n + 2), repeat=dim))
            for x in rng.sample(pts, min(len(pts), 12)) + [(n + 4,) * dim, INF]:
                v = decide(c, x, budget=TIGHT)
                assert v.engine == route and v.stats["gates"] == len(c)
                assert v.member == search_member(c, x, budget=TIGHT), f"x={x}\n{c}"
                assert v.member == ref_member_vector(c, x), f"x={x}\n{c}"

    def test_certified_verdicts_on_small_cones(self):
        # certified cutoffs are 2^|C_g| + 1: small only for cones of two or
        # three gates at dim 1; a dead gate may hold the largest of them
        rng = random.Random(181)
        for _ in range(15):
            c = _with_dead_gates(rng, 1, 6, max_gates=3, max_coord=2)
            table = _certified_table(c)
            for x in [(0,), (1,), (2,), (5,), (40,), INF]:
                v = decide(c, x, budget=TIGHT)
                assert v.engine == "clamped-vector"
                assert v.member == table.member(x), f"x={x}\n{c}"
                assert v.member == search_member(c, x, TIGHT), f"x={x}\n{c}"
                assert v.member == ref_member_vector(c, x), f"x={x}\n{c}"

    def test_one_vecrep_apply_per_distinct_cone_application(self, monkeypatch):
        calls = []

        def counting(kind, *args):
            calls.append(kind)
            return vecrep_apply(kind, *args)

        monkeypatch.setattr(engines, "vecrep_apply", counting)
        rng = random.Random(191)
        pruned = tabulated = 0
        for _ in range(20):
            c = _with_dead_gates(rng, 2, 8, max_gates=7, max_coord=2)
            cone = subcircuit_at(c, c.output)
            calls.clear()
            v = decide(c, (1, 1), budget=TIGHT)
            made = len(calls)
            if v.engine == "clamped-vector":
                tabulated += 1
                assert made == len(_unshared_keys(cone, eval_clamped_vector(cone, TIGHT)[0]))
            else:  # a comp-free cone takes a row with no grid
                assert made == 0 and GateKind.COMP not in fragment_of(cone)
            pruned += sum(g.kind is not GateKind.INPUT for g in c.gates) - made
        assert pruned > 0 and tabulated > 0

    def test_a_comp_free_cone_takes_a_comp_free_row(self):
        # gate 3 (comp) feeds nothing: the cone is {union} and routes exact,
        # and xcheck compares exact with the vector rows applicable to the cone
        c = parse_circuit("vcircuit v1 dim 2\ngate 1 input 1,0\ngate 2 input 0,2\n"
                          "gate 3 comp 1\ngate 4 union 1 2\noutput 4\n")
        assert pick_engine(c) == ("exact", subcircuit_at(c, 4))
        for x in [(1, 0), (0, 2), (1, 2), (0, 0), INF]:
            v = decide(c, x)
            assert (v.member, v.engine, v.stats["gates"]) == (x in [(1, 0), (0, 2)], "exact", 4)
            assert v.member == decide(c, x, engine="clamped-vector").member
            assert v.member == ref_member_vector(c, x)
        res = xcheck_circuit(c, max_b=4)
        assert res.problems == [] and len(res.answered) >= 2
        # a {add} cone routes singleton-vector
        add = parse_circuit("vcircuit v1 dim 1\ngate 1 input 1\ngate 2 comp 1\n"
                            "gate 3 add 1 1\noutput 3\n")
        assert [decide(add, (b,)).engine for b in range(4)] == ["singleton-vector"] * 4
        assert [decide(add, (b,)).member for b in range(4)] == [False, False, True, False]
        res = xcheck_circuit(add, max_b=6)
        assert res.problems == [] and len(res.answered) >= 2

    def test_a_dead_gate_past_the_budget_is_not_tabulated(self):
        c = parse_circuit(DEAD_TOWER_TEXT)
        with pytest.raises(BudgetExceeded, match="grid"):
            eval_clamped_vector(c)  # the whole circuit: gate 8 is past the budget
        # inter of {(1, 0)} with its complement is empty; their union is everything
        union = parse_circuit(DEAD_TOWER_TEXT.replace("inter 1 2", "union 1 2"))
        for circuit, member in [(c, False), (union, True)]:
            for x in [(1, 0), (0, 0), (2, 3), INF]:
                v = decide(circuit, x)
                assert (v.member, v.engine, v.stats["gates"]) == (member, "clamped-vector", 9)
                assert ref_member_vector(circuit, x) == member
        assert applicable_engines(c) == ["clamped-vector", "search"]
        # forced, clamped-vector still tabulates the cone only
        for x in [(1, 0), (0, 0), INF]:
            assert decide(c, x, engine="clamped-vector").member is False


class TestSearch:
    def test_agrees_with_clamped_scalar(self):
        rng = random.Random(137)
        for _ in range(60):
            c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=16, max_gates=5, max_label=5)
            reps, out = eval_clamped_scalar(c)
            for b in range(0, out.cutoff + 4):
                assert search_member(c, b) == out.member(b), f"b={b}\n{c}"

    def test_agrees_with_reference_on_vectors(self):
        rng = random.Random(139)
        for _ in range(20):
            c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=6, dim=2, max_gates=4, max_coord=2)
            n = structural_cutoff(c)[c.output]
            for x in [(0, 0), (1, n), (n + 2, 1), (n + 2, n + 2), INF]:
                assert search_member(c, x) == ref_member_vector(c, x), f"x={x}\n{c}"

    def test_reports_memo_stats(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 2\noutput 3\n")
        assert decide(c, 5, engine="search").stats["memo_entries"] >= 1

    def test_memo_budget(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 3\ngate 2 comp 1\n"
            "gate 3 add 2 2\ngate 4 add 3 3\noutput 4\n"
        )
        with pytest.raises(BudgetExceeded):
            search_member(c, 18, budget=EngineBudget(max_memo_entries=3))

    def test_div_at_zero_asks_the_dividend_first(self):
        # 0 is in A / B iff 0 is in A and B holds some w >= 1. The dividend is
        # {7}, so asking (4, 0) first settles the query in 2 pairs; asking
        # every divisor first, as the clamped mode once did, stored 32
        c = parse_circuit("circuit v1\ngate 1 input 5\ngate 2 comp 1\ngate 3 add 2 2\n"
                          "gate 4 input 7\ngate 5 div 4 3\noutput 5\n")
        v = decide(c, 0, engine="search")
        assert (v.member, v.stats["memo_entries"]) == (False, 2)

    def test_rejects_the_queries_decide_rejects(self):
        scalar = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n")
        vector = parse_circuit("vcircuit v1 dim 2\ngate 1 input 1,1\ngate 2 comp 1\noutput 2\n")
        exact = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 add 1 1\noutput 2\n")
        for c, queries in ((scalar, [-1, True, 2.0]), (vector, [(1,), (1, 2, 3), (-1, 0), 5])):
            for q in queries:
                for run in (lambda: search_member(c, q), lambda: decide(c, q, engine="search")):
                    with pytest.raises(ValueError, match="query must be"):
                        run()
        for b in (-1, True, 4.0):
            with pytest.raises(ValueError, match="query must be"):
                certificate_search(exact, b)


def _least_memo_budget(run):
    """The least max_memo_entries at which run(budget) answers.

    A larger budget runs the same search further, so bisection finds it; one
    less must refuse with the memo kind.
    """
    lo, hi = 0, 1
    while True:
        try:
            run(EngineBudget(max_memo_entries=hi))
            break
        except BudgetExceeded:
            lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(EngineBudget(max_memo_entries=mid))
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    if hi > 0:
        with pytest.raises(BudgetExceeded) as e:
            run(EngineBudget(max_memo_entries=hi - 1))
        assert e.value.kind == "memo"
    return hi


class TestRefusalPoints:
    """Where each search runs out of its memo budget, pinned per query. Both
    count steps: every opened (gate, value) pair and every scanned value."""

    def test_search(self):
        rng = random.Random(233)
        scalars = [bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=30, max_gates=9, max_label=6)
                   for _ in range(4)]
        vectors = [bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=5, dim=2, max_gates=7,
                                  max_coord=2) for _ in range(3)]
        least = [[_least_memo_budget(lambda bud: search_member(c, q, budget=bud))
                  for q in (0, 3, 7, 20)] for c in scalars]
        assert least == [[3, 3, 3, 3], [2, 6, 6, 6], [4, 23, 39, 37], [3, 3, 3, 3]]
        least = [[_least_memo_budget(lambda bud: search_member(c, q, budget=bud))
                  for q in ((0, 0), (2, 1), (4, 4), INF)] for c in vectors]
        assert least == [[21, 21, 21, 26], [5, 5, 5, 10], [6, 28, 28, 4]]
        c = parse_circuit(
            "circuit v1\ngate 1 input 3\ngate 2 comp 1\n"
            "gate 3 add 2 2\ngate 4 add 3 3\noutput 4\n"
        )
        assert [_least_memo_budget(lambda bud: search_member(c, q, budget=bud))
                for q in (0, 6, 18)] == [4, 7, 7]

    def test_certificate(self):
        rng = random.Random(239)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
        circuits = [random_scalar(rng, ops, max_gates=9, max_label=6) for _ in range(6)]
        least = [[_least_memo_budget(lambda bud: certificate_search(c, b, bud))
                  for b in (0, 2, 6, 30)] for c in circuits]
        # 0: b is past the output's value bound, answered False without a step
        assert least == [[4, 0, 0, 0], [6, 33, 6, 0], [2, 6, 0, 0], [2, 1, 0, 0],
                         [7, 7, 20, 29], [3, 2, 0, 0]]


def _squarings(n: int) -> Circuit:
    """input 2 and n squarings: the output holds 2^(2^n) alone."""
    return parse_circuit("circuit v1\ngate 1 input 2\n"
                         + "".join(f"gate {k} mul {k - 1} {k - 1}\n" for k in range(2, n + 2))
                         + f"output {n + 1}\n")


class TestMulDivisorPairs:
    """mul asks the operand pairs (v / y, y) for the divisors y of its value
    v, a step each: the steps follow the number of divisors, not sqrt(v)."""

    def test_a_perfect_power_is_shown(self):
        c = _squarings(6)
        v = decide(c, 2**64, engine="certificate")
        assert v.member is True and verify_certificate(c, 2**64, v.witness)
        assert v.stats["steps"] == 852

    def test_a_prime_below_the_value_bound_takes_few_steps(self):
        # 999,999,999,989 is prime and below the bound 2^64: its divisor
        # pairs are (b, 1), whose 1 no squaring holds, and (1, b), past 2^32
        ok, wit, stats = certificate_search(_squarings(6), 999_999_999_989)
        assert (ok, wit) == (False, None) and stats["steps"] < 20

    def test_eight_squarings(self):
        c = _squarings(8)
        assert certificate_search(c, 3**100)[:2] == (False, None)
        ok, wit, _ = certificate_search(c, 2**256)
        assert ok and verify_certificate(c, 2**256, wit)
        assert wit[9, 2**256] == ((8, 2**128), (8, 2**128))

    def test_a_value_factorize_cannot_split_is_refused(self):
        # two primes near 2^64: rho runs out of steps before it splits b
        b = 19_282_901_516_542_751_161 * 18_788_459_943_534_510_863
        with pytest.raises(BudgetExceeded) as e:
            certificate_search(_squarings(8), b)
        assert e.value.kind == "factor"


class TestDivisorSearch:
    """divisor-search: the search with no value bound, on {union, inter,
    comp, mul}. A query b >= 1 only asks divisors of b."""

    def test_agrees_with_bruteforce_on_comp_free_circuits(self):
        rng = random.Random(251)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.MUL)
        members = 0
        for _ in range(80):
            c = random_scalar(rng, ops, max_gates=7, max_label=6)
            out = exact_sets_bruteforce(c)[c.output]
            try:  # 0 is answered unless it reaches a mul with an operand holding 0
                assert decide(c, 0, engine="divisor-search").member == (0 in out), str(c)
            except BudgetExceeded as e:
                assert e.kind == "memo", str(c)
            for b in sorted({*range(1, 20), *sorted(out)[:4]} - {0}):
                v = decide(c, b, engine="divisor-search", budget=TIGHT)
                assert v.member == (b in out), f"b={b}\n{c}"
                assert verify_certificate(c, b, v.witness) if v.member else v.witness is None
                members += v.member
        assert members > 0

    def test_agrees_with_decide_under_comp(self):
        rng = random.Random(5)
        compared = 0
        for _ in range(200):
            c = random_scalar(rng, (GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL),
                              max_gates=8, max_label=6)
            if GateKind.COMP not in fragment_of(subcircuit_at(c, c.output)):
                continue  # xcheck runs the cone, which decide routes
            res = xcheck_circuit(c, max_b=40, budget=TIGHT)
            assert res.problems == [], str(c)
            compared += res.answered == ["clamped-vector", "divisor-search"]
        assert compared > 20

    def test_zero_at_a_mul_is_refused(self):
        # evens is {2} * comp({0} inter {1}), whose right operand holds 0: the
        # search would need some value of the left, and no bound ends that scan
        with pytest.raises(BudgetExceeded) as e:
            decide(EVENS, 0, engine="divisor-search")
        assert e.value.kind == "memo" and "nonemptiness" in str(e.value)
        # where no operand holds 0, mul answers 0 without that scan
        v = decide(primes_circuit(), 0, engine="divisor-search")
        assert (v.member, v.witness) == (False, None)

    def test_xcheck_compares_two_engines_on_primes_and_evens(self):
        for c in (primes_circuit(), EVENS):
            assert xcheck_circuit(c, max_b=2000) == ([], ["clamped-vector", "divisor-search"], [])


class TestSearchModesAgree:
    """The clamped search and the certificate search on the fragment both
    accept, {union, inter, add, div} scalar, against the reference."""

    def test_verdicts_and_witnesses(self):
        rng = random.Random(241)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.DIV)
        members = 0
        for _ in range(60):
            c = bounded_scalar(rng, ops, max_cutoff=20, max_gates=6, max_label=6)
            for b in range(structural_cutoff(c)[c.output] + 3):
                ok, wit, _ = certificate_search(c, b, TIGHT)
                assert ok == search_member(c, b, budget=TIGHT) == ref_member_scalar(c, b), \
                    f"b={b}\n{c}"
                assert verify_certificate(c, b, wit) if ok else wit is None, f"b={b}\n{c}"
                members += ok
        assert members > 0


def _exact_cover(rng, n, m, planted):
    """An instance over range(n) with m sets of 2-4 elements; planted, some
    of them partition the universe."""
    universe, sets = tuple(range(n)), set()
    if planted:
        perm = list(universe)
        rng.shuffle(perm)
        i = 0
        while i < n:
            k = rng.randint(2, 4)
            sets.add(tuple(sorted(perm[i:i + k])))
            i += k
    while len(sets) < m:
        sets.add(tuple(sorted(rng.sample(universe, rng.randint(2, 4)))))
    return ExactCoverInstance(universe=universe, sets=tuple(sorted(sets)))


class TestCertificate:
    def test_agrees_with_exact(self):
        rng = random.Random(149)
        ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
        for _ in range(80):
            c = random_scalar(rng, ops, max_gates=5, max_label=6)
            out = exact_sets_bruteforce(c)[c.output]
            probes = {0, 1, 2} | set(list(out)[:3])
            for b in probes:
                if b > 10**6:
                    continue
                ok, wit, stats = certificate_search(c, b)
                assert ok == (b in out), f"b={b}\n{c}"
                if ok:
                    assert verify_certificate(c, b, wit)
                else:
                    assert wit is None

    def test_witness_perturbation_rejected(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 3\ngate 2 input 4\n"
            "gate 3 union 1 2\ngate 4 add 3 3\noutput 4\n"
        )
        ok, wit, stats = certificate_search(c, 7)
        assert ok and verify_certificate(c, 7, wit)
        # the recorded choices: 7 = 4 + 3, each through its own union branch
        assert wit == {(4, 7): ((3, 4), (3, 3)), (3, 4): ((2, 4),), (2, 4): (),
                       (3, 3): ((1, 3),), (1, 3): ()}
        assert not verify_certificate(c, 8, wit)
        bad = {**wit, (2, 5): ()}  # an entry the circuit cannot show, though unused
        assert not verify_certificate(c, 7, bad)
        bad = {k: v for k, v in wit.items() if k != (1, 3)}  # an operand pair missing
        assert not verify_certificate(c, 7, bad)
        # the add's operand pairs the other way round also sum to 7
        assert verify_certificate(c, 7, {**wit, (4, 7): ((3, 3), (3, 4))})
        for key, pairs in [
            ((4, 7), ((3, 4), (3, 4))),  # 4 + 4 is not 7
            ((4, 7), ((3, 4), (2, 4))),  # gate 2 is not gate 4's second predecessor
            ((3, 4), ((1, 3),)),  # union must follow a branch holding its value,
            ((3, 7), ((4, 7),)),  # and on one of its predecessors: no cycles
            ((3, 4), ()),  # an interior gate without operands
            ((1, 3), ((1, 3),)),  # an input with operands
        ]:
            assert not verify_certificate(c, 7, {**wit, key: pairs}), (key, pairs)
        # div needs a nonzero divisor: {0} / {0} is empty, though 0 == 5 * 0
        z = parse_circuit("circuit v1\ngate 1 input 0\ngate 2 div 1 1\noutput 2\n")
        assert not verify_certificate(z, 5, {(2, 5): ((1, 0), (1, 0)), (1, 0): ()})

    @pytest.mark.parametrize("bad", [
        None, [], {(4, 7)}, {4: 7}, {(4, 7): None}, {(4, 7): [(3, 4), (3, 3)]},
        {(4, 7): ((3, 4),)}, {(4, 7): ((3,), (3, 3))}, {(4, 7): ((3, "4"), (3, 3))},
        {(4, 7): ((3, True), (3, 6))}, {(4, 7): (([3], 4), (3, 3))}, {(9, 7): ()},
        {(3, -1): ()}, {(4, 7, 0): ()}, {("4", 7): ()}, {(4, 7): ((3, 4.0), (3, 3))},
    ])
    def test_malformed_witness_is_false(self, bad):
        c = parse_circuit(
            "circuit v1\ngate 1 input 3\ngate 2 input 4\n"
            "gate 3 union 1 2\ngate 4 add 3 3\noutput 4\n"
        )
        wit = certificate_search(c, 7)[1]
        # alone, and as one entry of the search's own witness
        assert verify_certificate(c, 7, bad) is False
        if isinstance(bad, dict):
            assert verify_certificate(c, 7, {**wit, **bad}) is False

    def test_deep_chain(self):
        # the union chain holds {0} at every gate: the search walks it to the
        # input and records one entry per gate, 10^4 in all
        c = deep_chain(GateKind.UNION)
        ok, wit, stats = certificate_search(c, 0)
        assert ok and len(wit) == len(c) and verify_certificate(c, 0, wit)
        assert wit[len(c), 0] == ((len(c) - 1, 0),) and wit[1, 0] == ()
        assert certificate_search(c, 1)[:2] == (False, None)
        assert not verify_certificate(c, 1, wit)
        # every gate taking its other branch, straight to the input, also shows it
        short = {(k, 0): ((1, 0),) for k in range(2, len(c) + 1)}
        assert verify_certificate(c, 0, {**short, (1, 0): ()})
        assert not verify_certificate(c, 0, short)

    def test_doubling_chain(self):
        # 2^12 at gate 13; its formula has 2^13 - 1 gates, the circuit 13
        text = ["circuit v1", "gate 1 input 1"]
        for i in range(2, 14):
            text.append(f"gate {i} add {i - 1} {i - 1}")
        text.append("output 13")
        c = parse_circuit("\n".join(text) + "\n")
        ok, wit, stats = certificate_search(c, 0)
        assert (ok, wit) == (False, None) and stats["steps"] == 13
        wit = {(i, 2 ** (i - 1)): ((i - 1, 2 ** (i - 2)),) * 2 for i in range(2, 14)}
        wit[1, 1] = ()
        assert verify_certificate(c, 4096, wit)
        assert not verify_certificate(c, 4095, wit)

    @pytest.mark.parametrize("m, seed, planted", [(17, 3, True), (20, 3, True), (17, 0, False)])
    def test_exact_cover_past_formula_size(self, m, seed, planted):
        # 2^(m+1) - 1 formula gates; the search runs on the circuit
        inst = _exact_cover(random.Random(seed), 10, m, planted)
        red = from_exact_cover(inst)
        v = decide(red.circuit, red.query, engine="certificate")
        assert v.member == exact_cover_solvable(inst) == planted
        if planted:
            assert verify_certificate(red.circuit, red.query, v.witness)
        else:
            assert v.witness is None

    @pytest.mark.parametrize("n, m", [(8, 8), (12, 16)])
    def test_exact_cover_steps_track_memo_entries(self, n, m):
        # a division by an input gate tries only the label; trying every
        # divisor value up to the bounds took several steps per memo entry
        # at (8, 8) and ran out of steps at (12, 16)
        rng = random.Random(173)
        for _ in range(6):
            inst = _exact_cover(rng, n, m, rng.random() < 0.5)
            red = from_exact_cover(inst)
            v = decide(red.circuit, red.query, engine="certificate")
            assert red.answer(v.member) == exact_cover_solvable(inst), inst
            if v.member:
                assert verify_certificate(red.circuit, red.query, v.witness)
            else:
                assert v.witness is None
            assert v.stats["steps"] <= 2 * v.stats["memo_entries"], v.stats

    def test_exact_budget_falls_back_to_certificate(self):
        c = parse_circuit(
            "circuit v1\n"
            "gate 1 input 0\n"
            "gate 2 input 1\n"
            "gate 3 union 1 2\n"
            "gate 4 add 3 3\n"
            "gate 5 add 4 4\n"
            "output 5\n"
        )
        tiny = EngineBudget(max_set_elems=4)
        v = decide(c, 3, budget=tiny)
        assert v.engine == "certificate" and v.member is True
        assert verify_certificate(c, 3, v.witness)
        v = decide(c, 9, budget=tiny)
        assert v.engine == "certificate" and v.member is False


DISPATCH_CASES = [
    # (text, query, engine)
    ("circuit v1\ngate 1 input 6\ngate 2 mul 1 1\ngate 3 div 2 1\ngate 4 add 3 1\n"
     "gate 5 inter 4 4\noutput 5\n", 12, "singleton"),
    ("circuit v1\ngate 1 input 6\ngate 2 input 10\ngate 3 union 1 2\ngate 4 mul 3 1\n"
     "output 4\n", 36, "exact-vector"),
    ("circuit v1\ngate 1 input 6\ngate 2 mul 1 1\noutput 2\n", 36, "singleton-vector"),
    ("circuit v1\ngate 1 input 6\ngate 2 add 1 1\ngate 3 union 1 2\noutput 3\n",
     12, "exact"),
    ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 1\noutput 3\n",
     4, "clamped-scalar"),
    ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 mul 2 1\noutput 3\n",
     6, "clamped-vector"),
    ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 add 1 1\ngate 3 inter 2 2\noutput 3\n",
     (2, 4), "singleton-vector"),
    ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 add 1 1\ngate 3 union 2 1\noutput 3\n",
     (1, 2), "exact"),
    ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 comp 1\ngate 3 sub 2 1\noutput 3\n",
     (0, 0), "clamped-vector"),
    # perfbench/gen.py's primes circuit: its prime-factor image has one axis
    (PRIMES_TEXT, 7, "clamped-vector"),
    (PRIMES_TEXT, 30, "clamped-vector"),
    ("vcircuit v1 dim 1\ngate 1 input 2\ngate 2 comp 1\ngate 3 sub 2 1\noutput 3\n",
     (1,), "clamped-vector"),
]


# decide()'s route for every fragment of both domains, as computed by the
# if-chain that routing through _ENGINES replaced: "s" or "v" for the domain,
# then the kinds the circuit uses; "open" is OpenFragmentError
FRAGMENT_ROUTES = {
    "s": "singleton", "s union": "exact", "s inter": "singleton", "s comp": "clamped-scalar",
    "s add": "singleton", "s mul": "singleton-vector", "s div": "singleton",
    "s union inter": "exact", "s union comp": "clamped-scalar", "s union add": "exact",
    "s union mul": "exact-vector", "s union div": "exact", "s inter comp": "clamped-scalar",
    "s inter add": "singleton", "s inter mul": "singleton-vector", "s inter div": "singleton",
    "s comp add": "clamped-scalar", "s comp mul": "clamped-vector",
    "s comp div": "clamped-scalar", "s add mul": "singleton", "s add div": "singleton",
    "s mul div": "singleton-vector", "s union inter comp": "clamped-scalar",
    "s union inter add": "exact", "s union inter mul": "exact-vector",
    "s union inter div": "exact", "s union comp add": "clamped-scalar",
    "s union comp mul": "clamped-vector", "s union comp div": "clamped-scalar",
    "s union add mul": "exact", "s union add div": "exact", "s union mul div": "exact-vector",
    "s inter comp add": "clamped-scalar", "s inter comp mul": "clamped-vector",
    "s inter comp div": "clamped-scalar", "s inter add mul": "singleton",
    "s inter add div": "singleton", "s inter mul div": "singleton-vector",
    "s comp add mul": "open", "s comp add div": "clamped-scalar",
    "s comp mul div": "clamped-vector", "s add mul div": "singleton",
    "s union inter comp add": "clamped-scalar", "s union inter comp mul": "clamped-vector",
    "s union inter comp div": "clamped-scalar", "s union inter add mul": "exact",
    "s union inter add div": "exact", "s union inter mul div": "exact-vector",
    "s union comp add mul": "open", "s union comp add div": "clamped-scalar",
    "s union comp mul div": "clamped-vector", "s union add mul div": "exact",
    "s inter comp add mul": "open", "s inter comp add div": "clamped-scalar",
    "s inter comp mul div": "clamped-vector", "s inter add mul div": "singleton",
    "s comp add mul div": "open", "s union inter comp add mul": "open",
    "s union inter comp add div": "clamped-scalar",
    "s union inter comp mul div": "clamped-vector", "s union inter add mul div": "exact",
    "s union comp add mul div": "open", "s inter comp add mul div": "open",
    "s union inter comp add mul div": "open", "v": "singleton-vector", "v union": "exact",
    "v inter": "singleton-vector", "v comp": "clamped-vector", "v add": "singleton-vector",
    "v sub": "singleton-vector", "v union inter": "exact", "v union comp": "clamped-vector",
    "v union add": "exact", "v union sub": "exact", "v inter comp": "clamped-vector",
    "v inter add": "singleton-vector", "v inter sub": "singleton-vector",
    "v comp add": "clamped-vector", "v comp sub": "clamped-vector",
    "v add sub": "singleton-vector", "v union inter comp": "clamped-vector",
    "v union inter add": "exact", "v union inter sub": "exact",
    "v union comp add": "clamped-vector", "v union comp sub": "clamped-vector",
    "v union add sub": "exact", "v inter comp add": "clamped-vector",
    "v inter comp sub": "clamped-vector", "v inter add sub": "singleton-vector",
    "v comp add sub": "clamped-vector", "v union inter comp add": "clamped-vector",
    "v union inter comp sub": "clamped-vector", "v union inter add sub": "exact",
    "v union comp add sub": "clamped-vector", "v inter comp add sub": "clamped-vector",
    "v union inter comp add sub": "clamped-vector",
}


def _fragment_circuit(key: str, live: bool = True):
    """A circuit whose fragment is the kinds named in key. Each gate reads the
    gate before it and the input, so every gate feeds the output; with
    live=False each reads the input only, and only the last feeds the output."""
    domain, *kinds = key.split()
    header, label = ("vcircuit v1 dim 2", "1,2") if domain == "v" else ("circuit v1", "2")
    lines = [header, f"gate 1 input {label}"]
    for gid, kind in enumerate(kinds, 2):
        first = gid - 1 if live else 1
        lines.append(f"gate {gid} {kind} {first}" + ("" if kind == "comp" else " 1"))
    return parse_circuit("\n".join(lines + [f"output {len(kinds) + 1}"]) + "\n")


class TestDecideDispatch:
    @pytest.mark.parametrize("text,query,engine", DISPATCH_CASES)
    def test_auto_routes(self, text, query, engine):
        c = parse_circuit(text)
        v = decide(c, query)
        assert v.engine == engine
        assert v.stats["gates"] == len(c.gates)
        assert "micros" in v.stats

    @pytest.mark.parametrize("key", FRAGMENT_ROUTES)
    def test_every_fragment_routes_as_recorded(self, key):
        c = _fragment_circuit(key)
        assert fragment_of(c) == {GateKind(k) for k in key.split()[1:]}
        try:
            got = decide(c, (0, 0) if c.vector else 0).engine
        except OpenFragmentError:
            got = "open"
        assert got == FRAGMENT_ROUTES[key]

    @pytest.mark.parametrize("key", [k for k, route in FRAGMENT_ROUTES.items()
                                     if k[0] == "s" and route == "clamped-vector"])
    def test_a_scalar_clamped_vector_route_runs_on_the_output_cone(self, key):
        # the cone is the input and the last gate: its own fragment's route
        c = _fragment_circuit(key, live=False)
        want = FRAGMENT_ROUTES["s " + key.split()[-1]]
        for b in range(13):
            v = decide(c, b)
            assert (v.engine, v.stats["gates"]) == (want, len(c))
            assert v.member == decide(c, b, engine="clamped-vector").member, f"b={b}\n{c}"

    def test_a_dead_comp_gate_leaves_a_mul_output_off_the_grid(self):
        # the output is {4 * 5 * 5}; comp 4 feeds nothing, yet the whole circuit
        # takes clamped-vector, whose prime-factor grid is refused after seconds
        c = parse_circuit(DEAD_COMP_TEXT)
        assert pick_engine(c) == ("singleton-vector", subcircuit_at(c, 6))
        assert applicable_engines(c) == ["clamped-vector", "divisor-search"]
        for b in range(130):
            v = decide(c, b)
            assert (v.member, v.engine, v.stats["gates"]) == (b == 100, "singleton-vector", 6)
        assert decide(c, 100, engine="divisor-search").member is True

    def test_a_dead_gate_does_not_make_a_circuit_open(self):
        # the whole circuit holds comp, add and mul; its output's cone is {mul}
        c = parse_circuit("circuit v1\ngate 1 input 0\ngate 2 comp 1\ngate 3 add 1 1\n"
                          "gate 4 mul 1 1\noutput 4\n")
        assert applicable_engines(c) == []
        assert pick_engine(c) == ("singleton-vector", subcircuit_at(c, 4))
        for b in range(6):
            v = decide(c, b)
            assert (v.member, v.engine) == (b == 0, "singleton-vector")
        assert xcheck_circuit(c, max_b=5).problems == []

    def test_transform_engines_report_details(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 mul 2 1\noutput 3\n")
        v = decide(c, 6)
        assert v.stats["transform"] == "prime-factors"
        assert v.stats["dim"] >= 1

    def test_open_fragment_raises(self):
        c = parse_circuit(
            "circuit v1\ngate 1 input 2\ngate 2 comp 1\n"
            "gate 3 add 2 1\ngate 4 mul 3 1\noutput 4\n"
        )
        with pytest.raises(OpenFragmentError) as by_decide:
            decide(c, 5)
        assert applicable_engines(c) == []
        with pytest.raises(OpenFragmentError) as by_xcheck:
            xcheck_circuit(c, max_b=4)
        assert str(by_xcheck.value) == str(by_decide.value)

    @pytest.mark.parametrize("evaluate, vector", [
        (eval_singleton, True), (eval_singleton_vector, False), (eval_clamped_scalar, True),
        (eval_clamped_vector, False), (lambda c: eval_exact(c, query=4), True),
        (lambda c: certificate_search(c, 4), True), (lambda c: verify_certificate(c, 4, {}), True),
    ], ids=["singleton", "singleton-vector", "clamped-scalar", "clamped-vector", "exact-query",
            "certificate-search", "verify-certificate"])
    def test_evaluators_check_the_domain(self, evaluate, vector):
        # a circuit of the other domain is refused before any gate is read
        text = "vcircuit v1 dim 1\n" if vector else "circuit v1\n"
        c = parse_circuit(text + "gate 1 input 2\noutput 1\n")
        want = "scalar" if vector else "vector"
        with pytest.raises(FragmentError, match=f" runs on {want} circuits$"):
            evaluate(c)

    def test_explicit_engine_checks_fragment(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n")
        with pytest.raises(FragmentError):
            decide(c, 1, engine="singleton")
        with pytest.raises(ValueError):
            decide(c, 1, engine="warp")

    def test_query_validation(self):
        sc = parse_circuit("circuit v1\ngate 1 input 2\noutput 1\n")
        with pytest.raises(ValueError):
            decide(sc, -1)
        with pytest.raises(ValueError):
            decide(sc, (1, 2))
        with pytest.raises(ValueError):
            decide(sc, True)
        vc = parse_circuit("vcircuit v1 dim 2\ngate 1 input 1,2\noutput 1\n")
        with pytest.raises(ValueError):
            decide(vc, (1,))
        with pytest.raises(ValueError):
            decide(vc, (1, -2))
        with pytest.raises(ValueError):
            decide(vc, (True, False))
        with pytest.raises(ValueError):
            decide(vc, 5)
        assert decide(vc, INF).member is False
        mc = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 input 3\ngate 3 mul 1 2\noutput 3\n")
        assert decide(mc, 6).member is True

    def test_engine_override_runs(self):
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n")
        a = decide(c, 7, engine="clamped-scalar")
        b = decide(c, 7, engine="search")
        assert a.member == b.member is True
        assert b.engine == "search"


# the stats keys of each DISPATCH_CASES route, by (vector circuit, engine)
ROUTE_STATS = {
    (False, "singleton"): {"gates", "micros"},
    (False, "exact-vector"): {"transform", "dim", "gates", "micros"},
    (False, "singleton-vector"): {"transform", "dim", "gates", "micros"},
    (False, "exact"): {"gates", "micros"},
    (False, "clamped-scalar"): {"gates", "micros"},
    (False, "clamped-vector"): {"transform", "dim", "spill", "step", "gates", "micros"},
    (True, "singleton-vector"): {"gates", "micros"},
    (True, "exact"): {"gates", "micros"},
    (True, "clamped-vector"): {"gates", "micros"},
}

# the layers each route reaches: the functions behind the bindings
# perfbench/selftest.py lists in CALLER_BINDINGS, plus the eval_* functions.
# As the benchmark's tracer does, every setcircuits binding of each is
# counted, so a call from inside setrep (say vecrep_apply calling
# natrep_apply) shows as well as one through engines.
TRACED_BINDINGS = (
    "natrep_apply", "vecrep_apply", "exact_apply", "cutoff_profile", "structural_cutoff",
    "to_vector_gcdfree", "to_vector_primefact", "eval_singleton", "eval_singleton_vector",
    "eval_exact", "eval_clamped_scalar", "eval_clamped_vector",
)
ROUTE_LAYERS = {
    (False, "singleton"): {"eval_singleton"},
    (False, "exact-vector"): {"to_vector_gcdfree", "eval_exact", "exact_apply"},
    (False, "singleton-vector"): {"to_vector_gcdfree", "eval_singleton_vector"},
    (False, "exact"): {"eval_exact", "exact_apply"},
    (False, "clamped-scalar"): {
        "eval_clamped_scalar", "cutoff_profile", "structural_cutoff", "natrep_apply"
    },
    (False, "clamped-vector"): {
        "to_vector_primefact", "eval_clamped_vector", "cutoff_profile", "structural_cutoff",
        "vecrep_apply",
    },
    (True, "singleton-vector"): {"eval_singleton_vector"},
    (True, "exact"): {"eval_exact", "exact_apply"},
    (True, "clamped-vector"): {
        "eval_clamped_vector", "cutoff_profile", "structural_cutoff", "vecrep_apply"
    },
}


class TestVerdictRecord:
    def test_fields(self):
        assert MembershipVerdict._fields == ("member", "engine", "stats", "witness")
        a, b = MembershipVerdict(True, "exact"), MembershipVerdict(True, "exact")
        assert a.stats == {} and a.stats is not b.stats and a.witness is None
        assert a == (True, "exact", {}, None)

    @pytest.mark.parametrize("text,query,engine", DISPATCH_CASES)
    def test_routes_keep_strings_and_stats(self, text, query, engine):
        c = parse_circuit(text)
        first, second = decide(c, query), decide(c, query)
        for v in (first, second):
            assert type(v) is MembershipVerdict and type(v.member) is bool
            assert v.engine == engine and type(v.engine) is str
            assert set(v.stats) == ROUTE_STATS[c.vector, engine]
        assert first.stats is not second.stats

    def test_a_forced_search_names_only_its_row(self):
        # search is never picked, so DISPATCH_CASES do not show its verdict;
        # every row clamps at the one structural profile, so no column says which
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n")
        v = decide(c, 3, engine="search")
        assert v[:2] == (True, "search") and type(v.engine) is str
        assert [f.name for f in dataclasses.fields(engines._Engine)] == [
            "fragment", "prepare", "needs", "fallback", "cone"
        ]

    def test_no_cutoff_mode_is_taken(self):
        # every engine decides at the structural cutoffs; no caller picks another
        c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n")
        for run in (lambda: decide(c, 3, cutoff_mode="certified"),
                    lambda: xcheck_circuit(c, cutoff_mode="certified"),
                    lambda: search_member(c, 3, "certified", TIGHT)):
            with pytest.raises(TypeError):
                run()

    @pytest.mark.parametrize("text,query,engine", DISPATCH_CASES)
    def test_routes_reach_their_traced_layers(self, monkeypatch, text, query, engine):
        c = parse_circuit(text)
        called = set()

        def counting(name, orig):
            def layer(*args, **kw):
                called.add(name)
                return orig(*args, **kw)

            return layer

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "setcircuits"]
        for name in TRACED_BINDINGS:
            orig = getattr(engines, name)
            layer = counting(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, layer)
        assert decide(c, query).engine == engine
        assert called == ROUTE_LAYERS[c.vector, engine]


def _fallback_chain(name: str, vector: bool) -> list[str]:
    """name and the rows its fallbacks lead to, read from the engine table,
    up to the first row met twice."""
    chain = [name]
    while (nxt := engines._ENGINES[chain[-1], vector].fallback) not in (None, *chain):
        chain.append(nxt)
    return chain


def _engines_of_domain(vector: bool) -> list[str]:
    # an input-only circuit uses no gate kind, so every engine of its domain applies
    header, label = ("vcircuit v1 dim 2", "inf") if vector else ("circuit v1", "0")
    return applicable_engines(parse_circuit(f"{header}\ngate 1 input {label}\noutput 1\n"))


class TestEngineTable:
    def _corpus(self):
        for text, query, _ in DISPATCH_CASES:
            yield parse_circuit(text), query
        yield _fragment_circuit("s comp add mul"), 4  # every gate live: refused as open
        rng = random.Random(163)
        for _ in range(150):
            yield random_scalar(rng, SCALAR_FULL, max_gates=5, max_label=6), rng.randint(0, 12)
        for _ in range(40):
            c = random_vector(rng, VECTOR_FULL, dim=2, max_gates=4, max_coord=2)
            yield c, rng.choice([INF, (rng.randint(0, 4), rng.randint(0, 4))])

    def test_routes_and_forced_engines_follow_the_table(self):
        engines = {v: _engines_of_domain(v) for v in (False, True)}
        routes = set()
        for c, q in self._corpus():
            applicable = applicable_engines(c)
            try:
                auto = decide(c, q, budget=TIGHT)
            except OpenFragmentError:
                assert applicable == [], str(c)
                auto = None
                routes.add("open")
            except BudgetExceeded:
                auto = None
            else:  # a clamped-vector route runs on the output's cone
                name, run = pick_engine(c)
                assert auto.engine in _fallback_chain(name, c.vector), str(c)
                assert name in applicable_engines(run), str(c)
                routes.add((c.vector, auto.engine))
            for name in engines[c.vector]:
                if name not in applicable:
                    with pytest.raises(FragmentError):
                        decide(c, q, engine=name, budget=TIGHT)
                    continue
                try:
                    v = decide(c, q, engine=name, budget=TIGHT)
                except BudgetExceeded:
                    continue
                assert v.engine in _fallback_chain(name, c.vector)
                if auto is not None:
                    assert v.member == auto.member, f"{name} q={q}\n{c}"
        assert routes >= {
            "open",
            (False, "singleton"),
            (False, "exact"),
            (False, "exact-vector"),
            (False, "singleton-vector"),
            (False, "clamped-scalar"),
            (False, "clamped-vector"),
            (True, "singleton-vector"),
            (True, "exact"),
            (True, "clamped-vector"),
        }


# comp(P * P), P the first seven primes: the prime-factor image has dim 8, and
# its grid is refused ("add decomposition") before any kernel runs
SEVEN_PRIMES = (2, 3, 5, 7, 11, 13, 17)
SEVEN_PRIMES_TEXT = (
    "circuit v1\n" + "".join(f"gate {k} input {p}\n" for k, p in enumerate(SEVEN_PRIMES, 1))
    + "gate 8 union 1 2\n" + "".join(f"gate {k} union {k - 1} {k - 6}\n" for k in range(9, 14))
    + "gate 14 mul 13 13\ngate 15 comp 14\noutput 15\n"
)


class TestFallback:
    """A row whose budget runs out hands the query to its fallback row."""

    def test_chains_stay_in_their_domain_and_end(self):
        for (name, vector), row in engines._ENGINES.items():
            assert row.fallback is None or (row.fallback, vector) in engines._ENGINES
            chain = _fallback_chain(name, vector)
            assert engines._ENGINES[chain[-1], vector].fallback is None, chain  # no cycle

    def test_seven_primes_are_decided_without_a_grid(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return vecrep_apply(*args)

        monkeypatch.setattr(engines, "vecrep_apply", counting)
        c = parse_circuit(SEVEN_PRIMES_TEXT)
        assert len(c) == 15 and pick_engine(c)[0] == "clamped-vector"
        products = {p * q for p in SEVEN_PRIMES for q in SEVEN_PRIMES}
        for b in range(201):
            v = decide(c, b)
            assert (v.member, v.engine) == (b not in products, "divisor-search"), b
        assert calls == []

    def test_the_fallback_refusal_propagates(self):
        # the grid is refused, and divisor-search cannot answer 0 at evens' mul
        tiny = EngineBudget(max_grid_cells=2)
        with pytest.raises(BudgetExceeded, match="nonemptiness"):
            decide(EVENS, 0, budget=tiny)
        assert decide(EVENS, 12, budget=tiny)[:2] == (True, "divisor-search")

    def test_a_forced_cone_row_walks_the_cone_once(self, monkeypatch):
        calls = []

        def counting(c, gid):
            calls.append(gid)
            return subcircuit_at(c, gid)

        monkeypatch.setattr(engines, "subcircuit_at", counting)
        c = parse_circuit(DEAD_TOWER_TEXT)
        assert decide(c, (1, 0), engine="clamped-vector")[:2] == (False, "clamped-vector")
        assert calls == [c.output]


class TestCutoffModesAgree:
    """Tables built at the paper's certified cutoffs give the verdicts that
    decide and the search give at the structural ones."""

    @pytest.mark.parametrize(
        "text",
        [
            "circuit v1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n",
            "circuit v1\ngate 1 input 5\ngate 2 comp 1\noutput 2\n",
            "circuit v1\ngate 1 input 0\ngate 2 comp 1\noutput 2\n",
        ],
    )
    def test_structural_and_certified_verdicts_match(self, text):
        c = parse_circuit(text)
        table = _certified_table(c, EngineBudget())
        for b in range(0, 12):
            v = decide(c, b)
            assert v.engine == "clamped-scalar"
            assert v.member == table.member(b) == search_member(c, b), f"b={b}"
            assert v.member == ref_member_scalar(c, b), f"b={b}"


class TestXcheck:
    def test_no_disagreements_on_fixed_circuits(self):
        texts = [
            "circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 1\noutput 3\n",
            "circuit v1\ngate 1 input 6\ngate 2 input 10\ngate 3 union 1 2\ngate 4 div 3 1\noutput 4\n",
            "vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 comp 1\ngate 3 sub 2 1\noutput 3\n",
            # mul and add: singleton, exact and certificate, none with a cutoff
            "circuit v1\ngate 1 input 2\ngate 2 input 3\ngate 3 mul 1 2\ngate 4 add 3 1\noutput 4\n",
        ]
        for text in texts:
            assert xcheck_circuit(parse_circuit(text), max_b=10, budget=TIGHT).problems == []

    def test_an_engine_out_of_budget_abstains(self):
        # clamped-vector needs (5 + 1)^2 grid cells at gate 1; search needs none
        c = parse_circuit(
            "vcircuit v1 dim 2\ngate 1 input 3,3\ngate 2 comp 1\ngate 3 add 2 2\noutput 3\n"
        )
        res = xcheck_circuit(c, max_b=3, budget=EngineBudget(max_grid_cells=20))
        assert res == ([], ["search"], ["clamped-vector"])
        assert (res.problems, res.answered, res.abstained) == res
        assert xcheck_circuit(c, max_b=3) == ([], ["clamped-vector", "search"], [])

    def test_a_dead_comp_gate_is_checked_on_the_cone(self):
        # the whole circuit's rows are clamped-vector, which abstains after
        # seconds of grid work, and divisor-search: nothing would be compared
        c = parse_circuit(DEAD_COMP_TEXT)
        t0 = time.perf_counter()
        res = xcheck_circuit(c, budget=EngineBudget(max_grid_cells=1000))
        assert time.perf_counter() - t0 < 0.25
        assert res == ([], ["singleton-vector", "exact-vector", "singleton", "exact",
                            "certificate", "divisor-search"], ["clamped-vector"])
        # at the default budget the cone's prime-factor grid answers too
        assert xcheck_circuit(c).answered == applicable_engines(subcircuit_at(c, 6))

    def test_vector_image_built_once_per_circuit(self, monkeypatch):
        calls = []

        def counting(name):
            orig = getattr(engines, name)

            def transform(c, b):
                calls.append(name)
                return orig(c, b)

            return transform

        for name in ("to_vector_gcdfree", "to_vector_primefact"):
            monkeypatch.setattr(engines, name, counting(name))
        c = parse_circuit(
            "circuit v1\ngate 1 input 6\ngate 2 input 10\ngate 3 union 1 2\ngate 4 mul 3 3\noutput 4\n"
        )
        assert xcheck_circuit(c, max_b=12).problems == []
        assert sorted(calls) == ["to_vector_gcdfree", "to_vector_primefact"]

    @pytest.mark.parametrize(
        "text, name",
        [
            ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 comp 1\ngate 3 sub 2 1\noutput 3\n",
             "clamped-vector"),
            ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 1\noutput 3\n",
             "clamped-scalar"),
        ],
    )
    def test_a_flipped_engine_is_caught(self, monkeypatch, text, name):
        # search is the only other engine here, so every query must disagree
        c = parse_circuit(text)
        assert applicable_engines(c) == [name, "search"]
        row = engines._ENGINES[name, c.vector]

        def prepare(c, budget):
            member = row.prepare(c, budget)

            def flipped(q):
                ok, stats, witness = member(q)
                return not ok, stats, witness

            return flipped

        monkeypatch.setitem(
            engines._ENGINES, (name, c.vector), dataclasses.replace(row, prepare=prepare)
        )
        problems = xcheck_circuit(c, max_b=6, budget=TIGHT).problems
        if c.vector:
            top = min(6, structural_cutoff(c)[c.output] + 2)
            assert len(problems) == (top + 1) ** 2 + 1
            assert problems[-1].startswith("query inf: ")
        else:
            assert len(problems) == 7
        for line in problems:
            assert f"{name}=" in line and "search=" in line, line

    def test_no_disagreements_on_random_corpus(self):
        rng = random.Random(157)
        for _ in range(25):
            c = bounded_scalar(rng, CLAMPABLE_SCALAR, max_cutoff=14, max_gates=5, max_label=5)
            assert xcheck_circuit(c, max_b=8, budget=TIGHT).problems == [], str(c)
        for _ in range(10):
            c = bounded_vector(rng, CLAMPABLE_VECTOR, max_cutoff=6, dim=2, max_gates=4, max_coord=2)
            assert xcheck_circuit(c, max_b=4, budget=TIGHT).problems == [], str(c)

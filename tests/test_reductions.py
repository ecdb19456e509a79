import random

import pytest

from setcircuits import GateKind, decide, fragment_of
from setcircuits.reductions import (
    CvpInstance,
    ExactCoverInstance,
    GapInstance,
    MajorityDagInstance,
    Reduction,
    cvp_value,
    exact_cover_solvable,
    from_cvp,
    from_exact_cover,
    from_gap,
    from_majority_dag,
    gap_has_path,
    majority_accepts,
    majority_path_counts,
    primes_circuit,
)


def _run(red: Reduction) -> bool:
    return red.answer(decide(red.circuit, red.query).member)


class TestReductionShell:
    def test_answer_negation(self):
        c = primes_circuit()
        assert Reduction(c, 1).answer(True) is True
        assert Reduction(c, 1).answer(False) is False
        assert Reduction(c, 1, negate=True).answer(True) is False
        assert Reduction(c, 1, negate=True).answer(False) is True


class TestExactCover:
    def test_solvable_example(self):
        inst = ExactCoverInstance(
            universe=(1, 2, 3), sets=(frozenset({1, 2}), frozenset({3}), frozenset({2, 3}))
        )
        assert exact_cover_solvable(inst) is True
        red = from_exact_cover(inst)
        assert fragment_of(red.circuit) <= {GateKind.UNION, GateKind.DIV, GateKind.INPUT}
        assert red.query == 1 and red.negate is False
        assert _run(red) is True

    def test_unsolvable_example(self):
        inst = ExactCoverInstance(universe=(1, 2, 3), sets=(frozenset({1, 2}), frozenset({2, 3})))
        assert exact_cover_solvable(inst) is False
        assert _run(from_exact_cover(inst)) is False

    def test_empty_universe_is_trivially_covered(self):
        inst = ExactCoverInstance(universe=(), sets=())
        assert exact_cover_solvable(inst) is True
        assert _run(from_exact_cover(inst)) is True

    def test_solver_on_many_sets(self):
        # 3,000 copies of {0} branch to one covered mask, expanded once
        inst = ExactCoverInstance(universe=(0, 1), sets=((0,),) * 3000 + ((1,),))
        assert exact_cover_solvable(inst) is True
        inst = ExactCoverInstance(universe=(0, 1), sets=((0,),) * 3000)
        assert exact_cover_solvable(inst) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactCoverInstance(universe=(1,), sets=(frozenset({2}),))
        with pytest.raises(ValueError):
            ExactCoverInstance(universe=(1, 1), sets=())
        with pytest.raises(ValueError):
            ExactCoverInstance(universe=(1, 2), sets=((1, 1),))

    def test_solver_matches_subset_enumeration(self):
        # small instances, empty and repeated sets included, against every subfamily
        rng = random.Random(167)
        solvable = 0
        for _ in range(300):
            n = rng.randrange(0, 7)
            sets = tuple(tuple(rng.sample(range(n), rng.randint(0, n)))
                         for _ in range(rng.randrange(0, 8)))
            want = any(
                sorted(e for i, s in enumerate(sets) if pick >> i & 1 for e in s) == list(range(n))
                for pick in range(1 << len(sets))
            )
            assert exact_cover_solvable(ExactCoverInstance(tuple(range(n)), sets)) is want, sets
            solvable += want
        assert 50 < solvable < 250

    def test_random_agreement(self):
        rng = random.Random(163)
        for _ in range(80):
            n = rng.randrange(1, 7)
            universe = tuple(range(n))
            pool = set()
            while len(pool) < rng.randrange(1, 6):
                size = rng.randrange(1, n + 1)
                pool.add(frozenset(rng.sample(universe, size)))
            inst = ExactCoverInstance(universe=universe, sets=tuple(sorted(pool, key=sorted)))
            assert _run(from_exact_cover(inst)) == exact_cover_solvable(inst), inst


class TestGap:
    def test_reachable_chain(self):
        inst = GapInstance(edges=((0, 1), (1, 2)), s=0, t=2)
        assert gap_has_path(inst) is True
        red = from_gap(inst)
        assert red.negate is True
        assert fragment_of(red.circuit) <= {GateKind.DIV, GateKind.INPUT}
        assert _run(red) is True

    def test_unreachable_target(self):
        inst = GapInstance(edges=((0, 1),), s=0, t=2, nodes=(0, 1, 2))
        assert gap_has_path(inst) is False
        assert _run(from_gap(inst)) is False

    def test_source_equals_target(self):
        inst = GapInstance(edges=((0, 1),), s=0, t=0)
        assert gap_has_path(inst) is True
        assert _run(from_gap(inst)) is True
        # s with an incoming edge still counts as reached by the empty path
        inst = GapInstance(edges=((1, 0),), s=0, t=0)
        assert _run(from_gap(inst)) is True

    def test_high_indegree_target(self):
        edges = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
        inst = GapInstance(edges=edges, s=0, t=4)
        assert _run(from_gap(inst)) is True

    def test_cycle_rejected(self):
        inst = GapInstance(edges=((0, 1), (1, 0)), s=0, t=1)
        with pytest.raises(ValueError):
            from_gap(inst)

    def test_random_agreement(self):
        rng = random.Random(167)
        for _ in range(80):
            n = rng.randrange(2, 9)
            edges = []
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.3:
                        edges.append((a, b))
            s, t = rng.randrange(n), rng.randrange(n)
            inst = GapInstance(edges=tuple(edges), s=s, t=t, nodes=tuple(range(n)))
            assert _run(from_gap(inst)) == gap_has_path(inst), inst


def _random_cvp(rng: random.Random) -> CvpInstance:
    names = [f"x{i}" for i in range(rng.randrange(1, 4))]
    assignment = {n: rng.random() < 0.5 for n in names}
    gates = [(n, "var", n) for n in names]
    ids = [n for n in names]
    for i in range(rng.randrange(1, 6)):
        gid = f"g{i}"
        op = rng.choice(("not", "and", "or", "const"))
        if op == "not":
            gates.append((gid, "not", rng.choice(ids)))
        elif op == "const":
            gates.append((gid, "const", rng.randrange(2)))
        else:
            gates.append((gid, op, rng.choice(ids), rng.choice(ids)))
        ids.append(gid)
    return CvpInstance(gates=tuple(gates), output=rng.choice(ids), assignment=assignment)


class TestCvp:
    def test_small_formula(self):
        inst = CvpInstance(
            gates=(
                ("x", "var", "x"),
                ("y", "var", "y"),
                ("nx", "not", "x"),
                ("o", "or", "nx", "y"),
            ),
            output="o",
            assignment={"x": True, "y": False},
        )
        assert cvp_value(inst) is False
        red = from_cvp(inst)
        assert fragment_of(red.circuit) <= {GateKind.COMP, GateKind.DIV, GateKind.INPUT}
        assert red.query == 1
        assert _run(red) is False

    def test_const_gates(self):
        inst = CvpInstance(gates=(("c", "const", 1),), output="c")
        assert _run(from_cvp(inst)) is True
        inst = CvpInstance(gates=(("c", "const", 0),), output="c")
        assert _run(from_cvp(inst)) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            CvpInstance(gates=(("g", "and", "x", "y"),), output="g")
        with pytest.raises(ValueError):
            CvpInstance(gates=(("x", "var", "x"),), output="x")  # unassigned var
        with pytest.raises(ValueError):
            CvpInstance(gates=(("c", "const", 2),), output="c")
        with pytest.raises(ValueError):
            CvpInstance(gates=(("c", "const", 1),), output="missing")

    def test_random_agreement(self):
        rng = random.Random(173)
        for _ in range(80):
            inst = _random_cvp(rng)
            assert _run(from_cvp(inst)) == cvp_value(inst), inst


def _random_majority(rng: random.Random) -> MajorityDagInstance:
    n = rng.randrange(1, 8)
    children: dict = {}
    labels: dict = {}
    for v in range(n - 1, -1, -1):
        succs = [w for w in range(v + 1, n)]
        if succs and rng.random() < 0.7:
            take = rng.sample(succs, min(len(succs), rng.randrange(1, 4)))
            children[v] = tuple(take)
        else:
            labels[v] = rng.choice(("accept", "reject"))
    return MajorityDagInstance(root=0, children=children, labels=labels)


class TestMajorityDag:
    def test_tie_is_rejected(self):
        inst = MajorityDagInstance(
            root="r", children={"r": ("a", "b")}, labels={"a": "accept", "b": "reject"}
        )
        assert majority_path_counts(inst) == (1, 1)
        assert majority_accepts(inst) is False
        assert _run(from_majority_dag(inst)) is False

    def test_single_leaf(self):
        acc = MajorityDagInstance(root="r", children={}, labels={"r": "accept"})
        assert majority_accepts(acc) is True
        assert _run(from_majority_dag(acc)) is True
        rej = MajorityDagInstance(root="r", children={}, labels={"r": "reject"})
        assert _run(from_majority_dag(rej)) is False

    def test_path_counting_is_by_paths_not_leaves(self):
        # both routes reach the same accepting leaf: two accepting paths
        inst = MajorityDagInstance(
            root="r",
            children={"r": ("a", "b"), "a": ("l",), "b": ("l", "m")},
            labels={"l": "accept", "m": "reject"},
        )
        assert majority_path_counts(inst) == (2, 1)
        assert _run(from_majority_dag(inst)) is True

    def test_fragment(self):
        inst = MajorityDagInstance(root="r", children={}, labels={"r": "accept"})
        red = from_majority_dag(inst)
        assert fragment_of(red.circuit) <= {GateKind.MUL, GateKind.DIV, GateKind.INPUT}

    def test_validation(self):
        with pytest.raises(ValueError):
            MajorityDagInstance(root="r", children={}, labels={})  # root undefined
        with pytest.raises(ValueError):
            MajorityDagInstance(root="r", children={"r": ("r",)}, labels={})  # cycle
        with pytest.raises(ValueError):
            MajorityDagInstance(
                root="r", children={"r": ("a",)}, labels={"r": "accept", "a": "accept"}
            )  # labeled inner node
        with pytest.raises(ValueError):
            MajorityDagInstance(root="r", children={}, labels={"r": True})  # bad label

    def test_random_agreement(self):
        rng = random.Random(179)
        for _ in range(80):
            inst = _random_majority(rng)
            assert _run(from_majority_dag(inst)) == majority_accepts(inst), inst


class TestPrimesCircuit:
    def test_structure(self):
        c = primes_circuit()
        assert not c.vector
        assert len(c.gates) == 7
        assert fragment_of(c) == {
            GateKind.UNION,
            GateKind.COMP,
            GateKind.MUL,
            GateKind.INTER,
        }

    def test_members_below_thirty(self):
        c = primes_circuit()
        got = [b for b in range(30) if decide(c, b).member]
        assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

import copy
import itertools
import pickle
import random

import pytest

from setcircuits import INF, GateKind, NatSetRep, VecSetRep, exact_apply, natrep_apply, vecrep_apply
from setcircuits.errors import BudgetExceeded
from setcircuits.setrep import _pack, vecrep_from_label

# ---------------------------------------------------------------------------
# exact frozenset algebra


def test_exact_apply_scalar_table():
    a, b = frozenset({2, 6}), frozenset({0, 3})
    assert exact_apply(GateKind.UNION, a, b) == {0, 2, 3, 6}
    assert exact_apply(GateKind.INTER, a, b) == set()
    assert exact_apply(GateKind.ADD, a, b) == {2, 5, 6, 9}
    assert exact_apply(GateKind.MUL, a, b) == {0, 6, 18}
    assert exact_apply(GateKind.DIV, a, b) == {2}  # 6/3; division by 0 skipped


def test_exact_div_examples():
    assert exact_apply(GateKind.DIV, frozenset({6}), frozenset({2, 3})) == {2, 3}
    assert exact_apply(GateKind.DIV, frozenset({5}), frozenset({0})) == set()
    assert exact_apply(GateKind.DIV, frozenset({0}), frozenset({4})) == {0}


def test_exact_apply_vector():
    a = frozenset({(1, 2), INF})
    b = frozenset({(0, 1)})
    assert exact_apply(GateKind.ADD, a, b) == {(1, 3), INF}
    assert exact_apply(GateKind.SUB, a, b) == {(1, 1), INF}
    assert exact_apply(GateKind.SUB, b, a) == set()  # (0,1)-(1,2) negative; y=inf skipped


def test_exact_apply_refuses_comp():
    with pytest.raises(ValueError):
        exact_apply(GateKind.COMP, frozenset({1}), None)


def _random_naturals(rng, k):
    big = rng.random() < 0.3  # elements past 2^64
    return frozenset(rng.randrange(2**70 if big else 40) for _ in range(k))


def test_exact_div_mul_match_comprehensions():
    rng = random.Random("exact-div-mul")
    for _ in range(400):
        a = _random_naturals(rng, rng.choice((0, 1, 2, 5, 30)))
        b = _random_naturals(rng, rng.choice((0, 1, 1, 2, 4)))
        if rng.random() < 0.3:
            b |= {0}
        if rng.random() < 0.3:  # exact quotients past 2^64
            a |= {x * y for x in a for y in b}
        div = frozenset(x // y for x in a for y in b if y != 0 and x % y == 0)
        assert exact_apply(GateKind.DIV, a, b) == div, (a, b)
        assert exact_apply(GateKind.MUL, a, b) == frozenset(x * y for x in a for y in b), (a, b)


# ---------------------------------------------------------------------------
# scalar clamped tables


def literal(rep: NatSetRep, n: int) -> set:
    return {z for z in range(n + 1) if rep.member(z)}


def test_natrep_basics():
    r = NatSetRep.from_elements([0, 2], cutoff=4)
    assert r.member(0) and r.member(2)
    assert not r.member(1) and not r.member(4) and not r.member(100)
    assert not r.tail
    assert r.elements_upto(10) == [0, 2]


def test_natrep_from_elements_requires_room():
    with pytest.raises(ValueError):
        NatSetRep.from_elements([5], cutoff=5)  # 5 is the tail class, not literal
    with pytest.raises(ValueError):
        NatSetRep.from_elements([], cutoff=0)


@pytest.mark.parametrize("make", [
    lambda: NatSetRep(cutoff=0, mask=1),
    lambda: NatSetRep(cutoff=2, mask=0b1000),
    lambda: VecSetRep(dim=2, cutoff=1, cells=frozenset({(2, 0)})),
    lambda: VecSetRep(dim=0, cutoff=1, cells=frozenset()),
    lambda: NatSetRep(cutoff=2, mask=0b101)._replace(cutoff=1),
    lambda: VecSetRep._make((1, 2, frozenset({(3,)}), False)),
    lambda: VecSetRep(dim=1, cutoff=3, cells=frozenset({(1.0,)})),
    lambda: VecSetRep(dim=1, cutoff=3, cells=frozenset({(True,)})),
    lambda: VecSetRep(dim=1, cutoff=3, cells=frozenset({(-1,)})),
    lambda: VecSetRep(dim=2, cutoff=3, cells=frozenset({5})),
    lambda: VecSetRep(dim=2, cutoff=3, cells=frozenset({(1,)})),
    lambda: VecSetRep(dim=1, cutoff=2, cells=frozenset({(1,)}))._replace(cells=0b1000),
    lambda: VecSetRep(dim=1, cutoff=2, cells=frozenset({(1,)}))._replace(cells=True),
    lambda: VecSetRep(dim=1, cutoff=2, cells=frozenset({(1,)}))._replace(dim=2),
    lambda: NatSetRep(cutoff=2, mask=True),
    lambda: NatSetRep(cutoff=2.5, mask=1),
    lambda: VecSetRep(dim=2, cutoff=3, cells=frozenset(), inf="no"),
    lambda: VecSetRep(dim=1, cutoff=3, cells=frozenset(), inf="no"),
    lambda: VecSetRep(dim=2, cutoff=3, cells=frozenset(), inf=1),
    lambda: VecSetRep(dim=2, cutoff=3, cells=frozenset())._replace(inf=None),
    lambda: VecSetRep(dim=1, cutoff=3, cells=frozenset())._replace(inf="no"),
    lambda: copy.copy(tuple.__new__(type(VecSetRep(1, 2, frozenset())), (1, 2, 0b10, "no"))),
    lambda: pickle.loads(pickle.dumps(tuple.__new__(VecSetRep, (2, 2, frozenset(), 0)))),
], ids=["nat-cutoff-0", "nat-bit-past-cutoff", "vec-cell-outside", "vec-dim-0", "nat-replace",
        "vec-make", "vec-float-coord", "vec-bool-coord", "vec-negative-coord", "vec-cell-not-tuple",
        "vec-cell-short", "axis-replace-past-cutoff", "axis-replace-bool", "axis-replace-dim",
        "nat-bool-mask", "nat-float-cutoff", "vec-str-inf", "axis-str-inf", "vec-int-inf",
        "vec-replace-inf", "axis-replace-inf", "axis-copy-inf", "vec-pickle-inf"])
def test_public_constructors_check_their_fields(make):
    with pytest.raises(ValueError):
        make()


def test_reps_are_tuples():
    assert NatSetRep(cutoff=2, mask=0b101) == (2, 0b101)
    assert NatSetRep.from_elements([0], cutoff=2, tail=True) == NatSetRep(2, 0b101)
    v = VecSetRep(dim=1, cutoff=2, cells=frozenset({(1,)}))
    assert v == (1, 2, 0b10, False) and not v.inf  # one axis: cells is the NatSetRep mask
    v2 = VecSetRep(dim=2, cutoff=2, cells=frozenset({(1, 2)}))
    assert v2 == (2, 2, frozenset({(1, 2)}), False)
    assert repr(NatSetRep(2, 5)) == "NatSetRep(cutoff=2, mask=5)"


def test_natrep_comp_has_tail():
    a = NatSetRep.from_elements([1], cutoff=3)
    c = natrep_apply(GateKind.COMP, a, None, 3)
    assert literal(c, 10) == {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}
    assert c.tail


def test_natrep_div_two_witness_example():
    a = NatSetRep.from_elements([6], cutoff=8)
    b = NatSetRep.from_elements([2, 3], cutoff=8)
    q = natrep_apply(GateKind.DIV, a, b, 8)
    assert literal(q, 8) == {2, 3}


def test_natrep_div_with_infinite_dividend():
    naturals = NatSetRep(cutoff=1, mask=0b11)  # {0} plus the whole tail
    two = NatSetRep.from_elements([2], cutoff=4)
    q = natrep_apply(GateKind.DIV, naturals, two, 6)
    assert literal(q, 30) == set(range(31))
    assert q.tail


def test_natrep_div_witness_between_cutoffs():
    # the only witness, 20, lies between n_A + 1 and n_B
    a = NatSetRep(cutoff=2, mask=0b100)  # every z >= 2
    b = NatSetRep.from_elements([20], cutoff=35)
    q = natrep_apply(GateKind.DIV, a, b, 10)
    assert literal(q, 30) == set(range(1, 31))


def test_natrep_div_tail_reaches_the_result_cutoff():
    # w = 1 reads A literally up to n_A = n - 1; bit n comes from A's tail
    a = NatSetRep(cutoff=3, mask=0b1000)  # every z >= 3
    b = NatSetRep.from_elements([1], cutoff=2)
    assert literal(natrep_apply(GateKind.DIV, a, b, 4), 12) == set(range(3, 13))


def _random_rep(rng, cutoff, density=0.4):
    elems = [z for z in range(cutoff) if rng.random() < density]
    return NatSetRep.from_elements(elems, cutoff, tail=rng.random() < 0.4)


def _lit_set(rep, n):
    return {z for z in range(n + 1) if rep.member(z)}


@pytest.mark.parametrize("kind", [GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.DIV])
def test_natrep_ops_match_literal_sets(kind):
    rng = random.Random(f"natrep-ops-{kind.value}")
    top = 40 if kind is GateKind.DIV else 7  # div: B tails past n_A + 1 too
    for _ in range(80):
        na, nb = rng.randint(1, top), rng.randint(1, top)
        density = rng.choice((0.05, 0.4))
        a, b = _random_rep(rng, na, density), _random_rep(rng, nb, density)
        if kind is GateKind.ADD:
            n = na + nb + rng.randint(0, 3)
        else:
            n = max(na, nb) + rng.randint(0, 3)
        got = natrep_apply(kind, a, b, n)
        # wide literal window: beyond every cutoff, so tails are exercised
        w = 3 * (n + na + nb) + 7
        la, lb = _lit_set(a, w * (n + 2)), _lit_set(b, w * (n + 2))
        if kind is GateKind.UNION:
            want = {z for z in range(w + 1) if z in la or z in lb}
        elif kind is GateKind.INTER:
            want = {z for z in range(w + 1) if z in la and z in lb}
        elif kind is GateKind.ADD:
            want = {z for z in range(w + 1) if any(a_ in la and (z - a_) in lb for a_ in range(z + 1))}
        else:  # a witness past n + 2 is never needed, and z * bb stays in la's window
            want = {z for bb in lb if bb for z in range(min(w, w * (n + 2) // bb) + 1)
                    if z * bb in la}
        got_lit = _lit_set(got, w)
        assert got_lit == want, (kind, a, b, n)


def _padded_rep(rng, k, cutoff):
    """A set whose membership is constant from k on, kept at cutoff >= k."""
    tail = rng.random() < 0.5
    elems = [z for z in range(k) if rng.random() < 0.4] + (list(range(k, cutoff)) if tail else [])
    return NatSetRep.from_elements(elems, cutoff, tail=tail)


@pytest.mark.parametrize("kind", [GateKind.UNION, GateKind.INTER, GateKind.COMP])
def test_natrep_result_cutoff_below_operands(kind):
    # a certified result cutoff may sit below an operand's own cutoff; the
    # operand's bits are then cut at n, and bit n stands for every z >= n
    rng = random.Random(f"natrep-below-{kind.value}")
    for _ in range(80):
        ka, kb = rng.randint(1, 6), rng.randint(1, 6)
        a = _padded_rep(rng, ka, ka + rng.randint(0, 6))
        b = _padded_rep(rng, kb, kb + rng.randint(0, 6))
        n = max(ka, kb)
        got = natrep_apply(kind, a, None if kind is GateKind.COMP else b, n)
        w = 2 * (a.cutoff + b.cutoff) + 3
        la, lb = _lit_set(a, w), _lit_set(b, w)
        if kind is GateKind.UNION:
            want = la | lb
        elif kind is GateKind.INTER:
            want = la & lb
        else:
            want = set(range(w + 1)) - la
        assert _lit_set(got, w) == want, (kind, a, b, n)


def test_natrep_mul_refused():
    a = NatSetRep.from_elements([1], cutoff=3)
    with pytest.raises(ValueError):
        natrep_apply(GateKind.MUL, a, a, 3)


def test_natrep_budget():
    a = NatSetRep.from_elements([1], cutoff=3)
    with pytest.raises(BudgetExceeded):
        natrep_apply(GateKind.COMP, a, None, 10**8, max_grid_cells=10**6)


# ---------------------------------------------------------------------------
# vector clamped grids


def test_vecrep_from_label():
    r = vecrep_from_label((1, 2), dim=2, cutoff=4)
    assert r.member((1, 2)) and not r.member((2, 1)) and not r.member(INF)
    ri = vecrep_from_label(INF, dim=2, cutoff=1)
    assert ri.member(INF) and not ri.member((0, 0))
    with pytest.raises(ValueError):
        vecrep_from_label((4, 0), dim=2, cutoff=4)


def test_vecrep_member_clamps_per_coordinate():
    cells = frozenset({(0, 3), (3, 3)})
    r = VecSetRep(dim=2, cutoff=3, cells=cells)
    assert r.member((0, 50)) and r.member((70, 80))
    assert not r.member((50, 0))


def test_vecrep_comp_flips_everything():
    a = vecrep_from_label((1, 1), dim=2, cutoff=3)
    c = vecrep_apply(GateKind.COMP, a, None, 3)
    assert not c.member((1, 1))
    assert c.member((0, 0)) and c.member((9, 9)) and c.member(INF)


def test_vecrep_add_mixed_infinities():
    inf = vecrep_from_label(INF, dim=2, cutoff=1)
    pt = vecrep_from_label((1, 1), dim=2, cutoff=3)
    s = vecrep_apply(GateKind.ADD, inf, pt, 4)
    assert s.member(INF) and not s.member((1, 1))
    # inf plus the empty set is empty
    empty = VecSetRep(dim=2, cutoff=1, cells=frozenset())
    s2 = vecrep_apply(GateKind.ADD, inf, empty, 2)
    assert not s2.member(INF) and not s2.finite_nonempty()


def test_vecrep_add_classes():
    # the two-coordinate trap: comp({inf}) + {(1,1)} keeps (0, big) out but
    # includes (big, big)
    notinf = vecrep_apply(GateKind.COMP, vecrep_from_label(INF, dim=2, cutoff=1), None, 1)
    pt = vecrep_from_label((1, 1), dim=2, cutoff=3)
    s = vecrep_apply(GateKind.ADD, notinf, pt, 4)
    assert not s.member((0, 99))
    assert s.member((99, 99)) and s.member((1, 1)) and s.member((1, 99))
    assert not s.member((0, 0))


def test_vecrep_sub_witnesses_beyond_result_cutoff():
    # {3} - comp({inf}) needs witness y with 3+y against a finite-set table
    three = vecrep_from_label((3,), dim=1, cutoff=5)
    everything = vecrep_apply(GateKind.COMP, vecrep_from_label(INF, dim=1, cutoff=1), None, 1)
    d = vecrep_apply(GateKind.SUB, three, everything, 5)
    assert {p for p in itertools.product(range(6)) if d.member(p)} == {(0,), (1,), (2,), (3,)}
    assert not d.member(INF)


def test_vecrep_sub_inf_rules():
    inf = vecrep_from_label(INF, dim=1, cutoff=1)
    pt = vecrep_from_label((2,), dim=1, cutoff=4)
    assert vecrep_apply(GateKind.SUB, inf, pt, 2).member(INF)
    # x - inf contributes nothing
    assert not vecrep_apply(GateKind.SUB, pt, inf, 2).finite_nonempty()
    assert not vecrep_apply(GateKind.SUB, pt, inf, 2).member(INF)


def test_vecrep_budget():
    a = vecrep_from_label((0, 0, 0), dim=3, cutoff=2)
    with pytest.raises(BudgetExceeded):
        vecrep_apply(GateKind.UNION, a, a, 500, max_grid_cells=10**6)


def test_vecrep_dim_mismatch():
    a = vecrep_from_label((0, 0), dim=2, cutoff=2)
    b = vecrep_from_label((0,), dim=1, cutoff=2)
    with pytest.raises(ValueError):
        vecrep_apply(GateKind.UNION, a, b, 2)


# ---------------------------------------------------------------------------
# one-axis tables: computed on bitmaps


def _rep1(cutoff, elems, tail=False, inf=False):
    cells = {(x,) for x in elems} | ({(cutoff,)} if tail else set())
    return VecSetRep(dim=1, cutoff=cutoff, cells=frozenset(cells), inf=inf)


def _want1(kind, a, b, n):
    """The table at result cutoff n from literal membership: every cell is the
    literal point, as the grid path computes it; witnesses searched wide."""
    wide = 3 * (a.cutoff + (b.cutoff if b else 0) + n) + 5
    cells = set()
    for p in range(n + 1):
        if kind is GateKind.COMP:
            hit = not a.member((p,))
        elif kind is GateKind.UNION:
            hit = a.member((p,)) or b.member((p,))
        elif kind is GateKind.INTER:
            hit = a.member((p,)) and b.member((p,))
        elif kind is GateKind.ADD:
            hit = any(b.member((y,)) and a.member((p - y,)) for y in range(p + 1))
        else:
            hit = any(b.member((y,)) and a.member((p + y,)) for y in range(wide))
        if hit:
            cells.add((p,))
    finite_a, finite_b = bool(a.cells), bool(b and b.cells)
    inf = {
        GateKind.COMP: lambda: not a.inf,
        GateKind.UNION: lambda: a.inf or b.inf,
        GateKind.INTER: lambda: a.inf and b.inf,
        GateKind.ADD: lambda: (a.inf and (finite_b or b.inf)) or (b.inf and (finite_a or a.inf)),
        GateKind.SUB: lambda: a.inf and finite_b,
    }[kind]()
    return VecSetRep(dim=1, cutoff=n, cells=frozenset(cells), inf=bool(inf))


ONE_AXIS_KINDS = [GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.SUB]


@pytest.mark.parametrize("kind", ONE_AXIS_KINDS)
def test_one_axis_tables_match_literal_membership(kind):
    # operand cutoffs below, at and above the result cutoff; empty and full
    # operands; inf on either side
    rng = random.Random(f"one-axis-{kind.value}")
    shapes = [
        lambda k: _rep1(k, []),  # empty
        lambda k: _rep1(k, range(k), tail=True),  # everything finite
        lambda k: _rep1(k, [], tail=True),  # only the tail: sub needs y = w
        lambda k: _rep1(k, [x for x in range(k) if rng.random() < 0.4], tail=rng.random() < 0.5),
        lambda k: _rep1(k, [x for x in range(k) if rng.random() < 0.1]),
    ]
    for _ in range(150):
        n = rng.randint(1, 9)
        ka = rng.choice((max(1, n - rng.randint(1, 3)), n, n + rng.randint(1, 4)))
        kb = rng.choice((max(1, n - rng.randint(1, 3)), n, n + rng.randint(1, 4)))
        a = rng.choice(shapes)(ka)._replace(inf=rng.random() < 0.3)
        b = None if kind is GateKind.COMP else rng.choice(shapes)(kb)._replace(inf=rng.random() < 0.3)
        got = vecrep_apply(kind, a, b, n)
        assert got == _want1(kind, a, b, n), (kind, a, b, n)
        assert type(got.inf) is bool


@pytest.mark.parametrize("kind", ONE_AXIS_KINDS)
def test_one_axis_budget_refusals_at_the_grid_sizes(kind):
    # the refusal sizes of the grid path: n + 1 cells, (n+1)(n+2)/2 add
    # pairs, (n+1)(w+1) sub pairs with w = max(n_A, n_B)
    a, b = _rep1(6, [1, 4], tail=True), _rep1(9, [0, 2])
    for n in (3, 6, 12):
        need = {
            GateKind.ADD: (n + 1) * (n + 2) // 2,
            GateKind.SUB: (n + 1) * (max(a.cutoff, b.cutoff) + 1),
        }.get(kind, n + 1)
        operand = None if kind is GateKind.COMP else b
        vecrep_apply(kind, a, operand, n, max_grid_cells=need)
        with pytest.raises(BudgetExceeded, match="grid"):
            vecrep_apply(kind, a, operand, n, max_grid_cells=need - 1)


def test_one_axis_never_calls_natrep_apply(monkeypatch):
    # the benchmark's tracer wraps every binding of natrep_apply, and the
    # prime-factor route must show none
    from setcircuits import setrep

    def refuse(*args, **kw):
        raise AssertionError("natrep_apply called")

    monkeypatch.setattr(setrep, "natrep_apply", refuse)
    a, b = _rep1(4, [1, 3], tail=True), _rep1(3, [0, 2])
    for kind in ONE_AXIS_KINDS:
        vecrep_apply(kind, a, None if kind is GateKind.COMP else b, 5)


def _frozenset_reading(cutoff, cells, inf):
    """member, sat, below and finite_nonempty read off a frozenset of 1-tuples."""
    def member(x):
        return inf if x is INF else (min(x[0], cutoff),) in cells
    return member, (cutoff,) in cells, frozenset(p for p in cells if p[0] < cutoff), bool(cells)


def test_one_axis_mask_reads_as_its_cells():
    rng = random.Random("one-axis-layout")
    for _ in range(400):
        k = rng.randint(1, 70)
        mask = rng.getrandbits(k) | (rng.random() < 0.5) << k  # with and without the tail
        cells = frozenset((x,) for x in range(k + 1) if mask >> x & 1)
        inf = rng.random() < 0.5
        r = VecSetRep(dim=1, cutoff=k, cells=cells, inf=inf)
        assert r == (1, k, mask, inf)
        member, sat, below, nonempty = _frozenset_reading(k, cells, inf)
        assert (r.sat, r.below, r.finite_nonempty()) == (sat, below, nonempty)
        for x in [*range(k + 3), 10**30, INF]:
            assert r.member(x if x is INF else (x,)) is member(x if x is INF else (x,))


@pytest.mark.parametrize("kind", ONE_AXIS_KINDS)
def test_one_axis_kernel_results_equal_constructor_tables(kind):
    rng = random.Random(f"one-axis-results-{kind.value}")
    for _ in range(200):
        n, ka, kb = rng.randint(1, 20), rng.randint(1, 20), rng.randint(1, 20)
        a = _rep1(ka, [x for x in range(ka) if rng.random() < 0.3], rng.random() < 0.5,
                  rng.random() < 0.3)
        b = _rep1(kb, [x for x in range(kb) if rng.random() < 0.3], rng.random() < 0.5,
                  rng.random() < 0.3)
        got = vecrep_apply(kind, a, None if kind is GateKind.COMP else b, n)
        cells = frozenset((x,) for x in range(n + 1) if got.member((x,)))
        want = VecSetRep(dim=1, cutoff=n, cells=cells, inf=got.inf)
        assert got == want and type(got) is type(want), (kind, a, b, n)
    for v in range(5):
        assert vecrep_from_label((v,), dim=1, cutoff=5) == VecSetRep(1, 5, frozenset({(v,)}))
    assert vecrep_from_label(INF, dim=1, cutoff=5) == VecSetRep(1, 5, frozenset(), True)


# ---------------------------------------------------------------------------
# sub: one shift kernel at every dim


def _random_vec(rng, dim, cutoff, density):
    grid = itertools.product(range(cutoff + 1), repeat=dim)
    return VecSetRep(dim, cutoff, frozenset(p for p in grid if rng.random() < density))


def _sub_by_points(a, b, n):
    """A - B at cutoff n by the point definition: p is in A - B iff some y in
    [0, w]^dim, w = max(n_A, n_B), lies in B with p + y in A; inf is in it
    iff inf is in A and B has a finite point."""
    dim, w = a.dim, max(a.cutoff, b.cutoff)
    box = list(itertools.product(range(w + 1), repeat=dim))
    ys = [y for y in box if b.member(y)]
    cells = frozenset(
        p for p in itertools.product(range(n + 1), repeat=dim)
        if any(a.member(tuple(u + v for u, v in zip(p, y))) for y in ys)
    )
    return VecSetRep(dim, n, cells, a.inf and bool(ys))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sub_matches_the_point_definition(dim):
    rng = random.Random(f"sub-points-{dim}")
    top = {1: 9, 2: 5, 3: 3, 4: 2}[dim]
    grid = lambda k: itertools.product(range(k + 1), repeat=dim)  # noqa: E731
    shapes = [
        lambda k: VecSetRep(dim, k, frozenset()),  # empty
        lambda k: VecSetRep(dim, k, frozenset(grid(k))),  # full
        lambda k: VecSetRep(dim, k, frozenset(p for p in grid(k) if k in p)),  # only tails
        lambda k: VecSetRep(dim, k, frozenset({(k,) * dim})),  # only the corner class
        lambda k: _random_vec(rng, dim, k, rng.choice((0.1, 0.4, 0.8))),
    ]
    for _ in range(60):
        ka, kb = rng.randint(1, top), rng.randint(1, top)
        low, high = min(ka, kb), max(ka, kb)
        n = rng.choice((max(1, low - 1), low, high, high + rng.randint(1, 2)))
        a = rng.choice(shapes)(ka)._replace(inf=rng.random() < 0.3)
        b = rng.choice(shapes)(kb)._replace(inf=rng.random() < 0.3)
        got = vecrep_apply(GateKind.SUB, a, b, n)
        assert got == _sub_by_points(a, b, n), (a, b, n)
        assert type(got.inf) is bool


@pytest.mark.parametrize("dim, n, ka, kb", [
    (2, 37, 1, 1), (2, 20, 3, 2), (2, 1, 13, 1), (2, 2, 10, 3),
    (3, 11, 1, 1), (3, 6, 2, 1), (3, 1, 8, 1),
])
def test_vector_sub_unfolds_far_past_a_cutoff(dim, n, ka, kb):
    # A is unfolded from its cutoff ka to n + ka and B from kb to ka, both at
    # stride n + ka + 1: the slab at a cutoff is copied over every coordinate
    # up to the unfold's end, and not into the padding past it
    rng = random.Random(f"far-unfold-{dim}-{n}-{ka}-{kb}")
    s = n + ka + 1
    for _ in range(3):
        a = _random_vec(rng, dim, ka, 0.5)._replace(inf=rng.random() < 0.5)
        b = _random_vec(rng, dim, kb, 0.3)
        assert vecrep_apply(GateKind.SUB, a, b, n) == _sub_by_points(a, b, n), (a, b, n)
        for rep, m in ((a, n + ka), (b, ka)):
            want = sum(1 << sum(v * s**e for v, e in zip(p, range(dim - 1, -1, -1)))
                       for p in itertools.product(range(m + 1), repeat=dim) if rep.member(p))
            assert _pack(rep, m, s) == want, (rep, m)


class _CountingInt(int):
    """An int that counts the shifts taken of it, and the bits they shift."""

    shifts = bits = 0

    def __lshift__(self, k):
        _CountingInt.shifts += 1
        _CountingInt.bits += self.bit_length()
        return int(self) << k

    def __rshift__(self, k):
        _CountingInt.shifts += 1
        _CountingInt.bits += self.bit_length()
        return int(self) >> k


def _count_shifts(monkeypatch, name, log):
    """Wrap setrep's bitmap helper `name` so that every call's shifts land in
    log, after its third argument (add's cutoff, sub's box or points)."""
    from setcircuits import setrep

    orig = getattr(setrep, name)

    def counted(x, y, third, *rest):
        _CountingInt.shifts = 0
        try:
            return orig(_CountingInt(x), _CountingInt(y), third, *rest)
        finally:
            log.append((third, _CountingInt.shifts))

    monkeypatch.setattr(setrep, name, counted)


def test_bitmap_kernels_shift_within_the_budget_they_checked(monkeypatch):
    adds, subs = [], []
    _count_shifts(monkeypatch, "_add_bits", adds)
    _count_shifts(monkeypatch, "_sub_bits", subs)
    rng = random.Random("shift-budget")
    for _ in range(300):
        na, nb = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.05, 0.5, 0.95))
        a, b = _random_rep(rng, na, density), _random_rep(rng, nb, density)
        n = na + nb + rng.randint(0, 3)
        budget = rng.randint(n + 1, (n + 1) ** 2)
        adds.clear()
        try:
            natrep_apply(GateKind.ADD, a, b, n, max_grid_cells=budget)
        except BudgetExceeded:
            (m, shifts), = adds
            assert shifts * (n + 1) <= budget < (shifts + 1) * (n + 1)  # refused at the next
        else:
            (m, shifts), = adds
            assert m == n and shifts * (n + 1) <= budget
        # one axis: add shifts at most n + 1 times, within twice the pairs
        # checked; sub once per cell of B's box [0, w]
        va = _rep1(na, [z for z in range(na) if a.member(z)], tail=a.tail)
        vb = _rep1(nb, [z for z in range(nb) if b.member(z)], tail=b.tail)
        adds.clear()
        vecrep_apply(GateKind.ADD, va, vb, n)
        (m, shifts), = adds
        assert shifts <= n + 1 and shifts * (n + 1) <= (n + 1) * (n + 2)
        subs.clear()
        w = max(na, nb)
        vecrep_apply(GateKind.SUB, va, vb, n)
        (m, shifts), = subs
        assert shifts <= w + 1 and shifts * (n + 1) <= (n + 1) * (w + 1)
    # dims 2-4: sub folds B at A's cutoff k and shifts A, packed at stride
    # n + k + 1, right by each witness or by each point of the box [0, n]^dim,
    # whichever are fewer: under 2^dim bits shifted per pair of the sub search
    points = []
    _count_shifts(monkeypatch, "_sub_points", points)
    paths = set()
    for _ in range(60):
        dim = rng.randint(2, 4)
        top = {2: 6, 3: 4, 4: 3}[dim]
        na, nb, n = rng.randint(1, top), rng.randint(1, top), rng.randint(1, top)
        density = rng.choice((0.05, 0.5, 1.0))
        va, vb = _random_vec(rng, dim, na, density), _random_vec(rng, dim, nb, density)
        w, k = max(na, nb), na
        checked = (n + 1) ** dim * (w + 1) ** dim
        subs.clear()
        points.clear()
        _CountingInt.bits = 0
        vecrep_apply(GateKind.SUB, va, vb, n, max_grid_cells=checked)
        stride = n + k + 1  # row-major: the last coordinate is the lowest digit
        offset = lambda p: sum(x * stride ** (dim - 1 - i) for i, x in enumerate(p))  # noqa: E731
        grid = list(itertools.product(range(n + 1), repeat=dim))
        folded = {tuple(min(v, k) for v in y)
                  for y in itertools.product(range(w + 1), repeat=dim) if vb.member(y)}
        if len(folded) <= (n + 1) ** dim:
            (box, shifts), = subs
            assert not points and shifts == len(folded)
            assert box == sum(1 << offset(p) for p in grid)
        else:
            (offsets, shifts), = points
            assert not subs and shifts == (n + 1) ** dim
            assert offsets == [offset(p) for p in grid]
        paths.add(bool(subs))
        assert _CountingInt.bits <= 2**dim * checked
        with pytest.raises(BudgetExceeded, match="sub search"):
            vecrep_apply(GateKind.SUB, va, vb, n, max_grid_cells=checked - 1)
    assert paths == {True, False}


_GRID2 = frozenset(itertools.product(range(3), repeat=2))  # [0, 2]^2


def _label_rep(value, cutoff, comp=False):
    rep = vecrep_from_label(value, dim=2, cutoff=cutoff)
    return vecrep_apply(GateKind.COMP, rep, None, cutoff) if comp else rep


@pytest.mark.parametrize("a, b, cells, inf", [
    # B far past A: its ~90k witnesses fold onto A's [0, 1]^2
    ((0, 0, 1, True), (299, 299, 300, True), _GRID2, True),
    ((0, 0, 1, False), (299, 299, 300, True), {(0, 0)}, False),
    # A far past n: B's ~90k witnesses outnumber the 9 points of [0, 2]^2
    ((299, 299, 300, False), (298, 298, 300, True), _GRID2 - {(1, 1)}, False),
    ((299, 299, 300, False), (298, 298, 300, False), {(1, 1)}, False),
], ids=["far-B-dense-A", "far-B-sparse-A", "far-A-dense-B", "far-A-sparse-B"])
def test_vector_sub_far_past_the_result_cutoff_shifts_within_its_check(monkeypatch, a, b, cells, inf):
    # n = 2 against w = 300: the sub search is 9 x 301^2 pairs, and B's
    # witnesses or A's cells reach 300; a sub still makes at most 9 shifts,
    # each of a grid of side n + k + 1, k being A's cutoff
    counts = []
    _count_shifts(monkeypatch, "_sub_bits", counts)
    _count_shifts(monkeypatch, "_sub_points", counts)
    _CountingInt.bits = 0
    n, w = 2, 300
    checked = (n + 1) ** 2 * (w + 1) ** 2
    got = vecrep_apply(GateKind.SUB, _label_rep((a[0], a[1]), a[2], a[3]),
                       _label_rep((b[0], b[1]), b[2], b[3]), n, max_grid_cells=checked)
    assert got == VecSetRep(2, n, frozenset(cells), inf)
    assert sum(k for _, k in counts) <= (n + 1) ** 2
    assert _CountingInt.bits <= 4 * checked


@pytest.mark.parametrize("budget", [10**7, 2 * 10**7, 3 * 10**7])
def test_natrep_add_at_a_huge_cutoff_ends(budget):
    # comp({2}) + {2} takes one shift; comp({2}) + comp({2}) is full after two
    n = 4 * 10**6
    not2 = NatSetRep(cutoff=3, mask=0b1011)
    two = NatSetRep.from_elements([2], cutoff=3)
    s = natrep_apply(GateKind.ADD, not2, two, n, max_grid_cells=budget)
    assert not s.member(4) and s.member(3) and s.member(10**9)
    if budget < 2 * (n + 1):
        with pytest.raises(BudgetExceeded, match="grid"):
            natrep_apply(GateKind.ADD, not2, not2, n, max_grid_cells=budget)
    else:
        assert natrep_apply(GateKind.ADD, not2, not2, n, max_grid_cells=budget).mask == (
            (1 << (n + 1)) - 1
        )

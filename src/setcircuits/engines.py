"""Membership engines.

Each engine decides "is b in I(C)?" for a class of circuits:

* eval_singleton / eval_singleton_vector: fragments where every gate's set
  has at most one element ({inter, add, mul, div} scalar, {inter, add, sub}
  vector); values are propagated directly.
* eval_exact: comp-free fragments; every gate's finite set is materialized,
  guarded by an element budget. Given a query, a {union, inter, div}
  circuit keeps at each gate only the values that divide its demand
  (_demand), the values that can still put the query in the output; the
  exact row does this per query wherever the circuit uses div.
* eval_clamped_scalar / eval_clamped_vector: comp-capable, mul-free
  fragments; per-gate clamped representations (NatSetRep, VecSetRep) built
  bottom-up at the structural cutoff profile by one loop (_eval_clamped),
  which checks every gate's grid budget first and runs each distinct kernel
  application once per call. VecSetRep is the one set representation of
  every vector route. Both clamped-vector rows tabulate only the output's
  cone: a gate's cutoff reads only the gates that feed it, so every table
  the output reads is the one the whole circuit gives, and a gate that feeds
  nothing costs no grid work and no budget.
* search, certificate and divisor-search: one memoized top-down search over
  (gate, value) pairs (_Search, built by _prepare_search) that unfolds the
  set definitions, guessing the operand pairs of add, mul, div and sub in
  one loop (_operands); mul asks the divisor pairs of its value. The rows
  differ only in the value bound, fixed when the search starts. search, on
  the clamped engines' fragments, clamps each value at its gate's cutoff, so
  the state space is finite; it shares no set representation with the
  clamped evaluators, so xcheck_circuit uses it as their independent check.
  certificate, on comp-free scalar fragments, answers a value past its
  gate's interval bound False; its recorded choices are a witness that
  verify_certificate checks. divisor-search, on {union, inter, comp, mul},
  has no bound: a query b >= 1 only asks divisors of b, and it is the second
  engine of the comp and mul circuits. Each row prepares one search whose
  memo and step budget its queries share; the budget counts steps: every
  opened pair and every scanned value. The search runs on an explicit stack
  (_run), so circuit depth is not bounded by Python's recursion limit.

The engine table _ENGINES is the one place an engine's domain, fragment,
preparation, route, fallback and cone are declared; decide(),
applicable_engines() and xcheck_circuit() all read it, and so does the CLI's
eval through pick_engine(). decide() takes the first row of the circuit's
domain whose `needs` the circuit uses and whose fragment holds every kind
the circuit uses; a circuit whose row is a `cone` row, or that no row takes,
is routed again on its output's cone (pick_engine). certificate, search and
divisor-search are never taken, as each follows a row with no needs whose
fragment holds its own, but may be a row's `fallback`. A cone no row fits,
comp with both add and mul, is refused (OpenFragmentError): no decision
procedure is known. Every row that clamps reads the one structural profile
(bounds.cutoff_profile), so a verdict names only the row that answered.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

from .bounds import CLAMPABLE_SCALAR, CLAMPABLE_VECTOR, cutoff_profile, structural_cutoff
from .circuit import INF, Circuit, GateKind, _is_nat, fragment_of, require_fragment, subcircuit_at
from .errors import BudgetExceeded, OpenFragmentError
from .numtheory import NotRepresentable, factorize
from .setrep import (
    NatSetRep,
    exact_apply,
    natrep_apply,
    vecrep_apply,
    vecrep_from_label,
    vecrep_work,
)
from .transforms import GCDFREE_SCALAR, PRIMEFACT_SCALAR, to_vector_gcdfree, to_vector_primefact

# module constants: Enum attribute reads are slow, and decide() pays each one
_INPUT, _UNION, _INTER, _COMP, _ADD, _MUL, _DIV, _SUB = (
    GateKind.INPUT, GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.MUL,
    GateKind.DIV, GateKind.SUB,
)
_new = tuple.__new__  # the unchecked constructor of tuple records built here

SINGLETON_SCALAR = frozenset({GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV})
SINGLETON_VECTOR = frozenset({GateKind.INTER, GateKind.ADD, GateKind.SUB})
EXACT_SCALAR = frozenset(
    {GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV}
)
EXACT_VECTOR = frozenset({GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.SUB})
DIVISOR_SCALAR = frozenset({GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.MUL})
_DEMAND_SCALAR = frozenset({GateKind.UNION, GateKind.INTER, GateKind.DIV})


@dataclass(frozen=True)
class EngineBudget:
    max_set_elems: int = 10**6
    max_grid_cells: int = 10**7
    max_memo_entries: int = 10**7


DEFAULT_BUDGET = EngineBudget()


class MembershipVerdict(namedtuple("MembershipVerdict", "member engine stats witness")):
    """The tuple (member, engine, stats, witness).

    stats defaults to a new dict per verdict. decide() builds verdicts with
    tuple.__new__, as the setrep kernels build their results.
    """

    __slots__ = ()

    def __new__(cls, member: bool, engine: str, stats: dict | None = None,
                witness: dict | None = None):
        return _new(cls, (member, engine, {} if stats is None else stats, witness))


# ---------------------------------------------------------------------------
# singleton propagation

def eval_singleton(c: Circuit) -> dict:
    """Per-gate value for {inter, add, mul, div} scalar circuits.

    Each gate's set has at most one element by construction; the dict maps
    gate id to that element or to None for the empty set.
    """
    require_fragment(c, SINGLETON_SCALAR, "singleton evaluation", vector=False)
    INPUT, INTER, ADD, MUL = _INPUT, _INTER, _ADD, _MUL
    val: dict = {}
    for gid, kind, preds, value in c.gates:
        if kind is INPUT:
            val[gid] = value
            continue
        a, b = val[preds[0]], val[preds[1]]
        if a is None or b is None:
            val[gid] = None
        elif kind is INTER:
            val[gid] = a if a == b else None
        elif kind is ADD:
            val[gid] = a + b
        elif kind is MUL:
            val[gid] = a * b
        else:  # DIV
            val[gid] = a // b if b != 0 and a % b == 0 else None
    return val


def eval_singleton_vector(c: Circuit) -> dict:
    """Per-gate value for {inter, add, sub} vector circuits (tuple, INF, or None)."""
    require_fragment(c, SINGLETON_VECTOR, "singleton vector evaluation", vector=True)
    INPUT, INTER, ADD = _INPUT, _INTER, _ADD
    val: dict = {}
    for gid, kind, preds, value in c.gates:
        if kind is INPUT:
            val[gid] = value
            continue
        a, b = val[preds[0]], val[preds[1]]
        if a is None or b is None:
            val[gid] = None
        elif kind is INTER:
            val[gid] = a if a == b else None
        elif kind is ADD:
            if a is INF or b is INF:
                val[gid] = INF
            else:
                val[gid] = tuple(map(operator.add, a, b))
        else:  # SUB
            if b is INF:
                val[gid] = None
            elif a is INF:
                val[gid] = INF
            else:
                d = tuple(map(operator.sub, a, b))
                val[gid] = d if min(d) >= 0 else None
    return val


# ---------------------------------------------------------------------------
# exact finite evaluation

def eval_exact(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET, query: int | None = None) -> dict:
    """Materialize every gate's finite set for comp-free circuits.

    Given a query b, a scalar {union, inter, div} circuit keeps at each gate
    g that the output reads only the values dividing its demand D(g)
    (_demand): every natural divides 0, and 0 divides only 0. Then b is in
    the output's kept set exactly when it is in the full one. Write S(g) for
    the full set and K(g) for the kept one; in gate order, S(g) ∩ Div(D(g))
    ⊆ K(g) ⊆ S(g). A demand e that a reader passes to p has S(p) ∩ Div(e) ⊆
    S(p) ∩ Div(D(p)), as D(p) is the lcm of those demands (0 absorbs) cut to
    its gcd with L(p), a multiple of every nonzero value of p. union and
    inter are monotone and pass D(g) on. div passes D(g)·L(divisor): v = a/w
    with v | D(g) and w | L(divisor) gives a | D(g)·L(divisor) and w | a.
    At the output D = gcd(b, L) for b >= 1, and 0 for b = 0.
    """
    require_fragment(c, EXACT_VECTOR if c.vector else EXACT_SCALAR, "exact evaluation")
    if query is None:  # demand 0 keeps every value of every gate
        live = zip(c.gates, itertools.repeat(0))
    else:
        require_fragment(c, _DEMAND_SCALAR, "query-directed exact evaluation", vector=False)
        live = _demand(c, query)
    INPUT, max_elems = _INPUT, budget.max_set_elems
    sets: dict = {}
    for (gid, kind, preds, value), d in live:
        out = frozenset((value,)) if kind is INPUT else exact_apply(kind, sets[preds[0]], sets[preds[1]])
        if d:
            out = frozenset([v for v in out if v and not d % v])
        if len(out) > max_elems:
            raise BudgetExceeded("set-size", f"gate {gid} holds {len(out)} elements")
        sets[gid] = out
    return sets


def _demand(c: Circuit, b: int) -> list:
    """(gate, D(gate)) for each gate the output reads, in gate order. L(g),
    bottom-up, is an input's label (1 for 0), the lcm for union, the gcd
    for inter and the dividend's for div; D starts at b on the output."""
    INPUT, UNION, INTER, DIV = _INPUT, _UNION, _INTER, _DIV
    gcd, lcm = math.gcd, math.lcm
    bound: dict = {}
    for gid, kind, preds, value in c.gates:
        if kind is INPUT:
            bound[gid] = value or 1
        elif kind is UNION:
            bound[gid] = lcm(bound[preds[0]], bound[preds[1]])
        elif kind is INTER:
            bound[gid] = gcd(bound[preds[0]], bound[preds[1]])
        else:  # DIV
            bound[gid] = bound[preds[0]]
    demand = {c.output: b}
    live = []
    for g in reversed(c.gates):
        gid, kind, preds, _ = g
        d = demand.get(gid)
        if d is None:  # feeds nothing the output reads
            continue
        if d:  # no demand outgrows the labels' lcm
            d = gcd(d, bound[gid])
        live.append((g, d))
        if kind is DIV:
            d *= bound[preds[1]]
        if kind is not INPUT:
            for p in preds:
                e = demand.get(p)
                demand[p] = d if e is None else lcm(e, d)
    live.reverse()
    return live


# ---------------------------------------------------------------------------
# clamped evaluation

def eval_clamped_scalar(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET):
    """Per-gate NatSetRep for {union, inter, comp, add, div} circuits.

    Returns (reps, output rep). Exact under the clamped reading at the
    structural cutoffs (_eval_clamped).
    """
    require_fragment(c, CLAMPABLE_SCALAR, "clamped scalar evaluation", vector=False)
    return _eval_clamped(c, budget, natrep_apply)


def eval_clamped_vector(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET):
    """Per-gate VecSetRep for {union, inter, comp, add, sub} vector circuits.

    Returns (reps, output rep), as eval_clamped_scalar does.
    """
    require_fragment(c, CLAMPABLE_VECTOR, "clamped vector evaluation", vector=True)
    return _eval_clamped(c, budget, vecrep_apply)


def _eval_clamped(c: Circuit, budget: EngineBudget, apply: Callable):
    """The clamped evaluators' one loop: each gate's rep at its structural
    cutoff, bottom-up, with apply the domain's kernel. Each distinct kernel
    application (kind, operand reps, cutoff) runs once per call, and every
    later gate with the same key shares its rep: kernels are pure and reps
    hashable. from_cvp's sets are all empty or full, so most of its gates
    repeat a key; a frozenset of cells caches its hash, so at dims >= 2 a key
    hashes each new rep's cells once. Every static grid estimate is checked
    before the first kernel runs, so a refusal costs no grid work."""
    cut = cutoff_profile(c).cutoffs
    max_cells, dim, vector = budget.max_grid_cells, c.dim, c.vector
    # (the largest cutoff + 1)^(2 dim) bounds every gate's cells and its vecrep_work
    if (max(cut.values()) + 1) ** (2 * dim if vector else dim) > max_cells:
        for gid, kind, preds, _ in c.gates:
            n = cut[gid]
            if (n + 1) ** dim > max_cells:
                need = f"({n + 1})^{dim} cells" if vector else f"a {n + 1}-cell bitmap"
                raise BudgetExceeded("grid", f"gate {gid} needs {need}")
            if vector and (kind is _ADD or kind is _SUB):
                vecrep_work(kind, n, max(cut[preds[0]], cut[preds[1]]), dim, max_cells)
    INPUT, COMP = _INPUT, _COMP
    reps: dict = {}
    done: dict = {}  # (kind, operand reps, cutoff) -> its rep, for this call only
    for gid, kind, preds, value in c.gates:
        n = cut[gid]
        if kind is INPUT:  # a label is below its gate's cutoff
            reps[gid] = vecrep_from_label(value, dim, n) if vector else _new(NatSetRep, (n, 1 << value))
            continue
        key = (kind, reps[preds[0]], None if kind is COMP else reps[preds[1]], n)
        rep = done.get(key)
        if rep is None:
            rep = done[key] = apply(*key, max_cells)
        reps[gid] = rep
    return reps, reps[c.output]


# ---------------------------------------------------------------------------
# top-down search over (gate, value) pairs

class _Search:
    """One memoized top-down search: whether a gate can take a value, asked
    for (gate, value) pairs from the output down.

    Its value bound, fixed here, is its one switch, and it is read only where
    a value enters (_run), at div's last divisor and in _some:
    * clamped (search): top maps each gate to its cutoff, and a value is
      clamped at its gate's cutoff.
    * bounded (certificate): top maps each gate to a sound upper bound on its
      values (_cert_value_bounds), and a value past it is answered False
      without being opened.
    * unbounded (divisor-search): top is inf at every gate. A query b >= 1
      only asks divisors of b, so the search ends; 0 at a mul would need
      some value of the other operand, which no bound ends, and is refused.
    The bound also ends the values _some scans. Every opened pair and every
    scanned value is a step, and the budget counts steps.
    """

    __slots__ = ("c", "top", "clamp", "limit", "memo", "some_memo", "used", "steps")

    def __init__(self, c, top, clamp, budget):
        self.c = c
        self.top = top  # gate id -> the value bound
        self.clamp = clamp
        self.limit = budget.max_memo_entries
        self.memo: dict = {}
        self.some_memo: dict = {}
        self.used: dict = {}  # (gate id, value) found true -> the operand pairs it used
        self.steps = 0


def search_member(c: Circuit, x, budget: EngineBudget = DEFAULT_BUDGET) -> bool:
    """Decide x in I(C) by the top-down search over (gate, clamped value).

    Values are clamped at each gate's structural cutoff before dispatch, so
    the state space is finite; decompositions at add (a + b = x), div (w and
    w*x) and sub (x + y) are enumerated inside exact bounds mirroring the
    clamped representations. comp is plain logical negation of the predecessor query.
    """
    require_fragment(c, CLAMPABLE_VECTOR if c.vector else CLAMPABLE_SCALAR, "membership search")
    return _prepare_search(c, budget)(_check_query(c, x))[0]


def _prepare_search(c, budget, top=None):
    """member(x) -> (member, stats, witness), on one memo and one step budget
    shared by every query. top is the value bound: None clamps at the
    structural cutoffs, a dict bounds each gate by its entry. A witness is
    read where the bound is not clamped and c has no comp. The fragment is
    the caller's to check."""
    clamp = top is None
    st = _Search(c, cutoff_profile(c).cutoffs if clamp else top, clamp, budget)
    walk = not clamp and _COMP not in fragment_of(c)

    def member(x):
        ok = _run(st, (c.output, x))
        witness = None
        if ok and walk:
            witness = {}
            todo = [(c.output, x)]
            while todo:
                pair = todo.pop()
                if pair not in witness:
                    witness[pair] = st.used[pair]
                    todo += reversed(witness[pair])
        return ok, {"memo_entries": len(st.memo) + len(st.some_memo), "steps": st.steps}, witness

    return member


def certificate_search(c: Circuit, b: int, budget: EngineBudget = DEFAULT_BUDGET):
    """Search the choices that show b in I(C), on the circuit itself.

    The search of search_member, with each value bounded by interval
    arithmetic over the gates (union is max, inter is min, quotients never
    exceed the dividend) rather than clamped, so the search is complete.
    Each pair found true records the operand pairs it used, and the witness
    is those records read from (output, b): it maps each (gate id, value)
    pair it holds to its operand pairs, () for an input, one pair for union
    and one pair per predecessor, in pred order, for inter, add, mul and
    div. Returns (member, witness or None, stats).
    """
    require_fragment(c, EXACT_SCALAR, "certificate search", vector=False)
    ok, stats, witness = _prepare_search(c, budget, _cert_value_bounds(c))(_check_query(c, b))
    return ok, witness, stats


def _cert_value_bounds(c: Circuit) -> dict:
    """Sound per-gate upper bounds by interval arithmetic (comp-free scalar)."""
    ub: dict = {}
    for gid, kind, preds, value in c.gates:
        if kind is _INPUT:
            ub[gid] = value
        elif kind is _UNION:
            ub[gid] = max(ub[preds[0]], ub[preds[1]])
        elif kind is _INTER:
            ub[gid] = min(ub[preds[0]], ub[preds[1]])
        elif kind is _ADD:
            ub[gid] = ub[preds[0]] + ub[preds[1]]
        elif kind is _MUL:
            ub[gid] = ub[preds[0]] * ub[preds[1]]
        else:  # DIV: a quotient never exceeds its dividend
            ub[gid] = ub[preds[0]]
    return ub


def _run(st: _Search, req):
    """Whether the gate of the (gate, value) pair req can take the value.

    The frames below run on an explicit stack, not Python's, so deep
    circuits need no recursion. A frame is a generator over one (gate, value)
    pair: it yields the requests it needs answered, in the order the
    recursive definition asks them, receives each answer and returns its own.
    A request is a pair, answered on entry (past the bound, or from the memo)
    or by a new frame whose answer the memo keeps, or a _some frame.
    """
    memo, top, gate, clamp, vector = st.memo, st.top, st.c.gate, st.clamp, st.c.vector
    stack = []
    while True:
        res = None  # None: a frame was pushed, and is started by sending None
        if type(req) is tuple:
            gid, v = req
            n = top[gid]
            if not clamp:
                if v > n:
                    res = False
            elif not vector:
                v = min(v, n)
            elif v is not INF:
                v = tuple(min(x, n) for x in v)
            if res is None:
                key = (gid, v)
                res = memo.get(key)
                if res is None:
                    _step(st)
                    stack.append((_frame(st, gate(gid), v), key))
        else:
            stack.append((req, None))
        while True:
            if not stack:
                return res
            frame, key = stack[-1]
            try:
                req = frame.send(res)
                break
            except StopIteration as stop:
                stack.pop()
                res = stop.value
                if key is not None:
                    memo[key] = res


def _step(st: _Search):
    st.steps += 1
    if st.steps > st.limit:
        raise BudgetExceeded("memo", "search steps")


def _frame(st: _Search, g, v):
    """Frame: whether gate g can take the value v. When it can, the operand
    pairs it used are recorded at st.used[g.gid, v]; comp records none."""
    kind = g.kind
    pairs = None
    if kind is _INPUT:
        if v == g.value:
            pairs = ()
    elif kind is _COMP:
        return not (yield (g.preds[0], v))
    else:
        p1, p2 = g.preds
        if kind is _UNION:
            if (yield (p1, v)):
                pairs = ((p1, v),)
            elif (yield (p2, v)):
                pairs = ((p2, v),)
        elif kind is _INTER:
            if (yield (p1, v)) and (yield (p2, v)):
                pairs = ((p1, v), (p2, v))
        elif v is INF or v == 0 and kind is not _ADD:
            # v absorbs the operation (x + inf, inf - y, x * 0, 0 / w), so its
            # operands are unbounded: ask v of one and some value of the other.
            either = kind is _ADD or kind is _MUL  # commutative: v on either side
            if (yield (p1, v)) and (w := (yield _some(st, p2, either))) is not None:
                pairs = ((p1, v), (p2, w))
            elif either and (yield (p2, v)) and (w := (yield _some(st, p1, True))) is not None:
                pairs = ((p1, w), (p2, v))
        else:  # add, mul, div, sub: the second operand's value first
            for x, y in _operands(st, kind, p1, p2, v):
                if (yield (p2, y)) and (yield (p1, x)):
                    pairs = ((p1, x), (p2, y))
                    break
    if pairs is None:
        return False
    st.used[g.gid, v] = pairs
    return True


def _operands(st: _Search, kind, p1: int, p2: int, v):
    """The operand values (x of p1, y of p2) that add, mul, div or sub (the
    clamped mode only) turn into v, in the order the search tries them. x and
    y run in lockstep: for add, x = v - y counts down as y counts up; for mul
    (v >= 1), y runs over the divisors of v, a step each, and x = v / y.
    div's divisors w >= 1, a step each, end at the value bound (x = v * w
    within p1's) in the bounded mode, and one past the larger cutoff, where
    every w clamps alike, in the clamped one."""
    top, grid = st.top, itertools.product
    if kind is _ADD and not st.c.vector:
        return zip(range(v, -1, -1), range(v + 1))
    if kind is _MUL:  # one divisor at a time: v may have more than the budget allows
        f = sorted(factorize(v).items())
        ps = [p for p, _ in f]
        ys = (math.prod(map(pow, ps, ks)) for ks in grid(*(range(e + 1) for _, e in f)))
        return _ticked(st, ((v // y, y) for y in ys))
    if kind is _ADD:
        return zip(grid(*(range(x, -1, -1) for x in v)), grid(*(range(x + 1) for x in v)))
    w = max(top[p1], top[p2])
    if kind is _SUB:
        return zip(grid(*(range(x, x + w + 1) for x in v)), grid(range(w + 1), repeat=st.c.dim))
    ws = range(_low(st, p2, 1), (w + 1 if st.clamp else min(top[p2], top[p1] // v)) + 1)
    return _ticked(st, zip(map(v.__mul__, ws), ws))


def _some(st: _Search, gid: int, with_z: bool):
    """Frame: some value of gid, or None.

    The scan asks z, the value that absorbs (INF for vectors, 0 for scalars),
    first if with_z and never otherwise, then the other values up to the
    gate's bound, a step each: the grid [0, bound]^dim, or the integers from
    _low. In the clamped mode the bound stands for every value past it; with
    no bound (divisor-search) the scan would not end, and is refused.
    """
    key = (gid, with_z)
    if key in st.some_memo:
        return st.some_memo[key]
    n = st.top[gid]
    if n == math.inf:
        raise BudgetExceeded("memo", f"0 at a mul needs a nonemptiness test of gate {gid}")
    if st.c.vector:
        values = itertools.product(range(n + 1), repeat=st.c.dim)
        if with_z:
            values = itertools.chain((INF,), values)
    else:
        values = range(_low(st, gid, 0 if with_z else 1), n + 1)
    found = None
    for v in _ticked(st, values):
        if (yield (gid, v)):
            found = v
            break
    st.some_memo[key] = found
    return found


def _ticked(st: _Search, values):
    """values, each one a step."""
    for v in values:
        _step(st)
        yield v


def _low(st: _Search, gid: int, low: int) -> int:
    """Where a scan of gid's values, from low up to its bound, starts. An
    input gate's only value is its label, which is also its bound: the scan
    starts there, and is empty when the label is below low."""
    g = st.c.gate(gid)
    return max(low, g.value) if g.kind is _INPUT else low


def verify_certificate(c: Circuit, b: int, witness) -> bool:
    """Check a witness from certificate_search on the circuit.

    (output, b) must be an entry. Each entry (gid, v): pairs must follow its
    gate's local rule: an input has no pairs and v is its label; union has
    one pair (p, v) with p a predecessor; inter, add, mul and div have one
    pair per predecessor, in pred order, whose values x, y satisfy
    x == v == y, x + y == v, x * y == v, or y >= 1 and x == v * y. Every
    operand pair must be an entry too. Predecessors are declared before their
    gate, so by induction along the declaration order every entry's gate can
    take its value. A malformed witness gives False, not an error.
    """
    require_fragment(c, EXACT_SCALAR, "certificate verification", vector=False)
    if not isinstance(witness, dict) or (c.output, b) not in witness:
        return False
    for key, pairs in witness.items():
        if type(key) is not tuple or len(key) != 2 or type(pairs) is not tuple:
            return False
        gid, v = key
        if not _is_nat(v) or gid not in c or not all(
            type(p) is tuple and len(p) == 2 and _is_nat(p[1]) for p in pairs
        ):
            return False
        _, kind, preds, value = c.gate(gid)
        if kind is _INPUT:
            ok = pairs == () and v == value
        elif kind is _UNION:
            ok = len(pairs) == 1 and pairs[0][0] in preds and pairs[0][1] == v
        elif tuple(p for p, _ in pairs) != preds:
            ok = False
        else:
            (_, x), (_, y) = pairs
            if kind is _INTER:
                ok = x == v == y
            elif kind is _ADD:
                ok = x + y == v
            elif kind is _MUL:
                ok = x * y == v
            else:  # DIV
                ok = y >= 1 and x == v * y
        if not ok or not all(p in witness for p in pairs):
            return False
    return True


# ---------------------------------------------------------------------------
# the engine table

@dataclass(frozen=True)
class _Engine:
    fragment: frozenset  # the gate kinds the engine accepts
    # prepare(c, budget) returns member(q) -> (member, stats, witness),
    # with a new stats dict per call that the caller may fill in. The caller
    # checks the fragment. Layer functions are looked up by their
    # module-global names at call time, never stored here, so a wrapper
    # installed on those names sees every call.
    prepare: Callable
    needs: frozenset = frozenset()  # the kinds a circuit must use for decide() to pick the row
    fallback: str | None = None  # decide()'s next row on BudgetExceeded, if it holds the fragment
    cone: bool = False  # runs on the output's cone, which the auto route is taken on again


def _prepare_singleton(c, budget):
    val = (eval_singleton_vector if c.vector else eval_singleton)(c)[c.output]
    return lambda q: (val == q, {}, None)


def _prepare_exact(c, budget):
    """Full sets, built once, except on scalar {union, inter, div} circuits
    with div, where each query builds the sets its demand keeps and records
    their sizes' sum as stats["elems"]. Without div no set outgrows the
    labels, and an add erases any demand below it."""
    frag = fragment_of(c)
    if _DIV not in frag or not frag <= _DEMAND_SCALAR:  # no vector circuit has div
        out = eval_exact(c, budget)[c.output]
        return lambda q: (q in out, {}, None)

    def member(q):
        sets = eval_exact(c, budget, q)
        return q in sets[c.output], {"elems": sum(map(len, sets.values()))}, None

    return member


def _prepare_clamped(c, budget):
    rep = (eval_clamped_vector if c.vector else eval_clamped_scalar)(c, budget)[1]
    return lambda q: (rep.member(q), {}, None)


def _through_gcdfree(row: str):
    """prepare for a scalar circuit decided on its gcd-free exponent image.

    The image does not depend on the query, so `row` is prepared on it once;
    a query with no image is a non-member.
    """

    def prepare(c, budget):
        vc, _, emap = to_vector_gcdfree(c, 0)
        vmember = _ENGINES[row, True].prepare(vc, budget)
        extra = {"transform": "gcd-free", "dim": vc.dim}

        def member(b):
            try:
                ok, stats, witness = vmember(emap.apply(b))
            except NotRepresentable:
                return False, {**extra}, None
            return ok, {**stats, **extra}, witness

        return member

    return prepare


def _through_primefact(c, budget):
    """prepare for a scalar circuit decided on its prime-factor image.

    The clamped vector table of the image is built once. A query's head comes
    out exactly; its spill is narrowed step by step (ExponentMap.spill_bounds)
    and the table read across each interval, and the first interval on which
    every read agrees gives the verdict (the argument is in
    to_vector_primefact). stats record that interval as "spill" and its
    step as "step".
    """
    vc, _, emap = to_vector_primefact(c, 0)
    rep = eval_clamped_vector(vc, budget)[1]
    extra = {"transform": "prime-factors", "dim": vc.dim}

    def member(b):
        if b == 0:
            return rep.member(INF), {**extra}, None
        head, rest = emap.split(b)
        for lo, hi, step in emap.spill_bounds(rest):
            ok = rep.member(head + (lo,))
            if all(rep.member(head + (s,)) == ok for s in range(lo + 1, min(hi, rep.cutoff) + 1)):
                return ok, {**extra, "spill": (lo, hi), "step": step}, None

    return member


# keyed by (engine name, runs on vector circuits); within each domain the
# rows come in the order decide() tries them, which applicable_engines keeps
_MUL_ONLY = frozenset({GateKind.MUL})
_ENGINES: dict[tuple[str, bool], _Engine] = {
    ("singleton-vector", False): _Engine(
        GCDFREE_SCALAR - {GateKind.UNION}, _through_gcdfree("singleton-vector"), needs=_MUL_ONLY
    ),
    ("exact-vector", False): _Engine(GCDFREE_SCALAR, _through_gcdfree("exact"), needs=_MUL_ONLY),
    ("singleton", False): _Engine(SINGLETON_SCALAR, _prepare_singleton),
    ("exact", False): _Engine(EXACT_SCALAR, _prepare_exact, fallback="certificate"),
    ("certificate", False): _Engine(
        EXACT_SCALAR, lambda c, budget: _prepare_search(c, budget, _cert_value_bounds(c))
    ),
    ("clamped-scalar", False): _Engine(CLAMPABLE_SCALAR, _prepare_clamped),
    ("search", False): _Engine(CLAMPABLE_SCALAR, _prepare_search),
    ("clamped-vector", False): _Engine(PRIMEFACT_SCALAR, _through_primefact,
                                       fallback="divisor-search", cone=True),
    ("divisor-search", False): _Engine(DIVISOR_SCALAR, lambda c, budget: _prepare_search(
        c, budget, dict.fromkeys((g.gid for g in c.gates), math.inf))),
    ("singleton-vector", True): _Engine(SINGLETON_VECTOR, _prepare_singleton),
    ("exact", True): _Engine(EXACT_VECTOR, _prepare_exact),
    ("clamped-vector", True): _Engine(CLAMPABLE_VECTOR, _prepare_clamped, cone=True),
    ("search", True): _Engine(CLAMPABLE_VECTOR, _prepare_search),
}
# vector -> the domain's rows in order, as (fragment, needs, name). certificate,
# search and divisor-search are never picked: each follows a row with no needs
# whose fragment holds its own, which matches first.
_ROUTES = {
    vector: tuple((row.fragment, row.needs, name)
                  for (name, v), row in _ENGINES.items() if v == vector)
    for vector in (False, True)
}


# ---------------------------------------------------------------------------
# dispatch

def decide(
    c: Circuit,
    b,
    engine: str = "auto",
    budget: EngineBudget = DEFAULT_BUDGET,
) -> MembershipVerdict:
    """Decide b in I(C), routing by fragment unless an engine is forced.

    The route is the one pick_engine gives. A forced row must hold the
    circuit's fragment, and a cone row runs on the output's cone. A row
    whose budget runs out, at prepare or at the query, hands the query to
    its fallback row when that row's fragment holds the circuit's, and so
    on down the chain; the verdict names the row that answered, and the
    last row's refusal propagates. Vector circuits accept tuple or INF
    queries.
    """
    t0 = time.perf_counter()
    name, run = pick_engine(c) if engine == "auto" else (engine, c)
    q = _check_query(c, b)
    row = _ENGINES.get((name, c.vector))
    if row is None:
        dom = "vector" if c.vector else "scalar"
        raise ValueError(f"unknown engine {name!r} for {dom} circuits")
    if engine != "auto":  # the auto route's row holds its circuit's fragment, on its cone
        require_fragment(c, row.fragment, name)
        run = subcircuit_at(c, c.output) if row.cone else c
    while True:
        try:  # a row may build its tables at prepare or at the query
            ok, stats, witness = row.prepare(run, budget)(q)
            break
        except BudgetExceeded:
            fallback = row.fallback and _ENGINES[row.fallback, c.vector]
            if not fallback or not fragment_of(run) <= fallback.fragment:
                raise
            name, row = row.fallback, fallback
    stats["gates"] = len(c.gates)
    stats["micros"] = int((time.perf_counter() - t0) * 1e6)
    return _new(MembershipVerdict, (ok, name, stats, witness))


def _check_query(c: Circuit, b):
    """The query in the form the engines take; bools are not numbers here."""
    if not c.vector:
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise ValueError(f"query must be a natural number, got {b!r}")
        return b
    if b is INF:
        return b
    x = tuple(b) if isinstance(b, (tuple, list)) else ()
    if len(x) != c.dim or any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in x):
        raise ValueError(f"query must be a {c.dim}-tuple of naturals or inf")
    return x


def pick_engine(c: Circuit) -> tuple[str, Circuit]:
    """(engine, circuit) for decide()'s auto route on c: the first row of
    _ROUTES[c.vector] with needs <= fragment <= its fragment, run on c;
    OpenFragmentError if none. A circuit no row takes, or whose row is a
    cone row, is routed again on its output's cone, where that row runs: a
    dead gate would otherwise refuse a decidable circuit as the open
    fragment, send a {mul} output to the prime-factor grid, or tabulate a
    comp-free cone. The cone's pass is paid on these routes only."""
    name = _first_row(c)
    if name is None or _ENGINES[name, c.vector].cone:
        cone = subcircuit_at(c, c.output)
        if cone is not c:
            name, c = _first_row(cone), cone
    if name is None:
        raise OpenFragmentError("unsupported fragment: comp with both add and mul; decidability open")
    return name, c


def _first_row(c: Circuit) -> str | None:
    frag = fragment_of(c)
    for fragment, needs, name in _ROUTES[c.vector]:
        if frag <= fragment and needs <= frag:  # the fragment test fails first, and more often
            return name
    return None


# ---------------------------------------------------------------------------
# engine cross-checking

def applicable_engines(c: Circuit) -> list[str]:
    """Engine ids whose preconditions the circuit meets."""
    frag = fragment_of(c)
    return [
        name
        for (name, vector), row in _ENGINES.items()
        if vector == c.vector and frag <= row.fragment
    ]


class CrossCheck(namedtuple("CrossCheck", "problems answered abstained")):
    """What xcheck_circuit found: (problems, answered, abstained).

    problems holds one line per query on which the engines that answered it
    disagree. answered lists the applicable engines that answered some query,
    in table order: the check compared something only if it holds two.
    abstained lists the others, whose budget ran out.
    """

    __slots__ = ()


def xcheck_circuit(
    c: Circuit,
    max_b: int = 24,
    budget: EngineBudget = DEFAULT_BUDGET,
) -> CrossCheck:
    """Run every engine applicable to the circuit decide() routes (c or its
    output's cone, pick_engine) on a shared query range; report disagreements.

    Scalar circuits probe b in [0, max_b]; vector circuits probe the grid up
    to min(max_b, output cutoff + 2) per coordinate, plus inf. Each engine is
    prepared once, a cone row on the cone, and probed with every query; an
    engine whose budget runs out abstains, at prepare or at a query, and no
    row falls back. A negative max_b raises
    ValueError and a fragment decide() refuses raises its OpenFragmentError.
    """
    if max_b < 0:
        raise ValueError(f"max_b must be a natural number, got {max_b}")
    c = pick_engine(c)[1]  # raises OpenFragmentError where decide() would
    names = applicable_engines(c)
    if c.vector:
        top = min(max_b, structural_cutoff(c)[c.output] + 2)
        queries = list(itertools.product(range(top + 1), repeat=c.dim)) + [INF]
    else:
        queries = list(range(max_b + 1))
    cone = subcircuit_at(c, c.output)
    members = []
    for name in names:
        row = _ENGINES[name, c.vector]
        try:
            members.append((name, row.prepare(cone if row.cone else c, budget)))
        except BudgetExceeded:
            continue
    problems, answered = [], set()
    for q in queries:
        got = {}
        for name, member in members:
            try:
                got[name] = member(q)[0]
            except BudgetExceeded:
                continue
        answered.update(got)
        if len(set(got.values())) > 1:
            desc = ", ".join(f"{e}={v}" for e, v in sorted(got.items()))
            problems.append(f"query {q}: {desc}")
    return _new(CrossCheck, (problems, [n for n in names if n in answered],
                             [n for n in names if n not in answered]))

"""Membership engines.

Each engine decides "is b in I(C)?" for a class of circuits:

* eval_singleton / eval_singleton_vector: fragments where every gate's set
  has at most one element ({inter, add, mul, div} scalar, {inter, add, sub}
  vector); values are propagated directly.
* eval_exact: comp-free fragments; every gate's finite set is materialized,
  guarded by an element budget.
* eval_clamped_scalar / eval_clamped_vector: comp-capable, mul-free
  fragments; per-gate clamped representations (NatSetRep, VecSetRep) built
  bottom-up at the structural cutoff profile. VecSetRep is the one set
  representation of every vector route. The clamped-vector row of a vector
  circuit tabulates only the output's cone (subcircuit_at): a gate's cutoff
  reads only the gates that feed it, so every table the output reads is the
  one the whole circuit gives, and a gate that feeds nothing costs no grid
  work and no budget.
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
preparation and route are declared; decide(), applicable_engines() and
xcheck_circuit() all read it, and so does the CLI's eval through
pick_engine(). decide() takes the first row of the circuit's
domain whose `needs` the circuit uses and whose fragment holds every kind
the circuit uses, except that a scalar circuit that would take clamped-vector
is routed on its output's cone (pick_engine); certificate, search and
divisor-search are never taken, as each follows a row with no needs whose
fragment holds its own. A fragment no row
fits, comp with both add and mul, is refused (OpenFragmentError): no decision
procedure is known.
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
from .errors import BudgetExceeded, FragmentError, OpenFragmentError
from .numtheory import NotRepresentable, factorize
from .setrep import (
    NatSetRep,
    VecSetRep,
    exact_apply,
    natrep_apply,
    vecrep_apply,
    vecrep_from_label,
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


@dataclass(frozen=True)
class EngineBudget:
    max_set_elems: int = 10**6
    max_grid_cells: int = 10**7
    max_memo_entries: int = 10**7


DEFAULT_BUDGET = EngineBudget()


class MembershipVerdict(namedtuple("MembershipVerdict", "member engine cutoff_mode stats witness")):
    """The tuple (member, engine, cutoff_mode, stats, witness).

    cutoff_mode is "structural" on the routes that tabulate or clamp at the
    structural cutoffs and "none" elsewhere; stats defaults to a new dict per
    verdict. decide() builds verdicts with tuple.__new__, as the setrep
    kernels build their results.
    """

    __slots__ = ()

    def __new__(cls, member: bool, engine: str, cutoff_mode: str, stats: dict | None = None,
                witness: dict | None = None):
        return _new(cls, (member, engine, cutoff_mode, {} if stats is None else stats, witness))


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

def eval_exact(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET) -> dict:
    """Materialize every gate's finite set for comp-free circuits."""
    require_fragment(c, EXACT_VECTOR if c.vector else EXACT_SCALAR, "exact evaluation")
    INPUT = _INPUT
    sets: dict = {}
    for gid, kind, preds, value in c.gates:
        if kind is INPUT:
            sets[gid] = frozenset((value,))
            continue
        out = exact_apply(kind, sets[preds[0]], sets[preds[1]])
        if len(out) > budget.max_set_elems:
            raise BudgetExceeded("set-size", f"gate {gid} holds {len(out)} elements")
        sets[gid] = out
    return sets


# ---------------------------------------------------------------------------
# clamped evaluation

def eval_clamped_scalar(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET):
    """Per-gate NatSetRep for {union, inter, comp, add, div} circuits.

    Returns (reps, output rep). Exact under the clamped reading at the
    structural cutoffs. Each distinct kernel application (kind, operand reps,
    cutoff) runs once per call, and every later gate with the same key shares
    its rep: from_cvp's sets are all empty or full, so most of its gates
    repeat a key.
    """
    require_fragment(c, CLAMPABLE_SCALAR, "clamped scalar evaluation", vector=False)
    cut = cutoff_profile(c).cutoffs
    max_cells = budget.max_grid_cells
    INPUT, COMP = _INPUT, _COMP
    reps: dict = {}
    done: dict = {}  # (kind, operand reps, cutoff) -> its rep, for this call only
    for gid, kind, preds, value in c.gates:
        n = cut[gid]
        if n + 1 > max_cells:
            raise BudgetExceeded("grid", f"gate {gid} needs a {n + 1}-cell bitmap")
        if kind is INPUT:  # a label is below its gate's cutoff
            reps[gid] = _new(NatSetRep, (n, 1 << value))
            continue
        key = (kind, reps[preds[0]], None if kind is COMP else reps[preds[1]], n)
        rep = done.get(key)
        if rep is None:
            rep = done[key] = natrep_apply(*key, max_cells)
        reps[gid] = rep
    return reps, reps[c.output]


def eval_clamped_vector(c: Circuit, budget: EngineBudget = DEFAULT_BUDGET):
    """Per-gate VecSetRep for {union, inter, comp, add, sub} vector circuits."""
    require_fragment(c, CLAMPABLE_VECTOR, "clamped vector evaluation", vector=True)
    cut = cutoff_profile(c).cutoffs
    max_cells = budget.max_grid_cells
    INPUT, COMP = _INPUT, _COMP
    reps: dict = {}
    for gid, kind, preds, value in c.gates:
        n = cut[gid]
        if (n + 1) ** c.dim > max_cells:
            raise BudgetExceeded("grid", f"gate {gid} needs ({n + 1})^{c.dim} cells")
        if kind is INPUT:
            reps[gid] = vecrep_from_label(value, c.dim, n)
        elif kind is COMP:
            reps[gid] = vecrep_apply(kind, reps[preds[0]], None, n, max_cells)
        else:
            reps[gid] = vecrep_apply(kind, reps[preds[0]], reps[preds[1]], n, max_cells)
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
    cutoff: str  # the verdict's cutoff_mode: "structural" where it reads that profile, else "none"
    # prepare(c, budget) returns member(q) -> (member, stats, witness),
    # with a new stats dict per call that the caller may fill in. The caller
    # checks the fragment. Layer functions are looked up by their
    # module-global names at call time, never stored here, so a wrapper
    # installed on those names sees every call.
    prepare: Callable
    needs: frozenset = frozenset()  # the kinds a circuit must use for decide() to pick the row


def _prepare_singleton(c, budget):
    val = (eval_singleton_vector if c.vector else eval_singleton)(c)[c.output]
    return lambda q: (val == q, {}, None)


def _prepare_exact(c, budget):
    out = eval_exact(c, budget)[c.output]
    return lambda q: (q in out, {}, None)


def _prepare_clamped(c, budget):
    if c.vector:  # the output reads only its cone: a gate outside it is never tabulated
        rep = eval_clamped_vector(subcircuit_at(c, c.output), budget)[1]
    else:
        rep = eval_clamped_scalar(c, budget)[1]
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
        GCDFREE_SCALAR - {GateKind.UNION}, "none", _through_gcdfree("singleton-vector"),
        needs=_MUL_ONLY,
    ),
    ("exact-vector", False): _Engine(
        GCDFREE_SCALAR, "none", _through_gcdfree("exact"), needs=_MUL_ONLY
    ),
    ("singleton", False): _Engine(SINGLETON_SCALAR, "none", _prepare_singleton),
    ("exact", False): _Engine(EXACT_SCALAR, "none", _prepare_exact),
    ("certificate", False): _Engine(
        EXACT_SCALAR, "none", lambda c, budget: _prepare_search(c, budget, _cert_value_bounds(c))
    ),
    ("clamped-scalar", False): _Engine(CLAMPABLE_SCALAR, "structural", _prepare_clamped),
    ("search", False): _Engine(CLAMPABLE_SCALAR, "structural", _prepare_search),
    ("clamped-vector", False): _Engine(PRIMEFACT_SCALAR, "structural", _through_primefact),
    ("divisor-search", False): _Engine(DIVISOR_SCALAR, "none", lambda c, budget: _prepare_search(
        c, budget, dict.fromkeys((g.gid for g in c.gates), math.inf))),
    ("singleton-vector", True): _Engine(SINGLETON_VECTOR, "none", _prepare_singleton),
    ("exact", True): _Engine(EXACT_VECTOR, "none", _prepare_exact),
    ("clamped-vector", True): _Engine(CLAMPABLE_VECTOR, "structural", _prepare_clamped),
    ("search", True): _Engine(CLAMPABLE_VECTOR, "structural", _prepare_search),
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

    The route is the first row of the circuit's domain in _ENGINES whose
    needs the circuit uses and whose fragment holds every kind the circuit
    uses; with none, OpenFragmentError. A scalar circuit whose route is
    clamped-vector is routed and run on its output's cone (pick_engine).
    exact falls back to certificate when its budget runs out. Vector
    circuits accept tuple or INF queries.
    """
    t0 = time.perf_counter()
    name, run = pick_engine(c) if engine == "auto" else (engine, c)
    q = _check_query(c, b)
    row = _ENGINES.get((name, c.vector))
    if row is None:
        dom = "vector" if c.vector else "scalar"
        raise ValueError(f"unknown engine {name!r} for {dom} circuits")
    require_fragment(run, row.fragment, name)
    try:
        member = row.prepare(run, budget)
    except BudgetExceeded:
        if (name, c.vector) != ("exact", False):
            raise
        name = "certificate"  # same fragment, guess values instead of sets
        row = _ENGINES[name, False]
        member = row.prepare(run, budget)
    ok, stats, witness = member(q)
    stats["gates"] = len(c.gates)
    stats["micros"] = int((time.perf_counter() - t0) * 1e6)
    return _new(MembershipVerdict, (ok, name, row.cutoff, stats, witness))


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
    OpenFragmentError if none. A scalar circuit that would take clamped-vector
    is routed again on its output's cone, and that row runs on the cone: a
    dead comp gate would otherwise send a {mul} output to the prime-factor
    grid. The cone's pass is paid on this route only."""
    name = _first_row(c)
    if name == "clamped-vector" and not c.vector:
        cone = subcircuit_at(c, c.output)
        if cone is not c:
            return _first_row(cone), cone
    return name, c


def _first_row(c: Circuit) -> str:
    frag = fragment_of(c)
    for fragment, needs, name in _ROUTES[c.vector]:
        if frag <= fragment and needs <= frag:  # the fragment test fails first, and more often
            return name
    raise OpenFragmentError("unsupported fragment: comp with both add and mul; decidability open")


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
    """Run every applicable engine on a shared query range; report disagreements.

    Scalar circuits probe b in [0, max_b]; vector circuits probe the grid up
    to min(max_b, output cutoff + 2) per coordinate, plus inf. Each engine is
    prepared once and probed with every query; an engine whose budget runs
    out abstains, at prepare or at a query. A negative max_b raises
    ValueError and a fragment decide() refuses raises its OpenFragmentError.
    """
    if max_b < 0:
        raise ValueError(f"max_b must be a natural number, got {max_b}")
    pick_engine(c)  # raises OpenFragmentError where decide() would
    names = applicable_engines(c)
    if c.vector:
        top = min(max_b, structural_cutoff(c)[c.output] + 2)
        queries = list(itertools.product(range(top + 1), repeat=c.dim)) + [INF]
    else:
        queries = list(range(max_b + 1))
    members = []
    for name in names:
        try:
            members.append((name, _ENGINES[name, c.vector].prepare(c, budget)))
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

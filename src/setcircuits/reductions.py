"""Hardness-instance generators.

Each from_* function maps a combinatorial instance to a circuit and a query
so that the instance's answer matches the membership verdict (negated where
noted). They exhibit why small fragments are already hard:

* exact cover          -> {union, div}   (squarefree products of primes)
* graph accessibility  -> {div}          (marker algebra, negated verdict)
* circuit value        -> {comp, div}    (empty set vs full set as booleans)
* majority of dag paths-> {mul, div}     (path counts in exponents of 2)

Matching brute-force solvers live alongside the generators; they share no
code with the membership engines and exist to cross-check the reductions at
desk scale.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit, Gate, GateKind
from .numtheory import primes_upto


@dataclass(frozen=True)
class Reduction:
    """A generated circuit plus the membership query encoding the instance."""

    circuit: Circuit
    query: int
    negate: bool = False  # yes-instance corresponds to NON-membership
    note: str = ""

    def answer(self, member: bool) -> bool:
        """Map a membership verdict back to the instance's yes/no answer."""
        return member != self.negate


class _Builder:
    def __init__(self):
        self.gates: list[Gate] = []

    def _next(self) -> int:
        return len(self.gates) + 1

    def input(self, value: int) -> int:
        gid = self._next()
        self.gates.append(Gate(gid, GateKind.INPUT, value=value))
        return gid

    def op(self, kind: GateKind, *preds: int) -> int:
        gid = self._next()
        self.gates.append(Gate(gid, kind, preds=preds))
        return gid

    def circuit(self, output: int) -> Circuit:
        return Circuit(tuple(self.gates), output)


# ---------------------------------------------------------------------------
# exact cover -> {union, div}

@dataclass(frozen=True)
class ExactCoverInstance:
    universe: tuple
    sets: tuple

    def __post_init__(self):
        u = set(self.universe)
        if len(u) != len(self.universe):
            raise ValueError("universe has repeated elements")
        for s in self.sets:
            if len(set(s)) != len(s):
                raise ValueError(f"set {s!r} has repeated elements")
            if not set(s) <= u:
                raise ValueError(f"set {s!r} is not a subset of the universe")


def exact_cover_solvable(inst: ExactCoverInstance) -> bool:
    """Brute-force search for a subfamily partitioning the universe, in Knuth's
    Algorithm X order: the branches of a covered mask, expanded once, are the
    sets that hold its lowest uncovered element and miss everything covered."""
    index = {e: i for i, e in enumerate(inst.universe)}
    target = (1 << len(inst.universe)) - 1
    masks = []
    for s in inst.sets:
        m = 0
        for e in s:
            m |= 1 << index[e]
        masks.append(m)

    seen, todo = set(), [0]
    while todo:
        covered = todo.pop()
        if covered == target:
            return True
        if covered in seen:
            continue
        seen.add(covered)
        low = ~covered & (covered + 1)  # the lowest uncovered element's bit
        todo += [covered | m for m in masks if m & low and not m & covered]
    return False


def from_exact_cover(inst: ExactCoverInstance) -> Reduction:
    """Encode exact cover over {union, div}.

    Each universe element gets a distinct prime; a set maps to the product of
    its element primes (squarefree). Starting from the full product, each set
    contributes an optional exact division, and the union keeps both choices.
    1 is reachable exactly when some chosen subfamily is disjoint and covers
    everything: a repeated prime makes a division inexact and kills the
    branch.
    """
    prime_of = dict(zip(inst.universe, _first_primes(len(inst.universe))))
    b = _Builder()

    def product(elems) -> int:
        r = 1
        for e in elems:
            r *= prime_of[e]
        return r

    g = b.input(product(inst.universe))
    for s in inst.sets:
        h = b.op(GateKind.DIV, g, b.input(product(s)))
        g = b.op(GateKind.UNION, g, h)
    return Reduction(b.circuit(g), query=1, note="exact cover; member means solvable")


def _first_primes(k: int) -> list[int]:
    if k == 0:
        return []
    limit = 16
    while True:
        ps = primes_upto(limit)
        if len(ps) >= k:
            return ps[:k]
        limit *= 2


# ---------------------------------------------------------------------------
# graph accessibility -> {div}

@dataclass(frozen=True)
class GapInstance:
    """Directed acyclic graph with two distinguished nodes."""

    edges: tuple  # of (u, v) pairs
    s: object
    t: object
    nodes: tuple = ()

    def __post_init__(self):
        seen = {self.s, self.t}
        seen.update(self.nodes)
        for u, v in self.edges:
            seen.update((u, v))
        object.__setattr__(self, "nodes", tuple(sorted(seen, key=repr)))


def gap_has_path(inst: GapInstance) -> bool:
    """Breadth-first reachability check."""
    succ: dict = {}
    for u, v in inst.edges:
        succ.setdefault(u, []).append(v)
    seen = {inst.s}
    queue = deque([inst.s])
    while queue:
        u = queue.popleft()
        if u == inst.t:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return inst.t in seen


def from_gap(inst: GapInstance) -> Reduction:
    """Encode s-t accessibility over {div} alone. The verdict is negated.

    Marker algebra on node gates: {1} marks "not reached", while {0} and the
    empty set both mark "reached" (a reached divisor empties the quotient).
    Checking the eight division cases shows quotient = reached-OR, so the
    query 1 at t's gate holds exactly when no s-t path exists.
    """
    preds: dict = {v: [] for v in inst.nodes}
    for u, v in inst.edges:
        preds[v].append(u)
    order = _topo_order(inst.nodes, inst.edges)
    b = _Builder()
    gate_of: dict = {}
    for v in order:
        ps = preds[v]
        if v == inst.s or not ps:
            # s is reached by the empty path no matter its in-edges
            gate_of[v] = b.input(0 if v == inst.s else 1)
            continue
        g = gate_of[ps[0]]
        if len(ps) == 1:
            g = b.op(GateKind.DIV, g, g)
        for u in ps[1:]:
            g = b.op(GateKind.DIV, g, gate_of[u])
        gate_of[v] = g
    return Reduction(
        b.circuit(gate_of[inst.t]),
        query=1,
        negate=True,
        note="graph accessibility; member means NO s-t path",
    )


def _topo_order(nodes, edges) -> list:
    indeg = {v: 0 for v in nodes}
    succ: dict = {v: [] for v in nodes}
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = deque(v for v in nodes if indeg[v] == 0)
    order = []
    while ready:
        u = ready.popleft()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(order) != len(nodes):
        raise ValueError("graph has a cycle; instance must be acyclic")
    return order


# ---------------------------------------------------------------------------
# circuit value -> {comp, div}

@dataclass(frozen=True)
class CvpInstance:
    """A boolean {and, or, not} circuit plus an input assignment.

    gates is a tuple of (id, op, *args): ("var", name), ("const", 0 or 1),
    ("not", pred), ("and", a, b), ("or", a, b). Gates may only reference
    earlier gates.
    """

    gates: tuple
    output: object
    assignment: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for row in self.gates:
            gid, op, *args = row
            if gid in seen:
                raise ValueError(f"gate {gid!r} defined twice")
            if op == "var":
                if args[0] not in self.assignment:
                    raise ValueError(f"variable {args[0]!r} has no assigned value")
            elif op == "const":
                if args[0] not in (0, 1, False, True):
                    raise ValueError("const takes 0 or 1")
            elif op in ("not", "and", "or"):
                want = 1 if op == "not" else 2
                if len(args) != want or any(a not in seen for a in args):
                    raise ValueError(f"gate {gid!r}: bad arguments {args!r}")
            else:
                raise ValueError(f"unknown boolean op {op!r}")
            seen.add(gid)
        if self.output not in seen:
            raise ValueError(f"output {self.output!r} is not a gate")


def cvp_value(inst: CvpInstance) -> bool:
    """Evaluate the boolean circuit directly."""
    val: dict = {}
    for gid, op, *args in inst.gates:
        if op == "var":
            val[gid] = bool(inst.assignment[args[0]])
        elif op == "const":
            val[gid] = bool(args[0])
        elif op == "not":
            val[gid] = not val[args[0]]
        elif op == "and":
            val[gid] = val[args[0]] and val[args[1]]
        else:
            val[gid] = val[args[0]] or val[args[1]]
    return val[inst.output]


def from_cvp(inst: CvpInstance) -> Reduction:
    """Encode boolean circuit evaluation over {comp, div}.

    False is the empty set and true its complement. On {empty, full} the
    quotient acts as AND and comp as NOT, so the value sets stay in the two-
    element algebra; or-gates expand by De Morgan. The query 1 reads the
    output's truth value.
    """
    b = _Builder()
    zero = b.input(0)
    false_gate = b.op(GateKind.DIV, zero, zero)  # {0}/{0} = empty
    true_gate = b.op(GateKind.COMP, false_gate)
    gate_of: dict = {}

    def as_and(x: int, y: int) -> int:
        return b.op(GateKind.DIV, x, y)

    for gid, op, *args in inst.gates:
        if op == "var":
            gate_of[gid] = true_gate if inst.assignment[args[0]] else false_gate
        elif op == "const":
            gate_of[gid] = true_gate if args[0] else false_gate
        elif op == "not":
            gate_of[gid] = b.op(GateKind.COMP, gate_of[args[0]])
        elif op == "and":
            gate_of[gid] = as_and(gate_of[args[0]], gate_of[args[1]])
        else:  # or, by De Morgan
            na = b.op(GateKind.COMP, gate_of[args[0]])
            nb = b.op(GateKind.COMP, gate_of[args[1]])
            gate_of[gid] = b.op(GateKind.COMP, as_and(na, nb))
    return Reduction(
        b.circuit(gate_of[inst.output]),
        query=1,
        note="circuit value; member means the circuit outputs true",
    )


# ---------------------------------------------------------------------------
# majority of dag paths -> {mul, div}

@dataclass(frozen=True)
class MajorityDagInstance:
    """Rooted dag whose leaves are labeled accept or reject.

    Asks whether strictly more root-to-leaf paths end at accept leaves than
    at reject leaves. children maps internal nodes to nonempty child tuples;
    labels maps exactly the leaves to "accept" or "reject".
    """

    root: object
    children: dict
    labels: dict

    def __post_init__(self):
        nodes = set(self.children) | set(self.labels)
        for v, kids in self.children.items():
            if v in self.labels:
                raise ValueError(f"node {v!r} is both internal and a leaf")
            if not kids:
                raise ValueError(f"internal node {v!r} has no children")
            for k in kids:
                if k not in nodes:
                    raise ValueError(f"child {k!r} of {v!r} is undefined")
        for v, lab in self.labels.items():
            if lab not in ("accept", "reject"):
                raise ValueError(f"leaf {v!r} has label {lab!r}")
        if self.root not in nodes:
            raise ValueError("root is not a node")
        _majority_topo(self)  # raises on cycles


def _majority_topo(inst: MajorityDagInstance) -> list:
    """Children-before-parents order of the nodes reachable from the root."""
    order: list = []
    state: dict = {inst.root: 1}  # 1: open, 2: done
    stack = [(inst.root, iter(inst.children.get(inst.root, ())))]
    while stack:
        v, kids = stack[-1]
        for k in kids:
            if state.get(k) == 1:
                raise ValueError("children relation has a cycle")
            if k not in state:
                state[k] = 1
                stack.append((k, iter(inst.children.get(k, ()))))
                break
        else:
            stack.pop()
            state[v] = 2
            order.append(v)
    return order


def majority_path_counts(inst: MajorityDagInstance) -> tuple:
    """(accepting paths, rejecting paths) from the root, by dynamic programming."""
    acc: dict = {}
    rej: dict = {}
    for v in _majority_topo(inst):
        if v in inst.labels:
            acc[v] = 1 if inst.labels[v] == "accept" else 0
            rej[v] = 1 - acc[v]
        else:
            acc[v] = sum(acc[k] for k in inst.children[v])
            rej[v] = sum(rej[k] for k in inst.children[v])
    return acc[inst.root], rej[inst.root]


def majority_accepts(inst: MajorityDagInstance) -> bool:
    a, r = majority_path_counts(inst)
    return a > r


def from_majority_dag(inst: MajorityDagInstance) -> Reduction:
    """Encode the path-majority question over {mul, div}.

    Two copies of the dag compute 2^(accepting paths) and 2^(rejecting
    paths) as products (a leaf is 2 when counted, else 1; a product of
    children adds exponents, and sharing handles the path counting). Then
    2^a / (2^r * 2) divides exactly when a > r, and the final self-division
    collapses the quotient to {1}.
    """
    b = _Builder()
    one = b.input(1)
    order = _majority_topo(inst)

    def copy(counted: str) -> int:
        gate_of: dict = {}
        for v in order:
            if v in inst.labels:
                gate_of[v] = b.input(2 if inst.labels[v] == counted else 1)
                continue
            kids = inst.children[v]
            if len(kids) == 1:
                gate_of[v] = b.op(GateKind.MUL, gate_of[kids[0]], one)
                continue
            g = b.op(GateKind.MUL, gate_of[kids[0]], gate_of[kids[1]])
            for k in kids[2:]:
                g = b.op(GateKind.MUL, g, gate_of[k])
            gate_of[v] = g
        return gate_of[inst.root]

    g_acc = copy("accept")
    g_rej = copy("reject")
    two = b.input(2)
    f2 = b.op(GateKind.MUL, g_rej, two)
    f3 = b.op(GateKind.DIV, g_acc, f2)
    f4 = b.op(GateKind.DIV, f3, f3)
    return Reduction(
        b.circuit(f4),
        query=1,
        note="path majority; member means accepting paths outnumber rejecting ones",
    )


# ---------------------------------------------------------------------------
# a small standalone showcase circuit

def primes_circuit() -> Circuit:
    """The set of primes over {union, comp, mul, inter}.

    comp(0 union 1) is the naturals from 2 up; squaring it under mul gives
    exactly the composites; the complement intersected with "2 and up" is
    the primes.
    """
    gates = (
        Gate(1, GateKind.INPUT, value=0),
        Gate(2, GateKind.INPUT, value=1),
        Gate(3, GateKind.UNION, preds=(1, 2)),
        Gate(4, GateKind.COMP, preds=(3,)),
        Gate(5, GateKind.MUL, preds=(4, 4)),
        Gate(6, GateKind.COMP, preds=(5,)),
        Gate(7, GateKind.INTER, preds=(6, 4)),
    )
    return Circuit(gates, output=7)

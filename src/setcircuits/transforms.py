"""Circuit-to-circuit rewrites.

Two families:

* multiplicative-to-additive transforms: replace numbers by exponent vectors
  over a base built from the labels alone, turning mul into componentwise
  add and exact div into componentwise sub, with 0 mapped to the absorbing
  point inf. b is in the original iff its image is in the vector circuit,
  so one image answers every query.
* gate eliminations: inter removal for singleton-valued circuits via a
  division gadget, inter removal via De Morgan for comp-bearing circuits,
  and expansion of shared subcircuits into a formula (every gate fans out at
  most once).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import INF, Circuit, Gate, GateKind, derived_circuit, fragment_of, require_fragment
from .errors import BudgetExceeded, FragmentError
from .numtheory import divide_out, exponents_over_basis, factorize, gcd_free_basis, is_prime

GCDFREE_SCALAR = frozenset({GateKind.UNION, GateKind.INTER, GateKind.MUL, GateKind.DIV})
PRIMEFACT_SCALAR = GCDFREE_SCALAR | {GateKind.COMP}


@dataclass(frozen=True)
class ExponentMap:
    """The number-to-vector map sigma used by the vector transforms.

    kind "gcd-free": coordinates are exponents over a pairwise coprime base;
    only products of base powers are representable, and apply raises
    NotRepresentable on the rest. kind "prime-factors": coordinates are
    exponents over the listed primes plus one trailing coordinate, the spill,
    counting the multiplicity of all other primes; total. Zero maps to inf
    under both.

    A prime-factor query need not be mapped exactly. split gives the head
    (the base exponents) exactly, and spill_bounds gives intervals that hold
    the spill. If a set is a union of sigma fibres and its clamped table
    reads the same at head + (s,) for every s in an interval holding the
    spill, that reading is the query's verdict, whatever the spill's exact
    value. Spill values at or past the table's cutoff all read one cell, so
    the reads stop there.
    """

    kind: str
    base: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.base) + (1 if self.kind == "prime-factors" else 0)

    def apply(self, a: int):
        if a == 0:
            return INF
        if self.kind == "gcd-free":
            return exponents_over_basis(a, self.base)
        head, rest = self.split(a)
        return head + (sum(factorize(rest).values()),)

    def split(self, a: int) -> tuple[tuple[int, ...], int]:
        """The base exponents of a >= 1, and the cofactor free of base primes."""
        return divide_out(a, self.base)

    @staticmethod
    def spill_bounds(rest: int):
        """Yield narrowing intervals (lo, hi, step) that hold Omega(rest), for
        a cofactor rest >= 1 from split; the last one yielded has lo == hi.

        Each step costs more than the one before, so a caller that stops at
        the first interval it can decide on pays only for what it needs:

        * exact: lo is 0 for rest = 1 and 1 otherwise, hi = floor(log2 rest).
        * prime-test: is_prime decides rest prime (lo = hi = 1) or composite
          (lo = 2). Past MR_BOUND a prime needs a Certificate, and is_prime
          raises BudgetExceeded("factor") when the proof runs out of steps.
        * factored: factorize, which raises BudgetExceeded("factor") exactly
          where apply does.
        """
        hi = rest.bit_length() - 1
        if hi <= 1:  # rest is 1, 2 or 3
            yield hi, hi, "exact"
            return
        yield 1, hi, "exact"
        if is_prime(rest):
            yield 1, 1, "prime-test"
            return
        yield 2, hi, "prime-test"
        omega = sum(factorize(rest).values())
        yield omega, omega, "factored"


_INPUT = GateKind.INPUT  # a module constant: Enum attribute reads are slow
_SWAP = {GateKind.MUL: GateKind.ADD, GateKind.DIV: GateKind.SUB}


def _map_gates(c: Circuit, emap: ExponentMap) -> Circuit:
    """The vector image of c, valid by construction, so not checked again:
    it keeps c's ids, order and arities, swaps mul and div for add and sub,
    and emap takes each label to a dim-tuple of naturals or to inf."""
    new, apply = tuple.__new__, emap.apply
    gates = []
    by_id = {}
    for g in c.gates:
        gid, kind, preds, value = g
        if kind is _INPUT:
            g = new(Gate, (gid, kind, (), apply(value)))
        elif kind in _SWAP:
            g = new(Gate, (gid, _SWAP[kind], preds, None))
        gates.append(g)
        by_id[gid] = g
    fragment = frozenset(_SWAP.get(k, k) for k in fragment_of(c))
    return derived_circuit(tuple(gates), c.output, emap.dim, True, by_id, fragment)


def to_vector_gcdfree(c: Circuit, b: int):
    """Exponent-vector form over a gcd-free basis of the labels.

    For comp-free circuits over {union, inter, mul, div} only: complements
    would introduce vectors with no preimage. Returns (vector circuit, query
    vector for b, the map). A b with no decomposition over the basis raises
    NotRepresentable and is in no gate's set: labels are representable, and
    so are products and exact quotients of representable numbers, since in
    a pairwise coprime base w | a forces each exponent of w to be at most
    a's, and a / w has the differences as its exponents.
    """
    require_fragment(c, GCDFREE_SCALAR, "gcd-free vectorization", vector=False)
    labels = [g.value for g in c.gates if g.kind is _INPUT]
    emap = ExponentMap(kind="gcd-free", base=gcd_free_basis(labels).base)
    return _map_gates(c, emap), emap.apply(b), emap


def to_vector_primefact(c: Circuit, b: int):
    """Exponent-vector form over the labels' primes plus a spill coordinate.

    Supports comp. With sigma(n) = (exponents of the label primes, total
    multiplicity of the other primes), every gate's set is a union of sigma
    fibres, by induction: a label is its own fibre; union, inter and comp
    keep the property; for mul, split m ~ a*b's foreign primes into groups
    of sizes matching a and b; for div, if c' ~ c with c*w in A, then
    c'*w ~ c*w is in A. So the query's primes need no coordinate of their
    own. Returns (vector circuit, query vector, the map).

    By the same argument a query needs its spill only up to an interval: if
    the output's table reads the same at head + (s,) for every s in an
    interval that holds Omega of the cofactor, sigma(b) reads that too (see
    ExponentMap.spill_bounds). A huge b is so decided when the image does
    not tell apart the spill values left open, or when is_prime settles its
    cofactor: Miller-Rabin below MR_BOUND, a Pocklington certificate above,
    which proves 2^89 - 1, 2^107 - 1 and 2^127 - 1 in about a millisecond.
    A prime cofactor whose n - 1 rho cannot split far enough within
    RHO_STEPS stays BudgetExceeded("factor") where the circuit tells spill 1
    from spill 2.
    """
    require_fragment(c, PRIMEFACT_SCALAR, "prime-factor vectorization", vector=False)
    primes = set()
    for g in c.gates:
        if g.kind is _INPUT and g.value >= 1:
            primes.update(factorize(g.value))
    emap = ExponentMap(kind="prime-factors", base=tuple(sorted(primes)))
    return _map_gates(c, emap), emap.apply(b), emap


def eliminate_cap(c: Circuit) -> Circuit:
    """Replace every inter gate by a division gadget; value-preserving on
    singleton-valued circuits (fragment within {inter, add, mul, div}).

    Gadget for g = inter(p1, p2), sharing one constant-1 input across the
    circuit: a1 = p1 + 1, a2 = p2 + 1, d1 = a1 div a2, d2 = 1 div d1,
    g' = p1 mul d2. On singletons {x1}, {x2}: d1 holds the exact quotient
    (x1+1)/(x2+1) when it exists (never 0, thanks to the +1 shift), and d2 =
    1 div d1 keeps exactly the quotient 1, so I(d2) is {1} iff x1 == x2 and
    empty otherwise; multiplying p1 by it reproduces the intersection.
    """
    allowed = frozenset({GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV})
    require_fragment(c, allowed, "inter elimination", vector=False)
    if GateKind.INTER not in fragment_of(c):
        return c
    next_id = max(g.gid for g in c.gates) + 1
    one_id = next_id
    next_id += 1
    gates = [Gate(gid=one_id, kind=GateKind.INPUT, value=1)]
    for g in c.gates:
        if g.kind is not GateKind.INTER:
            gates.append(g)
            continue
        p1, p2 = g.preds
        a1, a2, d1, d2 = next_id, next_id + 1, next_id + 2, next_id + 3
        next_id += 4
        gates.append(Gate(gid=a1, kind=GateKind.ADD, preds=(p1, one_id)))
        gates.append(Gate(gid=a2, kind=GateKind.ADD, preds=(p2, one_id)))
        gates.append(Gate(gid=d1, kind=GateKind.DIV, preds=(a1, a2)))
        gates.append(Gate(gid=d2, kind=GateKind.DIV, preds=(one_id, d1)))
        gates.append(Gate(gid=g.gid, kind=GateKind.MUL, preds=(p1, d2)))
    return Circuit(gates=tuple(gates), output=c.output, dim=c.dim, vector=c.vector)


def demorgan_rewrite(c: Circuit) -> Circuit:
    """Replace every inter by comp(comp(p1) union comp(p2)).

    Meant for circuits that already contain comp (otherwise the rewrite
    enlarges the fragment and changes which engines apply; use
    eliminate_cap there).
    """
    frag = fragment_of(c)
    if GateKind.COMP not in frag:
        raise FragmentError("De Morgan rewrite is for circuits that already use comp")
    if GateKind.INTER not in frag:
        return c
    next_id = max(g.gid for g in c.gates) + 1
    gates = []
    for g in c.gates:
        if g.kind is not GateKind.INTER:
            gates.append(g)
            continue
        p1, p2 = g.preds
        c1, c2, u = next_id, next_id + 1, next_id + 2
        next_id += 3
        gates.append(Gate(gid=c1, kind=GateKind.COMP, preds=(p1,)))
        gates.append(Gate(gid=c2, kind=GateKind.COMP, preds=(p2,)))
        gates.append(Gate(gid=u, kind=GateKind.UNION, preds=(c1, c2)))
        gates.append(Gate(gid=g.gid, kind=GateKind.COMP, preds=(u,)))
    return Circuit(gates=tuple(gates), output=c.output, dim=c.dim, vector=c.vector)


def expand_formula(c: Circuit, max_gates: int = 10**5) -> Circuit:
    """Duplicate shared subcircuits until every gate feeds at most one other.

    Output values are unchanged; size can blow up exponentially, so the gate
    budget aborts with BudgetExceeded rather than exhausting memory.
    """
    gates: list[Gate] = []
    # a frame per gate being cloned: the gate and the new ids of the
    # predecessors cloned so far. A gate is numbered once all its
    # predecessors are, so ids come out in post-order from the output.
    stack = [(c.gate(c.output), [])]
    while True:
        g, done = stack[-1]
        if len(done) < len(g.preds):
            stack.append((c.gate(g.preds[len(done)]), []))
            continue
        stack.pop()
        if len(gates) >= max_gates:
            raise BudgetExceeded("expansion", f"formula exceeds {max_gates} gates")
        new_id = len(gates) + 1
        gates.append(Gate(gid=new_id, kind=g.kind, preds=tuple(done), value=g.value))
        if not stack:
            return Circuit(gates=tuple(gates), output=new_id, dim=c.dim, vector=c.vector)
        stack[-1][1].append(new_id)

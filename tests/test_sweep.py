"""Every small scalar circuit, decided and checked against an oracle.

Gate 1 is an input; each later gate is an input (labels 0-3) or any
operation on earlier gates, and the output is the last gate. Circuits with
fewer gates appear as ones whose first gates feed nothing. Each circuit is
asked b in 0..8: mul-free circuits against ref_member_scalar, comp-free ones
with mul against exact_sets_bruteforce. A circuit with comp, add and mul is
classed by its output's cone, on which decide routes it: it must be refused
as the open fragment if the cone still holds all three, and is checked
against the oracle of the cone's class if not. comp and mul without add,
the prime-factor route, have no oracle in refeval: without div they are
compared with the divisor-search engine for b >= 1, which shares no table
with that route, and with div they are only decided.

Every vector circuit is built the same way from comp, union, inter, add and
sub, with labels (0), (1), (2) and inf at dim 1 and (0,0), (1,0), (0,1) and
inf at dim 2. Each is asked every point of [0, 8] (dim 1) or [0, 4]^2
(dim 2) and inf against ref_member_vector, and xcheck_circuit runs every
engine applicable to its routed circuit on it.

The 3-gate sweeps (1,040 scalar circuits, 792 vector circuits at each dim)
run in tier 1; the 4-gate sweeps (54,080 scalar circuits, 34,056 vector
circuits at dim 1) are marked `sweep` and run with `pytest -m sweep`.
"""
import itertools
from collections import Counter

import pytest

from setcircuits import (
    INF, Circuit, GateKind, OpenFragmentError, decide, fragment_of, subcircuit_at, xcheck_circuit,
)
from setcircuits.circuit import Gate

from refeval import exact_sets_bruteforce, ref_member_scalar, ref_member_vector

LABELS = range(4)
QUERIES = range(9)
BINARY = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
OPEN = {GateKind.COMP, GateKind.ADD, GateKind.MUL}
VECTOR_LABELS = {1: ((0,), (1,), (2,), INF), 2: ((0, 0), (1, 0), (0, 1), INF)}
VECTOR_TOP = {1: 8, 2: 4}  # the queries are [0, top]^dim and inf
VECTOR_BINARY = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.SUB)


def _choices(gid: int, labels, binary):
    """Every gate gid can be: an input, comp of an earlier gate, or a binary
    operation on an ordered pair of earlier gates."""
    earlier = range(1, gid)
    yield from (Gate(gid, GateKind.INPUT, value=x) for x in labels)
    yield from (Gate(gid, GateKind.COMP, (p,)) for p in earlier)
    for kind in binary:
        yield from (Gate(gid, kind, ps) for ps in itertools.product(earlier, repeat=2))


def circuits(n_gates: int, dim: int = 1, vector: bool = False):
    labels, binary = (VECTOR_LABELS[dim], VECTOR_BINARY) if vector else (LABELS, BINARY)
    gates_at = (_choices(gid, labels, binary) for gid in range(1, n_gates + 1))
    for gates in itertools.product(*gates_at):
        if gates[0].kind is GateKind.INPUT:
            yield Circuit(gates, output=n_gates, dim=dim, vector=vector)


def sweep(n_gates: int) -> dict:
    """Decide every circuit of n_gates gates on every query; count the
    circuits of each class and the mismatches with the oracle."""
    classes = ("open", "no-mul", "no-comp", "comp-mul", "comp-mul-div", "mismatches")
    seen = dict.fromkeys(classes, 0)
    for whole in circuits(n_gates):
        c = subcircuit_at(whole, whole.output) if OPEN <= fragment_of(whole) else whole
        frag = fragment_of(c)
        if GateKind.COMP in frag and GateKind.MUL in frag:
            if GateKind.ADD in frag:
                seen["open"] += 1
                with pytest.raises(OpenFragmentError):
                    decide(whole, 0)
                continue
            if GateKind.DIV in frag:
                seen["comp-mul-div"] += 1
                want = None
            else:
                seen["comp-mul"] += 1
                want = [decide(c, b, engine="divisor-search").member for b in QUERIES[1:]]
        elif GateKind.MUL not in frag:
            seen["no-mul"] += 1
            want = [ref_member_scalar(c, b) for b in QUERIES]
        else:
            seen["no-comp"] += 1
            out = exact_sets_bruteforce(c)[c.output]
            want = [b in out for b in QUERIES]
        got = [decide(whole, b).member for b in QUERIES]
        if want is not None and got[len(got) - len(want):] != want:
            seen["mismatches"] += 1
    return seen


def test_every_3_gate_circuit():
    assert sweep(3) == {"open": 0, "no-mul": 792, "no-comp": 224, "comp-mul": 24,
                        "comp-mul-div": 0, "mismatches": 0}


@pytest.mark.sweep
def test_every_4_gate_circuit():
    # 312 of the 528 circuits with comp, add and mul have a cone without one of them
    assert sweep(4) == {"open": 216, "no-mul": 34_192, "no-comp": 16_832, "comp-mul": 2_312,
                        "comp-mul-div": 528, "mismatches": 0}


def vector_sweep(n_gates: int, dim: int) -> dict:
    """Decide every vector circuit of n_gates gates at dim on every query and
    compare with ref_member_vector; xcheck each one. Counts the circuits of
    each route, the mismatches, the circuits whose engines disagree, and
    those on which xcheck compared fewer than two engines."""
    top = VECTOR_TOP[dim]
    queries = [*itertools.product(range(top + 1), repeat=dim), INF]
    seen = Counter({"mismatches": 0, "disagreements": 0, "unchecked": 0})
    for c in circuits(n_gates, dim, vector=True):
        got = [decide(c, x) for x in queries]
        seen[got[0].engine] += 1
        if [v.member for v in got] != [ref_member_vector(c, x) for x in queries]:
            seen["mismatches"] += 1
        res = xcheck_circuit(c, max_b=top)
        seen["disagreements"] += bool(res.problems)
        seen["unchecked"] += len(res.answered) < 2
    return dict(seen)


@pytest.mark.parametrize("dim", [1, 2])
def test_every_3_gate_vector_circuit(dim):
    # 32 of the 152 circuits with comp have a comp-free output cone, which
    # routes exact (4) or singleton-vector (28)
    assert vector_sweep(3, dim) == {"singleton-vector": 476, "exact": 196, "clamped-vector": 120,
                                    "mismatches": 0, "disagreements": 0, "unchecked": 0}


@pytest.mark.sweep
def test_every_4_gate_vector_circuit():
    # 2,368 of the 8,456 circuits with comp have a comp-free output cone
    assert vector_sweep(4, 1) == {"singleton-vector": 15_708, "exact": 12_260,
                                  "clamped-vector": 6_088, "mismatches": 0, "disagreements": 0,
                                  "unchecked": 0}

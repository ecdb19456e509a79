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

The 3-gate sweep (1,040 circuits) runs in tier 1; the 4-gate sweep (54,080
circuits) is marked `sweep` and runs with `pytest -m sweep`.
"""
import itertools

import pytest

from setcircuits import Circuit, GateKind, OpenFragmentError, decide, fragment_of, subcircuit_at
from setcircuits.circuit import Gate

from refeval import exact_sets_bruteforce, ref_member_scalar

LABELS = range(4)
QUERIES = range(9)
BINARY = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
OPEN = {GateKind.COMP, GateKind.ADD, GateKind.MUL}


def _choices(gid: int):
    """Every gate gid can be: an input, comp of an earlier gate, or a binary
    operation on an ordered pair of earlier gates."""
    earlier = range(1, gid)
    yield from (Gate(gid, GateKind.INPUT, value=x) for x in LABELS)
    yield from (Gate(gid, GateKind.COMP, (p,)) for p in earlier)
    for kind in BINARY:
        yield from (Gate(gid, kind, ps) for ps in itertools.product(earlier, repeat=2))


def circuits(n_gates: int):
    for gates in itertools.product(*(_choices(gid) for gid in range(1, n_gates + 1))):
        if gates[0].kind is GateKind.INPUT:
            yield Circuit(gates, output=n_gates)


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

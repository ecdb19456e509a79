import random

import pytest

from circgen import SCALAR_FULL, VECTOR_FULL, random_scalar, random_vector
from setcircuits import (
    CutoffMode,
    FragmentError,
    GateKind,
    certified_cutoff,
    cutoff_profile,
    encoding_length,
    fragment_of,
    parse_circuit,
    structural_cutoff,
    subcircuit_at,
    value_bound,
)
from setcircuits.circuit import subcircuit_lengths

PRIMES_VEC_TEXT = """\
vcircuit v1 dim 2
gate 1 input inf
gate 2 input 0,0
gate 3 union 1 2
gate 4 comp 3
gate 5 add 4 4
gate 6 comp 5
gate 7 inter 6 4
output 7
"""


def test_structural_cutoffs_transformed_primes():
    c = parse_circuit(PRIMES_VEC_TEXT)
    prof = structural_cutoff(c)
    assert [prof[g] for g in range(1, 8)] == [1, 2, 2, 2, 4, 4, 4]
    assert prof.mode is CutoffMode.STRUCTURAL


def test_structural_recurrence_scalar():
    c = parse_circuit(
        "circuit v1\n"
        "gate 1 input 5\n"
        "gate 2 input 3\n"
        "gate 3 add 1 2\n"  # 7 + 5
        "gate 4 union 3 1\n"  # max
        "gate 5 div 4 2\n"  # left pred
        "gate 6 comp 5\n"
        "output 6\n"
    )
    prof = structural_cutoff(c)
    assert prof[1] == 7 and prof[2] == 5
    assert prof[3] == 12
    assert prof[4] == 12
    assert prof[5] == 12
    assert prof[6] == 12


def test_certified_cutoffs_are_2_pow_encoding_plus_one():
    c = parse_circuit("circuit v1\ngate 1 input 5\noutput 1\n")
    prof = certified_cutoff(c)
    assert prof[1] == 2 ** encoding_length(c) + 1 == 2**8 + 1


def test_certified_monotone_along_edges():
    c = parse_circuit(
        "circuit v1\n"
        "gate 1 input 2\n"
        "gate 2 comp 1\n"
        "gate 3 union 2 1\n"
        "gate 4 add 3 3\n"
        "output 4\n"
    )
    prof = certified_cutoff(c)
    for g in c.gates:
        for p in g.preds:
            assert prof[p] < prof[g.gid]
    # each certified cutoff dominates the gate's own structural one here
    sprof = structural_cutoff(c)
    for g in c.gates:
        assert prof[g.gid] >= sprof[g.gid]
    # and certified add cutoffs cover the sum of their predecessors'
    assert prof[4] >= prof[3] + prof[3]


def test_certified_uses_subcircuit_sizes():
    c = parse_circuit(
        "circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 union 2 1\noutput 3\n"
    )
    prof = certified_cutoff(c)
    for gid in (1, 2, 3):
        assert prof[gid] == 2 ** encoding_length(subcircuit_at(c, gid)) + 1


def test_subcircuit_lengths_in_one_pass():
    # the one-pass lengths equal the encoding of each gate's own subcircuit,
    # on circuits with shared predecessors, repeated ids in preds and inf labels
    rng = random.Random(7)
    for _ in range(150):
        if rng.random() < 0.5:
            c = random_scalar(rng, SCALAR_FULL, max_gates=14, max_label=300)
        else:
            c = random_vector(rng, VECTOR_FULL, dim=rng.randint(1, 4), max_gates=14, max_coord=40)
        sizes = subcircuit_lengths(c)
        assert sizes == {g.gid: encoding_length(subcircuit_at(c, g.gid)) for g in c.gates}
        if c.vector or GateKind.MUL not in fragment_of(c):  # certified cutoffs refuse mul
            assert certified_cutoff(c).cutoffs == {g: (1 << n) + 1 for g, n in sizes.items()}


def test_cutoffs_refuse_mul():
    c = parse_circuit("circuit v1\ngate 1 input 2\ngate 2 mul 1 1\noutput 2\n")
    with pytest.raises(FragmentError, match="mul"):
        structural_cutoff(c)
    with pytest.raises(FragmentError):
        certified_cutoff(c)


def test_vector_cutoffs_refuse_nothing_in_clampable_set():
    c = parse_circuit("vcircuit v1 dim 1\ngate 1 input 4\ngate 2 sub 1 1\noutput 2\n")
    prof = structural_cutoff(c)
    assert prof[1] == 6 and prof[2] == 6


def test_cutoff_profile_is_the_structural_one():
    c = parse_circuit("circuit v1\ngate 1 input 1\ngate 2 comp 1\noutput 2\n")
    assert cutoff_profile(c) == structural_cutoff(c) == (CutoffMode.STRUCTURAL, {1: 3, 2: 3})


def test_value_bound_without_mul():
    c = parse_circuit("circuit v1\ngate 1 input 3\ngate 2 add 1 1\noutput 2\n")
    vb = value_bound(c)
    assert vb.exponent == encoding_length(c)
    assert vb.contains(6)
    assert vb.contains(2**vb.exponent)
    assert not vb.contains(2**vb.exponent + 1)


def test_value_bound_with_mul_is_double_exponential():
    c = parse_circuit("circuit v1\ngate 1 input 3\ngate 2 mul 1 1\noutput 2\n")
    vb = value_bound(c)
    assert vb.exponent == 2 ** encoding_length(c)
    # comparisons happen in bit-length space, so astronomically large values work
    assert vb.contains(9)
    assert not vb.contains(1 << (vb.exponent + 1))


def test_value_bound_actually_bounds_values():
    import random

    from circgen import random_scalar
    from refeval import exact_sets_bruteforce
    from setcircuits import GateKind

    rng = random.Random(5)
    ops = (GateKind.UNION, GateKind.INTER, GateKind.ADD, GateKind.MUL, GateKind.DIV)
    for _ in range(100):
        c = random_scalar(rng, ops, max_gates=5, max_label=9)
        vb = value_bound(c)
        sets = exact_sets_bruteforce(c)
        for s in sets.values():
            for v in s:
                assert vb.contains(v)


def test_value_bound_refuses_comp_and_vector():
    with pytest.raises(FragmentError):
        value_bound(parse_circuit("circuit v1\ngate 1 input 1\ngate 2 comp 1\noutput 2\n"))
    with pytest.raises(FragmentError):
        value_bound(parse_circuit("vcircuit v1 dim 1\ngate 1 input 1\noutput 1\n"))

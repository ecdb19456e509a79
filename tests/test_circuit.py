import pytest

from setcircuits import (
    INF,
    Circuit,
    CircuitParseError,
    CircuitValidationError,
    Gate,
    GateKind,
    encoding_length,
    fragment_of,
    parse_circuit,
    serialize_circuit,
    subcircuit_at,
)

PRIMES_TEXT = """\
circuit v1
gate 1 input 0
gate 2 input 1
gate 3 union 1 2
gate 4 comp 3
gate 5 mul 4 4
gate 6 comp 5
gate 7 inter 6 4
output 7
"""


def test_parse_roundtrip():
    c = parse_circuit(PRIMES_TEXT)
    assert len(c) == 7
    assert c.output == 7
    assert serialize_circuit(c) == PRIMES_TEXT
    assert parse_circuit(serialize_circuit(c)) == c


def test_parse_comments_and_blanks():
    text = "# heading\n\ncircuit v1\ngate 1 input 5  # five\n\noutput 1\n"
    c = parse_circuit(text)
    assert c.gate(1).value == 5


def test_parse_vector_header():
    text = "vcircuit v1 dim 3\ngate 1 input 0,2,1\ngate 2 input inf\ngate 3 add 1 2\noutput 3\n"
    c = parse_circuit(text)
    assert c.vector and c.dim == 3
    assert c.gate(1).value == (0, 2, 1)
    assert c.gate(2).value is INF
    assert parse_circuit(serialize_circuit(c)) == c


# (text, the line the error names); structural errors name the offending
# gate's line, the output line, or the header for the circuit as a whole
PARSE_REJECTS = [
    ("gate 1 input 0\noutput 1\n", 1),  # missing header
    ("circuit v2\ngate 1 input 0\noutput 1\n", 1),  # bad version
    ("circuit v1\ngate 1 input 0\n", 2),  # no output: the last line with text
    ("circuit v1\ngate 1 input 0\noutput 2\n", 3),  # unknown output
    ("circuit v1\ngate 1 input 0\ngate 1 input 1\noutput 1\n", 3),  # duplicate id
    ("circuit v1\ngate 1 union 2 3\noutput 1\n", 2),  # undeclared preds
    ("circuit v1\ngate 1 input 0\ngate 2 comp 1 1\noutput 2\n", 3),  # arity
    ("circuit v1\ngate 1 input -3\noutput 1\n", 2),  # negative label
    ("circuit v1\ngate 1 input 0\ngate 2 sub 1 1\noutput 2\n", 3),  # sub is vector-only
    ("circuit v1\ngate 1 input inf\noutput 1\n", 2),  # inf is vector-only
    ("circuit v1\ngate 1 input 0\noutput 1\ngate 2 input 1\n", 4),  # gate after output
    ("vcircuit v1 dim 2\ngate 1 input 1\noutput 1\n", 2),  # wrong label arity
    ("vcircuit v1 dim 2\ngate 1 input 0,0\ngate 2 mul 1 1\noutput 2\n", 3),  # mul is scalar-only
    ("vcircuit v1 dim 0\ngate 1 input inf\noutput 1\n", 1),  # dim 0
    ("circuit v1\ngate 1 input \u00b2\noutput 1\n", 2),  # superscript two is not a digit
    ("circuit v1\ngate \u0661 input \u0663\noutput 1\n", 2),  # Arabic-Indic digits
]


@pytest.mark.parametrize("text,line", PARSE_REJECTS)
def test_parse_rejects(text, line):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(text)
    assert info.value.line == line


def test_parse_error_carries_location():
    try:
        parse_circuit("circuit v1\ngate 1 frobnicate 0\noutput 1\n")
    except CircuitParseError as e:
        assert e.line == 2
        assert "line 2" in str(e)
    else:
        pytest.fail("expected a parse error")


def test_forward_reference_message_differs_from_unknown():
    with pytest.raises(CircuitParseError, match="not declared yet"):
        parse_circuit("circuit v1\ngate 1 comp 2\ngate 2 input 0\noutput 1\n")


def test_validation_direct_construction():
    with pytest.raises(CircuitValidationError):
        Circuit((Gate(1, GateKind.INPUT, value=(1, 2)),), output=1)  # tuple in scalar
    with pytest.raises(CircuitValidationError):
        Circuit((Gate(1, GateKind.UNION, preds=(1, 1)),), output=1)  # self-loop
    with pytest.raises(CircuitValidationError):
        Circuit((), output=1)
    # pos: the offending gate's index, len(gates) for the output, None for the whole circuit
    two = (Gate(1, GateKind.INPUT, value=2), Gate(1, GateKind.INPUT, value=3))
    for gates, output, pos in ((two, 1, 1), (two[:1], 7, 1), ((), 1, None)):
        with pytest.raises(CircuitValidationError) as info:
            Circuit(gates, output=output)
        assert info.value.pos == pos


def test_fragment_of():
    c = parse_circuit(PRIMES_TEXT)
    assert fragment_of(c) == {GateKind.UNION, GateKind.COMP, GateKind.MUL, GateKind.INTER}
    only_input = parse_circuit("circuit v1\ngate 1 input 9\noutput 1\n")
    assert fragment_of(only_input) == frozenset()


def test_encoding_length_single_input():
    # id 1 (1 bit) + kind tag (3) + label 5 -> 101 (3 bits) + output id (1 bit)
    c = parse_circuit("circuit v1\ngate 1 input 5\noutput 1\n")
    assert encoding_length(c) == 8


def test_encoding_length_primes_circuit():
    assert encoding_length(parse_circuit(PRIMES_TEXT)) == 63


def test_encoding_zero_label_costs_one_bit():
    c0 = parse_circuit("circuit v1\ngate 1 input 0\noutput 1\n")
    c1 = parse_circuit("circuit v1\ngate 1 input 1\noutput 1\n")
    assert encoding_length(c0) == encoding_length(c1)


def test_subcircuit_at():
    c = parse_circuit(PRIMES_TEXT)
    sub = subcircuit_at(c, 4)
    assert sorted(g.gid for g in sub.gates) == [1, 2, 3, 4]
    assert sub.output == 4
    # sub-circuit of a sub-circuit is stable
    assert subcircuit_at(sub, 4) == sub
    # encoding grows along edges for canonical ids
    assert encoding_length(subcircuit_at(c, 3)) < encoding_length(sub)


def test_gate_lookup_and_contains():
    c = parse_circuit(PRIMES_TEXT)
    assert c.gate(5).kind is GateKind.MUL
    assert 5 in c and 8 not in c
    assert c.output_gate.kind is GateKind.INTER


def test_inf_singleton_repr_and_identity():
    assert repr(INF) == "inf"
    text = "vcircuit v1 dim 1\ngate 1 input inf\noutput 1\n"
    assert parse_circuit(text).gate(1).value is INF

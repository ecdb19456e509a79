import hashlib
import random
import re
import sys

import pytest

from circgen import SCALAR_FULL, VECTOR_FULL, random_scalar, random_vector
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


BIG = "1" * 5000
# numbers past int()'s 4,300-digit limit, in each place a number goes
DIGIT_LIMIT_REJECTS = [
    pytest.param(f"circuit v1\ngate {BIG} input 0\noutput 1\n", 2, id="big-gate-id"),
    pytest.param(f"circuit v1\ngate 1 input {BIG}\noutput 1\n", 2, id="big-label"),
    pytest.param(f"vcircuit v1 dim 2\ngate 1 input 0,{BIG}\noutput 1\n", 2, id="big-coordinate"),
    pytest.param(f"circuit v1\ngate 1 input 0\ngate 2 comp {BIG}\noutput 2\n", 3, id="big-pred"),
    pytest.param(f"circuit v1\ngate 1 input 0\noutput {BIG}\n", 3, id="big-output"),
    pytest.param(f"vcircuit v1 dim {BIG}\ngate 1 input inf\noutput 1\n", 1, id="big-dim"),
]

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
    *DIGIT_LIMIT_REJECTS,
]


@pytest.mark.parametrize("text,line", PARSE_REJECTS)
def test_parse_rejects(text, line):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(text)
    assert info.value.line == line


def test_digit_limit_is_named():
    limit = sys.get_int_max_str_digits()
    for case in DIGIT_LIMIT_REJECTS:
        with pytest.raises(CircuitParseError, match=f"5000 digits; numbers are limited to {limit}"):
            parse_circuit(case.values[0])


def test_serialize_names_a_label_past_the_digit_limit():
    # a built circuit may hold any label; its text form may not
    limit = sys.get_int_max_str_digits()
    huge = 10**5000
    scalar = Circuit((Gate(1, GateKind.INPUT, value=2), Gate(4, GateKind.INPUT, value=huge),
                      Gate(5, GateKind.UNION, (1, 4))), output=5)
    vector = Circuit((Gate(7, GateKind.INPUT, value=(1, huge)),), output=7, vector=True, dim=2)
    for c, gid, pos in ((scalar, 4, 1), (vector, 7, 0)):
        match = f"gate {gid}: input label has more than {limit} digits"
        with pytest.raises(CircuitValidationError, match=match) as info:
            serialize_circuit(c)
        assert info.value.pos == pos


# numbers past the digit limit of str(int): ids, predecessors, output and dim
HUGE = 10**5000
HUGE_SHOWN = f"<a number of more than {sys.get_int_max_str_digits()} digits>"


def _raises_at(pos, match, call):
    with pytest.raises(CircuitValidationError, match=re.escape(match)) as info:
        call()
    assert info.value.pos == pos


def test_huge_gate_id_serializes_to_a_typed_error():
    c = Circuit((Gate(HUGE, GateKind.INPUT, value=1), Gate(2, GateKind.COMP, (HUGE,))), output=HUGE)
    _raises_at(0, "gate id has more than", lambda: serialize_circuit(c))


def test_huge_duplicate_id_is_named():
    gates = (Gate(HUGE, GateKind.INPUT, value=1), Gate(HUGE, GateKind.INPUT, value=2))
    _raises_at(1, f"duplicate gate id {HUGE_SHOWN}", lambda: Circuit(gates, output=HUGE))


def test_huge_undeclared_predecessor_is_named():
    gates = (Gate(1, GateKind.INPUT, value=1), Gate(2, GateKind.UNION, (1, HUGE)))
    _raises_at(1, f"gate 2: reference to undeclared gate {HUGE_SHOWN}",
               lambda: Circuit(gates, output=2))


def test_huge_undeclared_output_is_named():
    gates = (Gate(1, GateKind.INPUT, value=1),)
    _raises_at(1, f"output gate {HUGE_SHOWN} is not declared", lambda: Circuit(gates, output=HUGE))


def test_huge_dim_is_named():
    label = Gate(1, GateKind.INPUT, value=(1, 2))
    _raises_at(0, f"gate 1: vector input label must be a {HUGE_SHOWN}-tuple",
               lambda: Circuit((label,), output=1, dim=HUGE, vector=True))
    c = Circuit((Gate(1, GateKind.INPUT, value=INF),), output=1, dim=HUGE, vector=True)
    _raises_at(None, "dim has more than", lambda: serialize_circuit(c))


@pytest.mark.parametrize("text", ["", "\n  \n# a comment only\n"])
def test_no_tokens_is_a_missing_header(text):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(text)
    assert (str(info.value), info.value.line) == ("missing header line", None)


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


def test_error_order_and_wording():
    # token errors first, then a missing output line, then the circuit as a
    # whole at the header, then its first bad gate; the mutated corpus below
    # has no dim-0 or gateless text
    cases = [
        ("vcircuit v1 dim 0\ngate 1 input 1\noutput 1\n", "dim must be >= 1, got 0", 1),
        ("circuit v1\n\noutput 1\n", "circuit has no gates", 1),
        ("vcircuit v1 dim 0\ngate 1 input x\noutput 1\n",
         "input coordinate must be a natural number, got 'x'", 2),
        ("vcircuit v1 dim 0\ngate 1 input inf\n", "missing output line", 2),
        ("circuit v1\ngate 1 comp 1\ngate 2 input 0\ngate 3 input -1\noutput 1\n",
         "input label must be a natural number, got '-1'", 4),
    ]
    for text, msg, line in cases:
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        e = info.value
        assert (str(e), e.line, e.col) == (f"{msg} (line {line})", line, None)


def test_validation_direct_construction():
    with pytest.raises(CircuitValidationError):
        Circuit((Gate(1, GateKind.INPUT, value=(1, 2)),), output=1)  # tuple in scalar
    with pytest.raises(CircuitValidationError):
        Circuit((Gate(1, GateKind.UNION, preds=(1, 1)),), output=1)  # self-loop
    with pytest.raises(CircuitValidationError):
        Circuit((), output=1)
    for label in (-3, True, "3", 2.0, None):
        with pytest.raises(CircuitValidationError, match="scalar input label"):
            Circuit((Gate(1, GateKind.INPUT, value=label),), output=1)
    with pytest.raises(CircuitValidationError, match="2-tuple"):
        Circuit((Gate(1, GateKind.INPUT, value=(1, -1)),), output=1, dim=2, vector=True)
    with pytest.raises(CircuitValidationError, match="scalar circuits have dim 1"):
        Circuit((Gate(1, GateKind.INPUT, value=1),), output=1, dim=2)
    with pytest.raises(CircuitValidationError, match="gate id must be a natural number, got -1"):
        Circuit((Gate(-1, GateKind.INPUT, value=1),), output=-1)

    class Nat(int):
        pass

    # labels of an int subclass fail the cheap test but are sound
    assert Circuit((Gate(1, GateKind.INPUT, value=Nat(3)),), output=1).gate(1).value == 3
    # a Gate equals the plain tuple of its fields, but a tuple is no Gate
    with pytest.raises(CircuitValidationError, match="Gate records"):
        Circuit(((1, GateKind.INPUT, (), 3),), output=1)
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
    assert subcircuit_at(c, c.output) is c  # every gate feeds the output
    # every gate feeds gate 7, but the output is gate 4: a new circuit
    at4 = Circuit(c.gates, output=4)
    assert subcircuit_at(at4, 7) == c and subcircuit_at(at4, 7) is not at4
    with pytest.raises(CircuitValidationError, match="no gate 9"):
        subcircuit_at(c, 9)


def _cone_by_walk(c, gid):
    """The gates that feed gid, found by a walk from gid, in c's order."""
    needed, todo = set(), [gid]
    while todo:
        h = todo.pop()
        if h not in needed:
            needed.add(h)
            todo.extend(c.gate(h).preds)
    return tuple(g for g in c.gates if g.gid in needed)


@pytest.mark.parametrize("vector", [False, True])
def test_subcircuit_at_equals_the_validated_circuit(vector):
    # the one-pass cone is built without a check; it equals the Circuit that
    # _validate builds from the same gates, down to its by-id map and fragment
    rng = random.Random(211 + vector)
    for _ in range(150):
        if vector:
            c = random_vector(rng, VECTOR_FULL, dim=rng.randint(1, 3), max_gates=8)
        else:
            c = random_scalar(rng, SCALAR_FULL, max_gates=8)
        for g in c.gates:
            sub = subcircuit_at(c, g.gid)
            ref = Circuit(_cone_by_walk(c, g.gid), output=g.gid, dim=c.dim, vector=c.vector)
            assert sub == ref
            assert sub._by_id == ref._by_id and fragment_of(sub) == fragment_of(ref)
            assert list(sub._by_id) == [h.gid for h in sub.gates]
            assert (sub is c) == (g.gid == c.output and len(ref.gates) == len(c.gates))


def test_gate_lookup_and_contains():
    c = parse_circuit(PRIMES_TEXT)
    assert c.gate(5).kind is GateKind.MUL
    assert 5 in c and 8 not in c
    assert c.gate(c.output).kind is GateKind.INTER


def test_inf_singleton_repr_and_identity():
    assert repr(INF) == "inf"
    text = "vcircuit v1 dim 1\ngate 1 input inf\noutput 1\n"
    assert parse_circuit(text).gate(1).value is INF


def test_gate_contract():
    g = Gate(gid=3, kind=GateKind.ADD, preds=(1, 2))
    assert g == Gate(3, GateKind.ADD, (1, 2), None) == (3, GateKind.ADD, (1, 2), None)
    assert Gate(1, GateKind.INPUT).preds == () and Gate(1, GateKind.INPUT).value is None
    assert Gate(gid=1, kind=GateKind.INPUT, value=4).value == 4
    with pytest.raises(AttributeError):
        g.gid = 4
    assert hash(g) == hash(Gate(3, GateKind.ADD, (1, 2)))


def _random_circuits(rng, n):
    for _ in range(n):
        if rng.random() < 0.6:
            yield random_scalar(rng, SCALAR_FULL, max_gates=9, max_label=rng.choice((9, 10**6)))
        else:
            yield random_vector(rng, VECTOR_FULL, dim=rng.randint(1, 3), max_gates=9, max_coord=12)


def _assert_matches_checked(c):
    # the parser files each gate as it checks it; Circuit checks them again
    checked = Circuit(c.gates, c.output, c.dim, c.vector)
    assert c._by_id == checked._by_id
    assert fragment_of(c) == fragment_of(checked)


def test_roundtrip_random_circuits():
    rng = random.Random(11)
    for c in _random_circuits(rng, 400):
        parsed = parse_circuit(serialize_circuit(c))
        assert parsed == c
        _assert_matches_checked(parsed)


def mutated_texts(seed: int, n: int) -> list[str]:
    """Serialized random circuits with one to three token-level mutations each:
    drop, duplicate or swap tokens; non-ASCII digits, signs, '_' or a
    5000-digit number in place of a number; comments and blank lines; a
    no-break space between tokens."""
    rng = random.Random(seed)
    digits = ("\u0660", "\uff10", "\u06f0", "\u0966")  # zeros of other digit sets
    texts = []
    for c in _random_circuits(rng, n):
        lines = [line.split() for line in serialize_circuit(c).splitlines()]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            toks = lines[i]
            op = rng.randrange(7)
            if op == 0 and toks:
                del toks[rng.randrange(len(toks))]
            elif op == 1 and toks:
                j = rng.randrange(len(toks))
                toks.insert(j, toks[j])
            elif op == 2:
                k = rng.randrange(len(lines))
                if toks and lines[k]:
                    j, m = rng.randrange(len(toks)), rng.randrange(len(lines[k]))
                    toks[j], lines[k][m] = lines[k][m], toks[j]
            elif op == 3:
                nums = [j for j, t in enumerate(toks) if t.isascii() and t.isdigit()]
                if nums:
                    j = rng.choice(nums)
                    t = toks[j]
                    toks[j] = rng.choice((
                        "".join(chr(ord(rng.choice(digits)) + int(d)) for d in t),
                        "+" + t, "-" + t, t[:1] + "_" + t[1:] if len(t) > 1 else "_" + t,
                        "1" * 5000, "\u00b2",
                    ))
            elif op == 4:
                toks.append("# " + rng.choice(("note", "gate 9 input 1", "\u00e9t\u00e9", "")))
            elif op == 5:
                lines.insert(i, rng.choice(([], ["#", "x"], ["\t"])))
            else:
                lines[i] = ["\u00a0".join(toks)] if toks else toks
        texts.append("\n".join(" ".join(t) for t in lines) + "\n")
    return texts


ACCEPTED_TOKEN = re.compile(r"[a-z]+|v1|[0-9]+(,[0-9]+)*", re.ASCII)


def test_mutated_texts_parse_or_name_a_line():
    # the parser's contract: a text parses to a circuit that round-trips, or
    # raises CircuitParseError at a line that holds a token
    accepted = 0
    for text in mutated_texts(5, 5000):
        try:
            c = parse_circuit(text)
        except CircuitParseError as e:
            token_lines = [i for i, line in enumerate(text.split("\n"), start=1)
                           if line.partition("#")[0].split()]
            assert e.line in token_lines or (e.line is None and not token_lines), (text, e)
        else:
            accepted += 1
            assert parse_circuit(serialize_circuit(c)) == c
            _assert_matches_checked(c)
            # no sign, '_', space or non-ASCII digit gets into an accepted number
            body = " ".join(line.partition("#")[0] for line in text.split("\n"))
            assert all(ACCEPTED_TOKEN.fullmatch(t) for t in body.split()), text
    assert 500 < accepted < 4500


# sha256 over the outcomes of mutated_texts(5, 5000), each followed by a NUL:
# repr((str(e), e.line, e.col)) of a refused text, the canonical text of an
# accepted one; recorded with the two-pass parser this one replaced
MUTATED_OUTCOMES = "edaec880be0134850ee1ff6e275213a76306c26e8e47946909c138ba73081c14"


def test_mutated_texts_outcomes_are_pinned():
    # every error's message, line and col, not only its line
    digest = hashlib.sha256()
    for text in mutated_texts(5, 5000):
        try:
            outcome = serialize_circuit(parse_circuit(text))
        except CircuitParseError as e:
            outcome = repr((str(e), e.line, e.col))
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == MUTATED_OUTCOMES

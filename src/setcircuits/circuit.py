"""Circuit data model and text format.

A circuit is a labeled DAG whose gates compute sets. Input gates carry a
label (a natural number, or for vector circuits a vector over naturals or
the special point ``inf``); interior gates apply one of the set operations

    union  inter  comp  add  mul  div        (scalar circuits)
    union  inter  comp  add  sub             (vector circuits)

to the sets of their predecessors. ``add``/``mul`` act elementwise on pairs,
``div`` is exact division (c is in A div B iff a = c*b for some a in A and
nonzero b in B), ``sub`` is componentwise subtraction defined only where no
coordinate goes negative. Evaluation semantics live in the engine modules;
this module only carries structure.

Text format (one circuit per document, LF line endings, ``#`` comments)::

    circuit v1                     | vcircuit v1 dim <m>
    gate <id> input <nat>          | gate <id> input <c1>,...,<cm> | ... input inf
    gate <id> <binop> <p1> <p2>      binop: union inter add mul div sub
    gate <id> comp <p>
    output <id>

Numbers are ASCII digits, at most ``sys.get_int_max_str_digits()`` of them
(4300 by default). Gates must be declared before use (reverse topological
order) and the ``output`` line comes last. Parsing and serialization
round-trip to structural equality.
"""
from __future__ import annotations

import enum
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .errors import FragmentError


class GateKind(enum.Enum):
    INPUT = "input"
    UNION = "union"
    INTER = "inter"
    COMP = "comp"
    ADD = "add"
    MUL = "mul"
    DIV = "div"
    SUB = "sub"

    # members are singletons and compare by identity; Enum.__hash__ is a
    # Python-level call, paid three times per gate when a Circuit is built
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


ARITY = {
    GateKind.INPUT: 0,
    GateKind.COMP: 1,
    GateKind.UNION: 2,
    GateKind.INTER: 2,
    GateKind.ADD: 2,
    GateKind.MUL: 2,
    GateKind.DIV: 2,
    GateKind.SUB: 2,
}

SCALAR_KINDS = frozenset(ARITY) - {GateKind.SUB}
VECTOR_KINDS = frozenset(ARITY) - {GateKind.MUL, GateKind.DIV}
# vector -> the arity of each interior kind that domain allows
_INTERIOR_ARITY = {
    vector: {k: ARITY[k] for k in kinds if k is not GateKind.INPUT}
    for vector, kinds in ((False, SCALAR_KINDS), (True, VECTOR_KINDS))
}


class _Infinity:
    """The absorbing point adjoined to vector domains."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()


class CircuitError(ValueError):
    """Base class for structural and textual circuit problems."""


class CircuitParseError(CircuitError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            where = f" ({where})"
        super().__init__(f"{msg}{where}")


class CircuitValidationError(CircuitError):
    """A broken structural rule. ``pos`` is the offending gate's index in
    ``gates``, ``len(gates)`` for an undeclared output, or None when the
    circuit as a whole is at fault."""

    def __init__(self, msg, pos=None):
        self.pos = pos
        super().__init__(msg)


class Gate(NamedTuple):
    """One gate; a tuple, so it equals the plain tuple (gid, kind, preds, value)."""

    gid: int
    kind: GateKind
    preds: tuple[int, ...] = ()
    value: object = None  # int | tuple[int, ...] | INF for inputs, else None


@dataclass(frozen=True)
class Circuit:
    """Immutable circuit; gates are stored in declaration (reverse topological) order."""

    gates: tuple[Gate, ...]
    output: int
    dim: int = 1
    vector: bool = False
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)
    _fragment: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        by_id, fragment = _validate(self)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_fragment", fragment)

    def gate(self, gid: int) -> Gate:
        return self._by_id[gid]

    def __contains__(self, gid: int) -> bool:
        return gid in self._by_id

    def __len__(self):
        return len(self.gates)


def derived_circuit(gates, output, dim, vector, by_id, fragment) -> Circuit:
    """A Circuit built without _validate and its _gate_problem call per
    gate, for a caller that checks each gate inline as it makes it
    (parse_circuit) or makes a gate-by-gate image of a validated circuit
    (same ids, order and arities), and builds the by-id map and the
    fragment alongside the gates."""
    c = object.__new__(Circuit)
    c.__dict__.update(
        gates=gates, output=output, dim=dim, vector=vector, _by_id=by_id, _fragment=fragment
    )
    return c


def _validate(c: Circuit) -> tuple[dict, frozenset]:
    """The structural check of circuits built in code; parse_circuit applies
    the same rules, with the same messages, as it reads each gate.

    Returns the gates by id and the fragment (the non-input kinds). Each
    gate is checked by _gate_problem against the ids declared before it.
    """
    problem = _circuit_problem(c.dim, c.vector, c.gates)
    if problem:
        raise CircuitValidationError(problem)
    by_id = {}
    for g in c.gates:
        problem = _gate_problem(g, by_id, c.vector, c.dim, c.gates)
        if problem:  # every gate before g is in by_id, once
            raise CircuitValidationError(problem, len(by_id))
        by_id[g.gid] = g
    if c.output not in by_id:
        raise CircuitValidationError(_undeclared_output(c.output), len(c.gates))
    return by_id, _fragment(c.gates)


def _circuit_problem(dim, vector: bool, gates) -> str | None:
    """What is wrong with the circuit as a whole; None if nothing."""
    if dim < 1:
        return f"dim must be >= 1, got {_shown(dim)}"
    if not vector and dim != 1:
        return "scalar circuits have dim 1"
    if not gates:
        return "circuit has no gates"
    return None


def _gate_problem(g: Gate, seen, vector: bool, dim, gates) -> str | None:
    """What is wrong with g, given the ids declared before it and the
    circuit's gates; None if nothing."""
    if not isinstance(g, Gate):  # a plain tuple unpacks like one, but has no fields
        return f"gates must be Gate records, got {type(g).__name__} {_shown(g)}"
    gid = _shown(g.gid)
    if g.gid < 0:
        return f"gate id must be a natural number, got {gid}"
    if g.gid in seen:
        return f"duplicate gate id {gid}"
    if g.kind not in (VECTOR_KINDS if vector else SCALAR_KINDS):
        return f"gate {gid}: {g.kind} not allowed in {'vector' if vector else 'scalar'} circuits"
    if len(g.preds) != ARITY[g.kind]:
        return f"gate {gid}: {g.kind} takes {ARITY[g.kind]} predecessors, got {len(g.preds)}"
    for p in g.preds:
        if p not in seen:
            if any(h.gid == p for h in gates):
                return (f"gate {gid}: gate {_shown(p)} is not declared yet"
                        " (gates may only reference earlier gates)")
            return f"gate {gid}: reference to undeclared gate {_shown(p)}"
    v = g.value
    if g.kind is not GateKind.INPUT:
        return None if v is None else f"gate {gid}: only input gates carry a value"
    if not vector:
        return None if _is_nat(v) else f"gate {gid}: scalar input label must be a natural number"
    if v is INF or (isinstance(v, tuple) and len(v) == dim and all(map(_is_nat, v))):
        return None
    return f"gate {gid}: vector input label must be a {_shown(dim)}-tuple of naturals or inf"


def _undeclared_output(output) -> str:
    return f"output gate {_shown(output)} is not declared"


def _fragment(gates) -> frozenset:
    """The non-input kinds among gates."""
    kinds = set(map(itemgetter(1), gates))
    kinds.discard(GateKind.INPUT)
    return frozenset(kinds)


def _shown(x, what: str | None = None, pos: int | None = None) -> str:
    """str(x), for messages and the text form.

    str refuses an int of more than sys.get_int_max_str_digits() digits. A
    message then shows a stand-in; the text form cannot, so with what given
    this raises CircuitValidationError saying what is too long, at pos.
    """
    try:
        return str(x)
    except ValueError:  # a number with more digits than str() converts
        limit = sys.get_int_max_str_digits()
        if what is None:
            return f"<a number of more than {limit} digits>"
        raise CircuitValidationError(
            f"{what} has more than {limit} digits, the limit for numbers", pos
        ) from None


def _is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


# ---------------------------------------------------------------------------
# text format

_KIND_NAMES = {k.value: k for k in GateKind}
_KIND_TEXT = {k: k.value for k in GateKind}  # for the text form: Enum.__format__ is a Python call


def parse_circuit(text: str) -> Circuit:
    """Parse the text format into a Circuit, with line-bearing errors.

    One loop reads each gate line and checks the gate by _validate's rules:
    its kind and arity are allowed in the domain, its id is new, its
    predecessors are declared on earlier lines, its label has the domain's
    shape. It then files the gate by id, and the Circuit is built from what
    the loop gathered, without a second check.

    Errors keep _validate's order and words. A token error is raised at its
    line; after the last line come a missing output line, a problem of the
    circuit as a whole (at the header), the first gate that breaks a rule
    (at its line) and an undeclared output (at the output line). So a gate
    that breaks a rule is only noted and the loop reads on: a later line may
    hold a token error, or the gate a reference names ("not declared yet").

    Gate lines are read in the loop, where ``int`` is the ASCII-digit rule:
    on a token with no sign, no ``_`` and only ASCII characters it accepts
    exactly the digit strings. The text is searched for those characters
    once; only a text that has some has each gate line's tokens searched.
    A line the loop refuses goes to _reject_gate, which words the first
    check it fails.
    """
    lines = text.split("\n")
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    rows = enumerate(map(str.split, lines), start=1)
    for header_line, toks in rows:
        if toks:
            vector, dim = _parse_header(toks, header_line)
            break
    else:
        raise CircuitParseError("missing header line")
    arity = _INTERIOR_ARITY[vector].get
    INPUT = GateKind.INPUT  # a local: Enum attribute reads are slow
    kind_of = _KIND_NAMES.get
    new = tuple.__new__  # Gate's own __new__ is a Python function; the loop checks the fields
    plain = _plain(text)
    gates = []
    append = gates.append
    by_id = {}
    ids = {}  # the id token of each filed gate -> its id; a lookup costs less than int()
    bad = None  # (index in gates, line) of the first gate that breaks a rule
    output = None
    for lineno, toks in rows:
        if not toks:
            continue
        if toks[0] == "gate":
            g = None
            n = len(toks)
            kind = kind_of(toks[2]) if n > 2 else None
            if kind is not None and (plain or all(map(_plain, toks))):
                try:
                    gid = int(toks[1])
                    if kind is INPUT:
                        if n == 4:
                            label = toks[3]
                            if label == "inf":
                                value = INF
                                fine = vector
                            elif vector:
                                value = tuple(map(int, label.split(",")))
                                fine = len(value) == dim
                            else:
                                value = int(label)
                                fine = True
                            g = new(Gate, (gid, kind, (), value))
                    elif n == 5:
                        try:  # both filed under these very tokens: declared, digits read
                            preds = (ids[toks[3]], ids[toks[4]])
                            fine = arity(kind) == 2
                        except KeyError:
                            p, q = preds = (int(toks[3]), int(toks[4]))
                            fine = arity(kind) == 2 and p in by_id and q in by_id
                        g = new(Gate, (gid, kind, preds, None))
                    elif n == 4:
                        try:
                            preds = (ids[toks[3]],)
                            fine = arity(kind) == 1
                        except KeyError:
                            preds = (int(toks[3]),)
                            fine = arity(kind) == 1 and preds[0] in by_id
                        g = new(Gate, (gid, kind, preds, None))
                    else:  # an arity no kind has
                        g = new(Gate, (gid, kind, tuple(map(int, toks[3:])), None))
                        fine = False
                except ValueError:  # not digits, or more digits than int() converts
                    g = None
            if g is None:
                _reject_gate(toks, lineno, vector)
            append(g)
            if fine and gid not in by_id:
                by_id[gid] = g
                ids[toks[1]] = gid
            elif bad is None:
                bad = (len(gates) - 1, lineno)
        elif toks[0] == "output":
            if len(toks) != 2:
                raise CircuitParseError("output line takes exactly one gate id", lineno)
            output = parse_nat(toks[1], "output id", lineno)
            output_line = lineno
            break
        else:
            raise CircuitParseError(f"expected 'gate' or 'output', got {toks[0]!r}", lineno, 1)
    for lineno, toks in rows:
        if toks:
            raise CircuitParseError("content after output line", lineno)
    if output is None:  # at the last line that holds a token
        last = next(i for i in range(len(lines), 0, -1) if lines[i - 1].split())
        raise CircuitParseError("missing output line", last)
    problem = _circuit_problem(dim, vector, gates)
    if problem:
        raise CircuitParseError(problem, header_line)
    if bad is not None:
        pos, lineno = bad
        seen = set(map(itemgetter(0), gates[:pos]))
        raise CircuitParseError(_gate_problem(gates[pos], seen, vector, dim, gates), lineno)
    if output not in by_id:
        raise CircuitParseError(_undeclared_output(output), output_line)
    return derived_circuit(tuple(gates), output, dim, vector, by_id, _fragment(gates))


def _plain(s: str) -> bool:
    """Whether int() takes exactly the ASCII-digit strings among s's tokens."""
    return s.isascii() and not ("+" in s or "-" in s or "_" in s)


def _parse_header(toks, lineno):
    if toks[:2] == ["circuit", "v1"] and len(toks) == 2:
        return (False, 1)
    if toks[:2] == ["vcircuit", "v1"] and len(toks) == 4 and toks[2] == "dim":
        return (True, parse_nat(toks[3], "dim", lineno))
    raise CircuitParseError("expected 'circuit v1' or 'vcircuit v1 dim <m>'", lineno, 1)


def _reject_gate(toks, lineno, vector):
    """Raise the error of a gate line parse_circuit refused: its first failed check."""
    if len(toks) < 3:
        raise CircuitParseError("gate line too short", lineno)
    parse_nat(toks[1], "gate id", lineno)
    kind = _KIND_NAMES.get(toks[2])
    if kind is None:
        raise CircuitParseError(f"unknown gate kind {toks[2]!r}", lineno)
    if kind is not GateKind.INPUT:
        for t in toks[3:]:
            parse_nat(t, "predecessor id", lineno)
    elif len(toks) != 4:
        raise CircuitParseError("input gate takes exactly one label", lineno)
    elif toks[3] != "inf":
        for t in toks[3].split(",") if vector else toks[3:]:
            parse_nat(t, "input coordinate" if vector else "input label", lineno)
    raise AssertionError(f"line {lineno}: gate line refused, but every check passes")


def parse_nat(tok: str, what: str, lineno: int | None = None) -> int:
    """A natural number written in ASCII digits; CircuitParseError otherwise."""
    if not (tok.isascii() and tok.isdigit()):
        raise CircuitParseError(f"{what} must be a natural number, got {tok!r}", lineno)
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise CircuitParseError(
            f"{what} has {len(tok)} digits; numbers are limited to {limit} digits", lineno
        ) from None


def serialize_circuit(c: Circuit) -> str:
    """Canonical text form; parse(serialize(c)) == c.

    A number with more digits than a circuit file may hold raises
    CircuitValidationError: a gate id or label at its gate, dim at no
    position. Predecessors and the output are ids written before them.
    """
    names, INPUT, vector = _KIND_TEXT, GateKind.INPUT, c.vector
    try:  # str() refuses a number past its digit limit
        out = [f"vcircuit v1 dim {c.dim}" if vector else "circuit v1"]
        for gid, kind, preds, v in c.gates:
            if kind is not INPUT:
                out.append(f"gate {gid} {names[kind]} " + " ".join(map(str, preds)))
            elif v is INF:
                out.append(f"gate {gid} input inf")
            else:
                out.append(f"gate {gid} input " + (",".join(map(str, v)) if vector else str(v)))
        out.append(f"output {c.output}")
    except ValueError:  # name the first number that is too long, and where
        _shown(c.dim, "dim")
        for pos, (gid, kind, _, v) in enumerate(c.gates):
            what = f"gate {_shown(gid, 'gate id', pos)}: input label"
            for x in (v if vector else (v,)) if kind is INPUT and v is not INF else ():
                _shown(x, what, pos)
        raise
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structure queries

def fragment_of(c: Circuit) -> frozenset[GateKind]:
    """The set of non-input gate kinds occurring in c, computed when c was built."""
    return c._fragment


def require_fragment(c: Circuit, allowed: frozenset, what: str, vector: bool | None = None):
    """Raise FragmentError unless c uses only the allowed gate kinds.

    With vector given, c must also be a circuit of that domain.
    """
    if vector is not None and c.vector != vector:
        dom = "vector" if vector else "scalar"
        raise FragmentError(f"{what} runs on {dom} circuits")
    if not c._fragment <= allowed:  # a subset test builds no set
        names = ", ".join(sorted(str(k) for k in c._fragment - allowed))
        raise FragmentError(f"{what} does not support gates of kind: {names}")


def bits(k: int) -> int:
    """Length of the binary representation; bits(0) == 1."""
    return k.bit_length() if k > 0 else 1


def encoding_length(c: Circuit) -> int:
    """Size |C| in bits under the canonical encoding.

    Each gate contributes bits(id) + 3 for the kind tag + bits of each
    predecessor id; input gates add the label payload (scalar: bits(max(v,1));
    vector: that, summed over coordinates; inf: 1). The output id is counted
    once at the end.
    """
    return sum(map(_gate_bits, c.gates)) + bits(c.output)


def _gate_bits(g: Gate) -> int:
    """One gate's share of the encoding length."""
    total = bits(g.gid) + 3 + sum(bits(p) for p in g.preds)
    if g.kind is GateKind.INPUT:
        total += _label_bits(g.value)
    return total


def _label_bits(v):
    if v is INF:
        return 1
    if isinstance(v, tuple):
        return sum(bits(max(x, 1)) for x in v)
    return bits(max(v, 1))


def subcircuit_at(c: Circuit, gid: int) -> Circuit:
    """The circuit induced by all gates that feed gid, with gid as output.

    One pass over the gates from the last: a gate is kept when gid or a
    kept gate reads it. The kept gates are in c's order and each one's
    predecessors are kept, so the cone of a valid circuit is valid and is
    built without a second check. c itself is returned when the cone is all
    of c and gid is its output.
    """
    if gid not in c:
        raise CircuitValidationError(f"no gate {gid} in circuit")
    needed = {gid}
    kept = []
    for g in reversed(c.gates):
        if g[0] in needed:
            kept.append(g)
            needed.update(g[2])
    if len(kept) == len(c.gates) and gid == c.output:
        return c
    kept.reverse()
    by_id = {g[0]: g for g in kept}
    return derived_circuit(tuple(kept), gid, c.dim, c.vector, by_id, _fragment(kept))


def subcircuit_lengths(c: Circuit) -> dict[int, int]:
    """encoding_length(subcircuit_at(c, g)) for every gate g, in one pass.

    Each gate's ancestors (itself included) are a bitset over gate positions,
    built in declaration order. Gates are grouped by their share of the
    encoding length, so a length is one popcount per distinct share.
    """
    ancestors = {}
    by_share = defaultdict(int)  # share in bits -> positions of the gates with it
    for pos, g in enumerate(c.gates):
        mask = 1 << pos
        for p in g.preds:
            mask |= ancestors[p]
        ancestors[g.gid] = mask
        by_share[_gate_bits(g)] |= 1 << pos
    shares = by_share.items()
    return {
        gid: sum(w * (mask & m).bit_count() for w, m in shares) + bits(gid)
        for gid, mask in ancestors.items()
    }

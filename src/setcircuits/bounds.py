"""Cutoff profiles and value bounds.

A cutoff for a gate's set is a point from which membership is constant
(per coordinate, for vector sets). Two profiles are provided:

* certified: 2^|C_g| + 1 per gate, where |C_g| is the encoding length of the
  subcircuit rooted at g. The paper's uniform bound, keyed only to
  description size and astronomically large except for tiny circuits: the
  `bounds` command prints it, and no engine uses it to decide.
* structural: a per-gate recurrence that tracks how each operation can move
  the constancy point. Far tighter; every clamped engine and the search read
  it. Soundness is argued per operation below and property-tested against
  reference evaluation.

Recurrence (scalar): input a -> a + 2; union/inter/comp -> max of the
predecessors; add -> sum of the predecessors; div -> the dividend's cutoff.
Vector: input v -> max coordinate + 2, input inf -> 1, union/inter/comp ->
max, add -> sum, sub -> the left predecessor's cutoff.

Why these are cutoffs: union/inter/comp preserve constancy regions pointwise.
For add at n1 + n2, any z that large decomposes with one side past its own
cutoff, and sliding that side keeps both memberships fixed. For div at the
dividend's n1: if n1 is out of the dividend, quotients stay below n1; if it
is in, every c >= n1 divides some element c*w >= n1 back into the dividend
for any nonzero divisor witness. For sub at n1 the witness shift z + b moves
only through the constant region of the left operand.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .circuit import (
    INF,
    Circuit,
    GateKind,
    encoding_length,
    fragment_of,
    require_fragment,
    subcircuit_lengths,
)
from .errors import FragmentError

_new = tuple.__new__  # builds a CutoffProfile without NamedTuple's Python-level __new__

CLAMPABLE_SCALAR = frozenset(
    {GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.DIV}
)
CLAMPABLE_VECTOR = frozenset(
    {GateKind.UNION, GateKind.INTER, GateKind.COMP, GateKind.ADD, GateKind.SUB}
)


class CutoffMode(enum.Enum):
    CERTIFIED = "certified"
    STRUCTURAL = "structural"

    def __str__(self):
        return self.value


# module constants: Enum attribute reads are slow, and these run on every decide
_CERTIFIED, _STRUCTURAL = CutoffMode.CERTIFIED, CutoffMode.STRUCTURAL
_INPUT, _ADD, _UNION, _INTER = GateKind.INPUT, GateKind.ADD, GateKind.UNION, GateKind.INTER


class CutoffProfile(NamedTuple):
    """The tuple (mode, cutoffs); indexing takes a gate id, as cutoffs does."""

    mode: CutoffMode
    cutoffs: dict  # gate id -> int

    def __getitem__(self, gid: int) -> int:
        return self.cutoffs[gid]


def certified_cutoff(c: Circuit) -> CutoffProfile:
    """Per-gate 2^|C_g| + 1. Values are exact ints (often enormous)."""
    require_fragment(c, CLAMPABLE_VECTOR if c.vector else CLAMPABLE_SCALAR, "cutoff argument")
    cut = {gid: (1 << size) + 1 for gid, size in subcircuit_lengths(c).items()}
    return _new(CutoffProfile, (_CERTIFIED, cut))


def structural_cutoff(c: Circuit) -> CutoffProfile:
    """The per-gate recurrence; cutoffs stay near the circuit's label scale."""
    vector = c.vector
    require_fragment(c, CLAMPABLE_VECTOR if vector else CLAMPABLE_SCALAR, "cutoff argument")
    cut = {}
    for gid, kind, preds, value in c.gates:
        if kind is _INPUT:
            if not vector:
                cut[gid] = value + 2
            elif value is INF:
                cut[gid] = 1
            else:
                cut[gid] = max(value) + 2
        elif kind is _ADD:
            cut[gid] = cut[preds[0]] + cut[preds[1]]
        elif kind is _UNION or kind is _INTER:
            cut[gid] = max(cut[preds[0]], cut[preds[1]])
        else:  # COMP, DIV, SUB: the left operand's cutoff
            cut[gid] = cut[preds[0]]
    return _new(CutoffProfile, (_STRUCTURAL, cut))


def cutoff_profile(c: Circuit) -> CutoffProfile:
    """The profile the engines read: the structural one."""
    return structural_cutoff(c)


@dataclass(frozen=True)
class ValueBound:
    """An upper bound of the form 2^exponent, kept lazy.

    With mul in the circuit the exponent itself is 2^|C|, so the bound can
    never be materialized; contains() compares through bit lengths instead.
    """

    exponent: int

    def contains(self, v: int) -> bool:
        """Whether 0 <= v <= 2^exponent."""
        if v < 0:
            return False
        if v <= 1:
            return True
        return (v - 1).bit_length() <= self.exponent

    def __repr__(self):
        return f"ValueBound(2**{self.exponent})"


def value_bound(c: Circuit) -> ValueBound:
    """Upper bound on every element of every gate set of a comp-free scalar circuit.

    Without mul the bound is 2^|C|; with mul it is 2^(2^|C|). Sketch: labels
    fit in |C| bits; union/inter/div never increase the maximum; add at most
    doubles it and mul at most squares it, and the per-gate encoding bits
    absorb a doubling (resp. squaring) each.
    """
    if c.vector:
        raise FragmentError("value bounds are for scalar circuits")
    frag = fragment_of(c)
    if GateKind.COMP in frag:
        raise FragmentError("value bounds need comp-free circuits (complements are infinite)")
    size = encoding_length(c)
    if GateKind.MUL in frag:
        return ValueBound(exponent=1 << size)
    return ValueBound(exponent=size)

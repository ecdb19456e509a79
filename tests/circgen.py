"""Seeded random circuit generators for the test corpora."""
from __future__ import annotations

import random

from setcircuits import INF, Circuit, Gate, GateKind

SCALAR_FULL = (
    GateKind.UNION,
    GateKind.INTER,
    GateKind.COMP,
    GateKind.ADD,
    GateKind.MUL,
    GateKind.DIV,
)
VECTOR_FULL = (
    GateKind.UNION,
    GateKind.INTER,
    GateKind.COMP,
    GateKind.ADD,
    GateKind.SUB,
)


def random_scalar(rng: random.Random, ops, max_gates=6, max_label=8, n_inputs=None) -> Circuit:
    gates = []
    n_in = n_inputs if n_inputs is not None else rng.randint(1, 3)
    n_in = min(n_in, max_gates - 1) or 1
    for i in range(n_in):
        gates.append(Gate(i + 1, GateKind.INPUT, value=rng.randint(0, max_label)))
    total = rng.randint(n_in + 1, max(n_in + 1, max_gates))
    while len(gates) < total:
        gid = len(gates) + 1
        kind = rng.choice(ops)
        if kind is GateKind.COMP:
            preds = (rng.randint(1, gid - 1),)
        else:
            preds = (rng.randint(1, gid - 1), rng.randint(1, gid - 1))
        gates.append(Gate(gid, kind, preds=preds))
    return Circuit(tuple(gates), output=len(gates))


def random_vector(rng: random.Random, ops, dim=2, max_gates=6, max_coord=3, inf_p=0.2) -> Circuit:
    gates = []
    n_in = rng.randint(1, 2)
    for i in range(n_in):
        if rng.random() < inf_p:
            val = INF
        else:
            val = tuple(rng.randint(0, max_coord) for _ in range(dim))
        gates.append(Gate(i + 1, GateKind.INPUT, value=val))
    total = rng.randint(n_in + 1, max(n_in + 1, max_gates))
    while len(gates) < total:
        gid = len(gates) + 1
        kind = rng.choice(ops)
        if kind is GateKind.COMP:
            preds = (rng.randint(1, gid - 1),)
        else:
            preds = (rng.randint(1, gid - 1), rng.randint(1, gid - 1))
        gates.append(Gate(gid, kind, preds=preds))
    return Circuit(tuple(gates), output=len(gates), dim=dim, vector=True)


def bounded_scalar(rng, ops, max_cutoff, **kw) -> Circuit:
    """Resample until the structural cutoffs stay at desk scale."""
    from setcircuits import structural_cutoff

    while True:
        c = random_scalar(rng, ops, **kw)
        prof = structural_cutoff(c)
        if max(prof.cutoffs.values()) <= max_cutoff:
            return c


def bounded_vector(rng, ops, max_cutoff, **kw) -> Circuit:
    from setcircuits import structural_cutoff

    while True:
        c = random_vector(rng, ops, **kw)
        prof = structural_cutoff(c)
        if max(prof.cutoffs.values()) <= max_cutoff:
            return c


def deep_chain(kind: GateKind, n: int = 10**4) -> Circuit:
    """n gates, each interior one reading the gate before it: comp chains
    gate k = comp(k - 1) on input 2, union chains gate k = union(k - 1, 1) on
    input 0, whose set is {0} at every gate."""
    if kind is GateKind.COMP:
        gates = [Gate(1, GateKind.INPUT, value=2)]
        gates += [Gate(k, kind, (k - 1,)) for k in range(2, n + 1)]
    else:
        gates = [Gate(1, GateKind.INPUT, value=0)]
        gates += [Gate(k, kind, (k - 1, 1)) for k in range(2, n + 1)]
    return Circuit(tuple(gates), output=n)

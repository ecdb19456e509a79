#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Checks that the tracer wraps the bindings callers use (engines and
transforms import their helpers by name, so wrapping only the defining module
would record nothing), and that a traced run of each workload records calls
on every span that workload is meant to exercise, and none on the spans it is
meant to bypass. Exits 1 on the first failed check.
"""
from __future__ import annotations

import sys

import run
from spans import Tracer

# the names engines and transforms bind at import time
CALLER_BINDINGS = [f"setcircuits.engines.{n}" for n in (
    "natrep_apply", "vecrep_apply", "exact_apply", "cutoff_profile",
    "structural_cutoff", "to_vector_gcdfree", "to_vector_primefact",
)] + [f"setcircuits.transforms.{n}" for n in (
    "factorize", "gcd_free_basis", "exponents_over_basis",
)]

EXERCISED = {
    "mulcomp-stream": (
        "engines.decide", "engines.eval_clamped_vector", "transforms.to_vector_primefact",
        "numtheory.factorize", "bounds.cutoff_profile", "bounds.structural_cutoff",
        "setrep.vecrep_apply",
    ),
    "reductions-ladder": (
        "circuit.parse_circuit", "engines.decide", "engines.eval_singleton",
        "engines.eval_singleton_vector", "engines.eval_exact", "engines.eval_clamped_scalar",
        "transforms.to_vector_gcdfree", "numtheory.gcd_free_basis",
        "numtheory.exponents_over_basis", "bounds.cutoff_profile", "setrep.natrep_apply",
        "setrep.exact_apply",
    ),
    "random-corpus": (
        "engines.decide", "engines.eval_clamped_scalar", "engines.eval_clamped_vector",
        "engines.eval_exact", "bounds.cutoff_profile", "bounds.structural_cutoff",
        "setrep.natrep_apply", "setrep.vecrep_apply", "setrep.exact_apply",
    ),
}
BYPASSED = {
    "mulcomp-stream": ("circuit.parse_circuit", "setrep.natrep_apply", "setrep.exact_apply"),
    "reductions-ladder": ("setrep.vecrep_apply", "transforms.to_vector_primefact"),
    "random-corpus": (
        "transforms.to_vector_primefact", "transforms.to_vector_gcdfree",
        "numtheory.factorize", "circuit.parse_circuit",
    ),
}


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def main():
    sc = run.fresh_import()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.bindings())
        for b in CALLER_BINDINGS:
            check(b in wrapped, f"binding {b} is wrapped")
        orig = sc.setrep.vecrep_apply.__wrapped__
    finally:
        tracer.uninstall()
    check(sc.engines.vecrep_apply is orig, "uninstall restores the original bindings")

    for name in EXERCISED:
        layers = run.measure(name, seed=1, seconds=0, trace=1)["layers"]
        for span in EXERCISED[name]:
            calls = layers.get(f"{span}.calls", 0)
            check(calls > 0, f"{name}: {span} has {calls:g} calls")
        for span in BYPASSED[name]:
            calls = layers.get(f"{span}.calls", 0)
            check(calls == 0, f"{name}: {span} has no calls")
        if name == "mulcomp-stream":
            top = max((v, k) for k, v in layers.items() if k.endswith(".self_ms"))[1]
            check(top == "setrep.vecrep_apply.self_ms", f"{name}: largest self time is {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans recorded from outside the package.

The tracer replaces functions of ``setcircuits`` by timing wrappers while it
is installed. A module that did ``from .setrep import vecrep_apply`` holds its
own binding, so wrapping only the defining module would record nothing for
its callers: ``install`` therefore swaps every binding of the original
function object in every ``setcircuits`` module.

A span holds name, start, end, parent span and operation id. Spans stay in
memory and are written out once at the end. A span's self time is its
duration minus the time its child spans cover. A ``BudgetExceeded`` counts as
``refused`` on the innermost span it passed through.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "setcircuits"
# the functions wrapped, named "<defining module>.<function>"; per-layer
# metric names start with these span names
SPANS = (
    "circuit.parse_circuit",
    "bounds.cutoff_profile",
    "bounds.structural_cutoff",
    "numtheory.factorize",
    "numtheory.gcd_free_basis",
    "numtheory.exponents_over_basis",
    "transforms.to_vector_primefact",
    "transforms.to_vector_gcdfree",
    "transforms.expand_formula",
    "setrep.natrep_apply",
    "setrep.vecrep_apply",
    "setrep.exact_apply",
    "engines.decide",
    "engines.eval_singleton",
    "engines.eval_singleton_vector",
    "engines.eval_exact",
    "engines.eval_clamped_scalar",
    "engines.eval_clamped_vector",
    "engines.certificate_search",
)


def _arg(args, kw, pos, name):
    return args[pos] if len(args) > pos else kw[name]


def _measure(name, args, kw, out):
    """Size measures of one call, or None; read from arguments and result."""
    if name == "setrep.vecrep_apply":
        a = _arg(args, kw, 1, "a")
        return {"kind": str(_arg(args, kw, 0, "kind")),
                "cells": (_arg(args, kw, 3, "result_cutoff") + 1) ** a.dim}
    if name == "setrep.natrep_apply":
        return {"kind": str(_arg(args, kw, 0, "kind")),
                "bits": _arg(args, kw, 3, "result_cutoff") + 1}
    if name == "setrep.exact_apply":
        return {"elems": len(out)}
    if name in ("transforms.to_vector_primefact", "transforms.to_vector_gcdfree"):
        emap = out[2]
        return {"dim": emap.dim, "basis": (id(_arg(args, kw, 0, "c")), emap.base)}
    if name == "circuit.parse_circuit":
        return {"gates": len(out)}
    if name == "bounds.cutoff_profile":
        return {"max_cutoff": max(out.cutoffs.values())}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, measures, refused]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._last_refusal = None
        self.op_id = -1

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def install(self):
        budget_exc = sys.modules[PACKAGE].BudgetExceeded
        modules = self._modules()
        for name in SPANS:
            mod_name, fn_name = name.split(".")
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig, budget_exc)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def bindings(self) -> list[str]:
        """'module.attr' of every binding currently wrapped."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patches)

    def _wrap(self, name, orig, budget_exc):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kw):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None, False]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = orig(*args, **kw)
            except budget_exc as e:
                rec[2] = clock()
                if e is not self._last_refusal:  # innermost span sees it first
                    self._last_refusal = e
                    rec[6] = True
                raise
            except BaseException:
                rec[2] = clock()
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            rec[5] = _measure(name, args, kw, out)
            return out

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """The benchmark's own span around one operation; the root of its spans."""
        self.op_id = op_id
        rec = ["op", 0, 0, -1, op_id, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- results --------------------------------------------------------------

    def rollup(self) -> dict:
        """Per-layer metrics: calls, self_ms, refused and the size measures."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        agg: dict = defaultdict(lambda: defaultdict(float))
        seen_basis: dict = defaultdict(set)
        for i, (name, _, _, _, _, meas, refused) in enumerate(self.spans):
            a = agg[name]
            self_ns = dur[i] - child[i]
            a["calls"] += 1
            a["self_ms"] += self_ns / 1e6
            a["refused"] += refused
            if not meas:
                continue
            if "kind" in meas:
                a["self_ms." + meas["kind"]] += self_ns / 1e6
            for key in ("cells", "bits", "elems", "gates"):
                if key in meas:
                    a[key] += meas[key]
            if "max_cutoff" in meas:
                a["max_cutoff"] = max(a["max_cutoff"], meas["max_cutoff"])
            if "dim" in meas:
                a["dim_sum"] += meas["dim"]
                a["dim_max"] = max(a["dim_max"], meas["dim"])
                a["repeat_basis"] += meas["basis"] in seen_basis[name]
                seen_basis[name].add(meas["basis"])
        out: dict = {}
        total_ms = sum(a["self_ms"] for a in agg.values())  # = time inside op spans
        for name, a in agg.items():
            a["self_frac"] = a["self_ms"] / total_ms
            if "dim_sum" in a:
                a["dim_mean"] = a.pop("dim_sum") / a["calls"]
                a["repeat_basis_frac"] = a.pop("repeat_basis") / a["calls"]
            for key, v in a.items():
                out[f"{name}.{key}"] = v
        ex = agg.get("engines.eval_exact")
        out["engines.exact_fallback_frac"] = ex["refused"] / ex["calls"] if ex else 0.0
        return out

    def dump(self, path):
        """Write every span as one JSON line; parents are line numbers."""
        with open(path, "w") as f:
            for name, start, end, parent, op, meas, refused in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if refused:
                    row["refused"] = True
                if meas:
                    row.update((k, v) for k, v in meas.items() if k != "basis")
                f.write(json.dumps(row) + "\n")

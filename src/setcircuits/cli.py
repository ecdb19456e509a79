"""Command line interface.

Subcommands:

* validate   parse a circuit file and report its shape
* member     decide one membership query
* eval       print every gate's set on decide's route (exact, clamped, or on
             the gcd-free or prime-factor image of a scalar circuit with mul)
* bounds     print the certified and the structural per-gate cutoffs and,
             where defined, the value bound
* transform  rewrite a circuit (vectorize, eliminate inter, push comp, expand)
* gen        build a circuit from a combinatorial instance (JSON)
* xcheck     run all applicable engines against each other

Exit codes: 0 decided/ok, 1 xcheck disagreement, 2 parse or validation
error, 3 I/O error, 4 unsupported fragment, 5 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import certified_cutoff, structural_cutoff, value_bound
from .circuit import (
    INF,
    Circuit,
    CircuitError,
    GateKind,
    _shown,
    fragment_of,
    parse_circuit,
    parse_nat,
    serialize_circuit,
)
from .engines import (
    DEFAULT_BUDGET,
    EngineBudget,
    decide,
    eval_clamped_scalar,
    eval_clamped_vector,
    eval_exact,
    pick_engine,
    xcheck_circuit,
)
from .errors import BudgetExceeded, FragmentError
from .reductions import (
    CvpInstance,
    ExactCoverInstance,
    GapInstance,
    MajorityDagInstance,
    from_cvp,
    from_exact_cover,
    from_gap,
    from_majority_dag,
)
from .transforms import (
    demorgan_rewrite,
    eliminate_cap,
    expand_formula,
    to_vector_gcdfree,
    to_vector_primefact,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_FRAGMENT = 4
EXIT_BUDGET = 5


def _load_circuit(path: str) -> Circuit:
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def _parse_query(text: str, c: Circuit):
    """A query, with numbers written as in circuit files (ASCII digits)."""
    if not c.vector:
        return parse_nat(text, "query")
    if text.strip().lower() == "inf":
        return INF
    parts = [parse_nat(p, "query coordinate") for p in text.split(",")]
    if len(parts) != c.dim:
        raise ValueError(f"query must be {c.dim} comma-separated naturals or 'inf'")
    return tuple(parts)


def _budget(args) -> EngineBudget:
    return EngineBudget(
        max_set_elems=args.max_set_elems,
        max_grid_cells=args.max_grid_cells,
        max_memo_entries=args.max_memo,
    )


def _nat_arg(text: str) -> int:
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a natural number, got {text}")


def _add_budget_args(p: argparse.ArgumentParser):
    p.add_argument("--max-set-elems", type=int, default=DEFAULT_BUDGET.max_set_elems)
    p.add_argument("--max-grid-cells", type=int, default=DEFAULT_BUDGET.max_grid_cells)
    p.add_argument("--max-memo", type=int, default=DEFAULT_BUDGET.max_memo_entries)


def _fragment_str(c: Circuit) -> str:
    kinds = sorted(str(k) for k in fragment_of(c))
    return "{" + ", ".join(kinds) + "}"


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(args) -> int:
    c = _load_circuit(args.circuit)
    shape = f"vector dim {c.dim}" if c.vector else "scalar"
    print(f"ok: {len(c)} gates, fragment {_fragment_str(c)}, {shape}")
    return EXIT_OK


def _cmd_member(args) -> int:
    c = _load_circuit(args.circuit)
    b = _parse_query(args.query, c)
    v = decide(c, b, engine=args.engine, budget=_budget(args))
    print(f"member={'true' if v.member else 'false'} engine={v.engine}")
    if args.verbose:
        for k in sorted(v.stats):
            print(f"  {k}={v.stats[k]}")
        if v.witness is not None:  # entries "gate:value <- its operand pairs", on one line
            pair = "{0[0]}:{0[1]}".format
            print("  witness=" + "; ".join(
                " ".join([pair(k), "<-", *map(pair, ops)]) if ops else pair(k)
                for k, ops in v.witness.items()))
    return EXIT_OK


def _format_elems(elems, cap: int) -> str:
    # a number past str()'s digit limit shows as a stand-in
    parts = ["(" + ",".join(map(_shown, e)) + ")" if isinstance(e, tuple) else _shown(e)
             for e in elems[:cap]]
    if len(elems) > cap:
        parts.append(f"... (+{len(elems) - cap} more)")
    return "{" + ", ".join(parts) + "}"


def _cmd_eval(args) -> int:
    """Print the sets of the route decide() takes: a comp-free circuit's exact
    sets and a comp circuit's clamped tables. A scalar circuit on a vector row
    is decided on its image, gcd-free or prime-factor, so that image's sets
    are printed, after a line naming it; one routed on its output's cone
    prints the cone's."""
    route, c = pick_engine(_load_circuit(args.circuit))  # OpenFragmentError on the open fragment
    budget = _budget(args)
    cap = args.upto
    image = ""
    if route.endswith("-vector") and not c.vector:  # a scalar circuit's vector rows read its image
        c, _, emap = (to_vector_primefact if route == "clamped-vector" else to_vector_gcdfree)(c, 0)
        print(f"image {emap.kind} base={_format_elems(emap.base, len(emap.base))} dim={c.dim}")
        image = " prime-factor image" if emap.kind == "prime-factors" else " gcd-free image"
    if route not in ("clamped-scalar", "clamped-vector"):  # every other route is comp-free
        sets = eval_exact(c, budget)
        for g in c.gates:
            elems = sorted(sets[g.gid], key=lambda e: (e is INF, e))
            print(f"gate {g.gid} {g.kind}: {_format_elems(elems, cap)}")
        print(f"output gate {c.output} (exact{image})")
        return EXIT_OK
    if route == "clamped-vector":
        reps, _ = eval_clamped_vector(c, budget)
        for g in c.gates:
            r = reps[g.gid]
            cells = sorted(r.below)
            print(
                f"gate {g.gid} {g.kind}: {_format_elems(cells, cap)}"
                f" sat={'in' if r.sat else 'out'} inf={'in' if r.inf else 'out'}"
                f" cutoff={r.cutoff}"
            )
    else:
        reps, _ = eval_clamped_scalar(c, budget)
        for g in c.gates:
            r = reps[g.gid]
            elems = r.elements_upto(r.cutoff - 1)
            print(
                f"gate {g.gid} {g.kind}: {_format_elems(elems, cap)}"
                f" tail={'in' if r.tail else 'out'} cutoff={r.cutoff}"
            )
    print(f"output gate {c.output} (clamped{image}, structural cutoffs)")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    c = _load_circuit(args.circuit)
    for name, profile in (("certified", certified_cutoff), ("structural", structural_cutoff)):
        try:
            prof = profile(c)
        except FragmentError as e:
            print(f"# {name} cutoffs: {e}")
            continue
        print(f"# {name} cutoffs")
        for g in c.gates:
            n = prof[g.gid]
            shown = f"2^{(n - 1).bit_length()}+1" if n > (1 << 64) else str(n)
            print(f"gate {g.gid} {g.kind} cutoff={shown}")
    if not c.vector and GateKind.COMP not in fragment_of(c):
        e = value_bound(c).exponent  # with mul it is 2^|C|, which may be past str()'s limit
        print(f"value-bound 2^{e}" if e <= 1 << 64 else f"value-bound 2^2^{e.bit_length() - 1}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    c = _load_circuit(args.circuit)
    lines = []
    if args.to in ("gcdfree", "primefact"):
        fn = to_vector_gcdfree if args.to == "gcdfree" else to_vector_primefact
        out, q, emap = fn(c, 0 if args.query is None else _parse_query(args.query, c))
        base = ",".join(map(str, emap.base))
        lines.append(f"# transform {args.to} base={base}")
        if emap.kind == "prime-factors":
            lines.append("# last coordinate collects primes outside the base")
        if args.query is not None:
            lines.append(f"# query {'inf' if q is INF else ','.join(map(str, q))}")
    elif args.to == "cap-elim":
        out = eliminate_cap(c)
        lines.append("# transform cap-elim")
    elif args.to == "demorgan":
        out = demorgan_rewrite(c)
        lines.append("# transform demorgan")
    else:  # formula
        out = expand_formula(c, max_gates=args.max_formula_gates)
        lines.append("# transform formula")
    text = "".join(line + "\n" for line in lines) + serialize_circuit(out)
    _write_out(text, args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    payload = json.loads(Path(args.instance).read_text(encoding="utf-8"))
    try:  # a payload of the wrong shape fails here, in the instance's own types
        if args.kind == "exact-cover":
            inst = ExactCoverInstance(
                universe=tuple(payload["universe"]), sets=tuple(tuple(s) for s in payload["sets"])
            )
        elif args.kind == "gap":
            inst = GapInstance(
                edges=tuple((u, v) for u, v in payload["edges"]),
                s=payload["s"],
                t=payload["t"],
                nodes=tuple(payload.get("nodes", ())),
            )
        elif args.kind == "cvp":
            inst = CvpInstance(
                gates=tuple(tuple(row) for row in payload["gates"]),
                output=payload["output"],
                assignment=dict(payload.get("assignment", {})),
            )
        else:  # majority
            inst = MajorityDagInstance(
                root=payload["root"],
                children={k: tuple(v) for k, v in payload["children"].items()},
                labels=dict(payload["labels"]),
            )
    except (TypeError, IndexError, AttributeError) as e:
        raise ValueError(f"malformed {args.kind} instance: {e}") from e
    red = {"exact-cover": from_exact_cover, "gap": from_gap, "cvp": from_cvp,
           "majority": from_majority_dag}[args.kind](inst)
    lines = [f"# reduction {args.kind}", f"# note {red.note}", f"# query {red.query}"]
    if red.negate:
        lines.append("# negated-verdict")
    text = "".join(line + "\n" for line in lines) + serialize_circuit(red.circuit)
    _write_out(text, args.output)
    return EXIT_OK


def _cmd_xcheck(args) -> int:
    c = _load_circuit(args.circuit)
    res = xcheck_circuit(c, max_b=args.max_b, budget=_budget(args))
    engines = ", ".join(res.answered)
    out_of_budget = f"; {', '.join(res.abstained)} ran out of budget" if res.abstained else ""
    if len(res.answered) < 2:  # answered is empty only where some engine abstained
        ran = f"only {engines}" if engines else "no engine"
        verb = "answered" if res.abstained else "applies"
        print(f"nothing to cross-check: {ran} {verb}{out_of_budget}")
        return EXIT_OK
    if res.problems:
        for p in res.problems:
            print(f"DISAGREE {p}")
        print(f"{len(res.problems)} disagreement(s) across engines: {engines}{out_of_budget}")
        return EXIT_DISAGREE
    print(f"agree: engines {engines} on {args.circuit}{out_of_budget}")
    return EXIT_OK


def _write_out(text: str, output: str | None):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="setcircuits",
        description="membership queries on arithmetic circuits over sets of naturals",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a circuit file")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("member", help="decide b in I(C)")
    p.add_argument("circuit")
    p.add_argument("query", help="natural number; for vector circuits 'c1,...,cm' or 'inf'")
    p.add_argument("--engine", default="auto")
    p.add_argument("--verbose", action="store_true")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("eval", help="print each gate's set")
    p.add_argument("circuit")
    p.add_argument("--upto", type=_nat_arg, default=32,
                   help="list at most this many elements per gate")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bounds", help="print per-gate cutoffs and value bounds")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("transform", help="rewrite a circuit")
    p.add_argument("circuit")
    p.add_argument(
        "--to",
        required=True,
        choices=["gcdfree", "primefact", "cap-elim", "demorgan", "formula"],
    )
    p.add_argument("--query", help="also print this query's image under a vectorizing transform")
    p.add_argument("--max-formula-gates", type=int, default=expand_formula.__defaults__[0])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="build a circuit from a JSON instance")
    p.add_argument("kind", choices=["exact-cover", "gap", "cvp", "majority"])
    p.add_argument("instance", help="path to the instance JSON")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("xcheck", help="cross-check every applicable engine")
    p.add_argument("circuit")
    p.add_argument("--max-b", type=int, default=24)
    _add_budget_args(p)
    p.set_defaults(func=_cmd_xcheck)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FragmentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FRAGMENT
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

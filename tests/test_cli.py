import json
import re
import time
from pathlib import Path

import pytest

from setcircuits import CrossCheck, GateKind, parse_circuit, serialize_circuit
from setcircuits.cli import main

from circgen import deep_chain
from test_circuit import PARSE_REJECTS

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

# complement of the empty set is all of N; adding it to itself keeps N
NATS_TEXT = """\
circuit v1
gate 1 input 0
gate 2 input 1
gate 3 inter 1 2
gate 4 comp 3
gate 5 add 4 4
output 5
"""

# {2} times N: the even numbers
EVEN_TEXT = """\
circuit v1
gate 1 input 0
gate 2 input 1
gate 3 inter 1 2
gate 4 comp 3
gate 5 input 2
gate 6 mul 5 4
output 6
"""

OPEN_TEXT = """\
circuit v1
gate 1 input 2
gate 2 comp 1
gate 3 add 2 1
gate 4 mul 3 1
output 4
"""


@pytest.fixture
def circ(tmp_path):
    def write(text, name="c.circ"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def _squarings(n: int, *more: str) -> str:
    """input 2, then n gates that each square the one before, then more."""
    gates = ["gate 1 input 2", *(f"gate {i} mul {i - 1} {i - 1}" for i in range(2, n + 2)), *more]
    return "circuit v1\n" + "\n".join(gates) + f"\noutput {gates[-1].split()[1]}\n"


def _strip_comments(out: str) -> str:
    return "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"


class TestValidate:
    def test_ok(self, circ, capsys):
        assert main(["validate", circ(PRIMES_TEXT)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 7 gates")
        assert "scalar" in out

    def test_parse_error_is_exit_2(self, circ, capsys):
        assert main(["validate", circ("circuit v1\ngate 1 warp 2\noutput 1\n")]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", PARSE_REJECTS)
    def test_every_parse_error_names_its_line(self, circ, capsys, text, line):
        assert main(["validate", circ(text)]) == 2
        assert f"(line {line}" in capsys.readouterr().err

    def test_missing_file_is_exit_3(self, capsys):
        assert main(["validate", "/nonexistent/x.circ"]) == 3


class TestMember:
    def test_true_and_false_lines(self, circ, capsys):
        p = circ(PRIMES_TEXT)
        assert main(["member", p, "7"]) == 0
        assert capsys.readouterr().out.strip() == (
            "member=true engine=clamped-vector cutoff=structural"
        )
        assert main(["member", p, "8"]) == 0
        assert capsys.readouterr().out.startswith("member=false")

    def test_vector_query(self, circ, capsys):
        p = circ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 add 1 1\noutput 2\n", "v.circ")
        assert main(["member", p, "2,4"]) == 0
        assert capsys.readouterr().out.startswith("member=true engine=singleton-vector")
        assert main(["member", p, "inf"]) == 0
        assert capsys.readouterr().out.startswith("member=false")

    def test_verbose_prints_stats(self, circ, capsys):
        assert main(["member", circ(EVEN_TEXT), "4", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "member=true" in out
        assert "gates=" in out

    def test_verbose_prints_the_witness_on_one_line(self, circ, capsys):
        # one element too many for exact: the certificate fallback decides
        p = circ("circuit v1\ngate 1 input 0\ngate 2 input 1\ngate 3 union 1 2\n"
                 "gate 4 add 3 3\noutput 4\n")
        assert main(["member", p, "1", "--verbose", "--max-set-elems", "2"]) == 0
        out = capsys.readouterr().out
        assert "engine=certificate" in out
        assert "  witness=4:1 <- 3:1 3:0; 3:1 <- 2:1; 2:1; 3:0 <- 1:0; 1:0\n" in out

    def test_open_fragment_is_exit_4(self, circ, capsys):
        assert main(["member", circ(OPEN_TEXT), "5"]) == 4
        assert "decidability open" in capsys.readouterr().err

    def test_budget_is_exit_5(self, circ, capsys):
        # clamped-scalar has no fallback: gate 1 needs a 13-cell bitmap
        p = circ("circuit v1\ngate 1 input 10\ngate 2 comp 1\noutput 2\n")
        assert main(["member", p, "7", "--max-grid-cells", "2"]) == 5
        assert "budget" in capsys.readouterr().err.lower()

    def test_a_refused_grid_falls_back_to_divisor_search(self, circ, capsys):
        p = circ(PRIMES_TEXT)
        assert main(["member", p, "7", "--max-grid-cells", "2"]) == 0
        assert capsys.readouterr().out.strip() == "member=true engine=divisor-search cutoff=none"

    def test_huge_queries(self, circ, capsys):
        p = circ(PRIMES_TEXT)
        assert main(["member", p, str(2**61 - 1), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("member=true")
        assert "spill=(1, 1)" in out and "step=prime-test" in out
        # prime past the bound where Miller-Rabin decides: proved by certificate
        assert main(["member", p, str(2**89 - 1)]) == 0
        assert capsys.readouterr().out.startswith("member=true")
        # prime, but its n - 1 = 2 q1 q2 has no part rho can reach: refused
        n = 2 * 19_282_901_516_542_751_161 * 18_788_459_943_534_510_863 + 1
        assert main(["member", p, str(n)]) == 5
        assert "factor" in capsys.readouterr().err

    def test_divisor_search_refuses_zero_at_a_mul(self, circ, capsys):
        # 0 = 2 * 0, with 0 in comp({0} inter {1}): the search would need some
        # value of the input, and no value bound ends that scan
        p = circ(EVEN_TEXT)
        assert main(["member", p, "0", "--engine", "divisor-search"]) == 5
        assert "nonemptiness" in capsys.readouterr().err
        assert main(["member", p, "12", "--engine", "divisor-search"]) == 0
        assert capsys.readouterr().out == "member=true engine=divisor-search cutoff=none\n"

    def test_bad_query_is_exit_2(self, circ):
        assert main(["member", circ(NATS_TEXT), "x"]) == 2
        assert main(["member", circ(NATS_TEXT), "1,2"]) == 2

    @pytest.mark.parametrize("argv", [["member", "5"], ["eval"], ["xcheck"]])
    def test_no_cutoff_mode_option(self, circ, capsys, argv):
        # only bounds takes a mode: every engine decides at the structural cutoffs
        p = circ(NATS_TEXT)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], p, *argv[1:], "--cutoff-mode", "certified"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff-mode" in capsys.readouterr().err


# queries take numbers as circuit files do: ASCII digits, and no sign, space or _
NOT_NATURALS = ["\u0669\u0667", " +97", "+97", "9_7", "-1", "97 ", "\uff19\uff17",
                pytest.param("1" * 5000, id="5000-digits")]


class TestQueryDigits:
    @pytest.mark.parametrize("q", NOT_NATURALS)
    def test_scalar_queries(self, circ, capsys, q):
        p = circ(PRIMES_TEXT)
        for argv in (["member", p, q], ["transform", p, "--to", "primefact", f"--query={q}"]):
            assert main(argv) == 2
            assert "natural number" in capsys.readouterr().err or len(q) > 4300
        assert main(["member", p, "97"]) == 0

    @pytest.mark.parametrize("q", NOT_NATURALS)
    def test_vector_coordinates(self, circ, capsys, q):
        p = circ("vcircuit v1 dim 2\ngate 1 input 1,2\ngate 2 add 1 1\noutput 2\n", "v.circ")
        assert main(["member", p, f"2,{q}"]) == 2
        assert main(["member", p, "2,4"]) == 0

    def test_digit_limit_is_named(self, circ, capsys):
        assert main(["member", circ(PRIMES_TEXT), "1" * 5000]) == 2
        assert "limited to" in capsys.readouterr().err


class TestEval:
    def test_exact_listing(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 2\ngate 2 add 1 1\noutput 2\n")
        assert main(["eval", p]) == 0
        out = capsys.readouterr().out
        assert "gate 1 input: {2}" in out
        assert "gate 2 add: {4}" in out

    def test_clamped_listing_has_tail_and_cutoff(self, circ, capsys):
        assert main(["eval", circ(NATS_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "tail=" in out and "cutoff=" in out
        comp_line = [l for l in out.splitlines() if l.startswith("gate 4")][0]
        assert "{0, 1, 2}" in comp_line and "tail=in" in comp_line
        empty_line = [l for l in out.splitlines() if l.startswith("gate 3")][0]
        assert "{}" in empty_line and "tail=out" in empty_line

    def test_vector_listing_has_sat_and_inf(self, circ, capsys):
        p = circ("vcircuit v1 dim 2\ngate 1 input inf\ngate 2 comp 1\noutput 2\n", "v.circ")
        assert main(["eval", p]) == 0
        out = capsys.readouterr().out
        assert "sat=" in out and "inf=" in out

    def test_upto_caps_listing(self, circ, capsys):
        assert main(["eval", circ(NATS_TEXT), "--upto", "3"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out

    def test_upto_zero_lists_only_the_count(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 1\noutput 3\n")
        assert main(["eval", p, "--upto", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("gate 1 input: {... (+1 more)} ")
        assert lines[1].startswith("gate 2 comp: {... (+3 more)} ")

    def test_comp_mul_lists_the_prime_factor_image(self, circ, capsys):
        # the tables member reads: the primes circuit's image has the spill
        # axis only, and gate 7 holds spill 1, the primes
        assert main(["eval", circ(PRIMES_TEXT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "image prime-factors base={} dim=1"
        assert lines[7] == "gate 7 inter: {(1)} sat=out inf=out cutoff=4"
        assert lines[8] == "output gate 7 (clamped prime-factor image, structural cutoffs)"
        assert main(["eval", circ(EVEN_TEXT, "e.circ")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "image prime-factors base={2} dim=2"
        assert lines[6].startswith("gate 6 add: {(1,0), (1,1), ") and "sat=in inf=in" in lines[6]

    def test_gcd_free_rows_list_the_image(self, circ, capsys):
        # the output holds 2^(2^25); member decides it on the exponent image,
        # where it is (2^25), and eval lists that image
        p = circ(_squarings(25))
        assert main(["member", p, "5"]) == 0
        assert capsys.readouterr().out.split()[1] == "engine=singleton-vector"
        assert main(["eval", p]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "image gcd-free base={2} dim=1"
        assert lines[26] == f"gate 26 add: {{({2**25})}}"
        assert lines[27] == "output gate 26 (exact gcd-free image)"
        assert main(["eval", circ(_squarings(14, "gate 16 div 15 15"))]) == 0
        assert capsys.readouterr().out.splitlines()[-2] == "gate 16 sub: {(0)}"

    def test_a_dead_comp_gate_is_left_out_of_the_listing(self, circ, capsys):
        # member and eval both run on the output's cone, a {mul} circuit
        p = circ("circuit v1\ngate 1 input 4\ngate 2 input 5\ngate 3 input 6\n"
                 "gate 4 mul 1 2\ngate 5 comp 4\ngate 6 mul 4 2\noutput 6\n")
        assert main(["member", p, "100"]) == 0
        assert capsys.readouterr().out.split()[:2] == ["member=true", "engine=singleton-vector"]
        assert main(["eval", p]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "image gcd-free base={4, 5} dim=2", "gate 1 input: {(1,0)}", "gate 2 input: {(0,1)}",
            "gate 4 add: {(1,1)}", "gate 6 add: {(1,2)}", "output gate 6 (exact gcd-free image)"]

    def test_numbers_past_the_digit_limit_show_a_stand_in(self, circ, capsys):
        # 2^(2^14) + 1 has 4,933 digits, past str()'s default limit
        p = circ(_squarings(14, "gate 16 input 1", "gate 17 add 15 16"))
        assert main(["eval", p]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[14] == "gate 15 mul: {<a number of more than 4300 digits>}"
        assert lines[-1] == "output gate 17 (exact)"

    def test_open_fragment_is_exit_4(self, circ, capsys):
        assert main(["eval", circ(OPEN_TEXT)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "decidability open" in captured.err

    @pytest.mark.parametrize("upto", ["-1", "abc"])
    def test_negative_upto_is_exit_2(self, circ, capsys, upto):
        p = circ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 add 2 1\noutput 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", p, "--upto", upto])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--upto: must be a natural number, got {upto}" in err


class TestBounds:
    def test_both_modes(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 1\ngate 2 comp 1\noutput 2\n")
        assert main(["bounds", p]) == 0
        out = capsys.readouterr().out
        assert "# structural cutoffs" in out
        assert "# certified cutoffs" in out
        assert "gate 2 comp cutoff=3" in out

    def test_certified_mode(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 1\ngate 2 comp 1\noutput 2\n")
        assert main(["bounds", p, "--mode", "certified"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# certified cutoffs\n") and "# structural" not in out

    def test_certified_power_rendering(self, circ, capsys):
        # a longer comp chain pushes certified cutoffs past 2^64
        lines = ["circuit v1", "gate 1 input 3"]
        for i in range(2, 12):
            lines.append(f"gate {i} comp {i - 1}")
        lines.append("output 11")
        assert main(["bounds", circ("\n".join(lines) + "\n"), "--mode", "certified"]) == 0
        out = capsys.readouterr().out
        assert "cutoff=2^" in out and "+1" in out

    def test_value_bound_and_inapplicable_note(self, circ, capsys):
        assert main(["bounds", circ(PRIMES_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "# structural cutoffs: " in out  # note line, mul blocks scalar cutoffs
        p2 = circ("circuit v1\ngate 1 input 3\ngate 2 mul 1 1\noutput 2\n", "m.circ")
        assert main(["bounds", p2]) == 0
        out = capsys.readouterr().out
        assert "value-bound 2^" in out


class TestTransform:
    def test_primefact_emits_vector_circuit(self, circ, capsys, tmp_path):
        assert main(["transform", circ(PRIMES_TEXT), "--to", "primefact", "--query", "9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# transform primefact")
        assert "# query 2\n" in out  # 9 = 3^2, and 3 is outside the labels' empty base
        vc = parse_circuit(_strip_comments(out))
        assert vc.vector and vc.dim == 1

    def test_vectorizers_need_no_query(self, circ, capsys):
        mul = circ("circuit v1\ngate 1 input 6\ngate 2 input 10\ngate 3 mul 1 2\noutput 3\n", "m.circ")
        for to, path, dim in (("primefact", circ(PRIMES_TEXT), 1), ("gcdfree", mul, 3)):
            assert main(["transform", path, "--to", to]) == 0
            out = capsys.readouterr().out
            assert "# query" not in out
            assert parse_circuit(_strip_comments(out)).dim == dim
        # 7 has no exponents over the labels' base (2, 3, 5)
        assert main(["transform", mul, "--to", "gcdfree", "--query", "7"]) == 2

    def test_cap_elim_roundtrip(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 6\ngate 2 input 6\ngate 3 inter 1 2\noutput 3\n")
        assert main(["transform", p, "--to", "cap-elim"]) == 0
        out = capsys.readouterr().out
        c = parse_circuit(_strip_comments(out))
        assert all(g.kind.value != "inter" for g in c.gates)

    def test_output_file(self, circ, tmp_path, capsys):
        dest = tmp_path / "out.circ"
        p = circ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 inter 2 2\noutput 3\n")
        assert main(["transform", p, "--to", "demorgan", "-o", str(dest)]) == 0
        c = parse_circuit(_strip_comments(dest.read_text()))
        assert all(g.kind.value != "inter" for g in c.gates)

    def test_wrong_fragment_is_exit_4(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 2\noutput 1\n")
        assert main(["transform", p, "--to", "demorgan"]) == 4


class TestGen:
    def _gen(self, tmp_path, capsys, kind, payload):
        inst = tmp_path / f"{kind}.json"
        inst.write_text(json.dumps(payload))
        assert main(["gen", kind, str(inst)]) == 0
        return capsys.readouterr().out

    def test_exact_cover(self, tmp_path, capsys):
        out = self._gen(
            tmp_path, capsys, "exact-cover", {"universe": [1, 2, 3], "sets": [[1, 2], [3]]}
        )
        assert out.startswith("# reduction exact-cover")
        assert "# query 1" in out
        parse_circuit(_strip_comments(out))

    def test_gap_negated(self, tmp_path, capsys):
        out = self._gen(tmp_path, capsys, "gap", {"edges": [[0, 1], [1, 2]], "s": 0, "t": 2})
        assert "# negated-verdict" in out
        parse_circuit(_strip_comments(out))

    def test_cvp(self, tmp_path, capsys):
        payload = {
            "gates": [["x", "var", "x"], ["g", "not", "x"]],
            "output": "g",
            "assignment": {"x": False},
        }
        out = self._gen(tmp_path, capsys, "cvp", payload)
        assert out.startswith("# reduction cvp")
        parse_circuit(_strip_comments(out))

    def test_majority(self, tmp_path, capsys):
        payload = {
            "root": "r",
            "children": {"r": ["a", "b"]},
            "labels": {"a": "accept", "b": "reject"},
        }
        out = self._gen(tmp_path, capsys, "majority", payload)
        assert out.startswith("# reduction majority")
        parse_circuit(_strip_comments(out))

    def test_bad_instance_is_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "bad.json"
        inst.write_text("{not json")
        assert main(["gen", "gap", str(inst)]) == 2
        inst.write_text(json.dumps({"edges": [[0, 1]], "s": 0}))  # missing t
        assert main(["gen", "gap", str(inst)]) == 2

    @pytest.mark.parametrize("kind, payload", [
        ("exact-cover", []),
        ("exact-cover", {"universe": 5, "sets": []}),
        ("cvp", {"gates": [["a", "var"]], "output": "a"}),
        ("majority", {"root": "r", "children": ["r"], "labels": {}}),
    ])
    def test_malformed_instance_is_exit_2(self, tmp_path, capsys, kind, payload):
        inst = tmp_path / "bad.json"
        inst.write_text(json.dumps(payload))
        assert main(["gen", kind, str(inst)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed {kind} instance")

    def test_majority_on_a_deep_chain(self, tmp_path, capsys):
        # a 3,000-deep path: ordering the dag takes no Python recursion
        n = 3000
        payload = {"root": "0", "children": {str(i): [str(i + 1)] for i in range(n)},
                   "labels": {str(n): "accept"}}
        out = self._gen(tmp_path, capsys, "majority", payload)
        # input 1, n + 1 gates per copy of the dag, then 2 and the three final gates
        assert len(parse_circuit(_strip_comments(out))) == 1 + 2 * (n + 1) + 4


class TestXcheck:
    def test_agreement(self, circ, capsys):
        assert main(["xcheck", circ(NATS_TEXT), "--max-b", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("agree: engines")
        assert "clamped-scalar" in out

    def test_agree_line_lists_engines_in_table_order(self, circ, capsys):
        p = circ("circuit v1\ngate 1 input 6\ngate 2 input 10\ngate 3 union 1 2\n"
                 "gate 4 mul 3 1\noutput 4\n")
        assert main(["xcheck", p, "--max-b", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("agree: engines exact-vector, exact, certificate, clamped-vector, "
                              "divisor-search on ")

    @pytest.mark.parametrize("text", [PRIMES_TEXT, EVEN_TEXT])
    def test_comp_and_mul_compare_two_engines(self, circ, capsys, text):
        p = circ(text)
        assert main(["xcheck", p, "--max-b", "30"]) == 0
        assert capsys.readouterr().out == f"agree: engines clamped-vector, divisor-search on {p}\n"

    def test_one_engine_is_nothing_to_cross_check(self, circ, capsys):
        # with div beside comp and mul, clamped-vector is the only scalar row
        p = circ("circuit v1\ngate 1 input 2\ngate 2 comp 1\ngate 3 mul 2 1\n"
                 "gate 4 div 3 1\noutput 4\n")
        assert main(["xcheck", p, "--max-b", "30"]) == 0
        assert capsys.readouterr().out == "nothing to cross-check: only clamped-vector applies\n"

    def test_an_engine_out_of_budget_is_not_said_to_agree(self, circ, capsys):
        # clamped-vector runs out of grid cells at prepare; only search answers
        p = circ("vcircuit v1 dim 2\ngate 1 input 3,3\ngate 2 comp 1\ngate 3 add 2 2\noutput 3\n")
        assert main(["xcheck", p, "--max-b", "3", "--max-grid-cells", "20"]) == 0
        assert capsys.readouterr().out == (
            "nothing to cross-check: only search answered; clamped-vector ran out of budget\n")
        assert main(["xcheck", p, "--max-b", "3", "--max-grid-cells", "20", "--max-memo", "0"]) == 0
        assert capsys.readouterr().out == ("nothing to cross-check: no engine answered; "
                                           "clamped-vector, search ran out of budget\n")

    def test_open_fragment_is_exit_4(self, circ, capsys):
        assert main(["xcheck", circ(OPEN_TEXT)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "decidability open" in captured.err

    @pytest.mark.parametrize(
        "text", [NATS_TEXT, "vcircuit v1 dim 1\ngate 1 input 2\ngate 2 comp 1\noutput 2\n"]
    )
    def test_negative_max_b_is_exit_2(self, circ, capsys, text):
        assert main(["xcheck", circ(text), "--max-b", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_b" in captured.err

    def test_disagreement_is_exit_1(self, circ, capsys, monkeypatch):
        import setcircuits.cli as cli_mod

        monkeypatch.setattr(cli_mod, "xcheck_circuit", lambda c, **kw: CrossCheck(
            ["b=3: clamped-scalar=True search=False"], ["clamped-scalar", "search"], []))
        assert main(["xcheck", circ(NATS_TEXT)]) == 1
        out = capsys.readouterr().out
        assert "disagree" in out.lower()


_GEN_PAYLOADS = {
    "exact-cover": {"universe": [1, 2, 3], "sets": [[1, 2], [3], [2, 3]]},
    "gap": {"edges": [[0, 1], [1, 2]], "s": 0, "t": 2},
    "cvp": {"gates": [["x", "var", "x"], ["y", "var", "y"], ["g", "and", "x", "y"]],
            "output": "g", "assignment": {"x": True, "y": False}},
    "majority": {"root": "r", "children": {"r": ["a", "b", "c"]},
                 "labels": {"a": "accept", "b": "reject", "c": "accept"}},
}
_SWEEP_CIRCUITS = {  # name -> (circuit text, query)
    "squarings": (_squarings(25), "5"),
    "squarings-add": (_squarings(14, "gate 16 input 1", "gate 17 add 15 16"), "5"),
    "squarings-div": (_squarings(14, "gate 16 div 15 15"), "5"),
    # |C| is about 22,000 bits, so the value bound 2^(2^|C|) is past str()'s limit
    "mul-chain": ("circuit v1\ngate 1 input 2\n"
                  + "".join(f"gate {i} mul {i - 1} 1\n" for i in range(2, 1002)) + "output 1001\n",
                  "5"),
    "primes": (PRIMES_TEXT, "7"),
    "evens": (EVEN_TEXT, "6"),
}


class TestExitCodeSweep:
    """Every command on a valid circuit ends in a verdict or a typed refusal:
    exit 0, 4 (fragment) or 5 (budget), never 2, which is for parse errors,
    and each within a few seconds."""

    @pytest.mark.parametrize("name", [*_SWEEP_CIRCUITS, *_GEN_PAYLOADS])
    def test_valid_circuit(self, name, circ, tmp_path, capsys):
        if name in _SWEEP_CIRCUITS:
            text, query = _SWEEP_CIRCUITS[name]
            path = circ(text)
        else:  # a gen output, with its comment lines, and the query it names
            inst, path = tmp_path / "inst.json", str(tmp_path / "gen.circ")
            inst.write_text(json.dumps(_GEN_PAYLOADS[name]))
            assert main(["gen", name, str(inst), "-o", path]) == 0
            query = re.search(r"^# query (\d+)$", Path(path).read_text(), re.M).group(1)
        for argv in (["validate", path], ["member", path, query], ["eval", path],
                     ["bounds", path]):
            start = time.perf_counter()
            code = main(argv)
            assert code in (0, 4, 5) and time.perf_counter() - start < 5, (argv, code)
        capsys.readouterr()


class TestDeepInputs:
    """Every input ends in a verdict or a typed error: on 10^4-gate chains no
    command may raise or exit 1, the code for engines that disagree."""

    @pytest.mark.parametrize("kind", [GateKind.COMP, GateKind.UNION])
    def test_chains_exit_with_documented_codes(self, circ, capsys, kind):
        p = circ(serialize_circuit(deep_chain(kind)))
        for argv in (["validate", p], ["eval", p], ["bounds", p], ["member", p, "2"],
                     ["member", p, "2", "--engine", "search"], ["xcheck", p]):
            assert main(argv) in (0, 3, 4, 5), argv  # never 2: the chains are valid circuits
        capsys.readouterr()
        assert main(["transform", p, "--to", "formula"]) == 0
        formula = parse_circuit(_strip_comments(capsys.readouterr().out))
        assert len(formula) == (10**4 if kind is GateKind.COMP else 2 * 10**4 - 1)

    def test_certificate_fallback_on_a_deep_chain(self, circ, capsys):
        # {0, 1} at every gate: one set element too many for exact, so member
        # falls back to the certificate search over the 2,001-gate chain
        gates = ["gate 1 input 0", "gate 2 input 1", "gate 3 union 1 2"]
        gates += [f"gate {k} union {k - 1} 3" for k in range(4, 2002)]
        p = circ("circuit v1\n" + "\n".join(gates) + "\noutput 2001\n")
        assert main(["member", p, "1", "--max-set-elems", "1"]) in (0, 5)
        assert "engine=certificate" in capsys.readouterr().out
        assert main(["member", p, "2", "--max-set-elems", "1"]) in (0, 5)

    def test_an_add_past_the_shift_budget(self, circ, capsys):
        # the add's cutoff is 7, so a shift counts 8 cells; {0, 2} needs two
        p = circ("circuit v1\ngate 1 input 0\ngate 2 input 2\ngate 3 union 1 2\n"
                 "gate 4 input 1\ngate 5 comp 4\ngate 6 add 3 5\noutput 6\n")
        assert main(["member", p, "5", "--max-grid-cells", "15"]) == 5
        assert "needs over 1 shifts" in capsys.readouterr().err
        assert main(["member", p, "5", "--max-grid-cells", "16"]) == 0
        assert capsys.readouterr().out.startswith("member=true engine=clamped-scalar")

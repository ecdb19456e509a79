"""The README's Quick start runs against the package in src/ and prints what it shows."""

import re
import shlex
from pathlib import Path

from setcircuits import serialize_circuit
from setcircuits.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _quick_start_blocks() -> dict[str, str]:
    """The Quick start section's fenced blocks, keyed by their language tag."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^```(\w*)\n(.*?)^```", section, re.M | re.S))


def test_quick_start_prints_what_it_shows(capsys, tmp_path, monkeypatch):
    blocks = _quick_start_blocks()
    # the Python block: each print's output is its trailing comment
    code = blocks["python"]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert shown == ["True", "clamped-vector"]
    assert capsys.readouterr().out.splitlines() == shown
    # the shell block: each "$ setcircuits ..." line prints the lines below it,
    # with primes.circ holding the circuit the Python block builds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "primes.circ").write_text(serialize_circuit(namespace["primes"]), encoding="utf-8")
    runs = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", blocks[""], re.M)
    assert [cmd for cmd, _ in runs] == ["setcircuits member primes.circ 97"]
    for cmd, out in runs:
        argv = shlex.split(cmd)
        assert argv[0] == "setcircuits" and main(argv[1:]) == 0
        assert capsys.readouterr().out == out

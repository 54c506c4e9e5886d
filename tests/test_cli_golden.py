"""Byte-for-byte CLI transcript over the corpus plus Z1.

tests/data/cli_golden.txt holds the stdout, stderr and exit code of every
command in golden_commands().  Refactors of the ladder, the graph caches or
the spec checks must leave that transcript unchanged.  To rewrite the file
after an intended output change, run:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from powersdim import CORPUS_SPECS
from powersdim.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

PER_SPEC = [
    ["compare", "--json"],
    ["compare", "--no-timing"],
    ["compute", "--witness", "--check", "--json"],
    ["compute", "--witness", "--check", "--no-timing"],
    ["witness", "--json"],
    ["classify", "--json"],
]


def golden_commands() -> list[list[str]]:
    argvs = [[cmd, spec, *flags] for spec in [*CORPUS_SPECS, "Z1"]
             for cmd, *flags in PER_SPEC]
    argvs.append(["table", "--family", "cyclic", "--range", "1..30", "--csv"])
    return argvs


def transcript(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"$ powersdim {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}[exit {code}]\n"


def test_cli_output_matches_golden_transcript():
    expected = GOLDEN.read_text().split("\n$ ")
    actual = "".join(transcript(argv) for argv in golden_commands()).split("\n$ ")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(transcript(argv) for argv in golden_commands()))

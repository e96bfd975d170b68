"""Record the command-line goldens replayed by ``test_cli.py``.

Each invocation runs in process through ``vankampen.cli.main``; the file
keeps its argv, exit code, stdout and stderr.  Regenerate only when an
output changes on purpose, and list the changed goldens with the change:

    PYTHONPATH=src python tests/make_cli_goldens.py
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDENS = Path(__file__).parent / "data" / "cli_goldens.json"
PAPER_BRAIDS = ("s2", "s1^-3 s2 s1^3", "s1^-1 s2^2 s1 s2^-2 s1")
LEMMA = "gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9"
BRAID_QUOTIENT = "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"
ZVK_RAW = (
    "gens: p, q, g+, g-; rels: q, g+^-1 p g+ p^-3 q^-1 p^-1, g+^-1 q g+ p q p^4 q p^4, "
    "g-^-1 p g- p^-1 q^-1 p^-2 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1, "
    "g-^-1 q g- p q p q p^2 q p^2 q p^2 q p"
)
# relators whose ends cancel or merge; two of them have one canonical form
CYCLIC = "gens: p, q; rels: p q p^-1, p^3 q p^-5, p^2 q^3 p q^-3 p^-2, q p q^-1, p^2 q p^-2 q^-1"

INVOCATIONS = [
    ["reproduce-paper"],
    ["reproduce-paper", "--format", "structured"],
    ["reproduce-paper", "--k", "3"],
    ["verify-curves"],
    ["zvk"],
    ["zvk", "--raw"],
    ["patch"],
    ["patch", "--k", "4"],
    *(["lift-monodromy", braid] for braid in PAPER_BRAIDS),
    ["abelianize", LEMMA],
    ["abelianize", BRAID_QUOTIENT],
    ["alexander", BRAID_QUOTIENT, "--weights", "s1=1,s2=1"],
    ["coset-enum", LEMMA, "--subgroup", "g+"],
    ["simplify", ZVK_RAW],
    ["simplify", ZVK_RAW, "--canonical-only"],
    ["simplify", CYCLIC, "--canonical-only"],
    # one bad input per command
    ["reproduce-paper", "--format", "xml"],
    ["verify-curves", "--strict"],
    ["zvk", "--simplified"],
    ["patch", "--k", "9"],
    ["lift-monodromy", "s3"],
    ["abelianize", "gens: a, a; rels: a^2"],
    ["alexander", "gens: a, b; rels: a b^-1", "--weights", "a=1"],
    ["coset-enum", LEMMA, "--subgroup", "x"],
    ["simplify", "gens: a; rels: a^0"],
    # a Smith form that takes a Bezout step, a row insertion and a divisibility fix
    ["abelianize", "gens: a, b, c; rels: b^4 c^6, a^2, a^3 b^2"],
]


def run(argv: list[str]) -> dict:
    """One invocation as recorded: usage errors exit through ``SystemExit``."""
    from vankampen.cli import main

    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    records = [run(argv) for argv in INVOCATIONS]
    GOLDENS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

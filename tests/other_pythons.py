"""Replay the CLI goldens and ``reproduce_paper()`` under other Python interpreters.

Each interpreter named on the command line runs this file again in
isolated mode (``-I``), with ``src`` and ``tests`` put on its path by
hand, so the child imports nothing but the standard library and the
package.  The child replays every golden of
``tests/data/cli_goldens.json`` through ``make_cli_goldens.run`` (as
``test_cli.py`` does, with ``COLUMNS=80``) and one ``reproduce_paper()``,
and prints one line, then the argv of each golden that differs.  The
exit status is 1 if any interpreter differs or fails to run.  Nothing
is written; run it by hand:

    python tests/other_pythons.py /path/to/python3.10 /path/to/python3.13
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = "--child"


def replay() -> int:
    """In the child: replay the goldens and the paper, and report both."""
    sys.dont_write_bytecode = True  # leave no __pycache__ behind
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from make_cli_goldens import GOLDENS, run
    from vankampen.pipeline import reproduce_paper

    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    differ = [g["argv"] for g in goldens if run(g["argv"]) != g]
    ok = reproduce_paper().overall
    matched = f"{len(goldens) - len(differ)}/{len(goldens)}"
    print(f"python {sys.version.split()[0]}: goldens {matched}, reproduce_paper {'ok' if ok else 'FAIL'}")
    for argv in differ:
        print(f"  differs: {argv}")
    return 0 if ok and not differ else 1


def main(interpreters: list[str]) -> int:
    if not interpreters:
        print("usage: python tests/other_pythons.py PYTHON...", file=sys.stderr)
        return 2
    status = 0
    for python in interpreters:
        try:
            child = subprocess.run([python, "-I", str(Path(__file__).resolve()), CHILD],
                                   capture_output=True, text=True)
        except OSError as exc:
            print(f"{python}: cannot run: {exc}")
            status = 1
            continue
        print(f"{python}: {child.stdout}{child.stderr}", end="")
        status = status or int(child.returncode != 0)
    return status


if __name__ == "__main__":
    sys.exit(replay() if sys.argv[1:] == [CHILD] else main(sys.argv[1:]))

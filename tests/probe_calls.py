"""List the library functions that neither the CLI goldens nor the workloads enter.

The goldens of ``tests/data/cli_goldens.json`` are replayed in process
through ``vankampen.cli.main``, and one tiny round of each benchmark
workload is bound, run and checked through ``benchmarks/workloads.bind``.
Every function entered meanwhile is recorded by ``sys.setprofile``.  Each
function defined in ``src/vankampen`` that was never entered is printed as
``module.py:line qualname``.  Nothing is written; run it by hand:

    PYTHONPATH=src python tests/probe_calls.py
"""

from __future__ import annotations

import json
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

sys.dont_write_bytecode = True  # leave no __pycache__ under benchmarks/

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vankampen"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from make_cli_goldens import GOLDENS, run  # noqa: E402


def functions(code: CodeType):
    """The code objects of the ``def`` functions nested in ``code``, at any depth."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)


def key(code: CodeType) -> tuple[str, int, str]:
    return Path(code.co_filename).name, code.co_firstlineno, code.co_qualname


def main() -> None:
    entered: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for record in json.loads(GOLDENS.read_text(encoding="utf-8")):
            run(record["argv"])
        import workloads

        for workload in workloads.WORKLOADS:
            for spec in workloads.make_specs(workload, 1, tiny=True):
                op = workloads.bind(spec)
                op.check(op.run())
    finally:
        sys.setprofile(None)

    reached = {key(code) for code in entered if Path(code.co_filename).parent == PACKAGE}
    defined = {
        key(code)
        for path in sorted(PACKAGE.glob("*.py"))
        for code in functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    }
    for name, line, qualname in sorted(defined - reached):
        print(f"{name}:{line} {qualname}")


if __name__ == "__main__":
    main()

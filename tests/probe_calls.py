"""List the library functions that the CLI goldens do not enter.

The goldens of ``tests/data/cli_goldens.json`` are replayed in process
through ``vankampen.cli.main``, and then one tiny round of each benchmark
workload is bound, run and checked through ``benchmarks/workloads.bind``.
Every function entered meanwhile is recorded by ``sys.setprofile``, the
goldens' and the workloads' apart.  Two sections are printed, one
function defined in ``src/vankampen`` per line as ``module.py:line
qualname``: the functions neither enters, then those that only the
workloads enter (code that only the benchmark keeps alive).  Nothing is
written; run it by hand:

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
    by_goldens: set[CodeType] = set()
    by_workloads: set[CodeType] = set()
    entered = by_goldens

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for record in json.loads(GOLDENS.read_text(encoding="utf-8")):
            run(record["argv"])
        entered = by_workloads
        import workloads

        for workload in workloads.WORKLOADS:
            for spec in workloads.make_specs(workload, 1, tiny=True):
                op = workloads.bind(spec)
                op.check(op.run())
    finally:
        sys.setprofile(None)

    golden_keys, workload_keys = (
        {key(code) for code in codes if Path(code.co_filename).parent == PACKAGE}
        for codes in (by_goldens, by_workloads)
    )
    defined = {
        key(code)
        for path in sorted(PACKAGE.glob("*.py"))
        for code in functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    }
    for title, keys in (("never entered", defined - golden_keys - workload_keys),
                        ("entered only by the workloads", defined & workload_keys - golden_keys)):
        print(f"{title}:")
        for name, line, qualname in sorted(keys):
            print(f"  {name}:{line} {qualname}")


if __name__ == "__main__":
    main()

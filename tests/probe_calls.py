"""List the library code that the CLI goldens do not reach.

The goldens of ``tests/data/cli_goldens.json`` are replayed in process
through ``vankampen.cli.main``, and then one tiny round of each benchmark
workload is bound, run and checked through ``benchmarks/workloads.bind``.
Every function entered and every line executed meanwhile is recorded by
``sys.settrace``, the goldens' and the workloads' apart.  Three sections
are printed, one item defined in ``src/vankampen`` per line as
``module.py:line``: the functions neither enters, then those that only
the workloads enter (code that only the benchmark keeps alive), each with
its qualname; then the statement lines inside functions that neither
executes, ``raise`` statements excluded (a guard's failure is tested, not
replayed), each with its source text.  Nothing is written; run it by
hand:

    PYTHONPATH=src python tests/probe_calls.py
"""

from __future__ import annotations

import ast
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


def statement_lines(tree: ast.Module, code: CodeType) -> set[int]:
    """First lines of the statements inside functions that compile to code, ``raise`` and docstrings excluded."""
    compiled = {line for f in functions(code) for _, _, line in f.co_lines() if line is not None}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                if isinstance(stmt, ast.stmt) and stmt is not node and not isinstance(stmt, ast.Raise) and not docstring:
                    lines.add(stmt.lineno)
    return lines & compiled


def main() -> None:
    by_goldens: tuple[set[CodeType], set[tuple[str, int]]] = (set(), set())
    by_workloads: tuple[set[CodeType], set[tuple[str, int]]] = (set(), set())
    entered, executed = by_goldens

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        entered.add(frame.f_code)
        return line if Path(frame.f_code.co_filename).parent == PACKAGE else None

    sys.settrace(call)
    try:
        for record in json.loads(GOLDENS.read_text(encoding="utf-8")):
            run(record["argv"])
        entered, executed = by_workloads
        import workloads

        for workload in workloads.WORKLOADS:
            for spec in workloads.make_specs(workload, 1, tiny=True):
                op = workloads.bind(spec)
                op.check(op.run())
    finally:
        sys.settrace(None)

    golden_keys, workload_keys = (
        {key(code) for code in codes if Path(code.co_filename).parent == PACKAGE}
        for codes, _ in (by_goldens, by_workloads)
    )
    reached = by_goldens[1] | by_workloads[1]
    defined: set[tuple[str, int, str]] = set()
    unexecuted: list[tuple[str, int, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        defined |= {key(f) for f in functions(code)}
        text = source.splitlines()
        unexecuted += [(path.name, n, text[n - 1].strip())
                       for n in sorted(statement_lines(ast.parse(source), code))
                       if (str(path), n) not in reached]
    for title, items in (("never entered", sorted(defined - golden_keys - workload_keys)),
                         ("entered only by the workloads", sorted(defined & workload_keys - golden_keys)),
                         ("statement lines never executed (raise excluded)", unexecuted)):
        print(f"{title}:")
        for name, n, what in items:
            print(f"  {name}:{n} {what}")


if __name__ == "__main__":
    main()

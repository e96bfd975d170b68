"""Command-line front end.

Subcommands map one-to-one onto the library: lifting braid monodromies
through the double cover, assembling and simplifying the fundamental
group presentation, patching the extra fiber relation, abelianization,
coset enumeration, Alexander polynomials, the exact curve checks, and
the full replay pipeline with stage diffing.
"""

from __future__ import annotations

import argparse
import re
import sys

from .abelian import abelian_invariants
from .alexander import WeightedPresentation, alexander_polynomial
from .coset import enumerate_cosets
from .cover import lift_monodromy
from .errors import BudgetExhausted, CoverError, InternalCheckError, ParseError
from . import pipeline
from .presentation import (
    Presentation,
    canonicalize,
    format_presentation,
    parse_presentation,
    tietze_simplify,
)
from .words import braid_action, comma_fields, parse_braid, parse_word


def _parse_k(text: str) -> int | None:
    if text == "all":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}")
    if not 0 <= value <= 8:
        raise argparse.ArgumentTypeError("k must lie in 0..8")
    return value


def _parse_budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("the coset budget must be at least 1")
    return value


def _parse_weights(text: str, pres: Presentation) -> WeightedPresentation:
    """``pres`` weighted by ``name=integer`` pairs, one per generator; errors point into ``--weights``."""
    weights, columns = {}, {}
    for piece, at in comma_fields(text):
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not name or not sep or not re.fullmatch(r"\s*[+-]?\d+\s*", value):
            raise ParseError(f"weight {piece!r} is not of the form name=integer",
                             column=at, argument="--weights")
        if name in weights:
            raise ParseError(f"duplicate weight for {name!r}", column=at, argument="--weights")
        weights[name], columns[name] = int(value), at
    if not weights:
        raise ParseError("empty weight list", argument="--weights")
    try:
        return WeightedPresentation(pres, weights)
    except ValueError as exc:  # at the first weight for a non-generator, else just past the end
        at = min((columns[g] for g in weights if g not in pres.generators), default=len(text) + 1)
        raise ParseError(str(exc), column=at, argument="--weights") from exc


def _parse_subgroup(text: str, generators: tuple[str, ...]) -> tuple:
    return tuple(parse_word(piece, generators, column_offset=col - 1, argument="--subgroup")
                 for piece, col in comma_fields(text) if piece)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vankampen",
        description="Fundamental-group computations for plane sextics via braid monodromy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift-monodromy", help="lift a braid action through the double cover")
    p.add_argument("braid", help="braid word on 3 strands, e.g. 's1^-3 s2 s1^3'")

    p = sub.add_parser("zvk", help="assemble the presentation from the built-in monodromies")
    p.add_argument("--raw", action="store_true", help="print the unsimplified assembly")

    p = sub.add_parser("simplify", help="canonically simplify a presentation")
    p.add_argument("presentation", help="e.g. 'gens: p, q; rels: p q p^-1 q^-1'")
    p.add_argument("--canonical-only", action="store_true", help="sort and reduce relators, no eliminations")

    p = sub.add_parser("patch", help="patch the extra fiber relation and resimplify")
    p.add_argument("--k", type=_parse_k, default=None, help="patch exponent 0..8 or 'all' (default)")

    p = sub.add_parser("abelianize", help="abelian invariants of a presentation")
    p.add_argument("presentation")

    p = sub.add_parser("coset-enum", help="index of a finitely generated subgroup")
    p.add_argument("presentation")
    p.add_argument("--subgroup", default="", help="comma-separated generator words")
    p.add_argument("--max-cosets", type=_parse_budget, default=100_000, help="definition budget")

    p = sub.add_parser("alexander", help="Alexander polynomial from a weighted presentation")
    p.add_argument("presentation")
    p.add_argument("--weights", required=True, help="e.g. 's1=1,s2=1'")

    sub.add_parser("verify-curves", help="run the exact curve checks")

    p = sub.add_parser("reproduce-paper", help="replay every stage and diff against expectations")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--max-cosets", type=_parse_budget, default=10_000)
    p.add_argument("--k", type=_parse_k, default=None, help="patch exponent 0..8 or 'all' (default)")
    p.add_argument("--out", default=None, help="also write the report to this file")

    return parser


def _cmd_lift_monodromy(args) -> int:
    braid = parse_braid(args.braid, 3)
    action = braid_action(braid)
    lift = lift_monodromy(action)
    print(f"action: {action}")
    print(f"lift: {lift}")
    return 0


def _cmd_zvk(args) -> int:
    replay = pipeline.Replay()
    print(format_presentation(replay.assembled if args.raw else replay.simplified))
    return 0


def _cmd_simplify(args) -> int:
    pres = parse_presentation(args.presentation)
    if args.canonical_only:
        print(format_presentation(canonicalize(pres)))
    else:
        print(format_presentation(tietze_simplify(pres)))
    return 0


def _cmd_patch(args) -> int:
    print(format_presentation(pipeline.Replay(k=args.k).patched))
    return 0


def _cmd_abelianize(args) -> int:
    print(abelian_invariants(parse_presentation(args.presentation)))
    return 0


def _cmd_coset_enum(args) -> int:
    pres = parse_presentation(args.presentation)
    subgroup = _parse_subgroup(args.subgroup, pres.generators)
    table = enumerate_cosets(pres, subgroup=subgroup, max_cosets=args.max_cosets)
    print(f"index: {table.count}")
    return 0


def _cmd_alexander(args) -> int:
    pres = parse_presentation(args.presentation)
    print(alexander_polynomial(_parse_weights(args.weights, pres)))
    return 0


def _cmd_verify_curves(args) -> int:
    stage = pipeline.Replay().stage("curve-checks")
    if stage.computed.startswith("error: "):
        print(stage.computed, file=sys.stderr)
        return 1
    expected, computed = stage.expected.split("\n"), stage.computed.split("\n")
    n = max(len(expected), len(computed))
    expected += ["<none>"] * (n - len(expected))
    computed += ["<missing>"] * (n - len(computed))
    for want, got in zip(expected, computed):
        print(f"ok    {got}" if got == want else f"FAIL  {got}    (expected: {want})")
    print("all curve checks passed" if stage.match else "curve checks FAILED")
    return 0 if stage.match else 1


def _cmd_reproduce_paper(args) -> int:
    report = pipeline.reproduce_paper(k=args.k, max_cosets=args.max_cosets)
    rendered = report.to_text() if args.format == "text" else report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    print(rendered, end="")
    if report.overall:
        return 0
    return 3 if all(s.exhausted for s in report.stages if not s.match) else 1


_COMMANDS = {
    "lift-monodromy": _cmd_lift_monodromy,
    "zvk": _cmd_zvk,
    "simplify": _cmd_simplify,
    "patch": _cmd_patch,
    "abelianize": _cmd_abelianize,
    "coset-enum": _cmd_coset_enum,
    "alexander": _cmd_alexander,
    "verify-curves": _cmd_verify_curves,
    "reproduce-paper": _cmd_reproduce_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, CoverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExhausted as exc:
        # an undecided search is an outcome, reported on stdout like a result
        print(exc)
        return 3
    except Exception as exc:  # a fault of the program, not of the input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

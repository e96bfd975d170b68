"""End-to-end replay of the computation chain with stage-by-stage diffing.

A ``Replay`` holds one run of the chain as cached properties, each
computed once on first use: braid actions, cover lifts, the assembled
and simplified presentation, the patch sweep, then the commutant
certificate, abelian invariants, Alexander polynomials and the curve
checks.  Each stage's text is a pure rendering of those properties and
is compared against the expected text stored in
``data/expected_stages.json``.  Stage failures are recorded in the
report, never skipped; the report serializes deterministically so golden
tests can pin it byte for byte.

The patch sweep is one ``patch_fiber`` call over k = 0..8: it eliminates
g- once per k and simplifies each distinct elimination once, and the
result must not depend on k.  ``k`` restricts the sweep to one exponent.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cached_property

from .abelian import AbelianInvariants, abelian_invariants
from .alexander import LaurentPoly, WeightedPresentation, alexander_polynomial
from .cover import lift_monodromy
from .coset import quotient_order
from .curves import (
    EPS,
    chart_cubic_factors,
    cubic_pencil,
    intersection_multiplicity_origin,
    nodal_cubic,
    divides,
    poly_ring,
    singular_parameters,
    verify_node,
    verify_torus_structure,
)
from .errors import BudgetExhausted, InternalCheckError
from .presentation import (
    CommutantReport,
    Presentation,
    commutant_report,
    format_presentation,
    metacyclic_instances,
    metacyclic_normal_form,
    parse_presentation,
    patch_fiber,
    tietze_simplify,
    zvk_assemble,
)
from .words import FreeEndo, Word, braid_action, parse_braid, parse_word

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable

MONODROMY_BRAIDS = {
    "m1": "s2",
    "m+": "s1^-3 s2 s1^3",
    "m-": "s1^-1 s2^2 s1 s2^-2 s1",
}

BRAID_QUOTIENT = "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"


class StageResult:
    __slots__ = ("name", "expected", "computed", "exhausted")  # exhausted: stopped at its search budget

    def __init__(self, name: str, expected: str, computed: str, exhausted: bool = False):
        self.name, self.expected, self.computed, self.exhausted = name, expected, computed, exhausted

    @property
    def match(self) -> bool:
        return self.expected == self.computed


class PipelineReport:
    __slots__ = ("stages",)

    def __init__(self, stages: tuple[StageResult, ...]):
        self.stages = stages

    @property
    def overall(self) -> bool:
        return all(s.match for s in self.stages)

    def to_text(self) -> str:
        width = max(len(s.name) for s in self.stages)
        lines = [f"{s.name.ljust(width)}  {'ok' if s.match else 'MISMATCH'}" for s in self.stages]
        passed = sum(1 for s in self.stages if s.match)
        lines.append(f"overall: {'ok' if self.overall else 'FAIL'} ({passed}/{len(self.stages)})")
        for s in self.stages:
            if not s.match:
                lines.append("")
                lines.append(f"--- {s.name}: expected ---")
                lines.append(s.expected)
                lines.append(f"--- {s.name}: computed ---")
                lines.append(s.computed)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "overall": self.overall,
            "stages": [
                {"name": s.name, "match": s.match, "expected": s.expected, "computed": s.computed}
                for s in self.stages
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def expected_stage_texts() -> dict[str, str]:
    """Expected per-stage text blocks from the packaged data file."""
    path = os.path.join(os.path.dirname(__file__), "data", "expected_stages.json")
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    out: dict[str, str] = {}
    for stage in data["stages"]:
        out[stage["name"]] = "\n".join(text for _, text in stage["lines"])
    return out


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


class Replay:
    """One run of the chain, each intermediate computed on first use and then kept.

    ``k=None`` sweeps the patch exponent over 0..8; a single value
    makes a one-element sweep (the outcome must be identical either way).
    """

    def __init__(self, k: int | None = None, max_cosets: int = 10_000):
        if k is not None and not 0 <= k <= 8:
            raise ValueError("k must lie in 0..8")
        self.k_values = tuple(range(9)) if k is None else (k,)
        self.max_cosets = max_cosets

    @cached_property
    def actions(self) -> dict[str, FreeEndo]:
        return {name: braid_action(parse_braid(text, 3)) for name, text in MONODROMY_BRAIDS.items()}

    @cached_property
    def lifts(self) -> dict[str, FreeEndo]:
        return {name: lift_monodromy(a) for name, a in self.actions.items()}

    @cached_property
    def assembled(self) -> Presentation:
        lifts = self.lifts
        return zvk_assemble(kept=[lifts["m1"]], removed=[("g+", lifts["m+"]), ("g-", lifts["m-"])])

    @cached_property
    def simplified(self) -> Presentation:
        return tietze_simplify(self.assembled)

    @cached_property
    def patched(self) -> Presentation:
        return patch_fiber(self.simplified, "g+", "g-", self.k_values)

    @cached_property
    def braid_quotient(self) -> Presentation:
        return parse_presentation(BRAID_QUOTIENT)

    @cached_property
    def commutant(self) -> tuple[Word, CommutantReport, int]:
        """(normal form of [p^-1, g+^-1], commutant report, order of the quotient by g+^3)."""
        instances = metacyclic_instances(self.patched)
        form = next((f for _, _, f in instances if (f.p, f.c) == ("p", "g+")), None)
        if form is None:
            raise InternalCheckError("patched group has no metacyclic form over p, g+")
        a, b = metacyclic_normal_form(form, parse_word("p^-1 g+^-1 p g+"))
        commutator = Word(((form.p, a), (form.c, b)))
        order = quotient_order(self.patched, extra_relators=(parse_word("g+^3"),), max_cosets=self.max_cosets)
        return commutator, commutant_report(form), order

    @cached_property
    def abelian(self) -> tuple[AbelianInvariants, AbelianInvariants]:
        """Abelian invariants of the patched group and of the braid quotient."""
        return abelian_invariants(self.patched), abelian_invariants(self.braid_quotient)

    @cached_property
    def alexander(self) -> tuple[LaurentPoly, LaurentPoly]:
        """Alexander polynomials of the braid quotient (s1 = s2 = t) and of <a | a^6>."""
        braids = WeightedPresentation(self.braid_quotient, {"s1": 1, "s2": 1})
        cyclic = WeightedPresentation(parse_presentation("gens: a; rels: a^6"), {"a": 1})
        return alexander_polynomial(braids), alexander_polynomial(cyclic)

    @cached_property
    def curves(self) -> tuple[bool, bool, bool, bool, bool, bool, Fraction | None, int]:
        """The curve-checks claims, in the order that stage prints them."""
        third = Fraction(1, 3)
        node_q = bool(verify_node(cubic_pencil(third), (Fraction(2, 5), Fraction(1, 5))))
        direct = cubic_pencil(EPS * third)
        node_eps = bool(verify_node(direct, (Fraction(2, 5) * EPS, Fraction(1, 5) * EPS ** -1)))
        swapped = {"x": Fraction(2, 5) * EPS ** -1, "y": Fraction(1, 5) * EPS}
        on_conjugate = not cubic_pencil(EPS ** -1 * third).evaluate(swapped)
        on_direct = not direct.evaluate(swapped)
        node_origin = bool(verify_node(nodal_cubic(), (0, 0)))
        elimination = singular_parameters()
        b = dict(zip(elimination.variables, poly_ring(elimination.variables)))["b"]
        divisible = divides(27 * b**3 - 1, elimination)
        torus = verify_torus_structure()
        multiplicity = intersection_multiplicity_origin(*chart_cubic_factors())
        return node_q, node_eps, on_conjugate, on_direct, node_origin, divisible, torus, multiplicity

    @cached_property
    def expected(self) -> dict[str, str]:
        return expected_stage_texts()

    def stage(self, name: str) -> StageResult:
        """Stage ``name`` against its expected text.

        A spent budget is recorded as its message with ``exhausted`` set,
        any other exception as ``error: <Type>: <msg>``.
        """
        try:
            computed = _RENDER[name](self)
        except BudgetExhausted as exc:
            return StageResult(name, self.expected[name], str(exc), exhausted=True)
        except Exception as exc:
            computed = f"error: {type(exc).__name__}: {exc}"
        return StageResult(name, self.expected[name], computed)


def _render_commutant(r: Replay) -> str:
    commutator, report, order = r.commutant
    return "\n".join(
        [
            f"commutator [p^-1, g+^-1]: {commutator}",
            f"generator: {report.generator}",
            f"order: {report.order}",
            f"central: {_yes(report.central)}",
            f"quotient with g+^3 = 1: order {order}",
        ]
    )


def _render_curves(r: Replay) -> str:
    node_q, node_eps, on_conjugate, on_direct, node_origin, divisible, torus, multiplicity = r.curves
    return "\n".join(
        [
            f"node of f_b, b = 1/3, at (2/5, 1/5): {_yes(node_q)}",
            f"node of f_b, b = eps/3, at ((2/5) eps, (1/5) eps^-1): {_yes(node_eps)}",
            "point ((2/5) eps^-1, (1/5) eps): "
            f"on f at b = eps^-1/3 {_yes(on_conjugate)}, on f at b = eps/3 {_yes(on_direct)}",
            f"node of f_0 at (0, 0): {_yes(node_origin)}",
            f"singular parameters divisible by 27 b^3 - 1: {_yes(divisible)}",
            f"torus identity constant: {'none' if torus is None else torus}",
            f"chart intersection multiplicity at origin: {multiplicity}",
        ]
    )


# stage name -> rendering of the replay's properties, in report order
_RENDER: dict[str, Callable[[Replay], str]] = {
    "braid-actions": lambda r: "\n".join(f"{name}: {a}" for name, a in r.actions.items()),
    "cover-lifts": lambda r: "\n".join(f"{name}~: {f}" for name, f in r.lifts.items()),
    "zvk-presentation": lambda r: (
        f"raw: {format_presentation(r.assembled)}\nsimplified: {format_presentation(r.simplified)}"
    ),
    "patch-sweep": lambda r: f"patched: {format_presentation(r.patched)}",
    "commutant": _render_commutant,
    "abelian-invariants": lambda r: f"patched group: {r.abelian[0]}\nbraid quotient: {r.abelian[1]}",
    "alexander-polynomials": lambda r: (
        f"braid quotient, s1 = s2 = t: {r.alexander[0]}\ncyclic group <a | a^6>: {r.alexander[1]}"
    ),
    "curve-checks": _render_curves,
}
STAGE_NAMES = tuple(_RENDER)


def reproduce_paper(k: int | None = None, max_cosets: int = 10_000) -> PipelineReport:
    """Run every stage of one fresh ``Replay`` (same arguments) and diff it against its expected text."""
    replay = Replay(k, max_cosets)
    return PipelineReport(tuple(replay.stage(name) for name in STAGE_NAMES))

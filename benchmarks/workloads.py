"""Seeded inputs for the three workloads, and the operations run on them.

An input is a plain JSON-able dict (``spec``) made by ``make_specs`` from
the seed alone, with the standard library only, so ``run.py
--dump-inputs`` prints any input list without importing ``vankampen``.
``bind`` turns a spec into an ``Op``: a zero-argument call into the
library's public functions plus a check of its output against
``reference``.  ``leave_out_known_fault`` drops the SNF inputs that hit
the one library fault kept out of the workloads.

Sizes are fixed per workload and the seed varies contents (braid
letters, matrix entries, coefficients, relator rotations) and the order
of operations in a round, so the cost of a round barely depends on the
seed.  Braids are chosen by the total length of the images of their
action and inverse action, not by braid length, because ``braid_action``
costs about the square of that length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref

WORKLOADS = ("paper-replay", "group-scaling", "elimination-scaling")

# HLT on the metacyclic family defines about 21 n^2 cosets at n = 29.
COSET_BUDGET = 100_000

# About 1 random SNF matrix in 180 makes smith_normal_form end with a
# negative invariant factor, which its certificate rejects with this
# message.  Such inputs are left out, at most MAX_LEFT_OUT per round: two
# of twelve happen by chance about once in 500 seeds, and more than that
# means something else broke, so then none is left out and all fail.
KNOWN_SNF_FAULT = "SNF certificate failed: divisibility chain broken"
MAX_LEFT_OUT = 2

# (kind, size parameters, count per round); tiny sizes are for the tests.
# Braid costs vary most with the seed; twelve SNF calls, whose cost hardly
# does, sit at the middle of a round's sorted operation times, which keeps
# op_p50_ms steady from seed to seed.
GROUP_SIZES = {
    "full": [
        ("braid", {"lo": 560, "hi": 640}, 6),
        ("tietze-power", {"n": 240}, 1),
        ("tietze-power", {"n": 300}, 1),
        ("tietze-syllables", {"syllables": 16, "lo": 60_000, "hi": 70_000}, 2),
        ("coset", {"n": 19}, 1),
        ("coset", {"n": 23}, 1),
        ("coset", {"n": 29}, 1),
        ("snf", {"k": 24}, 12),
        ("alexander", {"n": 5, "m": 6}, 1),
        ("alexander", {"n": 5, "m": 7}, 1),
        ("alexander", {"n": 5, "m": 8}, 1),
        ("alexander", {"n": 6, "m": 7}, 1),
    ],
    "tiny": [
        ("braid", {"lo": 30, "hi": 60}, 1),
        ("tietze-power", {"n": 12}, 1),
        ("tietze-syllables", {"syllables": 4, "lo": 100, "hi": 5_000}, 1),
        ("coset", {"n": 5}, 1),
        ("snf", {"k": 4}, 1),
        ("alexander", {"n": 3, "m": 4}, 1),
    ],
}

# (field, deg_x f, deg_x g, deg_y) rising in degree.
ELIMINATION_SIZES = {
    "full": [
        ("Q", 2, 2, 2), ("Q", 3, 2, 2), ("Q", 3, 3, 2), ("Q", 4, 3, 2), ("Q", 3, 3, 3),
        ("Q(eps)", 2, 2, 2), ("Q(eps)", 3, 2, 2), ("Q(eps)", 3, 3, 2), ("Q(eps)", 2, 2, 3),
    ],
    "tiny": [("Q", 2, 1, 1), ("Q(eps)", 2, 1, 1)],
}


# ---------------------------------------------------------------------------
# input generation (standard library only)


def _substitute(images: dict[str, list[ref.Letter]], word: list[ref.Letter]) -> list[ref.Letter]:
    out: list[ref.Letter] = []
    for g, e in word:
        out.extend(images[g] if e == 1 else ref.invert(images[g]))
    return ref.free_reduce(out)


def _grow_braid(rng: random.Random, lo: int, hi: int) -> list[tuple[int, int]]:
    """A random 3-strand braid word whose action and inverse action's images
    total lo..hi letters; that total predicts ``braid_action``'s cost."""
    while True:
        braid: list[tuple[int, int]] = []
        forward = backward = ref.artin_images(3, [])
        size = 6
        while size < lo:
            letter = (rng.randint(1, 2), rng.choice((1, -1)))
            braid.append(letter)
            # action(w s) = action(w) o s and action(s^-1 w^-1) = s^-1 o action(w^-1);
            # updated letter by letter, since recomputing both from the whole
            # braid after each letter took 0.3 s of set-up
            step, back_step = ref.artin_images(3, [letter]), ref.artin_images(3, [(letter[0], -letter[1])])
            forward = {g: _substitute(forward, w) for g, w in step.items()}
            backward = {g: _substitute(back_step, w) for g, w in backward.items()}
            size = sum(map(len, forward.values())) + sum(map(len, backward.values()))
        if size <= hi:
            return braid


def _random_word(rng: random.Random, gens: list[str], syllables: int) -> list[ref.Letter]:
    out: list[ref.Letter] = []
    prev = None
    for _ in range(syllables):
        g = rng.choice([x for x in gens if x != prev])
        e = rng.choice((1, -1)) * rng.randint(1, 3)
        out.extend([(g, 1 if e > 0 else -1)] * abs(e))
        prev = g
    return out


def _tietze_power(rng: random.Random, n: int) -> str:
    """p^n and a rotated, possibly inverted commutator of p and q."""
    comm = [("q", 1), ("p", 1), ("q", -1), ("p", -1)]
    r = rng.randrange(4)
    comm = comm[r:] + comm[:r]
    if rng.random() < 0.5:
        comm = ref.invert(comm)
    return f"gens: p, q; rels: p^{n}, {ref.word_text(comm)}"


def _cyclic_reduce(word: list[ref.Letter]) -> list[ref.Letter]:
    while len(word) >= 2 and word[0] == (word[-1][0], -word[-1][1]):
        word = word[1:-1]
    return word


def _tietze_syllables(rng: random.Random, syllables: int, lo: int, hi: int) -> str:
    """c defined by a single occurrence, then two relators of ``syllables``
    syllables in a, b, c.

    Eliminating c leaves two relators in a, b; the sum of their squared
    lengths after substitution, which sets the cost, lies in lo..hi.
    Both a and b occur more than once in each, so nothing else is
    eliminated.
    """
    while True:
        c_image = _random_word(rng, ["a", "b"], 6)
        long_rels = [_random_word(rng, ["a", "b", "c"], syllables) for _ in range(2)]
        images = {"a": [("a", 1)], "b": [("b", 1)], "c": c_image}
        reduced = [_cyclic_reduce(_substitute(images, r)) for r in long_rels]
        size = sum(len(r) ** 2 for r in reduced)
        once = any([g for g, _ in r].count(x) < 2 for r in long_rels + reduced for x in "ab")
        if lo <= size <= hi and not once:
            rels = [[("c", -1)] + c_image] + long_rels
            return ref.presentation_text(["a", "b", "c"], [ref.free_reduce(r) for r in rels])


def _torus_closure(n: int, m: int, rotation: int) -> str:
    """Artin presentation of the closure of a rotation of (s1 ... s(n-1))^m."""
    braid = [(i, 1) for i in range(1, n)] * m
    braid = braid[rotation:] + braid[:rotation]
    images = ref.artin_images(n, braid)
    rels = [ref.free_reduce(images[g] + [(g, -1)]) for g in ref.fiber_names(n)]
    return ref.presentation_text(ref.fiber_names(n), rels)


def _coefficient(rng: random.Random, eps: bool) -> Any:
    def rational() -> str:
        return str(Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.choice((1, 1, 2))))

    return [rational(), rational()] if eps else rational()


def _dense_poly(rng: random.Random, dx: int, dy: int, eps: bool) -> list[list]:
    """Every term x^i y^j, i <= dx, j <= dy, with a nonzero coefficient."""
    return [[i, j, _coefficient(rng, eps)] for i in range(dx + 1) for j in range(dy + 1)]


def make_specs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's input list for one round, in the order it runs."""
    rng = random.Random(f"{workload}/{seed}")
    size = "tiny" if tiny else "full"
    specs: list[dict] = []
    if workload == "paper-replay":
        specs.append({"kind": "replay"})
    elif workload == "group-scaling":
        for kind, params, count in GROUP_SIZES[size]:
            for _ in range(count):
                spec = {"kind": kind, **params}
                if kind == "braid":
                    spec["braid"] = _grow_braid(rng, params["lo"], params["hi"])
                elif kind == "tietze-power":
                    spec["presentation"] = _tietze_power(rng, params["n"])
                elif kind == "tietze-syllables":
                    spec["presentation"] = _tietze_syllables(rng, params["syllables"], params["lo"], params["hi"])
                elif kind == "snf":
                    spec["rows"] = [[rng.randint(-9, 9) for _ in range(params["k"])] for _ in range(params["k"])]
                elif kind == "alexander":
                    spec["rotation"] = rng.randrange(params["n"] - 1)
                    spec["presentation"] = _torus_closure(params["n"], params["m"], spec["rotation"])
                specs.append(spec)
    elif workload == "elimination-scaling":
        for field, df, dg, dy in ELIMINATION_SIZES[size]:
            eps = field == "Q(eps)"
            specs.append({
                "kind": "resultant", "field": field,
                "f": _dense_poly(rng, df, dy, eps), "g": _dense_poly(rng, dg, dy, eps),
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# binding specs to library calls and checks


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _letters(word) -> list[ref.Letter]:
    return list(word.letters())


def _endo_plain(endo) -> dict[str, list[ref.Letter]]:
    return {g: _letters(w) for g, w in endo.images.items()}


def _presentation_plain(P) -> tuple[list[str], list[list[ref.Letter]]]:
    return list(P.generators), [_letters(r) for r in P.relators]


def _poly_terms(spec_terms: list[list], eps: bool) -> dict[tuple[int, int], Any]:
    if eps:
        return {(i, j): (Fraction(c[0]), Fraction(c[1])) for i, j, c in spec_terms}
    return {(i, j): Fraction(c) for i, j, c in spec_terms}


def _poly_plain(poly) -> dict[tuple[int, int], Any]:
    """Terms of a MultiPoly in (x, y), Q(eps) coefficients as pairs."""
    if poly.variables != ("x", "y"):
        raise ref.CheckFailed(f"resultant lives in {poly.variables}, not in (x, y)")
    return {e: (c.a, c.b) if hasattr(c, "a") else c for e, c in poly.terms.items()}


def plain_output(spec: dict, out: Any) -> Any:
    """Library output -> the plain data the reference checks compare."""
    kind = spec["kind"]
    if kind == "replay":
        return out.overall, {s.name: s.computed for s in out.stages}
    if kind == "braid":
        action, lift = out
        if action.inverse is None:
            raise ref.CheckFailed("braid action carries no verified inverse")
        return _endo_plain(action), _endo_plain(action.inverse), _endo_plain(lift)
    if kind in ("tietze-power", "tietze-syllables"):
        return _presentation_plain(out)
    if kind == "coset":
        if not hasattr(out, "rows"):
            raise ref.CheckFailed(f"enumeration overflowed: {out}")
        return list(out.generators), [list(r) for r in out.rows]
    if kind == "snf":
        return out[0].rows()
    if kind == "alexander":
        return dict(out.coeffs)
    if kind == "resultant":
        return _poly_plain(out)
    raise ValueError(f"unknown kind {kind!r}")


def check_plain(spec: dict, plain: Any) -> None:
    """Raise ``reference.CheckFailed`` unless ``plain`` is a right answer."""
    kind = spec["kind"]
    if kind == "replay":
        ref.check_paper_replay(*plain)
    elif kind == "braid":
        images, inverse_images, lift = plain
        braid = [tuple(l) for l in spec["braid"]]
        ref.check_braid_action(3, braid, images)
        ref.check_braid_action(3, [(i, -s) for i, s in reversed(braid)], inverse_images)
        ref.check_lift(braid, lift)
    elif kind == "tietze-power":
        ref.check_same_abelianization(ref.parse_presentation(spec["presentation"]), plain)
        torsion, free_rank = ref.abelian_invariants(*plain)
        ref.require((torsion, free_rank) == ((spec["n"],), 1), "Z/n + Z expected")
    elif kind == "tietze-syllables":
        ref.check_same_abelianization(ref.parse_presentation(spec["presentation"]), plain)
    elif kind == "coset":
        ref.check_coset_table(spec["n"], *plain)
    elif kind == "snf":
        ref.check_smith_form(spec["rows"], plain)
    elif kind == "alexander":
        ref.check_alexander(spec["n"], spec["m"], plain)
    elif kind == "resultant":
        eps = spec["field"] == "Q(eps)"
        ref.check_resultant(eps, _poly_terms(spec["f"], eps), _poly_terms(spec["g"], eps), plain)
    else:
        raise ValueError(f"unknown kind {kind!r}")


def _call(spec: dict) -> Callable[[], Any]:
    """Build the library inputs for ``spec`` and return the timed call."""
    from vankampen import abelian, alexander, coset, cover, curves, pipeline, presentation, words

    kind = spec["kind"]
    if kind == "replay":
        return lambda: pipeline.reproduce_paper()
    if kind == "braid":
        braid = words.BraidWord(3, tuple(tuple(l) for l in spec["braid"]))

        def braid_and_lift():
            action = words.braid_action(braid)
            return action, cover.lift_monodromy(action)

        return braid_and_lift
    if kind in ("tietze-power", "tietze-syllables"):
        P = presentation.parse_presentation(spec["presentation"])
        return lambda: presentation.tietze_simplify(P)
    if kind == "coset":
        n = spec["n"]
        P = presentation.parse_presentation(f"gens: p, c; rels: p^{n}, c^{n - 1}, c^-1 p c p^-2")
        return lambda: coset.enumerate_cosets(P, (), max_cosets=COSET_BUDGET)
    if kind == "snf":
        M = abelian.IntMatrix.from_rows(spec["rows"])
        return lambda: abelian.smith_normal_form(M)
    if kind == "alexander":
        P = presentation.parse_presentation(spec["presentation"])
        wp = alexander.WeightedPresentation(P, {g: 1 for g in P.generators})
        return lambda: alexander.alexander_polynomial(wp)
    if kind == "resultant":
        eps = spec["field"] == "Q(eps)"
        field = curves.FIELD_QEPS if eps else curves.FIELD_Q

        def poly(terms):
            coeffs = _poly_terms(terms, eps)
            if eps:
                coeffs = {e: curves.QEps(*c) for e, c in coeffs.items()}
            return curves.MultiPoly(("x", "y"), coeffs, field)

        f, g = poly(spec["f"]), poly(spec["g"])
        return lambda: curves.resultant(f, g, "x")
    raise ValueError(f"unknown kind {kind!r}")


def bind(spec: dict) -> Op:
    """An ``Op`` whose check fully verifies each new output.

    Outputs are deterministic, so an output equal to one already verified
    for this input in this process is accepted by comparison; any other
    output is verified afresh against the reference.
    """
    verified: list[Any] = []

    def check(out: Any) -> None:
        plain = plain_output(spec, out)
        if plain not in verified:
            check_plain(spec, plain)
            verified.append(plain)

    return Op(spec["kind"], _call(spec), check)


def _hits_known_fault(op: Op) -> bool:
    try:
        op.run()
    except Exception as exc:
        return isinstance(exc, RuntimeError) and str(exc) == KNOWN_SNF_FAULT
    return False


def leave_out_known_fault(ops: list[Op]) -> tuple[list[Op], int]:
    """``ops`` without the SNF inputs that hit ``KNOWN_SNF_FAULT``, and how
    many were left out.

    Each SNF input runs once, untimed.  Any other error keeps the input in,
    so that it fails in the timed rounds; so does a fault on more than
    ``MAX_LEFT_OUT`` inputs.
    """
    faulty = [op.kind == "snf" and _hits_known_fault(op) for op in ops]
    if sum(faulty) > MAX_LEFT_OUT:
        return ops, 0
    return [op for op, bad in zip(ops, faulty) if not bad], sum(faulty)

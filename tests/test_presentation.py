"""Presentations: assembly, canonical simplification, patching, metacyclic forms."""

import ast
import random
from pathlib import Path

import pytest

from vankampen import presentation
from vankampen.abelian import abelian_invariants
from vankampen.errors import InternalCheckError, ParseError
from vankampen.pipeline import Replay, reproduce_paper
from vankampen.presentation import (
    CommutantReport,
    MetacyclicForm,
    Presentation,
    canonicalize,
    commutant_report,
    format_presentation,
    metacyclic_instances,
    metacyclic_normal_form,
    parse_presentation,
    patch_fiber,
    tietze_simplify,
    zvk_assemble,
)
from vankampen.words import FreeEndo, Word, parse_word

RAW_G1 = (
    "gens: p, q, g+, g-; rels: q, g+^-1 p g+ p^-3 q^-1 p^-1, "
    "g+^-1 q g+ p q p^4 q p^4, "
    "g-^-1 p g- p^-1 q^-1 p^-2 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1, "
    "g-^-1 q g- p q p q p^2 q p^2 q p^2 q p"
)
EQ_G1 = "gens: p, g+, g-; rels: p^4 g+^-1 p^-1 g+, p^9, p^7 g-^-1 p^-1 g-"
LEMMA = "gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9"


def standard_lifts():
    from vankampen.cover import lift_monodromy
    from vankampen.words import braid_action, parse_braid

    texts = {"m1": "s2", "m+": "s1^-3 s2 s1^3", "m-": "s1^-1 s2^2 s1 s2^-2 s1"}
    return {k: lift_monodromy(braid_action(parse_braid(v, 3))) for k, v in texts.items()}


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("p", "p"), ())
    with pytest.raises(ValueError):
        Presentation(("p",), (parse_word("q"),))
    pres = Presentation(("p",), (Word(()), parse_word("p^2")))
    assert pres.relators == (parse_word("p^2"),)


def test_parse_format_round_trip():
    for text in (EQ_G1, LEMMA, "gens: a; rels:", "gens: ; rels:", RAW_G1):
        pres = parse_presentation(text)
        assert format_presentation(pres) == text
        assert parse_presentation(format_presentation(pres)) == pres


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_presentation("rels: p")
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: p; rels: p^0")
    assert err.value.column == 16
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: p; rels: q")
    assert err.value.column == 16
    with pytest.raises(ParseError) as err:  # a later relator, after blanks
        parse_presentation("gens: p, q; rels: p,  q^0")
    assert err.value.column == 23
    with pytest.raises(ParseError, match="duplicate generator name") as err:
        parse_presentation("  gens: p, q, p; rels: q")
    assert err.value.column == 3


@pytest.mark.parametrize(
    "text, name, column",
    [("gens: p^2, q; rels: q", "p^2", 7), ("gens: a b; rels:", "a b", 7), ("gens: 1, a; rels: a^2", "1", 7),
     ("gens: p, q-, g+ ,  r^-1; rels:", "r^-1", 20), ("gens: a1, 1; rels:", "1", 11)],
)
def test_parse_rejects_names_the_word_grammar_cannot_spell(text, name, column):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.column == column
    assert str(err.value) == f"line 1, column {column}: bad generator name {name!r}"


def cyclic_reduce_by_letters(w):
    """Letter-level reference: strip inverse first/last letters one pair at a time."""
    letters = list(w.letters())
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return Word(letters)


def canonical_relator(w, gens):
    """The canonical form of ``w`` alone in a presentation on ``gens``, whose order it follows.

    The empty word, which a presentation drops, stays empty.
    """
    return next(iter(canonicalize(Presentation(gens, (w,))).relators), Word())


def test_canonical_relator_cancels_and_merges_end_syllables():
    gens = ("p", "q")
    assert canonical_relator(parse_word("p q p^-1"), gens) == parse_word("q")  # ends cancel
    assert canonical_relator(parse_word("p^3 q p^-5"), gens) == parse_word("p^2 q^-1")  # ends merge
    assert canonical_relator(parse_word("p^2 q^3 p q^-3 p^-2"), gens) == parse_word("p")  # two pairs cancel
    assert canonical_relator(parse_word("p q^2 p q^3 p^-1"), gens) == parse_word("p q^5")  # cancel, then merge


def test_canonical_relator_invariance():
    rng = random.Random(31)
    gens = ("p", "q")
    for _ in range(80):
        syll = tuple(
            (rng.choice(("p", "q")), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 6))
        )
        w = cyclic_reduce_by_letters(Word(syll))
        if not w:
            continue
        canon = canonical_relator(w, gens)
        letters = list(w.letters())
        k = rng.randrange(len(letters))
        rotated = Word(tuple(letters[k:] + letters[:k]))
        assert canonical_relator(rotated, gens) == canon
        assert canonical_relator(w.inverse(), gens) == canon


def letter_key(order):
    return lambda letter: (order[letter[0]], 0 if letter[1] > 0 else 1)


def canonical_relator_by_letters(w, order):
    """Letter-level reference: least letter rotation of the word or its inverse."""
    letters = list(cyclic_reduce_by_letters(w).letters())
    key = letter_key(order)
    best = []
    inv = [(g, -e) for g, e in reversed(letters)]
    for seq in (letters, inv):
        for shift in range(len(seq)):
            rot = seq[shift:] + seq[:shift]
            if not best or [key(l) for l in rot] < [key(l) for l in best]:
                best = rot
    return Word(best)


def sort_key_by_letters(w, order):
    """Letter-level reference for the canonical relator order."""
    key = letter_key(order)
    return (w.length, [key(l) for l in w.letters()])


def rand_relator(gens, rng, max_syllables):
    syllables = [(rng.choice(gens), rng.choice([-1, 1]) * rng.randint(1, 4)) for _ in range(rng.randint(0, max_syllables))]
    if syllables and rng.random() < 0.3:
        # a last syllable on the first one's generator: one cyclic run, or a cancellation
        syllables.append((syllables[0][0], rng.choice([-1, 1]) * rng.randint(1, 4)))
    return Word(syllables)


def test_canonical_forms_match_letter_level_reference():
    rng = random.Random(1010)
    for _ in range(300):
        # generators listed in a random order, so the order is not the alphabet's
        gens = tuple(rng.sample("abcd", rng.randint(1, 4)))
        order = {g: i for i, g in enumerate(gens)}
        words = [rand_relator(gens, rng, 9) for _ in range(rng.randint(1, 8))]
        for w in words:
            assert canonical_relator(w, gens) == canonical_relator_by_letters(w, order)
        expected = sorted(
            {canonical_relator_by_letters(w, order) for w in words} - {Word()},
            key=lambda w: sort_key_by_letters(w, order),
        )
        assert canonicalize(Presentation(gens, tuple(words))).relators == tuple(expected)
    # equal ends fuse into one cyclic run before rotating
    assert canonical_relator(parse_word("b^2 a b^3"), ("a", "b")) == parse_word("a b^5")
    assert canonical_relator(parse_word("b^2 a b^3"), ("b", "a")) == parse_word("b^5 a")


def test_canonical_relator_keeps_a_huge_power_as_one_syllable():
    power = Word((("p", 10**8),))
    assert canonical_relator(power, ("p",)) == power


def test_simplify_never_expands_letters(monkeypatch):
    def refuse(self):
        raise AssertionError("canonical forms expanded a word into letters")

    monkeypatch.setattr(Word, "letters", refuse)
    assert format_presentation(tietze_simplify(parse_presentation(RAW_G1))) == EQ_G1
    family = parse_presentation("gens: p, q; rels: p^300, q p q^-1 p^-1")
    assert format_presentation(tietze_simplify(family)) == "gens: p, q; rels: p q p^-1 q^-1, p^300"


def test_presentation_orders_syllables_not_letters():
    tree = ast.parse(Path(presentation.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_letter_key" not in defined
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "letters"]


def test_canonicalize_idempotent_and_sorted():
    pres = parse_presentation("gens: p, q; rels: q p q^-1 p^-1, p^3, q^-1 p^-1 q p")
    canon = canonicalize(pres)
    assert canonicalize(canon) == canon
    lengths = [r.length for r in canon.relators]
    assert lengths == sorted(lengths)
    # the two commutator spellings collapse to one canonical relator
    assert len(canon.relators) == 2


def count_canonical_work(monkeypatch):
    """Patch ``_canonicalize`` and ``_keys`` to record their work; returns the record.

    ``searched`` counts the relators searched for their least rotation, and
    ``kept`` those passed through as canonical already.
    """
    calls = {"_canonicalize": 0, "searched": 0, "kept": 0, "_keys": 0}
    canon, keys = presentation._canonicalize, presentation._keys

    def counted_canonicalize(generators, relators, kept=()):
        relators, kept = list(relators), list(kept)
        calls["_canonicalize"] += 1
        calls["searched"] += len(relators)
        calls["kept"] += len(kept)
        return canon(generators, relators, kept)

    def counted_keys(syllables, order):
        calls["_keys"] += 1
        return keys(syllables, order)

    monkeypatch.setattr(presentation, "_canonicalize", counted_canonicalize)
    monkeypatch.setattr(presentation, "_keys", counted_keys)
    return calls


def test_canonical_form_work_of_one_replay_is_pinned(monkeypatch):
    # one key list per searched relator and per inverse, one per kept relator; a metacyclic
    # drop and an already canonical input are not canonicalized again
    calls = count_canonical_work(monkeypatch)
    assert reproduce_paper().overall
    assert calls == {"_canonicalize": 11, "searched": 18, "kept": 18, "_keys": 54}


def test_zvk_assembles_displayed_presentation():
    lifts = standard_lifts()
    raw = zvk_assemble(kept=[lifts["m1"]], removed=[("g+", lifts["m+"]), ("g-", lifts["m-"])])
    assert format_presentation(raw) == RAW_G1


def test_zvk_identity_cases():
    ident = FreeEndo(("p", "q"), {"p": Word.gen("p"), "q": Word.gen("q")})
    assert format_presentation(zvk_assemble(kept=[ident], removed=[])) == "gens: p, q; rels:"
    commutators = zvk_assemble(kept=[], removed=[("g", ident)])
    assert format_presentation(commutators) == "gens: p, q, g; rels: g^-1 p g p^-1, g^-1 q g q^-1"
    assert str(abelian_invariants(commutators)) == "Z^3"


def test_zvk_rejects_name_collisions():
    ident = FreeEndo(("p", "q"), {"p": Word.gen("p"), "q": Word.gen("q")})
    with pytest.raises(ValueError):
        zvk_assemble(kept=[], removed=[("p", ident)])
    wrong = FreeEndo(("x", "y"), {"x": Word.gen("x"), "y": Word.gen("y")})
    with pytest.raises(ValueError):
        zvk_assemble(kept=[wrong], removed=[])


def test_simplify_trivial_examples():
    assert format_presentation(
        tietze_simplify(parse_presentation("gens: a, b; rels: b"))
    ) == "gens: a; rels:"
    assert format_presentation(
        tietze_simplify(parse_presentation("gens: a, b; rels: a b^-1, a^3"))
    ) == "gens: a; rels: a^3"


def test_simplify_reaches_displayed_form():
    simplified = tietze_simplify(parse_presentation(RAW_G1))
    assert format_presentation(simplified) == EQ_G1
    assert tietze_simplify(simplified) == simplified


def test_simplify_deterministic():
    pres = parse_presentation(RAW_G1)
    assert tietze_simplify(pres) == tietze_simplify(parse_presentation(RAW_G1))


def selection_rule(P):
    """Havas et al.'s choice, read off P: the first relator in which some generator occurs as
    exactly one letter, and the last such generator in generator order; None if no relator has one."""
    for r in P.relators:
        once = [g for g in P.generators if sum(abs(e) for h, e in r.syllables if h == g) == 1]
        if once:
            return r, once[-1]
    return None


def test_simplify_eliminates_by_the_selection_rule(monkeypatch):
    records = []
    eliminate = presentation._eliminate

    def recording(P, relator, name):
        records.append((P, relator, name))
        return eliminate(P, relator, name)

    monkeypatch.setattr(presentation, "_eliminate", recording)
    rng = random.Random("presentation/selection")
    gens = ("a", "b", "c", "d")
    inputs = [Replay().assembled]
    for _ in range(200):
        relators = (Word((rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 5)))
        inputs.append(Presentation(gens, tuple(relators)))
    eliminations = []
    for pres in inputs:
        del records[:]
        simplified = tietze_simplify(pres)
        for P, relator, name in records:
            assert any(r is relator for r in P.relators)
            assert selection_rule(P) == (relator, name)
        assert selection_rule(simplified) is None
        eliminations.append(len(records))
    assert eliminations[0] == 1 and sum(eliminations) == 297


def test_simplify_preserves_abelian_invariants():
    rng = random.Random(77)
    gens = ("a", "b", "c")
    for _ in range(25):
        relators = []
        for _ in range(rng.randint(1, 4)):
            syll = tuple(
                (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(1, 5))
            )
            relators.append(Word(syll))
        pres = Presentation(gens, tuple(relators))
        simplified = tietze_simplify(pres)
        assert abelian_invariants(simplified) == abelian_invariants(pres)


def test_patch_sweep_is_k_independent():
    eq = parse_presentation(EQ_G1)
    assert format_presentation(patch_fiber(eq, "g+", "g-", range(9))) == LEMMA


def test_patch_sweep_simplifies_each_distinct_elimination_once(monkeypatch):
    # p^k cancels inside p^7 g-^-1 p^-1 g-, so all nine eliminations are one presentation
    calls = {"_eliminate": 0, "tietze_simplify": 0}
    eliminate, simplify = presentation._eliminate, presentation.tietze_simplify

    def counted_eliminate(P, relator, name):
        calls["_eliminate"] += 1
        return eliminate(P, relator, name)

    def counted_simplify(P):
        calls["tietze_simplify"] += 1
        return simplify(P)

    monkeypatch.setattr(presentation, "_eliminate", counted_eliminate)
    monkeypatch.setattr(presentation, "tietze_simplify", counted_simplify)
    assert format_presentation(patch_fiber(parse_presentation(EQ_G1), "g+", "g-", range(9))) == LEMMA
    assert calls == {"_eliminate": 9, "tietze_simplify": 1}


def test_patch_sweep_disagreement_is_an_internal_error():
    # g- = p^k g+^-1 turns g-^2 into a different relator for each k
    pres = parse_presentation("gens: p, g+, g-; rels: g-^2")
    with pytest.raises(InternalCheckError) as info:
        patch_fiber(pres, "g+", "g-", range(3))
    assert str(info.value) == (
        "patch results disagree across k: ['gens: p, g+; rels: g+^2', "
        "'gens: p, g+; rels: p g+^-1 p g+^-1', 'gens: p, g+; rels: p^2 g+^-1 p^2 g+^-1']"
    )


def test_patch_trivial_example():
    pres = Presentation(("p", "a", "b"), ())
    assert format_presentation(patch_fiber(pres, "a", "b", (0,))) == "gens: p, a; rels:"


def test_patch_rejects_unknown_symbols():
    eq = parse_presentation(EQ_G1)
    with pytest.raises(ValueError):
        patch_fiber(eq, "g+", "nope", (0,))
    with pytest.raises(ValueError):
        patch_fiber(eq, "nope", "g-", (0,))


def test_patch_rejects_an_empty_sweep():
    with pytest.raises(ValueError, match="empty sweep"):
        patch_fiber(parse_presentation(EQ_G1), "g+", "g-", ())


def test_patch_consistency_seven_is_inverse_of_four():
    # the two conjugation exponents in the three-generator form agree:
    # gamma- acts by 7 and 7 * 4 = 28 = 1 mod 9
    assert 7 * 4 % 9 == 1
    assert pow(4, -1, 9) == 7


def test_metacyclic_form_validation():
    with pytest.raises(ValueError):
        MetacyclicForm(9, 3)  # gcd(3,9) != 1
    form = MetacyclicForm(9, 13)
    assert form.s == 4


def test_metacyclic_normal_form_examples():
    form = MetacyclicForm(9, 4)
    assert metacyclic_normal_form(form, parse_word("g+^-1 p g+")) == (4, 0)
    assert metacyclic_normal_form(form, parse_word("p^9")) == (0, 0)
    assert metacyclic_normal_form(form, parse_word("p^-1 g+^-1 p g+")) == (3, 0)


def test_metacyclic_normal_form_is_multiplicative():
    rng = random.Random(13)
    form = MetacyclicForm(9, 4)

    def nf_mul(x, y):
        # group law of Z_9 semidirect Z with gamma acting by 4
        a1, b1 = x
        a2, b2 = y
        return ((a1 + a2 * pow(4, -b1, 9)) % 9, b1 + b2)

    for _ in range(60):
        syll_u = tuple(
            (rng.choice(("p", "g+")), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 5))
        )
        syll_v = tuple(
            (rng.choice(("p", "g+")), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 5))
        )
        u, v = Word(syll_u), Word(syll_v)
        assert metacyclic_normal_form(form, u * v) == nf_mul(
            metacyclic_normal_form(form, u), metacyclic_normal_form(form, v)
        )


def test_metacyclic_normal_form_rejects_foreign_generator():
    with pytest.raises(ValueError):
        metacyclic_normal_form(MetacyclicForm(9, 4), parse_word("x"))


@pytest.mark.parametrize(
    "text, forms",
    [
        # u = -1, |v| > 1: the lemma's relator, read as g+^-1 p^-1 g+ p^4
        (LEMMA, [MetacyclicForm(9, 4)]),
        # u = 1, |v| > 1
        ("gens: x, y; rels: x^9, y^-1 x y x^-4", [MetacyclicForm(9, 4, "x", "y")]),
        # v = -1, |u| > 1 with u invertible: y^-1 x^2 y = x, so s = 2^-1 = 4 mod 7
        ("gens: x, y; rels: x^7, y^-1 x^2 y x^-1", [MetacyclicForm(7, 4, "x", "y")]),
        # the same relator written from another rotation
        ("gens: x, y; rels: x^7, y x^-1 y^-1 x^2", [MetacyclicForm(7, 4, "x", "y")]),
        # v = -1 with u = 3 not invertible mod 9
        ("gens: x, y; rels: x^9, y^-1 x^3 y x^-1", []),
        # u = 1 but s = 3 is not invertible mod 9
        ("gens: x, y; rels: x^9, y^-1 x y x^-3", []),
        # neither u nor v is +-1
        ("gens: x, y; rels: x^9, y^-1 x^2 y x^-4", []),
    ],
)
def test_metacyclic_instances_recognize_one_rotation(text, forms):
    assert [f for _, _, f in metacyclic_instances(parse_presentation(text))] == forms


def test_p_cubed_quotient_is_abelian():
    lemma = parse_presentation(LEMMA)
    quotient = Presentation(lemma.generators, lemma.relators + (parse_word("p^3"),))
    simplified = tietze_simplify(quotient)
    assert format_presentation(simplified) == "gens: p, g+; rels: p^3, p^4 g+^-1 p^-1 g+"
    # the surviving conjugation acts trivially mod 3, so the commutator dies
    assert metacyclic_normal_form(MetacyclicForm(3, 1), parse_word("p^-1 g+^-1 p g+")) == (0, 0)
    assert str(abelian_invariants(simplified)) == "Z/3 + Z^1"


def test_commutant_report_examples():
    report = commutant_report(MetacyclicForm(9, 4))
    assert report == CommutantReport(parse_word("p^3"), 3, True)
    assert commutant_report(MetacyclicForm(9, 1)) == CommutantReport(Word(()), 1, True)
    assert commutant_report(MetacyclicForm(9, 7)) == CommutantReport(parse_word("p^3"), 3, True)


def test_commutant_report_uses_the_form_generator_names():
    report = commutant_report(MetacyclicForm(9, 4, "x", "y"))
    assert report.generator == parse_word("x^3")
    assert (report.order, report.central) == (3, True)


def test_commutant_report_non_central_case():
    report = commutant_report(MetacyclicForm(8, 3))
    assert str(report.generator) == "p^2"
    assert report.order == 4
    assert not report.central


def test_commutant_report_matches_the_oracle(metacyclic_group):
    # <p, g+ | p^n, g+^-1 p g+ p^-s> mod g+^m is the oracle's group, where
    # b a b^-1 = a^t for (a, b) = (p, g+) and t = s^-1 mod n
    for n, s in [(9, 4), (9, 7), (9, 1), (8, 3), (7, 3), (12, 5)]:
        report = commutant_report(MetacyclicForm(n, s))
        _, mul, elements = metacyclic_group(n, pow(s, -1, n))
        inverse = {x: y for x in elements for y in elements if mul(x, y) == (0, 0)}
        commutators = {mul(mul(inverse[x], inverse[y]), mul(x, y)) for x in elements for y in elements}
        subgroup, grown = set(), {(0, 0)}
        while grown != subgroup:
            subgroup, grown = grown, grown | {mul(x, c) for x in grown for c in commutators}
        assert report.generator.generators() <= {"p"}
        g = (report.generator.exponent_sum("p") % n, 0)
        powers = [g]
        while powers[-1] != (0, 0):
            powers.append(mul(powers[-1], g))
        assert set(powers) == subgroup and len(powers) == report.order
        assert report.central == all(mul(g, x) == mul(x, g) for x in elements)


def test_commutant_certificate_rejects_a_wrong_group_law(monkeypatch):
    law = presentation.metacyclic_normal_form

    def ignoring_s(form, w):
        return law(MetacyclicForm(form.n, 1, form.p, form.c), w)

    monkeypatch.setattr(presentation, "metacyclic_normal_form", ignoring_s)
    with pytest.raises(InternalCheckError):
        commutant_report(MetacyclicForm(9, 4))
    computed = Replay(k=0).stage("commutant").computed
    assert computed.startswith("error: InternalCheckError: internal certification failed")

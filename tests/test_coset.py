"""Coset enumeration: indices, quotient orders, overflow, brute-force cross-checks."""

import math
import random
import re

import pytest

from vankampen import coset
from vankampen.coset import CosetTable, enumerate_cosets, quotient_order
from vankampen.errors import BudgetExhausted, InternalCheckError
from vankampen.presentation import parse_presentation
from vankampen.words import Word, parse_word

LEMMA = "gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9"


def test_index_of_cyclic_subgroup_in_lemma_group():
    pres = parse_presentation(LEMMA)
    table = enumerate_cosets(pres, subgroup=(parse_word("g+"),))
    assert isinstance(table, CosetTable)
    assert table.count == 9


def test_symmetric_group_order_six():
    pres = parse_presentation("gens: a, b; rels: a^2, b^2, a b a b a b")
    assert quotient_order(pres) == 6


def test_lemma_group_is_infinite_within_budget():
    pres = parse_presentation(LEMMA)
    with pytest.raises(BudgetExhausted, match=r"^overflow: budget of 500 cosets exhausted$"):
        enumerate_cosets(pres, max_cosets=500)


def test_quotient_orders_with_extra_relators():
    pres = parse_presentation(LEMMA)
    cubed = (parse_word("g+^3"),)
    assert quotient_order(pres, extra_relators=cubed) == 27
    # killing g+ turns the conjugation relator into p^3, leaving Z/3
    assert quotient_order(pres, extra_relators=(parse_word("g+"),)) == 3
    assert quotient_order(pres, extra_relators=(parse_word("g+"), parse_word("p"))) == 1


def test_trivial_and_cyclic_quotients():
    assert quotient_order(parse_presentation("gens: a; rels: a")) == 1
    assert quotient_order(parse_presentation("gens: a; rels: a^12")) == 12


def trace(table, coset, w):
    """The coset reached from ``coset`` by following ``w`` letter by letter."""
    col = {g: 2 * i for i, g in enumerate(table.generators)}
    for g, e in w.letters():
        coset = table.rows[coset][col[g] + (0 if e > 0 else 1)]
    return coset


def test_table_action_respects_relators_and_subgroup():
    pres = parse_presentation(LEMMA)
    sub = (parse_word("g+"),)
    table = enumerate_cosets(pres, subgroup=sub)
    for w in sub:
        assert trace(table, 0, w) == 0
    for c in range(table.count):
        for r in pres.relators:
            assert trace(table, c, r) == c
        for g in pres.generators:
            assert trace(table, trace(table, c, Word.gen(g)), Word.gen(g, -1)) == c


def test_enumeration_is_deterministic():
    pres = parse_presentation(LEMMA)
    t1 = enumerate_cosets(pres, subgroup=(parse_word("g+"),))
    t2 = enumerate_cosets(pres, subgroup=(parse_word("g+"),))
    assert (t1.generators, t1.rows) == (t2.generators, t2.rows)


def test_metacyclic_orders_match_brute_force(metacyclic_group):
    rng = random.Random(27)
    cases = [
        (n, s)
        for n in range(2, 13)
        for s in range(2, n)
        if math.gcd(s, n) == 1
    ]
    rng.shuffle(cases)
    for n, s in cases[:8]:
        m, _, elements = metacyclic_group(n, s)
        text = f"gens: a, b; rels: a^{n}, b a b^-1 a^-{s}, b^{m}"
        pres = parse_presentation(text)
        assert quotient_order(pres) == len(elements) == n * m


def test_overflow_propagates_from_quotient_order():
    pres = parse_presentation("gens: a, b; rels:")
    with pytest.raises(BudgetExhausted, match=r"^overflow: budget of 200 cosets exhausted$"):
        quotient_order(pres, max_cosets=200)


def test_verification_rejects_broken_tables(monkeypatch):
    # each closed-table check, fed a table that breaks only it
    cases = [
        ("gens: a; rels: a^3", (), ((1, 2), (2, 2), (0, 1)), "actions are not mutually inverse"),
        ("gens: a; rels: a^3", (), ((1, 1), (0, 0)), "relator a^3 does not fix coset 0"),
        ("gens: a; rels: a^3", ("a",), ((1, 2), (2, 0), (0, 1)), "subgroup word a moves coset 0"),
        # a power taken wrongly passes these: a^6 is a^2 on a 4-cycle, a^-4
        # is a^-1 on a 3-cycle (through the inverse column), and a^4 is a
        ("gens: a; rels: a^6", (), ((1, 3), (2, 0), (3, 1), (0, 2)), "relator a^6 does not fix coset 0"),
        ("gens: a; rels: a^-4", (), ((1, 2), (2, 0), (0, 1)), "relator a^-4 does not fix coset 0"),
        ("gens: a; rels: a^3", ("a^4",), ((1, 2), (2, 0), (0, 1)), "subgroup word a^4 moves coset 0"),
    ]
    for text, subgroup, rows, message in cases:
        monkeypatch.setattr(coset, "_standardize", lambda enum: CosetTable(("a",), rows))
        with pytest.raises(InternalCheckError, match=re.escape(f"verification failed: {message}")):
            enumerate_cosets(parse_presentation(text), tuple(map(parse_word, subgroup)))


def test_power_matches_repeated_composition():
    rng = random.Random(37)
    for _ in range(100):
        perm = list(range(rng.randint(1, 30)))
        rng.shuffle(perm)
        for e in range(1, 71):
            expected = perm
            for _ in range(e - 1):
                expected = [perm[x] for x in expected]
            assert list(coset._power(tuple(perm), e)) == expected


def test_verification_takes_syllable_powers_without_expanding_letters(monkeypatch):
    def expand(w):
        raise AssertionError(f"{w} expanded into letters")

    monkeypatch.setattr(Word, "letters", expand)
    cycle = CosetTable(("a",), tuple(((c + 1) % 8, (c - 1) % 8) for c in range(8)))
    coset._verify(cycle, (Word.gen("a", 1_000_000), Word.gen("a", -1_000_000)), (Word.gen("a", 8_000_000),))
    with pytest.raises(InternalCheckError, match=r"^verification failed: relator a\^999999 does not fix coset 0$"):
        coset._verify(cycle, (Word.gen("a", 999_999),), ())
    with pytest.raises(InternalCheckError, match=r"^verification failed: subgroup word a\^-999999 moves coset 0$"):
        coset._verify(cycle, (), (Word.gen("a", -999_999),))


def metacyclic_family(n):
    """``p^n, c^(n-1), c^-1 p c p^-2``, of order n(n-1) for a prime n."""
    return parse_presentation(f"gens: p, c; rels: p^{n}, c^{n - 1}, c^-1 p c p^-2")


@pytest.mark.parametrize("n, definitions", [(19, 427), (23, 675), (29, 1126), (41, 2487), (53, 4224)])
def test_felsch_defines_few_cosets_beyond_the_index(monkeypatch, n, definitions):
    calls = {"define": 0}
    define = coset._Enumerator.define

    def counted_define(self, alpha, col):
        calls["define"] += 1
        define(self, alpha, col)

    monkeypatch.setattr(coset._Enumerator, "define", counted_define)
    # default budget: n = 53 took about 123 000 definitions under HLT
    table = enumerate_cosets(metacyclic_family(n))
    assert table.count == n * (n - 1)
    # exact, because a deduction lost in a scan or a coincidence still closes
    # a correct table here, only after more definitions
    assert calls["define"] == definitions <= 3 * table.count


def regular_action_rows(n):
    """Standardized right regular action of Z_n x| Z_(n-1), c acting on p by doubling.

    The element c^b p^a is ``(b, a)``; p^a c = c p^(2a) and p^a c^-1 = c^-1 p^(a/2).
    Cosets are numbered breadth-first from the identity, columns in
    the order p, p^-1, c, c^-1.
    """
    half = pow(2, -1, n)

    def images(b, a):
        return (
            (b, (a + 1) % n),
            (b, (a - 1) % n),
            ((b + 1) % (n - 1), 2 * a % n),
            ((b - 1) % (n - 1), a * half % n),
        )

    number = {(0, 0): 0}
    order = [(0, 0)]
    for element in order:
        for image in images(*element):
            if image not in number:
                number[image] = len(order)
                order.append(image)
    return tuple(tuple(number[image] for image in images(*element)) for element in order)


@pytest.mark.parametrize("n", [5, 7, 11, 13, 19])
def test_metacyclic_table_equals_the_regular_action(n, metacyclic_group):
    # 2 is a primitive root mod 5, 11, 13 and 19 but has order 3 mod 7
    assert metacyclic_group(7, 2)[0] == 3
    assert enumerate_cosets(metacyclic_family(n)).rows == regular_action_rows(n)

"""Laurent polynomials, Fox derivatives, Alexander polynomials."""

import random
from collections import Counter
from itertools import combinations
from types import MappingProxyType

import pytest

from vankampen import alexander
from vankampen.alexander import (
    LaurentPoly,
    WeightedPresentation,
    alexander_matrix,
    alexander_polynomial,
    fox_derivative,
    laurent_gcd,
)
from vankampen.errors import InternalCheckError
from vankampen.presentation import Presentation, parse_presentation
from vankampen.words import Word, parse_word

T = LaurentPoly.term(1, 1)
ONE = LaurentPoly.one()

BRAID_QUOTIENT = "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"


def rand_word(rng, gens, length):
    return Word(tuple((rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(length)))


def weight_of(w, weights):
    return sum(e * weights[g] for g, e in w.syllables)


def rotate(w, k):
    letters = [(g, 1 if e > 0 else -1) for g, e in w.syllables for _ in range(abs(e))]
    return Word(tuple(letters[k:] + letters[:k]))


def test_laurent_arithmetic_and_normal_form(laurent_product):
    p = LaurentPoly({2: 1, 0: 3, 5: 0})
    assert p.coeffs == {2: 1, 0: 3}
    assert not p - p
    assert laurent_product(T.shift(1) - T + ONE, T + ONE) == LaurentPoly({3: 1, 0: 1})
    assert LaurentPoly({-3: 2, -1: 4}).shift(3) == LaurentPoly({0: 2, 2: 4})
    assert LaurentPoly({-1: -1, 0: 1}).normalized() == LaurentPoly({1: 1, 0: -1}).normalized()
    assert LaurentPoly({0: -5}).normalized() == LaurentPoly({0: 5})


@pytest.mark.parametrize(
    "coeffs",
    [{1: 2, -1: 3}, MappingProxyType({1: 2, -1: 3}), Counter({1: 2, -1: 3}), [(1, 2), (-1, 1), (-1, 2)]],
)
def test_laurent_accepts_mappings_and_pairs(coeffs):
    assert LaurentPoly(coeffs).coeffs == {1: 2, -1: 3}


def test_laurent_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(ONE) == "1"
    assert str(T.shift(1) - T + ONE) == "t^2 - t + 1"
    assert str(LaurentPoly({-1: 3, 1: -1})) == "-t + 3*t^-1"


def test_laurent_gcd_examples():
    assert laurent_gcd(T.shift(1) - ONE, T.shift(2) - ONE) == LaurentPoly({1: -1, 0: 1})
    assert laurent_gcd(LaurentPoly(), T.shift(1) - ONE) == (T.shift(1) - ONE).normalized()
    assert laurent_gcd(LaurentPoly({1: 2, 0: 2}), LaurentPoly({1: 4, 0: 4})) == LaurentPoly(
        {1: 2, 0: 2}
    )
    assert laurent_gcd(LaurentPoly({0: 6}), LaurentPoly({0: 4})) == LaurentPoly({0: 2})


def test_laurent_gcd_divides_both(laurent_product):
    rng = random.Random(5)
    for _ in range(20):
        a = LaurentPoly({rng.randint(-2, 3): rng.randint(-3, 3) for _ in range(3)})
        b = LaurentPoly({rng.randint(-2, 3): rng.randint(-3, 3) for _ in range(3)})
        m = LaurentPoly({rng.randint(0, 2): rng.randint(1, 2)})
        am, bm = laurent_product(a, m), laurent_product(b, m)
        g = laurent_gcd(am, bm)
        if not am and not bm:
            assert not g
            continue
        # the common factor m must survive into the gcd
        assert g
        assert laurent_gcd(g, m) == m.normalized()


def test_fox_derivative_basics():
    assert fox_derivative(parse_word("a"), "a", {"a": 1}) == ONE
    assert not fox_derivative(parse_word("a"), "b", {"a": 1, "b": 1})
    assert fox_derivative(parse_word("a^-1"), "a", {"a": 2}) == LaurentPoly.term(-1, -2)
    assert fox_derivative(parse_word("a^3"), "a", {"a": 1}) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_fox_product_rule(laurent_product):
    rng = random.Random(31)
    gens = ("a", "b")
    weights = {"a": 1, "b": 2}
    for _ in range(40):
        u = rand_word(rng, gens, rng.randint(1, 4))
        v = rand_word(rng, gens, rng.randint(1, 4))
        shift = LaurentPoly.term(1, weight_of(u, weights))
        for g in gens:
            lhs = fox_derivative(u * v, g, weights)
            rhs = fox_derivative(u, g, weights) + laurent_product(shift, fox_derivative(v, g, weights))
            assert lhs == rhs


def test_fox_fundamental_identity(laurent_product):
    # sum over generators of (dw/dg) * (t^w(g) - 1) telescopes to t^w(w) - 1
    rng = random.Random(77)
    gens = ("a", "b", "c")
    weights = {"a": 1, "b": 3, "c": -2}
    for _ in range(40):
        w = rand_word(rng, gens, rng.randint(1, 6))
        total = LaurentPoly()
        for g in gens:
            total = total + laurent_product(
                fox_derivative(w, g, weights), LaurentPoly.term(1, weights[g]) - ONE
            )
        assert total == LaurentPoly.term(1, weight_of(w, weights)) - ONE


def test_alexander_matrix_golden():
    wp = WeightedPresentation(parse_presentation(BRAID_QUOTIENT), {"s1": 1, "s2": 1})
    m = alexander_matrix(wp)
    texts = [[str(x) for x in row] for row in m]
    assert texts == [
        ["t^2 - t + 1", "-t^2 + t - 1"],
        ["t^4 + t^2 + 1", "t^5 + t^3 + t"],
    ]


def test_alexander_polynomial_of_braid_quotient():
    wp = WeightedPresentation(parse_presentation(BRAID_QUOTIENT), {"s1": 1, "s2": 1})
    assert str(alexander_polynomial(wp)) == "t^2 - t + 1"


def test_alexander_polynomial_of_cyclic_group():
    wp = WeightedPresentation(parse_presentation("gens: a; rels: a^6"), {"a": 1})
    assert alexander_polynomial(wp) == ONE


def test_alexander_invariant_under_relator_rewording():
    base = parse_presentation(BRAID_QUOTIENT)
    wp = WeightedPresentation(base, {"s1": 1, "s2": 1})
    expected = alexander_polynomial(wp)
    r0, r1 = base.relators
    variants = [
        (rotate(r0, 2), r1),
        (r0.inverse(), r1),
        (r0, rotate(r1, 3).inverse()),
    ]
    for a, b in variants:
        alt = Presentation(base.generators, (a, b))
        assert alexander_polynomial(WeightedPresentation(alt, {"s1": 1, "s2": 1})) == expected


def test_weighted_presentation_validation_and_defect():
    pres = parse_presentation("gens: a, b; rels: a b^-1")
    with pytest.raises(ValueError):
        WeightedPresentation(pres, {"a": 1})
    with pytest.raises(ValueError, match="non-generator"):
        WeightedPresentation(pres, {"a": 1, "b": 1, "c": 2})
    balanced = WeightedPresentation(pres, {"a": 2, "b": 2})
    assert balanced.weight_defect() == []
    skewed = WeightedPresentation(pres, {"a": 1, "b": 3})
    assert skewed.weight_defect() == [("a b^-1", -2)]


def test_torus_knot_polynomial_by_bareiss_minors(torus_knot, laurent_product):
    knot = torus_knot(7, 8)
    wp = WeightedPresentation(knot, {g: 1 for g in knot.generators})
    # LaurentPoly has no product, so no minor is a cofactor expansion in it
    assert not hasattr(LaurentPoly, "__mul__")
    delta = alexander_polynomial(wp)

    def binomial(k):
        return LaurentPoly({k: 1, 0: -1})

    # (t^56 - 1)(t - 1) = delta (t^7 - 1)(t^8 - 1)
    assert laurent_product(delta, binomial(7), binomial(8)) == laurent_product(binomial(56), binomial(1))
    assert delta == delta.normalized()


def test_fox_derivative_constructions_do_not_grow_with_exponent(monkeypatch):
    def constructions(e):
        count = 0
        init = LaurentPoly.__init__

        def counted(self, *args, **kwargs):
            nonlocal count
            count += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(LaurentPoly, "__init__", counted)
        d = fox_derivative(parse_word(f"a^{e} b^-1 a^-{e}"), "a", {"a": 1, "b": 2})
        monkeypatch.undo()
        assert d == LaurentPoly({k: 1 for k in range(e)}) - LaurentPoly(
            {e - 2 - k: 1 for k in range(1, e + 1)}
        )
        return count

    assert constructions(10) == constructions(1000)


def count_minors(monkeypatch):
    """Patch ``alexander.zpoly_det`` to record its calls; returns the record."""
    calls = []
    det = alexander.zpoly_det

    def counted(*args):
        calls.append(1)
        return det(*args)

    monkeypatch.setattr(alexander, "zpoly_det", counted)
    return calls


def test_torus_knot_takes_one_column_of_minors(monkeypatch, torus_knot):
    knot = torus_knot(7, 8)
    wp = WeightedPresentation(knot, {g: 1 for g in knot.generators})
    minors = count_minors(monkeypatch)
    alexander_polynomial(wp)
    # one column set on each of the C(7, 6) row sets, not 7 * 7 minors
    assert 0 < len(minors) <= 7


def test_weight_six_relator_keeps_every_column(monkeypatch):
    wp = WeightedPresentation(parse_presentation(BRAID_QUOTIENT), {"s1": 1, "s2": 1})
    assert wp.weight_defect() == [("s1 s2 s1 s2 s1 s2", 6)]
    minors = count_minors(monkeypatch)
    assert str(alexander_polynomial(wp)) == "t^2 - t + 1"
    assert len(minors) == 4


@pytest.mark.parametrize("text", [BRAID_QUOTIENT, "gens: a, b, c; rels: a b a^-1 c^-1, b c b^-1 a^-1"])
def test_corrupted_fox_entry_is_rejected(monkeypatch, text):
    pres = parse_presentation(text)
    wp = WeightedPresentation(pres, {g: 1 for g in pres.generators})
    fox = alexander.alexander_matrix

    def corrupted(wp):
        matrix = fox(wp)
        matrix[-1][0] = matrix[-1][0] + T
        return matrix

    monkeypatch.setattr(alexander, "alexander_matrix", corrupted)
    minors = count_minors(monkeypatch)
    with pytest.raises(InternalCheckError, match="fundamental formula"):
        alexander_polynomial(wp)
    assert not minors


def sympy_alexander(sympy, pres, weights):
    """Independent oracle: letter-by-letter Fox rows, sympy minors and gcd."""
    t = sympy.Symbol("t")
    rows = []
    for r in pres.relators:
        # a unit t^shift per row keeps every exponent nonnegative
        shift = sum(abs(weights[h]) for h, _ in r.letters()) + max(abs(w) for w in weights.values())
        row = []
        for g in pres.generators:
            d, prefix = 0, shift
            for h, e in r.letters():
                if h == g:
                    d += t**prefix if e == 1 else -(t ** (prefix - weights[h]))
                prefix += e * weights[h]
            row.append(d)
        rows.append(row)
    matrix = sympy.Matrix(rows)
    size = len(pres.generators) - 1
    acc = sympy.Integer(0)
    for rs in combinations(range(len(rows)), size):
        for cs in combinations(range(len(pres.generators)), size):
            acc = sympy.gcd(acc, sympy.expand(matrix.extract(list(rs), list(cs)).det()))
    if acc == 0:
        return LaurentPoly()
    coeffs = {e: int(c) for (e,), c in sympy.Poly(acc, t).terms()}
    return LaurentPoly(coeffs).normalized()


def test_alexander_polynomial_matches_sympy_on_weight_zero_presentations():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    gens = ("a", "b", "c", "d")
    for _ in range(30):
        n = rng.randint(2, 4)
        names = gens[:n]
        weights = {g: rng.choice((-2, -1, 0, 1, 2, 3)) for g in names}
        unit = rng.choice(names)
        weights[unit] = rng.choice((-1, 1))
        relators = []
        for _ in range(rng.randint(n - 1, n)):
            w = rand_word(rng, names, rng.randint(1, 4))
            # a trailing power of the weight +-1 generator brings the weight to zero
            relators.append(w * Word.gen(unit, -weight_of(w, weights) * weights[unit]))
        pres = Presentation(names, tuple(relators))
        wp = WeightedPresentation(pres, weights)
        assert wp.weight_defect() == []
        assert alexander_polynomial(wp) == sympy_alexander(sympy, pres, weights)

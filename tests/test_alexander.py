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

T = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})

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
    assert not LaurentPoly({1: 0})
    assert laurent_product(LaurentPoly({2: 1, 1: -1, 0: 1}), LaurentPoly({1: 1, 0: 1})) == LaurentPoly({3: 1, 0: 1})
    assert LaurentPoly({-3: 2, -1: 4}).normalized() == LaurentPoly({0: 2, 2: 4})
    assert LaurentPoly({-3: -2, -1: 4}).normalized() == LaurentPoly({0: 2, 2: -4})
    assert LaurentPoly({-1: -1, 0: 1}).normalized() == LaurentPoly({1: 1, 0: -1}).normalized()
    assert LaurentPoly({0: -5}).normalized() == LaurentPoly({0: 5})


@pytest.mark.parametrize(
    "coeffs",
    [{1: 2, -1: 3}, MappingProxyType({1: 2, -1: 3}), Counter({1: 2, -1: 3})],
)
def test_laurent_accepts_mappings_and_pairs(coeffs):
    assert LaurentPoly(coeffs).coeffs == {1: 2, -1: 3}


def test_laurent_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(ONE) == "1"
    assert str(LaurentPoly({2: 1, 1: -1, 0: 1})) == "t^2 - t + 1"
    assert str(LaurentPoly({-1: 3, 1: -1})) == "-t + 3*t^-1"


def test_laurent_gcd_examples():
    assert laurent_gcd(LaurentPoly({2: 1, 0: -1}), LaurentPoly({3: 1, 0: -1})) == LaurentPoly({1: -1, 0: 1})
    assert laurent_gcd(LaurentPoly(), LaurentPoly({2: 1, 0: -1})) == LaurentPoly({2: -1, 0: 1})
    assert laurent_gcd(LaurentPoly({1: 2, 0: 2}), LaurentPoly({1: 4, 0: 4})) == LaurentPoly(
        {1: 2, 0: 2}
    )
    assert laurent_gcd(LaurentPoly({0: 6}), LaurentPoly({0: 4})) == LaurentPoly({0: 2})
    # a zero argument takes the general path: gcd(p, 0) is p, content kept, as a unit form
    assert laurent_gcd(LaurentPoly({3: -2, 1: 4}), LaurentPoly()) == LaurentPoly({0: 4, 2: -2})
    assert laurent_gcd(LaurentPoly(), LaurentPoly()) == LaurentPoly()


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
    assert fox_derivative(parse_word("a^-1"), "a", {"a": 2}) == LaurentPoly({-2: -1})
    assert fox_derivative(parse_word("a^3"), "a", {"a": 1}) == LaurentPoly({0: 1, 1: 1, 2: 1})
    # negative syllables under weights of absolute value 2 or more
    assert fox_derivative(parse_word("a^-3"), "a", {"a": 2}) == LaurentPoly({-2: -1, -4: -1, -6: -1})
    assert fox_derivative(parse_word("b a^-2"), "a", {"a": -3, "b": 2}) == LaurentPoly({5: -1, 8: -1})
    assert fox_derivative(parse_word("a^2 b a^-2"), "a", {"a": 2, "b": 1}) == LaurentPoly({0: 1, 2: 1, 3: -1, 1: -1})


def test_fox_product_rule(laurent_product, laurent_sum):
    rng = random.Random(31)
    gens = ("a", "b")
    weights = {"a": 1, "b": 2}
    for _ in range(40):
        u = rand_word(rng, gens, rng.randint(1, 4))
        v = rand_word(rng, gens, rng.randint(1, 4))
        shift = LaurentPoly({weight_of(u, weights): 1})
        for g in gens:
            lhs = fox_derivative(u * v, g, weights)
            rhs = laurent_sum(fox_derivative(u, g, weights), laurent_product(shift, fox_derivative(v, g, weights)))
            assert lhs == rhs


def test_fox_fundamental_identity(laurent_product, laurent_sum):
    # sum over generators of (dw/dg) * (t^w(g) - 1) telescopes to t^w(w) - 1
    rng = random.Random(77)
    gens = ("a", "b", "c")
    weights = {"a": 1, "b": 3, "c": -2}
    for _ in range(40):
        w = rand_word(rng, gens, rng.randint(1, 6))
        total = laurent_sum(
            *(laurent_product(fox_derivative(w, g, weights), LaurentPoly({weights[g]: 1, 0: -1})) for g in gens)
        )
        assert laurent_sum(total, ONE) == LaurentPoly({weight_of(w, weights): 1})


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
    # with its relators dropped there is no (n-1)-minor, and the gcd over none is 0
    free = WeightedPresentation(Presentation(("s1", "s2"), ()), {"s1": 1, "s2": 1})
    assert alexander_polynomial(free) == LaurentPoly()


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
    # weight 0 and weight -2 on the relator; a nonzero weight is not an error, and d/da = 1 makes both 1
    for weights in ({"a": 2, "b": 2}, {"a": 1, "b": 3}):
        assert alexander_polynomial(WeightedPresentation(pres, weights)) == ONE


def test_torus_knot_polynomial_by_bareiss_minors(torus_knot, laurent_product):
    knot = torus_knot(7, 8)
    wp = WeightedPresentation(knot, {g: 1 for g in knot.generators})
    # LaurentPoly has no arithmetic, so no minor is a cofactor expansion in it
    for name in ("__mul__", "__add__", "__sub__", "__neg__", "shift", "term"):
        assert not hasattr(LaurentPoly, name)
    delta = alexander_polynomial(wp)

    def binomial(k):
        return LaurentPoly({k: 1, 0: -1})

    # (t^56 - 1)(t - 1) = delta (t^7 - 1)(t^8 - 1)
    assert laurent_product(delta, binomial(7), binomial(8)) == laurent_product(binomial(56), binomial(1))
    assert delta == delta.normalized()


def test_fox_derivative_constructions_do_not_grow_with_exponent(monkeypatch, laurent_sum):
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
        assert d == laurent_sum(
            LaurentPoly({k: 1 for k in range(e)}), LaurentPoly({e - 2 - k: -1 for k in range(1, e + 1)})
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
    assert [weight_of(r, wp.weights) for r in wp.presentation.relators] == [0, 6]
    minors = count_minors(monkeypatch)
    assert str(alexander_polynomial(wp)) == "t^2 - t + 1"
    assert len(minors) == 4


@pytest.mark.parametrize(
    "text", [BRAID_QUOTIENT, "gens: a, b, c; rels: a b a^-1 c^-1, b c b^-1 a^-1", "gens: a; rels: a^6"]
)
def test_corrupted_fox_entry_is_rejected(monkeypatch, laurent_sum, text):
    pres = parse_presentation(text)
    wp = WeightedPresentation(pres, {g: 1 for g in pres.generators})
    fox = alexander.alexander_matrix

    def corrupted(wp):
        matrix = fox(wp)
        matrix[-1][0] = laurent_sum(matrix[-1][0], T)
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


def test_alexander_polynomial_matches_sympy():
    # with every relator of weight zero one column of minors is taken; with a
    # weight-2 relator every column is
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    gens = ("a", "b", "c", "d")
    for defect in (0, 2):
        for _ in range(30):
            n = rng.randint(2, 4)
            names = gens[:n]
            weights = {g: rng.choice((-2, -1, 0, 1, 2, 3)) for g in names}
            unit = rng.choice(names)
            weights[unit] = rng.choice((-1, 1))
            relators = []
            for _ in range(rng.randint(n - 1, n)):
                w = rand_word(rng, names, rng.randint(1, 4))
                # a trailing power of the weight +-1 generator brings the weight to zero, or the first one's to 2
                target = 0 if relators else defect
                relators.append(w * Word.gen(unit, (target - weight_of(w, weights)) * weights[unit]))
            pres = Presentation(names, tuple(relators))
            assert [weight_of(r, weights) for r in relators] == [defect] + [0] * (len(relators) - 1)
            assert alexander_polynomial(WeightedPresentation(pres, weights)) == sympy_alexander(sympy, pres, weights)

"""The shared exact-algebra core: Bareiss determinants and univariate gcds."""

import ast
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import floordiv
from pathlib import Path

import pytest

from vankampen import abelian, alexander, curves, ring
from vankampen.alexander import (
    LaurentPoly,
    WeightedPresentation,
    alexander_matrix,
    alexander_polynomial,
    laurent_gcd,
)
from vankampen.curves import MultiPoly, exact_div
from vankampen.presentation import Presentation
from vankampen.errors import InternalCheckError
from vankampen.ring import bareiss_det, qpoly_gcd, zpoly_gcd, zpoly_interpolate
from vankampen.words import Word


def cofactor_det(rows, zero):
    """Oracle: Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for j, x in enumerate(rows[0]):
        term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], zero)
        total = total + term if j % 2 == 0 else total - term
    return total


def rand_laurent(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})


def rand_multipoly(rng):
    terms = {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(rng.randint(0, 3))}
    return MultiPoly(("x", "y"), terms)


RINGS = {
    "int": (lambda rng: rng.randint(-4, 4), 0, floordiv),
    "laurent": (rand_laurent, LaurentPoly.zero(), floordiv),
    "multipoly": (rand_multipoly, MultiPoly(("x", "y")), exact_div),
}


def special_matrices(entry, zero, rng, n):
    """A random matrix, one with a zero leading pivot, and two singular ones."""
    def rand():
        return [[entry(rng) for _ in range(n)] for _ in range(n)]

    pivot_zero = rand()
    pivot_zero[0][0] = zero
    dependent = rand()
    dependent[-1] = [a + b for a, b in zip(dependent[0], dependent[1])]
    zero_column = rand()
    for row in zero_column:
        row[1] = zero
    return [rand(), pivot_zero, dependent, zero_column]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_bareiss_matches_cofactor_oracle(name):
    entry, zero, div = RINGS[name]
    rng = random.Random(f"bareiss/{name}")
    max_n = 6 if name == "int" else 4
    for _ in range(12):
        n = rng.randint(2, max_n)
        for m in special_matrices(entry, zero, rng, n):
            expected = cofactor_det(m, zero)
            assert bareiss_det([row[:] for row in m], div) == expected
    for _ in range(5):
        x = entry(rng)
        assert bareiss_det([[x]], div) == x


def test_bareiss_divides_exactly_and_not_at_the_first_step():
    calls = []

    def div(a, b):
        calls.append((a, b))
        q, r = divmod(a, b)
        assert r == 0
        return q

    assert bareiss_det([[2, 1], [7, 4]], div) == 1
    assert calls == []
    rng = random.Random(5)
    m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
    assert bareiss_det([row[:] for row in m], div) == cofactor_det(m, 0)
    # steps 1..3 divide every trailing entry: 3^2 + 2^2 + 1^2
    assert len(calls) == 14


def test_zpoly_gcd_examples():
    # (t - 1)(t + 2) and 3 (t - 1)(t - 5): gcd t - 1 up to sign
    assert zpoly_gcd([-2, 1, 1], [15, -18, 3]) == [-1, 1]
    assert zpoly_gcd([4, 6], [10, 0, 2]) == [2]
    assert zpoly_gcd([0, 0], [0, -3, 3]) == [0, -3, 3]
    assert zpoly_gcd([0, 2, -4, 0], [0]) == [0, -2, 4]
    assert zpoly_gcd([], []) == []


def test_qpoly_gcd_examples():
    half = Fraction(1, 2)
    # (t - 1)(t + 1/2) and (t - 1)(t - 3)
    assert qpoly_gcd([-half, -half, Fraction(1)], [Fraction(3), Fraction(-4), Fraction(1)]) == [-1, 1]
    assert qpoly_gcd([Fraction(2, 3)], [Fraction(5), Fraction(7)]) == [1]
    assert qpoly_gcd([Fraction(0)], [Fraction(4), Fraction(-2)]) == [-2, 1]
    assert qpoly_gcd([], []) == []
    assert all(type(c) is Fraction for c in qpoly_gcd([Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]))


def test_zpoly_interpolate_round_trips():
    rng = random.Random("interpolate")
    for degree in range(41):
        p = [rng.randint(-10**12, 10**12) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 10**12)]
        for bound in (degree, degree + 1, degree + 5):
            values = [sum(c * t**k for k, c in enumerate(p)) for t in range(bound + 1)]
            assert zpoly_interpolate(values) == p
    assert zpoly_interpolate([0, 0, 0]) == []
    assert zpoly_interpolate([]) == []
    # [0, 1, 0] is 2t - t^2, an integer polynomial
    assert zpoly_interpolate([0, 1, 0]) == [0, 2, -1]


def test_zpoly_interpolate_rejects_values_of_no_integer_polynomial():
    # t(t - 1)/2 is integer-valued but has no integer coefficients
    with pytest.raises(InternalCheckError, match="fit no polynomial over Z"):
        zpoly_interpolate([0, 0, 1])
    with pytest.raises(InternalCheckError):
        zpoly_interpolate([0, 1, 3, 6, 10])


# -- structure -----------------------------------------------------------------


KERNELS = {
    abelian: {"bareiss_det"},
    alexander: {"bareiss_det", "zpoly_gcd"},
    curves: {"bareiss_det", "qpoly_gcd", "zpoly_interpolate"},
}
PRIVATE_COPIES = {"_det", "_bareiss_det", "_uni_gcd", "_uni_rem", "_zpoly_gcd", "_pseudo_rem"}


@pytest.mark.parametrize("module", list(KERNELS), ids=lambda m: m.__name__)
def test_layers_use_the_shared_core(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & PRIVATE_COPIES
    assert not {name for name in defined if name.endswith(("_det", "_gcd"))} - {"laurent_gcd"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ring" and node.level == 1
        for alias in node.names
    }
    assert imported == KERNELS[module]


def test_ring_is_a_leaf_module():
    # of the package, ring imports only the exception its interpolation raises
    tree = ast.parse(Path(ring.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert imported == [("errors", ["InternalCheckError"])]


# -- independent oracle ----------------------------------------------------------


def test_core_matches_sympy(torus_knot):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum((c * t ** e for e, c in p.coeffs.items()), sympy.Integer(0))

    def from_sympy(expr, shift):
        poly = sympy.Poly(sympy.expand(expr * t ** shift), t)
        return LaurentPoly({k - shift: int(c) for (k,), c in poly.terms()})

    def fractions(poly):
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    rng = random.Random("sympy-oracle")
    for _ in range(30):
        # Z[t] gcd against sympy's, up to units
        m, a, b = (rand_laurent(rng) for _ in range(3))
        p, q = a * m, b * m
        expected = sympy.gcd(to_sympy(p.normalized()), to_sympy(q.normalized()))
        assert laurent_gcd(p, q) == from_sympy(expected, 0).normalized()
        # monic Q[t] gcd of two multiples of a common factor
        f, g, h = ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
                   for _ in range(3))
        lhs, rhs = (sympy.Poly(list(reversed(x)), t, domain="QQ") * sympy.Poly(list(reversed(h)), t, domain="QQ")
                    for x in (f, g))
        theirs = lhs.gcd(rhs)
        expected = [] if theirs.is_zero else fractions(theirs.monic())
        assert qpoly_gcd(fractions(lhs), fractions(rhs)) == expected

    # Alexander polynomials: every minor against Matrix.det, the result against sympy's gcd
    cases = []
    for n, m in ((3, 4), (3, 5), (4, 5)):
        knot = torus_knot(n, m)
        cases.append(WeightedPresentation(knot, {g: 1 for g in knot.generators}))
    for _ in range(12):
        gens = ("a", "b", "c")
        rels = tuple(
            Word(tuple((rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(2, 7))))
            for _ in range(rng.randint(2, 3))
        )
        cases.append(WeightedPresentation(Presentation(gens, rels), {g: rng.randint(-2, 2) for g in gens}))
    for wp in cases:
        matrix = alexander_matrix(wp)
        gens = wp.presentation.generators
        size = len(gens) - 1
        minors = []
        for rows in combinations(range(len(wp.presentation.relators)), size):
            for cols in combinations(range(len(gens)), size):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                det = from_sympy(sympy.Matrix([[to_sympy(x) for x in row] for row in sub]).det(), 40)
                assert bareiss_det(sub, floordiv) == det
                minors.append(to_sympy(det.normalized()))
        expected = reduce(sympy.gcd, minors, sympy.Integer(0))
        assert alexander_polynomial(wp) == from_sympy(expected, 0).normalized()

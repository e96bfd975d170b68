"""The shared exact-algebra core: Bareiss determinants, polynomial determinants and univariate gcds."""

import ast
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm, prod
from operator import add, mul, neg
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
from vankampen.curves import MultiPoly, resultant
from vankampen.presentation import Presentation
from vankampen.ring import bareiss_det, zpoly_det, zpoly_gcd, zpoly_primitive
from vankampen.words import Word


def cofactor_det(rows, zero, times=mul, plus=add, negate=neg):
    """Oracle: Laplace expansion along the first row, in the ring of ``times``, ``plus`` and ``negate``."""
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for j, x in enumerate(rows[0]):
        minor = cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], zero, times, plus, negate)
        total = plus(total, times(x if j % 2 == 0 else negate(x), minor))
    return total


def rand_laurent(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})


def rand_multipoly(rng):
    terms = {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(rng.randint(0, 3))}
    return MultiPoly(("x", "y"), terms)


RINGS = {"int": (lambda rng: rng.randint(-4, 4), 0)}


def special_matrices(entry, zero, rng, n, plus=add):
    """A random matrix, one with a zero leading pivot, and two singular ones."""
    def rand():
        return [[entry(rng) for _ in range(n)] for _ in range(n)]

    pivot_zero = rand()
    pivot_zero[0][0] = zero
    dependent = rand()
    dependent[-1] = [plus(a, b) for a, b in zip(dependent[0], dependent[1])]
    zero_column = rand()
    for row in zero_column:
        row[1] = zero
    return [rand(), pivot_zero, dependent, zero_column]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_bareiss_matches_cofactor_oracle(name):
    entry, zero = RINGS[name]
    rng = random.Random(f"bareiss/{name}")
    for _ in range(12):
        n = rng.randint(2, 6)
        for m in special_matrices(entry, zero, rng, n):
            expected = cofactor_det(m, zero)
            assert bareiss_det([row[:] for row in m]) == expected
    for _ in range(5):
        x = entry(rng)
        assert bareiss_det([[x]]) == x


def test_bareiss_divides_exactly_and_not_at_the_first_step():
    calls = []

    class Counted(int):
        """An int whose products, differences and quotients stay Counted, each division logged."""

        def __mul__(self, other):
            return Counted(int(self) * other)

        def __sub__(self, other):
            return Counted(int(self) - other)

        def __floordiv__(self, other):
            calls.append((self, other))
            q, r = divmod(int(self), int(other))
            assert r == 0
            return Counted(q)

    def counted(m):
        return [[Counted(x) for x in row] for row in m]

    assert bareiss_det(counted([[2, 1], [7, 4]])) == 1
    assert calls == []
    rng = random.Random(5)
    m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
    assert bareiss_det(counted(m)) == cofactor_det(m, 0)
    # steps 1..3 divide every trailing entry: 3^2 + 2^2 + 1^2
    assert len(calls) == 14


def as_zpoly(m):
    """``m`` over Z[t..] and the map from its determinant back to ``m``'s.

    Laurent rows are shifted by their lowest exponents, which multiplies the
    determinant by a unit; ``rand_multipoly``'s denominators 1 and 2 are
    cleared by doubling every entry, which multiplies it by 2^n.
    """
    if isinstance(m[0][0], LaurentPoly):
        lows = [min((e for p in row for e in p.coeffs), default=0) for row in m]
        rows = [[{(e - low,): c for e, c in p.coeffs.items()} for p in row] for row, low in zip(m, lows)]
        return rows, lambda det: LaurentPoly({e + sum(lows): c for (e,), c in det.items()})
    rows = [[{e: int(2 * c) for e, c in p.terms.items()} for p in row] for row in m]
    return rows, lambda det: MultiPoly(("x", "y"), {e: Fraction(c, 2 ** len(m)) for e, c in det.items()})


ZPOLY_RINGS = {"laurent": (rand_laurent, LaurentPoly()), "multipoly": (rand_multipoly, MultiPoly(("x", "y")))}


@pytest.mark.parametrize("name", sorted(ZPOLY_RINGS))
def test_zpoly_det_matches_cofactor_oracle(name, laurent_product, laurent_sum):
    # seeded matrices over these rings, as shifted or integer-scaled inputs
    entry, zero = ZPOLY_RINGS[name]
    ring_ops = {}
    if name == "laurent":
        ring_ops = {"times": laurent_product, "plus": laurent_sum,
                    "negate": lambda p: laurent_product(p, LaurentPoly({0: -1}))}
    rng = random.Random(f"bareiss/{name}")
    matrices = []
    for _ in range(12):
        matrices += special_matrices(entry, zero, rng, rng.randint(2, 4), ring_ops.get("plus", add))
    matrices += [[[entry(rng)]] for _ in range(5)]
    for m in matrices:
        rows, back = as_zpoly(m)
        assert back(zpoly_det(rows)) == cofactor_det(m, zero, **ring_ops)


def test_zpoly_det_of_zero_entries_is_zero():
    assert zpoly_det([[{}]]) == {}
    assert zpoly_det([[{}, {}, {}] for _ in range(3)]) == {}


def unshared(m):
    """``m`` with every position holding its own equal dict."""
    return [[dict(p) for p in row] for row in m]


def zpoly_cofactor_det(m):
    """Oracle for ``zpoly_det`` on entries in two variables: ``cofactor_det`` over ``MultiPoly``."""
    return cofactor_det([[MultiPoly(("x", "y"), p) for p in row] for row in m], MultiPoly(("x", "y"))).terms


def rand_zpoly(rng):
    return {(rng.randint(0, 2), rng.randint(0, 2)): rng.choice((-1, 1)) * rng.randint(1, 9)
            for _ in range(rng.randint(1, 3))}


def test_zpoly_det_of_a_sylvester_matrix_of_shared_entries(sylvester):
    # each coefficient object sits at deg g (or deg f) positions and one zero fills the rest
    rng = random.Random("zpoly/sylvester")
    for _ in range(40):
        df, dg = rng.randint(1, 3), rng.randint(1, 3)
        m = sylvester([rand_zpoly(rng) for _ in range(df + 1)], [rand_zpoly(rng) for _ in range(dg + 1)], {})
        assert len({id(p) for row in m for p in row}) == df + dg + 2 + (df + dg > 2)
        det = zpoly_det(m)
        assert list(det.items()) == list(zpoly_det(unshared(m)).items())
        assert det == zpoly_cofactor_det(m)


def test_zpoly_det_of_one_object_everywhere_and_of_mixed_zeros(sylvester):
    rng = random.Random("zpoly/aliases")
    for n in range(1, 5):
        p = rand_zpoly(rng)
        same = [[p] * n for _ in range(n)]
        assert zpoly_det(same) == zpoly_det(unshared(same)) == zpoly_cofactor_det(same) == (p if n == 1 else {})
    for _ in range(40):
        df, dg = rng.randint(2, 3), rng.randint(1, 3)
        zero = {}
        m = sylvester([rand_zpoly(rng) for _ in range(df + 1)], [rand_zpoly(rng) for _ in range(dg + 1)], zero)
        # every other zero position, in reading order, gets a distinct empty dict
        zeros = [(i, j) for i, row in enumerate(m) for j, p in enumerate(row) if p is zero]
        for i, j in zeros[1::2]:
            m[i][j] = {}
        assert any(p is zero for row in m for p in row)
        assert any(p == {} and p is not zero for row in m for p in row)
        det = zpoly_det(m)
        assert list(det.items()) == list(zpoly_det(unshared(m)).items())
        assert det == zpoly_cofactor_det(m)


def test_zpoly_resultant_reads_the_kronecker_point_of_its_sylvester_matrix(monkeypatch, sylvester):
    # the point is read off the two coefficient lists: the same (bits, radices) and the
    # same packed value at every matrix position as ``_kronecker`` measures on the built
    # matrix, and {} before any packing exactly where that matrix has a zero column
    rng = random.Random("zpoly/sylvester-point")
    pack, packs = ring._pack, []

    def recorded(x, degrees, polys):
        polys = list(polys)
        packed, read = pack(x, degrees, polys)
        packs.append((polys, packed, read))
        return packed, read

    monkeypatch.setattr(ring, "_pack", recorded)

    def coefficient(k):
        return {tuple(rng.randint(0, 3) for _ in range(k)): rng.choice((-1, 1)) * rng.randint(1, 30)
                for _ in range(rng.randint(1, 3))}

    shapes = {"no variable": 0, "zero middle": 0, "constant": 0, "zero column": 0}
    for _ in range(300):
        k, df, dg = rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 4)
        if df == dg == 0:
            continue
        fc, gc = ([coefficient(k) if i == d or rng.random() < 0.6 else {} for i in range(d + 1)] for d in (df, dg))
        del packs[:]
        res = ring.zpoly_resultant(fc, gc)
        taken = packs[:]
        m = sylvester(fc, gc, {})
        point = ring._kronecker(m)
        assert (point is None) == (not fc[0] and not gc[0])
        if point is None:
            assert res == {} and taken == []
        else:
            ((polys, packed, read),) = taken
            assert polys == fc + gc and read == point[1]
            assert point[0] == [v for row in sylvester(packed[:df + 1], packed[df + 1:], 0) for v in row]
        assert list(res.items()) == list(zpoly_det(m).items())
        shapes["no variable"] += k == 0
        shapes["zero middle"] += any(not p for h in (fc, gc) for p in h[1:-1])
        shapes["constant"] += min(df, dg) == 0
        shapes["zero column"] += point is None
    assert shapes == {"no variable": 96, "zero middle": 183, "constant": 91, "zero column": 27}


def test_q_resultants_shaped_like_the_elimination_workload_match_sympy():
    # dense f, g in Q[x, y]: every x^i y^j with a nonzero coefficient of denominator 1 or 2
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y")
    rng = random.Random("zpoly/elimination")

    def dense(dx, dy):
        return MultiPoly(("x", "y"), {(i, j): Fraction(rng.choice([c for c in range(-5, 6) if c]), rng.choice((1, 2)))
                                      for i in range(dx + 1) for j in range(dy + 1)})

    def to_sympy(f):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms, sx, sy, domain="QQ")

    for _ in range(200):
        df, dg, dy = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        f, g = dense(df, dy), dense(dg, dy)
        # higher degree first, res(f, g) = (-1)^(deg f deg g) res(g, f); see test_resultant_matches_sympy
        sign, first, second = (1, f, g) if df >= dg else ((-1) ** (df * dg), g, f)
        expected = sympy.resultant(to_sympy(first), to_sympy(second))  # eliminates x, leaves a Poly in y
        want = {(0, j): sign * Fraction(int(c.p), int(c.q)) for (j,), c in expected.terms() if c}
        assert resultant(f, g, "x").terms == want


@pytest.mark.parametrize("coeffs", [(-2**7, 2**6, 2**7), (3 * 25, 11 * 31, 41), (3**4, -3**4, 3**5)],
                         ids=["H=2^20", "H=2^20-1", "H=3^13"])
def test_zpoly_det_reads_the_extreme_balanced_digit(coeffs):
    # one term in each row and column: the determinant's one coefficient is
    # +-H, the bound itself, the largest digit the packing must read back
    exps = [(1, 0), (0, 2), (3, 1)]
    for first in (coeffs[0], -coeffs[0]):
        cs = (first, *coeffs[1:])
        h = prod(cs)
        diagonal = [[{exps[i]: cs[i]} if j == i else {} for j in range(3)] for i in range(3)]
        anti_diagonal = [[{exps[i]: cs[i]} if j == 2 - i else {} for j in range(3)] for i in range(3)]
        assert zpoly_det(diagonal) == {(4, 3): h}
        assert zpoly_det(anti_diagonal) == {(4, 3): -h}


def sylvester_hadamard(n):
    """The +-1 Hadamard matrix of order n = 2^k: H_2n = [[H_n, H_n], [H_n, -H_n]]."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("n", [2, 4, 8])
def test_zpoly_det_meets_the_hadamard_bound(n):
    # entries +-t^(a_i + b_j): every 1-norm is 1, so H = isqrt(n^n) = n^(n/2),
    # and det = t^(sum a + sum b) det(signs) has the one coefficient +-H
    rng = random.Random(f"hadamard/{n}")
    signs = sylvester_hadamard(n)
    for matrix in (signs, [[-x for x in signs[0]]] + signs[1:]):
        coefficient = cofactor_det(matrix, 0)
        assert abs(coefficient) == n ** (n // 2)
        for _ in range(3):
            a, b = ([rng.randint(0, 3) for _ in range(n)] for _ in "ab")
            m = [[{(a[i] + b[j],): s} for j, s in enumerate(row)] for i, row in enumerate(matrix)]
            assert zpoly_det(m) == {(sum(a) + sum(b),): coefficient}


def read_back_by_strides(value, bits, radices):
    """Reference for ``ring._read_back``: digit k's key is k // s_j % r_j per slot, s_j the product of the radices before j."""
    strides = [prod(radices[:j]) for j in range(len(radices))]
    out, k, half, mask = {}, 0, 1 << bits - 1, (1 << bits) - 1
    while value:
        digit = ((value + half) & mask) - half
        if digit:
            out[tuple(k // s % r for s, r in zip(strides, radices))] = digit
        value = (value - digit) >> bits
        k += 1
    return out


def test_read_back_keys_match_the_mixed_radix_digits_in_order():
    rng = random.Random("read_back/keys")
    for _ in range(400):
        radices = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        bits = rng.randint(2, 9)
        half = 1 << bits - 1
        # one balanced base-2^bits digit per key, in [-B/2, B/2), the extremes included
        digits = [rng.choice((0, -half, half - 1, rng.randrange(-half, half))) for _ in range(prod(radices))]
        value = sum(d << bits * k for k, d in enumerate(digits))
        got = ring._read_back(value, bits, radices)
        assert list(got.items()) == list(read_back_by_strides(value, bits, radices).items())
        assert list(got.values()) == [d for d in digits if d]


def test_zpoly_gcd_examples():
    # (t - 1)(t + 2) and 3 (t - 1)(t - 5): gcd t - 1 up to sign
    assert zpoly_gcd([-2, 1, 1], [15, -18, 3]) == [-1, 1]
    assert zpoly_gcd([4, 6], [10, 0, 2]) == [2]
    assert zpoly_gcd([0, 0], [0, -3, 3]) == [0, -3, 3]
    assert zpoly_gcd([0, 2, -4, 0], [0]) == [0, -2, 4]
    assert zpoly_gcd([], []) == []


def test_primitive_gcd_examples():
    # gcds over Q as primitive parts of Z[t] gcds of the cleared lists:
    # (t - 1)(t + 1/2) cleared to (t - 1)(2t + 1), and (t - 1)(t - 3)
    assert zpoly_gcd([-1, -1, 2], [3, -4, 1]) == [-1, 1]
    assert zpoly_gcd([2], [5, 7]) == [1]
    assert zpoly_primitive(zpoly_gcd([0], [4, -2])) == [-2, 1]
    assert zpoly_gcd([], []) == []
    assert all(type(c) is int for c in zpoly_gcd([1, 1], [2, 2]))
    # the content divided out, zeros trimmed, the leading coefficient made positive
    assert zpoly_primitive([0, 2, -4, 0]) == [0, -1, 2]
    assert zpoly_primitive([6, -4]) == [-3, 2]
    assert zpoly_primitive([0, 0]) == [] == zpoly_primitive([])


def test_pseudo_rem_by_a_multipoly_divisor_matches_the_integer_remainder():
    # a monic Q(eps) divisor and one led by 2 each give the remainder over Z, lifted
    def lift(cs):
        return [MultiPoly(("y",), {(0,): c}, curves.FIELD_QEPS) for c in cs]

    f = [3, -1, 4, 1, -5]
    for g in ([2, -7, 1], [2, -7, 2]):
        assert ring._pseudo_rem(lift(f), lift(g)) == lift(ring._pseudo_rem(f, g))


# -- structure -----------------------------------------------------------------


KERNELS = {
    abelian: set(),
    alexander: {"zpoly_det", "zpoly_gcd"},
    curves: {"subresultant", "zpoly_gcd", "zpoly_primitive", "zpoly_resultant"},
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
    # nothing from the package, and nothing from ``fractions``: the kernels are integer-only
    tree = ast.parse(Path(ring.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "fractions" not in imported


# -- independent oracle ----------------------------------------------------------


def test_core_matches_sympy(torus_knot, laurent_product):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum((c * t ** e for e, c in p.coeffs.items()), sympy.Integer(0))

    def from_sympy(expr, shift):
        poly = sympy.Poly(sympy.expand(expr * t ** shift), t)
        return LaurentPoly({k - shift: int(c) for (k,), c in poly.terms()})

    def fractions(poly):
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    def cleared(coeffs):
        d = lcm(*(c.denominator for c in coeffs))
        return [int(c * d) for c in coeffs]

    rng = random.Random("sympy-oracle")
    for _ in range(30):
        # Z[t] gcd against sympy's, up to units
        m, a, b = (rand_laurent(rng) for _ in range(3))
        p, q = laurent_product(a, m), laurent_product(b, m)
        expected = sympy.gcd(to_sympy(p.normalized()), to_sympy(q.normalized()))
        assert laurent_gcd(p, q) == from_sympy(expected, 0).normalized()
        # Z[t] gcd of two multiples of a common factor over Q, each cleared to an integer list
        f, g, h = ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
                   for _ in range(3))
        lhs, rhs = (sympy.Poly(list(reversed(x)), t, domain="QQ") * sympy.Poly(list(reversed(h)), t, domain="QQ")
                    for x in (f, g))
        ints = [cleared(fractions(x)) for x in (lhs, rhs)]
        over_zz = [sympy.Poly(list(reversed(x)), t, domain="ZZ") for x in ints]
        theirs = over_zz[0].gcd(over_zz[1])
        expected = [] if theirs.is_zero else [int(c) for c in reversed(theirs.all_coeffs())]
        assert zpoly_gcd(*ints) == expected

    # Alexander polynomials: every minor, shifted into Z[t] and shifted back, against
    # Matrix.det; the result against sympy's gcd
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
                shifted, back = as_zpoly(sub)
                assert back(zpoly_det(shifted)) == det
                minors.append(to_sympy(det.normalized()))
        expected = reduce(sympy.gcd, minors, sympy.Integer(0))
        assert alexander_polynomial(wp) == from_sympy(expected, 0).normalized()

"""Exact curve checks: cube-root field, polynomial ring, nodes, resultants."""

import random
import re
from fractions import Fraction
from functools import cache
from math import comb, lcm
from types import MappingProxyType

import pytest

from vankampen import curves, ring
from vankampen.curves import (
    EPS,
    MultiPoly,
    QEps,
    chart_cubic_factors,
    cubic_pencil,
    divides,
    exact_div,
    intersection_multiplicity_origin,
    nodal_cubic,
    parse_polynomial,
    poly_ring,
    resultant,
    singular_parameters,
    squarefree_part,
    torus_sextic_factors,
    verify_node,
    verify_torus_structure,
)
from vankampen.errors import ParseError


def rand_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_poly(rng, variables, field="Q", nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        coeff = rand_fraction(rng)
        if field == "Q(eps)":
            coeff = QEps(coeff, rand_fraction(rng))
        terms[exps] = coeff
    return MultiPoly(variables, terms, field)


# -- the cube-root-of-unity field ------------------------------------------


def test_eps_is_primitive_cube_root():
    assert EPS**3 == QEps(1)
    assert EPS**2 + EPS + QEps(1) == QEps(0)
    assert EPS**-1 == EPS**2
    assert EPS * EPS.inverse() == QEps(1)


def test_eps_conjugation_and_norm():
    z = QEps(Fraction(2), Fraction(-3))
    assert z.conjugate().conjugate() == z
    assert z * z.conjugate() == QEps(z.norm())
    assert z.norm() == Fraction(4) + Fraction(6) + Fraction(9)
    assert (z * z.inverse()) == QEps(1)


def test_eps_field_arithmetic_random():
    rng = random.Random(11)
    for _ in range(25):
        a = QEps(rand_fraction(rng), rand_fraction(rng))
        b = QEps(rand_fraction(rng), rand_fraction(rng))
        c = QEps(rand_fraction(rng), rand_fraction(rng))
        assert a * (b + c) == a * b + a * c
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        if b != QEps(0):
            assert (a / b) * b == a


def test_powers_square_and_multiply(monkeypatch):
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    (x,) = poly_ring(("x",))
    p = (x + 1) ** 64
    assert len(calls) <= 8
    assert p.terms == {(k,): Fraction(comb(64, k)) for k in range(65)}
    assert p.evaluate({"x": Fraction(1, 2)}) == Fraction(3, 2) ** 64
    assert EPS ** -1000 == EPS ** 2


# -- polynomial ring basics --------------------------------------------------


@pytest.mark.parametrize(
    "terms", [{(1, 0): 2, (0, 2): -1}, MappingProxyType({(1, 0): 2, (0, 2): -1}), [((1, 0), 2), ((0, 2), -1)]]
)
def test_multipoly_accepts_mappings_and_pairs(terms):
    assert MultiPoly(("x", "y"), terms).terms == {(1, 0): 2, (0, 2): -1}


def test_poly_arithmetic_is_a_ring_hom_under_evaluation():
    rng = random.Random(23)
    vs = ("x", "y")
    for field in ("Q", "Q(eps)"):
        for _ in range(15):
            f = rand_poly(rng, vs, field)
            g = rand_poly(rng, vs, field)
            h = rand_poly(rng, vs, field)
            pt = {v: rand_fraction(rng) for v in vs}
            if field == "Q(eps)":
                pt = {v: QEps(rand_fraction(rng), rand_fraction(rng)) for v in vs}
            lhs = (f * g + h).evaluate(pt)
            rhs = f.evaluate(pt) * g.evaluate(pt) + h.evaluate(pt)
            assert lhs == rhs


def evaluate_by_terms(f, point):
    """Oracle for ``MultiPoly.evaluate``: each term a product of powers in the field, summed there."""
    field = Fraction if f.field == "Q" else QEps
    vals = {v: point[v] if isinstance(point[v], QEps) else field(point[v]) for v in f.variables}
    acc = field(0)
    for e, c in f.terms.items():
        term = c
        for v, k in zip(f.variables, e):
            if k:
                term = term * vals[v] ** k
        acc = acc + term
    return acc


def test_evaluate_matches_the_term_by_term_oracle():
    rng = random.Random("evaluate/z-eps")

    def coordinate(field):
        # ints, small fractions, and fractions with denominators up to 10^15
        span = rng.choice((1, 6, 10**12))
        x = Fraction(rng.randint(-span, span), rng.choice((1, rng.randint(1, 4), rng.randint(1, 10**15))))
        if field == "Q(eps)" and rng.random() < 0.8:
            return QEps(x, Fraction(rng.randint(-span, span), rng.randint(1, 10**15)))
        return int(x) if x.denominator == 1 and rng.random() < 0.5 else x

    for field in ("Q", "Q(eps)"):
        for _ in range(300):
            vs = ("x", "y", "z")[:rng.randint(1, 3)]
            f = rand_poly(rng, vs, field, nterms=rng.randint(0, 6), max_exp=rng.choice((0, 3, 7)))
            pt = {v: coordinate(field) for v in vs}
            got, want = f.evaluate(pt), evaluate_by_terms(f, pt)
            assert type(got) is type(want) and got == want
        # the zero and the constant polynomials
        for f in (MultiPoly(("x",), (), field), MultiPoly(("x",), {(0,): Fraction(-7, 10**15)}, field)):
            pt = {"x": coordinate(field)}
            got, want = f.evaluate(pt), evaluate_by_terms(f, pt)
            assert type(got) is type(want) and got == want


def test_evaluate_errors():
    x, y = poly_ring(("x", "y"))
    f = x * y + 1
    with pytest.raises(ValueError, match=re.escape("no value for variable(s) ['y']")):
        f.evaluate({"x": 1})
    # a missing variable is reported before a Q(eps) value at a Q polynomial
    with pytest.raises(ValueError, match=re.escape("no value for variable(s) ['y']")):
        f.evaluate({"x": EPS})
    with pytest.raises(ValueError, match=re.escape("field mismatch: Q(eps) coefficient in a Q polynomial")):
        f.evaluate({"x": 1, "y": EPS})
    with pytest.raises(ValueError, match=re.escape("field mismatch: Q(eps) coefficient in a Q polynomial")):
        MultiPoly(("x",)).evaluate({"x": EPS})


NODE_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def jet_by_partials(f, point, orders):
    """Reference for ``MultiPoly.jet``: iterated ``partial``, then one evaluation per order."""
    values = []
    for order in orders:
        g = f
        for v, s in zip(f.variables, order):
            for _ in range(s):
                g = g.partial(v)
        values.append((g.evaluate(point), evaluate_by_terms(g, point)))
    return values


def test_jet_matches_partials_and_separate_evaluations():
    rng = random.Random("jet/one-pass")
    coordinates = {
        "Q": [0, 3, Fraction(-7, 12), Fraction(5, 10**9)],
        "Q(eps)": [0, Fraction(2, 3), EPS, EPS ** -1, Fraction(2, 5) * EPS, QEps(Fraction(1, 6), Fraction(-3, 4))],
    }
    cases = []
    for field, coords in coordinates.items():
        zero, seven = MultiPoly(("x", "y"), (), field), MultiPoly(("x", "y"), {(0, 0): Fraction(-7, 9)}, field)
        cases += [(zero, {"x": 1, "y": 2}), (seven, {"x": coords[-1], "y": 0})]
        for _ in range(150):
            f = rand_poly(rng, ("x", "y"), field, nterms=rng.randint(0, 7), max_exp=rng.choice((1, 3, 5)))
            cases.append((f, {"x": rng.choice(coords), "y": rng.choice(coords)}))
    # the replay's three node checks
    third = Fraction(1, 3)
    cases += [
        (cubic_pencil(third), {"x": Fraction(2, 5), "y": Fraction(1, 5)}),
        (cubic_pencil(EPS * third), {"x": Fraction(2, 5) * EPS, "y": Fraction(1, 5) * EPS ** -1}),
        (nodal_cubic(), {"x": 0, "y": 0}),
    ]
    for f, point in cases:
        orders = NODE_ORDERS + ((rng.randint(0, 6), rng.randint(0, 6)),)
        got = f.jet(point, orders)
        for value, (by_evaluate, by_terms) in zip(got, jet_by_partials(f, point, orders), strict=True):
            assert type(value) is type(by_terms) and value == by_evaluate == by_terms
    for f, point in cases[-3:]:
        value, fx, fy, fxx, fxy, fyy = (v for v, _ in jet_by_partials(f, point, NODE_ORDERS))
        assert not (value or fx or fy) and verify_node(f, (point["x"], point["y"])) == fxx * fyy - fxy ** 2


def test_exact_division_round_trip():
    rng = random.Random(37)
    vs = ("x", "y")
    for _ in range(20):
        f = rand_poly(rng, vs)
        g = rand_poly(rng, vs)
        if not g:
            continue
        q = exact_div(f * g, g)
        assert q == f
        assert all(type(c) is Fraction for c in q.terms.values())
        assert divides(g, f * g)


def test_exact_division_failure():
    x, y = poly_ring(("x", "y"))
    p = x * x + y
    with pytest.raises(ValueError):
        exact_div(p, y)
    with pytest.raises(ValueError, match="not an exact division"):
        p // y
    assert (p * y) // y == p
    assert not divides(y, p)


def test_substitute_translation_preserves_nodes(poly_substitute):
    rng = random.Random(41)
    f = cubic_pencil(Fraction(1, 3))
    x, y = poly_ring(("x", "y"))
    for _ in range(5):
        a, b = rand_fraction(rng), rand_fraction(rng)
        ax = MultiPoly(("x", "y"), {(0, 0): a})
        by = MultiPoly(("x", "y"), {(0, 0): b})
        shifted = poly_substitute(f, {"x": x + ax, "y": y + by})
        hessian = verify_node(shifted, (Fraction(2, 5) - a, Fraction(1, 5) - b))
        assert hessian  # a node
        assert hessian == verify_node(f, (Fraction(2, 5), Fraction(1, 5)))


def test_resultant_specializes_correctly(poly_substitute):
    # for polynomials monic in x, res_x commutes with substituting b
    rng = random.Random(53)
    vs = ("b", "x")
    b, x = poly_ring(vs)
    for _ in range(10):
        f = x * x * x + rand_poly(rng, vs, nterms=3, max_exp=2) * x + b
        g = x * x + rand_poly(rng, vs, nterms=2, max_exp=2)
        r = resultant(f, g, "x")
        val = rand_fraction(rng)
        spec = {"b": MultiPoly(vs, {(0, 0): val}), "x": x}
        lhs = poly_substitute(r, spec)
        rhs = resultant(poly_substitute(f, spec), poly_substitute(g, spec), "x")
        assert lhs == rhs


def rand_q_poly_in_x(rng, degx):
    """A polynomial in (x, y) of exact x-degree ``degx``, denominators in {1, 2, 3}."""
    terms = {}
    for _ in range(3):
        terms[(rng.randint(0, degx - 1), rng.randint(0, 2))] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    terms[(degx, rng.randint(0, 2))] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
    return MultiPoly(("x", "y"), terms)


def count_paths(monkeypatch):
    """Count resultants in ``curves`` by path: ``zpoly_resultant`` (packed integers) or ``subresultant`` (``MultiPoly``)."""
    calls = {"int": 0, "poly": 0}

    def counter(det, path):
        def counted(*args):
            calls[path] += 1
            return det(*args)
        return counted

    monkeypatch.setattr(curves, "zpoly_resultant", counter(curves.zpoly_resultant, "int"))
    monkeypatch.setattr(curves, "subresultant", counter(curves.subresultant, "poly"))
    return calls


def count_rounds(monkeypatch, path="zpoly_resultant"):
    """Record (deg A, deg B) of each pseudo-remainder ``ring`` takes inside a resultant on
    ``path`` (``zpoly_resultant`` or ``subresultant``), one list per resultant."""
    rounds, current = [], []
    resultant_, pseudo_rem = getattr(curves, path), ring._pseudo_rem

    def logged_resultant(fc, gc):
        rounds.append([])
        current.append(rounds[-1])
        try:
            return resultant_(fc, gc)
        finally:
            current.pop()

    def logged_pseudo_rem(f, g):
        if current:
            current[-1].append((len(f) - 1, len(g) - 1))
        return pseudo_rem(f, g)

    monkeypatch.setattr(curves, path, logged_resultant)
    monkeypatch.setattr(ring, "_pseudo_rem", logged_pseudo_rem)
    return rounds


def laplace_det(rows, zero):
    """Oracle: Laplace expansion along the first row, each minor on a set of columns of the
    lower rows expanded once."""
    @cache
    def det(columns):
        k = len(rows) - len(columns)
        if len(columns) == 1:
            return rows[k][columns[0]]
        total = zero
        for j, c in enumerate(columns):
            if rows[k][c]:
                term = rows[k][c] * det(columns[:j] + columns[j + 1:])
                total = total - term if j % 2 else total + term
        return total

    return det(tuple(range(len(rows))))


@pytest.fixture
def sylvester_laplace(sylvester):
    """Oracle for ``resultant``: the Laplace expansion of the MultiPoly Sylvester matrix."""

    def run(f, g, var):
        zero = MultiPoly(f.variables, (), f.field)
        return laplace_det(sylvester(f.coeffs_in(var), g.coeffs_in(var), zero), zero)

    return run


@pytest.fixture
def sylvester_det_path(sylvester):
    """Oracle for ``resultant`` over Q: ``zpoly_det`` of the Sylvester matrix of a f and b g, a and b
    the lcms of their denominators, divided by a^deg(g) b^deg(f)."""

    def run(f, g, var):
        i = f.variables.index(var)
        scales, coeffs = [], []
        for h in (f, g):
            scales.append(lcm(*(c.denominator for c in h.terms.values())))
            coeffs.append([{} for _ in range(h.degree(var) + 1)])
            for e, c in h.terms.items():
                coeffs[-1][e[i]][e[:i] + (0,) + e[i + 1:]] = int(c * scales[-1])
        det = ring.zpoly_det(sylvester(*coeffs, {}))
        scale = scales[0] ** g.degree(var) * scales[1] ** f.degree(var)
        return MultiPoly(f.variables, {e: Fraction(c, scale) for e, c in det.items()})

    return run


def test_resultant_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    paths = count_paths(monkeypatch)
    sx, sy = sympy.symbols("x y")

    def to_sympy(f):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms, sx, sy, domain="QQ")

    def oracle(f, g):
        # sympy 1.14 returns -res(f, g) when deg f = 1 and deg g = 3 (it gives
        # res(x, x^3 + 1) = -1), so hand it the higher degree first and use
        # res(f, g) = (-1)^(deg f deg g) res(g, f); on Poly inputs it eliminates
        # the first generator, x, and returns a Poly in y
        df, dg = f.degree("x"), g.degree("x")
        if df >= dg:
            return sympy.resultant(to_sympy(f), to_sympy(g))
        return (-1) ** (df * dg) * sympy.resultant(to_sympy(g), to_sympy(f))

    rng = random.Random(71)
    scaled = 0
    for df in range(1, 5):
        for dg in range(1, 5):
            for _ in range(2):
                f, g = rand_q_poly_in_x(rng, df), rand_q_poly_in_x(rng, dg)
                scaled += any(c.denominator > 1 for c in (*f.terms.values(), *g.terms.values()))
                r = resultant(f, g, "x")
                assert all(type(c) is Fraction for c in r.terms.values())
                expected = oracle(f, g)
                want = {(0, j): Fraction(int(c.p), int(c.q)) for (j,), c in expected.terms() if c}
                assert r.terms == want
    assert scaled > 16
    # one integer determinant per resultant
    assert paths == {"int": 32, "poly": 0}


def test_resultant_matches_sympy_with_two_variables_left(monkeypatch):
    # inputs in (b, x, y) eliminated in x leave two variables: still one integer determinant each
    sympy = pytest.importorskip("sympy")
    paths = count_paths(monkeypatch)
    sb, sx, sy = sympy.symbols("b x y")

    def to_sympy(p):
        # x first: sympy eliminates the first generator of Poly inputs
        terms = {(j, i, k): sympy.Rational(c.numerator, c.denominator) for (i, j, k), c in p.terms.items()}
        return sympy.Poly.from_dict(terms, sx, sb, sy, domain="QQ")

    rng = random.Random(73)
    vs = ("b", "x", "y")
    nonzero = 0
    for _ in range(12):
        f, g = (rand_poly(rng, vs, nterms=4, max_exp=2) + MultiPoly(vs, {(rng.randint(0, 1), d, 1): 1})
                for d in (rng.randint(1, 3), rng.randint(1, 3)))
        r = resultant(f, g, "x")
        assert all(type(c) is Fraction for c in r.terms.values())
        # higher degree first; see test_resultant_matches_sympy
        df, dg, sf, sg = f.degree("x"), g.degree("x"), to_sympy(f), to_sympy(g)
        expected = sympy.resultant(sf, sg) if df >= dg else (-1) ** (df * dg) * sympy.resultant(sg, sf)
        assert (to_sympy(r) - expected).is_zero
        nonzero += bool(r)
    assert paths == {"int": 12, "poly": 0}
    assert nonzero >= 9


def test_resultant_matches_sympy_over_q_eps(monkeypatch):
    # Q(eps) inputs take the MultiPoly path; sympy's result is reduced mod eps^2 + eps + 1
    sympy = pytest.importorskip("sympy")
    paths = count_paths(monkeypatch)
    se, sx, sy = sympy.symbols("e x y")

    def rat(q):
        return sympy.Rational(q.numerator, q.denominator)

    def to_sympy(f):
        # eps as a third generator: sympy eliminates the first generator of Poly inputs, x
        terms = {}
        for (i, j), c in f.terms.items():
            terms[i, j, 0], terms[i, j, 1] = rat(c.a), rat(c.b)
        return sympy.Poly.from_dict(terms, sx, sy, se, domain="QQ")

    rng = random.Random(79)
    pairs = [
        tuple(rand_poly(rng, ("x", "y"), "Q(eps)", nterms=3, max_exp=2)
              + MultiPoly(("x", "y"), {(d, rng.randint(0, 1)): QEps(1, rng.randint(-1, 1))}, "Q(eps)")
              for d in (rng.randint(1, 3), rng.randint(1, 3)))
        for _ in range(10)
    ]
    # equal degrees in x, so the first pseudo-remainder takes delta = 0
    x, y = poly_ring(("x", "y"), "Q(eps)")
    pairs.append((x * x * y + 1, x * x * y + x + 1))
    nonzero = 0
    for f, g in pairs:
        df, dg, sf, sg = f.degree("x"), g.degree("x"), to_sympy(f), to_sympy(g)
        expected = sympy.resultant(sf, sg) if df >= dg else (-1) ** (df * dg) * sympy.resultant(sg, sf)
        r = resultant(f, g, "x")
        difference = sympy.Poly((to_sympy(r) - expected).as_expr(), se)
        assert difference.rem(sympy.Poly(se**2 + se + 1, se)).is_zero
        nonzero += bool(r)
    assert paths == {"int": 0, "poly": 11}
    assert nonzero >= 9


def test_resultant_over_q_eps_matches_the_laplace_oracle(monkeypatch, sylvester_laplace):
    # seeded pairs in (x, y) against the Laplace expansion, without sympy: nonzero results
    # with df < dg and df dg odd (the swap's sign), delta >= 2, a constant in x on either
    # side, and common factors, whose resultant is 0
    paths = count_paths(monkeypatch)
    taken = count_rounds(monkeypatch, "subresultant")
    rng = random.Random("resultant/q-eps")

    def rand_in(dx):
        terms = {(rng.randint(0, dx), rng.randint(0, 1)): QEps(rand_fraction(rng, 3), rand_fraction(rng, 3))
                 for _ in range(rng.randint(2, 4))}
        # nonzero at x = 0, so that x is no common factor, and of exact degree dx
        terms[0, rng.randint(0, 1)] = QEps(rng.randint(1, 3), rng.randint(-1, 1))
        terms[dx, rng.randint(0, 1)] = QEps(rng.choice((-1, 1, 2)), rng.randint(-1, 1))
        return MultiPoly(("x", "y"), terms, "Q(eps)")

    shapes = {"zero": 0, "constant f": 0, "constant g": 0, "swap sign": 0, "delta >= 2": 0}
    for k, (df, dg) in enumerate([(df, dg) for df in range(5) for dg in range(5)] * 2):
        f, g = rand_in(df), rand_in(dg)
        if k % 7 == 0:
            common = rand_in(1)
            f, g = f * common, g * common
        df, dg = f.degree("x"), g.degree("x")
        if df == dg == 0:
            continue
        del taken[:]
        r = resultant(f, g, "x")
        assert r == sylvester_laplace(f, g, "x")
        assert r.field == "Q(eps)" and all(type(c) is QEps for c in r.terms.values())
        (rounds,) = taken
        shapes["zero"] += not r
        shapes["constant f"] += df == 0
        shapes["constant g"] += dg == 0
        shapes["swap sign"] += bool(r) and df < dg and df * dg % 2 == 1
        shapes["delta >= 2"] += any(a - b >= 2 for a, b in rounds)
    assert shapes == {"zero": 8, "constant f": 7, "constant g": 7, "swap sign": 2, "delta >= 2": 15}
    assert paths == {"int": 0, "poly": 49}


_x, _t = poly_ring(("x", "t"))


@pytest.mark.parametrize(
    "f, g, degree, rounds",
    [
        (_x - _t, _x - _t * _t, 2, [(1, 1)]),  # reaches the bound D = 2
        (_x - _t, _x - _t - 1, 0, [(1, 1)]),  # D = 1, the t terms cancel
        ((_x - _t) * (_x + 1), (_x - _t) * (_x - 2), -1, [(2, 2), (2, 1)]),  # D = 3, common factor x - t
        (_x * _x + 1, 2 * _x - 3, 0, [(2, 1)]),  # no variable left, D = 0
    ],
    ids=["reaches-bound", "cancels-below-bound", "common-factor", "no-variable-left"],
)
def test_integer_path_edge_cases(monkeypatch, sylvester_laplace, f, g, degree, rounds):
    paths = count_paths(monkeypatch)
    taken = count_rounds(monkeypatch)
    r = resultant(f, g, "x")
    assert paths == {"int": 1, "poly": 0}
    assert taken == [rounds]
    assert r.degree("t") == degree
    assert r.terms == sylvester_laplace(f, g, "x").terms
    assert all(type(c) is Fraction for c in r.terms.values())


def test_resultant_of_constants(monkeypatch):
    # a constant in x makes the Sylvester matrix diagonal: one determinant over Q(eps), and
    # over Q one integer resultant that takes no pseudo-remainder
    paths = count_paths(monkeypatch)
    taken = count_rounds(monkeypatch)
    vs = ("x",)
    (x,) = poly_ring(vs)
    three = MultiPoly(vs, {(0,): 3})
    assert resultant(x * x + three, three, "x") == MultiPoly(vs, {(0,): 9})
    assert resultant(three, x * x + three, "x") == MultiPoly(vs, {(0,): 9})
    (z,) = poly_ring(vs, "Q(eps)")
    eps = MultiPoly(vs, {(0,): EPS}, "Q(eps)")
    assert resultant(z**3 + 1, eps, "x") == MultiPoly(vs, {(0,): 1}, "Q(eps)")
    assert resultant(eps, z * z, "x") == MultiPoly(vs, {(0,): EPS**2}, "Q(eps)")
    assert paths == {"int": 2, "poly": 2}
    assert taken == [[], []]
    # constant in both: no matrix at all
    assert resultant(three, three, "x") == MultiPoly(vs, {(0,): 1})
    assert paths == {"int": 2, "poly": 2}


def test_resultant_over_q_matches_the_sylvester_determinant(monkeypatch, sylvester_laplace, sylvester_det_path):
    # seeded inputs in 1-3 variables against both Sylvester oracles, with every
    # shape of remainder sequence: common factors, constants in x, delta >= 2,
    # and non-normal sequences where a subresultant drops more than one degree
    taken = count_rounds(monkeypatch)
    rng = random.Random("resultant/prs")

    def rand_in(vs, dx):
        terms = {tuple(rng.randint(0, dx if v == "x" else 1) for v in vs): rand_fraction(rng, 4)
                 for _ in range(rng.randint(1, 4))}
        terms[tuple(dx if v == "x" else rng.randint(0, 1) for v in vs)] = Fraction(rng.choice((-2, -1, 1, 3)))
        return MultiPoly(vs, terms)

    x, y = poly_ring(("x", "y"))
    # x^4 + 1 rem x^3 + 1 is 1 - x: the sequence drops from degree 3 to 1
    pairs = [(x**4 + 1, x**3 + 1), (x**4 + y, x**3 + 1), (x**5 - y, x**2 * y + x)]
    # remainder chains of degrees 5, 4, 2, 1, 0: the drop 4 -> 2 follows a step with l(B) = 2
    for c in (1, y):
        r = (x + 1) * (2 * x + c) + 3
        b = (x * x + c) * r + 2 * x + c
        pairs.append(((x + c) * b + r, b))
    for k in range(240):
        vs = ("x", "y", "z")[: k % 3 + 1]
        top = 4 - (k % 4 == 0) + 2 * (len(vs) == 1)
        f, g = rand_in(vs, rng.randint(0, top)), rand_in(vs, rng.randint(0, top))
        if k % 4 == 0:
            common = rand_in(vs, 1)
            f, g = f * common, g * common
        pairs.append((f, g))
    shapes = {"zero": 0, "constant": 0, "delta >= 2": 0, "non-normal": 0, "h reused": 0}
    for f, g in pairs:
        if f.degree("x") == g.degree("x") == 0:
            continue
        del taken[:]
        r = resultant(f, g, "x")
        want = sylvester_det_path(f, g, "x")
        assert list(r.terms.items()) == list(want.terms.items())
        assert r.terms == sylvester_laplace(f, g, "x").terms
        (rounds,) = taken
        shapes["zero"] += not r
        shapes["constant"] += min(f.degree("x"), g.degree("x")) == 0
        shapes["delta >= 2"] += any(a - b >= 2 for a, b in rounds)
        shapes["non-normal"] += any(a - b >= 2 for a, b in rounds[1:])
        # the h of such a round reaches the result through a later round or l(B)^dA / h^(dA - 1)
        shapes["h reused"] += any(a - b >= 2 and (i + 2 < len(rounds) or b >= 2) for i, (a, b) in enumerate(rounds[1:]))
    assert shapes == {"zero": 86, "constant": 53, "delta >= 2": 57, "non-normal": 14, "h reused": 5}


def test_resultant_sign_follows_the_definition():
    # res(f, g) = lc(f)^deg(g) * prod of g over the roots of f
    (x,) = poly_ring(("x",))
    assert resultant(x, x**3 + 1, "x") == MultiPoly(("x",), {(0,): 1})
    assert resultant(x - 2, x**3 + 1, "x") == MultiPoly(("x",), {(0,): 9})
    assert resultant(x * Fraction(1, 2), x**3 + 1, "x") == MultiPoly(("x",), {(0,): Fraction(1, 8)})


def test_squarefree_part():
    p = parse_polynomial("x^3 - 3 x + 2")  # (x - 1)^2 (x + 2)
    (x,) = poly_ring(("x",))
    assert squarefree_part(p, "x") == x**2 + x - 2
    # rational coefficients are cleared: (x - 1/2)^2 (x + 1/3) -> (2x - 1)(3x + 1), leading coefficient positive
    assert squarefree_part((x - Fraction(1, 2)) ** 2 * (x + Fraction(1, 3)) * -4, "x") == 6 * x**2 - x - 1


# -- parsing ------------------------------------------------------------------


def poly_text(f):
    """``f`` in the grammar of ``parse_polynomial``: signed terms ``c*x^i*y^j``."""
    terms = (
        f"{'-' if c < 0 else '+'} {abs(c)}" + "".join(f"*{v}^{k}" for v, k in zip(f.variables, e) if k)
        for e, c in f.terms.items()
    )
    return " ".join(terms) or "0"


def test_parse_round_trip_random():
    rng = random.Random(67)
    for _ in range(20):
        f = rand_poly(rng, ("x", "y"), nterms=5)
        assert parse_polynomial(poly_text(f), variables=("x", "y")) == f


def test_parse_accepts_fractions_and_juxtaposition():
    f = parse_polynomial("2/3 x^2 y - y + 1")
    g = parse_polynomial("2/3*x^2*y - y + 1")
    assert f == g


def test_parse_error_positions():
    cases = [
        ("x^0", 1, "zero exponent"),
        ("x^-2", 1, "negative exponent"),
        ("2/0 x", 1, "zero denominator"),
        ("x +", 3, "dangling operator"),
        ("* x", 1, "misplaced '*'"),
        ("", 1, "empty polynomial"),
        ("x $", 3, "bad character"),
    ]
    for text, col, fragment in cases:
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert info.value.column == col
        assert fragment in str(info.value)


def test_parse_rejects_unknown_variables():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x z", variables=("x", "y"))
    assert "unknown variable" in str(info.value)


# -- the cubic pencil ---------------------------------------------------------


def test_nodal_member_has_node_at_origin():
    assert verify_node(nodal_cubic(), (0, 0)) == Fraction(-1)


def test_rational_member_has_node():
    assert verify_node(cubic_pencil(Fraction(1, 3)), (Fraction(2, 5), Fraction(1, 5))) == Fraction(1, 3)


def test_verify_node_off_a_node():
    f = nodal_cubic()  # x^3 - x y + y^3
    half = Fraction(1, 2)
    assert f.evaluate({"x": half, "y": half}) == 0
    assert verify_node(f, (half, half)) is None  # on f, but f_x = 1/4 there
    assert verify_node(f, (1, 1)) is None  # off f
    x, y = poly_ring(("x", "y"))
    cusp = verify_node(y**2 - x**3, (0, 0))
    assert cusp is not None and cusp == 0  # singular, but not a node


def test_verify_node_hessian_over_one_denominator_matches_field_arithmetic():
    # the replay's three node points: fxx fyy - fxy^2 formed from the jet's integer
    # pairs and divided once equals the field's own products, type included
    third = Fraction(1, 3)
    nodes = [
        (cubic_pencil(third), (Fraction(2, 5), Fraction(1, 5))),
        (cubic_pencil(EPS * third), (Fraction(2, 5) * EPS, Fraction(1, 5) * EPS ** -1)),
        (nodal_cubic(), (0, 0)),
    ]
    for f, pt in nodes:
        value, fx, fy, fxx, fxy, fyy = (v for v, _ in jet_by_partials(f, dict(zip(f.variables, pt)), NODE_ORDERS))
        assert not (value or fx or fy)
        hessian = verify_node(f, pt)
        assert type(hessian) is type(fxx) and hessian == fxx * fyy - fxy ** 2 != 0
    # cusps (y - q)^2 - (x - p)^3 at (p, q), over both fields and with denominators: 0, not None
    for field, p, q in (("Q", 0, 0), ("Q", Fraction(2, 5), -third), ("Q(eps)", Fraction(2, 5) * EPS, third * EPS ** 2)):
        x, y = poly_ring(("x", "y"), field)
        hessian = verify_node((y - q) ** 2 - (x - p) ** 3, (p, q))
        assert type(hessian) is (Fraction if field == "Q" else QEps) and hessian == 0


def test_curves_own_polynomials_are_what_the_validating_constructor_makes():
    # built through MultiPoly._new: each coefficient nonzero and of the field's type, key order included
    third = Fraction(1, 3)
    cases = [cubic_pencil(b) for b in (0, Fraction(0), third, 2, QEps(0), EPS * third)]
    cases += [nodal_cubic(), curves.cubic_pencil_generic(), *chart_cubic_factors(), singular_parameters()]
    cases += [*poly_ring(("b", "x", "y")), *poly_ring(("x",), "Q(eps)"), poly_ring(("x",))[0] + 0]
    for p in cases:
        q = MultiPoly(p.variables, p.terms, p.field)
        assert list(p.terms.items()) == list(q.terms.items())
        assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]
    assert nodal_cubic().terms == {(3, 0): 1, (1, 1): -1, (0, 3): 1}
    with pytest.raises(ValueError, match="duplicate variable name"):
        poly_ring(("x", "x"))
    with pytest.raises(ValueError, match="unknown coefficient field"):
        poly_ring(("x",), "Z")


def paper_eliminant():
    """The paper's 108 b^7 - 733 b^4 + 27 b in the ring of ``singular_parameters``."""
    b, _, _ = poly_ring(("b", "x", "y"))
    return 108 * b**7 - 733 * b**4 + 27 * b


def test_singular_parameter_polynomial():
    p = singular_parameters()
    assert p == paper_eliminant()
    factor = parse_polynomial("27 b^3 - 1", variables=p.variables)
    assert divides(factor, p)
    # roots: b = 0 and the roots of the two cubic factors; b = 1 is none of them
    def at(b):
        return p.evaluate({"b": b, "x": Fraction(0), "y": Fraction(0)})

    assert at(Fraction(0)) == 0
    assert at(Fraction(1, 3)) == 0
    assert at(Fraction(1)) != 0


def test_singular_parameters_work_counters(monkeypatch):
    paths = count_paths(monkeypatch)
    rounds = count_rounds(monkeypatch)
    calls = {"exact_div": 0, "init": 0, "kronecker": 0}
    div, init, kronecker, pack = curves.exact_div, MultiPoly.__init__, ring._kronecker, ring._pack
    slots, packed_bits = [], []

    def counted_div(f, g):
        calls["exact_div"] += 1
        return div(f, g)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_kronecker(m):
        calls["kronecker"] += 1
        return kronecker(m)

    def measured_point(x, degrees, polys):
        # every resultant is taken in Q[b, x, y]; the eliminated variable has no slot in the packed keys
        polys = list(polys)
        assert {len(e) for p in polys for e in p} == {2}
        packed, read = pack(x, degrees, polys)
        slots.append(read[0])
        packed_bits.append(max(abs(v).bit_length() for v in packed))
        return packed, read

    monkeypatch.setattr(curves, "exact_div", counted_div)
    monkeypatch.setattr(MultiPoly, "__init__", counted_init)
    monkeypatch.setattr(ring, "_kronecker", counted_kronecker)
    monkeypatch.setattr(ring, "_pack", measured_point)
    p = singular_parameters()
    validated = calls["init"]
    assert p == paper_eliminant()
    assert all(type(c) is Fraction for c in p.terms.values())
    # only the squarefree part divides, through the module-level name that the
    # benchmark's spans wrap; the three x- and two y-resultants are one integer
    # remainder sequence each
    assert calls["exact_div"] == 1
    assert paths == {"int": 5, "poly": 0}
    # one Kronecker point per resultant, the Sylvester matrix's, read off the two
    # coefficient lists: no library code builds the matrix, and none enters the
    # general measurer; slots of 11, 10 and 8 bits for the x-resultants and 48 and
    # 46 for the 10x10 y-resultants; the widest packed entry is 195 bits under the
    # Hadamard bound (231 under the product of 1-norms)
    assert not hasattr(ring, "_sylvester")
    assert calls["kronecker"] == 0
    assert slots == [11, 10, 8, 48, 46]
    assert max(packed_bits) == 195
    # (deg A, deg B) of each pseudo-remainder; each is divided exactly by g h^delta,
    # one integer division per coefficient: 25 in all
    assert rounds == [[(3, 2), (2, 1)], [(3, 1)], [(2, 1)], [(6, 4), (4, 3), (3, 2), (2, 1)], [(6, 4), (4, 3), (3, 2), (2, 1)]]
    assert sum(b for sequence in rounds for _, b in sequence) == 25
    # ring results and the pencil itself skip the validating constructor
    assert validated == 0


def test_cube_root_members_have_nodes():
    b = EPS / QEps(3)
    f = cubic_pencil(b)
    node = (Fraction(2, 5) * EPS, Fraction(1, 5) * EPS.inverse())
    assert verify_node(f, node) == QEps(Fraction(1, 3))
    # the coordinate-swapped point lies on the conjugate member, not on f
    swapped = (Fraction(2, 5) * EPS.inverse(), Fraction(1, 5) * EPS)
    assert f.evaluate({"x": swapped[0], "y": swapped[1]}) != QEps(0)
    conj = cubic_pencil(EPS.inverse() / QEps(3))
    assert verify_node(conj, swapped)


# -- the torus sextic ---------------------------------------------------------


def test_sextic_is_product_of_its_cubic_factors():
    f1, f2 = torus_sextic_factors()
    four = MultiPoly(("x", "y"), {(0, 0): Fraction(4, 27)})
    assert f1 - f2 == four


def test_torus_structure_identity():
    assert verify_torus_structure() == Fraction(-4, 729)


def test_torus_structure_fails_when_perturbed(monkeypatch):
    u, v = torus_sextic_factors()
    x, _ = poly_ring(("x", "y"))
    # u v - ((u + v)/2)^2 = -((u - v)/2)^2: a constant shift of v keeps it constant
    monkeypatch.setattr(curves, "torus_sextic_factors", lambda: (u, v - Fraction(1, 27)))
    assert verify_torus_structure() == -Fraction(5, 54) ** 2
    monkeypatch.setattr(curves, "torus_sextic_factors", lambda: (u, v + x))
    assert verify_torus_structure() is None


def test_chart_factors_and_sextic_agree():
    g, h = chart_cubic_factors()
    ybar, zbar = poly_ring(("ybar", "zbar"))
    assert g == ybar**3 + ybar**2 * zbar + zbar
    assert h == ybar**3 + ybar**2 * zbar - Fraction(4, 27) * zbar**3 + zbar
    # the chart is x = 1/zbar, y = ybar/zbar: chart(u)(ybar, zbar) = zbar^3 u(1/zbar, ybar/zbar)
    rng = random.Random(61)
    for chart, u in zip((g, h), torus_sextic_factors()):
        for _ in range(20):
            yb, zb = rand_fraction(rng), rand_fraction(rng) or Fraction(1, 5)
            at = chart.evaluate({"ybar": yb, "zbar": zb})
            assert at == zb ** 3 * u.evaluate({"x": 1 / zb, "y": yb / zb})


# -- intersection multiplicities ----------------------------------------------


def series_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j < order:
                out[i + j] += ai * bj
    return out


def solve_branch(cubic_shift, order):
    """Series z(y) with z (1 + y^2) = -y^3 + shift * z^3, truncated."""
    z = [Fraction(0)] * order
    inv = [Fraction(0)] * order  # (1 + y^2)^-1 = 1 - y^2 + y^4 - ...
    for k in range(0, order, 2):
        inv[k] = Fraction((-1) ** (k // 2))
    for _ in range(order):
        rhs = [Fraction(0)] * order
        if order > 3:
            rhs[3] = Fraction(-1)
        cube = series_mul(series_mul(z, z, order), z, order)
        for k in range(order):
            rhs[k] += cubic_shift * cube[k]
        z = series_mul(rhs, inv, order)
    return z


def test_chart_intersection_multiplicity_is_nine():
    g, h = chart_cubic_factors()
    assert intersection_multiplicity_origin(g, h) == 9
    # independent oracle: solve both branches as series z(y), compare orders
    order = 14
    zg = solve_branch(Fraction(0), order)
    zh = solve_branch(Fraction(4, 27), order)
    diff = [a - b for a, b in zip(zg, zh)]
    first = next(k for k, c in enumerate(diff) if c)
    assert first == 9


def test_small_intersection_multiplicities():
    vs = ("ybar", "zbar")
    yb, zb = poly_ring(vs)
    assert intersection_multiplicity_origin(yb, zb) == 1
    assert intersection_multiplicity_origin(yb, yb - zb * zb) == 2
    # parabola against cusp: restricting ybar = zbar^2 leaves zbar^4 - zbar^3
    assert intersection_multiplicity_origin(yb - zb * zb, yb * yb - zb * zb * zb) == 3


def test_intersection_multiplicity_guards():
    vs = ("ybar", "zbar")
    yb, zb = poly_ring(vs)
    with pytest.raises(ValueError):
        intersection_multiplicity_origin(yb + MultiPoly(vs, {(0, 0): 1}), zb)
    with pytest.raises(ValueError):
        intersection_multiplicity_origin(zb * yb, zb * (yb + zb))
    with pytest.raises(ValueError):
        intersection_multiplicity_origin(yb, yb * (yb + zb))
    # zb contains the line zbar = 0: the other curve's restriction decides, in either argument order
    for g, h in ((zb, yb * yb + zb), (yb * yb + zb, zb)):
        assert intersection_multiplicity_origin(g, h) == 2
    for g, h in ((zb, yb * yb - yb + zb), (yb * yb - yb + zb, zb)):
        with pytest.raises(ValueError, match="extra common points"):
            intersection_multiplicity_origin(g, h)

import os
import sys
from fractions import Fraction
from typing import Callable

# allow running the tests from a checkout without installing the package
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest  # noqa: E402

from vankampen.abelian import IntMatrix, smith_normal_form  # noqa: E402
from vankampen.alexander import LaurentPoly  # noqa: E402
from vankampen.curves import MultiPoly  # noqa: E402
from vankampen.presentation import Presentation  # noqa: E402
from vankampen.words import BraidWord, FreeEndo, Word, braid_action, substitute  # noqa: E402


@pytest.fixture
def torus_knot():
    """Artin presentation of the closure of (s1 ... s(n-1))^m, the torus knot T(n, m)."""

    def build(n: int, m: int) -> Presentation:
        action = braid_action(BraidWord(n, tuple((i, 1) for i in range(1, n)) * m))
        gens = action.domain
        return Presentation(gens, tuple(action.images[g] * Word.gen(g, -1) for g in gens))

    return build


@pytest.fixture
def snf_transforms():
    """``smith_normal_form`` as (D, U, V): U and V are rebuilt here, apart
    from the library's replay, by applying the logged passes to identity
    matrices, rows at even positions and columns at odd ones (V as its
    transpose, whose rows are V's columns); a ("comb", t, i, j, p, q, r, s)
    replaces rows t and i by p row t + q row i and r row t + s row i, and a
    "sub" or "fix" (kind, t, i, j, q) subtracts q row t from row i."""

    def run(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        d, log = smith_normal_form(m)
        u, vt = ([[int(i == j) for j in range(n)] for i in range(n)] for n in (m.nrows, m.ncols))
        for k, steps in enumerate(log):
            x = vt if k % 2 else u
            for kind, t, *args in steps:
                if kind == "swap":
                    x[t], x[args[0]] = x[args[0]], x[t]
                elif kind == "neg":
                    x[t] = [-e for e in x[t]]
                elif kind == "comb":
                    i, _, p, q, r, s = args
                    x[t], x[i] = ([p * e + q * f for e, f in zip(x[t], x[i])],
                                  [r * e + s * f for e, f in zip(x[t], x[i])])
                else:
                    i, _, q = args
                    x[i] = [e - q * f for e, f in zip(x[i], x[t])]
        return d, IntMatrix.from_rows(u), IntMatrix.from_rows([list(col) for col in zip(*vt)])

    return run


@pytest.fixture
def poly_substitute():
    """Substitution into a ``MultiPoly``: each variable maps to a polynomial of
    one target ring, or to a scalar, and each term is expanded by that ring's
    own + and *."""

    def run(f: MultiPoly, images: dict) -> MultiPoly:
        target = next(img for img in images.values() if isinstance(img, MultiPoly))
        zero = out = MultiPoly(target.variables, (), target.field)
        for e, c in f.terms.items():
            term = zero + c
            for v, k in zip(f.variables, e):
                term = term * images[v] ** k
            out = out + term
        return out

    return run


@pytest.fixture
def int_product():
    """Rows of the product of ``IntMatrix`` factors, left to right."""

    def run(*factors: IntMatrix) -> list[list[int]]:
        rows = factors[0].rows()
        for f in factors[1:]:
            cols = [f.entries[j::f.ncols] for j in range(f.ncols)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows]
        return rows

    return run


@pytest.fixture
def int_det():
    """Determinant of a square ``IntMatrix`` by Gaussian elimination over Q."""

    def run(m: IntMatrix) -> int:
        a = [[Fraction(x) for x in row] for row in m.rows()]
        det = Fraction(1)
        for k in range(len(a)):
            p = next((i for i in range(k, len(a)) if a[i][k]), None)
            if p is None:
                return 0
            if p != k:
                a[k], a[p], det = a[p], a[k], -det
            det *= a[k][k]
            for i in range(k + 1, len(a)):
                q = a[i][k] / a[k][k]
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        return int(det)

    return run


@pytest.fixture
def sylvester():
    """The Sylvester matrix of ascending coefficient lists of degrees df, dg >= 0,
    not both 0: dg rows of f's coefficients, descending, then df rows of g's,
    each shifted one column right of the row above, and the one object
    ``zero`` in all remaining positions.  No library code builds it; it is
    the reference for the Kronecker point ``ring.zpoly_resultant`` reads
    off the two lists."""

    def build(fc: list, gc: list, zero: object) -> list[list]:
        df, dg = len(fc) - 1, len(gc) - 1
        return ([[zero] * i + fc[::-1] + [zero] * (dg - 1 - i) for i in range(dg)]
                + [[zero] * i + gc[::-1] + [zero] * (df - 1 - i) for i in range(df)])

    return build


@pytest.fixture
def laurent_sum():
    """The sum of ``LaurentPoly`` terms, coefficient by coefficient."""

    def run(*terms: LaurentPoly) -> LaurentPoly:
        out: dict[int, int] = {}
        for p in terms:
            for e, c in p.coeffs.items():
                out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    return run


@pytest.fixture
def laurent_product(laurent_sum):
    """The product of ``LaurentPoly`` factors, term by term."""

    def run(*factors: LaurentPoly) -> LaurentPoly:
        out = LaurentPoly({0: 1})
        for f in factors:
            out = laurent_sum(
                *(LaurentPoly({e + k: c * d}) for e, c in out.coeffs.items() for k, d in f.coeffs.items())
            )
        return out

    return run


@pytest.fixture
def compose():
    """The composite ``e1 o e2`` of two ``FreeEndo`` on one domain, with no inverse."""

    def run(e1: FreeEndo, e2: FreeEndo) -> FreeEndo:
        assert e1.domain == e2.domain
        return FreeEndo(e1.domain, {g: substitute(e2.images[g], e1.images) for g in e1.domain})

    return run


@pytest.fixture
def metacyclic_group():
    """Z/n x| Z/m with b a b^-1 = a^s, by brute force and apart from the
    library's ``metacyclic_normal_form``.  ``run(n, s)`` gives (m, mul,
    elements): m the order of s mod n, the law on pairs (i, j) = a^i b^j,
    and the pairs reached from (0, 0) by right multiplication by a and b."""

    def run(n: int, s: int) -> tuple[int, Callable, set[tuple[int, int]]]:
        m, power = 1, s % n
        while power != 1 % n:
            power = power * s % n
            m += 1

        def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
            return (x[0] + y[0] * pow(s, x[1], n)) % n, (x[1] + y[1]) % m

        elements = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            x = frontier.pop()
            for y in (mul(x, (1, 0)), mul(x, (0, 1))):
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
        return m, mul, elements

    return run

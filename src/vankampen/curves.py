"""Exact multivariate polynomial arithmetic over Q and Q(eps).

Here eps is a primitive cube root of unity handled symbolically as
Q[eps]/(eps^2 + eps + 1); exactness is the point of this module.  A point
is evaluated in Z[eps]: with every coordinate and coefficient written
(p + q eps)/d over Z, the terms are summed as integer pairs over one
common denominator, which is divided out once.  On top of the ring
operations sit the geometric checks: nodes of the cubic pencil
f_b = b(-x^2 - x y^2 + y) + (x^3 - x y + y^3), stated once as a term
table over (b, x, y), each a nonzero Hessian determinant where f and its
gradient vanish, the parameter values where the pencil degenerates
(27 b^3 = 1 up to spurious factors), the torus-structure identity of the
sextic (y^3 + y^2 + x^2)(y^3 + y^2 + x^2 - 4/27), its constant read off
the terms, and the local intersection multiplicity of its two cubic
factors in the far chart.

Resultants are Sylvester determinants, a constant in the eliminated
variable included.  Over Q, on inputs scaled to integer coefficients in
one pass over their terms, each is one ``ring.zpoly_resultant``: the
subresultant remainder sequence on the coefficients packed by Kronecker
substitution at the point ``ring.zpoly_det`` would choose for the
Sylvester matrix, each distinct coefficient packed once, the eliminated
variable not at all.  Over Q(eps) the same ``ring.subresultant`` runs on
polynomial coefficients, dividing them by this module's exact
multivariate division.  Univariate gcds and primitive parts over Q
(squarefree parts, intersecting eliminants) are ``ring``'s integer ones,
on coefficients cleared by the lcm of their denominators: this module is
where rationals become integers for ``ring``.  Ring results and the
curves under study are built without re-validating their terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, perm
from operator import add, sub

from .errors import InternalCheckError, ParseError
from .ring import subresultant, zpoly_gcd, zpoly_primitive, zpoly_resultant

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Iterable, Mapping, Sequence


def _power(base: Any, n: int, one: Any) -> Any:
    """base^n for n >= 0 by square-and-multiply: at most 2 log2(n) products."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _eps_product(a1: Any, b1: Any, a2: Any, b2: Any) -> tuple[Any, Any]:
    """(a1 + b1 eps)(a2 + b2 eps) = (a1 a2 - b1 b2) + (a1 b2 + b1 a2 - b1 b2) eps, as eps^2 = -eps - 1."""
    bb = b1 * b2
    return a1 * a2 - bb, a1 * b2 + b1 * a2 - bb


class QEps:
    """An element a + b*eps of Q(eps), with eps^2 = -eps - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: Any = 0, b: Any = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def _new(cls, a: Fraction, b: Fraction) -> QEps:
        """Trusted constructor: ``a`` and ``b`` are already Fractions."""
        z = object.__new__(cls)
        z.a, z.b = a, b
        return z

    @staticmethod
    def _coerce(x: Any) -> "QEps":
        if isinstance(x, QEps):
            return x
        if isinstance(x, (int, Fraction)):
            return QEps(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Any) -> "QEps":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QEps._new(self.a + o.a, self.b + o.b)

    def __neg__(self) -> "QEps":
        return QEps._new(-self.a, -self.b)

    def __sub__(self, other: Any) -> "QEps":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QEps._new(self.a - o.a, self.b - o.b)

    def __mul__(self, other: Any) -> "QEps":
        if isinstance(other, (int, Fraction)):
            return QEps._new(self.a * other, self.b * other)
        if not isinstance(other, QEps):
            return NotImplemented
        return QEps._new(*_eps_product(self.a, self.b, other.a, other.b))

    __rmul__ = __mul__

    def conjugate(self) -> "QEps":
        return QEps._new(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "QEps":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(eps)")
        conj = self.conjugate()
        return QEps._new(conj.a / n, conj.b / n)

    def __truediv__(self, other: Any) -> "QEps":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> "QEps":
        return _power(self if n >= 0 else self.inverse(), abs(n), QEps(1))

    def __eq__(self, other: Any) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)


EPS = QEps(0, 1)

FIELD_Q = "Q"
FIELD_QEPS = "Q(eps)"


def _coerce_coeff(value: Any, field: str) -> Any:
    if field == FIELD_Q:
        if isinstance(value, QEps):
            raise ValueError("field mismatch: Q(eps) coefficient in a Q polynomial")
        return Fraction(value)
    return value if isinstance(value, QEps) else QEps(value)


def _over_z(c: Fraction | QEps) -> tuple[int, int, int]:
    """(p, q, d) over Z with c = (p + q eps)/d and d > 0."""
    if isinstance(c, QEps):
        a, b = c.a, c.b
        d = lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d
    return c.numerator, 0, c.denominator


def _from_z(pairs: Iterable[Sequence[int]], d: int, field: str) -> list[Any]:
    """(a + b eps)/d in ``field`` for each pair (a, b), d > 0: the inverse of ``_over_z``."""
    return [Fraction(a, d) if field == FIELD_Q else QEps._new(Fraction(a, d), Fraction(b, d)) for a, b in pairs]


def _combine(a: Mapping[tuple[int, ...], Any], b: Mapping[tuple[int, ...], Any], sign: int) -> dict:
    """Terms of a + sign * b, cancelled terms dropped."""
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = out[e] + c if sign > 0 else out[e] - c
            if s:
                out[e] = s
            else:
                del out[e]
        else:
            out[e] = c if sign > 0 else -c
    return out


class MultiPoly:
    """A polynomial in named variables over Q or Q(eps).

    Terms map exponent tuples (one slot per variable, in order) to
    nonzero coefficients.  Binary operations require identical variable
    tuples and coefficient fields.
    """

    __slots__ = ("variables", "field", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Any] | Iterable[tuple[tuple[int, ...], Any]] = (),
        field: str = FIELD_Q,
    ):
        if field not in (FIELD_Q, FIELD_QEPS):
            raise ValueError(f"unknown coefficient field {field!r}")
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable name")
        self.field = field
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[tuple[int, ...], Any] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = _coerce_coeff(c, field)
            if exps in acc:
                acc[exps] = acc[exps] + c
            else:
                acc[exps] = c
        self.terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def _new(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Any], field: str) -> MultiPoly:
        """Trusted constructor: ``terms`` are already coerced and nonzero."""
        p = object.__new__(cls)
        p.variables, p.terms, p.field = variables, terms, field
        return p

    def _check_compatible(self, other: MultiPoly) -> None:
        if self.variables != other.variables:
            raise ValueError("variable set mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def _scalar(self, value: Any) -> MultiPoly:
        c = _coerce_coeff(value, self.field)
        return MultiPoly._new(self.variables, {(0,) * len(self.variables): c} if c else {}, self.field)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Any) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = self._scalar(other)
        self._check_compatible(other)
        return MultiPoly._new(self.variables, _combine(self.terms, other.terms, 1), self.field)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._new(self.variables, {e: -c for e, c in self.terms.items()}, self.field)

    def __sub__(self, other: Any) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = self._scalar(other)
        self._check_compatible(other)
        return MultiPoly._new(self.variables, _combine(self.terms, other.terms, -1), self.field)

    def __mul__(self, other: Any) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = self._scalar(other)
        self._check_compatible(other)
        out: dict[tuple[int, ...], Any] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return MultiPoly._new(self.variables, {e: c for e, c in out.items() if c}, self.field)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self._scalar(1))

    def __floordiv__(self, other: MultiPoly) -> MultiPoly:
        return exact_div(self, other)  # the module's name, so a wrapper of it sees every division

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.field == other.field
            and self.terms == other.terms
        )

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def valuation(self, var: str) -> int:
        """Lowest exponent of ``var``; -1 for the zero polynomial."""
        i = self.variables.index(var)
        return min((e[i] for e in self.terms), default=-1)

    def partial(self, var: str) -> MultiPoly:
        # lowering e[i] >= 1 by one is injective, and c * e[i] is nonzero
        i = self.variables.index(var)
        terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in self.terms.items() if e[i]}
        return MultiPoly._new(self.variables, terms, self.field)

    def coeffs_in(self, var: str) -> list[MultiPoly]:
        """Coefficients of var^0, var^1, ... as polynomials in the same ring."""
        i = self.variables.index(var)
        d = self.degree(var)
        buckets: list[dict[tuple[int, ...], Any]] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = e[:i] + (0,) + e[i + 1:]
            buckets[e[i]][ne] = c
        return [MultiPoly._new(self.variables, b, self.field) for b in buckets]

    def evaluate(self, point: Mapping[str, Any]) -> Any:
        """Exact value at a point given as variable -> field element."""
        return self.jet(point, [(0,) * len(self.variables)])[0]

    def jet(self, point: Mapping[str, Any], orders: Sequence[Sequence[int]]) -> list[Any]:
        """Exact values at a point of the partial derivatives of the given orders, in one pass."""
        return _from_z(*self._jet_over_z(point, orders), self.field)

    def _jet_over_z(self, point: Mapping[str, Any], orders: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
        """``jet`` as integer pairs (a, b) and one denominator den > 0, each value (a + b eps)/den.

        In Z[eps]: with each coordinate (p + q eps)/d, one table per variable holds (p + q eps)^k d^(top - k),
        top its degree here.  A term c x^i y^j, c over the coefficients' common denominator, feeds order
        (s, t) with i(i-1)...(i-s+1) j(j-1)...(j-t+1) and the entries at i - s and j - t: one denominator.
        """
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"no value for variable(s) {missing}")
        coords = [_over_z(_coerce_coeff(point[v], self.field)) for v in self.variables]
        tops = list(map(max, zip(*self.terms))) or [0] * len(coords)
        coeffs = [(e, _over_z(c)) for e, c in self.terms.items()]
        common = lcm(*(d for _, (_, _, d) in coeffs))
        tables, den = [], common
        for (p, q, d), top in zip(coords, tops):
            powers = [(1, 0)]
            for _ in range(top):
                powers.append(_eps_product(*powers[-1], p, q))
            tables.append([(a * d ** (top - k), b * d ** (top - k)) for k, (a, b) in enumerate(powers)])
            den *= d ** top
        totals = [[0, 0] for _ in orders]
        for e, (a, b, d) in coeffs:
            a, b = a * (common // d), b * (common // d)
            for total, order in zip(totals, orders):
                ta, tb = a, b
                for table, k, s in zip(tables, e, order):
                    if k < s:  # the derivative kills the term
                        break
                    ta, tb = _eps_product(ta * perm(k, s), tb * perm(k, s), *table[k - s])
                else:
                    total[:] = total[0] + ta, total[1] + tb
        return totals, den


def poly_ring(variables: Sequence[str], field: str = FIELD_Q) -> tuple[MultiPoly, ...]:
    """Generator polynomials for each named variable."""
    variables = MultiPoly(variables, (), field).variables  # the names and the field checked once
    n, one = len(variables), _coerce_coeff(1, field)
    return tuple(MultiPoly._new(variables, {tuple(int(j == i) for j in range(n)): one}, field) for i in range(n))


# ---------------------------------------------------------------------------
# exact division and resultants


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise."""
    f._check_compatible(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    quotient: dict[tuple[int, ...], Any] = {}
    rem = dict(f.terms)
    g_lead = max(g.terms)  # lex order on exponent tuples
    g_lc = g.terms[g_lead]
    g_rest = [(e, c) for e, c in g.terms.items() if e != g_lead]
    while rem:
        r_lead = max(rem)
        diff = tuple(map(sub, r_lead, g_lead))
        if any(d < 0 for d in diff):
            raise ValueError("not an exact division")
        qc = rem.pop(r_lead) / g_lc
        quotient[diff] = qc
        # rem -= qc * diff * g; the leading term cancels exactly and was popped
        for e, c in g_rest:
            t = tuple(map(add, diff, e))
            if t not in rem:
                rem[t] = -(qc * c)
            elif s := rem[t] - qc * c:
                rem[t] = s
            else:
                del rem[t]
    return MultiPoly._new(f.variables, quotient, f.field)


def divides(g: MultiPoly, f: MultiPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ValueError:
        return False


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g with respect to ``var`` (Sylvester determinant).

    If one is constant in ``var`` the Sylvester matrix is diagonal, so
    res(f, c) = c^deg(f); if both are, the resultant is 1.  Over Q it is
    one ``zpoly_resultant`` of a f and b g with int coefficients keyed
    without var's slot (a, b the lcms of their denominators), divided by
    a^deg(g) b^deg(f) with the slot put back as 0; that equals ``zpoly_det``
    of their Sylvester matrix, key order included.  Over Q(eps) it is one
    ``subresultant`` on the coefficients in ``var``, each an ``exact_div``.
    """
    f._check_compatible(g)
    zero = MultiPoly._new(f.variables, {}, f.field)
    if not f or not g:
        return zero
    df, dg = f.degree(var), g.degree(var)
    if df == 0 and dg == 0:
        return zero + 1
    if f.field != FIELD_Q:
        return subresultant(f.coeffs_in(var), g.coeffs_in(var)) or zero
    i = f.variables.index(var)
    a, b = (lcm(*(c.denominator for c in h.terms.values())) for h in (f, g))
    fc, gc = ([{} for _ in range(d + 1)] for d in (df, dg))
    for h, hc, s in ((f, fc, a), (g, gc, b)):
        for e, c in h.terms.items():  # var's slot is dropped from the key, not packed
            hc[e[i]][e[:i] + e[i + 1:]] = c.numerator * (s // c.denominator)
    res = zpoly_resultant(fc, gc)
    scale = a ** dg * b ** df
    return MultiPoly._new(f.variables, {e[:i] + (0,) + e[i:]: Fraction(c, scale) for e, c in res.items()}, FIELD_Q)


# ---------------------------------------------------------------------------
# univariate helpers over Q (used for squarefree parts and divisibility)


def _as_univariate(f: MultiPoly, var: str) -> list[int]:
    """Ascending coefficients of f times the lcm of its denominators; other variables must not occur."""
    if f.field != FIELD_Q:
        raise ValueError("univariate helpers work over Q")
    i = f.variables.index(var)
    d = lcm(*(c.denominator for c in f.terms.values()))
    coeffs = [0] * (f.degree(var) + 1)
    for e, c in f.terms.items():
        if any(k for j, k in enumerate(e) if j != i):
            raise ValueError(f"polynomial is not univariate in {var!r}")
        coeffs[e[i]] = c.numerator * (d // c.denominator)
    return coeffs


def _uni_to_poly(coeffs: Sequence[int], var: str, ring: MultiPoly) -> MultiPoly:
    i, n = ring.variables.index(var), len(ring.variables)
    terms = {(0,) * i + (k,) + (0,) * (n - i - 1): Fraction(c) for k, c in enumerate(coeffs) if c}
    return MultiPoly._new(ring.variables, terms, FIELD_Q)


def squarefree_part(f: MultiPoly, var: str) -> MultiPoly:
    """Squarefree part of a univariate Q-polynomial: primitive over Z, leading coefficient positive."""
    coeffs = _as_univariate(f, var)
    if not coeffs:
        raise ValueError("squarefree part of the zero polynomial")
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    q = exact_div(f, _uni_to_poly(zpoly_gcd(coeffs, deriv), var, f))
    return _uni_to_poly(zpoly_primitive(_as_univariate(q, var)), var, f)


# ---------------------------------------------------------------------------
# the curves under study


# f_b = b(-x^2 - x y^2 + y) + (x^3 - x y + y^3): exponents of (b, x, y) -> coefficient
_PENCIL = {(1, 2, 0): -1, (1, 1, 2): -1, (1, 0, 1): 1, (0, 3, 0): 1, (0, 1, 1): -1, (0, 0, 3): 1}


def cubic_pencil(b: Any) -> MultiPoly:
    """f_b = b(-x^2 - x y^2 + y) + (x^3 - x y + y^3) over Q or Q(eps)."""
    field = FIELD_QEPS if isinstance(b, QEps) else FIELD_Q
    b = _coerce_coeff(b, field)  # the six (i, j) are distinct, so only b = 0 can zero a term
    return MultiPoly._new(("x", "y"), {(i, j): c * b ** k for (k, i, j), c in _PENCIL.items() if b or not k}, field)


def nodal_cubic() -> MultiPoly:
    """The pencil member at b = 0."""
    return cubic_pencil(Fraction(0))


def cubic_pencil_generic() -> MultiPoly:
    """f_b with b as a polynomial variable, over Q[b, x, y]."""
    return MultiPoly._new(("b", "x", "y"), {e: Fraction(c) for e, c in _PENCIL.items()}, FIELD_Q)


def torus_sextic_factors() -> tuple[MultiPoly, MultiPoly]:
    """The two cubics whose product is the torus-type sextic."""
    x, y = poly_ring(("x", "y"))
    u = y ** 3 + y ** 2 + x ** 2
    return u, u - Fraction(4, 27)


def chart_cubic_factors() -> tuple[MultiPoly, MultiPoly]:
    """The sextic's factors in the chart ybar = y/x, zbar = 1/x.

    Homogenizing a factor of total degree d and setting x = 1 maps its
    term x^i y^j to ybar^j zbar^(d - i - j); both pass through the origin.
    """

    def chart(u: MultiPoly) -> MultiPoly:
        d = max(map(sum, u.terms))
        return MultiPoly._new(("ybar", "zbar"), {(j, d - i - j): c for (i, j), c in u.terms.items()}, FIELD_Q)

    u, v = torus_sextic_factors()
    return chart(u), chart(v)


def verify_node(f: MultiPoly, pt: Sequence[Any]) -> Any:
    """The Hessian determinant of f at pt if f, f_x and f_y vanish there, else None.

    Exact: fxx fyy - fxy^2 is formed in Z[eps] and divided once by the jet's squared
    denominator.  pt is a node of f = 0 exactly when it is nonzero (a cusp gives 0).
    """
    if len(f.variables) != 2:
        raise ValueError("verify_node expects a bivariate polynomial")
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    (value, fx, fy, fxx, fxy, fyy), den = f._jet_over_z(dict(zip(f.variables, pt)), orders)
    if any(value) or any(fx) or any(fy):
        return None
    return _from_z([map(sub, _eps_product(*fxx, *fyy), _eps_product(*fxy, *fxy))], den * den, f.field)[0]


def verify_torus_structure() -> Fraction | None:
    """The constant u v - ((u + v)/2)^2 of the sextic's factors (u, v), or None.

    The difference is -((u - v)/2)^2, so it is constant exactly when u - v
    is; for the factors u and u - 4/27 it is -4/729.
    """
    u, v = torus_sextic_factors()
    diff = u * v - ((u + v) * Fraction(1, 2)) ** 2
    return None if any(map(any, diff.terms)) else diff.terms.get((0, 0), Fraction(0))


def singular_parameters() -> MultiPoly:
    """Parameters b where f_b has an affine singular point: eliminate x, y.

    Iterated resultants: eliminate x from the pairs (f, f_x), (f, f_y),
    and (f_x, f_y), then eliminate y along two independent routes and
    intersect the eliminants (univariate gcd) to discard route-specific
    spurious factors.  Returns the squarefree part, integer-normalized;
    every parameter with an affine singular point is a root.  Raises
    InternalCheckError if an elimination step degenerates to the zero
    polynomial: the input is fixed, so that is a broken computation.
    """
    f = cubic_pencil_generic()
    fx, fy = f.partial("x"), f.partial("y")
    a = resultant(f, fx, "x")
    bb = resultant(f, fy, "x")
    c = resultant(fx, fy, "x")
    if not a or not bb or not c:
        raise InternalCheckError("degenerate elimination: vanishing resultant in x")
    r1 = resultant(a, c, "y")
    r2 = resultant(bb, c, "y")
    if not r1 or not r2:
        raise InternalCheckError("degenerate elimination: vanishing resultant in y")
    # over Q[b], sqfree(gcd(r1, r2)) = gcd(sqfree r1, sqfree r2)
    g = zpoly_gcd(_as_univariate(r1, "b"), _as_univariate(r2, "b"))
    return squarefree_part(_uni_to_poly(g, "b", r1), "b")


def intersection_multiplicity_origin(g: MultiPoly, h: MultiPoly) -> int:
    """Order of vanishing at zbar = 0 of res_ybar(g, h), for curves in ybar, zbar.

    Valid (and checked) when both curves pass through the origin, they
    share no component, their only common point on the line zbar = 0 is
    the origin, and no ybar-leading coefficient vanishes at zbar = 0.
    """
    for f in (g, h):
        if set(f.variables) != {"ybar", "zbar"}:
            raise ValueError("expected polynomials in 'ybar', 'zbar'")
        if f.evaluate({"ybar": 0, "zbar": 0}):
            raise ValueError("curve does not pass through the origin")
    # restriction to zbar = 0; the zero polynomial has no coefficients
    g_line, h_line = ((f.coeffs_in("zbar") or [f])[0] for f in (g, h))
    if not g_line and not h_line:
        raise ValueError("both curves contain the line zbar = 0")
    for f, f_line in ((g, g_line), (h, h_line)):
        dy = f.degree("ybar")
        if f_line and dy > 0 and not f.coeffs_in("ybar")[dy].evaluate({"ybar": 0, "zbar": 0}):
            raise ValueError("degenerate direction: leading coefficient vanishes at zbar = 0")
    # common points on the line must be confined to the origin; a curve that
    # contains the line restricts to 0, and gcd(a, 0) = a
    common = zpoly_gcd(_as_univariate(g_line, "ybar"), _as_univariate(h_line, "ybar"))
    if sum(1 for c in common if c) > 1:
        raise ValueError("degenerate direction: extra common points on zbar = 0")
    r = resultant(g, h, "ybar")
    if not r:
        raise ValueError("common factor: resultant vanishes identically")
    return r.valuation("zbar")


# ---------------------------------------------------------------------------
# text grammar


_POLY_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>-?\d+))?"
    r"|(?P<op>[+*-])|(?P<ws>\s+)"
)


def parse_polynomial(text: str, variables: Sequence[str] | None = None) -> MultiPoly:
    """Parse the grammar ``y^3 + y^2 + x^2 - 4/27`` over Q.

    Terms are separated by + or -; factors within a term are separated
    by ``*`` (or whitespace).  Variables default to the sorted set of
    names appearing in the text.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"bad character {text[pos]!r}", pos + 1)
        if m.group("var") is not None:
            exp = m.group("exp")
            if exp is not None:
                if int(exp) < 0:
                    raise ParseError("negative exponent", pos + 1)
                if int(exp) == 0:
                    raise ParseError("zero exponent", pos + 1)
                tokens.append(("varpow", f"{m.group('var')}^{exp}", pos + 1))
            else:
                tokens.append(("varpow", m.group("var"), pos + 1))
        elif m.group("num") is not None:
            tokens.append(("num", m.group("num"), pos + 1))
        elif m.group("op") is not None:
            tokens.append(("op", m.group("op"), pos + 1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial")

    # split into signed terms
    terms: list[tuple[int, list[tuple[str, str, int]]]] = []
    sign = 1
    factors: list[tuple[str, str, int]] = []
    expecting_factor = True
    for kind, val, col in tokens:
        if kind == "op" and val in "+-":
            if expecting_factor and factors:
                raise ParseError("dangling operator", col)
            if factors:
                terms.append((sign, factors))
                factors = []
                sign = 1
            if val == "-":
                sign = -sign
            expecting_factor = True
        elif kind == "op" and val == "*":
            if expecting_factor:
                raise ParseError("misplaced '*'", col)
            expecting_factor = True
        else:
            factors.append((kind, val, col))
            expecting_factor = False
    if expecting_factor and not factors:
        raise ParseError("dangling operator", len(text))
    if factors:
        terms.append((sign, factors))

    seen: set[str] = set()
    parsed: list[tuple[int, Fraction, dict[str, int]]] = []
    for sgn, fs in terms:
        coeff = Fraction(1)
        exps: dict[str, int] = {}
        for kind, val, col in fs:
            if kind == "num":
                if "/" in val:
                    n, d = val.split("/")
                    if int(d) == 0:
                        raise ParseError("zero denominator", col)
                    coeff *= Fraction(int(n), int(d))
                else:
                    coeff *= int(val)
            else:
                name, _, e = val.partition("^")
                k = int(e) if e else 1
                exps[name] = exps.get(name, 0) + k
                seen.add(name)
        parsed.append((sgn, coeff, exps))

    var_tuple = tuple(variables) if variables is not None else tuple(sorted(seen))
    unknown = seen - set(var_tuple)
    if unknown:
        raise ParseError(f"unknown variable(s) {sorted(unknown)}")
    ring_terms: list[tuple[tuple[int, ...], Any]] = []
    for sgn, coeff, exps in parsed:
        e = tuple(exps.get(v, 0) for v in var_tuple)
        ring_terms.append((e, sgn * coeff))
    return MultiPoly(var_tuple, ring_terms, FIELD_Q)

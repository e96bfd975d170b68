"""Alexander polynomials of weighted presentations via Fox calculus.

Each generator g carries an integer weight w(g); the weight homomorphism
sends g to t^w(g).  Fox derivatives satisfy d(uv) = du + phi(u) dv and
d(g^-1) = -phi(g^-1), evaluated here directly through the weight map, so
derivatives land in Z[t, t^-1].  The Alexander polynomial is the gcd of
the (n-1)x(n-1) minors of the Alexander matrix, normalized so the lowest
exponent is 0 and the constant term is positive.  Each row is shifted
into Z[t] by a unit, its lowest power of t, so every minor is one
``zpoly_det`` up to a unit; the gcd is the primitive remainder sequence in
Z[t], which normalizes units away.  Both come from ``ring``.

Fox's fundamental formula (Fox 1953, "Free differential calculus I",
Ann. Math. 57; Crowell & Fox, *Introduction to Knot Theory*, ch. VII)
says sum_j (dr/dg_j)(t^w(g_j) - 1) = t^w(r) - 1 for every relator r.  It
certifies the Alexander matrix row by row.  When every relator has weight
zero, the columns c_j satisfy sum_j c_j (t^w(g_j) - 1) = 0, so on any
rows the minor M_j omitting column j obeys
(t^w(g_k) - 1) M_j = +-(t^w(g_j) - 1) M_k.  If w(g_k) = +-1 the factor
(t^w(g_k) - 1) divides (t^w(g_j) - 1), and the minors omitting column k
alone have the gcd of all of them.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalCheckError
from .presentation import Presentation
from .ring import zpoly_det, zpoly_gcd
from .words import Word

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping


class LaurentPoly:
    """An integer Laurent polynomial in one variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        self.coeffs: dict[int, int] = {e: c for e, c in acc.items() if c}

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int) -> LaurentPoly:
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def normalized(self) -> LaurentPoly:
        """Canonical unit form: lowest exponent 0, constant term positive."""
        if not self:
            return self
        low = min(self.coeffs)
        out = self.shift(-low)
        if out.coeffs[0] < 0:
            out = -out
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self:
            return "0"
        parts: list[str] = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if mag == 1 else f"{mag}*{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _poly_coeff_list(p: LaurentPoly) -> list[int]:
    """Ascending coefficients of a nonzero ``p`` shifted to an ordinary polynomial."""
    low, high = min(p.coeffs), max(p.coeffs)
    return [p.coeffs.get(e, 0) for e in range(low, high + 1)]


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Gcd up to units, in canonical normalized form."""
    if not p:
        return q.normalized()
    if not q:
        return p.normalized()
    g = zpoly_gcd(_poly_coeff_list(p), _poly_coeff_list(q))
    return LaurentPoly(dict(enumerate(g))).normalized()


class WeightedPresentation:
    """A presentation with an integer weight for every generator.

    The weights define the map g -> t^w(g); ``weight_defect`` lists the
    relators whose total weight is nonzero (for such relators the weight
    map does not kill them, which is worth knowing but is not an error:
    the Fox matrix is still formally defined and is computed as given).
    """

    __slots__ = ("presentation", "weights")

    def __init__(self, presentation: Presentation, weights: Mapping[str, int]):
        if missing := [g for g in presentation.generators if g not in weights]:
            raise ValueError(f"missing weight for generator(s) {missing}")
        if extra := [g for g in weights if g not in presentation.generators]:
            raise ValueError(f"weight for non-generator(s) {extra}")
        self.presentation, self.weights = presentation, {g: int(weights[g]) for g in presentation.generators}

    def weight_defect(self) -> list[tuple[str, int]]:
        out = []
        for r in self.presentation.relators:
            w = sum(e * self.weights[g] for g, e in r.syllables)
            if w:
                out.append((str(r), w))
        return out


def fox_derivative(w: Word, gen: str, weights: Mapping[str, int]) -> LaurentPoly:
    """The Fox derivative d w / d gen, evaluated through the weight map.

    Follows d(uv) = du + phi(u) dv with d(g) = 1 and d(g^-1) = -t^-w(g).
    The terms of all syllables are summed into one dict, so the cost is
    linear in the exponents.
    """
    out: dict[int, int] = {}
    prefix = 0  # weight of the prefix read so far
    for g, e in w.syllables:
        if g not in weights:
            raise ValueError(f"no weight for generator {g!r}")
        wg = weights[g]
        if g == gen:
            if e > 0:
                for i in range(e):
                    k = prefix + i * wg
                    out[k] = out.get(k, 0) + 1
            else:
                for i in range(1, -e + 1):
                    k = prefix - i * wg
                    out[k] = out.get(k, 0) - 1
        prefix += e * wg
    return LaurentPoly(out)


def alexander_matrix(wp: WeightedPresentation) -> list[list[LaurentPoly]]:
    """Rows indexed by relators, columns by generators."""
    P = wp.presentation
    return [
        [fox_derivative(r, g, wp.weights) for g in P.generators]
        for r in P.relators
    ]


def _certify_fox_matrix(wp: WeightedPresentation, matrix: list[list[LaurentPoly]]) -> None:
    """Check Fox's fundamental formula, with or without defect, on every row."""
    P = wp.presentation
    for r, row in zip(P.relators, matrix):
        total = LaurentPoly()
        for g, entry in zip(P.generators, row):
            total = total + entry.shift(wp.weights[g]) - entry
        weight = sum(e * wp.weights[g] for g, e in r.syllables)
        if total != LaurentPoly.term(1, weight) - LaurentPoly.one():
            raise InternalCheckError(f"Fox row of relator {r} fails the fundamental formula")


def alexander_polynomial(wp: WeightedPresentation) -> LaurentPoly:
    """Gcd of the (n-1)x(n-1) minors of the Alexander matrix, normalized.

    With n generators and fewer than n-1 relators the gcd is over an
    empty set of minors and the result is 0; with n = 1 the empty minor
    has determinant 1 and the polynomial is trivial.  The matrix is
    certified before any minor is taken, and with every relator of weight
    zero and some generator of weight +-1 only the minors omitting that
    generator's column are taken (see the module docstring).
    """
    P = wp.presentation
    n = len(P.generators)
    m = len(P.relators)
    if n == 1:
        return LaurentPoly.one()
    size = n - 1
    if m < size:
        return LaurentPoly()
    matrix = alexander_matrix(wp)
    _certify_fox_matrix(wp, matrix)
    units = [k for k, g in enumerate(P.generators) if abs(wp.weights[g]) == 1]
    if units and not wp.weight_defect():
        column_sets = [tuple(j for j in range(n) if j != units[0])]
    else:
        column_sets = list(combinations(range(n), size))
    shifted = []  # each row times the unit t^-(its lowest exponent), so in Z[t]
    for row in matrix:
        low = min((e for p in row for e in p.coeffs), default=0)
        shifted.append([{(e - low,): c for e, c in p.coeffs.items()} for p in row])
    acc = LaurentPoly()
    for rows in combinations(range(m), size):
        for cols in column_sets:
            det = zpoly_det([[shifted[i][j] for j in cols] for i in rows])
            acc = laurent_gcd(acc, LaurentPoly({e: c for (e,), c in det.items()}))
            if acc == LaurentPoly.one():
                return acc
    return acc.normalized()

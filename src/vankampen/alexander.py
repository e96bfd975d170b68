"""Alexander polynomials of weighted presentations via Fox calculus.

Each generator g carries an integer weight w(g); the weight homomorphism
sends g to t^w(g).  Fox derivatives satisfy d(uv) = du + phi(u) dv and
d(g^-1) = -phi(g^-1), evaluated here directly through the weight map, so
derivatives land in Z[t, t^-1].  The Alexander polynomial is the gcd of
the (n-1)x(n-1) minors of the Alexander matrix, normalized so the lowest
exponent is 0 and the constant term is positive.  Each row is shifted
into Z[t] once, by the unit t^-low with low its lowest exponent, so every
minor is one ``zpoly_det`` up to a unit; the gcd is the primitive
remainder sequence in Z[t], which normalizes units away and takes a zero
minor on the same path (gcd(a, 0) = a).  Both come from ``ring``.
``LaurentPoly`` is only the type of the result and of the Fox entries:
it filters zero terms, normalizes and prints, and has no arithmetic.

Fox's fundamental formula (Fox 1953, "Free differential calculus I",
Ann. Math. 57; Crowell & Fox, *Introduction to Knot Theory*, ch. VII)
says sum_j (dr/dg_j)(t^w(g_j) - 1) = t^w(r) - 1 for every relator r.
Times t^-low it reads sum_j S_j (t^w(g_j) - 1) = t^(w(r) - low) - t^-low
on the shifted row S, and it is checked there, on the very entries every
minor reads.  When every relator has weight zero, the columns c_j satisfy
sum_j c_j (t^w(g_j) - 1) = 0, so on any rows the minor M_j omitting
column j obeys (t^w(g_k) - 1) M_j = +-(t^w(g_j) - 1) M_k.  If
w(g_k) = +-1 the factor (t^w(g_k) - 1) divides (t^w(g_j) - 1), and the
minors omitting column k alone have the gcd of all of them.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalCheckError
from .presentation import Presentation
from .ring import zpoly_det, zpoly_gcd
from .words import Word

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping


class LaurentPoly:
    """An integer Laurent polynomial in one variable t: exponent -> nonzero coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = {}):
        self.coeffs: dict[int, int] = {e: c for e, c in coeffs.items() if c}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def normalized(self) -> LaurentPoly:
        """Canonical unit form: lowest exponent 0, constant term positive."""
        if not self:
            return self
        low = min(self.coeffs)
        sign = 1 if self.coeffs[low] > 0 else -1
        return LaurentPoly({e - low: sign * c for e, c in self.coeffs.items()})

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
    """Ascending coefficients of ``p`` shifted to an ordinary polynomial; [] for 0."""
    low = min(p.coeffs, default=0)
    return [p.coeffs.get(e, 0) for e in range(low, max(p.coeffs, default=-1) + 1)]


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Gcd up to units, in canonical normalized form."""
    g = zpoly_gcd(_poly_coeff_list(p), _poly_coeff_list(q))
    return LaurentPoly(dict(enumerate(g))).normalized()


class WeightedPresentation:
    """A presentation with an integer weight for every generator.

    The weights define the map g -> t^w(g).  A relator of nonzero total
    weight is not killed by that map; this is not an error, since the Fox
    matrix is still formally defined and is computed as given.
    """

    __slots__ = ("presentation", "weights")

    def __init__(self, presentation: Presentation, weights: Mapping[str, int]):
        if extra := [g for g in weights if g not in presentation.generators]:
            raise ValueError(f"weight for non-generator(s) {extra}")
        if missing := [g for g in presentation.generators if g not in weights]:
            raise ValueError(f"missing weight for generator(s) {missing}")
        self.presentation, self.weights = presentation, {g: int(weights[g]) for g in presentation.generators}


def fox_derivative(w: Word, gen: str, weights: Mapping[str, int]) -> LaurentPoly:
    """The Fox derivative d w / d gen, evaluated through the weight map.

    Follows d(uv) = du + phi(u) dv with d(g) = 1 and d(g^-1) = -t^-w(g),
    so a syllable gen^e after a prefix of weight a contributes
    +t^(a + i w) for 0 <= i < e, or -t^(a + i w) for e <= i < 0, with w
    the weight of gen: one range for either sign.  The terms of all
    syllables are summed into one dict, so the cost is linear in the
    exponents.
    """
    out: dict[int, int] = {}
    prefix = 0  # weight of the prefix read so far
    for g, e in w.syllables:
        if g not in weights:
            raise ValueError(f"no weight for generator {g!r}")
        wg = weights[g]
        if g == gen:
            sign = 1 if e > 0 else -1
            for i in range(min(e, 0), max(e, 0)):
                k = prefix + i * wg
                out[k] = out.get(k, 0) + sign
        prefix += e * wg
    return LaurentPoly(out)


def alexander_matrix(wp: WeightedPresentation) -> list[list[LaurentPoly]]:
    """Rows indexed by relators, columns by generators."""
    P = wp.presentation
    return [
        [fox_derivative(r, g, wp.weights) for g in P.generators]
        for r in P.relators
    ]


def alexander_polynomial(wp: WeightedPresentation) -> LaurentPoly:
    """Gcd of the (n-1)x(n-1) minors of the Alexander matrix, normalized.

    With n generators and fewer than n-1 relators the gcd is over an
    empty set of minors and the result is 0; with n = 1 the empty minor
    has determinant 1 and the polynomial is trivial.  Every shifted row is
    certified before any minor is taken, and with every relator of weight
    zero and some generator of weight +-1 only the minors omitting that
    generator's column are taken (see the module docstring).
    """
    P = wp.presentation
    n = len(P.generators)
    size = n - 1
    gen_weights = [wp.weights[g] for g in P.generators]
    shifted, defect = [], False
    for r, fox_row in zip(P.relators, alexander_matrix(wp)):
        low = min((e for p in fox_row for e in p.coeffs), default=0)
        row = [{(e - low,): c for e, c in p.coeffs.items()} for p in fox_row]
        weight = sum(e * wp.weights[g] for g, e in r.syllables)
        defect = defect or weight != 0
        # sum_j row_j (t^w_j - 1) - t^(weight - low) + t^-low must vanish
        total = {weight - low: -1}
        total[-low] = total.get(-low, 0) + 1
        for entry, w in zip(row, gen_weights):
            for (e,), c in entry.items():
                total[e + w] = total.get(e + w, 0) + c
                total[e] = total.get(e, 0) - c
        if any(total.values()):
            raise InternalCheckError(f"Fox row of relator {r} fails the fundamental formula")
        shifted.append(row)
    if n == 1:
        return LaurentPoly({0: 1})
    units = [k for k, w in enumerate(gen_weights) if abs(w) == 1]
    if units and not defect:
        column_sets = [tuple(j for j in range(n) if j != units[0])]
    else:
        column_sets = list(combinations(range(n), size))
    acc = LaurentPoly()
    for rows in combinations(shifted, size):
        for cols in column_sets:
            det = zpoly_det([[row[j] for j in cols] for row in rows])
            acc = laurent_gcd(acc, LaurentPoly({e: c for (e,), c in det.items()}))
            if acc == LaurentPoly({0: 1}):
                return acc
    return acc

"""Exact algebra shared by the alexander and curves layers.

The module imports nothing from the rest of the package, nor from
``fractions``: apart from ``subresultant``, which runs in any integral
domain whose ``//`` is exact division, every kernel works over Z or
Z[t_1..t_k], and callers with rational inputs clear denominators first.
One implementation per algorithm:

- ``bareiss_det``: fraction-free Gaussian elimination (Bareiss 1968,
  *Sylvester's identity and multistep integer-preserving Gaussian
  elimination*) over Z.  Every entry after step k is a (k+1)x(k+1) minor
  of the input, so entries stay as small as minors are.
- ``zpoly_gcd``: the gcd in Z[t] by the primitive polynomial remainder
  sequence (Knuth, TAOCP vol. 2, 4.6.1), on ascending coefficient lists,
  with ``zpoly_primitive`` the primitive part it normalizes by and
  ``_pseudo_rem`` the one exact pseudo-remainder.
- ``zpoly_det``: the determinant over Z[t_1..t_k] as one integer
  ``bareiss_det``, by Kronecker substitution (von zur Gathen & Gerhard,
  *Modern Computer Algebra*, 8.4) with per-variable degree bounds from the
  rows and columns (Collins 1971) and a Hadamard-type coefficient bound
  from the entries' 1-norms (Goldstein & Graham, SIAM Rev. 16, 1974),
  every position measured and packed in row order (``_kronecker``).
  The step from those bounds to the point, with the packing (``_pack``),
  and the read-back (``_read_back``) exist once; ``zpoly_resultant``
  shares them.
- ``subresultant``: the determinant of the Sylvester matrix by the
  subresultant remainder sequence (Brown & Traub 1971), O(df dg) ring
  operations where Bareiss takes O((df + dg)^3).  ``zpoly_resultant`` runs
  it on the coefficients packed at that matrix's Kronecker point, read off
  the two coefficient lists without building the matrix, with no case
  for a constant side, and ``curves`` on polynomials over Q(eps).
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, prod
from operator import mul

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from typing import Any


def bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a nonempty square integer matrix by Bareiss elimination.

    Each step after the first divides exactly by the previous pivot; the
    first, whose divisor is 1, divides nothing.  Rows of ``m`` are overwritten.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk = m[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                num = pk * ri[j] - rik * rk[j]
                ri[j] = num if prev is None else num // prev
        prev = pk
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _kronecker(m: list[list[dict[tuple[int, ...], int]]]) -> tuple[list[int], tuple[int, list[int]]] | None:
    """The Kronecker point of a nonempty square matrix over Z[t_1..t_k]:
    its entries packed there in row order, and the (bits, radices) that
    ``_read_back`` takes; None for a zero row or column.

    Each term of a minor takes at most one entry from every row and every
    column, so its degree in t_j is at most D_j, the smaller of the sums over
    rows and over columns of the largest entry degree in t_j.  On the torus
    |t_j| = 1 an entry is at most its coefficient 1-norm in absolute value,
    so by Hadamard's inequality a minor is at most sqrt(X) there, X the
    smaller of the products over rows and over columns of the sums of
    squared 1-norms (each sum of a nonzero line is at least 1).  Each
    coefficient, an average over the torus, is an integer of absolute value
    at most sqrt(X), hence at most H = isqrt(X) (Goldstein & Graham 1974).
    So at t_j = B^((D_1 + 1) ... (D_(j-1) + 1)), with B = 2^bits > 2H,
    every coefficient of every minor is one balanced base-B digit.
    """
    squares = [[sum(map(abs, p.values())) ** 2 for p in row] for row in m]
    x = min(prod(map(sum, squares)), prod(map(sum, zip(*squares))))
    if not x:
        return None
    zeros = (0,) * len(next(e for row in m for p in row for e in p))
    tops = [[tuple(map(max, zip(*p))) or zeros for p in row] for row in m]
    by_rows, by_columns = ([tuple(map(max, zip(*line))) for line in lines] for lines in (tops, zip(*tops)))
    degrees = [min(r, c) for r, c in zip(map(sum, zip(*by_rows)), map(sum, zip(*by_columns)))]
    return _pack(x, degrees, [p for row in m for p in row])


def _pack(x: int, degrees: list[int], polys: Iterable[dict[tuple[int, ...], int]]) -> tuple[list[int], tuple[int, list[int]]]:
    """``polys`` packed at the Kronecker point that ``_kronecker`` derives
    from a bound X and degree bounds D_j, with the (bits, radices) that
    ``_read_back`` takes: bits = isqrt(X).bit_length() + 1, radices D_j + 1.
    """
    radices = [d + 1 for d in degrees]
    strides = [prod(radices[:j]) for j in range(len(radices))]
    bits = isqrt(x).bit_length() + 1
    return [sum(c << bits * sum(map(mul, e, strides)) for e, c in p.items()) for p in polys], (bits, radices)


def _read_back(value: int, bits: int, radices: list[int]) -> dict[tuple[int, ...], int]:
    """The polynomial whose balanced base-2^bits digits ``value`` holds, in ascending digit order."""
    out, half, mask = {}, 1 << bits - 1, (1 << bits) - 1
    keys = product(*map(range, reversed(radices)))  # ascending digits: lex order of the reversed key
    while value:
        digit, key = ((value + half) & mask) - half, next(keys)
        if digit:
            out[key[::-1]] = digit
        value = (value - digit) >> bits
    return out


def zpoly_det(m: list[list[dict[tuple[int, ...], int]]]) -> dict[tuple[int, ...], int]:
    """Determinant of a nonempty square matrix over Z[t_1..t_k] by one
    integer ``bareiss_det`` at the matrix's ``_kronecker`` point.  Entries
    and result map exponent tuples to ints.
    """
    point = _kronecker(m)
    if point is None:
        return {}
    packed, read = point
    n = len(m)
    return _read_back(bareiss_det([packed[i:i + n] for i in range(0, n * n, n)]), *read)


def subresultant(a: list[Any], b: list[Any]) -> Any:
    """Resultant of ascending coefficient lists of degrees da, db >= 0, not
    both 0, with nonzero leading coefficients, over an integral domain whose
    ``//`` is exact division: their Sylvester determinant by the subresultant
    remainder sequence (Brown & Traub, J. ACM 18, 1971; Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 3.3.7, without contents), or
    None when it is zero.  Zeros are tested only on the coefficients of each
    pseudo-remainder divided by g h^delta and on their leaders, never inside
    ``_pseudo_rem``, which runs for a fixed number of steps.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = a[-1] ** 0
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        q = g * h ** delta
        a, b = b, [c // q for c in _pseudo_rem(a, b)]
        while b and not b[-1]:
            b.pop()
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    if not b:
        return None
    da = len(a) - 1
    return sign * (b[0] ** da // h ** (da - 1))


def zpoly_resultant(fc: list[dict[tuple[int, ...], int]], gc: list[dict[tuple[int, ...], int]]) -> dict[tuple[int, ...], int]:
    """Resultant over Z[t_1..t_k] of ascending coefficient lists of degrees
    df, dg >= 0, not both 0, with nonzero leading coefficients: one
    ``subresultant`` on integers packed at the ``_kronecker`` point of their
    Sylvester matrix, so the result equals ``zpoly_det`` of that matrix, key
    order included.  Swapping f and g permutes the matrix's rows, so the
    point does not depend on their order.

    The point is read off fc and gc; no matrix is built.  Each of the dg
    f-rows holds every coefficient of f once and zeros, and each of the df
    g-rows every coefficient of g, so the row products and row degree sums
    have closed forms.  Column c < n = df + dg holds the runs
    fc[max(0, df - c) : min(df, n - 1 - c) + 1] and
    gc[max(0, dg - c) : min(dg, n - 1 - c) + 1] and zeros, and a zero adds
    nothing to a sum of squared 1-norms nor, degrees being nonnegative, to
    a largest degree, so each column's sum and top are its runs'.  No row is
    zero, as each holds a leading coefficient; every column before
    max(df, dg) holds one too, and every later column holds fc[0] and
    gc[0], the last nothing else.  So a zero column, where ``_kronecker``
    finds no point, is there exactly when fc[0] and gc[0] are both zero,
    and then the resultant is 0.  A constant side takes the same path, with
    no separate branch: ``subresultant``'s last step computes its power.

    Soundness rests on one rule.  Evaluation at the Kronecker point is a
    ring map, so every division that is exact in Z[t_1..t_k] (a
    pseudo-remainder by g h^delta, the update of h, the final
    l(B)^dA / h^(dA - 1)) stays exact in Z under ``//``.  But a zero test is
    faithful only on a value whose coefficients are minors of the Sylvester
    matrix, which the packing's bounds H and D_j cover.  The coefficients of
    each pseudo-remainder divided by g h^delta are such minors (it is a
    subresultant up to sign), and g and h are leading coefficients of such
    values, which is where ``subresultant`` tests.
    """
    if not fc[0] and not gc[0]:
        return {}
    df, dg = len(fc) - 1, len(gc) - 1
    n = df + dg
    runs = [(max(0, df - c), min(df, n - 1 - c) + 1, max(0, dg - c), min(dg, n - 1 - c) + 1) for c in range(n)]
    sf, sg = ([sum(map(abs, p.values())) ** 2 for p in h] for h in (fc, gc))
    x = min(sum(sf) ** dg * sum(sg) ** df, prod(sum(sf[a:b]) + sum(sg[u:v]) for a, b, u, v in runs))
    zeros = (0,) * len(next(iter(fc[-1])))
    tf, tg = ([tuple(map(max, zip(*p))) or zeros for p in h] for h in (fc, gc))
    degrees = [min(dg * max(f) + df * max(g), sum(max(f[a:b] + g[u:v]) for a, b, u, v in runs))
               for f, g in zip(zip(*tf), zip(*tg))]
    packed, read = _pack(x, degrees, fc + gc)
    return _read_back(subresultant(packed[:df + 1], packed[df + 1:]) or 0, *read)


def zpoly_primitive(f: list[int]) -> list[int]:
    """f divided by its content, trimmed, leading coefficient positive."""
    c = gcd(*f)
    if c == 0:
        return []
    out = [x // c for x in f]
    while out[-1] == 0:
        out.pop()
    return out if out[-1] > 0 else [-x for x in out]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """lc(g)^(df - dg + 1) f mod g, g of degree dg with a nonzero
    leading coefficient: df - dg + 1 steps with no zero test inside, the
    result untrimmed (dg coefficients when df >= dg); f is left as it is."""
    dg, lg = len(g) - 1, g[-1]
    monic = lg == lg ** 0  # the ring's own one, so a monic MultiPoly divisor counts too
    f = f[:]
    for top in range(len(f) - 1, dg - 1, -1):
        lead = f.pop()
        if not monic:  # a monic divisor would rescale all of f per step for nothing
            f = [lg * c for c in f]
        for i in range(dg):
            f[top - dg + i] -= lead * g[i]
    return f


def zpoly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Gcd in Z[t] by the primitive Euclidean algorithm.

    Coefficient lists are ascending; the result has a positive leading
    coefficient, and is [] only when both inputs are zero.
    """
    cont = gcd(*f, *g)
    a, b = zpoly_primitive(f), zpoly_primitive(g)
    while b:
        a, b = b, zpoly_primitive(_pseudo_rem(a, b))
    return [cont * c for c in a]

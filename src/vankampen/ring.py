"""Exact integer algebra shared by the alexander and curves layers.

The module imports nothing from the rest of the package, nor from
``fractions``: apart from ``bareiss_det``, which takes the ring's exact
division as an argument, every kernel works over Z or Z[t_1..t_k], and
callers with rational inputs clear denominators first.  One
implementation per algorithm:

- ``bareiss_det``: fraction-free Gaussian elimination (Bareiss 1968,
  *Sylvester's identity and multistep integer-preserving Gaussian
  elimination*) over any integral domain whose exact division is passed
  in.  Every entry after step k is a (k+1)x(k+1) minor of the input, so
  entries never leave the ring and stay as small as minors are.
- ``zpoly_gcd``: the gcd in Z[t] by the primitive polynomial remainder
  sequence (Knuth, TAOCP vol. 2, 4.6.1), on ascending coefficient lists,
  with ``zpoly_primitive`` the primitive part it normalizes by.
- ``zpoly_det``: the determinant over Z[t_1..t_k] as one integer
  ``bareiss_det``, by Kronecker substitution (von zur Gathen & Gerhard,
  *Modern Computer Algebra*, 8.4) with per-variable degree bounds from the
  rows and columns (Collins 1971) and a Hadamard-type coefficient bound
  from the entries' 1-norms (Goldstein & Graham, SIAM Rev. 16, 1974),
  each distinct entry object measured and packed once.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from operator import floordiv, mul

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Callable


def bareiss_det(m: list[list[Any]], div: Callable[[Any, Any], Any]) -> Any:
    """Determinant of a nonempty square matrix by Bareiss elimination.

    ``div(a, b)`` must return the exact quotient a / b; it is called only
    where b divides a, and not at the first step (whose divisor is 1).
    Zero is tested by truthiness.  Rows of ``m`` are overwritten.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return m[k][k]  # the zero of the ring
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk = m[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                num = pk * ri[j] - rik * rk[j]
                ri[j] = num if prev is None else div(num, prev)
        prev = pk
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def zpoly_det(m: list[list[dict[tuple[int, ...], int]]]) -> dict[tuple[int, ...], int]:
    """Determinant of a nonempty square matrix over Z[t_1..t_k] by one
    integer ``bareiss_det``.  Entries and result map exponent tuples to ints.

    Each term of the determinant takes one entry from every row and every
    column, so its degree in t_j is at most D_j, the smaller of the sums over
    rows and over columns of the largest entry degree in t_j.  On the torus
    |t_j| = 1 an entry is at most its coefficient 1-norm in absolute value,
    so by Hadamard's inequality the determinant is at most sqrt(X) there, X
    the smaller of the products over rows and over columns of the sums of
    squared 1-norms.  Each coefficient, an average over the torus, is an
    integer of absolute value at most sqrt(X), hence at most H = isqrt(X)
    (Goldstein & Graham 1974).  So at t_j =
    B^((D_1 + 1) ... (D_(j-1) + 1)), with B = 2^bits > 2H, every coefficient
    is one balanced base-B digit of the integer determinant.

    Each distinct entry object is measured and packed once per call, indexed
    by ``id``: a Sylvester matrix repeats a few coefficients and one zero.
    """
    ids = [[id(p) for p in row] for row in m]
    entries = {id(p): p for row in m for p in row}
    square = {i: sum(map(abs, p.values())) ** 2 for i, p in entries.items()}
    squares = [[square[i] for i in row] for row in ids]
    x = min(prod(map(sum, squares)), prod(map(sum, zip(*squares))))
    if not x:  # a zero row or column
        return {}
    zeros = (0,) * len(next(e for p in entries.values() for e in p))
    top = {i: tuple(map(max, zip(*p))) or zeros for i, p in entries.items()}
    tops = [[top[i] for i in row] for row in ids]
    by_rows, by_columns = ([tuple(map(max, zip(*line))) for line in lines] for lines in (tops, zip(*tops)))
    radices = [1 + min(r, c) for r, c in zip(map(sum, zip(*by_rows)), map(sum, zip(*by_columns)))]
    strides = [prod(radices[:j]) for j in range(len(radices))]
    bits = isqrt(x).bit_length() + 1
    packed = {i: sum(c << bits * sum(map(mul, e, strides)) for e, c in p.items()) for i, p in entries.items()}
    det = bareiss_det([[packed[i] for i in row] for row in ids], floordiv)
    out, k, half, mask = {}, 0, 1 << bits - 1, (1 << bits) - 1
    while det:
        digit = ((det + half) & mask) - half
        if digit:
            out[tuple(k // s % r for s, r in zip(strides, radices))] = digit
        det = (det - digit) >> bits
        k += 1
    return out


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
    """Pseudo-remainder of f by g over Z (both trimmed, g nonzero); f is left as it is."""
    dg, lg = len(g) - 1, g[-1]
    f = f[:]
    while len(f) - 1 >= dg:
        df, lead = len(f) - 1, f[-1]
        if lg != 1:  # a monic divisor would rescale all of f per step for nothing
            f = [lg * c for c in f]
        for i, gc in enumerate(g):
            f[df - dg + i] -= lead * gc
        while f and f[-1] == 0:
            f.pop()
    return f


def zpoly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Gcd in Z[t] by the primitive Euclidean algorithm.

    Coefficient lists are ascending; the result has a positive leading
    coefficient, and is [] only when both inputs are zero.
    """
    cont = gcd(*f, *g)
    if cont == 0:
        return []
    a, b = zpoly_primitive(f), zpoly_primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, zpoly_primitive(_pseudo_rem(a, b))
    return [cont * c for c in a]

"""Exact algebra shared by the abelian, alexander and curves layers.

One implementation per algorithm:

- ``bareiss_det``: fraction-free Gaussian elimination (Bareiss 1968,
  *Sylvester's identity and multistep integer-preserving Gaussian
  elimination*) over any integral domain whose exact division is passed
  in.  Every entry after step k is a (k+1)x(k+1) minor of the input, so
  entries never leave the ring and stay as small as minors are.
- ``zpoly_gcd``: the gcd in Z[t] by the primitive polynomial remainder
  sequence (Knuth, TAOCP vol. 2, 4.6.1), on ascending coefficient lists.
- ``qpoly_gcd``: the monic gcd in Q[t], by clearing denominators and
  running ``zpoly_gcd``.
- ``zpoly_interpolate``: the polynomial in Z[t] of degree at most D through
  its values at t = 0..D, by Newton's forward differences scaled by D!.

Of the rest of the package this module imports only an exception type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable

from .errors import InternalCheckError


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


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, trimmed, leading coefficient positive."""
    c = gcd(*f)
    if c == 0:
        return []
    out = [x // c for x in f]
    while out[-1] == 0:
        out.pop()
    return out if out[-1] > 0 else [-x for x in out]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of f by g over Z (both trimmed, g nonzero)."""
    dg, lg = len(g) - 1, g[-1]
    while len(f) - 1 >= dg:
        df, lead = len(f) - 1, f[-1]
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
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return [cont * c for c in a]


def _cleared(f: list[Fraction]) -> list[int]:
    """An integer multiple of a rational coefficient list."""
    d = lcm(*(c.denominator for c in f))
    return [c.numerator * (d // c.denominator) for c in f]


def qpoly_gcd(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Monic gcd in Q[t] of ascending coefficient lists; [] if both are zero."""
    h = zpoly_gcd(_cleared(f), _cleared(g))
    return [Fraction(c, h[-1]) for c in h]


def zpoly_interpolate(values: list[int]) -> list[int]:
    """Trimmed ascending coefficients of the p in Z[t] of degree at most
    D = len(values) - 1 with p(k) = values[k] for k = 0..D.  D! p(t) is the
    sum of d_k (D!/k!) t (t-1) ... (t-k+1), d_k the k-th forward difference
    at 0, by Horner's scheme over the falling factorials; then divide by D!.
    """
    d = list(values)  # d[k] becomes the k-th forward difference at 0
    for k in range(1, len(d)):
        d[k:] = [b - a for a, b in zip(d[k - 1:], d[k:])]
    acc, weight = [], 1  # weight = D!/k!
    for k in range(len(d) - 1, -1, -1):
        acc = [lo - k * hi for lo, hi in zip([0] + acc, acc + [0])]  # acc * (t - k)
        acc[0] += d[k] * weight
        weight *= k or 1
    if any(c % weight for c in acc):
        raise InternalCheckError(f"values at t = 0..{len(d) - 1} fit no polynomial over Z")
    while acc and not acc[-1]:
        acc.pop()
    return [c // weight for c in acc]

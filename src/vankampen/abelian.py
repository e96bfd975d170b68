"""Abelianization of finite presentations via Smith normal form.

Everything is exact integer arithmetic.  ``smith_normal_form`` has one
elimination routine, ``_echelon``, which brings a matrix to row echelon
form by row operations with positive pivots, reducing the entries above
each pivot modulo it, so the matrix and its transform stay within a small
multiple of the determinant's size in bits (Kannan & Bachem 1979; Cohen,
*A Course in Computational Algebraic Number Theory*, 2.4).  It runs on the
rows and then on the columns, in turn, until the matrix is diagonal; where
a diagonal entry does not divide the next, one column addition folds the
next into it and the alternation resumes.  All quotients are rounded to
the nearest integer.  The result comes with the unimodular row and column
transforms, and the certificate (U M V = D, det U, det V = +-1, D
diagonal, divisibility chain) is re-verified before returning; the
determinants come from the shared Bareiss elimination in ``ring``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import floordiv, mul
from typing import Sequence

from .errors import InternalCheckError
from .presentation import Presentation
from .ring import bareiss_det


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix, stored row-major."""

    nrows: int
    ncols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.ncols + j]

    def rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.ncols:(i + 1) * self.ncols])
            for i in range(self.nrows)
        ]

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = [other.entries[j::other.ncols] for j in range(other.ncols)]
        return IntMatrix(
            self.nrows,
            other.ncols,
            tuple(sum(map(mul, row, col)) for row in self.rows() for col in cols),
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return bareiss_det(self.rows(), floordiv) if self.nrows else 1


def relator_matrix(P: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    return IntMatrix.from_rows(
        [[r.exponent_sum(g) for g in P.generators] for r in P.relators]
    ) if P.relators else IntMatrix(0, len(P.generators), ())


def _nearest(x: int, p: int) -> int:
    """Quotient of x by p > 0 whose remainder x - q p lies in (-p/2, p/2]."""
    q, rem = divmod(x, p)
    return q + 1 if 2 * rem > p else q


def _echelon(a: list[list[int]], u: list[list[int]]) -> None:
    """Bring a to row echelon form in place, repeating each row operation on u.

    Row operations clear each column below its positive pivot, then reduce
    the entries above the pivot modulo it; without that reduction the
    entries of a and u grow far beyond those of the Smith form.
    """
    r, c = len(a), len(a[0]) if a else 0

    def row_sub(i: int, j: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    t = 0
    for j in range(c):
        if t == r:
            break
        while True:
            rows = [i for i in range(t, r) if a[i][j]]
            if not rows:
                break
            p = min(rows, key=lambda i: abs(a[i][j]))
            if p != t:
                a[t], a[p] = a[p], a[t]
                u[t], u[p] = u[p], u[t]
            if a[t][j] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            if len(rows) == 1:
                break
            for i in range(t + 1, r):
                if a[i][j]:
                    row_sub(i, t, _nearest(a[i][j], a[t][j]))
        if a[t][j]:
            for i in range(t):
                q = _nearest(a[i][j], a[t][j])
                if q:
                    row_sub(i, t, q)
            t += 1


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U M V = D in Smith normal form.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ...;
    U and V are unimodular.  The certificate is re-checked on return.
    """
    r, c = M.nrows, M.ncols
    a = M.rows()
    u = IntMatrix.identity(r).rows()
    # V transposed, so that a column operation on V is a row operation here
    vt = IntMatrix.identity(c).rows()
    while True:
        # echelon on the rows, then on the columns, until a is diagonal;
        # its pivots are then positive, with the zeros last
        _echelon(a, u)
        at = [[row[j] for row in a] for j in range(c)]
        _echelon(at, vt)
        a = [[col[i] for col in at] for i in range(r)]
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        # add column t + 1 to column t where d_t does not divide d_t+1: this
        # keeps d_0 .. d_t-1 and lowers d_t to at most gcd(d_t, d_t+1)
        bad = [t for t in range(min(r, c) - 1) if a[t][t] and a[t + 1][t + 1] % a[t][t]]
        if not bad:
            break
        t = bad[0]
        for row in a:
            row[t] += row[t + 1]
        vt[t] = [x + y for x, y in zip(vt[t], vt[t + 1])]

    D = IntMatrix.from_rows(a) if a else IntMatrix(0, c, ())
    U = IntMatrix.from_rows(u) if u else IntMatrix(0, 0, ())
    V = IntMatrix.from_rows(list(zip(*vt)))

    _check_certificate(M, D, U, V)
    return D, U, V


def _check_certificate(M: IntMatrix, D: IntMatrix, U: IntMatrix, V: IntMatrix) -> None:
    if (U * M) * V != D:
        raise InternalCheckError("SNF certificate failed: U M V != D")
    if abs(U.determinant()) != 1 or abs(V.determinant()) != 1:
        raise InternalCheckError("SNF certificate failed: transform not unimodular")
    diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
    for i in range(D.nrows):
        for j in range(D.ncols):
            if i != j and D.entry(i, j) != 0:
                raise InternalCheckError("SNF certificate failed: not diagonal")
    for x, y in zip(diag, diag[1:]):
        if x < 0 or y < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise InternalCheckError("SNF certificate failed: divisibility chain broken")


@dataclass(frozen=True)
class AbelianInvariants:
    """Torsion coefficients (divisibility chain, each > 1) and free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def abelian_invariants(P: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianization of a presented group."""
    M = relator_matrix(P)
    if M.nrows == 0:
        return AbelianInvariants((), len(P.generators))
    D, _, _ = smith_normal_form(M)
    diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
    torsion = tuple(d for d in diag if d > 1)
    nonzero = sum(1 for d in diag if d != 0)
    return AbelianInvariants(torsion, len(P.generators) - nonzero)

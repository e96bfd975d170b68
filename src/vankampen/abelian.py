"""Abelianization of finite presentations via Smith normal form.

Everything is exact integer arithmetic.  ``smith_normal_form`` has one
elimination routine, ``_echelon``, which inserts the rows of a matrix one
at a time into a reduced row echelon basis with positive pivots, taking a
unimodular 2 x 2 Bezout step where a pivot does not divide an entry
(Kannan & Bachem 1979; Cohen, *A Course in Computational Algebraic Number
Theory*, 2.4).  It runs on rows and columns in turn until the matrix is
diagonal; where a diagonal entry does not divide the next, one column
addition folds the next into it.  Every operation is logged, and
``_replay`` certifies D = U M V by applying the log to a copy of M: each
operation must be unimodular, so U and V are, and the copy must end at D,
a diagonal divisibility chain.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalCheckError
from .presentation import Presentation

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class IntMatrix:
    """An integer matrix, stored row-major in a tuple."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: tuple[int, ...]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative dimension")
        if len(entries) != nrows * ncols:
            raise ValueError("entry count does not match dimensions")
        self.nrows, self.ncols, self.entries = nrows, ncols, entries

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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.ncols + j]

    def rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.ncols:(i + 1) * self.ncols])
            for i in range(self.nrows)
        ]


def relator_matrix(P: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    gens = P.generators
    return IntMatrix(len(P.relators), len(gens), tuple(r.exponent_sum(g) for r in P.relators for g in gens))


def _nearest(x: int, p: int) -> int:
    """Quotient of x by p > 0 whose remainder x - q p lies in (-p/2, p/2]."""
    q, rem = divmod(x, p)
    return q + 1 if 2 * rem > p else q


def _bezout(x: int, y: int) -> tuple[int, int, int, int]:
    """(s, u, v, w) with s x + u y = g = gcd(x, y), v = -y/g and w = x/g,
    for x > 0 and y != 0, so that s w - u v = 1."""
    g = gcd(x, y)
    s = pow(x // g, -1, abs(y) // g)
    return s, (g - s * x) // y, -y // g, x // g


def _transpose(a: list[list[int]], c: int) -> list[list[int]]:
    """The transpose of a matrix with c columns, which fixes its shape when it has no rows."""
    return [list(col) for col in zip(*a)] if a else [[] for _ in range(c)]


def _reduce_by_later_pivots(a: list[list[int]], k: int, cols: list[int], log: list[tuple]) -> None:
    """Reduce row k's entries above the pivots of the rows below it, left to right."""
    for l in range(k + 1, len(cols)):
        j = cols[l]
        if a[k][j] and (q := _nearest(a[k][j], a[l][j])):
            a[k][j:] = [x - q * y for x, y in zip(a[k][j:], a[l][j:])]
            log.append(("sub", l, j, [(k, q)]))


def _echelon(a: list[list[int]], log: list[tuple]) -> None:
    """Bring a to row echelon form in place, appending each row operation to log.

    Rows join a reduced echelon basis of the rows before them one at a
    time (Kannan & Bachem).  Each is reduced by the pivot rows in turn; a
    pivot x that does not divide the row's entry y becomes gcd(x, y) by
    one 2 x 2 step, and a row left nonzero is inserted as a positive
    pivot.  A changed pivot row is reduced modulo the pivots below it, and
    so is each pivot row at the end, from the last up; without these
    reductions the entries grow far beyond those of the Smith form.
    """
    c = len(a[0]) if a else 0
    cols: list[int] = []  # the pivot column of each row above the zero rows
    for i, row in enumerate(a):
        j = k = 0
        while j < c:
            if not row[j]:
                j += 1
                continue
            while k < len(cols) and cols[k] < j:
                k += 1
            if k == len(cols) or cols[k] > j:
                break
            # rows k and i are zero left of column j, so they change from j on
            pivot, y = a[k], row[j]
            if y % pivot[j]:
                s, u, v, w = _bezout(pivot[j], y)
                pivot[j:], row[j:] = ([s * p + u * q for p, q in zip(pivot[j:], row[j:])],
                                      [v * p + w * q for p, q in zip(pivot[j:], row[j:])])
                log.append(("comb", k, i, j, s, u, v, w))
                _reduce_by_later_pivots(a, k, cols, log)
            else:
                q = y // pivot[j]
                row[j:] = [e - q * f for e, f in zip(row[j:], pivot[j:])]
                log.append(("sub", k, j, [(i, q)]))
        if j == c:
            continue
        # rows len(cols) .. i - 1 are zero: move row i up to position k
        t = len(cols)
        for p, q in [(t, i)] * (i != t) + [(p - 1, p) for p in range(t, k, -1)]:
            a[p], a[q] = a[q], a[p]
            log.append(("swap", p, q))
        if a[k][j] < 0:
            a[k] = [-x for x in a[k]]
            log.append(("neg", k))
        cols.insert(k, j)
        _reduce_by_later_pivots(a, k, cols, log)
    for k in reversed(range(len(cols))):
        _reduce_by_later_pivots(a, k, cols, log)


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, list[list[tuple]]]:
    """Return (D, log): D = U M V in Smith normal form, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ....  The
    log's passes act on the rows of M at even positions and on its columns
    (rows of the transpose) at odd ones; U and V are their products.  A
    pass lists unimodular row operations: ("swap", i, p), ("neg", i),
    ("sub", t, j, [(i, q), ...]): row i -= q row t for each pair, row t
    zero left of column j, and ("comb", t, i, j, s, u, v, w): rows t and i,
    both zero left of column j, become s row t + u row i and v row t +
    w row i, with s w - u v = 1.  A "fix" is a "sub" that mends the
    divisibility chain.
    """
    r, c = M.nrows, M.ncols
    a = M.rows()
    log: list[list[tuple]] = []
    while True:
        # echelon on the rows, then on the columns, until a is diagonal;
        # its pivots are then positive, with the zeros last
        log += [[], []]
        _echelon(a, log[-2])
        at = _transpose(a, c)
        _echelon(at, log[-1])
        a = _transpose(at, r)
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
            continue
        # add column t + 1 to column t where d_t does not divide d_t+1: this
        # keeps d_0 .. d_t-1 and lowers d_t to at most gcd(d_t, d_t+1)
        bad = [t for t in range(min(r, c) - 1) if a[t][t] and a[t + 1][t + 1] % a[t][t]]
        if not bad:
            break
        t = bad[0]
        for row in a:
            row[t] += row[t + 1]
        log[-1].append(("fix", t + 1, t + 1, [(t, -1)]))

    D = IntMatrix(r, c, tuple(x for row in a for x in row))
    _replay(M, log, D)
    return D, log


def _replay(M: IntMatrix, log: list[list[tuple]], D: IntMatrix) -> None:
    """Certify D by applying the log to a copy of M: every operation must be
    unimodular, the copy must end at D, and D must be a Smith normal form."""

    def fail(why: str) -> None:
        raise InternalCheckError(f"SNF certificate failed: {why}")

    a, nrows, m = M.rows(), M.nrows, M.ncols
    for steps in log:
        for op in steps:
            kind, t = op[0], op[1]
            if not 0 <= t < nrows or kind in ("swap", "comb") and not 0 <= op[2] < nrows:
                fail("row index out of range")
            if kind == "swap":
                a[t], a[op[2]] = a[op[2]], a[t]
            elif kind == "neg":
                a[t] = [-x for x in a[t]]
            elif kind == "comb":
                i, j, s, u, v, w = op[2:]
                if i == t:
                    fail("row combined with itself")
                if abs(s * w - u * v) != 1:
                    fail("2 x 2 step not unimodular")
                if not 0 <= j < m or any(a[t][:j]) or any(a[i][:j]):
                    fail("pivot column out of range or row nonzero left of it")
                a[t][j:], a[i][j:] = ([s * p + u * q for p, q in zip(a[t][j:], a[i][j:])],
                                      [v * p + w * q for p, q in zip(a[t][j:], a[i][j:])])
            else:
                j, subs = op[2:]
                if not 0 <= j < m or any(a[t][:j]):
                    fail("pivot column out of range or row nonzero left of it")
                pivot = a[t][j:]
                for i, q in subs:
                    if i == t or not 0 <= i < nrows:
                        fail("row reduced by itself or out of range")
                    a[i][j:] = [x - q * y for x, y in zip(a[i][j:], pivot)]
        a, nrows, m = _transpose(a, m), m, nrows
    if len(log) % 2:
        a = _transpose(a, m)
    if a != D.rows():
        fail("U M V != D")
    diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
    if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a)):
        fail("not diagonal")
    if any(x < 0 or y < 0 or (y % x if x else y) for x, y in zip(diag, diag[1:])):
        fail("divisibility chain broken")


class AbelianInvariants:
    """Torsion coefficients (divisibility chain, each > 1) and free rank."""

    __slots__ = ("torsion", "free_rank")

    def __init__(self, torsion: tuple[int, ...], free_rank: int):
        self.torsion, self.free_rank = torsion, free_rank

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, AbelianInvariants)
        return same and (self.torsion, self.free_rank) == (other.torsion, other.free_rank)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def abelian_invariants(P: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianization of a presented group."""
    D, _ = smith_normal_form(relator_matrix(P))
    diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
    torsion = tuple(d for d in diag if d > 1)
    nonzero = sum(1 for d in diag if d != 0)
    return AbelianInvariants(torsion, len(P.generators) - nonzero)

"""Abelianization of finite presentations via Smith normal form.

Everything is exact integer arithmetic.  ``smith_normal_form`` has one
elimination routine, ``_echelon``, which brings a matrix to row echelon
form by row operations with positive pivots, reducing the entries above
each pivot modulo it to keep them small (Kannan & Bachem 1979; Cohen, *A
Course in Computational Algebraic Number Theory*, 2.4).  It runs on rows
and columns in turn until the matrix is diagonal; where a diagonal entry
does not divide the next, one column addition folds the next into it.
Every operation is logged, and ``_replay`` certifies D = U M V by applying
the log to a copy of M: each operation must be elementary, so U and V are
unimodular, and the copy must end at D, a diagonal divisibility chain.
"""

from __future__ import annotations

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
    return IntMatrix.from_rows(
        [[r.exponent_sum(g) for g in P.generators] for r in P.relators]
    ) if P.relators else IntMatrix(0, len(P.generators), ())


def _nearest(x: int, p: int) -> int:
    """Quotient of x by p > 0 whose remainder x - q p lies in (-p/2, p/2]."""
    q, rem = divmod(x, p)
    return q + 1 if 2 * rem > p else q


def _echelon(a: list[list[int]], log: list[tuple]) -> None:
    """Bring a to row echelon form in place, appending each row operation to log.

    Row operations clear each column below its positive pivot, then reduce
    the entries above the pivot modulo it; without that reduction the
    entries grow far beyond those of the Smith form.
    """
    r, c = len(a), len(a[0]) if a else 0
    t = 0
    for j in range(c):
        while True:
            rows = [i for i in range(t, r) if a[i][j]]
            if not rows:
                break
            p = min(rows, key=lambda i: abs(a[i][j]))
            if p != t:
                a[t], a[p] = a[p], a[t]
                log.append(("swap", t, p))
            if a[t][j] < 0:
                a[t] = [-x for x in a[t]]
                log.append(("neg", t))
            # clear below the pivot or, once it is alone, reduce above it;
            # row t is zero left of column j, so the rows change from j on
            done = len(rows) == 1
            others = range(t) if done else range(t + 1, r)
            subs = [(i, q) for i in others if (q := _nearest(a[i][j], a[t][j]))]
            pivot = a[t][j:]
            for i, q in subs:
                a[i][j:] = [x - q * y for x, y in zip(a[i][j:], pivot)]
            if subs:
                log.append(("sub", t, j, subs))
            if done:
                t += 1
                break


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, list[list[tuple]]]:
    """Return (D, log): D = U M V in Smith normal form, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ....  The
    log's passes act on the rows of M at even positions and on its columns
    (rows of the transpose) at odd ones; U and V are their products.  A
    pass lists ("swap", i, p), ("neg", i) and ("sub", t, j, [(i, q), ...]):
    row i -= q row t for each pair, row t zero left of column j; a "fix" is
    a "sub" that mends the divisibility chain.
    """
    r, c = M.nrows, M.ncols
    a = M.rows()
    log: list[list[tuple]] = []
    while True:
        # echelon on the rows, then on the columns, until a is diagonal;
        # its pivots are then positive, with the zeros last
        log += [[], []]
        _echelon(a, log[-2])
        at = [[row[j] for row in a] for j in range(c)]
        _echelon(at, log[-1])
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
        log[-1].append(("fix", t + 1, t + 1, [(t, -1)]))

    D = IntMatrix.from_rows(a) if a else IntMatrix(0, c, ())
    _replay(M, log, D)
    return D, log


def _replay(M: IntMatrix, log: list[list[tuple]], D: IntMatrix) -> None:
    """Certify D by applying the log to a copy of M: every operation must be
    elementary, the copy must end at D, and D must be a Smith normal form."""

    def fail(why: str) -> None:
        raise InternalCheckError(f"SNF certificate failed: {why}")

    a, rows, m = M.rows(), range(M.nrows), M.ncols
    for steps in log:
        for kind, t, *args in steps:
            if t not in rows or kind == "swap" and args[0] not in rows:
                fail("row index out of range")
            if kind == "swap":
                a[t], a[args[0]] = a[args[0]], a[t]
            elif kind == "neg":
                a[t] = [-x for x in a[t]]
            else:
                j, subs = args
                if j not in range(m) or any(a[t][:j]):
                    fail("pivot column out of range or row nonzero left of it")
                pivot = a[t][j:]
                for i, q in subs:
                    if i == t or i not in rows:
                        fail("row reduced by itself or out of range")
                    a[i][j:] = [x - q * y for x, y in zip(a[i][j:], pivot)]
        a, rows, m = [[row[j] for row in a] for j in range(m)], range(m), len(rows)
    if len(log) % 2:
        a = [[row[j] for row in a] for j in range(m)]
    if a != D.rows():
        fail("U M V != D")
    diag = [D.entry(i, i) for i in range(min(D.nrows, D.ncols))]
    if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
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

"""Todd-Coxeter coset enumeration (Felsch strategy).

``enumerate_cosets`` either closes a coset table for a subgroup of a
finitely presented group or raises ``BudgetExhausted`` once the
definition budget is spent.  That means "index not determined within
budget", never "the index is infinite".

Each table entry, once set, is a deduction scanned through the cyclic
rotations of the relators and their inverses that start with its column;
a one-letter gap is filled as a further deduction, and a coset is defined
only when no deduction is left (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 5.2).  On ``p^n, c^(n-1), c^-1 p c p^-2`` that
is fewer than 1.6 n(n-1) definitions where HLT made about 21 n^2.
Coincidences are processed immediately with a union-find; the table is
standardized, so it does not depend on the order of definitions.  The
closed table is verified relator by relator, one syllable g^e at a time
through the |e|-th power of the column of g or of its inverse.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExhausted, InternalCheckError
from .presentation import Presentation
from .words import Word

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class CosetTable:
    """A closed, standardized coset table.

    ``rows[c][2*i]`` is the image of coset ``c`` under generator i,
    ``rows[c][2*i + 1]`` the image under its inverse.
    """

    __slots__ = ("generators", "rows")

    def __init__(self, generators: tuple[str, ...], rows: tuple[tuple[int, ...], ...]):
        self.generators, self.rows = generators, rows

    @property
    def count(self) -> int:
        return len(self.rows)


class _Enumerator:
    def __init__(self, gens: tuple[str, ...], rel_cols: Sequence[list[int]], max_cosets: int):
        self.ncols = 2 * len(gens)
        self.gens = gens
        self.cycles = _relator_cycles(rel_cols, self.ncols)
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]
        self.queue: deque[int] = deque()
        # table entries (coset, column) set since their relator cycles were last scanned
        self.deductions: list[tuple[int, int]] = []

    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def define(self, alpha: int, col: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise BudgetExhausted(f"overflow: budget of {self.max_cosets} cosets exhausted")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha
        self.deductions.append((alpha, col))

    def merge(self, a: int, b: int) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.parent[hi] = lo
        self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self.merge(a, b)
        while self.queue:
            dead = self.queue.popleft()
            for col in range(self.ncols):
                target = self.table[dead][col]
                if target is None:
                    continue
                self.table[dead][col] = None
                # remove the back-reference from the (possibly dead) target row
                if self.table[target][col ^ 1] == dead:
                    self.table[target][col ^ 1] = None
                mu, nu = self.find(dead), self.find(target)
                existing = self.table[mu][col]
                if existing is not None:
                    self.merge(nu, existing)
                else:
                    back = self.table[nu][col ^ 1]
                    if back is not None:
                        self.merge(mu, back)
                    else:
                        self.table[mu][col] = nu
                        self.table[nu][col ^ 1] = mu
                        self.deductions.append((mu, col))

    def scan(self, alpha: int, word: list[int], i: int, j: int) -> tuple[int, int] | None:
        """Trace ``word[i..j]`` from ``alpha`` at both ends.

        Ends closing on two cosets are a coincidence and a one-letter gap is
        filled as a deduction; a longer gap returns the entry at its forward end.
        """
        table = self.table
        f = alpha
        while i <= j and (nxt := table[f][word[i]]) is not None:
            f = nxt
            i += 1
        b = alpha
        while j >= i and (nxt := table[b][word[j] ^ 1]) is not None:
            b = nxt
            j -= 1
        if j < i:
            if f != b:
                self.coincidence(f, b)
        elif j == i:
            table[f][word[i]] = b
            table[b][word[i] ^ 1] = f
            self.deductions.append((f, word[i]))
        else:
            return f, word[i]
        return None

    def scan_and_fill(self, alpha: int, word: list[int]) -> None:
        """Scan ``word`` from ``alpha``, defining cosets until it closes."""
        while (gap := self.scan(alpha, word, 0, len(word) - 1)) is not None:
            self.define(*gap)

    def process_deductions(self) -> None:
        """Scan the relator cycles through every new entry until none is left.

        A relator passes an entry ``c -x-> beta`` forwards or backwards, so
        one of the rotations of it or of its inverse starts with x at c.
        """
        while self.deductions:
            c, x = self.deductions.pop()
            for word, i, j in self.cycles[x]:
                if self.parent[c] != c:
                    break
                self.scan(c, word, i, j)


def _word_cols(w: Word, gens: tuple[str, ...]) -> list[int]:
    """Table columns of ``w``, one per letter.

    ``p^n`` expands to n columns.  That is fine for scanning, which walks
    the table one letter at a time anyway, but takes memory linear in n.
    """
    index = {g: 2 * i for i, g in enumerate(gens)}
    return [index[g] + (0 if e > 0 else 1) for g, e in w.letters()]


def _relator_cycles(rel_cols: Sequence[list[int]], ncols: int) -> list[list[tuple[list[int], int, int]]]:
    """Each distinct cyclic rotation of every relator and its inverse, by first column.

    A rotation ``(letters, i, j)`` is ``letters[i..j]``, where ``letters`` is
    its word followed by one period less a letter; ``p^n`` gives one rotation.
    """
    cycles: list[list[tuple[list[int], int, int]]] = [[] for _ in range(ncols)]
    seen: list[str] = []
    for cols in rel_cols:
        for w in (cols, [c ^ 1 for c in reversed(cols)]):
            text = "".join(map(chr, w))
            if not w or any(len(s) == len(w) and text in s + s for s in seen):
                continue
            seen.append(text)
            period = (text + text).find(text, 1)
            letters = w + w[: period - 1]
            for k in range(period):
                cycles[w[k]].append((letters, k, k + len(w) - 1))
    return cycles


def enumerate_cosets(
    P: Presentation,
    subgroup: Sequence[Word] = (),
    max_cosets: int = 100_000,
) -> CosetTable:
    """Enumerate cosets of <subgroup> in the presented group.

    Returns a closed ``CosetTable``, or raises ``BudgetExhausted`` after
    ``max_cosets`` definitions.  The closed table passes a full
    verification sweep (all relators trace the identity at every coset,
    subgroup words fix coset 0, each syllable applied as a power of its
    column) before it is returned.
    """
    gens = P.generators
    for w in subgroup:
        foreign = w.generators() - set(gens)
        if foreign:
            raise ValueError(f"subgroup word uses unknown generators {sorted(foreign)}")
    rel_cols = [_word_cols(r, gens) for r in P.relators]
    sub_cols = [_word_cols(w, gens) for w in subgroup]

    enum = _Enumerator(gens, rel_cols, max_cosets)
    for w in sub_cols:
        enum.scan_and_fill(0, w)
    enum.process_deductions()
    alpha = 0
    while alpha < len(enum.table):
        row = enum.table[alpha]
        while enum.parent[alpha] == alpha and None in row:
            enum.define(alpha, row.index(None))
            enum.process_deductions()
        alpha += 1

    table = _standardize(enum)
    _verify(table, P.relators, subgroup)
    return table


def _standardize(enum: _Enumerator) -> CosetTable:
    """Renumber live cosets breadth-first from the subgroup coset."""
    rep = [enum.find(c) for c in range(len(enum.table))]
    live = {rep[0]: 0}
    order = [rep[0]]
    rows = []
    for c in order:  # order grows as the search numbers new cosets
        row = enum.table[c]
        if None in row:
            raise InternalCheckError("closed table has an undefined entry")
        numbers = []
        for t in map(rep.__getitem__, row):
            if t not in live:
                live[t] = len(order)
                order.append(t)
            numbers.append(live[t])
        rows.append(tuple(numbers))
    return CosetTable(enum.gens, tuple(rows))


def _power(perm: Sequence[int], e: int) -> Sequence[int]:
    """The e-th power (e >= 1) of a permutation given by its images, by repeated squaring."""
    out = perm
    for digit in bin(e)[3:]:
        out = list(map(out.__getitem__, out))
        if digit == "1":
            out = list(map(perm.__getitem__, out))
    return out


def _verify(table: CosetTable, relators: Sequence[Word], subgroup: Sequence[Word]) -> None:
    """Check the closed table, one syllable g^e at a time by a power of a column of g."""
    identity = list(range(table.count))
    # one list per column: images[col][c] is the image of coset c
    images = list(zip(*table.rows))
    for col in range(0, len(images), 2):
        if list(map(images[col + 1].__getitem__, images[col])) != identity:
            raise InternalCheckError("verification failed: actions are not mutually inverse")

    def act(w: Word, ends: list[int]) -> list[int]:
        """The coset reached by w from each coset in ends."""
        for g, e in w.syllables:
            col = 2 * table.generators.index(g) + (e < 0)
            ends = list(map(_power(images[col], abs(e)).__getitem__, ends))
        return ends

    for r in relators:
        if (ends := act(r, identity)) != identity:
            moved = next(c for c, e in enumerate(ends) if e != c)
            raise InternalCheckError(f"verification failed: relator {r} does not fix coset {moved}")
    for w in subgroup:
        if act(w, [0]) != [0]:
            raise InternalCheckError(f"verification failed: subgroup word {w} moves coset 0")


def quotient_order(
    P: Presentation,
    extra_relators: Sequence[Word] = (),
    max_cosets: int = 100_000,
) -> int:
    """Order of the quotient of ``P`` by ``extra_relators``.

    Enumerates the trivial subgroup in the presentation extended by the
    extra relator words.
    """
    extended = Presentation(P.generators, P.relators + tuple(extra_relators))
    return enumerate_cosets(extended, (), max_cosets).count

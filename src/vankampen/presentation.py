"""Finitely presented groups: assembly, simplification, metacyclic forms.

``zvk_assemble`` turns monodromy endomorphisms of F(p, q) into relators
of the total-space group: a kept fiber contributes ``x^-1 m(x)`` and a
removed fiber with meridian ``g`` contributes ``g^-1 x g m(x)^-1`` for
x in {p, q}.

``tietze_simplify`` is a deterministic normalizer, not an isomorphism
decider: it eliminates generators defined by a single +-1 occurrence,
cyclically reduces, deduplicates, drops relators that are consequences
of an identified metacyclic pair, and sorts canonically.  Equal inputs
give identical outputs and the output is a fixed point.  Canonical forms
are computed on syllables: no exponent is ever expanded into letters.
Each relator's per-syllable keys are computed once and both name and
order its canonical form; a metacyclic drop, and an elimination, keep
the canonical relators they leave untouched.

A ``MetacyclicForm`` holds (n, s) and the names of its generators p and
c, so its normal form and the commutant report read the names from it.
"""

from __future__ import annotations

from math import gcd

from .cover import KERNEL_GENS
from .errors import InternalCheckError, ParseError
from .words import _WORD_TOKEN_RE, FreeEndo, Syllable, Word, comma_fields, parse_word, substitute

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping, Sequence


class Presentation:
    """Generators plus freely reduced, nonempty relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        gens = set(generators)
        if len(gens) != len(generators):
            raise ValueError("duplicate generator name")
        self.generators, self.relators = generators, tuple(r for r in relators if r)
        for r in self.relators:
            if foreign := r.generators() - gens:
                raise ValueError(f"relator {r} uses undeclared generators {sorted(foreign)}")

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Presentation)
        return same and (self.generators, self.relators) == (other.generators, other.relators)

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))


def format_presentation(P: Presentation) -> str:
    gens = ", ".join(P.generators)
    rels = ", ".join(str(r) for r in P.relators)
    return f"gens: {gens}; rels: {rels}".rstrip()


def parse_presentation(text: str) -> Presentation:
    """Parse ``gens: p, q; rels: p^9, q p q^-1`` (rels may be empty)."""
    head, sep, tail = text.partition(";")
    if not head.strip().startswith("gens:"):
        raise ParseError("expected 'gens:' section")
    if not sep:
        raise ParseError("expected ';' before 'rels:' section", len(text) + 1)
    at = head.index("gens:")
    names = [(g, col) for g, col in comma_fields(head[at + len("gens:"):], at + len("gens:")) if g]
    generators = tuple(g for g, _ in names)
    if len(set(generators)) != len(generators):
        raise ParseError("duplicate generator name", at + 1)
    for name, col in names:  # each must be one token of the word grammar, without exponent
        if not (m := _WORD_TOKEN_RE.match(name)) or m["exp"]:
            raise ParseError(f"bad generator name {name!r}", col)
    rel_head = tail.lstrip()
    rel_col = len(text) - len(tail) + (len(tail) - len(rel_head)) + 1
    if not rel_head.startswith("rels:"):
        raise ParseError("expected 'rels:' section", rel_col)
    rel_part = rel_head[len("rels:"):]
    relators = (parse_word(chunk, generators, column_offset=col - 1)
                for chunk, col in comma_fields(rel_part, len(text) - len(rel_part)))
    return Presentation(generators, tuple(relators))


def zvk_assemble(
    kept: Sequence[FreeEndo], removed: Sequence[tuple[str, FreeEndo]]
) -> Presentation:
    """Assemble the total-space presentation from fiber monodromies.

    Every endomorphism must live on ``KERNEL_GENS``.  Meridian names of
    removed fibers must be fresh.  Trivial relators are dropped.
    """
    names = [name for name, _ in removed]
    all_gens = list(KERNEL_GENS) + names
    if len(set(all_gens)) != len(all_gens):
        raise ValueError("meridian name collides with an existing generator")
    for m in list(kept) + [m for _, m in removed]:
        if m.domain != KERNEL_GENS:
            raise ValueError(f"monodromy domain must be {KERNEL_GENS}")
    relators: list[Word] = []
    for m in kept:
        for x in KERNEL_GENS:
            relators.append(Word.gen(x, -1) * m.images[x])
    for name, m in removed:
        g = Word.gen(name)
        for x in KERNEL_GENS:
            relators.append(g.inverse() * Word.gen(x) * g * m.images[x].inverse())
    return Presentation(tuple(all_gens), tuple(relators))


# ---------------------------------------------------------------------------
# canonical forms


def _keys(syllables: Sequence[Syllable], order: Mapping[str, int]) -> list[tuple]:
    """Order keys, one per syllable, that compare as the letters do.

    A letter is ordered by (generator order, inverse after positive).  Of
    two runs of one letter, the shorter is smaller iff the letter after it
    is smaller (``up`` is false).  The first syllable follows the last, so
    a rotation's keys are the keys rotated; as words of equal length only
    are compared, where the run that ends a word is never the shorter, the
    wrap matters only to rotations.  The keys determine the syllables.
    """
    letters = [(order[g], e < 0) for g, e in syllables]
    keys = []
    for (_, e), letter, after in zip(syllables, letters, letters[1:] + letters[:1]):
        up = after > letter
        keys.append((letter, up, -abs(e) if up else abs(e)))
    return keys


class _Canonical(Presentation):
    """A presentation whose relators are canonical, distinct and sorted under its generator order."""
    __slots__ = ()


def canonicalize(P: Presentation) -> Presentation:
    """Canonicalize, deduplicate, and sort relators.

    Each relator's cycle is normalized first: while the end syllables
    share a generator they cancel, or merge into one syllable, which ends
    it.  Its canonical form is the least rotation of the cycle or of its
    inverse under the generator order, so it represents the same cyclic
    word (up to inversion) for any rotation of the input.  Only syllable
    starts are tried: a least rotation starts a run of the least letter, as
    the letter after that run is larger.  That rotation's keys are the
    canonical word's own ``_keys``, so (length, keys) both names the
    canonical word and orders it.
    """
    return P if isinstance(P, _Canonical) else _canonicalize(P.generators, P.relators)


def _canonicalize(generators: tuple[str, ...], relators: Iterable[Word], kept: Iterable[Word] = ()) -> _Canonical:
    """``canonicalize``, with ``kept`` relators canonical already: only their keys are taken."""
    order = {g: i for i, g in enumerate(generators)}
    canon = {(r.length, tuple(_keys(r.syllables, order))): r for r in kept}
    for r in relators:
        syl = r.syllables
        i, j = 0, len(syl) - 1
        while i < j and syl[i][0] == syl[j][0]:
            if e := syl[i][1] + syl[j][1]:
                syl = ((syl[i][0], e),) + syl[i + 1:j]
                break
            i, j = i + 1, j - 1
        else:
            syl = syl[i:j + 1]
        inverse = tuple((g, -e) for g, e in reversed(syl))
        keys, seq = min((keys[i:] + keys[:i], seq[i:] + seq[:i])
                        for seq, keys in ((seq, _keys(seq, order)) for seq in (syl, inverse))
                        for i in range(len(seq)))
        w = Word._new(seq)  # a rotation of a cyclically reduced word, or of its inverse
        canon.setdefault((w.length, tuple(keys)), w)
    return _Canonical(generators, tuple(canon[k] for k in sorted(canon)))


# ---------------------------------------------------------------------------
# Tietze simplification


def _eliminate(P: _Canonical, relator: Word, name: str) -> _Canonical:
    """Remove ``name`` from canonical P using ``relator``, which defines it; the result is canonical.

    The rest of the relator, read cyclically from its one ``name^(+-1)`` syllable, is the image of
    ``name``, and reduced: the relator is canonical, or starts with ``name`` (``patch_fiber``).  A
    relator without ``name`` is kept, as an order that only lost a generator keeps its least rotation.
    """
    syl = relator.syllables
    pos = next(i for i, (g, _) in enumerate(syl) if g == name)
    rest = Word._new(syl[pos + 1:] + syl[:pos])
    images = {g: Word.gen(g) for g in P.generators}
    images[name] = rest.inverse() if syl[pos][1] == 1 else rest
    kept = [r for r in P.relators if r is not relator and name not in r.generators()]
    touched = (substitute(r, images) for r in P.relators if r is not relator and name in r.generators())
    return _canonicalize(tuple(x for x in P.generators if x != name), filter(None, touched), kept)


class MetacyclicForm:
    """Data (n, s) of the presentation <p, c | p^n, c^-1 p c p^-s>, with its generator names."""

    __slots__ = ("n", "s", "p", "c")

    def __init__(self, n: int, s: int, p: str = "p", c: str = "g+"):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n, self.s, self.p, self.c = n, s % n, p, c
        if gcd(self.s, n) != 1:
            raise ValueError(f"s = {self.s} is not invertible mod {n}")

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, MetacyclicForm)
        return same and (self.n, self.s, self.p, self.c) == (other.n, other.s, other.p, other.c)


def metacyclic_normal_form(form: MetacyclicForm, w: Word) -> tuple[int, int]:
    """Normal form (a, b) with w = p^a c^b in the metacyclic group.

    Uses c^-1 p^e c = p^(e*s), i.e. moving p-letters left across c^b
    multiplies their exponent by s^-b mod n.  The exponent b is an
    honest integer (the c-direction is not assumed periodic).
    """
    n, s = form.n, form.s
    a, b = 0, 0
    for g, e in w.syllables:
        if g == form.p:
            a = (a + e * pow(s, -b, n)) % n
        elif g == form.c:
            b += e
        else:
            raise ValueError(f"foreign generator {g!r} for the metacyclic form")
    return (a, b)


def metacyclic_instances(P: Presentation) -> list[tuple[int, int, MetacyclicForm]]:
    """Recognized (power-relator index, conjugation-relator index, form).

    A power relator x^(+-n), n >= 2, pairs with a four-syllable relator
    whose one rotation y^-1 x^u y x^v has u or v = +-1 and u invertible
    mod n: then y^-1 x y = x^s with s = -v u^-1 mod n, and s must be
    invertible too.  The form names x as p and y as c.
    """
    out: list[tuple[int, int, MetacyclicForm]] = []
    for i, rp in enumerate(P.relators):
        if len(rp.syllables) != 1:
            continue
        x, n = rp.syllables[0]
        n = abs(n)
        if n < 2:
            continue
        for j, rc in enumerate(P.relators):
            if i == j or len(rc.syllables) != 4:
                continue
            for k in range(4):
                (y, b), (x1, u), (y2, b2), (x2, v) = rc.syllables[k:] + rc.syllables[:k]
                if (b, b2) != (-1, 1) or not y == y2 != x == x1 == x2:
                    continue
                if (abs(u) == 1 or abs(v) == 1) and gcd(u, n) == 1:
                    s = -v * pow(u, -1, n) % n
                    if gcd(s, n) == 1:
                        out.append((i, j, MetacyclicForm(n, s, x, y)))
                break
    return out


def _drop_metacyclic_consequences(P: _Canonical) -> _Canonical | None:
    """Drop relators that follow from a recognized metacyclic pair, if any."""
    for i, j, form in metacyclic_instances(P):
        allowed = {form.p, form.c}
        drops = {
            k
            for k, r in enumerate(P.relators)
            if k != i and k != j
            and r.generators() <= allowed
            and metacyclic_normal_form(form, r) == (0, 0)
        }
        if drops:  # a subsequence of canonical relators is canonical
            return _Canonical(P.generators, tuple(r for k, r in enumerate(P.relators) if k not in drops))
    return None


def tietze_simplify(P: Presentation) -> Presentation:
    """Deterministic normalization by generator elimination and reduction.

    Repeatedly: canonicalize; eliminate the latest-listed generator that
    occurs exactly once with exponent +-1 in the shortest such relator
    (relator ties broken by the canonical sort); failing that, drop
    relators that are consequences of a recognized metacyclic pair.
    """
    current = canonicalize(P)
    while True:
        for r in current.relators:  # sorted shortest-first by canonicalize
            once: dict[str, int] = {}  # generator -> exponent of its one syllable, 0 if it has more
            for g, e in r.syllables:
                once[g] = 0 if g in once else e
            defined = [g for g in current.generators if once.get(g) in (1, -1)]
            if defined:
                current = _eliminate(current, r, defined[-1])
                break
        else:
            if (dropped := _drop_metacyclic_consequences(current)) is None:
                return current
            current = dropped


def patch_fiber(P: Presentation, g1: str, g2: str, k: int) -> Presentation:
    """Impose the section relation g2 g1 = p^k and eliminate g2.

    The simplified result must not depend on k when the conjugation
    relators already force it; callers sweep k to check that.
    """
    for name in (g1, g2, "p"):
        if name not in P.generators:
            raise ValueError(f"unknown generator {name!r}")
    if g1 == g2:
        raise ValueError("g1 and g2 must differ")
    relator = Word.gen(g2) * Word.gen(g1) * Word.gen("p", -k)
    return tietze_simplify(_eliminate(canonicalize(P), relator, g2))


# ---------------------------------------------------------------------------
# the commutant report


class CommutantReport:
    """The commutator subgroup of a metacyclic group, certified."""

    __slots__ = ("generator", "order", "central")

    def __init__(self, generator: Word, order: int, central: bool):
        self.generator, self.order, self.central = generator, order, central

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, CommutantReport) and self.generator == other.generator
        return same and (self.order, self.central) == (other.order, other.central)


def commutant_report(form: MetacyclicForm) -> CommutantReport:
    """Commutator subgroup of <p, c | p^n, c^-1 p c p^-s>, in the form's generator names.

    It is generated by p^d with d = gcd(s - 1, n) and has order n/d;
    centrality holds iff s*d = d mod n.  The order claim is certified in
    Z/n x| Z by ``metacyclic_normal_form``: both relators map to (0, 0),
    and so does (p^d)^k first at k = n/d.
    """
    n, s = form.n, form.s
    d = gcd(s - 1, n)
    order = n // d
    central = (s * d) % n == d % n
    p, c = Word.gen(form.p), Word.gen(form.c)
    relators = (p ** n, c.inverse() * p * c * p ** -s)
    if any(metacyclic_normal_form(form, r) != (0, 0) for r in relators):
        raise InternalCheckError("internal certification failed: map is not a homomorphism")
    generator = p ** d if d < n else Word()
    trivial_at = (k for k in range(1, n + 1) if metacyclic_normal_form(form, generator ** k) == (0, 0))
    if next(trivial_at, None) != order:
        raise InternalCheckError("internal certification failed: commutant order mismatch")
    return CommutantReport(generator, order, central)

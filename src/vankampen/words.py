"""Freely reduced words, free-group endomorphisms, and braid actions.

Words live in the free group on named generators and are stored as
run-length syllable sequences ``(name, exponent)`` with nonzero exponents
and no two adjacent syllables sharing a name; the empty sequence is the
identity.  Every ``Word`` in circulation is freely reduced.

One routine, ``_join``, freely reduces: it joins reduced parts, which
cancel or merge only where two meet.  ``Word(...)`` joins outside input
as one-syllable parts, zero exponents dropped; a power joins copies of
its base, and ``substitute`` (which Tietze elimination and the cover
expansion share, and which applies a ``FreeEndo`` through its
``images``) joins the powers of the images.

Braid words on n strands act on the free group of rank n by the Artin
rule ``s_i: a_i -> a_i a_{i+1} a_i^-1, a_{i+1} -> a_i`` (other generators
fixed), extended to products by ``action(b1 b2) = action(b1) o action(b2)``.
Braid text is word text over ``s1 .. s(n-1)``, at most
``MAX_BRAID_LETTERS`` letters long, and the action is built by updating
the two images a letter moves, one join each.  The action of
the inverse braid is built the same way, and the pair is certified by
peeling each side back to the identity along the other's letters, so the
check costs letters times image length, not the product of the two image
lengths that substituting one side into the other would.
"""

from __future__ import annotations

import re
from itertools import repeat

from .errors import InternalCheckError, ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Mapping

Syllable = tuple[str, int]

_TOKEN_RE = re.compile(r"\S+")
# Generator names: identifier with an optional trailing + or - marker.
_WORD_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*[+-]?)(?:\^(?P<exp>-?\d+))?$"
)


def _join(parts: Iterable[tuple[Syllable, ...]]) -> tuple[Syllable, ...]:
    """The reduced product of reduced syllable tuples: a part cancels or merges only against the
    end of the stack built so far, and once a syllable of it survives, the rest is copied whole."""
    out: list[Syllable] = []
    for part in parts:
        k = 0
        while out and k < len(part) and out[-1][0] == part[k][0]:
            (gen, exp), k = part[k], k + 1
            if folded := out[-1][1] + exp:
                out[-1] = (gen, folded)
                break
            out.pop()
        out.extend(part[k:])  # part[0:] is part itself, not a copy
    return tuple(out)


class Word:
    """A freely reduced word in named generators."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()):
        self.syllables: tuple[Syllable, ...] = _join(((g, e),) for g, e in syllables if e)

    @classmethod
    def _new(cls, syllables: tuple[Syllable, ...]) -> Word:
        """Trusted constructor: ``syllables`` are already freely reduced."""
        w = object.__new__(cls)
        w.syllables = syllables
        return w

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> Word:
        return cls._new(((name, exp),) if exp else ())

    @property
    def length(self) -> int:
        """Length as a reduced word (sum of absolute exponents)."""
        return sum(abs(e) for _, e in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: Word) -> Word:
        return Word._new(_join((self.syllables, other.syllables)))

    def inverse(self) -> Word:
        return Word._new(tuple((g, -e) for g, e in reversed(self.syllables)))  # still reduced

    def __pow__(self, n: int) -> Word:
        base = self if n >= 0 else self.inverse()
        return Word._new(_join(repeat(base.syllables, abs(n))))

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield single letters (name, +1 or -1), expanding exponents."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, step)

    def exponent_sum(self, name: str) -> int:
        return sum(e for g, e in self.syllables if g == name)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)


def comma_fields(text: str, offset: int = 0) -> Iterator[tuple[str, int]]:
    """Yield each comma-separated field of ``text``, stripped, with the 1-based column of
    its first character in a line where ``text`` starts after ``offset`` characters."""
    for raw in text.split(","):
        field = raw.lstrip()
        yield field.rstrip(), offset + len(raw) - len(field) + 1
        offset += len(raw) + 1


def parse_word(
    text: str, generators: Iterable[str] | None = None, column_offset: int = 0, argument: str = ""
) -> Word:
    """Parse the word grammar, e.g. ``p q^-1 p^3``; ``1`` is the identity.

    If ``generators`` is given, names outside it are rejected.  Exponents
    must be nonzero integers.  Errors carry the column of the bad token (in ``argument`` if given).
    """
    known = set(generators) if generators is not None else None
    syllables: list[Syllable] = []
    for tok in _TOKEN_RE.finditer(text):
        col = column_offset + tok.start() + 1
        piece = tok.group()
        if piece == "1":
            continue
        m = _WORD_TOKEN_RE.match(piece)
        if m is None:
            raise ParseError(f"bad word token {piece!r}", column=col, argument=argument)
        name = m.group("name")
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if exp == 0:
            raise ParseError(f"zero exponent on {name!r}", column=col, argument=argument)
        if known is not None and name not in known:
            raise ParseError(f"unknown generator {name!r}", column=col, argument=argument)
        syllables.append((name, exp))
    return Word(syllables)


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Replace every generator of ``w`` by its image, in one join.

    Each syllable ``g^e`` contributes |e| parts, copies of ``images[g]`` or of its inverse; a
    one-syllable image ``h^f`` contributes the single syllable ``h^(f*e)``.
    """
    # Parts refer to the images, each inverted at most once: holding an unreduced syllable stream,
    # or inverted copies of images, beside the reduced result fragmented the heap and raised peak memory.
    parts: list[tuple[Syllable, ...]] = []
    inverses: dict[str, tuple[Syllable, ...]] = {}
    for g, e in w.syllables:
        if g not in images:
            raise ValueError(f"word uses generator {g!r} outside the domain")
        image = images[g].syllables
        if len(image) == 1:
            parts.append(((image[0][0], image[0][1] * e),))
            continue
        if e < 0 and g not in inverses:
            inverses[g] = images[g].inverse().syllables
        parts.extend(repeat(image if e > 0 else inverses[g], abs(e)))
    return Word._new(_join(parts))


class FreeEndo:
    """An endomorphism of a free group, given by generator images.

    The ``inverse`` attribute, when set, is a verified two-sided inverse,
    so the endomorphism is then a genuine automorphism.  Only
    ``braid_action`` sets it, with a certificate built together with the
    images.  The link is one way: the inverse it attaches carries none, so
    no reference cycle outlives a call.
    """

    __slots__ = ("domain", "images", "inverse")

    def __init__(self, domain: Iterable[str], images: Mapping[str, Word]):
        self.domain: tuple[str, ...] = tuple(domain)
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("duplicate generator in domain")
        missing = [g for g in self.domain if g not in images]
        if missing:
            raise ValueError(f"no image for generator(s) {missing}")
        for g in self.domain:
            foreign = images[g].generators() - set(self.domain)
            if foreign:
                raise ValueError(f"image of {g!r} uses foreign generators {sorted(foreign)}")
        self.images: dict[str, Word] = {g: images[g] for g in self.domain}
        self.inverse: FreeEndo | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeEndo)
            and self.domain == other.domain
            and self.images == other.images
        )

    def __str__(self) -> str:
        return ", ".join(f"{g} -> {self.images[g]}" for g in self.domain)


class BraidWord:
    """A braid word on ``strands`` strands, stored letter by letter.

    Letters are ``(index, sign)`` with ``1 <= index < strands`` and sign
    ``+1`` or ``-1``; the word is stored exactly as given (no reduction).
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[tuple[int, int], ...] = ()):
        if strands < 2:
            raise ValueError("need at least two strands")
        for idx, sign in letters:
            if not 1 <= idx < strands:
                raise ValueError(f"braid letter index {idx} out of range for {strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"braid letter sign must be +1 or -1, got {sign}")
        self.strands, self.letters = strands, letters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BraidWord) and (self.strands, self.letters) == (other.strands, other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple((i, -s) for i, s in reversed(self.letters)))

    def __str__(self) -> str:
        return str(Word((f"s{i}", e) for i, e in self.letters))


# Longest braid, in letters after free reduction, that ``parse_braid`` accepts.
MAX_BRAID_LETTERS = 1000


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse the braid grammar, e.g. ``s1 s2^-1 s1^3``, on ``strands`` strands.

    The grammar is the word grammar over ``s1 .. s(strands-1)``, so the
    braid is freely reduced before ``Word.letters`` expands it.  A braid of
    more than ``MAX_BRAID_LETTERS`` letters is rejected before it is
    expanded.
    """
    w = parse_word(text, generators=[f"s{i}" for i in range(1, strands)])
    if w.length > MAX_BRAID_LETTERS:
        raise ParseError(f"braid has {w.length} letters, more than the limit {MAX_BRAID_LETTERS}")
    return BraidWord(strands, tuple((int(name[1:]), sign) for name, sign in w.letters()))


def fiber_names(strands: int) -> tuple[str, ...]:
    """Default free-group generator names a1..an for an n-strand action."""
    return tuple(f"a{i}" for i in range(1, strands + 1))


def _artin_images(images: list[Word], braid: BraidWord) -> list[Word]:
    """Images of the action ``images o action(braid)``, two updated per letter.

    ``images`` lists the images of ``fiber_names(strands)`` under the action
    so far.  Composing it with ``s_i`` sends the images ``(A, B)`` of
    ``a_i, a_{i+1}`` to ``(A B A^-1, A)``; with ``s_i^-1``, to ``(B, B^-1 A B)``.
    """
    images = list(images)
    for idx, sign in braid.letters:
        a, b = images[idx - 1], images[idx]
        if sign == 1:
            images[idx - 1], images[idx] = Word._new(_join((a.syllables, b.syllables, a.inverse().syllables))), a
        else:
            images[idx - 1], images[idx] = b, Word._new(_join((b.inverse().syllables, a.syllables, b.syllables)))
    return images


def braid_action(braid: BraidWord) -> FreeEndo:
    """The action of a braid word on the free group on ``fiber_names(strands)``.

    Returns a verified automorphism whose inverse is the action of the
    inverse braid word.  Peeling the forward images along the inverse
    braid, and the backward images along the braid, must give the
    identity; that proves ``forward o backward = id = backward o forward``.
    """
    names = fiber_names(braid.strands)
    identity = [Word.gen(g) for g in names]
    inverse = braid.inverse()
    forward = _artin_images(identity, braid)
    backward = _artin_images(identity, inverse)
    for side, images, peel in (("forward", forward, inverse), ("inverse", backward, braid)):
        if _artin_images(images, peel) != identity:
            raise InternalCheckError(f"{side} images of braid {braid} fail the peel check")
    out = FreeEndo(names, dict(zip(names, forward)))
    out.inverse = FreeEndo(names, dict(zip(names, backward)))
    return out

"""Descent of fiber monodromies to an index-2 free subgroup.

The fiber group is free on a1, a2, a3.  Imposing ai^2 = 1 on each
generator and keeping only even-length words leaves a free group of
rank 2 with basis p = a1 a2 and q = a3 a2.  Monodromy endomorphisms of
the fiber group descend along this rewriting to endomorphisms of
F(p, q); that descent is what ``lift_monodromy`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverError, InternalCheckError
from .words import FreeEndo, Word, substitute

FIBER_GENS: tuple[str, ...] = ("a1", "a2", "a3")
KERNEL_GENS: tuple[str, ...] = ("p", "q")

# The kernel basis as words in the fiber generators.
KERNEL_BASIS: dict[str, Word] = {
    "p": Word((("a1", 1), ("a2", 1))),
    "q": Word((("a3", 1), ("a2", 1))),
}


@dataclass(frozen=True)
class InvolutionWord:
    """A word in a1, a2, a3 with each generator an involution.

    Normal form: a plain letter sequence (all exponents +1) with no two
    equal adjacent letters.
    """

    letters: tuple[str, ...] = ()

    def __post_init__(self):
        for g in self.letters:
            if g not in FIBER_GENS:
                raise ValueError(f"foreign generator {g!r}")
        for x, y in zip(self.letters, self.letters[1:]):
            if x == y:
                raise ValueError("equal adjacent letters are not reduced")

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "1"


def involution_reduce(w: Word) -> InvolutionWord:
    """Fold all exponents mod 2 and cancel equal adjacent letters.

    A syllable with an even exponent is trivial; one with an odd exponent
    is a single letter.
    """
    stack: list[str] = []
    for g, e in w.syllables:
        if g not in FIBER_GENS:
            raise ValueError(f"foreign generator {g!r}")
        if e % 2 == 0:
            continue
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return InvolutionWord(tuple(stack))


def grade(w: InvolutionWord) -> int:
    """Z/2 grading: word length mod 2."""
    return len(w.letters) % 2


_P = Word.gen("p")
_Q = Word.gen("q")

# Adjacent pairs of involution letters rewritten into the kernel basis.
PAIR_TABLE: dict[tuple[str, str], Word] = {
    ("a1", "a2"): _P,
    ("a2", "a1"): _P ** -1,
    ("a3", "a2"): _Q,
    ("a2", "a3"): _Q ** -1,
    ("a1", "a3"): _P * _Q ** -1,
    ("a3", "a1"): _Q * _P ** -1,
}


def expand_kernel(w: Word) -> InvolutionWord:
    """Expand a word in p, q back to an even involution word."""
    return involution_reduce(substitute(w, KERNEL_BASIS))


def rewrite_to_pq(w: InvolutionWord) -> Word:
    """Rewrite an even involution word into the kernel basis p, q.

    Consumes letters two at a time through ``PAIR_TABLE``.  Raises
    ``CoverError`` on odd-length input.  The expansion of the result is
    checked to recover ``w`` before returning; a failure is an
    ``InternalCheckError``, since the pair table itself is then wrong.
    """
    if grade(w) != 0:
        raise CoverError(f"odd-length word {w} is not in the kernel")
    pairs = zip(w.letters[::2], w.letters[1::2])
    out = Word(s for pair in pairs for s in PAIR_TABLE[pair].syllables)
    if expand_kernel(out) != w:
        raise InternalCheckError(f"rewriting of {w} failed its round-trip check")
    return out


def _lift_images(m: FreeEndo) -> dict[str, Word]:
    images: dict[str, Word] = {}
    for name, rep in KERNEL_BASIS.items():
        reduced = involution_reduce(m.apply(rep))
        if grade(reduced) != 0:
            raise CoverError(
                f"image of {name} has odd grade; the monodromy does not preserve the kernel"
            )
        images[name] = rewrite_to_pq(reduced)
    return images


def lift_monodromy(m: FreeEndo) -> FreeEndo:
    """Descend a fiber monodromy to the kernel basis p, q.

    ``m`` must be an endomorphism of the free group on a1, a2, a3 whose
    images have even grade (braid actions do).  When ``m`` carries a
    verified inverse the lift does too.
    """
    if m.domain != FIBER_GENS:
        raise ValueError(f"monodromy domain must be {FIBER_GENS}")
    lifted = FreeEndo(KERNEL_GENS, _lift_images(m))
    if m.inverse is not None:
        lifted = lifted.with_inverse(FreeEndo(KERNEL_GENS, _lift_images(m.inverse)))
    return lifted

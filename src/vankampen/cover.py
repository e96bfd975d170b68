"""Descent of fiber monodromies to an index-2 free subgroup.

Imposing ai^2 = 1 on the free fiber group F(a1, a2, a3) gives
W = Z/2 * Z/2 * Z/2, whose even words are free on p = a1 a2 and
q = a3 a2 (Reidemeister-Schreier; Magnus, Karrass & Solitar,
*Combinatorial Group Theory*, section 2.3), so E: F(p, q) -> W is injective.
A monodromy m whose images are involutions in W descends to m_W on W;
``lift_monodromy`` computes its lift L = E^-1 m_W E and certifies the lift
of a verified inverse with one pass over each image.
"""

from __future__ import annotations

from .errors import CoverError, InternalCheckError
from .words import FreeEndo, Word, substitute

FIBER_GENS: tuple[str, ...] = ("a1", "a2", "a3")
KERNEL_GENS: tuple[str, ...] = ("p", "q")

# The kernel basis as words in the fiber generators.
KERNEL_BASIS: dict[str, Word] = {
    "p": Word((("a1", 1), ("a2", 1))),
    "q": Word((("a3", 1), ("a2", 1))),
}


class InvolutionWord:
    """A word in a1, a2, a3 with each generator an involution.

    Normal form: a plain letter sequence (all exponents +1) with no two
    equal adjacent letters.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[str, ...] = ()):
        for g in letters:
            if g not in FIBER_GENS:
                raise ValueError(f"foreign generator {g!r}")
        for x, y in zip(letters, letters[1:]):
            if x == y:
                raise ValueError("equal adjacent letters are not reduced")
        self.letters = letters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InvolutionWord) and self.letters == other.letters

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "1"

    def __mul__(self, other: InvolutionWord) -> InvolutionWord:
        """The product in W: equal letters cancel where the two words meet."""
        u, v = self.letters, other.letters
        k = next((k for k, (x, y) in enumerate(zip(reversed(u), v)) if x != y), min(len(u), len(v)))
        return InvolutionWord(u[:len(u) - k] + v[k:])


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
    """Lift images of p and q; raises ``CoverError`` unless ``m`` descends to W.

    Each ``m(ai)`` must reduce to a nonempty palindrome, an involution of W;
    its odd length keeps even words even.  Kernel generators x y map to
    m_W(x) m_W(y), multiplied in W; ``rewrite_to_pq`` proves E L = m_W E.
    """
    w = {g: involution_reduce(m.images[g]) for g in FIBER_GENS}
    for g, image in w.items():
        if not image.letters or image.letters != image.letters[::-1]:
            raise CoverError(f"image of {g} is not an involution in W; the monodromy does not descend")
    return {name: rewrite_to_pq(w[rep.syllables[0][0]] * w[rep.syllables[1][0]])
            for name, rep in KERNEL_BASIS.items()}


def lift_monodromy(m: FreeEndo) -> FreeEndo:
    """Descend a fiber monodromy to the kernel basis p, q.

    ``m`` must be an endomorphism of F(a1, a2, a3) whose images are
    involutions in W, as braid actions' are.  When ``m`` carries a verified
    inverse, its lift L carries the lift K of that inverse: m and m^-1
    descend to m_W and n_W with m_W n_W = id = n_W m_W; the round trips give
    E L = m_W E and E K = n_W E on p and q, hence on every word; so
    E L K = E = E K L, and E is injective.
    """
    if m.domain != FIBER_GENS:
        raise ValueError(f"monodromy domain must be {FIBER_GENS}")
    lifted = FreeEndo(KERNEL_GENS, _lift_images(m))
    if m.inverse is not None:
        lifted.inverse = FreeEndo(KERNEL_GENS, _lift_images(m.inverse))
    return lifted

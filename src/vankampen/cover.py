"""Descent of fiber monodromies to an index-2 free subgroup.

Imposing ai^2 = 1 on the free fiber group F(a1, a2, a3) gives
W = Z/2 * Z/2 * Z/2.  An element of W is its reduced letter tuple: no two
equal letters adjacent, ``()`` the identity.  The even elements are free on
p = a1 a2 and q = a3 a2, by the Reidemeister-Schreier rewriting process with
transversal {1, a2} (Magnus, Karrass & Solitar, *Combinatorial Group
Theory*, section 2.3), so E: F(p, q) -> W is injective.  A monodromy m whose
images are involutions in W descends to m_W on W; ``lift_monodromy``
computes its lift L = E^-1 m_W E with one pass over each image.
"""

from __future__ import annotations

from .errors import CoverError, InternalCheckError
from .words import FreeEndo, Word, fiber_names, substitute

FIBER_GENS = fiber_names(3)
KERNEL_GENS: tuple[str, ...] = ("p", "q")

# The kernel basis as words in the fiber generators.
KERNEL_BASIS: dict[str, Word] = {
    "p": Word((("a1", 1), ("a2", 1))),
    "q": Word((("a3", 1), ("a2", 1))),
}

# Each basis word is a letter followed by the transversal's a2; that letter
# names its Schreier generator.
SCHREIER_GEN: dict[str, str] = {rep.syllables[0][0]: name for name, rep in KERNEL_BASIS.items()}


def involution_reduce(w: Word) -> tuple[str, ...]:
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
    return tuple(stack)


def expand_kernel(w: Word) -> tuple[str, ...]:
    """Expand a word in p, q back to an even element of W."""
    return involution_reduce(substitute(w, KERNEL_BASIS))


def rewrite_to_pq(letters: tuple[str, ...]) -> Word:
    """Rewrite an even element of W into the kernel basis p, q.

    Schreier rewriting with transversal {1, a2}: the letter at position k
    is its Schreier generator to the power +1 at even k and -1 at odd k,
    and a2 contributes nothing.  Raises ``CoverError`` on odd-length input.
    The expansion of the result is checked to recover ``letters`` before
    returning; a failure is an ``InternalCheckError``, since the rewriting
    itself is then wrong.
    """
    if len(letters) % 2:
        raise CoverError(f"odd-length word {' '.join(letters)} is not in the kernel")
    out = Word((SCHREIER_GEN[g], 1 - 2 * (k % 2)) for k, g in enumerate(letters) if g in SCHREIER_GEN)
    if expand_kernel(out) != letters:
        raise InternalCheckError(f"rewriting of {' '.join(letters)} failed its round-trip check")
    return out


def lift_monodromy(m: FreeEndo) -> FreeEndo:
    """Descend a fiber monodromy to the kernel basis p, q.

    ``m`` must be an endomorphism of F(a1, a2, a3) whose images are
    involutions in W, as braid actions' are: each ``m(ai)`` must reduce to
    a nonempty palindrome, whose odd length keeps even words even, or
    ``CoverError`` is raised.  Kernel generators x y map to m_W(x) m_W(y),
    multiplied in W: equal letters cancel where the two images meet.
    ``rewrite_to_pq`` proves E L = m_W E on p and q, hence on every word.
    A caller that lifts a verified inverse m^-1 the same way gets K with
    E K = n_W E, where m_W n_W = id = n_W m_W; so E L K = E = E K L, and
    since E is injective, K is the inverse of L.
    """
    if m.domain != FIBER_GENS:
        raise ValueError(f"monodromy domain must be {FIBER_GENS}")
    w = {g: involution_reduce(m.images[g]) for g in FIBER_GENS}
    for g, image in w.items():
        if not image or image != image[::-1]:
            raise CoverError(f"image of {g} is not an involution in W; the monodromy does not descend")
    lifts = {}
    for name, rep in KERNEL_BASIS.items():
        u, v = w[rep.syllables[0][0]], w[rep.syllables[1][0]]
        k = next((k for k, (x, y) in enumerate(zip(reversed(u), v)) if x != y), min(len(u), len(v)))
        lifts[name] = rewrite_to_pq(u[:len(u) - k] + v[k:])
    return FreeEndo(KERNEL_GENS, lifts)

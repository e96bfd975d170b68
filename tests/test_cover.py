"""Reduced letter tuples of W, the Schreier rewriting into p and q, and monodromy lifts."""

import random

import pytest

from vankampen import cover
from vankampen.cli import main
from vankampen.cover import (
    FIBER_GENS,
    KERNEL_GENS,
    expand_kernel,
    involution_reduce,
    lift_monodromy,
    rewrite_to_pq,
)
from vankampen.errors import CoverError, InternalCheckError
from vankampen.words import BraidWord, FreeEndo, Word, braid_action, parse_braid, parse_word, substitute


def rand_involution_word(rng, max_len=10):
    letters = tuple(rng.choice(FIBER_GENS) for _ in range(rng.randint(0, max_len)))
    return involution_reduce(Word(tuple((g, 1) for g in letters)))


def test_involution_reduce_cancels_doubles():
    assert involution_reduce(parse_word("a1^2 a2")) == ("a2",)
    assert involution_reduce(parse_word("a1 a2^2 a1")) == ()
    assert involution_reduce(Word(())) == ()
    # exponents fold mod 2, signs are irrelevant under the involution
    assert involution_reduce(parse_word("a1^-3 a2")) == ("a1", "a2")


def involution_reduce_by_letters(w):
    """Letter-level reference: push every letter, cancelling equal neighbours."""
    stack = []
    for g, _ in w.letters():
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


def test_involution_reduce_matches_letter_level_reference():
    rng = random.Random(909)
    for _ in range(300):
        syllables = [(rng.choice(FIBER_GENS), rng.choice([-1, 1]) * rng.randint(1, 5)) for _ in range(rng.randint(0, 10))]
        w = Word(syllables)
        assert involution_reduce(w) == involution_reduce_by_letters(w)
    # a syllable costs one step whatever its exponent
    assert involution_reduce(parse_word("a1^100000001 a2^-4 a1")) == ()
    with pytest.raises(ValueError, match="foreign generator"):
        involution_reduce(parse_word("a1 x^2"))


def test_involution_reduce_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        w = rand_involution_word(rng)
        again = involution_reduce(Word(tuple((g, 1) for g in w)))
        assert again == w


# Reference: adjacent pairs of letters rewritten into the kernel basis.
PAIR_TABLE = {
    ("a1", "a2"): parse_word("p"),
    ("a2", "a1"): parse_word("p^-1"),
    ("a3", "a2"): parse_word("q"),
    ("a2", "a3"): parse_word("q^-1"),
    ("a1", "a3"): parse_word("p q^-1"),
    ("a3", "a1"): parse_word("q p^-1"),
}


def rewrite_by_pairs(letters):
    """Pair-table reference: consume the letters two at a time."""
    pairs = zip(letters[::2], letters[1::2])
    return Word(s for pair in pairs for s in PAIR_TABLE[pair].syllables)


def test_rewrite_basic_pairs():
    for pair, word in PAIR_TABLE.items():
        assert rewrite_to_pq(pair) == word
    assert rewrite_to_pq(()) == Word(())


def test_rewrite_matches_the_pair_table_on_random_even_words():
    rng = random.Random(2626)
    count = 0
    while count < 300:
        w = rand_involution_word(rng, max_len=40)
        if len(w) % 2:
            continue
        count += 1
        assert rewrite_to_pq(w) == rewrite_by_pairs(w)


def test_rewrite_rejects_odd_grade():
    with pytest.raises(CoverError):
        rewrite_to_pq(("a1",))
    with pytest.raises(CoverError):
        rewrite_to_pq(("a1", "a2", "a3"))


def test_rewrite_round_trip_on_random_even_words():
    rng = random.Random(23)
    count = 0
    while count < 150:
        w = rand_involution_word(rng)
        if len(w) % 2:
            continue
        count += 1
        assert expand_kernel(rewrite_to_pq(w)) == w


def test_expand_kernel_of_generators():
    assert expand_kernel(parse_word("p")) == ("a1", "a2")
    assert expand_kernel(parse_word("q^-1")) == ("a2", "a3")
    assert expand_kernel(parse_word("p q")) == ("a1", "a2", "a3", "a2")
    assert expand_kernel(parse_word("p p^-1")) == ()


def test_lift_requires_fiber_domain():
    wrong = FreeEndo(("x", "y"), {"x": parse_word("x"), "y": parse_word("y")})
    with pytest.raises(ValueError):
        lift_monodromy(wrong)


def test_lift_of_sigma2_oracle():
    lifted = lift_monodromy(braid_action(parse_braid("s2", 3)))
    assert lifted.domain == KERNEL_GENS
    assert substitute(parse_word("p"), lifted.images) == parse_word("p q")
    assert substitute(parse_word("q"), lifted.images) == parse_word("q")


def test_lift_of_conjugated_sigma_oracle():
    lifted = lift_monodromy(braid_action(parse_braid("s1^-3 s2 s1^3", 3)))
    assert substitute(parse_word("p"), lifted.images) == parse_word("p q p^3")
    assert substitute(parse_word("q"), lifted.images) == parse_word("p^-4 q^-1 p^-4 q^-1 p^-1")


def test_lift_of_two_band_braid_oracle():
    lifted = lift_monodromy(braid_action(parse_braid("s1^-1 s2^2 s1 s2^-2 s1", 3)))
    assert substitute(parse_word("p"), lifted.images) == parse_word("p q p q p^2 q p^2 q p")
    assert substitute(parse_word("q"), lifted.images) == parse_word(
        "p^-1 q^-1 p^-2 q^-1 p^-2 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1"
    )


def test_lift_functoriality_on_random_braids(compose):
    rng = random.Random(41)
    for _ in range(30):
        letters1 = tuple((rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(rng.randint(0, 4)))
        letters2 = tuple((rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(rng.randint(0, 4)))
        b1, b2 = BraidWord(3, letters1), BraidWord(3, letters2)
        lhs = lift_monodromy(braid_action(BraidWord(3, letters1 + letters2)))
        rhs = compose(lift_monodromy(braid_action(b1)), lift_monodromy(braid_action(b2)))
        for g in KERNEL_GENS:
            w = Word(((g, 1),))
            assert substitute(w, lhs.images) == substitute(w, rhs.images)


def test_lift_of_the_verified_inverse_inverts_the_lift():
    action = braid_action(parse_braid("s1^-3 s2 s1^3", 3))
    lifted, back = lift_monodromy(action), lift_monodromy(action.inverse)
    assert lifted.inverse is None and back.inverse is None  # a lift carries no inverse
    w = parse_word("p q^-1 p^2")
    assert substitute(substitute(w, lifted.images), back.images) == w


def test_round_trip_failure_is_an_internal_check(monkeypatch, capsys):
    monkeypatch.setitem(cover.SCHREIER_GEN, "a1", "q")
    with pytest.raises(InternalCheckError, match="round-trip"):
        rewrite_to_pq(("a1", "a2"))
    assert main(["lift-monodromy", "s2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rewriting of a1 a2 a3 a2 failed its round-trip check\n"


def rand_braid(rng, max_len):
    return BraidWord(3, tuple((rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(rng.randint(0, max_len))))


def test_lifted_inverse_substitutes_back_to_the_basis():
    # L K = id = K L for K the lift of the action's verified inverse
    rng = random.Random(1414)
    basis = {g: Word.gen(g) for g in KERNEL_GENS}
    for _ in range(200):
        action = braid_action(rand_braid(rng, 10))
        lifted, back = lift_monodromy(action), lift_monodromy(action.inverse)
        for g in KERNEL_GENS:
            assert substitute(back.images[g], lifted.images) == basis[g]
            assert substitute(lifted.images[g], back.images) == basis[g]


def test_lift_never_substitutes_into_a_lift(monkeypatch):
    # nor into the action: kernel images are products in W of the reduced fiber images,
    # and the one substitution left is the round-trip check's, into the kernel basis
    images_used = []
    sub = cover.substitute

    def counting(w, images):
        images_used.append(images)
        return sub(w, images)

    monkeypatch.setattr(cover, "substitute", counting)
    rng = random.Random(88)
    for braid in [parse_braid("s1^-1 s2^2 s1 s2^-2 s1", 3)] + [rand_braid(rng, 10) for _ in range(20)]:
        action = braid_action(braid)
        lift_monodromy(action)
        lift_monodromy(action.inverse)
    assert images_used and all(images is cover.KERNEL_BASIS for images in images_used)


def test_non_descending_monodromy_is_rejected():
    images = {"a1": parse_word("a1 a2 a3"), "a2": parse_word("a2"), "a3": parse_word("a3")}
    with pytest.raises(CoverError, match="image of a1 is not an involution in W; the monodromy does not descend"):
        lift_monodromy(FreeEndo(FIBER_GENS, images))


def test_lift_reads_no_attached_inverse():
    # an attached inverse that does not descend neither raises nor changes the lift
    action = braid_action(parse_braid("s2", 3))
    plain = lift_monodromy(FreeEndo(FIBER_GENS, action.images))
    action.inverse = FreeEndo(FIBER_GENS, {"a1": parse_word("a1^2"), "a2": parse_word("a2"), "a3": parse_word("a3")})
    lifted = lift_monodromy(action)
    assert lifted.images == plain.images and lifted.inverse is None


def test_lift_images_equal_the_substituted_images():
    # oracle: reduce m(x y) in the free group, then modulo squares
    rng = random.Random(300)
    for _ in range(300):
        action = braid_action(rand_braid(rng, 14))
        for m in (action, action.inverse):
            lift = lift_monodromy(m)
            for name, rep in cover.KERNEL_BASIS.items():
                assert lift.images[name] == rewrite_to_pq(involution_reduce(substitute(rep, m.images)))

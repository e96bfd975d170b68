"""Free-group words, their parser, endomorphisms, and the braid action."""

import ast
import random
import re
from pathlib import Path

import pytest

from vankampen import cover, pipeline, presentation, words
from vankampen.errors import InternalCheckError, ParseError
from vankampen.words import (
    MAX_BRAID_LETTERS,
    BraidWord,
    FreeEndo,
    Word,
    braid_action,
    comma_fields,
    fiber_names,
    parse_braid,
    parse_word,
    substitute,
)


def rand_word(gens, rng, max_len=8):
    syllables = []
    for _ in range(rng.randint(0, max_len)):
        syllables.append((rng.choice(gens), rng.choice([-3, -2, -1, 1, 2, 3])))
    return Word(tuple(syllables))


def test_empty_word_is_identity():
    w = Word(())
    assert w.length == 0
    assert str(w) == "1"
    assert w * w == w
    assert w.inverse() == w


def test_reduction_merges_and_cancels():
    w = Word((("p", 2), ("p", -1), ("q", 1), ("q", -1), ("p", 3)))
    assert w == Word((("p", 4),))
    assert str(w) == "p^4"


def test_mul_and_inverse():
    u = parse_word("p q^-1")
    v = parse_word("q p^2")
    assert str(u * v) == "p^3"  # q^-1 q cancels, powers of p merge
    assert (u * v) * (u * v).inverse() == Word(())
    assert u ** -2 == (u.inverse()) ** 2
    assert u ** 0 == Word(())


def test_free_reduction_idempotent_on_random_words():
    rng = random.Random(101)
    gens = ("p", "q", "r")
    for _ in range(200):
        w = rand_word(gens, rng)
        again = Word(tuple(w.syllables))
        assert again == w
        assert (w * w.inverse()).length == 0


def test_comma_fields_give_each_field_its_first_column():
    # stripped fields; a blank field sits at the column just past its blanks
    assert list(comma_fields(" a, b c ,,\td")) == [("a", 2), ("b c", 5), ("", 10), ("d", 12)]
    assert list(comma_fields("x", 6)) == [("x", 7)]
    assert list(comma_fields("")) == [("", 1)]


def count_joins(monkeypatch):
    """Patch ``words._join`` to record its calls; returns the record."""
    calls = []
    join = words._join

    def counted(parts):
        calls.append(1)
        return join(parts)

    monkeypatch.setattr(words, "_join", counted)
    return calls


def test_power_reduces_once(monkeypatch):
    w = parse_word("a b")
    calls = count_joins(monkeypatch)
    big = w ** 100_000
    assert big.length == 200_000
    assert len(calls) == 1
    assert (w ** -3) == parse_word("b^-1 a^-1 b^-1 a^-1 b^-1 a^-1")
    # a conjugate's power cancels at every seam
    assert parse_word("a b a^-1") ** 4 == parse_word("a b^4 a^-1")


def substitute_by_letters(w, images):
    """Letter-level reference: expand every letter into its image's letters."""
    out = []
    for g, e in w.letters():
        image = list(images[g].letters())
        out.extend(image if e > 0 else [(h, -f) for h, f in reversed(image)])
    return Word(out)


def rand_power_word(gens, rng, max_len):
    """A random word with exponents in +-1..5."""
    return Word((rng.choice(gens), rng.choice([-1, 1]) * rng.randint(1, 5)) for _ in range(rng.randint(0, max_len)))


def test_substitute_matches_letter_level_reference(monkeypatch):
    rng = random.Random(808)
    gens = ("p", "q", "r")
    calls = count_joins(monkeypatch)
    for _ in range(300):
        w = rand_power_word(gens, rng, 8)
        images = {g: rand_power_word(gens, rng, 4) for g in gens}
        expected = substitute_by_letters(w, images)
        del calls[:]
        assert substitute(w, images) == expected
        assert len(calls) == 1
    with pytest.raises(ValueError, match="outside the domain"):
        substitute(parse_word("p x"), {"p": parse_word("q")})


def reduce_letters(letters):
    """Letter-level reference: free reduction of a letter sequence on a stack."""
    out = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return out


def invert_letters(letters):
    return [(g, -e) for g, e in reversed(letters)]


def well_formed(syllables):
    """Every exponent is nonzero and no two adjacent syllables share a generator."""
    return all(e for _, e in syllables) and all(a[0] != b[0] for a, b in zip(syllables, syllables[1:]))


def assert_reduced_as(w, letters):
    """``w`` has well-formed syllables (nonzero, no two adjacent alike) and reads ``letters``."""
    assert isinstance(w.syllables, tuple) and well_formed(w.syllables)
    assert list(w.letters()) == letters


def test_trusted_constructions_match_letter_level_reference():
    rng = random.Random("words/trusted")
    gens = ("p", "q", "r")
    for _ in range(400):
        u, v = rand_power_word(gens, rng, 6), rand_power_word(gens, rng, 6)
        if rng.random() < 0.4:
            # a conjugate c u c^-1, whose powers cancel at every seam; with v = c v', so does u v
            c = list(rand_power_word(gens, rng, 3).letters())
            u = Word(c + list(u.letters()) + invert_letters(c))
            if rng.random() < 0.5:
                v = Word(c + list(v.letters()))
        lu, lv = list(u.letters()), list(v.letters())
        assert_reduced_as(u * v, reduce_letters(lu + lv))
        assert_reduced_as(v * u.inverse(), reduce_letters(lv + invert_letters(lu)))
        assert_reduced_as(u.inverse(), invert_letters(lu))
        n = rng.randint(-4, 4)
        assert_reduced_as(u ** n, reduce_letters((lu if n >= 0 else invert_letters(lu)) * abs(n)))
        g = rng.choice(gens)
        assert_reduced_as(Word.gen(g, n), [(g, 1 if n > 0 else -1)] * abs(n))
        images = {g: rand_power_word(gens, rng, 3) for g in gens}
        if rng.random() < 0.5:
            images[rng.choice(gens)] = Word.gen(rng.choice(gens), rng.choice((-2, -1, 1, 3)))
        assert_reduced_as(substitute(u, images), list(substitute_by_letters(u, images).letters()))


def raw_stream(gens, rng):
    """An unreduced syllable list: zero exponents, runs of one generator, and cancelling blocks."""
    stream = []
    for _ in range(rng.randint(0, 6)):
        move = rng.randrange(3)
        if move == 0:
            stream.append((rng.choice(gens), rng.randint(-3, 3)))
        elif move == 1:  # a run of one generator, which merges or cancels syllable by syllable
            g = rng.choice(gens)
            stream += [(g, rng.randint(-2, 2)) for _ in range(rng.randint(2, 4))]
        else:  # c x c^-1 with x possibly empty: cancels in a cascade back into c, as p q q^-1 p^-1 does
            c = [(rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 3))]
            stream += c + [(rng.choice(gens), rng.randint(-1, 1))] * rng.randint(0, 1)
            stream += [(g, -e) for g, e in reversed(c)]
    return [list(s) if rng.random() < 0.3 else s for s in stream]


def test_word_reduces_raw_syllable_streams_as_letters_do():
    assert Word([("p", 1), ("q", 1), ("q", -1), ("p", -1), ("p", 2)]) == Word.gen("p", 2)
    assert Word((("p", 4), ("g+", 0))) == Word.gen("p", 4)  # the replay's commutator p^a c^b at b = 0
    rng = random.Random("words/raw-streams")
    gens = ("p", "q", "r")
    for _ in range(600):
        stream = raw_stream(gens, rng)
        letters = reduce_letters([(g, 1 if e > 0 else -1) for g, e in stream for _ in range(abs(e))])
        for given in (stream, tuple(stream), (s for s in stream)):
            assert_reduced_as(Word(given), letters)


def artin_images_by_letters(images, braid):
    """Letter-level reference for ``_artin_images``: (A, B) -> (A B A^-1, A) or (B, B^-1 A B)."""
    images = [list(w.letters()) for w in images]
    for idx, sign in braid.letters:
        a, b = images[idx - 1], images[idx]
        if sign == 1:
            images[idx - 1], images[idx] = reduce_letters(a + b + invert_letters(a)), a
        else:
            images[idx - 1], images[idx] = b, reduce_letters(invert_letters(b) + a + b)
    return images


def test_artin_images_match_letter_level_reference():
    rng = random.Random("words/artin")
    for _ in range(200):
        strands = rng.choice((3, 4))
        braid = rand_braid(rng, strands, 8)
        start = [rand_power_word(fiber_names(strands), rng, 3) for _ in range(strands)]
        got = words._artin_images(start, braid)
        for w, letters in zip(got, artin_images_by_letters(start, braid), strict=True):
            assert_reduced_as(w, letters)


# the word-building layers substitute through ``words.substitute`` only
SUBSTITUTION_COPIES = {"substitute_generator", "_KERNEL_EXPANSION"}


def products_rebuilt_in_loops(tree):
    """``x = x * y`` or ``x *= y`` inside a loop: a word rebuilt product by product."""
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
                found.append(node.lineno)
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Mult)
                and isinstance(node.value.left, ast.Name)
                and node.value.left.id == node.targets[0].id
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", [words, presentation, cover], ids=lambda m: m.__name__)
def test_layers_use_one_substitution(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert not (defined | assigned) & SUBSTITUTION_COPIES
    assert not {name for name in defined if "substitut" in name} - {"substitute"}
    assert not products_rebuilt_in_loops(tree)
    if module is not words:
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "words" and node.level == 1
            for alias in node.names
        }
        assert "substitute" in imported
        assert "substitute" not in defined


def test_exponent_sum_and_generators():
    w = parse_word("p^3 q^-1 p^-1 q")
    assert w.exponent_sum("p") == 2
    assert w.exponent_sum("q") == 0
    assert w.generators() == {"p", "q"}


def test_letters_iterates_single_steps():
    w = parse_word("p^2 q^-2")
    assert list(w.letters()) == [("p", 1), ("p", 1), ("q", -1), ("q", -1)]


def test_parse_round_trip():
    rng = random.Random(7)
    gens = ("p", "q", "g+", "g-")
    for _ in range(100):
        w = rand_word(gens, rng)
        assert parse_word(str(w)) == w


def test_parse_identity_token():
    assert parse_word("1") == Word(())


def test_parse_rejects_zero_exponent_with_position():
    with pytest.raises(ParseError) as err:
        parse_word("p q^0")
    assert err.value.column == 3
    assert str(err.value) == "line 1, column 3: zero exponent on 'q'"


def test_parse_rejects_unknown_generator():
    with pytest.raises(ParseError) as err:
        parse_word("p x", generators=("p", "q"))
    assert err.value.column == 3


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("p ^ 3")


def test_endo_apply_and_compose(compose):
    e = FreeEndo(("p", "q"), {"p": parse_word("p q"), "q": parse_word("q")})
    assert str(substitute(parse_word("p^2"), e.images)) == "p q p q"
    f = FreeEndo(("p", "q"), {"p": parse_word("p"), "q": parse_word("q p")})
    fe = compose(f, e)
    assert substitute(parse_word("p"), fe.images) == substitute(substitute(parse_word("p"), e.images), f.images)


def test_braid_parse_and_round_trip():
    b = parse_braid("s1^-3 s2 s1^3", 3)
    assert b.strands == 3
    assert str(b) == "s1^-3 s2 s1^3"
    assert parse_braid(str(b), 3) == b
    assert parse_braid("s1 s1 s1", 3) == parse_braid("s1^3", 3)
    assert parse_braid("s3^2 1 s1", 4).letters == ((3, 1), (3, 1), (1, 1))


def test_braid_parse_reduces_freely():
    assert parse_braid("s1 s1^-1", 3) == BraidWord(3)
    assert parse_braid("s2 s1^2 s1^-3 s2^-1 s2 s1", 3).letters == ((2, 1),)
    # a letter sequence given directly is kept; it prints as its reduction
    assert str(BraidWord(3, ((1, 1), (1, -1), (2, -1), (2, -1)))) == "s2^-2"


def test_braid_parse_errors_name_the_token():
    cases = [
        ("s1 s9", "unknown generator 's9'", 4),
        ("x1", "unknown generator 'x1'", 1),
        ("s2 s1^0", "zero exponent on 's1'", 4),
        ("s1^x", "bad word token 's1^x'", 1),
    ]
    for text, message, column in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_braid(text, 3)
        assert err.value.column == column


def test_braid_inverse_acts_as_inverse():
    b = parse_braid("s1 s2^-2 s1", 3)
    act = braid_action(BraidWord(3, b.letters + b.inverse().letters))
    for name in fiber_names(3):
        w = Word(((name, 1),))
        assert substitute(w, act.images) == w


def test_braid_strand_bounds():
    with pytest.raises(ParseError):
        parse_braid("s3", 3)  # needs 4 strands
    with pytest.raises(ParseError):
        parse_braid("s0", 3)


def test_sigma_action_formula():
    # sigma_i sends a_i to a_i a_{i+1} a_i^-1 and a_{i+1} to a_i
    act = braid_action(parse_braid("s1", 3))
    assert str(act.images["a1"]) == "a1 a2 a1^-1"
    assert str(act.images["a2"]) == "a1"
    assert str(act.images["a3"]) == "a3"


def test_braid_action_is_homomorphism(compose):
    rng = random.Random(12)
    names = fiber_names(3)
    for _ in range(40):
        letters1 = [(rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(rng.randint(0, 4))]
        letters2 = [(rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(rng.randint(0, 4))]
        b1 = BraidWord(3, tuple(letters1))
        b2 = BraidWord(3, tuple(letters2))
        lhs = braid_action(BraidWord(3, b1.letters + b2.letters))
        rhs = compose(braid_action(b1), braid_action(b2))
        assert all(substitute(Word(((n, 1),)), lhs.images) == substitute(Word(((n, 1),)), rhs.images) for n in names)


def test_braid_relation_identity():
    lhs = braid_action(parse_braid("s1 s2 s1", 3))
    rhs = braid_action(parse_braid("s2 s1 s2", 3))
    for name in fiber_names(3):
        w = Word(((name, 1),))
        assert substitute(w, lhs.images) == substitute(w, rhs.images)


def test_braid_action_attaches_verified_inverse():
    act = braid_action(parse_braid("s1^-1 s2^2 s1 s2^-2 s1", 3))
    assert act.inverse is not None
    w = parse_word("a1 a2^-1 a3")
    assert substitute(substitute(w, act.images), act.inverse.images) == w


def test_action_preserves_conjugacy_shape():
    # every generator image is a conjugate of a generator: odd length,
    # total exponent sum one
    rng = random.Random(3)
    names = fiber_names(3)
    for _ in range(20):
        letters = [(rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(6)]
        act = braid_action(BraidWord(3, tuple(letters)))
        for name in names:
            img = substitute(Word(((name, 1),)), act.images)
            assert sum(img.exponent_sum(n) for n in names) == 1
            assert sum(abs(e) for _, e in img.syllables) % 2 == 1


def sigma_endo(strands, i, sign):
    """The action of one Artin letter as a free-group endomorphism."""
    names = fiber_names(strands)
    a, b = names[i - 1], names[i]
    images = {g: Word.gen(g) for g in names}
    if sign == 1:
        images[a], images[b] = Word(((a, 1), (b, 1), (a, -1))), Word.gen(a)
    else:
        images[a], images[b] = Word.gen(b), Word(((b, -1), (a, 1), (b, 1)))
    return FreeEndo(names, images)


def action_by_composition(braid, compose):
    """Reference action: compose the identity with one letter's action at a time."""
    names = fiber_names(braid.strands)
    forward = FreeEndo(names, {g: Word.gen(g) for g in names})
    for idx, sign in braid.letters:
        forward = compose(forward, sigma_endo(braid.strands, idx, sign))
    return forward


def rand_braid(rng, strands, max_len):
    letters = [(rng.randint(1, strands - 1), rng.choice([-1, 1])) for _ in range(rng.randint(0, max_len))]
    if letters and rng.random() < 0.3:
        # splice in a cancelling pair, so the sequence is not freely reduced
        k = rng.randrange(len(letters) + 1)
        idx, sign = rng.randint(1, strands - 1), rng.choice([-1, 1])
        letters[k:k] = [(idx, sign), (idx, -sign)]
    return BraidWord(strands, tuple(letters))


def test_braid_action_matches_per_letter_composition(compose):
    rng = random.Random(31)
    for _ in range(300):
        braid = rand_braid(rng, rng.choice((3, 3, 4)), 10)
        act = braid_action(braid)
        assert act == action_by_composition(braid, compose)
        assert act.inverse == action_by_composition(braid.inverse(), compose)
        # the inverse links one way, so the pair is no reference cycle
        assert act.inverse.inverse is None


def test_artin_images_reduce_once_per_letter(monkeypatch):
    braid = parse_braid("s1^-1 s2^2 s1 s2^-2 s1", 3)
    identity = [Word.gen(g) for g in fiber_names(3)]
    calls = count_joins(monkeypatch)
    words._artin_images(identity, braid)
    assert len(calls) == len(braid.letters)


def test_braid_action_builds_no_per_letter_endomorphism(monkeypatch):
    built = []
    init = FreeEndo.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(FreeEndo, "__init__", counted)
    counts = []
    for text in ("s1", "s1^-1 s2^2 s1 s2^-2 s1", "s1^5 s2^-7 s1^3"):
        del built[:]
        assert braid_action(parse_braid(text, 3)).inverse is not None
        counts.append(len(built))
    assert len(set(counts)) == 1
    assert pipeline.reproduce_paper().overall


def test_braid_layer_keeps_no_grammar_or_letter_action_of_its_own():
    tree = ast.parse(Path(words.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assigned = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert not (defined | assigned) & {"_BRAID_TOKEN_RE", "_sigma_endo"}


@pytest.mark.parametrize("call, side", [(0, "forward"), (1, "inverse")])
def test_braid_action_peel_rejects_a_corrupted_side(monkeypatch, call, side):
    # braid_action builds forward, then backward, then peels each; corrupt
    # one of the first two results and the peel of that side must fail
    artin = words._artin_images
    calls = []

    def corrupting(images, braid):
        out = artin(images, braid)
        if len(calls) == call:
            out[0] = out[0] * Word.gen("a2")
        calls.append(1)
        return out

    monkeypatch.setattr(words, "_artin_images", corrupting)
    for text in ("s1", "s1^-1 s2^2 s1 s2^-2 s1"):
        del calls[:]
        with pytest.raises(InternalCheckError, match=f"{side} images of braid .* peel"):
            braid_action(parse_braid(text, 3))


def test_parse_braid_bounds_the_letters_before_expanding():
    assert len(parse_braid(f"s1^{MAX_BRAID_LETTERS}", 3).letters) == MAX_BRAID_LETTERS
    # the bound applies after free reduction
    assert len(parse_braid("s2^1500 s2^-1000", 3).letters) == 500
    for text in (f"s1^{MAX_BRAID_LETTERS} s2", "s1^100000000", "s1^-600 s2^600"):
        with pytest.raises(ParseError, match=f"more than the limit {MAX_BRAID_LETTERS}"):
            parse_braid(text, 3)


def test_every_word_built_without_reduction_is_reduced(monkeypatch):
    # ``Word._new`` trusts its caller; record every syllable tuple it is handed
    built = []
    new = Word._new

    def recording(cls, syllables):
        built.append(syllables)
        return new(syllables)

    monkeypatch.setattr(Word, "_new", classmethod(recording))
    results = [pipeline.reproduce_paper().overall]
    rng = random.Random("words/guard")
    for _ in range(40):
        act = braid_action(rand_braid(rng, 3, 8))
        lift, back = cover.lift_monodromy(act), cover.lift_monodromy(act.inverse)
        results += [act.images, act.inverse.images, lift.images, back.images]
    for _ in range(60):
        gens = ("a", "b", "c")
        defining = Word.gen("c", -1) * rand_power_word(("a", "b"), rng, 5)
        relators = [defining] + [rand_power_word(gens, rng, 6) for _ in range(rng.randint(0, 3))]
        results.append(presentation.tietze_simplify(presentation.Presentation(gens, tuple(relators))).relators)
    assert results[0] and len(built) > 1000
    for syllables in built:
        assert isinstance(syllables, tuple) and well_formed(syllables)
    for w in (w for r in results[1:] for w in (r.values() if isinstance(r, dict) else r)):
        assert well_formed(w.syllables)

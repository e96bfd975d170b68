"""The package's record classes: equality where callers compare them, a hash
where they are hashed, and the checks their constructors make."""

import pytest

from vankampen.abelian import AbelianInvariants, IntMatrix
from vankampen.alexander import WeightedPresentation
from vankampen.presentation import CommutantReport, MetacyclicForm, Presentation
from vankampen.words import BraidWord, Word, parse_word

PQ = ("p", "q")

# name -> (builds one instance afresh or None, instances differing from it in
# one field each, (constructor call, ValueError message) pairs)
RECORDS = {
    "AbelianInvariants": (
        lambda: AbelianInvariants((3,), 1),
        [AbelianInvariants((9,), 1), AbelianInvariants((3,), 0)],
        [],
    ),
    "BraidWord": (
        lambda: BraidWord(3, ((1, 1), (2, -1))),
        [BraidWord(4, ((1, 1), (2, -1))), BraidWord(3, ((1, 1), (2, 1)))],
        [
            (lambda: BraidWord(1), "need at least two strands"),
            (lambda: BraidWord(3, ((3, 1),)), "braid letter index 3 out of range for 3 strands"),
            (lambda: BraidWord(3, ((0, 1),)), "braid letter index 0 out of range for 3 strands"),
            (lambda: BraidWord(3, ((1, 2),)), "braid letter sign must be +1 or -1, got 2"),
        ],
    ),
    "CommutantReport": (
        lambda: CommutantReport(Word.gen("p", 3), 3, True),
        [CommutantReport(Word.gen("p"), 3, True), CommutantReport(Word.gen("p", 3), 9, True),
         CommutantReport(Word.gen("p", 3), 3, False)],
        [],
    ),
    "IntMatrix": (
        None,
        [],
        [
            (lambda: IntMatrix(-1, 0, ()), "negative dimension"),
            (lambda: IntMatrix(2, -1, ()), "negative dimension"),
            (lambda: IntMatrix(2, 2, (1, 2, 3)), "entry count does not match dimensions"),
        ],
    ),
    "MetacyclicForm": (
        lambda: MetacyclicForm(9, 13),
        [MetacyclicForm(7, 4), MetacyclicForm(9, 7), MetacyclicForm(9, 4, "x", "g+"), MetacyclicForm(9, 4, "p", "y")],
        [
            (lambda: MetacyclicForm(0, 1), "modulus must be positive"),
            (lambda: MetacyclicForm(9, 12), "s = 3 is not invertible mod 9"),
        ],
    ),
    "Presentation": (
        lambda: Presentation(PQ, (parse_word("p q"), Word())),
        [Presentation(("q", "p"), (parse_word("p q"),)), Presentation(PQ, (parse_word("q p"),))],
        [
            (lambda: Presentation(("p", "p"), ()), "duplicate generator name"),
            (lambda: Presentation(("p",), (parse_word("p q"),)), "relator p q uses undeclared generators ['q']"),
        ],
    ),
    "WeightedPresentation": (
        None,
        [],
        [
            (lambda: WeightedPresentation(Presentation(PQ, ()), {"p": 1}),
             "missing weight for generator(s) ['q']"),
            (lambda: WeightedPresentation(Presentation(PQ, ()), {"p": 1, "q": 1, "c": 2}),
             "weight for non-generator(s) ['c']"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_equality_hash_and_constructor_checks(name):
    make, others, errors = RECORDS[name]
    if make is not None:
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        for other in others:
            assert a != other and not a == other
        assert a != object() and a != name
    if name == "Presentation":
        # the patch sweep collects its results in a set
        assert hash(a) == hash(b)
        assert len({a, b, *others}) == 1 + len(others)
    for build, message in errors:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

"""End-to-end acceptance gate: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import math
import random
from fractions import Fraction

from vankampen.abelian import AbelianInvariants, IntMatrix, abelian_invariants
from vankampen.alexander import (
    LaurentPoly,
    WeightedPresentation,
    alexander_polynomial,
    fox_derivative,
)
from vankampen.cover import (
    FIBER_GENS,
    expand_kernel,
    involution_reduce,
    lift_monodromy,
    rewrite_to_pq,
)
from vankampen.coset import enumerate_cosets, quotient_order
from vankampen.presentation import (
    MetacyclicForm,
    Presentation,
    canonicalize,
    commutant_report,
    metacyclic_normal_form,
    parse_presentation,
    patch_fiber,
    tietze_simplify,
    zvk_assemble,
)
from vankampen.curves import (
    EPS,
    QEps,
    chart_cubic_factors,
    cubic_pencil,
    divides,
    intersection_multiplicity_origin,
    nodal_cubic,
    parse_polynomial,
    singular_parameters,
    verify_node,
    verify_torus_structure,
)
from vankampen.words import BraidWord, Word, braid_action, parse_braid, parse_word, substitute

LEMMA_TEXT = "gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9"


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return deco


def standard_lifts():
    out = {}
    for name, text in (("m1", "s2"), ("m+", "s1^-3 s2 s1^3"), ("m-", "s1^-1 s2^2 s1 s2^-2 s1")):
        out[name] = lift_monodromy(braid_action(parse_braid(text, 3)))
    return out


@criterion("lifted monodromy word oracles")
def test_lifted_monodromy_oracles():
    lifts = standard_lifts()
    p, q = parse_word("p"), parse_word("q")
    assert substitute(p, lifts["m1"].images) == parse_word("p q")
    assert substitute(q, lifts["m1"].images) == parse_word("q")
    assert substitute(p, lifts["m+"].images) == parse_word("p q p^3")
    assert substitute(q, lifts["m+"].images) == parse_word("p^-4 q^-1 p^-4 q^-1 p^-1")
    assert substitute(p, lifts["m-"].images) == parse_word("p q p q p^2 q p^2 q p")
    assert substitute(q, lifts["m-"].images) == parse_word(
        "p^-1 q^-1 p^-2 q^-1 p^-2 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1"
    )


@criterion("presentation pipeline and patch sweep")
def test_presentation_pipeline_and_patch_sweep():
    lifts = standard_lifts()
    raw = zvk_assemble(kept=[lifts["m1"]], removed=[("g+", lifts["m+"]), ("g-", lifts["m-"])])
    simplified = tietze_simplify(raw)
    target = parse_presentation(
        "gens: p, g+, g-; rels: p^9, g+^-1 p g+ p^-4, g-^-1 p g- p^-7"
    )
    assert canonicalize(simplified) == canonicalize(target)
    lemma = parse_presentation(LEMMA_TEXT)
    for k in range(9):
        assert patch_fiber(simplified, "g+", "g-", k) == lemma


@criterion("commutant: p^3 central of order 3")
def test_commutant_certificate(metacyclic_group):
    form = MetacyclicForm(9, 4)
    assert metacyclic_normal_form(form, parse_word("p^-1 g+^-1 p g+")) == (3, 0)
    report = commutant_report(form)
    assert str(report.generator) == "p^3"
    assert report.order == 3
    assert report.central

    # b a b^-1 = a^7 is g+^-1 p g+ = p^4 for (a, b) = (p, g+), as 4 * 7 = 1 mod 9
    m, mul, elements = metacyclic_group(9, 7)
    images = {"p": ((1, 0), 9), "g+": ((0, 1), m)}  # image and its order
    lemma = parse_presentation(LEMMA_TEXT)
    for r in lemma.relators:
        image = (0, 0)
        for g, e in r.syllables:
            x, order = images[g]
            for _ in range(e % order):
                image = mul(image, x)
        assert image == (0, 0)
    cube = (3, 0)
    assert cube != (0, 0) and mul(mul(cube, cube), cube) == (0, 0)  # order 3
    for g, _ in images.values():
        assert mul(cube, g) == mul(g, cube)
    assert len(elements) == 27
    assert quotient_order(lemma, extra_relators=(parse_word("g+^3"),), max_cosets=10_000) == 27


@criterion("abelian invariants Z/3 + Z and Z/6")
def test_abelian_invariants_exact():
    lemma = parse_presentation(LEMMA_TEXT)
    assert abelian_invariants(lemma) == AbelianInvariants((3,), 1)
    braid_quotient = parse_presentation(
        "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"
    )
    assert abelian_invariants(braid_quotient) == AbelianInvariants((6,), 0)


@criterion("Alexander polynomials t^2 - t + 1 and 1")
def test_alexander_polynomials():
    braid_quotient = parse_presentation(
        "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"
    )
    delta = alexander_polynomial(WeightedPresentation(braid_quotient, {"s1": 1, "s2": 1}))
    assert delta.normalized() == LaurentPoly({2: 1, 1: -1, 0: 1})
    cyclic = parse_presentation("gens: a; rels: a^6")
    assert alexander_polynomial(WeightedPresentation(cyclic, {"a": 1})) == LaurentPoly({0: 1})


@criterion("coset enumeration: index 9, quotient order 27")
def test_coset_enumeration():
    lemma = parse_presentation(LEMMA_TEXT)
    table = enumerate_cosets(lemma, subgroup=(parse_word("g+"),), max_cosets=10_000)
    assert table.count == 9
    assert quotient_order(lemma, extra_relators=(parse_word("g+^3"),), max_cosets=10_000) == 27


@criterion("exact curve verification")
def test_curve_verification():
    # rational member: node at (2/5, 1/5), where f and its gradient vanish
    # and the Hessian determinant does not
    assert verify_node(cubic_pencil(Fraction(1, 3)), (Fraction(2, 5), Fraction(1, 5)))

    # cube-root member b = eps/3: its node sits at ((2/5) eps, (1/5) eps^-1);
    # the coordinate-swapped pair is the node of the conjugate member
    # b = eps^-1/3 and does not lie on f_{eps/3} at all (pinned below)
    f = cubic_pencil(EPS / QEps(3))
    node = (Fraction(2, 5) * EPS, Fraction(1, 5) * EPS.inverse())
    assert verify_node(f, node)
    swapped = (Fraction(2, 5) * EPS.inverse(), Fraction(1, 5) * EPS)
    conj = cubic_pencil(EPS.inverse() / QEps(3))
    assert verify_node(conj, swapped)
    assert f.evaluate({"x": swapped[0], "y": swapped[1]}) != QEps(0)

    # boundary member: node at the origin
    assert verify_node(nodal_cubic(), (0, 0))

    # elimination polynomial for singular pencil members
    elim = singular_parameters()
    assert divides(parse_polynomial("27 b^3 - 1", elim.variables), elim)

    # torus-structure identity with its exact constant
    assert verify_torus_structure() == Fraction(-4, 729)

    # chart factors meet the origin with multiplicity 9
    g, h = chart_cubic_factors()
    assert intersection_multiplicity_origin(g, h) == 9


@criterion("property suites")
def test_property_suites(
    snf_transforms, compose, laurent_product, laurent_sum, int_product, int_det, metacyclic_group
):
    rng = random.Random(101)

    # free reduction is idempotent
    for _ in range(20):
        letters = tuple((rng.choice("pq"), rng.choice((-2, -1, 1, 2))) for _ in range(8))
        w = Word(letters)
        assert Word(w.syllables) == w

    # braid action is a homomorphism and satisfies the braid relation
    for _ in range(10):
        b1 = parse_braid(
            " ".join(rng.choice(("s1", "s2", "s1^-1", "s2^-1")) for _ in range(4)), 3
        )
        b2 = parse_braid(
            " ".join(rng.choice(("s1", "s2", "s1^-1", "s2^-1")) for _ in range(4)), 3
        )
        lhs = braid_action(BraidWord(3, b1.letters + b2.letters))
        rhs = compose(braid_action(b1), braid_action(b2))
        for g in ("a1", "a2", "a3"):
            assert substitute(parse_word(g), lhs.images) == substitute(parse_word(g), rhs.images)
    left = braid_action(parse_braid("s1 s2 s1", 3))
    right = braid_action(parse_braid("s2 s1 s2", 3))
    for g in ("a1", "a2", "a3"):
        assert substitute(parse_word(g), left.images) == substitute(parse_word(g), right.images)

    # cover lifts compose functorially; rewriting round-trips
    for _ in range(6):
        b1 = parse_braid(rng.choice(("s1", "s2", "s1^-1 s2", "s2 s1")), 3)
        b2 = parse_braid(rng.choice(("s2^-1", "s1 s2", "s2 s2", "s1^-1")), 3)
        lhs = lift_monodromy(braid_action(BraidWord(3, b1.letters + b2.letters)))
        rhs = compose(
            lift_monodromy(braid_action(b1)), lift_monodromy(braid_action(b2))
        )
        for g in ("p", "q"):
            assert substitute(parse_word(g), lhs.images) == substitute(parse_word(g), rhs.images)
    count = 0
    while count < 30:
        letters = tuple(rng.choice(FIBER_GENS) for _ in range(rng.randint(0, 10)))
        w = involution_reduce(Word(tuple((g, 1) for g in letters)))
        if len(w) % 2:
            continue
        count += 1
        assert expand_kernel(rewrite_to_pq(w)) == w

    # Fox derivatives: product rule and fundamental identity
    weights = {"a": 1, "b": 2}
    for _ in range(12):
        u = Word(tuple((rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(3)))
        v = Word(tuple((rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(3)))
        wu = sum(e * weights[g] for g, e in u.syllables)
        shift = LaurentPoly({wu: 1})
        terms = []
        for g in ("a", "b"):
            assert fox_derivative(u * v, g, weights) == laurent_sum(
                fox_derivative(u, g, weights), laurent_product(shift, fox_derivative(v, g, weights))
            )
            terms.append(laurent_product(fox_derivative(u, g, weights), LaurentPoly({weights[g]: 1, 0: -1})))
        assert laurent_sum(*terms, LaurentPoly({0: 1})) == shift

    # Smith normal form certificate
    for _ in range(8):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        )
        d, u, v = snf_transforms(m)
        assert int_product(u, m, v) == d.rows()
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = [d.entry(i, i) for i in range(min(nr, nc))]
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    # simplification preserves abelian invariants
    for _ in range(8):
        gens = ("a", "b", "c")
        rels = tuple(
            Word(tuple((rng.choice(gens), rng.choice((-2, -1, 1, 2))) for _ in range(4)))
            for _ in range(rng.randint(1, 3))
        )
        pres = Presentation(gens, rels)
        assert abelian_invariants(tietze_simplify(pres)) == abelian_invariants(pres)

    # coset enumeration matches brute force on small metacyclic groups
    cases = [
        (n, s) for n in range(2, 13) for s in range(2, n) if math.gcd(s, n) == 1
    ]
    rng.shuffle(cases)
    for n, s in cases[:4]:
        m, _, elements = metacyclic_group(n, s)
        pres = parse_presentation(f"gens: a, b; rels: a^{n}, b a b^-1 a^-{s}, b^{m}")
        assert quotient_order(pres) == len(elements) == n * m

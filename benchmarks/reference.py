"""Independent reference checks for the benchmark's operations.

Standard library only; nothing here imports ``vankampen``.  Every check
takes plain data (letter lists, integer rows, coefficient dicts, stage
texts) and raises ``CheckFailed`` when the answer is wrong.  The checks
are computed apart from the library's algorithms:

* braid actions by the Artin rule applied to plain letter lists;
* cover lifts by the even-word expansion p -> a1 a2, q -> a3 a2 with
  every ai an involution;
* coset tables by the index n(n-1) of Z/n x| Z/(n-1) and a pass tracing
  every relator from every coset;
* Smith forms by |det M| = prod d_i (Fraction elimination), d_1 = gcd of
  the entries, and the divisibility chain;
* torus-knot Alexander polynomials by
  (t^nm - 1)(t - 1) / ((t^n - 1)(t^m - 1));
* resultants by Sylvester determinants of specialisations y = y0 at
  more points than the resultant's degree bound, over Q and over
  Q(eps) = Q[eps]/(eps^2 + eps + 1) with elements as pairs of Fractions;
* the paper replay by re-deriving the published figures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

Letter = tuple[str, int]


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# free-group words on plain letter lists


def free_reduce(letters: list[Letter]) -> list[Letter]:
    out: list[Letter] = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return out


def invert(letters: list[Letter]) -> list[Letter]:
    return [(g, -e) for g, e in reversed(letters)]


def fiber_names(strands: int) -> list[str]:
    return [f"a{i}" for i in range(1, strands + 1)]


def artin_images(strands: int, braid: list[tuple[int, int]]) -> dict[str, list[Letter]]:
    """Images of a1..an under the braid word, letter by letter.

    ``s_i: a_i -> a_i a_(i+1) a_i^-1, a_(i+1) -> a_i`` and
    ``action(b1 b2) = action(b1) o action(b2)``, so appending a letter
    substitutes the current images into that letter's images.
    """
    names = fiber_names(strands)
    images = [[(g, 1)] for g in names]
    for idx, sign in braid:
        a, b = images[idx - 1], images[idx]
        if sign == 1:
            images[idx - 1], images[idx] = free_reduce(a + b + invert(a)), a
        else:
            images[idx - 1], images[idx] = b, free_reduce(invert(b) + a + b)
    return dict(zip(names, images))


def check_braid_action(
    strands: int, braid: list[tuple[int, int]], images: dict[str, list[Letter]]
) -> None:
    expected = artin_images(strands, braid)
    require(set(images) == set(expected), f"action domain {sorted(images)} is not a1..a{strands}")
    for g, want in expected.items():
        require(images[g] == want, f"image of {g} differs from the Artin action")


_EXPANSION = {("p", 1): ["a1", "a2"], ("p", -1): ["a2", "a1"],
              ("q", 1): ["a3", "a2"], ("q", -1): ["a2", "a3"]}


def involution_reduce(names: list[str]) -> list[str]:
    """Cancel equal adjacent letters: each ai is an involution."""
    out: list[str] = []
    for g in names:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return out


def check_lift(braid: list[tuple[int, int]], lift: dict[str, list[Letter]]) -> None:
    """The lift of a 3-strand braid action to the kernel basis p, q."""
    action = artin_images(3, braid)
    require(set(lift) == {"p", "q"}, f"lift domain {sorted(lift)} is not p, q")
    for x, rep in (("p", ("a1", "a2")), ("q", ("a3", "a2"))):
        word = lift[x]
        require(word == free_reduce(word), f"lift of {x} is not freely reduced")
        require(all(l in _EXPANSION for l in word), f"lift of {x} leaves the kernel basis")
        expanded = involution_reduce([a for l in word for a in _EXPANSION[l]])
        image = [g for r in rep for g, _ in action[r]]
        require(expanded == involution_reduce(image), f"lift of {x} does not expand to its image")


# ---------------------------------------------------------------------------
# presentations


def parse_word(text: str) -> list[Letter]:
    """``p^4 g+^-1 p`` -> letters; ``1`` is the identity."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok == "1":
            continue
        name, _, exp = tok.partition("^")
        e = int(exp) if exp else 1
        letters.extend([(name, 1 if e > 0 else -1)] * abs(e))
    return letters


def parse_presentation(text: str) -> tuple[list[str], list[list[Letter]]]:
    head, _, tail = text.partition(";")
    gens = [g.strip() for g in head.strip()[len("gens:"):].split(",") if g.strip()]
    rels = [parse_word(r) for r in tail.strip()[len("rels:"):].split(",") if r.strip()]
    return gens, [r for r in rels if r]


def word_text(letters: list[Letter]) -> str:
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in letters) or "1"


def presentation_text(gens: list[str], rels: list[list[Letter]]) -> str:
    return f"gens: {', '.join(gens)}; rels: {', '.join(word_text(r) for r in rels)}"


def _det(rows: list[list[int]]) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    return _det_over(Field(eps=False), [[Fraction(x) for x in r] for r in rows])


def abelian_invariants(gens: list[str], rels: list[list[Letter]]) -> tuple[tuple[int, ...], int]:
    """(torsion, free rank) from determinantal divisors of the relation matrix.

    d_k = gcd of the k x k minors; the invariant factors are d_k / d_(k-1).
    Exhaustive over minors, so only for small matrices.
    """
    m = [[sum(e for g, e in r if g == x) for x in gens] for r in rels]
    divisors = [1]
    for k in range(1, min(len(m), len(gens)) + 1):
        d = 0
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(gens)), k):
                d = gcd(d, int(_det([[m[i][j] for j in cols] for i in rows])))
        if d == 0:
            break
        divisors.append(d)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    return tuple(f for f in factors if f > 1), len(gens) - len(factors)


def invariants_text(torsion: tuple[int, ...], free_rank: int) -> str:
    parts = [f"Z/{d}" for d in torsion] + ([f"Z^{free_rank}"] if free_rank else [])
    return " + ".join(parts) if parts else "0"


def check_same_abelianization(
    before: tuple[list[str], list[list[Letter]]], after: tuple[list[str], list[list[Letter]]]
) -> None:
    """Tietze moves keep the group, hence its abelianization."""
    gens, rels = after
    require(set(gens) <= set(before[0]), "simplification introduced a generator")
    for r in rels:
        require(r and r == free_reduce(r), "relator is empty or not freely reduced")
        require(r[0] != (r[-1][0], -r[-1][1]), "relator is not cyclically reduced")
    require(
        abelian_invariants(*before) == abelian_invariants(*after),
        "abelianization changed under simplification",
    )


def metacyclic_relators(n: int) -> list[list[Letter]]:
    """p^n, c^(n-1), c^-1 p c p^-2: the group Z/n x| Z/(n-1) for prime n."""
    return [[("p", 1)] * n, [("c", 1)] * (n - 1), [("c", -1), ("p", 1), ("c", 1), ("p", -1), ("p", -1)]]


def check_coset_table(n: int, generators: list[str], rows: list[list[int]]) -> None:
    """Index n(n-1), columns mutually inverse, every relator fixes every coset."""
    count = len(rows)
    require(count == n * (n - 1), f"index {count}, expected n(n-1) = {n * (n - 1)}")
    col = {(g, 1): 2 * i for i, g in enumerate(generators)}
    col.update({(g, -1): 2 * i + 1 for i, g in enumerate(generators)})
    for c, row in enumerate(rows):
        require(len(row) == 2 * len(generators), f"row {c} has the wrong width")
        for j in range(0, len(row), 2):
            require(0 <= row[j] < count and rows[row[j]][j + 1] == c, f"coset {c}: column {j} not inverted")
    for rel in metacyclic_relators(n):
        cols = [col[l] for l in rel]
        for c in range(count):
            d = c
            for j in cols:
                d = rows[d][j]
            require(d == c, f"relator does not fix coset {c}")


# ---------------------------------------------------------------------------
# Smith normal form


def check_smith_form(matrix: list[list[int]], diagonal_form: list[list[int]]) -> None:
    k = len(matrix)
    require(len(diagonal_form) == k and all(len(r) == k for r in diagonal_form), "D has the wrong shape")
    for i, row in enumerate(diagonal_form):
        for j, x in enumerate(row):
            require(i == j or x == 0, f"D has a nonzero off-diagonal entry at ({i}, {j})")
    d = [diagonal_form[i][i] for i in range(k)]
    require(all(x >= 0 for x in d), "negative invariant factor")
    for x, y in zip(d, d[1:]):
        require((x == 0 and y == 0) or (x != 0 and y % x == 0), "divisibility chain broken")
    entries_gcd = 0
    for row in matrix:
        for x in row:
            entries_gcd = gcd(entries_gcd, x)
    require(d[0] == entries_gcd, f"d1 = {d[0]}, gcd of entries = {entries_gcd}")
    require(abs(_det(matrix)) == prod(d), "|det M| differs from the product of invariant factors")


# ---------------------------------------------------------------------------
# Alexander polynomials of torus knots


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly_divmod(f: list[int], g: list[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Ascending coefficient lists; g has a nonzero leading coefficient."""
    rem = [Fraction(c) for c in f]
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    for shift in range(len(f) - len(g), -1, -1):
        q = rem[shift + len(g) - 1] / g[-1]
        quo[shift] = q
        for i, c in enumerate(g):
            rem[shift + i] -= q * c
    return quo, rem[: len(g) - 1]


def torus_alexander(n: int, m: int) -> dict[int, int]:
    """Exponent -> coefficient of (t^nm - 1)(t - 1) / ((t^n - 1)(t^m - 1))."""
    def cyclo(k: int) -> list[int]:
        return [-1] + [0] * (k - 1) + [1]

    num = _poly_mul(cyclo(n * m), cyclo(1))
    quo, rem = _poly_divmod(num, _poly_mul(cyclo(n), cyclo(m)))
    if any(rem) or any(q.denominator != 1 for q in quo):
        raise ValueError(f"T({n}, {m}) formula is not a polynomial; are n, m coprime?")
    return {e: int(c) for e, c in enumerate(quo) if c}


def check_alexander(n: int, m: int, coeffs: dict[int, int]) -> None:
    require(coeffs == torus_alexander(n, m), f"not the Alexander polynomial of T({n}, {m})")


# ---------------------------------------------------------------------------
# resultants over Q and Q(eps)


class Field:
    """Q, or Q(eps) with elements (a, b) = a + b eps and eps^2 = -eps - 1."""

    def __init__(self, eps: bool):
        self.eps = eps
        self.zero = (Fraction(0), Fraction(0)) if eps else Fraction(0)
        self.one = (Fraction(1), Fraction(0)) if eps else Fraction(1)

    def of(self, x):
        if self.eps:
            return (Fraction(x[0]), Fraction(x[1])) if isinstance(x, tuple) else (Fraction(x), Fraction(0))
        return Fraction(x)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1]) if self.eps else x + y

    def neg(self, x):
        return (-x[0], -x[1]) if self.eps else -x

    def mul(self, x, y):
        if not self.eps:
            return x * y
        a1, b1 = x
        a2, b2 = y
        return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def inv(self, x):
        if not self.eps:
            return 1 / x
        a, b = x
        norm = a * a - a * b + b * b
        return ((a - b) / norm, -b / norm)

    def is_zero(self, x) -> bool:
        return x == self.zero


def _det_over(field: Field, rows: list[list]) -> object:
    m = [list(r) for r in rows]
    n, det = len(m), field.one
    for k in range(n):
        pivot = next((i for i in range(k, n) if not field.is_zero(m[i][k])), None)
        if pivot is None:
            return field.zero
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = field.neg(det)
        det = field.mul(det, m[k][k])
        inv = field.inv(m[k][k])
        for i in range(k + 1, n):
            f = field.mul(m[i][k], inv)
            if not field.is_zero(f):
                m[i] = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(m[i], m[k])]
    return det


def _specialise(field: Field, terms: dict[tuple[int, int], object], y0: int) -> list:
    """Ascending coefficients in x of f(x, y0)."""
    dx = max(i for i, _ in terms)
    out = [field.zero] * (dx + 1)
    for (i, j), c in terms.items():
        out[i] = field.add(out[i], field.mul(field.of(c), field.of(Fraction(y0) ** j)))
    return out


def _sylvester(field: Field, f: list, g: list) -> list[list]:
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    for i in range(dg):
        row = [field.zero] * n
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [field.zero] * n
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return rows


def check_resultant(
    eps: bool,
    f: dict[tuple[int, int], object],
    g: dict[tuple[int, int], object],
    res: dict[tuple[int, int], object],
) -> None:
    """res_x(f, g) for f, g in K[x, y], terms keyed by (deg_x, deg_y).

    The resultant has y-degree at most df*deg_y(g) + dg*deg_y(f); it is
    compared with Sylvester determinants of f(x, y0), g(x, y0) at one more
    point than that bound, skipping points where a leading coefficient in
    x vanishes.  Agreement there proves equality.
    """
    field = Field(eps)
    df, dg = max(i for i, _ in f), max(i for i, _ in g)
    bound = df * max(j for _, j in g) + dg * max(j for _, j in f)
    require(all(i == 0 for i, _ in res), "resultant still depends on x")
    require(max((j for _, j in res), default=0) <= bound, "resultant exceeds the degree bound")
    checked, y0 = 0, 0
    while checked <= bound:
        fx, gx = _specialise(field, f, y0), _specialise(field, g, y0)
        if not field.is_zero(fx[-1]) and not field.is_zero(gx[-1]):
            want = _det_over(field, _sylvester(field, fx, gx))
            got = field.zero
            for (_, j), c in res.items():
                got = field.add(got, field.mul(field.of(c), field.of(Fraction(y0) ** j)))
            require(got == want, f"resultant differs from the Sylvester determinant at y = {y0}")
            checked += 1
        y0 = -y0 if y0 > 0 else 1 - y0  # 0, 1, -1, 2, -2, ...


# ---------------------------------------------------------------------------
# the paper's published figures, re-derived


PUBLISHED_ABELIAN = "Z/3 + Z^1"
PUBLISHED_ALEXANDER = "t^2 - t + 1"
PUBLISHED_QUOTIENT_ORDER = 27
PUBLISHED_ELIMINATION = {7: 108, 4: -733, 1: 27}  # 108 b^7 - 733 b^4 + 27 b
BRAID_QUOTIENT = "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"


def parse_laurent(text: str) -> dict[int, int]:
    """``t^2 - t + 1`` -> {2: 1, 1: -1, 0: 1}."""
    out: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff, _, power = tok.rpartition("*") if "*" in tok else ("1", "", tok)
        if power.startswith("t"):
            exp = int(power[2:]) if power.startswith("t^") else 1
        else:
            coeff, exp = power, 0
        out[exp] = sign * int(coeff)
        sign = 1
    return out


def affine_group_order(images: dict[str, tuple[int, int]], modulus: int) -> int:
    """Order of the group generated by maps x -> u x + t mod ``modulus``."""
    def compose(f, g):  # f after g
        return (f[0] * g[0] % modulus, (f[0] * g[1] + f[1]) % modulus)

    seen = {(1, 0)}
    frontier = [(1, 0)]
    while frontier:
        nxt = []
        for h in frontier:
            for g in images.values():
                k = compose(g, h)
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    return len(seen)


def _evaluate_affine(word: list[Letter], images: dict[str, tuple[int, int]], modulus: int) -> tuple[int, int]:
    acc = (1, 0)
    for g, e in word:
        u, t = images[g]
        if e < 0:
            u = pow(u, -1, modulus)
            t = (-u * t) % modulus
        acc = (acc[0] * u % modulus, (acc[0] * t + acc[1]) % modulus)
    return acc


def quotient_lower_bound(gens: list[str], rels: list[list[Letter]]) -> int:
    """Order of a Z/9 x| Z/3 image of <gens | rels, g+^3>, p a translation.

    Searches the affine maps p -> x + 1, g+ -> u x with u^3 = 1 mod 9 for
    one that kills every relator; the image has order 27.
    """
    for u in (4, 7):
        images = {"p": (1, 1), "g+": (u, 0)}
        if set(gens) == set(images) and all(
            _evaluate_affine(r, images, 9) == (1, 0) for r in rels + [[("g+", 1)] * 3]
        ):
            return affine_group_order(images, 9)
    return 0


def check_paper_replay(overall: bool, stages: dict[str, str]) -> None:
    """Re-derive the paper's figures from the replay's computed texts."""
    require(overall, "the replay reports a stage mismatch")
    lines = {}
    for name, text in stages.items():
        require(not text.startswith("error:"), f"stage {name} raised: {text}")
        for line in text.split("\n"):
            key, _, value = line.rpartition(": ")
            lines[key] = value

    patched = stages["patch-sweep"].partition("patched: ")[2]
    gens, rels = parse_presentation(patched)
    derived = invariants_text(*abelian_invariants(gens, rels))
    require(derived == PUBLISHED_ABELIAN, f"patched group abelianizes to {derived}")
    require(lines["patched group"] == derived, "abelian invariants of the patched group")
    braid = invariants_text(*abelian_invariants(*parse_presentation(BRAID_QUOTIENT)))
    require(lines["braid quotient"] == braid, "abelian invariants of the braid quotient")

    trefoil = torus_alexander(2, 3)
    require(trefoil == parse_laurent(PUBLISHED_ALEXANDER), "T(2,3) formula")
    require(parse_laurent(lines["braid quotient, s1 = s2 = t"]) == trefoil, "Alexander polynomial")

    order = quotient_lower_bound(gens, rels)
    require(order == PUBLISHED_QUOTIENT_ORDER, f"no Z/9 x| Z/3 image of order 27 (found {order})")
    require(lines["quotient with g+^3 = 1"] == f"order {order}", "quotient order")

    elimination = [PUBLISHED_ELIMINATION.get(e, 0) for e in range(8)]
    _, rem = _poly_divmod(elimination, [-1, 0, 0, 27])
    require(not any(rem), "27 b^3 - 1 does not divide 108 b^7 - 733 b^4 + 27 b")
    require(lines["singular parameters divisible by 27 b^3 - 1"] == "yes", "elimination divisibility")

    require(lines["torus identity constant"] == str(-Fraction(2, 27) ** 2), "torus identity constant")

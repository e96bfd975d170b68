"""Integer matrices, Smith normal form with certificates, abelian invariants."""

import ast
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

from vankampen import abelian
from vankampen.abelian import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    relator_matrix,
    smith_normal_form,
)
from vankampen.errors import InternalCheckError
from vankampen.presentation import Presentation, parse_presentation
from vankampen.words import parse_word


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def determinantal_divisor(rows, k):
    """Gcd of all k x k minors; 0 when every minor vanishes."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nr), k):
        for ci in combinations(range(nc), k):
            minor = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, cofactor_det(minor))
    return g


def rand_matrix(rng, max_dim=4, span=9):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return IntMatrix.from_rows([[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)])


def test_matrix_construction_and_entry():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.entry(1, 0) == 3
    assert m.rows() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_multiplication(int_product):
    # the product oracle that the SNF certificates below rest on
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert int_product(a, b) == [[2, 1], [4, 3]]
    assert int_product(IntMatrix.from_rows([[1, 0], [0, 1]]), a) == a.rows()
    assert int_product(IntMatrix(2, 0, ()), IntMatrix(0, 3, ())) == [[0, 0, 0], [0, 0, 0]]


def test_determinant_matches_cofactor_oracle(int_det):
    # the determinant oracle that the SNF certificates below rest on
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert int_det(IntMatrix.from_rows(rows)) == cofactor_det(rows)


def test_relator_matrix_of_lemma_presentation():
    pres = parse_presentation("gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9")
    m = relator_matrix(pres)
    assert m.rows() == [[3, 0], [9, 0]]


def test_relator_matrix_no_relators():
    pres = Presentation(("a", "b"), ())
    m = relator_matrix(pres)
    assert m.nrows == 0 and m.ncols == 2


def test_smith_normal_form_known_matrix(snf_transforms, int_product):
    cases = [
        ([[2, 4], [6, 8]], (2, 4)),
        # the chain-enforcing pass used to leave -6 on the diagonal here
        ([[0, 2, 0], [-3, 0, 0], [3, 0, 3]], (1, 3, 6)),
    ]
    for rows, diagonal in cases:
        m = IntMatrix.from_rows(rows)
        d, u, v = snf_transforms(m)
        n = len(diagonal)
        assert d.rows() == [[x if i == j else 0 for j in range(n)] for i, x in enumerate(diagonal)]
        assert int_product(u, m, v) == d.rows()


def assert_certificate(m, d, u, v, int_product, int_det):
    assert int_product(u, m, v) == d.rows()
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = [d.entry(i, i) for i in range(min(d.nrows, d.ncols))]
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.entry(i, j) == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


def test_smith_normal_form_certificates_random(snf_transforms, int_product, int_det):
    rng = random.Random(8)
    for _ in range(30):
        m = rand_matrix(rng)
        assert_certificate(m, *snf_transforms(m), int_product, int_det)


def harder_shapes():
    """Seeded square, rectangular and rank-deficient matrices up to 12 x 20,
    and small ones that need the divisibility fix."""
    rng = random.Random(125)
    shapes = [(12, 12), (12, 20), (20, 12), (7, 11), (11, 7), (9, 9), (5, 16), (16, 5)]
    out = []
    for r, c in shapes:
        out.append([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        # L R with inner dimension below min(r, c) has rank at most that
        inner = rng.randint(1, min(r, c) - 1)
        left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(r)]
        right = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(inner)]
        out.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left])
    # diagonal or nearly so, but off the divisibility chain
    out += [[[6, 0], [0, 4]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[0, 0], [0, 5]], [[-7]]]
    return out


def test_smith_certificate_on_harder_shapes(snf_transforms, int_product, int_det):
    matrices = [IntMatrix.from_rows(rows) for rows in harder_shapes()]
    matrices += [IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), IntMatrix(0, 0, ())]
    for m in matrices:
        assert_certificate(m, *snf_transforms(m), int_product, int_det)


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for rows in harder_shapes():
        d, _ = smith_normal_form(IntMatrix.from_rows(rows))
        diag = tuple(d.entry(i, i) for i in range(min(d.nrows, d.ncols)))
        assert diag == tuple(invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ))


def test_smith_transforms_stay_small(snf_transforms):
    # without the reductions modulo the pivots, U reaches 8 279 to
    # 30 236 bits on these 24 x 24 inputs and 42 219 at 40 x 40, while D
    # needs at most 179
    def bits(m):
        return max(abs(x).bit_length() for x in m.entries)

    for k, count, limit in ((24, 4, 400), (40, 1, 600)):
        rng = random.Random(f"snf/{k}")
        for _ in range(count):
            m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
            _, u, v = snf_transforms(m)
            assert bits(u) <= limit and bits(v) <= limit


def _rank_deficient_shapes():
    """Seeded products of random r x k and k x c factors up to 15 x 15, with
    some rows scaled, so that rows reduce to zero and pivots share factors."""
    rng = random.Random(36)
    out = [[[0, 1], [1, 0]]]
    for _ in range(60):
        r, c, k = rng.randint(1, 15), rng.randint(1, 15), rng.randint(1, 15)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        out.append([[rng.choice((1, 1, 2, 3, -6)) * x for x in row] for row in rows])
    return out


def _branches(m, log):
    """The branches of ``_echelon`` that a log takes, read off a test-side
    replay: a row reduced to zero, a row inserted ahead of an existing
    pivot (a swap of two nonzero rows; moving past zero rows swaps with a
    zero row) and a Bezout step."""
    hit, a = set(), m.rows()
    for steps in log:
        for kind, t, *args in steps:
            if kind == "swap":
                i = args[0]
                if any(a[t]) and any(a[i]):
                    hit.add("ahead")
                a[t], a[i] = a[i], a[t]
            elif kind == "neg":
                a[t] = [-x for x in a[t]]
            elif kind == "comb":
                i, _, p, q, r, s = args
                a[t], a[i] = ([p * x + q * y for x, y in zip(a[t], a[i])],
                              [r * x + s * y for x, y in zip(a[t], a[i])])
                hit |= {"bezout", "zero"} if not any(a[i]) else {"bezout"}
            else:
                i, _, q = args
                nonzero = any(a[i])
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if nonzero and not any(a[i]):
                    hit.add("zero")
        a = [list(col) for col in zip(*a)]
    return hit


def test_smith_certificate_on_rank_deficient_products(snf_transforms, int_product, int_det):
    hit = set()
    for rows in _rank_deficient_shapes():
        m = IntMatrix.from_rows(rows)
        assert_certificate(m, *snf_transforms(m), int_product, int_det)
        hit |= _branches(m, smith_normal_form(m)[1])
    assert hit == {"zero", "ahead", "bezout"}


def test_smith_has_one_elimination_routine():
    tree = ast.parse(Path(abelian.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_find_pivot", "clear_at", "col_sub", "col_swap"}


def test_smith_diagonal_matches_determinantal_divisors():
    # d_k(M) = gcd of all k x k minors; the k-th invariant factor is
    # d_k / d_{k-1} -- an independent characterization of the diagonal
    rng = random.Random(92)
    for _ in range(12):
        m = rand_matrix(rng, max_dim=3, span=5)
        d, _ = smith_normal_form(m)
        rows = m.rows()
        prev = 1
        for k in range(1, min(m.nrows, m.ncols) + 1):
            dk = determinantal_divisor(rows, k)
            expected = 0 if dk == 0 else dk // prev
            assert d.entry(k - 1, k - 1) == expected
            if dk == 0:
                break
            prev = dk


def test_abelian_invariants_of_lemma_group():
    pres = parse_presentation("gens: p, g+; rels: p^4 g+^-1 p^-1 g+, p^9")
    inv = abelian_invariants(pres)
    assert inv == AbelianInvariants((3,), 1)
    assert str(inv) == "Z/3 + Z^1"


def test_abelian_invariants_of_braid_quotient():
    pres = parse_presentation(
        "gens: s1, s2; rels: s1 s2 s1 s2^-1 s1^-1 s2^-1, s1 s2 s1 s2 s1 s2"
    )
    inv = abelian_invariants(pres)
    assert inv == AbelianInvariants((6,), 0)
    assert str(inv) == "Z/6"


def test_abelian_invariants_edge_cases():
    assert str(abelian_invariants(parse_presentation("gens: a; rels: a"))) == "0"
    assert str(abelian_invariants(Presentation(("a", "b"), ()))) == "Z^2"
    assert str(abelian_invariants(parse_presentation("gens: a; rels: a^4"))) == "Z/4"
    two = parse_presentation("gens: a, b; rels: a^2, b^2")
    assert abelian_invariants(two) == AbelianInvariants((2, 2), 0)


def test_abelian_invariants_drop_unit_factors():
    pres = parse_presentation("gens: a, b; rels: a b, b^6")
    # a = b^-1 forces one unit invariant factor that must not be reported
    assert abelian_invariants(pres) == AbelianInvariants((6,), 0)


def _corrupt(log, k, n, op):
    """A copy of the log with operation n of pass k replaced by op, or dropped if op is None."""
    steps = log[k][:n] + ([op] if op else []) + log[k][n + 1:]
    return log[:k] + [steps] + log[k + 1:]


def _nonsingular_log():
    # det M != 0, so U M V = D fixes U and V, and every operation that is
    # not the identity changes them
    m = IntMatrix.from_rows([[4, -7, 2, 9, 1], [3, 5, -8, 6, 2], [-6, 1, 7, 3, 5], [8, 2, 4, -9, 7], [1, 9, -3, 2, -4]])
    assert cofactor_det(m.rows()) != 0
    d, log = smith_normal_form(m)
    return m, d, log


def test_snf_replay_rejects_every_dropped_operation():
    m, d, log = _nonsingular_log()
    dropped = combs = 0
    for k, steps in enumerate(log):
        for n in range(len(steps)):
            with pytest.raises(InternalCheckError, match=r"^SNF certificate failed: \w"):
                abelian._replay(m, _corrupt(log, k, n, None), d)
            dropped += 1
            combs += steps[n][0] == "comb"
    assert dropped > 10 and combs >= 1


def test_snf_replay_rejects_a_row_reduced_by_itself():
    m, d, log = _nonsingular_log()
    k, n = next((k, n) for k, steps in enumerate(log) for n, op in enumerate(steps) if op[0] == "sub")
    _, t, _, j, q = log[k][n]
    op = ("sub", t, t, j, q)
    with pytest.raises(InternalCheckError, match=r"^SNF certificate failed: row combined with itself$"):
        abelian._replay(m, _corrupt(log, k, n, op), d)


@pytest.mark.parametrize(
    "corrupt, why",
    [
        # ("comb", t, i, j, s, u, v, w) with s and u doubled has s w - u v = 2
        (lambda op: op[:4] + (2 * op[4], 2 * op[5]) + op[6:], "2 x 2 step not unimodular"),
        (lambda op: op[:2] + (op[1],) + op[3:], "row combined with itself"),
        # row t holds its pivot at column j, so it is nonzero left of j + 1
        (lambda op: op[:3] + (op[3] + 1,) + op[4:], "pivot column out of range or row nonzero left of it"),
    ],
)
def test_snf_replay_rejects_a_bad_bezout_step(corrupt, why):
    m, d, log = _nonsingular_log()
    k, n = next((k, n) for k, steps in enumerate(log) for n, op in enumerate(steps) if op[0] == "comb")
    with pytest.raises(InternalCheckError, match=f"^SNF certificate failed: {why}$"):
        abelian._replay(m, _corrupt(log, k, n, corrupt(log[k][n])), d)


def test_snf_replay_rejects_a_bezout_step_on_a_row_nonzero_left_of_its_column():
    # the step is the identity, and row 0 is zero left of column 1, but row 1 is not
    m = IntMatrix.from_rows([[0, 2], [1, 3]])
    with pytest.raises(InternalCheckError, match="^SNF certificate failed: pivot column .* nonzero left of it$"):
        abelian._replay(m, [[("comb", 0, 1, 1, 1, 0, 0, 1)]], m)


def test_snf_replay_rejects_a_pivot_row_nonzero_left_of_its_column():
    m, d, log = _nonsingular_log()
    k, n = next((k, n) for k, steps in enumerate(log) for n, op in enumerate(steps) if op[0] == "sub")
    _, t, i, j, q = log[k][n]
    # row t holds its pivot at column j, so it is nonzero left of j + 1
    op = ("sub", t, i, j + 1, q)
    with pytest.raises(InternalCheckError, match=r"^SNF certificate failed: pivot column .* nonzero left"):
        abelian._replay(m, _corrupt(log, k, n, op), d)


@pytest.mark.parametrize(
    "corrupt", [lambda op: ("mystery",) + op[1:], lambda op: op + (0,)], ids=["unknown kind", "extra int"]
)
def test_snf_replay_rejects_a_sub_of_another_layout(corrupt):
    # the corrupted operation still does what the "sub" did, so only its layout is wrong
    m, d, log = _nonsingular_log()
    k, n = next((k, n) for k, steps in enumerate(log) for n, op in enumerate(steps) if op[0] == "sub")
    op = corrupt(log[k][n])
    with pytest.raises(InternalCheckError, match=rf"^SNF certificate failed: malformed operation \({op[0]!r}, "):
        abelian._replay(m, _corrupt(log, k, n, op), d)


def test_snf_log_operations_are_a_kind_then_ints():
    lengths = {"swap": 3, "neg": 2, "sub": 5, "fix": 5, "comb": 8}
    rng = random.Random("snf/layouts")
    shapes = [(3, 5), (5, 3), (6, 6), (9, 9)] * 5
    matrices = [[[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)] for r, c in shapes]
    kinds = set()
    # diag(2, 3) takes the divisibility fix
    for rows in matrices + [[[2, 0], [0, 3]]]:
        for steps in smith_normal_form(IntMatrix.from_rows(rows))[1]:
            for kind, *ints in steps:
                assert 1 + len(ints) == lengths[kind] and all(type(x) is int for x in ints)
                kinds.add(kind)
    assert kinds == set(lengths)


@pytest.mark.parametrize(
    "op", [("swap", 0, 5), ("neg", -1), ("sub", 0, 1, 5, 1), ("sub", 0, 7, 0, 1), ("comb", 0, 7, 0, 1, 0, 0, 1)]
)
def test_snf_replay_rejects_indices_out_of_range(op):
    m, d, log = _nonsingular_log()
    with pytest.raises(InternalCheckError, match=r"^SNF certificate failed: .*out of range"):
        abelian._replay(m, [[op] + log[0]] + log[1:], d)


@pytest.mark.parametrize(
    "log, why",
    [
        # M has 2 rows and 3 columns, its transpose 3 rows and 2 columns
        ([[("swap", 0, 2)], []], "row index out of range"),
        ([[], [("sub", 0, 1, 2, 1)]], "pivot column out of range or row nonzero left of it"),
        ([[], [("comb", 2, 0, 2, 1, 0, 0, 1)]], "pivot column out of range or row nonzero left of it"),
        ([[], [], [("neg", 2)]], "row index out of range"),
    ],
)
def test_snf_replay_bounds_follow_the_pass_on_a_non_square_matrix(log, why):
    m, d = IntMatrix.from_rows([[0, 0, 1], [0, 2, 0]]), IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
    # the swap of columns 0 and 2 is valid in the column pass
    abelian._replay(m, [[], [("swap", 0, 2)]], d)
    with pytest.raises(InternalCheckError, match=f"^SNF certificate failed: {why}$"):
        abelian._replay(m, log, d)


@pytest.mark.parametrize(
    "rows, why", [([[1, 1], [0, 1]], "not diagonal"), ([[2, 0], [0, 3]], "divisibility chain broken")]
)
def test_snf_replay_rejects_a_d_that_is_no_smith_form(rows, why):
    # with an empty log the copy of M ends at D itself, so only the form of D is checked
    d = IntMatrix.from_rows(rows)
    with pytest.raises(InternalCheckError, match=f"^SNF certificate failed: {why}$"):
        abelian._replay(d, [], d)


def test_snf_replay_of_a_log_ending_on_a_row_pass():
    # the copy is compared in the orientation of M, not of its transpose
    m, d = IntMatrix.from_rows([[0, 2, 0], [1, 0, 0]]), IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]])
    abelian._replay(m, [[("swap", 0, 1)]], d)


def test_snf_work_is_pinned():
    # passes, logged row updates, divisibility fixes and Bezout steps, read
    # off the log; an elimination that takes extra rounds moves the first
    # number
    def work(m):
        _, log = smith_normal_form(m)
        ops = [op for steps in log for op in steps]
        return len(log), *(sum(op[0] == kind for op in ops) for kind in ("sub", "fix", "comb"))

    for k, expected in ((24, (2, 551, 0, 34)), (40, (4, 1614, 0, 50))):
        rng = random.Random(f"snf/{k}")
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])
        assert work(m) == expected
    assert work(IntMatrix.from_rows([[2, 0], [0, 3]])) == (4, 2, 1, 1)
    # row 1 is inserted ahead of row 0's pivot and reduced by it at once,
    # so one update clears row 2 and none is left for the end
    assert work(IntMatrix.from_rows([[0, -1], [1, -1], [-1, 0]])) == (2, 2, 0, 0)

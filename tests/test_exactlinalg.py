"""Exact linear algebra: ranks, determinants, polynomial-matrix reduction."""

import itertools
import random
import signal
from bisect import insort
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fflat import GF, LaurentSeries, Poly, Rat, SingularInput
from fflat.exactlinalg import (
    _column_echelon,
    _mat_vec,
    _minor_table,
    det_adjugate,
    identity_poly,
    kernel_vector_fq,
    mat_mul_poly,
    popov_reduce,
)
from fflat.oracle import det_poly, rank_rational

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2, (1, 1, 1))
F5 = GF(5)
F9 = GF(3, 2, (2, 2, 1))


def det(rows):
    """The determinant: the one minor on the top level of the table."""
    (value,) = _minor_table(rows)[-1].values()
    return value


def rank_fq(field, rows):
    """Rank over F_q: how many pivots the column echelon finds."""
    return len(_column_echelon(field, rows, len(rows[0]) if rows else 0)[0])


def _echelon_fq(field, rows):
    """Row echelon form over F_q by row insertion, kept as a reference
    for _column_echelon: (basis, independent).  basis holds (pivot
    column, row) sorted by pivot; a basis row is zero before its pivot,
    which is 1.  independent maps each row that the earlier rows do not
    span, in order, to the pivot of the basis row it adds: the first
    column c such that on columns 0..c it leaves their span."""
    basis = []
    independent = {}
    for i, row in enumerate(rows):
        row = list(row)
        for col, b in basis:
            if row[col]:
                row = field.add_coeffs(row, field.scale_coeffs(b, field.neg(row[col])))
        col = next((c for c, a in enumerate(row) if a), None)
        if col is None:
            continue
        insort(basis, (col, field.scale_coeffs(row, field.inv(row[col]))))
        independent[i] = col
    return basis, independent


def _kernel_vector_by_insertion(field, rows):
    """kernel_vector_fq as the row-insertion echelon gave it, kept as a
    reference: 1 on the first free column, and the pivots before it,
    the first basis rows, solved from the last back."""
    basis = _echelon_fq(field, rows)[0]
    ncols = len(rows[0]) if rows else 0
    pivots = {col for col, _b in basis}
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for col, b in reversed(basis[:free]):
        terms = map(field.mul, b[col + 1:free + 1], vec[col + 1:free + 1])
        vec[col] = field.neg(reduce(field.add, terms, 0))
    return vec


def test_rank_fq_examples():
    assert rank_fq(F2, [[1, 0], [0, 1]]) == 2
    assert rank_fq(F2, [[0, 0], [0, 0], [0, 0]]) == 0
    assert rank_fq(F2, [[1, 0], [1, 0]]) == 1
    assert rank_fq(F2, []) == 0
    assert rank_fq(F3, [[1, 2], [2, 1], [0, 1]]) == 2


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10**6))
def test_rank_fq_transpose(m, n, seed):
    rng = random.Random(seed)
    M = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
    T = [[M[i][j] for i in range(m)] for j in range(n)]
    assert rank_fq(F3, M) == rank_fq(F3, T)


def _poly(field, cs):
    return Poly(field, tuple(cs))


def _rand_poly_matrix(rng, field, d, maxdeg=2):
    return [
        [
            _poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, maxdeg) + 1)])
            for _ in range(d)
        ]
        for _ in range(d)
    ]


def _det_permanent_expansion(rows):
    """Leibniz formula; only sane for d <= 3."""
    field = rows[0][0].field
    d = len(rows)
    total = Poly.zero(field)
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.one(field)
        for i in range(d):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = term.scale(field.neg(1))
        total = total + term
    return total


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
@pytest.mark.parametrize("d", [2, 3])
def test_det_poly_vs_leibniz(field, d):
    rng = random.Random(42 + d + field.q)
    for _ in range(40):
        M = _rand_poly_matrix(rng, field, d)
        assert det_poly(M) == _det_permanent_expansion(M)


def test_det_poly_examples():
    x = Poly.x(F2)
    assert det_poly([[x, Poly.zero(F2)], [Poly.zero(F2), x]]) == x * x
    M = [[x, x + Poly.one(F2)], [Poly.one(F2), Poly.one(F2)]]
    assert det_poly(M) == Poly.one(F2)
    assert det_poly([[x, x], [x, x]]).is_zero


def _adjugate_by_cofactors(rows):
    """adj(M) as d^2 Bareiss determinants of the (d-1) x (d-1) minors,
    the cofactor form that det_adjugate replaced, kept as a reference."""
    n = len(rows)
    field = rows[0][0].field
    if n == 1:
        return [[Poly.one(field)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            c = det_poly(minor)
            adj[j][i] = c.scale(field.neg(1)) if (i + j) % 2 else c
    return adj


def test_adjugate_identity():
    """det_adjugate for q in {2, 3, 4, 9} and d = 1..6: adj M = M adj =
    det I, det is det_poly's and adj the cofactor form's, on nonsingular
    matrices, on rank d - 1 (a row x times another) and on rank <= d - 2
    (two such rows), whose adjugate is 0."""
    for field, d in itertools.product([F2, F3, F4, F9], range(1, 7)):
        rng = random.Random(f"{field.q}-{d}")
        x = Poly.x(field)
        for t in range(6):
            M = _rand_poly_matrix(rng, field, d)
            for k in range(min(t % 3, d - 1)):
                M[k + 1] = [x * a for a in M[0]]
            if d == 1 and t % 3:
                M = [[Poly.zero(field)]]
            det, adj = det_adjugate(M)
            assert det == det_poly(M)
            scalar = [[det if i == j else Poly.zero(field) for j in range(d)] for i in range(d)]
            assert mat_mul_poly(adj, M) == scalar == mat_mul_poly(M, adj)
            assert adj == _adjugate_by_cofactors(M)


def test_det_adjugate_cost(monkeypatch):
    """A dense 6 x 6 over F_2 takes at most 3 * 6 * 2^5 polynomial
    products and no division: the minor tables, not d^2 cofactor
    eliminations (2270 products and 534 divisions)."""
    counts = Counter()
    for name in ("__mul__", "__divmod__"):
        def counted(a, b, _op=getattr(Poly, name), _name=name):
            counts[_name] += 1
            return _op(a, b)
        monkeypatch.setattr(Poly, name, counted)
    rng = random.Random(6)
    M = [[_poly(F2, [rng.randrange(2) for _ in range(3)] + [1]) for _ in range(6)] for _ in range(6)]
    det_adjugate(M)
    assert counts["__mul__"] <= 3 * 6 * 2 ** 5
    assert counts["__divmod__"] == 0


def test_rank_rational_examples():
    x = Poly.x(F2)
    one = Poly.one(F2)
    ident = [[Rat.from_poly(one), Rat(Poly.zero(F2))], [Rat(Poly.zero(F2)), Rat.from_poly(one)]]
    assert rank_rational(ident) == 2
    prop = [[Rat(one, x), Rat(one, x * x)], [Rat(one, x * x), Rat(one, x * x * x)]]
    # second column = x^-1 * first
    assert rank_rational(prop) == 1
    tri = [[Rat(one, x), Rat(Poly.zero(F2))], [Rat(one, x * x), Rat(one, x)]]
    assert rank_rational(tri) == 2


def test_det_rat_clears_denominators():
    x = Poly.x(F3)
    one = Poly.one(F3)
    M = [[Rat(one, x), Rat(Poly.zero(F3))], [Rat(Poly.zero(F3)), Rat(one, x)]]
    d = det(M)
    assert d.num == one and d.den == x * x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_is_the_bareiss_determinant_on_both_backends(n):
    """det on polynomial entries, read as Rat and as exact series,
    equals det_poly."""
    rng = random.Random(n)
    for _ in range(10):
        M = _rand_poly_matrix(rng, F3, n)
        want = Rat.from_poly(det_poly(M))
        assert det([[Rat.from_poly(p) for p in r] for r in M]) == want
        got = det([[LaurentSeries.from_poly(p) for p in r] for r in M])
        assert got.exact and got.to_rat() == want


@pytest.mark.parametrize("k,w", [(1, 1), (1, 4), (2, 3), (3, 3), (3, 5), (4, 4)])
def test_minor_table_grows_a_row_at_a_time(k, w):
    """A k x w table holds every minor of the last m rows on every
    m-set of columns, the determinant of that submatrix (det_poly), its
    levels in combinations order; grown one row at a time on top of the
    rows below, it is the same table."""
    rng = random.Random(f"{k}-{w}")
    for _ in range(5):
        M = [[_poly(F3, [rng.randrange(3) for _ in range(3)]) for _ in range(w)]
             for _ in range(k)]
        table = _minor_table(M)
        assert len(table) == k + 1 and table[0] == {}
        for m in range(1, k + 1):
            assert list(table[m]) == list(itertools.combinations(range(w), m))
            for cols, minor in table[m].items():
                assert minor == det_poly([[row[j] for j in cols] for row in M[k - m:]])
        grown = None
        for row in reversed(M):
            grown = _minor_table([row], grown)
        assert grown == table
        if k > 1:
            assert _minor_table(M[:1], _minor_table(M[1:])) == table


# --- popov_reduce ------------------------------------------------------


def _leading_matrix(field, rows, degs_by_col):
    d = len(rows)
    return [
        [rows[j][i].coeff(degs_by_col[i]) for i in range(d)]
        for j in range(d)
    ]


def test_popov_worked_example():
    x = Poly.x(F2)
    M = [[x, x + Poly.one(F2)], [Poly.one(F2), Poly.one(F2)]]
    R, U, degs = popov_reduce(M, identity_poly(F2, 2))
    assert degs == [0, 0]
    assert det_poly(U).degree == 0
    assert mat_mul_poly(M, U) == R


def test_popov_diagonal_untouched():
    x2 = Poly.monomial(F2, 1, 2)
    x1 = Poly.x(F2)
    M = [[x2, Poly.zero(F2)], [Poly.zero(F2), x1]]
    R, U, degs = popov_reduce(M, identity_poly(F2, 2))
    assert degs == [1, 2]
    assert det_poly(R) == det_poly(M)


def test_popov_rejects_singular():
    x = Poly.x(F2)
    with pytest.raises(SingularInput):
        popov_reduce([[x, x], [x, x]], identity_poly(F2, 2))


def _within(seconds, fn, *args):
    """fn(*args), failing with TimeoutError after `seconds`."""
    def bail(*_):
        raise TimeoutError(f"{fn.__name__} did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, bail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["q2", "q3", "q4"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("shape", ["zero", "repeated", "x-times"])
def test_popov_singular_column_shapes(field, d, shape):
    """popov_reduce finds singularity itself: the loop lowers a column's
    degree at every step, so it must end in a zero column."""
    rng = random.Random(f"{field.q}-{d}-{shape}")
    x = Poly.x(field)
    for _ in range(5):
        M = _rand_poly_matrix(rng, field, d)
        i, j = rng.sample(range(d), 2)
        for row in M:
            row[j] = {"zero": Poly.zero(field), "repeated": row[i], "x-times": x * row[i]}[shape]
        with pytest.raises(SingularInput):
            _within(10, popov_reduce, M, identity_poly(field, d))


@given(
    st.sampled_from([F2, F3, F4]), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6)
)
def test_kernel_vector_fq_matches_rank(field, m, n, seed):
    rng = random.Random(seed)
    M = [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)]
    v = kernel_vector_fq(field, M)
    assert (v is None) == (rank_fq(field, M) == n)
    if v is not None:
        assert any(v)
        for row in M:
            acc = 0
            for a, b in zip(row, v):
                acc = field.add(acc, field.mul(a, b))
            assert acc == 0
    # the vector popov_reduce reads: 1 on the first free column of the
    # reduced row echelon form, minus that column's entries on the pivots
    m, pivots = _rref_by_columns(field, M)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is not None:
        want = [0] * n
        want[free] = 1
        for row, col in enumerate(pivots):
            want[col] = field.neg(m[row][free])
        assert v == want


def _rref_by_columns(field, rows):
    """Reduced row echelon form by column-by-column Gauss-Jordan
    elimination, kept as a reference."""
    m = [list(r) for r in rows]
    pivots = []
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = field.scale_coeffs(m[rank], field.inv(m[rank][col]))
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = field.add_coeffs(
                    m[r], field.scale_coeffs(m[rank], field.neg(m[r][col]))
                )
        pivots.append(col)
    return m, pivots


@given(
    st.sampled_from([F2, F3, F4]), st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6)
)
def test_echelon_fq_row_profile_and_rref(field, m, n, seed):
    """The reference row-insertion echelon: independent's keys are the
    greedy row-rank profile, and each value is the pivot of the basis
    row that row adds: the first column c on which M[i] restricted to
    columns 0..c leaves the span of the earlier rows restricted alike.
    The basis is an echelon form sorted by pivot, and its last row is the
    reduced row echelon form's last nonzero row, which back-substitution
    never touches: the row that the mink-search point reads."""
    rng = random.Random(seed)
    density = rng.random()
    M = [[rng.randrange(field.q) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(m)]
    for i in range(1, m):
        if rng.random() < 0.3:
            # a combination of two earlier rows
            a, b, c = rng.randrange(i), rng.randrange(i), rng.randrange(field.q)
            M[i] = field.add_coeffs(M[a], field.scale_coeffs(M[b], c))
    basis, independent = _echelon_fq(field, M)
    ranks = [rank_fq(field, M[:i]) for i in range(m + 1)]
    assert ranks == [len(_rref_by_columns(field, M[:i])[1]) for i in range(m + 1)]
    assert list(independent) == [i for i in range(m) if ranks[i + 1] > ranks[i]]

    def rank_on(rows, c):
        return len(_rref_by_columns(field, [row[:c + 1] for row in rows])[1])

    for i, col in independent.items():
        assert col == min(c for c in range(n) if rank_on(M[:i + 1], c) > rank_on(M[:i], c))
    pivots = [col for col, _row in basis]
    assert pivots == sorted(pivots) == sorted(independent.values())
    for col, row in basis:
        assert not any(row[:col]) and row[col] == 1
    if basis:
        assert basis[-1][1] == _rref_by_columns(field, M)[0][len(basis) - 1]


@given(
    st.sampled_from([F2, F3, F4, F5, F9]), st.integers(0, 8), st.integers(0, 8),
    st.integers(0, 10**6),
)
def test_column_echelon_matches_row_insertion(field, m, n, seed):
    """The column echelon pairs each row with the pivot column that the
    row-insertion echelon gives it, the rank profile matrix being
    unique; so kernel_vector_fq, which back-substitutes over its pivot
    rows, is the reference's vector, and its last pivot row is the
    reference's last basis row, the row the mink-search point reads.
    Some rows are planted combinations of earlier ones."""
    rng = random.Random(seed)
    density = rng.random()
    M = [[rng.randrange(field.q) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(m)]
    for i in range(1, m):
        if rng.random() < 0.4:
            a, b = rng.randrange(i), rng.randrange(i)
            ca, cb = rng.randrange(field.q), rng.randrange(field.q)
            M[i] = field.add_coeffs(field.scale_coeffs(M[a], ca), field.scale_coeffs(M[b], cb))
    basis, independent = _echelon_fq(field, M)
    pivots, free, cut = _column_echelon(field, M, n)
    assert {r: col for col, r, _row in pivots} == independent
    assert [col for col, _r, _row in pivots] == [col for col, _b in basis]
    assert len(free) == m - len(pivots) and cut is None
    assert not any(any(row) for row in free)
    assert kernel_vector_fq(field, M) == _kernel_vector_by_insertion(field, M)
    if basis:
        assert pivots[-1][2] == basis[-1][1]


def test_column_echelon_stops_at_the_first_unknown_column():
    """A reduced row knows only what every row subtracted into it knows:
    row 0 does not know column 1, and row 1, reduced by it at column 0,
    no longer knows it either, so the elimination stops there with the
    pivot of column 0 exact.  Row 0 alone, a pivot row, stops nothing."""
    M = [[1, 0, 1], [1, 0, 0], [0, 1, 0]]
    unknown = [0, 0b001, 0]
    pivots, free, cut = _column_echelon(F2, M, 3, unknown)
    assert cut == 1
    assert pivots == _column_echelon(F2, M, 3)[0][:1] == [(0, 0, [1, 0, 1])]
    assert free == [[0, 0, 1], [0, 1, 0]]
    # row 1 zero on column 0 is not reduced: every column is read
    M[1] = [0, 0, 1]
    pivots, free, cut = _column_echelon(F2, M, 3, unknown)
    assert cut is None and not free
    assert pivots == _column_echelon(F2, M, 3)[0]
    assert [(col, r) for col, r, _row in pivots] == [(0, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_popov_invariants_random(field, d):
    rng = random.Random(field.q * 100 + d)
    done = 0
    while done < 25:
        M = _rand_poly_matrix(rng, field, d)
        dM = det_poly(M)
        if dM.is_zero:
            continue
        done += 1
        R, U, degs = popov_reduce(M, identity_poly(field, d))
        dU = det_poly(U)
        assert not dU.is_zero and dU.degree == 0          # unimodular
        assert degs == sorted(degs)
        assert sum(degs) == dM.degree                     # zero defect
        assert mat_mul_poly(M, U) == R
        # leading coefficient matrix nonsingular over F_q
        col_degs = [max(R[j][i].degree for j in range(d)) for i in range(d)]
        assert col_degs == degs
        L = _leading_matrix(field, R, col_degs)
        assert rank_fq(field, L) == d


def test_mat_mul_poly_associative():
    rng = random.Random(9)
    for _ in range(10):
        A = _rand_poly_matrix(rng, F3, 3, 1)
        B = _rand_poly_matrix(rng, F3, 3, 1)
        C = _rand_poly_matrix(rng, F3, 3, 1)
        assert mat_mul_poly(mat_mul_poly(A, B), C) == mat_mul_poly(A, mat_mul_poly(B, C))


# --- one product, one column reduction -----------------------------------


def _schoolbook(M, vec, lift):
    """M @ vec by the definition: every entry's product, zeros included,
    summed from the zero of the vector's type; lift takes a Poly entry
    of M into that type."""
    zero = lift(Poly.zero(M[0][0].field)) if M else None
    return [sum((y * lift(p) for p, y in zip(row, vec)), zero) for row in M]


def _schoolbook_mat(A, B):
    cols = [_schoolbook(A, col, lambda p: p) for col in zip(*B)]
    return [list(row) for row in zip(*cols)]


@settings(max_examples=150)
@given(st.sampled_from([F2, F3, F4, F9]), st.integers(1, 6), st.integers(0, 3),
       st.sampled_from(["random"] * 3 + ["zero", "repeated", "combined"]),
       st.integers(0, 10**6))
def test_popov_carries_its_column_operations(field, d, k, shape, seed):
    """popov_reduce(M, K) applies each column operation to K's rows:
    it returns (R, K @ U, degs) for the (R, U, degs) that carrying the
    identity gives, and it raises SingularInput exactly when M is
    singular, whatever it carries."""
    rng = random.Random(seed)
    M = _rand_poly_matrix(rng, field, d)
    if d > 1 and shape != "random":
        i, j = rng.sample(range(d), 2)
        a, b = (_poly(field, [rng.randrange(field.q) for _ in range(2)]) for _ in range(2))
        for row in M:
            row[j] = {"zero": Poly.zero(field), "repeated": row[i],
                      "combined": a * row[i] + b * row[(j + 1) % d]}[shape]
    K = [row[:d] for row in _rand_poly_matrix(rng, field, max(k, d))[:k]]
    if det_poly(M).is_zero:
        for carry in (identity_poly(field, d), K):
            with pytest.raises(SingularInput):
                _within(10, popov_reduce, M, carry)
        return
    R, U, degs = popov_reduce(M, identity_poly(field, d))
    assert popov_reduce(M, K) == (R, _schoolbook_mat(K, U), degs)
    assert R == _schoolbook_mat(M, U)
    assert det_poly(U).degree == 0


def _vector(draw, field, kind, d):
    digits = st.lists(st.integers(0, field.q - 1), max_size=4)
    out = []
    for _ in range(d):
        cs = draw(digits)
        if kind == "poly":
            out.append(Poly(field, cs))
        elif kind == "rat":
            den = Poly(field, draw(st.lists(st.integers(0, field.q - 1), max_size=3)) + [1])
            out.append(Rat(Poly(field, cs), den))
        else:
            known = "exact" if kind == "exact" else draw(st.sampled_from(["exact", "floor", "none"]))
            cs = [] if known == "none" else cs
            out.append(LaurentSeries(field, cs, draw(st.integers(-6, 2)), exact=known == "exact"))
    return out


@st.composite
def _product_case(draw):
    field = draw(st.sampled_from([F2, F3, F4, F9]))
    rows, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(()), st.lists(st.integers(0, field.q - 1), max_size=3))
    M = [[Poly(field, draw(entry)) for _ in range(d)] for _ in range(rows)]
    if draw(st.booleans()):
        M[draw(st.integers(0, rows - 1))] = [Poly.zero(field)] * d
    kind = draw(st.sampled_from(["poly", "rat", "exact", "truncated"]))
    return M, kind, _vector(draw, field, kind, d)


@settings(max_examples=200)
@given(_product_case())
def test_mat_vec_is_the_schoolbook_product(case):
    """_mat_vec, which skips the zero entries of M and puts a Rat vector
    over one denominator, equals the product by the definition on Poly,
    Rat, exact-series and truncated-series vectors (a truncated one may
    hold exact entries), zero entries and zero rows included; series
    agree in coefficients, floor and exactness."""
    M, kind, vec = case
    lift = {"poly": lambda p: p, "rat": Rat.from_poly}.get(kind, LaurentSeries.from_poly)
    got, want = _mat_vec(M, vec), _schoolbook(M, vec, lift)
    assert [type(y) for y in got] == [type(vec[0])] * len(M)
    if kind in ("poly", "rat"):
        assert got == want
    else:
        assert [(y.coeffs, y.floor, y.exact) for y in got] == \
            [(y.coeffs, y.floor, y.exact) for y in want]


@st.composite
def _shared_den_case(draw):
    """A matrix and a Rat vector whose denominators are all 1, all one
    monic D, or each its own: entry r D + s, s a nonzero constant, over
    D keeps the denominator D."""
    field = draw(st.sampled_from([F2, F3, F4, F9]))
    rows, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    poly = st.lists(st.integers(0, field.q - 1), max_size=3).map(lambda cs: Poly(field, cs))
    den = st.lists(st.integers(0, field.q - 1), max_size=2).map(lambda cs: Poly(field, cs + [1]))
    M = [[draw(poly) for _ in range(d)] for _ in range(rows)]
    kind = draw(st.sampled_from(["one", "equal", "mixed"]))
    shared = Poly.one(field) if kind == "one" else draw(den)
    vec = []
    for _ in range(d):
        D = draw(den) if kind == "mixed" else shared
        s = Poly(field, [draw(st.integers(1, field.q - 1))])
        vec.append(Rat(draw(poly) * D + s, D))
    return M, vec


@settings(max_examples=200)
@given(_shared_den_case())
def test_mat_vec_over_one_or_many_denominators_is_the_term_sum(case):
    """A Rat vector whose denominators are all 1, all equal or mixed:
    the entries whose denominator is the lcm take their numerator as it
    is, and the product equals the sum of its terms in Rat arithmetic."""
    M, vec = case
    assert _mat_vec(M, vec) == _schoolbook(M, vec, Rat.from_poly)

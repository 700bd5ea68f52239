"""Exact linear algebra over F_q, F_q[x], F_q(x) and truncated series.

Matrices are plain lists of rows.  Entries are ints (F_q), Poly, Rat,
or LaurentSeries depending on the function.  Everything here is exact.
Each coefficient ring has one elimination: over F_q the row echelon
form by row insertion (the kernel vector back-substitutes into its
basis), over F_q[x] the column reduction popov_reduce, which detects
a singular input itself, when a column reduces to zero, and applies
each column operation to the rows it carries (a basis, which it
returns reduced, or the identity, which it returns as U).  One product,
_mat_vec, multiplies a polynomial matrix into a vector of Poly, Rat or
LaurentSeries: mat_mul_poly takes it per column, and popov_reduce's
column combination is one _mat_vec.  One table of
minors, grown a row at a time by cofactor expansion without a division,
holds every minor the closed forms read (F_q[x], F_q(x) and truncated
series alike; on series it carries precision floors soundly), and
det_adjugate (over F_q[x], for h^(-1) = adj/det) reads two.  The oracles
keep their own determinant and rank (Bareiss elimination, in oracle.py).
"""

from __future__ import annotations

from bisect import insort
from functools import reduce
from itertools import combinations

from .errors import SingularInput
from .ffcore import GF, Poly, Rat, poly_lcm


# --- F_q matrices --------------------------------------------------------


def _echelon_fq(field: GF, rows):
    """Row echelon form over F_q, the rows inserted in order: (basis,
    independent).  basis holds (pivot column, row) sorted by pivot; a
    basis row is zero before its pivot, which is 1.  independent maps
    each row that the earlier rows do not span, in order, to the pivot
    of the basis row it adds: the first column c such that on columns
    0..c it leaves their span."""
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


def kernel_vector_fq(field: GF, rows):
    """First right-kernel basis vector of M over F_q, or None if none.

    Deterministic: 1 on the echelon form's first free column, and the
    pivots before it, the first basis rows, solved from the last back.
    """
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


# --- polynomial matrices -------------------------------------------------


def identity_poly(field: GF, d: int):
    """The d x d identity matrix over F_q[x]."""
    one, zero = Poly.one(field), Poly.zero(field)
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def _common_den(field: GF, ys) -> Poly:
    """The lcm of the denominators of exact coordinates, Rats or exact
    series."""
    lcm = Poly.one(field)
    for y in ys:
        den = y.to_rat().den
        if den.degree > 0:
            lcm = poly_lcm(lcm, den)
    return lcm


def _mat_vec(M, vec):
    """M @ vec for a polynomial matrix M and a vector of Poly, of Rat or
    of LaurentSeries, the one polynomial matrix product: a Rat vector
    as one numerator per entry over the lcm of its denominators, so each
    output is reduced once.  A zero entry of M takes no product; a zero
    row gives the zero of vec's type.  A vector whose length is not M's
    row length is refused (ValueError)."""
    if len(vec) != len(M[0]):
        raise ValueError(f"a vector of length {len(vec)} for a matrix with rows of length {len(M[0])}")
    lcm = None
    if isinstance(vec[0], Rat):
        lcm = _common_den(vec[0].field, vec)
        # a denominator of the lcm's degree is the lcm: both are monic
        vec = [y.num if y.den.degree == lcm.degree else y.num * (lcm // y.den) for y in vec]
    out = []
    for row in M:
        acc = None
        for p, y in zip(row, vec):
            if not p.is_zero:
                term = y.mul_poly(p)
                acc = term if acc is None else acc + term
        out.append(vec[0].scale(0) if acc is None else acc)
    return out if lcm is None else [Rat(acc, lcm) for acc in out]


def mat_mul_poly(A, B):
    """A @ B over F_q[x]: _mat_vec of A on each column of B."""
    cols = [_mat_vec(A, col) for col in zip(*B)]
    return [list(row) for row in zip(*cols)]


def _minor_table(rows, below=None):
    """table[m][cols] is the minor of the last m rows on the columns
    cols (ascending), for k x w rows, k <= w; table[0] is empty.  The
    rows go on top of those of below, a table whose levels are kept.
    Each minor is the cofactor expansion along its first row over the
    level below (level 1: the entries), its sum started from its first
    term: no division, and on series the precision floors propagate, so
    the knowledge window is sound."""
    w = len(rows[0])
    neg1 = rows[0][0].field.neg(1)
    table = [{}] if below is None else list(below)
    for row in reversed(rows):
        prev, minors = table[-1], {}
        for cols in combinations(range(w), len(table)):
            for pos, j in enumerate(cols):
                term = row[j] * prev[cols[:pos] + cols[pos + 1:]] if prev else row[j]
                term = term.scale(neg1) if pos % 2 else term
                minors[cols] = minors[cols] + term if pos else term
        table.append(minors)
    return table


def det_adjugate(rows):
    """(det M, adj M) over F_q[x], singular M included, with no division.
    Cofactor (i, j) is a generalized Laplace expansion along rows
    0..i-1: over the i-sets `top` of the columns other than j, the minor
    of those rows on `top` (from the table of the rows reversed, whose
    reversal sign cancels the Laplace sign's own) times the minor of
    rows i+1..n-1 on the rest, with sign (-1)^(sum(top) + k), j the k-th
    column outside `top`.  About 3 n 2^(n-1) products: fewer than the
    n^2 Bareiss cofactor eliminations up to n = 14 or so, beyond which
    that O(n^5) form wins."""
    n = len(rows)
    field = rows[0][0].field
    if n == 1:
        return rows[0][0], [[Poly.one(field)]]
    neg1 = field.neg(1)
    below, above = _minor_table(rows), _minor_table(rows[::-1])
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        tops, bottoms = above[i], below[n - 1 - i]
        for top in combinations(range(n), i):
            rest = tuple(c for c in range(n) if c not in top)
            for k, j in enumerate(rest):
                # the empty minor, 1, is in no table: get gives None
                a, b = tops.get(top), bottoms.get(rest[:k] + rest[k + 1:])
                term = b if a is None else a if b is None else a * b
                term = term.scale(neg1) if (sum(top) + k) % 2 else term
                adj[j][i] = term if adj[j][i] is None else adj[j][i] + term
    return below[n][tuple(range(n))], adj


# --- column reduction of polynomial lattice bases ------------------------


def _col_degree(m, j) -> int:
    return max(row[j].degree for row in m)


def popov_reduce(rows, carry):
    """Column-reduce a nonsingular polynomial matrix M, applying each
    column operation to the rows of carry as well.

    Returns (R, carry @ U, degs) with R = M @ U, U unimodular (det in
    F_q^*), the leading coefficient matrix of R nonsingular, and columns
    sorted so degs is ascending.  The sum of degs equals deg det M.
    Carrying the identity gives U itself; carrying a basis G gives the
    reduced basis G @ U with no product.

    While the leading coefficient matrix L (L[j][i] = coefficient of
    x^(deg of column i) in entry (j, i)) is singular, a kernel vector c
    of L is used to cancel leading terms: with delta = max{deg col_i :
    c_i != 0}, the column of degree delta with c_i != 0 (lowest index on
    ties) is replaced by sum_i c_i x^(delta - deg col_i) col_i, which
    strictly lowers that column's degree.  So the loop ends, and a
    singular M ends in a zero column: SingularInput.
    """
    n = len(rows)
    field = rows[0][0].field
    m = [list(r) for r in rows]
    both = m + [list(r) for r in carry]
    degs = [_col_degree(m, j) for j in range(n)]
    while True:
        if min(degs) < 0:
            raise SingularInput("matrix has zero determinant, no reduced basis")
        lead = [[m[i][j].coeff(degs[j]) for j in range(n)] for i in range(n)]
        c = kernel_vector_fq(field, lead)
        if c is None:
            break
        involved = [j for j in range(n) if c[j]]
        delta = max(degs[j] for j in involved)
        target = min(j for j in involved if degs[j] == delta)
        monos = [Poly.monomial(field, c[j], delta - degs[j]) for j in involved]
        new_col = _mat_vec([[row[j] for j in involved] for row in both], monos)
        for row, p in zip(both, new_col):
            row[target] = p
        degs[target] = _col_degree(m, target)
    order = sorted(range(n), key=lambda j: (degs[j], j))
    out = [[row[j] for j in order] for row in both]
    return out[:n], out[n:], [degs[j] for j in order]

"""Brute-force reference implementations of the geometric invariants.

Everything here is derived directly from definitions: minima are read
off growing balls, the covering radius is certified by
coefficient-pattern coverage at explicit depth.  The fundamental-domain
points are built point by point from the definition of S
(sum_j frac(Q_j * v_j) over the vectors v_j of S), not from the
generators whose patterns periodic eliminates.  A window of S is counted
by the rep/lattice splitting (a rep in the ball times the lattice
shifts that keep it there); its points are built only where the rank
test of the minima needs them.  The closed-form routines elsewhere
must agree exactly; these exist so that agreement is checkable.

Bareiss elimination is the oracles' own determinant (det_poly, which
verify reads too) and rank over F_q(x) (rank_rational); the closed
forms read exactlinalg's minor table instead, and share neither.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

from .errors import BudgetExceeded, ParseError, PrecisionTooCoarse
from .ffcore import Poly, QExp, _base_digits, poly_lcm, qpow_fraction
from .lattice import ConvexBody, _frac_norm, _tail_pattern, reduce_lattice
from .periodic import PeriodicLattice


def default_budget() -> int:
    raw = os.environ.get("FFLAT_BUDGET")
    if raw is None:
        return 1 << 21
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"FFLAT_BUDGET: expected an integer, got {raw!r}") from None


def _bareiss(rows):
    """Fraction-free (Bareiss) forward elimination over F_q[x].

    Returns (matrix, pivot columns, sign of the row permutation).
    Columns without a pivot are skipped.  Every entry below the pivot
    rows stays a minor of the input, so each division by the previous
    pivot is exact and the last pivot of a nonsingular square input is
    its determinant up to the sign.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = None
    for col in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        pivot = next((r for r in range(k, nrows) if not m[r][col].is_zero), None)
        if pivot is None:
            continue
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p = m[k][col]
        for i in range(k + 1, nrows):
            for j in range(col + 1, ncols):
                num = m[i][j] * p - m[i][col] * m[k][j]
                if prev is not None:
                    num, rem = divmod(num, prev)
                    assert rem.is_zero, "Bareiss division must be exact"
                m[i][j] = num
            m[i][col] = Poly.zero(p.field)
        prev = p
        pivots.append(col)
    return m, pivots, sign


def det_poly(rows) -> Poly:
    """Determinant over F_q[x]: the last Bareiss pivot."""
    n = len(rows)
    m, pivots, sign = _bareiss(rows)
    if len(pivots) < n:
        return Poly.zero(rows[0][0].field)
    d = m[n - 1][n - 1]
    return d.scale(d.field.neg(1)) if sign < 0 else d


def _clear_denominators(rows):
    """Scale each column of a matrix over F_q(x) by the lcm of its
    denominators: (polynomial matrix, column lcms)."""
    lcms = []
    for j in range(len(rows[0])):
        l = Poly.one(rows[0][j].field)
        for r in rows:
            l = poly_lcm(l, r[j].den)
        lcms.append(l)
    return [[e.num * (l // e.den) for e, l in zip(r, lcms)] for r in rows], lcms


def rank_rational(rows) -> int:
    """Rank of a matrix over F_q(x).

    Equals the rank over the ambient Laurent series field because the
    entries are rational.  Column scaling clears denominators.
    """
    if not rows or not rows[0]:
        return 0
    return len(_bareiss(_clear_denominators(rows)[0])[1])


def _poly_upto(field, deg: int):
    """All polynomials of degree <= deg (just zero when deg < 0)."""
    if deg < 0:
        yield Poly.zero(field)
        return
    for n in range(field.q ** (deg + 1)):
        yield Poly._trim(field, _base_digits(n, field.q, deg + 1))


def _points_by_definition(S: PeriodicLattice, C: ConvexBody):
    """(coords, norm) of every fundamental-domain point of S, in the
    rb-frame of C, built from the definition: sum_j frac(Q_j * v_j) over
    the vectors v_j of S, deg Q_j <= N for alpha and Q_j constant for
    coset representatives.  The Q_j run as one counter, each in
    _poly_upto's counting order and v_0's most significant (for
    N-rational alpha the first occurrence of each point is kept); a
    zero Q_j adds nothing.  Exact coordinates are taken as Rat.
    Computed once per body."""
    rb = reduce_lattice(S.lattice, C)
    key = ("oracle", rb.body)
    hit = S._points_cache.get(key)
    if hit is not None:
        return hit
    field = S.field
    vecs = [rb.from_canonical(v) for v in S.vecs]
    if all(y.eff_floor() is None for v in vecs for y in v):
        vecs = [[y.to_rat() for y in v] for v in vecs]
    zero = [Poly.zero(field).to_rat()] * S.d
    polys = list(_poly_upto(field, 0 if S.N is None else S.N))
    # terms[j][k] = frac(Q_k * v_j), None for Q_0 = 0
    terms = [[None] + [[y.mul_poly(Q).frac_part() for y in v] for Q in polys[1:]] for v in vecs]
    seen = set() if S.N is not None and S.reach != S.N else None
    pts = []
    for combo in product(*terms):
        coords = zero
        for term in combo:
            if term is not None:
                coords = term if coords is zero else [c + t for c, t in zip(coords, term)]
        if seen is not None:
            if tuple(coords) in seen:
                continue
            seen.add(tuple(coords))
        pts.append(coords)
    out = [(coords, _frac_norm(rb.exps, coords)) for coords in pts]
    S._points_cache[key] = out
    return out


def _window(S: PeriodicLattice, R: int, C: ConvexBody, budget: int):
    """(rb, reps_in, total) for the points of S with norm <= q^R.

    Every point splits uniquely as rep + lattice vector; in reduced
    coordinates the two parts occupy disjoint exponent ranges, so the
    point is in the ball iff the rep is and each polynomial coefficient
    a_i has deg a_i <= R - e_i.  reps_in are the reps in the ball, and
    total = |reps_in| * prod q^max(R - e_i + 1, 0) is the window size,
    checked against the budget.
    """
    if budget is None:
        budget = default_budget()
    rb = reduce_lattice(S.lattice, C)
    one_ball = QExp(R)
    reps_in = [
        coords for coords, norm in _points_by_definition(S, C) if norm <= one_ball
    ]
    total = len(reps_in)
    for e in rb.exps:
        total *= S.field.q ** max(R - e + 1, 0)
    if total > budget:
        raise BudgetExceeded(
            f"window holds {total} points, budget is {budget}"
        )
    return rb, reps_in, total


def count_oracle(S: PeriodicLattice, R: int, C: ConvexBody = None,
                 budget: int = None) -> int:
    """Number of points of S with norm <= q^R, counted by the
    rep/lattice splitting without building them; always equal to
    len(enumerate_points(S, R, C, budget))."""
    return _window(S, R, C, budget)[2]


def enumerate_points(S: PeriodicLattice, R: int, C: ConvexBody = None,
                     budget: int = None, coords_only: bool = False):
    """All points of S with norm <= q^R, as ambient vectors: each rep
    in the ball plus every lattice shift allowed by the splitting (see
    `_window`).

    coords_only skips the change of frame and returns reduced-basis
    coordinate vectors; the point set is the same up to that bijection.
    """
    rb, reps_in, _total = _window(S, R, C, budget)
    field = S.field
    shifts = [list(_poly_upto(field, R - e)) for e in rb.exps]
    out = []
    for coords in reps_in:
        options = [[y.add_poly(a) for a in shift] for y, shift in zip(coords, shifts)]
        for c in map(list, product(*options)):
            out.append(c if coords_only else rb.ambient_from_coords(c))
    return out


def succmin_oracle(S: PeriodicLattice, C: ConvexBody = None,
                   budget: int = None):
    """Successive minima exponents read off growing balls.

    The answer is kept on S per body and budget (a smaller budget must
    still raise), and each call returns a fresh list.  A truncated
    instance raises PrecisionTooCoarse: the rank test needs exact
    coordinates.
    """
    if budget is None:
        budget = default_budget()
    rb = reduce_lattice(S.lattice, C)
    key = ("oracle", "succmin", rb.body, budget)
    hit = S._points_cache.get(key)
    if hit is not None:
        return list(hit)
    pts = _points_by_definition(S, C)
    if any(y.eff_floor() is not None for coords, _n in pts for y in coords):
        raise PrecisionTooCoarse(
            "the successive-minima oracle needs exact coordinates (its rank "
            "test is over F_q(x)); this instance has truncated series coordinates"
        )
    lows = [rb.exps[0]]
    for coords, norm in pts:
        if not norm.is_zero:
            lows.append(norm.exp)
    R = min(lows) - 1
    exps = []
    while len(exps) < S.d:
        # rank is frame-invariant, so reduced coordinates suffice
        pts = enumerate_points(S, R, C, budget=budget, coords_only=True)
        rows = [[v[i] for v in pts] for i in range(S.d)]
        r = rank_rational(rows)
        while len(exps) < r:
            exps.append(R)
        R += 1
    S._points_cache[key] = exps
    return list(exps)


def covrad_oracle(S: PeriodicLattice, C: ConvexBody = None, M: int = None,
                  budget: int = None) -> QExp:
    """Covering radius by descent over coefficient-pattern coverage.

    The distance from a fundamental-domain point u to S is below q^s
    iff some rep matches u's coordinate tails to depth e_i - s - 1.
    The u-grid realizes every tail pattern, so distance <= q^s holds
    for all u iff the reps realize all q^(sum of depths) patterns.
    The scan descends from s = e_d - 1 (always covered) and stops at
    the first uncovered s; only exponents above e_d - M are certified
    at grid depth M.
    """
    if budget is None:
        budget = default_budget()
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    e_d = rb.exps[-1]
    e_1 = rb.exps[0]
    if M is None:
        N = S.period_size if S.N is None else S.N
        M = N + abs(e_1) + abs(e_d) + 4
    pts = _points_by_definition(S, C)
    if len(pts) * S.d * M > budget:
        raise BudgetExceeded(
            f"coverage scan needs {len(pts) * S.d * M} pattern entries, "
            f"budget is {budget}"
        )
    s = e_d - 1
    while s >= e_d - M:
        depths = [max(e - s - 1, 0) for e in rb.exps]
        want = 1
        for dep in depths:
            want *= field.q ** dep
        got = set()
        for coords, _norm in pts:
            got.add(tuple(
                _tail_pattern(y, dep) for y, dep in zip(coords, depths)
            ))
            if len(got) == want:
                break
        if len(got) != want:
            return QExp(s + 1)
        s -= 1
    raise PrecisionTooCoarse(
        f"covering radius not separated above exponent {e_d - M}; "
        f"raise the grid depth M={M}"
    )


def density_oracle(S: PeriodicLattice, C: ConvexBody = None, R: int = None,
                   budget: int = None) -> Fraction:
    """Window density of the packing by scaled copies of C.

    The packing body is x^(e_1 - 1) C, the largest scaling with
    disjoint translates; the window count divided by the window volume
    is already stationary once R clears max(e_d, 0) + 1.
    """
    field = S.field
    rb_sup = reduce_lattice(S.lattice)
    floor_R = max(rb_sup.exps[-1], 0) + 1
    if R is None:
        R = floor_R
    elif R < floor_R:
        raise ValueError(
            f"window radius {R} below stationarity threshold {floor_R}"
        )
    e1 = succmin_oracle(S, C, budget=budget)[0]
    count = count_oracle(S, R, budget=budget)
    scale = S.d * (e1 - 1) + reduce_lattice(S.lattice, C).body.log_volume.exp - S.d * R
    return Fraction(count) * qpow_fraction(field.q, scale)

"""Hankel matrices of Laurent tails and the covering radius of a
periodic lattice from the weight-ordered elimination.

S covers every point of K_inf^d to within q^w (closer than q^w) iff
its fundamental-domain points realize every tail pattern on the columns
of weight >= w (coefficient x^-t of coordinate i has weight e_i - t).  The
pattern is F_q-linear in the point, so that holds iff the generators'
pattern matrix has full column rank there: c(w) = sum_i max(e_i - w, 0)
columns, p(w) pivots of weight >= w in periodic._weight_echelon.  For
the alpha form that matrix is the paper's stacked Hankel system
transposed: the coefficient of x^-t in frac(x^k y) is that of
x^-(t+k) in y.
"""

from __future__ import annotations

from fractions import Fraction

from .ffcore import LaurentSeries, QExp, Rat
from .lattice import ConvexBody, Lattice, reduce_lattice
from .periodic import PeriodicLattice, _tail_pattern, _weight_echelon


def hankel(alpha, m: int, n: int):
    """m x n Hankel matrix: entry (i,j) is the coefficient of
    x^-(i+j-1) in the fractional part of alpha (1-indexed)."""
    if m <= 0 or n <= 0:
        return []
    if not isinstance(alpha, (Rat, LaurentSeries)):
        raise TypeError(f"unsupported tail type {type(alpha).__name__}")
    tail = _tail_pattern(alpha.frac_part(), m + n - 1)
    return [list(tail[i:i + n]) for i in range(m)]


def covrad_periodic(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Covering radius of S for C, either form (a plain lattice is the
    coset form without representatives): q^w for the largest w with
    c(w) > p(w).

    The q^period_size fundamental-domain points bound p(w), so below
    the smallest weight low with c(low) <= period_size the answer is
    low - 1 without reading a coefficient, and one elimination reads the
    columns of weight >= low.  w may be positive: lattices with
    spread-out minima cover some tails only at radii above 1.  On
    truncated input the elimination may stop at a column it cannot read;
    its pivots are exact above that column's weight, so the refusal is
    raised only when no w above it answers, naming the floor at which
    every column down to low is known.
    """
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)

    def columns(w):
        return sum(max(e - w, 0) for e in rb.exps)

    low = rb.exps[-1]
    while columns(low - 1) <= S.period_size:
        low -= 1
    pivots, _rest, cut = _weight_echelon(S, rb, low - 1)
    for w in range(rb.exps[-1] - 1, low - 1, -1):
        if cut and w <= cut[0]:
            raise cut[1]
        if columns(w) > sum(1 for pw, _digits in pivots if pw >= w):
            return QExp(w)
    return QExp(low - 1)


def covrad_bounds(lat: Lattice, N: int, C: ConvexBody = None):
    """(lower, upper) exponent bounds for the covering radius of any
    Lambda(alpha, q^N): lower is an exact rational exponent, upper is
    the lattice covering radius exponent e_d - 1."""
    if C is None:
        C = ConvexBody.identity(lat.field, lat.d)
    rb = reduce_lattice(lat, C)
    e = rb.exps
    d = lat.d
    best = None
    for i in range(1, d + 1):
        cand = Fraction(N + 1 - sum(e[d - i:]), i)
        if best is None or cand > best:
            best = cand
    return (-(1 + best), QExp(e[-1] - 1))

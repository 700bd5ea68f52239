"""Hankel matrices of Laurent tails and the covering radius of a
periodic lattice by a rank scan over tail patterns.

S covers every point of K_inf^d to within q^-l iff its
fundamental-domain points realize every tail pattern at depths
max(l + e_i, 0).  The pattern is F_q-linear in the point, so that holds
iff the pattern matrix of the generators (periodic._pattern_matrix) at
those depths has rank equal to their sum.  For the alpha form that
matrix is the paper's stacked Hankel system transposed: the
coefficient of x^-t in frac(x^k y) is that of x^-(t+k) in y.  The set
of good l is downward-closed (dropping columns of a full-column-rank
matrix keeps its rank full), so an ascending scan stopping at the
first failure is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientPrecision
from .exactlinalg import rank_fq
from .ffcore import LaurentSeries, QExp, Rat
from .lattice import ConvexBody, Lattice, reduce_lattice
from .periodic import PeriodicLattice, _pattern_matrix, _tail_pattern


def hankel(alpha, m: int, n: int):
    """m x n Hankel matrix: entry (i,j) is the coefficient of
    x^-(i+j-1) in the fractional part of alpha (1-indexed)."""
    if m <= 0 or n <= 0:
        return []
    if not isinstance(alpha, (Rat, LaurentSeries)):
        raise TypeError(f"unsupported tail type {type(alpha).__name__}")
    tail = _tail_pattern(alpha.frac_part(), m + n - 1)
    return [list(tail[i:i + n]) for i in range(m)]


def _depths(exps, ell: int):
    return [max(ell + e, 0) for e in exps]


def rank_condition(S: PeriodicLattice, C: ConvexBody, ell: int) -> bool:
    """Do the generators realize every tail pattern at level ell, that
    is, does their pattern matrix at depths max(ell + e_i, 0) have rank
    want = sum of the depths?  The q^period_size fundamental-domain
    points bound that rank, so a level with want above the period size
    fails without reading a coefficient."""
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    depths = _depths(rb.exps, ell)
    want = sum(depths)
    if want > S.period_size:
        return False
    return rank_fq(S.field, _pattern_matrix(S, rb, depths)) == want


def covrad_periodic(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Covering radius of S for C, either form (a plain lattice is the
    coset form without representatives).

    Scans l upward from -e_d, where want is 0 and the rank condition
    holds trivially, and returns q^-l for the first failing l; the scan
    ends at the latest where want exceeds the period size.  Negative l
    is meaningful and does occur: lattices with spread-out minima cover
    some tails only at radii above 1.  A level whose coefficients lie
    below a truncation floor refuses with the floor of the deepest
    level the scan can reach, which is enough for every level below it.
    """
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    ell = -rb.exps[-1]
    try:
        while rank_condition(S, C, ell + 1):
            ell += 1
    except InsufficientPrecision:
        # the deepest reachable level needs more than the refused one,
        # so its pattern matrix raises too, naming its own floor
        while sum(_depths(rb.exps, ell + 2)) <= S.period_size:
            ell += 1
        _pattern_matrix(S, rb, _depths(rb.exps, ell + 1))
        raise
    return QExp(-(ell + 1))


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

"""Hankel matrices of Laurent tails and the covering radius of
Lambda(alpha, q^N) by rank search over stacked Hankel systems.

Solvability of the simultaneous approximation systems at quality level
l is equivalent to the stacked matrix having full row rank; the
covering radius drops out of the largest l where that holds.  The
set of good l is downward-closed (removing rows of a full-row-rank
matrix keeps full row rank), so an ascending scan stopping at the
first failure is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientPrecision
from .exactlinalg import rank_fq
from .ffcore import LaurentSeries, QExp, Rat, expand_rational
from .lattice import ConvexBody, Lattice, reduce_lattice
from .periodic import AlphaForm, PeriodicLattice, _alpha_coords


def hankel(alpha, m: int, n: int):
    """m x n Hankel matrix: entry (i,j) is the coefficient of
    x^-(i+j-1) in the fractional part of alpha (1-indexed)."""
    if m <= 0 or n <= 0:
        return []
    depth = m + n - 1
    if isinstance(alpha, Rat):
        s = expand_rational(alpha.frac_part(), -depth)
    elif isinstance(alpha, LaurentSeries):
        s = alpha.frac_part()
        if not s.exact and s.floor > -depth:
            raise InsufficientPrecision(
                f"Hankel matrix of order {m}x{n} needs coefficients down "
                f"to x^-{depth}",
                needed_floor=-depth,
            )
    else:
        raise TypeError(f"unsupported tail type {type(alpha).__name__}")
    return [
        [s.coeff_exp(-(i + j - 1)) for j in range(1, n + 1)]
        for i in range(1, m + 1)
    ]


def _stack(phi, exps, ell: int, n: int):
    rows = []
    for y, e in zip(phi, exps):
        rows.extend(hankel(y, ell + e, n))
    return rows


def rank_condition(S: PeriodicLattice, C: ConvexBody, ell: int) -> bool:
    """Does the stacked Hankel system at level ell have full row rank?"""
    if not isinstance(S.form, AlphaForm):
        raise TypeError("rank condition requires an AlphaForm periodic lattice")
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    phi = _alpha_coords(S, rb)
    want = sum(max(ell + e, 0) for e in rb.exps)
    rows = _stack(phi, rb.exps, ell, S.form.N + 1)
    return rank_fq(S.field, rows) == want


def covrad_periodic(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Covering radius of an AlphaForm periodic lattice for C.

    Scans l upward from -e_d (where the stack is empty and the rank
    condition holds trivially) and returns q^-(1+gamma) for gamma the
    level before the first failure.  The scan cannot pass the level
    where the required rank exceeds the column count N+1, so it
    terminates.  Negative gamma is meaningful and does occur: lattices
    with spread-out minima cover some tails only at radii above 1.
    """
    if not isinstance(S.form, AlphaForm):
        raise TypeError("covrad_periodic requires an AlphaForm periodic lattice")
    if C is None:
        C = S.base_body()
    field = S.field
    N = S.form.N
    rb = reduce_lattice(S.lattice, C)
    exps = rb.exps
    e_d = exps[-1]
    cap = -e_d
    while sum(max(cap + 1 + e, 0) for e in exps) <= N + 1:
        cap += 1
    depth = cap + e_d + N + 1
    phi = _alpha_coords(S, rb)
    for y, e in zip(phi, exps):
        need = cap + 1 + e + N
        if isinstance(y, LaurentSeries) and not y.exact and y.floor > -need:
            raise InsufficientPrecision(
                f"covering radius scan needs coefficients down to x^-{depth}",
                needed_floor=-depth,
            )
    ell = -e_d
    while True:
        want = sum(max(ell + e, 0) for e in exps)
        rows = _stack(phi, exps, ell, N + 1)
        if rank_fq(field, rows) != want:
            return QExp(-(1 + (ell - 1)))
        ell += 1
        if ell > cap + 1:
            raise AssertionError("rank condition cannot hold past the cap")


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

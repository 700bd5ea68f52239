"""Lattices g*R^d in K_inf^d, convex bodies h*O^d, reduction, and the
coordinates of vectors: changes of frame and norms.

Matrices with Laurent-polynomial entries are stored as a polynomial
matrix together with a nonnegative x-power shift: the actual matrix is
x^(-shift) * P.  This keeps all heavy arithmetic inside F_q[x].

Columns are basis vectors throughout.  reduce_lattice column-reduces
adj(H) G by exactlinalg.popov_reduce, which carries G to the reduced
basis.

A coordinate vector is all Rat, or all LaurentSeries when one input is
a truncated series (_lift).  Changes of frame (ReducedBasis methods)
and the weighted max norm (_frac_norm, also behind norm_in_body) each
have one implementation for both, which asks each coordinate what it
knows (eff_floor, val); every product of a polynomial matrix and a
vector is exactlinalg._mat_vec, which puts a Rat vector over one
denominator.

The per-body memos (reduce_lattice's and the periodic lattice's) key
on the ConvexBody object, which hashes by identity: nothing mutates a
body, and two bodies built from one matrix are two equal-answer keys.
"""

from __future__ import annotations

import functools

from .errors import InsufficientPrecision, SingularInput
from .exactlinalg import (
    _mat_vec,
    _minor_table,
    det_adjugate,
    identity_poly,
    mat_mul_poly,
    popov_reduce,
)
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QEXP_ZERO,
    QExp,
    Rat,
    _monomial_degree,
    element,
    expand_rational,
)


def normalize_matrix(field: GF, entries):
    """Turn a d×d array of Laurent-polynomial entries into (P, shift).

    Entries may be strings in the element grammar, Rat, Poly, int, or
    exact LaurentSeries.  Denominators must be pure powers of x.
    """
    d = len(entries)
    rats = [[element(field, e).to_rat() for e in row] for row in entries]
    if any(len(row) != d for row in rats):
        raise ValueError("matrix must be square")
    ks = [[_monomial_degree(r.den.coeffs) for r in row] for row in rats]
    if any(k < 0 for row in ks for k in row):
        raise ValueError(
            "matrix entries must be Laurent polynomials "
            "(denominator a power of x)"
        )
    shift = max((k for row in ks for k in row), default=0)
    P = [[r.num.shift(shift - k) for r, k in zip(row, krow)] for row, krow in zip(rats, ks)]
    return P, shift


class ConvexBody:
    """A body C = h O^d with h = x^(-shift) H, H a polynomial matrix."""

    __slots__ = ("field", "d", "shift", "det_H", "adj")

    def __init__(self, field: GF, entries):
        self.field = field
        H, self.shift = normalize_matrix(field, entries)
        self.d = len(H)
        self.det_H, self.adj = det_adjugate(H)
        if self.det_H.is_zero:
            raise SingularInput("convex body matrix has zero determinant")

    @classmethod
    @functools.cache
    def identity(cls, field: GF, d: int) -> "ConvexBody":
        """The unit body O^d, built once per (field, d): nothing mutates
        a body, so every caller shares this one, and with it the memo
        entries keyed on it."""
        return cls(field, identity_poly(field, d))

    @classmethod
    def ball(cls, field: GF, d: int, R: int) -> "ConvexBody":
        """The sup-norm ball of radius q^R, i.e. x^R * O^d."""
        zero = Poly.zero(field)
        diag = Rat.x_power(field, R)
        return cls(field, [[diag if i == j else zero for j in range(d)] for i in range(d)])

    @property
    def log_volume(self) -> QExp:
        """m(C) = |det h| as a q-power."""
        return QExp(self.det_H.degree - self.d * self.shift)


class Lattice:
    """A lattice g R^d with g = x^(-shift) G, det g != 0, d >= 2;
    log_det = log_q |det g|."""

    __slots__ = ("field", "d", "G", "shift", "log_det", "_reductions")

    def __init__(self, field: GF, basis):
        self.field = field
        self.G, self.shift = normalize_matrix(field, basis)
        self.d = len(self.G)
        if self.d < 2:
            raise ValueError("lattice dimension must be at least 2")
        (det_G,) = _minor_table(self.G)[-1].values()
        if det_G.is_zero:
            raise SingularInput("lattice basis has zero determinant")
        self.log_det = det_G.degree - self.d * self.shift
        self._reductions = {}

    @classmethod
    def standard(cls, field: GF, d: int) -> "Lattice":
        return cls(field, identity_poly(field, d))


# --- coordinates: one arithmetic backend per vector --------------------------


def _is_series(coords) -> bool:
    """The backend of one coordinate vector; every vector of an instance
    shares it, except the polynomial unit vectors, which stay Rat."""
    return isinstance(coords[0], LaurentSeries)


def _lift(vals, d: int):
    """One arithmetic backend for a set of coordinates: all Rat when none
    is a series, else all series, expanded 4d + 8 deep (see _as_series)."""
    if not any(isinstance(v, LaurentSeries) for v in vals):
        return list(vals)
    return _as_series(vals, 4 * d + 8)


def _as_series(vals, margin: int):
    """Series and Rat coordinates as series: a polynomial exactly, any
    other rational expanded margin + D exponents below the lowest
    truncated floor (or below x^0), D the largest denominator degree
    among the rationals, so that the expansion is not what limits the
    precision of what is computed from it."""
    floors = [f for v in vals if (f := v.eff_floor()) is not None]
    dens = [v.den.degree for v in vals if isinstance(v, Rat)]
    deep = (min(floors) if floors else 0) - margin - max(dens, default=0)
    return [
        v if isinstance(v, LaurentSeries)
        else LaurentSeries.from_poly(v.num) if v.den.degree == 0
        else expand_rational(v, deep)
        for v in vals
    ]


def _frac_norm(exps, coords) -> QExp:
    """max_i |y_i| q^(e_i) with sound truncation handling.  A refusal
    names a floor for coords: with a known nonzero coefficient of weight
    best, knowing every coefficient of weight > best decides the norm;
    without one, the floor only lowers every coordinate's bound."""
    best = None
    pending = []
    for e_i, y in zip(exps, coords):
        try:
            v = y.val()
        except InsufficientPrecision as exc:
            pending.append(exc.needed_floor + e_i)
            continue
        if not v.is_zero and (best is None or v.exp + e_i > best):
            best = v.exp + e_i
    if best is not None and all(best >= b for b in pending):
        return QExp(best)
    if not pending:
        return QEXP_ZERO
    need = best + 1 if best is not None else min(pending) - 1
    raise InsufficientPrecision(
        "coordinate norm undecidable at the stored precision floor",
        needed_floor=need - max(exps),
    )


def _known_tail(y, depth: int):
    """(the coefficients of x^-1 .. x^-depth of the fractional part of
    y, how many leading coefficients y knows): a truncated series knows
    those above its floor, and the ones below read as 0; an exact
    coordinate knows all of them (None).  The known ones are one slice
    of the series' coefficients, x^top first."""
    if (floor := y.eff_floor()) is not None:
        known = max(-floor, 0)
        read = min(known, depth)
    else:
        if not isinstance(y, LaurentSeries):
            y = expand_rational(y, -depth)
        known, read = None, depth
    # x^-1 .. x^-read sit at indices top + 1 .. top + read; those above
    # the top are 0
    above = min(max(-1 - y.top, 0), read)
    cs = y.coeffs[y.top + 1 + above:y.top + 1 + read]
    return (0,) * above + cs + (0,) * (depth - above - len(cs)), known


def _tail_pattern(y, depth: int):
    """Coefficients of x^-1 .. x^-depth of the fractional part of y."""
    if depth <= 0:
        return ()
    tail, known = _known_tail(y, depth)
    if known is not None and known < depth:
        raise InsufficientPrecision(
            f"pattern needs coefficients down to x^-{depth}",
            needed_floor=-depth,
        )
    return tail


class ReducedBasis:
    """Reduction of a lattice with respect to a body.

    exps[i] = log_q lambda_i.  Columns of x^(-lattice.shift) VP are the
    reduced vectors in ambient coordinates.  RP = adj(H) @ VP tracks norms: for
    polynomial coefficients c, || sum c_i v^(i) ||_C = q^(max column
    degree of RP@c + norm_shift), and that equals max |c_i| q^(e_i).
    """

    __slots__ = (
        "lattice", "body", "exps", "VP", "RP", "norm_shift", "_vp_inv",
    )

    def __init__(self, lattice, body, exps, VP, RP, norm_shift):
        self.lattice = lattice
        self.body = body
        self.exps = exps
        self.VP = VP
        self.RP = RP
        self.norm_shift = norm_shift
        self._vp_inv = None

    @property
    def d(self) -> int:
        return self.lattice.d

    def norm_from_coords(self, coeffs) -> QExp:
        """C-norm of sum coeffs[i] * v^(i), coeffs polynomials."""
        best = max(p.degree for p in _mat_vec(self.RP, coeffs))
        return QEXP_ZERO if best < 0 else QExp(best + self.norm_shift)

    def coords_from_ambient(self, vec):
        """Coordinates y with sum y_i v^(i) = vec, in vec's backend:
        y = x^shift adj(VP) vec / det(VP).  A series row that stays
        exact is divided as a Rat (LaurentSeries.mul_rat), so series
        input comes back lifted as _lift lifts it."""
        if self._vp_inv is None:
            det, adj = det_adjugate(self.VP)
            self._vp_inv = adj, Rat(Poly.one(det.field), det)
        adj, inv_det = self._vp_inv
        out = [y.mul_xpow(self.lattice.shift).mul_rat(inv_det) for y in _mat_vec(adj, vec)]
        return _as_series(out, 4 * self.d + 8) if _is_series(vec) else out

    def ambient_from_coords(self, coords):
        """sum coords[i] v^(i): series for series coords, else Rat (coords
        Poly or Rat).  Each Rat ambient coordinate is one numerator over
        the lcm of the coordinate denominators (_mat_vec), times x^-shift;
        all-Poly coords take the Poly product, each output over 1.
        """
        if all(isinstance(c, Poly) for c in coords):
            ys = [Rat.from_poly(y) for y in _mat_vec(self.VP, coords)]
        else:
            ys = _mat_vec(self.VP, coords if _is_series(coords) else [c.to_rat() for c in coords])
        return [y.mul_xpow(-self.lattice.shift) for y in ys]

    def ambient_basis(self):
        """The reduced vectors x^(-shift) VP as a matrix of Rat, columns
        the vectors."""
        return [[Rat.from_poly(p).mul_xpow(-self.lattice.shift) for p in row] for row in self.VP]

    def from_canonical(self, coords):
        """Fractional coordinates in the canonical frame, the reduced
        basis for the unit body, as fractional coordinates in this one."""
        rb0 = reduce_lattice(self.lattice)
        if self.VP == rb0.VP:
            # the same basis vectors (a ball only shifts their norms)
            return list(coords)
        ambient = rb0.ambient_from_coords(coords)
        return [y.frac_part() for y in self.coords_from_ambient(ambient)]


def norm_in_body(v, C: ConvexBody) -> QExp:
    """||v||_C = |adj(H) v| q^(shift - deg det H) for a vector of Rat,
    Poly, element strings, or exact or truncated series, d entries."""
    if len(v) != C.d:
        raise ValueError(f"a vector of length {len(v)} in a body of dimension {C.d}")
    vals = [element(C.field, e) for e in v]
    if any(e.eff_floor() is not None for e in vals):
        # expanded rationals must never be the precision bottleneck
        vals = _as_series(vals, max(p.degree for row in C.adj for p in row) + 1)
    else:
        vals = [e.to_rat() for e in vals]
    base = _frac_norm([0] * C.d, _mat_vec(C.adj, vals))
    return base if base.is_zero else QExp(base.exp - C.det_H.degree + C.shift)


def reduce_lattice(lat: Lattice, C: ConvexBody = None) -> ReducedBasis:
    """Reduced basis of lat w.r.t. C, the unit body O^d when C is None:
    the one place that default is picked, so callers pass their C as
    given and read the body reduced for from rb.body.  Cached on the
    lattice per body object; C must have lat's dimension and field, or
    it is refused, not just missed in the cache."""
    if C is None:
        C = ConvexBody.identity(lat.field, lat.d)
    elif C.d != lat.d or C.field != lat.field:
        raise ValueError(
            f"a body of dimension {C.d} over {C.field} for a lattice "
            f"of dimension {lat.d} over {lat.field}"
        )
    hit = lat._reductions.get(C)
    if hit is not None:
        return hit
    # h^(-1) g = x^(shift_C - shift_L) adj(H) G / det(H): reduce adj(H)G,
    # carrying G to the reduced basis VP = G U
    RP, VP, degs = popov_reduce(mat_mul_poly(C.adj, lat.G), lat.G)
    norm_shift = C.shift - lat.shift - C.det_H.degree
    exps = [dg + norm_shift for dg in degs]
    rb = ReducedBasis(lat, C, exps, VP, RP, norm_shift)
    lat._reductions[C] = rb
    return rb


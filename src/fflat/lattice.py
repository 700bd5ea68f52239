"""Lattices g*R^d in K_inf^d, convex bodies h*O^d, norms and reduction.

Matrices with Laurent-polynomial entries are stored as a polynomial
matrix together with a nonnegative x-power shift: the actual matrix is
x^(-shift) * P.  This keeps all heavy arithmetic inside F_q[x].

Columns are basis vectors throughout.
"""

from __future__ import annotations

import functools

from .errors import InsufficientPrecision, SingularInput
from .exactlinalg import adjugate_poly, det_poly, mat_mul_poly, popov_reduce
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QEXP_ZERO,
    QExp,
    Rat,
    expand_rational,
    parse_element,
    poly_lcm,
)


def _entry_to_rat(field: GF, e) -> Rat:
    if isinstance(e, Rat):
        r = e
    elif isinstance(e, Poly):
        r = Rat.from_poly(e)
    elif isinstance(e, int):
        r = Rat.from_poly(Poly.const(field, field.from_int(e)))
    elif isinstance(e, str):
        r = parse_element(field, e)
    elif isinstance(e, LaurentSeries):
        r = e.to_rat()
    else:
        raise TypeError(f"unsupported matrix entry type {type(e).__name__}")
    if r.num.field != field:
        raise ValueError("matrix entry from a different field")
    return r


def _xpower_degree(p: Poly) -> int:
    # degree k when p = x^k, else -1
    if p.degree < 0 or not p.is_monic:
        return -1
    if any(c for c in p.coeffs[:-1]):
        return -1
    return p.degree


def normalize_matrix(field: GF, entries):
    """Turn a d×d array of Laurent-polynomial entries into (P, shift).

    Entries may be strings in the element grammar, Rat, Poly, int, or
    exact LaurentSeries.  Denominators must be pure powers of x.
    """
    d = len(entries)
    rats = [[_entry_to_rat(field, e) for e in row] for row in entries]
    if any(len(row) != d for row in rats):
        raise ValueError("matrix must be square")
    shift = 0
    for row in rats:
        for r in row:
            k = _xpower_degree(r.den)
            if k < 0:
                raise ValueError(
                    "matrix entries must be Laurent polynomials "
                    "(denominator a power of x)"
                )
            shift = max(shift, k)
    P = []
    for row in rats:
        prow = []
        for r in row:
            k = _xpower_degree(r.den)
            prow.append(r.num.shift(shift - k))
        P.append(prow)
    return P, shift


class ConvexBody:
    """A body C = h O^d with h = x^(-shift) H, H a polynomial matrix."""

    __slots__ = ("field", "d", "H", "shift", "_det", "_adj", "_key")

    def __init__(self, field: GF, entries):
        self.field = field
        self.H, self.shift = normalize_matrix(field, entries)
        self.d = len(self.H)
        self._det = det_poly(self.H)
        if self._det.is_zero:
            raise SingularInput("convex body matrix has zero determinant")
        self._adj = None
        self._key = None

    @classmethod
    @functools.cache
    def identity(cls, field: GF, d: int) -> "ConvexBody":
        """The unit body O^d, built once per (field, d): nothing mutates
        a body, and its adjugate and cache key are idempotent lazy caches."""
        one = Poly.one(field)
        zero = Poly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(d)] for i in range(d)])

    @classmethod
    def ball(cls, field: GF, d: int, R: int) -> "ConvexBody":
        """The sup-norm ball of radius q^R, i.e. x^R * O^d."""
        zero = Poly.zero(field)
        diag = Rat.x_power(field, R)
        return cls(field, [[diag if i == j else zero for j in range(d)] for i in range(d)])

    @property
    def adj(self):
        if self._adj is None:
            self._adj = adjugate_poly(self.H)
        return self._adj

    @property
    def det_H(self) -> Poly:
        return self._det

    @property
    def log_volume(self) -> QExp:
        """m(C) = |det h| as a q-power."""
        return QExp(self._det.degree - self.d * self.shift)

    def cache_key(self):
        if self._key is None:
            self._key = (
                self.shift,
                tuple(tuple(p.coeffs for p in row) for row in self.H),
            )
        return self._key


class Lattice:
    """A lattice g R^d with g = x^(-shift) G, det g != 0, d >= 2."""

    __slots__ = ("field", "d", "G", "shift", "_det", "_reductions")

    def __init__(self, field: GF, basis):
        self.field = field
        self.G, self.shift = normalize_matrix(field, basis)
        self.d = len(self.G)
        if self.d < 2:
            raise ValueError("lattice dimension must be at least 2")
        self._det = det_poly(self.G)
        if self._det.is_zero:
            raise SingularInput("lattice basis has zero determinant")
        self._reductions = {}

    @classmethod
    def standard(cls, field: GF, d: int) -> "Lattice":
        one = Poly.one(field)
        zero = Poly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(d)] for i in range(d)])

    @property
    def log_det(self) -> int:
        return self._det.degree - self.d * self.shift


class ReducedBasis:
    """Reduction of a lattice with respect to a body.

    exps[i] = log_q lambda_i.  Columns of x^(-ashift) VP are the reduced
    vectors in ambient coordinates.  RP = adj(H) @ VP tracks norms: for
    polynomial coefficients c, || sum c_i v^(i) ||_C = q^(max column
    degree of RP@c + norm_shift), and that equals max |c_i| q^(e_i).
    """

    __slots__ = (
        "lattice", "body", "exps", "VP", "RP", "U", "ashift", "norm_shift",
        "_vp_det", "_vp_adj",
    )

    def __init__(self, lattice, body, exps, VP, RP, U, ashift, norm_shift):
        self.lattice = lattice
        self.body = body
        self.exps = exps
        self.VP = VP
        self.RP = RP
        self.U = U
        self.ashift = ashift
        self.norm_shift = norm_shift
        self._vp_det = None
        self._vp_adj = None

    @property
    def d(self) -> int:
        return self.lattice.d

    def norm_from_coords(self, coeffs) -> QExp:
        """C-norm of sum coeffs[i] * v^(i), coeffs polynomials."""
        best = None
        for i in range(self.d):
            acc = Poly.zero(self.lattice.field)
            for j in range(self.d):
                if not coeffs[j].is_zero:
                    acc = acc + self.RP[i][j] * coeffs[j]
            if acc.degree >= 0 and (best is None or acc.degree > best):
                best = acc.degree
        if best is None:
            return QEXP_ZERO
        return QExp(best + self.norm_shift)

    def _vp_inverse_parts(self):
        if self._vp_det is None:
            self._vp_det = det_poly(self.VP)
            self._vp_adj = adjugate_poly(self.VP)
        return self._vp_adj, self._vp_det

    def coords_from_ambient_rat(self, vec):
        """Coordinates y with sum y_i v^(i) = vec, for Rat entries vec."""
        adj, det = self._vp_inverse_parts()
        xs = Poly.monomial(self.lattice.field, 1, self.ashift)
        out = []
        for i in range(self.d):
            acc = None
            for j in range(self.d):
                term = vec[j].mul_poly(adj[i][j])
                acc = term if acc is None else acc + term
            out.append(acc.mul_poly(xs) / Rat.from_poly(det))
        return out

    def coords_from_ambient_series(self, vec):
        """Same as coords_from_ambient_rat for LaurentSeries entries.

        When det(VP) is not a constant, a row that comes out exact is
        divided in Rat arithmetic and returned as a Rat: dividing an
        exact series by a polynomial would need a choice of floor.
        """
        adj, det = self._vp_inverse_parts()
        field = self.lattice.field
        inv_det = Rat(Poly.one(field), det)
        out = []
        for i in range(self.d):
            acc = LaurentSeries.exact_zero(field)
            for j in range(self.d):
                acc = acc + vec[j].mul_poly(adj[i][j])
            acc = acc.mul_xpow(self.ashift)
            if acc.exact and det.degree > 0:
                out.append(acc.to_rat() * inv_det)
            else:
                out.append(acc.mul_rat(inv_det))
        return out

    def ambient_from_coords(self, coords):
        """sum coords[i] v^(i) as a list of Rat (coords Poly or Rat).

        Each ambient coordinate is one numerator over lcm(coordinate
        denominators) * x^ashift, reduced once.
        """
        field = self.lattice.field
        coords = [Rat.from_poly(c) if isinstance(c, Poly) else c for c in coords]
        lcm = Poly.one(field)
        for c in coords:
            if c.den.degree > 0:
                lcm = poly_lcm(lcm, c.den)
        nums = [c.num * (lcm // c.den) for c in coords]
        den = lcm.shift(self.ashift)
        out = []
        for i in range(self.d):
            acc = Poly.zero(field)
            for j in range(self.d):
                acc = acc + nums[j] * self.VP[i][j]
            out.append(Rat(acc, den))
        return out


def _series_rows_max_val(rows) -> QExp:
    """max_i val(rows[i]) with sound handling of truncated knowledge."""
    best = None           # best certain valuation exponent
    pending = []          # floors of rows whose value is undecided
    all_exact_zero = True
    for s in rows:
        if s.is_exact_zero:
            continue
        all_exact_zero = False
        if s.coeffs:
            t = s.top
            if best is None or t > best:
                best = t
        else:
            pending.append(s.floor)
    if all_exact_zero:
        return QEXP_ZERO
    if best is not None and all(best >= f - 1 for f in pending):
        return QExp(best)
    need = min(pending)
    raise InsufficientPrecision(
        f"norm undecidable: coefficients known only above x^{need}",
        needed_floor=need - 1,
    )


def norm_in_body(v, C: ConvexBody) -> QExp:
    """||v||_C for a vector of Rat / Poly / exact or truncated series."""
    field = C.field
    adj = C.adj
    ddeg = C.det_H.degree
    truncated_floors = [
        e.eff_floor() for e in v if isinstance(e, LaurentSeries) and not e.exact
    ]
    if not truncated_floors:
        # fully exact data: stay in Rat arithmetic, no floor choice needed
        rats = [
            e.to_rat() if isinstance(e, LaurentSeries) else _entry_to_rat(field, e)
            for e in v
        ]
        best = None
        for i in range(C.d):
            acc = None
            for j in range(C.d):
                term = rats[j].mul_poly(adj[i][j])
                acc = term if acc is None else acc + term
            val = acc.val()
            if not val.is_zero and (best is None or val.exp > best):
                best = val.exp
        if best is None:
            return QEXP_ZERO
        return QExp(best - ddeg + C.shift)
    # expanded rationals must never be the precision bottleneck
    adj_deg = max(p.degree for row in adj for p in row)
    exp_floor = min(truncated_floors) - max(adj_deg, 0) - 1
    series = []
    for e in v:
        if isinstance(e, LaurentSeries):
            series.append(e)
        else:
            r = _entry_to_rat(field, e)
            k = _xpower_degree(r.den)
            if r.den.degree == 0:
                series.append(LaurentSeries.from_poly(r.num))
            elif k >= 0:
                series.append(LaurentSeries.from_poly(r.num).mul_xpow(-k))
            else:
                series.append(expand_rational(r, exp_floor))
    rows = []
    for i in range(C.d):
        acc = LaurentSeries.exact_zero(field)
        for j in range(C.d):
            acc = acc + series[j].mul_poly(adj[i][j])
        rows.append(acc)
    base = _series_rows_max_val(rows)
    if base.is_zero:
        return QEXP_ZERO
    return QExp(base.exp - ddeg + C.shift)


def reduce_lattice(lat: Lattice, C: ConvexBody) -> ReducedBasis:
    """Reduced basis of lat w.r.t. C; cached on the lattice per body."""
    key = C.cache_key()
    hit = lat._reductions.get(key)
    if hit is not None:
        return hit
    # h^(-1) g = x^(shift_C - shift_L) adj(H) G / det(H): reduce adj(H)G
    M0 = mat_mul_poly(C.adj, lat.G)
    RP, U, degs = popov_reduce(M0)
    norm_shift = C.shift - lat.shift - C.det_H.degree
    exps = [dg + norm_shift for dg in degs]
    VP = mat_mul_poly(lat.G, U)
    rb = ReducedBasis(lat, C, exps, VP, RP, U, lat.shift, norm_shift)
    lat._reductions[key] = rb
    return rb


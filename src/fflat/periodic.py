"""Periodic lattices: finitely many cosets of a lattice forming an
F_q-subspace of K_inf^d, one representation (PeriodicLattice) for
Lambda(alpha, q^N) and for listed coset representatives; only their
constructors differ.

All fractional data lives in reduced-basis coordinates.  The canonical
frame is the reduced basis for the sup-norm body; operations taking a
different body convert coordinates (ReducedBasis.from_canonical) and
reduce into that body's fundamental domain, which does not change the
point set modulo Lambda.

The coordinates of one periodic lattice share one arithmetic backend,
chosen at construction (_lift): Rat when no input coordinate is a
series, LaurentSeries for all of them when one is.  Frame changes,
norms and tails of both backends live in lattice.py.

The fundamental-domain points form the F_q-span of the n = period_size
independent generators.  Their tail coefficients are F_q-linear in the
point, and no invariant lists the q^n points.  The coefficient of x^-t
in coordinate i has weight e_i - t, and a point's norm is q^(the
largest weight of a nonzero coefficient).  So one elimination of the
generators' pattern matrix with its columns in descending weight
(_weight_echelon) gives a basis of pivot points of known norm, and the
points of norm <= q^s are the span of the pivots of weight <= s.  Read
down to weight 1 it gives count and the mink-search point; read until
every generator has a pivot it gives the candidates of the successive
minima, and with them the packing radius and density; read down to the
lowest weight at which there are at most n columns of that weight or
more it gives the covering radius (covrad_periodic), from how many
pivots those columns take.  The patterns are also the construction
certificate (_first_spanned): N-irrationality of truncated alpha and
independence of the coset representatives both say that no generator
lies in the span of the earlier ones on the coefficients they all
know, which a row echelon form with the generators inserted as rows,
in order, decides.  Exact alpha keeps the closed form of that rank,
the degree of its denominators' lcm.  So nothing here enumerates
points, and no size cap is needed; only d_invariant, a brute force
over polynomials, keeps one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from math import comb

from .errors import CapExceeded, InsufficientPrecision, NRational, UndefinedValue
from .exactlinalg import _echelon_fq, _rref_fq, det_rat, det_series, rank_rational
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QExp,
    Rat,
    element,
    format_poly,
    qpow_fraction,
)
from .lattice import (
    ConvexBody,
    Lattice,
    ReducedBasis,
    _as_series,
    _common_den,
    _frac_norm,
    _is_series,
    _known_tail,
    _lift,
    _tail_pattern,
    reduce_lattice,
)

# the sizes up to which the d_invariant brute force runs, and the most
# determinants it computes (0.15-0.3 ms each at q = 3..5)
_DINV_MAX_D = 3
_DINV_MAX_N = 2
_DINV_MAX_DETS = 10**5


# --- the periodic lattice type -----------------------------------------------


class PeriodicLattice:
    """Lambda plus the F_q-span of the generators, least significant
    first: frac(x^k * v) for k = 0..reach and each v in reversed(vecs).

    vecs holds fractional vectors in the canonical (sup-norm) frame, as
    given: [alpha] for Lambda(alpha, q^N) (make_alpha_lattice), the
    representatives in their order (make_coset_lattice), [] for a plain
    lattice (from_lattice).  Certified N-irrational alpha has reach N,
    N-rational alpha one less than the degree of its denominators' lcm,
    the others 0.  N is alpha's degree bound, else None; only the
    definition-level code (d_invariant, check_bounds, the oracles)
    reads it.
    """

    __slots__ = ("lattice", "vecs", "reach", "N", "_coord_cache", "_points_cache")

    def __init__(self, lattice: Lattice, vecs, reach: int = 0, N: int = None):
        self.lattice = lattice
        self.vecs = vecs
        self.reach = reach
        self.N = N
        self._coord_cache = {}
        # the oracles' memo (fflat.oracle); nothing here reads it
        self._points_cache = {}

    @property
    def period_size(self) -> int:
        return len(self.vecs) * (self.reach + 1)

    @property
    def field(self) -> GF:
        return self.lattice.field

    @property
    def d(self) -> int:
        return self.lattice.d

    def base_body(self) -> ConvexBody:
        return ConvexBody.identity(self.field, self.d)


# --- coordinates -------------------------------------------------------------


def _coords(S: PeriodicLattice, rb: ReducedBasis):
    """S.vecs in the rb frame, in their order; converted once per body."""
    key = rb.body.cache_key()
    hit = S._coord_cache.get(key)
    if hit is None:
        hit = [rb.from_canonical(v) for v in S.vecs]
        S._coord_cache[key] = hit
    return hit


# --- construction ----------------------------------------------------------


def _parse_coords(lat: Lattice, alpha):
    vals = [element(lat.field, a) for a in alpha]
    if len(vals) != lat.d:
        raise ValueError(f"expected {lat.d} coordinates, got {len(vals)}")
    return vals


def make_alpha_lattice(
    lat: Lattice,
    alpha,
    N: int,
    frame: str = "reduced",
    require_irrational: bool = True,
) -> PeriodicLattice:
    """Build Lambda(alpha, q^N), verifying N-irrationality.

    alpha is reduced modulo Lambda into the fundamental domain, which
    leaves the point set unchanged.  For exact coordinates (rational, or
    exact series read as rationals) the test is the closed form: alpha
    is N-rational iff the lcm of the reduced-coordinate denominators has
    degree <= N, and that lcm is the witness.  When a coordinate is
    truncated (one series among the inputs makes every coordinate a
    series), no generator frac(x^m * alpha), m <= N, may lie in the span
    of the earlier ones on the coefficients they all know
    (_first_spanned); otherwise some Q of degree m leaves
    frac(Q * alpha) no known nonzero coefficient.

    require_irrational=False admits N-rational alpha with Rat
    coordinates (for degenerate cases such as alpha = 0); the period
    size is then the degree of the lcm, the log-count of distinct
    representatives.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    field = lat.field
    coords = _lift(_parse_coords(lat, alpha), lat.d)
    if frame == "ambient":
        rb0 = reduce_lattice(lat, ConvexBody.identity(field, lat.d))
        coords = rb0.coords_from_ambient(coords)
    elif frame != "reduced":
        raise ValueError("frame must be 'ambient' or 'reduced'")
    phi = [y.frac_part() for y in coords]
    floors = _truncated_floors([phi])
    if floors:
        m = _first_spanned(field, [phi], N)
        if m is not None:
            raise InsufficientPrecision(
                f"cannot certify N-irrationality: some Q of degree {m} leaves "
                "frac(Q*alpha) no known nonzero coefficient",
                needed_floor=min(floors) - 1,
            )
    else:
        lcm = _common_den(field, phi)
        if lcm.degree <= N:
            if require_irrational or _is_series(phi):
                raise NRational(
                    f"alpha is N-rational for N={N}: witness {format_poly(lcm)}",
                    witness=lcm,
                )
            return PeriodicLattice(lat, [phi], lcm.degree - 1, N)
    return PeriodicLattice(lat, [phi], N, N)


def make_coset_lattice(lat: Lattice, reps) -> PeriodicLattice:
    """Build Lambda + span of fractional representatives.

    reps are given in canonical reduced-basis coordinates, entries with
    negative valuation only.  They must be F_q-independent modulo
    Lambda: no representative may lie in the span of the earlier ones on
    the coefficients they all know (_first_spanned).  A dependence among
    exact entries is a ValueError; one that truncation may hide is
    InsufficientPrecision.
    """
    d = lat.d
    flat = _lift([y for rep in reps for y in _parse_coords(lat, rep)], d)
    if any(y.frac_part() != y for y in flat):
        raise ValueError(
            "coset representative coordinates must lie in the "
            "fundamental domain (negative exponents only)"
        )
    parsed = [flat[i:i + d] for i in range(0, len(flat), d)]
    m = _first_spanned(lat.field, parsed, 0) if parsed else None
    if m is not None:
        if _truncated_floors(parsed[:m + 1]):
            raise InsufficientPrecision(
                f"coset representative {m} is not certified independent of "
                "the earlier ones at the known coefficients",
                needed_floor=min(_truncated_floors(parsed)) - 1,
            )
        raise ValueError("coset representatives are F_q-linearly dependent")
    return PeriodicLattice(lat, parsed)


def _truncated_floors(vecs):
    return [y.floor for v in vecs for y in v if isinstance(y, LaurentSeries) and not y.exact]


def _first_spanned(field: GF, vecs, reach: int):
    """The construction certificate: the index of the first generator
    that the earlier ones span, or None.

    The generators, least significant first, are frac(x^k * v) for the
    one vector v and k = 0..reach (the alpha form), or the vectors
    themselves (reach 0).  Generator m counts as spanned when it lies in
    the F_q-span of generators 0..m-1 on the tail coefficients that all
    of them know: a truncated coordinate is read down to the highest
    floor among them, an exact one down to the degree of its common
    denominator, which separates all combinations of exact tails.  A
    spanned generator m is exactly a combination with top digit m that
    has no known nonzero coefficient.  Generators that share a window
    are decided by one row echelon form of their pattern rows, inserted
    in order: generator m is spanned when its row reduces to zero
    against rows 0..m-1.  Each tail is read once, as deep as any window
    needs.
    """
    d = len(vecs[0])
    trunc = [
        [y.floor if isinstance(y, LaurentSeries) and not y.exact else None for y in v]
        for v in vecs
    ]
    dens = [
        _common_den(field, [v[i] for v, fl in zip(vecs, trunc) if fl[i] is None]).degree
        for i in range(d)
    ]

    def window(m):
        shift = min(m, reach)
        out = []
        for i in range(d):
            fs = [fl[i] for fl in trunc[:m + 1] if fl[i] is not None]
            out.append(max(-(max(fs) + shift), 0) if fs else dens[i])
        return tuple(out)

    # (depths, the generators that share them)
    windows = [
        (depths, list(run)) for depths, run in groupby(range(len(vecs) + reach), key=window)
    ]
    need = [max(depths[i] + min(run[-1], reach) for depths, run in windows) for i in range(d)]
    tails = [[_known_tail(y, dep)[0] for y, dep in zip(v, need)] for v in vecs]
    for depths, run in windows:
        hi = run[-1]
        rows = _pattern_rows(tails[:hi + 1], min(hi, reach), depths)
        independent = _echelon_fq(field, rows)[1]
        spanned = [m for m in run if m not in independent]
        if spanned:
            return spanned[0]
    return None


def from_lattice(lat: Lattice) -> PeriodicLattice:
    """The lattice itself as a periodic lattice with trivial cosets."""
    return PeriodicLattice(lat, [])


# --- tail patterns -----------------------------------------------------------


def _pattern_rows(tails, reach: int, depths):
    """Tail pattern rows of the generators frac(x^k * v), k = 0..reach,
    for each vector v in turn, sliced from its coordinates' tails read
    at least depths[i] + reach deep: row k reads the coefficients
    x^-(t+k) of each coordinate v_i, t = 1..depths[i] (the stacked
    Hankel matrices transposed), so no series is multiplied."""
    return [
        [c for tail, dep in zip(row, depths) for c in tail[k:k + dep]]
        for row in tails
        for k in range(reach + 1)
    ]


def hankel(alpha, m: int, n: int):
    """m x n Hankel matrix: entry (i,j) is the coefficient of
    x^-(i+j-1) in the fractional part of alpha (1-indexed).  Stacked
    per coordinate, the Hankel matrices of alpha's coordinates are the
    alpha form's pattern matrix transposed: the coefficient of x^-t in
    frac(x^k y) is that of x^-(t+k) in y."""
    if m <= 0 or n <= 0:
        return []
    if not isinstance(alpha, (Rat, LaurentSeries)):
        raise TypeError(f"unsupported tail type {type(alpha).__name__}")
    tail = _tail_pattern(alpha.frac_part(), m + n - 1)
    return [list(tail[i:i + n]) for i in range(m)]


def _cut(S: PeriodicLattice, vecs, depth: int) -> InsufficientPrecision:
    """The refusal of a pattern that reads the generators to depth: it
    names the floor -(depth + S.reach) that reading needs, as a floor for
    the instance's own coordinates (see _instance_floor)."""
    floor = -(depth + S.reach)
    return InsufficientPrecision(
        f"tail pattern needs coefficients down to x^{floor}",
        needed_floor=_instance_floor(S, vecs, floor),
    )


def _instance_floor(S: PeriodicLattice, vecs, floor: int) -> int:
    """A floor for vectors computed from the instance's coordinates, as a
    floor for those coordinates: moved down by as much as the computation
    raised the highest truncation floor (the change to the rb frame, and
    the shift k of frac(x^k * v))."""
    loss = max(_truncated_floors(vecs)) - max(_truncated_floors(S.vecs), default=0)
    return floor - max(loss, 0)


def _weight_echelon(S: PeriodicLattice, rb: ReducedBasis, stop: int = None):
    """The generators' pattern matrix in row echelon form, its columns in
    descending weight: (pivots, rest, cut).

    Row k is generator k, least significant first, then its digit
    vector; column (i, t) holds the coefficients of x^-t of coordinate i
    and has weight e_i - t.  A pivot row is zero before its pivot, so it
    is a point of norm exactly q^(the pivot's weight); pivots lists
    (weight, digits) as found.  With stop, only the columns of weight >
    stop are read, and rest, the digit vectors of the rows left without
    a pivot, spans the points of norm <= q^stop.  Without it, reading
    goes on until every row has a pivot: an exact coordinate needs depth
    deg L_i (L_i the lcm of its denominators), a truncated one is read
    to one past its floor.

    A coefficient below a floor reads as 0, and a row knows a column
    when all generators in its digits do.  A row without a pivot that
    meets a column it does not know is a point whose norm no known
    coefficient decides: the elimination stops there, and cut is
    (the column's weight, the InsufficientPrecision to raise); pivots
    then holds those of the columns before it, and is exact.  Otherwise
    cut is None.  Rows keep their order and pivots are only subtracted
    from later rows, so an alpha row knows what its most significant
    generator knows; within one weight the columns more generators know
    come first.
    """
    field, n, reach = S.field, S.period_size, S.reach
    if not n:
        return [], [], None
    vecs = _coords(S, rb)[::-1]
    # generator k is frac(x^shift * vecs[v]): (v, shift)
    gens = [(v, shift) for v in range(len(vecs)) for shift in range(reach + 1)]
    depths = []
    for i, e in enumerate(rb.exps):
        ys = [v[i] for v in vecs]
        cuts = [max(-y.floor, 0) for y in ys if isinstance(y, LaurentSeries) and not y.exact]
        exact = [y for y in ys if not isinstance(y, LaurentSeries) or y.exact]
        dep = max(_common_den(field, exact).degree, max(cuts, default=-1) + 1)
        depths.append(dep if stop is None else max(min(dep, e - 1 - stop), 0))
    tails = [[_known_tail(y, dep + reach) for y, dep in zip(v, depths)] for v in vecs]
    # (weight, the generators that do not know the column as a bit mask,
    # t, the column's entries)
    cols = []
    for i, dep in enumerate(depths):
        for t in range(1, dep + 1):
            entries, unknown = [], 0
            for k, (v, shift) in enumerate(gens):
                tail, known = tails[v][i]
                entries.append(tail[t + shift - 1])
                if known is not None and t + shift > known:
                    unknown |= 1 << k
            cols.append((rb.exps[i] - t, unknown, t, entries))
    cols.sort(key=lambda c: (-c[0], c[1].bit_count()))
    m = len(cols)
    rows = [[c[3][k] for c in cols] + [int(j == k) for j in range(n)] for k in range(n)]
    support = [1 << k for k in range(n)]
    free = list(range(n))
    pivots = []
    for j, (weight, unknown, t, _entries) in enumerate(cols):
        if not free:
            break
        if any(support[r] & unknown for r in free):
            if stop is not None:
                t = max(max(e - 1 - stop, 0) for e in rb.exps)
            return pivots, None, (weight, _cut(S, vecs, t))
        p = next((r for r in free if rows[r][j]), None)
        if p is None:
            continue
        free.remove(p)
        pivot = field.scale_coeffs(rows[p], field.inv(rows[p][j]))
        for r in free:
            if rows[r][j]:
                minus = field.scale_coeffs(pivot, field.neg(rows[r][j]))
                rows[r] = field.add_coeffs(rows[r], minus)
                support[r] |= support[p]
        pivots.append((weight, pivot[m:]))
    return pivots, [rows[r][m:] for r in free], None


def _combination(S: PeriodicLattice, rb: ReducedBasis, digits):
    """sum_k digits[k] * g_k over the generators, least significant
    first: one fundamental-domain point, in the rb frame.  The digits of
    the generators of one vector v form a polynomial Q, and their part is
    frac(Q * v); for alpha that is the whole point.  A constant Q only
    scales v, which stays fractional."""
    r = S.reach + 1
    point = None
    for j, v in enumerate(reversed(_coords(S, rb))):
        block = digits[j * r:(j + 1) * r]
        if not any(block):
            continue
        if any(block[1:]):
            Q = Poly(S.field, block)
            term = [y.mul_poly(Q).frac_part() for y in v]
        else:
            term = [y.scale(block[0]) for y in v]
        point = term if point is None else [p + t for p, t in zip(point, term)]
    return point


# --- geometric invariants ---------------------------------------------------


def _unit_coords(field: GF, d: int, i: int):
    one = Rat.from_poly(Poly.one(field))
    zero = Rat.from_poly(Poly.zero(field))
    return [one if j == i else zero for j in range(d)]


def _rank_would_increase(chosen, cand, d: int):
    """Does cand leave the K_inf-span of chosen columns?  True, False,
    or, when truncated minors cannot tell, the InsufficientPrecision
    to raise if it stays undecided."""
    cols = chosen + [cand]
    k = len(cols)
    if not any(_is_series(col) for col in cols):
        rows = [[cols[j][i] for j in range(k)] for i in range(d)]
        return rank_rational(rows) == k
    # the unit columns are Rat polynomials in every instance
    cols = [col if _is_series(col) else _as_series(col, 0) for col in cols]
    undecided_floor = None
    for rows in combinations(range(d), k):
        det = det_series([[cols[j][i] for j in range(k)] for i in rows])
        if det.coeffs:
            return True
        if not det.exact and (undecided_floor is None or det.floor > undecided_floor):
            undecided_floor = det.floor
    if undecided_floor is None:
        return False
    return InsufficientPrecision(
        "linear independence undecidable at the stored precision",
        needed_floor=undecided_floor - 1,
    )


def succ_minima_periodic(S: PeriodicLattice, C: ConvexBody = None):
    """Successive minima exponents of S for C, with witness vectors.

    By the ultrametric splitting of f + w into its fractional and
    lattice parts, the points of norm <= q^s span the same K_inf-space
    as the pivot points of weight <= s (see _weight_echelon) and the
    reduced basis vectors of norm <= q^s.  So these at most
    period_size + d candidates, greedy by ascending norm, keeping those
    that enlarge the span, give the minima.  The pick order within one
    norm does not change the minima, so a candidate whose independence a
    truncated minor cannot decide is retried once the rest of its norm
    level is picked, and only one still undecided then, with fewer than
    d picked, raises.
    """
    if C is None:
        C = S.base_body()
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    pivots, _rest, cut = _weight_echelon(S, rb)
    if cut:
        raise cut[1]
    cands = [(w, 0, idx, digits) for idx, (w, digits) in enumerate(pivots)]
    cands += [(e, 1, i, None) for i, e in enumerate(rb.exps)]
    cands.sort(key=lambda t: t[:3])
    exps = []
    chosen = []
    witnesses = []
    for norm, level in groupby(cands, key=lambda t: t[0]):
        if len(chosen) == S.d:
            break
        pending = [
            _unit_coords(field, S.d, i) if digits is None else _combination(S, rb, digits)
            for _w, _kind, i, digits in level
        ]
        while pending and len(chosen) < S.d:
            undecided = []
            for coords in pending:
                if len(chosen) == S.d:
                    break
                verdict = _rank_would_increase(chosen, coords, S.d)
                if verdict is True:
                    chosen.append(coords)
                    exps.append(norm)
                    witnesses.append(rb.ambient_from_coords(coords))
                elif verdict is not False:
                    undecided.append(coords)
            if len(undecided) == len(pending) and len(chosen) < S.d:
                raise verdict
            pending = undecided
    if len(exps) != S.d:
        raise UndefinedValue("could not find d independent points")
    return exps, witnesses


def packing_radius(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Largest r with disjoint rC-translates around S: q^(e_1 - 1)."""
    exps, _w = succ_minima_periodic(S, C)
    return QExp(exps[0] - 1)


def packing_density(S: PeriodicLattice, C: ConvexBody = None) -> Fraction:
    """Density of the packing by packing-radius copies of C."""
    if C is None:
        C = S.base_body()
    exps, _w = succ_minima_periodic(S, C)
    e1 = exps[0]
    exp = S.period_size + S.d * e1 + C.log_volume.exp - S.lattice.log_det
    return qpow_fraction(S.field.q, exp)


def count_points(S: PeriodicLattice, C: ConvexBody = None, radius: int = None) -> int:
    """|C intersect S| (or a sup-norm ball of radius q^radius).

    Splitting across the fundamental domain: a point f + w lies in C
    iff both parts do, and the lattice part count factors through the
    reduced basis as prod_i q^max(1 - e_i, 0).  The fractional parts of
    norm <= 1 are the span of the rows that the columns of weight > 0
    leave without a pivot (see _weight_echelon), q^(period_size - r) of
    them for r pivots.  On truncated input that elimination refuses
    only where a point's norm is undecided, naming the floor at which
    every one of those columns is known.
    """
    if radius is not None:
        if C is not None:
            raise ValueError("give either a body or a radius, not both")
        C = ConvexBody.ball(S.field, S.d, radius)
    elif C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    pivots, _rest, cut = _weight_echelon(S, rb, 0)
    if cut:
        raise cut[1]
    total = S.field.q ** (S.period_size - len(pivots))
    for e in rb.exps:
        total *= S.field.q ** max(1 - e, 0)
    return total


def covrad_periodic(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Covering radius of S for C: q^w for the largest w with
    c(w) > p(w).  S covers every point of K_inf^d closer than q^w iff
    its fundamental-domain points realize every tail pattern on the
    c(w) = sum_i max(e_i - w, 0) columns of weight >= w, that is (the
    patterns being F_q-linear) iff those columns take p(w) = c(w)
    pivots in _weight_echelon.

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


@dataclass
class MinkowskiReport:
    status: str                # "point" | "inapplicable" | "no_point"
    measure_exp: int           # log_q m(C + fundamental-domain points)
    threshold_exp: int         # log_q (det(Lambda) / q^(period_size + d))
    classes_log: int
    point: list = None
    point_norm: QExp = None
    point_source: str = None

    def as_dict(self):
        return {
            "status": self.status,
            "measure_exp": self.measure_exp,
            "threshold_exp": self.threshold_exp,
            "classes_log": self.classes_log,
            "point_source": self.point_source,
        }


def minkowski_search(S: PeriodicLattice, C: ConvexBody = None) -> MinkowskiReport:
    """Exact convex-body test: measure the thickened body and search.

    m(C + D cap S) = m(C) * #classes of fundamental-domain points
    modulo the group C.  A class is a coefficient pattern at depth
    max(e_i - 1, 0) per coordinate; the pattern is F_q-linear in the
    point, so the classes number q^r, r the pivots that the columns of
    weight > 0 take (see _weight_echelon).  When the measure exceeds
    det(Lambda)/q^(period_size + d), search for a nonzero point of S in
    C: the first nonzero fundamental-domain point of norm <= 1 in
    counting order, else the first reduced vector.  That point has the
    least significant top digit among the rows left without a pivot:
    the last one once their digit vectors are in reduced echelon form,
    most significant digit first.  The search is exhaustive by the
    ultrametric splitting, so a no_point outcome is a certified
    counterexample to the measure hypothesis guaranteeing a point.
    """
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    pivots, rest, cut = _weight_echelon(S, rb, 0)
    if cut:
        raise cut[1]
    classes_log = len(pivots)
    measure_exp = C.log_volume.exp + classes_log
    threshold_exp = S.lattice.log_det - S.period_size - S.d
    if not measure_exp > threshold_exp:
        return MinkowskiReport("inapplicable", measure_exp, threshold_exp, classes_log)
    if rest:
        m, _pivots = _rref_fq(S.field, [digits[::-1] for digits in rest])
        coords = _combination(S, rb, m[-1][::-1])
        rep = MinkowskiReport("point", measure_exp, threshold_exp, classes_log)
        rep.point = rb.ambient_from_coords(coords)
        try:
            rep.point_norm = _frac_norm(rb.exps, coords)
        except InsufficientPrecision as e:
            e.needed_floor = _instance_floor(S, [coords], e.needed_floor)
            raise
        rep.point_source = "fractional"
        return rep
    if rb.exps[0] <= 0:
        coords = _unit_coords(S.field, S.d, 0)
        rep = MinkowskiReport("point", measure_exp, threshold_exp, classes_log)
        rep.point = rb.ambient_from_coords(coords)
        rep.point_norm = QExp(rb.exps[0])
        rep.point_source = "basis"
        return rep
    return MinkowskiReport("no_point", measure_exp, threshold_exp, classes_log)


def d_invariant(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Smallest nonzero |det| over square systems of representative
    fractional coordinates; brute force over k, index subsets and
    k-subsets of the polynomials of degree <= N, for d <= _DINV_MAX_D
    and N <= _DINV_MAX_N, and at most _DINV_MAX_DETS determinants."""
    if S.N is None:
        raise TypeError("d_invariant requires an alpha-form periodic lattice")
    if C is None:
        C = S.base_body()
    if S.d > _DINV_MAX_D or S.N > _DINV_MAX_N:
        raise CapExceeded(
            f"d_invariant brute force is limited to d <= {_DINV_MAX_D}, N <= {_DINV_MAX_N}"
        )
    polys = S.field.q ** (S.N + 1) - 1
    dets = sum(comb(S.d, k) * comb(polys, k) for k in range(1, S.d + 1))
    if dets > _DINV_MAX_DETS:
        raise CapExceeded(
            f"d_invariant brute force would compute {dets} determinants, "
            f"more than {_DINV_MAX_DETS}"
        )
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    phi = _coords(S, rb)[0]
    series = _is_series(phi)
    det = det_series if series else det_rat
    qs = [Poly(field, c) for c in product(range(field.q), repeat=S.N + 1) if any(c)]
    best = None
    undecided = False
    for k in range(1, S.d + 1):
        for subset in combinations(range(S.d), k):
            cols = [phi[j] for j in subset]
            for qtuple in combinations(qs, k):
                minor = det([[y.mul_poly(Q).frac_part() for y in cols] for Q in qtuple])
                if series and not minor.coeffs and not minor.exact:
                    undecided = True
                    continue
                v = minor.val()
                if v.is_zero:
                    continue
                if best is None or v < best:
                    best = v
    if best is None:
        if undecided:
            raise InsufficientPrecision(
                "all candidate determinants are undecided at the stored floor"
            )
        raise UndefinedValue("no nonzero determinant at any order")
    if undecided:
        # an undecided determinant might be nonzero and smaller
        raise InsufficientPrecision(
            "a candidate determinant is undecided at the stored floor; "
            f"certified minimum so far is q^{best.exp}"
        )
    return best


@dataclass
class BoundsReport:
    exps: list
    logdet: int
    logm: int
    period_size: int
    bnd_first_lhs: int
    bnd_rhs: int
    bnd_first_ok: bool
    bnd_prod_lhs: int
    bnd_prod_ok: bool
    sandwich_checked: bool = False
    dinv_exp: int = None
    sandwich_lower_ok: bool = None
    sandwich_upper_ok: bool = None

    @property
    def passed(self) -> bool:
        ok = self.bnd_first_ok and self.bnd_prod_ok
        if self.sandwich_checked:
            ok = ok and self.sandwich_lower_ok and self.sandwich_upper_ok
        return ok

    def as_dict(self):
        out = {
            "exps": list(self.exps),
            "logdet": self.logdet,
            "logm": self.logm,
            "period_size": self.period_size,
            "first_minimum_bound": {
                "lhs_exp": self.bnd_first_lhs,
                "rhs_exp": self.bnd_rhs,
                "ok": self.bnd_first_ok,
            },
            "product_bound": {
                "lhs_exp": self.bnd_prod_lhs,
                "rhs_exp": self.bnd_rhs,
                "ok": self.bnd_prod_ok,
            },
            "sandwich_checked": self.sandwich_checked,
        }
        if self.sandwich_checked:
            out["sandwich"] = {
                "dinv_exp": self.dinv_exp,
                "lower_ok": self.sandwich_lower_ok,
                "upper_ok": self.sandwich_upper_ok,
            }
        return out


def check_bounds(S: PeriodicLattice, C: ConvexBody = None) -> BoundsReport:
    """Evaluate the minima bounds, and when the hypothesis is certified
    (rational fractional coordinates with denominator degree > N in the
    frame of C) also the two-sided product sandwich."""
    if C is None:
        C = S.base_body()
    exps, _w = succ_minima_periodic(S, C)
    logdet = S.lattice.log_det
    logm = C.log_volume.exp
    rhs = logdet - logm - S.period_size
    first_lhs = S.d * exps[0]
    prod_lhs = sum(exps)
    report = BoundsReport(
        exps=exps,
        logdet=logdet,
        logm=logm,
        period_size=S.period_size,
        bnd_first_lhs=first_lhs,
        bnd_rhs=rhs,
        bnd_first_ok=first_lhs <= rhs,
        bnd_prod_lhs=prod_lhs,
        bnd_prod_ok=prod_lhs <= rhs,
    )
    if S.reach == S.N:  # alpha, certified N-irrational
        rb = reduce_lattice(S.lattice, C)
        phi = _coords(S, rb)[0]
        if not _is_series(phi) and all(y.den.degree > S.N for y in phi):
            dinv = d_invariant(S, C)
            report.sandwich_checked = True
            report.dinv_exp = dinv.exp
            report.sandwich_lower_ok = dinv.exp + logdet - logm <= prod_lhs
            report.sandwich_upper_ok = prod_lhs <= logdet - (S.N + 1) - logm
    return report

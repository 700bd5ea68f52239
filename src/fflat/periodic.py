"""Periodic lattices: finitely many cosets of a lattice forming an
F_q-subspace of K_inf^d, one representation (PeriodicLattice) for
Lambda(alpha, q^N) and for listed coset representatives; only their
constructors differ.

All fractional data lives in reduced-basis coordinates.  The canonical
frame is the reduced basis for the unit (sup-norm) body O^d, which
reduce_lattice picks when no body is given: every invariant passes its
C, None included, straight to it and reads the body off rb.body.
Operations taking a different body convert coordinates
(ReducedBasis.from_canonical) and reduce into that body's fundamental
domain, which does not change the point set modulo Lambda.  A ball
x^R O^d needs no reduction of its own: its reduction is the unit
body's with every exponent lowered by R, so count reads the unit
body's with R as its stop.

The coordinates of one periodic lattice share one arithmetic backend,
chosen at construction (_lift): Rat when no input coordinate is a
series, LaurentSeries for all of them when one is.  Frame changes,
norms and tails of both backends live in lattice.py, and the minor
table (exactlinalg._minor_table) takes either, so d_invariant does not
branch on the backend.  The minima's independence test grows one table
of the picked points by a level per candidate; an exact point enters
it with each column scaled to a polynomial (see _minima), so the table
takes no gcd, and a series point as it is.

The fundamental-domain points form the F_q-span of the n = period_size
independent generators.  Their tail coefficients are F_q-linear in the
point, and no invariant lists the q^n points.  The coefficient of x^-t
in coordinate i has weight e_i - t, and a point's norm is q^(the
largest weight of a nonzero coefficient).  So one elimination of the
generators' pattern matrix with its columns in descending weight
(_weight_echelon, by exactlinalg._column_echelon, the one F_q
elimination) gives a basis of pivot points of known norm, and the
points of norm <= q^s are the span of the pivots of weight <= s.  Read
down to weight 1 it gives count and the mink-search point; read until
every generator has a pivot it gives the candidates of the successive
minima, and with them the packing radius and density; read down to the
lowest weight at which there are at most n columns of that weight or
more it gives the covering radius (covrad_periodic), from how many
pivots those columns take.  The same columns, ordered instead by the
first generator that does not know them, give the construction
certificate (_first_spanned) by the same elimination: N-irrationality
of truncated alpha and independence of the coset representatives both
say that no generator lies in the span of the earlier ones on the
coefficients they all know, and the pivot each generator takes decides
it.  Exact alpha keeps the closed form of that rank, the degree of
its denominators' lcm.  So nothing here enumerates points, and no size
cap is needed.  d_invariant reads its fixed Cauchy-Binet minors off
one minor table per column set, eliminates them the same way, and
keeps one cap, N <= 2, up to which every F_q-combination is a minor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby, repeat

from .errors import CapExceeded, InsufficientPrecision, NRational, UndefinedValue
from .exactlinalg import _column_echelon, _common_den, _minor_table
from .ffcore import (
    GF,
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
    _frac_norm,
    _is_series,
    _known_tail,
    _lift,
    reduce_lattice,
)

# d_invariant's one cap (see there)
_DINV_MAX_N = 2


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


# --- coordinates -------------------------------------------------------------


def _coords(S: PeriodicLattice, rb: ReducedBasis):
    """S.vecs in the rb frame, in their order; kept per body object."""
    hit = S._coord_cache.get(rb.body)
    if hit is None:
        hit = [rb.from_canonical(v) for v in S.vecs]
        S._coord_cache[rb.body] = hit
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
        coords = reduce_lattice(lat).coords_from_ambient(coords)
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
    return [f for v in vecs for y in v if (f := y.eff_floor()) is not None]


def _first_spanned(field: GF, vecs, reach: int):
    """The construction certificate: the index of the first generator
    that the earlier ones span, or None.

    The generators, least significant first, are frac(x^k * v) for the
    one vector v and k = 0..reach (the alpha form), or the vectors
    themselves (reach 0).  Generator m counts as spanned when it lies in
    the F_q-span of generators 0..m-1 on the tail coefficients that all
    of them know (see _pattern_columns).  A spanned generator m is
    exactly a combination with top digit m that has no known nonzero
    coefficient.  With the columns ordered by the first generator that
    does not know them, that generator last, those that generators 0..m
    all know are a prefix; those generator 0 does not know are in none.
    One column echelon of the rows decides every m: row m's pivot is the
    first column on which it leaves the span of rows 0..m-1, so generator
    m is spanned iff its row has no pivot inside the prefix.
    """
    n = len(vecs) * (reach + 1)
    cols = [c for c in _pattern_columns(vecs, reach, _pattern_depths(field, vecs)) if not c[2] & 1]
    # the first generator that does not know a column is its mask's lowest bit
    cols.sort(key=lambda c: c[2] & -c[2] or 1 << n, reverse=True)
    # with no columns there are no rows either, and generator 0 is spanned
    rows = list(zip(*(c[3] for c in cols)))
    independent = {r: j for j, r, _row in _column_echelon(field, rows, len(cols))[0]}
    for m in range(n):
        j = independent.get(m)
        # the pivot is inside the prefix iff generators 0..m all know it
        if j is None or cols[j][2] & ((2 << m) - 1):
            return m
    return None


def from_lattice(lat: Lattice) -> PeriodicLattice:
    """The lattice itself as a periodic lattice with trivial cosets."""
    return PeriodicLattice(lat, [])


# --- tail patterns -----------------------------------------------------------


def _pattern_depths(field: GF, vecs, clip=None):
    """How deep the pattern matrix reads each coordinate: to deg L_i,
    L_i the lcm of its exact denominators, which separates all
    combinations of exact tails, and to one past its truncated floors;
    with clip, at most clip[i], and 0 without an lcm where clip[i] <= 0."""
    depths = []
    for i in range(len(vecs[0])):
        if clip is not None and clip[i] <= 0:
            depths.append(0)
            continue
        ys = [v[i] for v in vecs]
        cuts = [max(-f, 0) for y in ys if (f := y.eff_floor()) is not None]
        exact = [y for y in ys if y.eff_floor() is None]
        dep = max(_common_den(field, exact).degree, max(cuts, default=-1) + 1)
        depths.append(dep if clip is None else min(dep, clip[i]))
    return depths


def _pattern_columns(vecs, reach: int, depths):
    """The pattern matrix of the generators frac(x^k * v), k = 0..reach,
    for each v in vecs in turn, by columns: (i, t, the generators that
    do not know it as a bit mask, its entries) for the coefficient of
    x^-t of coordinate i, t = 1..depths[i].  That of frac(x^k y) is the
    coefficient of x^-(t+k) of y (the stacked Hankel matrices
    transposed), so no series is multiplied.  A truncated y knows those
    above its floor, and the others read as 0."""
    gens = [(v, shift) for v in range(len(vecs)) for shift in range(reach + 1)]
    cols = []
    for i, dep in enumerate(depths):
        if not dep:
            continue
        tails = [_known_tail(v[i], dep + reach) for v in vecs]
        rows = [tails[v][0][shift:shift + dep] for v, shift in gens]
        unknown = [0] * dep
        for k, (v, shift) in enumerate(gens):
            known = tails[v][1]
            if known is not None:
                # generator k does not know the columns t > known - shift
                for j in range(max(known - shift, 0), dep):
                    unknown[j] |= 1 << k
        cols += zip(repeat(i), range(1, dep + 1), unknown, zip(*rows))
    return cols


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
    """_echelon_by_weight on the generators in the rb frame, least
    significant first; cut's refusal names a floor of the instance (_cut)."""
    vecs = _coords(S, rb)[::-1]
    pivots, rest, cut = _echelon_by_weight(S.field, vecs, S.reach, rb.exps, stop)
    if cut:
        cut = (cut[0], _cut(S, vecs, cut[1]))
    return pivots, rest, cut


def _echelon_by_weight(field: GF, vecs, reach: int, exps, stop: int = None):
    """The pattern matrix of the generators (_pattern_columns) in row
    echelon form (_column_echelon), its columns in descending weight:
    (pivots, rest, cut).

    Row k is generator k, then its digit vector; column (i, t) has
    weight exps[i] - t.  A pivot row is zero before its pivot, so it is
    a point of norm exactly q^(the pivot's weight); pivots lists
    (weight, digits) as found.  With stop, only the columns of weight
    > stop are read, and rest, the digit vectors of the rows left
    without a pivot, spans the points of norm <= q^stop.  Without it,
    reading goes on until every row has a pivot (_pattern_depths).

    A row knows a column when all generators in its digits do.  A row
    without a pivot that meets a column it does not know is a point
    whose norm no known coefficient decides: the elimination stops
    there, and cut is (the column's weight, the depth to which the
    generators' tails must be known); pivots then holds those of the
    columns before it, and is exact.  Otherwise cut is None.  Rows keep
    their order and pivots are only subtracted from later rows, so an
    alpha row knows what its most significant generator knows; within
    one weight the columns more generators know come first.
    """
    n = len(vecs) * (reach + 1)
    if not n:
        return [], [], None
    clip = None if stop is None else [e - 1 - stop for e in exps]
    cols = _pattern_columns(vecs, reach, _pattern_depths(field, vecs, clip))
    # descending weight exps[i] - t, then fewer generators not knowing it
    cols.sort(key=lambda c: (c[1] - exps[c[0]], c[2].bit_count()))
    m = len(cols)
    rows = [[c[3][k] for c in cols] + [int(j == k) for j in range(n)] for k in range(n)]
    weights = [exps[i] - t for i, t, _unknown, _entries in cols]
    pivots, free, cut = _column_echelon(field, rows, m, [c[2] for c in cols])
    pivots = [(weights[j], row[m:]) for j, _r, row in pivots]
    if cut is not None:
        depth = cols[cut][1] if stop is None else max(max(e - 1 - stop, 0) for e in exps)
        return pivots, None, (weights[cut], depth)
    return pivots, [row[m:] for row in free], None


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


def _independent(minors, taken):
    """Are the unit vectors e_i, i in taken, and the k points K_inf-
    linearly independent, minors the top level of the points' minor
    table ({} for no points)?  True, False, or, when truncated minors
    cannot tell, the InsufficientPrecision to raise if it stays
    undecided.  By Laplace expansion along the unit columns they are iff
    some minor on coordinates outside taken is nonzero; so a unit vector
    never enters the arithmetic, nor does a witness, which only
    succ_minima_periodic builds.  A minor is a Poly (exact points, column
    scaled) or a series, and val() reads either.  An undecided minor
    names the floor its leading term needs, and the highest of those is
    kept."""
    if not minors:
        return True
    floors = []
    for minor in [m for cols, m in minors.items() if taken.isdisjoint(cols)]:
        try:
            if not minor.val().is_zero:
                return True
        except InsufficientPrecision as e:
            floors.append(e.needed_floor)
    if not floors:
        return False
    return InsufficientPrecision(
        "linear independence undecidable at the stored precision",
        needed_floor=max(floors),
    )


def succ_minima_periodic(S: PeriodicLattice, C: ConvexBody = None):
    """Successive minima exponents of S for C, with witness vectors: the
    picks of _minima in the ambient frame.  Only here are witnesses
    built; the closed forms that read just the exponents call _minima."""
    exps, picks = _minima(S, C)
    rb = reduce_lattice(S.lattice, C)
    return exps, [rb.ambient_from_coords(coords) for coords in picks]


def _minima(S: PeriodicLattice, C: ConvexBody = None):
    """Successive minima exponents of S for C, and the coordinates of
    the picked candidates in the rb frame.

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

    An exact point enters the minor table with column i scaled by L_i,
    the lcm of coordinate i's denominators over the generators, which
    the denominator of every point's coordinate i divides: its entries
    are polynomials, and each minor is the unscaled one times the L_i of
    its columns, zero exactly when that is.  Series rows enter as they
    are.
    """
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    pivots, _rest, cut = _weight_echelon(S, rb)
    if cut:
        raise cut[1]
    vecs = _coords(S, rb)
    lcms = None if vecs and _is_series(vecs[0]) else [_common_den(field, ys) for ys in zip(*vecs)]
    cands = [(w, 0, idx, digits) for idx, (w, digits) in enumerate(pivots)]
    cands += [(e, 1, i, None) for i, e in enumerate(rb.exps)]
    cands.sort(key=lambda t: t[:3])
    exps = []
    # the picked points' minor table, one row per point, the newest on top
    table = [{}]
    taken = set()
    picks = []
    for norm, level in groupby(cands, key=lambda t: t[0]):
        if len(exps) == S.d:
            break
        # (the unit vector's index or None for a point, its coordinates)
        pending = [
            (i, _unit_coords(field, S.d, i)) if digits is None
            else (None, _combination(S, rb, digits))
            for _w, _kind, i, digits in level
        ]
        while pending and len(exps) < S.d:
            undecided = []
            for unit, coords in pending:
                if len(exps) == S.d:
                    break
                if unit is None:
                    row = coords if lcms is None else [
                        y.num * (L // y.den) for y, L in zip(coords, lcms)]
                    trial = _minor_table([row], table), taken
                else:
                    trial = table, taken | {unit}
                verdict = _independent(trial[0][-1], trial[1])
                if verdict is True:
                    table, taken = trial
                    exps.append(norm)
                    picks.append(coords)
                elif verdict is not False:
                    undecided.append((unit, coords))
            if len(undecided) == len(pending) and len(exps) < S.d:
                raise verdict
            pending = undecided
    if len(exps) != S.d:
        raise UndefinedValue("could not find d independent points")
    return exps, picks


def packing_radius(S: PeriodicLattice, C: ConvexBody = None) -> QExp:
    """Largest r with disjoint rC-translates around S: q^(e_1 - 1)."""
    exps, _picks = _minima(S, C)
    return QExp(exps[0] - 1)


def packing_density(S: PeriodicLattice, C: ConvexBody = None) -> Fraction:
    """Density of the packing by packing-radius copies of C."""
    exps, _picks = _minima(S, C)
    log_volume = reduce_lattice(S.lattice, C).body.log_volume
    exp = S.period_size + S.d * exps[0] + log_volume.exp - S.lattice.log_det
    return qpow_fraction(S.field.q, exp)


def count_points(S: PeriodicLattice, C: ConvexBody = None, radius: int = None) -> int:
    """|C intersect S|, or with radius R the points of sup norm <= q^R.

    Splitting across the fundamental domain: a point f + w has norm
    <= q^R iff both parts do, and the lattice part count factors
    through the reduced basis as prod_i q^max(R + 1 - e_i, 0).  The
    fractional parts of norm <= q^R are the span of the rows that the
    columns of weight > R leave without a pivot (see _weight_echelon),
    q^(period_size - r) of them for r pivots.  A body is read at R = 0.
    The ball x^R O^d is the unit body scaled: adj(H) G is x^k G, on
    which Popov takes the same steps, so its reduction is the unit
    body's with every e_i lowered by R, and the unit body's is read
    with R as the stop.  On truncated input the elimination refuses
    only where a point's norm is undecided, naming the floor at which
    every one of those columns is known.
    """
    if radius is not None and C is not None:
        raise ValueError("give either a body or a radius, not both")
    R = radius or 0
    rb = reduce_lattice(S.lattice, C)
    pivots, _rest, cut = _weight_echelon(S, rb, R)
    if cut:
        raise cut[1]
    total = S.field.q ** (S.period_size - len(pivots))
    for e in rb.exps:
        total *= S.field.q ** max(R + 1 - e, 0)
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
    rb = reduce_lattice(lat, C)
    e = rb.exps
    d = lat.d
    best = None
    for i in range(1, d + 1):
        cand = Fraction(N + 1 - sum(e[d - i:]), i)
        if best is None or cand > best:
            best = cand
    return (-(1 + best), QExp(e[-1] - 1))


class MinkowskiReport:
    """Outcome of minkowski_search.  status is "point", "inapplicable" or
    "no_point"; measure_exp is log_q m(C + fundamental-domain points) and
    threshold_exp is log_q (det(Lambda) / q^(period_size + d)).  A found
    point sets point, point_norm and point_source."""

    __slots__ = ("status", "measure_exp", "threshold_exp", "classes_log",
                 "point", "point_norm", "point_source")

    def __init__(self, status: str, measure_exp: int, threshold_exp: int, classes_log: int):
        self.status = status
        self.measure_exp = measure_exp
        self.threshold_exp = threshold_exp
        self.classes_log = classes_log
        self.point = None
        self.point_norm = None
        self.point_source = None

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
    the last row of their digit vectors' echelon form, most significant
    digit first.  The search is exhaustive by the ultrametric splitting,
    so a no_point outcome is a certified counterexample to the measure
    hypothesis guaranteeing a point.
    """
    rb = reduce_lattice(S.lattice, C)
    pivots, rest, cut = _weight_echelon(S, rb, 0)
    if cut:
        raise cut[1]
    classes_log = len(pivots)
    measure_exp = rb.body.log_volume.exp + classes_log
    threshold_exp = S.lattice.log_det - S.period_size - S.d
    if not measure_exp > threshold_exp:
        return MinkowskiReport("inapplicable", measure_exp, threshold_exp, classes_log)
    if rest:
        last = _column_echelon(S.field, [digits[::-1] for digits in rest], S.period_size)[0][-1][2]
        coords = _combination(S, rb, last[::-1])
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
    """Smallest nonzero |det(frac(Q_r * phi_j))|, r = 1..k, j in J, over
    k, index k-subsets J and polynomials Q_r of degree <= N.  By
    Cauchy-Binet such a minor is sum_T p_T * mu_T over the k-subsets T
    of 0..N, p_T the Pluecker coordinates of the Q_r and
    mu_T = det(frac(x^m * phi_j)), m in T, the top level of the minor
    table of J's rows frac(x^m * phi_j), m = 0..N.  For N <= _DINV_MAX_N
    every nonzero p is that of some Q_r, so the smallest nonzero minor of
    J is the lowest pivot weight of the mu_T's elimination
    (_echelon_by_weight, each mu_T one coordinate of weight 0); a cut
    leaves one undecided."""
    if S.N is None:
        raise TypeError("d_invariant requires an alpha-form periodic lattice")
    if len(S.vecs) != 1:
        raise UndefinedValue(
            f"d_invariant is defined for one alpha vector; this lattice has {len(S.vecs)}"
        )
    if S.N > _DINV_MAX_N:
        raise CapExceeded(
            f"d_invariant is limited to N <= {_DINV_MAX_N}: past it not every "
            "F_q-combination of the Cauchy-Binet minors is itself a minor"
        )
    phi = _coords(S, reduce_lattice(S.lattice, C))[0]
    # A[j][m] = frac(x^m * phi_j)
    A = [[y.mul_xpow(m).frac_part() for m in range(S.N + 1)] for y in phi]
    weights, undecided = [], False
    for k in range(1, min(S.d, S.N + 1) + 1):
        for J in combinations(range(S.d), k):
            mus = _minor_table([A[j] for j in J])[-1].values()
            pivots, _rest, cut = _echelon_by_weight(S.field, [[mu] for mu in mus], 0, [0])
            undecided = undecided or cut is not None
            weights += [w for w, _digits in pivots]
    if not weights:
        if undecided:
            raise InsufficientPrecision(
                "all candidate determinants are undecided at the stored floor"
            )
        raise UndefinedValue("no nonzero determinant at any order")
    if undecided:
        # an undecided determinant might be nonzero and smaller
        raise InsufficientPrecision(
            "a candidate determinant is undecided at the stored floor; "
            f"certified minimum so far is q^{min(weights)}"
        )
    return QExp(min(weights))


class BoundsReport:
    """The minima bounds of check_bounds: each *_lhs against bnd_rhs, and
    the product sandwich with dinv_exp when sandwich_checked."""

    __slots__ = ("exps", "logdet", "logm", "period_size", "bnd_first_lhs", "bnd_rhs",
                 "bnd_first_ok", "bnd_prod_lhs", "bnd_prod_ok", "sandwich_checked",
                 "dinv_exp", "sandwich_lower_ok", "sandwich_upper_ok")

    def __init__(self, exps: list, logdet: int, logm: int, period_size: int,
                 bnd_first_lhs: int, bnd_rhs: int, bnd_first_ok: bool,
                 bnd_prod_lhs: int, bnd_prod_ok: bool, sandwich_checked: bool = False,
                 dinv_exp: int = None, sandwich_lower_ok: bool = None,
                 sandwich_upper_ok: bool = None):
        self.exps = exps
        self.logdet = logdet
        self.logm = logm
        self.period_size = period_size
        self.bnd_first_lhs = bnd_first_lhs
        self.bnd_rhs = bnd_rhs
        self.bnd_first_ok = bnd_first_ok
        self.bnd_prod_lhs = bnd_prod_lhs
        self.bnd_prod_ok = bnd_prod_ok
        self.sandwich_checked = sandwich_checked
        self.dinv_exp = dinv_exp
        self.sandwich_lower_ok = sandwich_lower_ok
        self.sandwich_upper_ok = sandwich_upper_ok

    @property
    def passed(self) -> bool:
        ok = self.bnd_first_ok and self.bnd_prod_ok
        if self.sandwich_checked:
            ok = ok and self.sandwich_lower_ok and self.sandwich_upper_ok
        return ok


def check_bounds(S: PeriodicLattice, C: ConvexBody = None) -> BoundsReport:
    """Evaluate the minima bounds, and when the hypothesis is certified
    (one alpha vector, its rational fractional coordinates with
    denominator degree > N in the frame of C) also the two-sided product
    sandwich."""
    exps, _picks = _minima(S, C)
    rb = reduce_lattice(S.lattice, C)
    logdet = S.lattice.log_det
    logm = rb.body.log_volume.exp
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
    if S.reach == S.N and len(S.vecs) == 1:  # one alpha, certified N-irrational
        phi = _coords(S, rb)[0]
        if not _is_series(phi) and all(y.den.degree > S.N for y in phi):
            dinv = d_invariant(S, C)
            report.sandwich_checked = True
            report.dinv_exp = dinv.exp
            report.sandwich_lower_ok = dinv.exp + logdet - logm <= prod_lhs
            report.sandwich_upper_ok = prod_lhs <= logdet - (S.N + 1) - logm
    return report

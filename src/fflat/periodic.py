"""Periodic lattices: finitely many cosets of a lattice forming an
F_q-subspace of K_inf^d.

Two construction forms.  AlphaForm is the bounded-denominator family
built from a direction vector alpha and a degree bound N: the union of
Q*alpha + Lambda over polynomials Q with deg Q <= N.  CosetForm lists
fractional coset representatives directly.

All fractional data lives in reduced-basis coordinates.  The canonical
frame is the reduced basis for the sup-norm body; operations taking a
different body convert coordinates by exact linear algebra and reduce
into that body's fundamental domain, which does not change the point
set modulo Lambda.

The coordinates of one periodic lattice share one arithmetic backend,
chosen at construction (_lift): Rat when no input coordinate is a
series, LaurentSeries for all of them when one is.

The fundamental-domain points form the F_q-span of n = period_size
independent generators (_generators): frac(x^k * alpha) for 0 <= k < n,
or the coset representatives.  fractional_points lists them by walking
that span (_span), one addition per point and coordinate; the
successive minima, packing radius and density read that list.  With
Rat coordinates a point is a vector of numerators over one denominator
per coordinate (the lcm over the generators), its norm is read off the
degrees, and its reduced Rat coordinates are built only when a caller
reads them.

Tail patterns are F_q-linear in the point, so the rank of the
generators' pattern matrix (_pattern_matrix) counts the patterns of
all points: the Minkowski classes and the covering radius levels.  A
point has norm <= 1 iff its pattern at depths max(e_i - 1, 0) vanishes,
so one elimination of that matrix gives both the count and the
mink-search point (_norm_one_kernel); neither lists the points, except
that count falls back to the list where truncation hides a pattern
coefficient.  The same patterns are the construction certificate
(_first_spanned):
N-irrationality of truncated alpha and independence of the coset
representatives both say that no generator lies in the span of the
earlier ones on the coefficients they all know.  Exact alpha keeps the
closed form of that rank, the degree of its denominators' lcm.  So
construction enumerates no point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

from .errors import (
    CapExceeded,
    InsufficientPrecision,
    NRational,
    UndefinedValue,
)
from .exactlinalg import (
    _clear_denominators,
    _rref_fq,
    det_rat,
    det_series,
    rank_rational,
)
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QEXP_ZERO,
    QExp,
    Rat,
    expand_rational,
    format_poly,
    parse_element,
    poly_lcm,
    qpow_fraction,
)
from .lattice import ConvexBody, Lattice, ReducedBasis, reduce_lattice

# the alpha form refuses more than this many fundamental-domain points
_ORBIT_CAP = 1 << 20


# --- forms and the periodic lattice type ----------------------------------


class AlphaForm:
    """S = union of Q*alpha + Lambda over deg Q <= N.

    phi holds the fractional reduced-basis coordinates of alpha in the
    canonical (sup-norm) frame.  irr_verified records whether the
    N-irrationality certificate was produced at construction.
    """

    __slots__ = ("phi", "N", "irr_verified")

    def __init__(self, phi, N: int, irr_verified: bool):
        self.phi = phi
        self.N = N
        self.irr_verified = irr_verified


class CosetForm:
    """S = Lambda + F_q-span of the listed fractional representatives."""

    __slots__ = ("reps",)

    def __init__(self, reps):
        self.reps = reps


class PeriodicLattice:
    __slots__ = ("lattice", "form", "period_size", "_coord_cache", "_points_cache")

    def __init__(self, lattice: Lattice, form, period_size: int):
        self.lattice = lattice
        self.form = form
        self.period_size = period_size
        self._coord_cache = {}
        self._points_cache = {}

    @property
    def field(self) -> GF:
        return self.lattice.field

    @property
    def d(self) -> int:
        return self.lattice.d

    def base_body(self) -> ConvexBody:
        return ConvexBody.identity(self.field, self.d)


# --- coordinate plumbing ---------------------------------------------------


def _poly_range(field: GF, N: int):
    """All polynomials of degree <= N, ascending base-q counting order:
    the coefficients of the n-th, lowest degree first, are the base-q
    digits of n, least significant first."""
    for n in range(field.q ** (N + 1)):
        coeffs = []
        while n:
            n, c = divmod(n, field.q)
            coeffs.append(c)
        yield Poly(field, coeffs)


def _is_series(coords) -> bool:
    """The backend of one coordinate vector; every vector of an instance
    shares it, except the polynomial unit vectors, which stay Rat."""
    return isinstance(coords[0], LaurentSeries)


def _lift(vals, d: int):
    """One arithmetic backend for a set of coordinates: all Rat when none
    is a series, else all series (see _as_series)."""
    if not any(isinstance(v, LaurentSeries) for v in vals):
        return list(vals)
    return _as_series(vals, d)


def _as_series(vals, d: int):
    """Series and Rat coordinates as series: a polynomial exactly, any
    other rational expanded 4d + 8 + D exponents below the lowest
    truncated floor (or below x^0), D the largest denominator degree
    among the rationals, so that the expansion is not what limits the
    precision of what is computed from it."""
    floors = [v.floor for v in vals if isinstance(v, LaurentSeries) and not v.exact]
    dens = [v.den.degree for v in vals if isinstance(v, Rat)]
    deep = (min(floors) if floors else 0) - 4 * d - 8 - max(dens, default=0)
    return [
        v if isinstance(v, LaurentSeries)
        else LaurentSeries.from_poly(v.num) if v.den.degree == 0
        else expand_rational(v, deep)
        for v in vals
    ]


def _frac_norm(exps, coords) -> QExp:
    """max_i |y_i| q^(e_i) with sound truncation handling."""
    if not _is_series(coords):
        norms = [y.val().exp + e for e, y in zip(exps, coords) if not y.is_zero]
        return QExp(max(norms)) if norms else QEXP_ZERO
    best = None
    pending = []
    for e_i, y in zip(exps, coords):
        if y.coeffs:
            c = y.top + e_i
            if best is None or c > best:
                best = c
        elif not y.exact:
            pending.append((y.floor - 1) + e_i)
    if best is not None and all(best >= b for b in pending):
        return QExp(best)
    if not pending:
        return QEXP_ZERO
    raise InsufficientPrecision(
        "coordinate norm undecidable at the stored precision floor",
        needed_floor=min(b - max(exps) for b in pending) - 1,
    )


def _tail_pattern(y, depth: int):
    """Coefficients of x^-1 .. x^-depth of the fractional part of y."""
    if depth <= 0:
        return ()
    if isinstance(y, LaurentSeries):
        if not y.exact and y.eff_floor() > -depth:
            raise InsufficientPrecision(
                f"pattern needs coefficients down to x^-{depth}",
                needed_floor=-depth,
            )
        s = y
    else:
        s = expand_rational(y, -depth)
    return tuple(s.coeff_exp(-t) for t in range(1, depth + 1))


def _from_ambient(rb: ReducedBasis, vec, d: int):
    """Ambient vector -> rb-frame coordinates, same backend."""
    if not _is_series(vec):
        return rb.coords_from_ambient_rat(vec)
    # rows that stay exact come back as Rat
    return _as_series(rb.coords_from_ambient_series(vec), d)


def _convert_coords(S: PeriodicLattice, rb: ReducedBasis, coords):
    """Canonical-frame fractional coords -> rb-frame fractional coords."""
    rb0 = reduce_lattice(S.lattice, S.base_body())
    if rb is rb0 or rb.body.cache_key() == rb0.body.cache_key():
        return list(coords)
    return [y.frac_part() for y in _from_ambient(rb, _ambient_point(rb0, coords), S.d)]


def _ambient_series(rb: ReducedBasis, coords):
    field = rb.lattice.field
    out = []
    for i in range(rb.d):
        acc = LaurentSeries.exact_zero(field)
        for j in range(rb.d):
            acc = acc + coords[j].mul_poly(rb.VP[i][j])
        out.append(acc.mul_xpow(-rb.ashift))
    return out


def _ambient_point(rb: ReducedBasis, coords):
    if _is_series(coords):
        return _ambient_series(rb, coords)
    return rb.ambient_from_coords(coords)


def _alpha_coords(S: PeriodicLattice, rb: ReducedBasis):
    key = ("alpha", rb.body.cache_key())
    hit = S._coord_cache.get(key)
    if hit is None:
        hit = _convert_coords(S, rb, S.form.phi)
        S._coord_cache[key] = hit
    return hit


def _rep_coords(S: PeriodicLattice, rb: ReducedBasis):
    key = ("reps", rb.body.cache_key())
    hit = S._coord_cache.get(key)
    if hit is None:
        hit = [_convert_coords(S, rb, r) for r in S.form.reps]
        S._coord_cache[key] = hit
    return hit


# --- construction ----------------------------------------------------------


def _parse_coords(lat: Lattice, alpha):
    field = lat.field
    vals = []
    for a in alpha:
        if isinstance(a, (Rat, LaurentSeries)):
            vals.append(a)
        elif isinstance(a, Poly):
            vals.append(Rat.from_poly(a))
        elif isinstance(a, int):
            vals.append(Rat.from_poly(Poly.const(field, field.from_int(a))))
        elif isinstance(a, str):
            vals.append(parse_element(field, a))
        else:
            raise TypeError(f"unsupported coordinate type {type(a).__name__}")
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
    if field.q ** (N + 1) > _ORBIT_CAP:
        raise CapExceeded(f"orbit size q^{N + 1} exceeds cap {_ORBIT_CAP}")
    coords = _lift(_parse_coords(lat, alpha), lat.d)
    if frame == "ambient":
        rb0 = reduce_lattice(lat, ConvexBody.identity(field, lat.d))
        coords = _from_ambient(rb0, coords, lat.d)
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
            return PeriodicLattice(lat, AlphaForm(phi, N, irr_verified=False), lcm.degree)
    return PeriodicLattice(lat, AlphaForm(phi, N, irr_verified=True), N + 1)


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
    return PeriodicLattice(lat, CosetForm(parsed), len(parsed))


def _truncated_floors(vecs):
    return [y.floor for v in vecs for y in v if isinstance(y, LaurentSeries) and not y.exact]


def _common_den(field: GF, ys) -> Poly:
    """The lcm of the denominators of exact coordinates, Rats or exact
    series."""
    lcm = Poly.one(field)
    for y in ys:
        lcm = poly_lcm(lcm, (y.to_rat() if isinstance(y, LaurentSeries) else y).den)
    return lcm


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
    are decided by one elimination: with the generators as columns, the
    pivot columns are those that the earlier columns do not span.
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

    for depths, run in groupby(range(len(vecs) + reach), key=window):
        run = list(run)
        hi = run[-1]
        rows = _patterns(vecs[:hi + 1], min(hi, reach), depths)
        pivots = _rref_fq(field, list(zip(*rows)))[1]
        spanned = [m for m in run if m not in pivots]
        if spanned:
            return spanned[0]
    return None


def from_lattice(lat: Lattice) -> PeriodicLattice:
    """The lattice itself as a periodic lattice with trivial cosets."""
    return PeriodicLattice(lat, CosetForm([]), 0)


# --- fractional point sets --------------------------------------------------


def _x_multiples(phi, n: int):
    """frac(x^k * phi) for k = n - 1 .. 0: the alpha form's generators,
    the coefficient of x^(n - 1) of Q being the most significant
    counting digit."""
    x = Poly.x(phi[0].field)
    gens = [list(phi)]
    for _ in range(n - 1):
        gens.append([y.mul_poly(x).frac_part() for y in gens[-1]])
    return gens[:n][::-1]


def _generators(S: PeriodicLattice, rb: ReducedBasis):
    """The generators of the fundamental-domain points in the rb frame,
    most significant counting digit first (see _span).  For alpha these
    are frac(x^k * alpha), k < period_size: N + 1 of them, or, for
    N-rational alpha, deg L of them (L the lcm of the denominators),
    since frac(Q * alpha) depends only on Q mod L and the first
    occurrences in counting order are exactly the Q of degree < deg L."""
    if isinstance(S.form, AlphaForm):
        return _x_multiples(_alpha_coords(S, rb), S.period_size)
    return _rep_coords(S, rb)


def _patterns(vecs, reach: int, depths):
    """Tail pattern rows of the generators frac(x^k * v), k = 0..reach,
    for each vector v in turn: row k reads the coefficients x^-(t+k) of
    each coordinate v_i, t = 1..depths[i] (the stacked Hankel matrices
    transposed), so no series is multiplied."""
    tails = [
        [_tail_pattern(y, dep + reach) if dep else () for y, dep in zip(v, depths)]
        for v in vecs
    ]
    return [
        [c for tail, dep in zip(row, depths) for c in tail[k:k + dep]]
        for row in tails
        for k in range(reach + 1)
    ]


def _pattern_matrix(S: PeriodicLattice, rb: ReducedBasis, depths):
    """The generators' tail patterns in the rb frame, one row per
    generator (see _generators), least significant first: the
    coefficients of x^-1 .. x^-depths[i] of each coordinate i in turn
    (see _patterns).  The alpha form reads phi down to x^-(max depth +
    period_size - 1).  A refusal names that floor, moved down by as much
    as the change to the rb frame raised the truncation floors, so that
    it is a floor for the instance's own coordinates.
    """
    if isinstance(S.form, AlphaForm):
        reach = S.period_size - 1
        vecs = [_alpha_coords(S, rb)] if S.period_size else []
    else:
        reach = 0
        vecs = _rep_coords(S, rb)[::-1]
    try:
        return _patterns(vecs, reach, depths)
    except InsufficientPrecision:
        floor = -(max(depths) + reach)
        canon = [S.form.phi] if isinstance(S.form, AlphaForm) else S.form.reps
        loss = max(_truncated_floors(vecs)) - max(_truncated_floors(canon))
        raise InsufficientPrecision(
            f"tail pattern needs coefficients down to x^{floor}",
            needed_floor=floor - max(loss, 0),
        ) from None


def _span(field: GF, gens, zero):
    """Every F_q-combination of the generator vectors, in counting order:
    the digit of gens[0] is the most significant.  Vector entries need
    + and .scale(a); each point costs one addition per entry."""
    pts = [zero]
    for g in gens:
        multiples = [[y.scale(a) for y in g] for a in range(1, field.q)]
        nxt = []
        for p in pts:
            nxt.append(p)
            nxt.extend(tuple(y + z for y, z in zip(p, m)) for m in multiples)
        pts = nxt
    return pts


def _common_denominators(field: GF, d: int, gens):
    """Rat generators over one denominator L_i per coordinate, the lcm
    over the generators: (numerator rows, the L_i)."""
    if not gens:
        return [], [Poly.one(field)] * d
    return _clear_denominators(gens)


class _RatPoint:
    """The coordinates n_i / L_i of one point, read as reduced Rats,
    which are built on first read."""

    __slots__ = ("nums", "dens", "_rats")

    def __init__(self, nums, dens):
        self.nums = nums
        self.dens = dens
        self._rats = None

    def _read(self):
        if self._rats is None:
            self._rats = [Rat(n, L) for n, L in zip(self.nums, self.dens)]
        return self._rats

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())


def _rat_point_norm(exps, nums, dens) -> QExp:
    """max_i |n_i / L_i| q^(e_i), from degrees alone."""
    norms = [n.degree - L.degree + e for e, n, L in zip(exps, nums, dens) if n.coeffs]
    return QExp(max(norms)) if norms else QEXP_ZERO


def fractional_points(S: PeriodicLattice, C: ConvexBody = None):
    """All points of the fundamental domain intersected with S, as
    rb-frame coordinate vectors with norms; exactly q^period_size, in
    counting order (for N-rational alpha, first occurrences only, see
    _generators)."""
    if C is None:
        C = S.base_body()
    key = C.cache_key()
    hit = S._points_cache.get(key)
    if hit is not None:
        return hit
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    gens = _generators(S, rb)
    if gens and _is_series(gens[0]):
        zero = (LaurentSeries.exact_zero(field),) * S.d
        pts = [(coords, _frac_norm(rb.exps, coords)) for coords in _span(field, gens, zero)]
    else:
        rows, dens = _common_denominators(field, S.d, gens)
        nums = _span(field, rows, (Poly.zero(field),) * S.d)
        pts = [(_RatPoint(n, dens), _rat_point_norm(rb.exps, n, dens)) for n in nums]
    if len(pts) != field.q ** S.period_size:
        raise UndefinedValue(
            f"expected q^{S.period_size} fundamental-domain points, got {len(pts)}"
        )
    S._points_cache[key] = pts
    return pts


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
    cols = [
        col if _is_series(col) else [LaurentSeries.from_poly(y.num) for y in col]
        for col in cols
    ]
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

    Candidates are the nonzero fundamental-domain points and the
    reduced basis vectors: by the ultrametric splitting of f + w into
    its fractional and lattice parts, every ball's span is generated by
    those.  Greedy by ascending norm, keeping candidates that enlarge
    the span.  The pick order within one norm does not change the
    minima, so a candidate whose independence a truncated minor cannot
    decide is retried once the rest of its norm level is picked, and
    only one still undecided then, with fewer than d picked, raises.
    """
    if C is None:
        C = S.base_body()
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    cands = []
    for idx, (coords, norm) in enumerate(fractional_points(S, C)):
        if norm.is_zero:
            continue
        cands.append((norm, 0, idx, coords))
    for i in range(S.d):
        cands.append((QExp(rb.exps[i]), 1, i, _unit_coords(field, S.d, i)))
    cands.sort(key=lambda t: (t[0], t[1], t[2]))
    exps = []
    chosen = []
    witnesses = []
    for norm, level in groupby(cands, key=lambda t: t[0]):
        pending = [t[3] for t in level]
        while pending and len(chosen) < S.d:
            undecided = []
            for coords in pending:
                if len(chosen) == S.d:
                    break
                verdict = _rank_would_increase(chosen, coords, S.d)
                if verdict is True:
                    chosen.append(coords)
                    exps.append(norm.exp)
                    witnesses.append(_ambient_point(rb, coords))
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


def _norm_one_kernel(S: PeriodicLattice, rb: ReducedBasis):
    """The fundamental-domain points of norm <= 1 in the rb frame, from
    one elimination: (r, digits).

    A point has norm <= 1 iff the coefficients x^-1 .. x^-(e_i - 1) of
    each coordinate i vanish, and those are F_q-linear in the point, so
    the points of norm <= 1 are the image of the left kernel of the
    pattern matrix at depths max(e_i - 1, 0); the generators are
    independent, so there are q^(period_size - r) of them, r the rank.
    digits (least significant generator first) is the first nonzero
    kernel vector in counting order, or None: with the generators as
    columns, the first free column f is the least significant top digit
    any kernel vector can have, and the kernel vectors with top digit f
    are the multiples of the one that is 1 at f and -m[row][f] at the
    pivots.
    """
    depths = [max(e - 1, 0) for e in rb.exps]
    m, pivots = _rref_fq(S.field, list(zip(*_pattern_matrix(S, rb, depths))))
    free = next((f for f in range(S.period_size) if f not in pivots), None)
    if free is None:
        return len(pivots), None
    digits = [0] * S.period_size
    digits[free] = 1
    for row, col in enumerate(pivots):
        digits[col] = S.field.neg(m[row][free])
    return len(pivots), digits


def _combination(S: PeriodicLattice, rb: ReducedBasis, digits):
    """sum_k digits[k] * g_k over the generators, least significant
    first: one fundamental-domain point, in the rb frame."""
    point = None
    for a, g in zip(digits, _generators(S, rb)[::-1]):
        if a:
            term = [y.scale(a) for y in g]
            point = term if point is None else [p + t for p, t in zip(point, term)]
    return point


def count_points(S: PeriodicLattice, C: ConvexBody = None, radius: int = None) -> int:
    """|C intersect S| (or a sup-norm ball of radius q^radius).

    Splitting across the fundamental domain: a point f + w lies in C
    iff both parts do, and the lattice part count factors through the
    reduced basis as prod_i q^max(1 - e_i, 0).  The fractional parts of
    norm <= 1 number q^(period_size - r), r the rank of the pattern
    matrix (see _norm_one_kernel).  When truncation hides a pattern
    coefficient, the points are listed instead, since a known nonzero
    coefficient above it can still decide a norm; when that fails too,
    the pattern's refusal is raised, naming a floor that suffices.
    """
    if radius is not None:
        if C is not None:
            raise ValueError("give either a body or a radius, not both")
        C = ConvexBody.ball(S.field, S.d, radius)
    elif C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    try:
        total = S.field.q ** (S.period_size - _norm_one_kernel(S, rb)[0])
    except InsufficientPrecision as refusal:
        one = QExp(0)
        try:
            total = sum(1 for (_c, norm) in fractional_points(S, C) if norm <= one)
        except InsufficientPrecision:
            # the pattern's floor is the one that suffices
            raise refusal from None
    for e in rb.exps:
        total *= S.field.q ** max(1 - e, 0)
    return total


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
    point, so the classes are the image of the generators' patterns
    and number q^rank.  When the measure exceeds
    det(Lambda)/q^(period_size + d), search for a nonzero point of S in
    C: the first nonzero fundamental-domain point of norm <= 1 in
    counting order, the kernel vector of the same elimination (see
    _norm_one_kernel), else the first reduced vector.  That is
    exhaustive by the ultrametric splitting, so a no_point outcome is a
    certified counterexample to the measure hypothesis guaranteeing a
    point.
    """
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    classes_log, digits = _norm_one_kernel(S, rb)
    measure_exp = C.log_volume.exp + classes_log
    threshold_exp = S.lattice.log_det - S.period_size - S.d
    if not measure_exp > threshold_exp:
        return MinkowskiReport("inapplicable", measure_exp, threshold_exp, classes_log)
    if digits is not None:
        coords = _combination(S, rb, digits)
        rep = MinkowskiReport("point", measure_exp, threshold_exp, classes_log)
        rep.point = _ambient_point(rb, coords)
        rep.point_norm = _frac_norm(rb.exps, coords)
        rep.point_source = "fractional"
        return rep
    if rb.exps[0] <= 0:
        coords = _unit_coords(S.field, S.d, 0)
        rep = MinkowskiReport("point", measure_exp, threshold_exp, classes_log)
        rep.point = _ambient_point(rb, coords)
        rep.point_norm = QExp(rb.exps[0])
        rep.point_source = "basis"
        return rep
    return MinkowskiReport("no_point", measure_exp, threshold_exp, classes_log)


def d_invariant(S: PeriodicLattice, C: ConvexBody = None, max_d: int = 3, max_N: int = 2) -> QExp:
    """Smallest nonzero |det| over square systems of representative
    fractional coordinates; brute force over k, index subsets and
    k-subsets of the polynomials of degree <= N."""
    if not isinstance(S.form, AlphaForm):
        raise TypeError("d_invariant requires an AlphaForm periodic lattice")
    if C is None:
        C = S.base_body()
    if S.d > max_d or S.form.N > max_N:
        raise CapExceeded(
            f"d_invariant brute force is limited to d <= {max_d}, N <= {max_N}"
        )
    field = S.field
    rb = reduce_lattice(S.lattice, C)
    phi = _alpha_coords(S, rb)
    series = _is_series(phi)
    det = det_series if series else det_rat
    qs = [Q for Q in _poly_range(field, S.form.N) if not Q.is_zero]
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
    if isinstance(S.form, AlphaForm) and S.form.irr_verified:
        rb = reduce_lattice(S.lattice, C)
        phi = _alpha_coords(S, rb)
        if not _is_series(phi) and all(y.den.degree > S.form.N for y in phi):
            dinv = d_invariant(S, C)
            report.sandwich_checked = True
            report.dinv_exp = dinv.exp
            report.sandwich_lower_ok = dinv.exp + logdet - logm <= prod_lhs
            report.sandwich_upper_ok = prod_lhs <= logdet - (S.form.N + 1) - logm
    return report

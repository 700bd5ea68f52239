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

The fundamental-domain points form the F_q-span of n generators
(_generators): frac(x^k * alpha) for 0 <= k <= N, or the coset
representatives.  fractional_points lists them by walking that span
(_span), one addition per point and coordinate.  With Rat coordinates
a point is a vector of numerators over one denominator per coordinate
(the lcm over the generators), its norm is read off the degrees, and
its reduced Rat coordinates are built only when a caller reads them.

Tail patterns are F_q-linear in the point, so the rank of the
generators' pattern matrix (_pattern_matrix) counts the patterns of
all points: the Minkowski classes and the covering radius levels.
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
    det_rat,
    det_series,
    rank_fq,
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
    parse_element,
    poly_lcm,
    qpow_fraction,
)
from .lattice import ConvexBody, Lattice, ReducedBasis, reduce_lattice

DEFAULT_ORBIT_CAP = 1 << 20


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


def _counting_poly(field: GF, n: int) -> Poly:
    """The polynomial whose coefficients, lowest degree first, are the
    base-q digits of n, least significant first."""
    coeffs = []
    while n:
        n, c = divmod(n, field.q)
        coeffs.append(c)
    return Poly(field, coeffs)


def _poly_range(field: GF, N: int):
    """All polynomials of degree <= N, ascending base-q counting order."""
    return (_counting_poly(field, n) for n in range(field.q ** (N + 1)))


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
    cap: int = DEFAULT_ORBIT_CAP,
    require_irrational: bool = True,
) -> PeriodicLattice:
    """Build Lambda(alpha, q^N), verifying N-irrationality.

    alpha is reduced modulo Lambda into the fundamental domain, which
    leaves the point set unchanged.  For rational coordinates the
    N-irrationality test is exact: alpha is N-rational iff the lcm of
    the reduced-coordinate denominators has degree <= N, and that lcm
    is returned as the witness.  For series coordinates (one series
    among the inputs makes every coordinate a series) every nonzero Q
    with deg Q <= N must produce a representative with a certified
    nonzero coefficient.

    require_irrational=False admits N-rational rational alpha (for
    degenerate cases such as alpha = 0); the period size is then the
    exact log-count of distinct representatives.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    field = lat.field
    if field.q ** (N + 1) > cap:
        raise CapExceeded(f"orbit size q^{N + 1} exceeds cap {cap}")
    coords = _lift(_parse_coords(lat, alpha), lat.d)
    if frame == "ambient":
        rb0 = reduce_lattice(lat, ConvexBody.identity(field, lat.d))
        coords = _from_ambient(rb0, coords, lat.d)
    elif frame != "reduced":
        raise ValueError("frame must be 'ambient' or 'reduced'")
    phi = [y.frac_part() for y in coords]
    if not _is_series(phi):
        lcm = Poly.one(field)
        for y in phi:
            lcm = poly_lcm(lcm, y.den)
        if lcm.degree <= N:
            if require_irrational:
                raise NRational(
                    f"alpha is N-rational for N={N}: witness degree {lcm.degree}",
                    witness=lcm,
                )
            nums, _lcms = _clear_denominators(_x_multiples(phi, N))
            count = len(set(_span(field, nums, (Poly.zero(field),) * lat.d)))
            size = 0
            while field.q ** size < count:
                size += 1
            if field.q ** size != count:
                raise UndefinedValue("orbit size is not a power of q")
            form = AlphaForm(phi, N, irr_verified=False)
            return PeriodicLattice(lat, form, size)
    else:
        # point n of the walk is frac(Q * phi), Q's digits those of n
        zero = (LaurentSeries.exact_zero(field),) * lat.d
        for n, reps in enumerate(_span(field, _x_multiples(phi, N), zero)):
            if n == 0 or any(r.coeffs for r in reps):
                continue
            Q = _counting_poly(field, n)
            undecided = [r.floor for r in reps if not r.exact]
            if undecided:
                raise InsufficientPrecision(
                    "cannot certify N-irrationality: representative of "
                    f"Q={Q.coeffs} has no known nonzero coefficient",
                    needed_floor=undecided[-1] - 1,
                )
            raise NRational(
                f"alpha is N-rational for N={N}", witness=Q
            )
    form = AlphaForm(phi, N, irr_verified=True)
    return PeriodicLattice(lat, form, N + 1)


def make_coset_lattice(lat: Lattice, reps) -> PeriodicLattice:
    """Build Lambda + span of fractional representatives.

    reps are given in canonical reduced-basis coordinates, entries with
    negative valuation only.  F_q-independence (as coefficient vectors
    modulo Lambda) is certified exactly for rational entries and at the
    common precision floor for truncated ones.
    """
    d = lat.d
    flat = _lift([y for rep in reps for y in _parse_coords(lat, rep)], d)
    if any(y.frac_part() != y for y in flat):
        raise ValueError(
            "coset representative coordinates must lie in the "
            "fundamental domain (negative exponents only)"
        )
    parsed = [flat[i:i + d] for i in range(0, len(flat), d)]
    if parsed:
        _certify_fq_independent(lat.field, d, parsed)
    return PeriodicLattice(lat, CosetForm(parsed), len(parsed))


def _certify_fq_independent(field: GF, d: int, reps):
    """Reps must be F_q-independent as coefficient vectors."""
    series = _is_series(reps[0])
    floors = [y.floor for rep in reps for y in rep if not y.exact] if series else []
    if floors:
        window = -min(floors)
        fq_rows = [[c for y in rep for c in _tail_pattern(y, window)] for rep in reps]
        if rank_fq(field, fq_rows) != len(reps):
            raise InsufficientPrecision(
                "coset representatives are not certified independent at the "
                f"common floor x^{-window}",
                needed_floor=-window - 1,
            )
        return
    # exact data: a window below every denominator degree is not
    # guaranteed to separate distinct rational tails.  Per coordinate,
    # clear by the lcm of that coordinate's denominators across reps,
    # then compare numerator coefficient vectors over F_q
    if series:
        reps = [[y.to_rat() for y in rep] for rep in reps]
    prows, _lcms = _clear_denominators(reps)
    widths = [max(row[i].degree for row in prows) + 1 for i in range(d)]
    fq_rows = [
        [p.coeff(k) for p, width in zip(row, widths) for k in range(width)]
        for row in prows
    ]
    if rank_fq(field, fq_rows) != len(reps):
        raise ValueError(
            "coset representatives are F_q-linearly dependent"
        )


def from_lattice(lat: Lattice) -> PeriodicLattice:
    """The lattice itself as a periodic lattice with trivial cosets."""
    return PeriodicLattice(lat, CosetForm([]), 0)


# --- fractional point sets --------------------------------------------------


def _x_multiples(phi, N: int):
    """frac(x^k * phi) for k = N .. 0: the alpha form's generators, the
    coefficient of x^N of Q being the most significant counting digit."""
    x = Poly.x(phi[0].field)
    gens = [list(phi)]
    for _ in range(N):
        gens.append([y.mul_poly(x).frac_part() for y in gens[-1]])
    return gens[::-1]


def _generators(S: PeriodicLattice, rb: ReducedBasis):
    """The generators of the fundamental-domain points in the rb frame,
    most significant counting digit first (see _span)."""
    if isinstance(S.form, AlphaForm):
        return _x_multiples(_alpha_coords(S, rb), S.form.N)
    return _rep_coords(S, rb)


def _pattern_matrix(S: PeriodicLattice, rb: ReducedBasis, depths):
    """The generators' tail patterns in the rb frame, one row per
    generator, least significant first: the coefficients of x^-1 ..
    x^-depths[i] of each coordinate i in turn.  Row k of the alpha form,
    frac(x^k * phi), reads x^-(t+k) of phi (the stacked Hankel matrices
    transposed), so a refusal names phi's floor -(max depth + N).
    """
    alpha = isinstance(S.form, AlphaForm)
    reach = S.form.N if alpha else 0
    vecs = [_alpha_coords(S, rb)] if alpha else _rep_coords(S, rb)[::-1]
    try:
        tails = [
            [_tail_pattern(y, dep + reach) if dep else () for y, dep in zip(v, depths)]
            for v in vecs
        ]
    except InsufficientPrecision:
        floor = -(max(depths) + reach)
        raise InsufficientPrecision(
            f"tail pattern needs coefficients down to x^{floor}",
            needed_floor=floor,
        ) from None
    if not alpha:
        return [[c for tail in row for c in tail] for row in tails]
    return [
        [c for tail, dep in zip(tails[0], depths) for c in tail[k:k + dep]]
        for k in range(reach + 1)
    ]


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
    counting order (for N-rational alpha, first occurrences only)."""
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
        if isinstance(S.form, AlphaForm) and not S.form.irr_verified:
            nums = list(dict.fromkeys(nums))
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


def count_points(S: PeriodicLattice, C: ConvexBody = None, radius: int = None) -> int:
    """|C intersect S| (or a sup-norm ball of radius q^radius).

    Splitting across the fundamental domain: a point f + w lies in C
    iff both parts do, and the lattice part count factors through the
    reduced basis as prod_i q^max(1 - e_i, 0).
    """
    if radius is not None:
        if C is not None:
            raise ValueError("give either a body or a radius, not both")
        C = ConvexBody.ball(S.field, S.d, radius)
    elif C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    one = QExp(0)
    inside = sum(1 for (_c, norm) in fractional_points(S, C) if norm <= one)
    total = inside
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
    C; the search over nonzero fundamental-domain points plus the first
    reduced vector is exhaustive by the ultrametric splitting, so a
    no_point outcome is a certified counterexample to the measure
    hypothesis guaranteeing a point.
    """
    if C is None:
        C = S.base_body()
    rb = reduce_lattice(S.lattice, C)
    pts = fractional_points(S, C)
    depths = [max(e - 1, 0) for e in rb.exps]
    classes_log = rank_fq(S.field, _pattern_matrix(S, rb, depths))
    measure_exp = C.log_volume.exp + classes_log
    threshold_exp = S.lattice.log_det - S.period_size - S.d
    if not measure_exp > threshold_exp:
        return MinkowskiReport("inapplicable", measure_exp, threshold_exp, classes_log)
    one = QExp(0)
    for coords, norm in pts:
        if not norm.is_zero and norm <= one:
            rep = MinkowskiReport("point", measure_exp, threshold_exp, classes_log)
            rep.point = _ambient_point(rb, coords)
            rep.point_norm = norm
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

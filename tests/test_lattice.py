"""Lattices, convex bodies, norms, reduction, plain covering radius."""

import random

import pytest
from hypothesis import given, strategies as st

from fflat import (
    GF,
    ConvexBody,
    InsufficientPrecision,
    Lattice,
    LaurentSeries,
    Poly,
    QExp,
    Rat,
    SingularInput,
    count_points,
    expand_rational,
    covrad_periodic,
    from_lattice,
    make_coset_lattice,
    norm_in_body,
    parse_element,
    reduce_lattice,
)
from fflat.battery import random_body, random_lattice
from fflat.exactlinalg import det_adjugate
from fflat.lattice import _frac_norm, _lift
from fflat.oracle import _points_by_definition
from fflat.periodic import _coords

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2, (1, 1, 1))


def V(field, *entries):
    return [parse_element(field, e) for e in entries]


def test_norm_examples():
    C = ConvexBody.identity(F2, 2)
    assert norm_in_body(V(F2, "x^2", "1"), C) == QExp(2)
    assert norm_in_body(V(F2, "0", "0"), C).is_zero
    D = ConvexBody(F2, [["x", "0"], ["0", "1"]])
    assert norm_in_body(V(F2, "x", "1"), D) == QExp(0)
    # sup norm of fractional vectors
    assert norm_in_body(V(F2, "1/x", "1/x^3"), C) == QExp(-1)


def test_body_log_volume():
    assert ConvexBody.identity(F3, 3).log_volume == QExp(0)
    assert ConvexBody.ball(F2, 2, -1).log_volume == QExp(-2)
    assert ConvexBody.ball(F2, 3, 2).log_volume == QExp(6)
    B = ConvexBody(F2, [["1/x", "0"], ["0", "x^2"]])
    assert B.log_volume == QExp(1)


def test_identity_body_is_built_once_per_field_and_dimension():
    assert ConvexBody.identity(F2, 2) is ConvexBody.identity(F2, 2)
    assert ConvexBody.identity(F2, 2) is not ConvexBody.identity(F2, 3)
    assert ConvexBody.identity(F2, 2) is not ConvexBody.identity(F3, 2)
    # GF equality includes the modulus: two models of F_9 keep their bodies
    t2_1 = GF(3, 2, (1, 0, 1))
    t2_t_2 = GF(3, 2, (2, 1, 1))
    a, b = ConvexBody.identity(t2_1, 2), ConvexBody.identity(t2_t_2, 2)
    assert a is not b
    assert (a.field, b.field) == (t2_1, t2_t_2)
    # a body built afresh from the same matrix is another memo key with
    # the same reduction
    lat = Lattice.standard(t2_1, 2)
    ra, rc = reduce_lattice(lat, a), reduce_lattice(lat, ConvexBody(t2_1, [["1", "0"], ["0", "1"]]))
    assert ra is not rc
    assert (ra.exps, ra.VP) == (rc.exps, rc.VP)


def test_identity_body_reduces_w_as_before():
    # the lattice of the W instance (tests/data/w.json): reduced at once
    # by the shared unit body and by one built afresh, on fresh lattices
    for C in (ConvexBody.identity(F2, 2), ConvexBody(F2, [["1", "0"], ["0", "1"]]),
              ConvexBody.identity(F2, 2)):
        rb = reduce_lattice(Lattice.standard(F2, 2), C)
        assert rb.exps == [0, 0]
        assert rb.lattice.shift == 0
        assert rb.VP == [[Poly.one(F2), Poly.zero(F2)], [Poly.zero(F2), Poly.one(F2)]]


def test_body_rejects_singular():
    with pytest.raises(SingularInput):
        ConvexBody(F2, [["x", "x"], ["x", "x"]])
    with pytest.raises(SingularInput):
        Lattice(F2, [["1", "1"], ["1", "1"]])


def test_lattice_requires_dim_2():
    with pytest.raises(ValueError):
        Lattice(F2, [["x"]])


def test_reduce_examples():
    C = ConvexBody.identity(F2, 2)
    assert reduce_lattice(Lattice.standard(F2, 2), C).exps == [0, 0]
    diag = Lattice(F2, [["x", "0"], ["0", "1/x"]])
    assert reduce_lattice(diag, C).exps == [-1, 1]
    skew = Lattice(F2, [["x", "x+1"], ["1", "1"]])
    assert reduce_lattice(skew, C).exps == [0, 0]


def test_det_lattice_examples():
    assert Lattice.standard(F2, 3).log_det == 0
    assert Lattice(F2, [["x", "0"], ["0", "1/x"]]).log_det == 0
    assert Lattice(F2, [["x", "x+1"], ["1", "1"]]).log_det == 0
    assert Lattice(F3, [["x^2", "0"], ["0", "x"]]).log_det == 3


def test_covrad_lattice_examples():
    C = ConvexBody.identity(F2, 2)
    assert covrad_periodic(from_lattice(Lattice.standard(F2, 2)), C) == QExp(-1)
    diag = Lattice(F2, [["x", "0"], ["0", "1/x"]])
    assert covrad_periodic(from_lattice(diag), C) == QExp(0)
    # homogeneity: scaling the lattice by x shifts by one
    diag_x = Lattice(F2, [["x^2", "0"], ["0", "1"]])
    assert covrad_periodic(from_lattice(diag_x), C) == QExp(1)


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
@pytest.mark.parametrize("d", [2, 3])
def test_minkowski_equality_random(field, d):
    rng = random.Random(field.q * 10 + d)
    for _ in range(30):
        lat = random_lattice(rng, field, d)
        C = random_body(rng, field, d)
        rb = reduce_lattice(lat, C)
        assert sum(rb.exps) == lat.log_det - C.log_volume.exp
        assert rb.exps == sorted(rb.exps)


def test_exps_invariant_under_unimodular_change():
    C = ConvexBody.identity(F2, 2)
    lat = Lattice(F2, [["x^2", "1"], ["x", "x"]])
    # right-multiply by [[1, 1], [0, 1]]: same module
    lat2 = Lattice(F2, [["x^2", "x^2+1"], ["x", "0"]])
    assert reduce_lattice(lat, C).exps == reduce_lattice(lat2, C).exps


def test_orthogonality_of_reduced_basis():
    rng = random.Random(3)
    for field in (F2, F3):
        for d in (2, 3):
            lat = random_lattice(rng, field, d)
            C = random_body(rng, field, d)
            rb = reduce_lattice(lat, C)
            for _ in range(40):
                cs = [
                    Poly(field, tuple(rng.randrange(field.q) for _ in range(rng.randint(0, 3))))
                    for _ in range(d)
                ]
                want = QExp(None)
                for c, e in zip(cs, rb.exps):
                    if not c.is_zero:
                        want = max(want, QExp(c.degree + e))
                got = rb.norm_from_coords(cs)
                assert got == want
                # the same value through the ambient route
                assert norm_in_body(rb.ambient_from_coords(cs), C) == want


def test_norm_with_truncated_series():
    C = ConvexBody.identity(F2, 2)
    v = [
        LaurentSeries(F2, [1, 0, 0, 0, 0], -6, exact=False),
        LaurentSeries(F2, [1, 0, 0, 0], -6, exact=False),
    ]
    assert norm_in_body(v, C) == QExp(-2)
    # an all-unknown leading window cannot be normed
    u = [
        LaurentSeries(F2, [], -2, exact=False),
        LaurentSeries(F2, [], -2, exact=False),
    ]
    with pytest.raises(InsufficientPrecision):
        norm_in_body(u, C)


def test_norm_mixed_rat_and_series():
    C = ConvexBody(F2, [["x", "0"], ["0", "1"]])
    v = [
        Rat(Poly.one(F2), Poly.x(F2)),
        LaurentSeries(F2, [1, 0, 0, 0], -4, exact=False),
    ]
    # h^-1 v = (x^-2, x^-1 + ...): sup exponent -1
    assert norm_in_body(v, C) == QExp(-1)


def test_norm_lift_reaches_below_the_adjugate_degree():
    # deg adj(H) = 30 > 4d + 8: the rational is expanded 31 + 2 below
    # the floor -6, so that x^30 * v_2 still cancels v_1 down to x^-6
    # and leaves x^-1; the construction lift's margin (16) would refuse
    C = ConvexBody(F2, [["x^30", "1"], ["1", "0"]])
    v1 = expand_rational(parse_element(F2, "(x^31 + x^2 + x + 1)/(x^3 + x^2 + x)"), -6)
    v = [v1.truncated(-6), parse_element(F2, "1/(x^2+x+1)")]
    assert norm_in_body(v, C) == QExp(-1)


@given(
    st.sampled_from([F2, F3, F4]), st.integers(2, 3), st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)
def test_coords_round_trip(field, d, seed, depth):
    """coords_from_ambient inverts ambient_from_coords: exactly for Rat
    coordinates, and for truncated ones on every coefficient the result
    knows."""
    rng = random.Random(seed)
    rb = reduce_lattice(random_lattice(rng, field, d), random_body(rng, field, d))

    def rand_poly(n):
        return Poly(field, [rng.randrange(field.q) for _ in range(n)])

    coords = []
    for _ in range(d):
        e = rng.randint(0, 3)
        den = Poly.monomial(field, 1, e) + rand_poly(e)
        coords.append(Rat(rand_poly(rng.randint(0, 4)), den))
    assert rb.coords_from_ambient(rb.ambient_from_coords(coords)) == coords
    cut = [
        expand_rational(c, -depth).truncated(-depth) if i == 0 or rng.random() < 0.5 else c
        for i, c in enumerate(coords)
    ]
    got = rb.coords_from_ambient(rb.ambient_from_coords(_lift(cut, d)))
    for y, c in zip(got, coords):
        assert isinstance(y, LaurentSeries)
        if y.exact:
            assert y.to_rat() == c
        else:
            assert y == expand_rational(c, y.floor).truncated(y.floor)


def test_ambient_from_coords_is_the_sum_of_its_terms():
    # reference: sum_j c_j * x^-shift VP[i][j], term by term in Rat
    # arithmetic; coordinates are Poly or Rat, the denominators of degree
    # 1 and 2 often shared or with common factors, and one vector all
    # zero.  The way back, x^shift adj(VP) v / det(VP), and the norm,
    # adj(H) v read against deg det(H), are summed term by term too.
    rng = random.Random(11)

    def term_sum(M, vec, scale):
        out = []
        for row in M:
            acc = Rat.from_poly(Poly.zero(scale.field))
            for p, y in zip(row, vec):
                acc = acc + Rat.from_poly(p) * y
            out.append(acc * scale)
        return out

    for field in (F2, F3, GF(2, 2, (1, 1, 1))):
        for d in (2, 3):
            lat = random_lattice(rng, field, d)
            rb = reduce_lattice(lat, random_body(rng, field, d))
            C = rb.body
            xs = Poly.monomial(field, 1, rb.lattice.shift)
            det_vp, adj_vp = det_adjugate(rb.VP)

            def rand_poly(lo, hi):
                return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(lo, hi))])

            cases = [[Poly.zero(field)] * d]
            for _ in range(20):
                cs = []
                for _ in range(d):
                    num = rand_poly(0, 4)
                    e = rng.randint(1, 2)
                    den = Poly.monomial(field, 1, e) + rand_poly(0, e)
                    cs.append(num if rng.random() < 0.3 else Rat(num, den))
                cases.append(cs)
            for cs in cases:
                rats = [c.to_rat() for c in cs]
                want = term_sum(rb.VP, rats, Rat(Poly.one(field), xs))
                assert rb.ambient_from_coords(cs) == want
                back = term_sum(adj_vp, want, Rat(xs, det_vp))
                assert rb.coords_from_ambient(want) == back == rats
                h_v = term_sum(C.adj, want, Rat.from_poly(Poly.one(field)))
                top = max(y.val() for y in h_v)
                norm = top if top.is_zero else QExp(top.exp - C.det_H.degree + C.shift)
                assert norm_in_body(want, C) == norm


@given(st.sampled_from([F2, F3, F4]), st.integers(2, 3), st.integers(0, 10**6))
def test_ambient_from_coords_takes_poly_coords_as_their_rats(field, d, seed):
    """An all-Poly coordinate vector, which takes the polynomial
    product, gives the ambient vector of the same coordinates as Rat."""
    rng = random.Random(seed)
    rb = reduce_lattice(random_lattice(rng, field, d), random_body(rng, field, d))
    cs = [Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 4))])
          for _ in range(d)]
    got = rb.ambient_from_coords(cs)
    assert got == rb.ambient_from_coords([c.to_rat() for c in cs])
    assert all(isinstance(y, Rat) for y in got)


def _frac_norm_two_branches(exps, coords):
    """(norm, None), or (None, needed_floor) for a refusal: the weighted
    max norm with one branch per backend, a Rat one and a series one."""
    if not isinstance(coords[0], LaurentSeries):
        norms = [y.val().exp + e for e, y in zip(exps, coords) if not y.is_zero]
        return (QExp(max(norms)) if norms else QExp(None)), None
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
        return QExp(best), None
    if not pending:
        return QExp(None), None
    need = best + 1 if best is not None else min(pending) - 1
    return None, need - max(exps)


@st.composite
def _norm_case(draw):
    """(exps, coords): a Rat vector, or a series vector whose entries
    are exact (the zero too), truncated with a known nonzero leading
    coefficient, or truncated with no coefficient known."""
    field = draw(st.sampled_from([F2, F3]))
    d = draw(st.integers(2, 4))
    exps = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    digit = st.integers(0, field.q - 1)
    coords = []
    if draw(st.booleans()):
        for _ in range(d):
            num = Poly(field, draw(st.lists(digit, max_size=4)))
            den = Poly(field, draw(st.lists(digit, max_size=3)) + [1])
            coords.append(Rat(num, den))
        return exps, coords
    for _ in range(d):
        kind = draw(st.sampled_from(["exact", "known", "unknown"]))
        floor = draw(st.integers(-8, 2))
        cs = draw(st.lists(digit, max_size=4))
        if kind == "known":
            cs = [draw(st.integers(1, field.q - 1))] + cs
        elif kind == "unknown":
            cs = []
        coords.append(LaurentSeries(field, cs, floor, exact=kind == "exact"))
    return exps, coords


@given(_norm_case())
def test_frac_norm_is_the_two_branch_formula(case):
    """The one loop over val() answers as the Rat branch and the series
    branch did, and a refusal names the same floor."""
    exps, coords = case
    norm, need = _frac_norm_two_branches(exps, coords)
    if need is None:
        assert _frac_norm(exps, coords) == norm
    else:
        with pytest.raises(InsufficientPrecision) as exc:
            _frac_norm(exps, coords)
        assert exc.value.needed_floor == need


def test_a_body_of_another_dimension_or_field_is_refused():
    """A body must match the lattice, and a vector the body, in dimension
    and field: reduce_lattice refuses a mismatched body, which its cache
    (keyed by the body object) would only miss, and norm_in_body a
    vector of another length, each with a ValueError.  Unchecked, the
    F_3 unit body would mix two fields in one product, the d = 3 body
    would end in an IndexError, and the product would drop the entries
    of a longer vector or the columns past a shorter one."""
    C = ConvexBody.identity(F2, 2)
    for v in (["1", "x", "x^2"], ["1"]):
        with pytest.raises(ValueError, match="dimension 2"):
            norm_in_body(v, C)
    assert norm_in_body(["1", "x"], C) == QExp(1)
    lat = Lattice.standard(F2, 2)
    assert reduce_lattice(lat).exps == [0, 0]  # cached under the unit body
    for body in (ConvexBody.identity(F3, 2), ConvexBody.identity(F2, 3)):
        with pytest.raises(ValueError, match="for a lattice of dimension 2 over GF\\(2\\)"):
            reduce_lattice(lat, body)
    S = from_lattice(lat)
    for question in (count_points, covrad_periodic):
        with pytest.raises(ValueError):
            question(S, ConvexBody.identity(F2, 3))
    assert reduce_lattice(lat, C) is reduce_lattice(lat)


def test_frame_methods_refuse_a_vector_of_another_length():
    """A coordinate or ambient vector must have the lattice's d entries:
    the one product, _mat_vec, refuses any other length with a
    ValueError naming both, where its zip would drop entries or read
    missing ones as zero."""
    rb = reduce_lattice(Lattice(F2, [["x", "1"], ["0", "x^2"]]))
    one = Poly.one(F2)
    calls = [
        (rb.ambient_from_coords, [one], 1),
        (rb.ambient_from_coords, [one, one, one], 3),
        (rb.norm_from_coords, [one], 1),
        (rb.coords_from_ambient, [Rat.from_poly(one)], 1),
    ]
    for method, vec, n in calls:
        with pytest.raises(ValueError, match=f"vector of length {n} for a matrix with rows of length 2"):
            method(vec)
    assert rb.ambient_from_coords([one, one]) == V(F2, "x + 1", "x^2")


def test_each_body_object_has_one_memo_entry():
    """Each memo keeps one entry per body object: the same body twice
    adds one entry and reads it back; a body built afresh from the same
    matrix adds its own entry, with equal values."""
    lat = Lattice(F3, [["x", "1"], ["0", "x^2"]])
    S = make_coset_lattice(lat, [["x^-1", "x^-2"]])
    cells = [["x", "1"], ["0", "x^-1"]]
    reduce_lattice(lat)  # the unit body's entry, which from_canonical reads

    def sizes():
        return len(lat._reductions), len(S._coord_cache), len(S._points_cache)

    C = ConvexBody(F3, cells)
    rb = reduce_lattice(lat, C)
    coords, points = _coords(S, rb), _points_by_definition(S, C)
    assert sizes() == (2, 1, 1)
    assert reduce_lattice(lat, C) is rb
    assert _coords(S, rb) is coords and _points_by_definition(S, C) is points
    assert sizes() == (2, 1, 1)
    D = ConvexBody(F3, cells)
    rb_d = reduce_lattice(lat, D)
    assert rb_d is not rb and (rb_d.exps, rb_d.VP) == (rb.exps, rb.VP)
    assert _coords(S, rb_d) == coords and _points_by_definition(S, D) == points
    assert sizes() == (3, 2, 2)

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
    expand_rational,
    covrad_periodic,
    from_lattice,
    norm_in_body,
    parse_element,
    reduce_lattice,
)
from fflat.battery import random_body, random_lattice
from fflat.lattice import _lift

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
    assert a.cache_key() == ConvexBody(t2_1, [["1", "0"], ["0", "1"]]).cache_key()


def test_identity_body_reduces_w_as_before():
    # the lattice of the W instance (tests/data/w.json): reduced at once
    # by the shared unit body and by one built afresh, on fresh lattices
    for C in (ConvexBody.identity(F2, 2), ConvexBody(F2, [["1", "0"], ["0", "1"]]),
              ConvexBody.identity(F2, 2)):
        rb = reduce_lattice(Lattice.standard(F2, 2), C)
        assert rb.exps == [0, 0]
        assert rb.ashift == 0
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
        LaurentSeries.from_pairs(F2, {-2: 1}, -6, exact=False),
        LaurentSeries.from_pairs(F2, {-3: 1}, -6, exact=False),
    ]
    assert norm_in_body(v, C) == QExp(-2)
    # an all-unknown leading window cannot be normed
    u = [
        LaurentSeries.from_pairs(F2, {}, -2, exact=False),
        LaurentSeries.from_pairs(F2, {}, -2, exact=False),
    ]
    with pytest.raises(InsufficientPrecision):
        norm_in_body(u, C)


def test_norm_mixed_rat_and_series():
    C = ConvexBody(F2, [["x", "0"], ["0", "1"]])
    v = [
        Rat(Poly.one(F2), Poly.x(F2)),
        LaurentSeries.from_pairs(F2, {-1: 1}, -4, exact=False),
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
    # reference: sum_j c_j * x^-ashift VP[i][j], term by term in Rat
    # arithmetic; coordinates are Poly or Rat, the denominators of degree
    # 1 and 2 often shared or with common factors
    rng = random.Random(11)
    for field in (F2, F3, GF(2, 2, (1, 1, 1))):
        for d in (2, 3):
            lat = random_lattice(rng, field, d)
            rb = reduce_lattice(lat, random_body(rng, field, d))
            xs = Poly.monomial(field, 1, rb.ashift)

            def rand_poly(lo, hi):
                return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(lo, hi))])

            for _ in range(20):
                cs = []
                for _ in range(d):
                    num = rand_poly(0, 4)
                    e = rng.randint(1, 2)
                    den = Poly.monomial(field, 1, e) + rand_poly(0, e)
                    cs.append(num if rng.random() < 0.3 else Rat(num, den))
                want = []
                for i in range(d):
                    acc = Rat.from_poly(Poly.zero(field))
                    for j, c in enumerate(cs):
                        c = Rat.from_poly(c) if isinstance(c, Poly) else c
                        acc = acc + c * Rat(rb.VP[i][j], xs)
                    want.append(acc)
                assert rb.ambient_from_coords(cs) == want

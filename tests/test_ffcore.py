"""Base arithmetic: F_q, polynomials, rationals, series, parsing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fflat import (
    GF,
    LaurentSeries,
    ParseError,
    Poly,
    QExp,
    Rat,
    abs_value,
    expand_rational,
    frac_part,
    parse_element,
)
from fflat.battery import random_lattice
from fflat.errors import InsufficientPrecision
from fflat.ffcore import (
    field_of_order as _make_field,
    format_poly,
    format_rat,
    format_series,
    poly_lcm,
    qpow_fraction,
    series_from_json,
)

FIELDS = [
    GF(2),
    GF(3),
    GF(2, 2, (1, 1, 1)),
    GF(5),
    GF(2, 3, (1, 1, 0, 1)),
    GF(3, 2, (1, 0, 1)),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    assert len(els) == field.q
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in els:
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


def _digit_reference(field):
    """add, neg, mul and inv computed on base-p digit vectors modulo the
    defining polynomial: the element encoding itself, kept apart from
    GF's tables and kernels."""
    p, k, m = field.p, field.k, field.modulus
    digits = [[a // p**i % p for i in range(k)] for a in range(field.q)]

    def undigits(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    def add(a, b):
        return undigits(x + y for x, y in zip(digits[a], digits[b]))

    def neg(a):
        return undigits(-x for x in digits[a])

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b], i):
                prod[j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # m is monic
            c = prod[top] % p
            for i, mc in enumerate(m, top - k):
                prod[i] -= c * mc
        return undigits(prod[:k])

    def inv(a):
        r, e = 1, field.q - 2
        while e:
            if e & 1:
                r = mul(r, a)
            a, e = mul(a, a), e >> 1
        return r

    return add, neg, mul, inv


# x^4+x^3+x^2+x+1 over F_2: t has order 5, so the log tables must take
# another primitive element
NON_PRIMITIVE_T = GF(2, 4, (1, 1, 1, 1, 1))


def test_non_primitive_t_has_order_5():
    _add, _neg, mul, _inv = _digit_reference(NON_PRIMITIVE_T)
    t2 = mul(2, 2)
    assert mul(mul(t2, t2), 2) == 1


@pytest.mark.parametrize(
    "field",
    FIELDS + [GF(3, 2, (2, 2, 1)), NON_PRIMITIVE_T, _make_field(2**8), _make_field(3**5)],
    ids=lambda f: f"q{f.q}_{''.join(map(str, f.modulus))}",
)
def test_field_arithmetic_equals_digit_reference(field):
    add, neg, mul, inv = _digit_reference(field)
    els = range(field.q)
    for a in els:
        assert field.neg(a) == neg(a)
        if a:
            assert field.inv(a) == inv(a)
        for b in els:
            assert field.add(a, b) == add(a, b)
            assert field.sub(a, b) == add(a, neg(b))
            assert field.mul(a, b) == mul(a, b)


def test_field_construction_rejects():
    with pytest.raises(ParseError):
        GF(4)  # not prime
    with pytest.raises(ParseError):
        GF(19)  # prime too large
    with pytest.raises(ParseError):
        GF(2, 2)  # missing modulus
    with pytest.raises(ParseError):
        GF(2, 2, (1, 0, 1))  # (x+1)^2 is reducible
    with pytest.raises(ParseError):
        GF(2, 17)  # q over the ceiling


poly_f2 = st.builds(
    lambda cs: Poly(GF(2), tuple(cs)),
    st.lists(st.integers(0, 1), max_size=7),
)
poly_f3 = st.builds(
    lambda cs: Poly(GF(3), tuple(cs)),
    st.lists(st.integers(0, 2), max_size=6),
)


# the prime-field kernels at characteristics on both sides of the packed
# (Kronecker) product, which takes min(len) * (p-1)^2 < 256, up to
# lengths where p = 5 leaves it
KERNEL_PRIMES = (2, 3, 5, 17)


@st.composite
def prime_poly_pairs(draw):
    field = GF(draw(st.sampled_from(KERNEL_PRIMES)))
    coeffs = st.lists(st.integers(0, field.p - 1), max_size=24)
    return Poly(field, draw(coeffs)), Poly(field, draw(coeffs))


def _schoolbook(a, b):
    p = a.field.p
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + x * y) % p
    return Poly(a.field, out)


@settings(max_examples=200)
@given(prime_poly_pairs())
def test_prime_mul_is_schoolbook(ab):
    a, b = ab
    assert a * b == _schoolbook(a, b)


@settings(max_examples=200)
@given(prime_poly_pairs(), st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 30))
def test_prime_series_products_embed_poly_products(ab, s, t, cut):
    a, b = ab
    sa = LaurentSeries.from_poly(a).mul_xpow(s)
    sb = LaurentSeries.from_poly(b).mul_xpow(t)
    exact = LaurentSeries.from_poly(a * b).mul_xpow(s + t)
    assert sa * sb == exact
    # a truncated factor: the product knows exactly the coefficients of
    # the exact product above its floor
    ta = sa.truncated(sa.top - cut) if not a.is_zero else sa
    prod = ta * sb
    for e in range(prod.top, prod.floor - 1, -1):
        assert prod.coeff_exp(e) == exact.coeff_exp(e)


@settings(max_examples=200)
@given(prime_poly_pairs())
def test_poly_divmod_is_long_division(ab):
    a, b = ab
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert _schoolbook(q, b) + r == a
    assert r.degree < b.degree


@given(a=poly_f2, b=poly_f2, c=poly_f2)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(a=poly_f2, b=poly_f2)
def test_poly_lcm_divisibility(a, b):
    if a.is_zero or b.is_zero:
        return
    m = poly_lcm(a, b)
    assert (m % a).is_zero and (m % b).is_zero
    assert m.degree <= a.degree + b.degree


def test_abs_value_examples(F2):
    assert abs_value(parse_element(F2, "x^2+1")) == QExp(2)
    assert abs_value(parse_element(F2, "1/(x^3+x+1)")) == QExp(-3)
    assert abs_value(parse_element(F2, "0")).is_zero


@given(a=poly_f3, b=poly_f3)
def test_abs_multiplicative_and_ultrametric(a, b):
    ra, rb = Rat.from_poly(a), Rat.from_poly(b)
    assert abs_value(ra * rb) == abs_value(ra) * abs_value(rb)
    s = Rat.from_poly(a + b)
    assert abs_value(s) <= max(abs_value(ra), abs_value(rb))


def test_rat_lowest_terms(F2):
    x = Poly.x(F2)
    r = Rat((x + Poly.one(F2)) * x, x)
    assert r.num == x + Poly.one(F2) and r.den == Poly.one(F2)
    r = Rat(Poly.zero(F2), x)
    assert r.num.is_zero and r.den == Poly.one(F2)


def test_expand_rational_examples(F2):
    one = expand_rational(parse_element(F2, "x/x"), -5)
    assert one.exact and one.coeffs == (1,) and one.top == 0
    inv = expand_rational(parse_element(F2, "1/x"), -3)
    assert inv.exact and inv.coeffs == (1,) and inv.top == -1


def test_expand_rational_long_division_oracle(F2):
    # multiply back: the труncated expansion times den recovers num on
    # the sound window
    f = parse_element(F2, "1/(x^3+x+1)")
    s = expand_rational(f, -12)
    assert not s.exact and s.top == -3
    den = f.den
    prod = s.mul_poly(den)
    # num = 1; every known coefficient of the product must match
    for e in range(prod.top, prod.floor - 1, -1):
        assert prod.coeff_exp(e) == (1 if e == 0 else 0)


@given(
    num=poly_f3,
    den=poly_f3.filter(lambda p: not p.is_zero),
    floor=st.integers(-14, -2),
)
def test_expand_rational_refinement(num, den, floor):
    f = Rat(num, den)
    a = expand_rational(f, floor)
    b = expand_rational(f, floor - 4)
    for e in range(a.top, max(a.floor, b.floor) - 1, -1):
        assert a.coeff_exp(e) == b.coeff_exp(e)


def test_frac_part_examples(F2):
    s = LaurentSeries.from_pairs(F2, {2: 1, 0: 1, -1: 1}, -4, exact=True)
    t = frac_part(s)
    assert t.coeffs == (1,) and t.top == -1 and t.exact
    p = LaurentSeries.from_poly(Poly(F2, (1, 1, 1)))
    assert frac_part(p).is_exact_zero
    # (x^3+1)/(x^3+x+1) = 1 + x/(x^3+x+1): the fractional part is the
    # expansion of x/(x^3+x+1)
    f = parse_element(F2, "(x^3+1)/(x^3+x+1)")
    got = frac_part(expand_rational(f, -9))
    want = expand_rational(parse_element(F2, "x/(x^3+x+1)"), -9)
    for e in range(-1, -9, -1):
        assert got.coeff_exp(e) == want.coeff_exp(e)


@given(a=poly_f2, b=poly_f2)
def test_frac_part_linear(a, b):
    x3 = Poly(GF(2), (1, 1, 0, 1))
    sa = expand_rational(Rat(a, x3), -10)
    sb = expand_rational(Rat(b, x3), -10)
    lhs = frac_part(sa + sb)
    rhs = frac_part(sa) + frac_part(sb)
    for e in range(-1, -9, -1):
        assert lhs.coeff_exp(e) == rhs.coeff_exp(e)
    assert frac_part(frac_part(sa)).coeffs == frac_part(sa).coeffs


def test_series_arith_floor_tracking(F2):
    a = LaurentSeries.from_pairs(F2, {-1: 1}, -5, exact=False)
    z = a + a
    assert z.is_known_zero and z.floor == -5 and not z.exact
    b = LaurentSeries.from_pairs(F2, {-1: 1, -2: 1}, -2, exact=True)
    xb = b.mul_xpow(1)
    assert xb.exact and xb.coeff_exp(0) == 1 and xb.coeff_exp(-1) == 1
    c = LaurentSeries.from_pairs(F2, {2: 1}, 2, exact=True)
    d = LaurentSeries.from_pairs(F2, {0: 1}, -3, exact=False)
    assert (c * d).floor == -1  # -3 + top 2


def test_series_unknown_coefficient_is_loud(F2):
    s = LaurentSeries.from_pairs(F2, {-1: 1}, -3, exact=False)
    assert s.coeff_exp(-3) == 0
    with pytest.raises(InsufficientPrecision):
        s.coeff_exp(-4)
    # exact series answer everywhere
    e = LaurentSeries.from_pairs(F2, {-1: 1}, -3, exact=True)
    assert e.coeff_exp(-40) == 0


def test_qexp_order_and_arith():
    bottom = QExp(None)
    assert bottom.is_zero and bottom < QExp(-100) < QExp(0) < QExp(3)
    assert QExp(2) * QExp(-5) == QExp(-3)
    assert (QExp(2) / QExp(2)) == QExp(0)
    assert max(bottom, QExp(-1)) == QExp(-1)
    assert qpow_fraction(3, -2).denominator == 9


# --- element grammar ---------------------------------------------------


def test_parse_format_grammar(F2, F3, F4):
    assert format_rat(parse_element(F2, "x^2+x+1")) == "x^2 + x + 1"
    r = parse_element(F2, "(x+1)/(x^3+x+1)")
    assert r.num.degree == 1 and r.den.degree == 3
    # x^k with negative k is a Laurent monomial
    m = parse_element(F3, "2*x^-3")
    assert m.den == Poly.monomial(F3, 1, 3) and m.num == Poly.const(F3, 2)
    # extension-field coefficients ride in parens; bare t is not a term
    g = parse_element(F4, "(t+1)*x + (t)")
    assert g.num.coeff(1) == F4.undigits([1, 1])
    assert g.num.coeff(0) == F4.undigits([0, 1])
    # a parenthesized constant is a coefficient, as format_rat prints it
    assert parse_element(F4, "(t + 1)") == parse_element(F4, "(t+1)*x^0")
    assert parse_element(F4, "((t)) / (x + 1)").num.coeffs == (F4.undigits([0, 1]),)


@pytest.mark.parametrize(
    "bad",
    ["", "x*x", "t", "t*x", "x^", "1//x", "(x", "x)", "x^2^3", "y+1", "3/0"],
)
def test_parse_rejects(bad, F2):
    with pytest.raises(ParseError):
        parse_element(F2, bad)


def test_parse_t_requires_extension_field(F4, F3):
    assert parse_element(F4, "(t)*x^0").num.coeff(0) == F4.undigits([0, 1])
    with pytest.raises(ParseError):
        parse_element(F3, "(t+1)*x")


rat_f3 = st.builds(
    Rat,
    poly_f3,
    poly_f3.filter(lambda p: not p.is_zero),
)


@given(rat_f3, st.dictionaries(st.integers(-6, 6), st.integers(1, 2), max_size=5))
def test_results_built_without_a_gcd_are_in_lowest_terms(r, terms):
    # frac_part, to_rat and the parser skip the gcd; reducing their
    # results again must change nothing
    laurent = LaurentSeries.from_pairs(GF(3), terms, -7, exact=True)
    text = " + ".join(f"{c}*x^{e}" for e, c in terms.items()) or "0"
    for got in (r.frac_part(), laurent.to_rat(), parse_element(GF(3), text)):
        assert got == Rat(got.num, got.den)


@given(rat_f3)
def test_format_parse_round_trip(r):
    assert parse_element(GF(3), format_rat(r)) == r


@given(poly_f2)
def test_format_poly_round_trip(p):
    assert parse_element(GF(2), format_poly(p)) == Rat.from_poly(p)


@pytest.mark.parametrize("q", [4, 9])
def test_extension_field_format_parse_round_trip(q):
    # a constant entry prints as "(t + 1)"; what `reduce` prints must
    # load back as the same element
    field = _make_field(q)
    rng = random.Random(q)
    for _ in range(10):
        lat = random_lattice(rng, field, rng.choice([2, 3]))
        for col in lat.basis_rat():
            for r in col:
                assert parse_element(field, format_rat(r)) == r
        num = Poly(field, [rng.randrange(q) for _ in range(rng.randint(0, 2))])
        den = Poly(field, [rng.randrange(q) for _ in range(rng.randint(1, 3))] + [1])
        r = Rat(num, den)
        assert parse_element(field, format_rat(r)) == r


def test_series_literal_json(F2):
    s = series_from_json(F2, {"floor": -4, "top": -1, "coeffs": [1, 0, 1, 1]})
    assert s.coeff_exp(-1) == 1 and s.coeff_exp(-2) == 0 and s.floor == -4
    assert not s.exact
    e = series_from_json(
        F2, {"floor": -2, "top": -1, "coeffs": [1, 1], "exact": True}
    )
    assert e.exact
    for bad in (
        {"floor": -2, "coeffs": [1]},
        {"floor": -2, "top": -1, "coeffs": [1, 1, 1]},
        {"floor": "x", "top": -1, "coeffs": [1]},
        {"floor": -2, "top": -1, "coeffs": [9]},
    ):
        with pytest.raises(ParseError):
            series_from_json(F2, bad)
    assert format_series(s) == "x^-1 + x^-3 + x^-4"

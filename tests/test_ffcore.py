"""Base arithmetic: F_q, polynomials, rationals, series, parsing."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fflat import (
    GF,
    LaurentSeries,
    ParseError,
    Poly,
    QExp,
    Rat,
    expand_rational,
    parse_element,
)
from fflat.battery import random_lattice
from fflat.errors import InsufficientPrecision
from fflat.ffcore import (
    field_of_order as _make_field,
    format_poly,
    format_rat,
    format_series,
    poly_gcd,
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

    def digits(a):
        return [a // p**i % p for i in range(k)]

    def undigits(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    def add(a, b):
        return undigits(x + y for x, y in zip(digits(a), digits(b)))

    def neg(a):
        return undigits(-x for x in digits(a))

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b), i):
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


# past 2^8 the extension fields compute on digit vectors with the prime
# field's kernels: the packed product at 2^9, 3^6 and 2^16, the
# schoolbook one at 17^2, whose (p-1)^2 leaves no byte room
DIGIT_PATH_FIELDS = [_make_field(2**9), _make_field(17**2), _make_field(3**6), _make_field(2**16)]


@pytest.mark.parametrize(
    "field",
    FIELDS
    + [GF(3, 2, (2, 2, 1)), NON_PRIMITIVE_T, _make_field(2**8), _make_field(3**5)]
    + DIGIT_PATH_FIELDS,
    ids=lambda f: f"q{f.q}_{''.join(map(str, f.modulus))}",
)
def test_field_arithmetic_equals_digit_reference(field):
    """Every pair up to 2^8 elements; past that 2000 sampled pairs, 200
    at 2^16, where the reference inverse dominates the time."""
    add, neg, mul, inv = _digit_reference(field)
    q = field.q
    if q <= 2**8:
        pairs = list(product(range(q), repeat=2))
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(200 if q == 2**16 else 2000)]
    for a in sorted({a for a, _b in pairs}):
        assert field.neg(a) == neg(a)
        if a:
            assert field.inv(a) == inv(a)
    for a, b in pairs:
        assert field.add(a, b) == add(a, b)
        assert field.sub(a, b) == add(a, neg(b))
        assert field.mul(a, b) == mul(a, b)


def test_default_moduli_are_pinned():
    """field_of_order's modulus, the first irreducible one in base-p
    counting order, for the orders the CLI and the battery build."""
    pinned = {
        4: (1, 1, 1),
        8: (1, 1, 0, 1),
        9: (1, 0, 1),
        16: (1, 1, 0, 0, 1),
        25: (2, 0, 1),
        27: (1, 2, 0, 1),
        49: (1, 0, 1),
        289: (3, 0, 1),
        512: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
        729: (2, 1, 0, 0, 0, 0, 1),
        2**16: (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
        3**10: (1, 0, 2) + (0,) * 7 + (1,),
    }
    assert {q: _make_field(q).modulus for q in pinned} == pinned


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


def _ref_poly(field, cs):
    """The checked Poly of a reference coefficient list."""
    return Poly(field, list(cs))


def _ref_add(field, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [field.add(x, y) for x, y in zip(a, b)]


def _ref_mul(field, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _ref_divmod(field, a, b):
    """Long division of a by b, b with a nonzero last entry, one
    coefficient of the quotient at a time, from the top."""
    rem, db = list(a), len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    inv = field.inv(b[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = quo[i - db] = field.mul(rem[i], inv)
        for j, y in enumerate(b):
            rem[i - db + j] = field.sub(rem[i - db + j], field.mul(c, y))
    return quo, rem[:db]


@st.composite
def _construction_case(draw):
    """A field and two coefficient lists that may end in zeros or be all
    zero; often b's top entries are those of -a, so that a + b cancels
    at the top (x + x over F_2 among them)."""
    field = _make_field(draw(st.sampled_from((2, 3, 4, 5, 9))))
    entries = st.lists(st.integers(0, field.q - 1), max_size=5)
    a = draw(entries) + [0] * draw(st.integers(0, 2))
    b = draw(entries) + [0] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(a)))
        b = b[:k] + [0] * (k - len(b)) + [field.neg(c) for c in a[k:]]
    return field, a, b, draw(st.integers(0, field.q - 1)), draw(st.integers(0, 3))


@settings(max_examples=300)
@given(_construction_case())
def test_every_poly_result_is_built_trimmed(case):
    """Each Poly operation, including those that build their result
    unchecked, gives a coefficient tuple without a trailing zero, equal
    to the checked Poly of a schoolbook reference: operands with
    trailing zeros, zero operands, scale and monomial by 0, and sums
    whose top terms cancel."""
    field, a, b, c, k = case
    pa, pb = Poly(field, a), Poly(field, b)
    results = [
        (pa + pb, _ref_add(field, a, b)),
        (pa - pb, _ref_add(field, a, [field.neg(y) for y in b])),
        (pa + pa, _ref_add(field, a, a)),
        (pa - pa, []),
        (-pa, [field.neg(x) for x in a]),
        (pa * pb, _ref_mul(field, a, b)),
        (pa.scale(c), [field.mul(x, c) for x in a]),
        (pa.shift(k), [0] * k + a),
        (Poly.monomial(field, c, k), [0] * k + [c]),
    ]
    if not pa.is_zero:
        results.append((pa.monic(), [field.mul(x, field.inv(pa.lc())) for x in a]))
    if not pb.is_zero:
        quo, rem = _ref_divmod(field, a, list(pb.coeffs))
        results += list(zip(divmod(pa, pb), (quo, rem)))
    for got, want in results:
        assert isinstance(got.coeffs, tuple)
        assert not got.coeffs or got.coeffs[-1] != 0
        assert got == _ref_poly(field, want)


def test_fields_and_their_zero_and_one_are_built_once():
    """field_of_order returns one GF per (q, modulus), a list modulus
    read as the tuple, and each GF one zero and one of F_q[x]."""
    assert _make_field(3) is _make_field(3)
    assert _make_field(9) is _make_field(9)
    assert _make_field(4, [1, 1, 1]) is _make_field(4, (1, 1, 1))
    for field in (_make_field(3), _make_field(4, [1, 1, 1]), GF(5)):
        assert Poly.zero(field) is Poly.zero(field)
        assert Poly.one(field) is Poly.one(field)
        assert Poly.zero(field) == Poly(field, [0]) and Poly.one(field) == Poly(field, [1, 0])
        assert Poly.monomial(field, 0, 2) is Poly.zero(field)


# zero, a nonzero constant and a general operand, each drawn often
lcm_operands = st.one_of(
    st.just(Poly.zero(GF(3))),
    st.integers(1, 2).map(lambda c: Poly(GF(3), (c,))),
    poly_f3,
)


@given(a=lcm_operands, b=lcm_operands)
def test_poly_lcm_is_the_product_over_the_gcd(a, b):
    """The c*x^k path changes no lcm: poly_lcm is a*b / gcd(a, b)
    made monic, and 0 when either operand is."""
    if a.is_zero or b.is_zero:
        assert poly_lcm(a, b).is_zero
    else:
        assert poly_lcm(a, b) == ((a * b) // poly_gcd(a, b)).monic()


def _long_divmod(a, b):
    """a by b, one leading term at a time, without divmod_coeffs."""
    f = a.field
    inv = f.inv(b.lc())
    quo, rem = Poly.zero(f), a
    while rem.degree >= b.degree:
        t = Poly.monomial(f, f.mul(rem.lc(), inv), rem.degree - b.degree)
        quo, rem = quo + t, rem - t * b
    return quo, rem


def _euclid(a, b):
    """The monic gcd by Euclid on _long_divmod."""
    while not b.is_zero:
        a, b = b, _long_divmod(a, b)[1]
    return a.monic()


def _lowest_terms(num, den):
    """num / den over the gcd, the denominator made monic."""
    if num.is_zero:
        return num, Poly.one(num.field)
    g = _euclid(num, den)
    num, den = _long_divmod(num, g)[0], _long_divmod(den, g)[0]
    inv = den.field.inv(den.lc())
    return num.scale(inv), den.scale(inv)


# c*x^k operands, c != 1 included, over prime and extension fields
XPOW_FIELDS = [_make_field(q) for q in (2, 3, 5, 4, 9)]


@st.composite
def xpow_cases(draw):
    """A field, two monomials c*x^k and a polynomial x^j * u, j up to 16."""
    f = draw(st.sampled_from(XPOW_FIELDS))
    c, d = draw(st.integers(1, f.q - 1)), draw(st.integers(1, f.q - 1))
    m = Poly.monomial(f, c, draw(st.integers(0, 12)))
    m2 = Poly.monomial(f, d, draw(st.integers(0, 12)))
    u = draw(st.lists(st.integers(0, f.q - 1), max_size=8))
    return m, m2, Poly(f, [0] * draw(st.integers(0, 16)) + u)


@settings(max_examples=300)
@given(xpow_cases())
def test_x_power_paths_are_euclid(case):
    """The c*x^k paths of Rat, divmod_coeffs and poly_lcm give what a
    gcd by Euclid and long division give."""
    m, m2, a = case
    f = a.field
    r = Rat(a, m)
    assert (r.num, r.den) == _lowest_terms(a, m)
    quo, rem = f.divmod_coeffs(a.coeffs, m.coeffs)
    assert len(rem) <= m.degree
    assert (Poly(f, quo), Poly(f, rem)) == _long_divmod(a, m)
    assert poly_lcm(m, m2) == _long_divmod(m * m2, _euclid(m, m2))[0].monic()
    if not a.is_zero:
        want = _long_divmod(m * a, _euclid(m, a))[0].monic()
        assert poly_lcm(m, a) == want and poly_lcm(a, m) == want


def test_x_power_denominators_take_no_gcd(monkeypatch):
    """Rat over x^k or a constant, the lcm of powers of x and the common
    denominator of coset-style coordinates (tails x^-1 .. x^-3) never
    call poly_gcd."""
    from fflat import exactlinalg, ffcore

    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(ffcore, "poly_gcd", refuse)
    F = GF(3)
    num = Poly(F, (0, 0, 2, 1, 0, 1))
    r = Rat(num, Poly.monomial(F, 2, 4))
    assert (r.num, r.den) == (Poly(F, (1, 2, 0, 2)), Poly.monomial(F, 1, 2))
    r = Rat(num, Poly.const(F, 2))
    assert (r.num, r.den) == (Poly(F, (0, 0, 1, 2, 0, 2)), Poly.one(F))
    assert poly_lcm(Poly.monomial(F, 2, 3), Poly.monomial(F, 1, 5)) == Poly.monomial(F, 1, 5)
    ys = [parse_element(F, s) for s in ("x^-1 + 2x^-3", "2", "x^-2", "x + x^-1")]
    assert exactlinalg._common_den(F, ys) == Poly.monomial(F, 1, 3)
    M = [[Poly(F, (1, 1)), Poly.one(F), Poly.zero(F), Poly.one(F)]]
    assert exactlinalg._mat_vec(M, ys) == [parse_element(F, "x + 2x^-1 + 2x^-2 + 2x^-3")]


def test_abs_value_examples(F2):
    assert parse_element(F2, "x^2+1").val() == QExp(2)
    assert parse_element(F2, "1/(x^3+x+1)").val() == QExp(-3)
    assert parse_element(F2, "0").val().is_zero


@given(a=poly_f3, b=poly_f3)
def test_abs_multiplicative_and_ultrametric(a, b):
    ra, rb = Rat.from_poly(a), Rat.from_poly(b)
    assert (ra * rb).val() == ra.val() * rb.val()
    s = Rat.from_poly(a + b)
    assert s.val() <= max(ra.val(), rb.val())


def test_rat_lowest_terms(F2):
    x = Poly.x(F2)
    r = Rat((x + Poly.one(F2)) * x, x)
    assert r.num == x + Poly.one(F2) and r.den == Poly.one(F2)
    r = Rat(Poly.zero(F2), x)
    assert r.num.is_zero and r.den == Poly.one(F2)


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f"q{f.q}")
def test_rat_mul_xpow_is_the_reduced_product(field):
    """mul_xpow cancels only powers of x, without a gcd; it equals
    Rat(num x^k, den) or Rat(num, den x^-k) with x dividing num or den,
    and leaves zero alone."""
    rng = random.Random(field.q)

    def poly(i):
        coeffs = [rng.randrange(field.q) for _ in range(rng.randint(0, 3))]
        return Poly(field, [0] * i + coeffs + [1])

    rats = [Rat(Poly.zero(field))]
    rats += [Rat(poly(rng.randint(0, 4)), poly(rng.randint(0, 4))) for _ in range(30)]
    for r in rats:
        for k in range(-8, 9):
            want = Rat(r.num.shift(k), r.den) if k >= 0 else Rat(r.num, r.den.shift(-k))
            assert r.mul_xpow(k) == want


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
    t = s.frac_part()
    assert t.coeffs == (1,) and t.top == -1 and t.exact
    p = LaurentSeries.from_poly(Poly(F2, (1, 1, 1)))
    assert p.frac_part().is_exact_zero
    # (x^3+1)/(x^3+x+1) = 1 + x/(x^3+x+1): the fractional part is the
    # expansion of x/(x^3+x+1)
    f = parse_element(F2, "(x^3+1)/(x^3+x+1)")
    got = expand_rational(f, -9).frac_part()
    want = expand_rational(parse_element(F2, "x/(x^3+x+1)"), -9)
    for e in range(-1, -9, -1):
        assert got.coeff_exp(e) == want.coeff_exp(e)


@given(a=poly_f2, b=poly_f2)
def test_frac_part_linear(a, b):
    x3 = Poly(GF(2), (1, 1, 0, 1))
    sa = expand_rational(Rat(a, x3), -10)
    sb = expand_rational(Rat(b, x3), -10)
    lhs = (sa + sb).frac_part()
    rhs = sa.frac_part() + sb.frac_part()
    for e in range(-1, -9, -1):
        assert lhs.coeff_exp(e) == rhs.coeff_exp(e)
    assert sa.frac_part().frac_part().coeffs == sa.frac_part().coeffs


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
    ["", "x*x", "t", "t*x", "x^", "1//x", "(x", "x)", "x^2^3", "y+1", "3/0",
     "(3-)", "()x", "(())", "*x", "x*", "1 2", "x^-", "((t))*x", "x^²", "x^٣"],
)
def test_parse_rejects(bad, F2, F4):
    for field in (F2, F4):
        with pytest.raises(ParseError):
            parse_element(field, bad)


@pytest.mark.parametrize(
    "q, text, printed",
    [
        (3, "2x", "2*x"),
        (3, "x ^ -2", "x^-2"),
        (3, "x^+3", "x^3"),
        (4, "(t)x", "(t)*x"),
        (4, "((t))", "(t)"),
        (3, "- x + 1", "2*x + 1"),
        (3, "((x+1))/(x)", "1 + x^-1"),
    ],
)
def test_parse_accepts(q, text, printed):
    assert format_rat(parse_element(_make_field(q), text)) == printed


def test_parse_t_requires_extension_field(F4, F3):
    assert parse_element(F4, "(t)*x^0").num.coeff(0) == F4.undigits([0, 1])
    for bad in ("(t+1)*x", "(2*t^0)"):
        with pytest.raises(ParseError):
            parse_element(F3, bad)


@st.composite
def _rendered_sums(draw):
    """(field, text, value): a random list of terms rendered in the
    element grammar with random spaces, and the sum of its terms.  F_9
    is the one field here where a t-sum's signs matter."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(2, 2, (1, 1, 1)), GF(3, 2, (1, 0, 1))]))
    t = field.undigits([0, 1])

    def sp():
        return draw(st.sampled_from(["", "", " ", "  "]))

    def coefficient(var):
        """None for an implicit 1, or (text, value): an integer, or over
        an extension field a parenthesized t-sum as an x-sum's
        coefficient."""
        kinds = ["none", "int", "t-sum"] if var == "x" and field.k > 1 else ["none", "int"]
        kind = draw(st.sampled_from(kinds))
        if kind == "none":
            return None
        if kind == "int":
            n = draw(st.integers(0, 20))
            return str(n), n % field.p
        terms = terms_of("t", 0)
        value = 0
        for _text, c, e in terms:
            value = field.add(value, field.mul(c, field.pow(t, e)))
        return "(" + sp() + "".join(text for text, _c, _e in terms) + ")", value

    def terms_of(var, lo):
        """A sum's terms: (text, coefficient, exponent)."""
        out = []
        for i in range(draw(st.integers(1, 4))):
            sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
            coef = coefficient(var)
            text = sign + sp() + ("" if coef is None else coef[0])
            exp = 0
            if coef is None or draw(st.booleans()):
                exp = draw(st.integers(lo, 9))
                if coef is not None:
                    text += sp() + draw(st.sampled_from(["*", ""])) + sp()
                text += var
                if exp != 1 or draw(st.booleans()):
                    plus = "+" if exp >= 0 and draw(st.booleans()) else ""
                    text += sp() + "^" + sp() + plus + str(exp)
            c = 1 if coef is None else coef[1]
            out.append((text + sp(), field.neg(c) if sign == "-" else c, exp))
        return out

    value = Rat.from_poly(Poly.zero(field))
    terms = terms_of("x", -9)
    for _text, c, e in terms:
        if c:
            value = value + Rat.x_power(field, e).scale(c)
    return field, sp() + "".join(text for text, _c, _e in terms), value


@given(_rendered_sums())
def test_parse_reads_every_rendered_sum(case):
    field, text, value = case
    assert parse_element(field, text) == value


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
        xs = Poly.monomial(field, 1, lat.shift)
        for row in lat.G:
            for g in row:
                r = Rat(g, xs)
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


def test_series_literal_flags_are_json_types(F2, F4):
    """exact is a JSON boolean and floor and top are integers: the
    string "false" would otherwise read as exact, and true as 1."""
    for bad in (
        {"floor": -3, "top": -1, "coeffs": [1, 0, 1], "exact": "false"},
        {"floor": -3, "top": -1, "coeffs": [1, 0, 1], "exact": 0},
        {"floor": True, "top": 1, "coeffs": [1]},
        {"floor": 0, "top": True, "coeffs": [1, 1]},
    ):
        with pytest.raises(ParseError):
            series_from_json(F2, bad)
    for digits in ([1.5], [True], ["a"]):
        with pytest.raises(ParseError):
            series_from_json(F4, {"floor": -1, "top": -1, "coeffs": [digits]})

"""Exact arithmetic over F_q, F_q[x], F_q(x), and truncated F_q((1/x)).

Conventions used throughout the package:

* Field elements are plain ints in [0, q).  For q = p^k the int encodes
  the coefficient vector of the residue class in t, lowest digit first:
  n = a_0 + a_1*p + ... + a_{k-1}*p^(k-1).  Over F_p, polynomial and
  series loops add plain int products and reduce mod p once per output
  coefficient.  Extension fields with q <= 2^8 look elements up in
  log/antilog/Zech tables built when the GF is constructed; larger ones
  compute in F_p[t] modulo the defining polynomial.
* Polynomials store coefficient tuples lowest degree first with no
  trailing zeros.  The zero polynomial has an empty tuple and degree -1.
* Rational functions are kept canonical: gcd(num, den) = 1, den monic.
* Laurent series in 1/x are truncated expansions: a coefficient tuple
  for exponents `top` down to `floor`, highest first, plus an `exact`
  flag meaning every omitted lower coefficient is zero.  Arithmetic
  never fabricates knowledge below the soundly derivable floor.
* Absolute values, norms and volumes live in the value group
  q^Z union {0}; QExp carries the integer exponent, None for the 0.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InsufficientPrecision, ParseError


# --- prime fields and their extensions ---------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for m in range(2, int(n**0.5) + 1):
        if n % m == 0:
            return False
    return True


def _fp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over F_p; b nonzero, coefficients lowest first."""
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        _fp_trim(a)
    return a


# extension fields up to this size compute with log/antilog/Zech tables;
# larger ones keep the digit arithmetic, whose set-up costs nothing
_TABLE_MAX_Q = 2**8


class GF:
    """The finite field F_q, q = p^k, with int-encoded elements.

    `modulus` is the defining polynomial over F_p (lowest first, monic,
    length k+1, coefficients in 0..p-1); it is required exactly when
    k > 1 and is checked for irreducibility by trial division.

    Besides the element operations, GF has kernels on coefficient
    sequences (`add_coeffs`, `neg_coeffs`, `scale_coeffs`, `mul_coeffs`,
    `divmod_coeffs`), which Poly and LaurentSeries call, so that the
    choice of arithmetic lives here alone.
    """

    __slots__ = ("p", "k", "q", "modulus", "_residues", "_log", "_exp", "_zech")

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not _is_prime(p) or p > 17:
            raise ParseError(f"field characteristic must be a prime <= 17, got {p}")
        if k < 1:
            raise ParseError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > 2**16:
            raise ParseError(f"field size {q} exceeds the 2^16 ceiling")
        if k == 1:
            if modulus is not None and list(modulus) != [0, 1]:
                raise ParseError("modulus is only meaningful for k > 1")
            modulus = (0, 1)
        else:
            if modulus is None:
                raise ParseError(f"extension field F_{p}^{k} needs a modulus")
            if not all(0 <= c < p for c in modulus):
                raise ParseError("modulus: coefficients must lie in 0..p-1")
            modulus = tuple(modulus)
            if len(modulus) != k + 1 or modulus[-1] == 0:
                raise ParseError(f"modulus must have degree {k}")
            if modulus[-1] != 1:
                inv = pow(modulus[-1], p - 2, p)
                modulus = tuple(c * inv % p for c in modulus)
            if not self._irreducible(list(modulus), p):
                raise ParseError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        # byte c -> c mod p, for products packed one coefficient a byte
        self._residues = bytes(c % p for c in range(256))
        self._log = self._exp = self._zech = None
        if k > 1 and q <= _TABLE_MAX_Q:
            self._build_tables()

    @staticmethod
    def _irreducible(m: list[int], p: int) -> bool:
        deg = len(m) - 1
        for d in range(1, deg // 2 + 1):
            # all monic divisor candidates of degree d
            for n in range(p**d):
                cand = []
                v = n
                for _ in range(d):
                    cand.append(v % p)
                    v //= p
                cand.append(1)
                if not _fp_mod(m, cand, p):
                    return False
        return True

    def _build_tables(self):
        """Powers of a primitive element g (found by search: t need not
        be primitive), their logs, and the Zech logs log(1 + g^m), with
        None standing for the log of 0."""
        n = self.q - 1
        for g in range(self.p, self.q):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._digit_mul(x, g)
            if len(exp) == n:
                break
        log = [None] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log
        self._zech = [log[self._digit_add(1, x)] for x in exp]

    # -- encoding --

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def undigits(self, ds) -> int:
        n = 0
        for d in reversed(list(ds)):
            n = n * self.p + d % self.p
        return n

    def from_int(self, c: int) -> int:
        """Embed an ordinary integer via its residue mod p."""
        return c % self.p

    def elements(self) -> range:
        return range(self.q)

    # -- digit arithmetic in F_p[t] modulo the defining polynomial --

    def _digit_add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.undigits((x + y) % self.p for x, y in zip(da, db))

    def _digit_neg(self, a: int) -> int:
        return self.undigits(-x % self.p for x in self.digits(a))

    def _digit_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        prod = _fp_mod(prod, list(self.modulus), self.p)
        return self.undigits(prod + [0] * (self.k - len(prod)))

    # -- arithmetic on encoded elements --

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self._log is None:
            return self._digit_add(a, b)
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i (1 + g^(j-i))
        n = self.q - 1
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        return 0 if z is None else self._exp[(la + z) % n]

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self._log is None:
            return self._digit_neg(a)
        if not a:
            return 0
        # -1 = p - 1 in the encoding
        return self._exp[(self._log[a] + self._log[self.p - 1]) % (self.q - 1)]

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if self._log is None:
            return self._digit_mul(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is None:
            return self.pow(a, self.q - 2)
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    # -- kernels on coefficient sequences --
    #
    # Over F_p the loops take plain int sums and products and reduce
    # each output coefficient once; over F_p^k they call the element
    # operations above.

    def add_coeffs(self, a, b) -> list[int]:
        """a + b entry by entry, aligned at index 0; the shorter one is
        read as padded with zeros."""
        if len(a) < len(b):
            a, b = b, a
        if self.k == 1:
            p = self.p
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            add = self.add
            out = [add(x, y) for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return out

    def neg_coeffs(self, a) -> list[int]:
        if self.k == 1:
            p = self.p
            return [-x % p for x in a]
        neg = self.neg
        return [neg(x) for x in a]

    def scale_coeffs(self, a, c: int) -> list[int]:
        if c == 1:
            return list(a)
        if self.k == 1:
            p = self.p
            return [x * c % p for x in a]
        mul = self.mul
        return [mul(x, c) for x in a]

    def mul_coeffs(self, a, b, size: int | None = None) -> list[int]:
        """The first `size` coefficients of the product of a and b (all
        of them by default): out[m] = sum of a[i] * b[m - i]."""
        n = len(a) + len(b) - 1
        if size is None:
            size = n
        if self.k == 1 and min(len(a), len(b)) * (self.p - 1) ** 2 < 256:
            # Kronecker substitution: read a and b as integers with one
            # coefficient a byte; no sum of products overflows its byte
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return list(prod.to_bytes(n, "little")[:size].translate(self._residues))
        out = [0] * size
        if self.k == 1:
            for i, x in enumerate(a[:size]):
                if x:
                    for m, y in enumerate(b[: size - i], i):
                        out[m] += x * y
            p = self.p
            return [c % p for c in out]
        add, mul = self.add, self.mul
        for i, x in enumerate(a[:size]):
            if x:
                for m, y in enumerate(b[: size - i], i):
                    if y:
                        out[m] = add(out[m], mul(x, y))
        return out

    def divmod_coeffs(self, a, b):
        """Quotient and remainder of a by b as polynomials, lowest
        coefficient first; b has a nonzero last entry.  The remainder
        has at most len(b) - 1 entries; either list may end in zeros."""
        db = len(b) - 1
        if len(a) <= db:
            return [], list(a)
        if db == 0:
            return self.scale_coeffs(a, self.inv(b[0])), []
        rem = list(a)
        quo = [0] * (len(rem) - db)
        inv_lead = self.inv(b[-1])
        low = b[:-1]
        if self.k == 1:
            p = self.p
            for i in range(len(rem) - 1, db - 1, -1):
                c = rem[i] * inv_lead % p
                if c:
                    quo[i - db] = c
                    for m, bc in enumerate(low, i - db):
                        rem[m] -= c * bc
            return quo, [c % p for c in rem[:db]]
        add, mul = self.add, self.mul
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i]:
                c = mul(rem[i], inv_lead)
                quo[i - db] = c
                c = self.neg(c)
                for m, bc in enumerate(low, i - db):
                    rem[m] = add(rem[m], mul(c, bc))
        return quo, rem[:db]

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"


def _prime_power(q: int):
    if q < 2:
        raise ParseError(f"q: must be a prime power >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ParseError(f"q: {q} is not a prime power")
    return p, k


def field_of_order(q: int, modulus=None) -> GF:
    """F_q; for q = p^k, k > 1, without a modulus the first irreducible
    one in base-p counting order."""
    p, k = _prime_power(q)
    if k == 1 or modulus is not None:
        return GF(p, k, modulus)
    for n in range(p ** k, 2 * p ** k):
        digits = []
        v = n
        for _ in range(k + 1):
            digits.append(v % p)
            v //= p
        if digits[-1] != 1:
            continue
        try:
            return GF(p, k, tuple(digits))
        except ParseError:
            continue
    raise ParseError(f"no modulus found for q={q}")


# --- exponents in the value group q^Z union {0} ------------------------


class QExp:
    """An element of q^Z union {0}: the exponent, or None for the value 0.

    Ordered with 0 below every power; multiplication adds exponents.
    The comparison and arithmetic never need to know q itself.
    """

    __slots__ = ("exp",)

    def __init__(self, exp):
        self.exp = exp if exp is None else int(exp)

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def __mul__(self, other: "QExp") -> "QExp":
        if self.exp is None or other.exp is None:
            return QExp(None)
        return QExp(self.exp + other.exp)

    def __truediv__(self, other: "QExp") -> "QExp":
        if other.exp is None:
            raise ZeroDivisionError("division by the zero value")
        if self.exp is None:
            return QExp(None)
        return QExp(self.exp - other.exp)

    def __eq__(self, other):
        if not isinstance(other, QExp):
            return NotImplemented
        return self.exp == other.exp

    def __lt__(self, other: "QExp") -> bool:
        if other.exp is None:
            return False
        if self.exp is None:
            return True
        return self.exp < other.exp

    def __le__(self, other: "QExp") -> bool:
        return self == other or self < other

    def __gt__(self, other: "QExp") -> bool:
        return not self <= other

    def __ge__(self, other: "QExp") -> bool:
        return not self < other

    def __hash__(self):
        return hash(("QExp", self.exp))

    def __repr__(self):
        return "0" if self.exp is None else f"q^{self.exp}"


QEXP_ZERO = QExp(None)


def qpow_fraction(q: int, e: int) -> Fraction:
    """q**e as an exact Fraction, e any integer."""
    if e >= 0:
        return Fraction(q**e)
    return Fraction(1, q**-e)


# --- polynomials over F_q ----------------------------------------------


class Poly:
    """Dense polynomial over a GF, coefficients lowest degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def const(cls, field: GF, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def x(cls, field: GF) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: GF, c: int, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls(field, (0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (callers must guard)."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("leading coefficient of 0")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def to_rat(self) -> "Rat":
        return Rat.from_poly(self)

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        f = self.field
        return Poly(f, f.scale_coeffs(self.coeffs, f.inv(self.lc())))

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly.zero(f)
        if c == 1:
            return self
        return Poly(f, f.scale_coeffs(self.coeffs, c))

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k, k >= 0."""
        if self.is_zero or k == 0:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        return Poly(f, f.add_coeffs(self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, f.neg_coeffs(self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if len(b) == 1:
            return self.scale(b[0])
        if len(a) == 1:
            return other.scale(a[0])
        return Poly(f, f.mul_coeffs(a, b))

    def mul_poly(self, p: "Poly") -> "Poly":
        """self * p, under the name Rat and LaurentSeries share."""
        return self * p

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        quo, rem = f.divmod_coeffs(self.coeffs, other.coeffs)
        return Poly(f, quo), Poly(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return format_poly(self)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero(a.field)
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


# --- rational functions -------------------------------------------------


class Rat:
    """Element of F_q(x) in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, _canonical=False):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Poly.one(num.field)
        elif not _canonical:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            if not den.is_monic:
                f = num.field
                inv = f.inv(den.lc())
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "Rat":
        return cls(p, Poly.one(p.field), _canonical=True)

    @classmethod
    def x_power(cls, field: GF, k: int) -> "Rat":
        """x^k for any integer k."""
        if k >= 0:
            return cls.from_poly(Poly.monomial(field, 1, k))
        return cls(Poly.one(field), Poly.monomial(field, 1, -k), _canonical=True)

    @property
    def field(self) -> GF:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "Rat") -> "Rat":
        return Rat(self.num * other.den + other.num * self.den, self.den * other.den)

    def add_poly(self, p: Poly) -> "Rat":
        # gcd(num + p*den, den) = gcd(num, den) = 1, so no reduction needed
        return Rat(self.num + p * self.den, self.den, _canonical=True)

    def __neg__(self) -> "Rat":
        return Rat(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "Rat") -> "Rat":
        return self + (-other)

    def __mul__(self, other: "Rat") -> "Rat":
        return Rat(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Rat") -> "Rat":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return Rat(self.num * other.den, self.den * other.num)

    def mul_poly(self, p: Poly) -> "Rat":
        return Rat(self.num * p, self.den)

    # the name LaurentSeries shares
    mul_rat = __mul__

    def mul_xpow(self, k: int) -> "Rat":
        """Multiply by x^k for any integer k."""
        if k == 0:
            return self
        if k > 0:
            return Rat(self.num.shift(k), self.den)
        return Rat(self.num, self.den.shift(-k))

    def to_rat(self) -> "Rat":
        """Itself, as an exact series' to_rat is a Rat."""
        return self

    def scale(self, c: int) -> "Rat":
        """Multiply by the constant c of F_q."""
        return Rat(self.num.scale(c), self.den, _canonical=True)

    def frac_part(self) -> "Rat":
        # gcd(num mod den, den) = gcd(num, den) = 1
        return Rat(self.num % self.den, self.den, _canonical=True)

    def val(self) -> QExp:
        """Absolute value exponent: deg num - deg den, or 0 for the zero."""
        if self.is_zero:
            return QEXP_ZERO
        return QExp(self.num.degree - self.den.degree)

    def __eq__(self, other):
        return (
            isinstance(other, Rat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return format_rat(self)


def abs_value(f) -> QExp:
    """|f| as a QExp for a Poly or Rat."""
    if isinstance(f, Poly):
        return QEXP_ZERO if f.is_zero else QExp(f.degree)
    return f.val()


# --- truncated Laurent series in 1/x ------------------------------------


class LaurentSeries:
    """Truncated element of F_q((1/x)).

    `coeffs` holds the coefficients for exponents top down to floor,
    highest first, with top = floor + len(coeffs) - 1.  Leading zeros
    are stripped (they are known), so coeffs[0] != 0 when nonempty.
    `exact` means every coefficient below floor is zero.  The canonical
    exact zero has empty coeffs and floor 1.
    """

    __slots__ = ("field", "coeffs", "floor", "exact")

    def __init__(self, field: GF, coeffs, floor: int, exact: bool = False):
        cs = list(coeffs)
        top = floor + len(cs) - 1
        while cs and cs[0] == 0:
            cs.pop(0)
            top -= 1
        if exact:
            while cs and cs[-1] == 0:
                cs.pop()
                floor += 1
            if not cs:
                floor = 1
            else:
                floor = top - len(cs) + 1
        self.field = field
        self.coeffs = tuple(cs)
        self.floor = floor
        self.exact = exact

    # -- constructors --

    @classmethod
    def exact_zero(cls, field: GF) -> "LaurentSeries":
        return cls(field, (), 1, exact=True)

    @classmethod
    def from_poly(cls, p: Poly) -> "LaurentSeries":
        return cls(p.field, tuple(reversed(p.coeffs)), 0, exact=True)

    @classmethod
    def from_pairs(cls, field: GF, pairs, floor: int, exact: bool = False):
        """Build from {exponent: coefficient}; unlisted exponents are 0."""
        if not isinstance(pairs, dict):
            pairs = dict(pairs)
        if pairs:
            top = max(pairs)
            top = max(top, floor - 1)
        else:
            top = floor - 1
        cs = [pairs.get(n, 0) for n in range(top, floor - 1, -1)]
        return cls(field, cs, floor, exact)

    # -- basic queries --

    @property
    def top(self) -> int:
        """Highest possibly nonzero exponent (exact bound when nonempty)."""
        return self.floor + len(self.coeffs) - 1

    @property
    def is_known_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact_zero(self) -> bool:
        return self.exact and not self.coeffs

    def val(self) -> QExp:
        if self.coeffs:
            return QExp(self.top)
        if self.exact:
            return QEXP_ZERO
        raise InsufficientPrecision(
            f"leading term unknown: all coefficients above x^{self.floor} vanish "
            f"and the series is truncated there",
            needed_floor=self.floor - 1,
        )

    def coeff_exp(self, n: int) -> int:
        """Coefficient of x^n; raises when the truncation hides it."""
        if n > self.top:
            return 0
        if n >= self.floor:
            return self.coeffs[self.top - n]
        if self.exact:
            return 0
        raise InsufficientPrecision(
            f"coefficient of x^{n} lies below the precision floor x^{self.floor}",
            needed_floor=n,
        )

    def eff_floor(self):
        return None if self.exact else self.floor

    # -- arithmetic --

    def _binary_floor(self, other: "LaurentSeries"):
        fa, fb = self.eff_floor(), other.eff_floor()
        if fa is None and fb is None:
            return None
        if fa is None:
            return fb
        if fb is None:
            return fa
        return max(fa, fb)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        f = self.field
        floor = self._binary_floor(other)
        exact = floor is None
        if exact:
            if self.is_exact_zero:
                return other
            if other.is_exact_zero:
                return self
            floor = min(self.floor, other.floor)
        top = max(self.top, other.top, floor - 1)
        cs = f.add_coeffs(self._window(top, floor), other._window(top, floor))
        return LaurentSeries(f, cs, floor, exact)

    def _window(self, top: int, floor: int) -> list[int]:
        """Coefficients of x^top down to x^floor, for top >= self.top
        and floor at or above what the series knows."""
        width = top - floor + 1
        cs = [0] * (top - self.top) + list(self.coeffs[:width])
        return cs[:width] + [0] * (width - len(cs))

    def __neg__(self) -> "LaurentSeries":
        f = self.field
        return LaurentSeries(f, f.neg_coeffs(self.coeffs), self.floor, self.exact)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c: int) -> "LaurentSeries":
        f = self.field
        if c == 0:
            return LaurentSeries.exact_zero(f)
        if c == 1:
            return self
        return LaurentSeries(f, f.scale_coeffs(self.coeffs, c), self.floor, self.exact)

    def mul_xpow(self, k: int) -> "LaurentSeries":
        if self.is_exact_zero:
            return self
        return LaurentSeries(self.field, self.coeffs, self.floor + k, self.exact)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        f = self.field
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentSeries.exact_zero(f)
        fa, fb = self.eff_floor(), other.eff_floor()
        if fa is None and fb is None:
            floor = self.floor + other.floor
            exact = True
        else:
            exact = False
            cands = []
            if fa is not None:
                cands.append(fa + other.top)
            if fb is not None:
                cands.append(fb + self.top)
            floor = max(cands)
        top = self.top + other.top
        if top < floor:
            return LaurentSeries(f, (), floor, exact)
        # highest first on both sides: entry m of the product is x^(top - m)
        out = f.mul_coeffs(self.coeffs, other.coeffs, top - floor + 1)
        return LaurentSeries(f, out, floor, exact)

    def mul_poly(self, p: Poly) -> "LaurentSeries":
        return self * LaurentSeries.from_poly(p)

    def add_poly(self, p: Poly) -> "LaurentSeries":
        return self + LaurentSeries.from_poly(p)

    def mul_rat(self, r: Rat):
        """Multiply by an exact rational function.

        An exact series over a non-constant denominator is multiplied in
        Rat arithmetic and comes back as a Rat: as a series, the product
        would need a choice of floor.
        """
        if r.is_zero:
            return LaurentSeries.exact_zero(self.field)
        den = r.den
        if self.exact and den.degree > 0:
            return self.to_rat() * r
        s = self.mul_poly(r.num)
        if den.degree == 0:
            return s
        if s.is_known_zero:
            return LaurentSeries(self.field, (), s.floor - den.degree, False)
        recip_floor = s.floor - den.degree - s.top
        recip = expand_rational(Rat(Poly.one(self.field), den, _canonical=True), recip_floor)
        return s * recip

    # -- decomposition --

    def frac_part(self) -> "LaurentSeries":
        """The part with exponents <= -1; keeps the floor."""
        if self.top <= -1:
            return self
        start = self.top - (-1)
        return LaurentSeries(self.field, self.coeffs[start:], self.floor, self.exact)

    def truncated(self, new_floor: int) -> "LaurentSeries":
        """Forget everything below new_floor; result is never exact."""
        if new_floor <= self.floor and not self.exact:
            return LaurentSeries(self.field, self.coeffs, self.floor, False)
        cs = [self.coeff_exp(n) for n in range(self.top, new_floor - 1, -1)]
        return LaurentSeries(self.field, cs, new_floor, False)

    def to_rat(self) -> Rat:
        """Exact series (a Laurent polynomial) as a rational function."""
        if not self.exact:
            raise ValueError("only exact series convert to rational functions")
        if not self.coeffs:
            return Rat.from_poly(Poly.zero(self.field))
        lo = self.floor
        p = Poly(self.field, tuple(reversed(self.coeffs)))
        if lo >= 0:
            return Rat.from_poly(p.shift(lo))
        # p(0) is the coefficient at the floor, nonzero for an exact series
        return Rat(p, Poly.monomial(self.field, 1, -lo), _canonical=True)

    def __eq__(self, other):
        # normalization makes (coeffs, floor, exact) canonical per value/knowledge
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.exact == other.exact
            and self.coeffs == other.coeffs
            and self.floor == other.floor
        )

    def __hash__(self):
        return hash((self.field, self.coeffs, self.exact, self.floor))

    def __repr__(self):
        body = format_series(self)
        tail = "" if self.exact else f" + O(x^{self.floor - 1})"
        return body + tail


def expand_rational(f: Rat, floor: int) -> LaurentSeries:
    """Laurent expansion of f at infinity down to `floor` by long division."""
    field = f.field
    if f.is_zero:
        return LaurentSeries.exact_zero(field)
    num, den = f.num, f.den  # den is monic
    top = num.degree - den.degree
    if top < floor:
        # every coefficient in the window is known zero, value hides below
        return LaurentSeries(field, (), floor, False)
    # num * x^s = quo * den + rem with |rem / den| < 1, so the
    # coefficient of x^n in f is that of x^(n + s) in quo for n >= -s;
    # the expansion stops (is exact) iff rem = 0 and quo has no term
    # below x^(floor + s)
    s = max(0, -floor)
    quo, rem = field.divmod_coeffs((0,) * s + num.coeffs, den.coeffs)
    low = floor + s
    exact = not any(rem) and not any(quo[:low])
    return LaurentSeries(field, quo[low:][::-1], floor, exact)


def frac_part(s):
    """Fractional part (exponents <= -1) of a Rat or LaurentSeries."""
    return s.frac_part()


# --- element grammar -----------------------------------------------------
#
# element  := side [ '/' side ]      (split at a top-level '/')
# side     := sum, optionally wrapped in parentheses; "(c)" with c free
#             of x is read as the coefficient c, so "(t + 1)" parses
# sum      := term (('+'|'-') term)*, the first term's sign optional
# term     := [coef] ['*'] [x ['^' exponent]], with a coef or an x, and
#             '*' only between the two
# coef     := integer | '(' t-sum ')'
# exponent := ['+'|'-'] integer       (the sign touching the digits)
# t-sum    := a sum in t with integer coefficients and exponents >= 0,
#             for extension fields only
#
# Integers are ASCII digits 0-9, read modulo p. Whitespace may stand
# between any two tokens, and a coefficient may touch its variable:
# "2x", "(t)x". One pattern matches a whole term of either sum.

_TERM = re.compile(
    r"\s*([+-]?)\s*(?:([0-9]+)|\(([^()]*)\))?\s*(\*?)\s*"
    r"(?:([xt])\s*(?:\^\s*([+-]?[0-9]+))?)?\s*"
)


# the largest absolute value read for an x exponent, a precision floor
# or a ball radius: each builds a dense coefficient list about that long
MAX_MAGNITUDE = 10**6


def check_magnitude(n: int, what: str) -> int:
    """n, or a ParseError naming what when |n| > MAX_MAGNITUDE."""
    if abs(n) > MAX_MAGNITUDE:
        raise ParseError(f"{what}: absolute value above {MAX_MAGNITUDE}")
    return n


def _split_toplevel_slash(s: str):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' in element {s!r}")
        elif ch == "/" and depth == 0:
            return s[:i], s[i + 1 :]
    if depth != 0:
        raise ParseError(f"unbalanced '(' in element {s!r}")
    return s, None


def _wrapped(s: str) -> bool:
    """Is s one parenthesized group, "(...)"?"""
    if not (s.startswith("(") and s.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return True


def _strip_outer_parens(s: str) -> str:
    s = s.strip()
    while _wrapped(s):
        inner = s[1:-1].strip()
        if "x" not in inner and not _wrapped(inner):
            # "(t + 1)": a parenthesized F_q constant is a coefficient
            break
        s = inner
    return s


def _sum(field: GF, text: str, pos: int, end: int, var: str) -> dict:
    """The sum in `var` that fills text[pos:end], as {exponent:
    coefficient}, one match of _TERM a term.  A parenthesized
    coefficient of an x-sum is a t-sum, read by this same loop."""
    terms: dict[int, int] = {}
    lead = True
    while True:
        m = _TERM.match(text, pos, end)
        sign, num, group, star, v, exp = m.groups()
        coef = num is not None or group is not None
        # a sign before every term but the first, a coefficient or the
        # variable, and '*' only between the two
        if not (
            (sign or lead) and (coef or v) and v in (None, var)
            and (not star or (coef and v))
        ):
            raise ParseError(f"bad term at position {pos} in {text!r}")
        try:
            c = 1 if num is None else int(num) % field.p
            e = 0 if v is None else 1 if exp is None else int(exp)
        except ValueError:
            # int() of a literal past Python's limit on decimal digits
            raise ParseError(f"integer literal at position {pos} has too many digits") from None
        if group is not None:
            c = 0
            for k, d in _sum(field, text, m.start(3), m.end(3), "t").items():
                # t is the element with digits (0, 1), encoded as p
                c = field.add(c, field.mul(d, field.pow(field.p, k)))
        if v == "t":
            if field.k == 1:
                raise ParseError("'t' is only valid for extension fields")
            if e < 0:
                raise ParseError("negative exponent of t")
        terms[e] = field.add(terms.get(e, 0), field.neg(c) if sign == "-" else c)
        pos = m.end()
        if pos == end:
            return terms
        lead = False


def _laurent_terms_to_rat(field: GF, terms: dict) -> Rat:
    terms = {e: c for e, c in terms.items() if c != 0}
    if not terms:
        return Rat.from_poly(Poly.zero(field))
    lo = min(min(terms), 0)
    check_magnitude(max(max(terms), -lo), "x exponent")
    cs = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        cs[e - lo] = c
    p = Poly(field, cs)
    if lo == 0:
        return Rat.from_poly(p)
    # p(0) is the nonzero coefficient of x^lo, so x does not divide p
    return Rat(p, Poly.monomial(field, 1, -lo), _canonical=True)


def _side(field: GF, text: str) -> Rat:
    text = _strip_outer_parens(text)
    if not text:
        raise ParseError("empty element string")
    return _laurent_terms_to_rat(field, _sum(field, text, 0, len(text), "x"))


def parse_element(field: GF, text: str) -> Rat:
    """Parse an element string (Laurent polynomial or quotient) into a Rat."""
    if not isinstance(text, str):
        raise ParseError(f"element must be a string, got {type(text).__name__}")
    left, right = _split_toplevel_slash(text.strip())
    num = _side(field, left)
    if right is None:
        return num
    den = _side(field, right)
    if den.is_zero:
        raise ParseError(f"zero denominator in element {text!r}")
    return num / den


def element(field: GF, obj):
    """An entry or coordinate over `field`: an element string, an int
    (read modulo p), a Poly or a Rat as a Rat; a LaurentSeries as it is."""
    if isinstance(obj, str):
        return parse_element(field, obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Rat.from_poly(Poly.const(field, field.from_int(obj)))
    if not isinstance(obj, (Poly, Rat, LaurentSeries)):
        raise ParseError(
            f"expected an element string or series literal, got {type(obj).__name__}"
        )
    if obj.field is not field and obj.field != field:
        raise ParseError(f"element over {obj.field}, expected {field}")
    return obj.to_rat() if isinstance(obj, Poly) else obj


def series_from_json(field: GF, obj) -> LaurentSeries:
    """Build a series from {"floor": f, "top": t, "coeffs": [...], "exact"?}."""
    if not isinstance(obj, dict):
        raise ParseError("series literal must be an object")
    for key in ("floor", "top", "coeffs"):
        if key not in obj:
            raise ParseError(f"series literal missing {key!r}")
    floor, top, coeffs = obj["floor"], obj["top"], obj["coeffs"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (floor, top)):
        raise ParseError("series floor and top must be integers")
    exact = obj.get("exact", False)
    if not isinstance(exact, bool):
        raise ParseError(f"series exact must be true or false, got {exact!r}")
    if not isinstance(coeffs, list) or len(coeffs) != top - floor + 1:
        raise ParseError(
            f"series coeffs must list top..floor: expected {top - floor + 1} entries"
        )
    out = []
    for c in coeffs:
        if isinstance(c, bool):
            raise ParseError(f"bad series coefficient {c!r}")
        if isinstance(c, int):
            if field.k == 1:
                out.append(c % field.p)
            elif 0 <= c < field.q:
                out.append(c)
            else:
                raise ParseError(f"series coefficient {c} outside [0, {field.q})")
        elif isinstance(c, list):
            if len(c) > field.k:
                raise ParseError(f"coefficient digit vector {c} longer than k")
            if any(not isinstance(x, int) or isinstance(x, bool) for x in c):
                raise ParseError(f"bad series coefficient {c!r}")
            out.append(field.undigits(c + [0] * (field.k - len(c))))
        else:
            raise ParseError(f"bad series coefficient {c!r}")
    return LaurentSeries(field, out, floor, exact)


# --- formatting ----------------------------------------------------------


def format_coeff(field: GF, c: int) -> str:
    if field.k == 1 or c < field.p:
        return str(c)
    ds = field.digits(c)
    parts = []
    for e in range(field.k - 1, -1, -1):
        d = ds[e]
        if d == 0:
            continue
        if e == 0:
            parts.append(str(d))
        elif e == 1:
            parts.append("t" if d == 1 else f"{d}*t")
        else:
            parts.append(f"t^{e}" if d == 1 else f"{d}*t^{e}")
    return "(" + " + ".join(parts) + ")"


def _format_terms(field: GF, terms) -> str:
    # terms: list of (exponent, coefficient), highest exponent first
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        cs = format_coeff(field, c)
        if e == 0:
            parts.append(cs)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(parts) if parts else "0"


def format_poly(p: Poly) -> str:
    terms = [(e, c) for e, c in enumerate(p.coeffs)][::-1]
    return _format_terms(p.field, terms)


def format_rat(r: Rat) -> str:
    field = r.field
    den = r.den
    # pure power of x in the denominator: print as a Laurent polynomial
    if den.degree == 0 or (den.coeffs.count(0) == den.degree and den.is_monic):
        shift = den.degree
        terms = [(e - shift, c) for e, c in enumerate(r.num.coeffs)][::-1]
        return _format_terms(field, terms)
    num_s = format_poly(r.num)
    den_s = format_poly(den)
    return f"({num_s}) / ({den_s})"


def format_series(s: LaurentSeries) -> str:
    terms = [(s.top - i, c) for i, c in enumerate(s.coeffs)]
    return _format_terms(s.field, terms)

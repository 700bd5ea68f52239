"""Arithmetic the benchmark owns: F_q, F_q[x], determinants and a reader
for the element strings fflat prints.

The checkers use this module instead of fflat's own arithmetic, so a
fault in fflat cannot hide itself by being applied twice.  Field
elements are ints encoded as fflat encodes them (a_0 + a_1 p + ... for
q = p^k, digits of the residue in t), and all arithmetic goes through
tables built once per field.  Polynomials are lists of field elements,
lowest degree first, with no trailing zeros.
"""

from __future__ import annotations


class Field:
    """F_q with q = p^k by full addition and multiplication tables."""

    def __init__(self, p: int, k: int = 1, modulus=(0, 1)):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = list(modulus)
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add = [[self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        self.neg = [self._undigits([-x % p for x in digits[a]]) for a in range(q)]
        self.mul = [[self._mul_digits(digits[a], digits[b]) for b in range(q)]
                    for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)
        if any(self.mul[a][b] == 0 for a in range(1, q) for b in range(1, q)):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.k)]

    def _undigits(self, ds):
        return sum(d * self.p ** i for i, d in enumerate(ds))

    def _mul_digits(self, da, db):
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, k - 1, -1):
            c = prod[top]
            if c:
                for i in range(k):
                    prod[top - k + i] = (prod[top - k + i] - c * m[i]) % p
        return self._undigits(prod[:k])

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]


def field_for(q: int, modulus=None) -> Field:
    for p in (2, 3, 5, 7, 11, 13):
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1 and k:
            return Field(p, k, modulus if k > 1 else (0, 1))
    raise ValueError(f"q={q} is not a prime power this module handles")


# --- polynomials ---------------------------------------------------------


def trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a: list) -> int:
    return len(a) - 1


def p_add(F: Field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add[out[i]][c]
    return trim(out)


def p_neg(F: Field, a):
    return [F.neg[c] for c in a]


def p_sub(F: Field, a, b):
    return p_add(F, a, p_neg(F, b))


def p_mul(F: Field, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return trim(out)


def p_scale(F: Field, a, c: int):
    return trim([F.mul[c][x] for x in a])


def p_shift(a, k: int):
    return [0] * k + list(a) if a else []


def p_divmod(F: Field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = deg(b)
    inv_lead = F.inv[b[-1]]
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            c = F.mul[c][inv_lead]
            quo[i - db] = c
            for j, bc in enumerate(b):
                rem[i - db + j] = F.sub(rem[i - db + j], F.mul[c][bc])
    return trim(quo), trim(rem)


def p_gcd(F: Field, a, b):
    while b:
        a, b = b, p_divmod(F, a, b)[1]
    return p_scale(F, a, F.inv[a[-1]]) if a else []


def p_eval(F: Field, a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add[F.mul[acc][x]][c]
    return acc


# --- matrices over F_q[x] -----------------------------------------------


def det(F: Field, rows) -> list:
    """Determinant of a square polynomial matrix (Bareiss elimination)."""
    n = len(rows)
    m = [[list(e) for e in r] for r in rows]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = p_sub(F, p_mul(F, m[i][j], m[k][k]), p_mul(F, m[i][k], m[k][j]))
                quo, rem = p_divmod(F, num, prev)
                if rem:
                    raise ArithmeticError("Bareiss division left a remainder")
                m[i][j] = quo
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return p_neg(F, d) if sign < 0 else d


def adjugate(F: Field, rows):
    """adj(M), so that adj(M) M = det(M) I."""
    n = len(rows)
    if n == 1:
        return [[[1]]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            c = det(F, minor)
            adj[j][i] = p_neg(F, c) if (i + j) % 2 else c
    return adj


def mat_vec(F: Field, M, v):
    out = []
    for row in M:
        acc = []
        for e, c in zip(row, v):
            acc = p_add(F, acc, p_mul(F, e, c))
        out.append(acc)
    return out


def nonsingular(F: Field, rows) -> bool:
    """Cheap test first: the matrix evaluated at some a in F_q is invertible."""
    n = len(rows)
    for a in range(F.q):
        m = [[p_eval(F, e, a) for e in r] for r in rows]
        if rank_fq(F, m) == n:
            return True
    return bool(det(F, rows))


def rank_fq(F: Field, rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = F.inv[m[rank][col]]
        m[rank] = [F.mul[inv][v] for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [F.sub(a, F.mul[c][b]) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# --- Laurent polynomials and element strings ------------------------------


def laurent_matrix(F: Field, entries):
    """Matrix of {exponent: coeff} entries as (P, s) with M = x^(-s) P."""
    s = max([0] + [-e for ent in (x for r in entries for x in r) for e in ent])
    P = []
    for row in entries:
        prow = []
        for ent in row:
            poly = [0] * (max([e + s for e in ent], default=-1) + 1)
            for e, c in ent.items():
                poly[e + s] = c
            prow.append(trim(poly))
        P.append(prow)
    return P, s


def format_coeff(F: Field, c: int) -> str:
    if F.k == 1:
        return str(c)
    ds = F._digits(c)
    parts = [f"{d}*t^{i}" for i, d in enumerate(ds) if d]
    return "(" + " + ".join(parts) + ")"


def format_laurent(F: Field, terms: dict) -> str:
    """Element string in fflat's input grammar; every term carries x^e,
    so a coefficient in t is never left standing alone."""
    parts = [f"{format_coeff(F, c)}*x^{e}" for e, c in sorted(terms.items(), reverse=True) if c]
    return " + ".join(parts) if parts else "0"


def _split_top(text: str, sep: str):
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [s.strip() for s in out]


def _parse_coeff(F: Field, text: str) -> int:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    digits = [0] * F.k
    for term in _split_top(text, "+"):
        if "t" in term:
            c, tpart = term.split("t")
            c = c.strip().rstrip("*").strip()
            coef = int(c) if c else 1
            e = int(tpart.strip()[1:]) if tpart.strip().startswith("^") else 1
        else:
            coef, e = int(term), 0
        if e >= F.k:
            raise ValueError(f"t-power {e} in coefficient {text!r}")
        digits[e] = (digits[e] + coef) % F.p
    return F._undigits(digits)


def parse_terms(F: Field, text: str) -> dict:
    """{exponent: coeff} of a Laurent polynomial as fflat prints one."""
    terms = {}
    if text.strip() == "0":
        return terms
    for term in _split_top(text, "+"):
        depth, xpos = 0, -1
        for i, ch in enumerate(term):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "x" and depth == 0:
                xpos = i
        if xpos < 0:
            coef, e = _parse_coeff(F, term), 0
        else:
            c = term[:xpos].rstrip().rstrip("*")
            coef = _parse_coeff(F, c) if c else 1
            rest = term[xpos + 1:].strip()
            e = int(rest[1:]) if rest.startswith("^") else 1
        terms[e] = F.add[terms.get(e, 0)][coef]
    return {e: c for e, c in terms.items() if c}


def parse_element(F: Field, text: str):
    """(numerator terms, denominator terms) of a printed element."""
    parts = _split_top(text.strip(), "/")
    if len(parts) == 1:
        return parse_terms(F, parts[0]), {0: 1}
    strip = [p[1:-1] if p.startswith("(") and p.endswith(")") else p for p in parts]
    return parse_terms(F, strip[0]), parse_terms(F, strip[1])


def valuation(num: dict, den: dict):
    """log_q |num/den| at infinity, None for zero."""
    if not num:
        return None
    return max(num) - max(den)


def sup_norm(F: Field, texts):
    vals = [valuation(*parse_element(F, t)) for t in texts]
    vals = [v for v in vals if v is not None]
    return max(vals) if vals else None


def to_poly(terms: dict):
    """(P, s) with terms = x^(-s) P."""
    s = max([0] + [-e for e in terms])
    P = [0] * (max([e + s for e in terms], default=-1) + 1)
    for e, c in terms.items():
        P[e + s] = c
    return trim(P), s


def expand(F: Field, num: dict, den: dict, floor: int) -> dict:
    """Laurent coefficients of num/den at infinity down to x^floor."""
    A, sa = to_poly(num)
    B, sb = to_poly(den)
    # num/den = (A/B) x^(sb - sa); the coefficients of A/B at exponents
    # >= -D are those of (A x^D) div B, shifted down by D
    off = sb - sa
    D = max(0, off - floor)
    Q = p_divmod(F, p_shift(A, D), B)[0]
    return {m - D + off: c for m, c in enumerate(Q) if c and m - D + off >= floor}

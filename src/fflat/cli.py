"""Command line front end.

Instance files are JSON with the fields documented in the README:
q (+ modulus for prime powers), d, basis (columns are basis vectors),
and optionally alpha+frame+N, or reps, plus body and precision.
Everything is exact; norms print as powers of q and densities as
reduced fractions.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .errors import (
    FFLatError,
    InsufficientPrecision,
    NRational,
    ParseError,
    PrecisionTooCoarse,
    SingularInput,
)
from .exactlinalg import det_poly, mat_mul_poly, popov_reduce
from .ffcore import (
    GF,
    LaurentSeries,
    Poly,
    QExp,
    Rat,
    expand_rational,
    format_rat,
    format_series,
    parse_element,
    series_from_json,
)
from .hankel import covrad_bounds, covrad_periodic, rank_condition
from .lattice import (
    ConvexBody,
    Lattice,
    norm_in_body,
    reduce_lattice,
)
from .oracle import (
    covrad_oracle,
    density_oracle,
    enumerate_points,
    succmin_oracle,
)
from .periodic import (
    PeriodicLattice,
    check_bounds,
    count_points,
    d_invariant,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    minkowski_search,
    packing_density,
    packing_radius,
    succ_minima_periodic,
)

_INSTANCE_KEYS = {
    "q", "modulus", "d", "basis", "alpha", "frame", "N", "body", "reps",
    "precision",
}


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


def _make_field(q: int, modulus=None) -> GF:
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


class Instance:
    __slots__ = ("field", "lattice", "body", "periodic", "kind", "N")

    def __init__(self, field, lattice, body, periodic, kind, N):
        self.field = field
        self.lattice = lattice
        self.body = body
        self.periodic = periodic
        self.kind = kind
        self.N = N

    def body_or_unit(self) -> ConvexBody:
        if self.body is not None:
            return self.body
        return ConvexBody.identity(self.field, self.lattice.d)


def _parse_entry(field, obj, where: str):
    try:
        if isinstance(obj, dict):
            return series_from_json(field, obj)
        if isinstance(obj, int):
            return parse_element(field, str(obj))
        if isinstance(obj, str):
            return parse_element(field, obj)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None
    raise ParseError(f"{where}: expected an element string or series literal")


def _parse_matrix(field, obj, d: int, name: str):
    if not isinstance(obj, list) or len(obj) != d:
        raise ParseError(f"{name}: expected a {d}x{d} matrix")
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{name}[{i}]: expected {d} entries")
        out.append([
            _parse_entry(field, cell, f"{name}[{i}][{j}]")
            for j, cell in enumerate(row)
        ])
    return out


def _apply_precision(field, value, floor: int):
    if isinstance(value, LaurentSeries):
        return value
    return expand_rational(value, floor).truncated(floor)


def load_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: instance file must be a JSON object")
    unknown = set(raw) - _INSTANCE_KEYS
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}")
    if "q" not in raw or not isinstance(raw["q"], int):
        raise ParseError("q: required integer")
    modulus = raw.get("modulus")
    if modulus is not None and not isinstance(modulus, list):
        raise ParseError("modulus: expected a coefficient list")
    field = _make_field(raw["q"], tuple(modulus) if modulus else None)
    if "d" not in raw or not isinstance(raw["d"], int):
        raise ParseError("d: required integer")
    d = raw["d"]
    if "basis" not in raw:
        raise ParseError("basis: required")
    basis = _parse_matrix(field, raw["basis"], d, "basis")
    try:
        lattice = Lattice(field, basis)
    except (SingularInput, ValueError) as e:
        raise ParseError(f"basis: {e}") from None
    body = None
    if raw.get("body") is not None:
        bm = _parse_matrix(field, raw["body"], d, "body")
        try:
            body = ConvexBody(field, bm)
        except (SingularInput, ValueError) as e:
            raise ParseError(f"body: {e}") from None
    has_alpha = raw.get("alpha") is not None
    has_reps = raw.get("reps") is not None
    if has_alpha and has_reps:
        raise ParseError("alpha: mutually exclusive with reps")
    precision = raw.get("precision")
    if precision is not None and (not isinstance(precision, int) or precision > -1):
        raise ParseError("precision: expected an integer floor <= -1")
    if has_alpha:
        al = raw["alpha"]
        if not isinstance(al, list) or len(al) != d:
            raise ParseError(f"alpha: expected {d} coordinates")
        alpha = [
            _parse_entry(field, a, f"alpha[{i}]") for i, a in enumerate(al)
        ]
        frame = raw.get("frame", "reduced")
        if frame not in ("ambient", "reduced"):
            raise ParseError("frame: must be 'ambient' or 'reduced'")
        if "N" not in raw or not isinstance(raw["N"], int) or raw["N"] < 0:
            raise ParseError("N: required nonnegative integer with alpha")
        N = raw["N"]
        if precision is not None:
            alpha = [_apply_precision(field, a, precision) for a in alpha]
        periodic = make_alpha_lattice(lattice, alpha, N, frame=frame)
        return Instance(field, lattice, body, periodic, "alpha", N)
    if raw.get("frame") is not None:
        raise ParseError("frame: only valid with alpha")
    if raw.get("N") is not None:
        raise ParseError("N: only valid with alpha")
    if has_reps:
        rl = raw["reps"]
        if not isinstance(rl, list):
            raise ParseError("reps: expected a list of coordinate vectors")
        reps = []
        for i, rep in enumerate(rl):
            if not isinstance(rep, list) or len(rep) != d:
                raise ParseError(f"reps[{i}]: expected {d} coordinates")
            coords = [
                _parse_entry(field, c, f"reps[{i}][{j}]")
                for j, c in enumerate(rep)
            ]
            if precision is not None:
                coords = [_apply_precision(field, c, precision) for c in coords]
            reps.append(coords)
        try:
            periodic = make_coset_lattice(lattice, reps)
        except ValueError as e:
            raise ParseError(f"reps: {e}") from None
        return Instance(field, lattice, body, periodic, "reps", None)
    return Instance(field, lattice, body, from_lattice(lattice), "plain", None)


# --- output helpers ---------------------------------------------------------


def _fmt_qexp(v: QExp) -> str:
    if v.is_zero:
        return "0"
    return f"q^{v.exp}"


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _basis_strings(rb) -> list:
    xs = Poly.monomial(rb.lattice.field, 1, rb.ashift)
    return [
        [format_rat(Rat(rb.VP[i][j], xs)) for j in range(rb.d)]
        for i in range(rb.d)
    ]


def _vector_strings(vec) -> list:
    return [
        format_series(v) if isinstance(v, LaurentSeries) else format_rat(v)
        for v in vec
    ]


# --- command handlers -------------------------------------------------------


def _cmd_reduce(inst: Instance, args) -> int:
    rb = reduce_lattice(inst.lattice, inst.body_or_unit())
    mat = _basis_strings(rb)
    lines = ["minima: " + " ".join(f"q^{e}" for e in rb.exps), "basis:"]
    for row in mat:
        lines.append("  " + "  ".join(row))
    _emit(args, lines, {"exps": rb.exps, "basis": mat})
    return 0


def _cmd_minima(inst: Instance, args) -> int:
    exps, _w = succ_minima_periodic(inst.periodic, inst.body_or_unit())
    _emit(args, [" ".join(f"q^{e}" for e in exps)], {"exps": exps})
    return 0


def _cmd_covrad(inst: Instance, args) -> int:
    C = inst.body_or_unit()
    S = inst.periodic
    val = covrad_periodic(S, C)
    lines = [_fmt_qexp(val)]
    obj = {"exp": val.exp}
    code = 0
    if args.oracle:
        oval = covrad_oracle(S, C)
        lines.append(f"oracle: {_fmt_qexp(oval)}")
        obj["oracle"] = {"exp": oval.exp}
        if oval != val:
            lines.append("MISMATCH")
            obj["mismatch"] = True
            code = 2
    if args.bounds:
        if inst.kind == "alpha":
            N = inst.N
        elif inst.kind == "plain":
            N = 0
        else:
            raise ParseError("--bounds requires an alpha or plain instance")
        lo, hi = covrad_bounds(inst.lattice, N, C)
        lines.append(f"bounds: {lo} <= {val.exp} <= {hi.exp}")
        obj["bounds"] = {"lower": str(lo), "upper": hi.exp}
        if not (lo <= Fraction(val.exp) and val <= hi):
            lines.append("BOUNDS VIOLATED")
            obj["bounds_violated"] = True
            code = 2
    _emit(args, lines, obj)
    return code


def _cmd_packrad(inst: Instance, args) -> int:
    val = packing_radius(inst.periodic, inst.body_or_unit())
    _emit(args, [_fmt_qexp(val)], {"exp": val.exp})
    return 0


def _cmd_density(inst: Instance, args) -> int:
    val = packing_density(inst.periodic, inst.body_or_unit())
    _emit(args, [str(val)], {"density": str(val)})
    return 0


def _cmd_count(inst: Instance, args) -> int:
    if args.radius is not None:
        n = count_points(inst.periodic, radius=args.radius)
    else:
        n = count_points(inst.periodic, inst.body_or_unit())
    _emit(args, [str(n)], {"count": n})
    return 0


def _cmd_dinv(inst: Instance, args) -> int:
    if inst.kind != "alpha":
        raise ParseError("dinv requires an alpha instance")
    val = d_invariant(inst.periodic, inst.body_or_unit())
    _emit(args, [_fmt_qexp(val)], {"exp": val.exp})
    return 0


def _cmd_mink_search(inst: Instance, args) -> int:
    rep = minkowski_search(inst.periodic, inst.body_or_unit())
    lines = [
        f"status: {rep.status}",
        f"measure: q^{rep.measure_exp}",
        f"threshold: q^{rep.threshold_exp}",
    ]
    obj = rep.as_dict()
    if rep.point is not None:
        pt = _vector_strings(rep.point)
        lines.append("point: " + "  ".join(pt))
        lines.append(f"norm: {_fmt_qexp(rep.point_norm)}")
        obj["point"] = pt
        obj["norm_exp"] = rep.point_norm.exp
    _emit(args, lines, obj)
    return 2 if rep.status == "no_point" else 0


# --- randomized verification battery ----------------------------------------


def random_unimodular(rng, field: GF, d: int, deg: int = 1):
    m = [
        [Poly.one(field) if i == j else Poly.zero(field) for j in range(d)]
        for i in range(d)
    ]
    for i in range(d):
        for j in range(d):
            if i != j and rng.random() < 0.6:
                k = rng.randint(0, deg)
                m[i][j] = Poly(
                    field, tuple(rng.randrange(field.q) for _ in range(k + 1))
                )
    return m


def _random_laurent_matrix(rng, field: GF, d: int, dmin: int, dmax: int):
    ks = [rng.randint(dmin, dmax) for _ in range(d)]
    s = max(0, -min(ks))
    D = [
        [
            Poly.monomial(field, 1, ks[i] + s) if i == j else Poly.zero(field)
            for j in range(d)
        ]
        for i in range(d)
    ]
    G = mat_mul_poly(
        random_unimodular(rng, field, d), mat_mul_poly(D, random_unimodular(rng, field, d))
    )
    cols = list(range(d))
    rng.shuffle(cols)
    xs = Poly.monomial(field, 1, s)
    return [[Rat(G[i][cols[j]], xs) for j in range(d)] for i in range(d)]


def random_lattice(rng, field: GF, d: int, dmin: int = -2, dmax: int = 2) -> Lattice:
    while True:
        try:
            return Lattice(field, _random_laurent_matrix(rng, field, d, dmin, dmax))
        except SingularInput:
            continue


def random_body(rng, field: GF, d: int, dmin: int = -2, dmax: int = 2) -> ConvexBody:
    while True:
        try:
            return ConvexBody(field, _random_laurent_matrix(rng, field, d, dmin, dmax))
        except SingularInput:
            continue


def random_alpha_lattice(rng, field: GF, d: int, N: int, lat: Lattice) -> PeriodicLattice:
    """AlphaForm instance over lat, certified N-irrational."""
    while True:
        coords = []
        for _ in range(d):
            if rng.random() < 0.25:
                # a non-monomial denominator now and then
                den = Poly(
                    field,
                    tuple(rng.randrange(field.q) for _ in range(N + 1)) + (1,),
                )
            else:
                den = Poly.monomial(field, 1, rng.randint(N + 1, N + 2))
            num = [rng.randrange(field.q) for _ in range(den.degree)]
            if not any(num):
                num[0] = 1
            coords.append(Rat(Poly(field, tuple(num)), den))
        try:
            return make_alpha_lattice(lat, coords, N, frame="reduced")
        except NRational:
            continue


def random_coset_lattice(rng, field: GF, d: int, n: int, lat: Lattice) -> PeriodicLattice:
    """n random independent representatives with denominators x^1 .. x^3;
    these span at most 3d dimensions over F_q, so n <= 3d."""
    if n > 3 * d:
        raise ValueError(
            f"{n} independent representatives need n <= 3d = {3 * d}: "
            "denominators x^1 .. x^3 span at most 3d dimensions"
        )
    while True:
        reps = []
        for _ in range(n):
            rep = []
            for _ in range(d):
                k = rng.randint(1, 3)
                num = [rng.randrange(field.q) for _ in range(k)]
                rep.append(Rat(Poly(field, tuple(num)), Poly.monomial(field, 1, k)))
            reps.append(rep)
        try:
            return make_coset_lattice(lat, reps)
        except ValueError:
            continue


def parse_grid(text: str):
    grid = {"q": [2, 3], "d": [2, 3], "N": [0, 1, 2]}
    if not text:
        return grid
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"grid: expected key=v1,v2 in {part!r}")
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in grid:
            raise ParseError(f"grid: unknown axis {key!r}")
        try:
            grid[key] = [int(v) for v in vals.split(",") if v.strip()]
        except ValueError:
            raise ParseError(f"grid: bad values for {key!r}") from None
        if not grid[key]:
            raise ParseError(f"grid: empty axis {key!r}")
    return grid


def _feasible_radius_grid(S, R: int, limit: int = 60_000) -> bool:
    rb = reduce_lattice(S.lattice, S.base_body())
    total = S.field.q ** S.period_size
    for e in rb.exps:
        total *= S.field.q ** max(R - e + 1, 0)
    return total <= limit


def _check_minkowski_equality(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for _ in range(15):
                lat = random_lattice(rng, field, d)
                C = random_body(rng, field, d)
                rb = reduce_lattice(lat, C)
                if sum(rb.exps) != lat.log_det - C.log_volume.exp:
                    return False, f"violated at q={q} d={d}"
                n += 1
    return True, f"{n} instances"


def _check_reduction_soundness(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for _ in range(4):
                lat = random_lattice(rng, field, d)
                C = random_body(rng, field, d)
                rb = reduce_lattice(lat, C)
                M0 = mat_mul_poly(C.adj, lat.G)
                R, U, degs = popov_reduce(M0)
                du = det_poly(U)
                if du.degree != 0 or du.is_zero:
                    return False, f"det(U) not a unit at q={q} d={d}"
                if sum(degs) != det_poly(M0).degree:
                    return False, f"degree sum mismatch at q={q} d={d}"
                for _ in range(50):
                    cs = [
                        Poly(
                            field,
                            tuple(rng.randrange(field.q) for _ in range(rng.randint(1, 3))),
                        )
                        for _ in range(d)
                    ]
                    want = None
                    for c, e in zip(cs, rb.exps):
                        if not c.is_zero:
                            cand = c.degree + e
                            want = cand if want is None else max(want, cand)
                    got = rb.norm_from_coords(cs)
                    if want is None:
                        ok = got.is_zero
                    else:
                        ok = (not got.is_zero) and got.exp == want
                    if not ok:
                        return False, f"orthogonality broken at q={q} d={d}"
                    vec = rb.ambient_from_coords(cs)
                    if norm_in_body(vec, C) != got:
                        return False, f"ambient norm disagrees at q={q} d={d}"
                    n += 1
    return True, f"{n} coefficient vectors"


def _random_instance(rng, field, d, N):
    r = rng.random()
    lat = random_lattice(rng, field, d, -1, 2)
    if r < 0.55:
        return random_alpha_lattice(rng, field, d, N, lat)
    if r < 0.8:
        return random_coset_lattice(rng, field, d, rng.randint(1, 2), lat)
    return from_lattice(lat)


def _check_count_oracle(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for R in (0, 1, 2):
                    for _ in range(2):
                        S = _random_instance(rng, field, d, N)
                        if not _feasible_radius_grid(S, R):
                            continue
                        want = len(enumerate_points(S, R, coords_only=True))
                        got = count_points(S, radius=R)
                        if want != got:
                            return False, f"count mismatch q={q} d={d} N={N} R={R}"
                        n += 1
    return True, f"{n} windows"


def _check_covrad(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for N in [v for v in grid["N"] if v <= 1]:
                for _ in range(4):
                    lat = random_lattice(rng, field, d, -1, 2)
                    S = random_alpha_lattice(rng, field, d, N, lat)
                    got = covrad_periodic(S)
                    want = covrad_oracle(S, M=12)
                    if got != want:
                        return False, f"covrad mismatch q={q} d={d} N={N}"
                    lo, hi = covrad_bounds(lat, N)
                    if not (lo <= Fraction(got.exp) and got <= hi):
                        return False, f"covrad bounds broken q={q} d={d} N={N}"
                    rb = reduce_lattice(lat, S.base_body())
                    held = True
                    for ell in range(-rb.exps[-1], -got.exp + 1):
                        ok = rank_condition(S, None, ell)
                        if not held and ok:
                            return False, f"rank condition not monotone q={q} d={d}"
                        held = ok
                    n += 1
            for _ in range(3):
                lat = random_lattice(rng, field, d, -1, 2)
                Z = make_alpha_lattice(
                    lat, ["0"] * d, 0, require_irrational=False
                )
                rb = reduce_lattice(lat, Z.base_body())
                if covrad_periodic(Z) != QExp(rb.exps[-1] - 1):
                    return False, f"alpha=0 corollary broken q={q} d={d}"
                n += 1
    return True, f"{n} instances"


def _check_packing(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for _ in range(2):
                    S = _random_instance(rng, field, d, min(N, 1))
                    rb = reduce_lattice(S.lattice, S.base_body())
                    R0 = max(rb.exps[-1], 0) + 1
                    if not _feasible_radius_grid(S, R0 + 1):
                        continue
                    e_oracle = succmin_oracle(S)
                    if packing_radius(S) != QExp(e_oracle[0] - 1):
                        return False, f"packing radius mismatch q={q} d={d}"
                    dens = packing_density(S)
                    if density_oracle(S, R=R0) != dens:
                        return False, f"density not stationary at R0, q={q} d={d}"
                    if density_oracle(S, R=R0 + 1) != dens:
                        return False, f"density not stationary at R0+1, q={q} d={d}"
                    n += 1
    return True, f"{n} instances"


def _check_succmin(rng, grid):
    n = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for _ in range(2):
                    S = _random_instance(rng, field, d, min(N, 1))
                    rb = reduce_lattice(S.lattice, S.base_body())
                    if not _feasible_radius_grid(S, max(rb.exps[-1], 0) + 1):
                        continue
                    exps, wits = succ_minima_periodic(S)
                    if exps != succmin_oracle(S):
                        return False, f"minima mismatch q={q} d={d} N={N}"
                    C = S.base_body()
                    for e, w in zip(exps, wits):
                        if norm_in_body(w, C) != QExp(e):
                            return False, f"witness norm mismatch q={q} d={d}"
                    n += 1
    return True, f"{n} instances"


def _check_bounds_hold(rng, grid):
    n = 0
    sandwiches = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for _ in range(3):
                    S = _random_instance(rng, field, d, min(N, 1))
                    C = random_body(rng, field, d, -1, 1)
                    rep = check_bounds(S, C)
                    if not rep.passed:
                        return False, f"bounds violated q={q} d={d} N={N}"
                    if rep.sandwich_checked:
                        sandwiches += 1
                    n += 1
    return True, f"{n} instances, {sandwiches} sandwich evaluations"


def _check_mink_search(rng, grid):
    n = 0
    held = 0
    gaps = 0
    for q in grid["q"]:
        field = _make_field(q)
        for d in grid["d"]:
            for _ in range(12):
                lat = random_lattice(rng, field, d)
                C = random_body(rng, field, d)
                if rng.random() < 0.5:
                    S = random_alpha_lattice(rng, field, d, rng.choice([0, 1]), lat)
                else:
                    S = from_lattice(lat)
                rep = minkowski_search(S, C)
                n += 1
                if rep.status == "inapplicable":
                    if rep.measure_exp > rep.threshold_exp:
                        return False, "inapplicable despite hypothesis"
                    continue
                held += 1
                if rep.status == "no_point":
                    # statement gap: hypothesis held, exhaustive search
                    # certified there is no point (see decisions ledger)
                    gaps += 1
                    continue
                norm = norm_in_body(rep.point, C)
                if norm.is_zero or norm > QExp(0):
                    return False, "returned point not verified"
    return True, f"{n} instances, {held} hypothesis held, {gaps} certified gaps"


_CHECKS = [
    ("minkowski_equality", _check_minkowski_equality),
    ("reduction_soundness", _check_reduction_soundness),
    ("count_vs_oracle", _check_count_oracle),
    ("covrad_vs_oracle", _check_covrad),
    ("packing_density", _check_packing),
    ("succmin_vs_oracle", _check_succmin),
    ("theorem_bounds", _check_bounds_hold),
    ("mink_search", _check_mink_search),
]


def run_battery(grid, seed: int):
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        passed, detail = fn(rng, grid)
        results.append((name, passed, detail))
    return results


def _cmd_verify(args) -> int:
    grid = parse_grid(args.grid or "")
    results = run_battery(grid, args.seed)
    width = max(len(name) for name, _p, _d in results)
    ok = True
    lines = []
    for name, passed, detail in results:
        mark = "pass" if passed else "FAIL"
        lines.append(f"{name.ljust(width)}  {mark}  {detail}")
        ok = ok and passed
    obj = {
        "seed": args.seed,
        "grid": grid,
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in results
        ],
        "passed": ok,
    }
    _emit(args, lines, obj)
    return 0 if ok else 2


# --- entry point -------------------------------------------------------------


@functools.cache
def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    top = argparse.ArgumentParser(
        prog="fflat",
        description="Exact geometry of lattices over F_q((1/x)).",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("reduce", "reduced basis and minima of the lattice"),
        ("minima", "successive minima of the instance point set"),
        ("packrad", "packing radius"),
        ("density", "packing density"),
        ("dinv", "approximation determinant invariant"),
        ("mink-search", "convex body theorem search"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("file", help="instance file (JSON)")
    p = sub.add_parser("covrad", parents=[common], help="covering radius")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    p.add_argument("--bounds", action="store_true", help="print corollary bounds")
    p = sub.add_parser("count", parents=[common], help="points in a body or ball")
    p.add_argument("file")
    p.add_argument("--radius", type=int, default=None, help="sup-norm ball exponent")
    p = sub.add_parser("verify", parents=[common], help="randomized verification battery")
    p.add_argument("--grid", default="", help="axes like q=2,3;d=2,3;N=0,1,2")
    p.add_argument("--seed", type=int, default=7)
    return top


_HANDLERS = {
    "reduce": _cmd_reduce,
    "minima": _cmd_minima,
    "covrad": _cmd_covrad,
    "packrad": _cmd_packrad,
    "density": _cmd_density,
    "count": _cmd_count,
    "dinv": _cmd_dinv,
    "mink-search": _cmd_mink_search,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        inst = load_instance(args.file)
        return _HANDLERS[args.command](inst, args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (InsufficientPrecision, PrecisionTooCoarse) as e:
        floor = getattr(e, "needed_floor", None)
        hint = "" if floor is None else f" (needs precision <= {floor})"
        print(f"error: {e}{hint}", file=sys.stderr)
        return 3
    except FFLatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The randomized verification battery behind `fflat verify`.

Each check draws instances from a seeded generator over the grid axes
q, d and N, and compares a closed form with its brute-force oracle or
a theorem with its statement.  `run_battery` returns one
(name, passed, detail) triple per check, in `_CHECKS` order; the
generator of each check is seeded by "seed:name", so a check's
instances do not depend on the checks before it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import NRational, ParseError, SingularInput
from .exactlinalg import identity_poly, mat_mul_poly, popov_reduce
from .ffcore import GF, Poly, QExp, Rat, field_of_order
from .lattice import ConvexBody, Lattice, norm_in_body, reduce_lattice
from .oracle import count_oracle, covrad_oracle, density_oracle, det_poly, succmin_oracle
from .periodic import (
    PeriodicLattice,
    check_bounds,
    count_points,
    covrad_bounds,
    covrad_periodic,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    minkowski_search,
    packing_density,
    packing_radius,
    succ_minima_periodic,
)


def random_unimodular(rng, field: GF, d: int, deg: int = 1):
    m = identity_poly(field, d)
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
    """Alpha-form instance over lat, certified N-irrational."""
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
        low = {"d": 2, "N": 0}.get(key)
        if low is not None and min(grid[key]) < low:
            raise ParseError(f"grid: {key!r} values must be >= {low}, got {min(grid[key])}")
    return grid


def _feasible_radius_grid(S, R: int, limit: int = 60_000) -> bool:
    rb = reduce_lattice(S.lattice)
    total = S.field.q ** S.period_size
    for e in rb.exps:
        total *= S.field.q ** max(R - e + 1, 0)
    return total <= limit


def _check_minkowski_equality(rng, grid):
    n = 0
    for q in grid["q"]:
        field = field_of_order(q)
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
        field = field_of_order(q)
        for d in grid["d"]:
            for _ in range(4):
                lat = random_lattice(rng, field, d)
                C = random_body(rng, field, d)
                rb = reduce_lattice(lat, C)
                M0 = mat_mul_poly(C.adj, lat.G)
                R, U, degs = popov_reduce(M0, identity_poly(field, d))
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
        field = field_of_order(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for R in (0, 1, 2):
                    for _ in range(2):
                        S = _random_instance(rng, field, d, N)
                        if not _feasible_radius_grid(S, R):
                            continue
                        want = count_oracle(S, R)
                        got = count_points(S, radius=R)
                        if want != got:
                            return False, f"count mismatch q={q} d={d} N={N} R={R}"
                        n += 1
    return True, f"{n} windows"


def _check_covrad(rng, grid):
    n = 0
    for q in grid["q"]:
        field = field_of_order(q)
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
                    n += 1
            for _ in range(3):
                lat = random_lattice(rng, field, d, -1, 2)
                Z = make_alpha_lattice(
                    lat, ["0"] * d, 0, require_irrational=False
                )
                rb = reduce_lattice(lat)
                if covrad_periodic(Z) != QExp(rb.exps[-1] - 1):
                    return False, f"alpha=0 corollary broken q={q} d={d}"
                n += 1
    return True, f"{n} instances"


def _check_packing(rng, grid):
    n = 0
    for q in grid["q"]:
        field = field_of_order(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for _ in range(2):
                    S = _random_instance(rng, field, d, min(N, 1))
                    rb = reduce_lattice(S.lattice)
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
        field = field_of_order(q)
        for d in grid["d"]:
            for N in grid["N"]:
                for _ in range(2):
                    S = _random_instance(rng, field, d, min(N, 1))
                    rb = reduce_lattice(S.lattice)
                    if not _feasible_radius_grid(S, max(rb.exps[-1], 0) + 1):
                        continue
                    exps, wits = succ_minima_periodic(S)
                    if exps != succmin_oracle(S):
                        return False, f"minima mismatch q={q} d={d} N={N}"
                    for e, w in zip(exps, wits):
                        if norm_in_body(w, rb.body) != QExp(e):
                            return False, f"witness norm mismatch q={q} d={d}"
                    n += 1
    return True, f"{n} instances"


def _check_bounds_hold(rng, grid):
    n = 0
    sandwiches = 0
    for q in grid["q"]:
        field = field_of_order(q)
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
        field = field_of_order(q)
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

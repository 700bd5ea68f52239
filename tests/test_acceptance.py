"""Acceptance suite.

One test per shipped guarantee; the terminal summary prints one PASS or
FAIL line for each.  Everything here is exact equality, zero tolerance,
with fixed seeds so reruns are bit-identical.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import ACCEPTANCE_DETAIL

from fflat import (
    ConvexBody,
    Lattice,
    QExp,
    check_bounds,
    cli,
    count_points,
    covrad_bounds,
    covrad_oracle,
    covrad_periodic,
    d_invariant,
    density_oracle,
    enumerate_points,
    from_lattice,
    make_alpha_lattice,
    minkowski_search,
    norm_in_body,
    packing_density,
    packing_radius,
    reduce_lattice,
    succ_minima_periodic,
)
from fflat.exactlinalg import identity_poly, mat_mul_poly, popov_reduce
from fflat.ffcore import Poly, field_of_order as _make_field
from fflat.oracle import det_poly
from fflat.battery import (
    _feasible_radius_grid,
    _random_instance,
    random_alpha_lattice,
    random_body,
    random_lattice,
)

DATA = Path(__file__).parent / "data"


def note(name: str, detail: str):
    ACCEPTANCE_DETAIL[name] = detail


def w_instance():
    lam = Lattice.standard(_make_field(2), 2)
    return lam, make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)


# --- criterion 1: Minkowski equality ---------------------------------------


def test_c1_minkowski_equality():
    rng = random.Random("accept:1")
    n = 0
    for q in (2, 3, 4):
        field = _make_field(q)
        for d in (2, 3, 4):
            for _ in range(112):
                lat = random_lattice(rng, field, d, -3, 3)
                C = random_body(rng, field, d, -3, 3)
                rb = reduce_lattice(lat, C)
                assert sum(rb.exps) == lat.log_det - C.log_volume.exp
                n += 1
    assert n >= 1000
    note("test_c1_minkowski_equality",
         f"{n} instances, q in 2,3,4, d in 2,3,4, degrees [-3,3], exact")


# --- criterion 2: counting vs enumeration ----------------------------------


def test_c2_counting_vs_enumeration():
    rng = random.Random("accept:2")
    total = 0
    cells = {}
    for q in (2, 3):
        field = _make_field(q)
        for d in (2, 3):
            for N in (0, 1, 2):
                for R in (0, 1, 2):
                    for _slot in range(6):
                        S = None
                        for _try in range(8):
                            cand = _random_instance(rng, field, d, N)
                            if _feasible_radius_grid(cand, R, limit=30_000):
                                S = cand
                                break
                        if S is None:
                            continue
                        want = len(enumerate_points(S, R, coords_only=True))
                        got = count_points(S, radius=R)
                        assert want == got, (q, d, N, R)
                        total += 1
                        cells[(q, d, N)] = cells.get((q, d, N), 0) + 1
    assert total >= 200
    assert len(cells) == 12 and all(v >= 3 for v in cells.values())
    note("test_c2_counting_vs_enumeration",
         f"{total} instances across the full q,d,N,R grid, exact")


# --- criteria 3 and 4: covering radius, shared instance pool ----------------


@pytest.fixture(scope="module")
def covrad_pool():
    rng = random.Random("accept:3")
    pool = []
    for q in (2, 3):
        field = _make_field(q)
        for d in (2, 3):
            for N in (0, 1):
                for _ in range(26):
                    lat = random_lattice(rng, field, d, -1, 2)
                    S = random_alpha_lattice(rng, field, d, N, lat)
                    pool.append((lat, N, S, covrad_periodic(S)))
    return pool


def test_c3_covering_radius_vs_oracle(covrad_pool):
    for _lat, _N, S, got in covrad_pool:
        assert got == covrad_oracle(S, M=12)
    lam, W = w_instance()
    wr = covrad_periodic(W)
    assert wr == QExp(-2) and wr == covrad_oracle(W, M=12)

    rng = random.Random("accept:3z")
    zeros = 0
    for _ in range(100):
        q = rng.choice((2, 3))
        field = _make_field(q)
        d = rng.choice((2, 3))
        lat = random_lattice(rng, field, d, -2, 2)
        Z = make_alpha_lattice(
            lat, ["0"] * d, 0, require_irrational=False
        )
        e_sup = reduce_lattice(lat, ConvexBody.identity(field, d)).exps[-1]
        assert covrad_periodic(Z) == QExp(e_sup - 1)
        zeros += 1
    note("test_c3_covering_radius_vs_oracle",
         f"{len(covrad_pool)} instances at M=12 + W -> q^-2"
         f" + {zeros} alpha=0 closed-form checks")


def test_c4_covering_radius_sandwich(covrad_pool):
    n = 0
    for lat, N, _S, got in covrad_pool:
        lo, hi = covrad_bounds(lat, N)
        assert lo <= Fraction(got.exp)
        assert got.exp <= hi.exp
        n += 1
    lam, W = w_instance()
    lo, hi = covrad_bounds(lam, 1)
    assert lo <= Fraction(-2) <= Fraction(hi.exp)
    note("test_c4_covering_radius_sandwich",
         f"{n + 1} instances, exact rational comparison")


# --- criterion 5: packing radius and density --------------------------------


def test_c5_packing():
    rng = random.Random("accept:5")
    accepted = 0
    attempts = 0
    cells = {}
    while accepted < 200 and attempts < 4000:
        attempts += 1
        q = rng.choice((2, 3))
        field = _make_field(q)
        d = rng.choice((2, 3))
        N = rng.choice((0, 1))
        S = _random_instance(rng, field, d, N)
        # the oracle's stationarity window is tiled by fundamental
        # cells of the underlying lattice, so its radius threshold is
        # the plain lattice's top sup-norm minimum
        def floor_radius(inst):
            e_sup = reduce_lattice(inst.lattice).exps[-1]
            return max(e_sup, 0) + 1
        R0 = floor_radius(S)
        if not _feasible_radius_grid(S, R0 + 1, limit=60_000):
            # wide d=3 draws enumerate too much; retry with a narrow
            # spread so every cell still contributes
            lat = random_lattice(rng, field, d, 0, 1)
            S = random_alpha_lattice(rng, field, d, N, lat)
            R0 = floor_radius(S)
            if not _feasible_radius_grid(S, R0 + 1, limit=60_000):
                continue
        exps, _ = succ_minima_periodic(S)
        assert packing_radius(S) == QExp(exps[0] - 1)
        dens = packing_density(S)
        assert density_oracle(S, R=R0) == dens
        assert density_oracle(S, R=R0 + 1) == dens
        accepted += 1
        cells[(q, d)] = cells.get((q, d), 0) + 1
    assert accepted >= 200
    assert all(v >= 5 for v in cells.values()) and len(cells) == 4

    lam, W = w_instance()
    assert packing_density(W) == Fraction(1)
    assert density_oracle(W) == Fraction(1)
    W0 = make_alpha_lattice(lam, ["x^-1", "x^-2"], 0)
    assert packing_density(W0) == Fraction(1, 2)
    assert density_oracle(W0) == Fraction(1, 2)
    note("test_c5_packing",
         f"{accepted} instances: packrad = e_1 - 1, density stationary"
         " at R and R+1; W -> 1, W(N=0) -> 1/2")


# --- criterion 6: successive-minima bounds and the sandwich -----------------


def test_c6_theorem_bounds(covrad_pool):
    rng = random.Random("accept:6")
    n = 0
    sandwiches = 0
    for _lat, _N, S, _got in covrad_pool:
        rep = check_bounds(S)
        assert rep.passed
        if rep.sandwich_checked:
            assert rep.sandwich_lower_ok and rep.sandwich_upper_ok
            sandwiches += 1
        n += 1
    # dedicated d=2, N<=1 pool where the sandwich hypothesis is
    # engineered to hold (every coordinate denominator degree > N)
    field = _make_field(2)
    f3 = _make_field(3)
    while sandwiches < 100:
        q = rng.choice((2, 3))
        fld = field if q == 2 else f3
        N = rng.choice((0, 1))
        lat = random_lattice(rng, fld, 2, -1, 2)
        S = random_alpha_lattice(rng, fld, 2, N, lat)
        rep = check_bounds(S)
        assert rep.passed
        n += 1
        if rep.sandwich_checked:
            assert rep.sandwich_lower_ok and rep.sandwich_upper_ok
            sandwiches += 1

    lam, W = w_instance()
    rep = check_bounds(W)
    assert rep.passed
    assert rep.bnd_first_lhs == -2 and rep.bnd_rhs == -2
    # W achieves equality on both sides of the sandwich
    dv = d_invariant(W)
    exps, _ = succ_minima_periodic(W)
    assert dv.exp + lam.log_det == sum(exps) == lam.log_det - 2 == -2
    note("test_c6_theorem_bounds",
         f"{n} instances, both bounds hold; {sandwiches} sandwich"
         " evaluations; W tight at q^-2 on both sides")


# --- criterion 7: convex-body theorem ---------------------------------------


def test_c7_convex_body_theorem():
    rng = random.Random(7)
    fields = {q: _make_field(q) for q in (2, 3)}
    held = fails = 0
    while (held < 100 or fails < 100) and held + fails < 1500:
        q = rng.choice((2, 3))
        d = rng.choice((2, 3))
        field = fields[q]
        lat = random_lattice(rng, field, d)
        C = random_body(rng, field, d)
        if rng.random() < 0.5:
            S = random_alpha_lattice(rng, field, d, rng.choice([0, 1]), lat)
        else:
            S = from_lattice(lat)
        mk = minkowski_search(S, C)
        if mk.measure_exp > mk.threshold_exp:
            if held >= 100:
                continue
            assert mk.status == "point", "hypothesis held but no point"
            norm = norm_in_body(mk.point, C)
            assert not norm.is_zero and norm <= QExp(0)
            held += 1
        else:
            if fails >= 100:
                continue
            assert mk.status == "inapplicable"
            assert mk.point is None and mk.point_norm is None
            fails += 1
    assert held >= 100 and fails >= 100
    note("test_c7_convex_body_theorem",
         f"{held} hypothesis-holding instances -> verified nonzero point;"
         f" {fails} failing -> reported inapplicable")


# --- criterion 8: reduction soundness ----------------------------------------


def test_c8_reduction_soundness():
    rng = random.Random("accept:8")
    instances = 0
    vectors = 0
    for q in (2, 3, 4):
        field = _make_field(q)
        for d in (2, 3):
            for _ in range(17):
                lat = random_lattice(rng, field, d)
                C = random_body(rng, field, d)
                rb = reduce_lattice(lat, C)
                M0 = mat_mul_poly(C.adj, lat.G)
                R, U, degs = popov_reduce(M0, identity_poly(field, d))
                du = det_poly(U)
                assert du.degree == 0 and not du.is_zero
                assert sum(degs) == det_poly(M0).degree
                for _ in range(50):
                    cs = [
                        Poly(field, tuple(
                            rng.randrange(field.q)
                            for _ in range(rng.randint(1, 3))
                        ))
                        for _ in range(d)
                    ]
                    want = None
                    for c, e in zip(cs, rb.exps):
                        if not c.is_zero:
                            cand = c.degree + e
                            want = cand if want is None else max(want, cand)
                    got = rb.norm_from_coords(cs)
                    if want is None:
                        assert got.is_zero
                    else:
                        assert not got.is_zero and got.exp == want
                    assert norm_in_body(rb.ambient_from_coords(cs), C) == got
                    vectors += 1
                instances += 1
    assert instances >= 100
    note("test_c8_reduction_soundness",
         f"{instances} reductions: det(U) a unit, deg sum exact,"
         f" orthogonality on {vectors} coefficient vectors")


# --- criterion 9: command line ----------------------------------------------


def test_c9_cli_examples(capsys):
    w = str(DATA / "w.json")
    popov2 = str(DATA / "popov2.json")

    assert cli.main(["covrad", w]) == 0
    assert capsys.readouterr().out == "q^-2\n"

    assert cli.main(["covrad", "--oracle", w]) == 0
    assert capsys.readouterr().out == "q^-2\noracle: q^-2\n"

    assert cli.main(["minima", popov2]) == 0
    assert capsys.readouterr().out == "q^0 q^0\n"

    code = cli.main(
        ["verify", "--grid", "q=2,3;d=2,3;N=0,1,2", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 and all(" pass " in ln for ln in lines)
    note("test_c9_cli_examples",
         "covrad W -> q^-2 (oracle agrees), minima -> q^0 q^0,"
         " verify full grid seed 7 -> all pass, exit 0")

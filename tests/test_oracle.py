"""Brute-force oracles: enumeration, minima, covering radius, density.

These are deliberately naive and exist so the fast implementations have
something independent to disagree with.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from fflat import (
    GF,
    ConvexBody,
    Lattice,
    QExp,
    covrad_oracle,
    density_oracle,
    enumerate_points,
    from_lattice,
    make_alpha_lattice,
    norm_in_body,
    packing_density,
    succ_minima_periodic,
    succmin_oracle,
)
from fflat.errors import BudgetExceeded, PrecisionTooCoarse

F2 = GF(2)
F3 = GF(3)


@pytest.fixture(scope="module")
def plain():
    return from_lattice(Lattice.standard(F2, 2))


@pytest.fixture(scope="module")
def W():
    lam = Lattice.standard(F2, 2)
    return make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)


@pytest.fixture(scope="module")
def skew():
    return from_lattice(Lattice(F2, [["x", "0"], ["0", "1/x"]]))


class TestEnumerate:
    def test_plain_radius_zero(self, plain):
        pts = enumerate_points(plain, 0)
        assert len(pts) == 4

    def test_w_radius_zero(self, W):
        assert len(enumerate_points(W, 0)) == 16

    def test_small_radius_leaves_origin(self, plain):
        pts = enumerate_points(plain, -3)
        assert len(pts) == 1
        assert all(c.is_zero for c in pts[0])

    def test_points_actually_lie_in_ball(self, W):
        C = ConvexBody.identity(F2, 2)
        for v in enumerate_points(W, 1):
            n = norm_in_body(v, C)
            assert n.is_zero or n.exp <= 1

    def test_coords_only_same_cardinality(self, W):
        ambient = enumerate_points(W, 1)
        coords = enumerate_points(W, 1, coords_only=True)
        assert len(ambient) == len(coords)
        # ambient stays the default
        assert ambient[0] is not coords[0]

    def test_budget(self, W):
        with pytest.raises(BudgetExceeded):
            enumerate_points(W, 12, budget=100)


class TestSuccminOracle:
    def test_plain(self, plain):
        assert succmin_oracle(plain) == [0, 0]

    def test_w(self, W):
        assert succmin_oracle(W) == [-1, -1]

    def test_skew(self, skew):
        assert succmin_oracle(skew) == [-1, 1]

    def test_matches_fast_path(self, plain, W, skew):
        # the fast path also produces witnesses; check those here too
        C = ConvexBody.identity(F2, 2)
        for S in (plain, W, skew):
            exps, wits = succ_minima_periodic(S)
            assert succmin_oracle(S) == exps
            for e, w in zip(exps, wits):
                assert norm_in_body(w, C) == QExp(e)


class TestCovradOracle:
    def test_plain(self, plain):
        assert covrad_oracle(plain, M=3) == QExp(-1)

    def test_w(self, W):
        assert covrad_oracle(W, M=3) == QExp(-2)

    def test_skew(self, skew):
        assert covrad_oracle(skew, M=3) == QExp(0)

    def test_too_coarse(self, W):
        with pytest.raises(PrecisionTooCoarse):
            covrad_oracle(W, M=0)


class TestDensityOracle:
    def test_values(self, plain, W):
        assert density_oracle(plain, R=2) == Fraction(1)
        assert density_oracle(W, R=2) == Fraction(1)
        lam = Lattice.standard(F2, 2)
        W0 = make_alpha_lattice(lam, ["x^-1", "x^-2"], 0)
        assert density_oracle(W0, R=2) == Fraction(1, 2)

    def test_stationary_in_radius(self, plain, W, skew):
        lam = Lattice.standard(F2, 2)
        W0 = make_alpha_lattice(lam, ["x^-1", "x^-2"], 0)
        for S in (plain, W, W0, skew):
            base = density_oracle(S)
            e_sup = succmin_oracle(S)[-1]
            again = density_oracle(S, R=max(e_sup, 0) + 3)
            assert base == again

    def test_matches_closed_form(self, plain, W, skew):
        for S in (plain, W, skew):
            assert density_oracle(S) == packing_density(S)

    def test_radius_below_floor_rejected(self, W):
        with pytest.raises(ValueError):
            density_oracle(W, R=-1)


def test_f3_cross_checks():
    lam3 = Lattice(F3, [["x", "1"], ["0", "x"]])
    S3 = make_alpha_lattice(lam3, ["x^-1", "2*x^-2"], 0)
    assert succmin_oracle(S3) == succ_minima_periodic(S3)[0]
    assert density_oracle(S3) == packing_density(S3)


def test_oracle_with_nonunit_body(W):
    C = ConvexBody.ball(F2, 2, -1)
    exps = succmin_oracle(W, C)
    assert exps == succ_minima_periodic(W, C)[0]
    _, wits = succ_minima_periodic(W, C)
    for e, w in zip(exps, wits):
        assert norm_in_body(w, C) == QExp(e)


# closed forms and the walk the oracles check; importing one would make
# an oracle agree with what it is meant to test
CLOSED_FORMS = {
    "fractional_points", "_generators", "succ_minima_periodic", "count_points",
    "minkowski_search", "covrad_periodic", "rank_condition", "_pattern_matrix",
}


def test_oracle_imports_no_closed_form():
    import fflat.oracle

    tree = ast.parse(Path(fflat.oracle.__file__).read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & CLOSED_FORMS

"""Brute-force oracles: enumeration, minima, covering radius, density.

These are deliberately naive and exist so the fast implementations have
something independent to disagree with.
"""

import ast
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from fflat import (
    GF,
    ConvexBody,
    InsufficientPrecision,
    Lattice,
    NRational,
    QExp,
    count_oracle,
    count_points,
    covrad_oracle,
    density_oracle,
    enumerate_points,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    norm_in_body,
    packing_density,
    parse_element,
    reduce_lattice,
    succ_minima_periodic,
    succmin_oracle,
)
from fflat.errors import BudgetExceeded, PrecisionTooCoarse
from fflat.ffcore import expand_rational
from test_periodic import _frac_coord

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2, (1, 1, 1))


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

    def test_truncated_instance_is_a_typed_refusal(self):
        # the rank test is over F_q(x), so truncated points are refused
        # with a typed error; the closed forms and the window count answer
        alpha = [parse_element(F2, "1/(x^3+x+1)"), parse_element(F2, "x/(x^2+x+1)")]
        S = make_alpha_lattice(Lattice.standard(F2, 2),
                               [expand_rational(y, -8).truncated(-8) for y in alpha], 1)
        assert succ_minima_periodic(S)[0] == [-2, -1]
        assert count_oracle(S, 0) == count_points(S, radius=0) == 16
        for oracle in (succmin_oracle, density_oracle):
            with pytest.raises(PrecisionTooCoarse, match="needs exact coordinates"):
                oracle(S)

    def test_matches_fast_path(self, plain, W, skew):
        # the fast path also produces witnesses; check those here too
        C = ConvexBody.identity(F2, 2)
        for S in (plain, W, skew):
            exps, wits = succ_minima_periodic(S)
            assert succmin_oracle(S) == exps
            for e, w in zip(exps, wits):
                assert norm_in_body(w, C) == QExp(e)


# windows above this size are shrunk by lowering R, so that building
# every point stays cheap
WINDOW_CAP = 1024


@st.composite
def windows(draw):
    """(S, R, C or None) over q in {2, 3, 4}, d in {2, 3}: the alpha form
    (N-rational alpha admitted), the coset form or a plain lattice, with
    Rat or truncated coordinates; R from e_1 - 2 to e_d + 1 of the
    reduced basis for C, lowered while the window holds more than
    WINDOW_CAP points."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)
    series = draw(st.booleans())

    def coords():
        return [draw(_frac_coord(F, series)) for _ in range(d)]

    kind = draw(st.sampled_from(["alpha", "coset", "plain"]))
    try:
        if kind == "alpha":
            S = make_alpha_lattice(lat, coords(), draw(st.integers(0, 1)),
                                   require_irrational=False)
        elif kind == "coset":
            S = make_coset_lattice(lat, [coords() for _ in range(draw(st.integers(1, 2)))])
        else:
            S = from_lattice(lat)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    C = draw(st.sampled_from([None, -1, 1]))
    C = None if C is None else ConvexBody.ball(F, d, C)
    exps = reduce_lattice(lat, S.base_body() if C is None else C).exps
    R = draw(st.integers(exps[0] - 2, exps[-1] + 1))
    try:
        # counting builds no point, so the size probe needs no budget
        while R > exps[0] - 2 and count_oracle(S, R, C, budget=1 << 62) > WINDOW_CAP:
            R -= 1
    except InsufficientPrecision:
        pass
    return S, R, C


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except InsufficientPrecision as e:
        return ("InsufficientPrecision", e.needed_floor)


@given(windows())
def test_count_oracle_counts_the_enumerated_window(inst):
    """count_oracle is the length of the window enumerate_points builds,
    or the same precision error; both refuse a budget one below the
    window and answer at the window's size."""
    S, R, C = inst
    total = _outcome(count_oracle, S, R, C)
    if isinstance(total, tuple):
        assert _outcome(enumerate_points, S, R, C, coords_only=True) == total
        return
    assert len(enumerate_points(S, R, C, coords_only=True)) == total
    for fn in (count_oracle, enumerate_points):
        with pytest.raises(BudgetExceeded):
            fn(S, R, C, budget=total - 1)
    assert count_oracle(S, R, C, budget=total) == total
    assert len(enumerate_points(S, R, C, budget=total, coords_only=True)) == total


class TestSuccminMemo:
    def _w(self):
        return make_alpha_lattice(Lattice.standard(F2, 2), ["x^-1", "x^-2"], 1)

    def test_small_budget_still_raises_after_an_answer(self):
        S = self._w()
        exps = succmin_oracle(S)
        # the last ball grown is radius q^exps[-1]
        need = count_oracle(S, exps[-1])
        with pytest.raises(BudgetExceeded):
            succmin_oracle(S, budget=need - 1)
        assert succmin_oracle(S, budget=need) == exps

    def test_returned_list_is_fresh(self):
        S = self._w()
        first = succmin_oracle(S)
        first.append(99)
        first[0] = 42
        assert succmin_oracle(S) == [-1, -1]

    def test_each_body_gets_its_own_answer(self):
        S = self._w()
        C = ConvexBody.ball(F2, 2, -1)
        assert succmin_oracle(S) == [-1, -1]
        got = succmin_oracle(S, C)
        assert got == succmin_oracle(self._w(), C)
        assert got == succ_minima_periodic(S, C)[0]
        assert got != [-1, -1]


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


# closed forms the oracles check; importing one would make
# an oracle agree with what it is meant to test
CLOSED_FORMS = {
    "_combination", "_weight_echelon", "succ_minima_periodic", "count_points",
    "minkowski_search", "covrad_periodic",
}


def test_oracle_imports_no_closed_form():
    import fflat.oracle

    # a deleted closed form would leave the guard checking nothing
    periodic = import_module("fflat.periodic")
    for name in CLOSED_FORMS:
        assert hasattr(periodic, name), name

    tree = ast.parse(Path(fflat.oracle.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.name for node in imports for alias in node.names}
    assert not names & CLOSED_FORMS
    # from fflat.periodic, only the type: everything else there is
    # closed-form machinery or its plumbing
    assert "fflat.periodic" not in names
    from_periodic = {
        alias.name for node in imports if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("periodic", 1), ("fflat.periodic", 0))
        for alias in node.names
    }
    assert from_periodic == {"PeriodicLattice"}

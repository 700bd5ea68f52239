"""Covering radii of periodic lattices through the ranks of the
generators' tail patterns, which for the alpha form are Hankel matrix
ranks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fflat import (
    GF,
    ConvexBody,
    InsufficientPrecision,
    Lattice,
    LaurentSeries,
    NRational,
    Poly,
    QExp,
    Rat,
    covrad_bounds,
    covrad_oracle,
    covrad_periodic,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    parse_element,
)
from fflat.battery import (
    random_alpha_lattice,
    random_body,
    random_coset_lattice,
    random_lattice,
)
from fflat.cli import _apply_precision
from fflat.exactlinalg import _echelon_fq
from fflat.lattice import _tail_pattern, reduce_lattice
from fflat.periodic import _coords, _cut
from test_periodic import _pattern_rows

F2 = GF(2)
F3 = GF(3)


def _rows_from_tails(vecs, reach, depths):
    """The pattern rows of the generators of vecs at depths, from each
    coordinate's tail read depths[i] + reach deep."""
    tails = [
        [_tail_pattern(y, dep + reach) if dep else () for y, dep in zip(v, depths)]
        for v in vecs
    ]
    return _pattern_rows(tails, reach, depths)


def _hankel(y, m: int, n: int):
    """The m x n Hankel matrix of y's tail: entry (i, j) is the
    coefficient of x^-(i+j+1) in the fractional part of y (0-indexed)."""
    tail = _tail_pattern(y, m + n - 1)
    return [list(tail[i:i + n]) for i in range(m)]


class TestHankelPlacement:
    """Where the tail coefficients land in the stacked Hankel matrices
    that TestHankelIdentity compares with the pattern matrix."""

    def test_simple_tail(self):
        a = parse_element(F2, "x^-1")
        assert _hankel(a, 2, 2) == [[1, 0], [0, 0]]

    def test_truncated_series_within_window(self):
        s = LaurentSeries.from_pairs(F2, {-1: 1, -2: 1, -3: 0}, -3, exact=False)
        assert _hankel(s, 2, 2) == [[1, 1], [1, 0]]

    def test_truncated_series_past_window(self):
        s = LaurentSeries.from_pairs(F2, {-1: 1, -2: 1, -3: 0}, -3, exact=False)
        with pytest.raises(InsufficientPrecision) as ei:
            _hankel(s, 3, 2)
        assert ei.value.needed_floor == -4

    def test_rational_input(self):
        # 1/(x^2+1) over F3 = x^-2 - x^-4 + x^-6 - ...
        a = parse_element(F3, "1/(x^2+1)")
        assert _hankel(a, 3, 3) == [[0, 1, 0], [1, 0, 2], [0, 2, 0]]


class TestRankCondition:
    def test_w_pattern(self):
        lam = Lattice.standard(F2, 2)
        W = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)
        assert covrad_periodic(W) == QExp(-2)
        assert covrad_periodic(W) == _scan_covrad(W)


class TestCovradPeriodic:
    def test_alpha_zero_reduces_to_lattice(self):
        lam = Lattice.standard(F2, 2)
        Z = make_alpha_lattice(lam, ["0", "0"], 0, require_irrational=False)
        assert covrad_periodic(Z) == QExp(-1)

    def test_negative_gamma_needs_extended_scan(self):
        # spread lattice: e = [0, 3], so uncovered directions appear
        # already at ell < 0 and the scan must start below zero
        lam = Lattice(F2, [["1", "0"], ["0", "x^3"]])
        S = make_alpha_lattice(
            lam, ["0", "x^-1"], 0, require_irrational=False
        )
        assert S.period_size == 1
        got = covrad_periodic(S)
        assert got == QExp(1)
        assert got == covrad_oracle(S, M=8)

    def test_agrees_with_oracle_randomized(self):
        rng = random.Random(11)
        for field in (F2, F3):
            for d in (2, 3):
                trials = 0
                while trials < 15:
                    rows = []
                    for i in range(d):
                        row = []
                        for j in range(d):
                            if i == j:
                                k = rng.randint(-2, 2)
                                row.append(f"x^{k}" if k >= 0 else f"1/x^{-k}")
                            elif rng.random() < 0.4:
                                c = rng.randrange(1, field.q)
                                row.append(f"{c}*x" if field.q > 2 else "x")
                            else:
                                row.append("0")
                        rows.append(row)
                    try:
                        lat = Lattice(field, rows)
                    except Exception:
                        continue
                    N = rng.choice((0, 1))
                    den = Poly.monomial(field, 1, N + 2)
                    alphas = []
                    for _ in range(d):
                        cs = tuple(rng.randrange(field.q) for _ in range(N + 2))
                        alphas.append(Rat(Poly(field, cs), den))
                    S = make_alpha_lattice(
                        lat, alphas, N, require_irrational=False
                    )
                    assert covrad_periodic(S) == covrad_oracle(S, M=12)
                    trials += 1


class TestCoefficientLocality:
    def test_truncation_below_needed_depth_is_invisible(self):
        lam = Lattice.standard(F2, 2)
        exact = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)
        a1 = LaurentSeries.from_pairs(F2, {-1: 1}, -3, exact=False)
        a2 = LaurentSeries.from_pairs(F2, {-2: 1}, -3, exact=False)
        trunc = make_alpha_lattice(lam, [a1, a2], 1)
        assert covrad_periodic(trunc) == covrad_periodic(exact)

    def test_truncation_above_needed_depth_is_refused(self):
        # e = (0, 3): the columns of weight >= 1 are x^-1 .. x^-(2 + N)
        # of alpha_2's tail for the N + 1 generators
        lam = Lattice(F2, [["1", "0"], ["0", "x^3"]])
        alpha = [parse_element(F2, "1/(x^5+x^2+1)"), parse_element(F2, "x/(x^3+x+1)")]
        # N = 1 at -2: x^-3 is cut, but only frac(x * alpha_2) reads it,
        # and that row took its pivot at x^-2 already
        trunc = make_alpha_lattice(lam, [_apply_precision(F2, a, -2) for a in alpha], 1)
        assert covrad_periodic(trunc) == QExp(0)
        with pytest.raises(InsufficientPrecision) as ei:
            _scan_covrad(trunc)
        assert ei.value.needed_floor == -3
        # N = 2 at -3 or -4: a row without a pivot meets x^-4 or x^-5
        alpha = [parse_element(F2, "1/(x^3+x+1)"), alpha[1]]
        for floor in (-3, -4):
            trunc = make_alpha_lattice(lam, [_apply_precision(F2, a, floor) for a in alpha], 2)
            with pytest.raises(InsufficientPrecision) as ei:
                covrad_periodic(trunc)
            assert ei.value.needed_floor == -5
        fine = make_alpha_lattice(lam, [_apply_precision(F2, a, -5) for a in alpha], 2)
        assert covrad_periodic(fine) == QExp(-1) == covrad_periodic(make_alpha_lattice(lam, alpha, 2))

    def test_level_past_the_generator_count_reads_nothing(self):
        # W's third level would read x^-3 but asks rank 4 of 2 generators
        lam = Lattice.standard(F2, 2)
        a1 = LaurentSeries.from_pairs(F2, {-1: 1}, -2, exact=False)
        a2 = LaurentSeries.from_pairs(F2, {-2: 1}, -2, exact=False)
        trunc = make_alpha_lattice(lam, [a1, a2], 1)
        assert covrad_periodic(trunc) == QExp(-2)

    def test_deep_perturbation_is_invisible(self):
        lam = Lattice.standard(F2, 2)
        base = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)
        # perturb far below the scan depth; same N, same result
        a1 = LaurentSeries.from_pairs(F2, {-1: 1, -9: 1}, -9, exact=True)
        a2 = LaurentSeries.from_pairs(F2, {-2: 1, -8: 1}, -9, exact=True)
        pert = make_alpha_lattice(lam, [a1, a2], 1)
        assert covrad_periodic(pert) == covrad_periodic(base)


class TestCovradBounds:
    def test_standard_lattice_values(self):
        lam = Lattice.standard(F2, 2)
        lo, hi = covrad_bounds(lam, 1)
        assert lo == Fraction(-3) and hi == QExp(-1)
        lo0, hi0 = covrad_bounds(lam, 0)
        assert lo0 == Fraction(-2) and hi0 == QExp(-1)

    def test_f3_dimension_three(self):
        lam = Lattice.standard(F3, 3)
        lo, hi = covrad_bounds(lam, 0)
        assert lo == Fraction(-2) and hi == QExp(-1)

    def test_sandwich_on_instances(self):
        lam = Lattice.standard(F2, 2)
        W = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1)
        lo, hi = covrad_bounds(lam, 1)
        got = covrad_periodic(W)
        assert lo <= Fraction(got.exp) and got.exp <= hi.exp


class TestHankelIdentity:
    def test_stacked_hankel_is_the_transposed_alpha_pattern(self):
        rng = random.Random(5)
        for field in (F2, F3):
            for d in (2, 3):
                for _ in range(6):
                    lat = random_lattice(rng, field, d, -1, 2)
                    N = rng.randint(0, 3)
                    S = random_alpha_lattice(rng, field, d, N, lat)
                    rb = reduce_lattice(lat)
                    depths = [rng.randint(0, 4) for _ in range(d)]
                    stacked = [
                        row for y, dep in zip(_coords(S, rb)[0], depths)
                        for row in _hankel(y, dep, N + 1)
                    ]
                    pattern = _rows_from_tails(_coords(S, rb), N, depths)
                    assert len(pattern) == N + 1
                    assert stacked == [list(col) for col in zip(*pattern)]


class TestCovradEveryForm:
    def test_agrees_with_oracle_and_lattice_on_random_bodies(self):
        rng = random.Random(17)
        for field in (F2, F3):
            for d in (2, 3):
                for _ in range(5):
                    lat = random_lattice(rng, field, d, -1, 2)
                    C = random_body(rng, field, d, -1, 1) if rng.random() < 0.7 else None
                    plain = covrad_periodic(from_lattice(lat), C)
                    rb = reduce_lattice(lat, C)
                    assert plain == QExp(rb.exps[-1] - 1)
                    cosets = random_coset_lattice(rng, field, d, rng.randint(1, 4 if field.q == 2 else 3), lat)
                    assert covrad_periodic(cosets, C) == covrad_oracle(cosets, C)
                    alpha = random_alpha_lattice(rng, field, d, rng.randint(0, 1), lat)
                    assert covrad_periodic(alpha, C) == covrad_oracle(alpha, C, M=12)

    def test_rank_condition_on_cosets(self):
        lam = Lattice.standard(F2, 2)
        S = make_coset_lattice(lam, [["x^-1", "0"], ["0", "x^-1"]])
        C = ConvexBody.identity(F2, 2)
        assert covrad_periodic(S, C) == QExp(-2) == covrad_oracle(S)
        assert covrad_periodic(S, C) == _scan_covrad(S, C)


def _scan_covrad(S, C=None):
    """The covering radius by the level scan that the elimination
    replaced, kept as a reference: level l holds when the generators'
    pattern matrix at depths max(l + e_i, 0) has full column rank, the
    good levels are downward-closed, and the answer is q^-l for the
    first failing l.  A level whose coefficients are cut refuses with
    the floor of the deepest level the scan can reach."""
    rb = reduce_lattice(S.lattice, C)
    vecs, reach = _coords(S, rb)[::-1], S.reach

    def depths(ell):
        return [max(ell + e, 0) for e in rb.exps]

    def full_rank(ell):
        deps = depths(ell)
        if sum(deps) > S.period_size:
            return False
        try:
            rows = _rows_from_tails(vecs, reach, deps)
        except InsufficientPrecision:
            raise _cut(S, vecs, max(deps)) from None
        return len(_echelon_fq(S.field, rows)[1]) == sum(deps)

    ell = -rb.exps[-1]
    try:
        while full_rank(ell + 1):
            ell += 1
    except InsufficientPrecision:
        while sum(depths(ell + 2)) <= S.period_size:
            ell += 1
        full_rank(ell + 1)
        raise
    return QExp(-(ell + 1))


@st.composite
def truncated_instances(draw):
    """(build, floor): build(None) is an exact alpha-form or coset
    instance over q in {2, 3}, d in {2, 3}, build(f) its twin with every
    coordinate truncated at x^f, both in the reduced frame."""
    F = draw(st.sampled_from([F2, F3]))
    d = draw(st.sampled_from([2, 3]))
    diag = [draw(st.sampled_from(["1", "x^2", "x^3", "x^4", "x^-1"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)

    def coord():
        k = draw(st.integers(1, 6))
        digits = st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k)
        return Rat(Poly(F, draw(digits)), Poly(F, (*draw(digits), 1)))

    def cut(vals, floor):
        return vals if floor is None else [_apply_precision(F, y, floor) for y in vals]

    if draw(st.booleans()):
        N = draw(st.integers(1, 3))
        alpha = [coord() for _ in range(d)]
        def build(floor):
            return make_alpha_lattice(lat, cut(alpha, floor), N)
    else:
        reps = [[coord() for _ in range(d)] for _ in range(draw(st.integers(1, 4)))]
        def build(floor):
            return make_coset_lattice(lat, [cut(rep, floor) for rep in reps])
    return build, draw(st.integers(-7, -1))


@settings(max_examples=300)
@given(truncated_instances())
def test_refused_covrad_names_a_floor_that_suffices(inst):
    build, floor = inst
    try:
        exact = build(None)
        trunc = build(floor)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    want = covrad_periodic(exact)
    try:
        got = covrad_periodic(trunc)
    except InsufficientPrecision as e:
        assert e.needed_floor < floor
        got = covrad_periodic(build(e.needed_floor))
    assert got == want


@settings(max_examples=300)
@given(truncated_instances(), st.sampled_from([None, "ball", "random"]),
       st.randoms(use_true_random=False))
def test_covrad_answers_where_the_level_scan_answers(inst, body, rng):
    """On every level the scan answers, the elimination answers the same;
    where both refuse, they name the same floor; an answer the scan
    refused equals the exact twin's."""
    build, floor = inst
    try:
        exact = build(None)
        trunc = build(floor)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    field, d = trunc.field, trunc.d
    C = (None if body is None else ConvexBody.ball(field, d, 1) if body == "ball"
         else random_body(rng, field, d, -1, 1))
    assert covrad_periodic(exact, C) == _scan_covrad(exact, C)
    try:
        want = _scan_covrad(trunc, C)
    except InsufficientPrecision as e:
        want = e
    try:
        got = covrad_periodic(trunc, C)
    except InsufficientPrecision as e:
        assert isinstance(want, InsufficientPrecision)
        assert e.needed_floor == want.needed_floor
        return
    if isinstance(want, InsufficientPrecision):
        want = covrad_periodic(exact, C)
    assert got == want

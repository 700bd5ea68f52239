"""Periodic lattices: the alpha-orbit form and the coset form.

The running worked family here is W: q = 2, Lambda = R^2,
alpha = (x^-1, x^-2) in reduced coordinates, N = 1.
"""

import random
import signal
from fractions import Fraction
from itertools import combinations, groupby, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fflat import (
    GF,
    ConvexBody,
    InsufficientPrecision,
    Lattice,
    LaurentSeries,
    NRational,
    QExp,
    check_bounds,
    count_points,
    covrad_periodic,
    d_invariant,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    minkowski_search,
    norm_in_body,
    packing_density,
    packing_radius,
    parse_element,
    reduce_lattice,
    succ_minima_periodic,
)
from fflat import cli
from fflat.battery import random_body
from fflat.errors import BudgetExceeded, CapExceeded, FFLatError, UndefinedValue
from fflat.ffcore import Poly, Rat, expand_rational
from fflat.oracle import (
    _points_by_definition, count_oracle, density_oracle, rank_rational, succmin_oracle,
)
from fflat.exactlinalg import _common_den, _echelon_fq, _minor_table
from fflat.lattice import ReducedBasis, _lift, _tail_pattern
from fflat import periodic
from fflat.periodic import PeriodicLattice, _first_spanned, _independent
from test_exactlinalg import _rref_by_columns, det

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2, (1, 1, 1))


@pytest.fixture(scope="module")
def lam():
    return Lattice.standard(F2, 2)


@pytest.fixture(scope="module")
def W(lam):
    return make_alpha_lattice(lam, ["x^-1", "x^-2"], 1, frame="reduced")


def _rat_key(y):
    return (y.num.coeffs, y.den.coeffs)


class TestWFamily:
    def test_period_size(self, W):
        assert W.period_size == 2
        assert len(_points_by_definition(W, ConvexBody.identity(F2, 2))) == 4
        # every one of the 4 points has norm < 1, and the lattice adds
        # 4 shifts of norm <= 1 to each
        assert count_oracle(W, 0) == count_points(W) == 16

    def test_orbit_reps_and_norms(self, W):
        # frac(Q * alpha) for Q = 0, 1, x, x + 1: counting order
        want = [
            ("0", "0"),
            ("x^-1", "x^-2"),
            ("0", "x^-1"),
            ("x^-1", "x^-1+x^-2"),
        ]
        pts = _points_by_definition(W, ConvexBody.identity(F2, 2))
        assert len(pts) == len(want)
        for n, ((coords, norm), strs) in enumerate(zip(pts, want)):
            exp = [parse_element(F2, e) for e in strs]
            assert [_rat_key(y) for y in coords] == [_rat_key(y) for y in exp]
            if n == 0:
                assert norm.is_zero
            else:
                assert norm == QExp(-1)

    def test_minima(self, W):
        exps, wits = succ_minima_periodic(W)
        assert exps == [-1, -1]
        C = ConvexBody.identity(F2, 2)
        for e, w in zip(exps, wits):
            assert norm_in_body(w, C) == QExp(e)

    def test_minima_with_n0(self, lam):
        W0 = make_alpha_lattice(lam, ["x^-1", "x^-2"], 0)
        exps, _ = succ_minima_periodic(W0)
        assert exps == [-1, 0]

    def test_packing(self, lam, W):
        assert packing_radius(W) == QExp(-2)
        assert packing_density(W) == Fraction(1)
        W0 = make_alpha_lattice(lam, ["x^-1", "x^-2"], 0)
        assert packing_density(W0) == Fraction(1, 2)

    def test_counts(self, W):
        assert count_points(W, radius=0) == 16
        assert count_points(W, radius=1) == 64
        assert count_points(W) == 16  # unit body = radius 0

    def test_count_rejects_both_args(self, W):
        with pytest.raises(ValueError):
            count_points(W, ConvexBody.identity(F2, 2), radius=0)

    def test_d_invariant(self, W):
        assert d_invariant(W) == QExp(-2)

    def test_d_invariant_caps(self, lam):
        # past N = 2 some Pluecker vectors are no minor's
        with pytest.raises(CapExceeded):
            d_invariant(make_alpha_lattice(lam, ["x^-4", "x^-5"], 3))
        # any d: only N bounds the work
        lam4 = Lattice.standard(F2, 4)
        S = make_alpha_lattice(lam4, ["x^-2", "x^-3", "x^-4", "x^-5"], 1)
        assert d_invariant(S) == _dinv_by_definition(S) == QExp(-5)

    def test_bounds_report(self, W, lam):
        rep = check_bounds(W)
        assert rep.passed
        assert rep.bnd_first_lhs == -2 and rep.bnd_rhs == -2
        # the per-coordinate denominator-degree hypothesis fails for W
        # (den of phi_1 has degree 1 = N), so the gated sandwich is
        # skipped and the identity is checked directly instead
        assert not rep.sandwich_checked
        exps, _ = succ_minima_periodic(W)
        lhs = d_invariant(W).exp + lam.log_det - 0
        rhs = lam.log_det - 2 - 0
        assert lhs == sum(exps) == rhs == -2


class TestMinkowskiSearch:
    def test_w_point(self, W):
        mk = minkowski_search(W, ConvexBody.ball(F2, 2, -1))
        assert mk.status == "point"
        assert (mk.measure_exp, mk.threshold_exp) == (-2, -4)
        assert mk.point_source == "fractional"
        assert [_rat_key(v) for v in mk.point] == [
            _rat_key(parse_element(F2, "x^-1")),
            _rat_key(parse_element(F2, "x^-2")),
        ]
        # norm is relative to the search body: the point lies on the
        # boundary of ball(-1) itself
        assert mk.point_norm == QExp(0)

    def test_plain_lattice_inapplicable(self, lam):
        mk = minkowski_search(from_lattice(lam), ConvexBody.ball(F2, 2, -1))
        assert mk.status == "inapplicable"
        assert mk.measure_exp == mk.threshold_exp == -2
        assert mk.point is None

    def test_basis_point_source(self, lam):
        mk = minkowski_search(from_lattice(lam), ConvexBody.identity(F2, 2))
        assert mk.status == "point" and mk.point_source == "basis"
        assert mk.point_norm == QExp(0)

    def test_measure_hypothesis_does_not_force_a_point(self):
        # measure > det/q^(size+d) yet S has no nonzero point in C: the
        # exhaustive search certifies that, so the threshold in that
        # form cannot guarantee a point for size >= 1
        lam2 = Lattice(F2, [["x", "0"], ["0", "x^2"]])
        S2 = make_alpha_lattice(
            lam2, ["0", "x"], 0, frame="ambient", require_irrational=False
        )
        assert S2.period_size == 1
        mc = minkowski_search(S2, ConvexBody.identity(F2, 2))
        assert mc.measure_exp > mc.threshold_exp
        assert mc.status == "no_point"
        # the same instance against the plain-lattice threshold
        # det/q^d: the hypothesis fails, consistent with no point
        assert not mc.measure_exp > S2.lattice.log_det - S2.d

    def test_report_dict(self, W):
        d = minkowski_search(W).as_dict()
        assert d["status"] == "point"
        assert set(d) == {
            "status", "measure_exp", "threshold_exp", "classes_log",
            "point_source",
        }


class TestAlphaValidation:
    def test_rational_accepted(self, lam):
        S = make_alpha_lattice(lam, ["1/(x^3+x+1)", "0"], 1)
        assert S.period_size == 2

    def test_rational_rejected_with_witness(self, lam):
        with pytest.raises(NRational) as ei:
            make_alpha_lattice(lam, ["1/x", "0"], 1)
        assert ei.value.witness.degree <= 1

    def test_alpha_in_lattice_rejected(self, lam):
        with pytest.raises(NRational) as ei:
            make_alpha_lattice(lam, ["0", "0"], 0)
        assert ei.value.witness.degree == 0

    def test_equal_coordinates_rejected(self, lam):
        # (x^-1, x^-1): Q = x clears both coordinates
        with pytest.raises(NRational):
            make_alpha_lattice(lam, ["x^-1", "x^-1"], 1)

    def test_relaxed_alpha_zero(self, lam):
        Z = make_alpha_lattice(lam, ["0", "0"], 0, require_irrational=False)
        assert Z.period_size == 0
        assert len(_points_by_definition(Z, ConvexBody.identity(F2, 2))) == 1
        assert count_oracle(Z, 0) == count_points(Z) == 4
        exps, _ = succ_minima_periodic(Z)
        assert exps == [0, 0]

    def test_ambient_vs_reduced_frame(self, lam):
        # for the identity lattice the two frames coincide
        a = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1, frame="ambient")
        b = make_alpha_lattice(lam, ["x^-1", "x^-2"], 1, frame="reduced")
        assert succ_minima_periodic(a)[0] == succ_minima_periodic(b)[0]


class TestCosetForm:
    def test_construction_and_counts(self, lam, W):
        cs = make_coset_lattice(lam, [["x^-1", "x^-2"], ["0", "x^-1"]])
        assert cs.period_size == 2
        assert count_points(cs, radius=0) == 16
        exps, _ = succ_minima_periodic(cs)
        assert exps == [-1, -1]
        # spans the same point set as W
        assert packing_density(cs) == packing_density(W)

    def test_dependent_reps_rejected(self, lam):
        with pytest.raises(ValueError):
            make_coset_lattice(lam, [["x^-1", "0"], ["x^-1", "0"]])

    def test_out_of_domain_rep_rejected(self, lam):
        with pytest.raises(ValueError):
            make_coset_lattice(lam, [["x", "0"]])

    def test_from_lattice_is_trivial_coset(self, lam):
        S = from_lattice(lam)
        assert S.period_size == 0
        exps, _ = succ_minima_periodic(S)
        assert exps == [0, 0]


class TestTruncatedAlpha:
    def test_series_alpha_matches_exact(self, lam):
        a1 = LaurentSeries.from_pairs(F2, {-1: 1, -3: 1, -5: 1}, -6, exact=False)
        a2 = LaurentSeries.from_pairs(F2, {-2: 1}, -6, exact=True)
        Wt = make_alpha_lattice(lam, [a1, a2], 1)
        assert Wt.period_size == 2
        exps, _ = succ_minima_periodic(Wt)
        assert exps == [-1, -1]
        assert count_points(Wt, radius=0) == 16
        assert minkowski_search(Wt, ConvexBody.ball(F2, 2, -1)).status == "point"

    def test_series_n_rational_witness(self):
        # exact series (x^-1 + 2x^-2, x^-2) over F_3: the first nonzero Q in
        # counting order with frac(Q alpha) = 0 is x^2, point 9 of the walk
        a1 = LaurentSeries.from_pairs(F3, {-1: 1, -2: 2}, -2, exact=True)
        a2 = LaurentSeries.from_pairs(F3, {-2: 1}, -2, exact=True)
        with pytest.raises(NRational) as ei:
            make_alpha_lattice(Lattice.standard(F3, 2), [a1, a2], 2)
        assert ei.value.witness.coeffs == (0, 0, 1)

    def test_series_too_coarse_names_first_q(self):
        # (x^-2 + O(x^-4), O(x^-4)) over F_3: frac(x^2 alpha) is O(x^-2),
        # while every Q of lower degree leaves x^-2 or x^-1 known nonzero;
        # the refusal names the degree and the next floor of alpha itself
        a1 = LaurentSeries.from_pairs(F3, {-2: 1}, -3, exact=False)
        a2 = LaurentSeries.from_pairs(F3, {}, -3, exact=False)
        with pytest.raises(InsufficientPrecision) as ei:
            make_alpha_lattice(Lattice.standard(F3, 2), [a1, a2], 2)
        assert "Q of degree 2" in str(ei.value)
        assert ei.value.needed_floor == -4

    def test_all_unknown_coordinate_refused(self, lam):
        bad = LaurentSeries.from_pairs(F2, {}, -2, exact=False)
        with pytest.raises(InsufficientPrecision):
            make_alpha_lattice(lam, [bad, bad], 0)


# --- the construction certificate against the walk it replaced ---------


def _walk_verdict(phi, N: int):
    """The reference certificate, by enumeration: every nonzero Q with
    deg Q <= N must leave frac(Q * phi) a known nonzero coefficient.
    "certified", or for the first Q in counting order that does not,
    "refused" (some coordinate is truncated) or "n-rational"."""
    F = phi[0].field
    for digits in product(range(F.q), repeat=N + 1):
        Q = Poly(F, digits[::-1])
        if Q.is_zero:
            continue
        reps = [y.mul_poly(Q).frac_part() for y in phi]
        if not any(r.coeffs for r in reps):
            return "n-rational" if all(r.exact for r in reps) else "refused"
    return "certified"


@st.composite
def _alpha_series(draw):
    """(field, phi, N) over q in {2, 3, 4}, d in {2, 3}, N <= 4: every
    coordinate a series (sparse, an expanded rational or an exact
    Laurent polynomial), truncated near the floor that N needs."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(0, 4))
    base = -N - draw(st.integers(1, 4))
    digit = st.integers(1, F.q - 1)
    phi = []
    for _ in range(d):
        kind = draw(st.sampled_from(["sparse", "rational", "exact"]))
        floor = base - draw(st.sampled_from([0, 0, 1, 2]))
        if kind == "rational":
            y = draw(_frac_coord(F, False))
            phi.append(expand_rational(y, floor).truncated(floor))
            continue
        # terms near the floor vanish from the short windows of the
        # high generators, where a uniform depth would refuse
        top = draw(st.sampled_from([-1, min(floor + 2, -1)]))
        exps = draw(st.lists(st.integers(floor, top), max_size=3, unique=True))
        pairs = {e: draw(digit) for e in exps}
        if kind == "exact":
            phi.append(LaurentSeries.from_pairs(F, pairs, min(pairs, default=1), exact=True))
        else:
            phi.append(LaurentSeries.from_pairs(F, pairs, floor, exact=False))
    return F, phi, N


@settings(max_examples=300)
@given(_alpha_series())
def test_certificate_matches_the_walk(inst):
    F, phi, N = inst
    want = _walk_verdict(phi, N)
    floors = [y.floor for y in phi if not y.exact]
    try:
        S = make_alpha_lattice(Lattice.standard(F, len(phi)), phi, N)
    except InsufficientPrecision as e:
        assert want == "refused"
        assert all(e.needed_floor < f for f in floors)
        return
    except NRational as e:
        assert want == "n-rational"
        Q = e.witness
        assert 0 <= Q.degree <= N
        assert not any(y.mul_poly(Q).frac_part().coeffs for y in phi)
        return
    assert want == "certified"
    assert S.period_size == N + 1


@given(st.data())
def test_certified_truncated_cosets_have_certified_twins(data):
    F = data.draw(st.sampled_from([F2, F3]))
    d = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 4))
    exact = [[data.draw(_frac_coord(F, False)) for _ in range(d)] for _ in range(n)]
    floor = st.integers(-8, -2)
    truncated = [[expand_rational(y, f).truncated(f) for y in rep for f in [data.draw(floor)]]
                 for rep in exact]
    lam = Lattice.standard(F, d)
    try:
        S = make_coset_lattice(lam, truncated)
    except InsufficientPrecision:
        return
    assert make_coset_lattice(lam, exact).period_size == S.period_size == n


def _pattern_rows(tails, reach: int, depths):
    """Tail pattern rows of the generators frac(x^k * v), k = 0..reach,
    for each vector v in turn, sliced from its coordinates' tails read
    at least depths[i] + reach deep: row k reads the coefficients
    x^-(t+k) of each coordinate v_i, t = 1..depths[i] (the stacked
    Hankel matrices transposed)."""
    return [
        [c for tail, dep in zip(row, depths) for c in tail[k:k + dep]]
        for row in tails
        for k in range(reach + 1)
    ]


def _transposed_first_spanned(field, vecs, reach: int):
    """The construction certificate as the transposed elimination
    decided it, kept as a reference: per window, the generators are the
    columns of the pattern matrix, and the pivot columns are those that
    the earlier columns do not span."""
    d = len(vecs[0])
    trunc = [
        [y.floor if isinstance(y, LaurentSeries) and not y.exact else None for y in v]
        for v in vecs
    ]
    dens = [
        _common_den(field, [v[i] for v, fl in zip(vecs, trunc) if fl[i] is None]).degree
        for i in range(d)
    ]

    def window(m):
        shift = min(m, reach)
        out = []
        for i in range(d):
            fs = [fl[i] for fl in trunc[:m + 1] if fl[i] is not None]
            out.append(max(-(max(fs) + shift), 0) if fs else dens[i])
        return tuple(out)

    for depths, run in groupby(range(len(vecs) + reach), key=window):
        run = list(run)
        hi = run[-1]
        reach_hi = min(hi, reach)
        tails = [
            [_tail_pattern(y, dep + reach_hi) if dep else () for y, dep in zip(v, depths)]
            for v in vecs[:hi + 1]
        ]
        rows = _pattern_rows(tails, reach_hi, depths)
        pivots = _rref_by_columns(field, list(zip(*rows)))[1]
        spanned = [m for m in run if m not in pivots]
        if spanned:
            return spanned[0]
    return None


@st.composite
def _certificate_inputs(draw):
    """(field, vecs, reach) as the constructors hand them to
    _first_spanned, over q in {2, 3, 4}, d in {2, 3}: one alpha with
    reach N <= 8, or one to four coset vectors, some of them
    combinations of the earlier ones; coordinates exact Rats, truncated
    at one floor or at unequal floors down to x^-12, or a mix of both,
    so that the generators know many different sets of columns."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["exact", "equal", "unequal", "mixed"]))
    floor = draw(st.integers(-12, -1))

    def cut(y):
        if mode == "exact" or (mode == "mixed" and draw(st.booleans())):
            return y
        f = floor if mode == "equal" else draw(st.integers(-12, -1))
        return expand_rational(y, f).truncated(f)

    digit = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        reach = draw(st.integers(0, 8))
        vecs = [[draw(_frac_coord(F, False)) for _ in range(d)]]
    else:
        reach = 0
        vecs = []
        for _ in range(draw(st.integers(1, 4))):
            if vecs and draw(st.booleans()):
                a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
                ca, cb = draw(digit), draw(digit)
                vecs.append([y.scale(ca) + z.scale(cb) for y, z in zip(a, b)])
            else:
                vecs.append([draw(_frac_coord(F, False)) for _ in range(d)])
    flat = _lift([cut(y) for v in vecs for y in v], d)
    return F, [flat[i:i + d] for i in range(0, len(flat), d)], reach


@settings(max_examples=300)
@given(_certificate_inputs())
def test_first_spanned_matches_the_transposed_certificate(inst):
    F, vecs, reach = inst
    assert _first_spanned(F, vecs, reach) == _transposed_first_spanned(F, vecs, reach)


@pytest.mark.parametrize("make", [
    lambda lam: make_alpha_lattice(lam, [LaurentSeries(F2, [1, 0, 1, 1, 0, 1, 1, 1], -8),
                                         LaurentSeries(F2, [1, 1, 0, 1, 0], -6)], 4),
    lambda lam: make_coset_lattice(lam, [
        [LaurentSeries(F2, [1, 0, 1, 1, 0, 1], -7), "1/(x^2 + x + 1)"],
        [LaurentSeries(F2, [0, 1, 1], -4), LaurentSeries(F2, [1, 1, 0, 1, 1], -5)],
        ["x^-1", "x^-3"],
    ]),
], ids=["alpha", "cosets"])
def test_construction_certificate_is_one_elimination(lam, monkeypatch, make):
    """The generators here know different sets of columns, yet one row
    echelon form of the whole pattern matrix decides every generator."""
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return _echelon_fq(field, rows)

    monkeypatch.setattr(periodic, "_echelon_fq", counted)
    S = make(lam)
    assert len(calls) == 1 and calls[0] == S.period_size


def test_count_takes_no_lcm_where_the_stop_clips_every_coordinate(monkeypatch):
    """count reads only the columns of weight > 0: a coordinate with
    e_i <= 1 reads none, and the lcm of its denominators is not taken."""
    S = make_coset_lattice(
        Lattice.standard(F2, 2), [["1/(x^3+x+1)", "x^-1"], ["x^-2", "1/(x^2+x+1)"]])
    calls = []

    def counted(field, ys):
        calls.append(len(ys))
        return _common_den(field, ys)

    monkeypatch.setattr(periodic, "_common_den", counted)
    got = count_points(S, radius=1)
    assert not calls
    assert got == count_oracle(S, 1)


def test_check_bounds_random_f3():
    lam3 = Lattice(F3, [["x", "1"], ["0", "x"]])
    S3 = make_alpha_lattice(lam3, ["x^-1", "2*x^-2"], 0)
    rep = check_bounds(S3)
    assert rep.passed
    assert rep.period_size == 1
    assert rep.bnd_first_ok and rep.bnd_prod_ok
    assert rep.sandwich_checked and rep.sandwich_lower_ok


def test_sandwich_gate_engages_for_deep_denominators():
    lam = Lattice.standard(F2, 2)
    S = make_alpha_lattice(lam, ["1/(x^3+x+1)", "x^-2+x^-3"], 1)
    rep = check_bounds(S)
    assert rep.passed
    if rep.sandwich_checked:
        assert rep.sandwich_lower_ok and rep.sandwich_upper_ok


def test_sandwich_is_evaluated_at_d4():
    S = make_alpha_lattice(
        Lattice.standard(F2, 4), ["1/(x^2+x+1)", "x^-2", "x^-3", "1/(x^3+x+1)"], 1
    )
    rep = check_bounds(S)
    assert rep.sandwich_checked and rep.passed
    assert rep.dinv_exp == _dinv_by_definition(S).exp == -3


# --- d_invariant against its definition ----------------------------------


def _dinv_by_definition(S, C=None) -> QExp:
    """The smallest nonzero |det(frac(Q_r * phi_j))|, r = 1..k, j in J,
    over k, index k-subsets J and k-subsets of the nonzero polynomials
    of degree <= N, with d_invariant's refusals: a truncated minor with
    no known nonzero coefficient might be nonzero and smaller."""
    body = reduce_lattice(S.lattice, C).body
    phi = reduce_lattice(S.lattice, body).from_canonical(S.vecs[0])
    series = isinstance(phi[0], LaurentSeries)
    qs = [Poly(S.field, c) for c in product(range(S.field.q), repeat=S.N + 1) if any(c)]
    norms, undecided = [], False
    for k in range(1, S.d + 1):
        for J in combinations(range(S.d), k):
            for Qs in combinations(qs, k):
                minor = det([[phi[j].mul_poly(Q).frac_part() for j in J] for Q in Qs])
                if series and not minor.coeffs and not minor.exact:
                    undecided = True
                elif not minor.val().is_zero:
                    norms.append(minor.val())
    if undecided:
        raise InsufficientPrecision("a minor is undecided")
    if not norms:
        raise UndefinedValue("no nonzero minor")
    return min(norms)


def _minors(q: int, d: int, N: int) -> int:
    """How many minors _dinv_by_definition computes."""
    return sum(comb(d, k) * comb(q ** (N + 1) - 1, k) for k in range(1, d + 1))


@st.composite
def _dinv_twins(draw):
    """(build, body): build(None) is an exact alpha instance over q in
    {2, 3, 4}, d in {2, 3}, N <= 2, denominators of degree N + 1 or
    N + 2, build(f) its twin with some or all coordinates truncated at
    x^f; the body is the unit body or a random one.  Sizes stay where
    the definition takes well under a second: at most 1000 minors."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(0, max(n for n in range(3) if _minors(F.q, d, n) <= 1000)))

    def coord():
        k = draw(st.integers(N + 1, N + 2))
        digits = st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k)
        return Rat(Poly(F, draw(digits)), Poly(F, (*draw(digits), 1)))

    alpha = [coord() for _ in range(d)]
    cut = [draw(st.booleans()) for _ in range(d)]
    lat = Lattice.standard(F, d)

    def build(floor):
        if floor is not None:
            return make_alpha_lattice(lat, [
                expand_rational(y, floor).truncated(floor) if c or not any(cut) else y
                for y, c in zip(alpha, cut)
            ], N)
        return make_alpha_lattice(lat, alpha, N)

    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    return build, None if seed is None else random_body(random.Random(seed), F, d)


@given(_dinv_twins())
def test_d_invariant_is_the_definition(inst):
    """d_invariant is the smallest nonzero minor of the definition, in
    the unit body's frame and in a random body's."""
    build, C = inst
    try:
        S = build(None)
    except NRational:
        assume(False)
    assert d_invariant(S, C) == _dinv_by_definition(S, C)


@settings(max_examples=100)
@given(_dinv_twins(), st.integers(-12, -2))
def test_truncated_d_invariant_answers_as_its_twin(inst, floor):
    """A truncated d_invariant answers as its exact twin or raises
    InsufficientPrecision, and answers wherever the definition does."""
    build, C = inst
    try:
        exact, trunc = build(None), build(floor)
    except (NRational, InsufficientPrecision):
        assume(False)
    want = d_invariant(exact, C)
    try:
        got = d_invariant(trunc, C)
    except InsufficientPrecision:
        with pytest.raises(InsufficientPrecision):
            _dinv_by_definition(trunc, C)
        return
    assert got == want


def test_periodic_lattice_accessors(W):
    assert isinstance(W, PeriodicLattice)
    assert W.field.q == 2 and W.d == 2
    assert reduce_lattice(W.lattice).body.log_volume == QExp(0)


# --- the Minkowski classes against the definition -----------------------


@st.composite
def _frac_coord(draw, F, series):
    """A fractional Rat with a monic denominator of degree 1..3, or its
    expansion truncated at a floor between x^-14 and x^-3."""
    k = draw(st.integers(1, 3))
    digits = st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k)
    y = Rat(Poly(F, draw(digits)), Poly(F, (*draw(digits), 1)))
    if series:
        floor = draw(st.integers(-14, -3))
        return expand_rational(y, floor).truncated(floor)
    return y


@st.composite
def _independence_inputs(draw):
    """(field, d, points, taken): q in {2, 3}, d <= 4, 1..d points of
    exact fractional coordinates, the last one at times an F_q(x)-
    combination of the others, and any set of unit rows taken."""
    F = draw(st.sampled_from([F2, F3]))
    d = draw(st.integers(1, 4))
    points = [[draw(_frac_coord(F, False)) for _ in range(d)]
              for _ in range(draw(st.integers(1, d)))]
    if len(points) > 1 and draw(st.booleans()):
        cs = [draw(_frac_coord(F, False)) for _ in points[1:]]
        points[-1] = [sum((c * p[i] for c, p in zip(cs, points)), Rat(Poly.zero(F)))
                      for i in range(d)]
    return F, d, points, draw(st.sets(st.integers(0, d - 1)))


@given(_independence_inputs(), st.integers(-14, -3))
def test_independent_is_the_rank_with_the_unit_columns(inst, floor):
    """_independent says whether the first k points and the unit vectors
    e_i, i in taken, have full rank over F_q(x), read off the top level
    of the points' minor table grown one point at a time, the newest on
    top; on truncated twins of the points it gives the same verdict or
    leaves it undecided."""
    F, d, points, taken = inst
    zero, one = Rat(Poly.zero(F)), Rat(Poly.one(F))
    units = [[one if i == t else zero for i in range(d)] for t in sorted(taken)]
    table = twins = [{}]
    for k in range(len(points) + 1):
        if k:
            table = _minor_table([points[k - 1]], table)
            twin = [expand_rational(y, floor).truncated(floor) for y in points[k - 1]]
            twins = _minor_table([twin], twins)
        cols = points[:k] + units
        want = rank_rational([[c[i] for c in cols] for i in range(d)]) == len(cols)
        assert _independent(table[-1], taken) is want
        got = _independent(twins[-1], taken)
        assert got is want or isinstance(got, InsufficientPrecision)


def test_minima_grow_one_minor_table(monkeypatch):
    """Each point candidate of the minima is one new row, one new level
    of minors, on top of the table of the points picked so far: no
    minor of the picked points is computed twice."""
    S = make_alpha_lattice(
        Lattice.standard(F2, 3), ["1/(x^4+x+1)", "1/(x^4+x^3+1)", "x^-1+x^-3"], 3)
    calls, grown = [], []

    def recorded(rows, below=None):
        calls.append((len(rows), below))
        grown.append(_minor_table(rows, below))
        return grown[-1]

    monkeypatch.setattr(periodic, "_minor_table", recorded)
    exps, _w = succ_minima_periodic(S)
    assert exps == succmin_oracle(S)
    # more candidates than points picked: some were dependent
    assert len(calls) > len({id(below) for _n, below in calls})
    assert calls[0] == (1, [{}])
    for (n, below), (_n, prev) in zip(calls[1:], calls):
        assert n == 1
        # the kept table, or the one its last pick returned
        assert below is prev or (
            any(below is t for t in grown) and len(below) == len(prev) + 1)


def _minima_with_rat_minors(S, C):
    """The minima's greedy pick with the points' own Rat (or series)
    coordinates in the minor table and one ambient witness per pick: the
    reference for the column-scaled table and the witnesses on demand."""
    rb = reduce_lattice(S.lattice, C)
    pivots, _rest, cut = periodic._weight_echelon(S, rb)
    if cut:
        raise cut[1]
    cands = [(w, 0, idx, digits) for idx, (w, digits) in enumerate(pivots)]
    cands += [(e, 1, i, None) for i, e in enumerate(rb.exps)]
    cands.sort(key=lambda t: t[:3])
    exps, table, taken, witnesses = [], [{}], set(), []
    for norm, level in groupby(cands, key=lambda t: t[0]):
        if len(exps) == S.d:
            break
        pending = [
            (i, periodic._unit_coords(S.field, S.d, i)) if digits is None
            else (None, periodic._combination(S, rb, digits))
            for _w, _kind, i, digits in level
        ]
        while pending and len(exps) < S.d:
            undecided = []
            for unit, coords in pending:
                if len(exps) == S.d:
                    break
                if unit is None:
                    trial = _minor_table([coords], table), taken
                else:
                    trial = table, taken | {unit}
                verdict = _independent(trial[0][-1], trial[1])
                if verdict is True:
                    table, taken = trial
                    exps.append(norm)
                    witnesses.append(rb.ambient_from_coords(coords))
                elif verdict is not False:
                    undecided.append((unit, coords))
            if len(undecided) == len(pending) and len(exps) < S.d:
                raise verdict
            pending = undecided
    if len(exps) != S.d:
        raise UndefinedValue("could not find d independent points")
    return exps, witnesses


@st.composite
def _minima_instances(draw):
    """(periodic lattice, body): q in {2, 3, 4}, d in {2, 3, 4}, exact
    alpha (N-rational admitted) or coset representatives with
    denominators of degree 1..3, or their twins truncated at a floor
    between x^-6 and x^-1, shallow enough that some minima refuse; the
    unit body or a ball."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.integers(2, 4))
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1", "x^2"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)
    floor = draw(st.one_of(st.none(), st.integers(-6, -1)))

    def cut(vals):
        return vals if floor is None else [expand_rational(y, floor).truncated(floor) for y in vals]

    try:
        if draw(st.booleans()):
            alpha = [draw(_frac_coord(F, False)) for _ in range(d)]
            S = make_alpha_lattice(lat, cut(alpha), draw(st.integers(0, 3)),
                                   require_irrational=False)
        else:
            reps = [[draw(_frac_coord(F, False)) for _ in range(d)]
                    for _ in range(draw(st.integers(1, 3)))]
            S = make_coset_lattice(lat, [cut(rep) for rep in reps])
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    ball = draw(st.one_of(st.none(), st.integers(-1, 1)))
    return S, ConvexBody.identity(F, d) if ball is None else ConvexBody.ball(F, d, ball)


# two points of this instance have different denominators in one
# column: unless each is scaled to the column's lcm, its minors change
_UNEQUAL_DENOMINATORS = make_coset_lattice(
    Lattice.standard(F2, 2), [["x^-1", "1/(x+1)"], ["x^-2", "1/(x+1)"]])


@given(_minima_instances())
@example((_UNEQUAL_DENOMINATORS, ConvexBody.identity(F2, 2)))
def test_minima_equal_the_pick_with_rat_minors(inst):
    """The column-scaled minor table picks as the table of the points'
    own coordinates does: the same exponents and witnesses, or the same
    refusal naming the same floor."""
    S, C = inst
    assert _outcome(succ_minima_periodic, S, C) == _outcome(_minima_with_rat_minors, S, C)


def test_minima_take_polynomial_minors_and_build_no_witness(monkeypatch, capsys):
    """On exact input the minima's minor table receives only Poly
    entries, and minima, packrad, density and the bounds build no
    ambient witness; only succ_minima_periodic does."""
    path = str(Path(__file__).parent / "data" / "golden" / "alpha_d4.json")
    entries = []

    def recorded(rows, below=None):
        entries.extend(type(y) for row in rows for y in row)
        return _minor_table(rows, below)

    def unread_witness(self, coords):
        raise AssertionError("an ambient witness was built")

    monkeypatch.setattr(periodic, "_minor_table", recorded)
    monkeypatch.setattr(ReducedBasis, "ambient_from_coords", unread_witness)
    for cmd in ("minima", "packrad", "density"):
        assert cli.main([cmd, path]) == 0
    # the instance's minima pick points, so the table was grown
    assert entries and set(entries) == {Poly}
    assert capsys.readouterr().out.split("\n")[0] == "q^-1 q^0 q^0 q^0"
    S = cli.load_instance(path).periodic
    assert check_bounds(S).exps == [-1, 0, 0, 0]
    with pytest.raises(AssertionError, match="witness"):
        succ_minima_periodic(S)


def test_d_invariant_takes_one_minor_table_per_column_set(monkeypatch):
    """At N = 2 the mu_T of each column set J are the top level of one
    minor table of J's rows frac(x^m * phi_j), m = 0..2."""
    S = make_alpha_lattice(
        Lattice.standard(F2, 3), ["1/(x^3+x+1)", "x^-2+x^-3", "1/(x^4+x+1)"], 2)
    calls = []

    def recorded(rows, below=None):
        calls.append((len(rows), len(rows[0]), below))
        return _minor_table(rows, below)

    monkeypatch.setattr(periodic, "_minor_table", recorded)
    got = d_invariant(S)
    assert calls == [(k, 3, None) for k in range(1, 4) for _J in combinations(range(3), k)]
    assert got == _dinv_by_definition(S)


@st.composite
def span_instances(draw):
    """(periodic lattice, body or None for the unit body) over q in
    {2, 3, 4}, d in {2, 3}: the alpha form, N-rational alpha admitted,
    or the coset form, with Rat, truncated-series or mixed coordinates."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1", "x^3", "x^2+1"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)
    mode = draw(st.sampled_from(["rat", "series", "mixed"]))

    def coords():
        return [draw(_frac_coord(F, mode == "series" or (mode == "mixed" and draw(st.booleans()))))
                for _ in range(d)]

    try:
        if draw(st.booleans()):
            N = draw(st.integers(0, 2 if F.q < 4 else 1))
            S = make_alpha_lattice(lat, coords(), N, require_irrational=False)
        else:
            n = draw(st.integers(1, 4 if F.q == 2 else 3))
            S = make_coset_lattice(lat, [coords() for _ in range(n)])
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    C = draw(st.sampled_from([None, 0, 2]))
    return S, None if C is None else ConvexBody.ball(F, d, C)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientPrecision as e:
        return ("InsufficientPrecision", e.needed_floor)


@given(span_instances())
def test_mink_classes_are_the_tail_patterns_of_the_definition(inst):
    """mink-search counts as many classes as there are tail patterns
    among the points built from the definition; where truncation hides
    a pattern coefficient of some point, it refuses naming the same
    floor, or answers (the twin tests check those answers)."""
    S, C = inst
    body = reduce_lattice(S.lattice, C).body
    want = _outcome(_points_by_definition, S, body)
    if isinstance(want, tuple):
        return

    def by_patterns():
        rb = reduce_lattice(S.lattice, body)
        depths = [max(e - 1, 0) for e in rb.exps]
        try:
            pats = {tuple(_tail_pattern(y, dep) for y, dep in zip(coords, depths))
                    for coords, _n in want}
        except InsufficientPrecision:
            # frac(Q * alpha), deg Q <= N, at depth D reads alpha to
            # x^-(D + N); the refusal names alpha's floor, not a point's
            raise InsufficientPrecision("", needed_floor=-(max(depths) + S.reach)) from None
        log = 0
        while S.field.q ** log < len(pats):
            log += 1
        assert S.field.q ** log == len(pats)
        return log

    got = _outcome(lambda: minkowski_search(S, C).classes_log)
    expected = _outcome(by_patterns)
    if isinstance(expected, tuple):
        assert got == expected or isinstance(got, int)
    else:
        assert got == expected


# --- count and the mink-search point from one elimination ---------------


@st.composite
def _twins(draw):
    """(build, body): build(None) is an exact instance over q in
    {2, 3, 4}, d in {2, 3} (the alpha form with N-rational alpha
    admitted, the coset form, or a plain lattice), build(f) its twin
    with every coordinate truncated at x^f; the body is the unit body
    (None), a ball, or a random upper triangular body."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1", "x^3", "x^2+1"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)

    def cut(vals, floor):
        return vals if floor is None else [expand_rational(y, floor).truncated(floor) for y in vals]

    kind = draw(st.sampled_from(["alpha", "coset", "plain"]))
    if kind == "alpha":
        N = draw(st.integers(0, 2 if F.q < 4 else 1))
        alpha = [draw(_frac_coord(F, False)) for _ in range(d)]

        def build(floor):
            return make_alpha_lattice(lat, cut(alpha, floor), N, require_irrational=False)
    elif kind == "coset":
        reps = [[draw(_frac_coord(F, False)) for _ in range(d)]
                for _ in range(draw(st.integers(1, 4 if F.q == 2 else 3)))]

        def build(floor):
            return make_coset_lattice(lat, [cut(rep, floor) for rep in reps])
    else:
        def build(floor):
            return from_lattice(lat)
    body = draw(st.sampled_from(["unit", "ball", "matrix"]))
    if body == "ball":
        return build, ConvexBody.ball(F, d, draw(st.integers(-1, 2)))
    if body == "matrix":
        cells = [[draw(st.sampled_from(["x", "1", "x^-1", "x^2", "x+1"])) if i == j
                  else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
                  for j in range(d)] for i in range(d)]
        return build, ConvexBody(F, cells)
    return build, None


def _first_short_point(S, body):
    """The first nonzero point of norm <= 1 of the oracle's list, or None."""
    return next(((c, n) for c, n in _points_by_definition(S, body)
                 if not n.is_zero and n <= QExp(0)), None)


@given(_twins())
def test_count_and_mink_point_equal_the_oracle(inst):
    """On exact instances count_points is the oracle's window count at
    radius 1, and the mink-search point is the first nonzero point of
    norm <= 1 among the points built from the definition."""
    build, C = inst
    try:
        S = build(None)
    except ValueError:
        assume(False)
    body = reduce_lattice(S.lattice, C).body
    # the oracle counts its window without building it, so no budget
    assert count_points(S, C) == count_oracle(S, 0, body, budget=1 << 62)
    rep = minkowski_search(S, C)
    if rep.status == "inapplicable":
        assert rep.point is None
        return
    first = _first_short_point(S, body)
    if first is None:
        assert rep.point_source != "fractional"
        return
    rb = reduce_lattice(S.lattice, body)
    assert rep.point_source == "fractional"
    assert rep.point == rb.ambient_from_coords(first[0])
    assert rep.point_norm == first[1]


def _expands(t, e) -> bool:
    """Is the coordinate t, read from truncated data, the exact e as far
    as t knows it?"""
    if isinstance(t, Rat):
        return t == e
    if t.exact:
        return t.to_rat() == e
    return expand_rational(e, t.floor).truncated(t.floor) == t


@settings(max_examples=200)
@given(_twins(), st.integers(-8, -1))
def test_truncated_count_and_mink_search_answer_as_their_twins(inst, floor):
    """A truncated count or mink-search answers as its exact twin or
    raises InsufficientPrecision; a refused count or covrad (the same
    pattern matrix) names a floor of the instance's own coordinates at
    which it answers, in any body's frame."""
    build, C = inst
    try:
        exact, trunc = build(None), build(floor)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    for fn in (count_points, covrad_periodic):
        want = fn(exact, C)
        try:
            assert fn(trunc, C) == want
        except InsufficientPrecision as e:
            assert e.needed_floor < floor
            assert fn(build(e.needed_floor), C) == want
    want = minkowski_search(exact, C)
    try:
        got = minkowski_search(trunc, C)
    except InsufficientPrecision:
        return
    assert got.as_dict() == want.as_dict()
    assert got.point_norm == want.point_norm
    if want.point is not None:
        assert all(_expands(t, e) for t, e in zip(got.point, want.point))


@settings(max_examples=200)
@given(_twins(), st.one_of(st.none(), st.integers(-6, -1)), st.integers(-2, 3))
def test_count_at_a_radius_is_the_count_in_the_ball(inst, floor, R):
    """count_points at radius R reads the unit body's reduction with R
    as its stop; it counts as the ball x^R O^d does, or refuses as that
    does, with the same exception and the same floor."""
    build, _C = inst
    try:
        S = build(floor)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)

    def outcome(*args, **kw):
        try:
            return count_points(S, *args, **kw)
        except FFLatError as e:
            return type(e), getattr(e, "needed_floor", None)

    assert outcome(radius=R) == outcome(ConvexBody.ball(S.field, S.d, R))


def test_a_cut_coefficient_of_a_pivoted_generator_is_not_read():
    # e = (0, 3): the weight-2 column (x^-1 of coordinate 2) pivots out
    # frac(x * alpha) before the weight-1 column reads its x^-2, which
    # alpha_2 = x^-2 + O(x^-3) leaves unknown; alpha itself knows its
    # x^-2 and pivots there, so count and mink-search answer as the
    # exact twin does
    lat = Lattice(F2, [["1", "0"], ["0", "x^3"]])
    alpha = [parse_element(F2, "0"), parse_element(F2, "x^-2")]
    S = make_alpha_lattice(lat, [expand_rational(y, -2).truncated(-2) for y in alpha], 1)
    exact = make_alpha_lattice(lat, alpha, 1)
    ball = ConvexBody.ball(F2, 2, 0)
    assert minkowski_search(S, ball).as_dict() == minkowski_search(exact, ball).as_dict()
    assert minkowski_search(S, ball).classes_log == 2
    assert count_points(S, radius=0) == 2
    assert count_points(exact, radius=0) == 2


# --- minima, packing radius and density from the same elimination ------

# the oracles list the points of their windows; this keeps each example
# well under a second
ORACLE_BUDGET = 1 << 14


@given(_twins())
def test_minima_packing_and_density_equal_the_oracles(inst):
    """On exact instances the minima are the oracle's, read off growing
    balls; each witness has norm q^(e_j) in the body; the packing radius
    and density are those of the oracle's first minimum and window."""
    build, C = inst
    try:
        S = build(None)
    except ValueError:
        assume(False)
    body = reduce_lattice(S.lattice, C).body
    exps, wits = succ_minima_periodic(S, C)
    assert [norm_in_body(w, body) for w in wits] == [QExp(e) for e in exps]
    try:
        want = succmin_oracle(S, body, budget=ORACLE_BUDGET)
        density = density_oracle(S, body, budget=ORACLE_BUDGET)
    except BudgetExceeded:
        # about a third of the instances: bodies with spread-out minima
        # need windows of more than 2^14 points
        assume(False)
    assert exps == want
    assert packing_radius(S, C) == QExp(want[0] - 1)
    assert packing_density(S, C) == density


@settings(max_examples=200)
@given(_twins(), st.integers(-8, -1))
def test_truncated_minima_packing_and_density_answer_as_their_twins(inst, floor):
    """A truncated minima, packing radius or density answers as its
    exact twin does, or raises InsufficientPrecision."""
    build, C = inst
    try:
        exact, trunc = build(None), build(floor)
    except (NRational, InsufficientPrecision, ValueError):
        assume(False)
    for fn in (lambda S: succ_minima_periodic(S, C)[0],
               lambda S: packing_radius(S, C),
               lambda S: packing_density(S, C)):
        want = fn(exact)
        try:
            got = fn(trunc)
        except InsufficientPrecision:
            continue
        assert got == want


# --- large N: q^(N + 1) points could never be listed ---------------------


def _convergent_degrees(a: Poly, b: Poly):
    """Degrees of the denominators Q_1, Q_2, ... of the continued
    fraction of a/b, deg a < deg b, by Euclid: deg Q_k is the sum of the
    degrees of the first k partial quotients."""
    degs, total = [], 0
    while not a.is_zero:
        quo, rem = divmod(b, a)
        total += quo.degree
        degs.append(total)
        a, b = rem, a
    return degs


def _random_fraction(rng, F, deg_b: int) -> Rat:
    """a/b in lowest terms with deg a < deg b = deg_b."""
    while True:
        a = Poly(F, [rng.randrange(F.q) for _ in range(deg_b)])
        b = Poly(F, [rng.randrange(F.q) for _ in range(deg_b)] + [1])
        if not a.is_zero and Rat(a, b).den.degree == deg_b:
            return Rat(a, b)


@pytest.fixture
def alarm():
    """Fail a test that runs past 20 s instead of letting it hang."""
    def expired(_signum, _frame):
        raise AssertionError("ran past 20 s: the points are being listed")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_large_n_answers_without_listing_points(alarm):
    """alpha = (a/b, 0) on the standard lattice with deg b > N: the first
    minimum is the best approximation |frac(Q_k a/b)| = q^-deg Q_(k+1),
    Q_k the last convergent denominator of degree <= N, and the second
    is the unit vector's q^0.  Up to N = 40 the q^(N + 1) points are far
    too many to list within the alarm."""
    rng = random.Random(12)
    zero = Rat.from_poly(Poly.zero(F2))
    instances = []
    for F, N in [(F2, 40)] + [(rng.choice([F2, F3]), rng.randint(12, 40)) for _ in range(8)]:
        y = _random_fraction(rng, F, N + rng.randint(1, 4))
        zero = Rat.from_poly(Poly.zero(F))
        S = make_alpha_lattice(Lattice.standard(F, 2), [y, zero], N)
        deg_next = next(k for k in _convergent_degrees(y.num, y.den) if k > N)
        assert succ_minima_periodic(S)[0] == [min(0, -deg_next), 0]
        instances.append((S, y, zero, N))
    # every command on the N = 40 instance over F_2: all q^(N + 1)
    # fractional points have norm < 1, and the unit ball holds q^2
    # lattice shifts of each
    S, y, zero, N = instances[0]
    e1 = succ_minima_periodic(S)[0][0]
    assert count_points(S) == 2 ** (N + 3)
    mk = minkowski_search(S)
    assert (mk.status, mk.classes_log, mk.point_source) == ("point", 0, "fractional")
    assert mk.point == [y, zero]
    assert covrad_periodic(S) == QExp(-1)
    assert packing_radius(S) == QExp(e1 - 1)
    assert packing_density(S) == Fraction(2) ** (N + 1 + 2 * e1)


# --- one representation: alpha is its generators as coset reps -------------


@st.composite
def _alpha_and_its_cosets(draw):
    """(alpha form, coset form, body or None): an exact N-irrational
    alpha over q in {2, 3}, d in {2, 3}, N <= 3, and the coset form of
    its generators frac(x^N alpha), ..., frac(alpha); the body is the
    unit body (None), a ball, or a random body."""
    F = draw(st.sampled_from([F2, F3]))
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(0, 3))
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1", "x^2"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    lat = Lattice(F, basis)
    alpha = []
    for _ in range(d):
        k = draw(st.integers(1, N + 3))
        digits = st.lists(st.integers(0, F.q - 1), min_size=k, max_size=k)
        alpha.append(Rat(Poly(F, draw(digits)), Poly(F, (*draw(digits), 1))))
    try:
        S = make_alpha_lattice(lat, alpha, N)
    except NRational:
        assume(False)
    reps = [[y.mul_poly(Poly.monomial(F, 1, k)).frac_part() for y in alpha]
            for k in range(N, -1, -1)]
    T = make_coset_lattice(lat, reps)
    body = draw(st.sampled_from(["unit", "ball", "random"]))
    if body == "ball":
        return S, T, ConvexBody.ball(F, d, draw(st.integers(-1, 2)))
    if body == "random":
        return S, T, random_body(random.Random(draw(st.integers(0, 10 ** 6))), F, d, -1, 1)
    return S, T, None


@given(_alpha_and_its_cosets())
def test_alpha_form_answers_as_the_cosets_of_its_generators(inst):
    """Lambda(alpha, q^N) is the coset form of its generators listed
    most significant first: every closed form gives the same answer,
    witnesses and mink-search point included."""
    S, T, C = inst
    assert S.period_size == T.period_size
    assert succ_minima_periodic(S, C) == succ_minima_periodic(T, C)
    assert count_points(S, C) == count_points(T, C)
    for R in (0, 2):
        assert count_points(S, radius=R) == count_points(T, radius=R)
    assert covrad_periodic(S, C) == covrad_periodic(T, C)
    assert packing_radius(S, C) == packing_radius(T, C)
    assert packing_density(S, C) == packing_density(T, C)
    ms, mt = minkowski_search(S, C), minkowski_search(T, C)
    assert ms.as_dict() == mt.as_dict()
    assert (ms.point, ms.point_norm) == (mt.point, mt.point_norm)


# --- bodies built from one matrix ----------------------------------------


@st.composite
def _body_twins(draw):
    """(S, C, D): an instance of _minima_instances and two bodies built
    apart from one random upper triangular matrix."""
    S, _C = draw(_minima_instances())
    cells = [[draw(st.sampled_from(["x", "1", "x^-1", "x^2", "x+1"])) if i == j
              else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(S.d)] for i in range(S.d)]
    return S, ConvexBody(S.field, cells), ConvexBody(S.field, cells)


@given(_body_twins())
def test_bodies_built_from_one_matrix_answer_alike(inst):
    """The memos key on the body object, so a body built afresh from
    the same matrix is reduced and answered anew, on the same periodic
    lattice: equal reductions, and equal minima, counts, covering and
    packing radii and densities, or the same refusal."""
    S, C, D = inst
    rb_c, rb_d = reduce_lattice(S.lattice, C), reduce_lattice(S.lattice, D)
    assert rb_c is not rb_d
    assert (rb_c.exps, rb_c.VP) == (rb_d.exps, rb_d.VP)
    for question in (succ_minima_periodic, count_points, covrad_periodic,
                     packing_radius, packing_density):
        assert _outcome(question, S, C) == _outcome(question, S, D), question.__name__

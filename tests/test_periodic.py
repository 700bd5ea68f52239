"""Periodic lattices: the alpha-orbit form and the coset form.

The running worked family here is W: q = 2, Lambda = R^2,
alpha = (x^-1, x^-2) in reduced coordinates, N = 1.
"""

import random
import signal
from fractions import Fraction
from itertools import groupby, product

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from fflat.battery import random_body
from fflat.errors import BudgetExceeded, CapExceeded
from fflat.ffcore import Poly, Rat, expand_rational
from fflat.oracle import _points_by_definition, count_oracle, density_oracle, succmin_oracle
from fflat.exactlinalg import _rref_fq
from fflat.lattice import _common_den, _lift, _tail_pattern
from fflat.periodic import PeriodicLattice, _first_spanned, _pattern_rows

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
        assert len(_points_by_definition(W, W.base_body())) == 4
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
        pts = _points_by_definition(W, W.base_body())
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
        C = W.base_body()
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
        # the brute force stops at N <= 2 and d <= 3
        with pytest.raises(CapExceeded):
            d_invariant(make_alpha_lattice(lam, ["x^-4", "x^-5"], 3))
        lam4 = Lattice.standard(F2, 4)
        with pytest.raises(CapExceeded):
            d_invariant(make_alpha_lattice(lam4, ["x^-2", "x^-3", "x^-4", "x^-5"], 1))

    def test_d_invariant_work_cap_admits_q4_d3_n2(self, monkeypatch):
        # 45 759 determinants, under the 10^5 cap: the brute force starts
        lat = Lattice.standard(F4, 3)
        S = make_alpha_lattice(lat, ["1/(x^3+x+1)", "x/(x^3+(t))", "1/(x^4+x+(t+1))"], 2)
        calls = []

        def det(rows):
            calls.append(rows)
            raise StopIteration

        monkeypatch.setattr("fflat.periodic.det_rat", det)
        with pytest.raises(StopIteration):
            d_invariant(S)
        assert len(calls) == 1

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
        assert len(_points_by_definition(Z, Z.base_body())) == 1
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
        pivots = _rref_fq(field, list(zip(*rows)))[1]
        spanned = [m for m in run if m not in pivots]
        if spanned:
            return spanned[0]
    return None


@st.composite
def _certificate_inputs(draw):
    """(field, vecs, reach) as the constructors hand them to
    _first_spanned, over q in {2, 3, 4}, d in {2, 3}: one alpha with
    reach N <= 4, or one to four coset vectors, some of them
    combinations of the earlier ones; coordinates exact Rats, truncated
    at one floor or at unequal floors, or a mix of both."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["exact", "equal", "unequal", "mixed"]))
    floor = draw(st.integers(-8, -1))

    def cut(y):
        if mode == "exact" or (mode == "mixed" and draw(st.booleans())):
            return y
        f = floor if mode == "equal" else draw(st.integers(-8, -1))
        return expand_rational(y, f).truncated(f)

    digit = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        reach = draw(st.integers(0, 4))
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


def test_check_bounds_random_f3():
    lam3 = Lattice(F3, [["x", "1"], ["0", "x"]])
    S3 = make_alpha_lattice(lam3, ["x^-1", "2*x^-2"], 0)
    rep = check_bounds(S3)
    assert rep.passed
    assert rep.period_size == 1
    d = rep.as_dict()
    assert d["first_minimum_bound"]["ok"] and d["product_bound"]["ok"]
    assert d["sandwich_checked"] and d["sandwich"]["lower_ok"]


def test_sandwich_gate_engages_for_deep_denominators():
    lam = Lattice.standard(F2, 2)
    S = make_alpha_lattice(lam, ["1/(x^3+x+1)", "x^-2+x^-3"], 1)
    rep = check_bounds(S)
    assert rep.passed
    if rep.sandwich_checked:
        assert rep.sandwich_lower_ok and rep.sandwich_upper_ok


def test_periodic_lattice_accessors(W):
    assert isinstance(W, PeriodicLattice)
    assert W.field.q == 2 and W.d == 2
    assert W.base_body().log_volume == QExp(0)


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
    body = S.base_body() if C is None else C
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
    body = S.base_body() if C is None else C
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
    body = S.base_body() if C is None else C
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

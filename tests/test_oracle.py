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
    PeriodicLattice,
    QExp,
    UndefinedValue,
    check_bounds,
    count_oracle,
    count_points,
    covrad_oracle,
    covrad_periodic,
    d_invariant,
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
from fflat.ffcore import Poly, Rat, expand_rational
from fflat.periodic import _first_spanned, _minima
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
def _triangular_lattices(draw, F, d):
    """An upper triangular basis with diagonal entries 1, x, x^-1 or
    x + 1 and entries 0, 1 or x above it."""
    diag = [draw(st.sampled_from(["1", "x", "x^-1", "x+1"])) for _ in range(d)]
    basis = [[diag[i] if i == j else ("0" if i > j else draw(st.sampled_from(["0", "1", "x"])))
              for j in range(d)] for i in range(d)]
    return Lattice(F, basis)


@st.composite
def windows(draw):
    """(S, R, C or None) over q in {2, 3, 4}, d in {2, 3}: the alpha form
    (N-rational alpha admitted), the coset form or a plain lattice, with
    Rat or truncated coordinates; R from e_1 - 2 to e_d + 1 of the
    reduced basis for C, lowered while the window holds more than
    WINDOW_CAP points."""
    F = draw(st.sampled_from([F2, F3, F4]))
    d = draw(st.sampled_from([2, 3]))
    lat = draw(_triangular_lattices(F, d))
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
    exps = reduce_lattice(lat, C).exps
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


@st.composite
def alpha_systems(draw):
    """Lambda(A, q^N) for A = (alpha_1 .. alpha_m), built from the library
    type: q in {2, 3}, d in {2, 3}, m in {2, 3}, each alpha_j exact with
    one monic denominator of degree N + 1, q^(m(N+1)) <= 512 points, and
    the m(N+1) generators independent."""
    F = draw(st.sampled_from([F2, F3]))
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(0, max(n for n in range(4) if F.q ** (m * (n + 1)) <= 512)))
    lat = draw(_triangular_lattices(F, d))
    digits = st.lists(st.integers(0, F.q - 1), min_size=N + 1, max_size=N + 1)
    vecs = []
    for _ in range(m):
        den = Poly(F, (*draw(digits), 1))
        alpha = [Rat(Poly(F, draw(digits)), den) for _ in range(d)]
        # alpha_j reduced modulo Lambda, in the reduced frame
        vecs.append(make_alpha_lattice(lat, alpha, N, require_irrational=False).vecs[0])
    assume(_first_spanned(F, vecs, N) is None)
    return PeriodicLattice(lat, vecs, N, N)


@given(alpha_systems())
def test_several_alpha_vectors_match_the_oracles(S):
    """The oracles enumerate every alpha vector of S: the closed forms,
    which loop over S.vecs, agree with them; d_invariant and the
    sandwich, defined for one alpha, refuse or skip."""
    for R in (-2, -1, 0):
        assert count_points(S, radius=R) == count_oracle(S, R)
    assert covrad_periodic(S) == covrad_oracle(S)
    assert _minima(S)[0] == succmin_oracle(S)
    with pytest.raises(UndefinedValue, match=f"has {len(S.vecs)}"):
        d_invariant(S)
    assert not check_bounds(S).sandwich_checked


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
    "_combination", "_weight_echelon", "_echelon_by_weight", "_independent", "_minima",
    "succ_minima_periodic", "count_points", "minkowski_search", "covrad_periodic",
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


def test_oracle_enumerates_once():
    """One enumeration builds the points of every form: oracle.py
    subscripts no vector list (vecs[0] would read alpha_1 alone), needs
    no backend type or per-point exact conversion, and
    _points_by_definition runs one loop over a product."""
    import fflat.oracle

    tree = ast.parse(Path(fflat.oracle.__file__).read_text())
    subscripted = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Subscript)
                   and (isinstance(n.value, ast.Attribute) and n.value.attr == "vecs"
                        or isinstance(n.value, ast.Name) and n.value.id == "vecs")]
    assert not subscripted
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"_is_series", "LaurentSeries", "Rat"}
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_exact_coords" not in functions
    loops = [n for n in ast.walk(functions["_points_by_definition"]) if isinstance(n, ast.For)]
    nested = {m for n in loops for m in ast.walk(n) if m is not n}
    outer = [n for n in loops if n not in nested]
    assert len(outer) == 1 and ast.unparse(outer[0].iter).startswith("product(")


def test_every_import_is_read():
    """No module of the package imports a name it never reads (the
    package's __init__ imports to export)."""
    package = Path(import_module("fflat").__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert not imported - read, (path.name, sorted(imported - read))


def test_periodic_enumerates_no_polynomials():
    """d_invariant reads its minors from the one elimination: the brute
    force over polynomials (itertools.product) and its work count
    (math.comb) stay out of periodic.py."""
    tree = ast.parse(Path(import_module("fflat.periodic").__file__).read_text())
    used = {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used |= {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert not used & {("itertools", "product"), ("math", "comb")}


def test_periodic_shares_no_rank_with_the_oracle():
    """The closed forms and the checkers share no determinant or rank.
    The minima's independence test and the d-invariant read their
    minors off the minor table, and every closed-form determinant is
    the minor table's, with no det besides it: the oracle's Bareiss
    determinant and rank over F_q(x) stay out of exactlinalg, lattice
    and periodic, and the series lifting of unit vectors (_as_series)
    out of periodic.py.  The oracle and the verify battery
    in turn import none of the minor table's determinants."""
    def names(module):
        tree = ast.parse(Path(import_module(module).__file__).read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        return imported, defined

    bareiss = {"_bareiss", "det_poly", "_clear_denominators", "rank_rational"}
    for module in ("fflat.exactlinalg", "fflat.lattice", "fflat.periodic"):
        imported, defined = names(module)
        assert not (imported | defined) & bareiss, module
    assert not names("fflat.periodic")[0] & {"_as_series"}
    # the names guarded against exist, so the guard checks something
    assert bareiss <= names("fflat.oracle")[1]
    assert {"det_adjugate", "_minor_table"} <= names("fflat.exactlinalg")[1]
    assert "det" not in names("fflat.exactlinalg")[1]
    assert "_minor_table" in names("fflat.periodic")[0]
    for module in ("fflat.oracle", "fflat.battery"):
        assert not names(module)[0] & {"det", "det_adjugate", "_minor_table"}, module


def test_one_fp_polynomial_arithmetic_and_one_fq_elimination():
    """Over F_q the one elimination is the column echelon in exactlinalg,
    with no row-insertion echelon or reduced form beside it: the kernel
    vector, the construction certificate, the weight echelon and the
    mink-search point call it, and periodic.py does no row operation of
    its own.  Over F_p the one polynomial arithmetic is GF's
    coefficient kernels: the extension fields' digit arithmetic and the
    irreducibility test call them, and every remainder in ffcore is
    divmod_coeffs'."""
    def functions(module):
        tree = ast.parse(Path(import_module(module).__file__).read_text())
        return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def calls(node):
        return {n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, (ast.Attribute, ast.Name))}

    linalg = functions("fflat.exactlinalg")
    assert "_column_echelon" in linalg
    assert not set(linalg) & {"_echelon_fq", "_rref_fq"}
    assert "insort" not in Path(import_module("fflat.exactlinalg").__file__).read_text()
    assert "_column_echelon" in calls(linalg["kernel_vector_fq"])
    periodic = functions("fflat.periodic")
    for name in ("_first_spanned", "_echelon_by_weight", "minkowski_search"):
        assert "_column_echelon" in calls(periodic[name]), name
    row_ops = set().union(*map(calls, periodic.values()))
    assert not row_ops & {"add_coeffs", "scale_coeffs"}
    ffcore = functions("fflat.ffcore")
    assert not set(ffcore) & {"_fp_mod", "_fp_trim"}
    kernels = {
        "_digit_add": {"add_coeffs"},
        "_digit_neg": {"neg_coeffs"},
        "_digit_mul": {"mul_coeffs", "divmod_coeffs"},
        "_irreducible": {"divmod_coeffs"},
    }
    for name, used in kernels.items():
        assert used <= calls(ffcore[name]), name
    remainders = {name for name in ffcore if "mod" in name or "rem" in name}
    assert remainders == {"divmod_coeffs", "__divmod__", "__mod__"}
    assert "divmod_coeffs" in calls(ffcore["__divmod__"])
    assert "divmod" in calls(ffcore["__mod__"])


def test_each_coordinate_answers_for_itself():
    """What a coordinate knows is its own answer (eff_floor, val), not a
    test of its type: lattice, periodic and the oracle read no .exact,
    the norm is one loop over val(), the way back to ambient
    coordinates is _mat_vec's one exact product, and a Rat knows its
    floor as an exact series does."""
    def tree(module):
        return ast.parse(Path(import_module(module).__file__).read_text())

    def calls(node):
        return {n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, (ast.Attribute, ast.Name))}

    def loops(node):
        return sum(isinstance(n, (ast.For, ast.While)) for n in ast.walk(node))

    for module in ("fflat.lattice", "fflat.periodic", "fflat.oracle"):
        reads = [n.lineno for n in ast.walk(tree(module))
                 if isinstance(n, ast.Attribute) and n.attr == "exact"]
        assert not reads, (module, reads)
    lattice = {node.name: node for node in ast.walk(tree("fflat.lattice"))
               if isinstance(node, ast.FunctionDef)}
    assert "_is_series" not in calls(lattice["_frac_norm"])
    assert loops(lattice["_frac_norm"]) == 1
    assert "_mat_vec" in calls(lattice["ambient_from_coords"])
    assert loops(lattice["ambient_from_coords"]) == 0
    rat = next(node for node in ast.walk(tree("fflat.ffcore"))
               if isinstance(node, ast.ClassDef) and node.name == "Rat")
    assert "eff_floor" in {n.name for n in rat.body if isinstance(n, ast.FunctionDef)}


def test_one_polynomial_product_and_one_column_reduction():
    """exactlinalg holds the one product of a polynomial matrix and a
    vector: mat_mul_poly takes it per column and popov_reduce combines
    columns by it, lattice.py defines no product of its own, and
    reduce_lattice multiplies once, for adj(H) G, reading the reduced
    basis from popov_reduce, which carries G."""
    def functions(module):
        tree = ast.parse(Path(import_module(module).__file__).read_text())
        return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}

    def calls(node):
        return [n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, (ast.Attribute, ast.Name))]

    linalg, lattice = functions("fflat.exactlinalg"), functions("fflat.lattice")
    for name in ("mat_mul_poly", "popov_reduce"):
        assert "_mat_vec" in calls(linalg[name]), name
    assert not {"_mat_vec", "_common_den"} & set(lattice)
    assert calls(lattice["reduce_lattice"]).count("mat_mul_poly") == 1
    assert calls(lattice["reduce_lattice"]).count("popov_reduce") == 1


def test_reduce_lattice_alone_picks_the_unit_body():
    """No body given means the unit body, and only reduce_lattice says
    so: periodic.py and oracle.py pass their C, None included, straight
    to it with no `C is None` test, no module but lattice.py names
    ConvexBody.identity or a base_body, and count_points reads a radius
    off the unit body's reduction without building a ball."""
    package = Path(import_module("fflat").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}

    def none_tests(tree):
        return [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name) and n.left.id == "C"
                and isinstance(n.ops[0], ast.Is) and isinstance(n.comparators[0], ast.Constant)
                and n.comparators[0].value is None]

    def unit_bodies(tree):
        return [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "base_body"
                or isinstance(n, ast.FunctionDef) and n.name == "base_body"
                or isinstance(n, ast.Attribute) and n.attr == "identity"
                and isinstance(n.value, ast.Name) and n.value.id == "ConvexBody"]

    for module in ("periodic", "oracle"):
        assert not none_tests(trees[module]), module
    for module, tree in trees.items():
        if module != "lattice":
            assert not unit_bodies(tree), module
    # the one place: the guard checks something
    functions = {n.name: n for n in ast.walk(trees["lattice"]) if isinstance(n, ast.FunctionDef)}
    assert unit_bodies(functions["reduce_lattice"]) and none_tests(functions["reduce_lattice"])
    count = next(n for n in ast.walk(trees["periodic"])
                 if isinstance(n, ast.FunctionDef) and n.name == "count_points")
    assert not [n for n in ast.walk(count) if isinstance(n, ast.Attribute) and n.attr == "ball"]


def test_memos_key_on_the_body_object():
    """A body is its own memo key: src/fflat builds no cache_key, a body
    stores no matrix H for one, and reduce_lattice reads and writes
    _reductions under its C."""
    package = Path(import_module("fflat").__file__).parent
    for path in package.glob("*.py"):
        assert "cache_key" not in path.read_text(), path.name
    assert not {"H", "_key", "cache_key"} & set(dir(ConvexBody))
    tree = ast.parse((package / "lattice.py").read_text())
    reduce_fn = next(n for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef) and n.name == "reduce_lattice")

    def on_reductions(node):
        return isinstance(node, ast.Attribute) and node.attr == "_reductions"

    keys = [n.slice for n in ast.walk(reduce_fn)
            if isinstance(n, ast.Subscript) and on_reductions(n.value)]
    keys += [n.args[0] for n in ast.walk(reduce_fn)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "get" and on_reductions(n.func.value)]
    assert len(keys) == 2
    assert all(isinstance(k, ast.Name) and k.id == "C" for k in keys)

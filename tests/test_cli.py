"""End-to-end command line tests, run in-process through cli.main."""

import contextlib
import decimal
import io
import json
import random
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fflat import GF, Lattice, Poly, battery, cli, expand_rational, parse_element

DATA = Path(__file__).parent / "data"
W = str(DATA / "w.json")
POPOV2 = str(DATA / "popov2.json")
MINKGAP = str(DATA / "minkgap.json")


# e = (0, 3): the covering radius reads alpha_2 alone, to x^-3
SPREAD = {
    "q": 2, "d": 2, "basis": [["1", "0"], ["0", "x^3"]], "N": 1,
    "alpha": ["1/(x^5+x^2+1)", "x/(x^3+x+1)"],
}
# SPREAD's lattice with N = 2: the covering radius reads the columns
# x^-1 .. x^-3 of frac(x^k alpha_2), k <= 2, so x^-5 of alpha_2, and
# above -5 a row without a pivot meets a coefficient it does not know
COVRAD_CUT = {
    "q": 2, "d": 2, "basis": [["1", "0"], ["0", "x^3"]], "N": 2,
    "alpha": ["1/(x^3+x+1)", "x/(x^3+x+1)"],
}
# e = (6, 6): mink-search's class pattern has depth 5 per coordinate
MINK_DEEP = {
    "q": 2, "d": 2, "basis": [["x^6", "0"], ["0", "x^6"]], "N": 2,
    "alpha": ["1/(x^5+x+1)", "1/(x^7+x^2+1)"],
}
# reduced coordinates: alpha_2 = x^-6 + ... sits on the basis vector of
# norm q^6, so frac(x^2 alpha) has its first nonzero class coefficient
# at x^-4, which precision -5 hides from it
MINK_CUT = {
    "q": 2, "d": 2, "basis": [["x^6", "0"], ["0", "1"]], "N": 2,
    "alpha": ["1/(x^3+x+1)", "1/(x^6+x+1)"],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_instance(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestContractExamples:
    def test_covrad_w(self, capsys):
        code, out, _ = run(capsys, "covrad", W)
        assert code == 0
        assert out == "q^-2\n"

    def test_covrad_w_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "covrad", "--oracle", W)
        assert code == 0
        assert out == "q^-2\noracle: q^-2\n"

    def test_minima_popov2(self, capsys):
        code, out, _ = run(capsys, "minima", POPOV2)
        assert code == 0
        assert out == "q^0 q^0\n"

    def test_verify_full_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--grid", "q=2,3;d=2,3;N=0,1,2", "--seed", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(" pass " in ln for ln in lines)
        names = [ln.split()[0] for ln in lines]
        assert "minkowski_equality" in names and "mink_search" in names


class TestQueries:
    def test_reduce_text(self, capsys):
        code, out, _ = run(capsys, "reduce", POPOV2)
        assert code == 0
        assert out.splitlines()[0] == "minima: q^0 q^0"
        assert "basis:" in out

    def test_reduce_json_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", "--format", "json", POPOV2)
        assert code == 0
        doc = json.loads(out)
        assert doc["exps"] == [0, 0]
        # the emitted basis is itself a valid instance basis
        p = write_instance(
            tmp_path, "rt.json", {"q": 2, "d": 2, "basis": doc["basis"]}
        )
        code2, out2, _ = run(capsys, "minima", "--format", "json", p)
        assert code2 == 0
        assert json.loads(out2)["exps"] == doc["exps"]

    def test_packrad(self, capsys):
        assert run(capsys, "packrad", W) == (0, "q^-2\n", "")

    def test_density(self, capsys):
        assert run(capsys, "density", W) == (0, "1\n", "")

    def test_count_default_and_radius(self, capsys):
        assert run(capsys, "count", W)[1] == "16\n"
        assert run(capsys, "count", "--radius", "1", W)[1] == "64\n"

    def test_dinv(self, capsys):
        assert run(capsys, "dinv", W) == (0, "q^-2\n", "")

    def test_dinv_answers_at_any_q_and_stops_past_n2(self, capsys, tmp_path):
        # 2 * 4912 + C(4912, 2) minors by definition: the elimination
        # reads 2 * 3 + 3 Cauchy-Binet minors instead
        p = write_instance(tmp_path, "q17.json", {
            "q": 17, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 2,
            "alpha": ["1/(x^3+x+1)", "x/(x^3+2)"],
        })
        assert run(capsys, "dinv", p) == (0, "q^-3\n", "")
        p = write_instance(tmp_path, "n3.json", {
            "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 3,
            "alpha": ["x^-4", "x^-5"],
        })
        assert run(capsys, "dinv", p) == (1, "", (
            "error: d_invariant is limited to N <= 2: past it not every "
            "F_q-combination of the Cauchy-Binet minors is itself a minor\n"))

    def test_truncated_dinv_answers_as_its_twin(self, capsys, tmp_path):
        # the undecided-rank instance of the benchmark: its minima stay
        # undecided at every floor, its dinv answers
        doc = {
            "q": 3, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
            "alpha": ["1/(x^2+1)", "x/(x^2+x+2)"],
        }
        twin = run(capsys, "dinv", write_instance(tmp_path, "twin.json", doc))
        p = write_instance(tmp_path, "trunc.json", dict(doc, precision=-20))
        assert run(capsys, "dinv", p) == twin == (0, "q^-2\n", "")

    def test_dinv_requires_alpha_form(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "plain.json",
            {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]]},
        )
        code, _, err = run(capsys, "dinv", p)
        assert code == 4 and err.startswith("error:")

    # fields above 2^8 keep the digit arithmetic (no tables to build);
    # the default moduli, and a basis whose reduction does work
    @pytest.mark.parametrize("q, basis, want", [
        (2**16,
         [["x^2 + (t)*x + 1", "x^3 + (t^3)*x^2 + (t^9 + 1)*x + (t^12)"],
          ["x + (t^15)", "x^2 + (t^15 + t^3)*x + 1"]],
         '{"basis": [["(t^9 + t^4 + t^2)*x + (t^12 + t^3 + t)", "(t^3 + t)*x^2 + (t^9)*x + (t^12)"], '
         '["(t)*x + (t^7 + t^2 + t)", "(t^3)*x + 1"]], "exps": [1, 2]}\n'),
        (3**10,
         [["x^2 + (t)*x + 1", "x^3 + (2*t^3)*x^2 + (t^9 + 1)*x + (t^8)"],
          ["x + (t^9)", "x^2 + (t^7 + 2*t)*x + 1"]],
         '{"basis": [["(t^9 + t^4 + t^2)*x + (t^8 + t^3 + t)", "(2*t^3 + 2*t)*x^2 + (t^9)*x + (t^8)"], '
         '["(2*t^9 + t^7 + t^3)*x + (t^4)", "(2*t^9 + t^7 + 2*t)*x + 1"]], "exps": [1, 2]}\n'),
    ], ids=["q2^16", "q3^10"])
    def test_reduce_large_extension_field(self, capsys, tmp_path, q, basis, want):
        path = write_instance(tmp_path, "big.json", {"q": q, "d": 2, "basis": basis})
        assert run(capsys, "reduce", "--format", "json", path) == (0, want, "")

    def test_covrad_bounds(self, capsys):
        code, out, _ = run(capsys, "covrad", "--bounds", W)
        assert code == 0
        assert out == "q^-2\nbounds: -3 <= -2 <= -1\n"

    def test_covrad_bounds_json(self, capsys):
        code, out, _ = run(capsys, "covrad", "--format", "json", "--bounds", W)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"bounds": {"lower": "-3", "upper": -1}, "exp": -2}


class TestMinkSearch:
    def test_point_found(self, capsys):
        code, out, _ = run(capsys, "mink-search", W)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "status: point"
        assert "point: x^-1  x^-2" in lines
        assert "norm: q^-1" in lines

    def test_certified_gap_exits_2(self, capsys):
        code, out, _ = run(capsys, "mink-search", MINKGAP)
        assert code == 2
        assert out.splitlines()[0] == "status: no_point"

    def test_gap_json(self, capsys):
        code, out, _ = run(capsys, "mink-search", "--format", "json", MINKGAP)
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "no_point"
        assert doc["measure_exp"] > doc["threshold_exp"]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "minima", "/nonexistent/nope.json")
        assert code == 4
        assert err.startswith("error:")

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "minima", str(p))
        assert code == 4 and err.startswith("error:")

    def test_unknown_key(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "k.json",
            {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "bogus": 1},
        )
        code, _, err = run(capsys, "minima", p)
        assert code == 4 and "bogus" in err

    def test_bad_field_order(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "q6.json",
            {"q": 6, "d": 2, "basis": [["1", "0"], ["0", "1"]]},
        )
        code, _, err = run(capsys, "minima", p)
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("q, want", [
        (2**17, "field size 131072 exceeds the 2^16 ceiling"),
        (2**31, "field size 2147483648 exceeds the 2^16 ceiling"),
        (19**2, "field characteristic must be a prime <= 17, got 19"),
        (2**61 - 1, "field size 2305843009213693951 exceeds the 2^16 ceiling"),
    ])
    def test_field_order_is_refused_before_the_modulus_scan(self, capsys, tmp_path, q, want):
        """The default modulus is the first irreducible one of up to q
        candidates: GF's own refusal comes first, not after the scan.  A
        prime q as large as 2^61 - 1 is refused without a trial division
        up to its square root."""
        def bail(*_):
            raise TimeoutError("the field order was not refused within 5 s")

        p = write_instance(
            tmp_path, "bigq.json", {"q": q, "d": 2, "basis": [["1", "0"], ["0", "1"]]})
        old = signal.signal(signal.SIGALRM, bail)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            assert run(capsys, "reduce", p) == (4, "", f"error: {want}\n")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def test_series_top_below_its_floor_names_both(self, capsys, tmp_path):
        p = write_instance(tmp_path, "top.json", {
            "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
            "alpha": [{"floor": 0, "top": -5, "coeffs": []}, "x^-2"],
        })
        assert run(capsys, "minima", p) == (
            4, "", "error: alpha[0]: series top -5 must be at least floor 0 - 1\n")

    def test_bad_element_names_location(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "el.json",
            {"q": 2, "d": 2, "basis": [["1", "x*x"], ["0", "1"]]},
        )
        code, _, err = run(capsys, "minima", p)
        assert code == 4 and "basis[0][1]" in err

    def test_singular_basis(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "sing.json",
            {"q": 2, "d": 2, "basis": [["1", "1"], ["1", "1"]]},
        )
        code, _, err = run(capsys, "minima", p)
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("patch, argv, want", [
        ({"basis": [["x^1000001", "0"], ["0", "1"]]}, ["reduce"], "basis[0][0]: x exponent"),
        ({"basis": [["1", "0"], ["0", "1 + x^-1000001"]]}, ["reduce"], "basis[1][1]: x exponent"),
        ({"basis": [["x^1" + "0" * 30, "0"], ["0", "1"]]}, ["reduce"], "basis[0][0]: x exponent"),
        ({"N": 1, "alpha": ["x^-1", "(1)/(x^1000001 + 1)"]}, ["minima"], "alpha[1]: x exponent"),
        ({"N": 1, "alpha": ["x^-1", "x^-2"], "precision": -1000001}, ["minima"],
         "precision"),
        ({}, ["count", "--radius", "1000001"], "--radius"),
        ({}, ["count", "--radius", "-1000001"], "--radius"),
        # a 30-byte literal; _weight_echelon would read 3 * 10^6 coefficients
        ({"N": 1, "alpha": [{"floor": -3000000, "top": -3000000, "coeffs": [1]}, "x^-2"]},
         ["minima"], "alpha[0]: series floor"),
        ({"N": 1, "alpha": ["x^-1", {"floor": -1, "top": 1000001, "coeffs": [1]}]},
         ["minima"], "alpha[1]: series top"),
        # the construction certificate would build one pattern row per generator
        ({"N": 100000000, "alpha": ["x^-1", "x^-2"], "precision": -3}, ["minima"], "N"),
        ({"N": 1000001, "alpha": ["x^-1", "x^-2"]}, ["count"], "N"),
    ])
    def test_magnitudes_past_the_limit_exit_4(self, capsys, tmp_path, patch, argv, want):
        # each would build a dense list that long; 10^30 overflowed
        doc = {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], **patch}
        p = write_instance(tmp_path, "big.json", doc)
        assert run(capsys, *argv, p) == (
            4, "", f"error: {want}: absolute value above 1000000\n")

    @pytest.mark.parametrize("patch, want", [
        ({"q": True}, "q: required integer"),
        ({"d": True}, "d: required integer"),
        ({"N": True, "alpha": ["x^-1", "x^-2"]}, "N: required nonnegative integer with alpha"),
        ({"N": False, "alpha": ["x^-1", "x^-2"]}, "N: required nonnegative integer with alpha"),
    ])
    def test_json_booleans_are_not_integers(self, capsys, tmp_path, patch, want):
        # bool is an int in Python: true read as 1 and false as 0
        doc = {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], **patch}
        p = write_instance(tmp_path, "bool.json", doc)
        for cmd in ("minima", "count"):
            assert run(capsys, cmd, p) == (4, "", f"error: {want}\n")

    def test_precision_too_coarse_exits_3(self, capsys, tmp_path):
        # SPREAD at -2: x^-3 of alpha_2 is cut, but only frac(x * alpha_2)
        # reads it, and that row has its pivot already, so the answer is
        # the exact twin's
        for floor in (-2, -3, None):
            doc = SPREAD if floor is None else dict(SPREAD, precision=floor)
            p = write_instance(tmp_path, "spread.json", doc)
            assert run(capsys, "covrad", p) == (0, "q^0\n", "")
        for floor in (-3, -4):
            p = write_instance(tmp_path, "coarse.json", dict(COVRAD_CUT, precision=floor))
            code, _, err = run(capsys, "covrad", p)
            assert code == 3 and err.startswith("error:")
            assert err.rstrip().endswith("(needs precision <= -5)")
        for doc in (COVRAD_CUT, dict(COVRAD_CUT, precision=-5)):
            p = write_instance(tmp_path, "fine.json", doc)
            assert run(capsys, "covrad", p) == (0, "q^-1\n", "")

    def test_precision_boundary_is_enough(self, capsys, tmp_path):
        # at -2 too: W's level needing x^-3 asks rank 4 of 2 generators
        for floor in (-3, -2):
            doc = json.loads(Path(W).read_text())
            doc["precision"] = floor
            p = write_instance(tmp_path, "fine.json", doc)
            code, out, _ = run(capsys, "covrad", p)
            assert code == 0 and out == "q^-2\n"

    def test_mink_search_hint_is_in_alpha_frame(self, capsys, tmp_path):
        # the class pattern reads x^-(5 + k) of alpha for generators k <= 2;
        # on MINK_DEEP every generator takes its pivot from coefficients
        # it knows, so each certified floor answers as the exact twin does
        twin = run(capsys, "mink-search", write_instance(tmp_path, "twin.json", MINK_DEEP))
        for floor in (-5, -6, -7):
            p = write_instance(tmp_path, "mk.json", dict(MINK_DEEP, precision=floor))
            assert run(capsys, "mink-search", p) == twin
        for floor, code in ((-5, 3), (-6, 0), (-7, 0)):
            p = write_instance(tmp_path, "cut.json", dict(MINK_CUT, precision=floor))
            got, _, err = run(capsys, "mink-search", p)
            assert got == code
            if code == 3:
                assert err.rstrip().endswith("(needs precision <= -7)")

    def test_mink_search_norm_hint_suffices(self, capsys, tmp_path):
        # the point is frac((x^2 + 2) * alpha) in the body's frame: at -4
        # its second coordinate knows no coefficient down to weight 0, the
        # first has one of weight -1, so the norm needs weight >= 0 known
        # in the point, two more coefficients of alpha for the shift x^2
        inst = {
            "q": 3, "d": 2, "basis": [["x^2+x^3", "0"], ["0", "x"]], "N": 2,
            "alpha": ["(2*x+x^2+2*x^3+x^4)/(1+x+x^3+2*x^4+x^5)", "(1+x+x^3)/(2*x+x^2+x^5)"],
            "body": [["1", "0"], ["0", "x+1"]],
        }
        code, out, _ = run(capsys, "mink-search", "--format", "json",
                           write_instance(tmp_path, "twin.json", inst))
        twin = json.loads(out)
        assert code == 0 and (twin["status"], twin["measure_exp"], twin["norm_exp"]) == ("point", 3, -1)
        floor = -4
        for _ in range(3):
            p = write_instance(tmp_path, "cut.json", dict(inst, precision=floor))
            code, out, err = run(capsys, "mink-search", "--format", "json", p)
            if code == 0:
                break
            assert code == 3
            hint = int(err.rstrip()[:-1].rsplit("<= ", 1)[1])
            assert hint < floor
            floor = hint
        assert code == 0 and floor == -5
        got = json.loads(out)
        assert {k: v for k, v in got.items() if k != "point"} == {
            k: v for k, v in twin.items() if k != "point"}

    def test_rational_alpha_exits_1(self, capsys, tmp_path):
        p = write_instance(
            tmp_path, "rat.json",
            {
                "q": 2, "d": 2,
                "basis": [["1", "0"], ["0", "1"]],
                "alpha": ["x^-1", "x^-1"], "N": 1,
            },
        )
        code, _, err = run(capsys, "covrad", p)
        assert code == 1 and err.startswith("error:")

    def test_series_n_rational_exits_1(self, capsys, tmp_path):
        exact = {"floor": -2, "top": -1, "coeffs": [1, 1], "exact": True}
        unit = {"floor": -1, "top": -1, "coeffs": [1], "exact": True}
        p = write_instance(tmp_path, "nrat.json", {
            "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 2,
            "alpha": [exact, unit],
        })
        code, out, err = run(capsys, "minima", p)
        assert (code, out, err) == (1, "", "error: alpha is N-rational for N=2: witness x^2\n")

    def test_series_too_coarse_for_certificate_exits_3(self, capsys, tmp_path):
        p = write_instance(tmp_path, "coarse.json", {
            "q": 3, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 2,
            "alpha": ["x^-2 + x^-7", "2*x^-4 + x^-5"], "precision": -3,
        })
        code, out, err = run(capsys, "minima", p)
        assert (code, out) == (3, "")
        assert err == (
            "error: cannot certify N-irrationality: some Q of degree 2 leaves "
            "frac(Q*alpha) no known nonzero coefficient (needs precision <= -4)\n"
        )

    def test_bad_grid_axis(self, capsys):
        code, _, err = run(capsys, "verify", "--grid", "z=1")
        assert code == 4 and err.startswith("error:")

    @pytest.mark.parametrize("grid, err", [
        ("q=2;d=1;N=0", "error: grid: 'd' values must be >= 2, got 1\n"),
        ("q=2;d=2,0;N=0", "error: grid: 'd' values must be >= 2, got 0\n"),
        ("q=2;d=2;N=-1", "error: grid: 'N' values must be >= 0, got -1\n"),
    ], ids=["d=1", "d=0", "N=-1"])
    def test_grid_values_out_of_range_exit_4(self, capsys, grid, err):
        assert run(capsys, "verify", "--grid", grid) == (4, "", err)

    @pytest.mark.parametrize("budget", ["abc", "1.5"])
    def test_non_integer_budget_exits_4(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("FFLAT_BUDGET", budget)
        err = f"error: FFLAT_BUDGET: expected an integer, got {budget!r}\n"
        assert run(capsys, "covrad", "--oracle", W) == (4, "", err)
        assert run(capsys, "verify", "--grid", "q=2;d=2;N=0") == (4, "", err)


class TestVerifyDeterminism:
    def test_bit_identical_reruns(self, capsys):
        args = ("verify", "--grid", "q=2;d=2;N=0,1", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_draws(self, capsys):
        _, out1, _ = run(
            capsys, "verify", "--format", "json",
            "--grid", "q=2;d=2;N=0", "--seed", "1",
        )
        doc = json.loads(out1)
        assert doc["passed"] and doc["seed"] == 1
        assert {c["name"] for c in doc["checks"]} >= {
            "minkowski_equality", "covrad_vs_oracle", "mink_search",
        }


def test_reps_instance(capsys, tmp_path):
    p = tmp_path / "reps.json"
    p.write_text(json.dumps({
        "q": 2, "d": 2,
        "basis": [["1", "0"], ["0", "1"]],
        "reps": [["x^-1", "x^-2"], ["0", "x^-1"]],
    }))
    code, out, _ = run(capsys, "count", str(p))
    assert code == 0 and out == "16\n"
    code, out, _ = run(capsys, "minima", str(p))
    assert code == 0 and out == "q^-1 q^-1\n"


def test_empty_reps_answer_as_plain_but_refuse_bounds(capsys, tmp_path):
    """Empty reps build the plain lattice, and the instance stays a reps
    instance: covrad answers as on the plain one, --bounds refuses."""
    base = {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]]}
    reps = write_instance(tmp_path, "reps.json", dict(base, reps=[]))
    plain = write_instance(tmp_path, "plain.json", base)
    assert run(capsys, "covrad", reps) == run(capsys, "covrad", plain)
    assert run(capsys, "covrad", "--bounds", reps) == (
        4, "", "error: --bounds requires an alpha or plain instance\n")
    assert run(capsys, "covrad", "--bounds", plain)[0] == 0


def test_extension_field_default_modulus(capsys, tmp_path):
    p = write_instance(tmp_path, "q4.json", {
        "q": 4, "d": 2, "basis": [["x", "1"], ["0", "x"]],
        "N": 1, "alpha": ["x^-1", "x^-2"],
    })
    code, out, err = run(capsys, "minima", p)
    assert (code, out, err) == (0, "q^0 q^0\n", "")
    with_modulus = write_instance(tmp_path, "q4m.json", {
        "q": 4, "modulus": [1, 1, 1], "d": 2, "basis": [["x", "1"], ["0", "x"]],
        "N": 1, "alpha": ["x^-1", "x^-2"],
    })
    for cmd in ("covrad", "count", "mink-search"):
        assert run(capsys, cmd, p) == run(capsys, cmd, with_modulus)


@pytest.mark.parametrize("entry", ["a", True, 1.5])
def test_modulus_entries_must_be_integers(capsys, tmp_path, entry):
    p = write_instance(tmp_path, "q4bad.json", {
        "q": 4, "modulus": [entry, 1, 1], "d": 2, "basis": [["1", "0"], ["0", "1"]],
    })
    assert run(capsys, "reduce", p) == (4, "", "error: modulus: coefficients must be integers\n")


@pytest.mark.parametrize("entry", [5, -1])
def test_modulus_entries_must_lie_in_the_prime_field(capsys, tmp_path, entry):
    """Out-of-range coefficients are refused, not reduced mod p: [5, 1, 1]
    and [-1, 1, 1] would otherwise both read as t^2 + t + 1."""
    p = write_instance(tmp_path, "q4range.json", {
        "q": 4, "modulus": [entry, 1, 1], "d": 2, "basis": [["1", "0"], ["0", "1"]],
    })
    assert run(capsys, "reduce", p) == (4, "", "error: modulus: coefficients must lie in 0..p-1\n")


def test_integer_literal_past_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    """json.load refuses an int of more than 4300 digits with a
    ValueError; it exits 4 like any other unreadable instance."""
    p = tmp_path / "huge.json"
    p.write_text('{"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "precision": -1'
                 + "0" * 5000 + "}")
    code, out, err = run(capsys, "minima", str(p))
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {p}: invalid JSON (") and "Traceback" not in err


@pytest.mark.parametrize("entry", ["x^²", "x^٣", "²*x", "(٣*t)*x"])
def test_non_ascii_digits_are_a_parse_error(capsys, tmp_path, entry):
    """Only 0-9 are digits: str.isdigit would take "²", which int()
    refuses, and "٣", which int() reads as 3."""
    p = write_instance(tmp_path, "digits.json", {
        "q": 4, "modulus": [1, 1, 1], "d": 2, "basis": [[entry, "0"], ["0", "1"]],
    })
    code, out, err = run(capsys, "reduce", p)
    assert (code, out) == (4, "") and err.startswith("error: basis[0][0]: bad term")


@pytest.mark.parametrize("entry", ["1" * 5000 + "*x", "x^" + "1" * 5000, "(" + "1" * 5000 + "*t)*x"])
def test_long_integer_in_an_element_is_a_parse_error(capsys, tmp_path, entry):
    """Instances load outside the lifted limit on decimal digits, so
    int() refuses a coefficient or exponent of 5000 digits; the entry
    is named and the command exits 4."""
    p = write_instance(tmp_path, "long.json", {
        "q": 4, "modulus": [1, 1, 1], "d": 2, "basis": [["1", "0"], ["0", entry]],
    })
    code, out, err = run(capsys, "reduce", p)
    assert (code, out) == (4, "")
    assert err.startswith("error: basis[1][1]: integer literal at position ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_past_the_int_digit_limit_print_exactly(capsys, tmp_path, fmt):
    """The unit ball of radius q^20000 holds 2^40002 points of F_2[x]^2,
    12042 digits, more than Python prints of an int by default; the
    count prints exactly, and the limit is back afterwards."""
    p = write_instance(tmp_path, "std.json", {"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]]})
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run(capsys, "count", p, "--radius", "20000", "--format", fmt)
    assert (code, err) == (0, "")
    assert limit() == before
    with decimal.localcontext() as ctx:
        ctx.prec = 13000
        want = str(decimal.Decimal(2) ** 40002)
    assert len(want) == 12042
    assert out == (f"{want}\n" if fmt == "text" else f'{{"count": {want}}}\n')


# --- one arithmetic backend per instance ------------------------------------

# an exact series literal next to a rational that is not a polynomial
MIXED = {
    "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
    "alpha": [{"floor": -3, "top": -1, "coeffs": [1, 0, 1], "exact": True}, "1/(x+1)"],
}
# a row of the ambient-to-reduced change of frame that is all exact
AMBIENT = {
    "q": 2, "d": 2, "basis": [["x", "0"], ["0", "x+1"]], "N": 0, "frame": "ambient",
    "alpha": [
        {"floor": -10, "top": -2, "coeffs": [1, 1, 0, 1, 1, 0, 1, 1, 0], "exact": False},
        "1",
    ],
}


def test_mixed_backend_answers_as_its_rational_twin(capsys, tmp_path):
    p = write_instance(tmp_path, "mixed.json", MIXED)
    twin = write_instance(tmp_path, "twin.json", dict(MIXED, alpha=["x^-1 + x^-3", "1/(x+1)"]))
    for cmd in ("minima", "density", "packrad", "covrad"):
        assert run(capsys, cmd, p) == run(capsys, cmd, twin)
    code, out, _ = run(capsys, "mink-search", "--format", "json", p)
    _, want, _ = run(capsys, "mink-search", "--format", "json", twin)
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    assert got.pop("point")[0] == "x^-1 + x^-3"
    want.pop("point")
    assert got == want


@pytest.mark.parametrize("name", ["plain_body", "ambient_body"])
def test_count_radius_replaces_the_body(capsys, tmp_path, name):
    """count --radius R counts in the ball x^R O^d whatever body the
    instance names: the answer is its body-less twin's."""
    inst = json.loads((DATA / "golden" / f"{name}.json").read_text())
    p = write_instance(tmp_path, "body.json", inst)
    twin = write_instance(tmp_path, "twin.json", {k: v for k, v in inst.items() if k != "body"})
    for radius in ("-2", "0", "1", "3"):
        for fmt in ("text", "json"):
            argv = ["count", "--radius", radius, "--format", fmt]
            got = run(capsys, *argv, p)
            assert got[0] == 0 and got == run(capsys, *argv, twin)


def test_ambient_frame_exact_row(capsys, tmp_path):
    p = write_instance(tmp_path, "amb.json", AMBIENT)
    twin = write_instance(tmp_path, "amb-prec.json", dict(AMBIENT, precision=-10))
    for argv, want in ((["minima"], "q^0 q^1\n"), (["covrad"], "q^0\n"),
                       (["count", "--radius", "1"], "8\n")):
        assert run(capsys, *argv, p) == (0, want, "")
        assert run(capsys, *argv, twin) == (0, want, "")


# truncated coordinates whose K-dependent candidates no truncated minor
# can decide; other candidates of the same norm are certified independent
UNDECIDED_RANK = {
    "q": 3, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
    "alpha": ["1/(x^2+1)", "x/(x^2+x+2)"],
}


@pytest.mark.parametrize("floor", [-20, -60, -150])
def test_undecided_rank_answers_as_its_exact_twin(capsys, tmp_path, floor):
    p = write_instance(tmp_path, "trunc.json", dict(UNDECIDED_RANK, precision=floor))
    twin = write_instance(tmp_path, "twin.json", UNDECIDED_RANK)
    for cmd, want in (("minima", "q^-1 q^-1\n"), ("density", "1\n")):
        assert run(capsys, cmd, p) == (0, want, "")
        assert run(capsys, cmd, twin) == (0, want, "")


# truncated at x^-6, no known coefficient of the minors decides whether
# some candidate enlarges the span: the independence test refuses
RANK_REFUSAL = {
    "q": 2, "d": 3, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "N": 2,
    "alpha": ["(1*x^1)/(1*x^1+1*x^3)", "(1*x^1+1*x^2)/(1*x^0+1*x^2+1*x^4+1*x^5)",
              "(1*x^2+1*x^3)/(1*x^1+1*x^4+1*x^5)"],
    "precision": -6,
}
# the undecided minors need different floors; the refusal names the
# highest of them
RANK_REFUSAL_FLOORS = {
    "q": 2, "d": 3, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "N": 1,
    "alpha": ["(1*x^0+1*x^1)/(1*x^0+1*x^1)", "(1*x^1)/(1*x^2+1*x^3)",
              "(1*x^0)/(1*x^0+1*x^1+1*x^3+1*x^4)"],
    "precision": -5,
}


@pytest.mark.parametrize("cmd", ["minima", "density", "packrad"])
@pytest.mark.parametrize("inst, floor", [(RANK_REFUSAL, -8), (RANK_REFUSAL_FLOORS, -7)],
                         ids=["one-floor", "highest-floor"])
def test_undecided_rank_refusal_names_its_floor(capsys, tmp_path, cmd, inst, floor):
    p = write_instance(tmp_path, "trunc.json", inst)
    assert run(capsys, cmd, p) == (3, "", (
        "error: linear independence undecidable at the stored precision "
        f"(needs precision <= {floor})\n"))


# a rational coordinate whose expansion starts far below the fixed margin
DEEP_DENOMINATOR = {
    "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 4,
    "alpha": [{"floor": -1, "top": -1, "coeffs": [1], "exact": True}, "1/(x^30+x+1)"],
}


def test_lifting_margin_covers_denominator_degree(capsys, tmp_path):
    p = write_instance(tmp_path, "deep.json", DEEP_DENOMINATOR)
    twin = write_instance(tmp_path, "twin.json", dict(DEEP_DENOMINATOR, alpha=["x^-1", "1/(x^30+x+1)"]))
    for argv, want in ((["covrad"], "q^-1\n"), (["minima"], "q^-29 q^-1\n"),
                       (["count", "--radius", "1"], "512\n")):
        assert run(capsys, *argv, p) == (0, want, "")
        assert run(capsys, *argv, twin) == (0, want, "")


# the certificate's hints lead to a floor that builds: each refusal
# names the next floor below alpha's own, in alpha's (reduced) frame
CERT_CHAIN = {
    "q": 3, "d": 3, "basis": [["x^1", "0", "x+1"], ["0", "x^1", "0"], ["0", "0", "x^3"]],
    "N": 3, "alpha": ["(2)/(x^3+x^2+x)", "(2)/(x+2)", "(1)/(x^2)"],
}


def test_certificate_hints_lead_to_a_floor_that_builds(capsys, tmp_path):
    for floor, degree in ((-2, 2), (-3, 3), (-4, 3)):
        p = write_instance(tmp_path, "chain.json", dict(CERT_CHAIN, precision=floor))
        code, out, err = run(capsys, "covrad", p)
        assert (code, out) == (3, "")
        assert f"some Q of degree {degree} " in err
        assert err.rstrip().endswith(f"(needs precision <= {floor - 1})")
    p = write_instance(tmp_path, "chain.json", dict(CERT_CHAIN, precision=-5))
    assert run(capsys, "covrad", p) == (0, "q^0\n", "")
    twin = write_instance(tmp_path, "twin.json", CERT_CHAIN)
    assert run(capsys, "covrad", twin) == (0, "q^0\n", "")


def test_monomial_alpha_with_a_vanishing_low_generator(capsys, tmp_path):
    # frac(alpha) has no known coefficient in the window x^-1, x^-2 of
    # frac(x^2 alpha), yet no Q of degree <= 2 clears frac(Q alpha)
    p = write_instance(tmp_path, "mono.json", {
        "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 2,
        "alpha": ["x^-3", "x^-4"], "precision": -4,
    })
    assert run(capsys, "covrad", p) == (0, "q^-1\n", "")
    assert run(capsys, "count", "--radius", "0", p) == (0, "32\n", "")


def _series(floor, pairs):
    top = max(pairs)
    return {"floor": floor, "top": top, "exact": False,
            "coeffs": [pairs.get(e, 0) for e in range(top, floor - 1, -1)]}


# coset reps truncated at unequal floors: each literal is read down to
# the highest floor among the reps, not to the lowest
UNEQUAL_FLOORS = (
    ({"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]],
      "reps": [[_series(-4, {-1: 1, -4: 1}), "1/(x+1)"]]},
     [["x^-1 + x^-4", "1/(x+1)"]],
     ((["minima"], "q^-1 q^0\n"), (["covrad"], "q^-1\n"), (["count", "--radius", "1"], "32\n"))),
    ({"q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]],
      "reps": [[_series(-4, {-1: 1, -4: 1}), "0"], [_series(-6, {-2: 1, -6: 1}), "x^-1"]]},
     [["x^-1 + x^-4", "0"], ["x^-2 + x^-6", "x^-1"]],
     ((["minima"], "q^-1 q^-1\n"), (["covrad"], "q^-2\n"), (["count", "--radius", "1"], "64\n"))),
)


@pytest.mark.parametrize("inst, twin_reps, answers", UNEQUAL_FLOORS)
def test_coset_reps_at_unequal_floors_answer_as_their_twin(capsys, tmp_path, inst, twin_reps, answers):
    p = write_instance(tmp_path, "reps.json", inst)
    twin = write_instance(tmp_path, "twin.json", dict(inst, reps=twin_reps))
    for argv, want in answers:
        assert run(capsys, *argv, p) == (0, want, "")
        assert run(capsys, *argv, twin) == (0, want, "")


BACKEND_COMMANDS = (
    ["reduce"], ["minima"], ["covrad"], ["packrad"], ["density"], ["count"],
    ["count", "--radius", "1"], ["dinv"], ["mink-search"],
)
BACKEND_BASES = (
    [["1", "0"], ["0", "1"]],
    [["x", "1"], ["0", "x+1"]],
    [["x^-1", "0"], ["1", "x"]],
)


@st.composite
def _coordinate(draw, q: int, fractional: bool):
    """(rational string, JSON literal) for one coordinate: the literal
    is the same string, an exact series literal (Laurent polynomials
    only) or a truncated one."""
    F = GF(q)
    k = draw(st.integers(1, 3))
    tail = draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    const = 0 if fractional else draw(st.integers(0, q - 1))
    terms = [f"{c}*x^{-j - 1}" for j, c in enumerate(tail) if c]
    if const:
        terms.append(str(const))
    text = " + ".join(terms) or "0"
    if draw(st.booleans()):
        den = draw(st.sampled_from(["x+1", "x^2+x+1", "x^2+1"]))
        text = f"({text}) / ({den})" if text != "0" else "0"
    r = parse_element(F, text)
    form = draw(st.sampled_from(["string", "exact", "truncated"]))
    laurent = r.den == Poly.monomial(F, 1, r.den.degree)
    if form == "string" or (form == "exact" and not laurent):
        return text, text
    s = expand_rational(r, draw(st.integers(-12, -1)) if form == "truncated" else -64)
    lit = {"floor": s.floor, "top": s.top, "coeffs": list(s.coeffs),
           "exact": form == "exact"}
    return text, lit


@st.composite
def backend_instances(draw):
    """(instance, all-rational twin) in the alpha or the coset form."""
    q = draw(st.sampled_from([2, 3]))
    base = {"q": q, "d": 2, "basis": draw(st.sampled_from(BACKEND_BASES))}
    if draw(st.booleans()):
        frame = draw(st.sampled_from(["reduced", "ambient"]))
        pairs = [draw(_coordinate(q, frame == "reduced")) for _ in range(2)]
        base.update(N=draw(st.integers(0, 1)), frame=frame)
        return ({**base, "alpha": [lit for _t, lit in pairs]},
                {**base, "alpha": [t for t, _lit in pairs]})
    reps = [[draw(_coordinate(q, True)) for _ in range(2)]
            for _ in range(draw(st.integers(1, 2)))]
    return ({**base, "reps": [[lit for _t, lit in rep] for rep in reps]},
            {**base, "reps": [[t for t, _lit in rep] for rep in reps]})


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@given(backend_instances())
def test_backend_rule_property(tmp_path_factory, pair):
    """Whatever mix of rational strings, exact and truncated series
    literals an instance uses, every command ends in a documented exit
    code, and an answer equals the all-rational twin's."""
    inst, twin = pair
    tmp = tmp_path_factory.mktemp("backend")
    p = write_instance(tmp, "inst.json", inst)
    tp = write_instance(tmp, "twin.json", twin)
    for cmd in BACKEND_COMMANDS:
        code, out = _run_quiet([*cmd, "--format", "json", p])
        assert code in (0, 1, 2, 3, 4)
        if code != 0:
            continue
        tcode, tout = _run_quiet([*cmd, "--format", "json", tp])
        got, want = json.loads(out), json.loads(tout)
        if cmd == ["mink-search"]:
            got.pop("point", None)
            want.pop("point", None)
        assert (tcode, got) == (0, want), cmd


def test_random_coset_lattice_rejects_more_reps_than_3d():
    """Denominators x^1 .. x^3 span at most 3d dimensions, so n = 7 reps
    at d = 2 can never be independent: refuse at once, not loop."""
    F = GF(2)

    def bail(*_):
        raise TimeoutError("random_coset_lattice did not return within 10 s")

    old = signal.signal(signal.SIGALRM, bail)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(ValueError):
            battery.random_coset_lattice(random.Random(0), F, 2, 7, Lattice.standard(F, 2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)

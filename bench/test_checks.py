"""Each checker accepts fflat's answer and rejects a deliberately wrong one.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import ownmath as om  # noqa: E402
import workloads  # noqa: E402
from fflat import cli  # noqa: E402

F2 = om.field_for(2)
# Lambda(alpha, q^1) over a skewed lattice: e = [-1, 1], n = 2
ALPHA = {"q": 2, "d": 2, "basis": [["1*x^-1", "1*x^0"], ["0", "1*x^1"]], "N": 1,
         "alpha": ["1*x^-2 + 1*x^-3", "(1*x^0) / (1*x^2 + 1*x^1 + 1*x^0)"]}


def fflat(args, inst, tmp_path, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(inst))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*args, "--format", "json", str(path)])
    assert code in (0, 2)
    return json.loads(out.getvalue())


def test_reduce_checker(tmp_path):
    rng = random.Random(5)
    F = om.field_for(3)
    G = workloads.random_matrix(rng, F, 3, -3, 3)
    H = workloads.random_matrix(rng, F, 3, -3, 3)
    ans = fflat(["reduce"], workloads._lattice_inst(F, 3, G, H), tmp_path)
    G, H = om.laurent_matrix(F, G), om.laurent_matrix(F, H)

    def problems(a):
        return checks.reduced_basis_problems(F, G, H, a, random.Random(1))

    assert problems(ans) == []
    # a minimum off by one breaks the Minkowski equality
    off = dict(ans, exps=ans["exps"][:-1] + [ans["exps"][-1] + 1])
    assert any("Minkowski" in p for p in problems(off))
    # a basis column times x: the determinant degree is one too high
    col = [[om.format_laurent(F, {e + (j == 2): c for e, c in om.parse_terms(
        F, entry).items()}) for j, entry in enumerate(row)] for row in ans["basis"]]
    assert any("det U" in p for p in problems(dict(ans, basis=col)))
    # the same lattice with the columns swapped is no longer reduced in order
    swapped = [[row[1], row[0], row[2]] for row in ans["basis"]]
    if ans["exps"][0] != ans["exps"][1]:
        assert problems(dict(ans, basis=swapped))


def _periodic_facts(tmp_path):
    plain = {k: ALPHA[k] for k in ("q", "d", "basis")}
    e = fflat(["reduce"], plain, tmp_path, "plain.json")["exps"]
    G = checks._matrix(F2, ALPHA["basis"])
    return {"e": e, "logdet": checks._logdet(F2, *G), "n": 2, "N": 1}


def _periodic_answers(tmp_path):
    answers = {q: fflat([q], ALPHA, tmp_path) for q in ("minima", "density", "mink-search",
                                                         "covrad", "dinv")}
    for R in (0, 3):
        answers[("count", R)] = fflat(["count", "--radius", str(R)], ALPHA, tmp_path)
    return answers


def test_periodic_checker_minimum_off_by_one(tmp_path):
    facts = _periodic_facts(tmp_path)
    answers = _periodic_answers(tmp_path)
    facts["witness_norms"] = list(answers["minima"]["exps"])
    assert checks.periodic_problems(F2, facts, answers) == []
    m = answers["minima"]["exps"]
    for delta in (-1, 1):
        wrong = dict(answers, minima={"exps": [m[0] + delta] + m[1:]})
        assert checks.periodic_problems(F2, facts, wrong)
    S = checks._library_periodic(ALPHA)
    assert checks.oracle_problems(S, answers) == []
    assert checks.oracle_problems(S, dict(answers, minima={"exps": [m[0] - 1] + m[1:]}))


def test_periodic_checker_count_off_by_q(tmp_path):
    facts = _periodic_facts(tmp_path)
    answers = _periodic_answers(tmp_path)
    for R in (0, 3):
        c = answers[("count", R)]["count"]
        for wrong in (c * 2, c // 2):
            bad = dict(answers)
            bad[("count", R)] = {"count": wrong}
            S = checks._library_periodic(ALPHA)
            assert checks.periodic_problems(F2, facts, bad) or checks.oracle_problems(S, bad)


def test_periodic_checker_density_covrad_dinv(tmp_path):
    facts = _periodic_facts(tmp_path)
    answers = _periodic_answers(tmp_path)
    d = answers["density"]["density"]
    assert checks.periodic_problems(F2, facts, dict(answers, density={"density": "3/4"}))
    assert checks.periodic_problems(F2, facts, dict(answers, density={"density": d + "/2"}))
    lo, hi = checks.covrad_bounds(facts["e"], 1)
    assert checks.periodic_problems(F2, facts, dict(answers, covrad={"exp": hi + 1}))
    assert checks.periodic_problems(F2, facts, dict(answers, dinv={"exp": 0}))


def test_truncated_checker():
    assert checks.truncated_problems(F2, "count", {"count": 16}, {"count": 16}) == []
    assert checks.truncated_problems(F2, "count", {"count": 16}, {"count": 32})
    assert checks.truncated_problems(F2, "covrad", {"exp": -2}, {"exp": -1})
    exact = {"status": "point", "norm_exp": -1, "point": ["(1*x^0) / (x^2 + x + 1)", "x^-1"]}
    # 1/(x^2+x+1) = x^-2 + x^-3 + x^-5 + x^-6 + ...
    good = dict(exact, point=["x^-2 + x^-3 + x^-5", "x^-1"])
    assert checks.truncated_problems(F2, "mink-search", exact, good) == []
    bad = dict(exact, point=["x^-2 + x^-4", "x^-1"])
    assert checks.truncated_problems(F2, "mink-search", exact, bad)
    assert checks.truncated_problems(F2, "mink-search", exact, dict(good, norm_exp=-2))


def test_verify_checker():
    class Res:
        code = 2
        out = json.dumps({"passed": False, "checks": [{"name": "count_vs_oracle",
                                                       "passed": False, "detail": ""}]})
    assert checks.verify_problems("verify", Res())
    Res.code, Res.out = 0, json.dumps({"passed": True, "checks": [{"name": "count_vs_oracle",
                                                                   "passed": True}]})
    assert checks.verify_problems("verify", Res()) == []
    Res.out = ""
    assert checks.verify_problems("verify", Res())

"""Correctness checks on the answers of a run, made after the last pass.

The checks recompute what they can with the benchmark's own arithmetic
(`ownmath`): determinants, unimodularity, norms, the counting formula,
the covering-radius bounds.  On small periodic instances they also ask
fflat's brute-force oracles, which the closed forms must match.  Each
check returns a list of problems; an empty list means the answers hold.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import ownmath as om
import workloads

ORTHO_VECTORS = 6          # random coefficient vectors per reduced basis
ORACLE_MAX_POINTS = 32     # q^n up to which the oracles are asked
ORACLE_BUDGET = 20_000     # enumeration budget passed to the oracles


def _answer(res):
    """The JSON answer a command printed last; raises ValueError when it
    printed none."""
    lines = res.out.strip().splitlines()
    if not lines:
        raise ValueError(f"no answer printed (exit {res.code})")
    return json.loads(lines[-1])


def _field(inst) -> om.Field:
    return om.field_for(inst["q"], inst.get("modulus"))


def _matrix(F, rows):
    """Own (P, s) of a matrix of element strings in the Laurent grammar."""
    return om.laurent_matrix(F, [[om.parse_terms(F, e) for e in row] for row in rows])


def _logdet(F, P, s) -> int:
    return om.deg(om.det(F, P)) - len(P) * s


# --- reduce ----------------------------------------------------------------


def reduced_basis_problems(F, G, H, ans, rng, vectors: int = ORTHO_VECTORS):
    """Check a `reduce` answer against lattice basis G and body H, both as
    (P, s); H None is the unit body.

    - Minkowski equality: sum e_i = log|det g| - log m(C);
    - the reduced basis V is G U with U unimodular: det U a nonzero
      constant and U = G^-1 V polynomial;
    - orthogonality: |sum c_i v_i|_C = max |c_i| q^(e_i) for random
      polynomial coefficient vectors c.
    """
    PG, sG = G
    d = len(PG)
    exps = ans["exps"]
    out = []
    detG = om.det(F, PG)
    logm = 0 if H is None else _logdet(F, *H)
    if len(exps) != d or exps != sorted(exps):
        return [f"minima {exps} are not {d} ascending exponents"]
    if sum(exps) != om.deg(detG) - d * sG - logm:
        out.append(f"Minkowski equality: sum{exps} != log det g - log m(C) = "
                   f"{om.deg(detG) - d * sG - logm}")
    PV, sV = om.laurent_matrix(F, [[om.parse_terms(F, e) for e in row] for row in ans["basis"]])
    detV = om.det(F, PV)
    # det U = det V / det G = x^(d sG - d sV) detPV / detPG
    A, B = om.p_shift(detV, d * sG), om.p_shift(detG, d * sV)
    if not A or len(A) != len(B) or A != om.p_scale(F, B, F.mul[A[-1]][F.inv[B[-1]]]):
        out.append("det U is not a nonzero constant (wrong determinant of the reduced basis)")
        return out
    k = sG - sV
    adjG = om.adjugate(F, PG)
    for i in range(d):
        for j in range(d):
            m = []
            for t in range(d):
                m = om.p_add(F, m, om.p_mul(F, adjG[i][t], PV[t][j]))
            num, den = (om.p_shift(m, k), detG) if k >= 0 else (m, om.p_shift(detG, -k))
            if om.p_divmod(F, num, den)[1]:
                out.append(f"U = G^-1 V is not polynomial at ({i}, {j})")
                return out
    PH, sH = H if H is not None else ([[[1] if i == j else [] for j in range(d)]
                                       for i in range(d)], 0)
    adjH = om.adjugate(F, PH)
    ddeg = om.deg(om.det(F, PH))
    for _ in range(vectors):
        cs = [om.trim([rng.randrange(F.q) for _ in range(rng.randint(0, 3))]) for _ in range(d)]
        if not any(cs):
            cs[0] = [1]
        want = max(om.deg(c) + e for c, e in zip(cs, exps) if c)
        w = om.mat_vec(F, adjH, om.mat_vec(F, PV, cs))
        got = max(om.deg(x) for x in w if x) + sH - sV - ddeg
        if got != want:
            out.append(f"orthogonality: |sum c_i v_i|_C = q^{got}, max |c_i| q^e_i = q^{want}")
            break
    return out


def check_reduce(ops, results, run):
    out = []
    for op, res in zip(ops, results):
        if not op.answered(res):
            continue
        F = _field(op.inst)
        G = om.laurent_matrix(F, op.meta["G"])
        H = om.laurent_matrix(F, op.meta["H"])
        rng = random.Random(op.label)
        out += [f"{op.label}: {p}" for p in reduced_basis_problems(F, G, H, _answer(res), rng)]
    return out


# --- periodic ------------------------------------------------------------


def _qlog(q: int, value: Fraction):
    """k with value == q^k, or None."""
    if value <= 0:
        return None
    k = 0
    while value >= q:
        value /= q
        k += 1
    while value < 1:
        value *= q
        k -= 1
    return k if value == 1 else None


def covrad_bounds(e, N: int):
    """Exponent bounds for the covering radius of any Lambda(alpha, q^N),
    from the lattice minima e (ascending)."""
    d = len(e)
    best = max(Fraction(N + 1 - sum(e[d - i:]), i) for i in range(1, d + 1))
    return -(1 + best), e[-1] - 1


def periodic_problems(F, facts, answers):
    """Check the answers for one periodic instance (unit body).

    facts: e (lattice minima), logdet, n (period size), N (alpha form)
    and witness_norms (sup-norm exponents of the minima witnesses, or
    None).  answers: question -> parsed JSON answer; questions are
    "minima", "density", "mink-search", "covrad", "dinv" and ("count", R).
    """
    q, e, logdet, n = F.q, facts["e"], facts["logdet"], facts["n"]
    d = len(e)
    out = []
    m = answers.get("minima", {}).get("exps")
    if m is not None:
        if len(m) != d or m != sorted(m):
            out.append(f"minima {m} are not {d} ascending exponents")
        elif any(mi > ei for mi, ei in zip(m, e)):
            out.append(f"minima {m} exceed the lattice minima {e}")
        elif sum(m) > logdet - n:
            out.append(f"minima {m}: sum exceeds log det - n = {logdet - n}")
        wn = facts.get("witness_norms")
        if wn is not None and wn != m:
            out.append(f"witness norms {wn} != minima {m}")
    for key, ans in answers.items():
        if isinstance(key, tuple) and key[0] == "count":
            R = key[1]
            lattice_part = sum(max(R + 1 - ei, 0) for ei in e)
            k = _qlog(q, Fraction(ans["count"]))
            if k is None or not lattice_part <= k <= lattice_part + n:
                out.append(f"count radius {R} = {ans['count']}: not q^k with "
                           f"{lattice_part} <= k <= {lattice_part + n}")
            elif R >= e[-1] - 1 and k != lattice_part + n:
                out.append(f"count radius {R} = {ans['count']} != q^{lattice_part + n}")
    if "density" in answers:
        dens = Fraction(answers["density"]["density"])
        k = _qlog(q, dens)
        if k is None or k > 0:
            out.append(f"density {dens} is not a power of q at most 1")
        elif m is not None and k != n + d * m[0] - logdet:
            out.append(f"density {dens} != q^(n + d e_1 - log det) = q^{n + d * m[0] - logdet}")
    mk = answers.get("mink-search")
    if mk is not None:
        if mk["threshold_exp"] != logdet - n - d:
            out.append(f"mink-search threshold q^{mk['threshold_exp']} != q^{logdet - n - d}")
        if not 0 <= mk["classes_log"] <= n or mk["measure_exp"] != mk["classes_log"]:
            out.append(f"mink-search measure q^{mk['measure_exp']} with "
                       f"q^{mk['classes_log']} classes out of q^{n}")
        applies = mk["measure_exp"] > mk["threshold_exp"]
        if mk["status"] not in (("point", "no_point") if applies else ("inapplicable",)):
            out.append(f"mink-search status {mk['status']} with measure "
                       f"q^{mk['measure_exp']}, threshold q^{mk['threshold_exp']}")
        if mk["status"] == "point":
            norm = om.sup_norm(F, mk["point"])
            if norm is None or norm > 0 or norm != mk["norm_exp"]:
                out.append(f"mink-search point has norm {norm}, reported {mk['norm_exp']}")
        if m is not None and mk["status"] in ("point", "no_point") and \
                (mk["status"] == "point") != (m[0] <= 0):
            out.append(f"mink-search says {mk['status']} but the first minimum is q^{m[0]}")
    if "covrad" in answers:
        c = answers["covrad"]["exp"]
        lo, hi = covrad_bounds(e, facts["N"])
        if not lo <= c <= hi:
            out.append(f"covrad q^{c} outside the bounds [{lo}, {hi}]")
    if "dinv" in answers:
        # a k x k minor of fractional parts, each of norm at most q^-1,
        # has norm at most q^-k
        if answers["dinv"]["exp"] > -1:
            out.append(f"dinv q^{answers['dinv']['exp']} is not below 1")
    return out


def _question(op):
    args = op.argv[:op.argv.index("--format")]
    return (args[0], int(args[2])) if args[0] == "count" else args[0]


def _by_instance(ops, results):
    groups = {}
    for op, res in zip(ops, results):
        groups.setdefault(op.argv[-1], []).append((op, res))
    return groups


def _library_periodic(inst):
    """The instance as a PeriodicLattice, through fflat's public API."""
    import fflat
    own = om.field_for(inst["q"])
    F = fflat.GF(own.p, own.k, tuple(inst["modulus"]) if "modulus" in inst else None)
    lat = fflat.Lattice(F, inst["basis"])
    if "alpha" in inst:
        return fflat.make_alpha_lattice(lat, inst["alpha"], inst["N"])
    return fflat.make_coset_lattice(lat, inst["reps"])


def oracle_problems(S, answers):
    """Compare closed-form answers with fflat's brute-force oracles; a
    comparison whose enumeration exceeds ORACLE_BUDGET is skipped."""
    from fflat.errors import BudgetExceeded
    from fflat.oracle import covrad_oracle, enumerate_points, succmin_oracle

    def oracle(fn, *args, **kw):
        try:
            return fn(S, *args, budget=ORACLE_BUDGET, **kw)
        except BudgetExceeded:
            return None

    out = []
    if "minima" in answers:
        got = oracle(succmin_oracle)
        if got is not None and got != answers["minima"]["exps"]:
            out.append(f"minima {answers['minima']['exps']}, oracle {got}")
    for key, ans in answers.items():
        if isinstance(key, tuple):
            pts = oracle(enumerate_points, key[1], coords_only=True)
            if pts is not None and len(pts) != ans["count"]:
                out.append(f"count radius {key[1]} = {ans['count']}, oracle {len(pts)}")
    if "covrad" in answers:
        got = oracle(covrad_oracle)
        if got is not None and got.exp != answers["covrad"]["exp"]:
            out.append(f"covrad q^{answers['covrad']['exp']}, oracle q^{got.exp}")
    return out


def check_periodic(ops, results, run):
    from fflat import succ_minima_periodic
    out = []
    for path, group in _by_instance(ops, results).items():
        op0 = group[0][0]
        inst = op0.inst
        F = _field(inst)
        G = _matrix(F, inst["basis"])
        plain = run(["reduce", "--format", "json", op0.meta["plain"]])
        if plain.code != 0:
            out.append(f"{op0.klass}: reduce on the lattice alone failed: {plain.err.strip()}")
            continue
        lat_ans = _answer(plain)
        probs = reduced_basis_problems(F, G, None, lat_ans, random.Random(path), vectors=2)
        n = inst["N"] + 1 if "alpha" in inst else len(inst["reps"])
        facts = {"e": lat_ans["exps"], "logdet": _logdet(F, *G), "n": n, "N": inst.get("N")}
        answers = {_question(op): _answer(res) for op, res in group if op.answered(res)}
        S = _library_periodic(inst)
        if "minima" in answers:
            _m, wits = succ_minima_periodic(S)
            facts["witness_norms"] = [om.sup_norm(F, [str(c) for c in w]) for w in wits]
        probs += periodic_problems(F, facts, answers)
        if F.q ** n <= ORACLE_MAX_POINTS:
            probs += oracle_problems(S, answers)
        out += [f"{op0.klass}: {p}" for p in probs]
    return out


# --- truncated -----------------------------------------------------------


def truncated_problems(F, command: str, exact: dict, trunc: dict):
    """A truncated instance must give its exact twin's answer.  A point
    printed from truncated data is a truncated series: its terms must be
    the exact point's expansion down to its lowest printed exponent."""
    if command != "mink-search" or "point" not in exact or "point" not in trunc:
        return [] if exact == trunc else [f"{command}: {trunc} != exact {exact}"]
    rest = [k for k in set(exact) | set(trunc) if k != "point"]
    if any(exact.get(k) != trunc.get(k) for k in rest):
        return [f"{command}: {trunc} != exact {exact}"]
    for es, ts in zip(exact["point"], trunc["point"]):
        terms = om.parse_terms(F, ts)
        if terms and om.expand(F, *om.parse_element(F, es), min(terms)) != terms:
            return [f"{command}: point coordinate {ts} is not the expansion of {es}"]
    return []


def check_truncated(ops, results, run):
    out = []
    for op, res in zip(ops, results):
        if not op.answered(res):
            continue
        twin_argv = op.argv[:-1] + [op.twin]
        exact = run(twin_argv)
        if not op.answered(exact):
            out.append(f"{op.label}: exact twin failed: {exact.err.strip()}")
            continue
        F = _field(op.inst)
        out += [f"{op.label}: {p}" for p in
                truncated_problems(F, op.command, _answer(exact), _answer(res))]
    return out


# --- verify --------------------------------------------------------------


def verify_problems(label, res):
    """verify must exit 0 with every check passed."""
    try:
        ans = _answer(res)
    except ValueError as e:
        return [f"{label}: {e}"]
    bad = [c["name"] for c in ans["checks"] if not c["passed"]]
    if res.code != 0 or not ans["passed"] or bad:
        return [f"{label}: exit {res.code}, checks not passed: {bad}"]
    return []


def check_verify(ops, results, run):
    out = []
    for op, res in zip(ops, results):
        if op.answered(res):
            out += verify_problems(op.label, res)
    return out + verify_problems("verify pinned run", run(workloads.VERIFY_PINNED))


CHECKS = {
    "reduce": check_reduce,
    "periodic": check_periodic,
    "truncated": check_truncated,
    "verify": check_verify,
}


def check(workload, ops, results, run):
    """Problems with the answers of ops; run(argv) runs one more fflat
    command untimed and returns its result."""
    return CHECKS[workload](ops, results, run)

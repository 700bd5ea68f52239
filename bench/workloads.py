"""The four workloads: seeded instance files and fixed operation lists.

Every operation is one `fflat` command a user would run on one instance
file.  The list for a workload and seed is fixed before anything is
timed, so each pass of a run repeats exactly the same operations.
Instances are generated with the benchmark's own arithmetic
(`ownmath`), never with fflat's random generators, so a change inside
fflat cannot change what is measured.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import ownmath as om

WORKLOADS = ("reduce", "periodic", "truncated", "verify")

# explicit moduli for the extension fields; fflat is also asked to check
# their irreducibility
MODULUS = {4: [1, 1, 1], 9: [2, 2, 1]}

# (q, d): instances.  No single operation takes more than about 0.2 s,
# so that one run repeats each of them some 30 times.  The median
# operation (solve_ms_p50) is a d = 4 one; with three of them per q
# and as many operations below that cluster as above it, the median
# falls inside the cluster rather than on the gap at its edge, where
# it moved by a tenth from seed to seed
REDUCE_CLASSES = {(2, 2): 2, (2, 3): 2, (2, 4): 3, (2, 5): 2, (2, 6): 2,
                  (3, 2): 2, (3, 3): 2, (3, 4): 3, (3, 5): 2,
                  (4, 2): 2, (4, 3): 2, (9, 2): 2, (9, 3): 2}

# (q, d, sizes): N for the alpha form, period n for the coset form;
# the alpha ladders end at q^(N+1) = 2^8 and 3^5 points, the coset ones
# at q^n = 2^6 (2^7 truncated) and 3^4: one instance at n = 8 made a
# periodic pass 40 % longer
PERIODIC_ALPHA = ((2, 2, (1, 4, 7)), (2, 3, (0, 3, 5)), (3, 2, (0, 2, 4)), (3, 3, (0, 2)))
PERIODIC_COSET = ((2, 2, (2, 4, 6)), (2, 3, (3, 6)), (3, 2, (2, 4)), (3, 3, (2, 3)))
TRUNC_ALPHA = ((2, 2, (1, 4, 8)), (2, 3, (1, 3, 5)), (3, 2, (0, 2, 4)), (3, 3, (0, 2)))
TRUNC_COSET = ((2, 2, (3, 6)), (2, 3, (4, 7)), (3, 2, (2, 4)), (3, 3, (3,)))
TRUNC_FLOORS = (-20, -40)

# `dinv` is a brute force over subsets of the q^(N+1) polynomials of
# degree <= N, capped by fflat at d <= 3 and N <= 2; it is asked of the
# exact alpha-form instances with q^(d(N+1)) up to this size (at 3^6
# one call takes about 0.2 s)
DINV_MAX_POINTS = 3 ** 3

# radii for `count --radius`; lattice entries have degrees in [-1, 1],
# so 2 lies at or above e_d - 1 and 0 usually below it
COUNT_RADII = (0, 2)

# slices q=2;d=2 of the default verify grid at seeds drawn from the
# workload seed: they cost nearly the same at every seed, where the q=3
# and d=3 slices vary threefold between seeds.  The README's pinned run
# (default grid, seed 7) is one 3 s command, too long to time steadily
# here; the checks run it once per run instead.
VERIFY_SLICE = "q=2;d=2;N=0,1,2"
VERIFY_SLICES = 6
VERIFY_PINNED = ["verify", "--grid", "q=2,3;d=2,3;N=0,1,2", "--seed", "7", "--format", "json"]

# named faults, kept as operations that fail on every run (see README)
MIXED_BACKEND = {
    "q": 2, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
    "alpha": [{"floor": -3, "top": -1, "coeffs": [1, 0, 1], "exact": True}, "1/(x+1)"],
}
MIXED_BACKEND_TWIN = dict(MIXED_BACKEND, alpha=["x^-1 + x^-3", "1/(x+1)"])
MIXED_FAILING = ("minima", "density", "packrad", "mink-search", "dinv")
UNDECIDED_RANK = {
    "q": 3, "d": 2, "basis": [["1", "0"], ["0", "1"]], "N": 1,
    "alpha": ["1/(x^2+1)", "x/(x^2+x+2)"],
}
UNDECIDED_FLOORS = (-20, -60, -150)
UNDECIDED_FAILING = ("minima", "density")


@dataclass
class Op:
    """One fflat command.  `argv` goes to fflat.cli.main unchanged."""

    label: str
    klass: str
    argv: list
    inst: dict = None
    twin: str = None
    timed: bool = True
    meta: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    def answered(self, res) -> bool:
        """Did the command give an answer?  Exit 2 is an answer from
        mink-search ("no_point", a certified gap) and from verify (a
        failed check, which the checkers then report)."""
        return res.code in ((0, 2) if self.command in ("mink-search", "verify") else (0,))


class Writer:
    """Instance files for one directory, numbered in order; `write`
    names a file, `save` writes them all."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files = {}

    def write(self, inst: dict, tag: str) -> str:
        path = os.path.join(self.workdir, f"{len(self.files) + 1:03d}-{tag}.json")
        self.files[path] = json.dumps(inst)
        return path

    def save(self):
        os.makedirs(self.workdir, exist_ok=True)
        for path, text in self.files.items():
            with open(path, "w") as fh:
                fh.write(text)


def _field(q: int) -> om.Field:
    return om.field_for(q, MODULUS.get(q))


def random_matrix(rng, F, d: int, lo: int, hi: int, density: float = 0.5):
    """Nonsingular d x d matrix of Laurent polynomials with exponents in
    [lo, hi], as {exponent: coeff} entries."""
    while True:
        ents = [[{e: rng.randrange(1, F.q) for e in range(lo, hi + 1) if rng.random() < density}
                 for _ in range(d)] for _ in range(d)]
        if om.nonsingular(F, om.laurent_matrix(F, ents)[0]):
            return ents


def _strings(F, ents):
    return [[om.format_laurent(F, e) for e in row] for row in ents]


def _lattice_inst(F, q, ents, body=None):
    inst = {"q": q, "d": len(ents), "basis": _strings(F, ents)}
    if q in MODULUS:
        inst["modulus"] = MODULUS[q]
    if body is not None:
        inst["body"] = _strings(F, body)
    return inst


def _poly_str(F, coeffs) -> str:
    return om.format_laurent(F, {e: c for e, c in enumerate(coeffs) if c})


def random_alpha(rng, F, N: int, monomial: bool):
    """A coordinate num/den in lowest terms with deg num < deg den and
    deg den in {N+1, N+2}, so every alpha built from them is N-irrational."""
    while True:
        k = rng.randint(N + 1, N + 2)
        if monomial:
            den = [0] * k + [1]
        else:
            den = [rng.randrange(F.q) for _ in range(k)] + [1]
        num = om.trim([rng.randrange(F.q) for _ in range(k)])
        if num and om.deg(om.p_gcd(F, num, den)) == 0:
            if monomial:
                return om.format_laurent(F, {e - k: c for e, c in enumerate(num) if c})
            return f"({_poly_str(F, num)}) / ({_poly_str(F, den)})"


def random_reps(rng, F, d: int, n: int):
    """n F_q-independent coset representatives with tails of depth K."""
    K = -(-n // d) + 1
    while True:
        vecs = [[rng.randrange(F.q) for _ in range(d * K)] for _ in range(n)]
        if om.rank_fq(F, vecs) == n:
            return [[om.format_laurent(F, {-(j + 1): v[i * K + j] for j in range(K)})
                     for i in range(d)] for v in vecs]


def _periodic_instances(rng, alpha_ladder, coset_ladder, monomial_share: float):
    """(kind, q, d, size, instance) for both ladders, in ladder order."""
    out = []
    for q, d, sizes in alpha_ladder:
        F = _field(q)
        for N in sizes:
            inst = _lattice_inst(F, q, random_matrix(rng, F, d, -1, 1, 0.6))
            inst["N"] = N
            inst["alpha"] = [random_alpha(rng, F, N, rng.random() < monomial_share)
                             for _ in range(d)]
            out.append(("alpha", q, d, N, inst))
    for q, d, sizes in coset_ladder:
        F = _field(q)
        for n in sizes:
            inst = _lattice_inst(F, q, random_matrix(rng, F, d, -1, 1, 0.6))
            inst["reps"] = random_reps(rng, F, d, n)
            out.append(("reps", q, d, n, inst))
    return out


def _questions(kind: str, dinv: bool = False):
    qs = [["minima"], *(["count", "--radius", str(R)] for R in COUNT_RADII),
          ["density"], ["mink-search"]]
    if kind == "alpha":
        qs.append(["covrad"])
    if dinv:
        qs.append(["dinv"])
    return qs


def _op(label, klass, args, path, **kw) -> Op:
    return Op(label, klass, [*args, "--format", "json", path], **kw)


def build_reduce(rng, w: Writer):
    ops = []
    for (q, d), per in REDUCE_CLASSES.items():
        F = _field(q)
        for i in range(per):
            G = random_matrix(rng, F, d, -3, 3)
            H = random_matrix(rng, F, d, -3, 3)
            inst = _lattice_inst(F, q, G, H)
            klass = f"q={q} d={d}"
            path = w.write(inst, f"reduce-q{q}-d{d}")
            ops.append(_op(f"reduce {klass} #{i}", klass, ["reduce"], path, inst=inst,
                           meta={"G": G, "H": H}))
    return ops


def _plain(inst):
    return {k: v for k, v in inst.items() if k in ("q", "d", "basis", "modulus")}


def build_periodic(rng, w: Writer):
    ops = []
    for kind, q, d, size, inst in _periodic_instances(
            rng, PERIODIC_ALPHA, PERIODIC_COSET, monomial_share=0.75):
        klass = f"{kind} q={q} d={d} {'N' if kind == 'alpha' else 'n'}={size}"
        path = w.write(inst, f"periodic-{kind}")
        plain = w.write(_plain(inst), "plain")
        dinv = (kind == "alpha" and d <= 3 and size <= 2
                and q ** (d * (size + 1)) <= DINV_MAX_POINTS)
        for args in _questions(kind, dinv):
            ops.append(_op(f"{' '.join(args)} {klass}", klass, args, path,
                           inst=inst, meta={"plain": plain}))
    return ops


def build_truncated(rng, w: Writer):
    ops = []
    inst_list = _periodic_instances(rng, TRUNC_ALPHA, TRUNC_COSET, monomial_share=0.0)
    for j, (kind, q, d, size, exact) in enumerate(inst_list):
        floor = TRUNC_FLOORS[j % len(TRUNC_FLOORS)]
        klass = f"{kind} q={q} d={d} {'N' if kind == 'alpha' else 'n'}={size}"
        twin = w.write(exact, f"exact-{kind}")
        inst = dict(exact, precision=floor)
        path = w.write(inst, f"trunc-{kind}")
        # minima and density are left out here: on truncated input they
        # fail on some seeds and not on others (see the fixed instances)
        for args in _questions(kind):
            if args[0] in ("minima", "density"):
                continue
            ops.append(_op(f"{' '.join(args)} {klass} floor={floor}", klass, args, path,
                           inst=inst, twin=twin))
    twin = w.write(MIXED_BACKEND_TWIN, "mixed-twin")
    path = w.write(MIXED_BACKEND, "mixed")
    for args in (["covrad"], ["count", "--radius", "1"], *([c] for c in MIXED_FAILING)):
        ops.append(_op(f"{args[0]} mixed-backend", "mixed-backend", args, path,
                       inst=MIXED_BACKEND, twin=twin, timed=args[0] not in MIXED_FAILING))
    twin = w.write(UNDECIDED_RANK, "undecided-twin")
    for floor in UNDECIDED_FLOORS:
        inst = dict(UNDECIDED_RANK, precision=floor)
        path = w.write(inst, "undecided")
        for args in (["covrad"], ["count", "--radius", "1"], ["mink-search"],
                     *([c] for c in UNDECIDED_FAILING)):
            ops.append(_op(f"{args[0]} undecided-rank floor={floor}", "undecided-rank", args,
                           path, inst=inst, twin=twin,
                           timed=args[0] not in UNDECIDED_FAILING))
    return ops


def build_verify(rng, w: Writer):
    ops = []
    for _ in range(VERIFY_SLICES):
        s = rng.randrange(10 ** 6)
        ops.append(Op(f"verify {VERIFY_SLICE} seed={s}", "slice",
                      ["verify", "--grid", VERIFY_SLICE, "--seed", str(s), "--format", "json"]))
    return ops


BUILDERS = {
    "reduce": build_reduce,
    "periodic": build_periodic,
    "truncated": build_truncated,
    "verify": build_verify,
}


def build(workload: str, seed: int, workdir: str):
    """The workload's operations and the Writer of its instance files,
    which are written by Writer.save()."""
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(workdir)
    return BUILDERS[workload](rng, w), w

"""Command line front end.

Instance files are JSON with the fields documented in the README:
q (+ modulus for prime powers), d, basis (columns are basis vectors),
and optionally alpha+frame+N, or reps, plus body and precision.
Everything is exact; norms print as powers of q and densities as
reduced fractions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

# imported at load time: tracing rebinds the oracle names only in the
# fflat modules already loaded when it starts
from .battery import parse_grid, run_battery
from .errors import (
    FFLatError,
    InsufficientPrecision,
    ParseError,
    PrecisionTooCoarse,
    SingularInput,
)
from .ffcore import (
    LaurentSeries,
    QExp,
    check_magnitude,
    element,
    expand_rational,
    field_of_order,
    format_rat,
    format_series,
    series_from_json,
)
from .lattice import ConvexBody, Lattice, reduce_lattice
from .oracle import covrad_oracle
from .periodic import (
    count_points,
    covrad_bounds,
    covrad_periodic,
    d_invariant,
    from_lattice,
    make_alpha_lattice,
    make_coset_lattice,
    minkowski_search,
    packing_density,
    packing_radius,
    succ_minima_periodic,
)

_INSTANCE_KEYS = {
    "q", "modulus", "d", "basis", "alpha", "frame", "N", "body", "reps",
    "precision",
}


class Instance:
    __slots__ = ("field", "lattice", "body", "periodic", "kind", "N")

    def __init__(self, field, lattice, body, periodic, kind, N):
        self.field = field
        self.lattice = lattice
        self.body = body
        self.periodic = periodic
        self.kind = kind
        self.N = N

    def body_or_unit(self) -> ConvexBody:
        if self.body is not None:
            return self.body
        return ConvexBody.identity(self.field, self.lattice.d)


def _parse_entry(field, obj, where: str):
    try:
        if isinstance(obj, dict):
            return series_from_json(field, obj)
        return element(field, obj)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None


def _parse_matrix(field, obj, d: int, name: str):
    if not isinstance(obj, list) or len(obj) != d:
        raise ParseError(f"{name}: expected a {d}x{d} matrix")
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{name}[{i}]: expected {d} entries")
        out.append([
            _parse_entry(field, cell, f"{name}[{i}][{j}]")
            for j, cell in enumerate(row)
        ])
    return out


def _apply_precision(field, value, floor: int):
    if isinstance(value, LaurentSeries):
        return value
    return expand_rational(value, floor).truncated(floor)


def load_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: instance file must be a JSON object")
    unknown = set(raw) - _INSTANCE_KEYS
    if unknown:
        raise ParseError(f"unknown field {sorted(unknown)[0]!r}")
    if "q" not in raw or not isinstance(raw["q"], int):
        raise ParseError("q: required integer")
    modulus = raw.get("modulus")
    if modulus is not None and not isinstance(modulus, list):
        raise ParseError("modulus: expected a coefficient list")
    if modulus and not all(isinstance(c, int) and not isinstance(c, bool) for c in modulus):
        raise ParseError("modulus: coefficients must be integers")
    field = field_of_order(raw["q"], tuple(modulus) if modulus else None)
    if "d" not in raw or not isinstance(raw["d"], int):
        raise ParseError("d: required integer")
    d = raw["d"]
    if "basis" not in raw:
        raise ParseError("basis: required")
    basis = _parse_matrix(field, raw["basis"], d, "basis")
    try:
        lattice = Lattice(field, basis)
    except (SingularInput, ValueError) as e:
        raise ParseError(f"basis: {e}") from None
    body = None
    if raw.get("body") is not None:
        bm = _parse_matrix(field, raw["body"], d, "body")
        try:
            body = ConvexBody(field, bm)
        except (SingularInput, ValueError) as e:
            raise ParseError(f"body: {e}") from None
    has_alpha = raw.get("alpha") is not None
    has_reps = raw.get("reps") is not None
    if has_alpha and has_reps:
        raise ParseError("alpha: mutually exclusive with reps")
    precision = raw.get("precision")
    if precision is not None and (not isinstance(precision, int) or precision > -1):
        raise ParseError("precision: expected an integer floor <= -1")
    if precision is not None:
        check_magnitude(precision, "precision")
    if has_alpha:
        al = raw["alpha"]
        if not isinstance(al, list) or len(al) != d:
            raise ParseError(f"alpha: expected {d} coordinates")
        alpha = [
            _parse_entry(field, a, f"alpha[{i}]") for i, a in enumerate(al)
        ]
        frame = raw.get("frame", "reduced")
        if frame not in ("ambient", "reduced"):
            raise ParseError("frame: must be 'ambient' or 'reduced'")
        if "N" not in raw or not isinstance(raw["N"], int) or raw["N"] < 0:
            raise ParseError("N: required nonnegative integer with alpha")
        N = raw["N"]
        if precision is not None:
            alpha = [_apply_precision(field, a, precision) for a in alpha]
        periodic = make_alpha_lattice(lattice, alpha, N, frame=frame)
        return Instance(field, lattice, body, periodic, "alpha", N)
    if raw.get("frame") is not None:
        raise ParseError("frame: only valid with alpha")
    if raw.get("N") is not None:
        raise ParseError("N: only valid with alpha")
    if has_reps:
        rl = raw["reps"]
        if not isinstance(rl, list):
            raise ParseError("reps: expected a list of coordinate vectors")
        reps = []
        for i, rep in enumerate(rl):
            if not isinstance(rep, list) or len(rep) != d:
                raise ParseError(f"reps[{i}]: expected {d} coordinates")
            coords = [
                _parse_entry(field, c, f"reps[{i}][{j}]")
                for j, c in enumerate(rep)
            ]
            if precision is not None:
                coords = [_apply_precision(field, c, precision) for c in coords]
            reps.append(coords)
        try:
            periodic = make_coset_lattice(lattice, reps)
        except ValueError as e:
            raise ParseError(f"reps: {e}") from None
        return Instance(field, lattice, body, periodic, "reps", None)
    return Instance(field, lattice, body, from_lattice(lattice), "plain", None)


# --- output helpers ---------------------------------------------------------


def _fmt_qexp(v: QExp) -> str:
    if v.is_zero:
        return "0"
    return f"q^{v.exp}"


@contextlib.contextmanager
def _exact_int_output():
    """Lift Python's limit on the digits of an int printed in decimal
    (absent before 3.10.7) while a command runs: an exact count or
    density may have more than 4300 digits."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _vector_strings(vec) -> list:
    return [
        format_series(v) if isinstance(v, LaurentSeries) else format_rat(v)
        for v in vec
    ]


# --- command handlers -------------------------------------------------------


def _cmd_reduce(inst: Instance, args) -> int:
    rb = reduce_lattice(inst.lattice, inst.body_or_unit())
    mat = [[format_rat(r) for r in row] for row in rb.ambient_basis()]
    lines = ["minima: " + " ".join(f"q^{e}" for e in rb.exps), "basis:"]
    for row in mat:
        lines.append("  " + "  ".join(row))
    _emit(args, lines, {"exps": rb.exps, "basis": mat})
    return 0


def _cmd_minima(inst: Instance, args) -> int:
    exps, _w = succ_minima_periodic(inst.periodic, inst.body_or_unit())
    _emit(args, [" ".join(f"q^{e}" for e in exps)], {"exps": exps})
    return 0


def _cmd_covrad(inst: Instance, args) -> int:
    C = inst.body_or_unit()
    S = inst.periodic
    val = covrad_periodic(S, C)
    lines = [_fmt_qexp(val)]
    obj = {"exp": val.exp}
    code = 0
    if args.oracle:
        oval = covrad_oracle(S, C)
        lines.append(f"oracle: {_fmt_qexp(oval)}")
        obj["oracle"] = {"exp": oval.exp}
        if oval != val:
            lines.append("MISMATCH")
            obj["mismatch"] = True
            code = 2
    if args.bounds:
        if inst.kind == "alpha":
            N = inst.N
        elif inst.kind == "plain":
            N = 0
        else:
            raise ParseError("--bounds requires an alpha or plain instance")
        lo, hi = covrad_bounds(inst.lattice, N, C)
        lines.append(f"bounds: {lo} <= {val.exp} <= {hi.exp}")
        obj["bounds"] = {"lower": str(lo), "upper": hi.exp}
        if not (lo <= Fraction(val.exp) and val <= hi):
            lines.append("BOUNDS VIOLATED")
            obj["bounds_violated"] = True
            code = 2
    _emit(args, lines, obj)
    return code


def _cmd_packrad(inst: Instance, args) -> int:
    val = packing_radius(inst.periodic, inst.body_or_unit())
    _emit(args, [_fmt_qexp(val)], {"exp": val.exp})
    return 0


def _cmd_density(inst: Instance, args) -> int:
    val = packing_density(inst.periodic, inst.body_or_unit())
    _emit(args, [str(val)], {"density": str(val)})
    return 0


def _cmd_count(inst: Instance, args) -> int:
    if args.radius is not None:
        n = count_points(inst.periodic, radius=check_magnitude(args.radius, "--radius"))
    else:
        n = count_points(inst.periodic, inst.body_or_unit())
    _emit(args, [str(n)], {"count": n})
    return 0


def _cmd_dinv(inst: Instance, args) -> int:
    if inst.kind != "alpha":
        raise ParseError("dinv requires an alpha instance")
    val = d_invariant(inst.periodic, inst.body_or_unit())
    _emit(args, [_fmt_qexp(val)], {"exp": val.exp})
    return 0


def _cmd_mink_search(inst: Instance, args) -> int:
    rep = minkowski_search(inst.periodic, inst.body_or_unit())
    lines = [
        f"status: {rep.status}",
        f"measure: q^{rep.measure_exp}",
        f"threshold: q^{rep.threshold_exp}",
    ]
    obj = rep.as_dict()
    if rep.point is not None:
        pt = _vector_strings(rep.point)
        lines.append("point: " + "  ".join(pt))
        lines.append(f"norm: {_fmt_qexp(rep.point_norm)}")
        obj["point"] = pt
        obj["norm_exp"] = rep.point_norm.exp
    _emit(args, lines, obj)
    return 2 if rep.status == "no_point" else 0


def _cmd_verify(args) -> int:
    grid = parse_grid(args.grid or "")
    results = run_battery(grid, args.seed)
    width = max(len(name) for name, _p, _d in results)
    ok = True
    lines = []
    for name, passed, detail in results:
        mark = "pass" if passed else "FAIL"
        lines.append(f"{name.ljust(width)}  {mark}  {detail}")
        ok = ok and passed
    obj = {
        "seed": args.seed,
        "grid": grid,
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in results
        ],
        "passed": ok,
    }
    _emit(args, lines, obj)
    return 0 if ok else 2


# --- entry point -------------------------------------------------------------


@functools.cache
def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    top = argparse.ArgumentParser(
        prog="fflat",
        description="Exact geometry of lattices over F_q((1/x)).",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("reduce", "reduced basis and minima of the lattice"),
        ("minima", "successive minima of the instance point set"),
        ("packrad", "packing radius"),
        ("density", "packing density"),
        ("dinv", "approximation determinant invariant"),
        ("mink-search", "convex body theorem search"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("file", help="instance file (JSON)")
    p = sub.add_parser("covrad", parents=[common], help="covering radius")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true", help="cross-check with the oracle")
    p.add_argument("--bounds", action="store_true", help="print corollary bounds")
    p = sub.add_parser("count", parents=[common], help="points in a body or ball")
    p.add_argument("file")
    p.add_argument("--radius", type=int, default=None, help="sup-norm ball exponent")
    p = sub.add_parser("verify", parents=[common], help="randomized verification battery")
    p.add_argument("--grid", default="", help="axes like q=2,3;d=2,3;N=0,1,2")
    p.add_argument("--seed", type=int, default=7)
    return top


_HANDLERS = {
    "reduce": _cmd_reduce,
    "minima": _cmd_minima,
    "covrad": _cmd_covrad,
    "packrad": _cmd_packrad,
    "density": _cmd_density,
    "count": _cmd_count,
    "dinv": _cmd_dinv,
    "mink-search": _cmd_mink_search,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        inst = load_instance(args.file)
        with _exact_int_output():
            return _HANDLERS[args.command](inst, args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (InsufficientPrecision, PrecisionTooCoarse) as e:
        floor = getattr(e, "needed_floor", None)
        hint = "" if floor is None else f" (needs precision <= {floor})"
        print(f"error: {e}{hint}", file=sys.stderr)
        return 3
    except FFLatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

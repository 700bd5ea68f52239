"""Per-layer tracing from outside the program.

Wrappers are installed around the public functions and methods of each
fflat module, in every module namespace that binds them (the modules
import names directly, `from .lattice import reduce_lattice`) and on
the class for methods.  Each wrapper records a span: its inclusive
time, and its self time, which is the inclusive time minus the time of
the wrapped spans called inside it.  ffcore gets call counters only,
because a timing wrapper costs more than the arithmetic call it wraps;
ffcore time shows up in the self time of the layer that calls it.

Spans are aggregated per pass in memory; the raw spans of one pass are
kept too and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from time import perf_counter

SPAN_LAYERS = ("exactlinalg", "lattice", "periodic", "hankel", "oracle", "cli")

# ffcore counter -> (class or None for a module function, attribute names)
FFCORE_COUNTERS = {
    "gf_mul": ("GF", ("mul",)),
    "gf_add": ("GF", ("add", "sub", "neg")),
    "gf_inv": ("GF", ("inv",)),
    "poly_mul": ("Poly", ("__mul__",)),
    "poly_divmod": ("Poly", ("__divmod__",)),
    "series_mul": ("LaurentSeries", ("__mul__",)),
    "series_add": ("LaurentSeries", ("__add__",)),
    "expand_rational": (None, ("expand_rational",)),
    "parse_element": (None, ("parse_element",)),
}

# span key -> statistics reported for it; `calls` and `ms` count the
# outermost call when a function recurses (det_series does)
SPAN_STATS = {
    "exactlinalg.det_poly": ("calls", "ms"),
    "exactlinalg.adjugate_poly": ("calls", "ms"),
    "exactlinalg.popov_reduce": ("calls", "ms"),
    "exactlinalg.kernel_vector_fq": ("calls",),
    "exactlinalg.rank_fq": ("calls", "ms", "rows"),
    "exactlinalg.rank_rational": ("calls", "ms"),
    "exactlinalg.det_rat": ("calls", "ms"),
    "exactlinalg.det_series": ("calls", "ms"),
    "lattice.reduce_lattice": ("calls", "ms", "cache_hits"),
    "lattice.norm_in_body": ("calls", "ms"),
    "periodic.fractional_points": ("calls", "ms", "points", "cache_hits"),
    "periodic.succ_minima_periodic": ("calls", "ms"),
    "periodic.count_points": ("calls", "ms"),
    "periodic.minkowski_search": ("calls", "ms"),
    "periodic.d_invariant": ("calls", "ms"),
    "periodic.make_alpha_lattice": ("calls", "ms"),
    "periodic.make_coset_lattice": ("calls", "ms"),
    "hankel.covrad_periodic": ("calls", "ms"),
    "hankel.rank_condition": ("calls",),
    "oracle.enumerate_points": ("calls", "ms", "points"),
    "oracle.succmin_oracle": ("calls", "ms"),
    "oracle.covrad_oracle": ("calls", "ms"),
    "oracle.density_oracle": ("calls", "ms"),
    "cli.load_instance": ("calls", "ms"),
}
CONSTRUCT = ("lattice.Lattice.__init__", "lattice.ConvexBody.__init__")

COUNT_UNITS = {"calls", "rows", "points", "cache_hits"}


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"ffcore.{c}.calls", "count", "lower") for c in FFCORE_COUNTERS]
    for layer in SPAN_LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
        if layer == "lattice":
            out.append(("lattice.construct.ms", "ms", "lower"))
        for key, stats in SPAN_STATS.items():
            if key.startswith(layer + "."):
                for s in stats:
                    unit = "count" if s in COUNT_UNITS else "ms"
                    better = "higher" if s == "cache_hits" else "lower"
                    out.append((f"{key}.{s}", unit, better))
    out.append(("traced_batch_s", "s", "lower"))
    return out


def _cache_len(args, attr):
    cache = getattr(args[0], attr, None) if args else None
    return None if cache is None else len(cache)


def _cache_hit(attr):
    """A cached call hit when the cache on its first argument did not
    grow.  Reads a private attribute; without it no hit is counted."""
    return (lambda a: _cache_len(a, attr),
            lambda a, before, r: int(before is not None and _cache_len(a, attr) == before))


def _size(fn):
    return (lambda a: None, lambda a, before, r: fn(a, r))


# span key -> {extra stat: (before(args), after(args, before, result) -> int)}
EXTRAS = {
    "exactlinalg.rank_fq": {"rows": _size(lambda a, r: len(a[1]))},
    "oracle.enumerate_points": {"points": _size(lambda a, r: len(r))},
    "periodic.fractional_points": {"points": _size(lambda a, r: len(r)),
                                   "cache_hits": _cache_hit("_points_cache")},
    "lattice.reduce_lattice": {"cache_hits": _cache_hit("_reductions")},
}

RAW_SPAN_CAP = 200_000


def _guard(fn, *args):
    """An extra statistic must never change what the program does: one
    that no longer fits the function's signature or result is skipped."""
    try:
        return fn(*args)
    except (IndexError, TypeError, AttributeError):
        return None


class PassStats:
    def __init__(self):
        self.spans = {}        # key -> [calls, inclusive s, self s, {extra: n}]
        self.layer_self = {layer: 0.0 for layer in SPAN_LAYERS}
        self.counters = {c: 0 for c in FFCORE_COUNTERS}


class Tracer:
    """Installs and removes the wrappers; collects one PassStats per pass."""

    def __init__(self):
        self.modules = [sys.modules[n] for n in sorted(sys.modules)
                        if n == "fflat" or n.startswith("fflat.")]
        self.passes = []
        self.cur = None
        self._stack = []       # child-time accumulators of the open spans
        self._depth = {}       # key -> open calls, for outermost-only stats
        self._restore = []
        self.raw = []          # raw spans of the recording pass
        self._recording = False
        self._raw_open = []
        self._op_index = 0
        self.raw_names = []
        self.raw_dropped = 0

    # -- installing --

    def _rebind(self, original, wrapper):
        """Replace `original` in every fflat module namespace binding it."""
        for mod in self.modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, name, val))
                    setattr(mod, name, wrapper)

    def _patch_class(self, cls, name, wrapper_of):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(wrapper_of(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrapper_of(raw.__func__))
        else:
            new = wrapper_of(raw)
        self._restore.append((cls, name, raw))
        setattr(cls, name, new)

    def install_spans(self):
        for layer in SPAN_LAYERS:
            mod = sys.modules.get(f"fflat.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._span_wrapper(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        fn = getattr(raw, "__func__", raw)
                        if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                            key = f"{layer}.{name}.{attr}"
                            self._patch_class(obj, attr,
                                              lambda f, k=key, l=layer: self._span_wrapper(f, k, l))

    def install_counters(self):
        ffcore = sys.modules["fflat.ffcore"]
        mark = len(self._restore)
        for counter, (clsname, attrs) in FFCORE_COUNTERS.items():
            for attr in attrs:
                if clsname is None:
                    fn = getattr(ffcore, attr, None)
                    if fn is not None:
                        self._rebind(fn, self._count_wrapper(fn, counter))
                else:
                    cls = getattr(ffcore, clsname, None)
                    if cls is not None and attr in vars(cls):
                        self._patch_class(cls, attr, lambda f, c=counter: self._count_wrapper(f, c))
        self._counter_mark = mark

    def uninstall_counters(self):
        self._undo(self._counter_mark)

    def uninstall(self):
        self._undo(0)

    def _undo(self, mark):
        while len(self._restore) > mark:
            target, name, val = self._restore.pop()
            setattr(target, name, val)

    # -- wrappers --

    def _count_wrapper(self, fn, counter):
        tracer = self

        def counted(*args, **kwargs):
            tracer.cur.counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, fn, key, layer):
        tracer = self
        stack = self._stack
        depth = self._depth
        extras = EXTRAS.get(key, {})
        depth[key] = 0
        name_id = len(self.raw_names)
        self.raw_names.append(key)

        def spanned(*args, **kwargs):
            tokens = {s: _guard(before, args) for s, (before, _a) in extras.items()}
            parent = tracer._open_raw()
            stack.append(0.0)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                child = stack.pop()
                depth[key] -= 1
                st = tracer.cur.spans.get(key)
                if st is None:
                    st = tracer.cur.spans[key] = [0, 0.0, 0.0, {}]
                if depth[key] == 0:
                    st[0] += 1
                    st[1] += dt
                st[2] += dt - child
                tracer.cur.layer_self[layer] += dt - child
                if stack:
                    stack[-1] += dt
                tracer._close_raw(parent, name_id, t0, t1)
            for s, (_b, after) in extras.items():
                st[3][s] = st[3].get(s, 0) + (_guard(after, args, tokens[s], result) or 0)
            return result
        return spanned

    # -- raw spans of the recording pass --

    def _open_raw(self):
        if not self._recording:
            return None
        parent = self._raw_open[-1] if self._raw_open else -1
        if len(self.raw) >= RAW_SPAN_CAP:
            self.raw_dropped += 1
            self._raw_open.append(-1)
            return parent
        self.raw.append(None)
        self._raw_open.append(len(self.raw) - 1)
        return parent

    def _close_raw(self, parent, name_id, t0, t1):
        if not self._recording:
            return
        idx = self._raw_open.pop()
        if idx >= 0:
            self.raw[idx] = (name_id, parent, t0, t1, self._op_index)

    # -- passes --

    def begin_pass(self, record_raw: bool):
        self.cur = PassStats()
        self.passes.append(self.cur)
        self._recording = record_raw

    def begin_op(self, index: int):
        self._op_index = index

    def end_pass(self):
        if self._raw_open:
            raise RuntimeError("span left open at the end of a pass")
        self._recording = False

    # -- results --

    def metrics(self, traced_batch_s: float):
        """Counts from the counting pass (the first); times as the median
        of the later passes, which run without the ffcore counters."""
        count_pass = self.passes[0]
        timed = self.passes[1:] or self.passes

        def med(fn):
            return statistics.median(fn(p) for p in timed)

        def span(p, key, i):
            st = p.spans.get(key)
            return st[i] if st else 0

        out = {}
        for name, unit, _b in metric_names():
            parts = name.split(".")
            if parts[0] == "ffcore":
                value = count_pass.counters[parts[1]]
            elif name == "traced_batch_s":
                value = traced_batch_s
            elif parts[1] == "self_ms":
                value = med(lambda p: p.layer_self[parts[0]]) * 1e3
            elif name == "lattice.construct.ms":
                value = med(lambda p: sum(span(p, k, 1) for k in CONSTRUCT)) * 1e3
            else:
                key, stat = ".".join(parts[:-1]), parts[-1]
                if stat == "calls":
                    value = span(count_pass, key, 0)
                elif stat == "ms":
                    value = med(lambda p: span(p, key, 1)) * 1e3
                else:
                    st = count_pass.spans.get(key)
                    value = st[3].get(stat, 0) if st else 0
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str, op_labels):
        """Write the per-pass aggregates and the raw spans of one pass."""
        doc = {
            "passes": [
                {"spans": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2], **v[3]}
                           for k, v in p.spans.items()},
                 "layer_self_s": p.layer_self, "ffcore_counts": p.counters}
                for p in self.passes
            ],
            "ops": list(op_labels),
            "span_names": self.raw_names,
            "raw_spans": {"fields": ["name", "parent", "start", "end", "op"],
                          "spans": self.raw, "dropped": self.raw_dropped},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

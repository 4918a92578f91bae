"""Layer tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of each ``cycliccover``
module (a layer), the public and arithmetic methods of the classes they
define, and every name another module imported from them (``engine.sigma``
and ``cli.max_guaranteed_jet_order`` get wrappers of their own, so calls
can be counted per call site).  Nothing in ``src/`` changes.

Every wrapped call bumps a counter.  A call that enters a layer from
another layer (or from the benchmark) also opens a span: name, start, end,
parent span and op id, in integer nanoseconds, kept in flat arrays and
written out once at the end.  Calls that stay inside the caller's layer
(``tau`` calling ``gamma``, ``CyclotomicNumber.__sub__`` calling
``__add__``) are counted but fold into the enclosing span, so their time is
still the layer's own.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("combinatorics", "engine", "catalog", "lemmas", "cyclotomic",
          "series", "localmodel", "cli")
# Dunder methods that do a layer's arithmetic or construction work.
DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
    "__pow__", "__eq__", "__hash__", "__bool__", "__str__", "__repr__"})
COLUMNS = (("names", "i"), ("parents", "q"), ("ops", "i"),
           ("starts", "q"), ("ends", "q"))


class Tracer:
    """Counters and spans for one traced worker process."""

    def __init__(self):
        self.keys: list[str] = []           # span name id -> wrapped key
        self._key_ids: dict[str, int] = {}
        self.counters: list[tuple[str, str, list]] = []  # (site, key, [n])
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.cur, self.layer, self.op = -1, None, -1
        self.instances_checked = 0
        self.staircase_colengths: set[int] = set()
        self.gc_collections, self.gc_ns, self._gc_start = 0, 0, 0
        # Results read off return values and arguments, by wrapped key.
        self._observers = {
            "lemmas.check_lemma_num": self._observe_report,
            "lemmas.check_lemma_alg": self._observe_report,
            "lemmas.enumerate_staircases": self._observe_colength,
        }

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers of ``package`` (the imported ``cycliccover``)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[obj] = f"{layer}.{name}"
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}", layer)
        for site, mod in [("cycliccover", package), *modules.items()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, name, self._wrap(obj, originals[obj], site))

    def _wrap_class(self, cls, prefix: str, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if inspect.isfunction(val):
                new = self._wrap(val, f"{prefix}.{val.__name__}", layer)
            elif isinstance(val, (classmethod, staticmethod)):
                fn = val.__func__
                new = type(val)(self._wrap(fn, f"{prefix}.{fn.__name__}", layer))
            elif isinstance(val, property) and val.fget is not None:
                new = property(self._wrap(val.fget, f"{prefix}.{attr}", layer),
                               val.fset, val.fdel, val.__doc__)
            else:
                continue
            setattr(cls, attr, new)

    def _key_id(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _wrap(self, func, key: str, site: str):
        layer = key.split(".", 1)[0]
        nid = self._key_id(key)
        cell = [0]
        self.counters.append((site, key, cell))
        observe = self._observers.get(key)
        cols = self.columns
        names, parents, ops = cols["names"], cols["parents"], cols["ops"]
        starts, ends = cols["starts"], cols["ends"]
        clock, st = time.perf_counter_ns, self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if st.layer == layer:
                result = func(*args, **kwargs)
            else:
                prev, prev_layer = st.cur, st.layer
                idx = len(starts)
                names.append(nid)
                parents.append(prev)
                ops.append(st.op)
                ends.append(0)
                st.cur, st.layer = idx, layer
                starts.append(clock())
                try:
                    result = func(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    st.cur, st.layer = prev, prev_layer
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_report(self, args, report) -> None:
        self.instances_checked += report.instances_checked

    def _observe_colength(self, args, result) -> None:
        self.staircase_colengths.add(args[0])

    # -- runtime -------------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: count collections and their time."""
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def start_gc_tracking(self) -> None:
        gc.callbacks.append(self.on_gc)

    def stop_gc_tracking(self) -> None:
        gc.callbacks.remove(self.on_gc)

    # -- output ----------------------------------------------------------------

    def write(self, directory: Path) -> dict:
        """Write spans to ``directory/spans.bin``; return the summary record."""
        with open(directory / "spans.bin", "wb") as fh:
            for name, _ in COLUMNS:
                self.columns[name].tofile(fh)
        return {
            "keys": self.keys,
            "span_count": len(self.columns["names"]),
            "counters": [[site, key, cell[0]] for site, key, cell in self.counters],
            "instances_checked": self.instances_checked,
            "staircase_distinct_colengths": len(self.staircase_colengths),
            "gc_collections": self.gc_collections,
            "gc_ns": self.gc_ns,
        }


def read_spans(directory: Path, count: int) -> dict[str, array]:
    """Inverse of ``Tracer.write`` for ``count`` spans."""
    columns = {}
    with open(directory / "spans.bin", "rb") as fh:
        for name, code in COLUMNS:
            columns[name] = array(code)
            columns[name].fromfile(fh, count)
    return columns


def analyze(keys: list[str], columns: dict[str, array]) -> dict:
    """Self and inclusive time per layer, and the per-op sum check.

    Returns ns totals by layer plus ``bad_ops``: ops whose spans are not one
    closed tree, or whose layers' self times do not sum to the duration of
    the op's root span.
    """
    names, parents, ops = columns["names"], columns["parents"], columns["ops"]
    starts, ends = columns["starts"], columns["ends"]
    n = len(names)
    layer_of = [key.split(".", 1)[0] for key in keys]
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = [0] * n
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += dur[i]
    self_ns, incl_ns = defaultdict(int), defaultdict(int)
    op_self, op_root, op_roots = defaultdict(int), defaultdict(int), defaultdict(int)
    bad = set()
    for i in range(n):
        layer, op = layer_of[names[i]], ops[i]
        s = dur[i] - covered[i]
        if dur[i] < 0 or s < 0:
            bad.add(op)
        self_ns[layer] += s
        incl_ns[layer] += dur[i]
        op_self[op] += s
        if parents[i] < 0:
            op_root[op] += dur[i]
            op_roots[op] += 1
    bad.update(op for op in op_self
               if op_roots[op] != 1 or op_self[op] != op_root[op])
    return {"self_ns": dict(self_ns), "incl_ns": dict(incl_ns),
            "root_ns": sum(op_root.values()), "ops": len(op_self),
            "bad_ops": sorted(bad)}


def per_layer_metrics(summary: dict, analysis: dict, op_stats: dict,
                      overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced pass, as ``{name: (value, unit)}``."""
    total, by_site = defaultdict(int), defaultdict(int)
    for site, key, n in summary["counters"]:
        total[key] += n
        by_site[(site, key)] += n
    self_s = {layer: analysis["self_ns"].get(layer, 0) / 1e9 for layer in LAYERS}
    decisions = (total["engine.max_guaranteed_jet_order"]
                 + total["engine.max_guaranteed_very_order"])
    enumerations = total["lemmas.enumerate_staircases"]
    lemmas_s = analysis["incl_ns"].get("lemmas", 0) / 1e9
    instances = summary["instances_checked"]
    cyc, ser = "cyclotomic.CyclotomicNumber.", "series.TruncatedSeries."

    def ratio(a, b):
        return a / b if b else 0.0

    count, secs = "count", "s"
    return {
        "combinatorics.sigma.calls": (total["combinatorics.sigma"], count),
        "combinatorics.tau.calls": (total["combinatorics.tau"], count),
        "combinatorics.self_s": (self_s["combinatorics"], secs),
        "engine.decisions": (decisions, count),
        "engine.sigma_evals_per_decision": (
            ratio(by_site[("engine", "combinatorics.sigma")], decisions), "ratio"),
        "engine.self_s": (self_s["engine"], secs),
        "catalog.entries_evaluated": (total["catalog.evaluate_entry"], count),
        "catalog.self_s": (self_s["catalog"], secs),
        "lemmas.instances_checked": (instances, count),
        "lemmas.instances_per_s": (ratio(instances, lemmas_s), "1/s"),
        "lemmas.staircase_enumerations": (enumerations, count),
        "lemmas.staircase_distinct_ratio": (
            ratio(summary["staircase_distinct_colengths"], enumerations), "ratio"),
        "lemmas.self_s": (self_s["lemmas"], secs),
        "cyclotomic.constructions": (total[cyc + "__init__"], count),
        "cyclotomic.mul.calls": (total[cyc + "__mul__"], count),
        "cyclotomic.add.calls": (total[cyc + "__add__"], count),
        "cyclotomic.inverse.calls": (total[cyc + "inverse"], count),
        "cyclotomic.is_zero.calls": (total[cyc + "is_zero"], count),
        "cyclotomic.eq.calls": (total[cyc + "__eq__"], count),
        "cyclotomic.self_s": (self_s["cyclotomic"], secs),
        "series.scale.calls": (total[ser + "scale"], count),
        "series.add.calls": (total[ser + "__add__"], count),
        "series.mul.calls": (total[ser + "__mul__"], count),
        "series.self_s": (self_s["series"], secs),
        "localmodel.vandermonde_solve.calls": (
            total["localmodel.vandermonde_solve"], count),
        "localmodel.case2_trials": (total["localmodel.run_case2_trial"], count),
        "localmodel.self_s": (self_s["localmodel"], secs),
        "cli.self_s": (self_s["cli"], secs),
        "cli.stdout_bytes": (op_stats["stdout_bytes"], "bytes"),
        "cli.refused_ops": (op_stats["refused_ops"], count),
        "cli.refused_s": (op_stats["refused_s"], secs),
        "runtime.gc_collections": (summary["gc_collections"], count),
        "runtime.gc_s": (summary["gc_ns"] / 1e9, secs),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def layer_counts(summary: dict) -> dict[str, int]:
    """Total wrapped calls per layer (used by the layer-isolation check)."""
    out = dict.fromkeys(LAYERS, 0)
    for _, key, n in summary["counters"]:
        out[key.split(".", 1)[0]] += n
    return out

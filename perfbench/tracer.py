"""Per-layer tracing of the holonomy package, installed from outside it.

Each traced function is replaced, in every ``holonomy`` module that bound it
by name (or on its class, for methods), by a wrapper that records a span
``(name, start, end, parent, op)``. Spans stay in memory until ``dump``
writes them; ``summarize`` turns one dump into per-function call counts,
inclusive time and self time (inclusive minus the time covered by child
spans), and ``finish`` turns the merged summaries into per-layer metrics.

The program itself is not modified: timing happens at the boundaries of its
public functions only.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# Traced functions: (module, qualified name) -> the end-to-end metric each one
# is expected to move, and on which workload. Metric names are
# "<module>.<qualified name>.calls|.s|.self_s".
TRACED = {
    ("fields", "BaseField.elements_of_norm"): "wall_s on warm-x7, partly cold-x5; none on report-cli",
    ("fields", "prime_elements_above"): "wall_s on warm-x7, partly cold-x5; none on report-cli",
    ("fields", "factor_element"): "wall_s on warm-x7, partly cold-x5; none on report-cli",
    ("fields", "square_divisor_splits"): "wall_s on warm-x7, partly cold-x5; none on report-cli",
    ("fields", "ideal_of_element"): "wall_s on warm-x7, partly cold-x5; none on report-cli",
    ("intlinalg", "hnf"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "class_number"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "primitive_proper_ideals"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "enumerate_mod_units"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "relative_fundamental_unit"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "unit_norm_index"): "wall_s on cold-x5; none on warm-x7",
    ("orders", "OrderCache.put"): "wall_s on cold-x5",
    ("orders", "build_order"): "wall_s on the builds",
    ("orders", "compute_arithmetic"): "wall_s on the builds",
    ("orders", "embedding_count"): "wall_s on the builds",
    ("orders", "norm_one_group_size"): "op_tail_ms on report-cli",
    ("spectrum", "enumerate_traces"): "wall_s and ops_per_s on the builds",
    ("spectrum", "classify_trace"): "wall_s and ops_per_s on the builds",
    ("spectrum", "classify_elliptic_trace"): "op_tail_ms on report-cli",
    ("spectrum", "primitive_decomposition"): "wall_s and ops_per_s on the builds",
    ("spectrum", "trace_length"): "wall_s and ops_per_s on the builds",
    ("cli", "table_from_csv"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
    ("cli", "table_to_csv"): "wall_s on the builds",
    ("reports", "pgt_report"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
    ("reports", "equi_report_function"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
    ("reports", "equi_report_rectangle"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
    ("reports", "geometric_side"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
    ("reports", "TestFunctionSpec.h_identity_integral"): "op_tail_ms on report-cli; none on the builds",
    ("reports", "TestFunctionSpec.htilde0"): "op_tail_ms on report-cli; none on the builds",
    ("extremal", "build_majorant"): "op_p50_ms and op_tail_ms on report-cli; none on the builds",
}

# Metrics derived from return values and span structure rather than from
# call counts and times alone, with their unit, direction and what they move.
EXTRA = {
    "fields.prime_elements_above.distinct": ("count", "lower", "wall_s on warm-x7"),
    "fields.prime_elements_above.distinct_ratio": ("ratio", "higher", "wall_s on warm-x7"),
    "orders.class_number.pass_B_s": ("s", "lower", "wall_s on cold-x5"),
    "orders.class_number.pass_2B_s": ("s", "lower", "wall_s on cold-x5"),
    "orders.class_number.certified": ("count", "higher", "ops_failed on cold-x5"),
    "orders.class_number.inconclusive": ("count", "lower", "ops_failed on cold-x5"),
    "orders.enumerate_mod_units.results": ("count", "lower", "wall_s on cold-x5"),
    "orders.unit_norm_index.unknown": ("count", "lower", "ops_failed on cold-x5"),
    "orders.cache.hits": ("count", "higher", "wall_s on the builds"),
    "orders.cache.misses": ("count", "lower", "wall_s on the builds"),
    "orders.cache.hit_ratio": ("ratio", "higher", "wall_s on the builds"),
    "orders.OrderCache.load_s": ("s", "lower", "setup_s on the builds"),
    "spectrum.classify_trace.p50_ms": ("ms", "lower", "wall_s and ops_per_s on the builds"),
    "spectrum.classify_trace.tail_ms": ("ms", "lower", "wall_s and ops_per_s on the builds"),
    "cli.import_s": ("s", "lower", "setup_s and op_p50_ms on report-cli"),
    "trace.overhead_s": ("s", "lower", "nothing: cost of tracing itself"),
}


def metric_specs() -> dict:
    """Every per-layer metric name -> (unit, better, what it should move)."""
    out = {}
    for (mod, qual), moves in TRACED.items():
        name = f"{mod}.{qual}"
        out[name + ".calls"] = ("count", "lower", moves)
        out[name + ".s"] = ("s", "lower", moves)
        out[name + ".self_s"] = ("s", "lower", moves)
    out.update(EXTRA)
    return out


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile with at least ten samples beyond
    it; the largest sample when no rank above the median has ten beyond."""
    return n - 10 if n > 20 else n


def tail_percentile(n: int) -> float:
    return 100.0 * tail_rank(n) / n


def tail_value(values):
    return sorted(values)[tail_rank(len(values)) - 1]


class Tracer:
    """Span recorder; one per process."""

    def __init__(self, op: int = -1):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = op  # fixed op id (one CLI query per process), else root span
        self.counters = {"cache_hits": 0, "cache_misses": 0, "cn_certified": 0,
                         "cn_inconclusive": 0, "emu_results": 0, "uni_unknown": 0}
        self.ell_args: set = set()

    def wrap(self, name: str, fn, on_result=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op = self.op if self.op >= 0 else (spans[stack[0]][4] if stack else len(spans))
            i = len(spans)
            spans.append([idx, clock(), 0.0, parent, op])
            stack.append(i)
            try:
                res = fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, res)
            return res

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package bound it."""
        from holonomy import orders

        def bump(key, n=1):
            self.counters[key] += n

        hooks = {
            ("fields", "prime_elements_above"): lambda a, r: self.ell_args.add((a[0].m, a[1])),
            ("orders", "class_number"):
                lambda a, r: bump("cn_certified" if r.certified else "cn_inconclusive"),
            ("orders", "enumerate_mod_units"): lambda a, r: bump("emu_results", len(r)),
            ("orders", "unit_norm_index"): lambda a, r: bump("uni_unknown", r == orders.UNKNOWN),
        }
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("holonomy.") and m is not None}
        for mod, qual in TRACED:
            self._patch(mods, mod, qual, f"{mod}.{qual}", hooks.get((mod, qual)))
        self._patch(mods, "orders", "OrderCache.__init__", "orders.OrderCache.load")
        get = orders.OrderCache.get

        def counted_get(cache, key):
            rec = get(cache, key)
            bump("cache_hits" if rec is not None else "cache_misses")
            return rec

        orders.OrderCache.get = counted_get

    def _patch(self, mods, mod, qual, name, on_result=None):
        owner = mods[mod]
        *cls, attr = qual.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))
            return
        orig = getattr(owner, attr)
        wrapped = self.wrap(name, orig, on_result)
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters,
                       "ell_args": sorted(self.ell_args)}, fh)


def summarize(dump: dict) -> dict:
    """Per-function totals of one span dump (JSON-able, mergeable)."""
    names, spans = dump["names"], dump["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls, incl, self_s = {}, {}, {}
    ct_ms = []
    pass_b = pass_2b = 0.0
    ppi_starts: dict = {}
    for i, (ni, t0, t1, parent, _) in enumerate(spans):
        name = names[ni]
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        p = parent
        while p >= 0 and names[spans[p][0]] != name:
            p = spans[p][3]
        if p < 0:  # outermost call of this name: count its time once
            incl[name] = incl.get(name, 0.0) + dur
        if name == "spectrum.classify_trace":
            ct_ms.append(1000.0 * dur)
        if name == "orders.primitive_proper_ideals" and parent >= 0 \
                and names[spans[parent][0]] == "orders.class_number":
            ppi_starts.setdefault(parent, []).append(t0)
    for i, (ni, t0, t1, _, _) in enumerate(spans):
        if names[ni] == "orders.class_number":
            starts = sorted(ppi_starts.get(i, []))
            split = starts[1] if len(starts) > 1 else t1
            pass_b += split - t0
            pass_2b += t1 - split
    return {"calls": calls, "s": incl, "self_s": self_s, "classify_trace_ms": ct_ms,
            "pass_B_s": pass_b, "pass_2B_s": pass_2b, "counters": dump["counters"],
            "ell_args": [list(a) for a in dump["ell_args"]]}


def merge(parts: list) -> dict:
    out = {"calls": {}, "s": {}, "self_s": {}, "classify_trace_ms": [], "pass_B_s": 0.0,
           "pass_2B_s": 0.0, "counters": {}, "ell_args": set()}
    for p in parts:
        for key in ("calls", "s", "self_s", "counters"):
            for k, v in p[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["classify_trace_ms"].extend(p["classify_trace_ms"])
        out["pass_B_s"] += p["pass_B_s"]
        out["pass_2B_s"] += p["pass_2B_s"]
        out["ell_args"].update(tuple(a) for a in p["ell_args"])
    return out


def finish(merged: dict, units: int, import_s: float, overhead_s: float) -> dict:
    """Per-layer metrics per unit of work (one build, or one query pass)."""
    specs = metric_specs()
    c = merged["counters"]
    vals = {}
    for (mod, qual) in TRACED:
        name = f"{mod}.{qual}"
        vals[name + ".calls"] = merged["calls"].get(name, 0) / units
        vals[name + ".s"] = merged["s"].get(name, 0.0) / units
        vals[name + ".self_s"] = merged["self_s"].get(name, 0.0) / units
    pe_calls = merged["calls"].get("fields.prime_elements_above", 0)
    hits, misses = c.get("cache_hits", 0), c.get("cache_misses", 0)
    ct = merged["classify_trace_ms"]
    vals.update({
        "fields.prime_elements_above.distinct": len(merged["ell_args"]),
        "fields.prime_elements_above.distinct_ratio":
            len(merged["ell_args"]) * units / pe_calls if pe_calls else 0.0,
        "orders.class_number.pass_B_s": merged["pass_B_s"] / units,
        "orders.class_number.pass_2B_s": merged["pass_2B_s"] / units,
        "orders.class_number.certified": c.get("cn_certified", 0) / units,
        "orders.class_number.inconclusive": c.get("cn_inconclusive", 0) / units,
        "orders.enumerate_mod_units.results": c.get("emu_results", 0) / units,
        "orders.unit_norm_index.unknown": c.get("uni_unknown", 0) / units,
        "orders.cache.hits": hits / units,
        "orders.cache.misses": misses / units,
        "orders.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "orders.OrderCache.load_s": merged["s"].get("orders.OrderCache.load", 0.0) / units,
        "spectrum.classify_trace.p50_ms": statistics.median(ct) if ct else 0.0,
        "spectrum.classify_trace.tail_ms": tail_value(ct) if ct else 0.0,
        "cli.import_s": import_s,
        "trace.overhead_s": overhead_s,
    })
    return {k: {"value": vals[k], "unit": specs[k][0]} for k in specs}

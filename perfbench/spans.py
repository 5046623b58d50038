"""Span tracing of divfilt's public functions, from outside the program.

`Tracer.install()` replaces each public function named in TARGETS with a
wrapper that records one span per call: name (`<module>.<function>`), start,
end, parent span and op id (the index of the CLI call within the pass).
Spans stay in memory until `write()`.  `layer_metrics()` turns them into
per-layer self times and counts; a layer's self time is the summed duration
of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LIMIT_FUNCTIONS = ("limit_exists_report", "subsequence_limit", "multiplicity", "cesaro_consistency")
FLOOR_METHODS = ("floor", "ceil", "floor_scaled", "ceil_scaled")

# (module, owner class or None, function, time bucket)
TARGETS = (
    [("cli", None, "main", "cli.self_s")]
    + [("quadfield", "QuadExt", f, "quadfield.self_s") for f in ("to_decimal",) + FLOOR_METHODS]
    + [("quadfield", None, "rational_str", "quadfield.self_s")]
    + [("beatty", None, f, "beatty.self_s")
       for f in ("partition", "equidistribution_histogram", "value_counts", "window_constant")]
    + [("intersection", None, f, "intersection.self_s") for f in ("form_from_json", "triple_product")]
    + [("asymptotics", None, "empirical_scan", "asymptotics.scan_s")]
    + [("asymptotics", None, f, "asymptotics.limit_s") for f in LIMIT_FUNCTIONS]
    + [("monomial", None, f, "monomial.self_s") for f in ("build_In", "min_gens_count", "filtration_check")]
    + [("picard", None, "qn_sequence", "picard.qn_s"),
       ("picard", None, "restriction_report", "picard.restriction_s"),
       ("picard", None, "infinite_order_witness", "picard.witness_s")]
)

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "cli.self_s": "s", "cli.output_bytes": "bytes", "cli.errors": "count",
    "quadfield.self_s": "s", "quadfield.decimal_calls": "count", "quadfield.floor_calls": "count",
    "quadfield.errors": "count",
    "beatty.self_s": "s", "beatty.indices": "count", "beatty.ns_per_index": "ns", "beatty.errors": "count",
    "intersection.self_s": "s", "intersection.tables_parsed": "count",
    "intersection.triple_products": "count", "intersection.errors": "count",
    "asymptotics.scan_s": "s", "asymptotics.limit_s": "s", "asymptotics.indices": "count",
    "asymptotics.ns_per_index": "ns", "asymptotics.rows": "count", "asymptotics.errors": "count",
    "monomial.self_s": "s", "monomial.ideals": "count", "monomial.generator_pairs": "count",
    "monomial.useful_ratio": "ratio", "monomial.errors": "count",
    "picard.qn_s": "s", "picard.restriction_s": "s", "picard.witness_s": "s", "picard.points": "count",
    "picard.max_height_bits": "bits", "picard.errors": "count",
    "trace.overhead_s": "s",
}


def _generator_pairs(f, m_max: int, n_max: int) -> int:
    """sum |gens I_m| * |gens I_n| over the (m, n) that filtration_check visits;
    |gens I_k| = sigma(k) + 2 (the count the output checks verify)."""
    g = {k: f.sigma(k) + 2 for k in range(1, max(m_max, n_max) + 1)}
    return sum(g[m] * g[n] for m in range(1, m_max + 1) for n in range(m, n_max + 1))


def _height_bits(points) -> int:
    best = 0
    for pt in points:
        x = getattr(pt, "x", None)
        if x is not None:
            best = max(best, abs(getattr(x, "numerator", x)).bit_length())
    return best


# Metrics that count calls of one function.
CALL_COUNTS = {
    "quadfield.to_decimal": "quadfield.decimal_calls",
    **{f"quadfield.{m}": "quadfield.floor_calls" for m in FLOOR_METHODS},
    "intersection.form_from_json": "intersection.tables_parsed",
    "intersection.triple_product": "intersection.triple_products",
    "monomial.build_In": "monomial.ideals",
}

# Work counts of one call, from its bound arguments and result.  They are
# computed after the call's span closes; their small cost lands in the
# caller's self time.
EXTRAS = {
    "beatty.partition": lambda a, r: {"indices": a["n_max"]},
    "beatty.equidistribution_histogram": lambda a, r: {"indices": a["n_max"]},
    "beatty.value_counts": lambda a, r: {"indices": a["n_max"]},
    "asymptotics.empirical_scan": lambda a, r: {"indices": a["n_max"], "rows": len(r.rows)},
    "monomial.filtration_check": lambda a, r: {
        "pairs": _generator_pairs(a["f"], a["m_max"], a["n_max"]), "failures": len(r.failures)},
    "picard.qn_sequence": lambda a, r: {"points": a["n_max"], "bits": _height_bits(r.points)},
}


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op, error, extra]
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra:
                span[6] = extra(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target, in its home module and wherever divfilt imported it by name."""
        modules = [m for k, m in sys.modules.items() if k == "divfilt" or k.startswith("divfilt.")]
        for module, owner, func, _ in TARGETS:
            home = sys.modules[f"divfilt.{module}"]
            name = f"{module}.{func}"
            if owner is not None:
                cls = getattr(home, owner)
                setattr(cls, func, self._wrap(name, getattr(cls, func)))
                continue
            orig = getattr(home, func)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, error, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts of the recorded spans (no overhead term)."""
        bucket = {f"{mod}.{func}": b for mod, _, func, b in TARGETS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {m: 0.0 if unit == "s" else 0 for m, unit in METRICS.items() if m != "trace.overhead_s"}
        failures = 0
        for i, (name, start, end, parent, op, error, extra) in enumerate(self.spans):
            out[bucket[name]] += end - start - child_time[i]
            layer = name.split(".")[0]
            if error:
                out[f"{layer}.errors"] += 1
            if name in CALL_COUNTS:
                out[CALL_COUNTS[name]] += 1
            if extra is None:
                continue
            if layer in ("beatty", "asymptotics"):
                out[f"{layer}.indices"] += extra["indices"]
                out["asymptotics.rows"] += extra.get("rows", 0)
            elif layer == "monomial":
                out["monomial.generator_pairs"] += extra["pairs"]
                failures += extra["failures"]
            elif layer == "picard":
                out["picard.points"] += extra["points"]
                out["picard.max_height_bits"] = max(out["picard.max_height_bits"], extra["bits"])
        pairs = out["monomial.generator_pairs"]
        out["monomial.useful_ratio"] = failures / pairs if pairs else 0.0
        for layer, time_key in (("beatty", "beatty.self_s"), ("asymptotics", "asymptotics.scan_s")):
            n = out[f"{layer}.indices"]
            out[f"{layer}.ns_per_index"] = out[time_key] / n * 1e9 if n else 0.0
        return out

"""Spans around calls into lctkit's layers, installed from the benchmark.

`install` replaces the names that callers look up at run time with timing
wrappers; no file of the package changes.  A name that a later version of
the package no longer has is skipped and reports 0 calls.  Every span keeps
its name, start, end, parent span and decision id in memory; `layer_metrics`
turns them into the per-layer numbers and `dump` writes them out once the
run has ended.  A span's self time is its duration minus the time its child
spans cover (children are nested and sequential: one thread).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, decision id, raised, info]
        self.spans = []
        self.decision = -1
        self._stack = []

    def wrap(self, name, fn, info=None):
        """`fn` wrapped so that every call records one span; `info(args,
        kwargs, result)` may attach one number (result is None on raise)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info else None
                spans[idx] = [name, start, end, parent, self.decision,
                              raised, extra]

        return traced

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4],
                 int(s[5]), s[6]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent",
                                  "decision", "raised", "info"],
                       "spans": rows}, fh, separators=(",", ":"))


def _term_pairs(args, kwargs, result):
    a, b = args[0], args[1]
    return len(a.terms) * len(b.terms) if hasattr(b, "terms") else 0


def _degree(args, kwargs, result):
    return args[0].degree


def _precision_bits(args, kwargs, result):
    from lctkit.rootdata import default_precision
    bits = args[2] if len(args) > 2 else kwargs.get("precision")
    return bits or default_precision()


def _past_shortcut(args, kwargs, result):
    """1 when lct_ge went past the [1/d, 1] shortcut to a table lookup."""
    return 1 if result is None or result[1].get("p") is not None else 0


def install(tracer):
    """Wrap the layer entry points; returns the names actually wrapped."""
    from lctkit import criterion, poly, rootdata
    from lctkit.series import PSeries
    targets = [
        (criterion, "lct_ge", "criterion.lct_ge", _past_shortcut),
        (criterion, "diff_orders", "rootdata.diff_orders", _degree),
        (rootdata, "difference_poly", "poly.difference_poly", None),
        (rootdata, "puiseux_expand", "rootdata.puiseux_expand",
         _precision_bits),
        (rootdata, "root_orders", "rootdata.root_orders", None),
        (poly, "resultant_lists", "poly.resultant_lists", None),
        (poly, "taylor_shift", "poly.taylor_shift", None),
        (PSeries, "__mul__", "series.mul", _term_pairs),
        (PSeries, "__rmul__", "series.mul", _term_pairs),
        (PSeries, "div_exact", "series.div_exact", None),
    ]
    wrapped = []
    for owner, attr, name, info in targets:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if fn is None:
            continue
        setattr(owner, attr, tracer.wrap(name, fn, info))
        wrapped.append(f"{owner.__name__}.{attr}")
    return wrapped


DEGREES = range(2, 7)


def layer_metrics(spans):
    """Per-layer totals of one traced run (spans as recorded by Tracer),
    and the self and inclusive seconds of every span name."""
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    raised = defaultdict(int)
    info_sum = defaultdict(int)
    info_max = defaultdict(int)
    by_degree = defaultdict(list)
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child_time[i]
        raised[name] += s[5]
        if s[6] is not None:
            info_sum[name] += s[6]
            info_max[name] = max(info_max[name], s[6])
        if name == "rootdata.diff_orders":
            by_degree[s[6]].append(dur)

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = info_sum["criterion.lct_ge"]
    misses = calls["rootdata.diff_orders"]
    tables = misses - raised["rootdata.diff_orders"]
    out = {
        "criterion.lct_ge.calls": calls["criterion.lct_ge"],
        "criterion.lct_ge.self_s": self_s["criterion.lct_ge"],
        "criterion.table_cache.hit_ratio": ratio(lookups - misses, lookups),
        "criterion.shortcut_frac": ratio(calls["criterion.lct_ge"] - lookups,
                                         calls["criterion.lct_ge"]),
        "rootdata.diff_orders.calls": misses,
        "rootdata.diff_orders.raised": raised["rootdata.diff_orders"],
        "rootdata.diff_orders.self_s": self_s["rootdata.diff_orders"],
        "rootdata.puiseux_expand.s": total["rootdata.puiseux_expand"],
        "rootdata.puiseux_expand.attempts_per_table": ratio(
            calls["rootdata.puiseux_expand"], tables),
        "rootdata.puiseux_expand.max_bits":
            info_max["rootdata.puiseux_expand"],
        "rootdata.root_orders.s": total["rootdata.root_orders"],
        "poly.difference_poly.s": total["poly.difference_poly"],
        "poly.difference_poly.self_s": self_s["poly.difference_poly"],
        "poly.resultant_lists.calls": calls["poly.resultant_lists"],
        "poly.resultant_lists.s": total["poly.resultant_lists"],
        "poly.taylor_shift.s": total["poly.taylor_shift"],
        "series.mul.calls": calls["series.mul"],
        "series.mul.term_pairs": info_sum["series.mul"],
        "series.mul.s": total["series.mul"],
        "series.div_exact.calls": calls["series.div_exact"],
        "cli.run.self_s": self_s["cli.run"],
    }
    for d in DEGREES:
        times = by_degree.get(d, [])
        out[f"rootdata.diff_orders.ms.d{d}"] = \
            1000 * sum(times) / len(times) if times else 0.0
    return out, {"self": dict(self_s), "inclusive": dict(total)}

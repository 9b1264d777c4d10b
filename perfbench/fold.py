#!/usr/bin/env python3
"""Fold a Chrome trace written by spgcmp's obs layer into tables.

The trace is the document obs::trace_stop writes (every tool's --trace=FILE
and spgbench's traced passes): "X" complete events and "B"/"E" pairs, one
track per thread.  Spans nest by time on their thread; a span's self time
is its duration minus the time its direct children cover.

Two tables come out:
  spans    per span name: count, total, p50, p99, self time, share
  solvers  per solver of the `solve` span (its "solver" argument): the
           same columns

`share` is a name's self time over the self time of all spans, so the
column says where the traced threads' time went and sums to 1.

  python3 perfbench/fold.py TRACE.json [--json OUT.json]
"""

import argparse
import json
import math
import sys


class Span:
    __slots__ = ("name", "tid", "start", "end", "args", "child_us")

    def __init__(self, name, tid, start, end, args):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.args = args
        self.child_us = 0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_us(self):
        return max(0, self.dur - self.child_us)


def load_spans(path):
    """Every span of a trace, with child time attributed (microseconds)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    open_spans = {}
    for e in events:
        ph = e.get("ph")
        if ph == "X":
            spans.append(Span(e["name"], e["tid"], e["ts"], e["ts"] + e["dur"],
                              e.get("args", {})))
        elif ph == "B":
            open_spans.setdefault(e["tid"], []).append(e)
        elif ph == "E":
            stack = open_spans.get(e["tid"])
            if stack:
                b = stack.pop()
                # Arguments attached after a span opened ride on its "E".
                args = {**b.get("args", {}), **e.get("args", {})}
                spans.append(Span(b["name"], e["tid"], b["ts"], e["ts"], args))
    attribute_children(spans)
    return spans


def attribute_children(spans):
    """Charge each span's duration to its direct parent on the same thread."""
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for track in by_tid.values():
        track.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in track:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                stack[-1].child_us += min(s.end, stack[-1].end) - s.start
            stack.append(s)


def percentile(values, q):
    """Nearest-rank percentile of a list (0 when empty)."""
    if not values:
        return 0.0
    v = sorted(values)
    return float(v[max(0, math.ceil(q * len(v)) - 1)])


def row(group, all_self):
    durs = [s.dur for s in group]
    self_us = sum(s.self_us for s in group)
    return {
        "count": len(group),
        "total_us": sum(durs),
        "p50_us": percentile(durs, 0.50),
        "p99_us": percentile(durs, 0.99),
        "self_us": self_us,
        "share": self_us / all_self if all_self else 0.0,
    }


def fold(spans):
    """The spans and solvers tables of a list of spans."""
    all_self = sum(s.self_us for s in spans)
    by_name, by_solver = {}, {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.name == "solve":
            by_solver.setdefault(s.args.get("solver", "?"), []).append(s)
    return {
        "spans": {k: row(v, all_self) for k, v in sorted(by_name.items())},
        "solvers": {k: row(v, all_self) for k, v in sorted(by_solver.items())},
    }


def fmt(x, digits=4):
    """`x` at `digits` significant digits, never in exponent form."""
    if x == 0 or not math.isfinite(x):
        return "0" if x == 0 else str(x)
    decimals = max(0, digits - 1 - math.floor(math.log10(abs(x))))
    return f"{x:.{decimals}f}"


def render(table, out=sys.stdout):
    for title, key in (("span", "spans"), ("solver", "solvers")):
        rows = sorted(table[key].items(), key=lambda kv: -kv[1]["self_us"])
        out.write(f"{title:<24} {'count':>8} {'total_ms':>10} {'p50_ms':>9} "
                  f"{'p99_ms':>9} {'self_ms':>10} {'share':>7}\n")
        for name, r in rows:
            out.write(f"{name:<24} {r['count']:>8} {fmt(r['total_us'] / 1e3):>10} "
                      f"{fmt(r['p50_us'] / 1e3):>9} {fmt(r['p99_us'] / 1e3):>9} "
                      f"{fmt(r['self_us'] / 1e3):>10} {fmt(r['share'], 3):>7}\n")
        out.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--json", help="also write the tables as JSON here")
    a = ap.parse_args()
    table = fold(load_spans(a.trace))
    render(table)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()

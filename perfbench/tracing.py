"""Per-layer tracing of one inchom CLI call, from outside the package.

Run as a program, it imports the package, wraps the public functions of each
module (the layers) in timing spans, calls `inchom.cli.main` on the given
arguments and, when main returns, writes every span and count to one file:

    python perfbench/tracing.py SPANS.npz <inchom arguments> --json

A function is replaced in every package module that bound it, so a call
through `homology.rank` is traced like one through `gfpla.rank`.  The
benchmark reads the file back with `layer_metrics`.

A span is (name, parent span, start, end).  A function's `.s` metric is the
summed duration of its outermost spans (a span inside one of the same name is
not counted twice); `self_s` subtracts the time of traced child spans.
"""

import json
import math
import sys
import time

import numpy as np

COMMANDS = ("pitable", "homology", "orbits", "order", "mult", "bounds", "chain")
INEQUAL = ("fold", "check_chain", "check_lw", "check_palindrome", "symbolic_chain",
           "deduce_bounds")

# per-layer metrics and their units, in the order BENCHMARK.json lists them
METRICS = {
    "poset.incidence_matrix.s": "s",
    "poset.incidence_matrix.nnz": "count",
    "gf.rref.calls": "count",
    "gf.rref.s": "s",
    "gfpla.matmul.s": "s",
    "gfpla.matmul.calls": "count",
    "gfpla.matmul.nnz_out": "count",
    "gfpla.power_boundary.s": "s",
    "gfpla.rank.modp.s": "s",
    "gfpla.rank.modp.calls": "count",
    "gfpla.rank.modp.cells": "count",
    "gfpla.rank.gf2.s": "s",
    "gfpla.rank.gf2.nnz": "count",
    "qarith.quantum_char.calls": "count",
    "qarith.quantum_char.s": "s",
    "qarith.gauss_binom.calls": "count",
    "homology.homology_dim.calls": "count",
    "homology.trace_check.calls": "count",
    "homology.homology_scan.self_s": "s",
    "cli.report_s": "s",
    **{f"cli.cmd.{c}.s": "s" for c in COMMANDS},
    "groupact.orbit_count_unionfind.s": "s",
    "groupact.orbit_count_unionfind.elements": "count",
    "groupact.group_order.s": "s",
    "groupact.burnside_counts.s": "s",
    "groupact.act.calls": "count",
    "groupact.act.s": "s",
    "chartab.sn_table.s": "s",
    "chartab.multiplicity_series.s": "s",
    "inequal.s": "s",
    "trace_overhead_ratio": "ratio",
}


def _rank_set_size(spec, k):
    if spec.kind == "boolean":
        return math.comb(spec.n, k)
    num = den = 1
    for t in range(k):
        num *= spec.q ** (spec.n - t) - 1
        den *= spec.q ** (t + 1) - 1
    return num // den


def _targets():
    """(module, function, span name, counter) for every traced function.

    The span name is a string or a function of the call's arguments (the
    rank kernel is chosen by p); a counter maps (result, arguments) to
    {count name: increment}.
    """
    from inchom import chartab, cli, gf, gfpla, groupact, homology, inequal, poset, qarith

    def kernel(m):
        return "gfpla.rank.gf2" if m.p == 2 else "gfpla.rank.modp"

    def rank_size(m):
        if m.p == 2:
            return {"gfpla.rank.gf2.nnz": m.nnz}
        return {"gfpla.rank.modp.cells": m.rows * m.cols}

    return [
        (qarith, "quantum_char", "qarith.quantum_char", None),
        (qarith, "gauss_binom", "qarith.gauss_binom", None),
        (gf, "rref", "gf.rref", None),
        (poset, "incidence_matrix", "poset.incidence_matrix",
         lambda out, *a: {"poset.incidence_matrix.nnz": out.nnz}),
        (gfpla, "matmul", "gfpla.matmul", lambda out, *a: {"gfpla.matmul.nnz_out": out.nnz}),
        (gfpla, "power_boundary", "gfpla.power_boundary", None),
        (gfpla, "rank", kernel, lambda out, m: rank_size(m)),
        (homology, "homology_scan", "homology.homology_scan", None),
        (homology, "homology_dim", "homology.homology_dim", None),
        (homology, "trace_check", "homology.trace_check", None),
        (groupact, "orbit_count_unionfind", "groupact.orbit_count_unionfind",
         lambda out, g, spec, k, **kw: {"groupact.orbit_count_unionfind.elements":
                                        _rank_set_size(spec, k)}),
        (groupact, "group_order", "groupact.group_order", None),
        (groupact, "burnside_counts", "groupact.burnside_counts", None),
        (groupact, "act", "groupact.act", None),
        (chartab, "sn_table", "chartab.sn_table", None),
        (chartab, "multiplicity_series", "chartab.multiplicity_series", None),
        *[(inequal, f, f"inequal.{f}", None) for f in INEQUAL],
        *[(cli, f"cmd_{c}", f"cli.cmd.{c}", None) for c in COMMANDS],
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Spans and counts of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names = {}  # span name -> id
        self.name_id, self.parent, self.start, self.end = [], [], [], []
        self.stack = []
        self.counts = {}

    def wrap(self, fn, name, counter):
        names, stack, counts = self.names, self.stack, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args)
            idx = len(start)
            name_id.append(names.setdefault(span_name, len(names)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, v in counter(out, *args, **kwargs).items():
                    counts[key] = counts.get(key, 0) + v
            return out

        return traced

    def install(self):
        """Replace each target in every loaded package module that bound it."""
        modules = [m for n, m in sys.modules.items() if n == "inchom" or n.startswith("inchom.")]
        for module, attr, name, counter in _targets():
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self, path):
        names = sorted(self.names, key=self.names.get)
        meta = json.dumps({"names": names, "counts": self.counts}).encode()
        np.savez(path, name=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 meta=np.frombuffer(meta, dtype=np.uint8))


def profile(path) -> dict:
    """Span totals of one traced call, read back from its span file.

    spans maps a span name to [calls, outermost seconds, self seconds];
    inequal_s is the time of outermost spans of any inequal function.
    """
    with np.load(path) as f:
        name, parent, start, end = f["name"], f["parent"], f["start"], f["end"]
        meta = json.loads(f["meta"].tobytes())
    names = meta["names"]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    spans = {
        n: [int((name == i).sum()), _outermost(name, parent, dur, [i]),
            float(self_time[name == i].sum())]
        for i, n in enumerate(names)
    }
    inequal = [i for i, n in enumerate(names) if n.startswith("inequal.")]
    return {"spans": spans, "counts": meta["counts"],
            "inequal_s": _outermost(name, parent, dur, inequal)}


def _outermost(name, parent, dur, ids) -> float:
    """Summed duration of the spans named in ids that have no ancestor named in ids."""
    member = np.isin(name, ids)
    inside = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        inside[live] |= member[anc[live]]
        anc[live] = parent[anc[live]]
    return float(dur[member & ~inside].sum())


def layer_metrics(prof) -> dict:
    """Per-layer metric values of one traced call, all but trace_overhead_ratio."""
    spans, counts = prof["spans"], prof["counts"]
    out = {}
    for metric in METRICS:
        base, _, kind = metric.rpartition(".")
        calls, outer_s, self_s = spans.get(base, (0, 0.0, 0.0))
        if metric == "inequal.s":
            out[metric] = prof["inequal_s"]
        elif metric == "cli.report_s":
            # main's own time: argument parsing, JSON building and printing
            out[metric] = spans.get("cli.main", (0, 0.0, 0.0))[2]
        elif kind in ("calls", "s", "self_s"):
            out[metric] = {"calls": calls, "s": outer_s, "self_s": self_s}[kind]
        elif metric != "trace_overhead_ratio":
            out[metric] = counts.get(metric, 0)
    return out


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import inchom.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = inchom.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

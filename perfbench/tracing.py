"""Outside-in tracing: spans around calls into soldeg's public functions.

Nothing in the library is patched or wrapped. The traced op rebuilds a
report from the public calls in the order `verify_bounds` makes them, so
the spans time the same program; `decomposition_error` checks that the
rebuilt sd, Lfd and identity dimensions equal the untraced report. It also
ties the rebuilt work to the library's own: `verify_bounds(trace=...)` writes
one line per row adopted in the closures of its sd scan and identity
certificate, and that count must equal the adoptions of the rebuilt
closures of the same phases. A change to how `verify_bounds` orders its
work therefore fails the check instead of leaving the counters stale.
"""

from __future__ import annotations

import io
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans of public calls that a report makes; their sum is what
# `invariants.self_s` subtracts from the untraced op time.
# `groebner.buchberger` (check=False) is not one of them: only the traced op
# makes that extra call.
CALL_SPANS = (
    "invariants.dreg",
    "groebner.buchberger_checked",
    "vspace.closure",
    "linalg.span_contains",
    "groebner.ideal_dim",
    "harness.render",
)

# Work counters per pool pass; each must repeat exactly from round to round.
COUNTS = (
    "invariants.dreg_degrees",
    "vspace.closures",
    "vspace.insertions",
    "vspace.adoptions",
    "vspace.closure_passes",
    "vspace.max_dim",
    "linalg.field_mults",
    "linalg.span_contains_calls",
    "groebner.basis_size",
    "groebner.ideal_dim_calls",
    "rings.monomials_max",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self, first: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name over spans[first:]. Self time is
        the duration minus the time covered by direct children (one thread,
        so children never overlap)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        total, self_t = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            total[name] += end - start
            self_t[name] += end - start - child[i]
        return total, self_t

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def traced_report(sl, tr: Tracer, item, report, counts: dict) -> dict:
    """Rebuild one report from public calls under spans; returns the rebuilt
    invariants and adds work counters to `counts`."""
    F, order = item.sf.system, item.sf.order
    cache: dict = {}
    traced: list = []  # closures built by the sd scan and the identity

    def closure(d, trace=False):
        V = cache.get(d)
        if V is None:
            V = cache[d] = tr.call("vspace.closure", sl.v_space_closure, F, d, order)
            if trace:
                traced.append(V)
        return V

    def ideal_dim(G, e):
        counts["groebner.ideal_dim_calls"] += 1
        return tr.call("groebner.ideal_dim", sl.ideal_dim_le, G, e)

    def contains(V, g):
        counts["linalg.span_contains_calls"] += 1
        return tr.call("linalg.span_contains", V.span_contains, g)

    with tr.span("op"):
        d_reg = tr.call("invariants.dreg", sl.degree_of_regularity, F)
        G0 = tr.call("groebner.buchberger", sl.buchberger_reduced, F, order, check=False)
        G = tr.call("groebner.buchberger_checked", sl.buchberger_reduced, F, order)
        sd = None
        with tr.span("invariants.sd_scan"):
            # the untraced report's sd bounds the scan; a rebuild that needs
            # more degrees is a mismatch, reported by decomposition_error
            for d in range(max(1, G.max_degree), report.sd + 1):
                V = closure(d, trace=True)
                if all(contains(V, g) for g in G.polys):
                    sd = d
                    break
        lfd = identity = None
        if sd is not None:
            with tr.span("invariants.lfd_scan"):
                worst = 0
                for e in range(1, sd + 1):
                    if closure(e).span_dim() < ideal_dim(G, e):
                        worst = e
                lfd = worst + 1 if worst else 1
        if isinstance(d_reg, int) and F.max_degree() <= d_reg:
            with tr.span("invariants.identity"):
                identity = [closure(d_reg + 1, trace=True).span_dim(), ideal_dim(G, d_reg + 1)]
        tr.call("harness.render", sl.render_report, report)

    # outside every span: the library's own trace of the same report
    log = io.StringIO()
    relogged = sl.render_report(sl.verify_bounds(F, order, trace=log))

    stats = [V.stats for V in cache.values()]
    counts["invariants.dreg_degrees"] += d_reg if isinstance(d_reg, int) else d_reg.cap
    counts["vspace.closures"] += len(cache)
    counts["vspace.insertions"] += sum(s.insertions for s in stats)
    counts["vspace.adoptions"] += sum(s.adoptions for s in stats)
    counts["vspace.closure_passes"] += sum(s.closure_passes for s in stats)
    counts["vspace.max_dim"] = max(
        [counts["vspace.max_dim"]] + [V.span_dim() for V in cache.values()]
    )
    counts["linalg.field_mults"] += sum(s.field_mults for s in stats)
    counts["groebner.basis_size"] += len(G)
    if cache:
        counts["rings.monomials_max"] += math.comb(F.ring.nvars + max(cache), F.ring.nvars)
    return {"d_reg": d_reg, "bases_equal": G0.polys == G.polys, "gbd": G.max_degree,
            "sd": sd, "lfd": lfd, "identity": identity,
            "traced_adoptions": sum(V.stats.adoptions for V in traced),
            "library_adoptions": log.getvalue().count("\n"),
            "relogged_equal": relogged == sl.render_report(report)}


def decomposition_error(rebuilt: dict, report) -> str | None:
    """Why the rebuilt decomposition differs from the untraced report, or None."""
    if not rebuilt["bases_equal"]:
        return "check=False and check=True bases differ"
    for key in ("d_reg", "gbd", "sd", "lfd"):
        if rebuilt[key] != getattr(report, key):
            return f"rebuilt {key} {rebuilt[key]} != report {getattr(report, key)}"
    cert = next(c for c in report.certificates if c.id == "vspace_dim_identity")
    want = None if cert.verdict == "skipped" else [cert.lhs, cert.rhs]
    if rebuilt["identity"] != want:
        return f"rebuilt identity dims {rebuilt['identity']} != report {want}"
    if not rebuilt["relogged_equal"]:
        return "verify_bounds with a trace stream gave another report"
    if rebuilt["traced_adoptions"] != rebuilt["library_adoptions"]:
        return (f"rebuilt sd-scan and identity closures adopted {rebuilt['traced_adoptions']} "
                f"rows, verify_bounds traced {rebuilt['library_adoptions']}")
    return None


def layer_times(self_t: dict[str, float]) -> dict[str, float]:
    """Per-layer seconds from one round's self times per span name."""
    g = self_t.get
    return {
        "invariants.dreg_s": g("invariants.dreg", 0.0),
        "invariants.sd_scan_s": g("invariants.sd_scan", 0.0),
        "invariants.lfd_scan_s": g("invariants.lfd_scan", 0.0),
        "invariants.identity_s": g("invariants.identity", 0.0),
        "vspace.closure_s": g("vspace.closure", 0.0),
        "linalg.span_contains_s": g("linalg.span_contains", 0.0),
        "groebner.buchberger_s": g("groebner.buchberger", 0.0),
        "groebner.post_check_s": (
            g("groebner.buchberger_checked", 0.0) - g("groebner.buchberger", 0.0)
        ),
        "groebner.ideal_dim_s": g("groebner.ideal_dim", 0.0),
        "harness.gen_s": g("harness.gen", 0.0),
        "harness.parse_s": g("harness.parse", 0.0),
        "harness.render_s": g("harness.render", 0.0),
    }

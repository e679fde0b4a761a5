"""In-memory span tracer for the traced benchmark run.

The tracer wraps wsnlife's public functions at the module attribute
their caller looks up (``wsnlife.routing.solve_lp`` is the name
``solve_lifetime_lp`` calls, ``wsnlife.gainmodels.hyp2f1_terminating``
the one ``ct_gain_closed_form`` calls), so no file of the program is
edited.  Spans are kept in memory with their parent and written out at
the end; a span's self time is its duration minus its children's.
Functions called hundreds of thousands of times per round are counted
but get no span.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import wsnlife.diskanalysis as diskanalysis
import wsnlife.gainmodels as gainmodels
import wsnlife.harness as harness
import wsnlife.routing as routing

LADDER_PREFIX = "lp_scaling.n"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, child seconds]
        self._stack = []
        self.counts = Counter()
        self.largest_lp = None  # (m * n, m, n, nonzeros of A)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def spanned(self, fn, name, hook=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, name, hook=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced call site for the duration of the block."""
        saved = []
        for owner, attr, name, spans, hook in _SITES:
            original = getattr(owner, attr)
            wrap = self.spanned if spans else self.counted
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_layer(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics: {name: (value, unit)}."""
        total, self_s = defaultdict(float), defaultdict(float)
        rung = defaultdict(float)
        for name, start, end, parent, child in self.spans:
            total[name] += end - start
            self_s[name] += end - start - child
            if name == "lpsolver.solve_lp":
                while parent >= 0 and not self.spans[parent][0].startswith(LADDER_PREFIX):
                    parent = self.spans[parent][3]
                if parent >= 0:
                    rung[self.spans[parent][0][len(LADDER_PREFIX):]] += end - start
        c = self.counts
        scanned = c["routing.direct_out.scanned"]
        m_n, m, n, nnz = self.largest_lp or (0, 0, 0, 0)
        per = 1.0 / max(rounds, 1)
        out = {
            "routing.build_links.s": (total["routing.build_links"] * per, "s"),
            "routing.links": (c["routing.links"] * per, "count"),
            "routing.solve_lifetime_lp.self_s": (self_s["routing.solve_lifetime_lp"] * per, "s"),
            "routing.simulate_dynamic.s": (total["routing.simulate_dynamic"] * per, "s"),
            "routing.packets_routed": (c["routing.packets_routed"] * per, "count"),
            "routing.dynamic_cost.calls": (c["routing.dynamic_cost"] * per, "count"),
            "routing.direct_out.calls": (c["routing.direct_out"] * per, "count"),
            "routing.direct_out.useful_ratio": (
                c["routing.direct_out.returned"] / scanned if scanned else 0.0, "ratio"),
            "routing.shortest_path_lifetime.s": (total["routing.shortest_path_lifetime"] * per, "s"),
            "lpsolver.solve_lp.s": (total["lpsolver.solve_lp"] * per, "s"),
            "lpsolver.solve_lp.calls": (c["lpsolver.solve_lp"] * per, "count"),
        }
        for size in ("30", "60", "100"):
            out[f"lpsolver.solve_lp.s.n{size}"] = (rung[size] * per, "s")
        out.update({
            "lpsolver.tableau_mb": ((m + 1) * (n + m + 1) * 8 / 1e6 if m_n else 0.0, "MB"),
            "lpsolver.nnz_ratio": (nnz / m_n if m_n else 0.0, "ratio"),
            "gainmodels.ct_gain_monte_carlo.s": (total["gainmodels.ct_gain_monte_carlo"] * per, "s"),
            "gainmodels.ct_trials": (c["gainmodels.ct_trials"] * per, "count"),
            "gainmodels.cb_gain_monte_carlo.s": (total["gainmodels.cb_gain_monte_carlo"] * per, "s"),
            "gainmodels.cb_pattern_evals": (c["gainmodels.cb_pattern_evals"] * per, "count"),
            "gainmodels.ct_gain_closed_form.s": (total["gainmodels.ct_gain_closed_form"] * per, "s"),
            "gainmodels.invert_cluster_size.calls": (c["gainmodels.invert_cluster_size"] * per, "count"),
            "gainmodels.invert_cluster_size.s": (total["gainmodels.invert_cluster_size"] * per, "s"),
            "numerics.hyp2f1_terminating.calls": (c["numerics.hyp2f1_terminating"] * per, "count"),
            "numerics.hyp2f1_terminating.terms": (c["numerics.hyp2f1_terminating.terms"] * per, "count"),
            "numerics.hyp2f1_terminating.s": (total["numerics.hyp2f1_terminating"] * per, "s"),
            "diskanalysis.optimize_bypass.s": (total["diskanalysis.optimize_bypass"] * per, "s"),
            "diskanalysis.optimize_bypass.self_s": (self_s["diskanalysis.optimize_bypass"] * per, "s"),
            "diskanalysis.rings": (c["diskanalysis.rings"] * per, "count"),
            "harness.run_gain.self_s": (self_s["harness.run_gain"] * per, "s"),
            "harness.run_disk.self_s": (self_s["harness.run_disk"] * per, "s"),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "spans": [s[:4] for s in self.spans],
                "counts": dict(self.counts),
            }, fh)


# Hooks record counts that are not call counts: they run after the
# wrapped call returns, outside its span.

def _count_call(name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return hook


def _links_hook(tracer, args, kwargs, links):
    tracer.counts["routing.links"] += len(links.direct) + len(links.coop)


def _packets_hook(tracer, args, kwargs, lifetime):
    nodes = args[0] if args else kwargs["nodes"]
    per_round = sum(int(round(n.rate)) for n in nodes if n.rate > 0)
    tracer.counts["routing.packets_routed"] += round(lifetime * per_round)


def _direct_out_hook(tracer, args, kwargs, result):
    tracer.counts["routing.direct_out.returned"] += len(result)
    tracer.counts["routing.direct_out.scanned"] += len(args[0].direct)


def _solve_lp_hook(tracer, args, kwargs, result):
    tracer.counts["lpsolver.solve_lp"] += 1
    a = (args[0] if args else kwargs["lp"]).a
    m, n = a.shape
    if tracer.largest_lp is None or m * n > tracer.largest_lp[0]:
        tracer.largest_lp = (m * n, m, n, int((a != 0.0).sum()))


def _ct_trials_hook(tracer, args, kwargs, result):
    tracer.counts["gainmodels.ct_trials"] += args[2] if len(args) > 2 else kwargs["trials"]


def _cb_evals_hook(tracer, args, kwargs, result):
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    n_phi = args[4] if len(args) > 4 else kwargs.get("n_phi", 2048)
    geom = args[0] if args else kwargs["geom"]
    tracer.counts["gainmodels.cb_pattern_evals"] += trials * geom.n * n_phi


def _hyp2f1_hook(tracer, args, kwargs, result):
    tracer.counts["numerics.hyp2f1_terminating"] += 1
    tracer.counts["numerics.hyp2f1_terminating.terms"] += (args[0] if args else kwargs["args"]).L + 1


def _rings_hook(tracer, args, kwargs, result):
    tracer.counts["diskanalysis.rings"] += len(result.rings)


# (owner, attribute, layer name, record a span, hook)
_SITES = [
    (routing, "build_links", "routing.build_links", True, _links_hook),
    (routing, "shortest_path_lifetime", "routing.shortest_path_lifetime", True, None),
    (routing, "solve_lifetime_lp", "routing.solve_lifetime_lp", True, None),
    (routing, "solve_lp", "lpsolver.solve_lp", True, _solve_lp_hook),
    (routing, "simulate_dynamic", "routing.simulate_dynamic", True, _packets_hook),
    (routing, "dynamic_cost", "routing.dynamic_cost", False, None),
    (routing.LinkSet, "direct_out", "routing.direct_out", False, _direct_out_hook),
    (harness, "run_gain", "harness.run_gain", True, None),
    (harness, "run_disk", "harness.run_disk", True, None),
    (harness, "ct_gain_closed_form", "gainmodels.ct_gain_closed_form", True, None),
    (harness, "ct_gain_monte_carlo", "gainmodels.ct_gain_monte_carlo", True, _ct_trials_hook),
    (harness, "cb_gain_monte_carlo", "gainmodels.cb_gain_monte_carlo", True, _cb_evals_hook),
    (harness, "optimize_bypass", "diskanalysis.optimize_bypass", True, _rings_hook),
    (diskanalysis, "invert_cluster_size", "gainmodels.invert_cluster_size", True,
     _count_call("gainmodels.invert_cluster_size")),
    (gainmodels, "ct_gain_closed_form", "gainmodels.ct_gain_closed_form", True, None),
    (gainmodels, "hyp2f1_terminating", "numerics.hyp2f1_terminating", True, _hyp2f1_hook),
]

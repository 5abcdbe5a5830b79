"""Span tracer for the benchmark's traced mode.

The tracer changes no file of the package. It replaces each traced public
function in the namespace where its callers look it up (``training.adam_step``,
``rl.sample_ode``, ``nn.time_embedding``, ``GuidedOracle.guided_velocity``, ...)
with a wrapper that records one span per call: name, parent span, start, end,
the minor page faults taken during the call (``getrusage``), the rows the call
processed, and a workload-specific work count (node pairs, network
evaluations). Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

FIELDS = ("name", "parent", "start", "end", "minflt", "rows", "work")


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rows: int = 0, work: int = 0):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, rows, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        f0 = minflt()
        rec[2] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            rec[4] = minflt() - f0
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, rows=None, work=None, count_arg=None):
        """Replace owner.attr with a traced wrapper.

        rows(args, kwargs) and work(args, kwargs) give the span's counts. With
        count_arg, the callable passed at that position is wrapped to count its
        calls, and the span's work becomes rows * calls (network evaluations
        of an ODE solve).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls = [0]
            if count_arg is not None:
                inner = args[count_arg]

                def counted(*a, **k):
                    calls[0] += 1
                    return inner(*a, **k)

                args = args[:count_arg] + (counted,) + args[count_arg + 1 :]
            n = rows(args, kwargs) if rows else 0
            w = work(args, kwargs) if work else 0
            with tracer.span(name, n, w) as rec:
                out = fn(*args, **kwargs)
                if count_arg is not None:
                    rec[6] = n * calls[0]
            return out

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


class Summary:
    """Per-name (and per name-under-parent) totals over the spans whose
    outermost ancestor is named root (all spans when root is None)."""

    def __init__(self, spans, root: str | None = None):
        child = [0.0] * len(spans)
        top = list(range(len(spans)))
        for i, rec in enumerate(spans):
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
                top[i] = top[rec[1]]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.faults = defaultdict(int)
        self.rows = defaultdict(int)
        self.work = defaultdict(int)
        for i, (name, parent, start, end, flt, rows, work) in enumerate(spans):
            if root is not None and spans[top[i]][0] != root:
                continue
            parent_name = spans[parent][0] if parent >= 0 else ""
            for key in (name, (name, parent_name)):
                self.total[key] += end - start
                self.self_time[key] += end - start - child[i]
                self.calls[key] += 1
                self.faults[key] += flt
                self.rows[key] += rows
                self.work[key] += work


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, facts: dict) -> dict:
    """Per-layer metrics of one worker; a layer the workload never calls reads 0.

    Timed-path metrics count only spans inside a "bench.op" span; set-up
    metrics (pretraining, oracle construction) only spans inside "bench.setup".

    facts carries what only the workload knows: oracle.block_mib (computed
    kernel-block bytes) and peak_rss_mib. Each qipo_iterate call here is one
    renewal cycle.
    """
    s = Summary(spans, "bench.op")
    setup = Summary(spans, "bench.setup")

    def per_row(name, scale=1e6):
        return _ratio(s.total[name], s.rows[name], scale)

    def per_call(name):
        return _ratio(s.total[name], s.calls[name], 1e6)

    def per_pair(key):
        return _ratio(s.total[key], s.work[key], 1e9)

    qipo = s.total["rl.qipo_iterate"]
    renewal = s.total["rl.build_support_set"]
    evals = s.total[("rl.sample_policy_actions", "rl.qipo_iterate")]
    block = facts.get("oracle.block_mib", 0.0)
    out = {
        "nn.forward_cached.us_per_row": per_row("nn.forward_cached"),
        "nn.backward.us_per_row": per_row("nn.backward"),
        "nn.time_embedding.us_per_row": per_row("nn.time_embedding"),
        "nn.forward.us_per_row": per_row("nn.forward"),
        "nn.adam_step.us_per_call": per_call("nn.adam_step"),
        "nn.soft_update.us_per_call": per_call("nn.soft_update"),
        "nn.forward.minflt_per_row": _ratio(s.faults["nn.forward"], s.rows["nn.forward"]),
        "nn.forward_cached.minflt_per_row": _ratio(
            s.faults["nn.forward_cached"], s.rows["nn.forward_cached"]
        ),
        "training.build_weighted_batch.us_per_row": per_row("training.build_weighted_batch"),
        "training.loss.self_us_per_row": _ratio(
            s.self_time["training.loss"], s.rows["training.loss"], 1e6
        ),
        "paths.perturb.us_per_row": per_row("paths.perturb"),
        "training.loss_exact.ns_per_pair": per_pair("training.loss_exact"),
        "sampling.sample_ode.us_per_row_nfe": _ratio(
            s.total["sampling.sample_ode"], s.work["sampling.sample_ode"], 1e6
        ),
        "sampling.nfe_per_row": _ratio(
            s.work["sampling.sample_ode"], s.rows["sampling.sample_ode"]
        ),
        "rl.build_support_set.s_per_renewal": _ratio(renewal, s.calls["rl.qipo_iterate"]),
        "rl.renewal_share": _ratio(renewal, qipo),
        "rl.fit.us_per_row": _ratio(qipo - renewal - evals, s.rows["rl.qipo_iterate"], 1e6),
        "rl.behavior_pretrain.s": setup.total["rl.behavior_pretrain"],
        "oracle.block_mb": block,
        "oracle.rss_over_block": _ratio(facts.get("peak_rss_mib", 0.0), block),
        "oracle.init_s": setup.total["oracle.init"],
        "mixtures.gmm_sample.s": (
            setup.total["mixtures.gmm_sample"] + s.total["mixtures.gmm_sample"]
        ),
    }
    for field in ("guided_velocity", "intermediate_energy", "marginal_logdensity"):
        out[f"oracle.{field}.ns_per_pair"] = per_pair((f"oracle.{field}", "bench.op"))
    return out

"""Outside-in layer measurement: span tracing, operator counting and
profile micro-timings.

The tracer replaces module attributes that `solve` and `replay_verify`
look up at call time with wrappers that record a span per call, and puts
the originals back afterwards.  Nothing inside the package changes.
Profile operators are counted in a separate pass because wrapping them
costs far more than wrapping the span-level functions.
"""

from __future__ import annotations

import operator
import statistics
import time
from collections import defaultdict, deque
from contextlib import contextmanager

# (module, attribute, span name).  The same function is wrapped once per
# module that looks it up, each wrapper around the original, so spans of
# one name never nest in each other.
WRAPPED = (
    ("pgsi.iteration", "preprocess", "arena.preprocess"),
    ("pgsi.iteration", "valuate_bellman_ford", "valuation.bellman_ford"),
    ("pgsi.iteration", "valuate_dijkstra", "valuation.dijkstra"),
    ("pgsi.iteration", "is_reasonable", "valuation.reasonable"),
    ("pgsi.iteration", "improvements", "valuation.improvements"),
    ("pgsi.iteration", "extract_deterministic", "iteration.extract"),
    ("pgsi.iteration", "response_strategy", "valuation.response"),
    ("pgsi.iteration", "find_dominated_cycle_nodes", "arena.odd_cycles"),
    ("pgsi.iteration", "reachable", "arena.reachable"),
    ("pgsi.valuation", "attractor", "arena.attractor"),
    ("pgsi.valuation", "find_one_dominated_cycle_nodes",
     "arena.odd_cycles_one"),
    ("pgsi.arena", "find_dominated_cycle_nodes", "arena.odd_cycles"),
    ("pgsi.arena", "attractor", "arena.attractor"),
)

PROFILE_OPS = (("add", "__add__"), ("lt", "__lt__"), ("eq", "__eq__"),
               ("sub", "__sub__"))

# Profile micro-timings: at most this many profile pairs, each operator
# timed in this many batches of about this many seconds.
TIMED_PAIRS = 512
TIMING_BATCHES = 7
TIMING_BATCH_S = 0.02


class Tracer:
    """Keeps spans in memory as (name, start_ns, end_ns, parent index,
    instance label); the parent is the innermost span open at the start."""

    def __init__(self):
        self.spans: list = []
        self.instance = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.instance)

    def _wrap(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class TimedPolicy:
    """Forwards to a switch policy and records each `pick` as a span."""

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        self._inner = inner
        self._tracer = tracer

    def pick(self, *args):
        with self._tracer.span("iteration.pick"):
            return self._inner.pick(*args)


class OpCounter:
    """Counts calls of the profile operators while installed."""

    def __init__(self):
        self.counts = {key: 0 for key, _ in PROFILE_OPS}

    def _wrap(self, key, fn):
        counts = self.counts

        def counted(a, b):
            counts[key] += 1
            return fn(a, b)
        return counted

    @contextmanager
    def installed(self, cls):
        saved = []
        try:
            for key, dunder in PROFILE_OPS:
                original = cls.__dict__[dunder]
                saved.append((dunder, original))
                setattr(cls, dunder, self._wrap(key, original))
            yield self
        finally:
            for dunder, original in saved:
                setattr(cls, dunder, original)


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over all spans.  Self time is a span's duration
    minus the durations of its direct children."""
    children = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    initial_bf = audit = 0
    audits = 0
    bf_seen = set()
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        total[name] += duration
        self_ns[name] += duration - children[index]
        calls[name] += 1
        if name == "valuation.bellman_ford":
            # solve runs Bellman-Ford first, then every audit_every-th
            # Dijkstra iteration as an audit
            if parent in bf_seen:
                audit += duration
                audits += 1
            else:
                bf_seen.add(parent)
                initial_bf += duration
    valuation_ns = (total["valuation.bellman_ford"]
                    + total["valuation.dijkstra"])
    s = 1e-9
    return {
        "valuation.dijkstra_s": self_ns["valuation.dijkstra"] * s,
        "valuation.dijkstra_calls": calls["valuation.dijkstra"],
        "valuation.improvements_s": total["valuation.improvements"] * s,
        "arena.odd_cycles_s": total["arena.odd_cycles"] * s,
        "arena.odd_cycles_calls": calls["arena.odd_cycles"],
        "iteration.replay_verify_s": total["iteration.replay_verify"] * s,
        "iteration.replay_verify_self_s":
            self_ns["iteration.replay_verify"] * s,
        "valuation.bellman_ford_s": initial_bf * s,
        "valuation.audit_s": audit * s,
        "valuation.audit_calls": audits,
        "valuation.audit_share": audit / valuation_ns if valuation_ns else 0.0,
        "valuation.reasonable_s": self_ns["valuation.reasonable"] * s,
        "iteration.pick_s": total["iteration.pick"] * s,
        "iteration.solve_self_s": self_ns["iteration.solve"] * s,
        "arena.preprocess_s": self_ns["arena.preprocess"] * s,
        "arena.attractor_s": total["arena.attractor"] * s,
        "valuation.response_s": total["valuation.response"] * s,
        "iteration.extract_s": total["iteration.extract"] * s,
        "oracle.solve_s": total["oracle.solve"] * s,
        "oracle.calls": calls["oracle.solve"],
    }


def _ns_per_op(op, xs, ys) -> float:
    """Median over TIMING_BATCHES batches of the time per `op(x, y)`
    call."""
    def run(reps):
        started = time.perf_counter_ns()
        for _ in range(reps):
            deque(map(op, xs, ys), 0)
        return time.perf_counter_ns() - started

    reps = max(1, int(TIMING_BATCH_S * 1e9 / max(run(1), 1)))
    return statistics.median(run(reps) / (reps * len(xs))
                             for _ in range(TIMING_BATCHES))


def profile_timings(valuations: list) -> dict:
    """Time +, < and == on pairs of finite profiles, each pair taken from
    one of the given valuations, at most TIMED_PAIRS pairs overall."""
    pairs = []
    for vals in valuations:
        finite = [vals[v] for v in sorted(vals) if vals[v].is_finite]
        pairs.extend(zip(finite, finite[1:]))
    if not pairs:
        raise ValueError("no two finite profiles in one valuation to time")
    dimension = max(a.dimension for a, _ in pairs)
    step = max(1, len(pairs) // TIMED_PAIRS)
    pairs = pairs[::step][:TIMED_PAIRS]
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    return {
        "profiles.add_ns": _ns_per_op(operator.add, xs, ys),
        "profiles.lt_ns": _ns_per_op(operator.lt, xs, ys),
        "profiles.eq_ns": _ns_per_op(operator.eq, xs, ys),
        "profiles.dim": dimension,
    }

"""Span tracing around faultdir's public entry points, applied from outside.

The program is not edited: `Tracer.installed()` swaps module bindings and
class attributes for timing wrappers and restores them on exit, and
`Tracer.wrap_runtime()` re-wraps the handler and timer entries that
`Directory` and `FailureEngine` put into `Simulator.handlers`/`timers` as
bound methods when they are constructed.

A span is (name, start, end, parent span index, op label). Spans nest, so
a layer's self time is its span's duration minus the time its child spans
cover; this matters where handlers call handlers (`drain_deferred`) and
where every layer calls `dijkstra`.
"""
from __future__ import annotations

import contextlib
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

from faultdir import bounds, cli, failure, graph, partition, protocol, scenario, sim

# (owner, attribute, span name). Module-level functions are patched in
# every module that imported them by name, because callers resolve the
# name in their own module's globals.
PATCHES = [
    (graph, "dijkstra", "graph.dijkstra"),
    (sim, "dijkstra", "graph.dijkstra"),
    (partition, "dijkstra", "graph.dijkstra"),
    (scenario, "build_spt", "graph.build_spt"),
    (graph.ShortestPathTree, "repair", "graph.spt_repair"),
    (graph.Graph, "distance", "graph.distance"),
    (scenario, "build_hierarchy", "partition.build_hierarchy"),
    (partition.Hierarchy, "measure", "partition.measure"),
    (scenario, "preprocess_leaders", "partition.preprocess_leaders"),
    (partition.Cluster, "diameter", "partition.cluster_diameter"),
    (scenario, "verify_partition", "partition.verify"),
    (sim.Simulator, "run", "sim.run"),
    (sim.CostLedger, "total", "sim.ledger_total"),
    (sim.Simulator, "charge_only", "sim.charge_only"),
    (protocol.Directory, "start_publish", "protocol.start"),
    (protocol.Directory, "start_lookup", "protocol.start"),
    (protocol.Directory, "start_move", "protocol.start"),
    (protocol.Directory, "reevaluate", "protocol.reevaluate"),
    (failure.FailureEngine, "fail_edge", "failure.fail_edge"),
    (failure.FailureEngine, "setup_index", "failure.setup_index"),
    (scenario, "validate_scenario", "scenario.validate"),
    (scenario.Runtime, "record", "scenario.record"),
    (cli, "check_bounds", "bounds.check_bounds"),
    (bounds.LedgerView, "total", "bounds.ledger_view_total"),
    (cli, "_write_artifacts", "cli.write_artifacts"),
]

# owner class of a bound handler/timer -> span name prefix
OWNERS = [(protocol.Directory, "protocol"), (failure.FailureEngine, "failure")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.op = None  # label of the scenario event being driven
        self._stack: list = []  # [span index, time covered by children]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                spans[idx] = (name, t0, t1, parent, self.op)

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def wrap_runtime(self, rt) -> None:
        """Re-wrap the bound methods registered in the simulator's tables."""
        for table, suffix in ((rt.sim.handlers, "handler"), (rt.sim.timers, "timer")):
            for key, fn in table.items():
                for cls, prefix in OWNERS:
                    if isinstance(getattr(fn, "__self__", None), cls):
                        table[key] = self.wrap(f"{prefix}.{suffix}", fn)

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines, times relative to the first."""
        t_base = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(t0 - t_base, 7),
                                     round(t1 - t_base, 7), parent, op]))
                fh.write("\n")

"""Repair time probe: microseconds per `ShortestPathTree.repair` on one graph.

Builds every node's shortest path tree over the graph, then kills the
first `--failures` edges of a shuffle seeded with 0 whose loss keeps the
graph connected, and after each death repairs every tree that holds the
edge, as the failure engine does once every node has heard of it. Only the
`repair` calls are timed, with the `time.perf_counter` clock; the whole
sequence runs `--repeat` times on fresh trees and the least total counts.
It prints the repairs, the nodes they reattached and µs per repair. The
module is named so that pytest does not collect it.

    PYTHONPATH=src python tests/repair_time.py grid:32x32 --failures 20 --repeat 5
    PYTHONPATH=src python tests/repair_time.py grid:12x12 --failures 40

The graph spec is the one `faultdir gen --graph` takes. Node trees do not
depend on the partition mode, so there is none to give.
"""
from __future__ import annotations

import argparse
import gc
import random
import sys
from time import perf_counter

from faultdir.cli import _graph_spec
from faultdir.graph import build_spt, child_endpoint, subtree
from faultdir.scenario import build_graph


def kill_sequence(spec: dict, failures: int) -> list:
    """Up to `failures` edges in a seeded order, each alive and not a
    bridge once the ones before it are dead."""
    g = build_graph(spec)
    edges = g.alive_edges()
    random.Random(0).shuffle(edges)
    out = []
    for e in edges:
        if len(out) == failures:
            break
        if not g.would_disconnect(e):
            g.kill_edge(e)
            out.append(e)
    return out


def repair_all(spec: dict, kills: list) -> tuple[int, int, float]:
    """Fresh trees, then each kill and the repairs of the trees holding
    it. Returns (repairs, lost nodes, seconds spent in `repair`)."""
    g = build_graph(spec)
    trees = [build_spt(g, x) for x in g.nodes()]
    repairs = lost = 0
    took = 0.0
    for e in kills:
        g.kill_edge(e)
        holders = []
        for t in trees:
            cut = child_endpoint(t.parent, e)
            if cut is not None:
                holders.append(t)
                lost += len(subtree(g._ever, t.parent, cut))
        repairs += len(holders)
        gc.collect()
        t0 = perf_counter()
        for t in holders:
            t.repair(g, e)
        took += perf_counter() - t0
    return repairs, lost, took


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="repair_time.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("graph", type=_graph_spec)
    ap.add_argument("--failures", type=int, default=20,
                    help="edges to kill (default 20)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs to take the minimum over (default 3)")
    args = ap.parse_args(argv)
    kills = kill_sequence(args.graph, args.failures)
    best = None
    for _ in range(args.repeat):
        repairs, lost, took = repair_all(args.graph, kills)
        best = took if best is None else min(best, took)
    per = best / repairs * 1e6 if repairs else 0.0
    print(f"{len(kills)} failures: {repairs} repairs, {lost} lost nodes "
          f"({lost / max(repairs, 1):.1f} per repair), {per:.1f} us per repair "
          f"(min of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

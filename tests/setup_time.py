"""Set-up time probe: how far `Runtime()` is from the all-pairs Dijkstra floor.

Builds the runtime for one graph spec and partition mode (no events) and
times `Runtime()` with the `time.perf_counter` clock, taking the minimum
over `--repeat` builds. It then times one `dijkstra` from every node of
the same graph, the least work any set-up that reads all distance maps
must do, with the same minimum, and prints both times and their ratio.
The module is named so that pytest does not collect it.

    PYTHONPATH=src python tests/setup_time.py grid:32x32 weak
    PYTHONPATH=src python tests/setup_time.py grid:14x14 weak --repeat 10

The graph spec is the one `faultdir gen --graph` takes; rho is 2 and the
partition seed 0.
"""
from __future__ import annotations

import argparse
import gc
import sys
from time import perf_counter

from faultdir.cli import _graph_spec
from faultdir.graph import dijkstra
from faultdir.scenario import Runtime, build_graph


def best_of(repeat: int, work) -> float:
    """Least wall time of `repeat` calls of `work()`, in seconds. Each call
    starts after a full garbage collection, so that no call pays for
    collecting the cycles an earlier one left behind."""
    best = None
    for _ in range(repeat):
        gc.collect()
        t0 = perf_counter()
        work()
        took = perf_counter() - t0
        best = took if best is None else min(best, took)
    return best


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="setup_time.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("graph", type=_graph_spec)
    ap.add_argument("mode", nargs="?", choices=("strong", "weak"), default="weak")
    ap.add_argument("--repeat", type=int, default=3,
                    help="builds to take the minimum over (default 3)")
    args = ap.parse_args(argv)
    sc = {"name": "setup", "mode": args.mode, "rho": 2, "seed": 0,
          "graph": args.graph, "events": []}
    setup = best_of(args.repeat, lambda: Runtime(sc))
    adj = build_graph(args.graph)._adj
    floor = best_of(args.repeat, lambda: [dijkstra(adj, u) for u in adj])
    print(f"{args.mode} {len(adj)} nodes: Runtime() {setup:.3f} s, "
          f"all-pairs dijkstra {floor:.3f} s, ratio {setup / floor:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Heap probe: how much memory a built `Runtime` holds, and where.

Builds the runtime for one graph spec and partition mode (no events) under
stdlib `tracemalloc`, then prints the traced heap that stays allocated
after `Runtime()` returns, the peak while building, and the five source
lines holding the most of it. With `--ops N` it then runs a publish and N
generated lookups and moves (half each, no failures, generator seed 0),
prints the heap again, and the search balls `Directory._balls` holds: its
entries (one per node and level asked since the node's knowledge last
changed) and the memory allocated in `Directory._ball` that is still
held. With `--fill` it then builds every node's ball at every level and
prints the memo again: the most it can hold without news.
The module is named so that pytest does not collect it.

    PYTHONPATH=src python tests/heap.py grid:32x32 weak
    PYTHONPATH=src python tests/heap.py grid:12x12 strong
    PYTHONPATH=src python tests/heap.py grid:32x32 weak --ops 200 --fill

The graph spec is the one `faultdir gen --graph` takes; rho is 2 and the
partition seed 0. Tracing makes the build and the run several times slower.
"""
from __future__ import annotations

import argparse
import inspect
import os
import sys
import tracemalloc

from faultdir.cli import _gen_scenario, _graph_spec
from faultdir.protocol import Directory
from faultdir.scenario import Runtime

MB = 1024 * 1024
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="heap.py", description=__doc__.split("\n")[0])
    ap.add_argument("graph", type=_graph_spec)
    ap.add_argument("mode", nargs="?", choices=("strong", "weak"), default="weak")
    ap.add_argument("--ops", type=int, default=0,
                    help="then run N generated lookups and moves")
    ap.add_argument("--fill", action="store_true",
                    help="then build every node's ball at every level")
    args = ap.parse_args(argv)
    sc = _gen_scenario(args.graph, args.mode, 2, 0, ops=args.ops, failures=0,
                       horizon=2000) if args.ops else \
        {"name": "heap", "mode": args.mode, "rho": 2, "seed": 0,
         "graph": args.graph, "events": []}
    tracemalloc.start()
    rt = Runtime(sc)
    print(f"{args.mode} {rt.g.n} nodes, {rt.hier.top + 1} levels: "
          f"heap after Runtime() {report()}")
    if args.ops:
        tracemalloc.reset_peak()
        rt.run()
        print(f"after {args.ops} ops: heap {report()}")
        print(balls(rt))
    if args.fill:
        for u in rt.g.nodes():
            for i in range(rt.hier.top + 1):
                rt.dir._ball(u, i)
        print(f"filled: {balls(rt)}")
    tracemalloc.stop()
    return 0


def balls(rt) -> str:
    """The held search balls: entries, and the traced memory allocated in
    `Directory._ball` that is still held."""
    lines, start = inspect.getsourcelines(Directory._ball)
    held = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(
        True, inspect.getsourcefile(Directory), lineno)
        for lineno in range(start, start + len(lines))]).statistics("filename")
    entries = sum(len(levels) for levels in rt.dir._balls.values())
    return (f"  held search balls: {entries} entries for "
            f"{len(rt.dir._balls)} nodes, "
            f"{sum(s.size for s in held) / MB:.2f} MB in "
            f"{sum(s.count for s in held)} blocks")


def report() -> str:
    """The traced heap and peak, then the five largest allocation sites."""
    held, peak = tracemalloc.get_traced_memory()
    sites = tracemalloc.take_snapshot().statistics("lineno")
    out = [f"{held / MB:.2f} MB (peak {peak / MB:.2f} MB)"]
    for stat in sites[:5]:
        frame = stat.traceback[0]
        out.append(f"  {stat.size / MB:8.2f} MB  {stat.count:9d} blocks  "
                   f"{os.path.relpath(frame.filename, ROOT)}:{frame.lineno}")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Heap probe: how much memory a built `Runtime` holds, and where.

Builds the runtime for one graph spec and partition mode (no events) under
stdlib `tracemalloc`, then prints the traced heap that stays allocated
after `Runtime()` returns, the peak while building, and the five source
lines holding the most of it. The module is named so that pytest does not
collect it.

    PYTHONPATH=src python tests/heap.py grid:32x32 weak
    PYTHONPATH=src python tests/heap.py grid:12x12 strong

The graph spec is the one `faultdir gen --graph` takes; rho is 2 and the
partition seed 0. Tracing makes the build several times slower.
"""
from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

from faultdir.cli import _graph_spec
from faultdir.scenario import Runtime

MB = 1024 * 1024
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="heap.py", description=__doc__.split("\n")[0])
    ap.add_argument("graph", type=_graph_spec)
    ap.add_argument("mode", nargs="?", choices=("strong", "weak"), default="weak")
    args = ap.parse_args(argv)
    sc = {"name": "heap", "mode": args.mode, "rho": 2, "seed": 0,
          "graph": args.graph, "events": []}
    tracemalloc.start()
    rt = Runtime(sc)
    held, peak = tracemalloc.get_traced_memory()
    sites = tracemalloc.take_snapshot().statistics("lineno")
    tracemalloc.stop()
    print(f"{args.mode} {rt.g.n} nodes, {rt.hier.top + 1} levels: "
          f"heap after Runtime() {held / MB:.2f} MB (peak {peak / MB:.2f} MB)")
    for stat in sites[:5]:
        frame = stat.traceback[0]
        print(f"  {stat.size / MB:8.2f} MB  {stat.count:9d} blocks  "
              f"{os.path.relpath(frame.filename, ROOT)}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

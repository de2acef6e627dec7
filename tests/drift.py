"""Per-op drift probe: does `Runtime.run()` cost the same per op as the
workload grows?

For each op count it generates an 8x8 strong-grid scenario (a publish,
then that many lookups and moves, half each, no failures, generator seed
0, rho 2), builds the `Runtime`, and times `run()` alone with the
`time.perf_counter` clock, taking the minimum over `--repeat` runs. It
prints ms per op for each count, then the ratio of the last count's ms/op
to the first's: 1.0 is flat, and a per-op cost that grows with the number
of ops issued so far shows as a larger ratio. The module is named so that
pytest does not collect it.

    PYTHONPATH=src python tests/drift.py
    PYTHONPATH=src python tests/drift.py --ops 100,1600 --repeat 3
"""
from __future__ import annotations

import argparse
import sys
from time import perf_counter

from faultdir.cli import _gen_scenario
from faultdir.scenario import Runtime

GRAPH = {"kind": "grid", "rows": 8, "cols": 8}


def ms_per_op(ops: int, repeat: int) -> float:
    sc = _gen_scenario(GRAPH, "strong", 2, 0, ops=ops, failures=0,
                       horizon=2000, move_frac=0.5)
    best = None
    for _ in range(repeat):
        rt = Runtime(sc)
        t0 = perf_counter()
        rt.run()
        took = perf_counter() - t0
        best = took if best is None else min(best, took)
    return best * 1000 / ops


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="drift.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--ops", default="100,400,1600,6400,10000",
                    help="comma-separated op counts, ascending")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per count; the fastest counts")
    args = ap.parse_args(argv)
    counts = [int(x) for x in args.ops.split(",")]
    rates = []
    print(f"{'ops':>6}  {'ms/op':>7}")
    for ops in counts:
        rates.append(ms_per_op(ops, args.repeat))
        print(f"{ops:>6}  {rates[-1]:7.3f}", flush=True)
    print(f"ratio {counts[-1]}/{counts[0]}: {rates[-1] / rates[0]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

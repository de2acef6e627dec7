"""Sweep generated valid scenarios beyond the pinned corpus shapes.

Each family is a fixed table of `faultdir gen` scenarios (rho 2, horizon
5000, half the ops moves). Every run goes through the corpus's outcome
pipeline (`golden.corpus.outcome`: run, write the artifacts, load the
saved record, `validate_record`, `check_bounds`), and the sweep prints one
line per run: `ok`, the failing formula ids, or the text of the
`RuntimeError` the run raised. It ends with a count per family. Nothing is
pinned; the module is named so that pytest does not collect it.

    PYTHONPATH=src python tests/sweep.py                # every family
    PYTHONPATH=src python tests/sweep.py ring20 grid16  # some of them
"""
from __future__ import annotations

import sys
import tempfile

from golden.corpus import outcome

MODES = ("strong", "weak")


def _runs(spec, seeds, ops: int, failures: int) -> dict[str, dict]:
    """name -> `_gen_scenario` arguments; `spec(seed)` is the graph."""
    return {f"{mode}-s{seed}": dict(graph_spec=spec(seed), mode=mode, rho=2,
                                    seed=seed, ops=ops, failures=failures,
                                    horizon=5000, move_frac=0.5)
            for mode in MODES for seed in seeds}


FAMILIES = {
    "ring20": _runs(lambda seed: {"kind": "ring", "n": 20}, range(10), 60, 10),
    "rand48": _runs(lambda seed: {"kind": "random", "n": 48, "p": 0.1,
                                  "seed": seed}, range(200, 215), 60, 10),
    "grid16": _runs(lambda seed: {"kind": "grid", "rows": 16, "cols": 16},
                    range(6), 60, 12),
}


def sweep(family: str) -> int:
    """Print each run's outcome; return how many were not clean."""
    table, bad = FAMILIES[family], 0
    with tempfile.TemporaryDirectory() as work_dir:
        for name in table:
            got = outcome(name, work_dir, table)
            says = got.get("error") or " ".join(got["failing"]) or "ok"
            bad += says != "ok"
            print(f"{family} {name}: {says}", flush=True)
    print(f"{family}: {bad} of {len(table)} runs not clean", flush=True)
    return bad


if __name__ == "__main__":
    names = sys.argv[1:] or list(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        sys.exit(f"unknown families {unknown}; known: {sorted(FAMILIES)}")
    sys.exit(1 if sum(map(sweep, names)) else 0)

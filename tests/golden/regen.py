"""Golden artifact digests: the scenarios and how their digests are made.

``tests/test_golden.py`` runs each scenario below through ``faultdir run``
and compares the sha256 of ``record.json``, ``events.jsonl`` and
``ledger.csv`` with the values pinned in ``digests.json``. A refactor or
performance change must leave every digest as it is.

Pin newly added scenarios with

    PYTHONPATH=src python tests/golden/regen.py

which fills in only the scenarios missing from ``digests.json`` and never
rewrites an existing pin. To re-pin a scenario, delete its entry by hand
first; do that only when changing records, event logs or ledgers is the
stated point of the change, and say so in CHANGES.md. Re-pinning to make
a failing golden test pass is not allowed.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from faultdir.cli import _gen_scenario, main

ARTIFACTS = ("record.json", "events.jsonl", "ledger.csv")
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

# name -> keyword arguments of cli._gen_scenario
SCENARIOS = {
    "grid-moves": dict(graph_spec={"kind": "grid", "rows": 5, "cols": 5},
                       mode="strong", rho=2, seed=3, ops=16, failures=0,
                       horizon=2000),
    "grid-fail": dict(graph_spec={"kind": "grid", "rows": 4, "cols": 5},
                      mode="strong", rho=2, seed=1, ops=8, failures=2,
                      horizon=2000, concurrent=False),
    "grid-fail-during": dict(graph_spec={"kind": "grid", "rows": 4, "cols": 5},
                             mode="strong", rho=2, seed=2, ops=8, failures=2,
                             horizon=2000),
    "weak-random": dict(graph_spec={"kind": "random", "n": 14, "p": 0.3,
                                    "seed": 2},
                        mode="weak", rho=2, seed=4, ops=8, failures=1,
                        horizon=2000),
    "weak-grid": dict(graph_spec={"kind": "grid", "rows": 6, "cols": 6},
                      mode="weak", rho=2, seed=6, ops=10, failures=2,
                      horizon=2000),
    "weighted-ring": dict(graph_spec={"kind": "ring", "n": 12,
                                      "weights": [1, 2, 3, 1, 2, 3,
                                                  1, 2, 3, 1, 2, 3]},
                          mode="strong", rho=2, seed=5, ops=8, failures=1,
                          horizon=2000),
    # layer extension installed at the root itself, plus a resend exchange
    "ring-ext-local": dict(graph_spec={"kind": "ring", "n": 12},
                           mode="strong", rho=2, seed=5, ops=10, failures=2,
                           horizon=2000),
    # layer extension handed to the detached part: path update txn, band
    # install at the new leader, and an aborted lock round
    "ring-ext-handoff": dict(graph_spec={"kind": "ring", "n": 10},
                             mode="strong", rho=2, seed=1, ops=10, failures=2,
                             horizon=2000),
    # weak-mode split: the new part re-roots its tree at the member nearest
    # to the lost leader, prunes nodes off it and transfers the leadership
    "weak-split-reroot": dict(graph_spec={"kind": "grid", "rows": 5,
                                          "cols": 5},
                              mode="weak", rho=2, seed=3, ops=10, failures=3,
                              horizon=2000),
}


def scenario(name: str) -> dict:
    return _gen_scenario(**SCENARIOS[name])


def run_named(name: str, work_dir: str) -> str:
    """Run one scenario with `faultdir run`; returns its artifact directory."""
    scen_path = os.path.join(work_dir, f"{name}.json")
    out_dir = os.path.join(work_dir, name)
    with open(scen_path, "w") as fh:
        json.dump(scenario(name), fh)
    main(["run", scen_path, "--out-dir", out_dir])
    return out_dir


def artifact_digests(name: str, work_dir: str) -> dict[str, str]:
    """Run one scenario and hash its artifacts."""
    out_dir = run_named(name, work_dir)
    out = {}
    for art in ARTIFACTS:
        with open(os.path.join(out_dir, art), "rb") as fh:
            out[art] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def regenerate() -> None:
    """Pin every scenario that has no entry yet; existing pins stay."""
    pinned = load_digests() if os.path.exists(DIGESTS_PATH) else {}
    missing = [name for name in SCENARIOS if name not in pinned]
    with tempfile.TemporaryDirectory() as work_dir:
        for name in missing:
            pinned[name] = artifact_digests(name, work_dir)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(missing)} new of {len(pinned)} scenarios -> {DIGESTS_PATH}",
          file=sys.stderr)


if __name__ == "__main__":
    regenerate()

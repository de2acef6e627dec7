"""Pinned scenarios: every named run whose outcome must not move.

``SCENARIOS`` holds two groups: the nine small ``GOLDEN`` runs, one shape
of run each, and 262 ``GENERATED`` runs, bigger and with failures and
moves. Each entry in ``corpus.json`` holds, for one scenario run in
process through ``Runtime`` and written by ``faultdir run``'s artifact
writer, the sha256 of ``record.json``, ``events.jsonl`` and ``ledger.csv``
apart and the ids of the bound formulas that fail when the saved record
goes through ``faultdir check``'s pipeline: load, ``validate_record``,
``check_bounds``. For a run that raises ``RuntimeError``, the entry holds
the exception text alone.

    PYTHONPATH=src python tests/golden/corpus.py            # pin missing
    PYTHONPATH=src python tests/golden/corpus.py --check    # compare all
    PYTHONPATH=src python tests/golden/corpus.py --check NAME ...

The re-pin rule: pinning fills in only the scenarios missing from
``corpus.json`` and never rewrites an existing entry. To re-pin, delete
the entries by hand first, only when moving them is the stated point of
the change, and say in CHANGES.md which fields moved. Re-pinning to make
a failing test pass is not allowed. ``--check`` prints one line per field
that differs and exits 1 if any does. ``tests/test_corpus.py`` checks
every golden and ``SLICE`` in tier-1, and that every pin but its
listed known defects has no error and no failing formula.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from faultdir.bounds import check_bounds, validate_record
from faultdir.cli import _gen_scenario, _write_artifacts
from faultdir.scenario import Runtime

ARTIFACTS = ("record.json", "events.jsonl", "ledger.csv")
CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "corpus.json")

# name -> keyword arguments of cli._gen_scenario
GOLDEN = {
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

SHAPES = {
    "rand24": lambda seed: {"kind": "random", "n": 24, "p": 0.2, "seed": seed},
    "ring14": lambda seed: {"kind": "ring", "n": 14},
    "grid8": lambda seed: {"kind": "grid", "rows": 8, "cols": 8},
    "ring20": lambda seed: {"kind": "ring", "n": 20},
    "rand48": lambda seed: {"kind": "random", "n": 48, "p": 0.1, "seed": seed},
    "grid16": lambda seed: {"kind": "grid", "rows": 16, "cols": 16},
}


def _family(shape: str, seeds, tail: str, **kwargs) -> dict[str, dict]:
    """`<shape>-<mode>-s<seed>-<tail>` -> `_gen_scenario` arguments, both
    modes, rho 2, the graph's seed (if it has one) doubling as the
    scenario's."""
    return {f"{shape}-{mode}-s{seed}-{tail}": dict(
        graph_spec=SHAPES[shape](seed), mode=mode, rho=2, seed=seed, **kwargs)
        for mode in ("strong", "weak") for seed in seeds}


# A ring has room for one failure only; the generator draws what fits.
GENERATED = {
    name: kwargs
    for shape in ("rand24", "ring14", "grid8") for pct in (20, 50)
    for name, kwargs in _family(shape, range(10), f"m{pct}", ops=30,
                                failures=12, horizon=3000,
                                move_frac=pct / 100).items()
} | _family("rand24", range(100, 140), "ops40", ops=40, failures=10,
            horizon=3000, move_frac=0.5) \
  | _family("ring20", range(10), "ops60", ops=60, failures=10, horizon=5000,
            move_frac=0.5) \
  | _family("rand48", range(200, 215), "ops60", ops=60, failures=10,
            horizon=5000, move_frac=0.5) \
  | _family("grid16", range(6), "ops60", ops=60, failures=12, horizon=5000,
            move_frac=0.5)

SCENARIOS = GOLDEN | GENERATED

# the generated scenarios tier-1 runs, by one rule: every thirteenth name
# of the runs pinned before the ops60 families joined (so their test ids
# stay), and every ops60 run whose seed ends in 2; together they take in
# every family, both modes, and ring20 seed 2, a known defect
SLICE = sorted([
    *sorted(name for name in GENERATED if not name.endswith("-ops60"))[::13],
    *(name for name in GENERATED if name.endswith("2-ops60"))])


def scenario(name: str) -> dict:
    return _gen_scenario(**SCENARIOS[name])


def outcome(name: str, work_dir: str) -> dict:
    """Run one scenario and describe its outcome as a corpus entry."""
    rt = Runtime(scenario(name))
    try:
        record = rt.run()
    except RuntimeError as exc:
        return {"error": str(exc)}
    out_dir = os.path.join(work_dir, name)
    _write_artifacts(rt, record, out_dir)
    entry = {}
    for art in ARTIFACTS:
        with open(os.path.join(out_dir, art), "rb") as fh:
            entry[art] = hashlib.sha256(fh.read()).hexdigest()
    # what `faultdir check` does with the saved record
    with open(os.path.join(out_dir, "record.json")) as fh:
        record = json.load(fh)
    validate_record(record)
    entry["failing"] = sorted({line.formula
                               for line in check_bounds(record).failed()})
    return entry


def load_corpus() -> dict[str, dict]:
    with open(CORPUS_PATH) as fh:
        return json.load(fh)


def pin_missing() -> None:
    """Pin every scenario that has no entry yet; existing entries stay."""
    pinned = load_corpus() if os.path.exists(CORPUS_PATH) else {}
    missing = [name for name in sorted(SCENARIOS) if name not in pinned]
    with tempfile.TemporaryDirectory() as work_dir:
        for name in missing:
            pinned[name] = outcome(name, work_dir)
    with open(CORPUS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(missing)} new of {len(pinned)} scenarios -> {CORPUS_PATH}",
          file=sys.stderr)


def check(names: list[str]) -> int:
    """Compare each named scenario's outcome with its pin."""
    pinned = load_corpus()
    moved = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for name in names:
            got, want = outcome(name, work_dir), pinned[name]
            for key in sorted(set(got) | set(want)):
                if got.get(key) != want.get(key):
                    moved += 1
                    print(f"{name} {key}: {want.get(key)} -> {got.get(key)}")
    print(f"{moved} fields moved in {len(names)} scenarios", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--check"]:
        sys.exit(check(args[1:] or sorted(SCENARIOS)))
    pin_missing()

"""Run-outcome corpus: 200 generated scenarios, pinned per artifact.

The 9 goldens of ``regen.py`` are small; this corpus pins the outcome of
bigger generated runs with failures and moves, so that a change which
moves records, event logs or ledgers shows up as a reviewed diff. Each
entry in ``corpus.json`` holds, for one scenario run in process through
``Runtime`` and written by ``faultdir run``'s artifact writer, the sha256
of ``record.json``, ``events.jsonl`` and ``ledger.csv`` apart and the ids
of the bound formulas that fail; or, for a run that raises
``RuntimeError``, the exception text alone.

    PYTHONPATH=src python tests/golden/corpus.py            # pin missing
    PYTHONPATH=src python tests/golden/corpus.py --check    # compare all
    PYTHONPATH=src python tests/golden/corpus.py --check NAME ...

Pinning follows ``regen.py``'s rule: it fills in only the scenarios
missing from ``corpus.json`` and never rewrites an existing entry. To
re-pin, delete the entries by hand first, only when moving them is the
stated point of the change, and say in CHANGES.md which fields moved.
``--check`` prints one line per field that differs and exits 1 if any
does. ``tests/test_corpus.py`` checks ``SLICE`` in tier-1.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from faultdir.bounds import check_bounds
from faultdir.cli import _gen_scenario, _write_artifacts
from faultdir.scenario import Runtime

ARTIFACTS = ("record.json", "events.jsonl", "ledger.csv")
CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "corpus.json")

SHAPES = {
    "rand24": lambda seed: {"kind": "random", "n": 24, "p": 0.2, "seed": seed},
    "ring14": lambda seed: {"kind": "ring", "n": 14},
    "grid8": lambda seed: {"kind": "grid", "rows": 8, "cols": 8},
}

# name -> keyword arguments of cli._gen_scenario. A ring has room for one
# failure only; the generator draws what fits.
SCENARIOS = {
    f"{shape}-{mode}-s{seed}-m{pct}": dict(
        graph_spec=spec(seed), mode=mode, rho=2, seed=seed, ops=30,
        failures=12, horizon=3000, move_frac=pct / 100)
    for shape, spec in SHAPES.items() for mode in ("strong", "weak")
    for seed in range(10) for pct in (20, 50)
}
SCENARIOS.update({
    f"rand24-{mode}-s{seed}-ops40": dict(
        graph_spec=SHAPES["rand24"](seed), mode=mode, rho=2, seed=seed,
        ops=40, failures=10, horizon=3000, move_frac=0.5)
    for seed in range(100, 140) for mode in ("strong", "weak")
})

# the scenarios tier-1 runs: every thirteenth name, which takes in both
# groups, all three shapes, both modes and move fractions, a run whose
# bound check fails and a run that crashes
SLICE = sorted(SCENARIOS)[::13]


def outcome(name: str, work_dir: str) -> dict:
    """Run one scenario and describe its outcome as a corpus entry."""
    rt = Runtime(_gen_scenario(**SCENARIOS[name]))
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

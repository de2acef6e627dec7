"""Pinned scenarios: every golden and a fixed slice of the 200 generated
scenarios of ``tests/golden/corpus.py`` replay as pinned in
``corpus.json``; the rest runs through
``python tests/golden/corpus.py --check``."""

import json
import os
import subprocess
import sys

import pytest

from golden import corpus
from golden.corpus import (GOLDEN, SCENARIOS, SLICE, load_corpus, outcome,
                           scenario)


def test_every_scenario_is_pinned():
    assert sorted(load_corpus()) == sorted(SCENARIOS)


def test_slice_covers_every_kind_of_scenario_and_outcome():
    names = [name.split("-") for name in SLICE]
    assert {shape for shape, *_ in names} == {"grid8", "rand24", "ring14"}
    assert {mode for _, mode, *_ in names} == {"strong", "weak"}
    assert {tail for *_, tail in names} == {"m20", "m50", "ops40"}
    pins = [load_corpus()[name] for name in SLICE]
    assert any("error" in pin for pin in pins)
    assert any(pin.get("failing") for pin in pins)


@pytest.mark.parametrize("name", sorted(GOLDEN) + SLICE)
def test_slice_matches_its_pin(name, tmp_path):
    assert outcome(name, str(tmp_path)) == load_corpus()[name]


def test_scenarios_cover_their_shapes(tmp_path):
    def run_named(name, work_dir):
        outcome(name, work_dir)
        return os.path.join(work_dir, name)

    events = {name: scenario(name)["events"] for name in GOLDEN}
    assert any(e["do"] == "move" for e in events["grid-moves"])
    assert any(e["do"] == "fail" for e in events["grid-fail"])
    assert not any("fail_during" in e for e in events["grid-fail"])
    assert any("fail_during" in e for e in events["grid-fail-during"])
    assert scenario("weak-random")["mode"] == "weak"
    assert scenario("weak-grid")["mode"] == "weak"
    assert sum(e["do"] == "fail" for e in events["weak-grid"]) == 2
    for name in ("ring-ext-local", "ring-ext-handoff"):
        with open(os.path.join(run_named(name, str(tmp_path)),
                               "record.json")) as fh:
            rec = json.load(fh)
        assert any(f["extension"] is not None for f in rec["failures"]), name
    with open(os.path.join(run_named("weak-split-reroot", str(tmp_path)),
                           "record.json")) as fh:
        rec = json.load(fh)
    # a split led by a member other than the cut endpoint: the detached
    # tree is re-rooted and the leadership handed over
    assert any(row["xfer_msgs"] for f in rec["failures"]
               for row in f["stats"]["recluster"].values())


def test_slice_replays_under_another_hash_seed():
    """String hashing, and so set order, depends on PYTHONHASHSEED: part of
    the slice must check clean in a process with a different one."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, corpus.__file__, "--check", *SLICE[::4]],
        env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"0 fields moved in {len(SLICE[::4])} scenarios" in proc.stderr

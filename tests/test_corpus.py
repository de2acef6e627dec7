"""Pinned scenarios: every golden and the ``SLICE`` of the generated
scenarios of ``tests/golden/corpus.py`` replay as pinned in
``corpus.json``, and every pin checks clean; the rest runs through
``python tests/golden/corpus.py --check``."""

import json
import os
import subprocess
import sys

import pytest

from golden import corpus
from golden.corpus import (GENERATED, GOLDEN, SCENARIOS, SLICE, load_corpus,
                           outcome, scenario)

# the pins a known defect keeps from checking clean, each with its failing
# formulas: ring20 seed 2 refreshes 401 > 400 = n^2 peers at failure f0
# (ROADMAP item 17)
KNOWN_DEFECTS = {
    "ring20-strong-s2-ops60": ["preprocess-volume"],
    "ring20-weak-s2-ops60": ["preprocess-volume"],
}


def family(name):
    """`<shape>-<tail>` of a generated scenario's name."""
    shape, _mode, _seed, tail = name.split("-")
    return f"{shape}-{tail}"


def test_every_scenario_is_pinned():
    assert sorted(load_corpus()) == sorted(SCENARIOS)


def test_every_pin_checks_clean():
    """No pinned run raises, and none fails a bound formula but the known
    defects, each exactly as listed."""
    bad = {name: pin.get("error") or pin["failing"]
           for name, pin in load_corpus().items()
           if "error" in pin or pin["failing"]}
    assert bad == KNOWN_DEFECTS


def test_slice_covers_every_kind_of_scenario_and_outcome():
    """Every family, both modes, and both outcomes a pin may hold: clean,
    and each known defect."""
    assert {family(name) for name in SLICE} \
        == {family(name) for name in GENERATED}
    assert {name.split("-")[1] for name in SLICE} == {"strong", "weak"}
    assert set(KNOWN_DEFECTS) < set(SLICE)


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
    """String hashing, and so set order, depends on PYTHONHASHSEED: the
    slice's strong runs, one or more of every family, must check clean in
    a process with a different one."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    names = [name for name in SLICE if "-strong-" in name]
    proc = subprocess.run(
        [sys.executable, corpus.__file__, "--check", *names],
        env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True,
        text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"0 fields moved in {len(names)} scenarios" in proc.stderr

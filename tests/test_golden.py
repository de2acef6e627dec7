"""Golden artifacts: small generated scenarios must replay byte for byte.

The pinned digests live in ``tests/golden/digests.json``; see
``tests/golden/regen.py`` for when they may be regenerated.
"""

import json
import os

import pytest

from golden.regen import (SCENARIOS, artifact_digests, load_digests, run_named,
                          scenario)


def test_every_scenario_is_pinned():
    assert sorted(load_digests()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_pinned_digests(name, tmp_path):
    assert artifact_digests(name, str(tmp_path)) == load_digests()[name]


def test_scenarios_cover_their_shapes(tmp_path):
    events = {name: scenario(name)["events"] for name in SCENARIOS}
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

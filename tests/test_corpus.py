"""Run-outcome corpus: a fixed slice of ``tests/golden/corpus.py``'s 200
generated scenarios replays as pinned in ``corpus.json``; the rest runs
through ``python tests/golden/corpus.py --check``."""

import os
import subprocess
import sys

import pytest

from golden import corpus
from golden.corpus import SCENARIOS, SLICE, load_corpus, outcome


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


@pytest.mark.parametrize("name", SLICE)
def test_slice_matches_its_pin(name, tmp_path):
    assert outcome(name, str(tmp_path)) == load_corpus()[name]


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

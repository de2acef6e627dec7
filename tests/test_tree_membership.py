"""Tree membership is read from the trees: at every failure, the owners
`fail_edge` notifies are the ones the per-edge owner index it replaced
(`oracles.EdgeRootIndex`) would name, and no tree adopts a dead edge."""

import pytest

from faultdir.cli import _gen_scenario
from faultdir.scenario import Runtime

from golden.regen import SCENARIOS, scenario
from oracles import EdgeRootIndex

GENERATED = [(spec, mode, seed)
             for spec in ({"kind": "random", "n": 24, "p": 0.2, "seed": 5},
                          {"kind": "ring", "n": 14},
                          {"kind": "grid", "rows": 8, "cols": 8})
             for mode in ("strong", "weak")
             for seed in range(2)]


def run_against_index(rt):
    """Run rt with the owner index kept beside it. Returns one
    (edge, notified, index owners) row per failure; the index owners
    are read where the deleted code read them, after the endpoints'
    own repairs."""
    engine = rt.engine
    index = EdgeRootIndex(rt.g, rt.sim.trees)
    rows = []
    notified = None
    real_fail = engine.fail_edge
    real_deltas = engine._send_deltas
    real_notify = engine._spt_notify

    def fail_edge(e):
        nonlocal notified
        notified = []
        rec = real_fail(e)
        a, b = rec["edge"]
        rows.append((rec["edge"], notified,
                     sorted(index.owners((a, b)) - {a, b})))
        notified = None
        return rec

    def send_deltas(owner, removed, added, fid):
        index.apply(owner, removed, added, fid)
        real_deltas(owner, removed, added, fid)

    def spt_notify(src, w, e, fid):
        if notified is not None:
            notified.append(w)
        real_notify(src, w, e, fid)

    engine.fail_edge = fail_edge
    engine._send_deltas = send_deltas
    engine._spt_notify = spt_notify
    rt.run()
    assert not index.dead_adds, index.dead_adds
    return rows


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_failures_notify_the_index_owners(name):
    rt = Runtime(scenario(name))
    rows = run_against_index(rt)
    assert len(rows) == sum(ev["do"] == "fail" or "fail_during" in ev
                            for ev in rt.sc["events"])
    for edge, notified, owners in rows:
        assert notified == owners, edge


def test_failure_heavy_runs_notify_the_index_owners():
    """Twelve asked-for failures per run (a ring has room for one) among
    lookups and moves; about half the failures that land on a lookup
    strike while it is in flight."""
    failures = notices = 0
    for spec, mode, seed in GENERATED:
        rt = Runtime(_gen_scenario(spec, mode, 2, seed, ops=12, failures=12,
                                   horizon=2000))
        for edge, notified, owners in run_against_index(rt):
            assert notified == owners, (spec, mode, seed, edge)
            failures += 1
            notices += len(notified)
    assert failures >= 50 and notices >= 100, (failures, notices)


def test_a_built_runtime_keeps_no_failure_state():
    rt = Runtime({"name": "t", "mode": "strong", "rho": 2, "seed": 0,
                  "graph": {"kind": "grid", "rows": 4, "cols": 4},
                  "events": []})
    held = {name: v for name, v in vars(rt.engine).items()
            if isinstance(v, (dict, list, set)) and v}
    assert not held, sorted(held)

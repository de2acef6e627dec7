"""The premise `Runtime._alive_dist`, `Runtime.record()` and
`FailureEngine.fail_edge` rest on: once the system has settled, every
node's repaired tree is the least-id shortest path tree of the alive graph,
so the runtime reads alive distances off the trees rather than running
Dijkstra again."""

import pytest

from faultdir.graph import dijkstra
from faultdir.scenario import Runtime
from golden.corpus import scenario

# both modes, a fail_during golden, layer extensions (at the root and
# handed off), a weak split, and failure-heavy generated runs
PINNED = [
    "grid-fail-during", "ring-ext-local", "ring-ext-handoff",
    "weak-split-reroot", "grid8-strong-s3-m50", "grid8-weak-s4-m20",
    "rand48-strong-s202-ops60", "rand48-weak-s212-ops60",
    "rand48-weak-s203-ops60",
]


@pytest.mark.parametrize("name", PINNED)
def test_every_tree_is_exact_after_every_settle(name):
    rt = Runtime(scenario(name))
    settle, settled = rt._settle, []

    def checked_settle(context):
        settle(context)
        settled.append(context)
        for x, t in rt.sim.trees.items():
            dist, parent = dijkstra(rt.g._adj, x)
            assert t.dist == dist and t.parent == parent, (context, x)

    fail_edge, failed = rt.engine.fail_edge, []

    def checked_fail_edge(e):
        # mid-settle too, a's tree gives `fail_edge` the alive distance:
        # earlier failures have settled, and a has just repaired its tree
        rec = fail_edge(e)
        a, b = e
        assert rec["d_alive"] == str(dijkstra(rt.g._adj, a)[0][b]), e
        failed.append(e)
        return rec

    rt._settle, rt.engine.fail_edge = checked_settle, checked_fail_edge
    record = rt.run()
    assert record["failures"] and len(settled) == len(rt.sc["events"])
    assert len(failed) == len(record["failures"])
    # record() left the trees in the graph's cache, in settle order
    for x in rt.g.nodes():
        dist, parent = rt.g.sssp(x)
        fresh_dist, fresh_parent = dijkstra(rt.g._adj, x)
        assert list(dist.items()) == list(fresh_dist.items())
        assert parent == fresh_parent


def test_record_refuses_a_system_that_has_not_settled():
    rt = Runtime(scenario("grid-fail"))
    rt.run()
    e = next(e for e in rt.g.alive_edges() if not rt.g.would_disconnect(e))
    rt.engine.fail_edge(e)
    with pytest.raises(RuntimeError, match="settled system"):
        rt.record()
    rt.sim.run()
    assert rt.record()["partition_post"]["ok"]

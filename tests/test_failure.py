"""Repair machinery: tree repair, cluster splits, extensions, stats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from faultdir import failure as failure_module
from faultdir.bounds import check_bounds
from faultdir.cli import _gen_scenario
from faultdir.failure import FailureEngine
from faultdir.graph import build_spt, edge_id, subtree
from faultdir.partition import Cluster, verify_partition
from faultdir.scenario import Runtime, build_graph

from oracles import (brute_cluster_diameter, check_spt, children_subtree,
                     fw_all_pairs, prune_fixpoint, reroot_walk, scan_led_by,
                     split_leader, tree_child_endpoint)

RING12 = {"kind": "ring", "n": 12}


def fresh(graph, mode="strong", rho=2, seed=0, events=(), run=True):
    sc = {"name": "t", "mode": mode, "rho": rho, "seed": seed,
          "graph": graph, "events": list(events)}
    rt = Runtime(sc)
    if run:
        rt.run()
    return rt


def killable_edges(graph):
    g = build_graph(graph)
    return [e for e in g.alive_edges() if not g.would_disconnect(e)]


def sequential_kills(graph, k):
    """First k edges that can be removed one after another without ever
    disconnecting the graph."""
    g = build_graph(graph)
    out = []
    for e in list(g.alive_edges()):
        if len(out) == k:
            break
        if g.would_disconnect(e):
            continue
        g.kill_edge(e)
        out.append(e)
    return out


def test_tree_repair_matches_recompute_for_every_single_edge():
    graph = {"kind": "random", "n": 10, "p": 0.35, "seed": 5}
    for e in killable_edges(graph):
        rt = fresh(graph, events=[{"t": 0, "do": "publish", "node": 0},
                                  {"t": 100, "do": "fail", "edge": list(e)}])
        for root in sorted(rt.g.nodes()):
            check_spt(rt.g, rt.sim.trees[root])


def test_tree_repair_under_random_multi_failures():
    graph = {"kind": "random", "n": 12, "p": 0.3, "seed": 9}
    for seed in range(8):
        scratch = build_graph(graph)
        kills = []
        import random as _r
        rng = _r.Random(seed)
        for _ in range(4):
            cands = [e for e in scratch.alive_edges()
                     if not scratch.would_disconnect(e)]
            if not cands:
                break
            e = rng.choice(sorted(cands))
            scratch.kill_edge(e)
            kills.append(e)
        events = [{"t": 0, "do": "publish", "node": 0}]
        events += [{"t": 200 * (k + 1), "do": "fail", "edge": list(e)}
                   for k, e in enumerate(kills)]
        rt = fresh(graph, events=events)
        for root in sorted(rt.g.nodes()):
            check_spt(rt.g, rt.sim.trees[root])


def snapshot_clusters(rt):
    out = {}
    for lvl in rt.hier.all_levels():
        if lvl < 0:
            continue
        for c in rt.hier.clusters_at(lvl):
            out[(lvl, c.id)] = {"members": set(c.members),
                                "tree": dict(c.tree_parent),
                                "leader": c.leader}
    return out


def detached_side(tree, e):
    """Nodes below the cut in a parent map, or None if e is not a tree edge."""
    u, v = e
    if tree.get(u) == v:
        child = u
    elif tree.get(v) == u:
        child = v
    else:
        return None
    kids = {}
    for x, p in tree.items():
        if p is not None:
            kids.setdefault(p, []).append(x)
    out, stack = set(), [child]
    while stack:
        x = stack.pop()
        out.add(x)
        stack.extend(kids.get(x, []))
    return out


def test_split_membership_matches_tree_component_oracle():
    graph = {"kind": "random", "n": 14, "p": 0.3, "seed": 3}
    pre = fresh(graph, events=[{"t": 0, "do": "publish", "node": 0}])
    before = snapshot_clusters(pre)
    for e in killable_edges(graph)[:8]:
        rt = fresh(graph, events=[{"t": 0, "do": "publish", "node": 0},
                                  {"t": 100, "do": "fail", "edge": list(e)}])
        rec = rt.engine.failures[0]
        hit = {(lvl, cid): detached_side(snap["tree"], edge_id(*e))
               for (lvl, cid), snap in before.items()
               if detached_side(snap["tree"], edge_id(*e)) is not None}
        expected_children = {
            key for key, det in hit.items()
            if before[key]["members"] & det != set()
            and key[0] < rec["top"]}
        got_children = {(s["level"], s["parent"]) for s in rec["splits"]
                        if s["child"] is not None and s["level"] < rec["top"]}
        assert got_children == expected_children
        for s in rec["splits"]:
            if s["child"] is None or s["level"] >= rec["top"]:
                continue
            key = (s["level"], s["parent"])
            det = hit[key]
            want = before[key]["members"] & det
            child = rt.hier.levels[s["level"]][s["child"]]
            assert set(child.members) == want
            assert child.leader in child.members
            parent = rt.hier.levels[s["level"]][s["parent"]]
            assert set(parent.members) == before[key]["members"] - want


def test_every_cluster_keeps_leader_among_members_after_repairs():
    graph = {"kind": "random", "n": 14, "p": 0.3, "seed": 3}
    kills = sequential_kills(graph, 3)
    events = [{"t": 0, "do": "publish", "node": 0}]
    events += [{"t": 300 * (k + 1), "do": "fail", "edge": list(e)}
               for k, e in enumerate(kills)]
    rt = fresh(graph, mode="weak", events=events)
    for lvl in rt.hier.all_levels():
        if lvl < 0:
            continue
        for c in rt.hier.clusters_at(lvl):
            if c.members:
                assert c.leader in c.members


def test_descendant_families_stay_within_failure_budget():
    graph = {"kind": "random", "n": 16, "p": 0.28, "seed": 7}
    kills = sequential_kills(graph, 5)
    events = [{"t": 0, "do": "publish", "node": 0}]
    events += [{"t": 400 * (k + 1), "do": "fail", "edge": list(e)}
               for k, e in enumerate(kills)]
    rt = fresh(graph, events=events)
    parent_of = {}
    for rec in rt.engine.failures:
        for s in rec["splits"]:
            if s["child"] is not None:
                parent_of[s["child"]] = s["parent"]
    counts = {}
    for child, parent in parent_of.items():
        root = parent
        while root in parent_of:
            root = parent_of[root]
        counts[root] = counts.get(root, 1) + 1
    for root, parts in counts.items():
        assert parts <= len(kills) + 1


def test_partition_invariants_hold_after_failures_both_modes():
    graph = {"kind": "grid", "rows": 4, "cols": 4}
    for mode in ("strong", "weak"):
        kills = sequential_kills(graph, 3)
        events = [{"t": 0, "do": "publish", "node": 5}]
        events += [{"t": 300 * (k + 1), "do": "fail", "edge": list(e)}
                   for k, e in enumerate(kills)]
        rt = fresh(graph, mode=mode, events=events)
        chk = verify_partition(rt.hier, post_failure=True)
        assert chk["ok"], chk


def oracle_extension(rt_pre, graph, e):
    """Recompute the root-level widening decision from scratch."""
    g2 = build_graph(graph)
    g2.kill_edge(edge_id(*e))
    root = rt_pre.hier.root
    top_c = rt_pre.hier.clusters_at(rt_pre.hier.top)[0]
    pre_tree = dict(top_c.tree_parent)
    det = detached_side(pre_tree, edge_id(*e))
    if det is None:
        return None  # root mirror untouched, never widens
    dist = fw_all_pairs(g2)[root]
    far_d = max(dist.values())
    far = min(x for x, d in dist.items() if d == far_d)
    sigma, rho, h = rt_pre.hier.sigma, rt_pre.hier.rho, rt_pre.hier.top
    threshold = sigma * rho ** (h + 1) - 4 * sigma * rho ** h
    out = {"h": h, "far_node": far, "far_dist": far_d,
           "threshold": threshold, "crossing": far in det,
           "trigger_weight": None, "h_new": None, "triggered": False}
    if far not in det:
        return out
    # canonical repaired tree: smallest-id optimal predecessor
    path = [far]
    while path[-1] != root:
        v = path[-1]
        p = min(q for q in sorted(g2.neighbors(v))
                if g2.is_alive(edge_id(q, v))
                and dist[q] + g2.weight(edge_id(q, v)) == dist[v])
        path.append(p)
    path.reverse()
    crossing = [edge_id(a, b) for a, b in zip(path, path[1:])
                if (a in det) != (b in det)]
    estar = max(crossing, key=lambda ed: (g2.weight(ed), ed))
    out["trigger_weight"] = g2.weight(estar)
    if g2.weight(estar) > threshold:
        h_new = 0
        while sigma * rho ** h_new <= far_d:
            h_new += 1
        out["h_new"] = h_new
        out["triggered"] = h_new > h
    return out


def test_extension_decision_matches_oracle_on_ring():
    pre = fresh(RING12, events=[{"t": 0, "do": "publish", "node": 3}])
    for e in killable_edges(RING12):
        rt = fresh(RING12, events=[{"t": 0, "do": "publish", "node": 3},
                                   {"t": 100, "do": "fail", "edge": list(e)}])
        rec = rt.engine.failures[0]
        want = oracle_extension(pre, RING12, e)
        chk = rec["ext_check"]
        if want is None:
            assert chk is None and rec["extension"] is None
            continue
        assert chk is not None
        assert chk["crossing"] == want["crossing"]
        assert Fraction(chk["far_dist"]) == want["far_dist"]
        assert Fraction(chk["threshold"]) == want["threshold"]
        assert chk["triggered"] == want["triggered"]
        if want["triggered"]:
            assert chk["h_new"] == want["h_new"]
            assert rec["extension"] is not None
            assert rt.hier.top == want["h_new"]
            assert verify_partition(rt.hier, post_failure=True)["ok"]
        else:
            assert rec["extension"] is None


def test_weak_mode_split_transfers_leadership_along_old_tree():
    edges = [[4, 0, 2], [11, 4, 5], [10, 11, 3], [3, 0, 1], [12, 3, 4],
             [7, 12, 2], [2, 4, 5], [8, 11, 1], [5, 4, 5], [1, 8, 1],
             [6, 7, 5], [9, 8, 3], [4, 1, 8], [4, 10, 6], [3, 4, 2],
             [3, 1, 8], [5, 6, 3]]
    graph = {"kind": "edges", "edges": edges}
    rt = fresh(graph, mode="weak", seed=27,
               events=[{"t": 0, "do": "publish", "node": 0},
                       {"t": 400, "do": "fail", "edge": [3, 12]},
                       {"t": 1500, "do": "lookup", "node": 7}])
    rec = rt.engine.failures[0]
    rows = rec["stats"]["recluster"]
    xfer = [(int(cid), row) for cid, row in rows.items() if row["xfer_msgs"]]
    assert len(xfer) == 1
    cid, row = xfer[0]
    assert row["xfer_msgs"] == 1
    assert Fraction(str(row["xfer_dist"])) <= rt.hier.sigma * \
        rt.hier.radius(row["level"])
    child = rt.hier.levels[row["level"]][cid]
    assert child.leader in child.members
    assert [*rt.dir.ops.values()][-1].phase == "done"


def test_repair_message_stats_within_shape():
    graph = {"kind": "grid", "rows": 4, "cols": 4}
    n = 16
    for e in killable_edges(graph)[:6]:
        rt = fresh(graph, events=[{"t": 0, "do": "publish", "node": 5},
                                  {"t": 100, "do": "fail", "edge": list(e)}])
        rec = rt.engine.failures[0]
        st = rec["stats"]
        assert st["preprocess"]["msgs"] <= n * n
        for fan_s, row in st["preprocess"]["rows"].items():
            assert Fraction(str(row["max_dist"])) <= Fraction(fan_s)
        dist = fw_all_pairs(rt.g)
        alive_diam = max(d for row in dist.values() for d in row.values())
        assert Fraction(str(st["path_update"]["max_dist"])) <= alive_diam
        for cid, row in st["recluster"].items():
            assert row["bcast_msgs"] <= 2 * n
            assert row["msgs"] <= 2


def test_failure_during_walk_completes_and_linearizes():
    rt = fresh(RING12, events=[
        {"t": 0, "do": "publish", "node": 3},
        {"t": 100, "do": "move", "node": 9},
        {"t": 1000, "do": "lookup", "node": 4,
         "fail_during": [6, 7], "fail_delay": 1},
    ])
    look = [*rt.dir.ops.values()][-1]
    assert look.phase == "done"
    ivs = {iv["version"]: iv for iv in rt.dir.token_intervals}
    iv = ivs[look.version]
    assert iv["t_from"] <= look.read_t
    assert iv.get("t_to") is None or look.read_t <= iv["t_to"]


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_cached_diameters_follow_splits_and_the_current_graph(mode):
    graph = {"kind": "random", "n": 14, "p": 0.3, "seed": 3}
    rt = fresh(graph, mode=mode, events=[{"t": 0, "do": "publish", "node": 0}])
    rt.engine.fail_edge(tuple(killable_edges(graph)[0]))
    # fill every cache at the new graph version before the splits land
    for lvl in rt.hier.all_levels():
        for c in rt.hier.clusters_at(lvl):
            try:
                c.diameter(rt.g, mode)
            except ValueError:
                pass  # strong cluster cut in two; its split is on the way
    rt.sim.run()
    assert any(s["child"] is not None for s in rt.engine.failures[0]["splits"])
    post = rt.record()["partition_post"]
    for row in post["levels"]:
        fresh_diams = [brute_cluster_diameter(rt.g, c.members, mode)
                       for c in rt.hier.clusters_at(row["level"])]
        for c, d in zip(rt.hier.clusters_at(row["level"]), fresh_diams):
            assert c.diameter(rt.g, mode) == d
        assert row["max_diameter"] == str(max(fresh_diams))


def test_queued_extension_installs_locally_when_adder_stayed_home():
    # heavy chord: losing 0-1 stretches the root's reach from 1 to 51,
    # so the stack grows from top 1 to top 6 with node 0 detached
    graph = {"kind": "edges", "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 50]]}
    rt = fresh(graph, events=[{"t": 0, "do": "publish", "node": 2},
                              {"t": 100, "do": "fail", "edge": [0, 1]}])
    ext = rt.engine.failures[0]["extension"]
    h_old, h_new = ext["from"], ext["to"]
    root, v = rt.hier.root, 0
    bands = list(range(h_old, h_new))
    band_ids = [c.id for j in bands for c in rt.hier.clusters_at(j)
                if c.leader == v]
    assert len(bands) > 1 and len(band_ids) == len(bands)
    ns = rt.dir.nodes[root]
    adder, old_down = ns.levels[h_old].added_by, ns.levels[h_old].down
    assert adder not in rt.hier.levels[h_old][band_ids[0]].members
    entries = [(j, v) for j in bands] + [(h_new, root)]
    rt.sim.now, rt.dir.failure_count = 777, 4
    rt.engine._init_extension_txn(root, {
        "ext": True, "level": h_old, "target": v, "via": None, "bcast": None,
        "fid": 0, "bands": bands, "top_level": h_new,
        "bcast_bands": band_ids, "entries": entries})
    assert ns.busy_txn is None
    assert set(bands) | {h_new} <= set(ns.levels)
    for j in bands:
        st = ns.levels[j]
        assert (st.up, st.added_by) == (root, adder)
        assert st.down == (old_down if j == h_old else root)
        assert (st.built_t, st.built_f) == (777, 4)
    top = ns.levels[h_new]
    assert (top.up, top.down, top.added_by) == (None, root, adder)
    assert (top.built_t, top.built_f) == (777, 4)
    verdicts = [d for _t, _s, fn, d in rt.sim._heap
                if fn in (rt.sim._process_hop, rt.sim._deliver)
                and d.kind == "ext_verdict"]
    assert len(verdicts) == 1 and verdicts[0].dst == v
    assert verdicts[0].payload == {"bands": band_ids, "level": h_old,
                                   "entries": entries, "fid": 0}


def test_leader_lookup_equals_scan_after_splits_and_extensions():
    cases = [
        (RING12, [[10, 11]]),
        ({"kind": "edges", "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 50]]},
         [[0, 1]]),
        ({"kind": "random", "n": 14, "p": 0.3, "seed": 3},
         sequential_kills({"kind": "random", "n": 14, "p": 0.3, "seed": 3}, 3)),
    ]
    splits = extensions = 0
    for graph, kills in cases:
        for mode in ("strong", "weak"):
            events = [{"t": 0, "do": "publish", "node": 2}]
            events += [{"t": 300 * (k + 1), "do": "fail", "edge": list(e)}
                       for k, e in enumerate(kills)]
            rt = fresh(graph, mode=mode, events=events)
            for rec in rt.engine.failures:
                splits += sum(s["child"] is not None for s in rec["splits"])
                extensions += rec["extension"] is not None
            for level in range(-1, rt.hier.top + 1):
                for y in rt.g.nodes():
                    assert rt.hier.led_by(level, y) is \
                        scan_led_by(rt.hier, level, y), (level, y)
    assert splits and extensions


def test_split_trees_match_the_old_walks(monkeypatch):
    """Every split in a batch of generated runs, both modes: the new leader
    and both pruned trees, key order included, equal what the old
    nearest-member, re-root and leaf-deleting prune walks give."""
    seen = {"entered": 0, "checked": 0, "reroot": 0, "dropped": 0}
    real = FailureEngine._apply_split

    def checked(self, c, e, fid):
        tree = dict(c.tree_parent)
        v = tree_child_endpoint(tree, e)
        det = children_subtree(tree, v)
        tree2 = {x: (None if x == v else tree[x]) for x in det}
        members2 = sorted(c.members & det)
        kept = {x: p for x, p in tree.items() if x not in det}
        remaining = c.members - det
        n_log = len(self.detach_log.get(c.id, []))
        seen["entered"] += 1
        mark = seen["entered"]
        real(self, c, e, fid)
        if seen["entered"] != mark:
            return  # a split nested in this one moved the trees on
        seen["checked"] += 1
        want = prune_fixpoint(kept, remaining, c.leader)
        assert list(c.tree_parent.items()) == list(want.items())
        seen["dropped"] += len(want) < len(kept)
        c2 = self.hier.levels[c.level][self.detach_log[c.id][n_log]["child"]]
        w = split_leader(self.g, tree2, v, members2)
        if w != v:
            seen["reroot"] += 1
            tree2 = reroot_walk(tree2, w)
        want2 = prune_fixpoint(tree2, set(members2), w)
        seen["dropped"] += len(want2) < len(tree2)
        assert c2.leader == w
        assert list(c2.tree_parent.items()) == list(want2.items())

    monkeypatch.setattr(FailureEngine, "_apply_split", checked)
    for mode in ("weak", "strong"):
        for seed in range(6):
            for spec in ({"kind": "grid", "rows": 5, "cols": 5},
                         {"kind": "random", "n": 16, "p": 0.25, "seed": seed}):
                rt = Runtime(_gen_scenario(spec, mode, 2, seed, ops=8,
                                           failures=5, horizon=2000,
                                           move_frac=0.2))
                rt.run()
    assert seen["checked"] >= 20 and seen["reroot"] and seen["dropped"], seen


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(["strong", "weak"]),
       spec=st.one_of(
           st.builds(lambda r, c: {"kind": "grid", "rows": r, "cols": c},
                     st.integers(3, 5), st.integers(3, 5)),
           st.builds(lambda seed: {"kind": "random", "n": 14, "p": 0.25,
                                   "seed": seed}, st.integers(0, 50))),
       seed=st.integers(0, 1000), failures=st.integers(2, 5),
       horizon=st.sampled_from([100, 2000]))
def test_subtree_walk_matches_children_index_on_cluster_trees(
        mode, spec, seed, failures, horizon):
    """Cluster trees in both modes, cut by splits and root repairs while
    they still hold dead edges (the cut edge, and any not yet heard of),
    and re-rooted and pruned after: over the adjacency the engine walks
    at each cut, and over `_ever` in every cluster tree before and after
    each cut, every node's subtree equals the children index of the whole
    map."""
    real = {name: getattr(FailureEngine, name)
            for name in ("_apply_split", "_root_repair")}
    real_subtree = failure_module.subtree

    def every_tree_agrees(engine):
        for level in engine.hier.all_levels():
            for c in engine.hier.clusters_at(level):
                for v in c.tree_parent:
                    assert subtree(engine.g._ever, c.tree_parent, v) == \
                        children_subtree(c.tree_parent, v)

    def checked(name):
        def method(self, *args):
            every_tree_agrees(self)
            real[name](self, *args)
            every_tree_agrees(self)
        return method

    def spy(adj, parent_map, v):
        for x in parent_map:
            assert real_subtree(adj, parent_map, x) == \
                children_subtree(parent_map, x)
        return real_subtree(adj, parent_map, v)

    rt = Runtime(_gen_scenario(spec, mode, 2, seed, ops=4, failures=failures,
                               horizon=horizon, move_frac=0.2))
    try:
        for name in real:
            setattr(FailureEngine, name, checked(name))
        failure_module.subtree = spy
        rt.run()
    except RuntimeError:
        pass  # a known protocol defect stops the run; the trees were checked
    finally:
        for name, method in real.items():
            setattr(FailureEngine, name, method)
        failure_module.subtree = real_subtree


def test_split_leader_tie_goes_to_the_smaller_id():
    """The cut endpoint 1 is a pass-through node with members 2 and 3 one
    hop below it: 2 wins the tie, the detached tree is re-rooted at 2 and
    the parent cluster keeps only its leader."""
    graph = {"kind": "edges", "edges": [[0, 1, 1], [1, 2, 1], [1, 3, 1],
                                        [0, 4, 1], [4, 2, 1], [4, 3, 1]]}
    rt = fresh(graph, mode="weak", run=False)
    c = Cluster(rt.hier.new_cid(), 0, {0, 2, 3}, 0,
                {0: None, 1: 0, 2: 1, 3: 1})
    rt.hier.add_cluster(c)
    rt.engine.failures.append({"splits": []})
    rt.engine._apply_split(c, (0, 1), 0)
    c2 = rt.hier.levels[0][rt.engine.detach_log[c.id][0]["child"]]
    assert (c2.leader, c2.members) == (2, {2, 3})
    assert c2.tree_parent == {1: 2, 2: None, 3: 1}
    assert c.tree_parent == {0: None}


def test_a_notice_for_a_gated_cluster_waits_for_its_verdict():
    """A split-off cluster is gated until its verdict arrives: a split
    notice that reaches its leader before then is held, keeps the engine
    from being quiet, and is handled once the verdict opens the gate."""
    graph = {"kind": "edges", "edges": [[0, 1, 1], [1, 2, 1], [1, 3, 1],
                                        [0, 4, 1], [4, 2, 1], [4, 3, 1]]}
    rt = fresh(graph, mode="weak", run=False)
    engine = rt.engine
    c = Cluster(rt.hier.new_cid(), 0, {0, 2, 3}, 0,
                {0: None, 1: 0, 2: 1, 3: 1})
    rt.hier.add_cluster(c)
    engine.failures.append({"splits": [], "stats": {
        "recluster": {}, "path_update": {"msgs": 0, "max_dist": 0},
        "preprocess": {"msgs": 0, "rows": {}}, "sc_update": []}})
    assert engine.quiet()
    engine._apply_split(c, (0, 1), 0)
    c2 = rt.hier.levels[0][engine.detach_log[c.id][0]["child"]]
    assert engine.held == {c2.id: []} and not engine.quiet()
    notice = {"cluster": c2.id, "level": 0, "edge": [1, 3], "fid": 0}
    engine._process_notify(c2.leader, notice)
    assert engine.held == {c2.id: [notice]} and c2.id not in engine.detach_log
    engine._verdict_arrived(c2.id, 0, 0)
    # the held notice split 3 off c2, and the new part is gated in turn
    c3 = engine.detach_log[c2.id][0]["child"]
    assert c2.members == {2} and rt.hier.levels[0][c3].members == {3}
    assert engine.held == {c3: []}


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_a_split_notice_repairs_its_receivers_tree(mode):
    """A split notice names the dead edge, so its receiver repairs its own
    tree before it answers: on the 11-ring the split verdict leaves on the
    repaired tree instead of bouncing off the cut edge, and no path-update
    message travels farther than the cut's alive distance (12 > 10 when
    only the cut's endpoints and the notified tree owners repaired)."""
    sc = {"name": "t", "mode": mode, "rho": 2, "seed": 0,
          "graph": {"kind": "ring", "n": 11},
          "events": [{"t": 0, "do": "publish", "node": 6},
                     {"t": 100, "do": "fail", "edge": [5, 6]}]}
    report = check_bounds(Runtime(sc).run())
    assert [line.detail for line in report.failed()] == []

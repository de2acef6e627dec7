"""Graph core: construction, distances, repairable shortest path trees."""

import random
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings, strategies as st

from faultdir import graph as graph_module
from faultdir.graph import (
    Graph, bfs, build_spt, child_endpoint, dijkstra, edge_id, grid_graph, induced,
    path_graph, prune, random_graph, reroot,
    ring_graph, root_path, subtree,
)
from faultdir.partition import eccentricities
from oracles import (brute_diameter, brute_neighborhood, check_spt,
                     children_subtree, contains_tree_edge, dijkstra_until,
                     fw_all_pairs, graph_of, heap_repair, induced_adj,
                     neighborhood, path_to_root, prune_fixpoint,
                     relax_all_dijkstra, reroot_walk, split_leader,
                     tree_child_endpoint, tree_edges, with_weights)


def test_load_unit_path():
    g = graph_of((0, 1, 1), (1, 2, 1))
    assert g.n == 3
    assert brute_diameter(g) == 2


def test_load_comments_and_fractions():
    # the graph is built edge by edge; fractional weights stay exact
    g = graph_of((0, 1, Fraction(3, 2)), (1, 2, Fraction(3, 2)), (0, 2, 1))
    assert g.weight((0, 1)) == Fraction(3, 2)
    assert g.weight((1, 2)) == Fraction(3, 2)
    assert g.distance(0, 1) == Fraction(3, 2)
    assert brute_diameter(g) == Fraction(3, 2)


@pytest.mark.parametrize("u,v,w,msg", [
    (0, 0, 1, "self-loop"), (1, 2, 0, "below 1"), (1, 0, 2, "duplicate"),
    # JSON's true is an int to Python; it must not pass as weight 1
    (1, 2, True, "not an int or a fraction"),
], ids=["self-loop", "below-1", "duplicate", "boolean"])
def test_add_edge_rejects(u, v, w, msg):
    g = graph_of((0, 1, 1))
    with pytest.raises(ValueError, match=msg):
        g.add_edge(u, v, w)


@pytest.mark.parametrize("w", [Fraction(1), 2, Fraction(3, 2)],
                         ids=["Fraction(1)", "2", "3/2"])
def test_unit_is_false_after_a_weight_other_than_int_one(w):
    g = graph_of((0, 1, 1), (1, 2, 1))
    assert g.unit
    g.add_edge(2, 3, w)
    assert not g.unit
    # a later unit edge does not bring the flag back
    g.add_edge(3, 4, 1)
    assert not g.unit
    assert g.settle(g._adj, 0) == dijkstra(g._adj, 0)


def test_triangle_diameter_and_deletion():
    # heavy chord: the 10-edge is never used until the light path dies
    g = graph_of((0, 1, 1), (1, 2, 1), (0, 2, 10))
    assert g.distance(0, 0) == 0
    assert brute_diameter(g) == 2
    g.kill_edge((0, 1))
    assert g.distance(0, 1) == 11
    assert brute_diameter(g) == 11


def test_deletion_never_shrinks_distances():
    rng = random.Random(7)
    for trial in range(10):
        g = random_graph(14, 0.3, seed=trial)
        before = fw_all_pairs(g)
        candidates = [e for e in g.alive_edges() if not g.would_disconnect(e)]
        if not candidates:
            continue
        g.kill_edge(candidates[rng.randrange(len(candidates))])
        after = fw_all_pairs(g)
        for u in g.nodes():
            for v in g.nodes():
                assert after[u][v] >= before[u][v]


def test_kill_edge_guards():
    g = ring_graph(4)
    g.kill_edge((0, 1))
    with pytest.raises(ValueError):
        g.kill_edge((0, 1))
    with pytest.raises(KeyError):
        g.kill_edge((0, 2))
    assert g.weight((0, 1)) == 1  # tombstone keeps the weight
    assert g.would_disconnect((1, 2))


def test_neighborhood_examples():
    g = path_graph(5)
    assert neighborhood(g, 2, 0) == {2: 0}
    assert neighborhood(g, 2, 1) == {1: 1, 2: 0, 3: 1}
    g2 = random_graph(12, 0.3, seed=3)
    for u in (0, 5, 11):
        for r in (0, 1, 2, 3):
            assert neighborhood(g2, u, r) == brute_neighborhood(g2, u, r)


def test_diameter_matches_oracle_random():
    for seed in range(6):
        g = random_graph(13, 0.25, seed=seed)
        for mode in ("weak", "strong"):
            ecc = eccentricities(g, set(g.nodes()), mode)
            assert max(ecc.values()) == brute_diameter(g)


def test_spt_star():
    g = Graph()
    for i in 1, 2, 3:
        g.add_edge(0, i, i)
    t = build_spt(g, 0)
    assert t.parent == {0: None, 1: 0, 2: 0, 3: 0}
    assert t.dist == {0: 0, 1: 1, 2: 2, 3: 3}


def test_spt_tie_breaks_to_smaller_parent():
    # 0-1 and 0-2 weight 1, 1-3 and 2-3 weight 1: two optimal parents for 3
    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(0, 2, 1)
    g.add_edge(1, 3, 1)
    g.add_edge(2, 3, 1)
    t = build_spt(g, 0)
    assert t.parent[3] == 1
    check_spt(g, t)


def test_spt_shares_the_cached_sssp_until_a_repair():
    g = grid_graph(3, 3)
    trees = {x: build_spt(g, x) for x in g.nodes()}
    for x, t in trees.items():
        dist, parent = g.sssp(x)
        assert t.dist is dist and t.parent is parent
    # the death clears the cache before any repair writes a shared map
    g.kill_edge((0, 1))
    for t in trees.values():
        t.repair(g, edge_id(0, 1))
    assert trees[0].dist[1] == 3
    # the other way: the cache adopts the repaired trees, their distances
    # back in settle order (tree 0's map is out of it) and parents shared
    assert list(trees[0].dist) != list(dijkstra(g._adj, 0)[0])
    g.adopt_trees(trees)
    for x, t in trees.items():
        dist, parent = g.sssp(x)
        fresh_dist, fresh_parent = dijkstra(g._adj, x)
        assert list(dist.items()) == list(fresh_dist.items())
        assert parent is t.parent and parent == fresh_parent
        check_spt(g, t)
    g.kill_edge((4, 5))
    assert g._sssp_cache == {}
    g2 = Graph()
    g2.add_edge(0, 1, 1)
    g2.add_node(2)
    with pytest.raises(ValueError, match="cannot reach"):
        build_spt(g2, 0)


def test_spt_random_matches_oracle():
    for seed in range(8):
        g = random_graph(16, 0.25, seed=seed + 20)
        for root in (0, 7, 15):
            check_spt(g, build_spt(g, root))


def test_repair_noop_for_non_tree_edge():
    g = ring_graph(6)
    t = build_spt(g, 0)
    non_tree = [e for e in g.alive_edges() if child_endpoint(t.parent, e) is None]
    assert non_tree
    before = dict(t.parent)
    g.kill_edge(non_tree[0])
    removed, added = t.repair(g, non_tree[0])
    assert (removed, added) == ([], [])
    assert t.parent == before


def test_repair_frozen_example():
    # path 0-1-2 plus chord 0-2 of weight 3; cutting 1-2 moves 2 under 0
    g = graph_of((0, 1, 1), (1, 2, 1), (0, 2, 3))
    t = build_spt(g, 0)
    assert t.parent[2] == 1
    g.kill_edge((1, 2))
    removed, added = t.repair(g, (1, 2))
    assert removed == [(1, 2)] and added == [(0, 2)]
    assert t.dist[2] == 3
    check_spt(g, t)


def test_repair_equals_rebuild_exhaustive_singles():
    for seed in range(5):
        g0 = random_graph(12, 0.35, seed=seed + 40)
        for e in g0.alive_edges():
            g = random_graph(12, 0.35, seed=seed + 40)
            if g.would_disconnect(e):
                continue
            trees = {r: build_spt(g, r) for r in g.nodes()}
            g.kill_edge(e)
            for r, t in trees.items():
                t.repair(g, e)
                check_spt(g, t)


def test_repair_equals_rebuild_multi_failure():
    rng = random.Random(99)
    for trial in range(30):
        g = random_graph(12, 0.4, seed=trial + 60)
        trees = {r: build_spt(g, r) for r in g.nodes()}
        for _ in range(3):
            candidates = [e for e in g.alive_edges() if not g.would_disconnect(e)]
            if not candidates:
                break
            e = candidates[rng.randrange(len(candidates))]
            g.kill_edge(e)
            for t in trees.values():
                t.repair(g, e)
        for t in trees.values():
            check_spt(g, t)


def test_repair_with_partial_knowledge_converges():
    # The root only repairs for dead edges it was told about. A tree edge
    # it has not heard of stays in the tree (a repair never adopts a dead
    # edge); the later repair for that edge must land on the true tree.
    g = graph_of((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5), (1, 3, 2))
    t = build_spt(g, 0)
    assert t.parent[3] == 1  # the 1-3 / 2-3 tie goes to the smaller id
    g.kill_edge((2, 3))
    g.kill_edge((1, 3))
    # root hears about 2-3 first, a non-tree edge; it keeps the unheard 1-3
    t.repair(g, (2, 3))
    assert t.parent[3] == 1
    t.repair(g, (1, 3))
    check_spt(g, t)


def test_subtree_and_paths():
    g = path_graph(5)
    t = build_spt(g, 0)
    assert subtree(g._ever, t.parent, 2) == {2, 3, 4}
    assert subtree(g._ever, t.parent, 4) == {4}
    assert root_path(t.parent, 3) == [3, 2, 1, 0]


def test_generators_connected():
    assert ring_graph(8).is_connected()
    assert grid_graph(3, 4).n == 12
    g = random_graph(24, 0.15, seed=5)
    assert g.is_connected() and g.n == 24
    for e in g.alive_edges():
        assert 1 <= g.weight(e) <= 4


# -- restricted adjacency maps ------------------------------------------------

FILTER_GRAPHS = st.one_of(
    st.builds(ring_graph, st.integers(3, 12),
              st.lists(st.integers(1, 4), min_size=12, max_size=12)),
    st.builds(random_graph, st.integers(2, 14), st.sampled_from([0.2, 0.4, 0.7]),
              st.integers(0, 10_000)),
)


@settings(max_examples=40, deadline=None)
@given(g=FILTER_GRAPHS, data=st.data())
def test_full_run_root_paths_equal_early_stop_paths(g, data):
    """A route is read from a full run, not one stopped once dst settles:
    a node's parent is final when it settles, and every node on dst's
    root path settles before dst, so both runs give dst the same path."""
    edges = g.alive_edges()
    hidden = set(data.draw(st.lists(st.sampled_from(edges), max_size=len(edges))))
    filtered = {u: {v: w for v, w in g.neighbors(u).items()
                    if edge_id(u, v) not in hidden} for u in g.nodes()}
    for adj in (g._adj, filtered):
        for src in g.nodes():
            dist, parent = dijkstra(adj, src)
            for dst in g.nodes():
                near, near_parent = dijkstra_until(adj, src, {dst})
                assert (dst in dist) == (dst in near)
                if dst in near:
                    assert dist[dst] == near[dst]
                    assert root_path(parent, dst) == root_path(near_parent, dst)


@settings(max_examples=80, deadline=None)
@given(g=FILTER_GRAPHS, data=st.data())
def test_induced_equals_induced_copy(g, data):
    """`induced` keeps each member's neighbours in the graph's order, so
    Dijkstra relaxes the same edges in the same order over both maps."""
    members = set(data.draw(st.lists(st.sampled_from(g.nodes()), min_size=1)))
    src = data.draw(st.sampled_from(sorted(members)))
    adj, want = induced(g._adj, members), induced_adj(g, members)
    assert adj == want
    assert all(list(adj[u].items()) == list(want[u].items()) for u in members)
    got, expect = dijkstra(adj, src), dijkstra(want, src)
    assert got == expect and list(got[0]) == list(expect[0])


# -- settle order: a full Dijkstra map lists an r-ball as its prefix --------

SETTLE_GRAPHS = st.one_of(
    FILTER_GRAPHS,
    st.builds(grid_graph, st.integers(1, 5), st.integers(2, 5)),
    st.builds(with_weights,
              st.builds(random_graph, st.integers(2, 12),
                        st.sampled_from([0.3, 0.6]), st.integers(0, 10_000)),
              st.lists(st.sampled_from([1, Fraction(3, 2), Fraction(5, 2),
                                        Fraction(4, 3)]),
                       min_size=66, max_size=66)),
)


@settings(max_examples=80, deadline=None)
@given(g=SETTLE_GRAPHS, data=st.data())
def test_full_dijkstra_maps_are_settle_ordered_r_balls(g, data):
    for _ in range(3):
        fw = fw_all_pairs(g)
        for u in g.nodes():
            dist = g.sssp(u)[0]
            keys = [(d, x) for x, d in dist.items()]
            assert keys == sorted(keys)
            assert dist == {x: d for x, d in fw[u].items() if d is not None}
        u = data.draw(st.sampled_from(g.nodes()))
        r = data.draw(st.sampled_from(sorted({d for d in fw[u].values()
                                              if d is not None})))
        r += data.draw(st.sampled_from([0, Fraction(1, 3)]))
        prefix = dict(takewhile(lambda xd: xd[1] <= r, g.sssp(u)[0].items()))
        assert prefix == brute_neighborhood(g, u, r)
        # the maps after a failure, the graph possibly disconnected
        if not g.alive_edges():
            break
        g.kill_edge(data.draw(st.sampled_from(g.alive_edges())))


# -- the unit-weight kernel against the one Dijkstra ------------------------


@st.composite
def unit_graphs(draw):
    """A graph of unit edges drawn at random over 1-14 nodes, connected or
    not, with the edges added in a drawn order."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph()
    for u in range(n):
        g.add_node(u)
    for u, v in edges:
        a, b = draw(st.permutations([u, v]))
        g.add_edge(a, b, 1)
    return g


UNIT_GRAPHS = st.one_of(
    unit_graphs(),
    st.builds(grid_graph, st.integers(1, 5), st.integers(2, 5)),
    st.builds(ring_graph, st.integers(3, 12)),
    st.builds(random_graph, st.integers(2, 14), st.sampled_from([0.2, 0.4, 0.7]),
              st.integers(0, 10_000), st.just(1), st.just(1)),
)


def same_in_key_order(got, want):
    return got == want and all(list(a.items()) == list(b.items())
                               for a, b in zip(got, want))


@settings(max_examples=120, deadline=None)
@given(g=UNIT_GRAPHS, data=st.data())
def test_bfs_equals_dijkstra_on_unit_graphs(g, data):
    """Both maps equal Dijkstra's item for item, in key order, from every
    source over the whole graph and over induced node sets (often
    disconnected), before and after a failure."""
    assert g.unit
    for _ in range(2):
        members = set(data.draw(st.lists(st.sampled_from(g.nodes()), min_size=1)))
        for adj in (g._adj, induced(g._adj, members)):
            for src in adj:
                want = dijkstra(adj, src)
                assert same_in_key_order(bfs(adj, src), want)
                assert same_in_key_order(g.settle(adj, src), want)
        if not g.alive_edges():
            break
        g.kill_edge(data.draw(st.sampled_from(g.alive_edges())))


@st.composite
def seed_maps(draw, adj):
    """A `start=` map over some of adj's nodes, with tied distances and
    parents that may lie outside adj, as `repair`'s seeds do."""
    nodes = draw(st.lists(st.sampled_from(sorted(adj)), min_size=1, unique=True))
    return {x: (draw(st.sampled_from([0, 1, 2, 3, Fraction(3, 2), Fraction(5, 2)])),
                draw(st.integers(-3, 40))) for x in nodes}


@settings(max_examples=80, deadline=None)
@given(g=SETTLE_GRAPHS, data=st.data())
def test_lean_loop_matches_the_relax_all_loop(g, data):
    """Passing over settled neighbours moves no distance, no parent and no
    settle order, from one source or from seeds, over the whole graph or
    a restricted map."""
    members = set(data.draw(st.lists(st.sampled_from(g.nodes()), min_size=1)))
    for adj in (g._adj, induced(g._adj, members)):
        runs = [{"source": u} for u in adj]
        runs += [{"start": data.draw(seed_maps(adj))} for _ in range(3)]
        for kw in runs:
            got, want = dijkstra(adj, **kw), relax_all_dijkstra(adj, **kw)
            assert got == want
            assert list(got[0]) == list(want[0])


# -- SPT repair against the heap loop it replaced ---------------------------

REPAIR_GRAPHS = st.one_of(
    st.builds(random_graph, st.integers(4, 14), st.sampled_from([0.3, 0.5, 0.8]),
              st.integers(0, 10_000)),
    st.builds(grid_graph, st.integers(2, 4), st.integers(2, 4)),
    st.builds(ring_graph, st.integers(3, 10),
              st.lists(st.integers(1, 4), min_size=10, max_size=10)),
)


@settings(max_examples=80, deadline=None)
@given(g=REPAIR_GRAPHS, data=st.data())
def test_repair_matches_heap_loop_and_full_diff(g, data):
    """Failures arrive one by one; the owner hears of them late and in any
    order, so its tree may keep dead edges it has not heard of. Each repair
    changes dist/parent exactly as the old heap loop did and reports the
    whole tree-edge set difference; once every notice is in, the tree is
    the true shortest path tree."""
    t = build_spt(g, data.draw(st.sampled_from(g.nodes())))
    pending = []

    def hear(e):
        want_dist, want_parent = dict(t.dist), dict(t.parent)
        patch = heap_repair(t, g, e)
        if patch is not None:
            want_dist.update(patch[0])
            want_parent.update(patch[1])
        before = tree_edges(t.parent)
        removed, added = t.repair(g, e)
        after = tree_edges(t.parent)
        assert (removed, added) == (sorted(before - after), sorted(after - before))
        assert (t.dist, t.parent) == (want_dist, want_parent)

    for _ in range(data.draw(st.integers(1, 5))):
        cands = [e for e in g.alive_edges() if not g.would_disconnect(e)]
        if not cands:
            break
        e = data.draw(st.sampled_from(cands))
        g.kill_edge(e)
        pending.append(e)
        for heard in data.draw(st.lists(st.sampled_from(pending), unique=True)):
            pending.remove(heard)
            hear(heard)
    for e in pending:
        hear(e)
    check_spt(g, t)


@settings(max_examples=100, deadline=None)
@given(g=REPAIR_GRAPHS, data=st.data())
def test_subtree_walk_matches_children_index_with_an_unheard_dead_edge(g, data):
    """Two tree edges die and the owner repairs only one, so its tree
    holds both while `repair` cuts it and the unheard one after. Over the
    adjacency `repair` walks, and over `_ever` after the repair, every
    node's subtree equals the children index of the whole map."""
    t = build_spt(g, data.draw(st.sampled_from(g.nodes())))
    dead = []
    for _ in range(2):
        cands = [e for e in sorted(tree_edges(t.parent))
                 if g.is_alive(e) and not g.would_disconnect(e)]
        if not cands:
            return
        dead.append(data.draw(st.sampled_from(cands)))
        g.kill_edge(dead[-1])
    heard, unheard = data.draw(st.permutations(dead))
    below_unheard = tree_child_endpoint(t.parent, unheard)
    real = graph_module.subtree
    cuts = []

    def spy(adj, parent_map, v):
        for x in parent_map:
            assert real(adj, parent_map, x) == children_subtree(parent_map, x)
        cuts.append(children_subtree(parent_map, v))
        return real(adj, parent_map, v)

    graph_module.subtree = spy
    try:
        t.repair(g, heard)
    finally:
        graph_module.subtree = real
    [lost] = cuts
    # a repair never adopts a dead edge, so the unheard one stays in the
    # tree iff the cut did not take its lower end
    assert contains_tree_edge(t.parent, unheard) == (below_unheard not in lost)
    for v in t.parent:
        assert subtree(g._ever, t.parent, v) == children_subtree(t.parent, v)


# -- parent-map functions against the walks they replaced --------------------

@st.composite
def parent_maps(draw, max_nodes=14):
    """A random rooted tree as {node: parent}, keys in a random order."""
    order = draw(st.permutations(range(draw(st.integers(1, max_nodes)))))
    parent = {order[0]: None}
    for k in range(1, len(order)):
        parent[order[k]] = order[draw(st.integers(0, k - 1))]
    return {x: parent[x] for x in draw(st.permutations(order))}


@settings(max_examples=200, deadline=None)
@given(pm=parent_maps(), data=st.data())
def test_prune_equals_leaf_deleting_fixpoint(pm, data):
    nodes = sorted(pm)
    keep = data.draw(st.sets(st.sampled_from(nodes + [len(nodes) + 5])))
    root = data.draw(st.sampled_from(nodes))
    assert list(prune(pm, keep, root).items()) == \
        list(prune_fixpoint(pm, keep, root).items())


@settings(max_examples=200, deadline=None)
@given(pm=parent_maps(), data=st.data())
def test_root_path_reroot_child_endpoint_match_old_walks(pm, data):
    nodes = sorted(pm)
    v = data.draw(st.sampled_from(nodes))
    assert root_path(pm, v) == path_to_root(pm, v)
    out = reroot(pm, v)
    assert list(out.items()) == list(reroot_walk(pm, v).items())
    assert out[v] is None and {edge_id(x, p) for x, p in out.items() if p is not None} \
        == {edge_id(x, p) for x, p in pm.items() if p is not None}
    for a in nodes:
        for b in nodes:
            if a < b:
                want = tree_child_endpoint(pm, (a, b)) \
                    if contains_tree_edge(pm, (a, b)) else None
                assert child_endpoint(pm, (a, b)) == want


@settings(max_examples=200, deadline=None)
@given(pm=parent_maps(), data=st.data())
def test_split_leader_is_the_nearest_member(pm, data):
    """A split-off part's tree is rooted at the cut endpoint v; its leader
    is the member of least tree distance to v, ties to the smaller id."""
    g = Graph()
    for x, p in pm.items():
        g.add_node(x)
        if p is not None:
            g.add_edge(x, p, data.draw(st.sampled_from([1, 2, Fraction(3, 2)])))
    v = next(x for x, p in pm.items() if p is None)
    members = sorted(data.draw(st.sets(st.sampled_from(sorted(pm)), min_size=1)))
    w = min(members, key=lambda m: (g.path_weight(root_path(pm, m)), m))
    assert w == split_leader(g, pm, v, members)

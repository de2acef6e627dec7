"""Sparse partition hierarchy: construction, verification, preprocessing."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from faultdir.cli import _gen_scenario
from faultdir.graph import (grid_graph, load_graph, path_graph, random_graph,
                            ring_graph, root_path)
from faultdir.partition import (
    SHIFT_DENOMINATOR, Hierarchy, _grow_waves, _wave_starts, build_hierarchy,
    build_partition, choose_leader, cluster_tree, eccentricities,
    preprocess_leaders, verify_partition,
)
from faultdir.scenario import Runtime, build_graph
from golden.corpus import GOLDEN, scenario as golden_scenario
from oracles import (brute_center, brute_cluster_diameter, brute_diameter,
                     brute_intersection_count, brute_weak_assign,
                     brute_weak_partition, cluster_of, clusters_intersecting,
                     fw_all_pairs, neighborhood_clusters,
                     nested_preprocess_leaders, two_pass_pre_check,
                     with_weights)


def test_r_below_min_weight_singletons():
    g = ring_graph(6, weights=3)
    for mode in ("weak", "strong"):
        clusters = build_partition(g, 2, mode, random.Random(1))
        assert len(clusters) == 6
        assert all(len(m) == 1 for _, m in clusters)


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_grid_partition_verifies(mode):
    g = grid_graph(8, 8)
    hier = build_hierarchy(g, rho=2, mode=mode, seed=11)
    report = verify_partition(hier)
    assert report["ok"], report["problems"]
    assert 1 <= hier.sigma < 2
    assert hier.overlap >= 1


def test_two_node_hierarchy():
    g = load_graph("0 1 1\n")
    hier = build_hierarchy(g, rho=2, mode="strong", seed=0)
    assert hier.base_top == 0
    assert sorted(hier.all_levels()) == [-1, 0]
    assert len(hier.clusters_at(-1)) == 2
    top = hier.clusters_at(0)
    assert len(top) == 1 and top[0].members == {0, 1}
    assert hier.root == 0  # tie on eccentricity goes to the smaller id


def test_unit_path_levels_and_radii():
    g = path_graph(9)  # diameter 8
    hier = build_hierarchy(g, rho=2, mode="strong", seed=3)
    assert hier.base_top == 3
    assert [hier.radius(i) for i in range(-1, 4)] == [0, 1, 2, 4, 8]
    assert hier.radius(5) == 32  # hypothetical extension level


def test_radius_caps_at_initial_diameter():
    g = path_graph(6)  # diameter 5, h = 3, r_3 = min(5, 8) = 5
    hier = build_hierarchy(g, rho=2, mode="weak", seed=0)
    assert hier.base_top == 3
    assert hier.radius(3) == 5


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_random_graph_invariants(mode):
    g = random_graph(32, 0.15, seed=8)
    hier = build_hierarchy(g, rho=2, mode=mode, seed=8)
    report = verify_partition(hier)
    assert report["ok"], report["problems"]
    # cross-check measured parameters against the brute-force oracle
    for i in hier.all_levels():
        r = hier.radius(i)
        for c in hier.clusters_at(i):
            d = brute_cluster_diameter(g, c.members, mode)
            if r > 0:
                assert d <= hier.sigma * r
        for u in [0, 9, 31]:
            assert brute_intersection_count(g, hier, u, i) <= hier.overlap


def test_level_minus_one_and_top():
    g = grid_graph(4, 4)
    hier = build_hierarchy(g, rho=2, mode="strong", seed=2)
    for c in hier.clusters_at(-1):
        assert len(c.members) == 1 and c.diameter(g, "strong") == 0
    assert len(hier.clusters_at(hier.top)) == 1
    for u in g.nodes():
        assert len(clusters_intersecting(hier, u, hier.top)) == 1
        assert len(clusters_intersecting(hier, u, -1)) == 1


def test_leaders_are_centers():
    g = path_graph(5)
    assert choose_leader(eccentricities(g, {0, 1, 2, 3, 4}, "strong")) == 2
    assert choose_leader(eccentricities(g, {0, 1}, "weak")) == 0  # tie to smaller id
    assert choose_leader(eccentricities(g, {3}, "strong")) == 3
    with pytest.raises(ValueError, match="disconnected"):
        eccentricities(g, {0, 2}, "strong")
    assert eccentricities(g, {0, 2}, "weak") == {0: 2, 2: 2}


def test_cluster_tree_strong_stays_inside():
    g = ring_graph(6)
    tree = cluster_tree(g, 1, {0, 1, 2}, "strong")
    assert set(tree) == {0, 1, 2}
    assert tree[1] is None and tree[0] == 1 and tree[2] == 1


def test_cluster_tree_weak_annotates_passthrough():
    # members 0 and 2 with 1 in the middle: weak tree must route through 1
    g = path_graph(3)
    tree = cluster_tree(g, 0, {0, 2}, "weak")
    assert set(tree) == {0, 1, 2}
    assert tree[2] == 1 and tree[1] == 0


def test_tree_paths_within_diameter_bound():
    for mode in ("weak", "strong"):
        g = random_graph(24, 0.2, seed=5)
        hier = build_hierarchy(g, rho=2, mode=mode, seed=5)
        for i in hier.all_levels():
            r = hier.radius(i)
            for c in hier.clusters_at(i):
                for m in c.members:
                    cost = g.path_weight(root_path(c.tree_parent, m))
                    if r > 0:
                        assert cost <= hier.sigma * r


def test_neighborhood_clusters_matches_oracle():
    g = grid_graph(5, 5)
    hier = build_hierarchy(g, rho=2, mode="strong", seed=4)
    ldir, _ = preprocess_leaders(hier)
    for u in (0, 12, 24):
        for i in range(0, hier.top + 1):
            believed = neighborhood_clusters(ldir, hier, u, i)
            truth = {c.leader for c in clusters_intersecting(hier, u, i)}
            assert set(believed) == truth
            assert len(believed) <= hier.overlap


def test_preprocess_tables_and_costs():
    g = load_graph("0 1 1\n")
    hier = build_hierarchy(g, rho=2, mode="weak", seed=0)
    ldir, setup = preprocess_leaders(hier)
    lead = cluster_of(hier, 0, 0).leader
    assert ldir.believed_leader(0, 1, 0) == lead
    assert ldir.believed_leader(1, 0, 0) == lead
    # one remote exchange per direction at level 0, at distance 1 each
    assert setup == (2, 1 + 1)


def test_preprocess_ring_matches_oracle():
    g = ring_graph(16)
    hier = build_hierarchy(g, rho=2, mode="strong", seed=7)
    ldir, setup = preprocess_leaders(hier)
    dist = fw_all_pairs(g)
    messages, cost = 0, 0
    for u in g.nodes():
        for i in range(0, hier.top + 1):
            r = hier.radius(i)
            # the protocol asks only about nodes within r_i (see
            # test_build_time_beliefs_are_asked_only_within_radius)
            for x in g.nodes():
                if dist[u][x] > r:
                    continue
                assert ldir.believed_leader(u, x, i) == \
                    cluster_of(hier, i, x).leader
                if x != u:
                    messages += 1
                    cost += dist[u][x]
        for i in (-1, hier.top + 1):
            assert all(ldir.believed_leader(u, x, i) is None
                       for x in g.nodes())
    assert setup == (messages, cost)


# -- the leader index against the nested per-pair directory ------------------


def askable(hier):
    """The (u, x, level) at build levels whose build-time belief the
    protocol can ask for: x within r_level of u on the build graph, by
    Floyd-Warshall."""
    dist = fw_all_pairs(hier.g)
    return {(u, x, i) for i in range(hier.top + 1) for u, du in dist.items()
            for x, d in du.items() if d <= hier.radius(i)}


def assert_same_beliefs(ldir, ref, hier, asks, told=()):
    """The leader index answers as the nested reference on every query the
    protocol can make: any (u, x, level) u was told about, the `asks` at
    build levels, and every query at a level outside the build range."""
    build_levels = {i for _, _, i in asks}
    nodes = hier.g.nodes()
    for i in range(-1, hier.top + 2):
        for u in nodes:
            for x in nodes:
                q = (u, x, i)
                if i in build_levels and q not in asks and q not in told:
                    continue
                assert ldir.believed_leader(*q) == ref.believed_leader(*q), q


def fraction_ring():
    return ring_graph(12, [Fraction(3, 2), 1, Fraction(5, 3), 2, 1,
                           Fraction(7, 4)] * 2)


@pytest.mark.parametrize("graph,mode,kind", [
    (lambda: grid_graph(6, 6), "strong", int),
    (lambda: grid_graph(6, 6), "weak", int),
    (fraction_ring, "strong", Fraction),
    (fraction_ring, "weak", Fraction),
])
def test_preprocess_matches_nested_reference(graph, mode, kind):
    hier = build_hierarchy(graph(), rho=2, mode=mode, seed=3)
    ldir, setup = preprocess_leaders(hier)
    ref, want = nested_preprocess_leaders(hier)
    assert setup == want
    assert type(setup[0]) is int and type(setup[1]) is type(want[1]) is kind
    assert_same_beliefs(ldir, ref, hier, askable(hier))


def test_runtime_holds_one_leader_per_level_and_node():
    rt = Runtime({"name": "t", "mode": "weak", "rho": 2, "seed": 1,
                  "graph": {"kind": "grid", "rows": 5, "cols": 5},
                  "events": []})
    nodes = rt.g.nodes()
    assert sorted(rt.ldir.leaders) == list(range(rt.hier.top + 1))
    for i, table in rt.ldir.leaders.items():
        assert sorted(table) == nodes
        assert all(table[x] == cluster_of(rt.hier, i, x).leader for x in nodes)
    assert rt.ldir.news == {}
    assert set(vars(rt.ldir)) == {"leaders", "news"}
    # each tree is the build graph's cached maps, not a copy
    for u in nodes:
        dist, parent = rt.g.sssp(u)
        assert rt.sim.trees[u].dist is dist and rt.sim.trees[u].parent is parent


GENERATED = {
    f"grid6-{mode}-{seed}": dict(graph_spec={"kind": "grid", "rows": 6,
                                             "cols": 6},
                                 mode=mode, rho=2, seed=seed, ops=12,
                                 failures=4, horizon=2000, move_frac=0.3)
    for mode in ("strong", "weak") for seed in (1, 2)
} | {
    f"{kind}-{mode}": dict(graph_spec=spec, mode=mode, rho=2, seed=3, ops=20,
                           failures=8, horizon=2000, move_frac=0.4)
    for kind, spec in (("ring14", {"kind": "ring", "n": 14}),
                       ("random24", {"kind": "random", "n": 24, "p": 0.2,
                                     "seed": 5}))
    for mode in ("strong", "weak")
}


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(GENERATED))
def test_leader_index_answers_as_nested_reference_over_runs(name):
    sc = golden_scenario(name) if name in GOLDEN \
        else _gen_scenario(**GENERATED[name])
    rt = Runtime(sc)
    build_top = rt.hier.top
    asks = askable(rt.hier)
    ref, setup = nested_preprocess_leaders(rt.hier)
    assert rt.sim.ledger.total("setup") == setup
    assert_same_beliefs(rt.ldir, ref, rt.hier, asks)
    told = set()
    real = rt.ldir.set_belief

    def mirrored(u, x, level, leader):
        told.add((u, x, level))
        real(u, x, level, leader)
        ref.set_belief(u, x, level, leader)

    rt.ldir.set_belief = mirrored
    rt.run()
    assert_same_beliefs(rt.ldir, ref, rt.hier, asks, told)
    if any(s["child"] is not None for f in rt.engine.failures
           for s in f["splits"]):
        assert told  # a split announces its new leader
    if name.startswith("ring-ext"):
        assert max(level for _, _, level in told) > build_top


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(GENERATED))
def test_build_time_beliefs_are_asked_only_within_radius(name):
    # why `LeaderDirectory` needs no distance test: every answer the run
    # takes from the build table is about an x within r_i of u on the
    # build graph, the only x that u learned of at build time
    sc = golden_scenario(name) if name in GOLDEN \
        else _gen_scenario(**GENERATED[name])
    rt = Runtime(sc)
    asks = askable(rt.hier)
    ldir = rt.ldir
    real = ldir.believed_leader
    from_table = set()

    def watched(u, x, level):
        if level in ldir.leaders and x not in ldir.news.get(level, {}).get(u, {}):
            from_table.add((u, x, level))
        return real(u, x, level)

    ldir.believed_leader = watched
    rt.run()
    assert from_table
    assert not from_table - asks


def test_shortcut_constants_exact():
    g = grid_graph(6, 6)
    hier = build_hierarchy(g, rho=2, mode="strong", seed=9)
    c = hier.shortcut_factor
    s, p = hier.sigma, hier.rho
    assert c >= 2 + Fraction(2 * (s * p + p + s), (p - 1) * p)
    assert c * s >= 1 + Fraction(2 * s * (p + 1) + p, p - 1)
    # power of rho
    k = c
    while k > 1:
        assert k % p == 0
        k //= p
    off = hier.shortcut_offset
    assert p ** off >= c * s > p ** (off - 1)
    assert hier.shortcut_level(hier.top) == hier.top


def test_build_hierarchy_rejects_tiny():
    g = load_graph("0 1 1\n")
    with pytest.raises(ValueError):
        build_hierarchy(g, rho=1, mode="strong", seed=0)
    from faultdir.graph import Graph
    g1 = Graph()
    g1.add_node(0)
    with pytest.raises(ValueError):
        build_hierarchy(g1, rho=2, mode="strong", seed=0)


def test_determinism_same_seed():
    g = random_graph(20, 0.2, seed=3)
    a = build_hierarchy(g, rho=2, mode="weak", seed=42)
    g2 = random_graph(20, 0.2, seed=3)
    b = build_hierarchy(g2, rho=2, mode="weak", seed=42)
    for i in a.all_levels():
        sig_a = sorted((c.leader, tuple(sorted(c.members))) for c in a.clusters_at(i))
        sig_b = sorted((c.leader, tuple(sorted(c.members))) for c in b.clusters_at(i))
        assert sig_a == sig_b


# -- the wave Dijkstra against the pairwise argmin ---------------------------

GRAPHS = st.one_of(
    st.builds(grid_graph, st.integers(1, 6), st.integers(2, 6)),
    st.builds(ring_graph, st.integers(3, 14),
              st.lists(st.integers(1, 4), min_size=14, max_size=14)),
    st.builds(random_graph, st.integers(2, 16), st.sampled_from([0.2, 0.35, 0.6]),
              st.integers(0, 10_000)),
)


@settings(max_examples=80, deadline=None)
@given(g=GRAPHS, frac=st.fractions(min_value=0, max_value=1, max_denominator=8),
       seed=st.integers(0, 10_000))
def test_weak_partition_equals_pairwise_argmin(g, frac, seed):
    D = brute_diameter(g)
    r = max(1, frac * D)
    if r >= D:
        r = D - 1 if D > 1 else Fraction(1, 2)
    got = build_partition(g, r, "weak", random.Random(seed))
    assert got == brute_weak_partition(g, r, random.Random(seed))
    # strong mode draws the same shifts and grows the same waves
    assert build_partition(g, r, "strong", random.Random(seed)) == got


@settings(max_examples=80, deadline=None)
@given(g=GRAPHS, data=st.data())
def test_waves_equal_pairwise_argmin_under_forced_ties(g, data):
    # small integer starts make equal keys from different centers common
    nodes = g.nodes()
    starts = {u: data.draw(st.integers(0, 3)) for u in nodes}
    assign = _grow_waves(g, nodes, starts, 1)
    assert assign == brute_weak_assign(g, starts)
    for c in set(assign.values()):
        members = {v for v, cc in assign.items() if cc == c}
        brute_cluster_diameter(g, members, "strong")  # asserts connected


def test_waves_break_key_ties_by_center_id():
    # path 0-1-2-3-4-5: center 5 starts at 0, center 1 at 2, the rest late.
    # Node 2 is reached at key 3 from both 1 and 5 and goes to 1; node 3 is
    # reached at key 2 from 5 before 1's wave gets there.
    g = path_graph(6)
    starts = {0: 9, 1: 2, 2: 9, 3: 9, 4: 9, 5: 0}
    want = {0: 1, 1: 1, 2: 1, 3: 5, 4: 5, 5: 5}
    assert _grow_waves(g, g.nodes(), starts, 1) == want
    assert brute_weak_assign(g, starts) == want
    # equal starts everywhere: every node keeps itself
    flat = {u: 0 for u in g.nodes()}
    assert _grow_waves(g, g.nodes(), flat, 1) == {u: u for u in g.nodes()}
    # a 4-cycle with opposite centers tied: both middle nodes go to 0
    ring = ring_graph(4)
    tied = {0: 0, 1: 5, 2: 0, 3: 5}
    assert _grow_waves(ring, ring.nodes(), tied, 1) == {0: 0, 1: 0, 2: 2, 3: 0}
    assert brute_weak_assign(ring, tied) == {0: 0, 1: 0, 2: 2, 3: 0}


# -- integer wave keys against the rational pairwise argmin -----------------

def near_tie():
    """Fractions a/q < b/q' in [0, 1), with q and q' just below
    SHIFT_DENOMINATOR and b/q' - a/q = 1/(q q') < 2^-59. q is a multiple
    of 6, so a/q plus any multiple of 1/6 keeps a denominator within q."""
    q, q2 = SHIFT_DENOMINATOR - 4, SHIFT_DENOMINATOR - 3
    assert q % 6 == 0
    b = pow(q, -1, q2)
    a = (b * q - 1) // q2
    lo, hi = Fraction(a, q), Fraction(b, q2)
    assert 0 < hi - lo < Fraction(1, 2 ** 59)
    return lo, hi


def int_key_assign(g, shifts):
    """`build_partition`'s assignment for the given shifts, which must
    have denominators within SHIFT_DENOMINATOR."""
    assert all(s.denominator <= SHIFT_DENOMINATOR for s in shifts.values())
    return _grow_waves(g, g.nodes(), *_wave_starts(g, shifts))


def rational_assign(g, shifts):
    """The pairwise argmin over the rational keys top - shift_c + d(c, v)."""
    top = max(shifts.values())
    return brute_weak_assign(g, {u: top - s for u, s in shifts.items()})


def test_int_keys_split_near_ties_and_keep_exact_ties():
    lo, hi = near_tie()
    # path 0-1-2: node 1 is reached from 0 and from 2 with keys 1/(q q')
    # apart; the larger shift, at center 2, wins it
    g = path_graph(3)
    near = {0: 5 + lo, 1: Fraction(0), 2: 5 + hi}
    assert int_key_assign(g, near) == rational_assign(g, near) == {0: 0, 1: 2, 2: 2}
    # an exact tie goes to the smaller center id
    tied = {0: 5 + hi, 1: Fraction(0), 2: 5 + hi}
    assert int_key_assign(g, tied) == rational_assign(g, tied) == {0: 0, 1: 0, 2: 2}
    # weights 3/2: node 1's own start is 1/(q q') either side of 0's wave
    h = load_graph("0 1 3/2\n1 2 3/2\n")
    near = {0: 7 + hi, 1: Fraction(11, 2) + lo, 2: Fraction(0)}
    assert int_key_assign(h, near) == rational_assign(h, near) == {0: 0, 1: 0, 2: 0}
    near = {0: Fraction(15, 2) + lo, 1: 6 + hi, 2: Fraction(0)}
    assert int_key_assign(h, near) == rational_assign(h, near) == {0: 0, 1: 1, 2: 1}


@settings(max_examples=80, deadline=None)
@given(g=st.one_of(GRAPHS, st.builds(
           with_weights,
           st.builds(random_graph, st.integers(2, 12), st.sampled_from([0.3, 0.6]),
                     st.integers(0, 10_000)),
           st.lists(st.sampled_from(["1", "3/2", "5/2", "4/3"]),
                    min_size=66, max_size=66))),
       data=st.data())
def test_int_wave_keys_equal_rational_argmin_near_ties(g, data):
    # shifts from a small pool: equal keys and keys 1/(q q') apart are
    # common, also across weights with denominators 2 and 3
    lo, hi = near_tie()
    pool = [Fraction(m, 6) + lo for m in range(12)] + [m + hi for m in range(4)]
    shifts = {u: data.draw(st.sampled_from(pool)) for u in g.nodes()}
    assert int_key_assign(g, shifts) == rational_assign(g, shifts)


@pytest.mark.parametrize("mode", ["weak", "strong"])
@pytest.mark.parametrize("graph", [grid_graph(6, 6), random_graph(20, 0.2, seed=4),
                                   ring_graph(12, [1, 2, 3] * 4)])
def test_measured_parameters_equal_oracles(graph, mode):
    hier = build_hierarchy(graph, rho=2, mode=mode, seed=3)
    overlap, sigma = 1, Fraction(1)
    for i in hier.all_levels():
        r = hier.radius(i)
        if r == 0:
            continue
        for c in hier.clusters_at(i):
            sigma = max(sigma, Fraction(brute_cluster_diameter(graph, c.members, mode)) / r)
        for u in graph.nodes():
            overlap = max(overlap, len(clusters_intersecting(hier, u, i)),
                          brute_intersection_count(graph, hier, u, i))
    assert hier.overlap == overlap
    assert hier.sigma == sigma


# -- the one build-time pass against the two-pass reference -------------------


def assert_pre_check_is_two_pass(hier):
    sigma, overlap, report = two_pass_pre_check(hier)
    assert json.dumps(hier.pre_check) == json.dumps(report)
    assert hier.pre_check["ok"]
    assert type(hier.sigma) is Fraction and hier.sigma == sigma
    assert type(hier.overlap) is int and hier.overlap == overlap


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pre_check_equals_two_pass_reference_on_goldens(name):
    sc = golden_scenario(name)
    hier = build_hierarchy(build_graph(sc["graph"]), rho=sc["rho"],
                           mode=sc["mode"], seed=sc["seed"])
    assert_pre_check_is_two_pass(hier)
    assert hier.pre_check["levels"][0]["level"] == -1


@settings(max_examples=60, deadline=None)
@given(g=GRAPHS, mode=st.sampled_from(["weak", "strong"]),
       rho=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_pre_check_equals_two_pass_reference(g, mode, rho, seed):
    assert_pre_check_is_two_pass(build_hierarchy(g, rho=rho, mode=mode,
                                                 seed=seed))


@settings(max_examples=60, deadline=None)
@given(g=GRAPHS, mode=st.sampled_from(["weak", "strong"]))
def test_diameter_and_root_match_brute_force(g, mode):
    hier = build_hierarchy(g, rho=2, mode=mode, seed=0)
    assert hier.diameter0 == brute_diameter(g)
    assert hier.root == brute_center(g)
    top = hier.clusters_at(hier.top)[0]
    assert top.diameter(g, mode) == hier.diameter0


def test_verify_reports_a_disconnected_strong_cluster():
    g = grid_graph(6, 6)
    hier = build_hierarchy(g, rho=2, mode="strong", seed=1)
    cut = cluster_of(hier, 1, 2)
    assert cut.members == {2, 3, 9}
    g.kill_edge((2, 3))  # 2 loses its only induced link to {3, 9}
    report = verify_partition(hier, post_failure=True)
    assert not report["ok"]
    assert f"level 1: cluster {cut.id} induced subgraph disconnected" \
        in report["problems"]

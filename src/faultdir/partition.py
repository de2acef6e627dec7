"""Sparse partition hierarchies over weighted graphs.

Each level i carries a partition of the nodes into clusters whose diameter
is bounded by sigma * r_i, such that any r_i-neighborhood meets at most
`overlap` clusters. Level -1 is the singleton partition, the top level is
the whole node set led by a global root. Clustering uses random
exponential shifts and one multi-source Dijkstra, in both modes; the
achieved sigma and overlap are measured once after the build, by the same
pass that checks it, and those measured values parameterize every
downstream bound check.

Weak and strong mode share the partition and differ only in how leaders
and trees are chosen. Clusters keep explicit spanning trees rooted at
their leaders. In strong mode trees live inside the induced subgraph; in
weak mode they are pruned shortest path trees over the whole graph and
may pass through non-member nodes, and diameters are whole-graph ones.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from itertools import accumulate
from fractions import Fraction

from faultdir.graph import Graph, edge_id, induced
# bound but not called here: perfbench/tracing.py patches `dijkstra` in
# every module that imports it, and tests/test_bench_hooks.py holds it
from faultdir.graph import dijkstra  # noqa: F401

# Largest denominator of a random shift. `build_partition`'s integer wave
# keys are exact because every shift's denominator is at most this.
SHIFT_DENOMINATOR = 1 << 30


class Cluster:
    """One cluster: members, leader and a spanning tree rooted at the leader.

    tree_parent maps every tree node to its parent (leader maps to None).
    In weak mode the tree may contain non-member pass-through nodes; every
    tree node lies on the tree path of at least one member.
    """

    def __init__(self, cid: int, level: int, members: set[int], leader: int,
                 tree_parent: dict[int, int | None]):
        self.id = cid
        self.level = level
        self.members = set(members)
        self.leader = leader
        self.tree_parent = dict(tree_parent)
        # (graph version, diameter); cleared whenever members change
        self._diameter: tuple | None = None

    def diameter(self, g: Graph, mode: str):
        """Largest member-to-member distance; induced distances in strong
        mode, whole-graph distances in weak mode. 0 for singletons.

        Computed at most once per version of `g` (the hierarchy's graph,
        in the hierarchy's mode); whoever changes `members` must call
        `members_changed()`."""
        if self._diameter is None or self._diameter[0] != g.version:
            ecc = eccentricities(g, self.members, mode)
            self._diameter = (g.version, max(ecc.values(), default=0))
        return self._diameter[1]

    def members_changed(self) -> None:
        self._diameter = None


def eccentricities(g: Graph, members: set[int], mode: str) -> dict:
    """Member -> largest distance to another member: induced distances in
    strong mode, whole-graph ones in weak mode (the same distances when
    the members are every node, so those reuse the graph's cache). The
    induced map is built once and every member's `Graph.settle` runs on it."""
    if len(members) == 1:
        return {u: 0 for u in members}
    adj = induced(g._adj, members) \
        if mode == "strong" and len(members) < g.n else None
    out = {}
    for u in members:
        dist = g.settle(adj, u)[0] if adj is not None else g.sssp(u)[0]
        if not members <= dist.keys():
            raise ValueError(f"induced subgraph of {sorted(members)} is disconnected")
        out[u] = max(map(dist.__getitem__, members))
    return out


def _rational_exp_shift(rng: random.Random, rate: float, cap: float) -> Fraction:
    # Exponential draw, redrawn while >= cap so cluster radii stay below r
    # deterministically, converted to an exact rational so every later
    # comparison is reproducible across platforms.
    while True:
        u = rng.random()
        if u <= 0.0:
            continue
        val = -math.log(u) / rate
        if val < cap:
            return _limit_denominator(*val.as_integer_ratio())


def _limit_denominator(n: int, d: int) -> Fraction:
    """`Fraction(n, d).limit_denominator(SHIFT_DENOMINATOR)` for coprime
    n >= 0 and d > 0 (a float's `as_integer_ratio()`), in ints: the
    stdlib's continued-fraction loop, then its choice between the last
    convergent p1/q1 and the semiconvergent pk/qk, the closer one to n/d
    with p1/q1 on a tie. Both are in lowest terms, so the Fraction built
    from the chosen pair is the stdlib's."""
    if d <= SHIFT_DENOMINATOR:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        t = a // b
        q2 = q0 + t * q1
        if q2 > SHIFT_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + t * p1, q2
        a, b = b, a - t * b
    k = (SHIFT_DENOMINATOR - q0) // q1
    pk, qk = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |pk/qk - n/d|, both sides times d * q1 * qk
    if abs(p1 * d - n * q1) * qk <= abs(pk * d - n * qk) * q1:
        return Fraction(p1, q1)
    return Fraction(pk, qk)


def build_partition(g: Graph, r, mode: str, rng: random.Random) -> list[tuple[int, set[int]]]:
    """Partition the alive graph into clusters for radius parameter r.

    Every node c draws an exponential shift with rate ln(n)/r and starts
    at start_c = max shift - shift_c; node v joins the center minimising
    (start_c + d(c, v), c). Both modes use this partition; they differ
    only in leaders and trees. Returns sorted (center, member_set) pairs;
    leaders are chosen separately.

    The argmin is one multi-source Dijkstra (`_grow_waves`), not a scan
    over all (center, node) pairs (the random-shift clustering of Miller,
    Peng and Xu). If c wins v with key K = start_c + d(c, v), it also
    wins every node y on a shortest c-v path: a pair (start_c' + d(c', y),
    c') below (start_c + d(c, y), c) would, adding d(y, v) to both keys,
    give c' a pair below (K, c) at v. So v is reached from c through
    nodes c already owns, and ordering the heap by (key, center id)
    settles every node with exactly its lexicographic minimum. The same
    argument makes every cluster connected in its induced subgraph, as
    strong mode needs.

    The heap compares ints only, and orders them exactly as the rational
    keys. Every shift has a denominator of at most Q = SHIFT_DENOMINATOR,
    and every distance is a multiple of 1/W, W the lcm of the edge weights'
    denominators (1 on integer weights). Two keys start_c + d and
    start_c' + d' differ by shift_c' - shift_c + d - d', a multiple of
    1 / lcm(q, q', W) for the shifts' denominators q and q'. That lcm is
    at most q * q' * W <= Q^2 * W, so distinct keys differ by at least
    1 / (Q^2 * W).
    `_wave_starts` scales by S = 2 * Q^2 * W and floors each start:
    start_c + d becomes floor((start_c - top) * S) + d * S, which is
    floor((start_c + d - top) * S) because d * S is an int. Distinct keys
    lie at least 2 apart once scaled, so their floors keep the order, and
    equal keys stay equal, so ties still go to the smaller center id.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    nodes = g.nodes()
    rate = math.log(len(nodes)) / float(r)
    shifts = {u: _rational_exp_shift(rng, rate, float(r)) for u in nodes}
    groups: dict[int, set[int]] = {}
    for v, c in _grow_waves(g, nodes, *_wave_starts(g, shifts)).items():
        groups.setdefault(c, set()).add(v)
    return sorted(groups.items())


def _wave_starts(g: Graph, shifts: dict) -> tuple[dict[int, int], int]:
    """Integer wave starts and the edge scale S for `_grow_waves`, from
    rational shifts with denominators of at most SHIFT_DENOMINATOR:
    start_c = floor(-shift_c * S), which is floor((start_c - top) * S) for
    the rational start top - shift_c (see `build_partition`)."""
    w = math.lcm(*(g.weight(e).denominator for e in g.alive_edges()))
    scale = 2 * w * SHIFT_DENOMINATOR ** 2
    return ({u: -s.numerator * scale // s.denominator for u, s in shifts.items()},
            scale)


def _grow_waves(g: Graph, nodes, starts, scale) -> dict[int, int]:
    """Node -> center of the lexicographically least
    (start_c + scale * d(c, v), c), for int starts and a `scale` that
    makes every edge weight an int, so that every key is an int.

    Multi-source Dijkstra with heap keys (start_c + scale * d, c, x) where
    each wave only expands through nodes it already owns. It is not
    `dijkstra` with seeds: its keys are lexicographic (start_c + d, c),
    not additive distances."""
    assign: dict[int, int] = {}
    heap = [(starts[c], c, c) for c in nodes]
    heapq.heapify(heap)
    while heap:
        p, c, x = heapq.heappop(heap)
        if x in assign:
            continue
        assign[x] = c
        for y, w in g.neighbors(x).items():
            if y not in assign:
                heapq.heappush(heap, (p + int(w * scale), c, y))
    return assign


def choose_leader(ecc: dict) -> int:
    """Cluster center from `eccentricities`: the member with minimum
    eccentricity, ties to the smaller id."""
    return min(ecc, key=lambda u: (ecc[u], u))


def cluster_tree(g: Graph, leader: int, members: set[int], mode: str) -> dict[int, int | None]:
    """Spanning tree reaching all members, rooted at the leader.

    Strong mode: shortest path tree inside the induced subgraph, by
    `Graph.settle` over `graph.induced(g._adj, members)`. Weak
    mode: shortest path tree over the whole graph pruned to the union of
    member root paths (may keep non-member pass-through nodes). The weak
    walk is written out rather than `graph.prune`: its key order follows
    the member set's iteration order, which later output may depend on.
    """
    if mode == "strong":
        dist, parent = g.settle(induced(g._adj, members), leader)
        if len(dist) != len(members):
            raise ValueError("induced subgraph disconnected")
        return {u: parent[u] for u in members}
    dist, parent = g.sssp(leader)
    keep: set[int] = set()
    for m in members:
        x = m
        while x not in keep:
            keep.add(x)
            if parent[x] is None:
                break
            x = parent[x]
    return {u: (parent[u] if u != leader else None) for u in keep}


class Hierarchy:
    """The level stack of partitions plus the measured quality parameters."""

    def __init__(self, g: Graph, mode: str, rho: int):
        self.g = g
        self.mode = mode
        self.rho = rho
        self.levels: dict[int, dict[int, Cluster]] = {}
        self.assign: dict[tuple[int, int], int] = {}
        self._next_cid = 0
        self.base_top = 0
        self.top = 0
        self.diameter0 = None
        self.sigma = None
        self.overlap = None
        self.pre_check = None
        self.shortcut_factor = None
        self.shortcut_offset = None

    # -- structure accessors ---------------------------------------------

    def new_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def add_cluster(self, cluster: Cluster) -> None:
        self.levels.setdefault(cluster.level, {})[cluster.id] = cluster
        for m in cluster.members:
            self.assign[(cluster.level, m)] = cluster.id

    def clusters_at(self, level: int) -> list[Cluster]:
        return [self.levels[level][cid] for cid in sorted(self.levels[level])]

    def all_levels(self) -> list[int]:
        return sorted(self.levels)

    def radius(self, i: int):
        """Search radius of level i: min(D, rho^i) for the built levels,
        rho^i for levels added by a layer extension, 0 at level -1."""
        if i <= -1:
            return 0
        if i <= self.base_top:
            return min(self.diameter0, self.rho ** i)
        return self.rho ** i

    def led_by(self, level: int, y: int) -> Cluster | None:
        """The cluster y leads at `level`, if any. A leader is always a
        member of its own cluster (`verify_partition` checks it), so
        looking only at y's own cluster is exact."""
        c = self.levels.get(level, {}).get(self.assign.get((level, y)))
        return c if c is not None and c.leader == y else None

    @property
    def root(self) -> int:
        return self.clusters_at(self.top)[0].leader

    def overlap_at(self, v: int, i: int) -> int:
        """How many level-i clusters meet N(v, r_i) on the alive graph.
        Counts distinct owners of the neighborhood's nodes, so it relies
        on `assign` naming only level i's clusters, each for its members
        (a valid partition; `verify_partition` checks it). The
        neighborhood is the prefix of v's settle-ordered distance map up
        to the first node beyond r_i, and the count stops once it has seen
        every cluster of the level."""
        r = self.radius(i)
        assign = self.assign
        cap = len(self.levels[i])
        owners = set()
        for x, d in self.g.sssp(v)[0].items():
            if d > r:
                break
            owners.add(assign[(i, x)])
            if len(owners) == cap:
                break
        return len(owners)

    # -- measured parameters ----------------------------------------------

    def measure(self) -> None:
        """The one build-time pass: check the stack with `verify_partition`,
        keep its report as `pre_check`, and take sigma and overlap as the
        largest diameter-to-radius ratio and overlap in its rows for the
        levels with r > 0.

        Sigma and rho never change after this, so the shortcut constants
        are set here once: `shortcut_factor`, the smallest power of rho
        large enough that a shortcut registered `shortcut_offset` levels
        up is always inside the searcher's neighborhood, both before and
        after failures, and `shortcut_offset`, the fewest levels k with
        rho^k >= shortcut_factor * sigma."""
        self.pre_check = verify_partition(self)
        self.sigma, self.overlap = sigma_and_overlap(self.pre_check["levels"])
        s, p = self.sigma, self.rho
        need1 = 2 + Fraction(2 * (s * p + p + s), (p - 1) * p)
        need2 = (1 + Fraction(2 * s * (p + 1) + p, p - 1)) / s
        need = max(need1, need2)
        c = 1
        while c < need:
            c *= p
        self.shortcut_factor = c
        k = 0
        power = 1
        while power < c * s:
            power *= p
            k += 1
        self.shortcut_offset = k

    # -- derived constants -------------------------------------------------

    def shortcut_level(self, i: int) -> int:
        return min(i + self.shortcut_offset, self.top)


def build_hierarchy(g: Graph, rho: int = 2, mode: str = "strong", seed: int = 0) -> Hierarchy:
    """Build the full level stack: singletons at -1, exponential-shift
    partitions at 0..h-1, the whole node set at the top."""
    if rho < 2:
        raise ValueError("rho must be at least 2")
    if g.n < 2:
        raise ValueError("need at least two nodes")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    hier = Hierarchy(g, mode, rho)
    # the whole node set: its eccentricities give D, the root and the top
    # cluster's diameter
    ecc_all = eccentricities(g, set(g.nodes()), mode)
    D = max(ecc_all.values())
    hier.diameter0 = D
    h = 0
    power = 1
    while power < D:
        power *= rho
        h += 1
    hier.base_top = h
    hier.top = h

    for u in g.nodes():
        hier.add_cluster(Cluster(hier.new_cid(), -1, {u}, u, {u: None}))
    rng = random.Random(seed)
    for i in range(h):
        r = hier.radius(i)
        for _center, members in build_partition(g, r, mode, rng):
            ecc = eccentricities(g, members, mode)
            leader = choose_leader(ecc)
            c = Cluster(hier.new_cid(), i, members, leader,
                        cluster_tree(g, leader, members, mode))
            # the eccentricities that chose the leader also give the diameter
            c._diameter = (g.version, max(ecc.values()))
            hier.add_cluster(c)
    root = choose_leader(ecc_all)
    top = Cluster(hier.new_cid(), h, set(g.nodes()), root, g.sssp(root)[1])
    top._diameter = (g.version, D)
    hier.add_cluster(top)
    hier.measure()
    return hier


def sigma_and_overlap(levels: list[dict]) -> tuple[Fraction, int]:
    """The largest diameter-to-radius ratio and overlap in a partition
    report's rows for the levels with r > 0 (`measure`, `faultdir check`)."""
    rows = [(Fraction(row["r"]), row) for row in levels]
    return (max(Fraction(row["max_diameter"]) / r for r, row in rows if r > 0),
            max(row["max_overlap"] for r, row in rows if r > 0))


def verify_partition(hier: Hierarchy, post_failure: bool = False) -> dict:
    """Check the whole stack and report, per level, the radius, the
    cluster count, the largest cluster diameter and the largest number of
    clusters an r-ball meets; 'ok' is False if any check failed.

    Always checked: each level's clusters cover the nodes disjointly,
    `assign` maps each member to its cluster (the premise of
    `overlap_at`), leaders lie in their clusters, trees are valid and, in
    strong mode, clusters are connected (their induced eccentricities
    raise if not).
    After failures the diameters below the top must also stay within
    2 * sigma * r (the top's radius no longer tracks the grown diameter).
    Nothing bounds the overlap, and before failures nothing bounds a
    diameter: sigma and the overlap are build-time maxima (`measure`).
    """
    g = hier.g
    assign = hier.assign
    report = {"levels": [], "ok": True, "problems": []}

    def problem(msg):
        report["ok"] = False
        report["problems"].append(msg)

    nodes = set(g.nodes())
    for i in hier.all_levels():
        r = hier.radius(i)
        clusters = hier.clusters_at(i)
        limit = 2 * hier.sigma * r \
            if post_failure and r > 0 and i != hier.top else None
        seen: set[int] = set()
        max_diam = 0
        for c in clusters:
            if c.members & seen:
                problem(f"level {i}: overlapping members in cluster {c.id}")
            seen |= c.members
            if any(assign.get((i, m)) != c.id for m in c.members):
                problem(f"level {i}: assign does not map cluster {c.id}'s "
                        "members to it")
            if c.leader not in c.members:
                problem(f"level {i}: leader {c.leader} outside cluster {c.id}")
            try:
                d = c.diameter(g, hier.mode)
            except ValueError:  # strong mode: no induced diameter
                problem(f"level {i}: cluster {c.id} induced subgraph disconnected")
            else:
                max_diam = max(max_diam, d)
                if limit is not None and d > limit:
                    problem(f"level {i}: cluster {c.id} diameter {d} > {limit}")
            _check_tree(hier, c, problem)
        if seen != nodes:
            problem(f"level {i}: clusters do not cover all nodes")
        overlap = 0
        for u in g.nodes():  # no r-ball meets more than every cluster
            overlap = max(overlap, hier.overlap_at(u, i))
            if overlap == len(clusters):
                break
        report["levels"].append({
            "level": i, "r": str(r), "clusters": len(clusters),
            "max_diameter": str(max_diam), "max_overlap": overlap,
        })
    tops = hier.clusters_at(hier.top)
    if len(tops) != 1 or tops[0].members != nodes:
        problem("top level is not the whole node set")
    return report


def _check_tree(hier: Hierarchy, c: Cluster, problem) -> None:
    """Report a cluster tree that is not a valid spanning tree. Its walk to
    the root is written out rather than `graph.root_path`: it must guard
    against cycles and dangling parents instead of trusting the map."""
    g = hier.g
    if c.tree_parent.get(c.leader, "missing") is not None:
        problem(f"cluster {c.id}: leader is not the tree root")
        return
    for u, p in c.tree_parent.items():
        if p is None:
            continue
        if p not in c.tree_parent:
            problem(f"cluster {c.id}: dangling tree parent {p}")
            return
        if not g.is_alive((u, p)):
            problem(f"cluster {c.id}: tree edge {edge_id(u, p)} is dead")
    # reachability and member coverage
    covered: set[int] = set()
    for m in c.members:
        if m not in c.tree_parent:
            problem(f"cluster {c.id}: member {m} not on tree")
            return
        x = m
        hops = 0
        while x is not None:
            covered.add(x)
            x = c.tree_parent[x]
            hops += 1
            if hops > len(c.tree_parent) + 1:
                problem(f"cluster {c.id}: tree has a cycle")
                return
    extra = set(c.tree_parent) - covered
    if extra:
        problem(f"cluster {c.id}: tree nodes {sorted(extra)} serve no member")
    if hier.mode == "strong" and not set(c.tree_parent) <= c.members:
        problem(f"cluster {c.id}: non-member tree node in strong mode")


class LeaderDirectory:
    """Who each node believes leads the cluster of each nearby node, per level.

    `believed_leader(u, x, i)` answers, in this order:
    - the leader u was last told for (x, i) by `set_belief`, if any;
    - else the build-time leader of x at level i, if i is a level at build
      time (0..top);
    - else None.

    The build-time answers are one table {level: {node: leader}}; only the
    news is kept per node, as {level: {u: {x: leader}}}. Beliefs are
    refreshed by broadcast fanouts after reclustering, so they can be stale
    in flight. No distance test is needed: callers ask about x = u or an x
    within radius(i) of u on u's tree, and a tree distance (a path in the
    build graph) is never below the build-time distance.
    """

    def __init__(self, leaders: dict[int, dict[int, int]]):
        self.leaders = leaders
        self.news: dict[int, dict[int, dict[int, int]]] = {}

    def set_belief(self, u: int, x: int, level: int, leader: int) -> None:
        self.news.setdefault(level, {}).setdefault(u, {})[x] = leader

    def believed_leader(self, u: int, x: int, level: int) -> int | None:
        told = self.news.get(level)
        if told is not None:
            mine = told.get(u)
            if mine is not None and x in mine:
                return mine[x]
        leaders = self.leaders.get(level)
        return None if leaders is None else leaders[x]


def preprocess_leaders(hier: Hierarchy) -> tuple[LeaderDirectory, tuple[int, object]]:
    """Exact beliefs at build time: u learns, for every level i, the leader
    of every node within r_i. Returns the directory plus the number and
    summed distance of the (u, x != u, level) exchanges, which the runtime
    charges to the setup ledger. The sum starts from 0, so it stays an
    int when every distance is one. Each `g.sssp(u)` map is in settle
    order, so its distances are already sorted for the bisection."""
    g = hier.g
    levels = range(0, hier.top + 1)
    leaders = {i: {m: c.leader for c in hier.levels[i].values() for m in c.members}
               for i in levels}
    radii = [hier.radius(i) for i in levels]
    messages, cost = 0, 0
    for u in g.nodes():
        ds = list(g.sssp(u)[0].values())
        sums = list(accumulate(ds, initial=0))
        for r in radii:
            k = bisect_right(ds, r)
            messages += k - 1  # u itself, at distance 0, sends nothing
            cost += sums[k]
    return LeaderDirectory(leaders), (messages, cost)

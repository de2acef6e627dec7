"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from scratch against the raw
adjacency data (Floyd-Warshall, exhaustive scans) rather than reusing the
library's Dijkstra-based machinery, so the two routes to every number are
independent.
"""

import heapq
import math
from fractions import Fraction

from faultdir.graph import edge_id, subtree
from faultdir.partition import _check_tree, _rational_exp_shift, eccentricities

INF = None


def fw_all_pairs(g):
    """Floyd-Warshall over alive edges. Returns dist[u][v] dicts."""
    nodes = g.nodes()
    dist = {u: {v: (0 if u == v else INF) for v in nodes} for u in nodes}
    for (u, v) in g.alive_edges():
        w = g.weight((u, v))
        if dist[u][v] is INF or w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for k in nodes:
        for i in nodes:
            dik = dist[i][k]
            if dik is INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in nodes:
                dkj = row_k[j]
                if dkj is INF:
                    continue
                alt = dik + dkj
                if row_i[j] is INF or alt < row_i[j]:
                    row_i[j] = alt
    return dist


def brute_diameter(g):
    dist = fw_all_pairs(g)
    best = 0
    for u in g.nodes():
        for v in g.nodes():
            assert dist[u][v] is not INF, "disconnected"
            if dist[u][v] > best:
                best = dist[u][v]
    return best


def brute_center(g):
    """The node of least eccentricity, ties to the smaller id, by
    Floyd-Warshall."""
    dist = fw_all_pairs(g)
    return min(g.nodes(), key=lambda u: (max(dist[u].values()), u))


def neighborhood(g, u, r):
    """Nodes within distance r of u (u included), mapped to distance, from
    the graph's own cached Dijkstra."""
    dist, _ = g.sssp(u)
    return {v: d for v, d in dist.items() if d <= r}


def brute_neighborhood(g, u, r):
    dist = fw_all_pairs(g)
    return {v: d for v, d in dist[u].items() if d is not INF and d <= r}


def check_spt(g, spt):
    """A tree is a valid shortest path tree iff the root distance of every
    node matches Floyd-Warshall and each parent edge is alive, tight and
    uses the smallest-id optimal predecessor."""
    dist = fw_all_pairs(g)
    root = spt.root
    assert spt.dist[root] == 0 and spt.parent[root] is None
    for v in g.nodes():
        assert spt.dist[v] == dist[root][v], f"distance mismatch at {v}"
        p = spt.parent[v]
        if v == root:
            continue
        assert p is not None
        assert g.is_alive((p, v)), f"tree edge {p}-{v} dead"
        assert dist[root][p] + g.weight((p, v)) == dist[root][v], f"slack edge at {v}"
        for q in sorted(g.neighbors(v)):
            if q < p and dist[root][q] + g.weight((q, v)) == dist[root][v]:
                raise AssertionError(f"parent of {v} is {p} but {q} also optimal")


def brute_cluster_diameter(g, members, mode):
    members = set(members)
    if len(members) <= 1:
        return 0
    if mode == "weak":
        dist = fw_all_pairs(g)
        return max(dist[u][v] for u in members for v in members)
    # strong: Floyd-Warshall restricted to the induced subgraph
    nodes = sorted(members)
    dist = {u: {v: (0 if u == v else INF) for v in nodes} for u in nodes}
    for (u, v) in g.alive_edges():
        if u in members and v in members:
            dist[u][v] = g.weight((u, v))
            dist[v][u] = g.weight((u, v))
    for k in nodes:
        for i in nodes:
            if dist[i][k] is INF:
                continue
            for j in nodes:
                if dist[k][j] is INF:
                    continue
                alt = dist[i][k] + dist[k][j]
                if dist[i][j] is INF or alt < dist[i][j]:
                    dist[i][j] = alt
    best = 0
    for u in nodes:
        for v in nodes:
            assert dist[u][v] is not INF, "induced subgraph disconnected"
            best = max(best, dist[u][v])
    return best


def brute_intersection_count(g, hier, u, level):
    """How many level-`level` clusters meet N(u, r) exactly, by scanning
    all pairs of members against the neighborhood."""
    r = hier.radius(level)
    hood = set(brute_neighborhood(g, u, r))
    count = 0
    for c in hier.clusters_at(level):
        if any(m in hood for m in c.members):
            count += 1
    return count


def clusters_intersecting(hier, v, i):
    """Clusters at level i whose members meet N(v, r_i) on the alive
    graph, by scanning every cluster's members."""
    hood = neighborhood(hier.g, v, hier.radius(i))
    return [c for c in hier.clusters_at(i) if any(m in hood for m in c.members)]


def neighborhood_clusters(ldir, hier, u, level):
    """Leaders u believes in for the clusters meeting N(u, r_level) on the
    alive graph, mapped to the witness nodes supporting each belief."""
    out = {}
    for x in sorted(neighborhood(hier.g, u, hier.radius(level))):
        led = ldir.believed_leader(u, x, level)
        if led is not None:
            out.setdefault(led, []).append(x)
    return out


def scan_led_by(hier, level, y):
    """The first level cluster, by id, whose leader is y, or None: a scan
    over every cluster at the level."""
    for c in hier.clusters_at(level):
        if c.leader == y:
            return c
    return None


def induced_adj(g, allowed):
    """A copy of the alive adjacency restricted to the `allowed` nodes."""
    return {u: {v: w for v, w in g.neighbors(u).items() if v in allowed}
            for u in allowed}


def dump_graph(g):
    """The alive edges as 'u v w' lines, the format `load_graph` reads."""
    lines = [f"{u} {v} {g.weight((u, v))}" for u, v in g.alive_edges()]
    return "\n".join(lines) + "\n"


def brute_weak_assign(g, starts):
    """v -> the center c minimising (starts[c] + d(c, v), c), by scanning
    every (center, node) pair over Floyd-Warshall distances."""
    dist = fw_all_pairs(g)
    nodes = g.nodes()
    assign = {}
    for v in nodes:
        best = None
        for c in nodes:
            key = starts[c] + dist[c][v]
            if best is None or key < best[0] or (key == best[0] and c < best[1]):
                best = (key, c)
        assign[v] = best[1]
    return assign


def brute_weak_partition(g, r, rng):
    """The random-shift partition for radius r < diameter on n > 1 nodes:
    shifts drawn from `rng` exactly as `build_partition` draws them, then
    the pairwise argmin. Sorted (center, members) pairs."""
    nodes = g.nodes()
    rate = math.log(len(nodes)) / float(r)
    shifts = {u: _rational_exp_shift(rng, rate, float(r)) for u in nodes}
    top = max(shifts.values())
    starts = {u: top - shifts[u] for u in nodes}
    groups = {}
    for v, c in brute_weak_assign(g, starts).items():
        groups.setdefault(c, set()).add(v)
    return sorted(groups.items())


def brute_ledger_total(rows, prefix):
    """(messages, cost) summed over every (bucket, messages, cost) row
    whose bucket is `prefix` or lies below it (`prefix:`), by a full scan."""
    msgs, cost = 0, Fraction(0)
    for bucket, m, c in rows:
        if bucket == prefix or bucket.startswith(prefix + ":"):
            msgs += m
            cost += c
    return msgs, cost


def brute_level_costs(rows, op_id, tag):
    """level -> summed cost of the op:<id>:L<k>:<tag> rows, by a full scan."""
    out = {}
    head = f"op:{op_id}:L"
    for bucket, _m, c in rows:
        if not bucket.startswith(head):
            continue
        lvl_s, _, kind = bucket[len(head):].partition(":")
        if kind != tag:
            continue
        lvl = int(lvl_s)
        out[lvl] = out.get(lvl, Fraction(0)) + c
    return out


# -- parent-map walks, as written before they moved into graph.py ------------

def tree_child_endpoint(parent_map, e):
    """The endpoint of tree edge e on the side away from the root; raises
    ValueError for a non-tree edge."""
    u, v = edge_id(*e)
    if parent_map.get(u) == v:
        return u
    if parent_map.get(v) == u:
        return v
    raise ValueError(f"edge {e} not in tree")


def contains_tree_edge(parent_map, e):
    u, v = e
    return parent_map.get(u) == v or parent_map.get(v) == u


def path_to_root(parent_map, u):
    path = [u]
    while parent_map[path[-1]] is not None:
        path.append(parent_map[path[-1]])
    return path


def reroot_walk(parent_map, new_root):
    out = dict(parent_map)
    path = [new_root]
    while out[path[-1]] is not None:
        path.append(out[path[-1]])
    for i in range(len(path) - 1):
        out[path[i + 1]] = path[i]
    out[new_root] = None
    return out


def prune_fixpoint(parent_map, members, root):
    """Delete non-member leaves other than the root until none is left,
    re-scanning the whole map each round."""
    out = dict(parent_map)
    changed = True
    while changed:
        changed = False
        children = {x: 0 for x in out}
        for x, p in out.items():
            if p is not None:
                children[p] += 1
        for x in sorted(out):
            if x != root and children[x] == 0 and x not in members:
                del out[x]
                changed = True
    return out


def tree_dist_from(g, parent_map, src):
    """Accumulated weights from src down/up along a parent map, memoised
    on the prefixes already walked."""
    out = {src: 0}
    for x in parent_map:
        chain = []
        cur = x
        while cur not in out:
            chain.append(cur)
            cur = parent_map[cur]
            if cur is None:
                break
        if cur is None and chain:
            continue
        base = out.get(cur, 0)
        for node in reversed(chain):
            base = base + g.weight((node, parent_map[node]))
            out[node] = base
    return out


def split_leader(g, tree2, v, members2):
    """The leader of a split-off part whose tree `tree2` is rooted at the
    cut endpoint v: v if it is a member, else the member nearest to v
    along the tree, ties to the smaller id."""
    if v in set(members2):
        return v
    dist = tree_dist_from(g, tree2, v)
    best = None
    for m in members2:
        key = (dist.get(m), m)
        if dist.get(m) is None:
            continue
        if best is None or key < best:
            best = key
    return best[1]


def heap_repair(tree, g, e):
    """Shortest path tree repair with its own heap loop: seed each node cut
    off by e with its best attachment to the kept part, then run Dijkstra
    inside the cut-off part. Returns new (dist, parent) maps of the cut-off
    nodes, or None when e is not a tree edge."""
    if not contains_tree_edge(tree.parent, e):
        return None
    lost = subtree(tree.parent, tree_child_endpoint(tree.parent, e))
    ndist, nparent = {}, {}
    for s in sorted(lost):
        for x, w in g._adj[s].items():
            if x in lost:
                continue
            nd = tree.dist[x] + w
            if s not in ndist or nd < ndist[s] or (nd == ndist[s] and x < nparent[s]):
                ndist[s] = nd
                nparent[s] = x
    heap = [(nd, s) for s, nd in ndist.items()]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done or d > ndist.get(u, d):
            continue
        done.add(u)
        for v, w in g._adj[u].items():
            if v not in lost:
                continue
            nd = d + w
            if v not in ndist or nd < ndist[v]:
                ndist[v] = nd
                nparent[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == ndist[v] and v not in done and u < nparent[v]:
                nparent[v] = u
    if len(done) != len(lost):
        raise ValueError(f"subtree below {e} cannot be reattached")
    return ndist, nparent


# -- leader index: the nested per-pair directory it replaced ------------------


def cluster_of(hier, level, node):
    """The level cluster `node` belongs to, through the `assign` index."""
    return hier.levels[level][hier.assign[(level, node)]]


class NestedLeaderDirectory:
    """Reference leader directory: believed[u][x][i] is who u thinks leads
    x's level-i cluster, one entry per (node, neighbour, level)."""

    def __init__(self):
        self.believed = {}

    def set_belief(self, u, x, level, leader):
        self.believed.setdefault(u, {}).setdefault(x, {})[level] = leader

    def believed_leader(self, u, x, level):
        return self.believed.get(u, {}).get(x, {}).get(level)


def nested_preprocess_leaders(hier):
    """Reference preprocessing: u learns, for every level i, the leader of
    every node within r_i, written out entry by entry. Returns the
    directory plus the number and summed distance of the (u, x != u,
    level) exchanges, summed in node-id order."""
    ldir = NestedLeaderDirectory()
    messages, cost = 0, 0
    g = hier.g
    for u in g.nodes():
        dist, _ = g.sssp(u)
        for i in range(0, hier.top + 1):
            r = hier.radius(i)
            for x, d in sorted(dist.items()):
                if d > r:
                    continue
                ldir.set_belief(u, x, i, cluster_of(hier, i, x).leader)
                if x != u:
                    messages += 1
                    cost += d
    return ldir, (messages, cost)


# -- the build-time measurement as two passes ----------------------------------


def two_pass_pre_check(hier):
    """Reference build-time measurement: sigma and the overlap from one scan
    of cluster diameters and r-ball overlaps, then the build-time partition
    check against those values, with its diameter and overlap limits.
    Diameters are computed afresh, not read from the clusters' caches.
    Returns (sigma, overlap, report)."""
    g, mode = hier.g, hier.mode
    diam = {c.id: max(eccentricities(g, c.members, mode).values())
            for i in hier.all_levels() for c in hier.clusters_at(i)}
    sigma = Fraction(1)
    overlap = 1
    for i in hier.all_levels():
        r = hier.radius(i)
        if r == 0:
            continue
        for c in hier.clusters_at(i):
            d = diam[c.id]
            if d > sigma * r:
                sigma = Fraction(d, 1) / r if not isinstance(d, Fraction) else d / r
        for u in g.nodes():
            overlap = max(overlap, hier.overlap_at(u, i))
    report = {"levels": [], "ok": True, "problems": []}

    def problem(msg):
        report["ok"] = False
        report["problems"].append(msg)

    nodes = set(g.nodes())
    for i in hier.all_levels():
        r = hier.radius(i)
        clusters = hier.clusters_at(i)
        seen = set()
        max_diam = 0
        for c in clusters:
            if c.members & seen:
                problem(f"level {i}: overlapping members in cluster {c.id}")
            seen |= c.members
            if c.leader not in c.members:
                problem(f"level {i}: leader {c.leader} outside cluster {c.id}")
            if mode == "strong" and not c.induced_connected(g):
                problem(f"level {i}: cluster {c.id} induced subgraph disconnected")
            else:
                d = diam[c.id]
                max_diam = max(max_diam, d)
                if r > 0 and d > sigma * r:
                    problem(f"level {i}: cluster {c.id} diameter {d} > {sigma * r}")
            _check_tree(hier, c, problem)
        if seen != nodes:
            problem(f"level {i}: clusters do not cover all nodes")
        max_k = max(hier.overlap_at(u, i) for u in g.nodes())
        if max_k > overlap:
            problem(f"level {i}: neighborhood meets {max_k} clusters > {overlap}")
        report["levels"].append({
            "level": i, "r": str(r), "clusters": len(clusters),
            "max_diameter": str(max_diam), "max_overlap": max_k,
        })
    tops = hier.clusters_at(hier.top)
    if len(tops) != 1 or tops[0].members != nodes:
        problem("top level is not the whole node set")
    return sigma, overlap, report


# -- search candidates: the r-ball rebuilt on every call -----------------------


def brute_candidates(dir, op):
    """Reference `Directory._candidates`: (sort_key, leader, witnesses) not
    yet contacted at op.level, plus the set of witnesses the op is
    currently waiting on, with u's r-ball filtered, sorted and grouped by
    believed leader afresh on every call."""
    u = op.issuer
    i = op.level
    r = dir.hier.radius(i)
    # farthest a cluster's current leader can sit from u
    reach = r + 2 * dir.hier.sigma * r
    tree = dir.sim.trees[u]
    contacted = op.contacted.setdefault(i, set())
    stale_of = op.stale_of.setdefault(i, {})
    groups: dict[int, list[int]] = {}
    waits: set[int] = set()
    for x in sorted(x for x, d in tree.dist.items() if d <= r):
        led = dir.ldir.believed_leader(u, x, i)
        if led is None or stale_of.get(x) == led:
            waits.add(x)
            continue
        groups.setdefault(led, []).append(x)
    ready = []
    for led in sorted(groups):
        if led in contacted:
            continue
        if tree.dist[led] > reach:
            # too far to be this cluster's current leader; wait for news
            waits.update(groups[led])
            continue
        key = (min(tree.dist[x] for x in groups[led]), led)
        ready.append((key, led, sorted(groups[led])))
    ready.sort()
    return ready, waits


# -- tree membership: the per-edge owner index that fail_edge once read --------


class EdgeRootIndex:
    """Reference tree membership: the owners whose trees use each edge, as
    the edge's endpoints know it. Built from every tree's edges; an owner's
    own tree deltas apply at once, and the other endpoint's on `spt_delta`
    delivery. `dead_adds` lists every add delta that named an edge already
    dead when it applied, as (root, edge, fid)."""

    def __init__(self, g, trees):
        self.g = g
        self.edge_roots = {}
        for root in sorted(trees):
            for e in trees[root].tree_edges():
                self.edge_roots.setdefault(e, set()).add(root)
        self.dead_adds = []

    def owners(self, e):
        return self.edge_roots.get(edge_id(*e), set())

    def send_deltas(self, owner, removed, added, fid):
        """The deltas of one repair of owner's tree, as far as they apply
        at the owner itself: the edges of its own it gained or lost."""
        for op, eds in (("remove", sorted(removed)), ("add", sorted(added))):
            for ed in eds:
                if owner in ed:
                    self.apply({"root": owner, "edge": list(ed), "op": op,
                                "fid": fid})

    def apply(self, payload):
        ed = edge_id(*payload["edge"])
        root = payload["root"]
        if payload["op"] == "remove":
            self.edge_roots.get(ed, set()).discard(root)
            return
        self.edge_roots.setdefault(ed, set()).add(root)
        if not self.g.is_alive(ed):
            self.dead_adds.append((root, ed, payload["fid"]))

"""Weighted undirected graphs with exact arithmetic and repairable shortest path trees.

Weights are ints or fractions.Fraction, never floats, so every distance
comparison made by the simulator is exact and runs are reproducible.
An edge is alive iff it is in `_adj`; `_ever` keeps every edge ever
added, as message logs, repairs and trees may still name dead edges.

This module holds the one Dijkstra (`dijkstra`, with optional seeds)
plus its unit-weight case (`bfs`, a level-by-level walk that returns
exactly what `dijkstra` returns when every weight is the int 1), and one
chooser between them, `Graph.settle`. It also holds `induced`, which
restricts an adjacency map to a node set for either, and every operation
on a parent map `{node: parent}`,
the form all trees take here (shortest path trees, cluster trees):
`subtree` (a walk down `_ever` that reads only the nodes it returns),
`root_path`, `child_endpoint`, `reroot` and `prune`.
"""

from __future__ import annotations

import heapq
import random
from numbers import Rational

EdgeId = tuple[int, int]


def edge_id(u: int, v: int) -> EdgeId:
    """Canonical undirected edge key (smaller endpoint first)."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected weighted graph: `_adj` holds the alive edges and `_ever`
    every edge ever added, each both ways as node -> neighbour -> weight."""

    def __init__(self):
        self._adj: dict[int, dict[int, object]] = {}
        self._ever: dict[int, dict[int, object]] = {}
        self._version = 0
        self._sssp_cache: dict[int, tuple[dict, dict]] = {}
        # True while every weight ever added is the int 1 (see `settle`)
        self.unit = True

    # -- construction ----------------------------------------------------

    def add_node(self, u: int) -> None:
        self._adj.setdefault(u, {})
        self._ever.setdefault(u, {})

    def add_edge(self, u: int, v: int, w) -> None:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if isinstance(w, bool) or not isinstance(w, Rational):
            # distances must stay exact: a float weight would round them;
            # a bool (JSON's true) is an int to Python but no weight
            raise ValueError(f"edge weight {w!r} on edge {u}-{v} is not "
                             "an int or a fraction")
        if w < 1:
            raise ValueError(f"edge weight {w} below 1 on edge {u}-{v}")
        if v in self._ever.get(u, ()):
            raise ValueError(f"duplicate edge {u}-{v}")
        for a, b in ((u, v), (v, u)):
            self._ever.setdefault(a, {})[b] = w
            self._adj.setdefault(a, {})[b] = w
        if not (type(w) is int and w == 1):
            self.unit = False
        self._bump()

    def _bump(self):
        self._version += 1
        self._sssp_cache.clear()

    # -- queries ---------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    def neighbors(self, u: int) -> dict[int, object]:
        """Alive neighbors of u mapped to edge weights."""
        return self._adj[u]

    def alive_edges(self) -> list[EdgeId]:
        return sorted((u, v) for u in self._adj for v in self._adj[u] if u < v)

    def weight(self, e: EdgeId):
        """Weight of an edge, dead or alive."""
        u, v = e
        return self._ever[u][v]

    def is_alive(self, e: EdgeId) -> bool:
        u, v = e
        return v in self._adj.get(u, ())

    # -- mutation ----------------------------------------------------------

    def kill_edge(self, e: EdgeId) -> None:
        """Take an edge out of the adjacency. The weight stays queryable."""
        e = edge_id(*e)
        u, v = e
        if v not in self._ever.get(u, ()):
            raise KeyError(f"unknown edge {e}")
        if v not in self._adj[u]:
            raise ValueError(f"edge {e} already deleted")
        del self._adj[u][v]
        del self._adj[v][u]
        self._bump()

    # -- connectivity ------------------------------------------------------

    def _reach(self, start: int, skip: EdgeId | None = None) -> set[int]:
        """Nodes reachable from start without edge `skip`. A plain stack
        search rather than `dijkstra`: connectivity needs no distances."""
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if skip is not None and edge_id(x, y) == skip:
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        start = next(iter(self._adj))
        return len(self._reach(start)) == self.n

    def would_disconnect(self, e: EdgeId) -> bool:
        """True if deleting e (currently alive) would disconnect the graph."""
        e = edge_id(*e)
        if not self.is_alive(e):
            raise ValueError(f"edge {e} not alive")
        u, v = e
        return v not in self._reach(u, skip=e)

    # -- shortest paths ----------------------------------------------------

    def sssp(self, source: int) -> tuple[dict[int, object], dict[int, int | None]]:
        """Single-source distances and parents on the alive graph, cached
        until the next mutation. Parent ties go to the smaller node id;
        the distances iterate in settle order (see `dijkstra`). Only this
        method and `adopt_trees` fill the cache; its maps are shared with
        `ShortestPathTree`s both ways (see there): callers only read them."""
        hit = self._sssp_cache.get(source)
        if hit is not None:
            return hit
        dist, parent = self.settle(self._adj, source)
        self._sssp_cache[source] = (dist, parent)
        return dist, parent

    def settle(self, adj, source: int) -> tuple[dict, dict]:
        """`dijkstra(adj, source)` for an adjacency map of this graph (all
        of it, or `induced` from it): by `bfs` while every weight is the
        int 1, where the two agree exactly, else by `dijkstra`."""
        return bfs(adj, source) if self.unit else dijkstra(adj, source)

    def adopt_trees(self, trees: dict) -> None:
        """Cache each tree as its root's `sssp` where none is cached. The
        caller vouches that each tree equals `dijkstra(_adj, root)`. The
        parent map is shared; the distances are copied in settle order,
        (distance, id), as r-balls are read as prefixes of them. The next
        mutation clears these entries like any other."""
        cache = self._sssp_cache
        for root, t in trees.items():
            if root not in cache:
                order = sorted((d, x) for x, d in t.dist.items())
                cache[root] = ({x: d for d, x in order}, t.parent)

    def distance(self, u: int, v: int):
        dist, _ = self.sssp(u)
        if v not in dist:
            raise ValueError(f"no path from {u} to {v}")
        return dist[v]

    def path_weight(self, path: list[int]):
        """Summed weight of the edges along a node path, dead or alive."""
        return sum(self.weight((a, b)) for a, b in zip(path, path[1:]))


def dijkstra(adj, source=None, start=None):
    """Dijkstra over an adjacency dict; returns (dist, parent).

    Deterministic: nodes settle in (distance, id) order and the parent
    of a node is the smallest-id optimal predecessor. `dist` holds the
    settled nodes in that order, so an r-ball is the prefix of its items
    up to the first distance beyond r. (A tree map that
    `ShortestPathTree.repair` has written is not in settle order.)
    To keep a run inside a node set, pass `induced(adj, nodes)`. `start`,
    if given, replaces the single source by seeds {node: (dist, parent)}.
    """
    if start is None:
        dist, parent, heap = {source: 0}, {source: None}, [(0, source)]
    else:
        dist = {x: d for x, (d, _) in start.items()}
        parent = {x: p for x, (_, p) in start.items()}
        heap = sorted((d, x) for x, d in dist.items())  # a sorted list is a heap
    settled: dict[int, object] = {}
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v, w in adj[u].items():
            # weights are positive, so a settled node's distance is final
            if v in settled:
                continue
            nd = d + w
            dv = dist.get(v)
            if dv is None or nd < dv:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
            elif nd == dv and u < parent[v]:
                parent[v] = u
    return settled, parent


def bfs(adj, source):
    """`dijkstra(adj, source)` on an adjacency map whose every weight is
    the int 1: the same `dist` and `parent`, in the same key order.

    The walk settles one level (all nodes at one distance) at a time,
    sorted by id, and gives a node the parent that first reaches it. Why
    this is what `dijkstra` returns: with unit weights, `dijkstra` settles
    every node at distance d before any at d + 1, and within a level in
    id order, which is the order `dist` gets here. A node at distance
    d + 1 is first reached, in `dijkstra` as here, by the first settled
    node of level d next to it, so its distance is final at once and no
    later tie can win, as every other optimal predecessor settles later
    and so has a larger id; that first node is the least-id optimal
    predecessor `dijkstra` keeps. Both walk the settled nodes in the same
    order and each one's neighbours in `adj`'s order, so they first reach
    the nodes, and so insert the `parent` keys, in the same order. The
    distances are ints, as `dijkstra` sums int weights from 0.
    """
    dist, parent = {source: 0}, {source: None}
    level, d = [source], 0
    while level:
        d += 1
        reached = []
        for u in level:
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    reached.append(v)
        reached.sort()
        dist.update(dict.fromkeys(reached, d))
        level = reached
    return dist, parent


def induced(adj, nodes) -> dict:
    """The adjacency map restricted to `nodes`: each node's neighbours in
    `nodes`, in `adj`'s order, so a Dijkstra over it relaxes the same
    edges in the same order as one over `adj` that ignores every edge
    leaving `nodes`."""
    return {u: {v: w for v, w in adj[u].items() if v in nodes} for u in nodes}


# -- parent maps: {node: parent}, the root maps to None ----------------------


def subtree(adj, parent_map: dict, v: int) -> set[int]:
    """Nodes at or below v in a parent map (the root maps to None), found
    by walking down `adj` to each neighbour whose parent is the current
    node. Pass `Graph._ever`: a tree may hold an unheard dead edge."""
    out = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if parent_map.get(y) == x:
                out.add(y)
                stack.append(y)
    return out


def root_path(parent_map: dict, v: int) -> list[int]:
    """v, its parent, and so on up to the root."""
    path = []
    while v is not None:
        path.append(v)
        v = parent_map[v]
    return path


def child_endpoint(parent_map: dict, e: EdgeId) -> int | None:
    """The endpoint of tree edge e on the side away from the root, or None
    if e is not a tree edge."""
    u, v = e
    if parent_map.get(u) == v:
        return u
    if parent_map.get(v) == u:
        return v
    return None


def reroot(parent_map: dict, r: int) -> dict:
    """A copy of the parent map rooted at r: the edges of r's root path
    point the other way."""
    out = dict(parent_map)
    path = root_path(parent_map, r)
    for child, parent in zip(path, path[1:]):
        out[parent] = child
    out[r] = None
    return out


def prune(parent_map: dict, keep, root: int) -> dict:
    """The parent map cut down to the root paths of `root` and of the nodes
    in `keep`, keys in their old order. This is the fixpoint of deleting
    leaves outside `keep` other than `root`, reached in one pass."""
    on = set()
    for x in (root, *keep):
        while x is not None and x not in on:
            on.add(x)
            x = parent_map.get(x)
    return {x: p for x, p in parent_map.items() if x in on}


class ShortestPathTree:
    """Shortest path tree of one root over its known-alive view of the graph.

    The tree supports incremental repair after an edge death: only the
    subtree that hangs below the dead edge is recomputed, and the repair
    reports exactly which tree edges were dropped and added, so that the
    owner can tell those edges' endpoints.

    The maps are shared with the graph's `sssp` cache both ways: a tree
    from `build_spt` holds the cached maps, not copies, and
    `Graph.adopt_trees` caches an exact tree's parent map (with its
    distances copied in settle order). Only `repair` writes a tree's maps,
    and only for a dead tree edge, which was alive when the maps were
    cached: its `Graph.kill_edge` has already cleared the cache. It writes
    them in place, so a repaired tree's `dist` is no longer in settle
    order: no reader may take a tree's map as ordered.
    """

    def __init__(self, root: int, dist: dict, parent: dict):
        self.root = root
        self.dist = dist
        self.parent = parent

    def repair(self, g: Graph, e: EdgeId) -> tuple[list[EdgeId], list[EdgeId]]:
        """Reattach the subtree cut off by dead edge e, over the alive
        graph. The tree may keep other dead edges its owner has not heard
        of yet; it never adopts one, as it reads only the alive adjacency.

        One pass over the lost nodes' alive edges seeds every lost node
        with its least (distance, id) attachment to a kept node and builds
        the lost part's induced adjacency; Dijkstra then runs on that map.
        Only lost nodes change parent, and no kept node's tree edge can be
        a lost node's (its parent would be lost, so it would be lost too),
        so the lost nodes' edges before and after give the whole tree-edge
        diff.

        Returns (removed_tree_edges, added_tree_edges). No-op if e is not
        a tree edge.
        """
        cut = child_endpoint(self.parent, e)
        if cut is None:
            return [], []
        lost = subtree(g._ever, self.parent, cut)
        kept_dist, alive = self.dist, g._adj
        inner, seeds = {}, {}
        for s in lost:
            inner[s] = nbrs = {}
            best = None
            for x, w in alive[s].items():
                if x in lost:
                    nbrs[x] = w
                    continue
                key = (kept_dist[x] + w, x)
                if best is None or key < best:
                    best = key
            if best is not None:
                seeds[s] = best
        dist, parent = dijkstra(inner, start=seeds)
        if len(dist) != len(lost):
            raise ValueError(f"subtree below {e} cannot be reattached")
        # a lost node that keeps its parent keeps its edge, which no other
        # lost node's old or new edge can equal (that would make a cycle)
        before, after = set(), set()
        for s in lost:
            old = self.parent[s]
            self.dist[s] = dist[s]
            p = parent[s]
            if p != old:
                self.parent[s] = p
                before.add(edge_id(s, old))
                after.add(edge_id(s, p))
        return sorted(before - after), sorted(after - before)


def build_spt(g: Graph, root: int) -> ShortestPathTree:
    """Fresh tree from root over the alive graph, sharing the cached
    `g.sssp(root)` maps (see `ShortestPathTree`)."""
    dist, parent = g.sssp(root)
    if len(dist) != g.n:
        raise ValueError(f"root {root} cannot reach every node")
    return ShortestPathTree(root, dist, parent)


# -- generators --------------------------------------------------------------


def ring_graph(n: int, weights=None) -> Graph:
    """Cycle 0-1-...-(n-1)-0. `weights` may be a constant or a list."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    if isinstance(weights, (list, tuple)) and len(weights) < n:
        raise ValueError(f"ring of {n} nodes needs {n} weights, not "
                         f"{len(weights)}")
    g = Graph()
    for i in range(n):
        w = 1
        if weights is not None:
            w = weights[i] if isinstance(weights, (list, tuple)) else weights
        g.add_edge(i, (i + 1) % n, w)
    return g


def grid_graph(rows: int, cols: int, weight=1) -> Graph:
    g = Graph()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1, weight)
            if r + 1 < rows:
                g.add_edge(u, u + cols, weight)
    return g


def path_graph(n: int, weight=1) -> Graph:
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight)
    return g


def random_graph(n: int, p: float, seed: int, wmin: int = 1, wmax: int = 4) -> Graph:
    """Connected G(n, p) with integer weights in [wmin, wmax].

    Rerolls the whole graph until connected (bounded retries).
    """
    rng = random.Random(seed)
    for _ in range(200):
        g = Graph()
        for u in range(n):
            g.add_node(u)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v, rng.randint(wmin, wmax))
        if g.n == n and g.is_connected():
            return g
    raise ValueError(f"could not draw a connected graph with n={n}, p={p}")

"""Weighted undirected graphs with exact arithmetic and repairable shortest path trees.

Weights are ints or fractions.Fraction, never floats, so every distance
comparison made by the simulator is exact and runs are reproducible.
Deleted edges are tombstoned rather than forgotten: message logs and
repair bookkeeping still need to refer to them.

This module holds the one Dijkstra (`dijkstra`, with an edge filter and
optional seeds) and every operation on a parent map `{node: parent}`,
the form all trees take here (shortest path trees, cluster trees):
`subtree`, `root_path`, `child_endpoint`, `reroot` and `prune`.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction

EdgeId = tuple[int, int]


def edge_id(u: int, v: int) -> EdgeId:
    """Canonical undirected edge key (smaller endpoint first)."""
    return (u, v) if u < v else (v, u)


def parse_weight(text: str):
    """Parse an edge weight. Accepts ints, 'p/q' fractions and decimals.

    Decimals go through Fraction's exact decimal parsing, so '1.5'
    becomes 3/2 with no binary rounding.
    """
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        w = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad weight {text!r}") from exc
    if w.denominator == 1:
        return int(w)
    return w


class Graph:
    """Undirected weighted graph with tombstoned edge deletion."""

    def __init__(self):
        self._adj: dict[int, dict[int, object]] = {}
        self._weights: dict[EdgeId, object] = {}
        self._dead: set[EdgeId] = set()
        self._version = 0
        self._sssp_cache: dict[int, tuple[dict, dict]] = {}

    # -- construction ----------------------------------------------------

    def add_node(self, u: int) -> None:
        self._adj.setdefault(u, {})

    def add_edge(self, u: int, v: int, w) -> None:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if w < 1:
            raise ValueError(f"edge weight {w} below 1 on edge {u}-{v}")
        e = edge_id(u, v)
        if e in self._weights:
            raise ValueError(f"duplicate edge {u}-{v}")
        self.add_node(u)
        self.add_node(v)
        self._weights[e] = w
        self._adj[u][v] = w
        self._adj[v][u] = w
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
        return sorted(e for e in self._weights if e not in self._dead)

    def weight(self, e: EdgeId):
        """Weight of an edge, dead or alive."""
        return self._weights[edge_id(*e)]

    def is_alive(self, e: EdgeId) -> bool:
        e = edge_id(*e)
        return e in self._weights and e not in self._dead

    # -- mutation ----------------------------------------------------------

    def kill_edge(self, e: EdgeId) -> None:
        """Tombstone an edge. The weight stays queryable."""
        e = edge_id(*e)
        if e not in self._weights:
            raise KeyError(f"unknown edge {e}")
        if e in self._dead:
            raise ValueError(f"edge {e} already deleted")
        self._dead.add(e)
        u, v = e
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
        until the next mutation. Parent ties go to the smaller node id."""
        hit = self._sssp_cache.get(source)
        if hit is not None:
            return hit
        dist, parent = dijkstra(self._adj, source)
        self._sssp_cache[source] = (dist, parent)
        return dist, parent

    def distance(self, u: int, v: int):
        dist, _ = self.sssp(u)
        if v not in dist:
            raise ValueError(f"no path from {u} to {v}")
        return dist[v]

    def path_weight(self, path: list[int]):
        """Summed weight of the edges along a node path, dead or alive."""
        return sum(self.weight((a, b)) for a, b in zip(path, path[1:]))


def dijkstra(adj, source=None, targets=None, skip=None, start=None):
    """Dijkstra over an adjacency dict; returns (dist, parent).

    Deterministic: nodes settle in (distance, id) order and the parent
    of a node is the smallest-id optimal predecessor. Stops once every
    node in `targets` has settled. `skip(u, v)`, if given, hides the edge
    u-v when relaxed from u: the result is Dijkstra over the adjacency
    with those edges filtered out, without copying it. `start`, if
    given, replaces the single source by seeds {node: (dist, parent)}.
    """
    if start is None:
        dist, parent, heap = {source: 0}, {source: None}, [(0, source)]
    else:
        dist = {x: d for x, (d, _) in start.items()}
        parent = {x: p for x, (_, p) in start.items()}
        heap = sorted((d, x) for x, d in dist.items())  # a sorted list is a heap
    done: set[int] = set()
    remaining = set(targets) if targets is not None else None
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in adj[u].items():
            if skip is not None and skip(u, v):
                continue
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and v not in done and u < parent[v]:
                parent[v] = u
    return dist, parent


# -- parent maps: {node: parent}, the root maps to None ----------------------


def subtree(parent_map: dict, v: int) -> set[int]:
    """Nodes at or below v in a parent map (the root maps to None)."""
    children: dict[int, list[int]] = {}
    for x, p in parent_map.items():
        if p is not None:
            children.setdefault(p, []).append(x)
    out = set()
    stack = [v]
    while stack:
        x = stack.pop()
        out.add(x)
        stack.extend(children.get(x, ()))
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

    A tree from `build_spt` holds the graph's cached maps, not copies. Only
    `repair` writes them, and only for a dead tree edge, which was alive at
    build: its `Graph.kill_edge` has already dropped them from the cache.
    """

    def __init__(self, root: int, dist: dict, parent: dict):
        self.root = root
        self.dist = dist
        self.parent = parent

    def tree_edges(self) -> set[EdgeId]:
        return {edge_id(u, p) for u, p in self.parent.items() if p is not None}

    def repair(self, g: Graph, e: EdgeId) -> tuple[list[EdgeId], list[EdgeId]]:
        """Reattach the subtree cut off by dead edge e, over the alive
        graph. The tree may keep other dead edges its owner has not heard
        of yet; it never adopts one, as it reads only the alive adjacency.

        Every lost node is seeded with its least (distance, id) attachment
        to a kept node, then Dijkstra runs inside the lost part. Only lost
        nodes change parent, and no kept node's tree edge can be a lost
        node's (its parent would be lost, so it would be lost too), so the
        lost nodes' edges before and after give the whole tree-edge diff.

        Returns (removed_tree_edges, added_tree_edges). No-op if e is not
        a tree edge.
        """
        cut = child_endpoint(self.parent, e)
        if cut is None:
            return [], []
        lost = subtree(self.parent, cut)
        seeds = {}
        for s in lost:
            best = min(((self.dist[x] + w, x) for x, w in g._adj[s].items()
                        if x not in lost), default=None)
            if best is not None:
                seeds[s] = best
        dist, parent = dijkstra(g._adj, start=seeds,
                                skip=lambda u, v: v not in lost)
        if len(dist) != len(lost):
            raise ValueError(f"subtree below {e} cannot be reattached")
        before = {edge_id(s, self.parent[s]) for s in lost}
        for s in lost:
            self.dist[s] = dist[s]
            self.parent[s] = parent[s]
        after = {edge_id(s, self.parent[s]) for s in lost}
        return sorted(before - after), sorted(after - before)


def build_spt(g: Graph, root: int) -> ShortestPathTree:
    """Fresh tree from root over the alive graph, sharing the cached
    `g.sssp(root)` maps (see `ShortestPathTree`)."""
    dist, parent = g.sssp(root)
    if len(dist) != g.n:
        raise ValueError(f"root {root} cannot reach every node")
    return ShortestPathTree(root, dist, parent)


# -- parsing and generators ------------------------------------------------


def load_graph(text: str) -> Graph:
    """Parse an edge list: one 'u v w' triple per line, '#' comments.

    Rejects self-loops, duplicate edges, weights below 1 and disconnected
    inputs.
    """
    g = Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v w', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad node id in {raw!r}") from exc
        w = parse_weight(parts[2])
        try:
            g.add_edge(u, v, w)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("graph is disconnected")
    return g


def ring_graph(n: int, weights=None) -> Graph:
    """Cycle 0-1-...-(n-1)-0. `weights` may be a constant or a list."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
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

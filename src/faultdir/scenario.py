"""Scenario files, the sequential workload driver and run records.

A scenario is a plain JSON-able dict: a graph recipe, partition knobs and
an event list. The driver executes events strictly one after another and
waits for full quiescence between them (no open operations, no pending
repair work, empty event heap), so every measurement is taken in a
settled system. A failure can instead be strapped to an operation with
``fail_during``, which injects it a fixed delay after the operation
starts; such operations overlap active repair and are flagged transient
in the run record.
"""

from __future__ import annotations

from fractions import Fraction

from faultdir.failure import FailureEngine
from faultdir.graph import (Graph, build_spt, edge_id, grid_graph, path_graph,
                            random_graph, ring_graph)
from faultdir.partition import (build_hierarchy, preprocess_leaders,
                                verify_partition)
from faultdir.protocol import Directory
from faultdir.sim import Simulator


def q(x):
    """Exact values as strings so records survive JSON round trips."""
    return str(x) if isinstance(x, Fraction) else x


def unq(s):
    if isinstance(s, str):
        return Fraction(s) if "/" in s else int(s)
    return s


def _qify(x):
    """Deep copy with every Fraction rendered exactly."""
    if isinstance(x, Fraction):
        return q(x)
    if isinstance(x, dict):
        return {k: _qify(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_qify(v) for v in x]
    return x


def build_graph(spec: dict) -> Graph:
    """The graph a scenario's spec describes; ValueError or KeyError for a
    spec that describes none."""
    if type(spec) is not dict:
        raise ValueError("graph is not a JSON object")
    for key in ("n", "rows", "cols", "seed", "wmin", "wmax"):
        if key in spec and type(spec[key]) is not int:
            raise ValueError(f"graph.{key} is not a JSON integer")
    kind = spec["kind"]
    if kind == "ring":
        return ring_graph(spec["n"], spec.get("weights", 1))
    if kind == "grid":
        return grid_graph(spec["rows"], spec["cols"], spec.get("weight", 1))
    if kind == "path":
        return path_graph(spec["n"], spec.get("weight", 1))
    if kind == "random":
        if type(spec["p"]) not in (int, float):
            raise ValueError("graph.p is not a JSON number")
        return random_graph(spec["n"], spec["p"], spec["seed"],
                            spec.get("wmin", 1), spec.get("wmax", 4))
    if kind == "edges":
        edges = spec["edges"]
        if type(edges) is not list:
            raise ValueError("graph.edges is not a JSON array")
        g = Graph()
        for k, uvw in enumerate(edges):
            if not (type(uvw) is list and len(uvw) == 3
                    and type(uvw[0]) is int and type(uvw[1]) is int):
                raise ValueError(f"graph.edges[{k}] is not [u, v, weight] "
                                 "with integer u and v")
            g.add_edge(*uvw)
        return g
    raise ValueError(f"unknown graph kind {kind!r}")


OP_EVENTS = ("publish", "lookup", "move")


def _is_delay(value) -> bool:
    """A non-negative int, or a string `unq` reads as one or as a fraction."""
    try:
        return type(value) in (int, str) and unq(value) >= 0
    except (ValueError, ZeroDivisionError):
        return False


def validate_scenario(sc: dict) -> None:
    """Refuse a scenario `Runtime` cannot run: ValueError, or KeyError for a
    missing key, naming what is wrong in one line."""
    if type(sc) is not dict:
        raise ValueError("not a JSON object")
    g = build_graph(sc["graph"])
    if sc.get("mode", "strong") not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    for key, default in (("rho", 2), ("seed", 0)):
        if type(sc.get(key, default)) is not int:
            raise ValueError(f"{key} is not a JSON integer")
    if sc.get("rho", 2) < 2:
        raise ValueError("rho must be at least 2")
    events = sc.get("events", [])
    if type(events) is not list:
        raise ValueError("events is not a JSON array")
    nodes = set(g.nodes())
    published = False
    for k, ev in enumerate(events):
        if type(ev) is not dict:
            raise ValueError(f"event {k} is not a JSON object")
        do = ev.get("do")
        if do in OP_EVENTS:
            node = ev["node"]
            if type(node) is not int or node not in nodes:
                raise ValueError(f"event {k}: node {node} not in graph")
            if do == "publish":
                published = True
            elif not published:
                raise ValueError(f"event {k}: {do} before any publish")
            if not _is_delay(ev.get("fail_delay", 0)):
                raise ValueError(f"event {k}: fail_delay {ev['fail_delay']!r} "
                                 "is not a non-negative int or fraction")
            key, edge = "fail_during", ev.get("fail_during")
            if edge is None:
                continue
        elif do == "fail":
            key, edge = "edge", ev["edge"]
        else:
            raise ValueError(f"event {k}: unknown event {do!r}")
        if not (type(edge) is list and len(edge) == 2
                and type(edge[0]) is int and type(edge[1]) is int):
            raise ValueError(f"event {k}: {key} {edge} is not a pair of node "
                             "ids")
        e = edge_id(*edge)
        if not g.is_alive(e):
            raise ValueError(f"event {k}: edge {edge} missing or already down")
        if g.would_disconnect(e):
            raise ValueError(f"event {k}: killing {edge} disconnects the graph")
        g.kill_edge(e)


class Runtime:
    """Builds the whole stack for one scenario and drives its events."""

    def __init__(self, sc: dict):
        validate_scenario(sc)
        self.sc = sc
        self.g = build_graph(sc["graph"])
        self.hier = build_hierarchy(self.g, rho=sc.get("rho", 2),
                                    mode=sc.get("mode", "strong"),
                                    seed=sc.get("seed", 0))
        if not self.hier.pre_check["ok"]:
            raise RuntimeError(f"partition invalid at build: {self.hier.pre_check}")
        self.sim = Simulator(self.g)
        for x in self.g.nodes():
            self.sim.trees[x] = build_spt(self.g, x)
        self.ldir, (messages, cost) = preprocess_leaders(self.hier)
        if messages:
            self.sim.charge_only("setup", cost, size="logn", count=messages)
        self.dir = Directory(self.sim, self.hier, self.ldir)
        self.engine = FailureEngine(self.dir)
        self.sim.timers["inject_fail"] = self._inject_fail
        # issue-time geometry the bound checks need: distance from the
        # previous request source, and the path right after publish
        self._last_source = None
        self._source_dist = {}
        self._publish_snap = None

    def _inject_fail(self, data):
        self.engine.fail_edge(tuple(data))

    def _settle(self, context: str) -> None:
        self.sim.run()
        if self.dir.open:
            raise RuntimeError(f"{context}: operations never finished: "
                               f"{list(self.dir.open)}")
        if not self.dir.quiescent():
            raise RuntimeError(f"{context}: system not quiescent after drain")

    def run(self) -> dict:
        for k, ev in enumerate(self.sc.get("events", [])):
            do = ev["do"]
            if do == "fail":
                self.engine.fail_edge(tuple(ev["edge"]))
            else:
                starter = {"publish": self.dir.start_publish,
                           "lookup": self.dir.start_lookup,
                           "move": self.dir.start_move}[do]
                op = starter(ev["node"])
                if op.owner_at_issue is not None:
                    op.dist_at_issue = self._alive_dist(ev["node"],
                                                        op.owner_at_issue)
                if do in ("publish", "move") and op.phase != "rejected":
                    # distance between consecutive request sources on the
                    # graph alive at issue (starting an op kills no edge);
                    # the competitive baseline
                    if self._last_source is not None:
                        self._source_dist[op.id] = self._alive_dist(
                            self._last_source, ev["node"])
                    self._last_source = ev["node"]
                if ev.get("fail_during") is not None:
                    delay = unq(ev.get("fail_delay", 0))
                    self.sim.call_later(delay, "inject_fail",
                                        ev["fail_during"])
            self._settle(f"event {k} ({do})")
            if do == "publish" and self._publish_snap is None \
                    and op.phase == "done":
                self._publish_snap = {
                    "len": q(self._chain_length()),
                    "top": self.hier.top,
                    "f": self.dir.failure_count}
        return self.record()

    def _alive_dist(self, u: int, v: int):
        """Distance from u to v on the alive graph, read off u's tree.

        The driver calls it only on a settled system: right after a starter
        returns (starting an op sends messages but kills no edge), after a
        publish settles, and in `record()`. `_settle` raises unless the
        system is quiescent, so every `spt_notify` and cluster notice has
        been delivered and each tree has heard of every dead edge it held;
        repair then leaves it the least-id shortest path tree of the alive
        graph, equal to `dijkstra(g._adj, u)` in `dist` and in `parent`
        (`tests/test_tree_premise.py` checks this after every settle)."""
        return self.sim.trees[u].dist[v]

    def _chain_length(self):
        """Sum of alive-graph distances along the current directory path."""
        chain = self.dir.path_view()
        total = 0
        for (_, a), (_, b) in zip(chain, chain[1:]):
            total += self._alive_dist(a, b)
        return total

    def record(self) -> dict:
        led = self.sim.ledger
        ops = []
        for op in self.dir.ops.values():
            msgs, cost = led.total(f"op:{op.id}")
            _, reply_cost = led.total(f"op:{op.id}:reply")
            transient = (op.f_at_complete is not None
                         and op.f_at_complete > op.f_at_issue)
            src_d = self._source_dist.get(op.id)
            ops.append({
                "id": op.id, "kind": op.kind, "issuer": op.issuer,
                "phase": op.phase,
                "t_issue": q(op.t_issue), "t_complete": q(op.t_complete),
                "f_at_issue": op.f_at_issue, "f_at_complete": op.f_at_complete,
                "transient": transient,
                "stale_walk": (op.walk_min_built_f is not None
                               and op.walk_min_built_f < op.f_at_issue),
                "discovery_level": op.discovery_level,
                "via_shortcut": op.via_shortcut,
                "owner_at_issue": op.owner_at_issue,
                "dist_at_issue": q(op.dist_at_issue),
                "dist_prev_source": q(src_d) if src_d is not None else None,
                "value": op.value, "version": op.version,
                "read_t": q(op.read_t),
                "flags": list(op.flags),
                "messages": msgs, "cost": q(cost), "reply_cost": q(reply_cost),
            })
        failures = []
        for rec in self.engine.failures:
            frec = dict(rec)
            frec["stats"] = _qify(rec["stats"])
            frec["costs"] = {}
            for cat in ("recluster", "spt_update", "path_update",
                        "preprocess", "resend"):
                msgs, cost = led.total(f"repair:{cat}:f{rec['fid']}")
                frec["costs"][cat] = {"messages": msgs, "cost": q(cost)}
            failures.append(frec)
        setup_msgs, setup_cost = led.total("setup")
        intervals = []
        for iv in self.dir.token_intervals:
            intervals.append({"version": iv["version"], "holder": iv["holder"],
                              "t_from": q(iv["t_from"]),
                              "t_to": q(iv.get("t_to"))})
        if self.engine.failures:
            # the trees are exact once the system has settled (see
            # `_alive_dist`): the report reads them rather than running a
            # Dijkstra per node
            if not self.dir.quiescent():
                raise RuntimeError("record() needs a settled system: its "
                                   "trees may not have heard every failure")
            self.g.adopt_trees(self.sim.trees)
            post = verify_partition(self.hier, post_failure=True)
        else:
            post = self.hier.pre_check
        d_alive = 0
        for t in self.sim.trees.values():
            d_alive = max(d_alive, max(t.dist.values()))
        return {
            "scenario": self.sc,
            "mode": self.hier.mode, "rho": self.hier.rho,
            "n": self.g.n,
            "diameter": q(self.hier.diameter0),
            "d_alive": q(d_alive),
            "top": self.hier.top, "base_top": self.hier.base_top,
            "sigma": q(self.hier.sigma), "overlap": self.hier.overlap,
            "radii": {str(i): q(self.hier.radius(i))
                      for i in range(-1, self.hier.top + 1)},
            "delta": self.hier.shortcut_offset,
            "c_prime": q(self.hier.shortcut_factor),
            "setup": {"messages": setup_msgs, "cost": q(setup_cost)},
            "publish": self._publish_snap,
            "path": self._path_geometry(),
            "ops": ops,
            "failures": failures,
            "findings": list(self.dir.findings),
            "token_intervals": intervals,
            "owner_trace": [[q(iv["t_from"]), iv["holder"]]
                            for iv in self.dir.token_intervals],
            "partition_pre": self.hier.pre_check,
            "partition_post": post,
            "ledger": led.as_rows(),
            "event_count": len(self.sim.events),
        }

    def _path_geometry(self) -> list[dict]:
        """Final directory path, bottom-up, with the build epoch of every
        node state and the distance to the next node measured on the graph
        as it stood when the later of the two links was written."""
        if self.dir.token_value is None:
            return []
        chain = list(reversed(self.dir.path_view()))
        epochs = {}
        out = []
        for idx, (level, node) in enumerate(chain):
            st = self.dir.nodes[node].levels[level]
            row = {"level": level, "node": node, "built_f": st.built_f,
                   "built_t": q(st.built_t),
                   "dist_next": None, "dist_next_now": None, "pair_f": None}
            if idx + 1 < len(chain):
                up_level, up_node = chain[idx + 1]
                up_f = self.dir.nodes[up_node].levels[up_level].built_f
                pair_f = max(st.built_f, up_f)
                now = then = self._alive_dist(node, up_node)
                if pair_f < len(self.engine.failures):
                    g_then = epochs.get(pair_f)
                    if g_then is None:
                        g_then = build_graph(self.sc["graph"])
                        for frec in self.engine.failures[:pair_f]:
                            g_then.kill_edge(tuple(frec["edge"]))
                        epochs[pair_f] = g_then
                    then = g_then.distance(node, up_node)
                row["pair_f"] = pair_f
                row["dist_next"] = q(then)
                row["dist_next_now"] = q(now)
            out.append(row)
        return out


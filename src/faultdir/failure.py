"""Edge failure handling: tree repair, cluster splits and layer extension.

When an edge dies its endpoints notice instantly and patch their own
shortest path trees; every other owner whose tree holds the edge is told
by a routed notice from the surviving side and repairs on arrival; a
repair is charged (not sent) a tree-delta notice to each end, other than
the owner, of every edge it changed. A repair adopts only alive edges,
and each failure's repairs settle before the next edge dies, so the
owners to notify are read from the trees themselves and all trees are
true shortest path trees at quiescence.

Clusters whose spanning tree lost an edge split: the detached part
becomes a new cluster led by the member closest to the cut. The old
leader decides whether the directory path must jump to the new leader
(a five step locked pointer update keeps concurrent walkers safe) and
the new cluster is announced to its members, who refresh the beliefs of
everyone within their search radius. Split notices travel along the
cluster tree itself and park at a second cut until the region learns
its new leader, so nested failures resolve in causal order.

At the top the root instead checks whether the repair stretched some
node beyond the reach of the current level stack; if the detached part
is far enough away, new levels are added on top (a layer extension)
rather than splitting the root cluster.
"""

from __future__ import annotations

from faultdir.graph import (child_endpoint, edge_id, prune, reroot,
                            root_path, subtree)
from faultdir.partition import Cluster
from faultdir.sim import Message


class Txn:
    """One five-step path update: lock neighbors, install the replacement,
    repoint, collect clears, erase the old node."""

    def __init__(self, tid, spec, up, down, added_by):
        self.id = tid
        self.spec = spec
        self.up = up
        self.down = down
        self.added_by = added_by
        self.state = "locking"
        self.needed: set[int] = set()
        self.got: set[int] = set()
        self.clear_needed: set[int] = set()
        self.cleared: set[int] = set()


class FailureEngine:
    def __init__(self, directory):
        self.dir = directory
        self.sim = directory.sim
        self.hier = directory.hier
        self.g = directory.sim.g
        self.parked: dict[int, list[tuple[int, dict]]] = {}
        # split-off cluster -> notices held until its verdict (gated iff key)
        self.held: dict[int, list[dict]] = {}
        self.detach_log: dict[int, list[dict]] = {}
        self.failures: list[dict] = []
        self._txn_seq = 0
        directory.engine = self
        for kind in ("spt_notify", "cluster_notify", "leader_xfer",
                     "split_verdict", "ext_verdict", "bcast", "refresh",
                     "txn_lock", "txn_grant", "txn_install", "txn_repoint",
                     "txn_clear", "lock_release"):
            self.sim.handlers[kind] = getattr(self, "_on_" + kind)
        self.sim.timers["resend_exchange"] = self._resend_exchange

    def setup_index(self) -> None:
        """Nothing to build: `fail_edge` reads tree membership from the
        trees. Nothing calls this; the name stays only because the
        benchmark's tracer (`perfbench/tracing.py`) patches it."""

    def quiet(self) -> bool:
        """No split notice or verdict is held back by the engine; the
        nodes' transaction state is `Directory.quiescent`'s to check."""
        return not (self.held or self.parked)

    # -- per-failure message shape accounting -------------------------------------
    # Counts and worst distances per repair category, kept out of the cost
    # ledger so the shape checks see message counts rather than hop counts.

    def _recluster_row(self, fid, cid, level):
        return self.failures[fid]["stats"]["recluster"].setdefault(
            str(cid), {"level": level, "msgs": 0, "max_dist": 0,
                       "xfer_msgs": 0, "xfer_dist": 0,
                       "bcast_msgs": 0, "bcast_max_dist": 0,
                       "extension": False})

    def _stat_recluster(self, fid, cid, level, kind, dist):
        row = self._recluster_row(fid, cid, level)
        if kind == "xfer":
            row["xfer_msgs"] += 1
            row["xfer_dist"] = max(row["xfer_dist"], dist)
        elif kind == "bcast":
            row["bcast_msgs"] += 1
            row["bcast_max_dist"] = max(row["bcast_max_dist"], dist)
        else:
            row["msgs"] += 1
            row["max_dist"] = max(row["max_dist"], dist)

    def _stat_path(self, fid, dist):
        row = self.failures[fid]["stats"]["path_update"]
        row["msgs"] += 1
        row["max_dist"] = max(row["max_dist"], dist)

    def _stat_preproc(self, fid, fan_r, msgs, max_dist):
        pre = self.failures[fid]["stats"]["preprocess"]
        pre["msgs"] += msgs
        row = pre["rows"].setdefault(str(fan_r), {"msgs": 0, "max_dist": 0})
        row["msgs"] += msgs
        row["max_dist"] = max(row["max_dist"], max_dist)

    def stat_sc_update(self, fid, level, clamp, dist):
        self.failures[fid]["stats"]["sc_update"].append(
            {"level": level, "clamp": clamp, "dist": dist})

    # -- failure entry point ----------------------------------------------------

    def fail_edge(self, e) -> dict:
        e = edge_id(*e)
        fid = len(self.failures)
        self.g.kill_edge(e)
        if not self.g.is_connected():
            raise RuntimeError(f"failure of {e} disconnects the graph")
        self.dir.failure_count += 1
        rec = {"fid": fid, "edge": list(e), "t": str(self.sim.now),
               "top": self.hier.top,
               "splits": [], "extension": None, "ext_check": None, "lost": 0,
               "stats": {"recluster": {}, "path_update": {"msgs": 0, "max_dist": 0},
                         "preprocess": {"msgs": 0, "rows": {}},
                         "sc_update": []}}
        self.failures.append(rec)
        self.sim.log("failure", fid=fid, edge=list(e))
        lost = self.sim.capture_in_flight(e)
        rec["lost"] = len(lost)
        a, b = e
        # split notices travel along each broken cluster tree, sent by the
        # surviving-side endpoint, and never detour around further cuts
        for level in range(0, self.hier.top):
            for c in self.hier.clusters_at(level):
                child = child_endpoint(c.tree_parent, e)
                if child is None:
                    continue
                self._notify(a if child == b else b, c,
                             {"cluster": c.id, "level": level,
                              "edge": list(e), "fid": fid}, along_tree=True)
        # the endpoints patch their own trees at zero message cost
        for x in (a, b):
            self._repair_tree(x, e, fid)
        # every other tree still holding e is told by the surviving endpoint
        for w in sorted(self.sim.trees):
            child = child_endpoint(self.sim.trees[w].parent, e)
            if child is not None:
                self._spt_notify(b if child == a else a, w, e, fid)
        # log reconciliation across the surviving network recovers messages
        # that died on the edge; earlier failures have settled and a has just
        # repaired its tree for e, so the tree holds the alive distance
        d_alive = self.sim.trees[a].dist[b]
        rec["d_alive"] = str(d_alive)
        had_traffic = bool(lost) or e in self.sim.used_edges
        if had_traffic:
            self.sim.call_later(d_alive, "resend_exchange",
                                {"edge": e, "fid": fid, "lost": lost,
                                 "d_alive": d_alive})
        return rec

    def _resend_exchange(self, data):
        e = data["edge"]
        fid = data["fid"]
        bucket = f"repair:resend:f{fid}"
        self.sim.charge_only(bucket, 2 * data["d_alive"], size="logn", count=2)
        for m in sorted(data["lost"], key=lambda m: m.id):
            self.sim.resend(m, frm=m.at, dead=e, bucket=bucket)

    # -- shortest path tree convergence ----------------------------------------

    def _repair_tree(self, w, e, fid):
        """w learned that e died: if e is in w's tree, repair the tree,
        charge its deltas and poke w's searches; at the root, then check
        for a layer extension."""
        t = self.sim.trees[w]
        if child_endpoint(t.parent, e) is None:
            return
        removed, added = t.repair(self.g, e)
        self._send_deltas(w, removed, added, fid)
        self.dir.reevaluate(w)
        if w == self.hier.root:
            self._root_repair(e, fid)

    def _spt_notify(self, src, w, e, fid):
        self.dir._send("spt_notify", src, w, {"edge": list(e), "fid": fid},
                       "logn", f"repair:spt_update:f{fid}")

    def _send_deltas(self, owner, removed, added, fid):
        """Charge a tree-delta notice from owner to the other ends of each
        edge its tree lost or gained, at their new tree distance; none is
        sent, as `fail_edge` reads tree membership from the trees."""
        dist = self.sim.trees[owner].dist
        costs = [dist[z] for ed in (*removed, *added) for z in ed if z != owner]
        if costs:
            self.sim.charge_only(f"repair:spt_update:f{fid}", sum(costs),
                                 size="logn", count=len(costs))

    def _on_spt_notify(self, msg):
        self._repair_tree(msg.dst, edge_id(*msg.payload["edge"]),
                          msg.payload["fid"])

    # -- cluster splits ----------------------------------------------------------

    def _on_cluster_notify(self, msg):
        p = msg.payload
        # the notice names the dead edge: the receiver repairs its own tree
        # at once, at no message cost, as the endpoints do in `fail_edge`
        self._repair_tree(msg.dst, edge_id(*p["edge"]), p["fid"])
        self._stat_recluster(p["fid"], p["cluster"], p["level"], "notify",
                             msg.traveled)
        if p.pop("stuck", None):
            # parked below a second cut; resumes once this region learns
            # its post-split leader
            self.parked.setdefault(p["level"], []).append((msg.dst, p))
            self.sim.log("notify_parked", node=msg.dst, level=p["level"],
                         edge=p["edge"])
            return
        self._process_notify(msg.dst, p)

    def _process_notify(self, y, p):
        level = p["level"]
        e = edge_id(*p["edge"])
        fid = p["fid"]
        c = self.hier.levels.get(level, {}).get(p["cluster"])
        if c is None:
            self.dir.finding("notify_unknown_cluster", level=level,
                             cluster=p["cluster"])
            return
        if c.leader != y:
            self._notify(y, c, p)
            return
        if c.id in self.held:
            self.held[c.id].append(p)
            return
        if child_endpoint(c.tree_parent, e) is not None:
            self._apply_split(c, e, fid)
            return
        for entry in self.detach_log.get(c.id, []):
            if e[0] in entry["nodes"] and e[1] in entry["nodes"]:
                child = self.hier.levels[level][entry["child"]]
                self._notify(y, child, dict(p, cluster=child.id))
                return
        self.dir.finding("notify_no_target", level=level, edge=list(e),
                         cluster=c.id)

    def _notify(self, y, c, p, along_tree=False):
        """Send split notice `p` from y to c's leader: routed, or along
        c's tree, where it parks at a second cut rather than detour."""
        msg = Message("cluster_notify", y, c.leader, p, size="logn",
                      bucket=f"repair:recluster:f{p['fid']}:c{c.id}")
        if along_tree:
            msg.no_reroute = True
            self.sim.send(msg, root_path(c.tree_parent, y))
        else:
            self.sim.send(msg)

    def _wake_parked(self, level):
        waiting = self.parked.pop(level, [])
        for y, p in waiting:
            e = edge_id(*p["edge"])
            target = None
            for c in self.hier.clusters_at(level):
                if child_endpoint(c.tree_parent, e) is not None:
                    target = c
                    break
            if target is None:
                self.dir.finding("notify_obsolete", level=level, edge=list(e))
                continue
            p2 = dict(p, cluster=target.id)
            if target.leader == y:
                self._process_notify(y, p2)
            else:
                self._notify(y, target, p2,
                             along_tree=y in target.tree_parent)

    def _apply_split(self, c, e, fid):
        """Cut c's tree at e into c and a new cluster. The part below the
        cut always holds a member: every cluster tree is pruned to its
        members' root paths, so each of its leaves is a member."""
        level = c.level
        y = c.leader
        v = child_endpoint(c.tree_parent, e)
        det_nodes = subtree(self.g._ever, c.tree_parent, v)
        # capture the detached piece of the tree before pruning the parent
        tree2 = {x: (None if x == v else c.tree_parent[x]) for x in det_nodes}
        members2 = sorted(c.members & det_nodes)
        assert members2, f"cluster {c.id}: tree nodes below {v} serve no member"
        for x in det_nodes:
            c.tree_parent.pop(x, None)
        c.members -= set(members2)
        c.members_changed()
        c.tree_parent = prune(c.tree_parent, c.members, c.leader)
        # the new leader is the member nearest to the cut along tree2 (v
        # itself if it is a member: every weight is at least 1)
        w = min(members2,
                key=lambda m: (self.g.path_weight(root_path(tree2, m)), m))
        xfer_path = None
        if w != v:
            tree2 = reroot(tree2, w)
            # capture the v-to-w walk before pruning can drop v itself
            xfer_path = root_path(tree2, v)
        tree2 = prune(tree2, members2, w)
        c2 = Cluster(self.hier.new_cid(), level, set(members2), w, tree2)
        self.hier.add_cluster(c2)
        self.held[c2.id] = []
        self.detach_log.setdefault(c.id, []).append(
            {"child": c2.id, "members": frozenset(members2),
             "nodes": frozenset(det_nodes), "v": v})
        st = self.dir.nodes[y].levels.get(level)
        # the path must follow the detached part when its adder went there
        follow = st is not None and st.added_by in c2.members
        self.failures[fid]["splits"].append(
            {"level": level, "parent": c.id, "child": c2.id,
             "size": len(members2), "on_path": follow})
        self.sim.log("split", level=level, cluster=c.id, child=c2.id,
                     leader=w, size=len(members2))
        if w != v:
            # the old structural knowledge moves from the cut to the leader
            msg = Message("leader_xfer", v, w,
                          {"cluster": c2.id, "level": level, "fid": fid},
                          size="nlogn",
                          bucket=f"repair:recluster:f{fid}:c{c2.id}")
            self.sim.send(msg, xfer_path)
        if follow:
            self.queue_txn(y, {"level": level, "bcast": c2.id, "fid": fid})
        else:
            self._split_verdict(y, v, c2.id, level, fid, w)
        self._wake_parked(level)

    # -- verdicts and announcements ------------------------------------------------

    def _on_leader_xfer(self, msg):
        # knowledge handoff; nothing to compute, but the shape report wants it
        p = msg.payload
        self._stat_recluster(p["fid"], p["cluster"], p["level"], "xfer",
                             msg.traveled)

    def _split_verdict(self, src, dst, cid, level, fid, final):
        """Tell `final`, the new leader of split-off cluster `cid`, via
        `dst`, that the path needs no update and it may announce."""
        self.dir._send("split_verdict", src, dst,
                       {"cluster": cid, "level": level, "fid": fid,
                        "final": final}, "logn", f"repair:path_update:f{fid}")

    def _on_split_verdict(self, msg):
        p = msg.payload
        self._stat_path(p["fid"], msg.traveled)
        if msg.dst != p["final"]:
            self._split_verdict(msg.dst, p["final"], p["cluster"], p["level"],
                                p["fid"], p["final"])
            return
        self._verdict_arrived(p["cluster"], p["level"], p["fid"])

    def _verdict_arrived(self, cid, level, fid):
        held = self.held.pop(cid)
        c = self.hier.levels[level][cid]
        self._broadcast_cluster(c, fid, [(level, c.leader)],
                                fan_r=self.hier.radius(level), extension=False)
        for p in held:
            self._process_notify(c.leader, p)

    def _broadcast_cluster(self, c, fid, entries, fan_r, extension):
        lead = c.leader
        bucket = f"repair:recluster:f{fid}:c{c.id}"
        payload = {"entries": entries, "fid": fid, "extension": extension,
                   "fan_r": fan_r}
        row = self._recluster_row(fid, c.id, c.level)
        row["extension"] = row["extension"] or extension
        for x in sorted(c.members):
            if x == lead:
                self._apply_bcast(lead, payload)
            else:
                cost = self.g.path_weight(root_path(c.tree_parent, x))
                self._stat_recluster(fid, c.id, c.level, "bcast", cost)
                self.sim.bulk(Message("bcast", lead, x, payload, size="logn",
                                      bucket=bucket), cost=cost)

    def _on_bcast(self, msg):
        self._apply_bcast(msg.dst, msg.payload)

    def _apply_bcast(self, x, payload):
        fid, entries = payload["fid"], payload["entries"]
        for level, leader in entries:
            self.dir.refresh_belief(x, x, level, leader)
        if payload["extension"]:
            self.dir.re_register(x, fid)
        fan_r = payload["fan_r"]
        dist = self.sim.trees[x].dist
        ball = sorted(z for z, d in dist.items() if d <= fan_r and z != x)
        if not ball:
            return
        self._stat_preproc(fid, fan_r, len(ball), max(dist[z] for z in ball))
        # one payload for the whole fan-out: `_on_refresh` only reads it,
        # and nothing else sees a bulk message's payload
        refresh = {"about": x, "entries": entries, "fid": fid}
        bucket = f"repair:preprocess:f{fid}"
        bulk = self.sim.bulk
        for z in ball:
            bulk(Message("refresh", x, z, refresh, size="logn", bucket=bucket),
                 cost=dist[z])

    def _on_refresh(self, msg):
        z = msg.dst
        about = msg.payload["about"]
        for level, leader in msg.payload["entries"]:
            self.dir.refresh_belief(z, about, level, leader)

    # -- stale adder chains ----------------------------------------------------------

    def maybe_fix_adder(self, y, level):
        """After a split, a freshly written path node may reference an adder
        that already sits in a detached descendant; the path must follow."""
        if level < 0 or level >= self.hier.top:
            return
        ns = self.dir.nodes[y]
        st = ns.levels.get(level)
        if st is None or st.added_by is None:
            return
        c = self.hier.led_by(level, y)
        if c is None:
            return
        if st.added_by == y or st.added_by in c.members:
            return
        if ns.busy_txn is not None and ns.busy_txn.spec.get("level") == level:
            return
        for spec in ns.pending_init:
            if spec.get("level") == level:
                return
        fid = max(0, self.dir.failure_count - 1)
        self.queue_txn(y, {"level": level, "bcast": None, "fid": fid})

    def _resolve_adder(self, y, level, adder):
        """Follow the detach chain to the cluster now containing the adder.
        Returns (target_leader, via_endpoint) or None."""
        c = self.hier.led_by(level, y)
        if c is None:
            return None
        hops = 0
        via = None
        while adder not in c.members:
            nxt = None
            for entry in self.detach_log.get(c.id, []):
                if adder in entry["members"]:
                    nxt = self.hier.levels[level][entry["child"]]
                    via = entry["v"]
                    break
            if nxt is None:
                return None
            c = nxt
            hops += 1
            if hops > self.g.n:
                return None
        return c.leader, via if via is not None else c.leader

    # -- path update transactions --------------------------------------------------

    def queue_txn(self, y, spec):
        self.dir.nodes[y].pending_init.append(spec)
        self.try_init(y)

    def try_init(self, y):
        ns = self.dir.nodes[y]
        while ns.pending_init and not ns.locked():
            spec = ns.pending_init.pop(0)
            if spec.get("ext"):
                self._init_extension_txn(y, spec)
                continue
            st = ns.levels.get(spec["level"])
            if st is None:
                self._orphan_verdict(y, spec)
                continue
            resolved = self._resolve_adder(y, spec["level"], st.added_by)
            if resolved is None or resolved[0] == y:
                self._orphan_verdict(y, spec)
                continue
            target, via = resolved
            self._start_txn(y, dict(spec, target=target, via=via), st.up,
                            st.down, st.added_by)

    def _start_txn(self, y, spec, up, down, added_by):
        """Lock the path neighbors `up`/`down` of y's state at
        spec["level"]; the install follows once every grant is in."""
        tid = f"tx{self._txn_seq}"
        self._txn_seq += 1
        txn = Txn(tid, spec, up, down, added_by)
        txn.needed = {n for n in (up, down) if n is not None and n != y}
        txn.clear_needed = {n for n in (up, down) if n is not None}
        self.dir.nodes[y].busy_txn = txn
        level, fid = spec["level"], spec["fid"]
        self.sim.log("txn_start", txn=tid, node=y, level=level,
                     target=spec["target"])
        if not txn.needed:
            self._locks_done(y, txn)
            return
        for n in sorted(txn.needed):
            self.dir._send("txn_lock", y, n,
                           {"txn": tid, "level": level, "initiator": y,
                           "fid": fid},
                           "const", f"repair:path_update:f{fid}")

    def _orphan_verdict(self, y, spec):
        """A queued update became moot, but a pending announcement gate must
        still open."""
        if spec.get("bcast") is None:
            return
        cid = spec["bcast"]
        level = spec["level"]
        fid = spec["fid"]
        leader = self.hier.levels[level][cid].leader
        self._split_verdict(y, leader, cid, level, fid, leader)

    def _on_txn_lock(self, msg):
        z = msg.dst
        p = msg.payload
        self._stat_path(p["fid"], msg.traveled)
        ns = self.dir.nodes[z]
        if ns.busy_txn is not None:
            # still collecting locks and the requester outranks us: back off
            if ns.busy_txn.state == "locking" and p["initiator"] < z:
                self._abort_txn(z)
            else:
                ns.queued_locks.append(msg)
                return
        self._grant(z, p)

    def _grant(self, z, p):
        """z grants the lock request `p`: it holds the grant until the
        repoint (or a release) and tells the initiator."""
        self.dir.nodes[z].grants[p["txn"]] = p["level"]
        self.dir._send("txn_grant", z, p["initiator"],
                       {"txn": p["txn"], "fid": p["fid"]},
                       "const", f"repair:path_update:f{p['fid']}")

    def _release(self, src, dst, tid, fid):
        self.dir._send("lock_release", src, dst, {"txn": tid, "fid": fid},
                       "const", f"repair:path_update:f{fid}")

    def _abort_txn(self, z):
        ns = self.dir.nodes[z]
        txn = ns.busy_txn
        for n in sorted(txn.got):
            if n != z:
                self._release(z, n, txn.id, txn.spec["fid"])
        ns.pending_init.insert(0, txn.spec)
        ns.busy_txn = None
        self.sim.log("txn_abort", txn=txn.id, node=z)

    def _on_lock_release(self, msg):
        self._stat_path(msg.payload["fid"], msg.traveled)
        ns = self.dir.nodes[msg.dst]
        ns.grants.pop(msg.payload["txn"], None)
        self._maintenance(msg.dst)

    def _on_txn_grant(self, msg):
        y = msg.dst
        self._stat_path(msg.payload["fid"], msg.traveled)
        ns = self.dir.nodes[y]
        txn = ns.busy_txn
        if txn is None or txn.id != msg.payload["txn"]:
            # granted to an aborted attempt; give it back
            self._release(y, msg.src, msg.payload["txn"], msg.payload["fid"])
            return
        txn.got.add(msg.src)
        if txn.got >= txn.needed and txn.state == "locking":
            self._locks_done(y, txn)

    def _locks_done(self, y, txn):
        txn.state = "installing"
        spec = txn.spec
        fid = spec["fid"]
        payload = {"txn": txn.id, "initiator": y, "level": spec["level"],
                   "up": txn.up, "down": txn.down, "added_by": txn.added_by,
                   "target": spec["target"], "bcast": spec.get("bcast"),
                   "fid": fid, "bands": spec.get("bands"),
                   "bcast_bands": spec.get("bcast_bands"),
                   "entries": spec.get("entries")}
        # route through the cut endpoint: it is the one node certain to know
        # the way into the detached region
        first = spec.get("via") or spec["target"]
        if first == y:
            first = spec["target"]
        self.dir._send("txn_install", y, first, payload, "logn",
                       f"repair:path_update:f{fid}")

    def _on_txn_install(self, msg):
        p = msg.payload
        at_target = msg.dst == p["target"]
        # a grant held for this very transaction must not block its install;
        # a parked install is counted when `drain_deferred` replays it
        if at_target and self.dir._parked(msg, txn=p["txn"]):
            return
        self._stat_path(p["fid"], msg.traveled)
        if not at_target:
            self.dir._send("txn_install", msg.dst, p["target"], p, "logn",
                           f"repair:path_update:f{p['fid']}")
            return
        w = msg.dst
        fid = p["fid"]
        bucket = f"repair:path_update:f{fid}"
        if p["bands"] is not None:
            self._apply_band_install(w, p)
        else:
            if p["level"] in self.dir.nodes[w].levels:
                self.dir.finding("install_collision", node=w, level=p["level"])
            self.dir.join(w, p["level"], p["up"], p["down"], p["added_by"],
                          bucket)
        for n, direction, at_level in ((p["up"], "down", p["level"] + 1),
                                       (p["down"], "up", p["level"] - 1)):
            if n is None:
                continue
            self.dir._send("txn_repoint", w, n,
                           {"txn": p["txn"], "initiator": p["initiator"],
                             "at_level": at_level, "set": direction,
                             "new_node": w, "fid": fid}, "const", bucket)
        if p.get("bcast") is not None:
            self._verdict_arrived(p["bcast"], p["level"], fid)
        if p.get("bcast_bands"):
            self._announce_bands(p["bands"][0], p["bcast_bands"], p["entries"],
                                 fid)
        self.maybe_fix_adder(w, p["level"])

    def _apply_band_install(self, w, p):
        for level, leader in p["entries"]:
            self.dir.refresh_belief(w, w, level, leader)
        self._link_bands(w, p["bands"], p["down"], self.hier.root,
                         p["added_by"])
        self.dir.re_register(w, p["fid"])

    def _link_bands(self, y, bands, down, top_up, added_by):
        """Put y on the path at every extension band: the lowest band
        points down at `down`, the highest up at `top_up`, and the bands
        in between at y itself."""
        for j in bands:
            self.dir.link(y, j, y if j < bands[-1] else top_up,
                          down if j == bands[0] else y, added_by)

    def _on_txn_repoint(self, msg):
        z = msg.dst
        p = msg.payload
        self._stat_path(p["fid"], msg.traveled)
        ns = self.dir.nodes[z]
        st = ns.levels.get(p["at_level"])
        if st is not None:
            if p["set"] == "down":
                self.dir.set_down(st, p["new_node"])
            else:
                self.dir.set_up(st, p["new_node"])
        else:
            self.dir.finding("repoint_off_path", node=z, level=p["at_level"])
        ns.grants.pop(p["txn"], None)
        self.dir._send("txn_clear", z, p["initiator"],
                       {"txn": p["txn"], "fid": p["fid"]},
                       "const", f"repair:path_update:f{p['fid']}")
        self._maintenance(z)

    def _on_txn_clear(self, msg):
        y = msg.dst
        self._stat_path(msg.payload["fid"], msg.traveled)
        ns = self.dir.nodes[y]
        txn = ns.busy_txn
        if txn is None or txn.id != msg.payload["txn"]:
            return
        txn.cleared.add(msg.src)
        if txn.cleared < txn.clear_needed:
            return
        spec = txn.spec
        fid = spec["fid"]
        bucket = f"repair:path_update:f{fid}"
        level = spec["level"]
        self.dir.leave(y, level, (spec["target"], level), bucket)
        if spec.get("ext"):
            self.dir.link(y, spec["top_level"], None, spec["target"],
                          txn.added_by)
            self.dir.re_register(y, fid)
        ns.busy_txn = None
        self.sim.log("txn_done", txn=txn.id, node=y, level=level)
        self._maintenance(y)

    def _maintenance(self, z):
        ns = self.dir.nodes[z]
        while ns.queued_locks and ns.busy_txn is None:
            self._grant(z, ns.queued_locks.pop(0).payload)
        self.dir.drain_deferred(z)
        if not ns.locked():
            self.try_init(z)

    # -- the top level: repair plus possible layer extension -------------------------

    def _root_repair(self, e, fid):
        """The root repaired its tree after e died, which cut the top
        cluster's tree: decide whether to add levels on top."""
        t = self.sim.trees[self.hier.root]
        top_c = self.hier.clusters_at(self.hier.top)[0]
        # still the tree from before this repair: the top cluster's tree is
        # always a copy of the root's, never t.parent, taken after the last
        # repair, and `_repair_tree` found e in the root's tree
        pre_parent = top_c.tree_parent
        v = child_endpoint(pre_parent, e)
        assert v is not None, f"edge {e} is not in the top cluster's tree"
        det = subtree(self.g._ever, pre_parent, v)
        far_d = max(t.dist.values())
        far = min(x for x in t.dist if t.dist[x] == far_d)
        sigma, rho, h = self.hier.sigma, self.hier.rho, self.hier.top
        threshold = sigma * rho ** (h + 1) - 4 * sigma * rho ** h
        check = {"h": h, "far_node": far, "far_dist": str(far_d),
                 "threshold": str(threshold), "crossing": far in det,
                 "trigger_edge": None, "trigger_weight": None,
                 "triggered": False, "h_new": None}
        self.failures[fid]["ext_check"] = check
        ext = None
        if far in det:
            path = root_path(t.parent, far)
            crossing = [edge_id(a, b) for a, b in zip(path, path[1:])
                        if (a in det) != (b in det)]
            estar = max(crossing, key=lambda ed: (self.g.weight(ed), ed))
            check["trigger_edge"] = list(estar)
            check["trigger_weight"] = str(self.g.weight(estar))
            if self.g.weight(estar) > threshold:
                h_new = 0
                while sigma * rho ** h_new <= t.dist[far]:
                    h_new += 1
                check["h_new"] = h_new
                if h_new > h:
                    check["triggered"] = True
                    ext = {"from": h, "to": h_new, "trigger_edge": list(estar),
                           "trigger_weight": str(self.g.weight(estar)),
                           "threshold": str(threshold),
                           "far_node": far, "far_dist": str(t.dist[far])}
        if ext is None:
            top_c.tree_parent = dict(t.parent)
            return
        self.failures[fid]["extension"] = ext
        self.sim.log("extension", fid=fid, to=ext["to"])
        self._install_extension(v, det, ext["to"], fid, pre_parent)

    def _install_extension(self, v, det, h_new, fid, pre_parent):
        root = self.hier.root
        h_old = self.hier.top
        top_old = self.hier.clusters_at(h_old)[0]
        all_nodes = set(self.g.nodes())
        V2 = set(det)
        V1 = all_nodes - V2
        v1_parent = {x: p for x, p in pre_parent.items() if x in V1}
        v2_parent = {x: (None if x == v else pre_parent[x]) for x in V2}
        band_c2_ids = []
        c1_first = None
        for j in range(h_old, h_new):
            c1 = Cluster(self.hier.new_cid(), j, set(V1), root, v1_parent)
            c2 = Cluster(self.hier.new_cid(), j, set(V2), v, v2_parent)
            if j == h_old:
                del self.hier.levels[h_old][top_old.id]
                c1_first = c1
            self.hier.add_cluster(c1)
            self.hier.add_cluster(c2)
            band_c2_ids.append(c2.id)
            self.held[c2.id] = []
        c_top = Cluster(self.hier.new_cid(), h_new, all_nodes, root,
                        dict(self.sim.trees[root].parent))
        self.hier.top = h_new
        self.hier.add_cluster(c_top)
        entries_v1 = [(j, root) for j in range(h_old, h_new)] + [(h_new, root)]
        entries_v2 = [(j, v) for j in range(h_old, h_new)] + [(h_new, root)]
        ns_root = self.dir.nodes[root]
        st_old = ns_root.levels.get(h_old)
        if st_old is None:
            raise RuntimeError("root lost its top path state")
        adder = st_old.added_by
        old_down = st_old.down
        # the root is authoritative for its own part right away
        self._broadcast_cluster(c1_first, fid, entries_v1,
                                fan_r=self.hier.radius(h_new), extension=True)
        spec = {"ext": True, "level": h_old, "target": v, "via": None,
                "bcast": None, "fid": fid, "bands": list(range(h_old, h_new)),
                "top_level": h_new, "bcast_bands": band_c2_ids,
                "entries": entries_v2}
        if adder in V1 or adder == root:
            self._extend_locally(root, spec, old_down, adder)
        else:
            self.queue_txn(root, spec)

    def _extend_locally(self, y, spec, down, added_by):
        """Keep the path under y: y takes every new band and the new top
        itself, and tells the detached part's leader to announce its
        clusters."""
        fid = spec["fid"]
        self._link_bands(y, spec["bands"], down, y, added_by)
        self.dir.link(y, spec["top_level"], None, y, added_by)
        self.dir.re_register(y, fid)
        self.dir._send("ext_verdict", y, spec["target"],
                       {"bands": spec["bcast_bands"], "level": spec["level"],
                       "entries": spec["entries"], "fid": fid}, "logn",
                       f"repair:path_update:f{fid}")

    def _init_extension_txn(self, y, spec):
        ns = self.dir.nodes[y]
        st = ns.levels.get(spec["level"])
        if st is None:
            raise RuntimeError("extension lost the top path state")
        band = self.hier.levels[spec["level"]][spec["bcast_bands"][0]]
        if st.added_by in band.members:
            # the adder is in the detached part: hand the top over to it
            self._start_txn(y, spec, None, st.down, st.added_by)
        else:
            # a move re-anchored the path under the root while the extension
            # was queued; install the band states locally instead
            self._extend_locally(y, spec, st.down, st.added_by)

    def _on_ext_verdict(self, msg):
        p = msg.payload
        self._stat_path(p["fid"], msg.traveled)
        self._announce_bands(p["level"], p["bands"], p["entries"], p["fid"])

    def _announce_bands(self, level, bands, entries, fid):
        """The detached part's leader learns its extension band clusters
        (ids `bands`, the lowest at `level`): it opens their verdict gates,
        broadcasts the new leaders and handles the notices held back."""
        held = [q for cid in bands for q in self.held.pop(cid)]
        c2 = self.hier.levels[level][bands[0]]
        self._broadcast_cluster(c2, fid, entries,
                                fan_r=self.hier.radius(self.hier.top),
                                extension=True)
        for q in held:
            self._process_notify(c2.leader, q)

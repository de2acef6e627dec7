"""The distributed directory protocol: publish, lookup and move.

A directory path is a chain of cluster leaders, one per hierarchy level,
linked by up/down pointers and ending at the token owner. Operations walk
levels bottom-up: at level i the issuer queries the believed leaders of
clusters meeting its r_i-neighborhood, one at a time in deterministic
order. Queries carry the issuer's believed member lists so a leader can
report stale beliefs; the issuer then waits for the corresponding
cluster-change refresh instead of failing. A leader farther than
(1 + 2*sigma) * r_i away is never contacted directly, only waited on.

Each path node also registers a shortcut with the leader of its cluster
`shortcut_offset` levels up, so lookups are guaranteed to discover the
path within a bounded number of levels even though moves relink it
concurrently. Moves splice the path at the discovery level and send a
deletion walker down the abandoned segment; the walker finishes by
handing the token to the new owner. Every node that leaves the path
records where it went, so late walkers converge instead of getting lost.

Path state (`LevelState`, the forwarding hints and the shortcut
registrations) is written only by these `Directory` methods, here and in
the failure engine alike: `join` puts a node on the path and registers
its shortcut, `leave` takes it off, leaves a hint and unregisters, `link`
puts a node on the path without registering (the extension bands, which
re-register afterwards), `set_down` repoints a down link and `set_up` an
up link. `link` and `set_down` stamp the state with the time and failure
count of the write; `set_up` and leaving keep the stamp.
"""

from __future__ import annotations

from faultdir.sim import Message, Simulator

OPEN_PHASES = ("up", "walk", "await_token")


class LevelState:
    """Per-(node, level) directory path membership."""

    __slots__ = ("on_path", "up", "down", "added_by", "built_t", "built_f")

    def __init__(self):
        self.on_path = False
        self.up = None
        self.down = None
        self.added_by = None
        self.built_t = None
        self.built_f = None

    def clear(self) -> None:
        """Leave the path; the build stamp stays."""
        self.on_path = False
        self.up = self.down = self.added_by = None


class NodeState:
    def __init__(self, nid: int):
        self.id = nid
        self.levels: dict[int, LevelState] = {}
        # shortcut registry held at this node: (target, target_level) keys
        self.shortcuts: dict[tuple[int, int], bool] = {}
        # where this node registered its own shortcut, per path level
        self.my_shortcut: dict[int, int] = {}
        # token machinery
        self.has_token = False
        self.expecting_token = False
        # (next_owner, op_id) once a later mover overtakes this one
        self.pending_transfer: tuple[int, str] | None = None
        self.token_forward: int | None = None
        self.waiting_lookups: list = []
        # forwarding hints for nodes that left the path: level -> (node, level)
        self.hints: dict[int, tuple[int, int]] = {}
        # path update transaction state
        self.busy_txn = None          # transaction this node is initiating
        self.grants: dict[str, int] = {}   # txn_id -> level, while locked
        self.queued_locks: list = []
        self.pending_init: list = []  # levels waiting to (re)start a txn
        self.deferred: list = []      # parked write messages while locked

    def level(self, i: int) -> LevelState:
        if i not in self.levels:
            self.levels[i] = LevelState()
        return self.levels[i]

    def locked(self) -> bool:
        return bool(self.grants) or self.busy_txn is not None


class OpState:
    def __init__(self, oid: str, kind: str, issuer: int, t_issue, f_at_issue: int):
        self.id = oid
        self.kind = kind
        self.issuer = issuer
        self.t_issue = t_issue
        self.f_at_issue = f_at_issue
        self.phase = "up"
        self.level = -1
        self.outstanding = None
        self.contacted: dict[int, set[int]] = {}
        self.stale_of: dict[int, dict[int, int]] = {}
        self.ball = None  # (level, *grouped ball) while searching
        self.pending_add = None
        self.acks_needed: set = set()
        self.discovery_level = None
        self.via_shortcut = False
        self.t_complete = None
        self.f_at_complete = None
        self.value = None
        self.version = None
        self.read_t = None
        self.walk_min_built_f = None
        self.owner_at_issue = None
        self.dist_at_issue = None
        self.flags: list[str] = []
        # move only: levels actually acked, so link payloads never rely on
        # beliefs that moved underneath us
        self.branch: dict[int, int] = {-1: issuer}

    def open(self) -> bool:
        return self.phase in OPEN_PHASES


class Directory:
    """Wires node state machines into the simulator and drives operations."""

    def __init__(self, sim: Simulator, hier, ldir):
        self.sim = sim
        self.hier = hier
        self.ldir = ldir
        self.nodes = {u: NodeState(u) for u in sim.g.nodes()}
        self.ops: dict[str, OpState] = {}
        self._op_seq = 0
        self.token_value = None
        self.token_version = None
        self.token_intervals: list[dict] = []
        self.findings: list[dict] = []
        self.failure_count = 0
        self.engine = None  # failure engine attaches itself
        for kind in ("pub_set", "ack", "search", "search_reply", "move_add",
                     "move_ack", "set_up", "down_fix", "del_walk", "lookup_walk",
                     "lookup_reply", "walk_fail", "token", "reg_sc", "unreg_sc"):
            sim.handlers[kind] = getattr(self, "_on_" + kind)

    # -- helpers -------------------------------------------------------------

    def finding(self, what: str, **info) -> None:
        rec = {"t": str(self.sim.now), "what": what}
        rec.update(info)
        self.findings.append(rec)
        self.sim.log("finding", what=what, **{k: str(v) for k, v in info.items()})

    def open_ops(self) -> list[OpState]:
        return [op for op in self.ops.values() if op.open()]

    def quiescent(self) -> bool:
        if not self.sim.idle() or self.open_ops():
            return False
        for ns in self.nodes.values():
            if ns.busy_txn or ns.grants or ns.deferred or ns.pending_init \
                    or ns.queued_locks or ns.waiting_lookups:
                return False
        if self.engine is not None and not self.engine.quiet():
            return False
        return True

    def _parked(self, msg, txn=None) -> bool:
        """Park a write message at a locked destination; `drain_deferred`
        replays it through its handler once the node is unlocked. A grant
        held for transaction `txn` does not lock the node."""
        ns = self.nodes[msg.dst]
        if ns.busy_txn is not None or any(t != txn for t in ns.grants):
            ns.deferred.append(msg)
            return True
        return False

    def _send(self, kind, src, dst, payload, size, bucket) -> None:
        self.sim.send(Message(kind, src, dst, payload, size=size, bucket=bucket))

    def link(self, st: LevelState, up, down, added_by) -> None:
        """Put a node on the path at one level, stamped now."""
        st.on_path = True
        st.up = up
        st.added_by = added_by
        self.set_down(st, down)

    def set_down(self, st: LevelState, down) -> None:
        """Repoint a path node's down link and stamp it with the current
        time and failure count."""
        st.down = down
        st.built_t = self.sim.now
        st.built_f = self.failure_count

    def set_up(self, st: LevelState, up) -> None:
        """Repoint a path node's up link; the stamp stays."""
        st.up = up

    def join(self, y: int, level: int, up, down, added_by, bucket: str) -> None:
        """Put y on the path at `level` and register its shortcut."""
        self.link(self.nodes[y].level(level), up, down, added_by)
        self._register_shortcut(y, level, bucket)

    def leave(self, y: int, level: int, hint, bucket: str) -> None:
        """Take y off the path at `level`, leave the hint `hint` (node,
        level) for late walkers and unregister y's shortcut."""
        ns = self.nodes[y]
        ns.level(level).clear()
        ns.hints[level] = hint
        self._unregister_shortcut(y, level, bucket)

    def believed_own_leader(self, u: int, level: int) -> int | None:
        if level == -1:
            return u
        return self.ldir.believed_leader(u, u, level)

    # -- shortcut registration -------------------------------------------------

    def _register_shortcut(self, y: int, level: int, bucket: str) -> None:
        i2 = self.hier.shortcut_level(level)
        s = self.believed_own_leader(y, i2)
        if s is None:
            self.finding("shortcut_target_unknown", node=y, level=level)
            return
        self.nodes[y].my_shortcut[level] = s
        self._send("reg_sc", y, s, {"target": y, "tlevel": level},
                   "const", bucket)

    def _unregister_shortcut(self, y: int, level: int, bucket: str) -> None:
        s = self.nodes[y].my_shortcut.pop(level, None)
        if s is None:
            return
        self._send("unreg_sc", y, s, {"target": y, "tlevel": level},
                   "const", bucket)

    def _on_reg_sc(self, msg):
        self._note_sc_traffic(msg)
        self.nodes[msg.dst].shortcuts[(msg.payload["target"], msg.payload["tlevel"])] = True

    def _on_unreg_sc(self, msg):
        self._note_sc_traffic(msg)
        self.nodes[msg.dst].shortcuts.pop((msg.payload["target"], msg.payload["tlevel"]), None)

    def _note_sc_traffic(self, msg):
        """Special parent updates made during repairs feed the shape report."""
        if self.engine is None or not msg.bucket.startswith("repair:path_update:f"):
            return
        fid = int(msg.bucket.rsplit(":f", 1)[1])
        tlevel = msg.payload["tlevel"]
        self.engine.stat_sc_update(fid, tlevel,
                                   self.hier.shortcut_level(tlevel), msg.traveled)

    # -- operations: issue ---------------------------------------------------

    def _new_op(self, kind: str, issuer: int) -> OpState:
        oid = f"{kind}{self._op_seq}"
        self._op_seq += 1
        op = OpState(oid, kind, issuer, self.sim.now, self.failure_count)
        self.ops[oid] = op
        self.sim.log("op_issue", op=oid, kind=kind, node=issuer)
        return op

    def _open_move(self, y: int) -> OpState | None:
        """y's oldest open move, if any. A node has at most one once
        `start_move` has rejected a second."""
        for op in self.ops.values():
            if op.kind == "move" and op.issuer == y and op.open():
                return op
        return None

    def current_owner(self) -> int | None:
        return self.token_intervals[-1]["holder"] if self.token_intervals else None

    def start_publish(self, v: int) -> OpState:
        op = self._new_op("pub", v)
        if self.token_value is not None:
            self.finding("duplicate_publish", node=v)
            op.phase = "rejected"
            return op
        self.token_value = 42
        self.token_version = 0
        ns = self.nodes[v]
        ns.has_token = True
        self.token_intervals.append({"version": 0, "holder": v, "t_from": self.sim.now})
        for level in range(-1, self.hier.top + 1):
            leader = self.believed_own_leader(v, level)
            down = v if level == 0 else (
                None if level == -1 else self.believed_own_leader(v, level - 1))
            up = self.believed_own_leader(v, level + 1) if level < self.hier.top else None
            payload = {"op": op.id, "level": level, "down": down, "up": up,
                       "added_by": v}
            if leader == v:
                self._apply_path_state(v, payload)
            else:
                op.acks_needed.add((leader, level))
                self._send("pub_set", v, leader, payload, "logn",
                           f"op:{op.id}:L{level}:link")
        if not op.acks_needed:
            self._complete(op)
        return op

    def start_lookup(self, u: int) -> OpState:
        op = self._new_op("look", u)
        if self.token_value is None:
            self.finding("lookup_before_publish", node=u)
            op.phase = "rejected"
            return op
        op.owner_at_issue = self.current_owner()
        op.dist_at_issue = self.sim.g.distance(u, op.owner_at_issue)
        ns = self.nodes[u]
        if ns.levels.get(-1) and ns.levels[-1].on_path:
            # issuer already on the owner chain at level -1: local read or wait
            self._walk_arrived_at_owner(op, u)
            return op
        op.level = 0
        self._advance(op)
        return op

    def start_move(self, v: int) -> OpState:
        op = self._new_op("move", v)
        if self.token_value is None:
            self.finding("move_before_publish", node=v)
            op.phase = "rejected"
            return op
        # ops are kept in issue order, so an older open move comes first
        if self._open_move(v) is not op:
            self.finding("concurrent_move_same_node", node=v)
            op.phase = "rejected"
            return op
        op.owner_at_issue = self.current_owner()
        op.dist_at_issue = self.sim.g.distance(v, op.owner_at_issue)
        ns = self.nodes[v]
        if ns.level(-1).on_path and (ns.has_token or ns.expecting_token):
            # already the owner (or about to be): nothing to do
            op.discovery_level = -1
            self._complete(op)
            return op
        self.join(v, -1, None, None, v, f"op:{op.id}:L-1:sc")
        ns.expecting_token = True
        op.level = 0
        self._advance(op)
        return op

    # -- upward search machinery ---------------------------------------------

    def _ball(self, u: int, i: int):
        """u's r_i-ball on its tree, grouped by believed leader: the nodes
        whose leader u does not know, in id order, and (leader, xs, far)
        per known leader, in leader order, with xs in id order and `far`
        when the leader sits beyond the farthest a cluster's current
        leader can be from u."""
        r = self.hier.radius(i)
        reach = r + 2 * self.hier.sigma * r
        dist = self.sim.trees[u].dist
        unknown = []
        groups: dict[int, list[int]] = {}
        for x in sorted(x for x, d in dist.items() if d <= r):
            led = self.ldir.believed_leader(u, x, i)
            if led is None:
                unknown.append(x)
            else:
                groups.setdefault(led, []).append(x)
        return (tuple(unknown),
                tuple((led, tuple(xs), dist[led] > reach)
                      for led, xs in sorted(groups.items())))

    def _candidates(self, op: OpState):
        """(sort_key, leader, witnesses) not yet contacted at op.level, plus
        the set of witnesses the op is currently waiting on. The grouped
        ball (see `_ball`) is held in `op.ball` for the op's current level;
        `reevaluate` is the one place that drops it while the op is open.
        The op's stale reports and contacted leaders are applied per call.
        Witnesses are the ball's tuples, or new lists where stale reports
        thinned a group."""
        u = op.issuer
        i = op.level
        if op.ball is None or op.ball[0] != i:
            op.ball = (i, *self._ball(u, i))
        _, unknown, groups = op.ball
        dist = self.sim.trees[u].dist
        contacted = op.contacted.setdefault(i, set())
        stale_of = op.stale_of.setdefault(i, {})
        waits: set[int] = set(unknown)
        ready = []
        for led, xs, far in groups:
            if stale_of:
                # the leader said these left its cluster; wait for news
                waits.update(x for x in xs if stale_of.get(x) == led)
                xs = [x for x in xs if stale_of.get(x) != led]
                if not xs:
                    continue
            if led in contacted:
                continue
            if far:
                # too far to be this cluster's current leader; wait for news
                waits.update(xs)
                continue
            ready.append(((min(dist[x] for x in xs), led), led, xs))
        ready.sort()
        return ready, waits

    def _advance(self, op: OpState) -> None:
        if op.phase != "up" or op.outstanding is not None or op.pending_add is not None:
            return
        while True:
            ready, waits = self._candidates(op)
            if ready:
                _, leader, witnesses = ready[0]
                op.contacted[op.level].add(leader)
                op.outstanding = leader
                payload = {"op": op.id, "kind": op.kind, "level": op.level,
                           "issuer": op.issuer, "members": list(witnesses)}
                if op.kind == "move":
                    payload["new_down"] = self._move_branch_node(op, op.level - 1)
                size = "logn" if len(witnesses) <= 4 else "nlogn"
                self._send("search", op.issuer, leader, payload, size,
                           f"op:{op.id}:L{op.level}:query")
                return
            if waits:
                self.sim.log("op_wait", op=op.id, level=op.level,
                             on=sorted(waits))
                return
            if not self._level_done(op):
                return

    def _move_branch_node(self, op: OpState, level: int) -> int:
        """The mover's own path node at `level` (the branch built so far)."""
        if level in op.branch:
            return op.branch[level]
        return self.believed_own_leader(op.issuer, level)

    def _level_done(self, op: OpState) -> bool:
        """Returns True if the op should keep searching (level advanced)."""
        if op.kind == "move":
            leader = self.believed_own_leader(op.issuer, op.level)
            if leader is None:
                # can only happen for a freshly extended level before the
                # refresh lands; the candidates machinery parks us until then
                self.finding("own_leader_unknown", op=op.id, level=op.level)
                return False
            op.pending_add = op.level
            payload = {"op": op.id, "level": op.level,
                       "down": self._move_branch_node(op, op.level - 1),
                       "added_by": op.issuer}
            self._send("move_add", op.issuer, leader, payload, "logn",
                       f"op:{op.id}:L{op.level}:link")
            return False
        if op.level >= self.hier.top:
            # the root is always on the path; the top search must have hit it
            self.finding("search_passed_top", op=op.id)
            op.phase = "rejected"
            return False
        op.level += 1
        return True

    # -- search handling at leaders ---------------------------------------------

    def _on_search(self, msg):
        if msg.payload["kind"] == "move" and self._parked(msg):
            return
        y = msg.dst
        ns = self.nodes[y]
        p = msg.payload
        level = p["level"]
        op_id = p["op"]
        cluster = self.hier.led_by(level, y)
        members = cluster.members if cluster else set()
        stale = sorted(x for x in p["members"] if x not in members)
        reply = {"op": op_id, "level": level, "found": False, "stale": stale}
        st = ns.levels.get(level)
        if p["kind"] == "move":
            if st is not None and st.on_path:
                reply["found"] = True
                self._splice(y, st, level, op_id, p["issuer"], p["new_down"],
                             "splice")
        else:
            on_levels = sorted(l for l, s in ns.levels.items()
                               if s.on_path and l <= level)
            sc = sorted((t[1], t[0]) for t in ns.shortcuts if t[1] < level)
            if on_levels:
                reply["found"] = True
                self._deliver_walk_step(y, on_levels[0], op_id, p["issuer"],
                                        None, None)
            elif sc:
                tlevel, target = sc[0]
                reply["found"] = True
                reply["via_shortcut"] = True
                self._walk(y, target, op_id, p["issuer"], tlevel, [y, level],
                           None)
        self._send("search_reply", y, p["issuer"], reply, "logn",
                   f"op:{op_id}:L{level}:reply")

    def _splice(self, y, st, level, op_id, new_owner, down, event):
        """A move meets the path at y's on-path state `st`: repoint it down
        at the mover's branch node `down`, log `event`, and send a delete
        walk down the old branch."""
        old_down = st.down
        self.link(st, st.up, down, new_owner)
        self.sim.log(event, op=op_id, node=y, level=level)
        if old_down is None:
            self.finding("splice_without_down", op=op_id, node=y, level=level)
        else:
            self._del_walk(y, old_down, op_id, level - 1, new_owner, st.built_f)

    def _on_search_reply(self, msg):
        p = msg.payload
        op = self.ops.get(p["op"])
        if op is None:
            return
        if p["found"] and op.discovery_level is None:
            # the walk can outrun this reply; keep the books right anyway
            op.discovery_level = p["level"]
            op.via_shortcut = bool(p.get("via_shortcut"))
        if not op.open():
            return
        if op.phase != "up" or p["level"] != op.level or op.outstanding != msg.src:
            return
        op.outstanding = None
        for x in p["stale"]:
            op.stale_of.setdefault(op.level, {})[x] = msg.src
        if p["found"]:
            op.discovery_level = op.level
            op.via_shortcut = bool(p.get("via_shortcut"))
            if op.kind == "move":
                op.phase = "await_token"
            else:
                op.phase = "walk"
            return
        self._advance(op)

    # -- move: adding levels ------------------------------------------------------

    def _on_move_add(self, msg):
        if self._parked(msg):
            return
        y = msg.dst
        ns = self.nodes[y]
        p = msg.payload
        level = p["level"]
        st = ns.level(level)
        spliced = st.on_path
        if spliced:
            # a concurrent path update put y on the path after the search
            # missed it; treat the add as the discovery splice
            self._splice(y, st, level, p["op"], p["added_by"], p["down"],
                         "splice_on_add")
        else:
            self.join(y, level, None, p["down"], p["added_by"],
                      f"op:{p['op']}:L{level}:sc")
        self._send("move_ack", y, p["added_by"],
                   {"op": p["op"], "level": level, "spliced": spliced},
                   "const", f"op:{p['op']}:L{level}:link")
        self._stale_adder_check(y, level)

    def _on_move_ack(self, msg):
        p = msg.payload
        op = self.ops.get(p["op"])
        # the token can outrun this ack; finish the pointer work even for a
        # move that already completed
        if op is None or op.pending_add != p["level"]:
            return
        op.pending_add = None
        level = p["level"]
        op.branch[level] = msg.src
        below = self._move_branch_node(op, level - 1)
        self._send("set_up", op.issuer, below,
                   {"level": level - 1, "up": msg.src},
                   "const", f"op:{op.id}:L{level}:link")
        if not op.open():
            return
        if p["spliced"]:
            op.discovery_level = level
            op.phase = "await_token"
            return
        op.level = level + 1
        self._advance(op)

    def _on_set_up(self, msg):
        if self._parked(msg):
            return
        y = msg.dst
        ns = self.nodes[y]
        level = msg.payload["level"]
        st = ns.levels.get(level)
        if st is None or not st.on_path:
            hint = ns.hints.get(level)
            if hint is not None and hint[1] == level:
                # this node was replaced mid-move; hand the link to the
                # replacement so the chain heals
                self.finding("set_up_forwarded", node=y, level=level, to=hint[0])
                self._send("set_up", y, hint[0], dict(msg.payload),
                           "const", msg.bucket)
            else:
                self.finding("set_up_after_delete", node=y, level=level)
            return
        if st.up is None:
            self.set_up(st, msg.payload["up"])
        else:
            # a concurrent path update already repointed us; its value is
            # fresher than the mover's snapshot
            self.finding("set_up_superseded", node=y, level=level)
        # make sure the node above points down at us, not at whoever held
        # this level when the mover sampled it
        self._send("down_fix", y, msg.payload["up"],
                   {"at_level": level + 1, "new_node": y,
                    "stamp": st.built_t}, "const", msg.bucket)

    def _on_down_fix(self, msg):
        if self._parked(msg):
            return
        st = self.nodes[msg.dst].levels.get(msg.payload["at_level"])
        if st is None or not st.on_path:
            self.finding("down_fix_off_path", node=msg.dst,
                         level=msg.payload["at_level"])
            return
        if msg.payload["stamp"] <= st.built_t:
            # our link was written after the sender's state was; a later
            # splice or repoint must not be rolled back
            if st.down != msg.payload["new_node"]:
                self.finding("down_fix_stale", node=msg.dst,
                             level=msg.payload["at_level"])
            return
        if st.down != msg.payload["new_node"]:
            self.set_down(st, msg.payload["new_node"])

    # -- path state application (publish) --------------------------------------

    def _apply_path_state(self, y: int, p: dict) -> None:
        level = p["level"]
        if self.nodes[y].level(level).on_path:
            self.finding("path_state_overwrite", node=y, level=level)
        self.join(y, level, p["up"], p["down"], p["added_by"],
                  f"op:{p['op']}:L{level}:sc")
        self._stale_adder_check(y, level)

    def _on_pub_set(self, msg):
        self._apply_path_state(msg.dst, msg.payload)
        self._send("ack", msg.dst, msg.src,
                   {"op": msg.payload["op"], "level": msg.payload["level"]},
                   "const", f"op:{msg.payload['op']}:L{msg.payload['level']}:link")

    def _on_ack(self, msg):
        op = self.ops.get(msg.payload["op"])
        if op is None or not op.open():
            return
        op.acks_needed.discard((msg.src, msg.payload["level"]))
        if not op.acks_needed and op.phase == "up":
            self._complete(op)

    def _stale_adder_check(self, y: int, level: int) -> None:
        """After a split, a freshly written path node may reference an adder
        that already sits in a detached descendant; the path must follow."""
        if self.engine is not None:
            self.engine.maybe_fix_adder(y, level)

    # -- lookup walks -----------------------------------------------------------

    def _walk(self, src, dst, op_id, issuer, at_level, via_shortcut, min_f):
        self._send("lookup_walk", src, dst,
                   {"op": op_id, "issuer": issuer, "at_level": at_level,
                    "via_shortcut": via_shortcut, "min_built_f": min_f},
                   "const", f"op:{op_id}:walk")

    def _walk_fail(self, src, issuer, op_id, resume_level):
        self._send("walk_fail", src, issuer,
                   {"op": op_id, "resume_level": resume_level},
                   "const", f"op:{op_id}:walk")

    def _on_lookup_walk(self, msg):
        p = msg.payload
        self._deliver_walk_step(msg.dst, p["at_level"], p["op"], p["issuer"],
                                p.get("via_shortcut"), p.get("min_built_f"))

    def _deliver_walk_step(self, y, level, op_id, issuer, via_shortcut, min_f):
        ns = self.nodes[y]
        st = ns.levels.get(level)
        op = self.ops.get(op_id)
        if st is not None and st.on_path:
            if min_f is None or (st.built_f is not None and st.built_f < min_f):
                min_f = st.built_f
            if op is not None:
                op.walk_min_built_f = min_f
            if level == -1:
                if op is not None and op.open():
                    self._walk_arrived_at_owner(op, y)
                return
            self._walk(y, st.down, op_id, issuer, level - 1, None, min_f)
            return
        # not on the path here (anymore)
        if via_shortcut is not None:
            self._walk_fail(y, issuer, op_id, via_shortcut[1])
            return
        if ns.token_forward is not None:
            self.finding("lookup_forwarded_by_old_owner", op=op_id, node=y)
            self._walk(y, ns.token_forward, op_id, issuer, -1, None, min_f)
            return
        hint = ns.hints.get(level)
        if hint is not None:
            self.finding("lookup_hint_redirect", op=op_id, node=y, level=level)
            self._walk(y, hint[0], op_id, issuer, hint[1], None, min_f)
            return
        self.finding("lookup_walk_stranded", op=op_id, node=y, level=level)
        self._walk_fail(y, issuer, op_id, level + 1)

    def _walk_arrived_at_owner(self, op: OpState, y: int) -> None:
        ns = self.nodes[y]
        if ns.has_token:
            op.read_t = self.sim.now
            op.value = self.token_value
            op.version = self.token_version
            if y == op.issuer:
                self._complete(op)
            else:
                self._send("lookup_reply", y, op.issuer,
                           {"op": op.id, "value": self.token_value,
                            "version": self.token_version},
                           "const", f"op:{op.id}:reply")
            return
        if ns.expecting_token:
            ns.waiting_lookups.append(op.id)
            return
        if ns.token_forward is not None:
            self._walk(y, ns.token_forward, op.id, op.issuer, -1, None,
                       op.walk_min_built_f)
            return
        self.finding("owner_without_token", op=op.id, node=y)
        self._walk_fail(y, op.issuer, op.id, 0)

    def _on_lookup_reply(self, msg):
        op = self.ops.get(msg.payload["op"])
        if op is None or not op.open():
            return
        op.value = msg.payload["value"]
        op.version = msg.payload["version"]
        self._complete(op)

    def _on_walk_fail(self, msg):
        op = self.ops.get(msg.payload["op"])
        if op is None or not op.open() or op.phase != "walk":
            return
        op.flags.append("walk_failed")
        op.phase = "up"
        op.discovery_level = None
        op.via_shortcut = False
        op.level = min(msg.payload["resume_level"], self.hier.top)
        self._advance(op)

    # -- deletion walker ---------------------------------------------------------

    def _del_walk(self, src, dst, op_id, expect_level, new_owner, min_f):
        self._send("del_walk", src, dst,
                   {"op": op_id, "expect_level": expect_level,
                    "new_owner": new_owner, "min_built_f": min_f},
                   "const", f"op:{op_id}:walk")

    def _on_del_walk(self, msg):
        if self._parked(msg):
            return
        y = msg.dst
        ns = self.nodes[y]
        p = msg.payload
        op_id, level = p["op"], p["expect_level"]
        new_owner, min_f = p["new_owner"], p["min_built_f"]
        st = ns.levels.get(level)
        if st is not None and st.on_path:
            nxt = st.down
            self.leave(y, level, (new_owner, -1), f"op:{op_id}:L{level}:sc")
            if level == -1:
                self._owner_end_transfer(y, p)
            else:
                self._del_walk(y, nxt, op_id, level - 1, new_owner, min_f)
            return
        if ns.token_forward is not None and level == -1:
            self.finding("del_walk_forwarded", op=op_id, node=y)
            self._del_walk(y, ns.token_forward, op_id, -1, new_owner, min_f)
            return
        hint = ns.hints.get(level)
        if hint is not None:
            self.finding("del_walk_hint_redirect", op=op_id, node=y, level=level)
            self._del_walk(y, hint[0], op_id, hint[1], new_owner, min_f)
            return
        self.finding("del_walk_stranded", op=op_id, node=y, level=level)

    def _hand_token(self, y: int, nxt: int, op_id: str) -> None:
        ns = self.nodes[y]
        ns.has_token = False
        ns.token_forward = nxt
        self._send("token", y, nxt, {"op": op_id, "value": self.token_value},
                   "const", f"op:{op_id}:token")

    def _owner_end_transfer(self, y: int, p: dict) -> None:
        """The delete walk reached the old owner y, which just left level
        -1: pass the token on now or once it arrives."""
        ns = self.nodes[y]
        if ns.has_token:
            self._hand_token(y, p["new_owner"], p["op"])
        elif ns.expecting_token:
            if ns.pending_transfer is not None:
                self.finding("double_pending_transfer", node=y)
            ns.pending_transfer = (p["new_owner"], p["op"])
            ns.token_forward = p["new_owner"]
        else:
            self.finding("transfer_at_tokenless_node", node=y, op=p["op"])
            if ns.token_forward is None:
                ns.token_forward = p["new_owner"]

    def _on_token(self, msg):
        y = msg.dst
        ns = self.nodes[y]
        self.token_version += 1
        now = self.sim.now
        if self.token_intervals:
            self.token_intervals[-1]["t_to"] = now
        self.token_intervals.append({"version": self.token_version, "holder": y,
                                     "t_from": now})
        ns.has_token = True
        ns.expecting_token = False
        # whatever op id rode along, the receiver's own open move is the
        # one this arrival completes
        mover_op = self._open_move(y)
        if mover_op is not None:
            mover_op.read_t = now
            mover_op.version = self.token_version
            mover_op.value = self.token_value
            self._complete(mover_op)
        served, ns.waiting_lookups = ns.waiting_lookups, []
        for oid in served:
            wop = self.ops.get(oid)
            if wop is not None and wop.open():
                self._walk_arrived_at_owner(wop, y)
        if ns.pending_transfer is not None:
            # y left level -1 when the transfer was parked, and cannot
            # have rejoined: its own move stayed open until now
            nxt, nxt_op = ns.pending_transfer
            ns.pending_transfer = None
            self._hand_token(y, nxt, nxt_op)

    # -- completion ---------------------------------------------------------------

    def _complete(self, op: OpState) -> None:
        """Close the op. Its search state goes with it: every reader of
        the ball, contacted leaders and stale reports checks the phase."""
        op.phase = "done"
        op.ball = None
        op.contacted.clear()
        op.stale_of.clear()
        op.t_complete = self.sim.now
        op.f_at_complete = self.failure_count
        self.sim.log("op_done", op=op.id, kind=op.kind, node=op.issuer)

    # -- reactions to knowledge changes ---------------------------------------------

    def refresh_belief(self, u: int, x: int, level: int, leader: int) -> None:
        self.ldir.set_belief(u, x, level, leader)
        self.reevaluate(u)

    def reevaluate(self, u: int) -> None:
        """Something u knows changed (belief refresh or tree repair): drop
        the search balls of u's ops and poke u's parked searches. The two
        writers, `refresh_belief` and `FailureEngine._repair_tree`, call
        this right after their write."""
        for oid in sorted(self.ops):
            op = self.ops[oid]
            if op.issuer == u:
                op.ball = None
                if op.phase == "up":
                    self._advance(op)

    def re_register(self, y: int, fid: int) -> None:
        """After a layer extension the shortcut level clamp moves; every
        path node re-registers where needed."""
        ns = self.nodes[y]
        bucket = f"repair:path_update:f{fid}"
        for i in sorted(l for l, s in ns.levels.items() if s.on_path):
            want = self.believed_own_leader(y, self.hier.shortcut_level(i))
            cur = ns.my_shortcut.get(i)
            if want is None:
                self.finding("shortcut_target_unknown", node=y, level=i)
                continue
            if cur != want:
                self._unregister_shortcut(y, i, bucket)
                self._register_shortcut(y, i, bucket)

    def drain_deferred(self, y: int) -> None:
        """Replay parked messages through their handlers. The node is
        unlocked here, so each handler's gate lets its message through."""
        ns = self.nodes[y]
        while ns.deferred and not ns.locked():
            # processing one message can re-lock the node (e.g. by starting
            # a path update); the rest then waits for the next drain
            msg = ns.deferred.pop(0)
            self.sim.handlers[msg.kind](msg)

    # -- inspection ------------------------------------------------------------------

    def path_view(self) -> list[tuple[int, int]]:
        """The directory path as [(level, node)], top first. Requires a
        quiescent simulator; validates chain consistency and uniqueness."""
        if not self.quiescent():
            raise RuntimeError("path_view requires a quiescent simulator")
        chain = []
        node = self.hier.root
        level = self.hier.top
        seen = set()
        while level >= -1:
            st = self.nodes[node].levels.get(level)
            if st is None or not st.on_path:
                raise RuntimeError(f"path broken at level {level} node {node}")
            chain.append((level, node))
            seen.add((level, node))
            if level == -1:
                break
            if st.down is None:
                raise RuntimeError(f"missing down link at level {level} node {node}")
            node = st.down
            level -= 1
        stray = []
        for u in sorted(self.nodes):
            for lv, st in sorted(self.nodes[u].levels.items()):
                if st.on_path and (lv, u) not in seen:
                    stray.append((lv, u))
        if stray:
            raise RuntimeError(f"stray path states: {stray}")
        owner = chain[-1][1]
        if not self.nodes[owner].has_token:
            raise RuntimeError(f"path ends at {owner} without the token")
        return chain

"""Deterministic discrete-event simulator with FIFO links and cost ledger.

Time is exact (ints/Fractions). Events are ordered by (time, sequence
number), so identical inputs replay identically, byte for byte.

Two transport classes:

* routed: hop-by-hop along the sender's current shortest path tree, one
  event per edge traversal, FIFO per edge direction. Messages in flight
  on an edge when it dies are lost; if the edge ever carried traffic,
  the endpoints run a resend exchange and the sender-side endpoint
  resends the lost messages over a fresh route.
* bulk: direct delivery after an explicit cost/latency, used for fanouts
  whose delivery is guaranteed by the resend machinery anyway
  (broadcasts, belief refreshes). The full cost and message count still
  hit the ledger; traffic no node reads is only charged (`charge_only`).

Every message reaches exactly one terminal event, so nothing filters
duplicates: a send starts one chain of pending events (hops, then one
delivery), relays and resends build new messages with new ids, and a
message lost on a dead edge is never delivered.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction

from faultdir.graph import Graph, EdgeId, edge_id, dijkstra, root_path

SIZES = ("const", "logn", "nlogn")


def _q(x) -> str:
    """Exact string form of a time or cost."""
    return str(Fraction(x))


def _head(name: str) -> str:
    """The first two ':'-separated segments of a bucket name or prefix."""
    return ":".join(name.split(":", 2)[:2])


class BucketIndex:
    """Bucket names filed under their one- and two-segment heads ('op',
    'op:look3', 'repair:recluster', 'setup').

    Every bucket under a prefix shares the prefix's head, so a prefix
    lookup scans only that head's buckets, not the whole ledger.
    """

    def __init__(self):
        self._by_head: dict[str, list[str]] = {}

    def add(self, bucket: str) -> None:
        first = bucket.partition(":")[0]
        self._by_head.setdefault(first, []).append(bucket)
        two = _head(bucket)
        if two != first:
            self._by_head.setdefault(two, []).append(bucket)

    def matching(self, prefix: str) -> list[str]:
        """Buckets equal to prefix or below it, in the order added."""
        probe = prefix + ":"
        return [b for b in self._by_head.get(_head(prefix), ())
                if b == prefix or b.startswith(probe)]


class CostLedger:
    """Message counts and traversal costs aggregated per bucket.

    Bucket names are strings like 'op:look3', 'repair:recluster:f0:c12'
    or 'setup'; report helpers aggregate by prefix.
    """

    def __init__(self):
        self.rows: dict[str, dict] = {}
        self._index = BucketIndex()

    def charge(self, bucket: str, cost, size: str = "const", count: int = 1) -> None:
        assert size in SIZES, size
        row = self.rows.get(bucket)
        if row is None:
            row = self.rows[bucket] = {"messages": 0, "cost": 0,
                                       "const": 0, "logn": 0, "nlogn": 0}
            self._index.add(bucket)
        row["messages"] += count
        row["cost"] += cost
        row[size] += count

    def total(self, prefix: str) -> tuple[int, object]:
        msgs, cost = 0, 0
        for bucket in self._index.matching(prefix):
            row = self.rows[bucket]
            msgs += row["messages"]
            cost += row["cost"]
        return msgs, cost

    def as_rows(self) -> list[dict]:
        out = []
        for bucket in sorted(self.rows):
            row = self.rows[bucket]
            out.append({"bucket": bucket, "messages": row["messages"],
                        "cost": _q(row["cost"]), "const": row["const"],
                        "logn": row["logn"], "nlogn": row["nlogn"]})
        return out


class Message:
    def __init__(self, kind: str, src: int, dst: int, payload: dict,
                 size: str = "const", bucket: str = "misc"):
        # numbered by the simulator when it first takes the message
        self.id: int | None = None
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.bucket = bucket
        self.route: list[int] = []
        self.at = src
        self.blocked: set[EdgeId] = set()
        self.traveled = 0
        self.lost = False
        # a no_reroute message must not detour around a dead edge; it is
        # delivered where it stands with payload["stuck"] set instead
        self.no_reroute = False

    def __repr__(self):
        return f"<msg {self.id} {self.kind} {self.src}->{self.dst} at {self.at}>"


class Simulator:
    """Owns the clock, the event heap, links, logs and the ledger.

    Protocol layers register one handler per message kind and may also
    register named timer callbacks; a timer's callback is looked up when
    it is scheduled. The simulator knows nothing about directory
    semantics; it moves messages and keeps accounts.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.ledger = CostLedger()
        self.handlers: dict[str, callable] = {}
        self.timers: dict[str, callable] = {}
        # per-node shortest path trees, installed by the runtime
        self.trees = {}
        self._next_msg_id = 0
        # edges that ever carried a routed hop; a failed edge among them
        # triggers the resend exchange
        self.used_edges: set[EdgeId] = set()
        self.events: list[dict] = []
        self.event_limit = 5_000_000
        self._processed = 0

    # -- logging -----------------------------------------------------------

    def log(self, etype: str, **fields) -> None:
        rec = {"t": _q(self.now), "seq": self._seq, "type": etype}
        rec.update(fields)
        self.events.append(rec)

    def dump_events(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events) + "\n"

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay, fn, data) -> None:
        """Call fn(data) after delay; no two entries share (time, seq)."""
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, data))
        self._seq += 1

    def call_later(self, delay, timer_name: str, data=None) -> None:
        self.schedule(delay, self.timers[timer_name], data)

    # -- transport -----------------------------------------------------------

    def _admit(self, msg: Message) -> None:
        """Number a message the first time it enters this simulator; ids
        order messages by send."""
        if msg.id is None:
            msg.id = self._next_msg_id
            self._next_msg_id += 1

    def send(self, msg: Message, path: list[int] | None = None) -> None:
        """Routed transport from msg.src to msg.dst: along `path`, an
        explicit node path from src to dst (e.g. a cluster spanning tree
        path), if one is given, else along the sender's current tree. A
        path that breaks falls back to tree routing."""
        assert path is None or (path[0] == msg.src and path[-1] == msg.dst)
        self._admit(msg)
        msg.at = msg.src
        if msg.src == msg.dst:
            self.schedule(0, self._deliver, msg)
        elif path is None:
            self._forward(msg)
        else:
            msg.route = list(path[1:])
            self._hop(msg)

    def _route_from(self, x: int, msg: Message) -> list[int] | None:
        """Next route from x to msg.dst: x's tree path, unless it crosses
        an edge this message has already bounced off, else a shortest path
        on the alive graph. x's tree never holds an edge x knows is dead:
        x repairs its tree the moment it learns of a failure."""
        tree = self.trees.get(x)
        # a route is the path from msg.dst up to x, reversed, without x
        if tree is not None and tree.root == x:
            path = root_path(tree.parent, msg.dst)
            if all(edge_id(a, b) not in msg.blocked for a, b in zip(path, path[1:])):
                return path[-2::-1]
        dist, parent = dijkstra(self.g._adj, x)
        if msg.dst not in dist:
            return None
        return root_path(parent, msg.dst)[-2::-1]

    def _forward(self, msg: Message) -> None:
        route = self._route_from(msg.at, msg)
        if route is None:
            raise RuntimeError(f"no route for {msg} from {msg.at}")
        msg.route = route
        self._hop(msg)

    def _hop(self, msg: Message) -> None:
        nxt = msg.route[0]
        e = edge_id(msg.at, nxt)
        if not self.g.is_alive(e):
            if msg.no_reroute:
                msg.payload["stuck"] = True
                msg.dst = msg.at
                self.schedule(0, self._deliver, msg)
                return
            # sender-side endpoint knows instantly; bounce and re-route
            msg.blocked.add(e)
            self._forward(msg)
            return
        self.used_edges.add(e)
        self.schedule(self.g.weight(e), self._process_hop, msg)

    def bulk(self, msg: Message, cost) -> None:
        """Direct delivery with explicit cost; the latency is the cost."""
        self._admit(msg)
        self.ledger.charge(msg.bucket, cost, msg.size)
        msg.traveled = cost
        self.schedule(cost, self._deliver, msg)

    def charge_only(self, bucket: str, cost, size: str = "const", count: int = 1) -> None:
        self.ledger.charge(bucket, cost, size, count=count)

    # -- failure hooks ---------------------------------------------------------

    def capture_in_flight(self, e: EdgeId) -> list[Message]:
        """Mark every message currently crossing e as lost; the resend
        exchange recovers them. A message has one pending event, so these
        are the messages, not yet lost, of the queued hops starting on e."""
        e = edge_id(*e)
        lost = [m for _t, _s, fn, m in self._heap if fn == self._process_hop
                and not m.lost and edge_id(m.at, m.route[0]) == e]
        for m in lost:
            m.lost = True
        return lost

    def resend(self, msg: Message, frm: int, dead: EdgeId, bucket: str) -> Message:
        """Re-issue a lost message from its sending side as a fresh copy.
        The original stays lost so its stale hop event is ignored."""
        clone = Message(msg.kind, msg.src, msg.dst, msg.payload,
                        size=msg.size, bucket=bucket)
        clone.blocked = set(msg.blocked)
        clone.blocked.add(edge_id(*dead))
        clone.at = frm
        self._admit(clone)
        self._forward(clone)
        return clone

    # -- main loop ---------------------------------------------------------------

    def run(self) -> None:
        while self._heap:
            t, _seq, fn, data = heapq.heappop(self._heap)
            self.now = t
            self._processed += 1
            if self._processed > self.event_limit:
                raise RuntimeError("event limit exceeded; likely livelock")
            fn(data)

    def _process_hop(self, msg: Message) -> None:
        """A lost message's stale hop is dropped here, not taken off the
        heap, so it still moves the clock; routes end at dst."""
        if msg.lost:
            return
        nxt = msg.route.pop(0)
        e = edge_id(msg.at, nxt)
        self.ledger.charge(msg.bucket, self.g.weight(e), msg.size)
        msg.traveled += self.g.weight(e)
        msg.at = nxt
        if msg.at == msg.dst:
            self._deliver(msg)
        else:
            self._hop(msg)

    def _deliver(self, msg: Message) -> None:
        handler = self.handlers.get(msg.kind)
        if handler is None:
            raise RuntimeError(f"no handler for message kind {msg.kind}")
        handler(msg)

    def idle(self) -> bool:
        return not self._heap

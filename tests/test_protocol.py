"""Directory semantics: publish, lookup, move, linearization."""

from fractions import Fraction

import pytest

from faultdir.bounds import check_bounds
from faultdir.cli import _gen_scenario
from faultdir.scenario import Runtime
from faultdir.sim import Message
from golden.corpus import GOLDEN, scenario

from oracles import fw_all_pairs, open_moves, open_ops


def stack(graph, mode="strong", rho=2, seed=0, events=()):
    sc = {"name": "t", "mode": mode, "rho": rho, "seed": seed,
          "graph": graph, "events": list(events)}
    rt = Runtime(sc)
    rt.run()
    return rt


def test_publish_builds_full_chain():
    rt = stack({"kind": "ring", "n": 12},
               events=[{"t": 0, "do": "publish", "node": 4}])
    chain = rt.dir.path_view()
    assert chain[0][0] == rt.hier.top
    assert chain[-1] == (-1, 4)
    assert [lvl for lvl, _ in chain] == list(range(rt.hier.top, -2, -1))
    assert rt.dir.current_owner() == 4
    assert not rt.dir.findings


def test_lookup_returns_current_version_and_owner():
    rt = stack({"kind": "grid", "rows": 3, "cols": 4},
               events=[{"t": 0, "do": "publish", "node": 0},
                       {"t": 100, "do": "lookup", "node": 11}])
    op = [*rt.dir.ops.values()][-1]
    assert op.phase == "done"
    assert op.version == 0
    assert op.value == 42
    assert op.owner_at_issue == 0
    dist = fw_all_pairs(rt.g)
    assert op.dist_at_issue == dist[11][0]
    assert op.discovery_level is not None


def test_move_transfers_token_and_relinks_chain():
    rt = stack({"kind": "ring", "n": 10},
               events=[{"t": 0, "do": "publish", "node": 1},
                       {"t": 200, "do": "move", "node": 6},
                       {"t": 500, "do": "lookup", "node": 3}])
    assert rt.dir.current_owner() == 6
    chain = rt.dir.path_view()
    assert chain[-1] == (-1, 6)
    look = [*rt.dir.ops.values()][-1]
    assert look.phase == "done" and look.version == 1
    assert [iv["version"] for iv in rt.dir.token_intervals] == [0, 1]
    iv0, iv1 = rt.dir.token_intervals
    assert iv0["holder"] == 1 and iv1["holder"] == 6
    assert iv0.get("t_to") is not None and iv0["t_to"] <= iv1["t_from"]


def test_sequence_of_moves_keeps_single_chain():
    movers = [7, 2, 11, 5, 9]
    events = [{"t": 0, "do": "publish", "node": 0}]
    events += [{"t": 300 * (k + 1), "do": "move", "node": m}
               for k, m in enumerate(movers)]
    rt = stack({"kind": "ring", "n": 12}, events=events)
    assert rt.dir.current_owner() == movers[-1]
    levels = [lvl for lvl, _ in rt.dir.path_view()]
    assert levels == list(range(rt.hier.top, -2, -1))
    assert not rt.dir.findings
    versions = [iv["version"] for iv in rt.dir.token_intervals]
    assert versions == list(range(len(movers) + 1))
    # intervals tile time: each closes exactly when the next opens
    for a, b in zip(rt.dir.token_intervals, rt.dir.token_intervals[1:]):
        assert a["t_to"] == b["t_from"]


def test_lookup_before_publish_rejected():
    rt = stack({"kind": "ring", "n": 8})
    op = rt.dir.start_lookup(2)
    assert op.phase == "rejected"
    assert any(f["what"] == "lookup_before_publish" for f in rt.dir.findings)


def test_duplicate_publish_rejected():
    rt = stack({"kind": "ring", "n": 8},
               events=[{"t": 0, "do": "publish", "node": 2}])
    op = rt.dir.start_publish(5)
    assert op.phase == "rejected"
    assert any(f["what"] == "duplicate_publish" for f in rt.dir.findings)


def test_concurrent_move_same_node_rejected():
    rt = stack({"kind": "ring", "n": 8},
               events=[{"t": 0, "do": "publish", "node": 2}])
    first = rt.dir.start_move(5)
    second = rt.dir.start_move(5)  # still in flight
    rt.sim.run()
    assert second.phase == "rejected"
    assert first.phase == "done"
    assert any(f["what"] == "concurrent_move_same_node"
               for f in rt.dir.findings)


def test_lookup_issued_during_move_still_linearizes():
    rt = stack({"kind": "grid", "rows": 3, "cols": 3},
               events=[{"t": 0, "do": "publish", "node": 0}])
    rt.dir.start_move(8)
    look = rt.dir.start_lookup(4)
    rt.sim.run()
    assert look.phase == "done"
    ivs = {iv["version"]: iv for iv in rt.dir.token_intervals}
    iv = ivs[look.version]
    assert iv["t_from"] <= look.read_t
    assert iv.get("t_to") is None or look.read_t <= iv["t_to"]
    assert look.t_issue <= look.read_t <= look.t_complete


def test_owner_lookup_is_local():
    rt = stack({"kind": "ring", "n": 8},
               events=[{"t": 0, "do": "publish", "node": 3},
                       {"t": 100, "do": "lookup", "node": 3}])
    op = [*rt.dir.ops.values()][-1]
    assert op.phase == "done" and op.version == 0
    msgs, cost = rt.sim.ledger.total(f"op:{op.id}")
    assert cost == 0


def test_per_level_search_cost_within_fan_out_bound():
    rt = stack({"kind": "random", "n": 20, "p": 0.25, "seed": 11},
               events=[{"t": 0, "do": "publish", "node": 0},
                       {"t": 100, "do": "lookup", "node": 17},
                       {"t": 400, "do": "lookup", "node": 9}])
    sigma, overlap = rt.hier.sigma, rt.hier.overlap
    for op in [*rt.dir.ops.values()][1:]:
        for lvl in range(0, (op.discovery_level or 0) + 1):
            _m, cost = rt.sim.ledger.total(f"op:{op.id}:L{lvl}:query")
            assert cost <= overlap * (1 + sigma) * rt.hier.radius(lvl)


def test_runs_are_reproducible():
    sc = {"name": "rep", "mode": "weak", "rho": 2, "seed": 3,
          "graph": {"kind": "random", "n": 14, "p": 0.3, "seed": 2},
          "events": [{"t": 0, "do": "publish", "node": 1},
                     {"t": 100, "do": "lookup", "node": 9},
                     {"t": 300, "do": "move", "node": 12},
                     {"t": 700, "do": "lookup", "node": 5}]}
    outs = set()
    for _ in range(3):
        rt = Runtime(sc)
        rt.run()
        outs.add(rt.sim.dump_events())
    assert len(outs) == 1


def test_run_scenario_returns_record():
    rec = Runtime({"name": "r", "mode": "strong", "rho": 2, "seed": 0,
                   "graph": {"kind": "path", "n": 9},
                   "events": [{"t": 0, "do": "publish", "node": 4},
                              {"t": 100, "do": "lookup", "node": 8}]}).run()
    assert rec["ops"][1]["phase"] == "done"
    assert rec["publish"] is not None
    assert Fraction(rec["sigma"]) >= 1


def pending(sim):
    """Messages scheduled but not yet delivered, in send order."""
    msgs = [d for _t, _s, fn, d in sim._heap
            if fn in (sim._process_hop, sim._deliver)]
    return sorted(msgs, key=lambda m: m.id)


def settled_chain():
    """Ring of 12 with the token published at node 4, plus its path as
    {level: node}."""
    rt = stack({"kind": "ring", "n": 12},
               events=[{"t": 0, "do": "publish", "node": 4}])
    return rt, dict(rt.dir.path_view())


def test_move_add_onto_path_node_splices_and_walks_old_segment():
    rt, chain = settled_chain()
    y = chain[1]
    st = rt.dir.nodes[y].levels[1]
    old_up, old_down = st.up, st.down
    mover = next(u for u in rt.g.nodes() if u not in chain.values())
    rt.sim.now, rt.dir.failure_count = 777, 3
    rt.dir._on_move_add(Message("move_add", mover, y,
                                {"op": "move9", "level": 1, "down": mover,
                                 "added_by": mover}))
    # the splice rewrites y's level-1 state in place
    assert rt.dir.nodes[y].levels[1] is st
    assert (st.up, st.down, st.added_by) == (old_up, mover, mover)
    assert (st.built_t, st.built_f) == (777, 3)
    assert rt.sim.events[-1]["type"] == "splice_on_add"
    walk, ack = pending(rt.sim)
    assert (walk.kind, walk.dst) == ("del_walk", old_down)
    assert walk.payload == {"op": "move9", "expect_level": 0,
                            "new_owner": mover}
    assert (ack.kind, ack.dst, ack.payload["spliced"]) == \
        ("move_ack", mover, True)


def test_down_fix_with_newer_stamp_repoints_down():
    rt, chain = settled_chain()
    y = chain[2]
    st = rt.dir.nodes[y].levels[2]
    old_up, adder = st.up, st.added_by
    new_node = next(u for u in rt.g.nodes() if u != st.down)
    rt.sim.now, rt.dir.failure_count = 777, 2
    rt.dir._on_down_fix(Message("down_fix", new_node, y,
                                {"at_level": 2, "new_node": new_node,
                                 "stamp": st.built_t + 1}))
    assert rt.dir.nodes[y].levels[2] is st
    assert (st.up, st.down, st.added_by) == (old_up, new_node, adder)
    assert (st.built_t, st.built_f) == (777, 2)
    assert not pending(rt.sim)


# -- the token at a node with an open move ----------------------------------


def open_mover(rt, chain):
    """Start a move at a node off the chain; it joins level -1 and waits
    for the token. Returns (mover, its op)."""
    m = next(u for u in rt.g.nodes() if u not in chain.values())
    op = rt.dir.start_move(m)
    assert rt.dir.nodes[m].move is op and -1 in rt.dir.nodes[m].levels
    return m, op


def token_to(rt, y, op_id):
    rt.dir._on_token(Message("token", rt.hier.root, y,
                             {"op": op_id, "value": 42}))


def test_lookup_at_an_open_mover_waits_for_the_token():
    rt, chain = settled_chain()
    m, move = open_mover(rt, chain)
    reader = chain[-1]
    look = rt.dir._new_op("look", reader)
    look.phase = "walk"
    rt.dir._deliver_walk_step(m, -1, look.id, reader, None, None)
    ns = rt.dir.nodes[m]
    assert ns.waiting_lookups == [look.id] and look.id in rt.dir.open

    rt.sim.now = 500
    token_to(rt, m, "move9")
    assert ns.move is None and ns.has_token and not ns.waiting_lookups
    assert (move.phase, move.version, move.read_t) == ("done", 1, 500)
    assert (look.value, look.version, look.read_t) == (42, 1, 500)
    replies = [msg for msg in pending(rt.sim) if msg.kind == "lookup_reply"]
    assert [(r.dst, r.payload) for r in replies] == \
        [(reader, {"op": look.id, "value": 42, "version": 1})]


def overtake(rt, y, op_id, new_owner):
    """A later mover's delete walk reaches y's level -1 state."""
    rt.dir._on_del_walk(Message("del_walk", rt.hier.root, y,
                                {"op": op_id, "expect_level": -1,
                                 "new_owner": new_owner}))


def test_overtaken_mover_passes_the_token_on_with_the_parked_op():
    rt, chain = settled_chain()
    m, move = open_mover(rt, chain)
    later = next(u for u in rt.g.nodes() if u not in chain.values() and u != m)
    overtake(rt, m, "move9", later)
    ns = rt.dir.nodes[m]
    assert -1 not in ns.levels and ns.hints[-1] == (later, -1)
    assert (ns.pending_transfer, ns.token_forward) == ("move9", later)
    assert move.id in rt.dir.open

    token_to(rt, m, move.id)
    assert move.phase == "done" and ns.move is None
    assert (ns.has_token, ns.pending_transfer, ns.token_forward) == \
        (False, None, later)
    tokens = [msg for msg in pending(rt.sim) if msg.kind == "token"]
    assert [(t.src, t.dst, t.payload["op"]) for t in tokens] == \
        [(m, later, "move9")]
    assert not any(f["what"] == "double_pending_transfer"
                   for f in rt.dir.findings)


def test_a_second_transfer_at_an_open_mover_trips_the_assertion():
    rt, chain = settled_chain()
    m, _ = open_mover(rt, chain)
    first, second = [u for u in rt.g.nodes()
                     if u not in chain.values() and u != m][:2]
    overtake(rt, m, "move9", first)
    # m left level -1 and cannot rejoin while its move is open, so a second
    # walk is forwarded to the first overtaker; only a direct call reaches
    # the transfer again
    overtake(rt, m, "move10", second)
    ns = rt.dir.nodes[m]
    assert (ns.pending_transfer, ns.token_forward) == ("move9", first)
    walks = [msg for msg in pending(rt.sim) if msg.kind == "del_walk"]
    assert [(w.dst, w.payload["op"]) for w in walks] == [(first, "move10")]
    with pytest.raises(AssertionError):
        rt.dir._owner_end_transfer(m, {"op": "move10", "new_owner": second})


@pytest.mark.parametrize("forward", [None, 0])
def test_transfer_at_a_tokenless_node_keeps_a_known_forward(forward):
    rt, chain = settled_chain()
    z = next(u for u in rt.g.nodes() if u not in chain.values())
    later = next(u for u in rt.g.nodes() if u not in chain.values() and u != z)
    rt.dir.link(z, -1, None, None, z)
    ns = rt.dir.nodes[z]
    ns.token_forward = forward
    overtake(rt, z, "move9", later)
    assert -1 not in ns.levels and ns.pending_transfer is None
    assert ns.token_forward == (later if forward is None else forward)
    assert [f["what"] for f in rt.dir.findings] == \
        ["transfer_at_tokenless_node"]
    assert not [msg for msg in pending(rt.sim) if msg.kind == "token"]


@pytest.mark.parametrize("forward", [None, 0])
def test_lookup_at_a_tokenless_owner_follows_the_forward_or_fails(forward):
    rt, chain = settled_chain()
    z = next(u for u in rt.g.nodes() if u not in chain.values())
    rt.dir.link(z, -1, None, None, z)
    rt.dir.nodes[z].token_forward = forward
    reader = chain[-1]
    look = rt.dir._new_op("look", reader)
    look.phase = "walk"
    rt.dir._deliver_walk_step(z, -1, look.id, reader, None, None)
    (msg,) = pending(rt.sim)
    if forward is None:
        assert [f["what"] for f in rt.dir.findings] == ["owner_without_token"]
        assert (msg.kind, msg.dst, msg.payload) == \
            ("walk_fail", reader, {"op": look.id, "resume_level": 0})
    else:
        assert not rt.dir.findings
        assert (msg.kind, msg.dst, msg.payload["at_level"]) == \
            ("lookup_walk", forward, -1)


# -- the deferral gate: write messages park at a locked node -----------------


def node_view(rt):
    """Everything a handler may change: path states, registries, hints and
    token state of every node, the findings and the event log."""
    nodes = {}
    for u, ns in rt.dir.nodes.items():
        nodes[u] = (
            sorted((lv, st.up, st.down, st.added_by, st.built_t, st.built_f,
                    st.shortcut) for lv, st in ns.levels.items()),
            sorted(ns.shortcuts), sorted(ns.hints.items()), ns.has_token,
            ns.move and ns.move.id, ns.token_forward, ns.pending_transfer)
    return nodes, list(rt.dir.findings), list(rt.sim.events)


def sent(sim):
    return [(m.id, m.kind, m.src, m.dst, m.payload, m.bucket)
            for m in pending(sim)]


def write_message(kind, chain, mover):
    """One message of `kind` aimed at the chain's level-1 node that, handled
    unlocked, changes state there and (all but down_fix) sends on."""
    y, up = chain[1], chain[2]
    payload = {
        "search": {"op": "move9", "kind": "move", "level": 1,
                   "issuer": mover, "members": [y], "new_down": mover},
        "move_add": {"op": "move9", "level": 1, "down": mover,
                     "added_by": mover},
        "set_up": {"level": 1, "up": up},
        "down_fix": {"at_level": 1, "new_node": mover, "stamp": 10 ** 6},
        "del_walk": {"op": "move9", "expect_level": 1, "new_owner": mover},
    }[kind]
    return Message(kind, mover, y, payload)


@pytest.mark.parametrize("kind", ["search", "move_add", "set_up", "down_fix",
                                  "del_walk"])
def test_locked_node_parks_a_write_and_drain_replays_it(kind):
    rt, chain = settled_chain()
    twin, _ = settled_chain()
    mover = next(u for u in rt.g.nodes() if u not in chain.values())
    for r in (rt, twin):
        r.sim.now, r.dir.failure_count = 777, 3
    y = chain[1]
    ns = rt.dir.nodes[y]
    before = node_view(rt)
    ns.grants["tx-held"] = 1
    msg = write_message(kind, chain, mover)
    rt.sim.handlers[kind](msg)
    assert ns.deferred == [msg]
    assert node_view(rt) == before
    assert not pending(rt.sim)

    del ns.grants["tx-held"]
    rt.dir.drain_deferred(y)
    assert not ns.deferred
    twin.sim.handlers[kind](write_message(kind, chain, mover))
    assert node_view(rt) == node_view(twin)
    assert node_view(rt) != before
    assert sent(rt.sim) == sent(twin.sim)
    assert bool(sent(rt.sim)) == (kind != "down_fix")


# -- the shortcut registry follows path membership ---------------------------

# failure-heavy corpus runs with moves, both modes
CORPUS_RUNS = [f"{shape}-{mode}-s{seed}-m20" for shape in ("grid8", "ring14")
               for mode in ("strong", "weak") for seed in (0, 1, 2)]


@pytest.mark.parametrize("name", sorted(GOLDEN) + CORPUS_RUNS)
def test_shortcut_registry_matches_path_membership(name):
    """At quiescence every path state holds a shortcut registration, and
    the registries held at the targets are exactly those registrations."""
    rt = Runtime(scenario(name))
    rt.run()
    nodes = rt.dir.nodes
    for y, ns in nodes.items():
        assert all(st.shortcut is not None for st in ns.levels.values()), y
    held = {(s, t, lv) for s, ns in nodes.items() for t, lv in ns.shortcuts}
    made = {(st.shortcut, y, lv) for y, ns in nodes.items()
            for lv, st in ns.levels.items()}
    assert held == made


@pytest.mark.parametrize("name", sorted(GOLDEN) + CORPUS_RUNS)
def test_each_node_holds_its_open_move(name):
    """After every handled message, the open-op index holds, in issue
    order, the ops a scan over all ops finds open, and each node's `move`
    is its open move as that scan finds it."""
    sc = scenario(name)
    rt = Runtime(sc)
    deliver = rt.sim._deliver
    seen = []

    def checked(msg):
        deliver(msg)
        assert list(rt.dir.open.values()) == open_ops(rt.dir), msg.kind
        moves = open_moves(rt.dir)
        for y, ns in rt.dir.nodes.items():
            assert ns.move is moves.get(y), (msg.kind, y)
        seen.append(len(moves))

    rt.sim._deliver = checked
    rt.run()
    assert seen
    if any(ev["do"] == "move" for ev in sc["events"]):
        assert max(seen) > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_waiting_lookup_is_open(name):
    """After every handled message, each lookup parked in a node's
    `waiting_lookups` is an open op, which is why `quiescent` needs no term
    for them. The goldens run one op at a time, so none parks a lookup
    today; `test_lookup_at_an_open_mover_waits_for_the_token` parks one."""
    rt = Runtime(scenario(name))
    deliver = rt.sim._deliver

    def checked(msg):
        deliver(msg)
        for ns in rt.dir.nodes.values():
            assert rt.dir.open.keys() >= set(ns.waiting_lookups), msg.kind

    rt.sim._deliver = checked
    rt.run()
    assert rt.dir.quiescent()


# -- a splice found by the search links the branch up ----------------------


def test_move_after_a_search_splice_and_split_finishes():
    """The search reply that reports a splice sends the mover's branch node
    below its set_up, as a move ack does; without it a later split
    transaction at that node started with Txn.up None and never repointed
    the parent's down link: node 2's level-3 down still pointed at 7 after
    7 left level 2, and move12 never finished."""
    sc = _gen_scenario({"kind": "random", "n": 24, "p": 0.2, "seed": 139},
                       "weak", 2, 139, ops=40, failures=10, horizon=3000,
                       move_frac=0.5)
    assert check_bounds(Runtime(sc).run()).ok


def test_every_chain_node_points_up_at_its_upper_neighbour():
    """At quiescence each node on the path points up at the next node of
    the chain, including the nodes a search splice linked in."""
    wrong = []
    for seed in range(4):
        sc = _gen_scenario({"kind": "grid", "rows": 6, "cols": 6}, "strong",
                           2, seed, ops=20, failures=0, horizon=2000,
                           move_frac=0.5)
        rt = Runtime(sc)
        rt.run()
        chain = rt.dir.path_view()
        wrong += [(seed, level, node)
                  for (_, upper), (level, node) in zip(chain, chain[1:])
                  if rt.dir.nodes[node].levels[level].up != upper]
    assert not wrong

"""Transport layer: routing costs, ordering, loss and recovery."""

from collections import Counter

import pytest

from faultdir.cli import _gen_scenario
from faultdir.graph import (build_spt, edge_id, grid_graph, random_graph,
                            ring_graph)
from faultdir.scenario import Runtime
from faultdir.sim import Message, Simulator

from golden.regen import SCENARIOS, scenario
from oracles import fw_all_pairs


def make_sim(g):
    sim = Simulator(g)
    for x in sorted(g.nodes()):
        sim.trees[x] = build_spt(g, x)
    return sim


def collect(sim, kind="ping"):
    got = []
    sim.handlers[kind] = lambda m: got.append(m)
    return got


def watch_deliveries(monkeypatch):
    """Wrap `Simulator._admit` and `_deliver`; returns the list of messages
    in the order they were numbered and the list of deliveries made."""
    admitted, delivered = [], []
    admit, deliver = Simulator._admit, Simulator._deliver

    def watched_admit(sim, msg):
        if msg.id is None:
            admitted.append(msg)
        admit(sim, msg)

    def watched_deliver(sim, msg):
        delivered.append(msg)
        deliver(sim, msg)

    monkeypatch.setattr(Simulator, "_admit", watched_admit)
    monkeypatch.setattr(Simulator, "_deliver", watched_deliver)
    return admitted, delivered


def test_routed_cost_matches_shortest_distance():
    g = random_graph(12, 0.3, seed=7)
    sim = make_sim(g)
    got = collect(sim)
    dist = fw_all_pairs(g)
    sim.send(Message("ping", 0, 9, {}, bucket="t"))
    sim.run()
    assert len(got) == 1
    _m, cost = sim.ledger.total("t")
    assert cost == dist[0][9]
    assert got[0].traveled == dist[0][9]
    assert sim.now == dist[0][9]


def test_self_send_costs_nothing():
    g = ring_graph(6)
    sim = make_sim(g)
    got = collect(sim)
    sim.send(Message("ping", 3, 3, {}, bucket="t"))
    sim.run()
    assert len(got) == 1
    assert sim.ledger.total("t") == (0, 0)
    assert got[0].traveled == 0


def test_fifo_order_per_edge_direction():
    g = ring_graph(4)
    sim = make_sim(g)
    got = collect(sim)
    first = Message("ping", 0, 1, {}, bucket="t")
    second = Message("ping", 0, 1, {}, bucket="t")
    sim.send(first)
    sim.send(second)
    sim.run()
    assert got == [first, second]
    assert edge_id(0, 1) in sim.used_edges


def test_bulk_charges_exactly_and_stamps_traveled():
    g = ring_graph(5)
    sim = make_sim(g)
    got = collect(sim)
    sim.bulk(Message("ping", 0, 2, {}, bucket="t"), cost=7)
    sim.run()
    assert sim.ledger.total("t") == (1, 7)
    assert got[0].traveled == 7
    assert sim.now == 7


def test_bounce_reroutes_around_unknown_dead_edge():
    g = ring_graph(6)
    sim = make_sim(g)
    got = collect(sim)
    g.kill_edge(edge_id(0, 1))  # sender's tree still routes through it
    sim.send(Message("ping", 0, 2, {}, bucket="t"))
    sim.run()
    assert len(got) == 1
    # forced the long way round: 4 unit edges instead of 2
    assert got[0].traveled == 4


def test_no_reroute_parks_at_break():
    g = ring_graph(6)
    sim = make_sim(g)
    got = collect(sim)
    g.kill_edge(edge_id(0, 1))
    msg = Message("ping", 0, 2, {}, bucket="t")
    msg.no_reroute = True
    sim.send(msg)
    sim.run()
    assert len(got) == 1
    assert got[0].payload["stuck"] is True
    assert got[0].dst == 0  # returned to the stalled hop's position
    assert got[0].traveled == 0


def test_capture_and_resend_recovers_lost_message():
    g = ring_graph(6, weights=3)
    sim = make_sim(g)
    got = collect(sim)
    msg = Message("ping", 0, 1, {"k": 1}, bucket="t")
    sim.send(msg)  # its hop over (0,1) is queued: the message is in flight
    lost = sim.capture_in_flight(edge_id(0, 1))
    assert lost == [msg] and msg.lost
    g.kill_edge(edge_id(0, 1))
    clone = sim.resend(msg, 0, edge_id(0, 1), "t")
    sim.run()
    assert [m.id for m in got] == [clone.id]
    assert got[0].payload == {"k": 1}
    # the clone went the long way: five legs of weight 3
    assert clone.traveled == 15


def test_capture_takes_only_the_dead_edges_live_messages():
    """In flight means a queued hop: capture reads the heap. A message
    captured before keeps its stale hop on the heap; it is not captured
    again and never delivered. Messages on other edges, or due to cross
    the edge only later, are left alone."""
    g = ring_graph(6, weights=3)
    sim = make_sim(g)
    got = collect(sim)
    stale = Message("ping", 0, 1, {}, bucket="t")
    sim.send(stale)
    assert sim.capture_in_flight(edge_id(0, 1)) == [stale]
    fwd, back, beside, other, later = msgs = [
        Message("ping", a, b, {}, bucket="t")
        for a, b in ((0, 1), (1, 0), (0, 5), (2, 3), (5, 1))]
    for m in msgs:
        sim.send(m)
    assert len(sim._heap) == 6  # the stale hop is still queued
    lost = sim.capture_in_flight((1, 0))
    assert sorted(m.id for m in lost) == [fwd.id, back.id]
    assert all(m.lost for m in lost) and not any(
        m.lost for m in (beside, other, later))
    g.kill_edge(edge_id(0, 1))
    sim.run()
    assert sorted(m.id for m in got) == [beside.id, other.id, later.id]
    assert later.traveled == 18  # 5 to 0, bounced, then 0 to 1 the long way


def test_event_log_deterministic():
    def run_once():
        g = grid_graph(3, 3)
        sim = make_sim(g)
        collect(sim)
        for k in range(6):
            sim.send(Message("ping", k % 9, (k * 3 + 1) % 9, {"k": k},
                             bucket=f"b{k % 2}"))
            sim.log("mark", k=k)
        sim.run()
        return sim.dump_events(), sim.ledger.as_rows()

    a = run_once()
    b = run_once()
    assert a == b


def test_ledger_prefix_totals():
    g = ring_graph(4)
    sim = make_sim(g)
    sim.charge_only("a", 5)
    sim.charge_only("a:x", 7, size="logn")
    sim.charge_only("ab", 11)
    assert sim.ledger.total("a") == (2, 12)
    assert sim.ledger.total("a:x") == (1, 7)
    assert sim.ledger.total("ab") == (1, 11)


def test_event_limit_guards_livelock():
    g = ring_graph(4)
    sim = make_sim(g)
    sim.event_limit = 50
    sim.timers["again"] = lambda _d: sim.call_later(1, "again")
    sim.call_later(1, "again")
    with pytest.raises(RuntimeError, match="event limit"):
        sim.run()


def test_timer_dispatch_and_clock():
    g = ring_graph(4)
    sim = make_sim(g)
    fired = []
    sim.timers["once"] = lambda d: fired.append((sim.now, d))
    sim.call_later(9, "once", {"x": 1})
    sim.run()
    assert fired == [(9, {"x": 1})]


def test_message_ids_are_numbered_per_simulator():
    g = ring_graph(5)
    for _ in range(2):
        sim = make_sim(g)
        got = collect(sim)
        sim.send(Message("ping", 0, 2, {}, bucket="t"))
        sim.bulk(Message("ping", 1, 3, {}, bucket="t"), cost=2)
        sim.run()
        assert sorted(m.id for m in got) == [0, 1]


def test_two_runtimes_in_one_process_issue_the_same_message_ids(monkeypatch):
    sc = {"name": "ids", "mode": "strong", "rho": 2, "seed": 1,
          "graph": {"kind": "grid", "rows": 4, "cols": 4},
          "events": [{"do": "publish", "node": 5},
                     {"do": "lookup", "node": 0},
                     {"do": "fail", "edge": [5, 6]},
                     {"do": "move", "node": 10},
                     {"do": "lookup", "node": 15}]}
    _admitted, delivered = watch_deliveries(monkeypatch)
    runs = []
    for _ in range(2):
        delivered.clear()
        Runtime(sc).run()
        runs.append(sorted((m.dst, m.id) for m in delivered))
    assert runs[0] and runs[0] == runs[1]


# generated runs with failures, some strapped to operations, on three
# graph families in both modes
ONCE_RUNS = {
    "gen-grid": dict(graph_spec={"kind": "grid", "rows": 6, "cols": 6},
                     mode="strong", seed=2),
    "gen-ring": dict(graph_spec={"kind": "ring", "n": 14}, mode="strong",
                     seed=4),
    "gen-random-weak": dict(graph_spec={"kind": "random", "n": 20, "p": 0.2,
                                        "seed": 3}, mode="weak", seed=7),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(ONCE_RUNS))
def test_every_message_is_delivered_exactly_once(name, monkeypatch):
    if name in SCENARIOS:
        sc = scenario(name)
    else:
        sc = _gen_scenario(rho=2, ops=16, failures=6, horizon=2000,
                           move_frac=0.4, **ONCE_RUNS[name])
    admitted, delivered = watch_deliveries(monkeypatch)
    Runtime(sc).run()
    times = Counter(map(id, delivered))
    for m in admitted:
        # a message lost on a dead edge is never delivered; its resent
        # copy is a message of its own
        assert times[id(m)] == (0 if m.lost else 1), m
    assert len(delivered) == sum(not m.lost for m in admitted)
    if name == "ring-ext-local":
        assert any(m.lost for m in admitted)

"""Search candidates: the held grouped r-ball against the rebuilt one.

`Directory._ball` builds each node's ball per level, grouped by believed
leader and with its candidate order sorted, on first ask and holds it in
`Directory._balls`; only `Directory.reevaluate(u)` drops u's entries.
`Directory._candidates` reads the held ball, sorting again only when a
stale report thins a group. `oracles.brute_candidates` rebuilds the ball
on every call; the two must agree on every call, before and after beliefs
change and trees are repaired, with and without stale reports.
"""

import ast
import os

import pytest
from hypothesis import given, settings, strategies as st

from faultdir.cli import _gen_scenario
from faultdir.graph import edge_id
from faultdir.protocol import Directory, OpState
from faultdir.scenario import Runtime
from golden.corpus import GOLDEN, scenario as golden_scenario

from oracles import OPEN_PHASES, brute_candidates

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "faultdir")

# failure-heavy generated runs, both modes, with moves
FAILURE_RUNS = {
    f"{shape}-{mode}-{seed}": dict(graph_spec=spec, mode=mode, rho=2, seed=seed,
                                   ops=24, failures=10, horizon=3000,
                                   move_frac=0.3)
    for shape, spec in (("grid7", {"kind": "grid", "rows": 7, "cols": 7}),
                        ("ring14", {"kind": "ring", "n": 14}))
    for mode in ("strong", "weak") for seed in (0, 1)
}


def built(graph, mode="strong"):
    return Runtime({"name": "t", "mode": mode, "rho": 2, "seed": 0,
                    "graph": graph, "events": []})


def probe(d, u, level):
    """An op of u searching at `level`. It is registered with the directory
    as open, but not in the "up" phase, so belief refreshes do not advance
    it."""
    op = OpState(f"probe:{u}:{level}", "look", u, 0, 0)
    op.level = level
    op.phase = "probe"
    d.ops[op.id] = d.open[op.id] = op
    return op


def answer(d, op):
    """`d._candidates(op)` with each witness tuple as a list, the oracle's
    shape."""
    ready, waits = d._candidates(op)
    return [(near, led, list(xs)) for near, led, xs in ready], waits


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(FAILURE_RUNS))
def test_cached_candidates_equal_the_oracle_on_every_call(name, monkeypatch):
    real = Directory._candidates
    calls = []

    def checked(self, op):
        got = real(self, op)
        ready, waits = got
        assert ([(near, led, list(xs)) for near, led, xs in ready], waits) \
            == brute_candidates(self, op), (op.id, op.level)
        calls.append(op.id)
        return got

    monkeypatch.setattr(Directory, "_candidates", checked)
    sc = golden_scenario(name) if name in GOLDEN \
        else _gen_scenario(**FAILURE_RUNS[name])
    rt = Runtime(sc)
    rt.run()
    assert calls
    # a finished op lets go of its search state
    assert all(not op.contacted and not op.stale_of
               for op in rt.dir.ops.values() if op.phase == "done")
    # every ball still held at the end equals one built afresh
    held = {u: dict(balls) for u, balls in rt.dir._balls.items()}
    rt.dir._balls.clear()
    assert all(rt.dir._ball(u, i) == ball
               for u, balls in held.items() for i, ball in balls.items())


def test_stale_unknown_and_far_witnesses_wait():
    rt = built({"kind": "grid", "rows": 5, "cols": 5})
    d = rt.dir
    u, top = 12, rt.hier.top
    dist = rt.sim.trees[u].dist
    reach = 1 + 2 * rt.hier.sigma
    far = max(rt.g.nodes(), key=lambda z: (dist[z], z))
    assert dist[far] > reach

    # a level above the top that nobody has news of: every leader unknown
    op = probe(d, u, top + 1)
    ready, waits = d._candidates(op)
    assert ready == [] and waits == set(rt.g.nodes())

    # level 0 (r = 1): u's ball is u and its four neighbours
    ball = sorted(x for x in rt.g.nodes() if dist[x] <= 1)
    op = probe(d, u, 0)
    ready, waits = d._candidates(op)
    assert not waits and sorted(x for *_, xs in ready for x in xs) == ball
    # the held ball cannot be changed through an answer
    assert all(isinstance(xs, tuple) for *_, xs in ready)

    x_far, x_stale = ball[0], ball[-1]
    d.refresh_belief(u, x_far, 0, far)
    op.stale_of[0] = {x_stale: rt.ldir.believed_leader(u, x_stale, 0)}
    ready, waits = answer(d, op)
    assert waits == {x_far, x_stale}
    assert all(x_far not in xs and x_stale not in xs for *_, xs in ready)
    assert far not in [led for _, led, _ in ready]
    assert (ready, waits) == brute_candidates(d, op)

    # once contacted, a far leader is waited on only for its stale witnesses
    op.contacted[0] = {far}
    op.stale_of[0] = {}
    assert answer(d, op) == brute_candidates(d, op) and not answer(d, op)[1]
    op.stale_of[0] = {x_far: far}
    assert answer(d, op) == brute_candidates(d, op)
    assert answer(d, op)[1] == {x_far}


def test_cached_candidates_follow_random_beliefs():
    """Random belief news, some of it about far leaders and some on a level
    above the top that has no build-time leaders, and random edge kills
    with the trees repaired, interleaved with queries carrying random
    stale reports (or none) and contacted leaders. A probe is kept per
    issuer and level, so later queries read a ball held across news. Each
    run ends with an issuer told of a new leader nearby, which it
    contacts, and a kill of the last edge on its tree path to that
    leader. The runs must reach both `_candidates` paths, no stale report
    and some, and a contacted leader that a repair has since made far."""
    reached = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graph=st.sampled_from([{"kind": "ring", "n": 24},
                                  {"kind": "grid", "rows": 4, "cols": 5}]),
           mode=st.sampled_from(["strong", "weak"]), data=st.data())
    def run(graph, mode, data):
        # on the ring a kill sends a leader round the other way
        rt = built(graph, mode)
        d = rt.dir
        nodes = rt.g.nodes()
        node = st.sampled_from(nodes)
        # few issuers and levels, so that probes see news and repairs
        issuer = st.sampled_from(data.draw(st.lists(node, min_size=1,
                                                    max_size=2, unique=True)))
        level = st.sampled_from(data.draw(st.lists(
            st.sampled_from(range(0, rt.hier.top + 2)), min_size=1,
            max_size=2, unique=True)))

        def ball(u, i):
            dist = rt.sim.trees[u].dist
            return [x for x in nodes if dist[x] <= rt.hier.radius(i)]

        def kill(e):
            rt.g.kill_edge(e)
            # the root's repair checks for a layer extension, which needs
            # a failure record; its tree is left as it was
            for w in nodes:
                if w != rt.hier.root:
                    rt.engine._repair_tree(w, e, 0)

        def query(u, i):
            op = d.ops.get(f"probe:{u}:{i}") or probe(d, u, i)
            contacted = op.contacted.setdefault(i, set())
            # some of the ball's leaders, near or far, or anyone
            leaders = {rt.ldir.believed_leader(u, x, i) for x in ball(u, i)}
            contacted.update(data.draw(st.lists(st.sampled_from(
                sorted(leaders - {None}) or nodes) | node, max_size=2)))
            stale = {}
            if data.draw(st.booleans()):
                for x in data.draw(st.lists(st.sampled_from(ball(u, i)),
                                            min_size=1, max_size=6)):
                    # stale at the believed leader, which hides x, or
                    # elsewhere
                    led = rt.ldir.believed_leader(u, x, i)
                    stale[x] = led if data.draw(st.booleans()) \
                        else data.draw(node)
            op.stale_of[i] = stale
            reached.add("stale" if stale else "fresh")
            ready, waits = answer(d, op)
            assert (ready, waits) == brute_candidates(d, op)
            if data.draw(st.booleans()):
                contacted.clear()
            if ready:
                # the op moves on to a leader of its answer
                contacted.add(data.draw(st.sampled_from(ready))[1])
            return op

        for _ in range(data.draw(st.integers(1, 12))):
            step = data.draw(st.sampled_from(["news", "kill", "query",
                                              "query"]))
            if step == "news":
                # about a node in u's ball, so that it reaches u's answers
                u, i = data.draw(issuer), data.draw(level)
                d.refresh_belief(u, data.draw(st.sampled_from(ball(u, i))), i,
                                 data.draw(node))
            elif step == "kill":
                cut = [e for e in rt.g.alive_edges()
                       if not rt.g.would_disconnect(e)]
                if cut:
                    kill(data.draw(st.sampled_from(cut)))
            else:
                query(data.draw(issuer), data.draw(level))

        u, i = data.draw(issuer), data.draw(level)
        tree = rt.sim.trees[u]
        r = rt.hier.radius(i)
        reach = r + 2 * rt.hier.sigma * r
        led = data.draw(st.sampled_from(
            [y for y in nodes if 0 < tree.dist[y] <= reach]))
        d.refresh_belief(u, u, i, led)
        op = query(u, i)
        op.contacted[i].add(led)
        e = edge_id(led, tree.parent[led])
        if not rt.g.would_disconnect(e):
            kill(e)
        if led in [y for y, _ in d._ball(u, i)[2]]:
            reached.add("contacted made far")
        query(u, i)

    run()
    assert reached == {"fresh", "stale", "contacted made far"}


def test_reevaluate_drops_only_the_nodes_own_balls():
    rt = built({"kind": "grid", "rows": 5, "cols": 5})
    d = rt.dir
    ops = {u: probe(d, u, 1) for u in rt.g.nodes()}
    for op in ops.values():
        d._candidates(op)
    held = {u: dict(balls) for u, balls in d._balls.items()}
    assert sorted(held) == rt.g.nodes()
    u = 12
    x = answer(d, ops[u])[0][0][2][0]
    d.refresh_belief(u, x, 1, rt.hier.root if x != rt.hier.root else u)
    assert u not in d._balls
    assert all(d._balls[w][i] is ball for w, balls in held.items() if w != u
               for i, ball in balls.items())
    assert answer(d, ops[u]) == brute_candidates(d, ops[u])


def test_belief_news_and_tree_repair_change_the_next_answer():
    rt = built({"kind": "grid", "rows": 5, "cols": 5})
    d = rt.dir
    u = next(x for x in rt.g.nodes() if x != rt.hier.root)
    op = probe(d, u, 0)
    before = answer(d, op)
    x = before[0][0][2][0]
    d.refresh_belief(u, x, 0, u if before[0][0][1] != u else rt.hier.root)
    after = answer(d, op)
    assert after != before and after == brute_candidates(d, op)

    # cut the tree edge from u to one of its ball's neighbours
    v = min(z for z, p in rt.sim.trees[u].parent.items() if p == u)
    e = edge_id(u, v)
    rt.g.kill_edge(e)
    rt.engine._repair_tree(u, e, 0)
    repaired = answer(d, op)
    assert repaired != after and repaired == brute_candidates(d, op)
    assert v not in [z for *_, xs in repaired[0] for z in xs]


def sites(attr, calls=False, drops=False):
    """(file, function) of every statement in src that writes into an
    attribute named `attr` (an assignment or deletion through it, or a
    mutating dict method called on it), or with `drops`, only those that
    delete from it, or with `calls`, that calls a method named `attr`."""
    mutators = {"pop", "popitem", "clear"} if drops \
        else {"setdefault", "update", "pop", "popitem", "clear"}
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                method = isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute)
                if calls:
                    if method and node.func.attr == attr:
                        found.add((name, fn.name))
                    continue
                targets = []
                if isinstance(node, ast.Delete) or isinstance(
                        node, ast.Assign) and not drops:
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                        and not drops:
                    targets = [node.target]
                elif method and node.func.attr in mutators:
                    targets = [node.func.value]
                for t in targets:
                    if any(isinstance(n, ast.Attribute) and n.attr == attr
                           for n in ast.walk(t)):
                        found.add((name, fn.name))
    return found


def test_beliefs_and_tree_distances_have_one_writer_each():
    """A held ball is dropped only by `reevaluate`, which the two writers'
    only callers run right after writing; a new writer or caller would
    leave it stale. The held balls are written only where `_ball` builds
    them and dropped only in `reevaluate`."""
    assert sites("news") == {("partition.py", "__init__"),
                             ("partition.py", "set_belief")}
    assert sites("dist") == {("graph.py", "__init__"),
                             ("graph.py", "repair")}
    assert sites("set_belief", calls=True) == {("protocol.py",
                                                "refresh_belief")}
    assert sites("repair", calls=True) == {("failure.py", "_repair_tree")}
    assert sites("_balls") == {("protocol.py", "__init__"),
                               ("protocol.py", "_ball"),
                               ("protocol.py", "reevaluate")}
    assert sites("_balls", drops=True) == {("protocol.py", "reevaluate")}


def literals(expr):
    """The values `expr` can take when it picks among literals (a constant
    or a conditional over constants); otherwise [None]."""
    if isinstance(expr, ast.Constant):
        return [expr.value]
    if isinstance(expr, ast.IfExp):
        return literals(expr.body) + literals(expr.orelse)
    return [None]


def test_op_lifecycle_has_one_closer():
    """Only `_close` closes an op: it is the one writer of the closed
    phases and, with `_new_op`, of the open-op index that `reevaluate`
    and quiescence read."""
    # the writes of `.phase` that may write a phase other than an open
    # one; `_close` writes its argument
    closers = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Attribute) and t.attr == "phase"
                        for t in node.targets)):
                    continue
                if not set(literals(node.value)) <= set(OPEN_PHASES):
                    closers.add((name, fn.name))
    assert closers == {("protocol.py", "_close")}
    assert sites("_close", calls=True) == {("protocol.py", "_complete"),
                                           ("protocol.py", "_reject")}
    assert sites("open") == {("protocol.py", "__init__"),
                             ("protocol.py", "_new_op"),
                             ("protocol.py", "_close")}

"""Search candidates: the held grouped r-ball against the rebuilt one.

`Directory._candidates` keeps the issuer's ball, grouped by believed
leader, on the searching op for its current level; only
`Directory.reevaluate` drops it while the op is open.
`oracles.brute_candidates` rebuilds the ball on every call; the two must
agree on every call, before and after beliefs change and trees are
repaired.
"""

import ast
import os

import pytest
from hypothesis import given, settings, strategies as st

from faultdir.cli import _gen_scenario
from faultdir.graph import edge_id
from faultdir.protocol import Directory, OpState
from faultdir.scenario import Runtime
from golden.regen import SCENARIOS as GOLDEN, scenario as golden_scenario

from oracles import brute_candidates

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
    """An op of u searching at `level`. It is registered with the directory,
    so `reevaluate(u)` drops its ball, but not in the "up" phase, so belief
    refreshes do not advance it."""
    op = OpState(f"probe:{u}:{level}", "look", u, 0, 0)
    op.level = level
    op.phase = "probe"
    d.ops[op.id] = op
    return op


def answer(d, op):
    """`d._candidates(op)` with each witness tuple as a list, the oracle's
    shape."""
    ready, waits = d._candidates(op)
    return [(key, led, list(xs)) for key, led, xs in ready], waits


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(FAILURE_RUNS))
def test_cached_candidates_equal_the_oracle_on_every_call(name, monkeypatch):
    real = Directory._candidates
    calls = []

    def checked(self, op):
        got = real(self, op)
        ready, waits = got
        assert ([(key, led, list(xs)) for key, led, xs in ready], waits) \
            == brute_candidates(self, op), (op.id, op.level)
        calls.append(op.id)
        return got

    monkeypatch.setattr(Directory, "_candidates", checked)
    sc = golden_scenario(name) if name in GOLDEN \
        else _gen_scenario(**FAILURE_RUNS[name])
    rt = Runtime(sc)
    try:
        rt.run()
    except RuntimeError as exc:
        # the known path-state defect ends some runs early; every call
        # made up to there was still checked
        assert str(exc).startswith("path broken"), exc
    assert calls
    # a finished op lets go of its search state
    assert all(op.ball is None and not op.contacted and not op.stale_of
               for op in rt.dir.ops.values() if op.phase == "done")


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["strong", "weak"]), data=st.data())
def test_cached_candidates_follow_random_beliefs(mode, data):
    """Random belief news, some of it about far leaders and some on a level
    above the top that has no build-time leaders, interleaved with queries
    carrying random stale reports and contacted leaders. A probe is kept
    per issuer and level, so later queries read a ball held across news."""
    rt = built({"kind": "grid", "rows": 4, "cols": 5}, mode)
    d = rt.dir
    nodes = rt.g.nodes()
    levels = list(range(0, rt.hier.top + 2))
    node, level = st.sampled_from(nodes), st.sampled_from(levels)
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            d.refresh_belief(data.draw(node), data.draw(node), data.draw(level),
                             data.draw(node))
            continue
        u, i = data.draw(node), data.draw(level)
        op = d.ops.get(f"probe:{u}:{i}") or probe(d, u, i)
        op.contacted[i] = set(data.draw(st.lists(node, max_size=3)))
        stale = {}
        for x in data.draw(st.lists(node, max_size=6)):
            # stale at the believed leader, which hides x, or elsewhere
            led = rt.ldir.believed_leader(op.issuer, x, i)
            stale[x] = led if data.draw(st.booleans()) else data.draw(node)
        op.stale_of[i] = stale
        assert answer(d, op) == brute_candidates(d, op)


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


def sites(attr, calls=False):
    """(file, function) of every statement in src that writes into an
    attribute named `attr` (an assignment or deletion through it, or a
    mutating dict method called on it), or with `calls`, that calls a
    method named `attr`."""
    mutators = {"setdefault", "update", "pop", "popitem", "clear"}
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
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
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
    leave it stale."""
    assert sites("news") == {("partition.py", "__init__"),
                             ("partition.py", "set_belief")}
    assert sites("dist") == {("graph.py", "__init__"),
                             ("graph.py", "repair")}
    assert sites("set_belief", calls=True) == {("protocol.py",
                                                "refresh_belief")}
    assert sites("repair", calls=True) == {("failure.py", "_repair_tree")}

"""Acceptance gate: one test per claimed guarantee, exact arithmetic.

Each test prints a single [PASS] line when its criterion holds; any
violation fails the test with the offending instances in the message.
"""

import functools
import json
import subprocess
import sys
from fractions import Fraction

from faultdir.bounds import check_bounds
from faultdir.cli import _gen_scenario
from faultdir.partition import build_hierarchy
from faultdir.scenario import Runtime, build_graph

from controls import CONTROLS, base_record, doctored
from oracles import check_spt
from test_failure import killable_edges, oracle_extension, sequential_kills


def ok(num, text):
    print(f"[PASS] criterion-{num:02d}: {text}")


def line_of(rec_or_rep, formula):
    rep = rec_or_rep if hasattr(rec_or_rep, "lines") else check_bounds(rec_or_rep)
    for line in rep.lines:
        if line.formula == formula:
            return line
    return None


def assert_line(rec, formula, ctx=""):
    line = line_of(rec, formula)
    assert line is not None, f"{ctx}: no {formula} line"
    assert line.passed, f"{ctx}: {formula} failed: {line.detail}"
    return line


# twenty-four graphs, n capped at 64, both modes, two densities of rho
GRAPHS = [
    {"kind": "ring", "n": 8}, {"kind": "ring", "n": 10},
    {"kind": "ring", "n": 12}, {"kind": "ring", "n": 16},
    {"kind": "ring", "n": 24}, {"kind": "ring", "n": 32},
    {"kind": "path", "n": 9}, {"kind": "path", "n": 15},
    {"kind": "path", "n": 27}, {"kind": "path", "n": 33},
    {"kind": "grid", "rows": 3, "cols": 3},
    {"kind": "grid", "rows": 3, "cols": 4},
    {"kind": "grid", "rows": 4, "cols": 4},
    {"kind": "grid", "rows": 4, "cols": 5},
    {"kind": "grid", "rows": 5, "cols": 5},
    {"kind": "random", "n": 10, "p": 0.4, "seed": 1},
    {"kind": "random", "n": 14, "p": 0.3, "seed": 2},
    {"kind": "random", "n": 16, "p": 0.25, "seed": 3},
    {"kind": "random", "n": 20, "p": 0.2, "seed": 4},
    {"kind": "random", "n": 24, "p": 0.2, "seed": 5},
    {"kind": "random", "n": 32, "p": 0.15, "seed": 6},
    {"kind": "random", "n": 40, "p": 0.12, "seed": 7},
    {"kind": "random", "n": 48, "p": 0.1, "seed": 8},
    {"kind": "random", "n": 64, "p": 0.08, "seed": 9},
]


def graph_params(k):
    mode = "strong" if k % 2 == 0 else "weak"
    rho = 2 if k % 3 else 3
    return mode, rho


@functools.lru_cache(maxsize=None)
def hierarchy_stats():
    out = []
    for k, spec in enumerate(GRAPHS):
        mode, rho = graph_params(k)
        g = build_graph(spec)
        hier = build_hierarchy(g, rho=rho, mode=mode, seed=k)
        chk = hier.pre_check
        out.append({"spec": spec, "mode": mode, "rho": rho, "seed": k,
                    "n": len(g.nodes()), "ok": chk["ok"],
                    "findings": chk.get("findings"),
                    "sigma": hier.sigma, "overlap": hier.overlap,
                    "top": hier.top})
    return out


def test_criterion_01_partition_invariants_across_graphs():
    stats = hierarchy_stats()
    assert len(stats) >= 20
    bad = [s for s in stats if not s["ok"]]
    assert not bad, bad
    assert all(s["n"] <= 64 for s in stats)
    assert all(s["sigma"] >= 1 and s["overlap"] >= 1 for s in stats)
    ok(1, f"{len(stats)} hierarchies valid; stretch in "
          f"[{min(s['sigma'] for s in stats)}, "
          f"{max(s['sigma'] for s in stats)}], overlap up to "
          f"{max(s['overlap'] for s in stats)}")


@functools.lru_cache(maxsize=None)
def publish_records():
    out = []
    for k, spec in enumerate(GRAPHS[:12]):
        mode, rho = graph_params(k)
        g = build_graph(spec)
        node = sorted(g.nodes())[k % len(g.nodes())]
        rec = Runtime({"name": f"pub{k}", "mode": mode, "rho": rho,
                       "seed": k, "graph": spec,
                       "events": [{"t": 0, "do": "publish",
                                   "node": node}]}).run()
        out.append(rec)
    return out


def test_criterion_02_publish_path_length():
    recs = list(publish_records())
    # the same inequality must hold on every run of the suite, so sweep
    # the cached records from the heavier criteria too
    recs += [base_record(n) for n in ("clean", "fail", "weak")]
    recs += [r for r, _ in schedule_records()]
    for rec in recs:
        if rec["publish"] is None:
            continue
        assert_line(rec, "publish-length", rec["scenario"]["name"])
    # reuse: the recorded stretch/overlap drive the bound values
    st = hierarchy_stats()[0]
    rec0 = publish_records()[0]
    assert Fraction(rec0["sigma"]) == st["sigma"]
    assert rec0["overlap"] == st["overlap"]
    ok(2, f"path length within bound on {len(recs)} runs; measured "
          f"constants reused from the partition sweep")


def test_criterion_03_pair_distances_pre_and_post():
    checked_pre = checked_post = 0
    scens = []
    for k, spec in enumerate(GRAPHS):
        if len(scens) == 8:
            break
        kills = sequential_kills(spec, 1)
        if not kills:
            continue  # every edge is a bridge, nothing survivable to cut
        mode, rho = graph_params(k)
        g = build_graph(spec)
        nodes = sorted(g.nodes())
        events = [{"t": 0, "do": "publish", "node": nodes[0]},
                  {"t": 100, "do": "move", "node": nodes[len(nodes) // 2]},
                  {"t": 3000, "do": "fail", "edge": list(kills[0])},
                  {"t": 9000, "do": "move", "node": nodes[-1]}]
        scens.append({"name": f"pair{k}", "mode": mode, "rho": rho,
                      "seed": k, "graph": spec, "events": events})
    recs = [Runtime(sc).run() for sc in scens] + list(publish_records())
    for rec in recs:
        assert_line(rec, "pair-distance", rec["scenario"]["name"])
        for row in rec["path"]:
            if row["dist_next"] is None:
                continue
            if row["pair_f"] == 0:
                checked_pre += 1
            else:
                checked_post += 1
    assert checked_pre and checked_post, (checked_pre, checked_post)
    ok(3, f"{checked_pre} quiet links and {checked_post} rebuilt links "
          f"within their distance bounds")


@functools.lru_cache(maxsize=None)
def schedule_records():
    """Lookup-heavy randomized schedules with failures, some of them
    injected while a walk is in the air."""
    out = []
    shapes = [{"kind": "random", "n": 12, "p": 0.35},
              {"kind": "random", "n": 16, "p": 0.25},
              {"kind": "random", "n": 20, "p": 0.2},
              {"kind": "ring", "n": 14},
              {"kind": "grid", "rows": 4, "cols": 4}]
    for k in range(26):
        spec = dict(shapes[k % len(shapes)])
        if spec["kind"] == "random":
            spec["seed"] = 50 + k
        mode = "strong" if k % 2 == 0 else "weak"
        sc = _gen_scenario(spec, mode, 2, 1000 + k, ops=45,
                           failures=2, horizon=10 ** 6, move_frac=0.12)
        out.append((Runtime(sc).run(), sc))
    return out


def test_criterion_04_lookup_linearization_at_scale():
    lookups = concurrent = 0
    for rec, sc in schedule_records():
        assert_line(rec, "completion", sc["name"])
        assert_line(rec, "lookup-linearization", sc["name"])
        for op in rec["ops"]:
            if op["kind"] == "look":
                lookups += 1
                if op["transient"] or op["stale_walk"]:
                    concurrent += 1
        assert any(ev.get("fail_during") for ev in sc["events"]) or \
            any(ev["do"] == "fail" for ev in sc["events"])
    assert lookups >= 1000, lookups
    assert concurrent >= 10, concurrent
    ok(4, f"{lookups} lookups all linearized, {concurrent} of them "
          f"overlapping a failure or walking stale links")


def test_criterion_05_lookup_cost_against_distance():
    searched = after_failure = 0
    worst = Fraction(0)
    for rec, sc in schedule_records():
        assert_line(rec, "search-level", sc["name"])
        total = assert_line(rec, "lookup-total", sc["name"])
        line = assert_line(rec, "lookup-ratio", sc["name"])
        if line.observed != "-":
            worst = max(worst, Fraction(line.observed))
        found = [op for op in rec["ops"] if op["kind"] == "look"
                 and op["phase"] == "done" and op["discovery_level"] is not None]
        # every found lookup is checked, failure-coupled ones included
        checked = 0 if total.observed == "-" else int(
            total.detail.split(" checked")[0])
        assert checked == len(found), (sc["name"], total.detail)
        searched += len(found)
        after_failure += sum(op["f_at_complete"] > 0 for op in found)
    assert searched >= 700
    ok(5, f"{searched} lookups within the cost formula, {after_failure} of "
          f"them after a failure (worst ratio {worst}, over those that saw "
          f"none)")


def test_criterion_06_move_sequence_competitive_ratio():
    n = 18
    movers = [1, 10, 4, 14, 7, 17, 2, 12, 5, 15]
    base = [{"t": 0, "do": "publish", "node": 0}]
    base += [{"t": 500 * (k + 1), "do": "move", "node": m}
             for k, m in enumerate(movers)]
    quiet = Runtime({"name": "moves-quiet", "mode": "strong", "rho": 2,
                     "seed": 2, "graph": {"kind": "ring", "n": n},
                     "events": base}).run()
    line_q = assert_line(quiet, "move-ratio", "quiet")

    spec = {"kind": "random", "n": 16, "p": 0.3, "seed": 12}
    kills = sequential_kills(spec, 2)
    g = build_graph(spec)
    nodes = sorted(g.nodes())
    m = len(nodes)
    ev = [{"t": 0, "do": "publish", "node": nodes[0]}]
    prev = nodes[0]
    t = 0
    for k in range(10):
        if k in (3, 7):
            t += 700
            ev.append({"t": t, "do": "fail", "edge": list(kills.pop(0))})
        node = nodes[(7 * k + 3) % m]
        if node == prev:
            node = nodes[(7 * k + 4) % m]
        prev = node
        t += 900
        ev.append({"t": t, "do": "move", "node": node})
    faulty = Runtime({"name": "moves-faulty", "mode": "strong",
                      "rho": 2, "seed": 12, "graph": spec,
                      "events": ev}).run()
    assert len([o for o in faulty["ops"] if o["kind"] == "move"]) >= 8
    line_f = assert_line(faulty, "move-ratio", "faulty")
    ok(6, f"10 quiet relocations at ratio {line_q.observed} (bound "
          f"{line_q.bound}); 10 relocations across 2 failures at "
          f"{line_f.observed} (bound {line_f.bound})")


SWEEPS = [
    ({"kind": "ring", "n": 12}, "strong", 2, 3),
    ({"kind": "grid", "rows": 3, "cols": 4}, "strong", 2, 5),
    ({"kind": "random", "n": 14, "p": 0.35, "seed": 5}, "strong", 2, 0),
    ({"kind": "random", "n": 12, "p": 0.4, "seed": 2}, "weak", 2, 0),
    ({"kind": "ring", "n": 9}, "weak", 3, 4),
]


@functools.lru_cache(maxsize=None)
def sweep_records():
    """Every survivable single edge failure on each sweep graph."""
    out = []
    for spec, mode, rho, pub in SWEEPS:
        pre = Runtime({"name": "pre", "mode": mode, "rho": rho, "seed": 7,
                       "graph": spec,
                       "events": [{"t": 0, "do": "publish", "node": pub}]})
        pre.run()
        for e in killable_edges(spec):
            sc = {"name": f"sweep-{spec['kind']}-{e}", "mode": mode,
                  "rho": rho, "seed": 7, "graph": spec,
                  "events": [{"t": 0, "do": "publish", "node": pub},
                             {"t": 100, "do": "fail", "edge": list(e)},
                             {"t": 10 ** 5, "do": "lookup",
                              "node": (pub + 1) % len(pre.g.nodes())}]}
            rt = Runtime(sc)
            rt.run()
            out.append((rt, pre, spec, e))
    return out


def test_criterion_07_single_failure_sweep_against_oracles():
    n_ext = n_runs = 0
    for rt, pre, spec, e in sweep_records():
        n_runs += 1
        rec = rt.engine.failures[0]
        record = rt.record()
        ctx = f"{spec} kill {e}"
        h = rec["top"]
        kids = [s for s in rec["splits"]
                if s["child"] is not None and s["level"] < h]
        limit = h if rt.hier.mode == "strong" else rt.hier.overlap * h
        assert len(kids) <= limit, f"{ctx}: {len(kids)} splits > {limit}"
        families = {}
        for s in kids:
            families[s["parent"]] = families.get(s["parent"], 1) + 1
        assert all(v <= 2 for v in families.values()), ctx
        assert record["partition_post"]["ok"], ctx
        want = oracle_extension(pre, spec, e)
        chk = rec["ext_check"]
        if want is None:
            assert chk is None and rec["extension"] is None, ctx
        else:
            assert chk is not None, ctx
            assert chk["crossing"] == want["crossing"], ctx
            assert Fraction(chk["far_dist"]) == want["far_dist"], ctx
            assert Fraction(chk["threshold"]) == want["threshold"], ctx
            assert chk["triggered"] == want["triggered"], ctx
            if want["triggered"]:
                n_ext += 1
                assert chk["h_new"] == want["h_new"], ctx
                assert rt.hier.top == want["h_new"], ctx
        assert_line(record, "split-count", ctx)
        assert_line(record, "extension-rule", ctx)
    assert n_ext >= 3, "sweep never widened the hierarchy"
    ok(7, f"{n_runs} exhaustive single-failure runs match the split and "
          f"widening oracles ({n_ext} widenings)")


def test_criterion_08_tree_repair_equals_recompute():
    spec = {"kind": "random", "n": 10, "p": 0.35, "seed": 5}
    singles = 0
    for e in killable_edges(spec):
        rt = Runtime({"name": "spt", "mode": "strong", "rho": 2, "seed": 0,
                      "graph": spec,
                      "events": [{"t": 0, "do": "publish", "node": 0},
                                 {"t": 100, "do": "fail", "edge": list(e)}]})
        rt.run()
        for root in sorted(rt.g.nodes()):
            check_spt(rt.g, rt.sim.trees[root])
        singles += 1

    import random as _r
    multi = 0
    for seed in range(100):
        rng = _r.Random(seed)
        spec = {"kind": "random", "n": 10 + (seed % 4),
                "p": 0.35, "seed": seed % 17}
        scratch = build_graph(spec)
        kills = []
        for _ in range(rng.randint(2, 5)):
            cands = [e for e in scratch.alive_edges()
                     if not scratch.would_disconnect(e)]
            if not cands:
                break
            e = rng.choice(sorted(cands))
            scratch.kill_edge(e)
            kills.append(e)
        events = [{"t": 0, "do": "publish", "node": 0}]
        events += [{"t": 200 * (k + 1), "do": "fail", "edge": list(e)}
                   for k, e in enumerate(kills)]
        rt = Runtime({"name": f"spt{seed}", "mode": "strong", "rho": 2,
                      "seed": seed, "graph": spec, "events": events})
        rt.run()
        for root in sorted(rt.g.nodes()):
            check_spt(rt.g, rt.sim.trees[root])
        multi += 1
    assert multi >= 100
    ok(8, f"repaired trees equal recomputed trees on {singles} exhaustive "
          f"single failures and {multi} random multi-failure runs")


def test_criterion_09_random_schedules_complete_with_intact_chain():
    n_runs = 0
    failures_seen = 0
    for rec, sc in schedule_records():
        assert_line(rec, "completion", sc["name"])
        assert_line(rec, "path-chain", sc["name"])
        failures_seen += len(rec["failures"])
        n_runs += 1
    shapes = [{"kind": "random", "n": 11, "p": 0.4},
              {"kind": "ring", "n": 10},
              {"kind": "grid", "rows": 3, "cols": 4}]
    for k in range(78):
        spec = dict(shapes[k % len(shapes)])
        if spec["kind"] == "random":
            spec["seed"] = 300 + k
        mode = "weak" if k % 2 else "strong"
        sc = _gen_scenario(spec, mode, 2, 7000 + k, ops=6,
                           failures=min(5, 2 + k % 4), horizon=10 ** 5)
        rec = Runtime(sc).run()
        assert_line(rec, "completion", sc["name"])
        assert_line(rec, "path-chain", sc["name"])
        failures_seen += len(rec["failures"])
        n_runs += 1
    assert n_runs >= 100
    ok(9, f"{n_runs} randomized schedules ({failures_seen} failures) all "
          f"completed with a single intact chain")


def test_criterion_10_repair_message_shapes():
    n_checked = 0
    for rt, _pre, spec, e in sweep_records():
        record = rt.record()
        ctx = f"{spec} kill {e}"
        for formula in ("recluster-broadcast", "recluster-distance",
                        "recluster-transfer", "path-update-shape",
                        "preprocess-volume", "preprocess-distance"):
            line = line_of(record, formula)
            if line is not None:
                assert line.passed, f"{ctx}: {formula}: {line.detail}"
        sc_line = line_of(record, "sc-update-shape")
        if sc_line is not None:
            assert sc_line.passed, ctx
        n_checked += 1
    import pathlib
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    for token in ("recluster-broadcast", "path-update-shape", "a = 2",
                  "b = 16"):
        assert token in readme, f"constant {token!r} not documented"
    ok(10, f"message counts and travel distances within shape on "
           f"{n_checked} single-failure runs; constants documented")


CI_SCENARIOS = ["clean", "fail", "weak"]


def test_criterion_11_byte_identical_replays(tmp_path):
    for name in CI_SCENARIOS:
        logs = set()
        recs = set()
        for _ in range(3):
            sc = json.loads(json.dumps(_ci_scenario(name)))
            rt = Runtime(sc)
            rt.run()
            logs.add(rt.sim.dump_events())
            recs.add(json.dumps(rt.record(), sort_keys=True))
        assert len(logs) == 1, f"{name}: event logs diverged"
        assert len(recs) == 1, f"{name}: records diverged"
    # and across interpreter processes, where hash seeds differ
    scen = tmp_path / "ci.json"
    scen.write_text(json.dumps(_ci_scenario("fail")))
    blobs = set()
    for k in range(2):
        out_dir = tmp_path / f"run{k}"
        subprocess.run([sys.executable, "-m", "faultdir.cli", "run",
                        str(scen), "--out-dir", str(out_dir)],
                       capture_output=True, text=True, check=True)
        blobs.add((out_dir / "events.jsonl").read_bytes())
    assert len(blobs) == 1, "event log depends on interpreter state"
    ok(11, f"3x replays byte-identical on {len(CI_SCENARIOS)} scenarios, "
           f"stable across processes")


def _ci_scenario(name):
    from controls import WEAK_EDGES
    if name == "clean":
        return {"name": "ci-clean", "mode": "strong", "rho": 2, "seed": 5,
                "graph": {"kind": "ring", "n": 16},
                "events": [{"t": 0, "do": "publish", "node": 2},
                           {"t": 100, "do": "lookup", "node": 9},
                           {"t": 400, "do": "move", "node": 12},
                           {"t": 900, "do": "lookup", "node": 5}]}
    if name == "fail":
        return {"name": "ci-fail", "mode": "strong", "rho": 2, "seed": 5,
                "graph": {"kind": "ring", "n": 12},
                "events": [{"t": 0, "do": "publish", "node": 3},
                           {"t": 200, "do": "fail", "edge": [3, 4]},
                           {"t": 1200, "do": "lookup", "node": 9},
                           {"t": 2500, "do": "move", "node": 7}]}
    return {"name": "ci-weak", "mode": "weak", "rho": 2, "seed": 27,
            "graph": {"kind": "edges", "edges": WEAK_EDGES},
            "events": [{"t": 0, "do": "publish", "node": 0},
                       {"t": 400, "do": "fail", "edge": [3, 12]},
                       {"t": 1500, "do": "lookup", "node": 7},
                       {"t": 3000, "do": "move", "node": 9}]}


def test_criterion_12_negative_controls():
    hit = []
    for formula, base, doctor in CONTROLS:
        rec = doctored(base, doctor)
        rep = check_bounds(rec)
        assert not rep.ok, f"{formula}: planted violation went unnoticed"
        bad = {l.formula for l in rep.failed()}
        assert formula in bad, f"{formula}: wrong line failed ({bad})"
        hit.append(formula)
    assert len(hit) == len(CONTROLS) >= 20
    ok(12, f"all {len(hit)} checkers reject their planted violations")

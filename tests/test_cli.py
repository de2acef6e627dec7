"""Command line round trips."""

import csv
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from faultdir import cli
from faultdir.bounds import RECORD_SCHEMA
from faultdir.cli import _gen_scenario, _graph_spec, console, main
from faultdir.scenario import Runtime, validate_scenario
from faultdir.sim import EventLimitExceeded

from golden.corpus import scenario


def test_graph_spec_parsing():
    assert _graph_spec("ring:12") == {"kind": "ring", "n": 12}
    assert _graph_spec("grid:4x5") == {"kind": "grid", "rows": 4, "cols": 5}
    assert _graph_spec("path:9") == {"kind": "path", "n": 9}
    assert _graph_spec("random:16:0.3:7") == {"kind": "random", "n": 16,
                                              "p": 0.3, "seed": 7}


BAD_SPECS = ["random:16", "ring", "ring:2", "path:1", "grid:1x1",
             "random:16:0.3:1:9", "grid:3", "ring:x", "torus:4",
             "random:16:0.01"]


@pytest.mark.parametrize("cmd", ["gen", "partition-stats"])
@pytest.mark.parametrize("spec", BAD_SPECS)
def test_bad_graph_spec_is_a_usage_error(spec, cmd, capsys):
    # missing or extra fields, a graph build_graph refuses (ring:2, a
    # random graph it cannot draw connected) or one under two nodes
    with pytest.raises(SystemExit) as exc:
        console([cmd, "--graph", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: faultdir")
    assert f"argument --graph: bad graph spec {spec!r}" in err
    assert "Traceback" not in err


def test_readme_random_spec_without_seed(tmp_path, capsys):
    # the exact spec the README documents; the seed defaults to 0
    spec = _graph_spec("random:16:0.3")
    assert spec == {"kind": "random", "n": 16, "p": 0.3, "seed": 0}
    scen_path = tmp_path / "scenario.json"
    assert main(["gen", "--graph", "random:16:0.3", "--mode", "strong",
                 "--rho", "2", "--seed", "7", "--ops", "20", "--failures",
                 "2", "--out", str(scen_path)]) == 0
    sc = json.loads(scen_path.read_text())
    assert sc["graph"] == spec
    validate_scenario(sc)
    capsys.readouterr()
    assert main(["partition-stats", "--graph", "random:16:0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 16


def test_gen_scenarios_are_valid_and_seeded(tmp_path):
    for seed in range(6):
        sc = _gen_scenario({"kind": "random", "n": 14, "p": 0.3, "seed": 2},
                           "strong", 2, seed, ops=6, failures=2, horizon=4000)
        validate_scenario(sc)
    a = _gen_scenario({"kind": "ring", "n": 10}, "weak", 2, 5, 4, 1, 1000)
    b = _gen_scenario({"kind": "ring", "n": 10}, "weak", 2, 5, 4, 1, 1000)
    assert a == b


def test_run_then_check_round_trip(tmp_path):
    scen_path = tmp_path / "scen.json"
    out_dir = tmp_path / "art"
    rc = main(["gen", "--graph", "ring:12", "--seed", "4", "--ops", "6",
               "--failures", "1", "--out", str(scen_path)])
    assert rc == 0 and scen_path.exists()

    rc = main(["run", str(scen_path), "--out-dir", str(out_dir)])
    assert rc == 0
    record = json.loads((out_dir / "record.json").read_text())
    assert record["ops"] and all(o["phase"] == "done" for o in record["ops"])
    events = (out_dir / "events.jsonl").read_text().strip().splitlines()
    assert len(events) == record["event_count"]
    with open(out_dir / "ledger.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {"bucket", "messages", "cost"} <= set(rows[0])

    rc = main(["check", str(out_dir / "record.json")])
    assert rc == 0
    report = json.loads((out_dir / "bound_report.json").read_text())
    assert report["ok"] is True
    assert all(line["passed"] for line in report["lines"])


@pytest.fixture(scope="module")
def grid_fail(tmp_path_factory):
    """The `grid-fail` golden run through `faultdir run`: its artifact
    directory and its record."""
    out = tmp_path_factory.mktemp("grid-fail")
    scen_path = out / "scen.json"
    scen_path.write_text(json.dumps(scenario("grid-fail")))
    assert main(["run", str(scen_path), "--out-dir", str(out)]) == 0
    return out, json.loads((out / "record.json").read_text())


def test_ledger_csv_holds_the_record_ledger_row_by_row(grid_fail):
    out, record = grid_fail
    assert record["failures"]
    with open(out / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{k: str(v) for k, v in row.items()}
                    for row in record["ledger"]]


def test_check_refuses_a_top_its_record_cannot_hold(grid_fail, tmp_path, capsys):
    # `check_bounds` builds the levels -1..top and raises rho to the
    # publish top: a huge top is refused by radii's key count before any
    # level is built, a top below a failure's top by the walk, and
    # publish.top must lie in [0, top]
    _out, record = grid_fail
    top = record["top"]
    radii_msg = f"radii is not keyed by exactly the levels -1 to top ({{}})"
    shifted = {str(int(k) + 1 if int(k) == top else k): r
               for k, r in record["radii"].items()}
    cases = [({"top": 10 ** 9}, radii_msg.format(10 ** 9)),
             ({"top": top + 1}, radii_msg.format(top + 1)),
             ({"top": -3}, "failures[0].top is not a level in [-1, -3]"),
             ({"radii": shifted}, radii_msg.format(top)),
             ({"publish": dict(record["publish"], top=10 ** 5)},
              f"publish.top is not a level in [-1, {top}]"),
             ({"publish": dict(record["publish"], top=top + 1)},
              f"publish.top is not a level in [-1, {top}]"),
             ({"publish": dict(record["publish"], top=-1)},
              f"publish.top -1 is outside [0, {top}]")]
    for change, message in cases:
        rec_path = tmp_path / "bad.json"
        rec_path.write_text(json.dumps(dict(record, **change)))
        argv = ["check", str(rec_path), "--out", str(tmp_path / "rep.json")]
        assert console(argv) == 2, change
        assert capsys.readouterr().err == f"faultdir check: {rec_path}: {message}\n"
        assert not (tmp_path / "rep.json").exists()


def test_check_fails_on_planted_violation(tmp_path):
    scen_path = tmp_path / "scen.json"
    out_dir = tmp_path / "art"
    main(["gen", "--graph", "grid:3x4", "--seed", "1", "--ops", "4",
          "--failures", "1", "--out", str(scen_path)])
    main(["run", str(scen_path), "--out-dir", str(out_dir)])
    rec_path = out_dir / "record.json"
    record = json.loads(rec_path.read_text())
    record["publish"]["len"] = "100000"
    rec_path.write_text(json.dumps(record))
    rc = main(["check", str(rec_path), "--out", str(out_dir / "rep.json")])
    assert rc == 1
    report = json.loads((out_dir / "rep.json").read_text())
    assert not report["ok"]


def test_run_reports_findings_with_nonzero_exit(tmp_path, capsys):
    # a duplicate publish is rejected and logged as a finding
    sc = {"name": "bad", "mode": "strong", "rho": 2, "seed": 0,
          "graph": {"kind": "ring", "n": 8},
          "events": [{"t": 0, "do": "publish", "node": 1}]}
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(sc))
    assert main(["run", str(scen_path), "--out-dir",
                 str(tmp_path / "a")]) == 0


def test_run_past_the_event_limit_exits_3_in_one_line(tmp_path, monkeypatch,
                                                      capsys):
    """A settle that outruns the event limit (a likely livelock) ends
    `faultdir run` with one stderr line and exit code 3, and writes no
    artifacts; `main` still raises."""
    def small_limit(sc):
        rt = Runtime(sc)
        rt.sim.event_limit = 20
        return rt

    monkeypatch.setattr(cli, "Runtime", small_limit)
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(scenario("grid-fail")))
    argv = ["run", str(scen_path), "--out-dir", str(tmp_path / "a")]
    assert console(argv) == 3
    assert capsys.readouterr().err == \
        "faultdir run: event limit exceeded; likely livelock\n"
    assert not (tmp_path / "a").exists()
    with pytest.raises(EventLimitExceeded):
        main(argv)


def test_partition_stats_output(capsys):
    rc = main(["partition-stats", "--graph", "ring:10", "--mode", "strong",
               "--rho", "2", "--seed", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert out["n"] == 10
    assert out["levels"][0]["clusters"]
    sizes = {c["id"] for lvl in out["levels"] for c in lvl["clusters"]}
    assert len(sizes) == sum(len(l["clusters"]) for l in out["levels"])


def scen(*events, **fields):
    """A scenario on an 8-node ring with these events and top-level fields."""
    return {"name": "bad", "mode": "strong", "rho": 2, "seed": 0,
            "graph": {"kind": "ring", "n": 8}, "events": list(events)} | fields


PUBLISH = {"t": 0, "do": "publish", "node": 1}


def delayed(delay):
    return scen(PUBLISH, {"t": 1, "do": "lookup", "node": 2,
                          "fail_during": [0, 1], "fail_delay": delay})


# case -> (scenario, the one line `faultdir run` prints after the path)
BAD_SCENARIOS = {
    "before any publish": (scen({"t": 0, "do": "lookup", "node": 1}),
                           "event 0: lookup before any publish"),
    "second publish": (scen(PUBLISH, dict(PUBLISH, t=1, node=3)),
                       "event 1: a second publish"),
    "missing or already down": (scen(PUBLISH, {"t": 1, "do": "fail",
                                               "edge": [0, 5]}),
                                "event 1: edge [0, 5] missing or already down"),
    "missing key 'edge'": (scen(PUBLISH, {"t": 1, "do": "fail"}),
                           "missing key 'edge'"),
    "not an object": ([1, 2], "not a JSON object"),
    "graph not an object": (scen(PUBLISH, graph=[]),
                            "graph is not a JSON object"),
    "rows not an int": (scen(PUBLISH, graph={"kind": "grid", "rows": "3",
                                             "cols": 3}),
                        "graph.rows is not a JSON integer"),
    "p not a number": (scen(PUBLISH, graph={"kind": "random", "n": 8,
                                            "p": "0.3", "seed": 0}),
                       "graph.p is not a JSON number"),
    "edges row short": (scen(PUBLISH, graph={"kind": "edges",
                                             "edges": [[1, 2, 1], [0, 1]]}),
                        "graph.edges[1] is not [u, v, weight] with integer "
                        "u and v"),
    "weight a boolean": (scen(PUBLISH, graph={"kind": "grid", "rows": 3,
                                              "cols": 3, "weight": True}),
                         "edge weight True on edge 0-1 is not an int or a "
                         "fraction"),
    "ring weights short": (scen(PUBLISH, graph={"kind": "ring", "n": 8,
                                                "weights": [1, 2]}),
                           "ring of 8 nodes needs 8 weights, not 2"),
    "rho not an int": (scen(PUBLISH, rho=2.5), "rho is not a JSON integer"),
    "seed not an int": (scen(PUBLISH, seed="0"), "seed is not a JSON integer"),
    "events not an array": (scen(events={}), "events is not a JSON array"),
    "event not an object": (scen(PUBLISH, 7), "event 1 is not a JSON object"),
    "node not an int": (scen(dict(PUBLISH, node=[8])),
                        "event 0: node [8] not in graph"),
    "edge of three": (scen(PUBLISH, {"t": 1, "do": "fail", "edge": [0, 1, 2]}),
                      "event 1: edge [0, 1, 2] is not a pair of node ids"),
    "edge not an array": (scen(PUBLISH, {"t": 1, "do": "fail", "edge": 5}),
                          "event 1: edge 5 is not a pair of node ids"),
    "edge null": (scen(PUBLISH, {"t": 1, "do": "fail", "edge": None}),
                  "event 1: edge None is not a pair of node ids"),
    "fail_during of one": (scen(PUBLISH, {"t": 1, "do": "lookup", "node": 2,
                                          "fail_during": [3]}),
                           "event 1: fail_during [3] is not a pair of node "
                           "ids"),
    "fail_delay negative": (delayed(-5), "event 1: fail_delay -5 is not a "
                            "non-negative int or fraction"),
    "fail_delay a float": (delayed(2.5), "event 1: fail_delay 2.5 is not a "
                           "non-negative int or fraction"),
    "fail_delay not a number": (delayed("x"), "event 1: fail_delay 'x' is "
                                "not a non-negative int or fraction"),
    "fail_delay over zero": (delayed("1/0"), "event 1: fail_delay '1/0' is "
                             "not a non-negative int or fraction"),
    "fail_delay negative text": (delayed("-1/2"), "event 1: fail_delay "
                                 "'-1/2' is not a non-negative int or "
                                 "fraction"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_run_rejects_invalid_scenario_in_one_line(case, tmp_path, capsys):
    sc, message = BAD_SCENARIOS[case]
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(sc))
    argv = ["run", str(scen_path), "--out-dir", str(tmp_path / "a")]
    assert console(argv) == 2
    assert capsys.readouterr().err == f"faultdir run: {scen_path}: {message}\n"
    assert not (tmp_path / "a").exists()
    # in-process callers of `main` still get the exception itself
    with pytest.raises((ValueError, KeyError)):
        main(argv)


def test_run_accepts_exact_fail_delays():
    # a delay is an int or, as records write exact numbers, a string
    for delay in (0, 3, "2", "3/2"):
        assert validate_scenario(delayed(delay)) is None


FLOAT_WEIGHT_GRAPHS = [
    {"kind": "grid", "rows": 3, "cols": 3, "weight": 1.5},
    {"kind": "ring", "n": 4, "weights": [1, 1.5, 1, 1]},
    {"kind": "edges", "edges": [[0, 1, 1], [1, 2, 2.5], [0, 2, 1]]},
]


@pytest.mark.parametrize("graph", FLOAT_WEIGHT_GRAPHS,
                         ids=[g["kind"] for g in FLOAT_WEIGHT_GRAPHS])
def test_run_rejects_float_weights_in_one_line(graph, tmp_path, capsys):
    # JSON has no rationals, and a float weight would make distances inexact
    sc = {"name": "bad", "mode": "weak", "rho": 2, "seed": 0, "graph": graph,
          "events": [{"t": 0, "do": "publish", "node": 1}]}
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(sc))
    argv = ["run", str(scen_path), "--out-dir", str(tmp_path / "a")]
    assert console(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not an int or a fraction" in err
    assert not (tmp_path / "a").exists()


def test_run_rejects_unreadable_file(tmp_path):
    for text in (None, "{not json"):
        scen_path = tmp_path / "scen.json"
        if text is not None:
            scen_path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "faultdir.cli", "run", str(scen_path),
             "--out-dir", str(tmp_path / "a")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 2
        assert proc.stderr.startswith("faultdir run: ")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


BAD_RECORDS = {
    "missing": (None, "No such file"),
    "not json": ("{not json", "Expecting property name"),
    "not an object": ("[1, 2]", "not a JSON object"),
    "no mode": ('{"ops": []}', "missing key 'mode'"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_check_rejects_bad_record_in_one_line(case, tmp_path, capsys):
    text, message = BAD_RECORDS[case]
    rec_path = tmp_path / "record.json"
    if text is not None:
        rec_path.write_text(text)
    argv = ["check", str(rec_path)]
    assert console(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"faultdir check: {rec_path}: ")
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "bound_report.json").exists()
    with pytest.raises((OSError, ValueError, KeyError)):
        main(argv)


def test_check_names_every_top_level_key_it_reads(tmp_path, capsys):
    # a record without one of its top-level keys, or with an op without
    # one of its keys, is either refused as bad input or checked without
    # it; it never reaches check as a KeyError
    scen_path = tmp_path / "scen.json"
    main(["gen", "--graph", "ring:8", "--seed", "1", "--ops", "3",
          "--failures", "1", "--out", str(scen_path)])
    main(["run", str(scen_path), "--out-dir", str(tmp_path)])
    record = json.loads((tmp_path / "record.json").read_text())
    refused = set()
    for key in sorted(record):
        rec_path = tmp_path / f"no-{key}.json"
        rec_path.write_text(json.dumps({k: v for k, v in record.items()
                                        if k != key}))
        if console(["check", str(rec_path), "--out",
                    str(tmp_path / "rep.json")]) == 2:
            refused.add(key)
    assert refused == set(RECORD_SCHEMA)
    # the same for each key of the first op of each kind
    first = {}
    for k, op in enumerate(record["ops"]):
        first.setdefault(op["kind"], k)
    assert sorted(first) == ["look", "move", "pub"]
    for k in first.values():
        refused = set()
        for key in sorted(record["ops"][k]):
            ops = [dict(op) for op in record["ops"]]
            del ops[k][key]
            rec_path = tmp_path / f"no-op-{key}.json"
            rec_path.write_text(json.dumps(dict(record, ops=ops)))
            if console(["check", str(rec_path), "--out",
                        str(tmp_path / "rep.json")]) == 2:
                refused.add(key)
                assert f"missing key 'ops[{k}].{key}'" in \
                    capsys.readouterr().err
        assert refused == set(RECORD_SCHEMA["ops"][0]), record["ops"][k]["kind"]
    capsys.readouterr()


def test_check_rejects_wrong_typed_containers_in_one_line(tmp_path, capsys):
    # every container and scalar `check_bounds` reads is type-checked
    # first: a wrong container, list element or number is bad input, never
    # a TypeError or a ValueError raised inside check
    scen_path = tmp_path / "scen.json"
    main(["gen", "--graph", "ring:8", "--seed", "1", "--ops", "3",
          "--failures", "1", "--out", str(scen_path)])
    main(["run", str(scen_path), "--out-dir", str(tmp_path)])
    record = json.loads((tmp_path / "record.json").read_text())
    capsys.readouterr()
    cases = [("ops", 5, "ops is not a JSON array"),
             ("failures", 3, "failures is not a JSON array"),
             ("ledger", "x", "ledger is not a JSON array")]
    for key, schema in RECORD_SCHEMA.items():
        if isinstance(schema, list):
            cases += [(key, None, f"{key} is not a JSON array"),
                      (key, [{}, 7], f"{key}[1] is not a JSON object")]
        elif isinstance(schema, dict) or schema[0] == "map":
            cases.append((key, None, f"{key} is not a JSON object"))
    cases += [("rho", "x", "rho is not an exact number"),
              ("top", "x", "top is not a JSON integer"),
              ("sigma", [1], "sigma is not an exact number"),
              ("radii", {"0": "q"}, "radii['0'] is not an exact number"),
              ("n", None, "n is not a JSON integer"),
              ("top", True, "top is not a JSON integer"),
              ("n", 8.0, "n is not a JSON integer"),
              ("overlap", "", "overlap is not an exact number"),
              ("d_alive", 1.5, "d_alive is not an exact number"),
              ("c_prime", None, "c_prime is not an exact number"),
              ("sigma", "1/0", "sigma is not an exact number"),
              ("radii", {}, "radii is not keyed by levels: []"),
              ("radii", {"x": 1}, "radii is not keyed by levels: ['x']")]
    # sigma and overlap must be what the record's own partition rows give
    pre = record["partition_pre"]
    levels = pre["levels"]
    cases += [("overlap", 0, "overlap 0 does not match partition_pre (5)"),
              ("overlap", "6", "overlap 6 does not match partition_pre (5)"),
              ("sigma", "3/2", "sigma 3/2 does not match partition_pre (1)"),
              ("partition_pre", {"ok": True},
               "missing key 'partition_pre.levels'"),
              ("partition_pre", {"levels": levels[:1]},
               "missing key 'partition_pre.ok'"),
              ("partition_pre", dict(pre, levels=levels[:1]),
               "partition_pre has no exact level rows with r > 0"),
              ("partition_pre", {"levels": [dict(levels[1], r="x")]},
               "partition_pre.levels[0].r is not an exact number"),
              ("partition_pre", {"levels": [dict(levels[1], max_overlap="3")]},
               "partition_pre.levels[0].max_overlap is not a JSON integer"),
              ("partition_pre", {"levels": [levels[0], 7]},
               "partition_pre.levels[1] is not a JSON object")]
    # and so is every value it reads in an op or a ledger row
    look = next(k for k, op in enumerate(record["ops"]) if op["kind"] == "look")

    def nested(path, value, message):
        top = json.loads(json.dumps(record[path[0]]))
        node = top
        for key in path[1:-1]:
            node = node[key]
        node[path[-1]] = value
        return path[0], top, message

    def garbled(name, k, key, value, message):
        return nested((name, k, key), value, f"{name}[{k}]{message}")

    top, nf = record["top"], len(record["failures"])
    level_msg = f" is not a level in [-1, {top}]"
    f_msg = f" is not a failure count in [0, {nf}]"
    cases += [garbled("ops", look, "f_at_complete", "x",
                      ".f_at_complete" + f_msg + " or null"),
              garbled("ops", look, "f_at_complete", True,
                      ".f_at_complete" + f_msg + " or null"),
              garbled("ops", look, "discovery_level", "x",
                      ".discovery_level" + level_msg + " or null"),
              garbled("ops", look, "dist_at_issue", "x",
                      ".dist_at_issue is not an exact number or null"),
              garbled("ops", look, "read_t", 1.5,
                      ".read_t is not an exact number or null"),
              garbled("ops", look, "t_issue", "x",
                      ".t_issue is not an exact number"),
              garbled("ops", look, "t_issue", None,
                      ".t_issue is not an exact number"),
              garbled("ops", look, "id", 7, ".id is not a JSON string"),
              garbled("ops", look, "t_complete", None,
                      " is done with a null t_complete"),
              garbled("ops", look, "f_at_complete", None,
                      " is done with a null f_at_complete"),
              garbled("ledger", 0, "cost", "x", ".cost is not an exact number"),
              garbled("ledger", 0, "messages", "x",
                      ".messages is not a JSON integer"),
              garbled("ledger", 0, "bucket", 5, ".bucket is not a JSON string"),
              ("ledger", [{"bucket": "setup", "messages": 1}] + record["ledger"],
               "missing key 'ledger[0].cost'")]
    # values of the right kind must also lie in range: the bounds divide by
    # rho - 1 and by radii, and sum over the levels up to a discovery level
    cases += [("rho", 1, "rho 1 is below 2"),
              ("rho", "0", "rho 0 is below 2"),
              ("radii", dict(record["radii"], **{"0": 0}),
               "radii['0'] is 0, not positive"),
              ("radii", dict(record["radii"], **{"1": "-1/2"}),
               "radii['1'] is -1/2, not positive"),
              ("radii", dict(record["radii"], **{"-1": 1}),
               "radii['-1'] is 1, not 0"),
              garbled("ops", look, "discovery_level", 10 ** 9,
                      ".discovery_level" + level_msg + " or null"),
              garbled("ops", look, "discovery_level", -2,
                      ".discovery_level" + level_msg + " or null")]
    # every other level lies in [-1, top] and every failure count in
    # [0, len(failures)] too: one value out of range per field of either kind
    cid = next(iter(record["failures"][0]["stats"]["recluster"]))
    split = {"child": 5, "parent": 6, "level": 99}
    bucket = f"op:{record['ops'][look]['id']}:L{{}}:query"
    cases += [nested(("failures", 0, "top"), 10 ** 6, "failures[0].top" + level_msg),
              nested(("failures", 0, "splits"), [split],
                     "failures[0].splits[0].level" + level_msg),
              nested(("failures", 0, "ext_check", "h"), -2,
                     "failures[0].ext_check.h" + level_msg),
              nested(("failures", 0, "ext_check", "h_new"), 10 ** 7,
                     "failures[0].ext_check.h_new" + level_msg + " or null"),
              nested(("failures", 0, "stats", "recluster", cid, "level"), 99,
                     f"failures[0].stats.recluster[{cid!r}].level" + level_msg),
              nested(("failures", 0, "stats", "sc_update", 0, "clamp"), 10 ** 7,
                     "failures[0].stats.sc_update[0].clamp" + level_msg),
              nested(("failures", 0, "stats", "sc_update", 0, "clamp"), -5,
                     "failures[0].stats.sc_update[0].clamp" + level_msg),
              nested(("path", 0, "level"), top + 1, "path[0].level" + level_msg),
              nested(("publish", "top"), 10 ** 6, "publish.top" + level_msg),
              garbled("ops", look, "f_at_complete", 10 ** 6,
                      ".f_at_complete" + f_msg + " or null"),
              garbled("ops", look, "f_at_complete", -1,
                      ".f_at_complete" + f_msg + " or null"),
              nested(("path", 0, "pair_f"), 10 ** 6, "path[0].pair_f" + f_msg + " or null"),
              nested(("publish", "f"), nf + 1, "publish.f" + f_msg)]
    for k in ("x0", "999999"):
        row = {"bucket": bucket.format(k), "messages": 1, "cost": "1"}
        cases.append(("ledger", [row] + record["ledger"],
                      f"ledger bucket {row['bucket']!r} names no level in [-1, {top}]"))
    # and every value it reads in a failure, a path row, a token interval,
    # the first publish and the partition after failures
    no_ok = {k: v for k, v in record["partition_post"].items() if k != "ok"}
    cases += [nested(("failures", 0, "stats", "path_update", "max_dist"), "x",
                     "failures[0].stats.path_update.max_dist is not an "
                     "exact number"),
              nested(("failures", 0, "top"), "x", "failures[0].top" + level_msg),
              nested(("failures", 0, "splits"), None,
                     "failures[0].splits is not a JSON array"),
              nested(("failures", 0, "ext_check"), {"crossing": True},
                     "missing key 'failures[0].ext_check.triggered'"),
              nested(("path", 0, "dist_next"), "x",
                     "path[0].dist_next is not an exact number or null"),
              nested(("token_intervals", 0, "t_from"), "x",
                     "token_intervals[0].t_from is not an exact number"),
              nested(("publish", "len"), "x",
                     "publish.len is not an exact number"),
              ("partition_post", no_ok, "missing key 'partition_post.ok'")]
    for key, value, message in cases:
        rec_path = tmp_path / "bad.json"
        rec_path.write_text(json.dumps(dict(record, **{key: value})))
        argv = ["check", str(rec_path), "--out", str(tmp_path / "rep.json")]
        assert console(argv) == 2, key
        err = capsys.readouterr().err
        assert err == f"faultdir check: {rec_path}: {message}\n"
        assert not (tmp_path / "rep.json").exists()
    # exact numbers as strings are how records write fractions
    rec_path.write_text(json.dumps(dict(record, overlap="5", rho="2")))
    assert console(["check", str(rec_path), "--out",
                    str(tmp_path / "rep.json")]) in (0, 1)


def test_check_refuses_a_split_cycle_instead_of_hanging(tmp_path, capsys):
    # the descendant count climbs from each split child to its family
    # root; a split that is its own parent, or a cycle through several
    # failures, would climb forever
    scen_path = tmp_path / "scen.json"
    main(["gen", "--graph", "ring:8", "--seed", "1", "--ops", "3",
          "--failures", "1", "--out", str(scen_path)])
    main(["run", str(scen_path), "--out-dir", str(tmp_path)])
    record = json.loads((tmp_path / "record.json").read_text())
    capsys.readouterr()
    frec, split = record["failures"][0], {"level": 0, "on_path": False, "size": 1}
    for failures in ([dict(frec, splits=[dict(split, child=5, parent=5)])],
                     [dict(frec, splits=[dict(split, child=5, parent=6)]),
                      dict(frec, fid=1, splits=[dict(split, child=6, parent=5)])]):
        rec_path = tmp_path / "cycle.json"
        rec_path.write_text(json.dumps(dict(record, failures=failures)))
        assert console(["check", str(rec_path)]) == 2
        assert capsys.readouterr().err == (
            f"faultdir check: {rec_path}: the splits make cluster 5 its own "
            f"ancestor\n")


WRONG_KINDS = ["x", None, 1.5, [], {}, True, 10 ** 7, -5]


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaf_paths(sub, path + (key,))
    elif isinstance(value, list):
        for k, sub in enumerate(value):
            yield from _leaf_paths(sub, path + (k,))
    else:
        yield path


@pytest.fixture(scope="module")
def leaf_records(tmp_path_factory):
    """Two real records with failures, splits and moves, and their leaves
    grouped by shape: the path with its list indices dropped."""
    out = tmp_path_factory.mktemp("leaves")
    texts, shapes = [], {}
    for i, (graph, failures, seed) in enumerate((("ring:8", 1, 2),
                                                 ("grid:3x4", 3, 3))):
        scen_path = out / f"scen{i}.json"
        main(["gen", "--graph", graph, "--seed", str(seed), "--ops", "6",
              "--failures", str(failures), "--out", str(scen_path)])
        main(["run", str(scen_path), "--out-dir", str(out / str(i))])
        texts.append((out / str(i) / "record.json").read_text())
        for path in _leaf_paths(json.loads(texts[-1])):
            shape = tuple("[]" if type(p) is int else p for p in path)
            shapes.setdefault(shape, []).append((i, path))
    return out, texts, [shapes[s] for s in sorted(shapes, key=str)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_check_survives_any_wrong_kind_leaf(leaf_records, data):
    # ROADMAP item 10: whatever one leaf of a real record holds, check
    # reports (0 or 1) or refuses it in one line (2); it never raises
    out, texts, shapes = leaf_records
    i, path = data.draw(st.sampled_from(data.draw(st.sampled_from(shapes))))
    record = json.loads(texts[i])
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(WRONG_KINDS))
    rec_path = out / "bad.json"
    rec_path.write_text(json.dumps(record))
    assert console(["check", str(rec_path), "--out",
                    str(out / "rep.json")]) in (0, 1, 2)


def test_run_defects_still_propagate(tmp_path, monkeypatch):
    # an error raised while running a valid scenario is a program defect
    scen_path = tmp_path / "scen.json"
    main(["gen", "--graph", "ring:8", "--seed", "1", "--ops", "2",
          "--failures", "0", "--out", str(scen_path)])

    def broken(self):
        raise ValueError("defect")
    monkeypatch.setattr(Runtime, "run", broken)
    with pytest.raises(ValueError, match="defect"):
        console(["run", str(scen_path), "--out-dir", str(tmp_path / "a")])


def test_gen_reports_how_many_failures_it_generated(tmp_path, capsys):
    # a ring loses connectivity-safe edges after one failure
    scen_path = tmp_path / "scen.json"
    assert main(["gen", "--graph", "ring:8", "--seed", "3", "--ops", "4",
                 "--failures", "3", "--horizon", "1000",
                 "--out", str(scen_path)]) == 0
    assert "1 of 3 requested failures generated" in capsys.readouterr().err
    # the scenario itself is what the generator returns, cut included
    assert json.loads(scen_path.read_text()) == _gen_scenario(
        {"kind": "ring", "n": 8}, "strong", 2, 3, 4, 3, 1000)


def test_gen_moves_sets_the_move_share(tmp_path):
    # any corpus scenario can be rebuilt from the command line
    scen_path = tmp_path / "scen.json"
    assert main(["gen", "--graph", "grid:4x5", "--seed", "3", "--ops", "10",
                 "--failures", "2", "--horizon", "2000", "--moves", "0.2",
                 "--out", str(scen_path)]) == 0
    sc = json.loads(scen_path.read_text())
    assert sc == _gen_scenario({"kind": "grid", "rows": 4, "cols": 5},
                               "strong", 2, 3, 10, 2, 2000, move_frac=0.2)
    assert sum(ev["do"] == "move" for ev in sc["events"]) == 2


@pytest.mark.parametrize("share", ["-0.1", "1.5", "x", "nan"])
def test_gen_refuses_a_move_share_outside_0_1(share, capsys):
    with pytest.raises(SystemExit) as exc:
        console(["gen", "--moves", share])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --moves: {share!r} is not a number in [0, 1]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,low", [
    (["partition-stats", "--rho", "1"], 2), (["gen", "--rho", "1"], 2),
    (["gen", "--rho", "x"], 2), (["gen", "--ops", "-2"], 0),
    (["gen", "--failures", "-1"], 0)],
    ids=["ps-rho", "gen-rho", "gen-rho-text", "gen-ops", "gen-failures"])
def test_cli_refuses_an_out_of_range_integer(argv, low, tmp_path, capsys):
    # refused at parse time: no traceback, and gen writes no scenario file
    out = tmp_path / "scen.json"
    with pytest.raises(SystemExit) as exc:
        console(argv + (["--out", str(out)] if argv[0] == "gen" else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"error: argument {argv[1]}: {argv[2]!r} is not an integer >= {low}")
    assert "Traceback" not in err and not out.exists()

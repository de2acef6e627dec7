"""Command line round trips."""

import csv
import json
import os
import subprocess
import sys

import pytest

from faultdir.bounds import OP_KEYS, RECORD_CONTAINERS, RECORD_KEYS
from faultdir.cli import _gen_scenario, _graph_spec, console, main
from faultdir.scenario import Runtime, validate_scenario


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


BAD_SCENARIOS = {
    "before any publish": [{"t": 0, "do": "lookup", "node": 1}],
    "missing or already down": [{"t": 0, "do": "publish", "node": 1},
                                {"t": 1, "do": "fail", "edge": [0, 5]}],
    "missing key 'edge'": [{"t": 0, "do": "publish", "node": 1},
                           {"t": 1, "do": "fail"}],
}


@pytest.mark.parametrize("message", sorted(BAD_SCENARIOS))
def test_run_rejects_invalid_scenario_in_one_line(message, tmp_path, capsys):
    sc = {"name": "bad", "mode": "strong", "rho": 2, "seed": 0,
          "graph": {"kind": "ring", "n": 8}, "events": BAD_SCENARIOS[message]}
    scen_path = tmp_path / "scen.json"
    scen_path.write_text(json.dumps(sc))
    argv = ["run", str(scen_path), "--out-dir", str(tmp_path / "a")]
    assert console(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and str(scen_path) in err
    assert not (tmp_path / "a").exists()
    # in-process callers of `main` still get the exception itself
    with pytest.raises((ValueError, KeyError)):
        main(argv)


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
    assert refused == set(RECORD_KEYS)
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
        assert refused == set(OP_KEYS), record["ops"][k]["kind"]
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
    for key, kind in RECORD_CONTAINERS.items():
        cases.append((key, None, f"{key} is not a JSON "
                      f"{'array' if kind is list else 'object'}"))
        if kind is list:
            cases.append((key, [{}, 7], f"{key}[1] is not a JSON object"))
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
    levels = record["partition_pre"]["levels"]
    no_rows = "partition_pre has no exact level rows with r > 0"
    cases += [("overlap", 0, "overlap 0 does not match partition_pre (5)"),
              ("overlap", "6", "overlap 6 does not match partition_pre (5)"),
              ("sigma", "3/2", "sigma 3/2 does not match partition_pre (1)"),
              ("partition_pre", {"ok": True}, no_rows),
              ("partition_pre", {"levels": levels[:1]}, no_rows),
              ("partition_pre", {"levels": [dict(levels[1], r="x")]}, no_rows),
              ("partition_pre", {"levels": [dict(levels[1], max_overlap="3")]},
               no_rows),
              ("partition_pre", {"levels": [levels[0], 7]}, no_rows)]
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

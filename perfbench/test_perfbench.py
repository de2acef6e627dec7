"""Self-tests of the benchmark harness: tiny runs of every workload through
the same code path, and the failure accounting on bad outputs.

    python3 -m pytest perfbench -q
"""
import copy
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from faultdir import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {"graph": "grid:4x4", "ops": 6, "scenarios": 2}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    shapes = copy.deepcopy(run.WORKLOADS)
    for shape in shapes.values():
        shape.update(TINY, failures=min(shape["failures"], 2))
    monkeypatch.setattr(run, "WORKLOADS", shapes)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _scenario(tmp_path) -> Path:
    sc = cli._gen_scenario(cli._graph_spec("grid:4x4"), "strong", 2, 3, 6, 1, 100)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    return path


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    work = tiny / f"{workload}-seed1"
    assert json.loads((work / "digests.json").read_text())
    if trace:
        assert list(work.glob("spans-s*.jsonl.gz"))


def test_doctored_record_counts_failed_op_and_formula(tmp_path):
    sc_path = _scenario(tmp_path)
    out = tmp_path / "out"
    rep = run.run_pipeline(sc_path, out)
    assert rep.error is None and rep.ops_failed == 0 and not rep.failed_formulas
    record = json.loads((out / "record.json").read_text())
    record["ops"][-1]["phase"] = "up"
    (out / "record.json").write_text(json.dumps(record))
    assert cli.main(["check", str(out / "record.json")]) == 1
    run.evaluate(rep, out)
    assert rep.ops_failed == 1
    assert "completion" in rep.failed_formulas


def test_program_exception_counts_every_op_as_failed(tmp_path):
    sc_path = _scenario(tmp_path)
    sc = json.loads(sc_path.read_text())
    sc["events"].append({"t": 10**6, "do": "lookup", "node": 999})
    sc_path.write_text(json.dumps(sc))
    rep = run.run_pipeline(sc_path, tmp_path / "out")
    assert rep.error.startswith("ValueError")
    assert rep.ops_failed == rep.attempted == 8
    assert cli.Runtime is run.faultdir.scenario.Runtime


def test_known_defect_is_reported_not_raised(tmp_path):
    """Heavier failure schedules trip `protocol-findings`; this case from
    the generator shows it. The harness must count it and go on."""
    sc = cli._gen_scenario(cli._graph_spec("grid:12x12"), "strong", 2, 228,
                           30, 25, 5000, move_frac=0.2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    rep = run.run_pipeline(path, tmp_path / "out")
    assert rep.error is None
    assert "protocol-findings" in rep.failed_formulas
    assert rep.rc == (1, 1)


def test_tracer_subtracts_nested_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    (name0, *_rest0), (name1, _, _, parent1, _) = tracer.spans
    assert (name0, name1, parent1) == ("outer", "inner", 0)

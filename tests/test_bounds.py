"""Bound report machinery: checkers, ledger view, negative controls."""

import json
from fractions import Fraction

import pytest

from faultdir.bounds import LedgerView, check_bounds
from faultdir.scenario import Runtime

from controls import (
    CONTROL_DETAILS, CONTROLS, COUPLED_CONTROLS, base_record, doctored)


@pytest.mark.parametrize("name", ["clean", "fail", "during", "weak"])
def test_reference_records_pass_all_checks(name):
    rep = check_bounds(base_record(name))
    assert rep.ok, [(l.formula, l.detail) for l in rep.failed()]


@pytest.mark.parametrize(
    "formula,base,doctor", CONTROLS + [c[1:] for c in COUPLED_CONTROLS],
    ids=[c[0] for c in CONTROLS] + [f"{c[1]}-{c[0]}" for c in COUPLED_CONTROLS])
def test_each_checker_rejects_its_planted_violation(formula, base, doctor):
    rec = doctored(base, doctor)
    rep = check_bounds(rec)
    assert not rep.ok
    bad = {l.formula for l in rep.failed()}
    assert formula in bad, f"expected {formula} to fail, got {bad}"
    if formula in CONTROL_DETAILS:
        line = next(l for l in rep.failed() if l.formula == formula)
        assert CONTROL_DETAILS[formula] in line.detail, line.detail


def test_every_emitted_formula_has_a_negative_control():
    emitted = set()
    for name in ("clean", "fail", "weak"):
        for line in check_bounds(base_record(name)).lines:
            emitted.add(line.formula)
    controlled = {c[0] for c in CONTROLS}
    assert emitted <= controlled, emitted - controlled


def test_report_serializes_and_round_trips():
    rep = check_bounds(base_record("fail"))
    blob = json.dumps(rep.as_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["ok"] is True
    assert len(back["lines"]) == len(rep.lines)
    for line in back["lines"]:
        assert set(line) == {"formula", "passed", "observed", "bound",
                             "detail"}


def test_ledger_view_matches_live_ledger():
    sc = {"name": "lv", "mode": "strong", "rho": 2, "seed": 1,
          "graph": {"kind": "grid", "rows": 3, "cols": 4},
          "events": [{"t": 0, "do": "publish", "node": 0},
                     {"t": 100, "do": "lookup", "node": 11},
                     {"t": 300, "do": "move", "node": 7}]}
    rt = Runtime(sc)
    rt.run()
    view = LedgerView(rt.record()["ledger"])
    for prefix in ("op", "op:look1", "op:move2", "setup", "repair"):
        live_m, live_c = rt.sim.ledger.total(prefix)
        view_m, view_c = view.total(prefix)
        assert (view_m, view_c) == (live_m, Fraction(live_c))
    # exact prefix semantics: "op:look1" must not swallow "op:look10"
    view2 = LedgerView([{"bucket": "op:look1:walk", "messages": 1, "cost": 5},
                        {"bucket": "op:look10:walk", "messages": 1,
                         "cost": 7}])
    assert view2.total("op:look1") == (1, Fraction(5))


def test_level_costs_extraction():
    view = LedgerView([
        {"bucket": "op:a:L0:query", "messages": 2, "cost": 3},
        {"bucket": "op:a:L0:reply", "messages": 2, "cost": 3},
        {"bucket": "op:a:L2:query", "messages": 1, "cost": "7/2"},
        {"bucket": "op:a:L-1:query", "messages": 1, "cost": 1},
        {"bucket": "op:b:L0:query", "messages": 1, "cost": 100},
    ])
    got = view.level_costs("a", "query")
    assert got == {0: 3, 2: Fraction(7, 2), -1: 1}


def test_publish_bound_value():
    # sigma=1, rho=2, height 3: 1 * 3 * (2^4 - 1) / (1 * 2) = 45/2
    rec = base_record("clean")
    assert Fraction(rec["sigma"]) == 1 and rec["rho"] == 2
    line = next(l for l in check_bounds(rec).lines
                if l.formula == "publish-length")
    assert Fraction(line.bound) == Fraction(45, 2)


def test_move_baseline_uses_distances_at_issue_time():
    rec = base_record("clean")
    moves = [o for o in rec["ops"] if o["kind"] == "move"]
    assert all(o["dist_prev_source"] is not None for o in moves)
    # publisher at 2, movers 9,14,3,8 on a 16-ring: hop distances 7,5,5,5
    assert [Fraction(o["dist_prev_source"]) for o in moves] == [7, 5, 5, 5]


def publish_line(events):
    sc = {"name": "pub", "mode": "strong", "rho": 2, "seed": 0,
          "graph": {"kind": "grid", "rows": 3, "cols": 4}, "events": events}
    rec = Runtime(sc).run()
    return rec, next(l for l in check_bounds(rec).lines
                     if l.formula == "publish-length")


def test_publish_bound_doubles_after_failures():
    publish = {"t": 100, "do": "publish", "node": 2}
    quiet_rec, quiet = publish_line([publish])
    rec, line = publish_line([{"t": 0, "do": "fail", "edge": [1, 5]},
                              publish])
    # the failure leaves the stack as it was, so only the factor differs
    assert rec["failures"][0]["extension"] is None
    assert rec["publish"]["top"] == quiet_rec["publish"]["top"]
    assert Fraction(line.bound) == 2 * Fraction(quiet.bound)
    assert line.passed and quiet.passed
    assert line.detail.endswith("(doubled, 1 failures before publish)")
    assert "doubled" not in quiet.detail


def test_owner_moving_itself_leaves_a_zero_move_baseline():
    sc = {"name": "self", "mode": "strong", "rho": 2, "seed": 0,
          "graph": {"kind": "ring", "n": 8},
          "events": [{"t": 0, "do": "publish", "node": 2},
                     {"t": 100, "do": "move", "node": 2}]}
    rec = Runtime(sc).run()
    move = rec["ops"][1]
    # the owner is already at level -1: the move completes at issue
    assert (move["kind"], move["phase"]) == ("move", "done")
    assert move["discovery_level"] == -1
    assert Fraction(move["dist_prev_source"]) == 0
    line = next(l for l in check_bounds(rec).lines if l.formula == "move-ratio")
    assert line.passed and line.bound == "-"
    assert line.detail == "1 relocations but zero baseline, skipped"

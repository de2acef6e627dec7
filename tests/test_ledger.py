"""The ledger's bucket index against full-scan oracles.

Both sides of the pipeline answer prefix totals from an index: the live
``CostLedger`` while the run charges it, and ``LedgerView`` when ``check``
reads the saved rows back. Each must agree with a scan of every row.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from faultdir.bounds import LedgerView
from faultdir.sim import CostLedger

from oracles import brute_ledger_total, brute_level_costs

SEGMENTS = ["op", "a", "ab", "x", "look1", "look12", "L-1", "L0", "L3",
            "Lx", "sc", "query", "link", "extra", "setup", "repair",
            "recluster", "f0", ""]

COSTS = st.one_of(st.integers(0, 40),
                  st.fractions(min_value=0, max_value=40, max_denominator=9))

buckets = st.lists(st.sampled_from(SEGMENTS), min_size=1,
                   max_size=5).map(":".join)

charges = st.lists(st.tuples(buckets, COSTS, st.sampled_from(
    ["const", "logn", "nlogn"]), st.integers(1, 3)), min_size=1, max_size=30)


def _charged(charges):
    led = CostLedger()
    for bucket, cost, size, count in charges:
        led.charge(bucket, cost, size, count=count)
    return led


def _prefixes(names):
    """Every colon-boundary prefix and every raw string prefix of the
    names, plus names no bucket has."""
    out = {"", "zz", "op:zz", "a:b:c:d:e:f"}
    for name in names:
        parts = name.split(":")
        out.update(":".join(parts[:k]) for k in range(1, len(parts) + 1))
        out.update(name[:k] for k in range(len(name) + 1))
    return sorted(out)


def _level_queries(names):
    """(op_id, tag) pairs read off op buckets: every run of segments after
    'op:' as the id, every later run as the tag."""
    out = {("zz", "query"), ("look1", "nope")}
    for name in names:
        parts = name.split(":")
        if parts[0] != "op":
            continue
        for k in range(2, len(parts) + 1):
            for j in range(k + 1, len(parts) + 1):
                for m in range(j, len(parts) + 1):
                    out.add((":".join(parts[1:k]), ":".join(parts[j:m])))
    return sorted(out)


def _outcome(fn, *args):
    """A call's result, or the type of error it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _assert_agree(rows):
    """LedgerView over `rows` (bucket, messages, cost) matches the oracles."""
    view = LedgerView([{"bucket": b, "messages": m, "cost": str(c)}
                       for b, m, c in rows])
    names = [b for b, _m, _c in rows]
    for prefix in _prefixes(names):
        assert view.total(prefix) == brute_ledger_total(rows, prefix), prefix
    for op_id, tag in _level_queries(names):
        assert (_outcome(view.level_costs, op_id, tag)
                == _outcome(brute_level_costs, rows, op_id, tag)), (op_id, tag)


@settings(max_examples=100, deadline=None)
@given(charges)
def test_live_ledger_totals_match_full_scan(charges):
    led = _charged(charges)
    rows = [(b, r["messages"], Fraction(r["cost"]))
            for b, r in led.rows.items()]
    for prefix in _prefixes(led.rows):
        assert led.total(prefix) == brute_ledger_total(rows, prefix), prefix


@settings(max_examples=100, deadline=None)
@given(charges)
def test_ledger_view_matches_full_scan(charges):
    led = _charged(charges)
    _assert_agree([(r["bucket"], r["messages"], Fraction(r["cost"]))
                   for r in led.as_rows()])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(buckets, st.integers(0, 3), COSTS), max_size=20))
def test_ledger_view_sums_repeated_rows(rows):
    # a record may list a bucket twice; every row still counts
    _assert_agree(rows)


@pytest.mark.parametrize("prefix,want", [
    ("a", (3, Fraction(12))),
    ("ab", (1, Fraction(11))),
    ("a:x", (1, Fraction(7))),
    ("op:look1", (3, Fraction(7, 2) + 2 + 5)),
    ("op:look12", (1, Fraction(100))),
    ("op", (6, Fraction(7, 2) + 2 + 5 + 100 + 3)),
    ("op:X", (2, Fraction(3))),
    ("op:X:L-1", (1, Fraction(1))),
    ("op:X:L3:link", (1, Fraction(2))),
    ("unknown", (0, Fraction(0))),
    ("op:look", (0, Fraction(0))),
    ("a:x:y", (0, Fraction(0))),
])
def test_edge_case_prefixes(prefix, want):
    charges = [("a", 5), ("a:x", 7), ("ab", 11), ("a", 0),
               ("op:look1:L0:query", Fraction(7, 2)),
               ("op:look1:L2:query", 2), ("op:look1:reply", 5),
               ("op:look12:L0:query", 100),
               ("op:X:L-1:sc", 1), ("op:X:L3:link:extra", 2)]
    led = CostLedger()
    for bucket, cost in charges:
        led.charge(bucket, cost)
    assert led.total(prefix) == want
    assert LedgerView(led.as_rows()).total(prefix) == want


def test_edge_case_level_costs():
    view = LedgerView([
        {"bucket": "op:look1:L0:query", "messages": 1, "cost": "7/2"},
        {"bucket": "op:look1:L2:query", "messages": 1, "cost": 2},
        {"bucket": "op:look12:L0:query", "messages": 1, "cost": 100},
        {"bucket": "op:X:L-1:sc", "messages": 1, "cost": 1},
        {"bucket": "op:X:L3:link:extra", "messages": 1, "cost": 2},
    ])
    assert view.level_costs("look1", "query") == {0: Fraction(7, 2), 2: 2}
    assert view.level_costs("look12", "query") == {0: 100}
    assert view.level_costs("X", "sc") == {-1: 1}
    assert view.level_costs("X", "link") == {}
    assert view.level_costs("X", "link:extra") == {3: 2}
    assert view.level_costs("unknown", "query") == {}

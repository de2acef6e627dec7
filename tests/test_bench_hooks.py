"""The names the benchmark in ``perfbench/`` patches or reads must exist.

``perfbench/tracing.py`` wraps entry points by name and
``perfbench/run.py`` drives and probes a ``Runtime`` from outside, so a
renamed entry point stops the benchmark at import or mid-run. The
benchmark's own tests live outside ``tests/``; this one keeps the names in
view of the tier-1 suite.
"""

import os
import sys

from faultdir import cli
from faultdir.scenario import Runtime

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import tracing  # noqa: E402


def test_every_traced_entry_point_is_owned_where_it_is_patched():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _span in tracing.PATCHES
               if attr not in owner.__dict__]
    assert not missing


def test_runtime_exposes_what_the_probe_wraps_and_reads():
    for name in ("main", "Runtime", "_gen_scenario", "_graph_spec"):
        assert callable(getattr(cli, name)), name
    sc = {"name": "hooks", "mode": "strong", "rho": 2, "seed": 0,
          "graph": {"kind": "grid", "rows": 2, "cols": 2},
          "events": [{"do": "publish", "node": 0}]}
    rt = Runtime(sc)
    for owner, names in ((rt.dir, ("start_publish", "start_lookup",
                                   "start_move")),
                         (rt.engine, ("fail_edge",)), (rt.sim, ("run",))):
        for name in names:
            assert callable(getattr(owner, name)), name
    rt.run()
    assert rt.sim._processed > 0

"""Fault-tolerant distributed directory on sparse partition hierarchies.

A deterministic protocol library plus discrete-event simulator for a
publish/lookup/move object directory over weighted graphs, with repair
machinery for edge failures and a cost-accounting harness that checks
the scheme's performance bounds as explicit-constant inequalities.
"""

from faultdir.graph import Graph, ShortestPathTree, build_spt
from faultdir.partition import Hierarchy, build_hierarchy, verify_partition

__all__ = [
    "Graph",
    "ShortestPathTree",
    "build_spt",
    "Hierarchy",
    "build_hierarchy",
    "verify_partition",
]

__version__ = "0.1.0"

"""Shared fixtures for the bound checkers: reference runs plus a table of
record mutations that each violate exactly one published inequality."""

import copy
import functools

from faultdir.scenario import Runtime

WEAK_EDGES = [[4, 0, 2], [11, 4, 5], [10, 11, 3], [3, 0, 1], [12, 3, 4],
              [7, 12, 2], [2, 4, 5], [8, 11, 1], [5, 4, 5], [1, 8, 1],
              [6, 7, 5], [9, 8, 3], [4, 1, 8], [4, 10, 6], [3, 4, 2],
              [3, 1, 8], [5, 6, 3]]


@functools.lru_cache(maxsize=None)
def base_record(name: str) -> dict:
    if name == "clean":
        sc = {"name": "ctl-clean", "mode": "strong", "rho": 2, "seed": 5,
              "graph": {"kind": "ring", "n": 16},
              "events": [{"t": 0, "do": "publish", "node": 2}]
              + [{"t": 100 * (k + 1), "do": "lookup", "node": (3 * k + 5) % 16}
                 for k in range(6)]
              + [{"t": 1000 + 300 * k, "do": "move", "node": (5 * k + 9) % 16}
                 for k in range(4)]}
    elif name == "fail":
        sc = {"name": "ctl-fail", "mode": "strong", "rho": 2, "seed": 5,
              "graph": {"kind": "ring", "n": 12},
              "events": [{"t": 0, "do": "publish", "node": 3},
                         {"t": 200, "do": "fail", "edge": [3, 4]},
                         {"t": 1200, "do": "lookup", "node": 9},
                         {"t": 2500, "do": "move", "node": 7},
                         {"t": 4000, "do": "lookup", "node": 0}]}
    elif name == "weak":
        sc = {"name": "ctl-weak", "mode": "weak", "rho": 2, "seed": 27,
              "graph": {"kind": "edges", "edges": WEAK_EDGES},
              "events": [{"t": 0, "do": "publish", "node": 0},
                         {"t": 400, "do": "fail", "edge": [3, 12]},
                         {"t": 1500, "do": "lookup", "node": 7},
                         {"t": 3000, "do": "move", "node": 9}]}
    else:
        raise KeyError(name)
    return Runtime(sc).run()


def doctored(name: str, doctor) -> dict:
    rec = copy.deepcopy(base_record(name))
    doctor(rec)
    return rec


def _first_op(rec, kind, **conds):
    for op in rec["ops"]:
        if op["kind"] != kind:
            continue
        if all(op.get(k) == v for k, v in conds.items()):
            return op
    raise LookupError(f"no {kind} op matching {conds}")


def _scale_rows(rec, match, factor=1000):
    hit = False
    for row in rec["ledger"]:
        if match(row["bucket"]):
            row["cost"] = str(int_or_frac(row["cost"]) * factor)
            hit = True
    assert hit, "mutation found no ledger rows"


def int_or_frac(s):
    from fractions import Fraction
    return Fraction(s) if isinstance(s, str) else Fraction(s)


def _d_completion(rec):
    rec["ops"][1]["phase"] = "up"


def _d_path_chain(rec):
    del rec["path"][2]


PLANTED_PARTITION_PROBLEM = "level 0: cluster 99 diameter 50 > 4"


def _d_partition(rec):
    rec["partition_post"] = dict(rec["partition_post"], ok=False,
                                 problems=[PLANTED_PARTITION_PROBLEM])


def _d_findings(rec):
    rec["findings"] = [{"what": "planted"}]


def _d_publish(rec):
    rec["publish"] = dict(rec["publish"], len="100000")


def _d_pair(rec):
    rec["path"][0]["dist_next"] = "99999"


def _d_linearization(rec):
    _first_op(rec, "look", phase="done")["version"] = 999


def _d_search_level(rec):
    op = _first_op(rec, "look", phase="done", transient=False,
                   stale_walk=False)
    _scale_rows(rec, lambda b: b.startswith(f"op:{op['id']}:L")
                and b.endswith(":query"))


def _d_lookup_total(rec):
    op = _first_op(rec, "look", phase="done", transient=False,
                   stale_walk=False)
    _scale_rows(rec, lambda b: b.startswith(f"op:{op['id']}")
                and not b.endswith(":reply"))


def _d_lookup_ratio(rec):
    for op in rec["ops"]:
        if (op["kind"] == "look" and op["phase"] == "done"
                and not op["transient"] and not op["stale_walk"]
                and op["f_at_issue"] == 0
                and (op["discovery_level"] or 0) >= 1):
            op["dist_at_issue"] = "1/1000"
            return
    raise LookupError("no discovered lookup to doctor")


def _d_move_ratio(rec):
    op = _first_op(rec, "move", phase="done")
    _scale_rows(rec, lambda b: b.startswith(f"op:{op['id']}"), factor=500)


def _d_split_count(rec):
    fr = rec["failures"][0]
    for k in range(fr["top"] + 2):
        fr["splits"].append({"level": 0, "parent": 900 + 2 * k,
                             "child": 901 + 2 * k, "size": 1,
                             "on_path": False})


def _d_descendants(rec):
    fr = rec["failures"][0]
    f_total = len(rec["failures"])
    for k in range(f_total + 1):
        fr["splits"].append({"level": 0, "parent": 900, "child": 901 + k,
                             "size": 1, "on_path": False})


def _d_extension(rec):
    chk = rec["failures"][0]["ext_check"]
    assert chk is not None
    chk["triggered"] = not chk["triggered"]


def _d_recluster_bcast(rec):
    row = _first_recluster_row(rec)
    row["bcast_msgs"] = 10 * rec["n"] * rec["n"]


def _d_recluster_dist(rec):
    row = _first_recluster_row(rec)
    row["bcast_max_dist"] = "99999"


def _d_recluster_xfer(rec):
    row = _first_recluster_row(rec)
    row["xfer_msgs"] = 3
    row["xfer_dist"] = "99999"


def _first_recluster_row(rec):
    for fr in rec["failures"]:
        for _cid, row in sorted(fr["stats"]["recluster"].items()):
            return row
    raise LookupError("no recluster rows")


def _d_path_update(rec):
    rec["failures"][0]["stats"]["path_update"]["msgs"] = 100000


def _d_sc_update(rec):
    rec["failures"][0]["stats"]["sc_update"].append(
        {"level": 0, "clamp": 0, "dist": "99999"})


def _d_preprocess_volume(rec):
    st = rec["failures"][0]["stats"]["preprocess"]
    st["msgs"] = rec["n"] * rec["n"] + 1


def _d_preprocess_dist(rec):
    rows = rec["failures"][0]["stats"]["preprocess"]["rows"]
    assert rows, "no fan rows to doctor"
    fan = sorted(rows)[0]
    rows[fan]["max_dist"] = "99999"


# formula id -> (base record, mutation)
CONTROLS = [
    ("completion", "clean", _d_completion),
    ("path-chain", "clean", _d_path_chain),
    ("post-partition", "fail", _d_partition),
    ("protocol-findings", "clean", _d_findings),
    ("publish-length", "clean", _d_publish),
    ("pair-distance", "clean", _d_pair),
    ("lookup-linearization", "clean", _d_linearization),
    ("search-level", "clean", _d_search_level),
    ("lookup-total", "clean", _d_lookup_total),
    ("lookup-ratio", "clean", _d_lookup_ratio),
    ("move-ratio", "clean", _d_move_ratio),
    ("split-count", "fail", _d_split_count),
    ("descendant-count", "weak", _d_descendants),
    ("extension-rule", "fail", _d_extension),
    ("recluster-broadcast", "fail", _d_recluster_bcast),
    ("recluster-distance", "fail", _d_recluster_dist),
    ("recluster-transfer", "fail", _d_recluster_xfer),
    ("path-update-shape", "fail", _d_path_update),
    ("sc-update-shape", "fail", _d_sc_update),
    ("preprocess-volume", "fail", _d_preprocess_volume),
    ("preprocess-distance", "fail", _d_preprocess_dist),
]

# formula id -> text the failing line's detail must contain
CONTROL_DETAILS = {"post-partition": PLANTED_PARTITION_PROBLEM}

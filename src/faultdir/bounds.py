"""Inequality checks over run records.

Every check here works from the JSON-safe dict produced by
``Runtime.record()``, never from live objects, so reports can be
regenerated offline from saved artifacts.  Formula ids used in report
lines are documented in the README bound table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from faultdir.partition import sigma_and_overlap
from faultdir.sim import BucketIndex


def _num(x):
    return None if x is None else Fraction(x)


class LedgerView:
    """Prefix sums over serialized cost ledger rows. A whole cost is kept
    as an int, which is cheaper to parse and add than a Fraction; the sums
    start at Fraction(0), so they come out as Fractions either way."""

    def __init__(self, rows: list[dict]):
        self.rows: dict[str, tuple[int, int | Fraction]] = {}
        self._index = BucketIndex()
        for r in rows:
            bucket, m, c = r["bucket"], r["messages"], r["cost"]
            c = int(c) if type(c) is int or c.isdecimal() else Fraction(c)
            if bucket in self.rows:
                m0, c0 = self.rows[bucket]
                m, c = m0 + m, c0 + c
            else:
                self._index.add(bucket)
            self.rows[bucket] = (m, c)

    def total(self, prefix: str) -> tuple[int, Fraction]:
        msgs, cost = 0, Fraction(0)
        for bucket in self._index.matching(prefix):
            m, c = self.rows[bucket]
            msgs += m
            cost += c
        return msgs, cost

    def level_costs(self, op_id: str, tag: str) -> dict[int, Fraction]:
        """level -> summed cost of the op:<id>:L<k>:<tag> buckets."""
        out: dict[int, Fraction] = {}
        for bucket in self._index.matching(f"op:{op_id}"):
            for oid, k, kind in _op_levels(bucket):
                if oid == op_id and kind == tag:
                    lvl = int(k)
                    out[lvl] = out.get(lvl, Fraction(0)) + self.rows[bucket][1]
        return out


def _op_levels(bucket: str):
    """Each reading of `bucket` as op:<id>:L<k>:<tag>, as (id, k, tag) with k
    as written; the id and the tag may hold ':' themselves."""
    at = bucket.find(":L", 3) if bucket.startswith("op:") else -1
    while at >= 0:
        k, _, tag = bucket[at + 2:].partition(":")
        yield bucket[3:at], k, tag
        at = bucket.find(":L", at + 1)


@dataclass
class CheckLine:
    formula: str
    passed: bool
    observed: str
    bound: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"formula": self.formula, "passed": self.passed,
                "observed": self.observed, "bound": self.bound,
                "detail": self.detail}


@dataclass
class BoundReport:
    lines: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(line.passed for line in self.lines)

    def add(self, formula, passed, observed, bound, detail="") -> None:
        self.lines.append(CheckLine(formula, bool(passed), str(observed),
                                    str(bound), detail))

    def as_dict(self) -> dict:
        return {"ok": self.ok, "lines": [l.as_dict() for l in self.lines]}

    def failed(self) -> list[CheckLine]:
        return [l for l in self.lines if not l.passed]


class _Group:
    """Folds many same-formula instances into a single report line."""

    def __init__(self, formula: str):
        self.formula = formula
        self.n = 0
        self.fails: list[str] = []
        self.worst = None  # (slack ratio, observed, bound, label)

    def hit(self, observed, bound, label: str) -> None:
        self.n += 1
        ok = observed <= bound
        if not ok:
            self.fails.append(f"{label}: {observed} > {bound}")
        if bound > 0:
            ratio = Fraction(observed) / bound
        else:
            ratio = Fraction(0) if observed <= 0 else Fraction(10 ** 9)
        if self.worst is None or ratio > self.worst[0]:
            self.worst = (ratio, observed, bound, label)

    def emit(self, rep: BoundReport, always: bool = False) -> None:
        if self.n == 0:
            if always:
                rep.add(self.formula, True, "-", "-", "no instances")
            return
        _ratio, obs, bnd, label = self.worst
        detail = f"{self.n} checked, tightest at {label}"
        if self.fails:
            shown = "; ".join(self.fails[:4])
            if len(self.fails) > 4:
                shown += f"; +{len(self.fails) - 4} more"
            detail += f"; FAILED {shown}"
        rep.add(self.formula, not self.fails, obs, bnd, detail)


def _is_exact(value) -> bool:
    """An int, or a string such as "3/2" that Fraction parses."""
    try:
        return type(value) is int or type(value) is str and (
            value.isdecimal() or Fraction(value) is not None)
    except (ValueError, ZeroDivisionError):
        return False


# What `check_bounds` reads of a record, and of what kind: a dict is a JSON object with
# those keys, [s] an array of s, ("map", k, s) an object of s keyed by strings of a
# `_MAP_KEYS` kind k (test, what a refusal calls them, least count) and ("null", s) s or
# null. A leaf is a `_LEAVES` kind (test, what a refusal calls it), "level" (an int in
# [-1, top]) or "f" (a failure count, an int in [0, len(failures)]); "?" allows null.
RECORD_SCHEMA = {
    "mode": "str", "rho": "exact", "sigma": "exact", "overlap": "exact", "top": "int",
    "n": "int", "d_alive": "exact", "c_prime": "exact", "radii": ("map", "level", "exact"),
    "failures": [{
        "fid": "int", "top": "level", "extension": ("null", {}),
        "splits": [{"child": "int?", "parent": "int", "level": "level"}],
        "ext_check": ("null", {"crossing": "bool", "triggered": "bool", "h": "level",
                               "h_new": "level?", "trigger_weight": "exact?",
                               "threshold": "exact", "far_dist": "exact"}),
        "stats": {"recluster": ("map", "cluster", {
                      "level": "level", "bcast_msgs": "int", "bcast_max_dist": "exact",
                      "max_dist": "exact", "xfer_msgs": "int", "xfer_dist": "exact"}),
                  "path_update": {"msgs": "int", "max_dist": "exact"},
                  "sc_update": [{"clamp": "level", "dist": "exact"}],
                  "preprocess": {"msgs": "int",
                                 "rows": ("map", "fan", {"max_dist": "exact"})}}}],
    "ledger": [{"bucket": "str", "messages": "int", "cost": "exact"}],
    "ops": [{"id": "str", "kind": "str", "phase": "str", "t_issue": "exact",
             "t_complete": "exact?", "f_at_complete": "f?",
             "discovery_level": "level?", "dist_at_issue": "exact?",
             "dist_prev_source": "exact?", "version": "int?", "read_t": "exact?"}],
    "path": [{"level": "level", "dist_next": "exact?", "pair_f": "f?"}],
    "publish": ("null", {"top": "level", "f": "f", "len": "exact"}),
    "partition_pre": {"levels": [{"r": "exact", "max_diameter": "exact",
                                  "max_overlap": "int"}], "ok": "bool"},
    "partition_post": {"ok": "bool"},
    "token_intervals": [{"version": "int", "t_from": "exact", "t_to": "exact?"}],
    "findings": [{}],
}
_LEAVES = {"str": (lambda v: type(v) is str, "a JSON string"),
           "bool": (lambda v: type(v) is bool, "a JSON boolean"),
           "int": (lambda v: type(v) is int, "a JSON integer"),
           "exact": (_is_exact, "an exact number")}
_MAP_KEYS = {"level": (lambda k: k.removeprefix("-").isdecimal(), "levels", 1),
             "cluster": (lambda k: k.removeprefix("-").isdecimal(), "cluster ids", 0),
             "fan": (_is_exact, "exact numbers", 0)}


def _compile(schema, leaves):
    """(test, what, walk) for a node of RECORD_SCHEMA, resolved once per walk, not
    per row: `test` checks a value's own kind, `walk(value, path)` what it holds."""
    if isinstance(schema, str) and not schema.endswith("?"):
        return (*leaves[schema], None)
    if isinstance(schema, dict):
        fields = [(key, *_compile(sub, leaves)) for key, sub in schema.items()]

        def walk(obj, path):
            for key, test, what, sub in fields:
                at = f"{path}.{key}" if path else key
                if not (key in obj and test(obj[key])):
                    raise KeyError(at) if key not in obj else ValueError(f"{at} is not {what}")
                if sub:
                    sub(obj[key], at)
        return (lambda v: type(v) is dict), "a JSON object", walk
    test, what, sub = _compile(schema[:-1] if isinstance(schema, str) else schema[-1], leaves)
    if isinstance(schema, str) or schema[0] == "null":  # "s?" is ("null", s)
        return ((lambda v: v is None or test(v)), f"{what} or null",
                sub and (lambda v, path: v is None or sub(v, path)))
    kind = dict if schema[0] == "map" else list
    key_test, keys, least = _MAP_KEYS[schema[1]] if kind is dict else (None, None, 0)

    def walk(items, path):  # the own kind of every item first, then what each holds
        if kind is dict and (len(items) < least or not all(map(key_test, items))):
            raise ValueError(f"{path} is not keyed by {keys}: {sorted(items)}")
        labels = items if kind is dict else range(len(items))
        for k in labels:
            if not test(items[k]):
                raise ValueError(f"{path}[{k!r}] is not {what}")
        for k in labels if sub else ():
            sub(items[k], f"{path}[{k!r}]")
    return (lambda v: type(v) is kind), f"a JSON {'object' if kind is dict else 'array'}", walk


def validate_record(record) -> None:
    """Refuse a record `check_bounds` cannot read: KeyError('ops[3].phase') for a
    missing key, ValueError for a wrong kind or a broken joint rule."""
    if type(record) is not dict:
        raise ValueError("not a JSON object")
    # the walk checks `top` and `failures` before any level or failure count
    top, failures = record.get("top"), record.get("failures")
    nf = len(failures) if type(failures) is list else 0
    is_level = lambda v: type(v) is int and -1 <= v <= top
    leaves = dict(_LEAVES, level=(is_level, f"a level in [-1, {top}]"), f=(
        lambda v: type(v) is int and 0 <= v <= nf, f"a failure count in [0, {nf}]"))
    _compile(RECORD_SCHEMA, leaves)[2](record, "")
    # the bounds divide by rho - 1 and by radii
    if Fraction(record["rho"]) < 2:
        raise ValueError(f"rho {record['rho']} is below 2")
    # the path chain walks the levels -1..top; radii keyed by exactly those
    # levels bound top by the file's size (the count is compared first)
    radii = record["radii"]
    if len(radii) != top + 2 or set(map(int, radii)) != set(range(-1, top + 1)):
        raise ValueError(f"radii is not keyed by exactly the levels -1 to top ({top})")
    for key, r in radii.items():
        if int(key) < 0 and Fraction(r) != 0:
            raise ValueError(f"radii[{key!r}] is {r}, not 0")
        if int(key) >= 0 and Fraction(r) <= 0:
            raise ValueError(f"radii[{key!r}] is {r}, not positive")
    # the first path reaches at least level 0
    publish = record["publish"]
    if publish is not None and publish["top"] < 0:
        raise ValueError(f"publish.top {publish['top']} is outside [0, {top}]")
    for k, op in enumerate(record["ops"]):
        if op["phase"] == "done" and op["t_complete"] is None:
            raise ValueError(f"ops[{k}] is done with a null t_complete")
        if op["phase"] == "done" and op["f_at_complete"] is None:
            raise ValueError(f"ops[{k}] is done with a null f_at_complete")
    # the search-level check reads k off every op:<id>:L<k>:<tag> bucket
    for row in record["ledger"]:
        for _op, k, _tag in _op_levels(row["bucket"]):
            if not (k.removeprefix("-").isdecimal() and is_level(int(k))):
                raise ValueError(f"ledger bucket {row['bucket']!r} names no level "
                                 f"in [-1, {top}]")
    levels = record["partition_pre"]["levels"]
    if not any(Fraction(row["r"]) > 0 for row in levels):
        raise ValueError("partition_pre has no exact level rows with r > 0")
    for key, value in zip(("sigma", "overlap"), sigma_and_overlap(levels)):
        if Fraction(record[key]) != value:
            raise ValueError(f"{key} {record[key]} does not match partition_pre ({value})")
    # `_check_descendants` climbs from each split child to its family root
    parent_of, rooted = _split_parents(record["failures"]), set()
    for node in parent_of:
        trail = set()
        while node in parent_of and node not in rooted:
            if node in trail:
                raise ValueError(f"the splits make cluster {node} its own ancestor")
            trail.add(node)
            node = parent_of[node]
        rooted |= trail


def _per_level_and_f(bound):
    """Memoise a `_Rec` bound per (level, f): a record asks for the same
    few pairs once per checked op."""
    name = bound.__name__

    @wraps(bound)
    def memo(self, level: int, f_seen: int) -> Fraction:
        key = (name, level, f_seen)
        value = self._bounds.get(key)
        if value is None:
            value = self._bounds[key] = bound(self, level, f_seen)
        return value

    return memo


class _Rec:
    """Parsed view of one run record."""

    def __init__(self, record: dict):
        self.rec = record
        self.mode = record["mode"]
        self.rho = Fraction(record["rho"])
        self.sigma = _num(record["sigma"])
        self.overlap = Fraction(record["overlap"])
        self.top = record["top"]
        self.n = record["n"]
        self.d_alive = _num(record["d_alive"])
        self.c_prime = _num(record["c_prime"])
        self.radii = {int(k): _num(v) for k, v in record["radii"].items()}
        self.f_total = len(record["failures"])
        self.led = LedgerView(record["ledger"])
        self._bounds: dict[tuple, Fraction] = {}  # see `_per_level_and_f`

    def radius(self, i: int) -> Fraction:
        # only the pair bound of a top path row with a dist_next asks past the top
        return self.radii[min(i, self.top)]

    def i_eff(self, f: int) -> Fraction:
        """The overlap inflated by f failures: each failure adds one
        cluster to a neighbourhood in strong mode and multiplies them in
        weak mode. Both equal the overlap at f = 0."""
        if self.mode == "strong":
            return self.overlap + f
        return (f + 1) * self.overlap

    # per-level search cost, one-way probe fan-out
    @_per_level_and_f
    def search_bound(self, j: int, f_seen: int) -> Fraction:
        r = self.radius(j)
        if f_seen == 0:
            return self.overlap * (1 + self.sigma) * r
        return self.i_eff(f_seen) * (1 + 2 * self.sigma) * r

    # distance between adjacent path nodes at levels j and j-1
    @_per_level_and_f
    def pair_bound(self, j: int, f_seen: int) -> Fraction:
        lo, hi = self.radius(j - 1), self.radius(j)
        s = self.sigma if f_seen == 0 else 2 * self.sigma
        return s * (lo + hi) + hi

    @_per_level_and_f
    def lookup_bound(self, level: int, f_seen: int) -> Fraction:
        """End-to-end request cost at discovery level ``level``: probes out
        and back per level, one intra-cluster jump, then the walk down."""
        lp = max(level, 0)
        total = Fraction(0)
        for j in range(0, lp + 1):
            total += 2 * self.search_bound(j, f_seen)
            total += self.pair_bound(j, f_seen)
        total += 2 * self.sigma * self.radius(lp)
        return total

    def move_level_coeff(self, f_seen: int) -> Fraction:
        """Per-level inventory of one relocation, as a multiple of the level
        radius: search fan-out, the two fresh links, and the long-range
        pointer rewrite (two messages within a cluster c'*sigma levels up)."""
        s, rho, i_eff = self.sigma, self.rho, self.i_eff(f_seen)
        if f_seen == 0:
            search = i_eff * (1 + s)
            link = s * (rho + 1) / rho + 1
        else:
            search = i_eff * (1 + 2 * s)
            link = 2 * s * (rho + 1) / rho + 1
        sc = 4 * self.c_prime * s * s
        return search + link + sc

    def move_c4(self, f_seen: int) -> Fraction:
        return self.move_level_coeff(f_seen) / (
            self.sigma * (self.sigma + self.i_eff(f_seen)))


# ---------------------------------------------------------------------------
# individual checks


def _check_completion(rx: _Rec, rep: BoundReport) -> None:
    bad = [(o["id"], o["phase"]) for o in rx.rec["ops"] if o["phase"] != "done"]
    rep.add("completion", not bad, len(rx.rec["ops"]) - len(bad),
            len(rx.rec["ops"]),
            "all requests finished" if not bad else f"stuck: {bad[:6]}")


def _check_path_chain(rx: _Rec, rep: BoundReport) -> None:
    levels = [row["level"] for row in rx.rec["path"]]
    if not levels and rx.rec["publish"] is None:
        rep.add("path-chain", True, "-", "-", "nothing published")
        return
    want = list(range(-1, rx.top + 1))
    rep.add("path-chain", levels == want, len(levels), len(want),
            "one pointer per level, bottom to root"
            if levels == want else f"levels {levels}")


def _check_partition(rx: _Rec, rep: BoundReport) -> None:
    pre = rx.rec["partition_pre"]
    post = rx.rec["partition_post"]
    ok = pre["ok"] and post["ok"]
    detail = ("structure holds before and after failures, diameters "
              "<= 2*sigma*r_i after failures; overlap reported, not bounded")
    if not ok:
        detail = f"pre={pre.get('problems')} post={post.get('problems')}"
    rep.add("post-partition", ok, "ok" if ok else "violated", "ok", detail)


def _check_publish(rx: _Rec, rep: BoundReport) -> None:
    snap = rx.rec["publish"]
    if snap is None:
        return
    h = snap["top"]
    s, rho = rx.sigma, rx.rho
    bound = s * (rho + 1) * (rho ** (h + 1) - 1) / ((rho - 1) * rho)
    note = ""
    if snap["f"] > 0:
        bound *= 2
        note = f" (doubled, {snap['f']} failures before publish)"
    obs = _num(snap["len"])
    rep.add("publish-length", obs <= bound, obs, bound,
            f"first path, height {h}{note}")


def _check_pairs(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("pair-distance")
    rows = rx.rec["path"]
    for row in rows:
        if row["dist_next"] is None:
            continue
        i = row["level"]
        grp.hit(_num(row["dist_next"]), rx.pair_bound(i + 1, row["pair_f"]),
                f"levels {i}/{i + 1}")
    grp.emit(rep)


def _check_linearization(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("lookup-linearization")
    by_version = {iv["version"]: iv for iv in rx.rec["token_intervals"]}
    for op in rx.rec["ops"]:
        if op["kind"] != "look" or op["phase"] != "done":
            continue
        iv = by_version.get(op["version"])
        ok = iv is not None and op["read_t"] is not None
        if ok:
            rt = _num(op["read_t"])
            t0, t1 = _num(iv["t_from"]), _num(iv["t_to"])
            ok = t0 <= rt and (t1 is None or rt <= t1)
            ok = ok and _num(op["t_issue"]) <= rt <= _num(op["t_complete"])
        grp.hit(0 if ok else 1, 0, op["id"])
    grp.emit(rep, always=True)


def _check_search_levels(rx: _Rec, rep: BoundReport) -> None:
    """Every done request, at the failures it saw by completion. A walk over
    links built before a later failure is covered too: each such link was
    built at `built_f <= f_at_issue <= f_at_complete`, the abstract's
    path-dilation claim covers it, and every bound grows with f."""
    grp = _Group("search-level")
    for op in rx.rec["ops"]:
        if op["kind"] not in ("look", "move") or op["phase"] != "done":
            continue
        f_seen = op["f_at_complete"]
        for lvl, cost in sorted(rx.led.level_costs(op["id"], "query").items()):
            grp.hit(cost, rx.search_bound(lvl, f_seen),
                    f"{op['id']} level {lvl}")
    grp.emit(rep, always=True)


def _check_lookup_total(rx: _Rec, rep: BoundReport) -> None:
    cost_grp = _Group("lookup-total")
    ratio_grp = _Group("lookup-ratio")
    for op in rx.rec["ops"]:
        if op["kind"] != "look" or op["phase"] != "done":
            continue
        lvl = op["discovery_level"]
        if lvl is None:
            continue
        f_seen = op["f_at_complete"]  # as in `_check_search_levels`
        _m, total = rx.led.total(f"op:{op['id']}")
        _m, reply = rx.led.total(f"op:{op['id']}:reply")
        measured = total - reply
        fb = rx.lookup_bound(lvl, f_seen)
        cost_grp.hit(measured, fb, f"{op['id']} L{lvl}")
        # competitive ratio against the distance to the owner at issue
        # time; only meaningful when discovery above level 0 guarantees
        # the owner was not arbitrarily close, and only for a request that
        # saw no failure: no floor on that distance is argued once
        # failures split the clusters the search probes
        d = _num(op["dist_at_issue"])
        if f_seen == 0 and lvl >= 1 and d and d > 0:
            floor = rx.radius(lvl - 1)
            ratio_grp.hit(measured / d, fb / floor, f"{op['id']} L{lvl}")
    cost_grp.emit(rep, always=True)
    ratio_grp.emit(rep, always=True)


def _check_move_ratio(rx: _Rec, rep: BoundReport) -> None:
    moves = [o for o in rx.rec["ops"]
             if o["kind"] == "move" and o["phase"] == "done"]
    if not moves:
        return
    paid = Fraction(0)
    base = Fraction(0)
    f_max = 0
    for op in moves:
        _m, cost = rx.led.total(f"op:{op['id']}")
        paid += cost
        d = _num(op["dist_prev_source"])
        if d is not None:
            base += d
        f_max = max(f_max, op["f_at_complete"])
    if base == 0:
        rep.add("move-ratio", True, paid, "-",
                f"{len(moves)} relocations but zero baseline, skipped")
        return
    h = rx.top
    c4 = rx.move_c4(f_max)
    bound = 2 * c4 * (h + 1) * rx.rho * rx.sigma * (rx.sigma + rx.i_eff(f_max))
    if f_max > 0:
        bound += rx.f_total * h * rx.d_alive / base
    ratio = paid / base
    rep.add("move-ratio", ratio <= bound, ratio, bound,
            f"{len(moves)} relocations, paid {paid} vs baseline "
            f"{base}, c4={c4}")


def _split_children(frec: dict) -> list[dict]:
    return [s for s in frec["splits"] if s["child"] is not None]


def _check_splits(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("split-count")
    for frec in rx.rec["failures"]:
        h = frec["top"]
        kids = [s for s in _split_children(frec) if s["level"] < h]
        bound = h if rx.mode == "strong" else rx.overlap * h
        grp.hit(Fraction(len(kids)), Fraction(bound), f"failure {frec['fid']}")
    grp.emit(rep)


def _split_parents(failures: list[dict]) -> dict[int, int]:
    """child -> parent over every split of every failure, the later wins."""
    return {s["child"]: s["parent"]
            for frec in failures for s in _split_children(frec)}


def _check_descendants(rx: _Rec, rep: BoundReport) -> None:
    parent_of = _split_parents(rx.rec["failures"])
    if not parent_of:
        return
    counts: dict[int, int] = {}
    for child, parent in parent_of.items():
        root = parent
        while root in parent_of:
            root = parent_of[root]
        counts[root] = counts.get(root, 1) + 1
    grp = _Group("descendant-count")
    for root, parts in sorted(counts.items()):
        grp.hit(Fraction(parts), Fraction(rx.f_total + 1), f"family {root}")
    grp.emit(rep)


def _check_extension_rule(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("extension-rule")
    for frec in rx.rec["failures"]:
        chk = frec["ext_check"]
        fid = frec["fid"]
        if chk is None:
            grp.hit(Fraction(0 if frec["extension"] is None else 1),
                    Fraction(0), f"failure {fid} (root untouched)")
            continue
        crossing = chk["crossing"]
        w = _num(chk["trigger_weight"])
        thresh = _num(chk["threshold"])
        far = _num(chk["far_dist"])
        should = bool(crossing and w is not None and w > thresh
                      and chk["h_new"] is not None and chk["h_new"] > chk["h"])
        did = chk["triggered"]
        ok = did == should and (frec["extension"] is not None) == did
        if ok and did:
            # new height must be the least one whose reach covers the far node
            hn = chk["h_new"]
            ok = rx.sigma * rx.rho ** hn > far and (
                hn == 0 or rx.sigma * rx.rho ** (hn - 1) <= far)
        grp.hit(Fraction(0 if ok else 1), Fraction(0), f"failure {fid}")
    grp.emit(rep)


def _check_recluster_shape(rx: _Rec, rep: BoundReport) -> None:
    msgs_grp = _Group("recluster-broadcast")
    dist_grp = _Group("recluster-distance")
    xfer_grp = _Group("recluster-transfer")
    a = 2
    for frec in rx.rec["failures"]:
        fid = frec["fid"]
        child_ids = {s["child"] for s in _split_children(frec)}
        for cid_s, row in frec["stats"]["recluster"].items():
            cid = int(cid_s)
            r = rx.radius(row["level"])
            is_child = cid in child_ids
            # parent trees are only pruned; split-off and rebuilt trees may
            # be rerooted once per failure they live through
            stretch = 1
            if is_child:
                stretch = 2 if rx.f_total == 1 else 2 ** rx.f_total
            base = rx.sigma * r
            label = f"f{fid} cluster {cid}"
            msgs_grp.hit(Fraction(row["bcast_msgs"]), Fraction(a * rx.n), label)
            dist_grp.hit(_num(row["bcast_max_dist"]), stretch * base,
                         label + " bcast")
            dist_grp.hit(_num(row["max_dist"]), stretch * base,
                         label + " notify")
            if rx.mode == "strong" and rx.f_total == 1:
                xfer_grp.hit(Fraction(row["xfer_msgs"]), Fraction(0), label)
            else:
                xfer_grp.hit(Fraction(row["xfer_msgs"]), Fraction(1), label)
                xfer_grp.hit(_num(row["xfer_dist"]), stretch * base,
                             label + " dist")
    msgs_grp.emit(rep)
    dist_grp.emit(rep)
    xfer_grp.emit(rep)


def _check_path_update_shape(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("path-update-shape")
    b = 16
    for frec in rx.rec["failures"]:
        st = frec["stats"]["path_update"]
        events = len(_split_children(frec)) + (
            1 if frec["extension"] is not None else 0)
        bound = Fraction(b * max(1, events))
        grp.hit(Fraction(st["msgs"]), bound, f"f{frec['fid']} msgs")
        grp.hit(_num(st["max_dist"]), rx.d_alive, f"f{frec['fid']} dist")
    grp.emit(rep)


def _check_sc_update_shape(rx: _Rec, rep: BoundReport) -> None:
    grp = _Group("sc-update-shape")
    for frec in rx.rec["failures"]:
        for k, row in enumerate(frec["stats"]["sc_update"]):
            bound = 2 * rx.sigma * rx.radius(row["clamp"])
            grp.hit(_num(row["dist"]), bound, f"f{frec['fid']} row {k}")
    grp.emit(rep)


def _check_preprocess_shape(rx: _Rec, rep: BoundReport) -> None:
    msgs_grp = _Group("preprocess-volume")
    dist_grp = _Group("preprocess-distance")
    for frec in rx.rec["failures"]:
        pre = frec["stats"]["preprocess"]
        msgs_grp.hit(Fraction(pre["msgs"]), Fraction(rx.n * rx.n),
                     f"f{frec['fid']}")
        for fan_s, row in pre["rows"].items():
            dist_grp.hit(_num(row["max_dist"]), _num(fan_s),
                         f"f{frec['fid']} fan {fan_s}")
    msgs_grp.emit(rep)
    dist_grp.emit(rep)


def _check_findings(rx: _Rec, rep: BoundReport) -> None:
    finds = rx.rec["findings"]
    rep.add("protocol-findings", not finds, len(finds), 0,
            "no invariant trips" if not finds else str(finds[:4]))


CHECKS = (
    _check_completion,
    _check_path_chain,
    _check_partition,
    _check_findings,
    _check_publish,
    _check_pairs,
    _check_linearization,
    _check_search_levels,
    _check_lookup_total,
    _check_move_ratio,
    _check_splits,
    _check_descendants,
    _check_extension_rule,
    _check_recluster_shape,
    _check_path_update_shape,
    _check_sc_update_shape,
    _check_preprocess_shape,
)


def check_bounds(record: dict) -> BoundReport:
    rx = _Rec(record)
    rep = BoundReport()
    for chk in CHECKS:
        chk(rx, rep)
    return rep

"""Command line front end.

Subcommands:
    run             simulate a scenario file, write record/events/ledger
    check           evaluate the bound report for a saved record
    gen             generate a seeded random scenario file
    partition-stats build the cluster hierarchy for a graph and dump it

`check` exits nonzero when any inequality fails, so it can gate CI. The
`faultdir` command (`console`) exits 2 with one line on stderr when `run`
is given a scenario file it cannot read or that is invalid, or `check` a
record it cannot read or that `bounds.validate_record` refuses, and 3
with one line when a `run` hits the simulator's event limit in one
settle (a likely livelock); `main` raises instead.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys

from faultdir.bounds import check_bounds, validate_record
from faultdir.partition import build_hierarchy
from faultdir.scenario import Runtime, build_graph
from faultdir.sim import EventLimitExceeded


def _graph_spec(text: str) -> dict:
    """Parse compact graph descriptions: ring:12, grid:4x5, path:9,
    random:16:0.3 or random:16:0.3:seed (seed 0 when not given; it is
    written into the spec so scenario files name their graph fully)."""
    kind, *f = text.split(":")
    try:
        if kind == "grid" and len(f) == 1:
            rows, _, cols = f[0].partition("x")
            spec = {"kind": kind, "rows": int(rows), "cols": int(cols)}
        elif kind in ("ring", "path") and len(f) == 1:
            spec = {"kind": kind, "n": int(f[0])}
        elif kind == "random" and len(f) in (2, 3):
            spec = {"kind": kind, "n": int(f[0]), "p": float(f[1]),
                    "seed": int(f[2]) if len(f) > 2 else 0}
        else:
            raise ValueError("expected ring:N, path:N, grid:RxC or "
                             "random:N:P[:SEED]")
        if build_graph(spec).n < 2:
            raise ValueError("fewer than two nodes")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad graph spec {text!r}: {exc}") \
            from None
    return spec


def _share(text: str) -> float:
    """Parse a share in [0, 1], such as `gen --moves 0.2`."""
    try:
        x = float(text)
    except ValueError:
        x = None
    if x is None or not 0 <= x <= 1:  # NaN too
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return x


LEDGER_COLUMNS = ("bucket", "messages", "cost", "const", "logn", "nlogn")


def _write_artifacts(rt: Runtime, record: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        # streamed: one json.dumps string gives the same bytes but raised
        # steady-ops peak RSS by about 3.4 MB (11%)
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "events.jsonl"), "w") as fh:
        fh.write(rt.sim.dump_events())
    with open(os.path.join(out_dir, "ledger.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LEDGER_COLUMNS)
        w.writerows([row[k] for k in LEDGER_COLUMNS] for row in record["ledger"])


def _bad_input(exc, args, path: str) -> None:
    """Mark `exc` as bad input, not a program defect, for `console`."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    exc.bad_input = f"faultdir {args.cmd}: {path}: {what}"


def cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            sc = json.load(fh)
        rt = Runtime(sc)
    except (OSError, ValueError, KeyError) as exc:
        _bad_input(exc, args, args.scenario)
        raise
    record = rt.run()
    _write_artifacts(rt, record, args.out_dir)
    done = sum(1 for o in record["ops"] if o["phase"] == "done")
    print(f"{sc.get('name', args.scenario)}: {done}/{len(record['ops'])} ops "
          f"done, {len(record['failures'])} failures, "
          f"{record['event_count']} events -> {args.out_dir}")
    if record["findings"]:
        print(f"findings: {record['findings']}", file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    try:
        with open(args.record) as fh:
            record = json.load(fh)
        validate_record(record)
    except (OSError, ValueError, KeyError) as exc:
        _bad_input(exc, args, args.record)
        raise
    rep = check_bounds(record)
    out_path = args.out or os.path.join(os.path.dirname(args.record) or ".",
                                        "bound_report.json")
    with open(out_path, "w") as fh:
        json.dump(rep.as_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in rep.lines:
        mark = "PASS" if line.passed else "FAIL"
        print(f"[{mark}] {line.formula}: observed {line.observed} "
              f"bound {line.bound} ({line.detail})")
    print(f"report -> {out_path}")
    return 0 if rep.ok else 1


def _gen_scenario(graph_spec: dict, mode: str, rho: int, seed: int,
                  ops: int, failures: int, horizon: int,
                  concurrent: bool = True, move_frac: float = 0.5) -> dict:
    rng = random.Random(seed)
    g = build_graph(graph_spec)
    nodes = g.nodes()
    kills = []
    attempts = 0
    while len(kills) < failures and attempts < 300:
        attempts += 1
        e = rng.choice(sorted(g.alive_edges()))
        if g.would_disconnect(e):
            continue
        g.kill_edge(e)
        kills.append(e)

    events = [{"t": 0, "do": "publish", "node": rng.choice(nodes)}]
    slots = ops + len(kills)
    step = max(1, horizon // max(slots, 1))
    t = 0
    n_moves = int(round(ops * move_frac))
    kinds = ["lookup"] * (ops - n_moves) + ["move"] * n_moves
    rng.shuffle(kinds)
    pending_kills = list(kills)
    last_mover = events[0]["node"]
    for kind in kinds:
        t += rng.randint(1, 2 * step)
        node = rng.choice(nodes)
        ev = {"t": t, "do": kind, "node": node}
        if kind == "move":
            while node == last_mover and len(nodes) > 1:
                node = rng.choice(nodes)
            ev["node"] = node
            last_mover = node
        if pending_kills and rng.random() < 0.5:
            e = pending_kills.pop(0)
            if concurrent and kind == "lookup" and rng.random() < 0.5:
                ev["fail_during"] = list(e)
                ev["fail_delay"] = rng.randint(0, 3)
            else:
                events.append({"t": t, "do": "fail", "edge": list(e)})
                t += rng.randint(1, step)
                ev["t"] = t
        events.append(ev)
    for e in pending_kills:
        t += rng.randint(1, step)
        events.append({"t": t, "do": "fail", "edge": list(e)})
    events.sort(key=lambda ev: ev["t"])
    return {"name": f"gen-{graph_spec['kind']}-s{seed}", "mode": mode,
            "rho": rho, "seed": seed, "graph": graph_spec, "events": events}


def cmd_gen(args) -> int:
    sc = _gen_scenario(args.graph, args.mode, args.rho, args.seed,
                       args.ops, args.failures, args.horizon,
                       move_frac=args.moves)
    out = args.out or os.path.join(args.out_dir, f"{sc['name']}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        json.dump(sc, fh, indent=1)
        fh.write("\n")
    print(f"{len(sc['events'])} events -> {out}")
    # the generator stops short when no edge is left whose loss keeps the
    # graph connected
    got = sum(1 for ev in sc["events"]
              if ev["do"] == "fail" or "fail_during" in ev)
    print(f"{got} of {args.failures} requested failures generated",
          file=sys.stderr)
    return 0


def cmd_partition_stats(args) -> int:
    g = build_graph(args.graph)
    hier = build_hierarchy(g, rho=args.rho, mode=args.mode, seed=args.seed)
    chk = hier.pre_check
    out = {
        "n": g.n, "mode": hier.mode, "rho": hier.rho,
        "diameter": str(hier.diameter0), "top": hier.top,
        "sigma": str(hier.sigma), "overlap": hier.overlap,
        "radii": {str(i): str(hier.radius(i))
                  for i in range(-1, hier.top + 1)},
        "shortcut_offset": hier.shortcut_offset,
        "valid": chk["ok"],
        "levels": [
            {"level": lvl,
             "clusters": [{"id": c.id, "leader": c.leader,
                           "size": len(c.members)}
                          for c in hier.clusters_at(lvl)]}
            for lvl in hier.all_levels() if lvl >= 0
        ],
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0 if chk["ok"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="faultdir",
                                 description="directory protocol simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_chk = sub.add_parser("check", help="evaluate bounds for a record")
    p_chk.add_argument("record")
    p_chk.add_argument("--out", default=None)
    p_chk.set_defaults(fn=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a seeded scenario")
    p_gen.add_argument("--graph", type=_graph_spec, default="ring:12")
    p_gen.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p_gen.add_argument("--rho", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--ops", type=int, default=8)
    p_gen.add_argument("--failures", type=int, default=1)
    p_gen.add_argument("--horizon", type=int, default=5000)
    p_gen.add_argument("--moves", type=_share, default=0.5,
                       help="share of the ops that are moves")
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--out-dir", default="out")
    p_gen.set_defaults(fn=cmd_gen)

    p_ps = sub.add_parser("partition-stats", help="dump the hierarchy")
    p_ps.add_argument("--graph", type=_graph_spec, default="ring:12")
    p_ps.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p_ps.add_argument("--rho", type=int, default=2)
    p_ps.add_argument("--seed", type=int, default=0)
    p_ps.set_defaults(fn=cmd_partition_stats)

    args = ap.parse_args(argv)
    return args.fn(args)


def console(argv=None) -> int:
    """The `faultdir` command: `main`, but an input file that cannot be
    read or is invalid gets one line on stderr and exit code 2, and a run
    that exceeds the event limit one line and exit code 3, not a
    traceback. Other errors from running a valid scenario or checking a
    complete record still propagate."""
    try:
        return main(argv)
    except EventLimitExceeded as exc:
        print(f"faultdir run: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        if not hasattr(exc, "bad_input"):
            raise
        print(exc.bad_input, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())

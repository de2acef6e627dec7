"""Benchmark of the faultdir user pipeline: `faultdir run`, then `faultdir check`.

    python3 perfbench/run.py --workload steady-ops --seed 1 --seconds 30 --trace 0

Each run generates the workload's `scenarios` scenarios from --seed (with
the generator behind `faultdir gen`), writes them to .perfbench_work/, and
drives `faultdir.cli.main(["run", ...])` then `main(["check", ...])` on
each, in this process, round-robin, round after round until --seconds
have passed (at least MIN_ROUNDS rounds). The load is a closed loop with one
client: `Runtime.run` issues each scenario event only after the previous
one has settled.

Every repetition is checked: op phases and the bound report are counted;
sha256 of record.json/events.jsonl/ledger.csv and the exact counters must
match the first repetition of the same scenario, or the run stops with
exit code 1 and no result (nondeterminism).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
round, then traced rounds (see tracing.py), and prints the per-layer
metrics. The last line of stdout is the JSON result. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))
try:
    import faultdir
    from faultdir import cli
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import faultdir from {SRC}: {exc}")
if Path(faultdir.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"perfbench: faultdir imported from {faultdir.__file__}, "
                     f"not from {SRC}")

from tracing import Tracer  # noqa: E402  (needs faultdir on sys.path)

# Why each shape: see README.md next to this file. `scenarios` is how many
# distinct scenarios one run cycles through; their mean damps the
# scenario-to-scenario spread that a single seed would carry.
WORKLOADS = {
    "steady-ops": {"graph": "grid:8x8", "mode": "strong", "ops": 300,
                   "failures": 0, "move_frac": 0.5, "scenarios": 3},
    "repair-storm": {"graph": "grid:12x12", "mode": "strong", "ops": 30,
                     "failures": 40, "move_frac": 0.0, "scenarios": 4},
    "setup-large": {"graph": "grid:14x14", "mode": "weak", "ops": 40,
                    "failures": 4, "move_frac": 0.5, "scenarios": 3},
}
# The hierarchy's random shifts are seeded by the scenario's "seed" field.
# It is pinned, so --seed varies the request and failure trace while every
# run of a workload measures the same hierarchy; with it free, the size of
# the simulated work moves by about 14% from seed to seed (8x8 strong).
PARTITION_SEED = 0
RHO = 2
HORIZON = 5000
# Host times are reported at a fixed reference speed: each repetition's
# times are multiplied by REFERENCE_S / (the mean of `reference_work()`
# timed just before and just after it). On a shared 2-core x86 VM the
# host speed swings up to 2x for tens of seconds at a time; the probe slows
# with it, so the ratio stays put where raw medians jump between modes.
REFERENCE_S = 0.125
# Every scenario runs at least twice, so that repetitions can be compared;
# further rounds run while they fit in --seconds.
MIN_ROUNDS = 2
ARTIFACTS = ("record.json", "events.jsonl", "ledger.csv")

END_TO_END = {"setup_s": "s", "run_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
SPANS = [
    "graph.build_spt", "graph.spt_repair", "graph.dijkstra", "graph.distance",
    "partition.build_hierarchy", "partition.measure",
    "partition.preprocess_leaders", "partition.cluster_diameter",
    "partition.verify", "sim.ledger_total", "sim.charge_only",
    "protocol.handler", "protocol.start", "protocol.reevaluate",
    "failure.fail_edge", "failure.handler", "failure.setup_index",
    "scenario.validate", "scenario.record", "bounds.check_bounds",
    "bounds.ledger_view_total", "cli.write_artifacts",
]
PER_LAYER = {f"{name}.s": "s" for name in SPANS}
PER_LAYER.update({f"{name}.calls": "count" for name in SPANS})
PER_LAYER.update({
    "sim.run.self_s": "s", "sim.run.calls": "count",
    "failure.timer.calls": "count",
    "sim.heap_events": "count", "sim.events_per_s": "1/s",
    "sim.ledger_rows": "count", "sim.messages": "count", "sim.cost": "cost",
    "sim.cost_per_op": "cost", "sim.repair_cost_per_failure": "cost",
    "cli.check_s": "s",
    "protocol.lookup_ms_p50": "ms", "protocol.lookup_ms_p95": "ms",
    "protocol.move_ms_p50": "ms", "protocol.move_ms_p95": "ms",
    "protocol.op_ms_drift": "ratio", "failure.repair_ms_p50": "ms",
    "cli.artifact_bytes": "bytes",
    "bounds.failed_formulas": "count", "scenario.ops_failed": "count",
    "trace.total_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
})
# Counts from the traced run that must repeat exactly for one scenario, on
# top of the digests and the counters every run compares (Rep.exact).
EXACT_TRACED = ("graph.dijkstra.calls", "scenario.record.calls",
                "graph.spt_repair.calls", "sim.ledger_total.calls")


def make_scenario(workload: str, seed: int) -> dict:
    shape = WORKLOADS[workload]
    sc = cli._gen_scenario(cli._graph_spec(shape["graph"]), shape["mode"],
                           RHO, seed, shape["ops"], shape["failures"],
                           HORIZON, move_frac=shape["move_frac"])
    sc["seed"] = PARTITION_SEED
    return sc


def scenario_seeds(workload: str, seed: int) -> list[int]:
    """Distinct, reproducible scenario seeds for one benchmark seed."""
    k = WORKLOADS[workload]["scenarios"]
    return [seed * k + i for i in range(k)]


@dataclass
class Rep:
    """One pass of the pipeline over one scenario."""
    setup_s: float = 0.0
    run_s: float = 0.0
    check_s: float = 0.0
    total_s: float = 0.0
    sim_run_s: float = 0.0
    latencies: list = field(default_factory=list)  # (kind, seconds), in issue order
    attempted: int = 0
    ops_failed: int = 0
    error: str | None = None  # the exception that cut the pipeline short
    failed_formulas: list = field(default_factory=list)
    rc: tuple = (0, 0)
    digests: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    cost_per_op: Fraction = Fraction(0)
    repair_cost_per_failure: Fraction = Fraction(0)
    layers: dict = field(default_factory=dict)

    def rescale(self, factor: float) -> None:
        """Express every host time of this repetition at reference speed."""
        for name in ("setup_s", "run_s", "check_s", "total_s", "sim_run_s"):
            setattr(self, name, getattr(self, name) * factor)
        self.latencies = [(kind, t * factor) for kind, t in self.latencies]
        for key in self.layers:
            if key.endswith((".s", "self_s", "total_s")):
                self.layers[key] *= factor


def reference_work() -> float:
    """Host speed probe: fixed interpreter-bound work of the kinds faultdir
    does (dict graphs, a binary heap, string keys, Fractions). Returns its
    wall time in seconds."""
    t0 = perf_counter()
    n = 3000
    adj = {u: {(u * 7 + k) % n: k % 4 + 1 for k in range(1, 6)} for u in range(n)}
    for src in range(0, n, 300):
        dist, heap, done = {src: 0}, [(0, src)], set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u].items():
                if v not in dist or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    rows = {}
    for i in range(20000):
        row = rows.setdefault(f"op:o{i % 500}:L{i % 7}:tag", [0, Fraction(0)])
        row[0] += 1
        row[1] += Fraction(i % 5, 3)
    sum(1 for bucket in rows if bucket.startswith("op:o1"))
    return perf_counter() - t0


class Probe:
    """Times set-up, each op and each plain failure of one Runtime from
    outside: an op runs from its `Directory.start_*` call to the end of
    the `Simulator.run` that settles it; a failure from
    `FailureEngine.fail_edge` to the same point."""

    def __init__(self, rep: Rep, tracer: Tracer | None, events: list):
        self.rep = rep
        self.tracer = tracer
        self.runtime = None
        self.pending = None
        self.in_sim = False
        self.events = 0
        # an op carrying fail_during also times the repair it triggers
        self.kinds = [ev["do"] + (":fail_during" if ev.get("fail_during") else "")
                      for ev in events]

    def make_runtime(self, real_runtime):
        def build(sc):
            t0 = perf_counter()
            rt = real_runtime(sc)
            self.rep.setup_s = perf_counter() - t0
            self.attach(rt)
            return rt
        return build

    def attach(self, rt) -> None:
        self.runtime = rt
        if self.tracer is not None:
            self.tracer.wrap_runtime(rt)
        for name in ("start_publish", "start_lookup", "start_move"):
            setattr(rt.dir, name, self._issuer(getattr(rt.dir, name)))
        rt.engine.fail_edge = self._issuer(rt.engine.fail_edge)
        rt.sim.run = self._settler(rt.sim.run)

    def _issuer(self, fn):
        def issue(*args):
            if not self.in_sim:  # fail_during injections belong to their op
                self.pending = (self.kinds[self.events], perf_counter())
                self.events += 1
                if self.tracer is not None:
                    self.tracer.op = self.events
            return fn(*args)
        return issue

    def _settler(self, fn):
        def settle(*args):
            self.in_sim = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter()
                self.in_sim = False
                self.rep.sim_run_s += t1 - t0
                if self.pending is not None:
                    kind, t_issue = self.pending
                    self.rep.latencies.append((kind, t1 - t_issue))
                    self.pending = None
        return settle


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(sc_path: Path, out_dir: Path, tracer: Tracer | None = None) -> Rep:
    """`faultdir run` then `faultdir check` on one scenario file. An
    exception from the program is kept in Rep.error and every op of the
    scenario counts as failed."""
    rep = Rep()
    sc = json.loads(sc_path.read_text())
    rep.attempted = sum(1 for ev in sc["events"] if ev["do"] != "fail")
    probe = Probe(rep, tracer, sc["events"])
    real_runtime = cli.Runtime
    sink = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(sink))
        cli.Runtime = probe.make_runtime(real_runtime)
        stack.callback(setattr, cli, "Runtime", real_runtime)
        t0 = perf_counter()
        try:
            rc_run = cli.main(["run", str(sc_path), "--out-dir", str(out_dir)])
            t1 = perf_counter()
            rc_check = cli.main(["check", str(out_dir / "record.json")])
        except Exception as exc:  # a program defect: report it, keep measuring
            rep.error = f"{type(exc).__name__}: {exc}"
            rep.ops_failed = rep.attempted
            return rep
        t2 = perf_counter()
    rep.run_s = t1 - t0 - rep.setup_s
    rep.check_s = t2 - t1
    rep.total_s = t2 - t0
    rep.rc = (rc_run, rc_check)
    evaluate(rep, out_dir)
    rep.exact["heap_events"] = probe.runtime.sim._processed
    if tracer is not None:
        collect_layers(rep, tracer)
    return rep


def evaluate(rep: Rep, out_dir: Path) -> None:
    """Read the artifacts back: op outcomes, bound failures, digests and
    exact counters. A failed op or formula is counted, never raised."""
    record = json.loads((out_dir / "record.json").read_text())
    report = json.loads((out_dir / "bound_report.json").read_text())
    ops = record["ops"]
    rep.ops_failed = (sum(1 for o in ops if o["phase"] != "done")
                      + rep.attempted - len(ops))
    rep.failed_formulas = sorted({line["formula"] for line in report["lines"]
                                  if not line["passed"]})
    rep.digests = {name: sha256(out_dir / name) for name in ARTIFACTS}
    ledger = record["ledger"]
    rep.exact.update({
        "event_count": record["event_count"],
        "ledger_rows": len(ledger),
        "messages": sum(row["messages"] for row in ledger),
        "cost": sum(Fraction(row["cost"]) for row in ledger),
        "failures": len(record["failures"]),
        "artifact_bytes": sum((out_dir / name).stat().st_size
                              for name in ARTIFACTS),
    })
    if ops:
        rep.cost_per_op = sum(Fraction(o["cost"]) for o in ops) / len(ops)
    if record["failures"]:
        repair = sum(Fraction(c["cost"]) for f in record["failures"]
                     for c in f["costs"].values())
        rep.repair_cost_per_failure = repair / len(record["failures"])


def collect_layers(rep: Rep, tracer: Tracer) -> None:
    layers = rep.layers
    for name in SPANS:
        layers[f"{name}.s"] = tracer.self_s.get(name, 0.0)
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
    layers["sim.run.self_s"] = tracer.self_s.get("sim.run", 0.0)
    layers["sim.run.calls"] = tracer.calls.get("sim.run", 0)
    layers["failure.timer.calls"] = tracer.calls.get("failure.timer", 0)
    layers["trace.spans"] = len(tracer.spans)
    layers["trace.total_s"] = rep.total_s


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values, p: int) -> float:
    """Inclusive percentile; 0.0 for an empty sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Scenario:
    """One generated scenario and every repetition run on it."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.seed = seed
        self.path = work / f"scenario-s{seed}.json"
        self.out = work / f"out-s{seed}"
        self.path.write_text(json.dumps(make_scenario(workload, seed), indent=1) + "\n")
        self.reps: list[Rep] = []
        self.traced: list[Rep] = []

    def run(self, tracer: Tracer | None) -> Rep:
        gc.collect()
        rep = run_pipeline(self.path, self.out, tracer)
        first = (self.reps or self.traced or [rep])[0]
        self._same(first.error, rep.error, "outcome")
        self._same(first.digests, rep.digests, "artifact digests")
        self._same(first.exact, rep.exact, "exact counters")
        self._same([k for k, _ in first.latencies], [k for k, _ in rep.latencies],
                   "op order")
        if tracer is not None and self.traced and rep.error is None:
            for key in EXACT_TRACED:
                self._same(self.traced[0].layers[key], rep.layers[key], key)
        (self.traced if tracer is not None else self.reps).append(rep)
        return rep

    def _same(self, a, b, what: str) -> None:
        if a != b:
            raise SystemExit(f"perfbench: nondeterminism on scenario seed "
                             f"{self.seed}: {what} {a!r} != {b!r}")

    @property
    def completed(self) -> bool:
        return (self.reps or self.traced)[0].error is None

    def op_latencies(self, *kinds: str) -> list[float]:
        """Per-op median over untraced repetitions, in issue order."""
        per_rep = [[t for k, t in rep.latencies if k in kinds] for rep in self.reps]
        return [statistics.median(ts) for ts in zip(*per_rep)]

    def median_of(self, attr: str, traced: bool = False) -> float:
        return median([getattr(rep, attr) for rep in (self.traced if traced else self.reps)])


def end_to_end(scenarios: list[Scenario]) -> dict:
    values = {name: mean([s.median_of(name) for s in scenarios])
              for name in ("setup_s", "run_s", "total_s")}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer(scenarios: list[Scenario]) -> dict:
    values = {key: mean([median([r.layers[key] for r in s.traced]) for s in scenarios])
              for key in scenarios[0].traced[0].layers}
    first = [s.reps[0] for s in scenarios]
    for key in ("heap_events", "ledger_rows", "messages"):
        values[f"sim.{key}"] = mean([r.exact[key] for r in first])
    values["sim.cost"] = float(mean([r.exact["cost"] for r in first]))
    values["sim.events_per_s"] = mean([r.exact["heap_events"] / r.sim_run_s for r in first])
    values["sim.cost_per_op"] = float(mean([r.cost_per_op for r in first]))
    values["sim.repair_cost_per_failure"] = float(
        mean([r.repair_cost_per_failure for r in first]))
    values["cli.artifact_bytes"] = mean([r.exact["artifact_bytes"] for r in first])
    values["cli.check_s"] = mean([s.median_of("check_s") for s in scenarios])
    lookups = [t for s in scenarios for t in s.op_latencies("lookup")]
    values["protocol.lookup_ms_p50"] = 1e3 * median(lookups)
    values["protocol.lookup_ms_p95"] = 1e3 * percentile(lookups, 95)
    moves = [t for s in scenarios for t in s.op_latencies("move")]
    values["protocol.move_ms_p50"] = 1e3 * median(moves)
    values["protocol.move_ms_p95"] = 1e3 * percentile(moves, 95)
    drifts = []
    for s in scenarios:
        ops = s.op_latencies("lookup", "move")
        q = max(1, len(ops) // 4)
        drifts.append(median(ops[-q:]) / median(ops[:q]))
    values["protocol.op_ms_drift"] = mean(drifts)
    values["failure.repair_ms_p50"] = 1e3 * median(
        [t for s in scenarios for t in s.op_latencies("fail")])
    values["trace.overhead_s"] = mean([s.median_of("total_s", traced=True)
                                       - s.median_of("total_s") for s in scenarios])
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = WORK / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    scenarios = [Scenario(args.workload, s, work)
                 for s in scenario_seeds(args.workload, args.seed)]
    t_start = perf_counter()
    refs = [reference_work()]
    rounds = 0
    round_s = 0.0
    # with --trace 1 the first round is untraced, as the overhead baseline
    while (rounds < MIN_ROUNDS
           or perf_counter() - t_start + round_s <= args.seconds):
        t_round = perf_counter()
        traced = args.trace == 1 and rounds > 0
        for s in scenarios:
            tracer = Tracer() if traced else None
            rep = s.run(tracer)
            refs.append(reference_work())
            rep.rescale(2 * REFERENCE_S / (refs[-2] + refs[-1]))
            if tracer is not None and rep.error is None:
                tracer.dump(work / f"spans-s{s.seed}.jsonl.gz")
        rounds += 1
        round_s = perf_counter() - t_round

    reps = [r for s in scenarios for r in s.reps + s.traced]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.ops_failed for r in reps)
    bad_formulas = sorted({f for r in reps for f in r.failed_formulas})
    bad_rc = sorted({r.rc for r in reps if r.rc != (0, 0)})
    done = [s for s in scenarios if s.completed]
    if not done:
        raise SystemExit(f"perfbench: every scenario failed: {scenarios[0].reps[0].error}")

    digests = {s.seed: s.reps[0].digests for s in done}
    (work / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"# {args.workload} seed {args.seed}: {len(scenarios)} scenarios x "
          f"{rounds} rounds in {perf_counter() - t_start:.1f} s")
    print(f"# host speed: reference_work median {median(refs):.4f} s "
          f"(range {min(refs):.4f}-{max(refs):.4f}); times are scaled to "
          f"{REFERENCE_S} s")
    for s in scenarios:
        if s.completed:
            print(f"# scenario seed {s.seed}: " + " ".join(
                f"{name}={s.reps[0].digests[name][:16]}" for name in ARTIFACTS))
        else:
            print(f"# scenario seed {s.seed}: FAILED {s.reps[0].error}")
    if failed or bad_formulas or bad_rc:
        print(f"# failures: ops {failed}/{attempted}, formulas {bad_formulas}, "
              f"exit codes {bad_rc}")

    if args.trace:
        values = per_layer(done)
        values["bounds.failed_formulas"] = len(bad_formulas)
        values["scenario.ops_failed"] = failed
        units = PER_LAYER
        shares = [(values[f"{n}.s"], n) for n in SPANS]
        shares.append((values["sim.run.self_s"], "sim.run.self"))
        for v, n in sorted(shares, reverse=True)[:12]:
            print(f"# share {n}: {100 * v / values['trace.total_s']:.1f}% of traced total")
    else:
        values = end_to_end(done)
        units = END_TO_END
    metrics = {}
    for key, unit in units.items():
        print(f"{key} = {values[key]:.6g} {unit}")
        metrics[key] = {"value": values[key], "unit": unit}
    correct = not bad_formulas and not bad_rc
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checked benchmark of qlaumon, end to end and per layer.

    python3 benchmark/run.py --workload verify-rational --seed 1 \\
        --seconds 30 --trace 0

runs one workload in this process: set-up (import qlaumon and build the
operations, repeated and timed), then whole rounds of the
workload's operations for --seconds, each operation timed and its output
checked, then the once-per-run checks outside the timed region.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (a traced run measures
half its time untraced and half traced, and reports the difference as
the tracing overhead).  Details go to benchmark/results/.

    python3 benchmark/run.py --workload all

runs every workload, untraced and traced, each in its own process, and
prints a table.  The loop is closed and single-threaded: one caller, and
each operation starts after the previous one ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import LAYER_METRICS, Tracer, op_layer_values
from workloads import WORKLOADS, Operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# An untraced run times SETUP_BATCH set-ups at its start and again
# whenever a SETUP_POINTS-th of its length has passed.
SETUP_BATCH = 3
SETUP_POINTS = 6

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("max_op_s", "s"),
              ("peak_rss_mb", "MB")]


def fresh_import():
    """Import qlaumon (with every submodule, through its CLI) from scratch."""
    for name in [m for m in sys.modules
                 if m == "qlaumon" or m.startswith("qlaumon.")]:
        del sys.modules[name]
    importlib.import_module("qlaumon.cli")
    return sys.modules["qlaumon"]


def run_op(op, tracer):
    """Run one operation and check its output; returns a record with its
    wall time and the problem found, if any.  An operation that raises,
    or whose output cannot even be checked, has failed."""
    if tracer is not None:
        tracer.begin()
    rec = {"op": op.name}
    t0 = time.perf_counter()
    try:
        out = op.run()
        rec["wall_s"] = time.perf_counter() - t0
        acc = tracer.take() if tracer is not None else None
        problem = op.check(out)
        if tracer is not None:
            extra = {}
            if op.traced_check is not None:
                traced_problem, extra = op.traced_check(out, tracer)
                problem = problem or traced_problem
            rec["layers"] = op_layer_values(acc, tracer.z, rec["wall_s"])
            rec["layers"].update(extra)
    except Exception:  # a failed operation, not a crash of the benchmark
        rec.setdefault("wall_s", time.perf_counter() - t0)
        problem = "raised: " + traceback.format_exc(limit=3)
    rec["problem"] = problem
    return rec


def timed_setups(setup, seed, times):
    """SETUP_BATCH set-ups from a fresh import, each timed into ``times``;
    returns the package and the operations of the last one."""
    for _ in range(SETUP_BATCH):
        t0 = time.perf_counter()
        q = fresh_import()
        ops = setup(q, seed)
        times.append(time.perf_counter() - t0)
    return q, ops


def timed_rounds(ops, seconds, tracer=None, resetup=None):
    """Whole rounds of the operations until ``seconds`` have passed (at
    least one round).  ``resetup()``, if given, runs before a round when
    a SETUP_POINTS-th of ``seconds`` has passed since it last ran, and
    returns the operations of the rounds that follow: so the set-up is
    timed at several moments of the run, not in one burst of the host."""
    rounds = []
    start = time.perf_counter()
    last_setup = start
    while not rounds or time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if resetup and now - last_setup >= seconds / SETUP_POINTS:
            ops = resetup()
            last_setup = time.perf_counter()
        rounds.append([run_op(op, tracer) for op in ops])
    return rounds


def round_wall(rnd):
    return sum(r["wall_s"] for r in rnd)


def layer_metrics(traced, untraced):
    """Per-layer values: time medians over traced rounds of the per-round
    sums, counts of one round (they repeat exactly)."""
    per_round = []
    for rnd in traced:
        tot = {}
        for rec in rnd:
            for name, v in rec.get("layers", {}).items():
                if name == "nekrasov.z_max_bits":
                    tot[name] = max(tot.get(name, 0), v)
                else:
                    tot[name] = tot.get(name, 0) + v
        per_round.append(tot)
    out = {}
    for name, unit in LAYER_METRICS:
        if unit == "s":
            value = statistics.median(t.get(name, 0.0) for t in per_round)
        else:
            value = per_round[0].get(name, 0)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"]["value"] = (
        statistics.median(round_wall(r) for r in traced)
        - statistics.median(round_wall(r) for r in untraced))
    return out


def end_to_end_metrics(ops, rounds, setup_times, peak_rss_mb):
    """``wall_s`` is one round: the sum over the operations of each one's
    median over the rounds, so that a slow spell of the host is dropped
    from each operation it hit.  ``max_op_s`` is the slowest point: the
    largest median, over rounds and parameter sets, of the operations at
    one point."""
    by_point = {}
    for i, op in enumerate(ops):
        by_point.setdefault(op.point, []).extend(rnd[i]["wall_s"]
                                                 for rnd in rounds)
    values = {"setup_s": statistics.median(setup_times),
              "wall_s": sum(statistics.median(rnd[i]["wall_s"]
                                              for rnd in rounds)
                            for i in range(len(ops))),
              "max_op_s": max(statistics.median(v) for v in by_point.values()),
              "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_workload(name, seed, seconds, trace):
    setup, final_checks = WORKLOADS[name]

    setup_times = []
    q, ops = timed_setups(setup, seed, setup_times)
    if not Path(q.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("qlaumon was imported from %s, not from %s"
                         % (q.__file__, SRC))

    if trace:
        untraced = timed_rounds(ops, seconds / 2)
        tracer = Tracer(q)
        tracer.install()
        try:
            # set up again, so that the operations hold the wrappers
            ops = setup(q, seed)
            traced = timed_rounds(ops, seconds / 2, tracer)
        finally:
            tracer.restore()
        rounds = untraced + traced
        metrics = layer_metrics(traced, untraced)
    else:
        def resetup():
            nonlocal q
            q, new_ops = timed_setups(setup, seed, setup_times)
            return new_ops

        rounds = timed_rounds(ops, seconds, resetup=resetup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(ops, rounds, setup_times, peak_mb)

    records = [rec for rnd in rounds for rec in rnd]
    for check_name, fn in final_checks(q, seed):
        records.append(run_op(Operation(check_name, fn, lambda p: p), None))

    failed = [r for r in records if r["problem"]]
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "rounds": len(rounds),
              "setup_times_s": setup_times, "result": result,
              "operations": _summarize(rounds),
              "problems": [{"op": r["op"], "problem": r["problem"]}
                           for r in failed]}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    return result


def _summarize(rounds):
    """Per-operation median wall time over all rounds, and the layer values
    of the last round when it was traced."""
    out = []
    for i, rec in enumerate(rounds[-1]):
        entry = {"op": rec["op"],
                 "median_wall_s": statistics.median(
                     rnd[i]["wall_s"] for rnd in rounds)}
        if "layers" in rec:
            entry["layers"] = rec["layers"]
        out.append(entry)
    return out


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit("workload %s failed to run" % name)
            summary.setdefault(name, {})[trace] = json.loads(lines[-1])
    for name, by_trace in summary.items():
        res = by_trace[0]
        print("%s: attempted %d, failed %d, correct %s"
              % (name, res["attempted"], res["failed"], res["correct"]))
        for trace in (0, 1):
            for metric, m in by_trace[trace]["metrics"].items():
                print("  %-26s %14.6g %s" % (metric, m["value"], m["unit"]))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / ("all-seed%d.json" % seed)).write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    ok = all(r["correct"] for t in summary.values() for r in t.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(t[0]["attempted"] for t in summary.values()),
                      "failed": sum(t[0]["failed"] for t in summary.values())}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    # a failed operation is reported in the result line, not by the exit
    # code: the code is 0 whenever the workload ran to its end
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)))
    return 0


if __name__ == "__main__":
    if not (SRC / "qlaumon" / "__init__.py").is_file():
        sys.exit("benchmark: no qlaumon sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.exit(main())

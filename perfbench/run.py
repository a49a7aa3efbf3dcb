"""Benchmark for estimand-audit: one caller in a closed loop per workload.

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/`` and the CLI is run as ``python -m estimand_audit``.  The last
line of standard output is the result as JSON: the end-to-end metrics
bounded in ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
of a separate traced run with ``--trace 1``.  The line before it holds
the run environment, the unbounded end-to-end metrics (throughput,
median latency, per-command medians, failed share), per-kind timings
and the output checks.  Inputs, reports and
traces go under ``.perfbench/`` in the checkout.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# pinned before numpy is first imported, here and in every child
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import harness  # noqa: E402
import inputs  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, McStudy  # noqa: E402

MC_WARMUP_CYCLES = 20
STARTUP_REPEATS = 3


def _guarded(wl, op, how, tracer=None):
    """Run and check one op; return (seconds in the program, problem)."""
    wl.reset(op)
    t0 = time.perf_counter()
    try:
        result = wl.execute(op, how, tracer)
    except Exception as exc:
        return time.perf_counter() - t0, "%s: %s" % (type(exc).__name__, exc)
    spent = time.perf_counter() - t0
    try:
        return spent, wl.check(op, result)
    except Exception as exc:
        return spent, "check failed: %s: %s" % (type(exc).__name__, exc)


def timed_run(wl, seconds):
    index = itertools.count()

    def op(kind):
        return _guarded(wl, wl.prepare(next(index), kind), "run")

    if isinstance(wl, McStudy):
        for _ in range(MC_WARMUP_CYCLES):
            for kind in wl.kinds:
                op(kind)
    tally = harness.closed_loop(wl.kinds, op, seconds, wl.min_cycles)
    return tally, {}


def traced_run(wl, seconds):
    """Each op runs twice in-process, untraced and traced, in an order
    that alternates by cycle; the difference is the tracer's overhead."""
    tracer = tr.Tracer()
    walls = {"plain": 0.0, "traced": 0.0}
    index = itertools.count()

    def op(kind):
        i = next(index)
        spec = wl.prepare(i, kind)
        order = ("plain", "traced")
        if (i // len(wl.kinds)) % 2:
            order = order[::-1]
        spent, problems = {}, []
        for how in order:
            tracer.op = i
            spent[how], problem = _guarded(wl, spec, how, tracer)
            walls[how] += spent[how]
            if problem is not None:
                problems.append("%s: %s" % (how, problem))
        return spent["traced"], "; ".join(problems) or None

    startup = 0.0
    if not isinstance(wl, McStudy):
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            code, _, err = harness.run_child(
                [sys.executable, "-m", "estimand_audit", "--help"])
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError("estimand_audit --help failed:\n" + err)
        startup = statistics.median(times)
    tally = harness.closed_loop(wl.kinds, op, seconds, wl.min_cycles)
    layers = tr.layer_metrics(tracer.spans, walls["traced"], walls["plain"],
                              startup)
    return tally, {"layers": layers, "spans": tracer.spans}


def run_workload(args):
    name = args.workload
    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    os.makedirs(harness.WORK, exist_ok=True)
    workdir = os.path.join(harness.WORK, "%s-seed%d-%d"
                           % (name, args.seed, os.getpid()))
    try:
        setup_s = harness.timed_setup(name, args.seed, workdir, args.smoke,
                                      repeats=1 if args.trace else None)
        wl = WORKLOADS[name](args.seed, sizes, workdir)
        run = traced_run if args.trace else timed_run
        tally, traced = run(wl, args.seconds)
        checks = wl.finish(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0
    if args.trace:
        layers = traced["layers"]
        # per-layer self times, cli.self_s included, must add up to the
        # traced wall time of the ops
        accounted = layers["trace.accounted_share"]
        if not 0.9 <= accounted <= 1.0 + 1e-9:
            correct = False
            tally.problems.append("spans account for %.3f of traced wall time"
                                  % accounted)
        metrics = {m: (layers[m], unit) for m, unit in tr.PER_LAYER}
    else:
        rss = (harness.self_peak_rss_mb() if isinstance(wl, McStudy)
               else wl.peak_rss_mb)
        metrics = harness.end_to_end(tally, setup_s, rss)

    per_kind = {k: {"ops": len(v), "p50_s": statistics.median(v)}
                for k, v in tally.latency.items() if v}
    unbounded = {}
    if not args.trace:
        unbounded = {m: {"value": v, "unit": u}
                     for m, (v, u) in harness.typical(tally).items()}
        unbounded.update({
            cmd: {"value": statistics.median(
                [t for k in kinds for t in tally.latency[k]]), "unit": "s"}
            for cmd, kinds in wl.commands.items()})
    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": harness.environment(),
        "failed_share": {"value": tally.failed / tally.attempted,
                         "base": tally.attempted},
        "per_kind": per_kind, "unbounded": unbounded, "checks": checks,
        "problems": tally.problems,
    }
    result = {
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    stem = os.path.join(harness.WORK, "%s-seed%d-trace%d"
                        % (name, args.seed, args.trace))
    with open(stem + ".result.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["op", "name", "parent", "start", "end",
                                  "counts"], "spans": traced["spans"]}, fh)
    return detail, result


def run_all(args):
    """Every workload in its own process, untraced; prints each
    end-to-end metric, bounded or not, by name and unit."""
    rows, ok = [], True
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0"] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=harness.ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: failed with exit code %d" % (name, proc.returncode))
            ok = False
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = dict(result["metrics"])
        metrics.update(detail["unbounded"])
        metrics["failed_share"] = {
            "value": detail["failed_share"]["value"],
            "unit": "of %d ops" % detail["failed_share"]["base"]}
        for metric, m in metrics.items():
            rows.append((name, metric, m["value"], m["unit"]))
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print("%-10s %-*s %14.6g %s" % (name, width, metric, value, unit))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark estimand-audit end to end and per layer.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="every input is generated from this seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(harness.SRC, "estimand_audit",
                                       "__init__.py")):
        print("run.py: no package source at %s; run from the root of a "
              "checkout" % harness.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    if args.workload == "all":
        return run_all(args)
    detail, result = run_workload(args)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

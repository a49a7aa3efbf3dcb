"""Closed-loop timing, set-up timing, child processes and the run
environment shared by the three workloads."""

import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 7


def child_env():
    """This process's environment (thread counts pinned by run.py) with
    the package source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv):
    """Run `argv` to completion; return (exit code, max RSS in MB, stderr).

    The child is reaped with `wait4`, so its own peak RSS is read rather
    than the maximum over every child this process ever had.
    """
    with tempfile.TemporaryFile(dir=WORK) as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return proc.returncode, usage.ru_maxrss / 1024.0, tail


def timed_setup(workload, seed, workdir, smoke, repeats=None):
    """Median wall time of `repeats` (default SETUP_REPEATS) fresh-process
    set-ups, each of which imports the package and writes the workload's
    inputs into `workdir`."""
    argv = [sys.executable, os.path.join(PERFBENCH, "inputs.py"),
            "--workload", workload, "--seed", str(seed), "--out", workdir]
    if smoke:
        argv.append("--smoke")
    times = []
    for _ in range(repeats or SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, err = run_child(argv)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError("input set-up failed:\n" + err)
    return statistics.median(times)


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Latencies per op kind and the failure count of one run."""

    def __init__(self, kinds):
        self.latency = {k: [] for k in kinds}
        self.failures = {k: 0 for k in kinds}
        self.problems = []

    @property
    def attempted(self):
        return sum(len(v) for v in self.latency.values())

    @property
    def failed(self):
        return sum(self.failures.values())

    def record(self, kind, seconds, problem):
        self.latency[kind].append(seconds)
        if problem is not None:
            self.failures[kind] += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (kind, problem))

    def fail_all(self, kind, problem):
        """Count every op of `kind` as failed: an aggregate check over
        them did not hold."""
        self.failures[kind] = len(self.latency[kind])
        self.problems.append("%s: %s" % (kind, problem))

    def all_latencies(self):
        return [v for vs in self.latency.values() for v in vs]


def closed_loop(kinds, op, seconds, min_cycles):
    """One caller, one op at a time, round-robin over `kinds`.

    `op(kind)` runs one op and returns (seconds spent in the program,
    problem or None); checks run after its timer stops.  At least
    `min_cycles` whole cycles run; after that no op starts once `seconds`
    of wall time have passed, so the last cycle may be partial.
    """
    tally = Tally(kinds)
    start = time.perf_counter()
    cycles = 0
    while True:
        for kind in kinds:
            if (cycles >= min_cycles
                    and time.perf_counter() - start >= seconds):
                return tally
            spent, problem = op(kind)
            tally.record(kind, spent, problem)
        cycles += 1


def kind_percentile_ms(tally, q):
    """Geometric mean over op kinds of each kind's `q`-th percentile
    latency, in ms, so that every kind weighs the same however long its
    ops take."""
    logs = [np.log(np.percentile(v, q)) for v in tally.latency.values() if v]
    return 1e3 * float(np.exp(np.mean(logs)))


def end_to_end(tally, setup_s, peak_rss_mb):
    """The metrics `BENCHMARK.json` bounds, as (value, unit).

    On a shared 2-CPU host the CPU alternates between contended and
    uncontended periods lasting from seconds to many minutes, and an op
    takes up to 1.6 times as long in the first.  A run's mean, median
    and 90th percentile then depend on how its time fell between the
    two, while its 99th percentile follows the slowest periods, which
    nearly every run has; so the bounded latency is the 99th, and the
    mean and median are in `typical`.
    """
    return {
        "op_p99_ms": (kind_percentile_ms(tally, 99), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def typical(tally):
    """Throughput and median latency: reported with each run, not
    bounded (see `end_to_end`)."""
    lat = np.asarray(tally.all_latencies())
    return {
        "ops_per_s": (len(lat) / lat.sum(), "1/s"),
        "op_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment():
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }

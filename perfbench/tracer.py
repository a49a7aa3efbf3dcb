"""Spans around calls into the package's public functions.

The tracer lives in the benchmark only.  For a traced op it replaces,
for the duration of that op, the names a caller looks up (a module
global such as ``estimand_audit.cli.load_micro``, or a method on a
class) with wrappers that record a span and restores them afterwards.
Nothing inside the package is changed.

A span is (op, name, parent, start, end, counts).  A span's self time is
its duration minus the durations of its direct children.
"""

import contextlib
import os
import time

MODULES = ("cli", "cells", "designs", "validity", "bounds", "data_io",
           "inference")

# (metric, unit, span name, what to take per call: "self" seconds or a
# count key).  Each value is the mean over the run's calls that report
# it; a layer the workload never calls reports 0.
_PER_CALL = (
    ("cli.self_s", "s", "cli.main", "self"),
    ("cli.json_bytes", "B", "cli.main", "json_bytes"),
    ("data_io.load_micro_s", "s", "data_io.load_micro", "self"),
    ("data_io.load_micro_rows", "count", "data_io.load_micro", "rows"),
    ("data_io.write_s", "s", "data_io.write", "self"),
    ("data_io.bytes_written", "B", "data_io.write", "bytes"),
    ("data_io.load_panel_s", "s", "data_io.load_panel", "self"),
    ("data_io.load_panel_values", "count", "data_io.load_panel", "values"),
    ("data_io.simulate_s", "s", "data_io.simulate", "self"),
    ("cells.from_csv_s", "s", "cells.from_csv", "self"),
    ("cells.rows_read", "count", "cells.from_csv", "rows"),
    ("designs.build_s", "s", "designs.build", "self"),
    ("designs.cells_built", "count", "designs.build", "cells"),
    ("designs.from_csv_s", "s", "designs.from_csv", "self"),
    ("validity.uniform_s", "s", "validity.uniform", "self"),
    ("validity.fixed_tau_s", "s", "validity.fixed_tau", "self"),
    ("validity.fixed_tau_lp_s", "s", "validity.fixed_tau_lp", "self"),
    ("validity.cells_trimmed", "count", "validity.fixed_tau", "trimmed"),
    ("bounds.busy_s", "s", "bounds.ate_bounds", "self"),
    ("inference.estimate_s", "s", "inference.estimate_design", "self"),
    ("inference.bootstrap_self_s", "s", "inference.bootstrap_ci", "self"),
    ("inference.draws", "count", "inference.bootstrap_ci", "draws"),
    ("inference.fallback_coordinates", "count", "inference.bootstrap_ci",
     "fallback"),
)

PER_LAYER = (
    [("cli.startup_s", "s")]
    + [(m, u) for m, u, _, _ in _PER_CALL]
    + [("inference.useful_draw_ratio", "ratio")]
    + [("%s.share" % m, "ratio") for m in MODULES]
    + [("trace.overhead_share", "ratio"), ("trace.accounted_share", "ratio")]
)


class Tracer:
    """Collects spans in memory; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, args, kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span called `name`;
        `count(result, args)` may attach counts to the span."""
        span = [self.op, name, self._stack[-1] if self._stack else None,
                time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[5] = count(result, args)
        return result

    def _wrap(self, raw, name, count):
        if isinstance(raw, classmethod):
            fn = raw.__func__
            return classmethod(
                lambda cls, *a, **k: self.call(name, fn, (cls,) + a, k, count))
        return lambda *a, **k: self.call(name, raw, a, k, count)

    @contextlib.contextmanager
    def patched(self, patches):
        """Install span wrappers for (owner, attribute, span, count)
        entries; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, name, count in patches:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name, count))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def _bytes_written(result, args):
    path = args[1]
    return {"bytes": os.path.getsize(path)} if isinstance(path, str) else {}


def _trimmed(result, args):
    report, _ = result
    design = args[0]
    sub = design.w0_mass > 0
    if report.inclusion is None:
        return {"trimmed": int(sub.sum())}
    return {"trimmed": int(((report.inclusion.inclusion < 1.0) & sub).sum())}


def bootstrap_counts(result, args):
    diag = result.diagnostics
    return {"draws": int(result.draws.shape[0]),
            "redraws": int(diag.get("degenerate_redraws", 0)),
            "fallback": int(diag.get("fallback_coordinates", 0))}


def inference_patches():
    """Nested calls that `bootstrap_ci` makes through its module."""
    from estimand_audit import inference

    return [(inference, "estimate_design", "inference.estimate_design", None)]


def cli_patches():
    """Every public function the benchmarked CLI commands call, at the
    name the CLI looks up."""
    from estimand_audit import cli
    from estimand_audit.cells import CellTable
    from estimand_audit.data_io import DgpSpec, MicroSample, PanelData
    from estimand_audit.designs import GroupDistribution

    def cells(result, args):
        return {"cells": result.k}

    return inference_patches() + [
        (cli, "load_micro", "data_io.load_micro",
         lambda r, a: {"rows": r.n}),
        (cli, "load_panel", "data_io.load_panel",
         lambda r, a: {"values": r.n * r.t}),
        (cli, "panel_to_group_distribution", "data_io.group_shares", None),
        (cli, "simulate", "data_io.simulate", None),
        (DgpSpec, "from_json_dict", "data_io.spec", None),
        (MicroSample, "to_csv", "data_io.write", _bytes_written),
        (PanelData, "to_csv", "data_io.write", _bytes_written),
        (CellTable, "from_csv", "cells.from_csv", lambda r, a: {"rows": r.k}),
        (cli, "moment_summary", "cells.moment_summary", None),
        (GroupDistribution, "from_csv", "designs.from_csv", None),
        (cli, "twfe_cdh_design", "designs.build", cells),
        (cli, "twfe_h_design", "designs.build", cells),
        (cli, "uniform_internal_validity", "validity.uniform", None),
        (cli, "fixed_tau_internal_validity", "validity.fixed_tau", _trimmed),
        (cli, "fixed_tau_lp", "validity.fixed_tau_lp", None),
        (cli, "fixed_tau_bruteforce", "validity.fixed_tau_bruteforce", None),
        (cli, "ate_bounds_from_validity", "bounds.ate_bounds", None),
        (cli, "estimate_design", "inference.estimate_design", None),
        (cli, "estimate_uniform_validity", "inference.share_estimate", None),
        (cli, "bootstrap_ci", "inference.bootstrap_ci", bootstrap_counts),
    ]


def layer_metrics(spans, traced_wall, untraced_wall, startup_s):
    """Per-layer metrics of one traced run.

    `traced_wall` and `untraced_wall` are the summed op times of the
    traced ops and of the same ops run untraced; `startup_s` is the
    median bare CLI start-up (0 when the workload runs no CLI).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] is not None:
            child[s[2]] += s[4] - s[3]
    # totals and the number of calls they came from, per (span, field)
    total, calls = {}, {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, (_, name, _, t0, t1, c) in enumerate(spans):
        own = (t1 - t0) - child[i]
        module_self[name.split(".", 1)[0]] += own
        for key, v in [("self", own)] + list((c or {}).items()):
            total[(name, key)] = total.get((name, key), 0) + v
            calls[(name, key)] = calls.get((name, key), 0) + 1

    out = {"cli.startup_s": startup_s}
    for metric, _, span, field in _PER_CALL:
        n = calls.get((span, field), 0)
        out[metric] = total[(span, field)] / n if n else 0.0
    draws = total.get(("inference.bootstrap_ci", "draws"), 0)
    redraws = total.get(("inference.bootstrap_ci", "redraws"), 0)
    out["inference.useful_draw_ratio"] = (
        draws / (draws + redraws) if draws + redraws else 0.0)
    for m in MODULES:
        out["%s.share" % m] = module_self[m] / traced_wall
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.accounted_share"] = sum(module_self.values()) / traced_wall
    return out

"""The three workloads: what one op runs and how its output is checked.

Each workload cycles round-robin through its op kinds.  `execute` runs
one op in one of three ways: "run" (the way a user runs it: in-process
for the library loop, a CLI subprocess for the CLI workloads), "plain"
(in-process, untraced) and "traced" (in-process, under the tracer).
`reset` runs before an op, untimed.  `check` validates the output
without calling the code path that produced it and returns a problem
string or None.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np

import harness
import tracer as tr
from inputs import TIED_TRUTH, UNIQUE_TRUTH, make_inputs


class McStudy:
    """In-process Monte Carlo loop: `simulate` then `bootstrap_ci`."""

    name = "mc_study"
    kinds = ("unique", "tied", "iv")
    families = {"unique": "ols_ate", "tied": "ols_ate", "iv": "tsls"}
    truth = {"unique": UNIQUE_TRUTH, "tied": TIED_TRUTH}
    commands = {}

    def __init__(self, seed, sizes, workdir):
        from estimand_audit import (BootstrapConfig, DgpSpec, bootstrap_ci,
                                    simulate)

        self.config = BootstrapConfig
        self.simulate = simulate
        self.bootstrap_ci = bootstrap_ci
        self.seed = seed
        self.sizes = sizes
        specs = make_inputs(self.name, seed, sizes)["specs"]
        self.specs = {k: DgpSpec.from_json_dict(s)
                      for k, s in zip(self.kinds, specs)}
        self.covered = {k: {} for k in self.truth}
        self.min_cycles = sizes.mc_min_ops

    def prepare(self, index, kind):
        return index, kind

    def reset(self, op):
        pass

    def execute(self, op, how, tracer=None):
        index, kind = op
        op_seed = self.seed * 1_000_000 + index
        cfg = self.config(b=self.sizes.mc_b, seed=op_seed)
        spec = self.specs[kind]
        if how != "traced":
            sample = self.simulate(spec, self.sizes.mc_n, seed=op_seed)
            return self.bootstrap_ci(sample, self.families[kind], cfg)
        with tracer.patched(tr.inference_patches()):
            sample = tracer.call("data_io.simulate", self.simulate,
                                 (spec, self.sizes.mc_n), {"seed": op_seed})
            return tracer.call("inference.bootstrap_ci", self.bootstrap_ci,
                               (sample, self.families[kind], cfg),
                               count=tr.bootstrap_counts)

    def check(self, op, result):
        index, kind = op
        lo, hi = result.ci
        if result.draws.shape[0] != self.sizes.mc_b:
            return "expected %d draws, got %d" % (self.sizes.mc_b,
                                                   result.draws.shape[0])
        if not (lo == 0.0 and 0.0 <= hi <= 1.0):
            return "ci %r outside [0, 1]" % (result.ci,)
        if kind in self.covered:
            self.covered[kind][index] = hi >= self.truth[kind]
        return None

    def finish(self, tally):
        """Coverage of the two `ols_ate` DGPs must sit in criterion 7's
        band.  The tied DGP covers about 0.937, so the band is judged
        over at least 3000 samples, where sampling error alone breaks it
        about once in 10000 runs; smoke runs report it unjudged."""
        out = {}
        for kind, hits in self.covered.items():
            rate = sum(hits.values()) / len(hits) if hits else math.nan
            out[kind] = {"coverage": rate, "base": len(hits)}
            if len(hits) >= 3000 and not 0.92 <= rate <= 0.98:
                tally.fail_all(kind, "coverage %.4f of %d outside [0.92, 0.98]"
                               % (rate, len(hits)))
        return out


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class _CliWorkload:
    """Shared running of CLI commands: as a subprocess, or in-process via
    `estimand_audit.cli.main` with or without the tracer."""

    def __init__(self, seed, sizes, workdir):
        from estimand_audit import cli

        self.cli = cli
        self.seed = seed
        self.sizes = sizes
        self.dir = workdir
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.inputs = make_inputs(self.name, seed, sizes)
        self.reference = {}
        self.peak_rss_mb = 0.0
        self.min_cycles = 1

    def path(self, name):
        return os.path.join(self.out, name)

    def reset(self, op):
        """Remove the op's output, so that a command that writes nothing
        cannot pass on an earlier run's file."""
        if os.path.exists(op[1]):
            os.remove(op[1])

    def execute(self, op, how, tracer=None):
        argv, report = op
        if how == "run":
            code, rss, err = harness.run_child(
                [sys.executable, "-m", "estimand_audit"] + argv)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if code != 0:
                raise RuntimeError("exit code %d: %s" % (code, err.strip()))
            return None
        if how == "plain":
            code = self.cli.main(argv)
        else:
            with tracer.patched(tr.cli_patches()):
                code = tracer.call(
                    "cli.main", self.cli.main, (argv,),
                    count=lambda r, a: {"json_bytes": os.path.getsize(report)}
                    if report.endswith(".json") else {})
        if code != 0:
            raise RuntimeError("exit code %d" % code)
        return None

    def same_bytes(self, argv, path):
        """Reports of repeated same-seed commands must be identical."""
        digest = _sha(path)
        want = self.reference.setdefault(tuple(argv), digest)
        return None if digest == want else "output differs from the first run"

    def finish(self, tally):
        return {}


class CliMicro(_CliWorkload):
    """`simulate`, `estimate` and `bootstrap` subprocesses on a 50-cell
    unconfoundedness spec (`ols_ate`) and a 50-cell IV spec (`tsls`)."""

    name = "cli_micro"
    kinds = ("simulate_ols", "estimate_ols", "bootstrap_ols",
             "simulate_iv", "estimate_iv", "bootstrap_iv")
    commands = {"simulate_s": ("simulate_ols", "simulate_iv"),
                "estimate_s": ("estimate_ols", "estimate_iv"),
                "bootstrap_s": ("bootstrap_ols", "bootstrap_iv")}
    families = {"ols": "ols_ate", "iv": "tsls"}

    def prepare(self, index, kind):
        command, spec = kind.split("_")
        data = self.path("micro_%s.csv" % spec)
        seed = str(self.seed)
        if command == "simulate":
            argv = ["simulate", "--spec",
                    os.path.join(self.dir, "spec_%s.json" % spec),
                    "--n", str(self.sizes.micro_n), "--seed", seed,
                    "--out", data]
            return argv, data
        report = self.path("%s.json" % kind)
        argv = [command, "--family", self.families[spec], "--data", data,
                "--json", report, "--quiet"]
        if command == "bootstrap":
            argv += ["--B", str(self.sizes.micro_b), "--seed", seed]
        return argv, report

    def check(self, op, result):
        argv, report = op
        command = argv[0]
        if command == "simulate":
            with open(report, "rb") as fh:
                head = fh.readline()
                rows = sum(chunk.count(b"\n") for chunk in
                           iter(lambda: fh.read(1 << 20), b""))
            if head.strip() not in (b"x,d,y", b"x,d,z,y"):
                return "unexpected header %r" % head
            if rows != self.sizes.micro_n:
                return "%d rows written, expected %d" % (rows,
                                                         self.sizes.micro_n)
            return self.same_bytes(argv, report)
        payload = _load(report)
        if payload["n"] != self.sizes.micro_n:
            return "n = %r" % payload["n"]
        if command == "estimate":
            if len(payload["cells"]) != self.sizes.micro_cells:
                return "%d cells estimated" % len(payload["cells"])
            if not 0.0 <= payload["p_hat_clipped"] <= 1.0:
                return "p_hat_clipped %r" % payload["p_hat_clipped"]
        else:
            ci = payload["ci"]
            if len(payload["draws"]) != self.sizes.micro_b:
                return "%d draws, expected %d" % (len(payload["draws"]),
                                                  self.sizes.micro_b)
            if not ci["hi"] >= payload["p_hat_clipped"]:
                return "ci.hi %r below p_hat_clipped %r" % (
                    ci["hi"], payload["p_hat_clipped"])
            if not 0.0 == ci["lo"] <= ci["hi"] <= 1.0:
                return "ci %r outside [0, 1]" % (ci,)
        return self.same_bytes(argv, report)


class CliAudit(_CliWorkload):
    """`audit` subprocesses: TWFE on an adoption-group CSV and on a wide
    panel, and the fixed-tau audit with ATE bounds on a cell table."""

    name = "cli_audit"
    kinds = ("groups_cdh", "groups_h", "panel_h", "panel_cdh", "design")
    commands = {"audit_groups_s": ("groups_cdh", "groups_h"),
                "audit_panel_s": ("panel_h", "panel_cdh"),
                "audit_design_s": ("design",)}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        from estimand_audit import GroupDistribution, twfe_gb_weights

        # the Goodman-Bacon form of the twfe_h weights is the independent
        # reference the reported inclusion vectors are compared with
        inp = self.inputs
        gd = GroupDistribution(inp["groups_t"], inp["group_shares"])
        g, counts = np.unique(inp["panel_g"], return_counts=True)
        panel_gd = GroupDistribution(
            inp["panel_y"].shape[1],
            {(math.inf if math.isinf(v) else int(v)): c / len(inp["panel_g"])
             for v, c in zip(g, counts)})
        self.gb = {"groups": twfe_gb_weights(gd),
                   "panel": twfe_gb_weights(panel_gd)}

    def prepare(self, index, kind):
        report = self.path("%s.json" % kind)
        tail = ["--json", report, "--quiet"]
        if kind == "design":
            d = self.inputs["design"]
            argv = ["audit", "--design", os.path.join(self.dir, "design.csv"),
                    "--mu0", repr(d["mu0"]), "--b-lo", repr(d["b_lo"]),
                    "--b-hi", repr(d["b_hi"])]
            return argv + tail, report
        source, family = kind.split("_")
        argv = ["audit", "--family", "twfe_" + family,
                "--" + source, os.path.join(self.dir, source + ".csv")]
        return argv + tail, report

    def check(self, op, result):
        argv, report = op
        payload = _load(report)
        kind = os.path.basename(report)[:-len(".json")]
        uniform = payload["uniform"]
        if kind.endswith("_cdh"):
            if uniform["exists"] is not False or uniform["p_internal"] != 0.0:
                return "twfe_cdh should have no causal representation"
        elif kind.endswith("_h"):
            gb = self.gb[kind.split("_")[0]]
            incl = np.asarray(uniform["inclusion"] or [], dtype=float)
            if incl.shape != (len(gb) + 1,):
                return "inclusion has %d entries, expected %d" % (
                    incl.shape[0], len(gb) + 1)
            err = float(np.max(np.abs(incl[:-1] - gb / gb.max())))
            if err > 1e-10 or incl[-1] != 0.0:
                return "twfe_h inclusion differs from the gb identity by %g" % err
        else:
            problem = self._check_design(payload)
            if problem is not None:
                return problem
        return self.same_bytes(argv, report)

    def _check_design(self, payload):
        d = self.inputs["design"]
        fixed = payload["fixed_tau"]
        solvers = fixed["solvers"]
        if fixed["agreement"] is not True or abs(
                solvers["closed_form"] - solvers["mass_reduction"]) > 1e-9:
            return "fixed-tau solvers disagree: %r" % (solvers,)
        # criterion 4's certificate: the kept cells average to mu0
        incl = np.asarray(fixed["report"]["inclusion"], dtype=float)
        q = d["w0"] * d["p"]
        got = float((d["tau"] * incl) @ q / (incl @ q))
        if abs(got - d["mu0"]) > 1e-10 * max(1.0, abs(d["mu0"])):
            return "fixed-tau inclusion averages to %r, not mu0 %r" % (
                got, d["mu0"])
        p_rep = float((d["a"] * q).sum() / d["a"][q > 0].max())
        if abs(payload["uniform"]["p_representative"] - p_rep) > 1e-12:
            return "p_representative %r, expected %r" % (
                payload["uniform"]["p_representative"], p_rep)
        width = payload["bounds"]["ate"]["width"]
        want = (d["b_hi"] - d["b_lo"]) * (1.0 - p_rep)
        if abs(width - want) > 1e-9 * max(1.0, abs(want)):
            return "bounds width %r, expected %r" % (width, want)
        return None


WORKLOADS = {w.name: w for w in (McStudy, CliMicro, CliAudit)}

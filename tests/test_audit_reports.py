"""Lock-in tests for the TWFE design builders and the fixed-tau solvers.

Each test pins the sha256 of an `audit --json` report on a seeded input:
both TWFE families on a generated 120-period adoption-group CSV whose
rows are shuffled (so the group shares are not in period order) and on
the staggered test panel, and a 3000-cell design with effects audited at
the 10th percentile of tau with ATE bounds, whose report carries the
mass-reduction solver's value.

`OUTPUT_SHA256` pins, on the same kind of seeded inputs, the outputs no
other test pins: the `bounds` report with and without the sign split,
the `figure-data` CSVs and reports, the `simulate` meta report, and the
human-readable lines of `audit` with bounds, `bounds` and `bootstrap`.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from estimand_audit import cli

PANEL = Path(__file__).parent / "data" / "staggered_panel.csv"

REPORT_SHA256 = {
    "groups_twfe_cdh":
        "64bfc71e8fcf5987258d636dce1000ed9a45e4107c08f62952384a656723b61b",
    "groups_twfe_h":
        "03c5618848e5d1937c59e698ff436a721e26ac18ec30406325a9d335b3f08af9",
    "panel_twfe_cdh":
        "89e1f09c20488e6b13c34ab9461cea6a1c3823c608ab2b12468e7f53abc4b0a0",
    "panel_twfe_h":
        "0552a229f461c139e68d4ac28d05e3fd1e5ad7966f04bc71f2436ceec9fdeea6",
    "design":
        "4c204f671ceb0efdcd9d66bee40669b43c568a4124b3d96aaa2c32bc9049ac43",
}


def report_sha256(tmp_path, *args):
    out = tmp_path / "report.json"
    assert cli.main([str(a) for a in args] + ["--json", str(out), "--quiet"]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def groups_csv(tmp_path, t=120, seed=5):
    """Adoption shares over {2..t} and never-treated, rows shuffled."""
    rng = np.random.default_rng(seed)
    groups = list(range(2, t + 1)) + [math.inf]
    shares = rng.uniform(0.5, 1.5, len(groups))
    shares /= shares.sum()
    rows = ["%s,%r" % ("inf" if math.isinf(g) else g, float(s))
            for g, s in zip(groups, shares)]
    path = tmp_path / "groups.csv"
    path.write_text("g,share\n" + "\n".join(rng.permutation(rows)) + "\n")
    return path


def design_csv(tmp_path, k=3000, seed=6):
    """Cell table with effects; returns the path, the 10th percentile of
    tau and support bounds one unit outside the effects' range."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 1.5, k)
    p /= p.sum()
    a = rng.uniform(0.05, 1.0, k)
    w0 = rng.uniform(0.0, 1.0, k)
    w0[rng.random(k) < 0.25] = 1.0
    tau = rng.normal(0.0, 2.0, k)
    path = tmp_path / "design.csv"
    path.write_text("label,p,a,w0,tau\n" + "".join(
        "k%d,%r,%r,%r,%r\n" % row for row in zip(
            range(k), p.tolist(), a.tolist(), w0.tolist(), tau.tolist())))
    return (path, float(np.percentile(tau, 10)),
            math.floor(tau.min()) - 1.0, math.ceil(tau.max()) + 1.0)


@pytest.mark.parametrize("family", ["twfe_cdh", "twfe_h"])
def test_groups_report_bytes(tmp_path, family):
    sha = report_sha256(tmp_path, "audit", "--family", family,
                        "--groups", groups_csv(tmp_path))
    assert sha == REPORT_SHA256["groups_" + family]


@pytest.mark.parametrize("family", ["twfe_cdh", "twfe_h"])
def test_panel_report_bytes(tmp_path, family):
    sha = report_sha256(tmp_path, "audit", "--family", family, "--panel", PANEL)
    assert sha == REPORT_SHA256["panel_" + family]


def test_design_report_bytes(tmp_path):
    path, mu0, b_lo, b_hi = design_csv(tmp_path)
    sha = report_sha256(tmp_path, "audit", "--design", path, "--mu0", mu0,
                        "--b-lo", b_lo, "--b-hi", b_hi)
    assert sha == REPORT_SHA256["design"]


def full_design_csv(tmp_path, k=40, seed=7):
    """Full-population (w0 = 1) cell table with numeric labels, some
    negative weights and effects."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 1.5, k)
    p /= p.sum()
    a = rng.uniform(-0.3, 1.0, k)
    tau = rng.normal(1.0, 2.0, k)
    x = np.sort(rng.uniform(0.0, 10.0, k))
    path = tmp_path / "full.csv"
    path.write_text("label,p,a,w0,tau\n" + "".join(
        "%r,%r,%r,1.0,%r\n" % row for row in zip(
            x.tolist(), p.tolist(), a.tolist(), tau.tolist())))
    return path


def micro_csv(tmp_path, n=4000, k=6, seed=8):
    """Instrumented micro sample x,d,z: always-takers, compliers and
    never-takers in every cell."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, k, n)
    z = (rng.random(n) < 0.5).astype(int)
    u = rng.random(n)
    d = ((u < 0.15) | ((u < 0.15 + 0.1 * (1 + x)) & (z == 1))).astype(int)
    path = tmp_path / "micro.csv"
    path.write_text("x,d,z\n" + "".join(
        "c%d,%d,%d\n" % row for row in zip(x.tolist(), d.tolist(), z.tolist())))
    return path


def spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "family": "iv", "seed": 2, "noise_scale": 0.5,
        "cells": [{"label": "1", "mass": 0.4, "pz": 0.5, "pc": 0.3},
                  {"label": "2", "mass": 0.6, "pz": 0.4, "pc": 0.5}]}))
    return path


def _design_bounds(tmp_path):
    path, _, b_lo, b_hi = design_csv(tmp_path)
    return path, "--b-lo", b_lo, "--b-hi", b_hi


# the command line of each run, from its inputs under tmp_path
OUTPUT_CASES = {
    "bounds_full": lambda tmp: ("bounds", "--design", full_design_csv(tmp),
                                "--b-lo", -5, "--b-hi", 7),
    "bounds": lambda tmp: ("bounds", "--design", *_design_bounds(tmp)),
    "bounds_mu": lambda tmp: ("bounds", "--design", *_design_bounds(tmp),
                              "--mu", 0.5),
    "fig1": lambda tmp: ("figure-data", "--which", "fig1", "--design",
                         full_design_csv(tmp), "--out", tmp / "fig.csv"),
    "fig2": lambda tmp: ("figure-data", "--which", "fig2", "--design",
                         design_csv(tmp)[0], "--out", tmp / "fig.csv"),
    "simulate": lambda tmp: ("simulate", "--spec", spec_json(tmp), "--n", 50,
                             "--seed", 4, "--out", tmp / "sample.csv"),
    "audit_bounds": lambda tmp: ("audit", "--design", *_design_bounds(tmp),
                                 "--mu0", design_csv(tmp)[1]),
    "bootstrap": lambda tmp: ("bootstrap", "--data", micro_csv(tmp),
                              "--family", "tsls", "--B", 200, "--seed", 3),
}

# sha256 of the --json report ("json"), the --out CSV ("csv") and stdout
# ("stdout") of each case
OUTPUT_SHA256 = {
    "bounds_full": {
        "json":
            "138c1b8e24bc9217cafc0547e597756557e6929de8bd14c9adcc13c2bdd99548",
        "stdout":
            "7f5d3fad65a3a59399ca8281af98b4fd2f93dcb2859149c2c5298af5d1a6d965"},
    "bounds": {
        "json":
            "48307219969afc9fcde300465f4fb46ee1d77a83f2814dbf22eda74fbeda79c0",
        "stdout":
            "d8980f578703f65d51713f55dceba70d9e3f253521ea22cbe9c0b3e12c290b0e"},
    "bounds_mu": {
        "json":
            "20c2d2a930597f307c6e8d14a4ed3aaa54fb031c52a0bb5263baee8677b600e5"},
    "fig1": {
        "json":
            "927a604f30912edf37fed6e6c5d331391a92cfeb9c49780aa774ced30c542abe",
        "csv":
            "cf9c6b1832f05fcf97d6ad19f1af8467b7f64d71ead563f8cfb8ceac3635f12f"},
    "fig2": {
        "json":
            "134533e58dae81b7cd3fdbdcc7c66c4e79bf449ff4e0352f8782761d77a4c86d",
        "csv":
            "bb9bbe9602351cebe8299a33360743f40f0f6e490732166567b3c834532657f6"},
    "simulate": {
        "json":
            "78a5a222e3d6939cd7fca33b078b7b7b3b1f786f2967e41a6e0c307c5c42f3ec"},
    "audit_bounds": {
        "stdout":
            "7494bb5c0fb68abad6735582b0d81a678c0d9a1d8f2ab58cabb614b4500315f6"},
    "bootstrap": {
        "stdout":
            "ae441f3e1f8fe13598f49bb3fb7f2547c8293ccfdbdfcc143491dbb07a379910"},
}


def outputs_sha256(tmp_path, capsys, args):
    args = [str(a) for a in args]
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(args + ["--json", str(report)]) == 0
    outputs = {"json": report.read_bytes(),
               "stdout": capsys.readouterr().out.encode()}
    if "--out" in args:
        with open(args[args.index("--out") + 1], "rb") as fh:
            outputs["csv"] = fh.read()
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()}


@pytest.mark.parametrize("case", OUTPUT_SHA256)
def test_output_bytes(tmp_path, capsys, case):
    got = outputs_sha256(tmp_path, capsys, OUTPUT_CASES[case](tmp_path))
    assert {name: got[name] for name in OUTPUT_SHA256[case]} == OUTPUT_SHA256[case]

"""Lock-in tests for the TWFE design builders and the fixed-tau solvers.

Each test pins the sha256 of an `audit --json` report on a seeded input:
both TWFE families on a generated 120-period adoption-group CSV whose
rows are shuffled (so the group shares are not in period order) and on
the staggered test panel, and a 3000-cell design with effects audited at
the 10th percentile of tau with ATE bounds, whose report carries the
mass-reduction solver's value.
"""

import hashlib
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

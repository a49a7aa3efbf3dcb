"""Seeded inputs for the three workloads.

`make_inputs` builds every input in memory from the workload seed;
`write_inputs` writes the files the CLI workloads hand to the program.
The benchmark's checks use the in-memory arrays, never the program's
own readers, so a check does not reuse the code path being timed.

Run as a script, this is one set-up repetition: import the package,
generate the inputs and write them under ``--out``.  The benchmark times
it in a fresh process so that package import counts toward `setup_s`.

    python3 perfbench/inputs.py --workload cli_audit --seed 1 --out DIR
"""

import argparse
import dataclasses
import json
import math
import os

import numpy as np


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; `FULL` is what the benchmark measures, `SMOKE` is
    for the benchmark's own tests."""

    mc_n: int = 2000            # rows per Monte Carlo sample
    mc_b: int = 400             # bootstrap replications per Monte Carlo op
    mc_iv_cells: int = 10
    mc_min_ops: int = 3000      # per DGP; the coverage band is judged on these
    micro_cells: int = 50
    micro_n: int = 200000
    micro_b: int = 2000
    groups_t: int = 300
    panel_n: int = 5000
    panel_t: int = 120
    design_k: int = 20000


FULL = Sizes()
SMOKE = Sizes(mc_n=400, mc_b=50, mc_iv_cells=4, mc_min_ops=2,
              micro_cells=5, micro_n=3000, micro_b=50, groups_t=12,
              panel_n=200, panel_t=8, design_k=300)

# criterion 7's pair: a unique maximum weight and a tie for the maximum
UNIQUE_SPEC = {
    "family": "unconfoundedness",
    "noise_scale": 0.0,
    "cells": [
        {"label": "1", "mass": 0.2, "p": 0.4},
        {"label": "2", "mass": 0.8, "p": 0.1},
    ],
}
TIED_SPEC = {
    "family": "unconfoundedness",
    "noise_scale": 0.0,
    "cells": [
        {"label": "1", "mass": 0.3, "p": 0.3},
        {"label": "2", "mass": 0.3, "p": 0.7},
        {"label": "3", "mass": 0.4, "p": 0.1},
    ],
}
# population shares, worked by hand: 0.5 and, for weights
# (0.21, 0.21, 0.09), 27/35
UNIQUE_TRUTH = 0.5
TIED_TRUTH = 27.0 / 35.0


def _masses(rng, k):
    m = rng.uniform(0.5, 1.5, size=k)
    return m / m.sum()


def _labels(prefix, k):
    width = len(str(k - 1))
    return ["%s%0*d" % (prefix, width, i) for i in range(k)]


def unconfoundedness_spec(rng, k, seed):
    cells = [
        {"label": label, "mass": float(m), "p": float(p),
         "tau": float(t), "baseline": float(b)}
        for label, m, p, t, b in zip(
            _labels("c", k), _masses(rng, k), rng.uniform(0.1, 0.9, k),
            rng.normal(1.0, 1.0, k), rng.normal(0.0, 1.0, k))
    ]
    return {"family": "unconfoundedness", "seed": seed, "noise_scale": 1.0,
            "cells": cells}


def iv_spec(rng, k, seed):
    pc = rng.uniform(0.4, 0.8, k)
    pa = rng.uniform(0.0, 0.1, k)
    cells = [
        {"label": label, "mass": float(m), "pz": float(z), "pc": float(c),
         "pa": float(a), "tau": float(t), "baseline": float(b)}
        for label, m, z, c, a, t, b in zip(
            _labels("c", k), _masses(rng, k), rng.uniform(0.3, 0.7, k), pc,
            pa, rng.normal(1.0, 1.0, k), rng.normal(0.0, 1.0, k))
    ]
    return {"family": "iv", "seed": seed, "noise_scale": 1.0, "cells": cells}


def _mc_inputs(rng, seed, sizes):
    return {"specs": [UNIQUE_SPEC, TIED_SPEC,
                      iv_spec(rng, sizes.mc_iv_cells, seed)]}


def _micro_inputs(rng, seed, sizes):
    return {"specs": {
        "ols": unconfoundedness_spec(rng, sizes.micro_cells, seed),
        "iv": iv_spec(rng, sizes.micro_cells, seed),
    }}


def _audit_inputs(rng, seed, sizes):
    # near-uniform adoption shares over {2..T} and never-treated
    t = sizes.groups_t
    groups = list(range(2, t + 1)) + [math.inf]
    group_shares = _masses(rng, len(groups))

    # wide panel: every unit draws its adoption period, outcomes are a
    # unit level plus a common trend plus the effect once treated
    pt = sizes.panel_t
    cohort = np.array(list(range(2, pt + 1)) + [math.inf])
    g = cohort[rng.integers(0, len(cohort), size=sizes.panel_n)]
    periods = np.arange(1, pt + 1)
    y = (rng.normal(0.0, 1.0, size=(sizes.panel_n, 1))
         + 0.05 * periods[None, :]
         + 1.5 * (periods[None, :] >= g[:, None])
         + rng.normal(0.0, 1.0, size=(sizes.panel_n, pt)))

    # cell table with effects; mu0 sits at the 10th percentile of tau so
    # the fixed-tau programs must trim a large share of cells
    k = sizes.design_k
    w0 = rng.uniform(0.0, 1.0, k)
    w0[rng.random(k) < 0.25] = 1.0
    design = {
        "p": _masses(rng, k),
        "a": rng.uniform(0.05, 1.0, k),
        "w0": w0,
        "tau": rng.normal(0.0, 2.0, k),
    }
    design["mu0"] = float(np.percentile(design["tau"], 10))
    design["b_lo"] = float(math.floor(design["tau"].min())) - 1.0
    design["b_hi"] = float(math.ceil(design["tau"].max())) + 1.0
    return {"groups_t": t, "group_shares": dict(zip(groups, group_shares)),
            "panel_g": g, "panel_y": y, "design": design}


_MAKERS = {"mc_study": _mc_inputs, "cli_micro": _micro_inputs,
           "cli_audit": _audit_inputs}


def make_inputs(workload, seed, sizes):
    """Every input of `workload`, drawn from `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    return _MAKERS[workload](rng, seed, sizes)


def _g_text(g):
    return "inf" if math.isinf(g) else str(int(g))


def write_inputs(workload, inputs, out):
    """Write the files a CLI workload reads into directory `out`."""
    os.makedirs(out, exist_ok=True)
    if workload == "cli_micro":
        for name, spec in inputs["specs"].items():
            with open(os.path.join(out, "spec_%s.json" % name), "w") as fh:
                json.dump(spec, fh)
    elif workload == "cli_audit":
        with open(os.path.join(out, "groups.csv"), "w") as fh:
            fh.write("g,share\n")
            for g, s in inputs["group_shares"].items():
                fh.write("%s,%r\n" % (_g_text(g), float(s)))
        g, y = inputs["panel_g"], inputs["panel_y"]
        with open(os.path.join(out, "panel.csv"), "w") as fh:
            fh.write("unit,g," + ",".join("y%d" % t for t in
                                          range(1, y.shape[1] + 1)) + "\n")
            for i in range(y.shape[0]):
                fh.write("u%d,%s,%s\n" % (i, _g_text(g[i]),
                                          ",".join(map(repr, y[i].tolist()))))
        d = inputs["design"]
        with open(os.path.join(out, "design.csv"), "w") as fh:
            fh.write("label,p,a,w0,tau\n")
            rows = zip(d["p"].tolist(), d["a"].tolist(), d["w0"].tolist(),
                       d["tau"].tolist())
            for i, (p, a, w0, tau) in enumerate(rows):
                fh.write("k%d,%r,%r,%r,%r\n" % (i, p, a, w0, tau))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(_MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    from estimand_audit import DgpSpec  # package import is part of set-up

    sizes = SMOKE if args.smoke else FULL
    inputs = make_inputs(args.workload, args.seed, sizes)
    if args.workload == "mc_study":
        for spec in inputs["specs"]:
            DgpSpec.from_json_dict(spec)
    write_inputs(args.workload, inputs, args.out)


if __name__ == "__main__":
    main()

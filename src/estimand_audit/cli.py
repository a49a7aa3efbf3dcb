"""Command line front end for design audits, bounds, estimation, the
bootstrap, simulation, and figure-data emission.

Exit codes: 0 on success, 1 for domain errors (bad input data, missing
tau where one is needed) and for running out of memory, 2 for usage
errors.  A design for which no causal representation exists is *not* an
error — the finding is reported in the ``exists`` field and the share
rows are zero.

JSON reports carry a ``schema_version`` field; the human-readable audit
table has one column for the uniform analysis and one for the fixed-tau
analysis, with rows for the representable share of the population and of
the target subpopulation.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bounds import (
    SupportBounds,
    ate_bounds_from_validity,
    ate_bounds_general,
    decompose_negative_weights,
)
from .cells import (CellTable, _BadField, _fields, clip_share, moment_summary,
                    normalize_sign, open_atomic, tau_col, write_csv)
from .data_io import DgpSpec, load_micro, load_panel, panel_to_group_distribution, simulate
from .designs import ESTIMAND_FAMILIES, GroupDistribution, IvCellTable, PropensityTable
from .errors import (AuditError, InfeasibleProgram, InstanceTooLarge,
                     InvalidDesign, InvalidSpec, MissingTau, NonFiniteResult,
                     ParseError)
from .inference import (
    ESTIMABLE,
    BootstrapConfig,
    _plug_in,
    bootstrap_ci,
    estimate_design,
    estimate_uniform_validity,
)
from .validity import (
    BRUTE_FORCE_LIMIT,
    fixed_tau_bruteforce,
    fixed_tau_internal_validity,
    fixed_tau_lp,
    uniform_internal_validity,
)

SCHEMA_VERSION = 1

SOLVER_TOL = 1e-9

# The input flags of each primitive table type; a GroupDistribution is
# read from --groups or counted from a --panel.
_INPUT_FLAGS = {
    PropensityTable: ("propensities",),
    IvCellTable: ("iv_cells",),
    GroupDistribution: ("groups", "panel"),
}

# Each family's public builder is bound here under its own name and
# called through that binding, so that a wrapper set on this module
# (perfbench's tracer wraps `cli.twfe_h_design`) sees every build.
globals().update({fam.build.__name__: fam.build
                  for fam in ESTIMAND_FAMILIES.values()})


def _checked(kind, ok, expected):
    """An argparse type: `kind(text)`, accepted only when `ok` holds, so a
    bad value is a usage error (exit 2) at its option."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                "expected %s, got %r" % (expected, text))
        return value
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda v: 0 < v < math.inf,
                     "a finite positive number")
_level = _checked(float, lambda v: 0 < v < 1, "a number strictly inside (0, 1)")
_count = _checked(int, lambda v: v > 0, "a positive integer")
_seed = _checked(int, lambda v: v >= 0, "a nonnegative integer")


def _design_flags(sub):
    sub.add_argument("--design", metavar="CSV",
                     help="cell table CSV (label,p,a,w0,tau)")
    sub.add_argument("--family",
                     choices=tuple(ESTIMAND_FAMILIES),
                     help="build the design for this estimand family")
    sub.add_argument("--propensities", metavar="CSV",
                     help="propensity table for the ols_* families")
    sub.add_argument("--iv-cells", metavar="CSV",
                     help="instrument cell table for iv/tsls")
    sub.add_argument("--groups", metavar="CSV",
                     help="adoption-group distribution for the twfe_* families")
    sub.add_argument("--panel", metavar="CSV",
                     help="wide panel (unit,g,y1..yT); groups are counted from it")
    sub.add_argument("--tau", metavar="V1,V2,...",
                     help="attach per-cell effect values, in cell order")


def _parse_tau(text, k):
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != k:
        raise InvalidDesign(
            "--tau lists %d values but the design has %d cells" % (len(tokens), k)
        )
    try:
        return tau_col(tokens, "--tau")
    except _BadField as bad:
        raise ParseError(bad.args[2]) from None


def _build_design(args, parser):
    """Resolve the design input flags into (family, CellTable)."""
    if (args.design is None) == (args.family is None):
        parser.error("give exactly one of --design or --family")
    if args.design is not None:
        family, design = "design", CellTable.from_csv(args.design)
    else:
        family = args.family
        fam = ESTIMAND_FAMILIES[family]
        flags = _INPUT_FLAGS[fam.primitive]
        given = [flag for flag in flags if getattr(args, flag) is not None]
        if len(given) != 1:
            need = " or ".join("--" + flag.replace("_", "-") for flag in flags)
            parser.error("--family %s requires %s%s" % (
                family, "exactly one of " if len(flags) > 1 else "", need))
        if given == ["panel"]:
            table = panel_to_group_distribution(load_panel(args.panel))
        else:
            table = fam.primitive.from_csv(getattr(args, given[0]))
        design = globals()[fam.build.__name__](table)
    if args.tau is not None:
        design = design.with_tau(_parse_tau(args.tau, design.k))
    return family, design


def _write_json(path, payload):
    with open_atomic(path) as fh:  # one write: json.dump writes chunk by chunk
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                            indent=2, sort_keys=True, allow_nan=False) + "\n")


def _non_finite(value, key=""):
    """The key of the first number in a report that is not finite, or None."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        try:
            if all(map(math.isfinite, value)):
                return None
        except TypeError:  # not a list of numbers only
            pass
        items = enumerate(value)
    else:
        return key if isinstance(value, float) and not math.isfinite(value) else None
    for k, v in items:
        found = _non_finite(v, f"{key}[{k}]" if isinstance(k, int) else
                            f"{key}.{k}" if key else k)
        if found is not None:
            return found
    return None


def _emit(args, payload, lines):
    bad = _non_finite(payload)
    if bad is not None:
        raise NonFiniteResult(f"the report value {bad} is not a finite number")
    if args.json is not None:
        _write_json(args.json, payload)
    if not args.quiet and lines:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _num(value, fmt="%.6g"):
    return "-" if value is None else fmt % value


def _fixed_tau_payload(design, mu0, warnings):
    report, trim = fixed_tau_internal_validity(design, mu0)
    solvers = {"closed_form": trim.kept_mass}
    try:
        solvers["mass_reduction"] = fixed_tau_lp(design, mu0)
    except InfeasibleProgram:
        solvers["mass_reduction"] = 0.0
        warnings.append("mu0 lies outside the range of the supplied tau values")
    try:
        solvers["brute_force"] = fixed_tau_bruteforce(design, mu0)
    except InstanceTooLarge:
        solvers["brute_force"] = None
        warnings.append(
            "brute-force cross-check skipped: design has more than %d cells"
            % BRUTE_FORCE_LIMIT
        )
    values = [v for v in solvers.values() if v is not None]
    agreement = max(values) - min(values) <= SOLVER_TOL
    if not agreement:
        warnings.append("fixed-tau solvers disagree beyond %g" % SOLVER_TOL)
    return {
        "mu0": float(mu0),
        "report": report.to_json_dict(),
        "trim": trim.to_json_dict(),
        "solvers": solvers,
        "agreement": agreement,
    }, (report, trim)


def _ate_bounds(args, mu_value, uniform):
    """The support bounds of --b-lo/--b-hi, the report keys of the ATE
    interval they give with the representable share, and its line."""
    if mu_value is None:
        raise MissingTau("the ATE bounds need the estimand value: supply tau "
                         "in the design (bounds also takes --mu)")
    sb = SupportBounds(args.b_lo, args.b_hi)
    interval = ate_bounds_from_validity(mu_value, uniform.p_representative, sb)
    keys = {"support": {"lo": sb.b_lo, "hi": sb.b_hi},
            "ate": interval.to_json_dict()}
    return sb, keys, "ATE in [%.6g, %.6g] (width %.6g)" % (
        interval.lo, interval.hi, interval.width)


def _audit_table(family, design, summary, uniform, fixed):
    lines = ["audit: family=%s cells=%d" % (family, design.k)]
    lines.append(
        "mu = %s | E[a|W0=1] = %s | P(W0=1) = %s"
        % (_num(summary.mu), _num(summary.mean_a_given_w0), _num(summary.pop_w0))
    )
    header = "%-22s%20s%16s" % ("", "uniformly in tau0", "given tau0")
    rows = [
        ("exists", "yes" if uniform.exists else "no",
         "-" if fixed is None else ("yes" if fixed[0].exists else "no")),
        ("P(W*=1)", _num(uniform.p_representative),
         "-" if fixed is None else _num(fixed[0].p_representative)),
        ("P(W*=1 | W0=1)", _num(uniform.p_internal),
         "-" if fixed is None else _num(fixed[0].p_internal)),
    ]
    lines.append(header)
    for label, u, f in rows:
        lines.append("%-22s%20s%16s" % (label, u, f))
    if fixed is not None:
        trim = fixed[1]
        lines.append(
            "trim: direction=%s alpha=%s atom_fraction=%s"
            % (trim.direction, _num(None if np.isnan(trim.alpha) else trim.alpha),
               _num(trim.atom_fraction))
        )
    return lines


def cmd_audit(args, parser):
    family, design = _build_design(args, parser)
    if (args.b_lo is None) != (args.b_hi is None):
        parser.error("--b-lo and --b-hi must be given together")
    warnings = []
    summary = moment_summary(design)
    uniform = uniform_internal_validity(design)
    payload = {
        "family": family,
        "moments": dataclasses.asdict(summary),
        "uniform": uniform.to_json_dict(),
        "fixed_tau": None,
        "bounds": None,
        "diagnostics": {"warnings": warnings},
    }
    fixed = None
    if design.tau is not None:
        mu0 = args.mu0 if args.mu0 is not None else summary.mu
        payload["fixed_tau"], fixed = _fixed_tau_payload(design, mu0, warnings)
    elif args.mu0 is not None:
        raise MissingTau("--mu0 is only meaningful for designs with tau values")
    lines = _audit_table(family, design, summary, uniform, fixed)
    if args.b_lo is not None:
        _, payload["bounds"], line = _ate_bounds(args, summary.mu, uniform)
        lines.append(line)
    return _emit(args, payload, lines)


def cmd_bounds(args, parser):
    family, design = _build_design(args, parser)
    summary = moment_summary(design)
    uniform = uniform_internal_validity(design)
    mu_value = args.mu if args.mu is not None else summary.mu
    sb, ate, line = _ate_bounds(args, mu_value, uniform)
    payload = {
        "family": family,
        "mu": float(mu_value),
        "p_internal": uniform.p_internal,
        "p_representative": uniform.p_representative,
        **ate,
        "decomposition": None,
        "general": None,
    }
    lines = [
        "bounds: family=%s mu=%.6g P(W*=1)=%.6g" % (family, mu_value,
                                                    uniform.p_representative),
        line,
    ]
    if design.full_population:
        decomposition = decompose_negative_weights(design)
        general = ate_bounds_general(design, mu_value, sb)
        payload["decomposition"] = decomposition.to_json_dict()
        payload["general"] = general.to_json_dict()
        lines.append(
            "sign split: omega+ = %.6g, omega- = %.6g; any-sign ATE in "
            "[%.6g, %.6g]" % (decomposition.omega_plus,
                              decomposition.omega_minus, general.lo, general.hi)
        )
    return _emit(args, payload, lines)


def cmd_estimate(args, parser):
    sample = load_micro(args.data)
    ed = estimate_design(sample, args.family)
    cfg = BootstrapConfig(b=1, c0=args.c0, xi0=args.xi0)
    p_hat = estimate_uniform_validity(ed, cfg)
    c_n = cfg.c_n(ed.n)
    trimmed = [ed.design.labels[i] for i in np.flatnonzero(~_plug_in(ed, cfg)[0])]
    cells = [
        {
            "label": ed.design.labels[i],
            "count": int(ed.counts[i]),
            "p": float(ed.design.p[i]),
            "a": float(ed.design.a[i]),
            "w0": float(ed.design.w0[i]),
        }
        for i in range(ed.design.k)
    ]
    payload = {
        "family": args.family,
        "n": ed.n,
        "c_n": c_n,
        "cells": cells,
        "p_hat": float(p_hat),
        "p_hat_clipped": clip_share(p_hat),
        "trimmed_cells": trimmed,
    }
    lines = [
        "estimate: family=%s n=%d cells=%d" % (args.family, ed.n, ed.design.k),
        "P_hat(W*=1 | W0=1) = %.6g (clipped %.6g); %d cell(s) trimmed"
        % (p_hat, payload["p_hat_clipped"], len(trimmed)),
    ]
    return _emit(args, payload, lines)


def cmd_bootstrap(args, parser):
    sample = load_micro(args.data)
    cfg = BootstrapConfig(
        b=args.B,
        alpha=args.alpha,
        c0=args.c0,
        xi0=args.xi0,
        seed=args.seed if args.seed is not None else 0,
    )
    result = bootstrap_ci(sample, args.family, cfg)
    payload = {
        "family": args.family,
        "n": sample.n,
        "alpha": cfg.alpha,
        "draws": result.draws.tolist(),
    }
    payload.update(result.to_json_dict())
    lines = [
        "bootstrap: family=%s n=%d B=%d" % (args.family, sample.n, cfg.b),
        "P_hat = %.6g; one-sided %g%% CI = [0, %.6g] (ok)"
        % (result.p_hat_clipped, 100 * (1 - cfg.alpha), result.ci[1]),
    ]
    return _emit(args, payload, lines)


def cmd_simulate(args, parser):
    with open(args.spec) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise InvalidSpec("%s: malformed JSON: %s" % (args.spec, exc)) from None
    spec = DgpSpec.from_json_dict(payload)
    data = simulate(spec, args.n, seed=args.seed)
    data.to_csv(sys.stdout if args.out is None else args.out)
    meta = {
        "family": spec.family,
        "n": args.n,
        "seed": args.seed if args.seed is not None else spec.seed,
    }
    return _emit(args, meta, [])


def _figure_columns(args, parser):
    """{column name: float array, or object array of labels} of the
    requested figure."""
    family, design = _build_design(args, parser)
    sub = design.w0_mass > 0
    q = design.w0_mass[sub] / design.pop_w0
    if args.which == "fig1":
        design = normalize_sign(design)
        a = design.a[sub]
        a_max = float(a.max())
        if design.x is not None and design.x.ndim == 1:
            xs = design.x[sub]
        else:
            xs = np.array(design.labels, dtype=object)[sub]
        return {"x": xs, "f_X": q, "a_f_X_over_a_max": a * q / a_max}
    if design.tau is None:
        raise MissingTau("fig2 needs tau values in the design")
    mu0 = args.mu0 if args.mu0 is not None else moment_summary(design).mu
    if not math.isfinite(mu0):
        raise NonFiniteResult("fig2's default mu0, the design's own "
                              "estimand, is not a finite number")
    report, trim = fixed_tau_internal_validity(design, mu0)
    taus = design.tau[sub]
    kept = (report.inclusion.inclusion[sub]
            if report.inclusion is not None else np.zeros(q.shape))
    order = np.argsort(taus, kind="stable")
    return {"tau": taus[order], "mass": q[order], "kept": kept[order],
            "alpha": np.full(len(order), trim.alpha)}


def cmd_figure_data(args, parser):
    columns = _figure_columns(args, parser)
    write_csv(sys.stdout if args.out is None else args.out, columns)
    if args.json is not None:  # the CSV's fields, with labels unquoted
        fields = [c.tolist() if c.dtype == object else _fields(c)
                  for c in columns.values()]
        _write_json(args.json, {
            "which": args.which,
            "rows": [dict(zip(columns, r)) for r in zip(*fields)],
        })
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=None,
                        help="root seed for anything random")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable output")

    parser = argparse.ArgumentParser(
        prog="estimand-audit",
        description="Audit weighted causal estimands: implied weights, "
                    "representation existence, representable shares, ATE "
                    "bounds, and estimation from micro data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", parents=[common],
                             help="full design audit")
    _design_flags(p_audit)
    p_audit.add_argument("--mu0", type=_finite, default=None,
                         help="estimand value for the fixed-tau audit "
                              "(default: the design's own estimand)")
    p_audit.add_argument("--b-lo", type=_finite, default=None,
                         help="lower support bound for ATE bounds")
    p_audit.add_argument("--b-hi", type=_finite, default=None,
                         help="upper support bound for ATE bounds")
    p_audit.set_defaults(func=cmd_audit)

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="ATE bounds from the representable share")
    _design_flags(p_bounds)
    p_bounds.add_argument("--mu", type=_finite, default=None,
                          help="estimand value, if the design carries no tau")
    p_bounds.add_argument("--b-lo", type=_finite, required=True,
                          help="lower support bound for the effects")
    p_bounds.add_argument("--b-hi", type=_finite, required=True,
                          help="upper support bound for the effects")
    p_bounds.set_defaults(func=cmd_bounds)

    micro = argparse.ArgumentParser(add_help=False, parents=[common])
    micro.add_argument("--data", required=True, metavar="CSV",
                       help="micro sample (x,d[,z][,y])")
    micro.add_argument("--family", required=True, choices=ESTIMABLE)
    micro.add_argument("--c0", type=_positive, default=0.5,
                       help="trimming scale constant")
    micro.add_argument("--xi0", type=_positive, default=0.5,
                       help="near-maximizer scale constant")

    p_estimate = sub.add_parser("estimate", parents=[micro],
                                help="estimate the design and the share "
                                     "from micro data")
    p_estimate.set_defaults(func=cmd_estimate)

    p_boot = sub.add_parser("bootstrap", parents=[micro],
                            help="one-sided bootstrap CI for the share")
    p_boot.add_argument("--B", type=_count, default=400,
                        help="bootstrap replications")
    p_boot.add_argument("--alpha", type=_level, default=0.05)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="draw a synthetic sample from a DGP spec")
    p_sim.add_argument("--spec", required=True, metavar="JSON")
    p_sim.add_argument("--n", required=True, type=_count)
    p_sim.add_argument("--out", metavar="CSV", default=None,
                       help="write here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure-data", parents=[common],
                           help="emit plot-ready CSV columns")
    _design_flags(p_fig)
    p_fig.add_argument("--which", required=True, choices=("fig1", "fig2"),
                       help="fig1: weight profile; fig2: trimmed tau region")
    p_fig.add_argument("--mu0", type=_finite, default=None,
                       help="estimand value for fig2")
    p_fig.add_argument("--out", metavar="CSV", default=None)
    p_fig.set_defaults(func=cmd_figure_data)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a report number that overflows is refused by `_emit`, so numpy's
        # floating-point warnings would only repeat that error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args, parser)
    except (AuditError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's says what it could not allocate
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

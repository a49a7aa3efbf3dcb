"""Acceptance criteria: nine numbered end-to-end checks.

Each criterion pins values derived independently of the implementation
(hand computations, closed forms, brute-force enumeration, or the
Gaussian limit of the estimator) together with a runtime budget.  The
conftest hook prints one ``CRITERION n PASS/FAIL`` line per criterion in
the terminal summary.

Statistical criteria (6 and 7) run under fixed seeds, so their outcomes
are reproducible bit for bit; the tolerance bands were sized so that a
correct implementation passes with several standard errors to spare.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import stats

from estimand_audit import cli
from estimand_audit.bounds import (
    SupportBounds,
    ate_bounds_from_validity,
    ate_bounds_general,
    decompose_negative_weights,
)
from estimand_audit.cells import cell_table, discrete_weights, mu, rng_stream
from estimand_audit.data_io import DgpSpec, simulate
from estimand_audit.designs import GroupDistribution, twfe_gb_weights, twfe_h_design
from estimand_audit.inference import (
    BootstrapConfig,
    EstimatedDesign,
    bootstrap_ci,
    estimate_design,
    estimate_uniform_validity,
    psi_hat_build,
)
from estimand_audit.validity import (
    adversarial_sign_check,
    check_uniform_existence,
    check_weakly_causal,
    fixed_tau_bruteforce,
    fixed_tau_internal_validity,
    fixed_tau_lp,
    uniform_internal_validity,
)

from .conftest import record_criterion
from .helpers import binary_design, random_design, random_group_distribution
from .test_validity import staggered_share_formula

DATA = Path(__file__).parent / "data"


def criterion(n, budget_seconds, passes=1):
    """Record the criterion outcome and enforce its runtime budget on the
    fastest of up to `passes` whole runs, each making every assertion:
    host noise only ever slows a run down, so a later pass is taken only
    when the earlier ones were over budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(self, *args, **kwargs):
            elapsed = math.inf
            for _ in range(passes):
                start = time.perf_counter()
                try:
                    fn(self, *args, **kwargs)
                except BaseException:
                    record_criterion(n, False)
                    raise
                elapsed = min(elapsed, time.perf_counter() - start)
                if elapsed <= budget_seconds:
                    break
            if elapsed > budget_seconds:
                record_criterion(n, False)
                raise AssertionError(
                    "criterion %d exceeded its runtime budget: %.2fs > %ss"
                    % (n, elapsed, budget_seconds)
                )
            record_criterion(n, True)

        return inner

    return wrap


def _benchmark_spec():
    return DgpSpec.from_json_dict({
        "family": "unconfoundedness",
        "noise_scale": 0.0,
        "cells": [
            {"label": "1", "mass": 0.2, "p": 0.4},
            {"label": "2", "mass": 0.8, "p": 0.1},
        ],
    })


class TestAcceptance:
    @criterion(1, 5.0)
    def test_criterion_1_benchmark_reproduction(self):
        design = binary_design()
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            omega = discrete_weights(design)
            report = uniform_internal_validity(design)
            best = min(best, time.perf_counter() - t0)
        assert abs(omega[0] - 0.4) <= 1e-12
        assert abs(omega[1] - 0.6) <= 1e-12
        incl = report.inclusion.inclusion
        assert abs(incl[0] - 1.0) <= 1e-12
        assert abs(incl[1] - 0.375) <= 1e-12
        assert abs(report.p_internal - 0.5) <= 1e-12
        assert best < 1e-3

    @criterion(2, 1.0, passes=3)
    def test_criterion_2_three_period_closed_form(self):
        # the grid stays inside the open simplex: both adoption shares
        # positive with a positive never-treated remainder
        grid = np.linspace(0.02, 0.98, 50)
        worst = 0.0
        for u in grid:
            for v in grid:
                p3 = float(v)
                p2 = float(u * (1.0 - v))
                gd = GroupDistribution(
                    3, {2: p2, 3: p3, math.inf: 1.0 - p2 - p3}
                )
                got = uniform_internal_validity(twfe_h_design(gd)).p_internal
                worst = max(worst, abs(got - staggered_share_formula(p2, p3)))
                if abs(p3 - 2.0 / 3.0) > 1e-3:
                    assert got < 1.0 - 1e-10
        assert worst <= 1e-10
        gd = GroupDistribution(
            3, {2: 0.2, 3: 2.0 / 3.0, math.inf: 1.0 - 0.2 - 2.0 / 3.0}
        )
        flat = uniform_internal_validity(twfe_h_design(gd)).p_internal
        assert abs(flat - 1.0) <= 1e-12

    @criterion(3, 5.0)
    def test_criterion_3_decomposition_identity(self):
        rng = rng_stream(3, "acceptance", "decomposition")
        for _ in range(1000):
            gd = random_group_distribution(rng, t_max=10)
            h = twfe_h_design(gd)
            gb = twfe_gb_weights(gd)
            treated = [i for i, g in enumerate(h.groups) if math.isfinite(g)]
            assert len(treated) == len(gb)
            assert float(np.max(np.abs(h.a[treated] - gb))) <= 1e-10

    @criterion(4, 30.0)
    def test_criterion_4_fixed_tau_solver_agreement(self):
        rng = rng_stream(4, "acceptance", "solvers")
        certificates = 0
        for i in range(1000):
            d = random_design(
                rng,
                k_max=8,
                with_tau=True,
                integer_tau=bool(i % 2),
                allow_negative_a=(i % 3 == 0),
                random_w0=(i % 5 == 0),
            )
            sub = d.w0_mass > 0
            q = d.w0_mass[sub] / d.w0_mass[sub].sum()
            vals = d.tau[sub]
            mode = i % 4
            if mode == 0:
                mu0 = float(vals @ q)  # immediate: no trimming needed
            elif mode == 1:
                # conditional mean of a bottom segment: the threshold
                # lands exactly on an atom
                order = np.argsort(vals)
                j = int(rng.integers(1, len(vals) + 1))
                low = order[:j]
                mu0 = float(vals[low] @ q[low] / q[low].sum())
            elif mode == 2:
                mu0 = mu(d)  # may fall outside the CATE range
            else:
                lo, hi = float(vals.min()), float(vals.max())
                mu0 = float(rng.uniform(lo, hi)) if hi > lo else lo
            report, trim = fixed_tau_internal_validity(d, mu0)
            kept = [trim.kept_mass, fixed_tau_lp(d, mu0),
                    fixed_tau_bruteforce(d, mu0)]
            assert max(kept) - min(kept) <= 1e-9
            if report.exists:
                incl = report.inclusion.inclusion[sub]
                den = float(incl @ q)
                if den > 0:
                    got = float((vals * incl) @ q) / den
                    assert abs(got - mu0) <= 1e-10 * max(1.0, abs(mu0))
                    certificates += 1
        assert certificates >= 500

    @criterion(5, 5.0)
    def test_criterion_5_bounds_properties(self):
        rng = rng_stream(5, "acceptance", "bounds")
        sb = SupportBounds(-2.0, 3.0)
        span = sb.b_hi - sb.b_lo
        negatives = 0
        for i in range(1000):
            d = random_design(rng, with_tau=True,
                              allow_negative_a=(i % 2 == 0))
            rep = uniform_internal_validity(d)
            mu_v = mu(d)
            interval = ate_bounds_from_validity(mu_v, rep.p_representative, sb)
            p = min(1.0, max(0.0, rep.p_representative))
            assert abs(interval.width - span * (1.0 - p)) <= 1e-12 * max(
                1.0, abs(mu_v)
            )
            dec = decompose_negative_weights(d)
            recombined = dec.omega_plus * dec.mu_plus
            if dec.mu_minus is not None:
                recombined -= dec.omega_minus * dec.mu_minus
            assert abs(recombined - mu_v) <= 1e-12 * max(1.0, abs(mu_v))
            negatives += dec.omega_minus > 0
            if rep.exists:
                general = ate_bounds_general(d, mu_v, sb)
                scale = 1e-12 * max(1.0, abs(interval.lo), abs(interval.hi))
                assert abs(general.lo - interval.lo) <= scale
                assert abs(general.hi - interval.hi) <= scale
        assert negatives >= 200
        flat = cell_table(("1", "2"), (0.25, 0.75), (0.3, 0.3),
                          tau=(1.0, 2.0))
        rep = uniform_internal_validity(flat)
        assert abs(rep.p_internal - 1.0) <= 1e-12
        point = ate_bounds_from_validity(mu(flat), rep.p_representative, sb)
        assert point.width <= 1e-12
        assert abs(point.lo - mu(flat)) <= 1e-12

    @criterion(6, 180.0)
    def test_criterion_6_estimator_consistency_and_limit(self):
        spec = _benchmark_spec()
        cfg = BootstrapConfig()
        truth = 0.5
        mean_err = {}
        z_vals = []
        for block, n in enumerate((1000, 4000)):
            errs = []
            for rep in range(2000):
                sample = simulate(spec, n, seed=100000 * block + rep)
                ed = estimate_design(sample, "ols_ate")
                p_hat = estimate_uniform_validity(ed, cfg)
                errs.append(abs(p_hat - truth))
                if n == 4000:
                    z_vals.append(math.sqrt(n) * (p_hat - truth))
            mean_err[n] = float(np.mean(errs))
        assert mean_err[4000] < 0.03
        assert mean_err[1000] / mean_err[4000] >= 1.7

        # Monte Carlo draws of the Gaussian limit: weight coordinates are
        # independent within-cell frequency limits, mass coordinates the
        # multinomial limit; the functional comes from the package, built
        # at the exact population frequencies
        ed = EstimatedDesign(
            design=binary_design(),
            joint=np.array([[120000, 80000], [720000, 80000]]),
            family="ols_ate",
        )
        lf = psi_hat_build(ed, cfg)
        rng = rng_stream(6, "acceptance", "limit")
        m = 20000
        masses = np.array([0.2, 0.8])
        props = np.array([0.4, 0.1])
        sd_a = np.abs(1.0 - 2.0 * props) * np.sqrt(
            props * (1.0 - props) / masses
        )
        za = rng.normal(size=(m, 2)) * sd_a
        w = rng.normal(size=(m, 2))
        root = np.sqrt(masses)
        zp = root * w - masses * (w @ root)[:, None]
        psi = (
            za @ lf.coef_a
            - lf.coef_max * za[:, list(lf.psi_set)].max(axis=1)
            + zp @ lf.coef_p
        )
        ks = stats.ks_2samp(np.asarray(z_vals), psi).statistic
        assert ks <= 0.08

    @criterion(7, 600.0)
    def test_criterion_7_bootstrap_coverage(self):
        unique_spec = _benchmark_spec()
        tied_spec = DgpSpec.from_json_dict({
            "family": "unconfoundedness",
            "noise_scale": 0.0,
            "cells": [
                {"label": "1", "mass": 0.3, "p": 0.3},
                {"label": "2", "mass": 0.3, "p": 0.7},
                {"label": "3", "mass": 0.4, "p": 0.1},
            ],
        })
        # tied design: weights (0.21, 0.21, 0.09), share 27/35
        cases = ((unique_spec, 0.5), (tied_spec, 27.0 / 35.0))
        for spec, truth in cases:
            covered = 0
            for rep in range(500):
                sample = simulate(spec, 2000, seed=rep)
                cfg = BootstrapConfig(b=400, alpha=0.05, seed=rep)
                result = bootstrap_ci(sample, "ols_ate", cfg)
                covered += result.ci[1] >= truth
            rate = covered / 500
            assert 0.92 <= rate <= 0.98

    @criterion(8, 2.0)
    def test_criterion_8_adversarial_equivalence(self):
        rng = rng_stream(8, "acceptance", "adversarial")
        negatives = 0
        for i in range(1000):
            d = random_design(
                rng,
                allow_negative_a=(i % 2 == 0),
                random_w0=(i % 3 == 0),
            )
            exists = check_uniform_existence(d)
            witness = adversarial_sign_check(d)
            assert (witness < 0) == (not exists)
            assert witness <= 0
            assert check_weakly_causal(d) == exists
            negatives += not exists
        assert 100 <= negatives <= 900

    @criterion(9, 30.0)
    def test_criterion_9_golden_panel_report(self, tmp_path, capsys):
        panel = DATA / "staggered_panel.csv"
        want_share = staggered_share_formula(0.7, 0.25)
        assert abs(want_share - 89.0 / 264.0) <= 1e-12

        out = tmp_path / "h.json"
        code = cli.main([
            "audit", "--family", "twfe_h", "--panel", str(panel),
            "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "uniformly in tau0" in text
        assert "given tau0" in text
        assert "P(W*=1)" in text
        assert "P(W*=1 | W0=1)" in text
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "schema_version", "family", "moments", "uniform", "fixed_tau",
            "bounds", "diagnostics",
        }
        assert payload["uniform"]["exists"] is True
        assert abs(payload["uniform"]["p_internal"] - want_share) <= 1e-10
        assert abs(payload["uniform"]["p_representative"] - 89.0 / 480.0) <= 1e-10
        assert abs(payload["moments"]["pop_w0"] - 0.55) <= 1e-12

        out2 = tmp_path / "cdh.json"
        code = cli.main([
            "audit", "--family", "twfe_cdh", "--panel", str(panel),
            "--json", str(out2), "--quiet",
        ])
        assert code == 0
        payload = json.loads(out2.read_text())
        assert payload["uniform"]["exists"] is False
        assert payload["uniform"]["p_internal"] == 0.0
        assert payload["uniform"]["p_representative"] == 0.0
        assert payload["uniform"]["inclusion"] is None

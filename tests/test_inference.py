"""Tests for plug-in estimation of the maximal-subpopulation share, the
limit functional, and the directional bootstrap."""

import numpy as np
import pytest

from estimand_audit.data_io import DgpSpec, MicroSample, simulate
from estimand_audit.errors import (
    AllCellsTrimmed,
    DimensionMismatch,
    EmptyCellArm,
    SchemaError,
)
from estimand_audit.inference import (
    BootstrapConfig,
    bootstrap_ci,
    estimate_design,
    estimate_uniform_validity,
    psi_apply,
    psi_hat_build,
)
from estimand_audit.validity import uniform_internal_validity


def exact_sample(counts_by_cell):
    """Build a sample with exact per-cell (n_untreated, n_treated) counts."""
    xs, ds = [], []
    for label, (n0, n1) in counts_by_cell.items():
        xs += [label] * (n0 + n1)
        ds += [0] * n0 + [1] * n1
    return MicroSample(x=np.asarray(xs), d=ds)


def exact_iv_sample(counts_by_cell):
    """Counts keyed by cell -> {(z, d): count}."""
    xs, zs, ds = [], [], []
    for label, arms in counts_by_cell.items():
        for (z, d), c in arms.items():
            xs += [label] * c
            zs += [z] * c
            ds += [d] * c
    return MicroSample(x=np.asarray(xs), d=ds, z=zs)


def benchmark_sample(n=1000):
    # masses (0.2, 0.8), within-cell treatment rates (0.4, 0.1) — exact
    n1 = int(0.2 * n)
    n2 = n - n1
    return exact_sample({
        "1": (n1 - int(0.4 * n1), int(0.4 * n1)),
        "2": (n2 - int(0.1 * n2), int(0.1 * n2)),
    })


CFG = BootstrapConfig(b=50, alpha=0.05, seed=3)


class TestEstimateDesign:
    def test_variance_weights_from_frequencies(self):
        s = exact_sample({"only": (6, 4)})
        ed = estimate_design(s, "ols_ate")
        assert ed.design.a[0] == pytest.approx(0.24, abs=1e-15)
        assert ed.design.w0[0] == 1.0
        assert ed.n == 10 and ed.counts[0] == 10

    def test_cell_masses(self):
        ed = estimate_design(benchmark_sample(), "ols_ate")
        assert ed.design.p == pytest.approx([0.2, 0.8], abs=1e-15)
        assert ed.design.labels == ("1", "2")

    def test_one_armed_cell_rejected(self):
        s = exact_sample({"a": (5, 5), "b": (0, 7)})
        with pytest.raises(EmptyCellArm, match="b"):
            estimate_design(s, "ols_ate")

    def test_treated_subpop_roles(self):
        ed = estimate_design(exact_sample({"c": (6, 4)}), "ols_att")
        assert ed.design.w0[0] == pytest.approx(0.4, abs=1e-15)
        assert ed.design.a[0] == pytest.approx(0.6, abs=1e-15)

    def test_untreated_subpop_roles(self):
        ed = estimate_design(exact_sample({"c": (6, 4)}), "ols_atu")
        assert ed.design.w0[0] == pytest.approx(0.6, abs=1e-15)
        assert ed.design.a[0] == pytest.approx(0.4, abs=1e-15)

    def test_iv_first_stage(self):
        s = exact_iv_sample({
            "c": {(0, 0): 10, (0, 1): 0, (1, 0): 4, (1, 1): 6},
        })
        ed = estimate_design(s, "iv")
        assert ed.design.w0[0] == pytest.approx(0.6, abs=1e-15)  # 6/10 - 0/10
        assert ed.design.a[0] == pytest.approx(0.25, abs=1e-15)  # pz = 1/2

    def test_iv_zero_first_stage_accepted(self):
        s = exact_iv_sample({
            "c": {(0, 0): 7, (0, 1): 3, (1, 0): 7, (1, 1): 3},
            "e": {(0, 0): 5, (0, 1): 0, (1, 0): 0, (1, 1): 5},
        })
        ed = estimate_design(s, "iv")
        by_label = dict(zip(ed.design.labels, ed.design.w0))
        assert by_label["c"] == 0.0
        assert by_label["e"] == 1.0

    def test_iv_missing_instrument_arm(self):
        s = exact_iv_sample({"c": {(1, 0): 5, (1, 1): 5}})
        with pytest.raises(EmptyCellArm):
            estimate_design(s, "iv")

    def test_iv_requires_instrument_column(self):
        with pytest.raises(SchemaError):
            estimate_design(benchmark_sample(), "iv")

    def test_tsls_covariance_weight(self):
        s = exact_iv_sample({
            "c": {(0, 0): 10, (0, 1): 0, (1, 0): 4, (1, 1): 6},
        })
        ed = estimate_design(s, "tsls")
        # cov = E[DZ] - E[D]E[Z] = 6/20 - (6/20)(10/20) = 0.15
        assert ed.design.a[0] == pytest.approx(0.15, abs=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            estimate_design(benchmark_sample(), "matching")


class TestEstimateUniformValidity:
    def test_plug_in_fidelity(self):
        ed = estimate_design(benchmark_sample(), "ols_ate")
        p_hat = estimate_uniform_validity(ed, CFG)
        truth = uniform_internal_validity(ed.design).p_internal
        assert abs(p_hat - truth) <= 1e-12
        assert p_hat == pytest.approx(0.5, abs=1e-12)

    def test_all_cells_trimmed(self):
        s = exact_iv_sample({
            "c": {(0, 0): 10, (0, 1): 0, (1, 0): 9, (1, 1): 1},
        })
        ed = estimate_design(s, "iv")  # w0 = 0.1 < c_n at n=20
        with pytest.raises(AllCellsTrimmed):
            estimate_uniform_validity(ed, CFG)

    def test_raw_estimate_can_exceed_one(self):
        # the global weight max sits in a trimmed cell: the reported ratio
        # uses the untrimmed max, pushing the raw value above 1
        s = exact_sample({"a": (238, 12), "b": (125, 125)})
        ed = estimate_design(s, "ols_att")
        p_hat = estimate_uniform_validity(ed, CFG)  # c_n(500) ≈ 0.063
        assert p_hat > 1.0


class TestPsiFunctional:
    def test_coefficients_on_benchmark(self):
        ed = estimate_design(benchmark_sample(), "ols_ate")
        lf = psi_hat_build(ed, CFG)
        # hand-evaluated: D = P(W0) = 1, M = 0.24, E[a|W0] = 0.12
        assert lf.coef_a == pytest.approx([0.2 / 0.24, 0.8 / 0.24], abs=1e-12)
        assert lf.coef_max == pytest.approx(0.12 / 0.24 ** 2, abs=1e-12)
        assert lf.coef_w0 == pytest.approx(
            [(0.24 - 0.12) * 0.2 / 0.24, (0.09 - 0.12) * 0.8 / 0.24], abs=1e-12
        )
        assert lf.coef_p == pytest.approx(
            [(0.24 - 0.12) / 0.24, (0.09 - 0.12) / 0.24], abs=1e-12
        )
        assert lf.psi_set == (0,)

    def test_single_cell_functional_vanishes(self):
        ed = estimate_design(exact_sample({"only": (6, 4)}), "ols_ate")
        lf = psi_hat_build(ed, CFG)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(size=(3, 1))
            assert psi_apply(lf, z) == 0.0

    def test_linearity_with_unique_maximizer(self):
        ed = estimate_design(benchmark_sample(), "ols_ate")
        lf = psi_hat_build(ed, CFG)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(size=(3, 2))
            assert psi_apply(lf, z) + psi_apply(lf, -z) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_concavity_with_tied_maximizers(self):
        s = exact_sample({"a": (60, 40), "b": (40, 60)})  # a = 0.24 twice
        ed = estimate_design(s, "ols_ate")
        lf = psi_hat_build(ed, CFG)
        assert lf.psi_set == (0, 1)
        rng = np.random.default_rng(5)
        strict = 0
        for _ in range(50):
            z = rng.normal(size=(3, 2))
            both = psi_apply(lf, z) + psi_apply(lf, -z)
            assert both <= 1e-14
            strict += both < -1e-10
        assert strict > 40

    def test_trimmed_cells_cannot_carry_the_max(self):
        # cell "a" has the largest weight but sits below the trimming
        # threshold, so the maximizer set comes from the others
        s = exact_sample({"a": (238, 12), "b": (125, 125), "c": (180, 70)})
        ed = estimate_design(s, "ols_att")
        lf = psi_hat_build(ed, CFG)
        assert 0 not in lf.psi_set

    def test_dimension_mismatch(self):
        ed = estimate_design(benchmark_sample(), "ols_ate")
        lf = psi_hat_build(ed, CFG)
        with pytest.raises(DimensionMismatch):
            psi_apply(lf, np.zeros((3, 5)))


class TestPsiSetConsistency:
    def test_maximizer_set_is_found_eventually(self):
        spec = DgpSpec.from_json_dict({
            "family": "unconfoundedness",
            "noise_scale": 0.0,
            "cells": [
                {"label": "1", "mass": 0.5, "p": 0.4},
                {"label": "2", "mass": 0.5, "p": 0.27},
            ],
        })
        fractions = []
        for i, n in enumerate((500, 2000, 8000)):
            hits = 0
            for rep in range(200):
                s = simulate(spec, n, seed=1000 * i + rep)
                try:
                    ed = estimate_design(s, "ols_ate")
                    lf = psi_hat_build(ed, CFG)
                except (EmptyCellArm, AllCellsTrimmed):
                    continue
                labels = np.asarray(ed.design.labels)
                hits += tuple(labels[list(lf.psi_set)]) == ("1",)
            fractions.append(hits / 200)
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[2] >= 0.95


class TestBootstrapCi:
    def test_determinism(self):
        s = benchmark_sample()
        r1 = bootstrap_ci(s, "ols_ate", CFG)
        r2 = bootstrap_ci(s, "ols_ate", CFG)
        assert r1.draws == pytest.approx(r2.draws, abs=0)
        assert r1.ci == r2.ci

    def test_single_cell_interval(self):
        s = exact_sample({"only": (6, 4)})
        res = bootstrap_ci(s, "ols_ate", CFG)
        assert res.p_hat == pytest.approx(1.0, abs=0)
        assert res.draws == pytest.approx(np.zeros(CFG.b), abs=0)
        assert res.ci == (0.0, 1.0)

    def test_interval_formula(self):
        s = benchmark_sample()
        res = bootstrap_ci(s, "ols_ate", CFG)
        assert len(res.draws) == CFG.b
        q = float(np.quantile(res.draws, CFG.alpha))
        assert res.q_alpha == pytest.approx(q, abs=0)
        expect = min(1.0, max(0.0, res.p_hat - q / np.sqrt(s.n)))
        assert res.ci == (0.0, pytest.approx(expect, abs=0))

    def test_upper_end_clipped_to_one(self):
        # the raw share exceeds 1 (see test_raw_estimate_can_exceed_one),
        # and so does p_hat - q_alpha / sqrt(n); the reported end is 1.0
        s = exact_sample({"a": (238, 12), "b": (125, 125)})
        res = bootstrap_ci(s, "ols_att", CFG)
        assert res.p_hat - res.q_alpha / np.sqrt(s.n) > 1.0
        assert res.ci == (0.0, 1.0)

    def test_upper_bound_tracks_the_truth(self):
        spec = DgpSpec.from_json_dict({
            "family": "unconfoundedness",
            "noise_scale": 0.0,
            "cells": [
                {"label": "1", "mass": 0.2, "p": 0.4},
                {"label": "2", "mass": 0.8, "p": 0.1},
            ],
        })
        cfg = BootstrapConfig(b=200, alpha=0.05, seed=17)
        covered = 0
        for rep in range(20):
            s = simulate(spec, 2000, seed=rep)
            res = bootstrap_ci(s, "ols_ate", cfg)
            covered += res.ci[1] >= 0.5
        assert covered >= 15

    def test_diagnostics_reported(self):
        res = bootstrap_ci(benchmark_sample(), "ols_ate", CFG)
        d = res.diagnostics
        assert d["trimmed_cells"] == []
        assert d["fallback_coordinates"] >= 0
        assert d["degenerate_redraws"] >= 0
        assert 0.0 <= d["max_cell_instability"] <= 1.0

    def test_json_payload(self):
        res = bootstrap_ci(benchmark_sample(), "ols_ate", CFG)
        payload = res.to_json_dict()
        assert payload["p_hat"] == pytest.approx(res.p_hat)
        assert payload["ci"]["hi"] == pytest.approx(res.ci[1])
        assert payload["n_draws"] == CFG.b


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(b=0)
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=1.2)
        with pytest.raises(ValueError):
            BootstrapConfig(c0=-1.0)

    @pytest.mark.parametrize("field", ["c0", "xi0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            BootstrapConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            BootstrapConfig(seed=-1)

    def test_rates(self):
        cfg = BootstrapConfig()
        assert cfg.c_n(1000) == pytest.approx(0.05, abs=1e-12)
        assert cfg.xi_n(8000) == pytest.approx(0.025, abs=1e-12)


def test_broken_estimate_invariant_raises_without_assert(monkeypatch):
    """The check survives `python -O`, which strips assert statements."""
    from estimand_audit import inference
    from estimand_audit.errors import InvariantViolation

    real = inference._theta

    def broken(joint, n, family):
        p, a, w0, ok_a, ok_w0 = real(joint, n, family)
        return p, a, w0, ok_a & False, ok_w0

    monkeypatch.setattr(inference, "_theta", broken)
    with pytest.raises(InvariantViolation):
        estimate_design(benchmark_sample(), "ols_ate")

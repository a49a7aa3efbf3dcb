"""Tests for plug-in estimation of the maximal-subpopulation share, the
limit functional, and the directional bootstrap."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from estimand_audit import inference
from estimand_audit.cells import cell_table
from estimand_audit.data_io import DgpSpec, MicroSample, simulate
from estimand_audit.errors import (
    AllCellsTrimmed,
    AuditError,
    DegenerateWeights,
    DimensionMismatch,
    EmptyCellArm,
    InvalidDesign,
    ResampleDegenerate,
    SchemaError,
)
from estimand_audit.inference import (
    ESTIMABLE,
    BootstrapConfig,
    EstimatedDesign,
    LimitFunctional,
    bootstrap_ci,
    estimate_design,
    estimate_uniform_validity,
    psi_apply,
    psi_hat_build,
)
from estimand_audit.validity import uniform_internal_validity

from .helpers import (
    reference_bootstrap_ci,
    reference_instrument_columns,
    reference_propensity_columns,
    reference_theta,
)


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

    def test_no_positive_untrimmed_weight(self):
        design = cell_table(["a", "b"], [0.5, 0.5], [-1.0, 0.0])
        ed = EstimatedDesign(design=design, counts=[5, 5],
                             joint=[[2, 3], [2, 3]], n=10, family="ols_ate")
        with pytest.raises(DegenerateWeights, match="not positive"):
            estimate_uniform_validity(ed, CFG)

    def test_counts_must_add_up_to_the_sample_size(self):
        design = cell_table(["a", "b"], [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(InvalidDesign, match="^cell counts do not add up "
                           "to the sample size$"):
            EstimatedDesign(design=design, counts=[5, 5],
                            joint=[[2, 3], [2, 2]], n=10, family="ols_ate")

    def test_near_maximizer_set_is_never_empty(self):
        with pytest.raises(InvalidDesign,
                           match="^near-maximizer set is empty$"):
            LimitFunctional(np.ones(2), np.ones(2), np.ones(2), 1.0, ())

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

    def test_replicates_that_always_trim_every_cell(self, monkeypatch):
        # every replicate puts the only cell's w0 = P(D=1) at 0.01, below
        # c_n = 0.5 * 100**(-1/3); redraws cannot help
        class Stuck:
            def multinomial(self, n, pvals, size):
                return np.tile([99, 1], (size, 1))

        monkeypatch.setattr(inference, "rng_stream", lambda *key: Stuck())
        s = exact_sample({"a": (80, 20)})
        with pytest.raises(ResampleDegenerate, match="after 50 rounds"):
            bootstrap_ci(s, "ols_att", CFG)


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

    @pytest.mark.parametrize("field", ["b", "seed"])
    @pytest.mark.parametrize("value", [20.0, np.float64(20.0), np.int64(20)],
                             ids=["float", "float64", "int64"])
    def test_whole_numbers_become_int(self, field, value):
        cfg = BootstrapConfig(**{field: value})
        assert type(getattr(cfg, field)) is int
        assert getattr(cfg, field) == 20

    @pytest.mark.parametrize("field", ["b", "seed"])
    @pytest.mark.parametrize("value", [1.5, float("nan"), float("inf"), "3",
                                       3 + 0j, None])
    def test_other_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BootstrapConfig(**{field: value})

    def test_float_b_and_seed_run_as_ints(self):
        s = benchmark_sample()
        got = bootstrap_ci(s, "ols_ate", BootstrapConfig(b=20.0, seed=3.0))
        want = bootstrap_ci(s, "ols_ate", BootstrapConfig(b=20, seed=3))
        assert got.draws.tobytes() == want.draws.tobytes()

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


# ---------------------------------------------------------------------------
# bit identity with the loop reference of the bootstrap
# ---------------------------------------------------------------------------


TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf,
                        5e-324])


@settings(max_examples=400, deadline=None)
@given(draws=st.lists(TIES | st.floats(), min_size=1, max_size=40)
       | hnp.arrays(float, st.integers(1, 1200), elements=TIES | st.floats(-2, 2)),
       alpha=st.floats(0, 1, exclude_min=True, exclude_max=True)
       | st.sampled_from([0.05, 0.5, 0.95]))
def test_quantile_is_numpys_bit_for_bit(draws, alpha):
    """Ties, both zeros, NaN, one draw and any alpha in (0, 1).  Which
    of inf - inf and the like warn may differ; the values may not."""
    draws = np.asarray(draws, dtype=float)
    before = draws.tobytes()
    with np.errstate(all="ignore"):
        got = inference._quantile(draws, alpha)
        want = float(np.quantile(draws, alpha))
    assert draws.tobytes() == before
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_count_maps_equal_the_axis_sums(data):
    """Values and NaN positions, bit for bit, with empty cells and arms
    and leading batch axes."""
    iv = data.draw(st.booleans(), label="iv")
    shape = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    shape += (data.draw(st.integers(1, 4), label="k"),) + (2,) * (1 + iv)
    counts = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2)
                                  | st.integers(0, 10**6)), label="counts")
    n = data.draw(st.integers(1, 10**7), label="n")
    got_p, got = (inference._instrument_columns if iv
                  else inference._propensity_columns)(counts.astype(float), n)
    want_p, want = (reference_instrument_columns if iv
                    else reference_propensity_columns)(counts.astype(float), n)
    assert got.keys() == want.keys()
    for g, w in [(got_p, want_p)] + [(got[c], want[c]) for c in want]:
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def same_bootstrap(sample, family, cfg, block=inference._BLOCK_FIELDS):
    """Run `bootstrap_ci` and the reference with `block` counts drawn at a
    time; both raise the same error, or agree bit for bit.  Returns the
    result, or None after an error."""
    with mock.patch.object(inference, "_BLOCK_FIELDS", block):
        try:
            want = reference_bootstrap_ci(sample, family, cfg)
        except AuditError as exc:
            with pytest.raises(type(exc)) as got:
                bootstrap_ci(sample, family, cfg)
            assert str(got.value) == str(exc)
            return None
        got = bootstrap_ci(sample, family, cfg)
    assert got.draws.tobytes() == want.draws.tobytes()
    for field in ("p_hat", "q_alpha", "ci", "diagnostics"):
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field
    ed = estimate_design(sample, family)
    d = ed.design
    for column, ref in zip((d.p, d.a, d.w0), reference_theta(ed.joint, ed.n, family)):
        assert column.tobytes() == ref.tobytes()
    return got


def single_cell_att():
    # w0 = P(D=1) = 0.1 sits just above c_n = 0.09 at n = 100, so about a
    # third of the replicates trim the only cell and are redrawn
    return exact_sample({"a": (90, 10)}), BootstrapConfig(
        b=60, seed=5, c0=0.09 * 100 ** (1 / 3))


class TestBootstrapMatchesTheReference:
    def test_one_replicate(self):
        res = same_bootstrap(benchmark_sample(), "ols_ate",
                             BootstrapConfig(b=1, seed=2))
        assert res.draws.shape == (1,)

    @pytest.mark.parametrize("family", ["ols_ate", "tsls"])
    def test_replicates_beyond_a_whole_number_of_blocks(self, family):
        # 7 replicates a block for 2 cells and one arm, 3 for two arms
        s = exact_iv_sample({
            "a": {(0, 0): 30, (0, 1): 10, (1, 0): 5, (1, 1): 35},
            "b": {(0, 0): 20, (0, 1): 20, (1, 0): 10, (1, 1): 30},
        })
        same_bootstrap(s, family, BootstrapConfig(b=37, seed=1), block=31)

    @pytest.mark.parametrize("family", ESTIMABLE)
    def test_replicates_that_lose_an_arm(self, family):
        s = exact_iv_sample({
            "a": {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3},
            "b": {(0, 0): 20, (0, 1): 5, (1, 0): 4, (1, 1): 21},
        })
        res = same_bootstrap(s, family, BootstrapConfig(b=200, seed=7))
        assert res.diagnostics["fallback_coordinates"] > 0

    def test_trimmed_cells(self):
        s = exact_sample({"a": (238, 12), "b": (125, 125), "c": (100, 25)})
        res = same_bootstrap(s, "ols_att", CFG)
        assert res.diagnostics["trimmed_cells"] == ["a"]

    @pytest.mark.parametrize("block", [inference._BLOCK_FIELDS, 10])
    def test_redraw_rounds(self, block):
        s, cfg = single_cell_att()
        res = same_bootstrap(s, "ols_att", cfg, block=block)
        assert res.diagnostics["degenerate_redraws"] > 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_samples(self, data):
        family = data.draw(st.sampled_from(ESTIMABLE), label="family")
        arms = [(z, d) for z in (0, 1) for d in (0, 1)]
        if family.startswith("ols"):
            arms = [(0, d) for d in (0, 1)]
        count = st.integers(1, 4) | st.integers(0, 40)
        cells = data.draw(st.lists(st.tuples(*[count] * len(arms)),
                                   min_size=1, max_size=4), label="cells")
        assume(any(map(any, cells)))  # a sample has a row
        s = exact_iv_sample({"c%d" % i: dict(zip(arms, row))
                             for i, row in enumerate(cells)})
        if family.startswith("ols"):
            s = MicroSample(s.x, s.d)
        cfg = BootstrapConfig(
            b=data.draw(st.just(1) | st.integers(2, 300), label="b"),
            alpha=data.draw(st.floats(0.01, 0.99), label="alpha"),
            c0=data.draw(st.floats(0.05, 3.0), label="c0"),
            xi0=data.draw(st.floats(0.05, 3.0), label="xi0"),
            seed=data.draw(st.integers(0, 2**32), label="seed"))
        block = data.draw(st.sampled_from([inference._BLOCK_FIELDS, 1, 17, 64]),
                          label="block")
        res = same_bootstrap(s, family, cfg, block)
        if res is None:
            event("an error")
            return
        for name, value in res.diagnostics.items():
            if value:
                event(name)

"""Tests for existence checks and internal-validity measures.

Frozen oracle values, derived by hand or by the brute-force enumerator
before the closed forms were implemented:

* adversarial check on a=(1,-1,1), uniform masses: E[a 1(a<0)]/E[a] =
  (-1/3)/(1/3) = -1; on a=(2,-1) with equal masses: (-0.5)/(0.5) = -1.
* tau=(0,1), p=(0.5,0.5), mu0=0.25: keep all of the tau=0 mass and one
  third of the tau=1 mass -> size 2/3, threshold 0.75 on tau-mu0,
  atom fraction 1/3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from estimand_audit.cells import SubpopulationRule, cell_table, mu
from estimand_audit.designs import (
    GroupDistribution,
    IvCellTable,
    PropensityTable,
    iv_design,
    ols_ate_design,
    ols_att_design,
    twfe_h_design,
)
from estimand_audit.errors import (
    DegenerateWeights,
    InfeasibleProgram,
    InstanceTooLarge,
    MissingNumericLabels,
    MissingTau,
    NegativeBound,
)
from estimand_audit.validity import (
    TauSample,
    adversarial_sign_check,
    check_bounded_difference_existence,
    check_fixed_existence,
    check_linear_cate_existence,
    check_uniform_existence,
    check_weakly_causal,
    fixed_tau_bruteforce,
    fixed_tau_internal_validity,
    fixed_tau_lp,
    uniform_internal_validity,
)

from .helpers import binary_design, random_design, reference_fixed_tau_lp


def three_point_design(a=(1.0, -1.0, 1.0)):
    return cell_table(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3), a)


class TestUniformExistence:
    def test_nonnegative_weights(self):
        assert check_uniform_existence(binary_design()) is True

    def test_negative_weight_cell(self):
        assert check_uniform_existence(three_point_design()) is False

    def test_negative_weights_off_base_subpop_are_ignored(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, -2.0), w0=(1.0, 0.0))
        assert check_uniform_existence(d) is True

    def test_zero_weights_degenerate(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (0.0, 0.0))
        with pytest.raises(DegenerateWeights):
            check_uniform_existence(d)

    def test_tiny_negative_clamped(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (0.3, -1e-14))
        assert check_uniform_existence(d) is True


class TestAdversarialSignCheck:
    def test_three_point_witness(self):
        assert adversarial_sign_check(three_point_design()) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_two_cell_witness(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (2.0, -1.0))
        assert adversarial_sign_check(d) == pytest.approx(-1.0, abs=1e-15)

    def test_nonnegative_weights_give_zero(self):
        assert adversarial_sign_check(binary_design()) == 0.0

    def test_witness_iff_nonexistence(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            d = random_design(rng, allow_negative_a=True, random_w0=True)
            witness = adversarial_sign_check(d)
            exists = check_uniform_existence(d)
            assert (witness < 0) == (not exists)
            assert witness <= 0


class TestFixedExistence:
    def test_mu_inside_cate_range(self):
        d = three_point_design().with_tau((0.0, 1.0, 0.0))
        assert check_fixed_existence(d, mu0=0.25) is True

    def test_constant_tau(self):
        d = binary_design(tau=(2.0, 2.0))
        assert check_fixed_existence(d) is True  # mu = 2 = the constant
        assert check_fixed_existence(d, mu0=2.5) is False

    def test_negative_weights_push_mu_outside(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (3.0, -1.0), tau=(1.0, 0.0))
        assert mu(d) == pytest.approx(1.5, abs=1e-15)
        assert check_fixed_existence(d) is False

    def test_requires_tau(self):
        with pytest.raises(MissingTau):
            check_fixed_existence(binary_design())

    @pytest.mark.parametrize("mu0", [math.inf, -math.inf, math.nan])
    def test_non_finite_mu0_is_outside(self, mu0):
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, 1.0), tau=(1.0, 2.0))
        assert check_fixed_existence(d, mu0=mu0) is False


class TestLinearCateExistence:
    def test_interior_barycenter(self):
        d = cell_table(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 1.0))
        assert d.x is not None  # numeric labels inferred from names
        assert check_linear_cate_existence(d) is True

    def test_nonnegative_weights_always_pass(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = random_design(rng, random_w0=True)
            assert check_linear_cate_existence(d) is True

    def test_exterior_barycenter(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (-1.0, 3.0))
        assert check_linear_cate_existence(d) is False  # pseudo-mean 1.5

    def test_missing_labels(self):
        d = cell_table(("lo", "hi"), (0.5, 0.5), (0.2, 0.3))
        with pytest.raises(MissingNumericLabels):
            check_linear_cate_existence(d)

    def test_vector_labels(self):
        # unit square corners; pseudo-mean lands outside the square when
        # the negative weight is large enough
        labels = ("0;0", "1;0", "0;1", "1;1")
        p = (0.25, 0.25, 0.25, 0.25)
        inside = cell_table(labels, p, (1.0, 1.0, 1.0, 1.0))
        assert check_linear_cate_existence(inside) is True
        outside = cell_table(labels, p, (-1.0, 0.1, 0.1, 1.2))
        bary = outside.x.T @ (outside.a * np.asarray(p))
        bary = bary / float(outside.a @ np.asarray(p))
        assert np.any(bary > 1.0)  # sanity: really outside the hull
        assert check_linear_cate_existence(outside) is False


class TestBoundedDifferenceExistence:
    def test_zero_bound_always_true(self):
        assert check_bounded_difference_existence(three_point_design(), 0.0) is True

    def test_positive_bound_matches_uniform(self):
        assert check_bounded_difference_existence(three_point_design(), 1.0) is False
        assert check_bounded_difference_existence(binary_design(), 1.0) is True

    def test_negative_bound_rejected(self):
        with pytest.raises(NegativeBound):
            check_bounded_difference_existence(binary_design(), -0.5)


class TestWeaklyCausal:
    def test_alias_of_uniform_existence(self):
        assert check_weakly_causal(binary_design()) is True
        assert check_weakly_causal(three_point_design()) is False
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = random_design(rng, allow_negative_a=True, random_w0=True)
            assert check_weakly_causal(d) == check_uniform_existence(d)


class TestUniformInternalValidity:
    def test_benchmark_design(self):
        rep = uniform_internal_validity(binary_design())
        assert rep.exists is True
        assert rep.p_internal == pytest.approx(0.5, abs=1e-15)
        assert rep.p_representative == pytest.approx(0.5, abs=1e-15)
        assert rep.a_max == pytest.approx(0.24, abs=0)
        assert rep.inclusion.inclusion == pytest.approx([1.0, 0.375], abs=1e-15)

    def test_constant_weights(self):
        d = cell_table(("a", "b"), (0.3, 0.7), (0.4, 0.4))
        rep = uniform_internal_validity(d)
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_no_representation(self):
        rep = uniform_internal_validity(three_point_design())
        assert rep.exists is False
        assert rep.p_internal == 0.0
        assert rep.p_representative == 0.0
        assert rep.inclusion is None

    def test_equal_weight_panel(self):
        d = twfe_h_design(GroupDistribution(3, {2: 1 / 6, 3: 2 / 3, math.inf: 1 / 6}))
        rep = uniform_internal_validity(d)
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)

    def test_representativeness_scales_with_base_subpop(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = random_design(rng, random_w0=True)
            rep = uniform_internal_validity(d)
            assert rep.p_representative == pytest.approx(
                rep.p_internal * d.pop_w0, abs=1e-12
            )
            assert 0.0 <= rep.p_internal <= 1.0 + 1e-12

    def test_inclusion_is_maximal(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            d = random_design(rng, random_w0=True)
            rep = uniform_internal_validity(d)
            # any other subpopulation rule proportional to the weights can
            # cover at most the reported share
            c = float(rng.uniform(0, 1.0 / rep.a_max))
            other = np.clip(c * d.a, 0.0, 1.0)
            assert (other * d.w0_mass).sum() <= rep.p_representative + 1e-12

    def test_inclusion_preserves_the_estimand(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            d = random_design(rng, random_w0=True, with_tau=True)
            rep = uniform_internal_validity(d)
            assert mu(d.with_a(rep.inclusion.inclusion)) == pytest.approx(
                mu(d), rel=1e-10, abs=1e-10
            )

    def test_treated_subpop_with_constant_propensity(self):
        pt = PropensityTable(("a", "b"), (0.4, 0.6), (0.3, 0.3))
        rep = uniform_internal_validity(ols_att_design(pt))
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)

    def test_complier_subpop_with_constant_instrument(self):
        iv = IvCellTable(("a", "b"), (0.5, 0.5), (0.4, 0.4), (0.08, 0.02),
                         (1 / 3, 1 / 12))
        rep = uniform_internal_validity(iv_design(iv))
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)

    def test_variance_weight_aggregate_cap(self):
        # with a cell at p=1/2 the maximal share is at most 4 P(D=1) P(D=0)
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            mass = rng.dirichlet(np.ones(k))
            p = rng.uniform(0.05, 0.95, size=k)
            p[int(rng.integers(k))] = 0.5
            pt = PropensityTable(tuple(map(str, range(k))), mass, p)
            rep = uniform_internal_validity(ols_ate_design(pt))
            pd1 = float(mass @ p)
            assert rep.p_internal <= 4 * pd1 * (1 - pd1) + 1e-12


def staggered_share_formula(p2, p3):
    """Closed-form maximal share for the three-period time-constant
    decomposition, as a function of the adoption shares."""
    omega = (4 - 2 * p2 - 4 * p3) / (2 - 2 * p2 - p3)
    lo = (2 * p2 + omega * p3) / (2 * p2 + p3)
    hi = (2 * p2 / omega + p3) / (2 * p2 + p3)
    return min(lo, hi)


class TestStaggeredClosedForm:
    def test_small_grid(self):
        for p2 in np.linspace(0.05, 0.9, 12):
            for p3 in np.linspace(0.05, 0.9, 12):
                if p2 + p3 >= 0.999:
                    continue
                gd = GroupDistribution(
                    3, {2: p2, 3: p3, math.inf: 1 - p2 - p3}
                )
                rep = uniform_internal_validity(twfe_h_design(gd))
                assert rep.p_internal == pytest.approx(
                    staggered_share_formula(p2, p3), abs=1e-10
                )

    def test_share_one_exactly_at_two_thirds(self):
        gd = GroupDistribution(3, {2: 0.2, 3: 2 / 3, math.inf: 0.8 - 2 / 3})
        rep = uniform_internal_validity(twfe_h_design(gd))
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)


class TestFixedTauInternalValidity:
    def test_two_point_oracle(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        rep, trim = fixed_tau_internal_validity(d, mu0=0.25)
        assert rep.exists is True
        assert rep.p_internal == pytest.approx(2 / 3, abs=1e-12)
        assert trim.direction == "above"
        assert trim.alpha == pytest.approx(0.75, abs=1e-12)
        assert trim.atom_fraction == pytest.approx(1 / 3, abs=1e-12)
        assert trim.kept_mass == pytest.approx(2 / 3, abs=1e-12)
        assert rep.inclusion.inclusion == pytest.approx([1.0, 1 / 3], abs=1e-12)

    def test_full_population_at_benchmark_mean(self):
        d = binary_design(tau=(3.0, 1.0))
        e0 = 0.2 * 3.0 + 0.8 * 1.0
        rep, trim = fixed_tau_internal_validity(d, mu0=e0)
        assert rep.p_internal == 1.0
        assert trim.direction == "none"
        assert trim.kept_mass == 1.0

    def test_infeasible_target(self):
        d = binary_design(tau=(3.0, 1.0))
        rep, trim = fixed_tau_internal_validity(d, mu0=5.0)
        assert rep.exists is False
        assert rep.p_internal == 0.0
        assert rep.inclusion is None
        assert trim.kept_mass == 0.0

    @pytest.mark.parametrize("mu0,direction", [(math.inf, "below"),
                                               (-math.inf, "above")])
    def test_infinite_target(self, mu0, direction):
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, 1.0), tau=(1.0, 2.0))
        rep, trim = fixed_tau_internal_validity(d, mu0=mu0)
        assert rep.exists is False
        assert rep.p_internal == 0.0
        assert rep.inclusion is None
        assert trim.direction == direction
        assert trim.kept_mass == 0.0

    def test_mirror_branch(self):
        # mu0 above E0 trims from below; mirror image of the oracle case
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        rep, trim = fixed_tau_internal_validity(d, mu0=0.75)
        assert trim.direction == "below"
        assert trim.alpha == pytest.approx(-0.75, abs=1e-12)
        assert rep.p_internal == pytest.approx(2 / 3, abs=1e-12)
        assert rep.inclusion.inclusion == pytest.approx([1 / 3, 1.0], abs=1e-12)

    def test_constant_tau(self):
        d = binary_design(tau=(2.0, 2.0))
        rep, _ = fixed_tau_internal_validity(d, mu0=2.0)
        assert rep.p_internal == 1.0

    def test_defaults_to_design_estimand(self):
        d = binary_design(tau=(3.0, 1.0))
        rep, trim = fixed_tau_internal_validity(d)
        rep2, _ = fixed_tau_internal_validity(d, mu0=mu(d))
        assert rep.p_internal == pytest.approx(rep2.p_internal, abs=0)

    def test_kept_subpop_recovers_the_target(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = random_design(rng, with_tau=True, random_w0=True,
                              integer_tau=bool(rng.integers(2)))
            lo, hi = _tau_range(d)
            mu0 = float(rng.uniform(lo, hi))
            rep, trim = fixed_tau_internal_validity(d, mu0=mu0)
            assert rep.exists
            incl = rep.inclusion.inclusion
            assert np.all(incl >= 0) and np.all(incl <= 1)
            assert mu(d.with_a(incl)) == pytest.approx(mu0, rel=1e-10, abs=1e-10)
            assert 0 <= trim.atom_fraction <= 1

    def test_atom_identity(self):
        # partial inclusion at the threshold atom rebalances the centered
        # effect to mean zero
        rng = np.random.default_rng(72)
        seen_partial = 0
        for _ in range(200):
            d = random_design(rng, with_tau=True, integer_tau=True)
            lo, hi = _tau_range(d)
            mu0 = float(rng.uniform(lo, hi))
            rep, trim = fixed_tau_internal_validity(d, mu0=mu0)
            incl = rep.inclusion.inclusion
            q = d.w0_mass / d.w0_mass.sum()
            assert float(((d.tau - mu0) * incl) @ q) == pytest.approx(
                0.0, abs=1e-12 * max(1.0, abs(mu0))
            )
            seen_partial += 0 < trim.atom_fraction < 1
        assert seen_partial > 50  # atoms at the threshold are the norm here

    def test_dominates_uniform_measure(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            d = random_design(rng, with_tau=True, random_w0=True)
            uniform = uniform_internal_validity(d)
            fixed, _ = fixed_tau_internal_validity(d, mu0=mu(d))
            assert fixed.p_internal >= uniform.p_internal - 1e-10

    def test_tau_sample_input(self):
        sample = TauSample(values=(0.0, 1.0), masses=(0.5, 0.5))
        rep, trim = fixed_tau_internal_validity(sample, mu0=0.25)
        assert rep.p_internal == pytest.approx(2 / 3, abs=1e-12)
        assert math.isnan(rep.a_max)
        assert rep.p_representative == pytest.approx(2 / 3, abs=1e-12)

    def test_missing_tau(self):
        with pytest.raises(MissingTau):
            fixed_tau_internal_validity(binary_design(), mu0=0.0)


def _tau_range(design):
    sub = design.w0_mass > 0
    return float(design.tau[sub].min()), float(design.tau[sub].max())


class TestFixedTauLp:
    def test_two_point_oracle(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        assert fixed_tau_lp(d, 0.25) == pytest.approx(2 / 3, abs=1e-12)

    def test_population_mean_terminates_immediately(self):
        d = binary_design(tau=(3.0, 1.0))
        assert fixed_tau_lp(d, 0.2 * 3.0 + 0.8 * 1.0) == pytest.approx(1.0, abs=0)

    def test_single_cell(self):
        d = cell_table(("only",), (1.0,), (0.3,), tau=(2.0,))
        assert fixed_tau_lp(d, 2.0) == pytest.approx(1.0, abs=0)

    def test_infeasible(self):
        d = binary_design(tau=(3.0, 1.0))
        with pytest.raises(InfeasibleProgram):
            fixed_tau_lp(d, 5.0)

    @pytest.mark.parametrize("mu0", [math.inf, -math.inf])
    def test_infinite_target_is_infeasible(self, mu0):
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, 1.0), tau=(1.0, 2.0))
        with pytest.raises(InfeasibleProgram):
            fixed_tau_lp(d, mu0)

    def test_ties_in_tau(self):
        d = cell_table(("a", "b", "c"), (0.25, 0.5, 0.25), (1.0, 1.0, 1.0),
                       tau=(0.0, 1.0, 1.0))
        # target 0.5: keep the tau=0 atom and 1/3 of the tau=1 mass... check
        # against the enumerator rather than freezing by hand
        assert fixed_tau_lp(d, 0.5) == pytest.approx(
            fixed_tau_bruteforce(d, 0.5), abs=1e-12
        )


@st.composite
def fixed_tau_programs(draw):
    """Designs of up to 300 cells, tau tied on a small integer grid or
    not, and a mu0 anywhere in tau's range (its ends and the tau values
    included); the cell columns come from a drawn seed."""
    k = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        tau = rng.integers(-3, 4, k).astype(float)
    else:
        tau = rng.normal(0.0, 2.0, k)
    p = rng.uniform(0.01, 1.0, k)
    w0 = np.where(rng.random(k) < 0.3, 1.0, rng.uniform(0.0, 1.0, k))
    w0[0] = 1.0
    design = cell_table(tuple(map(str, range(k))), p / p.sum(), np.ones(k),
                        w0=w0, tau=tau)
    lo, hi = _tau_range(design)
    mu0 = draw(st.sampled_from(tau.tolist()) | st.sampled_from([lo, hi])
               | st.floats(0.0, 1.0).map(lambda u: lo + u * (hi - lo)))
    return design, mu0


@settings(max_examples=300, deadline=None)
@given(program=fixed_tau_programs())
def test_fixed_tau_lp_equals_the_rescanning_reference(program):
    design, mu0 = program
    try:
        expected = reference_fixed_tau_lp(design, mu0)
    except InfeasibleProgram:
        with pytest.raises(InfeasibleProgram):
            fixed_tau_lp(design, mu0)
        return
    assert fixed_tau_lp(design, mu0) == expected


class TestFixedTauBruteforce:
    def test_two_point_oracle(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        assert fixed_tau_bruteforce(d, 0.25) == pytest.approx(2 / 3, abs=1e-12)

    def test_population_mean(self):
        d = binary_design(tau=(3.0, 1.0))
        assert fixed_tau_bruteforce(d, 1.4) == pytest.approx(1.0, abs=1e-12)

    def test_instance_cap(self):
        k = 13
        d = cell_table(tuple(map(str, range(k))), np.full(k, 1 / k),
                       np.ones(k), tau=np.arange(k, dtype=float))
        with pytest.raises(InstanceTooLarge):
            fixed_tau_bruteforce(d, 6.0)

    def test_three_way_agreement(self):
        rng = np.random.default_rng(74)
        for _ in range(300):
            d = random_design(rng, with_tau=True, random_w0=True,
                              integer_tau=bool(rng.integers(2)))
            lo, hi = _tau_range(d)
            mu0 = float(rng.uniform(lo, hi))
            rep, _ = fixed_tau_internal_validity(d, mu0=mu0)
            lp = fixed_tau_lp(d, mu0)
            brute = fixed_tau_bruteforce(d, mu0)
            assert lp == pytest.approx(brute, abs=1e-9)
            assert rep.p_internal == pytest.approx(brute, abs=1e-9)


class TestReportSerialization:
    def test_uniform_report_round_trip(self):
        rep = uniform_internal_validity(binary_design())
        payload = rep.to_json_dict()
        assert payload["exists"] is True
        assert payload["p_internal"] == pytest.approx(0.5)
        assert payload["inclusion"] == pytest.approx([1.0, 0.375])

    def test_trim_solution_serialization(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        rep, trim = fixed_tau_internal_validity(d, mu0=0.25)
        payload = trim.to_json_dict()
        assert payload["direction"] == "above"
        assert payload["alpha"] == pytest.approx(0.75)
        assert payload["e0"] == pytest.approx(0.5)

    def test_nonexistence_serializes_null_inclusion(self):
        rep = uniform_internal_validity(three_point_design())
        assert rep.to_json_dict()["inclusion"] is None

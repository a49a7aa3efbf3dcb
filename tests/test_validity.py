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
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from estimand_audit import validity
from estimand_audit.bounds import SupportBounds, ate_bounds_from_validity
from estimand_audit.cells import (CellTable, SubpopulationRule, cell_table,
                                  discrete_weights, moment_summary, mu,
                                  normalize_sign)
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
    AuditError,
    DegenerateWeights,
    InfeasibleProgram,
    InstanceTooLarge,
    InvalidDesign,
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

from .helpers import (binary_design, exact_given_tau, random_design,
                      reference_fixed_tau_lp, require_close)


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

    @pytest.mark.parametrize("labels", [("1", "nan", "3"), ("1;0", "nan;1", "3;2")])
    def test_non_finite_labels_are_missing(self, labels):
        # once a False verdict, and a raw scipy ValueError for the vectors
        d = cell_table(labels, (0.25, 0.25, 0.5), (1.0, -1.0, 1.0))
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

    def test_missing_scipy_is_an_audit_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        d = cell_table(("0;0", "1;0", "0;1"), (0.3, 0.3, 0.4), (1.0, 1.0, 1.0))
        with pytest.raises(AuditError, match="scipy"):
            check_linear_cate_existence(d)


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

    def test_an_overflowing_program_ends_in_an_audit_error(self):
        # t = tau - mu0 overflows to -inf: under the CLI's errstate, t @ f
        # turns NaN, every cell leaves the run and the iteration gives up
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, 1.0),
                       tau=(-1.7e308, 1.7e308))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(AuditError, match="^the mass-reduction "
                               "iteration failed to converge$"):
                fixed_tau_lp(d, 1e308)

    def test_ties_in_tau(self):
        d = cell_table(("a", "b", "c"), (0.25, 0.5, 0.25), (1.0, 1.0, 1.0),
                       tau=(0.0, 1.0, 1.0))
        # target 0.5: keep the tau=0 atom and 1/3 of the tau=1 mass... check
        # against the enumerator rather than freezing by hand
        assert fixed_tau_lp(d, 0.5) == pytest.approx(
            fixed_tau_bruteforce(d, 0.5), abs=1e-12
        )


class TestGivenTauProgramInputs:
    """The guards of the program the three given-tau solvers share."""

    @pytest.mark.parametrize("solver", [fixed_tau_internal_validity,
                                        fixed_tau_lp, fixed_tau_bruteforce])
    def test_a_sample_needs_mu0(self, solver):
        sample = TauSample(values=(0.0, 1.0), masses=(0.5, 0.5))
        with pytest.raises(InvalidDesign,
                           match="^mu0 is required with a sample input$"):
            solver(sample, None)

    @pytest.mark.parametrize("solver", [fixed_tau_internal_validity,
                                        fixed_tau_lp, fixed_tau_bruteforce])
    def test_another_source_is_refused(self, solver):
        with pytest.raises(TypeError,
                           match="^expected a CellTable or a TauSample$"):
            solver({"tau": (0.0, 1.0)}, 0.5)


@pytest.mark.parametrize("tied", [(0.001, 0.2), (0.2, 0.001)])
def test_the_mass_reduction_stops_within_tol_only_between_atoms(tied):
    # the outlier makes the tolerance 3e-3, so the 0.001-mass cell at
    # tau = 1 alone is within it, but its atom, 0.201, is not: whatever
    # the order of the tied cells, the atom is cut as the closed form cuts it
    d = cell_table(tuple("abcd"), (0.5,) + tied + (0.299,), np.ones(4),
                   tau=(0.0, 1.0, 1.0, 1e10))
    report, trim = fixed_tau_internal_validity(d, 0.0)
    assert (report.p_internal, trim.atom_fraction) == (0.5, 0.0)
    assert fixed_tau_lp(d, 0.0) == reference_fixed_tau_lp(d, 0.0) == 0.5


@st.composite
def fixed_tau_programs(draw):
    """Designs of up to 300 cells and a mu0 anywhere in tau's range (its
    ends and the tau values included).  tau is tied on a small integer
    grid or not, and half the time scaled by 2**e, from subnormal to
    about 1e302.  With dyadic masses on integer tau every prefix sum is
    exact, so one is exactly 0 at the crossing, the case the solver's
    error bound cannot settle.  The cell columns come from a drawn
    seed."""
    k = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ties", "normal", "dyadic"]))
    if shape == "normal":
        tau = rng.normal(0.0, 2.0, k)
    else:
        tau = rng.integers(-3, 4, k).astype(float)
    if shape == "dyadic":
        counts = rng.integers(1, 9, k)
        total = 1 << int(counts.sum() - 1).bit_length()
        counts[0] += total - counts.sum()
        p, w0 = counts / total, np.ones(k)
    else:
        p = rng.uniform(0.01, 1.0, k)
        p = p / p.sum()
        w0 = np.where(rng.random(k) < 0.3, 1.0, rng.uniform(0.0, 1.0, k))
        w0[0] = 1.0
    tau = tau * 2.0 ** draw(st.just(0) | st.integers(-1070, 1000))
    design = cell_table(tuple(map(str, range(k))), p, np.ones(k),
                        w0=w0, tau=tau)
    lo, hi = _tau_range(design)
    mu0 = draw(st.sampled_from(tau.tolist()) | st.sampled_from([lo, hi])
               | st.floats(0.0, 1.0).map(lambda u: lo + u * (hi - lo)))
    return design, mu0


def _outcome(solve, design, mu0):
    """The solver's value as hex, or the error it raised."""
    try:
        return solve(design, mu0).hex()
    except (AuditError, RuntimeWarning) as exc:
        return repr(exc)


@settings(max_examples=500, deadline=None)
@given(program=fixed_tau_programs())
def test_fixed_tau_lp_equals_the_rescanning_reference(program):
    design, mu0 = program
    assert (_outcome(fixed_tau_lp, design, mu0)
            == _outcome(reference_fixed_tau_lp, design, mu0))


@st.composite
def base_subpopulation_programs(draw):
    """Designs of up to 200 cells with w0 at 0, at 1 or in between, tau
    on an integer grid or not, and mu0 unset (the design's estimand), a
    tau value or anywhere in tau's range on the base subpopulation."""
    k = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.01, 1.0, k)
    w0 = rng.uniform(0.0, 1.0, k)
    w0[rng.random(k) < 0.3] = 0.0
    w0[rng.random(k) < 0.3] = 1.0
    w0[int(rng.integers(k))] = 1.0
    tau = (rng.integers(-3, 4, k).astype(float) if draw(st.booleans())
           else rng.normal(0.0, 2.0, k))
    design = cell_table(tuple(map(str, range(k))), p / p.sum(),
                        rng.uniform(0.05, 1.0, k), w0=w0, tau=tau)
    lo, hi = _tau_range(design)
    mu0 = draw(st.none() | st.sampled_from(tau.tolist())
               | st.floats(0.0, 1.0).map(lambda u: lo + u * (hi - lo)))
    return design, mu0


@settings(max_examples=300, deadline=None)
@given(program=base_subpopulation_programs())
def test_e0_is_one_mean_and_a_sample_audits_like_its_design(program):
    design, mu0 = program
    report, trim = fixed_tau_internal_validity(design, mu0)
    assert trim.e0.hex() == moment_summary(design).e0.hex()
    values, q, sub = validity._conditional_tau(design)
    sample = TauSample(values, q, pop_w0=design.pop_w0)
    s_report, s_trim = fixed_tau_internal_validity(
        sample, mu(design) if mu0 is None else mu0)
    assert s_trim.to_json_dict() == trim.to_json_dict()
    assert (s_report.exists, s_report.p_internal, s_report.p_representative) \
        == (report.exists, report.p_internal, report.p_representative)
    if report.inclusion is not None:
        full = report.inclusion.inclusion
        assert np.array_equal(full[sub], s_report.inclusion.inclusion)
        assert not full[~sub].any()


def perfbench_like_design(k=20000, seed=20):
    """A design shaped like perfbench's 20,000-cell `audit --design`
    input: near-uniform masses, a quarter of w0 at 1, tau ~ N(0, 2^2)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.5, 1.5, k)
    w0 = rng.uniform(0.0, 1.0, k)
    w0[rng.random(k) < 0.25] = 1.0
    return cell_table(tuple(map(str, range(k))), m / m.sum(),
                      rng.uniform(0.05, 1.0, k), w0=w0,
                      tau=rng.normal(0.0, 2.0, k))


@pytest.fixture(scope="module")
def large_design():
    return perfbench_like_design()


@pytest.mark.parametrize("percentile", [10, 90])
def test_fixed_tau_lp_matches_the_reference_on_a_large_design(
        large_design, percentile):
    values, _, _ = validity._conditional_tau(large_design)
    mu0 = float(np.percentile(values, percentile))
    assert (fixed_tau_lp(large_design, mu0).hex()
            == reference_fixed_tau_lp(large_design, mu0).hex())


@pytest.mark.parametrize("percentile", [10, 90])
def test_the_loop_runs_only_the_undecided_steps(
        large_design, percentile, monkeypatch):
    values, _, sub = validity._conditional_tau(large_design)
    mu0 = float(np.percentile(values, percentile))
    decided = []
    count = validity._decided_steps
    monkeypatch.setattr(validity, "_decided_steps",
                        lambda *args: decided.append(count(*args)) or decided[-1])
    fixed_tau_lp(large_design, mu0)
    # the closed form's trimmed cells, the atom included, are the cells
    # the mass reduction moves off capacity, one per step
    report, trim = fixed_tau_internal_validity(large_design, mu0)
    moved = int(np.count_nonzero(report.inclusion.inclusion[sub] < 1.0))
    assert trim.direction == ("above" if percentile == 10 else "below")
    taken, other = decided if percentile == 10 else decided[::-1]
    assert moved > 10000 and other == 0
    assert moved - taken <= 3


@pytest.mark.parametrize("scale", [math.inf, math.nan])
def test_a_margin_that_is_not_finite_decides_nothing(large_design, scale):
    values, q, _ = validity._conditional_tau(large_design)
    order = np.argsort(values, kind="stable")
    t = values[order] - float(np.percentile(values, 10))
    q = q[order]
    assert validity._decided_steps(t, q, float(np.abs(t) @ q), 1e-12) > 0
    assert validity._decided_steps(t, q, scale, 1e-12) == 0


def test_decided_steps_allow_for_the_rounding_of_the_running_sums():
    # 2**17 products of -2**-54 vanish into the running sum -0.5 (ties to
    # even), so the rounded sums read 2**-38 above the exact ones, and the
    # exact prefix below the second-highest cell is -2**-38; every product
    # is a whole multiple of 2**-54, so int64 sums of them are exact
    n = 2**17
    t = np.concatenate(([-1.0], np.full(n, -2.0**-34), [1.0, 2.0, 4.0]))
    q = np.concatenate(([0.5], np.full(n, 2.0**-20),
                        [0.5 + 2.0**-38, 0.125, 0.125]))
    scale = float(np.abs(t) @ q)
    s_tol = 1e-12 * max(1.0, scale)
    exact = np.cumsum((t * q * 2.0**54).astype(np.int64))
    assert np.cumsum(t * q)[-3] > s_tol and exact[-3] < 0
    decided = validity._decided_steps(t, q, scale, s_tol)
    assert decided >= 1
    # each decided step's prefix, exactly summed, is nonnegative
    assert exact[len(t) - 1 - decided:len(t) - 1].min() >= 0


@pytest.mark.parametrize("over", ["warn", "ignore"])
@pytest.mark.parametrize("top", [1.7e306, 1.7e308])
@pytest.mark.parametrize("mu0", [-1.5e306, 0.0, 1e306, 1.5e306, 1e307])
def test_fixed_tau_lp_near_the_overflow_threshold(over, top, mu0):
    # at 1e306 steps are skipped; at 1e308 |t| @ q is above the scale
    # gate, or t = tau - mu0 overflows: a warning both solvers raise alike
    # or, with overflow ignored as the CLI runs, an infinite t on which
    # the skip must raise no warning of its own
    d = cell_table(("a", "b", "c", "d"), (0.125, 0.375, 0.25, 0.25),
                   np.ones(4), tau=(-top, -top / 1.7, top / 1.0625, top))
    with np.errstate(over=over):
        assert (_outcome(fixed_tau_lp, d, mu0)
                == _outcome(reference_fixed_tau_lp, d, mu0))


class TestFixedTauBruteforce:
    def test_two_point_oracle(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (1.0, 1.0), tau=(0.0, 1.0))
        assert fixed_tau_bruteforce(d, 0.25) == pytest.approx(2 / 3, abs=1e-12)

    def test_population_mean(self):
        d = binary_design(tau=(3.0, 1.0))
        assert fixed_tau_bruteforce(d, 1.4) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mu0", [math.inf, -math.inf])
    def test_infinite_mu0_keeps_nothing(self, mu0):
        # 0 * inf in the pattern sums made NaNs, and every pattern passed
        d = cell_table(("a", "b", "c"), (0.1, 0.2, 0.7), (1, 1, 1),
                       tau=(1, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fixed_tau_bruteforce(d, mu0) == 0.0
            assert fixed_tau_internal_validity(d, mu0)[0].p_internal == 0.0

    def test_mu0_just_outside_the_range_keeps_nothing(self):
        # the 0.1-mass cell at tau = 3 is 1e-11 out of balance, beyond the
        # tolerance 1e-12 * (E|tau| + |mu0|) = 4.4e-12
        d = cell_table(("a", "b", "c"), (0.7, 0.2, 0.1), (1, 1, 1),
                       tau=(1, 2, 3))
        report, _ = fixed_tau_internal_validity(d, 3 + 1e-10)
        assert not check_fixed_existence(d, 3 + 1e-10)
        assert not report.exists and report.p_internal == 0.0
        assert fixed_tau_bruteforce(d, 3 + 1e-10) == 0.0
        with pytest.raises(InfeasibleProgram):
            fixed_tau_lp(d, 3 + 1e-10)

    def test_mu0_within_the_tolerance_of_the_range_keeps_the_nearest_cell(
            self):
        # at 3 + 1e-11 the 0.1-mass cell is 1e-12 out of balance, within
        # the tolerance 4.4e-12, so every solver keeps it whole
        d = cell_table(("a", "b", "c"), (0.7, 0.2, 0.1), (1, 1, 1),
                       tau=(1, 2, 3))
        report, trim = fixed_tau_internal_validity(d, 3 + 1e-11)
        assert check_fixed_existence(d, 3 + 1e-11) and report.exists
        assert (report.p_internal, fixed_tau_lp(d, 3 + 1e-11),
                fixed_tau_bruteforce(d, 3 + 1e-11)) \
            == pytest.approx((0.1,) * 3, abs=1e-15)
        assert (trim.direction, trim.atom_fraction) == ("below", 0.0)
        assert report.inclusion.inclusion.tolist() == [0.0, 0.0, 1.0]

    def test_subnormal_effects_keep_every_cell_in_every_solver(self):
        # E0 rounds to 2.5e-323, below min tau = mu0, so the lower tail is
        # trimmed, but no product t * q survives the rounding: no atom
        # crosses the (zero) tolerance and the closed form keeps it all
        d = cell_table(("a", "b", "c"), (0.4012738674803665,
                                         0.5744678539698372,
                                         0.024258278549796182),
                       (1, 1, 1), tau=(3e-323, 3e-323, 7e-323))
        report, trim = fixed_tau_internal_validity(d, 3e-323)
        assert (report.p_internal, fixed_tau_lp(d, 3e-323),
                fixed_tau_bruteforce(d, 3e-323)) == (1.0, 1.0, 1.0)
        assert trim.e0 < 3e-323 and math.isnan(trim.alpha)

    def test_an_interior_coordinate_that_overflows_is_clipped_quietly(self):
        # mu0 an ulp below tau = 0 makes t = 5e-324 there, and a pattern's
        # sum divided by it overflows; the clipped mass fails the balance
        d = cell_table(tuple("abcde"), (0.16199075, 0.28493123, 0.36957017,
                                        0.08369843, 0.09980942),
                       np.ones(5), tau=(2.0, 2.0, 2.0, 3.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fixed_tau_bruteforce(d, -5e-324) == 0.09980942

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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-60, 59),
       random_w0=st.booleans())
def test_shares_invariant_to_weight_scale(seed, power, random_w0):
    """Rescaling a by a power of two is exact, so the estimand, the one-sum
    weights and the uniform shares keep every bit, at any scale of a, for
    weights of either sign."""
    d = random_design(np.random.default_rng(seed), allow_negative_a=True,
                      with_tau=True, random_w0=random_w0)
    scaled = d.with_a(d.a * 2.0**power)
    assert mu(scaled) == mu(d)
    if d.full_population:
        assert np.array_equal(discrete_weights(scaled), discrete_weights(d))
    report, scaled_report = (uniform_internal_validity(t).to_json_dict()
                             for t in (d, scaled))
    assert scaled_report.pop("a_max") == report.pop("a_max") * 2.0**power
    assert scaled_report == report


@st.composite
def small_programs(draw):
    """`random_design`s of up to 8 cells, so brute force runs on each, with
    weights of either sign, a quarter of w0 at zero, tau tied on an integer
    grid or not, and mu0 unset (the design's estimand), at a random
    quantile of tau on the base subpopulation or at one of its values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = random_design(rng, allow_negative_a=draw(st.booleans()), with_tau=True,
                      random_w0=True, integer_tau=draw(st.booleans()))
    w0 = np.where(rng.random(d.k) < 0.25, 0.0, d.w0)
    w0[int(rng.integers(d.k))] = 1.0
    design = CellTable(d.labels, d.p, d.a, w0, d.tau)
    values = validity._conditional_tau(design)[0]
    where = draw(st.sampled_from(["mu", "quantile", "tau"]))
    if where == "mu":
        return design, None
    if where == "quantile":
        return design, float(np.quantile(values, rng.random()))
    return design, float(rng.choice(values))


def _given_tau_shares(design, mu0):
    """The closed form's, the mass reduction's and brute force's shares,
    with the closed form's report and trim; a mu0 outside tau's range
    gives the mass reduction 0, as in the CLI."""
    report, trim = fixed_tau_internal_validity(design, mu0)
    try:
        lp = fixed_tau_lp(design, mu0)
    except InfeasibleProgram:
        lp = 0.0
    return (report.p_internal, lp, fixed_tau_bruteforce(design, mu0)), report, trim


@settings(max_examples=400, deadline=None)
@given(program=small_programs(), power=st.integers(-60, 59))
def test_given_tau_shares_invariant_to_effect_scale(program, power):
    """Rescaling (tau, mu0, b_lo, b_hi) by a power of two is exact, so every
    solver's share, the direction and the atom fraction keep every bit,
    and alpha, e0 and the ATE bounds scale exactly."""
    design, mu0 = program
    c = 2.0**power
    values = validity._conditional_tau(design)[0]
    sb = SupportBounds(values.min() - 1.0, values.max() + 0.5)

    def audit(d, mu0, sb):
        shares, report, trim = _given_tau_shares(d, mu0)
        return shares, trim, ate_bounds_from_validity(
            mu(d), report.p_representative, sb)

    shares, trim, ate = audit(design, mu0, sb)
    s_shares, s_trim, s_ate = audit(
        design.with_tau(design.tau * c), None if mu0 is None else mu0 * c,
        SupportBounds(sb.b_lo * c, sb.b_hi * c))
    assert s_shares == shares
    assert (s_trim.direction, s_trim.atom_fraction, s_trim.kept_mass) \
        == (trim.direction, trim.atom_fraction, trim.kept_mass)
    assert s_trim.e0 == trim.e0 * c
    assert (math.isnan(s_trim.alpha) and math.isnan(trim.alpha)) \
        or s_trim.alpha == trim.alpha * c
    assert (s_ate.lo, s_ate.hi) == (ate.lo * c, ate.hi * c)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-60, 59),
       integer_x=st.booleans())
def test_linear_cate_verdict_invariant_to_label_scale(seed, power, integer_x):
    """The hull tolerance scales with the labels and the barycenter."""
    rng = np.random.default_rng(seed)
    d = random_design(rng, allow_negative_a=True, random_w0=True)
    x = (rng.integers(-3, 4, d.k).astype(float) if integer_x
         else rng.normal(0.0, 2.0, d.k))
    verdict = check_linear_cate_existence(CellTable(d.labels, d.p, d.a, d.w0,
                                                    x=x))
    assert check_linear_cate_existence(
        CellTable(d.labels, d.p, d.a, d.w0, x=x * 2.0**power)) is verdict


@settings(max_examples=300, deadline=None)
@given(program=small_programs(), data=st.data())
def test_shares_invariant_to_cell_order_and_to_splitting_a_cell(program, data):
    """Permuting the cells, or splitting one into two halves of its mass,
    moves no share, uniform or given tau, by more than 1e-12."""
    design, mu0 = program
    mu0 = mu(design) if mu0 is None else mu0
    k = design.k
    order = np.array(data.draw(st.permutations(range(k))))
    i = data.draw(st.integers(0, k - 1))
    split = np.append(np.arange(k), i)
    p = design.p[split]
    p[[i, k]] /= 2.0

    def shares(d):
        given_tau = _given_tau_shares(d, mu0)[0]
        return (uniform_internal_validity(d).p_internal,) + given_tau

    expected = shares(design)
    for other in (
            CellTable(np.array(design.labels)[order], design.p[order],
                      design.a[order], design.w0[order], design.tau[order]),
            CellTable(design.labels + ("split",), p, design.a[split],
                      design.w0[split], design.tau[split])):
        assert shares(other) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(program=small_programs())
def test_uniform_share_is_at_most_each_given_tau_share(program):
    """A uniform representation holds for the given tau too, at mu0 = mu."""
    design, _ = program
    uniform = uniform_internal_validity(design)
    if uniform.exists:
        for share in _given_tau_shares(design, None)[0]:
            assert uniform.p_internal <= share + 1e-12


def test_an_outlier_without_mass_does_not_widen_the_balance_test():
    """tau = -1e12 on a mass of 1e-13 moves E0 by 0.1 only, so mu0 = -0.5
    is 0.9 from E0 = 0.4: the balance tolerance follows E|tau| + |mu0|,
    not the largest |tau|, and the top tail is trimmed to a share of 0.2."""
    design = CellTable(("a", "b", "c"), np.array([1e-13, 0.5, 0.5 - 1e-13]),
                       np.ones(3), np.ones(3), np.array([-1e12, 0.0, 1.0]))
    shares, _, trim = _given_tau_shares(design, -0.5)
    assert trim.direction == "above"
    assert shares == pytest.approx((0.2,) * 3, abs=1e-12)


@st.composite
def edge_programs(draw):
    """Designs of up to 200 cells (12 or fewer half the time, so brute
    force runs) with tau tied on an integer grid, normal or on dyadic
    masses, scaled by 10^-15 to 10^15, half the time with an outlier 10^3
    to 10^12 times larger, weights of either sign and w0 at 1 or not.
    mu0 is unset (the estimand), at E0, at min or max tau, 1 to 4 ulps or
    1e-13 * max|tau| beyond either end, at a tau value or in between."""
    k = draw(st.integers(1, 12) | st.integers(13, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ties", "normal", "dyadic"]))
    tau = (rng.normal(0.0, 2.0, k) if shape == "normal"
           else rng.integers(-3, 4, k).astype(float))
    if draw(st.booleans()):
        tau[int(rng.integers(k))] *= 10.0 ** draw(st.integers(3, 12))
    tau *= 10.0 ** draw(st.integers(-15, 15))
    if shape == "dyadic":
        counts = rng.integers(1, 9, k)
        total = 1 << int(counts.sum() - 1).bit_length()
        counts[0] += total - counts.sum()
        p = counts / total
    else:
        p = rng.uniform(0.01, 1.0, k)
        p = p / p.sum()
    w0 = np.where(rng.random(k) < 0.5, 1.0, rng.uniform(0.0, 1.0, k))
    a = rng.uniform(0.05, 1.0, k)
    if draw(st.booleans()):
        a = a - 0.4
    design = cell_table(tuple(map(str, range(k))), p, a, w0=w0, tau=tau)
    values = validity._conditional_tau(design)[0]
    lo, hi = float(values.min()), float(values.max())
    where = draw(st.sampled_from(["mu", "e0", "lo", "hi", "tau", "between",
                                  "ulps", "1e-13"]))
    if where == "mu":
        return design, None
    if where == "e0":
        return design, moment_summary(design).e0
    if where in ("lo", "hi"):
        return design, lo if where == "lo" else hi
    if where == "tau":
        return design, float(draw(st.sampled_from(values.tolist())))
    if where == "between":
        return design, lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    below = draw(st.booleans())
    if where == "ulps":
        mu0 = lo if below else hi
        for _ in range(draw(st.integers(1, 4))):
            mu0 = float(np.nextafter(mu0, -math.inf if below else math.inf))
        return design, mu0
    top = float(np.abs(values).max())
    return design, lo - 1e-13 * top if below else hi + 1e-13 * top


def _gamma(n):
    """The bound n u / (1 - n u) on the relative error of n roundings."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


@settings(max_examples=400, deadline=None)
@given(program=edge_programs())
def test_given_tau_solvers_follow_the_exact_rational_rule(program):
    """Every solver's share is the exact-rational share of the one rule up
    to its sums' rounding, and exists == (share > 0) for each; mu, E0 and
    the uniform share are their exact values up to n roundings.  A draw
    whose exact sums lie within that rounding of the tolerance at a
    decision can go either way; such draws are counted and skipped."""
    design, mu0 = program
    prog = validity._program(design, mu0)
    k, g = len(prog.values), _gamma(4 * len(prog.values) + 16)
    exact = exact_given_tau(prog.values, prog.q, prog.mu0, prog.tol)
    size = float(exact.scale) + float(np.abs(prog.values) @ prog.q) + abs(
        prog.mu0)
    if exact.margin <= g * size:
        event("an exact sum within rounding of the tolerance")
        assume(False)
    report, trim = fixed_tau_internal_validity(design, mu0)
    try:
        lp = fixed_tau_lp(design, mu0)
    except InfeasibleProgram:
        lp = None
    shares = {"closed form": report.p_internal, "mass reduction": lp}
    if k <= validity.BRUTE_FORCE_LIMIT:
        shares["brute force"] = fixed_tau_bruteforce(design, mu0)
    exists = exact.share > 0
    assert report.exists is check_fixed_existence(design, mu0) is exists
    assert (lp is not None) is exists
    bound = g * (2 + (0 if exact.alpha is None
                      else 2 * float(exact.scale / exact.alpha)))
    for name, share in shares.items():
        # brute force's vertices keep whole cells within tol in any
        # combination, so it may reach up to the relaxed share
        require_close(name, share or 0.0, exact.share, bound, above=(
            exact.relaxed - exact.share if name == "brute force" else 0))
        if (share or 0.0) > exact.share + bound:
            event("brute force keeps whole cells past the rule")
        assert (share or 0.0) > 0 if exists else share in (None, 0.0)
    # mu, E0 and the uniform share, from the cells' exact products
    n, tau = design.k, [Fraction(t) for t in design.tau]
    m0 = [Fraction(w) * Fraction(p) for w, p in zip(design.w0, design.p)]
    am = [Fraction(a) * m for a, m in zip(design.a, m0)]
    if mu0 is None:  # mu = E[a w0 tau] / E[a w0]
        want = sum(m * t for m, t in zip(am, tau)) / sum(am)
        spread = sum(abs(m) * (abs(t) + abs(want)) for m, t in zip(am, tau))
        require_close("mu", prog.mu0, want,
                      _gamma(2 * n + 8) * float(spread / abs(sum(am))))
    want = sum(m * t for m, t in zip(m0, tau)) / sum(m0)
    spread = sum(m * abs(t) for m, t in zip(m0, tau)) / sum(m0)
    require_close("E0", trim.e0, want, _gamma(2 * n + 8) * 2 * float(spread))
    uniform = uniform_internal_validity(design)
    a = normalize_sign(design).a
    if uniform.exists:
        a_max = max(Fraction(x) for x, m in zip(a, m0) if m > 0)
        want = (sum(max(Fraction(x), Fraction(0)) * m for x, m in zip(a, m0))
                / sum(m0) / a_max)
        require_close("uniform share", uniform.p_internal, want,
                      _gamma(2 * n + 8) * 2 * float(want))
    else:
        assert uniform.p_internal == 0.0

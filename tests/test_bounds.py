"""Tests for target-parameter bounds and the sign decomposition.

Hand-derived anchors:

* mu=3.2, share 0.5, support [0, 10]: [3.2*0.5 + 0, 3.2*0.5 + 5] = [1.6, 6.6].
* a=(1,-1,1) uniform: E[max(a,0)] = 2/3 and E[a] = 1/3, so
  (omega+, omega-) = (2, 1); r = E[a]/max a = 1/3.
* a=(3,-1) equal masses: E[a] = 1 -> (1.5, 0.5).
"""

import numpy as np
import pytest

from estimand_audit.bounds import (
    SupportBounds,
    ate_bounds_from_validity,
    ate_bounds_general,
    decompose_negative_weights,
)
from estimand_audit.cells import cell_table, mu
from estimand_audit.errors import AuditError, InvalidDesign, InvalidSupport
from estimand_audit.validity import uniform_internal_validity

from .helpers import binary_design, random_design


class TestSupportBounds:
    @pytest.mark.parametrize("b_lo,b_hi", [(float("nan"), 1.0), (0.0, float("inf")),
                                           (float("-inf"), 0.0)])
    def test_non_finite_bounds_rejected(self, b_lo, b_hi):
        with pytest.raises(AuditError, match="finite"):
            SupportBounds(b_lo, b_hi)

    def test_ordering_enforced(self):
        with pytest.raises(InvalidSupport):
            SupportBounds(1.0, -1.0)

    def test_degenerate_support_allowed(self):
        sb = SupportBounds(2.0, 2.0)
        assert sb.b_lo == sb.b_hi == 2.0


class TestBoundsFromValidity:
    def test_point_identification_at_full_share(self):
        iv = ate_bounds_from_validity(3.2, 1.0, SupportBounds(0.0, 10.0))
        assert (iv.lo, iv.hi) == (3.2, 3.2)
        assert iv.width == 0.0

    def test_hand_evaluated_interval(self):
        iv = ate_bounds_from_validity(3.2, 0.5, SupportBounds(0.0, 10.0))
        assert iv.lo == pytest.approx(1.6, abs=1e-15)
        assert iv.hi == pytest.approx(6.6, abs=1e-15)

    def test_zero_share_is_uninformative(self):
        iv = ate_bounds_from_validity(3.2, 0.0, SupportBounds(-2.0, 7.0))
        assert (iv.lo, iv.hi) == (-2.0, 7.0)

    def test_width_law(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            b_lo = float(rng.normal(0, 5))
            b_hi = b_lo + float(rng.uniform(0, 10))
            p_bar = float(rng.uniform(0, 1))
            m = float(rng.uniform(b_lo, b_hi))
            iv = ate_bounds_from_validity(m, p_bar, SupportBounds(b_lo, b_hi))
            assert iv.width == pytest.approx(
                (b_hi - b_lo) * (1 - p_bar), rel=1e-12, abs=1e-12
            )

    def test_share_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidDesign):
            ate_bounds_from_validity(0.0, 1.5, SupportBounds(0.0, 1.0))

    def test_containment_of_true_effect(self):
        # nonnegative weights, effects drawn inside the support: the
        # population average effect always lands in the interval
        rng = np.random.default_rng(20)
        sb = SupportBounds(-2.0, 2.0)
        for _ in range(200):
            d = random_design(rng)
            tau = rng.uniform(sb.b_lo, sb.b_hi, size=d.k)
            d = d.with_tau(tau)
            rep = uniform_internal_validity(d)
            iv = ate_bounds_from_validity(mu(d), rep.p_internal, sb)
            ate = float(tau @ d.p)
            assert iv.lo - 1e-12 <= ate <= iv.hi + 1e-12


class TestSignDecomposition:
    def test_three_point(self):
        d = cell_table(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 1.0))
        dec = decompose_negative_weights(d)
        assert dec.omega_plus == pytest.approx(2.0, abs=1e-12)
        assert dec.omega_minus == pytest.approx(1.0, abs=1e-12)

    def test_two_point(self):
        d = cell_table(("0", "1"), (0.5, 0.5), (3.0, -1.0))
        dec = decompose_negative_weights(d)
        assert dec.omega_plus == pytest.approx(1.5, abs=1e-12)
        assert dec.omega_minus == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_weights(self):
        dec = decompose_negative_weights(binary_design())
        assert (dec.omega_plus, dec.omega_minus) == (1.0, 0.0)
        assert dec.mu_minus is None

    def test_difference_identity(self):
        rng = np.random.default_rng(23)
        seen_negative = 0
        for _ in range(200):
            d = random_design(rng, allow_negative_a=True, with_tau=True)
            dec = decompose_negative_weights(d)
            assert dec.omega_plus - dec.omega_minus == pytest.approx(
                1.0, abs=1e-12
            )
            total = dec.omega_plus * dec.mu_plus
            if dec.mu_minus is not None:
                seen_negative += 1
                total -= dec.omega_minus * dec.mu_minus
            assert total == pytest.approx(mu(d), rel=1e-12, abs=1e-12)
        assert seen_negative > 20

    def test_requires_full_population(self):
        d = cell_table(("a", "b"), (0.5, 0.5), (1.0, 2.0), w0=(1.0, 0.5))
        with pytest.raises(InvalidDesign):
            decompose_negative_weights(d)

    def test_no_tau_reports_no_component_means(self):
        dec = decompose_negative_weights(binary_design())
        assert dec.mu_plus is None


class TestGeneralBounds:
    def test_matches_validity_bounds_for_nonnegative_weights(self):
        rng = np.random.default_rng(29)
        sb = SupportBounds(-3.0, 5.0)
        for _ in range(100):
            d = random_design(rng, with_tau=True)
            d = d.with_tau(np.clip(d.tau, sb.b_lo, sb.b_hi))
            rep = uniform_internal_validity(d)
            a = ate_bounds_general(d, mu(d), sb)
            b = ate_bounds_from_validity(mu(d), rep.p_internal, sb)
            assert a.lo == pytest.approx(b.lo, rel=1e-12, abs=1e-12)
            assert a.hi == pytest.approx(b.hi, rel=1e-12, abs=1e-12)

    def test_three_point_interval(self):
        d = cell_table(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 1.0))
        m = 0.6  # any postulated estimand value
        iv = ate_bounds_general(d, m, SupportBounds(-1.0, 1.0))
        assert iv.lo == pytest.approx(m / 3 - 2 / 3, abs=1e-12)
        assert iv.hi == pytest.approx(m / 3 + 2 / 3, abs=1e-12)

    def test_degenerate_support_point(self):
        d = cell_table(("0", "1", "2"), (1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 1.0))
        iv = ate_bounds_general(d, 0.6, SupportBounds(2.0, 2.0))
        assert iv.lo == iv.hi == pytest.approx(0.6 / 3 + 2.0 * 2 / 3, abs=1e-12)

    def test_json_payload(self):
        iv = ate_bounds_from_validity(3.2, 0.5, SupportBounds(0.0, 10.0))
        payload = iv.to_json_dict()
        assert payload == {
            "lo": pytest.approx(1.6),
            "hi": pytest.approx(6.6),
            "width": pytest.approx(5.0),
        }

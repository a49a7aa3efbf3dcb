"""Tests for the estimand design families.

The TWFE numbers below are frozen from hand evaluations of the group-time
decomposition formulas (worked independently before the implementation):

* T=2, shares {2: 1/2, inf: 1/2}: the treated cell (g=2, t=2) gets
  a = 1 - 1/2 - 1/2 + 1/4 = 1/4.
* T=3, shares (1/6, 2/3, 1/6): the time-constant decomposition gives
  a(2) = a(3) = 1/6.
* T=3, shares (0.7, 0.25, 0.05): cell (g=2, t=3) gets a = -1/15 < 0,
  so no causal representation exists for the group-time decomposition.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from estimand_audit import designs
from estimand_audit.cells import mu
from estimand_audit.designs import (
    GroupDistribution,
    IvCellTable,
    PanelCellTable,
    PropensityTable,
    iv_design,
    ols_ate_design,
    ols_att_design,
    ols_atu_design,
    tsls_design,
    twfe_cdh_design,
    twfe_gb_weights,
    twfe_h_design,
)
from estimand_audit.errors import (
    InvalidDesign,
    NoCompliers,
    NoTreatedGroups,
    OverlapViolation,
    ParseError,
)

from . import helpers
from .helpers import (
    random_group_distribution,
    reference_twfe_cdh_design,
    reference_twfe_h_design,
)


def two_cell_pt(p1=0.4, p2=0.1, m1=0.5):
    return PropensityTable(("1", "2"), (m1, 1 - m1), (p1, p2))


class TestPropensityTable:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(InvalidDesign):
            PropensityTable(("a", "b"), (0.5, 0.6), (0.4, 0.1))

    def test_overlap_enforced(self):
        with pytest.raises(OverlapViolation):
            PropensityTable(("a", "b"), (0.5, 0.5), (0.0, 0.1))
        with pytest.raises(OverlapViolation):
            PropensityTable(("a",), (1.0,), (1.0,))

    def test_needs_a_cell(self):
        with pytest.raises(InvalidDesign, match="^a propensity table needs "
                           "at least one cell$"):
            PropensityTable((), (), ())

    def test_csv_round_trip(self, tmp_path):
        pt = two_cell_pt()
        path = tmp_path / "pt.csv"
        pt.to_csv(path)
        back = PropensityTable.from_csv(path)
        assert back.labels == pt.labels
        assert back.mass == pytest.approx(pt.mass, abs=0)
        assert back.p == pytest.approx(pt.p, abs=0)


class TestOlsAte:
    def test_benchmark_propensities(self):
        # (0.4, 0.1) propensities -> variance weights (0.24, 0.09)
        d = ols_ate_design(two_cell_pt())
        assert d.a == pytest.approx([0.24, 0.09], abs=1e-15)
        assert np.all(d.w0 == 1.0)
        assert d.p == pytest.approx([0.5, 0.5], abs=0)

    def test_symmetric_maximum(self):
        d = ols_ate_design(PropensityTable(("c",), (1.0,), (0.5,)))
        assert d.a[0] == pytest.approx(0.25, abs=0)

    def test_weight_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            mass = rng.dirichlet(np.ones(k))
            p = rng.uniform(0.01, 0.99, size=k)
            d = ols_ate_design(PropensityTable(tuple(map(str, range(k))), mass, p))
            assert np.all(d.a <= 0.25 + 1e-15)
            assert np.all(d.a > 0)


class TestOlsAtt:
    def test_roles_of_propensity(self):
        d = ols_att_design(two_cell_pt())
        assert d.w0 == pytest.approx([0.4, 0.1], abs=0)
        assert d.a == pytest.approx([0.6, 0.9], abs=0)

    def test_constant_propensity_gives_constant_weight(self):
        d = ols_att_design(PropensityTable(("a", "b"), (0.3, 0.7), (0.25, 0.25)))
        assert d.a[0] == d.a[1]


class TestOlsAtu:
    def test_mirror_of_att(self):
        # relabeling D to 1-D turns the untreated design into a treated one
        pt = two_cell_pt(0.35, 0.8, 0.25)
        mirrored = PropensityTable(pt.labels, pt.mass, 1.0 - np.asarray(pt.p))
        d = ols_atu_design(pt)
        ref = ols_att_design(mirrored)
        assert d.w0 == pytest.approx(ref.w0, abs=0)
        assert d.a == pytest.approx(ref.a, abs=0)

    def test_symmetric_point(self):
        d = ols_atu_design(PropensityTable(("a",), (1.0,), (0.5,)))
        assert (d.w0[0], d.a[0]) == (0.5, 0.5)


def iv_table(pz, pc, cov_dz=None, mass=None):
    pz = np.asarray(pz, dtype=float)
    pc = np.asarray(pc, dtype=float)
    if cov_dz is None:
        cov_dz = pc * pz * (1 - pz)  # first-stage identity for compliers
    if mass is None:
        mass = np.full(pz.size, 1.0 / pz.size)
    labels = tuple(str(i) for i in range(pz.size))
    return IvCellTable(labels, mass, pz, cov_dz, pc)


class TestIvCellTable:
    def test_needs_a_cell(self):
        with pytest.raises(InvalidDesign, match="^an instrument table needs "
                           "at least one cell$"):
            IvCellTable((), (), (), (), ())

    @pytest.mark.parametrize("pc", [-0.5, 1.5])
    def test_complier_shares_lie_in_the_unit_interval(self, pc):
        with pytest.raises(InvalidDesign,
                           match=r"^complier shares must lie in \[0, 1\]$"):
            IvCellTable(("a", "b"), (0.5, 0.5), (0.5, 0.5), (0.0, 0.0),
                        (0.5, pc))


class TestIvDesign:
    def test_instrument_variance_weight(self):
        d = iv_design(iv_table([0.5, 0.2], [0.6, 0.4]))
        assert d.a == pytest.approx([0.25, 0.16], abs=1e-15)
        assert d.w0 == pytest.approx([0.6, 0.4], abs=0)

    def test_no_compliers_anywhere(self):
        with pytest.raises(NoCompliers):
            iv_design(iv_table([0.5, 0.4], [0.0, 0.0]))


class TestTslsDesign:
    def test_absolute_covariance(self):
        d = tsls_design(iv_table([0.5], [0.4], cov_dz=[-0.1]))
        assert d.a[0] == pytest.approx(0.1, abs=0)

    def test_cauchy_schwarz_cap(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            pz = rng.uniform(0.05, 0.95, size=k)
            pc = rng.uniform(0.0, 1.0, size=k)
            pc[int(rng.integers(k))] = max(pc.max(), 0.1)
            d = tsls_design(iv_table(pz, pc, mass=rng.dirichlet(np.ones(k))))
            assert np.all(d.a <= 0.25 + 1e-12)

    def test_covariance_beyond_bernoulli_range_rejected(self):
        with pytest.raises(InvalidDesign):
            iv_table([0.5], [0.5], cov_dz=[0.3])


class TestGroupDistribution:
    def test_validation(self):
        with pytest.raises(InvalidDesign):
            GroupDistribution(1, {math.inf: 1.0})
        with pytest.raises(InvalidDesign):
            GroupDistribution(3, {2: 0.5, 3: 0.4})  # sums to 0.9
        with pytest.raises(InvalidDesign):
            GroupDistribution(3, {1: 0.5, 3: 0.5})  # g=1 outside support
        with pytest.raises(InvalidDesign,
                           match="^group shares must be nonnegative$"):
            GroupDistribution(3, {2: -0.5, 3: 1.5})

    @pytest.mark.parametrize("t,shares", [
        (4, {2.5: 0.5, math.inf: 0.5}),  # a fractional adoption period
        (3.9, {2: 0.5, 3: 0.5}),  # a fractional number of periods
        (3, {math.nan: 1.0}),
        (3, {math.inf: 0.5, -math.inf: 0.5}),  # both mean never treated
        (math.inf, {2: 1.0}),
        (math.nan, {2: 1.0}),
        (None, {2: 1.0}),
        (3, {"two": 1.0}),
    ])
    def test_adoption_period_rule(self, t, shares):
        with pytest.raises(InvalidDesign):
            GroupDistribution(t, shares)

    def test_any_infinity_means_never_treated(self):
        gd = GroupDistribution(3.0, {2.0: 0.5, -np.inf: 0.5})
        assert gd.t == 3 and type(gd.t) is int
        assert gd.shares == {2: 0.5, math.inf: 0.5}
        assert all(g is math.inf or type(g) is int for g in gd.shares)

    def test_csv_round_trip(self, tmp_path):
        gd = GroupDistribution(3, {2: 0.7, 3: 0.25, math.inf: 0.05})
        path = tmp_path / "gd.csv"
        gd.to_csv(path)
        back = GroupDistribution.from_csv(path)
        assert back.t == 3
        assert back.shares == pytest.approx(gd.shares, abs=0)

    def test_csv_needs_a_finite_group(self, tmp_path):
        path = tmp_path / "gd.csv"
        path.write_text("g,share\ninf,1.0\n")
        with pytest.raises(InvalidDesign, match="^cannot infer the number "
                           "of periods without a finite group$"):
            GroupDistribution.from_csv(path)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_many_periods(self, tmp_path, duplicate):
        # T = 16000 periods, once with the last row repeating the first
        t = 16000
        rows = ["%d,%r" % (g, 1 / t) for g in range(2, t + 1)]
        rows.append("%s,%r" % ("2" if duplicate else "inf", 1 / t))
        path = tmp_path / "gd.csv"
        path.write_text("g,share\n" + "\n".join(rows) + "\n")
        if duplicate:
            with pytest.raises(ParseError, match=r"^line %d: duplicated g 2$"
                               % (t + 1)):
                GroupDistribution.from_csv(path)
        else:
            gd = GroupDistribution.from_csv(path)
            assert gd.t == t and len(gd.shares) == t
            assert list(gd.shares)[-2:] == [t, math.inf]


class TestTwfeCdh:
    def test_two_period_hand_example(self):
        d = twfe_cdh_design(GroupDistribution(2, {2: 0.5, math.inf: 0.5}))
        cells = dict(zip(d.labels, zip(d.p, d.w0, d.a)))
        assert set(cells) == {"g=2,t=1", "g=2,t=2", "g=inf,t=1", "g=inf,t=2"}
        p, w0, a = cells["g=2,t=2"]
        assert (p, w0) == (0.25, 1.0)
        assert a == pytest.approx(0.25, abs=1e-15)
        assert cells["g=2,t=1"][1] == 0.0  # not yet treated
        assert cells["g=inf,t=2"][1] == 0.0  # never treated
        assert sum(c[0] for c in cells.values()) == pytest.approx(1.0, abs=0)

    def test_late_adoption_negative_weight(self):
        d = twfe_cdh_design(
            GroupDistribution(3, {2: 0.7, 3: 0.25, math.inf: 0.05})
        )
        cells = dict(zip(d.labels, zip(d.w0, d.a)))
        w0, a = cells["g=2,t=3"]
        assert w0 == 1.0
        assert a == pytest.approx(-1.0 / 15.0, abs=1e-12)

    def test_no_treated_groups(self):
        with pytest.raises(NoTreatedGroups):
            twfe_cdh_design(GroupDistribution(4, {math.inf: 1.0}))

    def test_population_treatment_share(self):
        gd = GroupDistribution(3, {2: 0.7, 3: 0.25, math.inf: 0.05})
        d = twfe_cdh_design(gd)
        # P(W0=1) is the overall treated share E[D]
        assert d.pop_w0 == pytest.approx(0.55, abs=1e-12)


class TestTwfeH:
    def test_equal_weight_distribution(self):
        d = twfe_h_design(GroupDistribution(3, {2: 1 / 6, 3: 2 / 3, math.inf: 1 / 6}))
        by_label = dict(zip(d.labels, d.a))
        assert by_label["g=2"] == pytest.approx(1 / 6, abs=1e-12)
        assert by_label["g=3"] == pytest.approx(1 / 6, abs=1e-12)

    def test_uniform_shares_are_not_equal_weight(self):
        d = twfe_h_design(GroupDistribution(3, {2: 1 / 3, 3: 1 / 3, math.inf: 1 / 3}))
        by_label = dict(zip(d.labels, d.a))
        assert by_label["g=2"] != pytest.approx(by_label["g=3"], abs=1e-6)

    def test_never_treated_cell_closes_the_masses(self):
        d = twfe_h_design(GroupDistribution(3, {2: 0.7, 3: 0.25, math.inf: 0.05}))
        assert d.labels[-1] == "g=inf"
        assert d.w0[-1] == 0.0 and d.a[-1] == 0.0
        assert d.p.sum() == pytest.approx(1.0, abs=1e-15)
        assert d.pop_w0 == pytest.approx(0.55, abs=1e-12)

    def test_weights_never_negative(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = twfe_h_design(random_group_distribution(rng))
            assert np.all(d.a >= 0)

    def test_treated_cell_w0_is_treated_time_share(self):
        d = twfe_h_design(GroupDistribution(4, {2: 0.5, 4: 0.5}))
        by_label = dict(zip(d.labels, d.w0))
        assert by_label["g=2"] == pytest.approx(3 / 4, abs=0)
        assert by_label["g=4"] == pytest.approx(1 / 4, abs=0)


@pytest.mark.parametrize("build", [twfe_cdh_design, twfe_h_design],
                         ids=["cdh", "h"])
def test_with_a_and_with_tau_keep_the_panel_metadata(build):
    d = build(GroupDistribution(3, {2: 1 / 6, 3: 2 / 3, math.inf: 1 / 6}))
    for changed in (d.with_a(2.0 * d.a), d.with_tau(np.arange(d.k, 0.0, -1))):
        assert type(changed) is PanelCellTable
        assert (changed.groups, changed.times) == (d.groups, d.times)


class TestGbCrossCheck:
    """The alternative per-group weight formula must reproduce the
    time-constant decomposition weights exactly."""

    def test_frozen_three_period_case(self):
        gd = GroupDistribution(3, {2: 1 / 6, 3: 2 / 3, math.inf: 1 / 6})
        w = twfe_gb_weights(gd)
        assert w == pytest.approx([1 / 6, 1 / 6], abs=1e-12)

    def test_matches_h_design(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            gd = random_group_distribution(rng)
            d = twfe_h_design(gd)
            treated = d.w0 > 0
            assert twfe_gb_weights(gd) == pytest.approx(d.a[treated], abs=1e-12)

    def test_no_treated_group(self):
        with pytest.raises(NoTreatedGroups,
                           match="^every unit is never-treated$"):
            twfe_gb_weights(GroupDistribution(3, {2: 0.0, math.inf: 1.0}))

    def test_single_treated_group(self):
        gd = GroupDistribution(5, {3: 0.6, math.inf: 0.4})
        w = twfe_gb_weights(gd)
        d = twfe_h_design(gd)
        assert len(w) == 1 and w[0] > 0
        assert w[0] == pytest.approx(d.a[0], abs=1e-15)


class TestCdhHConsistency:
    def test_same_estimand_for_time_constant_effects(self):
        # When each group's effect is constant over time the two
        # decompositions aggregate to the same number.
        rng = np.random.default_rng(17)
        for _ in range(100):
            gd = random_group_distribution(rng)
            tau_by_group = {
                g: float(rng.normal(0, 2)) for g in gd.treated_groups()
            }
            h = twfe_h_design(gd)
            h_tau = [tau_by_group.get(g, np.nan) for g in h.groups]
            cdh = twfe_cdh_design(gd)
            cdh_tau = [tau_by_group.get(g, np.nan) for g, _ in cdh.group_time]
            assert mu(cdh.with_tau(cdh_tau)) == pytest.approx(
                mu(h.with_tau(h_tau)), rel=1e-10, abs=1e-10
            )


@st.composite
def group_distributions(draw):
    """T in 2..60, with or without a never-treated group, some shares
    zero (of either sign), subnormal or left out, the dict in a shuffled
    order; the shares of 1e-3 and more are scaled to sum to one."""
    t = draw(st.integers(2, 60))
    groups = list(range(2, t + 1)) + ([math.inf] if draw(st.booleans()) else [])
    tiny = st.sampled_from([0.0, -0.0]) | st.floats(1e-320, 2.2e-308)
    weights = draw(st.lists(tiny | st.floats(1e-3, 10.0),
                            min_size=len(groups), max_size=len(groups)))
    if max(weights) < 1e-3:
        weights[0] = 1.0
    keep = draw(st.lists(st.booleans(), min_size=len(groups),
                         max_size=len(groups)))
    order = draw(st.permutations(range(len(groups))))
    total = sum(w for w in weights if w >= 1e-3)
    return GroupDistribution(t, {
        groups[i]: weights[i] / total if weights[i] >= 1e-3 else weights[i]
        for i in order if keep[i] or weights[i] > 0})


def compensated_sum(values, start=0):
    """Builtin `sum` as Python 3.12 and later add floats: Neumaier's
    compensated summation."""
    total, carry = start, 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


@pytest.mark.parametrize("build,reference", [
    (twfe_cdh_design, reference_twfe_cdh_design),
    (twfe_h_design, reference_twfe_h_design),
], ids=["cdh", "h"])
@settings(max_examples=120, deadline=None)
@given(gd=group_distributions(), compensated=st.booleans())
def test_twfe_builders_equal_the_loop_references(build, reference, gd,
                                                 compensated):
    """Bit for bit, also when builtin `sum` compensates float sums, as it
    does from Python 3.12 on: the builders and the references add left
    to right."""
    summed = compensated_sum if compensated else sum
    with mock.patch.object(designs, "sum", summed, create=True), \
            mock.patch.object(helpers, "sum", summed, create=True):
        try:
            expected = reference(gd)
        except NoTreatedGroups:
            with pytest.raises(NoTreatedGroups):
                build(gd)
            return
        got = build(gd)
        assert got.labels == expected.labels
        for column in ("p", "a", "w0"):  # -0.0 and 0.0 differ in bytes
            assert (getattr(got, column).tobytes()
                    == getattr(expected, column).tobytes())
        for attr in ("groups", "times"):
            want = getattr(expected, attr)
            assert getattr(got, attr) == want
            if want is not None:
                assert list(map(type, getattr(got, attr))) == list(map(type, want))

"""Tests for the discrete design model and the weighted-estimand functional."""

import math
import re
import warnings

import numpy as np
import pytest

from estimand_audit import cells
from estimand_audit.bounds import SupportBounds
from estimand_audit.cells import (
    CellTable,
    SubpopulationRule,
    cell_table,
    clip_share,
    discrete_weights,
    moment_summary,
    mu,
    normalize_sign,
    realize_subpop,
    rng_stream,
    subpop_profile,
)
from estimand_audit.designs import PropensityTable
from estimand_audit.errors import (
    DegenerateWeights,
    DimensionMismatch,
    EmptySubpopulation,
    InvalidDesign,
    MissingTau,
)

from .helpers import binary_design, random_design


class TestCellTableValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(InvalidDesign):
            cell_table(("a", "b"), p=(0.5, 0.4), a=(1.0, 1.0))

    def test_masses_must_be_positive(self):
        with pytest.raises(InvalidDesign):
            cell_table(("a", "b"), p=(1.0, 0.0), a=(1.0, 1.0))

    def test_w0_population_needs_mass(self):
        with pytest.raises(InvalidDesign):
            cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, 1.0), w0=(0.0, 0.0))

    def test_w0_outside_unit_interval(self):
        with pytest.raises(InvalidDesign):
            cell_table(("a",), p=(1.0,), a=(1.0,), w0=(1.5,))

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidDesign):
            cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0,))

    def test_needs_a_cell(self):
        with pytest.raises(InvalidDesign,
                           match="^a design needs at least one cell$"):
            CellTable((), (), ())

    def test_columns_are_one_dimensional(self):
        with pytest.raises(InvalidDesign, match="^a must be one-dimensional$"):
            cell_table(("a", "b"), p=(0.5, 0.5), a=((1.0,), (2.0,)))

    @pytest.mark.parametrize("make,name", [
        (lambda: cell_table(("a", "b"), (0.5, "x"), (1.0, 2.0)), "p"),
        (lambda: cell_table(("a", "b"), (0.5, 0.5), (1.0, {})), "a"),
        (lambda: PropensityTable(("a", "b"), (0.5, 0.5), (0.3, "x")), "p"),
        (lambda: SupportBounds("lo", 1.0), "support bound"),
    ])
    def test_values_must_be_numbers(self, make, name):
        with pytest.raises(InvalidDesign, match=f"^{name} values must be numbers$"):
            make()

    @pytest.mark.parametrize("field", ["p", "a", "w0", "tau", "x"])
    def test_complex_values_are_refused(self, field):
        # numpy would keep the real part and warn; no ComplexWarning escapes
        columns = {"p": (0.5, 0.5), "a": (1.0, 2.0), "w0": (1.0, 1.0),
                   "tau": (1.0, 2.0), "x": (1.0, 2.0)}
        columns[field] = np.array(columns[field], dtype=complex)
        message = ("numeric labels must be (K,) or (K, d)" if field == "x"
                   else f"{field} values must be numbers")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDesign, match=f"^{re.escape(message)}$"):
                CellTable(("a", "b"), **columns)

    def test_labels_are_read_as_numbers_once(self):
        # with_a and with_tau keep the labels, so they are not parsed again
        d = cell_table(("1", "2", "a"), p=(0.25, 0.25, 0.5), a=(1.0, 2.0, 3.0))
        misses = cells._infer_numeric_labels.cache_info().misses
        d = d.with_tau((1.0, 2.0, 3.0)).with_a((3.0, 2.0, 1.0))
        assert d.x is None
        assert cells._infer_numeric_labels.cache_info().misses == misses

    def test_defaults_of_a_direct_construction(self):
        d = CellTable(("1", "2"), (0.5, 0.5), (1.0, 2.0))
        assert d.x.tolist() == [1.0, 2.0] and d.w0.tolist() == [1.0, 1.0]
        assert cell_table is CellTable

    def test_tolerates_csv_grade_mass_roundoff(self):
        d = cell_table(("a", "b"), p=(0.5 + 2e-10, 0.5), a=(1.0, 2.0))
        assert d.k == 2

    def test_numeric_labels_optional(self):
        d = cell_table(("0", "1"), p=(0.5, 0.5), a=(1.0, 2.0), x=(0.0, 1.0))
        assert d.x is not None and d.x.shape == (2,)

    @pytest.mark.parametrize("x", [(0.0, math.nan), (0.0, math.inf),
                                   ((0.0, 1.0), (-math.inf, 1.0))])
    def test_numeric_labels_must_be_finite(self, x):
        with pytest.raises(InvalidDesign, match="^numeric labels must be finite$"):
            cell_table(("0", "1"), p=(0.5, 0.5), a=(1.0, 2.0), x=x)

    @pytest.mark.parametrize("x", [(0.0, 1.0, 2.0), ((0.0,), (1.0,), (2.0,)),
                                   (((0.0,),), ((1.0,),)), ((1.0, 2.0), (1.0,)),
                                   ("a", "b"), (0.0, {})])
    def test_numeric_labels_have_one_row_a_cell(self, x):
        # a wrong length, three axes, a ragged x or one that is no numbers
        with pytest.raises(InvalidDesign, match=re.escape(
                "numeric labels must be (K,) or (K, d)") + "$"):
            CellTable(("a", "b"), (0.5, 0.5), (1.0, 2.0), (1.0, 1.0), x=x)

    @pytest.mark.parametrize("labels", [
        ("1", "nan", "3"), ("1", "inf", "3"), ("1", "-Infinity", "3"),
        ("1", "1e400", "3"), ("1;0", "nan;1", "3;2"), ("1;0", "2;inf", "3;2"),
    ])
    def test_non_finite_labels_are_not_numeric(self, labels):
        d = cell_table(labels, p=(0.25, 0.25, 0.5), a=(1.0, 2.0, 3.0))
        assert d.x is None

    @pytest.mark.parametrize("labels,shape", [
        (("1", " 2 ", "-3e2"), (3,)), (("1;0", "2;1", "3;2"), (3, 2)),
        (("1", "2;1", "3"), None), (("1;", "2;", "3;"), None),
        (("a", "2", "3"), None),
    ])
    def test_numeric_labels_inferred(self, labels, shape):
        d = cell_table(labels, p=(0.25, 0.25, 0.5), a=(1.0, 2.0, 3.0))
        assert (None if d.x is None else d.x.shape) == shape


def test_clip_share():
    assert clip_share(1.5) == 1.0
    assert clip_share(-0.5) == 0.0
    assert clip_share(0.25) == 0.25
    # NaN passes through and a negative zero keeps its sign
    assert math.isnan(clip_share(math.nan))
    assert math.copysign(1.0, clip_share(-0.0)) == -1.0


class TestNormalizeSign:
    def test_positive_design_unchanged(self):
        d = binary_design()
        out = normalize_sign(d)
        assert np.array_equal(out.a, d.a)

    def test_global_flip(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(-1.0, -1.0))
        out = normalize_sign(d)
        assert np.array_equal(out.a, [1.0, 1.0])

    def test_zero_mean_weight_is_degenerate(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, -1.0))
        with pytest.raises(DegenerateWeights):
            normalize_sign(d)

    def test_flip_preserves_mu(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(-1.0, -3.0), tau=(1.0, 2.0))
        assert mu(normalize_sign(d)) == pytest.approx(mu(d), abs=1e-12)


class TestMu:
    def test_worked_binary_example(self):
        # Implied one-sum weights are (0.4, 0.6); 0.4*2 + 0.6*4 = 3.2.
        d = binary_design(tau=(2.0, 4.0))
        assert mu(d) == pytest.approx(3.2, abs=1e-12)

    def test_constant_tau_returns_the_constant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = random_design(rng, with_tau=False, allow_negative_a=True)
            d = d.with_tau(np.full(d.k, 1.75))
            assert mu(d) == pytest.approx(1.75, abs=1e-12)

    def test_single_cell_identity(self):
        d = cell_table(("only",), p=(1.0,), a=(0.3,), tau=(5.0,))
        assert mu(d) == pytest.approx(5.0, abs=1e-12)

    def test_missing_tau_raises(self):
        d = binary_design()
        with pytest.raises(MissingTau, match=re.escape(
                "tau is required on cells with a*w0*p != 0") + "$"):
            mu(d)

    def test_tau_missing_on_a_contributing_cell(self):
        d = cell_table(("a", "b", "c"), p=(0.25, 0.25, 0.5), a=(1.0, 1.0, 0.0),
                       tau=(1.0, np.nan, np.nan))
        with pytest.raises(MissingTau, match=re.escape(
                "tau missing on contributing cells: ['b']") + "$"):
            mu(d)

    def test_zero_mean_weight_is_degenerate(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, -1.0), tau=(1.0, 2.0))
        with pytest.raises(DegenerateWeights, match=re.escape(
                "E[a|W0=1] = 0; the estimand is undefined") + "$"):
            mu(d)

    def test_tau_ignored_on_zero_weight_cells(self):
        # Second cell has w0 = 0, so its missing tau must not matter.
        d = cell_table(
            ("a", "b"),
            p=(0.5, 0.5),
            a=(1.0, 1.0),
            w0=(1.0, 0.0),
            tau=(2.0, np.nan),
        )
        assert mu(d) == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = random_design(rng, with_tau=True, allow_negative_a=True)
            c = float(rng.uniform(0.1, 10.0))
            scaled = d.with_a(c * d.a)
            assert mu(scaled) == pytest.approx(mu(d), rel=1e-12, abs=1e-12)


class TestDiscreteWeights:
    def test_worked_binary_example(self):
        d = binary_design()
        w = discrete_weights(d)
        assert w == pytest.approx([0.4, 0.6], abs=1e-12)

    def test_constant_a_gives_masses(self):
        d = cell_table(("a", "b", "c"), p=(0.2, 0.3, 0.5), a=(2.0, 2.0, 2.0))
        assert discrete_weights(d) == pytest.approx([0.2, 0.3, 0.5], abs=1e-12)

    def test_negative_weights_pass_through(self):
        d = cell_table(
            ("0", "1", "2"), p=(1 / 3, 1 / 3, 1 / 3), a=(1.0, -1.0, 1.0)
        )
        assert discrete_weights(d) == pytest.approx([1.0, -1.0, 1.0], abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = random_design(rng, allow_negative_a=True)
            assert np.sum(discrete_weights(d)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_mean_weight_is_degenerate(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, -1.0))
        with pytest.raises(DegenerateWeights,
                           match=re.escape("E[a] = 0; weights are undefined") + "$"):
            discrete_weights(d)

    def test_requires_full_population(self):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, 1.0), w0=(1.0, 0.5))
        with pytest.raises(InvalidDesign):
            discrete_weights(d)

    def test_round_trip_recovers_weights(self):
        # a is recoverable up to scale as omega_k / p_k.
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = random_design(rng, allow_negative_a=True)
            w = discrete_weights(d)
            recovered = d.with_a(w / d.p)
            assert discrete_weights(recovered) == pytest.approx(w, abs=1e-12)


class TestSubpopulationRule:
    @pytest.mark.parametrize("inclusion", [(1.2, 0.5), (-0.1, 0.5)])
    def test_inclusion_in_the_unit_interval(self, inclusion):
        with pytest.raises(InvalidDesign, match=re.escape(
                "inclusion probabilities must lie in [0, 1]") + "$"):
            SubpopulationRule(inclusion=inclusion)

    @pytest.mark.parametrize("use", [
        lambda d, rule: subpop_profile(d, rule, g=(1.0, 2.0)),
        lambda d, rule: realize_subpop(d, rule, 10),
    ])
    def test_inclusion_length_matches_the_design(self, use):
        with pytest.raises(DimensionMismatch, match=(
                "^inclusion length does not match the design$")):
            use(binary_design(), SubpopulationRule(inclusion=(1.0,)))

    def test_realizes_at_least_one_unit(self):
        rule = SubpopulationRule(inclusion=(1.0, 1.0))
        with pytest.raises(InvalidDesign, match="^n must be at least 1$"):
            realize_subpop(binary_design(), rule, 0)


class TestSubpopProfile:
    def test_worked_binary_example(self):
        d = binary_design()
        rule = SubpopulationRule(inclusion=(1.0, 0.375))
        share = subpop_profile(d, rule, g=(1.0, 0.0))
        assert share == pytest.approx(0.4, abs=1e-12)

    def test_full_inclusion_recovers_population_mean(self):
        d = binary_design()
        rule = SubpopulationRule(inclusion=(1.0, 1.0))
        g = (3.0, 7.0)
        assert subpop_profile(d, rule, g) == pytest.approx(
            0.2 * 3.0 + 0.8 * 7.0, abs=1e-12
        )

    def test_degenerate_subpopulation(self):
        d = cell_table(("1", "2"), p=(0.5, 0.5), a=(1.0, 1.0))
        rule = SubpopulationRule(inclusion=(1.0, 0.0))
        assert subpop_profile(d, rule, g=(1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subpopulation(self):
        d = cell_table(("1", "2"), p=(0.5, 0.5), a=(1.0, 1.0), w0=(0.0, 1.0))
        rule = SubpopulationRule(inclusion=(1.0, 0.0))
        with pytest.raises(EmptySubpopulation):
            subpop_profile(d, rule, g=(1.0, 2.0))


class TestRealizeSubpop:
    def test_full_inclusion(self):
        d = binary_design()
        rule = SubpopulationRule(inclusion=(1.0, 1.0), seed=0)
        draws = realize_subpop(d, rule, 100)
        on_w0 = draws["w0"] == 1
        assert np.all(draws["w_star"][on_w0] == 1)
        assert not np.any(draws["w_star"][~on_w0] == 1)

    def test_half_inclusion_concentrates(self):
        d = cell_table(("only",), p=(1.0,), a=(1.0,))
        rule = SubpopulationRule(inclusion=(0.5,), seed=42)
        draws = realize_subpop(d, rule, 100_000)
        share = float(np.mean(draws["w_star"]))
        assert abs(share - 0.5) < 0.01

    def test_deterministic_under_seed(self):
        d = binary_design()
        rule = SubpopulationRule(inclusion=(0.3, 0.9), seed=123)
        first = realize_subpop(d, rule, 1000)
        second = realize_subpop(d, rule, 1000)
        assert np.array_equal(first, second)

    def test_subpopulation_ate_matches_mu(self):
        # Monte Carlo check of the reweighting identity: the subpopulation ATE
        # of the realized W*=1 group equals mu of the design with a replaced
        # by the inclusion probabilities.
        d = binary_design(tau=(2.0, 4.0))
        rule = SubpopulationRule(inclusion=(1.0, 0.375), seed=7)
        expected = mu(d.with_a(np.asarray(rule.inclusion)))
        draws = realize_subpop(d, rule, 200_000)
        kept = draws[draws["w_star"] == 1]
        rng = rng_stream(99, "outcome-noise")
        effects = np.asarray(d.tau)[kept["cell"]] + rng.normal(0, 1, size=len(kept))
        err = effects.std(ddof=1) / np.sqrt(len(kept))
        assert abs(effects.mean() - expected) < 3 * err


class TestMomentSummary:
    def test_binary_example_summary(self):
        s = moment_summary(binary_design(tau=(2.0, 4.0)))
        assert s.mu == pytest.approx(3.2, abs=1e-12)
        assert s.mean_a_given_w0 == pytest.approx(0.12, abs=1e-12)
        assert s.pop_w0 == pytest.approx(1.0, abs=1e-12)
        assert s.e0 == pytest.approx(0.2 * 2 + 0.8 * 4, abs=1e-12)

    def test_tau_free_summary_has_null_mu(self):
        s = moment_summary(binary_design())
        assert s.mu is None and s.e0 is None


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        d = binary_design(tau=(2.0, 4.0))
        path = tmp_path / "design.csv"
        d.to_csv(path)
        back = CellTable.from_csv(path)
        assert back.labels == d.labels
        assert back.p == pytest.approx(d.p, abs=0)
        assert back.a == pytest.approx(d.a, abs=0)
        assert back.w0 == pytest.approx(d.w0, abs=0)
        assert back.tau == pytest.approx(d.tau, abs=0)

    def test_csv_blank_tau(self, tmp_path):
        d = cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, 2.0))
        path = tmp_path / "design.csv"
        d.to_csv(path)
        text = path.read_text()
        assert "tau" in text.splitlines()[0]
        back = CellTable.from_csv(path)
        assert back.tau is None

    def test_csv_missing_tau_is_an_empty_field(self, tmp_path):
        # NaN and a design without tau are written as csv.writer writes ""
        path = tmp_path / "design.csv"
        cell_table(("a", "b,c"), p=(0.5, 0.5), a=(1.0, 2.0),
                   tau=(math.nan, 0.1)).to_csv(path)
        assert path.read_bytes() == (b'label,p,a,w0,tau\r\na,0.5,1.0,1.0,\r\n'
                                     b'"b,c",0.5,2.0,1.0,0.1\r\n')
        cell_table(("a", "b"), p=(0.5, 0.5), a=(1.0, 2.0)).to_csv(path)
        assert path.read_bytes() == (b"label,p,a,w0,tau\r\na,0.5,1.0,1.0,\r\n"
                                     b"b,0.5,2.0,1.0,\r\n")

    def test_csv_comment_line_accepted(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text(
            "# audit design, two cells\nlabel,p,a,w0,tau\n1,0.2,0.24,1,\n2,0.8,0.09,1,\n"
        )
        d = CellTable.from_csv(path)
        assert d.k == 2 and d.tau is None

    def test_numeric_labels_inferred_from_csv(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("label,p,a,w0,tau\n0,0.5,1.0,1,\n1,0.5,2.0,1,\n")
        d = CellTable.from_csv(path)
        assert d.x is not None
        assert d.x == pytest.approx([0.0, 1.0], abs=0)


class TestRngStream:
    def test_streams_are_independent_of_call_order(self):
        a1 = rng_stream(5, 1).normal()
        b1 = rng_stream(5, 2).normal()
        b2 = rng_stream(5, 2).normal()
        a2 = rng_stream(5, 1).normal()
        assert a1 == a2 and b1 == b2 and a1 != b1

    def test_string_path_components(self):
        x = rng_stream(5, "boot", 3).normal()
        y = rng_stream(5, "boot", 3).normal()
        assert x == y

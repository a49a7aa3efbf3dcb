"""Tests for CSV ingestion, panel transforms, and the synthetic DGP
simulator."""

import dataclasses
import hashlib
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from estimand_audit import data_io
from estimand_audit.data_io import (
    DgpSpec,
    MicroSample,
    PanelData,
    load_micro,
    load_panel,
    panel_to_group_distribution,
    simulate,
)
from estimand_audit.designs import (
    ESTIMAND_FAMILIES,
    GroupDistribution,
    IvCellTable,
    PropensityTable,
    ols_ate_design,
    twfe_h_design,
)
from estimand_audit.cells import CellTable, rng_stream
from estimand_audit.errors import (
    InvalidSpec,
    NoTreatedGroups,
    ParseError,
    SchemaError,
    UnbalancedPanel,
)
from estimand_audit.validity import uniform_internal_validity

from .helpers import random_design, reference_simulate


def write(path, text):
    path.write_text(text)
    return path


class TestLoadMicro:
    def test_minimal_columns(self, tmp_path):
        p = write(tmp_path / "s.csv", "x,d\na,1\na,0\nb,1\n")
        s = load_micro(p)
        assert s.n == 3
        assert list(s.x) == ["a", "a", "b"]
        assert list(s.d) == [1, 0, 1]
        assert s.z is None and s.y is None

    def test_outcome_column(self, tmp_path):
        p = write(tmp_path / "s.csv", "x,d,y\na,1,2.5\nb,0,-1.0\n")
        s = load_micro(p)
        assert s.y == pytest.approx([2.5, -1.0], abs=0)

    def test_instrument_column(self, tmp_path):
        p = write(tmp_path / "s.csv", "x,d,z,y\na,1,1,2.5\na,0,0,0.5\n")
        s = load_micro(p)
        assert list(s.z) == [1, 0]

    def test_nonbinary_treatment_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "x,d\na,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_micro(p)

    def test_unknown_header(self, tmp_path):
        p = write(tmp_path / "s.csv", "cell,treat\na,1\n")
        with pytest.raises(SchemaError):
            load_micro(p)

    def test_comment_line_skipped(self, tmp_path):
        p = write(tmp_path / "s.csv", "# generated for a smoke test\nx,d\na,1\nb,0\n")
        assert load_micro(p).n == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.choice(["u", "v", "w"], size=50)
        d = rng.integers(0, 2, size=50)
        y = rng.normal(size=50)
        s = MicroSample(x=x, d=d, y=y)
        p = tmp_path / "s.csv"
        s.to_csv(p)
        back = load_micro(p)
        assert list(back.x) == list(s.x)
        assert list(back.d) == list(s.d)
        assert back.y == pytest.approx(s.y, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(max_size=4) | st.text("ab\x00\xe9", max_size=3),
                    min_size=1, max_size=30))
    def test_labels_are_factorized_as_np_unique_does(self, values):
        # a str array sorts by code point and drops trailing NULs
        labels, codes = data_io._factorize(values)
        want, inverse = np.unique(np.asarray(values, dtype=str),
                                  return_inverse=True)
        assert labels.tolist() == want.tolist()
        assert codes.tolist() == inverse.tolist()
        s = MicroSample(x=values, d=[0] * len(values))
        assert s.labels.tolist() == want.tolist()
        assert s.codes.tolist() == inverse.tolist()
        assert s.x.tolist() == want[inverse].tolist()


class TestSampleShapes:
    """The shape guards of `MicroSample` and `PanelData`, with their
    exact messages."""

    @pytest.mark.parametrize("columns,message", [
        ({"x": [["a"], ["b"]], "d": [0, 1]}, "x and d must be matching vectors"),
        ({"x": ["a", "b"], "d": [0, 1, 1]}, "x and d must be matching vectors"),
        ({"x": ["a", "b"], "d": [0, 1], "y": [0.5]},
         "y must match the sample length"),
        ({"x": [], "d": []}, "a sample needs at least one row"),
        ({"x": np.array([], dtype=str), "d": np.array([], np.int8), "z": [],
          "y": []}, "a sample needs at least one row"),
    ], ids=["x not 1-d", "d too long", "y too short", "empty", "empty x,d,z,y"])
    def test_micro_sample(self, columns, message):
        with pytest.raises(SchemaError, match="^%s$" % message):
            MicroSample(**columns)

    @pytest.mark.parametrize("y,message", [
        (np.zeros(6), "y must be an \\(n, T\\) outcome matrix"),
        (np.zeros((3, 2)), "y must be an \\(n, T\\) outcome matrix"),
        (np.zeros((2, 1)), "a panel needs at least two periods"),
    ], ids=["1-d", "three rows for two units", "one period"])
    def test_panel(self, y, message):
        with pytest.raises(SchemaError, match="^%s$" % message):
            PanelData(("u1", "u2"), [2.0, math.inf], y)

    @pytest.mark.parametrize("y", [["x", "1"], np.array([0.5, 1], complex)],
                             ids=["not numbers", "complex"])
    def test_micro_outcomes_must_be_numbers(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no raw ValueError or ComplexWarning
            with pytest.raises(SchemaError,
                               match="^outcome values must be numbers$"):
                MicroSample(["a", "b"], [0, 1], y=y)

    @pytest.mark.parametrize("g,y,message", [
        ([2.0, "x"], np.zeros((2, 2)), "adoption periods must be numbers"),
        (np.array([2.0, math.inf], complex), np.zeros((2, 2)),
         "adoption periods must be numbers"),
        ([2.0, math.inf], [["x", "1"], ["1", "2"]],
         "y must be an \\(n, T\\) outcome matrix"),
        ([2.0, math.inf], [[1.0, 2.0], [1.0]],
         "y must be an \\(n, T\\) outcome matrix"),
        ([2.0, math.inf], np.zeros((2, 2), complex),
         "y must be an \\(n, T\\) outcome matrix"),
    ], ids=["g not numbers", "complex g", "y not numbers", "ragged y",
            "complex y"])
    def test_panel_values_must_be_numbers(self, g, y, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no raw ValueError or ComplexWarning
            with pytest.raises(SchemaError, match="^%s$" % message):
                PanelData(("u1", "u2"), g, y)


class TestBinaryColumns:
    """`d` and `z` accept 0/1 in a bool, integer or real float dtype, or
    as real numbers in an object array, and reject the rest."""

    @pytest.mark.parametrize("role", ["d", "z"])
    @pytest.mark.parametrize("values", [
        np.array([0, 1], np.int8), np.array([1, 0], np.int64),
        np.array([True, False]), np.array([0.0, 1.0]), np.array([-0.0, 1.0]),
        np.array([1, 0], np.uint8), np.array([0, 1], dtype=object), [1, 0],
    ], ids=["int8", "int64", "bool", "float", "negative zero", "uint8",
            "object", "list"])
    def test_accepted_as_an_int8_copy(self, role, values):
        columns = {"d": [0, 1], role: values}
        s = MicroSample(x=["a", "b"], **columns)
        got = getattr(s, role)
        assert got.dtype == np.int8
        assert got.tolist() == [int(v) for v in values]
        assert not isinstance(values, np.ndarray) or values.flags.writeable

    @pytest.mark.parametrize("role,message", [
        ("d", "treatment values must be 0 or 1"),
        ("z", "instrument values must be 0 or 1"),
    ])
    @pytest.mark.parametrize("values", [
        [0, 2], [-1, 1], [0.5, 1.0], [np.nan, 0.0], [np.inf, 1.0],
        [-np.inf, 0.0], np.array(["0", "1"]), np.array([b"0", b"1"]),
        np.array(["0", 1], dtype=object), np.array([None, 1], dtype=object),
        np.array([0, 2**64 - 1], dtype=np.uint64), np.array([0, 1], complex),
        np.array([0, 1], "m8[s]"), np.array([0, 1 + 0j], dtype=object),
    ], ids=["two", "minus one", "half", "nan", "inf", "-inf", "str", "bytes",
            "object str", "None", "uint64 max", "complex", "timedelta",
            "object complex"])
    def test_rejected(self, role, message, values):
        columns = {"d": [0, 1], role: values}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning from a cast
            with pytest.raises(SchemaError, match="^%s$" % message):
                MicroSample(x=["a", "b"], **columns)


class TestLoadPanel:
    def test_basic(self, tmp_path):
        p = write(
            tmp_path / "p.csv",
            "unit,g,y1,y2,y3\nu1,2,0.1,1.1,1.2\nu2,inf,0.0,0.1,0.2\n",
        )
        panel = load_panel(p)
        assert panel.t == 3
        assert panel.n == 2
        assert panel.g[0] == 2 and math.isinf(panel.g[1])
        assert panel.y.shape == (2, 3)

    @pytest.mark.parametrize("header", ["unit,g,y1", "unit,g,y1,y3",
                                        "id,g,y1,y2"])
    def test_header(self, tmp_path, header):
        p = write(tmp_path / "p.csv", header + "\n")
        with pytest.raises(SchemaError, match="header must be unit,g,y1,…,yT"):
            load_panel(p)

    def test_duplicate_unit(self, tmp_path):
        p = write(tmp_path / "p.csv", "unit,g,y1,y2\nu1,2,0,1\nu1,2,0,1\n")
        with pytest.raises(SchemaError, match="u1"):
            load_panel(p)

    def test_blank_outcome(self, tmp_path):
        p = write(tmp_path / "p.csv", "unit,g,y1,y2\nu1,2,0,\nu2,inf,0,1\n")
        with pytest.raises(UnbalancedPanel):
            load_panel(p)

    def test_adoption_before_period_two(self, tmp_path):
        p = write(tmp_path / "p.csv", "unit,g,y1,y2\nu1,1,0,1\n")
        with pytest.raises(SchemaError):
            load_panel(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        panel = PanelData(
            units=tuple(f"u{i}" for i in range(12)),
            g=[2, 2, 3, 3, 3, math.inf, 2, 3, 2, 2, math.inf, 3],
            y=rng.normal(size=(12, 3)),
        )
        p = tmp_path / "p.csv"
        panel.to_csv(p)
        back = load_panel(p)
        assert back.units == panel.units
        assert back.g == pytest.approx(panel.g, abs=0)
        assert back.y == pytest.approx(panel.y, abs=0)


class TestPanelToGroupDistribution:
    def test_counting(self):
        panel = PanelData(
            units=tuple(f"u{i}" for i in range(6)),
            g=[2, 3, 3, 3, 3, math.inf],
            y=np.zeros((6, 3)),
        )
        gd = panel_to_group_distribution(panel)
        assert gd.t == 3
        assert gd.shares[2] == pytest.approx(1 / 6, abs=1e-15)
        assert gd.shares[3] == pytest.approx(2 / 3, abs=1e-15)
        assert gd.shares[math.inf] == pytest.approx(1 / 6, abs=1e-15)

    def test_two_period_panel(self):
        panel = PanelData(("a", "b"), [2, math.inf], np.zeros((2, 2)))
        gd = panel_to_group_distribution(panel)
        assert set(gd.shares) == {2, math.inf}

    def test_every_infinity_is_one_never_treated_group(self):
        panel = PanelData(("a", "b", "c", "d"), [2, math.inf, -math.inf, 3],
                          np.zeros((4, 3)))
        gd = panel_to_group_distribution(panel)
        assert gd.shares == {2: 0.25, 3: 0.25, math.inf: 0.5}

    def test_all_never_treated_fails_downstream(self):
        panel = PanelData(("a", "b"), [math.inf, math.inf], np.zeros((2, 2)))
        gd = panel_to_group_distribution(panel)
        with pytest.raises(NoTreatedGroups):
            twfe_h_design(gd)


def benchmark_spec(seed=0):
    return DgpSpec.from_json_dict(
        {
            "family": "unconfoundedness",
            "seed": seed,
            "noise_scale": 1.0,
            "cells": [
                {"label": "1", "mass": 0.2, "p": 0.4, "tau": 3.0},
                {"label": "2", "mass": 0.8, "p": 0.1, "tau": 1.0},
            ],
        }
    )


def iv_spec(seed=0):
    return DgpSpec.from_json_dict(
        {
            "family": "iv",
            "seed": seed,
            "noise_scale": 0.5,
            "cells": [
                {"label": "a", "mass": 0.5, "pz": 0.5, "pc": 0.4, "tau": 2.0},
                {"label": "b", "mass": 0.5, "pz": 0.3, "pc": 0.2, "tau": 1.0},
            ],
        }
    )


def staggered_spec(seed=0, shares=(1 / 6, 2 / 3, 1 / 6)):
    return DgpSpec.from_json_dict(
        {
            "family": "staggered_did",
            "seed": seed,
            "noise_scale": 0.3,
            "t": 3,
            "trend_slope": 0.5,
            "groups": [
                {"g": 2, "share": shares[0], "tau": 1.5},
                {"g": 3, "share": shares[1], "tau": 0.5},
                {"g": "inf", "share": shares[2]},
            ],
        }
    )


class TestDgpSpec:
    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            DgpSpec.from_json_dict({"family": "matching", "cells": []})

    def test_bad_probability(self):
        with pytest.raises(InvalidSpec):
            DgpSpec.from_json_dict(
                {
                    "family": "unconfoundedness",
                    "cells": [{"label": "1", "mass": 1.0, "p": 1.3, "tau": 0.0}],
                }
            )

    def test_negative_noise_scale(self):
        with pytest.raises(InvalidSpec,
                           match="^noise_scale must be nonnegative$"):
            dataclasses.replace(benchmark_spec(), noise_scale=-0.5)

    def test_unknown_estimand(self):
        with pytest.raises(InvalidSpec, match="^unknown estimand 'ols_late'$"):
            benchmark_spec().true_design("ols_late")

    @pytest.mark.parametrize("payload", [
        {"cells": []},
        {"family": "iv", "cells": [{"label": "a", "mass": "heavy"}]},
        {"family": "iv", "cells": [{"label": "a", "mass": [1.0]}]},
        {"family": "staggered_did", "t": 3, "groups": [{"g": "x", "share": 1}]},
        ["family", "iv"],
    ], ids=["no family", "mass not a number", "mass a list", "group not a "
            "number", "not an object"])
    def test_malformed_payload(self, payload):
        with pytest.raises(InvalidSpec, match="^malformed DGP specification: "):
            DgpSpec.from_json_dict(payload)

    def test_json_round_trip(self):
        for make in (benchmark_spec, iv_spec, staggered_spec):
            spec = make(seed=11)
            assert DgpSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_benchmark_oracle_share(self):
        spec = benchmark_spec()
        pt = spec.propensity_table()
        assert isinstance(pt, PropensityTable)
        design = spec.true_design("ols_ate")
        assert isinstance(design, CellTable)
        rep = uniform_internal_validity(design)
        assert rep.p_internal == pytest.approx(0.5, abs=1e-12)
        assert design.tau == pytest.approx([3.0, 1.0], abs=0)

    def test_iv_oracle_table(self):
        iv = iv_spec().iv_table()
        assert isinstance(iv, IvCellTable)
        # first-stage identity under strong monotonicity
        assert iv.cov_dz == pytest.approx(
            np.asarray(iv.pc) * np.asarray(iv.pz) * (1 - np.asarray(iv.pz)),
            abs=1e-15,
        )

    def test_staggered_oracle_share(self):
        spec = staggered_spec()
        gd = spec.group_distribution()
        assert isinstance(gd, GroupDistribution)
        rep = uniform_internal_validity(spec.true_design("twfe_h"))
        assert rep.p_internal == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("estimand", ["twfe_cdh", "twfe_h"])
    def test_staggered_true_design_keeps_its_panel_metadata(self, estimand):
        spec = staggered_spec()
        design = spec.true_design(estimand)
        built = ESTIMAND_FAMILIES[estimand].build(spec.group_distribution())
        assert type(design) is type(built)
        assert (design.groups, design.times) == (built.groups, built.times)


class TestSpecValidatedByItsTable:
    """A spec is valid exactly when the table it implies is: adoption
    periods, the number of periods and the group set follow the rule of
    `GroupDistribution`, and the seed must be usable by the sampler."""

    @pytest.mark.parametrize("path,value", [
        (("groups", 0, "g"), 2.5),
        (("groups", 0, "g"), 1),
        (("groups", 1, "g"), 4),
        (("groups", 0, "g"), math.nan),
        (("t",), 4.7),
        (("t",), 1),
        (("t",), None),
        (("groups", 1, "g"), 2),  # a duplicated group
        (("seed",), -1),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_staggered_rejected(self, path, value):
        payload = staggered_spec().to_json_dict()
        *parents, leaf = path
        target = payload
        for key in parents:
            target = target[key]
        target[leaf] = value
        with pytest.raises(InvalidSpec):
            DgpSpec.from_json_dict(payload)

    def test_cross_sectional_table_checks_apply(self):
        spec = iv_spec()
        with pytest.raises(InvalidSpec, match="instrument"):
            DgpSpec("iv", cells=(dataclasses.replace(spec.cells[0], pz=1.0),
                                 spec.cells[1]))
        with pytest.raises(InvalidSpec, match="strata"):
            DgpSpec("iv", cells=(dataclasses.replace(spec.cells[0], pa=0.7),
                                 spec.cells[1]))
        with pytest.raises(InvalidSpec, match="mass"):
            DgpSpec("unconfoundedness", cells=benchmark_spec().cells[:1])

    def test_other_family_primitive_rejected(self):
        with pytest.raises(InvalidSpec, match="'iv'"):
            iv_spec().true_design("ols_ate")
        with pytest.raises(InvalidSpec, match="GroupDistribution"):
            benchmark_spec().group_distribution()


class TestNonFiniteSpecValues:
    """A NaN or infinite DGP parameter is an InvalidSpec, not a crash in
    `simulate` or an all-NaN outcome column."""

    @pytest.mark.parametrize("make,path,value", [
        (benchmark_spec, ("cells", 0, "mass"), math.nan),
        (benchmark_spec, ("cells", 1, "p"), math.nan),
        (benchmark_spec, ("cells", 0, "tau"), math.inf),
        (benchmark_spec, ("cells", 1, "baseline"), -math.inf),
        (benchmark_spec, ("noise_scale",), math.nan),
        (benchmark_spec, ("noise_scale",), math.inf),
        (iv_spec, ("cells", 0, "pz"), math.nan),
        (iv_spec, ("cells", 1, "pc"), math.nan),
        (iv_spec, ("cells", 0, "pa"), math.nan),
        (staggered_spec, ("groups", 1, "share"), math.nan),
        (staggered_spec, ("groups", 0, "tau"), math.inf),
        (staggered_spec, ("trend_slope",), math.nan),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_rejected(self, make, path, value):
        payload = make().to_json_dict()
        *parents, leaf = path
        target = payload
        for key in parents:
            target = target[key]
        target[leaf] = value
        with pytest.raises(InvalidSpec):
            DgpSpec.from_json_dict(payload)

    def test_nan_mass_never_reaches_the_sampler(self):
        spec = benchmark_spec()
        with pytest.raises(InvalidSpec, match="finite"):
            DgpSpec(spec.family, cells=(
                dataclasses.replace(spec.cells[0], mass=math.nan), spec.cells[1]))


class TestNonFiniteOutcomes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_micro_sample_rejects(self, bad):
        with pytest.raises(SchemaError, match="finite"):
            MicroSample(x=["1", "2"], d=[0, 1], y=[0.5, bad])

    def test_csv_outcome_rejected(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            src = write(tmp_path / "s.csv", "x,d,y\n1,0,0.5\n1,1,%s\n" % bad)
            with pytest.raises(SchemaError, match="^outcome values must be finite$"):
                load_micro(src)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_panel_rejects_infinite_outcomes(self, bad):
        with pytest.raises(SchemaError, match="outcome values must be finite"):
            PanelData(units=("u1", "u2"), g=[2, math.inf],
                      y=[[bad, 1.0], [0.0, 1.0]])

    def test_panel_missing_outcome_stays_unbalanced(self):
        with pytest.raises(UnbalancedPanel):
            PanelData(units=("u1", "u2"), g=[2, math.inf],
                      y=[[math.nan, math.inf], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", ["inf", "-inf", "1e999"])
    def test_csv_panel_outcome_rejected(self, tmp_path, bad):
        src = write(tmp_path / "p.csv",
                    "unit,g,y1,y2\nu1,2,%s,1\nu2,inf,0,1\n" % bad)
        with pytest.raises(SchemaError, match="outcome values must be finite"):
            load_panel(src)


# sha256 of the CSV bytes; captured before the spec validation was moved
# into the tables each spec implies
SIMULATE_SHA256 = {
    "unconfoundedness":
        "7ff2997d264a3cd56b8371227aec6452a705b2a1db63fef26043140bde57aba3",
    "iv":
        "a251ea6adc49ccc91a602620813833f188905828c58f9837d2d20a1f22a4b2ae",
    "staggered_did":
        "1c2517971cd5dde81d0a5c9669039d20084b6b1117031fce2096450ca8b92be7",
}
TRUE_DESIGN_SHA256 = {
    "ols_ate":
        "4f3d7dac6417dc260d0602ba69bf20517b3baba4fd95a48c6c2618c3774e923d",
    "ols_att":
        "1aa9f9f71f04de161dba02c43792f4897076cc2c4aee845f2cf6dacea9ee3544",
    "ols_atu":
        "d1cd7237fca9797ac92dec6407c45f7a07b0dfa4162af2c45e9b97215acc6ae2",
    "iv":
        "0737d74524375d9fa7725a694a229362d47ef365a36c67e5bdb85eedafb7c25d",
    "tsls":
        "91931a09809977550ce0a6633205d49104180a75151655184477cdc6fb9101f0",
    "twfe_cdh":
        "ce83862cf1bd52c5cb660c225920f758adf6eab3119daabae3fc2c1acaa461ab",
    "twfe_h":
        "9782e540a44437e83a57ced8cad1d4ed6dd651830a292778296a4f49038773ff",
}
SPEC_OF = {"unconfoundedness": benchmark_spec, "iv": iv_spec,
           "staggered_did": staggered_spec}
SPEC_OF_TABLE = {PropensityTable: benchmark_spec, IvCellTable: iv_spec,
                 GroupDistribution: staggered_spec}


def csv_sha256(table):
    buf = io.StringIO()
    table.to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestLockIns:
    @pytest.mark.parametrize("family", SIMULATE_SHA256)
    def test_simulate_csv(self, family):
        sample = simulate(SPEC_OF[family](seed=21), 400)
        assert csv_sha256(sample) == SIMULATE_SHA256[family]

    @pytest.mark.parametrize("estimand", TRUE_DESIGN_SHA256)
    def test_true_design_csv(self, estimand):
        make = SPEC_OF_TABLE[ESTIMAND_FAMILIES[estimand].primitive]
        design = make().true_design(estimand)
        assert csv_sha256(design) == TRUE_DESIGN_SHA256[estimand]


class TestSimulate:
    def test_needs_a_unit(self):
        with pytest.raises(InvalidSpec, match="^n must be at least 1$"):
            simulate(benchmark_spec(), 0)

    @pytest.mark.parametrize("n,seed,message", [
        (2.5, None, "n must be a whole number, got 2.5"),
        (math.nan, None, "n must be a whole number, got nan"),
        (5, -1, "seed must be a nonnegative whole number, got -1"),
        (5, 2.5, "seed must be a nonnegative whole number, got 2.5"),
    ])
    def test_count_and_seed_are_whole_numbers(self, n, seed, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            simulate(benchmark_spec(), n, seed=seed)

    def test_whole_floats_draw_as_their_ints(self):
        spec = benchmark_spec()
        assert csv_sha256(simulate(spec, 40.0, seed=3.0)) == csv_sha256(
            simulate(spec, 40, seed=3))

    @settings(max_examples=60, deadline=None)
    @given(masses=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
           n=st.integers(1, 500), seed=st.integers(0, 2**32))
    def test_cells_are_drawn_as_rng_choice_draws_them(self, masses, n, seed):
        mass = np.asarray(masses) / sum(masses)
        spec = DgpSpec(family="unconfoundedness", seed=seed, cells=tuple(
            data_io.CellSpec(label="c%02d" % i, mass=m, p=0.5)
            for i, m in enumerate(mass.tolist())))
        rng = rng_stream(seed, "simulate", "unconfoundedness")
        want = rng.choice(len(mass), size=n, p=np.asarray(mass.tolist()))
        assert simulate(spec, n).x.tolist() == ["c%02d" % i for i in want]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_draws_what_the_loop_reference_draws(self, data):
        """labels, codes, d, z and y bit for bit, on a fresh spec and on
        its second draw: labels in any order, repeated or ending in NUL,
        cells too light to be drawn and a whole-number mass."""
        family = data.draw(st.sampled_from(["unconfoundedness", "iv"]))
        k = data.draw(st.integers(1, 12), label="k")
        labels = data.draw(st.lists(st.text("ab9\xe9\x00", max_size=3),
                                    min_size=k, max_size=k), label="labels")
        weight = st.floats(0.01, 1.0) | st.sampled_from([1e-9, 1e-5])
        weights = data.draw(st.lists(weight, min_size=k, max_size=k))
        masses = (np.asarray(weights) / sum(weights)).tolist()
        if k == 1 and data.draw(st.booleans(), label="whole mass"):
            masses = [1]
        real = st.floats(-3, 3) | st.sampled_from([0.0, -0.0])
        share = st.floats(0.01, 0.99)
        cells = []
        for label, mass in zip(labels, masses):
            rule = {"p": data.draw(share)}
            if family == "iv":
                pc = data.draw(st.floats(0, 1))
                rule = {"pz": data.draw(share), "pc": pc,
                        "pa": data.draw(st.floats(0, 1)) * (1 - pc)}
            cells.append(data_io.CellSpec(label=label, mass=mass, tau=data.draw(real),
                                          baseline=data.draw(real), **rule))
        try:
            spec = DgpSpec(family=family, seed=data.draw(st.integers(0, 2**32)),
                           noise_scale=data.draw(st.sampled_from([0.0, 1.0])
                                                 | st.floats(0, 5)),
                           cells=tuple(cells))
        except InvalidSpec:  # pc + pa rounded above 1
            reject()
        n = data.draw(st.integers(1, 5000), label="n")
        seed = data.draw(st.none() | st.integers(0, 2**32), label="seed")
        want = reference_simulate(spec, n, seed)
        for _ in range(2):
            got = simulate(spec, n, seed=seed)
            for name, w in zip(("labels", "codes", "d", "z", "y"), want):
                g = getattr(got, name)
                if w is None:
                    assert g is None
                    continue
                assert (g.dtype, g.shape) == (w.dtype, w.shape), name
                assert g.tobytes() == w.tobytes(), name

    def test_cells_whose_cdf_lies_on_or_beside_a_part_edge(self):
        """simulate finds a row's cell from its part of [0, 1) when more
        than four cells are drawn; cdf values on an edge of a part, a
        float beside one and inside one are where that could go wrong."""
        edge = 1 / data_io._PARTS
        masses = [edge, edge, np.nextafter(edge, 1), edge / 2, edge, 3 * edge]
        masses.append(1 - sum(masses))  # dyadic, so the cdf is exact
        assert sum(masses) == 1
        spec = DgpSpec(family="unconfoundedness", cells=tuple(
            data_io.CellSpec(label=str(i), mass=m, p=0.5)
            for i, m in enumerate(masses)))
        drawn = 0
        for seed in range(40):
            got, want = simulate(spec, 20000, seed=seed), reference_simulate(
                spec, 20000, seed)
            assert got.labels.tolist() == want[0].tolist()
            assert got.codes.tobytes() == want[1].tobytes()
            drawn += np.count_nonzero(got.labels[got.codes] != "6")
        assert drawn > 1000  # rows in the first eight parts

    def test_whole_number_masses(self):
        spec = DgpSpec(family="unconfoundedness", cells=(
            data_io.CellSpec(label="a", mass=1, p=0.5),))
        assert simulate(spec, 5).x.tolist() == ["a"] * 5

    def test_unconfoundedness_frequencies(self):
        spec = benchmark_spec(seed=5)
        s = simulate(spec, 100_000)
        assert isinstance(s, MicroSample)
        freq1 = float(np.mean(s.x == "1"))
        assert abs(freq1 - 0.2) < 0.01
        d_in_1 = s.d[s.x == "1"]
        assert abs(float(d_in_1.mean()) - 0.4) < 0.01

    def test_determinism(self):
        spec = benchmark_spec(seed=5)
        a = simulate(spec, 500)
        b = simulate(spec, 500)
        assert list(a.x) == list(b.x)
        assert list(a.d) == list(b.d)
        assert a.y == pytest.approx(b.y, abs=0)

    def test_constant_tau_recovers_ate(self):
        spec = DgpSpec.from_json_dict(
            {
                "family": "unconfoundedness",
                "seed": 8,
                "noise_scale": 0.5,
                "cells": [
                    {"label": "1", "mass": 0.5, "p": 0.4, "tau": 2.0},
                    {"label": "2", "mass": 0.5, "p": 0.6, "tau": 2.0},
                ],
            }
        )
        s = simulate(spec, 50_000)
        # within-cell mean differences identify tau = 2 in every cell
        diffs = []
        for lab in ("1", "2"):
            m = s.x == lab
            diffs.append(s.y[m & (s.d == 1)].mean() - s.y[m & (s.d == 0)].mean())
        assert diffs == pytest.approx([2.0, 2.0], abs=0.05)

    def test_iv_first_stage(self):
        s = simulate(iv_spec(seed=9), 100_000)
        m = s.x == "a"
        fs = s.d[m & (s.z == 1)].mean() - s.d[m & (s.z == 0)].mean()
        assert abs(float(fs) - 0.4) < 0.015
        # exclusion + monotonicity leave no defiers: D=1 requires Z=1 here
        assert not np.any((s.d == 1) & (s.z == 0))

    def test_staggered_panel_shape_and_shares(self):
        spec = staggered_spec(seed=12)
        panel = simulate(spec, 30_000)
        assert isinstance(panel, PanelData)
        gd = panel_to_group_distribution(panel)
        assert gd.shares[3] == pytest.approx(2 / 3, abs=0.01)

    def test_parallel_trends_by_construction(self):
        spec = staggered_spec(seed=13)
        panel = simulate(spec, 50_000)
        never = np.isinf(panel.g)
        # never-treated outcomes move by the common trend each period
        steps = np.diff(panel.y[never].mean(axis=0))
        assert steps == pytest.approx([0.5, 0.5], abs=0.02)

    def test_treatment_effect_shows_up_on_treated_cells(self):
        spec = staggered_spec(seed=14)
        panel = simulate(spec, 50_000)
        g2 = panel.g == 2
        never = np.isinf(panel.g)
        did = (panel.y[g2, 2] - panel.y[g2, 0]).mean() - (
            panel.y[never, 2] - panel.y[never, 0]
        ).mean()
        assert did == pytest.approx(1.5, abs=0.05)


class TestRoundTrips:
    """Loss-free serialization across all four table types."""

    N = 2500

    def test_cell_tables(self, tmp_path):
        rng = np.random.default_rng(100)
        path = tmp_path / "t.csv"
        for _ in range(self.N):
            d = random_design(rng, allow_negative_a=True, random_w0=True,
                              with_tau=bool(rng.integers(2)))
            d.to_csv(path)
            back = CellTable.from_csv(path)
            assert back.labels == d.labels
            assert back.p == pytest.approx(d.p, abs=0)
            assert back.a == pytest.approx(d.a, abs=0)
            assert back.w0 == pytest.approx(d.w0, abs=0)
            if d.tau is None:
                assert back.tau is None
            else:
                assert back.tau == pytest.approx(d.tau, abs=0, nan_ok=True)

    def test_propensity_tables(self, tmp_path):
        rng = np.random.default_rng(101)
        path = tmp_path / "t.csv"
        for _ in range(self.N):
            k = int(rng.integers(1, 9))
            pt = PropensityTable(
                tuple(map(str, range(k))),
                rng.dirichlet(np.ones(k)),
                rng.uniform(0.01, 0.99, size=k),
            )
            pt.to_csv(path)
            back = PropensityTable.from_csv(path)
            assert back.mass == pytest.approx(pt.mass, abs=0)
            assert back.p == pytest.approx(pt.p, abs=0)

    def test_iv_tables(self, tmp_path):
        rng = np.random.default_rng(102)
        path = tmp_path / "t.csv"
        for _ in range(self.N):
            k = int(rng.integers(1, 9))
            pz = rng.uniform(0.05, 0.95, size=k)
            pc = rng.uniform(0, 1, size=k)
            iv = IvCellTable(
                tuple(map(str, range(k))),
                rng.dirichlet(np.ones(k)),
                pz,
                pc * pz * (1 - pz) * rng.choice([-1.0, 1.0], size=k),
                pc,
            )
            iv.to_csv(path)
            back = IvCellTable.from_csv(path)
            assert back.pz == pytest.approx(iv.pz, abs=0)
            assert back.cov_dz == pytest.approx(iv.cov_dz, abs=0)
            assert back.pc == pytest.approx(iv.pc, abs=0)

    def test_group_distributions(self, tmp_path):
        rng = np.random.default_rng(103)
        path = tmp_path / "t.csv"
        from .helpers import random_group_distribution

        for _ in range(self.N):
            gd = random_group_distribution(rng)
            # from_csv infers T from the largest finite group
            if max(g for g in gd.shares if g is not math.inf) != gd.t:
                continue
            gd.to_csv(path)
            back = GroupDistribution.from_csv(path)
            assert back.t == gd.t
            assert back.shares == pytest.approx(gd.shares, abs=0)

"""The checks on the Monte Carlo path (`simulate` then `bootstrap_ci`):
each refusal's class and message, which check wins when several fail,
the bits that clipping stores, and the stream keys `rng_stream` takes."""

import math
import re

import numpy as np
import pytest

from estimand_audit import cells, inference
from estimand_audit.cells import CellTable, SubpopulationRule, rng_stream
from estimand_audit.data_io import MicroSample, load_micro
from estimand_audit.designs import ESTIMAND_FAMILIES, IvCellTable, PropensityTable
from estimand_audit.errors import (
    AllCellsTrimmed,
    DegenerateWeights,
    EmptyCellArm,
    InvalidDesign,
    OverlapViolation,
    SchemaError,
)
from estimand_audit.inference import BootstrapConfig, estimate_design


def refuses(error, message):
    return pytest.raises(error, match="^%s$" % re.escape(message))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- numbers and whole numbers ---------------------------------------------


@pytest.mark.parametrize("p", [
    np.array([0.5, 0.5], dtype=complex),
    [0.5, 0.5 + 0j],
    np.array([0.5, 0.5j], dtype=object),
    ["0.5", "x"],
    [[0.5], 0.5],
], ids=["complex array", "complex in a list", "complex in objects", "text",
        "ragged"])
def test_a_value_that_is_no_real_number(p):
    with refuses(InvalidDesign, "p values must be numbers"):
        CellTable(("a", "b"), p, (1.0, 2.0))


@pytest.mark.parametrize("value,least,want", [
    (5, 0, 5), (0, 1, None), (-1, 0, None), (True, 1, 1), (False, 1, None),
    (2.0, 0, 2), (2.5, 0, None), (np.int64(3), 0, 3), (math.inf, 0, None),
    ("3", 0, None), (None, 0, None)])
def test_whole_numbers(value, least, want):
    got = cells._whole(value, least)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("kwargs,message", [
    ({"b": 0}, "b must be a positive whole number, got 0"),
    ({"b": -3}, "b must be a positive whole number, got -3"),
    ({"seed": -1}, "seed must be a nonnegative whole number, got -1"),
    ({"b": 0, "alpha": 2.0}, "b must be a positive whole number, got 0"),
    ({"alpha": 2.0, "c0": -1.0}, "alpha must lie strictly between 0 and 1"),
    ({"c0": -1.0, "seed": -1}, "c0 and xi0 must be finite and positive"),
])
def test_bootstrap_config_refusals_in_order(kwargs, message):
    with refuses(InvalidDesign, message):
        BootstrapConfig(**kwargs)


# -- cell masses and probabilities -----------------------------------------


@pytest.mark.parametrize("p,message", [
    ((0.0, 1.0), "every p value must be > 0"),
    ((-0.5, 1.5), "every p value must be > 0"),
    ((math.nan, 1.0), "p values must be finite"),
    ((-math.inf, 1.0), "p values must be finite"),
    ((0.5, math.inf), "p values must be finite"),
    ((-0.5, math.nan), "p values must be finite"),
    ((0.5, 0.4), "p values sum to %r, not 1" % np.array([0.5, 0.4]).sum()),
])
def test_cell_masses(p, message):
    with refuses(InvalidDesign, message):
        CellTable(("a", "b"), p, (1.0, 2.0))


def test_mass_checks_come_before_the_weights():
    with refuses(InvalidDesign, "every p value must be > 0"):
        CellTable(("a", "b"), (0.0, 1.0), (math.nan, 1.0), (2.0, 1.0))


@pytest.mark.parametrize("w0", [(-1e-8, 1.0), (1.0, 1 + 1e-8), (5.0, -5.0)])
def test_w0_outside_the_unit_interval(w0):
    with refuses(InvalidDesign, "w0 values must lie in [0, 1]"):
        CellTable(("a", "b"), (0.5, 0.5), (1.0, 2.0), w0)


@pytest.mark.parametrize("w0", [(math.nan, 5.0), (0.5, math.inf), (-math.inf, 0.5)])
def test_w0_must_be_finite_before_it_is_in_range(w0):
    with refuses(InvalidDesign, "w0 values must be finite"):
        CellTable(("a", "b"), (0.5, 0.5), (1.0, 2.0), w0)


def test_inclusion_must_be_finite_before_it_is_in_range():
    with refuses(InvalidDesign, "inclusion values must be finite"):
        SubpopulationRule((2.0, math.nan))


CLIPPED = [-0.0, -1e-10, 1 + 1e-10, 1.0]
# clipping moves only what lies outside [0, 1], so a -0.0 keeps its sign
STORED = [-0.0, 0.0, 1.0, 1.0]


def test_w0_is_stored_clipped():
    w0 = np.array(CLIPPED)
    d = CellTable(("a", "b", "c", "d"), (0.25,) * 4, (1.0,) * 4, w0)
    assert bits(d.w0) == bits(STORED)
    assert d.w0 is not w0 and w0.flags.writeable and bits(w0) == bits(CLIPPED)


def test_complier_shares_are_stored_clipped():
    t = IvCellTable(("a", "b", "c", "d"), (0.25,) * 4, (0.5,) * 4, (0.1,) * 4,
                    CLIPPED)
    assert bits(t.pc) == bits(STORED)


def test_instrument_overlap_is_checked_before_complier_shares():
    with refuses(OverlapViolation,
                 "instrument probabilities must lie strictly inside (0, 1)"):
        IvCellTable(("a", "b"), (0.5, 0.5), (1.5, 0.5), (0.1, 0.1), (2.0, 0.5))


def test_inclusion_is_stored_clipped_and_may_be_empty():
    assert bits(SubpopulationRule(CLIPPED).inclusion) == bits(STORED)
    assert SubpopulationRule(()).inclusion.shape == (0,)


# -- numeric labels ----------------------------------------------------------


def test_labels_of_a_few_designs_in_turn_are_parsed_once():
    tables = [("1", "2"), ("1", "2", "3"), tuple("c%d" % i for i in range(10))]
    for labels in tables:
        CellTable(labels, np.full(len(labels), 1 / len(labels)), np.ones(len(labels)))
    misses = cells._infer_numeric_labels.cache_info().misses
    for _ in range(3):
        for labels in tables:
            CellTable(labels, np.full(len(labels), 1 / len(labels)),
                      np.ones(len(labels)))
    assert cells._infer_numeric_labels.cache_info().misses == misses


# -- samples -------------------------------------------------------------------


def test_read_columns_are_kept_as_read(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,d,z,y\nb,0,1,1.5\na,1,0,-2\n")
    s = load_micro(path)
    assert s.labels.tolist() == ["a", "b"] and s.codes.tolist() == [1, 0]
    for column, want in ((s.d, [0, 1]), (s.z, [1, 0])):
        assert column.dtype == np.int8 and column.tolist() == want
        assert not column.flags.writeable
    assert s.y.tolist() == [1.5, -2.0]


@pytest.mark.parametrize("make,message", [
    (lambda: MicroSample(["a", "b"], [0], None, [math.inf]),
     "x and d must be matching vectors"),
    (lambda: MicroSample(["a"], [2], [2], [math.inf]),
     "treatment values must be 0 or 1"),
    (lambda: MicroSample(["a"], [1], [2], ["x"]),
     "instrument values must be 0 or 1"),
    (lambda: MicroSample(["a"], [1], None, [math.inf, 1.0]),
     "y must match the sample length"),
])
def test_the_first_sample_check_that_fails_is_reported(make, message):
    with refuses(SchemaError, message):
        make()


# -- the estimate ------------------------------------------------------------


def sample(rows, z=None):
    x, d = zip(*rows)
    return MicroSample(list(x), list(d), z)


@pytest.mark.parametrize("family,rows,z,message", [
    ("ols_ate", [("a", 0), ("a", 0), ("b", 0), ("b", 1)], None,
     "cell 'a' has rows for only one treatment arm"),
    ("tsls", [("a", 0), ("a", 1), ("b", 0), ("b", 1)], [0, 0, 0, 1],
     "cell 'a' has rows for only one instrument arm"),
])
def test_an_empty_arm(family, rows, z, message):
    with refuses(EmptyCellArm, message):
        estimate_design(sample(rows, z), family)


def test_an_instrument_arm_needs_rows_not_every_treatment():
    # cell a has no (z=0, d=1) and no (z=1, d=0) rows; both z arms occur
    ed = estimate_design(sample([("a", 0), ("a", 1), ("b", 0), ("b", 1),
                                 ("b", 0), ("b", 1)], [0, 1, 0, 0, 1, 1]), "tsls")
    assert ed.joint.tolist() == [[[1, 0], [0, 1]], [[1, 1], [1, 1]]]


def test_the_instrument_column_is_required():
    with refuses(SchemaError, "family 'tsls' requires an instrument column z"):
        estimate_design(sample([("a", 0), ("a", 1)]), "tsls")


def test_every_cell_trimmed():
    ed = estimate_design(sample([("a", 0)] * 99 + [("a", 1)]), "ols_att")
    cfg = BootstrapConfig()
    with refuses(AllCellsTrimmed, "every cell's estimated membership is at or "
                 "below the trimming threshold %.4g" % cfg.c_n(100)):
        inference._plug_in(ed, cfg)


def test_a_largest_weight_that_is_not_positive():
    ed = estimate_design(sample([("a", 0), ("a", 1)]), "ols_ate")
    ed = inference.EstimatedDesign(ed.design.with_a([0.0]), ed.joint, "ols_ate")
    with refuses(DegenerateWeights, "largest untrimmed weight is not positive"):
        inference._plug_in(ed, BootstrapConfig())


# -- the designs of family weights --------------------------------------------


def stores_what_the_checked_table_stores(got):
    want = CellTable(got.labels, got.p, got.a, got.w0)
    assert type(got) is CellTable and got.labels == want.labels
    assert got.tau is None and want.tau is None
    for name in ("p", "a", "w0", "x"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        assert not g.flags.writeable


@pytest.mark.parametrize("family", ["ols_ate", "ols_att", "ols_atu", "iv", "tsls"])
def test_a_population_design_stores_what_the_checked_table_stores(family):
    labels, mass = ("1", "2", "3", "4"), (0.25,) * 4
    if family.startswith("ols"):
        table = PropensityTable(labels, mass, (1e-300, 0.5, 0.7, 1 - 1e-16))
    else:  # complier shares -0.0, 0.0, 1.0 and 1.0 after clipping
        table = IvCellTable(labels, mass, (0.5, 1e-300, 0.3, 0.9),
                            (0.1, -0.0, -0.05, 0.02), CLIPPED)
    stores_what_the_checked_table_stores(ESTIMAND_FAMILIES[family].build(table))


@pytest.mark.parametrize("family", inference.ESTIMABLE)
def test_an_estimated_design_stores_what_the_checked_table_stores(family):
    # both instrument arms in cell 1 and every (z, d) pair in cell 2
    rows = [("1", 0), ("1", 1), ("1", 0), ("1", 1), ("2", 0), ("2", 1),
            ("2", 0), ("2", 1), ("2", 1)]
    ed = estimate_design(sample(rows, [0, 0, 1, 1, 0, 0, 1, 1, 1]), family)
    stores_what_the_checked_table_stores(ed.design)


def test_an_undefined_estimated_membership_is_refused(monkeypatch):
    real = inference._theta

    def broken(joint, n, family):
        p, a, w0, ok_a, ok_w0 = real(joint, n, family)
        return p, a, np.where(ok_w0, np.nan, w0), ok_a, ok_w0

    monkeypatch.setattr(inference, "_theta", broken)
    with refuses(InvalidDesign, "w0 values must be finite"):
        estimate_design(sample([("a", 0), ("a", 1), ("a", 1)], [0, 1, 1]), "iv")


# -- stream keys -------------------------------------------------------------


def draw(*key):
    return rng_stream(*key).random(4).tolist()


def test_whole_number_path_components_keep_their_stream():
    assert draw(5, 2.0) == draw(5, 2) == draw(5, np.int64(2))
    assert draw(5, "boot", 3.0) == draw(5, "boot", 3)
    assert draw(2.0, "a") == draw(2, "a")


@pytest.mark.parametrize("part", [1.5, None, -1, math.nan, b"a", [1]],
                         ids=["fraction", "None", "negative", "nan", "bytes",
                              "list"])
def test_a_bad_path_component_is_refused(part):
    with refuses(InvalidDesign, "stream path components must be strings or "
                 "nonnegative whole numbers, got %r" % (part,)):
        rng_stream(5, "a", part)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", None])
def test_a_bad_seed_is_refused(seed):
    with refuses(InvalidDesign,
                 "seed must be a nonnegative whole number, got %r" % (seed,)):
        rng_stream(seed, "a")

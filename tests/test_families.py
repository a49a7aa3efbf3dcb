"""Lock-in and property tests for the estimand-family table.

The report tests pin the exact bytes of the CLI's `--json` reports for
every family on seeded inputs: `estimate` and `bootstrap` for the five
families estimable from micro data, `audit` for all seven.  The property
tests check that estimating a family's design from exact cell counts
gives what the family's builder gives on the primitive table those
counts imply, and that the batched directional derivative agrees with
one evaluation per perturbation.
"""

import ast
import re
import hashlib
import importlib
import inspect
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import estimand_audit
from estimand_audit import cli
from estimand_audit.data_io import DgpSpec, MicroSample, simulate
from estimand_audit.designs import ESTIMAND_FAMILIES, IvCellTable, PropensityTable
from estimand_audit.errors import DimensionMismatch, NoCompliers
from estimand_audit.inference import ESTIMABLE, LimitFunctional, estimate_design, psi_apply

UNCONFOUNDED = {
    "family": "unconfoundedness", "seed": 3, "noise_scale": 1.0,
    "cells": [
        {"label": "1", "mass": 0.2, "p": 0.4, "tau": 1.0, "baseline": 0.5},
        {"label": "2", "mass": 0.3, "p": 0.6, "tau": 2.0},
        {"label": "3", "mass": 0.1, "p": 0.15, "tau": -1.0},
        {"label": "4", "mass": 0.25, "p": 0.8, "tau": 0.5},
        {"label": "5", "mass": 0.15, "p": 0.3, "tau": 3.0},
    ],
}
INSTRUMENTED = {
    "family": "iv", "seed": 4, "noise_scale": 0.5,
    "cells": [
        {"label": "a", "mass": 0.3, "pz": 0.5, "pc": 0.6, "pa": 0.1, "tau": 1.0},
        {"label": "b", "mass": 0.2, "pz": 0.3, "pc": 0.4, "pa": 0.2, "tau": 2.0},
        {"label": "c", "mass": 0.35, "pz": 0.7, "pc": 0.5, "tau": 0.0},
        {"label": "d", "mass": 0.15, "pz": 0.45, "pc": 0.58, "pa": 0.3},
    ],
}
PROPENSITY_CSV = "label,mass,p\n1,0.2,0.4\n2,0.3,0.6\n3,0.1,0.15\n4,0.4,0.8\n"
IV_CSV = ("label,mass,pz,cov_dz,pc\n"
          "a,0.3,0.5,0.09,0.6\nb,0.2,0.3,-0.02,0.4\nc,0.5,0.7,0.1,0.5\n")
GROUPS_CSV = "g,share\n2,0.3\n3,0.25\n5,0.2\ninf,0.25\n"

ESTIMATE_SHA256 = {
    "ols_ate":
        "22516aac9960a3f552f3484150eb243ed31dc390cf9a13a82b3f8906b6fbcfde",
    "ols_att":
        "12d818e16693ac4500e94e4c2b8140ed7016b40ce7276c6251e1249cbcca8040",
    "ols_atu":
        "3cb06d243b894f774895d4ff1d92fd88fa158c9ebacc41217e0cdca8c664ea9d",
    "iv":
        "162a8938d27a750c55fedceb398546e0efce7ed82415edcbb122d87914a1da9b",
    "tsls":
        "ecce96076334f6b9b5c7a7f3da2b5d4c8e7130e0291758e9d08abbbcc4fd13a1",
}
BOOTSTRAP_SHA256 = {
    "ols_ate":
        "978d075c35f3e86a8bdd77e76a1863523237756d90ece91143d7e7db0e9cd981",
    "ols_att":
        "c589b5efdec90cb81fbd76da19f1820de18cd3b20d6e2a0b5b5a212e7cc7e9b7",
    "ols_atu":
        "42fc09daac7164d70c88ca0b0532425e422596abc7160a1c3aff8491c59c0ddf",
    "iv":
        "ceeef978c9f803910b4def2adf7ae7accb2154b4bfb631e7ff241d18c85f554a",
    "tsls":
        "744aa605b14e7890ba1ee030ddc87103a7651aec5fd4c1a16c94cef8f97bc14b",
}
AUDIT_SHA256 = {
    "ols_ate":
        "c59fa8f8505e617ec802cb9eef7d6f0a97fa1656d598e6fec9c4b91decec4268",
    "ols_att":
        "346ba50f8df3eba046cc96c1a7a0058d880bc6427f468b42b00203f7b8d01079",
    "ols_atu":
        "2d14ed919c53518238e4236d0a99971ecd8b1e0727d963516f134935c1ac31b7",
    "iv":
        "373f7c7da44efa158536c7dcf20f3c18b732258f9eb71aa3e63387b9dc32e756",
    "tsls":
        "a173d7e09f0d138d9af7a01dc751af5106d2170d1fca18a3bfae20b0206769c9",
    "twfe_cdh":
        "664023adfd5dca68d905ffe74d4edcb2021460dca6a768df45c97ef215a01bd7",
    "twfe_h":
        "6faa17f84b7a1a211b33fbf32a896322232c7e60f3c010462a4075f2845ada52",
}


def sample_csv(tmp_path, family):
    spec = INSTRUMENTED if ESTIMAND_FAMILIES[family].primitive is IvCellTable else UNCONFOUNDED
    path = tmp_path / "sample.csv"
    simulate(DgpSpec.from_json_dict(spec), 3000, seed=11).to_csv(path)
    return path


def report_sha256(tmp_path, *args):
    out = tmp_path / "report.json"
    assert cli.main([str(a) for a in args] + ["--json", str(out), "--quiet"]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def audit_input(tmp_path, family):
    primitive = ESTIMAND_FAMILIES[family].primitive
    flag, text = {PropensityTable: ("--propensities", PROPENSITY_CSV),
                  IvCellTable: ("--iv-cells", IV_CSV)}.get(
        primitive, ("--groups", GROUPS_CSV))
    path = tmp_path / "input.csv"
    path.write_text(text)
    return flag, path


@pytest.mark.parametrize("family", ESTIMABLE)
def test_estimate_report_bytes(tmp_path, family):
    data = sample_csv(tmp_path, family)
    assert report_sha256(tmp_path, "estimate", "--data", data,
                         "--family", family) == ESTIMATE_SHA256[family]


@pytest.mark.parametrize("family", ESTIMABLE)
def test_bootstrap_report_bytes(tmp_path, family):
    data = sample_csv(tmp_path, family)
    assert report_sha256(tmp_path, "bootstrap", "--data", data, "--family",
                         family, "--B", 50, "--seed", 1) == BOOTSTRAP_SHA256[family]


@pytest.mark.parametrize("family", list(ESTIMAND_FAMILIES))
def test_audit_report_bytes(tmp_path, family):
    flag, path = audit_input(tmp_path, family)
    assert report_sha256(tmp_path, "audit", "--family", family,
                         flag, path) == AUDIT_SHA256[family]


def counts_sample(joint):
    """Micro sample with exactly `joint[cell, arm...]` rows per cell and
    arm; cells are labelled c0, c1, … so they keep their order."""
    cells, *arms = np.nonzero(joint)
    reps = joint[np.nonzero(joint)]
    x = np.repeat([f"c{i}" for i in cells], reps)
    columns = [np.repeat(arm, reps) for arm in arms]
    if len(columns) == 1:
        return MicroSample(x=x, d=columns[0])
    return MicroSample(x=x, z=columns[0], d=columns[1])


def implied_table(joint):
    """The primitive table whose columns are the cell frequencies."""
    labels = tuple(f"c{i}" for i in range(joint.shape[0]))
    joint = joint.astype(float)
    if joint.ndim == 2:
        rows = joint.sum(axis=1)
        return PropensityTable(labels, rows / rows.sum(), joint[:, 1] / rows)
    nz = joint.sum(axis=2)
    rows = nz.sum(axis=1)
    pz = nz[:, 1] / rows
    cov = joint[:, 1, 1] / rows - (joint[:, :, 1].sum(axis=1) / rows) * pz
    pc = np.clip(joint[:, 1, 1] / nz[:, 1] - joint[:, 0, 1] / nz[:, 0], 0.0, 1.0)
    return IvCellTable(labels, rows / rows.sum(), pz, cov, pc)


@st.composite
def exact_counts(draw, instrumented):
    """Cell-by-arm counts in which every cell has both values of its
    first arm (both treatments, or both instrument values)."""
    k = draw(st.integers(1, 6))
    shape = (k, 2, 2) if instrumented else (k, 2)
    low = 0 if instrumented else 1
    flat = draw(st.lists(st.integers(low, 25), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    joint = np.asarray(flat, dtype=np.int64).reshape(shape)
    if instrumented:
        joint[..., 0] += joint.sum(axis=-1) == 0
    return joint


@pytest.mark.parametrize("family", ESTIMABLE)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_estimate_equals_builder_on_implied_table(family, data):
    fam = ESTIMAND_FAMILIES[family]
    joint = data.draw(exact_counts(fam.primitive is IvCellTable))
    sample = counts_sample(joint)
    try:
        built = fam.build(implied_table(joint))
    except NoCompliers as exc:
        with pytest.raises(NoCompliers, match="^%s$" % re.escape(str(exc))):
            estimate_design(sample, family)
        return
    ed = estimate_design(sample, family)
    assert ed.design.labels == built.labels
    for column in ("p", "a", "w0"):
        np.testing.assert_array_equal(getattr(ed.design, column),
                                      getattr(built, column))
    np.testing.assert_array_equal(ed.joint, joint)


def limit_functional(data, k):
    coef = st.floats(-10, 10)
    vec = st.lists(coef, min_size=k, max_size=k)
    return LimitFunctional(
        coef_a=data.draw(vec), coef_w0=data.draw(vec), coef_p=data.draw(vec),
        coef_max=data.draw(coef),
        psi_set=sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1))))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_psi_apply_matches_single_calls(data):
    k = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(0, 12))
    lf = limit_functional(data, k)
    z = np.asarray(data.draw(st.lists(st.floats(-100, 100), min_size=3 * k * m,
                                      max_size=3 * k * m))).reshape(m, 3, k)
    batched = psi_apply(lf, z)
    single = [psi_apply(lf, one) for one in z]
    assert isinstance(batched, np.ndarray) and batched.shape == (m,)
    assert all(isinstance(v, float) for v in single)
    # BLAS computes a matrix-vector product in row blocks, so the last
    # bits of a row's dot products may depend on the batch it sits in
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 5), (2, 3, 5), (2, 2, 4),
                                   (1, 2, 3, 4), (3, 4, 1)])
def test_psi_apply_rejects_wrong_shapes(shape):
    lf = LimitFunctional(np.ones(4), np.ones(4), np.ones(4), 1.0, (0, 2))
    with pytest.raises(DimensionMismatch):
        psi_apply(lf, np.zeros(shape))


PUBLIC_NAMES = [
    "BootstrapConfig", "BootstrapResult", "CellTable", "DgpSpec",
    "EstimatedDesign", "GroupDistribution", "Interval", "IvCellTable",
    "LimitFunctional", "MicroSample", "MomentSummary", "PanelCellTable",
    "PanelData", "PropensityTable", "SignDecomposition", "SubpopulationRule",
    "SupportBounds", "TrimSolution", "ValidityReport",
    "adversarial_sign_check", "ate_bounds_from_validity", "ate_bounds_general",
    "bootstrap_ci", "cell_table", "check_bounded_difference_existence",
    "check_fixed_existence", "check_linear_cate_existence",
    "check_uniform_existence", "check_weakly_causal",
    "decompose_negative_weights", "discrete_weights", "errors",
    "estimate_design", "estimate_uniform_validity", "fixed_tau_bruteforce",
    "fixed_tau_internal_validity", "fixed_tau_lp", "iv_design", "load_micro",
    "load_panel", "moment_summary", "mu", "normalize_sign", "ols_ate_design",
    "ols_att_design", "ols_atu_design", "panel_to_group_distribution",
    "psi_apply", "psi_hat_build", "realize_subpop", "rng_stream", "simulate",
    "subpop_profile", "tsls_design", "twfe_cdh_design", "twfe_gb_weights",
    "twfe_h_design", "uniform_internal_validity",
]
SURFACE_MODULES = ("bounds", "cells", "data_io", "designs", "inference", "validity")


def top_level_names(module):
    """Names a module defines itself: its functions, classes and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_public_surface():
    assert sorted(estimand_audit.__all__) == PUBLIC_NAMES
    assert estimand_audit.errors is importlib.import_module("estimand_audit.errors")
    modules = [importlib.import_module("estimand_audit." + m) for m in SURFACE_MODULES]
    owned = {m.__name__: top_level_names(m) for m in modules}
    lists = {m.__name__: set(vars(m).get("__all__", ())) for m in modules}
    for name, names in lists.items():
        assert names <= owned[name], name
    for a, b in combinations(lists, 2):
        assert not lists[a] & lists[b], (a, b)
    # every other exported name resolves to the object of its one owner
    for name in set(PUBLIC_NAMES) - {"errors"}:
        homes = [m for m in modules if name in owned[m.__name__]]
        assert len(homes) == 1, name
        assert getattr(estimand_audit, name) is getattr(homes[0], name)


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    """perfbench's tracer swaps these attributes for wrappers during an
    op, so renaming one breaks the benchmark, not any other test."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    patches = importlib.import_module("tracer").cli_patches()
    assert patches
    for owner, attr, _, _ in patches:
        assert attr in vars(owner), (owner, attr)

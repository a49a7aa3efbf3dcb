"""End-to-end tests for the command line interface.

Frozen orientation values used below:

* benchmark design p=(0.2,0.8), a=(0.24,0.09): share 0.5, inclusion
  (1, 0.375); with tau=(1,3) the estimand is 2.2, so support bounds
  (0, 10) give the interval [1.1, 6.1].
* two-point tau (0,1) with masses (2/3,1/3) at mu0=0.25: threshold 0.75,
  kept share 8/9, atom kept fractionally at 2/3.
* staggered panel, 20 units, group shares (0.7, 0.25, 0.05): event-study
  representation gives the share 89/264 and representativeness 89/480;
  the interacted representation has a negative weight, so no causal
  representation exists there.
"""

import contextlib
import csv
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from estimand_audit import cells, cli
from estimand_audit.cells import MomentSummary
from estimand_audit.data_io import MicroSample

BENCH_CSV = "label,p,a,w0,tau\n1,0.2,0.24,1.0,\n2,0.8,0.09,1.0,\n"
BENCH_TAU_CSV = "label,p,a,w0,tau\n1,0.2,0.24,1.0,1.0\n2,0.8,0.09,1.0,3.0\n"
TWO_POINT_CSV = (
    "label,p,a,w0,tau\n"
    "lo,0.6666666666666666,1.0,1.0,0.0\n"
    "hi,0.3333333333333333,1.0,1.0,1.0\n"
)
PROPENSITY_CSV = "label,mass,p\n1,0.2,0.4\n2,0.8,0.1\n"

SPEC_JSON = json.dumps({
    "family": "unconfoundedness",
    "seed": 0,
    "noise_scale": 0.0,
    "cells": [
        {"label": "1", "mass": 0.5, "p": 0.4},
        {"label": "2", "mass": 0.5, "p": 0.27},
    ],
})


def panel_csv():
    lines = ["unit,g,y1,y2,y3"]
    for i in range(14):
        lines.append(f"a{i:02d},2,0.0,1.0,1.5")
    for i in range(5):
        lines.append(f"b{i},3,0.0,0.5,2.0")
    lines.append("c0,inf,0.0,0.5,1.0")
    return "\n".join(lines) + "\n"


def micro_csv(path):
    xs = ["1"] * 200 + ["2"] * 800
    ds = [1] * 80 + [0] * 120 + [1] * 80 + [0] * 720
    MicroSample(x=np.asarray(xs), d=ds).to_csv(path)
    return str(path)


def run(*args):
    return cli.main([str(a) for a in args])


class TestAuditDesign:
    def test_benchmark_json(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        out = tmp_path / "report.json"
        assert run("audit", "--design", src, "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["family"] == "design"
        assert payload["uniform"]["exists"] is True
        assert payload["uniform"]["p_internal"] == pytest.approx(0.5, abs=1e-12)
        assert payload["uniform"]["p_representative"] == pytest.approx(0.5, abs=1e-12)
        assert payload["uniform"]["a_max"] == pytest.approx(0.24, abs=1e-12)
        assert payload["uniform"]["inclusion"] == pytest.approx([1.0, 0.375], abs=1e-12)
        assert payload["moments"]["mu"] is None
        assert payload["moments"]["pop_w0"] == pytest.approx(1.0)
        assert payload["fixed_tau"] is None
        assert payload["bounds"] is None

    def test_tiny_scale_weights(self, tmp_path):
        # a = (1, 3) gives the same report up to rounding
        src = tmp_path / "tiny.csv"
        src.write_text("label,p,a,w0,tau\n0,0.5,1e-13,1,1\n1,0.5,3e-13,1,2\n")
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["moments"]["mu"] == pytest.approx(1.75, rel=1e-12)
        assert payload["uniform"]["exists"] is True
        assert payload["uniform"]["p_internal"] == pytest.approx(2 / 3, rel=1e-12)
        assert payload["fixed_tau"]["trim"]["kept_mass"] == pytest.approx(2 / 3, rel=1e-12)

    def test_tiny_scale_negative_weight(self, tmp_path):
        # a negative weight far below 1e-12 still rules out the uniform
        # representation, so the ATE bounds match those at a = (3, -1)
        payloads = []
        for scale in ("e-13", ""):
            src = tmp_path / f"neg{scale}.csv"
            src.write_text(f"label,p,a,w0,tau\n0,0.5,3{scale},1,1\n"
                           f"1,0.5,-1{scale},1,2\n")
            out = tmp_path / f"neg{scale}.json"
            assert run("audit", "--design", src, "--json", out, "--quiet",
                       "--b-lo", "0", "--b-hi", "3") == 0
            payloads.append(json.loads(out.read_text()))
        tiny, unit = payloads
        assert tiny["uniform"]["exists"] is unit["uniform"]["exists"] is False
        assert tiny["uniform"]["p_internal"] == unit["uniform"]["p_internal"] == 0.0
        assert tiny["bounds"] == unit["bounds"]

    def test_human_table(self, tmp_path, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        assert run("audit", "--design", src) == 0
        text = capsys.readouterr().out
        assert "uniformly in tau0" in text
        assert "given tau0" in text
        assert "P(W*=1)" in text
        assert "P(W*=1 | W0=1)" in text

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        assert run("audit", "--design", src, "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_matches_golden_file(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        out = tmp_path / "report.json"
        run("audit", "--design", src, "--json", out, "--quiet")
        got = json.loads(out.read_text())
        golden = Path(__file__).parent / "data" / "golden_audit.json"
        want = json.loads(golden.read_text())
        assert _approx_equal(got, want)


def _approx_equal(got, want):
    if isinstance(want, dict):
        return set(got) == set(want) and all(
            _approx_equal(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return len(got) == len(want) and all(
            _approx_equal(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float):
        return got == pytest.approx(want, rel=1e-12, abs=1e-12)
    return got == want


class TestAuditFamilies:
    def test_propensity_input(self, tmp_path):
        src = tmp_path / "pt.csv"
        src.write_text(PROPENSITY_CSV)
        out = tmp_path / "r.json"
        assert run("audit", "--family", "ols_ate", "--propensities", src,
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "ols_ate"
        assert payload["uniform"]["p_internal"] == pytest.approx(0.5, abs=1e-12)

    def test_event_study_panel(self, tmp_path):
        src = tmp_path / "panel.csv"
        src.write_text(panel_csv())
        out = tmp_path / "r.json"
        assert run("audit", "--family", "twfe_h", "--panel", src,
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["uniform"]["exists"] is True
        assert payload["uniform"]["p_internal"] == pytest.approx(89 / 264, abs=1e-10)
        assert payload["uniform"]["p_representative"] == pytest.approx(89 / 480, abs=1e-10)
        assert payload["moments"]["pop_w0"] == pytest.approx(0.55, abs=1e-12)

    def test_interacted_panel_nonexistence_is_not_an_error(self, tmp_path):
        src = tmp_path / "panel.csv"
        src.write_text(panel_csv())
        out = tmp_path / "r.json"
        assert run("audit", "--family", "twfe_cdh", "--panel", src,
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["uniform"]["exists"] is False
        assert payload["uniform"]["p_internal"] == 0.0
        assert payload["uniform"]["p_representative"] == 0.0
        assert payload["uniform"]["inclusion"] is None

    def test_groups_input(self, tmp_path):
        src = tmp_path / "groups.csv"
        src.write_text("g,share\n2,0.7\n3,0.25\ninf,0.05\n")
        out = tmp_path / "r.json"
        assert run("audit", "--family", "twfe_h", "--groups", src,
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["uniform"]["p_internal"] == pytest.approx(89 / 264, abs=1e-10)


class TestAuditFixedTau:
    def test_two_point_trim(self, tmp_path):
        src = tmp_path / "two.csv"
        src.write_text(TWO_POINT_CSV)
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--mu0", "0.25",
                   "--json", out, "--quiet") == 0
        ft = json.loads(out.read_text())["fixed_tau"]
        assert ft["mu0"] == pytest.approx(0.25)
        assert ft["trim"]["direction"] == "above"
        assert ft["trim"]["alpha"] == pytest.approx(0.75, abs=1e-12)
        assert ft["trim"]["atom_fraction"] == pytest.approx(2 / 3, abs=1e-12)
        assert ft["report"]["p_internal"] == pytest.approx(8 / 9, abs=1e-12)
        assert ft["agreement"] is True
        solvers = ft["solvers"]
        for key in ("closed_form", "mass_reduction", "brute_force"):
            assert solvers[key] == pytest.approx(8 / 9, abs=1e-9)

    def test_solvers_that_disagree_are_reported(self, tmp_path):
        src = tmp_path / "two.csv"
        src.write_text(TWO_POINT_CSV)
        out = tmp_path / "r.json"
        with mock.patch.object(cli, "fixed_tau_bruteforce", lambda d, m: 0.5):
            assert run("audit", "--design", src, "--mu0", "0.25",
                       "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["fixed_tau"]["agreement"] is False
        assert payload["fixed_tau"]["solvers"]["brute_force"] == 0.5
        assert ("fixed-tau solvers disagree beyond 1e-09"
                in payload["diagnostics"]["warnings"])

    def test_tau_flag_attaches_values(self, tmp_path):
        src = tmp_path / "pt.csv"
        src.write_text(PROPENSITY_CSV)
        out = tmp_path / "r.json"
        assert run("audit", "--family", "ols_ate", "--propensities", src,
                   "--tau", "1,3", "--mu0", "1.5", "--json", out, "--quiet") == 0
        ft = json.loads(out.read_text())["fixed_tau"]
        assert ft["report"]["p_internal"] == pytest.approx(4 / 15, abs=1e-10)
        assert ft["trim"]["alpha"] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("base_cells", [12, 13])
    def test_brute_force_runs_up_to_its_cap_of_base_cells(self, tmp_path,
                                                          base_cells):
        # 13 cells; with one off the base subpopulation the enumeration
        # has 12 cells and runs, with none it is skipped with a warning
        w0 = [1.0] * base_cells + [0.0] * (13 - base_cells)
        rows = zip(range(13), [1 / 16] * 12 + [0.25], w0, [0] * 9 + [1] * 4)
        src = tmp_path / "d.csv"
        src.write_text("label,p,a,w0,tau\n" + "".join(
            "c%d,%r,1,%r,%d\n" % row for row in rows))
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--mu0", 0,
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        brute = payload["fixed_tau"]["solvers"]["brute_force"]
        warnings = payload["diagnostics"]["warnings"]
        if base_cells == 12:
            assert brute == 0.75 and warnings == []
        else:
            assert brute is None and warnings == [
                "brute-force cross-check skipped: design has more than 12 cells"]

    def test_effects_near_2_to_the_46_keep_the_solvers_in_agreement(
            self, tmp_path):
        # the balance tolerance is on tau's scale, above 100 here, so it
        # must not bound brute force's interior coordinate, a mass: that
        # lets in a mass of 1.94 > q = 0.1 and a share above one
        rows = zip("abcdef", (0.1, 0.2, 0.2, 0.2, 0.2, 0.1),
                   (1, -2, 1, -2, 1, -1))
        src = tmp_path / "big.csv"
        src.write_text("label,p,a,w0,tau\n" + "".join(
            "%s,%r,1,1,%d\n" % (label, p, sign * 2**46)
            for label, p, sign in rows))
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--mu0", "35672259318538.8",
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        ft = payload["fixed_tau"]
        assert ft["agreement"] is True
        assert payload["diagnostics"]["warnings"] == []
        assert max(ft["solvers"].values()) <= 1.0

    def test_mu0_an_ulp_below_tau_keeps_the_nearest_cell_in_every_solver(
            self, tmp_path):
        # mu = -16715314676903.422 is an ulp below the lowest tau; keeping
        # c0 whole leaves an imbalance within the tolerance, so the closed
        # form keeps it as the other two solvers do, and the report says so
        src = tmp_path / "edge.csv"
        src.write_text(
            "label,p,a,w0,tau\n"
            "c0,0.23298413438864393,0.5771478920398448,1.0,-16715314676903.42\n"
            "c1,0.4388769397370133,-2.7842552906049124e-19,0.5710407389181016,"
            "1.55716631416208e-307\n"
            "c2,0.3281389258743428,0.5987699421420221,0.0,"
            "-3.6005855569760823e-16\n")
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        ft = payload["fixed_tau"]
        assert ft["mu0"] == -16715314676903.422
        assert ft["agreement"] is True
        assert payload["diagnostics"]["warnings"] == []
        assert set(ft["solvers"].values()) == {0.48176959226596466}
        assert ft["report"]["exists"] is True
        assert ft["report"]["p_internal"] == 0.48176959226596466

    def test_tiny_scale_effects_audit_like_their_scale_one_copy(self, tmp_path):
        # every tolerance scales with (tau, mu0), so mu0 = 1.1 * 2**-43 is
        # no tie with E0 = 1.5 * 2**-43 and one tail is trimmed
        fixed = []
        for scale in (2.0**-43, 1.0):
            src = tmp_path / f"{scale!r}.csv"
            src.write_text("label,p,a,w0,tau\na,0.5,1,1,%r\nb,0.5,1,1,%r\n"
                           % (scale, 2 * scale))
            out = tmp_path / f"{scale!r}.json"
            assert run("audit", "--design", src, "--mu0", repr(1.1 * scale),
                       "--json", out, "--quiet") == 0
            fixed.append(json.loads(out.read_text())["fixed_tau"])
        tiny, unit = fixed
        assert tiny["solvers"] == unit["solvers"]
        assert tiny["report"] == unit["report"]
        assert tiny["trim"]["direction"] == unit["trim"]["direction"] == "above"
        assert tiny["trim"]["alpha"] == unit["trim"]["alpha"] * 2.0**-43

    def test_mu0_without_tau_is_a_domain_error(self, tmp_path, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        assert run("audit", "--design", src, "--mu0", "0.5") == 1
        assert "tau" in capsys.readouterr().err


class TestAuditBounds:
    def test_interval(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_TAU_CSV)
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--b-lo", "0", "--b-hi", "10",
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["moments"]["mu"] == pytest.approx(2.2, abs=1e-12)
        ate = payload["bounds"]["ate"]
        assert ate["lo"] == pytest.approx(1.1, abs=1e-12)
        assert ate["hi"] == pytest.approx(6.1, abs=1e-12)
        assert ate["width"] == pytest.approx(5.0, abs=1e-12)

    def test_half_specified_support_is_a_usage_error(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_TAU_CSV)
        with pytest.raises(SystemExit) as err:
            run("audit", "--design", src, "--b-lo", "0")
        assert err.value.code == 2


class TestBoundsCommand:
    def test_decomposition_and_general(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_TAU_CSV)
        out = tmp_path / "r.json"
        assert run("bounds", "--design", src, "--b-lo", "0", "--b-hi", "10",
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["ate"]["lo"] == pytest.approx(1.1, abs=1e-12)
        assert payload["decomposition"]["omega_plus"] == pytest.approx(1.0)
        assert payload["decomposition"]["omega_minus"] == pytest.approx(0.0)
        assert payload["decomposition"]["mu_plus"] == pytest.approx(2.2, abs=1e-12)
        general = payload["general"]
        assert general["lo"] == pytest.approx(1.1, abs=1e-12)
        assert general["hi"] == pytest.approx(6.1, abs=1e-12)

    def test_mu_flag_supplies_the_estimand(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        out = tmp_path / "r.json"
        assert run("bounds", "--design", src, "--mu", "2.2", "--b-lo", "0",
                   "--b-hi", "10", "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["ate"]["hi"] == pytest.approx(6.1, abs=1e-12)

    def test_missing_estimand_value(self, tmp_path, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        assert run("bounds", "--design", src, "--b-lo", "0", "--b-hi", "10") == 1
        assert "error" in capsys.readouterr().err


class TestEstimateCommand:
    def test_plug_in_share(self, tmp_path):
        data = micro_csv(tmp_path / "m.csv")
        out = tmp_path / "r.json"
        assert run("estimate", "--data", data, "--family", "ols_ate",
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 1000
        assert payload["p_hat"] == pytest.approx(0.5, abs=1e-12)
        assert payload["trimmed_cells"] == []
        counts = {c["label"]: c["count"] for c in payload["cells"]}
        assert counts == {"1": 200, "2": 800}

    def test_family_is_required(self, tmp_path):
        data = micro_csv(tmp_path / "m.csv")
        with pytest.raises(SystemExit) as err:
            run("estimate", "--data", data)
        assert err.value.code == 2


class TestBootstrapCommand:
    def test_json_draws(self, tmp_path):
        data = micro_csv(tmp_path / "m.csv")
        out = tmp_path / "r.json"
        assert run("bootstrap", "--data", data, "--family", "ols_ate",
                   "--B", "40", "--alpha", "0.05", "--seed", "3",
                   "--json", out, "--quiet") == 0
        payload = json.loads(out.read_text())
        assert payload["n_draws"] == 40
        assert len(payload["draws"]) == 40
        assert payload["ci"]["lo"] == 0.0
        assert 0.0 <= payload["ci"]["hi"] <= 1.0

    def test_seed_reproducibility(self, tmp_path):
        data = micro_csv(tmp_path / "m.csv")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run("bootstrap", "--data", data, "--family", "ols_ate", "--B", "25",
            "--seed", "11", "--json", out1, "--quiet")
        run("bootstrap", "--data", data, "--family", "ols_ate", "--B", "25",
            "--seed", "11", "--json", out2, "--quiet")
        assert out1.read_bytes() == out2.read_bytes()


# labels that csv quotes, that are not ASCII, that look like numbers or
# that the readers strip into another label (a NUL, which csv takes only
# from Python 3.11, is left to test_data_io's factorization property)
SHUFFLE_LABELS = ["a", "b,c", 'say "hi"', "line\nbreak", "\xe9", "\u65e5\u672c",
                  "\U0001f600", "1", "1.0", "01", "-0", "1e3", "nan", "Z", "z",
                  " a ", ""]


def micro_outputs(path, family):
    """(exit code, stdout, stderr, --json bytes) of estimate and bootstrap
    on the micro file at `path`."""
    out = []
    for args in (("estimate",), ("bootstrap", "--B", "50", "--seed", "4")):
        report = path.with_suffix(".json")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run(*args, "--data", path, "--family", family,
                       "--json", report)
        out.append((code, stdout.getvalue(), stderr.getvalue(),
                    report.read_bytes() if report.exists() else None))
        report.unlink(missing_ok=True)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shuffled_rows_give_the_same_estimate_and_bootstrap(
        tmp_path_factory, data):
    """Cells are sorted labels and the bootstrap resamples their counts,
    so the order of a micro file's rows changes no byte of either report,
    from the numpy fast path or from the exact reader."""
    labels = data.draw(st.lists(
        st.sampled_from(SHUFFLE_LABELS)
        | st.text(st.sampled_from(',"\xe9\u65e5 .-e019x'), max_size=4),
        min_size=1, max_size=4, unique=True))
    family = data.draw(st.sampled_from(["ols_ate", "tsls"]))
    rows = []
    for label in labels:
        # (z, d) counts: both arms of each, and more compliers than not
        counts = {(0, 0): data.draw(st.integers(1, 4)), (0, 1): 1,
                  (1, 0): data.draw(st.integers(1, 4)),
                  (1, 1): data.draw(st.integers(5, 9))}
        for (z, d), count in counts.items():
            rows += [(label, d, z, data.draw(st.sampled_from(
                [0.5, -1.25, 1e-300, 3.0])))] * count
    shuffled = data.draw(st.permutations(rows))
    # one path for both files, since an error message names it
    path = tmp_path_factory.mktemp("shuffle") / "m.csv"
    outputs = []
    for table in (rows, shuffled):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("x", "d", "z", "y"))
            writer.writerows(table)
        outputs.append(micro_outputs(path, family))
        with mock.patch.object(cells, "_numpy_block", lambda rows, columns: None):
            outputs.append(micro_outputs(path, family))
    assert outputs[0][0][0] == 0 or "error: " in outputs[0][0][2]
    assert all(out == outputs[0] for out in outputs)


class TestSimulateCommand:
    def test_byte_identical_with_seed(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC_JSON)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--spec", spec, "--n", "200", "--seed", "7",
                   "--out", f1) == 0
        assert run("simulate", "--spec", spec, "--n", "200", "--seed", "7",
                   "--out", f2) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == "x,d,y"

    def test_seed_changes_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC_JSON)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--spec", spec, "--n", "200", "--seed", "7", "--out", f1)
        run("simulate", "--spec", spec, "--n", "200", "--seed", "8", "--out", f2)
        assert f1.read_bytes() != f2.read_bytes()

    def test_stdout_stream(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC_JSON)
        assert run("simulate", "--spec", spec, "--n", "5", "--seed", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,d,y"
        assert len(lines) == 6


class TestFigureData:
    def test_weight_profile_columns(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        out = tmp_path / "fig1.csv"
        assert run("figure-data", "--which", "fig1", "--design", src,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f_X,a_f_X_over_a_max"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx([0.2, 0.8])
        assert [float(r[2]) for r in rows] == pytest.approx([0.2, 0.3], abs=1e-12)

    def test_constant_weights_coincide(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text("label,p,a,w0,tau\n1,0.25,0.3,1.0,\n2,0.75,0.3,1.0,\n")
        out = tmp_path / "fig1.csv"
        run("figure-data", "--which", "fig1", "--design", src, "--out", out)
        for line in out.read_text().splitlines()[1:]:
            _, f_x, scaled = line.split(",")
            assert float(scaled) == pytest.approx(float(f_x), abs=1e-12)

    def test_trim_region(self, tmp_path):
        src = tmp_path / "two.csv"
        src.write_text(TWO_POINT_CSV)
        out = tmp_path / "fig2.csv"
        assert run("figure-data", "--which", "fig2", "--design", src,
                   "--mu0", "0.25", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,mass,kept,alpha"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 1.0]
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(2 / 3, abs=1e-12)
        for r in rows:
            assert float(r[3]) == pytest.approx(0.75, abs=1e-12)

    def test_full_support_when_mu0_is_the_mean(self, tmp_path):
        src = tmp_path / "two.csv"
        src.write_text(TWO_POINT_CSV)
        out = tmp_path / "fig2.csv"
        mu0 = repr(1 / 3)
        assert run("figure-data", "--which", "fig2", "--design", src,
                   "--mu0", mu0, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(r[2]) == 1.0 for r in rows)
        assert all(r[3] == "" for r in rows)

    def test_label_with_comma_is_quoted(self, tmp_path):
        src = tmp_path / "labels.csv"
        src.write_text('label,p,a,w0,tau\n"a,b",0.5,0.25,1.0,\nc,0.5,0.5,1.0,\n')
        out, report = tmp_path / "fig1.csv", tmp_path / "fig1.json"
        assert run("figure-data", "--which", "fig1", "--design", src,
                   "--out", out, "--json", report) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["x", "f_X", "a_f_X_over_a_max"],
                        ["a,b", "0.5", "0.25"], ["c", "0.5", "0.5"]]
        assert out.read_bytes().count(b"\r\n") == 3
        assert json.loads(report.read_text())["rows"][0]["x"] == "a,b"

    def test_fig2_requires_tau(self, tmp_path, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        assert run("figure-data", "--which", "fig2", "--design", src) == 1
        assert "tau" in capsys.readouterr().err


class TestUsageErrors:
    def test_design_and_family_conflict(self, tmp_path):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_CSV)
        with pytest.raises(SystemExit) as err:
            run("audit", "--design", src, "--family", "ols_ate")
        assert err.value.code == 2

    def test_family_without_its_input(self):
        with pytest.raises(SystemExit) as err:
            run("audit", "--family", "ols_ate")
        assert err.value.code == 2

    def test_domain_errors_exit_one(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("label,p,a,w0,tau\n1,0.4,0.2,1.0,\n2,0.4,0.1,1.0,\n")
        assert run("audit", "--design", src) == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("exc,message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 8.00 TiB for an array"),
     "Unable to allocate 8.00 TiB for an array"),
])
def test_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch, exc,
                                        message):
    def build(table):
        raise exc

    monkeypatch.setattr(cli, "twfe_h_design", build)
    src = tmp_path / "groups.csv"
    src.write_text(GROUPS_CSV)
    report = tmp_path / "report.json"
    assert run("audit", "--family", "twfe_h", "--groups", src,
               "--json", report) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["groups.csv"]


def exits_with_error(capsys, *args):
    code = run(*args)
    err = capsys.readouterr().err
    return code == 1 and err.startswith("error: ") and "Traceback" not in err


GROUPS_CSV = "g,share\n2,0.7\n3,0.25\ninf,0.05\n"
MISSING_ESTIMAND = ("the ATE bounds need the estimand value: supply tau in "
                    "the design (bounds also takes --mu)")

BAD_INPUTS = {
    "missing-design": ({}, ("audit", "--design", "none.csv"), "none.csv"),
    "missing-data": ({}, ("estimate", "--family", "ols_ate", "--data",
                          "none.csv"), "none.csv"),
    "missing-spec": ({}, ("simulate", "--spec", "none.json", "--n", 5),
                     "none.json"),
    "directory": ({}, ("audit", "--design", "."), "directory"),
    "json-in-missing-dir": ({"d.csv": BENCH_CSV}, (
        "audit", "--design", "d.csv", "--json", "nodir/x.json"), "nodir"),
    "not-utf8": ({"d.csv": b"label,p,a,w0,tau\n\xff,0.2,0.24,1.0,\n"
                           b"2,0.8,0.09,1.0,\n"}, ("audit", "--design", "d.csv"),
                 "d.csv"),
    "huge-field": ({"d.csv": "label,p,a,w0,tau\n%s,0.2,0.24,1.0,\n"
                             "2,0.8,0.09,1.0,\n" % ("x" * (1 << 17 | 1))},
                   ("audit", "--design", "d.csv"), "d.csv"),
    "bad-tau": ({"d.csv": BENCH_CSV}, ("audit", "--design", "d.csv",
                                       "--tau", "1,abc"), "'abc'"),
    "tau-count": ({"d.csv": BENCH_CSV}, ("audit", "--design", "d.csv",
                                         "--tau", "1,2,3"),
                  "error: --tau lists 3 values but the design has 2 cells\n"),
    "bad-spec-json": ({"s.json": '{"family": '},
                      ("simulate", "--spec", "s.json", "--n", 5), "s.json"),
    "negative-spec-seed": ({"s.json": SPEC_JSON.replace('"seed": 0',
                                                        '"seed": -1')},
                           ("simulate", "--spec", "s.json", "--n", 5), "seed"),
    "fractional-spec-seed": ({"s.json": SPEC_JSON.replace('"seed": 0',
                                                          '"seed": 2.7')},
                             ("simulate", "--spec", "s.json", "--n", 5),
                             "seed"),
    "unknown-spec-key": ({"s.json": SPEC_JSON.replace('"seed": 0',
                                                      '"noise": 0.5')},
                         ("simulate", "--spec", "s.json", "--n", 5),
                         "'noise' in the specification"),
    "unknown-cell-key": ({"s.json": SPEC_JSON.replace('"p": 0.27',
                                                      '"p": 0.27, "extra": 3')},
                         ("simulate", "--spec", "s.json", "--n", 5),
                         "'extra' in cell 2"),
    "cross-sectional-t": ({"s.json": SPEC_JSON.replace('"seed": 0',
                                                       '"t": 4.7')},
                          ("simulate", "--spec", "s.json", "--n", 5), "'t'"),
    "staggered-cells": ({"s.json": json.dumps({
        "family": "staggered_did", "t": 3, "cells": [],
        "groups": [{"g": 2, "share": 0.5}, {"g": "inf", "share": 0.5}]})},
        ("simulate", "--spec", "s.json", "--n", 5), "'cells'"),
    "overflowing-report": ({"d.csv": "label,p,a,w0,tau\n1,0.5,1.7e308,1,1\n"
                                     "2,0.5,1.7e308,1,2\n"},
                           ("audit", "--design", "d.csv", "--json", "r.json"),
                           "moments.mu"),
    "overflowing-fig2-mu0": ({"d.csv": "label,p,a,w0,tau\n1,0.5,1.7e308,1,1\n"
                                       "2,0.5,1.7e308,1,2\n"},
                             ("figure-data", "--which", "fig2", "--design",
                              "d.csv", "--json", "r.json"), "default mu0"),
    "infinite-panel-outcome": ({"p.csv": "unit,g,y1,y2\nu1,2,inf,1\n"
                                         "u2,inf,0,1\n"},
                               ("audit", "--family", "twfe_h", "--panel",
                                "p.csv"), "outcome values must be finite"),
    "audit-bounds-without-tau": ({"g.csv": GROUPS_CSV}, (
        "audit", "--family", "twfe_h", "--groups", "g.csv", "--b-lo", "0",
        "--b-hi", "1"), MISSING_ESTIMAND),
    "bounds-without-tau": ({"g.csv": GROUPS_CSV}, (
        "bounds", "--family", "twfe_h", "--groups", "g.csv", "--b-lo", "0",
        "--b-hi", "1"), MISSING_ESTIMAND),
    "fractional-spec-group": ({"s.json": json.dumps({
        "family": "staggered_did", "t": 3,
        "groups": [{"g": 2.5, "share": 0.5}, {"g": "inf", "share": 0.5}]})},
        ("simulate", "--spec", "s.json", "--n", 5), "group 2.5"),
}


@pytest.mark.parametrize("files,args,named", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, monkeypatch,
                                                     capsys, files, args,
                                                     named):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


BAD_OPTIONS = {
    "B-zero": ("bootstrap", "--B", "0"),
    "B-fraction": ("bootstrap", "--B", "2.5"),
    "alpha-nan": ("bootstrap", "--alpha", "nan"),
    "alpha-one": ("bootstrap", "--alpha", "1"),
    "boot-c0-inf": ("bootstrap", "--c0", "inf"),
    "c0-nan": ("estimate", "--c0", "nan"),
    "xi0-negative": ("estimate", "--xi0", "-1"),
    "mu0-nan": ("audit", "--mu0", "nan"),
    "mu0-inf": ("audit", "--mu0", "inf"),
    "b-lo-nan": ("audit", "--b-lo", "nan", "--b-hi", "1"),
    "b-hi-inf": ("audit", "--b-lo", "0", "--b-hi", "inf"),
    "bounds-mu-overflow": ("bounds", "--mu", "1e999", "--b-lo", "0",
                           "--b-hi", "1"),
    "fig2-mu0-text": ("figure-data", "--which", "fig2", "--mu0", "abc"),
    "simulate-seed-negative": ("simulate", "--seed", "-1"),
    "bootstrap-seed-negative": ("bootstrap", "--seed", "-3"),
    "simulate-n-zero": ("simulate", "--n", "0"),
    "simulate-n-negative": ("simulate", "--n", "-3"),
}


@pytest.mark.parametrize("args", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys())
def test_bad_numeric_option_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             args):
    monkeypatch.chdir(tmp_path)
    command, *options = args
    if command in ("estimate", "bootstrap"):
        inputs = ["--data", micro_csv(tmp_path / "m.csv"), "--family", "ols_ate"]
    else:
        (tmp_path / "d.csv").write_text(BENCH_TAU_CSV)
        inputs = ["--design", "d.csv"]
    if command == "simulate":
        (tmp_path / "s.json").write_text(SPEC_JSON)
        inputs = ["--spec", "s.json", "--n", "5"]
    with pytest.raises(SystemExit) as err:
        run(command, *inputs, *options, "--json", "r.json", "--quiet")
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: ") and "Traceback" not in stderr
    assert not (tmp_path / "r.json").exists()
    assert not list(tmp_path.rglob("*.tmp"))


class TestMalformedGroups:
    """Adoption periods that are not whole numbers, or repeat, are input
    errors naming their line, never tracebacks or silent changes."""

    @pytest.mark.parametrize("rows,line", [
        ("2,0.7\nnan,0.25\ninf,0.05", 3),
        ("2,0.7\n2.5,0.25\ninf,0.05", 3),
        ("2,0.7\n3,0.25\n2,0.05", 4),
        ("2,0.7\ninf,0.25\nInfinity,0.05", 4),
    ], ids=["nan", "fraction", "duplicate", "duplicate-never"])
    def test_rejected(self, tmp_path, capsys, rows, line):
        src = tmp_path / "groups.csv"
        src.write_text("g,share\n%s\n" % rows)
        assert run("audit", "--family", "twfe_h", "--groups", src) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line %d: " % line)
        assert "Traceback" not in err

    @pytest.mark.parametrize("never", ["Infinity", "-inf", "1e999", "never"])
    def test_infinite_period_means_never_treated(self, tmp_path, never):
        reports = []
        for g in ("inf", never):
            src = tmp_path / "groups.csv"
            src.write_text("g,share\n2,0.7\n3,0.25\n%s,0.05\n" % g)
            out = tmp_path / ("%s.json" % len(reports))
            assert run("audit", "--family", "twfe_h", "--groups", src,
                       "--json", out, "--quiet") == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestNonFiniteDesignValues:
    def test_nan_w0_is_an_input_error_and_writes_no_report(self, tmp_path,
                                                          capsys):
        src = tmp_path / "d.csv"
        src.write_text("label,p,a,w0,tau\n1,0.2,0.24,NaN,\n2,0.8,0.09,1.0,\n")
        out = tmp_path / "r.json"
        assert exits_with_error(capsys, "audit", "--design", src,
                                "--json", out)
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["inf", "-inf"])
    def test_infinite_tau_rejected(self, tmp_path, capsys, tau):
        src = tmp_path / "d.csv"
        src.write_text("label,p,a,w0,tau\n1,0.2,0.24,1.0,%s\n"
                       "2,0.8,0.09,1.0,3.0\n" % tau)
        assert exits_with_error(capsys, "audit", "--design", src)
        src.write_text(BENCH_CSV)
        assert exits_with_error(capsys, "audit", "--design", src,
                                "--tau", "1.0,%s" % tau)

    def test_overflowing_tau_minus_mu0_is_one_error_line(self, tmp_path,
                                                         capsys):
        # mu0 lies inside tau's range, but tau - mu0 overflows in both tails
        src = tmp_path / "d.csv"
        src.write_text("label,p,a,w0,tau\na,0.125,1,1,-1.7e308\n"
                       "b,0.375,1,1,-1e308\nc,0.25,1,1,1.6e308\n"
                       "d,0.25,1,1,1.7e308\n")
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--mu0", "1e307",
                   "--json", out) == 1
        assert capsys.readouterr() == (
            "", "error: tau - mu0 overflows at mu0=1e+307\n")
        assert not out.exists()

    def test_nan_propensity_rejected(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("label,mass,p\n1,0.2,nan\n2,0.8,0.1\n")
        assert exits_with_error(capsys, "audit", "--family", "ols_ate",
                                "--propensities", src)


class TestAtomicOutputs:
    def test_failed_report_keeps_the_earlier_file(self, tmp_path,
                                                  monkeypatch, capsys):
        src = tmp_path / "bench.csv"
        src.write_text(BENCH_TAU_CSV)
        out = tmp_path / "r.json"
        assert run("audit", "--design", src, "--json", out, "--quiet") == 0
        before = out.read_bytes()
        # a report with a number that is not finite is refused whole
        monkeypatch.setattr(cli, "moment_summary", lambda design: MomentSummary(
            mu=float("nan"), mean_a_given_w0=0.5, pop_w0=1.0, e0=None))
        assert run("audit", "--design", src, "--mu0", 2.2, "--json", out,
                   "--quiet") == 1
        assert capsys.readouterr().err == (
            "error: the report value moments.mu is not a finite number\n")
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bench.csv", "r.json"]

    def test_simulate_out_and_meta_replace_whole_files(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC_JSON)
        out, meta = tmp_path / "s.csv", tmp_path / "m.json"
        for n in (50, 20):
            assert run("simulate", "--spec", spec, "--n", n, "--seed", 1,
                       "--out", out, "--json", meta) == 0
        assert out.read_text().count("\n") == 21
        assert json.loads(meta.read_text())["n"] == 20
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json", "s.csv", "spec.json"]

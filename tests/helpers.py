"""Shared helpers for the test suite: canonical designs, random generators,
loop references and an exact-rational oracle of the given-tau program."""

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from estimand_audit.cells import CellTable, cell_table


def binary_design(tau=None):
    """Two-cell design with masses (0.2, 0.8) and weights (0.24, 0.09).

    This is the canonical worked example used throughout the suite: the
    weights arise from a full-population OLS design with within-cell
    treatment probabilities (0.4, 0.1).
    """
    return cell_table(
        labels=("1", "2"),
        p=(0.2, 0.8),
        a=(0.24, 0.09),
        w0=(1.0, 1.0),
        tau=tau,
    )


def random_design(
    rng,
    k_max=8,
    *,
    allow_negative_a=False,
    with_tau=False,
    random_w0=False,
    integer_tau=False,
):
    """Draw a random valid CellTable (sign-normalized).

    ``integer_tau`` draws CATEs from a small integer grid so ties (atoms)
    occur with high probability.
    """
    k = int(rng.integers(1, k_max + 1))
    p = rng.dirichlet(np.ones(k) * rng.uniform(0.4, 3.0))
    # Keep masses bounded away from zero so conditional moments are stable.
    p = (p + 0.01) / np.sum(p + 0.01)
    if allow_negative_a:
        a = rng.normal(0.5, 1.0, size=k)
    else:
        a = rng.uniform(0.05, 1.0, size=k)
    if random_w0:
        w0 = rng.uniform(0.0, 1.0, size=k)
        w0[rng.random(k) < 0.25] = 1.0
        if not np.any(w0 * p > 0):
            w0[int(rng.integers(k))] = 1.0
    else:
        w0 = np.ones(k)
    tau = None
    if with_tau:
        if integer_tau:
            tau = rng.integers(-2, 3, size=k).astype(float)
        else:
            tau = rng.normal(0.0, 2.0, size=k)
    mean_a = float(np.sum(a * w0 * p) / np.sum(w0 * p))
    if abs(mean_a) < 1e-6:
        a = a + 0.5  # nudge away from the degenerate boundary
        mean_a = float(np.sum(a * w0 * p) / np.sum(w0 * p))
    if mean_a < 0:
        a = -a
    return cell_table(
        labels=tuple(str(i) for i in range(k)), p=p, a=a, w0=w0, tau=tau
    )


def random_group_distribution(rng, t_max=10):
    """Random staggered-adoption group distribution with T in {2..t_max}.

    Always keeps at least one finite adoption group; some groups may be
    dropped entirely so sparse supports get exercised too.
    """
    import math

    t = int(rng.integers(2, t_max + 1))
    groups = list(range(2, t + 1)) + [math.inf]
    shares = rng.dirichlet(np.ones(len(groups)))
    if len(groups) > 2:
        drop = rng.random(len(groups)) < 0.25
        drop[int(rng.integers(0, len(groups) - 1))] = False
        shares = np.where(drop, 0.0, shares)
        shares = shares / shares.sum()
    from estimand_audit.designs import GroupDistribution

    return GroupDistribution(
        t, {g: float(s) for g, s in zip(groups, shares) if s > 0}
    )


# ---------------------------------------------------------------------------
# loop references: the TWFE builders and the mass-reduction solver as they
# were written before they were vectorised, kept to pin the new code's bits
# ---------------------------------------------------------------------------


def reference_twfe_cdh_design(gd):
    """Cell-by-cell group-time decomposition, one `f_cum` per cell."""
    import math

    from estimand_audit.designs import PanelCellTable, _g_str
    from estimand_audit.errors import NoTreatedGroups

    finite = gd.treated_groups()
    if not finite:
        raise NoTreatedGroups("every unit is never-treated")
    ed = gd.e_d()
    table_groups = finite + ([math.inf] if gd.never_share > 0 else [])
    labels, p, a, w0, groups, times = [], [], [], [], [], []
    for g in table_groups:
        share = gd.shares[g]
        edg = gd.e_d_given_g(g)
        for t in range(1, gd.t + 1):
            labels.append(f"g={_g_str(g)},t={t}")
            p.append(share / gd.t)
            w0.append(1.0 if g <= t else 0.0)
            a.append(1.0 - edg - gd.f_cum(t) + ed)
            groups.append(g)
            times.append(t)
    return PanelCellTable(tuple(labels), p, a, w0,
                          groups=tuple(groups), times=tuple(times))


def reference_twfe_h_design(gd):
    """Group-by-group time-constant decomposition from `f_cum` sums."""
    import math

    from estimand_audit.designs import PanelCellTable
    from estimand_audit.errors import NoTreatedGroups

    finite = gd.treated_groups()
    if not finite:
        raise NoTreatedGroups("every unit is never-treated")
    labels, p, a, w0, groups = [], [], [], [], []
    for g in finite:
        labels.append(f"g={g}")
        p.append(gd.shares[g])
        w0_g = gd.e_d_given_g(g)
        w0.append(w0_g)
        # added left to right, as Python before 3.12 sums floats
        pd0_after = 1.0 - reduce(add, map(gd.f_cum, range(g, gd.t + 1))) / (gd.t - g + 1)
        pd1_before = reduce(add, map(gd.f_cum, range(1, g))) / (g - 1)
        a.append((1.0 - w0_g) * (pd0_after + pd1_before))
        groups.append(g)
    if gd.never_share > 0:
        labels.append("g=inf")
        p.append(gd.never_share)
        w0.append(0.0)
        a.append(0.0)
        groups.append(math.inf)
    return PanelCellTable(tuple(labels), p, a, w0, groups=tuple(groups))


def reference_fixed_tau_lp(design, mu0):
    """Mass reduction that rescans every cell for the ones at capacity."""
    from estimand_audit.errors import AuditError
    from estimand_audit.validity import _program

    prog = _program(design, mu0)
    values, q, mu0, tol = prog.values, prog.q, prog.mu0, prog.tol
    if not prog.inside:
        return 0.0
    order = np.argsort(values, kind="stable")
    t = values[order] - mu0
    q = q[order]
    f = q.copy()
    tied = False  # a zeroed cell's tau is still at capacity in another
    for _ in range(len(t) + 2):
        s = float(t @ f)
        if abs(s) <= tol and (s == 0.0 or not tied):
            return float(f.sum())
        full = np.flatnonzero(f == q)
        if s > 0:
            k = int(full.max())  # top cell still at capacity
            f[k] = max(0.0, -float(t[:k] @ f[:k]) / t[k])
        else:
            k = int(full.min())  # bottom cell still at capacity
            f[k] = max(0.0, -float(t[k + 1:] @ f[k + 1:]) / t[k])
        tied = f[k] == 0.0 and bool((t[f == q] == t[k]).any())
    raise AuditError("the mass-reduction iteration failed to converge")


# ---------------------------------------------------------------------------
# exact-rational oracle of the given-tau program
# ---------------------------------------------------------------------------


ExactProgram = namedtuple("ExactProgram",
                          "share relaxed e0 alpha scale margin")


def exact_given_tau(values, q, mu0, tol):
    """The given-tau program of effects `values` with masses `q` at mu0,
    solved in exact rational arithmetic by the solvers' one rule with
    their float tolerance `tol`: nothing is kept unless t = tau - mu0 has
    both signs (or a zero) or the atom of t nearest zero has |t| * mass
    <= tol; everything is kept when |mu0 - E0| <= tol; otherwise the tail
    of t that is heavier is trimmed, keeping whole atoms of t in
    ascending order while the prefix sum of t * mass stays <= tol and a
    fraction of the next atom only to bring that sum to zero.

    Returns the share kept (summing the float masses exactly); `relaxed`,
    the largest share whose imbalance is within tol, which brute force's
    vertices may reach; E0; the |t| of the atom that is cut (None if none
    is); scale = sum |t| q; and `margin`, the least distance to tol of
    any exact sum that a solver compares with it: a draw whose margin is
    within the float error of the solvers' sums can go either way."""
    q = [Fraction(m) for m in q]
    mu0, tol, total = Fraction(mu0), Fraction(tol), sum(q)
    e0 = sum(Fraction(v) * m for v, m in zip(values, q)) / total
    sign = 1 if mu0 <= e0 else -1  # trim the tail above mu0, or below it
    atoms = defaultdict(Fraction)
    for v, m in zip(values, q):
        atoms[sign * (Fraction(v) - mu0)] += m
    ts = sorted(atoms)
    sums = [abs(mu0 - e0), abs(e0 - mu0) * total]  # the closed form's, lp's
    cum = kept = Fraction(0)
    share = relaxed = alpha = None
    if ts[0] > 0:
        sums.append(ts[0] * atoms[ts[0]])
        if sums[-1] > tol:
            share = Fraction(0)
    if share is None and abs(mu0 - e0) <= tol:
        share = total
    for t in ts:
        m = atoms[t]
        sums.append(cum + t * m)
        if share is None and t > 0 and cum + t * m > tol:
            alpha = t
            share = kept + min(m, max(Fraction(0), -cum) / t)
            relaxed = kept + min(m, (tol - cum) / t)
        cum, kept = cum + t * m, kept + m
    if share is None:
        share = total
    scale = sum(abs(t) * m for t, m in atoms.items())
    return ExactProgram(share, share if relaxed is None else relaxed, e0,
                        alpha, scale, min(abs(s - tol) for s in sums))


def require_close(what, got, want, bound, above=0):
    """Raise AssertionError unless want - bound <= got <= want + above +
    bound, compared exactly: an explicit raise, since `python -O` strips
    asserts outside the test modules that pytest rewrites."""
    miss = Fraction(got) - Fraction(want)
    if not -Fraction(bound) <= miss <= Fraction(above) + Fraction(bound):
        raise AssertionError(f"{what} = {got!r} is {float(miss)!r} from the "
                             f"exact {float(want)!r}, beyond {bound!r}")


# ---------------------------------------------------------------------------
# loop reference of the bootstrap: `inference.bootstrap_ci` with its count
# maps, `psi_apply` and `np.quantile` as they were before their per-call
# overhead was cut, kept to pin the new code's bits
# ---------------------------------------------------------------------------


def reference_propensity_columns(joint, n):
    """Counts ``(..., k, 2)`` by treatment -> cell masses and ``p``,
    from sums over the arm axis."""
    rows = joint.sum(axis=-1)
    px = joint[..., 1] / np.maximum(rows, 1.0)
    return rows / n, {"p": np.where((joint > 0).all(axis=-1), px, np.nan)}


def reference_instrument_columns(joint, n):
    """Counts ``(..., k, 2, 2)`` by (z, d) -> cell masses and the
    IvCellTable columns, from sums over the arm axes."""
    nz = joint.sum(axis=-1)
    rows = nz.sum(axis=-1)
    safe_rows = np.maximum(rows, 1.0)
    pz = nz[..., 1] / safe_rows
    d_tot = joint[..., :, 1].sum(axis=-1)
    cov = joint[..., 1, 1] / safe_rows - (d_tot / safe_rows) * pz
    pd1 = joint[..., 1, 1] / np.maximum(nz[..., 1], 1.0)
    pd0 = joint[..., 0, 1] / np.maximum(nz[..., 0], 1.0)
    pc = np.clip(pd1 - pd0, 0.0, 1.0)
    seen = rows > 0
    return rows / n, {"pz": np.where(seen, pz, np.nan),
                      "cov_dz": np.where(seen, cov, np.nan),
                      "pc": np.where((nz > 0).all(axis=-1), pc, np.nan)}


def reference_theta(joint, n, family):
    """`inference._theta` from the reference count maps."""
    from estimand_audit.designs import ESTIMAND_FAMILIES, PropensityTable

    fam = ESTIMAND_FAMILIES[family]
    columns = (reference_propensity_columns if fam.primitive is PropensityTable
               else reference_instrument_columns)
    p, cols = columns(np.asarray(joint, dtype=float), n)
    a, w0 = fam.weights(**cols)
    return p, a, w0, ~np.isnan(a), ~np.isnan(w0)


def reference_psi_apply(lf, z):
    """`inference.psi_apply` on a batch ``(m, 3, k)``, rows split by
    `np.moveaxis`."""
    za, zw, zp = np.moveaxis(z, -2, 0)
    kink = za[..., list(lf.psi_set)].max(axis=-1)
    return za @ lf.coef_a - lf.coef_max * kink + zw @ lf.coef_w0 + zp @ lf.coef_p


def reference_bootstrap_ci(sample, family, cfg):
    """`inference.bootstrap_ci` with stacked, gathered blocks and
    `np.quantile`; the estimate and its derivative come from the package."""
    import math

    from estimand_audit import inference
    from estimand_audit.cells import clip_share, rng_stream
    from estimand_audit.errors import ResampleDegenerate

    ed = inference.estimate_design(sample, family)
    keep, p_hat, lf = inference._plug_in(ed, cfg)
    n = ed.n
    c = cfg.c_n(n)
    d = ed.design
    theta0 = np.stack((d.a, d.w0, d.p))
    in_psi = np.zeros(d.k, dtype=bool)
    in_psi[list(lf.psi_set)] = True

    rng = rng_stream(cfg.seed, "bootstrap", family)
    pvals = ed.joint.ravel() / n
    root_n = math.sqrt(n)

    draws = np.empty(cfg.b)
    pending = np.arange(cfg.b)
    fallback = 0
    redraws = 0
    unstable = 0
    step = max(1, inference._BLOCK_FIELDS // pvals.size)
    for _ in range(inference._MAX_REDRAW_ROUNDS):
        m = pending.shape[0]
        z = np.empty((m, 3, d.k))
        good = np.empty(m, dtype=bool)
        filled = 0
        for lo in range(0, m, step):
            size = min(step, m - lo)
            cnt = rng.multinomial(n, pvals, size=size).reshape(
                (size,) + ed.joint.shape)
            p, a, w0, ok_a, ok_w0 = reference_theta(cnt, n, family)
            a = np.where(ok_a, a, d.a)
            w0 = np.where(ok_w0, w0, d.w0)
            untrimmed = w0 > c
            ok = untrimmed.any(axis=1)
            good[lo:lo + size] = ok
            count = int(ok.sum())
            z[filled:filled + count] = root_n * (
                np.stack((a, w0, p), axis=1)[ok] - theta0)
            filled += count
            fallback += int((~ok_a[ok]).sum() + (~ok_w0[ok]).sum())
            masked = np.where(untrimmed[ok], a[ok], -np.inf)
            unstable += int((~in_psi[masked.argmax(axis=1)]).sum())
        draws[pending[good]] = reference_psi_apply(lf, z[:filled])
        redraws += m - filled
        pending = pending[~good]
        if pending.shape[0] == 0:
            break
    else:
        raise ResampleDegenerate(
            "resampling kept losing every untrimmed cell after %d rounds"
            % inference._MAX_REDRAW_ROUNDS
        )

    q_alpha = float(np.quantile(draws, cfg.alpha))
    upper = clip_share(p_hat - q_alpha / root_n)
    diagnostics = {
        "trimmed_cells": [d.labels[i] for i in np.flatnonzero(~keep)],
        "fallback_coordinates": fallback,
        "degenerate_redraws": redraws,
        "max_cell_instability": unstable / cfg.b,
    }
    return inference.BootstrapResult(p_hat=p_hat, draws=draws, q_alpha=q_alpha,
                                     ci=(0.0, upper), diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# loop reference of `data_io.simulate` for the cross-sectional families, as
# it was before its per-spec constants were built once per spec
# ---------------------------------------------------------------------------


def reference_simulate(spec, n, seed=None):
    """(labels, codes, d, z, y) of `simulate(spec, n, seed)`, with every
    per-cell column, the cdf and the label factorization made per call."""
    from estimand_audit.cells import rng_stream
    from estimand_audit.data_io import _factorize

    root = spec.seed if seed is None else seed
    rng = rng_stream(root, "simulate", spec.family)
    mass = np.asarray([c.mass for c in spec.cells], dtype=float)
    tau = np.asarray([c.tau for c in spec.cells], dtype=float)
    base = np.asarray([c.baseline for c in spec.cells], dtype=float)
    cdf = mass.cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(n), side="right")
    noise = rng.standard_normal(n)
    noise *= spec.noise_scale
    if spec.family == "unconfoundedness":
        p = np.asarray([c.p for c in spec.cells])
        d, z = (rng.random(n) < p[idx]).astype(np.int8), None
    else:
        pz = np.asarray([c.pz for c in spec.cells])
        pc = np.asarray([c.pc for c in spec.cells])
        pa = np.asarray([c.pa for c in spec.cells])
        z = (rng.random(n) < pz[idx]).astype(np.int8)
        u = rng.random(n)
        complier = u < pc[idx]
        always = ~complier
        always &= u < (pc + pa)[idx]
        d = (complier * z + always).astype(np.int8)
    y, effect = base[idx], tau[idx]
    effect *= d
    y += effect
    y += noise
    drawn = np.bincount(idx, minlength=len(mass)) > 0
    labels, rank = _factorize([c.label for c, k in zip(spec.cells, drawn) if k])
    code = np.zeros(len(mass), rank.dtype)
    code[drawn] = rank
    return labels, code[idx], d, z, y

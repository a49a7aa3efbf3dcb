"""Shared helpers for the test suite: canonical designs and random generators."""

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
        pd0_after = 1.0 - sum(gd.f_cum(t) for t in range(g, gd.t + 1)) / (gd.t - g + 1)
        pd1_before = sum(gd.f_cum(t) for t in range(1, g)) / (g - 1)
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
    from estimand_audit.errors import AuditError, InfeasibleProgram
    from estimand_audit.validity import (_balance_tol, _conditional_tau,
                                         _in_hull)

    values, q, _ = _conditional_tau(design, context="the size program")
    mu0 = float(mu0)
    tol = _balance_tol(values, q, mu0)
    if not _in_hull(values, mu0):
        raise InfeasibleProgram(
            f"mu0={mu0!r} lies outside the CATE range "
            f"[{values.min()!r}, {values.max()!r}]"
        )
    order = np.argsort(values, kind="stable")
    t = values[order] - mu0
    q = q[order]
    f = q.copy()
    for _ in range(len(t) + 2):
        s = float(t @ f)
        if abs(s) <= tol:
            return float(f.sum())
        full = np.flatnonzero(f == q)
        if s > 0:
            k = int(full.max())  # top cell still at capacity
            f[k] = max(0.0, -float(t[:k] @ f[:k]) / t[k])
        else:
            k = int(full.min())  # bottom cell still at capacity
            f[k] = max(0.0, -float(t[k + 1:] @ f[k + 1:]) / t[k])
    raise AuditError("the mass-reduction iteration failed to converge")

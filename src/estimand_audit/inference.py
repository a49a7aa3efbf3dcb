"""Plug-in estimation and directional bootstrap for the maximal
representable share.

The share of the population that a weighted estimand can be said to
represent is, at the cell level, a smooth function of the observed
frequencies except at one point: its normalising constant is a *maximum*
over cell weights, which has a kink wherever two cells are tied for the
top.  A naive bootstrap of the share is inconsistent exactly there, so
one-sided confidence statements are built from the functional's
directional derivative instead: resampled cell frequencies are mapped to
perturbation vectors, the derivative is evaluated on each, and its lower
quantile widens the interval precisely when the maximum is nearly tied.

Estimation trims cells whose estimated target-population membership
falls below a threshold ``c_n = c0 * n**(-1/3)``; the near-maximizer set
that feeds the kink term uses a second threshold ``xi_n`` of the same
order.  Both vanish asymptotically, so nothing is trimmed in the limit.
"""

import dataclasses
import math

import numpy as np

from .cells import CellTable, _store, cell_table, rng_stream
from .designs import ESTIMAND_FAMILIES, IvCellTable, PropensityTable
from .errors import (
    AllCellsTrimmed,
    DegenerateWeights,
    DimensionMismatch,
    EmptyCellArm,
    InvalidDesign,
    InvariantViolation,
    NoCompliers,
    ResampleDegenerate,
    SchemaError,
)

_MAX_REDRAW_ROUNDS = 50


@dataclasses.dataclass(frozen=True)
class BootstrapConfig:
    """Tuning constants for estimation and bootstrap.

    Parameters
    ----------
    b : int
        Number of bootstrap replications.
    alpha : float
        One minus the nominal coverage of the one-sided interval.
    c0, xi0 : float
        Scale constants for the trimming threshold ``c_n`` and the
        near-maximizer threshold ``xi_n``, both of order ``n**(-1/3)``.
    seed : int
        Root seed for the resampling stream.
    """

    b: int = 400
    alpha: float = 0.05
    c0: float = 0.5
    xi0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if int(self.b) != self.b or self.b < 1:
            raise ValueError("b must be a positive integer")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (0 < self.c0 < math.inf and 0 < self.xi0 < math.inf):
            raise ValueError("c0 and xi0 must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def c_n(self, n):
        """Trimming threshold at sample size `n`."""
        return self.c0 * float(n) ** (-1.0 / 3.0)

    def xi_n(self, n):
        """Near-maximizer threshold at sample size `n`."""
        return self.xi0 * float(n) ** (-1.0 / 3.0)


@dataclasses.dataclass(frozen=True)
class EstimatedDesign:
    """A cell table estimated from micro data, with its count statistics.

    `joint` keeps the per-cell arm counts the estimate was computed
    from — shape ``(k, 2)`` indexed by treatment for the regression
    families, ``(k, 2, 2)`` indexed by (instrument, treatment) for the
    instrumented ones.  The bootstrap resamples these counts directly.
    """

    design: CellTable
    counts: np.ndarray
    joint: np.ndarray
    n: int
    family: str

    def __post_init__(self):
        _store(self, counts=np.asarray(self.counts, dtype=np.int64),
               joint=np.asarray(self.joint, dtype=np.int64))
        if int(self.counts.sum()) != self.n or int(self.joint.sum()) != self.n:
            raise InvalidDesign("cell counts do not add up to the sample size")


@dataclasses.dataclass(frozen=True)
class LimitFunctional:
    """Directional derivative of the estimated share.

    Acts on a perturbation ``z`` of shape ``(3, k)``, or a batch of them
    ``(m, 3, k)``, whose rows perturb the cell weights, the membership
    indicators, and the cell masses, in that order.  Linear in all coordinates except the weight coordinates
    of the near-maximizer cells in `psi_set`, which enter through a max.
    """

    coef_a: np.ndarray
    coef_w0: np.ndarray
    coef_p: np.ndarray
    coef_max: float
    psi_set: tuple

    def __post_init__(self):
        _store(self, psi_set=tuple(int(i) for i in self.psi_set),
               **{name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("coef_a", "coef_w0", "coef_p")})
        if not self.psi_set:
            raise InvalidDesign("near-maximizer set is empty")

    @property
    def k(self):
        return self.coef_a.shape[0]


@dataclasses.dataclass(frozen=True)
class BootstrapResult:
    """One-sided interval for the representable share.

    `p_hat` is the raw plug-in value (it may exceed 1 when the largest
    weight sits in a trimmed cell); `p_hat_clipped` is the reporting
    version.  `ci` is ``(0, upper)`` after clipping to the unit interval.
    """

    p_hat: float
    draws: np.ndarray
    q_alpha: float
    ci: tuple
    diagnostics: dict

    def __post_init__(self):
        _store(self, draws=np.asarray(self.draws, dtype=float))

    @property
    def p_hat_clipped(self):
        return min(max(self.p_hat, 0.0), 1.0)

    def to_json_dict(self):
        return {
            "p_hat": self.p_hat,
            "p_hat_clipped": self.p_hat_clipped,
            "q_alpha": self.q_alpha,
            "ci": {"lo": self.ci[0], "hi": self.ci[1]},
            "n_draws": int(self.draws.shape[0]),
            "status": "ok",
            "diagnostics": self.diagnostics,
        }


def _propensity_columns(joint, n):
    """Counts ``(..., k, 2)`` by treatment -> cell masses and the
    PropensityTable column ``p`` = P(D=1|X)."""
    rows = joint.sum(axis=-1)
    px = joint[..., 1] / np.maximum(rows, 1.0)
    return rows / n, {"p": np.where((joint > 0).all(axis=-1), px, np.nan)}


def _instrument_columns(joint, n):
    """Counts ``(..., k, 2, 2)`` by (z, d) -> cell masses and the
    IvCellTable columns.  The complier share is the first-stage
    difference ``P(D=1|Z=1) - P(D=1|Z=0)``, clipped at zero when sampling
    noise turns it negative."""
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


# Primitive tables that micro data estimate: the sample columns whose
# values index the count axes after the cell axis, and the estimator of
# the table's columns from those counts.
_FROM_COUNTS = {
    PropensityTable: (("d",), _propensity_columns),
    IvCellTable: (("z", "d"), _instrument_columns),
}

ESTIMABLE = tuple(name for name, fam in ESTIMAND_FAMILIES.items()
                  if fam.primitive in _FROM_COUNTS)


def _theta(joint, n, family):
    """Cell counts -> (p, a, w0, ok_a, ok_w0) for a family in ESTIMABLE.

    Leading axes of `joint` vectorize over bootstrap replications.  A
    column whose within-cell frequency is undefined (an empty cell or
    arm) is NaN, so the weights and memberships built from it are
    flagged False in `ok_a` and `ok_w0`.
    """
    fam = ESTIMAND_FAMILIES[family]
    p, columns = _FROM_COUNTS[fam.primitive][1](np.asarray(joint, dtype=float), n)
    a, w0 = fam.weights(**columns)
    return p, a, w0, ~np.isnan(a), ~np.isnan(w0)


def estimate_design(sample, family):
    """Estimate the weighted-design cell table from micro data.

    Cells are the distinct covariate labels, ordered lexicographically.
    Every cell must contain both treatment arms (both instrument arms
    for the instrumented families); otherwise the within-cell
    frequencies the weights are built from are undefined.

    Parameters
    ----------
    sample : MicroSample
        Rows with covariate label `x`, treatment `d`, and — for the
        families built from an IvCellTable — instrument `z`.
    family : str
        A name in ``ESTIMABLE``.

    Returns
    -------
    EstimatedDesign

    Raises
    ------
    EmptyCellArm
        If some cell lacks an arm the family's weights condition on.
    SchemaError
        If the instrumented families are requested without a `z` column.
    NoCompliers
        If every cell's estimated complier share is zero.
    """
    if family not in ESTIMABLE:
        raise ValueError(
            "unknown family %r; expected one of %s" % (family, ", ".join(ESTIMABLE))
        )
    arms = _FROM_COUNTS[ESTIMAND_FAMILIES[family].primitive][0]
    labels, inv = np.unique(np.asarray(sample.x), return_inverse=True)
    k = labels.shape[0]
    n = sample.n
    columns = [getattr(sample, arm) for arm in arms]
    if any(c is None for c in columns):
        raise SchemaError("family %r requires an instrument column z" % family)
    joint = np.zeros((k,) + (2,) * len(arms), dtype=np.int64)
    np.add.at(joint, (inv, *(np.asarray(c, dtype=np.int64) for c in columns)), 1)
    # both values of the first arm must occur in every cell
    bad = np.flatnonzero((joint.reshape(k, 2, -1).sum(axis=-1) == 0).any(axis=-1))
    if bad.size:
        raise EmptyCellArm("cell %r has rows for only one %s arm" % (
            str(labels[bad[0]]), "instrument" if arms[0] == "z" else "treatment"))
    p, a, w0, ok_a, ok_w0 = _theta(joint, n, family)
    if not (ok_a.all() and ok_w0.all()):
        raise InvariantViolation("a cell with both arms has an undefined estimate")
    # of these families only the complier share can vanish in every cell
    if float(p @ w0) <= 0:
        raise NoCompliers("estimated complier share is zero in every cell")
    design = cell_table([str(v) for v in labels], p, a, w0=w0)
    counts = joint.reshape(k, -1).sum(axis=1)
    return EstimatedDesign(design=design, counts=counts, joint=joint, n=n, family=family)


def _plug_in(ed, cfg):
    """The untrimmed cells, the share estimate and its directional
    derivative, from one evaluation of the trimmed maximum weight."""
    d = ed.design
    keep = d.w0 > cfg.c_n(ed.n)
    if not keep.any():
        raise AllCellsTrimmed(
            "every cell's estimated membership is at or below the trimming "
            "threshold %.4g" % cfg.c_n(ed.n)
        )
    a_max = float(d.a[keep].max())
    if a_max <= 0.0:
        raise DegenerateWeights("largest untrimmed weight is not positive")
    num = float(np.sum(d.p * d.a * d.w0))
    den = float(np.sum(d.p * d.w0))
    e_a = num / den
    scale = den * a_max
    lf = LimitFunctional(
        coef_a=d.w0 * d.p / scale,
        coef_w0=(d.a - e_a) * d.p / scale,
        coef_p=(d.a - e_a) * d.w0 / scale,
        coef_max=e_a / a_max**2,
        psi_set=tuple(np.flatnonzero(keep & (d.a >= a_max - cfg.xi_n(ed.n)))),
    )
    return keep, num / (den * a_max), lf


def estimate_uniform_validity(ed, cfg):
    """Plug-in estimate of the maximal representable share.

    The ratio ``E[a w0] / (E[w0] * max a)`` is evaluated at the
    estimated cell table, with the max restricted to cells whose
    membership estimate clears the trimming threshold.  The returned
    value is *raw*: it can exceed 1 when the globally largest weight
    sits in a trimmed cell.  Clip for reporting.

    Raises
    ------
    AllCellsTrimmed
        If no cell clears the trimming threshold.
    """
    return _plug_in(ed, cfg)[1]


def psi_hat_build(ed, cfg):
    """Build the estimated directional derivative of the share.

    The derivative of ``E[a w0] / (E[w0] * max a)`` in a direction
    ``(z_a, z_w0, z_p)`` is linear except through the max, whose
    directional derivative is the max of ``z_a`` over the near-maximizer
    cells ``psi_set`` — untrimmed cells whose weight comes within
    ``xi_n`` of the untrimmed maximum.  Restricting the set to untrimmed
    cells matches the trimmed max used by the point estimate.
    """
    return _plug_in(ed, cfg)[2]


def psi_apply(lf, z):
    """Evaluate the directional derivative at a perturbation.

    Parameters
    ----------
    lf : LimitFunctional
    z : array_like, shape (3, k) or (m, 3, k)
        Rows perturb the weights, the membership indicators, and the
        cell masses, in that order; a leading axis is a batch of m
        perturbations.

    Returns
    -------
    float, or an (m,) array for a batch
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (2, 3) or z.shape[-2:] != (3, lf.k):
        raise DimensionMismatch(
            "expected a perturbation of shape (3, %d) or (m, 3, %d), got %s"
            % (lf.k, lf.k, z.shape)
        )
    za, zw, zp = np.moveaxis(z, -2, 0)
    kink = za[..., list(lf.psi_set)].max(axis=-1)
    value = za @ lf.coef_a - lf.coef_max * kink + zw @ lf.coef_w0 + zp @ lf.coef_p
    return float(value) if z.ndim == 2 else value


def bootstrap_ci(sample, family, cfg):
    """One-sided bootstrap interval ``[0, upper]`` for the share.

    Resamples the joint cell/arm counts (a multinomial redraw of the
    rows), maps each replicate to the perturbation ``sqrt(n) * (theta* -
    theta_hat)``, evaluates the directional derivative on it, and
    subtracts the alpha-quantile of those draws from the plug-in value.

    Replicates that lose a cell or an arm keep the point estimate in the
    affected coordinates (a zero perturbation there); how often that
    happened is reported in the diagnostics.  A replicate in which *no*
    cell clears the trimming threshold is discarded and redrawn; if
    redraws keep failing the resampling scheme itself is degenerate and
    `ResampleDegenerate` is raised.

    Returns
    -------
    BootstrapResult
        With fields `p_hat` (raw plug-in value), `draws` (derivative
        evaluations), `q_alpha`, `ci`, and `diagnostics` containing
        `trimmed_cells`, `fallback_coordinates`, `degenerate_redraws`,
        and `max_cell_instability` (share of replicates whose untrimmed
        argmax left the near-maximizer set).
    """
    ed = estimate_design(sample, family)
    keep, p_hat, lf = _plug_in(ed, cfg)
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
    for _ in range(_MAX_REDRAW_ROUNDS):
        m = pending.shape[0]
        cnt = rng.multinomial(n, pvals, size=m).reshape((m,) + ed.joint.shape)
        p, a, w0, ok_a, ok_w0 = _theta(cnt, n, family)
        a = np.where(ok_a, a, d.a)
        w0 = np.where(ok_w0, w0, d.w0)
        untrimmed = w0 > c
        good = untrimmed.any(axis=1)
        if good.any():
            z = root_n * (np.stack((a, w0, p), axis=1)[good] - theta0)
            draws[pending[good]] = psi_apply(lf, z)
            fallback += int((~ok_a[good]).sum() + (~ok_w0[good]).sum())
            masked = np.where(untrimmed[good], a[good], -np.inf)
            unstable += int((~in_psi[masked.argmax(axis=1)]).sum())
        redraws += int((~good).sum())
        pending = pending[~good]
        if pending.shape[0] == 0:
            break
    else:
        raise ResampleDegenerate(
            "resampling kept losing every untrimmed cell after %d rounds"
            % _MAX_REDRAW_ROUNDS
        )

    q_alpha = float(np.quantile(draws, cfg.alpha))
    upper = min(1.0, max(0.0, p_hat - q_alpha / root_n))
    diagnostics = {
        "trimmed_cells": [d.labels[i] for i in np.flatnonzero(~keep)],
        "fallback_coordinates": fallback,
        "degenerate_redraws": redraws,
        "max_cell_instability": unstable / cfg.b,
    }
    return BootstrapResult(
        p_hat=p_hat,
        draws=draws,
        q_alpha=q_alpha,
        ci=(0.0, upper),
        diagnostics=diagnostics,
    )

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
import numbers

import numpy as np

from .cells import (CellTable, _BLOCK_FIELDS, _reals, _root_seed, _store,
                    _whole, clip_share, rng_stream)
from .designs import (ESTIMAND_FAMILIES, IvCellTable, PropensityTable,
                      _weighted_design)
from .errors import (
    AllCellsTrimmed,
    DegenerateWeights,
    DimensionMismatch,
    EmptyCellArm,
    InvalidDesign,
    ResampleDegenerate,
    SchemaError,
)

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "EstimatedDesign",
    "LimitFunctional",
    "bootstrap_ci",
    "estimate_design",
    "estimate_uniform_validity",
    "psi_apply",
    "psi_hat_build",
]

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
        b = _whole(self.b, 1)
        if b is None:
            raise InvalidDesign("b must be a positive whole number, got %r" % (self.b,))
        for name in ("alpha", "c0", "xi0"):
            value = getattr(self, name)
            if not isinstance(value, (float, numbers.Real)):  # float: no ABC lookup
                raise InvalidDesign(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidDesign("alpha must lie strictly between 0 and 1")
        if not (0 < self.c0 < math.inf and 0 < self.xi0 < math.inf):
            raise InvalidDesign("c0 and xi0 must be finite and positive")
        _store(self, b=b, alpha=float(self.alpha), c0=float(self.c0),
               xi0=float(self.xi0), seed=_root_seed(self.seed, InvalidDesign))

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
    instrumented ones.  The bootstrap resamples these counts directly;
    `counts` (rows per cell) and `n` are their sums.
    """

    design: CellTable
    joint: np.ndarray
    family: str
    counts: np.ndarray = dataclasses.field(init=False)
    n: int = dataclasses.field(init=False)

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=np.int64)
        shape = (self.design.k,) + (2,) * len(_arms(self.family))
        if joint.shape != shape:
            raise DimensionMismatch(f"joint counts must have shape {shape}")
        counts = joint.reshape(self.design.k, -1).sum(axis=1)
        _store(self, joint=joint, counts=counts, n=int(counts.sum()))


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
        _store(self, psi_set=tuple(_whole(i, 0) for i in self.psi_set),
               **{name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("coef_a", "coef_w0", "coef_p")})
        if not self.coef_a.shape == self.coef_w0.shape == self.coef_p.shape:
            raise DimensionMismatch("coef_w0 and coef_p must have the length of coef_a")
        if not self.psi_set:
            raise InvalidDesign("near-maximizer set is empty")
        if not all(i is not None and i < self.k for i in self.psi_set):
            raise InvalidDesign(f"near-maximizer cells must lie in 0..{self.k - 1}")

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
        return clip_share(self.p_hat)

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
    PropensityTable column ``p`` = P(D=1|X).  Arms are indexed and added,
    not reduced; whole counts add exactly and divide as their floats."""
    d0, d1 = joint[..., 0], joint[..., 1]
    rows = d0 + d1
    seen = np.minimum(d0, d1)
    if seen.all():  # both arms in every cell
        return rows / n, {"p": d1 / rows}
    px = d1 / np.maximum(rows, 1.0)
    px[seen == 0] = np.nan  # undefined in a cell with an empty arm
    return rows / n, {"p": px}


def _instrument_columns(joint, n):
    """Counts ``(..., k, 2, 2)`` by (z, d) -> cell masses and the
    IvCellTable columns.  The complier share is the first-stage
    difference ``P(D=1|Z=1) - P(D=1|Z=0)``, clipped at zero when sampling
    noise turns it negative.  Each column is made in one array, in place;
    the rounding is that of the plain expressions in the comments."""
    z0d1, z1d1 = joint[..., 0, 1], joint[..., 1, 1]
    z0 = joint[..., 0, 0] + z0d1
    z1 = joint[..., 1, 0] + z1d1
    rows = z0 + z1
    safe_rows = np.maximum(rows, 1.0)
    pz = z1 / safe_rows
    # z1d1 / safe_rows - ((z0d1 + z1d1) / safe_rows) * pz
    cov = (z0d1 + z1d1) / safe_rows
    cov *= pz
    np.subtract(z1d1 / safe_rows, cov, out=cov)
    # min(max(z1d1 / max(z1, 1) - z0d1 / max(z0, 1), 0), 1)
    pc = z1d1 / np.maximum(z1, 1.0)
    pc -= z0d1 / np.maximum(z0, 1.0)
    np.minimum(np.maximum(pc, 0.0, out=pc), 1.0, out=pc)
    # undefined in an empty cell, and pc in a cell with an empty arm
    unseen = rows == 0
    pz[unseen] = np.nan
    cov[unseen] = np.nan
    pc[np.minimum(z0, z1) == 0] = np.nan
    return rows / n, {"pz": pz, "cov_dz": cov, "pc": pc}


# Primitive tables that micro data estimate: the sample columns whose
# values index the count axes after the cell axis, and the estimator of
# the table's columns from those counts.
_FROM_COUNTS = {
    PropensityTable: (("d",), _propensity_columns),
    IvCellTable: (("z", "d"), _instrument_columns),
}

ESTIMABLE = tuple(name for name, fam in ESTIMAND_FAMILIES.items()
                  if fam.primitive in _FROM_COUNTS)


def _arms(family):
    """The count columns of a family in ESTIMABLE, else InvalidDesign."""
    if family not in ESTIMABLE:
        raise InvalidDesign(
            "unknown family %r; expected one of %s" % (family, ", ".join(ESTIMABLE)))
    return _FROM_COUNTS[ESTIMAND_FAMILIES[family].primitive][0]


def _theta(joint, n, family):
    """Cell counts -> (p, a, w0, ok_a, ok_w0) for a family in ESTIMABLE.

    Leading axes of `joint` vectorize over bootstrap replications.  A
    column whose within-cell frequency is undefined (an empty cell or
    arm) is NaN, so the weights and memberships built from it are
    flagged False in `ok_a` and `ok_w0`.
    """
    fam = ESTIMAND_FAMILIES[family]
    # whole counts add exactly and divide as their floats, so integer
    # counts give the bits of float ones without a float copy of them
    p, columns = _FROM_COUNTS[fam.primitive][1](np.asarray(joint), n)
    a, w0 = fam.weights(**columns)
    return p, a, w0, a == a, w0 == w0  # False exactly at NaN


def estimate_design(sample, family):
    """Estimate the weighted-design cell table from micro data.

    Cells are the sample's distinct labels, in code-point order.
    Every cell must contain both treatment arms (both instrument arms
    for the instrumented families); otherwise the within-cell
    frequencies the weights are built from are undefined.

    Parameters
    ----------
    sample : MicroSample
        Rows with a cell code into `labels`, treatment `d`, and — for
        the families built from an IvCellTable — instrument `z`.
    family : str
        A name in ``ESTIMABLE``.

    Returns
    -------
    EstimatedDesign

    Raises
    ------
    InvalidDesign
        If `family` is not in ``ESTIMABLE``.
    EmptyCellArm
        If some cell lacks an arm the family's weights condition on.
    SchemaError
        If the instrumented families are requested without a `z` column.
    NoCompliers
        If every cell's estimated complier share is zero.
    """
    arms = _arms(family)
    labels = sample.labels
    k = labels.shape[0]
    columns = [getattr(sample, arm) for arm in arms]
    if any(c is None for c in columns):
        raise SchemaError("family %r requires an instrument column z" % family)
    # each row's index into the (cell, *arms) counts
    cell = sample.codes.astype(np.intp)
    for c in columns:
        cell *= 2
        cell += c
    joint = np.bincount(cell, minlength=k * 2 ** len(arms)).reshape(
        (k,) + (2,) * len(arms))
    # both values of the first arm must occur in every cell, as they do
    # where every count is positive
    if not joint.all():
        seen = joint.reshape(k, 2, -1).any(axis=2)
        if not seen.all():
            bad = (~seen.all(axis=1)).nonzero()[0]
            raise EmptyCellArm("cell %r has rows for only one %s arm" % (
                str(labels[bad[0]]),
                "instrument" if arms[0] == "z" else "treatment"))
    p, a, w0 = _theta(joint, sample.n, family)[:3]
    return EstimatedDesign(_weighted_design(tuple(labels.tolist()), p, a, w0),
                           joint, family)


def _untrimmed(ed, cfg):
    """Which cells' estimated membership clears the trimming threshold."""
    return ed.design.w0 > cfg.c_n(ed.n)


def _trimmed_labels(ed, keep):
    """The labels of the cells `keep` leaves out, in cell order."""
    return [label for label, kept in zip(ed.design.labels, keep.tolist())
            if not kept]


def _plug_in(ed, cfg):
    """The untrimmed cells, the share estimate and its directional
    derivative, from one evaluation of the trimmed maximum weight."""
    d = ed.design
    keep = _untrimmed(ed, cfg)
    a_max = float(d.a.max(where=keep, initial=-math.inf))  # a is finite
    if a_max == -math.inf:
        raise AllCellsTrimmed(
            "every cell's estimated membership is at or below the trimming "
            "threshold %.4g" % cfg.c_n(ed.n)
        )
    if a_max <= 0.0:
        raise DegenerateWeights("largest untrimmed weight is not positive")
    w0_p = d.w0 * d.p
    num = float((d.p * d.a * d.w0).sum())
    den = float(w0_p.sum())
    e_a = num / den
    scale = den * a_max
    centred = d.a - e_a
    near = keep & (d.a >= a_max - cfg.xi_n(ed.n))
    lf = LimitFunctional(
        coef_a=w0_p / scale,
        coef_w0=centred * d.p / scale,
        coef_p=centred * d.w0 / scale,
        coef_max=e_a / a_max**2,
        psi_set=tuple(near.nonzero()[0].tolist()),
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
    z = _reals(z, InvalidDesign, "perturbation values must be numbers")
    if z.ndim not in (2, 3) or z.shape[-2:] != (3, lf.k):
        raise DimensionMismatch(
            "expected a perturbation of shape (3, %d) or (m, 3, %d), got %s"
            % (lf.k, lf.k, z.shape)
        )
    za, zw, zp = z[..., 0, :], z[..., 1, :], z[..., 2, :]
    psi = lf.psi_set  # the max of one cell is that cell, -0.0 or NaN too
    kink = za[..., psi[0]] if len(psi) == 1 else za[..., list(psi)].max(axis=-1)
    value = za @ lf.coef_a - lf.coef_max * kink + zw @ lf.coef_w0 + zp @ lf.coef_p
    return float(value) if z.ndim == 2 else value


def _quantile(draws, alpha):
    """``float(np.quantile(draws, alpha))``: one partition on numpy's own
    kth set, so tied -0.0 and 0.0 land where they land there, and its
    linear interpolation, for a float alpha.  One draw goes to numpy."""
    b = draws.shape[0]
    if b == 1:
        return float(np.quantile(draws, alpha))
    v = (b - 1) * alpha
    i = int(v)
    part = np.partition(draws, sorted({-1, 0, i, i + 1}))
    if np.isnan(part[-1]):
        return float(part[-1])
    lo, hi, t = part[i], part[i + 1], v - i
    return float(hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t)


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
    step = max(1, _BLOCK_FIELDS // pvals.size)
    for _ in range(_MAX_REDRAW_ROUNDS):
        m = pending.shape[0]
        # the good replicates' perturbations, filled block by block and
        # evaluated at once; the multinomial draws rows in order, so the
        # blocks draw what one call would.  Each coordinate's rows are
        # contiguous, so that a block is written in three runs
        z = np.empty((3, m, d.k))
        good = np.empty(m, dtype=bool)
        filled = 0
        for lo in range(0, m, step):
            size = min(step, m - lo)
            cnt = rng.multinomial(n, pvals, size=size).reshape(
                (size,) + ed.joint.shape)
            p, a, w0, ok_a, ok_w0 = _theta(cnt, n, family)
            # a coordinate falls back only where it is undefined
            defined = np.count_nonzero(ok_a) + np.count_nonzero(ok_w0)
            if defined < 2 * ok_a.size:
                a = np.where(ok_a, a, d.a)
                w0 = np.where(ok_w0, w0, d.w0)
            # each good replicate's largest untrimmed weight, in `top`
            untrimmed = w0 > c
            if np.count_nonzero(untrimmed) == untrimmed.size:
                ok, count, top = True, size, a
            else:
                ok = untrimmed.any(axis=1)
                count = int(np.count_nonzero(ok))
                top = np.where(untrimmed, a, -np.inf)
            good[lo:lo + size] = ok
            if count < size:
                p, a, w0, ok_a, ok_w0, top = (
                    v[ok] for v in (p, a, w0, ok_a, ok_w0, top))
                defined = np.count_nonzero(ok_a) + np.count_nonzero(ok_w0)
            out = z[:, filled:filled + count]
            np.subtract(a, d.a, out=out[0])
            np.subtract(w0, d.w0, out=out[1])
            np.subtract(p, d.p, out=out[2])
            out *= root_n
            filled += count
            fallback += 2 * ok_a.size - int(defined)
            unstable += count - int(np.count_nonzero(in_psi[top.argmax(axis=1)]))
        draws[pending if filled == m else pending[good]] = psi_apply(
            lf, z[:, :filled].transpose(1, 0, 2))
        if filled == m:
            break
        redraws += m - filled
        pending = pending[~good]
    else:
        raise ResampleDegenerate(
            "resampling kept losing every untrimmed cell after %d rounds"
            % _MAX_REDRAW_ROUNDS
        )

    q_alpha = _quantile(draws, cfg.alpha)
    upper = clip_share(p_hat - q_alpha / root_n)
    diagnostics = {
        "trimmed_cells": _trimmed_labels(ed, keep),
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

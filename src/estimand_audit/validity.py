"""Existence checks and sharp subpopulation-size measures.

Two questions about a weighted estimand mu(a, tau) are answered here:

1. *Existence*: is there any subpopulation whose average effect the
   estimand reproduces — for every CATE function (uniform), for the given
   one (fixed), or for intermediate function classes (linear CATEs,
   bounded differences)?
2. *Size*: among subpopulations that work, how large can the biggest one
   be, both conditional on the base subpopulation (`p_internal`) and
   unconditionally (`p_representative`)?

The fixed-CATE program is solved three independent ways — a closed form,
an iterative mass-reduction algorithm, and a brute-force enumerator — so
each can certify the others in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import (
    CellTable,
    SubpopulationRule,
    _as_float_array,
    _masses,
    _store,
    mu,
    normalize_sign,
)
from .errors import (
    AuditError,
    InfeasibleProgram,
    InstanceTooLarge,
    InvalidDesign,
    MissingNumericLabels,
    MissingTau,
    NegativeBound,
)

__all__ = [
    "TauSample",
    "TrimSolution",
    "ValidityReport",
    "adversarial_sign_check",
    "check_bounded_difference_existence",
    "check_fixed_existence",
    "check_linear_cate_existence",
    "check_uniform_existence",
    "check_weakly_causal",
    "fixed_tau_bruteforce",
    "fixed_tau_internal_validity",
    "fixed_tau_lp",
    "uniform_internal_validity",
]

NEG_TOL = 1e-12  # weights above -NEG_TOL count as nonnegative


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a subpopulation-size audit.

    `p_internal` is the maximal subpopulation share conditional on the
    base subpopulation; `p_representative` rescales it by P(W0=1).  When
    no causal representation exists both are zero and `inclusion` is
    None; otherwise `inclusion` realizes the maximal subpopulation.
    """

    exists: bool
    p_internal: float
    p_representative: float
    a_max: float
    inclusion: SubpopulationRule | None = None

    def to_json_dict(self):
        return {
            "exists": self.exists,
            "p_internal": self.p_internal,
            "p_representative": self.p_representative,
            "a_max": None if math.isnan(self.a_max) else self.a_max,
            "inclusion": None
            if self.inclusion is None
            else [float(v) for v in self.inclusion.inclusion],
        }


@dataclass(frozen=True)
class TauSample:
    """Empirical CATE distribution conditional on the base subpopulation:
    values with matching probability masses.  `pop_w0` carries P(W0=1)
    when known so representativeness can be reported."""

    values: np.ndarray
    masses: np.ndarray
    pop_w0: float = 1.0

    def __post_init__(self):
        values = _as_float_array(self.values, "values")
        masses = _masses(self.masses, "masses", len(values))
        _store(self, values=values, masses=masses, pop_w0=float(self.pop_w0))


@dataclass(frozen=True)
class TrimSolution:
    """How the maximal fixed-CATE subpopulation is carved out of the base
    subpopulation: which tail of the centered effect tau - mu0 is dropped
    (`direction`), the threshold on that centered scale (`alpha`), the
    kept share, and the partial inclusion applied at the threshold atom."""

    direction: str  # "above", "below", or "none"
    alpha: float
    kept_mass: float
    atom_fraction: float
    e0: float

    def to_json_dict(self):
        return {
            "direction": self.direction,
            "alpha": None if math.isnan(self.alpha) else self.alpha,
            "kept_mass": self.kept_mass,
            "atom_fraction": self.atom_fraction,
            "e0": self.e0,
        }


# ---------------------------------------------------------------------------
# existence checks
# ---------------------------------------------------------------------------


def check_uniform_existence(design):
    """True iff some subpopulation average matches the estimand for *every*
    CATE function — equivalently, the weights are nonnegative on the base
    subpopulation."""
    design = normalize_sign(design)
    sub = design.w0_mass > 0
    return bool(np.all(design.a[sub] >= -NEG_TOL))


def check_weakly_causal(design):
    """Alias of :func:`check_uniform_existence`: an estimand admits only
    effect averages with correctly-signed contributions exactly when its
    weights are nonnegative."""
    return check_uniform_existence(design)


def adversarial_sign_check(design):
    """Value of the estimand against the worst-case CATE 1(a < 0).

    Zero when the weights are nonnegative on the base subpopulation;
    strictly negative otherwise, exhibiting a nonnegative effect function
    the estimand maps to a negative number.
    """
    design = normalize_sign(design)
    witness = (design.a < 0).astype(float)
    m = design.w0_mass
    return float((design.a * witness * m).sum() / (design.a * m).sum())


def _conditional_tau(design, *, context="the fixed-CATE audit"):
    """CATE values and masses conditional on W0=1, validating presence."""
    sub = design.w0_mass > 0
    if design.tau is None or np.any(np.isnan(design.tau[sub])):
        raise MissingTau(f"tau is required on every base-subpopulation cell "
                         f"for {context}")
    q = design.w0_mass[sub]
    return design.tau[sub], q / q.sum(), sub


def _hull_tol(values, mu0):
    return 1e-12 * max(1.0, float(np.max(np.abs(values))), abs(mu0))


def _in_hull(values, mu0):
    """Whether mu0 lies in the range of `values`, up to `_hull_tol`.  A mu0
    that is not finite never does (its tolerance would be infinite)."""
    tol = _hull_tol(values, mu0)
    return math.isfinite(mu0) and values.min() - tol <= mu0 <= values.max() + tol


def check_fixed_existence(design, mu0=None):
    """True iff the estimand value lies in the convex hull of the CATE
    values on the base subpopulation (a representation exists for this
    particular tau)."""
    values, _, _ = _conditional_tau(design, context="the existence check")
    if mu0 is None:
        mu0 = mu(design)
    return bool(_in_hull(values, mu0))


def check_linear_cate_existence(design):
    """Existence when CATEs are only known to be linear in x: the
    weight-barycenter E[a x|W0=1]/E[a|W0=1] must lie in the convex hull
    of the base-subpopulation support points."""
    if design.x is None:
        raise MissingNumericLabels(
            "numeric cell labels are required for the linear-CATE check"
        )
    design = normalize_sign(design)
    sub = design.w0_mass > 0
    x = np.atleast_2d(design.x.T).T  # (K, d)
    m = design.w0_mass
    bary = (design.a * m) @ x / float((design.a * m).sum())
    pts = x[sub]
    if pts.shape[1] == 1:
        lo, hi = float(pts.min()), float(pts.max())
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        return bool(lo - tol <= bary[0] <= hi + tol)
    from scipy.optimize import linprog

    res = linprog(
        c=np.zeros(pts.shape[0]),
        A_eq=np.vstack([pts.T, np.ones(pts.shape[0])]),
        b_eq=np.append(bary, 1.0),
        bounds=(0, None),
        method="highs",
    )
    return bool(res.status == 0)


def check_bounded_difference_existence(design, k_bound):
    """Existence when CATE differences are bounded by k_bound: vacuously
    true at k_bound = 0, identical to the uniform check for any positive
    bound."""
    if k_bound < 0:
        raise NegativeBound("the CATE-difference bound must be nonnegative")
    if k_bound == 0:
        return True
    return check_uniform_existence(design)


# ---------------------------------------------------------------------------
# subpopulation-size measures
# ---------------------------------------------------------------------------


def uniform_internal_validity(design):
    """Sharp size of the largest subpopulation whose average effect the
    estimand reproduces for every CATE function.

    With nonnegative weights the maximizer includes each cell with
    probability a_k / max a, giving share E[a|W0=1] / max a; with any
    negative weight no subpopulation works and the share is zero.
    """
    design = normalize_sign(design)
    sub = design.w0_mass > 0
    a_max = float(design.a[sub].max())
    if not check_uniform_existence(design):
        return ValidityReport(False, 0.0, 0.0, a_max, None)
    a = np.clip(design.a, 0.0, None)
    p_internal = float((a[sub] * design.w0_mass[sub]).sum()
                       / design.w0_mass[sub].sum() / a_max)
    inclusion = np.clip(a / a_max, 0.0, 1.0)
    inclusion[~sub] = 0.0
    return ValidityReport(
        exists=True,
        p_internal=p_internal,
        p_representative=p_internal * design.pop_w0,
        a_max=a_max,
        inclusion=SubpopulationRule(inclusion),
    )


def _trim_ascending(t, q):
    """Largest sub-distribution of (t, q) with nonpositive mean zero.

    Assumes sum(t*q) > 0.  Returns (alpha, kept, atom_fraction,
    per-value inclusion): full inclusion strictly below alpha, fraction
    at the alpha atom, none above.
    """
    distinct, inverse = np.unique(t, return_inverse=True)
    masses = np.bincount(inverse, weights=q)
    cum = np.cumsum(distinct * masses)
    crossing = np.flatnonzero((distinct > 0) & (cum >= 0))
    j = int(crossing[0])
    alpha = float(distinct[j])
    before = float(cum[j - 1]) if j > 0 else 0.0
    atom_fraction = min(1.0, max(0.0, -before / (alpha * masses[j])))
    kept = float(q[inverse < j].sum() + atom_fraction * masses[j])
    inclusion = np.where(inverse < j, 1.0,
                         np.where(inverse == j, atom_fraction, 0.0))
    return alpha, kept, atom_fraction, inclusion


def fixed_tau_internal_validity(design_or_sample, mu0=None):
    """Sharp size of the largest subpopulation matching the estimand for
    the *given* CATE function.

    Accepts either a :class:`CellTable` with tau (mu0 defaults to the
    design's estimand) or a :class:`TauSample` with an explicit mu0.  The
    maximizer keeps the base subpopulation intact except for one tail of
    tau - mu0, cut at a threshold atom that may be kept fractionally.

    Returns a (:class:`ValidityReport`, :class:`TrimSolution`) pair.
    """
    if isinstance(design_or_sample, TauSample):
        sample = design_or_sample
        if mu0 is None:
            raise InvalidDesign("mu0 is required with a sample input")
        values, q, pop_w0 = sample.values, sample.masses, sample.pop_w0
        sub = None
        k_cells = len(values)
    elif isinstance(design_or_sample, CellTable):
        design = design_or_sample
        values, q, sub = _conditional_tau(design)
        if mu0 is None:
            mu0 = mu(design)
        pop_w0 = design.pop_w0
        k_cells = design.k
    else:
        raise TypeError("expected a CellTable or a TauSample")

    mu0 = float(mu0)
    e0 = float(values @ q)

    def package(p_internal, inclusion_values, trim):
        inclusion = None
        if inclusion_values is not None:
            if sub is None:
                full = inclusion_values
            else:
                full = np.zeros(k_cells)
                full[sub] = inclusion_values
            inclusion = SubpopulationRule(full)
        report = ValidityReport(
            exists=inclusion_values is not None,
            p_internal=p_internal,
            p_representative=p_internal * pop_w0,
            a_max=math.nan,
            inclusion=inclusion,
        )
        return report, trim

    if not _in_hull(values, mu0):
        direction = "above" if mu0 < e0 else "below"
        return package(
            0.0, None,
            TrimSolution(direction, math.nan, 0.0, 0.0, e0),
        )
    if abs(mu0 - e0) <= 1e-12 * max(1.0, abs(e0), abs(mu0)):
        return package(
            1.0, np.ones_like(values),
            TrimSolution("none", math.nan, 1.0, 1.0, e0),
        )
    if mu0 < e0:
        alpha, kept, frac, inclusion = _trim_ascending(values - mu0, q)
        trim = TrimSolution("above", alpha, kept, frac, e0)
    else:
        alpha, kept, frac, inclusion = _trim_ascending(mu0 - values, q)
        trim = TrimSolution("below", -alpha, kept, frac, e0)
    return package(kept, inclusion, trim)


def fixed_tau_lp(design, mu0):
    """Iterative solution of the fixed-CATE size program

        max sum f_k   s.t.  0 <= f_k <= q_k,  sum (tau_k - mu0) f_k = 0,

    by repeatedly zeroing the cell of the over-weighted tail and solving
    the scalar balance equation at the boundary cell.  Agrees with the
    closed form and the brute-force enumerator to 1e-10.

    The cells still at capacity form one run [lo, hi] of the sorted
    order: all start there, each step changes only an end of the run,
    and a cell that leaves it is never picked again."""
    values, q, _ = _conditional_tau(design, context="the size program")
    mu0 = float(mu0)
    if not _in_hull(values, mu0):
        raise InfeasibleProgram(
            f"mu0={mu0!r} lies outside the CATE range "
            f"[{values.min()!r}, {values.max()!r}]"
        )
    order = np.argsort(values, kind="stable")
    t = values[order] - mu0
    q = q[order]
    f = q.copy()
    s_tol = 1e-12 * max(1.0, float(np.abs(t) @ q))
    lo, hi = 0, len(t) - 1
    for _ in range(len(t) + 2):
        s = float(t @ f)
        if abs(s) <= s_tol:
            return float(f.sum())
        if lo > hi:
            break
        if s > 0:
            k = hi  # top cell still at capacity
            f[k] = max(0.0, -float(t[:k] @ f[:k]) / t[k])
            if f[k] != q[k]:
                hi -= 1
        else:
            k = lo  # bottom cell still at capacity
            f[k] = max(0.0, -float(t[k + 1:] @ f[k + 1:]) / t[k])
            if f[k] != q[k]:
                lo += 1
    raise AuditError("the mass-reduction iteration failed to converge")


def fixed_tau_bruteforce(design, mu0):
    """Exhaustive solution of the same box program for small designs.

    A vertex of the feasible set has at most one coordinate strictly
    between its bounds, so every {0, q_k} pattern is tried with every
    candidate interior coordinate.  Intended as an oracle; K <= 12.
    """
    values, q, _ = _conditional_tau(design, context="the size program")
    k = len(values)
    if k > 12:
        raise InstanceTooLarge(
            "brute-force enumeration is capped at 12 cells"
        )
    t = values - float(mu0)
    tol = 1e-12 * max(1.0, float(np.abs(t) @ q))
    masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    base = masks @ (t * q)
    mass = masks @ q
    exact = np.abs(base) <= tol
    best = float(mass[exact].max()) if exact.any() else 0.0
    for i in range(k):
        if t[i] == 0.0:
            continue  # free coordinate: full mass, covered by the masks
        rows = masks[:, i] == 0
        f_i = -base[rows] / t[i]
        feasible = (f_i >= -tol) & (f_i <= q[i] + tol)
        if feasible.any():
            cand = mass[rows][feasible] + np.clip(f_i[feasible], 0.0, q[i])
            best = max(best, float(cand.max()))
    return best

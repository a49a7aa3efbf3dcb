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
each can certify the others in the test suite.  The first two cost
O(K log K); the mass reduction skips only steps that no rounding can
change, so it keeps the bits of its step-by-step loop.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cells import (
    SubpopulationRule,
    _conditional_tau,
    _mean,
    _weight_scale,
    mu,
    normalize_sign,
)
from .errors import (
    AuditError,
    InstanceTooLarge,
    MissingNumericLabels,
    NegativeBound,
    NonFiniteResult,
)

__all__ = [
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

NEG_TOL = 1e-12  # weights above -NEG_TOL * mean |a| count as nonnegative
BRUTE_FORCE_LIMIT = 12  # cells; the enumeration visits 2**K patterns


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
            else self.inclusion.inclusion.tolist(),
        }


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
    return bool(np.all(design.a[sub] >= -NEG_TOL * _weight_scale(design)))


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
    return _mean((design.a < 0).astype(float), design.a * design.w0_mass)


def check_fixed_existence(design, mu0=None):
    """True iff the given-tau program keeps a positive share: a
    representation exists for this particular tau, as mu0 lies in tau's
    range up to the balance tolerance (see `_program`)."""
    return _program(design, mu0).inside


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
        b = float(bary[0])  # in the range of x, up to 1e-12 of max |x|, |b|
        tol = 1e-12 * max(float(np.max(np.abs(pts))), abs(b))
        return bool(math.isfinite(b) and pts.min() - tol <= b <= pts.max() + tol)
    try:
        from scipy.optimize import linprog
    except ImportError:
        raise AuditError("the linear-CATE check needs scipy for labels of "
                         "dimension 2 or more") from None

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
    p_internal = _mean(a[sub], design.w0_mass[sub]) / a_max
    inclusion = np.clip(a / a_max, 0.0, 1.0)
    inclusion[~sub] = 0.0
    return ValidityReport(
        exists=True,
        p_internal=p_internal,
        p_representative=p_internal * design.pop_w0,
        a_max=a_max,
        inclusion=SubpopulationRule(inclusion),
    )


def _trim_ascending(t, q, tol):
    """Largest sub-distribution of (t, q) that the balance test passes:
    whole atoms of t, ascending, while sum(t*q) stays within tol, then a
    fraction of the next atom only to bring the sum to zero.

    Assumes sum(t*q) > tol.  Returns (alpha, kept, atom_fraction,
    per-value inclusion): full inclusion strictly below alpha, fraction
    at the alpha atom, none above.
    """
    distinct, inverse = np.unique(t, return_inverse=True)
    masses = np.bincount(inverse, weights=q)
    cum = np.cumsum(distinct * masses)
    crossing = np.flatnonzero((distinct > 0) & (cum > tol))
    if not len(crossing):  # rounding left every atom within tol
        return math.nan, 1.0, 1.0, np.ones_like(t)
    j = int(crossing[0])
    alpha = float(distinct[j])
    before = float(cum[j - 1]) if j > 0 else 0.0
    atom_fraction = min(1.0, max(0.0, -before / (alpha * masses[j])))
    kept = float(q[inverse < j].sum() + atom_fraction * masses[j])
    inclusion = np.where(inverse < j, 1.0,
                         np.where(inverse == j, atom_fraction, 0.0))
    return alpha, kept, atom_fraction, inclusion


_Program = namedtuple("_Program", "values q sub mu0 t scale tol inside")


def _program(design, mu0):
    """The given-tau program that the three solvers share, of a design
    (mu0 defaults to its estimand): the effects on the base subpopulation
    (`values`) with their conditional masses `q`, the mask of the cells
    they sit in (`sub`), the centred effects t = values - mu0, `scale` =
    |t| @ q, the one tie and balance tolerance `tol` = 1e-12 (E|tau| +
    |mu0|), the size of the program's sums, which covers the rounding of
    tau - mu0 and ignores an outlier without mass, and whether a positive
    share is kept (`inside`): mu0 is finite, and t has both signs (or a
    zero) or the atom of t nearest zero is within tol; an `inside` t that
    overflows is a :class:`NonFiniteResult`."""
    values, q, sub = _conditional_tau(design)
    mu0 = float(mu(design) if mu0 is None else mu0)
    t = values - mu0
    tol = 1e-12 * _mean(np.abs(values), q) + 1e-12 * abs(mu0)
    lo, hi = t.min(), t.max()
    near = lo if lo > 0 else hi  # the t nearest zero if t has one sign
    inside = math.isfinite(mu0) and (
        lo <= 0 <= hi or abs(near) * np.bincount(t == near, q)[1] <= tol)
    if inside and not np.isfinite(t).all():
        raise NonFiniteResult(f"tau - mu0 overflows at mu0={mu0!r}")
    return _Program(values, q, sub, mu0, t, float(np.abs(t) @ q), tol,
                    bool(inside))


def fixed_tau_internal_validity(design, mu0=None):
    """Sharp size of the largest subpopulation matching the estimand for
    the *given* CATE function of a design with tau; mu0 defaults to the
    design's estimand.  The maximizer keeps the base subpopulation intact
    except for one tail of tau - mu0, cut at a threshold atom that may be
    kept fractionally.

    Returns a (:class:`ValidityReport`, :class:`TrimSolution`) pair.
    """
    prog = _program(design, mu0)
    values, mu0, t = prog.values, prog.mu0, prog.t
    e0 = _mean(values, prog.q)
    inclusion = None
    if not prog.inside:
        kept = 0.0
        trim = TrimSolution("above" if mu0 < e0 else "below", math.nan,
                            0.0, 0.0, e0)
    elif abs(mu0 - e0) <= prog.tol:  # the balance test at f = q
        kept, inclusion = 1.0, np.ones_like(values)
        trim = TrimSolution("none", math.nan, 1.0, 1.0, e0)
    elif mu0 < e0:
        alpha, kept, frac, inclusion = _trim_ascending(t, prog.q, prog.tol)
        trim = TrimSolution("above", alpha, kept, frac, e0)
    else:
        alpha, kept, frac, inclusion = _trim_ascending(-t, prog.q, prog.tol)
        trim = TrimSolution("below", -alpha, kept, frac, e0)
    rule = None
    if inclusion is not None:
        full = np.zeros(len(prog.sub))
        full[prog.sub] = inclusion
        rule = SubpopulationRule(full)
    report = ValidityReport(exists=rule is not None, p_internal=kept,
                            p_representative=kept * design.pop_w0,
                            a_max=math.nan, inclusion=rule)
    return report, trim


def _decided_steps(t, q, scale, s_tol):
    """How many leading steps of `fixed_tau_lp` zero the top cell of the
    ascending (t, q) in any summation order, FMA or thread count: each
    needs t @ f > s_tol, t[:k] @ q[:k] >= 0, t[k] > 0 and q[k] > 0, and a
    dot product, like the cumsum here, is within gamma_K * |t| @ q plus K
    half-subnormals of exact; `margin` covers both with room to spare.  A
    NaN, inf or near-overflow scale decides nothing."""
    if not scale < 2.0**1020:
        return 0
    margin = len(t) * (scale * 2.0**-50 + 2.0**-1071)
    ok = np.cumsum(t * q) - margin > s_tol
    decided = ok[1:] & ok[:-1] & (t[1:] > 0) & (q[1:] > 0)
    return int(np.argmin(np.append(decided[::-1], False)))


def fixed_tau_lp(design, mu0):
    """Iterative solution of the fixed-CATE size program

        max sum f_k   s.t.  0 <= f_k <= q_k,  sum (tau_k - mu0) f_k = 0,

    by repeatedly zeroing the cell of the over-weighted tail and solving
    the scalar balance equation at the boundary cell.  As the closed form
    does, it stops within tol only between atoms of tau, else at zero.

    The cells still at capacity form one run [lo, hi] of the sorted
    order: all start there, each step changes only an end of the run,
    and a cell that leaves it is never picked again.  A step costs O(K),
    but the leading ones that zero their cell whatever the rounding
    (`_decided_steps`) are taken at once: O(K log K), the same bits.  A
    program that is not `inside` gives 0.0, as the closed form does."""
    prog = _program(design, mu0)
    if not prog.inside:
        return 0.0
    s_tol = prog.tol
    order = np.argsort(prog.values, kind="stable")
    t, q = prog.t[order], prog.q[order]
    f = q.copy()
    top = _decided_steps(t, q, prog.scale, s_tol)
    bottom = _decided_steps(-t[::-1], q[::-1], prog.scale, s_tol)
    f[len(t) - top:] = 0.0
    f[:bottom] = 0.0
    lo, hi, tied = bottom, len(t) - 1 - top, False
    for _ in range(len(t) + 2 - top - bottom):
        s = float(t @ f)
        if abs(s) <= s_tol and (s == 0.0 or not tied):
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
        tied = f[k] == 0.0 and lo <= hi and t[k] in (t[lo], t[hi])  # atom cut
    raise AuditError("the mass-reduction iteration failed to converge")


def fixed_tau_bruteforce(design, mu0):
    """Exhaustive solution of the same box program for small designs.

    A vertex of the feasible set has at most one coordinate strictly
    between its bounds, so every {0, q_k} pattern is tried with every
    candidate interior coordinate.  An oracle for up to BRUTE_FORCE_LIMIT
    base-subpopulation cells; more raise :class:`InstanceTooLarge`.  A
    program that is not `inside` gives 0.0, as the closed form does.
    """
    prog = _program(design, mu0)
    t, q, tol = prog.t, prog.q, prog.tol
    k = len(t)
    if k > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(
            "brute-force enumeration is capped at %d cells" % BRUTE_FORCE_LIMIT
        )
    if not prog.inside:
        return 0.0
    masks = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    base = masks @ (t * q)
    mass = masks @ q
    exact = np.abs(base) <= tol
    best = float(mass[exact].max()) if exact.any() else 0.0
    for i in range(k):
        if t[i] == 0.0:
            continue  # free coordinate: full mass, covered by the masks
        rows = masks[:, i] == 0
        with np.errstate(over="ignore"):  # an infinite f_i is clipped
            f_i = -base[rows] / t[i]  # to a bound it does not balance
        kept = np.clip(f_i, 0.0, q[i])
        feasible = np.abs(t[i] * (kept - f_i)) <= tol  # the clip's imbalance
        if feasible.any():
            best = max(best, float((mass[rows] + kept)[feasible].max()))
    return best

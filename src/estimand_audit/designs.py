"""Implied weight functions for the standard estimand families.

Each constructor maps a primitive description of the sampling design
(propensities, instrument distributions, staggered adoption shares) to the
:class:`~estimand_audit.cells.CellTable` of weights a(x) and base
subpopulation probabilities w0(x) that the corresponding regression
estimand implicitly averages over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cells import (
    MASS_TOL,
    CellTable,
    _as_float_array,
    _BadField,
    _infer_numeric_labels,
    _masses,
    _store,
    float_col,
    quoted,
    read_csv,
    text_col,
    write_csv,
)
from .errors import (
    InvalidDesign,
    NoCompliers,
    NoTreatedGroups,
    OverlapViolation,
    ParseError,
)

__all__ = [
    "GroupDistribution",
    "IvCellTable",
    "PanelCellTable",
    "PropensityTable",
    "iv_design",
    "ols_ate_design",
    "ols_att_design",
    "ols_atu_design",
    "tsls_design",
    "twfe_cdh_design",
    "twfe_gb_weights",
    "twfe_h_design",
]


class _LabelledTable:
    """CSV round trip of cell labels plus the float columns `_COLUMNS`."""

    def to_csv(self, path):
        write_csv(path, {"label": quoted(self.labels), **{
            name: getattr(self, name) for name in self._COLUMNS}})

    @classmethod
    def from_csv(cls, path):
        labels, *cols = read_csv(path, {
            "label": text_col, **dict.fromkeys(cls._COLUMNS, float_col)}).values()
        return cls(tuple(labels), *cols)


@dataclass(frozen=True)
class PropensityTable(_LabelledTable):
    """Per-cell treatment probabilities P(D=1|X=x) and covariate masses."""

    _COLUMNS = ("mass", "p")

    labels: tuple
    mass: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        k = len(labels)
        if k == 0:
            raise InvalidDesign("a propensity table needs at least one cell")
        mass = _masses(self.mass, "mass", k)
        p = _as_float_array(self.p, "p", k)
        if np.any(p <= 0) or np.any(p >= 1):
            raise OverlapViolation(
                "treatment probabilities must lie strictly inside (0, 1)"
            )
        _store(self, labels=labels, mass=mass, p=p)


@dataclass(frozen=True)
class IvCellTable(_LabelledTable):
    """Per-cell instrument propensity, treatment-instrument covariance and
    complier share for binary-instrument designs."""

    _COLUMNS = ("mass", "pz", "cov_dz", "pc")

    labels: tuple
    mass: np.ndarray
    pz: np.ndarray
    cov_dz: np.ndarray
    pc: np.ndarray

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        k = len(labels)
        if k == 0:
            raise InvalidDesign("an instrument table needs at least one cell")
        mass = _masses(self.mass, "mass", k)
        pz = _as_float_array(self.pz, "pz", k)
        cov_dz = _as_float_array(self.cov_dz, "cov_dz", k)
        pc = _as_float_array(self.pc, "pc", k)
        if np.any(pz <= 0) or np.any(pz >= 1):
            raise OverlapViolation(
                "instrument probabilities must lie strictly inside (0, 1)"
            )
        # |cov(D,Z|X)| <= sd(D)·sd(Z) <= 1/4 for binary D and Z
        if np.any(np.abs(cov_dz) > 0.25 + 1e-12):
            raise InvalidDesign("|cov_dz| cannot exceed 1/4 for binary D, Z")
        if np.any(pc < -MASS_TOL) or np.any(pc > 1 + MASS_TOL):
            raise InvalidDesign("complier shares must lie in [0, 1]")
        _store(self, labels=labels, mass=mass, pz=pz, cov_dz=cov_dz,
               pc=np.clip(pc, 0.0, 1.0))


@dataclass(frozen=True)
class GroupDistribution:
    """Distribution of staggered adoption groups over {2,…,T} ∪ {inf}."""

    t: int
    shares: dict

    def __post_init__(self):
        t = int(self.t)
        if t < 2:
            raise InvalidDesign("a panel needs at least two periods")
        shares = {}
        _as_float_array(list(dict(self.shares).values()), "share")
        for g, s in dict(self.shares).items():
            g = math.inf if (isinstance(g, float) and math.isinf(g)) else int(g)
            s = float(s)
            if s < -MASS_TOL:
                raise InvalidDesign("group shares must be nonnegative")
            if g is not math.inf and not 2 <= g <= t:
                raise InvalidDesign(f"group {g} outside {{2,…,{t}}} ∪ {{inf}}")
            shares[g] = max(s, 0.0)
        if abs(sum(shares.values()) - 1.0) > MASS_TOL:
            raise InvalidDesign("group shares must sum to 1")
        _store(self, t=t, shares=shares)

    def treated_groups(self):
        """Finite adoption periods with positive share, ascending."""
        return sorted(g for g, s in self.shares.items()
                      if s > 0 and g is not math.inf)

    @property
    def never_share(self):
        return self.shares.get(math.inf, 0.0)

    def f_cum(self, t):
        """P(G <= t), the treated share in period t."""
        return sum(s for g, s in self.shares.items() if g <= t)

    def e_d_given_g(self, g):
        """Time-average treatment E[D|G=g] = (T-g+1)/T, zero if never treated."""
        return 0.0 if g is math.inf else (self.t - g + 1) / self.t

    def e_d(self):
        """Overall treated share E[D] across groups and periods."""
        return sum(self.f_cum(t) for t in range(1, self.t + 1)) / self.t

    def to_csv(self, path):
        groups = sorted(self.shares, key=lambda g: (g is math.inf, g))
        write_csv(path, {"g": [_g_str(g) for g in groups],
                         "share": np.array([self.shares[g] for g in groups])})

    @classmethod
    def from_csv(cls, path):
        """Read `g,share` rows; the number of periods is taken to be the
        largest finite adoption period."""
        groups, share = read_csv(path, {"g": _group_col,
                                        "share": float_col}).values()
        shares = dict(zip(groups, share.tolist()))
        finite = [g for g in shares if g is not math.inf]
        if not finite:
            raise InvalidDesign(
                "cannot infer the number of periods without a finite group"
            )
        return cls(max(finite), shares)


@dataclass(frozen=True)
class PanelCellTable(CellTable):
    """Cell table whose cells carry staggered-adoption metadata."""

    groups: tuple = ()
    times: tuple | None = None

    @property
    def group_time(self):
        return tuple(zip(self.groups, self.times))


adoption_col = functools.partial(float_col, words={"never": math.inf})


def _group_col(values, name):
    """Distinct adoption periods; any infinite value means never treated."""
    groups = []
    for i, g in enumerate(adoption_col(values, name).tolist()):
        if not (math.isinf(g) or g.is_integer()):
            raise _BadField(i, ParseError, f"{name} must be a whole period "
                            f"or inf, got {values[i].strip()!r}")
        g = math.inf if math.isinf(g) else int(g)
        if g in groups:
            raise _BadField(i, ParseError, f"duplicated {name} {_g_str(g)}")
        groups.append(g)
    return groups


def _g_str(g):
    return "inf" if g is math.inf else str(g)


# ---------------------------------------------------------------------------
# regression families
# ---------------------------------------------------------------------------


def ols_ate_design(pt):
    """Full-population linear regression of Y on (1, D, X): averages CATEs
    with the conditional treatment variance p(x)(1-p(x))."""
    ones = np.ones(len(pt.labels))
    return CellTable(pt.labels, pt.mass, pt.p * (1 - pt.p), ones,
                     x=_infer_numeric_labels(pt.labels))


def ols_att_design(pt):
    """Same regression read as an estimand over the treated subpopulation:
    w0 = p(x), weights 1-p(x)."""
    return CellTable(pt.labels, pt.mass, 1.0 - pt.p, pt.p,
                     x=_infer_numeric_labels(pt.labels))


def ols_atu_design(pt):
    """Untreated-subpopulation reading; mirror of the treated case under
    the relabeling D -> 1-D."""
    return CellTable(pt.labels, pt.mass, pt.p, 1.0 - pt.p,
                     x=_infer_numeric_labels(pt.labels))


def iv_design(iv):
    """Noninteracted instrumental-variables estimand over compliers:
    w0 = complier share, weights var(Z|X) = pz(1-pz)."""
    if float(iv.mass @ iv.pc) <= 0:
        raise NoCompliers("no cell has a positive complier share")
    return CellTable(iv.labels, iv.mass, iv.pz * (1.0 - iv.pz), iv.pc,
                     x=_infer_numeric_labels(iv.labels))


def tsls_design(iv):
    """Two-stage least squares with interacted first stage: weights
    |cov(D,Z|X)| over the complier subpopulation."""
    if float(iv.mass @ iv.pc) <= 0:
        raise NoCompliers("no cell has a positive complier share")
    return CellTable(iv.labels, iv.mass, np.abs(iv.cov_dz), iv.pc,
                     x=_infer_numeric_labels(iv.labels))


# ---------------------------------------------------------------------------
# two-way fixed effects with staggered adoption
# ---------------------------------------------------------------------------


def twfe_cdh_design(gd):
    """Group-time decomposition of the two-way fixed-effects coefficient.

    Cells are (g, t) pairs with mass P(G=g)/T; the base subpopulation is
    the treated cells (g <= t) and the weight on cell (g, t) is
    1 - E[D|G=g] - P(G<=t) + E[D].  Weights may be negative.
    """
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


def twfe_h_design(gd):
    """Time-constant decomposition of the same coefficient: one cell per
    adoption group, w0(g) = E[D|G=g], and nonnegative weights
    a(g) = P(D=0|G=g) (P(D=0|P>=g) + P(D=1|P<g)).

    A never-treated cell (w0 = a = 0) is kept so cell masses still sum to
    one and P(W0=1) remains the overall treated share.
    """
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


def twfe_gb_weights(gd):
    """Alternative per-group weight formula

        a(k) = E[D] - E[D|G=k] + P(G>k) (1 - E[D|G>k]/E[D|G=k]),

    algebraically identical to the time-constant decomposition weights;
    kept as an independent cross-check."""
    finite = gd.treated_groups()
    if not finite:
        raise NoTreatedGroups("every unit is never-treated")
    ed = gd.e_d()
    out = []
    for k in finite:
        edk = gd.e_d_given_g(k)
        later = [g for g in gd.shares if g > k]
        p_later = sum(gd.shares[g] for g in later)
        val = ed - edk
        if p_later > 0:
            ed_later = sum(
                gd.shares[g] * gd.e_d_given_g(g) for g in later
            ) / p_later
            val += p_later * (1.0 - ed_later / edk)
        out.append(val)
    return np.asarray(out)

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
from itertools import chain

import numpy as np

from .cells import (
    MASS_TOL,
    CellTable,
    _as_float_array,
    _BadField,
    _clipped,
    _LabelledTable,
    _masses,
    _store,
    float_col,
    read_csv,
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
        _store(self, labels=labels, mass=mass, pz=pz, cov_dz=cov_dz,
               pc=_clipped(pc, "pc", "complier shares must lie in [0, 1]"))


@dataclass(frozen=True)
class GroupDistribution:
    """Distribution of staggered adoption groups over {2,…,T} ∪ {inf}, and
    the one adoption-period rule: T and every finite group are whole
    numbers, and any infinite group means never treated."""

    t: int
    shares: dict

    def __post_init__(self):
        raw = dict(self.shares)
        try:
            t, groups = float(self.t), [float(g) for g in raw]
        except (TypeError, ValueError):
            raise InvalidDesign("periods and groups must be numbers") from None
        if not (t.is_integer() and t >= 2):
            raise InvalidDesign(f"a panel needs a whole number of periods "
                                f">= 2, got {self.t!r}")
        t, shares = int(t), {}
        values = _as_float_array(list(raw.values()), "share").tolist()
        for key, g, s in zip(raw, groups, values):
            if not (math.isinf(g) or (g.is_integer() and 2 <= g <= t)):
                raise InvalidDesign(f"group {key!r} outside {{2,…,{t}}} ∪ {{inf}}")
            g = math.inf if math.isinf(g) else int(g)
            if g in shares:
                raise InvalidDesign(f"duplicated group {_g_str(g)}")
            if s < -MASS_TOL:
                raise InvalidDesign("group shares must be nonnegative")
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
        """P(G <= t), the treated share in period t, added left to right
        (builtin `sum` compensates float sums from Python 3.12 on)."""
        return functools.reduce(float.__add__, [
            s for g, s in self.shares.items() if g <= t], 0.0)

    def e_d_given_g(self, g):
        """Time-average treatment E[D|G=g] = (T-g+1)/T, zero if never treated."""
        return 0.0 if g is math.inf else (self.t - g + 1) / self.t

    def e_d(self):
        """Overall treated share E[D] across groups and periods."""
        return functools.reduce(float.__add__, map(
            self.f_cum, range(1, self.t + 1))) / self.t

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
    groups, seen = [], set()
    for i, g in enumerate(adoption_col(values, name).tolist()):
        if not (math.isinf(g) or g.is_integer()):
            raise _BadField(i, ParseError, f"{name} must be a whole period "
                            f"or inf, got {values[i].strip()!r}")
        g = math.inf if math.isinf(g) else int(g)
        if g in seen:
            raise _BadField(i, ParseError, f"duplicated {name} {_g_str(g)}")
        groups.append(g)
        seen.add(g)
    return groups


_group_col.whole_column = True  # the duplicate check reads every row


def _g_str(g):
    return "inf" if g is math.inf else str(g)


# ---------------------------------------------------------------------------
# regression families
# ---------------------------------------------------------------------------


def _column_design(table, family):
    """Design whose cells are the rows of `table`, weighted by `family`."""
    a, w0 = ESTIMAND_FAMILIES[family].weights(
        **{name: getattr(table, name) for name in table._COLUMNS[1:]})
    return _weighted_design(table.labels, table.mass, a, w0)


def _weighted_design(labels, mass, a, w0):
    """Design of a family's weights on a checked table's cells or on
    counts, where every cell has mass and each weight formula stays in
    its range (see `CellTable._weighted`); only w0 = pc can be zero in
    every cell."""
    if float(mass @ w0) <= 0:
        raise NoCompliers("no cell has a positive complier share")
    return CellTable._weighted(labels, mass, a, w0)


def ols_ate_design(pt):
    """Full-population linear regression of Y on (1, D, X): averages CATEs
    with the conditional treatment variance p(x)(1-p(x))."""
    return _column_design(pt, "ols_ate")


def ols_att_design(pt):
    """Same regression read as an estimand over the treated subpopulation:
    w0 = p(x), weights 1-p(x)."""
    return _column_design(pt, "ols_att")


def ols_atu_design(pt):
    """Untreated-subpopulation reading; mirror of the treated case under
    the relabeling D -> 1-D."""
    return _column_design(pt, "ols_atu")


def iv_design(iv):
    """Noninteracted instrumental-variables estimand over compliers:
    w0 = complier share, weights var(Z|X) = pz(1-pz)."""
    return _column_design(iv, "iv")


def tsls_design(iv):
    """Two-stage least squares with interacted first stage: weights
    |cov(D,Z|X)| over the complier subpopulation."""
    return _column_design(iv, "tsls")


# ---------------------------------------------------------------------------
# two-way fixed effects with staggered adoption
# ---------------------------------------------------------------------------


def _twfe_core(gd):
    """The table's groups, F(t) = P(G <= t) for t = 1..T, cumsum(F) and
    E[D]; every sum runs left to right, as in `f_cum` and `e_d`."""
    finite = gd.treated_groups()
    if not finite:
        raise NoTreatedGroups("every unit is never-treated")
    f = np.zeros(gd.t)
    for g, s in gd.shares.items():  # a never-treated group adds to no period
        f[min(g, gd.t + 1) - 1:] += s
    cum_f = np.cumsum(f)
    groups = finite + ([math.inf] if gd.never_share > 0 else [])
    return groups, f, cum_f, cum_f[-1] / gd.t


def twfe_cdh_design(gd):
    """Group-time decomposition of the two-way fixed-effects coefficient.

    Cells are (g, t) pairs with mass P(G=g)/T; the base subpopulation is
    the treated cells (g <= t) and the weight on cell (g, t) is
    1 - E[D|G=g] - P(G<=t) + E[D].  Weights may be negative.
    """
    groups, f, _, ed = _twfe_core(gd)
    a = (1.0 - np.array([gd.e_d_given_g(g) for g in groups]))[:, None] - f + ed
    times = tuple(range(1, gd.t + 1))
    w0 = np.array(groups, dtype=float)[:, None] <= np.array(times)
    suffixes = [f",t={t}" for t in times]
    return PanelCellTable(
        tuple([pre + sfx for pre in [f"g={_g_str(g)}" for g in groups]
               for sfx in suffixes]),
        np.repeat([gd.shares[g] / gd.t for g in groups], gd.t), a.ravel(),
        w0.ravel().astype(float),
        groups=tuple(chain.from_iterable([g] * gd.t for g in groups)),
        times=times * len(groups))


def twfe_h_design(gd):
    """Time-constant decomposition of the same coefficient: one cell per
    adoption group, w0(g) = E[D|G=g], and nonnegative weights
    a(g) = P(D=0|G=g) (P(D=0|P>=g) + P(D=1|P<g)).

    A never-treated cell (w0 = a = 0) is kept so cell masses still sum to
    one and P(W0=1) remains the overall treated share.
    """
    groups, f, cum_f, _ = _twfe_core(gd)
    g = np.array([k for k in groups if k is not math.inf])
    w0 = (gd.t - g + 1) / gd.t
    # F(g) + ... + F(T) left to right; a cum_f difference changes last bits
    after = np.array([np.cumsum(f[k - 1:])[-1] for k in g])
    a = (1.0 - w0) * ((1.0 - after / (gd.t - g + 1)) + cum_f[g - 2] / (g - 1))
    zeros = [0.0] * (len(groups) - len(g))
    return PanelCellTable(tuple(f"g={_g_str(k)}" for k in groups),
                          [gd.shares[k] for k in groups], [*a, *zeros],
                          [*w0, *zeros], groups=tuple(groups))


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


# ---------------------------------------------------------------------------
# the estimand families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimandFamily:
    """An estimand family: the table type its design is built from (and so
    the DgpSpec family it is defined on), its public builder and — when
    its cells are the table's rows — its weights: the table's columns
    after ``mass`` (keywords, any leading axes) -> arrays ``(a, w0)``."""

    primitive: type
    build: object
    weights: object = None


ESTIMAND_FAMILIES = {
    "ols_ate": EstimandFamily(PropensityTable, ols_ate_design,
                              lambda p: (p * (1 - p), np.ones_like(p))),
    "ols_att": EstimandFamily(PropensityTable, ols_att_design,
                              lambda p: (1.0 - p, p)),
    "ols_atu": EstimandFamily(PropensityTable, ols_atu_design,
                              lambda p: (p, 1.0 - p)),
    "iv": EstimandFamily(IvCellTable, iv_design,
                         lambda pz, cov_dz, pc: (pz * (1.0 - pz), pc)),
    "tsls": EstimandFamily(IvCellTable, tsls_design,
                           lambda pz, cov_dz, pc: (np.abs(cov_dz), pc)),
    "twfe_cdh": EstimandFamily(GroupDistribution, twfe_cdh_design),
    "twfe_h": EstimandFamily(GroupDistribution, twfe_h_design),
}

"""Micro-sample and panel CSV ingestion plus a seeded synthetic DGP
simulator used to validate the estimators.

CSV schemas (any number of leading ``#`` comment lines are skipped):

* micro sample: ``x,d[,z][,y]`` — cell label, binary treatment, optional
  binary instrument, optional outcome;
* panel: ``unit,g,y1,...,yT`` — unit id, first treated period (``inf`` for
  never treated), one outcome column per period.

The simulator families generate data whose identifying assumptions hold by
construction, and the specification carries enough structure to recover
the implied population design exactly for oracle comparisons.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cells import (
    _as_float_array,
    _BadField,
    _reals,
    _root_seed,
    _sample_size,
    _store,
    Coded,
    binary_col,
    float_col,
    read_csv,
    rng_stream,
    text_col,
    write_csv,
)
from .designs import (
    ESTIMAND_FAMILIES,
    GroupDistribution,
    IvCellTable,
    PropensityTable,
    adoption_col,
)
from .errors import (
    InvalidDesign,
    InvalidSpec,
    OverlapViolation,
    SchemaError,
    UnbalancedPanel,
)

__all__ = [
    "DgpSpec",
    "MicroSample",
    "PanelData",
    "load_micro",
    "load_panel",
    "panel_to_group_distribution",
    "simulate",
]


@dataclass(frozen=True, init=False)
class MicroSample:
    """Row-level sample: cell label, binary treatment, optional binary
    instrument and optional outcome.

    The labels are held factorized: `labels` are the distinct ones in
    code-point order, as `np.unique` sorts a str array, and `codes` holds
    each row's index into them in the smallest integer type that fits.
    `x`, the label of each row, is derived from the two.
    `MicroSample(x, d, z, y)` factorizes x once."""

    labels: np.ndarray
    codes: np.ndarray
    d: np.ndarray
    z: np.ndarray | None = None
    y: np.ndarray | None = None

    def __init__(self, x, d, z=None, y=None):
        x = np.asarray(x, dtype=str)
        if x.ndim != 1:
            raise SchemaError("x and d must be matching vectors")
        labels, codes = _factorize(x.tolist())
        if np.shape(d) != codes.shape:
            raise SchemaError("x and d must be matching vectors")
        if not codes.size:
            raise SchemaError("a sample needs at least one row")
        d = _bits(d, codes.shape, "treatment values must be 0 or 1")
        if z is not None:
            z = _bits(z, codes.shape, "instrument values must be 0 or 1")
        if y is not None:
            y = _reals(y, SchemaError, "outcome values must be numbers")
            if y.shape != codes.shape:
                raise SchemaError("y must match the sample length")
        self._fill(labels, codes, d, z, y)

    @classmethod
    def _coded(cls, labels, codes, d, z=None, y=None):
        """The sample whose x is labels[codes], without a label per row,
        from what `load_micro` reads and `simulate` draws: distinct sorted
        labels that each label some row, and int8 0/1 columns d and z and
        a float column y of the rows' length.  Only y can still be
        refused."""
        sample = cls.__new__(cls)
        sample._fill(labels, codes, d, z, y)
        return sample

    def _fill(self, labels, codes, d, z, y):
        if y is not None and not np.isfinite(y).all():
            raise SchemaError("outcome values must be finite")
        _store(self, labels=labels, codes=codes, d=d, z=z, y=y)

    @property
    def x(self):
        """Each row's label, as a new read-only str array."""
        x = self.labels[self.codes]
        x.setflags(write=False)
        return x

    @property
    def n(self):
        return len(self.codes)

    def to_csv(self, path):
        """Write the sample as CSV to a path or a text stream."""
        write_csv(path, {"x": Coded(self.labels, self.codes), **{
            name: v for name, v in (("d", self.d), ("z", self.z), ("y", self.y))
            if v is not None}})


def _bits(values, shape, message):
    """`values` as int8: a bool, integer or real float array of `shape`
    (in an object array, of real numbers) whose values are 0 or 1."""
    v = np.asarray(values)
    real = v.dtype.kind in "biuf" or v.dtype.kind == "O" and all(
        isinstance(i, numbers.Real) for i in v.flat)
    # the comparisons np.isin(v, (0, 1)) makes, without its sort
    if v.shape != shape or not real or not np.logical_or(v == 0, v == 1).all():
        raise SchemaError(message)
    return v.astype(np.int8)


_MICRO_COLUMNS = {"x": text_col, "d": binary_col, "z": binary_col, "y": float_col}


def _micro_columns(path, header):
    if header[:2] != ["x", "d"] or header[2:] not in ([], ["y"], ["z"], ["z", "y"]):
        raise SchemaError(f"{path}: header must be one of x,d | x,d,y | x,d,z | "
                          f"x,d,z,y; got {','.join(header)!r}")
    return {name: _MICRO_COLUMNS[name] for name in header}


def load_micro(path):
    """Read a micro sample CSV; the instrument and outcome columns are
    optional but the column order x, d, z, y is fixed."""
    columns = read_csv(path, _micro_columns)
    return MicroSample._coded(*_factorize(columns["x"]),
                              *map(columns.get, "dzy"))


def _factorize(values):
    """(the distinct labels of a list of str, sorted, and each value's
    index into them), as `np.unique` of their str array gives them: such
    an array drops trailing NULs and sorts by code point."""
    form = {v: v.rstrip("\0") for v in set(values)}
    labels = sorted(set(form.values()))
    rank = dict(zip(labels, range(len(labels))))
    code = {v: rank[f] for v, f in form.items()}
    codes = np.fromiter(map(code.__getitem__, values),
                        np.min_scalar_type(len(labels)), len(values))
    return np.array(labels, dtype=str), codes


@dataclass(frozen=True)
class PanelData:
    """Balanced panel in wide form: one row per unit with its adoption
    period g (inf = never treated) and outcomes for periods 1..T."""

    units: tuple
    g: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        units = tuple(str(u) for u in self.units)
        seen = set()
        for u in units:
            if u in seen:
                raise SchemaError(f"duplicated unit {u!r}")
            seen.add(u)
        g = _reals(self.g, SchemaError, "adoption periods must be numbers")
        shape = "y must be an (n, T) outcome matrix"
        y = _reals(self.y, SchemaError, shape)
        if y.ndim != 2 or y.shape[0] != len(units):
            raise SchemaError(shape)
        t = y.shape[1]
        if t < 2:
            raise SchemaError("a panel needs at least two periods")
        if np.any(np.isnan(y)):
            raise UnbalancedPanel("missing outcomes; the panel must be balanced")
        if np.any(np.isinf(y)):
            raise SchemaError("outcome values must be finite")
        finite = g[~np.isinf(g)]
        if np.any((finite != np.round(finite)) | (finite < 2) | (finite > t)):
            raise SchemaError(f"adoption periods must lie in {{2,…,{t}}} or be inf")
        _store(self, units=units, g=g, y=y)

    @property
    def n(self):
        return len(self.units)

    @property
    def t(self):
        return self.y.shape[1]

    def to_csv(self, path):
        """Write the panel as CSV to a path or a text stream."""
        periods, at = np.unique(self.g, return_inverse=True)
        g = Coded(["inf" if math.isinf(v) else str(int(v))
                   for v in periods.tolist()], at)
        write_csv(path, {"unit": np.array(self.units, dtype=object), "g": g, **{
            f"y{t}": col for t, col in enumerate(self.y.T, start=1)}})


def _panel_columns(path, header):
    t = len(header) - 2
    periods = [f"y{i}" for i in range(1, t + 1)]
    if header[:2] != ["unit", "g"] or t < 2 or header[2:] != periods:
        raise SchemaError(
            f"{path}: header must be unit,g,y1,…,yT; got {','.join(header)!r}"
        )
    return {"unit": text_col, "g": adoption_col,
            **dict.fromkeys(periods, _outcome_col)}


def _outcome_col(values, name):
    try:
        return float_col(values, name)
    except _BadField as bad:
        i = bad.args[0]
        if values[i].strip():
            raise
        raise _BadField(i, UnbalancedPanel, f"missing outcome {name}") from None


_outcome_col.reads_floats = True  # only float_col's error is rewritten


def load_panel(path):
    """Read a wide-form panel CSV with header unit,g,y1,...,yT."""
    units, g, *y = read_csv(path, _panel_columns).values()
    return PanelData(tuple(units), g, np.column_stack(y))


def panel_to_group_distribution(panel):
    """Empirical adoption-group shares of a balanced panel; the number of
    periods is the panel's outcome-series length."""
    # |g| sends -inf to inf, both never treated; finite periods are >= 2
    values, counts = np.unique(np.abs(panel.g), return_counts=True)
    return GroupDistribution(panel.t, dict(zip(values.tolist(),
                                               (counts / panel.n).tolist())))


# ---------------------------------------------------------------------------
# synthetic data-generating processes
# ---------------------------------------------------------------------------

# the equal parts of [0, 1) by which `simulate` finds a row's cell: a
# power of two, by which a uniform scales exactly
_PARTS = 4096

# the keys a JSON specification of each family may have, in the order
# `DgpSpec.to_json_dict` writes them: at the top level, whose last key
# holds the cells or groups, and in each of those
_SPEC_KEYS = {
    "unconfoundedness": (("cells",), ("label", "mass", "tau", "baseline", "p")),
    "iv": (("cells",), ("label", "mass", "tau", "baseline", "pz", "pc", "pa")),
    "staggered_did": (("t", "trend_slope", "groups"),
                      ("g", "share", "tau", "baseline")),
}
FAMILIES = tuple(_SPEC_KEYS)


@dataclass(frozen=True)
class CellSpec:
    label: str
    mass: float
    p: float | None = None
    pz: float | None = None
    pc: float | None = None
    pa: float = 0.0
    tau: float = 0.0
    baseline: float = 0.0


@dataclass(frozen=True)
class GroupSpec:
    g: float  # adoption period, math.inf for never treated
    share: float
    tau: float = 0.0
    baseline: float = 0.0


@dataclass(frozen=True)
class DgpSpec:
    """Declarative description of a validation DGP.

    The identifying assumption of each family holds by construction:
    unconfoundedness draws treatment from the within-cell propensity,
    the IV family uses principal strata with no defiers, and the panel
    family builds outcomes from a common trend plus group effects.
    """

    family: str
    seed: int = 0
    noise_scale: float = 1.0
    cells: tuple = ()
    t: int | None = None
    trend_slope: float = 0.0
    groups: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; "
                              f"expected one of {FAMILIES}")
        try:  # the implied table's own checks decide the rest
            _as_float_array([self.noise_scale, self.trend_slope] + [
                v for c in self.cells for v in (c.pa, c.tau, c.baseline)] + [
                v for g in self.groups for v in (g.tau, g.baseline)],
                "DGP parameter")
            self._table()
        except (InvalidDesign, OverlapViolation) as exc:
            raise InvalidSpec(str(exc)) from None
        if self.noise_scale < 0:
            raise InvalidSpec("noise_scale must be nonnegative")
        _store(self, seed=_root_seed(self.seed, InvalidSpec))
        for c in self.cells if self.family == "iv" else ():
            if c.pa < 0 or c.pc + c.pa > 1:
                raise InvalidSpec(f"cell {c.label!r}: invalid strata shares")

    @functools.cached_property
    def _draws(self):
        """What `simulate` draws a cross-sectional sample with, built once
        per spec: the cells' cdf and its table by parts of [0, 1), the
        per-cell columns of the baseline, tau and the treatment rule (see
        `_treatment`), the sorted distinct labels of all the cells and each
        cell's rank among them, which are the sample's labels and codes
        when every cell is drawn."""
        def column(name, dtype=None):
            return np.asarray([getattr(c, name) for c in self.cells], dtype)

        cdf = column("mass", float).cumsum()
        cdf /= cdf[-1]
        # how many cdf values lie at or below the start of each of
        # _PARTS equal parts of [0, 1), or -1 where one lies inside it
        start = np.arange(_PARTS) / _PARTS
        below = cdf.searchsorted(start, side="right")
        below[cdf.searchsorted(start + 1 / _PARTS) > below] = -1
        if self.family == "unconfoundedness":
            rule = (column("p"),)
        else:
            pc = column("pc")
            rule = (column("pz"), pc, pc + column("pa"))
        base, tau = column("baseline", float), column("tau", float)
        labels, rank = _factorize([c.label for c in self.cells])
        for v in (cdf, below, base, tau, *rule, labels, rank):
            v.setflags(write=False)
        return (cdf, below), base, tau, rule, labels, rank

    # -- primitives of the implied population design -------------------

    def _table(self, primitive=object):
        """The primitive table this spec implies, which must be a
        `primitive`."""
        labels = tuple(c.label for c in self.cells)
        mass = [c.mass for c in self.cells]
        if self.family == "unconfoundedness":
            table = PropensityTable(labels, mass, [c.p for c in self.cells])
        elif self.family == "iv":
            pz, pc = (_as_float_array([getattr(c, k) for c in self.cells], k)
                      for k in ("pz", "pc"))
            with np.errstate(over="ignore"):  # a huge |pz| overflows; the table rejects it
                table = IvCellTable(labels, mass, pz, pc * pz * (1 - pz), pc)
        else:
            shares = {g.g: g.share for g in self.groups}
            if len(shares) < len(self.groups):
                raise InvalidDesign("every adoption group must appear once")
            table = GroupDistribution(self.t, shares)
        if not isinstance(table, primitive):
            raise InvalidSpec(f"this specification is for {self.family!r}, "
                              f"which has no {primitive.__name__}")
        return table

    def propensity_table(self):
        return self._table(PropensityTable)

    def iv_table(self):
        return self._table(IvCellTable)

    def group_distribution(self):
        return self._table(GroupDistribution)

    def true_design(self, estimand):
        """Population cell table, with the true CATEs attached, for the
        named estimand applied to this DGP."""
        family = ESTIMAND_FAMILIES.get(estimand)
        if family is None:
            raise InvalidSpec(f"unknown estimand {estimand!r}")
        table = self._table(family.primitive)
        design = family.build(table)
        if self.family == "staggered_did":
            tau_by_g = dict(zip(table.shares, (g.tau for g in self.groups)))
            tau = [tau_by_g.get(g, math.nan) for g in design.groups]
        else:
            tau = [c.tau for c in self.cells]
        return design.with_tau(tau)

    # -- serialization --------------------------------------------------

    def to_json_dict(self):
        keys, item_keys = _SPEC_KEYS[self.family]
        out = {"family": self.family, "seed": self.seed,
               "noise_scale": self.noise_scale}
        out.update({key: getattr(self, key) for key in keys[:-1]})
        out[keys[-1]] = [{key: getattr(item, key) for key in item_keys}
                         for item in getattr(self, keys[-1])]
        for group in out.get("groups", ()):
            group["g"] = "inf" if math.isinf(group["g"]) else int(group["g"])
        return out

    @classmethod
    def from_json_dict(cls, payload):
        try:
            family = payload["family"]
            if family in FAMILIES:
                _check_keys(payload, *_SPEC_KEYS[family])
            cells = tuple(CellSpec(**{
                k: str(v) if k == "label" else None if v is None else float(v)
                for k, v in c.items()}) for c in payload.get("cells", ()))
            groups = tuple(GroupSpec(**{
                k: math.inf if k == "g" and str(v).lower() in ("inf", "never")
                else float(v) for k, v in g.items()})
                for g in payload.get("groups", ()))
            return cls(family=family, seed=payload.get("seed", 0),
                       noise_scale=float(payload.get("noise_scale", 1.0)),
                       cells=cells, t=payload.get("t"),
                       trend_slope=float(payload.get("trend_slope", 0.0)),
                       groups=groups)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed DGP specification: {exc}") from exc


def _check_keys(payload, keys, item_keys):
    """Reject a key the specification's family does not read."""
    parts = [("the specification", payload, {"family", "seed", "noise_scale",
                                              *keys})]
    parts += [(f"{keys[-1][:-1]} {i}", item, item_keys)
              for i, item in enumerate(payload.get(keys[-1], ()), start=1)]
    for where, obj, allowed in parts:
        unknown = sorted(set(obj).difference(allowed))
        if unknown:
            raise InvalidSpec(f"unknown key {unknown[0]!r} in {where}")


def simulate(spec, n, seed=None):
    """Draw n units from the specified DGP.

    Returns a :class:`MicroSample` for the cross-sectional families and a
    :class:`PanelData` for the staggered family.  Reproducible: the same
    (spec, n, seed) triple always yields the same data.
    """
    n = _sample_size(n, InvalidSpec)
    root = spec.seed if seed is None else _root_seed(seed, InvalidSpec)
    rng = rng_stream(root, "simulate", spec.family)
    if spec.family == "staggered_did":
        return _simulate_panel(spec, n, rng)
    (cdf, below), base, tau, rule, labels, rank = spec._draws
    # rng.choice(k, size=n, p=mass) without its checks of p, which
    # DgpSpec has made: from the same cdf and uniforms, each row's cell is
    # the count of cdf values at or below its uniform (never the last,
    # 1.0).  Comparing with each value finds it for up to four cells;
    # beyond, the uniform's part of [0, 1) gives it (u * _PARTS is exact)
    # unless a cdf value lies inside that part, where a binary search
    # does, which on its own would be slower for every row
    u = rng.random(n)
    if len(cdf) > 4:
        idx = below.take((u * _PARTS).astype(np.intp))
        odd = (idx < 0).nonzero()[0]
        idx[odd] = cdf.searchsorted(u.take(odd), side="right")
    else:
        idx = (u >= cdf[0]).astype(np.intp)
        for c in cdf[1:-1]:
            idx += u >= c
    del u
    noise = rng.standard_normal(n)
    noise *= spec.noise_scale
    d, z = _treatment(rule, idx, rng)
    # y = base + d * tau + noise, in that order, in place
    y, effect = base.take(idx), tau.take(idx)
    effect *= d
    y += effect
    del effect
    y += noise
    del noise
    drawn = np.bincount(idx, minlength=len(cdf))
    if not drawn.all():  # the labels of the cells drawn and their ranks
        drawn = drawn > 0
        labels, some = _factorize([c.label for c, k in zip(spec.cells, drawn)
                                   if k])
        rank = np.zeros(len(cdf), some.dtype)
        rank[drawn] = some
    return MicroSample._coded(labels, rank.take(idx), d, z, y)


def _treatment(rule, idx, rng):
    """The drawn units' treatment d and, in the IV family, instrument z,
    from the per-cell columns of the treatment rule: (p,), or
    (pz, pc, pc + pa) in the IV family."""
    n = len(idx)
    if len(rule) == 1:
        return (rng.random(n) < rule[0].take(idx)).view(np.int8), None
    pz, pc, pc_pa = rule
    z = rng.random(n) < pz.take(idx)
    u = rng.random(n)
    # an always-taker (pc <= u < pc + pa) takes d = 1 and a complier
    # (u < pc, so u < pc + pa too) d = z
    d = u < pc_pa.take(idx)
    d &= ~(u < pc.take(idx)) | z
    return d.view(np.int8), z.view(np.int8)


def _simulate_panel(spec, n, rng):
    gd = spec.group_distribution()  # in the order of spec.groups
    g_vals = np.asarray(list(gd.shares), dtype=float)
    tau = np.asarray([g.tau for g in spec.groups])
    base = np.asarray([g.baseline for g in spec.groups])
    t = gd.t
    gi = rng.choice(len(g_vals), size=n, p=list(gd.shares.values()))
    periods = np.arange(1, t + 1)
    treated = periods[None, :] >= g_vals[gi][:, None]
    y = (
        base[gi][:, None]
        + spec.trend_slope * (periods - 1)[None, :]
        + tau[gi][:, None] * treated
        + spec.noise_scale * rng.standard_normal((n, t))
    )
    return PanelData(
        tuple(f"u{i}" for i in range(n)), g_vals[gi], y
    )

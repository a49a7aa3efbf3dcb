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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cells import (
    _as_float_array,
    _BadField,
    _store,
    binary_col,
    float_col,
    quoted,
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


@dataclass(frozen=True)
class MicroSample:
    """Row-level sample: cell label, binary treatment, optional binary
    instrument and optional outcome."""

    x: np.ndarray
    d: np.ndarray
    z: np.ndarray | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=str)
        d = np.asarray(self.d)
        if x.ndim != 1 or d.shape != x.shape:
            raise SchemaError("x and d must be matching vectors")
        if not np.isin(d, (0, 1)).all():
            raise SchemaError("treatment values must be 0 or 1")
        d = d.astype(np.int8)
        z = self.z
        if z is not None:
            z = np.asarray(z)
            if z.shape != x.shape or not np.isin(z, (0, 1)).all():
                raise SchemaError("instrument values must be 0 or 1")
            z = z.astype(np.int8)
        y = self.y
        if y is not None:
            y = np.asarray(y, dtype=float)
            if y.shape != x.shape:
                raise SchemaError("y must match the sample length")
            if not np.isfinite(y).all():
                raise SchemaError("outcome values must be finite")
        _store(self, x=x, d=d, z=z, y=y)

    @property
    def n(self):
        return len(self.x)

    def to_csv(self, path):
        """Write the sample as CSV to a path or a text stream."""
        write_csv(path, {"x": quoted(self.x.tolist()), **{
            name: v for name, v in (("d", self.d), ("z", self.z), ("y", self.y))
            if v is not None}})


_MICRO_COLUMNS = {"x": text_col, "d": binary_col, "z": binary_col, "y": float_col}


def _micro_columns(path, header):
    if header[:2] != ["x", "d"] or header[2:] not in ([], ["y"], ["z"], ["z", "y"]):
        raise SchemaError(f"{path}: header must be one of x,d | x,d,y | x,d,z | "
                          f"x,d,z,y; got {','.join(header)!r}")
    return {name: _MICRO_COLUMNS[name] for name in header}


def load_micro(path):
    """Read a micro sample CSV; the instrument and outcome columns are
    optional but the column order x, d, z, y is fixed."""
    return MicroSample(**read_csv(path, _micro_columns, exact=True))


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
        g = np.asarray(self.g, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != len(units):
            raise SchemaError("y must be an (n, T) outcome matrix")
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
        g = ["inf" if math.isinf(g) else str(int(g)) for g in self.g.tolist()]
        write_csv(path, {"unit": quoted(self.units), "g": g, **{
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
    units, g, *y = read_csv(path, _panel_columns, exact=True).values()
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
        seed = self.seed
        if isinstance(seed, float) and seed.is_integer():
            seed = int(seed)
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise InvalidSpec(f"seed must be a nonnegative whole number, "
                              f"got {self.seed!r}")
        _store(self, seed=int(seed))
        for c in self.cells if self.family == "iv" else ():
            if c.pa < 0 or c.pc + c.pa > 1:
                raise InvalidSpec(f"cell {c.label!r}: invalid strata shares")

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
        except InvalidSpec:
            raise
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
    if n < 1:
        raise InvalidSpec("n must be at least 1")
    rng = rng_stream(spec.seed if seed is None else seed,
                     "simulate", spec.family)
    if spec.family == "staggered_did":
        return _simulate_panel(spec, n, rng)
    labels = np.asarray([c.label for c in spec.cells])
    mass = np.asarray([c.mass for c in spec.cells])
    tau = np.asarray([c.tau for c in spec.cells])
    base = np.asarray([c.baseline for c in spec.cells])
    idx = rng.choice(len(labels), size=n, p=mass)
    noise = spec.noise_scale * rng.standard_normal(n)
    if spec.family == "unconfoundedness":
        p = np.asarray([c.p for c in spec.cells])
        d = (rng.random(n) < p[idx]).astype(np.int8)
        y = base[idx] + d * tau[idx] + noise
        return MicroSample(x=labels[idx], d=d, y=y)
    pz = np.asarray([c.pz for c in spec.cells])
    pc = np.asarray([c.pc for c in spec.cells])
    pa = np.asarray([c.pa for c in spec.cells])
    z = (rng.random(n) < pz[idx]).astype(np.int8)
    u = rng.random(n)
    complier = u < pc[idx]
    always = (u >= pc[idx]) & (u < (pc + pa)[idx])
    d = (complier * z + always).astype(np.int8)
    y = base[idx] + d * tau[idx] + noise
    return MicroSample(x=labels[idx], d=d, z=z, y=y)


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

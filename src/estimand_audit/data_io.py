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
from dataclasses import dataclass, field

import numpy as np

from .cells import (
    _as_float_array,
    _BadField,
    _masses,
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


def load_panel(path):
    """Read a wide-form panel CSV with header unit,g,y1,...,yT."""
    units, g, *y = read_csv(path, _panel_columns, exact=True).values()
    return PanelData(tuple(units), g, np.column_stack(y))


def panel_to_group_distribution(panel):
    """Empirical adoption-group shares of a balanced panel; the number of
    periods is the panel's outcome-series length."""
    values, counts = np.unique(panel.g, return_counts=True)
    shares = {
        (math.inf if math.isinf(v) else int(v)): c / panel.n
        for v, c in zip(values, counts)
    }
    return GroupDistribution(panel.t, shares)


# ---------------------------------------------------------------------------
# synthetic data-generating processes
# ---------------------------------------------------------------------------

FAMILIES = ("unconfoundedness", "iv", "staggered_did")


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
        try:
            self._validate()
        except InvalidDesign as exc:  # from the shared checks in `cells`
            raise InvalidSpec(str(exc)) from None

    def _validate(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        _as_float_array([self.noise_scale, self.trend_slope] + [
            v for c in self.cells for v in (c.p, c.pz, c.pc, c.pa, c.tau, c.baseline)
            if v is not None] + [v for g in self.groups for v in (g.tau, g.baseline)],
            "DGP parameter")
        if self.noise_scale < 0:
            raise InvalidSpec("noise_scale must be nonnegative")
        if self.family in ("unconfoundedness", "iv"):
            if not self.cells:
                raise InvalidSpec("cell definitions are required")
            _masses([c.mass for c in self.cells], "cell mass")
            for c in self.cells:
                if self.family == "unconfoundedness":
                    if c.p is None or not 0 < c.p < 1:
                        raise InvalidSpec(
                            f"cell {c.label!r}: p must lie in (0,1)"
                        )
                else:
                    if c.pz is None or not 0 < c.pz < 1:
                        raise InvalidSpec(
                            f"cell {c.label!r}: pz must lie in (0,1)"
                        )
                    if c.pc is None or not 0 <= c.pc <= 1 or c.pa < 0 or \
                            c.pc + c.pa > 1:
                        raise InvalidSpec(
                            f"cell {c.label!r}: invalid strata shares"
                        )
        else:
            if self.t is None or int(self.t) < 2:
                raise InvalidSpec("staggered family needs t >= 2")
            if not self.groups:
                raise InvalidSpec("group definitions are required")
            _masses([g.share for g in self.groups], "group share")
            for gs in self.groups:
                if not math.isinf(gs.g) and not 2 <= gs.g <= self.t:
                    raise InvalidSpec(
                        f"group {gs.g!r} outside {{2,…,{self.t}}} ∪ {{inf}}"
                    )

    # -- primitives of the implied population design -------------------

    def propensity_table(self):
        self._require("unconfoundedness")
        return PropensityTable(
            tuple(c.label for c in self.cells),
            [c.mass for c in self.cells],
            [c.p for c in self.cells],
        )

    def iv_table(self):
        self._require("iv")
        pz = np.asarray([c.pz for c in self.cells])
        pc = np.asarray([c.pc for c in self.cells])
        return IvCellTable(
            tuple(c.label for c in self.cells),
            [c.mass for c in self.cells],
            pz,
            pc * pz * (1 - pz),
            pc,
        )

    def group_distribution(self):
        self._require("staggered_did")
        return GroupDistribution(
            int(self.t), {g.g: g.share for g in self.groups}
        )

    def true_design(self, estimand):
        """Population cell table, with the true CATEs attached, for the
        named estimand applied to this DGP."""
        family = ESTIMAND_FAMILIES.get(estimand)
        if family is None:
            raise InvalidSpec(f"unknown estimand {estimand!r}")
        self._require(family.dgp)
        primitive = {"unconfoundedness": self.propensity_table,
                     "iv": self.iv_table,
                     "staggered_did": self.group_distribution}[self.family]
        design = family.build(primitive())
        if self.family == "staggered_did":
            tau_by_g = {g.g: g.tau for g in self.groups}
            tau = [tau_by_g.get(g, math.nan) for g in design.groups]
        else:
            tau = [c.tau for c in self.cells]
        return design.with_tau(tau)

    def _require(self, family):
        if self.family != family:
            raise InvalidSpec(
                f"this specification is for {self.family!r}, not {family!r}"
            )

    # -- serialization --------------------------------------------------

    def to_json_dict(self):
        out = {"family": self.family, "seed": self.seed,
               "noise_scale": self.noise_scale}
        if self.family in ("unconfoundedness", "iv"):
            cells = []
            for c in self.cells:
                cell = {"label": c.label, "mass": c.mass, "tau": c.tau,
                        "baseline": c.baseline}
                if self.family == "unconfoundedness":
                    cell["p"] = c.p
                else:
                    cell.update(pz=c.pz, pc=c.pc, pa=c.pa)
                cells.append(cell)
            out["cells"] = cells
        else:
            out["t"] = self.t
            out["trend_slope"] = self.trend_slope
            out["groups"] = [
                {"g": "inf" if math.isinf(g.g) else int(g.g),
                 "share": g.share, "tau": g.tau, "baseline": g.baseline}
                for g in self.groups
            ]
        return out

    @classmethod
    def from_json_dict(cls, payload):
        try:
            family = payload["family"]
            seed = int(payload.get("seed", 0))
            noise = float(payload.get("noise_scale", 1.0))
            cells = tuple(
                CellSpec(
                    label=str(c["label"]),
                    mass=float(c["mass"]),
                    p=None if c.get("p") is None else float(c["p"]),
                    pz=None if c.get("pz") is None else float(c["pz"]),
                    pc=None if c.get("pc") is None else float(c["pc"]),
                    pa=float(c.get("pa", 0.0)),
                    tau=float(c.get("tau", 0.0)),
                    baseline=float(c.get("baseline", 0.0)),
                )
                for c in payload.get("cells", ())
            )
            groups = tuple(
                GroupSpec(
                    g=math.inf if str(g["g"]).lower() in ("inf", "never")
                    else float(g["g"]),
                    share=float(g["share"]),
                    tau=float(g.get("tau", 0.0)),
                    baseline=float(g.get("baseline", 0.0)),
                )
                for g in payload.get("groups", ())
            )
            t = payload.get("t")
            return cls(
                family=family,
                seed=seed,
                noise_scale=noise,
                cells=cells,
                t=None if t is None else int(t),
                trend_slope=float(payload.get("trend_slope", 0.0)),
                groups=groups,
            )
        except InvalidSpec:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed DGP specification: {exc}") from exc


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
    g_vals = np.asarray([g.g for g in spec.groups])
    shares = np.asarray([g.share for g in spec.groups])
    tau = np.asarray([g.tau for g in spec.groups])
    base = np.asarray([g.baseline for g in spec.groups])
    t = int(spec.t)
    gi = rng.choice(len(g_vals), size=n, p=shares)
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

"""Discrete design model for weighted estimands.

A weighted estimand averages conditional average treatment effects (CATEs)
with a weight function a(X) over a base subpopulation W0:

    mu(a, tau) = E[a(X) w0(X) tau(X)] / E[a(X) w0(X)],

where w0(x) = P(W0=1 | X=x).  This module represents such designs on a
finite covariate support as a :class:`CellTable` and provides the estimand
functional, the implied one-sum weights, and utilities to profile or
physically realize candidate subpopulations.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeights,
    DimensionMismatch,
    EmptySubpopulation,
    InvalidDesign,
    MissingTau,
    ParseError,
    SchemaError,
)

MASS_TOL = 1e-9  # absolute tolerance for probability-sum invariants


def rng_stream(seed, *path):
    """Return an independent, reproducible generator for (seed, *path).

    Streams are derived from a counter-based seed sequence, so the same
    (seed, path) pair always yields the same stream regardless of how many
    other streams were created before it.  Path components may be ints or
    strings.
    """
    key = tuple(
        int(p) if not isinstance(p, str) else zlib.crc32(p.encode("utf-8"))
        for p in path
    )
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _as_float_array(values, name, k=None, nan_ok=False):
    """1-d float array of length `k`, all finite (NaN allowed if `nan_ok`)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidDesign(f"{name} must be one-dimensional")
    if k is not None and arr.shape[0] != k:
        raise InvalidDesign(f"{name} has length {arr.shape[0]}, expected {k}")
    if not np.isfinite(arr).all() and (not nan_ok or np.isinf(arr).any()):
        raise InvalidDesign(f"{name} values must be finite")
    return arr


def _masses(values, name, k=None):
    """Cell masses: finite, > 0 and summing to one."""
    mass = _as_float_array(values, name, k)
    if (mass <= 0).any():
        raise InvalidDesign(f"every {name} value must be > 0")
    if abs(mass.sum() - 1.0) > MASS_TOL:
        raise InvalidDesign(f"{name} values sum to {mass.sum()!r}, not 1")
    return mass


def _store(obj, **fields):
    """Set validated fields on a frozen dataclass; arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class CellTable:
    """A discrete design: per-cell mass, weight, base-subpopulation
    probability, and (optionally) a CATE value.

    Fields
    ------
    labels : tuple of str
        Opaque cell identifiers.
    p : ndarray
        Cell masses, strictly positive, summing to one.
    a : ndarray
        Weight values; may be negative.
    w0 : ndarray
        P(W0=1 | X = x_k), each in [0, 1]; the W0 population must have
        positive total mass.
    tau : ndarray or None
        Optional per-cell CATEs; NaN marks a missing value.  Cells with
        w0 = 0 never need tau (their contribution is defined as zero).
    x : ndarray or None
        Optional numeric labels, shape (K,) or (K, d); only the convex-hull
        existence check requires them.
    """

    labels: tuple
    p: np.ndarray
    a: np.ndarray
    w0: np.ndarray
    tau: np.ndarray | None = None
    x: np.ndarray | None = None

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        k = len(labels)
        if k == 0:
            raise InvalidDesign("a design needs at least one cell")
        p = _masses(self.p, "p", k)
        a = _as_float_array(self.a, "a", k)
        w0 = _as_float_array(self.w0, "w0", k)
        if np.any(w0 < -MASS_TOL) or np.any(w0 > 1 + MASS_TOL):
            raise InvalidDesign("w0 values must lie in [0, 1]")
        w0 = np.clip(w0, 0.0, 1.0)
        if w0 @ p <= 0:
            raise InvalidDesign("the W0 population has zero mass")
        tau = self.tau
        if tau is not None:
            tau = _as_float_array(tau, "tau", k, nan_ok=True)
            if np.all(np.isnan(tau)):
                tau = None
        x = self.x
        if x is not None:
            x = np.asarray(x, dtype=float)
            if x.ndim not in (1, 2) or x.shape[0] != k:
                raise InvalidDesign("numeric labels must be (K,) or (K, d)")
        _store(self, labels=labels, p=p, a=a, w0=w0, tau=tau, x=x)

    # -- basic derived quantities -------------------------------------

    @property
    def k(self):
        return len(self.labels)

    @property
    def w0_mass(self):
        """Per-cell mass of the W0 population, w0_k * p_k."""
        return self.w0 * self.p

    @property
    def pop_w0(self):
        """P(W0 = 1)."""
        return float(self.w0_mass.sum())

    @property
    def full_population(self):
        """Whether W0 is the whole population: w0 = 1 in every cell."""
        return bool(np.all(np.abs(self.w0 - 1.0) <= 1e-12))

    @property
    def mean_a_given_w0(self):
        """E[a(X) | W0 = 1]."""
        m = self.w0_mass
        return float((self.a * m).sum() / m.sum())

    def with_a(self, a):
        return CellTable(self.labels, self.p, a, self.w0, self.tau, self.x)

    def with_tau(self, tau):
        return CellTable(self.labels, self.p, self.a, self.w0, tau, self.x)

    # -- serialization --------------------------------------------------

    def to_csv(self, path):
        tau = [""] * self.k if self.tau is None else [
            "" if math.isnan(t) else repr(t) for t in self.tau.tolist()]
        write_csv(path, {"label": quoted(self.labels), "p": self.p,
                         "a": self.a, "w0": self.w0, "tau": tau})

    @classmethod
    def from_csv(cls, path):
        labels, p, a, w0, tau = read_csv(path, {
            "label": text_col, "p": float_col, "a": float_col,
            "w0": float_col, "tau": tau_col}).values()
        return cls(tuple(labels), p, a, w0, tau, _infer_numeric_labels(labels))

    def to_json_dict(self):
        cells = []
        for i, label in enumerate(self.labels):
            cell = {
                "label": label,
                "p": float(self.p[i]),
                "a": float(self.a[i]),
                "w0": float(self.w0[i]),
                "tau": None
                if self.tau is None or math.isnan(self.tau[i])
                else float(self.tau[i]),
            }
            if self.x is not None:
                cell["x"] = np.atleast_1d(self.x[i]).tolist()
            cells.append(cell)
        return {"cells": cells}

    @classmethod
    def from_json_dict(cls, payload):
        try:
            cells = payload["cells"]
            labels = tuple(str(c["label"]) for c in cells)
            p = [float(c["p"]) for c in cells]
            a = [float(c["a"]) for c in cells]
            w0 = [float(c.get("w0", 1.0)) for c in cells]
            tau = [
                math.nan if c.get("tau") is None else float(c["tau"]) for c in cells
            ]
            x = [c["x"] for c in cells] if all("x" in c for c in cells) else None
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed design payload: {exc}") from exc
        if x is None:
            x = _infer_numeric_labels(labels)
        else:
            x = np.squeeze(np.asarray(x, dtype=float))
        return cls(labels, p, a, w0, tau, x)


def cell_table(labels, p, a, w0=None, tau=None, x=None):
    """Convenience constructor; w0 defaults to 1 in every cell and numeric
    labels are inferred from the label strings when x is not given."""
    labels = tuple(labels)
    if w0 is None:
        w0 = np.ones(len(labels))
    if x is None:
        x = _infer_numeric_labels(labels)
    return CellTable(labels, p, a, w0, tau, x)


@dataclass(frozen=True)
class SubpopulationRule:
    """Per-cell inclusion probabilities w*(x) plus the seed used to realize
    the latent inclusion draws."""

    inclusion: np.ndarray
    seed: int = 0

    def __post_init__(self):
        inc = _as_float_array(self.inclusion, "inclusion")
        if np.any(inc < -MASS_TOL) or np.any(inc > 1 + MASS_TOL):
            raise InvalidDesign("inclusion probabilities must lie in [0, 1]")
        _store(self, inclusion=np.clip(inc, 0.0, 1.0))


@dataclass(frozen=True)
class MomentSummary:
    """First moments of a design: the estimand (when tau is known), the mean
    weight on W0, P(W0=1), and the benchmark ATE E0 = E[tau | W0=1]."""

    mu: float | None
    mean_a_given_w0: float
    pop_w0: float
    e0: float | None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _degenerate_tol(design):
    m = design.w0_mass
    scale = float((np.abs(design.a) * m).sum() / m.sum())
    return 1e-12 * max(1.0, scale)


def normalize_sign(design):
    """Flip the sign of a(.) if E[a|W0=1] < 0 (a pure sign normalization —
    mu is invariant).  Raises DegenerateWeights when E[a|W0=1] = 0."""
    mean_a = design.mean_a_given_w0
    if abs(mean_a) <= _degenerate_tol(design):
        raise DegenerateWeights("E[a|W0=1] = 0; the estimand is undefined")
    if mean_a < 0:
        return design.with_a(-design.a)
    return design


def _tau_checked(design, contributing):
    """tau values with NaN allowed only on non-contributing cells."""
    if design.tau is None:
        if np.any(contributing):
            raise MissingTau("tau is required on cells with a*w0*p != 0")
        return np.zeros(design.k)
    missing = np.isnan(design.tau) & contributing
    if np.any(missing):
        cells = [design.labels[i] for i in np.flatnonzero(missing)]
        raise MissingTau(f"tau missing on contributing cells: {cells}")
    return np.where(np.isnan(design.tau), 0.0, design.tau)


def mu(design):
    """The weighted estimand mu(a, tau) = E[a w0 tau] / E[a w0].

    Invariant to rescaling a by any nonzero constant.  Cells with w0 = 0
    contribute nothing and may omit tau.
    """
    m = design.w0_mass
    den = float((design.a * m).sum())
    if abs(den) <= _degenerate_tol(design) * m.sum():
        raise DegenerateWeights("E[a|W0=1] = 0; the estimand is undefined")
    tau = _tau_checked(design, design.a * m != 0)
    return float((design.a * m * tau).sum() / den)


def discrete_weights(design):
    """One-sum weights omega_k = a_k p_k / sum_l a_l p_l.

    Only defined on full-population designs (w0 identically 1); weights may
    be negative but always sum to one.
    """
    if not design.full_population:
        raise InvalidDesign("one-sum weights are defined for w0 = 1 designs")
    den = float(design.a @ design.p)
    if abs(den) <= _degenerate_tol(design):
        raise DegenerateWeights("E[a] = 0; weights are undefined")
    return design.a * design.p / den


def subpop_profile(design, rule, g):
    """Average of a per-cell statistic over the subpopulation W*=1:
    E[g(X) | W*=1] = sum_k g_k incl_k w0_k p_k / sum_k incl_k w0_k p_k."""
    inc = np.asarray(rule.inclusion, dtype=float)
    if inc.shape[0] != design.k:
        raise DimensionMismatch("inclusion length does not match the design")
    g = _as_float_array(g, "g", design.k)
    mass = inc * design.w0_mass
    total = float(mass.sum())
    if total <= 0:
        raise EmptySubpopulation("the rule selects a zero-mass subpopulation")
    return float((g * mass).sum() / total)


def realize_subpop(design, rule, n):
    """Draw n i.i.d. units: a cell, a W0 indicator, and the subpopulation
    indicator W* = 1(U <= inclusion(x)) * W0.  Reproducible under the
    rule's seed."""
    inc = np.asarray(rule.inclusion, dtype=float)
    if inc.shape[0] != design.k:
        raise DimensionMismatch("inclusion length does not match the design")
    if n < 1:
        raise InvalidDesign("n must be at least 1")
    rng = rng_stream(rule.seed, "realize-subpop")
    cells = rng.choice(design.k, size=n, p=design.p)
    w0 = (rng.random(n) < design.w0[cells]).astype(np.int8)
    u = rng.random(n)
    w_star = ((u <= inc[cells]) & (w0 == 1)).astype(np.int8)
    out = np.zeros(n, dtype=[("cell", "i8"), ("w0", "i1"), ("w_star", "i1")])
    out["cell"] = cells
    out["w0"] = w0
    out["w_star"] = w_star
    return out


def moment_summary(design):
    """Collect mu, E[a|W0=1], P(W0=1) and E0 = E[tau|W0=1]; mu and e0 are
    None when the needed tau values are absent."""
    m = design.w0_mass
    try:
        value = mu(design)
    except (MissingTau, DegenerateWeights):
        value = None
    e0 = None
    if design.tau is not None and not np.any(np.isnan(design.tau) & (m > 0)):
        e0 = float((m * np.where(np.isnan(design.tau), 0.0, design.tau)).sum()
                   / m.sum())
    return MomentSummary(mu=value, mean_a_given_w0=design.mean_a_given_w0,
                         pop_w0=design.pop_w0, e0=e0)


# ---------------------------------------------------------------------------
# CSV layer shared by every table type
# ---------------------------------------------------------------------------


class _BadField(Exception):
    """(row index, error class, message) from a column parser."""


def read_csv(path, columns, exact=False):
    """{header name: parsed column} of a CSV file; leading ``#`` lines
    are skipped, fields stripped and blank rows dropped.

    `columns` maps the expected header to parsers ``parse(values, name)``,
    or is a function (path, header) -> such a map.  Short rows are padded
    and long ones rejected, or with `exact` both are errors.  The bad
    value on the earliest row (leftmost on a tie) is reported.  A plain
    file is read by `_read_plain`; every other file, and every error, by
    the csv module below."""
    fast = _read_plain(path, columns)
    if fast is not None:
        return fast
    try:
        with open(path, newline="") as fh:
            start = 0
            for line in fh:
                if not line.lstrip().startswith("#"):
                    break
                start += 1
            else:
                raise SchemaError(f"{path}: no header row found")
            reader = csv.reader(itertools.chain([line], fh))
            header = [h.strip() for h in next(reader)]
            if callable(columns):
                columns = columns(path, header)
            elif header != list(columns):
                raise SchemaError(f"{path}: expected header {','.join(columns)!r}, "
                                  f"got {','.join(header)!r}")
            rows = list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    width, late = len(header), None
    lines = range(start + 2, start + 2 + len(rows))
    # a blank row has a blank first field, so most files skip the row loop
    if not (all(map(width.__eq__, map(len, rows)))
            and all(v.strip() for v in {row[0] for row in rows})):
        rows, lines, late = _tidy_rows(path, rows, lines, width, exact)
    if not rows and late is None:
        raise SchemaError(f"{path}: no data rows")
    values = [[row[j] for row in rows] for j in range(width)]
    del rows
    out, bad = {}, None
    for j, (name, parse) in enumerate(columns.items()):
        try:
            out[name] = parse(values[j], name)
        except _BadField as err:
            bad = err.args if bad is None or err.args[0] < bad[0] else bad
        values[j] = None
    if bad is not None:
        raise bad[1](f"line {lines[bad[0]]}: {bad[2]}")
    if late is not None:
        raise late
    return out


def _read_plain(path, columns):
    """`read_csv` of a plain file through numpy's C tokenizer, or None.

    Columns whose parser `reads_floats` are parsed by `np.loadtxt`, which
    calls the same C routine as `float`; every other column goes to its
    parser as text.  The exact reader decides every other file, so that
    it alone raises: a file is declined on any error, a quote, a NUL
    (which csv rejects before Python 3.11), a lone CR, no data rows
    (loadtxt would warn), a line over the csv field limit or a wrong
    total field count.  Short and blank rows fail in loadtxt or in the
    parsers, which reject a blank float, 0/1 or adoption period, and
    every table has one."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
        if ('"' in text or "\0" in text
                or text.count("\r") != text.count("\r\n")):
            return None
        commas, lines = text.count(","), text.split("\n")
        del text  # each copy of the text goes once the next exists
        start = 0
        while lines[start].lstrip().startswith("#"):
            start += 1
        header = [h.strip() for h in lines[start].split(",")]
        if callable(columns):
            columns = columns(path, header)
        elif header != list(columns):
            return None
        commas -= sum(line.count(",") for line in lines[:start + 1])
        rows = lines[start + 1:]
        del lines
        if rows and not rows[-1]:  # after the newline that ends the last row
            rows.pop()
        if (not rows or commas != (len(columns) - 1) * len(rows)
                or max(map(len, rows)) > csv.field_size_limit()):
            return None
        kinds = [float if getattr(parse, "reads_floats", False) else object
                 for parse in columns.values()]
        table = np.loadtxt(rows, dtype=list(zip(columns, kinds)),
                           delimiter=",", comments=None, ndmin=1)
        del rows
        return {name: table[name].copy() if kind is float
                else parse(table[name].tolist(), name)
                for (name, parse), kind in zip(columns.items(), kinds)}
    except Exception:  # whatever this path cannot read, the exact reader reports
        return None


def _tidy_rows(path, rows, lines, width, exact):
    """Drop blank rows and fix field counts row by row.  With `exact`, the
    first row of the wrong width ends the table and its error is returned,
    so that bad values on earlier rows are reported first."""
    kept, kept_lines = [], []
    for row, lineno in zip(rows, lines):
        if not any(f.strip() for f in row):
            continue
        if len(row) != width:
            if exact:
                return kept, kept_lines, ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            if len(row) > width:
                raise ParseError(f"{path}:{lineno}: too many fields")
            row = row + [""] * (width - len(row))
        kept.append(row)
        kept_lines.append(lineno)
    return kept, kept_lines, None


def text_col(values, name):
    stripped = all(v == v.strip() for v in set(values))
    return values if stripped else [v.strip() for v in values]


def float_col(values, name, words=None):
    """Floats as `float` parses them; `words` maps lower-case tokens to values."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError:
        pass
    words, out = words or {}, np.empty(len(values))
    for i, text in enumerate(map(str.strip, values)):
        try:
            out[i] = words[text.lower()] if text.lower() in words else float(text)
        except ValueError:
            raise _BadField(i, ParseError, f"bad {name} value {text!r}") from None
    return out


float_col.reads_floats = True  # `read_csv` may parse such columns with numpy
tau_col = functools.partial(float_col, words={"": math.nan})
_BITS = {"0": 0, "1": 1}


def binary_col(values, name):
    try:
        return np.fromiter(map(_BITS.__getitem__, values), np.int8, len(values))
    except KeyError:
        values = [v.strip() for v in values]
    for i, text in enumerate(values):
        if text not in _BITS:
            raise _BadField(i, ParseError, f"{name} must be 0 or 1, got {text!r}")
    return binary_col(values, name)


def quoted(labels):
    """Labels as csv.writer writes them, each distinct one quoted once."""
    form = {}
    for label in set(labels):
        buf = io.StringIO()
        csv.writer(buf).writerow((label, ""))
        form[label] = buf.getvalue()[:-3]  # drop the empty field and CRLF
    return list(map(form.__getitem__, labels))


def write_csv(path, columns):
    """Write {header name: column} to a path or text stream, byte for byte
    as csv.writer would.  A column is a numeric array, written by `repr`,
    or a list of formatted fields; label columns go through `quoted`.
    Rows are formatted in blocks so that memory does not grow with n."""
    cols, step = list(columns.values()), 1 << 16
    with open_atomic(path, newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for lo in range(0, len(cols[0]), step):
            block = [list(map(repr, c[lo:lo + step].tolist()))
                     if isinstance(c, np.ndarray) else c[lo:lo + step] for c in cols]
            fh.write("".join(row + "\r\n" for row in map(",".join, zip(*block))))


@contextlib.contextmanager
def open_atomic(path, newline=None):
    """Write text to `path` through a temporary file beside it, which
    replaces `path` only when the block succeeds.  Streams (stdout) and
    non-regular files (/dev/stdout) are written to directly."""
    if hasattr(path, "write"):
        yield path
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline=newline) as fh:
            yield fh
    else:
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "x", newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _infer_numeric_labels(labels):
    """Numeric labels when every label parses as a float (or a ';'-separated
    float vector of common length); otherwise None."""
    try:
        return np.asarray([float(l) for l in labels])
    except ValueError:
        pass
    try:
        vecs = [[float(part) for part in str(l).split(";")] for l in labels]
    except ValueError:
        return None
    if len({len(v) for v in vecs}) != 1 or len(vecs[0]) < 2:
        return None
    return np.asarray(vecs)

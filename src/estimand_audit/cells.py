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
import numbers
import os
import zlib
from dataclasses import dataclass, replace

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

__all__ = [
    "CellTable",
    "MomentSummary",
    "SubpopulationRule",
    "cell_table",
    "discrete_weights",
    "moment_summary",
    "mu",
    "normalize_sign",
    "realize_subpop",
    "rng_stream",
    "subpop_profile",
]

MASS_TOL = 1e-9  # absolute tolerance for probability-sum invariants


def rng_stream(seed, *path):
    """Return an independent, reproducible generator for (seed, *path).

    Streams are derived from a counter-based seed sequence, so the same
    (seed, path) pair always yields the same stream regardless of how many
    other streams were created before it.  The seed is a nonnegative
    whole number and each path component a string or one too (a float
    such as 2.0 is its int); anything else is InvalidDesign.
    """
    seed = _root_seed(seed, InvalidDesign)
    try:
        key = _path_key(path)
    except TypeError:  # an unhashable component is no key either
        key = None
    if key is None:
        bad = next(p for p in path
                   if not isinstance(p, str) and _whole(p, 0) is None)
        raise InvalidDesign("stream path components must be strings or "
                            f"nonnegative whole numbers, got {bad!r}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@functools.lru_cache(maxsize=32)
def _path_key(path):
    """The spawn key of a stream path: a string's CRC-32, a whole
    number's int; None if some component is neither."""
    key = tuple(zlib.crc32(p.encode("utf-8")) if isinstance(p, str)
                else _whole(p, 0) for p in path)
    return None if None in key else key


def _reals(values, error, message):
    """`np.asarray(values, dtype=float)`, or `error(message)` where a
    value is no real number; a complex one too, which numpy would cut to
    its real part with a ComplexWarning."""
    try:
        if (values.dtype.kind != "c" if isinstance(values, np.ndarray)
                else not np.iscomplexobj(values)):
            return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        pass
    raise error(message)


def _vector(values, name, k=None):
    """1-d float array of length `k` (any length if None)."""
    arr = _reals(values, InvalidDesign, f"{name} values must be numbers")
    if arr.ndim != 1:
        raise InvalidDesign(f"{name} must be one-dimensional")
    if k is not None and arr.shape[0] != k:
        raise InvalidDesign(f"{name} has length {arr.shape[0]}, expected {k}")
    return arr


def _as_float_array(values, name, k=None, nan_ok=False):
    """1-d float array of length `k`, all finite (NaN allowed if `nan_ok`)."""
    arr = _vector(values, name, k)
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


def _clipped(values, name, message):
    """Finite values within MASS_TOL of [0, 1], as a new array clipped
    into it (a -0.0 stays -0.0); otherwise InvalidDesign, naming a value
    that is not finite before one out of range (`message`)."""
    # NaN fails both comparisons; the initial values let an empty array pass
    if not (values.min(initial=0.0) >= -MASS_TOL
            and values.max(initial=1.0) <= 1 + MASS_TOL):
        _as_float_array(values, name)
        raise InvalidDesign(message)
    return values.clip(0.0, 1.0)


def _store(obj, **fields):
    """Set validated fields on a frozen dataclass; arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _whole(value, least):
    """`value` as an int when it is a whole number >= `least`, a float such
    as 20.0 included; otherwise None."""
    if type(value) is int:  # the common case, without the ABC check
        return value if value >= least else None
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    whole = isinstance(value, numbers.Integral) and value >= least
    return int(value) if whole else None


def _root_seed(value, error):
    """A root seed as an int: a nonnegative whole number, else `error`."""
    seed = _whole(value, 0)
    if seed is None:
        raise error(f"seed must be a nonnegative whole number, got {value!r}")
    return seed


def _sample_size(n, error):
    """A number of draws as an int: a whole number of at least 1, else
    `error`."""
    size = _whole(n, 1)
    if size is None:
        raise error("n must be at least 1" if _whole(n, -math.inf) is not None
                    else f"n must be a whole number, got {n!r}")
    return size


class _LabelledTable:
    """CSV round trip of a table's labels and its float columns
    `_COLUMNS`, in which a missing `tau` is an empty field."""

    def to_csv(self, path):
        write_csv(path, {"label": quoted(self.labels), **{
            name: getattr(self, name) for name in self._COLUMNS}})

    @classmethod
    def from_csv(cls, path):
        return cls(*read_csv(path, {"label": text_col, **{
            name: tau_col if name == "tau" else float_col
            for name in cls._COLUMNS}}).values())


@dataclass(frozen=True)
class CellTable(_LabelledTable):
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
        positive total mass.  None (the default) means 1 in every cell.
    tau : ndarray or None
        Optional per-cell CATEs; NaN marks a missing value.  Cells with
        w0 = 0 never need tau (their contribution is defined as zero).
    x : ndarray or None
        Numeric labels, shape (K,) or (K, d), which only the convex-hull
        existence check requires.  None (the default) reads the labels,
        when each is a finite number or a ';' vector of them, else None.
    """

    _COLUMNS = ("p", "a", "w0", "tau")

    labels: tuple
    p: np.ndarray
    a: np.ndarray
    w0: np.ndarray | None = None
    tau: np.ndarray | None = None
    x: np.ndarray | None = None

    def __post_init__(self):
        labels = tuple(map(str, self.labels))
        k = len(labels)
        if k == 0:
            raise InvalidDesign("a design needs at least one cell")
        p = _masses(self.p, "p", k)
        a = _as_float_array(self.a, "a", k)
        w0 = np.ones(k) if self.w0 is None else _clipped(
            _vector(self.w0, "w0", k), "w0", "w0 values must lie in [0, 1]")
        if w0 @ p <= 0:
            raise InvalidDesign("the W0 population has zero mass")
        tau = self.tau
        if tau is not None:
            tau = _as_float_array(tau, "tau", k, nan_ok=True)
            if np.all(np.isnan(tau)):
                tau = None
        if self.x is None:  # finite, one row per label, when not None
            x = _infer_numeric_labels(labels)
        else:
            shape = "numeric labels must be (K,) or (K, d)"
            x = _reals(self.x, InvalidDesign, shape)
            if x.ndim not in (1, 2) or x.shape[0] != k:
                raise InvalidDesign(shape)
            if not np.isfinite(x).all():
                raise InvalidDesign("numeric labels must be finite")
        _store(self, labels=labels, p=p, a=a, w0=w0, tau=tau, x=x)

    @classmethod
    def _weighted(cls, labels, p, a, w0):
        """The table of a family's weights on cells that a primitive table
        or counts have checked: a tuple of str labels, masses, float
        weights and w0 within [0, 1] with W0 mass > 0, all of one length.
        Only the finiteness of the weights is checked again, which is where
        a fault of an estimator would show."""
        for name, values in (("a", a), ("w0", w0)):
            if not np.isfinite(values).all():
                raise InvalidDesign(f"{name} values must be finite")
        table = cls.__new__(cls)
        _store(table, labels=labels, p=p, a=a, w0=w0, tau=None,
               x=_infer_numeric_labels(labels))
        return table

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
        return _mean(self.a, self.w0_mass)

    def with_a(self, a):
        return replace(self, a=a)

    def with_tau(self, tau):
        return replace(self, tau=tau)


# in the class's own namespace too, where perfbench's tracer wraps it
CellTable.from_csv = vars(_LabelledTable)["from_csv"]
cell_table = CellTable


@dataclass(frozen=True)
class SubpopulationRule:
    """Per-cell inclusion probabilities w*(x) plus the seed used to realize
    the latent inclusion draws."""

    inclusion: np.ndarray
    seed: int = 0

    def __post_init__(self):
        inc = _clipped(_vector(self.inclusion, "inclusion"), "inclusion",
                       "inclusion probabilities must lie in [0, 1]")
        _store(self, inclusion=inc,
               seed=_root_seed(self.seed, InvalidDesign))


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


def clip_share(p):
    """The reported share: a plug-in value clipped to [0, 1]."""
    return min(max(float(p), 0.0), 1.0)


def _mean(x, m):
    """The m-weighted mean of x.  numpy's own sums, not a BLAS dot, so
    that its bits do not depend on the BLAS thread count."""
    return float((x * m).sum() / m.sum())


def _weight_scale(design):
    """The mean |a| on the base subpopulation.  The weight tolerances are
    relative to it, so that rescaling a never changes a verdict."""
    return _mean(np.abs(design.a), design.w0_mass)


def _degenerate_tol(design):
    """A zero scale gives zero, which still rejects a = 0."""
    return 1e-12 * _weight_scale(design)


def normalize_sign(design):
    """Flip the sign of a(.) if E[a|W0=1] < 0 (a pure sign normalization —
    mu is invariant).  Raises DegenerateWeights when E[a|W0=1] = 0."""
    mean_a = design.mean_a_given_w0
    if abs(mean_a) <= _degenerate_tol(design):
        raise DegenerateWeights("E[a|W0=1] = 0; the estimand is undefined")
    if mean_a < 0:
        return design.with_a(-design.a)
    return design


def mu(design):
    """The weighted estimand mu(a, tau) = E[a w0 tau] / E[a w0].

    Invariant to rescaling a by any nonzero constant.  Cells with w0 = 0
    contribute nothing and may omit tau.
    """
    am = design.a * design.w0_mass
    if abs(am.sum()) <= _degenerate_tol(design) * design.pop_w0:
        raise DegenerateWeights("E[a|W0=1] = 0; the estimand is undefined")
    if design.tau is None:  # a nonzero E[a w0] has a contributing cell
        raise MissingTau("tau is required on cells with a*w0*p != 0")
    missing = np.isnan(design.tau) & (am != 0)
    if np.any(missing):
        cells = [design.labels[i] for i in np.flatnonzero(missing)]
        raise MissingTau(f"tau missing on contributing cells: {cells}")
    return _mean(np.where(np.isnan(design.tau), 0.0, design.tau), am)


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
    if mass.sum() <= 0:
        raise EmptySubpopulation("the rule selects a zero-mass subpopulation")
    return _mean(g, mass)


def realize_subpop(design, rule, n):
    """Draw n i.i.d. units: a cell, a W0 indicator, and the subpopulation
    indicator W* = 1(U <= inclusion(x)) * W0.  Reproducible under the
    rule's seed."""
    inc = np.asarray(rule.inclusion, dtype=float)
    if inc.shape[0] != design.k:
        raise DimensionMismatch("inclusion length does not match the design")
    n = _sample_size(n, InvalidDesign)
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


def _conditional_tau(design):
    """CATE values and masses conditional on W0=1, validating presence,
    and the mask of the base-subpopulation cells they come from."""
    sub = design.w0_mass > 0
    if design.tau is None or np.any(np.isnan(design.tau[sub])):
        raise MissingTau("tau is required on every base-subpopulation cell")
    q = design.w0_mass[sub]
    return design.tau[sub], q / q.sum(), sub


def moment_summary(design):
    """Collect mu, E[a|W0=1], P(W0=1) and E0 = E[tau|W0=1], the mean the
    fixed-tau audit reports; mu and e0 are None without the tau they need."""
    try:
        value = mu(design)
    except (MissingTau, DegenerateWeights):
        value = None
    try:
        e0 = _mean(*_conditional_tau(design)[:2])
    except MissingTau:
        e0 = None
    return MomentSummary(mu=value, mean_a_given_w0=design.mean_a_given_w0,
                         pop_w0=design.pop_w0, e0=e0)


# ---------------------------------------------------------------------------
# CSV layer shared by every table type
# ---------------------------------------------------------------------------


class _BadField(Exception):
    """(row index, error class, message) from a column parser."""


_BLOCK_FIELDS = 1 << 15  # values read, written or resampled at a time


def read_csv(path, columns):
    """{header name: parsed column} of a CSV file; leading ``#`` lines
    are skipped, fields stripped and blank rows dropped.

    `columns` maps the expected header to parsers ``parse(values, name)``,
    or is a function (path, header) -> such a map.  Short rows are padded
    with blank fields, and the first long row or malformed record ends the
    table, so that the error on the earliest row (the leftmost bad value
    on a tie) is reported, with the line it starts on.  The file is
    opened, its header parsed and `columns` resolved once.  The body is
    read in blocks of about `_BLOCK_FIELDS` fields (the whole body if a
    parser checks across rows, `whole_column`).  Each block of lines goes
    to `_numpy_block`; from the first one it declines on, each block of
    the csv module's records goes to `_tidy_rows`; `add` parses either.
    So each line is tokenized once, a pipe is read as a file is, and
    memory is bounded by a block beyond the columns."""
    try:
        with open(path, newline="") as fh:
            start = 0
            while (line := fh.readline()).lstrip().startswith("#"):
                start += 1
            if not line:
                raise SchemaError(f"{path}: no header row found")
            reader = csv.reader(itertools.chain([line], fh))
            header = [h.strip() for h in next(reader)]
            if callable(columns):
                columns = columns(path, header)
            elif header != list(columns):
                raise SchemaError(f"{path}: expected header {','.join(columns)!r}, "
                                  f"got {','.join(header)!r}")
            parts = {name: [] for name in columns}
            memos = {name: {} for name in columns}

            def add(block, lines, rows=()):
                """Parse each column of `block` that is a list of fields
                and add the block.  The earliest bad value (the leftmost on
                a tie) raises, with its line, unless it is on a blank row of
                numpy's `rows`: then False, for the csv module to drop it."""
                bad = None
                for j, (name, parse) in enumerate(columns.items()):
                    try:
                        if isinstance(block[j], list):
                            block[j] = parse(block[j], name)
                    except _BadField as err:
                        bad = err.args if bad is None or err.args[0] < bad[0] else bad
                if bad is not None:
                    if rows and not rows[bad[0]].replace(",", "").strip():
                        return False
                    raise bad[1](f"line {lines[bad[0]]}: {bad[2]}")
                for part, memo, column in zip(parts.values(), memos.values(), block):
                    if isinstance(column, list):  # one str per distinct value
                        part.extend(map(memo.setdefault, column, column))
                    else:
                        part.append(column)
                return True

            width = len(header)
            step = None if any(getattr(parse, "whole_column", False) for parse
                               in columns.values()) else max(1, _BLOCK_FIELDS // width)
            first = start + reader.line_num + 1  # the line `rows` starts on
            while (rows := list(itertools.islice(fh, step))) and (
                    block := _numpy_block(rows, columns)) is not None and add(
                        block, range(first, first + len(rows)), rows):
                first += len(rows)
            reader, base, late = csv.reader(itertools.chain(rows, fh)), first, None
            while late is None:
                rows = []
                try:  # a malformed record ends the table after the rows before it
                    rows.extend(itertools.islice(reader, step))
                except csv.Error as exc:
                    late = ParseError(f"{path}: {exc}")
                if not rows:
                    break
                lines, first = range(first, first + len(rows)), base + reader.line_num
                if lines.stop != first:  # a record spans a line break it quotes
                    lines = list(itertools.accumulate((1 + sum(
                        f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
                        for row in rows[:-1]), initial=lines.start))
                # a blank row has a blank first field, so most blocks skip the row loop
                if not (all(map(width.__eq__, map(len, rows)))
                        and all(v.strip() for v in {row[0] for row in rows})):
                    rows, lines, late = _tidy_rows(path, rows, lines, width, late)
                if rows:
                    add([[row[j] for row in rows] for j in range(width)], lines)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if late is not None:
        raise late
    if not any(parts.values()):
        raise SchemaError(f"{path}: no data rows")
    return {name: np.concatenate(part) if isinstance(part[0], np.ndarray)
            else part for name, part in parts.items()}


def _plain(text):
    """Whether `text` has no quote, NUL (which csv rejects before Python
    3.11) or lone CR."""
    return not ('"' in text or "\0" in text or "\r" in text
                and text.count("\r") != text.count("\r\n"))


def _numpy_block(rows, columns):
    """The columns of `rows`, whole lines of a CSV body, as numpy's C
    tokenizer splits them, or None.

    A column whose parser `reads_floats` comes back parsed, by
    `np.loadtxt`, which calls the same C routine as `float`; every other
    column is the list of its fields.  A block is declined on a quote, a
    NUL, a lone CR (`_plain`), a line over the csv field limit, a wrong
    field count or a float loadtxt cannot read; `read_csv` reads it and
    every later block with the csv module.  So the rows of a block taken
    here are its physical lines, as the csv module would split them.  A
    blank row has a blank float, 0/1 or adoption period, and every table
    has one, so loadtxt or a parser finds it."""
    try:
        text = "".join(rows)
        if (not _plain(text)
                or text.count(",") != (len(columns) - 1) * len(rows)
                or max(map(len, rows)) > csv.field_size_limit()):
            return None
        dtype = [(name, float if getattr(parse, "reads_floats", False)
                  else object) for name, parse in columns.items()]
        table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                           ndmin=1)
    except Exception:  # whatever this path cannot read, the csv module reports
        return None
    return [table[name].copy() if kind is float else table[name].tolist()
            for name, kind in dtype]


def _tidy_rows(path, rows, lines, width, late):
    """Drop blank rows and pad short ones with blank fields.  The first
    long row ends the table and its error is returned (else `late`), so
    that bad values on earlier rows are reported first.  `lines` holds
    the line each row starts on."""
    kept, kept_lines = [], []
    for row, lineno in zip(rows, lines):
        if not any(f.strip() for f in row):
            continue
        if len(row) > width:
            return kept, kept_lines, ParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        kept.append(row + [""] * (width - len(row)))
        kept_lines.append(lineno)
    return kept, kept_lines, late


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


class Coded:
    """A `write_csv` column of labels given by code: the distinct labels
    and each row's index into them.  Each label is quoted once and a
    block's fields are gathered by code."""

    def __init__(self, labels, codes):
        self.fields = np.array(quoted(list(labels)), dtype=object)
        self.codes = codes

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, rows):
        return self.fields[self.codes[rows]].tolist()


_BIT_FIELDS = ("0", "1")


def _fields(values):
    """The csv fields of a slice of a `write_csv` column."""
    if not isinstance(values, np.ndarray):
        return values
    if values.dtype.kind == "f":  # NaN is missing, as `tau_col` reads it
        return [repr(v) if v == v else "" for v in values.tolist()]
    if values.dtype.kind in "iu":
        return list(map(_BIT_FIELDS.__getitem__, values.tolist()))
    return quoted(values.tolist())


def write_csv(path, columns):
    """Write {header name: column} to a path or text stream, byte for byte
    as csv.writer would.  A column is a float array, written by `repr`
    (NaN, or a None column after the first, as empty fields), a 0/1
    integer array, a str or object array of labels, which go through
    `quoted`, labels by code (`Coded`) or a list of formatted fields.

    Memory is bounded by a block: each slice of about `_BLOCK_FIELDS`
    fields is formatted from the arrays, written and dropped, so that an
    array column never has a string per row at once."""
    cols = list(columns.values())
    cols = [np.full(len(cols[0]), math.nan) if c is None else c for c in cols]
    step = max(1, _BLOCK_FIELDS // len(cols))
    with open_atomic(path, newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for lo in range(0, len(cols[0]), step):
            block = [_fields(c[lo:lo + step]) for c in cols]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


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


@functools.lru_cache(maxsize=8)
def _infer_numeric_labels(labels):
    """Numeric labels when every label parses as a finite float, or as a
    ';'-separated vector of them of common length; otherwise None.  The
    last few answers are kept, read-only, for `with_a` and `with_tau` to
    share, and for a loop that alternates between a few designs."""
    try:  # a label that is no number, or vectors of two lengths, fail
        x = np.asarray([[float(v) for v in l.split(";")] for l in labels])
    except ValueError:
        return None
    x = x[:, 0] if x.shape[1:] == (1,) else x
    x.setflags(write=False)
    return x if np.isfinite(x).all() else None

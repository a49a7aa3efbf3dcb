"""Lock-in tests for the CSV layer shared by every table type.

Each of the six readers is run on the same kinds of malformed and
unusual input: bad values (reported with their line), wrong field
counts, quoted labels, CRLF line endings and padded fields.  After the
header, each plain block of rows is parsed by numpy's C reader, and the
first other block and every later one by the csv module, the exact
reader; the differential tests check that the two never disagree.  The
writer tests pin the exact bytes each `to_csv` produces on seeded inputs.
"""

import csv
import dataclasses
import functools
import hashlib
import io
import math
import os
import re
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from estimand_audit import cells, data_io
from estimand_audit.cells import CellTable, open_atomic
from estimand_audit.data_io import MicroSample, PanelData, load_micro, load_panel
from estimand_audit.designs import GroupDistribution, IvCellTable, PropensityTable
from estimand_audit.errors import (InvalidDesign, ParseError, SchemaError,
                                   UnbalancedPanel)


@dataclasses.dataclass(frozen=True)
class Reader:
    read: object
    header: tuple
    rows: tuple      # three valid data rows
    numeric: tuple   # columns whose values are parsed
    label: str | None = None

    def text(self, rows=None, comments=0, blank_before=None, eol="\n"):
        lines = ["# comment %d" % i for i in range(comments)]
        lines.append(",".join(self.header))
        for i, row in enumerate(self.rows if rows is None else rows):
            if i == blank_before:
                lines.append("")
            lines.append(",".join(row))
        return eol.join(lines) + eol


READERS = {
    "cells": Reader(
        CellTable.from_csv, ("label", "p", "a", "w0", "tau"),
        (("a", "0.25", "1.0", "1.0", "0.5"),
         ("b", "0.25", "2.0", "0.5", "1.5"),
         ("c", "0.5", "0.5", "1.0", "-1.0")),
        ("p", "a", "w0", "tau"), label="label"),
    "propensity": Reader(
        PropensityTable.from_csv, ("label", "mass", "p"),
        (("a", "0.25", "0.4"), ("b", "0.25", "0.1"), ("c", "0.5", "0.7")),
        ("mass", "p"), label="label"),
    "iv": Reader(
        IvCellTable.from_csv, ("label", "mass", "pz", "cov_dz", "pc"),
        (("a", "0.25", "0.5", "0.1", "0.4"),
         ("b", "0.25", "0.3", "-0.05", "0.2"),
         ("c", "0.5", "0.6", "0.12", "0.5")),
        ("mass", "pz", "cov_dz", "pc"), label="label"),
    "groups": Reader(
        GroupDistribution.from_csv, ("g", "share"),
        (("2", "0.25"), ("3", "0.25"), ("inf", "0.5")),
        ("g", "share")),
    "micro": Reader(
        load_micro, ("x", "d", "z", "y"),
        (("a", "1", "0", "0.5"), ("b", "0", "1", "-2.0"),
         ("a", "0", "0", "1e-3")),
        ("d", "z", "y"), label="x"),
    "panel": Reader(
        load_panel, ("unit", "g", "y1", "y2", "y3"),
        (("u1", "2", "0.0", "1.0", "1.5"), ("u2", "3", "0.5", "0.5", "2.0"),
         ("u3", "inf", "0.0", "0.5", "1.0")),
        ("g", "y1", "y2", "y3"), label="unit"),
}
CASES = [(name, col) for name, r in READERS.items() for col in r.numeric]
LABELLED = [name for name, r in READERS.items() if r.label]
# the error when the third row has lost its last field
SHORT_LAST_FIELD = {
    "propensity": (ParseError, "bad p value ''"),
    "iv": (ParseError, "bad pc value ''"),
    "groups": (ParseError, "bad share value ''"),
    "micro": (ParseError, "bad y value ''"),
    "panel": (UnbalancedPanel, "missing outcome y3"),
}


def snapshot(obj):
    """Comparable text of a table: every field, arrays as (kind, values)."""
    out = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype.kind, v.tolist())
        elif isinstance(v, dict):
            v = sorted(v.items(), key=repr)
        out.append((f.name, v))
    return repr(out)


def read(tmp_path, reader, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return reader.read(path)


def with_value(reader, row, col, value, rows=None):
    rows = [list(r) for r in (reader.rows if rows is None else rows)]
    rows[row][reader.header.index(col)] = value
    return rows


def broken_first_field(rows):
    """`rows` with the first field of the first one quoted around a line
    break, which stripping drops: the row spans two lines."""
    rows = [list(row) for row in rows]
    rows[0][0] = '"%s\n"' % rows[0][0]
    return rows


def error_at(line, col):
    return rf"line {line}: (bad {col} value|{col} must be)"


class TestReaders:
    @pytest.mark.parametrize("name", READERS)
    def test_valid_table_reads(self, tmp_path, name):
        r = READERS[name]
        read(tmp_path, r, r.text())

    # before the bad row: a blank line (True), or a first row whose
    # first field is quoted and holds a line break ("break")
    @pytest.mark.parametrize("blank", [False, True, "break"])
    @pytest.mark.parametrize("comments", [0, 2])
    @pytest.mark.parametrize("name,col", CASES)
    def test_bad_value_names_its_line(self, tmp_path, name, col, comments,
                                      blank):
        r = READERS[name]
        rows = with_value(r, 1, col, "abc")
        if blank == "break":
            rows = broken_first_field(rows)
        text = r.text(rows, comments=comments,
                      blank_before=1 if blank is True else None)
        line = comments + 3 + bool(blank)
        with pytest.raises(ParseError, match=error_at(line, col)):
            read(tmp_path, r, text)

    @pytest.mark.parametrize("name,col", CASES)
    def test_earlier_of_two_bad_rows_is_reported(self, tmp_path, name, col):
        r = READERS[name]
        rows = with_value(r, 2, col, "zzz", with_value(r, 1, col, "abc"))
        with pytest.raises(ParseError, match=error_at(3, col) + ".*'abc'"):
            read(tmp_path, r, r.text(rows))

    @pytest.mark.parametrize("name", READERS)
    def test_too_many_fields(self, tmp_path, name):
        r = READERS[name]
        rows = [list(row) for row in r.rows]
        rows[1].append("1")
        width = len(r.header)
        for line, body in (3, rows), (4, broken_first_field(rows)):
            want = "line %d: expected %d fields, got %d" % (line, width,
                                                           width + 1)
            with pytest.raises(ParseError, match=want):
                read(tmp_path, r, r.text(body))

    @pytest.mark.parametrize("name", READERS)
    def test_short_rows_are_padded(self, tmp_path, name):
        # a short row reads as if its missing fields were blank
        r = READERS[name]
        rows = [list(row) for row in r.rows]
        rows[1] = rows[1][:1]
        with pytest.raises(ParseError, match=error_at(3, r.header[1]) + ".*''"):
            read(tmp_path, r, r.text(rows))
        rows = [list(row) for row in r.rows]
        rows[2].pop()
        if name in SHORT_LAST_FIELD:  # a cell table's blank tau is missing
            error, message = SHORT_LAST_FIELD[name]
            with pytest.raises(error, match="line 4: " + message):
                read(tmp_path, r, r.text(rows))

    @pytest.mark.parametrize("name", READERS)
    def test_earlier_bad_value_beats_later_field_count(self, tmp_path, name):
        r = READERS[name]
        rows = with_value(r, 0, r.numeric[0], "abc")
        rows[2].append("1")
        with pytest.raises(ParseError, match=error_at(2, r.numeric[0])):
            read(tmp_path, r, r.text(rows))

    def test_blank_tau_is_padded_as_missing(self, tmp_path):
        r = READERS["cells"]
        rows = [list(row) for row in r.rows]
        rows[0].pop()
        rows[1][4] = ""
        design = read(tmp_path, r, r.text(rows))
        assert repr(design.tau.tolist()) == "[nan, nan, -1.0]"
        all_blank = [row[:4] for row in r.rows]
        assert read(tmp_path, r, r.text(all_blank)).tau is None

    @pytest.mark.parametrize("name", LABELLED)
    def test_quoted_labels(self, tmp_path, name):
        r = READERS[name]
        rows = [list(row) for row in r.rows]
        col = r.header.index(r.label)
        rows[0][col] = '"a,b"'
        rows[1][col] = '"say ""hi"""'
        table = read(tmp_path, r, r.text(rows))
        labels = getattr(table, {"label": "labels", "x": "x",
                                 "unit": "units"}[r.label])
        assert list(labels)[:2] == ["a,b", 'say "hi"']

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("label", ["a", '"a"'], ids=["plain", "quoted"])
    def test_a_pipe_is_read_once(self, tmp_path, label):
        # a pipe's rows cannot be read a second time
        r = READERS["micro"]
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        text = r.text(with_value(r, 0, "x", label))
        with ThreadPoolExecutor(2) as pool:
            pool.submit(path.write_text, text)
            read = pool.submit(r.read, path)
            try:
                sample = read.result(timeout=10)
            finally:
                if not read.done():  # blocked opening the pipe again
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        assert sample.n == 3 and list(sample.labels) == ["a", "b"]

    @pytest.mark.parametrize("name", READERS)
    def test_crlf_input(self, tmp_path, name):
        r = READERS[name]
        lf = read(tmp_path, r, r.text(comments=1))
        crlf = read(tmp_path, r, r.text(comments=1, eol="\r\n"))
        assert snapshot(crlf) == snapshot(lf)

    @pytest.mark.parametrize("name", READERS)
    def test_padded_fields_are_stripped(self, tmp_path, name):
        r = READERS[name]
        padded = [[" %s\t" % f for f in row] for row in r.rows]
        assert snapshot(read(tmp_path, r, r.text(padded))) == snapshot(
            read(tmp_path, r, r.text()))

    @pytest.mark.parametrize("name", READERS)
    def test_whitespace_only_rows_are_dropped(self, tmp_path, name):
        r = READERS[name]
        rows = [list(row) for row in r.rows]
        rows.insert(2, [" "] * len(r.header))
        assert snapshot(read(tmp_path, r, r.text(rows))) == snapshot(
            read(tmp_path, r, r.text()))

    @pytest.mark.parametrize("text", ["", "# only\n# comments\n"],
                             ids=["empty", "comments only"])
    def test_no_header_row(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(SchemaError, match="^%s: no header row found$"
                           % re.escape(str(path))):
            load_micro(path)

    def test_bad_value_before_a_later_csv_error(self, tmp_path):
        # the csv module reads a block of records at a time, so a bad d
        # on line 3 is reported before a field over the csv limit 20,000
        # lines later, which no longer ends the read first
        r = READERS["micro"]
        rows = list(r.rows) * 8000
        rows[1] = ("b", "7", "1", "-2.0")
        rows[20_001] = ("x" * (csv.field_size_limit() + 1), "1", "0", "0.5")
        with pytest.raises(ParseError, match="^line 3: d must be 0 or 1, got '7'$"):
            read(tmp_path, r, r.text(rows))

    @pytest.mark.parametrize("bad,message", [
        (("b", "7", "1", "-2.0"), "^line 8: d must be 0 or 1, got '7'$"),
        (("b", "1", "1", "-2.0", "5"), "line 8: expected 4 fields, got 5$"),
    ])
    def test_earlier_row_before_a_csv_error_in_its_block(self, tmp_path, bad,
                                                         message):
        # one block of 20 rows: the records read before the malformed one
        # on line 19 are parsed, so the error on line 8 is reported
        r = READERS["micro"]
        rows = (list(r.rows) * 7)[:20]
        rows[6] = bad
        rows[17] = ("x" * (csv.field_size_limit() + 1), "1", "0", "0.5")
        with pytest.raises(ParseError, match=message):
            read(tmp_path, r, r.text(rows))

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(st.sampled_from('a\n\r", '), max_size=6),
                           min_size=1, max_size=8),
           eol=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_bad_value_names_the_line_its_row_starts_on(self, tmp_path_factory,
                                                        labels, eol):
        # the csv module's own count of the lines before the bad row
        text = eol.join(["x,d,y"] + ['"%s",1,0.5' % label.replace('"', '""')
                                     for label in labels]) + eol
        reader = csv.reader(io.StringIO(text, newline=""))
        assert len(list(reader)) == 1 + len(labels)
        path = write(tmp_path_factory.mktemp("csv"), text + "b,1,abc" + eol)
        with pytest.raises(ParseError, match=error_at(reader.line_num + 1, "y")):
            load_micro(path)


# ---------------------------------------------------------------------------
# the numpy fast path against the exact reader
# ---------------------------------------------------------------------------

NUMPY_BLOCK = cells._numpy_block
CSV_READER = csv.reader


def bitwise(value):
    """Comparable form of a table or column in which every float is its
    bytes, so that -0.0, NaN payloads and dtypes count."""
    if dataclasses.is_dataclass(value):
        return [(f.name, bitwise(getattr(value, f.name)))
                for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return [(bitwise(k), bitwise(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [bitwise(v) for v in value]
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def outcome(read, path, fast=True):
    """(the columns `_numpy_block` was given, whether it took every block
    of a nonempty body, the bitwise table or the (class, message) of the
    error `read(path)` gave)."""
    blocks = []

    def numpy_block(rows, columns):
        blocks.append((columns, NUMPY_BLOCK(rows, columns) if fast else None))
        return blocks[-1][1]

    with mock.patch.object(cells, "_numpy_block", numpy_block):
        try:
            result = bitwise(read(path))
        except Exception as exc:
            result = type(exc), str(exc)
    took = bool(blocks) and all(block is not None for _, block in blocks)
    return blocks[0][0] if blocks else None, took, result


def write(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


def assert_same_as_exact(reader, path):
    """The public reader gives the exact reader's table or error, and
    `read_csv` gives the exact reader's columns bitwise, however many
    blocks numpy took.  Returns those columns if numpy took every block
    and `read_csv` raised no error."""
    columns, took, got = outcome(reader.read, path)
    assert got == outcome(reader.read, path, fast=False)[2]
    if columns is None:
        return None
    read = functools.partial(cells.read_csv, columns=columns)
    table = outcome(read, path)[2]
    assert table == outcome(read, path, fast=False)[2]
    return read(path) if took and not isinstance(table, tuple) else None


PLAIN = {"text": ["a", "b", "c1", "1", "2.5"], "binary": ["0", "1"],
         "tau": ["0.5", "-1.25", "", "1e-3"], "adoption": ["2", "3", "inf"],
         "float": ["0.25", "0.5", "1", "1e-3", "-2"]}
FLOATS = ["0", "-0.0", "+1", "10", " 1", "2.5 ", "\t0.5", "1_0", "\uff11",
          "nan", "-nan", "inf", "-inf", "", "abc", "1e308", "1.7e308", "1e400",
          "5e-324", "2.2250738585072014e-308", "\x0c1", "\xa01", "1\u2028",
          "\x851", "\x1c1", "1\x1f", "#1", "0x10"]
ODD = {
    "text": [" pad ", "", "#x", '"a,b"', '"q"', "\xe9", "x\x00y", "say\x0bhi",
             "\ufeffa"],
    "binary": ["+1", "10", " 1", "1 ", "01", "2", "", "0.0", "-0"],
    "tau": FLOATS + ["never", "NaN", "  "],
    "adoption": ["4.0", "2.5", "1", "+2", "", "-inf", "never", "NEVER",
                 "1_0", "nan"],
    "float": FLOATS,
}
KIND = {"label": "text", "x": "text", "unit": "text", "d": "binary",
        "z": "binary", "tau": "tau", "g": "adoption"}
MICRO_HEADERS = [("x", "d"), ("x", "d", "y"), ("x", "d", "z"),
                 ("x", "d", "z", "y")]


FLAWS = ["header", "quote", "separator", "nul", "lone-cr", "blank-row",
         "spaces-row", "commas-row", "short-row", "long-row", "hash-row",
         "no-rows", "bad-byte"]


@st.composite
def csv_files(draw):
    """A reader and the bytes of a file for it: rows of plain tokens, odd
    ones and any float's repr (extreme and subnormal ones too), with at
    most one of the `FLAWS`, so that a flaw the fast path missed would
    show in an otherwise plain file."""
    name = draw(st.sampled_from(sorted(READERS)))
    header = list(READERS[name].header)
    if name == "micro":
        header = list(draw(st.sampled_from(MICRO_HEADERS)))
    kinds = [KIND.get(col, "float") for col in header]
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = []
        for kind in kinds:
            pick = draw(st.integers(0, 19))
            row.append(draw(
                st.sampled_from(ODD[kind]) if pick == 0 else
                st.floats().map(repr) if pick < 5 and kind != "binary" else
                st.sampled_from(PLAIN[kind])))
        rows.append(row)
    flaw = draw(st.sampled_from([None] * 4 + FLAWS))
    at, col = draw(st.integers(0, len(rows) - 1)), draw(
        st.integers(0, len(header) - 1))
    if flaw == "header":
        header[col] = draw(st.sampled_from(["", "P", "y0", "x,y", "#"]))
    elif flaw in ("quote", "separator", "nul"):
        rows[at][col] = {"quote": '"%s"', "nul": "%s\x00",
                         "separator": draw(st.sampled_from(
                             ["\x1c%s", "%s\x1f"]))}[flaw] % rows[at][col]
    elif flaw and flaw.endswith("-row"):
        rows.insert(at, {"blank-row": [""], "spaces-row": ["  "],
                         "commas-row": [" "] * len(header),
                         "short-row": rows[at][:-1],
                         "long-row": rows[at] + ["1"],
                         "hash-row": ["#"] + rows[at][1:]}[flaw])
    elif flaw == "no-rows":
        rows = []
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["# comment"] * draw(st.integers(0, 2)) + [",".join(header)] + [
        ",".join(row) for row in rows]
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if flaw == "lone-cr":
        cut = draw(st.integers(0, text.count(eol) - 1))
        parts = text.split(eol)
        text = eol.join(parts[:cut + 1]) + "\r" + eol.join(parts[cut + 1:])
    data = text.encode()
    if flaw == "bad-byte":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return name, data


class TestFastPath:
    @settings(max_examples=400, deadline=None)
    @given(case=csv_files())
    def test_agrees_with_the_exact_reader(self, tmp_path_factory, case):
        name, data = case
        path = write(tmp_path_factory.mktemp("csv"), data)
        assert_same_as_exact(READERS[name], path)

    @pytest.mark.parametrize("name", READERS)
    def test_plain_files_take_it(self, tmp_path, name):
        r = READERS[name]
        for eol in ("\n", "\r\n"):
            path = write(tmp_path, r.text(comments=2, eol=eol))
            assert assert_same_as_exact(r, path) is not None

    def test_odd_tokens_that_both_readers_take(self, tmp_path):
        r = READERS["micro"]
        rows = with_value(r, 0, "y", "-0.0", with_value(r, 1, "y", "5e-324"))
        rows[2][1:] = " 1", "\x1c0", "1e300\x1f"
        path = write(tmp_path, r.text(rows))
        assert assert_same_as_exact(r, path) is not None

    @pytest.mark.parametrize("text", [
        "x,d,y\na,1,0.5\nb,0,1.0,7\nc,1\n",      # long and short rows
        "x,d,y\na,1,0.5\nb,0,1.0,7\n",           # an extra field
        'x,d,y\n"a",1,0.5\nb,0,1.0\n',            # a quote
        "x,d,y\na,1,0.5\rb,0,1.0\n",              # a lone CR
        "x,d,y\na,1,0.5\n  \nb,0,1.0\n",          # a whitespace-only row
        "x,d,y\na,1,0.5\n\nb,0,1.0\n",            # a blank row
        "x,d,y\na,1,0.5\nb,0\n",                  # a short row
        "x,d,y\na,1,%s1\nb,0,1.0\n" % (" " * (1 << 17)),  # a long field
        "x,d,y\na\x00,1,0.5\nb,0,1.0\n",          # a NUL
        b"x,d,y\n\xff,1,0.5\nb,0,1.0\n",          # bytes that do not decode
        "x,d,y\na,1,1_0\nb,0,1.0\n",              # float takes it, numpy not
        "x,d\na,1\n , \nb,7\n",                   # a blank row, then a bad 0/1
        "# a\rb\nx,d,y\na,1,0.5\nb,0,1.0\n",      # a lone CR in a comment
        "# a\r\rx,d,y\na,1,0.5\nb,0,1.0\n",
        "x,d,y\n",                               # a header and no rows
        "x,d,y",
    ], ids=["long-and-short", "extra", "quote", "lone-cr", "spaces-row",
            "blank-row", "short-row", "long-field", "nul", "undecodable",
            "underscore", "blank-row-then-bad-bit", "lone-cr-in-comment",
            "lone-crs-ending-comment", "header-only",
            "header-only-without-newline"])
    def test_declines(self, tmp_path, text):
        path = write(tmp_path, text)
        assert assert_same_as_exact(READERS["micro"], path) is None

    @pytest.mark.parametrize("text, line, col", [
        ("x,d,y\na,+1,0.5\nb,0,1.0\n", 2, "d"),    # not exactly 0/1
        ("x,d,y\na,1,0.5\nb,10,1.0\n", 3, "d"),
        ("x,d\na,1\nb,7\n , \n", 3, "d"),          # then a blank row
        ("x,d,z\na,1,0\nb,2,1\nc,1,2\n", 3, "d"),  # the earliest row wins
        ("x,d,z\na,1,0\nb,1,2\nc,2,1\n", 3, "z"),
        ("x,d,z\na,1,0\nb,2,2\n", 3, "d"),        # the leftmost on a tie
    ], ids=["plus-one", "ten", "bad-bit-then-blank-row", "earlier-d",
            "earlier-z", "tie"])
    def test_reports_a_bad_value_from_the_block(self, tmp_path, text, line,
                                                col):
        # numpy tokenizes the block, and its parsers raise the exact
        # reader's error
        path = write(tmp_path, text)
        assert outcome(READERS["micro"].read, path)[1]
        assert assert_same_as_exact(READERS["micro"], path) is None
        with pytest.raises(ParseError, match=error_at(line, col)):
            READERS["micro"].read(path)

    @pytest.mark.parametrize("label", ["a", '"a"'], ids=["plain", "quoted"])
    def test_one_open_and_one_header_per_read(self, tmp_path, label):
        # the quoted label declines the body after its header was read
        r = READERS["micro"]
        path = write(tmp_path, r.text(with_value(r, 0, "x", label)))
        opened, headers = [], []

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def columns(path, header):
            headers.append(header)
            return data_io._micro_columns(path, header)

        with mock.patch.object(cells, "open", counted_open, create=True):
            table = cells.read_csv(path, columns)
        assert opened == [path] and headers == [list(r.header)]
        assert table["x"][0] == "a"

    @pytest.mark.parametrize("name", READERS)
    def test_empty_body_declines_without_a_warning(self, tmp_path, name):
        r = READERS[name]
        path = write(tmp_path, r.text(rows=[]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_same_as_exact(r, path) is None
            with pytest.raises(SchemaError, match="no data rows"):
                r.read(path)

    @pytest.mark.parametrize("name", READERS)
    def test_blank_rows_only_are_no_data_rows(self, tmp_path, name):
        # more blank rows than a small block holds, in every form
        r = READERS[name]
        path = write(tmp_path, r.text(rows=[]) + "\n  \n" + " ,\t" * 3 + "\n" * 20)
        assert assert_same_as_exact(r, path) is None
        with pytest.raises(SchemaError, match="no data rows"):
            r.read(path)

    # the cases below put given rows where the first block of the body
    # ends (`first_block_ends_with`), at either block size

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_block_ends_between_cr_and_lf(self, tmp_path, eol):
        # a CRLF row ends the first block: the file is read with
        # newline="", so its CR and LF stay one line end, which no block
        # splits
        r = READERS["micro"]
        row = "a,1,0,0.5\r\n"
        body = first_block_ends_with(row, eol=eol) + "b,0,1,1.5" + eol
        path = write(tmp_path, ",".join(r.header) + eol + body)
        assert assert_same_as_exact(r, path) is not None
        assert numpy_blocks(r, path)[0][-1] == row

    @pytest.mark.parametrize("past", [0, 1, 8])
    def test_file_ends_without_a_newline_near_a_block_end(self, tmp_path,
                                                          past):
        # the file ends `past` rows after the first block does
        r = READERS["micro"]
        body = first_block_ends_with("a,1,0,0.5\n") + "b,0,1,1.5\n" * past
        path = write(tmp_path, ",".join(r.header) + "\n" + body.rstrip("\n"))
        assert assert_same_as_exact(r, path) is not None
        assert numpy_blocks(r, path)[0][-1] == "a,1,0,0.5" + "\n" * bool(past)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_multibyte_label_across_a_block_end(self, tmp_path, cut):
        # the last `cut` rows of the first block have a multibyte label
        r = READERS["micro"]
        row = "\u65e5\u672c\U0001f600,1,0,0.5\n"
        path = write(tmp_path, ",".join(r.header) + "\n"
                     + first_block_ends_with(*[row] * cut) + "b,0,1,1.5\n")
        fast = assert_same_as_exact(r, path)
        step = len(numpy_blocks(r, path)[0])
        assert fast is not None and fast["x"][step - cut:] == [row[:3]] * cut + ["b"]

    def test_line_longer_than_a_block(self, tmp_path):
        # a line longer than the csv field limit is declined; the csv
        # module reads it if its fields are within the limit
        r = READERS["micro"]
        limit = csv.field_size_limit()
        for size in limit - 4, limit + 1:
            path = write(tmp_path, r.text([("a", "1", "0", "0.5"),
                                           ("x" * size, "0", "1", "1.5"),
                                           ("b", "1", "1", "2.5")]))
            assert assert_same_as_exact(r, path) is None
        with pytest.raises(ParseError, match="field larger than field limit"):
            r.read(path)

    # the cases below span several blocks at SMALL_BLOCK fields

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_block_ends_at_every_offset_of_a_row(self, tmp_path, eol):
        # bodies of one row and of a row either side of one and two
        # blocks put the file's end at each offset of a block
        r = READERS["micro"]
        step = max(1, cells._BLOCK_FIELDS // len(r.header))
        for n in sorted({1, step - 1, step, step + 1, 2 * step, 2 * step + 1}
                        - {0}):
            path = write(tmp_path, r.text([("c", "1", "0", "0.5")] * n, eol=eol))
            assert assert_same_as_exact(r, path) is not None
            assert len(numpy_blocks(r, path)) == -(-n // step)

    def test_bad_token_in_the_last_block(self, tmp_path):
        r = READERS["micro"]
        rows = list(r.rows) * 10
        rows[-1] = ("a", "1", "0", "abc")
        path = write(tmp_path, r.text(rows, comments=1))
        assert assert_same_as_exact(r, path) is None
        with pytest.raises(ParseError, match=error_at(32, "y")):
            r.read(path)

    def test_line_numbers_run_on_across_csv_blocks(self, tmp_path):
        # labels quoted around a line break in every block the csv module
        # reads; the bad row's line counts each of those breaks
        r = READERS["micro"]
        rows = [('"a\nb"' if i % 2 else "a", "1", "0", "0.5")
                for i in range(40)] + [("a", "1", "0", "abc")]
        path = write(tmp_path, r.text(rows))
        assert assert_same_as_exact(r, path) is None
        with pytest.raises(ParseError, match=error_at(2 + 40 + 20, "y")):
            r.read(path)

    @pytest.mark.parametrize("name", READERS)
    def test_last_row_without_a_newline(self, tmp_path, name):
        r = READERS[name]
        rows = r.rows if name == "groups" else list(r.rows) * 8
        path = write(tmp_path, r.text(rows).rstrip("\n"))
        assert assert_same_as_exact(r, path) is not None

    def test_comment_lines_before_the_header(self, tmp_path):
        r = READERS["micro"]
        text = "".join("# comment %s\n" % ("#" * i)
                       for i in range(SMALL_BLOCK)) + r.text(list(r.rows) * 8)
        path = write(tmp_path, text)
        assert assert_same_as_exact(r, path) is not None

    def test_long_and_short_rows_in_different_blocks(self, tmp_path):
        # the field counts balance over the file, not within a block
        r = READERS["micro"]
        rows = [list(row) for row in r.rows * 8]
        rows[1].append("7")
        rows[-2].pop()
        path = write(tmp_path, r.text(rows))
        assert assert_same_as_exact(r, path) is None
        with pytest.raises(ParseError, match="line 3: expected 4 fields"):
            r.read(path)


SMALL_BLOCK = 12  # fields: three rows of x,d,z,y, two of a panel's


def first_block_ends_with(*rows, eol="\n"):
    """Rows x,d,z,y ending in `rows`, as many as the first block of the
    body holds."""
    step = max(1, cells._BLOCK_FIELDS // 4)
    return ("f,1,0,0.5" + eol) * (step - len(rows)) + "".join(rows)


def numpy_blocks(reader, path):
    """The lines of each block `_numpy_block` is given as `reader` reads
    `path`."""
    blocks = []

    def numpy_block(rows, columns):
        blocks.append(rows)
        return NUMPY_BLOCK(rows, columns)

    with mock.patch.object(cells, "_numpy_block", numpy_block):
        reader.read(path)
    return blocks


class TestFastPathInSmallBlocks(TestFastPath):
    """Every fast-path test again, with blocks of a few rows each."""

    @pytest.fixture(autouse=True, scope="class")
    def small_blocks(self):
        with mock.patch.object(cells, "_BLOCK_FIELDS", SMALL_BLOCK):
            yield

    def test_each_line_is_tokenized_once(self, tmp_path):
        # the first blocks are plain and go to numpy; a quoted label in a
        # later one declines it, and the csv module reads from that block on
        r = READERS["micro"]
        rows = list(r.rows) * 8
        rows[12] = ('"q"', "1", "0", "0.5")
        text = r.text(rows, comments=3)
        lines = text.splitlines(keepends=True)
        blocks, tokenized = [], []

        def numpy_block(rows, columns):
            blocks.append((rows, NUMPY_BLOCK(rows, columns)))
            return blocks[-1][1]

        def csv_reader(lines):
            return CSV_READER(tokenized.append(line) or line for line in lines)

        path = write(tmp_path, text)
        with mock.patch.object(cells, "_numpy_block", numpy_block), \
                mock.patch.object(csv, "reader", csv_reader):
            sample = r.read(path)
        *taken, (declined, none) = blocks
        assert all(block is not None for _, block in taken) and none is None
        body = [line for rows, _ in blocks for line in rows]
        assert body == lines[4:4 + len(body)] and lines[4 + 12] in declined
        assert tokenized == [lines[3]] + lines[4 + len(body) - len(declined):]
        assert sample.n == len(rows) and "q" in sample.labels
        assert assert_same_as_exact(r, path) is None
        rows[20] = ("a", "1", "0", "abc")
        path = write(tmp_path, r.text(rows, comments=3))
        assert assert_same_as_exact(r, path) is None
        with pytest.raises(ParseError, match=error_at(3 + 2 + 20, "y")):
            r.read(path)

    # hypothesis runs a test function from one class only
    @settings(max_examples=400, deadline=None)
    @given(case=csv_files())
    def test_agrees_with_the_exact_reader(self, tmp_path_factory, case):
        name, data = case
        path = write(tmp_path_factory.mktemp("csv"), data)
        assert_same_as_exact(READERS[name], path)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

LABELS = ["a", "b,c", 'say "hi"', " pad ", "line\nbreak"] + [
    "k%d" % i for i in range(15)]


def seeded_tables():
    rng = np.random.default_rng(20240417)
    k = len(LABELS)
    tau = rng.normal(size=k)
    tau[[2, 7]] = np.nan
    y = rng.normal(size=1000)
    y[:4] = [1e-7, -1.5e22, 0.0, -0.0]
    x = np.asarray(LABELS)[rng.integers(0, k, size=1000)]
    d = rng.integers(0, 2, size=1000)
    z = rng.integers(0, 2, size=1000)
    pz = rng.uniform(0.05, 0.95, size=k)
    pc = rng.uniform(0, 1, size=k)
    return {
        "cells": CellTable(LABELS, rng.dirichlet(np.ones(k)),
                           rng.normal(size=k), rng.uniform(size=k), tau),
        "propensity": PropensityTable(LABELS, rng.dirichlet(np.ones(k)),
                                      rng.uniform(0.05, 0.95, size=k)),
        "iv": IvCellTable(LABELS, rng.dirichlet(np.ones(k)), pz,
                          pc * pz * (1 - pz) * rng.choice([-1.0, 1.0], k), pc),
        "groups": GroupDistribution(
            6, {2: 0.1, 3: 0.2, 5: 0.3, 6: 0.15, math.inf: 0.25}),
        "micro": MicroSample(x=x, d=d, z=z, y=y),
        "micro_xd": MicroSample(x=x, d=d),
        "micro_xdy": MicroSample(x=x, d=d, y=y),
        "panel": PanelData(
            ["u%d" % i for i in range(28)] + ["u,1", 'u"q'],
            rng.choice([2.0, 3.0, math.inf], size=30),
            rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-8, 8, (30, 4))),
    }


WRITER_SHA256 = {
    "cells":
        "9a9a9a73f17d5de1c2d5618bcb8f4b868a4d7232dda1d027784b71577770216b",
    "propensity":
        "fc071de03e2d36e1e2ded1ec73e276d009b3c1e9397717c94a8ef4d89b73ecd6",
    "iv":
        "12cd02b4728efb2fcfa110814265e3a6a55d7227d6661b4ab29a5a6c525274fb",
    "groups":
        "87760c2ebab59e55a0dd9e0634de1933f72d32195731a80fab8984a82ecef45e",
    "micro":
        "e55948b47306229c84745f075f0b9e23fa013cd5a72f8b9577477a94e098345a",
    "micro_xd":
        "b8744ad00d38becc1332b24fb1af2698442c28111944aaf878408619d37773af",
    "micro_xdy":
        "edcc8c3e1f1b183b64a3d44df3301a57dc32b01330af902e0a7716428a59e12c",
    "panel":
        "0e87171b2ad5704fef33034194c2c10b483bfaf4f3e49237bebc7f19d0cc1fa3",
}


class TestWriters:
    @pytest.mark.parametrize("name", WRITER_SHA256)
    def test_bytes_are_pinned(self, tmp_path, name):
        path = tmp_path / "t.csv"
        seeded_tables()[name].to_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            WRITER_SHA256[name]

    @pytest.mark.parametrize("name", ["micro", "panel"])
    def test_file_like_sink_gets_the_same_text(self, tmp_path, name):
        table = seeded_tables()[name]
        path = tmp_path / "t.csv"
        table.to_csv(path)
        buf = io.StringIO(newline="")
        table.to_csv(buf)
        assert buf.getvalue().encode() == path.read_bytes()

    @pytest.mark.parametrize("name", ["cells", "propensity", "iv", "micro"])
    def test_quoted_labels_round_trip(self, tmp_path, name):
        table = seeded_tables()[name]
        path = tmp_path / "t.csv"
        table.to_csv(path)
        back = READERS[name].read(path)
        got = back.x if name == "micro" else back.labels
        want = [s.strip() for s in
                (table.x if name == "micro" else table.labels)]
        assert list(got) == want


# ---------------------------------------------------------------------------
# value checks and atomic writes
# ---------------------------------------------------------------------------


class TestNonFiniteValues:
    @pytest.mark.parametrize("name,col", [
        ("cells", "p"), ("cells", "a"), ("cells", "w0"),
        ("propensity", "mass"), ("propensity", "p"),
        ("iv", "mass"), ("iv", "pz"), ("iv", "cov_dz"), ("iv", "pc"),
        ("groups", "share"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejected(self, tmp_path, name, col, value):
        r = READERS[name]
        with pytest.raises(InvalidDesign, match="finite"):
            read(tmp_path, r, r.text(with_value(r, 1, col, value)))

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_tau_rejected(self, tmp_path, value):
        r = READERS["cells"]
        with pytest.raises(InvalidDesign, match="tau values must be finite"):
            read(tmp_path, r, r.text(with_value(r, 1, "tau", value)))

    def test_nan_tau_means_missing(self, tmp_path):
        r = READERS["cells"]
        design = read(tmp_path, r, r.text(with_value(r, 1, "tau", "nan")))
        assert np.isnan(design.tau[1]) and design.tau[0] == 0.5


class TestOpenAtomic:
    def test_failure_mid_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")
        with pytest.raises(RuntimeError):
            with open_atomic(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("disk full")
        assert path.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")
        with open_atomic(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_non_regular_files_are_written_directly(self):
        with open_atomic(os.devnull) as fh:
            fh.write("x")

    def test_streams_are_written_directly(self):
        buf = io.StringIO()
        with open_atomic(buf) as fh:
            fh.write("x")
        assert buf.getvalue() == "x" and not buf.closed

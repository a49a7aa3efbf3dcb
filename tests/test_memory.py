"""Memory of the micro-data path and of the TWFE builders.

The CSV writer, the reader (of a plain file, of one whose first or last
label is quoted, and of a pipe), the estimator and the bootstrap hold
a bounded block of Python objects beyond the arrays they return or
evaluate whole; the time-constant TWFE builder holds vectors over its
periods, not a matrix of periods by groups.  Each test takes the
tracemalloc peak of one call at two sizes and bounds how much it grows
by a small multiple of how much those arrays grow.  A string kept per
row, about 50 bytes a row or more, exceeds every bound; so do the
file's text and a str array of labels.
"""

import math
import os
import shutil
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from estimand_audit.data_io import (DgpSpec, MicroSample, load_micro, load_panel,
                                    simulate)
from estimand_audit.designs import GroupDistribution, twfe_h_design
from estimand_audit.inference import (
    BootstrapConfig,
    bootstrap_ci,
    estimate_design,
)

K = 50


def iv_sample(n):
    """n rows of a K-cell instrumented sample x,d,z,y."""
    spec = DgpSpec.from_json_dict({"family": "iv", "seed": 11, "cells": [
        {"label": "c%d" % i, "mass": 1 / K, "pz": 0.3 + 0.4 * i / K,
         "pc": 0.4, "pa": 0.1, "tau": 1.0} for i in range(K)]})
    return simulate(spec, n)


def nbytes(sample):
    """What the sample holds: its labels, a code per row and its columns."""
    return sum(v.nbytes for v in (sample.labels, sample.codes, sample.d,
                                  sample.z, sample.y))


def traced_peak(call):
    """(call(), the peak of the memory it traced on top of the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def samples():
    return {n: iv_sample(n) for n in (50_000, 200_000)}


def test_writer_holds_a_block(tmp_path, samples):
    small, large = samples.values()
    peaks = [traced_peak(lambda: s.to_csv(tmp_path / "s.csv"))[1]
             for s in (small, large)]
    # the writer formats a block at a time, so its peak does not grow
    assert peaks[1] - peaks[0] <= 0.5 * (nbytes(large) - nbytes(small))


@pytest.fixture(scope="module")
def micro_files(tmp_path_factory, samples):
    paths = []
    for n, sample in samples.items():
        paths.append(tmp_path_factory.mktemp("micro") / ("s%d.csv" % n))
        sample.to_csv(paths[-1])
    return paths


def quoted(path, where):
    """A copy of a sample file whose `where` ("first" or "last") label is
    quoted, so that the blocks from that one on go to the csv module."""
    copy = path.with_name("%s_%s" % (where, path.name))
    text = path.read_bytes().decode()
    at = (text.index("\n") if where == "first" else text.rindex("\n", 0, -1)) + 1
    copy.write_bytes((text[:at] + '"' + text[at:].replace(",", '",', 1))
                     .encode())
    return copy


def piped(path):
    """load_micro of `path` through a named pipe that another thread
    writes in small chunks."""
    pipe = path.with_name("pipe_" + path.name)
    os.mkfifo(pipe)

    def feed():
        with open(path, "rb") as src, open(pipe, "wb") as dst:
            shutil.copyfileobj(src, dst, 1 << 16)

    try:
        with ThreadPoolExecutor(1) as pool:
            fed = pool.submit(feed)
            try:
                return load_micro(pipe)
            finally:
                fed.result(timeout=60)
    finally:
        os.remove(pipe)


def test_reader_holds_a_block(samples, micro_files):
    inputs = [(load_micro, micro_files)] + [
        (load_micro, [quoted(p, where) for p in micro_files])
        for where in ("first", "last")]
    if hasattr(os, "mkfifo"):
        inputs.append((piped, micro_files))
    small, large = samples.values()
    for read, paths in inputs:
        (back, low), (_, high) = (traced_peak(lambda: read(p)) for p in paths)
        assert back.codes.itemsize == 1  # 50 labels
        assert np.array_equal(back.codes, small.codes)
        # a reference per row to its label (8 B) and the outcome's blocks
        # as they are joined (8 B) are about 1.7 times a row of the arrays
        # returned (11 B): the 1-B code, d, z and the 8-B outcome
        assert high - low <= 2.25 * (nbytes(large) - nbytes(small))


def test_shorter_rows_hold_no_more(tmp_path, samples, micro_files):
    # a block is bounded in fields, so a file without y, whose rows are
    # shorter, reads in fewer bytes at once than the file with it
    s = samples[200_000]
    xdz = tmp_path / "xdz.csv"
    MicroSample(s.x, s.d, s.z).to_csv(xdz)
    peaks = [traced_peak(lambda: load_micro(p))[1] for p in (xdz, micro_files[1])]
    assert peaks[0] <= peaks[1]


def test_estimator_holds_an_index_per_row(samples):
    small, large = samples.values()
    low, high = (traced_peak(lambda: estimate_design(s, "tsls"))[1]
                 for s in (small, large))
    # each row's (cell, z, d) index, 8 B a row, below the 11 B it reads
    assert high - low <= 1 * (nbytes(large) - nbytes(small))


def staggered_panel(n, t=20):
    spec = DgpSpec.from_json_dict({
        "family": "staggered_did", "seed": 5, "t": t, "trend_slope": 0.1,
        "groups": [{"g": g, "share": 1 / t, "tau": 1.0}
                   for g in range(2, t + 1)] + [{"g": "inf", "share": 1 / t}]})
    return simulate(spec, n)


def test_panel_reader_holds_a_block(tmp_path):
    sizes, peaks = [], []
    for n in (2000, 8000):
        path = tmp_path / ("p%d.csv" % n)
        staggered_panel(n).to_csv(path)
        panel, peak = traced_peak(lambda: load_panel(path))
        sizes.append(panel.g.nbytes + panel.y.nbytes + sys.getsizeof(panel.units)
                     + sum(map(sys.getsizeof, panel.units)))
        peaks.append(peak)
    # the outcome columns as their blocks are joined, and once more as
    # they are stacked into the (n, T) matrix: about 1.4 times the panel
    assert peaks[1] - peaks[0] <= 2 * (sizes[1] - sizes[0])


def test_bootstrap_holds_its_perturbations_and_a_block(samples):
    sample = samples[50_000]
    (small, low), (large, high) = (
        traced_peak(lambda: bootstrap_ci(sample, "tsls",
                                         BootstrapConfig(b=b, seed=2)))
        for b in (500, 2000))
    # the draws, and the (B, 3, K) perturbations they are evaluated on
    held = (large.draws.nbytes - small.draws.nbytes) * (1 + 3 * K)
    assert high - low <= 2 * held


def test_twfe_h_holds_vectors_of_its_periods():
    sizes, peaks = [], []
    for t in (500, 2000):  # one adoption group per period
        gd = GroupDistribution(t, {**{g: 1 / t for g in range(2, t + 1)},
                                   math.inf: 1 / t})
        design, peak = traced_peak(lambda: twfe_h_design(gd))
        sizes.append(design.p.nbytes + design.a.nbytes + design.w0.nbytes)
        peaks.append(peak)
    # F(t), its running sums and one group's tail at a time: about 10
    # times the cells' growth, where (T, G) masks are about 2,500 times
    assert peaks[1] - peaks[0] <= 50 * (sizes[1] - sizes[0])

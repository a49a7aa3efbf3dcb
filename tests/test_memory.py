"""Memory of the micro-data path.

The CSV writer, the plain-file reader and the bootstrap hold a bounded
block of Python objects beyond the arrays they return or evaluate whole.
Each test takes the tracemalloc peak of one call at two sizes and bounds
how much it grows by a small multiple of how much those arrays grow.  A
string kept per row, about 170 bytes a row in all, exceeds every bound.
"""

import tracemalloc

import pytest

from estimand_audit.data_io import DgpSpec, load_micro, simulate
from estimand_audit.inference import BootstrapConfig, bootstrap_ci

K = 50


def iv_sample(n):
    """n rows of a K-cell instrumented sample x,d,z,y."""
    spec = DgpSpec.from_json_dict({"family": "iv", "seed": 11, "cells": [
        {"label": "c%d" % i, "mass": 1 / K, "pz": 0.3 + 0.4 * i / K,
         "pc": 0.4, "pa": 0.1, "tau": 1.0} for i in range(K)]})
    return simulate(spec, n)


def nbytes(sample):
    return sum(v.nbytes for v in (sample.x, sample.d, sample.z, sample.y))


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


def test_reader_holds_the_text_and_a_block(tmp_path, samples):
    paths = []
    for n, sample in samples.items():
        paths.append(tmp_path / ("s%d.csv" % n))
        sample.to_csv(paths[-1])
    (small, low), (large, high) = (traced_peak(lambda: load_micro(p))
                                   for p in paths)
    # the file's text, a reference per label and the columns as they are
    # joined are each about as large as the arrays returned
    assert high - low <= 4 * (nbytes(large) - nbytes(small))


def test_bootstrap_holds_its_perturbations_and_a_block(samples):
    sample = samples[50_000]
    (small, low), (large, high) = (
        traced_peak(lambda: bootstrap_ci(sample, "tsls",
                                         BootstrapConfig(b=b, seed=2)))
        for b in (500, 2000))
    # the draws, and the (B, 3, K) perturbations they are evaluated on
    held = (large.draws.nbytes - small.draws.nbytes) * (1 + 3 * K)
    assert high - low <= 2 * held

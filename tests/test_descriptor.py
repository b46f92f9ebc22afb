"""Tests for cluster-occupancy histograms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dam.descriptor import Histogram, compute_histogram
from dam.som import SomGrid


def _histogram_oracle(codebook, wdfs):
    """Tally best-matching units with plain loops, then normalize."""
    bins = [0] * codebook.shape[0]
    for x in wdfs:
        best, best_d = 0, None
        for idx, unit in enumerate(codebook):
            d = float(((unit - x) ** 2).sum())
            if best_d is None or d < best_d:
                best, best_d = idx, d
        bins[best] += 1
    return np.array(bins, dtype=float) / len(wdfs)


class TestComputeHistogram:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 16))
            dim = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            codebook = rng.normal(size=(k, dim))
            wdfs = rng.normal(size=(n, dim))
            grid = SomGrid(rows=1, cols=k, codebook=codebook)
            got = compute_histogram(grid, wdfs)
            assert_array_equal(got.bins, _histogram_oracle(codebook, wdfs))
            assert got.wdf_count == n

    def test_bins_sum_to_one(self):
        rng = np.random.default_rng(1)
        grid = SomGrid(rows=2, cols=3, codebook=rng.normal(size=(6, 4)))
        h = compute_histogram(grid, rng.normal(size=(37, 4)))
        assert abs(h.bins.sum() - 1.0) < 1e-12

    def test_order_of_wdfs_is_irrelevant(self):
        rng = np.random.default_rng(2)
        grid = SomGrid(rows=2, cols=2, codebook=rng.normal(size=(4, 5)))
        wdfs = rng.normal(size=(25, 5))
        h1 = compute_histogram(grid, wdfs)
        h2 = compute_histogram(grid, wdfs[::-1])
        assert_array_equal(h1.bins, h2.bins)

    def test_all_mass_lands_on_single_near_unit(self):
        codebook = np.array([[0.0, 0.0], [100.0, 100.0]])
        grid = SomGrid(rows=1, cols=2, codebook=codebook)
        h = compute_histogram(grid, np.random.default_rng(3).normal(size=(10, 2)))
        assert_array_equal(h.bins, [1.0, 0.0])

    def test_rejects_empty_and_mismatched(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            compute_histogram(grid, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            compute_histogram(grid, np.zeros((4, 2)))

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            Histogram(bins=np.zeros((2, 2)), wdf_count=4)
        with pytest.raises(ValueError):
            Histogram(bins=np.zeros(4), wdf_count=0)


"""Tests for cluster-occupancy histograms: `table_bins` and the winners it reads."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dam import descriptor
from dam.descriptor import table_bins
from dam.som import SomGrid


def _winner_oracle(codebook, x):
    """The best-matching unit of x by a plain loop over the units, ties to the lowest."""
    best, best_d = 0, None
    for idx, unit in enumerate(codebook):
        d = float(((unit - x) ** 2).sum())
        if best_d is None or d < best_d:
            best, best_d = idx, d
    return best


def _histogram_oracle(codebook, wdfs):
    """Tally best-matching units with plain loops, then normalize."""
    bins = [0] * codebook.shape[0]
    for x in wdfs:
        bins[_winner_oracle(codebook, x)] += 1
    return np.array(bins, dtype=float) / len(wdfs)


class TestHistogramBins:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 16))
            dim = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            codebook = rng.normal(size=(k, dim))
            wdfs = rng.normal(size=(n, dim))
            grid = SomGrid(rows=1, cols=k, codebook=codebook)
            got = table_bins(grid, wdfs, [n])[0]
            assert_array_equal(got, _histogram_oracle(codebook, wdfs))

            # Several sets of rows of `wdfs[subset]`, rows repeated and out of order.
            sizes = [int(s) for s in rng.integers(1, 6, size=int(rng.integers(1, 5)))]
            subset = rng.integers(0, n, size=sum(sizes))
            rows = wdfs[subset]
            owners, winners = descriptor._set_winners(grid, wdfs, sizes, subset)
            assert_array_equal(owners, [i for i, s in enumerate(sizes) for _ in range(s)])
            assert_array_equal(winners, [_winner_oracle(codebook, x) for x in rows])
            bins = table_bins(grid, wdfs, sizes, subset)
            ends = np.cumsum(sizes)
            for i, end in enumerate(ends):
                assert_array_equal(bins[i], _histogram_oracle(codebook, rows[end - sizes[i]:end]))

            # A set of no rows is the core's to accept and the bins' to refuse.
            at = int(rng.integers(0, len(sizes) + 1))
            zeroed = sizes[:at] + [0] + sizes[at:]
            owners, zeroed_winners = descriptor._set_winners(grid, wdfs, zeroed, subset)
            assert_array_equal(owners, [i for i, s in enumerate(zeroed) for _ in range(s)])
            assert_array_equal(zeroed_winners, winners)
            with pytest.raises(ValueError, match="at least one row"):
                table_bins(grid, wdfs, zeroed, subset)

    def test_bins_sum_to_one(self):
        rng = np.random.default_rng(1)
        grid = SomGrid(rows=2, cols=3, codebook=rng.normal(size=(6, 4)))
        h = table_bins(grid, rng.normal(size=(37, 4)), [37])[0]
        assert abs(h.sum() - 1.0) < 1e-12

    def test_order_of_wdfs_is_irrelevant(self):
        rng = np.random.default_rng(2)
        grid = SomGrid(rows=2, cols=2, codebook=rng.normal(size=(4, 5)))
        wdfs = rng.normal(size=(25, 5))
        h1 = table_bins(grid, wdfs, [25])[0]
        h2 = table_bins(grid, wdfs[::-1], [25])[0]
        assert_array_equal(h1, h2)

    def test_all_mass_lands_on_single_near_unit(self):
        codebook = np.array([[0.0, 0.0], [100.0, 100.0]])
        grid = SomGrid(rows=1, cols=2, codebook=codebook)
        h = table_bins(grid, np.random.default_rng(3).normal(size=(10, 2)), [10])[0]
        assert_array_equal(h, [1.0, 0.0])

    def test_no_sets_give_an_empty_table_without_a_search(self, monkeypatch):
        grid = SomGrid(rows=2, cols=3, codebook=np.zeros((6, 4)))
        monkeypatch.setattr(descriptor, "bmu_batch",
                            lambda g, xs, subset=None: pytest.fail("searched"))
        bins = table_bins(grid, np.zeros((0, 4)), [])
        assert bins.shape == (0, 6) and bins.dtype == np.float64

    def test_rejects_empty_and_mismatched(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            table_bins(grid, np.zeros((0, 3)), [0])
        with pytest.raises(ValueError):
            table_bins(grid, np.zeros((4, 2)), [4])
        for sizes in ([2], [-1, 2], [1, 1, 1]):
            with pytest.raises(ValueError, match="sum to the 1 rows read"):
                descriptor._set_winners(grid, np.zeros((1, 3)), sizes)

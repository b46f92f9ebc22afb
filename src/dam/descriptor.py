"""Action descriptors: normalized cluster-occupancy histograms over a codebook."""

from __future__ import annotations

import numpy as np

from .som import SomGrid, bmu_batch


def pair_counts(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The float64 table of `shape` whose [i, j] counts the positions where
    rows == i and cols == j, tallied by one bincount."""
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(np.float64)


def histogram_bins(grid: SomGrid, wdf_sets) -> np.ndarray:
    """The (sets, units) bins of each (n_i, dim) set, from one winner search over all of them.

    Row i is set i's histogram: bins[i, l] = |{vectors of set i whose
    best-matching unit is l}| / n_i, so each row sums to 1 whatever the codebook.
    No sets give a (0, units) table, without a winner search.
    """
    wdf_sets = [np.asarray(w, dtype=np.float64) for w in wdf_sets]
    if not wdf_sets:
        return np.zeros((0, grid.unit_count))
    for wdfs in wdf_sets:
        if wdfs.ndim != 2 or wdfs.shape[0] == 0:
            raise ValueError(f"wdfs must be a non-empty (n, dim) array, got {wdfs.shape}")
    return table_bins(grid, np.concatenate(wdf_sets), [len(w) for w in wdf_sets])


def table_bins(grid: SomGrid, table: np.ndarray, sizes, subset=None) -> np.ndarray:
    """`histogram_bins` of sets that are runs of rows of one (rows, dim) table.

    Set i is the next sizes[i] rows of ``table[subset]`` (of the whole table
    when `subset` is None), which one winner search reads in place.
    """
    read = len(table) if subset is None else len(subset)
    if min(sizes, default=1) < 1 or sum(sizes) != read:
        raise ValueError(f"set sizes must be >= 1 and sum to the {read} rows read")
    winners = bmu_batch(grid, table) if subset is None else bmu_batch(grid, table, subset=subset)
    sizes = np.asarray(sizes, dtype=np.int64)
    owners = np.repeat(np.arange(len(sizes)), sizes)
    return pair_counts(owners, winners, (len(sizes), grid.unit_count)) / sizes[:, None]

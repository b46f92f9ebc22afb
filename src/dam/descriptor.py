"""Action descriptors: normalized cluster-occupancy histograms over a codebook."""

from __future__ import annotations

import numpy as np

from .som import SomGrid, bmu_batch


def pair_counts(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The float64 table of `shape` whose [i, j] counts the positions where
    rows == i and cols == j, tallied by one bincount."""
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(np.float64)


def _set_winners(grid: SomGrid, table: np.ndarray, sizes, subset=None):
    """(owners, winners): the set index and the best-matching unit of each row read.

    Set i is the next sizes[i] rows of ``table[subset]`` (of the whole table when
    `subset` is None), which one winner search reads in place; no rows read, no search.
    """
    read = len(table) if subset is None else len(subset)
    if min(sizes, default=0) < 0 or sum(sizes) != read:
        raise ValueError(f"set sizes must be >= 0 and sum to the {read} rows read")
    winners = bmu_batch(grid, table, subset=subset) if read else np.zeros(0, np.int64)
    return np.repeat(np.arange(len(sizes)), sizes), winners


def table_bins(grid: SomGrid, table: np.ndarray, sizes, subset=None) -> np.ndarray:
    """The (sets, units) bins of sets of table rows, read as `_set_winners` reads them:
    bins[i, l] = |{rows of set i whose best-matching unit is l}| / sizes[i], so each row
    sums to 1 whatever the codebook. Each set needs a row; no sets give (0, units) bins."""
    if min(sizes, default=1) < 1:
        raise ValueError("every set needs at least one row")
    owners, winners = _set_winners(grid, table, sizes, subset)
    return pair_counts(owners, winners, (len(sizes), grid.unit_count)) / np.reshape(sizes, (-1, 1))

"""Action descriptors: normalized cluster-occupancy histograms over a codebook."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .som import SomGrid, bmu_batch


@dataclass(frozen=True)
class Histogram:
    """Fraction of an action's WDFs won by each codebook unit."""

    bins: np.ndarray
    wdf_count: int

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.float64)
        object.__setattr__(self, "bins", bins)
        if bins.ndim != 1:
            raise ValueError(f"bins must be 1-dimensional, got shape {bins.shape}")
        if self.wdf_count < 1:
            raise ValueError(f"wdf_count must be >= 1, got {self.wdf_count}")


def pair_counts(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The float64 table of `shape` whose [i, j] counts the positions where
    rows == i and cols == j, tallied by one bincount."""
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(np.float64)


def compute_histograms(grid: SomGrid, wdf_sets) -> list[Histogram]:
    """`compute_histogram` of each (n_i, dim) set, from one winner search over all of them.

    Row i of the (sets, units) count table is divided by n_i, the division
    `compute_histogram` makes, so each histogram has the same bins.
    """
    wdf_sets = [np.asarray(w, dtype=np.float64) for w in wdf_sets]
    for wdfs in wdf_sets:
        if wdfs.ndim != 2 or wdfs.shape[0] == 0:
            raise ValueError(f"wdfs must be a non-empty (n, dim) array, got {wdfs.shape}")
    sizes = np.array([len(w) for w in wdf_sets])
    winners = bmu_batch(grid, np.concatenate(wdf_sets))
    owners = np.repeat(np.arange(len(wdf_sets)), sizes)
    bins = pair_counts(owners, winners, (len(wdf_sets), grid.unit_count)) / sizes[:, None]
    return [Histogram(bins=row, wdf_count=int(n)) for row, n in zip(bins, sizes)]


def compute_histogram(grid: SomGrid, wdfs: np.ndarray) -> Histogram:
    """Quantize each WDF to its best-matching unit and normalize the tally.

    bins[l] = |{vectors whose best-matching unit is l}| / len(wdfs); the bins
    therefore sum to 1 regardless of the codebook.
    """
    return compute_histograms(grid, [wdfs])[0]

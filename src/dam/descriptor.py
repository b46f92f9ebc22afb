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


def compute_histogram(grid: SomGrid, wdfs: np.ndarray) -> Histogram:
    """Quantize each WDF to its best-matching unit and normalize the tally.

    bins[l] = |{vectors whose best-matching unit is l}| / len(wdfs); the bins
    therefore sum to 1 regardless of the codebook.
    """
    wdfs = np.asarray(wdfs, dtype=np.float64)
    if wdfs.ndim != 2 or wdfs.shape[0] == 0:
        raise ValueError(f"wdfs must be a non-empty (n, dim) array, got {wdfs.shape}")
    winners = bmu_batch(grid, wdfs)
    bins = np.bincount(winners, minlength=grid.unit_count).astype(np.float64)
    return Histogram(bins=bins / wdfs.shape[0], wdf_count=wdfs.shape[0])


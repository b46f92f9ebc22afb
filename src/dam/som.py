"""Online Kohonen self-organizing map over a rectangular unit grid.

Deliberately hand-rolled rather than pulled off the shelf: the clustering
contract here (seeded sample-based initialization, per-epoch seeded visiting
order, lowest-index tie breaking, exponential decay of learning rate and
neighborhood radius) must be reproducible bit-for-bit for a given seed.

The codebook container doubles as the pluggable-clusterer seam: anything able
to produce a (units, dim) matrix — e.g. k-means centers via
``SomGrid.from_vectors`` — can stand in for the trained map downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_EPOCHS = 20
DEFAULT_LEARNING_RATE = (0.5, 0.01)
DEFAULT_FINAL_RADIUS = 0.5

# Floats per (rows, K) score block of the nearest-unit search: 2 MiB, so a
# block stays cache-sized and the search needs no (rows, K, dim) buffer.
_CHUNK_BUDGET = 262_144
# Below this ||x||^2 + max ||c||^2 neither a GEMM score nor a direct-form
# distance (at most twice that sum) can overflow, so the rounding bound holds.
_SIZE_LIMIT = np.finfo(np.float64).max / 8
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _rounding_bound(dim: int, size):
    """Rounding slack E = 4 (dim + 2) (eps size + tiny) of a winner search.

    Two float64 evaluations of the squared distances over `dim` coordinates,
    each a sum of at most dim + 2 rounded terms whose magnitudes total at
    most `size`, may order two units differently only if their values lie
    within E of each other (the `tiny` term covers subnormals). `_min_sqdist`
    and `train_som` state the argument for their own pair of evaluations.
    """
    return 4.0 * (dim + 2) * (_EPS * size + _TINY)


@dataclass(frozen=True)
class SomTrainParams:
    """Training schedule. Rates and radii decay exponentially from start to end."""

    epochs: int = DEFAULT_EPOCHS
    learning_rate_start: float = DEFAULT_LEARNING_RATE[0]
    learning_rate_end: float = DEFAULT_LEARNING_RATE[1]
    radius_start: float | None = None  # None -> max(rows, cols) / 2
    radius_end: float = DEFAULT_FINAL_RADIUS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate_start <= 1.0:
            raise ValueError(
                f"learning_rate_start must be in (0, 1], got {self.learning_rate_start}"
            )
        if not 0.0 < self.learning_rate_end <= self.learning_rate_start:
            raise ValueError(
                "learning_rate_end must be in (0, learning_rate_start], got "
                f"{self.learning_rate_end}"
            )
        if self.radius_end <= 0.0:
            raise ValueError(f"radius_end must be > 0, got {self.radius_end}")
        if self.radius_start is not None and self.radius_start < self.radius_end:
            raise ValueError(
                f"radius_start ({self.radius_start}) must be >= radius_end "
                f"({self.radius_end})"
            )


@dataclass
class SomGrid:
    """A trained (or just assembled) codebook on a rows x cols grid.

    Unit l corresponds to grid cell (l // cols, l % cols) — row-major.
    """

    rows: int
    cols: int
    codebook: np.ndarray  # (rows * cols, dim)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        codebook = np.asarray(self.codebook, dtype=np.float64)
        self.codebook = codebook
        if codebook.ndim != 2:
            raise ValueError(f"codebook must be 2-dimensional, got shape {codebook.shape}")
        if codebook.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"codebook has {codebook.shape[0]} rows, expected "
                f"{self.rows} * {self.cols} = {self.rows * self.cols}"
            )
        if not np.isfinite(codebook).all():
            raise ValueError("codebook contains non-finite values")

    @property
    def unit_count(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.codebook.shape[1]

    def unit_coordinates(self) -> np.ndarray:
        """(units, 2) array of (row, col) grid positions, row-major order."""
        idx = np.arange(self.unit_count)
        return np.stack([idx // self.cols, idx % self.cols], axis=1).astype(np.float64)

    @classmethod
    def from_vectors(cls, vectors: np.ndarray) -> "SomGrid":
        """Wrap externally produced cluster centers (k-means etc.) as a 1 x K grid."""
        vectors = np.asarray(vectors, dtype=np.float64)
        return cls(rows=1, cols=vectors.shape[0], codebook=vectors)


def _check_query(grid: SomGrid, vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != grid.dim:
        raise ValueError(
            f"query dimension {vectors.shape[-1]} does not match codebook "
            f"dimension {grid.dim}"
        )
    finite = np.isfinite(vectors).all(axis=-1)
    if not finite.all():
        row = int(np.argmin(finite.reshape(-1)))
        raise ValueError(f"query row {row} contains non-finite values")
    return vectors


def _min_sqdist(codebook: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmin and min of squared distances to the codebook rows.

    Scores blocks of `_CHUNK_BUDGET // K` rows with one GEMM: the score
    ``h_j = ||c_j||^2 / 2 - x.c_j`` is half of ``||c_j||^2 - 2 x.c_j`` and
    orders the units like the squared distance ``d_j = ||x||^2 + 2 h_j``.
    Rounding moves ``2 h_j`` and the direct form ``sum((c_j - x)**2)`` by at
    most ``E = 4 (dim + 2) eps (||x||^2 + max_j ||c_j||^2)`` together (plus an
    absolute term for subnormals: `_rounding_bound`), in any summation order.
    So a row whose two lowest scores are more than E apart (2E in units of
    d) has the same winner under the direct form. Every other row (exact
    ties and duplicated units included, and rows too large for the bound,
    see `_SIZE_LIMIT`) is rescored over all K units with the direct form and
    `np.argmin`. The winner is therefore the direct form's argmin, ties to
    the lowest index, whatever the BLAS threading, and the returned distance
    is the direct form's, to that winner.
    """
    n, dim = xs.shape
    k = codebook.shape[0]
    chunk = max(1, _CHUNK_BUDGET // k)
    c2 = np.einsum("ij,ij->i", codebook, codebook)
    half_c2 = 0.5 * c2
    c2_max = c2.max()
    best = np.empty(n, dtype=np.int64)
    best_d = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        block = xs[lo:hi]
        rows = np.arange(hi - lo)
        scores = block @ codebook.T
        np.subtract(half_c2, scores, out=scores)
        winner = np.argmin(scores, axis=1)
        first = scores[rows, winner]
        scores[rows, winner] = np.inf
        second = scores.min(axis=1)
        size = np.einsum("ij,ij->i", block, block) + c2_max
        sure = (second - first > _rounding_bound(dim, size)) & (size < _SIZE_LIMIT)
        for i in np.flatnonzero(~sure):
            winner[i] = np.argmin(((codebook - block[i]) ** 2).sum(axis=-1))
        diff = block - codebook[winner]
        best[lo:hi] = winner
        best_d[lo:hi] = (diff * diff).sum(axis=-1)
    return best, best_d


def bmu_batch(grid: SomGrid, xs: np.ndarray) -> np.ndarray:
    """Best-matching unit of each row of xs; exact ties go to the lowest index.

    The winner is always the argmin of the direct form ``sum((c - x)**2)``:
    the fast GEMM scores only decide rows whose margin beats their rounding
    bound, and every near-tie is rescored directly (see `_min_sqdist`).
    Non-finite query rows are rejected with a ValueError.
    """
    xs = _check_query(grid, np.atleast_2d(xs))
    return _min_sqdist(grid.codebook, xs)[0]


def bmu(grid: SomGrid, x: np.ndarray) -> int:
    """Index of the best-matching unit of a single vector x."""
    return int(bmu_batch(grid, x)[0])


def quantization_error(grid: SomGrid, samples: np.ndarray) -> float:
    """Mean euclidean distance from each sample to its best-matching unit."""
    samples = _check_query(grid, np.atleast_2d(samples))
    if samples.shape[0] == 0:
        raise ValueError("quantization error needs at least one sample")
    _, d = _min_sqdist(grid.codebook, samples)
    return float(np.sqrt(d).mean())


def train_som(
    samples: np.ndarray,
    rows: int,
    cols: int,
    params: SomTrainParams | None = None,
    initial_codebook: np.ndarray | None = None,
) -> SomGrid:
    """Train a rows x cols map on (n, dim) samples with the online update rule.

    Each step pulls the winner and its grid neighborhood toward the visited
    sample: ``c += alpha(t) * exp(-g^2 / (2 sigma(t)^2)) * (x - c)`` with g the
    euclidean distance between grid cells. alpha and sigma decay exponentially
    from their start to end values over all ``epochs * n`` steps. The codebook
    starts as a seeded draw of training vectors unless `initial_codebook` is
    given, and every epoch visits the samples in a fresh seeded order.

    The winner of a step is the argmin of the direct form
    ``(diff * diff).sum(axis=1)``, ties to the lowest index, found in one
    pass: ``einsum`` sums the same non-negative squares in another order, so
    each of its distances lies within ``(dim + 2) eps d`` of the direct
    form's (see `_rounding_bound`). When the runner-up exceeds the einsum
    winner by more than E = `_rounding_bound` at the runner-up's distance,
    the direct form ranks that winner strictly first too. Every other step
    (exact ties and duplicated units included; an overflow or NaN makes the
    gap NaN, which fails the test) takes the direct form's argmin. The
    update and the Gaussian neighborhood use the same float operations as
    the plain rule; the negated squared grid distance ``-(dr^2 + dc^2)`` is
    the sum of two slices of one vector of exact small integers. No BLAS
    call is made, so the codebook is byte-identical for a seed whatever the
    thread settings.
    """
    params = params or SomTrainParams()
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError(f"samples must be a non-empty (n, dim) array, got {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples contain non-finite values")
    n = samples.shape[0]
    units = rows * cols
    if units < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    if n < units:
        warnings.warn(
            f"training set has fewer vectors ({n}) than grid units ({units}); "
            "some units will start as duplicates"
        )

    rng = np.random.default_rng(params.seed)
    if initial_codebook is not None:
        codebook = np.array(initial_codebook, dtype=np.float64)
        if codebook.shape != (units, samples.shape[1]):
            raise ValueError(
                f"initial_codebook shape {codebook.shape} != {(units, samples.shape[1])}"
            )
    else:
        codebook = samples[rng.choice(n, size=units, replace=n < units)].copy()

    alpha0, alpha1 = params.learning_rate_start, params.learning_rate_end
    sigma0 = params.radius_start if params.radius_start is not None else max(rows, cols) / 2.0
    sigma0 = max(sigma0, params.radius_end)
    sigma1 = params.radius_end

    dim = samples.shape[1]
    diff = np.empty_like(codebook)
    dist = np.empty(units)
    influence_grid = np.empty((rows, cols))
    influence = influence_grid.reshape(units)
    influence_col = influence[:, None]
    # neg_sq[span - 1 + d] = -(d * d) for grid offsets |d| < span, with -0.0
    # at d = 0; the slice of a row or column holds -(offset to it)^2.
    span = max(rows, cols)
    offsets = np.arange(1 - span, span, dtype=np.float64)
    neg_sq = -(offsets * offsets)

    total = params.epochs * n
    step = 0
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            frac = step / (total - 1) if total > 1 else 0.0
            alpha = alpha0 * (alpha1 / alpha0) ** frac
            sigma = sigma0 * (sigma1 / sigma0) ** frac
            np.subtract(codebook, samples[i], out=diff)
            np.einsum("ij,ij->i", diff, diff, out=dist)
            winner = int(dist.argmin())
            first = dist[winner]
            dist[winner] = np.inf
            second = dist.min()
            if not second - first > _rounding_bound(dim, second):
                winner = int(np.argmin((diff * diff).sum(axis=1)))
            r, c = divmod(winner, cols)
            np.add(
                neg_sq[span - 1 - r : span - 1 - r + rows, None],
                neg_sq[span - 1 - c : span - 1 - c + cols],
                out=influence_grid,
            )
            np.divide(influence, 2.0 * sigma * sigma, out=influence)
            np.exp(influence, out=influence)
            np.multiply(influence, alpha, out=influence)
            np.multiply(diff, influence_col, out=diff)
            np.subtract(codebook, diff, out=codebook)
            step += 1
    return SomGrid(rows, cols, codebook)

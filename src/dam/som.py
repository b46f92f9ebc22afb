"""Online Kohonen self-organizing map over a rectangular unit grid.

Deliberately hand-rolled rather than pulled off the shelf: the clustering
contract here (seeded sample-based initialization, per-epoch seeded visiting
order, lowest-index tie breaking, exponential decay of learning rate and
neighborhood radius) must be reproducible bit-for-bit for a given seed.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _jsonin, _native

logger = logging.getLogger(__name__)

DEFAULT_EPOCHS = 20
DEFAULT_LEARNING_RATE = (0.5, 0.01)
DEFAULT_FINAL_RADIUS = 0.5

# Floats per (rows, K) score block and per (rows, dim) query block of the
# nearest-unit search, and per neighbourhood table of online training:
# 512 KiB, so a block stays cache-sized, a bulk search (e.g. all of a fit's
# training WDFs) needs little memory beyond its input, and no (rows, K, dim)
# buffer is made.
_CHUNK_BUDGET = 65_536
# Below this ||x||^2 + max ||c||^2 neither a GEMM score nor a direct-form
# distance (at most twice that sum) can overflow, so the rounding bound holds.
_SIZE_LIMIT = np.finfo(np.float64).max / 8
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# Smallest units * dim whose online steps run on two threads. At dim 180 on a
# 2-core VM, a step of 25 units took ~20% longer on two threads (the threads
# meet once per step), 40 units broke even and 75 gained ~20%; the margin
# keeps small maps off a second CPU that something else may be using.
_THREAD_MIN_WORK = 75 * 180


def _rounding_bound(dim: int, size):
    """Rounding slack E = 4 (dim + 2) (eps size + tiny) of a winner search.

    Two float64 evaluations of the squared distances over `dim` coordinates,
    each a sum of at most dim + 2 rounded terms whose magnitudes total at
    most `size`, may order two units differently only if their values lie
    within E of each other (the `tiny` term covers subnormals). `_min_sqdist`
    states the argument for its GEMM scores, `train_som` for the C kernel's
    online distances.
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
        _jsonin.check_fields(self)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate_start <= 1.0:
            raise ValueError(
                f"learning_rate_start must be in (0, 1], got {self.learning_rate_start}"
            )
        if not 0.0 < self.learning_rate_end <= self.learning_rate_start:
            raise ValueError(
                "learning_rate_end must be in (0, learning_rate_start], got "
                f"{self.learning_rate_end}"
            )
        if not 0.0 < self.radius_end < np.inf:
            raise ValueError(f"radius_end must be finite and > 0, got {self.radius_end}")
        # Every radius of the schedule is at least about radius_end.
        _check_width("radius_end", self.radius_end)
        if self.radius_start is None:
            return
        if not self.radius_end <= self.radius_start < np.inf:
            raise ValueError(
                f"radius_start ({self.radius_start}) must be finite and >= radius_end "
                f"({self.radius_end})"
            )
        # The schedule scales radius_start by powers of this ratio; a subnormal
        # or zero ratio takes the radius below radius_end, down to 0.
        if self.radius_end / self.radius_start < np.finfo(np.float64).tiny:
            raise ValueError(
                "radius_end / radius_start must be a normal float (>= ~2.2e-308), got "
                f"{self.radius_end} / {self.radius_start}"
            )


@dataclass(frozen=True, eq=False)
class SomGrid:
    """A trained (or just assembled) codebook on a rows x cols grid.

    Unit l corresponds to grid cell (l // cols, l % cols) — row-major.
    A grid is immutable: its codebook is a read-only float64 array (a
    writeable input is copied first), and `norms` holds the squared row
    norms ``||c||^2`` the nearest-unit search uses, made once here. To score
    with another codebook, build a new grid, ``SomGrid(rows, cols, new)`` or
    ``dataclasses.replace(grid, codebook=new)``.
    """

    rows: int
    cols: int
    codebook: np.ndarray  # (rows * cols, dim)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        codebook = np.asarray(self.codebook, dtype=np.float64)
        if codebook.flags.writeable:
            codebook = codebook.copy()
            codebook.flags.writeable = False
        if codebook.ndim != 2:
            raise ValueError(f"codebook must be 2-dimensional, got shape {codebook.shape}")
        if not np.isfinite(codebook).all():
            raise ValueError("codebook contains non-finite values")
        norms = np.einsum("ij,ij->i", codebook, codebook)
        norms.flags.writeable = False
        object.__setattr__(self, "codebook", codebook)
        object.__setattr__(self, "norms", norms)
        _jsonin.check_fields(self)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if codebook.shape[0] != self.rows * self.cols:
            raise ValueError(
                f"codebook has {codebook.shape[0]} rows, expected "
                f"{self.rows} * {self.cols} = {self.rows * self.cols}"
            )

    def __reduce__(self):
        """Unpickle through __init__, as numpy unpickles every array writeable."""
        return SomGrid, (self.rows, self.cols, self.codebook)

    @property
    def unit_count(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.codebook.shape[1]


def _check_width(name: str, sigma: float) -> None:
    """Rejects a positive width `sigma` whose 2 sigma^2, `_gaussian`'s divisor,
    is not a normal float (it is 0 for sigma below ~1.1e-162)."""
    if sigma > 0 and 2.0 * sigma * sigma < np.finfo(np.float64).tiny:
        raise ValueError(
            f"{name} is too small: 2 {name}^2 must be a normal float "
            f"({name} >= ~1.05e-154), got {sigma}"
        )


def _gaussian(neg_sq: np.ndarray, sigma: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(neg_sq / (2 sigma^2)), into `out` when given; the package's one exp.

    Both the SOM neighbourhood table (`sigma` a column of per-step radii) and
    `preprocess.smooth_joint`'s kernel use it.
    """
    # Beside a width near the smallest allowed, -k / (2 sigma^2) overflows to
    # -inf, and its exp is the right weight, 0.
    with np.errstate(over="ignore"):
        quotient = np.divide(neg_sq, 2.0 * sigma * sigma, out=out)
    return np.exp(quotient, out=out)


def _check_query(grid: SomGrid, vectors: np.ndarray) -> np.ndarray:
    """`vectors` as float64; its rows are checked finite as `_min_sqdist` reads them."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != grid.dim:
        raise ValueError(
            f"query dimension {vectors.shape[-1]} does not match codebook "
            f"dimension {grid.dim}"
        )
    return vectors


def _check_subset(subset, n: int) -> np.ndarray:
    """`subset` as an int64 array of row indices; a ValueError unless it is 1-D and
    every entry is an integer in [0, n)."""
    subset = np.asarray(subset)
    if subset.ndim != 1 or (subset.size and subset.dtype.kind not in "iu"):
        raise ValueError(f"subset must be a 1-D array of row indices, got {subset.dtype} "
                         f"of shape {subset.shape}")
    if subset.size and not 0 <= subset.min() <= subset.max() < n:
        raise ValueError(f"subset holds a row outside [0, {n})")
    return subset.astype(np.int64, copy=False)


def _blocks(xs: np.ndarray, subset: np.ndarray | None, size: int):
    """(lo, block) for each run of `size` rows of ``xs[subset]`` (of xs when `subset`
    is None); each block is gathered on its own, so no copy of them all is made."""
    n = len(xs) if subset is None else len(subset)
    for lo in range(0, n, size):
        yield lo, xs[lo : lo + size] if subset is None else xs[subset[lo : lo + size]]


def _direct_winner(codebook: np.ndarray, x: np.ndarray) -> int:
    """The direct form's winner: argmin of ``(diff * diff).sum(axis=1)``."""
    diff = codebook - x
    return int(np.argmin((diff * diff).sum(axis=1)))


def _min_sqdist(grid: SomGrid, xs: np.ndarray, subset: np.ndarray | None = None) -> np.ndarray:
    """Per-row argmin of squared distances to the rows of `grid`'s codebook,
    over ``xs[subset]`` (all of xs when `subset` is None).

    Gathers blocks of `_CHUNK_BUDGET // max(K, dim)` rows, so neither a block
    nor its scores exceed the budget, and raises a ValueError naming the
    first non-finite row it reads. It scores each block with one GEMM: the score
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
    the lowest index, whatever the BLAS threading.
    """
    codebook = grid.codebook
    k, dim = codebook.shape
    half_c2 = 0.5 * grid.norms
    c2_max = grid.norms.max()
    best = np.empty(len(xs) if subset is None else len(subset), dtype=np.int64)
    for lo, block in _blocks(xs, subset, max(1, _CHUNK_BUDGET // max(k, dim))):
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ValueError(f"query row {lo + int(np.argmin(finite))} contains non-finite values")
        rows = np.arange(len(block))
        scores = block @ codebook.T
        np.subtract(half_c2, scores, out=scores)
        winner = np.argmin(scores, axis=1)
        first = scores[rows, winner]
        scores[rows, winner] = np.inf
        second = scores.min(axis=1)
        size = np.einsum("ij,ij->i", block, block) + c2_max
        sure = (second - first > _rounding_bound(dim, size)) & (size < _SIZE_LIMIT)
        for i in np.flatnonzero(~sure):
            winner[i] = _direct_winner(codebook, block[i])
        best[lo : lo + len(block)] = winner
    return best


def bmu_batch(grid: SomGrid, xs: np.ndarray, *, subset=None) -> np.ndarray:
    """Best-matching unit of each row of xs; exact ties go to the lowest index.

    The winner is always the argmin of the direct form ``sum((c - x)**2)``:
    the fast GEMM scores only decide rows whose margin beats their rounding
    bound, and every near-tie is rescored directly (see `_min_sqdist`).
    Non-finite query rows are rejected with a ValueError. With `subset`, an
    array of row indices of xs, it gives the winners of ``xs[subset]``,
    reading those rows in place, a block at a time.
    """
    xs = _check_query(grid, np.atleast_2d(xs))
    return _min_sqdist(grid, xs, None if subset is None else _check_subset(subset, len(xs)))


def bmu(grid: SomGrid, x: np.ndarray) -> int:
    """Index of the best-matching unit of a single vector x."""
    return int(bmu_batch(grid, x)[0])


def quantization_error(grid: SomGrid, samples: np.ndarray) -> float:
    """Mean euclidean distance from each sample to its best-matching unit."""
    samples = _check_query(grid, np.atleast_2d(samples))
    if samples.shape[0] == 0:
        raise ValueError("quantization error needs at least one sample")
    diff = samples - grid.codebook[_min_sqdist(grid, samples)]
    return float(np.sqrt((diff * diff).sum(axis=-1)).mean())


def _neighbour_index(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct squared grid distances, negated, and where each offset finds its own.

    Returns ``neg_k`` with ``neg_k[j] = -k_j`` over the distinct values k of
    ``dr^2 + dc^2`` (``-0.0`` first) and an int64 ``(2 rows - 1, 2 cols - 1)``
    array whose entry ``[rows - 1 + dr, cols - 1 + dc]`` is the j of that
    offset. Sliced at a winner's cell it gives every unit's column of a
    neighbourhood table.
    """
    dr = np.arange(1 - rows, rows)
    dc = np.arange(1 - cols, cols)
    distinct, index = np.unique(dr[:, None] ** 2 + dc**2, return_inverse=True)
    return -distinct.astype(np.float64), index.reshape(2 * rows - 1, 2 * cols - 1).astype(np.int64)


def _numpy_block(codebook, samples, rows, cols, order, table, index, size=np.inf):
    """Run one block of online steps with numpy; the reference block runner.

    Step s visits ``samples[order[s]]`` with the weights ``table[s]``, the
    learning rate included; `index` is `_neighbour_index`'s. Its winner is the
    direct form's argmin, ties to the lowest index. It ignores `size`: it makes every move.
    """
    diff = np.empty_like(codebook)
    influence_grid = np.empty((rows, cols))
    influence_col = influence_grid.reshape(-1, 1)
    for s, i in enumerate(order):
        np.subtract(codebook, samples[i], out=diff)
        r, c = divmod(int(np.argmin((diff * diff).sum(axis=1))), cols)
        np.take(table[s], index[rows - 1 - r : 2 * rows - 1 - r, cols - 1 - c : 2 * cols - 1 - c],
                out=influence_grid)
        np.multiply(diff, influence_col, out=diff)
        np.subtract(codebook, diff, out=codebook)


def _compiled_block(kernel, threads, codebook, samples, rows, cols, order, table, index,
                    size=np.inf):
    """`_numpy_block` in the C kernel on `threads` threads (1 or 2); numpy makes each
    step the kernel leaves undecided.

    `size` bounds every |coordinate| of the visited rows of `samples`; the kernel
    skips the moves that provably leave a unit's bytes as they are (see
    `train_som`), none when `size` is infinite. Every array is C-contiguous,
    float64 or int64, as `train_som` makes them.
    """
    start = 0
    while start < len(order):
        start += kernel(
            codebook.ctypes.data, rows, cols, codebook.shape[1], samples.ctypes.data,
            order[start:].ctypes.data, len(order) - start, table[start:].ctypes.data,
            table.shape[1], index.ctypes.data, threads, size,
        )
        if start < len(order):
            _numpy_block(codebook, samples, rows, cols, order[start : start + 1],
                         table[start : start + 1], index)
            start += 1


def _python_schedule(alpha0, alpha1, sigma0, sigma1, total, first, count):
    """(alphas, sigmas) of steps first .. first + count - 1 of a `total`-step schedule.

    Each decays exponentially, ``alpha0 * (alpha1 / alpha0) ** (t / (total - 1))``,
    with Python's float `**`; `_som_kernel.c`'s `dam_som_schedule` gives the same bits.
    """
    fracs = [step / (total - 1) if total > 1 else 0.0 for step in range(first, first + count)]
    return (np.array([alpha0 * (alpha1 / alpha0) ** frac for frac in fracs]),
            np.array([sigma0 * (sigma1 / sigma0) ** frac for frac in fracs]))


def _compiled_schedule(kernel, alpha0, alpha1, sigma0, sigma1, total, first, count):
    """`_python_schedule` in `_som_kernel.c`'s `dam_som_schedule`."""
    alphas, sigmas = np.empty(count), np.empty(count)
    kernel(alpha0, alpha1, sigma0, sigma1, total, first, count, alphas.ctypes.data,
           sigmas.ctypes.data)
    return alphas, sigmas


def _schedule():
    """The schedule function: `_som_kernel.c`'s when it is compiled and loads, else Python's."""
    double, size, pointer = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    kernel = _native.function("_som_kernel.c", "dam_som_schedule", None, double, double, double,
                              double, size, size, size, pointer, pointer)
    return _python_schedule if kernel is None else functools.partial(_compiled_schedule, kernel)


def _kernel(name):
    """The block body `name` of `_som_kernel.c`, typed, or None when it is not compiled."""
    pointer, size = ctypes.c_void_p, ctypes.c_int64
    return _native.function("_som_kernel.c", name, size, pointer, size, size, size, pointer,
                            pointer, size, pointer, size, pointer, size, ctypes.c_double)


def _thread_count(units: int, dim: int) -> int:
    """Threads the kernel trains a map of `units` units of dimension `dim` on: 1 or 2.

    Two only for a map of at least `_THREAD_MIN_WORK` values, when this
    process may run on two CPUs and is no worker of another (a pool of
    workers already keeps the CPUs busy).
    """
    if units * dim < _THREAD_MIN_WORK or multiprocessing.parent_process() is not None:
        return 1
    return min(2, _usable_cpus())


def _usable_cpus() -> int:
    """The CPUs this process may run on (`os.sched_getaffinity`), else `os.cpu_count()`."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _library_runner(library, threads):
    """The block runner of a loaded `_som_kernel.c` on `threads` threads; logs its choice, once."""
    avx2 = _native.function("_som_kernel.c", "dam_som_avx2", ctypes.c_int)
    body = "avx2" if avx2() else "baseline"
    logger.info("_som_kernel.c: running the %s block body on %d thread%s", body, threads,
                "s" if threads > 1 else "")
    return functools.partial(_compiled_block, _kernel("dam_som_block"), threads)


def _block_runner(units: int, dim: int):
    """The block runner for a map of `units` units of dimension `dim`: the C kernel's
    when `_som_kernel.c` is compiled and loads, else numpy's."""
    library = _native.load("_som_kernel.c")
    return _numpy_block if library is None else _library_runner(library, _thread_count(units, dim))


def train_som(
    samples: np.ndarray,
    rows: int,
    cols: int,
    params: SomTrainParams | None = None,
    initial_codebook: np.ndarray | None = None,
    *,
    subset=None,
) -> SomGrid:
    """Train a rows x cols map on (n, dim) samples with the online update rule.

    Each step pulls the winner and its grid neighborhood toward the visited
    sample: ``c += alpha(t) * exp(-g^2 / (2 sigma(t)^2)) * (x - c)`` with g the
    euclidean distance between grid cells. alpha and sigma decay exponentially
    from their start to end values over all ``epochs * n`` steps. The codebook
    starts as a seeded draw of training vectors unless `initial_codebook` is
    given, and every epoch visits the samples in a fresh seeded order.

    With `subset`, an array of row indices of `samples`, it trains on
    ``samples[subset]`` and gives that call's bytes, but reads the rows in
    place: the seeded draws are made over ``len(subset)`` positions, as for
    the gathered array, and then mapped through `subset`. So one table of
    windows serves every run that trains on some of its rows, without a copy.

    The steps run in chunks of as many steps as fit one weight table of
    `_CHUNK_BUDGET` floats (1 927 steps at 8x8, 240 at 25x25). Per chunk,
    `_schedule` gives alpha(t) and sigma(t): `_som_kernel.c` computes them
    with libm's `pow`, or, without a compiler, Python's float `**` does, to
    the same bits. numpy fills the table, ``exp(-k / (2 sigma(t)^2)) *
    alpha(t)`` for each step t and each distinct squared grid distance k,
    and one block runner call makes the chunk's steps: a compiled C kernel
    (`dam._native` builds it on first use; it runs its AVX2 body where the
    CPU has AVX2, and splits the units of a large map over two threads, see
    `_thread_count`) or, without a compiler, the numpy loop `_numpy_block`.
    All update with the same float operations, ``t = c - x; t *= h;
    c -= t`` with h a table entry, so they give the same bytes.

    The C kernel also skips each move that provably leaves a unit's bytes as
    they are, and only sums that unit's distance to the next sample. With m
    and M the smallest and largest |coordinate| of the unit and X that of any
    training row (found here, with the check that every row is finite), a
    unit with m >= 2^-900 stays at a weight ``|h| < 2^-56 m / (M + X)``: then
    ``|fl(fl(c - x) h)| < 2^-55 |c|``, below half the spacing of the doubles
    next to each coordinate c, so ``c - t`` rounds back to c (the kernel's
    header gives the proof). A zero, -0.0, subnormal or non-finite
    coordinate always moves. The kernel considers stays only once the weight
    half the map's longer side from the winner is below 2^-56, as before
    that too few units stay to pay for their bookkeeping: 25% of a
    paper-shape (25x25, 6 600 vectors, 2 epochs) training's unit-steps stay,
    all in its last 40%, and none of an 8x8 one's. `_numpy_block` makes
    every move, the skipped ones included, to the same bytes.

    The winner of a step is the argmin of the direct form
    ``(diff * diff).sum(axis=1)``, ties to the lowest index, which
    `_numpy_block` computes as it stands. The C kernel sums the same
    non-negative squares in another order, so each of its distances lies
    within ``(dim + 2) eps d`` of the direct form's (see `_rounding_bound`).
    When its runner-up exceeds its winner by more than E = `_rounding_bound`
    at the runner-up's distance, the direct form ranks that winner strictly
    first too. The kernel leaves every other step (exact ties and duplicated
    units included; an overflow or NaN makes the gap NaN, which fails the
    test) to one `_numpy_block` step. No BLAS call is made, so the codebook is
    byte-identical for a seed whatever the thread settings. Samples or an
    initial codebook so large that the codebook overflows raise a ValueError.
    """
    params = params or SomTrainParams()
    rows, cols = _jsonin.integer("rows", rows), _jsonin.integer("cols", cols)
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError(f"samples must be a non-empty (n, dim) array, got {samples.shape}")
    if subset is not None:
        subset = _check_subset(subset, len(samples))
        if not len(subset):
            raise ValueError("subset selects no rows")
    # X, the largest |coordinate| of a training row (inf or NaN when one is not
    # finite), from max and min, which make no temporary block as abs would.
    bound = 0.0
    for _, block in _blocks(samples, subset, max(1, _CHUNK_BUDGET // max(1, samples.shape[1]))):
        bound = np.maximum(bound, np.maximum(block.max(initial=0.0), -block.min(initial=0.0)))
    if not bound < np.inf:
        raise ValueError("samples contain non-finite values")
    if subset is None:
        subset = np.arange(len(samples))
    n = len(subset)
    units = rows * cols
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    if n < units:
        warnings.warn(
            f"training set has fewer vectors ({n}) than grid units ({units}); "
            "some units will start as duplicates"
        )

    rng = np.random.default_rng(params.seed)
    if initial_codebook is not None:
        codebook = np.array(initial_codebook, dtype=np.float64, order="C")
        if codebook.shape != (units, samples.shape[1]):
            raise ValueError(
                f"initial_codebook shape {codebook.shape} != {(units, samples.shape[1])}"
            )
        if not np.isfinite(codebook).all():
            raise ValueError("initial_codebook contains non-finite values")
    else:
        codebook = samples[subset[rng.choice(n, size=units, replace=n < units)]]

    alpha0, alpha1 = params.learning_rate_start, params.learning_rate_end
    sigma0 = params.radius_start if params.radius_start is not None else max(rows, cols) / 2.0
    sigma0 = max(sigma0, params.radius_end)
    sigma1 = params.radius_end

    total = params.epochs * n
    order = subset[np.concatenate([rng.permutation(n) for _ in range(params.epochs)])]
    neg_k, index = _neighbour_index(rows, cols)
    run_block = _block_runner(units, samples.shape[1])
    schedule = _schedule()
    chunk = max(1, _CHUNK_BUDGET // len(neg_k))
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        alphas, sigmas = schedule(alpha0, alpha1, sigma0, sigma1, total, lo, hi - lo)
        table = _gaussian(neg_k, sigmas[:, None], out=np.empty((hi - lo, len(neg_k))))
        table *= alphas[:, None]
        run_block(codebook, samples, rows, cols, order[lo:hi], table, index, size=float(bound))
    if not np.isfinite(codebook).all():
        raise ValueError("training overflowed: the samples or the initial codebook are too "
                         "large in magnitude")
    codebook.flags.writeable = False  # so SomGrid takes it without a copy
    return SomGrid(rows, cols, codebook)

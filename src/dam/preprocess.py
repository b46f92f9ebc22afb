"""Pose-sequence preprocessing: smoothing, arc-length resampling, direction windows.

The chain turns one recorded action of shape (frames, joints, 3) into a set of
unit-norm feature vectors ("windowed direction frames", WDFs): each vector is
the concatenation of `window` consecutive per-frame displacement snapshots of
the whole skeleton. Every stage is deterministic and side-effect free.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import _jsonin, _native
from .som import _check_width, _gaussian

DEFAULT_SMOOTHING_SIGMA = 1.0
DEFAULT_SMOOTHING_RADIUS = 2
DEFAULT_NORM_EPSILON = 1e-8


@dataclass(frozen=True)
class PreprocessParams:
    """Knobs for the full preprocessing chain.

    Attributes:
        frames: temporal length F every action is resampled to (>= 2).
        window: number of consecutive direction frames per feature vector,
            in [1, frames - 1].
        smoothing_sigma: Gaussian weight scale of the moving average, finite;
            0 disables smoothing.
        smoothing_radius: one-sided kernel extent in samples; 0 disables
            smoothing.
        norm_epsilon: vectors (and total path lengths) below this finite
            bound are treated as zero and left unnormalized.
    """

    frames: int
    window: int
    smoothing_sigma: float = DEFAULT_SMOOTHING_SIGMA
    smoothing_radius: int = DEFAULT_SMOOTHING_RADIUS
    norm_epsilon: float = DEFAULT_NORM_EPSILON

    def __post_init__(self) -> None:
        _jsonin.check_fields(self)
        if self.frames < 2:
            raise ValueError(f"frames must be >= 2, got {self.frames}")
        if not 1 <= self.window <= self.frames - 1:
            raise ValueError(
                f"window must be in [1, frames - 1] = [1, {self.frames - 1}], "
                f"got {self.window}"
            )
        if self.smoothing_sigma < 0:
            raise ValueError(f"smoothing_sigma must be >= 0, got {self.smoothing_sigma}")
        _check_width("smoothing_sigma", self.smoothing_sigma)
        if self.smoothing_radius < 0:
            raise ValueError(f"smoothing_radius must be >= 0, got {self.smoothing_radius}")
        if self.norm_epsilon <= 0:
            raise ValueError(f"norm_epsilon must be > 0, got {self.norm_epsilon}")

    @property
    def wdf_count(self) -> int:
        """Feature vectors produced per action: F - W."""
        return self.frames - self.window

    def feature_dim(self, joint_count: int) -> int:
        return joint_count * 3 * self.window


# --- Smoothing -------------------------------------------------------------


def smooth_joint(
    series: np.ndarray,
    sigma: float = DEFAULT_SMOOTHING_SIGMA,
    radius: int = DEFAULT_SMOOTHING_RADIUS,
) -> np.ndarray:
    """Gaussian-weighted moving average over one joint's (T, d) trajectory.

    Weights are exp(-k^2 / (2 sigma^2)) for offsets k in [-radius, radius];
    near the boundaries the kernel is truncated to valid samples and
    renormalized. A sigma that is not > 0 (NaN too) or radius <= 0 returns
    the input unchanged; a radius of T or more smooths as radius T - 1.

    The sums run in one fixed order, whatever the CPU or the length: sample
    t is ``(((0.0 + w[-r] x[t-r]) + w[-r+1] x[t-r+1]) + ...) / (((0.0 +
    w[-r]) + w[-r+1]) + ...)`` over the offsets k = -r..r with t + k a valid
    sample, each product rounded on its own. The compiled preprocessing in
    `_preprocess.c` sums in the same order, so both give the same bytes.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be 2-dimensional (T, d), got shape {series.shape}")
    radius = min(radius, len(series) - 1)  # offsets past either end weigh nothing
    if not sigma > 0 or radius <= 0:
        return series.copy()
    n = series.shape[0]
    acc = np.zeros_like(series)
    weight_sums = np.zeros((n, 1))
    for k, weight in zip(range(-radius, radius + 1), _smoothing_kernel(sigma, radius)):
        lo, hi = max(0, -k), min(n, n - k)
        if lo < hi:
            acc[lo:hi] += weight * series[lo + k : hi + k]
            weight_sums[lo:hi] += weight
    return acc / weight_sums


@functools.lru_cache(maxsize=None)
def _smoothing_kernel(sigma: float, radius: int) -> np.ndarray:
    """The 2 radius + 1 Gaussian weights of `smooth_joint`, for offsets -radius..radius."""
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = _gaussian(-(offsets * offsets), sigma)
    kernel.flags.writeable = False
    return kernel


# --- Arc-length resampling ---------------------------------------------------


def arc_length_resample(
    series: np.ndarray, count: int, epsilon: float = DEFAULT_NORM_EPSILON
) -> np.ndarray:
    """Resample a (T, d) polyline to `count` points uniform in arc length.

    A natural cubic spline is fit per coordinate against the cumulative chord
    length and evaluated at `count` evenly spaced parameter values, so output
    points are equidistant along the curve and the endpoints are preserved.
    A path whose total chord length is below `epsilon` is considered
    stationary and yields `count` copies of its first position. Raises
    ValueError when a resampled position is not finite: coordinates near
    1e103 and beyond overflow the spline's cubic term.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be 2-dimensional (T, d), got shape {series.shape}")
    if series.shape[0] < 2:
        raise ValueError(f"need at least 2 samples to resample, got {series.shape[0]}")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not np.isfinite(series).all():
        raise ValueError("series contains non-finite coordinates")
    out = _resample_joint(series, count, epsilon)
    if not np.isfinite(out).all():
        raise ValueError("resampled positions are not finite")
    return out


def _resample_joint(points: np.ndarray, count: int, epsilon: float) -> np.ndarray:
    """`arc_length_resample` of the (T, d) polyline `points`, past its input checks.

    The bytes are scipy's ``CubicSpline(knots, points, axis=0,
    bc_type="natural")``: one LAPACK ``dgtsv`` call, the routine scipy uses,
    solves the natural-spline system, and the Hermite coefficients and the
    evaluation follow scipy's formulas in its operation order. A chord
    length is ``sqrt((dx*dx + dy*dy) + dz*dz)``, summed in that order, and
    is checked finite first, so the solve is finite. `_preprocess.c` makes
    the same operations per joint, and tests hold it to these bytes. Only
    this path imports scipy.
    """
    from scipy.linalg.lapack import dgtsv

    squares = np.diff(points, axis=0) ** 2
    seglen = np.sqrt(functools.reduce(np.add, squares.T))
    arc = np.concatenate([[0.0], np.cumsum(seglen)])
    total = arc[-1]
    if not np.isfinite(total):
        raise ValueError("chord length overflows")
    if not total >= epsilon:
        return np.repeat(points[:1], count, axis=0)

    # Coincident consecutive samples give zero-length segments; the spline
    # needs strictly increasing knots, so collapse them.
    keep = np.concatenate([[True], seglen > 0.0])
    x, y = arc[keep], points[keep]
    dx = np.diff(x)
    if (dx <= 0.0).any():
        raise ValueError("arc-length knots must be strictly increasing")
    slope = np.diff(y, axis=0) / dx[:, None]

    # Row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    # = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]); the end rows set the second
    # derivative to zero.
    diag = 2 * np.concatenate([dx[:1], dx[:-1] + dx[1:], dx[-1:]])
    inner = dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:]
    rhs = 3 * np.concatenate([y[1:2] - y[:1], inner, y[-1:] - y[-2:-1]])
    upper, lower = np.concatenate([dx[:1], dx[:-1]]), np.concatenate([dx[1:], dx[-1:]])
    *_, deriv, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise ValueError(f"natural-spline system is singular (dgtsv info {info})")

    # CubicHermiteSpline's coefficients, highest power first: c0, c1, deriv, y.
    t = (deriv[:-1] + deriv[1:] - 2 * slope) / dx[:, None]
    c0 = t / dx[:, None]
    c1 = (slope - deriv[:-1]) / dx[:, None] - t

    # np.linspace(0, total, count), in its operation order; its branch for a
    # step that underflows to zero is unreachable, since a nonzero chord
    # length is at least ~2e-162. Each query's interval is the last knot
    # <= it, clipped to the last interval (PPoly's rule).
    query = np.arange(count, dtype=np.float64) * (total / (count - 1))
    query[-1] = total
    seg = np.minimum(np.searchsorted(x, query, side="right") - 1, x.size - 2)
    s = (query - x[seg])[:, None]
    return 0.0 + y[seg] + deriv[seg] * s + c1[seg] * (s * s) + c0[seg] * (s * s * s)


# --- Direction frames and windows --------------------------------------------


def direction_frames(positions: np.ndarray) -> np.ndarray:
    """Per-frame skeleton displacement: (F, J, 3) -> (F - 1, J, 3)."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(f"positions must have shape (F, J, 3), got {positions.shape}")
    if positions.shape[0] < 2:
        raise ValueError(f"need at least 2 frames, got {positions.shape[0]}")
    return np.diff(positions, axis=0)


def windowed_direction_frames(directions: np.ndarray, window: int) -> np.ndarray:
    """Concatenate every run of `window` consecutive direction frames.

    Layout of each output row is frame-major, then joint, then x/y/z — i.e.
    row i is directions[i : i + window] flattened in C order. Shape:
    (M, J, 3) -> (M - window + 1, J * 3 * window).
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 3:
        raise ValueError(f"directions must have shape (M, J, 3), got {directions.shape}")
    m = directions.shape[0]
    if not 1 <= window <= m:
        raise ValueError(f"window must be in [1, {m}], got {window}")
    count = m - window + 1
    return np.stack([directions[i : i + window].reshape(-1) for i in range(count)])


def normalize_wdfs(wdfs: np.ndarray, epsilon: float = DEFAULT_NORM_EPSILON) -> np.ndarray:
    """Rescale each row to euclidean norm 1; rows with norm < epsilon stay as-is.

    Raises ValueError when a row's norm is not finite (a NaN or infinite
    entry, or squares that overflow).
    """
    return _normalize_in_place(np.array(wdfs, dtype=np.float64), epsilon)


def _normalize_in_place(wdfs: np.ndarray, epsilon: float) -> np.ndarray:
    """`normalize_wdfs` of the 2-D float64 array `wdfs`, written into it."""
    # np.linalg.norm(wdfs, axis=1) is this sum, after a copy of wdfs.
    norms = np.sqrt(np.add.reduce(wdfs * wdfs, axis=1))
    if not np.isfinite(norms).all():
        raise ValueError("window norm is not finite")
    norms[norms < epsilon] = 1.0
    wdfs /= norms[:, None]
    return wdfs


# --- Full chain ---------------------------------------------------------------


def preprocess_action(action, params: PreprocessParams) -> np.ndarray:
    """Run the full chain on one action; returns (F - W, J * 3 * W) unit vectors.

    Accepts a raw (frames, joints, 3) array or any object with a `frames`
    attribute holding one. Stages, in fixed order: per-joint Gaussian
    smoothing, per-joint arc-length resampling to `params.frames` positions,
    frame-to-frame differencing, windowing, unit normalization.

    The whole chain runs in one one-action call of the compiled pass
    (`_compiled_rows`), which gives the numpy path's bytes. Without a
    compiler, or for an action it declines, the numpy path runs; it checks
    the coordinates are finite (the compiled chain declines any that are
    not) and raises for an action it cannot resample. On both paths, a
    window whose norm is not finite (coordinates near 1e103 and beyond
    overflow the spline's cubic term) raises ValueError.
    """
    positions = np.asarray(getattr(action, "frames", action), dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(f"action must have shape (F, J, 3), got {positions.shape}")
    if positions.shape[0] < 2:
        raise ValueError(f"action needs at least 2 frames, got {positions.shape[0]}")
    positions = np.ascontiguousarray(positions)
    out = np.empty((params.wdf_count, params.feature_dim(positions.shape[1])))
    status = _compiled_rows([positions], positions.shape[1], [params], [out])
    if status is not None and status[0, 0] == 0:
        return out
    if not np.isfinite(positions).all():
        raise ValueError("action contains non-finite coordinates")
    return _normalize_in_place(_numpy_windows(positions, params), params.norm_epsilon)


def _numpy_windows(positions: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """The unnormalized windows of `preprocess_action`, in numpy; the fallback and the oracle."""
    # Anchor each joint at its first position. Downstream differencing makes
    # the result independent of absolute position anyway; doing it up front
    # keeps translation invariance exact instead of within rounding error.
    positions = positions - positions[0]

    steps, joints = positions.shape[:2]
    smoothed = smooth_joint(
        positions.reshape(steps, joints * 3),
        sigma=params.smoothing_sigma,
        radius=params.smoothing_radius,
    ).reshape(steps, joints, 3)
    resampled = np.stack(
        [_resample_joint(joint, params.frames, params.norm_epsilon)
         for joint in smoothed.swapaxes(0, 1)],
        axis=1,
    )
    return windowed_direction_frames(direction_frames(resampled), params.window)


# --- The compiled pass ------------------------------------------------------------

# The most bytes of a file's header line the pass hands back; a file with a
# longer one is declined.
_HEADER_BYTES = 512
# The most smoothing radii the pass is handed weights for. An action of F
# frames is smoothed with radius min(smoothing_radius, F - 1), and declined
# when that is above this many.
_KERNEL_ROWS = 64


@functools.lru_cache(maxsize=None)
def _kernel_rows(sigma: float, radius: int) -> np.ndarray:
    """The (m, 2 m + 1) weights the pass smooths with, m = min(radius, `_KERNEL_ROWS`):
    row r - 1 starts with ``_smoothing_kernel(sigma, r)``; (0, 1) when nothing is smoothed."""
    rows = min(radius, _KERNEL_ROWS) if sigma > 0 else 0
    table = np.zeros((rows, 2 * rows + 1))
    for r in range(1, rows + 1):
        table[r - 1, :2 * r + 1] = _smoothing_kernel(sigma, r)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _table_settings(params: tuple) -> tuple:
    """The addresses of the pass's per-table arrays of the PreprocessParams
    `params`: settings, norm epsilons and kernel addresses; then the arrays,
    which must outlive a call."""
    kernels = [_kernel_rows(p.smoothing_sigma, p.smoothing_radius) for p in params]
    settings = np.array([(p.frames, p.window, min(p.smoothing_radius, 2**62) if len(k) else 0,
                          len(k)) for p, k in zip(params, kernels)], dtype=np.int64)
    epsilons = np.array([p.norm_epsilon for p in params], dtype=np.float64)
    addresses = np.array([k.ctypes.data for k in kernels], dtype=np.uintp)
    arrays = (settings, epsilons, addresses, kernels)
    return settings.ctypes.data, epsilons.ctypes.data, addresses.ctypes.data, arrays


def _pass():
    """The compiled pass, `dam_windows`, typed, or None when `_preprocess.c` is not compiled."""
    pointer, size = ctypes.c_void_p, ctypes.c_int64
    return _native.function("_preprocess.c", "dam_windows", None, pointer, pointer, pointer,
                            size, size, size, pointer, pointer, pointer, pointer, pointer, size,
                            pointer, size)


@functools.lru_cache(maxsize=None)
def _powers_address() -> int:
    """The address of the reader's table, which the cache keeps alive."""
    from .dataset import _powers_of_five

    return _powers_of_five().ctypes.data


def _compiled_rows(inputs: list, joints: int, params: list, outs: list, threads: int = 1,
                   headers: np.ndarray | None = None) -> np.ndarray | None:
    """One call of the compiled pass: each input's normalized windows into its
    rows of each of `outs`, or None when the pass is not compiled.

    Input i is a canonical file's Path, or a C-contiguous float64 (steps >= 2,
    joints, 3) array, and owns rows [i w, (i + 1) w), w = ``p.wdf_count``, of
    the C-contiguous float64 array ``outs[k]`` of ``params[k]``. A file must
    have `joints` joints. Returns the (inputs, 2) int64 results: per input 0
    when its rows are written, else the reason it was declined, and its
    frame count, which for a file is its header's num_frames once that is
    read. Each file's header line, less the blanks around it, goes to its
    row of `headers`, (inputs, `_HEADER_BYTES`) uint8, ended by a zero byte.
    The pass runs on `threads` threads (1 or 2).
    """
    run = _pass()
    if run is None:
        return None
    n = len(inputs)
    files, frames = (ctypes.c_char_p * n)(), (ctypes.c_void_p * n)()
    results = (ctypes.c_int64 * (2 * n))()
    for i, x in enumerate(inputs):
        if isinstance(x, os.PathLike):
            files[i] = os.fsencode(x)
        else:
            frames[i], results[2 * i + 1] = x.ctypes.data, x.shape[0]
    settings, epsilons, kernels, _ = _table_settings(tuple(params))
    run(_powers_address(), files, frames, n, joints, len(params), settings, epsilons, kernels,
        (ctypes.c_void_p * len(outs))(*[out.ctypes.data for out in outs]),
        None if headers is None else headers.ctypes.data, _HEADER_BYTES, results, threads)
    return np.frombuffer(results, dtype=np.int64).reshape(n, 2)

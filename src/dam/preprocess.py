"""Pose-sequence preprocessing: smoothing, arc-length resampling, direction windows.

The chain turns one recorded action of shape (frames, joints, 3) into a set of
unit-norm feature vectors ("windowed direction frames", WDFs): each vector is
the concatenation of `window` consecutive per-frame displacement snapshots of
the whole skeleton. Every stage is deterministic and side-effect free.
"""

from __future__ import annotations

import ctypes
import functools
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

    Everything up to the normalization runs in one call of the compiled
    `_preprocess.c` (`dam._native` builds it on first use), which gives the
    numpy path's bytes. Without a compiler, or for an action it declines,
    the numpy path runs; it checks the coordinates are finite (the compiled
    chain declines any that are not) and raises for an action it cannot
    resample. On both paths, a window whose norm is not finite (coordinates
    near 1e103 and beyond overflow the spline's cubic term) raises
    ValueError.
    """
    positions = np.asarray(getattr(action, "frames", action), dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(f"action must have shape (F, J, 3), got {positions.shape}")
    if positions.shape[0] < 2:
        raise ValueError(f"action needs at least 2 frames, got {positions.shape[0]}")
    wdfs = _compiled_windows(positions, params)
    if wdfs is None:
        if not np.isfinite(positions).all():
            raise ValueError("action contains non-finite coordinates")
        wdfs = _numpy_windows(positions, params)
    return _normalize_in_place(wdfs, params.norm_epsilon)


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


def _compiled_windows(positions: np.ndarray, params: PreprocessParams) -> np.ndarray | None:
    """`_numpy_windows` from `_preprocess.c`, or None when it is not compiled or declines.

    `positions` is a float64 (steps >= 2, joints, 3) array.
    """
    pointer, size = ctypes.c_void_p, ctypes.c_int64
    chain = _native.function("_preprocess.c", "dam_preprocess", size, pointer, size, size,
                             pointer, size, size, size, ctypes.c_double, pointer)
    if chain is None:
        return None
    positions = np.ascontiguousarray(positions)
    steps, joints = positions.shape[:2]
    radius = min(params.smoothing_radius, steps - 1) if params.smoothing_sigma > 0 else 0
    kernel = _smoothing_kernel(params.smoothing_sigma, radius) if radius > 0 else None
    out = np.empty((params.wdf_count, params.feature_dim(joints)))
    status = chain(
        positions.ctypes.data, steps, joints, None if kernel is None else kernel.ctypes.data,
        radius, params.frames, params.window, params.norm_epsilon, out.ctypes.data,
    )
    return out if status == 0 else None

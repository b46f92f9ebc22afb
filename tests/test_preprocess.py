"""Tests for the pose-sequence preprocessing chain.

Oracles here are deliberately independent re-implementations (plain Python
loops, closed-form values) rather than calls back into the library. The one
exception is the compiled chain, `_preprocess.c`, which is held to the bytes
of the library's numpy path.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import CubicSpline

from dam import _native, preprocess
from dam.preprocess import (
    PreprocessParams,
    arc_length_resample,
    direction_frames,
    normalize_wdfs,
    preprocess_action,
    smooth_joint,
    windowed_direction_frames,
)
from dam.synthetic import make_directional_dataset, make_ordered_dataset


def _smooth_oracle(series, sigma, radius):
    """Direct O(T*r) weighted moving average with boundary renormalization.

    Plain Python floats in one fixed order: sample t is the sum of
    w[k] * series[t + k], then the sum of w[k], each over the offsets
    k = -radius..radius that stay in the series, in increasing k, starting
    from 0.0. The weights are numpy's exp over all offsets at once.
    """
    series = np.asarray(series, dtype=float)
    if sigma <= 0 or radius <= 0:
        return series.copy()
    offsets = np.arange(-radius, radius + 1, dtype=float)
    weights = [float(w) for w in np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))]
    n, dim = series.shape
    out = np.empty_like(series)
    for t in range(n):
        for col in range(dim):
            acc = wsum = 0.0
            for k in range(-radius, radius + 1):
                if 0 <= t + k < n:
                    acc += weights[k + radius] * float(series[t + k, col])
                    wsum += weights[k + radius]
            out[t, col] = acc / wsum
    return out


class TestSmoothing:
    def test_matches_direct_oracle_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 4))
            series = rng.normal(size=(n, d)) * 10
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            radius = int(rng.choice([1, 2, 5]))
            got = smooth_joint(series, sigma=sigma, radius=radius)
            want = _smooth_oracle(series, sigma, radius)
            assert got.tobytes() == want.tobytes()

    def test_constant_series_is_preserved(self):
        series = np.full((30, 3), 7.25)
        out = smooth_joint(series, sigma=1.0, radius=2)
        assert_allclose(out, series, rtol=1e-12)

    def test_zero_sigma_and_zero_radius_are_identity(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=(12, 3))
        assert_array_equal(smooth_joint(series, sigma=0.0, radius=2), series)
        assert_array_equal(smooth_joint(series, sigma=1.0, radius=0), series)

    def test_impulse_ratios_follow_gaussian_kernel(self):
        """An interior impulse spreads with weights exp(-k^2 / 2 sigma^2)."""
        sigma, radius = 1.0, 3
        series = np.zeros((21, 1))
        series[10, 0] = 1.0
        out = smooth_joint(series, sigma=sigma, radius=radius)
        for k in range(1, radius + 1):
            expected = math.exp(-(k * k) / (2.0 * sigma * sigma))
            assert out[10 + k, 0] / out[10, 0] == pytest.approx(expected, rel=1e-12)
            assert out[10 - k, 0] / out[10, 0] == pytest.approx(expected, rel=1e-12)

    def test_boundary_renormalization_hand_value(self):
        # First sample of [3, 0, 0, 0, 0] with sigma=1, radius=2 only sees
        # offsets k=0,1,2: 3 * 1 / (1 + e^-0.5 + e^-2).
        series = np.array([[3.0], [0.0], [0.0], [0.0], [0.0]])
        out = smooth_joint(series, sigma=1.0, radius=2)
        want = 3.0 / (1.0 + math.exp(-0.5) + math.exp(-2.0))
        assert out[0, 0] == pytest.approx(want, rel=1e-12)

    def test_a_radius_past_the_series_smooths_as_its_length_less_one(self, chain_path):
        # A wide sigma, so that every offset up to the series' length weighs.
        frames = np.cumsum(np.random.default_rng(5).normal(size=(30, 4, 3)), axis=0)
        series = frames.reshape(30, 12)

        def windows(radius):
            params = PreprocessParams(frames=20, window=3, smoothing_sigma=8.0,
                                      smoothing_radius=radius)
            if chain_path == "compiled":
                assert preprocess._compiled_windows(frames, params) is not None
            return preprocess_action(frames, params).tobytes()

        want = smooth_joint(series, sigma=8.0, radius=29).tobytes()
        for radius in (30, 100, 10 ** 5, 10 ** 30):
            assert smooth_joint(series, sigma=8.0, radius=radius).tobytes() == want
            assert windows(radius) == windows(29)

    def test_input_not_mutated(self):
        series = np.arange(15.0).reshape(5, 3)
        copy = series.copy()
        smooth_joint(series, sigma=1.0, radius=2)
        assert_array_equal(series, copy)


class TestArcLengthResample:
    def test_line_with_uneven_sampling_becomes_uniform(self):
        # Points crowd near the start; resampling must spread them evenly.
        t = np.linspace(0.0, 1.0, 50) ** 3
        series = np.stack([t * 4.0, -t * 2.0, t], axis=1)
        out = arc_length_resample(series, 10)
        chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert_allclose(chords, chords.mean(), rtol=1e-6)
        assert_allclose(out[0], series[0], atol=1e-9)
        assert_allclose(out[-1], series[-1], atol=1e-9)

    def test_quarter_circle_stays_on_curve_with_equal_chords(self):
        theta = np.linspace(0.0, math.pi / 2.0, 100)
        series = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        out = arc_length_resample(series, 10)
        radii = np.linalg.norm(out, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-3
        chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert chords.max() / chords.min() < 1.01

    def test_endpoints_preserved_on_random_walks(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            series = np.cumsum(rng.normal(size=(n, 3)), axis=0)
            out = arc_length_resample(series, int(rng.integers(2, 30)))
            assert_allclose(out[0], series[0], atol=1e-9)
            assert_allclose(out[-1], series[-1], atol=1e-9)

    def test_stationary_path_repeats_first_position(self):
        series = np.tile([[1.5, -2.0, 0.25]], (8, 1))
        out = arc_length_resample(series, 5)
        assert_array_equal(out, np.tile([[1.5, -2.0, 0.25]], (5, 1)))

    def test_interior_duplicate_points_are_tolerated(self):
        series = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        )
        out = arc_length_resample(series, 5)
        assert_allclose(out[:, 0], np.linspace(0.0, 2.0, 5), atol=1e-9)

    def test_two_point_input_interpolates_linearly(self):
        series = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 2.0]])
        out = arc_length_resample(series, 5)
        assert_allclose(out[:, 0], np.linspace(0.0, 4.0, 5), atol=1e-9)
        assert_allclose(out[:, 2], np.linspace(0.0, 2.0, 5), atol=1e-9)

    def test_rejects_too_short_inputs(self):
        with pytest.raises(ValueError):
            arc_length_resample(np.zeros((1, 3)), 5)
        with pytest.raises(ValueError):
            arc_length_resample(np.zeros((4, 3)), 1)


def _spline_knots(series):
    """Cumulative chord length with coincident samples collapsed."""
    seglen = np.linalg.norm(np.diff(series, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seglen)])
    keep = np.concatenate([[True], seglen > 0.0])
    return arc[keep], series[keep], arc[-1]


@st.composite
def _polylines(draw):
    """Random (T, d) polylines, some with repeated samples and large offsets."""
    samples = draw(st.integers(2, 60))
    dim = draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 3))
    series = rng.normal(size=(samples, dim)) * scale
    if draw(st.booleans()):
        series = np.round(series, draw(st.integers(0, 2)))
    repeat = rng.random(samples) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    for i in np.flatnonzero(repeat[1:]) + 1:
        series[i] = series[i - 1]
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, -1e6]))
    return series + offset, draw(st.integers(2, 40))


class TestArcLengthResampleMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(_polylines())
    def test_equals_natural_cubic_spline(self, case):
        series, count = case
        knots, points, total = _spline_knots(series)
        got = arc_length_resample(series, count)
        if total < 1e-8:
            assert_array_equal(got, np.tile(series[0], (count, 1)))
            return
        try:
            spline = CubicSpline(knots, points, axis=0, bc_type="natural")
        except ValueError:
            # A segment too short to move the running arc length leaves two
            # equal knots, which neither implementation accepts.
            with pytest.raises(ValueError):
                arc_length_resample(series, count)
            return
        assert np.array_equal(got, spline(np.linspace(0.0, total, count)))

    def test_negative_zero_coordinate_gives_scipys_bytes(self):
        # scipy's polynomial evaluation starts from +0.0, so a coordinate held
        # at -0.0 comes out as +0.0.
        series = np.array([[-0.0, 0.0], [-0.0, 1.0], [-0.0, 3.0], [-0.0, 3.5]])
        knots, points, total = _spline_knots(series)
        spline = CubicSpline(knots, points, axis=0, bc_type="natural")
        want = spline(np.linspace(0.0, total, 7))
        assert arc_length_resample(series, 7).tobytes() == want.tobytes()

    def test_equal_knots_rejected(self):
        # The third segment, 1e-12 long, does not move an arc length of 2e6.
        series = np.array([[0.0], [1e6], [0.0], [1e-12], [5.0]])
        knots, points, _ = _spline_knots(series)
        assert knots[2] == knots[3]
        with pytest.raises(ValueError):
            CubicSpline(knots, points, axis=0, bc_type="natural")
        with pytest.raises(ValueError):
            arc_length_resample(series, 5)

    @pytest.mark.parametrize(
        "series",
        [
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, np.nan]]),
            # Finite samples whose chord length overflows.
            np.array([[1e308], [-1e308], [0.0]]),
            # Finite chord lengths, but the spline's cubic term overflows.
            np.cumsum(np.random.default_rng(3).normal(size=(30, 3)), axis=0) * 1e150,
        ],
        ids=["nan", "overflowing_chord", "overflowing_spline"],
    )
    def test_non_finite_rejected(self, series):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            arc_length_resample(series, 5)


class TestDirectionFrames:
    def test_hand_computed_differences(self):
        positions = np.array(
            [
                [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                [[1.0, 0.0, 0.0], [1.0, 2.0, 1.0]],
                [[1.0, 0.0, 3.0], [0.0, 2.0, 1.0]],
            ]
        )
        out = direction_frames(positions)
        want = np.array(
            [
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                [[0.0, 0.0, 3.0], [-1.0, 0.0, 0.0]],
            ]
        )
        assert_array_equal(out, want)

    def test_count_is_frames_minus_one(self):
        rng = np.random.default_rng(3)
        positions = rng.normal(size=(25, 4, 3))
        assert direction_frames(positions).shape == (24, 4, 3)

    def test_translation_cancels_bitwise_on_integer_grid(self):
        rng = np.random.default_rng(11)
        positions = rng.integers(-50, 50, size=(10, 3, 3)).astype(float) / 8.0
        shifted = positions + np.array([5.0, -3.25, 2.5])
        assert_array_equal(direction_frames(shifted), direction_frames(positions))

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError):
            direction_frames(np.zeros((1, 5, 3)))


class TestWindowedDirectionFrames:
    def test_window_one_reproduces_direction_frames(self):
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(24, 6, 3))
        out = windowed_direction_frames(dirs, 1)
        assert_array_equal(out, dirs.reshape(24, 18))

    def test_full_window_yields_single_vector(self):
        rng = np.random.default_rng(6)
        dirs = rng.normal(size=(9, 2, 3))
        out = windowed_direction_frames(dirs, 9)
        assert out.shape == (1, 9 * 2 * 3)
        assert_array_equal(out[0], dirs.reshape(-1))

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 14])
    def test_count_shrinks_by_window_minus_one(self, window):
        dirs = np.zeros((14, 3, 3))
        out = windowed_direction_frames(dirs, window)
        assert out.shape == (14 - window + 1, 3 * 3 * window)

    def test_layout_is_frame_major_then_joint_then_coordinate(self):
        # Encode (frame, joint, coord) into the value so the flat layout is
        # fully observable: value = 100*frame + 10*joint + coord.
        dirs = np.zeros((4, 2, 3))
        for f in range(4):
            for j in range(2):
                for c in range(3):
                    dirs[f, j, c] = 100 * f + 10 * j + c
        out = windowed_direction_frames(dirs, 2)
        want_first = [
            0, 1, 2, 10, 11, 12,          # frame 0: joint 0 xyz, joint 1 xyz
            100, 101, 102, 110, 111, 112,  # frame 1
        ]
        assert_array_equal(out[0], np.array(want_first, dtype=float))
        assert out.shape == (3, 12)

    def test_rejects_window_out_of_range(self):
        dirs = np.zeros((5, 2, 3))
        with pytest.raises(ValueError):
            windowed_direction_frames(dirs, 0)
        with pytest.raises(ValueError):
            windowed_direction_frames(dirs, 6)


class TestNormalizeWdfs:
    def test_unit_norms_within_tolerance(self):
        rng = np.random.default_rng(9)
        wdfs = rng.normal(size=(40, 12)) * 3.0
        out = normalize_wdfs(wdfs)
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_near_zero_rows_left_untouched(self):
        wdfs = np.zeros((3, 6))
        wdfs[1] = 1e-12
        wdfs[2, 0] = 2.0
        out = normalize_wdfs(wdfs, epsilon=1e-8)
        assert_array_equal(out[0], np.zeros(6))
        assert_array_equal(out[1], wdfs[1])
        assert_allclose(np.linalg.norm(out[2]), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_rows_whose_norm_is_not_finite_are_rejected(self, bad):
        wdfs = np.ones((3, 6))
        wdfs[1, 2] = bad
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm is not finite"):
            normalize_wdfs(wdfs)


class TestPreprocessParams:
    def test_wdf_count(self):
        params = PreprocessParams(frames=25, window=3)
        assert params.wdf_count == 22

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(frames=1, window=1),
            dict(frames=10, window=0),
            dict(frames=10, window=10),
            dict(frames=10, window=3, smoothing_sigma=-1.0),
            dict(frames=10, window=3, smoothing_radius=-2),
            dict(frames=10, window=3, norm_epsilon=0.0),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PreprocessParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("frames", 6.5),
        ("frames", 6.0),
        ("window", 2.0),
        ("window", True),
        ("smoothing_radius", 1.5),
        ("smoothing_radius", True),
        ("smoothing_radius", "2"),
        ("smoothing_sigma", np.nan),
        ("smoothing_sigma", np.inf),
        ("smoothing_sigma", True),
        ("smoothing_sigma", "1.0"),
        ("norm_epsilon", np.inf),
        ("norm_epsilon", np.nan),
        ("norm_epsilon", None),
    ])
    def test_refusals_name_their_field(self, field, value):
        # Each of these used to construct, then fail later naming no field
        # (or, for a NaN sigma, preprocess to different bytes on the two paths;
        # for an infinite norm_epsilon, to all-zero windows).
        with pytest.raises(ValueError, match=field):
            PreprocessParams(**{"frames": 8, "window": 2, field: value})

    def test_numpy_numbers_are_accepted(self):
        action = np.cumsum(np.random.default_rng(2).normal(size=(12, 2, 3)), axis=0)
        numpy_params = PreprocessParams(frames=np.int64(8), window=np.int32(2),
                                        smoothing_sigma=np.float64(1.5),
                                        smoothing_radius=np.int64(3), norm_epsilon=np.float32(1e-8))
        params = PreprocessParams(frames=8, window=2, smoothing_sigma=1.5, smoothing_radius=3,
                                  norm_epsilon=float(np.float32(1e-8)))
        assert numpy_params == params
        assert {type(numpy_params.frames), type(numpy_params.smoothing_radius)} == {int}
        got = preprocess_action(action, numpy_params)
        assert got.tobytes() == preprocess_action(action, params).tobytes()

    def test_a_nan_sigma_turns_smoothing_off_as_the_compiled_chain_does(self):
        series = np.random.default_rng(5).normal(size=(9, 3))
        assert_array_equal(smooth_joint(series, sigma=np.nan, radius=2), series)

    @pytest.mark.parametrize("sigma", [1e-170, 1e-155])
    def test_rejects_a_sigma_too_small_for_the_gaussian(self, sigma):
        # 2 sigma^2 is not a normal float: at 1e-170 it is 0, the kernel would
        # be NaN, and preprocessing would fail with a misleading error.
        with pytest.raises(ValueError, match="smoothing_sigma is too small"):
            PreprocessParams(frames=10, window=2, smoothing_sigma=sigma)

    def test_the_smallest_sigma_leaves_the_path_unsmoothed(self):
        path = np.cumsum(np.random.default_rng(4).normal(size=(12, 2, 3)), axis=0)
        tiny = PreprocessParams(frames=10, window=2, smoothing_sigma=1.06e-154)
        off = PreprocessParams(frames=10, window=2, smoothing_sigma=0.0)
        assert_array_equal(preprocess_action(path, tiny), preprocess_action(path, off))


def _reference_preprocess(action, params):
    """The per-joint chain: smooth_joint, then scipy's CubicSpline, per joint."""
    positions = np.asarray(getattr(action, "frames", action), dtype=np.float64)
    positions = positions - positions[0]
    resampled = np.empty((params.frames, positions.shape[1], 3))
    for j in range(positions.shape[1]):
        smoothed = smooth_joint(
            positions[:, j, :],
            sigma=params.smoothing_sigma,
            radius=params.smoothing_radius,
        )
        knots, points, total = _spline_knots(smoothed)
        if total < params.norm_epsilon:
            resampled[:, j, :] = smoothed[0]
            continue
        spline = CubicSpline(knots, points, axis=0, bc_type="natural")
        resampled[:, j, :] = spline(np.linspace(0.0, total, params.frames))
    wdfs = windowed_direction_frames(direction_frames(resampled), params.window)
    return normalize_wdfs(wdfs, epsilon=params.norm_epsilon)


def _edge_case_actions():
    rng = np.random.default_rng(31)
    stationary_joint = np.cumsum(rng.normal(size=(30, 5, 3)), axis=0)
    stationary_joint[:, 2] = stationary_joint[0, 2]
    coincident = np.cumsum(rng.normal(size=(30, 5, 3)), axis=0)
    coincident[10:14, 1] = coincident[10, 1]
    return {
        "stationary_joint": stationary_joint,
        "coincident_samples": coincident,
        "all_still": np.tile(rng.normal(size=(1, 4, 3)), (12, 1, 1)),
        "two_frames": rng.normal(size=(2, 4, 3)),
        "three_frames": rng.normal(size=(3, 4, 3)),
    }


def _grid_action(rng, frames=20, joints=3, step=2.0 ** -6):
    """Random action whose coordinates sit on a dyadic grid (exact fp sums)."""
    return rng.integers(-(2 ** 12), 2 ** 12, size=(frames, joints, 3)).astype(float) * step


class TestPreprocessAction:
    def test_output_shape(self):
        rng = np.random.default_rng(21)
        frames = np.cumsum(rng.normal(size=(40, 5, 3)), axis=0)
        params = PreprocessParams(frames=16, window=3)
        wdfs = preprocess_action(frames, params)
        assert wdfs.shape == (13, 5 * 3 * 3)

    def test_translation_invariance_is_bit_exact_on_grid_data(self):
        rng = np.random.default_rng(22)
        params = PreprocessParams(frames=12, window=2)
        for _ in range(20):
            frames = _grid_action(rng)
            offset = rng.integers(-(2 ** 12), 2 ** 12, size=3).astype(float) * 2.0 ** -6
            assert_array_equal(
                preprocess_action(frames + offset, params),
                preprocess_action(frames, params),
            )

    def test_translation_invariance_on_arbitrary_floats(self):
        rng = np.random.default_rng(23)
        params = PreprocessParams(frames=14, window=3)
        frames = np.cumsum(rng.normal(size=(30, 4, 3)), axis=0)
        shifted = frames + np.array([12.345678901, -0.777, 3.14159])
        assert_allclose(
            preprocess_action(shifted, params),
            preprocess_action(frames, params),
            atol=1e-9,
        )

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(24)
        params = PreprocessParams(frames=14, window=3)
        frames = np.cumsum(rng.normal(size=(30, 4, 3)), axis=0)
        assert_allclose(
            preprocess_action(frames * scale, params),
            preprocess_action(frames, params),
            atol=1e-9,
        )

    def test_motionless_action_yields_zero_vectors_without_crashing(self):
        frames = np.tile(np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]), (9, 1, 1))
        params = PreprocessParams(frames=8, window=2)
        wdfs = preprocess_action(frames, params)
        assert wdfs.shape == (6, 2 * 3 * 2)
        assert_array_equal(wdfs, np.zeros_like(wdfs))

    def test_smoothing_parameters_reach_the_pipeline(self):
        rng = np.random.default_rng(25)
        frames = np.cumsum(rng.normal(size=(30, 2, 3)), axis=0)
        a = preprocess_action(frames, PreprocessParams(frames=10, window=2))
        b = preprocess_action(
            frames,
            PreprocessParams(frames=10, window=2, smoothing_sigma=3.0, smoothing_radius=6),
        )
        assert not np.array_equal(a, b)

    def test_accepts_objects_with_frames_attribute(self):
        class Carrier:
            def __init__(self, frames):
                self.frames = frames

        rng = np.random.default_rng(26)
        frames = np.cumsum(rng.normal(size=(20, 2, 3)), axis=0)
        params = PreprocessParams(frames=10, window=2)
        assert_array_equal(
            preprocess_action(Carrier(frames), params),
            preprocess_action(frames, params),
        )

    def test_deterministic_and_pure(self):
        rng = np.random.default_rng(27)
        frames = np.cumsum(rng.normal(size=(18, 3, 3)), axis=0)
        copy = frames.copy()
        params = PreprocessParams(frames=9, window=2)
        first = preprocess_action(frames, params)
        second = preprocess_action(frames, params)
        assert_array_equal(first, second)
        assert_array_equal(frames, copy)


class TestMatchesReferenceChain:
    """preprocess_action's bytes must equal those of the reference chain:
    smooth_joint, then scipy's CubicSpline, one joint at a time."""

    PARAMS = [
        PreprocessParams(frames=25, window=3),
        PreprocessParams(frames=9, window=2, smoothing_sigma=0.0),
        PreprocessParams(frames=40, window=1, smoothing_sigma=2.0, smoothing_radius=5),
    ]

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize(
        "make", [make_directional_dataset, make_ordered_dataset], ids=lambda f: f.__name__
    )
    def test_synthetic_corpora(self, make, params):
        dataset = make(classes=3, subjects=3, instances=2, raw_frames=45, joints=20, seed=4)
        for action in dataset.actions:
            got = preprocess_action(action, params)
            assert got.tobytes() == _reference_preprocess(action, params).tobytes()

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("name", sorted(_edge_case_actions()))
    def test_edge_cases(self, name, params):
        action = _edge_case_actions()[name]
        got = preprocess_action(action, params)
        assert got.tobytes() == _reference_preprocess(action, params).tobytes()


# SHA-256 of the concatenated preprocess_action(a, PreprocessParams(25, 3))
# bytes over the seed-0 paper-scale synthetic corpus: 600 actions of 45
# frames and 20 joints.
PINNED_DIGEST = "c71641f1ee61661837d0c43a01fab54e67fdbb1db7420ce374a13aa8194cdbac"


def _compiled_library():
    library = _native.load("_preprocess.c")
    if library is None:
        pytest.skip("_preprocess.c was not compiled here")
    return library


@pytest.fixture(params=["compiled", "numpy"])
def chain_path(request, monkeypatch):
    """preprocess_action on the compiled chain, or on the numpy path alone."""
    if request.param == "compiled":
        _compiled_library()
    else:
        monkeypatch.setattr(preprocess, "_compiled_windows", lambda positions, params: None)
    return request.param


class TestPinnedBytes:
    def test_pinned_digest(self, chain_path):
        dataset = make_directional_dataset(
            classes=6, subjects=10, instances=10, raw_frames=45, joints=20, seed=0
        )
        params = PreprocessParams(frames=25, window=3)
        if chain_path == "compiled":
            assert all(
                preprocess._compiled_windows(a.frames, params) is not None
                for a in dataset.actions
            )
        digest = hashlib.sha256()
        for action in dataset.actions:
            digest.update(preprocess_action(action, params).tobytes())
        assert digest.hexdigest() == PINNED_DIGEST

    @pytest.mark.parametrize(
        "frames, message",
        [
            (np.array([[[0.0, 0.0, 0.0]], [[1.0, np.nan, 0.0]], [[2.0, 0.0, 0.0]]]),
             "action contains non-finite coordinates"),
            (np.array([[[0.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0]], [[2.0, 0.0, 0.0]]]),
             "action contains non-finite coordinates"),
            # Finite coordinates whose chord length overflows.
            (np.array([[[1e308, 0.0, 0.0]], [[-1e308, 0.0, 0.0]], [[0.0, 0.0, 0.0]]]),
             "chord length overflows"),
            # Finite chord lengths, but the spline's cubic term overflows.
            (np.cumsum(np.random.default_rng(0).normal(size=(30, 2, 3)), axis=0) * 1e103,
             "window norm is not finite"),
            (_edge_case_actions()["coincident_samples"] * 1e150, "window norm is not finite"),
            # Joint 1's last step moves its smoothed sample, so it is a knot,
            # but it is too short to change an arc length near 4.
            (np.array([[[t, 0, 0], [x, 0, 0]]
                       for t, x in enumerate([0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1e-20])], dtype=float),
             "arc-length knots must be strictly increasing"),
        ],
        ids=["nan", "inf", "overflowing_chord", "overflowing_spline", "edge_case_at_1e150",
             "knots_not_increasing"],
    )
    def test_rejections_keep_their_messages(self, chain_path, frames, message):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            preprocess_action(frames, PreprocessParams(frames=10, window=2))


@st.composite
def _chain_cases(draw):
    """Random actions and parameters, with the cases where the chain branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = draw(st.integers(2, 30))
    joints = draw(st.integers(1, 6))
    signed_zeros = draw(st.booleans())
    if signed_zeros:  # small integer steps with exact +-0.0 entries, no smoothing
        frames = np.cumsum(rng.integers(-1, 2, size=(steps, joints, 3)), axis=0) * 1.0
        frames[(frames == 0.0) & (rng.random(frames.shape) < 0.5)] = -0.0
    else:
        frames = np.cumsum(rng.normal(size=(steps, joints, 3)), axis=0)
        if draw(st.booleans()):
            frames = np.round(frames, draw(st.integers(0, 1)))
        frames *= draw(st.sampled_from([1.0, 1e-150, 1e150, 1e-3, 1e4]))
        frames += draw(st.sampled_from([0.0, -0.0, 7.5, -1e6]))
    if draw(st.booleans()):  # stationary joints
        still = rng.random(joints) < 0.5
        frames[:, still] = frames[0, still]
    if draw(st.booleans()):  # a coordinate that never moves
        frames[:, :, draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, -0.0, 3.0]))
    repeat = rng.random(steps) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    for i in np.flatnonzero(repeat[1:]) + 1:  # coincident consecutive samples
        frames[i] = frames[i - 1]
    count = draw(st.integers(2, 30))
    params = PreprocessParams(
        frames=count,
        window=draw(st.integers(1, count - 1)),
        smoothing_sigma=0.0 if signed_zeros else draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        smoothing_radius=draw(st.integers(0, 5)),
    )
    return frames, params


class TestCompiledChain:
    """`_preprocess.c` gives the numpy path's bytes, or declines what the numpy path rejects."""

    @settings(max_examples=400, deadline=None)
    @given(_chain_cases())
    def test_same_bytes_as_numpy(self, case):
        _compiled_library()
        frames, params = case
        compiled = preprocess._compiled_windows(frames, params)
        try:
            with np.errstate(all="ignore"):
                expected = preprocess._numpy_windows(frames, params)
        except ValueError:
            assert compiled is None
            return
        assert compiled is not None
        assert compiled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("params", TestMatchesReferenceChain.PARAMS)
    @pytest.mark.parametrize("name", sorted(_edge_case_actions()))
    def test_edge_cases_run_compiled(self, name, params, scale):
        _compiled_library()
        frames = _edge_case_actions()[name] * scale
        compiled = preprocess._compiled_windows(frames, params)
        assert compiled is not None
        with np.errstate(all="ignore"):  # s**3 overflows at 1e150
            expected = preprocess._numpy_windows(frames, params)
        assert compiled.tobytes() == expected.tobytes()

    def test_a_zero_that_turns_negative_runs_compiled(self):
        # Joint 1's x goes from +0.0 to -0.0 while joint 0's x falls: signed
        # zeros in one joint beside a moving one. Each path solves each
        # joint's system alone, and both give the reference chain's bytes.
        frames = np.array([
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[-1.0, 1.0, 0.0], [-0.0, 1.0, 0.0]],
            [[-3.0, 1.5, 0.0], [-0.0, 2.0, 1.0]],
        ])
        params = PreprocessParams(frames=5, window=1, smoothing_sigma=0.0)
        _compiled_library()
        compiled = preprocess._compiled_windows(frames, params)
        assert compiled is not None
        assert compiled.tobytes() == preprocess._numpy_windows(frames, params).tobytes()
        want = _reference_preprocess(frames, params)
        assert preprocess_action(frames, params).tobytes() == want.tobytes()

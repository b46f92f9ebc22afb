"""Tests for the online Kohonen self-organizing map."""

import concurrent.futures
import dataclasses
import functools
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dam import _native, som
from dam.dataset import split_cross_subject
from dam.descriptor import table_bins
from dam.evaluation import derive_seed
from dam.preprocess import PreprocessParams, preprocess_action
from dam.som import (
    _CHUNK_BUDGET,
    SomGrid,
    SomTrainParams,
    bmu,
    bmu_batch,
    quantization_error,
    train_som,
)
from dam.synthetic import make_directional_dataset


def _bmu_oracle(codebook, x):
    """Brute-force linear scan with strict-improvement tie handling."""
    best, best_d = 0, None
    for idx in range(codebook.shape[0]):
        d = 0.0
        for a, b in zip(codebook[idx], x):
            d += (a - b) ** 2
        if best_d is None or d < best_d:
            best, best_d = idx, d
    return best


def _two_clouds(rng, n=120, dim=5, gap=60.0):
    a = rng.normal(size=(n, dim))
    b = rng.normal(size=(n, dim))
    b[:, 0] += gap
    return np.vstack([a, b]), np.array([0] * n + [1] * n)


@st.composite
def _train_fields(draw):
    """Epochs 1-3, rates from 1e-320 to 1 and radii from 1e-170 to 1e200, each pair
    in order; one field may then take an out-of-range, mistyped or non-finite
    value."""
    def pair(low, high):
        return sorted(draw(st.lists(st.floats(low, high).map(lambda e: 10.0**e),
                                    min_size=2, max_size=2)), reverse=True)
    rates, radii = pair(-320.0, 0.0), pair(-170.0, 200.0)
    fields = dict(epochs=draw(st.integers(1, 3)), learning_rate_start=rates[0],
                  learning_rate_end=rates[1], radius_start=draw(st.sampled_from([radii[0], None])),
                  radius_end=radii[1])
    bad = draw(st.none() | st.sampled_from(sorted(fields)))
    if bad == "epochs":
        fields[bad] = draw(st.integers(-1, 0) | st.sampled_from([1.5, 2.0, True]))
    elif bad is not None:
        fields[bad] = draw(st.sampled_from([0.0, -1.0, 2.0, np.nan, np.inf]))
    return fields


class TestParamsAndGrid:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(learning_rate_start=0.0),
            dict(learning_rate_start=1.5),
            dict(learning_rate_end=0.2, learning_rate_start=0.1),
            dict(radius_end=0.0),
            dict(radius_start=0.1, radius_end=0.5),
            dict(radius_end=np.nan),
            dict(radius_end=np.inf),
            dict(radius_start=np.nan),
            dict(radius_start=np.inf),
            dict(seed=-1),
            dict(epochs=1.5),
            dict(epochs=2.0),
            dict(epochs=True),
            dict(seed=1.5),
            dict(seed=np.float64(3.0)),
        ],
    )
    def test_rejects_bad_training_params(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SomTrainParams(**kwargs)

    def test_numpy_integers_are_integers(self):
        params = SomTrainParams(epochs=np.int64(2), seed=np.uint32(5))
        assert {type(params.epochs), type(params.seed)} == {int}
        samples = np.random.default_rng(3).normal(size=(12, 3))
        grid = train_som(samples, 2, 2, params)
        want = train_som(samples, 2, 2, SomTrainParams(epochs=2, seed=5))
        assert grid.codebook.tobytes() == want.codebook.tobytes()

    def test_rejects_a_radius_ratio_that_is_not_a_normal_float(self):
        # The schedule's radius is radius_start * (radius_end / radius_start) ** frac;
        # here the ratio underflows to 0, so every radius after step 0 would be 0.
        with pytest.raises(ValueError, match="radius_end / radius_start"):
            SomTrainParams(epochs=1, radius_start=1e200, radius_end=1.06e-154)
        SomTrainParams(radius_start=1e150, radius_end=1.06e-154)  # a ratio of ~1e-304

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @example(dict(epochs=1, learning_rate_start=0.5, learning_rate_end=0.01,
                  radius_start=1e200, radius_end=1.06e-154))
    @given(_train_fields())
    def test_every_accepted_schedule_trains_without_a_warning(self, fields):
        # A refusal names a field; anything accepted trains (a warning fails the test).
        try:
            params = SomTrainParams(**fields)
        except ValueError as error:
            assert any(name in str(error) for name in fields), error
            return
        samples = np.random.default_rng(3).normal(size=(12, 3))
        assert np.isfinite(train_som(samples, 3, 3, params).codebook).all()

    @pytest.mark.parametrize("kwargs", [
        dict(radius_end=1e-170), dict(radius_end=1e-155),
        dict(radius_start=1e-170, radius_end=1e-170),
    ])
    def test_rejects_a_radius_too_small_for_the_gaussian(self, kwargs):
        # 2 sigma^2 is not a normal float: at 1e-170 it is 0, and every
        # neighbourhood weight would be NaN.
        with pytest.raises(ValueError, match="radius_end is too small"):
            SomTrainParams(**kwargs)

    def test_the_smallest_radius_trains_a_finite_map(self):
        samples = np.random.default_rng(3).normal(size=(20, 3))
        grid = train_som(samples, 1, 2, SomTrainParams(epochs=1, radius_end=1.06e-154))
        assert np.isfinite(grid.codebook).all()

    def test_the_smallest_radius_on_a_5x5_map_overflows_to_zero_weights_silently(self):
        # At the last steps -k / (2 sigma^2) overflows to -inf for the far
        # units of a 5x5 map; their weights are exactly 0, and no
        # RuntimeWarning (an error under this suite's settings) is raised.
        samples = np.random.default_rng(3).normal(size=(40, 3))
        grid = train_som(samples, 5, 5, SomTrainParams(epochs=1, radius_end=1.06e-154))
        assert np.isfinite(grid.codebook).all()
        assert_array_equal(som._gaussian(np.array([-0.0, -1.0, -32.0]), 1.06e-154),
                           [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("rows, cols, name", [
        (2.5, 2, "rows"), (2.0, 2, "rows"), (True, 5, "rows"), (5, np.float64(1.0), "cols"),
        ("5", 1, "rows"),
    ])
    def test_grid_shapes_must_be_integers(self, rows, cols, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            SomGrid(rows, cols, np.zeros((5, 6)))
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            train_som(np.zeros((8, 3)), rows, cols)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (-1, -1)])
    def test_grids_below_1x1_are_refused(self, rows, cols):
        with pytest.raises(ValueError, match=f"^grid must be at least 1x1, got {rows}x{cols}$"):
            train_som(np.zeros((8, 3)), rows, cols)

    def test_numpy_integer_shapes_are_stored_as_ints(self):
        grid = SomGrid(np.int64(2), np.uint8(3), np.zeros((6, 4)))
        assert (type(grid.rows), type(grid.cols)) == (int, int)
        trained = train_som(np.zeros((8, 3)), np.int32(2), np.uint8(2), SomTrainParams(epochs=1))
        assert (type(trained.rows), type(trained.cols)) == (int, int)

    def test_grid_shape_must_match(self):
        with pytest.raises(ValueError):
            SomGrid(rows=2, cols=3, codebook=np.zeros((5, 4)))
        with pytest.raises(ValueError):
            SomGrid(rows=2, cols=3, codebook=np.zeros(6))
        grid = SomGrid(rows=2, cols=3, codebook=np.zeros((6, 4)))
        assert grid.unit_count == 6
        assert grid.dim == 4


def _assert_frozen(grid):
    """The grid's codebook and norms are read-only, and the norms are its codebook's."""
    assert not grid.codebook.flags.writeable and not grid.norms.flags.writeable
    assert grid.codebook.dtype == np.float64
    assert_array_equal(grid.norms, np.einsum("ij,ij->i", grid.codebook, grid.codebook))


class TestImmutableGrid:
    def test_in_place_edits_and_reassignment_raise(self):
        codebook = np.random.default_rng(11).normal(size=(6, 4))
        grid = SomGrid(rows=2, cols=3, codebook=codebook)
        before = grid.codebook.copy()
        with pytest.raises(ValueError, match="read-only"):
            grid.codebook[:3] *= 4.0
        with pytest.raises(ValueError, match="read-only"):
            grid.norms[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.codebook = codebook * 4.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.rows = 3
        # The caller's writeable array was copied, so editing it leaves the grid as it was.
        codebook[:] = 0.0
        assert grid.codebook.tobytes() == before.tobytes()
        _assert_frozen(grid)

    def test_a_read_only_codebook_is_taken_without_a_copy(self):
        codebook = np.random.default_rng(1).normal(size=(4, 3))
        codebook.flags.writeable = False
        assert SomGrid(2, 2, codebook).codebook is codebook
        grid = train_som(np.random.default_rng(2).normal(size=(12, 3)), 2, 2,
                         SomTrainParams(epochs=1))
        _assert_frozen(grid)

    def test_a_pickled_grid_is_read_only_with_its_own_norms(self):
        grid = SomGrid(2, 3, np.random.default_rng(4).normal(size=(6, 5)))
        again = pickle.loads(pickle.dumps(grid))
        assert (again.rows, again.cols) == (2, 3)
        assert again.codebook.tobytes() == grid.codebook.tobytes()
        _assert_frozen(again)


class TestBmu:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            k = int(rng.integers(1, 25))
            dim = int(rng.integers(1, 8))
            codebook = rng.normal(size=(k, dim))
            x = rng.normal(size=dim)
            grid = SomGrid(rows=1, cols=k, codebook=codebook)
            assert bmu(grid, x) == _bmu_oracle(codebook, x)

    def test_exact_tie_picks_lowest_index(self):
        codebook = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        grid = SomGrid(rows=1, cols=3, codebook=codebook)
        assert bmu(grid, np.array([1.0, 0.0])) == 0
        # (0.45^2 + 0.55^2) and (0.55^2 + 0.45^2) round alike: an exact tie.
        assert bmu(grid, np.array([0.55, 0.55])) == 0

    def test_batch_agrees_with_single_queries(self):
        rng = np.random.default_rng(3)
        codebook = rng.normal(size=(12, 6))
        grid = SomGrid(rows=3, cols=4, codebook=codebook)
        xs = rng.normal(size=(200, 6))
        batch = bmu_batch(grid, xs)
        assert batch.shape == (200,)
        for i in range(0, 200, 17):
            assert batch[i] == bmu(grid, xs[i])

    def test_a_replaced_codebook_is_scored_with_its_own_norms(self):
        rng = np.random.default_rng(11)
        grid = SomGrid(rows=2, cols=3, codebook=rng.normal(size=(6, 4)))
        xs = rng.normal(size=(100, 4)) * 3.0
        assert_array_equal(bmu_batch(grid, xs), _direct_oracle(grid.codebook, xs))
        # The old norms would put a far unit first for most of these queries.
        new = dataclasses.replace(
            grid, codebook=np.concatenate([grid.codebook[:3] * 4.0, grid.codebook[3:] / 4.0]))
        assert_array_equal(bmu_batch(new, xs), _direct_oracle(new.codebook, xs))
        assert_array_equal(new.norms, np.einsum("ij,ij->i", new.codebook, new.codebook))
        assert_array_equal(bmu_batch(grid, xs), _direct_oracle(grid.codebook, xs))

    def test_dimension_mismatch_fails(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            bmu(grid, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rows_rejected(self, bad):
        grid = SomGrid(rows=1, cols=3, codebook=np.eye(3))
        xs = np.zeros((4, 3))
        xs[2, 1] = bad
        with pytest.raises(ValueError, match="query row 2"):
            bmu_batch(grid, xs)
        with pytest.raises(ValueError, match="non-finite"):
            table_bins(grid, xs, [len(xs)])
        with pytest.raises(ValueError, match="non-finite"):
            bmu(grid, xs[2])


def _direct_oracle(codebook, xs):
    """Winner of each query under the direct form, ties to the lowest index."""
    return np.array([np.argmin(((codebook - x) ** 2).sum(axis=1)) for x in xs])


@st.composite
def _near_tie_cases(draw):
    """A codebook and queries at which the GEMM scores are least reliable.

    Queries sit at midpoints of two codebook rows nudged by a few ulps, on
    duplicated rows, or anywhere; everything may be shifted by 1e6, where
    ||c||^2 - 2 x.c cancels worst.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 24))
    scale = 10.0 ** draw(st.integers(-3, 3))
    shift = draw(st.sampled_from([0.0, 1e6]))
    codebook = rng.normal(size=(k, dim)) * scale
    for _ in range(draw(st.integers(0, k // 2))):
        src, dst = sorted(rng.choice(k, size=2, replace=False))
        codebook[dst] = codebook[src]
    codebook += shift
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["midpoint", "duplicate", "random"]))
        i, j = rng.choice(k, size=2, replace=False)
        if kind == "midpoint":
            mid = (codebook[i] + codebook[j]) / 2.0
            nudge = rng.integers(-4, 5, size=dim)
            queries.append(mid + nudge * np.spacing(mid))
        elif kind == "duplicate":
            queries.append(codebook[i].copy())
        else:
            queries.append(rng.normal(size=dim) * scale + shift)
    return codebook, np.array(queries)


class TestBmuProperties:
    @settings(max_examples=300, deadline=None)
    @given(_near_tie_cases())
    def test_near_ties_match_the_direct_form(self, case):
        codebook, xs = case
        grid = SomGrid(rows=1, cols=codebook.shape[0], codebook=codebook)
        assert_array_equal(bmu_batch(grid, xs), _direct_oracle(codebook, xs))

    def test_overflowing_distances_follow_the_direct_form(self):
        # Both direct-form distances overflow to inf, an exact tie that goes to
        # unit 0, though the finite GEMM scores favour unit 1 by far.
        codebook = np.array([[-0.1e154], [-0.05e154]])
        grid = SomGrid(rows=1, cols=2, codebook=codebook)
        with np.errstate(over="ignore"):
            assert bmu(grid, np.array([1.3e154])) == 0

    @pytest.mark.filterwarnings("error")
    def test_a_unit_too_large_to_square_is_searched_without_a_warning(self):
        # Any finite codebook is a valid grid, as a model file may hold one:
        # its overflowing scores and distances warn of nothing, and the
        # winners stay the direct form's.
        big = np.finfo(np.float64).max
        codebook = np.array([[big, -big, 0.0], [1.0, 0.0, 0.0], [-1e200, 0.0, 0.0],
                             [0.0, 1.0, 0.0]])
        grid = SomGrid(rows=2, cols=2, codebook=codebook)
        xs = np.random.default_rng(9).normal(size=(50, 3))
        with np.errstate(over="ignore"):
            expected = _direct_oracle(codebook, xs)
        assert_array_equal(bmu_batch(grid, xs), expected)

    def test_subnormal_distances_follow_the_direct_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            codebook = rng.normal(size=(8, 3)) * 1e-162
            xs = rng.normal(size=(20, 3)) * 1e-162
            xs[:5] = (codebook[0] + codebook[1]) / 2.0
            grid = SomGrid(rows=1, cols=8, codebook=codebook)
            assert_array_equal(bmu_batch(grid, xs), _direct_oracle(codebook, xs))

    def test_queries_spanning_several_row_blocks(self):
        rng = np.random.default_rng(21)
        k, dim = 625, 6
        block = _CHUNK_BUDGET // k
        codebook = rng.normal(size=(k, dim))
        codebook[400:420] = codebook[:20]
        xs = rng.normal(size=(2 * block + 50, dim))
        # Duplicated-row and midpoint queries on both sides of each block edge.
        for edge in (block, 2 * block):
            xs[edge - 2 : edge + 2] = codebook[[400, 401, 402, 403]]
            xs[edge + 2] = (codebook[0] + codebook[1]) / 2.0
            xs[edge - 3] = (codebook[5] + codebook[7]) / 2.0
        grid = SomGrid(rows=25, cols=25, codebook=codebook)
        want = _direct_oracle(codebook, xs)
        assert_array_equal(bmu_batch(grid, xs), want)
        # Rows 400..403 copy rows 0..3, so the exact ties go to 0..3.
        for edge in (block, 2 * block):
            assert_array_equal(want[edge - 2 : edge + 2], [0, 1, 2, 3])
        distances = np.sqrt(((xs - codebook[want]) ** 2).sum(axis=1))
        assert quantization_error(grid, xs) == distances.mean()


def _schedule_ends(params, rows, cols):
    """(alpha0, alpha1, sigma0, sigma1) of a rows x cols map trained with `params`."""
    sigma0 = params.radius_start if params.radius_start is not None else max(rows, cols) / 2.0
    sigma0 = max(sigma0, params.radius_end)
    return params.learning_rate_start, params.learning_rate_end, sigma0, params.radius_end


def _reference_train_som(samples, rows, cols, params, initial_codebook=None):
    """The plain online rule, frozen: one broadcast step per visited sample."""
    samples = np.asarray(samples, dtype=np.float64)
    n, units = samples.shape[0], rows * cols
    rng = np.random.default_rng(params.seed)
    if initial_codebook is not None:
        codebook = np.array(initial_codebook, dtype=np.float64)
    else:
        codebook = samples[rng.choice(n, size=units, replace=n < units)].copy()
    idx = np.arange(units)
    grid_pos = np.stack([idx // cols, idx % cols], axis=1).astype(np.float64)
    alpha0, alpha1, sigma0, sigma1 = _schedule_ends(params, rows, cols)
    total = params.epochs * n
    step = 0
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            frac = step / (total - 1) if total > 1 else 0.0
            alpha = alpha0 * (alpha1 / alpha0) ** frac
            sigma = sigma0 * (sigma1 / sigma0) ** frac
            diff = codebook - samples[i]
            winner = int(np.argmin((diff * diff).sum(axis=1)))
            gdiff = grid_pos - grid_pos[winner]
            influence = alpha * np.exp(-(gdiff * gdiff).sum(axis=1) / (2.0 * sigma * sigma))
            codebook -= influence[:, None] * diff
            step += 1
    return codebook


@st.composite
def _training_cases(draw):
    """Samples, grid and schedule for a short training run, often tie-heavy.

    Samples may be rounded to one decimal (distance ties are then common) or
    contain copies; the grid may be a line either way; the codebook may start
    from given rows with copies, or from fewer samples than units. Given rows
    may all permute one vector while half the samples are zero: units at the
    same grid distance from each winner then stay at distances equal in exact
    arithmetic that different summation orders round apart.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "row", "column"]))
    length = draw(st.integers(1, 12))
    rows, cols = {
        "grid": (draw(st.integers(1, 5)), draw(st.integers(1, 5))),
        "row": (1, length),
        "column": (length, 1),
    }[shape]
    units = rows * cols
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 24))
    scale = 10.0 ** draw(st.integers(-3, 3))
    samples = rng.normal(size=(n, dim))
    if draw(st.booleans()):
        samples = np.round(samples, 1)
    for _ in range(draw(st.integers(0, n // 2))):
        samples[rng.integers(n)] = samples[rng.integers(n)]
    samples *= scale
    start = draw(st.sampled_from(["sampled", "given", "permuted"]))
    initial = None
    if start == "given":
        initial = rng.normal(size=(units, dim)) * scale
        for _ in range(draw(st.integers(0, units // 2))):
            initial[rng.integers(units)] = initial[rng.integers(units)]
    elif start == "permuted":
        coords = rng.normal(size=dim) * np.exp(rng.normal(size=dim) * 3) * scale
        initial = np.array([rng.permutation(coords) for _ in range(units)])
        samples[rng.integers(n, size=n // 2 + 1)] = 0.0
    params = SomTrainParams(
        epochs=draw(st.integers(1, 3)),
        radius_start=draw(st.one_of(st.none(), st.floats(0.5, 8.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    return samples, rows, cols, params, initial


def _compiled_runner(body):
    """The block runner of the compiled body `body`, else a skip.

    `body` is "avx2" or "baseline", on one thread, or either with "-2" for
    two threads whatever the map's size.
    """
    library = _native.load("_som_kernel.c")
    if library is None:
        pytest.skip("the C kernel was not compiled here")
    isa, _, threads = body.partition("-")
    if isa == "avx2" and not library.dam_som_avx2():
        pytest.skip("this CPU has no AVX2")
    name = "dam_som_block" if isa == "avx2" else "dam_som_block_baseline"
    return functools.partial(som._compiled_block, som._kernel(name), int(threads or 1))


@pytest.fixture(scope="class", params=["avx2", "baseline", "avx2-2", "baseline-2", "numpy"])
def block_runner(request):
    """Train with each C block body on one and on two threads, then with numpy's runner."""
    run_block = som._numpy_block if request.param == "numpy" else _compiled_runner(request.param)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(som, "_block_runner", lambda units, dim: run_block)
        yield request.param


@pytest.mark.usefixtures("block_runner")
@pytest.mark.filterwarnings("ignore:training set has fewer")
class TestTrainingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_training_cases())
    def test_codebook_bytes_match_the_plain_rule(self, case):
        samples, rows, cols, params, initial = case
        grid = train_som(samples, rows, cols, params, initial_codebook=initial)
        want = _reference_train_som(samples, rows, cols, params, initial)
        assert grid.codebook.tobytes() == want.tobytes()

    def test_an_overflowing_codebook_names_the_inputs(self):
        # A unit at the largest float pulled toward a sample at -1e300
        # overflows; the codebook it leaves is not a map.
        start = np.zeros((16, 2))
        start[15, 0] = np.finfo(np.float64).max
        params = SomTrainParams(epochs=3, radius_start=0.05, radius_end=0.05)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="samples or the initial codebook are too large in magnitude"):
            train_som(np.array([[-1e300, 0.0]]), 4, 4, params, initial_codebook=start)

    def test_duplicated_units_go_to_the_lowest_index(self):
        # Every unit starts at the same point: the first step is an exact
        # tie over all units, which must go to unit 0.
        rng = np.random.default_rng(31)
        samples = rng.normal(size=(1, 6))
        start = np.tile(rng.normal(size=6), (9, 1))
        params = SomTrainParams(epochs=1, seed=0)
        grid = train_som(samples, 3, 3, params, initial_codebook=start)
        want = _reference_train_som(samples, 3, 3, params, start)
        assert grid.codebook.tobytes() == want.tobytes()
        moved = np.linalg.norm(grid.codebook - start, axis=1)
        assert np.argmax(moved) == 0

    def test_near_tied_units_take_the_direct_form_winner(self):
        # Every unit permutes the same coordinates, so all distances to the
        # zero sample are equal in exact arithmetic and differ only by how
        # each summation order rounds. The codebook used has a unique lowest
        # einsum distance, an ulp or so below the next, at another unit than
        # the direct form's, so only the rounding bound sends the step to the
        # direct form.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            coords = rng.normal(size=48) * np.exp(rng.normal(size=48) * 3)
            start = np.array([rng.permutation(coords) for _ in range(12)])
            fast = np.einsum("ij,ij->i", start, start)
            lowest, runner_up = np.sort(fast)[:2]
            direct = np.argmin((start * start).sum(axis=1))
            if lowest < runner_up and np.argmin(fast) != direct:
                break
        else:
            pytest.skip("einsum ranks these units as the direct form does here")
        samples = np.zeros((1, 48))
        params = SomTrainParams(epochs=1, seed=0)
        grid = train_som(samples, 3, 4, params, initial_codebook=start)
        want = _reference_train_som(samples, 3, 4, params, start)
        assert grid.codebook.tobytes() == want.tobytes()

    def test_two_near_tied_units_take_the_direct_form_winner(self):
        # Units 3 and 7 permute the same coordinates and every other unit
        # twice them, so only 3 and 7 tie in exact arithmetic. Each runner
        # sums the 48 squares in its own order, so over these codebooks its
        # lower distance is sometimes unit 7's, only rounding below unit 3's,
        # while the direct form ranks unit 3 first: the step must be decided
        # by the rounding bound against unit 3, not against the far units.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            coords = rng.normal(size=48) * np.exp(rng.normal(size=48) * 3)
            start = np.array([rng.permutation(coords) for _ in range(12)])
            start[[0, 1, 2, 4, 5, 6, 8, 9, 10, 11]] *= 2.0
            samples = np.zeros((1, 48))
            params = SomTrainParams(epochs=1, seed=0)
            grid = train_som(samples, 3, 4, params, initial_codebook=start)
            want = _reference_train_som(samples, 3, 4, params, start)
            assert grid.codebook.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("block_steps", [1, 3])
    def test_short_blocks_match_the_plain_rule(self, block_steps, monkeypatch):
        # Every hypothesis case fits in one chunk of `_CHUNK_BUDGET` floats;
        # here a budget of 1 or 3 table rows splits a tie-heavy run into
        # chunks of 1 and 3 steps: rounded, repeated samples and units that
        # all start at one point. Units at the same grid distance from the
        # winners stay duplicates, so besides step 0 step 5, the last of its
        # 3-step chunk, is an exact tie.
        rng = np.random.default_rng(15)
        samples = np.round(rng.normal(size=(42, 6)), 1)
        samples[::3] = samples[1::3]
        start = np.tile(np.round(rng.normal(size=6), 1), (9, 1))
        params = SomTrainParams(epochs=2, seed=3)
        columns = len(som._neighbour_index(3, 3)[0])
        monkeypatch.setattr(som, "_CHUNK_BUDGET", block_steps * columns)
        grid = train_som(samples, 3, 3, params, initial_codebook=start)
        want = _reference_train_som(samples, 3, 3, params, start)
        assert grid.codebook.tobytes() == want.tobytes()


COMPILED_BODIES = ["avx2", "baseline", "avx2-2", "baseline-2"]


@pytest.mark.parametrize("body", COMPILED_BODIES)
def test_compiled_body_hands_undecided_steps_to_numpy(body, monkeypatch):
    # All units start at one point, so the first step is an exact tie the
    # kernel cannot decide: numpy must make it, one step at a time.
    runner = _compiled_runner(body)
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(40, 6))
    start = np.tile(rng.normal(size=6), (9, 1))
    params = SomTrainParams(epochs=2, seed=1)
    monkeypatch.setattr(som, "_block_runner", lambda units, dim: som._numpy_block)
    want = train_som(samples, 3, 3, params, initial_codebook=start).codebook.tobytes()

    numpy_block, handed = som._numpy_block, []

    def counted(*args):
        handed.append(len(args[4]))
        numpy_block(*args)

    monkeypatch.setattr(som, "_numpy_block", counted)
    monkeypatch.setattr(som, "_block_runner", lambda units, dim: runner)
    got = train_som(samples, 3, 3, params, initial_codebook=start).codebook.tobytes()
    assert handed and set(handed) == {1}
    assert got == want


def test_paper_shape_steps_stay_in_the_kernel(monkeypatch):
    # Each step the kernel hands back runs the slower direct-form numpy step.
    # A paper-shape training (the windows of half the paper corpus, a 25x25
    # map, 2 epochs) hands back none, on the threads this machine gives it;
    # a kernel change that sends more than 1% of them to numpy fails here
    # rather than only slowing the benchmark.
    if _native.load("_som_kernel.c") is None:
        pytest.skip("the C kernel was not compiled here")
    dataset = make_directional_dataset(classes=6, subjects=10, instances=10, raw_frames=45,
                                       joints=20, seed=0)
    train, _ = split_cross_subject(dataset, derive_seed(0, 0, 0))
    params = PreprocessParams(frames=25, window=3)
    samples = np.vstack([preprocess_action(a, params) for a in train])
    assert samples.shape == (6600, 180)

    numpy_block, handed = som._numpy_block, []

    def counted(*args):
        handed.append(len(args[4]))
        numpy_block(*args)

    monkeypatch.setattr(som, "_numpy_block", counted)
    train_som(samples, 25, 25, SomTrainParams(epochs=2, seed=derive_seed(0, 0, 1)))
    assert sum(handed) < 0.01 * 2 * len(samples)


def test_a_wrapped_runner_receives_the_bound_of_the_training_rows(monkeypatch):
    # Whatever `_block_runner` returns, a plain function around a runner
    # included, is handed X = max |coordinate| of the rows trained on, so the
    # C kernel's stays do not depend on the runner's type.
    samples = np.random.default_rng(5).normal(size=(60, 6))
    samples[16, 2], samples[17, 3] = -9.5, 100.0  # row 17 is not trained on
    subset = np.arange(0, 60, 2)
    params = SomTrainParams(epochs=2, seed=1)
    want = train_som(samples, 4, 4, params, subset=subset).codebook.tobytes()
    runner, sizes = som._block_runner(16, 6), []

    def wrapped(*args, **kwargs):
        sizes.append(kwargs.get("size"))
        runner(*args, **kwargs)

    monkeypatch.setattr(som, "_block_runner", lambda units, dim: wrapped)
    got = train_som(samples, 4, 4, params, subset=subset).codebook.tobytes()
    assert sizes and set(sizes) == {9.5}
    assert got == want


def test_two_threads_run_on_one_when_the_helper_cannot_start():
    # Under an address-space limit just above the process's size no thread
    # stack can be mapped, so the kernel's helper does not start: the caller's
    # thread then runs every block alone, to the same bytes.
    _compiled_runner("baseline")  # skips unless the kernel is compiled
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")
    code = """
import functools, resource, threading
import numpy as np
from dam import som
from dam.som import SomTrainParams, train_som

def train(threads):
    runner = functools.partial(som._compiled_block, som._kernel("dam_som_block"), threads)
    som._block_runner = lambda units, dim: runner
    samples = np.random.default_rng(0).normal(size=(300, 12))
    return train_som(samples, 5, 5, SomTrainParams(epochs=1, seed=0)).codebook.tobytes()

want = train(1)
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + (4 << 20), resource.RLIM_INFINITY))
try:
    threading.Thread(target=print).start()
except RuntimeError:
    print("no thread starts", train(2) == want)
"""
    src = Path(som.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "no thread starts True\n"


def test_units_move_when_the_stay_buffer_cannot_be_allocated():
    # Under an address-space limit 2 MB above the process's size, neither a
    # thread stack nor the kernel's 4 MB buffer of taus for a 1 x 2^19 map can
    # be mapped (glibc's mmap threshold is pinned, so that a large block is
    # never taken from freed heap): every unit then moves, on the caller's
    # thread, to the numpy runner's bytes. A 25x25 map's buffer still fits, so
    # its units stay, on the caller's thread alone. In both blocks every
    # weight but the winner's is 0, and units could stay at every step.
    _compiled_runner("baseline")  # skips unless the kernel is compiled
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")
    code = """
import ctypes, functools, resource
import numpy as np
from dam import som

def block(rows, cols, dim):
    rng = np.random.default_rng(rows)
    codebook = rng.normal(size=(rows * cols, dim))
    samples = rng.normal(size=(4, dim))
    neg_k, index = som._neighbour_index(rows, cols)
    table = np.zeros((4, len(neg_k)))
    table[:, 0] = 0.5
    args = samples, rows, cols, np.arange(4), table, index
    want = codebook.copy()
    som._numpy_block(want, *args)
    return codebook, args, float(np.abs(samples).max()), want

runner = functools.partial(som._compiled_block, som._kernel("dam_som_block"), 2)
blocks = [block(1, 1 << 19, 1), block(25, 25, 6)]
got = [codebook.copy() for codebook, *_ in blocks]
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + (2 << 20), resource.RLIM_INFINITY))
no_buffer = libc.malloc(1 << 22) is None
for codebook, (_, args, bound, _) in zip(got, blocks):
    runner(codebook, *args, size=bound)
resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
print("no buffer", no_buffer, [g.tobytes() == b[3].tobytes() for g, b in zip(got, blocks)])
"""
    src = Path(som.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(src),
                                           "MALLOC_MMAP_THRESHOLD_": "131072"})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "no buffer True [True, True]\n"


@pytest.mark.parametrize("body", ["avx2-2", "baseline-2"])
def test_concurrent_two_thread_trainings_keep_their_bytes(body, monkeypatch):
    # Four trainings at once, each on two kernel threads, oversubscribe the
    # CPUs: a waiting thread must yield, and each map must still train to
    # the bytes of one thread.
    runner = _compiled_runner(body)
    rng = np.random.default_rng(17)
    samples = [rng.normal(size=(2000, 32)) for _ in range(4)]
    params = SomTrainParams(epochs=1, seed=3)
    monkeypatch.setattr(som, "_block_runner",
                        lambda units, dim: _compiled_runner(body.replace("-2", "")))
    want = [train_som(x, 8, 8, params).codebook.tobytes() for x in samples]
    monkeypatch.setattr(som, "_block_runner", lambda units, dim: runner)
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(train_som, x, 8, 8, params) for x in samples]
        got = [f.result(timeout=120).codebook.tobytes() for f in futures]
    assert got == want


def _winner_only_block(codebook, samples, order):
    """`_compiled_block`'s arguments on a 4x4 map whose steps move only their winner."""
    rows, cols = 4, 4
    neg_k, index = som._neighbour_index(rows, cols)
    table = np.zeros((len(order), len(neg_k)))
    table[:, 0] = 0.5  # column 0 is the winner's own, at grid distance 0
    return codebook, samples, rows, cols, np.array(order, dtype=np.int64), table, index


@pytest.mark.parametrize("body", COMPILED_BODIES)
def test_undecided_steps_in_either_half_go_to_numpy(body, monkeypatch):
    # On a 4x4 map the second thread owns units 8..15. Units 2 and 5 are one
    # point near sample 0 and units 10 and 13 one point near sample 1, so the
    # first visit of each sample is an exact tie inside one half: the kernel
    # hands it to numpy, which picks the lower unit. Only winners move, so
    # the later visits have a clear winner, which the kernel decides.
    runner = _compiled_runner(body)
    rng = np.random.default_rng(4)
    codebook = rng.normal(size=(16, 6)) * 10.0
    codebook[[2, 5]] = rng.normal(size=6)
    codebook[[10, 13]] = rng.normal(size=6) + 3.0
    samples = np.stack([codebook[2], codebook[10]]) + rng.normal(size=(2, 6)) * 0.1
    order = [0, 1, 0, 1, 1, 0]
    want = codebook.copy()
    som._numpy_block(*_winner_only_block(want, samples, order))

    numpy_block, handed = som._numpy_block, []

    def counted(*args):
        handed.append(args[4].tolist())
        numpy_block(*args)

    monkeypatch.setattr(som, "_numpy_block", counted)
    got = codebook.copy()
    runner(*_winner_only_block(got, samples, order))
    assert handed == [[0], [1]]
    assert got.tobytes() == want.tobytes()
    moved = np.flatnonzero((got != codebook).any(axis=1))
    assert moved.tolist() == [2, 10]


@pytest.mark.parametrize("body", COMPILED_BODIES)
def test_exact_ties_across_the_split_go_to_the_lower_unit(body, monkeypatch):
    # Unit 6 of a 3x3 map, in the second thread's half (units 4..8), copies
    # unit 1 of the first: the one step, at a sample near them, ties across
    # the two halves and must go to unit 1, as the plain rule has it.
    rng = np.random.default_rng(12)
    start = rng.normal(size=(9, 5)) * 10.0
    start[6] = start[1]
    samples = start[1] + rng.normal(size=(1, 5)) * 0.01
    params = SomTrainParams(epochs=1, seed=2, radius_start=0.5)
    monkeypatch.setattr(som, "_block_runner", lambda units, dim: _compiled_runner(body))
    with pytest.warns(UserWarning, match="fewer"):
        grid = train_som(samples, 3, 3, params, initial_codebook=start)
    want = _reference_train_som(samples, 3, 3, params, start)
    assert grid.codebook.tobytes() == want.tobytes()
    moved = np.linalg.norm(grid.codebook - start, axis=1)
    assert moved[1] > 1000 * moved[6] > 0.0


def _stay_bound(codebook, size):
    """Each unit's tau as `_som_kernel.c` makes it, 2^-56 m / (M + size) with m and M
    the smallest and largest |coordinate| of the unit, or 0 when m < 2^-900 (or NaN)."""
    magnitude = np.abs(codebook)
    m = magnitude.min(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        tau = 2.0**-56 * m / (magnitude.max(axis=1) + size)
    return np.where(m >= 2.0**-900, tau, 0.0)


@st.composite
def _stay_rule_cases(draw):
    """A unit c whose every |coordinate| is at least 2^-900, a sample x, X >= max |x|
    and a weight h with |h| < tau(c, X). In a tight case every |c_j| is one power of
    two, 2^-900 or a neighbour of one, and x_j = -sign(c_j) X, so that |c_j - x_j|
    is largest; otherwise the magnitudes range from 2^-900 to 2^1000."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    signs = rng.choice([-1.0, 1.0], size=dim)
    if draw(st.booleans()):
        power = 2.0 ** draw(st.integers(-900, 1000))
        c = signs * draw(st.sampled_from([power, np.nextafter(power, 0.0),
                                          np.nextafter(power, np.inf)]))
        x = -signs * 2.0 ** draw(st.integers(-900, 1000))
        size = np.abs(x).max()
    else:
        c = signs * np.ldexp(rng.uniform(1.0, 2.0, size=dim), rng.integers(-900, 1000, size=dim))
        c[rng.random(dim) < 0.3] = signs[0] * draw(st.sampled_from(
            [2.0**-900, np.nextafter(2.0**-900, 1.0), 1.0, 2.0**1000]))
        x = rng.choice([-1.0, 1.0], size=dim) * np.ldexp(rng.uniform(0.0, 2.0, size=dim),
                                                         rng.integers(-1074, 1000, size=dim))
        x[rng.random(dim) < 0.3] = draw(st.sampled_from([0.0, -0.0, 5e-324]))
        size = np.abs(x).max() * draw(st.sampled_from([1.0, 2.0, 2.0**20]))
    [tau] = _stay_bound(c[None], size)
    assume(tau > 0.0)
    h = draw(st.sampled_from([0.0, -0.0, 5e-324, np.nextafter(tau, 0.0), tau * 0.75, tau / 2**40,
                              -np.nextafter(tau, 0.0)]))
    assume(abs(h) < tau)
    return c, x, size, h


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_stay_rule_cases())
def test_a_move_below_the_stay_bound_keeps_every_bit(case):
    # The rule `_som_kernel.c` skips moves by, checked with numpy's arithmetic
    # alone: t = c - x; t *= h; c -= t gives c's bytes back.
    c, x, size, h = case
    assert size >= np.abs(x).max()
    assert (c - (c - x) * h).tobytes() == c.tobytes()


def _half_column(index, rows, cols):
    """The table column of a unit half the map's longer side from the winner: the
    kernel lets units stay only at steps where its weight is below 2^-56."""
    return index[rows - 1 + rows // 2, cols - 1] if rows >= cols else index[rows - 1, cols - 1 + cols // 2]


# Coordinates at and around the edges of the stay rule: zeros of both signs,
# subnormals, 2^-900 and its neighbours, and magnitudes near `_SIZE_LIMIT`.
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.0**-1022 / 3, np.nextafter(2.0**-900, 0.0),
               2.0**-900, -np.nextafter(2.0**-900, 1.0), som._SIZE_LIMIT,
               -np.nextafter(som._SIZE_LIMIT, 0.0) / 3]


@st.composite
def _stay_blocks(draw):
    """A codebook with edge-case coordinates, samples, and a block of steps whose
    weights are built against the numpy runner's codebook before each step.

    Most steps are open to stays (the half column's weight is below 2^-56);
    at the others every unit moves by a quarter to all of its way. The weights of units other than the winner are 0, subnormal, tiny normals,
    2^-56 or a neighbour, one ulp below, at or above some unit's tau, or just
    below a tau the unit had at an earlier step. The steps run in two calls,
    so the second starts with a fresh tau for every unit.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 11))
    units = rows * cols
    codebook = rng.normal(size=(units, dim)) * 2.0 ** rng.integers(-30, 30, size=(units, 1))
    if draw(st.booleans()):  # every |coordinate| of a unit alike, the tightest case
        codebook = np.sign(codebook) * 2.0 ** rng.integers(-60, 60, size=(units, 1))
    for u in np.flatnonzero(rng.random(units) < 0.4):
        codebook[u, rng.integers(dim, size=rng.integers(1, 3))] = rng.choice(EDGE_VALUES)
    if units > 1 and draw(st.booleans()):  # a duplicated unit: tied steps go to numpy
        codebook[rng.integers(units)] = codebook[rng.integers(units)]
    n = draw(st.integers(1, 6))
    samples = rng.normal(size=(n, dim)) * 2.0 ** rng.integers(-20, 20)
    samples[rng.random((n, dim)) < 0.15] = rng.choice(EDGE_VALUES[:5])
    if draw(st.booleans()):
        samples = -np.sign(codebook[rng.integers(units, size=n)]) * np.abs(samples).max()
    size = float(np.abs(samples).max())
    steps = draw(st.integers(1, 12))
    order = rng.integers(n, size=steps)
    neg_k, index = som._neighbour_index(rows, cols)
    half = _half_column(index, rows, cols)
    pool = [0.0, 5e-324, 3e-310, 1e-300, 1e-30, 2.0**-56, np.nextafter(2.0**-56, 0.0)]
    table = np.empty((steps, len(neg_k)))
    reference, taus = codebook.copy(), []
    with np.errstate(all="ignore"):
        for s in range(steps):
            diff = reference - samples[order[s]]
            r, c = divmod(int(np.argmin((diff * diff).sum(axis=1))), cols)
            columns = index[rows - 1 - r : 2 * rows - 1 - r, cols - 1 - c : 2 * cols - 1 - c]
            row = rng.choice(pool, size=len(neg_k))
            row[0] = rng.choice([1.0, 0.5, 1e-3, 0.0])  # at 1 the winner jumps to the sample
            taus.append(_stay_bound(reference, size))
            for u in rng.integers(units, size=rng.integers(1, units + 1)):
                # Around the unit's tau now, or just below one it had before: a
                # kernel that kept a tau after the unit moved would then skip.
                tau, old = taus[-1][u], taus[rng.integers(len(taus))][u]
                row[columns.flat[u]] = rng.choice(
                    [np.nextafter(tau, 0.0), tau, np.nextafter(tau, np.inf), np.nextafter(old, 0.0)])
            if draw(st.integers(0, 4)) == 0:  # a step closed to stays: every unit moves
                row = rng.choice([1.0, 0.5, 0.25], size=len(neg_k))
            elif row[half] >= 2.0**-56:
                row[half] = 0.0
            table[s] = row
            som._numpy_block(reference, samples, rows, cols, order[s : s + 1], table[s : s + 1],
                             index)
    first = draw(st.integers(0, steps))
    return codebook, samples, rows, cols, order, table, index, size, first, reference


@pytest.mark.usefixtures("block_runner")
class TestStaysKeepTheBytes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_stay_blocks())
    def test_every_runner_gives_the_numpy_bytes(self, case):
        codebook, samples, rows, cols, order, table, index, size, first, want = case
        run_block = som._block_runner(rows * cols, samples.shape[1])
        got = codebook.copy()
        with np.errstate(all="ignore"):
            for part in (slice(0, first), slice(first, len(order))):
                if part.stop > part.start:
                    run_block(got, samples, rows, cols, order[part], table[part], index, size=size)
        assert got.tobytes() == want.tobytes()


# (alpha0, alpha1, sigma0, sigma1) of each schedule.
SCHEDULES = {
    "default-25x25": _schedule_ends(SomTrainParams(), 25, 25),
    "radius-start-none-8x8": _schedule_ends(SomTrainParams(radius_start=None), 8, 8),
    "constant": _schedule_ends(SomTrainParams(learning_rate_start=0.3, learning_rate_end=0.3,
                                              radius_start=2.0, radius_end=2.0), 5, 5),
    "smallest-radius": _schedule_ends(SomTrainParams(radius_end=1.06e-154), 25, 25),
    # sigma1 / sigma0 underflows to 0: every radius after step 0 is 0. SomTrainParams
    # refuses these radii, but both schedules must still agree on them.
    "radius-ratio-underflows": (0.5, 0.01, 1e300, 1.06e-154),
}


def _embed(rng, rows, extra, poison):
    """A table holding `rows` at distinct shuffled positions among `extra` other
    rows, and those positions; with `poison`, one other row is NaN or inf."""
    table = rng.normal(size=(len(rows) + extra, rows.shape[1])) * 1e3
    subset = rng.permutation(len(table))[: len(rows)]
    table[subset] = rows
    if poison and extra:
        outside = np.setdiff1d(np.arange(len(table)), subset)
        table[rng.choice(outside), rng.integers(rows.shape[1])] = rng.choice([np.nan, np.inf])
    return table, subset


@st.composite
def _subset_training_cases(draw):
    """A `_training_cases` case whose samples sit at a row subset of a larger table."""
    samples, rows, cols, params, initial = draw(_training_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table, subset = _embed(rng, samples, draw(st.integers(0, 30)), draw(st.booleans()))
    return table, subset, rows, cols, params, initial


@pytest.mark.usefixtures("block_runner")
@pytest.mark.filterwarnings("ignore:training set has fewer")
class TestTrainingOnRowSubsets:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(_subset_training_cases())
    def test_a_subset_trains_the_bytes_of_its_gathered_rows(self, case):
        # Non-finite rows outside the subset are never read.
        table, subset, rows, cols, params, initial = case
        grid = train_som(table, rows, cols, params, initial_codebook=initial, subset=subset)
        want = train_som(table[subset], rows, cols, params, initial_codebook=initial)
        assert grid.codebook.tobytes() == want.codebook.tobytes()

    def test_near_tie_hand_backs_read_the_subset_rows(self):
        # Every unit starts at one point and the rows repeat, so step 0 and
        # the steps whose winner has duplicates at its grid distance are
        # exact ties, which a compiled body hands to `_numpy_block`.
        rng = np.random.default_rng(8)
        samples = np.round(rng.normal(size=(30, 3)), 0)
        samples[10:20] = samples[:10]
        start = np.tile(rng.normal(size=3), (16, 1))
        table, subset = _embed(rng, samples, 25, poison=True)
        params = SomTrainParams(epochs=3, seed=4)
        grid = train_som(table, 4, 4, params, initial_codebook=start, subset=subset)
        want = _reference_train_som(samples, 4, 4, params, start)
        assert grid.codebook.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_row_in_the_subset_is_refused(self, bad):
        table = np.random.default_rng(2).normal(size=(40, 5))
        table[17, 3] = bad
        with pytest.raises(ValueError, match="^samples contain non-finite values$"):
            train_som(table, 2, 2, subset=[3, 17, 30])
        train_som(table, 2, 2, subset=[3, 16, 30])


class TestSearchOnRowSubsets:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_near_tie_cases(), st.integers(0, 2**32 - 1), st.integers(0, 20), st.booleans())
    def test_a_subset_finds_the_winners_of_its_gathered_rows(self, case, seed, extra, poison):
        codebook, xs = case
        table, subset = _embed(np.random.default_rng(seed), xs, extra, poison)
        grid = SomGrid(rows=1, cols=codebook.shape[0], codebook=codebook)
        winners = bmu_batch(grid, table, subset=subset)
        assert_array_equal(winners, bmu_batch(grid, table[subset]))
        assert_array_equal(winners, _direct_oracle(codebook, xs))

    def test_subsets_spanning_several_row_blocks(self):
        rng = np.random.default_rng(21)
        k, dim = 625, 6
        block = _CHUNK_BUDGET // k
        codebook = rng.normal(size=(k, dim))
        codebook[400:420] = codebook[:20]
        xs = rng.normal(size=(2 * block + 50, dim))
        for edge in (block, 2 * block):
            xs[edge - 2 : edge + 2] = codebook[[400, 401, 402, 403]]
            xs[edge + 2] = (codebook[0] + codebook[1]) / 2.0
        table, subset = _embed(rng, xs, 300, poison=True)
        grid = SomGrid(rows=25, cols=25, codebook=codebook)
        want = _direct_oracle(codebook, xs)
        assert_array_equal(bmu_batch(grid, table, subset=subset), want)
        for edge in (block, 2 * block):
            assert_array_equal(want[edge - 2 : edge + 2], [0, 1, 2, 3])

    def test_a_non_finite_row_is_named_by_its_place_in_the_subset(self):
        grid = SomGrid(rows=1, cols=3, codebook=np.eye(3))
        table = np.zeros((500, 3))
        table[7, 1] = np.nan
        subset = np.arange(499, -1, -1)  # row 7 is query 492, in the last block
        with pytest.raises(ValueError, match="^query row 492 contains non-finite values$"):
            bmu_batch(grid, table, subset=subset)
        assert_array_equal(bmu_batch(grid, table, subset=subset[:492]), np.zeros(492))

    @pytest.mark.parametrize("subset, match", [
        ([[0, 1]], "1-D array of row indices"),
        ([0.0, 1.0], "1-D array of row indices"),
        ([True, False], "1-D array of row indices"),
        ([0, 5], r"outside \[0, 5\)"),
        ([-1], r"outside \[0, 5\)"),
    ])
    def test_subsets_must_be_row_indices(self, subset, match):
        grid = SomGrid(rows=1, cols=2, codebook=np.eye(2))
        with pytest.raises(ValueError, match=match):
            bmu_batch(grid, np.zeros((5, 2)), subset=subset)
        with pytest.raises(ValueError, match=match):
            train_som(np.zeros((5, 2)), 1, 2, subset=subset)

    def test_an_empty_subset(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.eye(2))
        assert bmu_batch(grid, np.zeros((5, 2)), subset=[]).shape == (0,)
        with pytest.raises(ValueError, match="^subset selects no rows$"):
            train_som(np.zeros((5, 2)), 1, 2, subset=[])


class TestChunkedSchedule:
    @pytest.mark.parametrize("total", [1, 2, 3, 127, 128, 129, 14_784, 100_003])
    @pytest.mark.parametrize("case", list(SCHEDULES))
    def test_compiled_schedule_matches_python_bits(self, case, total):
        if _native.load("_som_kernel.c") is None:
            pytest.skip("the C kernel was not compiled here")
        schedule = som._schedule()
        assert schedule is not som._python_schedule
        ends = SCHEDULES[case]
        want = som._python_schedule(*ends, total, 0, total)
        whole = schedule(*ends, total, 0, total)
        # A chunk starting mid-schedule gives that part of the whole.
        first = total // 3
        part = schedule(*ends, total, first, total - first)
        for got, expected in zip(whole, want):
            assert got.tobytes() == expected.tobytes()
        for got, expected in zip(part, want):
            assert got.tobytes() == expected[first:].tobytes()

    def test_an_8x8_training_runs_in_table_sized_chunks(self, monkeypatch):
        # 34 distinct squared grid distances at 8x8, so 65 536 // 34 = 1 927
        # steps per chunk: 14 784 steps make ceil(14 784 / 1 927) = 8 runner
        # calls, every chunk full but the last.
        columns = len(som._neighbour_index(8, 8)[0])
        assert _CHUNK_BUDGET // columns == 1927
        block_runner, calls = som._block_runner, []

        def counting(units, dim):
            run_block = block_runner(units, dim)

            def counted(codebook, samples, rows, cols, order, table, index, size):
                calls.append(len(order))
                assert table.shape == (len(order), columns)
                run_block(codebook, samples, rows, cols, order, table, index, size=size)
            return counted

        monkeypatch.setattr(som, "_block_runner", counting)
        samples = np.random.default_rng(3).normal(size=(1848, 4))
        train_som(samples, 8, 8, SomTrainParams(epochs=8, seed=0))
        assert calls == [1927] * 7 + [14_784 - 7 * 1927]


class TestThreadCount:
    def test_large_maps_take_two_threads_in_the_main_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert som._thread_count(625, 180) == 2
        assert som._thread_count(1, som._THREAD_MIN_WORK) == 2

    def test_small_maps_take_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert som._thread_count(1, som._THREAD_MIN_WORK - 1) == 1
        assert som._thread_count(64, 180) == 1

    def test_one_cpu_takes_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert som._thread_count(625, 180) == 1

    def test_threads_other_than_the_main_one_take_one(self, monkeypatch):
        # The threads of `--jobs N` already keep the CPUs busy.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(som._thread_count, 625, 180).result(timeout=60) == 1
        assert som._thread_count(625, 180) == 2

    def test_pool_workers_take_one(self):
        # The workers of a caller's own process pool already keep the CPUs
        # busy.
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(som._thread_count, 625, 180).result(timeout=60) == 1


class TestTraining:
    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=(80, 6))
        params = SomTrainParams(epochs=5, seed=123)
        g1 = train_som(samples, 3, 3, params)
        g2 = train_som(samples, 3, 3, params)
        assert_array_equal(g1.codebook, g2.codebook)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(10)
        samples = rng.normal(size=(80, 6))
        a = train_som(samples, 3, 3, SomTrainParams(epochs=5, seed=1))
        b = train_som(samples, 3, 3, SomTrainParams(epochs=5, seed=2))
        assert not np.array_equal(a.codebook, b.codebook)

    def test_separated_clouds_get_pure_units(self):
        rng = np.random.default_rng(11)
        samples, cloud = _two_clouds(rng)
        grid = train_som(samples, 3, 3, SomTrainParams(epochs=10, seed=0))
        assert np.isfinite(grid.codebook).all()
        assigned = bmu_batch(grid, samples)
        for unit in np.unique(assigned):
            owners = cloud[assigned == unit]
            assert len(set(owners.tolist())) == 1, f"unit {unit} mixes both clouds"

    def test_codebook_contracts_toward_constant_sample(self):
        v = np.array([2.0, -1.0, 0.5])
        samples = np.tile(v, (30, 1))
        start = np.full((4, 3), 40.0) + np.arange(12).reshape(4, 3)
        dists = []
        for epochs in [1, 2, 3, 5]:
            grid = train_som(
                samples, 2, 2,
                SomTrainParams(epochs=epochs, seed=0),
                initial_codebook=start,
            )
            dists.append(np.linalg.norm(grid.codebook - v, axis=1).max())
        assert all(b < a for a, b in zip(dists, dists[1:])), dists

    def test_warns_when_fewer_samples_than_units(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(size=(3, 4))
        with pytest.warns(UserWarning, match="fewer"):
            train_som(samples, 3, 3, SomTrainParams(epochs=2, seed=0))

    def test_rejects_empty_or_non_finite(self):
        with pytest.raises(ValueError):
            train_som(np.zeros((0, 4)), 2, 2, SomTrainParams())
        with pytest.raises(ValueError):
            train_som(np.full((5, 4), np.nan), 2, 2, SomTrainParams())
        start = np.zeros((4, 4))
        start[2, 1] = np.inf
        with pytest.raises(ValueError, match="initial_codebook contains non-finite"):
            train_som(np.zeros((5, 4)), 2, 2, SomTrainParams(), initial_codebook=start)

    def test_initial_codebook_is_sampled_from_training_vectors(self):
        # With learning rate ~0 the codebook stays at its initialization,
        # which must be rows of the training set.
        rng = np.random.default_rng(13)
        samples = rng.normal(size=(50, 4))
        params = SomTrainParams(
            epochs=1, learning_rate_start=1e-12, learning_rate_end=1e-13, seed=7
        )
        grid = train_som(samples, 2, 2, params)
        for unit in grid.codebook:
            match = np.isclose(samples, unit, atol=1e-9).all(axis=1)
            assert match.any()


@pytest.mark.usefixtures("block_runner")
class TestPinnedDigests:
    def test_codebook_bytes_match_the_pinned_digest(self):
        # Pins the online rule's exact output (numpy 2.x, x86-64), so a faster
        # training loop can show it changes no bit of the codebook.
        rng = np.random.default_rng(2024)
        samples = rng.normal(size=(200, 12))
        grid = train_som(samples, 5, 5, SomTrainParams(epochs=3, seed=7))
        digest = hashlib.sha256(grid.codebook.tobytes()).hexdigest()
        assert digest == "5031de5d94ff5d75fba5ff055839599e377aca28a2a1798fb75248950359e1f3"

    def test_paper_shape_codebook_bytes_match_the_pinned_digest(self):
        # The benchmark's shape (numpy 2.x, x86-64): 625 units, vectors of
        # dimension 180. Fewer samples than units, so some units start as
        # duplicates.
        rng = np.random.default_rng(625)
        samples = rng.normal(size=(300, 180))
        with pytest.warns(UserWarning, match="fewer"):
            grid = train_som(samples, 25, 25, SomTrainParams(epochs=1, seed=11))
        digest = hashlib.sha256(grid.codebook.tobytes()).hexdigest()
        assert digest == "31ab61094061e8060c80827a9079211ac6473aa187d4659155418da5a674c20e"


class TestQuantizationError:
    def test_hand_value(self):
        grid = SomGrid(rows=1, cols=2, codebook=np.array([[0.0, 0.0], [2.0, 0.0]]))
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        # distances to nearest unit: 0, 1, 1 -> mean 2/3
        assert quantization_error(grid, samples) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_training_reduces_error_on_structured_data(self):
        rng = np.random.default_rng(14)
        samples, _ = _two_clouds(rng)
        init = rng.normal(size=(9, samples.shape[1])) * 100
        before = quantization_error(SomGrid(3, 3, init.copy()), samples)
        grid = train_som(samples, 3, 3, SomTrainParams(epochs=10, seed=0), initial_codebook=init)
        assert quantization_error(grid, samples) < before
